//! The master's wire, shared by every engine: the transfers in flight
//! under the star's contention model, and the port accounting they
//! leave behind.
//!
//! A [`LaneTable`] admits a transfer while the
//! [`ContentionModel`] has capacity, re-shares the wire whenever the
//! active set changes, and keeps each lane's projected completion time
//! cached. Shares change *only* at a membership change, and only a lane
//! whose share changed has its remaining work advanced and its end
//! re-projected — between changes every cached end is exact, and under
//! one-port (a lone lane at share 1.0) nothing is ever re-projected.
//!
//! The table is generic over the engine's per-lane payload `P` and
//! knows no clock: the simulator schedules a kernel event at each
//! [`moved`](LaneTable::moved_mut) lane's end, the reactor sleeps until
//! [`next_completion`](LaneTable::next_completion). Times are whatever
//! scale the caller's `now` is in (both engines use model seconds).

use stargemm_netmodel::{ContentionModel, ShareScratch, TransferLane};
use stargemm_obs::{Dir, ObsEvent, ObsSink};
use stargemm_platform::dynamic::{transfer_end_opt, transfer_nominal_between_opt, DynProfile};
use stargemm_platform::WorkerId;

use crate::msg::ChunkId;
use crate::stats::PortStats;

/// One wire transfer in flight.
///
/// `rem` nominal seconds (blocks · c_i at full link speed, unit trace)
/// were still unserved as of time `since`, progressing at `share` of
/// the link; `end` is the completion that projects to.
#[derive(Debug)]
pub struct Lane<P> {
    /// Admission-order identity, the handle [`LaneTable::complete`] takes.
    pub id: u64,
    pub worker: WorkerId,
    pub chunk: ChunkId,
    /// Contention lane the transfer occupies (lowest free at admission).
    pub lane: usize,
    /// Projected completion under the current shares.
    pub end: f64,
    /// Whatever the engine hangs on the transfer.
    pub payload: P,
    dir: Dir,
    blocks: u64,
    rem: f64,
    /// `None` until the lane's first re-share.
    share: Option<f64>,
    since: f64,
    started: f64,
    /// The last re-share moved `end` (or projected it for the first
    /// time).
    moved: bool,
}

/// The transfers in flight on one master's port.
pub struct LaneTable<P> {
    model: Box<dyn ContentionModel>,
    /// Per-worker nominal block costs `c_i`.
    cs: Vec<f64>,
    /// Per-worker link capacities `1 / c_i`, as the contention model
    /// wants them.
    link_rates: Vec<f64>,
    profile: Option<DynProfile>,
    /// In start order.
    active: Vec<Lane<P>>,
    lane_used: Vec<bool>,
    /// Reusable lane descriptions and share buffers handed to the
    /// contention model (the re-share hot path allocates nothing in
    /// steady state).
    lane_scratch: Vec<TransferLane>,
    share_scratch: ShareScratch,
    next_id: u64,
    port_busy: f64,
    /// Per-lane busy/idle breakdown (always on — plain accumulation).
    port: PortStats,
    /// Time the port last went fully idle.
    all_free_since: f64,
    obs: ObsSink,
}

impl<P> LaneTable<P> {
    /// An idle port over links of nominal block costs `cs`, throttled by
    /// `profile`'s cost traces, emitting `PortAcquire`/`PortRelease`
    /// into `obs`.
    pub fn new(
        model: Box<dyn ContentionModel>,
        cs: Vec<f64>,
        profile: Option<DynProfile>,
        obs: ObsSink,
    ) -> Self {
        LaneTable {
            model,
            link_rates: cs.iter().map(|c| 1.0 / c).collect(),
            cs,
            profile,
            active: Vec::new(),
            lane_used: Vec::new(),
            lane_scratch: Vec::new(),
            share_scratch: ShareScratch::new(),
            next_id: 0,
            port_busy: 0.0,
            port: PortStats::default(),
            all_free_since: 0.0,
            obs,
        }
    }

    /// The dynamic profile the links follow.
    pub fn profile(&self) -> Option<&DynProfile> {
        self.profile.as_ref()
    }

    /// Whether the contention model admits another transfer right now.
    pub fn can_admit(&self) -> bool {
        self.active.len() < self.model.capacity()
    }

    /// Admits a transfer of `blocks` blocks on `worker`'s link at time
    /// `now` and re-shares the wire; the caller has checked
    /// [`can_admit`](Self::can_admit). Returns the lane's id.
    pub fn admit(
        &mut self,
        now: f64,
        worker: WorkerId,
        dir: Dir,
        chunk: ChunkId,
        blocks: u64,
        payload: P,
    ) -> u64 {
        debug_assert!(self.can_admit(), "transfer admitted past capacity");
        // Lowest free contention lane (one-port: always lane 0).
        let lane = match self.lane_used.iter().position(|&u| !u) {
            Some(lane) => lane,
            None => {
                self.lane_used.push(false);
                self.lane_used.len() - 1
            }
        };
        self.lane_used[lane] = true;
        let id = self.next_id;
        self.next_id += 1;
        self.active.push(Lane {
            id,
            worker,
            dir,
            chunk,
            blocks,
            lane,
            // A fresh lane has no share yet; the re-share below projects it.
            end: f64::NAN,
            payload,
            rem: blocks as f64 * self.cs[worker],
            share: None,
            since: now,
            started: now,
            moved: false,
        });
        // An admission onto a fully idle port closes a stall — except the
        // first ever: the gap before it is ramp-up.
        let gap = now - self.all_free_since;
        if id > 0 && self.active.len() == 1 && gap > 0.0 {
            self.port.idle_gaps += 1;
            self.port.idle_time += gap;
            self.port.longest_stall = self.port.longest_stall.max(gap);
        }
        self.port.peak_lanes = self.port.peak_lanes.max(self.active.len() as u64);
        self.obs.emit(|| ObsEvent::PortAcquire {
            time: now,
            lane,
            worker,
            dir,
            chunk,
            blocks,
        });
        self.reshare(now);
        id
    }

    /// Completes lane `id` at time `now`: charges the port, frees the
    /// lane and re-shares the rest.
    pub fn complete(&mut self, id: u64, now: f64) -> Lane<P> {
        let idx = self
            .active
            .iter()
            .position(|l| l.id == id)
            .expect("completion of an unknown lane");
        let done = self.active.remove(idx);
        self.lane_used[done.lane] = false;
        let busy = now - done.started;
        self.port_busy += busy;
        if self.port.lane_busy.len() <= done.lane {
            self.port.lane_busy.resize(done.lane + 1, 0.0);
        }
        self.port.lane_busy[done.lane] += busy;
        if self.active.is_empty() {
            self.all_free_since = now;
        }
        self.obs.emit(|| ObsEvent::PortRelease {
            time: now,
            lane: done.lane,
            worker: done.worker,
            dir: done.dir,
            chunk: done.chunk,
            blocks: done.blocks,
        });
        self.reshare(now);
        done
    }

    /// Recomputes the active lanes' bandwidth shares and re-projects
    /// every lane whose share changed. Called only when the active set
    /// changes, so between calls shares are constant and each cached end
    /// stays exact.
    fn reshare(&mut self, now: f64) {
        if self.active.is_empty() {
            return;
        }
        self.lane_scratch.clear();
        self.lane_scratch
            .extend(self.active.iter().map(|l| TransferLane {
                worker: l.worker,
                link_rate: self.link_rates[l.worker],
            }));
        self.model
            .shares_into(&self.lane_scratch, &mut self.share_scratch);
        debug_assert_eq!(self.share_scratch.shares().len(), self.active.len());
        let profile = self.profile.as_ref();
        for (l, &share) in self.active.iter_mut().zip(self.share_scratch.shares()) {
            l.moved = l.share != Some(share);
            if !l.moved {
                continue; // projected end still exact
            }
            // Progress served under the old share since the last update
            // (a fresh lane has no progress yet).
            if let Some(old) = l.share {
                let served = old * transfer_nominal_between_opt(profile, l.worker, l.since, now);
                l.rem = (l.rem - served).max(0.0);
            }
            l.since = now;
            l.share = Some(share);
            l.end = transfer_end_opt(profile, l.worker, now, l.rem, share);
        }
    }

    /// The lanes whose projected end the last [`admit`](Self::admit) or
    /// [`complete`](Self::complete) moved, in start order — the ones a
    /// clock that keeps a timer per lane must re-arm.
    pub fn moved_mut(&mut self) -> impl Iterator<Item = &mut Lane<P>> {
        self.active.iter_mut().filter(|l| l.moved)
    }

    /// The earliest projected completion, `(lane id, end)`; ties go to
    /// the lane admitted first.
    pub fn next_completion(&self) -> Option<(u64, f64)> {
        self.active
            .iter()
            .map(|l| (l.id, l.end))
            .min_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)))
    }

    /// Seconds the port spent transferring (the sum of every completed
    /// lane's occupancy interval).
    pub fn port_busy(&self) -> f64 {
        self.port_busy
    }

    /// The per-lane busy/idle breakdown so far.
    pub fn port_stats(&self) -> PortStats {
        self.port.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stargemm_netmodel::NetModelSpec;
    use stargemm_platform::dynamic::{Trace, WorkerDyn};

    fn table(spec: NetModelSpec, cs: &[f64], profile: Option<DynProfile>) -> LaneTable<()> {
        LaneTable::new(spec.build(), cs.to_vec(), profile, ObsSink::off())
    }

    /// Admits a payload-free transfer of `base` nominal seconds; returns
    /// its lane id.
    fn admit(t: &mut LaneTable<()>, now: f64, worker: usize, base: f64) -> u64 {
        let blocks = (base / t.cs[worker]) as u64;
        t.admit(now, worker, Dir::ToMaster, 0, blocks, ())
    }

    #[test]
    fn one_port_refuses_a_second_admission() {
        let mut t = table(NetModelSpec::OnePort, &[0.5, 0.5], None);
        assert!(t.can_admit());
        let id = admit(&mut t, 0.0, 0, 3.0);
        assert!(!t.can_admit(), "the port is taken");
        assert_eq!(t.next_completion(), Some((id, 3.0)));
        t.complete(id, 3.0);
        assert!(t.can_admit(), "released at completion");
        assert_eq!(t.next_completion(), None);
        assert_eq!(t.port_busy(), 3.0);
    }

    #[test]
    fn multi_port_completes_disjoint_links_at_their_nominal_times() {
        let spec = NetModelSpec::BoundedMultiPort {
            k: 2,
            backbone: None,
        };
        let mut t = table(spec, &[0.5, 0.25], None);
        let slow = admit(&mut t, 0.0, 0, 4.0);
        let fast = admit(&mut t, 1.0, 1, 2.0);
        assert!(!t.can_admit(), "both ports taken");
        // Neither transfer slows the other: each ends `base` after its
        // own start, and the two occupy distinct accounting lanes.
        assert_eq!(t.next_completion(), Some((fast, 3.0)));
        assert_eq!(t.complete(fast, 3.0).lane, 1);
        assert_eq!(t.moved_mut().count(), 0, "the survivor's share held");
        assert_eq!(t.next_completion(), Some((slow, 4.0)));
        assert_eq!(t.complete(slow, 4.0).lane, 0);
        assert_eq!(t.port_stats().lane_busy, [4.0, 2.0]);
    }

    #[test]
    fn fair_share_halves_concurrent_rates_and_reshares_to_the_survivor() {
        // Two 1 block/s links under a 1 block/s backbone: share 0.5 each.
        let spec = NetModelSpec::FairShare { backbone: 1.0 };
        let mut t = table(spec, &[1.0, 1.0], None);
        let short = admit(&mut t, 0.0, 0, 1.0);
        assert_eq!(t.moved_mut().map(|l| l.id).collect::<Vec<_>>(), [short]);
        let long = admit(&mut t, 0.0, 1, 2.0);
        assert_eq!(t.moved_mut().count(), 2, "both lanes were re-projected");
        assert!(t.can_admit(), "fair share admits without bound");
        // At half rate the 1 s transfer takes 2 s, the 2 s one would
        // take 4 s...
        assert_eq!(t.next_completion(), Some((short, 2.0)));
        t.complete(short, 2.0);
        // ...but the survivor (1 s of work left) gets the whole backbone
        // back and finishes at 3.
        assert_eq!(t.next_completion(), Some((long, 3.0)));
    }

    #[test]
    fn c_scale_trace_stretches_the_projected_completion() {
        // Link 0 costs x4 from t = 0: 3 nominal seconds take 12.
        let scaled = WorkerDyn::new(Trace::new(vec![(0.0, 4.0)]), Trace::default(), vec![]);
        let flat = WorkerDyn::new(Trace::default(), Trace::default(), vec![]);
        let profile = DynProfile::new(vec![scaled, flat]);
        let spec = NetModelSpec::FairShare { backbone: 1.0 };
        let mut t = table(spec, &[1.0, 1.0], Some(profile));
        let id = admit(&mut t, 0.0, 0, 3.0);
        assert_eq!(t.next_completion(), Some((id, 12.0)));
        // Halfway there a second lane halves the share, which advances
        // the first: half the nominal work is left.
        let other = admit(&mut t, 6.0, 1, 1.0);
        assert_eq!(t.active[0].rem, 1.5);
        // The second lane ends at t = 8 and hands the link back.
        assert_eq!(t.next_completion(), Some((other, 8.0)));
        t.complete(other, 8.0);
        assert_eq!(t.active[0].rem, 1.25);
        assert_eq!(t.next_completion(), Some((id, 13.0)));
    }
}
