//! The master's wire, shared by every engine: the transfers in flight
//! under the star's contention model, and the port accounting they
//! leave behind.
//!
//! A [`LaneTable`] admits a transfer while its contention model (a
//! [`NetModelSpec`], held by value — the table asks it the same two
//! questions the steady-state LP does) has capacity, re-shares the wire
//! whenever the active set changes, and keeps each lane's projected
//! completion time cached. Shares change *only* at a membership change, and only a lane
//! whose share changed has its remaining work advanced and its end
//! re-projected — between changes every cached end is exact, and under
//! one-port (a lone lane at share 1.0) nothing is ever re-projected.
//!
//! The table *is* the transfer clock of both engines: the pass that
//! re-projects also caches the earliest completion, so
//! [`next_completion`](LaneTable::next_completion) is O(1) between
//! membership changes, and neither engine keeps a second timer per
//! lane. Simultaneous completions resolve by **one tie rule**: every
//! (re)projection stamps the lane with the next number of a counter the
//! engine lends the table, and the earliest completion is the least
//! `(end, stamp)` — a lane whose share held keeps its older stamp and
//! goes first. The simulator lends its kernel's schedule sequence
//! ([`EventQueue::take_seq`](crate::kernel::EventQueue::take_seq)), so a
//! lane orders against compute and lifecycle events in the heap exactly
//! as a kernel event pushed at its last re-projection would; the
//! reactor lends a counter of its own.
//!
//! The table is generic over the engine's per-lane payload `P` and
//! knows no clock and no event queue. Times are whatever scale the
//! caller's `now` is in (both engines use model seconds).

use stargemm_netmodel::{NetModelSpec, ShareScratch, TransferLane};
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
    /// Sequence stamp of the latest (re)projection of `end`: the
    /// tie-break among simultaneous completions.
    pub stamp: u64,
    /// Whatever the engine hangs on the transfer.
    pub payload: P,
    dir: Dir,
    blocks: u64,
    rem: f64,
    /// `None` until the lane's first re-share.
    share: Option<f64>,
    since: f64,
    started: f64,
}

/// The earliest projected completion of a [`LaneTable`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Completion {
    /// The lane's id, the handle [`LaneTable::complete`] takes.
    pub lane: u64,
    /// Its projected end.
    pub end: f64,
    /// The stamp of that projection.
    pub stamp: u64,
}

impl Completion {
    /// The tie rule, in one place: whether this completion comes before
    /// an event keyed `(time, seq)` — another lane's `(end, stamp)`, or
    /// the `(time, schedule sequence)` of an event on a kernel heap the
    /// stamps were drawn from. Times compare by `f64::total_cmp`, so a
    /// `+∞` end (a link that never serves) orders last.
    pub fn precedes(&self, (time, seq): (f64, u64)) -> bool {
        self.end.total_cmp(&time).then(self.stamp.cmp(&seq)).is_lt()
    }
}

/// The transfers in flight on one master's port.
pub struct LaneTable<P> {
    model: NetModelSpec,
    /// Per-worker nominal block costs `c_i`.
    cs: Vec<f64>,
    /// Per-worker link capacities `1 / c_i`, as the contention model
    /// wants them.
    link_rates: Vec<f64>,
    profile: Option<DynProfile>,
    /// In start order.
    active: Vec<Lane<P>>,
    /// The least `(end, stamp)` over `active`, refreshed by every
    /// re-share.
    head: Option<Completion>,
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
    ///
    /// # Panics
    /// Panics on an invalid `model` ([`NetModelSpec::assert_valid`]).
    pub fn new(
        model: NetModelSpec,
        cs: Vec<f64>,
        profile: Option<DynProfile>,
        obs: ObsSink,
    ) -> Self {
        model.assert_valid();
        LaneTable {
            model,
            link_rates: cs.iter().map(|c| 1.0 / c).collect(),
            cs,
            profile,
            active: Vec::new(),
            head: None,
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

    /// The transfers in flight, in start order.
    pub fn in_flight(&self) -> &[Lane<P>] {
        &self.active
    }

    /// Admits a transfer of `blocks` blocks on `worker`'s link at time
    /// `now` and re-shares the wire, drawing one stamp from `stamps` per
    /// lane the re-share (re)projects, in start order; the caller has
    /// checked [`can_admit`](Self::can_admit). Returns the lane's id.
    #[allow(clippy::too_many_arguments)]
    pub fn admit(
        &mut self,
        now: f64,
        worker: WorkerId,
        dir: Dir,
        chunk: ChunkId,
        blocks: u64,
        payload: P,
        mut stamps: impl FnMut() -> u64,
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
            // A fresh lane has no share yet; the re-share below projects
            // and stamps it.
            end: f64::NAN,
            stamp: 0,
            payload,
            rem: blocks as f64 * self.cs[worker],
            share: None,
            since: now,
            started: now,
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
            lane: ObsEvent::narrow(lane),
            worker: ObsEvent::narrow(worker),
            dir,
            chunk,
            blocks,
        });
        self.reshare(now, &mut stamps);
        id
    }

    /// Completes lane `id` at time `now`: charges the port, frees the
    /// lane and re-shares the rest (stamping as [`admit`](Self::admit)
    /// does).
    pub fn complete(&mut self, id: u64, now: f64, mut stamps: impl FnMut() -> u64) -> Lane<P> {
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
            lane: ObsEvent::narrow(done.lane),
            worker: ObsEvent::narrow(done.worker),
            dir: done.dir,
            chunk: done.chunk,
            blocks: done.blocks,
        });
        self.reshare(now, &mut stamps);
        done
    }

    /// Recomputes the active lanes' bandwidth shares, re-projects and
    /// re-stamps every lane whose share changed, and caches the earliest
    /// completion. Called only when the active set changes, so between
    /// calls shares are constant and each cached end — and the head —
    /// stays exact.
    fn reshare(&mut self, now: f64, stamps: &mut impl FnMut() -> u64) {
        self.head = None;
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
            // A lane whose share held keeps its end (still exact) and
            // its stamp.
            if l.share != Some(share) {
                // Progress served under the old share since the last
                // update (a fresh lane has no progress yet).
                if let Some(old) = l.share {
                    let served =
                        old * transfer_nominal_between_opt(profile, l.worker, l.since, now);
                    l.rem = (l.rem - served).max(0.0);
                }
                l.since = now;
                l.share = Some(share);
                l.end = transfer_end_opt(profile, l.worker, now, l.rem, share);
                assert!(!l.end.is_nan(), "transfer projected to end at NaN");
                l.stamp = stamps();
            }
            let projected = Completion {
                lane: l.id,
                end: l.end,
                stamp: l.stamp,
            };
            if self
                .head
                .is_none_or(|h| projected.precedes((h.end, h.stamp)))
            {
                self.head = Some(projected);
            }
        }
    }

    /// The earliest projected completion: the least `(end, stamp)` over
    /// the lanes in flight, for every engine — among simultaneous ends
    /// the lane whose end was projected first goes first. O(1): cached
    /// by the last re-share.
    pub fn next_completion(&self) -> Option<Completion> {
        self.head
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
    use stargemm_platform::dynamic::{Trace, WorkerDyn};

    /// A payload-free table plus the stamp counter an engine would lend
    /// it.
    struct Port {
        t: LaneTable<()>,
        seq: u64,
    }

    fn port(spec: NetModelSpec, cs: &[f64], profile: Option<DynProfile>) -> Port {
        Port {
            t: LaneTable::new(spec, cs.to_vec(), profile, ObsSink::off()),
            seq: 0,
        }
    }

    impl Port {
        /// Admits a transfer of `base` nominal seconds; returns its lane
        /// id.
        fn admit(&mut self, now: f64, worker: usize, base: f64) -> u64 {
            let blocks = (base / self.t.cs[worker]) as u64;
            let seq = &mut self.seq;
            self.t
                .admit(now, worker, Dir::ToMaster, 0, blocks, (), || take(seq))
        }

        fn complete(&mut self, id: u64, now: f64) -> Lane<()> {
            let seq = &mut self.seq;
            self.t.complete(id, now, || take(seq))
        }

        /// `(lane id, end)` of the earliest completion.
        fn next(&self) -> Option<(u64, f64)> {
            self.t.next_completion().map(|c| (c.lane, c.end))
        }

        fn stamps(&self) -> Vec<u64> {
            self.t.in_flight().iter().map(|l| l.stamp).collect()
        }
    }

    fn take(seq: &mut u64) -> u64 {
        *seq += 1;
        *seq - 1
    }

    #[test]
    fn one_port_refuses_a_second_admission() {
        let mut p = port(NetModelSpec::OnePort, &[0.5, 0.5], None);
        assert!(p.t.can_admit());
        let id = p.admit(0.0, 0, 3.0);
        assert!(!p.t.can_admit(), "the port is taken");
        assert_eq!(p.next(), Some((id, 3.0)));
        p.complete(id, 3.0);
        assert!(p.t.can_admit(), "released at completion");
        assert_eq!(p.next(), None);
        assert_eq!(p.t.port_busy(), 3.0);
    }

    #[test]
    fn multi_port_completes_disjoint_links_at_their_nominal_times() {
        let spec = NetModelSpec::BoundedMultiPort {
            k: 2,
            backbone: None,
        };
        let mut p = port(spec, &[0.5, 0.25], None);
        let slow = p.admit(0.0, 0, 4.0);
        let fast = p.admit(1.0, 1, 2.0);
        assert!(!p.t.can_admit(), "both ports taken");
        assert_eq!(p.stamps(), [0, 1], "one projection each");
        // Neither transfer slows the other: each ends `base` after its
        // own start, and the two occupy distinct accounting lanes.
        assert_eq!(p.next(), Some((fast, 3.0)));
        assert_eq!(p.complete(fast, 3.0).lane, 1);
        assert_eq!(p.stamps(), [0], "the survivor's share held");
        assert_eq!(p.next(), Some((slow, 4.0)));
        assert_eq!(p.complete(slow, 4.0).lane, 0);
        assert_eq!(p.t.port_stats().lane_busy, [4.0, 2.0]);
    }

    #[test]
    fn fair_share_halves_concurrent_rates_and_reshares_to_the_survivor() {
        // Two 1 block/s links under a 1 block/s backbone: share 0.5 each.
        let spec = NetModelSpec::FairShare { backbone: 1.0 };
        let mut p = port(spec, &[1.0, 1.0], None);
        let short = p.admit(0.0, 0, 1.0);
        assert_eq!(p.stamps(), [0]);
        let long = p.admit(0.0, 1, 2.0);
        assert_eq!(p.stamps(), [1, 2], "both lanes were re-projected");
        assert!(p.t.can_admit(), "fair share admits without bound");
        // At half rate the 1 s transfer takes 2 s, the 2 s one would
        // take 4 s...
        assert_eq!(p.next(), Some((short, 2.0)));
        p.complete(short, 2.0);
        // ...but the survivor (1 s of work left) gets the whole backbone
        // back and finishes at 3.
        assert_eq!(p.next(), Some((long, 3.0)));
    }

    /// The one tie rule: an older lane re-projected onto a younger,
    /// un-moved lane's end goes *second* — the order the simulator's
    /// kernel always gave (`seq` of the last re-arm), where the reactor
    /// used to break the tie by lane id.
    #[test]
    fn simultaneous_ends_resolve_by_the_stamp_of_the_last_projection() {
        // Unit-cost links, backbone never binding.
        let spec = NetModelSpec::FairShare { backbone: 100.0 };
        let mut p = port(spec, &[1.0, 1.0, 1.0], None);
        let l0 = p.admit(0.0, 0, 4.0);
        let l1 = p.admit(0.0, 1, 6.0);
        let l3 = p.admit(0.0, 2, 2.0);
        assert_eq!(p.next(), Some((l3, 2.0)));
        p.complete(l3, 2.0);
        assert_eq!(p.stamps(), [0, 1], "nobody's share moved");
        // A second transfer on worker 0's link halves L0's share: its 2
        // remaining seconds stretch to 4, onto L1's end exactly.
        let l2 = p.admit(2.0, 0, 2.0);
        let ends: Vec<(u64, f64)> = p.t.in_flight().iter().map(|l| (l.id, l.end)).collect();
        assert_eq!(ends, [(l0, 6.0), (l1, 6.0), (l2, 6.0)]);
        assert!(l0 < l1, "lane id would have put L0 first");
        assert_eq!(p.next(), Some((l1, 6.0)), "L1's projection is the oldest");
        p.complete(l1, 6.0);
        assert_eq!(p.next(), Some((l0, 6.0)));
    }

    #[test]
    fn c_scale_trace_stretches_the_projected_completion() {
        // Link 0 costs x4 from t = 0: 3 nominal seconds take 12.
        let scaled = WorkerDyn::new(Trace::new(vec![(0.0, 4.0)]), Trace::default(), vec![]);
        let flat = WorkerDyn::new(Trace::default(), Trace::default(), vec![]);
        let profile = DynProfile::new(vec![scaled, flat]);
        let spec = NetModelSpec::FairShare { backbone: 1.0 };
        let mut p = port(spec, &[1.0, 1.0], Some(profile));
        let id = p.admit(0.0, 0, 3.0);
        assert_eq!(p.next(), Some((id, 12.0)));
        // Halfway there a second lane halves the share, which advances
        // the first: half the nominal work is left.
        let other = p.admit(6.0, 1, 1.0);
        assert_eq!(p.t.active[0].rem, 1.5);
        // The second lane ends at t = 8 and hands the link back.
        assert_eq!(p.next(), Some((other, 8.0)));
        p.complete(other, 8.0);
        assert_eq!(p.t.active[0].rem, 1.25);
        assert_eq!(p.next(), Some((id, 13.0)));
    }
}
