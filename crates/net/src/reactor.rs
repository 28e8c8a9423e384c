//! The net engine: one reactor thread drives the whole star.
//!
//! The reactor keeps every worker as an in-process [`WorkerCore`] state
//! machine and every in-flight transfer as a lane in a model-time lane
//! table, and it owns all master-side run state (chunk records,
//! lifecycle bookkeeping, port accounting). The loop is the same
//! three-beat cadence as the discrete-event engine —
//! `pump` the shared [`MasterSm`] while the master is free, deliver the
//! earliest projected event (a lane completing its share-weighted wire
//! time, or a lifecycle boundary falling due), `settle`. Event times
//! come from a deterministic virtual model clock advanced projection by
//! projection; the wall clock only *paces* it (the reactor sleeps until
//! `vnow × time_scale` of real time has elapsed), so machine load and
//! inline compute never perturb the schedule.
//!
//! Because nothing blocks per transfer, the reactor scales to thousands
//! of workers per star, and a stalled schedule is detected analytically
//! (no event can ever arrive) instead of by burning the idle timeout.

use std::collections::{HashMap, HashSet, VecDeque};
use std::time::{Duration, Instant};

use stargemm_core::stream::GeometryAccess;
use stargemm_linalg::{Block, BlockMatrix};
use stargemm_netmodel::{ContentionModel, ShareScratch, TransferLane};
use stargemm_obs::Dir;
use stargemm_platform::dynamic::{
    transfer_end_opt, transfer_nominal_between_opt, DynProfile, LifecycleEvent,
};
use stargemm_platform::Platform;
use stargemm_sim::{
    Action, ChunkDescr, ChunkId, CtxMirror, Fragment, MasterPolicy, MasterSm, MasterState,
    MasterTransport, MatKind, ObsEvent, ObsSink, PortAccounting, RunStats, SimEvent, StepId,
};

use crate::runtime::{NetError, NetOptions};
use crate::wire::{ToMaster, ToWorker};
use crate::worker::WorkerCore;

/// One worker's in-process state machine plus its fault-injection
/// bookkeeping.
struct WorkerSm {
    core: WorkerCore,
    fault_after: Option<usize>,
    processed: usize,
    dead: bool,
}

impl WorkerSm {
    fn new(fault_after: Option<usize>) -> WorkerSm {
        WorkerSm {
            core: WorkerCore::new(),
            fault_after,
            processed: 0,
            dead: false,
        }
    }

    /// Feeds one decoded message to the core, honouring injected faults:
    /// a dead worker silently drops everything.
    fn ingest(&mut self, msg: ToWorker, out: &mut Vec<ToMaster>) {
        if self.dead {
            return;
        }
        self.processed += 1;
        if self.fault_after.is_some_and(|n| self.processed > n) {
            self.dead = true;
            return;
        }
        self.core.ingest(msg, out);
    }
}

/// Payload riding on an in-flight lane, delivered when its wire time
/// elapses.
enum LaneKind {
    /// Master → worker fragment (the decoded wire message).
    Outbound { fragment: Fragment, msg: ToWorker },
    /// Worker → master retrieved C blocks.
    Inbound { chunk: ChunkId, blocks: Vec<Block> },
}

/// One in-flight transfer: remaining nominal wire seconds, its current
/// share of the link, and the model instant the share last changed.
struct WireLane {
    id: u64,
    worker: usize,
    /// Stable lane index for port accounting / observability.
    lane: usize,
    /// Nominal model seconds remaining at share 1.0.
    rem: f64,
    share: f64,
    /// Model time of the last `advance_all`.
    since: f64,
    started_model: f64,
    kind: LaneKind,
}

/// The reactor's contention engine: the same share algebra as the
/// simulator, over lanes whose completions are projected in model time.
struct LaneTable {
    model: Box<dyn ContentionModel>,
    /// Per-worker nominal block costs (model seconds per block).
    cs: Vec<f64>,
    profile: Option<DynProfile>,
    active: Vec<WireLane>,
    lane_used: Vec<bool>,
    lane_scratch: Vec<TransferLane>,
    share_scratch: ShareScratch,
    next_id: u64,
}

impl LaneTable {
    fn new(model: Box<dyn ContentionModel>, cs: Vec<f64>, profile: Option<DynProfile>) -> Self {
        LaneTable {
            model,
            cs,
            profile,
            active: Vec::new(),
            lane_used: Vec::new(),
            lane_scratch: Vec::new(),
            share_scratch: ShareScratch::new(),
            next_id: 0,
        }
    }

    fn can_admit(&self) -> bool {
        self.active.len() < self.model.capacity()
    }

    fn active_len(&self) -> usize {
        self.active.len()
    }

    /// Advances every lane's remaining work to model time `now` under
    /// its current share (idempotent between membership changes).
    fn advance_all(&mut self, now: f64) {
        for l in &mut self.active {
            if now > l.since {
                if l.share > 0.0 {
                    let served = l.share
                        * transfer_nominal_between_opt(
                            self.profile.as_ref(),
                            l.worker,
                            l.since,
                            now,
                        );
                    l.rem = (l.rem - served).max(0.0);
                }
                l.since = now;
            }
        }
    }

    /// Recomputes all shares from the contention model (allocation-free:
    /// the scratch buffers persist across calls).
    fn reshare(&mut self) {
        self.lane_scratch.clear();
        for l in &self.active {
            self.lane_scratch.push(TransferLane {
                worker: l.worker,
                link_rate: 1.0 / self.cs[l.worker],
            });
        }
        self.model
            .shares_into(&self.lane_scratch, &mut self.share_scratch);
        for (l, &s) in self.active.iter_mut().zip(self.share_scratch.shares()) {
            l.share = s;
        }
    }

    /// Admits a transfer of `base` nominal model seconds on `worker`'s
    /// link; the caller has checked `can_admit`. Returns the lane index
    /// used for port accounting.
    fn admit(&mut self, now: f64, worker: usize, base: f64, kind: LaneKind) -> usize {
        debug_assert!(self.can_admit());
        self.advance_all(now);
        // Lowest free lane index, growing the set on demand.
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
        self.active.push(WireLane {
            id,
            worker,
            lane,
            rem: base,
            share: 0.0,
            since: now,
            started_model: now,
            kind,
        });
        self.reshare();
        lane
    }

    /// Projects the earliest lane completion under the current shares:
    /// `(lane id, model end time)`. Every reshare invalidates previous
    /// projections, so this is recomputed each loop instead of kept in a
    /// timer heap.
    fn next_completion(&self) -> Option<(u64, f64)> {
        self.active
            .iter()
            .map(|l| {
                let end =
                    transfer_end_opt(self.profile.as_ref(), l.worker, l.since, l.rem, l.share);
                (l.id, end)
            })
            .min_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)))
    }

    /// Completes lane `id` at model time `now`: accounts the final slice
    /// of progress for everyone, removes the lane, and reshapes the
    /// survivors' shares.
    fn complete(&mut self, id: u64, now: f64) -> WireLane {
        self.advance_all(now);
        let idx = self
            .active
            .iter()
            .position(|l| l.id == id)
            .expect("completed lane vanished");
        let lane = self.active.remove(idx);
        self.lane_used[lane.lane] = false;
        self.reshare();
        lane
    }
}

/// Master-side record of one chunk the policy opened.
struct ChunkRec {
    worker: usize,
    descr: ChunkDescr,
    /// One bit per A/B fragment already issued — the duplicate-fragment
    /// guard (a bitset costs no hashing on the send path).
    sent: Vec<u64>,
}

impl ChunkRec {
    /// Word index and mask of the `(step, kind)` fragment's `sent` bit.
    fn sent_bit(step: StepId, kind: MatKind) -> (usize, u64) {
        let bit = 2 * step as usize + usize::from(kind == MatKind::B);
        (bit / 64, 1 << (bit % 64))
    }
}

fn protocol<T>(message: String) -> Result<T, NetError> {
    Err(NetError::Protocol(message))
}

/// Runs one GEMM through the reactor: the engine behind
/// [`crate::runtime::NetRuntime::run_observed`], which has validated
/// dimensions, profile and netmodel.
pub(crate) fn run_reactor<P: MasterPolicy + GeometryAccess>(
    platform: &Platform,
    opts: &NetOptions,
    policy: &mut P,
    a: &BlockMatrix,
    b: &BlockMatrix,
    c: &mut BlockMatrix,
    obs: &ObsSink,
) -> Result<RunStats, NetError> {
    let profile = opts.profile.as_ref();
    let down: Vec<bool> = (0..platform.len())
        .map(|w| profile.is_some_and(|pr| !pr.is_up(w, 0.0)))
        .collect();
    let mut mirror = CtxMirror::new(platform);
    for w in (0..platform.len()).filter(|&w| down[w]) {
        mirror.on_crash(w);
    }
    let cs: Vec<f64> = platform.workers().iter().map(|s| s.c).collect();
    let workers = (0..platform.len())
        .map(|w| {
            WorkerSm::new(match opts.inject_fault {
                Some((fw, n)) if fw == w => Some(n),
                _ => None,
            })
        })
        .collect();
    let mut r = Reactor {
        platform,
        opts,
        policy,
        a,
        b,
        c,
        obs,
        epoch: Instant::now(),
        vnow: 0.0,
        mirror,
        workers,
        lanes: LaneTable::new(opts.netmodel.build(), cs, opts.profile.clone()),
        lifecycle: profile
            .map(|pr| pr.lifecycle_events().into())
            .unwrap_or_default(),
        down,
        lost: HashSet::new(),
        chunks: HashMap::new(),
        retrieved: HashSet::new(),
        computed: HashSet::new(),
        retrieve_pending: HashSet::new(),
        inflight_blocks: vec![0; platform.len()],
        port_busy: 0.0,
        port_acct: PortAccounting::default(),
        inbox: VecDeque::new(),
        replies: Vec::new(),
    };
    r.run()
}

struct Reactor<'r, P: MasterPolicy + GeometryAccess> {
    platform: &'r Platform,
    opts: &'r NetOptions,
    policy: &'r mut P,
    a: &'r BlockMatrix,
    b: &'r BlockMatrix,
    c: &'r mut BlockMatrix,
    obs: &'r ObsSink,
    epoch: Instant,
    /// Deterministic virtual model clock (seconds): advanced to each
    /// projected event time. Wall time only *paces* it (sleeps stretch
    /// real elapsed time to `vnow × time_scale`); load and inline
    /// compute never change the schedule the policy sees.
    vnow: f64,
    mirror: CtxMirror,
    workers: Vec<WorkerSm>,
    lanes: LaneTable,
    /// Lifecycle boundaries not yet applied, in time order (model s).
    lifecycle: VecDeque<LifecycleEvent>,
    /// Per-worker down flags, mirroring what the workers were told.
    down: Vec<bool>,
    /// Chunks destroyed by crashes.
    lost: HashSet<ChunkId>,
    /// Every chunk the policy opened.
    chunks: HashMap<ChunkId, ChunkRec>,
    retrieved: HashSet<ChunkId>,
    /// Chunks whose workers reported `ChunkComputed`.
    computed: HashSet<ChunkId>,
    /// Chunks with a retrieval requested (blocked or in flight) — the
    /// duplicate-retrieve guard, mirroring the simulator's.
    retrieve_pending: HashSet<ChunkId>,
    /// Outbound blocks in flight per worker, reserved against its memory
    /// capacity until delivery.
    inflight_blocks: Vec<u64>,
    /// Wall seconds the wire spent occupied (× `time_scale` model secs).
    port_busy: f64,
    port_acct: PortAccounting,
    /// Worker replies not yet delivered to the policy. Like the
    /// simulator's event queue, each reply is its own event: the policy
    /// is re-asked between deliveries, so a `StepDone` never jumps ahead
    /// of the poll that sim would have run first.
    inbox: VecDeque<(usize, ToMaster)>,
    /// Reply scratch for worker ingestion (reused across deliveries).
    replies: Vec<ToMaster>,
}

impl<P: MasterPolicy + GeometryAccess> Reactor<'_, P> {
    fn wall_now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// The virtual clock in the wall-seconds scale the `CtxMirror` and
    /// worker-event bookkeeping use (`vnow × time_scale`).
    fn vnow_wall(&self) -> f64 {
        self.vnow * self.opts.time_scale
    }

    fn port_state(&self) -> MasterState {
        if self.lanes.can_admit() {
            MasterState::Idle
        } else {
            MasterState::Busy
        }
    }

    /// The reactor's event loop: pump the shared master automaton,
    /// project the next event (earliest lane completion or lifecycle
    /// boundary), sleep until its wall instant, deliver it, settle.
    fn run(&mut self) -> Result<RunStats, NetError> {
        let mut sm = MasterSm::new();
        loop {
            sm.pump(self)?;
            if sm.is_done() {
                break;
            }
            // Queued worker replies are zero-delay events: deliver one,
            // settle, and re-ask the policy — the same one-event-per-
            // iteration cadence as the simulator's kernel.
            if let Some((wid, msg)) = self.inbox.pop_front() {
                self.apply_worker_event(wid, &msg)?;
                sm.settle(self)?;
                continue;
            }
            let next_lane = self.lanes.next_completion();
            let next_boundary = self.lifecycle.front().map(|e| e.time);
            let target = match (next_lane, next_boundary) {
                (Some((_, t)), Some(b)) => t.min(b),
                (Some((_, t)), None) => t,
                (None, Some(b)) => b,
                (None, None) => return Err(self.stall_error()),
            };
            if !target.is_finite() {
                return Err(self.stall_error());
            }
            // Pace the wall clock to the projected instant (capped by
            // the idle budget so a pathological projection cannot hang
            // forever), then advance the virtual clock exactly to it:
            // the schedule is a pure function of the projections, never
            // of sleep jitter or inline compute time.
            let wall_target = target * self.opts.time_scale;
            let ahead = wall_target - self.wall_now();
            if ahead > 0.0 {
                let wait = Duration::from_secs_f64(ahead);
                if wait > self.opts.idle_timeout {
                    return Err(NetError::Timeout);
                }
                std::thread::sleep(wait);
            }
            self.vnow = self.vnow.max(target);
            // Lifecycle boundaries due by now fire before lane
            // completions projected at-or-after them.
            if next_boundary.is_some_and(|b| b <= target) {
                self.pump_lifecycle();
            } else if let Some((id, _)) = next_lane {
                self.complete_lane(id, target)?;
                sm.on_transfer_done();
            }
            sm.settle(self)?;
        }
        self.finish_stats()
    }

    /// Closes out a run: every live chunk must have been retrieved, and
    /// the per-worker mirror is folded into [`RunStats`].
    fn finish_stats(&self) -> Result<RunStats, NetError> {
        let chunks = self.retrieved.len() as u64;
        let live_chunks = self
            .chunks
            .keys()
            .filter(|id| !self.lost.contains(id))
            .count() as u64;
        if chunks != live_chunks {
            return Err(NetError::Protocol(format!(
                "finished with {chunks} of {live_chunks} live chunks retrieved"
            )));
        }
        let per_worker = self.mirror.stats();
        Ok(RunStats {
            makespan: self.wall_now(),
            port_busy: self.port_busy,
            port: self.port_acct.stats(),
            blocks_to_workers: per_worker.iter().map(|w| w.blocks_rx).sum(),
            blocks_to_master: per_worker.iter().map(|w| w.blocks_tx).sum(),
            total_updates: per_worker.iter().map(|w| w.updates).sum(),
            chunks,
            per_worker,
            jobs: Vec::new(),
            policy: self.policy.name().to_string(),
        })
    }

    /// Nothing in flight and no boundary pending: no event can ever
    /// arrive. An injected fault is reported as the worker failure it
    /// is; anything else is a genuine schedule deadlock.
    fn stall_error(&self) -> NetError {
        for (w, sm) in self.workers.iter().enumerate() {
            if sm.dead {
                return NetError::WorkerFailure(format!(
                    "injected fault on worker {w} after {} messages",
                    sm.processed - 1
                ));
            }
        }
        NetError::Timeout
    }

    /// Applies every lifecycle boundary that model time has passed:
    /// tells the worker machine, fixes the mirror, and notifies the
    /// policy (`WorkerDown` + one `ChunkLost` per destroyed chunk, or
    /// `WorkerUp`).
    fn pump_lifecycle(&mut self) {
        let model_now = self.vnow;
        while self.lifecycle.front().is_some_and(|e| e.time <= model_now) {
            let ev = self.lifecycle.pop_front().expect("front just checked");
            self.mirror.set_now(self.vnow_wall());
            // Neither control message draws a reply.
            let mut no_replies = Vec::new();
            if ev.up {
                self.workers[ev.worker].ingest(ToWorker::Recover, &mut no_replies);
                self.down[ev.worker] = false;
                self.mirror.on_rejoin(ev.worker);
                self.obs.emit(|| ObsEvent::WorkerUp {
                    time: model_now,
                    worker: ev.worker,
                });
                self.policy.on_event(
                    &SimEvent::WorkerUp { worker: ev.worker },
                    &self.mirror.ctx(),
                );
            } else {
                self.workers[ev.worker].ingest(ToWorker::Fail, &mut no_replies);
                self.down[ev.worker] = true;
                self.mirror.on_crash(ev.worker);
                self.obs.emit(|| ObsEvent::WorkerDown {
                    time: model_now,
                    worker: ev.worker,
                });
                self.policy.on_event(
                    &SimEvent::WorkerDown { worker: ev.worker },
                    &self.mirror.ctx(),
                );
                let mut doomed: Vec<ChunkId> = self
                    .chunks
                    .iter()
                    .filter(|(id, rec)| {
                        rec.worker == ev.worker
                            && !self.retrieved.contains(*id)
                            && !self.lost.contains(*id)
                    })
                    .map(|(&id, _)| id)
                    .collect();
                doomed.sort_unstable();
                for chunk in doomed {
                    self.lost.insert(chunk);
                    self.obs.emit(|| ObsEvent::ChunkLost {
                        time: model_now,
                        worker: ev.worker,
                        chunk,
                    });
                    self.policy.on_event(
                        &SimEvent::ChunkLost {
                            worker: ev.worker,
                            chunk,
                        },
                        &self.mirror.ctx(),
                    );
                }
            }
        }
    }

    /// Delivers a completed lane: port accounting, then the payload —
    /// outbound fragments are ingested by the worker machine (whose
    /// replies feed the policy), inbound results land in C.
    fn complete_lane(&mut self, id: u64, now: f64) -> Result<(), NetError> {
        let wl = self.lanes.complete(id, now);
        let wall = self.vnow_wall();
        let busy_wall = (now - wl.started_model) * self.opts.time_scale;
        self.port_busy += busy_wall;
        let lanes_after = self.lanes.active_len();
        self.port_acct
            .on_release(wall, wl.lane, busy_wall, lanes_after);
        match wl.kind {
            LaneKind::Outbound { fragment, msg } => {
                self.obs.emit(|| ObsEvent::PortRelease {
                    time: now,
                    lane: wl.lane,
                    worker: wl.worker,
                    dir: Dir::ToWorker,
                    chunk: fragment.chunk,
                    blocks: fragment.blocks,
                });
                self.inflight_blocks[wl.worker] =
                    self.inflight_blocks[wl.worker].saturating_sub(fragment.blocks);
                self.mirror.set_now(wall);
                if !self.down[wl.worker] && !self.lost.contains(&fragment.chunk) {
                    self.mirror.on_delivered(wl.worker, fragment.blocks);
                }
                let ev = SimEvent::SendDone {
                    worker: wl.worker,
                    fragment,
                };
                self.policy.on_event(&ev, &self.mirror.ctx());
                self.ingest_and_enqueue(wl.worker, msg);
            }
            LaneKind::Inbound { chunk, blocks } => {
                self.obs.emit(|| ObsEvent::PortRelease {
                    time: now,
                    lane: wl.lane,
                    worker: wl.worker,
                    dir: Dir::ToMaster,
                    chunk,
                    blocks: blocks.len() as u64,
                });
                if self.lost.contains(&chunk) {
                    return Ok(()); // stale result of a dead chunk
                }
                let geom = self
                    .policy
                    .chunk_geom(chunk)
                    .ok_or(NetError::UnknownChunk(chunk))?;
                self.c.store_chunk(geom.i0, geom.j0, geom.h, geom.w, blocks);
                self.mirror.set_now(wall);
                self.mirror
                    .on_retrieved(wl.worker, (geom.h * geom.w) as u64);
                self.retrieved.insert(chunk);
                let ev = SimEvent::RetrieveDone {
                    worker: wl.worker,
                    chunk,
                };
                self.policy.on_event(&ev, &self.mirror.ctx());
            }
        }
        Ok(())
    }

    /// Feeds one message to a worker machine and queues its replies as
    /// pending events for the main loop to deliver one at a time.
    fn ingest_and_enqueue(&mut self, worker: usize, msg: ToWorker) {
        self.replies.clear();
        let mut replies = std::mem::take(&mut self.replies);
        self.workers[worker].ingest(msg, &mut replies);
        for reply in replies.drain(..) {
            self.inbox.push_back((worker, reply));
        }
        self.replies = replies;
    }

    /// Applies one worker control event to the mirror, the computed set
    /// and the policy. Events referencing chunks lost to a crash are
    /// dropped silently (the worker emitted them before it learned of
    /// its own death).
    fn apply_worker_event(&mut self, wid: usize, msg: &ToMaster) -> Result<(), NetError> {
        let chunk = match *msg {
            ToMaster::StepDone { chunk, .. }
            | ToMaster::ChunkComputed { chunk }
            | ToMaster::Result { chunk, .. } => chunk,
        };
        self.mirror.set_now(self.vnow_wall());
        if self.lost.contains(&chunk) {
            return Ok(());
        }
        let ev = match *msg {
            ToMaster::StepDone { step, .. } => {
                let d = &self
                    .chunks
                    .get(&chunk)
                    .ok_or(NetError::UnknownChunk(chunk))?
                    .descr;
                self.mirror
                    .on_step(wid, d.a_for(step) + d.b_for(step), d.updates_for(step));
                SimEvent::StepDone {
                    worker: wid,
                    chunk,
                    step,
                }
            }
            ToMaster::ChunkComputed { .. } => {
                self.computed.insert(chunk);
                SimEvent::ChunkComputed { worker: wid, chunk }
            }
            ToMaster::Result { .. } => {
                return Err(NetError::Protocol(format!(
                    "unsolicited result for chunk {chunk}"
                )));
            }
        };
        self.policy.on_event(&ev, &self.mirror.ctx());
        Ok(())
    }

    /// `Action::Send` guards, the simulator's `issue_send` rules plus
    /// this runtime's own: the worker exists and is up; a descriptor
    /// opens a fresh chunk with its full C load; anything else is an
    /// A/B fragment for a live chunk on that worker, one whole fragment
    /// per `(step, matrix)`; and the blocks fit the worker's memory,
    /// counting those still on the wire.
    fn validate_send(
        &self,
        worker: usize,
        fragment: &Fragment,
        new_chunk: Option<&ChunkDescr>,
    ) -> Result<(), NetError> {
        let Fragment {
            chunk, step, kind, ..
        } = *fragment;
        if worker >= self.workers.len() {
            return protocol(format!("unknown worker {worker}"));
        }
        if self.workers[worker].dead {
            return Err(NetError::WorkerFailure(format!(
                "worker {worker} link down"
            )));
        }
        if self.down[worker] {
            return protocol(format!("send to downed worker {worker}"));
        }
        match new_chunk {
            Some(d) => {
                if self.chunks.contains_key(&d.id) {
                    return protocol(format!("duplicate chunk id {}", d.id));
                }
                if kind != MatKind::C || chunk != d.id || fragment.blocks != d.c_blocks {
                    return protocol("a chunk must be opened by its full C-load fragment".into());
                }
                // Also bounds the per-chunk `sent` bitset.
                if d.steps == 0 || d.steps as usize > self.policy.job_dims().t {
                    return protocol(format!(
                        "chunk {} has {} steps, outside 1..=t",
                        d.id, d.steps
                    ));
                }
            }
            None => {
                let rec = self
                    .chunks
                    .get(&chunk)
                    .ok_or(NetError::UnknownChunk(chunk))?;
                let (assigned, d) = (rec.worker, &rec.descr);
                if self.lost.contains(&chunk) {
                    return protocol(format!(
                        "fragment for chunk {chunk}, lost in a worker crash"
                    ));
                }
                if assigned != worker {
                    return protocol(format!(
                        "fragment for chunk {chunk} sent to worker {worker}, \
                         but the chunk lives on worker {assigned}"
                    ));
                }
                if kind == MatKind::C {
                    return protocol(format!("second C load for chunk {chunk}"));
                }
                if step >= d.steps {
                    return protocol(format!("step {step} out of range for chunk {chunk}"));
                }
                let whole = match kind {
                    MatKind::A => d.a_for(step),
                    _ => d.b_for(step),
                };
                if fragment.blocks != whole {
                    return protocol(format!(
                        "{kind:?} fragment of {} blocks for chunk {chunk} step {step}, \
                         which takes {whole} in one piece",
                        fragment.blocks
                    ));
                }
                let (word, mask) = ChunkRec::sent_bit(step, kind);
                if rec.sent[word] & mask != 0 {
                    return protocol(format!(
                        "duplicate {kind:?} fragment for chunk {chunk} step {step}"
                    ));
                }
            }
        }
        let capacity = self.platform.worker(worker).m as u64;
        let attempted =
            self.mirror.occupancy(worker) + self.inflight_blocks[worker] + fragment.blocks;
        if attempted > capacity {
            return Err(NetError::MemoryViolation {
                worker,
                attempted,
                capacity,
            });
        }
        Ok(())
    }

    /// `Action::Retrieve` guards: the worker exists and is up, and the
    /// chunk is alive, assigned to it, and not already asked for.
    fn validate_retrieve(&self, worker: usize, chunk: ChunkId) -> Result<(), NetError> {
        if worker >= self.workers.len() {
            return protocol(format!("unknown worker {worker}"));
        }
        if self.down[worker] {
            return protocol(format!("retrieve from downed worker {worker}"));
        }
        if self.lost.contains(&chunk) {
            return protocol(format!("retrieve of chunk {chunk}, lost in a worker crash"));
        }
        let assigned = self.chunk_worker(chunk)?;
        if assigned != worker {
            return protocol(format!(
                "retrieve of chunk {chunk} from worker {worker}, \
                 but it is assigned to worker {assigned}"
            ));
        }
        if self.retrieved.contains(&chunk) || self.retrieve_pending.contains(&chunk) {
            return protocol(format!("chunk {chunk} retrieved twice"));
        }
        Ok(())
    }

    /// Slices the real matrices into the fragment's payload.
    fn materialize(
        &self,
        fragment: &Fragment,
        new_chunk: Option<ChunkDescr>,
    ) -> Result<ToWorker, NetError> {
        let t = self.policy.job_dims().t;
        let geom = self
            .policy
            .chunk_geom(fragment.chunk)
            .ok_or(NetError::UnknownChunk(fragment.chunk))?;
        let (klo, khi) = geom.k_range(fragment.step, t);
        let rows = geom.i0..geom.i0 + geom.h;
        let cols = geom.j0..geom.j0 + geom.w;
        let Fragment { chunk, step, .. } = *fragment;
        // Exact for every fragment `validate_send` lets through.
        let whole = fragment.blocks as usize;
        Ok(match fragment.kind {
            MatKind::C => ToWorker::LoadC {
                descr: new_chunk
                    .ok_or_else(|| NetError::Protocol("C load without chunk descriptor".into()))?,
                h: geom.h as u32,
                w: geom.w as u32,
                blocks: self.c.chunk(geom.i0, geom.j0, geom.h, geom.w),
            },
            MatKind::A => {
                let mut blocks = Vec::with_capacity(whole);
                for i in rows {
                    blocks.extend((klo..khi).map(|kk| self.a.block(i, kk).clone()));
                }
                ToWorker::FragA {
                    chunk,
                    step,
                    blocks,
                }
            }
            MatKind::B => {
                let mut blocks = Vec::with_capacity(whole);
                for kk in klo..khi {
                    blocks.extend(cols.clone().map(|j| self.b.block(kk, j).clone()));
                }
                ToWorker::FragB {
                    chunk,
                    step,
                    blocks,
                }
            }
        })
    }
}

impl<P: MasterPolicy + GeometryAccess> MasterTransport for Reactor<'_, P> {
    type Error = NetError;

    fn poll_action(&mut self) -> Action {
        self.mirror.set_now(self.vnow_wall());
        self.policy.next_action(&self.mirror.ctx())
    }

    fn perform(&mut self, action: Action) -> Result<MasterState, NetError> {
        match action {
            Action::Send {
                worker,
                fragment,
                new_chunk,
            } => {
                self.validate_send(worker, &fragment, new_chunk.as_ref())?;
                match new_chunk {
                    Some(descr) => {
                        let rec = ChunkRec {
                            worker,
                            descr,
                            sent: vec![0; (descr.steps as usize).div_ceil(32)],
                        };
                        self.chunks.insert(descr.id, rec);
                        self.mirror.on_chunk_assigned(worker);
                    }
                    None => {
                        let (word, mask) = ChunkRec::sent_bit(fragment.step, fragment.kind);
                        let rec = self.chunks.get_mut(&fragment.chunk);
                        rec.expect("validated above").sent[word] |= mask;
                    }
                }
                // Round-trip through the wire format: the payload that
                // reaches the worker is exactly what a socket would carry.
                let msg = ToWorker::decode(self.materialize(&fragment, new_chunk)?.encode());
                let now = self.vnow;
                let base = fragment.blocks as f64 * self.lanes.cs[worker];
                self.inflight_blocks[worker] += fragment.blocks;
                let lane =
                    self.lanes
                        .admit(now, worker, base, LaneKind::Outbound { fragment, msg });
                self.port_acct
                    .on_acquire(self.vnow_wall(), self.lanes.active_len());
                self.obs.emit(|| ObsEvent::Dispatch {
                    time: now,
                    worker,
                    chunk: fragment.chunk,
                    step: fragment.step,
                    mat: fragment.kind.into(),
                    blocks: fragment.blocks,
                });
                self.obs.emit(|| ObsEvent::PortAcquire {
                    time: now,
                    lane,
                    worker,
                    dir: Dir::ToWorker,
                    chunk: fragment.chunk,
                    blocks: fragment.blocks,
                });
                Ok(self.port_state())
            }
            Action::Retrieve { worker, chunk } => {
                self.validate_retrieve(worker, chunk)?;
                self.retrieve_pending.insert(chunk);
                if self.computed.contains(&chunk) {
                    self.start_retrieval(worker, chunk)?;
                    Ok(self.port_state())
                } else {
                    Ok(MasterState::BlockedRetrieve(chunk))
                }
            }
            Action::CompleteJob { job } => Err(NetError::Protocol(format!(
                "job streams are not supported by the net runtime \
                 (CompleteJob for job {job})"
            ))),
            Action::Wait => Ok(MasterState::Waiting),
            Action::Finished => Ok(MasterState::Done),
        }
    }

    fn can_issue(&self) -> bool {
        self.lanes.can_admit()
    }

    fn chunk_is_lost(&self, chunk: ChunkId) -> Result<bool, NetError> {
        Ok(self.lost.contains(&chunk))
    }

    fn chunk_is_computed(&self, chunk: ChunkId) -> Result<bool, NetError> {
        Ok(self.computed.contains(&chunk))
    }

    fn chunk_worker(&self, chunk: ChunkId) -> Result<usize, NetError> {
        self.chunks
            .get(&chunk)
            .map(|rec| rec.worker)
            .ok_or(NetError::UnknownChunk(chunk))
    }

    /// Pulls a computed chunk back: the retrieve control message goes to
    /// the worker machine (control traffic is free), and its `Result`
    /// payload is admitted as an inbound lane that owns the wire for the
    /// C blocks' transfer time.
    fn start_retrieval(&mut self, worker: usize, chunk: ChunkId) -> Result<(), NetError> {
        if self.workers[worker].dead {
            return Err(NetError::WorkerFailure(format!(
                "worker {worker} link down"
            )));
        }
        self.replies.clear();
        let mut replies = std::mem::take(&mut self.replies);
        self.workers[worker].ingest(ToWorker::Retrieve { chunk }, &mut replies);
        let mut payload = None;
        let mut result = Ok(());
        for reply in replies.drain(..) {
            match reply {
                ToMaster::Result { chunk: got, blocks } if got == chunk => {
                    payload = Some(blocks);
                }
                other => {
                    if result.is_ok() {
                        result = self.apply_worker_event(worker, &other);
                    }
                }
            }
        }
        self.replies = replies;
        result?;
        let blocks = payload.ok_or_else(|| {
            NetError::WorkerFailure(format!(
                "worker {worker} produced no result for chunk {chunk}"
            ))
        })?;
        let now = self.vnow;
        let base = blocks.len() as f64 * self.lanes.cs[worker];
        let n_blocks = blocks.len() as u64;
        let lane = self
            .lanes
            .admit(now, worker, base, LaneKind::Inbound { chunk, blocks });
        self.port_acct
            .on_acquire(self.vnow_wall(), self.lanes.active_len());
        self.obs.emit(|| ObsEvent::PortAcquire {
            time: now,
            lane,
            worker,
            dir: Dir::ToMaster,
            chunk,
            blocks: n_blocks,
        });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stargemm_netmodel::NetModelSpec;
    use stargemm_platform::dynamic::{Trace, WorkerDyn};

    fn table(spec: NetModelSpec, cs: &[f64], profile: Option<DynProfile>) -> LaneTable {
        LaneTable::new(spec.build(), cs.to_vec(), profile)
    }

    /// Admits a payload-free transfer of `base` nominal seconds; returns
    /// its lane id.
    fn admit(t: &mut LaneTable, now: f64, worker: usize, base: f64) -> u64 {
        let kind = LaneKind::Inbound {
            chunk: 0,
            blocks: Vec::new(),
        };
        t.admit(now, worker, base, kind);
        t.next_id - 1
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
        assert_eq!(t.next_completion(), Some((slow, 4.0)));
        assert_eq!(t.complete(slow, 4.0).lane, 0);
    }

    #[test]
    fn fair_share_halves_concurrent_rates_and_reshares_to_the_survivor() {
        // Two 1 block/s links under a 1 block/s backbone: share 0.5 each.
        let spec = NetModelSpec::FairShare { backbone: 1.0 };
        let mut t = table(spec, &[1.0, 1.0], None);
        let short = admit(&mut t, 0.0, 0, 1.0);
        let long = admit(&mut t, 0.0, 1, 2.0);
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
        // Link cost x4 from t = 0: 3 nominal seconds take 12.
        let profile = DynProfile::new(vec![WorkerDyn::new(
            Trace::new(vec![(0.0, 4.0)]),
            Trace::default(),
            vec![],
        )]);
        let mut t = table(NetModelSpec::OnePort, &[1.0], Some(profile));
        let id = admit(&mut t, 0.0, 0, 3.0);
        assert_eq!(t.next_completion(), Some((id, 12.0)));
        // Halfway there, half the nominal work is left.
        t.advance_all(6.0);
        assert_eq!(t.active[0].rem, 1.5);
    }
}
