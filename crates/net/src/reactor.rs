//! The net engine: one reactor thread drives the whole star.
//!
//! An engine is a clock and a transport. Everything the *master* knows
//! is the two types the simulator uses too — the
//! [`StarLedger`] (chunk records, every send/retrieve/finish rule,
//! memory reservations, the crash sweep, the `SimCtx` policies read,
//! the stats fold) and the [`LaneTable`] (the transfers in flight under
//! the contention model, their cached projected completions, the port
//! accounting and its `PortAcquire`/`PortRelease` events). The reactor
//! adds its transport — every worker is an in-process [`WorkerCore`]
//! state machine fed real blocks through the wire format — and its
//! clock: a deterministic virtual model clock advanced to the earliest
//! projected event (the lane table's cached earliest completion — the
//! same `next_completion`, with the same `(end, stamp)` tie rule, the
//! simulator reads — or a lifecycle boundary), which
//! the wall clock only *paces* (the reactor sleeps until
//! `vnow × time_scale` of real time has elapsed), so machine load and
//! inline compute never perturb the schedule. The loop is the same
//! three-beat cadence as the discrete-event engine: `pump` the shared
//! [`MasterSm`] while the master is free, deliver one event, `settle`.
//!
//! A fragment crosses the reactor as one flat buffer: its tiles are
//! encoded straight out of the borrowed matrices into one exactly-sized
//! message, decoded into one vector the worker computes on in place,
//! and a retrieved result is copied into C's blocks where they are — so
//! a transfer costs a fixed number of allocations whatever its block
//! count (`stargemm-bench`'s `net_alloc` test counts them).
//!
//! Because nothing blocks per transfer, the reactor scales to thousands
//! of workers per star, and a stalled schedule is detected analytically
//! (no event can ever arrive) instead of by burning the idle timeout.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use bytes::Bytes;
use stargemm_core::stream::GeometryAccess;
use stargemm_linalg::BlockMatrix;
use stargemm_obs::Dir;
use stargemm_platform::dynamic::LifecycleEvent;
use stargemm_platform::Platform;
use stargemm_sim::{
    Action, ChunkDescr, ChunkId, Delivery, Fragment, LaneTable, MasterPolicy, MasterSm,
    MasterState, MasterTransport, MatKind, ObsEvent, ObsSink, PortStats, RunStats, SimEvent,
    StarLedger,
};

use crate::runtime::{NetError, NetOptions};
use crate::wire::{self, Tiles, ToMaster, ToWorker};
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
    /// Worker → master retrieved C tiles.
    Inbound { tiles: Tiles },
}

/// Draws the next projection stamp from the reactor's counter.
fn next_stamp(counter: &mut u64) -> u64 {
    *counter += 1;
    *counter - 1
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
    let workers = (0..platform.len())
        .map(|w| {
            WorkerSm::new(match opts.inject_fault {
                Some((fw, n)) if fw == w => Some(n),
                _ => None,
            })
        })
        .collect();
    let mut r = Reactor {
        opts,
        policy,
        a,
        b,
        c,
        obs,
        epoch: Instant::now(),
        vnow: 0.0,
        workers,
        ledger: StarLedger::new(platform, profile),
        lanes: LaneTable::new(
            opts.netmodel,
            platform.workers().iter().map(|s| s.c).collect(),
            opts.profile.clone(),
            obs.clone(),
        ),
        lifecycle: profile
            .map(|pr| pr.lifecycle_events().into())
            .unwrap_or_default(),
        stamp: 0,
        inbox: VecDeque::new(),
        replies: Vec::new(),
    };
    r.run()?;
    Ok(r.into_stats())
}

struct Reactor<'r, P: MasterPolicy + GeometryAccess> {
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
    workers: Vec<WorkerSm>,
    /// The master's books, the type the simulator keeps too.
    ledger: StarLedger,
    /// The master's wire, likewise; the table runs in model seconds.
    lanes: LaneTable<LaneKind>,
    /// The counter lent to the lane table for its projection stamps.
    stamp: u64,
    /// Lifecycle boundaries not yet applied, in time order (model s).
    lifecycle: VecDeque<LifecycleEvent>,
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

    /// The virtual clock in the wall-seconds scale policies are handed
    /// (`vnow × time_scale`).
    fn vnow_wall(&self) -> f64 {
        self.vnow * self.opts.time_scale
    }

    /// Reports `ev` to the policy, with the ledger's view as of now.
    fn tell(&mut self, ev: SimEvent) {
        let ctx = self.ledger.ctx(self.vnow_wall());
        self.policy.on_event(&ev, &ctx);
    }

    /// The reactor's event loop: pump the shared master automaton,
    /// project the next event (earliest lane completion or lifecycle
    /// boundary), sleep until its wall instant, deliver it, settle.
    fn run(&mut self) -> Result<(), NetError> {
        let mut sm = MasterSm::new();
        loop {
            sm.pump(self)?;
            if sm.is_done() {
                return Ok(());
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
                (Some(lane), Some(b)) => lane.end.min(b),
                (Some(lane), None) => lane.end,
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
            } else if let Some(lane) = next_lane {
                self.complete_lane(lane.lane, target)?;
                sm.on_transfer_done();
            }
            sm.settle(self)?;
        }
    }

    /// Closes out a finished run. The lane table kept the port's books
    /// in model seconds; `RunStats` of a net run are wall seconds.
    fn into_stats(self) -> RunStats {
        let scale = self.opts.time_scale;
        let port = self.lanes.port_stats();
        let port = PortStats {
            lane_busy: port.lane_busy.iter().map(|busy| busy * scale).collect(),
            idle_time: port.idle_time * scale,
            longest_stall: port.longest_stall * scale,
            ..port
        };
        self.ledger.into_stats(
            self.epoch.elapsed().as_secs_f64(),
            self.lanes.port_busy() * scale,
            port,
            Vec::new(),
            self.policy.name(),
        )
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
    /// tells the worker machine, books it in the ledger, and notifies
    /// the policy (`WorkerDown` + one `ChunkLost` per destroyed chunk,
    /// or `WorkerUp`).
    fn pump_lifecycle(&mut self) {
        let time = self.vnow;
        while self.lifecycle.front().is_some_and(|e| e.time <= time) {
            let LifecycleEvent { worker, up, .. } =
                self.lifecycle.pop_front().expect("front just checked");
            // Neither control message draws a reply.
            let mut no_replies = Vec::new();
            if up {
                self.workers[worker].ingest(ToWorker::Recover, &mut no_replies);
                self.ledger.rejoin(worker);
                self.obs.emit(|| ObsEvent::WorkerUp { time, worker });
                self.tell(SimEvent::WorkerUp { worker });
            } else {
                self.workers[worker].ingest(ToWorker::Fail, &mut no_replies);
                let lost = self.ledger.crash(worker);
                self.obs.emit(|| ObsEvent::WorkerDown { time, worker });
                self.tell(SimEvent::WorkerDown { worker });
                for chunk in lost {
                    self.chunk_lost(worker, chunk);
                }
            }
        }
    }

    /// Records and reports a chunk the ledger just declared lost.
    fn chunk_lost(&mut self, worker: usize, chunk: ChunkId) {
        let time = self.vnow;
        self.obs.emit(|| ObsEvent::ChunkLost {
            time,
            worker,
            chunk,
        });
        self.tell(SimEvent::ChunkLost { worker, chunk });
    }

    /// Delivers a completed lane: outbound fragments are booked and
    /// ingested by the worker machine (whose replies feed the policy),
    /// inbound results land in C.
    fn complete_lane(&mut self, id: u64, now: f64) -> Result<(), NetError> {
        let done = self.lanes.complete(id, now, || next_stamp(&mut self.stamp));
        let (worker, chunk) = (done.worker, done.chunk);
        match done.payload {
            LaneKind::Outbound { fragment, msg } => {
                if let Delivery::Dropped { newly_lost: true } =
                    self.ledger.delivered(worker, &fragment)
                {
                    self.chunk_lost(worker, chunk);
                }
                self.tell(SimEvent::SendDone { worker, fragment });
                self.ingest_and_enqueue(worker, msg);
            }
            LaneKind::Inbound { tiles } => {
                if !self.ledger.retrieved(worker, chunk) {
                    return Ok(()); // stale result of a dead chunk
                }
                let geom = self
                    .policy
                    .chunk_geom(chunk)
                    .ok_or(NetError::UnknownChunk(chunk))?;
                // Row-major `h × w`, as `encode` sliced the load: each
                // tile is copied into the C block it came from.
                assert_eq!(tiles.len(), geom.h * geom.w, "result payload mismatch");
                let cells = (geom.i0..geom.i0 + geom.h)
                    .flat_map(|i| (geom.j0..geom.j0 + geom.w).map(move |j| (i, j)));
                for ((i, j), tile) in cells.zip(tiles.iter()) {
                    self.c.block_mut(i, j).as_mut_slice().copy_from_slice(tile);
                }
                self.tell(SimEvent::RetrieveDone { worker, chunk });
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

    /// Books one worker control event in the ledger and reports it to
    /// the policy. Events referencing chunks lost to a crash are
    /// dropped silently (the worker emitted them before it learned of
    /// its own death).
    fn apply_worker_event(&mut self, worker: usize, msg: &ToMaster) -> Result<(), NetError> {
        let chunk = match *msg {
            ToMaster::StepDone { chunk, .. }
            | ToMaster::ChunkComputed { chunk }
            | ToMaster::Result { chunk, .. } => chunk,
        };
        if self.ledger.chunk_is_lost(chunk)? {
            return Ok(());
        }
        let ev = match *msg {
            ToMaster::StepDone { step, .. } => {
                self.ledger.step_done(worker, chunk, step);
                SimEvent::StepDone {
                    worker,
                    chunk,
                    step,
                }
            }
            ToMaster::ChunkComputed { .. } => {
                self.ledger.chunk_computed(chunk);
                SimEvent::ChunkComputed { worker, chunk }
            }
            ToMaster::Result { .. } => {
                return protocol(format!("unsolicited result for chunk {chunk}"));
            }
        };
        self.tell(ev);
        Ok(())
    }

    /// What this transport needs of a worker's link before anything is
    /// sent to or retrieved from it: it is not fault-dead, and the
    /// worker machine has not been told to `Fail`. (A worker the
    /// platform does not have is the ledger's to name.)
    fn check_link(&self, verb: &str, worker: usize) -> Result<(), NetError> {
        match self.workers.get(worker) {
            Some(sm) if sm.dead => Err(NetError::WorkerFailure(format!(
                "worker {worker} link down"
            ))),
            Some(_) if !self.ledger.is_up(worker) => {
                protocol(format!("{verb} downed worker {worker}"))
            }
            _ => Ok(()),
        }
    }

    /// The send rules this transport needs and the simulator's does
    /// not, run before the ledger's own: a live link ([`Self::check_link`]);
    /// a chunk of at most `t` steps, because `encode` slices real
    /// matrices; and an A/B fragment that is its step's whole quota,
    /// because `WorkerCore` takes one `FragA`/`FragB` per step.
    fn check_transport(
        &self,
        worker: usize,
        fragment: &Fragment,
        new_chunk: Option<&ChunkDescr>,
    ) -> Result<(), NetError> {
        self.check_link("send to", worker)?;
        let Fragment {
            kind,
            chunk,
            step,
            blocks,
        } = *fragment;
        if let Some(d) = new_chunk {
            let t = self.policy.job_dims().t;
            if d.steps as usize > t {
                return protocol(format!(
                    "chunk {} has {} steps, more than the job's t = {t}",
                    d.id, d.steps
                ));
            }
        } else if let Some(d) = self.ledger.descr(chunk) {
            let whole = match kind {
                MatKind::A if step < d.steps => d.a_for(step),
                MatKind::B if step < d.steps => d.b_for(step),
                // A second C load, a step out of range: the ledger's.
                _ => return Ok(()),
            };
            if blocks != whole {
                return protocol(format!(
                    "{kind:?} fragment of {blocks} blocks for chunk {chunk} step {step}, \
                     which takes {whole} in one piece"
                ));
            }
        }
        Ok(())
    }

    /// Encodes the fragment's wire message, its tiles sliced straight
    /// out of the real matrices into the message buffer.
    fn encode(
        &self,
        fragment: &Fragment,
        new_chunk: Option<ChunkDescr>,
    ) -> Result<Bytes, NetError> {
        let t = self.policy.job_dims().t;
        let geom = self
            .policy
            .chunk_geom(fragment.chunk)
            .ok_or(NetError::UnknownChunk(fragment.chunk))?;
        let (klo, khi) = geom.k_range(fragment.step, t);
        let rows = geom.i0..geom.i0 + geom.h;
        let cols = geom.j0..geom.j0 + geom.w;
        let Fragment { chunk, step, .. } = *fragment;
        let depth = khi - klo;
        Ok(match fragment.kind {
            MatKind::C => {
                let descr = new_chunk
                    .ok_or_else(|| NetError::Protocol("C load without chunk descriptor".into()))?;
                let c = &*self.c;
                let tiles = rows.flat_map(|i| cols.clone().map(move |j| c.block(i, j).as_slice()));
                wire::encode_load_c(&descr, geom.h as u32, geom.w as u32, c.q(), tiles)
            }
            MatKind::A => {
                let a = self.a;
                let tiles = rows.flat_map(|i| (klo..khi).map(move |kk| a.block(i, kk).as_slice()));
                wire::encode_frag(MatKind::A, chunk, step, geom.h * depth, a.q(), tiles)
            }
            MatKind::B => {
                let b = self.b;
                let tiles =
                    (klo..khi).flat_map(|kk| cols.clone().map(move |j| b.block(kk, j).as_slice()));
                wire::encode_frag(MatKind::B, chunk, step, depth * geom.w, b.q(), tiles)
            }
        })
    }
}

impl<P: MasterPolicy + GeometryAccess> MasterTransport for Reactor<'_, P> {
    type Error = NetError;

    fn poll_action(&mut self) -> Action {
        let ctx = self.ledger.ctx(self.vnow_wall());
        self.policy.next_action(&ctx)
    }

    fn perform(&mut self, action: Action) -> Result<MasterState, NetError> {
        match action {
            Action::Send {
                worker,
                fragment,
                new_chunk,
            } => {
                self.check_transport(worker, &fragment, new_chunk.as_ref())?;
                self.ledger.issue_send(worker, &fragment, new_chunk)?;
                // Round-trip through the wire format: the payload that
                // reaches the worker is exactly what a socket would carry.
                let msg = ToWorker::decode(self.encode(&fragment, new_chunk)?);
                let now = self.vnow;
                self.obs.emit(|| ObsEvent::Dispatch {
                    time: now,
                    worker,
                    chunk: fragment.chunk,
                    step: fragment.step,
                    mat: fragment.kind.into(),
                    blocks: fragment.blocks,
                });
                let payload = LaneKind::Outbound { fragment, msg };
                self.lanes.admit(
                    now,
                    worker,
                    Dir::ToWorker,
                    fragment.chunk,
                    fragment.blocks,
                    payload,
                    || next_stamp(&mut self.stamp),
                );
                Ok(MasterState::after_issue(self.lanes.can_admit()))
            }
            Action::Retrieve { worker, chunk } => {
                self.check_link("retrieve from", worker)?;
                if self.ledger.issue_retrieve(worker, chunk)? {
                    self.start_retrieval(worker, chunk)?;
                    Ok(MasterState::after_issue(self.lanes.can_admit()))
                } else {
                    Ok(MasterState::BlockedRetrieve(chunk))
                }
            }
            Action::CompleteJob { job } => protocol(format!(
                "job streams are not supported by the net runtime \
                 (CompleteJob for job {job})"
            )),
            Action::Wait => Ok(MasterState::Waiting),
            Action::Finished => {
                self.ledger.check_finished()?;
                Ok(MasterState::Done)
            }
        }
    }

    fn can_issue(&self) -> bool {
        self.lanes.can_admit()
    }

    fn ledger(&self) -> &StarLedger {
        &self.ledger
    }

    /// Pulls a computed chunk back: the retrieve control message goes to
    /// the worker machine (control traffic is free), and its `Result`
    /// payload is admitted as an inbound lane that owns the wire for the
    /// C blocks' transfer time. A fault-dead worker answers nothing.
    fn start_retrieval(&mut self, worker: usize, chunk: ChunkId) -> Result<(), NetError> {
        self.replies.clear();
        let mut replies = std::mem::take(&mut self.replies);
        self.workers[worker].ingest(ToWorker::Retrieve { chunk }, &mut replies);
        let mut payload = None;
        let mut result = Ok(());
        for reply in replies.drain(..) {
            match reply {
                ToMaster::Result { chunk: got, tiles } if got == chunk => {
                    payload = Some(tiles);
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
        let tiles = payload.ok_or_else(|| {
            NetError::WorkerFailure(format!(
                "worker {worker} produced no result for chunk {chunk}"
            ))
        })?;
        let n_blocks = tiles.len() as u64;
        self.lanes.admit(
            self.vnow,
            worker,
            Dir::ToMaster,
            chunk,
            n_blocks,
            LaneKind::Inbound { tiles },
            || next_stamp(&mut self.stamp),
        );
        Ok(())
    }
}
