//! The star-GEMM model on top of the generic kernel.
//!
//! This module re-expresses the paper's master-worker platform as
//! components of [`crate::kernel`]: component 0 is the master's port
//! (transfer completions are addressed to it — they free a lane),
//! component `w + 1` is worker `w` (compute-step completions and
//! lifecycle transitions). What the *master* knows lives in the two
//! types every engine shares — the [`StarLedger`] (chunk records,
//! memory admission control, statistics) and the [`LaneTable`] (the
//! transfers in flight, their shares and the port accounting). What is
//! left here is the simulator's clock and transport, and the *simulated
//! workers* (`ChunkRt`, the counterpart of the net runtime's
//! `WorkerCore`).
//!
//! The clock has two hands and one order. Compute, lifecycle and job
//! events are scheduled on the kernel's heap; a transfer's completion is
//! **not** — its projected end lives once, in the lane table, which
//! re-projects it whenever a re-share moves it. `StarModel::next_event`
//! delivers whichever of the table's earliest completion and the heap's
//! head comes first by `(time, seq)`: the table stamps each
//! (re)projection with the kernel's own schedule sequence, drawn in
//! start order at the admission or completion that caused it, which is
//! the `seq` a completion event pushed then would have carried — so the
//! delivery order is the one a heap entry per lane gave, without the
//! cancel-and-re-push per re-shared lane that kept it current. A
//! transfer delivered from the table counts against the event cap and
//! clamps the clock like any popped event, and a lane in flight keeps
//! the run alive like any pending work event.
//!
//! Worker semantics are *dataflow*: a compute step fires as soon as the
//! chunk's C blocks and the step's declared A and B block counts are all
//! resident; steps of a worker execute serially in firing order; a step's
//! A/B buffers are freed when the step completes, the chunk's C buffers
//! when the master retrieves the result.
//!
//! Dynamic platforms route crashes through kernel cancellation — the
//! only thing the model cancels: when a worker goes down, the pending
//! `StepDone` events of its chunks are
//! [cancelled](crate::kernel::EventQueue::cancel) instead of being
//! tombstoned and skipped at delivery. In-flight transfers still deliver
//! (the port time was spent either way); their blocks are dropped on
//! arrival.
//!
//! Like the kernel under it, the model's event path allocates nothing in
//! steady state: hook notifications go into a buffer the run loop owns,
//! and the chunk tables are [`ChunkMap`]s (no keyed SipHash for ids the
//! policy chose). What a run allocates scales with its chunks — the
//! per-step vectors of `ChunkRt` here and of the ledger's record —
//! never with its events; `stargemm-bench`'s `sim_alloc` test counts it.

use std::collections::BTreeMap;

use stargemm_netmodel::NetModelSpec;
use stargemm_obs::{Dir, ObsEvent, ObsSink};
use stargemm_platform::dynamic::{compute_end_opt, DynProfile};
use stargemm_platform::{Platform, WorkerId};

use crate::error::SimError;
use crate::kernel::{ComponentId, EventId, EventQueue, KernelError};
use crate::lanes::LaneTable;
use crate::ledger::{Delivery, StarLedger};
use crate::master::MasterTransport;
use crate::msg::{ChunkDescr, ChunkId, ChunkMap, Fragment, JobId, MatKind, StepId};
use crate::policy::{Action, MasterPolicy, SimEvent};
use crate::stats::{JobStats, RunStats};

/// Component id of the master's port.
pub(crate) const MASTER_PORT: ComponentId = 0;

/// Component id of worker `w`.
pub(crate) fn worker_component(w: WorkerId) -> ComponentId {
    w + 1
}

/// One chunk as its simulated worker sees it: what has arrived, which
/// steps fired, which are still running.
#[derive(Clone, Debug)]
struct ChunkRt {
    descr: ChunkDescr,
    c_loaded: bool,
    /// Per step: `[A, B]` blocks received, and whether the step fired.
    steps: Vec<([u64; 2], bool)>,
    /// Kernel handles of fired-but-unfinished steps, so a worker crash
    /// can cancel them instead of letting dead events deliver.
    pending_steps: Vec<(StepId, EventId)>,
    steps_done: StepId,
}

impl ChunkRt {
    fn new(descr: ChunkDescr) -> Self {
        ChunkRt {
            descr,
            c_loaded: false,
            steps: vec![([0; 2], false); descr.steps as usize],
            pending_steps: Vec::new(),
            steps_done: 0,
        }
    }

    fn step_ready(&self, step: StepId) -> bool {
        let (recv, fired) = self.steps[step as usize];
        self.c_loaded && !fired && recv == [self.descr.a_for(step), self.descr.b_for(step)]
    }
}

#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum EvKind {
    /// Lane `lane` of the wire finished its send or retrieval. Delivered
    /// from the lane table, never scheduled on the heap.
    TransferDone { lane: u64 },
    StepDone {
        worker: WorkerId,
        chunk: ChunkId,
        step: StepId,
    },
    /// A scheduled worker crash (`up = false`) or (re)join (`up = true`)
    /// from the dynamic profile.
    Lifecycle { worker: WorkerId, up: bool },
    /// A job of a multi-job stream enters the system (scheduled from the
    /// arrival plan attached via `Simulator::with_arrivals`).
    JobArrival { job: JobId },
    /// Kernel echo of `Action::CompleteJob`, so the completion hook is
    /// delivered in event order like everything else.
    JobDeclaredDone { job: JobId },
}

impl EvKind {
    /// Lifecycle and arrival events are scenario background noise: they
    /// keep firing after the policy declared completion and never
    /// justify keeping the run alive. (A pending completion echo *does*:
    /// the run must not end before the completion it already recorded is
    /// reported.)
    fn is_work(&self) -> bool {
        !matches!(self, EvKind::Lifecycle { .. } | EvKind::JobArrival { .. })
    }

    /// The component this event is addressed to: transfer completions
    /// and job lifecycle go to the master port, compute and worker
    /// lifecycle to their worker.
    fn component(&self) -> ComponentId {
        match *self {
            EvKind::TransferDone { .. }
            | EvKind::JobArrival { .. }
            | EvKind::JobDeclaredDone { .. } => MASTER_PORT,
            EvKind::StepDone { worker, .. } | EvKind::Lifecycle { worker, .. } => {
                worker_component(worker)
            }
        }
    }
}

/// The kernel queue plus the count of queued events that are not
/// lifecycle noise (the heap's half of the run-liveness check).
struct Agenda {
    queue: EventQueue<EvKind>,
    work_events: u64,
}

impl Agenda {
    fn push(&mut self, time: f64, kind: EvKind) -> EventId {
        debug_assert!(
            !matches!(kind, EvKind::TransferDone { .. }),
            "transfer completions are read off the lane table"
        );
        if kind.is_work() {
            self.work_events += 1;
        }
        self.queue.schedule(time, kind.component(), kind)
    }

    fn pop(&mut self) -> Result<Option<EvKind>, KernelError> {
        let kind = self.queue.pop()?.map(|ev| ev.payload);
        if kind.is_some_and(|kind| kind.is_work()) {
            self.work_events -= 1;
        }
        Ok(kind)
    }

    /// Cancels a pending work event through the kernel.
    fn cancel_work(&mut self, id: EventId) {
        if let Some(kind) = self.queue.cancel(id) {
            debug_assert!(kind.is_work());
            self.work_events -= 1;
        }
    }
}

/// Whole-run mutable state of the star-GEMM model.
pub(crate) struct StarModel {
    pub(crate) now: f64,
    /// The master's books (shared with the net runtime).
    pub(crate) ledger: StarLedger,
    /// The master's wire (shared with the net runtime) and the clock of
    /// its transfers; a lane carries the fragment being sent (`None`: a
    /// retrieval).
    lanes: LaneTable<Option<Fragment>>,
    /// The simulated workers' view of the chunks they hold (dropped at
    /// retrieval or loss).
    chunks: ChunkMap<ChunkRt>,
    agenda: Agenda,
    /// Structured-event sink; detached in ordinary runs.
    obs: ObsSink,
    last_retrieve_done: f64,
    /// Per-job lifecycle records of a multi-job stream, keyed by job id
    /// (inserted when the arrival event delivers).
    jobs: BTreeMap<JobId, JobRecord>,
}

/// Engine-observed lifecycle of one job.
#[derive(Clone, Copy, Debug)]
struct JobRecord {
    arrival: f64,
    completion: Option<f64>,
}

impl StarModel {
    pub(crate) fn new(
        platform: &Platform,
        profile: Option<DynProfile>,
        netmodel: &NetModelSpec,
        arrivals: &[(f64, JobId)],
        max_events: u64,
        obs: ObsSink,
    ) -> Self {
        let mut agenda = Agenda {
            queue: EventQueue::new().with_max_events(max_events),
            work_events: 0,
        };
        for ev in profile.iter().flat_map(|p| p.lifecycle_events()) {
            agenda.push(
                ev.time,
                EvKind::Lifecycle {
                    worker: ev.worker,
                    up: ev.up,
                },
            );
        }
        for &(time, job) in arrivals {
            agenda.push(time, EvKind::JobArrival { job });
        }
        StarModel {
            now: 0.0,
            ledger: StarLedger::new(platform, profile.as_ref()),
            lanes: LaneTable::new(
                *netmodel,
                platform.workers().iter().map(|s| s.c).collect(),
                profile,
                obs.clone(),
            ),
            chunks: ChunkMap::default(),
            agenda,
            obs,
            last_retrieve_done: 0.0,
            jobs: BTreeMap::new(),
        }
    }

    /// Whether any work-bearing event (transfer or compute completion)
    /// is still pending: a lane in flight, or a work event on the heap.
    pub(crate) fn has_work_events(&self) -> bool {
        !self.lanes.in_flight().is_empty() || self.agenda.work_events > 0
    }

    /// Puts a transfer on the wire. Every lane the re-share
    /// (re)projects is stamped with the kernel's next schedule sequence,
    /// in start order — the `seq` its completion would have carried as
    /// a heap event pushed here.
    ///
    /// With the one-port model this is a single lane at share 1.0,
    /// stamped once and never again.
    fn admit(
        &mut self,
        worker: WorkerId,
        dir: Dir,
        chunk: ChunkId,
        blocks: u64,
        fragment: Option<Fragment>,
    ) {
        self.lanes
            .admit(self.now, worker, dir, chunk, blocks, fragment, || {
                self.agenda.queue.take_seq()
            });
    }

    /// Delivers the next event — the earlier, by `(time, seq)`, of the
    /// lane table's head and the heap's — advancing the model clock;
    /// `None` means both are drained (deadlock detection is the caller's
    /// job).
    pub(crate) fn next_event(&mut self) -> Result<Option<EvKind>, SimError> {
        let queue = &mut self.agenda.queue;
        let transfer = self
            .lanes
            .next_completion()
            .filter(|t| queue.peek_key().is_none_or(|key| t.precedes(key)));
        let kind = match transfer {
            Some(t) => {
                queue.deliver_external(t.end)?;
                Some(EvKind::TransferDone { lane: t.lane })
            }
            None => self.agenda.pop()?,
        };
        self.now = self.agenda.queue.now();
        Ok(kind)
    }

    /// Applies an event; appends the hook notifications to dispatch to
    /// `hooks`, a buffer the run loop owns — so that delivering an event
    /// allocates nothing once the buffer and the tables have grown.
    pub(crate) fn apply_event(
        &mut self,
        kind: EvKind,
        hooks: &mut Vec<SimEvent>,
    ) -> Result<(), SimError> {
        let now = self.now;
        match kind {
            EvKind::TransferDone { lane } => {
                let done = self
                    .lanes
                    .complete(lane, now, || self.agenda.queue.take_seq());
                let (worker, chunk) = (done.worker, done.chunk);
                match done.payload {
                    Some(fragment) => {
                        if let Delivery::Dropped { newly_lost } =
                            self.ledger.delivered(worker, &fragment)
                        {
                            if newly_lost {
                                self.chunks.remove(&chunk);
                                hooks.push(SimEvent::ChunkLost { worker, chunk });
                                self.obs.emit(|| ObsEvent::ChunkLost {
                                    time: now,
                                    worker: ObsEvent::narrow(worker),
                                    chunk,
                                });
                            }
                        } else {
                            self.land(worker, fragment);
                        }
                        hooks.push(SimEvent::SendDone { worker, fragment });
                    }
                    // A source that crashed mid-retrieval discards the
                    // partial transfer (ChunkLost already reported).
                    None => {
                        if self.ledger.retrieved(worker, chunk) {
                            self.chunks.remove(&chunk);
                            self.last_retrieve_done = now;
                            hooks.push(SimEvent::RetrieveDone { worker, chunk });
                        }
                    }
                }
            }
            EvKind::StepDone {
                worker,
                chunk,
                step,
            } => {
                self.obs.emit(|| ObsEvent::ComputeEnd {
                    time: now,
                    worker: ObsEvent::narrow(worker),
                    chunk,
                    step,
                });
                // Crashes cancel the pending steps of their chunks, so a
                // delivered StepDone always belongs to a live chunk.
                debug_assert_eq!(self.ledger.chunk_is_lost(chunk), Ok(false));
                let ch = self.chunks.get_mut(&chunk).expect("fired step");
                ch.pending_steps.retain(|&(s, _)| s != step);
                ch.steps_done += 1;
                let all_done = ch.steps_done == ch.descr.steps;
                self.ledger.step_done(worker, chunk, step);
                hooks.push(SimEvent::StepDone {
                    worker,
                    chunk,
                    step,
                });
                if all_done {
                    self.ledger.chunk_computed(chunk);
                    hooks.push(SimEvent::ChunkComputed { worker, chunk });
                }
            }
            EvKind::JobArrival { job } => {
                let prev = self.jobs.insert(
                    job,
                    JobRecord {
                        arrival: now,
                        completion: None,
                    },
                );
                debug_assert!(prev.is_none(), "duplicate arrival of job {job}");
                self.obs.emit(|| ObsEvent::JobArrived { time: now, job });
                hooks.push(SimEvent::JobArrived { job });
            }
            EvKind::JobDeclaredDone { job } => {
                self.obs.emit(|| ObsEvent::JobCompleted { time: now, job });
                hooks.push(SimEvent::JobCompleted { job });
            }
            EvKind::Lifecycle { worker, up } => {
                self.obs.emit(|| {
                    let worker = ObsEvent::narrow(worker);
                    if up {
                        ObsEvent::WorkerUp { time: now, worker }
                    } else {
                        ObsEvent::WorkerDown { time: now, worker }
                    }
                });
                self.ledger.worker_mut(worker).compute_free_at = now;
                if up {
                    self.ledger.rejoin(worker);
                    hooks.push(SimEvent::WorkerUp { worker });
                } else {
                    // Crash: the ledger wipes the worker and loses its
                    // chunks; the kernel forgets their in-flight steps.
                    hooks.push(SimEvent::WorkerDown { worker });
                    for chunk in self.ledger.crash(worker) {
                        hooks.push(SimEvent::ChunkLost { worker, chunk });
                        self.obs.emit(|| ObsEvent::ChunkLost {
                            time: now,
                            worker: ObsEvent::narrow(worker),
                            chunk,
                        });
                        let ch = self.chunks.remove(&chunk).expect("opened chunk");
                        for (_, ev) in ch.pending_steps {
                            self.agenda.cancel_work(ev);
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// The simulated worker takes delivery of a fragment and fires every
    /// step it completes the operands of (FIFO per worker).
    fn land(&mut self, worker: WorkerId, fragment: Fragment) {
        let Fragment {
            kind, chunk, step, ..
        } = fragment;
        let ch = self.chunks.get_mut(&chunk).expect("opened chunk");
        let candidates = match kind {
            // C arriving late can unlock steps whose A/B are already
            // resident (not the usual order, but legal).
            MatKind::C => {
                ch.c_loaded = true;
                0..ch.descr.steps
            }
            MatKind::A | MatKind::B => {
                ch.steps[step as usize].0[usize::from(kind == MatKind::B)] += fragment.blocks;
                step..step + 1
            }
        };
        for step in candidates {
            if !ch.step_ready(step) {
                continue;
            }
            ch.steps[step as usize].1 = true;
            let updates = ch.descr.updates_for(step);
            let w = self.ledger.worker_mut(worker);
            let base = updates as f64 * w.w;
            let start = w.compute_free_at.max(self.now);
            let end = compute_end_opt(self.lanes.profile(), worker, start, base);
            w.compute_free_at = end;
            w.stats.busy_time += end - start;
            self.obs.emit(|| ObsEvent::ComputeStart {
                time: start,
                worker: ObsEvent::narrow(worker),
                chunk,
                step,
                updates,
            });
            let done = EvKind::StepDone {
                worker,
                chunk,
                step,
            };
            ch.pending_steps.push((step, self.agenda.push(end, done)));
        }
    }

    pub(crate) fn into_stats(self, policy: &str) -> RunStats {
        let jobs = self
            .jobs
            .iter()
            .map(|(&job, rec)| JobStats {
                job,
                arrival: rec.arrival,
                completion: rec.completion,
            })
            .collect();
        self.ledger.into_stats(
            self.last_retrieve_done,
            self.lanes.port_busy(),
            self.lanes.port_stats(),
            jobs,
            policy,
        )
    }
}

/// [`MasterTransport`] over the virtual-time model: the sim engine's
/// clock is the kernel event queue, its transport the simulated workers.
/// It adds no rule of its own. The per-decision methods are `#[inline]`:
/// `MasterSm` calls them from another module.
pub(crate) struct SimTransport<'a> {
    pub(crate) st: &'a mut StarModel,
    pub(crate) policy: &'a mut dyn MasterPolicy,
}

impl MasterTransport for SimTransport<'_> {
    type Error = SimError;

    #[inline]
    fn poll_action(&mut self) -> Action {
        self.policy.next_action(&self.st.ledger.ctx(self.st.now))
    }

    fn can_issue(&self) -> bool {
        self.st.lanes.can_admit()
    }

    fn ledger(&self) -> &StarLedger {
        &self.st.ledger
    }

    fn ledger_mut(&mut self) -> &mut StarLedger {
        &mut self.st.ledger
    }

    /// A C load also opens the simulated worker's record of its chunk.
    #[inline]
    fn send(
        &mut self,
        worker: WorkerId,
        fragment: Fragment,
        new_chunk: Option<ChunkDescr>,
    ) -> Result<(), SimError> {
        let st = &mut *self.st;
        if let Some(descr) = new_chunk {
            st.chunks.insert(descr.id, ChunkRt::new(descr));
        }
        let start = st.now;
        st.obs.emit(|| ObsEvent::Dispatch {
            time: start,
            worker: ObsEvent::narrow(worker),
            chunk: fragment.chunk,
            step: fragment.step,
            mat: fragment.kind.into(),
            blocks: fragment.blocks,
        });
        st.admit(
            worker,
            Dir::ToWorker,
            fragment.chunk,
            fragment.blocks,
            Some(fragment),
        );
        Ok(())
    }

    #[inline]
    fn start_retrieval(&mut self, worker: WorkerId, chunk: ChunkId) -> Result<(), SimError> {
        let blocks = self.st.chunks[&chunk].descr.c_blocks;
        self.st.admit(worker, Dir::ToMaster, chunk, blocks, None);
        Ok(())
    }

    /// Books the completion of an arrived job and echoes it through the
    /// kernel, so the hook arrives in event order.
    fn complete_job(&mut self, job: JobId) -> Result<(), SimError> {
        let st = &mut *self.st;
        let rec = st.jobs.get_mut(&job).ok_or_else(|| {
            SimError::protocol(format!("completion of unknown (never-arrived) job {job}"))
        })?;
        if rec.completion.is_some() {
            return Err(SimError::protocol(format!("job {job} completed twice")));
        }
        rec.completion = Some(st.now);
        st.agenda.push(st.now, EvKind::JobDeclaredDone { job });
        Ok(())
    }
}

impl From<KernelError> for SimError {
    fn from(e: KernelError) -> Self {
        match e {
            KernelError::EventCapExceeded { cap } => SimError::EventCapExceeded { cap },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::drive;
    use crate::policy::SimCtx;
    use stargemm_platform::WorkerSpec;

    /// Replays a fixed action list, waits for `unretrieved` retrievals
    /// to land, then says `Finished`.
    struct Script {
        actions: std::vec::IntoIter<Action>,
        unretrieved: usize,
    }

    impl MasterPolicy for Script {
        fn next_action(&mut self, _ctx: &SimCtx) -> Action {
            match self.actions.next() {
                Some(action) => action,
                None if self.unretrieved > 0 => Action::Wait,
                None => Action::Finished,
            }
        }

        fn on_event(&mut self, event: &SimEvent, _ctx: &SimCtx) {
            if matches!(event, SimEvent::RetrieveDone { .. }) {
                self.unretrieved -= 1;
            }
        }

        fn name(&self) -> &'static str {
            "script"
        }
    }

    /// The point of reading transfer completions off the lane table: a
    /// fair-share run whose every admission and completion re-shares
    /// every lane in flight cancels no kernel event, and its heap never
    /// holds more than the compute steps — where one armed event per
    /// lane, re-pushed per re-share, left a stale entry per moved lane
    /// (297 920 cancellations and a heap of 82 560 on the benchmark's
    /// 128-worker leg).
    #[test]
    fn a_crash_free_fair_share_run_cancels_nothing_and_keeps_the_heap_small() {
        let workers = 16;
        let platform = Platform::homogeneous("fair", workers, WorkerSpec::new(1.0, 0.5, 64));
        // A quarter of the aggregate link rate: binding from the fifth
        // concurrent lane on.
        let netmodel = NetModelSpec::FairShare {
            backbone: 0.25 * workers as f64,
        };
        // Every worker's chunk is opened and fed at t = 0 (fair share
        // admits without bound: 48 lanes at once), then retrieved.
        let descr = |w: usize| ChunkDescr {
            id: w as ChunkId,
            c_blocks: 4,
            steps: 1,
            a_blocks_per_step: 2,
            b_blocks_per_step: 2,
            updates_per_step: 4,
            tail: None,
        };
        let send = |worker, fragment, new_chunk| Action::Send {
            worker,
            fragment,
            new_chunk,
        };
        let mut actions = Vec::new();
        for w in 0..workers {
            let d = descr(w);
            actions.push(send(w, Fragment::c_load(&d), Some(d)));
            actions.push(send(w, Fragment::a_step(&d, 0), None));
            actions.push(send(w, Fragment::b_step(&d, 0), None));
        }
        for worker in 0..workers {
            let chunk = worker as ChunkId;
            actions.push(Action::Retrieve { worker, chunk });
        }

        let mut st = StarModel::new(&platform, None, &netmodel, &[], u64::MAX, ObsSink::off());
        let mut script = Script {
            actions: actions.into_iter(),
            unretrieved: workers,
        };
        drive(&mut st, &mut script).unwrap();
        let queue = &st.agenda.queue;
        // 4 transfers and 1 step per worker.
        assert_eq!(queue.delivered(), 5 * workers as u64);
        assert_eq!(queue.cancelled(), 0);
        assert!(
            queue.heap_high_water() <= workers + 1,
            "heap high-water {}",
            queue.heap_high_water()
        );
        let stats = st.into_stats("script");
        assert_eq!(stats.port.peak_lanes, 3 * workers as u64);
        assert_eq!(stats.chunks, workers as u64);
    }
}
