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
//! left here is the simulator's clock and transport: the kernel event
//! queue, with one scheduled completion per lane, and the *simulated
//! workers* (`ChunkRt`, the counterpart of the net runtime's
//! `WorkerCore`).
//!
//! Worker semantics are *dataflow*: a compute step fires as soon as the
//! chunk's C blocks and the step's declared A and B block counts are all
//! resident; steps of a worker execute serially in firing order; a step's
//! A/B buffers are freed when the step completes, the chunk's C buffers
//! when the master retrieves the result.
//!
//! Dynamic platforms route crashes through kernel cancellation: when a
//! worker goes down, the pending `StepDone` events of its chunks are
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
use crate::kernel::{ComponentId, Event, EventId, EventQueue, KernelError};
use crate::lanes::LaneTable;
use crate::ledger::{Delivery, StarLedger};
use crate::master::MasterState;
use crate::msg::{ChunkDescr, ChunkId, ChunkMap, Fragment, JobId, MatKind, StepId};
use crate::policy::{Action, SimEvent};
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
    /// Lane `lane` of the wire finished its send or retrieval.
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

/// What a lane of the simulated wire carries: the fragment being sent
/// (`None`: a retrieval) and the kernel handle of the completion
/// scheduled at the lane's projected end.
struct Wire {
    fragment: Option<Fragment>,
    event: Option<EventId>,
}

/// The kernel queue plus the count of queued events that are not
/// lifecycle noise (the run-liveness check).
struct Agenda {
    queue: EventQueue<EvKind>,
    work_events: u64,
}

impl Agenda {
    fn push(&mut self, time: f64, kind: EvKind) -> EventId {
        if kind.is_work() {
            self.work_events += 1;
        }
        self.queue.schedule(time, kind.component(), kind)
    }

    fn pop(&mut self) -> Result<Option<Event<EvKind>>, KernelError> {
        let ev = self.queue.pop()?;
        if ev.is_some_and(|ev| ev.payload.is_work()) {
            self.work_events -= 1;
        }
        Ok(ev)
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
    /// The master's wire (shared with the net runtime); each lane's
    /// completion is a scheduled kernel event.
    lanes: LaneTable<Wire>,
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
                netmodel.build(),
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
    /// is still pending.
    pub(crate) fn has_work_events(&self) -> bool {
        self.agenda.work_events > 0
    }

    /// Whether the contention model admits another transfer right now.
    pub(crate) fn can_issue(&self) -> bool {
        self.lanes.can_admit()
    }

    /// Puts a transfer on the wire and (re)schedules the kernel
    /// completion of every lane whose projected end the re-share moved.
    ///
    /// With the one-port model this is a single lane at share 1.0,
    /// scheduled once and never rescheduled.
    fn admit(&mut self, worker: WorkerId, dir: Dir, chunk: ChunkId, blocks: u64, wire: Wire) {
        self.lanes.admit(self.now, worker, dir, chunk, blocks, wire);
        self.rearm();
    }

    /// Cancels and re-pushes the completion event of each moved lane,
    /// in start order.
    fn rearm(&mut self) {
        for l in self.lanes.moved_mut() {
            if let Some(ev) = l.payload.event {
                self.agenda.cancel_work(ev);
            }
            let ev = self.agenda.push(l.end, EvKind::TransferDone { lane: l.id });
            l.payload.event = Some(ev);
        }
    }

    /// Delivers the next event, advancing the model clock; `None` means
    /// the queue is drained (deadlock detection is the caller's job).
    pub(crate) fn next_event(&mut self) -> Result<Option<Event<EvKind>>, SimError> {
        let ev = self.agenda.pop()?;
        if let Some(ev) = &ev {
            self.now = ev.time;
        }
        Ok(ev)
    }

    /// Validates and enacts a policy action; returns the new master state.
    pub(crate) fn apply_action(&mut self, action: Action) -> Result<MasterState, SimError> {
        match action {
            Action::Wait => Ok(MasterState::Waiting),
            Action::Finished => {
                self.ledger.check_finished()?;
                Ok(MasterState::Done)
            }
            Action::Send {
                worker,
                fragment,
                new_chunk,
            } => {
                self.ledger.issue_send(worker, &fragment, new_chunk)?;
                if let Some(descr) = new_chunk {
                    self.chunks.insert(descr.id, ChunkRt::new(descr));
                }
                let start = self.now;
                self.obs.emit(|| ObsEvent::Dispatch {
                    time: start,
                    worker,
                    chunk: fragment.chunk,
                    step: fragment.step,
                    mat: fragment.kind.into(),
                    blocks: fragment.blocks,
                });
                let wire = Wire {
                    fragment: Some(fragment),
                    event: None,
                };
                self.admit(worker, Dir::ToWorker, fragment.chunk, fragment.blocks, wire);
                Ok(MasterState::after_issue(self.can_issue()))
            }
            Action::CompleteJob { job } => {
                let rec = self.jobs.get_mut(&job).ok_or_else(|| {
                    SimError::protocol(format!("completion of unknown (never-arrived) job {job}"))
                })?;
                if rec.completion.is_some() {
                    return Err(SimError::protocol(format!("job {job} completed twice")));
                }
                rec.completion = Some(self.now);
                // Echo through the kernel so the hook arrives in event
                // order; completion is free (no port time).
                let now = self.now;
                self.agenda.push(now, EvKind::JobDeclaredDone { job });
                Ok(MasterState::Idle)
            }
            Action::Retrieve { worker, chunk } => {
                if self.ledger.issue_retrieve(worker, chunk)? {
                    self.start_retrieval(worker, chunk);
                    Ok(MasterState::after_issue(self.can_issue()))
                } else {
                    Ok(MasterState::BlockedRetrieve(chunk))
                }
            }
        }
    }

    pub(crate) fn start_retrieval(&mut self, worker: WorkerId, chunk: ChunkId) {
        let blocks = self.chunks[&chunk].descr.c_blocks;
        let wire = Wire {
            fragment: None,
            event: None,
        };
        self.admit(worker, Dir::ToMaster, chunk, blocks, wire);
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
                let done = self.lanes.complete(lane, now);
                self.rearm();
                let (worker, chunk) = (done.worker, done.chunk);
                match done.payload.fragment {
                    Some(fragment) => {
                        if let Delivery::Dropped { newly_lost } =
                            self.ledger.delivered(worker, &fragment)
                        {
                            if newly_lost {
                                self.chunks.remove(&chunk);
                                hooks.push(SimEvent::ChunkLost { worker, chunk });
                                self.obs.emit(|| ObsEvent::ChunkLost {
                                    time: now,
                                    worker,
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
                    worker,
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
                            worker,
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
                worker,
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

impl From<KernelError> for SimError {
    fn from(e: KernelError) -> Self {
        match e {
            KernelError::EventCapExceeded { cap } => SimError::EventCapExceeded { cap },
        }
    }
}
