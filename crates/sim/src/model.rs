//! The star-GEMM model on top of the generic kernel.
//!
//! This module re-expresses the paper's one-port master-worker platform
//! as components of [`crate::kernel`]: component 0 is the master's port
//! (transfer completions are addressed to it — they free the port),
//! component `w + 1` is worker `w` (compute-step completions and
//! lifecycle transitions). The model owns all star-GEMM state — worker
//! runtimes, chunk dataflow, memory admission control, statistics and
//! observability events — while event ordering, cancellation and the event
//! cap are the kernel's job.
//!
//! Worker semantics are *dataflow*: a compute step fires as soon as the
//! chunk's C blocks and the step's declared A and B block counts are all
//! resident; steps of a worker execute serially in firing order; a step's
//! A/B buffers are freed when the step completes, the chunk's C buffers
//! when the master retrieves the result. Memory capacity is enforced at
//! send-issue time (in-flight blocks count as reserved).
//!
//! Dynamic platforms route crashes through kernel cancellation: when a
//! worker goes down, the pending `StepDone` events of its chunks are
//! [cancelled](crate::kernel::EventQueue::cancel) instead of being
//! tombstoned and skipped at delivery. In-flight transfers still deliver
//! (the port time was spent either way); their blocks are dropped on
//! arrival.

use std::collections::BTreeMap;

use stargemm_netmodel::{ContentionModel, NetModelSpec, ShareScratch, TransferLane};
use stargemm_obs::{Dir, ObsEvent, ObsSink};
use stargemm_platform::dynamic::{
    compute_end_opt, transfer_end_opt, transfer_nominal_between_opt, DynProfile,
};
use stargemm_platform::{Platform, WorkerId};

use crate::error::SimError;
use crate::kernel::{ComponentId, Event, EventId, EventQueue, KernelError};
use crate::msg::{ChunkDescr, ChunkId, Fragment, JobId, MatKind, StepId};
use crate::policy::{Action, MasterPolicy, SimEvent};
use crate::stats::{JobStats, PortStats, RunStats, WorkerStats};

/// Component id of the master's port.
pub(crate) const MASTER_PORT: ComponentId = 0;

/// Component id of worker `w`.
pub(crate) fn worker_component(w: WorkerId) -> ComponentId {
    w + 1
}

/// Runtime state of one worker (crate-visible so [`crate::policy::SimCtx`]
/// can expose read-only views).
#[derive(Clone, Debug)]
pub struct WorkerRt {
    pub(crate) capacity: u64,
    pub(crate) c: f64,
    pub(crate) w: f64,
    pub(crate) resident: u64,
    pub(crate) reserved: u64,
    pub(crate) compute_free_at: f64,
    pub(crate) up: bool,
    pub(crate) stats: WorkerStats,
}

impl WorkerRt {
    pub(crate) fn from_spec(spec: &stargemm_platform::WorkerSpec) -> Self {
        WorkerRt {
            capacity: spec.m as u64,
            c: spec.c,
            w: spec.w,
            resident: 0,
            reserved: 0,
            compute_free_at: 0.0,
            up: true,
            stats: WorkerStats::default(),
        }
    }
}

/// Runtime state of one chunk.
#[derive(Clone, Debug)]
struct ChunkRt {
    descr: ChunkDescr,
    worker: WorkerId,
    c_loaded: bool,
    recv_a: Vec<u64>,
    recv_b: Vec<u64>,
    fired: Vec<bool>,
    /// Kernel handles of fired-but-unfinished steps, so a worker crash
    /// can cancel them instead of letting dead events deliver.
    pending_steps: Vec<(StepId, EventId)>,
    steps_done: StepId,
    computed: bool,
    retrieved: bool,
    retrieve_pending: bool,
    /// Destroyed by a worker crash: the engine does not require its
    /// retrieval.
    lost: bool,
}

impl ChunkRt {
    fn new(descr: ChunkDescr, worker: WorkerId) -> Self {
        let n = descr.steps as usize;
        ChunkRt {
            descr,
            worker,
            c_loaded: false,
            recv_a: vec![0; n],
            recv_b: vec![0; n],
            fired: vec![false; n],
            pending_steps: Vec::new(),
            steps_done: 0,
            computed: false,
            retrieved: false,
            retrieve_pending: false,
            lost: false,
        }
    }

    fn step_ready(&self, step: StepId) -> bool {
        let s = step as usize;
        self.c_loaded
            && !self.fired[s]
            && self.recv_a[s] == self.descr.a_for(step)
            && self.recv_b[s] == self.descr.b_for(step)
    }
}

#[derive(Clone, Copy, Debug, PartialEq)]
#[allow(clippy::enum_variant_names)]
pub(crate) enum EvKind {
    SendDone {
        worker: WorkerId,
        fragment: Fragment,
    },
    RetrieveDone {
        worker: WorkerId,
        chunk: ChunkId,
    },
    StepDone {
        worker: WorkerId,
        chunk: ChunkId,
        step: StepId,
    },
    /// A scheduled worker crash (`up = false`) or (re)join (`up = true`)
    /// from the dynamic profile.
    Lifecycle {
        worker: WorkerId,
        up: bool,
    },
    /// A job of a multi-job stream enters the system (scheduled from the
    /// arrival plan attached via `Simulator::with_arrivals`).
    JobArrival {
        job: JobId,
    },
    /// Kernel echo of `Action::CompleteJob`, so the completion hook is
    /// delivered in event order like everything else.
    JobDeclaredDone {
        job: JobId,
    },
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
            EvKind::SendDone { .. }
            | EvKind::RetrieveDone { .. }
            | EvKind::JobArrival { .. }
            | EvKind::JobDeclaredDone { .. } => MASTER_PORT,
            EvKind::StepDone { worker, .. } | EvKind::Lifecycle { worker, .. } => {
                worker_component(worker)
            }
        }
    }
}

pub(crate) use crate::master::MasterState;

/// One wire transfer currently in flight under the contention model.
///
/// `rem` nominal seconds (blocks · c_i at full link speed, unit trace)
/// were still unserved as of model time `since`, progressing at `share`
/// of the link. The pending kernel completion is rescheduled whenever a
/// re-share changes the projected end.
#[derive(Clone, Copy, Debug)]
struct ActiveTransfer {
    worker: WorkerId,
    rem: f64,
    share: f64,
    since: f64,
    started: f64,
    /// Contention lane the transfer occupies (lowest free at admission).
    lane: usize,
    event: Option<EventId>,
    completion: EvKind,
}

/// Always-on port-lane accounting behind [`PortStats`] — shared with
/// the net runtime, which keys it off wall-clock timestamps.
#[derive(Clone, Debug, Default)]
pub struct PortAccounting {
    lane_busy: Vec<f64>,
    peak_lanes: u64,
    idle_gaps: u64,
    idle_time: f64,
    longest_stall: f64,
    /// Time of the first admission ever (gaps before it are ramp-up,
    /// not stalls).
    first_acquire: Option<f64>,
    /// Time the port last went fully idle.
    all_free_since: f64,
}

impl PortAccounting {
    /// Called with the admission time and the lane count *after* the
    /// admission.
    pub fn on_acquire(&mut self, now: f64, lanes_in_use: usize) {
        match self.first_acquire {
            None => self.first_acquire = Some(now),
            Some(_) if lanes_in_use == 1 => {
                // Port was fully idle since `all_free_since`.
                let gap = now - self.all_free_since;
                if gap > 0.0 {
                    self.idle_gaps += 1;
                    self.idle_time += gap;
                    self.longest_stall = self.longest_stall.max(gap);
                }
            }
            Some(_) => {}
        }
        self.peak_lanes = self.peak_lanes.max(lanes_in_use as u64);
    }

    /// Called with the release time, the freed lane, its occupancy
    /// interval, and the lane count after the release.
    pub fn on_release(&mut self, now: f64, lane: usize, busy: f64, lanes_in_use: usize) {
        if self.lane_busy.len() <= lane {
            self.lane_busy.resize(lane + 1, 0.0);
        }
        self.lane_busy[lane] += busy;
        if lanes_in_use == 0 {
            self.all_free_since = now;
        }
    }

    /// Snapshot into the [`PortStats`] block of [`crate::stats::RunStats`].
    pub fn stats(&self) -> PortStats {
        PortStats {
            lane_busy: self.lane_busy.clone(),
            peak_lanes: self.peak_lanes,
            idle_gaps: self.idle_gaps,
            idle_time: self.idle_time,
            longest_stall: self.longest_stall,
        }
    }
}

/// Whole-run mutable state of the star-GEMM model.
pub(crate) struct StarModel {
    pub(crate) now: f64,
    pub(crate) workers: Vec<WorkerRt>,
    chunks: BTreeMap<ChunkId, ChunkRt>,
    queue: EventQueue<EvKind>,
    /// The star's network-contention model: admission capacity and
    /// bandwidth shares of the active transfer set.
    netmodel: Box<dyn ContentionModel>,
    /// Transfers currently occupying the wire, in start order.
    active: Vec<ActiveTransfer>,
    /// Reusable lane descriptions handed to the contention model (the
    /// re-share hot path allocates nothing in steady state).
    lane_scratch: Vec<TransferLane>,
    /// Reusable share-computation buffers, same reason.
    share_scratch: ShareScratch,
    port_busy: f64,
    /// Per-lane busy/idle breakdown (always on — plain accumulation).
    port_acct: PortAccounting,
    /// Structured-event sink; detached in ordinary runs.
    obs: ObsSink,
    retrieved_count: u64,
    last_retrieve_done: f64,
    profile: Option<DynProfile>,
    /// Per-job lifecycle records of a multi-job stream, keyed by job id
    /// (inserted when the arrival event delivers).
    jobs: BTreeMap<JobId, JobRecord>,
    /// Queued events that are not lifecycle noise (run-liveness check).
    work_events: u64,
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
        let workers = platform
            .workers()
            .iter()
            .enumerate()
            .map(|(w, s)| WorkerRt {
                capacity: s.m as u64,
                c: s.c,
                w: s.w,
                resident: 0,
                reserved: 0,
                compute_free_at: 0.0,
                up: profile.as_ref().is_none_or(|p| p.is_up(w, 0.0)),
                stats: WorkerStats::default(),
            })
            .collect();
        let mut st = StarModel {
            now: 0.0,
            workers,
            chunks: BTreeMap::new(),
            queue: EventQueue::new().with_max_events(max_events),
            netmodel: netmodel.build(),
            active: Vec::new(),
            lane_scratch: Vec::new(),
            share_scratch: ShareScratch::new(),
            port_busy: 0.0,
            port_acct: PortAccounting::default(),
            obs,
            retrieved_count: 0,
            last_retrieve_done: 0.0,
            profile,
            jobs: BTreeMap::new(),
            work_events: 0,
        };
        if let Some(p) = st.profile.clone() {
            for ev in p.lifecycle_events() {
                st.push(
                    ev.time,
                    EvKind::Lifecycle {
                        worker: ev.worker,
                        up: ev.up,
                    },
                );
            }
        }
        for &(time, job) in arrivals {
            st.push(time, EvKind::JobArrival { job });
        }
        st
    }

    /// Whether any work-bearing event (transfer or compute completion)
    /// is still pending.
    pub(crate) fn has_work_events(&self) -> bool {
        self.work_events > 0
    }

    fn chunk(&self, id: ChunkId) -> Result<&ChunkRt, SimError> {
        self.chunks
            .get(&id)
            .ok_or_else(|| SimError::protocol(format!("unknown chunk {id}")))
    }

    pub(crate) fn chunk_is_computed(&self, id: ChunkId) -> Result<bool, SimError> {
        self.chunk(id).map(|c| c.computed)
    }

    pub(crate) fn chunk_worker(&self, id: ChunkId) -> Result<WorkerId, SimError> {
        self.chunk(id).map(|c| c.worker)
    }

    /// Whether the contention model admits another transfer right now.
    pub(crate) fn can_issue(&self) -> bool {
        self.active.len() < self.netmodel.capacity()
    }

    /// Master state after issuing a transfer: free to act while the
    /// model still has wire capacity, parked otherwise. One-port always
    /// parks — the historical `Busy`.
    fn port_state(&self) -> MasterState {
        if self.can_issue() {
            MasterState::Idle
        } else {
            MasterState::Busy
        }
    }

    /// Admits a transfer of `base` nominal wire seconds to the active
    /// set, re-shares the wire, and schedules its completion.
    ///
    /// With the one-port model this reduces exactly to the historical
    /// path — a single lane at share 1.0, no rescheduling ever.
    fn begin_transfer(&mut self, worker: WorkerId, base: f64, completion: EvKind) {
        debug_assert!(self.can_issue(), "transfer admitted past capacity");
        let start = self.now;
        // Lowest free contention lane (one-port: always lane 0).
        let mut lane = 0;
        while self.active.iter().any(|t| t.lane == lane) {
            lane += 1;
        }
        self.active.push(ActiveTransfer {
            worker,
            rem: base,
            share: 0.0,
            since: start,
            started: start,
            lane,
            event: None,
            completion,
        });
        self.port_acct.on_acquire(start, self.active.len());
        self.obs.emit(|| {
            let (dir, chunk, blocks) = self.transfer_descr(&completion);
            ObsEvent::PortAcquire {
                time: start,
                lane,
                worker,
                dir,
                chunk,
                blocks,
            }
        });
        self.reshare();
    }

    /// Wire-level description (direction, chunk, blocks) of an in-flight
    /// transfer, read off its completion event.
    fn transfer_descr(&self, completion: &EvKind) -> (Dir, ChunkId, u64) {
        match *completion {
            EvKind::SendDone { fragment, .. } => (Dir::ToWorker, fragment.chunk, fragment.blocks),
            EvKind::RetrieveDone { chunk, .. } => (
                Dir::ToMaster,
                chunk,
                self.chunks.get(&chunk).map_or(0, |c| c.descr.c_blocks),
            ),
            _ => unreachable!("non-transfer completion on the wire"),
        }
    }

    /// Removes the completed transfer matching `completion`, charges the
    /// port time, and re-shares the rest.
    fn finish_transfer(&mut self, completion: EvKind) {
        let idx = self
            .active
            .iter()
            .position(|t| t.completion == completion)
            .expect("completion event for an unknown transfer");
        let t = self.active.remove(idx);
        self.port_busy += self.now - t.started;
        self.port_acct
            .on_release(self.now, t.lane, self.now - t.started, self.active.len());
        let now = self.now;
        self.obs.emit(|| {
            let (dir, chunk, blocks) = self.transfer_descr(&t.completion);
            ObsEvent::PortRelease {
                time: now,
                lane: t.lane,
                worker: t.worker,
                dir,
                chunk,
                blocks,
            }
        });
        self.reshare();
    }

    /// Recomputes the active transfers' bandwidth shares and reschedules
    /// every completion whose share changed. Called only when the active
    /// set changes, so between calls shares are constant and each
    /// pending completion time stays exact.
    fn reshare(&mut self) {
        if self.active.is_empty() {
            return;
        }
        self.lane_scratch.clear();
        self.lane_scratch
            .extend(self.active.iter().map(|t| TransferLane {
                worker: t.worker,
                link_rate: 1.0 / self.workers[t.worker].c,
            }));
        self.netmodel
            .shares_into(&self.lane_scratch, &mut self.share_scratch);
        debug_assert_eq!(self.share_scratch.shares().len(), self.active.len());
        // Take the scratch out so the loop below may mutate `self`
        // (cancel/reschedule); put it back — buffers intact — after.
        let scratch = std::mem::take(&mut self.share_scratch);
        let now = self.now;
        for (i, &share) in scratch.shares().iter().enumerate() {
            let t = self.active[i];
            if t.event.is_some() && share == t.share {
                continue; // projected end still exact
            }
            // Progress served under the old share since the last update
            // (a fresh lane has no progress yet).
            let rem = if t.event.is_some() {
                let served = t.share
                    * transfer_nominal_between_opt(self.profile.as_ref(), t.worker, t.since, now);
                (t.rem - served).max(0.0)
            } else {
                t.rem
            };
            let end = transfer_end_opt(self.profile.as_ref(), t.worker, now, rem, share);
            if let Some(ev) = t.event {
                self.cancel_work(ev);
            }
            let ev = self.push(end, t.completion);
            let t = &mut self.active[i];
            t.rem = rem;
            t.since = now;
            t.share = share;
            t.event = Some(ev);
        }
        self.share_scratch = scratch;
    }

    pub(crate) fn chunk_is_lost(&self, id: ChunkId) -> Result<bool, SimError> {
        self.chunk(id).map(|c| c.lost)
    }

    pub(crate) fn unretrieved(&self) -> usize {
        self.chunks
            .values()
            .filter(|c| !c.retrieved && !c.lost)
            .count()
    }

    /// Delivers the next event, advancing the model clock; `None` means
    /// the queue is drained (deadlock detection is the caller's job).
    pub(crate) fn next_event(&mut self) -> Result<Option<Event<EvKind>>, SimError> {
        let ev = self.queue.pop().map_err(SimError::from)?;
        if let Some(ev) = &ev {
            if ev.payload.is_work() {
                self.work_events -= 1;
            }
            self.now = ev.time;
        }
        Ok(ev)
    }

    fn push(&mut self, time: f64, kind: EvKind) -> EventId {
        if kind.is_work() {
            self.work_events += 1;
        }
        self.queue.schedule(time, kind.component(), kind)
    }

    /// Cancels a pending work event through the kernel.
    fn cancel_work(&mut self, id: EventId) {
        if let Some(kind) = self.queue.cancel(id) {
            debug_assert!(kind.is_work());
            self.work_events -= 1;
        }
    }

    /// Validates and enacts a policy action; returns the new master state.
    pub(crate) fn apply_action(
        &mut self,
        action: Action,
        _policy: &mut dyn MasterPolicy,
    ) -> Result<MasterState, SimError> {
        match action {
            Action::Wait => Ok(MasterState::Waiting),
            Action::Finished => {
                let left = self.unretrieved();
                if left > 0 {
                    Err(SimError::PrematureFinish {
                        unretrieved_chunks: left,
                    })
                } else {
                    Ok(MasterState::Done)
                }
            }
            Action::Send {
                worker,
                fragment,
                new_chunk,
            } => {
                self.issue_send(worker, fragment, new_chunk)?;
                Ok(self.port_state())
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
                self.push(now, EvKind::JobDeclaredDone { job });
                Ok(MasterState::Idle)
            }
            Action::Retrieve { worker, chunk } => {
                if worker >= self.workers.len() {
                    return Err(SimError::UnknownWorker(worker));
                }
                let ch = self.chunk(chunk)?;
                if ch.worker != worker {
                    return Err(SimError::protocol(format!(
                        "retrieve of chunk {chunk} from worker {worker}, \
                         but it is assigned to worker {}",
                        ch.worker
                    )));
                }
                if ch.retrieved || ch.retrieve_pending {
                    return Err(SimError::protocol(format!("chunk {chunk} retrieved twice")));
                }
                if ch.lost {
                    return Err(SimError::protocol(format!(
                        "retrieve of chunk {chunk}, lost in a worker crash"
                    )));
                }
                if ch.computed {
                    self.start_retrieval(worker, chunk);
                    Ok(self.port_state())
                } else {
                    self.chunks
                        .get_mut(&chunk)
                        .expect("checked above")
                        .retrieve_pending = true;
                    Ok(MasterState::BlockedRetrieve(chunk))
                }
            }
        }
    }

    fn issue_send(
        &mut self,
        worker: WorkerId,
        fragment: Fragment,
        new_chunk: Option<ChunkDescr>,
    ) -> Result<(), SimError> {
        if worker >= self.workers.len() {
            return Err(SimError::UnknownWorker(worker));
        }
        if fragment.blocks == 0 {
            return Err(SimError::protocol("empty fragment"));
        }

        match new_chunk {
            Some(descr) => {
                if self.chunks.contains_key(&descr.id) {
                    return Err(SimError::protocol(format!(
                        "duplicate chunk id {}",
                        descr.id
                    )));
                }
                if fragment.kind != MatKind::C
                    || fragment.chunk != descr.id
                    || fragment.blocks != descr.c_blocks
                {
                    return Err(SimError::protocol(
                        "a chunk must be opened by its full C-load fragment",
                    ));
                }
                if descr.steps == 0 || descr.updates_per_step == 0 || descr.c_blocks == 0 {
                    return Err(SimError::protocol("degenerate chunk descriptor"));
                }
                self.chunks.insert(descr.id, ChunkRt::new(descr, worker));
                self.workers[worker].stats.chunks_assigned += 1;
            }
            None => {
                let ch = self.chunk(fragment.chunk)?;
                if ch.lost {
                    return Err(SimError::protocol(format!(
                        "fragment for chunk {}, lost in a worker crash",
                        fragment.chunk
                    )));
                }
                if ch.worker != worker {
                    return Err(SimError::protocol(format!(
                        "fragment for chunk {} sent to worker {worker}, \
                         but the chunk lives on worker {}",
                        fragment.chunk, ch.worker
                    )));
                }
                match fragment.kind {
                    MatKind::C => {
                        return Err(SimError::protocol(format!(
                            "second C load for chunk {}",
                            fragment.chunk
                        )))
                    }
                    MatKind::A | MatKind::B => {
                        if fragment.step >= ch.descr.steps {
                            return Err(SimError::protocol(format!(
                                "step {} out of range for chunk {}",
                                fragment.step, fragment.chunk
                            )));
                        }
                        let (got, per) = if fragment.kind == MatKind::A {
                            (
                                ch.recv_a[fragment.step as usize],
                                ch.descr.a_for(fragment.step),
                            )
                        } else {
                            (
                                ch.recv_b[fragment.step as usize],
                                ch.descr.b_for(fragment.step),
                            )
                        };
                        if got + fragment.blocks > per {
                            return Err(SimError::over_delivery(fragment.chunk, fragment.step));
                        }
                    }
                }
            }
        }

        // Memory admission control (in-flight blocks already reserved).
        let w = &mut self.workers[worker];
        let attempted = w.resident + w.reserved + fragment.blocks;
        if attempted > w.capacity {
            return Err(SimError::MemoryViolation {
                worker,
                capacity: w.capacity,
                attempted,
                chunk: fragment.chunk,
            });
        }
        w.reserved += fragment.blocks;

        let base = fragment.blocks as f64 * w.c;
        let start = self.now;
        self.obs.emit(|| ObsEvent::Dispatch {
            time: start,
            worker,
            chunk: fragment.chunk,
            step: fragment.step,
            mat: fragment.kind.into(),
            blocks: fragment.blocks,
        });
        self.begin_transfer(worker, base, EvKind::SendDone { worker, fragment });
        Ok(())
    }

    pub(crate) fn start_retrieval(&mut self, worker: WorkerId, chunk: ChunkId) {
        let blocks = self.chunks[&chunk].descr.c_blocks;
        let base = blocks as f64 * self.workers[worker].c;
        self.begin_transfer(worker, base, EvKind::RetrieveDone { worker, chunk });
    }

    /// Applies an event; returns the hook notifications to dispatch.
    pub(crate) fn apply_event(&mut self, kind: EvKind) -> Result<Vec<SimEvent>, SimError> {
        let mut hooks = Vec::with_capacity(2);
        match kind {
            EvKind::SendDone { worker, fragment } => {
                self.finish_transfer(kind);
                let w = &mut self.workers[worker];
                w.reserved -= fragment.blocks;
                // Blocks landing on a downed worker — or belonging to a
                // chunk a crash destroyed — are dropped on the floor:
                // the port time was spent, the data is gone.
                let dropped = !w.up || self.chunks.get(&fragment.chunk).is_some_and(|ch| ch.lost);
                if dropped {
                    let ch = self
                        .chunks
                        .get_mut(&fragment.chunk)
                        .expect("validated at issue");
                    let newly_lost = !ch.lost;
                    if newly_lost {
                        // A C load addressed to an already-down worker
                        // opens the chunk dead on arrival.
                        ch.lost = true;
                        hooks.push(SimEvent::ChunkLost {
                            worker,
                            chunk: fragment.chunk,
                        });
                    }
                    if newly_lost {
                        let now = self.now;
                        self.obs.emit(|| ObsEvent::ChunkLost {
                            time: now,
                            worker,
                            chunk: fragment.chunk,
                        });
                    }
                    hooks.push(SimEvent::SendDone { worker, fragment });
                    return Ok(hooks);
                }
                w.resident += fragment.blocks;
                w.stats.mem_high_water = w.stats.mem_high_water.max(w.resident);
                w.stats.blocks_rx += fragment.blocks;

                let ch = self
                    .chunks
                    .get_mut(&fragment.chunk)
                    .expect("validated at issue");
                let newly_ready = match fragment.kind {
                    MatKind::C => {
                        ch.c_loaded = true;
                        // C arriving late can unlock steps whose A/B are
                        // already resident (not the usual order, but legal).
                        (0..ch.descr.steps).filter(|&s| ch.step_ready(s)).collect()
                    }
                    MatKind::A => {
                        ch.recv_a[fragment.step as usize] += fragment.blocks;
                        if ch.step_ready(fragment.step) {
                            vec![fragment.step]
                        } else {
                            vec![]
                        }
                    }
                    MatKind::B => {
                        ch.recv_b[fragment.step as usize] += fragment.blocks;
                        if ch.step_ready(fragment.step) {
                            vec![fragment.step]
                        } else {
                            vec![]
                        }
                    }
                };
                for step in newly_ready {
                    self.fire_step(worker, fragment.chunk, step);
                }
                hooks.push(SimEvent::SendDone { worker, fragment });
            }
            EvKind::StepDone {
                worker,
                chunk,
                step,
            } => {
                let now = self.now;
                self.obs.emit(|| ObsEvent::ComputeEnd {
                    time: now,
                    worker,
                    chunk,
                    step,
                });
                let ch = self.chunks.get_mut(&chunk).expect("fired step");
                // Crashes cancel the pending steps of their chunks, so a
                // delivered StepDone always belongs to a live chunk.
                debug_assert!(!ch.lost, "StepDone for a lost chunk was not cancelled");
                if ch.lost {
                    return Ok(hooks);
                }
                ch.pending_steps.retain(|&(s, _)| s != step);
                ch.steps_done += 1;
                let freed = ch.descr.a_for(step) + ch.descr.b_for(step);
                let updates = ch.descr.updates_for(step);
                let all_done = ch.steps_done == ch.descr.steps;
                if all_done {
                    ch.computed = true;
                }
                let w = &mut self.workers[worker];
                w.resident -= freed;
                w.stats.updates += updates;
                hooks.push(SimEvent::StepDone {
                    worker,
                    chunk,
                    step,
                });
                if all_done {
                    hooks.push(SimEvent::ChunkComputed { worker, chunk });
                }
            }
            EvKind::RetrieveDone { worker, chunk } => {
                self.finish_transfer(kind);
                let ch = self.chunks.get_mut(&chunk).expect("retrieval started");
                if ch.lost {
                    // The source crashed mid-retrieval: the partial
                    // transfer is discarded (ChunkLost already reported).
                    return Ok(hooks);
                }
                ch.retrieved = true;
                let blocks = ch.descr.c_blocks;
                let w = &mut self.workers[worker];
                w.resident -= blocks;
                w.stats.blocks_tx += blocks;
                self.retrieved_count += 1;
                self.last_retrieve_done = self.now;
                hooks.push(SimEvent::RetrieveDone { worker, chunk });
            }
            EvKind::JobArrival { job } => {
                let prev = self.jobs.insert(
                    job,
                    JobRecord {
                        arrival: self.now,
                        completion: None,
                    },
                );
                debug_assert!(prev.is_none(), "duplicate arrival of job {job}");
                let now = self.now;
                self.obs.emit(|| ObsEvent::JobArrived { time: now, job });
                hooks.push(SimEvent::JobArrived { job });
            }
            EvKind::JobDeclaredDone { job } => {
                let now = self.now;
                self.obs.emit(|| ObsEvent::JobCompleted { time: now, job });
                hooks.push(SimEvent::JobCompleted { job });
            }
            EvKind::Lifecycle { worker, up } => {
                let now = self.now;
                self.obs.emit(|| {
                    if up {
                        ObsEvent::WorkerUp { time: now, worker }
                    } else {
                        ObsEvent::WorkerDown { time: now, worker }
                    }
                });
                let w = &mut self.workers[worker];
                if up {
                    w.up = true;
                    w.compute_free_at = self.now;
                    hooks.push(SimEvent::WorkerUp { worker });
                } else {
                    // Crash: memory wiped, every unretrieved chunk on the
                    // worker destroyed and its in-flight compute steps
                    // cancelled in the kernel. In-flight sends keep their
                    // reservation until their SendDone drops them.
                    w.up = false;
                    w.resident = 0;
                    w.compute_free_at = self.now;
                    hooks.push(SimEvent::WorkerDown { worker });
                    let mut cancels = Vec::new();
                    let mut lost = Vec::new();
                    for (&id, ch) in self.chunks.iter_mut() {
                        if ch.worker == worker && !ch.retrieved && !ch.lost {
                            ch.lost = true;
                            cancels.extend(ch.pending_steps.drain(..).map(|(_, ev)| ev));
                            lost.push(id);
                            hooks.push(SimEvent::ChunkLost { worker, chunk: id });
                        }
                    }
                    for chunk in lost {
                        self.obs.emit(|| ObsEvent::ChunkLost {
                            time: now,
                            worker,
                            chunk,
                        });
                    }
                    for ev in cancels {
                        self.cancel_work(ev);
                    }
                }
            }
        }
        Ok(hooks)
    }

    /// Schedules the execution of a ready step (FIFO per worker).
    fn fire_step(&mut self, worker: WorkerId, chunk: ChunkId, step: StepId) {
        let ch = self.chunks.get_mut(&chunk).expect("ready step");
        ch.fired[step as usize] = true;
        let updates = ch.descr.updates_for(step);
        let base = updates as f64 * self.workers[worker].w;
        let start = self.workers[worker].compute_free_at.max(self.now);
        let end = compute_end_opt(self.profile.as_ref(), worker, start, base);
        let w = &mut self.workers[worker];
        w.compute_free_at = end;
        w.stats.busy_time += end - start;
        self.obs.emit(|| ObsEvent::ComputeStart {
            time: start,
            worker,
            chunk,
            step,
            updates,
        });
        let id = self.push(
            end,
            EvKind::StepDone {
                worker,
                chunk,
                step,
            },
        );
        self.chunks
            .get_mut(&chunk)
            .expect("ready step")
            .pending_steps
            .push((step, id));
    }

    pub(crate) fn collect_stats(&mut self, policy: &str) -> RunStats {
        RunStats {
            makespan: self.last_retrieve_done,
            port_busy: self.port_busy,
            blocks_to_workers: self.workers.iter().map(|w| w.stats.blocks_rx).sum(),
            blocks_to_master: self.workers.iter().map(|w| w.stats.blocks_tx).sum(),
            total_updates: self.workers.iter().map(|w| w.stats.updates).sum(),
            chunks: self.retrieved_count,
            port: self.port_acct.stats(),
            per_worker: self.workers.iter().map(|w| w.stats).collect(),
            jobs: self
                .jobs
                .iter()
                .map(|(&job, rec)| JobStats {
                    job,
                    arrival: rec.arrival,
                    completion: rec.completion,
                })
                .collect(),
            policy: policy.to_string(),
        }
    }
}

impl From<KernelError> for SimError {
    fn from(e: KernelError) -> Self {
        match e {
            KernelError::EventCapExceeded { cap } => SimError::EventCapExceeded { cap },
        }
    }
}
