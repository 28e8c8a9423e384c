//! The multi-job master: online time-sharing of the one-port star.
//!
//! [`MultiJobMaster`] is a [`MasterPolicy`] that serves a *stream* of
//! independent GEMM jobs:
//!
//! * **Admission.** Arrivals (delivered as
//!   [`SimEvent::JobArrived`]) queue FIFO in a backlog; at most
//!   [`StreamConfig::slots`] jobs are admitted at once. Each worker's
//!   memory is statically partitioned into `slots` slices, so the per-job
//!   chunk sides (`μ² + 4μ ≤ m_i / slots`, the paper's double-buffered
//!   layout) make any interleaving
//!   of admitted jobs memory-safe by construction.
//! * **Planning.** An admitted job is carved into column strips
//!   round-robin over the workers that fit it (globally unique chunk
//!   ids) and driven by its own demand-driven
//!   [`StreamingMaster`] lane set.
//! * **Dispatch.** Whenever the port frees, jobs are served by *deficit*:
//!   the active job with the smallest spent-port-time over its share goes
//!   first. Shares come from the weighted max-min steady-state LP
//!   ([`crate::allocator`]), refreshed whenever the active set changes;
//!   if the LP degenerates the tenant weights serve directly.
//! * **Completion.** When a job's last chunk is retrieved the master
//!   issues [`Action::CompleteJob`], the engine timestamps it into
//!   [`stargemm_sim::RunStats::jobs`], and the next backlog job is
//!   admitted.
//! * **Churn.** On dynamic platforms, each GEMM job's lanes are healed
//!   by its own [`Healer`] (`stargemm_core::heal`, which also heals
//!   `stargemm-dyn`'s adaptive master): lanes of downed workers are
//!   drained and lost regions re-planned onto surviving workers, split
//!   to fit the job's partitioned sides; regions nobody can host are
//!   parked until a rejoin.
//! * **DAG jobs.** A request registered with a [`DagJob`]
//!   ([`MultiJobMaster::with_dags`]) is admitted as a
//!   [`DagMaster`] member instead of a plain chunk-queue member: its
//!   ready frontier replaces linear chunk lanes, its chunk ids come from
//!   a private namespace above [`DAG_ID_BASE`], and crashes are healed
//!   by the member itself (lost tasks re-enter the frontier; successors
//!   stay blocked). Deficit accounting, LP shares, memory partitioning
//!   and completion all work identically for both member kinds.

use std::collections::{HashMap, VecDeque};

use stargemm_core::assign::round_robin_queues;
use stargemm_core::geometry::ChunkGeom;
use stargemm_core::heal::Healer;
use stargemm_core::layout::mu_with_window;
use stargemm_core::stream::{GeometryAccess, QueueSurgery, Serving, StreamingMaster};
use stargemm_core::Job;
use stargemm_dag::{DagJob, DagMaster, TaskId};
use stargemm_platform::Platform;
use stargemm_sim::{Action, ChunkId, JobId, MasterPolicy, SimCtx, SimEvent, StepId};
use stargemm_sim::{ObsEvent, ObsSink};

use crate::allocator::{weighted_maxmin, JobDemand};
use crate::workload::JobRequest;

/// First chunk id of the DAG namespace: DAG members draw their ids from
/// `DAG_ID_BASE + job_id · DAG_ID_SPAN`, far above anything the GEMM
/// carving counter reaches, so chunk ids are unique across jobs.
pub const DAG_ID_BASE: ChunkId = 0x4000_0000;

/// Ids reserved per DAG job (bounds re-dispatches after crashes, not
/// task count — a job re-planning a task gets a fresh id).
pub const DAG_ID_SPAN: ChunkId = 0x0010_0000;

/// Per-lane lookahead window in steps: the paper's double buffer.
const WINDOW: StepId = 2;

/// Tuning of the multi-job master.
#[derive(Clone, Copy, Debug)]
pub struct StreamConfig {
    /// Maximum concurrently admitted jobs (the multiprogramming level).
    /// Every worker's memory is split into this many slices.
    pub slots: usize,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig { slots: 2 }
    }
}

/// Why a stream cannot be scheduled on a platform.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StreamError {
    /// A job of the stream fits no worker once memory is partitioned
    /// into the configured number of slots.
    Infeasible {
        /// The offending job id.
        job: JobId,
    },
    /// The [`StreamConfig`] itself is unusable (zero slots).
    Config(String),
    /// Two requests carry the same job id.
    DuplicateJob {
        /// The repeated id.
        job: JobId,
    },
    /// A DAG was registered for a job id absent from the request list.
    UnknownDagJob {
        /// The dangling id.
        job: JobId,
    },
    /// Two DAGs were registered for the same job id.
    DuplicateDag {
        /// The repeated id.
        job: JobId,
    },
    /// A DAG job's id is too large for the reserved chunk-id namespace.
    DagIdOverflow {
        /// The offending id.
        job: JobId,
    },
    /// A DAG job's request dimensions disagree with the DAG's virtual
    /// GEMM (`dag.virtual_job(q)`).
    DagMismatch {
        /// The offending id.
        job: JobId,
    },
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::Infeasible { job } => write!(
                f,
                "job {job} fits no worker under the partitioned memory layout"
            ),
            StreamError::Config(msg) => write!(f, "bad stream config: {msg}"),
            StreamError::DuplicateJob { job } => write!(f, "duplicate job id {job}"),
            StreamError::UnknownDagJob { job } => {
                write!(f, "DAG registered for unknown job {job}")
            }
            StreamError::DuplicateDag { job } => write!(f, "duplicate DAG for job {job}"),
            StreamError::DagIdOverflow { job } => {
                write!(f, "job id {job} outside the DAG chunk-id namespace")
            }
            StreamError::DagMismatch { job } => {
                write!(f, "job {job} does not match its DAG's virtual GEMM")
            }
        }
    }
}

impl std::error::Error for StreamError {}

/// The policy executing one admitted job's chunks.
enum Member {
    /// A plain GEMM: static per-worker chunk queues.
    Gemm(Box<StreamingMaster>),
    /// A DAG job: ready-frontier dispatch with its own id namespace.
    Dag(Box<DagMaster>),
}

impl Member {
    fn next_action(&mut self, ctx: &SimCtx) -> Action {
        match self {
            Member::Gemm(m) => m.next_action(ctx),
            Member::Dag(m) => m.next_action(ctx),
        }
    }

    fn on_event(&mut self, ev: &SimEvent, ctx: &SimCtx) {
        match self {
            Member::Gemm(m) => m.on_event(ev, ctx),
            Member::Dag(m) => m.on_event(ev, ctx),
        }
    }

    fn geom(&self, id: ChunkId) -> Option<ChunkGeom> {
        match self {
            Member::Gemm(m) => m.geom(id).copied(),
            Member::Dag(m) => m.chunk_geom(id),
        }
    }
}

/// One admitted, in-flight job.
struct ActiveJob {
    id: JobId,
    weight: f64,
    /// The memory slot this job occupies (its per-worker caps come from
    /// [`slot_cap`] at this index).
    slot: usize,
    /// Per-worker chunk sides under the partitioned layout (0 = worker
    /// cannot serve this job).
    sides: Vec<usize>,
    member: Member,
    /// Port seconds this job has been charged so far (deficit counter).
    port_used: f64,
    /// Port share from the allocator (fallback: the tenant weight).
    share: f64,
    /// Crash healing of a GEMM member's lanes (DAG members self-heal).
    heal: Healer,
}

/// Counters exposed for tests and experiment reports.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Jobs admitted so far.
    pub admitted: u64,
    /// Jobs completed so far.
    pub completed: u64,
    /// Peak backlog length observed.
    pub peak_backlog: usize,
    /// Chunks re-planned after crashes.
    pub reassigned_chunks: u64,
    /// Allocator refreshes (active-set changes).
    pub reallocations: u64,
}

/// See the module docs.
pub struct MultiJobMaster {
    platform: Platform,
    cfg: StreamConfig,
    /// The full request script, by id; a job only *opens* when its
    /// arrival event fires.
    requests: HashMap<JobId, JobRequest>,
    expected: usize,
    backlog: VecDeque<JobId>,
    active: Vec<ActiveJob>,
    /// Indices into `active` in deficit order, rebuilt in place at every
    /// decision.
    order: Vec<usize>,
    next_chunk_id: ChunkId,
    up: Vec<bool>,
    shares_dirty: bool,
    /// Retrieved chunk geometries per job (coverage audits).
    retrieved: HashMap<JobId, Vec<ChunkGeom>>,
    /// Task graphs of the requests that are DAG jobs.
    dag_specs: HashMap<JobId, DagJob>,
    /// Task completion orders of finished DAG jobs.
    dag_completions: HashMap<JobId, Vec<TaskId>>,
    stats: StreamStats,
    /// Structured-event sink (off by default; observation only).
    obs: ObsSink,
    /// Head-of-line job currently blocked on memory (no fitting free
    /// slot on a live worker), if any. Pure observation state feeding
    /// `MemoryStallBegin`/`MemoryStallEnd` — never read by scheduling.
    mem_stalled: Option<JobId>,
    /// Engine clock mirrored at every policy entry point, so admission
    /// and share refreshes (which have no `ctx` in hand) can timestamp
    /// their events.
    now: f64,
}

/// Memory cap of slice `slot` on a worker with `m` block buffers: an
/// even `m / slots` split with the `m mod slots` remainder blocks
/// assigned deterministically to the **lowest** slot indices first, so
/// `Σ_slot slot_cap(m, slots, slot) = m` exactly. (A plain integer
/// division stranded the remainder on every worker and pushed
/// small-memory workers to `μ = 0` infeasibility.)
pub(crate) fn slot_cap(m: usize, slots: usize, slot: usize) -> usize {
    debug_assert!(slot < slots);
    m / slots + usize::from(slot < m % slots)
}

/// Per-worker chunk sides for `job` in memory slice `slot` when memory
/// is split `slots` ways.
pub(crate) fn partitioned_sides(
    platform: &Platform,
    job: &Job,
    cfg: &StreamConfig,
    slot: usize,
) -> Vec<usize> {
    platform
        .workers()
        .iter()
        .map(|s| mu_with_window(slot_cap(s.m, cfg.slots, slot), WINDOW as usize).min(job.r))
        .collect()
}

impl MultiJobMaster {
    /// A master for the given request stream.
    ///
    /// Validates up front that every job fits at least one worker under
    /// the partitioned memory layout, and returns a typed
    /// [`StreamError`] for every malformed input (bad config, duplicate
    /// ids, infeasible jobs) instead of panicking.
    pub fn new(
        platform: &Platform,
        requests: &[JobRequest],
        cfg: StreamConfig,
    ) -> Result<Self, StreamError> {
        Self::with_dags(platform, requests, Vec::new(), cfg)
    }

    /// A master for a stream mixing plain GEMM jobs and DAG jobs: each
    /// `(id, dag)` pair turns the request with that id into a DAG member.
    /// The request's `job` must equal `dag.virtual_job(q)` for its block
    /// side `q` — the DAG's schedule *is* a schedule of that GEMM.
    ///
    /// All malformed inputs — zero slots, duplicate job
    /// ids, a DAG for an unknown request, a DAG job id outside the id
    /// namespace, a DAG/job dimension mismatch, or an infeasible job —
    /// are reported as typed [`StreamError`]s.
    pub fn with_dags(
        platform: &Platform,
        requests: &[JobRequest],
        dags: Vec<(JobId, DagJob)>,
        cfg: StreamConfig,
    ) -> Result<Self, StreamError> {
        if cfg.slots < 1 {
            return Err(StreamError::Config(
                "at least one job slot is required".into(),
            ));
        }
        let mut dag_specs = HashMap::new();
        for (id, dag) in dags {
            if !requests.iter().any(|r| r.id == id) {
                return Err(StreamError::UnknownDagJob { job: id });
            }
            if (id as ChunkId) >= (ChunkId::MAX - DAG_ID_BASE) / DAG_ID_SPAN {
                return Err(StreamError::DagIdOverflow { job: id });
            }
            if dag_specs.insert(id, dag).is_some() {
                return Err(StreamError::DuplicateDag { job: id });
            }
        }
        let mut by_id = HashMap::new();
        for r in requests {
            // Feasibility is checked against slot 0 — the largest slice
            // ([`slot_cap`] is non-increasing in the slot index), so a
            // job infeasible there is infeasible in every slot.
            let feasible = match dag_specs.get(&r.id) {
                Some(dag) => {
                    if r.job != dag.virtual_job(r.job.q) {
                        return Err(StreamError::DagMismatch { job: r.id });
                    }
                    // Every task must fit some worker's memory slice.
                    let caps: Vec<usize> = platform
                        .workers()
                        .iter()
                        .map(|s| slot_cap(s.m, cfg.slots, 0))
                        .collect();
                    (0..dag.len()).all(|t| caps.iter().any(|&m| 2 * dag.width(t) < m))
                }
                None => partitioned_sides(platform, &r.job, &cfg, 0)
                    .iter()
                    .any(|&s| s > 0),
            };
            if !feasible {
                return Err(StreamError::Infeasible { job: r.id });
            }
            if by_id.insert(r.id, *r).is_some() {
                return Err(StreamError::DuplicateJob { job: r.id });
            }
        }
        Ok(MultiJobMaster {
            platform: platform.clone(),
            cfg,
            expected: by_id.len(),
            requests: by_id,
            backlog: VecDeque::new(),
            active: Vec::new(),
            order: Vec::new(),
            next_chunk_id: 0,
            up: vec![true; platform.len()],
            shares_dirty: false,
            retrieved: HashMap::new(),
            dag_specs,
            dag_completions: HashMap::new(),
            stats: StreamStats::default(),
            obs: ObsSink::off(),
            mem_stalled: None,
            now: 0.0,
        })
    }

    /// Attaches a structured-event sink: the master then emits job
    /// admissions, LP re-solves, deficit credits, and (through its DAG
    /// members) frontier promotions. Observation only — the schedule is
    /// identical with the sink on or off.
    #[must_use]
    pub fn with_obs(mut self, obs: ObsSink) -> Self {
        self.obs = obs;
        self
    }

    /// The arrival plan to attach to the engine
    /// ([`stargemm_sim::Simulator::with_arrivals`]).
    pub fn arrival_plan(requests: &[JobRequest]) -> Vec<(f64, JobId)> {
        requests.iter().map(|r| (r.arrival, r.id)).collect()
    }

    /// Stream-level counters.
    pub fn stats(&self) -> StreamStats {
        let healing: u64 = self.active.iter().map(|a| a.heal.replanned()).sum();
        StreamStats {
            reassigned_chunks: self.stats.reassigned_chunks + healing,
            ..self.stats
        }
    }

    /// Retrieved chunk geometries of `job` (tile the job's C exactly on
    /// a completed run, whatever crashes re-planned on the way).
    pub fn retrieved_geoms(&self, job: JobId) -> &[ChunkGeom] {
        self.retrieved.get(&job).map_or(&[], Vec::as_slice)
    }

    /// The task graph registered for `job`, if it is a DAG job.
    pub fn dag_spec(&self, job: JobId) -> Option<&DagJob> {
        self.dag_specs.get(&job)
    }

    /// Task completion order of a *finished* DAG job — a topological
    /// order of its graph by construction (tests assert it).
    pub fn dag_completion_order(&self, job: JobId) -> &[TaskId] {
        self.dag_completions.get(&job).map_or(&[], Vec::as_slice)
    }

    // ------------------------------------------------------------------
    // Admission and planning.
    // ------------------------------------------------------------------

    /// Per-worker memory caps of slice `slot`.
    fn slot_caps(&self, slot: usize) -> Vec<usize> {
        self.platform
            .workers()
            .iter()
            .map(|s| slot_cap(s.m, self.cfg.slots, slot))
            .collect()
    }

    /// Per-worker "sides" of a DAG job for the allocator: the widest
    /// task half-width each worker's slice `slot` accommodates, capped
    /// at the DAG's widest task (0 = the worker serves no task at all).
    fn dag_sides(&self, dag: &DagJob, slot: usize) -> Vec<usize> {
        self.platform
            .workers()
            .iter()
            .map(|s| {
                let cap = slot_cap(s.m, self.cfg.slots, slot);
                if cap < 3 {
                    0
                } else {
                    ((cap - 1) / 2).min(dag.max_width())
                }
            })
            .collect()
    }

    /// Admits backlog jobs FIFO while slots are free and the head job
    /// fits some free slot on a live worker. Slots are tried in
    /// ascending index order (slot 0 holds the remainder blocks, so it
    /// has the largest caps); the head job waits — it is never
    /// overtaken — if no free slot currently fits it.
    fn admit_ready(&mut self) {
        loop {
            let Some(&id) = self.backlog.front() else {
                self.note_mem_stall(None);
                return;
            };
            if self.active.len() >= self.cfg.slots {
                // Every slot is occupied: the head job is blocked on
                // the slot partition of worker memory.
                self.note_mem_stall(Some(id));
                return;
            }
            let req = self.requests[&id];
            // Lowest free slot where the job is feasible on a live
            // worker. Uneven memory makes feasibility slot-dependent:
            // a job may fit slot 0's caps but not slot 1's.
            let mut chosen: Option<(usize, Vec<usize>)> = None;
            for slot in 0..self.cfg.slots {
                if self.active.iter().any(|a| a.slot == slot) {
                    continue;
                }
                let sides = match self.dag_specs.get(&id) {
                    Some(dag) => {
                        let caps = self.slot_caps(slot);
                        if !(0..dag.len()).all(|t| caps.iter().any(|&m| 2 * dag.width(t) < m)) {
                            continue;
                        }
                        self.dag_sides(dag, slot)
                    }
                    None => partitioned_sides(&self.platform, &req.job, &self.cfg, slot),
                };
                if sides.iter().enumerate().any(|(w, &s)| s > 0 && self.up[w]) {
                    chosen = Some((slot, sides));
                    break;
                }
            }
            let Some((slot, sides)) = chosen else {
                // Head-of-line job has no live host (or no fitting free
                // slot) right now; admission resumes when a worker
                // rejoins or a slot frees (FIFO is kept — jobs are not
                // overtaken while they wait).
                self.note_mem_stall(Some(id));
                return;
            };
            self.note_mem_stall(None);
            self.backlog.pop_front();
            let member = match self.dag_specs.get(&id) {
                Some(dag) => {
                    let caps = self.slot_caps(slot);
                    let id_base = DAG_ID_BASE + id * DAG_ID_SPAN;
                    Member::Dag(Box::new(
                        DagMaster::with_capacity(
                            "stream-member-dag",
                            &self.platform,
                            dag.clone(),
                            req.job.q,
                            WINDOW,
                            caps,
                            id_base,
                        )
                        .expect("feasibility was validated at construction")
                        .with_obs(self.obs.clone(), id),
                    ))
                }
                None => {
                    let n = self.platform.len();
                    let live_workers = (0..n).filter(|&w| self.up[w]);
                    let queues = round_robin_queues(
                        &req.job,
                        n,
                        live_workers,
                        &sides,
                        &mut self.next_chunk_id,
                    );
                    debug_assert!(
                        self.next_chunk_id < DAG_ID_BASE,
                        "GEMM chunk ids ran into the DAG namespace"
                    );
                    Member::Gemm(Box::new(StreamingMaster::new_static(
                        "stream-member",
                        req.job,
                        queues,
                        Serving::DemandDriven,
                        WINDOW,
                    )))
                }
            };
            // A newcomer starts at the lowest existing deficit so it
            // cannot monopolize the port to "catch up" on time it was
            // never entitled to.
            let port_used = self
                .active
                .iter()
                .map(|a| a.port_used)
                .fold(f64::INFINITY, f64::min);
            let port_used = if port_used.is_finite() {
                port_used
            } else {
                0.0
            };
            self.active.push(ActiveJob {
                id,
                weight: req.weight,
                slot,
                sides,
                member,
                port_used,
                share: req.weight,
                heal: Healer::default(),
            });
            self.stats.admitted += 1;
            self.shares_dirty = true;
            self.obs.emit(|| ObsEvent::JobAdmitted {
                time: self.now,
                job: id,
            });
        }
    }

    /// Tracks the head-of-line memory stall episode and emits the
    /// begin/end transition events. `head` is the job currently blocked
    /// on memory (`None` = not blocked). Observation only: the tracked
    /// state is never read by any scheduling decision.
    fn note_mem_stall(&mut self, head: Option<JobId>) {
        if self.mem_stalled == head {
            return;
        }
        if let Some(prev) = self.mem_stalled.take() {
            self.obs.emit(|| ObsEvent::MemoryStallEnd {
                time: self.now,
                job: prev,
            });
        }
        if let Some(job) = head {
            self.mem_stalled = Some(job);
            self.obs.emit(|| ObsEvent::MemoryStallBegin {
                time: self.now,
                job,
            });
        }
    }

    /// Recomputes the per-job port shares from the weighted max-min LP
    /// (fallback: raw tenant weights).
    fn refresh_shares(&mut self) {
        self.shares_dirty = false;
        self.stats.reallocations += 1;
        let demands: Vec<JobDemand> = self
            .active
            .iter()
            .map(|a| JobDemand {
                sides: a
                    .sides
                    .iter()
                    .enumerate()
                    .map(|(w, &s)| if self.up[w] { s } else { 0 })
                    .collect(),
                weight: a.weight,
            })
            .collect();
        let alloc = weighted_maxmin(&self.platform, &demands);
        for (j, a) in self.active.iter_mut().enumerate() {
            a.share = match &alloc {
                Some(al) if al.port_shares[j] > 1e-12 => al.port_shares[j],
                _ => a.weight,
            };
        }
        self.obs.emit(|| ObsEvent::LpResolve {
            time: self.now,
            shares: self.active.iter().map(|a| (a.id, a.share)).collect(),
        });
    }

    /// Heals active job `j`'s lanes after the lifecycle event `ev`, or
    /// with `None` sweeps the lanes of workers down now. A DAG member
    /// returns its lost tasks to its ready frontier itself. A GEMM
    /// member's lost regions go to the live worker with the fewest
    /// updates queued for the job, as tiles of that worker's partitioned
    /// side.
    fn heal(&mut self, j: usize, ev: Option<&SimEvent>, ctx: &SimCtx) {
        let (up, next_id, a) = (&self.up, &mut self.next_chunk_id, &mut self.active[j]);
        let m = match (&mut a.member, ev) {
            (Member::Gemm(m), _) => m.as_mut(),
            (Member::Dag(d), Some(ev)) => return d.on_event(ev, ctx),
            // DAG members never dispatch to a downed worker.
            (Member::Dag(_), None) => return,
        };
        let sides = &a.sides;
        let place = |m: &StreamingMaster, _: &ChunkGeom| {
            let queued =
                |w: usize| -> u64 { m.queued_chunks(w).map(|pc| pc.descr.total_updates()).sum() };
            let w = (0..up.len())
                .filter(|&w| up[w] && sides[w] > 0)
                .min_by_key(|&w| queued(w))?;
            Some((w, sides[w]))
        };
        match ev {
            Some(ev) => a.heal.on_event(m, ev, place, next_id),
            None => a.heal.sweep(m, up, place, next_id),
        }
    }

    /// Index of the active job that planned `chunk`, if it is active
    /// (chunk ids are unique across jobs).
    fn active_index_of(&self, chunk: ChunkId) -> Option<usize> {
        self.active
            .iter()
            .position(|a| a.member.geom(chunk).is_some())
    }
}

impl MasterPolicy for MultiJobMaster {
    fn next_action(&mut self, ctx: &SimCtx) -> Action {
        self.now = ctx.now();
        for (w, up) in self.up.iter_mut().enumerate() {
            *up = ctx.is_up(w);
        }
        for j in 0..self.active.len() {
            self.heal(j, None, ctx);
        }
        self.admit_ready();
        if self.shares_dirty {
            self.refresh_shares();
        }

        // Deficit order: least port-time-per-share first; job id breaks
        // ties deterministically.
        self.order.clear();
        self.order.extend(0..self.active.len());
        let active = &self.active;
        self.order.sort_by(|&a, &b| {
            let ka = active[a].port_used / active[a].share;
            let kb = active[b].port_used / active[b].share;
            ka.total_cmp(&kb).then(active[a].id.cmp(&active[b].id))
        });

        let mut finished: Option<usize> = None;
        for k in 0..self.order.len() {
            let i = self.order[k];
            match self.active[i].member.next_action(ctx) {
                Action::Send {
                    worker,
                    fragment,
                    new_chunk,
                } => {
                    debug_assert!(self.up[worker], "member offered a downed lane");
                    let credit = fragment.blocks as f64 * self.platform.worker(worker).c;
                    self.active[i].port_used += credit;
                    self.obs.emit(|| ObsEvent::DeficitCredit {
                        time: self.now,
                        job: self.active[i].id,
                        port_seconds: credit,
                    });
                    return Action::Send {
                        worker,
                        fragment,
                        new_chunk,
                    };
                }
                Action::Retrieve { worker, chunk } => {
                    let blocks = self.active[i]
                        .member
                        .geom(chunk)
                        .map_or(0, |g| (g.h * g.w) as u64);
                    let credit = blocks as f64 * self.platform.worker(worker).c;
                    self.active[i].port_used += credit;
                    self.obs.emit(|| ObsEvent::DeficitCredit {
                        time: self.now,
                        job: self.active[i].id,
                        port_seconds: credit,
                    });
                    return Action::Retrieve { worker, chunk };
                }
                Action::Finished if self.active[i].heal.may_finish() => {
                    finished = Some(i);
                    break;
                }
                // Stranded regions mean the job is *not* done — it waits
                // for a rejoin like any other blocked lane.
                Action::Finished | Action::Wait => {}
                Action::CompleteJob { .. } => {
                    unreachable!("member masters never manage jobs")
                }
            }
        }

        if let Some(i) = finished {
            let done = self.active.remove(i);
            self.stats.reassigned_chunks += done.heal.replanned();
            if let Member::Dag(d) = &done.member {
                self.dag_completions
                    .insert(done.id, d.completion_order().to_vec());
            }
            self.stats.completed += 1;
            self.shares_dirty = true;
            return Action::CompleteJob { job: done.id };
        }

        if self.stats.completed == self.expected as u64 {
            Action::Finished
        } else {
            Action::Wait
        }
    }

    fn on_event(&mut self, ev: &SimEvent, ctx: &SimCtx) {
        self.now = ctx.now();
        match *ev {
            SimEvent::JobArrived { job } => {
                debug_assert!(
                    self.requests.contains_key(&job),
                    "arrival of an unknown job {job}"
                );
                self.backlog.push_back(job);
                self.stats.peak_backlog = self.stats.peak_backlog.max(self.backlog.len());
            }
            SimEvent::JobCompleted { .. } => {} // bookkept at issuance
            SimEvent::SendDone { fragment, .. } => {
                if let Some(i) = self.active_index_of(fragment.chunk) {
                    self.active[i].member.on_event(ev, ctx);
                }
            }
            SimEvent::StepDone { chunk, .. } | SimEvent::ChunkComputed { chunk, .. } => {
                if let Some(i) = self.active_index_of(chunk) {
                    self.active[i].member.on_event(ev, ctx);
                }
            }
            SimEvent::RetrieveDone { chunk, .. } => {
                if let Some(i) = self.active_index_of(chunk) {
                    let id = self.active[i].id;
                    if let Some(g) = self.active[i].member.geom(chunk) {
                        self.retrieved.entry(id).or_default().push(g);
                    }
                    self.active[i].member.on_event(ev, ctx);
                }
            }
            SimEvent::WorkerDown { worker } | SimEvent::WorkerUp { worker } => {
                self.up[worker] = matches!(ev, SimEvent::WorkerUp { .. });
                for j in 0..self.active.len() {
                    self.heal(j, Some(ev), ctx);
                }
                self.shares_dirty = true;
            }
            SimEvent::ChunkLost { chunk, .. } => {
                if let Some(i) = self.active_index_of(chunk) {
                    self.heal(i, Some(ev), ctx);
                }
            }
        }
    }

    fn name(&self) -> &'static str {
        "MultiJobStream"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{ArrivalProcess, TenantSpec, WorkloadSpec};
    use stargemm_core::geometry::validate_coverage;
    use stargemm_platform::WorkerSpec;
    use stargemm_sim::Simulator;

    fn platform() -> Platform {
        Platform::new(
            "stream-test",
            vec![
                WorkerSpec::new(0.2, 0.1, 60),
                WorkerSpec::new(0.3, 0.15, 60),
                WorkerSpec::new(0.5, 0.3, 40),
            ],
        )
    }

    fn workload(jobs: usize, seed: u64, mean: f64) -> Vec<JobRequest> {
        WorkloadSpec {
            tenants: vec![
                TenantSpec::new("t0", 1.0, vec![Job::new(4, 3, 6, 2)]),
                TenantSpec::new("t1", 2.0, vec![Job::new(6, 4, 8, 2)]),
            ],
            arrivals: ArrivalProcess::Open {
                mean_interarrival: mean,
            },
            jobs,
            seed,
        }
        .generate()
    }

    fn run_stream(
        platform: &Platform,
        requests: &[JobRequest],
        cfg: StreamConfig,
    ) -> (stargemm_sim::RunStats, MultiJobMaster) {
        let mut policy = MultiJobMaster::new(platform, requests, cfg).unwrap();
        let stats = Simulator::new(platform.clone())
            .with_arrivals(MultiJobMaster::arrival_plan(requests))
            .run(&mut policy)
            .unwrap();
        (stats, policy)
    }

    #[test]
    fn every_job_completes_and_covers_its_c() {
        let reqs = workload(6, 11, 20.0);
        let (stats, policy) = run_stream(&platform(), &reqs, StreamConfig::default());
        assert_eq!(stats.jobs.len(), 6);
        assert!(stats.jobs.iter().all(|j| j.completion.is_some()));
        let total: u64 = reqs.iter().map(|r| r.job.total_updates()).sum();
        assert_eq!(stats.total_updates, total);
        for r in &reqs {
            validate_coverage(&r.job, policy.retrieved_geoms(r.id)).unwrap();
        }
        assert_eq!(policy.stats().admitted, 6);
        assert_eq!(policy.stats().completed, 6);
    }

    #[test]
    fn a_blackout_strands_the_work_until_a_worker_rejoins() {
        use stargemm_platform::dynamic::{DynProfile, Trace, WorkerDyn};
        // Every worker crashes at t = 2, with the job admitted and under
        // way; only worker 1 returns, at t = 10. Nothing re-plans the
        // stranded regions but the retry on the rejoin.
        let reqs = [JobRequest {
            id: 0,
            tenant: 0,
            weight: 1.0,
            job: Job::new(6, 4, 8, 2),
            arrival: 0.0,
        }];
        let down = |back| WorkerDyn::new(Trace::default(), Trace::default(), vec![(2.0, back)]);
        let profile = DynProfile::new(vec![down(f64::INFINITY), down(10.0), down(f64::INFINITY)]);
        let mut policy = MultiJobMaster::new(&platform(), &reqs, StreamConfig::default()).unwrap();
        let stats = Simulator::new(platform())
            .with_profile(profile)
            .with_arrivals(MultiJobMaster::arrival_plan(&reqs))
            .run(&mut policy)
            .unwrap();
        assert!(stats.jobs[0].completion.is_some());
        validate_coverage(&reqs[0].job, policy.retrieved_geoms(reqs[0].id)).unwrap();
        assert!(policy.stats().reassigned_chunks > 0);
    }

    #[test]
    fn a_worker_down_empties_its_lanes_before_any_loss_arrives() {
        // The WorkerDown alone, ahead of its ChunkLost events, leaves the
        // dead lane of a GEMM member with nothing active and nothing
        // queued.
        let reqs = workload(1, 11, 20.0);
        let mut ledger = stargemm_sim::StarLedger::new(&platform(), None);
        let mut policy = MultiJobMaster::new(&platform(), &reqs, StreamConfig::default()).unwrap();
        policy.on_event(&SimEvent::JobArrived { job: reqs[0].id }, &ledger.ctx(0.0));
        let Action::Send { worker, .. } = policy.next_action(&ledger.ctx(0.0)) else {
            panic!("the admitted job opens a chunk first");
        };
        let lane = |p: &MultiJobMaster| match &p.active[0].member {
            Member::Gemm(m) => (
                m.active_chunk_on(worker).is_some(),
                m.queued_chunks(worker).count(),
            ),
            Member::Dag(_) => unreachable!("a plain GEMM job"),
        };
        assert!(lane(&policy).0);
        ledger.crash(worker);
        policy.on_event(&SimEvent::WorkerDown { worker }, &ledger.ctx(1.0));
        assert_eq!(lane(&policy), (false, 0));
    }

    #[test]
    fn completions_are_timestamped_after_arrivals() {
        let reqs = workload(5, 3, 15.0);
        let (stats, _) = run_stream(&platform(), &reqs, StreamConfig::default());
        for js in &stats.jobs {
            let req = reqs.iter().find(|r| r.id == js.job).unwrap();
            assert!((js.arrival - req.arrival).abs() < 1e-12);
            assert!(js.completion.unwrap() >= js.arrival);
        }
    }

    #[test]
    fn runs_are_deterministic() {
        let reqs = workload(8, 5, 10.0);
        let a = run_stream(&platform(), &reqs, StreamConfig::default()).0;
        let b = run_stream(&platform(), &reqs, StreamConfig::default()).0;
        assert_eq!(a, b);
    }

    #[test]
    fn admission_respects_the_slot_limit_and_memory() {
        // A closed batch of 8 jobs on 2 slots: peak backlog ≥ 6, memory
        // never violated (the engine enforces it strictly — a violation
        // would fail the run).
        let reqs: Vec<JobRequest> = WorkloadSpec {
            tenants: vec![TenantSpec::new("t", 1.0, vec![Job::new(6, 4, 8, 2)])],
            arrivals: ArrivalProcess::ClosedBatch,
            jobs: 8,
            seed: 2,
        }
        .generate();
        let (stats, policy) = run_stream(&platform(), &reqs, StreamConfig::default());
        assert!(policy.stats().peak_backlog >= 6);
        assert_eq!(stats.jobs.len(), 8);
        // Partitioned layout: high-water below each worker's capacity.
        for (w, ws) in stats.per_worker.iter().enumerate() {
            assert!(ws.mem_high_water <= platform().worker(w).m as u64);
        }
    }

    #[test]
    fn higher_weight_tenant_finishes_sooner_under_contention() {
        // Two identical jobs arriving together; tenant weights 1 vs 4.
        // The heavier job must not finish later.
        let job = Job::new(6, 5, 12, 2);
        let reqs = vec![
            JobRequest {
                id: 0,
                tenant: 0,
                weight: 1.0,
                job,
                arrival: 0.0,
            },
            JobRequest {
                id: 1,
                tenant: 1,
                weight: 4.0,
                job,
                arrival: 0.0,
            },
        ];
        let (stats, _) = run_stream(&platform(), &reqs, StreamConfig::default());
        let done = |id: u32| {
            stats
                .jobs
                .iter()
                .find(|j| j.job == id)
                .unwrap()
                .completion
                .unwrap()
        };
        assert!(
            done(1) <= done(0) + 1e-9,
            "weighted job finished later: {} vs {}",
            done(1),
            done(0)
        );
    }

    #[test]
    fn infeasible_job_is_rejected_up_front() {
        let tiny = Platform::new("tiny", vec![WorkerSpec::new(1.0, 1.0, 8)]);
        // m/slots = 4 → μ = 0 with window 2: no worker fits.
        let reqs = vec![JobRequest {
            id: 0,
            tenant: 0,
            weight: 1.0,
            job: Job::new(4, 3, 4, 2),
            arrival: 0.0,
        }];
        let err = match MultiJobMaster::new(&tiny, &reqs, StreamConfig::default()) {
            Err(e) => e,
            Ok(_) => panic!("tiny platform must be infeasible"),
        };
        assert_eq!(err, StreamError::Infeasible { job: 0 });
        assert!(err.to_string().contains("job 0"));
    }

    fn lu_request(id: u32, q: usize, arrival: f64) -> (JobRequest, (JobId, DagJob)) {
        let (dag, _) = stargemm_dag::lu_dag(3);
        let job = dag.virtual_job(q);
        (
            JobRequest {
                id,
                tenant: 0,
                weight: 1.0,
                job,
                arrival,
            },
            (id, dag),
        )
    }

    #[test]
    fn mixed_dag_and_gemm_stream_completes() {
        let platform = platform();
        let mut reqs = workload(3, 7, 12.0);
        let (dag_req, pair) = lu_request(100, 2, 5.0);
        reqs.push(dag_req);
        let mut policy =
            MultiJobMaster::with_dags(&platform, &reqs, vec![pair], StreamConfig::default())
                .unwrap();
        let stats = Simulator::new(platform.clone())
            .with_arrivals(MultiJobMaster::arrival_plan(&reqs))
            .run(&mut policy)
            .unwrap();
        assert_eq!(stats.jobs.len(), 4);
        assert!(stats.jobs.iter().all(|j| j.completion.is_some()));
        // GEMM members still tile their jobs exactly.
        for r in &reqs {
            validate_coverage(&r.job, policy.retrieved_geoms(r.id)).unwrap();
        }
        // The DAG member finished every task in a dependency-respecting
        // order.
        let order = policy.dag_completion_order(100);
        let dag = policy.dag_spec(100).unwrap();
        assert!(dag.is_topological(order), "{order:?}");
    }

    #[test]
    fn mixed_stream_is_deterministic() {
        let platform = platform();
        let mut reqs = workload(4, 13, 8.0);
        let (dag_req, pair) = lu_request(200, 2, 0.0);
        reqs.push(dag_req);
        let go = || {
            let mut policy = MultiJobMaster::with_dags(
                &platform,
                &reqs,
                vec![pair.clone()],
                StreamConfig::default(),
            )
            .unwrap();
            let stats = Simulator::new(platform.clone())
                .with_arrivals(MultiJobMaster::arrival_plan(&reqs))
                .run(&mut policy)
                .unwrap();
            let order = policy.dag_completion_order(200).to_vec();
            (stats, order)
        };
        let (a, oa) = go();
        let (b, ob) = go();
        assert_eq!(a, b);
        assert_eq!(oa, ob);
    }

    #[test]
    fn dag_job_survives_a_worker_crash() {
        use stargemm_platform::{DynProfile, Trace, WorkerDyn};
        let platform = platform();
        let (dag_req, pair) = lu_request(7, 2, 0.0);
        let reqs = vec![dag_req];
        let mut policy =
            MultiJobMaster::with_dags(&platform, &reqs, vec![pair], StreamConfig::default())
                .unwrap();
        let profile = DynProfile::new(vec![
            WorkerDyn::new(
                Trace::default(),
                Trace::default(),
                vec![(2.0, f64::INFINITY)],
            ),
            WorkerDyn::stable(),
            WorkerDyn::stable(),
        ]);
        let stats = Simulator::new(platform.clone())
            .with_arrivals(MultiJobMaster::arrival_plan(&reqs))
            .with_profile(profile)
            .run(&mut policy)
            .unwrap();
        assert_eq!(stats.jobs.len(), 1);
        assert!(stats.jobs[0].completion.is_some());
        let order = policy.dag_completion_order(7);
        let dag = policy.dag_spec(7).unwrap();
        assert_eq!(order.len(), dag.len());
        assert!(dag.is_topological(order), "{order:?}");
    }

    #[test]
    fn infeasible_dag_task_is_rejected_up_front() {
        // Widest worker slice is 60/2 = 30 buffers; a width-15 task
        // needs 31 — infeasible under 2 slots.
        let chain = DagJob::chain("wide", &[15]);
        let job = chain.virtual_job(2);
        let reqs = vec![JobRequest {
            id: 0,
            tenant: 0,
            weight: 1.0,
            job,
            arrival: 0.0,
        }];
        let err = MultiJobMaster::with_dags(
            &platform(),
            &reqs,
            vec![(0, chain)],
            StreamConfig::default(),
        )
        .err()
        .expect("wide task must not fit");
        assert_eq!(err, StreamError::Infeasible { job: 0 });
    }

    #[test]
    fn slot_caps_assign_the_remainder_to_low_slots() {
        // 61 blocks over 2 slots: 31 + 30, nothing stranded.
        assert_eq!(slot_cap(61, 2, 0), 31);
        assert_eq!(slot_cap(61, 2, 1), 30);
        // Any (m, slots): caps are non-increasing and sum to m exactly.
        for m in 0..40 {
            for slots in 1..6 {
                let caps: Vec<usize> = (0..slots).map(|s| slot_cap(m, slots, s)).collect();
                assert_eq!(caps.iter().sum::<usize>(), m, "m={m} slots={slots}");
                assert!(caps.windows(2).all(|w| w[0] >= w[1]), "m={m} slots={slots}");
            }
        }
    }

    #[test]
    fn odd_memory_worker_is_rescued_by_the_remainder_block() {
        // m = 9, slots = 2, window = 2: the old integer division gave
        // every slot cap 4 → μ = 0, rejecting the job outright. The
        // fixed split gives slot 0 cap 5 → μ = 1: feasible, and the run
        // completes within the 9-block budget.
        let odd = Platform::new("odd", vec![WorkerSpec::new(1.0, 1.0, 9)]);
        let reqs = vec![JobRequest {
            id: 0,
            tenant: 0,
            weight: 1.0,
            job: Job::new(2, 2, 2, 2),
            arrival: 0.0,
        }];
        let (stats, policy) = run_stream(&odd, &reqs, StreamConfig::default());
        assert_eq!(stats.jobs.len(), 1);
        assert!(stats.jobs[0].completion.is_some());
        assert_eq!(policy.stats().completed, 1);
        assert!(stats.per_worker[0].mem_high_water <= 9);
        validate_coverage(&reqs[0].job, policy.retrieved_geoms(0)).unwrap();
    }

    #[test]
    fn odd_memory_platform_never_overflows_under_contention() {
        // Two concurrent jobs on odd-memory workers: slot 0 gets the
        // extra block, slot 1 the floor, and Σ caps = m keeps the
        // engine's strict memory check green.
        let odd = Platform::new(
            "odd2",
            vec![
                WorkerSpec::new(0.2, 0.1, 61),
                WorkerSpec::new(0.3, 0.15, 41),
            ],
        );
        let reqs = workload(6, 17, 5.0);
        let (stats, policy) = run_stream(&odd, &reqs, StreamConfig::default());
        assert_eq!(stats.jobs.len(), 6);
        assert!(stats.jobs.iter().all(|j| j.completion.is_some()));
        assert_eq!(policy.stats().completed, 6);
        assert!(stats.per_worker[0].mem_high_water <= 61);
        assert!(stats.per_worker[1].mem_high_water <= 41);
    }

    #[test]
    fn bad_configs_are_typed_errors() {
        let reqs = workload(1, 1, 1.0);
        let no_slots = StreamConfig { slots: 0 };
        match MultiJobMaster::new(&platform(), &reqs, no_slots).err() {
            Some(StreamError::Config(msg)) => assert!(msg.contains("slot")),
            other => panic!("expected Config error, got {other:?}"),
        }
    }

    #[test]
    fn duplicate_job_ids_are_rejected() {
        let mut reqs = workload(2, 1, 1.0);
        reqs[1].id = reqs[0].id;
        let err = MultiJobMaster::new(&platform(), &reqs, StreamConfig::default())
            .err()
            .expect("duplicate ids must be rejected");
        assert_eq!(err, StreamError::DuplicateJob { job: reqs[0].id });
    }

    #[test]
    fn dag_for_unknown_job_is_rejected() {
        let reqs = workload(1, 1, 1.0);
        let (dag, _) = stargemm_dag::lu_dag(2);
        let err = MultiJobMaster::with_dags(
            &platform(),
            &reqs,
            vec![(999, dag)],
            StreamConfig::default(),
        )
        .err()
        .expect("dangling DAG must be rejected");
        assert_eq!(err, StreamError::UnknownDagJob { job: 999 });
    }

    #[test]
    fn duplicate_dags_are_rejected() {
        let (req, (id, dag)) = lu_request(5, 2, 0.0);
        let err = MultiJobMaster::with_dags(
            &platform(),
            &[req],
            vec![(id, dag.clone()), (id, dag)],
            StreamConfig::default(),
        )
        .err()
        .expect("duplicate DAG must be rejected");
        assert_eq!(err, StreamError::DuplicateDag { job: id });
    }

    #[test]
    fn dag_id_overflow_is_rejected() {
        let big = (ChunkId::MAX - DAG_ID_BASE) / DAG_ID_SPAN;
        let (dag, _) = stargemm_dag::lu_dag(2);
        let job = dag.virtual_job(2);
        let reqs = vec![JobRequest {
            id: big,
            tenant: 0,
            weight: 1.0,
            job,
            arrival: 0.0,
        }];
        let err = MultiJobMaster::with_dags(
            &platform(),
            &reqs,
            vec![(big, dag)],
            StreamConfig::default(),
        )
        .err()
        .expect("oversized DAG id must be rejected");
        assert_eq!(err, StreamError::DagIdOverflow { job: big });
    }

    #[test]
    fn dag_dimension_mismatch_is_rejected() {
        let (dag, _) = stargemm_dag::lu_dag(3);
        // Wrong r/t/s for the DAG's virtual GEMM at q = 2.
        let reqs = vec![JobRequest {
            id: 4,
            tenant: 0,
            weight: 1.0,
            job: Job::new(1, 1, 1, 2),
            arrival: 0.0,
        }];
        let err =
            MultiJobMaster::with_dags(&platform(), &reqs, vec![(4, dag)], StreamConfig::default())
                .err()
                .expect("mismatched DAG job must be rejected");
        assert_eq!(err, StreamError::DagMismatch { job: 4 });
    }

    #[test]
    fn single_slot_serializes_jobs() {
        let reqs = workload(4, 9, 1.0);
        let (stats, policy) = run_stream(&platform(), &reqs, StreamConfig { slots: 1 });
        assert_eq!(stats.jobs.len(), 4);
        assert!(stats.jobs.iter().all(|j| j.completion.is_some()));
        assert_eq!(policy.stats().completed, 4);
    }
}
