//! The generic streaming master policy.
//!
//! Every algorithm in the paper reduces to the same execution skeleton:
//! each worker processes an ordered sequence of C-chunks, and for the
//! active chunk the master sends `C`, then per step `k` a `B` fragment
//! followed by an `A` fragment (the paper's order), gated by a lookahead
//! *window* (2 steps = the double-buffered `μ² + 4μ` layout; 1 step = no
//! overlap, the `μ² + 2μ` / Toledo layouts), and finally retrieves the
//! chunk. What distinguishes the algorithms is
//!
//! 1. **chunk assignment** — static per-worker queues (Hom, HomI, Het,
//!    ORROML, OMMOML) or a dynamic pool carved on demand (ODDOML, BMM);
//! 2. **serving discipline** — strict sticky round-robin (Algorithm 1)
//!    or demand-driven (serve whichever worker can accept data now).
//!
//! A lane's *gate* — what it would do next, and whether it may — is a
//! pure read of the lane (and, for a starved lane, of whether the pool
//! can still feed it); the strip a starved lane is fed is carved when
//! its chunk opens. Demand-driven serving keeps every lane's gate and
//! the set of ready lanes, re-reading a lane only when something its
//! gate reads changes, so a decision is a bitset search, not a gate per
//! lane.

use std::collections::VecDeque;

use stargemm_sim::{Action, ChunkId, ChunkMap, Fragment, MasterPolicy, SimCtx, SimEvent, StepId};

use crate::geometry::{carve_strip, ChunkGeom, PlannedChunk};
use crate::job::Job;

/// Access to chunk geometry, needed by drivers that move real data (the
/// net runtime slices actual matrices by the regions the policy
/// planned).
pub trait GeometryAccess {
    /// Geometry of a planned chunk, if known.
    fn chunk_geom(&self, id: ChunkId) -> Option<ChunkGeom>;
    /// The job being executed.
    fn job_dims(&self) -> Job;
}

/// Fragment-serving discipline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Serving {
    /// Strict sticky round-robin in worker order: the master never
    /// reorders its program (Algorithm 1); retrievals may block.
    RoundRobin,
    /// Serve the first worker (cyclic scan for fairness) that can accept
    /// a fragment right now; retrievals only when results are ready.
    DemandDriven,
}

/// A pool of not-yet-assigned C column strips, carved on demand with a
/// per-worker chunk side (ODDOML, BMM).
#[derive(Clone, Debug)]
pub struct DynamicPool {
    job: Job,
    /// Per-worker chunk side (`μ_i` or `g_i`); 0 excludes the worker.
    sides: Vec<usize>,
    /// Per-worker step depth (1 for the paper layout, `g_i` for BMM).
    k_depths: Vec<usize>,
    next_col: usize,
    next_id: ChunkId,
}

impl DynamicPool {
    /// Creates a pool over `job` for workers with the given sides/depths.
    ///
    /// # Panics
    /// Panics if the vectors disagree in length or every side is zero.
    pub fn new(job: Job, sides: Vec<usize>, k_depths: Vec<usize>) -> Self {
        assert_eq!(sides.len(), k_depths.len());
        assert!(
            sides.iter().any(|&s| s > 0),
            "at least one worker must fit the layout"
        );
        DynamicPool {
            job,
            sides,
            k_depths,
            next_col: 0,
            next_id: 0,
        }
    }

    /// Whether a strip can still be carved for `worker`.
    fn can_feed(&self, worker: usize) -> bool {
        self.sides[worker] > 0 && !self.exhausted()
    }

    /// Carves `worker`'s next strip; call only when [`Self::can_feed`].
    fn pull(&mut self, worker: usize) -> Vec<PlannedChunk> {
        carve_strip(
            &self.job,
            worker,
            self.sides[worker],
            self.k_depths[worker],
            &mut self.next_col,
            &mut self.next_id,
        )
        .expect("the pool can feed this worker")
    }

    fn exhausted(&self) -> bool {
        self.next_col >= self.job.s
    }
}

/// Issuance state of the chunk a lane is currently streaming.
#[derive(Clone, Debug)]
struct ActiveChunk {
    pc: PlannedChunk,
    /// Steps whose A and B fragments have both been issued.
    steps_sent: StepId,
    /// Whether the B fragment of step `steps_sent` has been issued.
    b_sent: bool,
    /// Steps whose computation completed (from `StepDone` events).
    steps_done: StepId,
    computed: bool,
    retrieve_issued: bool,
}

impl ActiveChunk {
    fn new(pc: PlannedChunk) -> Self {
        ActiveChunk {
            pc,
            steps_sent: 0,
            b_sent: false,
            steps_done: 0,
            computed: false,
            retrieve_issued: false,
        }
    }
}

#[derive(Clone, Debug, Default)]
struct Lane {
    queue: VecDeque<PlannedChunk>,
    active: Option<ActiveChunk>,
}

/// What a lane would like the master to do next.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Need {
    OpenChunk,
    StepB(StepId),
    StepA(StepId),
    Retrieve,
}

/// Whether a need can be issued right now.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Gate {
    Ready(Need),
    /// Something to do later, but gated (window full or result pending).
    Blocked,
    /// Nothing left for this lane, ever.
    Exhausted,
}

/// Every lane's gate as last read, the `Ready` lanes as a bitset, and
/// how many lanes are `Exhausted` — the demand-driven decision state.
#[derive(Clone, Debug)]
struct ReadyLanes {
    gates: Vec<Gate>,
    bits: Vec<u64>,
    exhausted: usize,
}

impl ReadyLanes {
    fn new(lanes: usize) -> Self {
        ReadyLanes {
            gates: vec![Gate::Blocked; lanes],
            bits: vec![0; lanes.div_ceil(64)],
            exhausted: 0,
        }
    }

    #[inline]
    fn set(&mut self, w: usize, gate: Gate) {
        let was = std::mem::replace(&mut self.gates[w], gate);
        self.exhausted += usize::from(gate == Gate::Exhausted);
        self.exhausted -= usize::from(was == Gate::Exhausted);
        let bit = 1u64 << (w % 64);
        if matches!(gate, Gate::Ready(_)) {
            self.bits[w / 64] |= bit;
        } else {
            self.bits[w / 64] &= !bit;
        }
    }

    /// The first ready lane at or cyclically after `from`, with its need.
    fn first_from(&self, from: usize) -> Option<(usize, Need)> {
        let word = from / 64;
        let head = self.bits.get(word)? & (!0u64 << (from % 64));
        let w = if head != 0 {
            word * 64 + head.trailing_zeros() as usize
        } else {
            // The words after `word`, then from the first one on: `word`
            // itself has no ready lane at or after `from`.
            let nonzero = |bits: &[u64]| bits.iter().position(|&b| b != 0);
            let i = nonzero(&self.bits[word + 1..])
                .map(|i| word + 1 + i)
                .or_else(|| nonzero(&self.bits[..=word]))?;
            i * 64 + self.bits[i].trailing_zeros() as usize
        };
        match self.gates[w] {
            Gate::Ready(need) => Some((w, need)),
            _ => unreachable!("a set bit marks a ready lane"),
        }
    }
}

/// The generic streaming master policy. See module docs.
pub struct StreamingMaster {
    name: &'static str,
    job: Job,
    lanes: Vec<Lane>,
    pool: Option<DynamicPool>,
    serving: Serving,
    window: StepId,
    rr: usize,
    geoms: ChunkMap<ChunkGeom>,
    /// Kept for demand-driven serving only (round-robin reads its one
    /// sticky lane per decision).
    ready: ReadyLanes,
}

impl StreamingMaster {
    /// Policy with statically assigned per-worker chunk queues
    /// (`queues[w]` is worker `w`'s ordered chunk list; empty = not
    /// enrolled).
    ///
    /// # Panics
    /// Panics if a queued chunk references a different worker, or if
    /// `window == 0`.
    pub fn new_static(
        name: &'static str,
        job: Job,
        queues: Vec<Vec<PlannedChunk>>,
        serving: Serving,
        window: StepId,
    ) -> Self {
        assert!(window > 0, "window must be at least 1 step");
        let planned = queues.iter().map(Vec::len).sum();
        let mut geoms = ChunkMap::with_capacity_and_hasher(planned, Default::default());
        let lanes = queues
            .into_iter()
            .enumerate()
            .map(|(w, q)| {
                for pc in &q {
                    assert_eq!(pc.geom.worker, w, "chunk queued on wrong lane");
                    geoms.insert(pc.geom.id, pc.geom);
                }
                Lane {
                    queue: q.into(),
                    active: None,
                }
            })
            .collect();
        Self::with_lanes(name, job, lanes, None, serving, window, geoms)
    }

    /// Policy with a dynamic pool: strips are carved for a worker when it
    /// runs out of chunks (demand-driven chunk assignment).
    ///
    /// # Panics
    /// Panics if `window == 0`.
    pub fn new_dynamic(
        name: &'static str,
        job: Job,
        pool: DynamicPool,
        serving: Serving,
        window: StepId,
    ) -> Self {
        assert!(window > 0, "window must be at least 1 step");
        let lanes = (0..pool.sides.len()).map(|_| Lane::default()).collect();
        let geoms = ChunkMap::default();
        Self::with_lanes(name, job, lanes, Some(pool), serving, window, geoms)
    }

    fn with_lanes(
        name: &'static str,
        job: Job,
        lanes: Vec<Lane>,
        pool: Option<DynamicPool>,
        serving: Serving,
        window: StepId,
        geoms: ChunkMap<ChunkGeom>,
    ) -> Self {
        let mut master = StreamingMaster {
            name,
            job,
            ready: ReadyLanes::new(lanes.len()),
            lanes,
            pool,
            serving,
            window,
            rr: 0,
            geoms,
        };
        master.refresh_all();
        master
    }

    /// The job this policy executes.
    pub fn job(&self) -> Job {
        self.job
    }

    /// Geometry of a chunk (available once the chunk has been planned;
    /// for dynamic policies that is when its strip is carved, always
    /// before the chunk's first fragment is issued).
    pub fn geom(&self, id: ChunkId) -> Option<&ChunkGeom> {
        self.geoms.get(&id)
    }

    /// All chunk geometries planned so far (after a completed run this is
    /// the full tiling of C — used by coverage tests).
    pub fn geoms(&self) -> impl Iterator<Item = &ChunkGeom> {
        self.geoms.values()
    }

    /// Lane `w`'s gate. A starved lane is ready to open a chunk while
    /// the pool can still feed it; the strip is carved by [`Self::issue`].
    #[inline]
    fn gate(&self, w: usize, allow_blocking_retrieve: bool) -> Gate {
        let lane = &self.lanes[w];
        match &lane.active {
            None => {
                if !lane.queue.is_empty() || self.pool.as_ref().is_some_and(|p| p.can_feed(w)) {
                    Gate::Ready(Need::OpenChunk)
                } else {
                    Gate::Exhausted
                }
            }
            Some(a) => {
                let steps = a.pc.descr.steps;
                if a.steps_sent < steps {
                    if a.steps_sent < a.steps_done + self.window {
                        let k = a.steps_sent;
                        if a.b_sent {
                            Gate::Ready(Need::StepA(k))
                        } else {
                            Gate::Ready(Need::StepB(k))
                        }
                    } else {
                        Gate::Blocked // window full, wait for compute
                    }
                } else if !a.retrieve_issued {
                    if a.computed || allow_blocking_retrieve {
                        Gate::Ready(Need::Retrieve)
                    } else {
                        Gate::Blocked // result not ready, don't block port
                    }
                } else {
                    Gate::Blocked // retrieval in flight
                }
            }
        }
    }

    /// Re-reads lane `w`'s gate into the ready set — after anything its
    /// gate reads has changed.
    #[inline]
    fn refresh(&mut self, w: usize) {
        if self.serving == Serving::DemandDriven {
            let gate = self.gate(w, false);
            self.ready.set(w, gate);
        }
    }

    fn refresh_all(&mut self) {
        for w in 0..self.lanes.len() {
            self.refresh(w);
        }
    }

    /// Feeds starved lane `w` its next strip from the pool. The strip
    /// that empties the pool turns every other starved lane `Exhausted`.
    fn pull_strip(&mut self, w: usize) {
        let pool = self
            .pool
            .as_mut()
            .expect("a starved lane opens only from a pool");
        let strip = pool.pull(w);
        let dry = pool.exhausted();
        for pc in &strip {
            self.geoms.insert(pc.geom.id, pc.geom);
        }
        self.lanes[w].queue.extend(strip);
        if dry {
            self.refresh_all();
        }
    }

    /// Issues `need` on lane `w`, mutating lane state, and returns the
    /// engine action.
    fn issue(&mut self, w: usize, need: Need) -> Action {
        if need == Need::OpenChunk && self.lanes[w].queue.is_empty() {
            self.pull_strip(w);
        }
        let lane = &mut self.lanes[w];
        let action = match need {
            Need::OpenChunk => {
                let pc = lane.queue.pop_front().expect("gated on non-empty");
                let action = Action::Send {
                    worker: w,
                    fragment: Fragment::c_load(&pc.descr),
                    new_chunk: Some(pc.descr),
                };
                lane.active = Some(ActiveChunk::new(pc));
                action
            }
            Need::StepB(k) => {
                let a = lane.active.as_mut().expect("active chunk");
                debug_assert!(!a.b_sent && a.steps_sent == k);
                a.b_sent = true;
                Action::Send {
                    worker: w,
                    fragment: Fragment::b_step(&a.pc.descr, k),
                    new_chunk: None,
                }
            }
            Need::StepA(k) => {
                let a = lane.active.as_mut().expect("active chunk");
                debug_assert!(a.b_sent && a.steps_sent == k);
                a.b_sent = false;
                a.steps_sent += 1;
                Action::Send {
                    worker: w,
                    fragment: Fragment::a_step(&a.pc.descr, k),
                    new_chunk: None,
                }
            }
            Need::Retrieve => {
                let a = lane.active.as_mut().expect("active chunk");
                a.retrieve_issued = true;
                Action::Retrieve {
                    worker: w,
                    chunk: a.pc.descr.id,
                }
            }
        };
        self.refresh(w);
        action
    }

    /// Whether the whole computation has been issued and retrieved.
    fn all_done(&self) -> bool {
        self.pool.as_ref().is_none_or(|p| p.exhausted())
            && self
                .lanes
                .iter()
                .all(|l| l.active.is_none() && l.queue.is_empty())
    }

    /// The lane after `w`, cyclically.
    fn lane_after(&self, w: usize) -> usize {
        if w + 1 == self.lanes.len() {
            0
        } else {
            w + 1
        }
    }

    /// Round-robin pointer advance rule: the sticky pointer moves on
    /// after completing a unit of Algorithm 1's program order (a C load,
    /// a full B+A step, or a retrieval) — not between B and A.
    fn advances_pointer(need: Need) -> bool {
        !matches!(need, Need::StepB(_))
    }
}

impl GeometryAccess for StreamingMaster {
    fn chunk_geom(&self, id: ChunkId) -> Option<ChunkGeom> {
        self.geom(id).copied()
    }

    fn job_dims(&self) -> Job {
        self.job
    }
}

impl MasterPolicy for StreamingMaster {
    fn next_action(&mut self, _ctx: &SimCtx) -> Action {
        let n = self.lanes.len();
        match self.serving {
            Serving::RoundRobin => {
                // Sticky pointer: skip exhausted lanes; wait on a gated
                // lane (strict program order).
                for _ in 0..n {
                    match self.gate(self.rr, true) {
                        Gate::Exhausted => self.rr = self.lane_after(self.rr),
                        Gate::Blocked => return Action::Wait,
                        Gate::Ready(need) => {
                            let w = self.rr;
                            if Self::advances_pointer(need) {
                                self.rr = self.lane_after(self.rr);
                            }
                            return self.issue(w, need);
                        }
                    }
                }
                if self.all_done() {
                    Action::Finished
                } else {
                    Action::Wait
                }
            }
            // The first ready lane cyclically from the pointer, as a scan
            // of every gate would find it.
            Serving::DemandDriven => match self.ready.first_from(self.rr) {
                Some((w, need)) => {
                    self.rr = self.lane_after(w);
                    self.issue(w, need)
                }
                None if self.ready.exhausted < n || !self.all_done() => Action::Wait,
                None => Action::Finished,
            },
        }
    }

    fn on_event(&mut self, ev: &SimEvent, _ctx: &SimCtx) {
        match *ev {
            SimEvent::StepDone { worker, chunk, .. } => {
                if let Some(a) = self.lanes[worker].active.as_mut() {
                    debug_assert_eq!(a.pc.descr.id, chunk);
                    a.steps_done += 1;
                }
                self.refresh(worker);
            }
            SimEvent::ChunkComputed { worker, chunk } => {
                if let Some(a) = self.lanes[worker].active.as_mut() {
                    debug_assert_eq!(a.pc.descr.id, chunk);
                    a.computed = true;
                }
                self.refresh(worker);
            }
            SimEvent::RetrieveDone { worker, chunk } => {
                let lane = &mut self.lanes[worker];
                debug_assert_eq!(lane.active.as_ref().map(|a| a.pc.descr.id), Some(chunk));
                lane.active = None;
                self.refresh(worker);
            }
            SimEvent::SendDone { .. } => {}
            // Dynamic-platform lifecycle: the bare streaming master is
            // crash-oblivious; wrappers react to these and repair the
            // lanes through [`QueueSurgery`]. Job lifecycle belongs to
            // the multi-job layer (`stargemm-stream`), which owns its
            // member masters.
            SimEvent::WorkerDown { .. }
            | SimEvent::WorkerUp { .. }
            | SimEvent::ChunkLost { .. }
            | SimEvent::JobArrived { .. }
            | SimEvent::JobCompleted { .. } => {}
        }
    }

    fn name(&self) -> &'static str {
        self.name
    }
}

/// Queue surgery: the hooks through which a wrapper edits a lane
/// master's unsent work — `stargemm-dyn`'s adaptive master re-balances
/// it and re-plans crash orphans, the multi-job and DAG masters evacuate
/// downed lanes and feed in chunks of their own. The bare master never
/// calls these itself.
pub trait QueueSurgery: MasterPolicy + GeometryAccess {
    /// The chunks queued (not yet opened) on lane `w`, in order.
    fn queued_chunks(&self, w: usize) -> impl Iterator<Item = &PlannedChunk>;

    /// The chunk lane `w` is currently streaming, if any.
    fn active_chunk_on(&self, w: usize) -> Option<&PlannedChunk>;

    /// Removes and returns every queued (not yet opened) chunk of lane
    /// `w`. Geometries stay registered — ids are never reused.
    fn drain_lane(&mut self, w: usize) -> Vec<PlannedChunk>;

    /// Drops lane `w`'s active chunk without completing it (the engine
    /// reported it lost in a crash). Returns the abandoned chunk.
    fn clear_active(&mut self, w: usize) -> Option<PlannedChunk>;

    /// Appends a chunk to its worker's queue, registering its geometry.
    /// Re-enqueueing a previously drained chunk (identical geometry) is
    /// allowed; reusing an id for a *different* geometry is not.
    ///
    /// # Panics
    /// Panics when the chunk's worker is unknown or its id was already
    /// planned with a different geometry.
    fn enqueue_chunk(&mut self, pc: PlannedChunk);

    /// The largest chunk id planned so far (fresh replacement ids must
    /// stay above it).
    fn max_planned_id(&self) -> Option<ChunkId>;
}

impl QueueSurgery for StreamingMaster {
    fn queued_chunks(&self, w: usize) -> impl Iterator<Item = &PlannedChunk> {
        self.lanes[w].queue.iter()
    }

    fn active_chunk_on(&self, w: usize) -> Option<&PlannedChunk> {
        self.lanes[w].active.as_ref().map(|a| &a.pc)
    }

    fn drain_lane(&mut self, w: usize) -> Vec<PlannedChunk> {
        let drained = self.lanes[w].queue.drain(..).collect();
        self.refresh(w);
        drained
    }

    fn clear_active(&mut self, w: usize) -> Option<PlannedChunk> {
        let cleared = self.lanes[w].active.take().map(|a| a.pc);
        self.refresh(w);
        cleared
    }

    fn enqueue_chunk(&mut self, pc: PlannedChunk) {
        let w = pc.geom.worker;
        assert!(w < self.lanes.len(), "chunk for unknown worker {w}");
        if let Some(prev) = self.geoms.insert(pc.geom.id, pc.geom) {
            assert_eq!(prev, pc.geom, "chunk id {} planned twice", pc.geom.id);
        }
        self.lanes[w].queue.push_back(pc);
        self.refresh(w);
    }

    fn max_planned_id(&self) -> Option<ChunkId> {
        self.geoms.keys().copied().max()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::{plan_chunk, validate_coverage};
    use stargemm_platform::{Platform, WorkerSpec};
    use stargemm_sim::Simulator;

    fn tiny_job() -> Job {
        Job::new(4, 3, 6, 2)
    }

    fn platform(p: usize, m: usize) -> Platform {
        Platform::homogeneous("test", p, WorkerSpec::new(1.0, 1.0, m))
    }

    fn static_rr_queues(job: &Job, p: usize, side: usize) -> Vec<Vec<PlannedChunk>> {
        let mut queues = vec![Vec::new(); p];
        let mut col = 0;
        let mut id = 0;
        let mut w = 0;
        while let Some(strip) = carve_strip(job, w % p, side, 1, &mut col, &mut id) {
            queues[w % p].extend(strip);
            w += 1;
        }
        queues
    }

    fn run(policy: &mut StreamingMaster, platform: Platform) -> stargemm_sim::RunStats {
        Simulator::new(platform).run(policy).unwrap()
    }

    #[test]
    fn static_round_robin_completes_and_covers() {
        let job = tiny_job();
        let queues = static_rr_queues(&job, 2, 2);
        let mut p = StreamingMaster::new_static("rr", job, queues, Serving::RoundRobin, 2);
        let stats = run(&mut p, platform(2, 100));
        assert_eq!(stats.total_updates, job.total_updates());
        assert_eq!(stats.blocks_to_master, job.c_blocks());
        let geoms: Vec<_> = p.geoms().copied().collect();
        validate_coverage(&job, &geoms).unwrap();
        assert_eq!(stats.enrolled(), 2);
    }

    #[test]
    fn static_demand_driven_completes() {
        let job = tiny_job();
        let queues = static_rr_queues(&job, 3, 2);
        let mut p = StreamingMaster::new_static("dd", job, queues, Serving::DemandDriven, 2);
        let stats = run(&mut p, platform(3, 100));
        assert_eq!(stats.total_updates, job.total_updates());
        let geoms: Vec<_> = p.geoms().copied().collect();
        validate_coverage(&job, &geoms).unwrap();
    }

    #[test]
    fn dynamic_pool_assigns_everything() {
        let job = tiny_job();
        let pool = DynamicPool::new(job, vec![2, 2], vec![1, 1]);
        let mut p = StreamingMaster::new_dynamic("dyn", job, pool, Serving::DemandDriven, 2);
        let stats = run(&mut p, platform(2, 100));
        assert_eq!(stats.total_updates, job.total_updates());
        let geoms: Vec<_> = p.geoms().copied().collect();
        validate_coverage(&job, &geoms).unwrap();
    }

    #[test]
    fn dynamic_pool_with_heterogeneous_sides() {
        let job = Job::new(6, 4, 9, 2);
        let pool = DynamicPool::new(job, vec![3, 2, 0], vec![1, 1, 1]);
        let mut p = StreamingMaster::new_dynamic("dyn-het", job, pool, Serving::DemandDriven, 2);
        let stats = run(&mut p, platform(3, 100));
        assert_eq!(stats.total_updates, job.total_updates());
        // Worker 2 (side 0) must not be enrolled.
        assert!(!stats.per_worker[2].enrolled());
        let geoms: Vec<_> = p.geoms().copied().collect();
        validate_coverage(&job, &geoms).unwrap();
    }

    #[test]
    fn window_one_matches_toledo_layout_memory() {
        // side 2, depth 2 on t=3 (tail depth 1): C 4 + A 4 + B 4 = 12
        // blocks peak with window 1 → runs on m = 12, not on m = 11.
        let job = Job::new(2, 3, 2, 2);
        let chunk = plan_chunk(&job, 0, 0, 0, 0, 2, 2, 2);
        let queues = vec![vec![chunk]];
        let mut p = StreamingMaster::new_static("bmm-1", job, queues, Serving::DemandDriven, 1);
        let stats = run(&mut p, platform(1, 12));
        assert_eq!(stats.total_updates, job.total_updates());
        assert!(stats.per_worker[0].mem_high_water <= 12);

        let chunk = plan_chunk(&job, 0, 0, 0, 0, 2, 2, 2);
        let mut p2 =
            StreamingMaster::new_static("bmm-1", job, vec![vec![chunk]], Serving::DemandDriven, 1);
        let err = Simulator::new(platform(1, 11)).run(&mut p2).unwrap_err();
        assert!(matches!(
            err,
            stargemm_sim::SimError::MemoryViolation { .. }
        ));
    }

    #[test]
    fn window_two_uses_double_buffers() {
        // μ = 2 layout: μ² + 4μ = 12 blocks suffice for window 2.
        let job = Job::new(2, 5, 2, 2);
        let mk = || plan_chunk(&job, 0, 0, 0, 0, 2, 2, 1);
        let mut p =
            StreamingMaster::new_static("w2", job, vec![vec![mk()]], Serving::RoundRobin, 2);
        let stats = run(&mut p, platform(1, 12));
        assert_eq!(stats.total_updates, job.total_updates());
        assert!(stats.per_worker[0].mem_high_water <= 12);
    }

    #[test]
    fn round_robin_is_deterministic() {
        let job = tiny_job();
        let mk = || {
            StreamingMaster::new_static(
                "rr",
                job,
                static_rr_queues(&job, 2, 2),
                Serving::RoundRobin,
                2,
            )
        };
        let s1 = run(&mut mk(), platform(2, 100));
        let s2 = run(&mut mk(), platform(2, 100));
        assert_eq!(s1, s2);
    }

    #[test]
    fn demand_driven_prefers_faster_workers() {
        // Worker 0 is 10× faster in both compute and links; the dynamic
        // pool should give it most strips.
        let job = Job::new(4, 6, 32, 2);
        let specs = vec![
            WorkerSpec::new(0.1, 0.1, 100),
            WorkerSpec::new(1.0, 1.0, 100),
        ];
        let pool = DynamicPool::new(job, vec![4, 4], vec![1, 1]);
        let mut p = StreamingMaster::new_dynamic("dd", job, pool, Serving::DemandDriven, 2);
        let stats = Simulator::new(Platform::new("het", specs))
            .run(&mut p)
            .unwrap();
        assert!(
            stats.per_worker[0].updates > 2 * stats.per_worker[1].updates,
            "fast worker should dominate: {:?}",
            stats
                .per_worker
                .iter()
                .map(|w| w.updates)
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn empty_queues_finish_immediately() {
        let job = tiny_job();
        let mut p =
            StreamingMaster::new_static("empty", job, vec![vec![], vec![]], Serving::RoundRobin, 2);
        let stats = run(&mut p, platform(2, 100));
        assert_eq!(stats.makespan, 0.0);
    }

    #[test]
    fn queue_surgery_moves_chunks_between_lanes() {
        let job = tiny_job();
        let queues = static_rr_queues(&job, 2, 2);
        let mut p = StreamingMaster::new_static("surgery", job, queues, Serving::DemandDriven, 2);

        // Move every chunk queued on lane 1 to lane 0, re-planned with a
        // fresh id, as the crash-recovery wrapper would.
        let moved = p.drain_lane(1);
        assert!(!moved.is_empty());
        assert!(p.queued_chunks(1).next().is_none());
        let base_id = p.max_planned_id().unwrap() + 1;
        for (off, pc) in moved.into_iter().enumerate() {
            let g = pc.geom;
            let id = base_id + off as u32;
            let repl = plan_chunk(&job, id, 0, g.i0, g.j0, g.h, g.w, g.k_depth);
            p.enqueue_chunk(repl);
        }
        assert!(p.active_chunk_on(0).is_none());

        let stats = run(&mut p, platform(2, 100));
        assert_eq!(stats.total_updates, job.total_updates());
        // Worker 1 ends up with nothing.
        assert!(!stats.per_worker[1].enrolled());
        // The drained chunks' geometries persist.
        assert!(p.geoms().any(|g| g.worker == 1));
    }

    #[test]
    fn drained_chunks_can_be_requeued_verbatim() {
        let job = tiny_job();
        let queues = static_rr_queues(&job, 2, 2);
        let mut p = StreamingMaster::new_static("requeue", job, queues, Serving::RoundRobin, 2);
        for w in 0..2 {
            for pc in p.drain_lane(w) {
                p.enqueue_chunk(pc); // same ids, same lanes
            }
        }
        let stats = run(&mut p, platform(2, 100));
        assert_eq!(stats.total_updates, job.total_updates());
        let geoms: Vec<_> = p.geoms().copied().collect();
        validate_coverage(&job, &geoms).unwrap();
    }

    #[test]
    #[should_panic(expected = "wrong lane")]
    fn misassigned_chunk_is_rejected() {
        let job = tiny_job();
        let pc = plan_chunk(&job, 0, 1, 0, 0, 2, 2, 1); // worker 1
        StreamingMaster::new_static("bad", job, vec![vec![pc]], Serving::RoundRobin, 2);
    }
}
