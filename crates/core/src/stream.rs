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

    fn pull(&mut self, worker: usize) -> Option<Vec<PlannedChunk>> {
        let side = self.sides[worker];
        if side == 0 {
            return None;
        }
        carve_strip(
            &self.job,
            worker,
            side,
            self.k_depths[worker],
            &mut self.next_col,
            &mut self.next_id,
        )
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
        StreamingMaster {
            name,
            job,
            lanes,
            pool: None,
            serving,
            window,
            rr: 0,
            geoms,
        }
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
        StreamingMaster {
            name,
            job,
            lanes,
            pool: Some(pool),
            serving,
            window,
            rr: 0,
            geoms: ChunkMap::default(),
        }
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

    // ------------------------------------------------------------------
    // Queue surgery — the hooks `stargemm-dyn` uses to rebalance unsent
    // work and to recover chunks orphaned by worker crashes. The bare
    // master never calls these itself.
    // ------------------------------------------------------------------

    /// The chunks queued (not yet opened) on lane `w`, in order.
    pub fn queued_chunks(&self, w: usize) -> impl Iterator<Item = &PlannedChunk> {
        self.lanes[w].queue.iter()
    }

    /// The chunk lane `w` is currently streaming, if any.
    pub fn active_chunk_on(&self, w: usize) -> Option<&PlannedChunk> {
        self.lanes[w].active.as_ref().map(|a| &a.pc)
    }

    /// Removes and returns every queued (not yet opened) chunk of lane
    /// `w`. Geometries stay registered — ids are never reused.
    pub fn drain_lane(&mut self, w: usize) -> Vec<PlannedChunk> {
        self.lanes[w].queue.drain(..).collect()
    }

    /// Drops lane `w`'s active chunk without completing it (the engine
    /// reported it lost in a crash). Returns the abandoned chunk.
    pub fn clear_active(&mut self, w: usize) -> Option<PlannedChunk> {
        self.lanes[w].active.take().map(|a| a.pc)
    }

    /// Appends a chunk to its worker's queue, registering its geometry.
    /// Re-enqueueing a previously drained chunk (identical geometry) is
    /// allowed; reusing an id for a *different* geometry is not.
    ///
    /// # Panics
    /// Panics when the chunk's worker is unknown or its id was already
    /// planned with a different geometry.
    pub fn enqueue_chunk(&mut self, pc: PlannedChunk) {
        let w = pc.geom.worker;
        assert!(w < self.lanes.len(), "chunk for unknown worker {w}");
        if let Some(prev) = self.geoms.insert(pc.geom.id, pc.geom) {
            assert_eq!(prev, pc.geom, "chunk id {} planned twice", pc.geom.id);
        }
        self.lanes[w].queue.push_back(pc);
    }

    /// The largest chunk id planned so far (fresh replacement ids must
    /// stay above it).
    pub fn max_planned_id(&self) -> Option<ChunkId> {
        self.geoms.keys().copied().max()
    }

    /// Workers with at least one planned chunk so far.
    pub fn enrolled_workers(&self) -> Vec<usize> {
        let mut v: Vec<usize> = self.geoms.values().map(|g| g.worker).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Evaluates lane `w`'s gate, pulling from the dynamic pool if the
    /// lane is starved.
    fn gate(&mut self, w: usize, allow_blocking_retrieve: bool) -> Gate {
        // Starved lane: try to pull a strip from the pool.
        if self.lanes[w].active.is_none() && self.lanes[w].queue.is_empty() {
            if let Some(pool) = self.pool.as_mut() {
                if let Some(strip) = pool.pull(w) {
                    for pc in &strip {
                        self.geoms.insert(pc.geom.id, pc.geom);
                    }
                    self.lanes[w].queue.extend(strip);
                }
            }
        }
        let lane = &self.lanes[w];
        match &lane.active {
            None => {
                if lane.queue.is_empty() {
                    Gate::Exhausted
                } else {
                    Gate::Ready(Need::OpenChunk)
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

    /// Issues `need` on lane `w`, mutating lane state, and returns the
    /// engine action.
    fn issue(&mut self, w: usize, need: Need) -> Action {
        let lane = &mut self.lanes[w];
        match need {
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
        }
    }

    /// Whether the whole computation has been issued and retrieved.
    fn all_done(&self) -> bool {
        self.pool.as_ref().is_none_or(|p| p.exhausted())
            && self
                .lanes
                .iter()
                .all(|l| l.active.is_none() && l.queue.is_empty())
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
                        Gate::Exhausted => self.rr = (self.rr + 1) % n,
                        Gate::Blocked => return Action::Wait,
                        Gate::Ready(need) => {
                            let w = self.rr;
                            if Self::advances_pointer(need) {
                                self.rr = (self.rr + 1) % n;
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
            Serving::DemandDriven => {
                let mut blocked_any = false;
                for off in 0..n {
                    let w = (self.rr + off) % n;
                    match self.gate(w, false) {
                        Gate::Ready(need) => {
                            self.rr = (w + 1) % n;
                            return self.issue(w, need);
                        }
                        Gate::Blocked => blocked_any = true,
                        Gate::Exhausted => {}
                    }
                }
                if blocked_any || !self.all_done() {
                    Action::Wait
                } else {
                    Action::Finished
                }
            }
        }
    }

    fn on_event(&mut self, ev: &SimEvent, _ctx: &SimCtx) {
        match *ev {
            SimEvent::StepDone { worker, chunk, .. } => {
                if let Some(a) = self.lanes[worker].active.as_mut() {
                    debug_assert_eq!(a.pc.descr.id, chunk);
                    a.steps_done += 1;
                }
            }
            SimEvent::ChunkComputed { worker, chunk } => {
                if let Some(a) = self.lanes[worker].active.as_mut() {
                    debug_assert_eq!(a.pc.descr.id, chunk);
                    a.computed = true;
                }
            }
            SimEvent::RetrieveDone { worker, chunk } => {
                let lane = &mut self.lanes[worker];
                debug_assert_eq!(lane.active.as_ref().map(|a| a.pc.descr.id), Some(chunk));
                lane.active = None;
            }
            SimEvent::SendDone { .. } => {}
            // Dynamic-platform lifecycle: the bare streaming master is
            // crash-oblivious; `stargemm-dyn`'s adaptive wrapper reacts
            // to these and repairs the lanes through the queue-surgery
            // API below. Job lifecycle belongs to the multi-job layer
            // (`stargemm-stream`), which owns its member masters.
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
        assert_eq!(p.enrolled_workers(), vec![0, 1]); // geometries persist
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
