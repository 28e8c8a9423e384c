//! Critical-path-aware dispatch of a DAG job onto the star.
//!
//! [`DagMaster`] wraps the generic [`StreamingMaster`] with a *ready
//! frontier*: tasks whose predecessors have all completed are eligible,
//! and each `next_action` call first maps eligible tasks onto idle lanes
//! (HEFT-style — highest *bottom level* first, placed on the worker with
//! the earliest estimated finish), then delegates fragment streaming to
//! the inner master. Precedence enforcement is purely a matter of *when*
//! a task's chunk is enqueued, so both execution engines run DAG jobs
//! through their existing chunk machinery unchanged.
//!
//! The frontier is kept, not re-derived: a set of the ready tasks'
//! priority ranks, updated wherever a task changes state, so a decision
//! costs the lanes plus the ready tasks it actually looks at — nothing
//! when every lane already has its next chunk queued — whatever the
//! size of the task table.
//!
//! A task of width `w` becomes a `1 × w` chunk of the DAG's virtual GEMM
//! on the task's private column range: `w` C blocks down, one step of
//! `w` B blocks plus 1 A block, `w` updates, `w` C blocks back. The
//! [`SimEvent::RetrieveDone`] for that chunk is the task-completion
//! event that unlocks successors — which also makes crash recovery
//! uniform: a lost chunk simply re-enters the ready frontier (with a
//! fresh id) and its successors stay blocked until the retry lands.

use std::collections::BTreeSet;

use stargemm_core::cpath::best_task_time;
use stargemm_core::geometry::plan_chunk;
use stargemm_core::stream::{GeometryAccess, QueueSurgery, Serving};
use stargemm_core::{ChunkGeom, Job, StreamingMaster};
use stargemm_platform::Platform;
use stargemm_sim::{Action, ChunkId, ChunkMap, JobId, MasterPolicy, SimCtx, SimEvent, StepId};
use stargemm_sim::{ObsEvent, ObsSink};

use crate::graph::{DagJob, TaskId};

/// A task that fits no worker's memory allowance: its chunk needs
/// `2·width + 1` buffers and no capacity offers them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InfeasibleTask {
    /// Label of the offending task.
    pub task: String,
    /// Its width in block columns.
    pub width: usize,
}

impl std::fmt::Display for InfeasibleTask {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "task {:?} (width {}, needs {} buffers) fits no worker",
            self.task,
            self.width,
            2 * self.width + 1
        )
    }
}

impl std::error::Error for InfeasibleTask {}

/// Lifecycle of one task inside the dispatcher.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum TaskState {
    /// Some predecessor has not completed.
    Blocked,
    /// All predecessors done; waiting for a lane.
    Ready,
    /// Its chunk is queued or streaming on a lane.
    InFlight,
    /// Retrieved — the result is home.
    Done,
}

/// The DAG dispatcher. See the module docs.
pub struct DagMaster {
    name: &'static str,
    dag: DagJob,
    virt: Job,
    inner: StreamingMaster,
    platform: Platform,
    /// Per-worker buffer allowance (≤ the worker's `m`; the multi-job
    /// layer hands each tenant a slice of memory).
    capacity: Vec<usize>,
    state: Vec<TaskState>,
    /// Predecessors not yet done, per task.
    unmet: Vec<usize>,
    /// Tasks by descending bottom level (ties: ascending id) — the HEFT
    /// dispatch priority.
    priority: Vec<TaskId>,
    /// Position of each task in `priority`.
    rank: Vec<usize>,
    /// Ranks of the tasks in state `Ready`: ascending order is dispatch
    /// order. Changed only by [`DagMaster::set_state`].
    ready: BTreeSet<usize>,
    /// Ready tasks per width (observation only: the widest ready task
    /// decides whether the frontier is memory-blocked).
    ready_of_width: Vec<usize>,
    /// Bottom level of each task: its best-case time plus the longest
    /// best-case chain below it.
    bottom: Vec<f64>,
    /// Estimated time each lane drains its assigned work.
    est_free: Vec<f64>,
    chunk_task: ChunkMap<TaskId>,
    /// The live chunk of an in-flight task (re-dispatch after a crash
    /// allocates a fresh id, so stale ids guard themselves).
    cur_chunk: Vec<Option<ChunkId>>,
    next_chunk: ChunkId,
    completion: Vec<TaskId>,
    done: usize,
    /// Structured-event sink (off by default; observation only).
    obs: ObsSink,
    /// Job id stamped on emitted frontier events (the multi-tenant layer
    /// sets its stream job id; standalone runs use 0).
    obs_job: JobId,
    /// Whether a memory-stall episode is open (observation only; feeds
    /// `MemoryStallBegin`/`MemoryStallEnd`, never read by dispatch).
    mem_stalled: bool,
}

impl DagMaster {
    /// A dispatcher using each worker's full memory and chunk ids from 0.
    ///
    /// # Panics
    /// Panics when some task fits no worker (see [`DagMaster::with_capacity`]).
    pub fn new(
        name: &'static str,
        platform: &Platform,
        dag: DagJob,
        q: usize,
        window: StepId,
    ) -> Self {
        let capacity = platform.workers().iter().map(|s| s.m).collect();
        Self::with_capacity(name, platform, dag, q, window, capacity, 0)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// A dispatcher with an explicit per-worker buffer allowance and a
    /// base chunk id — what the multi-tenant layer uses to give each DAG
    /// job its memory slice and id namespace.
    ///
    /// Fails when some task fits no worker under `capacity` (a width-`w`
    /// task needs `2w + 1` buffers: C + B rows plus one A block).
    ///
    /// # Panics
    /// Panics when `capacity` and the platform disagree in length or
    /// `window == 0` (via the inner master).
    pub fn with_capacity(
        name: &'static str,
        platform: &Platform,
        dag: DagJob,
        q: usize,
        window: StepId,
        capacity: Vec<usize>,
        id_base: ChunkId,
    ) -> Result<Self, InfeasibleTask> {
        assert_eq!(capacity.len(), platform.len(), "one allowance per worker");
        for t in 0..dag.len() {
            let need = 2 * dag.width(t) + 1;
            if !capacity.iter().any(|&m| need <= m) {
                return Err(InfeasibleTask {
                    task: dag.label(t).to_string(),
                    width: dag.width(t),
                });
            }
        }
        let virt = dag.virtual_job(q);
        let inner = StreamingMaster::new_static(
            name,
            virt,
            vec![Vec::new(); platform.len()],
            Serving::DemandDriven,
            window,
        );
        // Bottom levels over the best-case task times (reverse topo).
        let costs = dag.task_costs();
        let mut bottom = vec![0.0f64; dag.len()];
        for &v in dag.topo_order().iter().rev() {
            let below = dag
                .succs(v)
                .iter()
                .map(|&s| bottom[s])
                .fold(0.0f64, f64::max);
            bottom[v] = best_task_time(platform, &costs[v]) + below;
        }
        let mut priority: Vec<TaskId> = (0..dag.len()).collect();
        priority.sort_by(|&a, &b| {
            bottom[b]
                .partial_cmp(&bottom[a])
                .expect("finite bottom levels")
                .then(a.cmp(&b))
        });
        let mut rank = vec![0; dag.len()];
        for (r, &t) in priority.iter().enumerate() {
            rank[t] = r;
        }
        let unmet: Vec<usize> = (0..dag.len()).map(|t| dag.preds(t).len()).collect();
        let mut master = DagMaster {
            name,
            cur_chunk: vec![None; dag.len()],
            completion: Vec::with_capacity(dag.len()),
            state: vec![TaskState::Blocked; dag.len()],
            ready: BTreeSet::new(),
            ready_of_width: vec![0; dag.max_width() + 1],
            dag,
            virt,
            inner,
            platform: platform.clone(),
            unmet,
            priority,
            rank,
            bottom,
            est_free: vec![0.0; capacity.len()],
            capacity,
            chunk_task: ChunkMap::default(),
            next_chunk: id_base,
            done: 0,
            obs: ObsSink::off(),
            obs_job: 0,
            mem_stalled: false,
        };
        for t in 0..master.dag.len() {
            if master.unmet[t] == 0 {
                master.set_state(t, TaskState::Ready);
            }
        }
        Ok(master)
    }

    /// Attaches a structured-event sink; `job` labels the emitted
    /// [`ObsEvent::FrontierPromote`] events.
    #[must_use]
    pub fn with_obs(mut self, obs: ObsSink, job: JobId) -> Self {
        self.obs = obs;
        self.obs_job = job;
        self
    }

    /// The DAG being executed.
    pub fn dag(&self) -> &DagJob {
        &self.dag
    }

    /// The virtual GEMM the DAG executes as.
    pub fn virtual_job(&self) -> Job {
        self.virt
    }

    /// Bottom level of task `t` (best-case time of `t` plus the longest
    /// best-case chain below it).
    pub fn bottom_level(&self, t: TaskId) -> f64 {
        self.bottom[t]
    }

    /// Tasks in the order their results were retrieved. After a complete
    /// run this is a permutation of all tasks and — by construction —
    /// respects the precedence relation ([`DagJob::is_topological`]).
    pub fn completion_order(&self) -> &[TaskId] {
        &self.completion
    }

    /// Whether every task has completed.
    pub fn is_complete(&self) -> bool {
        self.done == self.dag.len()
    }

    /// Time to run a width-`w` task on worker `i`, port and compute.
    fn task_time(&self, width: usize, i: usize) -> f64 {
        let spec = self.platform.worker(i);
        (3 * width + 1) as f64 * spec.c + width as f64 * spec.w
    }

    /// Moves task `t` to state `to`, keeping the ready set and its
    /// per-width counts in step — the one place a task's state changes.
    fn set_state(&mut self, t: TaskId, to: TaskState) {
        let was = std::mem::replace(&mut self.state[t], to);
        let width = self.dag.width(t);
        if was == TaskState::Ready {
            self.ready.remove(&self.rank[t]);
            self.ready_of_width[width] -= 1;
        }
        if to == TaskState::Ready {
            self.ready.insert(self.rank[t]);
            self.ready_of_width[width] += 1;
        }
    }

    /// The worker that would finish a width-`width` task first among the
    /// live ones whose allowance fits it and whose lane has no chunk
    /// queued, with that finish time.
    fn best_lane(&self, width: usize, ctx: &SimCtx) -> Option<(f64, usize)> {
        let need = 2 * width + 1;
        let mut best: Option<(f64, usize)> = None;
        for i in 0..self.platform.len() {
            if !ctx.is_up(i)
                || need > self.capacity[i]
                || self.inner.queued_chunks(i).next().is_some()
            {
                continue;
            }
            let finish = self.est_free[i].max(ctx.now()) + self.task_time(width, i);
            if best.is_none_or(|(bf, _)| finish < bf) {
                best = Some((finish, i));
            }
        }
        best
    }

    /// Enqueues ready task `t` on worker `i` under a fresh chunk id.
    /// `frontier_width` counts the ready tasks, `t` included.
    fn promote(&mut self, t: TaskId, i: usize, finish: f64, frontier_width: usize, ctx: &SimCtx) {
        let id = self.next_chunk;
        self.next_chunk += 1;
        let width = self.dag.width(t);
        let pc = plan_chunk(&self.virt, id, i, 0, self.dag.col0(t), 1, width, 1);
        self.inner.enqueue_chunk(pc);
        self.chunk_task.insert(id, t);
        self.cur_chunk[t] = Some(id);
        self.est_free[i] = finish;
        self.obs.emit(|| ObsEvent::FrontierPromote {
            time: ctx.now(),
            job: self.obs_job,
            task: ObsEvent::narrow(t),
            worker: ObsEvent::narrow(i),
            frontier_width: ObsEvent::narrow(frontier_width),
        });
        self.set_state(t, TaskState::InFlight);
    }

    /// Maps ready tasks onto idle lanes, highest bottom level first.
    ///
    /// Walking `ready` by ascending rank visits exactly the `Ready`
    /// tasks, in `priority` order. A task none of whose candidate lanes
    /// is live, large enough and without a queued chunk is passed over;
    /// and once no live lane has an empty queue nothing further can be
    /// placed, so the walk stops there.
    fn dispatch(&mut self, ctx: &SimCtx) {
        debug_assert!(
            self.ready.iter().map(|&r| self.priority[r]).eq(self
                .priority
                .iter()
                .copied()
                .filter(|&t| self.state[t] == TaskState::Ready)),
            "the ready set is the set of Ready tasks"
        );
        let mut open = (0..self.platform.len())
            .filter(|&i| ctx.is_up(i) && self.inner.queued_chunks(i).next().is_none())
            .count();
        let mut next = self.ready.first().copied();
        while let Some(r) = next {
            if open == 0 {
                break;
            }
            next = self.ready.range(r + 1..).next().copied();
            let t = self.priority[r];
            if let Some((finish, i)) = self.best_lane(self.dag.width(t), ctx) {
                self.promote(t, i, finish, self.ready.len(), ctx);
                open -= 1;
            }
        }
        // Memory-stall tracking (observation only): the frontier is
        // memory-blocked when some ready task finds no live worker whose
        // memory cap fits it — transient lane busyness does not count.
        // The need grows with the width, so some ready task fits nowhere
        // iff the widest one does not.
        if self.obs.is_on() {
            let blocked = self
                .ready_of_width
                .iter()
                .rposition(|&n| n > 0)
                .is_some_and(|widest| {
                    let need = 2 * widest + 1;
                    !(0..self.platform.len()).any(|i| ctx.is_up(i) && need <= self.capacity[i])
                });
            if blocked != self.mem_stalled {
                self.mem_stalled = blocked;
                let ev = if blocked {
                    ObsEvent::MemoryStallBegin {
                        time: ctx.now(),
                        job: self.obs_job,
                    }
                } else {
                    ObsEvent::MemoryStallEnd {
                        time: ctx.now(),
                        job: self.obs_job,
                    }
                };
                self.obs.emit(|| ev);
            }
        }
    }

    /// Reverts a lost in-flight task to the ready frontier.
    fn revert(&mut self, chunk: ChunkId) {
        if let Some(&t) = self.chunk_task.get(&chunk) {
            if self.cur_chunk[t] == Some(chunk) {
                self.cur_chunk[t] = None;
                self.set_state(t, TaskState::Ready);
            }
        }
    }
}

impl GeometryAccess for DagMaster {
    fn chunk_geom(&self, id: ChunkId) -> Option<ChunkGeom> {
        self.inner.chunk_geom(id)
    }

    fn job_dims(&self) -> Job {
        self.virt
    }
}

impl MasterPolicy for DagMaster {
    fn next_action(&mut self, ctx: &SimCtx) -> Action {
        self.dispatch(ctx);
        match self.inner.next_action(ctx) {
            // The inner master only sees the chunks released so far; it
            // is "finished" whenever its lanes drain, not when the DAG is.
            Action::Finished => {
                if self.is_complete() {
                    Action::Finished
                } else {
                    Action::Wait
                }
            }
            other => other,
        }
    }

    fn on_event(&mut self, ev: &SimEvent, ctx: &SimCtx) {
        match *ev {
            SimEvent::SendDone { .. }
            | SimEvent::StepDone { .. }
            | SimEvent::ChunkComputed { .. } => self.inner.on_event(ev, ctx),
            SimEvent::RetrieveDone { chunk, .. } => {
                self.inner.on_event(ev, ctx);
                if let Some(&t) = self.chunk_task.get(&chunk) {
                    if self.state[t] != TaskState::Done {
                        self.set_state(t, TaskState::Done);
                        self.cur_chunk[t] = None;
                        self.done += 1;
                        self.completion.push(t);
                        for si in 0..self.dag.succs(t).len() {
                            let s = self.dag.succs(t)[si];
                            self.unmet[s] -= 1;
                            if self.unmet[s] == 0 && self.state[s] == TaskState::Blocked {
                                self.set_state(s, TaskState::Ready);
                            }
                        }
                    }
                }
            }
            SimEvent::WorkerDown { worker } => {
                // The lane's queued and active chunks are gone with the
                // worker; their tasks re-enter the frontier and their
                // successors stay blocked (`unmet` never decremented).
                for pc in self.inner.drain_lane(worker) {
                    self.revert(pc.descr.id);
                }
                if let Some(pc) = self.inner.clear_active(worker) {
                    self.revert(pc.descr.id);
                }
                self.est_free[worker] = 0.0;
            }
            SimEvent::ChunkLost { worker, chunk } => {
                // Usually already handled by WorkerDown; clean up both
                // the lane and the task state if this arrives alone. Only
                // an opened chunk can be lost: a queued one was never sent.
                if self
                    .inner
                    .active_chunk_on(worker)
                    .is_some_and(|pc| pc.descr.id == chunk)
                {
                    self.inner.clear_active(worker);
                }
                self.revert(chunk);
            }
            SimEvent::WorkerUp { .. }
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
    use crate::graph::TaskSpec;
    use crate::lu::lu_dag;
    use stargemm_core::cpath::dag_makespan_lower_bound;
    use stargemm_platform::{DynProfile, Trace, WorkerDyn, WorkerSpec};
    use stargemm_sim::{RunStats, Simulator};

    fn homog(p: usize, m: usize) -> Platform {
        Platform::homogeneous("test", p, WorkerSpec::new(1.0, 1.0, m))
    }

    fn diamond() -> DagJob {
        DagJob::new(
            "diamond",
            vec![
                TaskSpec::new("a", 1, vec![]),
                TaskSpec::new("b", 2, vec![0]),
                TaskSpec::new("c", 3, vec![0]),
                TaskSpec::new("d", 1, vec![1, 2]),
            ],
        )
        .unwrap()
    }

    fn run(policy: &mut DagMaster, platform: Platform) -> RunStats {
        Simulator::new(platform).run(policy).unwrap()
    }

    #[test]
    fn diamond_completes_respecting_precedence_and_bound() {
        let platform = homog(2, 100);
        let dag = diamond();
        let bound = dag_makespan_lower_bound(&platform, &dag.task_costs(), dag.preds_all());
        let mut p = DagMaster::new("dag", &platform, dag, 4, 2);
        let stats = run(&mut p, platform);
        assert!(p.is_complete());
        assert_eq!(stats.total_updates, 7);
        assert!(p.dag().is_topological(p.completion_order()));
        assert!(
            stats.makespan >= bound - 1e-9,
            "makespan {} beats bound {bound}",
            stats.makespan
        );
    }

    #[test]
    fn lu_completion_order_is_topological() {
        let platform = homog(3, 64);
        let (dag, _) = lu_dag(4);
        assert_eq!(dag.len(), 30);
        let mut p = DagMaster::new("lu4", &platform, dag, 2, 2);
        let stats = run(&mut p, platform);
        assert_eq!(stats.total_updates, 30);
        assert!(p.dag().is_topological(p.completion_order()));
    }

    #[test]
    fn bottom_levels_rank_the_critical_chain_first() {
        let platform = homog(2, 100);
        let dag = diamond();
        let p = DagMaster::new("bl", &platform, dag, 4, 2);
        // Source dominates everything; the wide task (c) outranks b; the
        // sink is last.
        assert!(p.bottom_level(0) > p.bottom_level(2));
        assert!(p.bottom_level(2) > p.bottom_level(1));
        assert!(p.bottom_level(1) > p.bottom_level(3));
    }

    #[test]
    fn single_chain_degenerates_to_the_static_queue_schedule() {
        // On one worker a chain has no scheduling freedom: the DAG master
        // must reproduce the sequential static-queue run *exactly*.
        let platform = homog(1, 100);
        let dag = DagJob::chain("chain", &[2, 1, 3]);
        let virt = dag.virtual_job(4);
        let mut queues = vec![Vec::new()];
        for t in 0..dag.len() {
            queues[0].push(plan_chunk(
                &virt,
                t as ChunkId,
                0,
                0,
                dag.col0(t),
                1,
                dag.width(t),
                1,
            ));
        }
        let mut base = StreamingMaster::new_static("chain", virt, queues, Serving::DemandDriven, 2);
        let want = Simulator::new(platform.clone()).run(&mut base).unwrap();
        let mut p = DagMaster::new("chain", &platform, dag, 4, 2);
        let got = run(&mut p, platform);
        assert_eq!(got, want);
    }

    #[test]
    fn capacity_gates_task_placement() {
        // Worker 0 can only hold width-1 tasks (2·1+1 = 3 buffers); the
        // width-3 task (needs 7) must land on worker 1.
        let platform = Platform::new(
            "uneven",
            vec![WorkerSpec::new(1.0, 1.0, 3), WorkerSpec::new(1.0, 1.0, 100)],
        );
        let dag = diamond();
        let mut p = DagMaster::new("cap", &platform, dag, 4, 2);
        let stats = run(&mut p, platform);
        assert!(p.is_complete());
        // Worker 0 never gets more than width-1 chunks: its retrieved
        // C-traffic is at most the two width-1 tasks.
        assert!(stats.per_worker[0].blocks_tx <= 2);
        assert!(stats.per_worker[1].blocks_tx >= 5);
    }

    #[test]
    fn infeasible_width_is_a_typed_error() {
        let platform = homog(2, 5);
        let dag = diamond(); // width-3 task needs 7 buffers
        let err = DagMaster::with_capacity("bad", &platform, dag, 4, 2, vec![5, 5], 0)
            .err()
            .expect("must not fit");
        assert_eq!(err.task, "c");
        assert_eq!(err.width, 3);
        assert!(err.to_string().contains("7 buffers"));
    }

    #[test]
    fn crash_returns_tasks_to_the_frontier() {
        // Worker 0 dies early and stays down; every task must still
        // complete (on worker 1) in a dependency-respecting order.
        let platform = homog(2, 100);
        let (dag, _) = lu_dag(3);
        let n_tasks = dag.len() as u64;
        let mut p = DagMaster::new("crash", &platform, dag, 2, 2);
        let profile = DynProfile::new(vec![
            WorkerDyn::new(
                Trace::default(),
                Trace::default(),
                vec![(4.0, f64::INFINITY)],
            ),
            WorkerDyn::stable(),
        ]);
        let stats = Simulator::new(platform)
            .with_profile(profile)
            .run(&mut p)
            .unwrap();
        assert!(p.is_complete());
        assert_eq!(stats.total_updates, n_tasks);
        assert!(p.dag().is_topological(p.completion_order()));
    }

    #[test]
    fn crash_and_rejoin_still_completes() {
        let platform = homog(2, 100);
        let (dag, _) = lu_dag(3);
        let mut p = DagMaster::new("bounce", &platform, dag, 2, 2);
        let profile = DynProfile::new(vec![
            WorkerDyn::new(Trace::default(), Trace::default(), vec![(3.0, 20.0)]),
            WorkerDyn::stable(),
        ]);
        let stats = Simulator::new(platform)
            .with_profile(profile)
            .run(&mut p)
            .unwrap();
        assert!(p.is_complete());
        assert!(p.dag().is_topological(p.completion_order()));
        assert!(stats.makespan > 0.0);
    }

    /// The dispatcher as it was before the frontier was kept: every
    /// decision re-derives the ready tasks by scanning `priority`, counts
    /// the `Ready` states for the frontier width, and collects the tasks
    /// it could not place for the stall check. It never reads `ready`.
    struct Scanning(DagMaster);

    impl Scanning {
        fn reference_dispatch(&mut self, ctx: &SimCtx) {
            let m = &mut self.0;
            let mut frontier_width = m.state.iter().filter(|&&s| s == TaskState::Ready).count();
            let mut unplaced: Vec<TaskId> = Vec::new();
            for pi in 0..m.priority.len() {
                let t = m.priority[pi];
                if m.state[t] != TaskState::Ready {
                    continue;
                }
                let Some((finish, i)) = m.best_lane(m.dag.width(t), ctx) else {
                    unplaced.push(t);
                    continue;
                };
                m.promote(t, i, finish, frontier_width, ctx);
                frontier_width = frontier_width.saturating_sub(1);
            }
            if m.obs.is_on() {
                let blocked = unplaced.iter().any(|&t| {
                    let need = 2 * m.dag.width(t) + 1;
                    !(0..m.platform.len()).any(|i| ctx.is_up(i) && need <= m.capacity[i])
                });
                if blocked != m.mem_stalled {
                    m.mem_stalled = blocked;
                    let (time, job) = (ctx.now(), m.obs_job);
                    m.obs.emit(|| {
                        if blocked {
                            ObsEvent::MemoryStallBegin { time, job }
                        } else {
                            ObsEvent::MemoryStallEnd { time, job }
                        }
                    });
                }
            }
        }
    }

    impl MasterPolicy for Scanning {
        fn next_action(&mut self, ctx: &SimCtx) -> Action {
            self.reference_dispatch(ctx);
            match self.0.inner.next_action(ctx) {
                Action::Finished if !self.0.is_complete() => Action::Wait,
                other => other,
            }
        }

        fn on_event(&mut self, ev: &SimEvent, ctx: &SimCtx) {
            self.0.on_event(ev, ctx);
        }

        fn name(&self) -> &'static str {
            self.0.name
        }
    }

    /// Crash scenarios of the oracle: worker `w`'s downtime, if any.
    fn profile(p: usize, downtime: Option<(usize, f64, f64)>) -> DynProfile {
        DynProfile::new(
            (0..p)
                .map(|i| match downtime {
                    Some((w, from, until)) if w == i => {
                        WorkerDyn::new(Trace::default(), Trace::default(), vec![(from, until)])
                    }
                    _ => WorkerDyn::stable(),
                })
                .collect(),
        )
    }

    /// Runs `dag` under the kept-frontier dispatcher and under the
    /// scanning one and checks they made the same run: stats, completion
    /// order and — recorder on — the whole event log, frontier widths
    /// and stall episodes included. Returns the log.
    fn same_run_as_scanning(
        platform: &Platform,
        dag: &DagJob,
        downtime: Option<(usize, f64, f64)>,
        record: bool,
    ) -> Vec<ObsEvent> {
        let sim = Simulator::new(platform.clone()).with_profile(profile(platform.len(), downtime));
        let run = |scanning: bool| {
            let rec = stargemm_sim::RunRecorder::shared();
            let sink = if record {
                ObsSink::to(rec.clone())
            } else {
                ObsSink::off()
            };
            let master =
                DagMaster::new("oracle", platform, dag.clone(), 2, 2).with_obs(sink.clone(), 7);
            let (stats, order) = if scanning {
                let mut p = Scanning(master);
                (sim.run_observed(&mut p, sink), p.0.completion)
            } else {
                let mut p = master;
                (sim.run_observed(&mut p, sink), p.completion)
            };
            let log = rec.borrow().events().to_vec();
            (stats.map_err(|e| e.to_string()), order, log)
        };
        let (kept, scanned) = (run(false), run(true));
        assert_eq!(kept.0, scanned.0, "stats, {downtime:?}, record {record}");
        assert_eq!(kept.1, scanned.1, "completion order, {downtime:?}");
        assert_eq!(kept.2, scanned.2, "event log, {downtime:?}");
        assert_eq!(kept.2.is_empty(), !record);
        kept.2
    }

    /// Every crash scenario × recorder on / off on one platform and DAG.
    /// Worker 1 is the one that crashes (and the only one that fits the
    /// widest task on the uneven platform).
    fn check_against_scanning(platform: &Platform, dag: &DagJob) -> Vec<ObsEvent> {
        let mut logs = Vec::new();
        for downtime in [
            None,
            Some((1, 3.0, f64::INFINITY)),
            Some((1, 3.0, 9.0)),
            Some((1, 0.5, 40.0)),
        ] {
            // With worker 1 gone for good the widest task must still fit
            // somewhere.
            let stays_down = downtime.is_some_and(|(_, _, until)| until.is_infinite());
            let fits_elsewhere =
                (0..platform.len()).any(|i| i != 1 && 2 * dag.max_width() < platform.worker(i).m);
            if stays_down && !fits_elsewhere {
                continue;
            }
            for record in [false, true] {
                logs.extend(same_run_as_scanning(platform, dag, downtime, record));
            }
        }
        logs
    }

    #[test]
    fn kept_frontier_dispatches_like_the_scanning_dispatcher() {
        let even = homog(3, 64);
        // Worker 0 holds width-1 tasks only: while worker 1 is down a
        // wider ready task fits no live worker — a memory stall.
        let uneven = Platform::new(
            "uneven",
            vec![WorkerSpec::new(1.0, 1.0, 3), WorkerSpec::new(0.5, 0.7, 100)],
        );
        let mut stalls = 0;
        for n in 2..=8 {
            let (dag, _) = lu_dag(n);
            check_against_scanning(&even, &dag);
        }
        // Independent tasks: with worker 1 down the ready set holds a
        // wide task that fits nowhere beside narrow ones that do.
        let flat = [3, 1, 1, 1, 1].map(|width| TaskSpec::new(format!("w{width}"), width, vec![]));
        let flat = DagJob::new("flat", flat.to_vec()).unwrap();
        for dag in [DagJob::chain("chain", &[2, 1, 3, 1]), diamond(), flat] {
            for platform in [&even, &uneven] {
                stalls += check_against_scanning(platform, &dag)
                    .iter()
                    .filter(|e| matches!(e, ObsEvent::MemoryStallBegin { .. }))
                    .count();
            }
        }
        assert!(stalls > 0, "no scenario exercised the stall check");
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(48))]

        /// The random forward-edge DAGs of `tests/dag_props.rs`.
        #[test]
        fn kept_frontier_dispatches_like_the_scanning_dispatcher_on_random_dags(
            tasks in proptest::collection::vec((1usize..4, 0u32..u32::MAX), 1..12),
            workers in proptest::collection::vec((0.05f64..2.0, 0.05f64..2.0, 3usize..40), 2..5),
        ) {
            let specs = tasks
                .iter()
                .enumerate()
                .map(|(t, &(width, mask))| {
                    let deps = (0..t).filter(|&p| mask & (1 << (p % 32)) != 0).collect();
                    TaskSpec::new(format!("t{t}"), width, deps)
                })
                .collect();
            let dag = DagJob::new("prop-dag", specs).expect("forward edges cannot cycle");
            let platform = Platform::new(
                "prop",
                workers.iter().map(|&(c, w, m)| WorkerSpec::new(c, w, m)).collect(),
            );
            proptest::prop_assume!(workers.iter().any(|&(_, _, m)| 2 * dag.max_width() < m));
            check_against_scanning(&platform, &dag);
        }
    }
}
