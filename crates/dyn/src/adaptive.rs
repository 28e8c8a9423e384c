//! The adaptive streaming master: crash recovery plus online
//! re-balancing on top of any statically planned [`StreamingMaster`].
//!
//! [`AdaptiveMaster`] wraps the paper's `Het` plan (or any other static
//! streaming policy — any lane master with [`QueueSurgery`]) and adds
//! the three behaviours a *dynamic* platform demands:
//!
//! 1. **Crash recovery** — the wrapped lanes are healed by a
//!    [`Healer`] (`stargemm_core::heal`): a crash's orphans (queued or
//!    destroyed mid-flight) are re-planned onto surviving workers, split
//!    to the largest tile the target's memory holds, with fresh chunk
//!    ids covering the same C regions. This alone makes the *static*
//!    plan terminate correctly under churn
//!    ([`AdaptiveMaster::guarded_het`]).
//! 2. **Online estimation** — it maintains EWMA estimates of the
//!    observed `ĉ_i`/`ŵ_i` from transfer and compute durations
//!    (see [`crate::estimate`]), the runtime analogue of
//!    `net::calibrate`'s offline benchmark phase.
//! 3. **Adaptive re-balancing** — when an estimate drifts from its
//!    baseline beyond a threshold, or a worker (re)joins, the wrapper
//!    re-runs resource selection over all unsent chunks: a min-min
//!    completion-time redistribution under the *estimated* costs
//!    (mirroring `core::assign::min_min_queues`, but online). In the
//!    static limit — constant traces, no churn — estimates never drift,
//!    no surgery happens, and the wrapper is observationally identical
//!    to the wrapped plan.

use std::collections::HashMap;

use stargemm_core::algorithms::{build_policy, Algorithm, BuildError};
use stargemm_core::geometry::{plan_chunk, ChunkGeom, PlannedChunk};
use stargemm_core::heal::Healer;
use stargemm_core::layout::mu_with_window;
use stargemm_core::stream::{GeometryAccess, QueueSurgery, StreamingMaster};
use stargemm_core::Job;
use stargemm_platform::Platform;
use stargemm_sim::{Action, ChunkDescr, ChunkId, MasterPolicy, MatKind, SimCtx, SimEvent, StepId};

use crate::estimate::CostEstimator;

/// Relative deviation of an estimate from its baseline that triggers a
/// re-balance.
const DRIFT_THRESHOLD: f64 = 0.25;

/// Counters exposed for tests and experiment reports.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AdaptiveStats {
    /// Chunks re-planned because a crash orphaned them.
    pub reassigned_chunks: u64,
    /// Full queue re-balances performed.
    pub rebalances: u64,
    /// Crashes observed.
    pub crashes: u64,
    /// (Re)joins observed.
    pub joins: u64,
}

/// Key of an in-flight transfer the wrapper is timing. Keyed by full
/// fragment identity, not just worker: concurrent contention models
/// (`multiport`, `fairshare`) keep several sends in flight at once —
/// even to the same worker — and complete them in share-dependent
/// order.
type PendingSendKey = (usize, ChunkId, StepId, MatKind);

/// See the module docs. `M` is the wrapped lane master.
pub struct AdaptiveMaster<M = StreamingMaster> {
    name: &'static str,
    inner: M,
    /// Estimation-driven re-balancing on (`false` = crash recovery only;
    /// the static plan is never second-guessed).
    adapt: bool,
    costs: Costs,
    /// In-flight transfers being timed: `(blocks, issued_at)` by key.
    pending_sends: HashMap<PendingSendKey, (u64, f64)>,
    /// Arrival time of the A fragment completing a step's operands.
    step_ready: HashMap<(ChunkId, StepId), f64>,
    /// Time each worker's last compute step finished.
    last_step_done: Vec<f64>,
    /// Chunk ids successfully retrieved.
    retrieved: Vec<ChunkId>,
    heal: Healer,
    next_id: ChunkId,
    rebalance_due: bool,
    stats: AdaptiveStats,
}

/// What placement reads: the platform, the job, which workers are up,
/// and the estimated costs.
struct Costs {
    platform: Platform,
    job: Job,
    est: CostEstimator,
    up: Vec<bool>,
}

impl Costs {
    /// Estimated cost of fully processing `descr` on worker `w`.
    fn chunk_cost(&self, w: usize, descr: &ChunkDescr) -> f64 {
        let io_blocks = (descr.total_blocks_in() + descr.c_blocks) as f64;
        io_blocks * self.est.effective_c(w) + descr.total_updates() as f64 * self.est.effective_w(w)
    }

    /// Estimated backlog (active + queued) of worker `w`.
    fn backlog(&self, inner: &impl QueueSurgery, w: usize) -> f64 {
        let mut load = 0.0;
        if let Some(active) = inner.active_chunk_on(w) {
            load += self.chunk_cost(w, &active.descr);
        }
        for pc in inner.queued_chunks(w) {
            load += self.chunk_cost(w, &pc.descr);
        }
        load
    }

    /// Whether a `h × w` region with step depth `d` fits worker `w`'s
    /// memory under the double-buffered streaming discipline.
    fn fits(&self, w: usize, geom: &ChunkGeom) -> bool {
        let c_blocks = (geom.h * geom.w) as u64;
        let per_step = ((geom.h + geom.w) * geom.k_depth) as u64;
        c_blocks + 2 * per_step <= self.platform.worker(w).m as u64
    }

    /// Largest square tile side worker `w` can stream with
    /// double-buffered step fragments of depth `d` (`s² + 4·s·d ≤ m`),
    /// capped by the region.
    fn max_side(&self, w: usize, d: usize, cap: usize) -> usize {
        mu_with_window(self.platform.worker(w).m, 2 * d).min(cap)
    }

    /// Cost of a region without materializing its descriptor: C in+out
    /// plus `t·(h+w)` operand blocks, and `h·w·t` updates.
    fn chunk_cost_region(&self, w: usize, geom: &ChunkGeom) -> f64 {
        let io = 2.0 * (geom.h * geom.w) as f64 + (self.job.t * (geom.h + geom.w)) as f64;
        io * self.est.effective_c(w)
            + (geom.h * geom.w * self.job.t) as f64 * self.est.effective_w(w)
    }

    /// The adaptive placement rule: a lost region goes to the live
    /// worker with the least estimated backlog plus region cost, whole if
    /// it fits there and otherwise as the largest tiles the target's
    /// memory holds (an orphan from a big-memory worker rarely fits a
    /// small survivor whole).
    fn place(&self, inner: &impl QueueSurgery, geom: &ChunkGeom) -> Option<(usize, usize)> {
        let cap = geom.h.max(geom.w);
        let target = (0..self.platform.len())
            .filter(|&w| self.up[w] && self.max_side(w, geom.k_depth, cap) > 0)
            .min_by(|&a, &b| {
                let ca = self.backlog(inner, a) + self.chunk_cost_region(a, geom);
                let cb = self.backlog(inner, b) + self.chunk_cost_region(b, geom);
                ca.total_cmp(&cb).then(a.cmp(&b))
            })?;
        let side = if self.fits(target, geom) {
            cap
        } else {
            self.max_side(target, geom.k_depth, cap)
        };
        Some((target, side))
    }
}

impl<M: QueueSurgery> AdaptiveMaster<M> {
    /// Wraps an existing statically planned lane master; `adapt` turns
    /// estimation-driven re-balancing on (`false` = crash recovery only).
    pub fn wrap(name: &'static str, platform: &Platform, job: Job, inner: M, adapt: bool) -> Self {
        let p = platform.len();
        let next_id = inner.max_planned_id().map_or(0, |id| id + 1);
        let est = CostEstimator::new(
            platform.workers().iter().map(|s| s.c).collect(),
            platform.workers().iter().map(|s| s.w).collect(),
        );
        AdaptiveMaster {
            name,
            inner,
            adapt,
            costs: Costs {
                platform: platform.clone(),
                job,
                est,
                up: vec![true; p],
            },
            pending_sends: HashMap::new(),
            step_ready: HashMap::new(),
            last_step_done: vec![0.0; p],
            retrieved: Vec::new(),
            heal: Healer::default(),
            next_id,
            rebalance_due: false,
            stats: AdaptiveStats::default(),
        }
    }

    /// Adaptive-layer counters.
    pub fn stats(&self) -> AdaptiveStats {
        AdaptiveStats {
            reassigned_chunks: self.heal.replanned(),
            ..self.stats
        }
    }

    /// Geometries of the chunks actually retrieved — on a completed run
    /// these tile C exactly, whatever was lost and re-planned on the way.
    pub fn retrieved_geoms(&self) -> Vec<ChunkGeom> {
        self.retrieved
            .iter()
            .filter_map(|id| self.inner.chunk_geom(*id))
            .collect()
    }

    /// Redistributes every unsent chunk over the surviving workers by
    /// estimated completion time (min-min under `(ĉ, ŵ)`).
    fn rebalance(&mut self) {
        self.stats.rebalances += 1;
        let p = self.costs.platform.len();
        let mut pool: Vec<PlannedChunk> = Vec::new();
        for w in 0..p {
            pool.extend(self.inner.drain_lane(w));
        }
        pool.sort_by_key(|pc| pc.geom.id);
        // Stranded orphans get another chance on the current roster —
        // placed exactly once (the healer enqueues directly to a lane;
        // lanes were already drained, so the min-min pass below won't
        // touch them again).
        let place = |m: &M, g: &ChunkGeom| self.costs.place(m, g);
        self.heal.retry(&mut self.inner, place, &mut self.next_id);
        if pool.is_empty() {
            self.costs.est.rebase();
            return;
        }

        // Min-min over estimated completion times, sharing the one port.
        let costs = &self.costs;
        let mut link = 0.0f64;
        let mut ready: Vec<f64> = (0..p).map(|w| costs.backlog(&self.inner, w)).collect();
        for pc in pool {
            let geom = pc.geom;
            let choice = (0..p)
                .filter(|&w| costs.up[w] && costs.fits(w, &geom))
                .map(|w| {
                    let io = (pc.descr.total_blocks_in() + pc.descr.c_blocks) as f64;
                    let t_comm = io * costs.est.effective_c(w);
                    let t_comp = pc.descr.total_updates() as f64 * costs.est.effective_w(w);
                    let start = link.max(ready[w]);
                    (start + t_comm + t_comp, t_comm, w)
                })
                .min_by(|a, b| a.0.total_cmp(&b.0).then(a.2.cmp(&b.2)));
            let Some((completion, t_comm, w)) = choice else {
                self.heal.strand(geom);
                continue;
            };
            link = link.max(ready[w]) + t_comm;
            ready[w] = completion;
            if w == geom.worker {
                self.inner.enqueue_chunk(pc); // unchanged: keep its id
            } else {
                let id = self.next_id;
                self.next_id += 1;
                let repl = plan_chunk(
                    &costs.job,
                    id,
                    w,
                    geom.i0,
                    geom.j0,
                    geom.h,
                    geom.w,
                    geom.k_depth,
                );
                self.inner.enqueue_chunk(repl);
            }
        }
        self.costs.est.rebase();
    }
}

impl AdaptiveMaster {
    /// The paper's `Het` plan under full adaptation: EWMA estimation,
    /// drift-triggered re-balancing, crash recovery.
    pub fn adaptive_het(platform: &Platform, job: &Job) -> Result<Self, BuildError> {
        let inner = build_policy(platform, job, Algorithm::Het)?;
        Ok(AdaptiveMaster::wrap(
            "AdaptiveHet",
            platform,
            *job,
            inner,
            true,
        ))
    }

    /// The paper's *static* `Het` plan with crash recovery only — the
    /// baseline `AdaptiveHet` is measured against on dynamic platforms.
    pub fn guarded_het(platform: &Platform, job: &Job) -> Result<Self, BuildError> {
        let inner = build_policy(platform, job, Algorithm::Het)?;
        Ok(AdaptiveMaster::wrap(
            "HetGuard", platform, *job, inner, false,
        ))
    }
}

impl<M: QueueSurgery> GeometryAccess for AdaptiveMaster<M> {
    fn chunk_geom(&self, id: ChunkId) -> Option<ChunkGeom> {
        self.inner.chunk_geom(id)
    }

    fn job_dims(&self) -> Job {
        self.inner.job_dims()
    }
}

impl<M: QueueSurgery> MasterPolicy for AdaptiveMaster<M> {
    fn next_action(&mut self, ctx: &SimCtx) -> Action {
        for (w, up) in self.costs.up.iter_mut().enumerate() {
            *up = ctx.is_up(w);
        }
        let place = |m: &M, g: &ChunkGeom| self.costs.place(m, g);
        let up = &self.costs.up;
        self.heal
            .sweep(&mut self.inner, up, place, &mut self.next_id);
        if self.rebalance_due {
            self.rebalance_due = false;
            self.rebalance();
        }
        let action = self.inner.next_action(ctx);
        match action {
            Action::Send {
                worker, fragment, ..
            } => {
                debug_assert!(self.costs.up[worker], "inner offered a downed lane");
                self.pending_sends.insert(
                    (worker, fragment.chunk, fragment.step, fragment.kind),
                    (fragment.blocks, ctx.now()),
                );
                action
            }
            Action::Finished if !self.heal.may_finish() => Action::Wait,
            other => other,
        }
    }

    fn on_event(&mut self, ev: &SimEvent, ctx: &SimCtx) {
        match *ev {
            SimEvent::SendDone { worker, fragment } => {
                let key = (worker, fragment.chunk, fragment.step, fragment.kind);
                if let Some((blocks, issued_at)) = self.pending_sends.remove(&key) {
                    if self.adapt {
                        // A static plan does not calibrate online; only
                        // the adaptive master learns from observations.
                        self.costs
                            .est
                            .observe_transfer(worker, blocks, ctx.now() - issued_at);
                    }
                }
                // The A fragment completes a step's operand pair (B is
                // sent first): remember when compute *could* start — for
                // the chunk the lane still streams, not one a crash lost
                // while the fragment was on the wire.
                let streamed = self.inner.active_chunk_on(worker);
                if fragment.kind == MatKind::A
                    && streamed.is_some_and(|pc| pc.descr.id == fragment.chunk)
                {
                    self.step_ready
                        .insert((fragment.chunk, fragment.step), ctx.now());
                }
                self.inner.on_event(ev, ctx);
                if self.adapt && self.costs.est.max_drift() > DRIFT_THRESHOLD {
                    self.rebalance_due = true;
                }
            }
            SimEvent::StepDone {
                worker,
                chunk,
                step,
            } => {
                let ready = self
                    .step_ready
                    .remove(&(chunk, step))
                    .unwrap_or_else(|| ctx.now());
                let start = ready.max(self.last_step_done[worker]);
                self.last_step_done[worker] = ctx.now();
                if self.adapt {
                    // Steps only complete for the chunk the lane streams.
                    if let Some(pc) = self.inner.active_chunk_on(worker) {
                        let updates = pc.descr.updates_for(step);
                        self.costs
                            .est
                            .observe_compute(worker, updates, ctx.now() - start);
                    }
                }
                self.inner.on_event(ev, ctx);
                if self.adapt && self.costs.est.max_drift() > DRIFT_THRESHOLD {
                    self.rebalance_due = true;
                }
            }
            SimEvent::ChunkComputed { .. } => self.inner.on_event(ev, ctx),
            SimEvent::RetrieveDone { chunk, .. } => {
                self.retrieved.push(chunk);
                self.inner.on_event(ev, ctx);
            }
            SimEvent::WorkerDown { worker } => {
                self.stats.crashes += 1;
                self.costs.up[worker] = false;
                self.last_step_done[worker] = ctx.now();
                // Transfers to the dead lane never complete; stop
                // timing them.
                self.pending_sends.retain(|k, _| k.0 != worker);
            }
            SimEvent::WorkerUp { worker } => {
                self.stats.joins += 1;
                self.costs.up[worker] = true;
                self.last_step_done[worker] = ctx.now();
                if self.adapt {
                    // Fold the newcomer into the balance.
                    self.rebalance_due = true;
                }
            }
            SimEvent::ChunkLost { chunk, .. } => {
                self.step_ready.retain(|(c, _), _| *c != chunk);
            }
            // Single-job policy: job streams are not its concern.
            SimEvent::JobArrived { .. } | SimEvent::JobCompleted { .. } => {}
        }
        // Crashes, rejoins and losses heal the lanes.
        let place = |m: &M, g: &ChunkGeom| self.costs.place(m, g);
        self.heal
            .on_event(&mut self.inner, ev, place, &mut self.next_id);
    }

    fn name(&self) -> &'static str {
        self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stargemm_platform::dynamic::{DynProfile, Trace, WorkerDyn};
    use stargemm_platform::WorkerSpec;
    use stargemm_sim::Simulator;

    fn platform() -> Platform {
        Platform::new(
            "adaptive-test",
            vec![
                WorkerSpec::new(0.2, 0.1, 80),
                WorkerSpec::new(0.4, 0.2, 40),
                WorkerSpec::new(0.8, 0.4, 40),
            ],
        )
    }

    fn job() -> Job {
        Job::new(8, 6, 12, 2)
    }

    #[test]
    fn static_limit_matches_the_wrapped_plan_exactly() {
        let (p, j) = (platform(), job());
        let mut het = build_policy(&p, &j, Algorithm::Het).unwrap();
        let base = Simulator::new(p.clone()).run(&mut het).unwrap();

        let mut adaptive = AdaptiveMaster::adaptive_het(&p, &j).unwrap();
        let dyn_stats = Simulator::new(p.clone())
            .with_profile(DynProfile::constant(p.len()))
            .run(&mut adaptive)
            .unwrap();

        assert_eq!(base.makespan, dyn_stats.makespan);
        assert_eq!(base.per_worker, dyn_stats.per_worker);
        assert_eq!(adaptive.stats(), AdaptiveStats::default());
    }

    #[test]
    fn crash_mid_run_is_recovered_with_full_coverage() {
        let (p, j) = (platform(), job());
        // Worker 0 (the strongest) dies at t = 30 for good.
        let profile = DynProfile::new(vec![
            WorkerDyn::new(
                Trace::default(),
                Trace::default(),
                vec![(30.0, f64::INFINITY)],
            ),
            WorkerDyn::stable(),
            WorkerDyn::stable(),
        ]);
        let mut adaptive = AdaptiveMaster::adaptive_het(&p, &j).unwrap();
        let stats = Simulator::new(p.clone())
            .with_profile(profile)
            .run(&mut adaptive)
            .unwrap();
        assert!(adaptive.stats().crashes == 1);
        assert!(adaptive.stats().reassigned_chunks > 0);
        // The retrieved chunks tile C exactly despite the loss.
        stargemm_core::geometry::validate_coverage(&j, &adaptive.retrieved_geoms()).unwrap();
        // Total updates exceed the static count: lost work was redone.
        assert!(stats.total_updates >= j.total_updates());
    }

    #[test]
    fn guarded_het_also_survives_the_crash() {
        let (p, j) = (platform(), job());
        let profile = DynProfile::new(vec![
            WorkerDyn::new(
                Trace::default(),
                Trace::default(),
                vec![(30.0, f64::INFINITY)],
            ),
            WorkerDyn::stable(),
            WorkerDyn::stable(),
        ]);
        let mut guard = AdaptiveMaster::guarded_het(&p, &j).unwrap();
        Simulator::new(p.clone())
            .with_profile(profile)
            .run(&mut guard)
            .unwrap();
        stargemm_core::geometry::validate_coverage(&j, &guard.retrieved_geoms()).unwrap();
        assert_eq!(guard.stats().rebalances, 0, "guard must not adapt");
    }

    #[test]
    fn bandwidth_drift_triggers_a_rebalance() {
        let (p, j) = (platform(), job());
        // Worker 0's link degrades ×12 at t = 20 — the original plan
        // leans on it heavily, so estimates drift and a rebalance fires.
        let profile = DynProfile::new(vec![
            WorkerDyn::new(
                Trace::new(vec![(0.0, 1.0), (20.0, 12.0)]),
                Trace::default(),
                vec![],
            ),
            WorkerDyn::stable(),
            WorkerDyn::stable(),
        ]);
        let mut adaptive = AdaptiveMaster::adaptive_het(&p, &j).unwrap();
        Simulator::new(p.clone())
            .with_profile(profile)
            .run(&mut adaptive)
            .unwrap();
        stargemm_core::geometry::validate_coverage(&j, &adaptive.retrieved_geoms()).unwrap();
        assert!(adaptive.stats().rebalances > 0, "{:?}", adaptive.stats());
    }

    #[test]
    fn late_joiner_gets_work() {
        let (p, j) = (platform(), Job::new(8, 6, 24, 2));
        // Worker 2 is absent until t = 5, then joins.
        let profile = DynProfile::new(vec![
            WorkerDyn::stable(),
            WorkerDyn::stable(),
            WorkerDyn::new(Trace::default(), Trace::default(), vec![(0.0, 5.0)]),
        ]);
        let mut adaptive = AdaptiveMaster::adaptive_het(&p, &j).unwrap();
        let stats = Simulator::new(p.clone())
            .with_profile(profile)
            .run(&mut adaptive)
            .unwrap();
        assert_eq!(adaptive.stats().joins, 1);
        stargemm_core::geometry::validate_coverage(&j, &adaptive.retrieved_geoms()).unwrap();
        let _ = stats;
    }

    #[test]
    fn a_blackout_strands_the_work_until_a_worker_rejoins() {
        // Every worker is down from t = 0 and worker 1 returns at t = 5.
        // The static guard never re-balances: only the stranded retry on
        // the rejoin puts the work back on a lane.
        let (p, j) = (platform(), job());
        let down = |back| WorkerDyn::new(Trace::default(), Trace::default(), vec![(0.0, back)]);
        let profile = DynProfile::new(vec![down(f64::INFINITY), down(5.0), down(f64::INFINITY)]);
        let mut guard = AdaptiveMaster::guarded_het(&p, &j).unwrap();
        Simulator::new(p.clone())
            .with_profile(profile)
            .run(&mut guard)
            .unwrap();
        stargemm_core::geometry::validate_coverage(&j, &guard.retrieved_geoms()).unwrap();
        assert_eq!(guard.stats().joins, 1);
    }

    #[test]
    fn a_worker_down_empties_its_lane_before_any_loss_arrives() {
        // The WorkerDown alone, ahead of its ChunkLost events, leaves the
        // dead lane with nothing active and nothing queued.
        let (p, j) = (platform(), job());
        let mut ledger = stargemm_sim::StarLedger::new(&p, None);
        let mut guard = AdaptiveMaster::guarded_het(&p, &j).unwrap();
        let Action::Send { worker, .. } = guard.next_action(&ledger.ctx(0.0)) else {
            panic!("the plan opens a chunk first");
        };
        assert!(guard.inner.active_chunk_on(worker).is_some());
        ledger.crash(worker);
        guard.on_event(&SimEvent::WorkerDown { worker }, &ledger.ctx(1.0));
        assert!(guard.inner.active_chunk_on(worker).is_none());
        assert_eq!(guard.inner.queued_chunks(worker).count(), 0);
    }
}
