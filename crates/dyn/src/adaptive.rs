//! The adaptive streaming master: crash recovery plus online
//! re-balancing on top of any statically planned [`StreamingMaster`].
//!
//! [`AdaptiveMaster`] wraps the paper's `Het` plan (or any other static
//! streaming policy) and adds the three behaviours a *dynamic* platform
//! demands:
//!
//! 1. **Crash recovery** — when the engine reports a worker down, the
//!    wrapper drains the dead lane's queue and re-plans every chunk the
//!    crash orphaned (queued or destroyed mid-flight) onto surviving
//!    workers, with fresh chunk ids covering the same C regions. This
//!    alone makes the *static* plan terminate correctly under churn
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

use std::collections::{HashMap, HashSet};

use stargemm_core::algorithms::{build_policy, Algorithm, BuildError};
use stargemm_core::geometry::{plan_chunk, ChunkGeom, PlannedChunk};
use stargemm_core::stream::{GeometryAccess, StreamingMaster};
use stargemm_core::Job;
use stargemm_platform::Platform;
use stargemm_sim::{
    Action, ChunkDescr, ChunkId, ChunkMap, MasterPolicy, MatKind, SimCtx, SimEvent, StepId,
};

use crate::estimate::CostEstimator;

/// Tuning of the adaptive layer.
#[derive(Clone, Copy, Debug)]
pub struct AdaptiveConfig {
    /// Enable estimation-driven re-balancing (`false` = crash recovery
    /// only; the static plan is never second-guessed).
    pub adapt: bool,
    /// EWMA smoothing weight for cost observations.
    pub alpha: f64,
    /// Relative deviation of an estimate from its baseline that triggers
    /// a re-balance.
    pub drift_threshold: f64,
    /// Observations before an estimate is trusted (and its baseline is
    /// anchored).
    pub min_obs: u32,
    /// Observations shorter than this many engine-clock seconds are
    /// discarded as measurement noise.
    pub min_sample: f64,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            adapt: true,
            alpha: 0.5,
            drift_threshold: 0.25,
            // One accepted observation suffices: model-time measurements
            // are exact and wall-clock noise is already filtered by
            // `min_sample`. Rebasing after each rebalance prevents
            // thrash.
            min_obs: 1,
            min_sample: 1e-3,
        }
    }
}

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

/// See the module docs.
pub struct AdaptiveMaster {
    name: &'static str,
    inner: StreamingMaster,
    cfg: AdaptiveConfig,
    platform: Platform,
    job: Job,
    est: CostEstimator,
    up: Vec<bool>,
    /// In-flight transfers being timed: `(blocks, issued_at)` by key.
    pending_sends: HashMap<PendingSendKey, (u64, f64)>,
    /// Engine descriptors of every chunk ever issued or queued.
    descrs: ChunkMap<ChunkDescr>,
    /// Arrival time of the A fragment completing a step's operands.
    step_ready: HashMap<(ChunkId, StepId), f64>,
    /// Time each worker's last compute step finished.
    last_step_done: Vec<f64>,
    /// Chunks destroyed by crashes.
    lost: HashSet<ChunkId>,
    /// Chunk ids successfully retrieved.
    retrieved: Vec<ChunkId>,
    /// Orphans no surviving worker can currently hold (memory): parked
    /// until a worker rejoins.
    stranded: Vec<ChunkGeom>,
    next_id: ChunkId,
    rebalance_due: bool,
    stats: AdaptiveStats,
}

impl AdaptiveMaster {
    /// Wraps an existing statically planned streaming master.
    pub fn wrap(
        name: &'static str,
        platform: &Platform,
        job: Job,
        inner: StreamingMaster,
        cfg: AdaptiveConfig,
    ) -> Self {
        let p = platform.len();
        let next_id = inner.max_planned_id().map_or(0, |id| id + 1);
        let mut descrs = ChunkMap::default();
        for w in 0..p {
            for pc in inner.queued_chunks(w) {
                descrs.insert(pc.descr.id, pc.descr);
            }
        }
        let est = CostEstimator::new(
            platform.workers().iter().map(|s| s.c).collect(),
            platform.workers().iter().map(|s| s.w).collect(),
            cfg.alpha,
            cfg.min_obs,
            cfg.min_sample,
        );
        AdaptiveMaster {
            name,
            inner,
            cfg,
            platform: platform.clone(),
            job,
            est,
            up: vec![true; p],
            pending_sends: HashMap::new(),
            descrs,
            step_ready: HashMap::new(),
            last_step_done: vec![0.0; p],
            lost: HashSet::new(),
            retrieved: Vec::new(),
            stranded: Vec::new(),
            next_id,
            rebalance_due: false,
            stats: AdaptiveStats::default(),
        }
    }

    /// The paper's `Het` plan under full adaptation: EWMA estimation,
    /// drift-triggered re-balancing, crash recovery.
    pub fn adaptive_het(platform: &Platform, job: &Job) -> Result<Self, BuildError> {
        let inner = build_policy(platform, job, Algorithm::Het)?;
        Ok(AdaptiveMaster::wrap(
            "AdaptiveHet",
            platform,
            *job,
            inner,
            AdaptiveConfig::default(),
        ))
    }

    /// The paper's *static* `Het` plan with crash recovery only — the
    /// baseline `AdaptiveHet` is measured against on dynamic platforms.
    pub fn guarded_het(platform: &Platform, job: &Job) -> Result<Self, BuildError> {
        let inner = build_policy(platform, job, Algorithm::Het)?;
        Ok(AdaptiveMaster::wrap(
            "HetGuard",
            platform,
            *job,
            inner,
            AdaptiveConfig {
                adapt: false,
                ..AdaptiveConfig::default()
            },
        ))
    }

    /// Adaptive-layer counters.
    pub fn stats(&self) -> AdaptiveStats {
        self.stats
    }

    /// The cost estimator (estimates are in the driving engine's clock).
    pub fn estimator(&self) -> &CostEstimator {
        &self.est
    }

    /// Geometries of the chunks actually retrieved — on a completed run
    /// these tile C exactly, whatever was lost and re-planned on the way.
    pub fn retrieved_geoms(&self) -> Vec<ChunkGeom> {
        self.retrieved
            .iter()
            .filter_map(|id| self.inner.chunk_geom(*id))
            .collect()
    }

    /// Estimated cost of fully processing `descr` on worker `w`.
    fn chunk_cost(&self, w: usize, descr: &ChunkDescr) -> f64 {
        let io_blocks = (descr.total_blocks_in() + descr.c_blocks) as f64;
        io_blocks * self.est.effective_c(w) + descr.total_updates() as f64 * self.est.effective_w(w)
    }

    /// Estimated backlog (active + queued) of worker `w`.
    fn backlog(&self, w: usize) -> f64 {
        let mut load = 0.0;
        if let Some(active) = self.inner.active_chunk_on(w) {
            load += self.chunk_cost(w, &active.descr);
        }
        for pc in self.inner.queued_chunks(w) {
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

    /// Largest square tile side a worker with `m` buffers can stream
    /// with double-buffered step fragments of depth `d`
    /// (`s² + 4·s·d ≤ m`), capped by the region.
    fn max_side(m: usize, d: usize, cap: usize) -> usize {
        (1..=cap)
            .rev()
            .find(|&s| s * s + 4 * s * d <= m)
            .unwrap_or(0)
    }

    /// Re-plans a lost region on the best surviving worker, splitting it
    /// into tiles the target's memory can hold (an orphan from a
    /// big-memory worker rarely fits a small survivor whole).
    fn replan(&mut self, geom: ChunkGeom) {
        let target = (0..self.platform.len())
            .filter(|&w| {
                self.up[w]
                    && Self::max_side(self.platform.worker(w).m, geom.k_depth, geom.h.max(geom.w))
                        > 0
            })
            .min_by(|&a, &b| {
                let ca = self.backlog(a) + self.chunk_cost_region(a, &geom);
                let cb = self.backlog(b) + self.chunk_cost_region(b, &geom);
                ca.total_cmp(&cb).then(a.cmp(&b))
            });
        let Some(target) = target else {
            // Nobody alive can hold the region right now; park it until
            // a worker rejoins.
            self.stranded.push(geom);
            return;
        };
        if self.fits(target, &geom) {
            self.replan_tile(target, geom.i0, geom.j0, geom.h, geom.w, geom.k_depth);
            return;
        }
        let side = Self::max_side(
            self.platform.worker(target).m,
            geom.k_depth,
            geom.h.max(geom.w),
        );
        let mut i0 = geom.i0;
        while i0 < geom.i0 + geom.h {
            let h = side.min(geom.i0 + geom.h - i0);
            let mut j0 = geom.j0;
            while j0 < geom.j0 + geom.w {
                let w = side.min(geom.j0 + geom.w - j0);
                self.replan_tile(target, i0, j0, h, w, geom.k_depth);
                j0 += w;
            }
            i0 += h;
        }
    }

    fn replan_tile(&mut self, target: usize, i0: usize, j0: usize, h: usize, w: usize, d: usize) {
        let id = self.next_id;
        self.next_id += 1;
        let pc = plan_chunk(&self.job, id, target, i0, j0, h, w, d);
        self.descrs.insert(id, pc.descr);
        self.inner.enqueue_chunk(pc);
        self.stats.reassigned_chunks += 1;
    }

    /// Cost of a region without materializing its descriptor: C in+out
    /// plus `t·(h+w)` operand blocks, and `h·w·t` updates.
    fn chunk_cost_region(&self, w: usize, geom: &ChunkGeom) -> f64 {
        let io = 2.0 * (geom.h * geom.w) as f64 + (self.job.t * (geom.h + geom.w)) as f64;
        io * self.est.effective_c(w)
            + (geom.h * geom.w * self.job.t) as f64 * self.est.effective_w(w)
    }

    /// Syncs liveness from the engine and evacuates lanes of workers
    /// that are down *now* — including workers down from `t = 0`, for
    /// which no lifecycle event ever fires.
    fn quarantine_down_lanes(&mut self, ctx: &SimCtx) {
        for w in 0..self.platform.len() {
            self.up[w] = ctx.is_up(w);
        }
        for w in 0..self.platform.len() {
            if self.up[w] {
                continue;
            }
            let orphans = self.inner.drain_lane(w);
            for pc in orphans {
                self.replan(pc.geom);
            }
        }
    }

    /// Redistributes every unsent chunk over the surviving workers by
    /// estimated completion time (min-min under `(ĉ, ŵ)`).
    fn rebalance(&mut self) {
        self.stats.rebalances += 1;
        let p = self.platform.len();
        let mut pool: Vec<PlannedChunk> = Vec::new();
        for w in 0..p {
            pool.extend(self.inner.drain_lane(w));
        }
        pool.sort_by_key(|pc| pc.geom.id);
        // Stranded orphans get another chance on the current roster —
        // placed exactly once (replan enqueues directly to a lane; lanes
        // were already drained, so the min-min pass below won't touch
        // them again).
        let stranded = std::mem::take(&mut self.stranded);
        for geom in stranded {
            self.replan(geom);
        }
        if pool.is_empty() {
            self.est.rebase();
            return;
        }

        // Min-min over estimated completion times, sharing the one port.
        let mut link = 0.0f64;
        let mut ready: Vec<f64> = (0..p).map(|w| self.backlog(w)).collect();
        for pc in pool {
            let geom = pc.geom;
            let choice = (0..p)
                .filter(|&w| self.up[w] && self.fits(w, &geom))
                .map(|w| {
                    let io = (pc.descr.total_blocks_in() + pc.descr.c_blocks) as f64;
                    let t_comm = io * self.est.effective_c(w);
                    let t_comp = pc.descr.total_updates() as f64 * self.est.effective_w(w);
                    let start = link.max(ready[w]);
                    (start + t_comm + t_comp, t_comm, w)
                })
                .min_by(|a, b| a.0.total_cmp(&b.0).then(a.2.cmp(&b.2)));
            let Some((completion, t_comm, w)) = choice else {
                self.stranded.push(geom);
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
                    &self.job,
                    id,
                    w,
                    geom.i0,
                    geom.j0,
                    geom.h,
                    geom.w,
                    geom.k_depth,
                );
                self.descrs.insert(id, repl.descr);
                self.inner.enqueue_chunk(repl);
            }
        }
        self.est.rebase();
    }
}

impl GeometryAccess for AdaptiveMaster {
    fn chunk_geom(&self, id: ChunkId) -> Option<ChunkGeom> {
        self.inner.chunk_geom(id)
    }

    fn job_dims(&self) -> Job {
        self.inner.job_dims()
    }
}

impl MasterPolicy for AdaptiveMaster {
    fn next_action(&mut self, ctx: &SimCtx) -> Action {
        self.quarantine_down_lanes(ctx);
        if self.rebalance_due {
            self.rebalance_due = false;
            self.rebalance();
        }
        let action = self.inner.next_action(ctx);
        match action {
            Action::Send {
                worker,
                fragment,
                new_chunk,
            } => {
                debug_assert!(self.up[worker], "inner offered a downed lane");
                if let Some(d) = new_chunk {
                    self.descrs.insert(d.id, d);
                }
                self.pending_sends.insert(
                    (worker, fragment.chunk, fragment.step, fragment.kind),
                    (fragment.blocks, ctx.now()),
                );
                action
            }
            Action::Finished if !self.stranded.is_empty() => {
                // Regions are parked with no surviving host: the run is
                // not complete. Wait for a rejoin (or let the engine
                // diagnose the deadlock — the honest outcome when the
                // platform lost the capacity to finish the job).
                Action::Wait
            }
            other => other,
        }
    }

    fn on_event(&mut self, ev: &SimEvent, ctx: &SimCtx) {
        match *ev {
            SimEvent::SendDone { worker, fragment } => {
                let key = (worker, fragment.chunk, fragment.step, fragment.kind);
                if let Some((blocks, issued_at)) = self.pending_sends.remove(&key) {
                    if self.cfg.adapt {
                        // A static plan does not calibrate online; only
                        // the adaptive master learns from observations.
                        self.est
                            .observe_transfer(worker, blocks, ctx.now() - issued_at);
                    }
                }
                // The A fragment completes a step's operand pair (B is
                // sent first): remember when compute *could* start.
                if fragment.kind == MatKind::A && !self.lost.contains(&fragment.chunk) {
                    self.step_ready
                        .insert((fragment.chunk, fragment.step), ctx.now());
                }
                self.inner.on_event(ev, ctx);
                if self.cfg.adapt && self.est.max_drift() > self.cfg.drift_threshold {
                    self.rebalance_due = true;
                }
            }
            SimEvent::StepDone {
                worker,
                chunk,
                step,
            } => {
                if self.lost.contains(&chunk) {
                    return;
                }
                let ready = self
                    .step_ready
                    .remove(&(chunk, step))
                    .unwrap_or_else(|| ctx.now());
                let start = ready.max(self.last_step_done[worker]);
                self.last_step_done[worker] = ctx.now();
                if self.cfg.adapt {
                    if let Some(d) = self.descrs.get(&chunk) {
                        self.est
                            .observe_compute(worker, d.updates_for(step), ctx.now() - start);
                    }
                }
                self.inner.on_event(ev, ctx);
                if self.cfg.adapt && self.est.max_drift() > self.cfg.drift_threshold {
                    self.rebalance_due = true;
                }
            }
            SimEvent::ChunkComputed { chunk, .. } => {
                if self.lost.contains(&chunk) {
                    return;
                }
                self.inner.on_event(ev, ctx);
            }
            SimEvent::RetrieveDone { chunk, .. } => {
                self.retrieved.push(chunk);
                self.inner.on_event(ev, ctx);
            }
            SimEvent::WorkerDown { worker } => {
                self.stats.crashes += 1;
                self.up[worker] = false;
                self.last_step_done[worker] = ctx.now();
                // Transfers to the dead lane never complete; stop
                // timing them.
                self.pending_sends.retain(|k, _| k.0 != worker);
                // Unsent chunks of the dead lane survive on the master:
                // re-plan them elsewhere right away. The active chunk's
                // loss arrives as its own ChunkLost event.
                let orphans = self.inner.drain_lane(worker);
                self.inner.clear_active(worker);
                for pc in orphans {
                    self.replan(pc.geom);
                }
            }
            SimEvent::WorkerUp { worker } => {
                self.stats.joins += 1;
                self.up[worker] = true;
                self.last_step_done[worker] = ctx.now();
                let stranded = std::mem::take(&mut self.stranded);
                for geom in stranded {
                    self.replan(geom);
                }
                if self.cfg.adapt {
                    // Fold the newcomer into the balance.
                    self.rebalance_due = true;
                }
            }
            SimEvent::ChunkLost { chunk, .. } => {
                if !self.lost.insert(chunk) {
                    return;
                }
                self.step_ready.retain(|(c, _), _| *c != chunk);
                if let Some(geom) = self.inner.chunk_geom(chunk) {
                    self.replan(geom);
                }
            }
            // Single-job policy: job streams are not its concern.
            SimEvent::JobArrived { .. } | SimEvent::JobCompleted { .. } => {}
        }
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
}
