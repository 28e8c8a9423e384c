//! The demand-driven `StreamingMaster` keeps its ready lanes and reads
//! a lane's gate only when the lane changes. The master it replaced
//! re-read every lane's gate at every decision, carving a strip from
//! the pool for each starved lane it passed; that scanning master lives
//! on here, written out on its own, as the oracle. Over random static
//! queues (both servings, windows 1 and 2), dynamic pools with workers
//! too small to serve, queue surgery between decisions and
//! `AdaptiveMaster` on random crash scenarios, the two must produce the
//! same policy-visible callback log and the same `RunStats`.

mod common;

use std::collections::{BTreeMap, VecDeque};

use common::{Callback, Logged};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use stargemm::core::assign::layout_sides;
use stargemm::core::geometry::{carve_strip, plan_chunk, ChunkGeom, PlannedChunk};
use stargemm::core::select_het::{allocate, SelectionVariant};
use stargemm::core::stream::{DynamicPool, GeometryAccess, QueueSurgery, Serving, StreamingMaster};
use stargemm::core::Job;
use stargemm::dynamic::{random_scenario, AdaptiveMaster, ScenarioConfig};
use stargemm::platform::{DynPlatform, Platform, WorkerSpec};
use stargemm::sim::{Action, ChunkId, Fragment, MasterPolicy, SimCtx, SimEvent, Simulator, StepId};

// ----------------------------------------------------------------------
// The oracle: the scanning master.
// ----------------------------------------------------------------------

struct ScanPool {
    job: Job,
    sides: Vec<usize>,
    k_depths: Vec<usize>,
    next_col: usize,
    next_id: ChunkId,
}

struct ScanActive {
    pc: PlannedChunk,
    steps_sent: StepId,
    b_sent: bool,
    steps_done: StepId,
    computed: bool,
    retrieve_issued: bool,
}

#[derive(Default)]
struct ScanLane {
    queue: VecDeque<PlannedChunk>,
    active: Option<ScanActive>,
}

#[derive(Clone, Copy)]
enum Need {
    OpenChunk,
    StepB(StepId),
    StepA(StepId),
    Retrieve,
}

enum Gate {
    Ready(Need),
    Blocked,
    Exhausted,
}

struct ScanMaster {
    name: &'static str,
    job: Job,
    lanes: Vec<ScanLane>,
    pool: Option<ScanPool>,
    serving: Serving,
    window: StepId,
    rr: usize,
    geoms: BTreeMap<ChunkId, ChunkGeom>,
}

impl ScanMaster {
    fn new_static(
        name: &'static str,
        job: Job,
        queues: Vec<Vec<PlannedChunk>>,
        serving: Serving,
        window: StepId,
    ) -> Self {
        let geoms = queues
            .iter()
            .flatten()
            .map(|pc| (pc.geom.id, pc.geom))
            .collect();
        let lanes = queues
            .into_iter()
            .map(|q| ScanLane {
                queue: q.into(),
                active: None,
            })
            .collect();
        ScanMaster {
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

    fn new_dynamic(
        name: &'static str,
        job: Job,
        sides: Vec<usize>,
        k_depths: Vec<usize>,
        serving: Serving,
        window: StepId,
    ) -> Self {
        ScanMaster {
            name,
            job,
            lanes: sides.iter().map(|_| ScanLane::default()).collect(),
            pool: Some(ScanPool {
                job,
                sides,
                k_depths,
                next_col: 0,
                next_id: 0,
            }),
            serving,
            window,
            rr: 0,
            geoms: BTreeMap::new(),
        }
    }

    /// Lane `w`'s gate, pulling from the pool if the lane is starved.
    fn gate(&mut self, w: usize, allow_blocking_retrieve: bool) -> Gate {
        if self.lanes[w].active.is_none() && self.lanes[w].queue.is_empty() {
            if let Some(pool) = self.pool.as_mut() {
                if pool.sides[w] > 0 {
                    if let Some(strip) = carve_strip(
                        &pool.job,
                        w,
                        pool.sides[w],
                        pool.k_depths[w],
                        &mut pool.next_col,
                        &mut pool.next_id,
                    ) {
                        for pc in &strip {
                            self.geoms.insert(pc.geom.id, pc.geom);
                        }
                        self.lanes[w].queue.extend(strip);
                    }
                }
            }
        }
        let lane = &self.lanes[w];
        let Some(a) = &lane.active else {
            return if lane.queue.is_empty() {
                Gate::Exhausted
            } else {
                Gate::Ready(Need::OpenChunk)
            };
        };
        if a.steps_sent < a.pc.descr.steps {
            if a.steps_sent < a.steps_done + self.window {
                let k = a.steps_sent;
                Gate::Ready(if a.b_sent {
                    Need::StepA(k)
                } else {
                    Need::StepB(k)
                })
            } else {
                Gate::Blocked
            }
        } else if !a.retrieve_issued && (a.computed || allow_blocking_retrieve) {
            Gate::Ready(Need::Retrieve)
        } else {
            Gate::Blocked
        }
    }

    fn issue(&mut self, w: usize, need: Need) -> Action {
        let lane = &mut self.lanes[w];
        if let Need::OpenChunk = need {
            let pc = lane.queue.pop_front().unwrap();
            lane.active = Some(ScanActive {
                pc,
                steps_sent: 0,
                b_sent: false,
                steps_done: 0,
                computed: false,
                retrieve_issued: false,
            });
            return Action::Send {
                worker: w,
                fragment: Fragment::c_load(&pc.descr),
                new_chunk: Some(pc.descr),
            };
        }
        let a = lane.active.as_mut().unwrap();
        let fragment = match need {
            Need::StepB(k) => {
                a.b_sent = true;
                Fragment::b_step(&a.pc.descr, k)
            }
            Need::StepA(k) => {
                a.b_sent = false;
                a.steps_sent += 1;
                Fragment::a_step(&a.pc.descr, k)
            }
            Need::Retrieve => {
                a.retrieve_issued = true;
                return Action::Retrieve {
                    worker: w,
                    chunk: a.pc.descr.id,
                };
            }
            Need::OpenChunk => unreachable!(),
        };
        Action::Send {
            worker: w,
            fragment,
            new_chunk: None,
        }
    }

    fn all_done(&self) -> bool {
        self.pool.as_ref().is_none_or(|p| p.next_col >= p.job.s)
            && self
                .lanes
                .iter()
                .all(|l| l.active.is_none() && l.queue.is_empty())
    }
}

impl MasterPolicy for ScanMaster {
    fn next_action(&mut self, _ctx: &SimCtx) -> Action {
        let n = self.lanes.len();
        match self.serving {
            Serving::RoundRobin => {
                for _ in 0..n {
                    match self.gate(self.rr, true) {
                        Gate::Exhausted => self.rr = (self.rr + 1) % n,
                        Gate::Blocked => return Action::Wait,
                        Gate::Ready(need) => {
                            let w = self.rr;
                            if !matches!(need, Need::StepB(_)) {
                                self.rr = (self.rr + 1) % n;
                            }
                            return self.issue(w, need);
                        }
                    }
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
                if blocked_any {
                    return Action::Wait;
                }
            }
        }
        if self.all_done() {
            Action::Finished
        } else {
            Action::Wait
        }
    }

    fn on_event(&mut self, ev: &SimEvent, _ctx: &SimCtx) {
        match *ev {
            SimEvent::StepDone { worker, .. } => {
                if let Some(a) = self.lanes[worker].active.as_mut() {
                    a.steps_done += 1;
                }
            }
            SimEvent::ChunkComputed { worker, .. } => {
                if let Some(a) = self.lanes[worker].active.as_mut() {
                    a.computed = true;
                }
            }
            SimEvent::RetrieveDone { worker, .. } => self.lanes[worker].active = None,
            _ => {}
        }
    }

    fn name(&self) -> &'static str {
        self.name
    }
}

impl GeometryAccess for ScanMaster {
    fn chunk_geom(&self, id: ChunkId) -> Option<ChunkGeom> {
        self.geoms.get(&id).copied()
    }

    fn job_dims(&self) -> Job {
        self.job
    }
}

impl QueueSurgery for ScanMaster {
    fn queued_chunks(&self, w: usize) -> impl Iterator<Item = &PlannedChunk> {
        self.lanes[w].queue.iter()
    }

    fn active_chunk_on(&self, w: usize) -> Option<&PlannedChunk> {
        self.lanes[w].active.as_ref().map(|a| &a.pc)
    }

    fn drain_lane(&mut self, w: usize) -> Vec<PlannedChunk> {
        self.lanes[w].queue.drain(..).collect()
    }

    fn clear_active(&mut self, w: usize) -> Option<PlannedChunk> {
        self.lanes[w].active.take().map(|a| a.pc)
    }

    fn enqueue_chunk(&mut self, pc: PlannedChunk) {
        self.geoms.insert(pc.geom.id, pc.geom);
        self.lanes[pc.geom.worker].queue.push_back(pc);
    }

    fn max_planned_id(&self) -> Option<ChunkId> {
        self.geoms.keys().next_back().copied()
    }
}

// ----------------------------------------------------------------------
// Queue surgery between decisions, as the wrappers perform it.
// ----------------------------------------------------------------------

/// Edits the lanes the way the wrappers do. Before some decisions it
/// moves queued chunks to random live lanes — from one lane, or from
/// every lane in id order (`AdaptiveMaster`'s re-balance) — a chunk
/// keeping its id where it lands on its own lane and taking a fresh one
/// elsewhere. When a worker goes down it drains the lane and drops its
/// active chunk, re-planning both on live lanes once, at the event, as
/// `DagMaster` does: no per-decision sweep of the downed lanes (which
/// the crash healer, `stargemm_core::heal::Healer`, runs for
/// `AdaptiveMaster` and `MultiJobMaster`) mends a lane left stale.
/// Seeded, so both masters get the same surgery as long as they
/// decide alike; fresh ids start far above any id a pool carves.
struct Surgeon<M> {
    inner: M,
    job: Job,
    rng: StdRng,
    next_id: ChunkId,
}

impl<M: QueueSurgery> Surgeon<M> {
    fn new(inner: M, job: Job, seed: u64) -> Self {
        Surgeon {
            inner,
            job,
            rng: StdRng::seed_from_u64(seed),
            next_id: 1 << 20,
        }
    }

    /// Re-plans `geom` on a random live lane (keeping `keep` there
    /// verbatim when that lane is its own).
    fn replan(&mut self, geom: ChunkGeom, keep: Option<PlannedChunk>, ctx: &SimCtx) {
        let live: Vec<usize> = (0..ctx.num_workers()).filter(|&w| ctx.is_up(w)).collect();
        let lane = live[self.rng.random_range(0..live.len())];
        match keep {
            Some(pc) if lane == geom.worker => self.inner.enqueue_chunk(pc),
            _ => {
                let (id, g) = (self.next_id, geom);
                self.next_id += 1;
                let pc = plan_chunk(&self.job, id, lane, g.i0, g.j0, g.h, g.w, g.k_depth);
                self.inner.enqueue_chunk(pc);
            }
        }
    }
}

impl<M: QueueSurgery> MasterPolicy for Surgeon<M> {
    fn next_action(&mut self, ctx: &SimCtx) -> Action {
        let p = ctx.num_workers();
        let drained: Vec<PlannedChunk> = match self.rng.random_range(0..12) {
            0 | 1 => {
                let from = self.rng.random_range(0..p);
                self.inner.drain_lane(from)
            }
            2 => {
                let mut all: Vec<_> = (0..p).flat_map(|w| self.inner.drain_lane(w)).collect();
                all.sort_by_key(|pc| pc.geom.id);
                all
            }
            _ => Vec::new(),
        };
        for pc in drained {
            self.replan(pc.geom, Some(pc), ctx);
        }
        self.inner.next_action(ctx)
    }

    fn on_event(&mut self, ev: &SimEvent, ctx: &SimCtx) {
        self.inner.on_event(ev, ctx);
        match *ev {
            SimEvent::WorkerDown { worker } => {
                let orphans = self.inner.drain_lane(worker);
                self.inner.clear_active(worker);
                for pc in orphans {
                    self.replan(pc.geom, None, ctx);
                }
            }
            SimEvent::ChunkLost { chunk, .. } => {
                let geom = self.inner.chunk_geom(chunk).expect("a planned chunk");
                self.replan(geom, None, ctx);
            }
            _ => {}
        }
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

// ----------------------------------------------------------------------
// Runs and their comparison.
// ----------------------------------------------------------------------

type Record = (Vec<Callback>, Result<stargemm::sim::RunStats, String>);

fn record(sim: &Simulator, policy: impl MasterPolicy) -> Record {
    let mut logged = Logged::new(policy);
    let stats = sim.run(&mut logged).map_err(|e| e.to_string());
    (logged.log, stats)
}

/// Fails at the first callback where the runs part, or on different
/// statistics.
fn agree(fast: Record, oracle: Record) -> Result<(), TestCaseError> {
    if let Some(i) = (0..fast.0.len().min(oracle.0.len())).find(|&i| fast.0[i] != oracle.0[i]) {
        return Err(TestCaseError::fail(format!(
            "callback {i}: ready set {:?}, scan {:?}",
            fast.0[i], oracle.0[i]
        )));
    }
    prop_assert_eq!(fast.0.len(), oracle.0.len());
    prop_assert_eq!(fast.1, oracle.1);
    Ok(())
}

fn platform(rng: &mut StdRng, p: usize) -> Platform {
    let specs = (0..p)
        .map(|_| {
            WorkerSpec::new(
                rng.random_range(0.05..2.0),
                rng.random_range(0.05..2.0),
                400,
            )
        })
        .collect();
    Platform::new("oracle", specs)
}

fn job(rng: &mut StdRng) -> Job {
    Job::new(
        rng.random_range(1..9),
        rng.random_range(1..7),
        rng.random_range(1..13),
        2,
    )
}

fn serving(dd: bool) -> Serving {
    if dd {
        Serving::DemandDriven
    } else {
        Serving::RoundRobin
    }
}

/// Column strips of random sides and depths dealt to random workers,
/// some of whom may get none.
fn random_queues(rng: &mut StdRng, job: &Job, p: usize) -> Vec<Vec<PlannedChunk>> {
    let mut queues = vec![Vec::new(); p];
    let (mut col, mut id) = (0, 0);
    loop {
        let w = rng.random_range(0..p);
        let side = rng.random_range(1..5);
        let depth = rng.random_range(1..=job.t.min(3));
        match carve_strip(job, w, side, depth, &mut col, &mut id) {
            Some(strip) => queues[w].extend(strip),
            None => return queues,
        }
    }
}

/// Pool sides in 0..=4 (0 = the worker is never fed) with at least one
/// worker fed, and step depths in 1..=3.
fn random_pool(rng: &mut StdRng, job: &Job, p: usize) -> (Vec<usize>, Vec<usize>) {
    let mut sides: Vec<usize> = (0..p).map(|_| rng.random_range(0..5)).collect();
    let fed = rng.random_range(0..p);
    sides[fed] = sides[fed].max(1);
    let depths = (0..p).map(|_| rng.random_range(1..=job.t.min(3))).collect();
    (sides, depths)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn static_queues_decide_alike(seed in 0u64..u64::MAX, dd in 0usize..2, window in 1u32..3) {
        let mut rng = StdRng::seed_from_u64(seed);
        let p = rng.random_range(1..7);
        let (platform, job) = (platform(&mut rng, p), job(&mut rng));
        let queues = random_queues(&mut rng, &job, p);
        let serving = serving(dd == 1);
        let sim = Simulator::new(platform);
        agree(
            record(&sim, StreamingMaster::new_static("q", job, queues.clone(), serving, window)),
            record(&sim, ScanMaster::new_static("q", job, queues, serving, window)),
        )?;
    }

    #[test]
    fn dynamic_pools_decide_alike(seed in 0u64..u64::MAX, dd in 0usize..2, window in 1u32..3) {
        let mut rng = StdRng::seed_from_u64(seed);
        let p = rng.random_range(1..7);
        let (platform, job) = (platform(&mut rng, p), job(&mut rng));
        let (sides, depths) = random_pool(&mut rng, &job, p);
        let serving = serving(dd == 1);
        let pool = DynamicPool::new(job, sides.clone(), depths.clone());
        let sim = Simulator::new(platform);
        agree(
            record(&sim, StreamingMaster::new_dynamic("pool", job, pool, serving, window)),
            record(&sim, ScanMaster::new_dynamic("pool", job, sides, depths, serving, window)),
        )?;
    }

    /// Pools are run crash-free: a pool feeds a starved lane whether its
    /// worker is up or not, which no wrapper can stop.
    #[test]
    fn queue_surgery_between_decisions_decides_alike(
        seed in 0u64..u64::MAX,
        dd in 0usize..2,
        window in 1u32..3,
        pooled in 0usize..2,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let p = rng.random_range(1..7);
        let (platform, job) = (platform(&mut rng, p), job(&mut rng));
        let serving = serving(dd == 1);
        let (fast, oracle, sim) = if pooled == 1 {
            let (sides, depths) = random_pool(&mut rng, &job, p);
            let pool = DynamicPool::new(job, sides.clone(), depths.clone());
            (
                StreamingMaster::new_dynamic("cut", job, pool, serving, window),
                ScanMaster::new_dynamic("cut", job, sides, depths, serving, window),
                Simulator::new(platform),
            )
        } else {
            let queues = random_queues(&mut rng, &job, p);
            let crashes = ScenarioConfig {
                c_jitter: 1.0,
                w_jitter: 1.0,
                horizon: 60.0,
                crash_prob: 0.6,
                ..ScenarioConfig::default()
            };
            (
                StreamingMaster::new_static("cut", job, queues.clone(), serving, window),
                ScanMaster::new_static("cut", job, queues, serving, window),
                Simulator::new_dyn(random_scenario(&platform, crashes, seed)),
            )
        };
        let fast = record(&sim, Surgeon::new(fast, job, seed));
        prop_assert!(fast.1.is_ok(), "{:?}", fast.1);
        agree(fast, record(&sim, Surgeon::new(oracle, job, seed)))?;
    }
}

fn arb_crash_instance() -> impl Strategy<Value = (DynPlatform, Job, usize, bool)> {
    (
        prop::collection::vec(
            (0.1f64..1.0, 0.05f64..0.5, 20usize..120)
                .prop_map(|(c, w, m)| WorkerSpec::new(c, w, m)),
            2..6,
        ),
        (1.0f64..3.0, 0.0f64..0.8, 0u64..1 << 32),
        (4usize..10, 3usize..8, 4usize..12),
        (0usize..8, 0usize..2),
    )
        .prop_map(
            |(specs, (jitter, crash, seed), (r, t, s), (variant, adapt))| {
                let cfg = ScenarioConfig {
                    c_jitter: jitter,
                    w_jitter: 1.0,
                    crash_prob: crash,
                    rejoin_prob: 0.5,
                    segment_len: 20.0,
                    horizon: 400.0,
                };
                let dp = random_scenario(&Platform::new("crashy", specs), cfg, seed);
                (dp, Job::new(r, t, s, 2), variant, adapt == 1)
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn adaptive_master_on_crash_traces_decides_alike(inst in arb_crash_instance()) {
        let (dp, job, variant, adapt) = inst;
        prop_assume!(layout_sides(&dp.base, &job).iter().any(|&s| s > 0));
        let queues = allocate(&dp.base, &job, SelectionVariant::all()[variant]).queues;
        let dd = Serving::DemandDriven;
        let fast = StreamingMaster::new_static("Het", job, queues.clone(), dd, 2);
        let oracle = ScanMaster::new_static("Het", job, queues, dd, 2);
        let sim = Simulator::new_dyn(dp.clone());
        agree(
            record(&sim, AdaptiveMaster::wrap("AdaptiveHet", &dp.base, job, fast, adapt)),
            record(&sim, AdaptiveMaster::wrap("AdaptiveHet", &dp.base, job, oracle, adapt)),
        )?;
    }
}
