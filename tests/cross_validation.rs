//! Cross-validation of the two execution engines: the `sim`
//! discrete-event simulator and the `net` reactor runtime must realize
//! the *same schedule* for a static policy on a fixed job, and — in the
//! communication-dominated limit where the model's compute term vanishes
//! — the same makespan in wall-clock time.
//!
//! `Algorithm::Het` plans its chunk queues statically from `(platform,
//! job)` alone, so every per-worker communication/compute count must be
//! bit-identical across engines and across repeated runs. The dynamic
//! pool algorithms (ORROML/OMMOML/ODDOML) carve strips by real arrival
//! order and are compared at the volume level in `tests/integration.rs`.

use rand::rngs::StdRng;
use rand::SeedableRng;
use stargemm::core::algorithms::{build_policy, Algorithm};
use stargemm::core::geometry::ChunkGeom;
use stargemm::core::stream::GeometryAccess;
use stargemm::core::Job;
use stargemm::dynamic::model::DynProfile;
use stargemm::dynamic::AdaptiveMaster;
use stargemm::linalg::verify::{tolerance_for, verify_product};
use stargemm::linalg::BlockMatrix;
use stargemm::net::{NetOptions, NetRuntime};
use stargemm::platform::{Platform, WorkerSpec};
use stargemm::sim::{
    Action, ChunkDescr, ChunkId, Fragment, MasterPolicy, RunStats, SimCtx, SimEvent, Simulator,
};
use std::time::Duration;

const SEED: u64 = 0xC0FFEE;

fn fixed_job() -> Job {
    Job::new(6, 5, 9, 4)
}

fn fixed_platform() -> Platform {
    Platform::new(
        "cross-val",
        vec![
            WorkerSpec::new(1e-5, 1e-5, 40),
            WorkerSpec::new(2e-5, 2e-5, 24),
            WorkerSpec::new(1e-5, 3e-5, 18),
        ],
    )
}

fn run_sim(platform: &Platform, job: &Job, alg: Algorithm) -> RunStats {
    let mut policy = build_policy(platform, job, alg).unwrap();
    Simulator::new(platform.clone()).run(&mut policy).unwrap()
}

fn run_net(platform: &Platform, job: &Job, alg: Algorithm, time_scale: f64) -> RunStats {
    let mut rng = StdRng::seed_from_u64(SEED);
    let a = BlockMatrix::random(job.r, job.t, job.q, &mut rng);
    let b = BlockMatrix::random(job.t, job.s, job.q, &mut rng);
    let mut c = BlockMatrix::zeros(job.r, job.s, job.q);
    let mut policy = build_policy(platform, job, alg).unwrap();
    let rt = NetRuntime::new(platform.clone()).with_options(NetOptions {
        time_scale,
        idle_timeout: Duration::from_secs(20),
        ..Default::default()
    });
    rt.run(&mut policy, &a, &b, &mut c).unwrap()
}

#[test]
fn static_het_schedule_is_identical_across_engines() {
    let (platform, job) = (fixed_platform(), fixed_job());
    let sim = run_sim(&platform, &job, Algorithm::Het);
    let net = run_net(&platform, &job, Algorithm::Het, 1e-6);

    // Global schedule shape.
    assert_eq!(sim.chunks, net.chunks);
    assert_eq!(sim.total_updates, net.total_updates);
    assert_eq!(sim.blocks_to_workers, net.blocks_to_workers);
    assert_eq!(sim.blocks_to_master, net.blocks_to_master);

    // Per-worker schedule: who got which share of the plan.
    assert_eq!(sim.per_worker.len(), net.per_worker.len());
    for (w, (s, n)) in sim.per_worker.iter().zip(&net.per_worker).enumerate() {
        assert_eq!(s.chunks_assigned, n.chunks_assigned, "worker {w} chunks");
        assert_eq!(s.updates, n.updates, "worker {w} updates");
        assert_eq!(s.blocks_rx, n.blocks_rx, "worker {w} blocks in");
        assert_eq!(s.blocks_tx, n.blocks_tx, "worker {w} blocks out");
    }
}

#[test]
fn repeated_runs_are_schedule_deterministic() {
    let (platform, job) = (fixed_platform(), fixed_job());
    let sim_a = run_sim(&platform, &job, Algorithm::Het);
    let sim_b = run_sim(&platform, &job, Algorithm::Het);
    assert_eq!(sim_a, sim_b, "simulator must be bitwise deterministic");

    let net_a = run_net(&platform, &job, Algorithm::Het, 1e-6);
    let net_b = run_net(&platform, &job, Algorithm::Het, 1e-6);
    // Wall-clock fields (makespan, busy_time, port_busy) jitter; the
    // schedule fields must not.
    assert_eq!(net_a.chunks, net_b.chunks);
    assert_eq!(net_a.blocks_to_workers, net_b.blocks_to_workers);
    for (a, b) in net_a.per_worker.iter().zip(&net_b.per_worker) {
        assert_eq!(a.chunks_assigned, b.chunks_assigned);
        assert_eq!(a.updates, b.updates);
        assert_eq!(a.blocks_rx, b.blocks_rx);
        assert_eq!(a.blocks_tx, b.blocks_tx);
    }
}

/// The contention-model subsystem's cross-engine pin: under a bounded
/// multi-port model (k = 2 with a binding backbone), the static `Het`
/// plan realizes the *identical* per-worker schedule in the simulator
/// and in the net runtime (whose lane table throttles real links to
/// the same shares), and the net product is numerically exact.
#[test]
fn static_multiport_schedule_is_identical_across_engines() {
    let (platform, job) = (fixed_platform(), fixed_job());
    // Backbone below the two fastest links combined, so fair sharing
    // genuinely kicks in (links are 1e5/5e4/1e5 blocks/s).
    let spec = stargemm::netmodel::NetModelSpec::BoundedMultiPort {
        k: 2,
        backbone: Some(1.5e5),
    };
    let mut policy = build_policy(&platform, &job, Algorithm::Het).unwrap();
    let sim = Simulator::new(platform.clone())
        .with_netmodel(spec)
        .run(&mut policy)
        .unwrap();

    let mut rng = StdRng::seed_from_u64(SEED);
    let a = BlockMatrix::random(job.r, job.t, job.q, &mut rng);
    let b = BlockMatrix::random(job.t, job.s, job.q, &mut rng);
    let c0 = BlockMatrix::zeros(job.r, job.s, job.q);
    let mut c = c0.clone();
    let mut policy = build_policy(&platform, &job, Algorithm::Het).unwrap();
    let rt = NetRuntime::new(platform).with_options(NetOptions {
        time_scale: 1e-6,
        idle_timeout: Duration::from_secs(20),
        netmodel: spec,
        ..Default::default()
    });
    let net = rt.run(&mut policy, &a, &b, &mut c).unwrap();

    assert_eq!(sim.chunks, net.chunks);
    assert_eq!(sim.total_updates, net.total_updates);
    assert_eq!(sim.blocks_to_workers, net.blocks_to_workers);
    assert_eq!(sim.blocks_to_master, net.blocks_to_master);
    for (w, (s, n)) in sim.per_worker.iter().zip(&net.per_worker).enumerate() {
        assert_eq!(s.chunks_assigned, n.chunks_assigned, "worker {w} chunks");
        assert_eq!(s.updates, n.updates, "worker {w} updates");
        assert_eq!(s.blocks_rx, n.blocks_rx, "worker {w} blocks in");
        assert_eq!(s.blocks_tx, n.blocks_tx, "worker {w} blocks out");
    }
    let report = verify_product(&c, &c0, &a, &b, tolerance_for(job.t * job.q));
    assert!(report.passed(), "{report:?}");
}

#[test]
fn makespans_agree_in_the_communication_dominated_limit() {
    // Model compute is negligible (w = 1e-7 s/update) next to transfer
    // costs (c ≈ 1–2 ms/block), and the real q=4 GEMM is likewise
    // instant, so both engines' makespans are dominated by the same
    // one-port transfer schedule. The net runtime sleeps for every
    // data transfer; scheduling overhead only adds time — so its
    // wall-clock makespan must bracket the simulated one from above,
    // tightly.
    let job = fixed_job();
    let platform = Platform::new(
        "comm-dominated",
        vec![
            WorkerSpec::new(2e-3, 1e-7, 40),
            WorkerSpec::new(1e-3, 1e-7, 24),
        ],
    );
    let sim = run_sim(&platform, &job, Algorithm::Het);
    let net = run_net(&platform, &job, Algorithm::Het, 1.0);
    assert!(
        net.makespan >= sim.makespan * 0.9,
        "net makespan {} below simulated {} — throttling broken",
        net.makespan,
        sim.makespan
    );
    // Generous upper bound: per-message scheduling overhead varies with
    // host load (shared CI runners especially), and only ever *adds*
    // time. 3× still catches an engine whose throttling accounting is
    // broken while staying robust to a noisy neighbor.
    assert!(
        net.makespan <= sim.makespan * 3.0,
        "net makespan {} far above simulated {} — overhead swamps the model",
        net.makespan,
        sim.makespan
    );
}

/// The dynamic subsystem's static-limit regression: on a constant-trace
/// dynamic platform, `AdaptiveHet` must realize the *identical*
/// per-worker schedule as static `Het` — in both engines. Constant
/// traces mean nothing ever drifts, so the adaptive wrapper must be
/// pure delegation.
#[test]
fn adaptive_het_static_limit_matches_het_in_both_engines() {
    let (platform, job) = (fixed_platform(), fixed_job());
    let profile = DynProfile::constant(platform.len());

    // Simulated engine: bit-identical run statistics (makespan included —
    // constant-trace integration must not perturb a single duration).
    let het_sim = run_sim(&platform, &job, Algorithm::Het);
    let mut adaptive = AdaptiveMaster::adaptive_het(&platform, &job).unwrap();
    let ad_sim = Simulator::new(platform.clone())
        .with_profile(profile.clone())
        .run(&mut adaptive)
        .unwrap();
    assert_eq!(het_sim.makespan, ad_sim.makespan);
    assert_eq!(het_sim.per_worker, ad_sim.per_worker);
    assert_eq!(het_sim.chunks, ad_sim.chunks);
    assert_eq!(het_sim.blocks_to_workers, ad_sim.blocks_to_workers);

    // Net engine: same schedule shape as the net Het run, and the
    // numerically exact product. (At this time scale every observation
    // is below the estimator's noise floor, so adaptation stays off —
    // by design, not by luck.)
    let het_net = run_net(&platform, &job, Algorithm::Het, 1e-6);
    let mut rng = StdRng::seed_from_u64(SEED);
    let a = BlockMatrix::random(job.r, job.t, job.q, &mut rng);
    let b = BlockMatrix::random(job.t, job.s, job.q, &mut rng);
    let c0 = BlockMatrix::zeros(job.r, job.s, job.q);
    let mut c = c0.clone();
    let mut adaptive = AdaptiveMaster::adaptive_het(&platform, &job).unwrap();
    let rt = NetRuntime::new(platform.clone()).with_options(NetOptions {
        time_scale: 1e-6,
        idle_timeout: Duration::from_secs(20),
        profile: Some(profile),
        ..Default::default()
    });
    let ad_net = rt.run(&mut adaptive, &a, &b, &mut c).unwrap();
    assert_eq!(het_net.chunks, ad_net.chunks);
    assert_eq!(het_net.blocks_to_workers, ad_net.blocks_to_workers);
    assert_eq!(het_net.blocks_to_master, ad_net.blocks_to_master);
    for (w, (h, d)) in het_net
        .per_worker
        .iter()
        .zip(&ad_net.per_worker)
        .enumerate()
    {
        assert_eq!(h.chunks_assigned, d.chunks_assigned, "worker {w} chunks");
        assert_eq!(h.updates, d.updates, "worker {w} updates");
        assert_eq!(h.blocks_rx, d.blocks_rx, "worker {w} blocks in");
        assert_eq!(h.blocks_tx, d.blocks_tx, "worker {w} blocks out");
    }
    let report = verify_product(&c, &c0, &a, &b, tolerance_for(job.t * job.q));
    assert!(report.passed(), "{report:?}");
}

/// Worker churn in the net runtime: a worker crashes mid-run, its
/// chunks are re-planned, and the distributed product is still exact —
/// real data was lost and really recomputed.
#[test]
fn adaptive_net_run_survives_a_crash_with_an_exact_product() {
    let job = Job::new(6, 5, 9, 4);
    // Slow enough links that the crash at model-time 0.2 s lands
    // mid-run (time_scale 1: model time = wall time).
    let platform = Platform::new(
        "net-crash",
        vec![
            WorkerSpec::new(1e-3, 1e-6, 40),
            WorkerSpec::new(1e-3, 1e-6, 40),
            WorkerSpec::new(2e-3, 2e-6, 24),
        ],
    );
    let profile = DynProfile::new(vec![
        stargemm::platform::WorkerDyn::new(
            stargemm::platform::Trace::default(),
            stargemm::platform::Trace::default(),
            vec![(0.2, f64::INFINITY)],
        ),
        stargemm::platform::WorkerDyn::stable(),
        stargemm::platform::WorkerDyn::stable(),
    ]);
    let mut rng = StdRng::seed_from_u64(SEED);
    let a = BlockMatrix::random(job.r, job.t, job.q, &mut rng);
    let b = BlockMatrix::random(job.t, job.s, job.q, &mut rng);
    let c0 = BlockMatrix::random(job.r, job.s, job.q, &mut rng);
    let mut c = c0.clone();
    let mut adaptive = AdaptiveMaster::adaptive_het(&platform, &job).unwrap();
    let rt = NetRuntime::new(platform).with_options(NetOptions {
        time_scale: 1.0,
        idle_timeout: Duration::from_secs(20),
        profile: Some(profile),
        ..Default::default()
    });
    let stats = rt.run(&mut adaptive, &a, &b, &mut c).unwrap();
    assert_eq!(adaptive.stats().crashes, 1, "crash must have landed");
    assert!(adaptive.stats().reassigned_chunks > 0);
    let report = verify_product(&c, &c0, &a, &b, tolerance_for(job.t * job.q));
    assert!(report.passed(), "{report:?}");
    // The lost worker's partial work was redone elsewhere.
    assert!(stats.total_updates >= job.total_updates());
}

/// The DAG subsystem's cross-engine pin: a tiled-LU task graph
/// dispatched by the critical-path-aware `DagMaster` realizes the
/// *identical* per-worker schedule in the simulator and in the net
/// runtime, and the net run's virtual GEMM (each task one `1 × w`
/// strip of C) is numerically exact. Ready-frontier dispatch reacts to
/// `RetrieveDone` events, so this also pins that both engines deliver
/// retrievals in the same one-port order.
#[test]
fn dag_schedule_is_identical_across_engines() {
    let platform = fixed_platform();
    let (dag, _) = stargemm::dag::lu_dag(3);
    let q = 4;
    let job = dag.virtual_job(q);

    let mut sim_master = stargemm::dag::DagMaster::new("xval-dag", &platform, dag.clone(), q, 2);
    let sim = Simulator::new(platform.clone())
        .run(&mut sim_master)
        .unwrap();
    assert!(sim_master.is_complete());
    assert!(dag.is_topological(sim_master.completion_order()));

    let mut rng = StdRng::seed_from_u64(SEED);
    let a = BlockMatrix::random(job.r, job.t, job.q, &mut rng);
    let b = BlockMatrix::random(job.t, job.s, job.q, &mut rng);
    let c0 = BlockMatrix::zeros(job.r, job.s, job.q);
    let mut c = c0.clone();
    let mut net_master = stargemm::dag::DagMaster::new("xval-dag", &platform, dag.clone(), q, 2);
    let rt = NetRuntime::new(platform).with_options(NetOptions {
        time_scale: 1e-6,
        idle_timeout: Duration::from_secs(20),
        ..Default::default()
    });
    let net = rt.run(&mut net_master, &a, &b, &mut c).unwrap();
    assert!(net_master.is_complete());
    assert!(dag.is_topological(net_master.completion_order()));

    assert_eq!(sim.chunks, net.chunks);
    assert_eq!(sim.total_updates, net.total_updates);
    assert_eq!(sim.blocks_to_workers, net.blocks_to_workers);
    assert_eq!(sim.blocks_to_master, net.blocks_to_master);
    for (w, (s, n)) in sim.per_worker.iter().zip(&net.per_worker).enumerate() {
        assert_eq!(s.chunks_assigned, n.chunks_assigned, "worker {w} chunks");
        assert_eq!(s.updates, n.updates, "worker {w} updates");
        assert_eq!(s.blocks_rx, n.blocks_rx, "worker {w} blocks in");
        assert_eq!(s.blocks_tx, n.blocks_tx, "worker {w} blocks out");
    }
    let report = verify_product(&c, &c0, &a, &b, tolerance_for(job.t * job.q));
    assert!(report.passed(), "{report:?}");
}

/// Crash during the trailing updates of a net DAG run: a worker
/// dies mid-graph, its in-flight tasks return to the ready frontier with
/// fresh chunk ids, and the finished virtual GEMM is still exact — the
/// lost strips of C were really recomputed elsewhere.
#[test]
fn dag_net_run_survives_a_crash_with_an_exact_product() {
    // Slow links (1 ms/block at time_scale 1) stretch the run to
    // ~100 ms of wall time, so the crash at 0.03 s lands squarely in
    // the trailing-update phase of the first panels.
    let platform = Platform::new(
        "dag-crash",
        vec![
            WorkerSpec::new(1e-3, 1e-6, 40),
            WorkerSpec::new(1e-3, 1e-6, 40),
            WorkerSpec::new(2e-3, 2e-6, 24),
        ],
    );
    let (dag, _) = stargemm::dag::lu_dag(4);
    let q = 4;
    let job = dag.virtual_job(q);
    let profile = DynProfile::new(vec![
        stargemm::platform::WorkerDyn::new(
            stargemm::platform::Trace::default(),
            stargemm::platform::Trace::default(),
            vec![(0.03, f64::INFINITY)],
        ),
        stargemm::platform::WorkerDyn::stable(),
        stargemm::platform::WorkerDyn::stable(),
    ]);
    let mut rng = StdRng::seed_from_u64(SEED);
    let a = BlockMatrix::random(job.r, job.t, job.q, &mut rng);
    let b = BlockMatrix::random(job.t, job.s, job.q, &mut rng);
    let c0 = BlockMatrix::zeros(job.r, job.s, job.q);
    let mut c = c0.clone();
    let mut master = stargemm::dag::DagMaster::new("dag-crash", &platform, dag.clone(), q, 2);
    let rt = NetRuntime::new(platform).with_options(NetOptions {
        time_scale: 1.0,
        idle_timeout: Duration::from_secs(20),
        profile: Some(profile),
        ..Default::default()
    });
    let stats = rt.run(&mut master, &a, &b, &mut c).unwrap();
    assert!(master.is_complete());
    assert!(dag.is_topological(master.completion_order()));
    let report = verify_product(&c, &c0, &a, &b, tolerance_for(job.t * job.q));
    assert!(report.passed(), "{report:?}");
    // Every task retrieved exactly once despite the re-dispatches.
    assert_eq!(stats.chunks as usize, dag.len());
    assert!(stats.total_updates >= dag.total_updates());
}

/// The reactor's scale pin: on a 512-worker star — far past what a
/// thread per worker could serve, and exactly what the reactor exists
/// for — the static `Het` plan realizes the *identical* per-worker
/// schedule in the simulator and in the net engine, and the product is
/// exact. The reactor's virtual clock
/// makes this deterministic: the schedule is a pure function of the
/// projected transfer timeline, never of host load.
#[test]
fn wide_star_schedule_is_identical_across_engines() {
    let q = 2;
    let job = Job::new(8, 2, 64, q);
    // Two memory tiers so the heterogeneous selection has real work to
    // do across the wide star.
    let mut specs = Vec::new();
    for i in 0..512 {
        specs.push(if i % 2 == 0 {
            WorkerSpec::new(1e-6, 1e-6, 24)
        } else {
            WorkerSpec::new(2e-6, 2e-6, 12)
        });
    }
    let platform = Platform::new("wide-star", specs);

    let sim = run_sim(&platform, &job, Algorithm::Het);

    let mut rng = StdRng::seed_from_u64(SEED);
    let a = BlockMatrix::random(job.r, job.t, job.q, &mut rng);
    let b = BlockMatrix::random(job.t, job.s, job.q, &mut rng);
    let c0 = BlockMatrix::zeros(job.r, job.s, job.q);
    let mut c = c0.clone();
    let mut policy = build_policy(&platform, &job, Algorithm::Het).unwrap();
    let rt = NetRuntime::new(platform.clone()).with_options(NetOptions {
        time_scale: 1e-7,
        idle_timeout: Duration::from_secs(20),
        ..Default::default()
    });
    let net = rt.run(&mut policy, &a, &b, &mut c).unwrap();

    assert_eq!(sim.chunks, net.chunks);
    assert_eq!(sim.total_updates, net.total_updates);
    assert_eq!(sim.blocks_to_workers, net.blocks_to_workers);
    assert_eq!(sim.blocks_to_master, net.blocks_to_master);
    assert_eq!(sim.per_worker.len(), net.per_worker.len());
    for (w, (s, n)) in sim.per_worker.iter().zip(&net.per_worker).enumerate() {
        assert_eq!(s.chunks_assigned, n.chunks_assigned, "worker {w} chunks");
        assert_eq!(s.updates, n.updates, "worker {w} updates");
        assert_eq!(s.blocks_rx, n.blocks_rx, "worker {w} blocks in");
        assert_eq!(s.blocks_tx, n.blocks_tx, "worker {w} blocks out");
    }
    let report = verify_product(&c, &c0, &a, &b, tolerance_for(job.t * job.q));
    assert!(report.passed(), "{report:?}");
}

/// Churn under a concurrent contention model on the reactor: a worker
/// crashes mid-run while transfers share the star through a bounded
/// multi-port (k = 2) model, the lost chunks are re-planned, and the
/// finished product is exact: concurrent lanes, crashes and a shared
/// backbone are one state machine on the reactor.
#[test]
fn adaptive_multiport_reactor_run_survives_a_crash_with_an_exact_product() {
    let job = Job::new(6, 5, 9, 4);
    let platform = Platform::new(
        "net-crash-mp",
        vec![
            WorkerSpec::new(1e-3, 1e-6, 40),
            WorkerSpec::new(1e-3, 1e-6, 40),
            WorkerSpec::new(2e-3, 2e-6, 24),
        ],
    );
    let profile = DynProfile::new(vec![
        stargemm::platform::WorkerDyn::new(
            stargemm::platform::Trace::default(),
            stargemm::platform::Trace::default(),
            vec![(0.2, f64::INFINITY)],
        ),
        stargemm::platform::WorkerDyn::stable(),
        stargemm::platform::WorkerDyn::stable(),
    ]);
    let mut rng = StdRng::seed_from_u64(SEED);
    let a = BlockMatrix::random(job.r, job.t, job.q, &mut rng);
    let b = BlockMatrix::random(job.t, job.s, job.q, &mut rng);
    let c0 = BlockMatrix::random(job.r, job.s, job.q, &mut rng);
    let mut c = c0.clone();
    let mut adaptive = AdaptiveMaster::adaptive_het(&platform, &job).unwrap();
    let rt = NetRuntime::new(platform).with_options(NetOptions {
        time_scale: 1.0,
        idle_timeout: Duration::from_secs(20),
        profile: Some(profile),
        netmodel: stargemm::netmodel::NetModelSpec::BoundedMultiPort {
            k: 2,
            backbone: Some(1.5e3),
        },
        ..Default::default()
    });
    let stats = rt.run(&mut adaptive, &a, &b, &mut c).unwrap();
    assert_eq!(adaptive.stats().crashes, 1, "crash must have landed");
    assert!(adaptive.stats().reassigned_chunks > 0);
    let report = verify_product(&c, &c0, &a, &b, tolerance_for(job.t * job.q));
    assert!(report.passed(), "{report:?}");
    assert!(stats.total_updates >= job.total_updates());
}

#[test]
fn cross_validated_run_still_computes_the_right_product() {
    // The schedule comparison is only meaningful if the net run is
    // actually doing the arithmetic it claims: re-run with the fixed
    // seed and verify C against the sequential oracle.
    let (platform, job) = (fixed_platform(), fixed_job());
    let mut rng = StdRng::seed_from_u64(SEED);
    let a = BlockMatrix::random(job.r, job.t, job.q, &mut rng);
    let b = BlockMatrix::random(job.t, job.s, job.q, &mut rng);
    let c0 = BlockMatrix::zeros(job.r, job.s, job.q);
    let mut c = c0.clone();
    let mut policy = build_policy(&platform, &job, Algorithm::Het).unwrap();
    let rt = NetRuntime::new(platform).with_options(NetOptions {
        time_scale: 1e-6,
        ..Default::default()
    });
    rt.run(&mut policy, &a, &b, &mut c).unwrap();
    let report = verify_product(&c, &c0, &a, &b, tolerance_for(job.t * job.q));
    assert!(report.passed(), "{report:?}");
}

/// A scripted policy for the tie-rule pin: each action is released once
/// a given number of sends have landed, so both engines issue it at the
/// same model instant; it logs the order its sends complete in.
struct GatedScript {
    /// `(send completions required first, action)`, in issue order.
    actions: std::collections::VecDeque<(usize, Action)>,
    geoms: Vec<ChunkGeom>,
    job: Job,
    unretrieved: usize,
    send_done: Vec<(usize, Fragment)>,
}

impl MasterPolicy for GatedScript {
    fn next_action(&mut self, _ctx: &SimCtx) -> Action {
        match self.actions.front() {
            Some(&(gate, action)) if gate <= self.send_done.len() => {
                self.actions.pop_front();
                action
            }
            None if self.unretrieved == 0 => Action::Finished,
            _ => Action::Wait,
        }
    }

    fn on_event(&mut self, event: &SimEvent, _ctx: &SimCtx) {
        match *event {
            SimEvent::SendDone { worker, fragment } => self.send_done.push((worker, fragment)),
            SimEvent::RetrieveDone { .. } => self.unretrieved -= 1,
            _ => {}
        }
    }

    fn name(&self) -> &'static str {
        "gated-script"
    }
}

impl GeometryAccess for GatedScript {
    fn chunk_geom(&self, id: ChunkId) -> Option<ChunkGeom> {
        self.geoms.get(id as usize).copied()
    }

    fn job_dims(&self) -> Job {
        self.job
    }
}

/// One tie rule for simultaneous completions, in the lane table, for
/// both engines: the least `(end, stamp of the last projection)`.
///
/// Unit-cost links under a fair-share backbone that never binds. At
/// t = 0 the master opens chunk 0 on worker 0 (L0, 4 blocks → ends at
/// 4), chunk 1 on worker 1 (L1, 6 blocks → 6) and chunk 2 on worker 2
/// (2 blocks → 2). When the last lands, at t = 2, chunk 0's A fragment
/// (2 blocks) joins L0 on worker 0's link: both run at half rate, and
/// L0's two remaining blocks re-project to exactly 6.0 — L1's end. L1's
/// projection is the older one, so L1 completes first; ordering by lane
/// id, as the reactor once did, would put L0 first.
#[test]
fn simultaneous_completions_resolve_alike_in_both_engines() {
    let q = 2;
    let job = Job::new(2, 1, 6, q);
    let platform = Platform::homogeneous("tie", 3, WorkerSpec::new(1.0, 1e-3, 64));
    let netmodel = stargemm::netmodel::NetModelSpec::FairShare { backbone: 100.0 };
    // Chunk `id` on worker `id`: two block rows of `w` columns from `j0`.
    let geoms: Vec<ChunkGeom> = [(0, 2), (2, 3), (5, 1)]
        .iter()
        .enumerate()
        .map(|(id, &(j0, w))| ChunkGeom {
            id: id as ChunkId,
            worker: id,
            i0: 0,
            j0,
            h: 2,
            w,
            k_depth: 1,
        })
        .collect();
    let descrs: Vec<ChunkDescr> = geoms
        .iter()
        .map(|g| ChunkDescr {
            id: g.id,
            c_blocks: (g.h * g.w) as u64,
            steps: 1,
            a_blocks_per_step: g.h as u64,
            b_blocks_per_step: g.w as u64,
            updates_per_step: (g.h * g.w) as u64,
            tail: None,
        })
        .collect();
    let send = |gate, d: &ChunkDescr, fragment, opens: bool| {
        let action = Action::Send {
            worker: d.id as usize,
            fragment,
            new_chunk: opens.then_some(*d),
        };
        (gate, action)
    };
    let [d0, d1, d2] = [&descrs[0], &descrs[1], &descrs[2]];
    let script = || GatedScript {
        actions: [
            send(0, d0, Fragment::c_load(d0), true),
            send(0, d1, Fragment::c_load(d1), true),
            send(0, d2, Fragment::c_load(d2), true),
            // t = 2: onto L0's link.
            send(1, d0, Fragment::a_step(d0, 0), false),
            // t = 6, after the three-way tie: everything else.
            send(4, d0, Fragment::b_step(d0, 0), false),
            send(4, d1, Fragment::a_step(d1, 0), false),
            send(4, d1, Fragment::b_step(d1, 0), false),
            send(4, d2, Fragment::a_step(d2, 0), false),
            send(4, d2, Fragment::b_step(d2, 0), false),
        ]
        .into_iter()
        .chain((0..3).map(|w| {
            let chunk = w as ChunkId;
            (9, Action::Retrieve { worker: w, chunk })
        }))
        .collect(),
        geoms: geoms.clone(),
        job,
        unretrieved: 3,
        send_done: Vec::new(),
    };

    let mut in_sim = script();
    Simulator::new(platform.clone())
        .with_netmodel(netmodel)
        .run(&mut in_sim)
        .unwrap();

    let mut rng = StdRng::seed_from_u64(SEED);
    let a = BlockMatrix::random(job.r, job.t, q, &mut rng);
    let b = BlockMatrix::random(job.t, job.s, q, &mut rng);
    let c0 = BlockMatrix::random(job.r, job.s, q, &mut rng);
    let mut c = c0.clone();
    let mut in_net = script();
    NetRuntime::new(platform)
        .with_options(NetOptions {
            time_scale: 1e-7,
            idle_timeout: Duration::from_secs(20),
            netmodel,
            ..Default::default()
        })
        .run(&mut in_net, &a, &b, &mut c)
        .unwrap();

    // The pinned order: chunk 2's load, then the tie — L1 (its end
    // projected at t = 0), L0 (re-projected at t = 2), the A fragment
    // (admitted after that).
    let tie = [
        (2, Fragment::c_load(d2)),
        (1, Fragment::c_load(d1)),
        (0, Fragment::c_load(d0)),
        (0, Fragment::a_step(d0, 0)),
    ];
    assert_eq!(in_sim.send_done[..4], tie, "simulator");
    assert_eq!(in_net.send_done[..4], tie, "reactor");
    assert_eq!(in_sim.send_done, in_net.send_done);
    assert_eq!(in_sim.send_done.len(), 9);
    let report = verify_product(&c, &c0, &a, &b, tolerance_for(job.t * q));
    assert!(report.passed(), "{report:?}");
}
