//! Cross-crate integration tests: every algorithm, on every paper
//! platform preset, executes to completion with the invariants the
//! paper's model promises — exact coverage of C, strict memory
//! discipline, one-port serialization, and consistency between the
//! discrete-event simulator and the net runtime.

use rand::rngs::StdRng;
use rand::SeedableRng;
use stargemm::core::algorithms::{build_policy, run_algorithm, Algorithm};
use stargemm::core::geometry::validate_coverage;
use stargemm::core::steady::makespan_lower_bound;
use stargemm::core::Job;
use stargemm::linalg::verify::{tolerance_for, verify_product};
use stargemm::linalg::BlockMatrix;
use stargemm::net::{NetOptions, NetRuntime};
use stargemm::obs::{render_gantt, spans, Attribution, ObsEvent, Track};
use stargemm::platform::{presets, Platform, WorkerSpec};
use stargemm::sim::{MasterPolicy, RunStats, Simulator};
use stargemm_bench::obs::record_with;

/// Runs `policy` under a recorder; returns the stats and the event log.
fn recorded(sim: &Simulator, policy: &mut dyn MasterPolicy) -> (RunStats, Vec<ObsEvent>) {
    let (stats, events) = record_with(|obs| sim.run_observed(policy, obs));
    (stats.unwrap(), events)
}

/// The closed `(start, end)` intervals of `events` on the tracks `pick`
/// selects.
fn intervals(events: &[ObsEvent], pick: impl Fn(&Track) -> bool) -> Vec<(f64, f64)> {
    let mut out: Vec<(f64, f64)> = spans(events)
        .iter()
        .filter(|s| pick(&s.track))
        .map(|s| (s.start, s.end.expect("a static run closes every span")))
        .collect();
    out.sort_by(|a, b| a.0.total_cmp(&b.0));
    out
}

/// Seconds of a log's closed port and compute spans, each sum taken in
/// closing order (the order the engines charge them in).
struct Busy {
    /// Per-worker compute seconds.
    compute: Vec<f64>,
    /// Per-worker seconds on the wire.
    wire: Vec<f64>,
    /// Port-busy seconds.
    port: f64,
    /// The last span end.
    horizon: f64,
}

fn busy(events: &[ObsEvent], workers: usize) -> Busy {
    let mut b = Busy {
        compute: vec![0.0; workers],
        wire: vec![0.0; workers],
        port: 0.0,
        horizon: 0.0,
    };
    for s in spans(events) {
        let Some(end) = s.end else { continue };
        match s.track {
            Track::Port { worker, .. } => {
                b.wire[worker] += end - s.start;
                b.port += end - s.start;
            }
            Track::Compute { worker, .. } => b.compute[worker] += end - s.start,
            _ => continue,
        }
        b.horizon = b.horizon.max(end);
    }
    b
}

/// A scaled-down cousin of every paper platform (memory shrunk so small
/// jobs still exercise multi-chunk schedules).
fn mini_platforms() -> Vec<Platform> {
    let scale = |p: &Platform, f: usize| {
        Platform::new(
            format!("{}-mini", p.name),
            p.workers()
                .iter()
                .map(|s| WorkerSpec::new(s.c * 100.0, s.w * 100.0, (s.m / f).max(12)))
                .collect(),
        )
    };
    vec![
        scale(&presets::het_memory(), 400),
        scale(&presets::het_comm(), 400),
        scale(&presets::het_comp(), 400),
        scale(&presets::fully_het(4.0), 400),
    ]
}

#[test]
fn all_algorithms_on_all_mini_platforms() {
    let job = Job::new(12, 10, 20, 4);
    for platform in mini_platforms() {
        for alg in Algorithm::all() {
            let stats = run_algorithm(&platform, &job, alg)
                .unwrap_or_else(|e| panic!("{} on {}: {e}", alg.name(), platform.name));
            assert_eq!(
                stats.total_updates,
                job.total_updates(),
                "{} on {}",
                alg.name(),
                platform.name
            );
            assert_eq!(stats.blocks_to_master, job.c_blocks());
            // Strict memory discipline.
            for (w, ws) in stats.per_worker.iter().enumerate() {
                assert!(
                    ws.mem_high_water <= platform.worker(w).m as u64,
                    "{} on {}: worker {w} peak {} > m {}",
                    alg.name(),
                    platform.name,
                    ws.mem_high_water,
                    platform.worker(w).m
                );
            }
            // No schedule beats the steady-state bound.
            let bound = makespan_lower_bound(&platform, &job);
            assert!(
                stats.makespan >= bound * 0.999,
                "{} on {}: makespan {} below steady-state bound {bound}",
                alg.name(),
                platform.name,
                stats.makespan
            );
        }
    }
}

#[test]
fn coverage_is_exact_for_every_algorithm() {
    let job = Job::new(9, 7, 15, 4);
    let platform = mini_platforms().remove(3);
    for alg in Algorithm::all() {
        let mut policy = build_policy(&platform, &job, alg).unwrap();
        Simulator::new(platform.clone()).run(&mut policy).unwrap();
        let geoms: Vec<_> = policy.geoms().copied().collect();
        validate_coverage(&job, &geoms).unwrap_or_else(|e| panic!("{}: {e}", alg.name()));
    }
}

#[test]
fn one_port_never_overlaps_transfers() {
    let job = Job::new(8, 6, 12, 4);
    for platform in mini_platforms() {
        for alg in [
            Algorithm::Het,
            Algorithm::Oddoml,
            Algorithm::Bmm,
            Algorithm::Orroml,
        ] {
            let mut policy = build_policy(&platform, &job, alg).unwrap();
            let (_, events) = recorded(&Simulator::new(platform.clone()), &mut policy);
            let transfers = intervals(&events, |t| matches!(t, Track::Port { .. }));
            assert!(!transfers.is_empty());
            for w in transfers.windows(2) {
                assert!(
                    w[0].1 <= w[1].0 + 1e-9,
                    "{} on {}: port intervals overlap: {w:?}",
                    alg.name(),
                    platform.name
                );
            }
        }
    }
}

#[test]
fn workers_compute_serially_but_overlap_the_port() {
    // Per-worker compute intervals never overlap each other (a worker is
    // a single CPU), and for a communication-heavy run the port and some
    // worker's compute do overlap somewhere (the whole point of the
    // double-buffered layout).
    let job = Job::new(8, 8, 12, 4);
    let platform = Platform::new(
        "overlap",
        vec![WorkerSpec::new(0.4, 0.5, 40), WorkerSpec::new(0.4, 0.5, 40)],
    );
    let mut policy = build_policy(&platform, &job, Algorithm::Oddoml).unwrap();
    let (_, events) = recorded(&Simulator::new(platform), &mut policy);
    for w in 0..2usize {
        let computes = intervals(
            &events,
            |t| matches!(t, Track::Compute { worker, .. } if *worker == w),
        );
        assert!(!computes.is_empty(), "worker {w} never computed");
        for pair in computes.windows(2) {
            assert!(pair[0].1 <= pair[1].0 + 1e-9, "worker {w} computes overlap");
        }
    }
    let transfers = intervals(&events, |t| matches!(t, Track::Port { .. }));
    let overlap_exists = intervals(&events, |t| matches!(t, Track::Compute { .. }))
        .iter()
        .any(|c| transfers.iter().any(|t| t.0 < c.1 && c.0 < t.1));
    assert!(overlap_exists, "no comm/compute overlap found at all");
}

#[test]
fn simulator_and_runtime_agree_on_communication_volume() {
    let job = Job::new(6, 5, 9, 4);
    let platform = Platform::new(
        "consistency",
        vec![
            WorkerSpec::new(1e-5, 1e-5, 40),
            WorkerSpec::new(2e-5, 2e-5, 24),
        ],
    );
    for alg in [Algorithm::Het, Algorithm::Oddoml, Algorithm::Bmm] {
        let mut sim_policy = build_policy(&platform, &job, alg).unwrap();
        let sim_stats = Simulator::new(platform.clone())
            .run(&mut sim_policy)
            .unwrap();

        let mut rng = StdRng::seed_from_u64(5);
        let a = BlockMatrix::random(job.r, job.t, job.q, &mut rng);
        let b = BlockMatrix::random(job.t, job.s, job.q, &mut rng);
        let mut c = BlockMatrix::zeros(job.r, job.s, job.q);
        let mut net_policy = build_policy(&platform, &job, alg).unwrap();
        let rt = NetRuntime::new(platform.clone()).with_options(NetOptions {
            time_scale: 1e-6,
            ..Default::default()
        });
        let net_stats = rt.run(&mut net_policy, &a, &b, &mut c).unwrap();

        assert_eq!(
            sim_stats.total_updates,
            net_stats.total_updates,
            "{}",
            alg.name()
        );
        assert_eq!(sim_stats.blocks_to_master, net_stats.blocks_to_master);
        if alg == Algorithm::Het {
            // Static assignment: the chunk plan is timing-independent, so
            // the full communication volume must match exactly.
            assert_eq!(sim_stats.chunks, net_stats.chunks);
            assert_eq!(sim_stats.blocks_to_workers, net_stats.blocks_to_workers);
        } else {
            // Dynamic pools carve strips by real arrival order; with
            // heterogeneous μ_i the totals may differ slightly, but both
            // engines must ship at least one load+retrieval per C block.
            assert!(net_stats.blocks_to_workers >= job.c_blocks());
        }
    }
}

#[test]
fn distributed_product_is_numerically_exact() {
    let job = Job::new(8, 6, 10, 8);
    let platform = Platform::new(
        "exactness",
        vec![
            WorkerSpec::new(1e-5, 1e-5, 60),
            WorkerSpec::new(1e-5, 1e-5, 30),
            WorkerSpec::new(2e-5, 2e-5, 16),
        ],
    );
    let mut rng = StdRng::seed_from_u64(77);
    let a = BlockMatrix::random(job.r, job.t, job.q, &mut rng);
    let b = BlockMatrix::random(job.t, job.s, job.q, &mut rng);
    let c0 = BlockMatrix::random(job.r, job.s, job.q, &mut rng);
    for alg in Algorithm::all() {
        let mut policy = build_policy(&platform, &job, alg).unwrap();
        let rt = NetRuntime::new(platform.clone()).with_options(NetOptions {
            time_scale: 1e-6,
            ..Default::default()
        });
        let mut c = c0.clone();
        rt.run(&mut policy, &a, &b, &mut c).unwrap();
        let report = verify_product(&c, &c0, &a, &b, tolerance_for(job.t * job.q));
        assert!(report.passed(), "{}: {report:?}", alg.name());
    }
}

#[test]
fn het_decision_procedure_is_reproducible() {
    let platform = mini_platforms().remove(0);
    let job = Job::new(10, 8, 14, 4);
    let a = run_algorithm(&platform, &job, Algorithm::Het).unwrap();
    let b = run_algorithm(&platform, &job, Algorithm::Het).unwrap();
    assert_eq!(a, b);
}

#[test]
fn double_buffered_algorithms_overlap_comm_and_compute() {
    let job = Job::new(10, 8, 14, 4);
    let platform = Platform::new(
        "balance",
        vec![WorkerSpec::new(0.3, 0.3, 60), WorkerSpec::new(0.3, 0.3, 60)],
    );
    for alg in [Algorithm::Het, Algorithm::Oddoml, Algorithm::Orroml] {
        let mut policy = build_policy(&platform, &job, alg).unwrap();
        let (stats, events) = recorded(&Simulator::new(platform.clone()), &mut policy);
        let busy = busy(&events, platform.len());
        assert!((busy.horizon - stats.makespan).abs() < 1e-9);
        let overlap = Attribution::from_events(&events, stats.makespan).overlap_fraction();
        assert!(
            overlap > 0.2,
            "{}: overlap {overlap:.3} — the window-2 layout must hide communication",
            alg.name(),
        );
        // Conservation: per-worker compute time in the log equals the
        // engine's accounting.
        for (w, ws) in stats.per_worker.iter().enumerate() {
            assert!((busy.compute[w] - ws.busy_time).abs() < 1e-9);
        }
    }
}

#[test]
fn event_cap_aborts_runaway_runs() {
    let job = Job::new(10, 8, 14, 4);
    let platform = mini_platforms().remove(0);
    let mut policy = build_policy(&platform, &job, Algorithm::Oddoml).unwrap();
    let err = Simulator::new(platform)
        .with_max_events(3)
        .run(&mut policy)
        .unwrap_err();
    assert!(err.to_string().contains("event cap"), "{err}");
}

#[test]
fn makespan_scales_with_matrix_size() {
    // Figures 4-6 sanity: bigger B → proportionally longer makespans for
    // every algorithm.
    let platform = mini_platforms().remove(2);
    for alg in [Algorithm::Het, Algorithm::Oddoml, Algorithm::Bmm] {
        let small = run_algorithm(&platform, &Job::new(8, 8, 8, 4), alg).unwrap();
        let large = run_algorithm(&platform, &Job::new(8, 8, 24, 4), alg).unwrap();
        assert!(
            large.makespan > 2.0 * small.makespan,
            "{}: {} vs {}",
            alg.name(),
            small.makespan,
            large.makespan
        );
    }
}

/// A reactor run gets the Gantt and the attribution from the same
/// recorded log a simulator run does. On the cross-validated static Het scenario
/// the two engines move the same blocks over the same links, so their
/// per-worker wire seconds agree; the reactor computes inline, in zero
/// model time, so its log carries no compute intervals to compare.
#[test]
fn reactor_run_renders_and_analyzes_like_a_simulator_run() {
    let job = Job::new(6, 5, 9, 4);
    let platform = Platform::new(
        "cross-val",
        vec![
            WorkerSpec::new(1e-5, 1e-5, 40),
            WorkerSpec::new(2e-5, 2e-5, 24),
            WorkerSpec::new(1e-5, 3e-5, 18),
        ],
    );
    let mut policy = build_policy(&platform, &job, Algorithm::Het).unwrap();
    let (sim_stats, sim_events) = recorded(&Simulator::new(platform.clone()), &mut policy);

    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    let a = BlockMatrix::random(job.r, job.t, job.q, &mut rng);
    let b = BlockMatrix::random(job.t, job.s, job.q, &mut rng);
    let mut c = BlockMatrix::zeros(job.r, job.s, job.q);
    let mut policy = build_policy(&platform, &job, Algorithm::Het).unwrap();
    let rt = NetRuntime::new(platform.clone()).with_options(NetOptions {
        time_scale: 1e-6,
        ..Default::default()
    });
    let (net_stats, net_events) =
        record_with(|obs| rt.run_observed(&mut policy, &a, &b, &mut c, obs));
    let net_stats = net_stats.unwrap();

    let gantt = render_gantt(&net_events, platform.len(), 100);
    for row in ["port L0", "w0 comm", "w2 comm"] {
        let line = gantt.lines().find(|l| l.starts_with(row)).unwrap();
        assert!(line.contains('<'), "{row} shows no retrieval:\n{gantt}");
    }
    assert!(gantt.contains('C') && gantt.contains('b') && gantt.contains('a'));

    let sim = busy(&sim_events, platform.len());
    let net = busy(&net_events, platform.len());
    // Within one engine the log and the `sim::LaneTable` sum the same
    // intervals in the same order: exact. The reactor's own `port_busy`
    // is wall seconds, model × time_scale.
    assert_eq!(sim.port, sim_stats.port_busy);
    assert_eq!(net.port * 1e-6, net_stats.port_busy);
    // Across engines the one table times the same transfers, but not at
    // the same instants: the reactor models no compute time, so its
    // retrievals start earlier and every later interval sits at another
    // offset. Same durations, other roundings — hence `close`.
    let close = |x: f64, y: f64| (x - y).abs() <= 1e-9 * x.abs().max(y.abs());
    assert!(close(net.port, sim.port));
    for w in 0..platform.len() {
        assert!(
            close(net.wire[w], sim.wire[w]),
            "worker {w}: reactor {} vs simulator {} wire seconds",
            net.wire[w],
            sim.wire[w]
        );
        assert!(close(sim.compute[w], sim_stats.per_worker[w].busy_time));
        assert_eq!(net.compute[w], 0.0, "the reactor models no compute time");
    }
    // The reactor's log is in model seconds but its makespan is
    // wall-scaled: attribute its log against the log's own horizon.
    let overlap = |events, makespan| Attribution::from_events(events, makespan).overlap_fraction();
    assert_eq!(overlap(&net_events, net.horizon), 0.0);
    assert!(overlap(&sim_events, sim_stats.makespan) > 0.5);
}
