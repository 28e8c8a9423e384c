//! EXP-RT — model validation: the net runtime vs the simulator.
//!
//! Calibrates this machine's kernel (the paper's benchmark phase), builds
//! a small heterogeneous platform whose `w` is the measured value, runs
//! the same policy (a) in the discrete-event simulator and (b) for real
//! through the hand-rolled messaging layer, and compares makespans and
//! verifies the numerical result. Agreement within a few tens of percent
//! validates the one-port linear-cost model the experiments rely on.

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::json::Value;
use serde::Serialize;
use stargemm_bench::{write_json, write_results, Cli};
use stargemm_core::algorithms::{build_policy, Algorithm};
use stargemm_core::Job;
use stargemm_linalg::gemm::bytes_per_flop;
use stargemm_linalg::verify::{tolerance_for, verify_product};
use stargemm_linalg::BlockMatrix;
use stargemm_net::calibrate::{gflops_at, measure_block_update_seconds, time_scale_for_measured};
use stargemm_net::{NetOptions, NetRuntime};
use stargemm_platform::{Platform, WorkerSpec};
use stargemm_sim::Simulator;

fn main() {
    // Real threads and calibration: `--threads` is accepted for
    // uniformity but the validation runs serially on purpose — parallel
    // co-runners would distort the wall-clock measurements.
    let cli = Cli::parse();
    let q = if cli.smoke { 24 } else { 48 };
    let w = measure_block_update_seconds(q, 10);
    let gflops = gflops_at(q, w);
    let mut out = String::new();
    out.push_str(&format!(
        "calibration: q={q} block update {w:.2e}s  ({gflops:.2} GFLOP/s at a computed {:.3} B/flop)\n",
        bytes_per_flop(q)
    ));

    // Heterogeneous platform: links sized so communication and compute
    // are comparable; worker 1 slower via a bigger c.
    let specs = vec![
        WorkerSpec::new(2.0 * w, w, 60),
        WorkerSpec::new(4.0 * w, w, 40),
        WorkerSpec::new(8.0 * w, w, 24),
    ];
    let platform = Platform::new("validation", specs);
    // Feed the calibration into the reactor's pacing clock: the scale
    // at which the paced update time covers the measured kernel. The
    // platform's `w` *is* the measured value, so this lands at 1.0 —
    // but derived from the measurement, not assumed.
    let time_scale = time_scale_for_measured(&platform, w).max(1.0);
    out.push_str(&format!("calibrated time_scale: {time_scale:.3}\n"));
    let job = if cli.smoke {
        Job::new(4, 6, 6, q)
    } else {
        Job::new(8, 12, 12, q)
    };

    let mut rng = StdRng::seed_from_u64(2008);
    let a = BlockMatrix::random(job.r, job.t, job.q, &mut rng);
    let b = BlockMatrix::random(job.t, job.s, job.q, &mut rng);
    let c0 = BlockMatrix::random(job.r, job.s, job.q, &mut rng);

    out.push_str(&format!(
        "{:<8} {:>12} {:>12} {:>8} {:>8}\n",
        "policy", "sim (s)", "net (s)", "ratio", "verify"
    ));
    let mut rows: Vec<Value> = Vec::new();
    for alg in [Algorithm::Het, Algorithm::Oddoml, Algorithm::Bmm] {
        let mut sim_policy = build_policy(&platform, &job, alg).unwrap();
        let sim_stats = Simulator::new(platform.clone())
            .run(&mut sim_policy)
            .unwrap();

        let mut net_policy = build_policy(&platform, &job, alg).unwrap();
        let mut c = c0.clone();
        let rt = NetRuntime::new(platform.clone()).with_options(NetOptions {
            time_scale,
            ..Default::default()
        });
        let net_stats = rt.run(&mut net_policy, &a, &b, &mut c).unwrap();
        let report = verify_product(&c, &c0, &a, &b, tolerance_for(job.t * job.q));
        out.push_str(&format!(
            "{:<8} {:>12.4} {:>12.4} {:>8.2} {:>8}\n",
            alg.name(),
            sim_stats.makespan,
            net_stats.makespan,
            net_stats.makespan / sim_stats.makespan,
            if report.passed() { "ok" } else { "FAIL" },
        ));
        rows.push(Value::object([
            ("policy", alg.name().to_value()),
            ("sim_makespan", sim_stats.makespan.to_value()),
            ("net_makespan", net_stats.makespan.to_value()),
            ("verified", report.passed().to_value()),
        ]));
        assert!(report.passed(), "numerical verification failed");
    }
    out.push_str(
        "ratio ~ 1 validates the one-port linear-cost model; >1 reflects\n\
         sleep granularity and kernel-time variance on this machine.\n",
    );
    print!("{out}");
    if let Ok(p) = write_results("exp_runtime.txt", &out) {
        eprintln!("(written to {})", p.display());
    }
    if let Some(path) = &cli.json {
        let json = Value::object([
            ("experiment", "runtime".to_value()),
            ("rows", Value::Array(rows)),
        ])
        .render_pretty();
        write_json(path, &json);
    }
    stargemm_bench::obs::emit_artifacts(&cli, || {
        // Trace the *net* engine (not the simulator): the Perfetto
        // timeline shows reactor-paced transfers, in model seconds.
        let mut policy = build_policy(&platform, &job, Algorithm::Het).unwrap();
        let mut c = c0.clone();
        let rt = NetRuntime::new(platform.clone()).with_options(NetOptions {
            time_scale,
            ..Default::default()
        });
        let (res, events) = stargemm_bench::obs::record_with(|obs| {
            rt.run_observed(&mut policy, &a, &b, &mut c, obs)
        });
        let stats = res.unwrap();
        Some((events, stats.makespan))
    });
}
