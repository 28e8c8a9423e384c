//! The `runtime` row — model validation: the net runtime vs the
//! simulator.
//!
//! Calibrates this machine's kernel (the paper's benchmark phase), builds
//! a small heterogeneous platform whose `w` is the measured value, runs
//! the same policy (a) in the discrete-event simulator and (b) for real
//! through the hand-rolled messaging layer, and compares makespans and
//! verifies the numerical result. Agreement within a few tens of percent
//! validates the one-port linear-cost model the experiments rely on.

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;
use stargemm_core::algorithms::{build_policy, Algorithm};
use stargemm_core::Job;
use stargemm_linalg::gemm::bytes_per_flop;
use stargemm_linalg::verify::{tolerance_for, verify_product};
use stargemm_linalg::BlockMatrix;
use stargemm_net::calibrate::{gflops_at, measure_block_update_seconds, time_scale_for_measured};
use stargemm_net::{NetOptions, NetRuntime};
use stargemm_platform::{Platform, WorkerSpec};
use stargemm_sim::Simulator;

use super::{rows_json, Report, Sweep};
use crate::obs::record_if;
use crate::Cli;

/// One policy through both engines.
#[derive(Serialize)]
struct Row {
    policy: &'static str,
    sim_makespan: f64,
    net_makespan: f64,
    verified: bool,
}

/// Het, ODDOML and BMM through both engines, serially whatever
/// `--threads` says — parallel co-runners would distort the wall-clock
/// measurements. The traced cell is Het's *net* run, so the Perfetto
/// timeline shows reactor-paced transfers, in model seconds.
pub fn runtime(cli: &Cli, sweep: &mut Sweep) -> Report {
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

    let algs = [Algorithm::Het, Algorithm::Oddoml, Algorithm::Bmm];
    let rows = sweep.serial().run_traced(&algs, 0, |&alg, log| {
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
        let (net_stats, events) = record_if(log, |obs| {
            rt.run_observed(&mut net_policy, &a, &b, &mut c, obs)
        });
        let net_stats = net_stats.unwrap();
        let report = verify_product(&c, &c0, &a, &b, tolerance_for(job.t * job.q));
        let row = Row {
            policy: alg.name(),
            sim_makespan: sim_stats.makespan,
            net_makespan: net_stats.makespan,
            verified: report.passed(),
        };
        (row, events.map(|e| (e, net_stats.makespan)))
    });

    out.push_str(&format!(
        "{:<8} {:>12} {:>12} {:>8} {:>8}\n",
        "policy", "sim (s)", "net (s)", "ratio", "verify"
    ));
    for r in &rows {
        out.push_str(&format!(
            "{:<8} {:>12.4} {:>12.4} {:>8.2} {:>8}\n",
            r.policy,
            r.sim_makespan,
            r.net_makespan,
            r.net_makespan / r.sim_makespan,
            if r.verified { "ok" } else { "FAIL" },
        ));
        assert!(r.verified, "numerical verification failed");
    }
    out.push_str(
        "ratio ~ 1 validates the one-port linear-cost model; >1 reflects\n\
         sleep granularity and kernel-time variance on this machine.\n",
    );
    Report::table("exp_runtime.txt", out, rows_json("runtime", &rows))
}
