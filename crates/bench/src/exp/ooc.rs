//! The `ooc` row — the conclusion's open question: does the maximum
//! re-use layout help *out-of-core* algorithms?
//!
//! An out-of-core product is the single-worker case with the disk as the
//! master: `m` = RAM capacity in blocks, `c` = per-block disk transfer
//! time, `w` = in-core block-update time. We compare the maximum re-use
//! layout against Toledo's equal-thirds layout (the standard out-of-core
//! scheme) across RAM sizes and disk speeds, simulated on the same
//! engine as everything else.

use serde::Serialize;
use stargemm_core::algorithms::{run_algorithm_observed, Algorithm};
use stargemm_core::bounds::{maxreuse_ccr_asymptotic, toledo_ccr_asymptotic};
use stargemm_core::maxreuse::simulate_max_reuse;
use stargemm_core::Job;
use stargemm_platform::{Platform, WorkerSpec};

use super::{rows_json, Report, Sweep};
use crate::obs::record_if;
use crate::Cli;

#[derive(Serialize)]
struct Row {
    ram_blocks: usize,
    disk_mbs: f64,
    maxreuse_makespan: f64,
    toledo_makespan: f64,
    gain: f64,
    ccr_maxreuse: f64,
    ccr_toledo: f64,
}

/// RAM sizes × disk speeds; the traced cell is Toledo's layout (BMM)
/// at 1 200 RAM blocks and 200 MB/s.
pub fn ooc(cli: &Cli, sweep: &mut Sweep) -> Report {
    let q = 80;
    // The paper-era machine, not this repo's kernel: 2·80³ flop in
    // 5.12e-4 s is 2 GFLOP/s (`presets::BASE_GFLOPS`, a P4 2.4 GHz).
    let w = 5.12e-4;
    let job = if cli.smoke {
        Job::new(16, 16, 16, q)
    } else {
        Job::new(64, 64, 64, q) // 5120³ scalars out of core
    };
    let grid: Vec<(usize, f64)> = [300usize, 1_200, 4_800]
        .into_iter()
        .flat_map(|m| [50.0f64, 200.0, 800.0].into_iter().map(move |d| (m, d)))
        .collect();
    let traced = grid
        .iter()
        .position(|&cell| cell == (1_200, 200.0))
        .expect("the traced cell is swept");
    let rows = sweep.run_traced(&grid, traced, |&(m, disk_mbs), log| {
        let c = (q * q * 8) as f64 / (disk_mbs * 1e6);
        let spec = WorkerSpec::new(c, w, m);
        let mr = simulate_max_reuse(&job, spec).expect("fits");
        let platform = Platform::new("ooc", vec![spec]);
        let (tol, events) = record_if(log, |obs| {
            run_algorithm_observed(&platform, &job, Algorithm::Bmm, obs)
        });
        let tol = tol.expect("fits");
        let row = Row {
            ram_blocks: m,
            disk_mbs,
            maxreuse_makespan: mr.makespan,
            toledo_makespan: tol.makespan,
            gain: tol.makespan / mr.makespan,
            ccr_maxreuse: mr.ccr(),
            ccr_toledo: tol.ccr(),
        };
        (row, events.map(|e| (e, tol.makespan)))
    });

    let mut out = String::new();
    out.push_str("Out-of-core product: maximum re-use layout vs Toledo thirds\n");
    out.push_str("(single machine; disk = the master of the star)\n\n");
    out.push_str(&format!(
        "{:>10} {:>12} {:>12} {:>12} {:>9} {:>11} {:>11}\n",
        "RAM (blk)", "disk MB/s", "maxreuse(s)", "Toledo(s)", "gain", "CCR mr", "CCR tol"
    ));
    for r in &rows {
        out.push_str(&format!(
            "{:>10} {:>12.0} {:>12.1} {:>12.1} {:>9.3} {:>11.4} {:>11.4}\n",
            r.ram_blocks,
            r.disk_mbs,
            r.maxreuse_makespan,
            r.toledo_makespan,
            r.gain,
            r.ccr_maxreuse,
            r.ccr_toledo,
        ));
    }
    out.push_str(&format!(
        "\nasymptotic CCR ratio (Toledo/maxreuse) at m=4800: {:.3} (≈ √3)\n",
        toledo_ccr_asymptotic(4_800) / maxreuse_ccr_asymptotic(4_800)
    ));
    out.push_str(
        "Gains approach the CCR ratio when the disk is the bottleneck and\n\
         vanish when the product is compute-bound — the layout helps\n\
         out-of-core exactly where it helps distributed platforms.\n",
    );
    Report::table("exp_ooc.txt", out, rows_json("ooc", &rows))
}
