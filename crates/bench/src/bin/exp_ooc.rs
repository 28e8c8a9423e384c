//! EXP-OOC — the conclusion's open question: does the maximum re-use
//! layout help *out-of-core* algorithms?
//!
//! An out-of-core product is the single-worker case with the disk as the
//! master: `m` = RAM capacity in blocks, `c` = per-block disk transfer
//! time, `w` = in-core block-update time. We compare the maximum re-use
//! layout against Toledo's equal-thirds layout (the standard out-of-core
//! scheme) across RAM sizes and disk speeds, simulated on the same
//! engine as everything else.

use serde::json::Value;
use serde::Serialize;
use stargemm_bench::{write_json, write_results, Cli, SweepSpec};
use stargemm_core::algorithms::{run_algorithm, Algorithm};
use stargemm_core::bounds::{maxreuse_ccr_asymptotic, toledo_ccr_asymptotic};
use stargemm_core::maxreuse::simulate_max_reuse;
use stargemm_core::Job;
use stargemm_platform::{Platform, WorkerSpec};

struct Row {
    m: usize,
    disk_mbs: f64,
    maxreuse: f64,
    toledo: f64,
    ccr_mr: f64,
    ccr_tol: f64,
}

impl Serialize for Row {
    fn to_value(&self) -> Value {
        Value::object([
            ("ram_blocks", self.m.to_value()),
            ("disk_mbs", self.disk_mbs.to_value()),
            ("maxreuse_makespan", self.maxreuse.to_value()),
            ("toledo_makespan", self.toledo.to_value()),
            ("gain", (self.toledo / self.maxreuse).to_value()),
            ("ccr_maxreuse", self.ccr_mr.to_value()),
            ("ccr_toledo", self.ccr_tol.to_value()),
        ])
    }
}

fn main() {
    let cli = Cli::parse();
    let q = 80;
    // The paper-era machine, not this repo's kernel: 2·80³ flop in
    // 5.12e-4 s is 2 GFLOP/s (`presets::BASE_GFLOPS`, a P4 2.4 GHz).
    let w = 5.12e-4;
    let job = if cli.smoke {
        Job::new(16, 16, 16, q)
    } else {
        Job::new(64, 64, 64, q) // 5120³ scalars out of core
    };
    let mut out = String::new();
    out.push_str("Out-of-core product: maximum re-use layout vs Toledo thirds\n");
    out.push_str("(single machine; disk = the master of the star)\n\n");
    out.push_str(&format!(
        "{:>10} {:>12} {:>12} {:>12} {:>9} {:>11} {:>11}\n",
        "RAM (blk)", "disk MB/s", "maxreuse(s)", "Toledo(s)", "gain", "CCR mr", "CCR tol"
    ));
    let grid: Vec<(usize, f64)> = [300usize, 1_200, 4_800]
        .into_iter()
        .flat_map(|m| [50.0f64, 200.0, 800.0].into_iter().map(move |d| (m, d)))
        .collect();
    let outcome = SweepSpec::new("ooc", cli.threads).run(&grid, |&(m, disk_mbs)| {
        let c = (q * q * 8) as f64 / (disk_mbs * 1e6);
        let spec = WorkerSpec::new(c, w, m);
        let mr = simulate_max_reuse(&job, spec).expect("fits");
        let platform = Platform::new("ooc", vec![spec]);
        let tol = run_algorithm(&platform, &job, Algorithm::Bmm).expect("fits");
        Row {
            m,
            disk_mbs,
            maxreuse: mr.makespan,
            toledo: tol.makespan,
            ccr_mr: mr.ccr(),
            ccr_tol: tol.ccr(),
        }
    });
    eprintln!("{}", outcome.summary());
    for r in &outcome.rows {
        out.push_str(&format!(
            "{:>10} {:>12.0} {:>12.1} {:>12.1} {:>9.3} {:>11.4} {:>11.4}\n",
            r.m,
            r.disk_mbs,
            r.maxreuse,
            r.toledo,
            r.toledo / r.maxreuse,
            r.ccr_mr,
            r.ccr_tol,
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
    print!("{out}");
    if let Ok(p) = write_results("exp_ooc.txt", &out) {
        eprintln!("(written to {})", p.display());
    }
    if let Some(path) = &cli.json {
        write_json(path, &outcome.to_json());
    }
    stargemm_bench::obs::emit_artifacts(&cli, || {
        // The representative out-of-core cell: 1200 RAM blocks, 200 MB/s.
        let c = (q * q * 8) as f64 / (200.0 * 1e6);
        let platform = Platform::new("ooc", vec![WorkerSpec::new(c, w, 1_200)]);
        stargemm_bench::obs::gemm_cell(&platform, &job, Algorithm::Bmm)
    });
}
