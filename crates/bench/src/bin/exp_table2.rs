//! EXP-T2 — Table 2: the bandwidth-centric solution is not always
//! feasible with finite memory.
//!
//! Two demonstrations on the paper's two-worker platform
//! (`P1 = (c=1, w=2)`, `P2 = (c=x, w=2x)`, both μ = 2):
//!
//! 1. the achieved throughput of the best practical algorithm falls
//!    increasingly short of the steady-state bound as `x` grows — the
//!    fast worker starves while the port serves the slow one;
//! 2. a policy that tries to buffer far enough ahead to keep `P1` busy
//!    (a deep lookahead window) is caught violating `P1`'s memory
//!    capacity by the simulator.
//!
//! Uniform flags: `--smoke` (three `x` values), `--json <path>` (one
//! row per `x`, plus the probe verdict), `--threads <n>` (the `x` sweep
//! fans out).

use serde::json::Value;
use serde::Serialize;
use stargemm_bench::{write_json, write_results, Cli, SweepSpec};
use stargemm_core::algorithms::{run_algorithm, Algorithm};
use stargemm_core::assign::{layout_sides, round_robin_queues};
use stargemm_core::steady::{bandwidth_centric, table2_platform};
use stargemm_core::stream::{Serving, StreamingMaster};
use stargemm_core::Job;
use stargemm_sim::Simulator;

struct Row {
    x: f64,
    bound: f64,
    achieved: f64,
    best_alg: &'static str,
}

impl Serialize for Row {
    fn to_value(&self) -> Value {
        Value::object([
            ("x", self.x.to_value()),
            ("bound", self.bound.to_value()),
            ("achieved", self.achieved.to_value()),
            ("ratio", (self.bound / self.achieved).to_value()),
            ("best_alg", self.best_alg.to_value()),
        ])
    }
}

fn main() {
    let cli = Cli::parse();
    let job = Job::new(8, 50, 16, 80);
    let xs: &[f64] = if cli.smoke {
        &[1.0, 8.0, 32.0]
    } else {
        &[1.0, 2.0, 4.0, 8.0, 16.0, 32.0]
    };

    let outcome = SweepSpec::new("table2", cli.threads).run(xs, |&x| {
        let p = table2_platform(x);
        let bound = bandwidth_centric(&p, job.r).throughput;
        let mut best = (f64::INFINITY, "-");
        for alg in [Algorithm::Het, Algorithm::Oddoml, Algorithm::Orroml] {
            if let Ok(s) = run_algorithm(&p, &job, alg) {
                if s.makespan < best.0 {
                    best = (s.makespan, alg.name());
                }
            }
        }
        Row {
            x,
            bound,
            achieved: job.total_updates() as f64 / best.0,
            best_alg: best.1,
        }
    });

    eprintln!("{}", outcome.summary());
    let mut out = String::new();
    out.push_str("Table 2: steady-state bound vs achieved throughput (μ1 = μ2 = 2)\n");
    out.push_str(&format!(
        "{:>6} {:>12} {:>14} {:>14} {:>8}\n",
        "x", "bound ρ*", "best achieved", "ratio ρ*/ρ", "best alg"
    ));
    for r in &outcome.rows {
        out.push_str(&format!(
            "{:>6} {:>12.4} {:>14.4} {:>14.2} {:>8}\n",
            r.x,
            r.bound,
            r.achieved,
            r.bound / r.achieved,
            r.best_alg,
        ));
    }

    out.push_str(
        "\nInfeasibility probe: a window deep enough to keep P1 fed during\n\
         P2's slow transfers needs more than P1's m = 12 buffers:\n",
    );
    let p = table2_platform(8.0);
    let sides = layout_sides(&p, &job);
    let queues = round_robin_queues(&job, 2, &[0, 1], &sides, |_| 1);
    // Window 5 → up to 5 steps of A/B double buffers: 2·5·2 + μ² = 24 > 12.
    let mut aggressive =
        StreamingMaster::new_static("deep-window", job, queues, Serving::DemandDriven, 5);
    let verdict = match Simulator::new(p).run(&mut aggressive) {
        Err(e) => {
            out.push_str(&format!("  simulator verdict: {e}\n"));
            e.to_string()
        }
        Ok(s) => {
            out.push_str(&format!(
                "  unexpectedly feasible (makespan {:.2}s)\n",
                s.makespan
            ));
            format!("unexpectedly feasible ({:.2}s)", s.makespan)
        }
    };
    print!("{out}");
    if let Ok(path) = write_results("exp_table2.txt", &out) {
        eprintln!("(written to {})", path.display());
    }
    if let Some(path) = &cli.json {
        let json = Value::object([
            ("experiment", "table2".to_value()),
            ("rows", outcome.rows.to_value()),
            ("infeasibility_probe", verdict.to_value()),
        ])
        .render_pretty();
        write_json(path, &json);
    }
    // The starvation cell the table is about: x = 8.
    stargemm_bench::obs::emit_artifacts(&cli, || {
        stargemm_bench::obs::gemm_cell(&table2_platform(8.0), &job, Algorithm::Het)
    });
}
