//! EXP-T1 — Table 1: the steady-state linear program.
//!
//! Solves the LP with the dense simplex and cross-checks the
//! bandwidth-centric greedy (they must agree — the greedy is the LP's
//! closed-form optimum) on every platform of the experimental section.
//! Uniform flags: `--smoke` (preset platforms only), `--json <path>`
//! (one row per platform), `--threads <n>` (platforms solve
//! concurrently).

use serde::json::Value;
use serde::Serialize;
use stargemm_bench::{write_json, write_results, Cli, SweepSpec};
use stargemm_core::steady::{bandwidth_centric, lp_throughput};
use stargemm_platform::{presets, random::figure7_random_platforms};

struct Row {
    platform: String,
    greedy: f64,
    simplex: f64,
    agree: bool,
    enrolled: usize,
}

impl Serialize for Row {
    fn to_value(&self) -> Value {
        Value::object([
            ("platform", self.platform.to_value()),
            ("greedy", self.greedy.to_value()),
            ("simplex", self.simplex.to_value()),
            ("agree", self.agree.to_value()),
            ("enrolled", self.enrolled.to_value()),
        ])
    }
}

fn main() {
    let cli = Cli::parse();
    let mut platforms = vec![
        presets::homogeneous(8),
        presets::het_memory(),
        presets::het_comm(),
        presets::het_comp(),
        presets::fully_het(2.0),
        presets::fully_het(4.0),
        presets::lyon(true),
        presets::lyon(false),
    ];
    if !cli.smoke {
        platforms.extend(figure7_random_platforms(2008));
    }

    let outcome = SweepSpec::new("table1", cli.threads).run(&platforms, |p| {
        let ss = bandwidth_centric(p, 100);
        let lp = lp_throughput(p, 100);
        Row {
            platform: p.name.clone(),
            greedy: ss.throughput,
            simplex: lp,
            agree: (ss.throughput - lp).abs() / lp.max(1e-12) < 1e-6,
            enrolled: ss.enrolled.len(),
        }
    });

    eprintln!("{}", outcome.summary());
    let mut out = String::new();
    out.push_str("Table 1: steady-state throughput (block updates/s), greedy vs simplex\n");
    out.push_str(&format!(
        "{:<22} {:>12} {:>12} {:>10} {:>9}\n",
        "platform", "greedy", "simplex LP", "agree", "enrolled"
    ));
    for r in &outcome.rows {
        out.push_str(&format!(
            "{:<22} {:>12.2} {:>12.2} {:>10} {:>9}\n",
            r.platform,
            r.greedy,
            r.simplex,
            if r.agree { "yes" } else { "NO" },
            r.enrolled,
        ));
        assert!(r.agree, "greedy must match the LP on {}", r.platform);
    }
    print!("{out}");
    if let Ok(path) = write_results("exp_table1.txt", &out) {
        eprintln!("(written to {})", path.display());
    }
    if let Some(path) = &cli.json {
        write_json(path, &outcome.to_json());
    }
    stargemm_bench::obs::emit_artifacts(&cli, stargemm_bench::obs::default_cell);
}
