//! EXP-LB — Section 3: communication-volume bounds.
//!
//! Prints, for a sweep of memory sizes, the paper's lower bound
//! `√(27/8m)`, the previous Ironya-Toledo-Tiskin bound `√(1/8m)`, the
//! maximum re-use algorithm's analytic CCR `2/t + 2/μ`, Toledo's
//! equal-thirds CCR, and the CCR *measured* by simulating the maximum
//! re-use policy on a single worker. Uniform flags: `--smoke` (four
//! memory sizes), `--json <path>` (one row per size), `--threads <n>`.

use serde::json::Value;
use serde::Serialize;
use stargemm_bench::{write_json, write_results, Cli, SweepSpec};
use stargemm_core::bounds::{
    ccr_lower_bound, ito_lower_bound, maxreuse_ccr, maxreuse_ccr_asymptotic, toledo_ccr_asymptotic,
};
use stargemm_core::maxreuse::simulate_max_reuse;
use stargemm_core::Job;
use stargemm_platform::WorkerSpec;

struct Row {
    m: usize,
    bound: f64,
    ito: f64,
    maxreuse: f64,
    maxreuse_inf: f64,
    toledo: f64,
    simulated: f64,
}

impl Serialize for Row {
    fn to_value(&self) -> Value {
        Value::object([
            ("m", self.m.to_value()),
            ("bound", self.bound.to_value()),
            ("ito", self.ito.to_value()),
            ("maxreuse", self.maxreuse.to_value()),
            ("maxreuse_asymptotic", self.maxreuse_inf.to_value()),
            ("toledo", self.toledo.to_value()),
            ("simulated", self.simulated.to_value()),
        ])
    }
}

fn main() {
    let cli = Cli::parse();
    let t = 100;
    let ms: &[usize] = if cli.smoke {
        &[50, 200, 1_000, 5_000]
    } else {
        &[50, 100, 200, 500, 1_000, 5_000, 10_000, 20_000]
    };

    let outcome = SweepSpec::new("bounds", cli.threads).run(ms, |&m| {
        // Simulate on a single worker with enough rows to form chunks.
        let mu = stargemm_core::layout::mu_no_overlap(m);
        let job = Job::new(mu.max(1), t, 2 * mu.max(1), 80);
        let spec = WorkerSpec::new(1.0, 1.0, m);
        let sim_ccr = simulate_max_reuse(&job, spec)
            .map(|s| s.ccr())
            .unwrap_or(f64::NAN);
        Row {
            m,
            bound: ccr_lower_bound(m),
            ito: ito_lower_bound(m),
            maxreuse: maxreuse_ccr(m, t),
            maxreuse_inf: maxreuse_ccr_asymptotic(m),
            toledo: toledo_ccr_asymptotic(m),
            simulated: sim_ccr,
        }
    });

    eprintln!("{}", outcome.summary());
    let mut out = String::new();
    out.push_str("Section 3: communication-to-computation ratio vs memory (t = 100)\n");
    out.push_str(&format!(
        "{:>8} {:>12} {:>12} {:>14} {:>12} {:>12} {:>12}\n",
        "m", "bound 27/8m", "ITO 1/8m", "maxreuse(t)", "maxreuse inf", "Toledo", "simulated"
    ));
    for r in &outcome.rows {
        out.push_str(&format!(
            "{:>8} {:>12.5} {:>12.5} {:>14.5} {:>12.5} {:>12.5} {:>12.5}\n",
            r.m, r.bound, r.ito, r.maxreuse, r.maxreuse_inf, r.toledo, r.simulated,
        ));
    }
    out.push_str("\nInvariants: bound < maxreuse; maxreuse/bound -> sqrt(32/27) ~ 1.089; Toledo/maxreuse -> sqrt(3).\n");
    print!("{out}");
    if let Ok(p) = write_results("exp_bounds.txt", &out) {
        eprintln!("(written to {})", p.display());
    }
    if let Some(path) = &cli.json {
        write_json(path, &outcome.to_json());
    }
    stargemm_bench::obs::emit_artifacts(&cli, stargemm_bench::obs::default_cell);
}
