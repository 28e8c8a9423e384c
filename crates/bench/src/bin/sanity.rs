//! Quick smoke check: the seven algorithms on the three single-axis
//! heterogeneous platforms, with wall-clock decision+simulation times.
//! Useful for eyeballing that shapes still match the paper after a
//! change (`cargo run --release -p stargemm-bench --bin sanity`).

use std::process::ExitCode;
use std::time::Instant;

use serde::json::Value;
use serde::Serialize;
use stargemm_bench::cli::usage_exit;
use stargemm_bench::{write_file, Cli};
use stargemm_core::algorithms::{run_algorithm, Algorithm};
use stargemm_core::Job;
use stargemm_platform::presets;

fn main() -> ExitCode {
    // `--threads` is accepted for uniformity; the runs stay serial so
    // the printed wall-clock timings mean something. Nothing is traced.
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = Cli::from_args(&args)
        .and_then(Cli::untraced)
        .unwrap_or_else(|e| usage_exit(&e, "sanity [--smoke] [--json <path>] [--threads <n>]"));
    let job = Job::paper(if cli.smoke { 16_000 } else { 80_000 });
    let mut rows: Vec<Value> = Vec::new();
    for (name, p) in [
        ("het-memory", presets::het_memory()),
        ("het-comm", presets::het_comm()),
        ("het-comp", presets::het_comp()),
    ] {
        println!("== {name} ==");
        for alg in Algorithm::all() {
            let t0 = Instant::now();
            match run_algorithm(&p, &job, alg) {
                Ok(s) => {
                    println!(
                        "{:8} makespan {:8.1}s enrolled {} work {:9.1} ccr {:.4} (decided+simulated in {:?})",
                        alg.name(), s.makespan, s.enrolled(), s.work(), s.ccr(), t0.elapsed()
                    );
                    rows.push(Value::object([
                        ("platform", name.to_value()),
                        ("algorithm", alg.name().to_value()),
                        ("stats", s.to_value()),
                    ]));
                }
                Err(e) => println!("{:8} ERROR: {e}", alg.name()),
            }
        }
    }
    if let Some(path) = &cli.json {
        let json = Value::object([
            ("experiment", "sanity".to_value()),
            ("rows", Value::Array(rows)),
        ])
        .render_pretty();
        if let Err(e) = write_file(path, &json) {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
