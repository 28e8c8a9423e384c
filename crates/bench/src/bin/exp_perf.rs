//! Pinned perf trajectory: kernel events/sec, heap high-water,
//! cancellation counts, block-kernel GFLOP/s at q = 32 / 80 / 100, sweep
//! per-cell wall times — and the net-engine leg (`BENCH_net.json`):
//! the reactor's worker-scaling curve and the netmodel zero-allocation
//! steady-state assertion.
//!
//! CI runs `exp_perf --smoke --json BENCH_kernel.json --net-baseline
//! ci/BENCH_net_baseline.json` and uploads both artifacts, so kernel,
//! sweep, or net-engine regressions show up as steps in the trajectory
//! across commits (and a >20 % reactor throughput drop fails the job
//! outright). The workloads are shared with the library tests (see
//! [`stargemm_bench::perf`] and [`stargemm_bench::netperf`]); this
//! binary is the cheap always-on sampling pass that holds the floors,
//! the repo benchmark (`benchmark/`) the statistically careful
//! comparison between two commits.
//!
//! Besides the common flags ([`Cli`]; nothing here is traced, so
//! `--trace-out`/`--attr-out` are usage errors) it takes the two it
//! alone honours:
//! `--net-baseline <path>` (fail when the reactor's events/sec drop more
//! than 20 % below the committed baseline) and `--kernel-baseline
//! <path>` (the same floor per event-kernel workload).

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use stargemm_bench::cli::{flag_value, usage_exit, Cli};
use stargemm_bench::netperf::{
    self, net_report_json, net_trajectory, netmodel_steady_state_bytes, render_net_table,
    NET_BASELINE_SCHEMA,
};
use stargemm_bench::perf::{
    check_kernel_baseline, gemm_trajectory, kernel_trajectory, perf_report_json, render_gemm_table,
    render_kernel_table, sweep_cell_times, KERNEL_BASELINE_SCHEMA,
};
use stargemm_bench::write_file;

// Every heap sample in this binary (kernel heap high-water, net-engine
// heap high-water, the netmodel steady-state delta) flows through the
// counting allocator.
#[global_allocator]
static ALLOC: netperf::CountingAlloc = netperf::CountingAlloc;

fn main() -> ExitCode {
    let (cli, net_baseline, kernel_baseline) = parse_args();
    let (pending, events) = if cli.smoke {
        (1_024, 50_000)
    } else {
        (1_024, 500_000)
    };

    let kernel = kernel_trajectory(pending, events);
    let gemm = gemm_trajectory();
    let table = format!(
        "{}\n{}",
        render_kernel_table(&kernel),
        render_gemm_table(&gemm)
    );
    print!("{table}");

    let cells = sweep_cell_times(&cli);
    println!("\nsweep per-cell wall time (serial):");
    for c in &cells {
        println!("{:<28}{:>10.3}s", c.cell, c.wall_secs);
    }

    // The net-engine leg.
    let steady = netmodel_steady_state_bytes(256, 1_000);
    assert_eq!(
        steady, 0,
        "netmodel re-share steady state allocated {steady} bytes"
    );
    let net = net_trajectory();
    println!("\nnet engine (netmodel steady-state alloc: {steady} B):");
    print!("{}", render_net_table(&net));
    let net_json = net_report_json(&net, steady);

    let json = perf_report_json(&kernel, &gemm, &cells);
    let mut writes = vec![(Path::new("results/perf.txt").to_path_buf(), table)];
    if let Some(path) = &cli.json {
        writes.push((path.clone(), json));
        // BENCH_net.json rides next to the kernel artifact.
        writes.push((path.with_file_name("BENCH_net.json"), net_json));
    }
    for (path, contents) in &writes {
        if let Err(e) = write_file(path, contents) {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }
    if let Some(base_path) = &net_baseline {
        let baseline = read_baseline(base_path, NET_BASELINE_SCHEMA);
        match netperf::check_net_baseline(&baseline, &net) {
            Ok(msg) => println!("{msg}"),
            Err(msg) => {
                eprintln!("error: {msg}");
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(base_path) = &kernel_baseline {
        let baseline = read_baseline(base_path, KERNEL_BASELINE_SCHEMA);
        match check_kernel_baseline(&baseline, &kernel, &gemm) {
            Ok(msg) => println!("{msg}"),
            Err(msg) => {
                eprintln!("error: {msg}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

/// Parses the process arguments; prints the error and exits with status
/// 2 on a malformed or unknown flag.
fn parse_args() -> (Cli, Option<PathBuf>, Option<PathBuf>) {
    let args: Vec<String> = std::env::args().skip(1).collect();
    split_baselines(&args).unwrap_or_else(|e| {
        let usage = "exp_perf [--smoke] [--json <path>] [--threads <n>] \
                     [--net-baseline <path>] [--kernel-baseline <path>]";
        usage_exit(&e, usage)
    })
}

/// Splits the net and kernel baseline paths off `args` and parses the
/// rest as the common flags, less the artifact flags.
fn split_baselines(args: &[String]) -> Result<(Cli, Option<PathBuf>, Option<PathBuf>), String> {
    let (mut net, mut kernel, mut common) = (None, None, Vec::new());
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let slot = match arg.as_str() {
            "--net-baseline" => &mut net,
            "--kernel-baseline" => &mut kernel,
            _ => {
                common.push(arg.clone());
                continue;
            }
        };
        *slot = Some(PathBuf::from(flag_value(&mut it, arg, "path")?));
    }
    Ok((Cli::from_args(&common)?.untraced()?, net, kernel))
}

/// Reads a committed baseline file, turning a missing or unreadable
/// path into a CLI error that names the expected schema instead of a
/// panic.
fn read_baseline(path: &Path, schema: &str) -> String {
    match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot read baseline {}: {e}", path.display());
            eprintln!("expected a committed JSON file of the form {schema}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn baselines_split_off_the_common_flags() {
        let (cli, net, kernel) = split_baselines(&strs(&[
            "--threads",
            "3",
            "--net-baseline",
            "b.json",
            "--smoke",
            "--kernel-baseline",
            "k.json",
            "--json",
            "o.json",
        ]))
        .unwrap();
        assert_eq!(net, Some(PathBuf::from("b.json")));
        assert_eq!(kernel, Some(PathBuf::from("k.json")));
        assert!(cli.smoke);
        assert_eq!(cli.threads, 3);
        assert_eq!(cli.json, Some(PathBuf::from("o.json")));
        let (_, net, kernel) = split_baselines(&[]).unwrap();
        assert_eq!((net, kernel), (None, None));
    }

    #[test]
    fn a_baseline_flag_needs_a_path() {
        for flag in ["--net-baseline", "--kernel-baseline"] {
            let err = split_baselines(&strs(&[flag])).unwrap_err();
            assert!(err.contains(&format!("{flag} needs a path")), "{err}");
            let err = split_baselines(&strs(&[flag, "--smoke"])).unwrap_err();
            assert!(err.contains(&format!("{flag} needs a path")), "{err}");
        }
    }

    #[test]
    fn common_flags_keep_their_errors() {
        let err = split_baselines(&strs(&["--frobnicate"])).unwrap_err();
        assert!(err.contains("--frobnicate"), "{err}");
        let err = split_baselines(&strs(&["--json", "--net-baseline", "b.json"])).unwrap_err();
        assert!(err.contains("--json needs a path"), "{err}");
    }
}
