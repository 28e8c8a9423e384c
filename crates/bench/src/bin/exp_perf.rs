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

use stargemm_bench::netperf::{
    self, net_report_json, net_trajectory, netmodel_steady_state_bytes, render_net_table,
    NET_BASELINE_SCHEMA,
};
use stargemm_bench::perf::{
    check_kernel_baseline, gemm_trajectory, kernel_trajectory, perf_report_json, render_gemm_table,
    render_kernel_table, sweep_cell_times, KERNEL_BASELINE_SCHEMA,
};
use stargemm_bench::{write_json, write_results, Cli};

// Every heap sample in this binary (kernel heap high-water, net-engine
// heap high-water, the netmodel steady-state delta) flows through the
// counting allocator.
#[global_allocator]
static ALLOC: netperf::CountingAlloc = netperf::CountingAlloc;

fn main() {
    let cli = Cli::parse();
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
    if let Ok(p) = write_results("perf.txt", &table) {
        eprintln!("(written to {})", p.display());
    }
    if let Some(path) = &cli.json {
        write_json(path, &json);
        // BENCH_net.json rides next to the kernel artifact.
        let net_path = path.with_file_name("BENCH_net.json");
        write_json(&net_path, &net_json);
    }
    stargemm_bench::obs::emit_artifacts(&cli, stargemm_bench::obs::default_cell);
    if let Some(base_path) = &cli.net_baseline {
        let baseline = read_baseline(base_path, NET_BASELINE_SCHEMA);
        match netperf::check_net_baseline(&baseline, &net) {
            Ok(msg) => println!("{msg}"),
            Err(msg) => {
                eprintln!("error: {msg}");
                std::process::exit(1);
            }
        }
    }
    if let Some(base_path) = &cli.kernel_baseline {
        let baseline = read_baseline(base_path, KERNEL_BASELINE_SCHEMA);
        match check_kernel_baseline(&baseline, &kernel, &gemm) {
            Ok(msg) => println!("{msg}"),
            Err(msg) => {
                eprintln!("error: {msg}");
                std::process::exit(1);
            }
        }
    }
}

/// Reads a committed baseline file, turning a missing or unreadable
/// path into a CLI error that names the expected schema instead of a
/// panic.
fn read_baseline(path: &std::path::Path, schema: &str) -> String {
    match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot read baseline {}: {e}", path.display());
            eprintln!("expected a committed JSON file of the form {schema}");
            std::process::exit(1);
        }
    }
}
