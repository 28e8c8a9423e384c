//! EXP-F7 — Figure 7: fully heterogeneous platforms.
//!
//! Twelve platforms — the fixed ratio-2 and ratio-4 combinations plus
//! ten random draws (heterogeneity ratios up to 4) — with A 8000×8000
//! and B 8000×80000. The paper's headline: Het achieves the best
//! makespan on all but two platforms and is never far off, while every
//! other algorithm is at least once badly beaten.
//!
//! Uniform flags: `--smoke` (four platforms, smaller B), `--json
//! <path>`, `--threads <n>` — the platform grid fans out over the sweep
//! runner, one independent simulation batch per platform.

use stargemm_bench::{
    emit_figure, fig7_grid, geomean, instances_to_json, obs, write_json, Cli, Instance,
};
use stargemm_core::algorithms::Algorithm;

fn main() {
    let cli = Cli::parse();
    let grid = fig7_grid(&cli);
    let instances = Instance::run_grid(&grid, cli.threads);
    emit_figure(
        "fig7",
        "Figure 7. Fully heterogeneous platforms.",
        &instances,
        |i| i.platform_name.clone(),
    );
    if let Some(path) = &cli.json {
        write_json(path, &instances_to_json("fig7", &instances));
    }
    let (p, j) = &grid[0];
    obs::emit_artifacts(&cli, || obs::gemm_cell(p, j, Algorithm::Het));

    // Satellite view: where the one-port actually spent its time under
    // the best algorithm (Het) on every platform.
    let port_rows: Vec<(String, &stargemm_sim::RunStats)> = instances
        .iter()
        .filter_map(|i| {
            i.result(Algorithm::Het)
                .stats
                .as_ref()
                .map(|s| (i.platform_name.clone(), s))
        })
        .collect();
    print!(
        "{}",
        obs::render_port_breakdown("Port breakdown (Het):", &port_rows)
    );

    // Paper-style summary claims.
    let het_costs: Vec<f64> = instances
        .iter()
        .map(|i| i.relative_cost(Algorithm::Het))
        .collect();
    let worst_het = het_costs.iter().copied().fold(0.0, f64::max);
    println!(
        "Het relative cost: geomean {:.3}, worst {:.3} (paper: best on 10/12, ≤ 1.09 otherwise)",
        geomean(het_costs.iter().copied()),
        worst_het
    );
    for alg in Algorithm::all() {
        let worst = instances
            .iter()
            .map(|i| i.relative_cost(alg))
            .fold(0.0, f64::max);
        println!(
            "worst-case relative cost of {:>7}: {:.3}",
            alg.name(),
            worst
        );
    }
}
