//! EXP-F9 — Figure 9: summary of all experiments.
//!
//! Re-runs every experimental campaign (Figures 4–8) and reports, per
//! experiment and aggregated, the relative cost and relative work of
//! `Het`, the best dynamic heuristic with the optimized layout
//! (`ODDOML`) and Toledo's `BMM` — the paper's headline comparison —
//! plus the steady-state upper-bound ratio (paper: mean 2.29×, worst
//! 3.42×). Uniform flags: `--smoke` (two sizes / four platforms /
//! smaller Lyon job), `--json <path>` (every instance of every
//! campaign), `--threads <n>` (each campaign fans out over the pool).

use stargemm_bench::{
    fig7_grid, fig8_grid, geomean, instances_to_json, size_grid, to_csv, write_json, write_results,
    Cli, Instance,
};
use stargemm_core::algorithms::Algorithm;
use stargemm_core::steady::bandwidth_centric;
use stargemm_platform::{presets, Platform};

fn main() {
    let cli = Cli::parse();
    // The campaigns reuse the exact grids of the standalone binaries
    // (same smoke sizing, sliced before anything is simulated).
    let sized = |p: &Platform| Instance::run_grid(&size_grid(p, &cli), cli.threads);
    let mut campaigns: Vec<(String, Vec<Instance>)> = Vec::new();
    campaigns.push(("fig4-memory".into(), sized(&presets::het_memory())));
    campaigns.push(("fig5-comm".into(), sized(&presets::het_comm())));
    campaigns.push(("fig6-comp".into(), sized(&presets::het_comp())));

    let grid7 = fig7_grid(&cli);
    let p7: Vec<Platform> = grid7.iter().map(|(p, _)| p.clone()).collect();
    campaigns.push((
        "fig7-fullhet".into(),
        Instance::run_grid(&grid7, cli.threads),
    ));

    campaigns.push((
        "fig8-lyon".into(),
        Instance::run_grid(&fig8_grid(&cli), cli.threads),
    ));

    let spotlight = [Algorithm::Het, Algorithm::Oddoml, Algorithm::Bmm];
    let mut out = String::new();
    out.push_str("Figure 9. Summary of experiments (relative cost | relative work)\n");
    out.push_str(&format!("{:<16}", "experiment"));
    for a in spotlight {
        out.push_str(&format!("{:>16}", a.name()));
    }
    out.push('\n');

    let mut all: Vec<Instance> = Vec::new();
    for (name, instances) in &campaigns {
        out.push_str(&format!("{name:<16}"));
        for a in spotlight {
            let cost = geomean(instances.iter().map(|i| i.relative_cost(a)));
            let work = geomean(instances.iter().map(|i| i.relative_work(a)));
            out.push_str(&format!("{:>8.3}|{:<7.3}", cost, work));
        }
        out.push('\n');
        all.extend(instances.iter().cloned());
    }

    out.push_str("\nAggregates over all instances:\n");
    for a in spotlight {
        let costs: Vec<f64> = all.iter().map(|i| i.relative_cost(a)).collect();
        let mean = geomean(costs.iter().copied());
        let worst = costs.iter().copied().fold(0.0, f64::max);
        out.push_str(&format!(
            "  {:<7} relative cost: geomean {:.3}, worst {:.3}\n",
            a.name(),
            mean,
            worst
        ));
    }
    // Layout gain: ODDOML vs BMM; selection gain: Het vs ODDOML (paper:
    // 19% and a further 10%, 27% total).
    let gain = |x: Algorithm, y: Algorithm| {
        let ratios: Vec<f64> = all
            .iter()
            .map(|i| i.result(y).makespan() / i.result(x).makespan())
            .collect();
        geomean(ratios)
    };
    out.push_str(&format!(
        "  memory-layout gain (BMM/ODDOML makespan):       {:.3}  (paper ≈ 1.23)\n",
        gain(Algorithm::Oddoml, Algorithm::Bmm)
    ));
    out.push_str(&format!(
        "  +resource-selection gain (BMM/Het makespan):    {:.3}  (paper ≈ 1.37)\n",
        gain(Algorithm::Het, Algorithm::Bmm)
    ));

    // Steady-state upper bound vs Het's achieved throughput.
    let mut ratios = Vec::new();
    let mut eval = |platform: &Platform, inst: &Instance| {
        if let Some(s) = &inst.result(Algorithm::Het).stats {
            let bound = bandwidth_centric(platform, inst.job.r).throughput;
            ratios.push(bound / s.throughput());
        }
    };
    // Per-campaign pairing for figs 4-6 (platform constant per campaign).
    for (idx, p) in [
        presets::het_memory(),
        presets::het_comm(),
        presets::het_comp(),
    ]
    .into_iter()
    .enumerate()
    {
        for inst in &campaigns[idx].1 {
            eval(&p, inst);
        }
    }
    for (p, inst) in p7.iter().zip(campaigns[3].1.iter()) {
        eval(p, inst);
    }
    for (p, inst) in [presets::lyon(true), presets::lyon(false)]
        .iter()
        .zip(campaigns[4].1.iter())
    {
        eval(p, inst);
    }
    let mean = ratios.iter().sum::<f64>() / ratios.len() as f64;
    let worst = ratios.iter().copied().fold(0.0, f64::max);
    out.push_str(&format!(
        "  steady-state bound / Het throughput: mean {:.2}, worst {:.2}  (paper: 2.29 / 3.42)\n",
        mean, worst
    ));

    print!("{out}");
    if let Ok(p) = write_results("fig9.txt", &out) {
        eprintln!("(written to {})", p.display());
    }
    if let Ok(p) = write_results("fig9_all.csv", &to_csv(&all)) {
        eprintln!("(written to {})", p.display());
    }
    if let Some(path) = &cli.json {
        write_json(path, &instances_to_json("fig9", &all));
    }
    let (p, j) = &grid7[0];
    stargemm_bench::obs::emit_artifacts(&cli, || {
        stargemm_bench::obs::gemm_cell(p, j, Algorithm::Het)
    });
}
