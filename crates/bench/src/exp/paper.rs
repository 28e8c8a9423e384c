//! The paper's rows: Figures 4–9, Tables 1–2 and the §3 bounds sweep.

use serde::json::Value;
use serde::Serialize;
use stargemm_core::algorithms::{run_algorithm_observed, Algorithm};
use stargemm_core::assign::{layout_sides, round_robin_queues};
use stargemm_core::bounds::{
    ccr_lower_bound, ito_lower_bound, maxreuse_ccr, maxreuse_ccr_asymptotic, toledo_ccr_asymptotic,
};
use stargemm_core::maxreuse::simulate_max_reuse;
use stargemm_core::steady::{bandwidth_centric, lp_throughput, table2_platform};
use stargemm_core::stream::{Serving, StreamingMaster};
use stargemm_core::Job;
use stargemm_platform::random::figure7_random_platforms;
use stargemm_platform::{presets, Platform, WorkerSpec};
use stargemm_sim::{RunStats, Simulator};

use super::{rows_json, Report, Sweep};
use crate::obs::{record_if, render_port_breakdown};
use crate::{
    fig7_grid, fig8_grid, geomean, instances_to_json, render_figure, size_grid, to_csv, Cli,
    Instance,
};

/// Every algorithm on every `(platform, job)` cell; the traced cell is
/// Het on `grid[traced]`.
fn instances(sweep: &mut Sweep, grid: &[(Platform, Job)], traced: usize) -> Vec<Instance> {
    sweep.run_traced(grid, traced, |(p, j), log| Instance::run_logged(p, j, log))
}

/// The two-panel figure on stdout and in `results/<id>.txt`, its CSV in
/// `results/<id>.csv`, and the instances as the `--json` document.
fn figure(
    id: &str,
    title: &str,
    instances: &[Instance],
    label: impl Fn(&Instance) -> String,
) -> Report {
    let fig = render_figure(title, instances, label);
    Report {
        stdout: fig.clone(),
        results: vec![
            (format!("{id}.txt"), fig),
            (format!("{id}.csv"), to_csv(instances)),
        ],
        json: instances_to_json(id, instances),
    }
}

/// Figures 4–6: the paper's five matrix sizes (B = 8000 × {64k..128k})
/// on one platform, relative cost (a) and relative work (b) of the seven
/// competitors. `--smoke` keeps the two smallest sizes; the traced cell
/// is Het on the largest size kept.
fn size_figure(cli: &Cli, sweep: &mut Sweep, id: &str, title: &str, platform: Platform) -> Report {
    let grid = size_grid(&platform, cli);
    let instances = instances(sweep, &grid, grid.len() - 1);
    figure(id, title, &instances, |i| {
        format!("s={} ({})", i.job.s, i.platform_name)
    })
}

/// Figure 4: heterogeneous memory.
pub fn fig4(cli: &Cli, sweep: &mut Sweep) -> Report {
    let title = "Figure 4. Heterogeneous memory.";
    size_figure(cli, sweep, "fig4", title, presets::het_memory())
}

/// Figure 5: heterogeneous communication links.
pub fn fig5(cli: &Cli, sweep: &mut Sweep) -> Report {
    let title = "Figure 5. Heterogeneous communication links.";
    size_figure(cli, sweep, "fig5", title, presets::het_comm())
}

/// Figure 6: heterogeneous computations.
pub fn fig6(cli: &Cli, sweep: &mut Sweep) -> Report {
    let title = "Figure 6. Heterogeneous computations.";
    size_figure(cli, sweep, "fig6", title, presets::het_comp())
}

/// Figure 7: twelve fully heterogeneous platforms — the fixed ratio-2
/// and ratio-4 combinations plus ten random draws (heterogeneity ratios
/// up to 4) — with A 8000×8000 and B 8000×80000 (`--smoke`: four
/// platforms, smaller B). The paper's headline: Het achieves the best
/// makespan on all but two platforms and is never far off, while every
/// other algorithm is at least once badly beaten. The traced cell is
/// Het on the ratio-2 platform.
pub fn fig7(cli: &Cli, sweep: &mut Sweep) -> Report {
    let instances = instances(sweep, &fig7_grid(cli), 0);
    let title = "Figure 7. Fully heterogeneous platforms.";
    let mut report = figure("fig7", title, &instances, |i| i.platform_name.clone());
    let out = &mut report.stdout;

    // Satellite view: where the one-port actually spent its time under
    // the best algorithm (Het) on every platform.
    let port_rows: Vec<(String, &RunStats)> = instances
        .iter()
        .filter_map(|i| {
            i.result(Algorithm::Het)
                .stats
                .as_ref()
                .map(|s| (i.platform_name.clone(), s))
        })
        .collect();
    out.push_str(&render_port_breakdown("Port breakdown (Het):", &port_rows));

    // Paper-style summary claims.
    let het_costs: Vec<f64> = instances
        .iter()
        .map(|i| i.relative_cost(Algorithm::Het))
        .collect();
    let worst_het = het_costs.iter().copied().fold(0.0, f64::max);
    out.push_str(&format!(
        "Het relative cost: geomean {:.3}, worst {:.3} (paper: best on 10/12, ≤ 1.09 otherwise)\n",
        geomean(het_costs.iter().copied()),
        worst_het
    ));
    for alg in Algorithm::all() {
        let worst = instances
            .iter()
            .map(|i| i.relative_cost(alg))
            .fold(0.0, f64::max);
        out.push_str(&format!(
            "worst-case relative cost of {:>7}: {:.3}\n",
            alg.name(),
            worst
        ));
    }
    report
}

/// Figure 8: the real Lyon platform — twenty workers (five per machine
/// group), B = 8000 × 320000, in the August-2007 configuration (all
/// 1 GB, nearly homogeneous) and the November-2006 one (ten nodes still
/// at 256 MB). `--smoke`: smaller B. The traced cell is Het on the
/// August-2007 configuration.
pub fn fig8(cli: &Cli, sweep: &mut Sweep) -> Report {
    let instances = instances(sweep, &fig8_grid(cli), 0);
    let title = "Figure 8. Real platform (Lyon cluster).";
    let mut report = figure("fig8", title, &instances, |i| i.platform_name.clone());
    for inst in &instances {
        for r in &inst.results {
            if let Some(s) = &r.stats {
                report.stdout.push_str(&format!(
                    "{:<14} {:<7} makespan {:>8.1}s, {} workers enrolled\n",
                    inst.platform_name,
                    r.algorithm.name(),
                    s.makespan,
                    s.enrolled()
                ));
            }
        }
    }
    report
}

/// Figure 9: the summary of Figures 4–8. Runs every campaign (their
/// own rows' grids, same smoke sizing) as one sweep and reports, per
/// campaign and aggregated, the relative cost and work of `Het`, the
/// best dynamic heuristic with the optimized layout (`ODDOML`) and
/// Toledo's `BMM` — the paper's headline comparison — plus the
/// steady-state upper-bound ratio (paper: mean 2.29×, worst 3.42×).
/// `--json` carries every instance of every campaign; the traced cell
/// is Figure 7's.
pub fn fig9(cli: &Cli, sweep: &mut Sweep) -> Report {
    let campaigns = [
        ("fig4-memory", size_grid(&presets::het_memory(), cli)),
        ("fig5-comm", size_grid(&presets::het_comm(), cli)),
        ("fig6-comp", size_grid(&presets::het_comp(), cli)),
        ("fig7-fullhet", fig7_grid(cli)),
        ("fig8-lyon", fig8_grid(cli)),
    ];
    let grid: Vec<(Platform, Job)> = campaigns.iter().flat_map(|(_, g)| g.clone()).collect();
    let traced = campaigns[..3].iter().map(|(_, g)| g.len()).sum();
    let all = instances(sweep, &grid, traced);

    let spotlight = [Algorithm::Het, Algorithm::Oddoml, Algorithm::Bmm];
    let mut out = String::new();
    out.push_str("Figure 9. Summary of experiments (relative cost | relative work)\n");
    out.push_str(&format!("{:<16}", "experiment"));
    for a in spotlight {
        out.push_str(&format!("{:>16}", a.name()));
    }
    out.push('\n');

    let mut rest = &all[..];
    for (name, g) in &campaigns {
        let (instances, tail) = rest.split_at(g.len());
        rest = tail;
        out.push_str(&format!("{name:<16}"));
        for a in spotlight {
            let cost = geomean(instances.iter().map(|i| i.relative_cost(a)));
            let work = geomean(instances.iter().map(|i| i.relative_work(a)));
            out.push_str(&format!("{:>8.3}|{:<7.3}", cost, work));
        }
        out.push('\n');
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
    let ratios: Vec<f64> = grid
        .iter()
        .zip(&all)
        .filter_map(|((platform, _), inst)| {
            let s = inst.result(Algorithm::Het).stats.as_ref()?;
            Some(bandwidth_centric(platform, inst.job.r).throughput / s.throughput())
        })
        .collect();
    let mean = ratios.iter().sum::<f64>() / ratios.len() as f64;
    let worst = ratios.iter().copied().fold(0.0, f64::max);
    out.push_str(&format!(
        "  steady-state bound / Het throughput: mean {:.2}, worst {:.2}  (paper: 2.29 / 3.42)\n",
        mean, worst
    ));

    Report {
        stdout: out.clone(),
        results: vec![
            ("fig9.txt".into(), out),
            ("fig9_all.csv".into(), to_csv(&all)),
        ],
        json: instances_to_json("fig9", &all),
    }
}

/// One Table 1 row.
#[derive(Serialize)]
struct LpRow {
    platform: String,
    greedy: f64,
    simplex: f64,
    agree: bool,
    enrolled: usize,
}

/// Table 1: the steady-state linear program, solved with the dense
/// simplex and cross-checked against the bandwidth-centric greedy (they
/// must agree — the greedy is the LP's closed-form optimum) on every
/// platform of the experimental section (`--smoke`: the presets only).
pub fn table1(cli: &Cli, sweep: &mut Sweep) -> Report {
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
    let rows = sweep.run(&platforms, |p| {
        let ss = bandwidth_centric(p, 100);
        let lp = lp_throughput(p, 100);
        LpRow {
            platform: p.name.clone(),
            greedy: ss.throughput,
            simplex: lp,
            agree: (ss.throughput - lp).abs() / lp.max(1e-12) < 1e-6,
            enrolled: ss.enrolled.len(),
        }
    });

    let mut out = String::new();
    out.push_str("Table 1: steady-state throughput (block updates/s), greedy vs simplex\n");
    out.push_str(&format!(
        "{:<22} {:>12} {:>12} {:>10} {:>9}\n",
        "platform", "greedy", "simplex LP", "agree", "enrolled"
    ));
    for r in &rows {
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
    Report::table("exp_table1.txt", out, rows_json("table1", &rows))
}

/// One Table 2 row.
#[derive(Serialize)]
struct GapRow {
    x: f64,
    bound: f64,
    achieved: f64,
    ratio: f64,
    best_alg: &'static str,
}

/// Table 2: the bandwidth-centric solution is not always feasible with
/// finite memory. Two demonstrations on the paper's two-worker platform
/// (`P1 = (c=1, w=2)`, `P2 = (c=x, w=2x)`, both μ = 2):
///
/// 1. the achieved throughput of the best practical algorithm falls
///    increasingly short of the steady-state bound as `x` grows — the
///    fast worker starves while the port serves the slow one
///    (`--smoke`: three `x` values);
/// 2. a policy that tries to buffer far enough ahead to keep `P1` busy
///    (a deep lookahead window) is caught violating `P1`'s memory
///    capacity by the simulator.
///
/// The traced cell is Het at `x = 8`, the starvation the table is about.
pub fn table2(cli: &Cli, sweep: &mut Sweep) -> Report {
    let job = Job::new(8, 50, 16, 80);
    let xs: &[f64] = if cli.smoke {
        &[1.0, 8.0, 32.0]
    } else {
        &[1.0, 2.0, 4.0, 8.0, 16.0, 32.0]
    };
    let traced = xs.iter().position(|&x| x == 8.0).expect("x = 8 is swept");
    let rows = sweep.run_traced(xs, traced, |&x, log| {
        let p = table2_platform(x);
        let bound = bandwidth_centric(&p, job.r).throughput;
        let mut best = (f64::INFINITY, "-");
        let mut trace = None;
        for alg in [Algorithm::Het, Algorithm::Oddoml, Algorithm::Orroml] {
            let (stats, events) = record_if(log && alg == Algorithm::Het, |obs| {
                run_algorithm_observed(&p, &job, alg, obs)
            });
            if let Ok(s) = stats {
                if let Some(events) = events {
                    trace = Some((events, s.makespan));
                }
                if s.makespan < best.0 {
                    best = (s.makespan, alg.name());
                }
            }
        }
        let achieved = job.total_updates() as f64 / best.0;
        let row = GapRow {
            x,
            bound,
            achieved,
            ratio: bound / achieved,
            best_alg: best.1,
        };
        (row, trace)
    });

    let mut out = String::new();
    out.push_str("Table 2: steady-state bound vs achieved throughput (μ1 = μ2 = 2)\n");
    out.push_str(&format!(
        "{:>6} {:>12} {:>14} {:>14} {:>8}\n",
        "x", "bound ρ*", "best achieved", "ratio ρ*/ρ", "best alg"
    ));
    for r in &rows {
        out.push_str(&format!(
            "{:>6} {:>12.4} {:>14.4} {:>14.2} {:>8}\n",
            r.x, r.bound, r.achieved, r.ratio, r.best_alg,
        ));
    }

    out.push_str(
        "\nInfeasibility probe: a window deep enough to keep P1 fed during\n\
         P2's slow transfers needs more than P1's m = 12 buffers:\n",
    );
    let p = table2_platform(8.0);
    let sides = layout_sides(&p, &job);
    let queues = round_robin_queues(&job, 2, [0, 1], &sides, &mut 0);
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
    let json = Value::object([
        ("experiment", "table2".to_value()),
        ("rows", rows.to_value()),
        ("infeasibility_probe", verdict.to_value()),
    ]);
    Report::table("exp_table2.txt", out, json.render_pretty())
}

/// One §3 bounds row.
#[derive(Serialize)]
struct CcrRow {
    m: usize,
    bound: f64,
    ito: f64,
    maxreuse: f64,
    maxreuse_asymptotic: f64,
    toledo: f64,
    simulated: f64,
}

/// §3: communication-volume bounds. For a sweep of memory sizes
/// (`--smoke`: four), the paper's lower bound `√(27/8m)`, the previous
/// Irony-Toledo-Tiskin bound `√(1/8m)`, the maximum re-use algorithm's
/// analytic CCR `2/t + 2/μ`, Toledo's equal-thirds CCR, and the CCR
/// *measured* by simulating the maximum re-use policy on a single
/// worker.
pub fn bounds(cli: &Cli, sweep: &mut Sweep) -> Report {
    let t = 100;
    let ms: &[usize] = if cli.smoke {
        &[50, 200, 1_000, 5_000]
    } else {
        &[50, 100, 200, 500, 1_000, 5_000, 10_000, 20_000]
    };
    let rows = sweep.run(ms, |&m| {
        // Simulate on a single worker with enough rows to form chunks.
        let mu = stargemm_core::layout::mu_no_overlap(m);
        let job = Job::new(mu.max(1), t, 2 * mu.max(1), 80);
        let spec = WorkerSpec::new(1.0, 1.0, m);
        let sim_ccr = simulate_max_reuse(&job, spec)
            .map(|s| s.ccr())
            .unwrap_or(f64::NAN);
        CcrRow {
            m,
            bound: ccr_lower_bound(m),
            ito: ito_lower_bound(m),
            maxreuse: maxreuse_ccr(m, t),
            maxreuse_asymptotic: maxreuse_ccr_asymptotic(m),
            toledo: toledo_ccr_asymptotic(m),
            simulated: sim_ccr,
        }
    });

    let mut out = String::new();
    out.push_str("Section 3: communication-to-computation ratio vs memory (t = 100)\n");
    out.push_str(&format!(
        "{:>8} {:>12} {:>12} {:>14} {:>12} {:>12} {:>12}\n",
        "m", "bound 27/8m", "ITO 1/8m", "maxreuse(t)", "maxreuse inf", "Toledo", "simulated"
    ));
    for r in &rows {
        out.push_str(&format!(
            "{:>8} {:>12.5} {:>12.5} {:>14.5} {:>12.5} {:>12.5} {:>12.5}\n",
            r.m, r.bound, r.ito, r.maxreuse, r.maxreuse_asymptotic, r.toledo, r.simulated,
        ));
    }
    out.push_str("\nInvariants: bound < maxreuse; maxreuse/bound -> sqrt(32/27) ~ 1.089; Toledo/maxreuse -> sqrt(3).\n");
    Report::table("exp_bounds.txt", out, rows_json("bounds", &rows))
}
