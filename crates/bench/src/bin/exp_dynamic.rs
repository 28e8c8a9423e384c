//! EXP-DYN — beyond the paper: dynamic platforms, worker churn, and
//! adaptive online scheduling.
//!
//! Sweeps jitter/churn regimes over a heterogeneous star and compares
//! `AdaptiveHet` (EWMA estimation + drift-triggered re-balancing +
//! crash recovery) against the paper's static `Het` plan (crash
//! recovery only — "HetGuard") and Toledo's `BMM` (jitter regimes only:
//! the raw pool policy is crash-oblivious). Every makespan is checked
//! against the trace-aware steady-state lower bound.
//!
//! Every (scenario, policy) cell is an independent simulation, so the
//! whole sweep fans out over the thread pool (`--threads`, default all
//! cores); results — table, `results/dynamic.txt`, and the `--json`
//! artifact — are identical whatever the fan-out width.
//!
//! ```sh
//! cargo run --release -p stargemm-bench --bin exp_dynamic            # full sweep
//! cargo run --release -p stargemm-bench --bin exp_dynamic -- --smoke # CI-sized
//! cargo run ... -- --smoke --threads 2 --json results/bench_dynamic.json
//! ```

use serde::json::Value;
use serde::Serialize;
use stargemm_bench::{write_json, write_results, Cli, SweepSpec};
use stargemm_core::algorithms::{build_policy, Algorithm};
use stargemm_core::Job;
use stargemm_dyn::model::{DynPlatform, DynProfile};
use stargemm_dyn::{
    churn_scenario, degradation_scenario, dyn_makespan_lower_bound, random_scenario,
    AdaptiveMaster, AdaptiveStats, ScenarioConfig,
};
use stargemm_platform::{Platform, WorkerSpec};
use stargemm_sim::Simulator;

/// Which policy a sweep cell runs.
#[derive(Clone, Copy, Debug)]
enum PolicyKind {
    Adaptive,
    Guarded,
    Static(Algorithm),
}

/// One cell of the sweep grid: a scenario/policy pair (plus the
/// scenario's lower bound, computed once per scenario).
struct Cell {
    scenario: &'static str,
    dp: DynPlatform,
    job: Job,
    bound: f64,
    kind: PolicyKind,
}

/// One (scenario, policy) measurement.
struct Row {
    scenario: &'static str,
    policy: String,
    makespan: Option<f64>,
    bound: f64,
    adaptive: Option<AdaptiveStats>,
}

impl Serialize for Row {
    fn to_value(&self) -> Value {
        let stat = |get: fn(&AdaptiveStats) -> u64| self.adaptive.as_ref().map(get).to_value();
        Value::object([
            ("scenario", self.scenario.to_value()),
            ("policy", self.policy.to_value()),
            ("makespan", self.makespan.to_value()),
            ("lower_bound", self.bound.to_value()),
            ("reassigned_chunks", stat(|s| s.reassigned_chunks)),
            ("rebalances", stat(|s| s.rebalances)),
            ("crashes", stat(|s| s.crashes)),
            ("joins", stat(|s| s.joins)),
        ])
    }
}

fn platform() -> Platform {
    Platform::new(
        "dyn-sweep",
        vec![
            WorkerSpec::new(0.20, 0.10, 60),
            WorkerSpec::new(0.25, 0.12, 60),
            WorkerSpec::new(0.30, 0.15, 40),
            WorkerSpec::new(0.50, 0.30, 40),
        ],
    )
}

fn scenarios(base: &Platform, smoke: bool) -> Vec<(&'static str, DynPlatform, bool)> {
    // (name, scenario, has_churn)
    let jit = |c, w, seed| {
        random_scenario(
            base,
            ScenarioConfig {
                c_jitter: c,
                w_jitter: w,
                crash_prob: 0.0,
                segment_len: 30.0,
                horizon: 600.0,
                rejoin_prob: 0.0,
            },
            seed,
        )
    };
    let mut v = vec![
        ("static", DynPlatform::constant(base.clone()), false),
        ("jitter-mild", jit(1.5, 1.2, 11), false),
        ("jitter-wild", jit(3.0, 2.0, 12), false),
        (
            "degrade-1x8",
            degradation_scenario(base, 1, 8.0, 25.0).expect("valid scenario"),
            false,
        ),
        (
            "crash-top",
            churn_scenario(base, &[(0, 40.0, f64::INFINITY)]).expect("valid scenario"),
            true,
        ),
    ];
    if !smoke {
        v.push((
            "churn-2",
            churn_scenario(base, &[(0, 40.0, f64::INFINITY), (2, 20.0, 120.0)])
                .expect("valid scenario"),
            true,
        ));
        // The acceptance combination: a top worker dies while another
        // degrades ×10.
        let mut combo = degradation_scenario(base, 1, 10.0, 10.0).expect("valid scenario");
        let churn = churn_scenario(base, &[(0, 40.0, f64::INFINITY)]).expect("valid scenario");
        combo.profile = DynProfile::new(
            combo
                .profile
                .workers()
                .iter()
                .zip(churn.profile.workers())
                .map(|(a, b)| {
                    stargemm_dyn::model::WorkerDyn::new(
                        a.c_scale.clone(),
                        a.w_scale.clone(),
                        b.downtime.clone(),
                    )
                })
                .collect(),
        );
        v.push(("crash+jitter", combo, true));
    }
    v
}

/// The sweep grid: every scenario × applicable policy, in report order.
fn grid(base: &Platform, job: Job, smoke: bool) -> Vec<Cell> {
    let mut cells = Vec::new();
    for (name, dp, churny) in scenarios(base, smoke) {
        let bound = dyn_makespan_lower_bound(&dp.base, &dp.profile, &job);
        let mut kinds = vec![PolicyKind::Adaptive, PolicyKind::Guarded];
        if !churny {
            // Raw static policies execute fine under pure jitter — the
            // engine stretches their durations; they just never react.
            kinds.push(PolicyKind::Static(Algorithm::Bmm));
        }
        cells.extend(kinds.into_iter().map(|kind| Cell {
            scenario: name,
            dp: dp.clone(),
            job,
            bound,
            kind,
        }));
    }
    cells
}

/// Runs one sweep cell (executed on a pool worker).
fn run_cell(cell: &Cell) -> Row {
    let (policy_name, makespan, adaptive) = match cell.kind {
        PolicyKind::Adaptive | PolicyKind::Guarded => {
            let adapt = matches!(cell.kind, PolicyKind::Adaptive);
            let mut policy = if adapt {
                AdaptiveMaster::adaptive_het(&cell.dp.base, &cell.job).expect("layout fits")
            } else {
                AdaptiveMaster::guarded_het(&cell.dp.base, &cell.job).expect("layout fits")
            };
            let makespan = Simulator::new_dyn(cell.dp.clone())
                .run(&mut policy)
                .map(|s| s.makespan)
                .ok();
            let name = if adapt { "AdaptiveHet" } else { "HetGuard" };
            (name.to_string(), makespan, Some(policy.stats()))
        }
        PolicyKind::Static(alg) => {
            let makespan = build_policy(&cell.dp.base, &cell.job, alg)
                .ok()
                .and_then(|mut p| {
                    Simulator::new_dyn(cell.dp.clone())
                        .run(&mut p)
                        .map(|s| s.makespan)
                        .ok()
                });
            (alg.name().to_string(), makespan, None)
        }
    };
    Row {
        scenario: cell.scenario,
        policy: policy_name,
        makespan,
        bound: cell.bound,
        adaptive,
    }
}

fn render(rows: &[Row]) -> String {
    let mut out =
        String::from("Dynamic platforms: AdaptiveHet vs static Het/BMM (model time, seconds)\n");
    out.push_str(&format!(
        "{:<14}{:>13}{:>11}{:>12}{:>8}{:>7}{:>7}\n",
        "scenario", "policy", "makespan", "bound", "m/b", "reasgn", "rebal"
    ));
    for r in rows {
        let (mk, ratio) = match r.makespan {
            Some(m) => (format!("{m:.1}"), format!("{:.2}", m / r.bound)),
            None => ("-".into(), "-".into()),
        };
        let (reasgn, rebal) = match r.adaptive {
            Some(s) => (s.reassigned_chunks.to_string(), s.rebalances.to_string()),
            None => ("-".into(), "-".into()),
        };
        out.push_str(&format!(
            "{:<14}{:>13}{:>11}{:>12.1}{:>8}{:>7}{:>7}\n",
            r.scenario, r.policy, mk, r.bound, ratio, reasgn, rebal
        ));
    }
    out
}

fn main() {
    let cli = Cli::parse();
    let base = platform();
    let job = if cli.smoke {
        Job::new(8, 6, 12, 2)
    } else {
        Job::new(16, 10, 24, 2)
    };

    let cells = grid(&base, job, cli.smoke);
    let outcome = SweepSpec::new("dynamic", cli.threads).run(&cells, run_cell);
    eprintln!("{}", outcome.summary());
    let rows = &outcome.rows;

    // Sanity: nothing may beat its trace-aware lower bound.
    for r in rows {
        if let Some(m) = r.makespan {
            assert!(
                m >= r.bound - 1e-9,
                "{}/{} beats the lower bound: {m} < {}",
                r.scenario,
                r.policy,
                r.bound
            );
        }
    }

    let table = render(rows);
    print!("{table}");
    if let Ok(p) = write_results("dynamic.txt", &table) {
        eprintln!("(written to {})", p.display());
    }
    if let Some(path) = &cli.json {
        write_json(path, &outcome.to_json());
    }
    stargemm_bench::obs::emit_artifacts(&cli, || {
        // The representative dynamic cell: AdaptiveHet through the
        // crash-top scenario (a top worker dies mid-run), so the trace
        // shows crash, chunk reassignment, and recovery events.
        let dp = scenarios(&base, true)
            .into_iter()
            .find(|(name, _, _)| *name == "crash-top")
            .map(|(_, dp, _)| dp)
            .expect("crash-top is always in the grid");
        let mut policy = AdaptiveMaster::adaptive_het(&base, &job).expect("layout fits");
        let (res, events) = stargemm_bench::obs::record_with(|obs| {
            Simulator::new_dyn(dp).run_observed(&mut policy, obs)
        });
        let stats = res.expect("crash-top run succeeds");
        Some((events, stats.makespan))
    });
}
