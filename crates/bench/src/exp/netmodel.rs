//! The `netmodel` row — beyond the paper: pluggable network-contention
//! models.
//!
//! The paper's entire analysis rests on the strict one-port assumption.
//! This experiment swaps the contention model — one-port, bounded
//! multi-port (`k` ports, optional aggregate backbone), dslab-style
//! fair-share backbone — and measures where `Het`'s one-port-optimal
//! plan degrades or gains:
//!
//! * **sweep** (model × k × backbone-ratio × platform preset): every
//!   cell runs the static `Het` plan through the discrete-event engine
//!   under that model and compares the makespan against the *model-aware*
//!   generalized steady-state bound (`core::steady::generalized_lp` —
//!   per-port + backbone capacity rows instead of `Σ τ_i ≤ 1`). No cell
//!   may beat its bound (asserted);
//! * **cross-engine leg**: one shared small scenario runs all three
//!   models through *both* engines — the simulator and the net runtime
//!   (whose reactor lane table throttles real links to the same shares)
//!   — and records that they realize the identical per-worker schedule
//!   (only schedule counts, which are plan-determined, reach the
//!   artifact).
//!
//! Backbone ratios are relative to the platform's *fastest* nominal link
//! rate (1.0 = a single full-speed transfer saturates the backbone).

use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::json::Value;
use serde::Serialize;
use stargemm_core::algorithms::{build_policy, Algorithm};
use stargemm_core::steady::model_makespan_lower_bound;
use stargemm_core::Job;
use stargemm_linalg::BlockMatrix;
use stargemm_net::{NetOptions, NetRuntime};
use stargemm_netmodel::NetModelSpec;
use stargemm_platform::{Platform, WorkerSpec};
use stargemm_sim::{RunStats, Simulator};

use super::{Report, Sweep};
use crate::obs::record_if;
use crate::{Cli, RunLog};

/// One cell of the sweep grid.
struct Cell {
    platform_name: &'static str,
    platform: Platform,
    job: Job,
    /// Human-stable model description for reports.
    label: String,
    /// Backbone ratio the label was derived from (None = unlimited).
    ratio: Option<f64>,
    spec: NetModelSpec,
    /// Model-aware steady-state makespan lower bound.
    bound: f64,
}

/// One sweep measurement.
#[derive(Serialize)]
struct Row {
    platform: &'static str,
    model: String,
    backbone_ratio: Option<f64>,
    makespan: Option<f64>,
    lower_bound: f64,
    /// Makespan relative to the same plan under one-port (< 1 = the
    /// extra capacity helps even an oblivious plan).
    vs_oneport: Option<f64>,
}

/// The model grid for one platform: (label, ratio, spec).
///
/// Backbone ratios are relative to the platform's *fastest* link: 1.0
/// means one full-speed transfer saturates the backbone (so any
/// concurrency shares it), 0.5 throttles even a lone transfer, 2.0
/// leaves room for two fast links.
fn models(platform: &Platform, smoke: bool) -> Vec<(String, Option<f64>, NetModelSpec)> {
    let fastest: f64 = platform
        .workers()
        .iter()
        .map(|s| 1.0 / s.c)
        .fold(0.0, f64::max);
    let mut v = vec![("oneport".to_string(), None, NetModelSpec::OnePort)];
    let ks: &[usize] = if smoke { &[2] } else { &[2, 3] };
    let ratios: &[f64] = if smoke { &[0.5, 2.0] } else { &[0.5, 1.0, 2.0] };
    for &k in ks {
        v.push((
            format!("multiport k={k}"),
            None,
            NetModelSpec::BoundedMultiPort { k, backbone: None },
        ));
        for &r in ratios {
            v.push((
                format!("multiport k={k} bb={r}"),
                Some(r),
                NetModelSpec::BoundedMultiPort {
                    k,
                    backbone: Some(r * fastest),
                },
            ));
        }
    }
    for &r in ratios {
        v.push((
            format!("fairshare bb={r}"),
            Some(r),
            NetModelSpec::FairShare {
                backbone: r * fastest,
            },
        ));
    }
    v
}

fn grid(smoke: bool) -> Vec<Cell> {
    let job = Job::paper(if smoke { 16_000 } else { 80_000 });
    let platforms = [
        ("het-2", stargemm_platform::presets::fully_het(2.0)),
        ("het-4", stargemm_platform::presets::fully_het(4.0)),
    ];
    let mut cells = Vec::new();
    for (name, platform) in platforms {
        for (label, ratio, spec) in models(&platform, smoke) {
            let bound = model_makespan_lower_bound(&platform, &job, &spec);
            cells.push(Cell {
                platform_name: name,
                platform: platform.clone(),
                job,
                label,
                ratio,
                spec,
                bound,
            });
        }
    }
    cells
}

/// Runs one sweep cell (executed on a pool worker), under a recorder
/// when `log` is set.
fn run_cell(cell: &Cell, log: bool) -> (Row, Option<RunLog>) {
    let (stats, events) = match build_policy(&cell.platform, &cell.job, Algorithm::Het) {
        Ok(mut policy) => record_if(log, |obs| {
            Simulator::new(cell.platform.clone())
                .with_netmodel(cell.spec)
                .run_observed(&mut policy, obs)
                .ok()
        }),
        Err(_) => (None, None),
    };
    let makespan = stats.map(|s| s.makespan);
    let row = Row {
        platform: cell.platform_name,
        model: cell.label.clone(),
        backbone_ratio: cell.ratio,
        makespan,
        lower_bound: cell.bound,
        vs_oneport: None, // annotated after the sweep
    };
    (row, events.zip(makespan))
}

// ---------------------------------------------------------------------
// Cross-engine leg: both engines on one shared scenario per model.
// ---------------------------------------------------------------------

/// Plan-determined schedule counts of one run (engine-independent for a
/// statically planned policy — these, not wall-clock times, go into the
/// deterministic artifact).
#[derive(PartialEq, Eq)]
struct Schedule {
    chunks: Vec<u64>,
    updates: Vec<u64>,
    blocks_rx: Vec<u64>,
    blocks_tx: Vec<u64>,
}

impl Schedule {
    fn of(stats: &RunStats) -> Schedule {
        Schedule {
            chunks: stats.per_worker.iter().map(|w| w.chunks_assigned).collect(),
            updates: stats.per_worker.iter().map(|w| w.updates).collect(),
            blocks_rx: stats.per_worker.iter().map(|w| w.blocks_rx).collect(),
            blocks_tx: stats.per_worker.iter().map(|w| w.blocks_tx).collect(),
        }
    }
}

#[derive(Serialize)]
struct CrossRow {
    model: String,
    sim_makespan: f64,
    blocks_rx: Vec<u64>,
    schedule_agrees: bool,
}

/// Runs the shared scenario through both engines under `spec` and
/// compares the realized per-worker schedules.
fn cross_engine(spec: &NetModelSpec, label: &str) -> CrossRow {
    let job = Job::new(6, 5, 8, 4);
    let platform = Platform::new(
        "cross-nm",
        vec![
            WorkerSpec::new(1e-4, 1e-4, 60),
            WorkerSpec::new(2e-4, 2e-4, 30),
        ],
    );
    let mut policy = build_policy(&platform, &job, Algorithm::Het).expect("layout fits");
    let sim = Simulator::new(platform.clone())
        .with_netmodel(*spec)
        .run(&mut policy)
        .expect("sim run completes");

    let mut rng = StdRng::seed_from_u64(2008);
    let a = BlockMatrix::random(job.r, job.t, job.q, &mut rng);
    let b = BlockMatrix::random(job.t, job.s, job.q, &mut rng);
    let mut c = BlockMatrix::zeros(job.r, job.s, job.q);
    let mut policy = build_policy(&platform, &job, Algorithm::Het).expect("layout fits");
    let rt = NetRuntime::new(platform).with_options(NetOptions {
        time_scale: 1e-7,
        idle_timeout: Duration::from_secs(30),
        netmodel: *spec,
        ..Default::default()
    });
    let net = rt
        .run(&mut policy, &a, &b, &mut c)
        .expect("net run completes");

    CrossRow {
        model: label.to_string(),
        sim_makespan: sim.makespan,
        blocks_rx: sim.per_worker.iter().map(|w| w.blocks_rx).collect(),
        schedule_agrees: Schedule::of(&sim) == Schedule::of(&net),
    }
}

fn render(rows: &[Row], cross: &[CrossRow]) -> String {
    let mut out = String::from(
        "Network-contention models: Het's one-port plan under one-port / multi-port / fair-share\n",
    );
    out.push_str(&format!(
        "{:<10}{:<22}{:>12}{:>12}{:>8}{:>12}\n",
        "platform", "model", "makespan", "bound", "m/b", "vs oneport"
    ));
    for r in rows {
        let (mk, ratio) = match r.makespan {
            Some(m) => (format!("{m:.0}"), format!("{:.2}", m / r.lower_bound)),
            None => ("-".into(), "-".into()),
        };
        let vs = r.vs_oneport.map_or("-".into(), |v| format!("{v:.3}"));
        out.push_str(&format!(
            "{:<10}{:<22}{:>12}{:>12.0}{:>8}{:>12}\n",
            r.platform, r.model, mk, r.lower_bound, ratio, vs
        ));
    }
    out.push_str("\ncross-engine (shared scenario, sim vs net runtime):\n");
    for c in cross {
        out.push_str(&format!(
            "  {:<22} sim makespan {:>10.4}  schedule agrees: {}\n",
            c.model, c.sim_makespan, c.schedule_agrees
        ));
    }
    out
}

/// The model sweep, then the cross-engine leg; the traced cell is Het
/// under bounded multi-port k=2 on the ratio-2 preset, so the trace
/// shows two concurrent port lanes.
pub fn netmodel(cli: &Cli, sweep: &mut Sweep) -> Report {
    let cells = grid(cli.smoke);
    let traced = cells
        .iter()
        .position(|c| c.platform_name == "het-2" && c.label == "multiport k=2")
        .expect("the traced cell is swept");
    let mut rows = sweep.run_traced(&cells, traced, run_cell);
    // Annotate each row with its platform's one-port reference.
    for i in 0..rows.len() {
        let base = rows
            .iter()
            .find(|r| r.platform == rows[i].platform && r.model == "oneport")
            .and_then(|r| r.makespan);
        if let (Some(m), Some(b)) = (rows[i].makespan, base) {
            rows[i].vs_oneport = Some(m / b);
        }
    }

    // Sanity: nothing may beat its model-aware lower bound.
    for r in &rows {
        if let Some(m) = r.makespan {
            assert!(
                m >= r.lower_bound - 1e-9,
                "{}/{} beats the generalized bound: {m} < {}",
                r.platform,
                r.model,
                r.lower_bound
            );
        }
    }

    // Cross-engine leg: all three models, both engines, one scenario.
    let cross: Vec<CrossRow> = [
        ("oneport", NetModelSpec::OnePort),
        (
            "multiport k=2",
            NetModelSpec::BoundedMultiPort {
                k: 2,
                backbone: None,
            },
        ),
        // 0.75 × the shared platform's fastest link (1e-4 s/block ⇒
        // 10 000 blocks/s), following the sweep's ratio convention.
        (
            "fairshare bb=0.75",
            NetModelSpec::FairShare { backbone: 7500.0 },
        ),
    ]
    .iter()
    .map(|(label, spec)| cross_engine(spec, label))
    .collect();
    for c in &cross {
        assert!(
            c.schedule_agrees,
            "{}: sim and net disagree on the schedule",
            c.model
        );
    }

    let json = Value::object([
        ("experiment", "netmodel".to_value()),
        ("rows", rows.to_value()),
        ("cross_engine", cross.to_value()),
    ]);
    Report::table("netmodel.txt", render(&rows, &cross), json.render_pretty())
}
