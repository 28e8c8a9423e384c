//! The `fed` row — beyond the paper: federated multi-star platforms.
//!
//! The paper schedules one star. This experiment federates `k` regional
//! stars under a root master (`stargemm-platform`'s `FedPlatform`): the
//! root places a multi-tenant job stream across the stars by LP share
//! (`stream::MultiStarMaster`), ships each job's operands over the
//! owning star's uplink, and each star time-shares its workers with its
//! own `MultiJobMaster`. The sweep fans out over
//!
//! * **stars** `k ∈ {1, 2, 4, 8}` — identical regional stars, so the
//!   `k = 1` rows collapse to the existing single-star stream path;
//! * **uplink ratio** — uplink cost per block relative to the star's
//!   fastest local link (0.05 = almost-free feeds, 2.0 = the uplink is
//!   the bottleneck);
//! * **tenant mix** — even (equal weights) vs skewed (one tenant at
//!   weight 4).
//!
//! Every cell's aggregate throughput is asserted against the
//! **hierarchical steady-state LP** (`core::steady::federated_lp`:
//! per-star Table-1 blocks + uplink tie/capacity rows): no cell may
//! beat its bound. The headline, also asserted: with fast uplinks some
//! `k ≥ 2` cell exceeds any *single* star's one-port steady-state
//! ceiling — federation beats a fat star's port — while slow uplinks
//! throttle the same federation below it. A `k = 1` collapse check
//! (the federated LP is row-for-row the Table-1 LP) is asserted and
//! recorded in the artifact.

use serde::json::Value;
use serde::Serialize;
use stargemm_core::steady::{bandwidth_centric, federated_lp, federated_throughput, table1_lp};
use stargemm_core::Job;
use stargemm_netmodel::NetModelSpec;
use stargemm_obs::{Attribution, ObsEvent};
use stargemm_platform::{DynPlatform, FedPlatform, FedStar, Platform, WorkerSpec};
use stargemm_stream::{
    ArrivalProcess, JobRequest, MultiStarMaster, StreamConfig, TenantSpec, WorkloadSpec,
};

use super::{Report, Sweep};
use crate::{Cli, RunLog};

/// The regional star every federation replicates.
fn star_platform() -> Platform {
    Platform::new(
        "region",
        vec![
            WorkerSpec::new(0.2, 0.1, 60),
            WorkerSpec::new(0.3, 0.15, 60),
            WorkerSpec::new(0.5, 0.3, 40),
        ],
    )
}

/// The common job shape of every tenant. One shape per cell keeps the
/// hierarchical LP bound exact, and the dimensions are chosen so the
/// bound stays *sound* for the whole-job placement the stream root
/// performs: the root ships `rt + ts + rs` operand blocks per `rst`
/// updates (0.365 blocks/update here), which must be at least the
/// `1/shard` blocks/update the LP's uplink tie row charges — true for
/// every `k ≤ 8` since `floor(32/8) = 4 ≥ rst/(rt+ts+rs) ≈ 2.74`.
fn job_shape() -> Job {
    Job::new(6, 6, 32, 2)
}

/// One cell of the sweep grid.
struct Cell {
    k: usize,
    ratio: f64,
    mix: &'static str,
    fed: FedPlatform,
    requests: Vec<JobRequest>,
    /// Hierarchical LP throughput bound (updates/s).
    bound: f64,
    /// One regional star's one-port steady-state ceiling (updates/s).
    single_star: f64,
}

/// One sweep measurement.
#[derive(Serialize)]
struct Row {
    stars: usize,
    uplink_ratio: f64,
    mix: &'static str,
    jobs: usize,
    makespan: f64,
    throughput: f64,
    fed_bound: f64,
    single_star_bound: f64,
    /// Attribution of the critical (latest-finishing) star's timeline
    /// against the federated makespan.
    attribution: Attribution,
}

/// The tenant mixes: same job shape, different fairness weights.
fn mixes() -> Vec<(&'static str, Vec<TenantSpec>)> {
    let job = job_shape();
    vec![
        (
            "even",
            vec![
                TenantSpec::new("a", 1.0, vec![job]),
                TenantSpec::new("b", 1.0, vec![job]),
            ],
        ),
        (
            "skewed",
            vec![
                TenantSpec::new("a", 1.0, vec![job]),
                TenantSpec::new("b", 4.0, vec![job]),
            ],
        ),
    ]
}

fn grid(smoke: bool) -> Vec<Cell> {
    let star = star_platform();
    let fastest_c = star
        .workers()
        .iter()
        .map(|s| s.c)
        .fold(f64::INFINITY, f64::min);
    let ks: &[usize] = &[1, 2, 4, 8];
    let ratios: &[f64] = if smoke {
        &[0.05, 2.0]
    } else {
        &[0.05, 0.5, 2.0]
    };
    let jobs = if smoke { 8 } else { 16 };
    let job = job_shape();
    let single_star = bandwidth_centric(&star, job.r).throughput;
    let mut cells = Vec::new();
    for &k in ks {
        for &ratio in ratios {
            let uplink_c = ratio * fastest_c;
            let fed = FedPlatform::new(
                "fed",
                (0..k)
                    .map(|_| FedStar::new(DynPlatform::constant(star.clone()), uplink_c))
                    .collect(),
                NetModelSpec::BoundedMultiPort { k, backbone: None },
            );
            let bound = federated_throughput(&fed, &job);
            for (mix, tenants) in mixes() {
                let requests = WorkloadSpec {
                    tenants: tenants.clone(),
                    arrivals: ArrivalProcess::ClosedBatch,
                    jobs,
                    seed: 2008,
                }
                .generate();
                cells.push(Cell {
                    k,
                    ratio,
                    mix,
                    fed: fed.clone(),
                    requests,
                    bound,
                    single_star,
                });
            }
        }
    }
    cells
}

/// Runs one sweep cell (executed on a pool worker). The cell runs under
/// per-star recorders; the row attributes the critical star — the one
/// whose timeline (including its uplink feeds) ends last — against the
/// federated makespan, so uplink stalls show up as `uplink_wait`. When
/// `log` is set, that star's log comes back as the cell's trace.
fn run_cell(cell: &Cell, log: bool) -> (Row, Option<RunLog>) {
    let root = MultiStarMaster::new(cell.fed.clone(), StreamConfig::default());
    let (run, mut logs) = root
        .run_recorded(&cell.requests)
        .expect("federated stream cell completes");
    let critical = critical_star(&logs);
    let attribution = Attribution::from_events(&logs[critical], run.makespan);
    let row = Row {
        stars: cell.k,
        uplink_ratio: cell.ratio,
        mix: cell.mix,
        jobs: cell.requests.len(),
        makespan: run.makespan,
        throughput: run.throughput(),
        fed_bound: cell.bound,
        single_star_bound: cell.single_star,
        attribution,
    };
    (row, log.then(|| (logs.swap_remove(critical), run.makespan)))
}

/// The star whose log ends last: the federated run's critical star,
/// the one a row attributes against the federated makespan.
pub(super) fn critical_star(logs: &[Vec<ObsEvent>]) -> usize {
    let end = |log: &Vec<ObsEvent>| log.last().map_or(0.0, |e| e.time());
    logs.iter()
        .enumerate()
        .max_by(|(_, a), (_, b)| end(a).total_cmp(&end(b)))
        .map_or(0, |(i, _)| i)
}

/// The `k = 1` collapse check: the federated LP must be row-for-row the
/// single-star Table 1 LP (same objective, same constraint matrix, same
/// right-hand sides).
fn k1_collapse_is_exact() -> bool {
    let star = star_platform();
    let job = job_shape();
    let fed = FedPlatform::single(DynPlatform::constant(star.clone()));
    federated_lp(&fed, &job) == table1_lp(&star, job.r)
}

fn render(rows: &[Row]) -> String {
    let mut out =
        String::from("Federated multi-star platforms: k stars under uplink-fed root placement\n");
    out.push_str(&format!(
        "{:<7}{:<9}{:<9}{:>6}{:>12}{:>12}{:>12}{:>12}{:>8}\n",
        "stars", "uplink", "mix", "jobs", "makespan", "thruput", "fed bound", "1-star", "t/b"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<7}{:<9}{:<9}{:>6}{:>12.1}{:>12.3}{:>12.3}{:>12.3}{:>8.2}\n",
            r.stars,
            format!("x{}", r.uplink_ratio),
            r.mix,
            r.jobs,
            r.makespan,
            r.throughput,
            r.fed_bound,
            r.single_star_bound,
            r.throughput / r.fed_bound,
        ));
    }
    out
}

/// The federation sweep; the traced cell is `k = 2`, uplink ×2, even
/// mix — two stars whose slow uplinks show as `uplink_wait` — and its
/// trace is the critical star's log, the one the row attributes.
pub fn fed(cli: &Cli, sweep: &mut Sweep) -> Report {
    let cells = grid(cli.smoke);
    let traced = cells
        .iter()
        .position(|c| c.k == 2 && c.ratio == 2.0 && c.mix == "even")
        .expect("the traced cell is swept");
    let rows = sweep.run_traced(&cells, traced, run_cell);
    // Sanity: no cell may beat its hierarchical LP bound.
    for r in &rows {
        assert!(
            r.throughput <= r.fed_bound * (1.0 + 1e-9),
            "k={} uplink x{} {}: throughput {} beats the hierarchical bound {}",
            r.stars,
            r.uplink_ratio,
            r.mix,
            r.throughput,
            r.fed_bound
        );
    }

    // Headline: with fast uplinks, a federation out-runs any single
    // star's one-port steady-state ceiling.
    let beats = rows
        .iter()
        .any(|r| r.stars >= 2 && r.throughput > r.single_star_bound);
    assert!(
        beats,
        "no k >= 2 cell beat the single-star one-port bound — federation shows no gain"
    );

    // And the k = 1 rows are the single-star path: same LP, row for row.
    let collapse = k1_collapse_is_exact();
    assert!(collapse, "federated LP at k = 1 drifted from Table 1");

    let json = Value::object([
        ("experiment", "fed".to_value()),
        ("k1_collapse_exact", collapse.to_value()),
        ("rows", rows.to_value()),
    ]);
    Report::table("fed.txt", render(&rows), json.render_pretty())
}
