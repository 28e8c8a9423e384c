//! The `dag` row — beyond the paper: DAG-structured jobs (tiled LU
//! task graphs) sharing the star with plain GEMM tenants.
//!
//! Sweeps **DAG fraction × arrival pressure × platform**: each cell
//! draws a seeded job stream, turns the first `frac · jobs` requests
//! into tiled-LU dataflow DAGs (`stargemm-dag`) and leaves the rest as
//! plain GEMM tenants, then runs the online
//! [`MultiJobMaster`] with DAG members
//! dispatched by critical-path (bottom-level) priority inside their LP
//! port share. Every cell is asserted against the critical-path-aware
//! lower bound: the makespan can beat neither the aggregate
//! steady-state capacity nor any single job's
//! `arrival + dag_makespan_lower_bound`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;
use stargemm_core::cpath::dag_makespan_lower_bound;
use stargemm_core::Job;
use stargemm_dag::{lu_dag, DagJob};
use stargemm_obs::Attribution;
use stargemm_platform::{Platform, WorkerSpec};
use stargemm_sim::Simulator;
use stargemm_stream::{
    aggregate_throughput_bound, stream_report, JobRequest, MultiJobMaster, StreamConfig,
    StreamReport,
};

use super::{rows_json, Report, Sweep};
use crate::obs::record_with;
use crate::{Cli, RunLog};

/// One cell of the sweep grid.
struct Cell {
    platform_name: &'static str,
    platform: Platform,
    frac: f64,
    mean_interarrival: f64,
    requests: Vec<JobRequest>,
    dags: Vec<(u32, DagJob)>,
    /// Critical-path-aware makespan lower bound for the whole cell.
    lower_bound: f64,
}

/// One measurement row.
#[derive(Serialize)]
struct Row {
    platform: &'static str,
    frac: f64,
    mean_interarrival: f64,
    dag_jobs: usize,
    gemm_jobs: usize,
    lower_bound: f64,
    report: Option<StreamReport>,
    attribution: Option<Attribution>,
    error: Option<String>,
}

fn platforms() -> Vec<(&'static str, Platform)> {
    vec![
        (
            "balanced",
            Platform::new(
                "dag-balanced",
                vec![
                    WorkerSpec::new(0.20, 0.10, 80),
                    WorkerSpec::new(0.22, 0.11, 72),
                    WorkerSpec::new(0.25, 0.12, 64),
                ],
            ),
        ),
        (
            "skewed",
            Platform::new(
                "dag-skewed",
                vec![
                    WorkerSpec::new(0.15, 0.08, 96),
                    WorkerSpec::new(0.30, 0.20, 48),
                    WorkerSpec::new(0.60, 0.40, 40),
                    WorkerSpec::new(0.90, 0.60, 40),
                ],
            ),
        ),
    ]
}

/// Builds one cell's mixed stream: the first `frac · jobs` requests are
/// tiled-LU DAG jobs (sizes cycling 2/3 panels), the rest plain GEMM
/// tenants, with seeded exponential inter-arrivals.
fn build_cell(
    platform_name: &'static str,
    platform: &Platform,
    frac: f64,
    mean_interarrival: f64,
    jobs: usize,
    seed: u64,
) -> Cell {
    let q = 2;
    let gemm_shapes = [Job::new(3, 2, 4, q), Job::new(4, 3, 6, q)];
    let dag_sizes = [2usize, 3];
    let n_dag = (frac * jobs as f64).round() as usize;

    let mut rng = StdRng::seed_from_u64(seed);
    let mut requests = Vec::with_capacity(jobs);
    let mut dags = Vec::new();
    let mut arrival = 0.0;
    let rho = aggregate_throughput_bound(platform);
    let mut per_job_bound_max = 0.0f64;
    let mut total_updates = 0.0;
    for i in 0..jobs {
        // Exponential inter-arrival via inverse CDF on the seeded rng.
        arrival += -mean_interarrival * (1.0 - rng.random::<f64>()).ln();
        let (job, job_bound) = if i < n_dag {
            let (dag, _) = lu_dag(dag_sizes[i % dag_sizes.len()]);
            let job = dag.virtual_job(q);
            let bound = dag_makespan_lower_bound(platform, &dag.task_costs(), dag.preds_all());
            dags.push((i as u32, dag));
            (job, bound)
        } else {
            let job = gemm_shapes[i % gemm_shapes.len()];
            (job, job.total_updates() as f64 / rho)
        };
        total_updates += job.total_updates() as f64;
        per_job_bound_max = per_job_bound_max.max(arrival + job_bound);
        requests.push(JobRequest {
            id: i as u32,
            tenant: usize::from(i >= n_dag),
            weight: 1.0,
            job,
            arrival,
        });
    }
    // No schedule beats the aggregate steady-state capacity, and none
    // finishes a job before its own critical-path-aware bound.
    let lower_bound = (total_updates / rho).max(per_job_bound_max);
    Cell {
        platform_name,
        platform: platform.clone(),
        frac,
        mean_interarrival,
        requests,
        dags,
        lower_bound,
    }
}

fn grid(smoke: bool) -> Vec<Cell> {
    let fracs: &[f64] = if smoke { &[0.5, 1.0] } else { &[0.0, 0.5, 1.0] };
    let arrivals: &[f64] = if smoke {
        &[2.0, 8.0]
    } else {
        &[1.0, 4.0, 16.0]
    };
    let jobs = if smoke { 6 } else { 12 };
    let mut cells = Vec::new();
    for (pi, (pname, platform)) in platforms().into_iter().enumerate() {
        if smoke && pname != "balanced" {
            continue;
        }
        for &frac in fracs {
            for (ai, &mean_interarrival) in arrivals.iter().enumerate() {
                let seed = 20080 + 100 * pi as u64 + ai as u64;
                cells.push(build_cell(
                    pname,
                    &platform,
                    frac,
                    mean_interarrival,
                    jobs,
                    seed,
                ));
            }
        }
    }
    cells
}

/// Runs one sweep cell (executed on a pool worker). The cell runs under
/// a recorder so the row can carry its makespan attribution; recording
/// is observation-only, so the report is identical to an unrecorded run.
/// The log comes back when `log` is set.
fn run_cell(cell: &Cell, log: bool) -> (Row, Option<RunLog>) {
    let dag_jobs = cell.dags.len();
    let gemm_jobs = cell.requests.len() - dag_jobs;
    let (outcome, events) = record_with(|obs| {
        MultiJobMaster::with_dags(
            &cell.platform,
            &cell.requests,
            cell.dags.clone(),
            StreamConfig::default(),
        )
        .map_err(|e| e.to_string())
        .and_then(|policy| {
            let mut policy = policy.with_obs(obs.clone());
            let stats = Simulator::new(cell.platform.clone())
                .with_arrivals(MultiJobMaster::arrival_plan(&cell.requests))
                .run_observed(&mut policy, obs)
                .map_err(|e| e.to_string())?;
            // Every DAG member must have completed in dependency order.
            for (id, dag) in &cell.dags {
                let order = policy.dag_completion_order(*id);
                assert!(
                    dag.is_topological(order),
                    "job {id}: completion order violates the DAG"
                );
            }
            Ok(stats)
        })
    });
    let (report, attribution, error, trace) = match outcome {
        Ok(stats) => {
            let report = stream_report(&cell.platform, &cell.requests, &stats);
            let attr = Attribution::from_events(&events, stats.makespan);
            let trace = log.then_some((events, stats.makespan));
            (Some(report), Some(attr), None, trace)
        }
        Err(e) => (None, None, Some(e), None),
    };
    let row = Row {
        platform: cell.platform_name,
        frac: cell.frac,
        mean_interarrival: cell.mean_interarrival,
        dag_jobs,
        gemm_jobs,
        lower_bound: cell.lower_bound,
        report,
        attribution,
        error,
    };
    (row, trace)
}

fn render(rows: &[Row]) -> String {
    let mut out =
        String::from("DAG jobs (tiled LU) sharing the star with GEMM tenants (model time)\n");
    out.push_str(&format!(
        "{:<10}{:>6}{:>8}{:>6}{:>6}{:>12}{:>12}{:>9}{:>9}\n",
        "platform", "frac", "1/rate", "dag", "gemm", "makespan", "bound", "ms/lb", "p95"
    ));
    for r in rows {
        match &r.report {
            Some(rep) => out.push_str(&format!(
                "{:<10}{:>6.2}{:>8.1}{:>6}{:>6}{:>12.3}{:>12.3}{:>9.3}{:>9.2}\n",
                r.platform,
                r.frac,
                r.mean_interarrival,
                r.dag_jobs,
                r.gemm_jobs,
                rep.makespan,
                r.lower_bound,
                rep.makespan / r.lower_bound,
                rep.p95_slowdown,
            )),
            None => out.push_str(&format!(
                "{:<10}{:>6.2}{:>8.1}  failed: {}\n",
                r.platform,
                r.frac,
                r.mean_interarrival,
                r.error.as_deref().unwrap_or("?")
            )),
        }
    }
    out
}

/// The mixed-stream sweep; the traced cell is the first with DAG jobs,
/// so its trace carries frontier promotions next to the port and worker
/// intervals.
pub fn dag(cli: &Cli, sweep: &mut Sweep) -> Report {
    let cells = grid(cli.smoke);
    let traced = cells.iter().position(|c| !c.dags.is_empty()).unwrap_or(0);
    let rows = sweep.run_traced(&cells, traced, run_cell);

    // Sanity: no cell may beat its critical-path-aware lower bound.
    for r in &rows {
        if let Some(rep) = &r.report {
            assert_eq!(
                rep.completed, rep.total,
                "{}/{}: jobs lost",
                r.platform, r.frac
            );
            assert!(
                rep.makespan >= r.lower_bound - 1e-9,
                "{}/{}/{}: makespan {} beats the lower bound {}",
                r.platform,
                r.frac,
                r.mean_interarrival,
                rep.makespan,
                r.lower_bound
            );
        }
    }
    Report::table("dag.txt", render(&rows), rows_json("dag", &rows))
}
