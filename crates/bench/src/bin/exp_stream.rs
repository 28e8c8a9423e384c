//! EXP-STREAM — beyond the paper: multi-tenant job streams over the
//! shared star.
//!
//! Sweeps **load factor × tenant mix × platform** (static and jittery
//! dynamic): each cell draws a seeded workload whose arrival rate is a
//! fraction of the platform's aggregate steady-state capacity, runs the
//! online [`MultiJobMaster`] (weighted max-min LP shares, FIFO
//! admission, partitioned memory), and reports aggregate throughput plus
//! per-job p50/p95/p99 slowdown against the solo baseline. Every cell is
//! checked against the steady-state throughput bound no schedule can
//! beat.
//!
//! Every cell is an independent simulation, so the grid fans out over
//! the thread pool (`--threads`); table and `--json` artifact are
//! identical whatever the fan-out width.
//!
//! ```sh
//! cargo run --release -p stargemm-bench --bin exp_stream            # full sweep
//! cargo run --release -p stargemm-bench --bin exp_stream -- --smoke # CI-sized
//! cargo run ... -- --smoke --threads 2 --json results/bench_stream.json
//! ```

use serde::json::Value;
use serde::Serialize;
use stargemm_bench::{write_json, write_results, Cli, SweepSpec};
use stargemm_core::Job;
use stargemm_obs::{Attribution, ObsEvent};
use stargemm_platform::dynamic::{DynPlatform, DynProfile, Trace, WorkerDyn};
use stargemm_platform::{Platform, WorkerSpec};
use stargemm_sim::{RunStats, Simulator};
use stargemm_stream::{
    aggregate_throughput_bound, stream_report, ArrivalProcess, JobRequest, MultiJobMaster,
    StreamConfig, StreamReport, TenantSpec, WorkloadSpec,
};

/// One cell of the sweep grid.
struct Cell {
    platform_name: &'static str,
    dp: DynPlatform,
    mix: &'static str,
    load: f64,
    requests: Vec<JobRequest>,
}

/// One measurement row.
struct Row {
    platform: &'static str,
    mix: &'static str,
    load: f64,
    report: Option<StreamReport>,
    attribution: Option<Attribution>,
    error: Option<String>,
}

impl Serialize for Row {
    fn to_value(&self) -> Value {
        Value::object([
            ("platform", self.platform.to_value()),
            ("mix", self.mix.to_value()),
            ("load", self.load.to_value()),
            ("report", self.report.to_value()),
            ("attribution", self.attribution.to_value()),
            ("error", self.error.to_value()),
        ])
    }
}

fn base_platform() -> Platform {
    Platform::new(
        "stream-star",
        vec![
            WorkerSpec::new(0.20, 0.10, 80),
            WorkerSpec::new(0.25, 0.12, 60),
            WorkerSpec::new(0.30, 0.15, 60),
            WorkerSpec::new(0.50, 0.30, 40),
        ],
    )
}

/// A mild-jitter dynamic flavour of the same star (scales ≥ 1, so the
/// static throughput bound still applies).
fn jittery(base: &Platform) -> DynPlatform {
    let workers = (0..base.len())
        .map(|w| {
            let bump = 1.0 + 0.25 * (w as f64 + 1.0);
            WorkerDyn::new(
                Trace::new(vec![
                    (0.0, 1.0),
                    (40.0 + 10.0 * w as f64, bump),
                    (150.0, 1.0),
                ]),
                Trace::default(),
                vec![],
            )
        })
        .collect();
    DynPlatform::new(base.clone(), DynProfile::new(workers))
}

/// Tenant mixes: uniform small jobs vs a weighted heavy/light blend.
fn tenants(mix: &str, smoke: bool) -> Vec<TenantSpec> {
    let small = Job::new(4, 3, 6, 2);
    let medium = Job::new(6, 4, 8, 2);
    let large = if smoke {
        Job::new(6, 6, 10, 2)
    } else {
        Job::new(8, 6, 12, 2)
    };
    match mix {
        "uniform" => vec![TenantSpec::new("uni", 1.0, vec![small, medium])],
        "weighted" => vec![
            TenantSpec::new("light", 1.0, vec![small]),
            TenantSpec::new("heavy", 3.0, vec![medium, large]),
        ],
        other => unreachable!("unknown mix {other}"),
    }
}

/// Expected job size (updates) of a mix under the generator's sampling
/// distribution — a tenant is drawn uniformly, then a shape uniformly
/// *within* that tenant — for converting load factor into an arrival
/// rate.
fn mean_updates(tenants: &[TenantSpec]) -> f64 {
    tenants
        .iter()
        .map(|t| {
            t.shapes
                .iter()
                .map(|j| j.total_updates() as f64)
                .sum::<f64>()
                / t.shapes.len() as f64
        })
        .sum::<f64>()
        / tenants.len() as f64
}

fn grid(smoke: bool) -> Vec<Cell> {
    let base = base_platform();
    let loads: &[f64] = if smoke {
        &[0.3, 0.9]
    } else {
        &[0.3, 0.6, 0.9, 1.2]
    };
    let jobs = if smoke { 6 } else { 24 };
    let capacity = aggregate_throughput_bound(&base);
    let platforms: Vec<(&'static str, DynPlatform)> = vec![
        ("static", DynPlatform::constant(base.clone())),
        ("jitter", jittery(&base)),
    ];
    let mut cells = Vec::new();
    for (pname, dp) in &platforms {
        for mix in ["uniform", "weighted"] {
            for (li, &load) in loads.iter().enumerate() {
                let ts = tenants(mix, smoke);
                // Offered load = λ · E[updates] / capacity ⇒ the mean
                // inter-arrival time that hits the target load factor.
                let mean_interarrival = mean_updates(&ts) / (load * capacity);
                let requests = WorkloadSpec {
                    tenants: ts,
                    arrivals: ArrivalProcess::Open { mean_interarrival },
                    jobs,
                    seed: 2008 + li as u64,
                }
                .generate();
                cells.push(Cell {
                    platform_name: pname,
                    dp: dp.clone(),
                    mix,
                    load,
                    requests,
                });
            }
        }
    }
    cells
}

/// Runs one cell's stream under a recorder: the stats (or the failure)
/// and the event log.
fn record_cell(cell: &Cell) -> (Result<RunStats, String>, Vec<ObsEvent>) {
    stargemm_bench::obs::record_with(|obs| {
        MultiJobMaster::new(&cell.dp.base, &cell.requests, StreamConfig::default())
            .map_err(|e| e.to_string())
            .and_then(|policy| {
                let mut policy = policy.with_obs(obs.clone());
                Simulator::new_dyn(cell.dp.clone())
                    .with_arrivals(MultiJobMaster::arrival_plan(&cell.requests))
                    .run_observed(&mut policy, obs)
                    .map_err(|e| e.to_string())
            })
    })
}

/// Runs one sweep cell (executed on a pool worker). The cell runs under
/// a recorder so the row can carry its makespan attribution; recording
/// is observation-only, so the report is identical to an unrecorded run.
fn run_cell(cell: &Cell) -> Row {
    let (outcome, events) = record_cell(cell);
    let outcome =
        outcome.map(|stats| (stream_report(&cell.dp.base, &cell.requests, &stats), stats));
    let (report, attribution, error) = match outcome {
        Ok((r, stats)) => {
            let attr = Attribution::from_events(&events, stats.makespan);
            (Some(r), Some(attr), None)
        }
        Err(e) => (None, None, Some(e)),
    };
    Row {
        platform: cell.platform_name,
        mix: cell.mix,
        load: cell.load,
        report,
        attribution,
        error,
    }
}

fn render(rows: &[Row]) -> String {
    let mut out = String::from(
        "Multi-tenant job streams: load-factor sweep (model time, slowdown vs solo)\n",
    );
    out.push_str(&format!(
        "{:<9}{:<10}{:>6}{:>6}{:>12}{:>9}{:>9}{:>9}{:>9}\n",
        "platform", "mix", "load", "done", "thruput", "t/bound", "p50", "p95", "p99"
    ));
    for r in rows {
        match &r.report {
            Some(rep) => {
                out.push_str(&format!(
                    "{:<9}{:<10}{:>6.1}{:>6}{:>12.3}{:>9.3}{:>9.2}{:>9.2}{:>9.2}\n",
                    r.platform,
                    r.mix,
                    r.load,
                    format!("{}/{}", rep.completed, rep.total),
                    rep.throughput,
                    rep.throughput / rep.throughput_bound,
                    rep.p50_slowdown,
                    rep.p95_slowdown,
                    rep.p99_slowdown,
                ));
                // Per-tenant fairness view (only worth a sub-row when the
                // mix actually has more than one tenant).
                if rep.tenants.len() > 1 {
                    for t in &rep.tenants {
                        out.push_str(&format!(
                            "{:<9}{:<10}{:>6}{:>6}{:>12.3}{:>9}{:>9.2}{:>9.2}{:>9}\n",
                            "",
                            format!("  t{} w={}", t.tenant, t.weight),
                            "",
                            format!("{}/{}", t.completed, t.total),
                            t.throughput,
                            "",
                            t.p50_slowdown,
                            t.p95_slowdown,
                            "",
                        ));
                    }
                }
            }
            None => out.push_str(&format!(
                "{:<9}{:<10}{:>6.1}  failed: {}\n",
                r.platform,
                r.mix,
                r.load,
                r.error.as_deref().unwrap_or("?")
            )),
        }
    }

    // Satellite view: where the shared port actually spent its time —
    // per-lane busy seconds, all-lanes-idle gaps, and the longest stall.
    out.push_str("\nport breakdown:\n");
    out.push_str(&format!(
        "{:<9}{:<10}{:>6}{:>12}{:>7}{:>10}{:>10}{:>10}\n",
        "platform", "mix", "load", "busy", "lanes", "idle gaps", "idle s", "stall"
    ));
    for r in rows {
        if let Some(rep) = &r.report {
            out.push_str(&format!(
                "{:<9}{:<10}{:>6.1}{:>12.2}{:>7}{:>10}{:>10.2}{:>10.2}\n",
                r.platform,
                r.mix,
                r.load,
                rep.port.lane_busy.iter().sum::<f64>(),
                rep.port.peak_lanes,
                rep.port.idle_gaps,
                rep.port.idle_time,
                rep.port.longest_stall,
            ));
        }
    }
    out
}

fn main() {
    let cli = Cli::parse();
    let cells = grid(cli.smoke);
    let outcome = SweepSpec::new("stream", cli.threads).run(&cells, run_cell);
    eprintln!("{}", outcome.summary());
    let rows = &outcome.rows;

    // Sanity: no cell may beat the aggregate steady-state bound.
    for r in rows {
        if let Some(rep) = &r.report {
            assert!(
                rep.throughput <= rep.throughput_bound * (1.0 + 1e-9),
                "{}/{}/{}: throughput {} beats the bound {}",
                r.platform,
                r.mix,
                r.load,
                rep.throughput,
                rep.throughput_bound
            );
        }
    }

    let table = render(rows);
    print!("{table}");
    if let Ok(p) = write_results("stream.txt", &table) {
        eprintln!("(written to {})", p.display());
    }
    if let Some(path) = &cli.json {
        write_json(path, &outcome.to_json());
    }
    stargemm_bench::obs::emit_artifacts(&cli, || {
        // The representative stream cell: the first grid cell (static
        // platform, uniform mix, lightest load), re-run serially under
        // the recorder — the trace gets job admission/completion, LP
        // re-solves, and deficit credits on the master track.
        let (res, events) = record_cell(&cells[0]);
        let stats = res.expect("trace cell completes");
        Some((events, stats.makespan))
    });
}
