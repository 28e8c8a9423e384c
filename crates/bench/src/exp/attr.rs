//! The `attr` row — critical-path attribution profiler: explain every
//! model second of makespan.
//!
//! Runs a scenario battery — a static GEMM, a multi-tenant stream, a
//! mixed DAG+GEMM stream, and a federated two-star run with slow
//! uplinks — records each under the observability recorder, and
//! decomposes every makespan into the conserved category breakdown
//! (`obs::Attribution`): port busy, port idle-while-work-pending,
//! uplink wait, compute, memory stall, master gaps, crash rework, and
//! no-work idle. The row asserts the conservation invariant on every
//! cell: the categories sum bit-exactly to the makespan.
//!
//! A second mode compares two artifacts:
//!
//! ```sh
//! cargo run --release -p stargemm-bench --bin exp -- attr --diff base.json new.json
//! ```
//!
//! `--diff` scans both JSON files (any experiment's artifact) for
//! `attribution` blocks, pairs them in document order, and prints the
//! per-category deltas — "the makespan grew 60 s and 55 s of that is
//! port_busy" — so a regression can be attributed, not just detected.

use std::process::ExitCode;

use serde::json::{self, Value};
use serde::Serialize;
use stargemm_core::algorithms::{run_algorithm_observed, Algorithm};
use stargemm_core::Job;
use stargemm_dag::{lu_dag, DagJob};
use stargemm_netmodel::NetModelSpec;
use stargemm_obs::{Attribution, CATEGORY_NAMES};
use stargemm_platform::{DynPlatform, FedPlatform, FedStar, Platform, WorkerSpec};
use stargemm_sim::Simulator;
use stargemm_stream::{
    ArrivalProcess, JobRequest, MultiJobMaster, MultiStarMaster, StreamConfig, TenantSpec,
    WorkloadSpec,
};

use super::fed::critical_star;
use super::{rows_json, Report, Sweep};
use crate::obs::record_with;
use crate::{Cli, RunLog};

/// One battery scenario (the sweep cell).
enum Scenario {
    Gemm {
        platform: Platform,
        job: Job,
    },
    Stream {
        platform: Platform,
        requests: Vec<JobRequest>,
    },
    Dag {
        platform: Platform,
        requests: Vec<JobRequest>,
        dags: Vec<(u32, DagJob)>,
    },
    Fed {
        fed: FedPlatform,
        requests: Vec<JobRequest>,
    },
}

impl Scenario {
    fn name(&self) -> &'static str {
        match self {
            Scenario::Gemm { .. } => "gemm",
            Scenario::Stream { .. } => "stream",
            Scenario::Dag { .. } => "dag",
            Scenario::Fed { .. } => "fed",
        }
    }
}

/// One attributed scenario.
#[derive(Serialize)]
struct Row {
    scenario: &'static str,
    attribution: Attribution,
}

/// The shared star for the single-star scenarios.
fn star() -> Platform {
    Platform::new(
        "attr-star",
        vec![
            WorkerSpec::new(0.20, 0.10, 80),
            WorkerSpec::new(0.25, 0.12, 60),
            WorkerSpec::new(0.30, 0.15, 60),
            WorkerSpec::new(0.50, 0.30, 40),
        ],
    )
}

fn battery(smoke: bool) -> Vec<Scenario> {
    let p = star();
    let jobs = if smoke { 4 } else { 12 };

    let stream_requests = WorkloadSpec {
        tenants: vec![TenantSpec::new(
            "uni",
            1.0,
            vec![Job::new(4, 3, 6, 2), Job::new(6, 4, 8, 2)],
        )],
        arrivals: ArrivalProcess::Open {
            mean_interarrival: 5.0,
        },
        jobs,
        seed: 2008,
    }
    .generate();

    // Mixed stream: the first half of the requests become tiled-LU DAGs.
    let mut dag_requests = stream_requests.clone();
    let mut dags = Vec::new();
    for (i, r) in dag_requests.iter_mut().take(jobs / 2).enumerate() {
        let (dag, _) = lu_dag(2 + i % 2);
        r.job = dag.virtual_job(2);
        dags.push((r.id, dag));
    }

    // Federation with the uplink as the bottleneck (2× the fastest
    // local link per block), so uplink waits actually appear.
    let uplink_c = 2.0 * 0.20;
    let fed = FedPlatform::new(
        "attr-fed",
        (0..2)
            .map(|_| FedStar::new(DynPlatform::constant(star()), uplink_c))
            .collect(),
        NetModelSpec::BoundedMultiPort {
            k: 2,
            backbone: None,
        },
    );
    let fed_requests = WorkloadSpec {
        tenants: vec![
            TenantSpec::new("a", 1.0, vec![Job::new(6, 6, 32, 2)]),
            TenantSpec::new("b", 1.0, vec![Job::new(6, 6, 32, 2)]),
        ],
        arrivals: ArrivalProcess::ClosedBatch,
        jobs,
        seed: 2008,
    }
    .generate();

    vec![
        Scenario::Gemm {
            platform: stargemm_platform::presets::fully_het(2.0),
            job: Job::paper(if smoke { 16_000 } else { 80_000 }),
        },
        Scenario::Stream {
            platform: p.clone(),
            requests: stream_requests,
        },
        Scenario::Dag {
            platform: p,
            requests: dag_requests,
            dags,
        },
        Scenario::Fed {
            fed,
            requests: fed_requests,
        },
    ]
}

/// Runs one battery scenario (executed on a pool worker); the static
/// GEMM hands its log back when `log` is set.
fn run_cell(s: &Scenario, log: bool) -> (Row, Option<RunLog>) {
    let mut trace = None;
    let attribution = match s {
        Scenario::Gemm { platform, job } => {
            let (stats, events) =
                record_with(|obs| run_algorithm_observed(platform, job, Algorithm::Het, obs));
            let stats = stats.expect("gemm scenario runs");
            let attribution = Attribution::from_events(&events, stats.makespan);
            trace = log.then_some((events, stats.makespan));
            attribution
        }
        Scenario::Stream { platform, requests } => {
            let (res, events) = record_with(|obs| {
                let mut policy = MultiJobMaster::new(platform, requests, StreamConfig::default())
                    .expect("stream policy builds")
                    .with_obs(obs.clone());
                Simulator::new(platform.clone())
                    .with_arrivals(MultiJobMaster::arrival_plan(requests))
                    .run_observed(&mut policy, obs)
            });
            let stats = res.expect("stream scenario runs");
            Attribution::from_events(&events, stats.makespan)
        }
        Scenario::Dag {
            platform,
            requests,
            dags,
        } => {
            let (res, events) = record_with(|obs| {
                let mut policy = MultiJobMaster::with_dags(
                    platform,
                    requests,
                    dags.clone(),
                    StreamConfig::default(),
                )
                .expect("dag policy builds")
                .with_obs(obs.clone());
                Simulator::new(platform.clone())
                    .with_arrivals(MultiJobMaster::arrival_plan(requests))
                    .run_observed(&mut policy, obs)
            });
            let stats = res.expect("dag scenario runs");
            Attribution::from_events(&events, stats.makespan)
        }
        Scenario::Fed { fed, requests } => {
            let (run, logs) = MultiStarMaster::new(fed.clone(), StreamConfig::default())
                .run_recorded(requests)
                .expect("fed scenario runs");
            let critical = critical_star(&logs);
            Attribution::from_events(&logs[critical], run.makespan)
        }
    };
    let row = Row {
        scenario: s.name(),
        attribution,
    };
    (row, trace)
}

fn render(rows: &[Row]) -> String {
    let mut out =
        String::from("Makespan attribution: conserved category breakdown (model seconds)\n");
    out.push_str(&format!("{:<9}{:>10}", "scenario", "makespan"));
    for name in CATEGORY_NAMES {
        out.push_str(&format!("{name:>14}"));
    }
    out.push('\n');
    for r in rows {
        let a = &r.attribution;
        out.push_str(&format!("{:<9}{:>10.2}", r.scenario, a.makespan));
        for v in a.categories.as_array() {
            out.push_str(&format!("{v:>14.2}"));
        }
        out.push('\n');
    }

    out.push_str("\ncritical path (the longest wait-for chain through the run):\n");
    out.push_str(&format!(
        "{:<9}{:>7}{:>12}{:>12}{:>12}{:>12}{:>10}\n",
        "scenario", "steps", "port", "compute", "uplink", "wait", "cp/ms"
    ));
    for r in rows {
        let a = &r.attribution;
        let cp = &a.critical_path;
        let len = cp.port + cp.compute + cp.uplink + cp.wait;
        out.push_str(&format!(
            "{:<9}{:>7}{:>12.2}{:>12.2}{:>12.2}{:>12.2}{:>10.3}\n",
            r.scenario,
            cp.steps,
            cp.port,
            cp.compute,
            cp.uplink,
            cp.wait,
            if a.makespan > 0.0 {
                len / a.makespan
            } else {
                0.0
            },
        ));
    }
    out
}

/// Collects every `"attribution"` object in document order, labelled by
/// its JSON path.
fn collect_attrs(v: &Value, path: &str, out: &mut Vec<(String, Value)>) {
    match v {
        Value::Object(fields) => {
            for (k, val) in fields {
                if k == "attribution" && matches!(val, Value::Object(_)) {
                    out.push((path.to_string(), val.clone()));
                } else {
                    collect_attrs(val, &format!("{path}.{k}"), out);
                }
            }
        }
        Value::Array(items) => {
            for (i, item) in items.iter().enumerate() {
                collect_attrs(item, &format!("{path}[{i}]"), out);
            }
        }
        _ => {}
    }
}

/// Reads and parses one artifact; the error names the file.
fn load_doc(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    json::from_str(&text).map_err(|e| format!("{path} is not valid JSON: {e:?}"))
}

/// Makespan and per-category seconds of one attribution block.
type BlockNumbers = (f64, [f64; CATEGORY_NAMES.len()]);

/// Pulls the numbers out of the attribution block at JSON path `path`
/// of `file`. Absent categories read as 0, so older artifacts still
/// diff; a makespan that is missing or not a number, a `categories`
/// that is not an object, or a category present but not a number is an
/// error naming the file and the field's JSON path.
fn block_numbers(block: &Value, file: &str, path: &str) -> Result<BlockNumbers, String> {
    let field = |name: &str, found: &str| format!("{file}: {path}.attribution.{name} is {found}");
    let number = |name: &str, v: &Value| v.as_f64().ok_or_else(|| field(name, "not a number"));
    let makespan = match block.get("makespan") {
        Some(v) => number("makespan", v)?,
        None => return Err(field("makespan", "missing")),
    };
    let mut cats = [0.0; CATEGORY_NAMES.len()];
    match block.get("categories") {
        None => {}
        Some(obj @ Value::Object(_)) => {
            for (i, name) in CATEGORY_NAMES.iter().enumerate() {
                if let Some(v) = obj.get(name) {
                    cats[i] = number(&format!("categories.{name}"), v)?;
                }
            }
        }
        Some(_) => return Err(field("categories", "not an object")),
    }
    Ok((makespan, cats))
}

/// [`block_numbers`] of every block of `file`, or the first error.
fn numbers_of(file: &str, blocks: &[(String, Value)]) -> Result<Vec<BlockNumbers>, String> {
    (blocks.iter())
        .map(|(path, block)| block_numbers(block, file, path))
        .collect()
}

/// `exp attr --diff a.json b.json`: pair the attribution blocks of two
/// artifacts in document order and print per-category deltas.
pub fn diff(a_path: &str, b_path: &str) -> ExitCode {
    let mut a_blocks = Vec::new();
    let mut b_blocks = Vec::new();
    match (load_doc(a_path), load_doc(b_path)) {
        (Ok(a), Ok(b)) => {
            collect_attrs(&a, "$", &mut a_blocks);
            collect_attrs(&b, "$", &mut b_blocks);
        }
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }
    if a_blocks.is_empty() || b_blocks.is_empty() {
        eprintln!(
            "error: no attribution blocks found ({} in {a_path}, {} in {b_path})",
            a_blocks.len(),
            b_blocks.len()
        );
        return ExitCode::FAILURE;
    }
    if a_blocks.len() != b_blocks.len() {
        eprintln!(
            "warning: {} blocks in {a_path} vs {} in {b_path}; pairing the common prefix",
            a_blocks.len(),
            b_blocks.len()
        );
    }

    let (a_numbers, b_numbers) =
        match (numbers_of(a_path, &a_blocks), numbers_of(b_path, &b_blocks)) {
            (Ok(a), Ok(b)) => (a, b),
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        };

    println!("attribution diff: {a_path} -> {b_path}");
    let mut total = [0.0; CATEGORY_NAMES.len()];
    let mut total_ms = 0.0;
    let pairs = a_blocks.iter().zip(a_numbers).zip(b_numbers);
    for (((path, _), (ms_a, cat_a)), (ms_b, cat_b)) in pairs {
        let d_ms = ms_b - ms_a;
        total_ms += d_ms;
        println!("{path}: makespan {ms_a:.3} -> {ms_b:.3} ({d_ms:+.3})");
        let mut deltas: Vec<(usize, f64)> = (0..CATEGORY_NAMES.len())
            .map(|i| (i, cat_b[i] - cat_a[i]))
            .collect();
        for &(i, d) in &deltas {
            total[i] += d;
        }
        // Largest movement first, so the culprit reads off the top.
        deltas.sort_by(|x, y| y.1.abs().total_cmp(&x.1.abs()));
        for (i, d) in deltas {
            if d != 0.0 {
                println!("  {:<14}{:+12.3}", CATEGORY_NAMES[i], d);
            }
        }
    }
    println!("total: makespan {total_ms:+.3}");
    let mut order: Vec<usize> = (0..CATEGORY_NAMES.len()).collect();
    order.sort_by(|&x, &y| total[y].abs().total_cmp(&total[x].abs()));
    for i in order {
        if total[i] != 0.0 {
            println!("  {:<14}{:+12.3}", CATEGORY_NAMES[i], total[i]);
        }
    }
    ExitCode::SUCCESS
}

/// The battery; the traced cell is the static GEMM, whose port/compute
/// frames carry worker and chunk labels.
pub fn attr(cli: &Cli, sweep: &mut Sweep) -> Report {
    let cells = battery(cli.smoke);
    let rows = sweep.run_traced(&cells, 0, run_cell);

    // The whole point: every model second is accounted for, exactly.
    for r in &rows {
        assert!(
            r.attribution.is_conserved(),
            "{}: categories sum {} != makespan {}",
            r.scenario,
            r.attribution.categories.total(),
            r.attribution.makespan
        );
    }
    Report::table("attr.txt", render(&rows), rows_json("attr", &rows))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The one attribution block of `doc`, read as `exp attr --diff`
    /// reads it.
    fn numbers(doc: &str) -> Result<BlockNumbers, String> {
        let mut blocks = Vec::new();
        collect_attrs(&json::from_str(doc).expect("valid JSON"), "$", &mut blocks);
        assert_eq!(blocks.len(), 1, "{doc}");
        block_numbers(&blocks[0].1, "a.json", &blocks[0].0)
    }

    #[test]
    fn a_missing_makespan_is_an_error_naming_the_file_and_path() {
        let err = numbers(r#"{"cells":[{"attribution":{"categories":{}}}]}"#).unwrap_err();
        assert_eq!(err, "a.json: $.cells[0].attribution.makespan is missing");
    }

    #[test]
    fn a_non_numeric_makespan_is_an_error() {
        let err = numbers(r#"{"cells":[{"attribution":{"makespan":"NaN"}}]}"#).unwrap_err();
        assert_eq!(
            err,
            "a.json: $.cells[0].attribution.makespan is not a number"
        );
    }

    #[test]
    fn a_non_numeric_category_is_an_error() {
        let doc = r#"{"attribution":{"makespan":2,"categories":{"compute":null}}}"#;
        let err = numbers(doc).unwrap_err();
        assert_eq!(
            err,
            "a.json: $.attribution.categories.compute is not a number"
        );
        let doc = r#"{"attribution":{"makespan":2,"categories":[1]}}"#;
        let err = numbers(doc).unwrap_err();
        assert_eq!(err, "a.json: $.attribution.categories is not an object");
    }

    #[test]
    fn absent_categories_read_as_zero() {
        let (makespan, cats) = numbers(r#"{"attribution":{"makespan":3}}"#).unwrap();
        assert_eq!((makespan, cats), (3.0, [0.0; CATEGORY_NAMES.len()]));
        let doc = r#"{"attribution":{"makespan":3,"categories":{"port_busy":1.5}}}"#;
        let (_, cats) = numbers(doc).unwrap();
        assert_eq!(cats[0], 1.5);
        assert_eq!(cats[1..], [0.0; CATEGORY_NAMES.len() - 1]);
    }
}
