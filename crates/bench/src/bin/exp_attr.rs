//! EXP-ATTR — critical-path attribution profiler: explain every model
//! second of makespan.
//!
//! Runs a scenario battery — a static GEMM, a multi-tenant stream, a
//! mixed DAG+GEMM stream, and a federated two-star run with slow
//! uplinks — records each under the observability recorder, and
//! decomposes every makespan into the conserved category breakdown
//! (`obs::Attribution`): port busy, port idle-while-work-pending,
//! uplink wait, compute, memory stall, master gaps, crash rework, and
//! no-work idle. The binary asserts the conservation invariant on every
//! cell: the categories sum bit-exactly to the makespan.
//!
//! Besides the common flags (`--json`, `--attr-out` writes the first
//! scenario's folded flamegraph stacks), a second mode compares two
//! artifacts:
//!
//! ```sh
//! cargo run --release -p stargemm-bench --bin exp_attr -- --smoke
//! cargo run ... --bin exp_attr -- --diff base.json new.json
//! ```
//!
//! `--diff` scans both JSON files (any `exp_*` artifact) for
//! `attribution` blocks, pairs them in document order, and prints the
//! per-category deltas — "the makespan grew 60 s and 55 s of that is
//! port_busy" — so a regression can be attributed, not just detected.

use serde::json::{self, Value};
use serde::Serialize;
use stargemm_bench::{write_json, write_results, Cli, SweepSpec};
use stargemm_core::algorithms::Algorithm;
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
struct Row {
    scenario: &'static str,
    attribution: Attribution,
}

impl Serialize for Row {
    fn to_value(&self) -> Value {
        Value::object([
            ("scenario", self.scenario.to_value()),
            ("attribution", self.attribution.to_value()),
        ])
    }
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

/// Runs one battery scenario (executed on a pool worker).
fn run_cell(s: &Scenario) -> Row {
    let attribution = match s {
        Scenario::Gemm { platform, job } => {
            let (stats, events) =
                stargemm_bench::obs::record_algorithm(platform, job, Algorithm::Het)
                    .expect("gemm scenario runs");
            Attribution::from_events(&events, stats.makespan)
        }
        Scenario::Stream { platform, requests } => {
            let (res, events) = stargemm_bench::obs::record_with(|obs| {
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
            let (res, events) = stargemm_bench::obs::record_with(|obs| {
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
            let critical = logs
                .iter()
                .enumerate()
                .max_by(|(_, a), (_, b)| {
                    let ta = a.last().map_or(0.0, |e| e.time());
                    let tb = b.last().map_or(0.0, |e| e.time());
                    ta.total_cmp(&tb)
                })
                .map_or(0, |(i, _)| i);
            Attribution::from_events(&logs[critical], run.makespan)
        }
    };
    Row {
        scenario: s.name(),
        attribution,
    }
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

/// Reads and parses one artifact, exiting with a useful message if the
/// file is missing or not JSON.
fn load_doc(path: &str) -> Value {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("error: cannot read {path}: {e}");
        std::process::exit(1);
    });
    match json::from_str(&text) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {path} is not valid JSON: {e:?}");
            std::process::exit(1);
        }
    }
}

/// Pulls (makespan, per-category seconds) out of one attribution block;
/// absent categories read as 0 so old artifacts still diff.
fn block_numbers(block: &Value) -> (f64, [f64; CATEGORY_NAMES.len()]) {
    let makespan = block.get("makespan").and_then(Value::as_f64).unwrap_or(0.0);
    let mut cats = [0.0; CATEGORY_NAMES.len()];
    if let Some(obj) = block.get("categories") {
        for (i, name) in CATEGORY_NAMES.iter().enumerate() {
            cats[i] = obj.get(name).and_then(Value::as_f64).unwrap_or(0.0);
        }
    }
    (makespan, cats)
}

/// `--diff a.json b.json`: pair the attribution blocks of two artifacts
/// in document order and print per-category deltas.
fn run_diff(a_path: &str, b_path: &str) {
    let mut a_blocks = Vec::new();
    let mut b_blocks = Vec::new();
    collect_attrs(&load_doc(a_path), "$", &mut a_blocks);
    collect_attrs(&load_doc(b_path), "$", &mut b_blocks);
    if a_blocks.is_empty() || b_blocks.is_empty() {
        eprintln!(
            "error: no attribution blocks found ({} in {a_path}, {} in {b_path})",
            a_blocks.len(),
            b_blocks.len()
        );
        std::process::exit(1);
    }
    if a_blocks.len() != b_blocks.len() {
        eprintln!(
            "warning: {} blocks in {a_path} vs {} in {b_path}; pairing the common prefix",
            a_blocks.len(),
            b_blocks.len()
        );
    }

    println!("attribution diff: {a_path} -> {b_path}");
    let mut total = [0.0; CATEGORY_NAMES.len()];
    let mut total_ms = 0.0;
    for ((path, a), (_, b)) in a_blocks.iter().zip(&b_blocks) {
        let (ms_a, cat_a) = block_numbers(a);
        let (ms_b, cat_b) = block_numbers(b);
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
}

fn main() {
    // `--diff` is exp_attr-specific and takes two positional paths, so
    // it is peeled off before the uniform flag parser sees the args.
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().is_some_and(|a| a == "--diff") {
        if raw.len() != 3 {
            eprintln!("usage: exp_attr --diff <base.json> <new.json>");
            std::process::exit(2);
        }
        run_diff(&raw[1], &raw[2]);
        return;
    }

    let cli = Cli::parse();
    let cells = battery(cli.smoke);
    let outcome = SweepSpec::new("attr", cli.threads).run(&cells, run_cell);
    eprintln!("{}", outcome.summary());
    let rows = &outcome.rows;

    // The whole point: every model second is accounted for, exactly.
    for r in rows {
        assert!(
            r.attribution.is_conserved(),
            "{}: categories sum {} != makespan {}",
            r.scenario,
            r.attribution.categories.total(),
            r.attribution.makespan
        );
    }

    let table = render(rows);
    print!("{table}");
    if let Ok(p) = write_results("attr.txt", &table) {
        eprintln!("(written to {})", p.display());
    }
    if let Some(path) = &cli.json {
        write_json(path, &outcome.to_json());
    }
    // The first battery scenario (the static GEMM): its port/compute
    // frames carry worker and chunk labels.
    stargemm_bench::obs::emit_artifacts(&cli, || match &cells[0] {
        Scenario::Gemm { platform, job } => {
            stargemm_bench::obs::gemm_cell(platform, job, Algorithm::Het)
        }
        _ => unreachable!("the battery opens with the static GEMM"),
    });
}
