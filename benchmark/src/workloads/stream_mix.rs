//! `stream_mix` — the beyond-paper online stack, run the way the
//! `exp_stream` / `exp_dag` cells run it: **recorded**.
//!
//! * open-arrival multi-tenant streams — uniform and 1:3-weighted mixes,
//!   offered load 0.6 and 0.9 — on a static star, a jittered
//!   `DynPlatform` and a crash-and-rejoin `churn_scenario`;
//! * a mixed stream whose first half are `lu_dag(2..4)` members
//!   (`MultiJobMaster::with_dags`);
//! * one standalone `DagMaster` on a tiled-LU graph;
//! * single-job `AdaptiveMaster::adaptive_het` cells on a
//!   `random_scenario` with jitter and crashes.
//!
//! Per stream cell: `parse_dyn_platform → MultiJobMaster::new →
//! Simulator::new_dyn(..).with_arrivals(..).run_observed →
//! stream_report → Attribution::from_events`.
//!
//! Chosen because `stream` (with its `weighted_maxmin` / `lp`
//! re-solves), `dag`, `dyn` and `obs` dominate, and because it drives
//! the same `sim` kernel through arrivals, trace integration and crash
//! cancellation that `paper_sweep` never touches.

use std::rc::Rc;
use std::time::Instant;

use rand::Rng;

use crate::check::{fnv, fnv_bytes, CellFacts};
use crate::stats::{median, percentile};
use crate::surface::{
    aggregate_throughput_bound, churn_scenario, dag_makespan_lower_bound, lu_dag,
    makespan_lower_bound, parse_dyn_platform, random_scenario, render_dyn_platform, stream_report,
    weighted_maxmin, AdaptiveMaster, ArrivalProcess, Attribution, DagJob, DagMaster, DynPlatform,
    Job, JobDemand, JobId, JobRequest, MultiJobMaster, ObsEvent, ObsSink, Platform, RunRecorder,
    RunStats, ScenarioConfig, Simulator, StreamConfig, TenantSpec, WorkerSpec, WorkloadSpec,
};
use crate::trace::{Layer, Tracer};
use crate::workloads::{sub_rng, Counts, Inputs, Metrics, Pass};

/// Block side of every job here: the engines, not the kernels, are
/// measured (all runs are model-time simulations).
const Q: usize = 2;

struct Scale {
    /// Jobs per open-arrival stream cell.
    stream_jobs: usize,
    /// Jobs in the mixed GEMM + DAG stream (first half are LU DAGs).
    mixed_jobs: usize,
    /// Side of the standalone tiled-LU graph (n³/3 tasks).
    lu_side: usize,
    /// Adaptive single-job cells (one scenario draw each).
    adaptive_cells: usize,
    /// B width of the adaptive cells' `Job::paper`.
    adaptive_width: usize,
}

const FULL: Scale = Scale {
    stream_jobs: 800,
    mixed_jobs: 480,
    lu_side: 26,
    adaptive_cells: 8,
    adaptive_width: 64_000,
};
const QUICK: Scale = Scale {
    stream_jobs: 10,
    mixed_jobs: 8,
    lu_side: 6,
    adaptive_cells: 1,
    adaptive_width: 16_000,
};

enum Cell {
    Stream {
        name: String,
        /// Dynamic platform text, parsed inside the pass.
        text: String,
        requests: Vec<JobRequest>,
        dags: Vec<(JobId, DagJob)>,
        /// Crash scenarios recompute lost chunks.
        churn: bool,
    },
    Dag {
        platform: Platform,
        dag: DagJob,
    },
    Adaptive {
        text: String,
        job: Job,
    },
}

pub struct StreamMix {
    cells: Vec<Cell>,
    /// Wall seconds `lu_dag` took at generation (`dag.build_s`).
    dag_build_s: f64,
    /// The stream star (for the allocator probe).
    base: Platform,
}

/// The four-worker star of `exp_stream`, every cost moved by the seed
/// by up to ±5 % (memory stays, so slot layouts are stable).
fn stream_star(seed: u64) -> Platform {
    let mut rng = sub_rng(seed, 1);
    let mut jitter = |x: f64| x * rng.random_range(0.95..1.05);
    Platform::new(
        "stream-star",
        vec![
            WorkerSpec::new(jitter(0.20), jitter(0.10), 80),
            WorkerSpec::new(jitter(0.25), jitter(0.12), 60),
            WorkerSpec::new(jitter(0.30), jitter(0.15), 60),
            WorkerSpec::new(jitter(0.50), jitter(0.30), 40),
        ],
    )
}

fn tenants(mix: &str) -> Vec<TenantSpec> {
    let small = Job::new(4, 3, 6, Q);
    let medium = Job::new(6, 4, 8, Q);
    let large = Job::new(8, 6, 12, Q);
    match mix {
        "uniform" => vec![TenantSpec::new("uni", 1.0, vec![small, medium])],
        _ => vec![
            TenantSpec::new("light", 1.0, vec![small]),
            TenantSpec::new("heavy", 3.0, vec![medium, large]),
        ],
    }
}

/// Expected job size under the generator's sampling (tenant uniformly,
/// then shape uniformly within it), for turning a load factor into an
/// arrival rate.
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

pub fn generate(seed: u64, quick: bool) -> Box<dyn Inputs> {
    let scale = if quick { QUICK } else { FULL };
    let base = stream_star(seed);
    let capacity = aggregate_throughput_bound(&base);
    let mut cells = Vec::new();

    // Open-arrival streams: platform kind × mix × load.
    for (k, kind) in ["static", "jitter", "churn"].into_iter().enumerate() {
        for (m, mix) in ["uniform", "weighted"].into_iter().enumerate() {
            for (l, load) in [0.6, 0.9].into_iter().enumerate() {
                let ts = tenants(mix);
                let requests = WorkloadSpec {
                    arrivals: ArrivalProcess::Open {
                        mean_interarrival: mean_updates(&ts) / (load * capacity),
                    },
                    tenants: ts,
                    jobs: scale.stream_jobs,
                    seed: seed ^ (0x5eed + 100 * k as u64 + 10 * m as u64 + l as u64),
                }
                .generate();
                // The streams run backlogged, so the run lasts several
                // arrival horizons; dynamics are laid out over that span.
                let span = 4.0 * requests.last().map_or(1.0, |r| r.arrival);
                let dp = match kind {
                    "static" => DynPlatform::constant(base.clone()),
                    "jitter" => random_scenario(
                        &base,
                        ScenarioConfig {
                            crash_prob: 0.0,
                            horizon: span,
                            segment_len: span / 40.0,
                            ..ScenarioConfig::default()
                        },
                        seed ^ (0xd1ce + 10 * m as u64 + l as u64),
                    ),
                    _ => churn_scenario(
                        &base,
                        &[
                            (1, 0.10 * span, 0.20 * span),
                            (2, 0.35 * span, 0.45 * span),
                            (3, 0.60 * span, 0.70 * span),
                        ],
                    )
                    .expect("the churn schedule names workers 1–3 of a 4-worker star"),
                };
                cells.push(Cell::Stream {
                    name: format!("{kind}/{mix}/{load}"),
                    text: render_dyn_platform(&dp),
                    requests,
                    dags: Vec::new(),
                    churn: kind == "churn",
                });
            }
        }
    }

    // Mixed stream: LU DAG members next to plain GEMM tenants.
    let t0 = Instant::now();
    let small_dags: Vec<DagJob> = (2..=4).map(|n| lu_dag(n).0).collect();
    let (big_dag, _) = lu_dag(scale.lu_side);
    let dag_build_s = t0.elapsed().as_secs_f64();
    let dag_star = Platform::new(
        "dag-star",
        base.workers()
            .iter()
            .take(3)
            .map(|w| WorkerSpec::new(w.c, w.w, w.m))
            .collect(),
    );
    let gemm_shapes = [Job::new(3, 2, 4, Q), Job::new(4, 3, 6, Q)];
    let mut rng = sub_rng(seed, 2);
    let (mut requests, mut dags, mut arrival) = (Vec::new(), Vec::new(), 0.0);
    for i in 0..scale.mixed_jobs {
        arrival += -4.0 * (1.0 - rng.random::<f64>()).ln();
        let job = if i < scale.mixed_jobs / 2 {
            let dag = small_dags[i % small_dags.len()].clone();
            let job = dag.virtual_job(Q);
            dags.push((i as JobId, dag));
            job
        } else {
            gemm_shapes[rng.random_range(0..gemm_shapes.len())]
        };
        requests.push(JobRequest {
            id: i as JobId,
            tenant: usize::from(i >= scale.mixed_jobs / 2),
            weight: 1.0,
            job,
            arrival,
        });
    }
    cells.push(Cell::Stream {
        name: "mixed-dag".into(),
        text: render_dyn_platform(&DynPlatform::constant(dag_star.clone())),
        requests,
        dags,
        churn: false,
    });

    cells.push(Cell::Dag {
        platform: dag_star,
        dag: big_dag,
    });

    // Adaptive single-job cells: jitter and crashes over the job's span.
    let het = crate::surface::presets::fully_het(2.0);
    let job = Job::paper(scale.adaptive_width);
    let span = 3.0 * makespan_lower_bound(&het, &job);
    for i in 0..scale.adaptive_cells {
        let dp = random_scenario(
            &het,
            ScenarioConfig {
                horizon: span,
                segment_len: span / 30.0,
                crash_prob: 0.5,
                rejoin_prob: 0.7,
                ..ScenarioConfig::default()
            },
            seed ^ (0xada0 + i as u64),
        );
        cells.push(Cell::Adaptive {
            text: render_dyn_platform(&dp),
            job,
        });
    }

    Box::new(StreamMix {
        cells,
        dag_build_s,
        base,
    })
}

/// Runs `run` with a fresh recorder attached and returns its result with
/// the captured events.
fn recorded<T>(run: impl FnOnce(ObsSink) -> T) -> (T, Vec<ObsEvent>) {
    let recorder = RunRecorder::shared();
    let out = run(ObsSink::to(recorder.clone()));
    let events = match Rc::try_unwrap(recorder) {
        Ok(cell) => cell.into_inner().into_parts().0,
        // A sink outlived the run (an engine error path kept one):
        // copy the events out instead.
        Err(shared) => shared.borrow().events().to_vec(),
    };
    (out, events)
}

/// The recorded tail shared by every cell kind: attribution over the
/// captured events, plus the obs counters.
fn attribute(t: &mut Tracer, events: &[ObsEvent], stats: &RunStats, facts: &mut CellFacts) {
    let attr = t.span(Layer::Obs, "attr", || {
        Attribution::from_events(events, stats.makespan)
    });
    facts.conserved = Some(attr.is_conserved());
    if t.is_on() {
        t.count("obs.events", events.len() as f64);
        let resolves = events
            .iter()
            .filter(|e| matches!(e, ObsEvent::LpResolve { .. }))
            .count();
        t.count("lp.solves", resolves as f64);
    }
}

fn stream_cell(
    t: &mut Tracer,
    name: &str,
    text: &str,
    requests: &[JobRequest],
    dags: &[(JobId, DagJob)],
    churn: bool,
) -> CellFacts {
    let dp = match t.span(Layer::Platform, "parse", || {
        parse_dyn_platform(name, text, Q)
    }) {
        Ok(dp) => dp,
        Err(e) => return CellFacts::failed(format!("parse {name}: {e}")),
    };
    let expected: u64 = requests.iter().map(|r| r.job.total_updates()).sum();
    // Volume bound of the whole stream, and for DAG members the
    // critical-path bound from their arrival on.
    let bound = t.span(Layer::Core, "bound", || {
        let rho = aggregate_throughput_bound(&dp.base);
        let per_dag = dags.iter().map(|(id, dag)| {
            let arrival = requests
                .iter()
                .find(|r| r.id == *id)
                .map_or(0.0, |r| r.arrival);
            arrival + dag_makespan_lower_bound(&dp.base, &dag.task_costs(), dag.preds_all())
        });
        per_dag.fold(expected as f64 / rho, f64::max)
    });
    let (outcome, events) = recorded(|obs| {
        let built = t.span(Layer::Stream, "build", || {
            MultiJobMaster::with_dags(&dp.base, requests, dags.to_vec(), StreamConfig::default())
        });
        let mut master = built.map_err(|e| format!("{e:?}"))?.with_obs(obs.clone());
        let sim =
            Simulator::new_dyn(dp.clone()).with_arrivals(MultiJobMaster::arrival_plan(requests));
        t.engine(Layer::Sim, "run", Layer::Stream, &mut master, |p| {
            sim.run_observed(p, obs)
        })
        .map_err(|e| e.to_string())
    });
    let stats = match outcome {
        Ok(s) => s,
        Err(e) => return CellFacts::failed(format!("{name}: {e}")),
    };
    let report = t.span(Layer::Stream, "report", || {
        stream_report(&dp.base, requests, &stats)
    });
    if report.completed != report.total {
        return CellFacts::failed(format!(
            "{name}: {} of {} jobs completed",
            report.completed, report.total
        ));
    }
    let mut facts = CellFacts {
        expected_updates: expected,
        rework_allowed: churn,
        ..CellFacts::default()
    };
    facts.add_sim_run(&stats, bound, &dp.base);
    attribute(t, &events, &stats, &mut facts);
    t.count("stream.jobs", requests.len() as f64);
    facts
}

fn dag_cell(t: &mut Tracer, platform: &Platform, dag: &DagJob) -> CellFacts {
    let bound = t.span(Layer::Core, "bound", || {
        dag_makespan_lower_bound(platform, &dag.task_costs(), dag.preds_all())
    });
    let (outcome, events) = recorded(|obs| {
        let mut master = t
            .span(Layer::Dag, "new", || {
                DagMaster::new("lu", platform, dag.clone(), Q, 2)
            })
            .with_obs(obs.clone(), 0);
        let sim = Simulator::new(platform.clone());
        let t0 = Instant::now();
        let stats = t.engine(Layer::Sim, "run", Layer::Dag, &mut master, |p| {
            sim.run_observed(p, obs)
        });
        t.count("dag.run_s", t0.elapsed().as_secs_f64());
        let ordered = master.is_complete() && dag.is_topological(master.completion_order());
        stats.map_err(|e| e.to_string()).and_then(|s| {
            ordered
                .then_some(s)
                .ok_or_else(|| "completion order violates the DAG".to_string())
        })
    });
    let stats = match outcome {
        Ok(s) => s,
        Err(e) => return CellFacts::failed(format!("lu dag: {e}")),
    };
    let mut facts = CellFacts {
        expected_updates: dag.total_updates(),
        ..CellFacts::default()
    };
    facts.add_sim_run(&stats, bound, platform);
    attribute(t, &events, &stats, &mut facts);
    t.count("dag.tasks", dag.len() as f64);
    facts
}

fn adaptive_cell(t: &mut Tracer, text: &str, job: &Job) -> CellFacts {
    let dp = match t.span(Layer::Platform, "parse", || {
        parse_dyn_platform("adaptive", text, job.q)
    }) {
        Ok(dp) => dp,
        Err(e) => return CellFacts::failed(format!("parse adaptive: {e}")),
    };
    // Every scale of the scenario is ≥ 1 and crashes only remove
    // capacity, so the static steady-state bound still holds.
    let bound = t.span(Layer::Core, "bound", || makespan_lower_bound(&dp.base, job));
    let built = t.span(Layer::Dyn, "build", || {
        AdaptiveMaster::adaptive_het(&dp.base, job)
    });
    let mut master = match built {
        Ok(m) => m,
        Err(e) => return CellFacts::failed(e.to_string()),
    };
    let sim = Simulator::new_dyn(dp.clone());
    let (outcome, events) = recorded(|obs| {
        t.engine(Layer::Sim, "run", Layer::Dyn, &mut master, |p| {
            sim.run_observed(p, obs)
        })
    });
    let stats = match outcome {
        Ok(s) => s,
        Err(e) => return CellFacts::failed(format!("adaptive: {e}")),
    };
    let mut facts = CellFacts {
        expected_updates: job.total_updates(),
        rework_allowed: true,
        ..CellFacts::default()
    };
    facts.add_sim_run(&stats, bound, &dp.base);
    attribute(t, &events, &stats, &mut facts);
    let adaptive = master.stats();
    t.count("dyn.rebalances", adaptive.rebalances as f64);
    t.count("dyn.crashes", adaptive.crashes as f64);
    facts
}

impl Inputs for StreamMix {
    fn fingerprint(&self) -> u64 {
        let mut h = 0;
        for cell in &self.cells {
            match cell {
                Cell::Stream {
                    text,
                    requests,
                    dags,
                    ..
                } => {
                    h = fnv_bytes(h, text.as_bytes());
                    for r in requests {
                        h = fnv_bytes(h, format!("{r:?}").as_bytes());
                    }
                    h = fnv(h, &[dags.len() as u64]);
                }
                Cell::Dag { dag, .. } => h = fnv(h, &[dag.len() as u64, dag.total_updates()]),
                Cell::Adaptive { text, job } => {
                    h = fnv_bytes(fnv_bytes(h, text.as_bytes()), format!("{job:?}").as_bytes());
                }
            }
        }
        h
    }

    fn pass(&self, t: &mut Tracer, out: &mut Pass) {
        for cell in &self.cells {
            out.cell(t, |t| match cell {
                Cell::Stream {
                    name,
                    text,
                    requests,
                    dags,
                    churn,
                } => stream_cell(t, name, text, requests, dags, *churn),
                Cell::Dag { platform, dag } => dag_cell(t, platform, dag),
                Cell::Adaptive { text, job } => adaptive_cell(t, text, job),
            });
        }
    }

    fn setup_metrics(&self) -> Vec<(&'static str, f64)> {
        vec![("dag.build_s", self.dag_build_s)]
    }

    fn probes(&self, counts: &Counts, m: &mut Metrics) {
        // Allocator probe: the LP the stream master re-solves on every
        // admission and completion, on 1..=slots-job demand sets.
        let slots = StreamConfig::default().slots;
        let demand = |weight: f64| JobDemand {
            // μ² + 4μ ≤ m/slots, the double-buffered layout.
            sides: self
                .base
                .workers()
                .iter()
                .map(|w| (((w.m / slots + 4) as f64).sqrt() - 2.0).floor().max(1.0) as usize)
                .collect(),
            weight,
        };
        let mut solve_us = Vec::new();
        for jobs in 1..=slots {
            let demands: Vec<JobDemand> = (0..jobs).map(|j| demand(1.0 + 2.0 * j as f64)).collect();
            for _ in 0..200 {
                let t0 = Instant::now();
                let solved = weighted_maxmin(&self.base, std::hint::black_box(&demands));
                let us = t0.elapsed().as_secs_f64() * 1e6;
                // A declined (degenerate) demand set is not a solve.
                if std::hint::black_box(solved).is_some() {
                    solve_us.push(us);
                }
            }
        }
        let p50 = median(&solve_us);
        m.insert("lp.solve_us_p50".into(), p50);
        m.insert("lp.solve_us_max".into(), percentile(&solve_us, 100.0));
        // The re-solves happen inside the stream master, where no span
        // can reach: busy time is the exact solve count × the probe.
        let solves = counts.get("lp.solves").copied().unwrap_or(0.0);
        m.insert("lp.busy_s".into(), solves * p50 * 1e-6);

        // Recorder on/off pair on the first stream cell.
        if let Some(Cell::Stream {
            name,
            text,
            requests,
            ..
        }) = self.cells.first()
        {
            if let Ok(dp) = parse_dyn_platform(name, text, Q) {
                let run = |observe: bool| {
                    let master =
                        MultiJobMaster::new(&dp.base, requests, StreamConfig::default()).ok()?;
                    let sim = Simulator::new_dyn(dp.clone())
                        .with_arrivals(MultiJobMaster::arrival_plan(requests));
                    let t0 = Instant::now();
                    if observe {
                        recorded(|obs| {
                            let mut master = master.with_obs(obs.clone());
                            sim.run_observed(&mut master, obs).ok()
                        })
                        .0?;
                    } else {
                        let mut master = master;
                        sim.run(&mut master).ok()?;
                    }
                    Some(t0.elapsed().as_secs_f64())
                };
                let (mut on, mut off) = (Vec::new(), Vec::new());
                for _ in 0..5 {
                    off.extend(run(false));
                    on.extend(run(true));
                }
                if !on.is_empty() && !off.is_empty() {
                    m.insert(
                        "obs.record_overhead_frac".into(),
                        median(&on) / median(&off) - 1.0,
                    );
                }
            }
        }
    }
}
