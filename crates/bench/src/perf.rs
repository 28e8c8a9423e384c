//! The pinned perf trajectory behind `BENCH_kernel.json`.
//!
//! One module owns the kernel workloads the CI artifact writer
//! (`exp_perf`) times and the library tests check: **hold** (the classic
//! DES benchmark — N events stay pending, each delivery schedules a
//! successor),
//! **cancel-half** (every other event is cancelled before delivery,
//! exercising the tombstone-skipping pop), and **drain** (schedule N,
//! pop all). Each sample records events/sec, the kernel's heap
//! high-water mark, and the cancellation count, so a future regression
//! in any of the three shows up as a step in the trajectory file. The
//! **reshare** rows time the contention model's max-min re-share
//! (`netmodel::maxmin_shares_into`, run at every admission and
//! completion under `FairShare` / `BoundedMultiPort`) at 64, 256 and
//! 1 024 active lanes, and the gate checks that its cost grows linearly
//! between the last two. The **sim_oneport** and **het_plan** rows put
//! the layers above the queue on the same floor: whole one-port
//! `Simulator::run`s (model, ledger, lane table and the streaming
//! master's callbacks, in policy-visible events/sec) and whole
//! `build_policy(.., Het)` calls (phase 1 for the eight variants plus
//! one scoring run per distinct allocation, in plans/sec), both on one
//! cell of the paper's grid. The **sim_multiport** row is the same
//! measure where the lane table is busy: whole `Simulator::run`s of
//! ODDOML under `BoundedMultiPort { k = 16 }` with a binding backbone on
//! a 256-worker star, every admission and completion re-sharing sixteen
//! lanes; its companion **sim_wide_oneport** runs the same star and job
//! under one-port, so the gate can check that a transfer among sixteen
//! costs the engine a bounded multiple of a transfer alone. The **attr**
//! row times the run record's
//! most expensive reader, `Attribution::from_events`, over the log of
//! one recorded 400-job stream cell (events/sec), and the
//! **dag_dispatch** rows whole `DagMaster` runs of tiled-LU graphs
//! (tasks/sec) at two sizes, so the gate can check that a decision's
//! cost does not grow with the task table. The **gemm** rows put the
//! block kernel (`linalg::gemm`, the rate behind every calibrated
//! `w_i`) in the same file: GFLOP/s at the three block sizes the
//! experiments use.

use std::time::Instant;

use serde::json::Value;
use serde::Serialize;
use stargemm_core::algorithms::{build_policy, Algorithm};
use stargemm_core::Job;
use stargemm_dag::{lu_dag, DagJob, DagMaster};
use stargemm_linalg::gemm::bytes_per_flop;
use stargemm_net::calibrate::{gflops_at, measure_block_update_seconds};
use stargemm_netmodel::{maxmin_shares_into, NetModelSpec, ShareScratch, TransferLane};
use stargemm_obs::{Attribution, ObsEvent};
use stargemm_platform::{presets, Platform, WorkerSpec};
use stargemm_sim::{EventQueue, Simulator};
use stargemm_stream::{
    aggregate_throughput_bound, ArrivalProcess, MultiJobMaster, StreamConfig, TenantSpec,
    WorkloadSpec,
};

use crate::netperf::{baseline_number, parse_baseline, CountingPolicy};
use crate::{Cli, Instance};

/// Deterministic pseudo-random delays (xorshift — no rand dependency in
/// the hot loop).
pub struct Delays(u64);

impl Delays {
    /// A generator seeded for one workload.
    pub fn new(seed: u64) -> Delays {
        Delays(seed)
    }

    /// Next delay in `(1e-3, 1.001)` model seconds.
    pub fn next_delay(&mut self) -> f64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 % 1_000) as f64 / 1_000.0 + 1e-3
    }
}

/// Final queue counters of one kernel workload run.
#[derive(Clone, Copy, Debug)]
pub struct KernelCounters {
    /// Events delivered.
    pub delivered: u64,
    /// Events cancelled before delivery.
    pub cancelled: u64,
    /// Peak heap size (pending events plus cancellation tombstones).
    pub heap_high_water: usize,
}

fn counters<T>(q: &EventQueue<T>) -> KernelCounters {
    KernelCounters {
        delivered: q.delivered(),
        cancelled: q.cancelled(),
        heap_high_water: q.heap_high_water(),
    }
}

/// Counters of a workload that does not run the bare queue: deliveries
/// (calls, events) only.
fn calls_only(delivered: u64) -> KernelCounters {
    KernelCounters {
        delivered,
        cancelled: 0,
        heap_high_water: 0,
    }
}

/// The hold model: keep `pending` events in flight until `events` have
/// been delivered.
pub fn hold(pending: usize, events: u64) -> KernelCounters {
    let mut q = EventQueue::new();
    let mut delays = Delays::new(0x9e37_79b9_7f4a_7c15);
    for i in 0..pending {
        q.schedule(delays.next_delay(), i % 8, i as u64);
    }
    while q.delivered() < events {
        let ev = q.pop().unwrap().expect("hold model never drains");
        q.schedule(ev.time + delays.next_delay(), ev.component, ev.payload);
    }
    counters(&q)
}

/// The cancel-half model: like hold, but one pending event is cancelled
/// and rescheduled per delivery.
pub fn cancel_half(pending: usize, events: u64) -> KernelCounters {
    let mut q = EventQueue::new();
    let mut delays = Delays::new(0x2545_f491_4f6c_dd1d);
    let mut cancellable = Vec::with_capacity(pending / 2);
    for i in 0..pending {
        let id = q.schedule(delays.next_delay(), i % 8, i as u64);
        if i % 2 == 0 {
            cancellable.push(id);
        }
    }
    while q.delivered() < events {
        if let Some(id) = cancellable.pop() {
            if let Some(payload) = q.cancel(id) {
                q.schedule(q.now() + delays.next_delay(), 0, payload);
            }
        }
        let ev = q.pop().unwrap().expect("never drains");
        cancellable.push(q.schedule(ev.time + delays.next_delay(), ev.component, ev.payload));
    }
    counters(&q)
}

/// The drain model: schedule `events`, then pop everything.
pub fn drain(events: u64) -> KernelCounters {
    let mut q = EventQueue::new();
    let mut delays = Delays::new(0xda94_2042_e4dd_58b5);
    for i in 0..events {
        q.schedule(delays.next_delay() * 1e3, (i % 8) as usize, i);
    }
    while let Some(ev) = q.pop().unwrap() {
        std::hint::black_box(ev.payload);
    }
    counters(&q)
}

/// Active-lane counts of the `reshare` rows: `wide_star`'s FairShare
/// leg holds ~190 lanes on average and peaks at 384.
pub const RESHARE_LANES: [usize; 3] = [64, 256, 1_024];

/// The re-share model: `calls` max-min re-shares of `lanes` active
/// lanes through one warm [`ShareScratch`] — lanes round-robin over 128
/// equal links under a backbone of 32 link rates, the shape of the repo
/// benchmark's `netmodel.reshare_us_*` probe. `delivered` counts calls.
pub fn reshare(lanes: usize, calls: u64) -> KernelCounters {
    let link_rate = 1e4;
    let active: Vec<TransferLane> = (0..lanes)
        .map(|i| TransferLane {
            worker: i % 128,
            link_rate,
        })
        .collect();
    let mut scratch = ShareScratch::new();
    for _ in 0..calls {
        maxmin_shares_into(
            std::hint::black_box(&active),
            32.0 * link_rate,
            &mut scratch,
        );
        std::hint::black_box(scratch.shares());
    }
    calls_only(calls)
}

/// The cell of the `sim_oneport` and `het_plan` rows: one cell of the
/// paper's own grid (and of the repo benchmark's `paper_sweep`).
fn engine_cell() -> (Platform, Job) {
    (presets::fully_het(2.0), Job::paper(64_000))
}

/// Whole [`Simulator::run`]s of ODDOML for `job` on `sim`'s platform
/// until `events` policy-visible events have been delivered.
/// `delivered` counts those events.
fn oddoml_runs(sim: &Simulator, job: &Job, events: u64) -> KernelCounters {
    let mut delivered = 0;
    while delivered < events {
        let policy = build_policy(sim.platform(), job, Algorithm::Oddoml).expect("ODDOML fits");
        let mut policy = CountingPolicy::new(policy);
        std::hint::black_box(sim.run(&mut policy).expect("ODDOML completes"));
        delivered += policy.events;
    }
    calls_only(delivered)
}

/// The one-port engine model: whole [`Simulator::run`]s of ODDOML on
/// the engine cell until `events` policy-visible events have been
/// delivered. `delivered` counts those events.
pub fn sim_oneport(events: u64) -> KernelCounters {
    let (platform, job) = engine_cell();
    oddoml_runs(&Simulator::new(platform), &job, events)
}

/// The `sim_multiport` rows, as (workload name, contention model of the
/// wide star): the bounded multi-port model with a backbone of eight
/// link rates carries the floor, one-port is what the ratio gate
/// compares it with.
pub fn wide_rows() -> [(&'static str, NetModelSpec); 2] {
    let multiport = NetModelSpec::BoundedMultiPort {
        k: 16,
        backbone: Some(8.0 / WIDE_C),
    };
    [
        ("sim_wide_oneport", NetModelSpec::OnePort),
        ("sim_multiport", multiport),
    ]
}

/// Link cost of the wide star's workers (seconds per block).
const WIDE_C: f64 = 1e-5;

/// The wide-star engine model: the same measure as [`sim_oneport`]
/// under `model` on a 256-worker homogeneous star (q = 2 blocks, 16
/// one-step chunks per worker — the shape of the repo benchmark's
/// `wide_star` multiport leg at half its width).
pub fn sim_wide(model: NetModelSpec, events: u64) -> KernelCounters {
    let workers = 256;
    let platform = Platform::homogeneous("wide-star", workers, WorkerSpec::new(WIDE_C, 1e-6, 64));
    let job = Job::new(4, 1, 64 * workers, 2);
    let sim = Simulator::new(platform).with_netmodel(model);
    oddoml_runs(&sim, &job, events)
}

/// The Het planning model: `calls` whole `build_policy(.., Het)` calls
/// on the engine cell — the paper's decision procedure, phase 1 and
/// scoring runs included. `delivered` counts calls.
pub fn het_plan(calls: u64) -> KernelCounters {
    let (platform, job) = engine_cell();
    for _ in 0..calls {
        let policy = build_policy(std::hint::black_box(&platform), &job, Algorithm::Het);
        std::hint::black_box(policy.expect("Het fits"));
    }
    calls_only(calls)
}

/// The four-worker star of `exp_stream` and the repo benchmark's
/// `stream_mix`.
fn stream_star() -> Platform {
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

/// Jobs of the `attr` row's stream cell.
pub const ATTR_JOBS: usize = 400;

/// One recorded open-arrival stream cell: `jobs` jobs of `exp_stream`'s
/// uniform mix offered to its star at 0.9 of the steady-state capacity,
/// run once under a recorder. Returns the event log and the makespan —
/// what `Attribution::from_events` takes.
pub fn recorded_stream(jobs: usize) -> (Vec<ObsEvent>, f64) {
    let platform = stream_star();
    let shapes = vec![Job::new(4, 3, 6, 2), Job::new(6, 4, 8, 2)];
    let mean_updates =
        shapes.iter().map(|j| j.total_updates() as f64).sum::<f64>() / shapes.len() as f64;
    let requests = WorkloadSpec {
        arrivals: ArrivalProcess::Open {
            mean_interarrival: mean_updates / (0.9 * aggregate_throughput_bound(&platform)),
        },
        tenants: vec![TenantSpec::new("uni", 1.0, shapes)],
        jobs,
        seed: 2008,
    }
    .generate();
    let (stats, events) = crate::obs::record_with(|obs| {
        let mut master = MultiJobMaster::new(&platform, &requests, StreamConfig::default())
            .expect("the mix fits the star")
            .with_obs(obs.clone());
        Simulator::new(platform.clone())
            .with_arrivals(MultiJobMaster::arrival_plan(&requests))
            .run_observed(&mut master, obs)
    });
    (events, stats.expect("the stream completes").makespan)
}

/// The `dag_dispatch` rows, as (workload name, side of the tiled-LU
/// graph): `lu_dag(16)` (1 496 tasks) carries the floor, `lu_dag(8)` (204
/// tasks) is what the scaling gate compares it with.
pub const DAG_ROWS: [(&str, usize); 2] = [("dag_dispatch_n8", 8), ("dag_dispatch", 16)];

/// The DAG dispatch model: `runs` whole unrecorded [`DagMaster`] runs of
/// `dag` — dispatcher construction, every decision, the engine under
/// them — on the first three workers of the stream star (the repo
/// benchmark's `dag-star`). `delivered` counts completed tasks.
pub fn dag_dispatch(dag: &DagJob, runs: u64) -> KernelCounters {
    let star = stream_star();
    let platform = Platform::new("dag-star", star.workers()[..3].to_vec());
    let sim = Simulator::new(platform.clone());
    for _ in 0..runs {
        let mut master = DagMaster::new("lu", &platform, dag.clone(), 2, 2);
        std::hint::black_box(sim.run(&mut master).expect("the LU graph completes"));
        assert!(master.is_complete());
    }
    calls_only(runs * dag.len() as u64)
}

/// One row of the kernel trajectory.
#[derive(Clone, Debug, Serialize)]
pub struct KernelSample {
    /// Workload name (`hold`, `cancel_half`, `drain`, `reshare_l<n>`,
    /// `sim_oneport`, `sim_wide_oneport`, `sim_multiport`, `het_plan`,
    /// `attr`, `dag_dispatch`, `dag_dispatch_n8`).
    pub workload: String,
    /// Events delivered by the run (`reshare_*`: re-shares computed;
    /// `het_plan`: policies built; `attr`: log events attributed;
    /// `dag_dispatch_*`: tasks completed).
    pub events: u64,
    /// Delivered events (re-shares, plans, tasks) per wall-clock second.
    pub events_per_sec: f64,
    /// Kernel heap high-water mark.
    pub heap_high_water: u64,
    /// Events cancelled before delivery.
    pub cancelled: u64,
    /// Wall-clock seconds for the run.
    pub wall_secs: f64,
}

/// Block sides of the `gemm` rows: the real-data runs' small size and
/// the paper's two (`q = 80` or `100` "for BLAS-3 efficiency").
pub const GEMM_SIZES: [usize; 3] = [32, 80, 100];

/// One `gemm` row of the kernel trajectory.
#[derive(Clone, Debug, Serialize)]
pub struct GemmSample {
    /// Block side.
    pub q: u64,
    /// Sustained rate of `gemm::block_update`.
    pub gflops: f64,
    /// Computed operand traffic per flop, `12/q`
    /// ([`stargemm_linalg::gemm::bytes_per_flop`]).
    pub bytes_per_flop: f64,
    /// Median seconds per block update (the measured `w`).
    pub update_secs: f64,
}

/// The `gemm` rows, through the same measurement calibration uses
/// ([`measure_block_update_seconds`], median of ten batched samples).
pub fn gemm_trajectory() -> Vec<GemmSample> {
    GEMM_SIZES
        .iter()
        .map(|&q| {
            let update_secs = measure_block_update_seconds(q, 10);
            GemmSample {
                q: q as u64,
                gflops: gflops_at(q, update_secs),
                bytes_per_flop: bytes_per_flop(q),
                update_secs,
            }
        })
        .collect()
}

/// One row of the sweep timing trajectory.
#[derive(Clone, Debug, Serialize)]
pub struct CellSample {
    /// Cell label (`platform/s=…`).
    pub cell: String,
    /// Wall-clock seconds to run all seven algorithms on the cell.
    pub wall_secs: f64,
}

/// Runs one workload under the wall clock.
pub fn sample(workload: &str, run: impl FnOnce() -> KernelCounters) -> KernelSample {
    let t0 = Instant::now();
    let c = run();
    let wall_secs = t0.elapsed().as_secs_f64();
    KernelSample {
        workload: workload.to_string(),
        events: c.delivered,
        events_per_sec: if wall_secs > 0.0 {
            c.delivered as f64 / wall_secs
        } else {
            0.0
        },
        heap_high_water: c.heap_high_water as u64,
        cancelled: c.cancelled,
        wall_secs,
    }
}

/// The three headline kernel samples at `events` deliveries each, then
/// the `reshare` rows at `64 · events` lane visits each (so every row
/// runs about as long, whatever its lane count), then the engine and
/// the Het planner on top of the queue: `events` policy-visible events
/// (on the paper's cell, then on the wide star under each model of
/// [`wide_rows`]), and one plan per 10 000 of them. Last the two online
/// layers: about
/// `16 · events` log events attributed (the cell is recorded once,
/// outside the timing) and about `events` DAG tasks per graph (each
/// graph built outside the timing).
pub fn kernel_trajectory(pending: usize, events: u64) -> Vec<KernelSample> {
    let mut rows = vec![
        sample("hold", || hold(pending, events)),
        sample("cancel_half", || cancel_half(pending, events)),
        sample("drain", || drain(events)),
    ];
    rows.extend(RESHARE_LANES.map(|lanes| {
        let calls = (64 * events / lanes as u64).max(1);
        sample(&reshare_key(lanes), || reshare(lanes, calls))
    }));
    rows.push(sample("sim_oneport", || sim_oneport(events)));
    rows.extend(wide_rows().map(|(name, model)| sample(name, || sim_wide(model, events))));
    rows.push(sample("het_plan", || het_plan((events / 10_000).max(1))));
    let (log, makespan) = recorded_stream(ATTR_JOBS);
    rows.push(sample("attr", || {
        let calls = (16 * events / log.len() as u64).max(1);
        for _ in 0..calls {
            std::hint::black_box(Attribution::from_events(&log, makespan));
        }
        calls_only(calls * log.len() as u64)
    }));
    rows.extend(DAG_ROWS.map(|(name, side)| {
        let (dag, _) = lu_dag(side);
        let runs = (events / dag.len() as u64).max(1);
        sample(name, || dag_dispatch(&dag, runs))
    }));
    rows
}

/// Per-cell wall time of the standard size sweep (run serially so the
/// numbers mean something).
pub fn sweep_cell_times(cli: &Cli) -> Vec<CellSample> {
    let platform = stargemm_platform::presets::fully_het(2.0);
    crate::size_grid(&platform, cli)
        .iter()
        .map(|(p, j)| {
            let t0 = Instant::now();
            std::hint::black_box(Instance::run(p, j));
            CellSample {
                cell: format!("{}/s={}", p.name, j.s),
                wall_secs: t0.elapsed().as_secs_f64(),
            }
        })
        .collect()
}

/// The shape of `ci/BENCH_kernel_baseline.json`, for error messages.
pub const KERNEL_BASELINE_SCHEMA: &str = "{\"hold\": <events/sec>, \
     \"cancel_half\": <events/sec>, \"drain\": <events/sec>, \
     \"reshare_l64\": <re-shares/sec>, \"reshare_l256\": <re-shares/sec>, \
     \"reshare_l1024\": <re-shares/sec>, \"sim_oneport\": <events/sec>, \
     \"sim_multiport\": <events/sec>, \"het_plan\": <plans/sec>, \
     \"attr\": <events/sec>, \"dag_dispatch\": <tasks/sec>, \
     \"gemm_q32\": <GFLOP/s>, \"gemm_q80\": <GFLOP/s>, \"gemm_q100\": <GFLOP/s>}";

/// Most a re-share at 1 024 lanes may cost relative to one at 256. A
/// routine linear in the lane count reads about 5 on any machine, one
/// that rescans the lanes per lane about 28.
pub const RESHARE_SCALING_MAX: f64 = 10.0;

/// Least share of its tasks/sec on the smaller graph of [`DAG_ROWS`]
/// that `DagMaster` must keep on the larger. A dispatcher whose
/// decisions cost the frontier reads about 1 on any machine, one that
/// rescans the task table per decision about 0.3.
pub const DAG_SCALING_MIN: f64 = 0.5;

/// Least share of the wide star's one-port events/sec that the engine
/// must keep under the bounded multi-port model of [`wide_rows`], where
/// every admission and completion re-shares up to sixteen lanes. An
/// engine that reads each transfer's completion off the lane table keeps
/// 0.22–0.28 on the builder box; one that cancels and re-pushes a kernel
/// event per re-shared lane kept 0.09–0.14 (the commit before this row
/// existed, same box); the limit is their geometric mean.
pub const MULTIPORT_SHARE_MIN: f64 = 0.15;

/// Gates the measured kernel trajectory against a committed baseline
/// (`ci/BENCH_kernel_baseline.json`): every event-kernel workload,
/// `sim_oneport` and `sim_multiport` must deliver at least 80 % of its
/// committed events/sec,
/// every `reshare` row 80 % of its committed re-shares/sec, `het_plan`
/// 80 % of its committed plans/sec and every `gemm` row 80 % of its
/// committed GFLOP/s, `attr` 80 % of its committed events/sec and
/// `dag_dispatch` (the larger graph of [`DAG_ROWS`]) 80 % of its
/// committed tasks/sec — symmetric with
/// [`crate::netperf::check_net_baseline`] — and, on whatever machine, a
/// re-share at 1 024 lanes may cost at most [`RESHARE_SCALING_MAX`]
/// re-shares at 256, the larger LU graph must run at
/// [`DAG_SCALING_MIN`] of the smaller one's tasks/sec or better, and the
/// wide star's multi-port run must keep [`MULTIPORT_SHARE_MIN`] of its
/// one-port run's events/sec. Returns
/// the gate report on success and the first violation (or schema
/// problem) on failure.
pub fn check_kernel_baseline(
    baseline_json: &str,
    samples: &[KernelSample],
    gemm: &[GemmSample],
) -> Result<String, String> {
    let measured: Vec<(String, f64)> = samples
        .iter()
        .map(|s| (s.workload.clone(), s.events_per_sec))
        .chain(gemm.iter().map(|g| (gemm_key(g.q), g.gflops)))
        .collect();
    // (baseline key, unit, printed decimals)
    let rows = ["hold", "cancel_half", "drain"]
        .into_iter()
        .map(|key| (key.to_string(), "events/sec", 0))
        .chain(RESHARE_LANES.map(|lanes| (reshare_key(lanes), "re-shares/sec", 0)))
        .chain([
            ("sim_oneport".to_string(), "events/sec", 0),
            ("sim_multiport".to_string(), "events/sec", 0),
            ("het_plan".to_string(), "plans/sec", 1),
            ("attr".to_string(), "events/sec", 0),
            ("dag_dispatch".to_string(), "tasks/sec", 0),
        ])
        .chain(GEMM_SIZES.map(|q| (gemm_key(q), "GFLOP/s", 2)));
    // Validate the whole baseline schema up front so a malformed file
    // is reported as such even when the measured samples are short.
    let doc = parse_baseline(baseline_json, KERNEL_BASELINE_SCHEMA)?;
    let mut gates = Vec::new();
    for (key, unit, digits) in rows {
        let base = baseline_number(&doc, &key, KERNEL_BASELINE_SCHEMA)?;
        gates.push((key, unit, digits, base));
    }
    let rate_of = |key: &str| {
        measured
            .iter()
            .find(|row| row.0 == key)
            .map(|row| row.1)
            .ok_or_else(|| format!("no {key} sample to gate against"))
    };
    let mut lines = Vec::new();
    for (key, unit, digits, base) in gates {
        let rate = rate_of(&key)?;
        let floor = 0.8 * base;
        if rate < floor {
            return Err(format!(
                "kernel perf regression: {key} delivers {rate:.digits$} {unit}, \
                 below 80% of the committed baseline {base:.digits$} (floor {floor:.digits$})"
            ));
        }
        lines.push(format!(
            "kernel baseline gate ok: {key} {rate:.digits$} {unit} >= floor {floor:.digits$}"
        ));
    }
    let (narrow, wide) = (reshare_key(256), reshare_key(1_024));
    let scaling = rate_of(&narrow)? / rate_of(&wide)?;
    if scaling >= RESHARE_SCALING_MAX {
        return Err(format!(
            "kernel perf regression: a re-share at 1024 lanes costs {scaling:.1}x one at 256 \
             ({wide} vs {narrow}); linear is ~5x, the limit is {RESHARE_SCALING_MAX}x"
        ));
    }
    lines.push(format!(
        "kernel baseline gate ok: re-share cost 1024 / 256 lanes {scaling:.1}x < \
         {RESHARE_SCALING_MAX}x"
    ));
    let [(small, small_side), (large, large_side)] = DAG_ROWS;
    let kept = rate_of(large)? / rate_of(small)?;
    if kept < DAG_SCALING_MIN {
        return Err(format!(
            "kernel perf regression: DagMaster keeps {kept:.2} of its tasks/sec from \
             lu_dag({small_side}) to lu_dag({large_side}) ({large} vs {small}); a kept \
             frontier reads ~1, the limit is {DAG_SCALING_MIN}"
        ));
    }
    lines.push(format!(
        "kernel baseline gate ok: DagMaster tasks/sec lu_dag({large_side}) / \
         lu_dag({small_side}) {kept:.2} >= {DAG_SCALING_MIN}"
    ));
    let [(alone, _), (shared, _)] = wide_rows();
    let kept = rate_of(shared)? / rate_of(alone)?;
    if kept < MULTIPORT_SHARE_MIN {
        return Err(format!(
            "kernel perf regression: the engine keeps {kept:.2} of its one-port events/sec \
             under 16-lane multi-port on the wide star ({shared} vs {alone}); one clock per \
             transfer reads ~0.25, the limit is {MULTIPORT_SHARE_MIN}"
        ));
    }
    lines.push(format!(
        "kernel baseline gate ok: wide-star events/sec multi-port / one-port {kept:.2} >= \
         {MULTIPORT_SHARE_MIN}"
    ));
    Ok(lines.join("\n"))
}

/// Baseline key of the `gemm` row at block side `q`.
fn gemm_key(q: impl std::fmt::Display) -> String {
    format!("gemm_q{q}")
}

/// Workload name and baseline key of the `reshare` row at `lanes`
/// active lanes.
fn reshare_key(lanes: usize) -> String {
    format!("reshare_l{lanes}")
}

/// Renders the `BENCH_kernel.json` artifact.
pub fn perf_report_json(
    kernel: &[KernelSample],
    gemm: &[GemmSample],
    cells: &[CellSample],
) -> String {
    Value::object([
        ("experiment", "perf".to_value()),
        ("kernel", kernel.to_value()),
        ("gemm", gemm.to_value()),
        ("sweep_cells", cells.to_value()),
    ])
    .render_pretty()
}

/// Aligned text table over the kernel samples.
pub fn render_kernel_table(samples: &[KernelSample]) -> String {
    let mut out = format!(
        "{:<18}{:>10}{:>16}{:>12}{:>12}{:>10}\n",
        "workload", "events", "events/sec", "heap hw", "cancelled", "wall s"
    );
    for s in samples {
        out.push_str(&format!(
            "{:<18}{:>10}{:>16.0}{:>12}{:>12}{:>10.3}\n",
            s.workload, s.events, s.events_per_sec, s.heap_high_water, s.cancelled, s.wall_secs
        ));
    }
    out
}

/// Aligned text table over the `gemm` rows.
pub fn render_gemm_table(samples: &[GemmSample]) -> String {
    let mut out = format!(
        "{:<14}{:>10}{:>16}{:>12}\n",
        "gemm", "GFLOP/s", "s/update", "B/flop"
    );
    for s in samples {
        out.push_str(&format!(
            "{:<14}{:>10.2}{:>16.3e}{:>12.3}\n",
            format!("q={}", s.q),
            s.gflops,
            s.update_secs,
            s.bytes_per_flop
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_deliver_what_they_promise() {
        let h = hold(64, 1_000);
        assert!(h.delivered >= 1_000);
        assert_eq!(h.cancelled, 0);
        assert!(h.heap_high_water >= 64);

        let c = cancel_half(64, 1_000);
        assert!(c.delivered >= 1_000);
        assert!(c.cancelled > 0, "cancel-half must actually cancel");

        let d = drain(1_000);
        assert_eq!(d.delivered, 1_000);
        assert_eq!(d.heap_high_water, 1_000);

        assert_eq!(reshare(64, 10).delivered, 10);

        // One ODDOML run of the engine cell delivers thousands of events,
        // and the wide star the same events under either model.
        assert!(sim_oneport(1).delivered > 1_000);
        let [alone, shared] = wide_rows().map(|(_, model)| sim_wide(model, 1).delivered);
        assert!(alone > 10_000 && alone == shared, "{alone} vs {shared}");
        assert_eq!(het_plan(1).delivered, 1);

        // A recorded stream logs hundreds of events per job, and the
        // profile of its log is conserved.
        let (log, makespan) = recorded_stream(5);
        assert!(log.len() > 500, "{} events", log.len());
        assert!(Attribution::from_events(&log, makespan).is_conserved());
        let (dag, _) = lu_dag(3);
        assert_eq!(dag_dispatch(&dag, 2).delivered, 2 * dag.len() as u64);
    }

    fn gemm_rows(gflops: f64) -> Vec<GemmSample> {
        GEMM_SIZES
            .iter()
            .map(|&q| GemmSample {
                q: q as u64,
                gflops,
                bytes_per_flop: bytes_per_flop(q),
                update_secs: 1.0, // not gated
            })
            .collect()
    }

    #[test]
    fn trajectory_json_carries_all_samples() {
        let kernel = kernel_trajectory(64, 500);
        let cells = vec![CellSample {
            cell: "t/s=8".into(),
            wall_secs: 0.1,
        }];
        let json = perf_report_json(&kernel, &gemm_rows(10.0), &cells);
        assert!(json.contains("\"hold\""));
        assert!(json.contains("\"cancel_half\""));
        assert!(json.contains("\"drain\""));
        assert!(json.contains("\"reshare_l256\""));
        assert!(json.contains("\"sim_oneport\"") && json.contains("\"het_plan\""));
        assert!(json.contains("\"sim_multiport\"") && json.contains("\"sim_wide_oneport\""));
        assert!(json.contains("\"attr\"") && json.contains("\"dag_dispatch\""));
        assert!(json.contains("\"dag_dispatch_n8\""));
        assert!(json.contains("\"events_per_sec\""));
        assert!(json.contains("\"heap_high_water\""));
        assert!(json.contains("\"gemm\""));
        assert!(json.contains("\"gflops\""));
        assert!(json.contains("\"bytes_per_flop\""));
        assert!(json.contains("\"sweep_cells\""));
        assert!(json.contains("t/s=8"));
    }

    #[test]
    fn gemm_trajectory_measures_the_three_block_sizes() {
        let rows = gemm_trajectory();
        assert_eq!(rows.iter().map(|g| g.q).collect::<Vec<_>>(), [32, 80, 100]);
        for g in &rows {
            assert!(g.gflops > 0.0 && g.update_secs > 0.0, "{g:?}");
            assert_eq!(g.gflops, gflops_at(g.q as usize, g.update_secs));
        }
        let table = render_gemm_table(&rows);
        assert!(table.contains("q=80") && table.contains("0.150"), "{table}");
    }

    /// Event-kernel, engine, attribution and DAG rows at 1 000 per
    /// second, the planner at 100 plans/sec, re-share rows at the given
    /// rates.
    fn kernel_rows(reshare_l256: f64, reshare_l1024: f64) -> Vec<KernelSample> {
        [
            ("hold", 1_000.0),
            ("cancel_half", 1_000.0),
            ("drain", 1_000.0),
            ("reshare_l64", 4_000.0),
            ("reshare_l256", reshare_l256),
            ("reshare_l1024", reshare_l1024),
            ("sim_oneport", 1_000.0),
            ("sim_wide_oneport", 4_000.0),
            ("sim_multiport", 1_000.0),
            ("het_plan", 100.0),
            ("attr", 1_000.0),
            ("dag_dispatch_n8", 1_000.0),
            ("dag_dispatch", 1_000.0),
        ]
        .iter()
        .map(|&(w, events_per_sec)| KernelSample {
            workload: w.to_string(),
            events: 1_000,
            events_per_sec,
            heap_high_water: 64,
            cancelled: 0,
            wall_secs: 1.0,
        })
        .collect()
    }

    fn baseline(cancel_half: f64, reshare_l256: f64, gemm_q80: f64) -> String {
        format!(
            r#"{{"hold": 1000.0, "cancel_half": {cancel_half}, "drain": 1000.0,
                "reshare_l64": 4000.0, "reshare_l256": {reshare_l256}, "reshare_l1024": 200.0,
                "sim_oneport": 1000.0, "sim_multiport": 1000.0, "het_plan": 100.0,
                "attr": 1000.0, "dag_dispatch": 1000.0,
                "gemm_q32": 10.0, "gemm_q80": {gemm_q80}, "gemm_q100": 10.0}}"#
        )
    }

    #[test]
    fn kernel_baseline_gate_passes_floor_and_fails_regression() {
        let samples = kernel_rows(1_000.0, 200.0);
        let gemm = gemm_rows(10.0);
        // At the committed level and 20 % below: ok. Below the floor: err.
        let report =
            check_kernel_baseline(&baseline(1000.0, 1000.0, 10.0), &samples, &gemm).unwrap();
        assert!(report.contains("gemm_q100 10.00 GFLOP/s"), "{report}");
        assert!(
            report.contains("reshare_l256 1000 re-shares/sec"),
            "{report}"
        );
        assert!(report.contains("1024 / 256 lanes 5.0x"), "{report}");
        assert!(
            report.contains("lu_dag(16) / lu_dag(8) 1.00 >= 0.5"),
            "{report}"
        );
        assert!(
            report.contains("multi-port / one-port 0.25 >= 0.15"),
            "{report}"
        );
        assert!(check_kernel_baseline(&baseline(1200.0, 1200.0, 12.0), &samples, &gemm).is_ok());
        let err =
            check_kernel_baseline(&baseline(2000.0, 1000.0, 10.0), &samples, &gemm).unwrap_err();
        assert!(err.contains("cancel_half"), "{err}");
        assert!(err.contains("80%"), "{err}");
        let err =
            check_kernel_baseline(&baseline(1000.0, 2000.0, 10.0), &samples, &gemm).unwrap_err();
        assert!(
            err.contains("reshare_l256 delivers 1000 re-shares/sec"),
            "{err}"
        );
        let err =
            check_kernel_baseline(&baseline(1000.0, 1000.0, 20.0), &samples, &gemm).unwrap_err();
        assert!(err.contains("gemm_q80 delivers 10.00 GFLOP/s"), "{err}");
        assert!(err.contains("80%"), "{err}");
        // The engine, the planner, attribution and the DAG dispatcher are
        // gated like the queue under them: a doctored sample below 80 %
        // of its row trips it by name.
        for (row, rate, said) in [
            ("sim_oneport", 700.0, "sim_oneport delivers 700 events/sec"),
            (
                "sim_multiport",
                790.0,
                "sim_multiport delivers 790 events/sec",
            ),
            ("het_plan", 79.9, "het_plan delivers 79.9 plans/sec"),
            ("attr", 799.0, "attr delivers 799 events/sec"),
            ("dag_dispatch", 600.0, "dag_dispatch delivers 600 tasks/sec"),
        ] {
            let mut slow = samples.clone();
            let s = slow.iter_mut().find(|s| s.workload == row).unwrap();
            s.events_per_sec = rate;
            let err =
                check_kernel_baseline(&baseline(1000.0, 1000.0, 10.0), &slow, &gemm).unwrap_err();
            assert!(err.contains(said), "{err}");
        }
        // An upper-case exponent is still the whole number (2E6, not 2).
        let big = baseline(1000.0, 1000.0, 10.0).replace("\"hold\": 1000.0", "\"hold\": 2E6");
        let err = check_kernel_baseline(&big, &samples, &gemm).unwrap_err();
        assert!(
            err.contains("hold") && err.contains("floor 1600000"),
            "{err}"
        );
        // A measured row missing from the run is an error, not a pass.
        let err =
            check_kernel_baseline(&baseline(1000.0, 1000.0, 10.0), &samples, &[]).unwrap_err();
        assert!(err.contains("no gemm_q32 sample"), "{err}");
    }

    /// The scaling gate needs no baseline: every row clears its floor,
    /// but 1 024 lanes cost 28 times 256 lanes — the quadratic routine's
    /// signature on any machine.
    #[test]
    fn kernel_baseline_gate_trips_on_quadratic_reshare_scaling() {
        let quadratic = kernel_rows(5_600.0, 200.0);
        let err = check_kernel_baseline(
            &baseline(1000.0, 1000.0, 10.0),
            &quadratic,
            &gemm_rows(10.0),
        )
        .unwrap_err();
        assert!(err.contains("costs 28.0x one at 256"), "{err}");
        assert!(err.contains("limit is 10x"), "{err}");
    }

    /// Likewise for the DAG dispatcher: the larger graph clears its
    /// floor, but runs at 0.28 of the smaller one's tasks/sec — a
    /// dispatcher that rescans the task table on every decision.
    #[test]
    fn kernel_baseline_gate_trips_on_a_dispatcher_that_scales_with_the_task_table() {
        let mut scanning = kernel_rows(1_000.0, 200.0);
        let small = scanning
            .iter_mut()
            .find(|s| s.workload == "dag_dispatch_n8")
            .unwrap();
        small.events_per_sec = 1_000.0 / 0.28;
        let err =
            check_kernel_baseline(&baseline(1000.0, 1000.0, 10.0), &scanning, &gemm_rows(10.0))
                .unwrap_err();
        assert!(err.contains("keeps 0.28 of its tasks/sec"), "{err}");
        assert!(err.contains("limit is 0.5"), "{err}");
    }

    /// And for the transfer clock: the multi-port row clears its floor,
    /// but keeps a tenth of the one-port rate — an engine that re-arms a
    /// kernel event per re-shared lane.
    #[test]
    fn kernel_baseline_gate_trips_on_an_engine_that_rearms_every_reshared_lane() {
        let mut rearming = kernel_rows(1_000.0, 200.0);
        let alone = rearming
            .iter_mut()
            .find(|s| s.workload == "sim_wide_oneport")
            .unwrap();
        alone.events_per_sec = 10_000.0;
        let err =
            check_kernel_baseline(&baseline(1000.0, 1000.0, 10.0), &rearming, &gemm_rows(10.0))
                .unwrap_err();
        assert!(
            err.contains("keeps 0.10 of its one-port events/sec"),
            "{err}"
        );
        assert!(err.contains("limit is 0.15"), "{err}");
    }

    #[test]
    fn kernel_baseline_gate_names_the_expected_schema() {
        let err = check_kernel_baseline(r#"{"hold": 1.0}"#, &[], &[]).unwrap_err();
        assert!(err.contains("cancel_half"), "{err}");
        assert!(err.contains("expected"), "{err}");
        assert!(err.contains("drain"), "{err}");
        // The pre-reshare baseline file is a schema error too.
        let old = r#"{"hold": 1.0, "cancel_half": 1.0, "drain": 1.0,
                      "gemm_q32": 1.0, "gemm_q80": 1.0, "gemm_q100": 1.0}"#;
        let err = check_kernel_baseline(old, &[], &[]).unwrap_err();
        assert!(err.contains("no \"reshare_l64\" field (expected"), "{err}");
    }

    #[test]
    fn kernel_table_lists_every_workload() {
        let table = render_kernel_table(&kernel_trajectory(64, 200));
        assert!(table.contains("hold"));
        assert!(table.contains("cancel_half"));
        assert!(table.contains("drain"));
        assert!(table.contains("reshare_l64") && table.contains("reshare_l1024"));
        assert!(table.contains("sim_oneport") && table.contains("het_plan"));
        assert!(table.contains("sim_wide_oneport") && table.contains("sim_multiport"));
        assert!(table.contains("attr") && table.contains("dag_dispatch_n8"));
    }
}
