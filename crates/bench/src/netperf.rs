//! The net-engine perf trajectory behind `BENCH_net.json`.
//!
//! Same philosophy as [`crate::perf`]: one module owns the workloads so
//! the CI artifact writer (`exp_perf`) and any future bench measure the
//! same code. Three things are pinned here:
//!
//! * **engine throughput** — policy-visible events per wall second on a
//!   uniform star, up the reactor's scaling curve from 256 to 2048
//!   workers;
//! * **heap high-water** — peak live bytes during each run, via the
//!   [`CountingAlloc`] the `exp_perf` binary installs as its global
//!   allocator;
//! * **netmodel steady state** — the lane re-share hot path
//!   (`maxmin_shares_into` through a warm [`ShareScratch`]) must not
//!   allocate at all once warm.
//!
//! The committed baseline (`ci/BENCH_net_baseline.json`) gates CI: the
//! reactor's 256-worker events/sec must stay within 20 % of it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::json::{self, Value};
use serde::Serialize;
use stargemm_core::algorithms::{build_policy, Algorithm};
use stargemm_core::geometry::ChunkGeom;
use stargemm_core::stream::GeometryAccess;
use stargemm_core::Job;
use stargemm_linalg::BlockMatrix;
use stargemm_net::{NetOptions, NetRuntime};
use stargemm_netmodel::{maxmin_shares_into, ShareScratch, TransferLane};
use stargemm_platform::{Platform, WorkerSpec};
use stargemm_sim::{Action, ChunkId, MasterPolicy, SimCtx, SimEvent};

// Allocation counters live in statics (not in the allocator instance)
// so library code can read them regardless of which binary registered
// the [`CountingAlloc`]. In binaries that do not install it, every
// reading stays zero and the heap columns degrade gracefully.
static TOTAL_ALLOCATED: AtomicU64 = AtomicU64::new(0);
static TOTAL_ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
static HIGH_WATER: AtomicUsize = AtomicUsize::new(0);

/// A [`System`]-backed global allocator that tracks cumulative
/// allocated bytes and allocation calls, live bytes, and the live-byte
/// high-water mark.
///
/// Install it in a binary with
/// `#[global_allocator] static A: CountingAlloc = CountingAlloc;`.
pub struct CountingAlloc;

// A global allocator is an inherently `unsafe` trait; the impl only
// delegates to `System` and updates atomic counters, adding no new
// invariants of its own.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
            on_alloc(new_size);
        }
        p
    }
}

fn on_alloc(size: usize) {
    TOTAL_ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    TOTAL_ALLOCATED.fetch_add(size as u64, Ordering::Relaxed);
    let live = LIVE_BYTES.fetch_add(size, Ordering::Relaxed) + size;
    HIGH_WATER.fetch_max(live, Ordering::Relaxed);
}

/// Cumulative bytes ever allocated (0 unless a binary installed the
/// [`CountingAlloc`]).
pub fn total_allocated() -> u64 {
    TOTAL_ALLOCATED.load(Ordering::Relaxed)
}

/// Cumulative allocator calls that returned memory — `alloc`,
/// `alloc_zeroed` and `realloc` alike (0 unless a binary installed the
/// [`CountingAlloc`]).
pub fn total_allocations() -> u64 {
    TOTAL_ALLOCATIONS.load(Ordering::Relaxed)
}

/// Resets the high-water mark to the current live size, so the next
/// reading isolates one workload's peak.
pub fn reset_high_water() {
    HIGH_WATER.store(LIVE_BYTES.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Peak live bytes since the last [`reset_high_water`].
pub fn high_water() -> usize {
    HIGH_WATER.load(Ordering::Relaxed)
}

/// A transparent policy wrapper counting the engine conversation: how
/// many non-`Wait` actions the policy issued and how many events the
/// engine delivered back. The simulator and the net runtime speak the
/// same protocol, so the counts are comparable across them.
pub struct CountingPolicy<P> {
    inner: P,
    /// Non-`Wait` actions issued (sends + retrieves + completions).
    pub actions: u64,
    /// Engine events delivered to the policy.
    pub events: u64,
}

impl<P> CountingPolicy<P> {
    /// Wraps a policy with zeroed counters.
    pub fn new(inner: P) -> Self {
        CountingPolicy {
            inner,
            actions: 0,
            events: 0,
        }
    }
}

impl<P: MasterPolicy> MasterPolicy for CountingPolicy<P> {
    fn next_action(&mut self, ctx: &SimCtx) -> Action {
        let a = self.inner.next_action(ctx);
        if !matches!(a, Action::Wait) {
            self.actions += 1;
        }
        a
    }

    fn on_event(&mut self, ev: &SimEvent, ctx: &SimCtx) {
        self.events += 1;
        self.inner.on_event(ev, ctx);
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

impl<P: GeometryAccess> GeometryAccess for CountingPolicy<P> {
    fn chunk_geom(&self, id: ChunkId) -> Option<ChunkGeom> {
        self.inner.chunk_geom(id)
    }

    fn job_dims(&self) -> Job {
        self.inner.job_dims()
    }
}

/// The worker-scaling scenario: a uniform star of `workers` identical
/// workers and a thin C (4 block-rows, one step) wide enough to give
/// every worker column strips to chew through. `q = 2` keeps the
/// payloads and the real GEMM negligible — the run measures the engine,
/// not the kernel.
pub fn net_scenario(workers: usize) -> (Platform, Job) {
    let spec = WorkerSpec::new(1e-5, 1e-6, 64);
    let platform = Platform::homogeneous(format!("net{workers}"), workers, spec);
    // ODDOML carves 4-column strips here, so 4·workers columns puts one
    // chunk on every worker of the star.
    let job = Job::new(4, 1, 4 * workers.max(2), 2);
    (platform, job)
}

/// One row of the net trajectory.
#[derive(Clone, Debug, Serialize)]
pub struct NetPerfSample {
    /// Star width.
    pub workers: usize,
    /// Chunks processed by the run.
    pub chunks: u64,
    /// Engine events delivered to the policy.
    pub events: u64,
    /// Events per wall-clock second — the headline throughput.
    pub events_per_sec: f64,
    /// Wall-clock seconds for the run.
    pub wall_secs: f64,
    /// Peak live heap bytes during the run (0 without the counting
    /// allocator installed).
    pub heap_high_water: u64,
}

/// Runs the scaling scenario at one star width and samples it.
pub fn run_net_sample(workers: usize) -> NetPerfSample {
    let (platform, job) = net_scenario(workers);
    let mut policy = CountingPolicy::new(build_policy(&platform, &job, Algorithm::Oddoml).unwrap());
    let mut rng = StdRng::seed_from_u64(0xBE7);
    let a = BlockMatrix::random(job.r, job.t, job.q, &mut rng);
    let b = BlockMatrix::random(job.t, job.s, job.q, &mut rng);
    let mut c = BlockMatrix::random(job.r, job.s, job.q, &mut rng);
    let rt = NetRuntime::new(platform).with_options(NetOptions {
        time_scale: 1e-7,
        idle_timeout: Duration::from_secs(120),
        ..Default::default()
    });
    reset_high_water();
    let t0 = Instant::now();
    let stats = rt.run(&mut policy, &a, &b, &mut c).expect("net sample run");
    let wall_secs = t0.elapsed().as_secs_f64();
    NetPerfSample {
        workers,
        chunks: stats.chunks,
        events: policy.events,
        events_per_sec: if wall_secs > 0.0 {
            policy.events as f64 / wall_secs
        } else {
            0.0
        },
        wall_secs,
        heap_high_water: high_water() as u64,
    }
}

/// The `BENCH_net.json` sample set: the reactor's scaling curve.
pub fn net_trajectory() -> Vec<NetPerfSample> {
    [256, 512, 1024, 2048].map(run_net_sample).into()
}

/// Bytes allocated by the netmodel re-share hot path *after* warm-up:
/// `rounds` full share resolutions over `lanes` active lanes through
/// one warm [`ShareScratch`]. The scratch-arena contract says this is
/// zero; `exp_perf` asserts it.
pub fn netmodel_steady_state_bytes(lanes: usize, rounds: usize) -> u64 {
    let active: Vec<TransferLane> = (0..lanes)
        .map(|i| TransferLane {
            worker: i / 2,
            link_rate: 1.0 / (1.0 + i as f64),
        })
        .collect();
    let mut scratch = ShareScratch::new();
    // Warm-up: size every internal buffer to the working set.
    maxmin_shares_into(&active, 0.75, &mut scratch);
    let before = total_allocated();
    for r in 0..rounds {
        let backbone = 0.5 + 0.5 / (1 + r) as f64;
        maxmin_shares_into(&active, backbone, &mut scratch);
        std::hint::black_box(scratch.shares().len());
    }
    total_allocated() - before
}

/// Renders the `BENCH_net.json` artifact.
pub fn net_report_json(samples: &[NetPerfSample], netmodel_steady_bytes: u64) -> String {
    Value::object([
        ("experiment", "netperf".to_value()),
        (
            "netmodel_steady_state_bytes",
            netmodel_steady_bytes.to_value(),
        ),
        ("samples", samples.to_value()),
    ])
    .render_pretty()
}

/// Aligned text table over the net samples.
pub fn render_net_table(samples: &[NetPerfSample]) -> String {
    let mut out = format!(
        "{:<9}{:>9}{:>9}{:>14}{:>10}{:>14}\n",
        "workers", "chunks", "events", "events/sec", "wall s", "heap hw"
    );
    for s in samples {
        out.push_str(&format!(
            "{:<9}{:>9}{:>9}{:>14.0}{:>10.3}{:>14}\n",
            s.workers, s.chunks, s.events, s.events_per_sec, s.wall_secs, s.heap_high_water
        ));
    }
    out
}

/// Parses a committed baseline document (`ci/BENCH_*_baseline.json`);
/// `schema` is quoted in the error so a malformed file explains itself.
pub(crate) fn parse_baseline(baseline_json: &str, schema: &str) -> Result<Value, String> {
    json::from_str(baseline_json)
        .map_err(|e| format!("baseline is not valid JSON: {e} (expected {schema})"))
}

/// A top-level numeric field of a parsed baseline document.
pub(crate) fn baseline_number(doc: &Value, key: &str, schema: &str) -> Result<f64, String> {
    doc.get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("baseline has no \"{key}\" field (expected {schema})"))
}

/// The shape of `ci/BENCH_net_baseline.json`, for error messages.
pub const NET_BASELINE_SCHEMA: &str = "{\"workers\": <n>, \"events_per_sec\": <events/sec>}";

/// The CI regression gate: the sample at the baseline's worker count
/// must reach at least 80 % of the committed events/sec. Returns a
/// human-readable error when it does not (or when the baseline or the
/// matching sample is missing — a silently green gate is no gate).
pub fn check_net_baseline(
    baseline_json: &str,
    samples: &[NetPerfSample],
) -> Result<String, String> {
    let doc = parse_baseline(baseline_json, NET_BASELINE_SCHEMA)?;
    let workers = baseline_number(&doc, "workers", NET_BASELINE_SCHEMA)? as usize;
    let base = baseline_number(&doc, "events_per_sec", NET_BASELINE_SCHEMA)?;
    let sample = samples
        .iter()
        .find(|s| s.workers == workers)
        .ok_or_else(|| format!("no sample at {workers} workers to gate against"))?;
    let floor = 0.8 * base;
    if sample.events_per_sec < floor {
        return Err(format!(
            "net perf regression: reactor@{workers} delivers {:.0} events/sec, \
             below 80% of the committed baseline {base:.0} (floor {floor:.0})",
            sample.events_per_sec
        ));
    }
    Ok(format!(
        "net baseline gate ok: reactor@{workers} {:.0} events/sec >= floor {floor:.0}",
        sample.events_per_sec
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_scenario_completes_and_counts_events() {
        let s = run_net_sample(8);
        assert!(s.chunks > 0, "processed no chunks");
        assert!(s.events > 0, "delivered no events");
        assert!(s.events_per_sec > 0.0);
    }

    #[test]
    fn netmodel_steady_state_is_allocation_free() {
        // Without the counting allocator installed (unit tests use the
        // system allocator) the reading is trivially zero; under
        // exp_perf it is the real assertion. Either way the call must
        // not panic and must report zero here.
        assert_eq!(netmodel_steady_state_bytes(64, 100), 0);
    }

    fn sample(workers: usize, events_per_sec: f64) -> NetPerfSample {
        NetPerfSample {
            workers,
            chunks: 10,
            events: 100,
            events_per_sec,
            wall_secs: 0.1,
            heap_high_water: 0,
        }
    }

    #[test]
    fn baseline_gate_trips_on_a_regression_and_passes_at_par() {
        let sample = sample(256, 1000.0);
        let base = "{ \"workers\": 256, \"events_per_sec\": 1000.0 }";
        assert!(check_net_baseline(base, std::slice::from_ref(&sample)).is_ok());
        let hot = "{ \"workers\": 256, \"events_per_sec\": 1200.0 }";
        assert!(check_net_baseline(hot, std::slice::from_ref(&sample)).is_ok());
        let far = "{ \"workers\": 256, \"events_per_sec\": 2000.0 }";
        assert!(check_net_baseline(far, std::slice::from_ref(&sample)).is_err());
        assert!(
            check_net_baseline(base, &[]).is_err(),
            "missing sample must fail"
        );
        let err = check_net_baseline("{}", std::slice::from_ref(&sample)).unwrap_err();
        assert!(err.contains("no \"workers\" field (expected"), "{err}");
        let err = check_net_baseline("{ \"workers\": 256,", &[sample]).unwrap_err();
        assert!(err.contains("not valid JSON"), "{err}");
    }

    /// The baseline is read as JSON, not scanned as text: an upper-case
    /// exponent is part of the number, and only top-level keys count.
    #[test]
    fn baseline_reader_takes_exponents_and_ignores_nested_decoys() {
        let base = r#"{
            "history": { "workers": 8, "events_per_sec": 1.0 },
            "workers": 256,
            "events_per_sec": 2E6
        }"#;
        // A healthy 8-worker sample must not stand in for the slow
        // 256-worker one, and the floor is 1.6M events/sec, not 1.6.
        let err = check_net_baseline(base, &[sample(8, 1e9), sample(256, 1000.0)]).unwrap_err();
        assert!(err.contains("reactor@256"), "{err}");
        assert!(err.contains("floor 1600000"), "{err}");
    }
}
