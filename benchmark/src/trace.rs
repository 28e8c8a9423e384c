//! Outside-in tracing: spans around calls into the repo's public layer
//! functions, a timing wrapper around the `MasterPolicy` handed to an
//! engine, per-pass counters, and a counting allocator.
//!
//! The benchmark may not be edited by later PRs, so nothing here lives
//! inside the program under test: a [`Tracer`] only brackets calls made
//! *from* the benchmark, and [`TimingPolicy`] splits an engine span into
//! engine self time and master time by timing the two trait methods the
//! engine calls back. When the tracer is off every helper degenerates to
//! a plain call — the untraced passes the end-to-end metrics come from
//! pay one branch per span site, and per engine callback a forwarding
//! call and a counter increment, never a clock read.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::surface::{
    Action, ChunkGeom, ChunkId, GeometryAccess, Job, MasterPolicy, SimCtx, SimEvent,
};

/// One layer of the repo (crate name), plus the harness itself.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    Platform,
    Lp,
    Core,
    Sim,
    Stream,
    Dag,
    Dyn,
    Net,
    Linalg,
    Obs,
    Bench,
}

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Platform => "platform",
            Layer::Lp => "lp",
            Layer::Core => "core",
            Layer::Sim => "sim",
            Layer::Stream => "stream",
            Layer::Dag => "dag",
            Layer::Dyn => "dyn",
            Layer::Net => "net",
            Layer::Linalg => "linalg",
            Layer::Obs => "obs",
            Layer::Bench => "bench",
        }
    }
}

/// One recorded interval. Times are nanoseconds since the tracer's
/// epoch.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub layer: Layer,
    /// The cell (one op) the span belongs to — the shared identifier of
    /// every span caused by one request.
    pub cell: u32,
    /// Index of the enclosing span in the same trace.
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// `true` for the synthetic child that carries the *summed* time of
    /// the engine's callbacks into a master policy (one span per
    /// callback would be millions per pass).
    pub aggregated: bool,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Self time of every span: its duration minus the part its direct
/// children cover (children never overlap one another here — the
/// harness is single-threaded — so that part is the sum of their
/// durations, clamped to the parent).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            covered[p as usize] += s.dur_ns();
        }
    }
    spans
        .iter()
        .zip(&covered)
        .map(|(s, &c)| s.dur_ns().saturating_sub(c))
        .collect()
}

/// Span recorder and per-pass counter bag. See the module docs.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    cell: u32,
    counts: BTreeMap<&'static str, f64>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            cell: 0,
            counts: BTreeMap::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Sets the cell id stamped on subsequent spans.
    pub fn set_cell(&mut self, cell: u32) {
        self.cell = cell;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open(&mut self, layer: Layer, name: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            layer,
            cell: self.cell,
            parent: None,
            start_ns,
            end_ns: start_ns,
            aggregated: false,
        });
        id
    }

    fn close(&mut self, id: u32) {
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Runs `f` — one call into a public layer function — inside a
    /// span (a plain call when the tracer is off). The calls the
    /// benchmark makes do not nest; the one parent/child relation is an
    /// engine span and its master time ([`Tracer::engine`]).
    pub fn span<T>(&mut self, layer: Layer, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let id = self.open(layer, name);
        let out = f();
        self.close(id);
        out
    }

    /// Runs an engine (`run` receives the policy to hand it) inside a
    /// span of `engine` layer. When tracing, the policy is wrapped in a
    /// [`TimingPolicy`]: its summed callback time becomes an aggregated
    /// child span of `master` layer — so the engine span's self time is
    /// the engine's own — and its exact callback counts are added to the
    /// `<engine>.events` and `<master>.decisions` counters.
    pub fn engine<P: ?Sized, T>(
        &mut self,
        engine: Layer,
        name: &'static str,
        master: Layer,
        policy: &mut P,
        run: impl FnOnce(&mut TimingPolicy<'_, P>) -> T,
    ) -> T {
        let mut wrapped = TimingPolicy::new(policy, self.on);
        if !self.on {
            return run(&mut wrapped);
        }
        let id = self.open(engine, name);
        let out = run(&mut wrapped);
        self.close(id);
        let start_ns = self.spans[id as usize].start_ns;
        self.spans.push(Span {
            name: "master",
            layer: master,
            cell: self.cell,
            parent: Some(id),
            start_ns,
            end_ns: start_ns + wrapped.busy.as_nanos() as u64,
            aggregated: true,
        });
        let (events, decisions) = (wrapped.events + wrapped.actions, wrapped.actions);
        self.count(events_counter(engine), events as f64);
        self.count(decisions_counter(master), decisions as f64);
        out
    }

    /// Adds to a per-pass counter (no-op when the tracer is off).
    pub fn count(&mut self, name: &'static str, by: f64) {
        if self.on {
            *self.counts.entry(name).or_insert(0.0) += by;
        }
    }

    /// Raises a per-pass high-water counter.
    pub fn count_max(&mut self, name: &'static str, value: f64) {
        if self.on {
            let slot = self.counts.entry(name).or_insert(0.0);
            *slot = slot.max(value);
        }
    }

    /// Ends the pass: returns its spans and counters, leaving the
    /// tracer empty for the next one.
    pub fn take(&mut self) -> (Vec<Span>, BTreeMap<&'static str, f64>) {
        (
            std::mem::take(&mut self.spans),
            std::mem::take(&mut self.counts),
        )
    }
}

fn events_counter(engine: Layer) -> &'static str {
    match engine {
        Layer::Net => "net.events",
        _ => "sim.events",
    }
}

fn decisions_counter(master: Layer) -> &'static str {
    match master {
        Layer::Stream => "stream.decisions",
        Layer::Dag => "dag.decisions",
        Layer::Dyn => "dyn.decisions",
        _ => "core.decisions",
    }
}

/// One callback in `SAMPLE_EVERY` (on average) is timed. An engine makes
/// millions of callbacks of ~30 ns per pass; reading the clock twice
/// around each one costs more than the callbacks themselves (+45 % wall
/// on `paper_sweep`), which would distort the very split being measured.
const SAMPLE_EVERY: u32 = 8;

/// A transparent wrapper around the policy handed to an engine: counts
/// the conversation exactly (non-`Wait` actions issued, events
/// delivered) and, when `timed`, estimates the wall time spent inside
/// the policy's two callbacks from a pseudo-random sample of them
/// (random rather than every n-th, so a periodic send/send/compute
/// pattern cannot alias with the sampling).
pub struct TimingPolicy<'a, P: ?Sized> {
    inner: &'a mut P,
    timed: bool,
    /// xorshift32 state of the sampler.
    rng: u32,
    /// Non-`Wait` actions issued by the policy.
    pub actions: u64,
    /// Engine events delivered to the policy.
    pub events: u64,
    /// Estimated wall time inside `next_action` + `on_event` (zero
    /// unless timed).
    pub busy: Duration,
}

impl<'a, P: ?Sized> TimingPolicy<'a, P> {
    pub fn new(inner: &'a mut P, timed: bool) -> Self {
        TimingPolicy {
            inner,
            timed,
            rng: 0x9e37_79b9,
            actions: 0,
            events: 0,
            busy: Duration::ZERO,
        }
    }

    /// Whether to time the next callback.
    fn sample(&mut self) -> bool {
        if !self.timed {
            return false;
        }
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 17;
        self.rng ^= self.rng << 5;
        self.rng.is_multiple_of(SAMPLE_EVERY)
    }
}

impl<P: MasterPolicy + ?Sized> MasterPolicy for TimingPolicy<'_, P> {
    fn next_action(&mut self, ctx: &SimCtx) -> Action {
        let action = if self.sample() {
            let t0 = Instant::now();
            let a = self.inner.next_action(ctx);
            self.busy += t0.elapsed() * SAMPLE_EVERY;
            a
        } else {
            self.inner.next_action(ctx)
        };
        if !matches!(action, Action::Wait) {
            self.actions += 1;
        }
        action
    }

    fn on_event(&mut self, ev: &SimEvent, ctx: &SimCtx) {
        self.events += 1;
        if self.sample() {
            let t0 = Instant::now();
            self.inner.on_event(ev, ctx);
            self.busy += t0.elapsed() * SAMPLE_EVERY;
        } else {
            self.inner.on_event(ev, ctx);
        }
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

impl<P: GeometryAccess + ?Sized> GeometryAccess for TimingPolicy<'_, P> {
    fn chunk_geom(&self, id: ChunkId) -> Option<ChunkGeom> {
        self.inner.chunk_geom(id)
    }

    fn job_dims(&self) -> Job {
        self.inner.job_dims()
    }
}

// --- counting allocator -------------------------------------------------

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

/// The process allocator: `System`, plus exact allocation and byte
/// counts while a traced pass has switched counting on (one relaxed
/// load per allocation otherwise).
pub struct CountingAlloc;

// SAFETY: every method forwards to `System` with the caller's own
// arguments and only updates atomics besides, so `System`'s guarantees
// carry over unchanged.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

fn note(size: usize) {
    // Relaxed: these are statistics, they publish no other data.
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(size as u64, Ordering::Relaxed);
    }
}

/// Runs `f` with allocation counting on; returns its result with the
/// `(allocations, bytes)` it made.
pub fn counting_allocs<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let (a0, b0) = (
        ALLOCS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    );
    COUNTING.store(true, Ordering::Relaxed);
    let out = f();
    COUNTING.store(false, Ordering::Relaxed);
    (
        out,
        ALLOCS.load(Ordering::Relaxed) - a0,
        ALLOC_BYTES.load(Ordering::Relaxed) - b0,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture(parent: Option<u32>, start: u64, end: u64) -> Span {
        Span {
            name: "s",
            layer: Layer::Bench,
            cell: 0,
            parent,
            start_ns: start,
            end_ns: end,
            aggregated: false,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root [0,100) ⊃ a [10,40) ⊃ a1 [15,25); root ⊃ b [50,90).
        let spans = vec![
            fixture(None, 0, 100),
            fixture(Some(0), 10, 40),
            fixture(Some(1), 15, 25),
            fixture(Some(0), 50, 90),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 20, 10, 40]);
        // Self times of a proper nest sum to the root's duration.
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn self_time_clamps_an_overlong_aggregate() {
        // An aggregated child measured a hair longer than its parent
        // (clock granularity) must not underflow the parent.
        let spans = vec![fixture(None, 0, 10), fixture(Some(0), 0, 12)];
        assert_eq!(self_times_ns(&spans), vec![0, 12]);
    }

    #[test]
    fn tracer_records_spans_and_stamps_cells() {
        let mut t = Tracer::new(true);
        t.set_cell(7);
        let v = t.span(Layer::Core, "first", || 41) + t.span(Layer::Sim, "second", || 1);
        assert_eq!(v, 42);
        t.count("x", 2.0);
        t.count("x", 3.0);
        t.count_max("m", 4.0);
        t.count_max("m", 1.0);
        let (spans, counts) = t.take();
        assert_eq!(spans.len(), 2);
        assert_eq!(
            (spans[0].name, spans[0].parent, spans[0].cell),
            ("first", None, 7)
        );
        assert_eq!((spans[1].name, spans[1].layer), ("second", Layer::Sim));
        assert!(spans[0].end_ns <= spans[1].start_ns);
        assert_eq!((counts["x"], counts["m"]), (5.0, 4.0));
        assert!(t.take().0.is_empty());
    }

    #[test]
    fn engine_span_carries_its_master_time_as_an_aggregated_child() {
        let mut t = Tracer::new(true);
        t.engine(Layer::Sim, "run", Layer::Stream, &mut 0u8, |p| {
            // What the wrapper would have counted and timed.
            (p.actions, p.events) = (3, 4);
            p.busy = Duration::from_nanos(1);
        });
        let (spans, counts) = t.take();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].layer, spans[0].aggregated), (Layer::Sim, false));
        assert_eq!((spans[1].layer, spans[1].parent), (Layer::Stream, Some(0)));
        assert!(spans[1].aggregated && spans[1].dur_ns() == 1);
        assert_eq!(
            (counts["sim.events"], counts["stream.decisions"]),
            (7.0, 3.0)
        );
    }

    #[test]
    fn tracer_off_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span(Layer::Core, "s", || 3), 3);
        let ran = t.engine(Layer::Sim, "run", Layer::Core, &mut 0u8, |p| p.actions);
        assert_eq!(ran, 0);
        t.count("x", 1.0);
        let (spans, counts) = t.take();
        assert!(spans.is_empty() && counts.is_empty());
    }

    #[test]
    fn counting_allocs_sees_an_allocation() {
        // The counters are only live when this allocator is the global
        // one (main.rs installs it; the test harness shares the crate).
        let (v, allocs, bytes) = counting_allocs(|| vec![0u8; 4096]);
        assert_eq!(v.len(), 4096);
        assert!(
            allocs >= 1 && bytes >= 4096,
            "{allocs} allocs, {bytes} bytes"
        );
    }
}
