//! Post-run critical-path attribution: explain every model-second of
//! makespan.
//!
//! The bound-gap metrics ([`crate::runmetrics`]) *measure* how far a run
//! sits from its steady-state LP bound; this module *explains* the gap.
//! From a recorded [`ObsEvent`] log it
//!
//! 1. takes the run's resource intervals from [`spans`] (port
//!    transfers, compute steps, federated uplink shipments, memory
//!    stalls, worker downtime, job presence) and clamps them into
//!    `[0, makespan]`,
//! 2. sweeps the model-time axis once — one merge over the interval
//!    begins, the interval ends and the markers, each in time order —
//!    classifying every instant into exactly one of eight categories by
//!    resource priority, and
//! 3. walks the wait-for chain backwards from the last-finishing
//!    interval to extract the run's *actual* critical path.
//!
//! The category breakdown is **conserved**: the eight categories sum
//! *bit-exactly* to the makespan ([`Attribution::is_conserved`] is a
//! hard invariant, enforced by construction and pinned by proptests).
//! Conservation is what makes differential attribution sound — a
//! makespan delta between two runs is exactly the sum of the per-
//! category deltas ([`Attribution::diff`]).
//!
//! ## Categories
//!
//! | category       | an instant lands here when…                          |
//! |----------------|------------------------------------------------------|
//! | `port_busy`    | a port lane is transferring (highest priority)       |
//! | `compute`      | no transfer, but a worker is computing               |
//! | `uplink_wait`  | only a federated uplink shipment is in flight, or    |
//! |                | the star is empty and a shipment is still queued     |
//! | `memory_stall` | admission/promotion is blocked on worker memory      |
//! | `crash_rework` | every active transfer/step was later lost to a       |
//! |                | crash, or work is pending while a worker is down     |
//! | `port_idle`    | work is pending, nothing runs, and the next activity |
//! |                | is a port transfer (the port *could* have started)   |
//! | `master_gap`   | work is pending, nothing runs, next activity is not  |
//! |                | a transfer (decision/dependency latency)             |
//! | `idle_no_work` | no job in the system and nothing queued              |
//!
//! Priority (top wins) resolves overlaps, so the categories partition
//! the `[0, makespan]` axis. `port_busy` therefore equals the *union*
//! occupancy of the port — on a one-port run this is the same port-busy
//! time the bound-gap port metric is built from.
//!
//! The folded-stacks export ([`Attribution::folded_stacks`]) is a
//! flamegraph view (`category;worker:w;chunk:c <µs>`): activity
//! categories are broken down per interval (parallel work double-counts
//! there, as in any multi-thread flamegraph), gap categories carry the
//! conserved timeline seconds. The profile keeps one small `Copy` frame
//! per interval; the stacks are rendered to text only when the export
//! is asked for.

use serde::json::Value;
use serde::Serialize;

use crate::event::ObsEvent;
use crate::span::{spans, Span, Track};

/// Number of attribution categories.
pub const CATEGORY_COUNT: usize = 8;

/// Category names, in the fixed order used everywhere (summation order,
/// JSON field order, table order).
pub const CATEGORY_NAMES: [&str; CATEGORY_COUNT] = [
    "port_busy",
    "port_idle",
    "uplink_wait",
    "compute",
    "memory_stall",
    "master_gap",
    "crash_rework",
    "idle_no_work",
];

/// The conserved makespan decomposition (all model seconds).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Categories {
    /// A port lane was transferring.
    pub port_busy: f64,
    /// Pending work, idle resources, next activity is a transfer.
    pub port_idle: f64,
    /// Federated uplink shipment in flight (or queued while the star
    /// is otherwise empty).
    pub uplink_wait: f64,
    /// Worker compute with no concurrent transfer.
    pub compute: f64,
    /// Admission/promotion blocked on worker memory.
    pub memory_stall: f64,
    /// Pending work, idle resources, next activity is not a transfer.
    pub master_gap: f64,
    /// Time spent on work later lost to a crash, or waiting out a
    /// crash.
    pub crash_rework: f64,
    /// No job in the system.
    pub idle_no_work: f64,
}

impl Categories {
    /// The categories as an array in [`CATEGORY_NAMES`] order.
    pub fn as_array(&self) -> [f64; CATEGORY_COUNT] {
        [
            self.port_busy,
            self.port_idle,
            self.uplink_wait,
            self.compute,
            self.memory_stall,
            self.master_gap,
            self.crash_rework,
            self.idle_no_work,
        ]
    }

    fn get(&self, i: usize) -> f64 {
        self.as_array()[i]
    }

    fn add(&mut self, i: usize, dt: f64) {
        *self.slot(i) += dt;
    }

    fn slot(&mut self, i: usize) -> &mut f64 {
        match i {
            0 => &mut self.port_busy,
            1 => &mut self.port_idle,
            2 => &mut self.uplink_wait,
            3 => &mut self.compute,
            4 => &mut self.memory_stall,
            5 => &mut self.master_gap,
            6 => &mut self.crash_rework,
            7 => &mut self.idle_no_work,
            _ => unreachable!("category index out of range"),
        }
    }

    /// Left-to-right sum in the fixed category order. Conservation is
    /// stated against exactly this summation order.
    pub fn total(&self) -> f64 {
        self.as_array().iter().sum()
    }
}

impl Serialize for Categories {
    fn to_value(&self) -> Value {
        Value::Object(
            CATEGORY_NAMES
                .iter()
                .zip(self.as_array())
                .map(|(name, secs)| (name.to_string(), secs.to_value()))
                .collect(),
        )
    }
}

/// Summary of the run's actual critical path: the backward wait-for
/// chain from the last-finishing interval.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CriticalPath {
    /// Intervals on the path.
    pub steps: usize,
    /// Path seconds inside port transfers.
    pub port: f64,
    /// Path seconds inside compute steps.
    pub compute: f64,
    /// Path seconds inside uplink shipments.
    pub uplink: f64,
    /// Path seconds in the gaps between consecutive path intervals
    /// (plus lead-in from 0 and tail-out to makespan).
    pub wait: f64,
}

impl Serialize for CriticalPath {
    fn to_value(&self) -> Value {
        Value::object([
            ("steps", (self.steps as u64).to_value()),
            ("port", self.port.to_value()),
            ("compute", self.compute.to_value()),
            ("uplink", self.uplink.to_value()),
            ("wait", self.wait.to_value()),
        ])
    }
}

/// A complete attribution profile of one recorded run.
#[derive(Clone, Debug, PartialEq)]
pub struct Attribution {
    /// The makespan the categories decompose (model seconds).
    pub makespan: f64,
    /// The conserved category breakdown.
    pub categories: Categories,
    /// Critical-path summary.
    pub critical_path: CriticalPath,
    /// Flamegraph frames (stack, seconds), one per interval plus one per
    /// gap category. Not serialized into the JSON `attribution` block;
    /// rendered by [`Attribution::folded_stacks`].
    frames: Vec<(Stack, f64)>,
}

/// The identity of one folded stack. Distinct values render to distinct
/// strings, so summing per value and then rendering gives the file that
/// rendering every frame and summing per string would.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Stack {
    /// `<category>`: a gap category's conserved timeline seconds.
    Gap(usize),
    /// `<category>;worker:<w>;chunk:<c>`: one transfer or compute step.
    Chunk {
        cat: usize,
        worker: usize,
        chunk: u32,
    },
    /// `uplink_wait;star:<s>;job:<j>`: one federated uplink shipment.
    Shipment { star: usize, job: u32 },
}

impl Stack {
    fn render(self) -> String {
        match self {
            Stack::Gap(cat) => CATEGORY_NAMES[cat].to_string(),
            Stack::Chunk { cat, worker, chunk } => {
                format!("{};worker:{worker};chunk:{chunk}", CATEGORY_NAMES[cat])
            }
            Stack::Shipment { star, job } => {
                format!("{};star:{star};job:{job}", CATEGORY_NAMES[UPLINK_WAIT])
            }
        }
    }
}

impl Serialize for Attribution {
    fn to_value(&self) -> Value {
        Value::object([
            ("makespan", self.makespan.to_value()),
            ("categories", self.categories.to_value()),
            ("critical_path", self.critical_path.to_value()),
        ])
    }
}

/// Interval kinds carried through the sweep and the path walk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Port,
    Compute,
    Uplink,
}

/// One reconstructed resource interval.
#[derive(Clone, Debug)]
struct Interval {
    start: f64,
    end: f64,
    kind: Kind,
    /// Chunk id for port/compute, job id for uplink.
    id: u32,
    /// Worker for port/compute, star for uplink.
    place: usize,
    /// The work was later lost to a crash.
    rework: bool,
}

impl Attribution {
    /// Builds the attribution profile of a recorded run.
    ///
    /// `makespan` is the engine-reported makespan; every reconstructed
    /// interval is clamped into `[0, makespan]` and the eight categories
    /// are closed to sum bit-exactly to it.
    pub fn from_events(events: &[ObsEvent], makespan: f64) -> Attribution {
        assert!(makespan.is_finite(), "makespan must be finite");
        if makespan <= 0.0 {
            return Attribution {
                makespan: 0.0,
                categories: Categories::default(),
                critical_path: CriticalPath::default(),
                frames: Vec::new(),
            };
        }

        let tracks = classify(&spans(events), events, makespan);
        let (categories, frames) = sweep_timeline(&tracks, makespan);
        let critical_path = walk_critical_path(&tracks.intervals, makespan);

        let mut attr = Attribution {
            makespan,
            categories,
            critical_path,
            frames,
        };
        attr.close_conservation();
        debug_assert!(attr.is_conserved());
        attr
    }

    /// `true` iff the fixed-order category sum equals the makespan
    /// bit-exactly.
    pub fn is_conserved(&self) -> bool {
        self.categories.total() == self.makespan
    }

    /// Per-category deltas `other - self`, in [`CATEGORY_NAMES`] order.
    /// Because both profiles are conserved, the deltas sum to the
    /// makespan delta (up to one summation's rounding).
    pub fn diff(&self, other: &Attribution) -> [f64; CATEGORY_COUNT] {
        let a = self.categories.as_array();
        let b = other.categories.as_array();
        std::array::from_fn(|i| b[i] - a[i])
    }

    /// Renders the folded flamegraph stacks (`stack count` lines,
    /// counts in integer microseconds), sorted for determinism. Feed
    /// the output straight to `flamegraph.pl` / speedscope.
    ///
    /// Each frame is rounded to whole microseconds first and the
    /// integers are summed per stack, so the counts do not depend on the
    /// order the frames are visited in.
    pub fn folded_stacks(&self) -> String {
        let mut agg: Vec<(Stack, u64)> = self
            .frames
            .iter()
            .map(|&(stack, secs)| (stack, (secs * 1e6).round() as u64))
            .filter(|&(_, us)| us > 0)
            .collect();
        agg.sort_unstable_by_key(|&(stack, _)| stack);
        agg.dedup_by(|next, kept| {
            let same = next.0 == kept.0;
            if same {
                kept.1 += next.1;
            }
            same
        });
        let mut lines: Vec<(String, u64)> = agg
            .into_iter()
            .map(|(stack, us)| (stack.render(), us))
            .collect();
        lines.sort_by(|a, b| a.0.cmp(&b.0));
        let mut out = String::new();
        for (stack, us) in lines {
            out.push_str(&format!("{stack} {us}\n"));
        }
        out
    }

    /// Closes the floating-point residual so the fixed-order category
    /// sum equals `makespan` bit-exactly. The residual (a few ulps from
    /// segment summation) is folded into the largest category first:
    /// coarse correction, then a ±ulp walk. A large category's ulp can
    /// straddle the target (one step moves the rounded total by two of
    /// its ulps, oscillating around the makespan without landing on
    /// it), so on a straddle the walk escalates to the next-smaller
    /// nonzero category — its finer steps sweep the real-valued sum
    /// through the whole rounding interval of the target, which the
    /// total then cannot skip.
    fn close_conservation(&mut self) {
        let arr = self.categories.as_array();
        let mut order: Vec<usize> = (0..CATEGORY_COUNT).collect();
        order.sort_by(|&a, &b| arr[b].total_cmp(&arr[a]));
        for slot in order {
            // Re-aim the residual at this slot before fine-stepping, so
            // the ulp walk only ever covers a few ulps of the total.
            for _ in 0..64 {
                let delta = self.makespan - self.categories.total();
                if delta == 0.0 {
                    return;
                }
                let v = self.categories.get(slot) + delta;
                *self.categories.slot(slot) = if v < 0.0 { 0.0 } else { v };
            }
            let mut last_side = 0i8;
            for _ in 0..200_000 {
                let total = self.categories.total();
                if total == self.makespan {
                    return;
                }
                let side = if total < self.makespan { 1 } else { -1 };
                if last_side != 0 && side != last_side {
                    // Overshot: this category's step straddles the
                    // target — fall through to a finer category.
                    break;
                }
                last_side = side;
                let cur = self.categories.get(slot);
                let next = if side > 0 {
                    next_up(cur)
                } else {
                    next_down(cur).max(0.0)
                };
                if next == cur {
                    break;
                }
                *self.categories.slot(slot) = next;
            }
            if self.is_conserved() {
                return;
            }
        }
        assert!(
            self.is_conserved(),
            "attribution conservation failed to close: sum {} vs makespan {}",
            self.categories.total(),
            self.makespan
        );
    }
}

/// The next representable f64 above `x` (finite, non-negative inputs).
fn next_up(x: f64) -> f64 {
    if x == 0.0 {
        f64::from_bits(1)
    } else if x > 0.0 {
        f64::from_bits(x.to_bits() + 1)
    } else {
        -next_down(-x)
    }
}

/// The next representable f64 below `x` (finite inputs).
fn next_down(x: f64) -> f64 {
    if x == 0.0 {
        -f64::from_bits(1)
    } else if x > 0.0 {
        f64::from_bits(x.to_bits() - 1)
    } else {
        -next_up(-x)
    }
}

/// The spans of a run as the sweep and the path walk consume them.
struct Tracks {
    intervals: Vec<Interval>,
    stalls: Vec<(f64, f64)>,
    downs: Vec<(f64, f64)>,
    jobs: Vec<(f64, f64)>,
}

/// What the crashes of a run took with them, indexed for the two
/// questions [`classify`] asks once per interval.
struct CrashIndex {
    /// `(chunk, loss time)`, sorted: the last entry of a chunk's run is
    /// its latest loss.
    losses: Vec<(u32, f64)>,
    /// `(worker, crash time)`, sorted.
    crashes: Vec<(usize, f64)>,
}

impl CrashIndex {
    fn from_events(events: &[ObsEvent]) -> CrashIndex {
        let mut losses = Vec::new();
        let mut crashes = Vec::new();
        for ev in events {
            match ev {
                ObsEvent::WorkerDown { time, worker } => crashes.push((*worker, *time)),
                ObsEvent::ChunkLost { time, chunk, .. } => losses.push((*chunk, *time)),
                _ => {}
            }
        }
        losses.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)));
        crashes.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)));
        CrashIndex { losses, crashes }
    }

    /// Whether work on `chunk` ending at `end` was thrown away: some
    /// crash lost the chunk at or after `end`.
    fn lost(&self, chunk: u32, end: f64) -> bool {
        let hi = self.losses.partition_point(|&(c, _)| c <= chunk);
        hi > 0 && self.losses[hi - 1].0 == chunk && end <= self.losses[hi - 1].1
    }

    /// The first crash of `worker` strictly after `start`, or infinity.
    fn crash_after(&self, worker: usize, start: f64) -> f64 {
        let i = self
            .crashes
            .partition_point(|&(w, t)| w < worker || (w == worker && t <= start));
        match self.crashes.get(i) {
            Some(&(w, t)) if w == worker => t,
            _ => f64::INFINITY,
        }
    }
}

/// Clamps every span into `[0, makespan]` and sorts it into its role:
/// port / compute / uplink intervals with crash-rework marking, and
/// stall / downtime / job-presence markers. Every interval and marker
/// kept has positive length.
fn classify(spans: &[Span], events: &[ObsEvent], makespan: f64) -> Tracks {
    let crashed = CrashIndex::from_events(events);
    let mut out = Tracks {
        intervals: Vec::new(),
        stalls: Vec::new(),
        downs: Vec::new(),
        jobs: Vec::new(),
    };
    // The log carries job arrivals (a stream run).
    let mut saw_job = false;
    // Stall / downtime / presence markers; unclosed ones extend to the
    // makespan.
    let mark = |marks: &mut Vec<(f64, f64)>, span: &Span| {
        let s = span.start.clamp(0.0, makespan);
        let e = span.end.map_or(makespan, |e| e.clamp(0.0, makespan));
        if e > s {
            marks.push((s, e));
        }
    };
    for span in spans {
        let (kind, id, place) = match span.track {
            Track::Port { worker, chunk, .. } => (Kind::Port, chunk, worker),
            Track::Compute { worker, chunk, .. } => (Kind::Compute, chunk, worker),
            Track::Uplink { star, job, .. } => (Kind::Uplink, job, star),
            Track::MemoryStall { .. } => {
                mark(&mut out.stalls, span);
                continue;
            }
            Track::Down { .. } => {
                mark(&mut out.downs, span);
                continue;
            }
            Track::Job { .. } => {
                saw_job = true;
                mark(&mut out.jobs, span);
                continue;
            }
        };
        let start = span.start.clamp(0.0, makespan);
        let (end, rework) = match span.end {
            Some(end) => {
                let e = end.clamp(0.0, makespan);
                (e, kind != Kind::Uplink && crashed.lost(id, e))
            }
            None if kind == Kind::Uplink => continue,
            // A step (or transfer) left open was cancelled in flight:
            // the crash that cancelled it bounds the time it really
            // occupied the resource, and everything spent on it is
            // rework. A step no crash explains ran to the end of the
            // run; a transfer no crash explains is dropped.
            None => {
                let crash = crashed.crash_after(place, span.start);
                let bound = if kind == Kind::Compute {
                    crash.min(makespan)
                } else {
                    crash
                };
                if !(bound.is_finite() && bound > span.start) {
                    continue;
                }
                (bound.min(makespan), true)
            }
        };
        // Nothing left after clamping (an open step that began at the
        // makespan included): the sweep would see no segment of it and
        // the path walk needs every interval to start before it ends.
        if end <= start {
            continue;
        }
        out.intervals.push(Interval {
            start,
            end,
            kind,
            id,
            place,
            rework,
        });
    }
    if !saw_job {
        // Static (non-stream) runs carry no arrival events: the one
        // job occupies the whole run.
        out.jobs = vec![(0.0, makespan)];
    }
    out
}

/// Category indices into [`CATEGORY_NAMES`].
const PORT_BUSY: usize = 0;
const PORT_IDLE: usize = 1;
const UPLINK_WAIT: usize = 2;
const COMPUTE: usize = 3;
const MEMORY_STALL: usize = 4;
const MASTER_GAP: usize = 5;
const CRASH_REWORK: usize = 6;
const IDLE_NO_WORK: usize = 7;

/// Slots of the sweep's live counters: intervals by [`Interval::slot`]
/// (kept work and lost work apart), then the three marker kinds.
const LIVE_PORT: usize = 0;
const LIVE_PORT_LOST: usize = 1;
const LIVE_COMPUTE: usize = 2;
const LIVE_COMPUTE_LOST: usize = 3;
const LIVE_UPLINK: usize = 4;
const LIVE_STALL: usize = 5;
const LIVE_DOWN: usize = 6;
const LIVE_JOB: usize = 7;

impl Interval {
    /// The live counter this interval holds while it runs. Ascending
    /// slots also rank the kinds Port < Compute < Uplink.
    fn slot(&self) -> usize {
        match (self.kind, self.rework) {
            (Kind::Port, false) => LIVE_PORT,
            (Kind::Port, true) => LIVE_PORT_LOST,
            (Kind::Compute, false) => LIVE_COMPUTE,
            (Kind::Compute, true) => LIVE_COMPUTE_LOST,
            (Kind::Uplink, _) => LIVE_UPLINK,
        }
    }

    /// The flamegraph frame of this interval.
    fn frame(&self) -> (Stack, f64) {
        let stack = match self.kind {
            Kind::Uplink => Stack::Shipment {
                star: self.place,
                job: self.id,
            },
            Kind::Port | Kind::Compute => Stack::Chunk {
                cat: match (self.rework, self.kind) {
                    (true, _) => CRASH_REWORK,
                    (false, Kind::Port) => PORT_BUSY,
                    (false, _) => COMPUTE,
                },
                worker: self.place,
                chunk: self.id,
            },
        };
        (stack, self.end - self.start)
    }
}

/// Sweeps `[0, makespan]` left to right, classifying each elementary
/// segment by resource priority. Returns the (unclosed) category sums
/// and the flamegraph frames.
///
/// One merge over three time-ordered boundary lists: interval begins
/// (ties broken Port < Compute < Uplink), interval ends and marker
/// edges. Conservation is stated against a fixed summation order, so
/// what matters is the *segment sequence*, not merely the totals:
///
/// * the breakpoints are `0`, the makespan and every boundary,
///   de-duplicated by `==` — each step of the merge moves to the
///   smallest boundary strictly after the current one, and everything
///   is clamped into `[0, makespan]`, so the two run ends need no entry
///   of their own;
/// * every boundary at or before a segment's left end is folded in
///   before the segment is classified (an interval covers `a` iff
///   `start <= a < end`);
/// * "the next activity" is the first begin not yet folded in, and "a
///   shipment is still queued" is a count of uplink begins not yet
///   folded in.
fn sweep_timeline(tracks: &Tracks, makespan: f64) -> (Categories, Vec<(Stack, f64)>) {
    let Tracks {
        intervals,
        stalls,
        downs,
        jobs,
    } = tracks;
    let by_time = |a: &(f64, usize), b: &(f64, usize)| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1));
    let mut begins: Vec<(f64, usize)> = intervals.iter().map(|iv| (iv.start, iv.slot())).collect();
    begins.sort_by(by_time);
    // Spans arrive in closing order, so the ends of a crash-free run
    // are sorted already.
    let mut ends: Vec<(f64, usize)> = intervals.iter().map(|iv| (iv.end, iv.slot())).collect();
    if !ends.is_sorted_by(|a, b| a.0 <= b.0) {
        ends.sort_by(by_time);
    }
    // Marker edges: (time, live slot, opens).
    let mut edges: Vec<(f64, usize, bool)> = Vec::new();
    for (marks, slot) in [(stalls, LIVE_STALL), (downs, LIVE_DOWN), (jobs, LIVE_JOB)] {
        for &(s, e) in marks {
            edges.push((s, slot, true));
            edges.push((e, slot, false));
        }
    }
    edges.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut queued_uplinks = begins
        .iter()
        .filter(|&&(_, slot)| slot == LIVE_UPLINK)
        .count();

    let mut live = [0usize; 8];
    let (mut bi, mut ei, mut mi) = (0, 0, 0);
    let mut cats = Categories::default();
    let mut gap_secs = [0.0f64; CATEGORY_COUNT];
    let mut a = 0.0f64;
    loop {
        // Fold in every boundary at or before the segment's left end,
        // and find the smallest one after it.
        let mut b = makespan;
        while let Some(&(t, slot)) = begins.get(bi) {
            if t > a {
                b = b.min(t);
                break;
            }
            live[slot] += 1;
            queued_uplinks -= usize::from(slot == LIVE_UPLINK);
            bi += 1;
        }
        while let Some(&(t, slot)) = ends.get(ei) {
            if t > a {
                b = b.min(t);
                break;
            }
            live[slot] -= 1;
            ei += 1;
        }
        while let Some(&(t, slot, opens)) = edges.get(mi) {
            if t > a {
                b = b.min(t);
                break;
            }
            if opens {
                live[slot] += 1;
            } else {
                live[slot] -= 1;
            }
            mi += 1;
        }
        if b <= a {
            break;
        }
        let port = live[LIVE_PORT] + live[LIVE_PORT_LOST];
        let compute = live[LIVE_COMPUTE] + live[LIVE_COMPUTE_LOST];
        let cat = if port > 0 {
            if live[LIVE_PORT] == 0 {
                CRASH_REWORK
            } else {
                PORT_BUSY
            }
        } else if compute > 0 {
            if live[LIVE_COMPUTE] == 0 {
                CRASH_REWORK
            } else {
                COMPUTE
            }
        } else if live[LIVE_UPLINK] > 0 {
            UPLINK_WAIT
        } else if live[LIVE_STALL] > 0 {
            MEMORY_STALL
        } else if live[LIVE_JOB] > 0 {
            if live[LIVE_DOWN] > 0 {
                CRASH_REWORK
            } else {
                match begins.get(bi) {
                    Some(&(_, slot)) if slot <= LIVE_PORT_LOST => PORT_IDLE,
                    Some(_) | None => MASTER_GAP,
                }
            }
        } else if queued_uplinks > 0 {
            UPLINK_WAIT
        } else {
            IDLE_NO_WORK
        };
        cats.add(cat, b - a);
        // Segments driven by an active interval get per-interval frames
        // below; pure gap segments own their timeline seconds outright.
        if port == 0 && compute == 0 && live[LIVE_UPLINK] == 0 {
            gap_secs[cat] += b - a;
        }
        a = b;
    }

    let mut frames: Vec<(Stack, f64)> = intervals.iter().map(Interval::frame).collect();
    for (cat, &secs) in gap_secs.iter().enumerate() {
        if secs > 0.0 {
            frames.push((Stack::Gap(cat), secs));
        }
    }
    (cats, frames)
}

/// Walks the wait-for chain backwards from the last-finishing interval:
/// each step jumps to the interval that the current one most plausibly
/// waited on — a same-chunk interval finishing exactly at our start if
/// one exists (the transfer that fed the step, the step that fed the
/// retrieval), else the latest-finishing port interval not after our
/// start, else the latest-finishing interval of any kind.
fn walk_critical_path(intervals: &[Interval], makespan: f64) -> CriticalPath {
    if intervals.is_empty() {
        return CriticalPath {
            steps: 0,
            port: 0.0,
            compute: 0.0,
            uplink: 0.0,
            wait: makespan,
        };
    }
    // Deterministic ordering: by end, then kind rank, then start/ids.
    let rank = |k: Kind| match k {
        Kind::Port => 0usize,
        Kind::Compute => 1,
        Kind::Uplink => 2,
    };
    let mut order: Vec<usize> = (0..intervals.len()).collect();
    order.sort_by(|&x, &y| {
        let (a, b) = (&intervals[x], &intervals[y]);
        a.end
            .total_cmp(&b.end)
            .then_with(|| rank(a.kind).cmp(&rank(b.kind)))
            .then_with(|| a.start.total_cmp(&b.start))
            .then_with(|| a.id.cmp(&b.id))
            .then_with(|| a.place.cmp(&b.place))
    });
    let end_at = |pos: usize| intervals[order[pos]].end;

    let mut cur = *order.last().expect("non-empty");
    let mut path = CriticalPath::default();
    let mut prev_start = makespan.max(intervals[cur].end);
    // Intervals (in `order`) finishing at or before the current start.
    // Every predecessor starts strictly before its successor, so the
    // count only ever falls: a cursor, not a search per step.
    let mut hi = order.len();

    loop {
        let iv = &intervals[cur];
        path.steps += 1;
        let dur = iv.end - iv.start;
        match iv.kind {
            Kind::Port => path.port += dur,
            Kind::Compute => path.compute += dur,
            Kind::Uplink => path.uplink += dur,
        }
        path.wait += (prev_start - iv.end).max(0.0);
        prev_start = iv.start;

        // Predecessor: among intervals finishing at or before our
        // start, take the latest-finishing tie group. Within it, a
        // same-chunk interval finishing exactly at our start is the
        // dependency edge (the transfer that fed the step, the step
        // that fed the retrieval); otherwise the group's rank order
        // prefers port intervals. Every candidate starts strictly
        // before our start (positive length), so the walk makes
        // progress and terminates.
        while hi > 0 && end_at(hi - 1) > iv.start {
            hi -= 1;
        }
        debug_assert_eq!(hi, order.partition_point(|&i| intervals[i].end <= iv.start));
        if hi == 0 {
            break;
        }
        let top_end = end_at(hi - 1);
        let mut lo = hi - 1;
        while lo > 0 && end_at(lo - 1) == top_end {
            lo -= 1;
        }
        let mut next = order[lo];
        if top_end == iv.start && iv.kind != Kind::Uplink {
            for &i in &order[lo..hi] {
                let c = &intervals[i];
                if c.kind != Kind::Uplink && c.id == iv.id {
                    next = i;
                    break;
                }
            }
        }
        cur = next;
    }
    // Lead-in from time zero to the first path interval.
    path.wait += prev_start.max(0.0);
    path
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::testlog::{compute, port};

    // ----- The oracle: the attribution as it was before the one-merge
    // sweep, kept unchanged. It builds and sorts a delta list, a
    // breakpoint list and a start list per run, formats one string per
    // interval, and searches the end list once per path step. -----

    /// Sweeps `[0, makespan]` left to right, classifying each elementary
    /// segment by resource priority. Returns the (unclosed) category sums
    /// and the folded stacks.
    fn reference_sweep_timeline(
        tracks: &Tracks,
        makespan: f64,
    ) -> (Categories, Vec<(String, f64)>) {
        let Tracks {
            intervals,
            stalls,
            downs,
            jobs,
        } = tracks;
        // Delta events: (time, counter index, +1/-1). Counter layout:
        // 0 port total, 1 port rework, 2 compute total, 3 compute rework,
        // 4 uplink, 5 stall, 6 down, 7 job-in-system.
        let mut deltas: Vec<(f64, usize, i64)> = Vec::new();
        let mark = |s: f64, e: f64, c: usize, deltas: &mut Vec<(f64, usize, i64)>| {
            deltas.push((s, c, 1));
            deltas.push((e, c, -1));
        };
        for iv in intervals {
            let (tot, rew) = match iv.kind {
                Kind::Port => (0, 1),
                Kind::Compute => (2, 3),
                Kind::Uplink => (4, 4),
            };
            if iv.kind == Kind::Uplink {
                mark(iv.start, iv.end, 4, &mut deltas);
            } else {
                mark(iv.start, iv.end, tot, &mut deltas);
                if iv.rework {
                    mark(iv.start, iv.end, rew, &mut deltas);
                }
            }
        }
        for &(s, e) in stalls {
            mark(s, e, 5, &mut deltas);
        }
        for &(s, e) in downs {
            mark(s, e, 6, &mut deltas);
        }
        for &(s, e) in jobs {
            mark(s, e, 7, &mut deltas);
        }

        // Breakpoints: every delta time plus the two run boundaries.
        let mut points: Vec<f64> = deltas.iter().map(|&(t, ..)| t).collect();
        points.push(0.0);
        points.push(makespan);
        points.sort_by(f64::total_cmp);
        points.dedup_by(|a, b| a == b);

        deltas.sort_by(|a, b| a.0.total_cmp(&b.0));

        // Upcoming-activity starts, for the port_idle / master_gap split
        // and the queued-uplink check.
        let mut starts: Vec<(f64, Kind)> = intervals.iter().map(|iv| (iv.start, iv.kind)).collect();
        starts.sort_by(|a, b| {
            a.0.total_cmp(&b.0).then_with(|| {
                let rank = |k: Kind| match k {
                    Kind::Port => 0,
                    Kind::Compute => 1,
                    Kind::Uplink => 2,
                };
                rank(a.1).cmp(&rank(b.1))
            })
        });
        let uplink_starts: Vec<f64> = starts
            .iter()
            .filter(|(_, k)| *k == Kind::Uplink)
            .map(|&(s, _)| s)
            .collect();

        let mut counts = [0i64; 8];
        let mut di = 0;
        let mut si = 0;
        let mut ui = 0;
        let mut cats = Categories::default();
        let mut gap_stacks: [f64; CATEGORY_COUNT] = [0.0; CATEGORY_COUNT];

        for w in points.windows(2) {
            let (a, b) = (w[0], w[1]);
            // Fold in every interval boundary at or before the segment's
            // left endpoint: an interval covers `a` iff start <= a < end.
            while di < deltas.len() && deltas[di].0 <= a {
                counts[deltas[di].1] += deltas[di].2;
                di += 1;
            }
            while si < starts.len() && starts[si].0 <= a {
                si += 1;
            }
            while ui < uplink_starts.len() && uplink_starts[ui] <= a {
                ui += 1;
            }
            if b <= a {
                continue;
            }
            let cat = if counts[0] > 0 {
                if counts[1] == counts[0] {
                    CRASH_REWORK
                } else {
                    PORT_BUSY
                }
            } else if counts[2] > 0 {
                if counts[3] == counts[2] {
                    CRASH_REWORK
                } else {
                    COMPUTE
                }
            } else if counts[4] > 0 {
                UPLINK_WAIT
            } else if counts[5] > 0 {
                MEMORY_STALL
            } else if counts[7] > 0 {
                if counts[6] > 0 {
                    CRASH_REWORK
                } else {
                    match starts.get(si) {
                        Some((_, Kind::Port)) => PORT_IDLE,
                        Some(_) | None => MASTER_GAP,
                    }
                }
            } else if ui < uplink_starts.len() {
                UPLINK_WAIT
            } else {
                IDLE_NO_WORK
            };
            cats.add(cat, b - a);
            // Segments driven by an active interval get per-interval stacks
            // below; pure gap segments own their timeline seconds outright.
            if counts[0] == 0 && counts[2] == 0 && counts[4] == 0 {
                gap_stacks[cat] += b - a;
            }
        }

        let mut stacks: Vec<(String, f64)> = Vec::new();
        for iv in intervals {
            let (cat, frame) = match iv.kind {
                Kind::Port if iv.rework => (
                    "crash_rework",
                    format!("worker:{};chunk:{}", iv.place, iv.id),
                ),
                Kind::Port => ("port_busy", format!("worker:{};chunk:{}", iv.place, iv.id)),
                Kind::Compute if iv.rework => (
                    "crash_rework",
                    format!("worker:{};chunk:{}", iv.place, iv.id),
                ),
                Kind::Compute => ("compute", format!("worker:{};chunk:{}", iv.place, iv.id)),
                Kind::Uplink => ("uplink_wait", format!("star:{};job:{}", iv.place, iv.id)),
            };
            stacks.push((format!("{cat};{frame}"), iv.end - iv.start));
        }
        for (i, secs) in gap_stacks.iter().enumerate() {
            if *secs > 0.0 {
                stacks.push((CATEGORY_NAMES[i].to_string(), *secs));
            }
        }
        (cats, stacks)
    }

    /// The folded rendering over string frames: one linear search of the
    /// distinct stacks per frame.
    fn reference_folded_stacks(stacks: &[(String, f64)]) -> String {
        let mut agg: Vec<(String, u64)> = Vec::new();
        for (stack, secs) in stacks {
            let us = (secs * 1e6).round() as u64;
            if us == 0 {
                continue;
            }
            match agg.iter_mut().find(|(s, _)| s == stack) {
                Some((_, n)) => *n += us,
                None => agg.push((stack.clone(), us)),
            }
        }
        agg.sort_by(|a, b| a.0.cmp(&b.0));
        let mut out = String::new();
        for (stack, us) in agg {
            out.push_str(&format!("{stack} {us}\n"));
        }
        out
    }

    /// The path walk with one binary search of the ends per step.
    fn reference_walk_critical_path(intervals: &[Interval], makespan: f64) -> CriticalPath {
        if intervals.is_empty() {
            return CriticalPath {
                steps: 0,
                port: 0.0,
                compute: 0.0,
                uplink: 0.0,
                wait: makespan,
            };
        }
        // Deterministic ordering: by end, then kind rank, then start/ids.
        let rank = |k: Kind| match k {
            Kind::Port => 0usize,
            Kind::Compute => 1,
            Kind::Uplink => 2,
        };
        let mut order: Vec<usize> = (0..intervals.len()).collect();
        order.sort_by(|&x, &y| {
            let (a, b) = (&intervals[x], &intervals[y]);
            a.end
                .total_cmp(&b.end)
                .then_with(|| rank(a.kind).cmp(&rank(b.kind)))
                .then_with(|| a.start.total_cmp(&b.start))
                .then_with(|| a.id.cmp(&b.id))
                .then_with(|| a.place.cmp(&b.place))
        });

        let ends: Vec<f64> = order.iter().map(|&i| intervals[i].end).collect();

        let mut cur = *order.last().expect("non-empty");
        let mut path = CriticalPath::default();
        let mut prev_start = makespan.max(intervals[cur].end);

        loop {
            let iv = &intervals[cur];
            path.steps += 1;
            let dur = iv.end - iv.start;
            match iv.kind {
                Kind::Port => path.port += dur,
                Kind::Compute => path.compute += dur,
                Kind::Uplink => path.uplink += dur,
            }
            path.wait += (prev_start - iv.end).max(0.0);
            prev_start = iv.start;

            // Predecessor: among intervals finishing at or before our
            // start, take the latest-finishing tie group. Within it, a
            // same-chunk interval finishing exactly at our start is the
            // dependency edge (the transfer that fed the step, the step
            // that fed the retrieval); otherwise the group's rank order
            // prefers port intervals. Every candidate starts strictly
            // before our start (positive length), so the walk makes
            // progress and terminates.
            let hi = ends.partition_point(|&e| e <= iv.start);
            if hi == 0 {
                break;
            }
            let top_end = ends[hi - 1];
            let mut lo = hi - 1;
            while lo > 0 && ends[lo - 1] == top_end {
                lo -= 1;
            }
            let mut next = order[lo];
            if top_end == iv.start && iv.kind != Kind::Uplink {
                for &i in &order[lo..hi] {
                    let c = &intervals[i];
                    if c.kind != Kind::Uplink && c.id == iv.id {
                        next = i;
                        break;
                    }
                }
            }
            cur = next;
        }
        // Lead-in from time zero to the first path interval.
        path.wait += prev_start.max(0.0);
        path
    }

    /// Runs the log through the attribution and through the oracle:
    /// un-closed categories equal to the bit, closed profile conserved,
    /// critical path equal field by field, folded stacks byte-equal.
    fn agrees_with_reference(events: &[ObsEvent], makespan: f64) -> Result<(), String> {
        let tracks = classify(&spans(events), events, makespan);
        let (cats, _) = sweep_timeline(&tracks, makespan);
        let (want_cats, want_stacks) = reference_sweep_timeline(&tracks, makespan);
        let bits = |c: &Categories| c.as_array().map(f64::to_bits);
        if bits(&cats) != bits(&want_cats) {
            return Err(format!("categories {cats:?}, reference {want_cats:?}"));
        }
        let attr = Attribution::from_events(events, makespan);
        if !attr.is_conserved() {
            return Err(format!("unconserved: {:?} vs {makespan}", attr.categories));
        }
        let (got, want) = (
            attr.critical_path,
            reference_walk_critical_path(&tracks.intervals, makespan),
        );
        let path_bits = |p: &CriticalPath| [p.port, p.compute, p.uplink, p.wait].map(f64::to_bits);
        if got.steps != want.steps || path_bits(&got) != path_bits(&want) {
            return Err(format!("critical path {got:?}, reference {want:?}"));
        }
        let (got, want) = (attr.folded_stacks(), reference_folded_stacks(&want_stacks));
        if got != want {
            return Err(format!("folded stacks:\n{got}reference:\n{want}"));
        }
        Ok(())
    }

    /// Grid the soups draw their instants from: shared endpoints are the
    /// rule, and `tick × 0.1` carries rounding noise into every sum.
    const TICKS: usize = 24;

    /// One soup item: `(kind draw, begin tick, end tick, id, place)`. An
    /// end tick at or past [`TICKS`] leaves the interval unclosed.
    type Item = (usize, usize, usize, u32, usize);

    /// What a kind draw means — 0 port, 1 compute, 2 uplink, 3 stall,
    /// 4 downtime, 5 job presence — under the two mixes: an engine-like
    /// one where transfers and steps cover most of the run, and a sparse
    /// one of shipments and short-lived jobs, where the gap categories
    /// and the queued-shipment rule decide most segments.
    const MIXES: [[u8; 11]; 2] = [
        [0, 0, 0, 0, 1, 1, 1, 2, 3, 4, 5],
        [0, 1, 2, 2, 2, 3, 4, 5, 5, 5, 5],
    ];

    /// An event log holding the items' begin / end events in time order
    /// (a begin ahead of its own end), plus chunk losses.
    fn soup(items: &[Item], losses: &[(usize, u32)], mix: usize, with_jobs: bool) -> Vec<ObsEvent> {
        use crate::event::Dir::ToWorker;
        use crate::span::testlog::{acquire, finish, release, start};
        let at = |tick: usize| tick as f64 * 0.1;
        let mut timed: Vec<(usize, ObsEvent)> = Vec::new();
        for (n, &(draw, t0, t1, id, place)) in items.iter().enumerate() {
            let (t0, t1) = (t0.min(t1), t0.max(t1));
            let (time, end, job, blocks) = (at(t0), at(t1), id, 1);
            let (begin, end) = match MIXES[mix][draw] {
                0 => (
                    acquire(time, n, place, ToWorker, id),
                    release(end, n, place, ToWorker, id),
                ),
                1 => (
                    start(time, place, id, n as u32),
                    finish(end, place, id, n as u32),
                ),
                2 => {
                    let star = place;
                    (
                        ObsEvent::UplinkAcquire {
                            time,
                            star,
                            job,
                            blocks,
                        },
                        ObsEvent::UplinkRelease {
                            time: end,
                            star,
                            job,
                            blocks,
                        },
                    )
                }
                3 => (
                    ObsEvent::MemoryStallBegin { time, job },
                    ObsEvent::MemoryStallEnd { time: end, job },
                ),
                4 => {
                    let worker = place;
                    (
                        ObsEvent::WorkerDown { time, worker },
                        ObsEvent::WorkerUp { time: end, worker },
                    )
                }
                _ if with_jobs => (
                    ObsEvent::JobArrived { time, job },
                    ObsEvent::JobCompleted { time: end, job },
                ),
                _ => continue,
            };
            timed.push((t0, begin));
            if t1 < TICKS {
                timed.push((t1, end));
            }
        }
        for &(tick, chunk) in losses {
            let (time, worker) = (at(tick), 0);
            timed.push((
                tick,
                ObsEvent::ChunkLost {
                    time,
                    worker,
                    chunk,
                },
            ));
        }
        timed.sort_by_key(|&(tick, _)| tick);
        timed.into_iter().map(|(_, ev)| ev).collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        /// Random interval soups: port / compute / uplink intervals with
        /// shared endpoints, empty ones, ones reaching past the makespan
        /// (or lying wholly beyond it: zero length after clamping), lost
        /// chunks, unclosed intervals and markers, logs with and without
        /// job arrivals.
        #[test]
        fn one_merge_sweep_agrees_with_the_reference(
            items in proptest::collection::vec(
                (0usize..11, 0usize..TICKS, 0usize..TICKS + 6, 0u32..5, 0usize..3), 0..40),
            losses in proptest::collection::vec((0usize..TICKS, 0u32..5), 0..4),
            end_tick in 1usize..TICKS - 4,
            off_grid in 0u8..2,
            mix in 0usize..2,
            with_jobs in 0u8..2,
        ) {
            let makespan = end_tick as f64 * 0.1 + f64::from(off_grid) * 0.05;
            let events = soup(&items, &losses, mix, with_jobs == 1);
            let verdict = agrees_with_reference(&events, makespan);
            proptest::prop_assert!(verdict.is_ok(), "{}", verdict.unwrap_err());
        }

        /// The sorted crash index answers as the linear scans it replaced.
        #[test]
        fn crash_index_answers_like_a_linear_scan(
            losses in proptest::collection::vec((0u32..4, 0usize..TICKS), 0..8),
            crashes in proptest::collection::vec((0usize..3, 0usize..TICKS), 0..8),
        ) {
            let at = |tick: usize| tick as f64 * 0.1;
            let mut events = Vec::new();
            for &(chunk, tick) in &losses {
                events.push(ObsEvent::ChunkLost { time: at(tick), worker: 0, chunk });
            }
            for &(worker, tick) in &crashes {
                events.push(ObsEvent::WorkerDown { time: at(tick), worker });
            }
            let index = CrashIndex::from_events(&events);
            for tick in 0..TICKS {
                for id in 0..4 {
                    let lost = losses.iter().any(|&(c, t)| c == id && at(tick) <= at(t));
                    proptest::prop_assert_eq!(index.lost(id, at(tick)), lost);
                    let next_crash = crashes
                        .iter()
                        .filter(|&&(w, t)| w == id as usize && at(t) > at(tick))
                        .map(|&(_, t)| at(t))
                        .fold(f64::INFINITY, f64::min);
                    proptest::prop_assert_eq!(index.crash_after(id as usize, at(tick)), next_crash);
                }
            }
        }
    }

    /// Real logs, one per engine class of `tests/obs_props.rs`. The
    /// engines link the plain build of this crate (`ext`), so their
    /// events are carried over to the build under test on the way in.
    mod real_logs {
        use super::super::*;
        use super::agrees_with_reference;
        use stargemm::core::algorithms::{build_policy, Algorithm};
        use stargemm::core::Job;
        use stargemm::dynamic::model::DynPlatform;
        use stargemm::dynamic::{random_scenario, AdaptiveMaster, ScenarioConfig};
        use stargemm::obs as ext;
        use stargemm::platform::{FedPlatform, FedStar, Platform, WorkerSpec};
        use stargemm::sim::{MasterPolicy, NetModelSpec, Simulator};
        use stargemm::stream::{
            ArrivalProcess, JobRequest, MultiJobMaster, MultiStarMaster, StreamConfig, TenantSpec,
            WorkloadSpec,
        };

        impl From<ext::Dir> for crate::event::Dir {
            fn from(dir: ext::Dir) -> Self {
                match dir {
                    ext::Dir::ToWorker => Self::ToWorker,
                    ext::Dir::ToMaster => Self::ToMaster,
                }
            }
        }

        /// The variants attribution reads; the rest (dispatches, LP
        /// re-solves, credits, promotions, admissions) it ignores.
        fn import(ev: &ext::ObsEvent) -> Option<ObsEvent> {
            macro_rules! carry {
                ($($variant:ident { $($field:ident),* }),* $(,)?) => {
                    match ev {
                        $(ext::ObsEvent::$variant { $($field,)* .. } => Some(ObsEvent::$variant {
                            $($field: (*$field).into(),)*
                        }),)*
                        _ => None,
                    }
                };
            }
            carry!(
                PortAcquire {
                    time,
                    lane,
                    worker,
                    dir,
                    chunk,
                    blocks
                },
                PortRelease {
                    time,
                    lane,
                    worker,
                    dir,
                    chunk,
                    blocks
                },
                ComputeStart {
                    time,
                    worker,
                    chunk,
                    step,
                    updates
                },
                ComputeEnd {
                    time,
                    worker,
                    chunk,
                    step
                },
                WorkerDown { time, worker },
                WorkerUp { time, worker },
                ChunkLost {
                    time,
                    worker,
                    chunk
                },
                UplinkAcquire {
                    time,
                    star,
                    job,
                    blocks
                },
                UplinkRelease {
                    time,
                    star,
                    job,
                    blocks
                },
                MemoryStallBegin { time, job },
                MemoryStallEnd { time, job },
                JobArrived { time, job },
                JobCompleted { time, job },
            )
        }

        fn check(log: &[ext::ObsEvent], makespan: f64) {
            let events: Vec<ObsEvent> = log.iter().filter_map(import).collect();
            assert!(events.len() > 10, "a real log has events");
            agrees_with_reference(&events, makespan).unwrap();
        }

        fn star() -> Platform {
            Platform::new(
                "oracle-star",
                vec![
                    WorkerSpec::new(0.20, 0.10, 80),
                    WorkerSpec::new(0.30, 0.15, 60),
                    WorkerSpec::new(0.50, 0.30, 40),
                ],
            )
        }

        /// Runs `policy` recorded; returns the log and the makespan.
        fn record(sim: &Simulator, policy: &mut dyn MasterPolicy) -> (Vec<ext::ObsEvent>, f64) {
            let rec = ext::RunRecorder::shared();
            let stats = sim
                .run_observed(policy, ext::ObsSink::to(rec.clone()))
                .expect("the run completes");
            let log = rec.borrow().events().to_vec();
            (log, stats.makespan)
        }

        #[test]
        fn static_run() {
            let (platform, job) = (star(), Job::new(5, 4, 8, 4));
            for alg in [Algorithm::Het, Algorithm::Oddoml] {
                let mut policy = build_policy(&platform, &job, alg).unwrap();
                let (log, makespan) = record(&Simulator::new(platform.clone()), &mut policy);
                check(&log, makespan);
            }
        }

        #[test]
        fn jitter_and_churn_run() {
            let job = Job::new(7, 5, 9, 4);
            let cfg = ScenarioConfig {
                c_jitter: 1.5,
                w_jitter: 1.5,
                crash_prob: 1.0,
                segment_len: 5.0,
                horizon: 60.0,
                rejoin_prob: 0.5,
            };
            let mut lost = 0;
            for seed in 0..4 {
                let dp = random_scenario(&star(), cfg, seed);
                let mut policy = AdaptiveMaster::adaptive_het(&dp.base, &job).unwrap();
                let (log, makespan) = record(&Simulator::new_dyn(dp), &mut policy);
                lost += log
                    .iter()
                    .filter(|e| matches!(e, ext::ObsEvent::ChunkLost { .. }))
                    .count();
                check(&log, makespan);
            }
            assert!(lost > 0, "no crash took a chunk with it");
        }

        fn stream_log(
            requests: &[JobRequest],
            master: MultiJobMaster,
        ) -> (Vec<ext::ObsEvent>, f64) {
            let rec = ext::RunRecorder::shared();
            let sink = ext::ObsSink::to(rec.clone());
            let mut master = master.with_obs(sink.clone());
            let stats = Simulator::new(star())
                .with_arrivals(MultiJobMaster::arrival_plan(requests))
                .run_observed(&mut master, sink)
                .expect("the stream completes");
            let log = rec.borrow().events().to_vec();
            (log, stats.makespan)
        }

        #[test]
        fn stream_run() {
            let requests = WorkloadSpec {
                tenants: vec![
                    TenantSpec::new("light", 1.0, vec![Job::new(3, 2, 4, 2)]),
                    TenantSpec::new("heavy", 2.0, vec![Job::new(5, 3, 6, 2)]),
                ],
                arrivals: ArrivalProcess::Open {
                    mean_interarrival: 6.0,
                },
                jobs: 12,
                seed: 2008,
            }
            .generate();
            let master = MultiJobMaster::new(&star(), &requests, StreamConfig::default()).unwrap();
            let (log, makespan) = stream_log(&requests, master);
            check(&log, makespan);
        }

        #[test]
        fn dag_stream_run() {
            let (dag, _) = stargemm::dag::lu_dag(3);
            let job = dag.virtual_job(2);
            let gemm = Job::new(3, 2, 4, 2);
            let request = |id, job, arrival| JobRequest {
                id,
                tenant: id as usize,
                weight: 1.0,
                job,
                arrival,
            };
            let requests = vec![request(0, job, 0.0), request(1, gemm, 4.5)];
            let master = MultiJobMaster::with_dags(
                &star(),
                &requests,
                vec![(0, dag)],
                StreamConfig::default(),
            )
            .unwrap();
            let (log, makespan) = stream_log(&requests, master);
            let promoted = |e: &ext::ObsEvent| matches!(e, ext::ObsEvent::FrontierPromote { .. });
            assert!(log.iter().any(promoted), "a DAG member ran");
            check(&log, makespan);
        }

        #[test]
        fn federated_run() {
            let stars = (0..2)
                .map(|_| FedStar::new(DynPlatform::constant(star()), 0.1))
                .collect();
            let net = NetModelSpec::BoundedMultiPort {
                k: 2,
                backbone: None,
            };
            let fed = FedPlatform::new("oracle-fed", stars, net);
            let requests = WorkloadSpec {
                tenants: vec![TenantSpec::new("a", 1.0, vec![Job::new(6, 6, 32, 2)])],
                arrivals: ArrivalProcess::ClosedBatch,
                jobs: 4,
                seed: 2008,
            }
            .generate();
            let (run, logs) = MultiStarMaster::new(fed, StreamConfig::default())
                .run_recorded(&requests)
                .unwrap();
            let shipped = |e: &ext::ObsEvent| matches!(e, ext::ObsEvent::UplinkAcquire { .. });
            assert!(logs.iter().flatten().any(shipped), "an uplink shipped");
            for log in &logs {
                check(log, run.makespan);
            }
        }
    }

    #[test]
    fn empty_run_attributes_nothing() {
        let attr = Attribution::from_events(&[], 0.0);
        assert_eq!(attr.makespan, 0.0);
        assert!(attr.is_conserved());
        assert_eq!(attr.categories.total(), 0.0);
    }

    #[test]
    fn a_pipelined_run_decomposes_into_port_compute_and_gaps() {
        // port [0,1), compute [1,3), port [3,4); makespan 5.
        let mut ev = Vec::new();
        ev.extend(port(0.0, 1.0, 0, 0, 7));
        ev.extend(compute(1.0, 3.0, 0, 7));
        ev.extend(port(3.0, 4.0, 0, 0, 7));
        let attr = Attribution::from_events(&ev, 5.0);
        assert!(attr.is_conserved());
        assert_eq!(attr.categories.port_busy, 2.0);
        assert_eq!(attr.categories.compute, 2.0);
        // The tail [4,5) has no further activity: master_gap (job in
        // system for the whole static run).
        assert_eq!(attr.categories.master_gap, 1.0);
        assert_eq!(attr.categories.idle_no_work, 0.0);
        // Critical path: port -> compute -> port, no internal gaps.
        assert_eq!(attr.critical_path.steps, 3);
        assert_eq!(attr.critical_path.port, 2.0);
        assert_eq!(attr.critical_path.compute, 2.0);
        assert_eq!(attr.critical_path.wait, 1.0);
    }

    #[test]
    fn port_priority_wins_over_concurrent_compute() {
        let mut ev = Vec::new();
        ev.extend(port(0.0, 2.0, 0, 0, 1));
        ev.extend(compute(1.0, 3.0, 1, 2));
        let attr = Attribution::from_events(&ev, 3.0);
        assert!(attr.is_conserved());
        assert_eq!(attr.categories.port_busy, 2.0);
        assert_eq!(attr.categories.compute, 1.0);
    }

    #[test]
    fn a_gap_before_a_transfer_is_port_idle() {
        // compute [0,1), nothing in [1,2), port [2,3).
        let mut ev = Vec::new();
        ev.extend(compute(0.0, 1.0, 0, 1));
        ev.extend(port(2.0, 3.0, 0, 0, 2));
        let attr = Attribution::from_events(&ev, 3.0);
        assert!(attr.is_conserved());
        assert_eq!(attr.categories.port_idle, 1.0);
        assert_eq!(attr.categories.compute, 1.0);
        assert_eq!(attr.categories.port_busy, 1.0);
    }

    #[test]
    fn lost_chunks_turn_their_work_into_rework() {
        let mut ev: Vec<ObsEvent> = Vec::new();
        ev.extend(port(0.0, 1.0, 0, 0, 5));
        ev.extend(compute(1.0, 2.0, 0, 5));
        ev.push(ObsEvent::WorkerDown {
            time: 2.5,
            worker: 0,
        });
        ev.push(ObsEvent::ChunkLost {
            time: 2.5,
            worker: 0,
            chunk: 5,
        });
        ev.push(ObsEvent::WorkerUp {
            time: 3.0,
            worker: 0,
        });
        ev.extend(port(3.0, 4.0, 0, 1, 5));
        ev.extend(compute(4.0, 5.0, 1, 5));
        let attr = Attribution::from_events(&ev, 5.0);
        assert!(attr.is_conserved());
        // The pre-crash transfer and step were lost: rework. The gap
        // [2,2.5) waits on nothing while up (master_gap... actually the
        // re-dispatch transfer is next: port_idle), [2.5,3.0) is down.
        assert_eq!(attr.categories.crash_rework, 2.5);
        assert_eq!(attr.categories.port_busy, 1.0);
        assert_eq!(attr.categories.compute, 1.0);
        assert_eq!(attr.categories.port_idle, 0.5);
    }

    #[test]
    fn uplink_only_time_is_uplink_wait() {
        let mut ev: Vec<ObsEvent> = vec![
            ObsEvent::UplinkAcquire {
                time: 0.0,
                star: 0,
                job: 1,
                blocks: 4,
            },
            ObsEvent::UplinkRelease {
                time: 2.0,
                star: 0,
                job: 1,
                blocks: 4,
            },
        ];
        ev.extend(port(2.0, 3.0, 0, 0, 1));
        let attr = Attribution::from_events(&ev, 3.0);
        assert!(attr.is_conserved());
        assert_eq!(attr.categories.uplink_wait, 2.0);
        assert_eq!(attr.categories.port_busy, 1.0);
        assert_eq!(attr.critical_path.uplink, 2.0);
    }

    #[test]
    fn memory_stalls_surface_when_nothing_runs() {
        let mut ev: Vec<ObsEvent> = Vec::new();
        ev.extend(port(0.0, 1.0, 0, 0, 1));
        ev.push(ObsEvent::MemoryStallBegin { time: 1.0, job: 0 });
        ev.push(ObsEvent::MemoryStallEnd { time: 2.0, job: 0 });
        ev.extend(port(2.0, 3.0, 0, 0, 2));
        let attr = Attribution::from_events(&ev, 3.0);
        assert!(attr.is_conserved());
        assert_eq!(attr.categories.memory_stall, 1.0);
        assert_eq!(attr.categories.port_busy, 2.0);
    }

    #[test]
    fn no_jobs_and_no_queue_is_idle_no_work() {
        let ev = vec![
            ObsEvent::JobArrived { time: 1.0, job: 0 },
            ObsEvent::JobCompleted { time: 2.0, job: 0 },
        ];
        let attr = Attribution::from_events(&ev, 3.0);
        assert!(attr.is_conserved());
        assert_eq!(attr.categories.idle_no_work, 2.0);
        assert_eq!(attr.categories.master_gap, 1.0);
    }

    #[test]
    fn conservation_closes_awkward_floats() {
        // Endpoints chosen to leave a summation residual.
        let mut ev = Vec::new();
        let mut t = 0.0;
        for i in 0..50 {
            let dt = 0.1 + (i as f64) * 1e-3;
            ev.extend(port(t, t + dt, 0, 0, i));
            t += dt * 1.7;
        }
        let attr = Attribution::from_events(&ev, t);
        assert!(attr.is_conserved());
        assert!(attr.categories.port_busy > 0.0);
    }

    #[test]
    fn folded_stacks_render_sorted_with_integer_microseconds() {
        let mut ev = Vec::new();
        ev.extend(port(0.0, 1.0, 0, 0, 3));
        ev.extend(compute(1.0, 2.5, 0, 3));
        let attr = Attribution::from_events(&ev, 2.5);
        let folded = attr.folded_stacks();
        assert!(folded.contains("port_busy;worker:0;chunk:3 1000000\n"));
        assert!(folded.contains("compute;worker:0;chunk:3 1500000\n"));
        let mut lines: Vec<&str> = folded.lines().collect();
        let sorted = {
            let mut s = lines.clone();
            s.sort();
            s
        };
        assert_eq!(
            lines.len(),
            lines.iter().collect::<std::collections::HashSet<_>>().len()
        );
        assert_eq!(lines, sorted, "stacks are sorted");
        lines.clear();
    }

    #[test]
    fn diff_sums_to_the_makespan_delta() {
        let mut a_ev = Vec::new();
        a_ev.extend(port(0.0, 1.0, 0, 0, 1));
        a_ev.extend(compute(1.0, 2.0, 0, 1));
        let a = Attribution::from_events(&a_ev, 2.0);
        let mut b_ev = Vec::new();
        b_ev.extend(port(0.0, 3.0, 0, 0, 1));
        b_ev.extend(compute(3.0, 4.0, 0, 1));
        let b = Attribution::from_events(&b_ev, 4.0);
        let deltas = a.diff(&b);
        let sum: f64 = deltas.iter().sum();
        assert!((sum - (b.makespan - a.makespan)).abs() < 1e-9);
        // The slowdown is a port slowdown.
        assert_eq!(deltas[0], 2.0);
    }

    #[test]
    fn serialized_block_carries_categories_and_path() {
        let mut ev = Vec::new();
        ev.extend(port(0.0, 1.0, 0, 0, 1));
        let attr = Attribution::from_events(&ev, 1.0);
        let rendered = attr.to_value().render();
        assert!(rendered.contains("\"makespan\""));
        for name in CATEGORY_NAMES {
            assert!(rendered.contains(&format!("\"{name}\"")), "missing {name}");
        }
        assert!(rendered.contains("\"critical_path\""));
        assert!(!rendered.contains("stacks"), "stacks stay out of the block");
    }
}
