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
//! 2. sweeps the model-time axis once, classifying every instant into
//!    exactly one of eight categories by resource priority, and
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
//! conserved timeline seconds.

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
    /// Folded flamegraph stacks (`stack`, seconds). Not serialized into
    /// the JSON `attribution` block; rendered by
    /// [`Attribution::folded_stacks`].
    pub stacks: Vec<(String, f64)>,
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
                stacks: Vec::new(),
            };
        }

        let Tracks {
            intervals,
            stalls,
            downs,
            mut jobs,
            saw_job,
        } = classify(&spans(events), events, makespan);
        if !saw_job {
            // Static (non-stream) runs carry no arrival events: the one
            // job occupies the whole run.
            jobs = vec![(0.0, makespan)];
        }

        let (categories, stacks) = sweep_timeline(&intervals, &stalls, &downs, &jobs, makespan);
        let critical_path = walk_critical_path(&intervals, makespan);

        let mut attr = Attribution {
            makespan,
            categories,
            critical_path,
            stacks,
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
    pub fn folded_stacks(&self) -> String {
        let mut agg: Vec<(String, u64)> = Vec::new();
        for (stack, secs) in &self.stacks {
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
    /// The log carries job arrivals (a stream run).
    saw_job: bool,
}

/// Clamps every span into `[0, makespan]` and sorts it into its role:
/// port / compute / uplink intervals with crash-rework marking, and
/// stall / downtime / job-presence markers.
fn classify(spans: &[Span], events: &[ObsEvent], makespan: f64) -> Tracks {
    // (chunk, loss time): work on `chunk` ending at or before the loss
    // was thrown away by the crash.
    let mut losses: Vec<(u32, f64)> = Vec::new();
    // Per-worker crash times, to clamp intervals the crash cancelled.
    let mut crashes: Vec<(usize, f64)> = Vec::new();
    for ev in events {
        match ev {
            ObsEvent::WorkerDown { time, worker } => crashes.push((*worker, *time)),
            ObsEvent::ChunkLost { time, chunk, .. } => losses.push((*chunk, *time)),
            _ => {}
        }
    }
    let crash_after = |worker: usize, start: f64| {
        crashes
            .iter()
            .filter(|&&(w, t)| w == worker && t > start)
            .map(|&(_, t)| t)
            .fold(f64::INFINITY, f64::min)
    };

    let mut out = Tracks {
        intervals: Vec::new(),
        stalls: Vec::new(),
        downs: Vec::new(),
        jobs: Vec::new(),
        saw_job: false,
    };
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
                out.saw_job = true;
                mark(&mut out.jobs, span);
                continue;
            }
        };
        let start = span.start.clamp(0.0, makespan);
        let (end, rework) = match span.end {
            Some(end) => {
                let e = end.clamp(0.0, makespan);
                if e <= start {
                    continue;
                }
                let lost = kind != Kind::Uplink && losses.iter().any(|&(c, t)| c == id && e <= t);
                (e, lost)
            }
            None if kind == Kind::Uplink => continue,
            // A step (or transfer) left open was cancelled in flight:
            // the crash that cancelled it bounds the time it really
            // occupied the resource, and everything spent on it is
            // rework. A step no crash explains ran to the end of the
            // run; a transfer no crash explains is dropped.
            None => {
                let crash = crash_after(place, span.start);
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
        out.intervals.push(Interval {
            start,
            end,
            kind,
            id,
            place,
            rework,
        });
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

/// Sweeps `[0, makespan]` left to right, classifying each elementary
/// segment by resource priority. Returns the (unclosed) category sums
/// and the folded stacks.
fn sweep_timeline(
    intervals: &[Interval],
    stalls: &[(f64, f64)],
    downs: &[(f64, f64)],
    jobs: &[(f64, f64)],
    makespan: f64,
) -> (Categories, Vec<(String, f64)>) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::testlog::{compute, port};

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
