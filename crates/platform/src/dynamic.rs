//! Time-varying platforms: piecewise-constant cost traces and worker
//! lifecycle (crash/join) schedules.
//!
//! The paper's model fixes `(c_i, w_i)` for the whole run and assumes
//! workers never leave. Production star platforms do neither: bandwidth
//! fluctuates, machines slow down, and workers crash or join mid-job.
//! This module keeps the *linear cost* abstraction while letting the
//! parameters drift: every worker carries two piecewise-constant
//! multiplier [`Trace`]s (`c_scale`, `w_scale` — a segment with scale
//! `s` makes one block cost `s·c_i` seconds) and a list of half-open
//! downtime intervals during which the worker holds no data and performs
//! no work.
//!
//! A [`DynProfile`] bundles the per-worker dynamics; both execution
//! engines (`stargemm-sim` and `stargemm-net`) read durations from it so
//! one scenario drives both. [`DynPlatform`] pairs a profile with its
//! base [`Platform`], and [`parse_dyn_platform`] extends the static text
//! format of [`crate::parse`] with `@`-directive lines:
//!
//! ```text
//! # c      w      m
//! 1.0      1.0    100
//! 2.0      0.5    40
//! @0 cscale 0:1 10:2.5 30:1      # link cost ×2.5 on t ∈ [10, 30)
//! @1 wscale 0:1 5:1.8            # CPU degrades at t = 5
//! @1 down 20..35                 # crash at 20, rejoin at 35
//! @0 down 50..inf                # permanent crash at 50
//! ```

use serde::{Deserialize, Serialize};
use stargemm_netmodel::NetModelSpec;

use crate::parse::{fail, parse_worker_fields, ParseError};
use crate::platform::{Platform, WorkerId};

/// A piecewise-constant, strictly-positive multiplier over time.
///
/// Represented as `(start, value)` points: the trace holds `value` from
/// `start` until the next point's start (the last segment extends to
/// infinity). The first point must start at `t = 0`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    points: Vec<(f64, f64)>,
}

impl Trace {
    /// A constant trace.
    ///
    /// # Panics
    /// Panics unless `value` is positive and finite.
    pub fn constant(value: f64) -> Self {
        Trace::new(vec![(0.0, value)])
    }

    /// A trace from `(start, value)` points.
    ///
    /// # Panics
    /// Panics when the points are empty, do not start at 0, are not
    /// strictly increasing in time, or carry a non-positive/non-finite
    /// value.
    pub fn new(points: Vec<(f64, f64)>) -> Self {
        assert!(!points.is_empty(), "a trace needs at least one segment");
        assert_eq!(points[0].0, 0.0, "the first trace segment must start at 0");
        for pair in points.windows(2) {
            assert!(
                pair[0].0 < pair[1].0,
                "trace segment starts must strictly increase"
            );
        }
        for &(s, v) in &points {
            assert!(s.is_finite() && s >= 0.0, "bad segment start {s}");
            assert!(v.is_finite() && v > 0.0, "trace values must be positive");
        }
        Trace { points }
    }

    /// The `(start, value)` points.
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// The multiplier in force at time `t` (`t ≥ 0`).
    pub fn value_at(&self, t: f64) -> f64 {
        let idx = self.points.partition_point(|&(s, _)| s <= t);
        self.points[idx.saturating_sub(1)].1
    }

    /// Whether the trace is the constant 1 (the static limit).
    pub fn is_one(&self) -> bool {
        self.points.len() == 1 && self.points[0].1 == 1.0
    }

    /// End time of a task needing `base` *nominal* seconds that starts at
    /// `start`: in a segment with scale `s`, one nominal second takes `s`
    /// wall seconds, so the duration is the integral of the scale over
    /// the crossed segments.
    ///
    /// This is **the** segment-walking integrator of the workspace: both
    /// execution engines (and every bound) route their cost scaling
    /// through it rather than carrying private copies.
    pub fn finish(&self, start: f64, base: f64) -> f64 {
        debug_assert!(start >= 0.0 && base >= 0.0);
        if base == 0.0 {
            return start;
        }
        let mut idx = self.points.partition_point(|&(s, _)| s <= start) - 1;
        let mut t = start;
        let mut rem = base; // nominal seconds still to serve
        loop {
            let scale = self.points[idx].1;
            let seg_end = self.points.get(idx + 1).map_or(f64::INFINITY, |&(s, _)| s);
            let nominal_capacity = (seg_end - t) / scale;
            if nominal_capacity >= rem {
                return t + rem * scale;
            }
            rem -= nominal_capacity;
            t = seg_end;
            idx += 1;
        }
    }

    /// [`Trace::finish`] for a task progressing at a fractional `share`
    /// of the resource (a transfer granted `share` of its link by a
    /// contention model): serving one nominal second at share `s` takes
    /// `scale / s` wall seconds, which is exactly serving `1/s` nominal
    /// seconds at full share — so the walk itself is [`Trace::finish`].
    ///
    /// With `share == 1.0` the division is exact and this *is*
    /// [`Trace::finish`], bit for bit.
    ///
    /// # Panics
    /// Panics (in debug) unless `0 < share ≤ 1`.
    pub fn finish_with_share(&self, start: f64, base: f64, share: f64) -> f64 {
        debug_assert!(share > 0.0 && share <= 1.0, "bad share {share}");
        self.finish(start, base / share)
    }

    /// Nominal seconds a full-share task serves over the wall interval
    /// `[t0, t1]` — the inverse integral `∫ dt / scale` of
    /// [`Trace::finish`]. A task at share `s` serves `s ×` this.
    pub fn nominal_between(&self, t0: f64, t1: f64) -> f64 {
        debug_assert!(t0 >= 0.0 && t1 >= t0);
        if t1 == t0 {
            return 0.0;
        }
        let mut idx = self.points.partition_point(|&(s, _)| s <= t0) - 1;
        let mut t = t0;
        let mut served = 0.0;
        loop {
            let scale = self.points[idx].1;
            let seg_end = self.points.get(idx + 1).map_or(f64::INFINITY, |&(s, _)| s);
            if t1 <= seg_end {
                return served + (t1 - t) / scale;
            }
            served += (seg_end - t) / scale;
            t = seg_end;
            idx += 1;
        }
    }
}

impl Default for Trace {
    fn default() -> Self {
        Trace::constant(1.0)
    }
}

/// The dynamic behaviour of one worker.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct WorkerDyn {
    /// Multiplier on the per-block transfer cost `c_i`.
    pub c_scale: Trace,
    /// Multiplier on the per-update compute cost `w_i`.
    pub w_scale: Trace,
    /// Half-open `[from, until)` intervals during which the worker is
    /// down (crashed or not yet joined). `until = ∞` is a permanent
    /// crash. Sorted, disjoint.
    pub downtime: Vec<(f64, f64)>,
}

impl WorkerDyn {
    /// A worker with constant unit scales and no downtime.
    pub fn stable() -> Self {
        WorkerDyn::default()
    }

    /// Builds and validates a dynamic spec.
    ///
    /// # Panics
    /// Panics when a downtime interval is empty, negative, or overlaps
    /// its predecessor.
    pub fn new(c_scale: Trace, w_scale: Trace, downtime: Vec<(f64, f64)>) -> Self {
        let mut prev_end = 0.0f64;
        for &(from, until) in &downtime {
            assert!(
                from >= 0.0 && from >= prev_end,
                "downtime overlaps/unsorted"
            );
            assert!(until > from, "empty downtime interval");
            prev_end = until;
        }
        WorkerDyn {
            c_scale,
            w_scale,
            downtime,
        }
    }

    /// Whether the worker is up at time `t`.
    pub fn is_up(&self, t: f64) -> bool {
        !self.downtime.iter().any(|&(a, b)| t >= a && t < b)
    }

    /// The static limit: unit scales, never down.
    pub fn is_static(&self) -> bool {
        self.c_scale.is_one() && self.w_scale.is_one() && self.downtime.is_empty()
    }
}

/// One worker lifecycle boundary.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct LifecycleEvent {
    /// Model time of the transition.
    pub time: f64,
    /// Worker changing state.
    pub worker: WorkerId,
    /// `true` = the worker comes up, `false` = it crashes.
    pub up: bool,
}

/// The shared dynamic scenario: per-worker traces and lifecycle, read by
/// both execution engines.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct DynProfile {
    workers: Vec<WorkerDyn>,
}

impl DynProfile {
    /// The static profile for `p` workers (unit scales, no downtime).
    pub fn constant(p: usize) -> Self {
        DynProfile {
            workers: vec![WorkerDyn::stable(); p],
        }
    }

    /// A profile from per-worker dynamics.
    pub fn new(workers: Vec<WorkerDyn>) -> Self {
        DynProfile { workers }
    }

    /// Number of workers described.
    pub fn len(&self) -> usize {
        self.workers.len()
    }

    /// Whether the profile describes no workers.
    pub fn is_empty(&self) -> bool {
        self.workers.is_empty()
    }

    /// The dynamics of worker `w`.
    pub fn worker(&self, w: WorkerId) -> &WorkerDyn {
        &self.workers[w]
    }

    /// All per-worker dynamics in index order.
    pub fn workers(&self) -> &[WorkerDyn] {
        &self.workers
    }

    /// Whether worker `w` is up at time `t`.
    pub fn is_up(&self, w: WorkerId, t: f64) -> bool {
        self.workers[w].is_up(t)
    }

    /// Link-cost multiplier of worker `w` at time `t`.
    pub fn c_scale(&self, w: WorkerId, t: f64) -> f64 {
        self.workers[w].c_scale.value_at(t)
    }

    /// Compute-cost multiplier of worker `w` at time `t`.
    pub fn w_scale(&self, w: WorkerId, t: f64) -> f64 {
        self.workers[w].w_scale.value_at(t)
    }

    /// End time of a transfer needing `base` nominal seconds
    /// (`blocks · c_i`) on worker `w`'s link, starting at `start` and
    /// progressing at a fractional `share` of the link (contention-model
    /// composition: the share applies on top of the cost trace).
    pub fn transfer_end_shared(&self, w: WorkerId, start: f64, base: f64, share: f64) -> f64 {
        self.workers[w]
            .c_scale
            .finish_with_share(start, base, share)
    }

    /// Nominal transfer seconds worker `w`'s link serves at full share
    /// over `[t0, t1]` (a transfer at share `s` serves `s ×` this).
    pub fn transfer_nominal_between(&self, w: WorkerId, t0: f64, t1: f64) -> f64 {
        self.workers[w].c_scale.nominal_between(t0, t1)
    }

    /// End time of a computation needing `base` nominal seconds
    /// (`updates · w_i`) on worker `w`, starting at `start`.
    pub fn compute_end(&self, w: WorkerId, start: f64, base: f64) -> f64 {
        self.workers[w].w_scale.finish(start, base)
    }

    /// The static limit: every worker static.
    pub fn is_static(&self) -> bool {
        self.workers.iter().all(WorkerDyn::is_static)
    }

    /// All lifecycle boundaries at `t > 0`, sorted by time (worker index
    /// breaks ties). Workers down at `t = 0` are reflected by
    /// [`Self::is_up`], not by an event.
    pub fn lifecycle_events(&self) -> Vec<LifecycleEvent> {
        let mut evs = Vec::new();
        for (w, d) in self.workers.iter().enumerate() {
            for &(from, until) in &d.downtime {
                if from > 0.0 {
                    evs.push(LifecycleEvent {
                        time: from,
                        worker: w,
                        up: false,
                    });
                }
                if until.is_finite() {
                    evs.push(LifecycleEvent {
                        time: until,
                        worker: w,
                        up: true,
                    });
                }
            }
        }
        evs.sort_by(|a, b| a.time.total_cmp(&b.time).then(a.worker.cmp(&b.worker)));
        evs
    }
}

/// Shared piecewise-integration entry points for the execution engines:
/// a `None` profile is the static limit (`end = start + base`), so both
/// `stargemm-sim` and `stargemm-net` call these instead of carrying
/// their own `match`-on-profile segment walking.
///
/// End of a transfer of `base` nominal seconds on worker `w`'s link at
/// fractional `share`, starting at `start`. With `share == 1.0` and a
/// `None`/unit profile this is exactly `start + base`.
pub fn transfer_end_opt(
    profile: Option<&DynProfile>,
    w: WorkerId,
    start: f64,
    base: f64,
    share: f64,
) -> f64 {
    match profile {
        None => start + base / share,
        Some(p) => p.transfer_end_shared(w, start, base, share),
    }
}

/// Nominal transfer seconds worker `w`'s link serves at full share over
/// `[t0, t1]` (`None` profile: the wall interval itself).
pub fn transfer_nominal_between_opt(
    profile: Option<&DynProfile>,
    w: WorkerId,
    t0: f64,
    t1: f64,
) -> f64 {
    match profile {
        None => t1 - t0,
        Some(p) => p.transfer_nominal_between(w, t0, t1),
    }
}

/// End of a computation of `base` nominal seconds on worker `w` starting
/// at `start` (`None` profile: `start + base`).
pub fn compute_end_opt(profile: Option<&DynProfile>, w: WorkerId, start: f64, base: f64) -> f64 {
    match profile {
        None => start + base,
        Some(p) => p.compute_end(w, start, base),
    }
}

/// A platform together with its dynamic profile and the network
/// contention model its star operates under.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DynPlatform {
    /// Nominal worker specs `(c_i, w_i, m_i)`.
    pub base: Platform,
    /// Time-varying behaviour, one entry per worker.
    pub profile: DynProfile,
    /// Network-contention model of the star (`@netmodel` directive;
    /// defaults to the paper's one-port).
    pub netmodel: NetModelSpec,
}

impl DynPlatform {
    /// Pairs a platform with a profile (one-port contention).
    ///
    /// # Panics
    /// Panics when the lengths disagree.
    pub fn new(base: Platform, profile: DynProfile) -> Self {
        assert_eq!(
            base.len(),
            profile.len(),
            "profile must describe every worker"
        );
        DynPlatform {
            base,
            profile,
            netmodel: NetModelSpec::OnePort,
        }
    }

    /// Swaps in a contention model.
    pub fn with_netmodel(mut self, netmodel: NetModelSpec) -> Self {
        self.netmodel = netmodel;
        self
    }

    /// The static limit of `base` (one-port contention).
    pub fn constant(base: Platform) -> Self {
        let p = base.len();
        DynPlatform {
            base,
            profile: DynProfile::constant(p),
            netmodel: NetModelSpec::OnePort,
        }
    }
}

fn parse_time(tok: &str, line: usize) -> Result<f64, ParseError> {
    if tok == "inf" {
        return Ok(f64::INFINITY);
    }
    let t: f64 = tok
        .parse()
        .map_err(|_| fail(line, format!("bad time {tok:?}")))?;
    if t.is_finite() && t >= 0.0 {
        Ok(t)
    } else {
        Err(fail(line, format!("bad time {tok:?}")))
    }
}

fn parse_trace(toks: &[&str], line: usize) -> Result<Trace, ParseError> {
    if toks.is_empty() {
        return Err(fail(line, "empty trace"));
    }
    let mut points = Vec::with_capacity(toks.len());
    for tok in toks {
        let (t, v) = tok
            .split_once(':')
            .ok_or_else(|| fail(line, format!("expected t:v, got {tok:?}")))?;
        let t = parse_time(t, line)?;
        let v: f64 = v
            .parse()
            .map_err(|_| fail(line, format!("bad scale {v:?}")))?;
        if !(t.is_finite() && v.is_finite() && v > 0.0) {
            return Err(fail(line, format!("bad trace point {tok:?}")));
        }
        points.push((t, v));
    }
    if points[0].0 != 0.0 {
        return Err(fail(line, "trace must start at t = 0"));
    }
    if points.windows(2).any(|p| p[0].0 >= p[1].0) {
        return Err(fail(line, "trace times must strictly increase"));
    }
    Ok(Trace::new(points))
}

/// Parses the dynamic flavour of the platform text format: static worker
/// lines (identical to [`crate::parse::parse_platform`]) interleaved
/// with `@<worker> cscale|wscale|down …` directives and an optional
/// platform-level `@netmodel …` directive
/// (`@netmodel multiport k=2 backbone=5`). A text with no directives
/// parses to the static one-port limit.
pub fn parse_dyn_platform(name: &str, text: &str, q: usize) -> Result<DynPlatform, ParseError> {
    let mut workers = Vec::new();
    let mut directives: Vec<(usize, usize, Vec<String>)> = Vec::new(); // (line, worker, rest)
    let mut netmodel: Option<NetModelSpec> = None;
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let toks: Vec<&str> = line.split_whitespace().collect();
        if toks[0] == "@netmodel" {
            if netmodel.is_some() {
                return Err(fail(line_no, "duplicate @netmodel directive"));
            }
            netmodel = Some(NetModelSpec::parse(&toks[1..]).map_err(|e| fail(line_no, e))?);
        } else if let Some(widx) = toks[0].strip_prefix('@') {
            let w: usize = widx
                .parse()
                .map_err(|_| fail(line_no, format!("bad worker index {widx:?}")))?;
            directives.push((
                line_no,
                w,
                toks[1..].iter().map(|s| s.to_string()).collect(),
            ));
        } else {
            workers.push(parse_worker_fields(&toks, line_no, q)?);
        }
    }
    if workers.is_empty() {
        return Err(fail(0, "no workers defined"));
    }
    let mut dyns = vec![WorkerDyn::stable(); workers.len()];
    let mut seen: std::collections::HashSet<(usize, &str)> = std::collections::HashSet::new();
    for (line_no, w, rest) in directives {
        if w >= workers.len() {
            return Err(fail(line_no, format!("worker {w} not defined")));
        }
        let toks: Vec<&str> = rest.iter().map(String::as_str).collect();
        match toks.split_first() {
            Some((&"cscale", points)) => {
                if !seen.insert((w, "cscale")) {
                    return Err(fail(line_no, format!("duplicate cscale for worker {w}")));
                }
                dyns[w].c_scale = parse_trace(points, line_no)?;
            }
            Some((&"wscale", points)) => {
                if !seen.insert((w, "wscale")) {
                    return Err(fail(line_no, format!("duplicate wscale for worker {w}")));
                }
                dyns[w].w_scale = parse_trace(points, line_no)?;
            }
            Some((&"down", [range])) => {
                let (from, until) = range
                    .split_once("..")
                    .ok_or_else(|| fail(line_no, "expected from..until"))?;
                let from = parse_time(from, line_no)?;
                let until = parse_time(until, line_no)?;
                if !from.is_finite() || until <= from {
                    return Err(fail(line_no, "empty or inverted downtime interval"));
                }
                if dyns[w].downtime.last().is_some_and(|&(_, e)| from < e) {
                    return Err(fail(line_no, "downtime intervals must be sorted, disjoint"));
                }
                dyns[w].downtime.push((from, until));
            }
            _ => return Err(fail(line_no, "expected cscale, wscale or down directive")),
        }
    }
    Ok(
        DynPlatform::new(Platform::new(name, workers), DynProfile::new(dyns))
            .with_netmodel(netmodel.unwrap_or_default()),
    )
}

fn render_time(t: f64) -> String {
    if t.is_infinite() {
        "inf".into()
    } else {
        format!("{t}")
    }
}

/// Renders a dynamic platform in the raw-block-units flavour accepted by
/// [`parse_dyn_platform`]; parsing the output reproduces the input
/// bit-for-bit (Rust's `{}` float formatting is shortest-round-trip).
pub fn render_dyn_platform(dp: &DynPlatform) -> String {
    format!("# {}\n{}", dp.base.name, render_dyn_body(dp))
}

/// The body of [`render_dyn_platform`] — worker lines, `@netmodel`, and
/// per-worker directives, without the `# name` header. The federated
/// renderer ([`crate::fed::render_fed_platform`]) emits one body per
/// `@star` section.
pub(crate) fn render_dyn_body(dp: &DynPlatform) -> String {
    let mut out = String::new();
    for spec in dp.base.workers() {
        out.push_str(&format!("{} {} {}\n", spec.c, spec.w, spec.m));
    }
    if dp.netmodel != NetModelSpec::OnePort {
        out.push_str(&format!("@netmodel {}\n", dp.netmodel));
    }
    for (w, d) in dp.profile.workers().iter().enumerate() {
        if !d.c_scale.is_one() {
            out.push_str(&format!("@{w} cscale"));
            for &(t, v) in d.c_scale.points() {
                out.push_str(&format!(" {}:{v}", render_time(t)));
            }
            out.push('\n');
        }
        if !d.w_scale.is_one() {
            out.push_str(&format!("@{w} wscale"));
            for &(t, v) in d.w_scale.points() {
                out.push_str(&format!(" {}:{v}", render_time(t)));
            }
            out.push('\n');
        }
        for &(from, until) in &d.downtime {
            out.push_str(&format!("@{w} down {}..{}\n", from, render_time(until)));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::WorkerSpec;

    #[test]
    fn constant_trace_is_identity() {
        let t = Trace::constant(1.0);
        assert!(t.is_one());
        assert_eq!(t.value_at(0.0), 1.0);
        assert_eq!(t.value_at(1e9), 1.0);
        assert_eq!(t.finish(3.0, 4.0), 7.0);
        assert_eq!(t.finish(3.0, 0.0), 3.0);
    }

    #[test]
    fn piecewise_finish_integrates_segments() {
        // scale 1 on [0,10), 2 on [10,20), 0.5 from 20.
        let t = Trace::new(vec![(0.0, 1.0), (10.0, 2.0), (20.0, 0.5)]);
        assert_eq!(t.value_at(9.999), 1.0);
        assert_eq!(t.value_at(10.0), 2.0);
        // 8 nominal seconds starting at 5: 5 at scale 1 (to t=10), then
        // 3 more at scale 2 → ends at 16.
        assert!((t.finish(5.0, 8.0) - 16.0).abs() < 1e-12);
        // 12 nominal seconds starting at 5: 5 (→10), 5 at ×2 (→20),
        // 2 at ×0.5 (→21).
        assert!((t.finish(5.0, 12.0) - 21.0).abs() < 1e-12);
        // Entirely inside the last segment.
        assert!((t.finish(30.0, 4.0) - 32.0).abs() < 1e-12);
    }

    #[test]
    fn shared_walkers_invert_each_other() {
        let t = Trace::new(vec![(0.0, 1.0), (10.0, 2.0), (20.0, 0.5)]);
        for (start, base, share) in [
            (5.0, 8.0, 1.0),
            (5.0, 8.0, 0.5),
            (0.0, 30.0, 0.25),
            (18.0, 4.0, 0.8),
        ] {
            let end = t.finish_with_share(start, base, share);
            // Serving back over [start, end] at the same share recovers
            // the nominal work.
            let served = share * t.nominal_between(start, end);
            assert!((served - base).abs() < 1e-9, "{start}/{base}/{share}");
        }
        // Full share is bitwise `finish`.
        assert_eq!(t.finish_with_share(5.0, 8.0, 1.0), t.finish(5.0, 8.0));
        // Constant trace: share s stretches by exactly 1/s.
        let c = Trace::constant(1.0);
        assert!((c.finish_with_share(3.0, 4.0, 0.5) - 11.0).abs() < 1e-12);
        assert!((c.nominal_between(3.0, 11.0) - 8.0).abs() < 1e-12);
    }

    #[test]
    fn opt_helpers_cover_the_static_limit() {
        let p = DynProfile::new(vec![WorkerDyn::new(
            Trace::new(vec![(0.0, 2.0)]),
            Trace::new(vec![(0.0, 3.0)]),
            vec![],
        )]);
        assert_eq!(transfer_end_opt(None, 0, 1.0, 4.0, 1.0), 5.0);
        assert_eq!(transfer_end_opt(None, 0, 1.0, 4.0, 0.5), 9.0);
        assert_eq!(transfer_end_opt(Some(&p), 0, 1.0, 4.0, 1.0), 9.0);
        assert_eq!(transfer_nominal_between_opt(None, 0, 2.0, 6.0), 4.0);
        assert_eq!(transfer_nominal_between_opt(Some(&p), 0, 2.0, 6.0), 2.0);
        assert_eq!(compute_end_opt(None, 0, 1.0, 4.0), 5.0);
        assert_eq!(compute_end_opt(Some(&p), 0, 1.0, 4.0), 13.0);
    }

    #[test]
    #[should_panic(expected = "strictly increase")]
    fn unsorted_trace_rejected() {
        Trace::new(vec![(0.0, 1.0), (5.0, 2.0), (5.0, 3.0)]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn non_positive_scale_rejected() {
        Trace::new(vec![(0.0, 0.0)]);
    }

    #[test]
    fn downtime_and_lifecycle_events() {
        let d = WorkerDyn::new(
            Trace::default(),
            Trace::default(),
            vec![(0.0, 5.0), (10.0, f64::INFINITY)],
        );
        assert!(!d.is_up(0.0));
        assert!(!d.is_up(4.999));
        assert!(d.is_up(5.0));
        assert!(!d.is_up(10.0));
        assert!(!d.is_up(1e12));

        let p = DynProfile::new(vec![WorkerDyn::stable(), d]);
        let evs = p.lifecycle_events();
        // Down-at-zero produces no event; up at 5 and down at 10 do.
        assert_eq!(evs.len(), 2);
        assert_eq!((evs[0].time, evs[0].worker, evs[0].up), (5.0, 1, true));
        assert_eq!((evs[1].time, evs[1].worker, evs[1].up), (10.0, 1, false));
        assert!(!p.is_up(1, 0.0));
        assert!(p.is_up(0, 0.0));
    }

    #[test]
    fn static_profile_detection() {
        assert!(DynProfile::constant(3).is_static());
        let mut d = WorkerDyn::stable();
        d.w_scale = Trace::new(vec![(0.0, 1.0), (4.0, 2.0)]);
        assert!(!DynProfile::new(vec![d]).is_static());
    }

    #[test]
    fn dyn_text_format_round_trips() {
        let base = Platform::new(
            "dyn",
            vec![
                WorkerSpec::new(1.5, 0.25, 40),
                WorkerSpec::new(3.0, 0.5, 20),
            ],
        );
        let profile = DynProfile::new(vec![
            WorkerDyn::new(
                Trace::new(vec![(0.0, 1.0), (12.5, 2.75)]),
                Trace::default(),
                vec![(50.0, f64::INFINITY)],
            ),
            WorkerDyn::new(
                Trace::default(),
                Trace::new(vec![(0.0, 1.25), (3.0, 0.8), (9.0, 1.25)]),
                vec![(0.0, 4.0), (20.0, 22.5)],
            ),
        ]);
        let dp = DynPlatform::new(base, profile);
        let text = render_dyn_platform(&dp);
        let parsed = parse_dyn_platform(&dp.base.name, &text, 80).unwrap();
        assert_eq!(parsed, dp);
    }

    #[test]
    fn plain_text_parses_to_static_limit() {
        let dp = parse_dyn_platform("s", "1.0 1.0 10\n2.0 2.0 20\n", 80).unwrap();
        assert!(dp.profile.is_static());
        assert_eq!(dp.base.len(), 2);
        assert_eq!(dp.netmodel, NetModelSpec::OnePort);
    }

    #[test]
    fn netmodel_directive_round_trips() {
        for spec in [
            NetModelSpec::BoundedMultiPort {
                k: 3,
                backbone: None,
            },
            NetModelSpec::BoundedMultiPort {
                k: 2,
                backbone: Some(6.25),
            },
            NetModelSpec::FairShare { backbone: 3.5 },
        ] {
            let dp =
                DynPlatform::constant(Platform::new("nm", vec![WorkerSpec::new(0.5, 0.25, 40)]))
                    .with_netmodel(spec);
            let text = render_dyn_platform(&dp);
            assert!(text.contains("@netmodel "), "{text}");
            let parsed = parse_dyn_platform(&dp.base.name, &text, 80).unwrap();
            assert_eq!(parsed, dp);
        }
        // One-port is the default and renders no directive at all.
        let dp =
            DynPlatform::constant(Platform::new("plain", vec![WorkerSpec::new(0.5, 0.25, 40)]));
        assert!(!render_dyn_platform(&dp).contains("@netmodel"));
        // The directive can appear anywhere and composes with worker
        // directives.
        let dp = parse_dyn_platform(
            "mix",
            "1 1 10\n@netmodel fairshare backbone=2\n@0 cscale 0:1 5:2\n",
            80,
        )
        .unwrap();
        assert_eq!(dp.netmodel, NetModelSpec::FairShare { backbone: 2.0 });
        assert!(!dp.profile.is_static());
    }

    #[test]
    fn bad_netmodel_directives_carry_line_numbers() {
        for text in [
            "1 1 10\n@netmodel warp\n",
            "1 1 10\n@netmodel multiport\n",
            "1 1 10\n@netmodel multiport k=0\n",
            "1 1 10\n@netmodel fairshare backbone=-2\n",
            "1 1 10\n@netmodel oneport\n@netmodel oneport\n",
            "1 1 10\n@netmodel\n",
        ] {
            let err = parse_dyn_platform("f", text, 80).unwrap_err();
            assert!(err.line >= 2, "{text:?}: {err}");
        }
    }

    #[test]
    fn directive_errors_carry_line_numbers() {
        let bad = [
            "1 1 10\n@2 cscale 0:1\n",                // unknown worker
            "1 1 10\n@0 cscale 1:2\n",                // trace not starting at 0
            "1 1 10\n@0 down 5..5\n",                 // empty interval
            "1 1 10\n@0 down 5..3\n",                 // inverted
            "1 1 10\n@0 down 1..4\n@0 down 2..9\n",   // overlap
            "1 1 10\n@0 spin 0:1\n",                  // unknown directive
            "1 1 10\n@0 cscale 0:1 0:2\n",            // non-increasing
            "1 1 10\n@0 cscale 0:-1\n",               // non-positive scale
            "1 1 10\n@0 cscale 0:1\n@0 cscale 0:2\n", // duplicate
            "@0 cscale 0:1\n",                        // no workers at all
        ];
        for text in bad {
            let err = parse_dyn_platform("f", text, 80).unwrap_err();
            assert!(err.line <= 3, "{text:?}: {err}");
        }
        let err = parse_dyn_platform("f", "1 1 10\noops\n@0 cscale 0:1\n", 80).unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn suffixed_units_still_work_with_directives() {
        let text = "100Mbps 2.0gflops 1024MB\n@0 cscale 0:1 7:3\n";
        let dp = parse_dyn_platform("u", text, 80).unwrap();
        assert_eq!(dp.profile.c_scale(0, 8.0), 3.0);
        assert!(dp.base.worker(0).c > 0.0);
    }
}
