//! Run analytics: where did the time go?
//!
//! Turns a recorded run into the quantities the paper reasons about
//! informally — port utilization, per-worker busy/idle fractions, and
//! the fraction of port time that overlapped some computation (the
//! payoff of the double-buffered layout). Only closed intervals count:
//! a step cancelled by a crash never finished, so it is not work.

use crate::event::ObsEvent;
use crate::span::{spans, Track};

/// Per-worker time breakdown.
#[derive(Clone, Debug, PartialEq)]
pub struct WorkerBreakdown {
    /// Seconds computing.
    pub compute: f64,
    /// Seconds with an inbound/outbound transfer on the wire.
    pub transfer: f64,
    /// First activity start.
    pub first_active: f64,
    /// Last activity end.
    pub last_active: f64,
}

/// Whole-run analysis of a recorded run.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceAnalysis {
    /// End of the last interval.
    pub horizon: f64,
    /// Seconds at least one lane of the master's port was busy.
    pub port_busy: f64,
    /// Fraction of port-busy time during which at least one worker was
    /// computing (communication/computation overlap).
    pub overlap_fraction: f64,
    /// Per-worker breakdowns.
    pub workers: Vec<WorkerBreakdown>,
}

impl TraceAnalysis {
    /// Port utilization over the horizon.
    pub fn port_utilization(&self) -> f64 {
        if self.horizon > 0.0 {
            self.port_busy / self.horizon
        } else {
            0.0
        }
    }
}

/// Merges overlapping intervals into a sorted disjoint set.
fn merge(mut intervals: Vec<(f64, f64)>) -> Vec<(f64, f64)> {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut out: Vec<(f64, f64)> = Vec::with_capacity(intervals.len());
    for (s, e) in intervals {
        match out.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => out.push((s, e)),
        }
    }
    out
}

/// Total length of a disjoint interval set.
fn measure(disjoint: &[(f64, f64)]) -> f64 {
    disjoint.iter().map(|(s, e)| e - s).sum()
}

/// Measure of the intersection of two sorted disjoint interval sets:
/// one sweep, always advancing whichever interval ends first.
fn intersection_measure(a: &[(f64, f64)], b: &[(f64, f64)]) -> f64 {
    let (mut i, mut j, mut total) = (0, 0, 0.0);
    while i < a.len() && j < b.len() {
        let lo = a[i].0.max(b[j].0);
        let hi = a[i].1.min(b[j].1);
        if hi > lo {
            total += hi - lo;
        }
        if a[i].1 <= b[j].1 {
            i += 1;
        } else {
            j += 1;
        }
    }
    total
}

/// Analyzes the recorded run of a `num_workers`-worker star.
pub fn analyze(events: &[ObsEvent], num_workers: usize) -> TraceAnalysis {
    let mut horizon = 0.0f64;
    let mut port = Vec::new();
    let mut computes = Vec::new();
    let mut workers = vec![
        WorkerBreakdown {
            compute: 0.0,
            transfer: 0.0,
            first_active: f64::INFINITY,
            last_active: 0.0,
        };
        num_workers
    ];
    for s in spans(events) {
        let Some(end) = s.end else { continue };
        let (worker, is_compute) = match s.track {
            Track::Port { worker, .. } => (worker, false),
            Track::Compute { worker, .. } => (worker, true),
            _ => continue,
        };
        horizon = horizon.max(end);
        if is_compute {
            computes.push((s.start, end));
        } else {
            port.push((s.start, end));
        }
        if let Some(w) = workers.get_mut(worker) {
            if is_compute {
                w.compute += end - s.start;
            } else {
                w.transfer += end - s.start;
            }
            w.first_active = w.first_active.min(s.start);
            w.last_active = w.last_active.max(end);
        }
    }
    // Lanes of a multi-port model overlap each other, and so do the
    // compute intervals of different workers: merge both sides before
    // intersecting, or concurrent lanes count their overlap twice.
    let port = merge(port);
    let port_busy = measure(&port);
    let overlap = intersection_measure(&port, &merge(computes));
    let overlap_fraction = if port_busy > 0.0 {
        overlap / port_busy
    } else {
        0.0
    };

    TraceAnalysis {
        horizon,
        port_busy,
        overlap_fraction,
        workers,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::testlog::{compute, port};

    #[test]
    fn merge_and_measure_collapse_overlaps() {
        let merged = merge(vec![(1.0, 3.0), (0.0, 2.0), (5.0, 6.0)]);
        assert_eq!(merged, vec![(0.0, 3.0), (5.0, 6.0)]);
        assert_eq!(measure(&merged), 4.0);
        assert_eq!(measure(&[]), 0.0);
    }

    #[test]
    fn sweep_intersects_disjoint_sets() {
        let a = [(0.0, 2.0), (3.0, 6.0), (8.0, 9.0)];
        let b = [(1.0, 4.0), (5.0, 8.5)];
        // [1,2] + [3,4] + [5,6] + [8,8.5]
        assert_eq!(intersection_measure(&a, &b), 3.5);
        assert_eq!(intersection_measure(&b, &a), 3.5);
        assert_eq!(intersection_measure(&a, &[]), 0.0);
    }

    #[test]
    fn full_overlap_analysis() {
        // Port busy 0-4 (two sends); worker 0 computes 2-6.
        let mut log = Vec::new();
        log.extend(port(0.0, 2.0, 0, 0, 0));
        log.extend(port(2.0, 4.0, 0, 0, 0));
        log.extend(compute(2.0, 6.0, 0, 0));
        let a = analyze(&log, 1);
        assert_eq!(a.horizon, 6.0);
        assert_eq!(a.port_busy, 4.0);
        // Overlap: [2,4] of the 4 port seconds → 0.5.
        assert!((a.overlap_fraction - 0.5).abs() < 1e-12);
        assert!((a.port_utilization() - 4.0 / 6.0).abs() < 1e-12);
        assert_eq!(a.workers[0].compute, 4.0);
        assert_eq!(a.workers[0].transfer, 4.0);
        assert_eq!(a.workers[0].first_active, 0.0);
        assert_eq!(a.workers[0].last_active, 6.0);
    }

    #[test]
    fn multiworker_computes_are_merged_before_intersection() {
        // Two workers computing in parallel must not double-count overlap.
        let mut log = Vec::new();
        log.extend(port(0.0, 2.0, 0, 0, 0));
        log.extend(compute(0.0, 2.0, 0, 0));
        log.extend(compute(0.0, 2.0, 1, 1));
        let a = analyze(&log, 2);
        assert!((a.overlap_fraction - 1.0).abs() < 1e-12);
    }

    #[test]
    fn concurrent_lanes_fully_covered_by_compute_overlap_exactly_once() {
        // Two lanes of a multi-port model busy over the same [0, 2],
        // a third worker computing throughout: every port-busy second
        // overlaps compute, once.
        let mut log = Vec::new();
        log.extend(port(0.0, 2.0, 0, 0, 0));
        log.extend(port(0.0, 2.0, 1, 1, 1));
        log.extend(compute(0.0, 2.0, 2, 2));
        let a = analyze(&log, 3);
        assert_eq!(a.port_busy, 2.0);
        assert_eq!(a.overlap_fraction, 1.0);
    }

    #[test]
    fn empty_trace_is_all_zero() {
        let a = analyze(&[], 2);
        assert_eq!(a.horizon, 0.0);
        assert_eq!(a.port_utilization(), 0.0);
        assert_eq!(a.overlap_fraction, 0.0);
        assert_eq!(a.workers.len(), 2);
    }
}
