//! Worker specifications and the star platform container.

use serde::{Deserialize, Serialize};

/// Index of a worker in its [`Platform`] (0-based; the master is not a
/// worker — the paper assumes it has no processing capability).
pub type WorkerId = usize;

/// One worker of the star platform, in block units.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct WorkerSpec {
    /// Seconds to transfer one `q × q` block between master and this
    /// worker (same cost both directions; one-port model).
    pub c: f64,
    /// Seconds for this worker to perform one block update.
    pub w: f64,
    /// Number of block buffers available in this worker's memory.
    pub m: usize,
}

impl WorkerSpec {
    /// Creates a spec, validating that costs are positive and finite and
    /// that at least the minimal working set (3 blocks: one of each
    /// matrix) fits in memory.
    ///
    /// # Panics
    /// Panics on non-positive/non-finite costs or `m < 3`.
    pub fn new(c: f64, w: f64, m: usize) -> Self {
        assert!(c.is_finite() && c > 0.0, "c must be positive, got {c}");
        assert!(w.is_finite() && w > 0.0, "w must be positive, got {w}");
        assert!(m >= 3, "need at least 3 block buffers, got {m}");
        WorkerSpec { c, w, m }
    }

    /// Whether this worker dominates `other` (at least as fast on every
    /// dimension). Used by the HomI virtual-platform construction.
    pub fn dominates(&self, other: &WorkerSpec) -> bool {
        self.c <= other.c && self.w <= other.w && self.m >= other.m
    }
}

/// A fully heterogeneous star platform: `p` workers around a master.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Platform {
    workers: Vec<WorkerSpec>,
    /// Human-readable label used in experiment reports.
    pub name: String,
}

impl Platform {
    /// Builds a platform from worker specs.
    ///
    /// # Panics
    /// Panics if no workers are supplied.
    pub fn new(name: impl Into<String>, workers: Vec<WorkerSpec>) -> Self {
        assert!(!workers.is_empty(), "a platform needs at least one worker");
        Platform {
            workers,
            name: name.into(),
        }
    }

    /// A fully homogeneous platform: `p` identical workers.
    pub fn homogeneous(name: impl Into<String>, p: usize, spec: WorkerSpec) -> Self {
        assert!(p > 0, "a platform needs at least one worker");
        Platform {
            workers: vec![spec; p],
            name: name.into(),
        }
    }

    /// Number of workers `p`.
    #[inline]
    pub fn len(&self) -> usize {
        self.workers.len()
    }

    /// Always false by construction.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Spec of worker `i`.
    ///
    /// # Panics
    /// Panics when `i` is out of range.
    #[inline]
    pub fn worker(&self, i: WorkerId) -> &WorkerSpec {
        &self.workers[i]
    }

    /// All worker specs in index order.
    #[inline]
    pub fn workers(&self) -> &[WorkerSpec] {
        &self.workers
    }

    /// Iterator over `(WorkerId, &WorkerSpec)`.
    pub fn iter(&self) -> impl Iterator<Item = (WorkerId, &WorkerSpec)> {
        self.workers.iter().enumerate()
    }

    /// Whether every worker has identical parameters (a *fully
    /// homogeneous* platform in the paper's terms).
    pub fn is_homogeneous(&self) -> bool {
        let first = self.workers[0];
        self.workers.iter().all(|s| *s == first)
    }

    /// Heterogeneity summary: `(max/min c, max/min w, max/min m)`.
    /// Used to label experiment outputs like Figure 7's ratio-2/ratio-4
    /// platforms.
    pub fn heterogeneity(&self) -> (f64, f64, f64) {
        let fold = |f: fn(&WorkerSpec) -> f64| {
            let mut min = f64::INFINITY;
            let mut max = f64::NEG_INFINITY;
            for s in &self.workers {
                min = min.min(f(s));
                max = max.max(f(s));
            }
            max / min
        };
        (fold(|s| s.c), fold(|s| s.w), fold(|s| s.m as f64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_validation() {
        let s = WorkerSpec::new(2.0, 4.5, 21);
        assert_eq!((s.c, s.w, s.m), (2.0, 4.5, 21));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn spec_rejects_zero_cost() {
        WorkerSpec::new(0.0, 1.0, 10);
    }

    #[test]
    #[should_panic(expected = "3 block buffers")]
    fn spec_rejects_tiny_memory() {
        WorkerSpec::new(1.0, 1.0, 2);
    }

    #[test]
    fn dominance_is_partial_order_like() {
        let fast = WorkerSpec::new(1.0, 1.0, 100);
        let slow = WorkerSpec::new(2.0, 2.0, 50);
        let mixed = WorkerSpec::new(0.5, 3.0, 50);
        assert!(fast.dominates(&slow));
        assert!(!slow.dominates(&fast));
        assert!(!fast.dominates(&mixed) || !mixed.dominates(&fast));
        assert!(fast.dominates(&fast));
    }

    #[test]
    fn homogeneous_detection() {
        let s = WorkerSpec::new(1.0, 2.0, 30);
        let p = Platform::homogeneous("hom", 4, s);
        assert!(p.is_homogeneous());
        assert_eq!(p.len(), 4);

        let mut specs = vec![s; 3];
        specs[1].w = 3.0;
        let q = Platform::new("het", specs);
        assert!(!q.is_homogeneous());
    }

    #[test]
    fn heterogeneity_ratios() {
        let p = Platform::new(
            "h",
            vec![WorkerSpec::new(1.0, 2.0, 10), WorkerSpec::new(4.0, 2.0, 40)],
        );
        let (rc, rw, rm) = p.heterogeneity();
        assert_eq!(rc, 4.0);
        assert_eq!(rw, 1.0);
        assert_eq!(rm, 4.0);
    }
}
