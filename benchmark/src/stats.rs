//! Order statistics for timing samples.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! "exclusive" method), because that is what the acceptance driver
//! applies to ten runs of each workload; the `compare` subcommand and
//! the README's spread figures use the same arithmetic.

/// Median, quartiles, extremes and count of one sample set.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

impl Summary {
    /// Summarises `samples`; `None` when empty.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        let [q1, median, q3] = quartiles_sorted(&v);
        Some(Summary {
            median,
            q1,
            q3,
            min: v[0],
            max: v[v.len() - 1],
            n: v.len(),
        })
    }

    /// A summary of one exact (deterministic) value.
    pub fn exact(value: f64) -> Summary {
        Summary {
            median: value,
            q1: value,
            q3: value,
            min: value,
            max: value,
            n: 1,
        }
    }

    /// Inter-quartile distance as a share of the median (0 when the
    /// median is 0) — the driver's spread.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// `[Q1, median, Q3]` of an ascending slice, exclusive method: the
/// `i`-th cut sits at rank `i·(n+1)/4`, linearly interpolated and
/// clamped to the sample range. One sample is its own quartiles.
fn quartiles_sorted(v: &[f64]) -> [f64; 3] {
    let n = v.len();
    if n == 1 {
        return [v[0]; 3];
    }
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta.clamp(0.0, 1.0)
    };
    [cut(1), cut(2), cut(3)]
}

/// Median of `samples` (NaN when empty).
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).map_or(f64::NAN, |s| s.median)
}

/// Nearest-rank percentile `p ∈ [0, 100]` of `samples` (NaN when empty).
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p / 100.0 * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert_eq!((s.min, s.max, s.n), (1.0, 10.0, 10));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2, 4, 8, 16, 32, 64], n=4) == [2, 8, 32]
        let s = Summary::of(&[64.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.0, 8.0, 32.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25], clamped
        // here to the sample range so a quartile is never outside it.
        let s = Summary::of(&[1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.0, 1.5, 2.0));
    }

    #[test]
    fn degenerate_samples() {
        assert!(Summary::of(&[]).is_none());
        let s = Summary::of(&[7.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3, s.n), (7.0, 7.0, 7.0, 1));
        assert_eq!(s.spread(), 0.0);
        assert_eq!(Summary::exact(0.0).spread(), 0.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v).unwrap();
        assert!((s.spread() - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 100.0);
        assert_eq!(percentile(&v, 95.0), 190.0);
        assert_eq!(percentile(&v, 100.0), 200.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
    }
}
