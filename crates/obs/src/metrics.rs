//! Metrics registry: counters, gauges, and log-bucketed histograms.
//!
//! Histograms use logarithmic buckets — eight per octave, so bucket
//! boundaries grow by `2^(1/8) ≈ 1.09`. A quantile is answered with the
//! geometric midpoint of the bucket holding the requested rank, which
//! is within a factor `2^(1/16) ≈ 1.045` (< 5% relative error) of the
//! exact order statistic; unit tests pin this against an exact
//! sorted-vector oracle.

use std::collections::BTreeMap;

use serde::json::Value;
use serde::Serialize;

/// Buckets per factor-of-two of value range.
const PER_OCTAVE: usize = 8;
/// Smallest bucketed exponent: values below `2^MIN_EXP` land in the
/// first bucket (durations that small are noise anyway).
const MIN_EXP: i32 = -32;
/// One past the largest bucketed exponent.
const MAX_EXP: i32 = 32;
/// Total bucket count.
const NBUCKETS: usize = ((MAX_EXP - MIN_EXP) as usize) * PER_OCTAVE;

/// A fixed-footprint log-bucketed histogram of non-negative samples.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Histogram {
    /// Samples that are exactly (or effectively) zero.
    zeros: u64,
    /// Log-bucket counts; allocated lazily on the first positive sample.
    counts: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

/// Bucket index for a positive sample.
fn bucket_of(v: f64) -> usize {
    let idx = (v.log2() * PER_OCTAVE as f64).floor() as i64 - (MIN_EXP as i64 * PER_OCTAVE as i64);
    idx.clamp(0, NBUCKETS as i64 - 1) as usize
}

/// Geometric midpoint of bucket `i` — the quantile representative.
fn bucket_mid(i: usize) -> f64 {
    let exp = (i as f64 + 0.5) / PER_OCTAVE as f64 + MIN_EXP as f64;
    exp.exp2()
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Records one sample. Negative or non-finite samples count as zero
    /// (durations and widths are non-negative by construction).
    pub fn observe(&mut self, v: f64) {
        let v = if v.is_finite() && v > 0.0 { v } else { 0.0 };
        if v == 0.0 {
            self.zeros += 1;
        } else {
            if self.counts.is_empty() {
                self.counts = vec![0; NBUCKETS];
            }
            self.counts[bucket_of(v)] += 1;
        }
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum += v;
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Smallest sample, or 0 when empty.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest sample, or 0 when empty.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Arithmetic mean, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// Nearest-rank quantile estimate for `q ∈ [0, 1]`, or `None` when
    /// empty. The estimate is the geometric midpoint of the bucket
    /// containing the rank, clamped to the observed `[min, max]`, so it
    /// is within `2^(1/16)` (≈ 4.4%) of the exact order statistic.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        if rank <= self.zeros {
            return Some(0.0);
        }
        if rank == self.count {
            // The top rank is the maximum itself — report it exactly.
            return Some(self.max);
        }
        let mut seen = self.zeros;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(bucket_mid(i).clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }
}

impl Serialize for Histogram {
    fn to_value(&self) -> Value {
        let q = |p: f64| self.quantile(p).unwrap_or(0.0).to_value();
        Value::object([
            ("count", self.count.to_value()),
            ("sum", self.sum.to_value()),
            ("min", self.min.to_value()),
            ("max", self.max.to_value()),
            ("p50", q(0.50)),
            ("p95", q(0.95)),
            ("p99", q(0.99)),
        ])
    }
}

/// Named counters, gauges and histograms for one run.
///
/// Keys are ordered (`BTreeMap`), so [`MetricsRegistry::to_value`]
/// renders deterministically whatever the registration order.
#[derive(Clone, Debug, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Adds `n` to counter `name` (creating it at zero).
    pub fn add(&mut self, name: &str, n: u64) {
        // Look the key up before building it: only a counter's first
        // sample allocates. Likewise `set` and `observe`.
        match self.counters.get_mut(name) {
            Some(count) => *count += n,
            None => {
                self.counters.insert(name.to_string(), n);
            }
        }
    }

    /// Increments counter `name` by one.
    pub fn inc(&mut self, name: &str) {
        self.add(name, 1);
    }

    /// Sets gauge `name` to `v` (last write wins).
    pub fn set(&mut self, name: &str, v: f64) {
        match self.gauges.get_mut(name) {
            Some(gauge) => *gauge = v,
            None => {
                self.gauges.insert(name.to_string(), v);
            }
        }
    }

    /// Records `v` into histogram `name` (creating it empty).
    pub fn observe(&mut self, name: &str, v: f64) {
        match self.histograms.get_mut(name) {
            Some(h) => h.observe(v),
            None => {
                let mut h = Histogram::new();
                h.observe(v);
                self.histograms.insert(name.to_string(), h);
            }
        }
    }

    /// Stores `h` as histogram `name` if it holds a sample, so that a
    /// histogram exists iff something was recorded into it, as with
    /// [`MetricsRegistry::observe`].
    pub(crate) fn insert_histogram(&mut self, name: &str, h: Histogram) {
        if h.count() > 0 {
            self.histograms.insert(name.to_string(), h);
        }
    }

    /// Current value of counter `name` (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Current value of gauge `name`, if set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Histogram `name`, if any sample was ever recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }
}

impl Serialize for MetricsRegistry {
    fn to_value(&self) -> Value {
        let kv = |pairs: Vec<(String, Value)>| Value::Object(pairs);
        Value::object([
            (
                "counters",
                kv(self
                    .counters
                    .iter()
                    .map(|(k, v)| (k.clone(), v.to_value()))
                    .collect()),
            ),
            (
                "gauges",
                kv(self
                    .gauges
                    .iter()
                    .map(|(k, v)| (k.clone(), v.to_value()))
                    .collect()),
            ),
            (
                "histograms",
                kv(self
                    .histograms
                    .iter()
                    .map(|(k, v)| (k.clone(), v.to_value()))
                    .collect()),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic xorshift stream — no external rng in unit tests.
    struct XorShift(u64);
    impl XorShift {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x
        }
        fn f64(&mut self) -> f64 {
            (self.next() >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    /// Exact nearest-rank quantile over a sorted copy of the samples.
    fn exact_quantile(samples: &[f64], q: f64) -> f64 {
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
        v[rank - 1]
    }

    fn check_against_oracle(samples: &[f64]) {
        let mut h = Histogram::new();
        for &s in samples {
            h.observe(s);
        }
        assert_eq!(h.count(), samples.len() as u64);
        for &q in &[0.0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0] {
            let exact = exact_quantile(samples, q);
            let est = h.quantile(q).unwrap();
            // Geometric-midpoint representative: within 2^(1/16) of the
            // true order statistic (5% covers it with slack).
            let tol = exact.abs() * 0.05 + 1e-12;
            assert!(
                (est - exact).abs() <= tol,
                "q={q}: est {est} vs exact {exact} (n={})",
                samples.len()
            );
        }
    }

    #[test]
    fn quantiles_match_exact_oracle_uniform() {
        let mut rng = XorShift(0x9e3779b97f4a7c15);
        let samples: Vec<f64> = (0..5000).map(|_| rng.f64() * 40.0).collect();
        check_against_oracle(&samples);
    }

    #[test]
    fn quantiles_match_exact_oracle_heavy_tail() {
        let mut rng = XorShift(20080220);
        // Exponentiated uniform: spans ~9 orders of magnitude.
        let samples: Vec<f64> = (0..3000)
            .map(|_| (rng.f64() * 20.0 - 10.0).exp2())
            .collect();
        check_against_oracle(&samples);
    }

    #[test]
    fn quantiles_match_exact_oracle_with_zeros_and_ties() {
        let mut samples = vec![0.0; 500];
        samples.extend(std::iter::repeat_n(3.5, 500));
        samples.extend((1..=500).map(|i| i as f64 * 0.01));
        check_against_oracle(&samples);
    }

    #[test]
    fn empty_histogram_has_no_quantiles() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.mean(), None);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn single_sample_is_every_quantile() {
        let mut h = Histogram::new();
        h.observe(7.25);
        for &q in &[0.0, 0.5, 1.0] {
            let est = h.quantile(q).unwrap();
            assert!((est - 7.25).abs() <= 7.25 * 0.05, "q={q}: {est}");
        }
        assert_eq!(h.min(), 7.25);
        assert_eq!(h.max(), 7.25);
    }

    #[test]
    fn extreme_values_clamp_into_edge_buckets() {
        let mut h = Histogram::new();
        h.observe(1e-40); // below 2^-32: first bucket
        h.observe(1e40); // above 2^32: last bucket
        h.observe(f64::INFINITY); // non-finite: counted as zero
        h.observe(-3.0); // negative: counted as zero
        assert_eq!(h.count(), 4);
        assert_eq!(h.quantile(0.25), Some(0.0));
        // The p100 is the clamped max, not the bucket midpoint.
        assert_eq!(h.quantile(1.0), Some(1e40));
    }

    #[test]
    fn registry_counters_gauges_roundtrip() {
        let mut m = MetricsRegistry::new();
        m.inc("events.dispatch");
        m.add("events.dispatch", 2);
        m.set("frontier.width", 4.0);
        m.observe("step.secs", 1.5);
        assert_eq!(m.counter("events.dispatch"), 3);
        assert_eq!(m.counter("untouched"), 0);
        assert_eq!(m.gauge("frontier.width"), Some(4.0));
        assert_eq!(m.histogram("step.secs").unwrap().count(), 1);
        let rendered = m.to_value().render();
        assert!(rendered.contains("\"events.dispatch\":3"));
        assert!(rendered.contains("\"histograms\""));
    }
}
