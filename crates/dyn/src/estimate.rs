//! Online estimation of the per-worker costs `(ĉ_i, ŵ_i)`.
//!
//! The adaptive master cannot read the platform's dynamic profile — in
//! production nobody hands the scheduler a trace of the future. It can
//! only *observe*: a transfer of `X` blocks that held the port for `d`
//! seconds witnesses `ĉ = d / X`; a compute step of `U` updates that ran
//! for `d` seconds witnesses `ŵ = d / U`. Observations feed an
//! exponentially weighted moving average per worker, and a *baseline*
//! snapshot taken at a worker's first accepted observation turns the
//! stream into a drift detector: when the smoothed estimate strays from
//! the baseline by more than the adaptive master's fixed ratio, the
//! platform has genuinely changed and the schedule should be revisited.
//!
//! Observations shorter than a floor duration (`MIN_SAMPLE`) are
//! discarded — below the clock's resolution a ratio of two tiny numbers
//! measures scheduling noise, not hardware.

/// EWMA smoothing weight for cost observations.
const ALPHA: f64 = 0.5;

/// Observations shorter than this many engine-clock seconds are
/// discarded as measurement noise. One accepted observation suffices to
/// trust an estimate (and anchor its baseline): model-time measurements
/// are exact, wall-clock noise is filtered here, and rebasing after each
/// rebalance prevents thrash. On reactor runs at small time scales every
/// observation falls under this floor, which keeps adaptation off there.
const MIN_SAMPLE: f64 = 1e-3;

/// One exponentially weighted moving average with drift tracking.
#[derive(Clone, Copy, Debug, Default)]
pub struct Ewma {
    value: f64,
    /// Accepted observations so far.
    count: u32,
    /// Snapshot taken at the first accepted observation (and again
    /// after every rebalance); drift is measured against it.
    baseline: Option<f64>,
}

impl Ewma {
    /// Smoothed estimate, if any observation was accepted.
    pub fn value(&self) -> Option<f64> {
        (self.count > 0).then_some(self.value)
    }

    /// Number of accepted observations.
    pub fn count(&self) -> u32 {
        self.count
    }

    /// Feeds one observation with smoothing weight `ALPHA`.
    pub fn observe(&mut self, obs: f64) {
        debug_assert!(obs.is_finite() && obs > 0.0);
        self.value = if self.count == 0 {
            obs
        } else {
            ALPHA * obs + (1.0 - ALPHA) * self.value
        };
        self.count += 1;
    }

    /// Anchors the drift baseline. The estimator anchors at the
    /// *nominal* (planned) cost at the first accepted observation, so drift
    /// measures "reality vs what the current schedule assumed".
    pub fn set_baseline(&mut self, v: f64) {
        self.baseline = Some(v);
    }

    /// Relative deviation of the estimate from its baseline
    /// (`|value/baseline − 1|`), 0 before any observation.
    pub fn drift(&self) -> f64 {
        match self.baseline {
            Some(b) if b > 0.0 => (self.value / b - 1.0).abs(),
            _ => 0.0,
        }
    }

    /// Re-anchors the baseline at the current estimate (after the
    /// schedule has been adapted to it).
    pub fn rebase(&mut self) {
        if self.count > 0 {
            self.baseline = Some(self.value);
        }
    }
}

/// Per-worker cost estimators plus the calibration fallback for workers
/// that have not been observed yet.
#[derive(Clone, Debug)]
pub struct CostEstimator {
    /// Nominal (assumed) per-block and per-update costs.
    nominal_c: Vec<f64>,
    nominal_w: Vec<f64>,
    /// Observed estimates.
    pub est_c: Vec<Ewma>,
    pub est_w: Vec<Ewma>,
}

impl CostEstimator {
    /// An estimator seeded with the nominal costs.
    pub fn new(nominal_c: Vec<f64>, nominal_w: Vec<f64>) -> Self {
        assert_eq!(nominal_c.len(), nominal_w.len());
        let p = nominal_c.len();
        CostEstimator {
            nominal_c,
            nominal_w,
            est_c: vec![Ewma::default(); p],
            est_w: vec![Ewma::default(); p],
        }
    }

    /// Witnesses a transfer of `blocks` blocks over `duration` seconds.
    /// Returns `true` when the observation was accepted.
    pub fn observe_transfer(&mut self, w: usize, blocks: u64, duration: f64) -> bool {
        if blocks == 0 || !(duration.is_finite()) || duration < MIN_SAMPLE {
            return false;
        }
        self.est_c[w].observe(duration / blocks as f64);
        if self.est_c[w].count() == 1 {
            self.est_c[w].set_baseline(self.nominal_c[w]);
        }
        true
    }

    /// Witnesses a compute interval of `updates` updates over `duration`
    /// seconds. Returns `true` when the observation was accepted.
    pub fn observe_compute(&mut self, w: usize, updates: u64, duration: f64) -> bool {
        if updates == 0 || !(duration.is_finite()) || duration < MIN_SAMPLE {
            return false;
        }
        self.est_w[w].observe(duration / updates as f64);
        if self.est_w[w].count() == 1 {
            self.est_w[w].set_baseline(self.nominal_w[w]);
        }
        true
    }

    /// Largest baseline drift across the observed estimates.
    pub fn max_drift(&self) -> f64 {
        self.est_c
            .iter()
            .chain(&self.est_w)
            .map(Ewma::drift)
            .fold(0.0, f64::max)
    }

    /// Re-anchors every baseline (after a rebalance consumed the drift).
    pub fn rebase(&mut self) {
        for e in self.est_c.iter_mut().chain(self.est_w.iter_mut()) {
            e.rebase();
        }
    }

    /// Effective per-block cost for planning: the observed estimate once
    /// there is one, else the nominal cost scaled by the geometric mean of
    /// observed/nominal ratios (so an engine whose clock runs in
    /// different units still ranks workers correctly).
    pub fn effective_c(&self, w: usize) -> f64 {
        Self::effective(w, &self.est_c, &self.nominal_c)
    }

    /// Effective per-update cost for planning (see [`Self::effective_c`]).
    pub fn effective_w(&self, w: usize) -> f64 {
        Self::effective(w, &self.est_w, &self.nominal_w)
    }

    fn effective(w: usize, ests: &[Ewma], nominals: &[f64]) -> f64 {
        if let Some(v) = ests[w].value() {
            return v;
        }
        let (mut log_sum, mut n) = (0.0, 0u32);
        for (e, &nom) in ests.iter().zip(nominals) {
            if let Some(v) = e.value() {
                log_sum += (v / nom).ln();
                n += 1;
            }
        }
        let calib = if n == 0 {
            1.0
        } else {
            (log_sum / n as f64).exp()
        };
        nominals[w] * calib
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ewma_converges_and_tracks_drift() {
        let mut e = Ewma::default();
        for _ in 0..10 {
            e.observe(2.0);
        }
        e.set_baseline(2.0);
        assert!((e.value().unwrap() - 2.0).abs() < 1e-12);
        assert!(e.drift() < 1e-12);
        // The platform shifts ×3: drift grows past any reasonable bar.
        for _ in 0..20 {
            e.observe(6.0);
        }
        assert!(e.drift() > 1.0, "{}", e.drift());
        e.rebase();
        assert!(e.drift() < 1e-12);
    }

    #[test]
    fn short_samples_are_rejected() {
        let mut est = CostEstimator::new(vec![1.0], vec![1.0]);
        assert!(!est.observe_transfer(0, 4, MIN_SAMPLE / 2.0));
        assert!(!est.observe_compute(0, 4, 0.0));
        assert_eq!(est.est_c[0].count(), 0);
        assert!(est.observe_transfer(0, 4, 0.8));
        assert_eq!(est.est_c[0].count(), 1);
    }

    #[test]
    fn effective_costs_fall_back_to_calibrated_nominal() {
        // Two workers, nominal c = [1, 2]. Only worker 0 observed, at
        // ×10 the nominal: the unobserved worker is scaled by the same
        // factor, preserving the ranking.
        let mut est = CostEstimator::new(vec![1.0, 2.0], vec![1.0, 1.0]);
        est.observe_transfer(0, 1, 10.0);
        assert!((est.effective_c(0) - 10.0).abs() < 1e-12);
        assert!((est.effective_c(1) - 20.0).abs() < 1e-9);
        // No compute observations at all → plain nominal.
        assert!((est.effective_w(1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn first_observation_anchors_the_baseline_at_the_nominal_cost() {
        let mut est = CostEstimator::new(vec![1.0], vec![1.0]);
        assert_eq!(est.max_drift(), 0.0); // nothing observed yet

        // The first observation anchors the baseline at the *nominal*
        // cost (1.0): the platform is ×9 off what the plan assumed →
        // drift at once.
        est.observe_transfer(0, 1, 9.0);
        assert!(est.max_drift() > 1.0);
        est.rebase(); // schedule adapted to ĉ = 9
        assert!(est.max_drift() < 0.01);
        // Matching-the-plan observations keep drift flat.
        let mut calm = CostEstimator::new(vec![1.0], vec![1.0]);
        calm.observe_transfer(0, 1, 1.0);
        calm.observe_transfer(0, 1, 1.0);
        assert!(calm.max_drift() < 1e-12);
    }
}
