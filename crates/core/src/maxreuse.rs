//! The maximum re-use algorithm on a single worker (Section 3,
//! Figures 2–3).
//!
//! Layout: with `m` buffers, `μ` is the largest integer with
//! `1 + μ + μ² ≤ m`; one buffer holds the current A block, `μ` hold a row
//! of B, `μ²` hold a square of C that is fully computed before being
//! returned. Communication per outer iteration: `2μ²` C blocks and
//! `2μt` A/B blocks for `μ²t` updates — `CCR = 2/t + 2/μ`.
//!
//! The execution engines work at step granularity (a step's A *column*
//! is resident at once), so the simulated policy uses the slightly
//! smaller `μ` of `2μ + μ² ≤ m`; the communication volume per C block
//! and the asymptotic `CCR → 2/√m` are unchanged. The analytic formulas
//! in [`crate::bounds`] use the paper's exact layout.

use stargemm_platform::{Platform, WorkerSpec};
use stargemm_sim::{RunStats, SimError, Simulator};

use crate::assign::round_robin_queues;
use crate::job::Job;
use crate::layout::mu_no_overlap;
use crate::stream::{Serving, StreamingMaster};

/// Builds the single-worker maximum re-use policy for a worker with `m`
/// block buffers.
///
/// # Panics
/// Panics when `m` cannot hold the layout (`μ = 0`).
pub fn max_reuse_policy(job: &Job, m: usize) -> StreamingMaster {
    let mu = mu_no_overlap(m).min(job.r);
    assert!(mu > 0, "m = {m} cannot hold the max re-use layout");
    let queues = round_robin_queues(job, 1, [0], &[mu], &mut 0);
    // Window 1: no double buffering — the layout reserves a single A
    // column and B row besides the C square.
    StreamingMaster::new_static("MaxReuse", *job, queues, Serving::RoundRobin, 1)
}

/// Simulates the maximum re-use algorithm on one worker and returns the
/// run statistics (whose [`RunStats::ccr`] is compared against the
/// Section 3 bounds in the experiments).
pub fn simulate_max_reuse(job: &Job, spec: WorkerSpec) -> Result<RunStats, SimError> {
    let mut policy = max_reuse_policy(job, spec.m);
    let platform = Platform::new("single", vec![spec]);
    Simulator::new(platform).run(&mut policy)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::{ccr_lower_bound, maxreuse_ccr_asymptotic};
    use crate::geometry::validate_coverage;

    #[test]
    fn runs_within_the_declared_memory() {
        let job = Job::new(9, 7, 12, 2);
        let m = 24; // μ_no_overlap = 4 (16 + 8 = 24)
        let stats = simulate_max_reuse(&job, WorkerSpec::new(1.0, 1.0, m)).unwrap();
        assert_eq!(stats.total_updates, job.total_updates());
        assert!(stats.per_worker[0].mem_high_water <= m as u64);
    }

    #[test]
    fn coverage_is_exact() {
        let job = Job::new(9, 7, 12, 2);
        let policy = max_reuse_policy(&job, 24);
        // Policy construction plans everything statically.
        let geoms: Vec<_> = policy.geoms().copied().collect();
        validate_coverage(&job, &geoms).unwrap();
    }

    #[test]
    fn measured_ccr_respects_the_lower_bound_and_tracks_the_formula() {
        // Large t so the 2/t term is small.
        let job = Job::new(8, 60, 8, 2);
        let m = 80; // μ_no_overlap = 8 → chunks are exactly 8×8
        let stats = simulate_max_reuse(&job, WorkerSpec::new(1.0, 1.0, m)).unwrap();
        let ccr = stats.ccr();
        assert!(ccr >= ccr_lower_bound(m), "ccr {ccr}");
        // CCR = 2/t + 2/μ with μ=8, t=60: 0.0333 + 0.25 ≈ 0.2833.
        let expect = 2.0 / 60.0 + 2.0 / 8.0;
        assert!((ccr - expect).abs() < 1e-9, "ccr {ccr} vs {expect}");
        // And approaches 2/√m from above.
        assert!(ccr >= maxreuse_ccr_asymptotic(m));
    }

    #[test]
    #[should_panic(expected = "max re-use layout")]
    fn rejects_tiny_memory() {
        max_reuse_policy(&Job::new(2, 2, 2, 2), 2);
    }
}
