//! The paper's benchmark phase: measure this machine's kernel rate and
//! derive the reactor's time scale from it.
//!
//! Before every run, the paper's implementation times the transfer and
//! the update of a single `q × q` block ten times per worker and takes
//! the median. Here the compute half is measured for real (the links are
//! emulated, so `c` comes from the configured bandwidth).

use std::hint::black_box;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use stargemm_linalg::gemm::{block_update, flops_per_update};
use stargemm_linalg::Block;
use stargemm_platform::Platform;

/// Shortest batch of updates timed as one sample: long enough that the
/// clock's own cost and resolution (tens of ns) are below a thousandth
/// of it, whatever `q`.
const MIN_SAMPLE_SECS: f64 = 200e-6;

/// Median wall-clock time of one `q × q` block update over `reps`
/// samples (the paper uses ten). A sample times a batch of back-to-back
/// updates at least 200 µs long and divides by its size: one update
/// takes ~4 µs at `q = 32` and tens of ns at `q = 2`, where a single
/// timed call would measure the clock.
pub fn measure_block_update_seconds(q: usize, reps: usize) -> f64 {
    assert!(reps > 0, "need at least one repetition");
    let mut rng = StdRng::seed_from_u64(0xCA11B);
    let a = Block::random(q, &mut rng);
    let b = Block::random(q, &mut rng);
    let mut c = Block::zeros(q);
    let mut batch_secs = |batch: usize| {
        let t0 = Instant::now();
        for _ in 0..batch {
            block_update(&mut c, black_box(&a), black_box(&b));
        }
        t0.elapsed().as_secs_f64()
    };
    // Doubling up to the batch size is also the warm-up: it faults the
    // pages in and warms the cache.
    let mut batch = 1;
    while batch_secs(batch) < MIN_SAMPLE_SECS {
        batch *= 2;
    }
    let mut times: Vec<f64> = (0..reps)
        .map(|_| batch_secs(batch) / batch as f64)
        .collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

/// The kernel rate in GFLOP/s that `update_secs` per `q × q` block
/// update amounts to.
pub fn gflops_at(q: usize, update_secs: f64) -> f64 {
    flops_per_update(q) as f64 / update_secs / 1e9
}

/// Smallest `time_scale` at which the reactor's pacing clock dominates
/// real kernel work, given an already-measured block-update time.
///
/// The reactor runs every worker's GEMM inline on the master thread and
/// then sleeps until the wall clock catches up with `model_time ×
/// time_scale`. If some worker's paced update time `w_i × time_scale`
/// is shorter than the real kernel, the wall clock is permanently ahead
/// — the run degenerates into an unpaced sprint whose wall makespan
/// measures this machine instead of the model. The worst-case ratio of
/// measured to modelled update time is the smallest scale that keeps
/// every worker inside its paced budget.
pub fn time_scale_for_measured(platform: &Platform, measured_update_secs: f64) -> f64 {
    assert!(
        measured_update_secs > 0.0,
        "measured update time must be positive"
    );
    platform
        .workers()
        .iter()
        .map(|spec| measured_update_secs / spec.w)
        .fold(0.0, f64::max)
}

/// Measures this machine's kernel and returns the smallest `time_scale`
/// that keeps the reactor's virtual clock ahead of real compute on
/// `platform` — the value to feed `NetOptions::time_scale` for
/// wall-clock-faithful runs (see [`time_scale_for_measured`]).
pub fn time_scale_for(platform: &Platform, q: usize, reps: usize) -> f64 {
    time_scale_for_measured(platform, measure_block_update_seconds(q, reps))
}

#[cfg(test)]
mod tests {
    use super::*;
    use stargemm_platform::WorkerSpec;

    #[test]
    fn measurement_is_positive_and_plausible() {
        let secs = measure_block_update_seconds(32, 5);
        assert!(secs > 0.0);
        // A 32³ update is 65 kflop; any machine does it within a second.
        assert!(secs < 1.0);
    }

    #[test]
    fn time_scale_is_the_worst_case_ratio() {
        let platform = Platform::new(
            "t",
            vec![
                WorkerSpec::new(1.0, 2.0, 8),
                WorkerSpec::new(1.0, 0.5, 8),
                WorkerSpec::new(1.0, 4.0, 8),
            ],
        );
        // The fastest modelled worker (w = 0.5) binds the scale.
        let ts = time_scale_for_measured(&platform, 1.0);
        assert!((ts - 2.0).abs() < 1e-12, "got {ts}");
    }

    #[test]
    fn measured_time_scale_keeps_every_worker_paced() {
        let platform = Platform::new(
            "t",
            vec![
                WorkerSpec::new(1e-6, 1e-6, 8),
                WorkerSpec::new(1e-6, 4e-6, 8),
            ],
        );
        let measured = measure_block_update_seconds(16, 3);
        let ts = time_scale_for(&platform, 16, 3);
        assert!(ts > 0.0);
        // Re-measurement varies, but the scale from *one* measurement
        // must cover that measurement on the fastest worker.
        let recheck = time_scale_for_measured(&platform, measured);
        for spec in platform.workers() {
            assert!(spec.w * recheck >= measured - 1e-15);
        }
    }
}
