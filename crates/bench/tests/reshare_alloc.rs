//! The re-share hot path allocates nothing once its scratch is warm —
//! asserted under a counting global allocator, so `cargo test` checks
//! what `netperf::tests::netmodel_steady_state_is_allocation_free` can
//! only check inside `exp_perf`.
//!
//! One `#[test]` on purpose: the counter is process-wide, and a second
//! test running on another thread would allocate into the reading.

use stargemm_bench::netperf::{netmodel_steady_state_bytes, total_allocated, CountingAlloc};
use stargemm_netmodel::{maxmin_shares_into, ShareScratch, TransferLane};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn warm_reshare_allocates_nothing_at_any_width() {
    assert!(total_allocated() > 0, "the counting allocator is not live");
    for lanes in [64, 256, 1_024] {
        assert_eq!(netmodel_steady_state_bytes(lanes, 200), 0, "{lanes} lanes");
    }

    // Shrinking keeps every buffer: 1 024 → 8 → 1 024 lanes through one
    // scratch grows nothing the second time.
    let wide: Vec<TransferLane> = (0..1_024)
        .map(|i| TransferLane {
            worker: i / 2,
            link_rate: 1.0 / (1.0 + i as f64),
        })
        .collect();
    let mut scratch = ShareScratch::new();
    maxmin_shares_into(&wide, 0.75, &mut scratch);
    let before = total_allocated();
    maxmin_shares_into(&wide[..8], 0.75, &mut scratch);
    maxmin_shares_into(&wide, 0.75, &mut scratch);
    assert_eq!(scratch.shares().len(), 1_024);
    assert_eq!(total_allocated() - before, 0);
}
