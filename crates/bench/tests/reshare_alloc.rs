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

    // Symmetric sets (one lane per link, one rate) go through the
    // per-lane-count cache: a 16-lane multi-port star going 15 ↔ 16
    // lanes, then every width from 1 to 384, grow nothing once warm.
    let star: Vec<TransferLane> = (0..384)
        .map(|w| TransferLane {
            worker: w,
            link_rate: 1e4,
        })
        .collect();
    let bytes_once_warm = |widths: &[usize], scratch: &mut ShareScratch| {
        for &n in widths {
            maxmin_shares_into(&star[..n], 8e4, scratch);
        }
        let before = total_allocated();
        for _ in 0..50 {
            for &n in widths {
                maxmin_shares_into(&star[..n], 8e4, scratch);
            }
        }
        total_allocated() - before
    };
    let mut scratch = ShareScratch::new();
    assert_eq!(bytes_once_warm(&[16, 15], &mut scratch), 0);
    let sweep: Vec<usize> = (1..=384).collect();
    assert_eq!(bytes_once_warm(&sweep, &mut scratch), 0);
}
