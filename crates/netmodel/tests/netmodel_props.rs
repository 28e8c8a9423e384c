//! Property: the grouped, one-pass-per-round re-share is *bitwise* the
//! quadratic progressive filling it replaced.
//!
//! The engines' hot loops call [`maxmin_shares_into`] with a recycled
//! [`ShareScratch`]. [`reference_maxmin`] below is the routine as it
//! stood before lanes were grouped by link — every lane rescans all
//! lanes for its link's load, twice per round — kept here, unchanged, as
//! the independent oracle. Any arithmetic drift between the two (a
//! re-ordered group sum, a backbone drained by one multiplication, a
//! buffer not fully cleared between calls) would silently de-pin every
//! golden schedule, so the contract is equality of `f64::to_bits`, not
//! approximate closeness — across random lane sets with several lanes
//! per link, per-lane and per-worker rates, dense and sparse worker ids,
//! with and without a finite backbone, including the `delta <= 0`
//! saturation break (a zero or exactly-consumed backbone freezes all
//! remaining lanes at once).

use proptest::prelude::*;
use stargemm_netmodel::{
    maxmin_shares, maxmin_shares_into, NetModelSpec, ShareScratch, TransferLane,
};

/// Progressive filling by nested scans: O(n²) per round. The oracle.
fn reference_maxmin(active: &[TransferLane], backbone: f64) -> Vec<f64> {
    let n = active.len();
    if n == 0 {
        return Vec::new();
    }
    // Lanes to the same worker share one physical link.
    let mut rates = vec![0.0; n];
    let mut frozen = vec![false; n];
    let mut backbone_left = backbone;
    let link_used = |rates: &[f64], worker: usize| -> f64 {
        active
            .iter()
            .zip(rates)
            .filter(|(l, _)| l.worker == worker)
            .map(|(_, &r)| r)
            .sum()
    };
    loop {
        let unfrozen = frozen.iter().filter(|f| !**f).count();
        if unfrozen == 0 {
            break;
        }
        // Headroom per constraint, divided by the unfrozen lanes it
        // covers: the uniform raise is the smallest such quotient.
        let mut delta = if backbone_left.is_finite() {
            backbone_left / unfrozen as f64
        } else {
            f64::INFINITY
        };
        for (i, lane) in active.iter().enumerate() {
            if frozen[i] {
                continue;
            }
            let used = link_used(&rates, lane.worker);
            let link_unfrozen = active
                .iter()
                .enumerate()
                .filter(|(j, l)| l.worker == lane.worker && !frozen[*j])
                .count();
            delta = delta.min((lane.link_rate - used) / link_unfrozen as f64);
        }
        if delta.is_nan() || delta <= 0.0 {
            // A constraint is exactly saturated (or the backbone is 0):
            // freeze everything still active at its current rate.
            break;
        }
        for i in 0..n {
            if !frozen[i] {
                rates[i] += delta;
                if backbone_left.is_finite() {
                    backbone_left -= delta;
                }
            }
        }
        // Freeze lanes whose link is now saturated. The backbone
        // saturating ends the allocation outright.
        for (i, lane) in active.iter().enumerate() {
            if frozen[i] {
                continue;
            }
            if link_used(&rates, lane.worker) >= lane.link_rate * (1.0 - 1e-12) {
                frozen[i] = true;
            }
        }
        if backbone_left.is_finite() && backbone_left <= 0.0 {
            break;
        }
    }
    active
        .iter()
        .zip(&rates)
        .map(|(l, &r)| (r / l.link_rate).min(1.0))
        .collect()
}

/// Random active sets: up to 96 lanes over 1–40 workers, so draws
/// routinely put several lanes on one physical link (the
/// progressive-filling interesting case) and sometimes produce the empty
/// set. `rate_mode` picks whose rate a lane carries — its own (lanes of
/// one worker may then freeze in different rounds), its worker's (what
/// `sim::lanes::LaneTable` builds) or one rate for the whole star;
/// `sparse` spreads the worker ids down from `usize::MAX`, where a table
/// indexed by id would not fit.
fn arb_lanes() -> impl Strategy<Value = Vec<TransferLane>> {
    (
        1usize..41,
        0usize..3,
        0usize..2,
        prop::collection::vec(0.05f64..8.0, 40..41),
        prop::collection::vec((0usize..40, 0.05f64..8.0), 0..97),
    )
        .prop_map(|(workers, rate_mode, sparse, worker_rate, raw)| {
            raw.into_iter()
                .map(|(w, lane_rate)| {
                    let w = w % workers;
                    TransferLane {
                        worker: if sparse == 1 {
                            usize::MAX - w * 1_000_003
                        } else {
                            w
                        },
                        link_rate: match rate_mode {
                            0 => lane_rate,
                            1 => worker_rate[w],
                            _ => worker_rate[0],
                        },
                    }
                })
                .collect()
        })
}

/// Backbone selector: infinite (no aggregate constraint), a plain finite
/// cap, a tiny cap that binds before any link does, exactly zero — the
/// degenerate draw that must take the `delta <= 0` break on the very
/// first filling round — and two caps cut to the lane set: a quarter of
/// the links at the first lane's rate (on a homogeneous star the
/// backbone then binds in round one and `backbone_left` ends on a
/// rounding residual of the sequential drain, which decides whether a
/// second round runs) and half the lanes' rate sum.
fn backbone_of(kind: usize, cap: f64, lanes: &[TransferLane]) -> f64 {
    match kind {
        0 => f64::INFINITY,
        1 => cap,
        2 => cap * 1e-3,
        3 => 0.0,
        4 => {
            let mut workers: Vec<usize> = lanes.iter().map(|l| l.worker).collect();
            workers.sort_unstable();
            workers.dedup();
            0.25 * workers.len() as f64 * lanes.first().map_or(1.0, |l| l.link_rate)
        }
        _ => 0.5 * lanes.iter().map(|l| l.link_rate).sum::<f64>(),
    }
}

fn bits(shares: &[f64]) -> Vec<u64> {
    shares.iter().map(|s| s.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `maxmin_shares_into` == the quadratic oracle, bit for bit, on
    /// fresh scratch buffers — and through the allocating wrapper.
    #[test]
    fn grouped_fill_is_bitwise_the_quadratic_oracle(
        lanes in arb_lanes(),
        kind in 0usize..6,
        cap in 0.0f64..25.0,
    ) {
        let backbone = backbone_of(kind, cap, &lanes);
        let reference = reference_maxmin(&lanes, backbone);
        let mut scratch = ShareScratch::new();
        maxmin_shares_into(&lanes, backbone, &mut scratch);
        prop_assert_eq!(scratch.shares().len(), lanes.len());
        prop_assert_eq!(bits(scratch.shares()), bits(&reference));
        prop_assert_eq!(bits(&maxmin_shares(&lanes, backbone)), bits(&reference));
    }

    /// Recycling one scratch across calls (big set, then small, then big
    /// again — the engines' steady state) never lets stale buffer
    /// contents leak into a later allocation.
    #[test]
    fn recycled_scratch_never_leaks_between_calls(
        first in arb_lanes(),
        second in arb_lanes(),
        kind in 0usize..6,
        cap in 0.0f64..25.0,
    ) {
        let mut scratch = ShareScratch::new();
        maxmin_shares_into(&first, backbone_of(kind, cap, &first), &mut scratch);
        let backbone = backbone_of(kind, cap, &second);
        maxmin_shares_into(&second, backbone, &mut scratch);
        prop_assert_eq!(bits(scratch.shares()), bits(&reference_maxmin(&second, backbone)));
        // And back to the first set: the shrink-then-grow cycle.
        let backbone = backbone_of(kind, cap, &first);
        maxmin_shares_into(&first, backbone, &mut scratch);
        prop_assert_eq!(bits(scratch.shares()), bits(&reference_maxmin(&first, backbone)));
    }
}

/// The `delta <= 0` break, pinned deterministically: a zero backbone has
/// no headroom at all, so every lane freezes at rate 0 on round one and
/// both routines must report all-zero shares.
#[test]
fn zero_backbone_saturates_immediately_on_both_paths() {
    let lanes = vec![
        TransferLane {
            worker: 0,
            link_rate: 2.0,
        },
        TransferLane {
            worker: 0,
            link_rate: 2.0,
        },
        TransferLane {
            worker: 1,
            link_rate: 0.5,
        },
    ];
    let reference = reference_maxmin(&lanes, 0.0);
    assert_eq!(reference, vec![0.0; 3]);
    let mut scratch = ShareScratch::new();
    maxmin_shares_into(&lanes, 0.0, &mut scratch);
    assert_eq!(bits(scratch.shares()), bits(&reference));
}

/// An exactly-consumed backbone: two saturating rounds, then the break.
/// The faster link freezes first at the backbone's expense; the grouped
/// fill reproduces each intermediate freeze bitwise.
#[test]
fn exactly_consumed_backbone_matches_bitwise() {
    let lanes = vec![
        TransferLane {
            worker: 0,
            link_rate: 1.0,
        },
        TransferLane {
            worker: 1,
            link_rate: 3.0,
        },
    ];
    // Backbone = 2.0: both rise to 1.0 (lane 0 saturates its link and the
    // backbone is exactly consumed), so lane 1 freezes mid-link.
    let reference = reference_maxmin(&lanes, 2.0);
    assert_eq!(reference[0], 1.0);
    assert!(reference[1] < 1.0);
    let mut scratch = ShareScratch::new();
    maxmin_shares_into(&lanes, 2.0, &mut scratch);
    assert_eq!(bits(scratch.shares()), bits(&reference));
}

/// The `wide_star` peak: 384 lanes round-robin over 128 equal links,
/// fair-sharing a backbone of 32 link rates — three lanes per link, the
/// backbone binding first.
#[test]
fn wide_star_peak_matches_the_oracle_bitwise() {
    let rate = 1.0 / 3e-4;
    let lanes: Vec<TransferLane> = (0..384)
        .map(|i| TransferLane {
            worker: i % 128,
            link_rate: rate,
        })
        .collect();
    let backbone = 32.0 * rate;
    let shares = NetModelSpec::FairShare { backbone }.shares(&lanes);
    assert_eq!(bits(&shares), bits(&reference_maxmin(&lanes, backbone)));
    // 32 link rates over 384 lanes: a twelfth of a link each.
    assert!(shares.iter().all(|&s| (s - 1.0 / 12.0).abs() < 1e-12));
}

/// Worker ids are arbitrary `usize`s: the largest one is one more group,
/// and a lone lane still gets exactly `1.0`.
#[test]
fn lone_lane_at_the_largest_worker_id_gets_exactly_one() {
    let lane = TransferLane {
        worker: usize::MAX,
        link_rate: 7.25,
    };
    assert_eq!(maxmin_shares(&[lane], f64::INFINITY), vec![1.0]);
}
