//! Verification helpers used by the integration tests and the net
//! runtime to check that a distributed execution produced the same `C` as
//! the sequential oracle.

use crate::matrix::BlockMatrix;

/// Outcome of a verification, carrying enough context to debug a failure.
#[derive(Clone, Debug, PartialEq)]
pub struct VerifyReport {
    /// Largest absolute element-wise difference found.
    pub max_abs_diff: f64,
    /// Tolerance the comparison was performed against.
    pub tolerance: f64,
    /// Number of scalar elements compared.
    pub elements: usize,
}

impl VerifyReport {
    /// Whether the comparison passed.
    pub fn passed(&self) -> bool {
        self.max_abs_diff <= self.tolerance
    }
}

/// Largest absolute element-wise difference between two coefficient
/// runs of equal length: the one comparison behind
/// [`crate::Block::max_abs_diff`], [`BlockMatrix::max_abs_diff`] and
/// [`verify_product`].
///
/// Two NaNs agree. Any other pair whose difference is NaN (a NaN on one
/// side only, or two infinities) counts as an infinite difference, which
/// no tolerance passes: `f64::max` alone drops a NaN, and an all-NaN
/// product would compare equal to anything.
///
/// # Panics
/// Panics when the lengths differ.
pub fn max_abs_diff(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "comparing runs of different lengths");
    x.iter()
        .zip(y)
        .map(|(a, b)| {
            let d = (a - b).abs();
            if !d.is_nan() {
                d
            } else if a.is_nan() && b.is_nan() {
                0.0
            } else {
                f64::INFINITY
            }
        })
        .fold(0.0, f64::max)
}

/// Compares a computed `C` against the reference `C₀ + A·B`.
///
/// `c0` is the initial content of `C` before the distributed run (the
/// kernel is an *accumulation*, `C ← C + AB`). The reference is built
/// one C block at a time in a single scratch block — the arithmetic of
/// [`BlockMatrix::gemm_reference`], without a copy of the whole matrix.
/// A NaN in the computed C where the reference has none is an infinite
/// difference, and fails the report ([`max_abs_diff`]).
///
/// # Panics
/// Panics on shape mismatches.
pub fn verify_product(
    computed_c: &BlockMatrix,
    c0: &BlockMatrix,
    a: &BlockMatrix,
    b: &BlockMatrix,
    tolerance: f64,
) -> VerifyReport {
    BlockMatrix::assert_product_shapes(c0, a, b);
    // With equal scalar shapes, a different `q` fails in `max_abs_diff`.
    assert_eq!(
        computed_c.scalar_dims(),
        c0.scalar_dims(),
        "computed C shape"
    );
    let mut reference = vec![0.0; c0.q() * c0.q()];
    let mut diff = 0.0;
    for i in 0..c0.block_rows() {
        for j in 0..c0.block_cols() {
            reference.copy_from_slice(c0.block(i, j).as_slice());
            BlockMatrix::reference_block(&mut reference, a, b, i, j);
            diff = f64::max(
                diff,
                max_abs_diff(computed_c.block(i, j).as_slice(), &reference),
            );
        }
    }
    let (rows, cols) = c0.scalar_dims();
    VerifyReport {
        max_abs_diff: diff,
        tolerance,
        elements: rows * cols,
    }
}

/// Default verification tolerance for a product with inner scalar
/// dimension `inner`: round-off grows like `O(inner · ε)` for coefficients
/// in `[-1, 1]`; the constant 64 gives generous headroom without masking
/// real scheduling bugs (a lost or doubled update is `O(1)`, many orders
/// of magnitude larger).
pub fn tolerance_for(inner_dim: usize) -> f64 {
    64.0 * inner_dim as f64 * f64::EPSILON
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn verifies_a_correct_product() {
        let mut rng = StdRng::seed_from_u64(5);
        let a = BlockMatrix::random(2, 3, 4, &mut rng);
        let b = BlockMatrix::random(3, 2, 4, &mut rng);
        let c0 = BlockMatrix::random(2, 2, 4, &mut rng);
        let mut c = c0.clone();
        BlockMatrix::gemm_reference(&mut c, &a, &b);
        let report = verify_product(&c, &c0, &a, &b, tolerance_for(12));
        assert!(report.passed(), "{report:?}");
        assert_eq!(report.elements, 64);
    }

    #[test]
    fn detects_a_missing_update() {
        let mut rng = StdRng::seed_from_u64(6);
        let a = BlockMatrix::random(2, 2, 4, &mut rng);
        let b = BlockMatrix::random(2, 2, 4, &mut rng);
        let c0 = BlockMatrix::zeros(2, 2, 4);
        let mut c = c0.clone();
        BlockMatrix::gemm_reference(&mut c, &a, &b);
        // Sabotage one block: simulate a lost k-step.
        c.set(4, 4, c.get(4, 4) + 0.5);
        let report = verify_product(&c, &c0, &a, &b, tolerance_for(8));
        assert!(!report.passed());
        assert!(report.max_abs_diff >= 0.5 - 1e-9);
    }

    /// The block-at-a-time reference reports what the whole-matrix one
    /// did — `C₀` cloned, `gemm_reference`, `max_abs_diff` — to the bit,
    /// on a ragged shape (`r ≠ t ≠ s`, `q` off every tile size) with a
    /// computed C that differs from the reference by round-off (its `k`
    /// sum in reverse) and by one sabotaged entry.
    #[test]
    fn report_matches_the_whole_matrix_reference() {
        let mut rng = StdRng::seed_from_u64(17);
        let (r, t, s, q) = (3, 5, 2, 11);
        let a = BlockMatrix::random(r, t, q, &mut rng);
        let b = BlockMatrix::random(t, s, q, &mut rng);
        let c0 = BlockMatrix::random(r, s, q, &mut rng);
        let mut c = c0.clone();
        for i in 0..r {
            for j in 0..s {
                for k in (0..t).rev() {
                    crate::gemm::gemm_tiled(
                        q,
                        c.block_mut(i, j).as_mut_slice(),
                        a.block(i, k).as_slice(),
                        b.block(k, j).as_slice(),
                    );
                }
            }
        }
        let mut reference = c0.clone();
        BlockMatrix::gemm_reference(&mut reference, &a, &b);
        for sabotage in [None, Some((20, 9, 1e-3))] {
            if let Some((row, col, delta)) = sabotage {
                c.set(row, col, c.get(row, col) + delta);
            }
            let report = verify_product(&c, &c0, &a, &b, tolerance_for(t * q));
            assert!(report.max_abs_diff > 0.0);
            assert_eq!(
                report.max_abs_diff.to_bits(),
                c.max_abs_diff(&reference).to_bits()
            );
            assert_eq!(report.elements, r * q * s * q);
        }
    }

    /// A poisoned product fails: every entry NaN, or a single one.
    #[test]
    fn a_nan_in_the_computed_product_fails() {
        let mut rng = StdRng::seed_from_u64(8);
        let a = BlockMatrix::random(2, 3, 4, &mut rng);
        let b = BlockMatrix::random(3, 2, 4, &mut rng);
        let c0 = BlockMatrix::random(2, 2, 4, &mut rng);
        let mut c = c0.clone();
        BlockMatrix::gemm_reference(&mut c, &a, &b);
        let mut one = c.clone();
        one.set(5, 2, f64::NAN);
        let mut all = c.clone();
        for row in 0..8 {
            for col in 0..8 {
                all.set(row, col, f64::NAN);
            }
        }
        for (what, poisoned) in [("one NaN", &one), ("all NaN", &all)] {
            let report = verify_product(poisoned, &c0, &a, &b, tolerance_for(12));
            assert!(!report.passed(), "{what}: {report:?}");
            assert_eq!(report.max_abs_diff, f64::INFINITY, "{what}");
            assert_eq!(poisoned.max_abs_diff(&c), f64::INFINITY, "{what}");
            assert_eq!(c.max_abs_diff(poisoned), f64::INFINITY, "{what}");
        }
        assert!(verify_product(&c, &c0, &a, &b, tolerance_for(12)).passed());
    }

    /// NaN against NaN agrees; a NaN on either side alone, or two
    /// infinities, is an infinite difference wherever it falls.
    #[test]
    fn a_nan_difference_is_infinite() {
        let (nan, inf) = (f64::NAN, f64::INFINITY);
        assert_eq!(max_abs_diff(&[nan, 1.0], &[nan, 1.5]), 0.5);
        assert_eq!(max_abs_diff(&[nan, 9.0], &[1.0, 0.0]), inf);
        assert_eq!(max_abs_diff(&[9.0, nan], &[0.0, 1.0]), inf);
        assert_eq!(max_abs_diff(&[inf], &[inf]), inf);
        assert_eq!(max_abs_diff(&[], &[]), 0.0);
    }

    #[test]
    fn tolerance_scales_with_inner_dim() {
        assert!(tolerance_for(8000) > tolerance_for(80));
        assert!(tolerance_for(80) > 0.0);
        // Still far below the O(1) signal of a lost block update.
        assert!(tolerance_for(100_000) < 1e-8);
    }
}
