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

/// Compares a computed `C` against the reference `C₀ + A·B`.
///
/// `c0` is the initial content of `C` before the distributed run (the
/// kernel is an *accumulation*, `C ← C + AB`).
///
/// # Panics
/// Panics on shape mismatches (delegated to [`BlockMatrix`]).
pub fn verify_product(
    computed_c: &BlockMatrix,
    c0: &BlockMatrix,
    a: &BlockMatrix,
    b: &BlockMatrix,
    tolerance: f64,
) -> VerifyReport {
    let mut reference = c0.clone();
    BlockMatrix::gemm_reference(&mut reference, a, b);
    let (rows, cols) = reference.scalar_dims();
    VerifyReport {
        max_abs_diff: computed_c.max_abs_diff(&reference),
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
        let sab = c.block(1, 1).clone();
        let mut sab2 = sab.clone();
        sab2.set(0, 0, sab.get(0, 0) + 0.5);
        c.set_block(1, 1, sab2);
        let report = verify_product(&c, &c0, &a, &b, tolerance_for(8));
        assert!(!report.passed());
        assert!(report.max_abs_diff >= 0.5 - 1e-9);
    }

    #[test]
    fn tolerance_scales_with_inner_dim() {
        assert!(tolerance_for(8000) > tolerance_for(80));
        assert!(tolerance_for(80) > 0.0);
        // Still far below the O(1) signal of a lost block update.
        assert!(tolerance_for(100_000) < 1e-8);
    }
}
