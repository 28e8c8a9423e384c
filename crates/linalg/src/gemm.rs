//! Block-update kernels: `C ← C + A · B` on `q × q` tiles.
//!
//! One kernel does every block product in the repo: [`gemm_tiled`], a
//! register-blocked microkernel. C is cut into `MR × NR` tiles; each tile
//! is accumulated in an `[[f64; NR]; MR]` array that the compiler keeps
//! in SIMD registers across the whole `k` loop, reading `NR` entries of
//! each B row in place, and is added to C once at the end, where a
//! row-at-a-time `axpy` kernel reloads and re-stores the C row for every
//! `k`. The columns left over when `NR` does not divide `q` go through
//! the same code at run-time width (the scalar edge path), the rows left
//! over when `MR` does not divide `q` through one-row tiles; blocks
//! smaller than a tile (the `q = 2` stars of the contention experiments)
//! are all edge.
//! There is no cache-level tiling and no panel packing: for the paper's
//! `q = 80..100` the three operands are 150–240 KB and sit in L2, and
//! packing B into `NR`-wide panels (measured at its best, into a
//! preallocated scratch) gained ~3 % at `q = 80` and nothing at `q = 32`
//! — not worth a scratch buffer per caller.
//!
//! A `q × q` update is `2q³` flops over `24q²` operand bytes, `12/q`
//! B/flop (0.15 at `q = 80`), so it is compute-bound and this kernel's
//! rate *is* the platform parameter `w_i`: `stargemm-net` workers run it,
//! [`crate::verify`]'s oracle runs it, and `net::calibrate` times it.
//! [`gemm_tiled_sub`] is the same kernel with a subtracting store, for
//! the LU trailing update.
//!
//! Every entry of the product is summed in increasing `k` from `0.0` and
//! then added to (or subtracted from) C, whatever tile it falls in, so
//! the result does not depend on the tile shape — and equals
//! [`gemm_naive`], the textbook triple loop the tests compare against.
//! IEEE semantics are kept: a zero in A times an `∞` or `NaN` in B
//! yields `NaN`.
//!
//! The kernels operate on raw row-major slices so they can run on
//! borrowed buffer pool memory without copies.

use crate::block::Block;

/// Rows of the register tile.
///
/// `MR × NR` was chosen by an interleaved min-of-N sweep of 2×8, 3×8,
/// 4×8, 6×8, 2×12, 2×16, 3×6, 4×4 at `q` = 32, 80 and 100 with the
/// default target features (SSE2: sixteen 2-lane registers). 2×8 and
/// 3×8 tie within run-to-run noise and lead 4×8 by ~8 %; 2×8 divides
/// every even `q`, so the paper's sizes have no row edge.
const MR: usize = 2;
/// Columns of the register tile.
const NR: usize = 8;

/// Reference triple-loop kernel: `c += a * b`, all `q × q` row-major.
/// The oracle that tests compare [`gemm_tiled`] against; nothing outside
/// tests calls it.
///
/// # Panics
/// Panics when the slice lengths are not all `q * q`.
pub fn gemm_naive(q: usize, c: &mut [f64], a: &[f64], b: &[f64]) {
    assert_eq!(c.len(), q * q);
    assert_eq!(a.len(), q * q);
    assert_eq!(b.len(), q * q);
    for i in 0..q {
        for j in 0..q {
            let mut acc = 0.0;
            for k in 0..q {
                acc += a[i * q + k] * b[k * q + j];
            }
            c[i * q + j] += acc;
        }
    }
}

/// The block update `c += a * b`, all `q × q` row-major (see the module
/// docs for the kernel).
///
/// # Panics
/// Panics when the slice lengths are not all `q * q`.
pub fn gemm_tiled(q: usize, c: &mut [f64], a: &[f64], b: &[f64]) {
    kernel::<false>(q, c, a, b);
}

/// `c -= a * b` through the same kernel as [`gemm_tiled`]: the product
/// is accumulated in registers and subtracted from C in the store step.
///
/// # Panics
/// Panics when the slice lengths are not all `q * q`.
pub fn gemm_tiled_sub(q: usize, c: &mut [f64], a: &[f64], b: &[f64]) {
    kernel::<true>(q, c, a, b);
}

fn kernel<const SUB: bool>(q: usize, c: &mut [f64], a: &[f64], b: &[f64]) {
    assert_eq!(c.len(), q * q);
    assert_eq!(a.len(), q * q);
    assert_eq!(b.len(), q * q);
    let full_rows = q - q % MR;
    let full_cols = q - q % NR;
    for i0 in (0..full_rows).step_by(MR) {
        row_of_tiles::<MR, SUB>(q, c, a, b, i0, full_cols);
    }
    for i in full_rows..q {
        row_of_tiles::<1, SUB>(q, c, a, b, i, full_cols);
    }
}

/// Rows `i0..i0 + R` of C: the full tiles, then the edge columns.
#[inline(always)]
fn row_of_tiles<const R: usize, const SUB: bool>(
    q: usize,
    c: &mut [f64],
    a: &[f64],
    b: &[f64],
    i0: usize,
    full_cols: usize,
) {
    for j0 in (0..full_cols).step_by(NR) {
        tile::<R, SUB>(q, c, a, b, i0, j0, NR);
    }
    if full_cols < q {
        tile::<R, SUB>(q, c, a, b, i0, full_cols, q - full_cols);
    }
}

/// The `R × width` tile of C at `(i0, j0)`, `width ≤ NR`.
///
/// Always inlined: at the full-tile call `width` is the constant `NR`,
/// so each B row is read as a fixed-size `[f64; NR]`, the loops over the
/// tile unroll into straight-line SIMD code on register-resident
/// accumulators, and the only bounds checks left are per `k`. The same
/// code at run-time `width` is the scalar edge path.
#[inline(always)]
fn tile<const R: usize, const SUB: bool>(
    q: usize,
    c: &mut [f64],
    a: &[f64],
    b: &[f64],
    i0: usize,
    j0: usize,
    width: usize,
) {
    let a_rows: [&[f64]; R] = std::array::from_fn(|r| &a[(i0 + r) * q..(i0 + r + 1) * q]);
    let mut acc = [[0.0f64; NR]; R];
    for (k, b_row) in b.chunks_exact(q).enumerate() {
        let b_k = &b_row[j0..j0 + width];
        for (acc_row, a_row) in acc.iter_mut().zip(a_rows) {
            let a_ik = a_row[k];
            for (x, b_kj) in acc_row[..width].iter_mut().zip(b_k) {
                *x += a_ik * b_kj;
            }
        }
    }
    for (r, acc_row) in acc.iter().enumerate() {
        let at = (i0 + r) * q + j0;
        for (c_ij, x) in c[at..at + width].iter_mut().zip(&acc_row[..width]) {
            if SUB {
                *c_ij -= x;
            } else {
                *c_ij += x;
            }
        }
    }
}

/// Convenience wrapper performing the paper's atomic operation on owned
/// [`Block`]s: `c ← c + a · b`.
///
/// # Panics
/// Panics when block sides differ.
pub fn block_update(c: &mut Block, a: &Block, b: &Block) {
    let q = c.q();
    assert_eq!(a.q(), q, "A block side mismatch");
    assert_eq!(b.q(), q, "B block side mismatch");
    gemm_tiled(q, c.as_mut_slice(), a.as_slice(), b.as_slice());
}

/// Floating-point operations per block update (`2 q³`: one multiply and
/// one add per inner step). Used by calibration to convert measured
/// kernel time into the paper's elementary cost `a` (`w = q³ a`).
#[inline]
pub fn flops_per_update(q: usize) -> u64 {
    2 * (q as u64).pow(3)
}

/// Computed operand traffic of a block update per flop: the A, B and C
/// tiles are `8q²` bytes each, so `24q² / 2q³ = 12/q` B/flop (cache
/// misses ignored) — 0.15 at `q = 80`, far below any machine's balance,
/// which is why the kernel and not memory sets `w`.
#[inline]
pub fn bytes_per_flop(q: usize) -> f64 {
    12.0 / q as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn random_vec(n: usize, seed: u64) -> Vec<f64> {
        use rand::RngExt;
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| rng.random_range(-1.0..1.0)).collect()
    }

    fn abs(v: &[f64]) -> Vec<f64> {
        v.iter().map(|x| x.abs()).collect()
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn naive_matches_hand_computed_2x2() {
        // A = [1 2; 3 4], B = [5 6; 7 8], C starts at [1 1; 1 1].
        let a = vec![1.0, 2.0, 3.0, 4.0];
        let b = vec![5.0, 6.0, 7.0, 8.0];
        let mut c = vec![1.0; 4];
        gemm_naive(2, &mut c, &a, &b);
        assert_eq!(c, vec![20.0, 23.0, 44.0, 51.0]);
    }

    /// Every `q` in `1..=100` — every residue of `q mod MR` and
    /// `q mod NR`, and every `q` below one tile — accumulating into a
    /// non-zero C, against the oracle.
    ///
    /// The bound: each kernel sums `q` products and adds `C₀`, `q + 1`
    /// roundings of relative size `ε/2` on terms bounded by
    /// `|A|·|B| + |C₀|`, so each is within `(q + 1)·ε/2` of the exact
    /// value (to first order) and the two are within `(q + 2)·ε` of each
    /// other, componentwise.
    #[test]
    fn kernel_matches_the_oracle_for_every_q_up_to_100() {
        for q in 1..=100usize {
            let n = q * q;
            let a = random_vec(n, 3 * q as u64);
            let b = random_vec(n, 3 * q as u64 + 1);
            let c0 = random_vec(n, 3 * q as u64 + 2);
            let mut scale = abs(&c0);
            gemm_naive(q, &mut scale, &abs(&a), &abs(&b));
            let eps = (q + 2) as f64 * f64::EPSILON;

            let (mut add, mut add_ref) = (c0.clone(), c0.clone());
            gemm_tiled(q, &mut add, &a, &b);
            gemm_naive(q, &mut add_ref, &a, &b);
            // C − A·B: the oracle run on −C, negated.
            let (mut sub, mut sub_ref) = (c0.clone(), c0.iter().map(|x| -x).collect::<Vec<_>>());
            gemm_tiled_sub(q, &mut sub, &a, &b);
            gemm_naive(q, &mut sub_ref, &a, &b);
            for idx in 0..n {
                let bound = eps * scale[idx];
                let d_add = (add[idx] - add_ref[idx]).abs();
                let d_sub = (sub[idx] + sub_ref[idx]).abs();
                assert!(d_add <= bound, "q={q} [{idx}]: += off by {d_add} > {bound}");
                assert!(d_sub <= bound, "q={q} [{idx}]: -= off by {d_sub} > {bound}");
            }
        }
    }

    #[test]
    fn zeros_in_a_follow_ieee_rules() {
        // q = 11: one full column tile plus three edge columns, five full
        // row tiles plus one edge row.
        let q = 11;
        let a = vec![0.0; q * q];
        let mut b = random_vec(q * q, 1);
        let c0 = random_vec(q * q, 2);

        // Finite B: an all-zero A leaves C unchanged to the bit.
        let mut c = c0.clone();
        gemm_tiled(q, &mut c, &a, &b);
        assert_eq!(bits(&c), bits(&c0));

        // 0 · ∞ and 0 · NaN are NaN: the columns of C under a non-finite
        // entry of B become NaN (no skipping of zero A entries), the
        // others stay untouched.
        let (inf_col, nan_col) = (2, 9);
        b[4 * q + inf_col] = f64::INFINITY;
        b[7 * q + nan_col] = f64::NAN;
        let mut c = c0.clone();
        gemm_tiled(q, &mut c, &a, &b);
        for i in 0..q {
            for j in 0..q {
                let (got, before) = (c[i * q + j], c0[i * q + j]);
                if j == inf_col || j == nan_col {
                    assert!(got.is_nan(), "({i},{j}) = {got}, expected NaN");
                } else {
                    assert_eq!(got.to_bits(), before.to_bits(), "({i},{j})");
                }
            }
        }
    }

    #[test]
    fn block_update_accumulates() {
        let mut rng = StdRng::seed_from_u64(9);
        let a = Block::random(16, &mut rng);
        let b = Block::random(16, &mut rng);
        let mut c = Block::zeros(16);
        block_update(&mut c, &a, &b);
        let after_one = c.clone();
        block_update(&mut c, &a, &b);
        // Second update doubles the accumulated product.
        for (x, y) in c.as_slice().iter().zip(after_one.as_slice()) {
            assert!((x - 2.0 * y).abs() < 1e-9);
        }
    }

    #[test]
    fn update_is_additive_in_k() {
        // C + A1 B1 + A2 B2 computed in two updates equals the blocked sum.
        let q = 24;
        let mut rng = StdRng::seed_from_u64(42);
        let a1 = Block::random(q, &mut rng);
        let b1 = Block::random(q, &mut rng);
        let a2 = Block::random(q, &mut rng);
        let b2 = Block::random(q, &mut rng);
        let mut c = Block::zeros(q);
        block_update(&mut c, &a1, &b1);
        block_update(&mut c, &a2, &b2);

        let mut expect = vec![0.0; q * q];
        gemm_naive(q, &mut expect, a1.as_slice(), b1.as_slice());
        gemm_naive(q, &mut expect, a2.as_slice(), b2.as_slice());
        for (x, y) in c.as_slice().iter().zip(&expect) {
            assert!((x - y).abs() < 1e-10);
        }
    }

    #[test]
    fn flops_formula() {
        assert_eq!(flops_per_update(80), 2 * 80u64.pow(3));
        assert_eq!(flops_per_update(1), 2);
        assert_eq!(bytes_per_flop(80), 0.15);
    }

    #[test]
    #[should_panic]
    fn mismatched_lengths_panic() {
        let mut c = vec![0.0; 4];
        gemm_tiled(2, &mut c, &[0.0; 3], &[0.0; 4]);
    }
}
