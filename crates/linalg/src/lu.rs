//! Block LU factorization (no pivoting) — the second kernel the paper's
//! companion report extends the approach to.
//!
//! Right-looking block algorithm on an `n × n` grid of `q × q` blocks:
//! for each diagonal step `k` factor the pivot block, scale the panel
//! column/row, and update the trailing submatrix with a rank-`q` block
//! outer product — exactly the communication pattern the master-worker
//! scheduler in `stargemm-core::lu` distributes.
//!
//! Pivoting is deliberately omitted (as in most out-of-core and
//! distributed treatments the paper cites); callers must supply
//! factorizable matrices — the tests use diagonally dominant ones.

use crate::block::Block;
use crate::gemm::gemm_tiled_sub;
use crate::matrix::BlockMatrix;

/// Error raised when a zero (or numerically vanishing) pivot appears.
#[derive(Clone, Debug, PartialEq)]
pub struct SingularPivot {
    /// Global scalar index of the offending pivot.
    pub index: usize,
    /// The pivot value.
    pub value: f64,
}

impl std::fmt::Display for SingularPivot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "vanishing pivot {} at index {}", self.value, self.index)
    }
}

impl std::error::Error for SingularPivot {}

const PIVOT_TOL: f64 = 1e-12;

/// The *trailing-update* task: `C ← C − L·U` for one block, with exactly
/// the operation order [`lu_factor`] uses (the kernel accumulates the
/// product, then subtracts it from C element-wise), so a DAG replay of
/// the trailing updates is bitwise-identical to the sequential algorithm.
pub fn lu_update(c: &mut Block, l: &Block, u: &Block) {
    gemm_tiled_sub(c.q(), c.as_mut_slice(), l.as_slice(), u.as_slice());
}

/// In-place scalar LU of one block: `A = L·U` with unit diagonal `L`
/// stored in the strict lower triangle — the *panel factorization* task
/// of the tiled-LU DAG (`stargemm-dag` replays completion orders through
/// these task kernels; [`lu_factor`] calls the very same ones, so any
/// dependency-respecting task order reproduces its result bitwise).
///
/// `block_offset` is the global scalar index of the block's first row,
/// used only to report singular pivots.
pub fn lu_factor_block(a: &mut Block, block_offset: usize) -> Result<(), SingularPivot> {
    let q = a.q();
    for k in 0..q {
        let piv = a.get(k, k);
        if piv.abs() < PIVOT_TOL {
            return Err(SingularPivot {
                index: block_offset + k,
                value: piv,
            });
        }
        for i in k + 1..q {
            let l = a.get(i, k) / piv;
            a.set(i, k, l);
            for j in k + 1..q {
                a.set(i, j, a.get(i, j) - l * a.get(k, j));
            }
        }
    }
    Ok(())
}

/// Solves `L · X = B` in place (`L` unit lower triangular from a
/// factored pivot block): the *row-panel triangular-solve* task.
pub fn lu_trsm_lower(l: &Block, b: &mut Block) {
    let q = l.q();
    for j in 0..q {
        for i in 0..q {
            let mut acc = b.get(i, j);
            for k in 0..i {
                acc -= l.get(i, k) * b.get(k, j);
            }
            b.set(i, j, acc);
        }
    }
}

/// Solves `X · U = B` in place (`U` upper triangular from a factored
/// pivot block): the *column-panel triangular-solve* task.
pub fn lu_trsm_upper(u: &Block, b: &mut Block) -> Result<(), SingularPivot> {
    let q = u.q();
    for i in 0..q {
        for j in 0..q {
            let mut acc = b.get(i, j);
            for k in 0..j {
                acc -= b.get(i, k) * u.get(k, j);
            }
            let piv = u.get(j, j);
            if piv.abs() < PIVOT_TOL {
                return Err(SingularPivot {
                    index: j,
                    value: piv,
                });
            }
            b.set(i, j, acc / piv);
        }
    }
    Ok(())
}

/// Factors `a` in place: on return the strict lower block triangle (and
/// the strict lower triangles of the diagonal blocks) hold `L` (unit
/// diagonal), the rest holds `U`.
///
/// # Panics
/// Panics when `a` is not square in blocks.
pub fn lu_factor(a: &mut BlockMatrix) -> Result<(), SingularPivot> {
    let n = a.block_rows();
    assert_eq!(n, a.block_cols(), "LU needs a square block grid");
    let q = a.q();
    for k in 0..n {
        // Factor the pivot block.
        let mut pivot = a.block(k, k).to_block();
        lu_factor_block(&mut pivot, k * q)?;
        a.set_block(k, k, &pivot);
        // Row panel: U(k, j) = L(k,k)^-1 A(k, j).
        for j in k + 1..n {
            let mut b = a.block(k, j).to_block();
            lu_trsm_lower(&pivot, &mut b);
            a.set_block(k, j, &b);
        }
        // Column panel: L(i, k) = A(i, k) U(k,k)^-1.
        for i in k + 1..n {
            let mut b = a.block(i, k).to_block();
            lu_trsm_upper(&pivot, &mut b)?;
            a.set_block(i, k, &b);
        }
        // Trailing update: A(i, j) -= L(i, k) · U(k, j) — the block
        // outer product the distributed scheduler farms out.
        for i in k + 1..n {
            let l_ik = a.block(i, k).to_block();
            for j in k + 1..n {
                let u_kj = a.block(k, j).to_block();
                let mut c = a.block(i, j).to_block();
                lu_update(&mut c, &l_ik, &u_kj);
                a.set_block(i, j, &c);
            }
        }
    }
    Ok(())
}

/// Reconstructs `L · U` from a factored matrix (for verification).
pub fn lu_reconstruct(f: &BlockMatrix) -> BlockMatrix {
    let n = f.block_rows();
    let q = f.q();
    let dim = n * q;
    let mut out = BlockMatrix::zeros(n, n, q);
    for i in 0..dim {
        for j in 0..dim {
            let kmax = i.min(j);
            let mut acc = 0.0;
            for k in 0..=kmax {
                let l = if k == i { 1.0 } else { f.get(i, k) }; // unit diag
                let u = f.get(k, j);
                if k <= j && k < i {
                    acc += l * u;
                } else if k == i && k <= j {
                    acc += u; // l = 1
                }
            }
            // When i <= j the k == i term used u = f(i, j-th col).
            out.set(i, j, acc);
        }
    }
    out
}

/// Largest absolute element of `A − L·U` for a factorization of `a0`.
pub fn lu_residual(a0: &BlockMatrix, factored: &BlockMatrix) -> f64 {
    let rec = lu_reconstruct(factored);
    rec.max_abs_diff(a0)
}

/// A random diagonally dominant matrix (guaranteed factorable without
/// pivoting).
pub fn random_diag_dominant<R: rand::Rng + ?Sized>(
    n_blocks: usize,
    q: usize,
    rng: &mut R,
) -> BlockMatrix {
    let mut a = BlockMatrix::random(n_blocks, n_blocks, q, rng);
    let dim = n_blocks * q;
    for d in 0..dim {
        a.set(d, d, a.get(d, d) + dim as f64);
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn one_block_lu_matches_hand_example() {
        // A = [4 3; 6 3] → L = [1 0; 1.5 1], U = [4 3; 0 -1.5].
        let mut a = Block::from_vec(2, vec![4.0, 3.0, 6.0, 3.0]);
        lu_factor_block(&mut a, 0).unwrap();
        assert!((a.get(1, 0) - 1.5).abs() < 1e-12);
        assert!((a.get(1, 1) + 1.5).abs() < 1e-12);
        assert_eq!(a.get(0, 0), 4.0);
        assert_eq!(a.get(0, 1), 3.0);
    }

    #[test]
    fn singular_pivot_is_reported() {
        let mut a = Block::from_vec(2, vec![0.0, 1.0, 1.0, 0.0]);
        let err = lu_factor_block(&mut a, 6).unwrap_err();
        assert_eq!(err.index, 6);
    }

    #[test]
    fn factorization_reconstructs_the_matrix() {
        let mut rng = StdRng::seed_from_u64(5);
        for n in [1usize, 2, 3] {
            for q in [1usize, 3, 4] {
                let a0 = random_diag_dominant(n, q, &mut rng);
                let mut f = a0.clone();
                lu_factor(&mut f).unwrap();
                let res = lu_residual(&a0, &f);
                assert!(res < 1e-9, "n={n} q={q}: residual {res}");
            }
        }
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn factorization_matches_scalar_reference() {
        // Compare the block algorithm against a plain scalar LU.
        let mut rng = StdRng::seed_from_u64(9);
        let n = 2;
        let q = 3;
        let a0 = random_diag_dominant(n, q, &mut rng);
        let dim = n * q;
        // Scalar LU.
        let mut m: Vec<Vec<f64>> = (0..dim)
            .map(|i| (0..dim).map(|j| a0.get(i, j)).collect())
            .collect();
        for k in 0..dim {
            for i in k + 1..dim {
                let l = m[i][k] / m[k][k];
                m[i][k] = l;
                for j in k + 1..dim {
                    m[i][j] -= l * m[k][j];
                }
            }
        }
        // Block LU.
        let mut f = a0.clone();
        lu_factor(&mut f).unwrap();
        for i in 0..dim {
            for j in 0..dim {
                assert!(
                    (f.get(i, j) - m[i][j]).abs() < 1e-9,
                    "({i},{j}): {} vs {}",
                    f.get(i, j),
                    m[i][j]
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "square")]
    fn non_square_grid_rejected() {
        let mut a = BlockMatrix::zeros(2, 3, 2);
        let _ = lu_factor(&mut a);
    }
}
