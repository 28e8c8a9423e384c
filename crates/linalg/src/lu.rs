//! Block LU factorization (no pivoting) — the second kernel the paper's
//! companion report extends the approach to.
//!
//! Right-looking block algorithm on an `n × n` grid of `q × q` blocks:
//! for each diagonal step `k` factor the pivot block, scale the panel
//! row/column, and update the trailing submatrix with a rank-`q` block
//! outer product — exactly the communication pattern the master-worker
//! scheduler in `stargemm-core::lu` distributes.
//!
//! The algorithm is one task table: [`lu_tasks`] lists the [`LuTask`]s
//! in [`lu_factor`]'s order, each naming the block it writes and the
//! blocks it reads, and [`lu_apply`] runs one in place, the written
//! block borrowed beside read-only views of its inputs
//! ([`BlockMatrix::split_blocks_mut`]). `stargemm-dag` builds its task
//! graph from the same table and replays orders through [`lu_apply`].
//!
//! Pivoting is deliberately omitted (as in most out-of-core and
//! distributed treatments the paper cites); callers must supply
//! factorizable matrices — the tests use diagonally dominant ones.

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

/// One task of the tiled right-looking LU (block indices into the
/// `n × n` grid).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LuTask {
    /// Factor the pivot block `A(k,k)`.
    Factor {
        /// Elimination step.
        k: usize,
    },
    /// Row-panel solve producing `U(k,j)`.
    TrsmRow {
        /// Elimination step.
        k: usize,
        /// Column of the solved block (`j > k`).
        j: usize,
    },
    /// Column-panel solve producing `L(i,k)`.
    TrsmCol {
        /// Row of the solved block (`i > k`).
        i: usize,
        /// Elimination step.
        k: usize,
    },
    /// Trailing update `A(i,j) ← A(i,j) − L(i,k)·U(k,j)`.
    Update {
        /// Row of the updated block (`i > k`).
        i: usize,
        /// Column of the updated block (`j > k`).
        j: usize,
        /// Elimination step.
        k: usize,
    },
}

impl LuTask {
    /// The block the task overwrites.
    pub fn writes(self) -> (usize, usize) {
        match self {
            LuTask::Factor { k } => (k, k),
            LuTask::TrsmRow { k, j } => (k, j),
            LuTask::TrsmCol { i, k } => (i, k),
            LuTask::Update { i, j, .. } => (i, j),
        }
    }

    /// The other blocks the task reads: the pivot `A(k,k)` for a panel
    /// solve, `L(i,k)` and `U(k,j)` for an update, none for a factor.
    pub fn reads(self) -> impl Iterator<Item = (usize, usize)> {
        let (first, second) = match self {
            LuTask::Factor { .. } => (None, None),
            LuTask::TrsmRow { k, .. } | LuTask::TrsmCol { k, .. } => (Some((k, k)), None),
            LuTask::Update { i, j, k } => (Some((i, k)), Some((k, j))),
        };
        first.into_iter().chain(second)
    }
}

/// The tasks of an `n × n` block LU in the order [`lu_factor`] runs
/// them: per step `k`, the factor, the row panel (`j` ascending), the
/// column panel (`i` ascending), then the trailing updates row-major.
/// Every task comes after the tasks whose blocks it reads.
pub fn lu_tasks(n: usize) -> Vec<LuTask> {
    let mut tasks = Vec::with_capacity(n * (n + 1) * (2 * n + 1) / 6);
    for k in 0..n {
        tasks.push(LuTask::Factor { k });
        tasks.extend((k + 1..n).map(|j| LuTask::TrsmRow { k, j }));
        tasks.extend((k + 1..n).map(|i| LuTask::TrsmCol { i, k }));
        for i in k + 1..n {
            tasks.extend((k + 1..n).map(|j| LuTask::Update { i, j, k }));
        }
    }
    tasks
}

/// Runs `task` in place on `a`: the block [`LuTask::writes`] names is
/// overwritten from the blocks [`LuTask::reads`] names.
///
/// # Errors
/// [`SingularPivot`] when the task meets a vanishing pivot; the written
/// block is then partly updated.
///
/// # Panics
/// Panics when a block of the task leaves `a`'s grid.
pub fn lu_apply(a: &mut BlockMatrix, task: LuTask) -> Result<(), SingularPivot> {
    let q = a.q();
    let out = task.writes();
    match task {
        LuTask::Factor { k } => lu_factor_block(q, a.split_blocks_mut(out, []).0, k * q),
        LuTask::TrsmRow { k, .. } => {
            let (b, [l]) = a.split_blocks_mut(out, [(k, k)]);
            lu_trsm_lower(q, b, l);
            Ok(())
        }
        LuTask::TrsmCol { k, .. } => {
            let (b, [u]) = a.split_blocks_mut(out, [(k, k)]);
            lu_trsm_upper(q, b, u, k * q)
        }
        LuTask::Update { i, j, k } => {
            let (c, [l, u]) = a.split_blocks_mut(out, [(i, k), (k, j)]);
            gemm_tiled_sub(q, c, l, u);
            Ok(())
        }
    }
}

/// In-place scalar LU of one row-major `q × q` block: `A = L·U` with
/// unit diagonal `L` stored in the strict lower triangle — the *panel
/// factorization* task.
///
/// `block_offset` is the global scalar index of the block's first row,
/// used only to report singular pivots.
pub fn lu_factor_block(q: usize, a: &mut [f64], block_offset: usize) -> Result<(), SingularPivot> {
    assert_eq!(a.len(), q * q, "coefficient count must be q^2");
    for k in 0..q {
        let piv = a[k * q + k];
        if piv.abs() < PIVOT_TOL {
            return Err(SingularPivot {
                index: block_offset + k,
                value: piv,
            });
        }
        for i in k + 1..q {
            let l = a[i * q + k] / piv;
            a[i * q + k] = l;
            for j in k + 1..q {
                a[i * q + j] -= l * a[k * q + j];
            }
        }
    }
    Ok(())
}

/// Solves `L · X = B` in place (`L` unit lower triangular from a
/// factored pivot block): the *row-panel triangular-solve* task.
pub fn lu_trsm_lower(q: usize, b: &mut [f64], l: &[f64]) {
    assert_eq!(b.len(), q * q, "coefficient count must be q^2");
    assert_eq!(l.len(), q * q, "coefficient count must be q^2");
    for j in 0..q {
        for i in 0..q {
            let mut acc = b[i * q + j];
            for k in 0..i {
                acc -= l[i * q + k] * b[k * q + j];
            }
            b[i * q + j] = acc;
        }
    }
}

/// Solves `X · U = B` in place (`U` upper triangular from a factored
/// pivot block): the *column-panel triangular-solve* task.
///
/// `block_offset` is the global scalar index of `U`'s first column,
/// used only to report singular pivots.
pub fn lu_trsm_upper(
    q: usize,
    b: &mut [f64],
    u: &[f64],
    block_offset: usize,
) -> Result<(), SingularPivot> {
    assert_eq!(b.len(), q * q, "coefficient count must be q^2");
    assert_eq!(u.len(), q * q, "coefficient count must be q^2");
    for i in 0..q {
        for j in 0..q {
            let mut acc = b[i * q + j];
            for k in 0..j {
                acc -= b[i * q + k] * u[k * q + j];
            }
            let piv = u[j * q + j];
            if piv.abs() < PIVOT_TOL {
                return Err(SingularPivot {
                    index: block_offset + j,
                    value: piv,
                });
            }
            b[i * q + j] = acc / piv;
        }
    }
    Ok(())
}

/// Factors `a` in place: on return the strict lower block triangle (and
/// the strict lower triangles of the diagonal blocks) hold `L` (unit
/// diagonal), the rest holds `U`. Runs [`lu_tasks`] through
/// [`lu_apply`].
///
/// # Errors
/// [`SingularPivot`] at the first vanishing pivot; `a` then holds the
/// tasks run so far.
///
/// # Panics
/// Panics when `a` is not square in blocks.
pub fn lu_factor(a: &mut BlockMatrix) -> Result<(), SingularPivot> {
    let n = a.block_rows();
    assert_eq!(n, a.block_cols(), "LU needs a square block grid");
    lu_tasks(n)
        .into_iter()
        .try_for_each(|task| lu_apply(a, task))
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
        let mut a = [4.0, 3.0, 6.0, 3.0];
        lu_factor_block(2, &mut a, 0).unwrap();
        assert!((a[2] - 1.5).abs() < 1e-12);
        assert!((a[3] + 1.5).abs() < 1e-12);
        assert_eq!(a[..2], [4.0, 3.0]);
    }

    #[test]
    fn singular_pivot_is_reported() {
        let mut a = [0.0, 1.0, 1.0, 0.0];
        let err = lu_factor_block(2, &mut a, 6).unwrap_err();
        assert_eq!(err.index, 6);
    }

    /// A panel solve against a `U` whose second pivot vanishes names
    /// that pivot's global column: the block's offset plus one.
    #[test]
    fn singular_pivot_in_a_column_panel_is_reported_globally() {
        let u = [2.0, 1.0, 0.0, 0.0];
        let mut b = [1.0; 4];
        let err = lu_trsm_upper(2, &mut b, &u, 6).unwrap_err();
        assert_eq!((err.index, err.value), (7, 0.0));
    }

    #[test]
    fn tasks_are_listed_step_by_step_in_factor_order() {
        use LuTask::*;
        assert_eq!(
            lu_tasks(3)[..9],
            [
                Factor { k: 0 },
                TrsmRow { k: 0, j: 1 },
                TrsmRow { k: 0, j: 2 },
                TrsmCol { i: 1, k: 0 },
                TrsmCol { i: 2, k: 0 },
                Update { i: 1, j: 1, k: 0 },
                Update { i: 1, j: 2, k: 0 },
                Update { i: 2, j: 1, k: 0 },
                Update { i: 2, j: 2, k: 0 },
            ]
        );
        for n in 0..6 {
            assert_eq!(lu_tasks(n).len(), n * (n + 1) * (2 * n + 1) / 6);
        }
    }

    /// `lu_apply` touches exactly the blocks the task names: with every
    /// other block NaN, only the written block changes and it stays
    /// finite; a NaN in any block it claims to read reaches the output.
    #[test]
    fn each_task_reads_and_writes_the_blocks_it_names() {
        let (n, q) = (4, 2);
        let a0 = random_diag_dominant(n, q, &mut StdRng::seed_from_u64(3));
        let bits = |m: &BlockMatrix, b: (usize, usize)| -> Vec<u64> {
            m.block(b.0, b.1)
                .as_slice()
                .iter()
                .map(|x| x.to_bits())
                .collect()
        };
        for task in lu_tasks(n) {
            let out = task.writes();
            let footprint: Vec<_> = task.reads().chain([out]).collect();
            let mut a = a0.clone();
            for b in (0..n).flat_map(|i| (0..n).map(move |j| (i, j))) {
                if !footprint.contains(&b) {
                    a.block_mut(b.0, b.1).as_mut_slice().fill(f64::NAN);
                }
            }
            let before = a.clone();
            lu_apply(&mut a, task).unwrap();
            for b in (0..n).flat_map(|i| (0..n).map(move |j| (i, j))) {
                if b == out {
                    assert!(a.block(b.0, b.1).as_slice().iter().all(|x| x.is_finite()));
                } else {
                    assert_eq!(bits(&a, b), bits(&before, b), "{task:?} wrote {b:?}");
                }
            }
            for input in task.reads() {
                let mut a = before.clone();
                a.block_mut(input.0, input.1).as_mut_slice().fill(f64::NAN);
                let _ = lu_apply(&mut a, task);
                let written = a.block(out.0, out.1);
                assert!(
                    written.as_slice().iter().any(|x| x.is_nan()),
                    "{task:?} ignores {input:?}"
                );
            }
        }
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
