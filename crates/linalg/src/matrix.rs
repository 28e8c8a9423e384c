//! Matrices as grids of `q × q` blocks (Figure 1 of the paper), kept in
//! one block-major buffer.
//!
//! The paper's three operands are grids of blocks:
//! `A` is `r × t` blocks, `B` is `t × s` blocks, `C` is `r × s` blocks,
//! where `r = n_A/q`, `s = n_B/q`, `t = n_AB/q`. [`BlockMatrix`] stores the
//! grid as one `Vec<f64>`: past a few padding coefficients that put it on
//! a cache line, block `(i, j)` is the row-major `q²` run at
//! `(i · block_cols + j) · q²`. Every block is therefore a tile in the
//! wire's layout (`stargemm-net`'s `Tiles`), and the blocks
//! `(i, j0..j0 + w)` of one block row are one contiguous run
//! ([`BlockMatrix::row_run`]): the master ships a chunk row — of a C
//! chunk, an A stripe or a B stripe — with one copy, and a matrix is one
//! allocation, not one per block. [`BlockMatrix::block`] and
//! [`BlockMatrix::block_mut`] lend a block out as a view.

use std::fmt;

use rand::distr::{Distribution, Uniform};
use rand::Rng;

use crate::block::{BlockMut, BlockRef};
use crate::gemm::gemm_tiled;

/// Coefficients in a 64-byte cache line.
const LINE: usize = 8;

/// A dense matrix stored as a grid of square blocks, block-major.
pub struct BlockMatrix {
    block_rows: usize,
    block_cols: usize,
    q: usize,
    /// `lead` padding coefficients, then block `(i, j)` at
    /// `lead + (i · block_cols + j) · q²`, each row-major.
    buf: Vec<f64>,
    /// Fewer than [`LINE`]: puts block `(0, 0)` on a cache line, and so
    /// every block when `q²` is a multiple of 8. glibc starts a large
    /// buffer 16 bytes into a line, where the `q = 80` kernel measured
    /// about 10 % slower (2-vCPU Xeon @ 2.10 GHz, AVX2).
    lead: usize,
}

impl BlockMatrix {
    /// A zero matrix of `block_rows × block_cols` blocks of side `q`.
    ///
    /// # Panics
    /// Panics when any dimension is zero.
    pub fn zeros(block_rows: usize, block_cols: usize, q: usize) -> Self {
        Self::from_fn(block_rows, block_cols, q, |buf, len| {
            buf.resize(buf.len() + len, 0.0);
        })
    }

    /// A matrix with uniformly random coefficients in `[-1, 1)`: the
    /// coefficients [`crate::Block::random`] would draw for each block in turn,
    /// row of blocks after row of blocks.
    pub fn random<R: Rng + ?Sized>(
        block_rows: usize,
        block_cols: usize,
        q: usize,
        rng: &mut R,
    ) -> Self {
        let dist = Uniform::new(-1.0f64, 1.0).expect("valid uniform range");
        Self::from_fn(block_rows, block_cols, q, |buf, len| {
            buf.extend((0..len).map(|_| dist.sample(rng)));
        })
    }

    /// The matrix whose `len` coefficients `fill` appends to its
    /// buffer, one allocation with the padding already in.
    fn from_fn(
        block_rows: usize,
        block_cols: usize,
        q: usize,
        fill: impl FnOnce(&mut Vec<f64>, usize),
    ) -> Self {
        assert!(block_rows > 0 && block_cols > 0, "empty block grid");
        assert!(q > 0, "block side must be positive");
        let len = block_rows * block_cols * q * q;
        let mut buf = Vec::with_capacity(len + LINE - 1);
        // The buffer's distance to the next line, in coefficients.
        let lead = (buf.as_ptr() as usize / std::mem::size_of::<f64>()).wrapping_neg() % LINE;
        buf.resize(lead, 0.0);
        fill(&mut buf, len);
        assert_eq!(buf.len(), lead + len, "coefficient count");
        BlockMatrix {
            block_rows,
            block_cols,
            q,
            buf,
            lead,
        }
    }

    /// Every coefficient, block-major.
    #[inline]
    fn data(&self) -> &[f64] {
        &self.buf[self.lead..]
    }

    /// [`Self::data`], mutably.
    #[inline]
    fn data_mut(&mut self) -> &mut [f64] {
        &mut self.buf[self.lead..]
    }

    /// Number of block rows (`r` for A and C, `t` for B).
    #[inline]
    pub fn block_rows(&self) -> usize {
        self.block_rows
    }

    /// Number of block columns (`t` for A, `s` for B and C).
    #[inline]
    pub fn block_cols(&self) -> usize {
        self.block_cols
    }

    /// Block side `q`.
    #[inline]
    pub fn q(&self) -> usize {
        self.q
    }

    /// Scalar dimensions `(rows, cols)` of the underlying matrix.
    #[inline]
    pub fn scalar_dims(&self) -> (usize, usize) {
        (self.block_rows * self.q, self.block_cols * self.q)
    }

    /// The buffer range of blocks `(i, j0..j0 + w)`.
    ///
    /// # Panics
    /// Panics when the run leaves the grid.
    #[inline]
    fn run_range(&self, i: usize, j0: usize, w: usize) -> std::ops::Range<usize> {
        assert!(
            i < self.block_rows && j0 + w <= self.block_cols,
            "block OOB"
        );
        let qq = self.q * self.q;
        let at = (i * self.block_cols + j0) * qq;
        at..at + w * qq
    }

    /// Blocks `(i, j0)`, …, `(i, j0 + w − 1)` as one contiguous run of
    /// `w` row-major tiles: a row of a chunk, in the wire's tile layout.
    ///
    /// # Panics
    /// Panics when the run leaves the grid.
    #[inline]
    pub fn row_run(&self, i: usize, j0: usize, w: usize) -> &[f64] {
        &self.data()[self.run_range(i, j0, w)]
    }

    /// [`Self::row_run`], mutably.
    #[inline]
    pub fn row_run_mut(&mut self, i: usize, j0: usize, w: usize) -> &mut [f64] {
        let range = self.run_range(i, j0, w);
        &mut self.data_mut()[range]
    }

    /// Block `(i, j)` (block coordinates, 0-based), borrowed.
    #[inline]
    pub fn block(&self, i: usize, j: usize) -> BlockRef<'_> {
        BlockRef::new(self.row_run(i, j, 1))
    }

    /// Block `(i, j)`, mutably borrowed.
    #[inline]
    pub fn block_mut(&mut self, i: usize, j: usize) -> BlockMut<'_> {
        BlockMut::new(self.row_run_mut(i, j, 1))
    }

    /// Block `(i, j)` mutably, beside the blocks `reads` read-only: each
    /// a row-major `q²` slice of the one buffer, so a kernel updates a
    /// block in place from its neighbours.
    ///
    /// # Panics
    /// Panics when a block leaves the grid or `reads` names `(i, j)`.
    pub fn split_blocks_mut<const N: usize>(
        &mut self,
        (i, j): (usize, usize),
        reads: [(usize, usize); N],
    ) -> (&mut [f64], [&[f64]; N]) {
        let out = self.run_range(i, j, 1);
        let reads = reads.map(|(r, c)| self.run_range(r, c, 1));
        let (before, rest) = self.data_mut().split_at_mut(out.start);
        let (block, after) = rest.split_at_mut(out.len());
        let (before, after) = (&*before, &*after);
        // Blocks are whole `q²` runs: one either ends by `out` or starts
        // after it.
        let views = reads.map(|r| {
            if r.end <= out.start {
                &before[r]
            } else {
                assert!(r.start >= out.end, "block ({i}, {j}) read while written");
                &after[r.start - out.end..r.end - out.end]
            }
        });
        (block, views)
    }

    /// Buffer index of scalar element `(row, col)` of the logical matrix.
    fn index(&self, row: usize, col: usize) -> usize {
        let (bi, bj) = (row / self.q, col / self.q);
        self.run_range(bi, bj, 1).start + (row % self.q) * self.q + col % self.q
    }

    /// Scalar element `(row, col)` of the logical matrix.
    pub fn get(&self, row: usize, col: usize) -> f64 {
        self.data()[self.index(row, col)]
    }

    /// Sets scalar element `(row, col)` of the logical matrix.
    pub fn set(&mut self, row: usize, col: usize, value: f64) {
        let at = self.index(row, col);
        self.data_mut()[at] = value;
    }

    /// Identity matrix (ones on the scalar diagonal); requires a square
    /// scalar shape.
    pub fn identity(block_rows: usize, q: usize) -> Self {
        let mut m = Self::zeros(block_rows, block_rows, q);
        for d in 0..block_rows * q {
            m.set(d, d, 1.0);
        }
        m
    }

    /// Largest absolute element-wise difference against `other`, by
    /// [`crate::verify::max_abs_diff`]: a NaN on one side only is an
    /// infinite difference.
    ///
    /// # Panics
    /// Panics when shapes differ.
    pub fn max_abs_diff(&self, other: &BlockMatrix) -> f64 {
        assert_eq!(self.block_rows, other.block_rows);
        assert_eq!(self.block_cols, other.block_cols);
        assert_eq!(self.q, other.q);
        crate::verify::max_abs_diff(self.data(), other.data())
    }

    /// Sequential reference product: `C ← C + A · B` over the whole grids.
    /// This is the oracle the distributed runtimes are verified against.
    ///
    /// # Panics
    /// Panics on incompatible shapes (`A: r×t`, `B: t×s`, `C: r×s`, same
    /// `q` everywhere).
    pub fn gemm_reference(c: &mut BlockMatrix, a: &BlockMatrix, b: &BlockMatrix) {
        Self::assert_product_shapes(c, a, b);
        for i in 0..c.block_rows {
            for j in 0..c.block_cols {
                Self::reference_block(c.block_mut(i, j).as_mut_slice(), a, b, i, j);
            }
        }
    }

    /// `c ← c + Σ_k A_ik · B_kj` in increasing `k`: block `(i, j)` of
    /// [`Self::gemm_reference`]'s update, accumulated into the `q²`
    /// row-major coefficients `c`.
    pub(crate) fn reference_block(
        c: &mut [f64],
        a: &BlockMatrix,
        b: &BlockMatrix,
        i: usize,
        j: usize,
    ) {
        for k in 0..a.block_cols {
            gemm_tiled(a.q, c, a.block(i, k).as_slice(), b.block(k, j).as_slice());
        }
    }

    /// The shape contract of `C ← C + A · B`: `A: r×t`, `B: t×s`,
    /// `C: r×s`, same `q` everywhere.
    pub(crate) fn assert_product_shapes(c: &BlockMatrix, a: &BlockMatrix, b: &BlockMatrix) {
        assert_eq!(a.block_cols, b.block_rows, "inner block dims");
        assert_eq!(c.block_rows, a.block_rows, "C rows");
        assert_eq!(c.block_cols, b.block_cols, "C cols");
        assert!(a.q == b.q && b.q == c.q, "block side mismatch");
    }
}

/// One allocation, padded to a cache line of its own.
impl Clone for BlockMatrix {
    fn clone(&self) -> Self {
        Self::from_fn(self.block_rows, self.block_cols, self.q, |buf, _| {
            buf.extend_from_slice(self.data());
        })
    }
}

/// Same shape and coefficients; the padding is not compared.
impl PartialEq for BlockMatrix {
    fn eq(&self, other: &Self) -> bool {
        (self.block_rows, self.block_cols, self.q) == (other.block_rows, other.block_cols, other.q)
            && self.data() == other.data()
    }
}

/// The grid's shape; the coefficients run to millions.
impl fmt::Debug for BlockMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BlockMatrix")
            .field("block_rows", &self.block_rows)
            .field("block_cols", &self.block_cols)
            .field("q", &self.q)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Block;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn scalar_and_block_indexing_agree() {
        let mut m = BlockMatrix::zeros(2, 3, 4);
        m.set(5, 9, 2.5); // block (1, 2), offset (1, 1)
        assert_eq!(m.block(1, 2).as_slice()[5], 2.5);
        assert_eq!(m.get(5, 9), 2.5);
        assert_eq!(m.scalar_dims(), (8, 12));
    }

    #[test]
    fn identity_times_anything_is_identity_map() {
        let mut rng = StdRng::seed_from_u64(3);
        let b = BlockMatrix::random(3, 4, 5, &mut rng);
        let a = BlockMatrix::identity(3, 5);
        let mut c = BlockMatrix::zeros(3, 4, 5);
        BlockMatrix::gemm_reference(&mut c, &a, &b);
        assert!(c.max_abs_diff(&b) < 1e-12);
    }

    /// The layout is pinned on a ragged product (`r ≠ t ≠ s`): A, B and
    /// C drawn one after the other by `random` hold, block for block,
    /// what `Block::random` draws from the same RNG (every input
    /// fingerprint depends on this order), and each row run is its
    /// blocks' coefficients end to end.
    #[test]
    fn random_draws_block_by_block_and_row_runs_concatenate_blocks() {
        let (r, t, s) = (3, 5, 2);
        for q in [2, 11] {
            let mut rng = StdRng::seed_from_u64(41);
            let operands = [(r, t), (t, s), (r, s)]
                .map(|(rows, cols)| BlockMatrix::random(rows, cols, q, &mut rng));
            let mut rng = StdRng::seed_from_u64(41);
            for m in &operands {
                let (rows, cols) = (m.block_rows(), m.block_cols());
                for i in 0..rows {
                    for j in 0..cols {
                        let drawn = Block::random(q, &mut rng);
                        assert_eq!(
                            m.block(i, j).as_slice(),
                            drawn.as_slice(),
                            "q {q} ({i}, {j})"
                        );
                    }
                    for (j0, w) in [(0, cols), (1, cols - 1), (cols - 1, 1), (0, 0)] {
                        let blocks: Vec<f64> = (j0..j0 + w)
                            .flat_map(|j| m.block(i, j).as_slice().to_vec())
                            .collect();
                        assert_eq!(m.row_run(i, j0, w), blocks, "q {q} row {i} from {j0}");
                    }
                }
            }
        }
    }

    /// Every block starts on a 64-byte line when `q²` is a multiple of
    /// 8, in a fresh matrix and in its clone alike; the padding is not
    /// part of the value.
    #[test]
    fn blocks_start_on_cache_lines() {
        let mut rng = StdRng::seed_from_u64(5);
        for q in [4, 80] {
            let m = BlockMatrix::random(2, 3, q, &mut rng);
            for m in [&m, &m.clone(), &BlockMatrix::zeros(2, 3, q)] {
                for (i, j) in [(0, 0), (0, 2), (1, 1)] {
                    assert_eq!(m.block(i, j).as_slice().as_ptr() as usize % 64, 0);
                }
            }
            assert_eq!(m.clone(), m);
        }
    }

    #[test]
    fn views_write_through_to_the_buffer() {
        let mut m = BlockMatrix::zeros(2, 3, 2);
        m.block_mut(1, 2).as_mut_slice()[1] = 4.0;
        m.row_run_mut(0, 1, 2)[5] = -1.0; // block (0, 2), offset (0, 1)
        assert_eq!(m.get(2, 5), 4.0);
        assert_eq!(m.get(0, 5), -1.0);
        let (out, [left, below]) = m.split_blocks_mut((0, 1), [(0, 0), (1, 2)]);
        out.copy_from_slice(below);
        assert_eq!((left, out[1]), (&[0.0; 4][..], 4.0));
        assert_eq!(m.get(0, 3), 4.0);
        assert_eq!(
            format!("{m:?}"),
            "BlockMatrix { block_rows: 2, block_cols: 3, q: 2, .. }"
        );
    }

    #[test]
    fn reference_gemm_matches_scalar_definition() {
        // Small enough to verify element-wise against a scalar triple loop.
        let mut rng = StdRng::seed_from_u64(21);
        let (r, t, s, q) = (2, 3, 2, 2);
        let a = BlockMatrix::random(r, t, q, &mut rng);
        let b = BlockMatrix::random(t, s, q, &mut rng);
        let mut c = BlockMatrix::zeros(r, s, q);
        BlockMatrix::gemm_reference(&mut c, &a, &b);

        let (n, m_, p) = (r * q, t * q, s * q);
        for i in 0..n {
            for j in 0..p {
                let mut acc = 0.0;
                for k in 0..m_ {
                    acc += a.get(i, k) * b.get(k, j);
                }
                assert!((c.get(i, j) - acc).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn gemm_reference_accumulates_into_c() {
        let mut rng = StdRng::seed_from_u64(33);
        let a = BlockMatrix::random(2, 2, 3, &mut rng);
        let b = BlockMatrix::random(2, 2, 3, &mut rng);
        let mut c = BlockMatrix::random(2, 2, 3, &mut rng);
        let c0 = c.clone();
        BlockMatrix::gemm_reference(&mut c, &a, &b);
        let mut product_only = BlockMatrix::zeros(2, 2, 3);
        BlockMatrix::gemm_reference(&mut product_only, &a, &b);
        // c == c0 + product
        for i in 0..6 {
            for j in 0..6 {
                let expect = c0.get(i, j) + product_only.get(i, j);
                assert!((c.get(i, j) - expect).abs() < 1e-10);
            }
        }
    }

    #[test]
    #[should_panic(expected = "inner block dims")]
    fn incompatible_shapes_panic() {
        let a = BlockMatrix::zeros(2, 3, 2);
        let b = BlockMatrix::zeros(2, 2, 2); // should be 3 block rows
        let mut c = BlockMatrix::zeros(2, 2, 2);
        BlockMatrix::gemm_reference(&mut c, &a, &b);
    }

    #[test]
    #[should_panic(expected = "block (1, 1) read while written")]
    fn a_block_cannot_be_read_while_written() {
        let mut m = BlockMatrix::zeros(2, 3, 2);
        let _ = m.split_blocks_mut((1, 1), [(0, 0), (1, 1)]);
    }

    #[test]
    #[should_panic(expected = "block OOB")]
    fn a_run_past_the_grid_panics() {
        let m = BlockMatrix::zeros(2, 3, 2);
        let _ = m.row_run(1, 2, 2);
    }
}
