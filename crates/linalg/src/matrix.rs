//! Matrices as row-major grids of `q × q` blocks (Figure 1 of the paper).
//!
//! The paper's three operands are grids of blocks:
//! `A` is `r × t` blocks, `B` is `t × s` blocks, `C` is `r × s` blocks,
//! where `r = n_A/q`, `s = n_B/q`, `t = n_AB/q`. [`BlockMatrix`] stores the
//! grid and offers the stripe accessors the algorithms ship around:
//! horizontal `A` stripes, vertical `B` stripes, and rectangular `C`
//! chunks.

use rand::Rng;

use crate::block::Block;
use crate::gemm::block_update;

/// A dense matrix stored as a row-major grid of square blocks.
#[derive(Clone, Debug, PartialEq)]
pub struct BlockMatrix {
    block_rows: usize,
    block_cols: usize,
    q: usize,
    blocks: Vec<Block>,
}

impl BlockMatrix {
    /// A zero matrix of `block_rows × block_cols` blocks of side `q`.
    ///
    /// # Panics
    /// Panics when any dimension is zero.
    pub fn zeros(block_rows: usize, block_cols: usize, q: usize) -> Self {
        assert!(block_rows > 0 && block_cols > 0, "empty block grid");
        let blocks = (0..block_rows * block_cols)
            .map(|_| Block::zeros(q))
            .collect();
        BlockMatrix {
            block_rows,
            block_cols,
            q,
            blocks,
        }
    }

    /// A matrix with uniformly random coefficients in `[-1, 1)`.
    pub fn random<R: Rng + ?Sized>(
        block_rows: usize,
        block_cols: usize,
        q: usize,
        rng: &mut R,
    ) -> Self {
        assert!(block_rows > 0 && block_cols > 0, "empty block grid");
        let blocks = (0..block_rows * block_cols)
            .map(|_| Block::random(q, rng))
            .collect();
        BlockMatrix {
            block_rows,
            block_cols,
            q,
            blocks,
        }
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

    /// Borrow of block `(i, j)` (block coordinates, 0-based).
    #[inline]
    pub fn block(&self, i: usize, j: usize) -> &Block {
        assert!(i < self.block_rows && j < self.block_cols, "block OOB");
        &self.blocks[i * self.block_cols + j]
    }

    /// Mutable borrow of block `(i, j)`.
    #[inline]
    pub fn block_mut(&mut self, i: usize, j: usize) -> &mut Block {
        assert!(i < self.block_rows && j < self.block_cols, "block OOB");
        &mut self.blocks[i * self.block_cols + j]
    }

    /// Replaces block `(i, j)`.
    ///
    /// # Panics
    /// Panics on out-of-bounds coordinates or mismatched block side.
    pub fn set_block(&mut self, i: usize, j: usize, block: Block) {
        assert_eq!(block.q(), self.q, "block side mismatch");
        assert!(i < self.block_rows && j < self.block_cols, "block OOB");
        self.blocks[i * self.block_cols + j] = block;
    }

    /// Scalar element `(row, col)` of the logical matrix.
    pub fn get(&self, row: usize, col: usize) -> f64 {
        let (bi, bj) = (row / self.q, col / self.q);
        self.block(bi, bj).get(row % self.q, col % self.q)
    }

    /// Sets scalar element `(row, col)` of the logical matrix.
    pub fn set(&mut self, row: usize, col: usize, value: f64) {
        let (bi, bj) = (row / self.q, col / self.q);
        let (ri, rj) = (row % self.q, col % self.q);
        self.block_mut(bi, bj).set(ri, rj, value);
    }

    /// Clones the blocks of a rectangular chunk
    /// `[i0, i0+h) × [j0, j0+w)` in row-major order. This is exactly the
    /// payload of a "load C chunk" message.
    ///
    /// # Panics
    /// Panics when the chunk exceeds the grid.
    pub fn chunk(&self, i0: usize, j0: usize, h: usize, w: usize) -> Vec<Block> {
        assert!(i0 + h <= self.block_rows && j0 + w <= self.block_cols);
        let mut out = Vec::with_capacity(h * w);
        for i in i0..i0 + h {
            for j in j0..j0 + w {
                out.push(self.block(i, j).clone());
            }
        }
        out
    }

    /// Writes back a chunk previously extracted with [`Self::chunk`].
    ///
    /// # Panics
    /// Panics when geometry or block count disagree.
    pub fn store_chunk(&mut self, i0: usize, j0: usize, h: usize, w: usize, blocks: Vec<Block>) {
        assert!(i0 + h <= self.block_rows && j0 + w <= self.block_cols);
        assert_eq!(blocks.len(), h * w, "chunk payload size mismatch");
        let mut it = blocks.into_iter();
        for i in i0..i0 + h {
            for j in j0..j0 + w {
                self.set_block(i, j, it.next().expect("len checked"));
            }
        }
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

    /// Largest absolute element-wise difference against `other`.
    ///
    /// # Panics
    /// Panics when shapes differ.
    pub fn max_abs_diff(&self, other: &BlockMatrix) -> f64 {
        assert_eq!(self.block_rows, other.block_rows);
        assert_eq!(self.block_cols, other.block_cols);
        assert_eq!(self.q, other.q);
        self.blocks
            .iter()
            .zip(&other.blocks)
            .map(|(a, b)| a.max_abs_diff(b))
            .fold(0.0, f64::max)
    }

    /// Sequential reference product: `C ← C + A · B` over the whole grids.
    /// This is the oracle the distributed runtimes are verified against.
    ///
    /// # Panics
    /// Panics on incompatible shapes (`A: r×t`, `B: t×s`, `C: r×s`, same
    /// `q` everywhere).
    pub fn gemm_reference(c: &mut BlockMatrix, a: &BlockMatrix, b: &BlockMatrix) {
        assert_eq!(a.block_cols, b.block_rows, "inner block dims");
        assert_eq!(c.block_rows, a.block_rows, "C rows");
        assert_eq!(c.block_cols, b.block_cols, "C cols");
        assert!(a.q == b.q && b.q == c.q, "block side mismatch");
        let t = a.block_cols;
        for i in 0..c.block_rows {
            for j in 0..c.block_cols {
                for k in 0..t {
                    block_update(c.block_mut(i, j), a.block(i, k), b.block(k, j));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn scalar_and_block_indexing_agree() {
        let mut m = BlockMatrix::zeros(2, 3, 4);
        m.set(5, 9, 2.5); // block (1, 2), offset (1, 1)
        assert_eq!(m.block(1, 2).get(1, 1), 2.5);
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

    #[test]
    fn chunk_store_roundtrip() {
        let mut rng = StdRng::seed_from_u64(11);
        let m = BlockMatrix::random(4, 5, 3, &mut rng);
        let mut copy = BlockMatrix::zeros(4, 5, 3);
        for (i0, j0, h, w) in [(0, 0, 2, 2), (2, 0, 2, 2), (0, 2, 4, 3)] {
            let chunk = m.chunk(i0, j0, h, w);
            copy.store_chunk(i0, j0, h, w, chunk);
        }
        assert!(copy.max_abs_diff(&m) < 1e-15);
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
    #[should_panic(expected = "chunk payload")]
    fn store_chunk_rejects_bad_payload() {
        let mut m = BlockMatrix::zeros(2, 2, 2);
        m.store_chunk(0, 0, 2, 2, vec![Block::zeros(2)]);
    }
}
