//! A single square `q × q` tile of matrix coefficients.

use std::fmt;

use rand::distr::{Distribution, Uniform};
use rand::Rng;

use crate::verify::max_abs_diff;

/// One square block of `q * q` double-precision coefficients, stored
/// row-major.
///
/// Blocks are the atomic unit of both communication and computation in the
/// paper: the master ships whole blocks over the star network and workers
/// update whole blocks at a time.
#[derive(Clone, PartialEq)]
pub struct Block {
    q: usize,
    data: Vec<f64>,
}

impl Block {
    /// A zero-filled block of side `q`.
    ///
    /// # Panics
    /// Panics if `q == 0`; a zero-sided block is meaningless and would
    /// break the timing model (`w_i` per block update).
    pub fn zeros(q: usize) -> Self {
        assert!(q > 0, "block side must be positive");
        Block {
            q,
            data: vec![0.0; q * q],
        }
    }

    /// A block filled with a single value. Handy for tests.
    pub fn filled(q: usize, value: f64) -> Self {
        assert!(q > 0, "block side must be positive");
        Block {
            q,
            data: vec![value; q * q],
        }
    }

    /// A block with uniformly random coefficients in `[-1, 1)`.
    pub fn random<R: Rng + ?Sized>(q: usize, rng: &mut R) -> Self {
        let dist = Uniform::new(-1.0f64, 1.0).expect("valid uniform range");
        let data = (0..q * q).map(|_| dist.sample(rng)).collect();
        Block { q, data }
    }

    /// Builds a block from an explicit row-major coefficient vector.
    ///
    /// # Panics
    /// Panics when `data.len() != q * q`.
    pub fn from_vec(q: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), q * q, "coefficient count must be q^2");
        assert!(q > 0, "block side must be positive");
        Block { q, data }
    }

    /// Side length `q` of the block.
    #[inline]
    pub fn q(&self) -> usize {
        self.q
    }

    /// Row-major coefficient slice.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable row-major coefficient slice.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Coefficient at `(row, col)`.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> f64 {
        debug_assert!(row < self.q && col < self.q);
        self.data[row * self.q + col]
    }

    /// Sets the coefficient at `(row, col)`.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, value: f64) {
        debug_assert!(row < self.q && col < self.q);
        self.data[row * self.q + col] = value;
    }

    /// Resets every coefficient to zero, keeping the allocation.
    pub fn clear(&mut self) {
        self.data.fill(0.0);
    }

    /// Largest absolute difference against another block, by
    /// [`crate::verify::max_abs_diff`]: a NaN on one side only is an
    /// infinite difference.
    ///
    /// # Panics
    /// Panics when block sides differ.
    pub fn max_abs_diff(&self, other: &Block) -> f64 {
        assert_eq!(self.q, other.q, "comparing blocks of different sides");
        max_abs_diff(&self.data, &other.data)
    }

    /// Frobenius norm of the block.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }
}

impl fmt::Debug for Block {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Block(q={}, fro={:.3})", self.q, self.frobenius_norm())
    }
}

/// A borrowed `q × q` block: the row-major tile a
/// [`crate::BlockMatrix`] keeps at its block's place in the buffer.
#[derive(Clone, Copy)]
pub struct BlockRef<'a> {
    data: &'a [f64],
}

impl<'a> BlockRef<'a> {
    /// Views `data`, `q²` coefficients, as one block.
    pub(crate) fn new(data: &'a [f64]) -> Self {
        BlockRef { data }
    }

    /// Row-major coefficient slice.
    #[inline]
    pub fn as_slice(&self) -> &'a [f64] {
        self.data
    }
}

/// A mutably borrowed `q × q` block of a [`crate::BlockMatrix`].
pub struct BlockMut<'a> {
    data: &'a mut [f64],
}

impl<'a> BlockMut<'a> {
    /// Views `data`, `q²` coefficients, as one block.
    pub(crate) fn new(data: &'a mut [f64]) -> Self {
        BlockMut { data }
    }

    /// Mutable row-major coefficient slice.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zeros_has_all_zero_coefficients() {
        let b = Block::zeros(4);
        assert_eq!(b.q(), 4);
        assert!(b.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn get_set_roundtrip() {
        let mut b = Block::zeros(3);
        b.set(1, 2, 7.5);
        assert_eq!(b.get(1, 2), 7.5);
        assert_eq!(b.get(2, 1), 0.0);
    }

    #[test]
    fn from_vec_preserves_row_major_layout() {
        let b = Block::from_vec(2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(b.get(0, 0), 1.0);
        assert_eq!(b.get(0, 1), 2.0);
        assert_eq!(b.get(1, 0), 3.0);
        assert_eq!(b.get(1, 1), 4.0);
    }

    #[test]
    #[should_panic(expected = "q^2")]
    fn from_vec_rejects_wrong_length() {
        let _ = Block::from_vec(2, vec![1.0; 3]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_side_rejected() {
        let _ = Block::zeros(0);
    }

    #[test]
    fn random_blocks_are_bounded_and_distinct() {
        let mut rng = StdRng::seed_from_u64(7);
        let a = Block::random(8, &mut rng);
        let b = Block::random(8, &mut rng);
        assert!(a.as_slice().iter().all(|&x| (-1.0..1.0).contains(&x)));
        assert_ne!(a, b);
    }

    #[test]
    fn max_abs_diff_detects_single_change() {
        let a = Block::filled(5, 1.0);
        let mut b = a.clone();
        b.set(4, 4, 1.25);
        assert_eq!(a.max_abs_diff(&b), 0.25);
        assert_eq!(a.max_abs_diff(&a), 0.0);
    }

    #[test]
    fn a_nan_on_one_side_is_an_infinite_difference() {
        let a = Block::filled(3, 1.0);
        let mut b = a.clone();
        b.set(1, 2, f64::NAN);
        assert_eq!(a.max_abs_diff(&b), f64::INFINITY);
        assert_eq!(b.max_abs_diff(&a), f64::INFINITY);
        assert_eq!(b.max_abs_diff(&b), 0.0, "NaN against NaN agrees");
    }

    #[test]
    fn frobenius_norm_of_identityish_block() {
        let mut b = Block::zeros(3);
        for i in 0..3 {
            b.set(i, i, 2.0);
        }
        assert!((b.frobenius_norm() - (12.0f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn clear_resets_but_keeps_side() {
        let mut b = Block::filled(4, 3.0);
        b.clear();
        assert_eq!(b, Block::zeros(4));
    }
}
