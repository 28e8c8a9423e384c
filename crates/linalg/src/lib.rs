//! Block-oriented dense linear algebra substrate for `stargemm`.
//!
//! The paper (Dongarra, Pineau, Robert, Vivien, PPoPP'08) manipulates
//! matrices as grids of square `q × q` blocks so that every block update
//! `C_ij ← C_ij + A_ik · B_kj` maps onto a Level-3 BLAS call (`q = 80` or
//! `100` in the paper). This crate provides:
//!
//! * [`Block`] — one owned `q × q` tile of `f64` coefficients,
//! * [`gemm`] — the block-update kernel (one register-blocked microkernel
//!   behind every block product in the repo) and its naive test oracle,
//! * [`BlockMatrix`] — a row-major grid of blocks with stripe accessors
//!   matching the paper's partitioning (Figure 1),
//! * [`verify`] — reference products and tolerant comparison helpers used
//!   by the integration tests.
//!
//! Everything here is deliberately dependency-light: the scheduling layers
//! only need the *timing model* of a block update, while the `stargemm-net`
//! runtime performs these updates for real.

// The workspace lint is only `deny`, which an inner `#[allow]` could
// override; the kernel stays safe Rust.
#![forbid(unsafe_code)]

pub mod block;
pub mod gemm;
pub mod lu;
pub mod matrix;
pub mod verify;

pub use block::Block;
pub use matrix::BlockMatrix;
