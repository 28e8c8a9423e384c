//! A small, dependency-free linear-programming solver.
//!
//! The paper's steady-state analysis (Table 1) maximizes the total work
//! per time-unit subject to the master's one-port bandwidth and each
//! worker's compute rate. The closed-form solution is the
//! *bandwidth-centric* greedy of Banino et al.; this crate provides a
//! primal simplex so `stargemm-core` can (a) solve the LP exactly as
//! stated and (b) cross-check that the greedy is optimal — one of the
//! reproduction's property tests.
//!
//! Scope: `maximize cᵀx  s.t.  Ax ≤ b, x ≥ 0` with `b ≥ 0` (the slack
//! basis is then feasible, so no phase-1 is needed). Bland's rule
//! guarantees termination on degenerate instances.
//!
//! Every formulation in the workspace is written through the two
//! methods that build an LP — [`LpProblem::maximize`] declares the
//! variables by their objective, [`LpProblem::le`] appends one `≤`
//! row, stored sparse — so no caller sizes a row or indexes into it.
//! Row and column order are the caller's call order, which under
//! Bland's rule fixes the pivot sequence: two LPs equal as data solve to
//! the same bits, whichever tableau (flat dense for a small LP, sparse
//! for a large one) the solver sizes to them.

pub mod simplex;

pub use simplex::{LpError, LpProblem, LpSolution};
