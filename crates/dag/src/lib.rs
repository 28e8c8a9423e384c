//! DAG-structured jobs on the master-worker star.
//!
//! The paper's jobs are bags of independent chunks; real dense kernels
//! (tiled LU, Cholesky) are dataflow DAGs of block tasks. This crate
//! adds that job model without touching the execution engines:
//!
//! * [`graph`] — the validated task graph ([`DagJob`]): labelled tasks
//!   with widths and a precedence relation, checked for cycles and
//!   dangling references at construction. A DAG job *is* an honest GEMM
//!   (each task a `1 × width` chunk of a virtual `1 × S` result on its
//!   own column range), so both engines — and the net runtime's real
//!   data movement — work unchanged.
//! * [`parse`] — a text format for DAG specs with typed, line-numbered
//!   [`ParseError`]s, the DAG analog of the `@`-directive platform
//!   parser.
//! * [`lu`] — the tiled right-looking LU task graph, built from
//!   `stargemm-linalg`'s LU task table, and a numeric replay through its
//!   in-place task kernel: any dependency-respecting completion order
//!   reproduces the sequential factorization bitwise.
//! * [`master`] — [`DagMaster`], critical-path-aware (HEFT bottom-level)
//!   dispatch of the ready frontier onto `StreamingMaster` lanes, with
//!   crash recovery by returning lost tasks to the frontier.
//!
//! The matching makespan oracle (`critical path` × `port volume` ×
//! `compute volume` × `steady state`) lives in `stargemm-core::cpath`;
//! the multi-tenant admission of DAG jobs next to plain GEMM streams
//! lives in `stargemm-stream`.

pub mod graph;
pub mod lu;
pub mod master;
pub mod parse;

pub use graph::{DagJob, GraphError, TaskId, TaskSpec};
pub use lu::{lu_dag, lu_replay, LuTask};
pub use master::{DagMaster, InfeasibleTask};
pub use parse::{parse_dag, ParseError, ParseErrorKind};
