//! The paper's contribution: scheduling algorithms for `C ← C + A·B` on
//! heterogeneous master-worker star platforms with limited worker memory.
//!
//! Module map (paper section → module):
//!
//! * §2 framework — [`job`] (problem dimensions in blocks);
//! * §3 communication-volume bounds and the maximum re-use algorithm —
//!   [`bounds`], [`layout`], [`maxreuse`];
//! * §4 homogeneous algorithm and resource selection — [`select_hom`],
//!   [`estimate`];
//! * §5 heterogeneous algorithms — [`select_het`] (the eight incremental
//!   resource-selection variants) and [`steady`] (the bandwidth-centric
//!   steady-state bound of Table 1, including Table 2's infeasibility);
//! * §6 competitors — [`algorithms`] bundles Hom, HomI, Het, ORROML,
//!   OMMOML, ODDOML and Toledo's BMM behind one entry point.
//!
//! All algorithms are expressed as [`stream::StreamingMaster`] policies —
//! per-worker chunk queues plus a fragment-serving discipline — executed
//! by either the `stargemm-sim` discrete-event engine or the
//! `stargemm-net` runtime; on platforms whose workers crash, the wrappers
//! that run them re-plan lost work through one [`heal::Healer`].

pub mod algorithms;
pub mod assign;
pub mod bounds;
pub mod cpath;
pub mod estimate;
pub mod geometry;
pub mod heal;
pub mod job;
pub mod layout;
pub mod lu;
pub mod maxreuse;
pub mod select_het;
pub mod select_hom;
pub mod steady;
pub mod stream;

pub use algorithms::{run_algorithm, run_algorithm_observed, Algorithm};
pub use geometry::{ChunkGeom, PlannedChunk};
pub use job::Job;
pub use stream::StreamingMaster;
