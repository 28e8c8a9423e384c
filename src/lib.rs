//! # stargemm
//!
//! A full reproduction of *“Matrix Product on Heterogeneous Master-Worker
//! Platforms”* (Dongarra, Pineau, Robert, Vivien — PPoPP 2008) as a Rust
//! workspace. This facade crate re-exports the member crates:
//!
//! * [`linalg`] — `q × q` block matrices and GEMM kernels,
//! * [`platform`] — the heterogeneous star-platform model and presets,
//! * [`lp`] — a small simplex solver for the steady-state bound (Table 1),
//! * [`netmodel`] — pluggable network-contention models (one-port,
//!   bounded multi-port, fair-share backbone) shared by both engines,
//! * [`sim`] — a discrete-event simulator of the one-port star network,
//! * [`core`] — the paper's scheduling algorithms and baselines,
//! * [`dag`] — DAG-structured jobs (tiled LU task graphs) with
//!   critical-path-aware ready-frontier dispatch on the star,
//! * [`net`] — a hand-rolled event-driven messaging runtime (MPI
//!   substitute),
//! * [`dynamic`] — time-varying platforms (cost traces, worker churn)
//!   and the adaptive online scheduler built on top of them,
//! * [`stream`] — multi-tenant job streams: seeded arrival generators,
//!   the weighted max-min multi-job allocator, and the online
//!   time-sharing master,
//! * [`obs`] — the unified observability layer: structured run
//!   recorder, bound-gap metrics registry, and Perfetto trace export.
//!
//! See `DESIGN.md` for the system inventory and `EXPERIMENTS.md` for the
//! reproduction of every table and figure.
//!
//! # Example
//!
//! Schedule a product on a small heterogeneous platform and compare the
//! paper's algorithm against Toledo's baseline:
//!
//! ```
//! use stargemm::core::algorithms::{run_algorithm, Algorithm};
//! use stargemm::core::Job;
//! use stargemm::platform::{Platform, WorkerSpec};
//!
//! let platform = Platform::new("demo", vec![
//!     WorkerSpec::new(0.5, 0.25, 60), // (sec/block, sec/update, buffers)
//!     WorkerSpec::new(1.0, 0.50, 24),
//! ]);
//! let job = Job::new(8, 6, 12, 80); // C is 8×12 blocks, inner dim 6
//!
//! let het = run_algorithm(&platform, &job, Algorithm::Het).unwrap();
//! let bmm = run_algorithm(&platform, &job, Algorithm::Bmm).unwrap();
//! assert_eq!(het.total_updates, job.total_updates());
//! assert!(het.makespan <= bmm.makespan); // the paper's headline
//! ```

pub use stargemm_core as core;
pub use stargemm_dag as dag;
pub use stargemm_dyn as dynamic;
pub use stargemm_linalg as linalg;
pub use stargemm_lp as lp;
pub use stargemm_net as net;
pub use stargemm_netmodel as netmodel;
pub use stargemm_obs as obs;
pub use stargemm_platform as platform;
pub use stargemm_sim as sim;
pub use stargemm_stream as stream;
