//! The single place that imports repo symbols.
//!
//! Later PRs may not edit `benchmark/`, so everything the benchmark
//! touches must survive the ROADMAP's planned deletions (items 2, 3, 5).
//! This module therefore names only API those items keep, and must
//! **not** name `NetEngine`, `net::link`, `sim::trace`, `gemm_naive`, or
//! anything from `crates/bench` (the benchmark's own counting/timing
//! policy wrapper lives in `crate::trace`). A unit test greps this file
//! for the forbidden names.

pub use stargemm::core::algorithms::{build_policy, Algorithm};
pub use stargemm::core::cpath::dag_makespan_lower_bound;
pub use stargemm::core::geometry::ChunkGeom;
pub use stargemm::core::steady::{generalized_lp, makespan_lower_bound};
pub use stargemm::core::stream::GeometryAccess;
pub use stargemm::core::Job;
pub use stargemm::dag::{lu_dag, DagJob, DagMaster};
pub use stargemm::dynamic::{churn_scenario, random_scenario, AdaptiveMaster, ScenarioConfig};
pub use stargemm::linalg::gemm::block_update;
pub use stargemm::linalg::verify::{tolerance_for, verify_product};
pub use stargemm::linalg::{Block, BlockMatrix};
pub use stargemm::net::{FedNetRuntime, NetOptions, NetRuntime};
pub use stargemm::netmodel::{maxmin_shares_into, NetModelSpec, ShareScratch, TransferLane};
pub use stargemm::obs::{Attribution, ObsEvent, ObsSink, RunRecorder};
pub use stargemm::platform::dynamic::{parse_dyn_platform, render_dyn_platform};
pub use stargemm::platform::parse::parse_platform;
pub use stargemm::platform::random::{random_platform, RandomPlatformConfig};
pub use stargemm::platform::{presets, DynPlatform, FedPlatform, FedStar, Platform, WorkerSpec};
pub use stargemm::sim::{
    Action, ChunkId, JobId, MasterPolicy, RunStats, SimCtx, SimEvent, Simulator,
};
pub use stargemm::stream::{
    aggregate_throughput_bound, stream_report, weighted_maxmin, ArrivalProcess, JobDemand,
    JobRequest, MultiJobMaster, StreamConfig, TenantSpec, WorkloadSpec,
};
