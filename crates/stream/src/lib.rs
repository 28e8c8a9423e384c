//! Multi-tenant job streams: online multi-job scheduling over the
//! shared star.
//!
//! The paper schedules **one** matrix product on the heterogeneous
//! master-worker star. This crate lets many independent GEMM jobs share
//! one platform under online arrivals:
//!
//! * [`workload`] — seeded open (Poisson-like) and closed-batch
//!   job-arrival generators with mixed job shapes and per-tenant
//!   fairness weights;
//! * [`allocator`] — the steady-state LP of `core::steady` extended to
//!   *weighted max-min* throughput across concurrent jobs (solved with
//!   `stargemm-lp`'s simplex), yielding per-job port shares;
//! * [`multi`] — [`multi::MultiJobMaster`], a
//!   [`MasterPolicy`](stargemm_sim::MasterPolicy) that time-shares the
//!   one-port star between admitted jobs (deficit scheduling against the
//!   LP shares), keeps a FIFO admission backlog, statically partitions
//!   each worker's memory between job slots, recovers chunks lost to
//!   worker crashes on dynamic platforms, and admits DAG-structured jobs
//!   (`stargemm-dag`) as ready-frontier members next to plain GEMM
//!   tenants ([`multi::MultiJobMaster::with_dags`]);
//! * [`metrics`] — per-job response time and slowdown against a solo
//!   baseline, quantiles, and the aggregate steady-state throughput
//!   bound no schedule can beat.
//!
//! The `stream` experiment row of `stargemm-bench` sweeps load factor ×
//! tenant mix × platform over this machinery.

pub mod allocator;
pub mod fed;
pub mod metrics;
pub mod multi;
pub mod workload;

pub use allocator::{weighted_maxmin, JobDemand, MultiJobAllocation};
pub use fed::{job_volume, FedStreamError, FedStreamRun, MultiStarMaster};
pub use metrics::{
    aggregate_throughput_bound, solo_makespan, stream_report, StreamReport, TenantReport,
};
pub use multi::{MultiJobMaster, StreamConfig, StreamError, DAG_ID_BASE, DAG_ID_SPAN};
pub use workload::{ArrivalProcess, JobRequest, TenantSpec, WorkloadSpec};
