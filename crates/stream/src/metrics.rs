//! Stream-level metrics: per-job response and slowdown, quantiles, and
//! the aggregate steady-state throughput bound.
//!
//! *Slowdown* of a job is its response time (completion − arrival)
//! divided by its **solo** makespan — the time the same job takes on the
//! same (empty) platform with the full memory of every worker. The
//! aggregate throughput of *any* multi-job schedule is bounded by the
//! single-port steady-state optimum of `core::steady`: over a whole run
//! of length `T`, worker `i`'s `U_i` updates satisfy `U_i·w_i ≤ T` and
//! move at least `2·U_i/μ_i` operand blocks through the port, so
//! `(U_i/T)_i` is feasible for the Table 1 LP and
//! `Σ U_i / T ≤ ρ*`. `tests/stream_props.rs` pins this property.

use std::collections::BTreeMap;

use serde::Serialize;
use stargemm_core::steady::bandwidth_centric;
use stargemm_core::Job;
use stargemm_obs::{RunMetrics, TenantGap};
use stargemm_platform::Platform;
use stargemm_sim::{PortStats, RunStats, Simulator};

use crate::multi::{MultiJobMaster, StreamConfig};
use crate::workload::JobRequest;

/// Per-tenant slice of a stream run: the fairness view the aggregate
/// numbers hide.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct TenantReport {
    /// Tenant index (order of the workload's `TenantSpec`s).
    pub tenant: usize,
    /// The tenant's fairness weight (as carried by its requests).
    pub weight: f64,
    /// The tenant's jobs that completed before the run ended.
    pub completed: usize,
    /// The tenant's jobs in the stream.
    pub total: usize,
    /// Block updates of the tenant's completed jobs per second of run.
    pub throughput: f64,
    /// Mean response time over the tenant's completed jobs.
    pub mean_response: f64,
    /// Median slowdown over the tenant's completed jobs.
    pub p50_slowdown: f64,
    /// 95th percentile slowdown.
    pub p95_slowdown: f64,
}

/// Aggregate report over one stream run.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct StreamReport {
    /// Jobs that completed before the run ended.
    pub completed: usize,
    /// Jobs in the stream.
    pub total: usize,
    /// End of the run (last retrieval), model seconds.
    pub makespan: f64,
    /// Achieved aggregate throughput, block updates per second.
    pub throughput: f64,
    /// Steady-state aggregate throughput bound of the platform.
    pub throughput_bound: f64,
    /// Mean response time over completed jobs.
    pub mean_response: f64,
    /// Slowdown quantiles over completed jobs (nearest-rank).
    pub p50_slowdown: f64,
    /// 95th percentile slowdown.
    pub p95_slowdown: f64,
    /// 99th percentile slowdown.
    pub p99_slowdown: f64,
    /// Per-tenant throughput and slowdown, in tenant order.
    pub tenants: Vec<TenantReport>,
    /// Port-level breakdown of the run (per-lane busy time, idle gaps,
    /// longest stall), straight from the engine.
    pub port: PortStats,
    /// Bound-gap metrics: port utilization vs its lane bound, achieved
    /// vs LP throughput, per-worker busy vs steady-state plan share,
    /// per-tenant achieved vs weight-proportional share of the bound.
    pub metrics: RunMetrics,
}

/// Aggregate steady-state throughput bound of `platform`: the
/// bandwidth-centric optimum with uncapped chunk sides. No multi-job
/// schedule on a platform at (or below) its nominal speed can exceed it.
/// `0.0` on a platform no worker of which fits a layout — on which
/// [`MultiJobMaster::new`] admits no job, so no report divides by it.
pub fn aggregate_throughput_bound(platform: &Platform) -> f64 {
    bandwidth_centric(platform, usize::MAX).throughput
}

/// Solo makespan of `job` on an empty `platform`: a single-slot stream
/// holding only this job (full memory, same serving discipline) — the
/// baseline slowdowns are measured against.
pub fn solo_makespan(platform: &Platform, job: &Job) -> f64 {
    let req = [JobRequest {
        id: 0,
        tenant: 0,
        weight: 1.0,
        job: *job,
        arrival: 0.0,
    }];
    let mut policy = MultiJobMaster::new(platform, &req, StreamConfig { slots: 1 })
        .expect("solo job fits the full memory");
    Simulator::new(platform.clone())
        .with_arrivals(MultiJobMaster::arrival_plan(&req))
        .run(&mut policy)
        .expect("solo run completes")
        .makespan
}

/// Nearest-rank quantile of an unsorted sample (`q ∈ [0, 1]`); NaN on an
/// empty sample.
pub fn quantile(sample: &[f64], q: f64) -> f64 {
    if sample.is_empty() {
        return f64::NAN;
    }
    let mut sorted = sample.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Builds the aggregate report of one stream run. Solo baselines are
/// computed once per distinct job shape (cached).
pub fn stream_report(
    platform: &Platform,
    requests: &[JobRequest],
    stats: &RunStats,
) -> StreamReport {
    #[derive(Default)]
    struct TenantAcc {
        responses: Vec<f64>,
        slowdowns: Vec<f64>,
        updates: u64,
        total: usize,
        weight: f64,
    }
    let mut solo_cache: BTreeMap<(usize, usize, usize, usize), f64> = BTreeMap::new();
    let mut slowdowns = Vec::new();
    let mut responses = Vec::new();
    let mut per_tenant: BTreeMap<usize, TenantAcc> = BTreeMap::new();
    for req in requests {
        let slot = per_tenant.entry(req.tenant).or_default();
        slot.weight = req.weight;
        slot.total += 1;
    }
    for js in &stats.jobs {
        let Some(response) = js.response_time() else {
            continue;
        };
        let req = requests
            .iter()
            .find(|r| r.id == js.job)
            .expect("stats report only scheduled jobs");
        let key = (req.job.r, req.job.t, req.job.s, req.job.q);
        let solo = *solo_cache
            .entry(key)
            .or_insert_with(|| solo_makespan(platform, &req.job));
        responses.push(response);
        slowdowns.push(response / solo);
        let slot = per_tenant.get_mut(&req.tenant).expect("seeded above");
        slot.responses.push(response);
        slot.slowdowns.push(response / solo);
        slot.updates += req.job.total_updates();
    }
    let completed = responses.len();
    let mean = |v: &[f64]| {
        if v.is_empty() {
            f64::NAN
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    let tenants: Vec<TenantReport> = per_tenant
        .into_iter()
        .map(|(tenant, acc)| TenantReport {
            tenant,
            weight: acc.weight,
            completed: acc.responses.len(),
            total: acc.total,
            throughput: if stats.makespan > 0.0 {
                acc.updates as f64 / stats.makespan
            } else {
                f64::NAN
            },
            mean_response: mean(&acc.responses),
            p50_slowdown: quantile(&acc.slowdowns, 0.50),
            p95_slowdown: quantile(&acc.slowdowns, 0.95),
        })
        .collect();
    let throughput_bound = aggregate_throughput_bound(platform);
    let steady = bandwidth_centric(platform, usize::MAX);
    let busy_fractions: Vec<f64> = stats
        .per_worker
        .iter()
        .map(|w| {
            if stats.makespan > 0.0 {
                w.busy_time / stats.makespan
            } else {
                0.0
            }
        })
        .collect();
    // Steady-state compute occupancy of worker i: x_i updates/s, each
    // occupying the worker w_i seconds.
    let plan_shares: Vec<f64> = steady
        .rates
        .iter()
        .zip(platform.workers())
        .map(|(x, s)| x * s.w)
        .collect();
    let mut metrics = RunMetrics::derive(
        stats.makespan,
        stats.port_busy,
        stats.port.peak_lanes as usize,
        stats.throughput(),
        throughput_bound,
        &busy_fractions,
        &plan_shares,
    );
    let total_weight: f64 = tenants.iter().map(|t: &TenantReport| t.weight).sum();
    metrics.tenants = tenants
        .iter()
        .map(|t| TenantGap {
            tenant: t.tenant,
            achieved: t.throughput,
            bound: if total_weight > 0.0 {
                throughput_bound * t.weight / total_weight
            } else {
                throughput_bound
            },
        })
        .collect();
    StreamReport {
        completed,
        total: requests.len(),
        makespan: stats.makespan,
        throughput: stats.throughput(),
        throughput_bound,
        mean_response: mean(&responses),
        p50_slowdown: quantile(&slowdowns, 0.50),
        p95_slowdown: quantile(&slowdowns, 0.95),
        p99_slowdown: quantile(&slowdowns, 0.99),
        tenants,
        port: stats.port.clone(),
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{ArrivalProcess, TenantSpec, WorkloadSpec};
    use stargemm_platform::WorkerSpec;

    fn platform() -> Platform {
        Platform::new(
            "metrics",
            vec![WorkerSpec::new(0.2, 0.1, 60), WorkerSpec::new(0.4, 0.2, 40)],
        )
    }

    #[test]
    fn quantiles_are_nearest_rank() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&s, 0.50), 2.0);
        assert_eq!(quantile(&s, 0.95), 4.0);
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 4.0);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn no_fit_platform_has_a_zero_bound_and_admits_no_job() {
        // μ = 0 on every worker: the bound is 0, not a panic, and
        // nothing ever divides by it — the master refuses the first job,
        // and a gap against a degenerate bound renders 0, not NaN
        // (`obs::runmetrics`).
        let p = Platform::new(
            "no-fit",
            vec![WorkerSpec::new(1.0, 1.0, 3), WorkerSpec::new(1.0, 1.0, 4)],
        );
        assert_eq!(aggregate_throughput_bound(&p), 0.0);
        let reqs = [JobRequest {
            id: 0,
            tenant: 0,
            weight: 1.0,
            job: Job::new(4, 3, 4, 2),
            arrival: 0.0,
        }];
        assert!(MultiJobMaster::new(&p, &reqs, StreamConfig::default()).is_err());
    }

    #[test]
    fn solo_baseline_is_positive_and_deterministic() {
        let job = Job::new(4, 3, 6, 2);
        let a = solo_makespan(&platform(), &job);
        let b = solo_makespan(&platform(), &job);
        assert!(a > 0.0);
        assert_eq!(a, b);
    }

    #[test]
    fn report_covers_a_full_run_with_slowdowns_at_least_one() {
        let reqs = WorkloadSpec {
            tenants: vec![TenantSpec::new("t", 1.0, vec![Job::new(4, 3, 6, 2)])],
            arrivals: ArrivalProcess::Open {
                mean_interarrival: 30.0,
            },
            jobs: 4,
            seed: 5,
        }
        .generate();
        let mut policy = MultiJobMaster::new(&platform(), &reqs, StreamConfig::default()).unwrap();
        let stats = Simulator::new(platform())
            .with_arrivals(MultiJobMaster::arrival_plan(&reqs))
            .run(&mut policy)
            .unwrap();
        let report = stream_report(&platform(), &reqs, &stats);
        assert_eq!(report.completed, 4);
        assert_eq!(report.total, 4);
        // A shared platform can never beat the solo baseline.
        assert!(report.p50_slowdown >= 1.0 - 1e-9, "{report:?}");
        assert!(report.p99_slowdown >= report.p50_slowdown);
        assert!(report.throughput <= report.throughput_bound + 1e-9);
        assert!(report.mean_response > 0.0);
        // The single tenant's slice covers the whole run.
        assert_eq!(report.tenants.len(), 1);
        let t = &report.tenants[0];
        assert_eq!((t.tenant, t.completed, t.total), (0, 4, 4));
        assert!((t.throughput - report.throughput).abs() < 1e-9);
        assert!(t.p50_slowdown >= 1.0 - 1e-9);
    }

    #[test]
    fn per_tenant_slices_partition_the_aggregate() {
        let reqs = WorkloadSpec {
            tenants: vec![
                TenantSpec::new("light", 1.0, vec![Job::new(4, 3, 6, 2)]),
                TenantSpec::new("heavy", 3.0, vec![Job::new(6, 4, 8, 2)]),
            ],
            arrivals: ArrivalProcess::Open {
                mean_interarrival: 25.0,
            },
            jobs: 6,
            seed: 9,
        }
        .generate();
        let mut policy = MultiJobMaster::new(&platform(), &reqs, StreamConfig::default()).unwrap();
        let stats = Simulator::new(platform())
            .with_arrivals(MultiJobMaster::arrival_plan(&reqs))
            .run(&mut policy)
            .unwrap();
        let report = stream_report(&platform(), &reqs, &stats);
        // Tenant slices are disjoint and exhaustive.
        assert_eq!(
            report.tenants.iter().map(|t| t.total).sum::<usize>(),
            report.total
        );
        assert_eq!(
            report.tenants.iter().map(|t| t.completed).sum::<usize>(),
            report.completed
        );
        // Tenant throughputs sum to the aggregate (same denominator).
        let sum: f64 = report.tenants.iter().map(|t| t.throughput).sum();
        assert!((sum - report.throughput).abs() < 1e-9, "{report:?}");
        // Weights are carried through for the fairness view.
        let weights: Vec<f64> = report.tenants.iter().map(|t| t.weight).collect();
        assert_eq!(weights, vec![1.0, 3.0]);
    }
}
