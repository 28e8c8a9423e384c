//! The federated stream master: one root placing jobs across `k`
//! regional stars.
//!
//! [`MultiStarMaster`] sits on top of a [`FedPlatform`]: the root
//! receives the job stream, places each job on a regional star in
//! proportion to the stars' steady-state LP throughput (least *relative*
//! load first — the share-weighted water level of
//! `stargemm_core::steady`), ships the job's operands over the owning
//! star's uplink (store-and-forward: the uplink serializes its feeds,
//! and the root opens at most `capacity()` uplink transfers at once
//! under its `stargemm_netmodel::NetModelSpec`), and lets each star's
//! own [`MultiJobMaster`] time-share its workers locally. Worker
//! crashes are recovered by the owning star's master alone — no other
//! star observes them, which the tests pin.
//!
//! With `k = 1` the root and the regional master coincide: nothing
//! crosses an uplink, every job arrives at its original time, and the
//! run is **bitwise identical** to driving [`MultiJobMaster`] on the
//! star directly (pinned by tests). The `fed` experiment row of
//! `stargemm-bench` compares this composition against the hierarchical
//! LP bound (`stargemm_core::steady::federated_lp`) — no cell may beat
//! the bound, and with fast uplinks a `k ≥ 2` federation beats any
//! single star's one-port ceiling.

use stargemm_core::steady::bandwidth_centric;
use stargemm_core::Job;
use stargemm_obs::ObsEvent;
use stargemm_platform::FedPlatform;
use stargemm_sim::{JobId, ObsSink, RunRecorder, RunStats, SimError, Simulator};

use crate::multi::{MultiJobMaster, StreamConfig, StreamError, StreamStats};
use crate::workload::JobRequest;

/// Why a federated stream run failed.
#[derive(Debug)]
pub enum FedStreamError {
    /// A star's member master rejected its job subset.
    Stream(StreamError),
    /// A star's simulation failed.
    Sim(SimError),
}

impl std::fmt::Display for FedStreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FedStreamError::Stream(e) => write!(f, "federated stream: {e}"),
            FedStreamError::Sim(e) => write!(f, "federated sim: {e}"),
        }
    }
}

impl std::error::Error for FedStreamError {}

impl From<StreamError> for FedStreamError {
    fn from(e: StreamError) -> Self {
        FedStreamError::Stream(e)
    }
}

impl From<SimError> for FedStreamError {
    fn from(e: SimError) -> Self {
        FedStreamError::Sim(e)
    }
}

/// Outcome of one federated stream run.
#[derive(Clone, Debug, PartialEq)]
pub struct FedStreamRun {
    /// Which star each request was placed on, in request order.
    pub placement: Vec<(JobId, usize)>,
    /// When each job's operand feed lands at its regional master, in
    /// request order (the original arrival time for `k = 1`).
    pub feed_arrivals: Vec<(JobId, f64)>,
    /// Per-star run statistics. Arrivals were fed in root-clock time,
    /// so every star's makespan is already on the shared clock.
    pub stars: Vec<RunStats>,
    /// Per-star stream counters (admissions, completions, replans).
    pub stream_stats: Vec<StreamStats>,
    /// Federated makespan: the latest star completion.
    pub makespan: f64,
}

impl FedStreamRun {
    /// Total block updates across all stars.
    pub fn total_updates(&self) -> u64 {
        self.stars.iter().map(|s| s.total_updates).sum()
    }

    /// Aggregate throughput over the federated makespan.
    pub fn throughput(&self) -> f64 {
        self.total_updates() as f64 / self.makespan
    }
}

/// Operand footprint of a job in blocks — what the root must ship to
/// the owning star before the job can start there (A, B and the C
/// panel).
pub fn job_volume(job: &Job) -> f64 {
    (job.r * job.t + job.t * job.s + job.r * job.s) as f64
}

/// The root master of a federated stream: placement + uplink feeds +
/// one [`MultiJobMaster`] per star.
pub struct MultiStarMaster {
    fed: FedPlatform,
    cfg: StreamConfig,
}

impl MultiStarMaster {
    /// A root master over `fed` with per-star stream tuning `cfg`.
    pub fn new(fed: FedPlatform, cfg: StreamConfig) -> Self {
        assert!(!fed.is_empty(), "a federation needs at least one star");
        MultiStarMaster { fed, cfg }
    }

    /// The platform being driven.
    pub fn fed(&self) -> &FedPlatform {
        &self.fed
    }

    /// Places each request on a star: greedy least-relative-load, where
    /// a star's load is its assigned updates divided by its
    /// steady-state LP throughput for the job's shape
    /// ([`bandwidth_centric`] — the per-star Table 1 share). Stars that
    /// fit the job at all are preferred; ties break on the lowest star
    /// index, so placement is deterministic.
    pub fn place(&self, requests: &[JobRequest]) -> Vec<usize> {
        let k = self.fed.len();
        let mut load = vec![0.0f64; k];
        requests
            .iter()
            .map(|r| {
                let updates = r.job.total_updates() as f64;
                let best = (0..k)
                    .filter_map(|s| {
                        let base = &self.fed.star(s).platform.base;
                        let rho = bandwidth_centric(base, r.job.r).throughput;
                        if rho <= 0.0 {
                            return None;
                        }
                        Some((s, (load[s] + updates) / rho))
                    })
                    .min_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)))
                    .map(|(s, _)| s)
                    .unwrap_or(0);
                load[best] += updates;
                best
            })
            .collect()
    }

    /// When each request's operand feed lands at its star, given a
    /// `placement`: the owning star's uplink serializes its feeds in
    /// arrival order, and the root opens at most
    /// `fed.uplink.capacity()` transfers at once. For `k = 1` nothing
    /// crosses a wire and every job keeps its original arrival time.
    pub fn feed_arrivals(&self, requests: &[JobRequest], placement: &[usize]) -> Vec<f64> {
        assert_eq!(placement.len(), requests.len(), "one star per request");
        if self.fed.len() == 1 {
            return requests.iter().map(|r| r.arrival).collect();
        }
        // Requests are processed in arrival order (stable on ties), but
        // the result is reported in request order.
        let mut order: Vec<usize> = (0..requests.len()).collect();
        order.sort_by(|&a, &b| requests[a].arrival.total_cmp(&requests[b].arrival));
        let ports = self.fed.uplink.capacity().min(order.len().max(1));
        let mut root_free = vec![0.0f64; ports];
        let mut uplink_free = vec![0.0f64; self.fed.len()];
        let mut arrivals = vec![0.0f64; requests.len()];
        for &i in &order {
            let star = placement[i];
            let dur = job_volume(&requests[i].job) * self.fed.star(star).uplink_c;
            let port = (0..ports)
                .min_by(|&a, &b| root_free[a].total_cmp(&root_free[b]).then(a.cmp(&b)))
                .expect("at least one root port");
            let start = requests[i]
                .arrival
                .max(root_free[port])
                .max(uplink_free[star]);
            let end = start + dur;
            root_free[port] = end;
            uplink_free[star] = end;
            arrivals[i] = end;
        }
        arrivals
    }

    /// Runs the whole federated stream: place, feed, then one
    /// [`MultiJobMaster`] simulation per star (each on its own
    /// [`Simulator`], with its own dynamic profile — a crash on one
    /// star is invisible to every other). Arrivals are fed in
    /// root-clock time, so per-star stats share one clock; with `k = 1`
    /// this is bitwise the single-star stream run.
    ///
    /// Every star's simulation is recorded: the run comes back with one
    /// structured event log per star, each additionally carrying
    /// synthesized [`ObsEvent::UplinkAcquire`]/[`ObsEvent::UplinkRelease`]
    /// spans for the star's operand feeds (none at `k = 1`, where nothing
    /// crosses a wire), so post-run attribution can see uplink
    /// serialization next to the star's local port and compute
    /// timeline. Recording only observes: the schedule is the one an
    /// unrecorded simulation gives.
    pub fn run_recorded(
        &self,
        requests: &[JobRequest],
    ) -> Result<(FedStreamRun, Vec<Vec<ObsEvent>>), FedStreamError> {
        let placement = self.place(requests);
        let arrivals = self.feed_arrivals(requests, &placement);
        let mut stars = Vec::with_capacity(self.fed.len());
        let mut stream_stats = Vec::with_capacity(self.fed.len());
        let mut logs: Vec<Vec<ObsEvent>> = Vec::with_capacity(self.fed.len());
        for s in 0..self.fed.len() {
            // The star sees its own subset, arriving when the feed lands.
            let local: Vec<JobRequest> = requests
                .iter()
                .zip(&placement)
                .zip(&arrivals)
                .filter(|((_, &p), _)| p == s)
                .map(|((r, _), &at)| JobRequest { arrival: at, ..*r })
                .collect();
            let star = self.fed.star(s);
            let rec = RunRecorder::shared();
            let obs = ObsSink::to(rec.clone());
            let mut policy =
                MultiJobMaster::new(&star.platform.base, &local, self.cfg)?.with_obs(obs.clone());
            let stats = Simulator::new_dyn(star.platform.clone())
                .with_arrivals(MultiJobMaster::arrival_plan(&local))
                .run_observed(&mut policy, obs)?;
            stream_stats.push(policy.stats());
            stars.push(stats);
            let (mut events,) = rec.take().into_parts();
            if self.fed.len() > 1 {
                let star_id = ObsEvent::narrow(s);
                for r in &local {
                    let volume = job_volume(&r.job);
                    let dur = volume * star.uplink_c;
                    let blocks = volume as u64;
                    events.push(ObsEvent::UplinkAcquire {
                        time: r.arrival - dur,
                        star: star_id,
                        job: r.id,
                        blocks,
                    });
                    events.push(ObsEvent::UplinkRelease {
                        time: r.arrival,
                        star: star_id,
                        job: r.id,
                        blocks,
                    });
                }
                // Stable by time: engine events are already ordered, and
                // same-instant pairs keep their emission order.
                events.sort_by(|a, b| a.time().total_cmp(&b.time()));
            }
            logs.push(events);
        }
        let makespan = stars.iter().map(|s| s.makespan).fold(0.0f64, f64::max);
        Ok((
            FedStreamRun {
                placement: requests.iter().map(|r| r.id).zip(placement).collect(),
                feed_arrivals: requests.iter().map(|r| r.id).zip(arrivals).collect(),
                stars,
                stream_stats,
                makespan,
            },
            logs,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{ArrivalProcess, TenantSpec, WorkloadSpec};
    use stargemm_platform::{
        DynPlatform, DynProfile, FedStar, Platform, Trace, WorkerDyn, WorkerSpec,
    };
    use stargemm_sim::NetModelSpec;

    fn star_platform() -> Platform {
        Platform::new(
            "star",
            vec![
                WorkerSpec::new(0.2, 0.1, 60),
                WorkerSpec::new(0.3, 0.15, 60),
                WorkerSpec::new(0.5, 0.3, 40),
            ],
        )
    }

    fn workload(jobs: usize, seed: u64, mean: f64) -> Vec<JobRequest> {
        WorkloadSpec {
            tenants: vec![
                TenantSpec::new("t0", 1.0, vec![Job::new(4, 3, 6, 2)]),
                TenantSpec::new("t1", 2.0, vec![Job::new(6, 4, 8, 2)]),
            ],
            arrivals: if mean > 0.0 {
                ArrivalProcess::Open {
                    mean_interarrival: mean,
                }
            } else {
                ArrivalProcess::ClosedBatch
            },
            jobs,
            seed,
        }
        .generate()
    }

    fn two_star_fed(uplink_c: f64) -> FedPlatform {
        FedPlatform::new(
            "fed2",
            vec![
                FedStar::new(DynPlatform::constant(star_platform()), uplink_c),
                FedStar::new(DynPlatform::constant(star_platform()), uplink_c),
            ],
            NetModelSpec::OnePort,
        )
    }

    #[test]
    fn single_star_run_is_bitwise_the_multi_job_master() {
        let reqs = workload(5, 11, 10.0);
        let fed = FedPlatform::single(DynPlatform::constant(star_platform()));
        let root = MultiStarMaster::new(fed, StreamConfig::default());
        let run = root.run_recorded(&reqs).unwrap().0;
        assert!(run.placement.iter().all(|&(_, s)| s == 0));
        // Feeds keep the original arrival times: nothing crossed a wire.
        for (r, &(id, at)) in reqs.iter().zip(&run.feed_arrivals) {
            assert_eq!(r.id, id);
            assert_eq!(at.to_bits(), r.arrival.to_bits());
        }

        let mut solo =
            MultiJobMaster::new(&star_platform(), &reqs, StreamConfig::default()).unwrap();
        let stats = Simulator::new(star_platform())
            .with_arrivals(MultiJobMaster::arrival_plan(&reqs))
            .run(&mut solo)
            .unwrap();
        // Bitwise: RunStats is PartialEq over every field.
        assert_eq!(run.stars[0], stats);
        assert_eq!(run.makespan.to_bits(), stats.makespan.to_bits());
    }

    #[test]
    fn identical_stars_split_the_stream_evenly() {
        let reqs = workload(6, 3, 0.0);
        let root = MultiStarMaster::new(two_star_fed(0.01), StreamConfig::default());
        let placement = root.place(&reqs);
        // Greedy relative load balances equal stars by *updates*, not
        // job count: both stars get work, and their assigned loads
        // differ by at most one job.
        let load = |star: usize| -> u64 {
            reqs.iter()
                .zip(&placement)
                .filter(|(_, &s)| s == star)
                .map(|(r, _)| r.job.total_updates())
                .sum()
        };
        let biggest = reqs.iter().map(|r| r.job.total_updates()).max().unwrap();
        assert!(placement.contains(&0));
        assert!(placement.contains(&1));
        assert!(load(0).abs_diff(load(1)) <= biggest);
        let run = root.run_recorded(&reqs).unwrap().0;
        assert_eq!(run.stars[0].jobs.len() + run.stars[1].jobs.len(), 6);
        assert!(run
            .stars
            .iter()
            .all(|s| s.jobs.iter().all(|j| j.completion.is_some())));
        let total: u64 = reqs.iter().map(|r| r.job.total_updates()).sum();
        assert_eq!(run.total_updates(), total);
    }

    #[test]
    fn uplink_feeds_serialize_per_star_and_root() {
        let reqs = workload(4, 7, 0.0);
        let root = MultiStarMaster::new(two_star_fed(1.0), StreamConfig::default());
        let placement = root.place(&reqs);
        let arr = root.feed_arrivals(&reqs, &placement);
        // Every feed lands strictly after its arrival (volumes > 0) and
        // feeds of the same star never overlap: sorted by landing time,
        // consecutive same-star feeds are at least a volume apart.
        for (r, &at) in reqs.iter().zip(&arr) {
            assert!(at >= r.arrival + job_volume(&r.job) * 1.0 - 1e-9);
        }
        // The one-port root serializes everything: total wire time
        // equals the last landing.
        let total_wire: f64 = reqs.iter().map(|r| job_volume(&r.job)).sum();
        let last = arr.iter().cloned().fold(0.0f64, f64::max);
        assert!((last - total_wire).abs() < 1e-9, "{last} vs {total_wire}");
    }

    #[test]
    fn crashes_are_confined_to_the_owning_star() {
        let reqs = workload(6, 5, 4.0);
        // Star 1's worker 1 dies at t = 30 and never returns; star 0 is
        // untouched.
        let crash = DynProfile::new(vec![
            WorkerDyn::stable(),
            WorkerDyn::new(
                Trace::default(),
                Trace::default(),
                vec![(30.0, f64::INFINITY)],
            ),
            WorkerDyn::stable(),
        ]);
        let healthy = two_star_fed(0.05);
        let wounded = FedPlatform::new(
            "fed2",
            vec![
                FedStar::new(DynPlatform::constant(star_platform()), 0.05),
                FedStar::new(DynPlatform::new(star_platform(), crash), 0.05),
            ],
            NetModelSpec::OnePort,
        );
        let cfg = StreamConfig::default();
        let a = MultiStarMaster::new(healthy, cfg)
            .run_recorded(&reqs)
            .unwrap()
            .0;
        let b = MultiStarMaster::new(wounded, cfg)
            .run_recorded(&reqs)
            .unwrap()
            .0;
        // Identical placement and feeds (placement ignores dynamics),
        // and star 0's run is bitwise untouched by star 1's crash.
        assert_eq!(a.placement, b.placement);
        assert_eq!(a.feed_arrivals, b.feed_arrivals);
        assert_eq!(a.stars[0], b.stars[0]);
        // The wounded star still completes everything via survivors.
        assert!(b.stars[1].jobs.iter().all(|j| j.completion.is_some()));
        assert!(b.stream_stats[1].reassigned_chunks >= 1 || b.stars[1].jobs.is_empty());
    }
}
