//! Federated execution over the real messaging runtime: sharded matrix
//! ownership across `k` regional stars.
//!
//! The root master of a [`FedPlatform`] owns the full `A`, `B`, `C`;
//! each regional star owns a **column shard** of `B`/`C`
//! ([`stargemm_platform::shard_widths`] — the same lowest-index-first
//! remainder split the hierarchical LP of `stargemm_core::steady`
//! prices). [`FedNetRuntime`] composes the federation store-and-forward:
//! the root streams each star's shard (all of `A` plus the `B`/`C`
//! columns it owns) over that star's uplink — all uplinks contending
//! under the federation's uplink model (a `NetModelSpec`, the same value
//! the hierarchical LP prices its uplink rows by), integrated in closed
//! form by [`stargemm_netmodel::drain_times`] — and each star then
//! executes its shard job on its own [`NetRuntime`] (real data, its own
//! `@netmodel` and dynamic profile, the reactor's single lane table
//! driving all of that star's worker state machines). A shard is a
//! window, not a copy: the star's reactor reads and writes the caller's
//! `B` and `C` on the star's block columns, so nothing is sliced out or
//! scattered back. The federated makespan is `max_s(arrival_s +
//! makespan_s)` in model seconds.
//!
//! With `k = 1` the root and the regional master coincide: nothing
//! crosses an uplink (`arrivals == [0.0]`), the shard *is* the whole
//! job, and the run delegates verbatim to [`NetRuntime`] on the star —
//! the returned star stats are the single-star stats, unchanged
//! (pinned by tests; wall-clock timings are not reproducible across
//! runs, so the pin asserts the composition adds nothing *within* a
//! run).
//!
//! A true cross-star lane table — one reactor multiplexing several
//! masters' ports — is out of scope: each star keeps its own master
//! with its own port, which is exactly the paper's one-port model
//! applied per star, and the uplink tier above them is the closed-form
//! drain. DESIGN.md § Federation spells out the composition.

use stargemm_core::stream::GeometryAccess;
use stargemm_core::Job;
use stargemm_linalg::BlockMatrix;
use stargemm_netmodel::{drain_times, TransferLane};
use stargemm_platform::{shard_widths, FedPlatform};
use stargemm_sim::{MasterPolicy, ObsSink, RunStats};

use crate::reactor::run_reactor;
use crate::runtime::{NetError, NetOptions, NetRuntime};

/// Outcome of one federated net run.
#[derive(Clone, Debug)]
pub struct FedNetRun {
    /// When each star's shard feed lands at its regional master, in
    /// model seconds (all zeros for `k = 1`).
    pub arrivals: Vec<f64>,
    /// Per-star run statistics, in star-local time.
    pub stars: Vec<RunStats>,
    /// Federated makespan: `max_s(arrivals[s] + stars[s].makespan)`.
    pub makespan: f64,
}

impl FedNetRun {
    /// Total block updates across all stars.
    pub fn total_updates(&self) -> u64 {
        self.stars.iter().map(|s| s.total_updates).sum()
    }

    /// Aggregate throughput over the federated makespan.
    pub fn throughput(&self) -> f64 {
        self.total_updates() as f64 / self.makespan
    }
}

/// The federated driver: uplink drain + one [`NetRuntime`] per star.
pub struct FedNetRuntime {
    fed: FedPlatform,
    opts: NetOptions,
}

impl FedNetRuntime {
    /// A runtime over `fed` with default options.
    pub fn new(fed: FedPlatform) -> Self {
        assert!(!fed.is_empty(), "a federation needs at least one star");
        FedNetRuntime {
            fed,
            opts: NetOptions::default(),
        }
    }

    /// Base tuning (time scale, idle timeout). Per-star
    /// `netmodel` and `profile` always come from each star's own
    /// [`stargemm_platform::DynPlatform`] — see
    /// [`FedNetRuntime::star_options`].
    #[must_use]
    pub fn with_options(mut self, opts: NetOptions) -> Self {
        self.opts = opts;
        self
    }

    /// The platform being driven.
    pub fn fed(&self) -> &FedPlatform {
        &self.fed
    }

    /// The options star `s` runs under: the base tuning with the star's
    /// own contention model and dynamic profile substituted in.
    pub fn star_options(&self, s: usize) -> NetOptions {
        let star = self.fed.star(s);
        NetOptions {
            netmodel: star.platform.netmodel,
            profile: if star.platform.profile.is_static() {
                None
            } else {
                Some(star.platform.profile.clone())
            },
            ..self.opts.clone()
        }
    }

    /// The per-star shard jobs of `job`: star `s` owns
    /// `shard_widths(job.s, k)[s]` of the `s` columns.
    ///
    /// # Errors
    /// [`NetError::DimensionMismatch`] when the job has fewer columns
    /// than the federation has stars (an empty shard has no GEMM).
    pub fn shard_jobs(&self, job: &Job) -> Result<Vec<Job>, NetError> {
        if job.s < self.fed.len() {
            return Err(NetError::DimensionMismatch(format!(
                "job has {} block columns but the federation has {} stars",
                job.s,
                self.fed.len()
            )));
        }
        Ok(shard_widths(job.s, self.fed.len())
            .into_iter()
            .map(|w| Job::new(job.r, job.t, w, job.q))
            .collect())
    }

    /// Blocks the root must ship to each star: all of `A` plus the
    /// star's `B` and `C` columns.
    pub fn shard_volumes(&self, job: &Job) -> Result<Vec<f64>, NetError> {
        Ok(self
            .shard_jobs(job)?
            .iter()
            .map(|sj| (sj.r * sj.t + sj.t * sj.s + sj.r * sj.s) as f64)
            .collect())
    }

    /// When each star's shard feed lands at its regional master: the
    /// uplink lanes drain through the federation's contention model.
    /// `[0.0]` for `k = 1` — nothing crosses a wire.
    pub fn uplink_arrivals(&self, volumes: &[f64]) -> Vec<f64> {
        assert_eq!(volumes.len(), self.fed.len(), "one volume per star");
        if self.fed.len() == 1 {
            return vec![0.0];
        }
        let lanes: Vec<TransferLane> = self
            .fed
            .stars
            .iter()
            .enumerate()
            .map(|(s, star)| TransferLane {
                worker: s,
                link_rate: 1.0 / star.uplink_c,
            })
            .collect();
        drain_times(&lanes, volumes, &self.fed.uplink)
    }

    /// Executes the federated product `C ← C + A·B`: drains the shard
    /// feeds over the uplinks, then runs each star's policy on its own
    /// [`NetRuntime`] against its window of the caller's matrices — all
    /// of `a`, and star `s`'s block columns of `b` and `c`, read and
    /// written in place. `policies[s]` must be built for
    /// `shard_jobs(job)[s]` on star `s`'s base platform.
    ///
    /// # Errors
    /// [`NetError::DimensionMismatch`], before any star runs, when `a`,
    /// `b` or `c` is not an operand of `job`, or `policies` is not one
    /// policy per star for its shard job. A failing star aborts the run
    /// with its [`NetError`]: earlier stars' columns of `c` hold their
    /// products, its own hold the chunks it had retrieved (as
    /// [`NetRuntime::run`] leaves `c`), and later stars' are untouched.
    pub fn run<P: MasterPolicy + GeometryAccess>(
        &self,
        job: &Job,
        policies: &mut [P],
        a: &BlockMatrix,
        b: &BlockMatrix,
        c: &mut BlockMatrix,
    ) -> Result<FedNetRun, NetError> {
        let shards = self.shard_jobs(job)?;
        // The first star to start checks the shapes of A, B and C's rows;
        // left to check here: the windows tile C, each policy its shard.
        let jobs: Vec<Job> = policies.iter().map(|p| p.job_dims()).collect();
        if c.block_cols() != job.s || jobs != shards {
            return Err(NetError::DimensionMismatch(format!(
                "job {job:?} on C of {} block columns, policies for {jobs:?}, shards {shards:?}",
                c.block_cols()
            )));
        }
        let arrivals = self.uplink_arrivals(&self.shard_volumes(job)?);
        let mut stars = Vec::with_capacity(self.fed.len());
        let mut j0 = 0usize;
        for (s, (shard, policy)) in shards.iter().zip(policies.iter_mut()).enumerate() {
            let rt = NetRuntime::new(self.fed.star(s).platform.base.clone())
                .with_options(self.star_options(s));
            let cols = j0..j0 + shard.s;
            stars.push(run_reactor(&rt, policy, a, b, c, cols, &ObsSink::off())?);
            j0 += shard.s;
        }
        let makespan = arrivals
            .iter()
            .zip(&stars)
            .map(|(&at, st)| at + st.makespan)
            .fold(0.0f64, f64::max);
        Ok(FedNetRun {
            arrivals,
            stars,
            makespan,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use stargemm_core::algorithms::{build_policy, Algorithm};
    use stargemm_linalg::verify::{tolerance_for, verify_product};
    use stargemm_platform::{DynPlatform, FedStar, Platform, WorkerSpec};
    use stargemm_sim::NetModelSpec;
    use std::time::Duration;

    fn fast_opts() -> NetOptions {
        NetOptions {
            time_scale: 1e-7,
            idle_timeout: Duration::from_secs(20),
            ..Default::default()
        }
    }

    fn star_platform() -> Platform {
        Platform::new(
            "net-fed-test",
            vec![
                WorkerSpec::new(1e-4, 1e-4, 60),
                WorkerSpec::new(2e-4, 2e-4, 30),
            ],
        )
    }

    #[test]
    fn single_star_delegates_to_the_runtime() {
        let job = Job::new(6, 5, 8, 4);
        let fed = FedPlatform::single(DynPlatform::constant(star_platform()));
        let rt = FedNetRuntime::new(fed).with_options(fast_opts());
        let shards = rt.shard_jobs(&job).unwrap();
        assert_eq!(shards, vec![job]);
        assert_eq!(
            rt.uplink_arrivals(&rt.shard_volumes(&job).unwrap()),
            vec![0.0]
        );

        let mut rng = StdRng::seed_from_u64(7);
        let a = BlockMatrix::random(job.r, job.t, job.q, &mut rng);
        let b = BlockMatrix::random(job.t, job.s, job.q, &mut rng);
        let c0 = BlockMatrix::random(job.r, job.s, job.q, &mut rng);
        let mut c = c0.clone();
        let mut policies = vec![build_policy(&star_platform(), &job, Algorithm::Het).unwrap()];
        let run = rt.run(&job, &mut policies, &a, &b, &mut c).unwrap();
        // k = 1: the composition adds nothing — the federated makespan
        // IS the star's, bit for bit, and the product is exact.
        assert_eq!(run.arrivals, vec![0.0]);
        assert_eq!(run.makespan.to_bits(), run.stars[0].makespan.to_bits());
        assert_eq!(run.total_updates(), job.total_updates());
        let report = verify_product(&c, &c0, &a, &b, tolerance_for(job.t * job.q));
        assert!(report.passed(), "{report:?}");
    }

    #[test]
    fn two_stars_compute_their_shards_into_one_product() {
        let job = Job::new(6, 5, 8, 4);
        let fed = FedPlatform::new(
            "fed2",
            vec![
                FedStar::new(DynPlatform::constant(star_platform()), 0.5),
                FedStar::new(DynPlatform::constant(star_platform()), 1.0),
            ],
            NetModelSpec::OnePort,
        );
        let rt = FedNetRuntime::new(fed).with_options(fast_opts());
        let shards = rt.shard_jobs(&job).unwrap();
        assert_eq!(shards[0].s, 4);
        assert_eq!(shards[1].s, 4);

        let mut rng = StdRng::seed_from_u64(13);
        let a = BlockMatrix::random(job.r, job.t, job.q, &mut rng);
        let b = BlockMatrix::random(job.t, job.s, job.q, &mut rng);
        let c0 = BlockMatrix::random(job.r, job.s, job.q, &mut rng);
        let mut c = c0.clone();
        let mut policies: Vec<_> = shards
            .iter()
            .map(|sj| build_policy(&star_platform(), sj, Algorithm::Het).unwrap())
            .collect();
        let run = rt.run(&job, &mut policies, &a, &b, &mut c).unwrap();
        // The concatenation of the shard products is the full product.
        let report = verify_product(&c, &c0, &a, &b, tolerance_for(job.t * job.q));
        assert!(report.passed(), "{report:?}");
        assert_eq!(run.total_updates(), job.total_updates());
        // One-port uplinks serialize the two feeds; the makespan folds
        // the later arrival in.
        let volumes = rt.shard_volumes(&job).unwrap();
        assert_eq!(
            run.arrivals,
            vec![volumes[0] * 0.5, volumes[0] * 0.5 + volumes[1] * 1.0]
        );
        for (at, st) in run.arrivals.iter().zip(&run.stars) {
            assert!(run.makespan >= at + st.makespan - 1e-12);
        }
    }

    /// The uplink tier drains in closed form under the federation's
    /// model: one port serializes the feeds in star order, two overlap
    /// them.
    #[test]
    fn uplink_feeds_drain_through_the_federation_model() {
        let fed = |costs: [f64; 2], uplink| {
            let stars = costs.map(|c| FedStar::new(DynPlatform::constant(star_platform()), c));
            FedNetRuntime::new(FedPlatform::new("f2", stars.to_vec(), uplink))
        };
        let two_ports = NetModelSpec::BoundedMultiPort {
            k: 2,
            backbone: None,
        };
        // Star 0's 10-block feed lands at 5.0; star 1's queues behind it
        // → 5 + 20 = 25.
        let skewed = fed([0.5, 2.0], NetModelSpec::OnePort);
        assert_eq!(skewed.uplink_arrivals(&[10.0, 10.0]), [5.0, 25.0]);
        let serial = fed([1.0, 1.0], NetModelSpec::OnePort);
        assert_eq!(serial.uplink_arrivals(&[10.0, 10.0]), [10.0, 20.0]);
        let overlap = fed([1.0, 1.0], two_ports);
        assert_eq!(overlap.uplink_arrivals(&[10.0, 10.0]), [10.0, 10.0]);
    }

    fn two_stars() -> FedNetRuntime {
        let star = || FedStar::new(DynPlatform::constant(star_platform()), 1.0);
        let fed = FedPlatform::new("fed2", vec![star(), star()], NetModelSpec::OnePort);
        FedNetRuntime::new(fed).with_options(fast_opts())
    }

    /// Operands of another shape, or policies that are not one per star
    /// for its shard, are refused before any star touches `C`.
    #[test]
    fn misshapen_runs_are_refused_before_any_star_runs() {
        let job = Job::new(6, 5, 8, 4);
        let rt = two_stars();
        let shards = rt.shard_jobs(&job).unwrap();
        let mut rng = StdRng::seed_from_u64(19);
        let a = BlockMatrix::random(job.r, job.t, job.q, &mut rng);
        // (case, B's block columns, C's block columns, policy jobs)
        let rows: [(&str, usize, usize, &[Job]); 6] = [
            ("C with 4 block columns", 8, 4, &shards),
            ("B with 6 block columns", 6, 8, &shards),
            ("C with 10 block columns", 8, 10, &shards),
            ("B with 10 block columns", 10, 8, &shards),
            ("one policy for two stars", 8, 8, &shards[..1]),
            ("policies built for the whole job", 8, 8, &[job, job]),
        ];
        for (case, b_cols, c_cols, jobs) in rows {
            let b = BlockMatrix::random(job.t, b_cols, job.q, &mut rng);
            let c0 = BlockMatrix::random(job.r, c_cols, job.q, &mut rng);
            let mut c = c0.clone();
            let mut policies: Vec<_> = jobs
                .iter()
                .map(|j| build_policy(&star_platform(), j, Algorithm::Het).unwrap())
                .collect();
            let err = rt.run(&job, &mut policies, &a, &b, &mut c).unwrap_err();
            assert!(
                matches!(err, NetError::DimensionMismatch(_)),
                "{case}: {err}"
            );
            assert_eq!(c, c0, "{case}: a star ran");
        }
    }

    /// A failing star ends the run with its own error; the next star's
    /// columns of `C` are never touched.
    #[test]
    fn a_failing_star_leaves_the_later_stars_columns_alone() {
        let job = Job::new(6, 5, 8, 4);
        let rt = two_stars().with_options(NetOptions {
            inject_fault: Some((0, 5)),
            idle_timeout: Duration::from_secs(3),
            ..fast_opts()
        });
        let shards = rt.shard_jobs(&job).unwrap();
        let mut rng = StdRng::seed_from_u64(23);
        let a = BlockMatrix::random(job.r, job.t, job.q, &mut rng);
        let b = BlockMatrix::random(job.t, job.s, job.q, &mut rng);
        let c0 = BlockMatrix::random(job.r, job.s, job.q, &mut rng);
        let mut c = c0.clone();
        let mut policies: Vec<_> = shards
            .iter()
            .map(|sj| build_policy(&star_platform(), sj, Algorithm::Het).unwrap())
            .collect();
        let err = rt.run(&job, &mut policies, &a, &b, &mut c).unwrap_err();
        assert!(
            matches!(err, NetError::WorkerFailure(_) | NetError::Timeout),
            "{err}"
        );
        let (j0, w) = (shards[0].s, shards[1].s);
        for i in 0..job.r {
            let bits = |m: &BlockMatrix| -> Vec<u64> {
                m.row_run(i, j0, w).iter().map(|x| x.to_bits()).collect()
            };
            assert_eq!(bits(&c), bits(&c0), "row {i}");
        }
    }

    #[test]
    fn undersized_jobs_cannot_be_sharded() {
        let fed = FedPlatform::new(
            "fed3",
            vec![
                FedStar::new(DynPlatform::constant(star_platform()), 1.0),
                FedStar::new(DynPlatform::constant(star_platform()), 1.0),
                FedStar::new(DynPlatform::constant(star_platform()), 1.0),
            ],
            NetModelSpec::OnePort,
        );
        let rt = FedNetRuntime::new(fed);
        let err = rt.shard_jobs(&Job::new(4, 4, 2, 4)).unwrap_err();
        assert!(matches!(err, NetError::DimensionMismatch(_)));
        // And a wide-enough job shards with the remainder on low stars.
        let shards = rt.shard_jobs(&Job::new(4, 4, 8, 4)).unwrap();
        assert_eq!(
            shards.iter().map(|j| j.s).collect::<Vec<_>>(),
            vec![3, 3, 2]
        );
    }
}
