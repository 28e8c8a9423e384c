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
//! driving all of that star's worker state machines). The federated
//! makespan is `max_s(arrival_s + makespan_s)` in model seconds.
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
use stargemm_sim::{MasterPolicy, RunStats};

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

    /// Executes the federated product `C ← C + A·B`: shards `B`/`C` by
    /// columns, drains the shard feeds over the uplinks, runs each
    /// star's policy on its own [`NetRuntime`] against its shard, and
    /// scatters every shard's result back into `c`. `policies[s]` must
    /// be built for `shard_jobs(job)[s]` on star `s`'s base platform.
    ///
    /// # Errors
    /// Any star failure aborts the federated run with that star's
    /// [`NetError`]; shards already computed are still in `c`.
    pub fn run<P: MasterPolicy + GeometryAccess>(
        &self,
        job: &Job,
        policies: &mut [P],
        a: &BlockMatrix,
        b: &BlockMatrix,
        c: &mut BlockMatrix,
    ) -> Result<FedNetRun, NetError> {
        assert_eq!(policies.len(), self.fed.len(), "one policy per star");
        let shards = self.shard_jobs(job)?;
        let arrivals = self.uplink_arrivals(&self.shard_volumes(job)?);
        let mut stars = Vec::with_capacity(self.fed.len());
        let mut j0 = 0usize;
        for (s, (shard, policy)) in shards.iter().zip(policies.iter_mut()).enumerate() {
            // Star s owns columns [j0, j0 + shard.s).
            let b_shard = slice_cols(b, j0, shard.s);
            let mut c_shard = slice_cols(c, j0, shard.s);
            let rt = NetRuntime::new(self.fed.star(s).platform.base.clone())
                .with_options(self.star_options(s));
            let stats = rt.run(policy, a, &b_shard, &mut c_shard)?;
            c.store_chunk(
                0,
                j0,
                c.block_rows(),
                shard.s,
                c_shard.chunk(0, 0, c_shard.block_rows(), shard.s),
            );
            stars.push(stats);
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

/// A copy of block columns `[j0, j0 + w)` of `m` as its own matrix.
fn slice_cols(m: &BlockMatrix, j0: usize, w: usize) -> BlockMatrix {
    let mut out = BlockMatrix::zeros(m.block_rows(), w, m.q());
    out.store_chunk(0, 0, m.block_rows(), w, m.chunk(0, j0, m.block_rows(), w));
    out
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
