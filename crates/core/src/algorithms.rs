//! The seven competitors of Section 6 behind one entry point.
//!
//! | Name | Layout | Assignment | Serving | Selection |
//! |---|---|---|---|---|
//! | `Hom` | `μ²+4μ` | static RR strips | strict RR | virtual platform per memory tier |
//! | `HomI` | `μ²+4μ` | static RR strips | strict RR | virtual platform per (m, c, w) triple |
//! | `Het` | `μ_i²+4μ_i` | phase-1 incremental selection | demand | best of 8 variants by simulation |
//! | `ORROML` | `μ_i²+4μ_i` | static RR strips, all workers | strict RR | none |
//! | `OMMOML` | `μ_i²+4μ_i` | static min-min | demand | implicit (min-min) |
//! | `ODDOML` | `μ_i²+4μ_i` | dynamic pool | demand | none |
//! | `BMM` | Toledo `3g²` | dynamic pool | demand | none |

use serde::{Deserialize, Serialize};
use stargemm_platform::Platform;
use stargemm_sim::{MasterPolicy, ObsSink, RunStats, SimError, Simulator};

use crate::assign::{bmm_sides, layout_sides, min_min_queues, round_robin_queues};
use crate::job::Job;
use crate::select_het::het_best;
use crate::select_hom::{choose_hom, choose_hom_improved, hom_policy_from_choice};
use crate::stream::{DynamicPool, Serving, StreamingMaster};

/// The algorithms compared in the paper's experiments.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Algorithm {
    /// Homogeneous algorithm on the best memory-tier virtual platform.
    Hom,
    /// Homogeneous algorithm on the best (m, c, w)-triple virtual platform.
    HomImproved,
    /// The paper's heterogeneous algorithm (best of 8 selection variants).
    Het,
    /// Overlapped round-robin with the optimized memory layout.
    Orroml,
    /// Overlapped min-min with the optimized memory layout.
    Ommoml,
    /// Overlapped demand-driven with the optimized memory layout.
    Oddoml,
    /// Toledo's block matrix multiply (equal-thirds memory layout).
    Bmm,
}

impl Algorithm {
    /// All seven, in the paper's presentation order.
    pub fn all() -> [Algorithm; 7] {
        [
            Algorithm::Hom,
            Algorithm::HomImproved,
            Algorithm::Het,
            Algorithm::Orroml,
            Algorithm::Ommoml,
            Algorithm::Oddoml,
            Algorithm::Bmm,
        ]
    }

    /// The paper's abbreviation.
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::Hom => "Hom",
            Algorithm::HomImproved => "HomI",
            Algorithm::Het => "Het",
            Algorithm::Orroml => "ORROML",
            Algorithm::Ommoml => "OMMOML",
            Algorithm::Oddoml => "ODDOML",
            Algorithm::Bmm => "BMM",
        }
    }
}

/// Failure to even construct a schedule (every worker's memory below the
/// layout minimum, or no virtual platform candidate).
#[derive(Clone, Debug, PartialEq)]
pub struct BuildError(pub String);

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cannot build schedule: {}", self.0)
    }
}

impl std::error::Error for BuildError {}

/// Builds the master policy for `alg` on `platform`/`job`.
///
/// For `Het` this includes the paper's decision procedure (simulating
/// the eight selection variants and keeping the best).
pub fn build_policy(
    platform: &Platform,
    job: &Job,
    alg: Algorithm,
) -> Result<StreamingMaster, BuildError> {
    let p = platform.len();
    match alg {
        Algorithm::Hom => {
            let choice = choose_hom(platform, job)
                .ok_or_else(|| BuildError("no feasible virtual platform".into()))?;
            Ok(hom_policy_from_choice("Hom", platform, job, &choice))
        }
        Algorithm::HomImproved => {
            let choice = choose_hom_improved(platform, job)
                .ok_or_else(|| BuildError("no feasible virtual platform".into()))?;
            Ok(hom_policy_from_choice("HomI", platform, job, &choice))
        }
        Algorithm::Het => {
            let sides = layout_sides(platform, job);
            if sides.iter().all(|&s| s == 0) {
                return Err(BuildError("no worker fits the layout".into()));
            }
            let (policy, _, _) = het_best(platform, job);
            Ok(policy)
        }
        Algorithm::Orroml => {
            let sides = layout_sides(platform, job);
            if sides.iter().all(|&s| s == 0) {
                return Err(BuildError("no worker fits the layout".into()));
            }
            let queues = round_robin_queues(job, p, 0..p, &sides, &mut 0);
            Ok(StreamingMaster::new_static(
                "ORROML",
                *job,
                queues,
                Serving::RoundRobin,
                2,
            ))
        }
        Algorithm::Ommoml => {
            let sides = layout_sides(platform, job);
            if sides.iter().all(|&s| s == 0) {
                return Err(BuildError("no worker fits the layout".into()));
            }
            let queues = min_min_queues(platform, job, &sides);
            Ok(StreamingMaster::new_static(
                "OMMOML",
                *job,
                queues,
                Serving::DemandDriven,
                2,
            ))
        }
        Algorithm::Oddoml => {
            let sides = layout_sides(platform, job);
            if sides.iter().all(|&s| s == 0) {
                return Err(BuildError("no worker fits the layout".into()));
            }
            let pool = DynamicPool::new(*job, sides, vec![1; p]);
            Ok(StreamingMaster::new_dynamic(
                "ODDOML",
                *job,
                pool,
                Serving::DemandDriven,
                2,
            ))
        }
        Algorithm::Bmm => {
            let sides = bmm_sides(platform, job);
            if sides.iter().all(|&s| s == 0) {
                return Err(BuildError("no worker fits Toledo's layout".into()));
            }
            let depths: Vec<usize> = sides.iter().map(|&g| g.clamp(1, job.t)).collect();
            let pool = DynamicPool::new(*job, sides, depths);
            Ok(StreamingMaster::new_dynamic(
                "BMM",
                *job,
                pool,
                Serving::DemandDriven,
                1,
            ))
        }
    }
}

/// Builds and simulates `alg`, returning the run statistics.
pub fn run_algorithm(platform: &Platform, job: &Job, alg: Algorithm) -> Result<RunStats, SimError> {
    run_algorithm_observed(platform, job, alg, ObsSink::off())
}

/// [`run_algorithm`] with a structured-event recorder attached (the
/// recorder only observes: stats and schedule are identical either way).
pub fn run_algorithm_observed(
    platform: &Platform,
    job: &Job,
    alg: Algorithm,
    obs: ObsSink,
) -> Result<RunStats, SimError> {
    let mut policy =
        build_policy(platform, job, alg).map_err(|e| SimError::protocol(e.to_string()))?;
    run_product(platform, job, &mut policy, obs)
}

/// Simulates `policy` and checks that the run computed all of `job`'s
/// product: the engine only checks that nothing is left outstanding, and
/// a static plan never redoes work, so its update count must be exact.
fn run_product(
    platform: &Platform,
    job: &Job,
    policy: &mut dyn MasterPolicy,
    obs: ObsSink,
) -> Result<RunStats, SimError> {
    let stats = Simulator::new(platform.clone()).run_observed(policy, obs)?;
    let (updates, expected) = (stats.total_updates, job.total_updates());
    if updates != expected {
        return Err(SimError::IncompleteProduct { updates, expected });
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use stargemm_platform::WorkerSpec;
    use stargemm_sim::{Action, SimCtx, SimEvent};

    fn het_platform() -> Platform {
        Platform::new(
            "het",
            vec![
                WorkerSpec::new(0.4, 0.15, 80),
                WorkerSpec::new(0.8, 0.3, 40),
                WorkerSpec::new(1.6, 0.6, 160),
                WorkerSpec::new(0.4, 0.6, 20),
            ],
        )
    }

    fn job() -> Job {
        Job::new(10, 8, 18, 2)
    }

    #[test]
    fn every_algorithm_completes_the_product() {
        for alg in Algorithm::all() {
            let stats = run_algorithm(&het_platform(), &job(), alg)
                .unwrap_or_else(|e| panic!("{}: {e}", alg.name()));
            assert_eq!(stats.total_updates, job().total_updates(), "{}", alg.name());
            assert_eq!(stats.blocks_to_master, job().c_blocks(), "{}", alg.name());
            assert!(stats.makespan > 0.0);
            assert_eq!(stats.policy, alg.name());
        }
    }

    /// A policy that declares `Finished` at its first decision after its
    /// first retrieval.
    struct QuitAfterFirstRetrieval(StreamingMaster, bool);

    impl MasterPolicy for QuitAfterFirstRetrieval {
        fn next_action(&mut self, ctx: &SimCtx) -> Action {
            if self.1 {
                Action::Finished
            } else {
                self.0.next_action(ctx)
            }
        }

        fn on_event(&mut self, ev: &SimEvent, ctx: &SimCtx) {
            self.1 |= matches!(ev, SimEvent::RetrieveDone { .. });
            self.0.on_event(ev, ctx);
        }
    }

    #[test]
    fn a_run_that_finishes_early_is_an_incomplete_product() {
        // One worker streams one chunk at a time, so nothing is left
        // outstanding when the policy quits: the engine accepts the run.
        let platform = Platform::homogeneous("one", 1, WorkerSpec::new(1.0, 1.0, 40));
        let job = job();
        let quit = || {
            QuitAfterFirstRetrieval(
                build_policy(&platform, &job, Algorithm::Hom).unwrap(),
                false,
            )
        };
        let stats = Simulator::new(platform.clone()).run(&mut quit()).unwrap();
        assert!(stats.total_updates < job.total_updates());

        let err = run_product(&platform, &job, &mut quit(), ObsSink::off()).unwrap_err();
        assert_eq!(
            err,
            SimError::IncompleteProduct {
                updates: stats.total_updates,
                expected: job.total_updates(),
            }
        );
    }

    #[test]
    fn memory_high_water_respects_capacity_everywhere() {
        for alg in Algorithm::all() {
            let stats = run_algorithm(&het_platform(), &job(), alg).unwrap();
            for (w, ws) in stats.per_worker.iter().enumerate() {
                assert!(
                    ws.mem_high_water <= het_platform().worker(w).m as u64,
                    "{} worker {w}",
                    alg.name()
                );
            }
        }
    }

    #[test]
    fn het_is_never_the_worst() {
        let results: Vec<(Algorithm, f64)> = Algorithm::all()
            .into_iter()
            .map(|a| {
                (
                    a,
                    run_algorithm(&het_platform(), &job(), a).unwrap().makespan,
                )
            })
            .collect();
        let het = results
            .iter()
            .find(|(a, _)| *a == Algorithm::Het)
            .unwrap()
            .1;
        let worst = results.iter().map(|(_, m)| *m).fold(0.0, f64::max);
        assert!(het < worst, "Het {het} vs worst {worst}: {results:?}");
    }

    #[test]
    fn bmm_moves_more_blocks_than_layout_algorithms() {
        // Toledo's layout is a √3 factor worse in CCR; with equal memory
        // it must ship more A/B blocks than ODDOML.
        let hom = Platform::homogeneous("hom", 3, WorkerSpec::new(0.3, 0.3, 120));
        let bmm = run_algorithm(&hom, &job(), Algorithm::Bmm).unwrap();
        let odd = run_algorithm(&hom, &job(), Algorithm::Oddoml).unwrap();
        assert!(
            bmm.blocks_to_workers > odd.blocks_to_workers,
            "BMM {} vs ODDOML {}",
            bmm.blocks_to_workers,
            odd.blocks_to_workers
        );
    }

    #[test]
    fn build_errors_are_reported() {
        let p = Platform::homogeneous("tiny", 2, WorkerSpec::new(1.0, 1.0, 3));
        // μ(3) = 0: nothing fits the optimized layout.
        assert!(build_policy(&p, &job(), Algorithm::Oddoml).is_err());
        // Toledo's layout fits in 3 blocks (g = 1).
        assert!(build_policy(&p, &job(), Algorithm::Bmm).is_ok());
    }
}
