//! Determinism guarantees of the kernel/model split and the parallel
//! sweep runner.
//!
//! The DES kernel orders events by `(time, schedule sequence)` with no
//! dependence on hashing, allocation, or thread interleaving, so:
//!
//! * running the same (platform, trace, policy, seed) scenario twice
//!   yields **byte-identical** statistics and policy-visible callback
//!   logs (every decision and every notification, with its instant);
//! * a parallel sweep returns its results in grid order, so the
//!   aggregated JSON artifact is byte-identical whatever `--threads`
//!   says.

use proptest::prelude::*;
use stargemm::core::algorithms::{build_policy, run_algorithm, Algorithm};
use stargemm::core::Job;
use stargemm::dynamic::model::DynPlatform;
use stargemm::dynamic::{random_scenario, AdaptiveMaster, ScenarioConfig};
use stargemm::platform::{Platform, WorkerSpec};
use stargemm::sim::{MasterPolicy, Simulator};
use stargemm_bench::sweep::SweepSpec;
use stargemm_bench::{parallel_map, Instance};

mod common;
use common::Logged;

fn arb_spec() -> impl Strategy<Value = WorkerSpec> {
    (0.05f64..4.0, 0.05f64..4.0, 16usize..400).prop_map(|(c, w, m)| WorkerSpec::new(c, w, m))
}

fn arb_platform() -> impl Strategy<Value = Platform> {
    prop::collection::vec(arb_spec(), 1..5).prop_map(|specs| Platform::new("prop", specs))
}

fn arb_job() -> impl Strategy<Value = Job> {
    (1usize..10, 1usize..8, 1usize..14).prop_map(|(r, t, s)| Job::new(r, t, s, 4))
}

fn arb_scenario() -> impl Strategy<Value = (DynPlatform, Job)> {
    (arb_platform(), arb_job(), 0u64..1_000, 0usize..3).prop_map(|(p, job, seed, regime)| {
        let cfg = match regime {
            0 => ScenarioConfig {
                c_jitter: 1.0,
                w_jitter: 1.0,
                crash_prob: 0.0,
                segment_len: 10.0,
                horizon: 100.0,
                rejoin_prob: 0.0,
            },
            1 => ScenarioConfig {
                c_jitter: 2.0,
                w_jitter: 1.5,
                crash_prob: 0.0,
                segment_len: 15.0,
                horizon: 300.0,
                rejoin_prob: 0.0,
            },
            _ => ScenarioConfig {
                c_jitter: 1.5,
                w_jitter: 1.5,
                crash_prob: 0.15,
                segment_len: 20.0,
                horizon: 400.0,
                rejoin_prob: 0.5,
            },
        };
        (random_scenario(&p.clone(), cfg, seed), job)
    })
}

/// Byte form of a run: the `Debug` rendering of the stats plus the
/// policy's full callback log (floats via `{:?}` are
/// shortest-round-trip, so equal strings mean bit-equal values).
fn run_bytes(sim: &Simulator, policy: impl MasterPolicy) -> String {
    let mut policy = Logged::new(policy);
    match sim.run(&mut policy) {
        Ok(stats) => format!("{stats:?}\n{:?}", policy.log),
        Err(e) => format!("error: {e:?}\n{:?}", policy.log),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Static platforms: two runs of the same scenario are byte-identical.
    #[test]
    fn static_runs_are_byte_identical(platform in arb_platform(), job in arb_job(),
                                      ai in 0usize..7) {
        let alg = Algorithm::all()[ai];
        prop_assume!(build_policy(&platform, &job, alg).is_ok());
        let sim = Simulator::new(platform.clone());
        let bytes = |_| run_bytes(&sim, build_policy(&platform, &job, alg).unwrap());
        prop_assert_eq!(bytes(0), bytes(1));
    }

    /// Dynamic platforms (cost traces + churn): same scenario, same seed
    /// → byte-identical callback log and stats, run-to-run and across
    /// clones.
    #[test]
    fn dynamic_runs_are_byte_identical(scenario in arb_scenario()) {
        let (dp, job) = scenario;
        prop_assume!(AdaptiveMaster::adaptive_het(&dp.base, &job).is_ok());
        let sim = Simulator::new_dyn(dp.clone());
        let bytes = |s: &Simulator| {
            run_bytes(s, AdaptiveMaster::adaptive_het(&dp.base, &job).unwrap())
        };
        let twin = sim.clone();
        prop_assert_eq!(bytes(&sim), bytes(&sim));
        prop_assert_eq!(bytes(&sim), bytes(&twin));
    }

    /// A scenario run alone equals the same scenario run inside a
    /// parallel sweep next to other scenarios, for every thread count.
    #[test]
    fn sweep_runs_equal_solo_runs(scenario in arb_scenario(), extra in arb_scenario()) {
        let (dp, job) = scenario;
        prop_assume!(AdaptiveMaster::adaptive_het(&dp.base, &job).is_ok());
        prop_assume!(AdaptiveMaster::adaptive_het(&extra.0.base, &extra.1).is_ok());
        let grid = [(dp.clone(), job), extra.clone(), (dp.clone(), job)];
        let solo = run_scenario(&dp, &job);
        for threads in [1usize, 3] {
            let swept = parallel_map(threads, &grid, |_, (d, j)| run_scenario(d, j));
            prop_assert_eq!(&swept[0], &solo, "threads = {}", threads);
            prop_assert_eq!(&swept[2], &solo, "threads = {}", threads);
        }
    }
}

fn run_scenario(dp: &DynPlatform, job: &Job) -> String {
    run_bytes(
        &Simulator::new_dyn(dp.clone()),
        AdaptiveMaster::adaptive_het(&dp.base, job).unwrap(),
    )
}

/// The aggregated JSON of a whole sweep is byte-identical across thread
/// counts (the artifact contract of `SweepOutcome::to_json`).
#[test]
fn sweep_json_is_thread_count_independent() {
    let platform = Platform::new(
        "sweep-json",
        vec![
            WorkerSpec::new(0.2, 0.1, 60),
            WorkerSpec::new(0.3, 0.15, 40),
            WorkerSpec::new(0.5, 0.3, 40),
        ],
    );
    let jobs: Vec<Job> = (2..8).map(|r| Job::new(r, 5, r + 2, 4)).collect();
    let json: Vec<String> = [1usize, 2, 4]
        .iter()
        .map(|&threads| {
            SweepSpec::new("det", threads)
                .run(&jobs, |job| {
                    run_algorithm(&platform, job, Algorithm::Het).unwrap()
                })
                .to_json()
        })
        .collect();
    assert_eq!(json[0], json[1]);
    assert_eq!(json[0], json[2]);
    assert!(json[0].contains("\"experiment\": \"det\""));
    assert!(json[0].contains("\"makespan\""));
}

/// `Instance::run_grid` (the figure protocol) is equally order-stable.
#[test]
fn instance_grid_is_thread_count_independent() {
    let platform = Platform::new(
        "grid",
        vec![WorkerSpec::new(0.5, 0.3, 40), WorkerSpec::new(1.0, 0.6, 20)],
    );
    let grid: Vec<(Platform, Job)> = (3..7)
        .map(|r| (platform.clone(), Job::new(r, 4, 6, 2)))
        .collect();
    let render = |threads| {
        Instance::run_grid(&grid, threads)
            .iter()
            .map(|i| {
                format!(
                    "{:?}|",
                    i.results.iter().map(|r| &r.stats).collect::<Vec<_>>()
                )
            })
            .collect::<String>()
    };
    let serial = render(1);
    assert_eq!(serial, render(2));
    assert_eq!(serial, render(8));
}
