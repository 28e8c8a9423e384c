//! Property-based checks of the network-contention-model subsystem.
//!
//! Three statements are pinned on random instances:
//!
//! 1. **The refactor is behavior-preserving**: routing the paper's
//!    one-port model through the `ContentionModel` trait (explicitly, or
//!    as `BoundedMultiPort { k: 1 }`) reproduces the default engine's
//!    run statistics *and* recorded intervals byte for byte — on static and on
//!    dynamic (jittery) platforms alike. The `exp_fig7`/`exp_dynamic`
//!    golden snapshots (`crates/bench/tests/golden.rs`) pin the same
//!    fact end-to-end against the pre-refactor artifacts.
//! 2. **No schedule beats the generalized steady-state bound** (a
//!    theorem): under every contention model, the achieved makespan is
//!    at least `U / ρ*(model)` where `ρ*` solves the generalized LP
//!    (per-port + backbone capacity rows) of `core::steady`.
//! 3. **Capacity monotonicity of the bound**: adding ports or backbone
//!    never lowers `ρ*`.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use stargemm::core::algorithms::{build_policy, Algorithm};
use stargemm::core::steady::{model_makespan_lower_bound, model_throughput};
use stargemm::core::Job;
use stargemm::netmodel::NetModelSpec;
use stargemm::obs::{spans, Span};
use stargemm::platform::dynamic::{DynProfile, Trace, WorkerDyn};
use stargemm::platform::{Platform, WorkerSpec};
use stargemm::sim::{MasterPolicy, RunStats, Simulator};
use stargemm_bench::obs::record_with;

/// Runs `policy` under a recorder; returns the stats and the run's
/// paired intervals.
fn recorded_spans(sim: &Simulator, policy: &mut dyn MasterPolicy) -> (RunStats, Vec<Span>) {
    let (stats, events) = record_with(|obs| sim.run_observed(policy, obs));
    (stats.expect("run completes"), spans(&events))
}

fn arb_platform() -> impl Strategy<Value = Platform> {
    prop::collection::vec(
        (0.05f64..2.0, 0.05f64..2.0, 16usize..200).prop_map(|(c, w, m)| WorkerSpec::new(c, w, m)),
        1..5,
    )
    .prop_map(|specs| Platform::new("netmodel-props", specs))
}

fn arb_job() -> impl Strategy<Value = Job> {
    (2usize..8, 2usize..8, 2usize..10).prop_map(|(r, t, s)| Job::new(r, t, s, 4))
}

/// A mild random jitter profile (scales in [0.5, 2.5], no downtime).
fn jitter_profile(platform: &Platform, seed: u64) -> DynProfile {
    let mut rng = StdRng::seed_from_u64(seed);
    DynProfile::new(
        (0..platform.len())
            .map(|_| {
                let mut points = vec![(0.0, 1.0)];
                let mut t = 0.0;
                for _ in 0..3 {
                    t += rng.random_range(5.0..40.0);
                    points.push((t, rng.random_range(0.5..2.5)));
                }
                WorkerDyn::new(Trace::new(points), Trace::default(), vec![])
            })
            .collect(),
    )
}

/// A spread of valid specs derived from the platform's link rates.
fn model_specs(platform: &Platform) -> Vec<NetModelSpec> {
    let fastest: f64 = platform
        .workers()
        .iter()
        .map(|s| 1.0 / s.c)
        .fold(0.0, f64::max);
    vec![
        NetModelSpec::OnePort,
        NetModelSpec::BoundedMultiPort {
            k: 2,
            backbone: None,
        },
        NetModelSpec::BoundedMultiPort {
            k: 3,
            backbone: Some(1.5 * fastest),
        },
        NetModelSpec::FairShare {
            backbone: 0.75 * fastest,
        },
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Statement 1, static platforms: the explicit one-port spec and the
    /// k = 1 multi-port are bitwise the default engine.
    #[test]
    fn oneport_through_the_trait_is_bitwise_identical(
        platform in arb_platform(),
        job in arb_job(),
    ) {
        let run = |spec: Option<NetModelSpec>| {
            let mut sim = Simulator::new(platform.clone());
            if let Some(spec) = spec {
                sim = sim.with_netmodel(spec);
            }
            build_policy(&platform, &job, Algorithm::Het)
                .ok()
                .map(|mut p| recorded_spans(&sim, &mut p))
        };
        let default = run(None);
        let explicit = run(Some(NetModelSpec::OnePort));
        let k1 = run(Some(NetModelSpec::BoundedMultiPort { k: 1, backbone: None }));
        prop_assert_eq!(&default, &explicit);
        prop_assert_eq!(&default, &k1);
    }

    /// Statement 1, dynamic platforms: trace integration composes with
    /// the trait without perturbing a single duration.
    #[test]
    fn oneport_trait_is_bitwise_identical_under_jitter(
        platform in arb_platform(),
        job in arb_job(),
        seed in 0u64..1 << 40,
    ) {
        let profile = jitter_profile(&platform, seed);
        let run = |spec: Option<NetModelSpec>| {
            let mut sim = Simulator::new(platform.clone()).with_profile(profile.clone());
            if let Some(spec) = spec {
                sim = sim.with_netmodel(spec);
            }
            build_policy(&platform, &job, Algorithm::Het)
                .ok()
                .map(|mut p| recorded_spans(&sim, &mut p))
        };
        prop_assert_eq!(run(None), run(Some(NetModelSpec::OnePort)));
    }

    /// Statement 2: no simulated makespan beats the model-aware
    /// generalized steady-state lower bound.
    #[test]
    fn no_schedule_beats_the_generalized_bound(
        platform in arb_platform(),
        job in arb_job(),
    ) {
        for spec in model_specs(&platform) {
            let Ok(mut policy) = build_policy(&platform, &job, Algorithm::Het) else {
                return Ok(()); // no feasible layout on this draw
            };
            let stats = Simulator::new(platform.clone())
                .with_netmodel(spec)
                .run(&mut policy)
                .expect("run completes");
            let bound = model_makespan_lower_bound(&platform, &job, &spec);
            prop_assert!(
                stats.makespan >= bound * (1.0 - 1e-9),
                "{spec:?}: makespan {} beats the bound {bound}",
                stats.makespan
            );
        }
    }

    /// Statement 3: more ports / more backbone never lower ρ*.
    #[test]
    fn bound_is_monotone_in_capacity(platform in arb_platform(), r in 2usize..12) {
        let fastest: f64 = platform
            .workers()
            .iter()
            .map(|s| 1.0 / s.c)
            .fold(0.0, f64::max);
        let mut prev = model_throughput(&platform, r, &NetModelSpec::OnePort);
        for k in 1..=4 {
            let t = model_throughput(
                &platform,
                r,
                &NetModelSpec::BoundedMultiPort { k, backbone: None },
            );
            prop_assert!(t >= prev * (1.0 - 1e-9), "k={k}: {t} < {prev}");
            prev = t;
        }
        let tight = model_throughput(
            &platform,
            r,
            &NetModelSpec::FairShare { backbone: 0.5 * fastest },
        );
        let loose = model_throughput(
            &platform,
            r,
            &NetModelSpec::FairShare { backbone: 2.0 * fastest },
        );
        prop_assert!(loose >= tight * (1.0 - 1e-9), "{loose} < {tight}");
    }
}
