//! Property-based checks of the network-contention-model subsystem.
//!
//! Five statements are pinned:
//!
//! 1. **The contention model degenerates to the paper's**: naming the
//!    one-port model to the engine (explicitly, or as
//!    `BoundedMultiPort { k: 1 }` — the test names date from when the
//!    model reached the engine as a trait object) reproduces the default
//!    engine's run statistics *and* recorded intervals byte for byte —
//!    on static and on dynamic (jittery) platforms alike. The
//!    `exp_fig7`/`exp_dynamic` golden snapshots
//!    (`crates/bench/tests/golden.rs`) pin the same fact end-to-end.
//! 2. **No schedule beats the generalized steady-state bound** (a
//!    theorem): under every contention model, the achieved makespan is
//!    at least `U / ρ*(model)` where `ρ*` solves the generalized LP
//!    (per-port + backbone capacity rows) of `core::steady`.
//! 3. **Capacity monotonicity of the bound**: adding ports or backbone
//!    never lowers `ρ*`.
//! 4. **The federated LP is the star block, instantiated**: restricted
//!    to star `s`'s columns its rows are `generalized_lp(star s)` row
//!    for row, and `k` copies of a star behind free uplinks never bound
//!    above `k ×` the star's own bound.
//! 5. **One verdict for an invalid spec**: everything that consumes a
//!    `NetModelSpec` rejects an invalid one with `validate()`'s message;
//!    the parser and the runtime keep their typed errors.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use stargemm::core::algorithms::{build_policy, Algorithm};
use stargemm::core::steady::{
    federated_lp, federated_throughput, generalized_lp, model_makespan_lower_bound,
    model_throughput,
};
use stargemm::core::Job;
use stargemm::linalg::BlockMatrix;
use stargemm::net::{NetError, NetOptions, NetRuntime};
use stargemm::netmodel::{drain_times, NetModelSpec, TransferLane};
use stargemm::obs::{spans, ObsSink, Span};
use stargemm::platform::dynamic::{DynProfile, Trace, WorkerDyn};
use stargemm::platform::{DynPlatform, FedPlatform, FedStar, Platform, WorkerSpec};
use stargemm::sim::{LaneTable, MasterPolicy, RunStats, Simulator};
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

/// 1–6 workers, memories from "holds no layout" (μ = 0) up.
fn arb_wide_platform() -> impl Strategy<Value = Platform> {
    prop::collection::vec(
        (0.05f64..2.0, 0.05f64..2.0, 3usize..200).prop_map(|(c, w, m)| WorkerSpec::new(c, w, m)),
        1..7,
    )
    .prop_map(|specs| Platform::new("fed-props-star", specs))
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

    /// Statement 4: the federated LP lays each star's rows through the
    /// same block `generalized_lp` does — same rows, same floats, at the
    /// star's column offset, nothing outside it — and a federation of
    /// `k` copies of one star cannot bound above `k` lone stars.
    #[test]
    fn federated_rows_are_the_star_block_per_star(
        stars in prop::collection::vec((arb_wide_platform(), 0usize..4, 0.05f64..2.0), 2..5),
        uplink_kind in 0usize..4,
        job in arb_job(),
    ) {
        let fed = FedPlatform::new(
            "fed-props",
            stars
                .iter()
                .map(|(p, kind, c_up)| {
                    let star = DynPlatform::constant(p.clone()).with_netmodel(model_specs(p)[*kind]);
                    FedStar::new(star, *c_up)
                })
                .collect(),
            model_specs(&stars[0].0)[uplink_kind],
        );
        let lp = federated_lp(&fed, &job);
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let (mut row, mut off) = (0, 0);
        for star in &fed.stars {
            let block = generalized_lp(&star.platform.base, job.r, &star.platform.netmodel);
            let width = block.objective.len();
            prop_assert_eq!(bits(&lp.objective[off..off + width]), bits(&block.objective));
            for (b_row, b_rhs) in block.constraints.iter().zip(&block.rhs) {
                let f_row = &lp.constraints[row];
                prop_assert_eq!(bits(&f_row[off..off + width]), bits(b_row), "row {}", row);
                prop_assert_eq!(lp.rhs[row].to_bits(), b_rhs.to_bits(), "rhs {}", row);
                let outside = f_row[..off].iter().chain(&f_row[off + width..]);
                prop_assert!(outside.copied().all(|a| a == 0.0), "row {} leaks: {:?}", row, f_row);
                row += 1;
            }
            row += 2; // the star's uplink tie and uplink capacity rows
            off += width;
        }
        let root_rows = usize::from(fed.uplink.capacity() != usize::MAX)
            + usize::from(fed.uplink.backbone().is_some());
        prop_assert_eq!(lp.constraints.len(), row + root_rows);
        prop_assert_eq!(lp.objective.len(), off + fed.len());

        let (star, spec) = (&stars[0].0, model_specs(&stars[0].0)[stars[0].1]);
        let k = stars.len();
        let copies = FedPlatform::new(
            "fed-copies",
            (0..k)
                .map(|_| FedStar::new(DynPlatform::constant(star.clone()).with_netmodel(spec), 1e-9))
                .collect(),
            NetModelSpec::FairShare { backbone: 1e12 },
        );
        let single = model_throughput(star, job.r, &spec);
        let rho = federated_throughput(&copies, &job);
        prop_assert!(
            rho <= k as f64 * single * (1.0 + 1e-9),
            "{k} copies bound {rho}, one star {single}"
        );
    }
}

/// Statement 5. `validate()` names the defect; every consumer of a spec
/// fails with exactly that message — none computes with it (an LP given
/// `k = 0` would answer 0, and given a NaN backbone the *unconstrained*
/// optimum) — while text and the runtime, which are handed specs by
/// users, return typed errors carrying the same complaint.
#[test]
fn an_invalid_spec_gets_one_verdict_everywhere() {
    let multiport = |k, backbone| NetModelSpec::BoundedMultiPort { k, backbone };
    let fairshare = |backbone| NetModelSpec::FairShare { backbone };
    let table = [
        (multiport(0, None), "multiport k=0"),
        (multiport(2, Some(f64::NAN)), "multiport k=2 backbone=NaN"),
        (multiport(2, Some(-1.0)), "multiport k=2 backbone=-1"),
        (multiport(2, Some(0.0)), "multiport k=2 backbone=0"),
        (fairshare(f64::NAN), "fairshare backbone=NaN"),
        (fairshare(-1.0), "fairshare backbone=-1"),
        (fairshare(0.0), "fairshare backbone=0"),
    ];
    let platform = Platform::new(
        "invalid-spec",
        vec![WorkerSpec::new(0.5, 0.2, 60), WorkerSpec::new(1.0, 0.4, 30)],
    );
    let job = Job::new(4, 3, 4, 2);
    let star = || DynPlatform::constant(platform.clone());
    let lanes = [TransferLane {
        worker: 0,
        link_rate: 2.0,
    }];
    for (spec, text) in table {
        let complaint = spec.validate().expect_err(text);
        let said = [
            (
                "Simulator::with_netmodel",
                panic_message(|| {
                    Simulator::new(platform.clone()).with_netmodel(spec);
                }),
            ),
            (
                "LaneTable::new",
                panic_message(|| {
                    LaneTable::<()>::new(spec, vec![1.0], None, ObsSink::off());
                }),
            ),
            (
                "model_throughput",
                panic_message(|| {
                    model_throughput(&platform, job.r, &spec);
                }),
            ),
            (
                "federated_throughput, a star's model",
                panic_message(|| {
                    // `DynPlatform::with_netmodel` takes any value.
                    let stars = vec![
                        FedStar::new(star().with_netmodel(spec), 1.0),
                        FedStar::new(star(), 1.0),
                    ];
                    let fed = FedPlatform::new("fed", stars, NetModelSpec::OnePort);
                    federated_throughput(&fed, &job);
                }),
            ),
            (
                "federated_throughput, the uplink model",
                panic_message(|| {
                    // `FedPlatform::new` checks its argument; the field
                    // is `pub`.
                    let mut fed = FedPlatform::single(star());
                    fed.uplink = spec;
                    federated_throughput(&fed, &job);
                }),
            ),
            (
                "FedPlatform::new",
                panic_message(|| {
                    FedPlatform::new("fed", vec![FedStar::new(star(), 1.0)], spec);
                }),
            ),
            (
                "drain_times",
                panic_message(|| {
                    drain_times(&lanes, &[1.0], &spec);
                }),
            ),
        ];
        for (who, said) in said {
            assert_eq!(
                said,
                format!("invalid net-model spec: {complaint}"),
                "{who} on {text}"
            );
        }

        // Handed a spec by a user: typed errors, same complaint.
        let tokens: Vec<&str> = text.split_whitespace().collect();
        assert_eq!(
            NetModelSpec::parse(&tokens),
            Err(complaint.clone()),
            "{text}"
        );
        let mut policy = build_policy(&platform, &job, Algorithm::Het).unwrap();
        let a = BlockMatrix::zeros(job.r, job.t, job.q);
        let b = BlockMatrix::zeros(job.t, job.s, job.q);
        let mut c = BlockMatrix::zeros(job.r, job.s, job.q);
        let rt = NetRuntime::new(platform.clone()).with_options(NetOptions {
            netmodel: spec,
            ..Default::default()
        });
        match rt.run(&mut policy, &a, &b, &mut c) {
            Err(NetError::Protocol(msg)) => {
                assert_eq!(msg, format!("invalid net model: {complaint}"), "{text}")
            }
            other => panic!("NetRuntime::run on {text}: {other:?}"),
        }
    }
}

/// What `call` panics with.
fn panic_message(call: impl FnOnce()) -> String {
    let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(call))
        .expect_err("the call must panic");
    payload
        .downcast_ref::<String>()
        .expect("a formatted panic message")
        .clone()
}
