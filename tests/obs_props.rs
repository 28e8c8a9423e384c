//! Observability layer invariants: attaching the run recorder can
//! *observe* but never *perturb*.
//!
//! The hard contract of `crates/obs` is that `run_observed(...)` with a
//! live recorder produces byte-identical `RunStats` and schedules to the
//! same run with the sink off, across every engine regime (static
//! platforms, cost-jittery platforms, worker churn, multi-tenant
//! streams). The schedule is compared as the policy lived it: the log
//! of every `MasterPolicy` callback with its instant ([`Logged`]),
//! which exists whether or not a recorder is attached. Byte comparison
//! goes through `{:?}` — floats render shortest-round-trip, so equal
//! strings mean bit-equal values.
//!
//! The histogram quantile estimator is additionally pinned against an
//! exact nearest-rank oracle over arbitrary sample sets.

use std::rc::Rc;

use proptest::prelude::*;
use stargemm::core::algorithms::build_policy;
use stargemm::core::Job;
use stargemm::dynamic::model::DynPlatform;
use stargemm::dynamic::{random_scenario, AdaptiveMaster, ScenarioConfig};
use stargemm::obs::{Attribution, Histogram, ObsEvent, ObsSink, RunRecorder};
use stargemm::platform::{Platform, WorkerSpec};
use stargemm::sim::{MasterPolicy, Simulator};
use stargemm::stream::{
    ArrivalProcess, JobRequest, MultiJobMaster, StreamConfig, TenantSpec, WorkloadSpec,
};

mod common;
use common::Logged;

fn arb_spec() -> impl Strategy<Value = WorkerSpec> {
    (0.05f64..4.0, 0.05f64..4.0, 16usize..400).prop_map(|(c, w, m)| WorkerSpec::new(c, w, m))
}

fn arb_platform() -> impl Strategy<Value = Platform> {
    prop::collection::vec(arb_spec(), 1..5).prop_map(|specs| Platform::new("obs-prop", specs))
}

fn arb_job() -> impl Strategy<Value = Job> {
    (1usize..8, 1usize..6, 1usize..10).prop_map(|(r, t, s)| Job::new(r, t, s, 4))
}

/// Jitter (regime 0/1) and churn (regime 2) scenarios, mirroring the
/// determinism suite so the obs contract covers the same state space.
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

/// Byte form of one run: stats plus the policy's callback log,
/// optionally with a live recorder attached. `policy` receives the
/// run's sink, for the masters that emit decisions of their own.
/// Returns the byte string and the number of events captured.
fn run_bytes<P: MasterPolicy>(
    sim: &Simulator,
    policy: impl FnOnce(ObsSink) -> P,
    on: bool,
) -> (String, usize) {
    let rec = RunRecorder::shared();
    let sink = if on {
        ObsSink::to(rec.clone())
    } else {
        ObsSink::off()
    };
    let mut policy = Logged::new(policy(sink.clone()));
    let out = match sim.run_observed(&mut policy, sink) {
        Ok(stats) => format!("{stats:?}\n{:?}", policy.log),
        Err(e) => format!("error: {e:?}\n{:?}", policy.log),
    };
    drop(policy); // releases the policy's clone of the sink
    (out, drain(rec).len())
}

/// Drains a recorder back to its captured event log (the recorder must
/// be the sole remaining owner).
fn drain(rec: Rc<std::cell::RefCell<RunRecorder>>) -> Vec<ObsEvent> {
    let Ok(rec) = Rc::try_unwrap(rec) else {
        unreachable!("recorder has one owner after the run")
    };
    rec.into_inner().into_parts().0
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Static platforms: the recorder is invisible to stats and
    /// schedule, and a successful run always emits events.
    #[test]
    fn static_recorder_on_off_byte_identical(platform in arb_platform(), job in arb_job(),
                                             ai in 0usize..7) {
        let alg = stargemm::core::algorithms::Algorithm::all()[ai];
        prop_assume!(build_policy(&platform, &job, alg).is_ok());
        let sim = Simulator::new(platform.clone());
        let policy = |_| build_policy(&platform, &job, alg).unwrap();
        let (off, n_off) = run_bytes(&sim, policy, false);
        let (on, n_on) = run_bytes(&sim, policy, true);
        prop_assert_eq!(off, on);
        prop_assert_eq!(n_off, 0, "an off sink must record nothing");
        prop_assert!(n_on > 0, "a live sink on a completed run must record events");
    }

    /// Jitter + churn: crashes, rejoins and time-varying costs do not
    /// open any recorder-visible side channel either.
    #[test]
    fn dynamic_recorder_on_off_byte_identical(scenario in arb_scenario()) {
        let (dp, job) = scenario;
        prop_assume!(AdaptiveMaster::adaptive_het(&dp.base, &job).is_ok());
        let sim = Simulator::new_dyn(dp.clone());
        let policy = |_| AdaptiveMaster::adaptive_het(&dp.base, &job).unwrap();
        let (off, _) = run_bytes(&sim, policy, false);
        let (on, _) = run_bytes(&sim, policy, true);
        prop_assert_eq!(off, on);
    }

    /// Multi-tenant streams: the `MultiJobMaster` emits LP re-solves and
    /// admission events through its own sink — still zero perturbation.
    #[test]
    fn stream_recorder_on_off_byte_identical(seed in 0u64..500, jobs in 2usize..8,
                                             mean in 1.0f64..40.0) {
        let platform = Platform::new(
            "obs-stream",
            vec![
                WorkerSpec::new(0.20, 0.10, 80),
                WorkerSpec::new(0.30, 0.15, 60),
                WorkerSpec::new(0.50, 0.30, 40),
            ],
        );
        let requests = WorkloadSpec {
            tenants: vec![
                TenantSpec::new("light", 1.0, vec![Job::new(3, 2, 4, 2)]),
                TenantSpec::new("heavy", 2.0, vec![Job::new(5, 3, 6, 2)]),
            ],
            arrivals: ArrivalProcess::Open { mean_interarrival: mean },
            jobs,
            seed,
        }
        .generate();
        prop_assume!(MultiJobMaster::new(&platform, &requests, StreamConfig::default()).is_ok());

        let sim = Simulator::new(platform.clone())
            .with_arrivals(MultiJobMaster::arrival_plan(&requests));
        let policy = |sink| {
            MultiJobMaster::new(&platform, &requests, StreamConfig::default())
                .unwrap()
                .with_obs(sink)
        };
        let (off, n_off) = run_bytes(&sim, policy, false);
        let (on, _) = run_bytes(&sim, policy, true);
        prop_assert_eq!(off, on);
        prop_assert_eq!(n_off, 0);
    }

    /// The reactor runtime joins the zero-perturbation contract: a live
    /// recorder must not change one schedule counter or result byte.
    /// The reactor's virtual clock makes its schedule deterministic, so
    /// the comparison covers every deterministic field and the
    /// policy's callback log, stamped by that virtual clock (wall-clock
    /// durations are real time, not schedule, and are excluded).
    #[test]
    fn reactor_recorder_on_off_schedule_identical(platform in arb_platform(), job in arb_job(),
                                                  ai in 0usize..7, seed in 0u64..1_000) {
        use rand::SeedableRng;
        use stargemm::net::{NetOptions, NetRuntime};
        let alg = stargemm::core::algorithms::Algorithm::all()[ai];
        prop_assume!(build_policy(&platform, &job, alg).is_ok());

        let run = |on: bool| {
            let rec = RunRecorder::shared();
            let sink = if on { ObsSink::to(rec.clone()) } else { ObsSink::off() };
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let a = stargemm::linalg::BlockMatrix::random(job.r, job.t, job.q, &mut rng);
            let b = stargemm::linalg::BlockMatrix::random(job.t, job.s, job.q, &mut rng);
            let mut c = stargemm::linalg::BlockMatrix::zeros(job.r, job.s, job.q);
            let mut policy = Logged::new(build_policy(&platform, &job, alg).unwrap());
            let rt = NetRuntime::new(platform.clone()).with_options(NetOptions {
                time_scale: 1e-7,
                ..Default::default()
            });
            let out = match rt.run_observed(&mut policy, &a, &b, &mut c, sink) {
                Ok(stats) => {
                    let per_worker: Vec<_> = stats
                        .per_worker
                        .iter()
                        .map(|w| (w.chunks_assigned, w.updates, w.blocks_rx, w.blocks_tx))
                        .collect();
                    format!(
                        "{} {} {} {} {:?}\n{:?}\n{:?}",
                        stats.chunks,
                        stats.total_updates,
                        stats.blocks_to_workers,
                        stats.blocks_to_master,
                        per_worker,
                        policy.log,
                        c
                    )
                }
                Err(e) => format!("error: {e:?}"),
            };
            (out, drain(rec).len())
        };
        let (off, n_off) = run(false);
        let (on, n_on) = run(true);
        let completed = !on.starts_with("error");
        prop_assert_eq!(off, on);
        prop_assert_eq!(n_off, 0, "an off sink must record nothing");
        if completed {
            prop_assert!(n_on > 0, "a live sink on a completed reactor run must record events");
        }
    }

    /// Histogram quantiles track an exact nearest-rank oracle within the
    /// bucket resolution (log buckets, eight per octave ⇒ ≤ ~9% wide;
    /// the geometric-midpoint representative is within ~4.4% of every
    /// value in its bucket).
    #[test]
    fn histogram_quantiles_match_exact_oracle(
        samples in prop::collection::vec(0.0f64..1.0e9, 1..400),
        q in 0.0f64..=1.0,
    ) {
        let mut h = Histogram::new();
        for &s in &samples {
            h.observe(s);
        }
        let mut sorted = samples.clone();
        sorted.sort_by(f64::total_cmp);
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        let exact = sorted[rank - 1];
        let est = h.quantile(q).unwrap();
        let tol = exact.abs() * 0.05 + 1e-12;
        prop_assert!(
            (est - exact).abs() <= tol,
            "q={}: est {} vs exact {} (n={})", q, est, exact, samples.len()
        );
    }

    /// Makespan attribution is *conserved* on static runs — the eight
    /// categories sum bit-exactly to the makespan — and on a crash-free
    /// one-port run its `port_busy / makespan` reproduces the BoundGap
    /// port-occupancy metric (same numerator and denominator, different
    /// summation order, so a relative tolerance covers the float noise).
    #[test]
    fn attribution_conserves_static_and_pins_the_port_gap(
        platform in arb_platform(), job in arb_job(), ai in 0usize..7,
    ) {
        let alg = stargemm::core::algorithms::Algorithm::all()[ai];
        prop_assume!(build_policy(&platform, &job, alg).is_ok());
        let rec = RunRecorder::shared();
        let mut policy = build_policy(&platform, &job, alg).unwrap();
        let res = Simulator::new(platform.clone())
            .run_observed(&mut policy, ObsSink::to(rec.clone()));
        let events = drain(rec);
        let Ok(stats) = res else { return Ok(()) };
        let attr = Attribution::from_events(&events, stats.makespan);
        prop_assert!(
            attr.is_conserved(),
            "categories sum {} != makespan {}", attr.categories.total(), attr.makespan
        );
        prop_assert_eq!(attr.categories.crash_rework, 0.0, "no crashes, no rework");
        if stats.port.peak_lanes <= 1 && stats.makespan > 0.0 {
            let gap = stats.port_busy / stats.makespan;
            let got = attr.categories.port_busy / attr.makespan;
            prop_assert!(
                (got - gap).abs() <= 1e-9 * gap.max(1.0),
                "attribution port occupancy {} vs BoundGap port metric {}", got, gap
            );
        }
    }

    /// Conservation holds under jitter and churn too — crash rework and
    /// downtime segments must not open a hole in the timeline.
    #[test]
    fn attribution_conserves_under_jitter_and_churn(scenario in arb_scenario()) {
        let (dp, job) = scenario;
        prop_assume!(AdaptiveMaster::adaptive_het(&dp.base, &job).is_ok());
        let rec = RunRecorder::shared();
        let mut policy = AdaptiveMaster::adaptive_het(&dp.base, &job).unwrap();
        let res = Simulator::new_dyn(dp.clone())
            .run_observed(&mut policy, ObsSink::to(rec.clone()));
        let events = drain(rec);
        let Ok(stats) = res else { return Ok(()) };
        let attr = Attribution::from_events(&events, stats.makespan);
        prop_assert!(
            attr.is_conserved(),
            "categories sum {} != makespan {}", attr.categories.total(), attr.makespan
        );
    }

    /// Conservation across multi-tenant streams (admission queues, LP
    /// re-solves, memory-stall episodes from the multi-job master).
    #[test]
    fn attribution_conserves_streams(seed in 0u64..500, jobs in 2usize..8,
                                     mean in 1.0f64..40.0) {
        let platform = Platform::new(
            "obs-stream",
            vec![
                WorkerSpec::new(0.20, 0.10, 80),
                WorkerSpec::new(0.30, 0.15, 60),
                WorkerSpec::new(0.50, 0.30, 40),
            ],
        );
        let requests = WorkloadSpec {
            tenants: vec![
                TenantSpec::new("light", 1.0, vec![Job::new(3, 2, 4, 2)]),
                TenantSpec::new("heavy", 2.0, vec![Job::new(5, 3, 6, 2)]),
            ],
            arrivals: ArrivalProcess::Open { mean_interarrival: mean },
            jobs,
            seed,
        }
        .generate();
        prop_assume!(MultiJobMaster::new(&platform, &requests, StreamConfig::default()).is_ok());
        let rec = RunRecorder::shared();
        let sink = ObsSink::to(rec.clone());
        let mut policy = MultiJobMaster::new(&platform, &requests, StreamConfig::default())
            .unwrap()
            .with_obs(sink.clone());
        let res = Simulator::new(platform.clone())
            .with_arrivals(MultiJobMaster::arrival_plan(&requests))
            .run_observed(&mut policy, sink);
        drop(policy); // releases the policy's clone of the sink
        let events = drain(rec);
        let Ok(stats) = res else { return Ok(()) };
        let attr = Attribution::from_events(&events, stats.makespan);
        prop_assert!(
            attr.is_conserved(),
            "categories sum {} != makespan {}", attr.categories.total(), attr.makespan
        );
    }

    /// Conservation with DAG-structured jobs in the mix (frontier
    /// promotions, per-task placement, aggregated memory stalls).
    #[test]
    fn attribution_conserves_dag_streams(seed in 0u64..200, panels in 2usize..4,
                                         gap in 0.0f64..20.0) {
        let platform = Platform::new(
            "obs-dag",
            vec![
                WorkerSpec::new(0.20, 0.10, 80),
                WorkerSpec::new(0.30, 0.15, 60),
                WorkerSpec::new(0.50, 0.30, 40),
            ],
        );
        let (dag, _) = stargemm::dag::lu_dag(panels);
        let requests = vec![
            JobRequest { id: 0, tenant: 0, weight: 1.0, job: dag.virtual_job(2), arrival: 0.0 },
            JobRequest {
                id: 1,
                tenant: 1,
                weight: 1.0,
                job: Job::new(3, 2, 4, 2),
                arrival: gap + seed as f64 * 1e-3,
            },
        ];
        let build = || MultiJobMaster::with_dags(
            &platform, &requests, vec![(0, dag.clone())], StreamConfig::default(),
        );
        prop_assume!(build().is_ok());
        let rec = RunRecorder::shared();
        let sink = ObsSink::to(rec.clone());
        let mut policy = build().unwrap().with_obs(sink.clone());
        let res = Simulator::new(platform.clone())
            .with_arrivals(MultiJobMaster::arrival_plan(&requests))
            .run_observed(&mut policy, sink);
        drop(policy);
        let events = drain(rec);
        let Ok(stats) = res else { return Ok(()) };
        let attr = Attribution::from_events(&events, stats.makespan);
        prop_assert!(
            attr.is_conserved(),
            "categories sum {} != makespan {}", attr.categories.total(), attr.makespan
        );
    }

    /// Conservation on federated runs: the critical star's log (local
    /// timeline plus synthesized uplink spans) is attributed against the
    /// *federated* makespan — uplink waits and cross-star idle must
    /// still close the budget exactly.
    #[test]
    fn attribution_conserves_federated(k in 1usize..4, ratio in 0.05f64..2.0,
                                       jobs in 2usize..6) {
        use stargemm::netmodel::NetModelSpec;
        use stargemm::platform::{FedPlatform, FedStar};
        use stargemm::stream::MultiStarMaster;
        let star = Platform::new(
            "obs-fed",
            vec![
                WorkerSpec::new(0.2, 0.1, 60),
                WorkerSpec::new(0.3, 0.15, 60),
                WorkerSpec::new(0.5, 0.3, 40),
            ],
        );
        let uplink_c = ratio * 0.2;
        let fed = FedPlatform::new(
            "obs-fed",
            (0..k)
                .map(|_| FedStar::new(DynPlatform::constant(star.clone()), uplink_c))
                .collect(),
            NetModelSpec::BoundedMultiPort { k, backbone: None },
        );
        let requests = WorkloadSpec {
            tenants: vec![TenantSpec::new("a", 1.0, vec![Job::new(6, 6, 32, 2)])],
            arrivals: ArrivalProcess::ClosedBatch,
            jobs,
            seed: 2008,
        }
        .generate();
        let Ok((run, logs)) = MultiStarMaster::new(fed, StreamConfig::default())
            .run_recorded(&requests) else { return Ok(()) };
        for log in &logs {
            let attr = Attribution::from_events(log, run.makespan);
            prop_assert!(
                attr.is_conserved(),
                "categories sum {} != makespan {}", attr.categories.total(), attr.makespan
            );
        }
    }
}
