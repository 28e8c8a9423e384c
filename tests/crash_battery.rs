//! Degenerate crash scenarios, one row per crash-healing master: every
//! master that heals through `stargemm_core::heal` runs the same table.
//!
//! * every worker down at `t = 0` for good — a typed `Deadlock`, no
//!   panic;
//! * every worker down at `t = 0`, one rejoining — the product completes
//!   with exact coverage;
//! * a crash during the last retrieval — the product completes, and the
//!   retrieved geometries still tile C exactly;
//! * a one-worker star that crashes and rejoins.

use stargemm::core::geometry::{validate_coverage, ChunkGeom};
use stargemm::core::Job;
use stargemm::dynamic::model::DynProfile;
use stargemm::dynamic::AdaptiveMaster;
use stargemm::platform::{Platform, Trace, WorkerDyn, WorkerSpec};
use stargemm::sim::{Action, MasterPolicy, SimCtx, SimError, SimEvent, Simulator};
use stargemm::stream::{JobRequest, MultiJobMaster, StreamConfig};

/// A finished run: the retrieved geometries and, per retrieval, the
/// worker and the time it landed.
struct Outcome {
    geoms: Vec<ChunkGeom>,
    retrievals: Vec<(usize, f64)>,
    makespan: f64,
}

/// Records when each retrieval lands.
struct Probe<P> {
    inner: P,
    retrievals: Vec<(usize, f64)>,
}

impl<P: MasterPolicy> MasterPolicy for Probe<P> {
    fn next_action(&mut self, ctx: &SimCtx) -> Action {
        self.inner.next_action(ctx)
    }

    fn on_event(&mut self, ev: &SimEvent, ctx: &SimCtx) {
        if let SimEvent::RetrieveDone { worker, .. } = *ev {
            self.retrievals.push((worker, ctx.now()));
        }
        self.inner.on_event(ev, ctx);
    }
}

fn run_with<P: MasterPolicy>(
    sim: Simulator,
    inner: P,
    geoms: impl Fn(&P) -> Vec<ChunkGeom>,
) -> Result<Outcome, SimError> {
    let mut probe = Probe {
        inner,
        retrievals: Vec::new(),
    };
    let stats = sim.run(&mut probe)?;
    Ok(Outcome {
        geoms: geoms(&probe.inner),
        retrievals: probe.retrievals,
        makespan: stats.makespan,
    })
}

type Run = fn(&Platform, &Job, DynProfile) -> Result<Outcome, SimError>;

fn adaptive_het(platform: &Platform, job: &Job, profile: DynProfile) -> Result<Outcome, SimError> {
    let master = AdaptiveMaster::adaptive_het(platform, job).unwrap();
    let sim = Simulator::new(platform.clone()).with_profile(profile);
    run_with(sim, master, AdaptiveMaster::retrieved_geoms)
}

fn guarded_het(platform: &Platform, job: &Job, profile: DynProfile) -> Result<Outcome, SimError> {
    let master = AdaptiveMaster::guarded_het(platform, job).unwrap();
    let sim = Simulator::new(platform.clone()).with_profile(profile);
    run_with(sim, master, AdaptiveMaster::retrieved_geoms)
}

fn multi_job(platform: &Platform, job: &Job, profile: DynProfile) -> Result<Outcome, SimError> {
    let requests = [JobRequest {
        id: 0,
        tenant: 0,
        weight: 1.0,
        job: *job,
        arrival: 0.0,
    }];
    let master = MultiJobMaster::new(platform, &requests, StreamConfig::default()).unwrap();
    let sim = Simulator::new(platform.clone())
        .with_profile(profile)
        .with_arrivals(MultiJobMaster::arrival_plan(&requests));
    run_with(sim, master, |m| m.retrieved_geoms(0).to_vec())
}

const MASTERS: [(&str, Run); 3] = [
    ("AdaptiveHet", adaptive_het),
    ("HetGuard", guarded_het),
    ("MultiJobMaster", multi_job),
];

fn platform(p: usize) -> Platform {
    let specs = [
        WorkerSpec::new(0.10, 0.05, 60),
        WorkerSpec::new(0.15, 0.05, 60),
        WorkerSpec::new(0.20, 0.10, 60),
    ];
    Platform::new("crash-battery", specs[..p].to_vec())
}

fn job() -> Job {
    Job::new(6, 5, 8, 2)
}

/// One down window per worker (`None` = always up).
fn profile(windows: &[Option<(f64, f64)>]) -> DynProfile {
    DynProfile::new(
        windows
            .iter()
            .map(|w| match *w {
                Some(down) => WorkerDyn::new(Trace::default(), Trace::default(), vec![down]),
                None => WorkerDyn::stable(),
            })
            .collect(),
    )
}

fn assert_complete(name: &str, case: &str, run: Result<Outcome, SimError>) -> Outcome {
    let out = run.unwrap_or_else(|e| panic!("{name}, {case}: {e}"));
    validate_coverage(&job(), &out.geoms).unwrap_or_else(|e| panic!("{name}, {case}: {e}"));
    out
}

#[test]
fn every_healing_master_survives_the_degenerate_crashes() {
    let forever = Some((0.0, f64::INFINITY));
    for (name, run) in MASTERS {
        let err = run(&platform(3), &job(), profile(&[forever; 3]));
        assert!(
            matches!(err, Err(SimError::Deadlock { .. })),
            "{name}, all down for good: {:?}",
            err.map(|o| o.makespan)
        );

        let one_back = profile(&[forever, Some((0.0, 5.0)), forever]);
        let out = assert_complete(name, "one rejoins", run(&platform(3), &job(), one_back));
        assert!(out.retrievals.iter().all(|&(w, _)| w == 1));

        // Crash the worker of the last retrieval just before it lands.
        let probe = assert_complete(
            name,
            "probe",
            run(&platform(3), &job(), profile(&[None; 3])),
        );
        let (w, landed) = *probe.retrievals.last().unwrap();
        let mut windows = [None; 3];
        windows[w] = Some((landed - 1e-3, f64::INFINITY));
        let out = assert_complete(
            name,
            "last retrieval",
            run(&platform(3), &job(), profile(&windows)),
        );
        assert!(
            out.makespan > probe.makespan,
            "{name}: the last retrieval was redone"
        );

        let alone = assert_complete(
            name,
            "one-worker probe",
            run(&platform(1), &job(), profile(&[None])),
        );
        let mid = alone.makespan / 2.0;
        let out = assert_complete(
            name,
            "one worker",
            run(&platform(1), &job(), profile(&[Some((mid, mid + 1.0))])),
        );
        assert!(
            out.makespan > alone.makespan + 1.0,
            "{name}: the outage costs its length"
        );
    }
}
