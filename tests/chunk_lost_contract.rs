//! The `ChunkLost` contract both engines share through `sim::ledger`:
//! a chunk is reported lost at most once, only on the worker it was
//! opened on, and never after its `RetrieveDone`. The crash healer
//! (`stargemm_core::heal`) relies on it and filters no repeats.
//!
//! Each engine runs under the one-port and a bounded multi-port model,
//! with crashes timed from a probe run so that one lands while a
//! fragment is on the wire to the crashing worker's active chunk, and
//! another is followed by a rejoin before that fragment lands.

use std::collections::{HashMap, HashSet};
use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;
use stargemm::core::geometry::ChunkGeom;
use stargemm::core::stream::GeometryAccess;
use stargemm::core::Job;
use stargemm::dynamic::model::DynProfile;
use stargemm::dynamic::AdaptiveMaster;
use stargemm::linalg::BlockMatrix;
use stargemm::net::{NetOptions, NetRuntime};
use stargemm::netmodel::NetModelSpec;
use stargemm::platform::{Platform, Trace, WorkerDyn, WorkerSpec};
use stargemm::sim::{Action, ChunkId, MasterPolicy, MatKind, SimCtx, SimEvent, Simulator, StepId};

type SendKey = (usize, ChunkId, StepId, MatKind);

/// Wraps a healing master and checks every `ChunkLost` against the
/// contract; also notes which crash shapes the run exercised.
struct Contract {
    inner: AdaptiveMaster,
    opened_on: HashMap<ChunkId, usize>,
    lost: HashSet<ChunkId>,
    retrieved: HashSet<ChunkId>,
    /// Sends not yet done: issue time, and whether their worker crashed
    /// since.
    in_flight: HashMap<SendKey, (f64, bool)>,
    /// `(issued, done)` of every send to worker 0, in issue order.
    sends_to_0: Vec<(f64, f64)>,
    violations: Vec<String>,
    crash_with_fragment_in_flight: bool,
    fragment_landed_after_rejoin: bool,
}

impl Contract {
    fn new(platform: &Platform, job: &Job) -> Self {
        Contract {
            inner: AdaptiveMaster::guarded_het(platform, job).unwrap(),
            opened_on: HashMap::new(),
            lost: HashSet::new(),
            retrieved: HashSet::new(),
            in_flight: HashMap::new(),
            sends_to_0: Vec::new(),
            violations: Vec::new(),
            crash_with_fragment_in_flight: false,
            fragment_landed_after_rejoin: false,
        }
    }
}

impl MasterPolicy for Contract {
    fn next_action(&mut self, ctx: &SimCtx) -> Action {
        let action = self.inner.next_action(ctx);
        if let Action::Send {
            worker,
            fragment,
            new_chunk,
        } = action
        {
            if let Some(d) = new_chunk {
                self.opened_on.insert(d.id, worker);
            }
            let key = (worker, fragment.chunk, fragment.step, fragment.kind);
            self.in_flight.insert(key, (ctx.now(), false));
        }
        action
    }

    fn on_event(&mut self, ev: &SimEvent, ctx: &SimCtx) {
        match *ev {
            SimEvent::SendDone { worker, fragment } => {
                let key = (worker, fragment.chunk, fragment.step, fragment.kind);
                let (issued, crossed_crash) = self.in_flight.remove(&key).expect("sent");
                if worker == 0 {
                    self.sends_to_0.push((issued, ctx.now()));
                }
                self.fragment_landed_after_rejoin |= crossed_crash && ctx.is_up(worker);
            }
            SimEvent::RetrieveDone { chunk, .. } => {
                self.retrieved.insert(chunk);
            }
            SimEvent::WorkerDown { worker } => {
                for ((w, ..), (_, crossed)) in self.in_flight.iter_mut() {
                    if *w == worker {
                        *crossed = true;
                        self.crash_with_fragment_in_flight = true;
                    }
                }
            }
            SimEvent::ChunkLost { worker, chunk } => {
                if !self.lost.insert(chunk) {
                    self.violations.push(format!("chunk {chunk} lost twice"));
                }
                if self.opened_on.get(&chunk) != Some(&worker) {
                    self.violations
                        .push(format!("chunk {chunk} lost on {worker}, not opened there"));
                }
                if self.retrieved.contains(&chunk) {
                    self.violations
                        .push(format!("chunk {chunk} lost after its retrieval"));
                }
            }
            _ => {}
        }
        self.inner.on_event(ev, ctx);
    }
}

impl GeometryAccess for Contract {
    fn chunk_geom(&self, id: ChunkId) -> Option<ChunkGeom> {
        self.inner.chunk_geom(id)
    }

    fn job_dims(&self) -> Job {
        self.inner.job_dims()
    }
}

fn platform() -> Platform {
    Platform::new(
        "chunk-lost",
        vec![
            WorkerSpec::new(2e-3, 1e-6, 40),
            WorkerSpec::new(2e-3, 1e-6, 40),
            WorkerSpec::new(4e-3, 2e-6, 24),
        ],
    )
}

/// Worker 0 down over `down`; the others stay up.
fn profile(down: (f64, f64)) -> DynProfile {
    let crashing = WorkerDyn::new(Trace::default(), Trace::default(), vec![down]);
    DynProfile::new(vec![crashing, WorkerDyn::stable(), WorkerDyn::stable()])
}

fn run_sim(job: &Job, netmodel: NetModelSpec, profile: DynProfile) -> Contract {
    let mut policy = Contract::new(&platform(), job);
    Simulator::new(platform())
        .with_netmodel(netmodel)
        .with_profile(profile)
        .run(&mut policy)
        .unwrap();
    policy
}

fn run_net(job: &Job, netmodel: NetModelSpec, profile: DynProfile) -> Contract {
    let mut rng = StdRng::seed_from_u64(7);
    let a = BlockMatrix::random(job.r, job.t, job.q, &mut rng);
    let b = BlockMatrix::random(job.t, job.s, job.q, &mut rng);
    let mut c = BlockMatrix::zeros(job.r, job.s, job.q);
    let mut policy = Contract::new(&platform(), job);
    let rt = NetRuntime::new(platform()).with_options(NetOptions {
        time_scale: 1.0,
        idle_timeout: Duration::from_secs(20),
        profile: Some(profile),
        netmodel,
        ..Default::default()
    });
    rt.run(&mut policy, &a, &b, &mut c).unwrap();
    policy
}

#[test]
fn chunk_lost_is_reported_once_per_opened_chunk_on_both_engines() {
    let job = Job::new(6, 5, 9, 4);
    let models = [
        NetModelSpec::OnePort,
        NetModelSpec::BoundedMultiPort {
            k: 2,
            backbone: Some(600.0),
        },
    ];
    for netmodel in models {
        // The probe: the crash-free schedule, whose sends to worker 0
        // time the crashes. The fourth one is well past the C load.
        let probe = run_sim(&job, netmodel, DynProfile::constant(3));
        let (issued, done) = probe.sends_to_0[3];
        let mid = (issued + done) / 2.0;
        let scenarios = [
            ("crash mid-fragment", (mid, f64::INFINITY)),
            (
                "crash and rejoin before it lands",
                (mid, (mid + done) / 2.0),
            ),
        ];
        for (name, down) in scenarios {
            for (engine, run) in [
                ("sim", run_sim as fn(_, _, _) -> Contract),
                ("net", run_net),
            ] {
                let what = format!("{engine}, {netmodel:?}, {name}");
                let run = run(&job, netmodel, profile(down));
                assert!(run.violations.is_empty(), "{what}: {:?}", run.violations);
                assert!(!run.lost.is_empty(), "{what}: the crash lost nothing");
                assert!(
                    run.crash_with_fragment_in_flight,
                    "{what}: nothing in flight"
                );
                assert_eq!(
                    run.fragment_landed_after_rejoin,
                    down.1.is_finite(),
                    "{what}: a stale fragment landing after the rejoin"
                );
            }
        }
    }
}
