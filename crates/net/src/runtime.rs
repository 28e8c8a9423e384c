//! The public facade of the net runtime: options, errors, and the
//! [`NetRuntime`] entry point.
//!
//! A run is the same control loop as the discrete-event engine — any
//! `stargemm-core` policy runs unchanged — but the data is real:
//! fragments are sliced out of actual matrices, cross the wire format,
//! and are multiplied by the GEMM kernel. `run_observed` hands the star
//! to the one engine, `crate::reactor`, which validates its inputs.

use std::fmt;
use std::time::Duration;

use stargemm_core::stream::GeometryAccess;
use stargemm_linalg::BlockMatrix;
use stargemm_netmodel::NetModelSpec;
use stargemm_platform::dynamic::DynProfile;
use stargemm_platform::Platform;
use stargemm_sim::{ChunkId, MasterPolicy, ObsSink, RunStats, SimError};

/// Runtime tuning knobs.
#[derive(Clone, Debug)]
pub struct NetOptions {
    /// Multiplier on link transfer times (tests shrink it; 1.0 = honour
    /// the platform's `c_i` in real seconds).
    pub time_scale: f64,
    /// Give up if the next projected event is further away than this.
    pub idle_timeout: Duration,
    /// Fault injection: `(worker, n)` makes that worker's state machine
    /// die after processing `n` messages. Testing-only.
    pub inject_fault: Option<(usize, usize)>,
    /// Dynamic scenario shared with the links and workers: cost traces
    /// throttle the wire, scheduled crashes wipe workers mid-run.
    /// Lifecycle times are in *model* seconds (wall = model ×
    /// `time_scale`). `None` = the static platform of the paper.
    pub profile: Option<DynProfile>,
    /// Network-contention model of the star, served by the lane table
    /// the reactor shares with the simulator.
    pub netmodel: NetModelSpec,
}

impl Default for NetOptions {
    fn default() -> Self {
        NetOptions {
            time_scale: 1.0,
            idle_timeout: Duration::from_secs(30),
            inject_fault: None,
            profile: None,
            netmodel: NetModelSpec::OnePort,
        }
    }
}

impl NetOptions {
    /// Options calibrated for wall-clock-faithful pacing on this
    /// machine: measures the `q × q` kernel (the paper's benchmark
    /// phase, `reps` repetitions) and sets `time_scale` to the smallest
    /// value at which the reactor's paced clock stays ahead of the real
    /// inline GEMM on every worker of `platform` — see
    /// [`crate::calibrate::time_scale_for`].
    pub fn calibrated(platform: &Platform, q: usize, reps: usize) -> NetOptions {
        NetOptions {
            time_scale: crate::calibrate::time_scale_for(platform, q, reps).max(1.0),
            ..Default::default()
        }
    }
}

/// Runtime failures.
#[derive(Debug)]
pub enum NetError {
    /// A send would overflow the worker's block buffers.
    MemoryViolation {
        worker: usize,
        attempted: u64,
        capacity: u64,
    },
    /// The policy referenced a chunk with no known geometry.
    UnknownChunk(ChunkId),
    /// The policy finished with chunks unretrieved, or similar misuse.
    Protocol(String),
    /// No event can arrive within the idle timeout (deadlock).
    Timeout,
    /// A worker died (injected fault).
    WorkerFailure(String),
    /// Matrix dimensions disagree with the policy's job.
    DimensionMismatch(String),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::MemoryViolation {
                worker,
                attempted,
                capacity,
            } => write!(
                f,
                "memory violation on worker {worker}: {attempted} of {capacity} buffers"
            ),
            NetError::UnknownChunk(id) => write!(f, "no geometry for chunk {id}"),
            NetError::Protocol(m) => write!(f, "protocol violation: {m}"),
            NetError::Timeout => write!(f, "runtime idle timeout (deadlock?)"),
            NetError::WorkerFailure(m) => write!(f, "worker failed: {m}"),
            NetError::DimensionMismatch(m) => write!(f, "dimension mismatch: {m}"),
        }
    }
}

impl std::error::Error for NetError {}

/// The shared ledger speaks `SimError`; a rule it finds broken is the
/// same misuse here, so a buggy policy gets one verdict from both
/// engines.
impl From<SimError> for NetError {
    fn from(e: SimError) -> Self {
        match e {
            SimError::MemoryViolation {
                worker,
                capacity,
                attempted,
                ..
            } => NetError::MemoryViolation {
                worker,
                attempted,
                capacity,
            },
            SimError::Protocol(m) => NetError::Protocol(m),
            other => NetError::Protocol(other.to_string()),
        }
    }
}

/// The net runtime for one platform.
pub struct NetRuntime {
    pub(crate) platform: Platform,
    pub(crate) opts: NetOptions,
}

impl NetRuntime {
    /// Creates a runtime with default options.
    pub fn new(platform: Platform) -> Self {
        NetRuntime {
            platform,
            opts: NetOptions::default(),
        }
    }

    /// Overrides the options.
    pub fn with_options(mut self, opts: NetOptions) -> Self {
        self.opts = opts;
        self
    }

    /// Executes `policy` for `C ← C + A·B`, mutating `c` in place, and
    /// returns wall-clock run statistics.
    pub fn run<P: MasterPolicy + GeometryAccess>(
        &self,
        policy: &mut P,
        a: &BlockMatrix,
        b: &BlockMatrix,
        c: &mut BlockMatrix,
    ) -> Result<RunStats, NetError> {
        self.run_observed(policy, a, b, c, ObsSink::off())
    }

    /// [`NetRuntime::run`] with a structured-event recorder attached.
    ///
    /// The reactor records port lane acquire/release around each
    /// transfer, dispatches, and lifecycle transitions. Event timestamps
    /// are in *model* seconds, the clock the platform's `c_i`/`w_i` are
    /// written in, so traces are comparable with the discrete-event
    /// engine's.
    pub fn run_observed<P: MasterPolicy + GeometryAccess>(
        &self,
        policy: &mut P,
        a: &BlockMatrix,
        b: &BlockMatrix,
        c: &mut BlockMatrix,
        obs: ObsSink,
    ) -> Result<RunStats, NetError> {
        crate::reactor::run_reactor(self, policy, a, b, c, 0..c.block_cols(), &obs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use stargemm_core::algorithms::{build_policy, Algorithm};
    use stargemm_core::geometry::ChunkGeom;
    use stargemm_core::Job;
    use stargemm_linalg::verify::{tolerance_for, verify_product};
    use stargemm_platform::WorkerSpec;
    use stargemm_sim::{Action, ChunkDescr, Fragment, SimCtx, Simulator};

    fn fast_opts() -> NetOptions {
        NetOptions {
            time_scale: 1e-7, // effectively instant links for tests
            idle_timeout: Duration::from_secs(20),
            ..Default::default()
        }
    }

    fn run_and_verify(alg: Algorithm, platform: Platform, job: Job) {
        let mut rng = StdRng::seed_from_u64(7);
        let a = BlockMatrix::random(job.r, job.t, job.q, &mut rng);
        let b = BlockMatrix::random(job.t, job.s, job.q, &mut rng);
        let c0 = BlockMatrix::random(job.r, job.s, job.q, &mut rng);
        let mut c = c0.clone();
        let mut policy = build_policy(&platform, &job, alg).unwrap();
        let rt = NetRuntime::new(platform).with_options(fast_opts());
        let stats = rt.run(&mut policy, &a, &b, &mut c).unwrap();
        assert_eq!(stats.total_updates, job.total_updates());
        let report = verify_product(&c, &c0, &a, &b, tolerance_for(job.t * job.q));
        assert!(report.passed(), "{alg:?}: {report:?}");
    }

    fn small_platform() -> Platform {
        Platform::new(
            "net-test",
            vec![
                WorkerSpec::new(1e-4, 1e-4, 60),
                WorkerSpec::new(2e-4, 2e-4, 30),
            ],
        )
    }

    #[test]
    fn oddoml_produces_the_exact_product() {
        run_and_verify(Algorithm::Oddoml, small_platform(), Job::new(6, 5, 8, 4));
    }

    #[test]
    fn het_produces_the_exact_product() {
        run_and_verify(Algorithm::Het, small_platform(), Job::new(6, 5, 8, 4));
    }

    #[test]
    fn bmm_produces_the_exact_product() {
        // Toledo layout with step depth > 1 exercises the tail path.
        run_and_verify(Algorithm::Bmm, small_platform(), Job::new(6, 5, 8, 4));
    }

    #[test]
    fn round_robin_hom_produces_the_exact_product() {
        run_and_verify(Algorithm::Hom, small_platform(), Job::new(6, 5, 8, 4));
    }

    /// Policies feed every chunk its steps in increasing `k`, and the
    /// worker runs each tile product through the kernel on sub-slices of
    /// the flat payloads, so C is the sequential reference's to the bit
    /// — at every side below one tile (each fixed-size kernel) and at the
    /// first tiled side. Four ports reorder arrivals: operands overtake
    /// their C load into the `early` stash, and pooled buffers are reused
    /// across chunks in a different order than under one port.
    #[test]
    fn reactor_product_is_bitwise_the_sequential_reference() {
        let four_ports = NetModelSpec::BoundedMultiPort {
            k: 4,
            backbone: None,
        };
        for netmodel in [NetModelSpec::OnePort, four_ports] {
            for q in 1..=8 {
                for alg in [Algorithm::Het, Algorithm::Oddoml] {
                    let job = Job::new(6, 5, 8, q);
                    let platform = small_platform();
                    let mut rng = StdRng::seed_from_u64(23);
                    let a = BlockMatrix::random(job.r, job.t, q, &mut rng);
                    let b = BlockMatrix::random(job.t, job.s, q, &mut rng);
                    let mut c = BlockMatrix::random(job.r, job.s, q, &mut rng);
                    let mut expect = c.clone();
                    BlockMatrix::gemm_reference(&mut expect, &a, &b);
                    let mut policy = build_policy(&platform, &job, alg).unwrap();
                    let rt = NetRuntime::new(platform).with_options(NetOptions {
                        netmodel,
                        ..fast_opts()
                    });
                    rt.run(&mut policy, &a, &b, &mut c).unwrap();
                    for i in 0..job.r {
                        for j in 0..job.s {
                            let got = c.block(i, j).as_slice().iter().map(|x| x.to_bits());
                            let want = expect.block(i, j).as_slice().iter().map(|x| x.to_bits());
                            assert!(
                                got.eq(want),
                                "{netmodel:?}, {alg:?}, q = {q}: block ({i}, {j})"
                            );
                        }
                    }
                }
            }
        }
    }

    /// The reactor sleeps until `vnow × time_scale` of wall time has
    /// passed, and reads the clock only when that instant lies past its
    /// last reading. At a scale where pacing, not compute, sets the wall
    /// time, a run under every contention model must still last at least
    /// the simulator's makespan (the same schedule) scaled: a skipped
    /// read never skips a sleep that was due.
    #[test]
    fn pacing_holds_the_wall_to_the_scaled_makespan() {
        let time_scale = 0.05;
        let job = Job::new(4, 3, 4, 4);
        // Compute is all but free: the reactor's takes no model time, the
        // simulator's here adds under 0.1 µs to the makespan.
        let platform = Platform::new(
            "paced",
            vec![
                WorkerSpec::new(1e-2, 1e-9, 60),
                WorkerSpec::new(2e-2, 2e-9, 30),
            ],
        );
        let mut rng = StdRng::seed_from_u64(29);
        let a = BlockMatrix::random(job.r, job.t, job.q, &mut rng);
        let b = BlockMatrix::random(job.t, job.s, job.q, &mut rng);
        let c0 = BlockMatrix::random(job.r, job.s, job.q, &mut rng);
        let models = [
            NetModelSpec::OnePort,
            NetModelSpec::BoundedMultiPort {
                k: 2,
                backbone: None,
            },
            // Below the two links' 150 blocks/s together.
            NetModelSpec::FairShare { backbone: 120.0 },
        ];
        for netmodel in models {
            let mut policy = build_policy(&platform, &job, Algorithm::Het).unwrap();
            let sim = Simulator::new(platform.clone())
                .with_netmodel(netmodel)
                .run(&mut policy)
                .unwrap();
            let mut policy = build_policy(&platform, &job, Algorithm::Het).unwrap();
            let mut c = c0.clone();
            let net = NetRuntime::new(platform.clone())
                .with_options(NetOptions {
                    time_scale,
                    netmodel,
                    idle_timeout: Duration::from_secs(20),
                    ..Default::default()
                })
                .run(&mut policy, &a, &b, &mut c)
                .unwrap();
            let paced = sim.makespan * time_scale;
            assert!(paced > 0.01, "{netmodel:?}: pacing must matter, {paced} s");
            assert!(
                net.makespan >= paced,
                "{netmodel:?}: the run took {} s of wall, under the paced {paced} s",
                net.makespan
            );
        }
    }

    #[test]
    fn injected_worker_crash_surfaces_as_an_error() {
        let job = Job::new(6, 5, 8, 4);
        let platform = small_platform();
        let mut policy = build_policy(&platform, &job, Algorithm::Oddoml).unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        let a = BlockMatrix::random(job.r, job.t, job.q, &mut rng);
        let b = BlockMatrix::random(job.t, job.s, job.q, &mut rng);
        let mut c = BlockMatrix::zeros(job.r, job.s, job.q);
        let rt = NetRuntime::new(platform).with_options(NetOptions {
            inject_fault: Some((0, 5)),
            idle_timeout: Duration::from_secs(3),
            ..fast_opts()
        });
        let err = rt.run(&mut policy, &a, &b, &mut c).unwrap_err();
        // Either the broken link is observed mid-send or the run stalls
        // waiting for the dead worker — both must surface as a runtime
        // error, never a hang or a wrong result.
        assert!(
            matches!(err, NetError::WorkerFailure(_) | NetError::Timeout),
            "{err}"
        );
    }

    #[test]
    fn dyn_profile_throttles_the_links() {
        use stargemm_platform::dynamic::{DynProfile, Trace, WorkerDyn};
        let job = Job::new(2, 2, 2, 4);
        let platform = Platform::new("dyn-slow", vec![WorkerSpec::new(2e-3, 1e-6, 60)]);
        let mut rng = StdRng::seed_from_u64(5);
        let a = BlockMatrix::random(job.r, job.t, job.q, &mut rng);
        let b = BlockMatrix::random(job.t, job.s, job.q, &mut rng);

        let run = |profile: Option<DynProfile>| {
            let mut c = BlockMatrix::zeros(job.r, job.s, job.q);
            let mut policy = build_policy(&platform, &job, Algorithm::Oddoml).unwrap();
            let rt = NetRuntime::new(platform.clone()).with_options(NetOptions {
                time_scale: 1.0,
                idle_timeout: Duration::from_secs(20),
                profile,
                ..Default::default()
            });
            rt.run(&mut policy, &a, &b, &mut c).unwrap().makespan
        };

        let flat = run(None);
        // Link cost ×4 from the start: the comm-bound run must take
        // clearly longer than the static one.
        let jittered = run(Some(DynProfile::new(vec![WorkerDyn::new(
            Trace::new(vec![(0.0, 4.0)]),
            Trace::default(),
            vec![],
        )])));
        assert!(
            jittered > flat * 2.0,
            "trace throttle not applied: {flat} vs {jittered}"
        );
    }

    #[test]
    fn multiport_runtime_produces_the_exact_product() {
        // Two concurrent lanes (k = 2) compute the same product.
        let job = Job::new(6, 5, 8, 4);
        let platform = small_platform();
        let mut rng = StdRng::seed_from_u64(11);
        let a = BlockMatrix::random(job.r, job.t, job.q, &mut rng);
        let b = BlockMatrix::random(job.t, job.s, job.q, &mut rng);
        let c0 = BlockMatrix::random(job.r, job.s, job.q, &mut rng);
        let mut c = c0.clone();
        let mut policy = build_policy(&platform, &job, Algorithm::Het).unwrap();
        let rt = NetRuntime::new(platform).with_options(NetOptions {
            netmodel: NetModelSpec::BoundedMultiPort {
                k: 2,
                backbone: None,
            },
            ..fast_opts()
        });
        let stats = rt.run(&mut policy, &a, &b, &mut c).unwrap();
        assert_eq!(stats.total_updates, job.total_updates());
        let report = verify_product(&c, &c0, &a, &b, tolerance_for(job.t * job.q));
        assert!(report.passed(), "{report:?}");
    }

    #[test]
    fn fairshare_runtime_produces_the_exact_product() {
        let job = Job::new(4, 4, 6, 4);
        let platform = small_platform();
        let mut rng = StdRng::seed_from_u64(13);
        let a = BlockMatrix::random(job.r, job.t, job.q, &mut rng);
        let b = BlockMatrix::random(job.t, job.s, job.q, &mut rng);
        let c0 = BlockMatrix::zeros(job.r, job.s, job.q);
        let mut c = c0.clone();
        let mut policy = build_policy(&platform, &job, Algorithm::Oddoml).unwrap();
        // A backbone below the aggregate link rate so sharing really
        // kicks in (links are 1e-4/2e-4 s per block ⇒ 15k blocks/s).
        let rt = NetRuntime::new(platform).with_options(NetOptions {
            netmodel: NetModelSpec::FairShare { backbone: 8_000.0 },
            ..fast_opts()
        });
        let stats = rt.run(&mut policy, &a, &b, &mut c).unwrap();
        assert_eq!(stats.total_updates, job.total_updates());
        let report = verify_product(&c, &c0, &a, &b, tolerance_for(job.t * job.q));
        assert!(report.passed(), "{report:?}");
    }

    /// Replays a fixed action list, then `Finished`; every chunk is the
    /// single C block of a 1 × 2 × 1 job.
    struct Script(std::vec::IntoIter<Action>);

    impl MasterPolicy for Script {
        fn next_action(&mut self, _ctx: &SimCtx) -> Action {
            self.0.next().unwrap_or(Action::Finished)
        }

        fn name(&self) -> &'static str {
            "script"
        }
    }

    impl GeometryAccess for Script {
        fn chunk_geom(&self, id: ChunkId) -> Option<ChunkGeom> {
            Some(ChunkGeom {
                id,
                worker: 0,
                i0: 0,
                j0: 0,
                h: 1,
                w: 1,
                k_depth: 1,
            })
        }

        fn job_dims(&self) -> Job {
            Job::new(1, 2, 1, 2)
        }
    }

    fn send(worker: usize, fragment: Fragment, new_chunk: Option<ChunkDescr>) -> Action {
        Action::Send {
            worker,
            fragment,
            new_chunk,
        }
    }

    /// The two-step, one-C-block chunk 0 of the scripted 1 × 2 × 1 job.
    fn demo_descr() -> ChunkDescr {
        ChunkDescr {
            id: 0,
            c_blocks: 1,
            steps: 2,
            a_blocks_per_step: 1,
            b_blocks_per_step: 1,
            updates_per_step: 1,
            tail: None,
        }
    }

    /// Runs one scripted policy through both engines under `netmodel`
    /// and hands both copies back; each verdict is the error's text.
    fn both_engines<P: MasterPolicy + GeometryAccess>(
        netmodel: NetModelSpec,
        policy: impl Fn() -> P,
    ) -> [(Result<RunStats, String>, P); 2] {
        let mut rng = StdRng::seed_from_u64(17);
        let a = BlockMatrix::random(1, 2, 2, &mut rng);
        let b = BlockMatrix::random(2, 1, 2, &mut rng);
        let mut c = BlockMatrix::zeros(1, 1, 2);
        let (mut in_sim, mut in_net) = (policy(), policy());
        let sim = Simulator::new(small_platform())
            .with_netmodel(netmodel)
            .run(&mut in_sim)
            .map_err(|e| e.to_string());
        let net = NetRuntime::new(small_platform())
            .with_options(NetOptions {
                netmodel,
                ..fast_opts()
            })
            .run(&mut in_net, &a, &b, &mut c)
            .map_err(|e| e.to_string());
        [(sim, in_sim), (net, in_net)]
    }

    /// A buggy policy gets the same verdict from both engines, and for
    /// the action that broke the rule: every bad script goes on with the
    /// well-formed remainder, so a missing rejection cannot hide behind
    /// the `PrematureFinish` a truncated script would earn.
    #[test]
    fn bad_policies_are_errors_in_the_simulator_and_the_runtime_alike() {
        let d = demo_descr();
        let open = send(0, Fragment::c_load(&d), Some(d));
        let a0 = send(0, Fragment::a_step(&d, 0), None);
        let a0_of = |blocks| {
            let fragment = Fragment {
                blocks,
                ..Fragment::a_step(&d, 0)
            };
            send(0, fragment, None)
        };
        let open_with = |d: ChunkDescr| send(0, Fragment::c_load(&d), Some(d));
        let retrieve = |worker, chunk| Action::Retrieve { worker, chunk };
        let rest = [
            send(0, Fragment::b_step(&d, 0), None),
            send(0, Fragment::a_step(&d, 1), None),
            send(0, Fragment::b_step(&d, 1), None),
            retrieve(0, 0),
        ];
        let one_port = NetModelSpec::OnePort;
        let four_ports = NetModelSpec::BoundedMultiPort {
            k: 4,
            backbone: None,
        };
        // The reactor's whole-quota transport rule speaks before the
        // ledger where both apply; those rows name the two messages.
        let in_one_piece = "takes 1 in one piece";
        // (case, net model, the bad prefix, what the simulator says,
        // what the runtime says); `None`: the script is fine.
        type Row<'a> = (&'a str, NetModelSpec, Vec<Action>, Option<[&'a str; 2]>);
        let same = |msg| Some([msg, msg]);
        let table: Vec<Row> = vec![
            ("well-formed", one_port, vec![open, a0], None),
            (
                "duplicate chunk id",
                one_port,
                vec![open, open],
                same("duplicate chunk id 0"),
            ),
            (
                "second C load",
                one_port,
                vec![open, send(0, Fragment::c_load(&d), None)],
                same("second C load for chunk 0"),
            ),
            (
                "fragment to the wrong worker",
                one_port,
                vec![open, send(1, Fragment::b_step(&d, 0), None)],
                same("but the chunk lives on worker 0"),
            ),
            (
                "duplicate fragment",
                one_port,
                vec![open, a0, a0],
                same("fragment over-delivers chunk 0 step 0"),
            ),
            (
                "duplicate fragment, both in flight",
                four_ports,
                vec![open, a0, a0],
                same("fragment over-delivers chunk 0 step 0"),
            ),
            (
                "over-delivered fragment",
                one_port,
                vec![open, a0_of(2)],
                Some(["fragment over-delivers chunk 0 step 0", in_one_piece]),
            ),
            (
                "empty A fragment",
                one_port,
                vec![open, a0_of(0)],
                Some(["empty fragment", in_one_piece]),
            ),
            (
                "chunk without C blocks",
                one_port,
                vec![open_with(ChunkDescr { c_blocks: 0, ..d })],
                same("empty fragment"),
            ),
            (
                "chunk without updates",
                one_port,
                vec![open_with(ChunkDescr {
                    updates_per_step: 0,
                    ..d
                })],
                same("degenerate chunk descriptor"),
            ),
            (
                "retrieve of an unknown chunk",
                one_port,
                vec![open, retrieve(0, 9)],
                same("protocol violation: unknown chunk 9"),
            ),
            (
                "chunk retrieved twice",
                one_port,
                [&[open, a0][..], &rest, &[retrieve(0, 0)]].concat(),
                same("chunk 0 retrieved twice"),
            ),
            (
                "retrieve from the wrong worker",
                one_port,
                vec![open, retrieve(1, 0)],
                same("but it is assigned to worker 0"),
            ),
            (
                "completion of a job that never arrived",
                one_port,
                vec![open, Action::CompleteJob { job: 5 }],
                Some([
                    "completion of unknown (never-arrived) job 5",
                    "job streams are not supported",
                ]),
            ),
            (
                "finished with a live chunk unretrieved",
                one_port,
                vec![open, Action::Finished],
                same("policy finished with 1 chunk(s) unretrieved"),
            ),
        ];
        for (case, netmodel, prefix, says) in table {
            // A bad opening is never followed by fragments for the
            // chunk it failed to open — an engine that let it through
            // runs on to the retrieval and finishes cleanly.
            let opened = prefix.contains(&open);
            let actions: Vec<Action> = prefix
                .into_iter()
                .chain(rest.iter().copied().filter(|_| opened))
                .collect();
            let verdicts = both_engines(netmodel, || Script(actions.clone().into_iter()));
            for (engine, (verdict, _)) in ["simulator", "runtime"].iter().zip(&verdicts) {
                match says {
                    None => assert!(verdict.is_ok(), "{case}: the {engine} said {verdict:?}"),
                    Some(says) => {
                        let says = says[usize::from(*engine == "runtime")];
                        assert!(
                            verdict.as_ref().is_err_and(|e| e.contains(says)),
                            "{case}: the {engine} said {verdict:?}, not {says:?}"
                        );
                    }
                }
            }
            if says.is_some() {
                let net = verdicts[1].0.as_ref().unwrap_err();
                assert!(net.starts_with("protocol"), "{case}: {net}");
            }
        }
    }

    /// Logs what the policy can read of worker 0's memory at each poll.
    struct Probe {
        script: Script,
        seen: Vec<(u64, u64, bool)>,
    }

    impl MasterPolicy for Probe {
        fn next_action(&mut self, ctx: &SimCtx) -> Action {
            self.seen
                .push((ctx.free_buffers(0), ctx.occupied_blocks(0), ctx.enrolled(0)));
            self.script.next_action(ctx)
        }
    }

    impl GeometryAccess for Probe {
        fn chunk_geom(&self, id: ChunkId) -> Option<ChunkGeom> {
            self.script.chunk_geom(id)
        }

        fn job_dims(&self) -> Job {
            self.script.job_dims()
        }
    }

    /// Blocks on the wire are reserved in the `SimCtx` of both engines:
    /// a policy polled while its sends are in flight reads the same
    /// occupancy from the reactor as from the simulator.
    #[test]
    fn in_flight_blocks_show_in_the_ctx_of_both_engines() {
        let d = demo_descr();
        let sends = vec![
            send(0, Fragment::c_load(&d), Some(d)),
            send(0, Fragment::a_step(&d, 0), None),
            send(0, Fragment::b_step(&d, 0), None),
            send(0, Fragment::a_step(&d, 1), None),
            send(0, Fragment::b_step(&d, 1), None),
        ];
        let four_ports = NetModelSpec::BoundedMultiPort {
            k: 4,
            backbone: None,
        };
        // A send-only script ends in `PrematureFinish`; the polls before
        // it are what is compared.
        let [(sim, in_sim), (net, in_net)] = both_engines(four_ports, || Probe {
            script: Script(sends.clone().into_iter()),
            seen: Vec::new(),
        });
        assert!(sim.is_err() && net.is_err());
        // Four sends go out back to back at t = 0, each reserving a
        // block of worker 0's 60; the fifth waits for a port.
        let want: Vec<(u64, u64, bool)> = (0..6).map(|n| (60 - n, n, n > 0)).collect();
        assert_eq!(in_sim.seen[..6], want[..]);
        assert_eq!(in_net.seen[..6], want[..]);
    }

    /// Shifts the scripted chunk one block column right, past the
    /// scripted job's only column.
    struct OffGrid(Script);

    impl MasterPolicy for OffGrid {
        fn next_action(&mut self, ctx: &SimCtx) -> Action {
            self.0.next_action(ctx)
        }
    }

    impl GeometryAccess for OffGrid {
        fn chunk_geom(&self, id: ChunkId) -> Option<ChunkGeom> {
            let geom = self.0.chunk_geom(id)?;
            Some(ChunkGeom { j0: 1, ..geom })
        }

        fn job_dims(&self) -> Job {
            self.0.job_dims()
        }
    }

    /// A chunk reaching past the job's columns is refused, not sliced:
    /// in a federated star those columns are another star's.
    #[test]
    fn a_chunk_past_the_jobs_columns_is_a_protocol_error() {
        let d = demo_descr();
        let mut policy = OffGrid(Script(
            vec![send(0, Fragment::c_load(&d), Some(d))].into_iter(),
        ));
        let mut rng = StdRng::seed_from_u64(17);
        let a = BlockMatrix::random(1, 2, 2, &mut rng);
        let b = BlockMatrix::random(2, 2, 2, &mut rng);
        let mut c = BlockMatrix::zeros(1, 2, 2);
        let rt = NetRuntime::new(small_platform()).with_options(fast_opts());
        let err =
            crate::reactor::run_reactor(&rt, &mut policy, &a, &b, &mut c, 0..1, &ObsSink::off())
                .unwrap_err();
        assert!(
            err.to_string()
                .contains("chunk 0 reaches past the job's 1 block columns"),
            "{err}"
        );
    }

    #[test]
    fn dimension_mismatch_is_rejected() {
        let job = Job::new(4, 4, 4, 4);
        let platform = small_platform();
        let mut policy = build_policy(&platform, &job, Algorithm::Oddoml).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let a = BlockMatrix::random(3, 4, 4, &mut rng); // wrong r
        let b = BlockMatrix::random(4, 4, 4, &mut rng);
        let mut c = BlockMatrix::random(4, 4, 4, &mut rng);
        let rt = NetRuntime::new(platform).with_options(fast_opts());
        let err = rt.run(&mut policy, &a, &b, &mut c).unwrap_err();
        assert!(matches!(err, NetError::DimensionMismatch(_)), "{err}");
    }

    #[test]
    fn throttled_links_slow_the_run_down() {
        let job = Job::new(2, 2, 2, 4);
        let platform = Platform::new("slow", vec![WorkerSpec::new(5e-3, 1e-6, 60)]);
        let mut rng = StdRng::seed_from_u64(3);
        let a = BlockMatrix::random(job.r, job.t, job.q, &mut rng);
        let b = BlockMatrix::random(job.t, job.s, job.q, &mut rng);
        let mut c = BlockMatrix::zeros(job.r, job.s, job.q);

        let mut policy = build_policy(&platform, &job, Algorithm::Oddoml).unwrap();
        let rt = NetRuntime::new(platform.clone()).with_options(NetOptions {
            time_scale: 1.0,
            idle_timeout: Duration::from_secs(20),
            ..Default::default()
        });
        let stats = rt.run(&mut policy, &a, &b, &mut c).unwrap();
        // Total traffic: C in+out (2·4 blocks) + A/B (2 steps × 2 chunks ×
        // (2+2) blocks)... at least 16 blocks × 5 ms ≥ 80 ms.
        assert!(
            stats.makespan >= 0.08,
            "throttling not applied: {}",
            stats.makespan
        );
        assert!(stats.port_busy > 0.0);
    }
}
