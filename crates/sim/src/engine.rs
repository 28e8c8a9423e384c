//! The simulation driver: [`Simulator`] configuration and the master
//! state machine.
//!
//! This module is a thin layer: the generic discrete-event machinery
//! (time-ordered queue, stable tie-breaking, cancellation, event caps)
//! lives in [`crate::kernel`], the master's rules in the shared
//! [`crate::ledger`] and [`crate::lanes`], and the simulated workers in
//! [`crate::model`]. What remains here is the *protocol* between the
//! master policy and the platform: the master is asked for its next
//! [`Action`] whenever its port is free; under the paper's one-port
//! model at most one transfer is ever in flight.
//!
//! [`Simulator`] is `Send + Clone`, so whole scenario sweeps can be
//! fanned out across threads (see `stargemm-bench`'s sweep runner); each
//! run builds its own [`model::StarModel`](crate::model) and two runs of
//! the same scenario are bit-identical regardless of what executes next
//! to them.

use stargemm_netmodel::NetModelSpec;
use stargemm_obs::ObsSink;
use stargemm_platform::dynamic::{DynPlatform, DynProfile};
use stargemm_platform::Platform;

use crate::error::SimError;
use crate::ledger::StarLedger;
use crate::master::{MasterSm, MasterState, MasterTransport};
use crate::model::{EvKind, StarModel};
use crate::msg::{ChunkId, JobId};
use crate::policy::{Action, MasterPolicy};
use crate::stats::RunStats;

/// The simulator: owns the platform description and run options.
#[derive(Clone, Debug)]
pub struct Simulator {
    platform: Platform,
    profile: Option<DynProfile>,
    /// Network-contention model of the star (defaults to the paper's
    /// one-port; see `stargemm-netmodel`).
    netmodel: NetModelSpec,
    /// Multi-job stream: `(arrival time, job id)` pairs delivered to the
    /// policy as [`crate::policy::SimEvent::JobArrived`] events.
    arrivals: Vec<(f64, JobId)>,
    /// Defensive cap on processed events (a correct policy on the paper's
    /// largest instance needs ~10⁶).
    max_events: u64,
}

// A `Simulator` is a scenario description, not a running instance: sweep
// runners clone it freely and run copies on worker threads.
const _: () = {
    const fn assert_sweepable<T: Send + Sync + Clone>() {}
    assert_sweepable::<Simulator>();
    assert_sweepable::<DynPlatform>();
};

impl Simulator {
    /// A simulator for the static one-port `platform`.
    pub fn new(platform: Platform) -> Self {
        Simulator {
            platform,
            profile: None,
            netmodel: NetModelSpec::OnePort,
            arrivals: Vec::new(),
            max_events: 200_000_000,
        }
    }

    /// A simulator for a time-varying platform: transfer and compute
    /// durations are integrated over the profile's cost traces, and
    /// scheduled crashes abort the resident chunks (reported to the
    /// policy as [`crate::policy::SimEvent::ChunkLost`]). The platform's
    /// contention model (`@netmodel` directive) is honoured.
    pub fn new_dyn(platform: DynPlatform) -> Self {
        Simulator::new(platform.base)
            .with_profile(platform.profile)
            .with_netmodel(platform.netmodel)
    }

    /// Swaps in a network-contention model: transfer admission and
    /// durations are routed through it (bandwidth re-shared whenever the
    /// active transfer set changes, composing with any dynamic cost
    /// traces). [`NetModelSpec::OnePort`] — the default — reproduces the
    /// paper's engine byte for byte.
    ///
    /// # Panics
    /// Panics on an invalid spec (`k = 0`, non-positive backbone), with
    /// [`NetModelSpec::assert_valid`]'s message.
    pub fn with_netmodel(mut self, netmodel: NetModelSpec) -> Self {
        netmodel.assert_valid();
        self.netmodel = netmodel;
        self
    }

    /// Attaches a dynamic profile to the current platform.
    ///
    /// # Panics
    /// Panics when the profile does not describe every worker.
    pub fn with_profile(mut self, profile: DynProfile) -> Self {
        assert_eq!(
            profile.len(),
            self.platform.len(),
            "profile must describe every worker"
        );
        self.profile = Some(profile);
        self
    }

    /// Attaches a job-arrival plan: each `(time, job)` pair is scheduled
    /// as a kernel event whose delivery notifies the policy with
    /// [`crate::policy::SimEvent::JobArrived`]. Per-job lifecycle records
    /// appear in [`crate::stats::RunStats::jobs`].
    ///
    /// # Panics
    /// Panics on a non-finite or negative arrival time, or a duplicate
    /// job id.
    pub fn with_arrivals(mut self, arrivals: Vec<(f64, JobId)>) -> Self {
        let mut seen = std::collections::BTreeSet::new();
        for &(time, job) in &arrivals {
            assert!(
                time.is_finite() && time >= 0.0,
                "bad arrival time {time} for job {job}"
            );
            assert!(seen.insert(job), "duplicate arrival of job {job}");
        }
        self.arrivals = arrivals;
        self
    }

    /// Overrides the defensive event cap.
    pub fn with_max_events(mut self, cap: u64) -> Self {
        self.max_events = cap;
        self
    }

    /// The simulated platform.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// Runs `policy` to completion and returns aggregate statistics.
    pub fn run(&self, policy: &mut dyn MasterPolicy) -> Result<RunStats, SimError> {
        self.run_observed(policy, ObsSink::off())
    }

    /// [`Self::run`] with a structured-event recorder attached; the
    /// recorded log is the run's schedule (`stargemm_obs::spans` pairs
    /// it into intervals for the Gantt, Perfetto and attribution views).
    ///
    /// The sink is a *run parameter* — never stored on the simulator —
    /// so `Simulator` stays `Send + Sync + Clone` while the (`Rc`-based,
    /// deliberately `!Send`) sink lives only for the run. A recorder can
    /// only observe: attaching one cannot change the schedule or the
    /// stats.
    pub fn run_observed(
        &self,
        policy: &mut dyn MasterPolicy,
        obs: ObsSink,
    ) -> Result<RunStats, SimError> {
        let mut st = StarModel::new(
            &self.platform,
            self.profile.clone(),
            &self.netmodel,
            &self.arrivals,
            self.max_events,
            obs,
        );
        drive(&mut st, policy)?;
        Ok(st.into_stats(policy.name()))
    }
}

/// The run loop: pump the master automaton, deliver one event, settle,
/// until the policy is done and no work is pending.
pub(crate) fn drive(st: &mut StarModel, policy: &mut dyn MasterPolicy) -> Result<(), SimError> {
    let mut sm = MasterSm::new();
    // Hook notifications of the event being delivered: one buffer
    // for the whole run, so the steady-state loop never allocates.
    let mut hooks = Vec::new();

    loop {
        // Ask the policy while the master is free to act.
        sm.pump(&mut SimTransport {
            st: &mut *st,
            policy: &mut *policy,
        })?;

        if sm.is_done() && !st.has_work_events() {
            return Ok(());
        }

        let Some(kind) = st.next_event()? else {
            return Err(SimError::Deadlock {
                time: st.now,
                unretrieved_chunks: st.ledger.unretrieved(),
            });
        };

        hooks.clear();
        st.apply_event(kind, &mut hooks)?;

        if matches!(kind, EvKind::TransferDone { .. }) {
            sm.on_transfer_done();
        }
        sm.settle(&mut SimTransport {
            st: &mut *st,
            policy: &mut *policy,
        })?;

        // Fire hooks after the state (and master bookkeeping) settled.
        for h in &hooks {
            policy.on_event(h, &st.ledger.ctx(st.now));
        }
    }
}

/// [`MasterTransport`] over the virtual-time [`StarModel`]: the sim
/// engine's clock is the kernel event queue, its transport the
/// simulated workers inside the model.
struct SimTransport<'a> {
    st: &'a mut StarModel,
    policy: &'a mut dyn MasterPolicy,
}

impl MasterTransport for SimTransport<'_> {
    type Error = SimError;

    fn poll_action(&mut self) -> Action {
        self.policy.next_action(&self.st.ledger.ctx(self.st.now))
    }

    fn perform(&mut self, action: Action) -> Result<MasterState, SimError> {
        self.st.apply_action(action)
    }

    fn can_issue(&self) -> bool {
        self.st.can_issue()
    }

    fn ledger(&self) -> &StarLedger {
        &self.st.ledger
    }

    fn start_retrieval(&mut self, worker: usize, chunk: ChunkId) -> Result<(), SimError> {
        self.st.start_retrieval(worker, chunk);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::{ChunkDescr, Fragment};
    use crate::policy::{Action, SimCtx, SimEvent};
    use stargemm_obs::{analyze, spans, MatTag, ObsEvent, RunRecorder, Track};
    use stargemm_platform::{WorkerId, WorkerSpec};

    /// Replays a fixed list of actions in order, emitting `Wait` when the
    /// head action is a retrieval of a chunk that is not yet computed
    /// would be fine too — retrieval blocks — so no gating is needed.
    /// After the script is exhausted it returns `Finished`.
    struct Script {
        actions: Vec<Action>,
        next: usize,
    }

    impl Script {
        fn new(actions: Vec<Action>) -> Self {
            Script { actions, next: 0 }
        }
    }

    impl MasterPolicy for Script {
        fn next_action(&mut self, _ctx: &SimCtx) -> Action {
            let a = self
                .actions
                .get(self.next)
                .copied()
                .unwrap_or(Action::Finished);
            self.next += 1;
            a
        }

        fn name(&self) -> &'static str {
            "script"
        }
    }

    fn demo_descr() -> ChunkDescr {
        ChunkDescr {
            id: 0,
            c_blocks: 4,
            steps: 2,
            a_blocks_per_step: 2,
            b_blocks_per_step: 2,
            updates_per_step: 4,
            tail: None,
        }
    }

    fn full_script(descr: ChunkDescr, worker: WorkerId) -> Vec<Action> {
        let mut v = vec![Action::Send {
            worker,
            fragment: Fragment::c_load(&descr),
            new_chunk: Some(descr),
        }];
        for s in 0..descr.steps {
            v.push(Action::Send {
                worker,
                fragment: Fragment::b_step(&descr, s),
                new_chunk: None,
            });
            v.push(Action::Send {
                worker,
                fragment: Fragment::a_step(&descr, s),
                new_chunk: None,
            });
        }
        v.push(Action::Retrieve {
            worker,
            chunk: descr.id,
        });
        v
    }

    fn one_worker(c: f64, w: f64, m: usize) -> Platform {
        Platform::new("tiny", vec![WorkerSpec::new(c, w, m)])
    }

    /// Runs `policy` under a recorder; returns the stats and the log.
    fn record(sim: &Simulator, policy: &mut dyn MasterPolicy) -> (RunStats, Vec<ObsEvent>) {
        let rec = RunRecorder::shared();
        let stats = sim.run_observed(policy, ObsSink::to(rec.clone())).unwrap();
        let events = rec.borrow().events().to_vec();
        (stats, events)
    }

    /// The interval of the `mat` fragment dispatched for `(chunk, step)`.
    fn send_of(events: &[ObsEvent], mat: MatTag, chunk: ChunkId, step: u32) -> (f64, f64) {
        spans(events)
            .iter()
            .find_map(|s| match s.track {
                Track::Port {
                    chunk: c,
                    dispatch: Some(d),
                    ..
                } if c == chunk && d == (mat, step) => Some((s.start, s.end.unwrap())),
                _ => None,
            })
            .unwrap()
    }

    #[test]
    fn one_chunk_timing_is_exact() {
        // c = w = 1 per block. Transfers: C 0→4, B0 4→6, A0 6→8,
        // B1 8→10, A1 10→12. Step0 runs 8→12, step1 12→16 (serialized).
        // Retrieval blocks until 16 then runs 16→20.
        let sim = Simulator::new(one_worker(1.0, 1.0, 100));
        let mut p = Script::new(full_script(demo_descr(), 0));
        let stats = sim.run(&mut p).unwrap();
        assert!((stats.makespan - 20.0).abs() < 1e-9, "{}", stats.makespan);
        assert_eq!(stats.blocks_to_workers, 12);
        assert_eq!(stats.blocks_to_master, 4);
        assert_eq!(stats.total_updates, 8);
        assert_eq!(stats.chunks, 1);
        assert_eq!(stats.enrolled(), 1);
        // Port: 12 in + 4 out = 16 busy seconds.
        assert!((stats.port_busy - 16.0).abs() < 1e-9);
        // Peak memory: C(4) + step0 A/B (4) + B1 (2) = 10 — step0's
        // buffers are freed at t=12 just before A1 lands (same timestamp,
        // earlier event sequence number).
        assert_eq!(stats.per_worker[0].mem_high_water, 10);
        assert!((stats.per_worker[0].busy_time - 8.0).abs() < 1e-9);
    }

    #[test]
    fn compute_overlaps_communication() {
        // Make compute slow: w = 10. Step0 ready at 8, runs 8→48.
        // Meanwhile B1/A1 arrive at 10/12 (overlap). Step1 runs 48→88;
        // retrieval 88→92.
        let sim = Simulator::new(one_worker(1.0, 10.0, 100));
        let mut p = Script::new(full_script(demo_descr(), 0));
        let stats = sim.run(&mut p).unwrap();
        assert!((stats.makespan - 92.0).abs() < 1e-9, "{}", stats.makespan);
    }

    #[test]
    fn recorded_spans_are_the_exact_schedule() {
        // The intervals of `one_chunk_timing_is_exact`, spelled out.
        let sim = Simulator::new(one_worker(1.0, 1.0, 100));
        let mut p = Script::new(full_script(demo_descr(), 0));
        let (stats, events) = record(&sim, &mut p);
        let mut got: Vec<(f64, f64, String)> = spans(&events)
            .iter()
            .map(|s| {
                let what = match s.track {
                    Track::Port {
                        dispatch: Some((mat, step)),
                        ..
                    } => format!("{}{step}", mat.label()),
                    Track::Port { dir, .. } => dir.label().to_string(),
                    Track::Compute { step, .. } => format!("step{step}"),
                    other => panic!("unexpected track {other:?}"),
                };
                (s.start, s.end.unwrap(), what)
            })
            .collect();
        got.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let want = [
            (0.0, 4.0, "C0"),
            (4.0, 6.0, "B0"),
            (6.0, 8.0, "A0"),
            (8.0, 10.0, "B1"),
            (8.0, 12.0, "step0"),
            (10.0, 12.0, "A1"),
            (12.0, 16.0, "step1"),
            (16.0, 20.0, "recv"),
        ];
        assert_eq!(got, want.map(|(s, e, what)| (s, e, what.to_string())));

        // The analysis of the same log agrees with the engine's stats.
        let a = analyze(&events, 1);
        assert_eq!(a.horizon, stats.makespan);
        assert!((a.port_busy - stats.port_busy).abs() < 1e-9);
        assert!((a.workers[0].compute - stats.per_worker[0].busy_time).abs() < 1e-9);
        // B1/A1 land on [8, 12] while step 0 computes: 4 of the 16
        // port-busy seconds overlap computation.
        assert!((a.overlap_fraction - 0.25).abs() < 1e-12);
    }

    #[test]
    fn memory_violation_is_detected() {
        // Capacity 5: C load (4 blocks) + first B fragment (2) overflows.
        let sim = Simulator::new(one_worker(1.0, 1.0, 5));
        let mut p = Script::new(full_script(demo_descr(), 0));
        let err = sim.run(&mut p).unwrap_err();
        assert!(
            matches!(
                err,
                SimError::MemoryViolation {
                    worker: 0,
                    capacity: 5,
                    attempted: 6,
                    ..
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn deadlock_detected_when_operands_never_arrive() {
        let descr = demo_descr();
        // Send C only, then wait forever.
        let sim = Simulator::new(one_worker(1.0, 1.0, 100));
        let mut p = Script::new(vec![
            Action::Send {
                worker: 0,
                fragment: Fragment::c_load(&descr),
                new_chunk: Some(descr),
            },
            Action::Wait,
            Action::Wait,
        ]);
        let err = sim.run(&mut p).unwrap_err();
        assert!(
            matches!(
                err,
                SimError::Deadlock {
                    unretrieved_chunks: 1,
                    ..
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn blocked_retrieve_of_starved_chunk_is_deadlock() {
        let descr = demo_descr();
        let sim = Simulator::new(one_worker(1.0, 1.0, 100));
        let mut p = Script::new(vec![
            Action::Send {
                worker: 0,
                fragment: Fragment::c_load(&descr),
                new_chunk: Some(descr),
            },
            Action::Retrieve {
                worker: 0,
                chunk: 0,
            },
        ]);
        let err = sim.run(&mut p).unwrap_err();
        assert!(matches!(err, SimError::Deadlock { .. }), "{err}");
    }

    #[test]
    fn premature_finish_is_rejected() {
        let descr = demo_descr();
        let sim = Simulator::new(one_worker(1.0, 1.0, 100));
        let mut p = Script::new(vec![Action::Send {
            worker: 0,
            fragment: Fragment::c_load(&descr),
            new_chunk: Some(descr),
        }]);
        let err = sim.run(&mut p).unwrap_err();
        assert!(
            matches!(
                err,
                SimError::PrematureFinish {
                    unretrieved_chunks: 1
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn duplicate_chunk_id_is_protocol_error() {
        let descr = demo_descr();
        let sim = Simulator::new(one_worker(1.0, 1.0, 100));
        let open = Action::Send {
            worker: 0,
            fragment: Fragment::c_load(&descr),
            new_chunk: Some(descr),
        };
        let mut p = Script::new(vec![open, open]);
        let err = sim.run(&mut p).unwrap_err();
        assert!(matches!(err, SimError::Protocol(_)), "{err}");
    }

    #[test]
    fn over_delivery_is_protocol_error() {
        let descr = demo_descr();
        let sim = Simulator::new(one_worker(1.0, 1.0, 100));
        let mut p = Script::new(vec![
            Action::Send {
                worker: 0,
                fragment: Fragment::c_load(&descr),
                new_chunk: Some(descr),
            },
            Action::Send {
                worker: 0,
                fragment: Fragment::a_step(&descr, 0),
                new_chunk: None,
            },
            Action::Send {
                worker: 0,
                fragment: Fragment::a_step(&descr, 0),
                new_chunk: None,
            },
        ]);
        let err = sim.run(&mut p).unwrap_err();
        assert!(matches!(err, SimError::Protocol(_)), "{err}");
    }

    #[test]
    fn fragment_to_wrong_worker_is_protocol_error() {
        let descr = demo_descr();
        let platform = Platform::new(
            "two",
            vec![
                WorkerSpec::new(1.0, 1.0, 100),
                WorkerSpec::new(1.0, 1.0, 100),
            ],
        );
        let sim = Simulator::new(platform);
        let mut p = Script::new(vec![
            Action::Send {
                worker: 0,
                fragment: Fragment::c_load(&descr),
                new_chunk: Some(descr),
            },
            Action::Send {
                worker: 1,
                fragment: Fragment::b_step(&descr, 0),
                new_chunk: None,
            },
        ]);
        let err = sim.run(&mut p).unwrap_err();
        assert!(matches!(err, SimError::Protocol(_)), "{err}");
    }

    #[test]
    fn two_workers_compute_in_parallel() {
        // Two identical workers, one chunk each. Communication serializes
        // through the port but computation overlaps, so the makespan is
        // far below 2× the single-worker time.
        let platform = Platform::new(
            "two",
            vec![
                WorkerSpec::new(0.1, 10.0, 100),
                WorkerSpec::new(0.1, 10.0, 100),
            ],
        );
        let sim = Simulator::new(platform);
        let d0 = demo_descr();
        let d1 = ChunkDescr { id: 1, ..d0 };
        let mut script = Vec::new();
        for (w, d) in [(0usize, d0), (1usize, d1)] {
            script.push(Action::Send {
                worker: w,
                fragment: Fragment::c_load(&d),
                new_chunk: Some(d),
            });
            for s in 0..d.steps {
                script.push(Action::Send {
                    worker: w,
                    fragment: Fragment::b_step(&d, s),
                    new_chunk: None,
                });
                script.push(Action::Send {
                    worker: w,
                    fragment: Fragment::a_step(&d, s),
                    new_chunk: None,
                });
            }
        }
        script.push(Action::Retrieve {
            worker: 0,
            chunk: 0,
        });
        script.push(Action::Retrieve {
            worker: 1,
            chunk: 1,
        });
        let mut p = Script::new(script);
        let stats = sim.run(&mut p).unwrap();
        assert_eq!(stats.enrolled(), 2);
        assert_eq!(stats.total_updates, 16);
        // Sequential compute alone would be 2 chunks × 2 steps × 40 = 160;
        // parallel overlap must be well under that.
        assert!(stats.makespan < 130.0, "{}", stats.makespan);
    }

    #[test]
    fn empty_script_finishes_immediately() {
        let sim = Simulator::new(one_worker(1.0, 1.0, 10));
        let mut p = Script::new(vec![]);
        let stats = sim.run(&mut p).unwrap();
        assert_eq!(stats.makespan, 0.0);
        assert_eq!(stats.chunks, 0);
    }

    #[test]
    fn event_cap_is_reported_as_such() {
        let sim = Simulator::new(one_worker(1.0, 1.0, 100)).with_max_events(2);
        let mut p = Script::new(full_script(demo_descr(), 0));
        let err = sim.run(&mut p).unwrap_err();
        assert!(
            matches!(err, SimError::EventCapExceeded { cap: 2 }),
            "{err}"
        );
        assert!(err.to_string().contains("event cap"), "{err}");
    }

    #[test]
    fn simulator_clones_run_identically() {
        let sim = Simulator::new(one_worker(1.0, 1.0, 100));
        let twin = sim.clone();
        let (s1, t1) = record(&sim, &mut Script::new(full_script(demo_descr(), 0)));
        let (s2, t2) = record(&twin, &mut Script::new(full_script(demo_descr(), 0)));
        assert_eq!(s1, s2);
        assert_eq!(t1, t2);
    }

    // ------------------------------------------------------------------
    // Dynamic-platform semantics.
    // ------------------------------------------------------------------

    use stargemm_platform::dynamic::{DynProfile, Trace, WorkerDyn};

    /// A [`Script`] that also records every hook event.
    struct Recorder {
        inner: Script,
        events: Vec<SimEvent>,
    }

    impl Recorder {
        fn new(actions: Vec<Action>) -> Self {
            Recorder {
                inner: Script::new(actions),
                events: Vec::new(),
            }
        }
    }

    impl MasterPolicy for Recorder {
        fn next_action(&mut self, ctx: &SimCtx) -> Action {
            self.inner.next_action(ctx)
        }

        fn on_event(&mut self, ev: &SimEvent, _ctx: &SimCtx) {
            self.events.push(*ev);
        }

        fn name(&self) -> &'static str {
            "recorder"
        }
    }

    #[test]
    fn constant_profile_reproduces_the_static_schedule() {
        let stats_static = Simulator::new(one_worker(1.0, 1.0, 100))
            .run(&mut Script::new(full_script(demo_descr(), 0)))
            .unwrap();
        let stats_dyn = Simulator::new(one_worker(1.0, 1.0, 100))
            .with_profile(DynProfile::constant(1))
            .run(&mut Script::new(full_script(demo_descr(), 0)))
            .unwrap();
        assert_eq!(stats_static, stats_dyn);
    }

    #[test]
    fn trace_scaled_transfer_times_are_integrated_exactly() {
        // Link cost doubles at t = 2: the 4-block C load (4 nominal
        // seconds from t = 0) runs 2 s at ×1 then 2 nominal seconds at
        // ×2 → finishes at 6, not 4.
        let profile = DynProfile::new(vec![WorkerDyn::new(
            Trace::new(vec![(0.0, 1.0), (2.0, 2.0)]),
            Trace::default(),
            vec![],
        )]);
        let descr = demo_descr();
        let sim = Simulator::new(one_worker(1.0, 1e-9, 100)).with_profile(profile);
        let mut p = Script::new(full_script(descr, 0));
        let (_, events) = record(&sim, &mut p);
        let (start, end) = send_of(&events, MatTag::C, 0, 0);
        assert_eq!(start, 0.0);
        assert!((end - 6.0).abs() < 1e-9, "{end}");
    }

    #[test]
    fn compute_times_follow_the_w_scale_trace() {
        // One 1-step chunk of 4 updates; w = 1 but the CPU degrades ×3
        // from t = 100 on. Operands arrive well before 100 (c = 1e-3),
        // compute starts ~0 and finishes ~4 ≪ 100 — then re-run with the
        // degradation from t = 0: compute takes 12 s.
        let descr = ChunkDescr {
            id: 0,
            c_blocks: 1,
            steps: 1,
            a_blocks_per_step: 1,
            b_blocks_per_step: 1,
            updates_per_step: 4,
            tail: None,
        };
        let mk = |deg_from: f64| {
            DynProfile::new(vec![WorkerDyn::new(
                Trace::default(),
                Trace::new(vec![(0.0, 1.0), (deg_from, 3.0)]),
                vec![],
            )])
        };
        let run = |profile| {
            Simulator::new(one_worker(1e-3, 1.0, 100))
                .with_profile(profile)
                .run(&mut Script::new(full_script(descr, 0)))
                .unwrap()
        };
        let fast = run(mk(100.0));
        let slow = run(mk(1e-6));
        assert!((slow.makespan - fast.makespan - 8.0).abs() < 1e-6);
    }

    #[test]
    fn crash_loses_resident_chunks_and_releases_memory() {
        // Worker crashes at t = 5, mid C-load of a second... simpler:
        // after the full single-chunk program started computing. The
        // chunk is lost, the policy is told, and Finished succeeds with
        // nothing retrieved.
        let descr = demo_descr();
        let profile = DynProfile::new(vec![WorkerDyn::new(
            Trace::default(),
            Trace::default(),
            vec![(5.0, f64::INFINITY)],
        )]);
        // C load [0,4] lands, B0 is in flight [4,6] when the crash hits
        // at t = 5: the chunk is lost, the B0 blocks are dropped, and a
        // crash-aware policy stops feeding the chunk and finishes.
        let actions = vec![
            Action::Send {
                worker: 0,
                fragment: Fragment::c_load(&descr),
                new_chunk: Some(descr),
            },
            Action::Send {
                worker: 0,
                fragment: Fragment::b_step(&descr, 0),
                new_chunk: None,
            },
        ];
        let sim = Simulator::new(one_worker(1.0, 1.0, 100)).with_profile(profile);
        let mut p = Recorder::new(actions);
        let stats = sim.run(&mut p).unwrap();
        assert_eq!(stats.chunks, 0);
        assert!(p
            .events
            .iter()
            .any(|e| matches!(e, SimEvent::WorkerDown { worker: 0 })));
        assert!(p
            .events
            .iter()
            .any(|e| matches!(e, SimEvent::ChunkLost { chunk: 0, .. })));
        // No update of the lost chunk survives into the statistics once
        // the crash happened; blocks sent before the crash stay counted.
        assert!(stats.blocks_to_workers > 0);
        assert_eq!(stats.blocks_to_master, 0);
    }

    #[test]
    fn crash_cancels_in_flight_compute_steps() {
        // Fast transfers, slow compute: step0 fires around t ≈ 0.012 and
        // would finish at t ≈ 40; the crash at t = 5 cancels it in the
        // kernel, so no StepDone hook ever reaches the policy and no
        // updates are credited.
        let descr = ChunkDescr {
            id: 0,
            c_blocks: 1,
            steps: 1,
            a_blocks_per_step: 1,
            b_blocks_per_step: 1,
            updates_per_step: 4,
            tail: None,
        };
        let profile = DynProfile::new(vec![WorkerDyn::new(
            Trace::default(),
            Trace::default(),
            vec![(5.0, f64::INFINITY)],
        )]);
        let sim = Simulator::new(one_worker(1e-3, 10.0, 100)).with_profile(profile);
        let mut p = Recorder::new(full_script(descr, 0));
        // The blocked retrieval is released by the crash and the run
        // finishes with nothing retrieved.
        let stats = sim.run(&mut p).unwrap();
        assert_eq!(stats.chunks, 0);
        assert_eq!(stats.total_updates, 0);
        assert!(!p
            .events
            .iter()
            .any(|e| matches!(e, SimEvent::StepDone { .. })));
        assert!(p
            .events
            .iter()
            .any(|e| matches!(e, SimEvent::ChunkLost { chunk: 0, .. })));
    }

    #[test]
    fn blocked_retrieval_is_released_by_the_crash() {
        // Retrieve is issued before the operands ever arrive, so the
        // master blocks; the crash at t = 5 destroys the chunk and must
        // unblock the master instead of deadlocking it.
        let descr = demo_descr();
        let profile = DynProfile::new(vec![WorkerDyn::new(
            Trace::default(),
            Trace::default(),
            vec![(5.0, f64::INFINITY)],
        )]);
        let sim = Simulator::new(one_worker(1.0, 1.0, 100)).with_profile(profile);
        let mut p = Recorder::new(vec![
            Action::Send {
                worker: 0,
                fragment: Fragment::c_load(&descr),
                new_chunk: Some(descr),
            },
            Action::Retrieve {
                worker: 0,
                chunk: 0,
            },
        ]);
        let stats = sim.run(&mut p).unwrap();
        assert_eq!(stats.chunks, 0);
        assert!(p
            .events
            .iter()
            .any(|e| matches!(e, SimEvent::ChunkLost { chunk: 0, .. })));
    }

    #[test]
    fn sends_to_a_downed_worker_are_dropped_on_arrival() {
        // Worker is down from t = 0 for ever: the C load opens the chunk
        // dead on arrival; memory stays empty.
        let descr = demo_descr();
        let profile = DynProfile::new(vec![WorkerDyn::new(
            Trace::default(),
            Trace::default(),
            vec![(0.0, f64::INFINITY)],
        )]);
        let sim = Simulator::new(one_worker(1.0, 1.0, 100)).with_profile(profile);
        let mut p = Recorder::new(vec![Action::Send {
            worker: 0,
            fragment: Fragment::c_load(&descr),
            new_chunk: Some(descr),
        }]);
        let stats = sim.run(&mut p).unwrap();
        assert!(p
            .events
            .iter()
            .any(|e| matches!(e, SimEvent::ChunkLost { chunk: 0, .. })));
        assert_eq!(stats.per_worker[0].mem_high_water, 0);
    }

    #[test]
    fn rejoined_worker_accepts_new_work() {
        // Down on [0, 3): a chunk opened at t = 3+ completes normally.
        let descr = demo_descr();
        let profile = DynProfile::new(vec![WorkerDyn::new(
            Trace::default(),
            Trace::default(),
            vec![(0.0, 3.0)],
        )]);
        // Wait out the downtime (each Wait consumes one event — the
        // rejoin), then run the full program.
        let mut actions = vec![Action::Wait];
        actions.extend(full_script(descr, 0));
        let sim = Simulator::new(one_worker(1.0, 1.0, 100)).with_profile(profile);
        let mut p = Recorder::new(actions);
        let stats = sim.run(&mut p).unwrap();
        assert_eq!(stats.chunks, 1);
        assert_eq!(stats.total_updates, descr.total_updates());
        assert!(p
            .events
            .iter()
            .any(|e| matches!(e, SimEvent::WorkerUp { worker: 0 })));
        // Everything shifted 3 s late: makespan 20 → 23.
        assert!((stats.makespan - 23.0).abs() < 1e-9, "{}", stats.makespan);
    }

    // ------------------------------------------------------------------
    // Network-contention models.
    // ------------------------------------------------------------------

    use stargemm_netmodel::NetModelSpec;

    /// Runs a [`Script`], then waits until every issued retrieval has
    /// completed before declaring `Finished`. Under concurrent-transfer
    /// models the master is asked for actions while retrievals are still
    /// in flight, so the naive script would finish prematurely — real
    /// policies gate `Finished` on their own bookkeeping exactly like
    /// this.
    struct Patient {
        inner: Script,
        retrieves: usize,
        seen: usize,
    }

    impl Patient {
        fn new(actions: Vec<Action>) -> Self {
            let retrieves = actions
                .iter()
                .filter(|a| matches!(a, Action::Retrieve { .. }))
                .count();
            Patient {
                inner: Script::new(actions),
                retrieves,
                seen: 0,
            }
        }
    }

    impl MasterPolicy for Patient {
        fn next_action(&mut self, ctx: &SimCtx) -> Action {
            if self.inner.next < self.inner.actions.len() {
                self.inner.next_action(ctx)
            } else if self.seen < self.retrieves {
                Action::Wait
            } else {
                Action::Finished
            }
        }

        fn on_event(&mut self, ev: &SimEvent, _ctx: &SimCtx) {
            if matches!(ev, SimEvent::RetrieveDone { .. }) {
                self.seen += 1;
            }
        }

        fn name(&self) -> &'static str {
            "patient"
        }
    }

    /// Two one-chunk programs on two identical workers: both C loads
    /// back to back, then (after `pause` waits) the operand fragments
    /// interleaved across the workers, then both retrievals.
    fn two_worker_script(pause: usize) -> (Platform, Vec<Action>) {
        let platform = Platform::new(
            "nm-two",
            vec![
                WorkerSpec::new(1.0, 1e-9, 100),
                WorkerSpec::new(1.0, 1e-9, 100),
            ],
        );
        let d0 = demo_descr();
        let d1 = ChunkDescr { id: 1, ..d0 };
        let mut script = Vec::new();
        for (w, d) in [(0usize, d0), (1usize, d1)] {
            script.push(Action::Send {
                worker: w,
                fragment: Fragment::c_load(&d),
                new_chunk: Some(d),
            });
        }
        script.extend(std::iter::repeat_n(Action::Wait, pause));
        for s in 0..d0.steps {
            // Alternate workers per fragment so concurrent lanes land on
            // disjoint links.
            for (w, d) in [(0usize, d0), (1usize, d1)] {
                script.push(Action::Send {
                    worker: w,
                    fragment: Fragment::b_step(&d, s),
                    new_chunk: None,
                });
            }
            for (w, d) in [(0usize, d0), (1usize, d1)] {
                script.push(Action::Send {
                    worker: w,
                    fragment: Fragment::a_step(&d, s),
                    new_chunk: None,
                });
            }
        }
        script.push(Action::Retrieve {
            worker: 0,
            chunk: 0,
        });
        script.push(Action::Retrieve {
            worker: 1,
            chunk: 1,
        });
        (platform, script)
    }

    #[test]
    fn multiport_overlaps_transfers_and_beats_oneport() {
        let (platform, script) = two_worker_script(0);
        let run = |spec: NetModelSpec| {
            Simulator::new(platform.clone())
                .with_netmodel(spec)
                .run(&mut Patient::new(script.clone()))
                .unwrap()
        };
        let op = run(NetModelSpec::OnePort);
        let mp = run(NetModelSpec::BoundedMultiPort {
            k: 2,
            backbone: None,
        });
        // Two disjoint links, two ports: traffic to worker 0 and worker 1
        // moves in parallel, roughly halving the serialized wire time.
        assert!(
            mp.makespan < op.makespan * 0.6,
            "multiport {} vs oneport {}",
            mp.makespan,
            op.makespan
        );
        // Same data moved either way.
        assert_eq!(op.blocks_to_workers, mp.blocks_to_workers);
        assert_eq!(op.blocks_to_master, mp.blocks_to_master);
        assert_eq!(op.chunks, mp.chunks);
    }

    #[test]
    fn fairshare_backbone_throttle_is_integrated_exactly() {
        // Both 4-block C loads start at t = 0 under fair share; the
        // backbone (1 block/s against two 1 block/s links) grants each
        // share 0.5, so both finish at t = 8 exactly. The two pauses
        // keep the operand fragments off the wire until then.
        let (platform, script) = two_worker_script(2);
        let sim = Simulator::new(platform).with_netmodel(NetModelSpec::FairShare { backbone: 1.0 });
        let (_, events) = record(&sim, &mut Patient::new(script));
        for chunk in [0, 1] {
            let (start, end) = send_of(&events, MatTag::C, chunk, 0);
            assert_eq!(start, 0.0, "chunk {chunk}");
            assert!((end - 8.0).abs() < 1e-9, "chunk {chunk}: {end}");
        }
    }

    #[test]
    fn reshare_speeds_up_the_survivor_when_a_transfer_finishes() {
        // A 4-block and a 2-block C load share a backbone of 1 from
        // t = 0 (share 0.5 each). The short one finishes at t = 4; the
        // long one then has 2 nominal seconds left, re-shares to 1.0,
        // and finishes at 6 — not its original projection of 8.
        let platform = Platform::new(
            "nm-reshare",
            vec![
                WorkerSpec::new(1.0, 1e-9, 100),
                WorkerSpec::new(1.0, 1e-9, 100),
            ],
        );
        let d0 = ChunkDescr {
            id: 0,
            c_blocks: 4,
            steps: 1,
            a_blocks_per_step: 1,
            b_blocks_per_step: 1,
            updates_per_step: 1,
            tail: None,
        };
        let d1 = ChunkDescr {
            id: 1,
            c_blocks: 2,
            ..d0
        };
        let mut script = vec![
            Action::Send {
                worker: 0,
                fragment: Fragment::c_load(&d0),
                new_chunk: Some(d0),
            },
            Action::Send {
                worker: 1,
                fragment: Fragment::c_load(&d1),
                new_chunk: Some(d1),
            },
            Action::Wait,
            Action::Wait,
        ];
        for (w, d) in [(0usize, d0), (1usize, d1)] {
            script.push(Action::Send {
                worker: w,
                fragment: Fragment::b_step(&d, 0),
                new_chunk: None,
            });
            script.push(Action::Send {
                worker: w,
                fragment: Fragment::a_step(&d, 0),
                new_chunk: None,
            });
        }
        script.push(Action::Retrieve {
            worker: 0,
            chunk: 0,
        });
        script.push(Action::Retrieve {
            worker: 1,
            chunk: 1,
        });
        let sim = Simulator::new(platform).with_netmodel(NetModelSpec::FairShare { backbone: 1.0 });
        let (_, events) = record(&sim, &mut Patient::new(script));
        assert_eq!(send_of(&events, MatTag::C, 0, 0), (0.0, 6.0));
        assert_eq!(send_of(&events, MatTag::C, 1, 0), (0.0, 4.0));
    }

    #[test]
    fn multiport_k1_is_bitwise_oneport() {
        let (platform, script) = two_worker_script(0);
        let op = record(
            &Simulator::new(platform.clone()),
            &mut Patient::new(script.clone()),
        );
        let k1 = record(
            &Simulator::new(platform).with_netmodel(NetModelSpec::BoundedMultiPort {
                k: 1,
                backbone: None,
            }),
            &mut Patient::new(script),
        );
        assert_eq!(op, k1);
    }

    #[test]
    fn same_link_transfers_share_their_link_under_fairshare() {
        // The C load (4 blocks) and step-0 B (2 blocks) go to the same
        // worker concurrently: its link caps their joint rate, so the
        // pair still takes 6 link seconds (B at share 0.5 ends at 4, C
        // re-shares to full speed and ends at 6).
        let descr = demo_descr();
        let mut script = vec![
            Action::Send {
                worker: 0,
                fragment: Fragment::c_load(&descr),
                new_chunk: Some(descr),
            },
            Action::Send {
                worker: 0,
                fragment: Fragment::b_step(&descr, 0),
                new_chunk: None,
            },
            Action::Wait,
            Action::Wait,
        ];
        script.push(Action::Send {
            worker: 0,
            fragment: Fragment::a_step(&descr, 0),
            new_chunk: None,
        });
        script.push(Action::Send {
            worker: 0,
            fragment: Fragment::b_step(&descr, 1),
            new_chunk: None,
        });
        script.push(Action::Send {
            worker: 0,
            fragment: Fragment::a_step(&descr, 1),
            new_chunk: None,
        });
        script.push(Action::Retrieve {
            worker: 0,
            chunk: 0,
        });
        let sim = Simulator::new(one_worker(1.0, 1e-9, 100))
            .with_netmodel(NetModelSpec::FairShare { backbone: 100.0 });
        let (_, events) = record(&sim, &mut Patient::new(script));
        assert_eq!(send_of(&events, MatTag::C, 0, 0), (0.0, 6.0));
        assert_eq!(send_of(&events, MatTag::B, 0, 0), (0.0, 4.0));
    }

    #[test]
    fn netmodel_composes_with_dynamic_cost_traces() {
        // Fair-share throttles the lone transfer to share 0.5 (backbone
        // 0.5 against a 1 block/s link); the cost trace doubles the cost
        // from t = 4. The 4-block load serves 2 nominal seconds on
        // [0, 4]; the remaining 2 at scale 2 and share 0.5 take 8 more
        // seconds ⇒ end at 12.
        let profile = DynProfile::new(vec![WorkerDyn::new(
            Trace::new(vec![(0.0, 1.0), (4.0, 2.0)]),
            Trace::default(),
            vec![],
        )]);
        let descr = demo_descr();
        let mut script = vec![
            Action::Send {
                worker: 0,
                fragment: Fragment::c_load(&descr),
                new_chunk: Some(descr),
            },
            Action::Wait,
        ];
        for s in 0..descr.steps {
            script.push(Action::Send {
                worker: 0,
                fragment: Fragment::b_step(&descr, s),
                new_chunk: None,
            });
            script.push(Action::Send {
                worker: 0,
                fragment: Fragment::a_step(&descr, s),
                new_chunk: None,
            });
        }
        script.push(Action::Retrieve {
            worker: 0,
            chunk: 0,
        });
        let sim = Simulator::new(one_worker(1.0, 1e-9, 100))
            .with_profile(profile)
            .with_netmodel(NetModelSpec::FairShare { backbone: 0.5 });
        let (_, events) = record(&sim, &mut Patient::new(script));
        assert_eq!(send_of(&events, MatTag::C, 0, 0), (0.0, 12.0));
    }

    // ------------------------------------------------------------------
    // Multi-job stream semantics.
    // ------------------------------------------------------------------

    #[test]
    fn job_arrivals_and_completions_are_recorded() {
        // Job 7 arrives at t = 3; the policy runs the one-chunk program
        // and declares the job done right after the retrieval at t = 23
        // (arrival fired mid-transfer: C load runs [0, 4]).
        let descr = demo_descr();
        let mut actions = full_script(descr, 0);
        actions.push(Action::CompleteJob { job: 7 });
        let sim = Simulator::new(one_worker(1.0, 1.0, 100)).with_arrivals(vec![(3.0, 7)]);
        let mut p = Recorder::new(actions);
        let stats = sim.run(&mut p).unwrap();
        assert_eq!(stats.jobs.len(), 1);
        let js = stats.jobs[0];
        assert_eq!(js.job, 7);
        assert!((js.arrival - 3.0).abs() < 1e-12);
        // Single chunk finishes at t = 20 (see one_chunk_timing_is_exact);
        // completion is declared at the next decision instant.
        assert_eq!(js.completion, Some(stats.makespan));
        assert!((js.response_time().unwrap() - 17.0).abs() < 1e-9);
        assert!(p
            .events
            .iter()
            .any(|e| matches!(e, SimEvent::JobArrived { job: 7 })));
        assert!(p
            .events
            .iter()
            .any(|e| matches!(e, SimEvent::JobCompleted { job: 7 })));
    }

    #[test]
    fn unfinished_jobs_report_no_completion() {
        let sim = Simulator::new(one_worker(1.0, 1.0, 100)).with_arrivals(vec![(1.0, 0)]);
        // The policy ignores the job entirely and finishes at once.
        let stats = sim.run(&mut Script::new(vec![])).unwrap();
        // The arrival never delivered (non-work events don't keep the
        // run alive), so no record exists — the job never entered.
        assert!(stats.jobs.is_empty());

        // When the policy waits past the arrival, the record exists but
        // stays open.
        let sim = Simulator::new(one_worker(1.0, 1.0, 100)).with_arrivals(vec![(1.0, 0)]);
        let stats = sim.run(&mut Script::new(vec![Action::Wait])).unwrap();
        assert_eq!(stats.jobs.len(), 1);
        assert_eq!(stats.jobs[0].completion, None);
    }

    #[test]
    fn completing_an_unknown_or_finished_job_is_a_protocol_error() {
        let sim = Simulator::new(one_worker(1.0, 1.0, 100));
        let err = sim
            .run(&mut Script::new(vec![Action::CompleteJob { job: 9 }]))
            .unwrap_err();
        assert!(matches!(err, SimError::Protocol(_)), "{err}");

        let sim = Simulator::new(one_worker(1.0, 1.0, 100)).with_arrivals(vec![(0.0, 9)]);
        let err = sim
            .run(&mut Script::new(vec![
                Action::Wait, // deliver the arrival
                Action::CompleteJob { job: 9 },
                Action::CompleteJob { job: 9 },
            ]))
            .unwrap_err();
        assert!(matches!(err, SimError::Protocol(_)), "{err}");
    }

    #[test]
    #[should_panic(expected = "duplicate arrival")]
    fn duplicate_job_arrivals_are_rejected_up_front() {
        let _ = Simulator::new(one_worker(1.0, 1.0, 100)).with_arrivals(vec![(0.0, 1), (2.0, 1)]);
    }

    #[test]
    fn retrieval_of_a_lost_chunk_is_a_protocol_error() {
        let descr = demo_descr();
        let profile = DynProfile::new(vec![WorkerDyn::new(
            Trace::default(),
            Trace::default(),
            vec![(0.0, f64::INFINITY)],
        )]);
        let sim = Simulator::new(one_worker(1.0, 1.0, 100)).with_profile(profile);
        let mut p = Script::new(vec![
            Action::Send {
                worker: 0,
                fragment: Fragment::c_load(&descr),
                new_chunk: Some(descr),
            },
            Action::Retrieve {
                worker: 0,
                chunk: 0,
            },
        ]);
        let err = sim.run(&mut p).unwrap_err();
        assert!(matches!(err, SimError::Protocol(_)), "{err}");
    }
}
