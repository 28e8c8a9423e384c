//! The in-memory [`RunRecorder`] and the `ObsSink` handle the engines
//! thread through their hot paths.
//!
//! Zero-cost guarantee: a detached sink is `ObsSink(None)`; emitting
//! through it is one `Option` branch and the event-constructing closure
//! never runs. An attached sink pushes the event onto its recorder's log
//! inline — one 32-byte push, no dynamic call. A recorder can only
//! *observe* — nothing in the engines reads recorder state — so
//! attaching one cannot perturb a schedule (pinned by workspace
//! proptests comparing `RunStats` and the policy-visible callback log
//! recorder-on vs recorder-off).

use std::cell::RefCell;
use std::rc::Rc;

use crate::event::ObsEvent;

/// Shared handle to an optional recorder.
///
/// Cloning the handle shares the underlying recorder (`Rc`), which is
/// what lets one recorder observe the engine, the stream master and its
/// member DAG masters in a single run. The handle is deliberately
/// `!Send`: recording is a per-run, single-threaded concern, so the
/// engines take it as a *run parameter*, never storing it in their
/// `Send + Sync` configuration types.
#[derive(Clone, Default)]
pub struct ObsSink(Option<Rc<RefCell<RunRecorder>>>);

impl ObsSink {
    /// The detached sink: every emit is a single `None` branch.
    pub fn off() -> ObsSink {
        ObsSink(None)
    }

    /// A sink feeding `recorder`.
    pub fn to(recorder: Rc<RefCell<RunRecorder>>) -> ObsSink {
        ObsSink(Some(recorder))
    }

    /// Whether a recorder is attached.
    pub fn is_on(&self) -> bool {
        self.0.is_some()
    }

    /// Emits the event built by `f` — which is only evaluated when a
    /// recorder is attached.
    #[inline]
    pub fn emit(&self, f: impl FnOnce() -> ObsEvent) {
        if let Some(r) = &self.0 {
            r.borrow_mut().events.push(f());
        }
    }
}

impl std::fmt::Debug for ObsSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(if self.is_on() {
            "ObsSink(on)"
        } else {
            "ObsSink(off)"
        })
    }
}

/// The in-memory recorder: keeps the full event log, in emission order
/// (event times are non-decreasing per emitting engine).
///
/// Recording is a push and nothing else; every summary of the run
/// ([`crate::spans`], [`crate::Attribution`], [`crate::perfetto_trace`])
/// is a view its reader derives from the log on demand.
#[derive(Default)]
pub struct RunRecorder {
    events: Vec<ObsEvent>,
}

impl RunRecorder {
    /// An empty recorder.
    pub fn new() -> RunRecorder {
        RunRecorder::default()
    }

    /// Wraps a fresh recorder for sharing between an engine and its
    /// policies; pair with [`ObsSink::to`].
    pub fn shared() -> Rc<RefCell<RunRecorder>> {
        Rc::new(RefCell::new(RunRecorder::new()))
    }

    /// The recorded event log, in emission order.
    pub fn events(&self) -> &[ObsEvent] {
        &self.events
    }

    /// Consumes the recorder and hands its log back unread (a one-tuple:
    /// callers, the repository benchmark among them, take `into_parts().0`).
    pub fn into_parts(self) -> (Vec<ObsEvent>,) {
        (self.events,)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Dir;

    #[test]
    fn detached_sink_never_runs_the_constructor() {
        let sink = ObsSink::off();
        assert!(!sink.is_on());
        sink.emit(|| unreachable!("constructor ran on a detached sink"));
    }

    #[test]
    fn attached_sink_records_in_emission_order() {
        let rec = RunRecorder::shared();
        let sink = ObsSink::to(rec.clone());
        assert!(sink.is_on());
        let log = [
            ObsEvent::PortAcquire {
                time: 1.0,
                lane: 0,
                worker: 2,
                dir: Dir::ToWorker,
                chunk: 7,
                blocks: 3,
            },
            ObsEvent::PortRelease {
                time: 2.5,
                lane: 0,
                worker: 2,
                dir: Dir::ToWorker,
                chunk: 7,
                blocks: 3,
            },
            ObsEvent::ComputeStart {
                time: 2.5,
                worker: 2,
                chunk: 7,
                step: 0,
                updates: 12,
            },
            ObsEvent::ComputeEnd {
                time: 4.0,
                worker: 2,
                chunk: 7,
                step: 0,
            },
        ];
        for ev in &log {
            sink.emit(|| ev.clone());
        }
        drop(sink);
        let rec = Rc::try_unwrap(rec).ok().expect("sole owner").into_inner();
        assert_eq!(rec.events(), log);
        assert_eq!(rec.into_parts().0, log);
    }

    #[test]
    fn clones_share_one_recorder() {
        let rec = RunRecorder::shared();
        let a = ObsSink::to(rec.clone());
        let b = a.clone();
        a.emit(|| ObsEvent::JobArrived { time: 0.0, job: 1 });
        b.emit(|| ObsEvent::JobAdmitted { time: 0.0, job: 1 });
        drop((a, b));
        assert_eq!(
            rec.borrow().events(),
            [
                ObsEvent::JobArrived { time: 0.0, job: 1 },
                ObsEvent::JobAdmitted { time: 0.0, job: 1 },
            ]
        );
    }
}
