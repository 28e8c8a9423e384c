//! The `Recorder` trait and the `ObsSink` handle the engines thread
//! through their hot paths.
//!
//! Zero-cost guarantee: a detached sink is `ObsSink(None)`; emitting
//! through it is one `Option` branch and the event-constructing closure
//! never runs. An attached recorder can only *observe* — nothing in the
//! engines reads recorder state — so attaching one cannot perturb a
//! schedule (pinned by workspace proptests comparing `RunStats` and
//! the policy-visible callback log recorder-on vs recorder-off).

use std::cell::RefCell;
use std::rc::Rc;

use crate::event::{ObsEvent, KIND_NAMES};
use crate::metrics::{Histogram, MetricsRegistry};
use crate::span::{spans, Track};

/// A consumer of structured observability events.
pub trait Recorder {
    /// Accepts one event. Called in engine order: event times are
    /// non-decreasing per emitting engine.
    fn record(&mut self, ev: ObsEvent);
}

/// Shared handle to an optional recorder.
///
/// Cloning the handle shares the underlying recorder (`Rc`), which is
/// what lets one recorder observe the engine, the stream master and its
/// member DAG masters in a single run. The handle is deliberately
/// `!Send`: recording is a per-run, single-threaded concern, so the
/// engines take it as a *run parameter*, never storing it in their
/// `Send + Sync` configuration types.
#[derive(Clone, Default)]
pub struct ObsSink(Option<Rc<RefCell<dyn Recorder>>>);

impl ObsSink {
    /// The detached sink: every emit is a single `None` branch.
    pub fn off() -> ObsSink {
        ObsSink(None)
    }

    /// A sink feeding `recorder`.
    pub fn to(recorder: Rc<RefCell<dyn Recorder>>) -> ObsSink {
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
            r.borrow_mut().record(f());
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

/// The standard in-memory recorder: keeps the full event log.
///
/// Recording is a push; the [`MetricsRegistry`] is derived from the log
/// once, by [`RunRecorder::into_parts`] — one pass over the events and
/// one over their [`spans`], allocating per registry key, not per
/// sample:
///
/// * `events.<kind>` counters for every event kind;
/// * `port.transfer_secs` histogram of lane occupancy intervals;
/// * `compute.step_secs` histogram of completed step durations;
/// * `dag.frontier_width` histogram sampled at each promotion;
/// * `jobs.active` gauge (admitted minus completed).
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

    /// Consumes the recorder, returning `(events, metrics)`.
    pub fn into_parts(self) -> (Vec<ObsEvent>, MetricsRegistry) {
        // Derived per event with no string in sight: kinds are counted
        // by variant index and the histograms filled as locals; every
        // key is built once, below.
        let mut kinds = [0u64; KIND_NAMES.len()];
        let mut frontier_width = Histogram::new();
        let mut active_jobs: Option<i64> = None;
        for ev in &self.events {
            kinds[ev.kind_index()] += 1;
            match ev {
                ObsEvent::FrontierPromote {
                    frontier_width: w, ..
                } => {
                    frontier_width.observe(*w as f64);
                }
                ObsEvent::JobAdmitted { .. } => active_jobs = Some(active_jobs.unwrap_or(0) + 1),
                ObsEvent::JobCompleted { .. } => active_jobs = Some(active_jobs.unwrap_or(0) - 1),
                _ => {}
            }
        }
        let mut transfer_secs = Histogram::new();
        let mut step_secs = Histogram::new();
        for span in spans(&self.events) {
            let h = match span.track {
                Track::Port { .. } => &mut transfer_secs,
                Track::Compute { .. } => &mut step_secs,
                _ => continue,
            };
            if let Some(end) = span.end {
                h.observe(end - span.start);
            }
        }

        let mut metrics = MetricsRegistry::new();
        for (kind, &n) in KIND_NAMES.iter().zip(&kinds) {
            if n > 0 {
                metrics.add(&format!("events.{kind}"), n);
            }
        }
        if let Some(active) = active_jobs {
            metrics.set("jobs.active", active as f64);
        }
        metrics.insert_histogram("dag.frontier_width", frontier_width);
        metrics.insert_histogram("port.transfer_secs", transfer_secs);
        metrics.insert_histogram("compute.step_secs", step_secs);
        (self.events, metrics)
    }
}

impl Recorder for RunRecorder {
    fn record(&mut self, ev: ObsEvent) {
        self.events.push(ev);
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
    fn attached_sink_records_and_derives_metrics() {
        let rec = RunRecorder::shared();
        let sink = ObsSink::to(rec.clone());
        assert!(sink.is_on());
        sink.emit(|| ObsEvent::PortAcquire {
            time: 1.0,
            lane: 0,
            worker: 2,
            dir: Dir::ToWorker,
            chunk: 7,
            blocks: 3,
        });
        sink.emit(|| ObsEvent::PortRelease {
            time: 2.5,
            lane: 0,
            worker: 2,
            dir: Dir::ToWorker,
            chunk: 7,
            blocks: 3,
        });
        sink.emit(|| ObsEvent::ComputeStart {
            time: 2.5,
            worker: 2,
            chunk: 7,
            step: 0,
            updates: 12,
        });
        sink.emit(|| ObsEvent::ComputeEnd {
            time: 4.0,
            worker: 2,
            chunk: 7,
            step: 0,
        });
        drop(sink);
        let rec = Rc::try_unwrap(rec).ok().expect("sole owner").into_inner();
        assert_eq!(rec.events().len(), 4);
        let (_, m) = rec.into_parts();
        assert_eq!(m.counter("events.port_acquire"), 1);
        let h = m.histogram("port.transfer_secs").unwrap();
        assert_eq!(h.count(), 1);
        assert!((h.sum() - 1.5).abs() < 1e-12);
        let h = m.histogram("compute.step_secs").unwrap();
        assert!((h.sum() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn clones_share_one_recorder() {
        let rec = RunRecorder::shared();
        let a = ObsSink::to(rec.clone());
        let b = a.clone();
        a.emit(|| ObsEvent::JobArrived { time: 0.0, job: 1 });
        b.emit(|| ObsEvent::JobAdmitted { time: 0.0, job: 1 });
        assert_eq!(rec.borrow().events().len(), 2);
        drop((a, b));
        let (_, m) = Rc::try_unwrap(rec)
            .ok()
            .expect("sole owner")
            .into_inner()
            .into_parts();
        assert_eq!(m.gauge("jobs.active"), Some(1.0));
    }
}
