//! The one pairing pass: an event log in, intervals out.
//!
//! Every downstream view of a recorded run — the Perfetto export, the
//! makespan attribution, the ASCII Gantt and the overlap analysis — is
//! a function of the *intervals* the begin/end events delimit. [`spans`]
//! pairs the log once, and decides in one place what an interval is:
//!
//! * a track is keyed by the identity its events share — contention
//!   lane, `(worker, chunk, step)`, `(star, job)`, job or worker id;
//! * a begin on a key that is still open **replaces** the open entry
//!   (the earlier begin never produced an interval);
//! * an end with no open begin is ignored;
//! * an interval that never closes — a compute step cancelled by a
//!   crash, a transfer in flight when the log stops — is kept with
//!   `end: None`, so each reader states its own policy for it (the
//!   exporters drop it, the attribution bounds it by the crash).
//!
//! Closed spans come out in closing order, open ones after them. The
//! event schema stores indices as `u32`; a [`Track`] widens them back to
//! the `usize` the views index with.

use crate::event::{Dir, MatTag, ObsEvent};

/// Which resource a [`Span`] occupied, with the identity of the work.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Track {
    /// A transfer on contention lane `lane` of the master's port.
    /// `dispatch` is the `(operand, step)` of the [`ObsEvent::Dispatch`]
    /// both engines emit at the same instant as a to-worker acquire; a
    /// retrieval has none.
    Port {
        lane: usize,
        worker: usize,
        dir: Dir,
        chunk: u32,
        blocks: u64,
        dispatch: Option<(MatTag, u32)>,
    },
    /// A compute step on a worker.
    Compute {
        worker: usize,
        chunk: u32,
        step: u32,
        updates: u64,
    },
    /// A federated uplink shipment of `job`'s operands to star `star`.
    Uplink { star: usize, job: u32, blocks: u64 },
    /// Admission or promotion of `job` blocked on worker memory.
    MemoryStall { job: u32 },
    /// Worker downtime, crash to rejoin.
    Down { worker: usize },
    /// A job's presence in the system, arrival to completion.
    Job { job: u32 },
}

/// One interval of a recorded run (model seconds).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Span {
    pub start: f64,
    /// `None` when the log holds no matching end event.
    pub end: Option<f64>,
    pub track: Track,
}

/// The open intervals of one track kind, keyed by track identity.
struct Open<K>(Vec<(K, Span)>);

impl<K: PartialEq> Open<K> {
    fn begin(&mut self, key: K, start: f64, track: Track) {
        self.0.retain(|(k, _)| *k != key);
        let span = Span {
            start,
            end: None,
            track,
        };
        self.0.push((key, span));
    }

    fn end(&mut self, key: K, time: f64, out: &mut Vec<Span>) {
        if let Some(pos) = self.0.iter().position(|(k, _)| *k == key) {
            let (_, mut span) = self.0.swap_remove(pos);
            span.end = Some(time);
            out.push(span);
        }
    }

    fn drain_into(self, out: &mut Vec<Span>) {
        out.extend(self.0.into_iter().map(|(_, span)| span));
    }
}

/// Pairs the begin/end events of `events` into [`Span`]s (see the
/// module docs for the pairing rules). Events must be in emission
/// order, as a recorder keeps them.
pub fn spans(events: &[ObsEvent]) -> Vec<Span> {
    let mut out = Vec::with_capacity(events.len() / 2);
    let mut lanes = Open(Vec::new());
    let mut steps = Open(Vec::new());
    let mut uplinks = Open(Vec::new());
    let mut stalls = Open(Vec::new());
    let mut downs = Open(Vec::new());
    let mut jobs = Open(Vec::new());
    // The dispatch decision still waiting for its transfer's admission.
    let mut dispatched: Option<(f64, u32, u32, MatTag, u32)> = None;

    for ev in events {
        match *ev {
            ObsEvent::Dispatch {
                time,
                worker,
                chunk,
                step,
                mat,
                ..
            } => dispatched = Some((time, worker, chunk, mat, step)),
            ObsEvent::PortAcquire {
                time,
                lane,
                worker,
                dir,
                chunk,
                blocks,
            } => {
                let dispatch = match (dir, dispatched) {
                    (Dir::ToWorker, Some((t, w, c, mat, step)))
                        if (t, w, c) == (time, worker, chunk) =>
                    {
                        dispatched = None;
                        Some((mat, step))
                    }
                    _ => None,
                };
                let track = Track::Port {
                    lane: lane as usize,
                    worker: worker as usize,
                    dir,
                    chunk,
                    blocks,
                    dispatch,
                };
                lanes.begin(lane, time, track);
            }
            ObsEvent::PortRelease { time, lane, .. } => lanes.end(lane, time, &mut out),
            ObsEvent::ComputeStart {
                time,
                worker,
                chunk,
                step,
                updates,
            } => {
                let track = Track::Compute {
                    worker: worker as usize,
                    chunk,
                    step,
                    updates,
                };
                steps.begin((worker, chunk, step), time, track);
            }
            ObsEvent::ComputeEnd {
                time,
                worker,
                chunk,
                step,
            } => steps.end((worker, chunk, step), time, &mut out),
            ObsEvent::UplinkAcquire {
                time,
                star,
                job,
                blocks,
            } => {
                let track = Track::Uplink {
                    star: star as usize,
                    job,
                    blocks,
                };
                uplinks.begin((star, job), time, track);
            }
            ObsEvent::UplinkRelease {
                time, star, job, ..
            } => uplinks.end((star, job), time, &mut out),
            ObsEvent::MemoryStallBegin { time, job } => {
                stalls.begin(job, time, Track::MemoryStall { job });
            }
            ObsEvent::MemoryStallEnd { time, job } => stalls.end(job, time, &mut out),
            ObsEvent::WorkerDown { time, worker } => {
                let track = Track::Down {
                    worker: worker as usize,
                };
                downs.begin(worker, time, track);
            }
            ObsEvent::WorkerUp { time, worker } => downs.end(worker, time, &mut out),
            ObsEvent::JobArrived { time, job } => jobs.begin(job, time, Track::Job { job }),
            ObsEvent::JobCompleted { time, job } => jobs.end(job, time, &mut out),
            ObsEvent::LpResolve { .. }
            | ObsEvent::DeficitCredit { .. }
            | ObsEvent::FrontierPromote { .. }
            | ObsEvent::ChunkLost { .. }
            | ObsEvent::JobAdmitted { .. } => {}
        }
    }

    lanes.drain_into(&mut out);
    steps.drain_into(&mut out);
    uplinks.drain_into(&mut out);
    stalls.drain_into(&mut out);
    downs.drain_into(&mut out);
    jobs.drain_into(&mut out);
    out
}

#[cfg(test)]
pub(crate) mod testlog {
    //! Event-pair builders shared by this crate's unit tests.
    use super::*;

    pub fn acquire(time: f64, lane: u32, worker: u32, dir: Dir, chunk: u32) -> ObsEvent {
        ObsEvent::PortAcquire {
            time,
            lane,
            worker,
            dir,
            chunk,
            blocks: 1,
        }
    }

    pub fn release(time: f64, lane: u32, worker: u32, dir: Dir, chunk: u32) -> ObsEvent {
        ObsEvent::PortRelease {
            time,
            lane,
            worker,
            dir,
            chunk,
            blocks: 1,
        }
    }

    /// A to-worker transfer `[t0, t1)` on `lane`.
    pub fn port(t0: f64, t1: f64, lane: u32, worker: u32, chunk: u32) -> [ObsEvent; 2] {
        [
            acquire(t0, lane, worker, Dir::ToWorker, chunk),
            release(t1, lane, worker, Dir::ToWorker, chunk),
        ]
    }

    pub fn start(time: f64, worker: u32, chunk: u32, step: u32) -> ObsEvent {
        ObsEvent::ComputeStart {
            time,
            worker,
            chunk,
            step,
            updates: 1,
        }
    }

    pub fn finish(time: f64, worker: u32, chunk: u32, step: u32) -> ObsEvent {
        ObsEvent::ComputeEnd {
            time,
            worker,
            chunk,
            step,
        }
    }

    /// Step 0 of `chunk` computing over `[t0, t1)`.
    pub fn compute(t0: f64, t1: f64, worker: u32, chunk: u32) -> [ObsEvent; 2] {
        [start(t0, worker, chunk, 0), finish(t1, worker, chunk, 0)]
    }
}

#[cfg(test)]
mod tests {
    use super::testlog::*;
    use super::*;
    use Dir::{ToMaster, ToWorker};

    fn port_track(lane: usize, worker: usize, dir: Dir, chunk: u32) -> Track {
        Track::Port {
            lane,
            worker,
            dir,
            chunk,
            blocks: 1,
            dispatch: None,
        }
    }

    fn step_track(worker: usize, chunk: u32, step: u32) -> Track {
        Track::Compute {
            worker,
            chunk,
            step,
            updates: 1,
        }
    }

    fn uplink(time: f64, star: u32, job: u32, begin: bool) -> ObsEvent {
        let blocks = 4;
        if begin {
            ObsEvent::UplinkAcquire {
                time,
                star,
                job,
                blocks,
            }
        } else {
            ObsEvent::UplinkRelease {
                time,
                star,
                job,
                blocks,
            }
        }
    }

    fn uplink_track(star: usize, job: u32) -> Track {
        Track::Uplink {
            star,
            job,
            blocks: 4,
        }
    }

    fn span(start: f64, end: Option<f64>, track: Track) -> Span {
        Span { start, end, track }
    }

    #[test]
    fn pairing_rules() {
        let (down, up, lost) = (
            |time, worker| ObsEvent::WorkerDown { time, worker },
            |time, worker| ObsEvent::WorkerUp { time, worker },
            |time, worker, chunk| ObsEvent::ChunkLost {
                time,
                worker,
                chunk,
            },
        );
        let dispatched_b2 = Track::Port {
            lane: 0,
            worker: 3,
            dir: ToWorker,
            chunk: 9,
            blocks: 1,
            dispatch: Some((MatTag::B, 2)),
        };
        let cases: Vec<(&str, Vec<ObsEvent>, Vec<Span>)> = vec![
            (
                "a re-acquire on a held lane replaces the open entry",
                vec![
                    acquire(0.0, 0, 1, ToWorker, 7),
                    acquire(2.0, 0, 2, ToWorker, 8),
                    release(3.0, 0, 2, ToWorker, 8),
                ],
                vec![span(2.0, Some(3.0), port_track(0, 2, ToWorker, 8))],
            ),
            (
                "compute starts fired FIFO ahead of their ends pair by (worker, chunk, step)",
                vec![
                    start(1.0, 0, 5, 0),
                    start(3.0, 0, 5, 1),
                    start(1.0, 1, 5, 0),
                    finish(3.0, 0, 5, 0),
                    finish(4.0, 1, 5, 0),
                    finish(6.0, 0, 5, 1),
                ],
                vec![
                    span(1.0, Some(3.0), step_track(0, 5, 0)),
                    span(1.0, Some(4.0), step_track(1, 5, 0)),
                    span(3.0, Some(6.0), step_track(0, 5, 1)),
                ],
            ),
            (
                "a crash-cancelled step and an in-flight transfer stay open",
                vec![
                    start(1.0, 0, 2, 0),
                    acquire(1.5, 0, 0, ToWorker, 2),
                    down(2.0, 0),
                    lost(2.0, 0, 2),
                ],
                vec![
                    span(1.5, None, port_track(0, 0, ToWorker, 2)),
                    span(1.0, None, step_track(0, 2, 0)),
                    span(2.0, None, Track::Down { worker: 0 }),
                ],
            ),
            (
                "uplinks key by (star, job)",
                vec![
                    uplink(0.0, 0, 1, true),
                    uplink(0.0, 1, 1, true),
                    uplink(0.5, 0, 2, true),
                    uplink(2.0, 1, 1, false),
                    uplink(3.0, 0, 1, false),
                    uplink(4.0, 0, 2, false),
                ],
                vec![
                    span(0.0, Some(2.0), uplink_track(1, 1)),
                    span(0.0, Some(3.0), uplink_track(0, 1)),
                    span(0.5, Some(4.0), uplink_track(0, 2)),
                ],
            ),
            (
                "a to-worker span carries its dispatch, a retrieval carries none",
                vec![
                    ObsEvent::Dispatch {
                        time: 0.0,
                        worker: 3,
                        chunk: 9,
                        step: 2,
                        mat: MatTag::B,
                        blocks: 1,
                    },
                    acquire(0.0, 0, 3, ToWorker, 9),
                    release(1.0, 0, 3, ToWorker, 9),
                    acquire(1.0, 0, 3, ToMaster, 9),
                    release(2.0, 0, 3, ToMaster, 9),
                ],
                vec![
                    span(0.0, Some(1.0), dispatched_b2),
                    span(1.0, Some(2.0), port_track(0, 3, ToMaster, 9)),
                ],
            ),
            (
                "stalls, downtime and jobs pair by id; a stray end is ignored",
                vec![
                    ObsEvent::JobArrived { time: 0.0, job: 4 },
                    ObsEvent::MemoryStallEnd { time: 0.5, job: 4 },
                    ObsEvent::MemoryStallBegin { time: 1.0, job: 4 },
                    down(1.0, 2),
                    ObsEvent::MemoryStallEnd { time: 2.0, job: 4 },
                    up(3.0, 2),
                    ObsEvent::JobCompleted { time: 5.0, job: 4 },
                ],
                vec![
                    span(1.0, Some(2.0), Track::MemoryStall { job: 4 }),
                    span(1.0, Some(3.0), Track::Down { worker: 2 }),
                    span(0.0, Some(5.0), Track::Job { job: 4 }),
                ],
            ),
        ];
        for (name, events, want) in cases {
            assert_eq!(spans(&events), want, "{name}");
        }
    }
}
