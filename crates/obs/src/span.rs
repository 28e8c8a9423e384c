//! The one pairing pass: an event log in, intervals out.
//!
//! Every downstream view of a recorded run — the Perfetto export, the
//! makespan attribution and its overlap figure, the ASCII Gantt — is
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
//! Closed spans come out in closing order, open ones after them, kind
//! by kind, each kind in key order (jobs in the order of their first
//! stall or presence event). The open tables are keyed, so a begin or
//! an end costs O(1) however many lanes or jobs are open. The
//! attribution reads the same pass ([`pair`]) without building the span
//! list. The event schema stores indices as `u32`; a [`Track`] widens
//! them back to `usize`.

use std::collections::HashMap;

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

/// No node: the end of a list, or an index with nothing open.
const NONE: u32 = u32::MAX;

/// An open entry: its key — a dense index (a lane, worker or star, or a
/// job's number) and the rest `S` — the position of the next entry of
/// its index, and its span's start and track.
#[derive(Clone, Copy)]
struct Node<S> {
    index: u32,
    sub: S,
    next: u32,
    start: f64,
    track: Track,
}

/// The open intervals of one track kind. Each index heads a list of its
/// entries, so a begin or an end walks one index's list (one entry, or a
/// worker's few steps in flight) however many are open elsewhere.
#[derive(Default)]
struct Open<S> {
    heads: Vec<u32>,
    live: Vec<Node<S>>,
}

impl<S: Copy + Ord> Open<S> {
    /// The position of the entry `(index, sub)` (or `NONE`) and of the
    /// one before it in its list (`NONE` at the head).
    fn find(&self, index: u32, sub: S) -> (u32, u32) {
        let mut at = (NONE, *self.heads.get(index as usize).unwrap_or(&NONE));
        while at.1 != NONE && self.live[at.1 as usize].sub != sub {
            at = (at.1, self.live[at.1 as usize].next);
        }
        at
    }

    /// Points the link after `prev` (the head of `index` for `NONE`) at `to`.
    fn link(&mut self, index: u32, prev: u32, to: u32) {
        match prev {
            NONE => self.heads[index as usize] = to,
            prev => self.live[prev as usize].next = to,
        }
    }

    // Inlined, so the caller's track is built in place, not stored and
    // reloaded wider (a store-forwarding stall per begin).
    #[inline(always)]
    fn begin(&mut self, index: u32, sub: S, start: f64, track: Track) {
        // A begin on an open key replaces its entry.
        self.end(index, sub, start, &mut |_| {});
        if index as usize >= self.heads.len() {
            self.heads.resize(index as usize + 1, NONE);
        }
        let next = std::mem::replace(&mut self.heads[index as usize], self.live.len() as u32);
        self.live.push(Node {
            index,
            sub,
            next,
            start,
            track,
        });
    }

    /// Hands `out` the span of `(index, sub)` closed at `time`; a stray
    /// end hands nothing. The last entry fills its place. Inlined, so
    /// each kind's reader sees its own, predictable, branch on the track.
    #[inline(always)]
    fn end(&mut self, index: u32, sub: S, time: f64, out: &mut impl FnMut(Span)) {
        let (prev, at) = self.find(index, sub);
        if at == NONE {
            return;
        }
        self.link(index, prev, self.live[at as usize].next);
        let last = &self.live[self.live.len() - 1];
        if at as usize != self.live.len() - 1 {
            let (last_index, last_sub) = (last.index, last.sub);
            let (last_prev, _) = self.find(last_index, last_sub);
            self.link(last_index, last_prev, at);
        }
        let Node { start, track, .. } = self.live.swap_remove(at as usize);
        let end = Some(time);
        out(Span { start, end, track });
    }

    /// The entries still open, by key.
    fn unclosed(&mut self) -> impl Iterator<Item = Span> + '_ {
        self.live
            .sort_unstable_by_key(|node| (node.index, node.sub));
        let (end, live) = (None, self.live.iter());
        live.map(move |&Node { start, track, .. }| Span { start, end, track })
    }
}

/// Pairs the begin/end events of `events` into [`Span`]s (see the
/// module docs for the pairing rules). Events must be in emission
/// order, as a recorder keeps them.
pub fn spans(events: &[ObsEvent]) -> Vec<Span> {
    let mut out = Vec::with_capacity(events.len() / 2);
    pair(events, |span| out.push(span));
    out
}

/// A log's crash facts in log order: the `(chunk, time)` of each
/// `ChunkLost` and the `(worker, time)` of each `WorkerDown`.
pub(crate) type CrashFacts = (Vec<(u32, f64)>, Vec<(usize, f64)>);

/// The pairing pass behind [`spans`]: hands `out` every span in the
/// order `spans` returns them, and returns the crash facts.
pub(crate) fn pair(events: &[ObsEvent], mut out: impl FnMut(Span)) -> CrashFacts {
    let (mut lanes, mut steps, mut uplinks) = (Open::default(), Open::default(), Open::default());
    let (mut stalls, mut downs, mut jobs) = (Open::default(), Open::default(), Open::default());
    let (mut losses, mut crashes) = (Vec::new(), Vec::new());
    // Engines number jobs freely; the stall and job tables index them by
    // their first stall or presence event.
    let mut numbers = HashMap::new();
    let mut number = |job: u32| {
        let next = numbers.len() as u32;
        *numbers.entry(job).or_insert(next)
    };
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
                lanes.begin(lane, (), time, track);
            }
            ObsEvent::PortRelease { time, lane, .. } => lanes.end(lane, (), time, &mut out),
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
                steps.begin(worker, (chunk, step), time, track);
            }
            ObsEvent::ComputeEnd {
                time,
                worker,
                chunk,
                step,
            } => steps.end(worker, (chunk, step), time, &mut out),
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
                uplinks.begin(star, job, time, track);
            }
            ObsEvent::UplinkRelease {
                time, star, job, ..
            } => uplinks.end(star, job, time, &mut out),
            ObsEvent::MemoryStallBegin { time, job } => {
                stalls.begin(number(job), (), time, Track::MemoryStall { job });
            }
            ObsEvent::MemoryStallEnd { time, job } => stalls.end(number(job), (), time, &mut out),
            ObsEvent::WorkerDown { time, worker } => {
                crashes.push((worker as usize, time));
                let track = Track::Down {
                    worker: worker as usize,
                };
                downs.begin(worker, (), time, track);
            }
            ObsEvent::WorkerUp { time, worker } => downs.end(worker, (), time, &mut out),
            ObsEvent::JobArrived { time, job } => {
                jobs.begin(number(job), (), time, Track::Job { job });
            }
            ObsEvent::JobCompleted { time, job } => jobs.end(number(job), (), time, &mut out),
            ObsEvent::ChunkLost { time, chunk, .. } => losses.push((chunk, time)),
            ObsEvent::LpResolve { .. }
            | ObsEvent::DeficitCredit { .. }
            | ObsEvent::FrontierPromote { .. }
            | ObsEvent::JobAdmitted { .. } => {}
        }
    }

    let unclosed = (lanes.unclosed())
        .chain(steps.unclosed())
        .chain(uplinks.unclosed())
        .chain(stalls.unclosed())
        .chain(downs.unclosed())
        .chain(jobs.unclosed());
    unclosed.for_each(out);
    (losses, crashes)
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
pub(crate) mod reference {
    //! The oracle for [`spans`](super::spans): the pairing through
    //! linear open tables (a scan per begin and per end, the span moved
    //! out on close) that the keyed tables replaced.
    use super::{Span, Track};
    use crate::event::{Dir, MatTag, ObsEvent};

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

    /// The pairing as it was before the keyed tables, kept unchanged.
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

    /// [`spans`] with its open tail in the keyed tables' order: kind by
    /// kind, each by key, a job ranked by its first stall or presence
    /// event.
    pub fn spans_in_key_order(events: &[ObsEvent]) -> Vec<Span> {
        let mut jobs = Vec::new();
        for ev in events {
            if let ObsEvent::MemoryStallBegin { job, .. }
            | ObsEvent::MemoryStallEnd { job, .. }
            | ObsEvent::JobArrived { job, .. }
            | ObsEvent::JobCompleted { job, .. } = *ev
            {
                if !jobs.contains(&job) {
                    jobs.push(job);
                }
            }
        }
        let rank = |job| jobs.iter().position(|&j| j == job).unwrap();
        let key = |span: &Span| match span.track {
            Track::Port { lane, .. } => (0, lane, 0, 0),
            Track::Compute {
                worker,
                chunk,
                step,
                ..
            } => (1, worker, chunk, step),
            Track::Uplink { star, job, .. } => (2, star, job, 0),
            Track::MemoryStall { job } => (3, rank(job), 0, 0),
            Track::Down { worker } => (4, worker, 0, 0),
            Track::Job { job } => (5, rank(job), 0, 0),
        };
        let mut out = spans(events);
        let closed = out.iter().take_while(|span| span.end.is_some()).count();
        out[closed..].sort_by_key(key);
        out
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
            assert_eq!(reference::spans(&events), want, "{name}: the oracle");
        }
    }

    /// One event of the soup alphabet: every kind the pairing reads or
    /// skips, keyed from three small draws so that re-begins on an open
    /// key, stray ends and dispatches meeting their acquire are common.
    /// Job ids sit at the top of the `u32` range: engines number jobs
    /// freely.
    fn soup_event(op: usize, tick: usize, a: u32, b: u32, c: u32) -> ObsEvent {
        let time = tick as f64 * 0.5;
        let (job, worker, star) = (u32::MAX - a, a, a);
        match op {
            0 => ObsEvent::Dispatch {
                time,
                worker: b,
                chunk: c,
                step: a,
                mat: [MatTag::A, MatTag::B, MatTag::C][a as usize % 3],
                blocks: 1,
            },
            1 => acquire(time, a, b, ToWorker, c),
            2 => acquire(time, a, b, ToMaster, c),
            3 => release(time, a, b, ToWorker, c),
            4 => start(time, a, b, c),
            5 => finish(time, a, b, c),
            6 => uplink(time, star, b, true),
            7 => uplink(time, star, b, false),
            8 => ObsEvent::MemoryStallBegin { time, job },
            9 => ObsEvent::MemoryStallEnd { time, job },
            10 => ObsEvent::WorkerDown { time, worker },
            11 => ObsEvent::WorkerUp { time, worker },
            12 => ObsEvent::JobArrived { time, job },
            13 => ObsEvent::JobCompleted { time, job },
            14 => ObsEvent::ChunkLost {
                time,
                worker,
                chunk: b,
            },
            _ => ObsEvent::JobAdmitted { time, job },
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        /// Random logs over a few keys per kind: the keyed tables give
        /// the linear tables' spans element for element, the closed ones
        /// in order and the unclosed ones in key order.
        #[test]
        fn keyed_tables_pair_like_the_linear_ones(
            ops in proptest::collection::vec(
                (0usize..16, 0usize..3, 0u32..3, 0u32..3, 0u32..2), 0..80),
        ) {
            let events: Vec<ObsEvent> = ops
                .iter()
                .map(|&(op, tick, a, b, c)| soup_event(op, tick, a, b, c))
                .collect();
            proptest::prop_assert_eq!(spans(&events), reference::spans_in_key_order(&events));
        }

        /// A wide star: every lane of hundreds acquired at once, then
        /// releases, re-acquires and steps across them — the case the
        /// linear tables scanned quadratically.
        #[test]
        fn hundreds_of_open_lanes_pair_like_the_linear_ones(
            lanes in 256u32..400,
            ops in proptest::collection::vec((0usize..4, 0u32..400, 0u32..3), 0..600),
        ) {
            let mut events: Vec<ObsEvent> = (0..lanes)
                .map(|lane| acquire(0.0, lane, lane % 17, ToWorker, lane))
                .collect();
            for (n, &(op, key, step)) in ops.iter().enumerate() {
                let (time, lane) = (1.0 + n as f64, key % lanes);
                events.push(match op {
                    0 | 1 => release(time, lane, lane % 17, ToWorker, lane),
                    2 => acquire(time, lane, lane % 17, ToMaster, lane),
                    _ if step == 0 => start(time, key % 17, key % 5, 0),
                    _ => finish(time, key % 17, key % 5, 0),
                });
            }
            proptest::prop_assert_eq!(spans(&events), reference::spans_in_key_order(&events));
        }
    }
}
