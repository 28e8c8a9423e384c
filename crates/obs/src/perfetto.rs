//! Chrome/Perfetto `trace_event` export of a recorded event log.
//!
//! The exported JSON loads directly in <https://ui.perfetto.dev> (or
//! `chrome://tracing`). Track layout:
//!
//! * **process 1 — `port`**: one thread per contention lane; every
//!   admitted transfer is a duration event (`ph: "X"`) named
//!   `send`/`recv` with worker/chunk/blocks args.
//! * **process 2 — `workers`**: three threads per worker — `send`,
//!   `recv` (wire occupancy from that worker's perspective) and `cpu`
//!   (compute steps).
//! * **process 3 — `jobs`**: one thread per job; a span from arrival to
//!   completion (stream/DAG runs only).
//! * **process 4 — `master`**: instant events (`ph: "i"`) for every
//!   scheduling decision — dispatch, LP re-solve, deficit credit,
//!   frontier promotion, crash/recovery, admission.
//!
//! Times are model seconds scaled to microseconds (`ts`/`dur`).
//! Intervals left open at the end of the log (e.g. a compute step
//! cancelled by a crash) are dropped, mirroring engine cancellation
//! semantics; pairing itself is [`spans`]' job.

use serde::json::Value;
use serde::Serialize;

use crate::event::{Dir, ObsEvent};
use crate::span::{spans, Track};

const PORT_PID: u64 = 1;
const WORKER_PID: u64 = 2;
const JOB_PID: u64 = 3;
const MASTER_PID: u64 = 4;
const UPLINK_PID: u64 = 5;

fn us(t: f64) -> f64 {
    t * 1e6
}

/// One complete duration event.
fn span(pid: u64, tid: u64, name: String, start: f64, end: f64, args: Value) -> Value {
    Value::object([
        ("name", Value::String(name)),
        ("ph", "X".to_value()),
        ("pid", pid.to_value()),
        ("tid", tid.to_value()),
        ("ts", us(start).to_value()),
        ("dur", us(end - start).to_value()),
        ("args", args),
    ])
}

/// One instant event on the master decisions track.
fn instant(name: String, t: f64, args: Value) -> Value {
    Value::object([
        ("name", Value::String(name)),
        ("ph", "i".to_value()),
        ("s", "t".to_value()),
        ("pid", MASTER_PID.to_value()),
        ("tid", 1u64.to_value()),
        ("ts", us(t).to_value()),
        ("args", args),
    ])
}

/// `process_name` / `thread_name` metadata event.
fn meta(pid: u64, tid: Option<u64>, name: &str) -> Value {
    let mut fields = vec![
        (
            "name".to_string(),
            if tid.is_some() {
                "thread_name".to_value()
            } else {
                "process_name".to_value()
            },
        ),
        ("ph".to_string(), "M".to_value()),
        ("pid".to_string(), pid.to_value()),
    ];
    if let Some(tid) = tid {
        fields.push(("tid".to_string(), tid.to_value()));
    }
    fields.push((
        "args".to_string(),
        Value::object([("name", name.to_value())]),
    ));
    Value::Object(fields)
}

fn worker_tid(worker: usize, dir: Option<Dir>) -> u64 {
    3 * worker as u64
        + match dir {
            Some(Dir::ToWorker) => 1,
            Some(Dir::ToMaster) => 2,
            None => 3, // cpu
        }
}

/// Converts a recorded event log into a Perfetto/Chrome `trace_event`
/// JSON document: duration events from [`spans`], track names and
/// instants from the events themselves.
pub fn perfetto_trace(events: &[ObsEvent]) -> Value {
    let mut metas: Vec<Value> = vec![
        meta(PORT_PID, None, "port"),
        meta(WORKER_PID, None, "workers"),
        meta(MASTER_PID, None, "master"),
        meta(MASTER_PID, Some(1), "decisions"),
    ];
    let mut out: Vec<Value> = Vec::new();

    for s in spans(events) {
        let Some(end) = s.end else { continue };
        match s.track {
            Track::Port {
                lane,
                worker,
                dir,
                chunk,
                blocks,
                ..
            } => {
                let args = Value::object([
                    ("worker", worker.to_value()),
                    ("chunk", chunk.to_value()),
                    ("blocks", blocks.to_value()),
                ]);
                let name = format!("{} w{worker} c{chunk}", dir.label());
                // Same interval on the port-lane track and on the
                // worker's directional comm track.
                out.push(span(
                    PORT_PID,
                    lane as u64 + 1,
                    name.clone(),
                    s.start,
                    end,
                    args.clone(),
                ));
                out.push(span(
                    WORKER_PID,
                    worker_tid(worker, Some(dir)),
                    name,
                    s.start,
                    end,
                    args,
                ));
            }
            Track::Compute {
                worker,
                chunk,
                step,
                ..
            } => out.push(span(
                WORKER_PID,
                worker_tid(worker, None),
                format!("c{chunk} s{step}"),
                s.start,
                end,
                Value::object([("chunk", chunk.to_value()), ("step", step.to_value())]),
            )),
            Track::Uplink { star, job, blocks } => out.push(span(
                UPLINK_PID,
                star as u64 + 1,
                format!("feed j{job}"),
                s.start,
                end,
                Value::object([("job", job.to_value()), ("blocks", blocks.to_value())]),
            )),
            Track::Job { job } => out.push(span(
                JOB_PID,
                job as u64 + 1,
                format!("job {job}"),
                s.start,
                end,
                Value::object([("job", job.to_value())]),
            )),
            // Stalls and downtime are exported as their begin/end
            // instants only.
            Track::MemoryStall { .. } | Track::Down { .. } => {}
        }
    }

    let mut seen_lane: Vec<usize> = Vec::new();
    let mut seen_worker: Vec<usize> = Vec::new();
    let mut seen_job: Vec<u32> = Vec::new();
    let mut seen_star: Vec<usize> = Vec::new();
    let mut note_worker = |w: usize, metas: &mut Vec<Value>| {
        if !seen_worker.contains(&w) {
            seen_worker.push(w);
            for (dir, label) in [
                (Some(Dir::ToWorker), "send"),
                (Some(Dir::ToMaster), "recv"),
                (None, "cpu"),
            ] {
                let tid = worker_tid(w, dir);
                metas.push(meta(WORKER_PID, Some(tid), &format!("w{w} {label}")));
            }
        }
    };
    for ev in events {
        match ev {
            ObsEvent::PortAcquire { lane, worker, .. } => {
                if !seen_lane.contains(lane) {
                    seen_lane.push(*lane);
                    let tid = *lane as u64 + 1;
                    metas.push(meta(PORT_PID, Some(tid), &format!("lane {lane}")));
                }
                note_worker(*worker, &mut metas);
            }
            ObsEvent::PortRelease { worker, .. } | ObsEvent::ComputeStart { worker, .. } => {
                note_worker(*worker, &mut metas);
            }
            ObsEvent::JobArrived { job, .. } if !seen_job.contains(job) => {
                if seen_job.is_empty() {
                    metas.push(meta(JOB_PID, None, "jobs"));
                }
                seen_job.push(*job);
                metas.push(meta(JOB_PID, Some(*job as u64 + 1), &format!("job {job}")));
            }
            ObsEvent::UplinkAcquire { star, .. } if !seen_star.contains(star) => {
                if seen_star.is_empty() {
                    metas.push(meta(UPLINK_PID, None, "uplinks"));
                }
                seen_star.push(*star);
                let tid = *star as u64 + 1;
                metas.push(meta(UPLINK_PID, Some(tid), &format!("star {star}")));
            }
            _ => {}
        }
        if let Some((name, args)) = decision(ev) {
            out.push(instant(name, ev.time(), args));
        }
    }

    metas.extend(out);
    Value::object([
        ("traceEvents", Value::Array(metas)),
        ("displayTimeUnit", "ms".to_value()),
    ])
}

/// Name and args of the instant an event puts on the master decisions
/// track; `None` for the events that only open or close an interval.
fn decision(ev: &ObsEvent) -> Option<(String, Value)> {
    let job_args = |job: &u32| Value::object([("job", job.to_value())]);
    let worker_args = |worker: &usize| Value::object([("worker", worker.to_value())]);
    Some(match ev {
        ObsEvent::Dispatch {
            worker,
            chunk,
            step,
            mat,
            blocks,
            ..
        } => (
            format!("dispatch {} w{worker}", mat.label()),
            Value::object([
                ("worker", worker.to_value()),
                ("chunk", chunk.to_value()),
                ("step", step.to_value()),
                ("mat", mat.label().to_value()),
                ("blocks", blocks.to_value()),
            ]),
        ),
        ObsEvent::LpResolve { jobs, shares, .. } => (
            "lp_resolve".to_string(),
            Value::object([
                (
                    "jobs",
                    Value::Array(jobs.iter().map(|j| j.to_value()).collect()),
                ),
                (
                    "shares",
                    Value::Array(shares.iter().map(|s| s.to_value()).collect()),
                ),
            ]),
        ),
        ObsEvent::DeficitCredit {
            job, port_seconds, ..
        } => (
            "deficit_credit".to_string(),
            Value::object([
                ("job", job.to_value()),
                ("port_seconds", port_seconds.to_value()),
            ]),
        ),
        ObsEvent::FrontierPromote {
            job,
            task,
            worker,
            frontier_width,
            ..
        } => (
            format!("promote j{job} t{task}"),
            Value::object([
                ("job", job.to_value()),
                ("task", task.to_value()),
                ("worker", worker.to_value()),
                ("frontier_width", frontier_width.to_value()),
            ]),
        ),
        ObsEvent::WorkerDown { worker, .. } => {
            (format!("worker_down w{worker}"), worker_args(worker))
        }
        ObsEvent::WorkerUp { worker, .. } => (format!("worker_up w{worker}"), worker_args(worker)),
        ObsEvent::ChunkLost { worker, chunk, .. } => (
            format!("chunk_lost c{chunk}"),
            Value::object([("worker", worker.to_value()), ("chunk", chunk.to_value())]),
        ),
        ObsEvent::MemoryStallBegin { job, .. } => {
            (format!("memory_stall_begin j{job}"), job_args(job))
        }
        ObsEvent::MemoryStallEnd { job, .. } => (format!("memory_stall_end j{job}"), job_args(job)),
        ObsEvent::JobAdmitted { job, .. } => ("job_admitted".to_string(), job_args(job)),
        ObsEvent::JobCompleted { job, .. } => ("job_completed".to_string(), job_args(job)),
        ObsEvent::PortAcquire { .. }
        | ObsEvent::PortRelease { .. }
        | ObsEvent::ComputeStart { .. }
        | ObsEvent::ComputeEnd { .. }
        | ObsEvent::UplinkAcquire { .. }
        | ObsEvent::UplinkRelease { .. }
        | ObsEvent::JobArrived { .. } => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn export_builds_port_worker_and_job_tracks() {
        let events = vec![
            ObsEvent::JobArrived { time: 0.0, job: 3 },
            ObsEvent::PortAcquire {
                time: 0.0,
                lane: 0,
                worker: 1,
                dir: Dir::ToWorker,
                chunk: 9,
                blocks: 4,
            },
            ObsEvent::PortRelease {
                time: 0.8,
                lane: 0,
                worker: 1,
                dir: Dir::ToWorker,
                chunk: 9,
                blocks: 4,
            },
            ObsEvent::ComputeStart {
                time: 0.8,
                worker: 1,
                chunk: 9,
                step: 0,
                updates: 8,
            },
            ObsEvent::ComputeEnd {
                time: 2.0,
                worker: 1,
                chunk: 9,
                step: 0,
            },
            ObsEvent::JobCompleted { time: 2.0, job: 3 },
        ];
        let doc = perfetto_trace(&events);
        let rendered = doc.render();
        assert!(rendered.contains("\"traceEvents\""));
        assert!(rendered.contains("\"process_name\""));
        assert!(rendered.contains("\"lane 0\""));
        assert!(rendered.contains("\"w1 cpu\""));
        assert!(rendered.contains("\"job 3\""));
        assert!(rendered.contains("\"send w1 c9\""));
        // Interval durations are in microseconds.
        assert!(rendered.contains("\"dur\":800000"));
    }

    #[test]
    fn unclosed_intervals_are_dropped() {
        let events = vec![ObsEvent::ComputeStart {
            time: 1.0,
            worker: 0,
            chunk: 1,
            step: 0,
            updates: 2,
        }];
        let doc = perfetto_trace(&events);
        assert!(!doc.render().contains("\"ph\":\"X\""));
    }
}
