//! Perfetto export validity: the `--trace-out` artifact must load in
//! the Perfetto UI, so the exported JSON is parsed back with the
//! in-tree parser and checked structurally — legal `trace_event`
//! phases, spans that never overlap within one track, and intervals
//! that agree with a hand-derived schedule for the first chunk of a
//! pinned scenario and with `spans()` for all of it.

use std::rc::Rc;

use serde::json::{from_str, Value};
use stargemm::core::algorithms::{build_policy, Algorithm};
use stargemm::core::Job;
use stargemm::obs::{perfetto_trace, ObsEvent, ObsSink, RunRecorder, Track};
use stargemm::platform::{Platform, WorkerSpec};
use stargemm::sim::Simulator;
use stargemm::stream::{JobRequest, MultiJobMaster, StreamConfig};

/// The pinned scenario: Het on a two-worker heterogeneous star — small
/// enough to stay fast, big enough to exercise sends, retrieves and
/// overlapping compute.
fn pinned_gemm() -> (Platform, Job) {
    let platform = Platform::new(
        "perfetto-pin",
        vec![WorkerSpec::new(0.5, 0.5, 40), WorkerSpec::new(2.0, 1.0, 24)],
    );
    (platform, Job::new(4, 8, 8, 80))
}

/// Runs the pinned scenario under the recorder.
fn pinned_run() -> Vec<ObsEvent> {
    let (platform, job) = pinned_gemm();
    let mut policy = build_policy(&platform, &job, Algorithm::Het).unwrap();
    let rec = RunRecorder::shared();
    Simulator::new(platform)
        .run_observed(&mut policy, ObsSink::to(rec.clone()))
        .unwrap();
    let Ok(rec) = Rc::try_unwrap(rec) else {
        unreachable!("recorder has one owner after the run")
    };
    rec.into_inner().into_parts().0
}

/// All `ph: "X"` spans of a parsed document as `(pid, tid, ts, dur)`.
fn spans(doc: &Value) -> Vec<(u64, u64, f64, f64)> {
    doc.get("traceEvents")
        .and_then(Value::as_array)
        .expect("traceEvents array")
        .iter()
        .filter(|e| e.get("ph").and_then(Value::as_str) == Some("X"))
        .map(|e| {
            (
                e.get("pid").and_then(Value::as_u64).expect("pid"),
                e.get("tid").and_then(Value::as_u64).expect("tid"),
                e.get("ts").and_then(Value::as_f64).expect("ts"),
                e.get("dur").and_then(Value::as_f64).expect("dur"),
            )
        })
        .collect()
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-6 * a.abs().max(b.abs()).max(1.0)
}

#[test]
fn export_parses_back_with_legal_phases_and_named_tracks() {
    let events = pinned_run();
    let rendered = perfetto_trace(&events).render_pretty();
    let doc = from_str(&rendered).expect("exported JSON parses");
    assert_eq!(
        doc.get("displayTimeUnit").and_then(Value::as_str),
        Some("ms")
    );
    let evs = doc
        .get("traceEvents")
        .and_then(Value::as_array)
        .expect("traceEvents array");
    assert!(!evs.is_empty());
    let mut names = Vec::new();
    for e in evs {
        let ph = e
            .get("ph")
            .and_then(Value::as_str)
            .expect("every event has ph");
        assert!(
            matches!(ph, "M" | "i" | "X"),
            "illegal trace_event phase {ph:?}"
        );
        assert!(e.get("pid").and_then(Value::as_u64).is_some());
        match ph {
            "X" => {
                assert!(e.get("ts").and_then(Value::as_f64).is_some());
                assert!(e.get("dur").and_then(Value::as_f64).expect("dur") >= 0.0);
            }
            "i" => assert_eq!(e.get("s").and_then(Value::as_str), Some("t")),
            _ => {}
        }
        if ph == "M" {
            if let Some(n) = e
                .get("args")
                .and_then(|a| a.get("name"))
                .and_then(Value::as_str)
            {
                names.push(n.to_string());
            }
        }
    }
    for expected in [
        "port", "workers", "master", "lane 0", "w0 send", "w0 recv", "w0 cpu",
    ] {
        assert!(
            names.iter().any(|n| n == expected),
            "missing track name {expected:?} in {names:?}"
        );
    }
}

#[test]
fn spans_within_one_track_never_overlap() {
    let events = pinned_run();
    let doc = from_str(&perfetto_trace(&events).render_pretty()).unwrap();
    let mut by_track: std::collections::BTreeMap<(u64, u64), Vec<(f64, f64)>> =
        std::collections::BTreeMap::new();
    for (pid, tid, ts, dur) in spans(&doc) {
        by_track.entry((pid, tid)).or_default().push((ts, dur));
    }
    assert!(by_track.len() >= 3, "expected port + comm + cpu tracks");
    for ((pid, tid), mut track) in by_track {
        track.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for pair in track.windows(2) {
            let (ts0, dur0) = pair[0];
            let (ts1, _) = pair[1];
            assert!(
                ts0 + dur0 <= ts1 + 1e-6,
                "track pid={pid} tid={tid}: span [{ts0}, {}] overlaps the next at {ts1}",
                ts0 + dur0
            );
        }
    }
}

/// Sorted `(ts, dur)` pairs, for order-free comparison.
fn sorted(mut v: Vec<(f64, f64)>) -> Vec<(f64, f64)> {
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    v
}

fn assert_same_intervals(what: &str, got: &[(f64, f64)], want: &[(f64, f64)]) {
    assert_eq!(got.len(), want.len(), "{what} span count");
    for (g, w) in got.iter().zip(want) {
        assert!(
            close(g.0, w.0) && close(g.1, w.1),
            "{what} interval {g:?} vs expected {w:?}"
        );
    }
}

#[test]
fn exported_intervals_match_the_schedule() {
    let events = pinned_run();
    let doc = from_str(&perfetto_trace(&events).render_pretty()).unwrap();
    let all = spans(&doc);
    // Port occupancy is pid 1; compute is pid 2 on the cpu tids (≡ 0 mod 3).
    let port = sorted(
        all.iter()
            .filter(|(pid, ..)| *pid == 1)
            .map(|&(_, _, ts, dur)| (ts, dur))
            .collect(),
    );
    let cpu = sorted(
        all.iter()
            .filter(|(pid, tid, ..)| *pid == 2 && tid % 3 == 0)
            .map(|&(_, _, ts, dur)| (ts, dur))
            .collect(),
    );

    // The first chunk, by hand. Het enrolls only worker 0 (c = w = 0.5,
    // m = 40 ⇒ μ = 4): a 4×4 chunk of 16 C blocks, t = 8 steps of 4 B
    // blocks + 4 A blocks and 16 updates each. So the C load takes 8 s,
    // every operand fragment 2 s, every step 8 s. Two steps' operands
    // are buffered: B₀ A₀ B₁ A₁ go out back to back after the C load,
    // then each further B/A pair leaves as a step completes and frees
    // its buffers. Step k runs [12 + 8k, 20 + 8k]; the last ends at 76
    // and the 16-block retrieval fills [76, 84].
    let mut want_port = vec![(0.0, 8.0)];
    for k in 0..8 {
        let b = if k == 0 { 8.0 } else { 4.0 + 8.0 * k as f64 };
        want_port.extend([(b, 2.0), (b + 2.0, 2.0)]);
    }
    want_port.push((76.0, 8.0));
    let want_cpu: Vec<(f64, f64)> = (0..8).map(|k| (12.0 + 8.0 * k as f64, 8.0)).collect();
    let us = |v: Vec<(f64, f64)>| sorted(v.into_iter().map(|(s, d)| (s * 1e6, d * 1e6)).collect());
    let first_chunk = |v: &[(f64, f64)]| -> Vec<(f64, f64)> {
        v.iter().copied().filter(|&(ts, _)| ts < 84e6).collect()
    };
    assert_same_intervals("first-chunk port", &first_chunk(&port), &us(want_port));
    assert_same_intervals("first-chunk cpu", &first_chunk(&cpu), &us(want_cpu));

    // The whole run: exactly the closed spans of the one pairing pass.
    let mut span_port = Vec::new();
    let mut span_cpu = Vec::new();
    for s in stargemm::obs::spans(&events) {
        let interval = (
            s.start,
            s.end.expect("a static run closes every span") - s.start,
        );
        match s.track {
            Track::Port { .. } => span_port.push(interval),
            Track::Compute { .. } => span_cpu.push(interval),
            other => panic!("unexpected track in a static run: {other:?}"),
        }
    }
    assert_same_intervals("port", &port, &us(span_port));
    assert_same_intervals("cpu", &cpu, &us(span_cpu));
}

/// Stream runs add job lifecycle tracks: every admitted job gets a
/// `job N` span from arrival to completion, and the jobs process is
/// named.
#[test]
fn stream_export_carries_job_tracks() {
    let platform = Platform::new(
        "perfetto-stream",
        vec![WorkerSpec::new(0.2, 0.1, 80), WorkerSpec::new(0.4, 0.2, 60)],
    );
    let requests: Vec<JobRequest> = (0..3)
        .map(|i| JobRequest {
            id: i as u32,
            tenant: 0,
            weight: 1.0,
            job: Job::new(3, 2, 4, 2),
            arrival: 2.0 * i as f64,
        })
        .collect();
    let rec = RunRecorder::shared();
    let sink = ObsSink::to(rec.clone());
    let mut policy = MultiJobMaster::new(&platform, &requests, StreamConfig::default())
        .unwrap()
        .with_obs(sink.clone());
    Simulator::new(platform)
        .with_arrivals(MultiJobMaster::arrival_plan(&requests))
        .run_observed(&mut policy, sink)
        .unwrap();
    drop(policy);
    let Ok(rec) = Rc::try_unwrap(rec) else {
        unreachable!("recorder has one owner after the run")
    };
    let (events, _) = rec.into_inner().into_parts();
    let doc = from_str(&perfetto_trace(&events).render_pretty()).unwrap();
    let job_spans: Vec<_> = spans(&doc)
        .into_iter()
        .filter(|(pid, ..)| *pid == 3)
        .collect();
    assert_eq!(
        job_spans.len(),
        requests.len(),
        "one lifecycle span per job"
    );
    let rendered = perfetto_trace(&events).render();
    assert!(rendered.contains("\"jobs\""));
    assert!(rendered.contains("\"job_admitted\""));
    assert!(rendered.contains("\"lp_resolve\""));
}
