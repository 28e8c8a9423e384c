//! Recording hands the log back without reading it, and reading a
//! recorded run back allocates per *run*, never per *event* or per
//! *interval* — asserted under a counting global allocator.
//! `RunRecorder::into_parts` moves the log out and allocates nothing;
//! `Attribution::from_events` pairs the log in one pass into one
//! interval list (with a track link each) and one begin list, builds no
//! span list and no frame, and renders no string until the folded
//! stacks are asked for. Quadrupling the stream quadruples the log and
//! must leave the allocation count under the same constant and the
//! bytes per event under the same bound.
//!
//! One `#[test]` on purpose: the counter is process-wide, and a second
//! test running on another thread would allocate into the reading.

use std::rc::Rc;

use stargemm_bench::netperf::{total_allocated, total_allocations, CountingAlloc};
use stargemm_bench::perf::recorded_stream;
use stargemm_obs::{Attribution, ObsSink, RunRecorder};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations of one read-back view, whatever the length of the log:
/// the interval list, its track links and the begin list (sized once),
/// the open-interval tables, the job numbers, the markers and the crash
/// facts (grown by doubling). Measured: 65 at 200 jobs, 79 at 800.
const PER_READ: u64 = 96;

/// Bytes `Attribution::from_events` allocates per event of the log: 32
/// per interval and 4 per track link, sized for one interval per two
/// events, plus 16 per begin. Measured: 25.6 at 200 and at 800 jobs.
const BYTES_PER_EVENT: u64 = 48;

#[test]
fn reading_a_recorded_run_back_allocates_per_run_not_per_event() {
    assert!(
        total_allocations() > 0,
        "the counting allocator is not live"
    );
    for jobs in [200, 800] {
        let (events, makespan) = recorded_stream(jobs);
        assert!(events.len() > 100 * jobs, "{} events", events.len());

        let (before, bytes_before) = (total_allocations(), total_allocated());
        let attr = Attribution::from_events(&events, makespan);
        let allocations = total_allocations() - before;
        let bytes = total_allocated() - bytes_before;
        assert!(attr.is_conserved());
        assert!(
            allocations <= PER_READ,
            "Attribution::from_events at {jobs} jobs: {allocations} allocations for {} events, \
             over {PER_READ}",
            events.len()
        );
        assert!(
            bytes <= BYTES_PER_EVENT * events.len() as u64,
            "Attribution::from_events at {jobs} jobs: {bytes} bytes for {} events, \
             over {BYTES_PER_EVENT} per event",
            events.len()
        );

        let recorder = RunRecorder::shared();
        let sink = ObsSink::to(recorder.clone());
        for ev in &events {
            sink.emit(|| ev.clone());
        }
        drop(sink);
        let Ok(recorder) = Rc::try_unwrap(recorder) else {
            unreachable!("the sink was dropped")
        };
        let recorder = recorder.into_inner();
        let before = total_allocations();
        let (log,) = recorder.into_parts();
        assert_eq!(
            total_allocations() - before,
            0,
            "into_parts reads or copies the log"
        );
        assert_eq!(log, events);
    }
}
