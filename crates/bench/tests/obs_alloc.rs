//! Recording hands the log back without reading it, and reading a
//! recorded run back allocates per *run*, never per *event* or per
//! *interval* — asserted under a counting global allocator.
//! `RunRecorder::into_parts` moves the log out and allocates nothing;
//! `Attribution::from_events` keeps one `Copy` frame per interval in a
//! handful of vectors and renders no string until the folded stacks are
//! asked for. Quadrupling the stream quadruples the log and must leave
//! every count under the same constant.
//!
//! One `#[test]` on purpose: the counter is process-wide, and a second
//! test running on another thread would allocate into the reading.

use std::rc::Rc;

use stargemm_bench::netperf::{total_allocations, CountingAlloc};
use stargemm_bench::perf::recorded_stream;
use stargemm_obs::{Attribution, ObsSink, RunRecorder};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations of one read-back view, whatever the length of the log:
/// the sweep's boundary lists, the span list and its open-interval
/// tables (each grown by doubling), the frames. Measured: 56 at 200
/// jobs, 66 at 800.
const PER_READ: u64 = 128;

#[test]
fn reading_a_recorded_run_back_allocates_per_run_not_per_event() {
    assert!(
        total_allocations() > 0,
        "the counting allocator is not live"
    );
    for jobs in [200, 800] {
        let (events, makespan) = recorded_stream(jobs);
        assert!(events.len() > 100 * jobs, "{} events", events.len());

        let before = total_allocations();
        let attr = Attribution::from_events(&events, makespan);
        let allocations = total_allocations() - before;
        assert!(attr.is_conserved());
        assert!(
            allocations <= PER_READ,
            "Attribution::from_events at {jobs} jobs: {allocations} allocations for {} events, \
             over {PER_READ}",
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
