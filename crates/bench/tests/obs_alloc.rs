//! Reading a recorded run back allocates per *run*, never per *event*
//! or per *interval* — asserted under a counting global allocator.
//! `Attribution::from_events` keeps one `Copy` frame per interval in a
//! handful of vectors and renders no string until the folded stacks are
//! asked for; `RunRecorder::into_parts` counts kinds by variant and
//! fills its histograms as locals. Quadrupling the stream quadruples the
//! log and must leave both counts under the same constant.
//!
//! One `#[test]` on purpose: the counter is process-wide, and a second
//! test running on another thread would allocate into the reading.

use stargemm_bench::netperf::{total_allocations, CountingAlloc};
use stargemm_bench::perf::recorded_stream;
use stargemm_obs::{Attribution, Recorder, RunRecorder};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations of one read-back, whatever the length of the log: the
/// sweep's boundary lists, the span list and its open-interval tables
/// (each grown by doubling), the frames, the registry's keys. Measured:
/// 50–70.
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
            "from_events at {jobs} jobs: {allocations} allocations for {} events, over {PER_READ}",
            events.len()
        );

        let mut recorder = RunRecorder::new();
        for ev in &events {
            recorder.record(ev.clone());
        }
        let before = total_allocations();
        let (log, metrics) = recorder.into_parts();
        let allocations = total_allocations() - before;
        assert_eq!(log.len(), events.len());
        assert!(metrics.histogram("port.transfer_secs").is_some());
        assert!(
            allocations <= PER_READ,
            "into_parts at {jobs} jobs: {allocations} allocations for {} events, over {PER_READ}",
            log.len()
        );
    }
}
