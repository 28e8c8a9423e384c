//! Render real schedules as ASCII Gantt charts — the runnable version of
//! the paper's Figure 3 (steps of the maximum re-use algorithm), plus a
//! two-worker heterogeneous schedule showing communication/computation
//! overlap and the one-port serialization.
//!
//! ```sh
//! cargo run --release --example trace_gantt
//! ```

use stargemm::core::algorithms::{build_policy, Algorithm};
use stargemm::core::maxreuse::max_reuse_policy;
use stargemm::core::Job;
use stargemm::obs::{render_gantt, spans, Attribution, ObsEvent};
use stargemm::platform::{Platform, WorkerSpec};
use stargemm::sim::{MasterPolicy, ObsSink, RunRecorder, RunStats, Simulator};

/// Runs `policy` under a recorder; the event log is the schedule.
fn record(sim: &Simulator, policy: &mut dyn MasterPolicy) -> (RunStats, Vec<ObsEvent>) {
    let rec = RunRecorder::shared();
    let stats = sim.run_observed(policy, ObsSink::to(rec.clone())).unwrap();
    let events = rec.borrow().events().to_vec();
    (stats, events)
}

fn main() {
    // Figure 3 flavour: one worker, m = 24 → μ = 4, C split in 4×4
    // chunks. On the worker's comm row 'C' = C-chunk load, 'b'/'a' =
    // B-row/A-column fragments, '<' = result retrieval; '#' = compute;
    // the `port L0` row shows the master's port ('>' out, '<' back).
    let job = Job::new(4, 6, 8, 80);
    let platform = Platform::new("single", vec![WorkerSpec::new(1.0, 0.35, 24)]);
    let mut policy = max_reuse_policy(&job, 24);
    let (stats, events) = record(&Simulator::new(platform), &mut policy);
    println!(
        "maximum re-use on one worker (μ = 4): makespan {:.1}s, CCR {:.3}\n",
        stats.makespan,
        stats.ccr()
    );
    println!("{}", render_gantt(&events, 1, 100));

    // A heterogeneous two-worker schedule: the fast worker overlaps its
    // computation with the slow worker's transfers on the shared port.
    let job = Job::new(4, 8, 8, 80);
    let platform = Platform::new(
        "duo",
        vec![WorkerSpec::new(0.5, 0.5, 40), WorkerSpec::new(2.0, 1.0, 24)],
    );
    let mut policy = build_policy(&platform, &job, Algorithm::Het).unwrap();
    let (stats, events) = record(&Simulator::new(platform), &mut policy);
    println!(
        "Het on two heterogeneous workers: makespan {:.1}s, enrolled {}\n",
        stats.makespan,
        stats.enrolled()
    );
    println!("{}", render_gantt(&events, 2, 100));
    println!("note the single port row: the one-port model serializes all transfers.\n");

    let port_busy = Attribution::from_events(&events, stats.makespan)
        .categories
        .port_busy;
    let horizon = spans(&events)
        .iter()
        .filter_map(|s| s.end)
        .fold(0.0, f64::max);
    assert!((port_busy - stats.port_busy).abs() <= 1e-9 * stats.port_busy);
    assert!((horizon - stats.makespan).abs() <= 1e-9 * stats.makespan);
    println!(
        "VERIFIED: the recorded intervals reproduce the engine's port-busy \
         time ({port_busy:.1}s) and makespan"
    );
}
