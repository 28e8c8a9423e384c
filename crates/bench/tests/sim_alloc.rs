//! A simulated run allocates per *chunk*, never per *event* — asserted
//! under a counting global allocator. Doubling the inner dimension `t`
//! doubles the kernel events of every chunk (one transfer completion per
//! fragment, one step completion per step) and must leave the run's
//! allocation count under the same `A + B × chunks` line: what remains
//! per chunk is the model's and the ledger's per-step vectors, what
//! remains per run the tables, the event slab and the statistics. A
//! `DagMaster` run is held to the same line — one chunk per task —
//! whatever the size of its task table: its decisions walk a kept
//! frontier and collect nothing.
//!
//! One `#[test]` on purpose: the counter is process-wide, and a second
//! test running on another thread would allocate into the reading.

use stargemm_bench::netperf::{total_allocations, CountingAlloc};
use stargemm_core::algorithms::{build_policy, Algorithm};
use stargemm_core::select_het::{het_policy, SelectionVariant};
use stargemm_core::Job;
use stargemm_dag::{lu_dag, DagMaster};
use stargemm_platform::{presets, Platform, WorkerSpec};
use stargemm_sim::{MasterPolicy, RunStats, Simulator};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations of a whole run that scale with nothing but the platform:
/// table and slab growth (logarithmic in the chunks in flight), the lane
/// table, the statistics. Measured: 16–20.
const PER_RUN: u64 = 32;
/// Allocations per chunk: its step vectors in the model and the ledger.
/// Measured: 3.
const PER_CHUNK: u64 = 4;

/// Allocator calls made inside `Simulator::run` (the policy is built
/// before the reading starts).
fn run_allocations(platform: &Platform, mut policy: impl MasterPolicy) -> (u64, RunStats) {
    let sim = Simulator::new(platform.clone());
    let before = total_allocations();
    let stats = sim.run(&mut policy).expect("feasible run");
    (total_allocations() - before, stats)
}

#[test]
fn a_simulated_run_allocates_per_chunk_not_per_event() {
    assert!(
        total_allocations() > 0,
        "the counting allocator is not live"
    );
    let platform = presets::fully_het(2.0);
    let variant = SelectionVariant::all()[0];
    // The paper's widest job, at its own depth (t = 100) and at twice it.
    let paper = Job::paper(128_000);
    for t in [paper.t, 2 * paper.t] {
        let job = Job { t, ..paper };
        let policies = [
            // Strict round-robin and demand-driven serving.
            build_policy(&platform, &job, Algorithm::Orroml).expect("ORROML fits"),
            het_policy(&platform, &job, variant),
        ];
        for policy in policies {
            let (allocations, stats) = run_allocations(&platform, policy);
            assert_eq!(stats.total_updates, job.total_updates());
            let events = stats.chunks * 3 * t as u64;
            let line = PER_RUN + PER_CHUNK * stats.chunks;
            assert!(
                allocations <= line,
                "{} at t = {t}: {allocations} allocations for {} chunks \
                 (≈ {events} kernel events), over {PER_RUN} + {PER_CHUNK} × chunks = {line}",
                stats.policy,
                stats.chunks,
            );
        }
    }

    // DAG jobs: one chunk per task, and a sevenfold task table leaves
    // the per-task count where it was (measured: 3.2–3.3).
    let star = Platform::homogeneous("dag-star", 3, WorkerSpec::new(0.25, 0.12, 60));
    for side in [8, 16] {
        let (dag, _) = lu_dag(side);
        let tasks = dag.len() as u64;
        let master = DagMaster::new("lu", &star, dag, 2, 2);
        let (allocations, stats) = run_allocations(&star, master);
        assert_eq!(stats.chunks, tasks);
        let line = PER_RUN + PER_CHUNK * tasks;
        assert!(
            allocations <= line,
            "lu_dag({side}): {allocations} allocations for {tasks} tasks, \
             over {PER_RUN} + {PER_CHUNK} × tasks = {line}"
        );
    }
}
