//! A simulated run allocates per *chunk*, never per *event* — asserted
//! under a counting global allocator. Doubling the inner dimension `t`
//! doubles the kernel events of every chunk (one transfer completion per
//! fragment, one step completion per step) and must leave the run's
//! allocation count under the same `A + B × chunks` line: what remains
//! per chunk is the model's and the ledger's per-step vectors, what
//! remains per run the tables, the event slab and the statistics. A
//! `DagMaster` run is held to the same line — one chunk per task —
//! whatever the size of its task table: its decisions walk a kept
//! frontier and collect nothing. A `MultiJobMaster` stream adds a term
//! per job and nothing per decision: its deficit order is rebuilt in one
//! kept buffer. The steady-state LP behind a bound allocates by its
//! stored entries, not by its dense tableau.
//!
//! One `#[test]` on purpose: the counter is process-wide, and a second
//! test running on another thread would allocate into the reading.

use stargemm_bench::netperf::{total_allocated, total_allocations, CountingAlloc};
use stargemm_core::algorithms::{build_policy, Algorithm};
use stargemm_core::select_het::{het_policy, SelectionVariant};
use stargemm_core::steady::generalized_lp;
use stargemm_core::Job;
use stargemm_dag::{lu_dag, DagMaster};
use stargemm_netmodel::NetModelSpec;
use stargemm_platform::{presets, Platform, WorkerSpec};
use stargemm_sim::{MasterPolicy, RunStats, Simulator};
use stargemm_stream::{
    weighted_maxmin, ArrivalProcess, JobDemand, MultiJobMaster, StreamConfig, TenantSpec,
    WorkloadSpec,
};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations of a whole run that scale with nothing but the platform:
/// table and slab growth (logarithmic in the chunks in flight), the lane
/// table, the statistics. Measured: 16–20.
const PER_RUN: u64 = 32;
/// Allocations per chunk: its step vectors in the model and the ledger.
/// Measured: 3.
const PER_CHUNK: u64 = 4;
/// Allocations per job of a stream: planning it (its queues and member
/// master) and the share re-solves at its admission and completion.
/// Measured: 54.
const PER_JOB: u64 = 64;
/// Bytes and allocations of one solve of the 512-worker multi-port
/// star's steady-state LP (1 538 rows, 1 024 variables). Measured:
/// 0.80 MB in 26; a dense tableau is 31.6 MB on its own.
const WIDE_LP_BYTES: u64 = 2 << 20;
const WIDE_LP_ALLOCATIONS: u64 = 64;
/// Allocations of one two-demand `weighted_maxmin` call, the LP built
/// and solved. Measured: 10; one `Vec` per row and a pivot row cloned
/// per pivot made it 25.
const MAXMIN_ALLOCATIONS: u64 = 12;

/// Allocator calls made inside `Simulator::run` (the policy is built
/// before the reading starts).
fn run_allocations(sim: &Simulator, mut policy: impl MasterPolicy) -> (u64, RunStats) {
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
            let (allocations, stats) = run_allocations(&Simulator::new(platform.clone()), policy);
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
        let (allocations, stats) = run_allocations(&Simulator::new(star.clone()), master);
        assert_eq!(stats.chunks, tasks);
        let line = PER_RUN + PER_CHUNK * tasks;
        assert!(
            allocations <= line,
            "lu_dag({side}): {allocations} allocations for {tasks} tasks, \
             over {PER_RUN} + {PER_CHUNK} × tasks = {line}"
        );
    }

    let stream_star = Platform::new(
        "stream-star",
        vec![
            WorkerSpec::new(0.2, 0.1, 60),
            WorkerSpec::new(0.3, 0.15, 60),
            WorkerSpec::new(0.5, 0.3, 40),
        ],
    );
    for t in [6, 12] {
        let requests = WorkloadSpec {
            tenants: vec![
                TenantSpec::new("t0", 1.0, vec![Job::new(8, t, 12, 2)]),
                TenantSpec::new("t1", 2.0, vec![Job::new(6, t, 16, 2)]),
            ],
            arrivals: ArrivalProcess::Open {
                mean_interarrival: 10.0,
            },
            jobs: 40,
            seed: 3,
        }
        .generate();
        let master = MultiJobMaster::new(&stream_star, &requests, StreamConfig::default())
            .expect("the stream fits");
        let sim = Simulator::new(stream_star.clone())
            .with_arrivals(MultiJobMaster::arrival_plan(&requests));
        let (allocations, stats) = run_allocations(&sim, master);
        let jobs = stats.jobs.len() as u64;
        let line = PER_RUN + PER_JOB * jobs + PER_CHUNK * stats.chunks;
        assert!(
            allocations <= line,
            "stream at t = {t}: {allocations} allocations for {jobs} jobs and {} chunks, \
             over {PER_RUN} + {PER_JOB} × jobs + {PER_CHUNK} × chunks = {line}",
            stats.chunks,
        );
    }

    let wide = Platform::homogeneous("wide-multiport", 512, WorkerSpec::new(1e-5, 1e-6, 64));
    let model = NetModelSpec::BoundedMultiPort {
        k: 16,
        backbone: Some(8e5),
    };
    let lp = generalized_lp(&wide, 4, &model);
    let (bytes, allocations) = (total_allocated(), total_allocations());
    lp.solve().expect("the star's LP is feasible and bounded");
    let (bytes, allocations) = (total_allocated() - bytes, total_allocations() - allocations);
    assert!(
        bytes <= WIDE_LP_BYTES && allocations <= WIDE_LP_ALLOCATIONS,
        "512-worker LP solve: {bytes} B in {allocations} allocations, \
         over {WIDE_LP_BYTES} B or {WIDE_LP_ALLOCATIONS}"
    );

    let demands = [
        JobDemand {
            sides: vec![4, 3],
            weight: 1.0,
        },
        JobDemand {
            sides: vec![0, 5],
            weight: 3.0,
        },
    ];
    let pair = Platform::new(
        "maxmin-pair",
        vec![WorkerSpec::new(0.2, 0.1, 60), WorkerSpec::new(0.4, 0.2, 40)],
    );
    let before = total_allocations();
    weighted_maxmin(&pair, &demands).expect("both demands are usable");
    let allocations = total_allocations() - before;
    assert!(
        allocations <= MAXMIN_ALLOCATIONS,
        "two-demand weighted_maxmin: {allocations} allocations, over {MAXMIN_ALLOCATIONS}"
    );
}
