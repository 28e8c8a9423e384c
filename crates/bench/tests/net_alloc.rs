//! A reactor run allocates per *fragment*, never per *block* — asserted
//! under a counting global allocator. A fragment crosses the reactor as
//! one flat buffer: one exactly-sized encode buffer, one decoded tile
//! vector the worker computes on in place, and amortised growth of the
//! tables it is filed in. Doubling the chunk side quadruples the blocks
//! of every C load and result and doubles those of every A and B
//! fragment, at the same fragment count, and must leave the run under
//! the same `A + B × fragments` line.
//!
//! One `#[test]` on purpose: the counter is process-wide, and a second
//! test running on another thread would allocate into the reading.

use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;
use stargemm_bench::netperf::{total_allocations, CountingAlloc};
use stargemm_core::algorithms::{build_policy, Algorithm};
use stargemm_core::Job;
use stargemm_linalg::BlockMatrix;
use stargemm_net::{NetOptions, NetRuntime};
use stargemm_platform::{Platform, WorkerSpec};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations of a whole run that scale with the platform only: the
/// worker machines, the ledger and lane tables, the statistics.
/// Measured: 9.
const PER_RUN: u64 = 32;
/// Allocations per fragment on the wire (C loads, A and B fragments,
/// retrieved results). Measured: 2.05 at both chunk sides (1 705 calls
/// for 832 fragments), down from 3.0 (2 505) when every encoded message
/// was also wrapped in a reference-counted buffer; the `Vec<Block>`
/// messages before that made 12.8 at side 2 (2.2 blocks per fragment)
/// and 18.4 at side 4 (4.9).
const PER_FRAGMENT: u64 = 3;

/// Runs ODDOML for an `r × t × s` job on a four-worker one-port star
/// whose memory `m` sets the chunk side; returns `(allocator calls
/// inside NetRuntime::run, fragments moved, blocks moved)`.
fn run(m: usize, (r, t, s): (usize, usize, usize)) -> (u64, u64, u64) {
    let q = 2;
    let job = Job::new(r, t, s, q);
    let platform = Platform::homogeneous("alloc-star", 4, WorkerSpec::new(1e-5, 1e-6, m));
    let mut rng = StdRng::seed_from_u64(19);
    let a = BlockMatrix::random(job.r, job.t, q, &mut rng);
    let b = BlockMatrix::random(job.t, job.s, q, &mut rng);
    let mut c = BlockMatrix::random(job.r, job.s, q, &mut rng);
    let mut expect = c.clone();
    let mut policy = build_policy(&platform, &job, Algorithm::Oddoml).expect("ODDOML fits");
    let runtime = NetRuntime::new(platform).with_options(NetOptions {
        time_scale: 1e-7,
        idle_timeout: Duration::from_secs(20),
        ..NetOptions::default()
    });
    let before = total_allocations();
    let stats = runtime
        .run(&mut policy, &a, &b, &mut c)
        .expect("feasible run");
    let allocations = total_allocations() - before;
    assert_eq!(stats.total_updates, job.total_updates());
    BlockMatrix::gemm_reference(&mut expect, &a, &b);
    assert_eq!(c, expect, "the product is exact");
    // Per chunk: one C load, one A and one B fragment per step, one
    // retrieved result.
    let fragments = stats.chunks * (2 + 2 * t as u64);
    (
        allocations,
        fragments,
        stats.blocks_to_workers + stats.blocks_to_master,
    )
}

#[test]
fn a_reactor_run_allocates_per_fragment_not_per_block() {
    assert!(
        total_allocations() > 0,
        "the counting allocator is not live"
    );
    // Chunk side 2 (m = 12 holds μ² + 4μ), then side 4 (m = 32) on a job
    // twice as tall and wide: the same 32 chunks of 12 steps each.
    let small = run(12, (8, 12, 16));
    let large = run(32, (16, 12, 32));
    assert_eq!(small.1, large.1, "same fragment count");
    assert!(large.2 > 2 * small.2, "at more than twice the blocks");
    for (what, (allocations, fragments, blocks)) in [("side 2", small), ("side 4", large)] {
        let line = PER_RUN + PER_FRAGMENT * fragments;
        assert!(
            allocations <= line,
            "chunk {what}: {allocations} allocations for {fragments} fragments \
             ({blocks} blocks), over {PER_RUN} + {PER_FRAGMENT} × fragments = {line}"
        );
    }
}
