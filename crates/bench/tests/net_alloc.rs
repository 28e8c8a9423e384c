//! A reactor run allocates per *chunk*, never per *fragment* or per
//! *block* — asserted under a counting global allocator. A fragment
//! crosses the reactor as one flat buffer: encoded into the one byte
//! buffer every message reuses, decoded into a vector from the reactor's
//! pool that the worker computes on in place and hands back once its
//! step fires (a result, once it is copied into C). What is left is a
//! chunk's own books: its worker-side record, the list its half-delivered
//! steps wait in, the ledger's entry. Doubling the chunk side quadruples
//! the blocks of every C load and result and doubles those of every A
//! and B fragment; doubling the steps per chunk doubles the fragments;
//! both at the same chunk count must stay under the same
//! `PER_RUN + PER_CHUNK × chunks` line.
//!
//! The matrices the master holds are one allocation each: a
//! `BlockMatrix` is one block-major buffer, so `zeros`, `random` and
//! `clone` of a 4 × 65 536 grid of `q = 2` blocks take one allocator
//! call apiece (262 145 when it was one heap object per block).
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
/// worker machines, the ledger and lane tables, the statistics, and the
/// pool filling up to the buffers a run has in flight at once.
const PER_RUN: u64 = 32;
/// Allocations per chunk. Per wire fragment (C loads, A and B fragments,
/// retrieved results) this was 18.4 at side 4 and 12.8 at side 2 with
/// one heap object per block, 3.0 with flat tiles in a reference-counted
/// message, and 2.05 with the message and the decoded vector allocated
/// each time (1 705 calls for 832 fragments). With the reused encode
/// buffer and the decode pool, the 832 fragments of 32 chunks take 118
/// calls at both chunk sides (3.7 per chunk, 0.14 per fragment), and the
/// 1 600 fragments of the same chunks at twice the steps take 118 too.
const PER_CHUNK: u64 = 6;

/// Runs ODDOML for an `r × t × s` job on a four-worker one-port star
/// whose memory `m` sets the chunk side; returns `(allocator calls
/// inside NetRuntime::run, chunks, fragments moved, blocks moved)`.
fn run(m: usize, (r, t, s): (usize, usize, usize)) -> (u64, u64, u64, u64) {
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
        stats.chunks,
        fragments,
        stats.blocks_to_workers + stats.blocks_to_master,
    )
}

/// Allocator calls `make` takes, and what it made.
fn counted<T>(make: impl FnOnce() -> T) -> (u64, T) {
    let before = total_allocations();
    let made = make();
    (total_allocations() - before, made)
}

#[test]
fn a_reactor_run_allocates_per_chunk_not_per_fragment() {
    assert!(
        total_allocations() > 0,
        "the counting allocator is not live"
    );
    let mut rng = StdRng::seed_from_u64(23);
    let (zeros, _) = counted(|| BlockMatrix::zeros(4, 65_536, 2));
    let (random, m) = counted(|| BlockMatrix::random(4, 65_536, 2, &mut rng));
    let (clone, _) = counted(|| m.clone());
    assert_eq!((zeros, random, clone), (1, 1, 1), "zeros, random, clone");
    drop(m);
    // Chunk side 2 (m = 12 holds μ² + 4μ); side 4 (m = 32) on a job
    // twice as tall and wide; side 2 at twice the steps: the same 32
    // chunks each time.
    let small = run(12, (8, 12, 16));
    let large = run(32, (16, 12, 32));
    let deep = run(12, (8, 24, 16));
    assert_eq!(small.1, large.1, "same chunk count");
    assert_eq!(small.1, deep.1, "same chunk count");
    assert_eq!(small.2, large.2, "same fragment count");
    assert!(deep.2 > small.2 * 3 / 2, "at many more fragments");
    assert!(large.3 > 2 * small.3, "at more than twice the blocks");
    for (what, (allocations, chunks, fragments, blocks)) in [
        ("side 2", small),
        ("side 4", large),
        ("side 2, 24 steps", deep),
    ] {
        let line = PER_RUN + PER_CHUNK * chunks;
        assert!(
            allocations <= line,
            "chunk {what}: {allocations} allocations for {chunks} chunks \
             ({fragments} fragments, {blocks} blocks), over {PER_RUN} + {PER_CHUNK} × chunks = {line}"
        );
    }
}
