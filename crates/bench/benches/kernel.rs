//! Throughput of the generic discrete-event kernel, in events/sec.
//!
//! The workloads live in [`stargemm_bench::perf`] so this bench and the
//! `exp_perf` trajectory writer (`BENCH_kernel.json`) always measure the
//! same code:
//!
//! * **hold** — the standard DES benchmark: keep N events pending; each
//!   delivery schedules a successor at `now + δ` (pure heap/slab hot
//!   path, zero allocation after warm-up);
//! * **cancel-half** — same, but every other event is cancelled before
//!   it can deliver (exercises the tombstone-skipping pop);
//! * **drain** — schedule N, then pop all (batch build-up then tear-down);
//! * **reshare** — the contention model's max-min re-share at 64 / 256 /
//!   1 024 active lanes through a warm scratch (the rows `exp_perf`
//!   gates, scaling check included).
//!
//! Besides criterion's per-iteration timing, each workload prints its
//! own `events/sec` line so the number the acceptance criterion asks
//! for is directly visible in `cargo bench` output.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use stargemm_bench::perf::{cancel_half, drain, hold, reshare, sample, RESHARE_LANES};

const EVENTS: u64 = 100_000;

fn bench_kernel(c: &mut Criterion) {
    // The headline numbers: one full-size measured pass per workload.
    for s in [
        sample("hold", || hold(1_024, EVENTS)),
        sample("cancel-half", || cancel_half(1_024, EVENTS)),
        sample("drain", || drain(EVENTS)),
    ] {
        assert!(s.events >= EVENTS);
        println!(
            "kernel/{:<12} throughput: {:>10.0} events/sec ({} events in {:.3}s)",
            s.workload, s.events_per_sec, s.events, s.wall_secs
        );
    }

    // Criterion timings over smaller batches (per-iteration medians).
    let mut group = c.benchmark_group("kernel");
    for pending in [64usize, 1_024, 16_384] {
        group.bench_with_input(
            BenchmarkId::new("hold", pending),
            &pending,
            |b, &pending| b.iter(|| black_box(hold(pending, 10_000))),
        );
    }
    group.bench_function("cancel_half/1024", |b| {
        b.iter(|| black_box(cancel_half(1_024, 10_000)))
    });
    group.bench_function("drain/10k", |b| b.iter(|| black_box(drain(10_000))));
    group.finish();

    // 100 re-shares per iteration, so the per-run set-up is noise.
    let mut group = c.benchmark_group("reshare");
    for lanes in RESHARE_LANES {
        group.bench_with_input(BenchmarkId::from_parameter(lanes), &lanes, |b, &lanes| {
            b.iter(|| black_box(reshare(lanes, 100)))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(11);
    targets = bench_kernel
}
criterion_main!(benches);
