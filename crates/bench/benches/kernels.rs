//! Micro-benchmarks of the computational substrates: the GEMM block
//! kernel (which calibration times to derive `w`) at the three block
//! sizes the experiments use, and the simplex solver behind Table 1.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

use stargemm_core::steady::{bandwidth_centric, table1_lp};
use stargemm_linalg::gemm::block_update;
use stargemm_linalg::Block;
use stargemm_platform::presets;

fn bench_gemm(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemm");
    let mut rng = StdRng::seed_from_u64(1);
    for q in [32usize, 80, 100] {
        let a = Block::random(q, &mut rng);
        let b = Block::random(q, &mut rng);
        let mut out = Block::zeros(q);
        group.bench_with_input(BenchmarkId::new("block_update", q), &q, |bch, _| {
            bch.iter(|| block_update(black_box(&mut out), black_box(&a), black_box(&b)))
        });
    }
    group.finish();
}

fn bench_lp(c: &mut Criterion) {
    let mut group = c.benchmark_group("steady_state");
    let platform = presets::lyon(false); // 20 workers → 41-var LP
    group.bench_function("table1_simplex_20w", |b| {
        b.iter(|| black_box(table1_lp(&platform, 100).solve().unwrap()))
    });
    group.bench_function("bandwidth_centric_greedy_20w", |b| {
        b.iter(|| black_box(bandwidth_centric(&platform, 100)))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_gemm, bench_lp
}
criterion_main!(benches);
