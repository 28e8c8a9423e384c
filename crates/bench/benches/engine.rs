//! Benchmarks of the execution engines themselves: discrete-event
//! simulation throughput, the eight-variant Het decision procedure, and
//! the net messaging runtime end-to-end. The `sim_oneport`, `het_plan`,
//! `attr` and `dag_dispatch` entries call the very functions behind the
//! CI rows of the same names ([`stargemm_bench::perf`]).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Duration;

use stargemm_bench::perf::{
    dag_dispatch, het_plan, recorded_stream, sim_oneport, ATTR_JOBS, DAG_ROWS,
};
use stargemm_core::algorithms::{build_policy, Algorithm};
use stargemm_core::select_het::{allocate, SelectionVariant};
use stargemm_core::Job;
use stargemm_dag::lu_dag;
use stargemm_linalg::BlockMatrix;
use stargemm_net::{NetOptions, NetRuntime};
use stargemm_obs::Attribution;
use stargemm_platform::{presets, Platform, WorkerSpec};
use stargemm_sim::Simulator;

fn bench_simulator(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulator");
    let platform = presets::het_memory();
    let job = Job::paper(80_000);
    for alg in [Algorithm::Oddoml, Algorithm::Orroml, Algorithm::Bmm] {
        group.bench_with_input(
            BenchmarkId::new("paper_job", alg.name()),
            &alg,
            |b, &alg| {
                b.iter(|| {
                    let mut policy = build_policy(&platform, &job, alg).unwrap();
                    black_box(Simulator::new(platform.clone()).run(&mut policy).unwrap())
                })
            },
        );
    }
    group.bench_function("sim_oneport_10k_events", |b| {
        b.iter(|| black_box(sim_oneport(10_000)))
    });
    group.finish();
}

fn bench_selection(c: &mut Criterion) {
    let mut group = c.benchmark_group("het_selection");
    let platform = presets::fully_het(4.0);
    let job = Job::paper(80_000);
    for v in [
        SelectionVariant {
            local: false,
            lookahead: false,
            c_cost: false,
        },
        SelectionVariant {
            local: true,
            lookahead: false,
            c_cost: false,
        },
        SelectionVariant {
            local: false,
            lookahead: true,
            c_cost: true,
        },
    ] {
        group.bench_with_input(BenchmarkId::new("allocate", v.label()), &v, |b, &v| {
            b.iter(|| black_box(allocate(&platform, &job, v)))
        });
    }
    group.bench_function("het_plan", |b| b.iter(|| black_box(het_plan(1))));
    group.finish();
}

/// The online layers above the engine: reading a recorded stream cell
/// back (one attribution of its log per iteration) and whole `DagMaster`
/// runs of the two LU graphs.
fn bench_online(c: &mut Criterion) {
    let mut group = c.benchmark_group("online");
    let (log, makespan) = recorded_stream(ATTR_JOBS);
    group.bench_function("attr", |b| {
        b.iter(|| black_box(Attribution::from_events(&log, makespan)))
    });
    for (name, side) in DAG_ROWS {
        let (dag, _) = lu_dag(side);
        group.bench_function(name, |b| b.iter(|| black_box(dag_dispatch(&dag, 1))));
    }
    group.finish();
}

fn bench_net_runtime(c: &mut Criterion) {
    let mut group = c.benchmark_group("net_runtime");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(8));
    let job = Job::new(4, 6, 6, 32);
    let platform = Platform::new(
        "bench",
        vec![
            WorkerSpec::new(1e-6, 1e-6, 40),
            WorkerSpec::new(2e-6, 2e-6, 24),
        ],
    );
    let mut rng = StdRng::seed_from_u64(3);
    let a = BlockMatrix::random(job.r, job.t, job.q, &mut rng);
    let b = BlockMatrix::random(job.t, job.s, job.q, &mut rng);
    let c0 = BlockMatrix::zeros(job.r, job.s, job.q);
    group.bench_function("oddoml_real_data", |bch| {
        bch.iter(|| {
            let mut policy = build_policy(&platform, &job, Algorithm::Oddoml).unwrap();
            let rt = NetRuntime::new(platform.clone()).with_options(NetOptions {
                time_scale: 1e-3,
                ..Default::default()
            });
            let mut cm = c0.clone();
            black_box(rt.run(&mut policy, &a, &b, &mut cm).unwrap())
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(15);
    targets = bench_simulator, bench_selection, bench_online, bench_net_runtime
}
criterion_main!(benches);
