//! `net_gemm` — real-data execution.
//!
//! `NetRuntime::run` (default options but `time_scale` 1e-7, so
//! compute-bound) with Het and ODDOML on a 3-worker heterogeneous star:
//! a q = 80 job, a small-block q = 32 job sized to about half its time,
//! and one `FedNetRuntime` 2-star run of the q = 80 job. Every C is
//! verified with `verify_product` / `tolerance_for`, and every net run
//! has a sim twin that supplies its model-time bound ratio (and, for the
//! static Het plan, the per-worker chunk counts the net run must match).
//!
//! Chosen because `linalg` is most of the wall here and about none
//! everywhere else, so a kernel gain shows here and a `wire` /
//! `materialize` copy regression shows as the gap to the bare-kernel
//! probe; the two block sizes catch a packing scheme that wins at
//! q = 80 and loses at q = 32.

use rand::Rng;

use crate::check::{fnv, fnv_matrix, CellFacts};
use crate::surface::{
    build_policy, makespan_lower_bound, tolerance_for, verify_product, Algorithm, BlockMatrix,
    DynPlatform, FedNetRuntime, FedPlatform, FedStar, Job, NetModelSpec, NetOptions, NetRuntime,
    Platform, RunStats, Simulator, WorkerSpec,
};
use crate::trace::{Layer, Tracer};
use crate::workloads::{
    count_linalg, gemm_probe, sub_rng, Counts, Inputs, Metrics, Pass, TIME_SCALE,
};

/// `(span, r, t, s, q)`: 768 updates at q = 80 (0.79 GFLOP) and 5 760 at
/// q = 32 (0.38 GFLOP, about half the time).
const JOBS: [(&str, usize, usize, usize, usize); 2] =
    [("run_q80", 6, 8, 16, 80), ("run_q32", 12, 15, 32, 32)];
/// The same code paths at about 1/50 of the flops.
const JOBS_QUICK: [(&str, usize, usize, usize, usize); 2] =
    [("run_q80", 2, 2, 3, 80), ("run_q32", 3, 4, 6, 32)];
const ALGS: [Algorithm; 2] = [Algorithm::Het, Algorithm::Oddoml];

struct Product {
    span: &'static str,
    job: Job,
    a: BlockMatrix,
    b: BlockMatrix,
    c0: BlockMatrix,
}

pub struct NetGemm {
    star: Platform,
    products: Vec<Product>,
    /// Two regional stars sharing the q = 80 product by column shard.
    fed: FedPlatform,
}

fn opts() -> NetOptions {
    NetOptions {
        time_scale: TIME_SCALE,
        ..NetOptions::default()
    }
}

pub fn generate(seed: u64, quick: bool) -> Box<dyn Inputs> {
    let mut rng = sub_rng(seed, 1);
    // A fast, a middling and a slow-link worker; the seed moves every
    // cost by up to ±5 % (memory stays, so chunk shapes are stable).
    let mut star = |name: &str| {
        let mut jitter = |x: f64| x * rng.random_range(0.95..1.05);
        Platform::new(
            name,
            vec![
                WorkerSpec::new(jitter(1e-4), jitter(1e-4), 60),
                WorkerSpec::new(jitter(2e-4), jitter(2e-4), 40),
                WorkerSpec::new(jitter(3e-4), jitter(1.5e-4), 30),
            ],
        )
    };
    let (main, east, west) = (star("gemm-star"), star("gemm-east"), star("gemm-west"));
    let mut rng = sub_rng(seed, 2);
    let products = if quick { JOBS_QUICK } else { JOBS }
        .into_iter()
        .map(|(span, r, t, s, q)| Product {
            span,
            job: Job::new(r, t, s, q),
            a: BlockMatrix::random(r, t, q, &mut rng),
            b: BlockMatrix::random(t, s, q, &mut rng),
            c0: BlockMatrix::random(r, s, q, &mut rng),
        })
        .collect();
    let uplink = main.worker(0).c;
    let fed = FedPlatform::new(
        "gemm-fed",
        vec![
            FedStar::new(DynPlatform::constant(east), uplink),
            FedStar::new(DynPlatform::constant(west), 2.0 * uplink),
        ],
        NetModelSpec::OnePort,
    );
    Box::new(NetGemm {
        star: main,
        products,
        fed,
    })
}

/// The sim twin of a net run: the same plan in model time.
fn sim_twin(
    t: &mut Tracer,
    platform: &Platform,
    job: &Job,
    alg: Algorithm,
    facts: &mut CellFacts,
) -> Result<RunStats, String> {
    let bound = t.span(Layer::Core, "bound", || makespan_lower_bound(platform, job));
    let mut policy = t
        .span(Layer::Core, "plan", || build_policy(platform, job, alg))
        .map_err(|e| e.to_string())?;
    let sim = Simulator::new(platform.clone());
    let stats = t
        .engine(Layer::Sim, "run", Layer::Core, &mut policy, |p| sim.run(p))
        .map_err(|e| e.to_string())?;
    facts.add_sim_run(&stats, bound, platform);
    Ok(stats)
}

fn chunks_per_worker(stats: &RunStats) -> Vec<u64> {
    stats.per_worker.iter().map(|w| w.chunks_assigned).collect()
}

impl NetGemm {
    fn star_cell(&self, t: &mut Tracer, prod: &Product, alg: Algorithm) -> CellFacts {
        let job = &prod.job;
        let mut facts = CellFacts::default();
        let twin = match sim_twin(t, &self.star, job, alg, &mut facts) {
            Ok(s) => s,
            Err(e) => return CellFacts::failed(e),
        };
        let plan = t.span(Layer::Core, "plan", || build_policy(&self.star, job, alg));
        let mut policy = match plan {
            Ok(p) => p,
            Err(e) => return CellFacts::failed(e.to_string()),
        };
        let mut c = t.span(Layer::Bench, "clone_c", || prod.c0.clone());
        let runtime = NetRuntime::new(self.star.clone()).with_options(opts());
        let run = t.engine(Layer::Net, prod.span, Layer::Core, &mut policy, |p| {
            runtime.run(p, &prod.a, &prod.b, &mut c)
        });
        let stats = match run {
            Ok(s) => s,
            Err(e) => return CellFacts::failed(e.to_string()),
        };
        facts.add_net_run(&stats, &self.star);
        // Both runs executed the whole product.
        facts.expected_updates = 2 * job.total_updates();
        if alg == Algorithm::Het {
            facts.chunk_twin = Some((chunks_per_worker(&stats), chunks_per_worker(&twin)));
        }
        facts.verified = Some(verify(t, prod, &c));
        count_net(t, job, &[&stats]);
        facts
    }

    fn fed_cell(&self, t: &mut Tracer, prod: &Product) -> CellFacts {
        let job = &prod.job;
        let runtime = FedNetRuntime::new(self.fed.clone()).with_options(opts());
        let shards = match runtime.shard_jobs(job) {
            Ok(s) => s,
            Err(e) => return CellFacts::failed(e.to_string()),
        };
        let mut facts = CellFacts::default();
        let mut policies = Vec::new();
        for (s, shard) in shards.iter().enumerate() {
            let base = &self.fed.star(s).platform.base;
            if let Err(e) = sim_twin(t, base, shard, Algorithm::Het, &mut facts) {
                return CellFacts::failed(e);
            }
            match t.span(Layer::Core, "plan", || {
                build_policy(base, shard, Algorithm::Het)
            }) {
                Ok(p) => policies.push(p),
                Err(e) => return CellFacts::failed(e.to_string()),
            }
        }
        let mut c = t.span(Layer::Bench, "clone_c", || prod.c0.clone());
        // The federated driver owns its per-star policies, so the span
        // carries no master split.
        let run = t.span(Layer::Net, "run_fed", || {
            runtime.run(job, &mut policies, &prod.a, &prod.b, &mut c)
        });
        let run = match run {
            Ok(r) => r,
            Err(e) => return CellFacts::failed(e.to_string()),
        };
        for (s, stats) in run.stars.iter().enumerate() {
            facts.add_net_run(stats, &self.fed.star(s).platform.base);
        }
        facts.expected_updates = 2 * job.total_updates();
        facts.verified = Some(verify(t, prod, &c));
        count_net(t, job, &run.stars.iter().collect::<Vec<_>>());
        facts
    }
}

fn verify(t: &mut Tracer, prod: &Product, c: &BlockMatrix) -> bool {
    let tolerance = tolerance_for(prod.job.t * prod.job.q);
    t.span(Layer::Linalg, "verify", || {
        verify_product(c, &prod.c0, &prod.a, &prod.b, tolerance).passed()
    })
}

/// Counters of one real-data product: bytes moved (computed: blocks ×
/// 8q²) and the block updates of the run and of its verification.
fn count_net(t: &mut Tracer, job: &Job, runs: &[&RunStats]) {
    let blocks: u64 = runs
        .iter()
        .map(|s| s.blocks_to_workers + s.blocks_to_master)
        .sum();
    let updates: u64 = runs.iter().map(|s| s.total_updates).sum();
    t.count(
        "net.bytes_moved",
        (blocks * 8 * (job.q * job.q) as u64) as f64,
    );
    count_linalg(t, job.q, updates, job.total_updates());
}

impl Inputs for NetGemm {
    fn fingerprint(&self) -> u64 {
        let mut h = 0;
        let stars = [&self.star]
            .into_iter()
            .chain(self.fed.stars.iter().map(|s| &s.platform.base));
        for star in stars {
            for w in star.workers() {
                h = fnv(h, &[w.c.to_bits(), w.w.to_bits(), w.m as u64]);
            }
        }
        for p in &self.products {
            for m in [&p.a, &p.b, &p.c0] {
                h = fnv_matrix(h, m);
            }
        }
        h
    }

    fn pass(&self, t: &mut Tracer, out: &mut Pass) {
        for prod in &self.products {
            for alg in ALGS {
                out.cell(t, |t| self.star_cell(t, prod, alg));
            }
        }
        out.cell(t, |t| self.fed_cell(t, &self.products[0]));
    }

    fn probes(&self, counts: &Counts, m: &mut Metrics) {
        let get = |name: &str| counts.get(name).copied().unwrap_or(0.0);
        let (gf32, s32) = gemm_probe(32);
        let (gf80, s80) = gemm_probe(80);
        m.insert("linalg.gemm_gflops_q32".into(), gf32);
        m.insert("linalg.gemm_gflops_q80".into(), gf80);
        m.insert(
            "linalg.est_busy_s".into(),
            get("linalg.updates_q32") * s32 + get("linalg.updates_q80") * s80,
        );
        // What the runtime adds on top of the bare kernel: wire
        // encode/decode, block copies, the reactor and the master.
        let kernel_s = get("net.updates_q32") * s32 + get("net.updates_q80") * s80;
        let run_s = m.get("net.run_s").copied().unwrap_or(0.0);
        m.insert("net.overhead_s".into(), run_s - kernel_s);
    }
}
