//! The four named workloads and what they share: the pass/cell
//! bookkeeping, the seeded stratified generator, and the registry.
//!
//! Run shape (all workloads): closed loop, one client. Set-up generates
//! the inputs from the seed and runs one untimed warm-up pass; every
//! timed pass then runs the identical input set, and every cell of every
//! pass must reproduce the warm-up pass's digest. Between cells an
//! untraced pass ticks the machine-speed reference (`crate::reference`).

pub mod net_gemm;
pub mod paper_sweep;
pub mod stream_mix;
pub mod wide_star;

use std::collections::BTreeMap;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::check::{judge, CellFacts, Failure};
use crate::reference::Reference;
use crate::surface::{block_update, Block};
use crate::trace::Tracer;

/// Wall seconds per model second in the net runtime: pacing sleeps
/// vanish, so a net run is bound by the engine and the kernels.
pub const TIME_SCALE: f64 = 1e-7;

/// Per-layer metrics by name (see `report::PER_LAYER` for the list).
pub type Metrics = BTreeMap<String, f64>;
/// Exact per-pass counters collected by the tracer.
pub type Counts = BTreeMap<&'static str, f64>;

/// One workload's generated inputs.
pub trait Inputs {
    /// Digest of the generated inputs, byte for byte — same seed, same
    /// fingerprint.
    fn fingerprint(&self) -> u64;

    /// One pass over the input set. Must not depend on anything but
    /// `self`: the generators receive only the seed, the program only
    /// the generated inputs.
    fn pass(&self, t: &mut Tracer, out: &mut Pass);

    /// Time spent building inputs that is attributable to a repo layer
    /// (e.g. `dag.build_s` for `lu_dag`), measured during generation.
    fn setup_metrics(&self) -> Vec<(&'static str, f64)> {
        Vec::new()
    }

    /// Direct probes of inner layers on inputs of the sizes this
    /// workload produced (traced runs only). `counts` are the traced
    /// pass's exact counters; `m` already holds the span-derived
    /// metrics and receives the probe results and estimates.
    fn probes(&self, _counts: &Counts, _m: &mut Metrics) {}
}

/// Registry entry.
pub struct WorkloadDef {
    pub name: &'static str,
    /// Why the workload was chosen (one line; mirrored in
    /// `BENCHMARK.json` and the README).
    pub why: &'static str,
    pub generate: fn(seed: u64, quick: bool) -> Box<dyn Inputs>,
}

pub const WORKLOADS: [WorkloadDef; 4] = [
    WorkloadDef {
        name: "paper_sweep",
        why: "the paper's own grid: core planning and the sim engine do nearly all the work, every other layer none",
        generate: paper_sweep::generate,
    },
    WorkloadDef {
        name: "stream_mix",
        why: "recorded online streams, DAG jobs and churn: stream, dag, dyn and obs dominate; drives sim through arrivals and crash cancellation",
        generate: stream_mix::generate,
    },
    WorkloadDef {
        name: "wide_star",
        why: "contention and engine scale through both sim and net: netmodel re-share dominates one leg and is idle in another",
        generate: wide_star::generate,
    },
    WorkloadDef {
        name: "net_gemm",
        why: "real-data execution at q=80 and q=32: the linalg block kernel is most of the wall and about none elsewhere",
        generate: net_gemm::generate,
    },
];

pub fn find(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Outcome of one cell within a pass.
#[derive(Clone, Debug)]
pub struct CellOut {
    pub ms: f64,
    pub digest: u64,
    pub ratios: Vec<(f64, f64)>,
    pub failure: Option<Failure>,
}

/// One pass's cell outcomes, judged against the warm-up pass's digests
/// when there are any.
pub struct Pass<'w> {
    warm: Option<&'w [u64]>,
    pub cells: Vec<CellOut>,
    /// Ticked between cells when present (see `reference`).
    pub reference: Option<&'w mut Reference>,
}

impl<'w> Pass<'w> {
    pub fn new(warm: Option<&'w [u64]>) -> Self {
        Pass {
            warm,
            cells: Vec::new(),
            reference: None,
        }
    }

    /// Runs one cell (one op): times it, stamps its spans with its id,
    /// and applies the failure checks to the facts it returns.
    pub fn cell(&mut self, t: &mut Tracer, f: impl FnOnce(&mut Tracer) -> CellFacts) {
        let id = self.cells.len();
        t.set_cell(id as u32);
        let t0 = Instant::now();
        let facts = f(t);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        // A pass with more cells than the warm-up pass is itself drift.
        let warm = self
            .warm
            .map(|w| w.get(id).copied().unwrap_or(!facts.digest));
        let failure = judge(&facts, warm);
        if let Some(reference) = self.reference.as_deref_mut() {
            reference.catch_up();
        }
        self.cells.push(CellOut {
            ms,
            digest: facts.digest,
            ratios: facts.ratios,
            failure,
        });
    }

    /// The pass's outcomes alone, free of the borrows it ran with.
    pub fn detach(self) -> Pass<'static> {
        Pass {
            warm: None,
            cells: self.cells,
            reference: None,
        }
    }

    pub fn digests(&self) -> Vec<u64> {
        self.cells.iter().map(|c| c.digest).collect()
    }

    #[cfg(test)]
    pub fn failed(&self) -> usize {
        self.cells.iter().filter(|c| c.failure.is_some()).count()
    }

    /// Geometric mean of makespan ÷ bound over the pass's sim-engine
    /// runs (NaN when there are none or one is not positive).
    pub fn bound_ratio_gmean(&self) -> f64 {
        let logs: Vec<f64> = self
            .cells
            .iter()
            .flat_map(|c| &c.ratios)
            .map(|&(makespan, bound)| (makespan / bound).ln())
            .collect();
        (logs.iter().sum::<f64>() / logs.len() as f64).exp()
    }
}

/// Adds one real-data run's block updates of side `q` to the linalg and
/// net counters: `run` updates executed by the net runtime's workers
/// plus `reference` updates of the `verify_product` oracle. Each update
/// is `2q³` flops over `24q²` computed bytes (the A, B and C tiles,
/// `8q²` bytes each; cache misses ignored).
pub fn count_linalg(t: &mut Tracer, q: usize, run: u64, reference: u64) {
    let (per_q, net_per_q) = match q {
        80 => ("linalg.updates_q80", "net.updates_q80"),
        32 => ("linalg.updates_q32", "net.updates_q32"),
        _ => ("linalg.updates_small", "net.updates_small"),
    };
    let (u, qf) = ((run + reference) as f64, q as f64);
    t.count("linalg.updates", u);
    t.count(per_q, u);
    t.count(net_per_q, run as f64);
    t.count("linalg.flops", u * 2.0 * qf * qf * qf);
    t.count("linalg.bytes", u * 24.0 * qf * qf);
}

/// Bare-kernel probe: `(GFLOP/s, seconds per update)` of
/// `gemm::block_update` on random `q × q` blocks, over ~50 ms.
pub fn gemm_probe(q: usize) -> (f64, f64) {
    let mut rng = sub_rng(q as u64, 0x9e);
    let (a, b) = (Block::random(q, &mut rng), Block::random(q, &mut rng));
    let mut c = Block::zeros(q);
    block_update(&mut c, &a, &b);
    let t0 = Instant::now();
    block_update(&mut c, std::hint::black_box(&a), &b);
    let one = t0.elapsed().as_secs_f64().max(1e-9);
    let reps = ((0.05 / one) as usize).clamp(5, 1_000_000);
    let t0 = Instant::now();
    for _ in 0..reps {
        block_update(&mut c, std::hint::black_box(&a), std::hint::black_box(&b));
    }
    std::hint::black_box(&c);
    let per_update = t0.elapsed().as_secs_f64() / reps as f64;
    (2.0 * (q as f64).powi(3) / per_update / 1e9, per_update)
}

/// Per-purpose generator derived from the run seed, so adding draws to
/// one part of a workload never shifts another part's inputs.
pub fn sub_rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// A stratified (Latin-hypercube) source of uniforms for
/// `random_platform`, which draws three factors — `c`, `w`, `m` — per
/// worker, in that order.
///
/// For a `p`-worker platform each factor's `p` draws land one in each
/// of `p` equal strata of `[0, 1)`, in a seed-shuffled order with a
/// seeded offset inside the stratum. Every seed therefore yields a
/// different fully heterogeneous platform, but one whose *spread* of
/// link, speed and memory factors is the same — which keeps the work of
/// a pass (chunk counts, simulated events) steady from seed to seed, as
/// the acceptance driver compares `wall_s` across seeds.
///
/// The mapping relies on the vendored `rand` deriving every `f64` draw
/// from the top 53 bits of one `next_u64`.
pub struct Stratified {
    inner: StdRng,
    strata: [Vec<u32>; 3],
    draw: usize,
}

impl Stratified {
    pub fn new(mut inner: StdRng, p: usize) -> Self {
        let mut shuffled = || {
            let mut v: Vec<u32> = (0..p as u32).collect();
            for i in (1..p).rev() {
                v.swap(i, inner.random_range(0..=i));
            }
            v
        };
        let strata = [shuffled(), shuffled(), shuffled()];
        Stratified {
            inner,
            strata,
            draw: 0,
        }
    }
}

impl Rng for Stratified {
    fn next_u64(&mut self) -> u64 {
        let p = self.strata[0].len();
        let (worker, factor) = (self.draw / 3 % p, self.draw % 3);
        self.draw += 1;
        let u = (f64::from(self.strata[factor][worker]) + self.inner.next_f64()) / p as f64;
        const MANTISSA: u64 = 1 << 53;
        ((u * MANTISSA as f64) as u64).min(MANTISSA - 1) << 11
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::surface::{random_platform, RandomPlatformConfig};

    #[test]
    fn registry_names_are_the_contract() {
        let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(
            names,
            ["paper_sweep", "stream_mix", "wide_star", "net_gemm"]
        );
        assert!(find("wide_star").is_some() && find("nope").is_none());
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
    }

    #[test]
    fn stratified_draws_cover_every_stratum_once() {
        let p = 9;
        let mut rng = Stratified::new(sub_rng(3, 1), p);
        let mut seen = [vec![false; p], vec![false; p], vec![false; p]];
        for draw in 0..3 * p {
            let u = rng.next_f64();
            assert!((0.0..1.0).contains(&u));
            let stratum = (u * p as f64) as usize;
            assert!(!std::mem::replace(&mut seen[draw % 3][stratum], true));
        }
        assert!(seen.iter().flatten().all(|&s| s));
    }

    #[test]
    fn stratified_platforms_differ_by_seed_but_share_their_spread() {
        let cfg = RandomPlatformConfig {
            p: 8,
            max_ratio: 4.0,
        };
        let draw = |seed| random_platform(cfg, "r", &mut Stratified::new(sub_rng(seed, 1), 8));
        let (a, a2, b) = (draw(1), draw(1), draw(2));
        assert_eq!(a, a2);
        assert_ne!(a, b);
        let sorted_m = |p: &crate::surface::Platform| {
            let mut m: Vec<usize> = p.workers().iter().map(|w| w.m).collect();
            m.sort_unstable();
            m
        };
        // One memory size per stratum: the sorted sizes of two seeds
        // differ by less than a stratum's width.
        for (x, y) in sorted_m(&a).iter().zip(sorted_m(&b)) {
            assert!((*x as f64 / y as f64) < 1.6 && (y as f64 / *x as f64) < 1.6);
        }
    }

    /// Same seed ⇒ byte-identical inputs and outputs; another seed ⇒
    /// different ones. (Quick size: the generators and checks are the
    /// same code at every size.)
    #[test]
    fn inputs_and_digests_are_a_function_of_the_seed() {
        for def in &WORKLOADS {
            let run = |seed| {
                let inputs = (def.generate)(seed, true);
                let mut pass = Pass::new(None);
                inputs.pass(&mut Tracer::new(false), &mut pass);
                assert_eq!(pass.failed(), 0, "{}: {:?}", def.name, pass.cells);
                assert!(pass.bound_ratio_gmean() >= 1.0, "{}", def.name);
                (inputs.fingerprint(), pass.digests())
            };
            let (a, a2, b) = (run(11), run(11), run(12));
            assert_eq!(a, a2, "{}: same seed, different run", def.name);
            assert_ne!(a.0, b.0, "{}: seed does not reach the inputs", def.name);
            assert_ne!(a.1, b.1, "{}: seed does not reach the outputs", def.name);
        }
    }

    /// A traced pass computes what an untraced one does.
    #[test]
    fn tracing_does_not_change_the_outputs() {
        for def in &WORKLOADS {
            let inputs = (def.generate)(5, true);
            let digests = |traced| {
                let (mut t, mut pass) = (Tracer::new(traced), Pass::new(None));
                inputs.pass(&mut t, &mut pass);
                (pass.digests(), t.take().0.len())
            };
            let ((plain, no_spans), (traced, spans)) = (digests(false), digests(true));
            assert_eq!(plain, traced, "{}", def.name);
            assert!(no_spans == 0 && spans > 0, "{}", def.name);
        }
    }

    #[test]
    fn a_pass_ticks_its_reference_between_cells() {
        let mut reference = Reference::new();
        reference.take();
        let mut pass = Pass::new(None);
        pass.reference = Some(&mut reference);
        let mut t = Tracer::new(false);
        for _ in 0..2 {
            pass.cell(&mut t, |_| {
                std::thread::sleep(std::time::Duration::from_millis(30));
                CellFacts::default()
            });
        }
        let pass = pass.detach();
        assert_eq!(pass.cells.len(), 2);
        assert!(reference.take().ticks >= 2);
    }

    #[test]
    fn pass_judges_cells_against_the_warm_up() {
        let mut t = Tracer::new(false);
        let facts = |digest| CellFacts {
            ratios: vec![(2.0, 1.0)],
            digest,
            ..CellFacts::default()
        };
        let mut warm = Pass::new(None);
        warm.cell(&mut t, |_| facts(1));
        warm.cell(&mut t, |_| facts(2));
        assert_eq!((warm.failed(), warm.digests()), (0, vec![1, 2]));
        assert!((warm.bound_ratio_gmean() - 2.0).abs() < 1e-12);

        let digests = warm.digests();
        let mut pass = Pass::new(Some(&digests));
        pass.cell(&mut t, |_| facts(1));
        pass.cell(&mut t, |_| facts(9)); // drifted
        pass.cell(&mut t, |_| facts(3)); // not in the warm-up at all
        let kinds: Vec<_> = pass
            .cells
            .iter()
            .map(|c| c.failure.as_ref().map(Failure::kind))
            .collect();
        assert_eq!(kinds, [None, Some("digest"), Some("digest")]);
    }
}
