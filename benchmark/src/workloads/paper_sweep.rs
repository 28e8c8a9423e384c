//! `paper_sweep` — the paper's own traffic.
//!
//! The seven Section-6 presets plus seeded `random_platform` draws
//! (p = 4–12, ratio 2 and 4), each rendered to text at set-up and parsed
//! back inside the pass, × `Job::paper` at three B widths × the seven
//! algorithms; one-port, static, recorder off. Per cell:
//! `parse_platform → makespan_lower_bound → build_policy →
//! Simulator::run`.
//!
//! Chosen because `core` planning and the `sim` engine do nearly all the
//! work while `netmodel` (one lane), `obs`, `stream`, `dag`, `net` and
//! `linalg` do none: it is the bypass workload for every optimisation of
//! those layers.

use crate::check::{fnv_bytes, CellFacts};
use crate::surface::{
    build_policy, makespan_lower_bound, parse_platform, presets, random_platform,
    render_dyn_platform, Algorithm, DynPlatform, Job, Platform, RandomPlatformConfig, Simulator,
};
use crate::trace::{Layer, Tracer};
use crate::workloads::{sub_rng, Inputs, Pass, Stratified};

/// B widths (scalar columns) of `Job::paper`.
const B_WIDTHS: [usize; 3] = [64_000, 96_000, 128_000];
/// Random platforms per pass. With the 7 presets: 47 platforms × 3
/// widths × 7 algorithms = 987 cells.
const RANDOM_PLATFORMS: usize = 40;
const RANDOM_PLATFORMS_QUICK: usize = 1;
/// Redraw budget for a platform some algorithm cannot lay out.
const MAX_REDRAWS: u64 = 64;

pub struct PaperSweep {
    /// `(name, platform text)`; the pass sees only the text.
    platforms: Vec<(String, String)>,
    jobs: Vec<Job>,
}

/// Whether all seven algorithms have a feasible layout for `job`.
/// `Het`, `ORROML` and `OMMOML` share `ODDOML`'s layout test, so the
/// four cheap builds decide it without running Het's selection.
fn all_algorithms_feasible(platform: &Platform, job: &Job) -> bool {
    [
        Algorithm::Hom,
        Algorithm::HomImproved,
        Algorithm::Oddoml,
        Algorithm::Bmm,
    ]
    .into_iter()
    .all(|alg| build_policy(platform, job, alg).is_ok())
}

pub fn generate(seed: u64, quick: bool) -> Box<dyn Inputs> {
    let jobs: Vec<Job> = if quick {
        vec![Job::paper(B_WIDTHS[0])]
    } else {
        B_WIDTHS.into_iter().map(Job::paper).collect()
    };
    let mut platforms: Vec<Platform> = if quick {
        vec![presets::fully_het(2.0)]
    } else {
        vec![
            presets::homogeneous(8),
            presets::het_memory(),
            presets::het_comm(),
            presets::het_comp(),
            presets::fully_het(2.0),
            presets::fully_het(4.0),
            presets::lyon(true),
        ]
    };
    let n_random = if quick {
        RANDOM_PLATFORMS_QUICK
    } else {
        RANDOM_PLATFORMS
    };
    for i in 0..n_random {
        // Worker count and ratio cycle deterministically (the work of a
        // cell depends on them most); the seed decides every worker.
        let cfg = RandomPlatformConfig {
            p: 4 + i % 9,
            max_ratio: if i % 2 == 0 { 2.0 } else { 4.0 },
        };
        let platform = (0..MAX_REDRAWS)
            .map(|redraw| {
                let stream = 1 + i as u64 * MAX_REDRAWS + redraw;
                let mut rng = Stratified::new(sub_rng(seed, stream), cfg.p);
                random_platform(cfg, format!("random-{i}"), &mut rng)
            })
            .find(|p| jobs.iter().all(|j| all_algorithms_feasible(p, j)))
            .expect("a paper-sized platform is feasible within the redraw budget");
        platforms.push(platform);
    }
    let platforms = platforms
        .into_iter()
        .map(|p| {
            let text = render_dyn_platform(&DynPlatform::constant(p.clone()));
            (p.name, text)
        })
        .collect();
    Box::new(PaperSweep { platforms, jobs })
}

impl Inputs for PaperSweep {
    fn fingerprint(&self) -> u64 {
        let mut h = 0;
        for (name, text) in &self.platforms {
            h = fnv_bytes(fnv_bytes(h, name.as_bytes()), text.as_bytes());
        }
        for j in &self.jobs {
            h = fnv_bytes(h, format!("{j:?}").as_bytes());
        }
        h
    }

    fn pass(&self, t: &mut Tracer, out: &mut Pass) {
        for (name, text) in &self.platforms {
            for job in &self.jobs {
                for alg in Algorithm::all() {
                    out.cell(t, |t| cell(t, name, text, job, alg));
                }
            }
        }
    }
}

fn cell(t: &mut Tracer, name: &str, text: &str, job: &Job, alg: Algorithm) -> CellFacts {
    let platform = match t.span(Layer::Platform, "parse", || {
        parse_platform(name, text, job.q)
    }) {
        Ok(p) => p,
        Err(e) => return CellFacts::failed(format!("parse {name}: {e}")),
    };
    let bound = t.span(Layer::Core, "bound", || {
        makespan_lower_bound(&platform, job)
    });
    let mut policy = match t.span(Layer::Core, "plan", || build_policy(&platform, job, alg)) {
        Ok(p) => p,
        Err(e) => return CellFacts::failed(format!("{} on {name}: {e}", alg.name())),
    };
    let sim = Simulator::new(platform.clone());
    let run = t.engine(Layer::Sim, "run", Layer::Core, &mut policy, |p| sim.run(p));
    match run {
        Ok(stats) => {
            let mut facts = CellFacts {
                expected_updates: job.total_updates(),
                ..CellFacts::default()
            };
            facts.add_sim_run(&stats, bound, &platform);
            facts
        }
        Err(e) => CellFacts::failed(format!("{} on {name}: {e}", alg.name())),
    }
}
