//! Incremental resource selection for heterogeneous platforms — the
//! paper's main practical contribution (Section 5).
//!
//! Phase 1 pre-computes the allocation of chunks to workers with a
//! step-by-step simulation of the master's link: each selection assigns
//! one `μ_i × μ_i` chunk (processed over `t` steps) to a worker, chosen
//! by one of eight heuristics — {global, local} × {greedy, look-ahead} ×
//! {count C I/O, ignore it}. Every `⌈r/μ_i⌉` selections a worker locks in
//! a strip of `μ_i` block columns; the phase stops when all of C is
//! allocated.
//!
//! Phase 2 executes the allocation with the generic streaming master
//! (demand-driven serving over the statically allocated queues).
//!
//! The `Het` competitor of Section 6 simulates all eight variants and
//! runs the best one — [`het_best`] reproduces exactly that decision,
//! simulating each *distinct schedule shape* once: the variants differ
//! only in how phase 1 scores a selection, and on most platforms several
//! of them hand every worker the same sequence of chunks.

use serde::{Deserialize, Serialize};
use stargemm_platform::Platform;
use stargemm_sim::{ChunkDescr, Simulator};

use crate::assign::layout_sides;
use crate::geometry::{carve_strip, PlannedChunk};
use crate::job::Job;
use crate::stream::{Serving, StreamingMaster};

/// One of the eight selection heuristics.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SelectionVariant {
    /// `true`: local ratio (work of this assignment over the link time it
    /// occupies); `false`: global ratio (total work over completion time
    /// of the last communication).
    pub local: bool,
    /// Evaluate pairs of consecutive selections instead of one.
    pub lookahead: bool,
    /// Charge the C-chunk I/O (`2μ²c`) to the selection's communication
    /// time instead of neglecting it.
    pub c_cost: bool,
}

impl SelectionVariant {
    /// All eight variants, in a stable order.
    pub fn all() -> [SelectionVariant; 8] {
        let mut v = [SelectionVariant {
            local: false,
            lookahead: false,
            c_cost: false,
        }; 8];
        for (i, slot) in v.iter_mut().enumerate() {
            slot.local = i & 1 != 0;
            slot.lookahead = i & 2 != 0;
            slot.c_cost = i & 4 != 0;
        }
        v
    }

    /// Short label, e.g. `"global+la+c"`.
    pub fn label(&self) -> String {
        format!(
            "{}{}{}",
            if self.local { "local" } else { "global" },
            if self.lookahead { "+la" } else { "" },
            if self.c_cost { "+c" } else { "" },
        )
    }
}

/// Link/worker timing model of one candidate selection.
#[derive(Clone, Copy, Debug)]
struct Projection {
    /// Completion time of the assignment's communication.
    link_after: f64,
    /// When the worker would finish computing the assigned chunk.
    ready_after: f64,
    /// Block updates the assignment performs.
    work: f64,
}

/// Internal selection state.
struct SelState {
    link: f64,
    ready: Vec<f64>,
    total_work: f64,
}

/// Projects one `μ × μ` chunk over `t` steps onto a worker that is free
/// at `ready`, behind a link that is free at `link`.
fn project(
    link: f64,
    ready: f64,
    mu: usize,
    c: f64,
    wt: f64,
    t: usize,
    c_cost: bool,
) -> Projection {
    let mu_f = mu as f64;
    let t_f = t as f64;
    let mut d_comm = 2.0 * mu_f * t_f * c;
    if c_cost {
        d_comm += 2.0 * mu_f * mu_f * c; // C chunk in and out
    }
    let d_comp = t_f * mu_f * mu_f * wt;
    // The worker's limited memory forbids receiving the next chunk's
    // data much in advance: its communication starts when both the
    // link and the worker are available.
    let start = link.max(ready);
    Projection {
        link_after: start + d_comm,
        ready_after: start + d_comm.max(d_comp),
        work: mu_f * mu_f * t_f,
    }
}

impl SelState {
    fn ratio(&self, p: Projection, variant: SelectionVariant) -> f64 {
        if variant.local {
            p.work / (p.link_after - self.link).max(f64::MIN_POSITIVE)
        } else {
            (self.total_work + p.work) / p.link_after.max(f64::MIN_POSITIVE)
        }
    }

    fn commit(&mut self, w: usize, p: Projection) {
        self.link = p.link_after;
        self.ready[w] = p.ready_after;
        self.total_work += p.work;
    }
}

/// The phase-1 allocation: per-worker chunk queues (indexed by worker id)
/// plus the selection sequence for inspection.
#[derive(Clone, Debug)]
pub struct HetAllocation {
    /// Per-worker chunk queues in materialization order.
    pub queues: Vec<Vec<PlannedChunk>>,
    /// Worker chosen at each selection step.
    pub selections: Vec<usize>,
}

/// Runs phase 1 for one variant.
///
/// # Panics
/// Panics when no worker can hold the layout.
pub fn allocate(platform: &Platform, job: &Job, variant: SelectionVariant) -> HetAllocation {
    let p = platform.len();
    let sides = layout_sides(platform, job);
    assert!(
        sides.iter().any(|&s| s > 0),
        "no worker fits the memory layout"
    );
    let usable: Vec<usize> = (0..p).filter(|&w| sides[w] > 0).collect();
    let cps: Vec<usize> = (0..p)
        .map(|w| {
            if sides[w] > 0 {
                job.r.div_ceil(sides[w])
            } else {
                usize::MAX
            }
        })
        .collect();

    let mut st = SelState {
        link: 0.0,
        ready: vec![0.0; p],
        total_work: 0.0,
    };
    let mut sel_count = vec![0usize; p];
    let mut queues = vec![Vec::new(); p];
    let mut selections = Vec::new();
    let mut next_col = 0usize;
    let mut next_id = 0u32;

    let project_on = |w: usize, link: f64, ready: f64| {
        let spec = platform.worker(w);
        project(link, ready, sides[w], spec.c, spec.w, job.t, variant.c_cost)
    };

    while next_col < job.s {
        let score = |st: &SelState, w: usize| -> (f64, Projection) {
            let proj = project_on(w, st.link, st.ready[w]);
            if !variant.lookahead {
                return (st.ratio(proj, variant), proj);
            }
            // Look-ahead: score the best follow-up selection as if w were
            // committed; the pair's combined ratio decides. Committing w
            // moves the link and w's own ready time, nothing else.
            let mut best_pair = f64::NEG_INFINITY;
            for &w2 in &usable {
                let ready2 = if w2 == w {
                    proj.ready_after
                } else {
                    st.ready[w2]
                };
                let proj2 = project_on(w2, proj.link_after, ready2);
                let pair = if variant.local {
                    (proj.work + proj2.work) / (proj2.link_after - st.link).max(f64::MIN_POSITIVE)
                } else {
                    (st.total_work + proj.work + proj2.work)
                        / proj2.link_after.max(f64::MIN_POSITIVE)
                };
                best_pair = best_pair.max(pair);
            }
            (best_pair, proj)
        };

        let mut best: Option<(f64, usize, Projection)> = None;
        for &w in &usable {
            let (r, proj) = score(&st, w);
            if best
                .as_ref()
                .is_none_or(|(br, bw, _)| r > *br + 1e-15 || (r > *br - 1e-15 && w < *bw))
            {
                // Strictly better, or tied with a smaller index.
                if best.as_ref().is_none_or(|(br, _, _)| r > *br - 1e-15) {
                    best = Some((r, w, proj));
                }
            }
        }
        let (_, w, proj) = best.expect("usable non-empty");
        st.commit(w, proj);
        sel_count[w] += 1;
        selections.push(w);
        if sel_count[w].is_multiple_of(cps[w]) {
            if let Some(strip) = carve_strip(job, w, sides[w], 1, &mut next_col, &mut next_id) {
                queues[w].extend(strip);
            }
        }
    }

    HetAllocation { queues, selections }
}

/// The phase-2 executable policy over phase-1 queues.
fn het_master(job: &Job, queues: Vec<Vec<PlannedChunk>>) -> StreamingMaster {
    StreamingMaster::new_static("Het", *job, queues, Serving::DemandDriven, 2)
}

/// Builds the phase-2 executable policy for one variant.
pub fn het_policy(platform: &Platform, job: &Job, variant: SelectionVariant) -> StreamingMaster {
    het_master(job, allocate(platform, job, variant).queues)
}

/// Whether two sets of queues are the same schedule to the simulator:
/// every worker is handed the same sequence of chunk descriptors. Chunk
/// ids only name chunks and the C region a chunk covers is the master's
/// business, so neither is compared.
fn same_shape(a: &[Vec<PlannedChunk>], b: &[Vec<PlannedChunk>]) -> bool {
    let unnamed = |pc: &PlannedChunk| ChunkDescr { id: 0, ..pc.descr };
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(qa, qb)| qa.iter().map(unnamed).eq(qb.iter().map(unnamed)))
}

/// Scores all eight variants by simulation and returns a fresh policy of
/// the best one, its variant, and every variant's simulated makespan —
/// exactly the paper's `Het` decision procedure.
///
/// The phase-2 master decides from chunk descriptors alone, and a static
/// [`Simulator::run`] is a pure function of (platform, the descriptors it
/// is handed per worker): a variant whose queues have the shape of an
/// earlier variant's — every worker's whole sequence of descriptors,
/// ids aside, compared in full, never by digest — takes that variant's
/// makespan instead of a second run. The winner is the first variant,
/// in [`SelectionVariant::all`] order, strictly below every earlier one
/// — so the first of its shape class, and the returned policy runs its
/// own queues.
pub fn het_best(
    platform: &Platform,
    job: &Job,
) -> (
    StreamingMaster,
    SelectionVariant,
    Vec<(SelectionVariant, f64)>,
) {
    let sim = Simulator::new(platform.clone());
    // The first allocation of each shape so far, with its makespan.
    let mut distinct: Vec<(Vec<Vec<PlannedChunk>>, f64)> = Vec::new();
    let mut scores = Vec::with_capacity(8);
    // (makespan, variant, index into `distinct`)
    let mut best: Option<(f64, SelectionVariant, usize)> = None;
    for v in SelectionVariant::all() {
        let queues = allocate(platform, job, v).queues;
        let slot = match distinct.iter().position(|(q, _)| same_shape(q, &queues)) {
            Some(slot) => slot,
            None => {
                let makespan = match sim.run(&mut het_master(job, queues.clone())) {
                    Ok(stats) => stats.makespan,
                    Err(_) => f64::INFINITY, // infeasible variant: never picked
                };
                distinct.push((queues, makespan));
                distinct.len() - 1
            }
        };
        let makespan = distinct[slot].1;
        scores.push((v, makespan));
        if best.is_none_or(|(b, ..)| makespan < b) {
            best = Some((makespan, v, slot));
        }
    }
    let (_, v, slot) = best.expect("eight variants scored");
    (het_master(job, distinct.swap_remove(slot).0), v, scores)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::validate_coverage;
    use stargemm_platform::WorkerSpec;

    fn het_platform() -> Platform {
        Platform::new(
            "het",
            vec![
                WorkerSpec::new(0.5, 0.2, 60),
                WorkerSpec::new(1.0, 0.4, 30),
                WorkerSpec::new(2.0, 0.8, 120),
                WorkerSpec::new(4.0, 1.6, 15),
            ],
        )
    }

    fn job() -> Job {
        Job::new(12, 8, 20, 2)
    }

    #[test]
    fn all_variants_are_distinct() {
        let vs = SelectionVariant::all();
        for i in 0..8 {
            for j in i + 1..8 {
                assert_ne!(vs[i], vs[j]);
            }
        }
        assert_eq!(vs[0].label(), "global");
        assert_eq!(vs[7].label(), "local+la+c");
    }

    #[test]
    fn every_variant_covers_c() {
        for v in SelectionVariant::all() {
            let alloc = allocate(&het_platform(), &job(), v);
            let geoms: Vec<_> = alloc.queues.iter().flatten().map(|c| c.geom).collect();
            validate_coverage(&job(), &geoms).unwrap();
            assert!(!alloc.selections.is_empty());
        }
    }

    #[test]
    fn selection_favors_efficient_workers() {
        // Worker 0 has the best link and CPU; it must receive the most
        // work under every variant.
        for v in SelectionVariant::all() {
            let alloc = allocate(&het_platform(), &job(), v);
            let work: Vec<u64> = alloc
                .queues
                .iter()
                .map(|q| q.iter().map(|c| c.descr.total_updates()).sum())
                .collect();
            let max = *work.iter().max().unwrap();
            assert_eq!(work[0], max, "{}: {work:?}", v.label());
        }
    }

    #[test]
    fn het_policies_run_to_completion() {
        use stargemm_sim::Simulator;
        for v in SelectionVariant::all() {
            let mut policy = het_policy(&het_platform(), &job(), v);
            let stats = Simulator::new(het_platform()).run(&mut policy).unwrap();
            assert_eq!(stats.total_updates, job().total_updates(), "{}", v.label());
        }
    }

    #[test]
    fn het_best_picks_the_minimum() {
        let (policy, v, scores) = het_best(&het_platform(), &job());
        assert_eq!(scores.len(), 8);
        let min = scores.iter().map(|(_, m)| *m).fold(f64::INFINITY, f64::min);
        let picked = scores.iter().find(|(sv, _)| *sv == v).unwrap().1;
        assert!((picked - min).abs() < 1e-12);
        assert_eq!(stargemm_sim::MasterPolicy::name(&policy), "Het");
    }

    /// The B widths of the repo benchmark's `paper_sweep`.
    const WIDTHS: [usize; 3] = [64_000, 96_000, 128_000];

    /// The seven Section-6 presets × the three B widths of the repo
    /// benchmark's `paper_sweep`.
    fn section_6_cells() -> Vec<(Platform, Job)> {
        use stargemm_platform::presets;
        let platforms = [
            presets::homogeneous(8),
            presets::het_memory(),
            presets::het_comm(),
            presets::het_comp(),
            presets::fully_het(2.0),
            presets::fully_het(4.0),
            presets::lyon(true),
        ];
        platforms
            .iter()
            .flat_map(|p| WIDTHS.map(|n_b| (p.clone(), Job::paper(n_b))))
            .collect()
    }

    /// Ten seeded `random_platform` draws as `paper_sweep` makes them
    /// (p = 4–12, ratio 2 and 4), one B width each.
    fn random_cells() -> Vec<(Platform, Job)> {
        use rand::SeedableRng;
        use stargemm_platform::random::{random_platform, RandomPlatformConfig};
        let mut rng = rand::rngs::StdRng::seed_from_u64(2008);
        (0..10)
            .map(|i| {
                let cfg = RandomPlatformConfig {
                    p: 4 + i % 9,
                    max_ratio: if i % 2 == 0 { 2.0 } else { 4.0 },
                };
                let platform = random_platform(cfg, format!("random-{i}"), &mut rng);
                (platform, Job::paper(WIDTHS[i % 3]))
            })
            .collect()
    }

    /// The paper's decision procedure the long way — every variant
    /// allocated and simulated on its own — is the oracle: `het_best`
    /// must report the same eight makespans to the bit, pick the first
    /// strict minimum, and hand back that variant's policy.
    #[test]
    fn het_best_agrees_with_simulating_every_variant() {
        for (platform, job) in section_6_cells().into_iter().chain(random_cells()) {
            let cell = format!("{} n_b={}", platform.name, job.s * job.q);
            let sim = Simulator::new(platform.clone());
            let long_way: Vec<_> = SelectionVariant::all()
                .into_iter()
                .map(|v| (v, sim.run(&mut het_policy(&platform, &job, v)).ok()))
                .collect();
            let makespan = |i: usize| long_way[i].1.as_ref().map_or(f64::INFINITY, |s| s.makespan);
            let want = (1..8).fold(0, |b, i| if makespan(i) < makespan(b) { i } else { b });

            let (mut policy, picked, scores) = het_best(&platform, &job);
            assert_eq!(scores.len(), 8, "{cell}");
            for (i, &(v, m)) in scores.iter().enumerate() {
                assert_eq!(v, long_way[i].0, "{cell}");
                assert_eq!(m.to_bits(), makespan(i).to_bits(), "{cell} {}", v.label());
            }
            assert_eq!(picked, long_way[want].0, "{cell}");
            let stats = sim.run(&mut policy).unwrap();
            assert_eq!(stats.total_updates, job.total_updates(), "{cell}");
            assert_eq!(Some(&stats), long_way[want].1.as_ref(), "{cell}");
        }
    }

    /// The premise of [`same_shape`]: renaming every chunk and moving
    /// the C region it covers changes nothing the simulator reports.
    #[test]
    fn renamed_and_moved_chunks_simulate_identically() {
        use stargemm_platform::presets;
        let (platform, job) = (presets::fully_het(4.0), Job::paper(64_000));
        let queues = allocate(&platform, &job, SelectionVariant::all()[5]).queues;
        let total: u32 = queues.iter().map(|q| q.len() as u32).sum();
        let renamed: Vec<Vec<PlannedChunk>> = queues
            .iter()
            .map(|q| {
                q.iter()
                    .map(|pc| {
                        // Ids reversed, regions shifted one block down
                        // and right.
                        let id = total - 1 - pc.geom.id;
                        let mut geom = pc.geom;
                        (geom.id, geom.i0, geom.j0) = (id, geom.i0 + 1, geom.j0 + 1);
                        PlannedChunk {
                            geom,
                            descr: ChunkDescr { id, ..pc.descr },
                        }
                    })
                    .collect()
            })
            .collect();
        assert!(same_shape(&queues, &renamed));
        assert_ne!(queues, renamed);
        let sim = Simulator::new(platform);
        let a = sim.run(&mut het_master(&job, queues)).unwrap();
        let b = sim.run(&mut het_master(&job, renamed)).unwrap();
        assert_eq!(a.makespan.to_bits(), b.makespan.to_bits());
        assert_eq!(a, b);
    }

    /// How many of the eight variants differ in shape decides how many
    /// simulations `het_best` saves. Pinned on cells where nearly all
    /// coincide and on ones where nearly none do, so the oracle test
    /// above is known to cross both the copy path and the simulate path.
    #[test]
    fn coinciding_variants_are_counted_by_schedule_shape() {
        let distinct = |platform: &Platform, job: &Job| {
            let mut seen: Vec<Vec<Vec<PlannedChunk>>> = Vec::new();
            for v in SelectionVariant::all() {
                let queues = allocate(platform, job, v).queues;
                if !seen.iter().any(|q| same_shape(q, &queues)) {
                    seen.push(queues);
                }
            }
            seen.len()
        };
        for (platform, job) in section_6_cells() {
            let want = match (platform.name.as_str(), job.s) {
                ("fully-het-ratio4", 1200) => 7,
                ("fully-het-ratio4", _) | ("het-memory", _) => 6,
                ("fully-het-ratio2", 800) => 5,
                ("fully-het-ratio2", _) => 4,
                _ => 2,
            };
            assert_eq!(
                distinct(&platform, &job),
                want,
                "{} s={}",
                platform.name,
                job.s
            );
        }
    }

    #[test]
    fn allocation_is_deterministic() {
        let v = SelectionVariant {
            local: true,
            lookahead: true,
            c_cost: true,
        };
        let a = allocate(&het_platform(), &job(), v);
        let b = allocate(&het_platform(), &job(), v);
        assert_eq!(a.selections, b.selections);
    }

    #[test]
    fn single_worker_platform_degenerates_gracefully() {
        let p = Platform::new("one", vec![WorkerSpec::new(1.0, 1.0, 60)]);
        let alloc = allocate(&p, &job(), SelectionVariant::all()[0]);
        let geoms: Vec<_> = alloc.queues.iter().flatten().map(|c| c.geom).collect();
        validate_coverage(&job(), &geoms).unwrap();
        assert!(alloc.selections.iter().all(|&w| w == 0));
    }
}
