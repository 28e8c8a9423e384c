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
//! runs the best one — [`het_best`] reproduces exactly that decision
//! while simulating only what can still win. It scores each *distinct
//! schedule shape* once (the variants differ only in how phase 1 scores
//! a selection, and on most platforms several of them hand every worker
//! the same sequence of chunks), best-first by a static one-port lower
//! bound; it skips a shape whose bound exceeds the best makespan so far,
//! and cuts a scoring run at the first chunk boundary where a bound on
//! its remaining work does.

use serde::{Deserialize, Serialize};
use stargemm_platform::Platform;
use stargemm_sim::{Action, ChunkDescr, MasterPolicy, MatKind, SimCtx, SimEvent, Simulator};

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

/// How [`het_best`] scored one variant.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Score {
    /// The variant's simulated makespan (`f64::INFINITY` when its
    /// schedule is infeasible).
    Makespan(f64),
    /// Never simulated: its shape's static bound already exceeded the
    /// best makespan found. The value is that bound.
    Pruned(f64),
    /// Its scoring run was cut at a chunk boundary where the bound on
    /// what the run still had to do exceeded the best makespan found.
    /// The value is that bound.
    Cut(f64),
}

impl Score {
    /// The makespan, or the lower bound on it that proved the variant
    /// loses.
    pub fn value(self) -> f64 {
        match self {
            Score::Makespan(v) | Score::Pruned(v) | Score::Cut(v) => v,
        }
    }
}

/// Relative slack every makespan bound gives up. The bounds sum port and
/// compute times in another order than the engine does, so a bound that
/// is tight in exact arithmetic can round a few ulps above the simulated
/// makespan; deflated by this much it cannot. A shape whose makespan
/// ties the best one is therefore never pruned or cut.
const BOUND_SLACK: f64 = 1e-9;

/// The transfers of a chunk that keep its worker from computing: its C
/// load, its first B and A fragments and its retrieval, in blocks.
fn serial_blocks(d: &ChunkDescr) -> u64 {
    2 * d.c_blocks + d.b_for(0) + d.a_for(0)
}

/// What a phase-2 schedule still has to do, per worker, booked as the
/// master issues fragments: enough to bound its one-port makespan from
/// below at any decision instant.
///
/// The port carries every transfer in turn. A worker computes one step
/// at a time, and the streaming master opens a lane's next chunk only
/// once the previous one is retrieved; so on each worker a chunk's C
/// load and first B and A fragments, its computation and its retrieval
/// follow each other, and never overlap its other chunks.
#[derive(Debug)]
struct Outstanding {
    /// Blocks not yet issued, both directions.
    port_blocks: Vec<u64>,
    /// Updates of the steps whose A fragment (a step's last) is not yet
    /// issued.
    updates: Vec<u64>,
    /// [`serial_blocks`] of the chunks not yet opened.
    unopened: Vec<u64>,
    /// The chunk each worker streams, from its C load until its
    /// retrieval is issued.
    open: Vec<Option<ChunkDescr>>,
}

impl Outstanding {
    fn new(queues: &[Vec<PlannedChunk>]) -> Self {
        let per_worker = |f: fn(&ChunkDescr) -> u64| -> Vec<u64> {
            let sum = |q: &Vec<PlannedChunk>| q.iter().map(|pc| f(&pc.descr)).sum();
            queues.iter().map(sum).collect()
        };
        Outstanding {
            port_blocks: per_worker(|d| d.total_blocks_in() + d.c_blocks),
            updates: per_worker(ChunkDescr::total_updates),
            unopened: per_worker(serial_blocks),
            open: vec![None; queues.len()],
        }
    }

    /// A lower bound on the makespan, at decision instant `now` with
    /// worker `w` computing until `compute_free_at(w)`: the larger of
    /// `now` + the port time not yet issued and, per worker,
    /// `compute_free_at` + its updates left × `w_i` + the retrieval of
    /// its open chunk + the serial transfers of its unopened ones.
    fn bound(&self, platform: &Platform, now: f64, compute_free_at: impl Fn(usize) -> f64) -> f64 {
        let mut port = 0.0;
        let mut worker = now;
        for (w, spec) in platform.iter() {
            port += self.port_blocks[w] as f64 * spec.c;
            let retrieval = self.open[w].map_or(0, |d| d.c_blocks);
            let serial = (retrieval + self.unopened[w]) as f64 * spec.c;
            worker = worker.max(compute_free_at(w) + self.updates[w] as f64 * spec.w + serial);
        }
        (now + port).max(worker) * (1.0 - BOUND_SLACK)
    }

    /// Books an action the master issues: O(1).
    fn issue(&mut self, action: &Action) {
        match *action {
            Action::Send {
                worker,
                ref fragment,
                new_chunk,
            } => {
                if let Some(d) = new_chunk {
                    self.unopened[worker] -= serial_blocks(&d);
                    self.open[worker] = new_chunk;
                }
                self.port_blocks[worker] -= fragment.blocks;
                if fragment.kind == MatKind::A {
                    let open = self.open[worker].expect("an A fragment serves an open chunk");
                    self.updates[worker] -= open.updates_for(fragment.step);
                }
            }
            Action::Retrieve { worker, .. } => {
                let open = self.open[worker].take();
                self.port_blocks[worker] -=
                    open.expect("a retrieval serves an open chunk").c_blocks;
            }
            _ => {}
        }
    }
}

/// A lower bound on the one-port makespan of `queues` run by the phase-2
/// master, from the descriptors alone: [`Outstanding::bound`] before
/// anything is issued.
fn static_bound(platform: &Platform, queues: &[Vec<PlannedChunk>]) -> f64 {
    Outstanding::new(queues).bound(platform, 0.0, |_| 0.0)
}

/// The phase-2 master of one scoring run, cut short as soon as the run
/// provably cannot beat `horizon`.
///
/// At each chunk boundary — a C load or a retrieval, before it is
/// issued — it evaluates [`Outstanding::bound`]. Once that exceeds the
/// horizon it records the bound in `cut` and declares the run finished.
/// The engine accepts that as success whenever no opened chunk is
/// outstanding, so a cut run's `Ok` is no result: `cut` is read first.
struct Scoring<'p> {
    master: StreamingMaster,
    platform: &'p Platform,
    horizon: f64,
    left: Outstanding,
    cut: Option<f64>,
}

impl<'p> Scoring<'p> {
    fn new(platform: &'p Platform, job: &Job, queues: &[Vec<PlannedChunk>], horizon: f64) -> Self {
        Scoring {
            master: het_master(job, queues.to_vec()),
            platform,
            horizon,
            left: Outstanding::new(queues),
            cut: None,
        }
    }
}

impl MasterPolicy for Scoring<'_> {
    fn next_action(&mut self, ctx: &SimCtx) -> Action {
        let action = self.master.next_action(ctx);
        if let Action::Send {
            new_chunk: Some(_), ..
        }
        | Action::Retrieve { .. } = action
        {
            let bound = self
                .left
                .bound(self.platform, ctx.now(), |w| ctx.compute_free_at(w));
            if bound > self.horizon {
                self.cut = Some(bound);
                return Action::Finished;
            }
        }
        self.left.issue(&action);
        action
    }

    fn on_event(&mut self, ev: &SimEvent, ctx: &SimCtx) {
        self.master.on_event(ev, ctx);
    }

    fn name(&self) -> &'static str {
        self.master.name()
    }
}

/// Scores distinct schedule shapes (`shapes[i]`: one allocation's
/// queues, in the order of the first variant that has it) best-first;
/// returns the winning shape and every shape's score.
///
/// Shapes are taken in order of (static bound, index). One whose bound
/// exceeds the least makespan simulated so far is pruned; the others
/// are simulated by a [`Scoring`] run cut at that makespan. The winner
/// is the least simulated makespan, the lower index on a tie.
fn best_first(
    sim: &Simulator,
    job: &Job,
    shapes: &[Vec<Vec<PlannedChunk>>],
) -> (usize, Vec<Score>) {
    let bounds: Vec<f64> = shapes
        .iter()
        .map(|q| static_bound(sim.platform(), q))
        .collect();
    let mut order: Vec<usize> = (0..shapes.len()).collect();
    order.sort_by(|&a, &b| bounds[a].total_cmp(&bounds[b]));
    let mut scores = vec![Score::Makespan(f64::INFINITY); shapes.len()];
    // (makespan, shape) of the best simulated shape so far.
    let mut best: Option<(f64, usize)> = None;
    for s in order {
        let horizon = best.map_or(f64::INFINITY, |(m, _)| m);
        scores[s] = if bounds[s] > horizon {
            Score::Pruned(bounds[s])
        } else {
            let mut run = Scoring::new(sim.platform(), job, &shapes[s], horizon);
            let result = sim.run(&mut run);
            match (run.cut, result) {
                (Some(bound), _) => Score::Cut(bound),
                (None, Ok(stats)) => Score::Makespan(stats.makespan),
                (None, Err(_)) => Score::Makespan(f64::INFINITY), // infeasible
            }
        };
        if let Score::Makespan(m) = scores[s] {
            if best.is_none_or(|(b, bs)| m < b || (m == b && s < bs)) {
                best = Some((m, s));
            }
        }
    }
    let (_, winner) = best.expect("the first shape taken is always simulated");
    (winner, scores)
}

/// The paper's `Het` decision: the first variant, in
/// [`SelectionVariant::all`] order, with the least simulated makespan.
/// Returns a fresh policy of it, the variant, and every variant's
/// [`Score`].
///
/// The phase-2 master decides from chunk descriptors alone, and a static
/// [`Simulator::run`] is a pure function of (platform, the descriptors it
/// is handed per worker): variants whose queues have the same shape —
/// every worker's whole sequence of descriptors, ids aside, compared in
/// full, never by digest — are scored once. Distinct shapes are scored
/// best-first by a static one-port lower bound; a shape whose bound
/// exceeds the best makespan so far is never simulated, and a scoring
/// run is cut at the first chunk boundary where a bound on its remaining
/// work exceeds it. A pruned or cut variant's score is therefore a
/// proven lower bound above the winner's makespan, not its own
/// makespan; the winner's score, and the scores of the shapes that had
/// to be run to the end, are their makespans to the bit. Bounds give up
/// a relative `1e-9`, so a shape that ties the best is still simulated
/// and the earlier variant wins the tie. The winner is the first
/// variant of its shape class, and the returned policy runs its own
/// queues.
pub fn het_best(
    platform: &Platform,
    job: &Job,
) -> (
    StreamingMaster,
    SelectionVariant,
    Vec<(SelectionVariant, Score)>,
) {
    let variants = SelectionVariant::all();
    // The first allocation of each shape, and each variant's shape.
    let mut shapes: Vec<Vec<Vec<PlannedChunk>>> = Vec::new();
    let mut shape_of = [0; 8];
    for (slot, &v) in shape_of.iter_mut().zip(&variants) {
        let queues = allocate(platform, job, v).queues;
        *slot = match shapes.iter().position(|q| same_shape(q, &queues)) {
            Some(s) => s,
            None => {
                shapes.push(queues);
                shapes.len() - 1
            }
        };
    }
    let (winner, shape_scores) = best_first(&Simulator::new(platform.clone()), job, &shapes);
    let scores = variants
        .iter()
        .zip(shape_of)
        .map(|(&v, s)| (v, shape_scores[s]))
        .collect();
    let first = shape_of
        .iter()
        .position(|&s| s == winner)
        .expect("every shape has a variant");
    let policy = het_master(job, shapes.swap_remove(winner));
    (policy, variants[first], scores)
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
        let min = scores
            .iter()
            .map(|(_, m)| m.value())
            .fold(f64::INFINITY, f64::min);
        let picked = scores.iter().find(|(sv, _)| *sv == v).unwrap().1;
        assert!(matches!(picked, Score::Makespan(_)));
        assert!((picked.value() - min).abs() < 1e-12);
        assert_eq!(stargemm_sim::MasterPolicy::name(&policy), "Het");
    }

    /// The B widths of the repo benchmark's `paper_sweep`.
    const WIDTHS: [usize; 3] = [64_000, 96_000, 128_000];

    /// The seven Section-6 presets × the three B widths of the repo
    /// benchmark's `paper_sweep`.
    fn section_6_cells() -> Vec<(Platform, Job)> {
        at_paper_widths(&presets_of_section_6())
    }

    /// Every platform at the three B widths.
    fn at_paper_widths(platforms: &[Platform]) -> Vec<(Platform, Job)> {
        platforms
            .iter()
            .flat_map(|p| WIDTHS.map(|n_b| (p.clone(), Job::paper(n_b))))
            .collect()
    }

    /// The seven Section-6 presets.
    fn presets_of_section_6() -> Vec<Platform> {
        use stargemm_platform::presets;
        vec![
            presets::homogeneous(8),
            presets::het_memory(),
            presets::het_comm(),
            presets::het_comp(),
            presets::fully_het(2.0),
            presets::fully_het(4.0),
            presets::lyon(true),
        ]
    }

    /// `n` seeded `random_platform` draws as `paper_sweep` makes them
    /// (p = 4–12, ratio 2 and 4).
    fn random_platforms(seed: u64, n: usize) -> Vec<Platform> {
        use rand::SeedableRng;
        use stargemm_platform::random::{random_platform, RandomPlatformConfig};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let cfg = RandomPlatformConfig {
                    p: 4 + i % 9,
                    max_ratio: if i % 2 == 0 { 2.0 } else { 4.0 },
                };
                random_platform(cfg, format!("random-{i}"), &mut rng)
            })
            .collect()
    }

    /// Thirty random platforms, one B width each.
    fn random_cells() -> Vec<(Platform, Job)> {
        random_platforms(2008, 30)
            .into_iter()
            .enumerate()
            .map(|(i, platform)| (platform, Job::paper(WIDTHS[i % 3])))
            .collect()
    }

    /// The paper's decision procedure the long way — every variant
    /// allocated and simulated on its own — is the oracle: on every cell
    /// `het_best` must pick the first least makespan and hand back that
    /// variant's policy; a `Makespan` score must be the variant's
    /// makespan to the bit, and a `Pruned` or `Cut` one must lie between
    /// the winner's makespan and the variant's own. Returns how many
    /// variants were pruned and how many cut.
    fn assert_agrees_with_the_long_way(cells: &[(Platform, Job)]) -> (usize, usize) {
        let (mut pruned, mut cut) = (0, 0);
        for (platform, job) in cells {
            let cell = format!("{} n_b={}", platform.name, job.s * job.q);
            let sim = Simulator::new(platform.clone());
            let long_way: Vec<_> = SelectionVariant::all()
                .into_iter()
                .map(|v| (v, sim.run(&mut het_policy(platform, job, v)).ok()))
                .collect();
            let makespan = |i: usize| long_way[i].1.as_ref().map_or(f64::INFINITY, |s| s.makespan);
            let want = (1..8).fold(0, |b, i| if makespan(i) < makespan(b) { i } else { b });

            let (mut policy, picked, scores) = het_best(platform, job);
            assert_eq!(scores.len(), 8, "{cell}");
            for (i, &(v, score)) in scores.iter().enumerate() {
                assert_eq!(v, long_way[i].0, "{cell}");
                let label = format!("{cell} {} {score:?}", v.label());
                match score {
                    Score::Makespan(m) => {
                        assert_eq!(m.to_bits(), makespan(i).to_bits(), "{label}");
                    }
                    Score::Pruned(b) | Score::Cut(b) => {
                        assert!(makespan(want) <= b && b <= makespan(i), "{label}");
                    }
                }
                pruned += usize::from(matches!(score, Score::Pruned(_)));
                cut += usize::from(matches!(score, Score::Cut(_)));
            }
            assert_eq!(picked, long_way[want].0, "{cell}");
            let stats = sim.run(&mut policy).unwrap();
            assert_eq!(stats.total_updates, job.total_updates(), "{cell}");
            assert_eq!(Some(&stats), long_way[want].1.as_ref(), "{cell}");
        }
        (pruned, cut)
    }

    #[test]
    fn het_best_agrees_with_simulating_every_variant() {
        let cells: Vec<_> = section_6_cells()
            .into_iter()
            .chain(random_cells())
            .collect();
        let (pruned, cut) = assert_agrees_with_the_long_way(&cells);
        // Both shortcuts are crossed, so the oracle checks them.
        assert!(pruned > 0 && cut > 0, "pruned {pruned}, cut {cut}");
    }

    /// The oracle over the whole grid of the repo benchmark's
    /// `paper_sweep` — the seven presets and forty random platforms, each
    /// at the three B widths — for two seeds of the random draws. Slow in
    /// a debug build: run with `cargo test --release -- --ignored`.
    #[test]
    #[ignore]
    fn het_best_agrees_on_the_paper_sweep_grid() {
        for seed in [2008, 4242] {
            let platforms = [presets_of_section_6(), random_platforms(seed, 40)].concat();
            let cells = at_paper_widths(&platforms);
            assert_eq!(cells.len(), 141);
            assert_agrees_with_the_long_way(&cells);
        }
    }

    /// The static bound is a lower bound: at most the simulated makespan
    /// of every variant, on random platforms of 1 to 12 workers.
    #[test]
    fn static_bound_never_exceeds_the_simulated_makespan() {
        use rand::SeedableRng;
        use stargemm_platform::random::{random_platform, RandomPlatformConfig};
        let mut rng = rand::rngs::StdRng::seed_from_u64(36);
        let job = Job::paper(16_000);
        for p in 1..=12 {
            for max_ratio in [2.0, 4.0] {
                let cfg = RandomPlatformConfig { p, max_ratio };
                let platform = random_platform(cfg, format!("random-{p}"), &mut rng);
                let sim = Simulator::new(platform.clone());
                for v in SelectionVariant::all() {
                    let queues = allocate(&platform, &job, v).queues;
                    let bound = static_bound(&platform, &queues);
                    if let Ok(stats) = sim.run(&mut het_master(&job, queues)) {
                        assert!(bound <= stats.makespan, "p={p} {}", v.label());
                    }
                }
            }
        }
    }

    /// Queues of 4 × 4 chunks on two workers, one per 4-column strip;
    /// strip `i` goes to worker `owner(i)`.
    fn strips_to(job: &Job, owner: fn(usize) -> usize) -> Vec<Vec<PlannedChunk>> {
        let (mut col, mut id, mut i) = (0, 0, 0);
        let mut queues = vec![Vec::new(); 2];
        while let Some(strip) = carve_strip(job, owner(i), 4, 1, &mut col, &mut id) {
            queues[owner(i)].extend(strip);
            i += 1;
        }
        queues
    }

    /// The engine ends a run `Ok` when the policy declares it finished
    /// with no opened chunk outstanding. A run cut there reads as a
    /// complete run shorter than the incumbent; it must be scored as a
    /// cut and not picked.
    #[test]
    fn a_run_cut_with_nothing_outstanding_is_not_picked() {
        let platform = Platform::new(
            "two",
            vec![WorkerSpec::new(1.0, 2.0, 32), WorkerSpec::new(2.0, 2.0, 32)],
        );
        let job = Job::new(4, 2, 16, 1);
        // Worker 1 takes the first strip and worker 0 the rest: once
        // worker 1's chunk is back, every C load finds nothing
        // outstanding. Alternating strips wins and has the lower bound,
        // so it is simulated first.
        let shapes = [
            strips_to(&job, |i| usize::from(i == 0)),
            strips_to(&job, |i| i % 2),
        ];
        let sim = Simulator::new(platform.clone());
        let makespan = |s: usize| {
            sim.run(&mut het_master(&job, shapes[s].clone()))
                .unwrap()
                .makespan
        };
        let (slow, fast) = (makespan(0), makespan(1));
        let bounds = shapes.each_ref().map(|q| static_bound(&platform, q));
        assert!(bounds[1] < bounds[0] && bounds[0] <= fast && fast < slow);

        // Cut at the fast makespan, the slow run ends `Ok`, shorter.
        let mut run = Scoring::new(&platform, &job, &shapes[0], fast);
        let stats = sim.run(&mut run).expect("cut with nothing outstanding");
        assert!(stats.makespan < fast && run.cut.is_some());

        let (winner, scores) = best_first(&sim, &job, &shapes);
        assert_eq!(winner, 1);
        assert_eq!(scores[1], Score::Makespan(fast));
        assert!(matches!(scores[0], Score::Cut(b) if fast < b && b <= slow));
    }

    /// A shape that ties the incumbent is still simulated, and the
    /// earlier one wins the tie although the later was taken first.
    #[test]
    fn a_tie_goes_to_the_earlier_shape() {
        let platform = Platform::new(
            "two",
            vec![WorkerSpec::new(1.0, 1.5, 32), WorkerSpec::new(2.0, 0.5, 32)],
        );
        let job = Job::new(4, 4, 8, 1);
        let shapes = [strips_to(&job, |_| 0), strips_to(&job, |_| 1)];
        let bounds = shapes.each_ref().map(|q| static_bound(&platform, q));
        assert!(bounds[1] < bounds[0]);
        let (winner, scores) = best_first(&Simulator::new(platform), &job, &shapes);
        assert!(matches!(scores[0], Score::Makespan(_)));
        assert_eq!(scores[0], scores[1]);
        assert_eq!(winner, 0);
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
