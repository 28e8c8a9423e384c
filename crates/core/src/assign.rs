//! Static chunk-assignment builders: layout sides per worker, round-robin
//! strip carving (ORROML, Hom) and the min-min heuristic (OMMOML).

use stargemm_platform::{Platform, WorkerId};
use stargemm_sim::ChunkId;

use crate::geometry::{carve_strip, carve_strip_rect, PlannedChunk};
use crate::job::Job;
use crate::layout::{effective_g, effective_mu};

/// Per-worker chunk sides `μ_i` for the paper's double-buffered layout
/// (0 = worker cannot hold the layout and must be skipped).
pub fn layout_sides(platform: &Platform, job: &Job) -> Vec<usize> {
    platform
        .workers()
        .iter()
        .map(|s| effective_mu(s.m, job.r))
        .collect()
}

/// Per-worker chunk sides `g_i` for Toledo's equal-thirds layout.
pub fn bmm_sides(platform: &Platform, job: &Job) -> Vec<usize> {
    platform
        .workers()
        .iter()
        .map(|s| effective_g(s.m, job.r))
        .collect()
}

/// The chunk sides a worker carves its strips with: one side for square
/// `side × side` chunks, or `(h, w)` for rectangular ones.
pub trait ChunkSides: Copy {
    /// `(h, w)` in blocks; 0 on either side means the worker does not
    /// fit.
    fn hw(self) -> (usize, usize);
}

impl ChunkSides for usize {
    fn hw(self) -> (usize, usize) {
        (self, self)
    }
}

impl ChunkSides for (usize, usize) {
    fn hw(self) -> (usize, usize) {
        self
    }
}

/// Statically carves C into strips assigned round-robin over `order`
/// (a worker appearing in `order` gets strips of its own
/// [`ChunkSides`]). Workers that do not fit are skipped. Returns
/// per-worker queues indexed by `WorkerId` over the *whole* platform
/// (`num_workers` long); chunk ids continue from `*next_id`.
///
/// # Panics
/// Panics if no worker in `order` fits (nothing could ever be
/// assigned).
pub fn round_robin_queues(
    job: &Job,
    num_workers: usize,
    order: impl IntoIterator<Item = WorkerId>,
    sides: &[impl ChunkSides],
    next_id: &mut ChunkId,
) -> Vec<Vec<PlannedChunk>> {
    let fits = |w: WorkerId| {
        let (h, width) = sides[w].hw();
        h > 0 && width > 0
    };
    let usable: Vec<WorkerId> = order.into_iter().filter(|&w| fits(w)).collect();
    assert!(!usable.is_empty(), "no worker fits the memory layout");
    let mut queues = vec![Vec::new(); num_workers];
    let mut col = 0;
    for &w in usable.iter().cycle() {
        let (h, width) = sides[w].hw();
        match carve_strip_rect(job, w, h, width, 1, &mut col, next_id) {
            Some(strip) => queues[w].extend(strip),
            None => break,
        }
    }
    queues
}

/// The min-min static assignment (OMMOML): repeatedly give the next
/// column strip to the worker with the earliest *estimated completion
/// time*, using a conservative non-overlapped estimate
/// (`completion = max(link_free, worker_free) + T_comm + T_comp`)
/// that models the shared master link. Workers whose estimate never
/// wins are effectively deselected — the paper notes OMMOML "performs
/// some resource selection too".
pub fn min_min_queues(platform: &Platform, job: &Job, sides: &[usize]) -> Vec<Vec<PlannedChunk>> {
    let p = platform.len();
    assert_eq!(sides.len(), p);
    assert!(
        sides.iter().any(|&s| s > 0),
        "no worker fits the memory layout"
    );
    let mut queues = vec![Vec::new(); p];
    let mut link_free = 0.0f64;
    let mut worker_free = vec![0.0f64; p];
    let mut col = 0usize;
    let mut id = 0u32;

    while col < job.s {
        // Evaluate each worker on the strip it would get next.
        let mut best: Option<(f64, WorkerId)> = None;
        for (w, spec) in platform.iter() {
            let side = sides[w];
            if side == 0 {
                continue;
            }
            let width = side.min(job.s - col);
            let (comm_blocks, updates) = strip_cost(job, side, width);
            let t_comm = comm_blocks as f64 * spec.c;
            let t_comp = updates as f64 * spec.w;
            let start = link_free.max(worker_free[w]);
            let completion = start + t_comm + t_comp;
            if best.is_none_or(|(b, _)| completion < b) {
                best = Some((completion, w));
            }
        }
        let (_, w) = best.expect("at least one usable worker");
        let spec = platform.worker(w);
        let width = sides[w].min(job.s - col);
        let (comm_blocks, updates) = strip_cost(job, sides[w], width);
        let start = link_free.max(worker_free[w]);
        let t_comm = comm_blocks as f64 * spec.c;
        link_free = start + t_comm;
        worker_free[w] = start + t_comm + updates as f64 * spec.w;
        let strip = carve_strip(job, w, sides[w], 1, &mut col, &mut id)
            .expect("col < s guarantees a strip");
        queues[w].extend(strip);
    }
    queues
}

/// Communication blocks (both directions) and block updates of one strip
/// of `width` columns processed with square chunks of `side` rows.
fn strip_cost(job: &Job, side: usize, width: usize) -> (u64, u64) {
    let mut comm = 0u64;
    let mut updates = 0u64;
    let mut i0 = 0;
    while i0 < job.r {
        let h = side.min(job.r - i0);
        comm += 2 * (h * width) as u64; // C in + out
        comm += (job.t * (h + width)) as u64; // A + B fragments
        updates += (h * width * job.t) as u64;
        i0 += h;
    }
    (comm, updates)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::validate_coverage;
    use stargemm_platform::WorkerSpec;

    fn job() -> Job {
        Job::new(6, 5, 11, 2)
    }

    #[test]
    fn layout_sides_cap_at_r() {
        let p = Platform::new(
            "p",
            vec![
                WorkerSpec::new(1.0, 1.0, 10_000),
                WorkerSpec::new(1.0, 1.0, 12),
            ],
        );
        let s = layout_sides(&p, &job());
        assert_eq!(s, vec![6, 2]); // 98 capped at r=6; μ(12)=2
        let g = bmm_sides(&p, &job());
        assert_eq!(g, vec![6, 2]); // g(10000)=57 capped; g(12)=2
    }

    #[test]
    fn round_robin_covers_and_alternates() {
        let j = job();
        let sides = vec![3, 2];
        let q = round_robin_queues(&j, 2, [0, 1], &sides, &mut 0);
        let geoms: Vec<_> = q.iter().flatten().map(|c| c.geom).collect();
        validate_coverage(&j, &geoms).unwrap();
        // Strip widths alternate 3, 2, 3, 2, 1(ragged).
        assert!(!q[0].is_empty() && !q[1].is_empty());
    }

    #[test]
    fn round_robin_skips_zero_side_workers() {
        let j = job();
        let sides = vec![0, 2, 3];
        let q = round_robin_queues(&j, 3, [0, 1, 2], &sides, &mut 0);
        assert!(q[0].is_empty());
        let geoms: Vec<_> = q.iter().flatten().map(|c| c.geom).collect();
        validate_coverage(&j, &geoms).unwrap();
        // Rectangular sides: a zero on either side skips the worker.
        let sides = vec![(3, 0), (2, 1), (1, 3)];
        let q = round_robin_queues(&j, 3, [0, 1, 2], &sides, &mut 0);
        assert!(q[0].is_empty());
        assert!(q[1].iter().chain(&q[2]).all(|c| {
            let (g, (h, w)) = (c.geom, sides[c.geom.worker]);
            g.h <= h && g.w <= w
        }));
        let geoms: Vec<_> = q.iter().flatten().map(|c| c.geom).collect();
        validate_coverage(&j, &geoms).unwrap();
    }

    #[test]
    #[should_panic(expected = "no worker fits")]
    fn all_zero_sides_panics() {
        round_robin_queues(&job(), 2, [0, 1], &[0usize, 0], &mut 0);
    }

    #[test]
    fn min_min_covers_c() {
        let p = Platform::new(
            "p",
            vec![
                WorkerSpec::new(1.0, 1.0, 100),
                WorkerSpec::new(2.0, 2.0, 100),
            ],
        );
        let j = job();
        let sides = layout_sides(&p, &j);
        let q = min_min_queues(&p, &j, &sides);
        let geoms: Vec<_> = q.iter().flatten().map(|c| c.geom).collect();
        validate_coverage(&j, &geoms).unwrap();
    }

    #[test]
    fn min_min_prefers_fast_workers() {
        // One fast worker, one very slow one: min-min should starve the
        // slow worker entirely (its completion estimate never wins).
        let p = Platform::new(
            "p",
            vec![
                WorkerSpec::new(1.0, 1.0, 100),
                WorkerSpec::new(20.0, 20.0, 100),
            ],
        );
        let j = job();
        let sides = layout_sides(&p, &j);
        let q = min_min_queues(&p, &j, &sides);
        assert!(!q[0].is_empty());
        assert!(q[1].is_empty(), "slow worker should be deselected");
    }

    #[test]
    fn min_min_balances_identical_workers() {
        let p = Platform::homogeneous("hom", 3, WorkerSpec::new(0.1, 10.0, 100));
        let j = Job::new(4, 4, 12, 2);
        let sides = layout_sides(&p, &j);
        let q = min_min_queues(&p, &j, &sides);
        // Compute-bound: all three workers should take part.
        assert!(q.iter().all(|qq| !qq.is_empty()), "all workers enrolled");
    }

    #[test]
    fn strip_cost_matches_descriptor_sums() {
        let j = job();
        let mut col = 0;
        let mut id = 0;
        let strip = carve_strip(&j, 0, 3, 1, &mut col, &mut id).unwrap();
        let (comm, updates) = strip_cost(&j, 3, 3);
        let comm_ref: u64 = strip
            .iter()
            .map(|c| c.descr.total_blocks_in() + c.descr.c_blocks)
            .sum();
        let upd_ref: u64 = strip.iter().map(|c| c.descr.total_updates()).sum();
        assert_eq!(comm, comm_ref);
        assert_eq!(updates, upd_ref);
    }
}
