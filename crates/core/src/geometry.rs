//! Chunk geometry: mapping engine-level chunks back to C-block regions.
//!
//! The paper partitions C into square chunks assigned column-strip by
//! column-strip ("we decide to assign only full matrix column blocks").
//! A [`ChunkGeom`] records which rectangle of C a chunk covers and how
//! deep each update step reaches into the inner dimension; this is what
//! the net runtime uses to slice real matrices, and what the
//! coverage validator checks.

use serde::{Deserialize, Serialize};
use stargemm_platform::WorkerId;
use stargemm_sim::{ChunkDescr, ChunkId, StepCosts, StepId};

use crate::job::Job;

/// The C-region and step geometry of one chunk.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChunkGeom {
    /// Engine-level chunk id.
    pub id: ChunkId,
    /// Worker the chunk is assigned to.
    pub worker: WorkerId,
    /// First block row of the region.
    pub i0: usize,
    /// First block column of the region.
    pub j0: usize,
    /// Region height in blocks (`h ≤ μ`).
    pub h: usize,
    /// Region width in blocks (`w ≤ μ`).
    pub w: usize,
    /// Inner-dimension depth covered by one step (1 for the paper's
    /// layout, `g` for Toledo's BMM).
    pub k_depth: usize,
}

impl ChunkGeom {
    /// Number of update steps for inner dimension `t`.
    pub fn steps(&self, t: usize) -> StepId {
        t.div_ceil(self.k_depth) as StepId
    }

    /// Half-open `k` range `[k_lo, k_hi)` covered by `step`.
    pub fn k_range(&self, step: StepId, t: usize) -> (usize, usize) {
        let lo = step as usize * self.k_depth;
        (lo, (lo + self.k_depth).min(t))
    }
}

/// A chunk ready to be streamed: geometry plus the engine descriptor.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlannedChunk {
    pub geom: ChunkGeom,
    pub descr: ChunkDescr,
}

/// Builds a [`PlannedChunk`] from a region and step depth, deriving the
/// engine descriptor (including the tail step when `k_depth ∤ t`).
///
/// # Panics
/// Panics on degenerate geometry or a region exceeding the job.
#[allow(clippy::too_many_arguments)]
pub fn plan_chunk(
    job: &Job,
    id: ChunkId,
    worker: WorkerId,
    i0: usize,
    j0: usize,
    h: usize,
    w: usize,
    k_depth: usize,
) -> PlannedChunk {
    assert!(h > 0 && w > 0 && k_depth > 0, "degenerate chunk");
    assert!(i0 + h <= job.r && j0 + w <= job.s, "chunk outside C");
    assert!(k_depth <= job.t, "step depth deeper than inner dimension");
    let geom = ChunkGeom {
        id,
        worker,
        i0,
        j0,
        h,
        w,
        k_depth,
    };
    let steps = geom.steps(job.t);
    let tail_depth = job.t - (steps as usize - 1) * k_depth;
    let tail = (tail_depth != k_depth).then_some(StepCosts {
        a_blocks: (h * tail_depth) as u64,
        b_blocks: (w * tail_depth) as u64,
        updates: (h * w * tail_depth) as u64,
    });
    let descr = ChunkDescr {
        id,
        c_blocks: (h * w) as u64,
        steps,
        a_blocks_per_step: (h * k_depth) as u64,
        b_blocks_per_step: (w * k_depth) as u64,
        updates_per_step: (h * w * k_depth) as u64,
        tail,
    };
    PlannedChunk { geom, descr }
}

/// Carves the next column strip for a worker: up to `side` block columns
/// starting at `*next_col`, split vertically into `⌈r/side⌉` chunks of at
/// most `side × side` blocks. Returns `None` when C is exhausted.
///
/// `next_id` supplies fresh chunk ids.
pub fn carve_strip(
    job: &Job,
    worker: WorkerId,
    side: usize,
    k_depth: usize,
    next_col: &mut usize,
    next_id: &mut ChunkId,
) -> Option<Vec<PlannedChunk>> {
    carve_strip_rect(job, worker, side, side, k_depth, next_col, next_id)
}

/// Generalization of [`carve_strip`] to rectangular `h_side × w_side`
/// chunks — used by the ablation study quantifying the paper's "squares
/// are better than elongated rectangles" argument (Section 3).
pub fn carve_strip_rect(
    job: &Job,
    worker: WorkerId,
    h_side: usize,
    w_side: usize,
    k_depth: usize,
    next_col: &mut usize,
    next_id: &mut ChunkId,
) -> Option<Vec<PlannedChunk>> {
    assert!(h_side > 0 && w_side > 0, "chunk sides must be positive");
    if *next_col >= job.s {
        return None;
    }
    let j0 = *next_col;
    let w = w_side.min(job.s - j0);
    *next_col += w;
    let mut chunks = Vec::with_capacity(job.r.div_ceil(h_side));
    let mut i0 = 0;
    while i0 < job.r {
        let h = h_side.min(job.r - i0);
        let id = *next_id;
        *next_id += 1;
        chunks.push(plan_chunk(job, id, worker, i0, j0, h, w, k_depth));
        i0 += h;
    }
    Some(chunks)
}

/// Verifies that a chunk set tiles C exactly: every block of the `r × s`
/// grid covered exactly once.
pub fn validate_coverage(job: &Job, geoms: &[ChunkGeom]) -> Result<(), String> {
    let mut covered = vec![false; job.r * job.s];
    for g in geoms {
        if g.i0 + g.h > job.r || g.j0 + g.w > job.s {
            return Err(format!("chunk {} exceeds C", g.id));
        }
        for i in g.i0..g.i0 + g.h {
            for j in g.j0..g.j0 + g.w {
                let idx = i * job.s + j;
                if covered[idx] {
                    return Err(format!("C block ({i}, {j}) covered twice (chunk {})", g.id));
                }
                covered[idx] = true;
            }
        }
    }
    match covered.iter().position(|&c| !c) {
        Some(idx) => Err(format!(
            "C block ({}, {}) never covered",
            idx / job.s,
            idx % job.s
        )),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job() -> Job {
        Job::new(10, 7, 13, 4)
    }

    #[test]
    fn plan_chunk_derives_descr() {
        let j = job();
        let pc = plan_chunk(&j, 0, 2, 0, 0, 3, 4, 1);
        assert_eq!(pc.descr.c_blocks, 12);
        assert_eq!(pc.descr.steps, 7);
        assert_eq!(pc.descr.a_blocks_per_step, 3);
        assert_eq!(pc.descr.b_blocks_per_step, 4);
        assert_eq!(pc.descr.updates_per_step, 12);
        assert!(pc.descr.tail.is_none());
        assert_eq!(pc.descr.total_updates(), 84); // 3·4·7
    }

    #[test]
    fn plan_chunk_with_tail_step() {
        let j = job(); // t = 7, depth 3 → steps 3, tail depth 1
        let pc = plan_chunk(&j, 1, 0, 0, 0, 2, 2, 3);
        assert_eq!(pc.descr.steps, 3);
        let tail = pc.descr.tail.expect("tail expected");
        assert_eq!(tail.a_blocks, 2);
        assert_eq!(tail.b_blocks, 2);
        assert_eq!(tail.updates, 4);
        // Total updates must equal h·w·t regardless of step depth.
        assert_eq!(pc.descr.total_updates(), 2 * 2 * 7);
        assert_eq!(pc.geom.k_range(0, j.t), (0, 3));
        assert_eq!(pc.geom.k_range(2, j.t), (6, 7));
    }

    #[test]
    fn carve_strips_tile_c_exactly() {
        let j = job(); // r=10, s=13
        let mut col = 0;
        let mut id = 0;
        let mut geoms = Vec::new();
        // Alternate two workers with different sides.
        let sides = [4usize, 3, 4, 3, 4, 3];
        let mut si = 0;
        while let Some(chunks) =
            carve_strip(&j, si % 2, sides[si % sides.len()], 1, &mut col, &mut id)
        {
            geoms.extend(chunks.iter().map(|c| c.geom));
            si += 1;
        }
        validate_coverage(&j, &geoms).unwrap();
        // Total updates over all chunks equals r·s·t.
        // (Re-derive descriptors to check.)
        let total: u64 = geoms.iter().map(|g| (g.h * g.w * j.t) as u64).sum();
        assert_eq!(total, j.total_updates());
    }

    #[test]
    fn coverage_detects_gap_and_overlap() {
        let j = Job::new(2, 1, 2, 4);
        let full = ChunkGeom {
            id: 0,
            worker: 0,
            i0: 0,
            j0: 0,
            h: 2,
            w: 2,
            k_depth: 1,
        };
        validate_coverage(&j, &[full]).unwrap();
        // Gap.
        let half = ChunkGeom { w: 1, ..full };
        assert!(validate_coverage(&j, &[half]).is_err());
        // Overlap.
        assert!(validate_coverage(&j, &[full, half]).is_err());
    }

    #[test]
    fn strip_carving_handles_ragged_tail_column() {
        let j = Job::new(5, 3, 7, 2);
        let mut col = 0;
        let mut id = 0;
        let s1 = carve_strip(&j, 0, 5, 1, &mut col, &mut id).unwrap();
        let s2 = carve_strip(&j, 1, 5, 1, &mut col, &mut id).unwrap();
        assert!(carve_strip(&j, 0, 5, 1, &mut col, &mut id).is_none());
        assert_eq!(s1[0].geom.w, 5);
        assert_eq!(s2[0].geom.w, 2); // ragged tail
        let geoms: Vec<_> = s1.iter().chain(&s2).map(|c| c.geom).collect();
        validate_coverage(&j, &geoms).unwrap();
    }
}
