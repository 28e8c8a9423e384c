//! Message and chunk descriptors exchanged between master policies and
//! the execution engines (the simulator and the net runtime alike).

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use serde::{Deserialize, Serialize};

/// Identifier of a C-chunk (a rectangular set of C blocks processed as a
/// unit by one worker). Chunk ids are policy-chosen and must be unique
/// within a run.
pub type ChunkId = u32;

/// A table keyed by [`ChunkId`], for the per-event look-ups of the
/// engines and the masters. Iteration order is arbitrary, as with any
/// hash map: sort, count or reduce order-free — never schedule from it.
pub type ChunkMap<V> = IdKeyed<ChunkId, V>;

/// `std`'s hash map under [`IdHasher`].
type IdKeyed<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// The hasher behind [`ChunkMap`]: one multiply and one rotate for ids
/// the program handed out itself, where `std`'s keyed SipHash defends
/// against keys an adversary chose. Tables built from user text
/// (`dag::parse`'s name index) keep the default.
///
/// `std`'s table picks the bucket from the *low* bits of the hash and
/// the in-bucket tag from the top seven, while a multiply mixes upward
/// only: the low 20 bits of a bare `id · K` never see the job part of a
/// DAG chunk id (`DAG_ID_BASE + job · 2²⁰ + task` in `stargemm-stream`).
/// So `finish` rotates the well-mixed high bits down — the shape of
/// rustc-hash 2.
#[derive(Clone, Copy, Debug, Default)]
pub struct IdHasher(u64);

impl IdHasher {
    /// `2⁶⁴ / φ`, the Fibonacci-hashing multiplier.
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
}

impl Hasher for IdHasher {
    fn write_u64(&mut self, word: u64) {
        self.0 = self.0.wrapping_add(word).wrapping_mul(Self::K);
    }

    fn write_u32(&mut self, word: u32) {
        self.write_u64(u64::from(word));
    }

    /// Byte-wise fallback, so any `Hash` key (a tuple, a `usize`) still
    /// works.
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// Identifier of one job in a multi-job stream. Job ids are chosen by
/// the workload layer and must be unique within a run; single-job runs
/// never see one.
pub type JobId = u32;

/// Index of an update step within a chunk (the paper's `k`, `1 ≤ k ≤ t`;
/// 0-based here).
pub type StepId = u32;

/// Which of the three matrices a fragment carries blocks of.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MatKind {
    /// Left operand blocks `A_{i,k}`.
    A,
    /// Right operand blocks `B_{k,j}`.
    B,
    /// Result blocks `C_{i,j}`.
    C,
}

/// The observability tag of a matrix kind.
impl From<MatKind> for stargemm_obs::MatTag {
    fn from(kind: MatKind) -> Self {
        match kind {
            MatKind::A => Self::A,
            MatKind::B => Self::B,
            MatKind::C => Self::C,
        }
    }
}

/// Per-step operand and work counts (used for tail steps that differ
/// from the regular ones).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct StepCosts {
    /// A blocks consumed by the step.
    pub a_blocks: u64,
    /// B blocks consumed by the step.
    pub b_blocks: u64,
    /// Block updates performed by the step.
    pub updates: u64,
}

/// Static description of one chunk: the unit of work the master assigns
/// to a worker.
///
/// For the paper's optimized layout a chunk is a `μ_i × μ_i` square of C
/// blocks updated over `t` steps, each step consuming `μ_i` A blocks and
/// `μ_i` B blocks and performing `μ_i²` block updates. Toledo's BMM uses
/// `g × g` chunks with `g²` A and B blocks and `g³` updates per step
/// (and a shallower final step when `g ∤ t` — the `tail`). The engine is
/// agnostic: it only needs the counts.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChunkDescr {
    /// Unique id of this chunk.
    pub id: ChunkId,
    /// Number of C blocks in the chunk (sent once, retrieved once).
    pub c_blocks: u64,
    /// Number of update steps to fully compute the chunk.
    pub steps: StepId,
    /// A blocks consumed per regular step.
    pub a_blocks_per_step: u64,
    /// B blocks consumed per regular step.
    pub b_blocks_per_step: u64,
    /// Block updates performed per regular step (charged `updates · w_i`).
    pub updates_per_step: u64,
    /// Overrides for the *last* step, when it is shallower than the rest.
    pub tail: Option<StepCosts>,
}

impl ChunkDescr {
    /// A blocks step `step` consumes.
    pub fn a_for(&self, step: StepId) -> u64 {
        match self.tail {
            Some(t) if step + 1 == self.steps => t.a_blocks,
            _ => self.a_blocks_per_step,
        }
    }

    /// B blocks step `step` consumes.
    pub fn b_for(&self, step: StepId) -> u64 {
        match self.tail {
            Some(t) if step + 1 == self.steps => t.b_blocks,
            _ => self.b_blocks_per_step,
        }
    }

    /// Block updates step `step` performs.
    pub fn updates_for(&self, step: StepId) -> u64 {
        match self.tail {
            Some(t) if step + 1 == self.steps => t.updates,
            _ => self.updates_per_step,
        }
    }

    /// Total block updates to fully compute this chunk.
    pub fn total_updates(&self) -> u64 {
        (0..self.steps).map(|s| self.updates_for(s)).sum()
    }

    /// Total blocks the master sends for this chunk (C load plus all A/B
    /// fragments).
    pub fn total_blocks_in(&self) -> u64 {
        self.c_blocks
            + (0..self.steps)
                .map(|s| self.a_for(s) + self.b_for(s))
                .sum::<u64>()
    }

    /// Peak memory this chunk needs with double-buffered A/B fragments
    /// (the layout constraint `μ² + 4μ ≤ m` generalized).
    pub fn peak_memory_double_buffered(&self) -> u64 {
        self.c_blocks + 2 * (self.a_blocks_per_step + self.b_blocks_per_step)
    }
}

/// One master→worker message: a batch of blocks of a single matrix bound
/// to a `(chunk, step)` pair.
///
/// A `C` fragment loads the whole chunk (its `step` is ignored and its
/// block count is the chunk's `c_blocks`). `A`/`B` fragments may be split
/// arbitrarily — the step fires once the per-step declared counts have
/// fully arrived.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Fragment {
    /// Matrix the blocks belong to.
    pub kind: MatKind,
    /// Chunk the blocks serve.
    pub chunk: ChunkId,
    /// Step the blocks serve (A/B only; 0 for C).
    pub step: StepId,
    /// Number of `q × q` blocks in this message.
    pub blocks: u64,
}

impl Fragment {
    /// Fragment carrying a full step's worth of A blocks.
    pub fn a_step(descr: &ChunkDescr, step: StepId) -> Self {
        Fragment {
            kind: MatKind::A,
            chunk: descr.id,
            step,
            blocks: descr.a_for(step),
        }
    }

    /// Fragment carrying a full step's worth of B blocks.
    pub fn b_step(descr: &ChunkDescr, step: StepId) -> Self {
        Fragment {
            kind: MatKind::B,
            chunk: descr.id,
            step,
            blocks: descr.b_for(step),
        }
    }

    /// Fragment loading the whole C chunk.
    pub fn c_load(descr: &ChunkDescr) -> Self {
        Fragment {
            kind: MatKind::C,
            chunk: descr.id,
            step: 0,
            blocks: descr.c_blocks,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn descr() -> ChunkDescr {
        ChunkDescr {
            id: 7,
            c_blocks: 16,
            steps: 10,
            a_blocks_per_step: 4,
            b_blocks_per_step: 4,
            updates_per_step: 16,
            tail: None,
        }
    }

    #[test]
    fn totals() {
        let d = descr();
        assert_eq!(d.total_updates(), 160);
        assert_eq!(d.total_blocks_in(), 16 + 80);
        assert_eq!(d.peak_memory_double_buffered(), 16 + 16);
    }

    #[test]
    fn tail_step_overrides_last_step_only() {
        let d = ChunkDescr {
            tail: Some(StepCosts {
                a_blocks: 2,
                b_blocks: 2,
                updates: 4,
            }),
            ..descr()
        };
        assert_eq!(d.a_for(0), 4);
        assert_eq!(d.a_for(8), 4);
        assert_eq!(d.a_for(9), 2);
        assert_eq!(d.updates_for(9), 4);
        assert_eq!(d.total_updates(), 9 * 16 + 4);
        assert_eq!(d.total_blocks_in(), 16 + 9 * 8 + 4);
        // Fragment constructors honour the tail.
        assert_eq!(Fragment::a_step(&d, 9).blocks, 2);
        assert_eq!(Fragment::b_step(&d, 0).blocks, 4);
    }

    /// `stargemm-stream`'s DAG chunk namespace (`DAG_ID_BASE`,
    /// `DAG_ID_SPAN`), restated: this crate sits below it.
    const DAG_ID_BASE: ChunkId = 0x4000_0000;
    const DAG_ID_SPAN: ChunkId = 1 << 20;

    /// The hash a [`ChunkMap`] computes for `key`.
    fn hash_of(key: impl std::hash::Hash) -> u64 {
        use std::hash::BuildHasher;
        BuildHasherDefault::<IdHasher>::default().hash_one(key)
    }

    /// Most keys sharing one value of the low 12 bits of the hash —
    /// the bucket index of a 4 096-slot table.
    fn worst_bucket(ids: impl Iterator<Item = ChunkId>) -> usize {
        let mut buckets = [0usize; 4096];
        for id in ids {
            buckets[(hash_of(id) & 0xfff) as usize] += 1;
        }
        buckets.into_iter().max().unwrap()
    }

    #[test]
    fn id_hasher_spreads_the_ids_the_repo_hands_out() {
        // 4 096 keys over 4 096 buckets, both in the shapes the masters
        // really produce. A bare multiply passes the first and puts the
        // second into 256 buckets of 16.
        assert!(worst_bucket(0..4096) <= 4);
        let dag = (0..16).flat_map(|j| (0..256).map(move |t| DAG_ID_BASE + j * DAG_ID_SPAN + t));
        assert!(worst_bucket(dag) <= 4);
        // The tag bits (top seven) vary too.
        let tags: std::collections::BTreeSet<u64> =
            (0..4096u32).map(|id| hash_of(id) >> 57).collect();
        assert_eq!(tags.len(), 128);

        let mut map: ChunkMap<&str> = ChunkMap::default();
        for (id, name) in [(ChunkId::MAX, "max"), (0, "zero"), (DAG_ID_BASE, "dag")] {
            assert_eq!(map.insert(id, name), None);
        }
        assert_eq!(map.get(&ChunkId::MAX), Some(&"max"));
        assert_eq!(map.get(&0), Some(&"zero"));
        assert_eq!(map.remove(&DAG_ID_BASE), Some("dag"));
        assert_eq!(map.len(), 2);
    }

    #[test]
    fn id_hasher_takes_tuple_and_byte_keys() {
        assert_ne!(hash_of((1u32, 2u32)), hash_of((2u32, 1u32)));
        assert_ne!(hash_of(1usize), hash_of(2usize));
        assert_eq!(hash_of((7u32, 9u32)), hash_of((7u32, 9u32)));
    }

    #[test]
    fn fragment_constructors_bind_to_descr() {
        let d = descr();
        let a = Fragment::a_step(&d, 3);
        assert_eq!((a.kind, a.chunk, a.step, a.blocks), (MatKind::A, 7, 3, 4));
        let b = Fragment::b_step(&d, 9);
        assert_eq!((b.kind, b.blocks), (MatKind::B, 4));
        let c = Fragment::c_load(&d);
        assert_eq!((c.kind, c.blocks), (MatKind::C, 16));
    }
}
