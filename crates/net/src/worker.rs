//! Workers: receive fragments, run the real GEMM kernel, return
//! results.
//!
//! A worker is a dataflow executor identical in semantics to the
//! simulator's worker model: a step fires once its chunk's C blocks and
//! the step's A and B fragments are all resident; step order within a
//! chunk does not matter (block updates commute); A/B buffers leave the
//! worker after their step, C buffers when the master retrieves the
//! chunk.
//!
//! Operands stay in the form they arrive in — one flat [`Tiles`] buffer
//! per fragment, the vector the decoder filled — and the kernel runs on
//! sub-slices of them, so ingesting a fragment copies nothing and
//! allocates nothing. A fired step's A and B buffers go back to the
//! caller's [`TilePool`] for the next fragment to be decoded into, and a
//! retrieved C buffer leaves in the `Result` for the master to hand back
//! once it is copied out. The bookkeeping is O(1) per message: a
//! fragment can complete only its own step, and a step only its own
//! chunk, so nothing is scanned for work that might have become ready.

use stargemm_linalg::gemm::gemm_tiled;
use stargemm_sim::{ChunkDescr, ChunkId, ChunkMap, MatKind, StepId};

use crate::wire::{TilePool, Tiles, ToMaster, ToWorker};

/// State of one chunk resident on a worker.
struct WorkerChunk {
    descr: ChunkDescr,
    h: usize,
    w: usize,
    /// Row-major `h × w`, updated in place.
    c: Tiles,
    /// The operand each half-delivered step is waiting with, `(step, A
    /// or B, tiles)`, until the other lands and the step fires. A short
    /// list searched linearly: the master's memory admission bounds how
    /// many steps a policy can have half-delivered.
    pending: Vec<(StepId, MatKind, Tiles)>,
    steps_done: StepId,
    retrieve_requested: bool,
}

impl WorkerChunk {
    fn computed(&self) -> bool {
        self.steps_done == self.descr.steps
    }

    /// Takes delivery of one operand of `step`: it waits for the other,
    /// or — the other already waiting — the step fires, its operands go
    /// to `pool`, and the master is notified.
    fn land(
        &mut self,
        step: StepId,
        kind: MatKind,
        tiles: Tiles,
        out: &mut Vec<ToMaster>,
        pool: &mut TilePool,
    ) {
        let Some(at) = self.pending.iter().position(|(s, ..)| *s == step) else {
            self.pending.push((step, kind, tiles));
            return;
        };
        let (_, waiting_kind, waiting) = self.pending.swap_remove(at);
        assert_ne!(waiting_kind, kind, "duplicate {kind:?} fragment");
        let (a, b) = match kind {
            MatKind::A => (tiles, waiting),
            _ => (waiting, tiles),
        };
        self.compute_step(&a, &b);
        pool.give(a);
        pool.give(b);
        self.steps_done += 1;
        let chunk = self.descr.id;
        out.push(ToMaster::StepDone { chunk, step });
        if self.computed() {
            out.push(ToMaster::ChunkComputed { chunk });
        }
    }

    /// One update step: `C[i][j] += Σ_k A[i][k]·B[k][j]` over the
    /// fragment's inner depth, every tile product through the kernel on
    /// sub-slices of the three buffers.
    ///
    /// A is ordered `(i-local major, k minor)`, B `(k major, j-local
    /// minor)`, C row-major `h × w` — the master's slicing order. Each C
    /// tile takes its updates in increasing `k`, as the sequential
    /// reference does.
    fn compute_step(&mut self, a: &Tiles, b: &Tiles) {
        let q = self.c.q();
        let depth = a.len() / self.h;
        assert_eq!(a.len(), self.h * depth, "ragged A fragment");
        assert_eq!(b.len(), depth * self.w, "ragged B fragment");
        for kk in 0..depth {
            for i in 0..self.h {
                let a_ik = a.tile(i * depth + kk);
                for j in 0..self.w {
                    gemm_tiled(
                        q,
                        self.c.tile_mut(i * self.w + j),
                        a_ik,
                        b.tile(kk * self.w + j),
                    );
                }
            }
        }
    }
}

/// The transport-free worker dataflow machine: chunk residency, step
/// firing and retrieve bookkeeping, with no channel or clock attached.
///
/// The reactor drives one per worker inline, feeding it decoded wire
/// messages and collecting its replies, ordered step events before
/// `ChunkComputed` before a deferred `Result`.
pub(crate) struct WorkerCore {
    chunks: ChunkMap<WorkerChunk>,
    /// Operands that overtook their chunk's C load on the wire:
    /// concurrent contention models (`multiport`, `fairshare`) can finish
    /// a small A/B transfer before the bigger C transfer admitted
    /// earlier on the same link. They are stashed and replayed when the
    /// C tiles land — the same any-order arrival the simulator models.
    early: ChunkMap<Vec<(StepId, MatKind, Tiles)>>,
    /// Dynamic platforms: a `Fail` control message simulates a crash —
    /// all chunks are dropped and data is ignored until `Recover`.
    down: bool,
}

impl WorkerCore {
    /// A fresh (up, empty) worker.
    pub(crate) fn new() -> WorkerCore {
        WorkerCore {
            chunks: ChunkMap::default(),
            early: ChunkMap::default(),
            down: false,
        }
    }

    /// Processes one message, appending any replies to `out` and giving
    /// spent operand buffers to `pool`.
    pub(crate) fn ingest(&mut self, msg: ToWorker, out: &mut Vec<ToMaster>, pool: &mut TilePool) {
        match msg {
            ToWorker::Fail => {
                self.chunks.clear();
                self.early.clear();
                self.down = true;
            }
            ToWorker::Recover => self.down = false,
            // While down, every other message falls on dead hardware.
            _ if self.down => {}
            ToWorker::LoadC { descr, h, w, tiles } => {
                assert_eq!(tiles.len(), (h * w) as usize, "C payload mismatch");
                let prev = self.chunks.insert(
                    descr.id,
                    WorkerChunk {
                        descr,
                        h: h as usize,
                        w: w as usize,
                        c: tiles,
                        pending: Vec::new(),
                        steps_done: 0,
                        retrieve_requested: false,
                    },
                );
                assert!(prev.is_none(), "chunk {} loaded twice", descr.id);
                for (step, kind, tiles) in self.early.remove(&descr.id).unwrap_or_default() {
                    self.operand(descr.id, step, kind, tiles, out, pool);
                }
            }
            ToWorker::FragA { chunk, step, tiles } => {
                self.operand(chunk, step, MatKind::A, tiles, out, pool);
            }
            ToWorker::FragB { chunk, step, tiles } => {
                self.operand(chunk, step, MatKind::B, tiles, out, pool);
            }
            ToWorker::Retrieve { chunk } => {
                let ch = self
                    .chunks
                    .get_mut(&chunk)
                    .expect("retrieve of unknown chunk");
                ch.retrieve_requested = true;
                // Otherwise the reply happens when the last step fires.
                if ch.computed() {
                    self.reply_result(chunk, out);
                }
            }
        }
    }

    /// One A or B fragment: stashed if its chunk is not open yet, else
    /// landed — and if it fired the chunk's last step under a pending
    /// retrieval, the result follows at once.
    fn operand(
        &mut self,
        chunk: ChunkId,
        step: StepId,
        kind: MatKind,
        tiles: Tiles,
        out: &mut Vec<ToMaster>,
        pool: &mut TilePool,
    ) {
        let Some(ch) = self.chunks.get_mut(&chunk) else {
            self.early
                .entry(chunk)
                .or_default()
                .push((step, kind, tiles));
            return;
        };
        ch.land(step, kind, tiles, out, pool);
        if ch.retrieve_requested && ch.computed() {
            self.reply_result(chunk, out);
        }
    }

    fn reply_result(&mut self, id: ChunkId, out: &mut Vec<ToMaster>) {
        let ch = self.chunks.remove(&id).expect("due chunk exists");
        out.push(ToMaster::Result {
            chunk: id,
            tiles: ch.c,
        });
    }
}

impl Default for WorkerCore {
    fn default() -> Self {
        WorkerCore::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use stargemm_linalg::gemm::gemm_naive;

    fn descr(id: ChunkId, h: usize, w: usize, steps: StepId) -> ChunkDescr {
        ChunkDescr {
            id,
            c_blocks: (h * w) as u64,
            steps,
            a_blocks_per_step: h as u64,
            b_blocks_per_step: w as u64,
            updates_per_step: (h * w) as u64,
            tail: None,
        }
    }

    /// Drives a lone worker through a 2×2-chunk, 3-step job and checks
    /// the numerical result against the naive kernel.
    #[test]
    fn worker_computes_a_chunk_exactly() {
        let q = 6;
        let (h, w, steps) = (2usize, 2usize, 3u32);
        let mut rng = StdRng::seed_from_u64(1);
        let c0 = Tiles::random(h * w, q, &mut rng);
        let a_frags: Vec<Tiles> = (0..steps).map(|_| Tiles::random(h, q, &mut rng)).collect();
        let b_frags: Vec<Tiles> = (0..steps).map(|_| Tiles::random(w, q, &mut rng)).collect();

        let mut core = WorkerCore::new();
        let mut out = Vec::new();
        let mut pool = TilePool::default();
        core.ingest(
            ToWorker::LoadC {
                descr: descr(0, h, w, steps),
                h: h as u32,
                w: w as u32,
                tiles: c0.clone(),
            },
            &mut out,
            &mut pool,
        );
        // Send steps out of order to exercise commutativity.
        for &k in &[1u32, 0, 2] {
            core.ingest(
                ToWorker::FragB {
                    chunk: 0,
                    step: k,
                    tiles: b_frags[k as usize].clone(),
                },
                &mut out,
                &mut pool,
            );
            core.ingest(
                ToWorker::FragA {
                    chunk: 0,
                    step: k,
                    tiles: a_frags[k as usize].clone(),
                },
                &mut out,
                &mut pool,
            );
        }
        core.ingest(ToWorker::Retrieve { chunk: 0 }, &mut out, &mut pool);

        // One StepDone per step (in arrival order), ChunkComputed, then
        // the result.
        assert_eq!(out.len(), steps as usize + 2);
        for (reply, &k) in out.iter().zip(&[1u32, 0, 2]) {
            assert_eq!(*reply, ToMaster::StepDone { chunk: 0, step: k });
        }
        assert_eq!(out[3], ToMaster::ChunkComputed { chunk: 0 });
        let Some(ToMaster::Result {
            chunk: 0,
            tiles: got,
        }) = out.pop()
        else {
            panic!("no result for chunk 0");
        };

        // Reference: C[i][j] = C0[i][j] + Σ_k A_k[i]·B_k[j].
        for i in 0..h {
            for j in 0..w {
                let mut expect = c0.tile(i * w + j).to_vec();
                for k in 0..steps as usize {
                    gemm_naive(q, &mut expect, a_frags[k].tile(i), b_frags[k].tile(j));
                }
                let diff = got
                    .tile(i * w + j)
                    .iter()
                    .zip(&expect)
                    .map(|(x, y)| (x - y).abs())
                    .fold(0.0, f64::max);
                assert!(diff < 1e-9, "block ({i},{j}) diff {diff}");
            }
        }
    }

    #[test]
    fn retrieve_before_completion_defers_the_reply() {
        let q = 4;
        let mut rng = StdRng::seed_from_u64(2);
        let mut core = WorkerCore::new();
        let mut out = Vec::new();
        let mut pool = TilePool::default();
        core.ingest(
            ToWorker::LoadC {
                descr: descr(3, 1, 1, 1),
                h: 1,
                w: 1,
                tiles: Tiles::random(1, q, &mut rng),
            },
            &mut out,
            &mut pool,
        );
        // Retrieve first, then the operands: nothing may come back until
        // the last one lands.
        core.ingest(ToWorker::Retrieve { chunk: 3 }, &mut out, &mut pool);
        core.ingest(
            ToWorker::FragB {
                chunk: 3,
                step: 0,
                tiles: Tiles::random(1, q, &mut rng),
            },
            &mut out,
            &mut pool,
        );
        assert!(out.is_empty(), "{out:?}");
        core.ingest(
            ToWorker::FragA {
                chunk: 3,
                step: 0,
                tiles: Tiles::random(1, q, &mut rng),
            },
            &mut out,
            &mut pool,
        );

        // StepDone, ChunkComputed, then the deferred Result.
        assert!(
            matches!(
                out[..],
                [
                    ToMaster::StepDone { chunk: 3, step: 0 },
                    ToMaster::ChunkComputed { chunk: 3 },
                    ToMaster::Result { chunk: 3, .. }
                ]
            ),
            "{out:?}"
        );
    }

    /// Fragments that overtake their chunk's C load wait for it: nothing
    /// fires until the load lands, then every stashed step does, and the
    /// product is what in-order delivery computes.
    #[test]
    fn early_fragments_are_stashed_until_their_c_load() {
        let q = 3;
        let (h, w, steps) = (1usize, 2usize, 2u32);
        let mut rng = StdRng::seed_from_u64(3);
        let load = ToWorker::LoadC {
            descr: descr(8, h, w, steps),
            h: h as u32,
            w: w as u32,
            tiles: Tiles::random(h * w, q, &mut rng),
        };
        let frags: Vec<ToWorker> = (0..steps)
            .flat_map(|step| {
                let a = Tiles::random(h, q, &mut rng);
                let b = Tiles::random(w, q, &mut rng);
                [
                    ToWorker::FragA {
                        chunk: 8,
                        step,
                        tiles: a,
                    },
                    ToWorker::FragB {
                        chunk: 8,
                        step,
                        tiles: b,
                    },
                ]
            })
            .collect();

        let run = |order: Vec<ToWorker>| {
            let mut core = WorkerCore::new();
            let mut out = Vec::new();
            let mut pool = TilePool::default();
            for msg in order {
                core.ingest(msg, &mut out, &mut pool);
            }
            core.ingest(ToWorker::Retrieve { chunk: 8 }, &mut out, &mut pool);
            out
        };
        let in_order = run(std::iter::once(load.clone()).chain(frags.clone()).collect());

        // All four fragments first: silence; the load then fires both
        // steps at once.
        let mut core = WorkerCore::new();
        let mut out = Vec::new();
        let mut pool = TilePool::default();
        for msg in frags {
            core.ingest(msg, &mut out, &mut pool);
        }
        assert!(out.is_empty(), "{out:?}");
        core.ingest(load, &mut out, &mut pool);
        assert_eq!(
            out,
            [
                ToMaster::StepDone { chunk: 8, step: 0 },
                ToMaster::StepDone { chunk: 8, step: 1 },
                ToMaster::ChunkComputed { chunk: 8 },
            ]
        );
        core.ingest(ToWorker::Retrieve { chunk: 8 }, &mut out, &mut pool);
        assert_eq!(out, in_order, "same replies, bitwise the same C");
    }
}
