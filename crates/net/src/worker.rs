//! Workers: receive fragments, run the real GEMM kernel, return
//! results.
//!
//! A worker is a dataflow executor identical in semantics to the
//! simulator's worker model: a step fires once its chunk's C blocks and
//! the step's A and B fragments are all resident; step order within a
//! chunk does not matter (block updates commute); A/B buffers are
//! dropped after their step, C buffers when the master retrieves the
//! chunk.

use std::collections::HashMap;

use stargemm_linalg::gemm::block_update;
use stargemm_linalg::Block;
use stargemm_sim::{ChunkDescr, ChunkId, ChunkMap, StepId};

use crate::wire::{ToMaster, ToWorker};

/// State of one chunk resident on a worker.
struct WorkerChunk {
    descr: ChunkDescr,
    h: usize,
    w: usize,
    c: Vec<Block>,
    pend_a: HashMap<StepId, Vec<Block>>,
    pend_b: HashMap<StepId, Vec<Block>>,
    steps_done: StepId,
    retrieve_requested: bool,
}

impl WorkerChunk {
    /// Fires every step whose operands are resident; returns the events
    /// to notify the master with.
    fn fire_ready(&mut self) -> Vec<ToMaster> {
        let mut events = Vec::new();
        // Collect ready steps first (both fragments present).
        let ready: Vec<StepId> = self
            .pend_a
            .keys()
            .filter(|k| self.pend_b.contains_key(k))
            .copied()
            .collect();
        for step in ready {
            let a = self.pend_a.remove(&step).expect("just checked");
            let b = self.pend_b.remove(&step).expect("just checked");
            self.compute_step(&a, &b);
            self.steps_done += 1;
            events.push(ToMaster::StepDone {
                chunk: self.descr.id,
                step,
            });
            if self.steps_done == self.descr.steps {
                events.push(ToMaster::ChunkComputed {
                    chunk: self.descr.id,
                });
            }
        }
        events
    }

    /// One update step: `C[i][j] += Σ_k A[i][k]·B[k][j]` over the
    /// fragment's inner depth.
    ///
    /// A is ordered `(i-local major, k minor)`, B `(k major, j-local
    /// minor)`, C row-major `h × w` — the master's slicing order.
    fn compute_step(&mut self, a: &[Block], b: &[Block]) {
        let depth = a.len() / self.h;
        assert_eq!(a.len(), self.h * depth, "ragged A fragment");
        assert_eq!(b.len(), depth * self.w, "ragged B fragment");
        for kk in 0..depth {
            for i in 0..self.h {
                let a_ik = &a[i * depth + kk];
                for j in 0..self.w {
                    block_update(&mut self.c[i * self.w + j], a_ik, &b[kk * self.w + j]);
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
    /// Fragments that overtook their chunk's C load on the wire:
    /// concurrent contention models (`multiport`, `fairshare`) can finish
    /// a small A/B transfer before the bigger C transfer admitted
    /// earlier on the same link. They are stashed and replayed when the
    /// C blocks land — the same any-order arrival the simulator models.
    early: ChunkMap<Vec<ToWorker>>,
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

    /// Processes one message, appending any replies to `out`.
    pub(crate) fn ingest(&mut self, msg: ToWorker, out: &mut Vec<ToMaster>) {
        match msg {
            ToWorker::Fail => {
                self.chunks.clear();
                self.early.clear();
                self.down = true;
                return;
            }
            ToWorker::Recover => {
                self.down = false;
                return;
            }
            // While down, every other message falls on dead hardware.
            _ if self.down => return,
            ToWorker::LoadC {
                descr,
                h,
                w,
                blocks,
            } => {
                assert_eq!(blocks.len(), (h * w) as usize, "C payload mismatch");
                let prev = self.chunks.insert(
                    descr.id,
                    WorkerChunk {
                        descr,
                        h: h as usize,
                        w: w as usize,
                        c: blocks,
                        pend_a: HashMap::new(),
                        pend_b: HashMap::new(),
                        steps_done: 0,
                        retrieve_requested: false,
                    },
                );
                assert!(prev.is_none(), "chunk {} loaded twice", descr.id);
                if let Some(stash) = self.early.remove(&descr.id) {
                    for msg in stash {
                        self.ingest(msg, out);
                    }
                }
            }
            ToWorker::FragA {
                chunk,
                step,
                blocks,
            } => {
                let Some(ch) = self.chunks.get_mut(&chunk) else {
                    self.early.entry(chunk).or_default().push(ToWorker::FragA {
                        chunk,
                        step,
                        blocks,
                    });
                    return;
                };
                let prev = ch.pend_a.insert(step, blocks);
                assert!(prev.is_none(), "duplicate A fragment");
                out.extend(ch.fire_ready());
            }
            ToWorker::FragB {
                chunk,
                step,
                blocks,
            } => {
                let Some(ch) = self.chunks.get_mut(&chunk) else {
                    self.early.entry(chunk).or_default().push(ToWorker::FragB {
                        chunk,
                        step,
                        blocks,
                    });
                    return;
                };
                let prev = ch.pend_b.insert(step, blocks);
                assert!(prev.is_none(), "duplicate B fragment");
                out.extend(ch.fire_ready());
            }
            ToWorker::Retrieve { chunk } => {
                let ch = self
                    .chunks
                    .get_mut(&chunk)
                    .expect("retrieve of unknown chunk");
                ch.retrieve_requested = true;
                if ch.steps_done == ch.descr.steps {
                    self.reply_result(chunk, out);
                }
                // Otherwise the reply happens when the last step fires.
            }
        }
        // A completed chunk with a pending retrieval replies immediately.
        let due: Vec<ChunkId> = self
            .chunks
            .iter()
            .filter(|(_, c)| c.retrieve_requested && c.steps_done == c.descr.steps)
            .map(|(&id, _)| id)
            .collect();
        for id in due {
            self.reply_result(id, out);
        }
    }

    fn reply_result(&mut self, id: ChunkId, out: &mut Vec<ToMaster>) {
        let ch = self.chunks.remove(&id).expect("due chunk exists");
        out.push(ToMaster::Result {
            chunk: id,
            blocks: ch.c,
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

    fn blocks(n: usize, q: usize, rng: &mut StdRng) -> Vec<Block> {
        (0..n).map(|_| Block::random(q, rng)).collect()
    }

    /// Drives a lone worker through a 2×2-chunk, 3-step job and checks
    /// the numerical result against the naive kernel.
    #[test]
    fn worker_computes_a_chunk_exactly() {
        let q = 6;
        let (h, w, steps) = (2usize, 2usize, 3u32);
        let descr = ChunkDescr {
            id: 0,
            c_blocks: (h * w) as u64,
            steps,
            a_blocks_per_step: h as u64,
            b_blocks_per_step: w as u64,
            updates_per_step: (h * w) as u64,
            tail: None,
        };
        let mut rng = StdRng::seed_from_u64(1);
        let c0 = blocks(h * w, q, &mut rng);
        let a_frags: Vec<Vec<Block>> = (0..steps).map(|_| blocks(h, q, &mut rng)).collect();
        let b_frags: Vec<Vec<Block>> = (0..steps).map(|_| blocks(w, q, &mut rng)).collect();

        let mut core = WorkerCore::new();
        let mut out = Vec::new();
        core.ingest(
            ToWorker::LoadC {
                descr,
                h: h as u32,
                w: w as u32,
                blocks: c0.clone(),
            },
            &mut out,
        );
        // Send steps out of order to exercise commutativity.
        for &k in &[1u32, 0, 2] {
            core.ingest(
                ToWorker::FragB {
                    chunk: 0,
                    step: k,
                    blocks: b_frags[k as usize].clone(),
                },
                &mut out,
            );
            core.ingest(
                ToWorker::FragA {
                    chunk: 0,
                    step: k,
                    blocks: a_frags[k as usize].clone(),
                },
                &mut out,
            );
        }
        core.ingest(ToWorker::Retrieve { chunk: 0 }, &mut out);

        // One StepDone per step (in arrival order), ChunkComputed, then
        // the result.
        assert_eq!(out.len(), steps as usize + 2);
        for (reply, &k) in out.iter().zip(&[1u32, 0, 2]) {
            assert_eq!(*reply, ToMaster::StepDone { chunk: 0, step: k });
        }
        assert_eq!(out[3], ToMaster::ChunkComputed { chunk: 0 });
        let Some(ToMaster::Result {
            chunk: 0,
            blocks: got,
        }) = out.pop()
        else {
            panic!("no result for chunk 0");
        };

        // Reference: C[i][j] = C0[i][j] + Σ_k A_k[i]·B_k[j].
        for i in 0..h {
            for j in 0..w {
                let mut expect = c0[i * w + j].clone();
                for k in 0..steps as usize {
                    let mut tmp = vec![0.0; q * q];
                    tmp.copy_from_slice(expect.as_slice());
                    gemm_naive(
                        q,
                        &mut tmp,
                        a_frags[k][i].as_slice(),
                        b_frags[k][j].as_slice(),
                    );
                    expect = Block::from_vec(q, tmp);
                }
                let diff = got[i * w + j].max_abs_diff(&expect);
                assert!(diff < 1e-9, "block ({i},{j}) diff {diff}");
            }
        }
    }

    #[test]
    fn retrieve_before_completion_defers_the_reply() {
        let q = 4;
        let descr = ChunkDescr {
            id: 3,
            c_blocks: 1,
            steps: 1,
            a_blocks_per_step: 1,
            b_blocks_per_step: 1,
            updates_per_step: 1,
            tail: None,
        };
        let mut rng = StdRng::seed_from_u64(2);
        let mut core = WorkerCore::new();
        let mut out = Vec::new();
        core.ingest(
            ToWorker::LoadC {
                descr,
                h: 1,
                w: 1,
                blocks: blocks(1, q, &mut rng),
            },
            &mut out,
        );
        // Retrieve first, then the operands: nothing may come back until
        // the last one lands.
        core.ingest(ToWorker::Retrieve { chunk: 3 }, &mut out);
        core.ingest(
            ToWorker::FragB {
                chunk: 3,
                step: 0,
                blocks: blocks(1, q, &mut rng),
            },
            &mut out,
        );
        assert!(out.is_empty(), "{out:?}");
        core.ingest(
            ToWorker::FragA {
                chunk: 3,
                step: 0,
                blocks: blocks(1, q, &mut rng),
            },
            &mut out,
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
}
