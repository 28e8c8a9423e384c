//! The master's books, shared by every engine: which chunk lives where,
//! what has been issued for it, and how full each worker's memory is.
//!
//! The paper's Section 2 rules that a *master* can check — a chunk is
//! opened once by its full C load, a step is never over-delivered,
//! worker `i` never holds more than `m_i` blocks, a result is retrieved
//! once and not from a chunk a crash destroyed — are written here and
//! nowhere else. An engine asks [`StarLedger::issue_send`] /
//! [`StarLedger::issue_retrieve`] before it puts anything on its wire,
//! reports what its transport then observes (`delivered`, `step_done`,
//! `chunk_computed`, `retrieved`, `crash`, `rejoin`), hands policies the
//! [`SimCtx`] view, and folds the ledger into [`RunStats`] at the end.
//!
//! In-flight blocks count from the moment they are *issued*: they are
//! `reserved` against the worker's memory and counted against their
//! step's quota, so two copies of one fragment cannot both be on the
//! wire.

use stargemm_platform::dynamic::DynProfile;
use stargemm_platform::{Platform, WorkerId};

use crate::error::SimError;
use crate::msg::{ChunkDescr, ChunkId, ChunkMap, Fragment, MatKind, StepId};
use crate::policy::SimCtx;
use crate::stats::{JobStats, PortStats, RunStats, WorkerStats};

/// Runtime state of one worker ([`SimCtx`] exposes read-only views).
#[derive(Clone, Debug)]
pub(crate) struct WorkerRt {
    pub(crate) capacity: u64,
    pub(crate) w: f64,
    pub(crate) resident: u64,
    pub(crate) reserved: u64,
    pub(crate) compute_free_at: f64,
    pub(crate) up: bool,
    pub(crate) stats: WorkerStats,
}

/// Master-side record of one chunk the policy opened.
#[derive(Clone, Debug)]
struct ChunkEntry {
    worker: WorkerId,
    descr: ChunkDescr,
    /// `[A, B]` blocks issued so far, per step.
    issued: Vec<[u64; 2]>,
    computed: bool,
    retrieved: bool,
    retrieve_pending: bool,
    /// Destroyed by a worker crash: its retrieval is not required.
    lost: bool,
}

/// What became of a fragment when its transfer completed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Delivery {
    /// The blocks are resident on the worker.
    Landed,
    /// The worker is down or the chunk lost: the port time was spent,
    /// the data is gone. `newly_lost` when this drop is what destroyed
    /// the chunk (a C load addressed to an already-down worker opens
    /// the chunk dead on arrival).
    Dropped { newly_lost: bool },
}

/// Chunk and worker-memory book-keeping of one star.
#[derive(Clone, Debug)]
pub struct StarLedger {
    workers: Vec<WorkerRt>,
    chunks: ChunkMap<ChunkEntry>,
}

fn unknown_chunk(id: ChunkId) -> SimError {
    SimError::protocol(format!("unknown chunk {id}"))
}

impl StarLedger {
    /// Empty books for `platform`; workers `profile` has down at time
    /// zero start down.
    pub fn new(platform: &Platform, profile: Option<&DynProfile>) -> Self {
        let workers = platform
            .workers()
            .iter()
            .enumerate()
            .map(|(w, s)| WorkerRt {
                capacity: s.m as u64,
                w: s.w,
                resident: 0,
                reserved: 0,
                compute_free_at: 0.0,
                up: profile.is_none_or(|p| p.is_up(w, 0.0)),
                stats: WorkerStats::default(),
            })
            .collect();
        StarLedger {
            workers,
            chunks: ChunkMap::default(),
        }
    }

    fn chunk(&self, id: ChunkId) -> Result<&ChunkEntry, SimError> {
        self.chunks.get(&id).ok_or_else(|| unknown_chunk(id))
    }

    fn chunk_mut(&mut self, id: ChunkId) -> &mut ChunkEntry {
        self.chunks.get_mut(&id).expect("chunk checked at issue")
    }

    /// Whether `chunk` was destroyed by a worker crash.
    pub fn chunk_is_lost(&self, chunk: ChunkId) -> Result<bool, SimError> {
        self.chunk(chunk).map(|c| c.lost)
    }

    /// Whether all of `chunk`'s steps have completed.
    pub fn chunk_is_computed(&self, chunk: ChunkId) -> Result<bool, SimError> {
        self.chunk(chunk).map(|c| c.computed)
    }

    /// The worker `chunk` is assigned to.
    pub fn chunk_worker(&self, chunk: ChunkId) -> Result<WorkerId, SimError> {
        self.chunk(chunk).map(|c| c.worker)
    }

    /// The descriptor `chunk` was opened with.
    pub fn descr(&self, chunk: ChunkId) -> Option<&ChunkDescr> {
        self.chunks.get(&chunk).map(|c| &c.descr)
    }

    /// Whether worker `w` exists and is up.
    pub fn is_up(&self, w: WorkerId) -> bool {
        self.workers.get(w).is_some_and(|st| st.up)
    }

    pub(crate) fn worker_mut(&mut self, w: WorkerId) -> &mut WorkerRt {
        &mut self.workers[w]
    }

    /// Checks a send against every rule and, if it breaks none, books it:
    /// opens the chunk or counts the blocks against their step, and
    /// reserves them in the worker's memory until delivery.
    pub fn issue_send(
        &mut self,
        worker: WorkerId,
        fragment: &Fragment,
        new_chunk: Option<ChunkDescr>,
    ) -> Result<(), SimError> {
        let Fragment {
            kind,
            chunk,
            step,
            blocks,
        } = *fragment;
        let Some(w) = self.workers.get_mut(worker) else {
            return Err(SimError::UnknownWorker(worker));
        };
        if blocks == 0 {
            return Err(SimError::protocol("empty fragment"));
        }
        // Memory admission control (in-flight blocks already reserved).
        let attempted = w.resident + w.reserved + blocks;
        let fits = if attempted > w.capacity {
            Err(SimError::MemoryViolation {
                worker,
                capacity: w.capacity,
                attempted,
                chunk,
            })
        } else {
            Ok(())
        };
        match new_chunk {
            Some(descr) => {
                if self.chunks.contains_key(&descr.id) {
                    return Err(SimError::protocol(format!(
                        "duplicate chunk id {}",
                        descr.id
                    )));
                }
                if kind != MatKind::C || chunk != descr.id || blocks != descr.c_blocks {
                    return Err(SimError::protocol(
                        "a chunk must be opened by its full C-load fragment",
                    ));
                }
                if descr.steps == 0 || descr.updates_per_step == 0 || descr.c_blocks == 0 {
                    return Err(SimError::protocol("degenerate chunk descriptor"));
                }
                fits?;
                self.chunks.insert(
                    descr.id,
                    ChunkEntry {
                        worker,
                        descr,
                        issued: vec![[0; 2]; descr.steps as usize],
                        computed: false,
                        retrieved: false,
                        retrieve_pending: false,
                        lost: false,
                    },
                );
                w.stats.chunks_assigned += 1;
            }
            None => {
                let ch = self
                    .chunks
                    .get_mut(&chunk)
                    .ok_or_else(|| unknown_chunk(chunk))?;
                if ch.lost {
                    return Err(SimError::protocol(format!(
                        "fragment for chunk {chunk}, lost in a worker crash"
                    )));
                }
                if ch.worker != worker {
                    return Err(SimError::protocol(format!(
                        "fragment for chunk {chunk} sent to worker {worker}, \
                         but the chunk lives on worker {}",
                        ch.worker
                    )));
                }
                if kind == MatKind::C {
                    return Err(SimError::protocol(format!(
                        "second C load for chunk {chunk}"
                    )));
                }
                if step >= ch.descr.steps {
                    return Err(SimError::protocol(format!(
                        "step {step} out of range for chunk {chunk}"
                    )));
                }
                let (issued, quota) = if kind == MatKind::A {
                    (&mut ch.issued[step as usize][0], ch.descr.a_for(step))
                } else {
                    (&mut ch.issued[step as usize][1], ch.descr.b_for(step))
                };
                if *issued + blocks > quota {
                    return Err(SimError::over_delivery(chunk, step));
                }
                fits?;
                *issued += blocks;
            }
        }
        w.reserved += blocks;
        Ok(())
    }

    /// Checks a retrieval against every rule and, if it breaks none,
    /// books it as asked for. Returns whether the chunk is already
    /// computed (the transfer can start) or the master must block on it.
    pub fn issue_retrieve(&mut self, worker: WorkerId, chunk: ChunkId) -> Result<bool, SimError> {
        if worker >= self.workers.len() {
            return Err(SimError::UnknownWorker(worker));
        }
        let ch = self
            .chunks
            .get_mut(&chunk)
            .ok_or_else(|| unknown_chunk(chunk))?;
        if ch.worker != worker {
            return Err(SimError::protocol(format!(
                "retrieve of chunk {chunk} from worker {worker}, \
                 but it is assigned to worker {}",
                ch.worker
            )));
        }
        if ch.retrieved || ch.retrieve_pending {
            return Err(SimError::protocol(format!("chunk {chunk} retrieved twice")));
        }
        if ch.lost {
            return Err(SimError::protocol(format!(
                "retrieve of chunk {chunk}, lost in a worker crash"
            )));
        }
        ch.retrieve_pending = true;
        Ok(ch.computed)
    }

    /// `Action::Finished` is legal only once every live chunk is back.
    pub fn check_finished(&self) -> Result<(), SimError> {
        match self.unretrieved() {
            0 => Ok(()),
            left => Err(SimError::PrematureFinish {
                unretrieved_chunks: left,
            }),
        }
    }

    /// A send completed: releases its reservation and, unless the worker
    /// is down or the chunk lost, makes the blocks resident.
    pub fn delivered(&mut self, worker: WorkerId, fragment: &Fragment) -> Delivery {
        let w = &mut self.workers[worker];
        w.reserved -= fragment.blocks;
        let ch = self
            .chunks
            .get_mut(&fragment.chunk)
            .expect("chunk checked at issue");
        if !w.up || ch.lost {
            let newly_lost = !ch.lost;
            ch.lost = true;
            return Delivery::Dropped { newly_lost };
        }
        w.resident += fragment.blocks;
        w.stats.mem_high_water = w.stats.mem_high_water.max(w.resident);
        w.stats.blocks_rx += fragment.blocks;
        Delivery::Landed
    }

    /// A compute step completed: its A/B buffers are free.
    pub fn step_done(&mut self, worker: WorkerId, chunk: ChunkId, step: StepId) {
        let d = &self.chunks[&chunk].descr;
        let w = &mut self.workers[worker];
        w.resident -= d.a_for(step) + d.b_for(step);
        w.stats.updates += d.updates_for(step);
    }

    /// All of `chunk`'s steps completed: its result can be retrieved.
    pub fn chunk_computed(&mut self, chunk: ChunkId) {
        self.chunk_mut(chunk).computed = true;
    }

    /// A retrieval completed. Returns `false` — and books nothing — when
    /// the source crashed mid-transfer and the partial result is
    /// discarded.
    pub fn retrieved(&mut self, worker: WorkerId, chunk: ChunkId) -> bool {
        let ch = self.chunk_mut(chunk);
        if ch.lost {
            return false;
        }
        ch.retrieved = true;
        let blocks = ch.descr.c_blocks;
        let w = &mut self.workers[worker];
        w.resident -= blocks;
        w.stats.blocks_tx += blocks;
        true
    }

    /// Worker `worker` crashed: its memory is wiped and every unretrieved
    /// chunk on it is lost. Returns those chunks in id order. In-flight
    /// sends keep their reservation until their delivery drops them.
    pub fn crash(&mut self, worker: WorkerId) -> Vec<ChunkId> {
        let w = &mut self.workers[worker];
        w.up = false;
        w.resident = 0;
        let mut lost = Vec::new();
        for (&id, ch) in self.chunks.iter_mut() {
            if ch.worker == worker && !ch.retrieved && !ch.lost {
                ch.lost = true;
                lost.push(id);
            }
        }
        // The table is hashed (it is looked up several times per event);
        // the sweep is rare, and its order is part of the schedule.
        lost.sort_unstable();
        lost
    }

    /// Worker `worker` (re)joined with empty memory.
    pub fn rejoin(&mut self, worker: WorkerId) {
        self.workers[worker].up = true;
    }

    /// Live chunks still to be retrieved.
    pub fn unretrieved(&self) -> usize {
        self.chunks
            .values()
            .filter(|c| !c.retrieved && !c.lost)
            .count()
    }

    /// The policy-facing view of the books at time `now`.
    pub fn ctx(&self, now: f64) -> SimCtx<'_> {
        SimCtx {
            now,
            workers: &self.workers,
        }
    }

    /// Folds the books into the run's statistics.
    pub fn into_stats(
        self,
        makespan: f64,
        port_busy: f64,
        port: PortStats,
        jobs: Vec<JobStats>,
        policy: &str,
    ) -> RunStats {
        let per_worker: Vec<WorkerStats> = self.workers.iter().map(|w| w.stats).collect();
        RunStats {
            makespan,
            port_busy,
            blocks_to_workers: per_worker.iter().map(|w| w.blocks_rx).sum(),
            blocks_to_master: per_worker.iter().map(|w| w.blocks_tx).sum(),
            total_updates: per_worker.iter().map(|w| w.updates).sum(),
            chunks: self.chunks.values().filter(|c| c.retrieved).count() as u64,
            port,
            per_worker,
            jobs,
            policy: policy.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stargemm_platform::WorkerSpec;

    #[test]
    fn ledger_tracks_occupancy_reservations_and_stats() {
        let platform = Platform::new(
            "m",
            vec![WorkerSpec::new(1.0, 1.0, 50), WorkerSpec::new(2.0, 2.0, 20)],
        );
        let mut ledger = StarLedger::new(&platform, None);
        {
            let ctx = ledger.ctx(3.5);
            assert_eq!(ctx.now(), 3.5);
            assert_eq!(ctx.compute_free_at(0), 3.5);
            assert_eq!(ctx.num_workers(), 2);
            assert_eq!(ctx.free_buffers(0), 50);
            assert!(!ctx.enrolled(0));
        }
        let d = ChunkDescr {
            id: 7,
            c_blocks: 10,
            steps: 1,
            a_blocks_per_step: 2,
            b_blocks_per_step: 2,
            updates_per_step: 9,
            tail: None,
        };
        let (c, a, b) = (
            Fragment::c_load(&d),
            Fragment::a_step(&d, 0),
            Fragment::b_step(&d, 0),
        );
        // Issued blocks are reserved — and the worker enrolled — before
        // anything lands.
        ledger.issue_send(0, &c, Some(d)).unwrap();
        ledger.issue_send(0, &a, None).unwrap();
        {
            let ctx = ledger.ctx(0.0);
            assert_eq!(ctx.occupied_blocks(0), 12);
            assert_eq!(ctx.free_buffers(0), 38);
            assert!(ctx.enrolled(0));
            assert!(!ctx.enrolled(1));
        }
        // The same fragment cannot be issued again while it is in flight.
        assert_eq!(
            ledger.issue_send(0, &a, None),
            Err(SimError::over_delivery(7, 0))
        );
        assert_eq!(ledger.delivered(0, &c), Delivery::Landed); // C chunk
        assert_eq!(ledger.delivered(0, &a), Delivery::Landed); // step fragments
        ledger.issue_send(0, &b, None).unwrap();
        assert_eq!(ledger.delivered(0, &b), Delivery::Landed);
        assert_eq!(ledger.ctx(0.0).occupied_blocks(0), 14);
        assert_eq!(ledger.ctx(0.0).free_buffers(0), 36);
        ledger.step_done(0, 7, 0);
        ledger.chunk_computed(7);
        assert_eq!(ledger.ctx(0.0).occupied_blocks(0), 10);
        assert_eq!(ledger.ctx(0.0).updates_done(0), 9);
        assert_eq!(ledger.issue_retrieve(0, 7), Ok(true));
        assert!(ledger.check_finished().is_err());
        assert!(ledger.retrieved(0, 7));
        assert_eq!(ledger.ctx(0.0).occupied_blocks(0), 0);
        assert_eq!(ledger.check_finished(), Ok(()));
        let stats = ledger.into_stats(1.0, 0.5, PortStats::default(), Vec::new(), "p");
        assert_eq!(stats.chunks, 1);
        assert_eq!(stats.per_worker[0].blocks_rx, 14);
        assert_eq!(stats.per_worker[0].blocks_tx, 10);
        assert_eq!(stats.per_worker[0].mem_high_water, 14);
        assert_eq!(stats.per_worker[0].chunks_assigned, 1);
        assert_eq!(stats.per_worker[1], WorkerStats::default());
    }
}
