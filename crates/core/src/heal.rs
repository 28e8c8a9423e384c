//! Crash healing for lane masters. As in the dslab master's task table,
//! an offline worker's work goes back to unassigned.
//!
//! A [`Healer`] heals any [`QueueSurgery`] master: it drains a dead lane
//! and drops its active chunk, moves each orphan to a live worker, tiles
//! it there ([`tiles`]) under fresh ids, and parks it as *stranded* when
//! no worker can take it, retrying when one (re)joins. The caller passes
//! its placement rule — the live worker an orphan goes to and the tile
//! side that worker holds, `None` when nobody can host it now — and the
//! chunk-id counter fresh ids come from.

use stargemm_sim::{ChunkId, SimEvent};

use crate::geometry::{plan_chunk, tiles, ChunkGeom};
use crate::stream::QueueSurgery;

/// The stranded regions of one lane set, and how many chunks were
/// re-planned into it.
#[derive(Debug, Default)]
pub struct Healer {
    stranded: Vec<ChunkGeom>,
    replanned: u64,
}

impl Healer {
    /// Chunks re-planned so far.
    pub fn replanned(&self) -> u64 {
        self.replanned
    }

    /// Whether the lane set may report `Finished`: not while a region
    /// waits for a rejoin (or for the engine to diagnose the deadlock).
    pub fn may_finish(&self) -> bool {
        self.stranded.is_empty()
    }

    /// Parks a region the caller's own placement found no host for.
    pub fn strand(&mut self, geom: ChunkGeom) {
        self.stranded.push(geom);
    }

    /// Re-plans the queued chunks of every worker down now (`!up[w]`),
    /// which catches workers down from `t = 0`: no `WorkerDown` fires
    /// for them.
    pub fn sweep<M: QueueSurgery>(
        &mut self,
        m: &mut M,
        up: &[bool],
        place: impl Fn(&M, &ChunkGeom) -> Option<(usize, usize)>,
        next_id: &mut ChunkId,
    ) {
        for w in (0..up.len()).filter(|&w| !up[w]) {
            for pc in m.drain_lane(w) {
                self.replan(m, pc.geom, &place, next_id);
            }
        }
    }

    /// Heals one lifecycle event; `place` must already see it. A
    /// `WorkerDown` drops the lane's active chunk (its loss arrives as
    /// its own `ChunkLost`) and re-plans the queued ones; a `WorkerUp`
    /// retries the stranded regions; a `ChunkLost` stops the lane
    /// streaming the chunk and re-plans it. The engines report a chunk
    /// lost at most once, so no repeat needs filtering.
    pub fn on_event<M: QueueSurgery>(
        &mut self,
        m: &mut M,
        ev: &SimEvent,
        place: impl Fn(&M, &ChunkGeom) -> Option<(usize, usize)>,
        next_id: &mut ChunkId,
    ) {
        match *ev {
            SimEvent::WorkerDown { worker } => {
                m.clear_active(worker);
                for pc in m.drain_lane(worker) {
                    self.replan(m, pc.geom, &place, next_id);
                }
            }
            SimEvent::WorkerUp { .. } => self.retry(m, place, next_id),
            SimEvent::ChunkLost { chunk, .. } => {
                let Some(geom) = m.chunk_geom(chunk) else {
                    return;
                };
                if m.active_chunk_on(geom.worker)
                    .is_some_and(|pc| pc.descr.id == chunk)
                {
                    m.clear_active(geom.worker);
                }
                self.replan(m, geom, &place, next_id);
            }
            _ => {}
        }
    }

    /// Gives every stranded region another chance on the current roster.
    pub fn retry<M: QueueSurgery>(
        &mut self,
        m: &mut M,
        place: impl Fn(&M, &ChunkGeom) -> Option<(usize, usize)>,
        next_id: &mut ChunkId,
    ) {
        for geom in std::mem::take(&mut self.stranded) {
            self.replan(m, geom, &place, next_id);
        }
    }

    /// Moves `geom` to the worker `place` picks, as tiles of the side it
    /// picks under fresh ids, or strands it.
    fn replan<M: QueueSurgery>(
        &mut self,
        m: &mut M,
        geom: ChunkGeom,
        place: &impl Fn(&M, &ChunkGeom) -> Option<(usize, usize)>,
        next_id: &mut ChunkId,
    ) {
        let Some((target, side)) = place(m, &geom) else {
            return self.strand(geom);
        };
        let job = m.job_dims();
        for (i0, j0, h, w) in tiles(geom, side) {
            let pc = plan_chunk(&job, *next_id, target, i0, j0, h, w, geom.k_depth);
            m.enqueue_chunk(pc);
            *next_id += 1;
            self.replanned += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assign::round_robin_queues;
    use crate::stream::{Serving, StreamingMaster};
    use crate::Job;
    use stargemm_platform::{Platform, WorkerSpec};
    use stargemm_sim::{Action, MasterPolicy, StarLedger};

    type Place = fn(&StreamingMaster, &ChunkGeom) -> Option<(usize, usize)>;

    /// Nobody can host anything.
    const NOWHERE: Place = |_, _| None;
    /// Everything goes to worker 1, whole.
    const TO_1: Place = |_, g| Some((1, g.h.max(g.w)));

    /// Two lanes of 2 × 2 chunks, and the next free chunk id.
    fn lanes() -> (StreamingMaster, ChunkId) {
        let job = Job::new(4, 4, 6, 2);
        let mut next_id = 0;
        let queues = round_robin_queues(&job, 2, 0..2, &[2usize, 2], &mut next_id);
        let m = StreamingMaster::new_static("heal", job, queues, Serving::DemandDriven, 2);
        (m, next_id)
    }

    #[test]
    fn a_dead_lane_is_stranded_until_a_rejoin_replans_it_under_fresh_ids() {
        let (mut m, mut next_id) = lanes();
        let orphans: Vec<ChunkGeom> = m.queued_chunks(0).map(|pc| pc.geom).collect();
        let mut heal = Healer::default();
        heal.on_event(
            &mut m,
            &SimEvent::WorkerDown { worker: 0 },
            NOWHERE,
            &mut next_id,
        );
        assert_eq!(m.queued_chunks(0).count(), 0);
        assert!(!heal.may_finish());

        let first_fresh = next_id;
        heal.on_event(
            &mut m,
            &SimEvent::WorkerUp { worker: 1 },
            TO_1,
            &mut next_id,
        );
        assert!(heal.may_finish());
        assert_eq!(heal.replanned(), orphans.len() as u64);
        let moved: Vec<_> = m
            .queued_chunks(1)
            .filter(|pc| pc.geom.id >= first_fresh)
            .collect();
        assert_eq!(moved.len(), orphans.len());
        for (pc, orphan) in moved.iter().zip(&orphans) {
            assert_eq!((pc.geom.i0, pc.geom.j0), (orphan.i0, orphan.j0));
        }
    }

    #[test]
    fn a_sweep_evacuates_only_the_lanes_of_workers_down_now() {
        let (mut m, mut next_id) = lanes();
        let on_1 = m.queued_chunks(1).count();
        let mut heal = Healer::default();
        heal.sweep(&mut m, &[true, true], TO_1, &mut next_id);
        assert_eq!(heal.replanned(), 0);
        heal.sweep(&mut m, &[false, true], TO_1, &mut next_id);
        assert_eq!(m.queued_chunks(0).count(), 0);
        assert!(m.queued_chunks(1).count() > on_1);
    }

    #[test]
    fn a_lost_chunk_stops_its_lane_only_if_the_lane_still_streams_it() {
        let platform = Platform::homogeneous("heal", 2, WorkerSpec::new(1.0, 1.0, 40));
        let ledger = StarLedger::new(&platform, None);
        let (mut m, mut next_id) = lanes();
        let Action::Send { worker, .. } = m.next_action(&ledger.ctx(0.0)) else {
            panic!("the lanes open a chunk first");
        };
        let active = m.active_chunk_on(worker).unwrap().descr.id;
        let queued = m.queued_chunks(worker).next().unwrap().descr.id;
        let mut heal = Healer::default();
        let lost = |chunk| SimEvent::ChunkLost { worker, chunk };
        heal.on_event(&mut m, &lost(queued), NOWHERE, &mut next_id);
        assert_eq!(m.active_chunk_on(worker).unwrap().descr.id, active);
        heal.on_event(&mut m, &lost(active), NOWHERE, &mut next_id);
        assert!(m.active_chunk_on(worker).is_none());
    }
}
