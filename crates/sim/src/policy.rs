//! The master-side scheduling interface.
//!
//! A scheduling algorithm is a [`MasterPolicy`]: whenever the master's
//! single port is free, the engine asks the policy for the next
//! communication [`Action`]; events (transfer completions, compute-step
//! completions) are reported through [`MasterPolicy::on_event`] so dynamic
//! policies (demand-driven, min-min) can react.
//!
//! The same trait drives both the discrete-event simulator and the
//! `stargemm-net` runtime — algorithms are written once.

use crate::msg::{ChunkDescr, ChunkId, Fragment, JobId};
use stargemm_platform::WorkerId;

/// What the master does next, decided each time its port becomes free.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Action {
    /// Transfer a fragment to a worker. The first fragment of a chunk
    /// must be its C load and must carry the chunk's descriptor in
    /// `new_chunk`.
    Send {
        worker: WorkerId,
        fragment: Fragment,
        new_chunk: Option<ChunkDescr>,
    },
    /// Retrieve a computed chunk from a worker. If the chunk is still
    /// being computed the master *blocks* (its port idles) until the
    /// result is ready — mirroring a blocking receive.
    Retrieve { worker: WorkerId, chunk: ChunkId },
    /// Declare a job of a multi-job stream complete (all its chunks
    /// retrieved). Free — takes no port time — and timestamped by the
    /// engine into [`crate::stats::JobStats`]; the matching
    /// [`SimEvent::JobCompleted`] is delivered through the kernel. The
    /// job must have arrived and not been completed before.
    CompleteJob { job: JobId },
    /// Do nothing until the next event, then ask again.
    Wait,
    /// All chunks have been retrieved; the run is over.
    Finished,
}

/// Events reported to the policy (after the engine state is updated, so
/// the [`SimCtx`] passed alongside reflects the post-event state).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SimEvent {
    /// A master→worker fragment transfer finished; blocks are now
    /// resident on the worker.
    SendDone {
        worker: WorkerId,
        fragment: Fragment,
    },
    /// A worker→master chunk retrieval finished; the chunk's C buffers
    /// are now free.
    RetrieveDone { worker: WorkerId, chunk: ChunkId },
    /// A worker finished one compute step of a chunk; the step's A/B
    /// buffers are now free.
    StepDone {
        worker: WorkerId,
        chunk: ChunkId,
        step: crate::msg::StepId,
    },
    /// All steps of a chunk are done; its result can be retrieved.
    ChunkComputed { worker: WorkerId, chunk: ChunkId },
    /// A worker crashed (dynamic platforms): its resident blocks are
    /// gone and every unretrieved chunk assigned to it has been lost
    /// (one [`SimEvent::ChunkLost`] follows per chunk).
    WorkerDown { worker: WorkerId },
    /// A worker (re)joined the platform with empty memory.
    WorkerUp { worker: WorkerId },
    /// A chunk's data was destroyed by a worker crash; the engine will
    /// never deliver further events for it and does not require its
    /// retrieval. Recovering the lost C region is the policy's job.
    ChunkLost { worker: WorkerId, chunk: ChunkId },
    /// A job of a multi-job stream entered the system (scheduled via
    /// [`crate::engine::Simulator::with_arrivals`]). Admitting and
    /// planning it is the policy's job.
    JobArrived { job: JobId },
    /// A job the policy declared complete ([`Action::CompleteJob`]) —
    /// its completion time is now recorded in the run statistics.
    JobCompleted { job: JobId },
}

/// Read-only view of the engine state offered to policies.
///
/// Dynamic policies use it for flow control (buffer occupancy) and
/// completion estimates (`compute_free_at`); static policies can ignore
/// it entirely.
pub struct SimCtx<'a> {
    pub(crate) now: f64,
    pub(crate) workers: &'a [crate::model::WorkerRt],
}

impl SimCtx<'_> {
    /// Current simulated time (the master's decision instant).
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Number of workers on the platform.
    pub fn num_workers(&self) -> usize {
        self.workers.len()
    }

    /// Blocks currently occupying worker `w`'s memory, *including* blocks
    /// reserved by in-flight transfers.
    pub fn occupied_blocks(&self, w: WorkerId) -> u64 {
        let st = &self.workers[w];
        st.resident + st.reserved
    }

    /// Free buffers on worker `w` after accounting for in-flight
    /// reservations.
    pub fn free_buffers(&self, w: WorkerId) -> u64 {
        let st = &self.workers[w];
        (st.capacity).saturating_sub(st.resident + st.reserved)
    }

    /// Time at which worker `w` will have drained its currently known
    /// compute work (`max(now, end of last scheduled step)`).
    pub fn compute_free_at(&self, w: WorkerId) -> f64 {
        self.workers[w].compute_free_at.max(self.now)
    }

    /// Whether worker `w` is currently up (always `true` on static
    /// platforms).
    pub fn is_up(&self, w: WorkerId) -> bool {
        self.workers[w].up
    }

    /// Whether worker `w` has been sent anything yet (i.e. is enrolled).
    pub fn enrolled(&self, w: WorkerId) -> bool {
        self.workers[w].stats.blocks_rx > 0 || self.workers[w].reserved > 0
    }

    /// Block updates worker `w` has completed so far.
    pub fn updates_done(&self, w: WorkerId) -> u64 {
        self.workers[w].stats.updates
    }
}

/// Owning per-worker state mirror for drivers *outside* the
/// discrete-event engine — the `stargemm-net` runtime keeps one so it
/// can hand policies a valid [`SimCtx`]. Occupancy tracking mirrors
/// the engine's: blocks become resident when a send completes and are
/// freed by step completions and retrievals.
pub struct CtxMirror {
    now: f64,
    workers: Vec<crate::model::WorkerRt>,
}

impl CtxMirror {
    /// A mirror for the given platform, at time zero.
    pub fn new(platform: &stargemm_platform::Platform) -> Self {
        CtxMirror {
            now: 0.0,
            workers: platform
                .workers()
                .iter()
                .map(crate::model::WorkerRt::from_spec)
                .collect(),
        }
    }

    /// Advances the mirror clock (seconds since the run started).
    pub fn set_now(&mut self, now: f64) {
        self.now = now;
    }

    /// Records a chunk newly assigned to worker `w` (its `LoadC` is about
    /// to ship). Keeps `chunks_assigned` comparable with the engine's.
    pub fn on_chunk_assigned(&mut self, w: WorkerId) {
        self.workers[w].stats.chunks_assigned += 1;
    }

    /// Records a completed master→worker transfer of `blocks`.
    pub fn on_delivered(&mut self, w: WorkerId, blocks: u64) {
        let st = &mut self.workers[w];
        st.resident += blocks;
        st.stats.blocks_rx += blocks;
        st.stats.mem_high_water = st.stats.mem_high_water.max(st.resident);
    }

    /// Records a completed compute step freeing `freed` operand blocks.
    pub fn on_step(&mut self, w: WorkerId, freed: u64, updates: u64) {
        let st = &mut self.workers[w];
        st.resident = st.resident.saturating_sub(freed);
        st.stats.updates += updates;
    }

    /// Records a worker crash: its memory is wiped and it goes down.
    pub fn on_crash(&mut self, w: WorkerId) {
        let st = &mut self.workers[w];
        st.resident = 0;
        st.up = false;
    }

    /// Records a worker (re)joining with empty memory.
    pub fn on_rejoin(&mut self, w: WorkerId) {
        self.workers[w].up = true;
    }

    /// Records a retrieved chunk of `blocks` C blocks.
    pub fn on_retrieved(&mut self, w: WorkerId, blocks: u64) {
        let st = &mut self.workers[w];
        st.resident = st.resident.saturating_sub(blocks);
        st.stats.blocks_tx += blocks;
    }

    /// Current occupancy of worker `w` (resident blocks).
    pub fn occupancy(&self, w: WorkerId) -> u64 {
        self.workers[w].resident
    }

    /// Per-worker statistics accumulated so far.
    pub fn stats(&self) -> Vec<crate::stats::WorkerStats> {
        self.workers.iter().map(|w| w.stats).collect()
    }

    /// A policy-facing view of the mirror.
    pub fn ctx(&self) -> SimCtx<'_> {
        SimCtx {
            now: self.now,
            workers: &self.workers,
        }
    }
}

/// A master-side scheduling algorithm.
pub trait MasterPolicy {
    /// Asked whenever the master is idle (at `ctx.now()`); returns the
    /// next communication action.
    fn next_action(&mut self, ctx: &SimCtx) -> Action;

    /// Notification of an engine event; default ignores it.
    fn on_event(&mut self, _ev: &SimEvent, _ctx: &SimCtx) {}

    /// Short name used in experiment reports.
    fn name(&self) -> &'static str {
        "unnamed-policy"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::MatKind;
    use stargemm_platform::{Platform, WorkerSpec};

    #[test]
    fn ctx_mirror_tracks_occupancy_like_the_engine() {
        let platform = Platform::new(
            "m",
            vec![WorkerSpec::new(1.0, 1.0, 50), WorkerSpec::new(2.0, 2.0, 20)],
        );
        let mut mirror = CtxMirror::new(&platform);
        assert_eq!(mirror.occupancy(0), 0);
        {
            let ctx = mirror.ctx();
            assert_eq!(ctx.num_workers(), 2);
            assert_eq!(ctx.free_buffers(0), 50);
            assert!(!ctx.enrolled(0));
        }
        mirror.on_chunk_assigned(0);
        mirror.on_delivered(0, 10); // C chunk
        mirror.on_delivered(0, 4); // step fragments
        assert_eq!(mirror.occupancy(0), 14);
        {
            let ctx = mirror.ctx();
            assert_eq!(ctx.free_buffers(0), 36);
            assert!(ctx.enrolled(0));
            assert!(!ctx.enrolled(1));
        }
        mirror.on_step(0, 4, 9);
        assert_eq!(mirror.occupancy(0), 10);
        assert_eq!(mirror.ctx().updates_done(0), 9);
        mirror.on_retrieved(0, 10);
        assert_eq!(mirror.occupancy(0), 0);
        let stats = mirror.stats();
        assert_eq!(stats[0].blocks_rx, 14);
        assert_eq!(stats[0].blocks_tx, 10);
        assert_eq!(stats[0].mem_high_water, 14);
        assert_eq!(stats[0].chunks_assigned, 1);
        assert_eq!(stats[1], crate::stats::WorkerStats::default());
    }

    #[test]
    fn ctx_mirror_clock_advances() {
        let platform = Platform::new("m", vec![WorkerSpec::new(1.0, 1.0, 10)]);
        let mut mirror = CtxMirror::new(&platform);
        mirror.set_now(3.5);
        assert_eq!(mirror.ctx().now(), 3.5);
        assert_eq!(mirror.ctx().compute_free_at(0), 3.5);
    }

    #[test]
    fn action_equality_for_debugging() {
        let f = Fragment {
            kind: MatKind::A,
            chunk: 1,
            step: 2,
            blocks: 3,
        };
        let a = Action::Send {
            worker: 0,
            fragment: f,
            new_chunk: None,
        };
        assert_eq!(a, a);
        assert_ne!(a, Action::Wait);
    }
}
