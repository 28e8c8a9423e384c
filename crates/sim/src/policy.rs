//! The master-side scheduling interface.
//!
//! A scheduling algorithm is a [`MasterPolicy`]: whenever the master's
//! single port is free, the engine asks the policy for the next
//! communication [`Action`]; events (transfer completions, compute-step
//! completions) are reported through [`MasterPolicy::on_event`] so dynamic
//! policies (demand-driven, min-min) can react.
//!
//! The same trait drives both the discrete-event simulator and the
//! `stargemm-net` runtime — algorithms are written once. Both engines
//! build the [`SimCtx`] they hand a policy from the one shared
//! [`StarLedger`](crate::ledger::StarLedger), so a policy reads the same
//! occupancy, in-flight reservations included, whichever engine runs it.

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
    pub(crate) workers: &'a [crate::ledger::WorkerRt],
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
