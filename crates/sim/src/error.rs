//! Simulation failure modes.
//!
//! A failed simulation is a *finding*, not a crash: the engine validates
//! the protocol and the memory model so that a buggy (or infeasible —
//! Table 2!) scheduling policy is caught, with context, instead of
//! silently producing wrong timings.

use std::fmt;

use crate::msg::{ChunkId, StepId};
use stargemm_platform::WorkerId;

/// Everything that can go wrong during a simulated run.
#[derive(Clone, Debug, PartialEq)]
pub enum SimError {
    /// A send would exceed the worker's block buffers. Carries the
    /// offending worker, its capacity, and the occupancy the send would
    /// have reached.
    MemoryViolation {
        worker: WorkerId,
        capacity: u64,
        attempted: u64,
        chunk: ChunkId,
    },
    /// No event is pending, the policy is waiting, and work remains.
    Deadlock {
        time: f64,
        unretrieved_chunks: usize,
    },
    /// The policy declared completion while chunks were still outstanding.
    PrematureFinish { unretrieved_chunks: usize },
    /// The run's block updates differ from its product's: a static plan
    /// never redoes work, so its policy declared completion before
    /// issuing all of it (or issued some twice).
    IncompleteProduct { updates: u64, expected: u64 },
    /// Protocol misuse by the policy (duplicate chunk id, fragment for an
    /// unknown chunk, over-delivery of a step, retrieval of an unknown or
    /// already-retrieved chunk, …).
    Protocol(String),
    /// A worker was referenced that does not exist on the platform.
    UnknownWorker(WorkerId),
    /// The defensive kernel event cap was crossed
    /// ([`crate::engine::Simulator::with_max_events`]).
    EventCapExceeded { cap: u64 },
}

impl SimError {
    /// Convenience constructor for protocol violations.
    pub fn protocol(msg: impl Into<String>) -> Self {
        SimError::Protocol(msg.into())
    }

    /// Protocol violation: step over-delivery.
    pub fn over_delivery(chunk: ChunkId, step: StepId) -> Self {
        SimError::Protocol(format!("fragment over-delivers chunk {chunk} step {step}"))
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::MemoryViolation {
                worker,
                capacity,
                attempted,
                chunk,
            } => write!(
                f,
                "memory violation on worker {worker}: sending for chunk {chunk} \
                 would occupy {attempted} of {capacity} block buffers"
            ),
            SimError::Deadlock {
                time,
                unretrieved_chunks,
            } => write!(
                f,
                "deadlock at t={time:.6}: no pending event, \
                 {unretrieved_chunks} chunk(s) unretrieved"
            ),
            SimError::PrematureFinish { unretrieved_chunks } => write!(
                f,
                "policy finished with {unretrieved_chunks} chunk(s) unretrieved"
            ),
            SimError::IncompleteProduct { updates, expected } => write!(
                f,
                "run made {updates} block updates, its product needs {expected}"
            ),
            SimError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
            SimError::UnknownWorker(w) => write!(f, "unknown worker {w}"),
            SimError::EventCapExceeded { cap } => {
                write!(f, "event cap exceeded ({cap} events delivered)")
            }
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = SimError::MemoryViolation {
            worker: 3,
            capacity: 100,
            attempted: 120,
            chunk: 9,
        };
        let s = e.to_string();
        assert!(s.contains("worker 3"));
        assert!(s.contains("120 of 100"));

        assert!(SimError::protocol("dup").to_string().contains("dup"));
        assert!(SimError::over_delivery(1, 2).to_string().contains("step 2"));
    }
}
