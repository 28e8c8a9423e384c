//! Discrete-event simulator of the paper's one-port star platform.
//!
//! The paper models execution as follows (Section 2):
//!
//! * linear costs — a message of `X` blocks occupies the master's port for
//!   `X · c_i` seconds; a compute step of `U` block updates occupies
//!   worker `i` for `U · w_i` seconds;
//! * **one-port model** — the master serializes *all* its communications
//!   (sends and receives alike);
//! * a worker cannot start computing before its operands have fully
//!   arrived, cannot return a result before the computation finished, and
//!   *can* overlap communication with computation of independent tasks;
//! * worker `i` holds at most `m_i` blocks at any instant.
//!
//! The implementation is layered: [`kernel`] is a generic,
//! model-agnostic discrete-event core (deterministically ordered,
//! cancellable event queue); [`master`], [`ledger`] and [`lanes`] are
//! the master side of the rules above — the control automaton, the
//! chunk and memory books, the transfers in flight — written once and
//! shared with the `stargemm-net` runtime; [`model`] adds the simulated
//! workers as kernel components, and [`engine::Simulator`] drives the
//! master-policy protocol on top. Scheduling algorithms are
//! [`policy::MasterPolicy`] implementations (provided by `stargemm-core`);
//! the engine asks the policy what to communicate whenever the port frees,
//! executes the generic dataflow worker semantics, enforces the memory
//! capacity **strictly** (an algorithm that overflows a worker's buffers
//! fails the run — this is how the paper's Table 2 infeasibility argument
//! is demonstrated), and reports [`stats::RunStats`]. The schedule
//! itself is recorded once, as the `stargemm-obs` event log of
//! [`Simulator::run_observed`]; Gantt charts, overlap analysis, Perfetto
//! traces and attribution are all read off that log there.
//!
//! Granularity: one *fragment* (a batch of blocks bound to a `(chunk,
//! step)` pair) per message and one compute *step* (all updates enabled by
//! that step's fragments) per compute event. This matches the granularity
//! of the paper's own cost analysis (`2μ c_i` communication then
//! `μ² w_i` computation per step).

pub mod engine;
pub mod error;
pub mod fed;
pub mod kernel;
pub mod lanes;
pub mod ledger;
pub mod master;
pub mod model;
pub mod msg;
pub mod policy;
pub mod stats;

pub use engine::Simulator;
pub use error::SimError;
pub use fed::{FedModel, FedRun};
pub use kernel::{ComponentId, EventId, EventQueue, KernelError};
pub use lanes::{Lane, LaneTable};
pub use ledger::{Delivery, StarLedger};
pub use master::{MasterSm, MasterState, MasterTransport};
pub use msg::{
    ChunkDescr, ChunkId, ChunkMap, Fragment, IdHasher, JobId, MatKind, StepCosts, StepId,
};
pub use policy::{Action, MasterPolicy, SimCtx, SimEvent};
pub use stargemm_netmodel::{NetModelSpec, TransferLane};
pub use stargemm_obs::{ObsEvent, ObsSink, Recorder, RunRecorder};
pub use stats::{JobStats, PortStats, RunStats, WorkerStats};
