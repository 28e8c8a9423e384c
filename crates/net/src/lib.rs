//! A hand-rolled one-port messaging runtime — the reproduction's
//! substitute for MPI.
//!
//! The paper's experiments ran over MPI on a physical cluster. Rust has
//! no mature MPI binding, so this crate implements the messaging layer
//! the algorithms need from scratch:
//!
//! * [`wire`] — a binary message format (tag + header + raw `f64` block
//!   payloads) with explicit encode/decode, exactly what would cross a
//!   socket;
//! * `reactor` — the one engine: a single-threaded event loop over
//!   per-worker state machines, keeping the master's books and wire in
//!   the simulator's own `StarLedger` and `LaneTable` (which shares the
//!   wire under a pluggable contention model — `stargemm-netmodel`: the
//!   paper's one-port, bounded multi-port, or a fair-share backbone)
//!   and pacing the wall clock so a `WorkerSpec`'s `c_i` (and the
//!   model's share) is honoured in real time;
//! * `worker` — the worker dataflow machine holding block buffers and
//!   running the actual GEMM kernel on received fragments;
//! * [`runtime`] — the public facade: [`NetRuntime`] executes any
//!   `stargemm-core` policy over real matrices and returns the computed
//!   `C` (verified against the sequential oracle in the tests) together
//!   with wall-clock [`stargemm_sim::RunStats`];
//! * [`calibrate`] — the paper's benchmark phase: measure the kernel and
//!   derive `w` for this machine.
//!
//! Fidelity notes: worker→master control notifications (step/chunk
//! completion) are a few bytes and travel un-throttled, mirroring the
//! paper's decision to neglect start-up overheads and small messages.
//! Memory admission is enforced master-side by the ledger the simulator
//! uses.

pub mod calibrate;
pub mod fed;
pub(crate) mod reactor;
pub mod runtime;
pub mod wire;
pub(crate) mod worker;

pub use fed::{FedNetRun, FedNetRuntime};
pub use runtime::{NetError, NetOptions, NetRuntime};
