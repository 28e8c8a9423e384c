//! `stargemm-dyn` — dynamic platforms, worker churn, and adaptive
//! online scheduling.
//!
//! The paper (and everything in `stargemm-core`) assumes the platform's
//! `(c_i, w_i)` are known constants and that workers never leave. This
//! crate drops both assumptions and makes the scheduling stack survive —
//! and exploit — a platform that changes under it:
//!
//! * **Models** — the time-varying platform description itself
//!   (piecewise-constant cost traces, crash/join schedules, the shared
//!   `DynProfile` both engines read, and the `@`-directive text format)
//!   lives in [`stargemm_platform::dynamic`], re-exported here as
//!   [`model`]. [`scenario`] adds seeded stochastic generators:
//!   bandwidth jitter, speed degradation, and churn.
//! * **Adaptive policy** — [`adaptive::AdaptiveMaster`] wraps the
//!   paper's `Het` plan with crash recovery (orphaned C regions are
//!   re-planned onto survivors with fresh chunk ids), EWMA estimation
//!   of the *observed* `ĉ_i`/`ŵ_i` ([`estimate`]), and drift-triggered
//!   min-min re-balancing of every unsent chunk. In the static limit it
//!   is observationally identical to static `Het`.
//! * **Bounds** — [`bound::dyn_makespan_lower_bound`] generalizes the
//!   steady-state bound to traces and downtime; no dynamic run may beat
//!   it, which the property suite enforces.
//!
//! Both execution engines honour the same scenario: `sim::Simulator`
//! integrates durations over the traces and aborts chunks on scheduled
//! crashes (`Simulator::new_dyn`), and `net::NetRuntime` throttles its
//! real links and fails/recovers its worker machines from the shared
//! profile (`NetOptions::profile`).

pub mod adaptive;
pub mod bound;
pub mod estimate;
pub mod scenario;

/// The dynamic platform model (re-export of
/// [`stargemm_platform::dynamic`]).
pub use stargemm_platform::dynamic as model;

pub use adaptive::{AdaptiveMaster, AdaptiveStats};
pub use bound::dyn_makespan_lower_bound;
pub use estimate::{CostEstimator, Ewma};
pub use scenario::{
    churn_scenario, degradation_scenario, random_scenario, ScenarioConfig, ScenarioError,
};
