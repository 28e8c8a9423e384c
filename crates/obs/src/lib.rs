//! Unified observability layer for the star-platform engines.
//!
//! Every figure in the paper is a claim about *where time went* — port
//! occupancy vs compute overlap — yet until this crate the engines
//! could only answer post-hoc through [`RunStats`]-style aggregates.
//! This crate defines one structured event schema ([`ObsEvent`])
//! covering both engines and every master policy:
//!
//! * **wire** — port acquire/release per contention lane, with
//!   direction, operand and block count;
//! * **compute** — per-worker step start/end intervals;
//! * **decisions** — chunk dispatch, stream LP re-solves, deficit
//!   credits, DAG frontier promotion, crash/recovery, job
//!   admission/completion.
//!
//! Events flow through a [`Recorder`] behind an [`ObsSink`] handle.
//! The sink is **zero-overhead when disabled**: detached it is a
//! `None` — one branch per would-be event, and the event constructor
//! (a closure) is never run. Recording never feeds back into the
//! engines: a recorder can only observe, so recorder-on and
//! recorder-off runs produce byte-identical schedules and stats (pinned
//! by workspace proptests).
//!
//! The event log is the one record of a run. [`spans`] pairs its
//! begin/end events into intervals once — a single definition of what
//! an interval is, and of what happens to one that never closes — and
//! every view below reads those spans, so each works on a run of either
//! engine:
//!
//! * [`MetricsRegistry`] — counters, gauges and log-bucketed
//!   [`Histogram`]s (quantiles oracle-tested against exact sorted
//!   vectors), derived from the log by [`RunRecorder::into_parts`];
//! * [`RunMetrics`] — headline *bound-gap* block (port utilization vs
//!   the LP ceiling, per-worker busy fraction vs plan share, achieved
//!   vs LP throughput, DAG frontier width) embedded in `--json`
//!   artifacts;
//! * [`perfetto_trace`] — Chrome/Perfetto `trace_event` JSON with one
//!   track per port lane, per worker comm/compute lane, and per job
//!   (written by every `exp_*` binary's `--trace-out` flag);
//! * [`render_gantt`] — the ASCII Gantt chart of the schedule, one row
//!   per port lane and two per worker;
//! * [`analyze`] — port utilization, per-worker busy time and the
//!   communication/computation overlap fraction;
//! * [`Attribution`] — post-run critical-path attribution: a conserved
//!   decomposition of the makespan into eight wait/work categories
//!   (summing *bit-exactly* to the makespan), a critical-path summary,
//!   and folded flamegraph stacks (written by `--attr-out`, embedded as
//!   the `attribution` block in `--json` artifacts, and diffed by
//!   `exp_attr --diff`).
//!
//! Dependency-graph position: `obs` is a leaf above `serde` only, so
//! every engine and policy crate can depend on it without cycles; LP
//! inputs for the bound gaps are computed by the *callers* (bench
//! binaries) and passed in as plain numbers.
//!
//! [`RunStats`]: ../stargemm_sim/stats/struct.RunStats.html

mod analysis;
mod attr;
mod event;
mod gantt;
mod metrics;
mod perfetto;
mod recorder;
mod runmetrics;
mod span;

pub use analysis::{analyze, TraceAnalysis, WorkerBreakdown};
pub use attr::{Attribution, Categories, CriticalPath, CATEGORY_COUNT, CATEGORY_NAMES};
pub use event::{Dir, MatTag, ObsEvent};
pub use gantt::render_gantt;
pub use metrics::{Histogram, MetricsRegistry};
pub use perfetto::perfetto_trace;
pub use recorder::{ObsSink, Recorder, RunRecorder};
pub use runmetrics::{BoundGap, RunMetrics, TenantGap, WorkerGap};
pub use span::{spans, Span, Track};
