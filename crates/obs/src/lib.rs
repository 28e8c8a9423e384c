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
//! Events flow through an [`ObsSink`] handle into a [`RunRecorder`],
//! whose log is a `Vec` of 32-byte events. The sink is
//! **zero-overhead when disabled**: detached it is a `None` — one
//! branch per would-be event, and the event constructor (a closure) is
//! never run; attached, an event is one inline push. Recording never
//! feeds back into the engines: a recorder can only observe, so
//! recorder-on and recorder-off runs produce byte-identical schedules
//! and stats (pinned by workspace proptests).
//!
//! The event log is the one record of a run, and recording derives
//! nothing from it: [`RunRecorder::into_parts`] hands the log back
//! unread. [`spans`] pairs its begin/end events into intervals — a
//! single definition of what an interval is, and of what happens to one
//! that never closes — and every view below is computed from the log on
//! demand by the reader that wants it, so each works on a run of either
//! engine:
//!
//! * [`RunMetrics`] — headline *bound-gap* block (port utilization vs
//!   the LP ceiling, per-worker busy fraction vs plan share, achieved
//!   vs LP throughput, DAG frontier width) embedded in `--json`
//!   artifacts;
//! * [`perfetto_trace`] — Chrome/Perfetto `trace_event` JSON with one
//!   track per port lane, per worker comm/compute lane, and per job
//!   (written by `exp <id> --trace-out` for a row's traced cell);
//! * [`render_gantt`] — the ASCII Gantt chart of the schedule, one row
//!   per port lane and two per worker;
//! * [`Attribution`] — post-run critical-path attribution: a conserved
//!   decomposition of the makespan into eight wait/work categories
//!   (summing *bit-exactly* to the makespan), a critical-path summary,
//!   and folded flamegraph stacks (written by `--attr-out`, embedded as
//!   the `attribution` block in `--json` artifacts, and diffed by
//!   `exp attr --diff`), plus the communication/computation overlap
//!   fraction its sweep measures.
//!
//! Dependency-graph position: `obs` is a leaf above `serde` only, so
//! every engine and policy crate can depend on it without cycles; LP
//! inputs for the bound gaps are computed by the *callers* (bench
//! binaries) and passed in as plain numbers.
//!
//! [`RunStats`]: ../stargemm_sim/stats/struct.RunStats.html

mod attr;
mod event;
mod gantt;
mod perfetto;
mod recorder;
mod runmetrics;
mod span;

pub use attr::{Attribution, Categories, CriticalPath, CATEGORY_COUNT, CATEGORY_NAMES};
pub use event::{Dir, MatTag, ObsEvent};
pub use gantt::render_gantt;
pub use perfetto::perfetto_trace;
pub use recorder::{ObsSink, RunRecorder};
pub use runmetrics::{BoundGap, RunMetrics, TenantGap, WorkerGap};
pub use span::{spans, Span, Track};
