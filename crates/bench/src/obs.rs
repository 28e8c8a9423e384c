//! Observability plumbing shared by the experiment rows: recording a
//! run under a [`RunRecorder`], the [`RunLog`] a row's traced cell hands
//! the driver for `--trace-out`/`--attr-out`, and deriving the
//! [`RunMetrics`] bound-gap block embedded in `--json` artifacts.
//!
//! A trace is the log of a run the sweep performs anyway: the recorder
//! is created and drained on the pool worker that runs the traced cell,
//! and only the `Send` event log leaves it. Recording is
//! observation-only, so a row's tables and `--json` bytes are the same
//! with and without a trace (the on/off invariant `tests/obs_props.rs`
//! pins).

use std::rc::Rc;

use stargemm_core::steady::lp_throughput;
use stargemm_core::Job;
use stargemm_obs::{ObsEvent, RunMetrics};
use stargemm_platform::Platform;
use stargemm_sim::{ObsSink, RunRecorder, RunStats};

/// The event log of one run and its makespan: what `--trace-out`
/// (a Perfetto/Chrome `trace_event` JSON) and `--attr-out` (folded
/// attribution stacks) export.
pub type RunLog = (Vec<ObsEvent>, f64);

/// Runs `run` with a fresh recorder attached and returns its result
/// alongside the captured event log. `run` receives the [`ObsSink`] to
/// thread into whichever engine it drives.
pub fn record_with<T>(run: impl FnOnce(ObsSink) -> T) -> (T, Vec<ObsEvent>) {
    let rec = RunRecorder::shared();
    let out = run(ObsSink::to(rec.clone()));
    let Ok(rec) = Rc::try_unwrap(rec) else {
        unreachable!("recorder has one owner after the run")
    };
    (out, rec.into_inner().into_parts().0)
}

/// [`record_with`] when `log` is set; otherwise `run` gets a detached
/// sink and no log comes back. Cells that record only when traced run
/// through this.
pub fn record_if<T>(log: bool, run: impl FnOnce(ObsSink) -> T) -> (T, Option<Vec<ObsEvent>>) {
    if log {
        let (out, events) = record_with(run);
        (out, Some(events))
    } else {
        (run(ObsSink::off()), None)
    }
}

/// The [`RunMetrics`] bound-gap block of a single-GEMM run: port
/// occupancy vs its peak-lane ceiling, achieved updates/second vs the
/// Table 1 steady-state LP `ρ*`, and per-worker busy fractions vs the
/// bandwidth-centric plan shares.
pub fn gemm_run_metrics(platform: &Platform, job: &Job, stats: &RunStats) -> RunMetrics {
    let achieved = if stats.makespan > 0.0 {
        stats.total_updates as f64 / stats.makespan
    } else {
        0.0
    };
    let busy: Vec<f64> = stats
        .per_worker
        .iter()
        .map(|w| {
            if stats.makespan > 0.0 {
                w.busy_time / stats.makespan
            } else {
                0.0
            }
        })
        .collect();
    let steady = stargemm_core::steady::bandwidth_centric(platform, job.r);
    let plan: Vec<f64> = steady
        .rates
        .iter()
        .zip(platform.workers())
        .map(|(x, s)| x * s.w)
        .collect();
    RunMetrics::derive(
        stats.makespan,
        stats.port_busy,
        stats.port.peak_lanes as usize,
        achieved,
        lp_throughput(platform, job.r),
        &busy,
        &plan,
    )
}

/// Aligned text table of the port-level breakdown across instances —
/// the satellite view the `fig7` row prints under the classic two panels.
pub fn render_port_breakdown(title: &str, rows: &[(String, &RunStats)]) -> String {
    let mut out = format!("{title}\n");
    out.push_str(&format!(
        "{:<22}{:>10}{:>8}{:>10}{:>10}{:>12}\n",
        "instance", "busy", "lanes", "idle gaps", "idle s", "longest stall"
    ));
    for (label, stats) in rows {
        out.push_str(&format!(
            "{:<22}{:>10.2}{:>8}{:>10}{:>10.2}{:>12.2}\n",
            label,
            stats.port_busy,
            stats.port.peak_lanes,
            stats.port.idle_gaps,
            stats.port.idle_time,
            stats.port.longest_stall,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use stargemm_core::algorithms::Algorithm;
    use stargemm_platform::WorkerSpec;

    fn tiny() -> (Platform, Job) {
        (
            Platform::new(
                "obs-t",
                vec![WorkerSpec::new(0.5, 0.3, 40), WorkerSpec::new(1.0, 0.6, 20)],
            ),
            Job::new(6, 5, 8, 2),
        )
    }

    #[test]
    fn gemm_metrics_respect_the_port_bound() {
        let (p, j) = tiny();
        let stats = stargemm_core::run_algorithm(&p, &j, Algorithm::Het).unwrap();
        let m = gemm_run_metrics(&p, &j, &stats);
        assert!(m.port.gap > 0.0 && m.port.gap <= 1.0, "{:?}", m.port);
        assert!(m.throughput.bound > 0.0);
        assert_eq!(m.workers.len(), p.len());
    }

    #[test]
    fn port_breakdown_renders_every_row() {
        let (p, j) = tiny();
        let stats = stargemm_core::run_algorithm(&p, &j, Algorithm::Het).unwrap();
        let table = render_port_breakdown("ports", &[("cell-a".to_string(), &stats)]);
        assert!(table.contains("cell-a"));
        assert!(table.contains("longest stall"));
    }
}
