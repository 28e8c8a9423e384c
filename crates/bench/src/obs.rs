//! Observability plumbing shared by the `exp_*` binaries: recording a
//! representative run under a [`RunRecorder`], the one
//! `--trace-out`/`--attr-out` artifact hook ([`emit_artifacts`]), and
//! deriving the [`RunMetrics`] bound-gap block embedded in `--json`
//! artifacts.
//!
//! The artifact hook deliberately *re-runs* one cell serially under the
//! recorder instead of recording the whole sweep: the artifacts are
//! then independent of `--threads`, and the recorder-off sweep results
//! stay byte-identical to a sweep that never asked for a trace (the
//! on/off invariant `tests/obs_props.rs` pins).

use std::rc::Rc;

use stargemm_core::algorithms::{run_algorithm_observed, Algorithm};
use stargemm_core::steady::lp_throughput;
use stargemm_core::Job;
use stargemm_obs::{perfetto_trace, Attribution, ObsEvent, RunMetrics};
use stargemm_platform::Platform;
use stargemm_sim::{ObsSink, RunRecorder, RunStats, SimError};

use crate::{write_json, Cli};

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

/// Runs `alg` on `platform`/`job` with a recorder attached and returns
/// the stats alongside the captured event log.
pub fn record_algorithm(
    platform: &Platform,
    job: &Job,
    alg: Algorithm,
) -> Result<(RunStats, Vec<ObsEvent>), SimError> {
    let (stats, events) = record_with(|obs| run_algorithm_observed(platform, job, alg, obs));
    Ok((stats?, events))
}

/// Honours `--trace-out` and `--attr-out`, the one artifact hook of
/// every `exp_*` binary. `cell` records the binary's representative
/// cell and returns its event log and makespan; it runs only when a
/// flag is set, once, and both files are written from that one run:
/// the Perfetto/Chrome `trace_event` JSON (open it at
/// <https://ui.perfetto.dev>) and the folded flamegraph stacks of the
/// makespan attribution (one `category;frame;... <µs>` line per stack;
/// feed to `flamegraph.pl` or inferno).
pub fn emit_artifacts(cli: &Cli, cell: impl FnOnce() -> Option<(Vec<ObsEvent>, f64)>) {
    if cli.trace_out.is_none() && cli.attr_out.is_none() {
        return;
    }
    let Some((events, makespan)) = cell() else {
        return;
    };
    if let Some(path) = &cli.trace_out {
        write_json(path, &perfetto_trace(&events).render_pretty());
    }
    if let Some(path) = &cli.attr_out {
        let attr = Attribution::from_events(&events, makespan);
        if let Err(e) = std::fs::write(path, attr.folded_stacks()) {
            eprintln!("cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
        println!("folded attribution stacks written to {}", path.display());
    }
}

/// The representative cell of a binary whose cells are plain
/// single-GEMM runs, for [`emit_artifacts`]: records `alg` serially. A
/// failing cell reports instead of panicking — the experiment's own
/// tables already show the error.
pub fn gemm_cell(platform: &Platform, job: &Job, alg: Algorithm) -> Option<(Vec<ObsEvent>, f64)> {
    match record_algorithm(platform, job, alg) {
        Ok((stats, events)) => Some((events, stats.makespan)),
        Err(e) => {
            eprintln!(
                "(no trace or attribution: {} on {} failed: {e})",
                alg.name(),
                platform.name
            );
            None
        }
    }
}

/// The cell for binaries whose own cells are not engine runs (the LP
/// table, the analytic bounds sweep): Het on the ratio-2 preset, so the
/// flags always yield a real schedule to look at.
pub fn default_cell() -> Option<(Vec<ObsEvent>, f64)> {
    let platform = stargemm_platform::presets::fully_het(2.0);
    gemm_cell(&platform, &Job::paper(16_000), Algorithm::Het)
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
/// the satellite view `exp_fig7` prints under the classic two panels.
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
    fn recording_does_not_change_the_stats() {
        let (p, j) = tiny();
        let plain = stargemm_core::run_algorithm(&p, &j, Algorithm::Oddoml).unwrap();
        let (observed, events) = record_algorithm(&p, &j, Algorithm::Oddoml).unwrap();
        assert_eq!(plain, observed);
        assert!(!events.is_empty());
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
    fn attr_diff_blames_halved_port_bandwidth_on_the_port() {
        // Same job, same workers — but every per-block comm cost is
        // doubled, i.e. the shared port runs at half bandwidth. The
        // attribution diff must pin the slowdown on the port category,
        // not spread it around.
        let (fast, job) = tiny();
        let slow = Platform::new(
            "obs-t-slow",
            fast.workers()
                .iter()
                .map(|s| WorkerSpec::new(2.0 * s.c, s.w, s.m))
                .collect(),
        );
        let (st_a, ev_a) = record_algorithm(&fast, &job, Algorithm::Het).unwrap();
        let (st_b, ev_b) = record_algorithm(&slow, &job, Algorithm::Het).unwrap();
        let a = Attribution::from_events(&ev_a, st_a.makespan);
        let b = Attribution::from_events(&ev_b, st_b.makespan);
        assert!(
            b.makespan > a.makespan,
            "halving port bandwidth must slow the run"
        );
        let d = a.diff(&b);
        // d[0] is port_busy (CATEGORY_NAMES order); it must be the
        // dominant mover and carry most of the makespan growth.
        assert_eq!(stargemm_obs::CATEGORY_NAMES[0], "port_busy");
        let max = d.iter().fold(f64::NEG_INFINITY, |m, &v| m.max(v));
        assert_eq!(d[0], max, "port_busy must be the largest delta: {d:?}");
        assert!(
            d[0] >= 0.5 * (b.makespan - a.makespan),
            "port_busy delta {} vs makespan delta {}",
            d[0],
            b.makespan - a.makespan
        );
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
