//! Experiment harness: shared utilities for regenerating every table and
//! figure of the paper (see `EXPERIMENTS.md` for the index).
//!
//! Every experiment is a row of one table, run by one binary
//! (`exp <id>`, the [`exp`] driver); this library holds the common
//! machinery —
//!
//! * running the seven competitors on a platform/job grid and computing
//!   the paper's *relative cost* and *relative work* metrics,
//! * the driver: [`parallel_map`] fans a row's cells out over a thread
//!   pool with cell-order (hence thread-count-independent) results, and
//!   one writer emits `results/`, `--json`, `--trace-out` and
//!   `--attr-out`,
//! * the [`cli`] flags (`--smoke`/`--json`/`--threads`/...) shared by
//!   every experiment,
//! * serde-backed JSON export (one serializer for all `--json` output)
//!   plus aligned text tables and CSV.

pub mod cli;
pub mod exp;
pub mod netperf;
pub mod obs;
pub mod perf;
pub mod sweep;

use serde::json::Value;
use serde::Serialize;
use stargemm_core::algorithms::{run_algorithm_observed, Algorithm};
use stargemm_core::Job;
use stargemm_obs::{Attribution, RunMetrics};
use stargemm_platform::Platform;
use stargemm_sim::RunStats;

pub use cli::Cli;
pub use obs::RunLog;
pub use sweep::parallel_map;

/// Result of one algorithm on one instance.
#[derive(Clone, Debug)]
pub struct AlgResult {
    pub algorithm: Algorithm,
    pub stats: Option<RunStats>,
    /// Bound-gap metrics derived from the stats (None on failure).
    pub metrics: Option<RunMetrics>,
    /// Conserved makespan attribution of the run (None on failure).
    pub attribution: Option<Attribution>,
    /// Error string when the run failed (e.g. no feasible layout).
    pub error: Option<String>,
}

impl AlgResult {
    /// Makespan, or infinity for failed runs.
    pub fn makespan(&self) -> f64 {
        self.stats.as_ref().map_or(f64::INFINITY, |s| s.makespan)
    }

    /// The paper's work metric (makespan × enrolled processors).
    pub fn work(&self) -> f64 {
        self.stats.as_ref().map_or(f64::INFINITY, |s| s.work())
    }
}

/// One experiment instance: every algorithm on a platform and job.
#[derive(Clone, Debug)]
pub struct Instance {
    pub platform_name: String,
    pub job: Job,
    pub results: Vec<AlgResult>,
}

impl Instance {
    /// Runs all seven algorithms (each under a recorder, so the
    /// artifact can carry the makespan attribution next to the metrics
    /// block — recording is observation-only, the stats are identical
    /// to an unrecorded run).
    pub fn run(platform: &Platform, job: &Job) -> Instance {
        Instance::run_logged(platform, job, false).0
    }

    /// [`Instance::run`], also handing back Het's event log when `log`
    /// is set: the run the figures trace.
    pub fn run_logged(platform: &Platform, job: &Job, log: bool) -> (Instance, Option<RunLog>) {
        let mut trace = None;
        let results = Algorithm::all()
            .into_iter()
            .map(|alg| {
                let (stats, events) =
                    obs::record_with(|obs| run_algorithm_observed(platform, job, alg, obs));
                match stats {
                    Ok(stats) => {
                        let metrics = obs::gemm_run_metrics(platform, job, &stats);
                        let attribution = Attribution::from_events(&events, stats.makespan);
                        if log && alg == Algorithm::Het {
                            trace = Some((events, stats.makespan));
                        }
                        AlgResult {
                            algorithm: alg,
                            stats: Some(stats),
                            metrics: Some(metrics),
                            attribution: Some(attribution),
                            error: None,
                        }
                    }
                    Err(e) => AlgResult {
                        algorithm: alg,
                        stats: None,
                        metrics: None,
                        attribution: None,
                        error: Some(e.to_string()),
                    },
                }
            })
            .collect();
        let instance = Instance {
            platform_name: platform.name.clone(),
            job: *job,
            results,
        };
        (instance, trace)
    }

    /// Best (smallest) makespan across algorithms.
    pub fn best_makespan(&self) -> f64 {
        self.results
            .iter()
            .map(AlgResult::makespan)
            .fold(f64::INFINITY, f64::min)
    }

    /// Best (smallest) work across algorithms.
    pub fn best_work(&self) -> f64 {
        self.results
            .iter()
            .map(AlgResult::work)
            .fold(f64::INFINITY, f64::min)
    }

    /// The paper's *relative cost* of one algorithm on this instance:
    /// its makespan divided by the best makespan achieved here.
    pub fn relative_cost(&self, alg: Algorithm) -> f64 {
        self.result(alg).makespan() / self.best_makespan()
    }

    /// The paper's *relative work*.
    pub fn relative_work(&self, alg: Algorithm) -> f64 {
        self.result(alg).work() / self.best_work()
    }

    /// Result entry for `alg`.
    pub fn result(&self, alg: Algorithm) -> &AlgResult {
        self.results
            .iter()
            .find(|r| r.algorithm == alg)
            .expect("all algorithms present")
    }
}

impl Serialize for Instance {
    fn to_value(&self) -> Value {
        // Relative metrics need the whole instance, so the results are
        // serialized here rather than on their own.
        let results: Vec<Value> = self
            .results
            .iter()
            .map(|r| {
                let (makespan, enrolled, work) = match &r.stats {
                    Some(s) => (Some(s.makespan), s.enrolled(), Some(s.work())),
                    None => (None, 0, None),
                };
                Value::object([
                    ("algorithm", r.algorithm.name().to_value()),
                    ("makespan", makespan.to_value()),
                    ("enrolled", enrolled.to_value()),
                    ("work", work.to_value()),
                    ("metrics", r.metrics.to_value()),
                    ("attribution", r.attribution.to_value()),
                    ("relative_cost", self.relative_cost(r.algorithm).to_value()),
                    ("relative_work", self.relative_work(r.algorithm).to_value()),
                    ("error", r.error.to_value()),
                ])
            })
            .collect();
        Value::object([
            ("platform", self.platform_name.to_value()),
            ("job", self.job.to_value()),
            ("results", Value::Array(results)),
        ])
    }
}

/// Renders the classic two-panel figure (relative cost, relative work) as
/// aligned text tables, one row per instance.
pub fn render_figure(
    title: &str,
    instances: &[Instance],
    label: impl Fn(&Instance) -> String,
) -> String {
    let algs = Algorithm::all();
    let mut out = String::new();
    for (panel, metric) in [("(a) relative cost", 0), ("(b) relative work", 1)] {
        out.push_str(&format!("{title} {panel}\n"));
        out.push_str(&format!("{:<22}", "instance"));
        for a in algs {
            out.push_str(&format!("{:>9}", a.name()));
        }
        out.push('\n');
        for inst in instances {
            out.push_str(&format!("{:<22}", label(inst)));
            for a in algs {
                let v = if metric == 0 {
                    inst.relative_cost(a)
                } else {
                    inst.relative_work(a)
                };
                if v.is_finite() {
                    out.push_str(&format!("{v:>9.3}"));
                } else {
                    out.push_str(&format!("{:>9}", "-"));
                }
            }
            out.push('\n');
        }
        out.push('\n');
    }
    out
}

/// CSV rows (one per instance × algorithm) for downstream plotting.
pub fn to_csv(instances: &[Instance]) -> String {
    let mut out = String::from(
        "platform,r,t,s,q,algorithm,makespan,enrolled,work,ccr,relative_cost,relative_work\n",
    );
    for inst in instances {
        for r in &inst.results {
            let (mk, en, wk, ccr) = match &r.stats {
                Some(s) => (s.makespan, s.enrolled(), s.work(), s.ccr()),
                None => (f64::NAN, 0, f64::NAN, f64::NAN),
            };
            out.push_str(&format!(
                "{},{},{},{},{},{},{:.3},{},{:.3},{:.5},{:.4},{:.4}\n",
                inst.platform_name,
                inst.job.r,
                inst.job.t,
                inst.job.s,
                inst.job.q,
                r.algorithm.name(),
                mk,
                en,
                wk,
                ccr,
                inst.relative_cost(r.algorithm),
                inst.relative_work(r.algorithm),
            ));
        }
    }
    out
}

/// Machine-readable form of a set of instances, so future PRs can track
/// a perf/quality trajectory across runs (`BENCH_*.json`). Serialized
/// through the workspace serde ([`serde::json`]).
pub fn instances_to_json(experiment: &str, instances: &[Instance]) -> String {
    Value::object([
        ("experiment", experiment.to_value()),
        ("instances", instances.to_value()),
    ])
    .render_pretty()
}

/// The one writer of every experiment output (`results/*`, `--json`,
/// `--trace-out`, `--attr-out`): creates parent directories on demand
/// and echoes the path on stderr. A path that cannot be written is an
/// error naming it, never a panic.
pub fn write_file(path: &std::path::Path, contents: &str) -> Result<(), String> {
    let cannot = |e: std::io::Error| format!("cannot write {}: {e}", path.display());
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(cannot)?;
    }
    std::fs::write(path, contents).map_err(cannot)?;
    eprintln!("(written to {})", path.display());
    Ok(())
}

/// The Figures 4–6 grid under the uniform flags: the paper's five
/// matrix sizes on one platform (`--smoke` keeps the two smallest —
/// sliced *before* anything is simulated).
pub fn size_grid(platform: &Platform, cli: &Cli) -> Vec<(Platform, Job)> {
    let jobs = Job::paper_sweep();
    let jobs = if cli.smoke { &jobs[..2] } else { &jobs[..] };
    jobs.iter().map(|j| (platform.clone(), *j)).collect()
}

/// The Figure-7 grid under the uniform flags: the fixed ratio-2/ratio-4
/// platforms plus the seeded random draws (`--smoke`: two draws and a
/// smaller B). Shared by the `fig7` row and the `fig9` recap so the two
/// can never desynchronize.
pub fn fig7_grid(cli: &Cli) -> Vec<(Platform, Job)> {
    let job = Job::paper(if cli.smoke { 16_000 } else { 80_000 });
    let mut platforms = vec![
        stargemm_platform::presets::fully_het(2.0),
        stargemm_platform::presets::fully_het(4.0),
    ];
    let random = stargemm_platform::random::figure7_random_platforms(2008);
    let keep = if cli.smoke { 2 } else { random.len() };
    platforms.extend(random.into_iter().take(keep));
    platforms.into_iter().map(|p| (p, job)).collect()
}

/// The Figure-8 grid under the uniform flags: the two Lyon
/// configurations (`--smoke`: smaller B). Shared by the `fig8` row and
/// the `fig9` recap.
pub fn fig8_grid(cli: &Cli) -> Vec<(Platform, Job)> {
    let job = Job::paper(if cli.smoke { 64_000 } else { 320_000 });
    vec![
        (stargemm_platform::presets::lyon(true), job),
        (stargemm_platform::presets::lyon(false), job),
    ]
}

/// Geometric mean helper for summary statistics.
pub fn geomean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (mut log_sum, mut n) = (0.0, 0usize);
    for v in values {
        log_sum += v.ln();
        n += 1;
    }
    if n == 0 {
        f64::NAN
    } else {
        (log_sum / n as f64).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stargemm_platform::WorkerSpec;

    fn tiny() -> (Platform, Job) {
        (
            Platform::new(
                "t",
                vec![WorkerSpec::new(0.5, 0.3, 40), WorkerSpec::new(1.0, 0.6, 20)],
            ),
            Job::new(6, 5, 8, 2),
        )
    }

    #[test]
    fn instance_runs_all_algorithms() {
        let (p, j) = tiny();
        let inst = Instance::run(&p, &j);
        assert_eq!(inst.results.len(), 7);
        assert!(inst.results.iter().all(|r| r.stats.is_some()));
        assert!(inst.best_makespan().is_finite());
        // Relative cost of the best algorithm is exactly 1.
        let min = Algorithm::all()
            .into_iter()
            .map(|a| inst.relative_cost(a))
            .fold(f64::INFINITY, f64::min);
        assert!((min - 1.0).abs() < 1e-12);
    }

    #[test]
    fn parallel_instances_match_serial_runs() {
        let (p, j) = tiny();
        let grid = vec![(p.clone(), j), (p.clone(), Job::new(4, 4, 4, 2))];
        let par = parallel_map(4, &grid, |_, (p, j)| Instance::run(p, j));
        for ((gp, gj), inst) in grid.iter().zip(&par) {
            let serial = Instance::run(gp, gj);
            assert_eq!(inst.platform_name, serial.platform_name);
            assert_eq!(inst.job, serial.job);
            for (a, b) in inst.results.iter().zip(&serial.results) {
                assert_eq!(a.stats, b.stats);
            }
        }
    }

    #[test]
    fn recording_does_not_change_the_stats() {
        let (p, j) = tiny();
        let plain = stargemm_core::run_algorithm(&p, &j, Algorithm::Oddoml).unwrap();
        let (inst, trace) = Instance::run_logged(&p, &j, true);
        assert_eq!(inst.result(Algorithm::Oddoml).stats.as_ref(), Some(&plain));
        // The log handed back is Het's, and equals a serial recorded run.
        let (het, events) =
            obs::record_with(|obs| run_algorithm_observed(&p, &j, Algorithm::Het, obs));
        assert_eq!(trace, Some((events, het.unwrap().makespan)));
        assert!(Instance::run_logged(&p, &j, false).1.is_none());
    }

    #[test]
    fn attr_diff_blames_halved_port_bandwidth_on_the_port() {
        // Same job, same workers — but every per-block comm cost is
        // doubled, i.e. the shared port runs at half bandwidth. The
        // attribution diff must pin the slowdown on the port category,
        // not spread it around.
        let (fast, job) = tiny();
        let slow = Platform::new(
            "t-slow",
            fast.workers()
                .iter()
                .map(|s| WorkerSpec::new(2.0 * s.c, s.w, s.m))
                .collect(),
        );
        let het = |p: &Platform| {
            Instance::run(p, &job)
                .result(Algorithm::Het)
                .attribution
                .clone()
                .unwrap()
        };
        let (a, b) = (het(&fast), het(&slow));
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
    fn csv_has_a_row_per_algorithm() {
        let (p, j) = tiny();
        let inst = Instance::run(&p, &j);
        let csv = to_csv(std::slice::from_ref(&inst));
        assert_eq!(csv.lines().count(), 1 + 7);
        assert!(csv.contains("ORROML"));
    }

    #[test]
    fn figure_rendering_mentions_all_algorithms() {
        let (p, j) = tiny();
        let inst = Instance::run(&p, &j);
        let fig = render_figure("Figure X.", &[inst], |i| i.platform_name.clone());
        for a in Algorithm::all() {
            assert!(fig.contains(a.name()));
        }
        assert!(fig.contains("relative cost"));
        assert!(fig.contains("relative work"));
    }

    #[test]
    fn geomean_basics() {
        assert!((geomean([2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!(geomean(std::iter::empty()).is_nan());
    }

    #[test]
    fn json_output_is_well_formed() {
        let (p, j) = tiny();
        let inst = Instance::run(&p, &j);
        let json = instances_to_json("figX", std::slice::from_ref(&inst));
        assert!(json.contains("\"experiment\": \"figX\""));
        assert!(json.contains("\"algorithm\": \"Het\""));
        assert!(json.contains("\"relative_cost\""));
        assert!(json.contains("\"r\": 6"));
        // Balanced braces/brackets, no trailing commas before closers.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "{json}"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(!json.contains(",\n    ]"));
        assert!(!json.contains(",\n  ]"));
        // One result object per algorithm.
        assert_eq!(json.matches("\"algorithm\"").count(), 7);
    }

    #[test]
    fn failed_runs_serialize_with_error_and_null_makespan() {
        let (_, j) = tiny();
        let inst = Instance {
            platform_name: "broken".into(),
            job: j,
            results: vec![AlgResult {
                algorithm: Algorithm::Het,
                stats: None,
                metrics: None,
                attribution: None,
                error: Some("no feasible layout".into()),
            }],
        };
        let json = instances_to_json("f", &[inst]);
        assert!(json.contains("\"makespan\": null"));
        assert!(json.contains("\"error\": \"no feasible layout\""));
    }
}
