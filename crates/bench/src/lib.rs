//! Experiment harness: shared utilities for regenerating every table and
//! figure of the paper (see `EXPERIMENTS.md` for the index).
//!
//! Each `src/bin/exp_*.rs` binary reproduces one artifact; this library
//! holds the common machinery —
//!
//! * running the seven competitors on a platform/job grid and computing
//!   the paper's *relative cost* and *relative work* metrics,
//! * the [`sweep`] runner that fans a scenario grid out over a thread
//!   pool with grid-order (hence thread-count-independent) results,
//! * the [`cli`] flags (`--smoke`/`--json`/`--threads`) shared by every
//!   experiment binary,
//! * serde-backed JSON export (one serializer for all `--json` output)
//!   plus aligned text tables and CSV.

pub mod cli;
pub mod netperf;
pub mod obs;
pub mod perf;
pub mod sweep;

use serde::json::Value;
use serde::Serialize;
use stargemm_core::algorithms::Algorithm;
use stargemm_core::Job;
use stargemm_obs::{Attribution, RunMetrics};
use stargemm_platform::Platform;
use stargemm_sim::RunStats;

pub use cli::Cli;
pub use sweep::{parallel_map, SweepOutcome, SweepSpec};

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
        let results = Algorithm::all()
            .into_iter()
            .map(|alg| match obs::record_algorithm(platform, job, alg) {
                Ok((stats, events)) => {
                    let metrics = obs::gemm_run_metrics(platform, job, &stats);
                    let attribution = Attribution::from_events(&events, stats.makespan);
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
            })
            .collect();
        Instance {
            platform_name: platform.name.clone(),
            job: *job,
            results,
        }
    }

    /// Runs a `(platform, job)` grid on `threads` workers — the standard
    /// figure protocol, parallel. Results come back in grid order.
    pub fn run_grid(grid: &[(Platform, Job)], threads: usize) -> Vec<Instance> {
        parallel_map(threads, grid, |_, (p, j)| Instance::run(p, j))
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

impl Serialize for AlgResult {
    fn to_value(&self) -> Value {
        let (makespan, enrolled, work) = match &self.stats {
            Some(s) => (Some(s.makespan), s.enrolled(), Some(s.work())),
            None => (None, 0, None),
        };
        Value::object([
            ("algorithm", self.algorithm.name().to_value()),
            ("makespan", makespan.to_value()),
            ("enrolled", enrolled.to_value()),
            ("work", work.to_value()),
            ("metrics", self.metrics.to_value()),
            ("attribution", self.attribution.to_value()),
            // Keep "error" last: Instance::to_value pops it to splice
            // the relative metrics in front.
            ("error", self.error.to_value()),
        ])
    }
}

impl Serialize for Instance {
    fn to_value(&self) -> Value {
        let results: Vec<Value> = self
            .results
            .iter()
            .map(|r| {
                // Relative metrics need the whole instance, so they are
                // attached here rather than in `AlgResult::to_value`.
                let Value::Object(mut fields) = r.to_value() else {
                    unreachable!("AlgResult serializes to an object")
                };
                let error = fields.pop().expect("AlgResult has fields");
                assert_eq!(error.0, "error", "AlgResult field order changed");
                fields.push((
                    "relative_cost".into(),
                    self.relative_cost(r.algorithm).to_value(),
                ));
                fields.push((
                    "relative_work".into(),
                    self.relative_work(r.algorithm).to_value(),
                ));
                fields.push(error);
                Value::Object(fields)
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

/// Writes a `--json` result file, creating parent directories on demand
/// (shared by every binary accepting the flag).
///
/// # Panics
/// Panics when the file cannot be written — a results path the user
/// asked for must not fail silently after a long sweep.
pub fn write_json(path: &std::path::Path, contents: &str) {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)
                .unwrap_or_else(|e| panic!("cannot create {}: {e}", dir.display()));
        }
    }
    std::fs::write(path, contents)
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    eprintln!("(json written to {})", path.display());
}

/// Writes experiment output under `results/` (created on demand) and
/// echoes the path.
pub fn write_results(name: &str, contents: &str) -> std::io::Result<std::path::PathBuf> {
    let dir = std::path::Path::new("results");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(name);
    std::fs::write(&path, contents)?;
    Ok(path)
}

/// Runs the Figures 4–6 protocol: the five increasing matrix sizes on
/// one platform, fanned out over `threads` workers.
pub fn size_sweep(platform: &Platform, threads: usize) -> Vec<Instance> {
    let grid: Vec<(Platform, Job)> = Job::paper_sweep()
        .iter()
        .map(|job| (platform.clone(), *job))
        .collect();
    Instance::run_grid(&grid, threads)
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
/// smaller B). Shared by `exp_fig7` and the `exp_fig9` recap so the two
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
/// configurations (`--smoke`: smaller B). Shared by `exp_fig8` and the
/// `exp_fig9` recap.
pub fn fig8_grid(cli: &Cli) -> Vec<(Platform, Job)> {
    let job = Job::paper(if cli.smoke { 64_000 } else { 320_000 });
    vec![
        (stargemm_platform::presets::lyon(true), job),
        (stargemm_platform::presets::lyon(false), job),
    ]
}

/// The whole Figures 4–6 protocol behind the uniform CLI: run the size
/// sweep (`--smoke` keeps the two smallest sizes, `--threads` fans the
/// grid out), emit the two-panel figure, and honour `--json`.
pub fn emit_size_figure(id: &str, title: &str, platform: &Platform, cli: &Cli) {
    let grid = size_grid(platform, cli);
    let instances = Instance::run_grid(&grid, cli.threads);
    emit_figure(id, title, &instances, |i| {
        format!("s={} ({})", i.job.s, i.platform_name)
    });
    if let Some(path) = &cli.json {
        write_json(path, &instances_to_json(id, &instances));
    }
    // The representative cell: Het on the largest size kept.
    let (p, j) = grid.last().expect("size grid is never empty");
    obs::emit_artifacts(cli, || obs::gemm_cell(p, j, Algorithm::Het));
}

/// Standard output for a figure: render both panels, print, and persist
/// table + CSV under `results/`.
pub fn emit_figure(
    id: &str,
    title: &str,
    instances: &[Instance],
    label: impl Fn(&Instance) -> String,
) {
    let fig = render_figure(title, instances, label);
    print!("{fig}");
    if let Ok(p) = write_results(&format!("{id}.txt"), &fig) {
        eprintln!("(written to {})", p.display());
    }
    if let Ok(p) = write_results(&format!("{id}.csv"), &to_csv(instances)) {
        eprintln!("(written to {})", p.display());
    }
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
    fn run_grid_matches_serial_runs() {
        let (p, j) = tiny();
        let grid = vec![(p.clone(), j), (p.clone(), Job::new(4, 4, 4, 2))];
        let par = Instance::run_grid(&grid, 4);
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
