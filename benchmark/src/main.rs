//! The repo benchmark: four named workloads, end-to-end and per-layer
//! metrics, and an outside-in traced run. See `README.md`.
//!
//! ```text
//! stargemm-benchmark run [--workload W] [--seed N] [--seconds S]
//!                        [--trace [0|1]] [--quick] [--repeat N] [--out FILE]
//! stargemm-benchmark compare A.json B.json
//! ```

mod check;
mod compare;
mod json;
mod reference;
mod report;
mod stats;
mod surface;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

use json::Json;
use reference::{Reference, Sample};
use report::{RunResult, END_TO_END};
use stats::{median, percentile, Summary};
use trace::{counting_allocs, CountingAlloc, Span, Tracer};
use workloads::{Inputs, Metrics, Pass, WorkloadDef, WORKLOADS};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Default workload seed.
const DEFAULT_SEED: u64 = 2008;
/// Default measuring time of one run, seconds (`run_seconds` in
/// `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 20.0;
/// Set-ups (input generation + warm-up pass) per run; `setup_s` is their
/// median.
const SETUPS: usize = 3;
/// Fewest timed passes (pass pairs when tracing) a run reports on.
const MIN_PASSES: usize = 3;

const USAGE: &str = "usage:
  stargemm-benchmark run [--workload W] [--seed N] [--seconds S] [--trace [0|1]] [--quick] [--repeat N] [--out FILE]
  stargemm-benchmark compare A.json B.json
workloads: paper_sweep, stream_mix, wide_star, net_gemm (default: all, one process each)";

struct RunArgs {
    workload: Option<String>,
    seed: u64,
    /// Measuring time; `--quick` without `--seconds` measures the
    /// minimum number of passes only.
    seconds: f64,
    trace: bool,
    quick: bool,
    /// How many times `run` without `--workload` goes round the suite.
    repeat: usize,
    out: Option<PathBuf>,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
        repeat: 1,
        out: None,
    };
    let mut seconds_given = false;
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs {what}"))
        };
        match arg.as_str() {
            "--workload" => parsed.workload = Some(value("a workload name")?),
            "--seed" => {
                parsed.seed = value("a number")?
                    .parse()
                    .map_err(|_| "--seed needs a non-negative whole number".to_string())?;
            }
            "--seconds" => {
                seconds_given = true;
                parsed.seconds = value("a number")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or("--seconds needs a non-negative number")?;
            }
            "--repeat" => {
                parsed.repeat = value("a count")?
                    .parse()
                    .ok()
                    .filter(|n| (1..=100).contains(n))
                    .ok_or("--repeat needs a whole number from 1 to 100")?;
            }
            "--out" => parsed.out = Some(PathBuf::from(value("a file path")?)),
            "--quick" => parsed.quick = true,
            "--trace" => {
                // `--trace`, `--trace 1` and `--trace 0` are all accepted.
                parsed.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if parsed.quick && !seconds_given {
        parsed.seconds = 0.0;
    }
    if let Some(name) = &parsed.workload {
        if workloads::find(name).is_none() {
            return Err(format!("unknown workload {name:?}"));
        }
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => parse_run_args(rest).and_then(|a| match &a.workload {
            Some(name) => {
                let def = workloads::find(name).expect("validated by parse_run_args");
                run_one(def, &a, started)
            }
            None => run_all(&a),
        }),
        Some((cmd, rest)) if cmd == "compare" => match rest {
            [a, b] => compare::compare_files(Path::new(a), Path::new(b)),
            _ => Err("compare needs exactly two result files".into()),
        },
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}

/// One pass over `inputs`: its cells, wall seconds (the reference's
/// ticks taken out), the ticks it ran, and — traced — its spans,
/// counters and exact allocation counts.
struct PassRun {
    wall_s: f64,
    speed: Sample,
    cells: Vec<workloads::CellOut>,
    spans: Vec<Span>,
    counts: workloads::Counts,
    allocs: (u64, u64),
}

/// An untraced pass ticks `reference` between its cells; a traced pass
/// has none (its allocation counts are exact, and per-layer timings are
/// reported as measured).
fn run_pass(
    inputs: &dyn Inputs,
    warm: Option<&[u64]>,
    mut reference: Option<&mut Reference>,
) -> PassRun {
    let traced = reference.is_none();
    let mut tracer = Tracer::new(traced);
    let mut pass = Pass::new(warm);
    let t0 = Instant::now();
    if let Some(r) = reference.as_deref_mut() {
        // The pass's own sample, never empty.
        r.take();
        r.tick();
    }
    pass.reference = reference.as_deref_mut();
    let allocs = if traced {
        let ((), n, bytes) = counting_allocs(|| inputs.pass(&mut tracer, &mut pass));
        (n, bytes)
    } else {
        inputs.pass(&mut tracer, &mut pass);
        (0, 0)
    };
    let cells = pass.cells;
    let total_s = t0.elapsed().as_secs_f64();
    let speed = reference.map_or(Sample::default(), Reference::take);
    let (spans, counts) = tracer.take();
    PassRun {
        wall_s: total_s - speed.seconds,
        speed,
        cells,
        spans,
        counts,
        allocs,
    }
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Runs one workload in this process. `Ok(true)` when every op passed.
fn run_one(def: &WorkloadDef, args: &RunArgs, started: Instant) -> Result<bool, String> {
    // Set-up: generate the inputs and run one untimed warm-up pass —
    // several times over, so that `setup_s` is a median. The first
    // sample starts at process start.
    let mut reference = Reference::new();
    let (mut setups, mut setups_raw) = (Vec::new(), Vec::new());
    let mut ready: Option<(Box<dyn Inputs>, Pass<'static>)> = None;
    for i in 0..if args.quick { 1 } else { SETUPS } {
        let t0 = if i == 0 { started } else { Instant::now() };
        reference.take();
        reference.tick();
        let inputs = (def.generate)(args.seed, args.quick);
        reference.catch_up();
        let mut warm = Pass::new(None);
        warm.reference = Some(&mut reference);
        inputs.pass(&mut Tracer::new(false), &mut warm);
        let warm = warm.detach();
        let total_s = t0.elapsed().as_secs_f64();
        let speed = reference.take();
        setups_raw.push(total_s - speed.seconds);
        setups.push((total_s - speed.seconds) / speed.slowdown());
        if let Some((first, first_warm)) = &ready {
            // Same seed, same inputs, same outputs — or nothing below
            // means anything.
            if first.fingerprint() != inputs.fingerprint() || first_warm.digests() != warm.digests()
            {
                return Err(format!("{}: set-up is not deterministic", def.name));
            }
        } else {
            ready = Some((inputs, warm));
        }
    }
    let (inputs, warm) = ready.expect("at least one set-up ran");
    let warm_digests = warm.digests();

    // Timed passes over the identical input set, for `--seconds`. Each
    // pass's wall is divided by the slowdown its own reference ticks
    // saw, so `wall_s` is seconds at reference machine speed.
    // Traced runs alternate an untraced and a traced pass, so the two
    // share whatever the machine is doing.
    let (mut walls, mut raw_walls, mut traced_walls) = (Vec::new(), Vec::new(), Vec::new());
    let mut speed = Sample::default();
    let mut traced_metrics: Vec<Metrics> = Vec::new();
    let (mut alloc_n, mut alloc_bytes) = (Vec::new(), Vec::new());
    let mut cell_ms: Vec<f64> = Vec::new();
    let mut last_counts = workloads::Counts::new();
    let mut last_spans: Vec<Span> = Vec::new();
    // The pass with the most failed cells is the one reported.
    let failed = |c: &[workloads::CellOut]| c.iter().filter(|c| c.failure.is_some()).count();
    let mut worst = warm.cells.clone();
    let mut note_cells = |cells: Vec<workloads::CellOut>| {
        if failed(&cells) > failed(&worst) {
            worst = cells;
        }
    };
    let measuring = Instant::now();
    while walls.len() < MIN_PASSES || measuring.elapsed().as_secs_f64() < args.seconds {
        let pass = run_pass(inputs.as_ref(), Some(&warm_digests), Some(&mut reference));
        raw_walls.push(pass.wall_s);
        walls.push(pass.wall_s / pass.speed.slowdown());
        speed.add(pass.speed);
        cell_ms.extend(pass.cells.iter().map(|c| c.ms));
        note_cells(pass.cells);
        if args.trace {
            let pass = run_pass(inputs.as_ref(), Some(&warm_digests), None);
            traced_walls.push(pass.wall_s);
            traced_metrics.push(report::pass_metrics(&pass.spans, &pass.counts, pass.wall_s));
            alloc_n.push(pass.allocs.0 as f64);
            alloc_bytes.push(pass.allocs.1 as f64);
            last_counts = pass.counts;
            last_spans = pass.spans;
            note_cells(pass.cells);
        }
    }

    let mut per_layer = Metrics::new();
    if args.trace {
        let traced_wall = median(&traced_walls);
        per_layer = report::median_metrics(&traced_metrics);
        for (name, value) in inputs.setup_metrics() {
            per_layer.insert(name.to_string(), value);
        }
        inputs.probes(&last_counts, &mut per_layer);
        report::finish_estimates(&mut per_layer, traced_wall);
        per_layer.insert(
            "bench.trace_overhead_frac".into(),
            traced_wall / median(&raw_walls) - 1.0,
        );
        per_layer.insert("bench.allocs_per_pass".into(), median(&alloc_n));
        per_layer.insert("bench.alloc_bytes_per_pass".into(), median(&alloc_bytes));
        // Cell-latency percentiles need enough cells to mean something.
        if warm_digests.len() >= 200 {
            per_layer.insert("bench.cell_ms_p50".into(), median(&cell_ms));
            per_layer.insert("bench.cell_ms_p95".into(), percentile(&cell_ms, 95.0));
        }
    }

    let cells = worst;
    let summary = |v: &[f64]| Summary::of(v).expect("at least one sample");
    let end_to_end = END_TO_END
        .iter()
        .map(|d| {
            let s = match d.name {
                "wall_s" => summary(&walls),
                "setup_s" => summary(&setups),
                "peak_rss_mb" => Summary::exact(peak_rss_mb()),
                "bound_ratio_gmean" => Summary::exact(warm.bound_ratio_gmean()),
                other => unreachable!("no measurement for end-to-end metric {other}"),
            };
            (d, s)
        })
        .collect();
    let result = RunResult {
        workload: def.name.to_string(),
        seed: args.seed,
        traced: args.trace,
        comparable: !args.quick,
        ops_attempted: cells.len() as u64,
        ops_failed: failed(&cells) as u64,
        digest: check::fnv(0, &warm_digests),
        inputs: inputs.fingerprint(),
        passes: walls.len(),
        wall_raw: summary(&raw_walls),
        setup_raw: summary(&setups_raw),
        speed,
        end_to_end,
        per_layer,
        failures: cells
            .iter()
            .enumerate()
            .filter_map(|(i, c)| c.failure.as_ref().map(|f| (i, format!("{f:?}"))))
            .collect(),
    };

    if let Some(out) = &args.out {
        write_file(
            out,
            &Json::obj([("runs", Json::Arr(vec![result.to_json()]))]).render(),
        )?;
        if args.trace {
            let name = format!("trace_{}.json", def.name);
            write_file(&out.with_file_name(name), &spans_json(&last_spans).render())?;
        }
    }
    result.print();
    println!("{}", result.driver_line());
    Ok(result.correct())
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    let fail = |e: std::io::Error| format!("cannot write {}: {e}", path.display());
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(fail)?;
    }
    std::fs::write(path, text).map_err(fail)
}

/// The last traced pass's spans, for `trace_<workload>.json`.
fn spans_json(spans: &[Span]) -> Json {
    let selfs = trace::self_times_ns(spans);
    Json::Arr(
        spans
            .iter()
            .zip(selfs)
            .map(|(s, self_ns)| {
                Json::obj([
                    ("name", Json::str(s.name)),
                    ("layer", Json::str(s.layer.name())),
                    ("cell", Json::Num(f64::from(s.cell))),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(f64::from(p))),
                    ),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    ("self_ns", Json::Num(self_ns as f64)),
                    ("aggregated", Json::Bool(s.aggregated)),
                ])
            })
            .collect(),
    )
}

/// Runs every workload, each single-threaded in its own process (so
/// `peak_rss_mb` is the workload's own), and merges their results into
/// `--out`. With `--trace`, a traced run follows each untraced one:
/// end-to-end metrics always come from the untraced run.
fn run_all(args: &RunArgs) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut runs = Vec::new();
    let mut all_correct = true;
    // Repeats go round the workloads, so the runs of one workload are
    // spread over the whole session rather than bunched together.
    let rounds = (0..args.repeat).flat_map(|_| WORKLOADS.iter());
    for def in rounds {
        for traced in [false, true] {
            if traced && !args.trace {
                continue;
            }
            let mut cmd = Command::new(&exe);
            cmd.args(["run", "--workload", def.name])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }]);
            if args.quick {
                cmd.arg("--quick");
            }
            let part = args.out.as_ref().map(|out| {
                let tag = if traced { "traced" } else { "plain" };
                let mut name = out.file_name().unwrap_or_default().to_os_string();
                name.push(format!(".part-{}-{tag}", def.name));
                out.with_file_name(name)
            });
            if let Some(part) = &part {
                cmd.arg("--out").arg(part);
            }
            // `status` waits for the child to end.
            let status = cmd
                .status()
                .map_err(|e| format!("cannot start {}: {e}", def.name))?;
            match status.code() {
                Some(0) => {}
                Some(1) => all_correct = false,
                _ => return Err(format!("{} did not finish ({status})", def.name)),
            }
            if let Some(part) = &part {
                let text = std::fs::read_to_string(part)
                    .map_err(|e| format!("cannot read {}: {e}", part.display()))?;
                let doc = Json::parse(&text)?;
                runs.extend(
                    doc.get("runs")
                        .and_then(Json::as_arr)
                        .unwrap_or_default()
                        .to_vec(),
                );
                // The trace file of a part is a sibling of the part and
                // already carries the workload's name.
                let _ = std::fs::remove_file(part);
            }
        }
    }
    if let Some(out) = &args.out {
        write_file(out, &Json::obj([("runs", Json::Arr(runs))]).render())?;
    }
    Ok(all_correct)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<RunArgs, String> {
        parse_run_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn driver_style_arguments_parse() {
        let a = args(&[
            "--workload",
            "wide_star",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("wide_star"));
        assert_eq!(
            (a.seed, a.seconds, a.trace, a.quick),
            (7, 10.0, true, false)
        );
        assert!(!args(&["--trace", "0"]).unwrap().trace);
        assert!(args(&["--trace"]).unwrap().trace);
        let a = args(&["--trace", "--quick", "--out", "r.json"]).unwrap();
        assert!(a.trace && a.quick && a.out == Some(PathBuf::from("r.json")));
        let a = args(&[]).unwrap();
        assert_eq!((a.seed, a.seconds), (DEFAULT_SEED, DEFAULT_SECONDS));
    }

    #[test]
    fn bad_arguments_are_refused() {
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--seed", "-1"]).is_err());
        assert!(args(&["--seconds", "nan"]).is_err());
        assert!(args(&["--seed"]).is_err());
        assert!(args(&["--frobnicate"]).is_err());
        assert!(args(&["--repeat", "0"]).is_err());
        assert_eq!(args(&["--repeat", "3"]).unwrap().repeat, 3);
    }

    /// `benchmark/Cargo.toml` must repeat the root `[profile.release]`
    /// verbatim, or the benchmark measures a differently-optimised
    /// build of the library.
    #[test]
    fn release_profile_equals_the_root_profile() {
        fn release_profile(manifest: &str) -> Vec<String> {
            let text = std::fs::read_to_string(manifest)
                .unwrap_or_else(|e| panic!("cannot read {manifest}: {e}"));
            text.lines()
                .map(|l| l.split('#').next().unwrap_or("").trim())
                .skip_while(|l| *l != "[profile.release]")
                .skip(1)
                .take_while(|l| !l.starts_with('['))
                .filter(|l| !l.is_empty())
                .map(|l| l.split_whitespace().collect::<String>())
                .collect()
        }
        let dir = env!("CARGO_MANIFEST_DIR");
        let own = release_profile(&format!("{dir}/Cargo.toml"));
        let root = release_profile(&format!("{dir}/../Cargo.toml"));
        assert!(
            !root.is_empty(),
            "the root manifest has a [profile.release]"
        );
        assert_eq!(own, root);
    }

    /// `BENCHMARK.json` names exactly the workloads and metrics the
    /// program reports, with the same units, directions and bounds.
    #[test]
    fn benchmark_json_matches_the_program() {
        let path = format!("{}/../BENCHMARK.json", env!("CARGO_MANIFEST_DIR"));
        let doc = Json::parse(&std::fs::read_to_string(&path).expect("BENCHMARK.json exists"))
            .expect("BENCHMARK.json parses");
        let keys: Vec<_> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(
            doc.get("run_seconds").unwrap().as_f64(),
            Some(DEFAULT_SECONDS)
        );
        let field = |v: &Json, k: &str| v.get(k).and_then(Json::as_str).unwrap().to_string();
        let listed: Vec<(String, String)> = doc
            .get("workloads")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|w| (field(w, "name"), field(w, "why")))
            .collect();
        let own: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(listed, own);
        let e2e: Vec<_> = doc
            .get("end_to_end")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|m| {
                let bound = m.get("bound").unwrap().as_f64().unwrap();
                (
                    field(m, "name"),
                    field(m, "unit"),
                    field(m, "better"),
                    bound,
                )
            })
            .collect();
        let own: Vec<_> = END_TO_END
            .iter()
            .map(|d| {
                (
                    d.name.to_string(),
                    d.unit.to_string(),
                    d.better.word().to_string(),
                    d.bound,
                )
            })
            .collect();
        assert_eq!(e2e, own);
        let layers: Vec<_> = doc
            .get("per_layer")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
            .collect();
        let own: Vec<_> = report::PER_LAYER
            .iter()
            .map(|d| {
                (
                    d.name.to_string(),
                    d.unit.to_string(),
                    d.better.word().to_string(),
                )
            })
            .collect();
        assert_eq!(layers, own);
    }

    /// The surface rule: `surface.rs` is the only file that imports repo
    /// symbols, and it names nothing the ROADMAP plans to delete.
    #[test]
    fn surface_rule_holds() {
        let src = format!("{}/src", env!("CARGO_MANIFEST_DIR"));
        let surface = std::fs::read_to_string(format!("{src}/surface.rs")).unwrap();
        let code: String = surface
            .lines()
            .filter(|l| !l.trim_start().starts_with("//"))
            .collect::<Vec<_>>()
            .join("\n");
        for banned in [
            "NetEngine",
            "net::link",
            "sim::trace",
            "gemm_naive",
            "bench::",
        ] {
            assert!(!code.contains(banned), "surface.rs names {banned}");
        }
        fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
            for entry in std::fs::read_dir(dir).unwrap() {
                let path = entry.unwrap().path();
                if path.is_dir() {
                    walk(&path, out);
                } else if path.extension().is_some_and(|e| e == "rs") {
                    out.push(path);
                }
            }
        }
        let mut files = Vec::new();
        walk(Path::new(&src), &mut files);
        for file in files.iter().filter(|f| !f.ends_with("surface.rs")) {
            let text = std::fs::read_to_string(file).unwrap();
            // Spelled in two pieces so this file does not match itself.
            let (path, krate) = (["stargemm", "::"].concat(), ["stargemm", "_"].concat());
            let importing = text.lines().any(|l| {
                let l = l.trim_start();
                !l.starts_with("//") && (l.contains(&path) || l.contains(&krate))
            });
            assert!(
                !importing,
                "{} imports repo symbols directly",
                file.display()
            );
        }
    }
}
