//! `compare A.json B.json` — A is the baseline, B the candidate.
//!
//! One row per (end-to-end metric, workload): both medians, the ratio
//! with its base, the bound, and a verdict —
//!
//! * `regressed`: B's median is worse than A's by more than the bound;
//! * `unresolved`: the run-to-run spread (inter-quartile distance over
//!   the median, of either side) is wider than the bound, so the medians
//!   cannot settle the question — unless every run of B reads better
//!   than every run of A;
//! * `within` otherwise.
//!
//! A file may hold several runs of a workload (`run --repeat N`): the
//! row then compares the runs' medians — median of medians, spread
//! between runs — which is what resolves a metric on a machine whose
//! speed drifts from minute to minute.
//!
//! Exits non-zero on any `regressed` row or on a higher `ops_failed ÷
//! ops_attempted`. Deterministic quantities (digests, `bound_ratio_
//! gmean`, exact counters) are additionally reported as `identical` or
//! `changed` when both files ran the same seed: a simulator speed-up
//! must leave them bit-identical, a scheduling change moves them.

use std::path::Path;

use crate::json::Json;
use crate::report::{Better, END_TO_END};
use crate::stats::Summary;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Within,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn word(self) -> &'static str {
        match self {
            Verdict::Within => "within",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The verdict for one metric: `a` baseline, `b` candidate.
pub fn verdict(a: &Summary, b: &Summary, better: Better, bound: f64) -> Verdict {
    // Positive = B is worse, as a share of A's median.
    let worse_by = match better {
        Better::Lower => (b.median - a.median) / a.median.abs(),
        Better::Higher => (a.median - b.median) / a.median.abs(),
    };
    let b_always_better = match better {
        Better::Lower => b.max < a.min,
        Better::Higher => b.min > a.max,
    };
    if a.spread().max(b.spread()) > bound && !b_always_better {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Within
    }
}

struct Run<'a> {
    doc: &'a Json,
}

impl Run<'_> {
    fn text(&self, key: &str) -> &str {
        self.doc.get(key).and_then(Json::as_str).unwrap_or("")
    }

    fn num(&self, key: &str) -> f64 {
        self.doc.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN)
    }

    fn traced(&self) -> bool {
        self.doc
            .get("traced")
            .and_then(Json::as_bool)
            .unwrap_or(false)
    }

    fn summary(&self, metric: &str) -> Option<Summary> {
        let m = self.doc.get("end_to_end")?.get(metric)?;
        let f = |k: &str| m.get(k).and_then(Json::as_f64);
        Some(Summary {
            median: f("median")?,
            q1: f("q1")?,
            q3: f("q3")?,
            min: f("min")?,
            max: f("max")?,
            n: f("n")? as usize,
        })
    }

    fn layer(&self, metric: &str) -> Option<f64> {
        self.doc.get("per_layer")?.get(metric)?.as_f64()
    }
}

fn runs(doc: &Json) -> Vec<Run<'_>> {
    doc.get("runs")
        .and_then(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .map(|doc| Run { doc })
        .collect()
}

/// The summary `compare` judges for one (workload, metric): the run's
/// own when the file holds one untraced run of the workload, else the
/// summary of the runs' medians.
fn pooled(runs: &[Run], workload: &str, metric: &str) -> Option<Summary> {
    let each: Vec<Summary> = runs
        .iter()
        .filter(|r| !r.traced() && r.text("workload") == workload)
        .map(|r| r.summary(metric))
        .collect::<Option<_>>()?;
    match each.as_slice() {
        [] => None,
        [one] => Some(*one),
        many => Summary::of(&many.iter().map(|s| s.median).collect::<Vec<_>>()),
    }
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Exact counters a change to the simulator or the kernels must leave
/// untouched.
const EXACT_LAYER_COUNTS: [&str; 6] = [
    "sim.events",
    "core.decisions",
    "linalg.updates",
    "netmodel.reshares",
    "obs.events",
    "lp.solves",
];

/// Compares two result files; `Ok(true)` when nothing regressed.
pub fn compare_files(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    compare_docs(&load(a_path)?, &load(b_path)?)
}

/// Compares two parsed result documents (`{"runs": [...]}`).
pub fn compare_docs(a_doc: &Json, b_doc: &Json) -> Result<bool, String> {
    let (a_runs, b_runs) = (runs(a_doc), runs(b_doc));
    if a_runs.is_empty() || b_runs.is_empty() {
        return Err("a result file holds no runs".into());
    }
    let mut ok = true;
    println!(
        "{:<12} {:<18} {:>13} {:>13} {:>8} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "B/A", "bound"
    );
    let mut seen: Vec<&str> = Vec::new();
    for a in a_runs.iter().filter(|r| !r.traced()) {
        let name = a.text("workload");
        if seen.contains(&name) {
            continue;
        }
        seen.push(name);
        let Some(b) = b_runs
            .iter()
            .find(|r| !r.traced() && r.text("workload") == name)
        else {
            println!("{name:<12} missing from B");
            ok = false;
            continue;
        };
        let same_seed = a.num("seed") == b.num("seed");
        for d in &END_TO_END {
            let pools = (pooled(&a_runs, name, d.name), pooled(&b_runs, name, d.name));
            let (Some(sa), Some(sb)) = pools else {
                println!("{name:<12} {:<18} missing", d.name);
                ok = false;
                continue;
            };
            let v = verdict(&sa, &sb, d.better, d.bound);
            ok &= v != Verdict::Regressed;
            let exact = if d.name == "bound_ratio_gmean" && same_seed {
                if sa.median.to_bits() == sb.median.to_bits() {
                    " (identical)"
                } else {
                    " (changed)"
                }
            } else {
                ""
            };
            println!(
                "{name:<12} {:<18} {:>13.6} {:>13.6} {:>8.4} {:>7.3}  {}{exact}",
                d.name,
                sa.median,
                sb.median,
                sb.median / sa.median,
                d.bound,
                v.word()
            );
        }
        // Failed and attempted ops over every run of the workload.
        let ops = |runs: &[Run]| {
            let of = |key: &str| -> f64 {
                runs.iter()
                    .filter(|r| !r.traced() && r.text("workload") == name)
                    .map(|r| r.num(key))
                    .sum()
            };
            (of("ops_failed"), of("ops_attempted"))
        };
        let ((a_failed, a_tried), (b_failed, b_tried)) = (ops(&a_runs), ops(&b_runs));
        let (fa, fb) = (a_failed / a_tried, b_failed / b_tried);
        println!(
            "{name:<12} {:<18} {:>13} {:>13}  {}",
            "ops_failed/attempt",
            format!("{a_failed}/{a_tried}"),
            format!("{b_failed}/{b_tried}"),
            if fb > fa { "MORE FAILURES" } else { "ok" }
        );
        // Written so that a NaN rate fails too.
        ok &= fb <= fa;
        if same_seed {
            for key in ["digest", "inputs"] {
                let same = a.text(key) == b.text(key);
                println!(
                    "{name:<12} {key:<18} {:>13} {:>13}  {}",
                    &a.text(key)[..a.text(key).len().min(13)],
                    &b.text(key)[..b.text(key).len().min(13)],
                    if same { "identical" } else { "changed" }
                );
            }
        } else {
            println!("{name:<12} seeds differ: digests and exact counts not compared");
        }
    }
    // Traced runs: exact counters only (timings there carry the tracer).
    for a in a_runs.iter().filter(|r| r.traced()) {
        let name = a.text("workload");
        let Some(b) = b_runs
            .iter()
            .find(|r| r.traced() && r.text("workload") == name)
        else {
            continue;
        };
        if a.num("seed") != b.num("seed") {
            continue;
        }
        for key in EXACT_LAYER_COUNTS {
            if let (Some(ca), Some(cb)) = (a.layer(key), b.layer(key)) {
                println!(
                    "{name:<12} {key:<18} {ca:>13} {cb:>13}  {}",
                    if ca.to_bits() == cb.to_bits() {
                        "identical"
                    } else {
                        "changed"
                    }
                );
            }
        }
    }
    println!(
        "{}",
        if ok {
            "RESULT: no regression"
        } else {
            "RESULT: REGRESSED"
        }
    );
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tight(median: f64) -> Summary {
        Summary {
            median,
            q1: median * 0.995,
            q3: median * 1.005,
            min: median * 0.99,
            max: median * 1.01,
            n: 10,
        }
    }

    #[test]
    fn verdicts_follow_the_bound() {
        let a = tight(1.0);
        assert_eq!(
            verdict(&a, &tight(1.05), Better::Lower, 0.10),
            Verdict::Within
        );
        assert_eq!(
            verdict(&a, &tight(0.5), Better::Lower, 0.10),
            Verdict::Within
        );
        assert_eq!(
            verdict(&a, &tight(1.11), Better::Lower, 0.10),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&a, &tight(0.85), Better::Higher, 0.10),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&a, &tight(1.5), Better::Higher, 0.10),
            Verdict::Within
        );
    }

    #[test]
    fn a_wide_spread_is_unresolved_unless_b_always_wins() {
        let noisy = Summary {
            median: 1.0,
            q1: 0.9,
            q3: 1.1,
            min: 0.8,
            max: 1.3,
            n: 10,
        };
        assert_eq!(
            verdict(&noisy, &tight(1.0), Better::Lower, 0.10),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&tight(1.0), &noisy, Better::Lower, 0.10),
            Verdict::Unresolved
        );
        // Every run of B (max 0.707) beats every run of A (min 0.8).
        assert_eq!(
            verdict(&noisy, &tight(0.7), Better::Lower, 0.10),
            Verdict::Within
        );
    }

    #[test]
    fn compare_reads_what_run_writes() {
        use crate::report::RunResult;
        use crate::workloads::Metrics;
        let result = |wall: f64, failed: u64| RunResult {
            workload: "paper_sweep".into(),
            seed: 2008,
            traced: false,
            comparable: true,
            ops_attempted: 10,
            ops_failed: failed,
            digest: 0xabc,
            inputs: 0xdef,
            passes: 7,
            wall_raw: tight(wall),
            setup_raw: tight(wall),
            speed: crate::reference::Sample {
                ticks: 1,
                seconds: crate::reference::TICK_NOMINAL_S,
            },
            end_to_end: END_TO_END.iter().map(|d| (d, tight(wall))).collect(),
            per_layer: Metrics::new(),
            failures: vec![],
        };
        let doc = |r: RunResult| Json::obj([("runs", Json::Arr(vec![r.to_json()]))]);
        // Through text, as `--out` files go.
        let doc = |r: RunResult| Json::parse(&doc(r).render()).unwrap();
        let base = doc(result(1.0, 0));
        assert_eq!(compare_docs(&base, &doc(result(1.02, 0))), Ok(true));
        // Several runs per workload pool into a median of medians: one
        // slow run out of three does not regress the set.
        let set = |walls: [f64; 3]| {
            let runs = walls.iter().map(|&w| result(w, 0).to_json()).collect();
            Json::parse(&Json::obj([("runs", Json::Arr(runs))]).render()).unwrap()
        };
        assert_eq!(
            compare_docs(&set([1.0, 1.01, 0.99]), &set([1.0, 1.6, 1.02])),
            Ok(true)
        );
        assert_eq!(
            compare_docs(&set([1.0, 1.01, 0.99]), &set([1.5, 1.6, 1.55])),
            Ok(false)
        );
        assert_eq!(compare_docs(&base, &doc(result(1.5, 0))), Ok(false));
        assert_eq!(compare_docs(&base, &doc(result(1.0, 1))), Ok(false));
        assert!(compare_docs(&base, &Json::obj([("runs", Json::Arr(vec![]))])).is_err());
        assert!(compare_files(Path::new("no-such-a.json"), Path::new("no-such-b.json")).is_err());
    }
}
