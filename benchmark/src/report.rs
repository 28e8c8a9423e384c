//! Metric definitions and the derivation of per-layer metrics from a
//! traced pass.
//!
//! [`END_TO_END`] and [`PER_LAYER`] are the single source of the metric
//! names, units and directions; a unit test holds `../BENCHMARK.json` to
//! them. A layer metric a workload never exercises reads 0.

use std::collections::BTreeMap;

use crate::json::Json;
use crate::reference::{Sample, TICK_NOMINAL_S};
use crate::stats::{median, percentile, Summary};
use crate::trace::{self_times_ns, Layer, Span};
use crate::workloads::{Counts, Metrics};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end only: the share of the baseline's median by which the
    /// metric may worsen before it counts as a regression.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        bound,
    }
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        bound: 0.0,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
        bound: 0.0,
    }
}

/// What a user of the system sees, reported on every workload.
pub const END_TO_END: [MetricDef; 4] = [
    // Median wall seconds of one timed pass at the stated input size,
    // at reference machine speed (each pass divided by the slowdown its
    // own reference ticks measured; see `reference`).
    e2e("wall_s", "s", 0.25),
    // Input generation plus the warm-up pass, normalised likewise; work
    // moved out of the pass shows here.
    e2e("setup_s", "s", 0.25),
    // VmHWM of the workload's process at exit.
    e2e("peak_rss_mb", "MB", 0.20),
    // Geometric mean of makespan ÷ lower bound over the sim-engine
    // cells: deterministic for a seed (`compare` reports whether two
    // same-seed runs agree to the bit); the bound covers the spread
    // across seeds the acceptance driver sees.
    e2e("bound_ratio_gmean", "ratio", 0.10),
];

/// Single-layer metrics of the traced run (`L.busy_s` = self time of
/// the spans of layer `L` per pass, `L.wall_share` = `L.busy_s` ÷ the
/// traced pass's wall).
pub const PER_LAYER: &[MetricDef] = &[
    lower("platform.busy_s", "s"),
    lower("platform.wall_share", "ratio"),
    lower("platform.calls", "count"),
    lower("platform.parse_us", "us"),
    lower("lp.busy_s", "s"),
    lower("lp.wall_share", "ratio"),
    lower("lp.solves", "count"),
    lower("lp.solve_us_p50", "us"),
    lower("lp.solve_us_max", "us"),
    lower("core.busy_s", "s"),
    lower("core.wall_share", "ratio"),
    lower("core.plan_s", "s"),
    lower("core.plan_calls", "count"),
    lower("core.plan_share", "ratio"),
    lower("core.master_s", "s"),
    lower("core.decisions", "count"),
    higher("core.decisions_per_s", "1/s"),
    lower("core.bound_s", "s"),
    lower("sim.busy_s", "s"),
    lower("sim.wall_share", "ratio"),
    lower("sim.run_s", "s"),
    lower("sim.engine_self_s", "s"),
    lower("sim.events", "count"),
    higher("sim.events_per_s", "1/s"),
    lower("sim.ns_per_event", "ns"),
    lower("sim.leg_fairshare_s", "s"),
    lower("sim.leg_multiport_s", "s"),
    lower("sim.leg_oneport_s", "s"),
    lower("netmodel.reshare_us_l8", "us"),
    lower("netmodel.reshare_us_l64", "us"),
    lower("netmodel.reshare_us_l256", "us"),
    lower("netmodel.reshares", "count"),
    lower("netmodel.peak_lanes", "count"),
    lower("netmodel.est_busy_s", "s"),
    lower("netmodel.wall_share", "ratio"),
    lower("stream.busy_s", "s"),
    lower("stream.wall_share", "ratio"),
    lower("stream.master_s", "s"),
    higher("stream.decisions_per_s", "1/s"),
    lower("stream.build_s", "s"),
    lower("stream.report_s", "s"),
    lower("stream.jobs", "count"),
    lower("dag.busy_s", "s"),
    lower("dag.wall_share", "ratio"),
    lower("dag.build_s", "s"),
    lower("dag.master_s", "s"),
    lower("dag.tasks", "count"),
    higher("dag.tasks_per_s", "1/s"),
    lower("dyn.busy_s", "s"),
    lower("dyn.wall_share", "ratio"),
    lower("dyn.master_s", "s"),
    lower("dyn.rebalances", "count"),
    lower("dyn.crashes", "count"),
    lower("net.busy_s", "s"),
    lower("net.wall_share", "ratio"),
    lower("net.run_s", "s"),
    higher("net.events_per_s", "1/s"),
    lower("net.leg_fairshare_s", "s"),
    lower("net.leg_multiport_s", "s"),
    lower("net.leg_oneport_s", "s"),
    lower("net.leg_q80_s", "s"),
    lower("net.leg_q32_s", "s"),
    lower("net.leg_fed_s", "s"),
    lower("net.overhead_s", "s"),
    lower("net.bytes_moved", "B"),
    higher("linalg.gemm_gflops_q32", "GFLOP/s"),
    higher("linalg.gemm_gflops_q80", "GFLOP/s"),
    lower("linalg.updates", "count"),
    lower("linalg.flops", "count"),
    lower("linalg.bytes_per_flop", "B/flop"),
    lower("linalg.est_busy_s", "s"),
    lower("linalg.wall_share", "ratio"),
    lower("linalg.verify_s", "s"),
    lower("obs.busy_s", "s"),
    lower("obs.wall_share", "ratio"),
    lower("obs.record_overhead_frac", "ratio"),
    lower("obs.events", "count"),
    lower("obs.attr_s", "s"),
    higher("obs.attr_events_per_s", "1/s"),
    higher("bench.span_coverage", "ratio"),
    lower("bench.trace_overhead_frac", "ratio"),
    lower("bench.alloc_bytes_per_pass", "B"),
    lower("bench.allocs_per_pass", "count"),
    lower("bench.cell_ms_p50", "ms"),
    lower("bench.cell_ms_p95", "ms"),
];

/// Layers whose `busy_s` is span self time. `linalg` and `netmodel` run
/// inside the engines' spans, so theirs is an estimate (`est_busy_s`).
const SPANNED_LAYERS: [Layer; 9] = [
    Layer::Platform,
    Layer::Lp,
    Layer::Core,
    Layer::Sim,
    Layer::Stream,
    Layer::Dag,
    Layer::Dyn,
    Layer::Net,
    Layer::Obs,
];

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Per-layer metrics of one traced pass: span sums, self times, exact
/// counters and the ratios between them. Probe results and estimates
/// are added afterwards by the workload.
pub fn pass_metrics(spans: &[Span], counts: &Counts, wall_s: f64) -> Metrics {
    let selfs = self_times_ns(spans);
    let secs = |ns: u64| ns as f64 * 1e-9;
    // Σ duration and call count of the spans `pick` selects.
    let sum = |pick: &dyn Fn(&Span) -> bool| {
        spans
            .iter()
            .filter(|s| pick(s))
            .fold((0.0, 0.0), |(d, n), s| (d + secs(s.dur_ns()), n + 1.0))
    };
    let named = |layer: Layer, name: &'static str| {
        sum(&move |s: &Span| s.layer == layer && s.name == name && !s.aggregated)
    };
    let master = |layer: Layer| sum(&move |s: &Span| s.layer == layer && s.aggregated).0;
    let runs = |layer: Layer| {
        sum(&move |s: &Span| s.layer == layer && s.name.starts_with("run") && !s.aggregated).0
    };
    let self_of_runs = |layer: Layer| -> f64 {
        spans
            .iter()
            .zip(&selfs)
            .filter(|(s, _)| s.layer == layer && s.name.starts_with("run") && !s.aggregated)
            .map(|(_, &ns)| secs(ns))
            .sum()
    };
    let count = |name: &str| counts.get(name).copied().unwrap_or(0.0);

    let mut m = Metrics::new();
    let mut put = |name: &str, value: f64| {
        m.insert(name.to_string(), value);
    };

    for layer in SPANNED_LAYERS {
        let busy: f64 = spans
            .iter()
            .zip(&selfs)
            .filter(|(s, _)| s.layer == layer)
            .map(|(_, &ns)| secs(ns))
            .sum();
        put(&format!("{}.busy_s", layer.name()), busy);
        put(&format!("{}.wall_share", layer.name()), ratio(busy, wall_s));
    }
    let total_self: u64 = selfs.iter().sum();
    put("bench.span_coverage", ratio(secs(total_self), wall_s));

    let (parse_s, parses) = named(Layer::Platform, "parse");
    put("platform.calls", parses);
    put("platform.parse_us", ratio(parse_s * 1e6, parses));

    let solve_us: Vec<f64> = spans
        .iter()
        .filter(|s| s.layer == Layer::Lp && s.name == "solve")
        .map(|s| secs(s.dur_ns()) * 1e6)
        .collect();
    put("lp.solves", count("lp.solves"));
    if !solve_us.is_empty() {
        put("lp.solve_us_p50", median(&solve_us));
        put("lp.solve_us_max", percentile(&solve_us, 100.0));
    }

    let (plan_s, plans) = named(Layer::Core, "plan");
    put("core.plan_s", plan_s);
    put("core.plan_calls", plans);
    put("core.plan_share", ratio(plan_s, wall_s));
    put("core.bound_s", named(Layer::Core, "bound").0);
    for (layer, prefix) in [
        (Layer::Core, "core"),
        (Layer::Stream, "stream"),
        (Layer::Dag, "dag"),
        (Layer::Dyn, "dyn"),
    ] {
        put(&format!("{prefix}.master_s"), master(layer));
    }
    put("core.decisions", count("core.decisions"));
    put(
        "core.decisions_per_s",
        ratio(count("core.decisions"), master(Layer::Core)),
    );
    put(
        "stream.decisions_per_s",
        ratio(count("stream.decisions"), master(Layer::Stream)),
    );

    let sim_run = runs(Layer::Sim);
    put("sim.run_s", sim_run);
    put("sim.engine_self_s", self_of_runs(Layer::Sim));
    put("sim.events", count("sim.events"));
    put("sim.events_per_s", ratio(count("sim.events"), sim_run));
    put(
        "sim.ns_per_event",
        ratio(self_of_runs(Layer::Sim) * 1e9, count("sim.events")),
    );
    for (leg, name) in [
        ("fairshare", "run_fairshare"),
        ("multiport", "run_multiport"),
        ("oneport", "run_oneport"),
    ] {
        put(&format!("sim.leg_{leg}_s"), named(Layer::Sim, name).0);
        put(&format!("net.leg_{leg}_s"), named(Layer::Net, name).0);
    }
    put("net.leg_q80_s", named(Layer::Net, "run_q80").0);
    put("net.leg_q32_s", named(Layer::Net, "run_q32").0);
    put("net.leg_fed_s", named(Layer::Net, "run_fed").0);
    let net_run = runs(Layer::Net);
    put("net.run_s", net_run);
    put("net.events_per_s", ratio(count("net.events"), net_run));
    put("net.bytes_moved", count("net.bytes_moved"));

    put("netmodel.peak_lanes", count("netmodel.peak_lanes"));
    put("stream.build_s", named(Layer::Stream, "build").0);
    put("stream.report_s", named(Layer::Stream, "report").0);
    put("stream.jobs", count("stream.jobs"));
    put("dag.tasks", count("dag.tasks"));
    put(
        "dag.tasks_per_s",
        ratio(count("dag.tasks"), count("dag.run_s")),
    );
    put("dyn.rebalances", count("dyn.rebalances"));
    put("dyn.crashes", count("dyn.crashes"));

    put("linalg.updates", count("linalg.updates"));
    put("linalg.flops", count("linalg.flops"));
    put(
        "linalg.bytes_per_flop",
        ratio(count("linalg.bytes"), count("linalg.flops")),
    );
    put("linalg.verify_s", named(Layer::Linalg, "verify").0);

    let (attr_s, _) = named(Layer::Obs, "attr");
    put("obs.events", count("obs.events"));
    put("obs.attr_s", attr_s);
    put("obs.attr_events_per_s", ratio(count("obs.events"), attr_s));
    m
}

/// Median of every metric across the traced passes.
pub fn median_metrics(passes: &[Metrics]) -> Metrics {
    let mut by_name: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for pass in passes {
        for (name, value) in pass {
            by_name.entry(name).or_default().push(*value);
        }
    }
    by_name
        .into_iter()
        .map(|(name, values)| (name.to_string(), median(&values)))
        .collect()
}

/// Layers whose work happens inside another layer's span are estimated
/// (exact count × probe time); their `wall_share` follows from that.
pub fn finish_estimates(m: &mut Metrics, wall_s: f64) {
    for layer in ["netmodel", "linalg", "lp"] {
        let est = m
            .get(&format!("{layer}.est_busy_s"))
            .or_else(|| m.get(&format!("{layer}.busy_s")))
            .copied()
            .unwrap_or(0.0);
        if est > 0.0 {
            m.insert(format!("{layer}.wall_share"), ratio(est, wall_s));
        }
    }
}

/// One finished run of one workload, as written to `--out` and read by
/// `compare`.
pub struct RunResult {
    pub workload: String,
    pub seed: u64,
    pub traced: bool,
    pub comparable: bool,
    pub ops_attempted: u64,
    pub ops_failed: u64,
    /// Digest of the warm-up pass (FNV over its cell digests).
    pub digest: u64,
    /// Fingerprint of the generated inputs.
    pub inputs: u64,
    pub passes: usize,
    /// Pass and set-up wall seconds as the clock read them, before the
    /// division by the machine's slowdown (for the record; `compare`
    /// judges the normalised `wall_s` and `setup_s`).
    pub wall_raw: Summary,
    pub setup_raw: Summary,
    /// All reference ticks of the timed passes.
    pub speed: Sample,
    pub end_to_end: Vec<(&'static MetricDef, Summary)>,
    /// `name → value`, every [`PER_LAYER`] name, traced runs only.
    pub per_layer: Metrics,
    pub failures: Vec<(usize, String)>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.ops_failed == 0
    }

    /// The driver's contract: one JSON object with exactly `correct`,
    /// `attempted`, `failed` and `metrics` — every end-to-end metric
    /// untraced, every per-layer metric traced.
    pub fn driver_line(&self) -> String {
        let metric = |value: f64, unit: &str| {
            Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))])
        };
        let metrics = if self.traced {
            Json::Obj(
                PER_LAYER
                    .iter()
                    .map(|d| {
                        let v = self.per_layer.get(d.name).copied().unwrap_or(0.0);
                        (d.name.to_string(), metric(v, d.unit))
                    })
                    .collect(),
            )
        } else {
            Json::Obj(
                self.end_to_end
                    .iter()
                    .map(|(d, s)| (d.name.to_string(), metric(s.median, d.unit)))
                    .collect(),
            )
        };
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.ops_attempted as f64)),
            ("failed", Json::Num(self.ops_failed as f64)),
            ("metrics", metrics),
        ])
        .render()
    }

    /// The full record for `--out`.
    pub fn to_json(&self) -> Json {
        let stats = |s: &Summary| {
            [
                ("median", Json::Num(s.median)),
                ("q1", Json::Num(s.q1)),
                ("q3", Json::Num(s.q3)),
                ("min", Json::Num(s.min)),
                ("max", Json::Num(s.max)),
                ("n", Json::Num(s.n as f64)),
            ]
        };
        let summary = |d: &MetricDef, s: &Summary| {
            let head = [
                ("unit", Json::str(d.unit)),
                ("better", Json::str(d.better.word())),
                ("bound", Json::Num(d.bound)),
            ];
            Json::obj(head.into_iter().chain(stats(s)))
        };
        Json::obj([
            ("workload", Json::str(&self.workload)),
            ("seed", Json::Num(self.seed as f64)),
            ("traced", Json::Bool(self.traced)),
            ("comparable", Json::Bool(self.comparable)),
            ("ops_attempted", Json::Num(self.ops_attempted as f64)),
            ("ops_failed", Json::Num(self.ops_failed as f64)),
            ("digest", Json::str(format!("{:016x}", self.digest))),
            ("inputs", Json::str(format!("{:016x}", self.inputs))),
            ("passes", Json::Num(self.passes as f64)),
            ("wall_raw_s", Json::obj(stats(&self.wall_raw))),
            ("setup_raw_s", Json::obj(stats(&self.setup_raw))),
            ("reference_ticks", Json::Num(self.speed.ticks as f64)),
            ("machine_slowdown", Json::Num(self.speed.slowdown())),
            (
                "end_to_end",
                Json::Obj(
                    self.end_to_end
                        .iter()
                        .map(|(d, s)| (d.name.to_string(), summary(d, s)))
                        .collect(),
                ),
            ),
            ("per_layer", crate::json::num_map(&self.per_layer)),
            (
                "failures",
                Json::Arr(
                    self.failures
                        .iter()
                        .map(|(cell, what)| {
                            Json::obj([
                                ("cell", Json::Num(*cell as f64)),
                                ("what", Json::str(what)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Every metric by name with its unit, for people.
    pub fn print(&self) {
        let tag = if self.comparable {
            ""
        } else {
            "  [--quick: NOT comparable]"
        };
        let why = crate::workloads::find(&self.workload).map_or("", |w| w.why);
        println!("== {} — {why}", self.workload);
        println!(
            "   seed {}, {} passes{}{tag}",
            self.seed,
            self.passes,
            if self.traced { ", traced" } else { "" },
        );
        println!(
            "   ops_attempted {}  ops_failed {}  digest {:016x}  inputs {:016x}",
            self.ops_attempted, self.ops_failed, self.digest, self.inputs
        );
        for (cell, what) in self.failures.iter().take(10) {
            println!("   FAILED cell {cell}: {what}");
        }
        for (d, s) in &self.end_to_end {
            println!(
                "   {:<28} {:>14.6} {:<8} q1 {:.6} q3 {:.6} min {:.6} max {:.6} n {}",
                d.name, s.median, d.unit, s.q1, s.q3, s.min, s.max, s.n
            );
        }
        // As the clock read them; `wall_s` and `setup_s` above are these
        // divided by the slowdown the reference ticks saw alongside.
        for (name, s) in [
            ("wall_raw_s", &self.wall_raw),
            ("setup_raw_s", &self.setup_raw),
        ] {
            println!(
                "   {:<28} {:>14.6} {:<8} q1 {:.6} q3 {:.6} min {:.6} max {:.6} n {}",
                name, s.median, "s", s.q1, s.q3, s.min, s.max, s.n
            );
        }
        println!(
            "   {:<28} {:>14.6} {:<8} {} reference ticks, nominal {} ms each",
            "machine_slowdown",
            self.speed.slowdown(),
            "ratio",
            self.speed.ticks,
            TICK_NOMINAL_S * 1e3
        );
        if self.traced {
            for d in PER_LAYER.iter() {
                let v = self.per_layer.get(d.name).copied().unwrap_or(0.0);
                println!("   {:<28} {:>14.6} {}", d.name, v, d.unit);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn span(
        layer: Layer,
        name: &'static str,
        parent: Option<u32>,
        start_ns: u64,
        end_ns: u64,
        aggregated: bool,
    ) -> Span {
        Span {
            name,
            layer,
            cell: 0,
            parent,
            start_ns,
            end_ns,
            aggregated,
        }
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut seen = BTreeSet::new();
        let all = END_TO_END.iter().chain(PER_LAYER.iter());
        for d in all {
            assert!(seen.insert(d.name), "duplicate metric {}", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().all(|d| d.bound > 0.0 && d.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
    }

    #[test]
    fn pass_metrics_split_an_engine_span_into_self_and_master() {
        // 1 ms pass: parse 100 µs; plan 200 µs; engine run 600 µs of
        // which the master's callbacks took 250 µs.
        let spans = vec![
            span(Layer::Platform, "parse", None, 0, 100_000, false),
            span(Layer::Core, "plan", None, 100_000, 300_000, false),
            span(Layer::Sim, "run", None, 300_000, 900_000, false),
            span(Layer::Core, "master", Some(2), 300_000, 550_000, true),
        ];
        let mut counts = Counts::new();
        counts.insert("sim.events", 700.0);
        counts.insert("core.decisions", 500.0);
        let m = pass_metrics(&spans, &counts, 1e-3);
        let near = |name: &str, want: f64| {
            let got = m[name];
            assert!(
                (got - want).abs() <= 1e-9 * want.abs().max(1.0),
                "{name}: {got} vs {want}"
            );
        };
        near("platform.busy_s", 100e-6);
        near("platform.parse_us", 100.0);
        near("core.plan_s", 200e-6);
        near("core.plan_share", 0.2);
        near("core.master_s", 250e-6);
        near("core.busy_s", 450e-6);
        near("sim.run_s", 600e-6);
        near("sim.engine_self_s", 350e-6);
        near("sim.busy_s", 350e-6);
        near("sim.events_per_s", 700.0 / 600e-6);
        near("sim.ns_per_event", 500.0);
        near("core.decisions_per_s", 500.0 / 250e-6);
        near("bench.span_coverage", 0.9);
        near("net.run_s", 0.0);
    }

    #[test]
    fn every_derived_metric_has_a_definition() {
        let defined: BTreeSet<&str> = PER_LAYER.iter().map(|d| d.name).collect();
        let m = pass_metrics(&[], &Counts::new(), 1.0);
        for name in m.keys() {
            assert!(
                defined.contains(name.as_str()),
                "{name} is not in PER_LAYER"
            );
        }
    }

    #[test]
    fn driver_line_has_exactly_the_contract_keys() {
        let r = RunResult {
            workload: "w".into(),
            seed: 1,
            traced: false,
            comparable: true,
            ops_attempted: 5,
            ops_failed: 0,
            digest: 1,
            inputs: 2,
            passes: 3,
            wall_raw: Summary::exact(1.5),
            setup_raw: Summary::exact(1.5),
            speed: Sample {
                ticks: 3,
                seconds: 3.0 * TICK_NOMINAL_S,
            },
            end_to_end: END_TO_END
                .iter()
                .map(|d| (d, Summary::exact(1.5)))
                .collect(),
            per_layer: Metrics::new(),
            failures: vec![],
        };
        let v = Json::parse(&r.driver_line()).unwrap();
        let keys: Vec<_> = v
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = v.get("metrics").unwrap().as_obj().unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(v.get("correct").unwrap().as_bool(), Some(true));
        let traced = RunResult { traced: true, ..r };
        let v = Json::parse(&traced.driver_line()).unwrap();
        let metrics = v.get("metrics").unwrap().as_obj().unwrap();
        assert_eq!(metrics.len(), PER_LAYER.len());
        assert!(Json::parse(&traced.to_json().render()).is_ok());
    }
}
