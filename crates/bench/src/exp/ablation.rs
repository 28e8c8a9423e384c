//! The `ablation` row: the design choices the paper fixes without
//! measurement.
//!
//! 1. **Lookahead window** — 1 (no overlap, `μ²+2μ`), 2 (the paper's
//!    double-buffered `μ²+4μ`), 4 (deeper buffering, smaller μ). The
//!    paper asserts double buffering suffices; quantify it.
//! 2. **Chunk shape** — square `μ × μ` vs flat `μ/2 × 2μ` vs tall
//!    `2μ × μ/2` of the same area (Section 3: "squares are better than
//!    elongated rectangles because their perimeter is smaller for the
//!    same area").
//! 3. **Serving discipline** — strict round-robin (Algorithm 1's order)
//!    vs demand-driven, on the same chunk assignment.
//! 4. **C-cost accounting in Het's selection** — measured per variant.
//!
//! Every probe is one cell of one sweep.

use serde::json::Value;
use serde::Serialize;
use stargemm_core::assign::round_robin_queues;
use stargemm_core::layout::{mu_with_window, rect_sides};
use stargemm_core::select_het::{het_policy, SelectionVariant};
use stargemm_core::stream::{Serving, StreamingMaster};
use stargemm_core::Job;
use stargemm_obs::Attribution;
use stargemm_platform::{presets, Platform};
use stargemm_sim::{RunStats, Simulator};

use super::{Report, Sweep};
use crate::obs::record_if;
use crate::Cli;

const WINDOWS: [u32; 3] = [1, 2, 4];
const SHAPES: [(&str, usize, usize); 3] =
    [("square", 1, 1), ("flat 1:4", 1, 4), ("tall 4:1", 4, 1)];
const SERVINGS: [Serving; 2] = [Serving::RoundRobin, Serving::DemandDriven];

/// One ablation cell: a policy built on the memory-heterogeneous
/// platform, or a Het selection variant on the ratio-4 one.
enum Probe {
    Window(u32),
    Shape(usize, usize),
    Serving(Serving),
    Variant(SelectionVariant),
}

/// Runs one probe: its stats and, for the window and serving probes
/// (the ones whose overlap is reported), the fraction of port-busy time
/// overlapped by compute, attributed from the run's recorded log.
fn run_probe(
    probe: &Probe,
    job: Job,
    het_memory: &Platform,
    ratio4: &Platform,
) -> (RunStats, Option<f64>) {
    let p = het_memory.len();
    let square = |window: usize| -> Vec<usize> {
        let workers = het_memory.workers().iter();
        workers
            .map(|s| mu_with_window(s.m, window).min(job.r))
            .collect()
    };
    let static_master = |name, queues, serving, window| {
        StreamingMaster::new_static(name, job, queues, serving, window)
    };
    let (platform, mut policy) = match *probe {
        Probe::Window(window) => {
            let queues = round_robin_queues(&job, p, 0..p, &square(window as usize), &mut 0);
            let policy = static_master("ablate-window", queues, Serving::DemandDriven, window);
            (het_memory, policy)
        }
        Probe::Shape(ah, aw) => {
            let sides: Vec<_> = het_memory
                .workers()
                .iter()
                .map(|s| {
                    let (h, w) = rect_sides(s.m, ah, aw);
                    (h.min(job.r), w)
                })
                .collect();
            let queues = round_robin_queues(&job, p, 0..p, &sides, &mut 0);
            let policy = static_master("ablate-shape", queues, Serving::DemandDriven, 2);
            (het_memory, policy)
        }
        Probe::Serving(serving) => {
            let queues = round_robin_queues(&job, p, 0..p, &square(2), &mut 0);
            (
                het_memory,
                static_master("ablate-serving", queues, serving, 2),
            )
        }
        Probe::Variant(v) => (ratio4, het_policy(ratio4, &job, v)),
    };
    let log = matches!(probe, Probe::Window(_) | Probe::Serving(_));
    let (stats, events) = record_if(log, |obs| {
        Simulator::new(platform.clone()).run_observed(&mut policy, obs)
    });
    let stats = stats.expect("every ablation probe runs");
    let overlap = events.map(|ev| Attribution::from_events(&ev, stats.makespan).overlap_fraction());
    (stats, overlap)
}

/// The four ablations as one report; the `--json` document carries the
/// report text.
pub fn ablation(cli: &Cli, sweep: &mut Sweep) -> Report {
    let het_memory = presets::het_memory();
    let ratio4 = presets::fully_het(4.0);
    let job = Job::paper(if cli.smoke { 16_000 } else { 80_000 });
    let variants = SelectionVariant::all();
    let probes: Vec<Probe> = (WINDOWS.map(Probe::Window).into_iter())
        .chain(SHAPES.map(|(_, ah, aw)| Probe::Shape(ah, aw)))
        .chain(SERVINGS.map(Probe::Serving))
        .chain(variants.map(Probe::Variant))
        .collect();
    let runs = sweep.run(&probes, |p| run_probe(p, job, &het_memory, &ratio4));
    let mut runs = runs.iter();

    let mut out = String::new();
    out.push_str("Ablation 1: lookahead window (ODDOML-style RR assignment)\n");
    out.push_str(&format!(
        "{:>7} {:>12} {:>9} {:>14}\n",
        "window", "makespan", "CCR", "overlap frac"
    ));
    for (window, (stats, ov)) in WINDOWS.iter().zip(&mut runs) {
        out.push_str(&format!(
            "{:>7} {:>11.1}s {:>9.4} {:>14.3}\n",
            window,
            stats.makespan,
            stats.ccr(),
            ov.expect("a window probe records its log")
        ));
    }

    out.push_str("\nAblation 2: chunk shape at equal memory (window 2)\n");
    out.push_str(&format!(
        "{:>10} {:>12} {:>9}\n",
        "shape", "makespan", "CCR"
    ));
    for ((label, _, _), (stats, _)) in SHAPES.iter().zip(&mut runs) {
        out.push_str(&format!(
            "{:>10} {:>11.1}s {:>9.4}\n",
            label,
            stats.makespan,
            stats.ccr()
        ));
    }

    out.push_str("\nAblation 3: serving discipline on the identical assignment\n");
    for (serving, (stats, ov)) in SERVINGS.iter().zip(&mut runs) {
        out.push_str(&format!(
            "  {:?}: makespan {:.1}s, overlap fraction {:.3}\n",
            serving,
            stats.makespan,
            ov.expect("a serving probe records its log")
        ));
    }

    out.push_str("\nAblation 4: the eight Het selection variants (fully-het ratio 4)\n");
    for (v, (stats, _)) in variants.iter().zip(&mut runs) {
        out.push_str(&format!(
            "  {:<12} makespan {:>8.1}s, enrolled {}\n",
            v.label(),
            stats.makespan,
            stats.enrolled()
        ));
    }

    let json = Value::object([
        ("experiment", "ablation".to_value()),
        ("report", out.to_value()),
    ]);
    Report::table("exp_ablation.txt", out, json.render_pretty())
}
