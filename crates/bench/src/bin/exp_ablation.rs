//! EXP-AB — ablations of the design choices the paper fixes without
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

use serde::Serialize;
use stargemm_bench::{parallel_map, write_json, write_results, Cli};
use stargemm_core::geometry::{carve_strip_rect, PlannedChunk};
use stargemm_core::layout::{mu_with_window, rect_sides};
use stargemm_core::select_het::{het_policy, SelectionVariant};
use stargemm_core::stream::{Serving, StreamingMaster};
use stargemm_core::Job;
use stargemm_obs::analyze;
use stargemm_platform::{presets, Platform};
use stargemm_sim::Simulator;

/// Round-robin rectangular static queues over all fitting workers.
fn rect_queues(
    job: &Job,
    platform: &Platform,
    sides: impl Fn(usize) -> (usize, usize),
) -> Vec<Vec<PlannedChunk>> {
    let p = platform.len();
    let mut queues = vec![Vec::new(); p];
    let mut col = 0;
    let mut id = 0;
    let mut turn = 0usize;
    loop {
        let w = turn % p;
        turn += 1;
        let (h, ww) = sides(w);
        if h == 0 || ww == 0 {
            if turn > p && col == 0 {
                panic!("no worker fits");
            }
            continue;
        }
        match carve_strip_rect(job, w, h, ww, 1, &mut col, &mut id) {
            Some(strip) => queues[w].extend(strip),
            None => break,
        }
    }
    queues
}

fn simulate(platform: &Platform, policy: &mut StreamingMaster) -> (f64, f64, f64) {
    let (stats, events) = stargemm_bench::obs::record_with(|obs| {
        Simulator::new(platform.clone()).run_observed(policy, obs)
    });
    let stats = stats.unwrap();
    let a = analyze(&events, platform.len());
    (stats.makespan, stats.ccr(), a.overlap_fraction)
}

fn main() {
    let cli = Cli::parse();
    let platform = presets::het_memory();
    let job = Job::paper(if cli.smoke { 16_000 } else { 80_000 });
    let mut out = String::new();

    out.push_str("Ablation 1: lookahead window (ODDOML-style RR assignment)\n");
    out.push_str(&format!(
        "{:>7} {:>12} {:>9} {:>14}\n",
        "window", "makespan", "CCR", "overlap frac"
    ));
    for window in [1u32, 2, 4] {
        let sides = |w: usize| {
            let mu = mu_with_window(platform.worker(w).m, window as usize).min(job.r);
            (mu, mu)
        };
        let queues = rect_queues(&job, &platform, sides);
        let mut policy = StreamingMaster::new_static(
            "ablate-window",
            job,
            queues,
            Serving::DemandDriven,
            window,
        );
        let (mk, ccr, ov) = simulate(&platform, &mut policy);
        out.push_str(&format!(
            "{:>7} {:>11.1}s {:>9.4} {:>14.3}\n",
            window, mk, ccr, ov
        ));
    }

    out.push_str("\nAblation 2: chunk shape at equal memory (window 2)\n");
    out.push_str(&format!(
        "{:>10} {:>12} {:>9}\n",
        "shape", "makespan", "CCR"
    ));
    for (label, ah, aw) in [
        ("square", 1usize, 1usize),
        ("flat 1:4", 1, 4),
        ("tall 4:1", 4, 1),
    ] {
        let sides = |w: usize| {
            let (h, ww) = rect_sides(platform.worker(w).m, ah, aw);
            (h.min(job.r), ww)
        };
        let queues = rect_queues(&job, &platform, sides);
        let mut policy =
            StreamingMaster::new_static("ablate-shape", job, queues, Serving::DemandDriven, 2);
        let (mk, ccr, _) = simulate(&platform, &mut policy);
        out.push_str(&format!("{:>10} {:>11.1}s {:>9.4}\n", label, mk, ccr));
    }

    out.push_str("\nAblation 3: serving discipline on the identical assignment\n");
    for serving in [Serving::RoundRobin, Serving::DemandDriven] {
        let sides = |w: usize| {
            let mu = mu_with_window(platform.worker(w).m, 2).min(job.r);
            (mu, mu)
        };
        let queues = rect_queues(&job, &platform, sides);
        let mut policy = StreamingMaster::new_static("ablate-serving", job, queues, serving, 2);
        let (mk, _, ov) = simulate(&platform, &mut policy);
        out.push_str(&format!(
            "  {:?}: makespan {:.1}s, overlap fraction {:.3}\n",
            serving, mk, ov
        ));
    }

    out.push_str("\nAblation 4: the eight Het selection variants (fully-het ratio 4)\n");
    let p4 = presets::fully_het(4.0);
    let variants = SelectionVariant::all();
    let variant_stats = parallel_map(cli.threads, &variants, |_, v| {
        let mut policy = het_policy(&p4, &job, *v);
        Simulator::new(p4.clone()).run(&mut policy).unwrap()
    });
    for (v, stats) in variants.iter().zip(&variant_stats) {
        out.push_str(&format!(
            "  {:<12} makespan {:>8.1}s, enrolled {}\n",
            v.label(),
            stats.makespan,
            stats.enrolled()
        ));
    }

    print!("{out}");
    if let Ok(p) = write_results("exp_ablation.txt", &out) {
        eprintln!("(written to {})", p.display());
    }
    if let Some(path) = &cli.json {
        let json = serde::json::Value::object([
            ("experiment", "ablation".to_value()),
            ("report", out.to_value()),
        ])
        .render_pretty();
        write_json(path, &json);
    }
    // The ablation baseline cell: Het on the memory-het platform.
    stargemm_bench::obs::emit_artifacts(&cli, || {
        stargemm_bench::obs::gemm_cell(&platform, &job, stargemm_core::algorithms::Algorithm::Het)
    });
}
