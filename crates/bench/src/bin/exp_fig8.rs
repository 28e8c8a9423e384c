//! EXP-F8 — Figure 8: the real Lyon platform.
//!
//! Twenty workers (five per machine group), B = 8000 × 320000, in the
//! August-2007 configuration (all 1 GB, nearly homogeneous) and the
//! November-2006 one (ten nodes still at 256 MB — memory-heterogeneous).
//! Uniform flags: `--smoke` (smaller B), `--json <path>`, `--threads
//! <n>` (the two configurations run concurrently).

use stargemm_bench::{emit_figure, fig8_grid, instances_to_json, obs, write_json, Cli, Instance};

fn main() {
    let cli = Cli::parse();
    let grid = fig8_grid(&cli);
    let instances = Instance::run_grid(&grid, cli.threads);
    emit_figure(
        "fig8",
        "Figure 8. Real platform (Lyon cluster).",
        &instances,
        |i| i.platform_name.clone(),
    );
    for inst in &instances {
        for r in &inst.results {
            if let Some(s) = &r.stats {
                println!(
                    "{:<14} {:<7} makespan {:>8.1}s, {} workers enrolled",
                    inst.platform_name,
                    r.algorithm.name(),
                    s.makespan,
                    s.enrolled()
                );
            }
        }
    }
    if let Some(path) = &cli.json {
        write_json(path, &instances_to_json("fig8", &instances));
    }
    let (p, j) = &grid[0];
    obs::emit_artifacts(&cli, || {
        obs::gemm_cell(p, j, stargemm_core::algorithms::Algorithm::Het)
    });
}
