//! Golden-snapshot tests for the experiment artifacts.
//!
//! Each test runs one experiment row (`exp <id>`) with `--smoke --json`
//! and compares the JSON byte-for-byte against the checked-in snapshot under
//! `tests/golden/` (Figure 9, whose JSON only repeats Figures 4–8's
//! instances, is pinned by its `results/fig9.txt` summary instead). The
//! artifacts are contractually independent of the build profile, the
//! thread count, and the machine (pure model time, deterministic seeds,
//! shortest-round-trip float rendering), so a mismatch means a
//! serde/CLI/model refactor silently changed published numbers —
//! regenerate the snapshot *deliberately* with
//!
//! ```sh
//! cargo run --release -p stargemm-bench --bin exp -- fig7 \
//!     --smoke --threads 1 --json crates/bench/tests/golden/exp_fig7.json
//! ```
//!
//! and explain the change in the commit message. The folded
//! flamegraph stacks a row writes with `--attr-out` are pinned the same
//! way for the `dag` and `stream` rows (`exp_<id>.folded`).

use std::process::Command;

/// Runs `exp <id> --smoke --threads 2 --json out.json <flags>` in a
/// scratch directory (rows also write `results/*` into their cwd) and
/// returns the bytes of `artifact`, a path relative to that directory.
fn run_smoke(id: &str, flags: &[&str], artifact: &str) -> Vec<u8> {
    // One directory per pinned artifact: the tests of one row run at once.
    let tag = artifact.replace('/', "-");
    let scratch =
        std::env::temp_dir().join(format!("stargemm-golden-{}-{id}-{tag}", std::process::id()));
    std::fs::create_dir_all(&scratch).expect("scratch dir");
    let status = Command::new(env!("CARGO_BIN_EXE_exp"))
        .args([id, "--smoke", "--threads", "2", "--json", "out.json"])
        .args(flags)
        .current_dir(&scratch)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .unwrap_or_else(|e| panic!("cannot launch exp {id}: {e}"));
    assert!(status.success(), "exp {id} exited with {status}");
    let bytes = std::fs::read(scratch.join(artifact)).expect("artifact written");
    let _ = std::fs::remove_dir_all(&scratch);
    bytes
}

fn assert_matches_golden(id: &str, flags: &[&str], artifact: &str, golden: &str) {
    let got = run_smoke(id, flags, artifact);
    let want = golden.as_bytes();
    if got != want {
        let got_s = String::from_utf8_lossy(&got);
        let first_diff = got_s
            .lines()
            .zip(golden.lines())
            .enumerate()
            .find(|(_, (a, b))| a != b);
        panic!(
            "{id}: {artifact} drifted from its snapshot under tests/golden/ \
             (got {} bytes, want {} bytes; first differing line: {:?})",
            got.len(),
            want.len(),
            first_diff,
        );
    }
}

/// One `#[test]` per pinned artifact: `name => row id, snapshot file,
/// the file the row writes[, extra flags]`.
macro_rules! golden {
    ($($name:ident => $id:literal, $snapshot:literal, $artifact:literal $(, $flag:literal)*;)*) => {$(
        #[test]
        fn $name() {
            let golden = include_str!(concat!("golden/", $snapshot));
            assert_matches_golden($id, &[$($flag),*], $artifact, golden);
        }
    )*};
}

golden! {
    // The paper's §6 artifacts and the §3 bounds sweep.
    exp_table1_smoke_json_is_pinned => "table1", "exp_table1.json", "out.json";
    exp_table2_smoke_json_is_pinned => "table2", "exp_table2.json", "out.json";
    exp_bounds_smoke_json_is_pinned => "bounds", "exp_bounds.json", "out.json";
    exp_fig4_smoke_json_is_pinned => "fig4", "exp_fig4.json", "out.json";
    exp_fig5_smoke_json_is_pinned => "fig5", "exp_fig5.json", "out.json";
    exp_fig6_smoke_json_is_pinned => "fig6", "exp_fig6.json", "out.json";
    exp_fig7_smoke_json_is_pinned => "fig7", "exp_fig7.json", "out.json";
    exp_fig8_smoke_json_is_pinned => "fig8", "exp_fig8.json", "out.json";
    exp_fig9_smoke_summary_is_pinned => "fig9", "exp_fig9.txt", "results/fig9.txt";
    exp_ablation_smoke_json_is_pinned => "ablation", "exp_ablation.json", "out.json";
    exp_ooc_smoke_json_is_pinned => "ooc", "exp_ooc.json", "out.json";
    // Beyond the paper. Dynamic: the adaptive master's crash recovery.
    exp_dynamic_smoke_json_is_pinned => "dynamic", "exp_dynamic.json", "out.json";
    exp_stream_smoke_json_is_pinned => "stream", "exp_stream.json", "out.json";
    // Pins the DAG-member integration: bottom-level dispatch order, the
    // DAG chunk-id namespace, and the mixed-stream deficit accounting
    // all feed these numbers.
    exp_dag_smoke_json_is_pinned => "dag", "exp_dag.json", "out.json";
    // Also pins the OnePort-through-the-trait refactor: the sweep's
    // one-port rows and the cross-engine schedule counts are exactly the
    // values the pre-netmodel engine produced.
    exp_netmodel_smoke_json_is_pinned => "netmodel", "exp_netmodel.json", "out.json";
    // Pins the federation stack end to end: root placement, the
    // multi-server uplink feed serialization, per-star MultiJobMaster
    // schedules under slot-partitioned memory, and the hierarchical LP
    // bounds (including the k = 1 collapse flag in the artifact).
    exp_fed_smoke_json_is_pinned => "fed", "exp_fed.json", "out.json";
    // The attribution battery: one conserved breakdown per engine class.
    exp_attr_smoke_json_is_pinned => "attr", "exp_attr.json", "out.json";
    // The flamegraph export of the traced cell: one frame per interval
    // and per gap category, summed per stack in integer microseconds.
    exp_dag_smoke_folded_stacks_are_pinned =>
        "dag", "exp_dag.folded", "out.folded", "--attr-out", "out.folded";
    exp_stream_smoke_folded_stacks_are_pinned =>
        "stream", "exp_stream.folded", "out.folded", "--attr-out", "out.folded";
}
