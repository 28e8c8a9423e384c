//! Negative paths of the command lines. The `stargemm` front end: a bad
//! number or algorithm name is a usage error (exit code 2, a message
//! naming the flag and the value), never a panic and never a silent
//! fall-back to the default. The experiments (`exp <id>`, `sanity`,
//! `exp_perf`): a flag that would do nothing is a usage error naming it,
//! and an output path that cannot be written exits 1 naming the path,
//! never with a panic.

use std::process::{Command, Output};

/// Runs `exe args` in a fresh scratch directory (experiments write
/// `results/*` into their cwd).
fn run_in_scratch(exe: &str, args: &[&str], tag: &str) -> Output {
    let scratch = std::env::temp_dir().join(format!("stargemm-cli-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&scratch).expect("scratch dir");
    let out = Command::new(exe)
        .args(args)
        .current_dir(&scratch)
        .output()
        .unwrap_or_else(|e| panic!("cannot launch {exe}: {e}"));
    let _ = std::fs::remove_dir_all(&scratch);
    out
}

/// `exe args` exits with `code`, its stderr's first line names `needle`,
/// and nothing panicked.
fn assert_fails(exe: &str, args: &[&str], code: i32, needle: &str) {
    let tag = args.join("_").replace('/', "-");
    let out = run_in_scratch(exe, args, &tag);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(code), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    let first = stderr
        .lines()
        .find(|l| !l.starts_with('('))
        .unwrap_or_default();
    assert!(
        first.contains(needle),
        "{args:?}: expected {needle:?} in {first:?}"
    );
}

#[test]
fn an_unwritable_output_path_exits_1_naming_it() {
    let exp = env!("CARGO_BIN_EXE_exp");
    for args in [
        ["table1", "--smoke", "--json", "/dev/null/x.json"],
        ["fig7", "--smoke", "--trace-out", "/dev/null/t.json"],
        ["table2", "--smoke", "--attr-out", "/dev/null/a.folded"],
    ] {
        assert_fails(exp, &args, 1, &format!("cannot write {}", args[3]));
    }
}

#[test]
fn artifact_flags_without_a_traced_cell_are_usage_errors() {
    let exp = env!("CARGO_BIN_EXE_exp");
    for id in ["table1", "bounds", "ablation"] {
        for flag in ["--trace-out", "--attr-out"] {
            assert_fails(exp, &[id, "--smoke", flag, "x.out"], 2, flag);
        }
    }
    assert_fails(
        env!("CARGO_BIN_EXE_sanity"),
        &["--trace-out", "x"],
        2,
        "--trace-out",
    );
    assert_fails(
        env!("CARGO_BIN_EXE_exp_perf"),
        &["--attr-out", "x"],
        2,
        "--attr-out",
    );
}

#[test]
fn diff_parses_only_on_attr() {
    let exp = env!("CARGO_BIN_EXE_exp");
    for id in ["table1", "fig7", "dynamic"] {
        assert_fails(exp, &[id, "--diff", "a.json", "b.json"], 2, "--diff");
    }
    // On `attr` it is the diff mode: it reads the two files.
    assert_fails(
        exp,
        &["attr", "--diff", "a.json", "b.json"],
        1,
        "cannot read a.json",
    );
    assert_fails(exp, &["attr", "--diff", "a.json"], 2, "--diff");
}

#[test]
fn diff_refuses_an_attribution_block_it_cannot_read() {
    let dir = std::env::temp_dir().join(format!("stargemm-cli-{}-garbage", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let (a, b) = (dir.join("a.json"), dir.join("b.json"));
    std::fs::write(&a, r#"{"cells":[{"attribution":{"makespan":"NaN"}}]}"#).expect("a.json");
    std::fs::write(&b, r#"{"cells":[{"attribution":{"makespan":1179.648}}]}"#).expect("b.json");
    let (a, b) = (a.to_string_lossy(), b.to_string_lossy());
    let needle = format!("{a}: $.cells[0].attribution.makespan is not a number");
    assert_fails(
        env!("CARGO_BIN_EXE_exp"),
        &["attr", "--diff", &a, &b],
        1,
        &needle,
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_unknown_or_missing_experiment_is_a_usage_error() {
    let exp = env!("CARGO_BIN_EXE_exp");
    assert_fails(exp, &["exp_fig7", "--smoke"], 2, "exp_fig7");
    assert_fails(exp, &[], 2, "which experiment");
}

#[test]
fn bad_numbers_exit_2_naming_the_flag_and_the_value() {
    let cases: [(&[&str], &str, &str); 8] = [
        // Not a multiple of q = 80: used to trip `Job::from_scalar_dims`' assert.
        (
            &[
                "run",
                "--alg",
                "het",
                "--platform",
                "fully-het-4",
                "--nb",
                "100",
            ],
            "--nb",
            "100",
        ),
        // Not numbers: used to run the default silently.
        (&["run", "--alg", "het", "--nb", "abc"], "--nb", "abc"),
        (&["bounds", "--t", "1e3"], "--t", "1e3"),
        (&["lu", "--n", "-3"], "--n", "-3"),
        // Empty matrices: used to trip asserts in `core::bounds` / `core::lu`.
        (&["bounds", "--t", "0"], "--t", "0"),
        (&["lu", "--n", "0"], "--n", "0"),
        // Not an algorithm: used to run `Het` silently.
        (&["lu", "--alg", "bogus"], "--alg", "bogus"),
        // Not an algorithm: used to say only that `run` needs one.
        (&["run", "--alg", "bogus"], "--alg", "bogus"),
    ];
    for (args, flag, value) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_stargemm"))
            .args(args)
            .output()
            .expect("stargemm launches");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        let first = stderr.lines().next().unwrap_or_default();
        assert!(
            first.contains(flag) && first.contains(value),
            "{args:?}: message must name {flag} and {value:?}, got {first:?}"
        );
        assert!(out.stdout.is_empty(), "{args:?} must not run anything");
    }
}

#[test]
fn good_numbers_still_run() {
    let out = Command::new(env!("CARGO_BIN_EXE_stargemm"))
        .args([
            "run",
            "--alg",
            "het",
            "--platform",
            "fully-het-4",
            "--nb",
            "8000",
        ])
        .output()
        .expect("stargemm launches");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("Het on"));
}
