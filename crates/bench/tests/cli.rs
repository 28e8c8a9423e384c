//! Negative paths of the `stargemm` front end: a bad number is a usage
//! error (exit code 2, a message naming the flag and the value), never
//! a panic and never a silent fall-back to the default.

use std::process::Command;

#[test]
fn bad_numbers_exit_2_naming_the_flag_and_the_value() {
    let cases: [(&[&str], &str, &str); 6] = [
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
