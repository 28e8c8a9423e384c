//! Uniform command-line handling for the `exp_*` experiment binaries.
//!
//! Every experiment accepts the same flags instead of growing its own
//! ad-hoc parser:
//!
//! * `--smoke` — shrink the instance to CI size (binaries without a
//!   smaller instance simply ignore it);
//! * `--json <path>` — also write machine-readable results to `path`;
//! * `--threads <n>` — worker threads for the sweep runner
//!   (default: all available cores; `--threads 1` forces a serial run);
//! * `--trace-out <path>` — write a Perfetto/Chrome `trace_event` JSON
//!   of a representative cell to `path` (re-run serially under a
//!   recorder, so the artifact is thread-count independent);
//! * `--attr-out <path>` — write the folded flamegraph stacks of the
//!   same representative cell's makespan attribution to `path`
//!   (mirrors `--trace-out`: serial re-run, thread-count independent).
//!
//! A flag only one binary honours is that binary's to parse (`exp_perf`
//! splits off its two baseline flags before calling
//! [`Cli::from_args`]); every other binary rejects it as unknown.
//!
//! ```sh
//! cargo run --release -p stargemm-bench --bin exp_dynamic -- --smoke --threads 2
//! ```

use std::path::PathBuf;

/// The common flags, for usage lines.
pub const USAGE: &str =
    "[--smoke] [--json <path>] [--threads <n>] [--trace-out <path>] [--attr-out <path>]";

/// Parsed common flags.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Cli {
    /// Run the CI-sized instance.
    pub smoke: bool,
    /// Where to write machine-readable results, when requested.
    pub json: Option<PathBuf>,
    /// Worker threads for sweep fan-out (≥ 1).
    pub threads: usize,
    /// Where to write a Perfetto trace of a representative run.
    pub trace_out: Option<PathBuf>,
    /// Where to write folded attribution stacks of a representative run.
    pub attr_out: Option<PathBuf>,
}

impl Cli {
    /// Parses the process arguments; prints the error and exits with
    /// status 2 on a malformed or unknown flag.
    pub fn parse() -> Cli {
        let args: Vec<String> = std::env::args().skip(1).collect();
        match Cli::from_args(&args) {
            Ok(cli) => cli,
            Err(e) => {
                eprintln!("error: {e}");
                eprintln!("usage: {USAGE}");
                std::process::exit(2);
            }
        }
    }

    /// Parses a raw argument list (no program name).
    pub fn from_args(args: &[String]) -> Result<Cli, String> {
        let mut cli = Cli {
            smoke: false,
            json: None,
            threads: default_threads(),
            trace_out: None,
            attr_out: None,
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--smoke" => cli.smoke = true,
                "--json" => {
                    cli.json = Some(PathBuf::from(flag_value(&mut it, "--json", "path")?));
                }
                "--trace-out" => {
                    cli.trace_out =
                        Some(PathBuf::from(flag_value(&mut it, "--trace-out", "path")?));
                }
                "--attr-out" => {
                    cli.attr_out = Some(PathBuf::from(flag_value(&mut it, "--attr-out", "path")?));
                }
                "--threads" => {
                    let n = flag_value(&mut it, "--threads", "count")?;
                    let n: usize = n
                        .parse()
                        .map_err(|_| format!("--threads needs a number, got {n:?}"))?;
                    if n == 0 {
                        return Err("--threads must be at least 1".into());
                    }
                    cli.threads = n;
                }
                other => {
                    return Err(format!(
                        "unknown argument {other:?} \
                         (valid flags: --smoke, --json <path>, --threads <n>, \
                         --trace-out <path>, --attr-out <path>)"
                    ))
                }
            }
        }
        Ok(cli)
    }
}

/// Takes the value of `flag` off `it`, failing with "`flag` needs a
/// `what` argument" when there is none. A value must not itself look
/// like a flag: `--json --threads` is a forgotten path, not a file named
/// "--threads".
pub fn flag_value<'a>(
    it: &mut std::slice::Iter<'a, String>,
    flag: &str,
    what: &str,
) -> Result<&'a str, String> {
    match it.clone().next() {
        Some(v) if !v.starts_with("--") => {
            it.next();
            Ok(v)
        }
        _ => Err(format!("{flag} needs a {what} argument")),
    }
}

/// The default sweep width: every available core.
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn defaults_are_full_size_serial_free() {
        let cli = Cli::from_args(&[]).unwrap();
        assert!(!cli.smoke);
        assert_eq!(cli.json, None);
        assert_eq!(cli.trace_out, None);
        assert_eq!(cli.attr_out, None);
        assert!(cli.threads >= 1);
    }

    #[test]
    fn all_flags_parse_in_any_order() {
        let cli = Cli::from_args(&strs(&[
            "--threads",
            "3",
            "--smoke",
            "--trace-out",
            "t.json",
            "--attr-out",
            "a.folded",
            "--json",
            "o.json",
        ]))
        .unwrap();
        assert!(cli.smoke);
        assert_eq!(cli.json, Some(PathBuf::from("o.json")));
        assert_eq!(cli.trace_out, Some(PathBuf::from("t.json")));
        assert_eq!(cli.attr_out, Some(PathBuf::from("a.folded")));
        assert_eq!(cli.threads, 3);
    }

    #[test]
    fn malformed_flags_are_rejected() {
        assert!(Cli::from_args(&strs(&["--json"])).is_err());
        assert!(Cli::from_args(&strs(&["--threads"])).is_err());
        assert!(Cli::from_args(&strs(&["--threads", "zero"])).is_err());
        assert!(Cli::from_args(&strs(&["--threads", "0"])).is_err());
        assert!(Cli::from_args(&strs(&["--trace-out"])).is_err());
        assert!(Cli::from_args(&strs(&["--trace-out", "--smoke"])).is_err());
        assert!(Cli::from_args(&strs(&["--attr-out"])).is_err());
        assert!(Cli::from_args(&strs(&["--attr-out", "--smoke"])).is_err());
        assert!(Cli::from_args(&strs(&["--frobnicate"])).is_err());
    }

    #[test]
    fn a_flag_is_never_swallowed_as_a_value() {
        // Regression: `--json --smoke` used to accept "--smoke" as the
        // output path (and silently drop the smoke request).
        let err = Cli::from_args(&strs(&["--json", "--smoke"])).unwrap_err();
        assert!(err.contains("--json needs a path"), "{err}");
        let err = Cli::from_args(&strs(&["--threads", "--json", "x"])).unwrap_err();
        assert!(err.contains("--threads needs a count"), "{err}");
    }

    #[test]
    fn error_messages_name_the_offender_and_the_valid_flags() {
        let err = Cli::from_args(&strs(&["--frobnicate"])).unwrap_err();
        assert!(err.contains("--frobnicate"), "{err}");
        assert!(err.contains("--smoke"), "{err}");
        assert!(err.contains("--threads"), "{err}");
        assert!(err.contains("--attr-out"), "{err}");
        let err = Cli::from_args(&strs(&["--threads", "0"])).unwrap_err();
        assert!(err.contains("at least 1"), "{err}");
        let err = Cli::from_args(&strs(&["--threads", "three"])).unwrap_err();
        assert!(err.contains("needs a number"), "{err}");
    }

    /// Only `exp_perf` honours the baseline flags, and it takes them
    /// off the list before the common parse: anywhere else a baseline
    /// would be ignored silently, so it is an unknown flag.
    #[test]
    fn baseline_flags_are_not_common_flags() {
        for flag in ["--kernel-baseline", "--net-baseline"] {
            let err = Cli::from_args(&strs(&[flag, "k.json"])).unwrap_err();
            assert!(err.contains(flag), "{err}");
        }
    }

    #[test]
    fn negative_thread_counts_are_rejected() {
        // "-2" parses as no usize; the message points at the flag.
        let err = Cli::from_args(&strs(&["--threads", "-2"])).unwrap_err();
        assert!(err.contains("--threads"), "{err}");
    }
}
