//! Uniform command-line handling for the experiments.
//!
//! Every experiment row (`exp <id>`) and the `sanity` and `exp_perf`
//! binaries accept the same flags instead of growing their own ad-hoc
//! parser:
//!
//! * `--smoke` — shrink the instance to CI size (rows without a smaller
//!   instance simply ignore it);
//! * `--json <path>` — also write machine-readable results to `path`;
//! * `--threads <n>` — worker threads for the row's sweep
//!   (default: all available cores; `--threads 1` forces a serial run);
//! * `--trace-out <path>` — write a Perfetto/Chrome `trace_event` JSON
//!   of the row's traced cell to `path`: the log of the run the sweep
//!   performs anyway, so the artifact is thread-count independent;
//! * `--attr-out <path>` — write the folded flamegraph stacks of the
//!   same cell's makespan attribution to `path`.
//!
//! The last two mean something only where a row has a traced cell;
//! anywhere else they are usage errors ([`Cli::untraced`]). A flag only
//! one program honours is that program's to parse (`exp attr --diff`,
//! `exp_perf`'s two baseline flags); everywhere else it is unknown.
//!
//! ```sh
//! cargo run --release -p stargemm-bench --bin exp -- dynamic --smoke --threads 2
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
    /// Where to write a Perfetto trace of the traced cell's run.
    pub trace_out: Option<PathBuf>,
    /// Where to write folded attribution stacks of the same run.
    pub attr_out: Option<PathBuf>,
}

impl Cli {
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

    /// `self`, or a usage error naming `--trace-out` or `--attr-out`
    /// when either is set: for a program with no traced cell, where the
    /// flag would write nothing.
    pub fn untraced(self) -> Result<Cli, String> {
        for (flag, path) in [
            ("--trace-out", &self.trace_out),
            ("--attr-out", &self.attr_out),
        ] {
            if path.is_some() {
                return Err(format!(
                    "{flag} is not accepted here: this experiment has no traced cell"
                ));
            }
        }
        Ok(self)
    }
}

/// Prints `error` and the usage line, and exits with status 2 — the
/// one outcome of a malformed command line.
pub fn usage_exit(error: &str, usage: &str) -> ! {
    eprintln!("error: {error}");
    eprintln!("usage: {usage}");
    std::process::exit(2);
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

    /// Only `exp_perf` honours the baseline flags and only `exp attr`
    /// the `--diff` mode, and each takes them off the list before the
    /// common parse: anywhere else they would be ignored silently, so
    /// they are unknown flags.
    #[test]
    fn baseline_flags_are_not_common_flags() {
        for flag in ["--kernel-baseline", "--net-baseline", "--diff"] {
            let err = Cli::from_args(&strs(&[flag, "k.json"])).unwrap_err();
            assert!(err.contains(flag), "{err}");
        }
    }

    #[test]
    fn untraced_programs_reject_the_artifact_flags_by_name() {
        for flag in ["--trace-out", "--attr-out"] {
            let cli = Cli::from_args(&strs(&["--smoke", flag, "x"])).unwrap();
            let err = cli.untraced().unwrap_err();
            assert!(err.contains(flag), "{err}");
        }
        assert!(Cli::from_args(&strs(&["--smoke"]))
            .unwrap()
            .untraced()
            .is_ok());
    }

    #[test]
    fn negative_thread_counts_are_rejected() {
        // "-2" parses as no usize; the message points at the flag.
        let err = Cli::from_args(&strs(&["--threads", "-2"])).unwrap_err();
        assert!(err.contains("--threads"), "{err}");
    }
}
