//! `stargemm` — command-line front end.
//!
//! ```text
//! stargemm compare  [--platform NAME] [--nb SCALARS]   run all 7 algorithms
//! stargemm run      --alg NAME [--platform NAME] [--nb SCALARS]
//! stargemm bounds   [--t T]                            Section 3 bound table
//! stargemm steady   [--platform NAME]                  bandwidth-centric solution
//! stargemm platforms                                   list platform presets
//! stargemm lu       [--n BLOCKS] [--alg NAME]          LU schedule report
//! ```
//!
//! Platforms: homogeneous, het-memory, het-comm, het-comp, fully-het-2,
//! fully-het-4, lyon-aug2007, lyon-nov2006, `random-<seed>`.

use std::process::ExitCode;

use stargemm_core::algorithms::{run_algorithm, Algorithm};
use stargemm_core::bounds::{ccr_lower_bound, maxreuse_ccr, toledo_ccr_asymptotic};
use stargemm_core::lu::schedule_lu;
use stargemm_core::steady::bandwidth_centric;
use stargemm_core::Job;
use stargemm_platform::random::{random_platform, RandomPlatformConfig};
use stargemm_platform::{presets, Platform};

fn parse_platform(name: &str) -> Option<Platform> {
    Some(match name {
        "homogeneous" => presets::homogeneous(8),
        "het-memory" => presets::het_memory(),
        "het-comm" => presets::het_comm(),
        "het-comp" => presets::het_comp(),
        "fully-het-2" => presets::fully_het(2.0),
        "fully-het-4" => presets::fully_het(4.0),
        "lyon-aug2007" => presets::lyon(true),
        "lyon-nov2006" => presets::lyon(false),
        other => {
            let seed: u64 = other.strip_prefix("random-")?.parse().ok()?;
            use rand::rngs::StdRng;
            use rand::SeedableRng;
            let mut rng = StdRng::seed_from_u64(seed);
            random_platform(RandomPlatformConfig::default(), other.to_string(), &mut rng)
        }
    })
}

fn parse_alg(name: &str) -> Option<Algorithm> {
    Algorithm::all()
        .into_iter()
        .find(|a| a.name().eq_ignore_ascii_case(name))
}

/// Minimal `--key value` option scanner.
struct Opts(Vec<String>);

impl Opts {
    fn get(&self, key: &str) -> Option<&str> {
        self.0
            .iter()
            .position(|a| a == key)
            .and_then(|i| self.0.get(i + 1))
            .map(String::as_str)
    }

    /// A count option: `default` when absent, an error naming the flag
    /// and the offending value when present but not a positive integer
    /// (every count the CLI takes sizes a matrix, and none may be empty).
    fn positive(&self, key: &str, default: usize) -> Result<usize, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => match v.parse() {
                Ok(n) if n > 0 => Ok(n),
                _ => Err(format!("{key} needs a positive integer, got {v:?}")),
            },
        }
    }
}

/// Reports a bad option value, then the usage; exit code 2.
fn bad_option(message: String) -> ExitCode {
    eprintln!("error: {message}");
    usage()
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: stargemm <compare|run|bounds|steady|platforms|lu> [options]\n\
         \n\
         compare  [--platform NAME] [--nb N]   all 7 algorithms on one instance\n\
         run      --alg ALG [--platform NAME] [--nb N]\n\
         bounds   [--t T]\n\
         steady   [--platform NAME]\n\
         platforms\n\
         lu       [--n BLOCKS] [--alg ALG] [--platform NAME]\n\
         \n\
         ALG ∈ {{Hom, HomI, Het, ORROML, OMMOML, ODDOML, BMM}};\n\
         NAME ∈ {{homogeneous, het-memory, het-comm, het-comp, fully-het-2,\n\
                  fully-het-4, lyon-aug2007, lyon-nov2006, random-<seed>}}"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first().cloned() else {
        return usage();
    };
    let opts = Opts(args[1..].to_vec());
    let platform = if let Some(path) = opts.get("--platform-file") {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        match stargemm_platform::parse::parse_platform(path, &text, 80) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("cannot parse {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        match parse_platform(opts.get("--platform").unwrap_or("het-memory")) {
            Some(p) => p,
            None => {
                eprintln!("unknown platform");
                return usage();
            }
        }
    };
    let nb = match opts.positive("--nb", 80_000) {
        // `Job::paper` cuts B into q = 80 blocks and asserts it can.
        Ok(nb) if nb % 80 != 0 => {
            return bad_option(format!("--nb must be a multiple of q = 80, got {nb}"));
        }
        Ok(nb) => nb,
        Err(e) => return bad_option(e),
    };
    let job = Job::paper(nb);

    match cmd.as_str() {
        "compare" => {
            println!("platform {}, B = 8000×{nb}", platform.name);
            println!(
                "{:<8} {:>12} {:>9} {:>12} {:>8}",
                "policy", "makespan", "enrolled", "work", "CCR"
            );
            for alg in Algorithm::all() {
                match run_algorithm(&platform, &job, alg) {
                    Ok(s) => println!(
                        "{:<8} {:>11.1}s {:>9} {:>12.1} {:>8.4}",
                        alg.name(),
                        s.makespan,
                        s.enrolled(),
                        s.work(),
                        s.ccr()
                    ),
                    Err(e) => println!("{:<8} error: {e}", alg.name()),
                }
            }
            ExitCode::SUCCESS
        }
        "run" => {
            let Some(alg) = opts.get("--alg").and_then(parse_alg) else {
                eprintln!("run needs --alg");
                return usage();
            };
            match run_algorithm(&platform, &job, alg) {
                Ok(s) => {
                    println!(
                        "{} on {}: makespan {:.1}s, {} workers, {} blocks out, \
                         {} blocks back, CCR {:.4}",
                        alg.name(),
                        platform.name,
                        s.makespan,
                        s.enrolled(),
                        s.blocks_to_workers,
                        s.blocks_to_master,
                        s.ccr()
                    );
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        "bounds" => {
            let t = match opts.positive("--t", 100) {
                Ok(t) => t,
                Err(e) => return bad_option(e),
            };
            println!(
                "{:>8} {:>12} {:>12} {:>12}",
                "m", "bound", "maxreuse", "Toledo"
            );
            for m in [100usize, 500, 1_000, 5_000, 20_000] {
                println!(
                    "{:>8} {:>12.5} {:>12.5} {:>12.5}",
                    m,
                    ccr_lower_bound(m),
                    maxreuse_ccr(m, t),
                    toledo_ccr_asymptotic(m)
                );
            }
            ExitCode::SUCCESS
        }
        "steady" => {
            let ss = bandwidth_centric(&platform, job.r);
            println!(
                "platform {}: steady-state throughput {:.1} updates/s",
                platform.name, ss.throughput
            );
            for &w in &ss.enrolled {
                println!("  P{} at {:.2} updates/s", w + 1, ss.rates[w]);
            }
            ExitCode::SUCCESS
        }
        "platforms" => {
            for name in [
                "homogeneous",
                "het-memory",
                "het-comm",
                "het-comp",
                "fully-het-2",
                "fully-het-4",
                "lyon-aug2007",
                "lyon-nov2006",
            ] {
                let p = parse_platform(name).expect("preset");
                let (rc, rw, rm) = p.heterogeneity();
                println!(
                    "{:<14} {} workers, heterogeneity c ×{:.1} w ×{:.1} m ×{:.1}",
                    name,
                    p.len(),
                    rc,
                    rw,
                    rm
                );
            }
            ExitCode::SUCCESS
        }
        "lu" => {
            let n = match opts.positive("--n", 20) {
                Ok(n) => n,
                Err(e) => return bad_option(e),
            };
            let alg = opts
                .get("--alg")
                .and_then(parse_alg)
                .unwrap_or(Algorithm::Het);
            match schedule_lu(&platform, n, job.q, alg) {
                Ok(plan) => {
                    println!(
                        "LU of {n}×{n} blocks with {}: total {:.1}s, {:.0}% in updates",
                        plan.algorithm,
                        plan.total,
                        100.0 * plan.update_fraction()
                    );
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        _ => usage(),
    }
}
