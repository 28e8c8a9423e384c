//! The experiment driver: every experiment is a row of one table
//! ([`ROWS`]), run by one binary, `exp <id>`.
//!
//! A row is its cells, a cell function, a renderer, and the index of its
//! traced cell if it has one: the row's function builds the cells from
//! the [`Cli`], runs them through the [`Sweep`] it is handed, and renders
//! a [`Report`]. The driver alone does the rest — it parses the flags,
//! fans the cells out with [`parallel_map`], and writes `results/`,
//! `--json`, `--trace-out` and `--attr-out` through one writer
//! ([`write_file`]).
//!
//! A trace is the log of a run the sweep performs anyway: the traced
//! cell runs on its pool worker like every other and is asked for its
//! log there, and only that `Send` log comes back. No cell runs twice,
//! and the artifacts do not depend on `--threads`.
//!
//! ```sh
//! cargo run --release -p stargemm-bench --bin exp -- fig7 --smoke --json fig7.json
//! cargo run --release -p stargemm-bench --bin exp -- attr --diff base.json new.json
//! ```

use std::path::Path;
use std::process::ExitCode;

use serde::json::Value;
use serde::Serialize;
use stargemm_obs::{perfetto_trace, Attribution};

use crate::cli::{usage_exit, USAGE};
use crate::{parallel_map, write_file, Cli, RunLog};

mod ablation;
mod attr;
mod dag;
mod dynamic;
mod fed;
mod netmodel;
mod ooc;
mod paper;
mod runtime;
mod stream;

/// What a row hands the driver to write.
#[derive(Clone, Debug, PartialEq)]
pub struct Report {
    /// Printed on stdout.
    pub stdout: String,
    /// `(file name, contents)` of each file under `results/`.
    pub results: Vec<(String, String)>,
    /// The `--json` document.
    pub json: String,
}

impl Report {
    /// A report whose stdout is its one table, also kept as
    /// `results/<file>`.
    pub fn table(file: &str, table: String, json: String) -> Report {
        Report {
            stdout: table.clone(),
            results: vec![(file.to_string(), table)],
            json,
        }
    }
}

/// The `--json` document of a row that is a list of rows:
/// `{"experiment": id, "rows": [...]}`.
pub fn rows_json<R: Serialize>(id: &str, rows: &[R]) -> String {
    Value::object([("experiment", id.to_value()), ("rows", rows.to_value())]).render_pretty()
}

/// One experiment.
pub struct Row {
    /// The name `exp <id>` runs it by.
    pub id: &'static str,
    /// Whether a cell of the row is traced; without one, `--trace-out`
    /// and `--attr-out` are usage errors.
    pub traced: bool,
    /// Builds the cells, sweeps them and renders the report.
    pub run: fn(&Cli, &mut Sweep) -> Report,
}

/// Every experiment: the paper's artifacts first (EXPERIMENTS.md maps
/// each to its figure or table), then the rows beyond the paper.
#[rustfmt::skip]
pub const ROWS: &[Row] = &[
    Row { id: "fig4",     traced: true,  run: paper::fig4 },
    Row { id: "fig5",     traced: true,  run: paper::fig5 },
    Row { id: "fig6",     traced: true,  run: paper::fig6 },
    Row { id: "fig7",     traced: true,  run: paper::fig7 },
    Row { id: "fig8",     traced: true,  run: paper::fig8 },
    Row { id: "fig9",     traced: true,  run: paper::fig9 },
    Row { id: "table1",   traced: false, run: paper::table1 },
    Row { id: "table2",   traced: true,  run: paper::table2 },
    Row { id: "bounds",   traced: false, run: paper::bounds },
    Row { id: "ablation", traced: false, run: ablation::ablation },
    Row { id: "ooc",      traced: true,  run: ooc::ooc },
    Row { id: "runtime",  traced: true,  run: runtime::runtime },
    Row { id: "dynamic",  traced: true,  run: dynamic::dynamic },
    Row { id: "stream",   traced: true,  run: stream::stream },
    Row { id: "netmodel", traced: true,  run: netmodel::netmodel },
    Row { id: "dag",      traced: true,  run: dag::dag },
    Row { id: "fed",      traced: true,  run: fed::fed },
    Row { id: "attr",     traced: true,  run: attr::attr },
];

/// The row named `id`.
pub fn row(id: &str) -> Option<&'static Row> {
    ROWS.iter().find(|r| r.id == id)
}

/// The fan-out a row runs its cells through: [`parallel_map`] on
/// `--threads` workers, results in cell order.
pub struct Sweep {
    threads: usize,
    /// Whether the driver wants the traced cell's log.
    log: bool,
    /// That log, once the traced cell has run.
    trace: Option<RunLog>,
}

impl Sweep {
    /// Runs every cell serially, whatever `--threads` says (for rows
    /// that measure wall-clock time).
    pub fn serial(&mut self) -> &mut Sweep {
        self.threads = 1;
        self
    }

    /// Runs `cell` on every cell; results in cell order.
    pub fn run<C: Sync, R: Send>(&self, cells: &[C], cell: impl Fn(&C) -> R + Sync) -> Vec<R> {
        parallel_map(self.threads, cells, |_, c| cell(c))
    }

    /// [`Sweep::run`] for a row whose cell `traced` is traced: `cell`
    /// receives whether to hand back the log of its run, which is `true`
    /// only for that cell and only when a trace is wanted. The log is
    /// kept for the driver.
    pub fn run_traced<C: Sync, R: Send>(
        &mut self,
        cells: &[C],
        traced: usize,
        cell: impl Fn(&C, bool) -> (R, Option<RunLog>) + Sync,
    ) -> Vec<R> {
        let wanted = self.log.then_some(traced);
        let outs = parallel_map(self.threads, cells, |i, c| cell(c, wanted == Some(i)));
        let mut rows = Vec::with_capacity(outs.len());
        for (row, trace) in outs {
            self.trace = self.trace.take().or(trace);
            rows.push(row);
        }
        rows
    }
}

/// Runs `row` under `cli`: its report, and the traced cell's log when
/// `cli` asks for `--trace-out` or `--attr-out`. Writes nothing.
pub fn run(row: &Row, cli: &Cli) -> (Report, Option<RunLog>) {
    let wants_log = cli.trace_out.is_some() || cli.attr_out.is_some();
    let mut sweep = Sweep {
        threads: cli.threads,
        log: row.traced && wants_log,
        trace: None,
    };
    let report = (row.run)(cli, &mut sweep);
    (report, sweep.trace)
}

/// Prints the report and writes every file `cli` asks for.
fn emit(cli: &Cli, report: &Report, trace: Option<RunLog>) -> Result<(), String> {
    print!("{}", report.stdout);
    for (name, contents) in &report.results {
        write_file(&Path::new("results").join(name), contents)?;
    }
    if let Some(path) = &cli.json {
        write_file(path, &report.json)?;
    }
    if cli.trace_out.is_none() && cli.attr_out.is_none() {
        return Ok(());
    }
    let Some((events, makespan)) = trace else {
        eprintln!("(no trace or attribution: the traced cell failed)");
        return Ok(());
    };
    if let Some(path) = &cli.trace_out {
        write_file(path, &perfetto_trace(&events).render_pretty())?;
    }
    if let Some(path) = &cli.attr_out {
        let stacks = Attribution::from_events(&events, makespan).folded_stacks();
        write_file(path, &stacks)?;
    }
    Ok(())
}

/// `exp <id> [flags]`: parses the command line (exit 2 on a usage
/// error), runs the row, and writes its outputs (exit 1 when a path
/// cannot be written).
pub fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let ids: Vec<&str> = ROWS.iter().map(|r| r.id).collect();
    let usage = format!(
        "exp <id> {USAGE}\n       exp attr --diff <base.json> <new.json>\nids: {}",
        ids.join(" ")
    );
    let Some((id, rest)) = args.split_first() else {
        usage_exit("which experiment?", &usage)
    };
    let Some(row) = row(id) else {
        usage_exit(&format!("unknown experiment {id:?}"), &usage)
    };
    if row.id == "attr" && rest.first().is_some_and(|a| a == "--diff") {
        return match rest {
            [_, a, b] => attr::diff(a, b),
            _ => usage_exit("--diff needs <base.json> <new.json>", &usage),
        };
    }
    let cli = Cli::from_args(rest)
        .and_then(|cli| if row.traced { Ok(cli) } else { cli.untraced() })
        .unwrap_or_else(|e| usage_exit(&e, &usage));
    let (report, trace) = run(row, &cli);
    match emit(&cli, &report, trace) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stargemm_core::algorithms::{run_algorithm_observed, Algorithm};
    use stargemm_core::steady::table2_platform;
    use stargemm_core::Job;

    fn cli(args: &[&str]) -> Cli {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        Cli::from_args(&args).unwrap()
    }

    #[test]
    fn ids_are_unique() {
        for (i, r) in ROWS.iter().enumerate() {
            assert!(ROWS[..i].iter().all(|o| o.id != r.id), "{} twice", r.id);
        }
        assert_eq!(row("fig7").map(|r| r.id), Some("fig7"));
        assert!(row("exp_fig7").is_none());
    }

    /// A paper row traced from a pool worker: the report is the same
    /// with and without a trace, and the trace is the log of a serial
    /// recorded run of the traced cell (Het at x = 8).
    #[test]
    fn a_trace_is_the_log_of_the_cell_the_sweep_ran() {
        let table2 = row("table2").unwrap();
        let (plain, none) = run(table2, &cli(&["--smoke", "--threads", "2"]));
        assert!(none.is_none());
        let traced = cli(&["--smoke", "--threads", "2", "--trace-out", "t.json"]);
        let (report, trace) = run(table2, &traced);
        assert_eq!(report, plain);

        let job = Job::new(8, 50, 16, 80);
        let (stats, events) = crate::obs::record_with(|obs| {
            run_algorithm_observed(&table2_platform(8.0), &job, Algorithm::Het, obs)
        });
        assert_eq!(trace, Some((events, stats.unwrap().makespan)));
    }
}
