//! `exp <id>`: runs one experiment row of `stargemm_bench::exp::ROWS`
//! (see EXPERIMENTS.md for the map from ids to the paper's figures and
//! tables).

fn main() -> std::process::ExitCode {
    stargemm_bench::exp::main()
}
