//! The foxq benchmark harness. `benchmark/run.sh` builds the program and
//! this binary, then chains its subcommands as separate processes:
//!
//! ```text
//! benchmark gen     --workload W --seed N --dir D --queries Q   inputs + reference fingerprints
//! benchmark e2e     --workload W --dir D --queries Q --foxq BIN --seconds S
//! benchmark layers  --workload W --dir D --queries Q --foxq BIN --seconds S --seed N
//! benchmark report  --out DIR --spec BENCHMARK.json --seed N ...  BENCH.json from the rows
//! benchmark compare <a.json> <b.json> [--spec BENCHMARK.json]
//! ```
//!
//! See `benchmark/README.md` for the metric and workload definitions.

mod adapter;
mod affinity;
mod args;
mod compare;
mod e2e;
mod gen;
mod hash;
mod http;
mod json;
mod layers;
mod metrics;
mod proc;
mod report;
mod server;
mod span;
mod stats;
mod workdir;
mod workloads;

use std::process::ExitCode;

/// Print a finished row — every metric by name with its unit, then the
/// one-line result as the last line of stdout — and fail the process if any
/// op failed.
fn finish(row: metrics::Row, title: &str) -> Result<(), String> {
    row.print(title);
    println!("{}", row.contract_line());
    if row.correct() {
        Ok(())
    } else {
        Err(format!(
            "{}: {} of {} ops failed or gave a wrong output",
            row.workload, row.failed, row.attempted
        ))
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = argv.split_first() else {
        eprintln!("usage: benchmark gen|e2e|layers|report|compare ...");
        return ExitCode::from(2);
    };
    let result = match command.as_str() {
        "gen" => args::Args::parse(rest).and_then(|a| gen::run(&a)),
        "e2e" => args::Args::parse(rest)
            .and_then(|a| e2e::run(&a))
            .and_then(|row| finish(row, "end to end")),
        "layers" => args::Args::parse(rest)
            .and_then(|a| layers::run(&a))
            .and_then(|row| finish(row, "per layer")),
        "report" => args::Args::parse(rest).and_then(|a| report::run(&a)),
        "compare" => compare::run(rest).and_then(|no_worse| {
            if no_worse {
                Ok(())
            } else {
                Err("at least one metric is worse than its bound allows".to_string())
            }
        }),
        "workloads" => {
            for w in &workloads::WORKLOADS {
                println!("{}", w.name);
            }
            Ok(())
        }
        other => Err(format!("unknown subcommand {other:?}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("benchmark: {msg}");
            ExitCode::FAILURE
        }
    }
}
