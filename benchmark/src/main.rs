//! The repository benchmark: six closed-loop workloads from one protected host
//! to fleet churn, eleven end-to-end metrics, and a per-layer ladder that sums
//! back to them. See `README.md` beside this crate.
//!
//! ```text
//! cv-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run
//! cv-benchmark --all [--seed <n>] [--seconds <s>]                         every workload, round-robin
//! cv-benchmark --smoke                                                    all oracles, <= 1 s per workload
//! ```

mod common;
mod guest;
mod harness;
mod ladder;
mod metrics;
mod report;
mod rng;
mod runner;
mod spans;
mod stats;
mod workloads;

use harness::RunArgs;
use std::process::ExitCode;

/// Seconds one run measures unless told otherwise (`run_seconds` in
/// `BENCHMARK.json`).
const RUN_SECONDS: f64 = 15.0;

/// The command line, parsed.
#[derive(Debug, Default, PartialEq)]
struct Cli {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    all: bool,
    smoke: bool,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("`{arg}` needs a value"))
                .map(String::as_str)
        };
        match arg.as_str() {
            "--workload" => cli.workload = Some(value()?.to_string()),
            "--seed" => cli.seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                cli.seconds = Some(s);
            }
            "--trace" => {
                cli.trace = match value()? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                }
            }
            "--all" => cli.all = true,
            "--smoke" => cli.smoke = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(cli)
}

fn real_main() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = parse(&args)?;
    let seconds = cli.seconds.unwrap_or(RUN_SECONDS);
    let seed = cli.seed.unwrap_or(1);
    if cli.smoke {
        return runner::smoke(seed);
    }
    if cli.all {
        return runner::all(seed, seconds);
    }
    let workload = cli
        .workload
        .ok_or("give --workload <name>, --all or --smoke")?;
    let run = harness::run(RunArgs {
        workload,
        seed,
        seconds,
        trace: cli.trace,
        smoke: false,
    })?;
    report::write_files(&run)?;
    report::print(&run);
    Ok(run.correct)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("cv-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let cli = parse(&args(
            "--workload fleet_churn --seed 42 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(cli.workload.as_deref(), Some("fleet_churn"));
        assert_eq!(
            (cli.seed, cli.seconds, cli.trace),
            (Some(42), Some(10.0), true)
        );
        assert!(!cli.all && !cli.smoke);
    }

    #[test]
    fn rejects_malformed_arguments() {
        for bad in [
            "--seed",
            "--seed x",
            "--trace 2",
            "--seconds 0",
            "--seconds -1",
            "--runs 3",
            "--frobnicate",
        ] {
            assert!(parse(&args(bad)).is_err(), "`{bad}` must be rejected");
        }
    }
}
