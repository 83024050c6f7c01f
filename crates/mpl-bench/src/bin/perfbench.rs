//! perfbench — hot-path microbenchmark for the decomposition core.
//!
//! Runs the suite of [`mpl_bench::perf`] on deterministic generated
//! layouts (no input files); its module doc lists the cases.  The report
//! is emitted as `BENCH_perf.json` (schema `mpl-bench/perf-v8`).
//! Wall-clock numbers are informative only, while the work counters are
//! deterministic and are what `--check` pins
//! ([`mpl_bench::perf::PerfReport::check_ceilings`]); under `--check` the
//! untiled and flat comparison runs of the tile and hier cases are skipped
//! (they are wall-clock-only information).
//!
//! Usage: `perfbench [--json FILE] [--label NAME] [--check]`

use mpl_bench::perf::{run_perf_suite, PerfOptions};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut options = PerfOptions::default();
    let mut json_path: Option<String> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--json" => match iter.next() {
                Some(path) => json_path = Some(path.clone()),
                None => {
                    eprintln!("--json requires a file path");
                    return ExitCode::FAILURE;
                }
            },
            "--label" => match iter.next() {
                Some(label) => options.label = label.clone(),
                None => {
                    eprintln!("--label requires a value");
                    return ExitCode::FAILURE;
                }
            },
            "--check" => options.check = true,
            "--help" | "-h" => {
                eprintln!("usage: perfbench [--json FILE] [--label NAME] [--check]");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument {other:?}");
                return ExitCode::FAILURE;
            }
        }
    }

    let report = match run_perf_suite(&options) {
        Ok(report) => report,
        Err(message) => {
            eprintln!("perfbench failed: {message}");
            return ExitCode::FAILURE;
        }
    };
    let json = format!("{:#}\n", report.to_json());
    match &json_path {
        Some(path) => {
            if let Err(error) = std::fs::write(path, &json) {
                eprintln!("cannot write {path}: {error}");
                return ExitCode::FAILURE;
            }
            eprintln!("wrote {path}");
        }
        None => println!("{json}"),
    }
    if options.check {
        match report.check_ceilings() {
            Ok(()) => eprintln!("perfbench --check: all work counters within pinned ceilings"),
            Err(violations) => {
                for violation in &violations {
                    eprintln!("perfbench --check FAILED: {violation}");
                }
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
