//! perfbench — hot-path microbenchmark for the decomposition core.
//!
//! Measures, on deterministic generated layouts (no input files):
//!
//! * per-stage wall-clock timings — graph build (`plan`) and division +
//!   color assignment (`color`) — for the Linear and exact (ILP) engines,
//! * hardware-independent **work counters**: branch-and-bound nodes
//!   expanded, max-flow augmenting paths pushed and arcs scanned during
//!   graph division (on a row chip and untiled contact lattices of sides
//!   32, 48, 64 and 96), and scratch-buffer allocation events per
//!   component,
//! * branch-and-bound node counts on standalone dense-clique instances
//!   (the cases the pruned search must win on),
//! * two memoization cases, a deep repeated array (many exact translates
//!   of one dense strip) and the large row chip (mostly distinct
//!   components), each decomposed without a cache, with a cold cache, and
//!   with a warm cache, recording hit/miss/eviction counters and the
//!   warm-vs-cold coloring diff count,
//! * a kernelization case: a two-K7-plus-fringe fixture decomposed through
//!   the iterated-simplification pipeline, recording the hidden/kernel
//!   vertex counts, simplification rounds, branch-and-bound nodes on the
//!   kernel, and a spacing check classifying violations that touch
//!   reinserted vertices (must be zero),
//! * a full-chip tiled case: a chip-spanning contact lattice sharded into
//!   halo-expanded windows through `mpl-tile` and solved exactly per
//!   window, recording the reconciliation counters, a spacing
//!   re-verification of the merged coloring, and a one-window control that
//!   must match the untiled coloring bit for bit,
//! * a hierarchical case: an SRAM-like merged cell array (one giant
//!   component the flat memo cache cannot help) split by instance
//!   provenance through `mpl-hier`, recording the reconciliation counters,
//!   a spacing re-verification, and an all-isolated control array that
//!   must match the flat memoized coloring bit for bit,
//! * a GDS case: the large row layout written with `write_layout_file`,
//!   read back with `load_layout_file` and exported colored, recording
//!   each step's best-of-3 seconds with the file sizes and the re-read
//!   shape and rectangle counts, which `--check` pins.
//!
//! The report is emitted as `BENCH_perf.json` (schema `mpl-bench/perf-v7`).
//! Wall-clock numbers are informative only — they depend on the host, and
//! any pool-speedup figure must be reported with the host's
//! `available_parallelism` — while the work counters are deterministic and
//! are what CI pins (`--check`): per-layout engine counters, an arc-scan
//! ceiling per lattice size with at most 1.5× growth in scans per vertex
//! from the 32-side to the 96-side lattice, the memo cases' cold hit and
//! miss counts, a fully warm hit rate (so ≥ 90 %) and zero warm-vs-cold
//! coloring diffs, and the tile and hier cases' zero post-reconciliation
//! conflicts, clean spacing checks, and bit-identical controls.  Under
//! `--check` the untiled and
//! flat comparison runs of the tile and hier cases are skipped (they are
//! wall-clock-only information).
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
