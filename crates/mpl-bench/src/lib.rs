//! Benchmark harness regenerating the paper's tables and figures.
//!
//! The binaries in this crate print the same row structure as the paper:
//!
//! * `table1` — quadruple patterning, all 15 circuits, four algorithms
//!   (`ILP`, `SDP+Backtrack`, `SDP+Greedy`, `Linear`): conflict count,
//!   stitch count and color-assignment CPU seconds, plus the `avg.` and
//!   `ratio` summary lines.
//! * `table2` — pentuple patterning on the six densest circuits with the
//!   three scalable algorithms.
//! * `ablation` — the effect of each graph-division technique, and the
//!   linear engine against SDP+Greedy.
//! * `workload` — the same row structure over arbitrary layout files
//!   (text format or GDSII), via [`workload::load_layout_timed`].  Its `--batch`
//!   mode instead drives all files as **one** [`mpl_core::DecompositionSession`]
//!   on a shared executor and reports aggregate throughput (layouts/sec,
//!   components/sec) plus a machine-readable `BENCH_*.json` via
//!   [`batch::BatchBenchReport`] (schema `mpl-bench/batch-v2`), with parse
//!   time tracked separately from decompose time.  Its `--serve ADDR` mode
//!   streams the files as `submit` requests to a running `qpl-serve` and
//!   measures client-observed requests/sec ([`serve::ServeBenchReport`],
//!   schema `mpl-bench/serve-v2`).  Both reports' rows carry each layout's
//!   record, [`mpl_serve::ResultPayload`].
//! * `perfbench` — the hot-path microbenchmark ([`perf::run_perf_suite`],
//!   schema `mpl-bench/perf-v9`): per-stage timings plus deterministic
//!   work counters (branch-and-bound nodes, division augmenting paths vs
//!   the `n · K` ceiling, scratch allocations) on generated layouts and
//!   dense-clique instances; `--check` pins counter ceilings in CI.
//!
//! The Criterion benches under `benches/` time the same runs for
//! regression tracking.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod perf;
pub mod serve;
pub mod workload;

use mpl_core::{
    ColorAlgorithm, DecomposeError, Decomposer, DecomposerConfig, Executor, ResultRow,
    SerialExecutor, TableReport, ThreadPoolExecutor,
};
use mpl_layout::{gen::IscasCircuit, Layout, Technology};
use std::time::Duration;

/// The algorithms of Table 1, in column order.
pub const TABLE1_ALGORITHMS: [ColorAlgorithm; 4] = [
    ColorAlgorithm::Ilp,
    ColorAlgorithm::SdpBacktrack,
    ColorAlgorithm::SdpGreedy,
    ColorAlgorithm::Linear,
];

/// The algorithms of Table 2 (no exact baseline exists for pentuple
/// patterning in the paper).
pub const TABLE2_ALGORITHMS: [ColorAlgorithm; 3] = [
    ColorAlgorithm::SdpBacktrack,
    ColorAlgorithm::SdpGreedy,
    ColorAlgorithm::Linear,
];

/// Builds the decomposer configuration used throughout the tables.
pub fn table_config(k: usize, algorithm: ColorAlgorithm) -> DecomposerConfig {
    DecomposerConfig::k_patterning(k, Technology::nm20())
        .with_algorithm(algorithm)
        // The paper's GUROBI runs are capped at one hour per circuit; scale
        // that down to ten seconds per component so the whole table
        // regenerates in minutes while preserving the "ILP cannot finish the
        // dense regions of the largest circuits" behaviour.
        .with_ilp_time_limit(Duration::from_secs(10))
}

/// Generates the layout for a circuit with the paper's technology.
pub fn circuit_layout(circuit: IscasCircuit) -> Layout {
    circuit.generate(&Technology::nm20())
}

/// Picks the executor for a `--threads` knob: `0` or `1` selects the serial
/// executor, anything larger a thread pool of that size.
pub fn executor_for_threads(threads: usize) -> Box<dyn Executor> {
    if threads <= 1 {
        Box::new(SerialExecutor)
    } else {
        Box::new(ThreadPoolExecutor::new(threads).expect("non-zero thread count"))
    }
}

/// Parses an optional `--threads N` flag out of `args`, returning the
/// remaining arguments and the thread count (default 1 = serial).
pub fn threads_from_args(args: &[String]) -> Result<(Vec<String>, usize), String> {
    let mut rest = Vec::new();
    let mut threads = 1usize;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if arg == "--threads" {
            threads = iter
                .next()
                .ok_or_else(|| "--threads requires a value".to_string())?
                .parse()
                .map_err(|e| format!("invalid --threads value: {e}"))?;
            if threads == 0 {
                return Err(mpl_core::ConfigError::ThreadCount.to_string());
            }
        } else {
            rest.push(arg.clone());
        }
    }
    Ok((rest, threads))
}

/// Runs one (circuit, algorithm, K) cell on the given executor and returns
/// the table row.
///
/// # Errors
///
/// Propagates the typed planning errors of [`Decomposer::plan`] (invalid
/// K/α, degenerate shapes in a user-supplied layout file).
pub fn run_cell_on(
    layout: &Layout,
    k: usize,
    algorithm: ColorAlgorithm,
    executor: &dyn Executor,
) -> Result<ResultRow, DecomposeError> {
    let decomposer = Decomposer::new(table_config(k, algorithm));
    let plan = decomposer.plan(layout)?;
    Ok(ResultRow::from_result(&plan.execute(executor)))
}

/// Runs a full table on the given executor: every circuit against every
/// algorithm for the given K.
///
/// # Errors
///
/// Propagates the first cell's typed planning error, if any.
pub fn run_table_on(
    circuits: &[IscasCircuit],
    algorithms: &[ColorAlgorithm],
    k: usize,
    executor: &dyn Executor,
) -> Result<TableReport, DecomposeError> {
    let layouts: Vec<Layout> = circuits.iter().map(|&c| circuit_layout(c)).collect();
    workload::run_layout_table_on(&layouts, algorithms, k, executor)
}

/// Parses circuit names from command-line arguments; an empty argument list
/// selects `default` circuits.
pub fn circuits_from_args(args: &[String], default: &[IscasCircuit]) -> Vec<IscasCircuit> {
    if args.is_empty() {
        return default.to_vec();
    }
    args.iter()
        .filter_map(|name| {
            IscasCircuit::ALL
                .into_iter()
                .find(|c| c.name().eq_ignore_ascii_case(name))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_cell_produces_a_row_for_a_small_circuit() {
        let layout = circuit_layout(IscasCircuit::C432);
        let row =
            run_cell_on(&layout, 4, ColorAlgorithm::Linear, &SerialExecutor).expect("valid config");
        assert_eq!(row.circuit, "C432");
        assert_eq!(row.algorithm, "Linear");
        assert!(row.cpu_seconds >= 0.0);
    }

    #[test]
    fn circuits_from_args_matches_case_insensitively_and_defaults() {
        let default = [IscasCircuit::C432, IscasCircuit::C499];
        assert_eq!(circuits_from_args(&[], &default), default.to_vec());
        let picked = circuits_from_args(
            &["c880".to_string(), "S1488".to_string(), "bogus".to_string()],
            &default,
        );
        assert_eq!(picked, vec![IscasCircuit::C880, IscasCircuit::S1488]);
    }

    #[test]
    fn table_config_uses_requested_algorithm_and_k() {
        let config = table_config(5, ColorAlgorithm::SdpGreedy);
        assert_eq!(config.k, 5);
        assert_eq!(config.algorithm, ColorAlgorithm::SdpGreedy);
    }

    #[test]
    fn threaded_cells_match_serial_cells() {
        let layout = circuit_layout(IscasCircuit::C432);
        let serial =
            run_cell_on(&layout, 4, ColorAlgorithm::Linear, &SerialExecutor).expect("valid config");
        let threaded = run_cell_on(
            &layout,
            4,
            ColorAlgorithm::Linear,
            executor_for_threads(4).as_ref(),
        )
        .expect("valid config");
        assert_eq!(serial.conflicts, threaded.conflicts);
        assert_eq!(serial.stitches, threaded.stitches);
    }

    #[test]
    fn threads_flag_parses_and_validates() {
        let args = vec![
            "C432".to_string(),
            "--threads".to_string(),
            "4".to_string(),
            "C499".to_string(),
        ];
        let (rest, threads) = threads_from_args(&args).expect("valid");
        assert_eq!(rest, vec!["C432".to_string(), "C499".to_string()]);
        assert_eq!(threads, 4);
        assert!(threads_from_args(&["--threads".to_string()]).is_err());
        assert!(threads_from_args(&["--threads".to_string(), "0".to_string()]).is_err());
        assert!(threads_from_args(&["--threads".to_string(), "x".to_string()]).is_err());
    }
}
