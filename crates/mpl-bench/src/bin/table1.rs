//! Regenerates Table 1 of the paper: quadruple patterning layout
//! decomposition on the 15 benchmark circuits with the four color-assignment
//! algorithms.
//!
//! Usage: `cargo run -p mpl-bench --release --bin table1 [--threads N] [CIRCUIT ...]`
//! (defaults to all 15 circuits, serial execution).

use mpl_bench::{circuits_from_args, run_table_on, threads_from_args, TABLE1_ALGORITHMS};
use mpl_layout::gen::IscasCircuit;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (circuit_args, pool) = match threads_from_args(&args) {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    let circuits = circuits_from_args(&circuit_args, &IscasCircuit::ALL);
    eprintln!(
        "Table 1: quadruple patterning (K = 4) on {} circuits ({} executor)",
        circuits.len(),
        pool.name()
    );
    match run_table_on(&circuits, &TABLE1_ALGORITHMS, 4, &pool) {
        Ok(report) => {
            println!("\nTable 1: Comparison for Quadruple Patterning");
            println!("{report}");
            ExitCode::SUCCESS
        }
        Err(error) => {
            eprintln!("{error}");
            ExitCode::FAILURE
        }
    }
}
