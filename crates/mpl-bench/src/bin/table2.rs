//! Regenerates Table 2 of the paper: pentuple patterning (K = 5) layout
//! decomposition on the six densest circuits with the three scalable
//! algorithms.
//!
//! Usage: `cargo run -p mpl-bench --release --bin table2 [--threads N] [CIRCUIT ...]`
//! (defaults to the six densest circuits, serial execution).

use mpl_bench::{circuits_from_args, run_table_on, threads_from_args, TABLE2_ALGORITHMS};
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
    let circuits = circuits_from_args(&circuit_args, &IscasCircuit::DENSEST);
    eprintln!(
        "Table 2: pentuple patterning (K = 5) on {} circuits ({} executor)",
        circuits.len(),
        pool.name()
    );
    match run_table_on(&circuits, &TABLE2_ALGORITHMS, 5, &pool) {
        Ok(report) => {
            println!("\nTable 2: Comparison for Pentuple Patterning");
            println!("{report}");
            ExitCode::SUCCESS
        }
        Err(error) => {
            eprintln!("{error}");
            ExitCode::FAILURE
        }
    }
}
