//! Ablation study for the design choices the paper calls out:
//!
//! * the contribution of each graph-division technique (independent
//!   components alone, plus low-degree removal, plus biconnected splitting,
//!   plus GH-tree cut removal) to the runtime of the SDP+Backtrack engine;
//! * the linear engine's solution quality and runtime against the
//!   SDP+Greedy engine on the same circuits.
//!
//! Usage: `cargo run -p mpl-bench --release --bin ablation [CIRCUIT ...]`
//! (defaults to a medium-size circuit).

use mpl_bench::{circuit_layout, circuits_from_args, table_config};
use mpl_core::{ColorAlgorithm, Decomposer, DivisionConfig};
use mpl_layout::gen::IscasCircuit;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let circuits = circuits_from_args(&args, &[IscasCircuit::C6288, IscasCircuit::C7552]);

    println!("Ablation 1: graph-division techniques (SDP+Backtrack, K = 4)");
    println!(
        "{:<10} {:<34} {:>6} {:>6} {:>10}",
        "Circuit", "Division", "cn#", "st#", "CPU(s)"
    );
    let divisions: [(&str, DivisionConfig); 4] = [
        ("ICC only", DivisionConfig::none()),
        (
            "+ low-degree removal",
            DivisionConfig {
                low_degree_removal: true,
                ..DivisionConfig::none()
            },
        ),
        (
            "+ biconnected split",
            DivisionConfig {
                low_degree_removal: true,
                biconnected_split: true,
                ..DivisionConfig::none()
            },
        ),
        ("+ GH-tree cut removal", DivisionConfig::default()),
    ];
    for &circuit in &circuits {
        let layout = circuit_layout(circuit);
        for (label, division) in divisions {
            let config = table_config(4, ColorAlgorithm::SdpBacktrack).with_division(division);
            let result = Decomposer::new(config)
                .decompose(&layout)
                .expect("valid config");
            println!(
                "{:<10} {:<34} {:>6} {:>6} {:>10.3}",
                circuit.name(),
                label,
                result.conflicts(),
                result.stitches(),
                result.color_time().as_secs_f64()
            );
        }
    }

    println!("\nAblation 2: the linear engine against SDP+Greedy (K = 4)");
    println!(
        "{:<10} {:<34} {:>6} {:>6} {:>10}",
        "Circuit", "Variant", "cn#", "st#", "CPU(s)"
    );
    for &circuit in &circuits {
        let layout = circuit_layout(circuit);
        for (label, algorithm) in [
            ("Linear (full)", ColorAlgorithm::Linear),
            ("SDP+Greedy (reference)", ColorAlgorithm::SdpGreedy),
        ] {
            let result = Decomposer::new(table_config(4, algorithm))
                .decompose(&layout)
                .expect("valid config");
            println!(
                "{:<10} {:<34} {:>6} {:>6} {:>10.3}",
                circuit.name(),
                label,
                result.conflicts(),
                result.stitches(),
                result.color_time().as_secs_f64()
            );
        }
    }
}
