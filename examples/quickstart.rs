//! Quickstart: build a tiny layout by hand, plan its decomposition for
//! quadruple patterning, execute the plan, and print the resulting mask
//! assignment.
//!
//! Run with: `cargo run --release --example quickstart`

use mpl_core::{ColorAlgorithm, Decomposer, DecomposerConfig, ThreadPoolExecutor};
use mpl_geometry::{Nm, Rect};
use mpl_layout::{Layout, Technology};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 20 nm half-pitch technology: minimum width and spacing are 20 nm,
    // and the quadruple-patterning coloring distance is 80 nm.
    let tech = Technology::nm20();

    // A hand-built layout: a 2x2 contact cluster (the Fig. 1 pattern that
    // triple patterning cannot decompose) plus a wire running past it.
    let mut builder = Layout::builder("quickstart");
    for (x, y) in [(0, 0), (40, 0), (0, 40), (40, 40)] {
        builder.add_contact(Nm(x), Nm(y), tech.min_width());
    }
    builder.add_rect(Rect::new(Nm(-200), Nm(120), Nm(260), Nm(140)));
    let layout = builder.build();

    // Stage 1: plan. The plan exposes the decomposition graph and the
    // independent component tasks before any coloring happens.
    let config = DecomposerConfig::quadruple(tech).with_algorithm(ColorAlgorithm::SdpBacktrack);
    let decomposer = Decomposer::new(config);
    let plan = decomposer.plan(&layout)?;
    let graph = plan.graph();
    println!(
        "plan: {} vertices, {} conflict edges, {} stitch edges, {} independent component(s)",
        graph.vertex_count(),
        graph.conflict_edges().len(),
        graph.stitch_edges().len(),
        plan.tasks().len()
    );
    for task in plan.tasks() {
        println!(
            "  task {}: {} vertices, {} conflict edges",
            task.index(),
            task.vertex_count(),
            task.problem().conflict_edges().len()
        );
    }

    // Stage 2: execute — the degenerate one-plan batch, here on a
    // one-thread pool (see full_flow_benchmark for a larger pool and
    // batch_throughput for batching many layouts through one
    // DecompositionSession).
    let result = plan.execute(&ThreadPoolExecutor::default());

    println!(
        "{}: {} conflicts, {} stitches (K = {})",
        result.layout_name(),
        result.conflicts(),
        result.stitches(),
        result.k()
    );
    for (vertex, color) in result.colors().iter().enumerate() {
        println!("  vertex {vertex} -> mask {color}");
    }

    // The result can split the geometry into one layout per mask.
    for mask in result.mask_layouts() {
        println!("  {mask}");
    }
    Ok(())
}
