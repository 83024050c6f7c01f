//! Full-flow walkthrough on one benchmark circuit: generate the synthetic
//! layout, plan the decomposition (graph construction + component tasks),
//! execute the plan on a one-thread and on a four-thread pool, and
//! compare all four color-assignment engines — a single-circuit slice of
//! the paper's Table 1, staged through the plan → execute API.
//!
//! Run with: `cargo run --release --example full_flow_benchmark [CIRCUIT]`

use mpl_core::{
    ColorAlgorithm, Decomposer, DecomposerConfig, DecompositionSession, ResultRow, TableReport,
    ThreadPoolExecutor,
};
use mpl_layout::{gen::IscasCircuit, io, Technology};
use std::time::Duration;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "C5315".to_string());
    let circuit = IscasCircuit::ALL
        .into_iter()
        .find(|c| c.name().eq_ignore_ascii_case(&name))
        .unwrap_or(IscasCircuit::C5315);
    let tech = Technology::nm20();
    let layout = circuit.generate(&tech);
    let stats = layout.stats();
    println!("circuit {}: {}", circuit.name(), stats);

    // The layout can be serialised for inspection with external tools.
    let text = io::to_text(&layout);
    println!("layout text serialisation: {} bytes", text.len());

    // Stage 1: plan — decomposition-graph statistics come from the plan.
    let planner =
        Decomposer::new(DecomposerConfig::quadruple(tech).with_algorithm(ColorAlgorithm::Linear));
    let plan = planner.plan(&layout)?;
    let graph = plan.graph();
    let largest = plan
        .tasks()
        .iter()
        .map(|task| task.vertex_count())
        .max()
        .unwrap_or(0);
    println!(
        "decomposition graph: {} vertices, {} conflict edges, {} stitch edges, {} components (largest {})",
        graph.vertex_count(),
        graph.conflict_edges().len(),
        graph.stitch_edges().len(),
        plan.tasks().len(),
        largest
    );

    // Stage 2: one thread and four threads agree bit for bit.
    let serial = plan.execute(&ThreadPoolExecutor::default());
    let pool = ThreadPoolExecutor::new(4)?;
    let parallel = plan.execute(&pool);
    assert_eq!(serial.colors(), parallel.colors());
    println!(
        "pool sizes agree: {} conflicts each (serial {:.3}s vs {} {:.3}s)",
        serial.conflicts(),
        serial.color_time().as_secs_f64(),
        parallel.executor(),
        parallel.color_time().as_secs_f64()
    );

    // One Table-1 row per engine, each plan executed by itself so the
    // CPU(s) column stays a per-engine measurement.
    let mut plans = Vec::new();
    for algorithm in ColorAlgorithm::ALL {
        let config = DecomposerConfig::quadruple(tech)
            .with_algorithm(algorithm)
            .with_ilp_time_limit(Duration::from_secs(10));
        plans.push(Decomposer::new(config).plan(&layout)?);
    }
    let mut report = TableReport::new();
    for plan in &plans {
        report.push(ResultRow::from_result(&plan.execute(&pool)));
    }
    println!("\n{report}");

    // The same four plans can also drain as ONE batch: a session
    // interleaves every plan's component tasks in one largest-first queue
    // on the shared pool (each task carries its own plan's engine), and
    // every plan's conflicts/stitches come back unchanged bit for bit.
    let mut session = DecompositionSession::new();
    for plan in plans {
        session.submit(plan);
    }
    let batch_start = std::time::Instant::now();
    let batched = session.run(&pool);
    println!(
        "batch: {} plans ({} component tasks) drained in {:.3}s on one shared pool",
        session.layout_count(),
        session.task_count(),
        batch_start.elapsed().as_secs_f64()
    );
    for ((_, result), row) in batched.iter().zip(report.rows()) {
        assert_eq!(result.conflicts(), row.conflicts);
        assert_eq!(result.stitches(), row.stitches);
    }
    Ok(())
}
