//! Batch-first execution: decompose a fleet of layouts through one
//! [`DecompositionSession`] on a shared thread pool and report aggregate
//! throughput (layouts/sec, components/sec).
//!
//! Submitting many small layouts to one session keeps pool workers busy
//! across layout boundaries: every layout's independent components enter a
//! single largest-first queue, so a worker that finishes one chip's last
//! component immediately picks up the next chip's work.  On a single-CPU
//! machine (see `ThreadPoolExecutor::available`) the pool has one thread
//! and colors everything on the calling thread — the point of this example
//! is the *API shape* and the per-layout equality, not a speedup number.
//!
//! Run with: `cargo run --release --example batch_throughput [COUNT]`

use mpl_core::{
    ColorAlgorithm, Decomposer, DecomposerConfig, DecompositionSession, ThreadPoolExecutor,
};
use mpl_layout::{gen, Technology};
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let count: usize = std::env::args()
        .nth(1)
        .map(|value| value.parse())
        .transpose()?
        .unwrap_or(6);
    let tech = Technology::nm20();
    let decomposer = Decomposer::new(
        DecomposerConfig::quadruple(tech).with_algorithm(ColorAlgorithm::SdpBacktrack),
    );

    // A fleet of small layouts — the workload shape where per-layout
    // parallelism wastes workers and cross-layout batching shines.
    let layouts: Vec<_> = (0..count)
        .map(|index| {
            gen::generate_row_layout(
                &gen::RowLayoutConfig::small(format!("chip-{index}"), index as u64 + 3),
                &tech,
            )
        })
        .collect();

    // Plan and submit everything to one session; ids come back in
    // submission order.
    let mut session = DecompositionSession::new();
    for layout in &layouts {
        session.submit_layout(&decomposer, layout)?;
    }
    println!(
        "session: {} layouts, {} component tasks in one shared queue",
        session.layout_count(),
        session.task_count()
    );

    // Drain the batch once on one thread and once on a pool sized to the
    // machine; the per-layout results are bit-identical either way.
    let serial_start = Instant::now();
    let serial = session.run(&ThreadPoolExecutor::default());
    let serial_wall = serial_start.elapsed();

    let pool = ThreadPoolExecutor::available();
    let pool_start = Instant::now();
    let pooled = session.run(&pool);
    let pool_wall = pool_start.elapsed();

    println!(
        "{:<10} {:>9} {:>7} {:>5} {:>5} {:>10}",
        "layout", "vertices", "comps", "cn#", "st#", "color(s)"
    );
    for ((id, result), (_, check)) in serial.iter().zip(&pooled) {
        assert_eq!(
            result.colors(),
            check.colors(),
            "{id} diverged across pool sizes"
        );
        println!(
            "{:<10} {:>9} {:>7} {:>5} {:>5} {:>10.4}",
            result.layout_name(),
            result.vertex_count(),
            result.component_count(),
            result.conflicts(),
            result.stitches(),
            result.color_time().as_secs_f64()
        );
    }

    let tasks = session.task_count() as f64;
    println!(
        "serial:        {:>8.3}s ({:.1} layouts/s, {:.1} components/s)",
        serial_wall.as_secs_f64(),
        session.layout_count() as f64 / serial_wall.as_secs_f64().max(1e-12),
        tasks / serial_wall.as_secs_f64().max(1e-12)
    );
    println!(
        "threads:{:<5} {:>8.3}s ({:.1} layouts/s, {:.1} components/s)",
        pool.threads(),
        pool_wall.as_secs_f64(),
        session.layout_count() as f64 / pool_wall.as_secs_f64().max(1e-12),
        tasks / pool_wall.as_secs_f64().max(1e-12)
    );
    Ok(())
}
