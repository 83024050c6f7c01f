//! Executor determinism and parallel speedup.
//!
//! Independent components share no conflict or stitch edges, so the
//! per-component coloring is a pure function of each task: every pool size
//! must produce **byte-identical** color vectors, regardless of thread
//! count or schedule.  These tests pin that property across all four
//! color-assignment engines, on generated row layouts and on a layout that
//! went through a GDSII round trip, and demonstrate the wall-clock speedup
//! on a many-component benchmark.  The cross-layout counterpart — batches
//! of many layouts on one shared pool — is pinned in
//! `tests/session_determinism.rs`.

use mpl_core::{ColorAlgorithm, Decomposer, DecomposerConfig, ThreadPoolExecutor};
use mpl_layout::{gen, Layout, Technology};
use std::time::Duration;

fn config(k: usize, algorithm: ColorAlgorithm) -> DecomposerConfig {
    DecomposerConfig::k_patterning(k, Technology::nm20())
        .with_algorithm(algorithm)
        // Generous per-component budget so the exact engine never hits its
        // deadline on these small instances (a deadline hit could make the
        // incumbent depend on wall-clock timing instead of the instance).
        .with_ilp_time_limit(Duration::from_secs(120))
}

/// Asserts that 2-, 4- and 8-thread pools color `layout` exactly like a
/// one-thread pool, for every engine.
fn assert_executors_agree(layout: &Layout, k: usize) {
    for algorithm in ColorAlgorithm::ALL {
        let decomposer = Decomposer::new(config(k, algorithm));
        let plan = decomposer.plan(layout).expect("valid config");
        let serial = plan.execute(&ThreadPoolExecutor::default());
        for threads in [2usize, 4, 8] {
            let pool = ThreadPoolExecutor::new(threads).expect("non-zero threads");
            let parallel = plan.execute(&pool);
            assert_eq!(
                serial.colors(),
                parallel.colors(),
                "{algorithm} diverged on {} with {threads} threads",
                layout.name()
            );
            assert_eq!(serial.conflicts(), parallel.conflicts());
            assert_eq!(serial.stitches(), parallel.stitches());
        }
    }
}

#[test]
fn thread_pools_match_serial_on_generated_row_layouts() {
    for seed in [3u64, 7] {
        let layout = gen::generate_row_layout(
            &gen::RowLayoutConfig::small(format!("det-{seed}"), seed),
            &Technology::nm20(),
        );
        assert_executors_agree(&layout, 4);
    }
}

#[test]
fn thread_pools_match_serial_on_pentuple_patterning() {
    let layout = gen::generate_row_layout(
        &gen::RowLayoutConfig::small("det-penta", 5),
        &Technology::nm20(),
    );
    assert_executors_agree(&layout, 5);
}

#[test]
fn thread_pools_match_serial_after_a_gds_round_trip() {
    let layout = gen::generate_row_layout(
        &gen::RowLayoutConfig::small("det-gds", 5),
        &Technology::nm20(),
    );
    let mut path = std::env::temp_dir();
    path.push(format!("executor-determinism-{}.gds", std::process::id()));
    let path = path.to_string_lossy().into_owned();
    mpl_gds::write_layout_file(&path, &layout, 1, 0).expect("write gds");
    let map = mpl_gds::LayerMap::from_specs::<&str>(&[]).expect("empty layer map");
    let read_back =
        mpl_gds::load_layout_file(&path, &map, &mpl_gds::ReadOptions::default()).expect("re-read");
    std::fs::remove_file(&path).ok();
    assert_executors_agree(&read_back, 4);
}

/// Builds a layout of `clusters` dense contact clusters, far enough apart
/// that each cluster is its own independent component.
fn many_component_layout(clusters: usize, side: i64) -> Layout {
    let mut builder = Layout::builder(format!("clusters-{clusters}"));
    let pitch = 40i64; // contacts 20 nm wide, 20 nm apart: all in conflict range
    let cluster_span = 20_000i64; // far beyond the 100 nm color-friendly band
    let per_row = (clusters as f64).sqrt().ceil() as i64;
    for cluster in 0..clusters as i64 {
        let ox = (cluster % per_row) * cluster_span;
        let oy = (cluster / per_row) * cluster_span;
        for i in 0..side {
            for j in 0..side {
                builder.add_contact(
                    mpl_geometry::Nm(ox + i * pitch),
                    mpl_geometry::Nm(oy + j * pitch),
                    mpl_geometry::Nm(20),
                );
            }
        }
    }
    builder.build()
}

#[test]
#[ignore = "wall-clock benchmark: run explicitly with --ignored (see benchlogs/parallel_speedup.log)"]
fn parallel_speedup_on_many_components() {
    // ≥ 32 independent components, each a dense cluster that keeps the
    // SDP+Backtrack engine busy; 4 worker threads should finish the same
    // work well ahead of a one-thread pool.  The colors must still be
    // byte-identical.  Run with `--nocapture` to see the timings (recorded
    // in benchlogs/parallel_speedup.log).
    let layout = many_component_layout(48, 5);
    let decomposer = Decomposer::new(config(4, ColorAlgorithm::SdpBacktrack));
    let plan = decomposer.plan(&layout).expect("valid config");
    assert!(
        plan.tasks().len() >= 32,
        "expected >= 32 components, planned {}",
        plan.tasks().len()
    );

    let serial_start = std::time::Instant::now();
    let serial = plan.execute(&ThreadPoolExecutor::default());
    let serial_elapsed = serial_start.elapsed();

    let pool = ThreadPoolExecutor::new(4).expect("non-zero threads");
    let parallel_start = std::time::Instant::now();
    let parallel = plan.execute(&pool);
    let parallel_elapsed = parallel_start.elapsed();

    assert_eq!(serial.colors(), parallel.colors());
    assert_eq!(serial.component_count(), parallel.component_count());
    println!(
        "components: {}, vertices: {}",
        serial.component_count(),
        serial.vertex_count()
    );
    println!(
        "serial:     {:>8.3}s ({} conflicts)",
        serial_elapsed.as_secs_f64(),
        serial.conflicts()
    );
    println!(
        "threads:4   {:>8.3}s ({} conflicts), speedup {:.2}x",
        parallel_elapsed.as_secs_f64(),
        parallel.conflicts(),
        serial_elapsed.as_secs_f64() / parallel_elapsed.as_secs_f64().max(1e-9)
    );
}
