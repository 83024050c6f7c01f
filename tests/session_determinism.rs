//! Batch determinism: a [`DecompositionSession`] mixing many layouts on one
//! shared executor must color every layout **bit-identically** to that
//! layout's standalone serial run.
//!
//! The batch engine interleaves component tasks from all submitted plans in
//! one largest-first queue, so these tests pin the core acceptance property
//! of the batch-first API: scheduling across layouts — with any engine, any
//! pool size, and any submission order — never changes any layout's colors,
//! conflicts or stitches.

use mpl_core::{
    ColorAlgorithm, Decomposer, DecomposerConfig, DecompositionResult, DecompositionSession,
    LayoutId, ThreadPoolExecutor,
};
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

/// The mixed workload of the acceptance criteria: generated row layouts
/// plus a layout that went through a GDSII write/read round trip.
fn mixed_layouts() -> Vec<Layout> {
    let tech = Technology::nm20();
    let mut layouts = vec![
        gen::generate_row_layout(&gen::RowLayoutConfig::small("batch-a", 3), &tech),
        gen::generate_row_layout(&gen::RowLayoutConfig::small("batch-b", 7), &tech),
        gen::fig1_contact_clique(&tech),
    ];
    let round_trip_source =
        gen::generate_row_layout(&gen::RowLayoutConfig::small("batch-gds", 5), &tech);
    let mut path = std::env::temp_dir();
    path.push(format!(
        "session-determinism-{}-{}.gds",
        std::process::id(),
        layouts.len()
    ));
    let path = path.to_string_lossy().into_owned();
    mpl_gds::write_layout_file(&path, &round_trip_source, 1, 0).expect("write gds");
    let map = mpl_gds::LayerMap::from_specs::<&str>(&[]).expect("empty layer map");
    let read_back = mpl_gds::load_layout_file(&path, &map, &mpl_gds::ReadOptions::default())
        .expect("re-read gds");
    std::fs::remove_file(&path).ok();
    layouts.push(read_back);
    layouts
}

/// Standalone baseline: each layout planned and executed alone on a
/// one-thread pool.
fn serial_baselines(decomposer: &Decomposer, layouts: &[Layout]) -> Vec<DecompositionResult> {
    layouts
        .iter()
        .map(|layout| {
            decomposer
                .plan(layout)
                .expect("valid config")
                .execute(&ThreadPoolExecutor::default())
        })
        .collect()
}

fn assert_matches_baseline(
    label: &str,
    id: LayoutId,
    batched: &DecompositionResult,
    baseline: &DecompositionResult,
) {
    assert_eq!(
        batched.colors(),
        baseline.colors(),
        "{label}: {id} ({}) diverged from its standalone serial run",
        baseline.layout_name()
    );
    assert_eq!(batched.conflicts(), baseline.conflicts(), "{label}: {id}");
    assert_eq!(batched.stitches(), baseline.stitches(), "{label}: {id}");
    assert_eq!(
        batched.component_count(),
        baseline.component_count(),
        "{label}: {id}"
    );
    // The per-component breakdown must agree too (not just the totals):
    // stats come back tagged by task index regardless of schedule.
    for (a, b) in batched
        .component_stats()
        .iter()
        .zip(baseline.component_stats())
    {
        assert_eq!(a.index, b.index, "{label}: {id}");
        assert_eq!(a.conflicts, b.conflicts, "{label}: {id} task {}", a.index);
        assert_eq!(a.stitches, b.stitches, "{label}: {id} task {}", a.index);
        assert_eq!(a.vertex_count, b.vertex_count, "{label}: {id}");
    }
}

#[test]
fn mixed_batches_match_standalone_serial_runs_for_every_engine_and_pool() {
    let layouts = mixed_layouts();
    for algorithm in ColorAlgorithm::ALL {
        let decomposer = Decomposer::new(config(4, algorithm));
        let baselines = serial_baselines(&decomposer, &layouts);

        let mut session = DecompositionSession::new();
        for layout in &layouts {
            session
                .submit_layout(&decomposer, layout)
                .expect("valid config");
        }

        // A one-thread pool drains the batch queue in largest-first
        // order — already a different schedule than per-layout execution.
        let serial_batch = session.run(&ThreadPoolExecutor::default());
        for ((id, result), baseline) in serial_batch.iter().zip(&baselines) {
            assert_matches_baseline(&format!("{algorithm}/serial"), *id, result, baseline);
        }

        for threads in [1usize, 2, 4] {
            let pool = ThreadPoolExecutor::new(threads).expect("non-zero threads");
            let batch = session.run(&pool);
            assert_eq!(batch.len(), layouts.len());
            for ((id, result), baseline) in batch.iter().zip(&baselines) {
                assert_matches_baseline(
                    &format!("{algorithm}/threads:{threads}"),
                    *id,
                    result,
                    baseline,
                );
            }
        }
    }
}

#[test]
fn submission_order_does_not_change_any_layouts_colors() {
    let layouts = mixed_layouts();
    let decomposer = Decomposer::new(config(4, ColorAlgorithm::SdpBacktrack));
    let baselines = serial_baselines(&decomposer, &layouts);

    // Interleave the submissions: reversed and rotated orders both map
    // back to the same per-layout baselines.
    let orders: Vec<Vec<usize>> = vec![
        (0..layouts.len()).rev().collect(),
        (0..layouts.len())
            .map(|i| (i + 2) % layouts.len())
            .collect(),
    ];
    for order in orders {
        let mut session = DecompositionSession::new();
        let mut submitted: Vec<usize> = Vec::new();
        for &slot in &order {
            let id = session
                .submit_layout(&decomposer, &layouts[slot])
                .expect("valid config");
            assert_eq!(id.index(), submitted.len(), "ids follow submission order");
            submitted.push(slot);
        }
        let results = session.run(&ThreadPoolExecutor::new(2).expect("threads"));
        assert_eq!(results.len(), layouts.len());
        for ((id, result), &slot) in results.iter().zip(&submitted) {
            assert_matches_baseline("interleaved/threads:2", *id, result, &baselines[slot]);
        }
    }
}

#[test]
fn pentuple_batches_match_standalone_runs() {
    let tech = Technology::nm20();
    let layouts = [
        gen::generate_row_layout(&gen::RowLayoutConfig::small("penta-a", 5), &tech),
        gen::k5_cluster_layout(&tech),
    ];
    let decomposer = Decomposer::new(config(5, ColorAlgorithm::Linear));
    let baselines = serial_baselines(&decomposer, &layouts);
    let mut session = DecompositionSession::new();
    for layout in &layouts {
        session
            .submit_layout(&decomposer, layout)
            .expect("valid config");
    }
    for threads in [2usize, 4] {
        let results = session.run(&ThreadPoolExecutor::new(threads).expect("threads"));
        for ((id, result), baseline) in results.iter().zip(&baselines) {
            assert_matches_baseline(&format!("penta/threads:{threads}"), *id, result, baseline);
            assert_eq!(result.k(), 5);
        }
    }
}
