//! End-to-end tests of the hierarchical driver against the flat batch
//! engine.

use crate::fixtures::{bit_cell_array, BitArrayStyle};
use crate::{run_hier, run_hier_observed};
use mpl_core::verify::verify_spacing;
use mpl_core::{
    ColorAlgorithm, ConfigError, Decomposer, DecomposerConfig, DecompositionSession, LayoutId,
    MemoCache, Progress, ThreadPoolExecutor, TileConfig,
};
use mpl_geometry::Nm;
use mpl_layout::{gen, LayoutHierarchy, Technology};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn decomposer(algorithm: ColorAlgorithm) -> Decomposer {
    Decomposer::new(DecomposerConfig::quadruple(Technology::nm20()).with_algorithm(algorithm))
}

/// Submits the fixture and attaches its hierarchy.
fn submit(
    session: &mut DecompositionSession,
    decomposer: &Decomposer,
    fixture: &(mpl_layout::Layout, LayoutHierarchy),
) -> LayoutId {
    let id = session
        .submit_layout(decomposer, &fixture.0)
        .expect("valid config");
    session.set_hierarchy(id, Some(Arc::new(fixture.1.clone())));
    id
}

#[test]
fn the_merged_fixture_is_one_giant_component_with_residual_links() {
    let (layout, hierarchy) = bit_cell_array(4, 3, BitArrayStyle::Merged);
    assert_eq!(hierarchy.instance_count(), 12);
    assert_eq!(hierarchy.cell_count(), 1);
    // Cross-instance links lost their tags; per-cell geometry kept them.
    assert!(hierarchy.shape_origins().iter().any(Option::is_none));
    assert!(hierarchy.tagged_shape_count() > 0);
    let decomposer = decomposer(ColorAlgorithm::Linear);
    let plan = decomposer.plan(&layout).expect("valid config");
    assert_eq!(plan.tasks().len(), 1, "the array couples into one giant");
}

#[test]
fn isolated_instances_are_bit_identical_to_the_flat_memoized_path() {
    let fixture = bit_cell_array(3, 3, BitArrayStyle::Isolated);
    for algorithm in ColorAlgorithm::ALL {
        let decomposer = decomposer(algorithm);
        let mut session = DecompositionSession::new();
        submit(&mut session, &decomposer, &fixture);

        // The flat memoized reference run.
        let mut flat = DecompositionSession::new().with_memo(Arc::new(MemoCache::new(1024)));
        flat.submit_layout(&decomposer, &fixture.0)
            .expect("valid config");
        let reference = flat.run(&ThreadPoolExecutor::default());

        let hier = run_hier(&session, &ThreadPoolExecutor::default()).expect("no tiling");
        let (_, hier) = &hier[0];
        assert_eq!(hier.result.colors(), reference[0].1.colors(), "{algorithm}");
        assert_eq!(hier.result.conflicts(), reference[0].1.conflicts());
        assert_eq!(hier.result.stitches(), reference[0].1.stitches());
        assert_eq!(hier.stats.split_components, 0, "{algorithm}");
        assert_eq!(hier.stats.instances, 9);
        assert_eq!(hier.stats.cells, 1);
        assert_eq!(
            hier.stats.resident_components,
            reference[0].1.component_count()
        );
    }
}

#[test]
fn merged_arrays_split_reconcile_and_verify_spacing_clean() {
    let fixture = bit_cell_array(4, 4, BitArrayStyle::Merged);
    for algorithm in ColorAlgorithm::ALL {
        let decomposer = decomposer(algorithm);
        let mut session = DecompositionSession::new();
        let id = submit(&mut session, &decomposer, &fixture);
        let hier = run_hier(&session, &ThreadPoolExecutor::default()).expect("no tiling");
        let (_, hier) = &hier[0];
        assert_eq!(hier.stats.split_components, 1, "{algorithm}");
        assert!(hier.stats.instance_pieces > 0);
        assert!(hier.stats.boundary_vertices > 0);
        // The merged coloring pays no cross-provenance conflicts, and the
        // independent geometric checker agrees with the recomputed count.
        assert_eq!(hier.stats.cross_conflicts_after, 0, "{algorithm}");
        let violations = verify_spacing(
            session.plan(id).expect("current batch").graph(),
            hier.result.colors(),
            Technology::nm20().coloring_distance(4),
        );
        assert_eq!(violations.len(), hier.result.conflicts(), "{algorithm}");
        assert_eq!(hier.result.conflicts(), 0, "{algorithm}");
    }
}

#[test]
fn coupled_arrays_without_merges_split_into_identical_full_cells() {
    let fixture = bit_cell_array(4, 4, BitArrayStyle::Coupled);
    let decomposer = decomposer(ColorAlgorithm::SdpBacktrack);
    let mut session = DecompositionSession::new();
    let id = submit(&mut session, &decomposer, &fixture);
    let hier = run_hier(&session, &ThreadPoolExecutor::default()).expect("no tiling");
    let (_, hier) = &hier[0];
    assert_eq!(hier.stats.split_components, 1);
    assert_eq!(hier.stats.instance_pieces, 16);
    assert_eq!(hier.stats.boundary_vertices, 0, "nothing merged");
    assert_eq!(hier.stats.cross_conflicts_after, 0);
    let violations = verify_spacing(
        session.plan(id).expect("current batch").graph(),
        hier.result.colors(),
        Technology::nm20().coloring_distance(4),
    );
    assert!(violations.is_empty());
}

#[test]
fn hier_runs_are_schedule_independent() {
    let fixture = bit_cell_array(5, 4, BitArrayStyle::Merged);
    let decomposer = decomposer(ColorAlgorithm::SdpBacktrack);
    let mut session = DecompositionSession::new();
    submit(&mut session, &decomposer, &fixture);
    let serial = run_hier(&session, &ThreadPoolExecutor::default()).expect("no tiling");
    let pooled = run_hier(
        &session,
        &ThreadPoolExecutor::new(4).expect("non-zero threads"),
    )
    .expect("no tiling");
    assert_eq!(serial[0].1.result.colors(), pooled[0].1.result.colors());
    assert_eq!(serial[0].1.stats, pooled[0].1.stats);
    assert_eq!(pooled[0].1.result.executor(), "threads:4");
}

#[test]
fn translation_identical_instances_are_stamped_from_one_master() {
    let fixture = bit_cell_array(6, 4, BitArrayStyle::Coupled);
    let decomposer = decomposer(ColorAlgorithm::SdpBacktrack);
    let mut session = DecompositionSession::new();
    session.set_memo(Some(Arc::new(MemoCache::new(1024))));
    submit(&mut session, &decomposer, &fixture);
    run_hier(&session, &ThreadPoolExecutor::default()).expect("no tiling");
    // All 24 cell bodies share one translation-canonical signature: every
    // piece consulted the cache, but only one master coloring was ever
    // stored — one engine solve, 23 stamps.
    let stats = session.memo().expect("attached").stats();
    assert_eq!(stats.entries, 1, "one canonical master cell stored");
    assert_eq!(stats.misses, 24, "every piece consulted the cold cache");
}

#[test]
fn warm_hier_runs_are_bit_identical_and_all_hits() {
    let fixture = bit_cell_array(4, 3, BitArrayStyle::Merged);
    let decomposer = decomposer(ColorAlgorithm::Linear);
    let mut session = DecompositionSession::new();
    session.set_memo(Some(Arc::new(MemoCache::new(4096))));
    submit(&mut session, &decomposer, &fixture);
    let cold = run_hier(&session, &ThreadPoolExecutor::default()).expect("no tiling");
    let warm = run_hier(
        &session,
        &ThreadPoolExecutor::new(3).expect("non-zero threads"),
    )
    .expect("no tiling");
    assert_eq!(cold[0].1.result.colors(), warm[0].1.result.colors());
    assert_eq!(cold[0].1.stats, warm[0].1.stats);
    // Every piece of the warm run is stamped from the cache, so the merged
    // component reports an aggregate hit.
    assert!(warm[0]
        .1
        .result
        .component_stats()
        .iter()
        .all(|stats| stats.memo_hit == Some(true)));
}

#[test]
fn sessions_without_hierarchies_degenerate_to_the_memoized_flat_run() {
    let layout = gen::fig1_contact_clique(&Technology::nm20());
    let decomposer = decomposer(ColorAlgorithm::Linear);
    let mut session = DecompositionSession::new();
    session
        .submit_layout(&decomposer, &layout)
        .expect("valid config");
    let mut flat = DecompositionSession::new().with_memo(Arc::new(MemoCache::new(1024)));
    flat.submit_layout(&decomposer, &layout)
        .expect("valid config");
    let reference = flat.run(&ThreadPoolExecutor::default());
    let hier = run_hier(&session, &ThreadPoolExecutor::default()).expect("no tiling");
    assert_eq!(hier[0].1.result.colors(), reference[0].1.colors());
    assert_eq!(hier[0].1.stats.instances, 0);
    assert_eq!(hier[0].1.stats.split_components, 0);
    assert_eq!(
        hier[0].1.stats.resident_components,
        reference[0].1.component_count()
    );
}

#[test]
fn hier_and_tiling_cannot_be_combined() {
    let fixture = bit_cell_array(2, 2, BitArrayStyle::Isolated);
    let decomposer = decomposer(ColorAlgorithm::Linear);
    let mut session = DecompositionSession::new();
    session.set_tiling(Some(TileConfig::new(Nm(400))));
    submit(&mut session, &decomposer, &fixture);
    assert_eq!(
        run_hier(&session, &ThreadPoolExecutor::default()).unwrap_err(),
        ConfigError::HierWithTiling
    );
}

#[test]
fn progress_reports_one_tick_per_inner_decomposition() {
    struct Counting {
        ticks: AtomicUsize,
        last: AtomicUsize,
        total: AtomicUsize,
    }
    impl Progress for Counting {
        fn done(&self, layout: LayoutId, done: usize, total: usize) {
            assert_eq!(layout.index(), 0);
            assert!(done <= total);
            self.ticks.fetch_add(1, Ordering::Relaxed);
            self.last.fetch_max(done, Ordering::Relaxed);
            self.total.store(total, Ordering::Relaxed);
        }
    }
    let fixture = bit_cell_array(3, 2, BitArrayStyle::Merged);
    let decomposer = decomposer(ColorAlgorithm::Linear);
    let mut session = DecompositionSession::new();
    submit(&mut session, &decomposer, &fixture);
    let progress = Counting {
        ticks: AtomicUsize::new(0),
        last: AtomicUsize::new(0),
        total: AtomicUsize::new(0),
    };
    let hier =
        run_hier_observed(&session, &ThreadPoolExecutor::default(), &progress).expect("no tiling");
    let stats = &hier[0].1.stats;
    let expected = stats.instance_pieces
        + stats.split_components.min(1) * usize::from(stats.boundary_vertices > 0)
        + usize::from(stats.resident_components > 0);
    assert_eq!(progress.ticks.load(Ordering::Relaxed), expected);
    assert_eq!(progress.last.load(Ordering::Relaxed), expected);
    assert_eq!(progress.total.load(Ordering::Relaxed), expected);
}

#[test]
fn mixed_batches_keep_per_layout_results_in_submission_order() {
    let decomposer = decomposer(ColorAlgorithm::Linear);
    let merged = bit_cell_array(3, 3, BitArrayStyle::Merged);
    let mut session = DecompositionSession::new();
    let a = submit(&mut session, &decomposer, &merged);
    // The second layout has no hierarchy at all.
    let b = session
        .submit_layout(&decomposer, &gen::fig1_contact_clique(&Technology::nm20()))
        .expect("valid config");
    let results =
        run_hier(&session, &ThreadPoolExecutor::new(2).expect("threads")).expect("no tiling");
    assert_eq!(results.len(), 2);
    assert_eq!(results[0].0, a);
    assert_eq!(results[1].0, b);
    assert!(results[0].1.stats.split_components > 0);
    assert_eq!(results[1].1.stats.split_components, 0);
}
