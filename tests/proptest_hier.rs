//! Property-based tests of the cell-level hierarchical driver's two core
//! guarantees, checked against the flat pipeline on bit-cell arrays of
//! random dimensions:
//!
//! 1. **Isolated-instance identity** — when no component crosses an
//!    instance boundary, every component is resident or a whole-instance
//!    stamp and the hierarchical coloring is bit-identical to the flat
//!    *memoized* session's, for every engine and both pool sizes.  This is
//!    the contract that lets the driver skip reconciliation entirely for
//!    well-separated standard-cell rows.
//! 2. **Spacing consistency** — for arrays whose cell geometry merges
//!    across instance boundaries (the case reconciliation exists for),
//!    the merged coloring answers to the same geometric checker as a flat
//!    run: every spacing violation is a counted conflict, nothing hides in
//!    an instance seam, and reconciliation never increases the number of
//!    cross-instance conflicts.

use mpl_core::{
    verify_spacing, ColorAlgorithm, Decomposer, DecomposerConfig, DecompositionSession, MemoCache,
    ThreadPoolExecutor,
};
use mpl_hier::fixtures::{bit_cell_array, BitArrayStyle};
use mpl_hier::{run_hier, HierStats};
use mpl_layout::{Layout, LayoutHierarchy, Technology};
use proptest::prelude::*;
use std::sync::Arc;

const ENGINES: [ColorAlgorithm; 4] = [
    ColorAlgorithm::Ilp,
    ColorAlgorithm::SdpBacktrack,
    ColorAlgorithm::SdpGreedy,
    ColorAlgorithm::Linear,
];

/// Runs `layout` flat through a memoized session and returns its coloring.
/// The memo cache is what the hierarchical driver shares semantics with:
/// stamped colorings are a pure function of the component's canonical
/// signature, independent of executor and cache state.
fn flat_memo_colors(
    layout: &Layout,
    algorithm: ColorAlgorithm,
    executor: &ThreadPoolExecutor,
) -> Vec<u8> {
    let config = DecomposerConfig::quadruple(Technology::nm20()).with_algorithm(algorithm);
    let decomposer = Decomposer::new(config);
    let mut session = DecompositionSession::new()
        .with_memo(Arc::new(MemoCache::new(MemoCache::DEFAULT_CAPACITY)));
    session
        .submit_layout(&decomposer, layout)
        .expect("valid config");
    session
        .run(executor)
        .into_iter()
        .next()
        .expect("one layout")
        .1
        .colors()
        .to_vec()
}

/// Runs `layout` through the hierarchical driver and returns the merged
/// coloring, the reported conflict count, the hierarchy stats, and the
/// spacing-violation count of the merged coloring under the flat checker.
fn hier_outcome(
    layout: &Layout,
    hierarchy: LayoutHierarchy,
    algorithm: ColorAlgorithm,
    executor: &ThreadPoolExecutor,
) -> (Vec<u8>, usize, HierStats, usize) {
    let config = DecomposerConfig::quadruple(Technology::nm20()).with_algorithm(algorithm);
    let decomposer = Decomposer::new(config);
    let mut session = DecompositionSession::new();
    let id = session
        .submit_layout(&decomposer, layout)
        .expect("valid config");
    session.set_hierarchy(id, Some(Arc::new(hierarchy)));
    let results = run_hier(&session, executor).expect("no tiling attached");
    let (id, hier) = results.into_iter().next().expect("one layout");
    let plan = session.plan(id).expect("plan retained");
    let violations = verify_spacing(
        plan.graph(),
        hier.result.colors(),
        Technology::nm20().coloring_distance(4),
    )
    .len();
    (
        hier.result.colors().to_vec(),
        hier.result.conflicts(),
        hier.stats,
        violations,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn isolated_arrays_reproduce_flat_memoized_bits_for_every_engine(
        nx in 1usize..5,
        ny in 1usize..4,
    ) {
        let pool = ThreadPoolExecutor::new(2).expect("two threads");
        for algorithm in ENGINES {
            let executors: [&ThreadPoolExecutor; 2] = [&ThreadPoolExecutor::default(), &pool];
            for executor in executors {
                let (layout, hierarchy) = bit_cell_array(nx, ny, BitArrayStyle::Isolated);
                let flat = flat_memo_colors(&layout, algorithm, executor);
                let (hier, conflicts, stats, violations) =
                    hier_outcome(&layout, hierarchy, algorithm, executor);
                prop_assert_eq!(
                    &hier, &flat,
                    "algorithm {:?} diverged from the flat memoized path on a {}x{} isolated array",
                    algorithm, nx, ny
                );
                prop_assert_eq!(
                    stats.split_components, 0,
                    "no component crosses an instance boundary in the isolated style"
                );
                prop_assert_eq!(stats.instance_pieces, 0, "nothing to reconcile");
                prop_assert_eq!(stats.cross_conflicts_after, 0);
                prop_assert_eq!(violations, conflicts);
            }
        }
    }

    #[test]
    fn merged_arrays_are_spacing_consistent_for_every_engine(
        nx in 2usize..6,
        ny in 1usize..4,
    ) {
        let pool = ThreadPoolExecutor::new(2).expect("two threads");
        for algorithm in ENGINES {
            let executors: [&ThreadPoolExecutor; 2] = [&ThreadPoolExecutor::default(), &pool];
            for executor in executors {
                let (layout, hierarchy) = bit_cell_array(nx, ny, BitArrayStyle::Merged);
                let (_, conflicts, stats, violations) =
                    hier_outcome(&layout, hierarchy, algorithm, executor);
                prop_assert_eq!(
                    violations, conflicts,
                    "algorithm {:?} on a {}x{} merged array: merged coloring has {} spacing \
                     violations but reports {} conflicts",
                    algorithm, nx, ny, violations, conflicts
                );
                prop_assert!(
                    stats.cross_conflicts_after <= stats.cross_conflicts_before,
                    "algorithm {:?}: reconciliation went from {} to {} cross-instance conflicts",
                    algorithm, stats.cross_conflicts_before, stats.cross_conflicts_after
                );
                prop_assert_eq!(
                    stats.instance_pieces, nx * ny,
                    "the merged tab chains every instance into one split component"
                );
            }
        }
    }
}
