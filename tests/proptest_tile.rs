//! Property-based tests of the tiled sharding driver's two core
//! guarantees, checked against the untiled pipeline on random layouts:
//!
//! 1. **Spacing consistency** — for any layout and any tile size, the
//!    merged tiled coloring answers to the same geometric checker as an
//!    untiled run: every spacing violation is a counted conflict, nothing
//!    hides in a window seam.  Reconciliation never increases the number
//!    of cross-window conflicts.
//! 2. **One-window identity** — when every component fits inside a single
//!    tile window, the tiled driver takes the resident path and the
//!    coloring is bit-identical to the untiled session's, for every
//!    engine and both pool sizes.

use mpl_core::{
    verify_spacing, ColorAlgorithm, Decomposer, DecomposerConfig, DecompositionSession, MemoCache,
    ThreadPoolExecutor, TileConfig,
};
use mpl_geometry::Nm;
use mpl_layout::{Layout, Technology};
use mpl_tile::{run_tiled, TileStats};
use proptest::prelude::*;

/// Grid features (contact or short wire) on a 40×60 nm step — the same
/// generator the memo properties use, dense enough that neighbouring
/// features conflict and components can straddle small tile windows.
fn layout_from(features: &[(i64, i64, bool)], name: &str) -> Layout {
    let mut builder = Layout::builder(name);
    for &(gx, gy, is_wire) in features {
        let x = Nm(gx * 40);
        let y = Nm(gy * 60);
        if is_wire {
            builder.add_rect(mpl_geometry::Rect::new(x, y, x + Nm(140), y + Nm(20)));
        } else {
            builder.add_contact(x, y, Nm(20));
        }
    }
    builder.build()
}

fn arb_features() -> impl Strategy<Value = Vec<(i64, i64, bool)>> {
    prop::collection::vec((0i64..14, 0i64..6, prop::bool::weighted(0.25)), 1..32)
}

const ENGINES: [ColorAlgorithm; 4] = [
    ColorAlgorithm::Ilp,
    ColorAlgorithm::SdpBacktrack,
    ColorAlgorithm::SdpGreedy,
    ColorAlgorithm::Linear,
];

/// Runs `layout` untiled and returns its coloring.
fn untiled_colors(
    layout: &Layout,
    algorithm: ColorAlgorithm,
    executor: &ThreadPoolExecutor,
) -> Vec<u8> {
    let config = DecomposerConfig::quadruple(Technology::nm20()).with_algorithm(algorithm);
    let decomposer = Decomposer::new(config);
    let mut session = DecompositionSession::new();
    session
        .submit_layout(&decomposer, layout)
        .expect("valid config");
    let results = session.run(executor);
    results
        .into_iter()
        .next()
        .expect("one layout")
        .1
        .colors()
        .to_vec()
}

/// Runs `layout` through the tiled driver and returns the coloring, the
/// reported conflict count, the tile stats, and the spacing-violation
/// count of the merged coloring under the untiled checker.
fn tiled_outcome(
    layout: &Layout,
    algorithm: ColorAlgorithm,
    executor: &ThreadPoolExecutor,
    tiling: TileConfig,
) -> (Vec<u8>, usize, TileStats, usize) {
    let config = DecomposerConfig::quadruple(Technology::nm20()).with_algorithm(algorithm);
    let decomposer = Decomposer::new(config);
    let mut session = DecompositionSession::new();
    session.set_tiling(Some(tiling));
    session
        .submit_layout(&decomposer, layout)
        .expect("valid config");
    let results = run_tiled(&session, executor).expect("valid tiling");
    let (id, tiled) = results.into_iter().next().expect("one layout");
    let plan = session.plan(id).expect("plan retained");
    let violations = verify_spacing(
        plan.graph(),
        tiled.result.colors(),
        Technology::nm20().coloring_distance(4),
    )
    .len();
    (
        tiled.result.colors().to_vec(),
        tiled.result.conflicts(),
        tiled.stats,
        violations,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn tiled_colorings_are_spacing_consistent_for_every_engine(
        features in arb_features(),
        tile_step in 0usize..3,
    ) {
        let layout = layout_from(&features, "tile-prop");
        let tile_size = Nm([200, 300, 450][tile_step]);
        let pool = ThreadPoolExecutor::new(2).expect("two threads");
        for algorithm in ENGINES {
            let executors: [&ThreadPoolExecutor; 2] = [&ThreadPoolExecutor::default(), &pool];
            for executor in executors {
                let (_, conflicts, stats, violations) =
                    tiled_outcome(&layout, algorithm, executor, TileConfig::new(tile_size));
                prop_assert_eq!(
                    violations, conflicts,
                    "algorithm {:?}, tile {}: merged coloring has {} spacing violations but reports {} conflicts",
                    algorithm, tile_size, violations, conflicts
                );
                prop_assert!(
                    stats.cross_conflicts_after <= stats.cross_conflicts_before,
                    "algorithm {:?}, tile {}: reconciliation went from {} to {} cross-window conflicts",
                    algorithm, tile_size, stats.cross_conflicts_before, stats.cross_conflicts_after
                );
            }
        }
    }

    #[test]
    fn one_window_tilings_reproduce_untiled_bits_for_every_engine(
        features in arb_features(),
    ) {
        let layout = layout_from(&features, "tile-prop-one-window");
        let pool = ThreadPoolExecutor::new(2).expect("two threads");
        // The feature grid spans < 1 µm, so every component fits one window.
        let tiling = TileConfig::new(Nm(1_000_000));
        for algorithm in ENGINES {
            let executors: [&ThreadPoolExecutor; 2] = [&ThreadPoolExecutor::default(), &pool];
            for executor in executors {
                let untiled = untiled_colors(&layout, algorithm, executor);
                let (tiled, conflicts, stats, violations) =
                    tiled_outcome(&layout, algorithm, executor, tiling);
                prop_assert_eq!(
                    &tiled, &untiled,
                    "algorithm {:?} diverged on the one-window path", algorithm
                );
                prop_assert_eq!(stats.tiles, 0, "nothing should shard");
                prop_assert_eq!(stats.grid_x, 1);
                prop_assert_eq!(stats.grid_y, 1);
                prop_assert_eq!(stats.tiled_components, 0);
                prop_assert_eq!(violations, conflicts);
            }
        }
    }
}

/// Memo × tiling regression: a tiled run over a repeated-array layout must
/// hit the shared memo cache across tile windows — the strips land in
/// different windows but are exact translates, so only one canonical strip
/// is ever colored and the rest are stamped — and the merged coloring must
/// stay bit-identical to the untiled memoized run.
#[test]
fn tiled_repeated_arrays_hit_the_shared_memo_across_tiles() {
    use mpl_layout::gen;
    use std::sync::Arc;

    let tech = Technology::nm20();
    // 4×3 identical dense strips, 400 nm of clear space between them: every
    // strip is resident in its own window under a 600 nm tiling, and all
    // twelve share one canonical signature.
    let layout = gen::repeated_strip_array(&tech, 4, 3, 6, Nm(400));
    let config = DecomposerConfig::quadruple(tech).with_algorithm(ColorAlgorithm::Linear);
    let decomposer = Decomposer::new(config);
    let cache = Arc::new(MemoCache::new(MemoCache::DEFAULT_CAPACITY));

    let tiled_run = |cache: &Arc<MemoCache>| {
        let mut session = DecompositionSession::new().with_memo(Arc::clone(cache));
        session.set_tiling(Some(TileConfig::new(Nm(600))));
        session
            .submit_layout(&decomposer, &layout)
            .expect("valid config");
        let results = run_tiled(&session, &ThreadPoolExecutor::default()).expect("valid tiling");
        results.into_iter().next().expect("one layout").1
    };

    let cold = tiled_run(&cache);
    // The grid actually sharded the chip, and the cache was shared across
    // those windows: one canonical strip colored fresh, the other eleven
    // stamped from it at collection time even though they sit in different
    // tile windows.
    assert!(
        cold.stats.grid_x > 1 && cold.stats.grid_y > 1,
        "the array should span a multi-window grid, got {}x{}",
        cold.stats.grid_x,
        cold.stats.grid_y
    );
    assert_eq!(cold.stats.resident_components, 12);
    assert_eq!(cold.result.memo_misses(), Some(1), "one lead coloring");
    assert_eq!(cold.result.memo_hits(), Some(11), "eleven stamped copies");
    assert_eq!(cache.stats().entries, 1, "one canonical strip stored");

    // A second tiled run against the now-warm shared cache stamps every
    // strip straight from the cache — true cross-run hits.
    let warm = tiled_run(&cache);
    assert_eq!(warm.result.memo_hits(), Some(12));
    assert_eq!(cache.stats().hits, 12);
    assert_eq!(warm.result.colors(), cold.result.colors());

    // Bit-identical to the untiled memoized run (with its own fresh cache).
    let mut flat_session = DecompositionSession::new()
        .with_memo(Arc::new(MemoCache::new(MemoCache::DEFAULT_CAPACITY)));
    flat_session
        .submit_layout(&decomposer, &layout)
        .expect("valid config");
    let flat = flat_session
        .run(&ThreadPoolExecutor::default())
        .into_iter()
        .next()
        .expect("one layout")
        .1;
    // The dense strip is deliberately over-constrained (some conflicts are
    // unavoidable at K = 4), so the regression pin is identity with the
    // flat memoized run, not zero conflicts.
    assert_eq!(cold.result.colors(), flat.colors());
    assert_eq!(cold.result.conflicts(), flat.conflicts());
}
