//! Tiled and hierarchical runs through the partition-and-reconcile driver.
//!
//! Three checks:
//!
//! - **Pinned colorings.** Three Linear-engine runs whose merged colors
//!   (as an FNV-1a digest) and full [`TileStats`]/[`HierStats`] are fixed
//!   numbers: a change to sharding, splitting, piece alignment or boundary
//!   repair that alters any color or counter fails here.
//! - **Derived stats recount.** A split component's stats are synthesized
//!   from its pieces rather than reported by an engine, so every
//!   `component_stats()` entry and the layout totals are recounted here
//!   from the plan's graph edges and the returned colors, for all four
//!   engines, serial and pooled, and under an already-expired deadline.
//! - **Streamed piece progress.** A tile or hierarchical piece ticks its
//!   layout's progress as soon as it finishes, while the other pieces still
//!   wait: a tick that cancels the run leaves them skipped.

use mpl_core::{
    CancelToken, ColorAlgorithm, Decomposer, DecomposerConfig, DecompositionResult,
    DecompositionSession, Executor, LayoutId, Progress, SerialExecutor, ThreadPoolExecutor,
    TileConfig,
};
use mpl_geometry::Nm;
use mpl_hier::fixtures::{bit_cell_array, BitArrayStyle};
use mpl_hier::{run_hier, run_hier_observed, HierStats};
use mpl_layout::{gen, Layout, LayoutHierarchy, Technology};
use mpl_tile::{run_tiled, run_tiled_observed, TileStats};
use std::sync::Arc;
use std::time::Instant;

fn decomposer(algorithm: ColorAlgorithm) -> Decomposer {
    Decomposer::new(DecomposerConfig::k_patterning(4, Technology::nm20()).with_algorithm(algorithm))
}

/// A 24×24 contact lattice at 70 nm pitch: one connected component spanning
/// a 1.6 µm square, so 400 nm tiles cut it into 16 windows.
fn lattice() -> Layout {
    gen::contact_array(&Technology::nm20(), 24, 24, Nm(70))
}

fn hier_array_fixture() -> (Layout, LayoutHierarchy) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/hier_array.gds");
    let bytes = std::fs::read(path).expect("committed fixture reads");
    match mpl_gds::layout_from_bytes(
        path,
        &bytes,
        &mpl_gds::LayerMap::all(),
        &mpl_gds::ReadOptions::default(),
    ) {
        Ok((layout, Some(hierarchy))) => (layout, hierarchy),
        other => panic!("committed fixture loads with its hierarchy: {other:?}"),
    }
}

/// 64-bit FNV-1a: a digest that is stable across platforms and toolchains.
fn digest(colors: &[u8]) -> u64 {
    colors.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn tiled(
    layout: &Layout,
    algorithm: ColorAlgorithm,
    executor: &dyn Executor,
    deadline: Option<CancelToken>,
) -> (DecompositionSession, DecompositionResult, TileStats) {
    let mut session = DecompositionSession::new();
    session.set_tiling(Some(TileConfig::new(Nm(400))));
    let id = session
        .submit_layout(&decomposer(algorithm), layout)
        .expect("valid config");
    session.set_cancel(id, deadline);
    let mut results = run_tiled(&session, executor).expect("valid tiling");
    let (_, tiled) = results.pop().expect("one layout");
    (session, tiled.result, tiled.stats)
}

fn hier(
    fixture: &(Layout, LayoutHierarchy),
    algorithm: ColorAlgorithm,
    executor: &dyn Executor,
    deadline: Option<CancelToken>,
) -> (DecompositionSession, DecompositionResult, HierStats) {
    let mut session = DecompositionSession::new();
    let id = session
        .submit_layout(&decomposer(algorithm), &fixture.0)
        .expect("valid config");
    session.set_hierarchy(id, Some(Arc::new(fixture.1.clone())));
    session.set_cancel(id, deadline);
    let mut results = run_hier(&session, executor).expect("no tiling");
    let (_, hier) = results.pop().expect("one layout");
    (session, hier.result, hier.stats)
}

#[test]
fn merged_colorings_and_stats_are_pinned() {
    let (_, result, stats) = tiled(&lattice(), ColorAlgorithm::Linear, &SerialExecutor, None);
    assert_eq!(
        (result.colors().len(), digest(result.colors())),
        (576, 376_290_688_314_658_101),
        "tiled lattice colors"
    );
    assert_eq!(
        stats,
        TileStats {
            grid_x: 5,
            grid_y: 5,
            tiles: 25,
            tiled_components: 1,
            resident_components: 0,
            shared_vertices: 637,
            permuted_tiles: 24,
            recolored_vertices: 17,
            cross_conflicts_before: 56,
            cross_conflicts_after: 34,
        },
        "tiled lattice stats"
    );

    let (_, result, stats) = hier(
        &hier_array_fixture(),
        ColorAlgorithm::Linear,
        &SerialExecutor,
        None,
    );
    assert_eq!(
        (result.colors().len(), digest(result.colors())),
        (60, 7_566_233_514_085_592_913),
        "hier_array.gds colors"
    );
    assert_eq!(
        stats,
        HierStats {
            instances: 12,
            cells: 1,
            nested_inherited: 0,
            resident_components: 0,
            split_components: 1,
            instance_pieces: 12,
            boundary_vertices: 27,
            permuted_pieces: 1,
            recolored_vertices: 0,
            cross_conflicts_before: 0,
            cross_conflicts_after: 0,
        },
        "hier_array.gds stats"
    );

    let (_, result, stats) = hier(
        &bit_cell_array(12, 12, BitArrayStyle::Merged),
        ColorAlgorithm::Linear,
        &SerialExecutor,
        None,
    );
    assert_eq!(
        (result.colors().len(), digest(result.colors())),
        (720, 8_908_215_492_407_351_733),
        "12×12 merged array colors"
    );
    assert_eq!(
        stats,
        HierStats {
            instances: 144,
            cells: 1,
            nested_inherited: 0,
            resident_components: 0,
            split_components: 1,
            instance_pieces: 144,
            boundary_vertices: 396,
            permuted_pieces: 1,
            recolored_vertices: 0,
            cross_conflicts_before: 0,
            cross_conflicts_after: 0,
        },
        "12×12 merged array stats"
    );
}

/// Recounts conflicts, stitches and cost per component and per layout from
/// the plan's graph edges and the returned colors; under an expired
/// deadline every component must also report itself skipped.
fn assert_stats_recount(
    session: &DecompositionSession,
    result: &DecompositionResult,
    expired: bool,
    label: &str,
) {
    let (_, plan) = session.plans().next().expect("one plan");
    let graph = plan.graph();
    let colors = result.colors();
    let alpha = plan.config().alpha;
    let mut component_of = vec![usize::MAX; graph.vertex_count()];
    for task in plan.tasks() {
        for &global in task.to_global() {
            component_of[global] = task.index();
        }
    }
    let mut conflicts = vec![0usize; plan.tasks().len()];
    let mut stitches = vec![0usize; plan.tasks().len()];
    for &(u, v) in graph.conflict_edges() {
        if colors[u] == colors[v] {
            conflicts[component_of[u]] += 1;
        }
    }
    for &(u, v) in graph.stitch_edges() {
        if colors[u] != colors[v] {
            stitches[component_of[u]] += 1;
        }
    }
    assert_eq!(
        result.component_stats().len(),
        plan.tasks().len(),
        "{label}"
    );
    for stats in result.component_stats() {
        let index = stats.index;
        let cost = conflicts[index] as f64 + alpha * stitches[index] as f64;
        assert_eq!(
            stats.conflicts, conflicts[index],
            "{label}: component {index}"
        );
        assert_eq!(
            stats.stitches, stitches[index],
            "{label}: component {index}"
        );
        assert_eq!(stats.cost, cost, "{label}: component {index}");
        assert_eq!(stats.skipped, expired, "{label}: component {index}");
    }
    let total_conflicts: usize = conflicts.iter().sum();
    let total_stitches: usize = stitches.iter().sum();
    assert_eq!(result.conflicts(), total_conflicts, "{label}");
    assert_eq!(result.stitches(), total_stitches, "{label}");
    assert_eq!(
        result.cost(),
        total_conflicts as f64 + alpha * total_stitches as f64,
        "{label}"
    );
    assert_eq!(result.deadline_exceeded(), expired, "{label}");
}

#[test]
fn derived_stats_equal_a_recount_of_the_returned_colors() {
    let lattice = gen::contact_array(&Technology::nm20(), 12, 12, Nm(70));
    let array = bit_cell_array(4, 4, BitArrayStyle::Merged);
    let pool = ThreadPoolExecutor::new(2).expect("non-zero threads");
    let executors: [&dyn Executor; 2] = [&SerialExecutor, &pool];
    for algorithm in ColorAlgorithm::ALL {
        for executor in executors {
            for expired in [false, true] {
                let deadline = || expired.then(|| CancelToken::with_deadline(Instant::now()));
                let label = format!("{algorithm} on {}, expired {expired}", executor.name());

                let (session, result, stats) = tiled(&lattice, algorithm, executor, deadline());
                assert!(stats.tiles > 1, "tiled {label}");
                assert_stats_recount(&session, &result, expired, &format!("tiled {label}"));

                let (session, result, stats) = hier(&array, algorithm, executor, deadline());
                assert!(stats.split_components > 0, "hier {label}");
                assert_stats_recount(&session, &result, expired, &format!("hier {label}"));
            }
        }
    }
}

/// Cancels the layout's token on the first tick it receives.
struct CancelOnFirstTick(CancelToken);

impl Progress for CancelOnFirstTick {
    fn done(&self, _layout: LayoutId, _done: usize, _total: usize) {
        self.0.cancel();
    }
}

#[test]
fn piece_ticks_stream_while_later_pieces_wait() {
    // On the serial executor the first piece tick cancels the layout's
    // token before the next piece starts, so every later piece is skipped
    // and the one split component reports itself cancelled and skipped.
    // Ticks sent only after the last piece finished would cancel nothing.
    let linear = decomposer(ColorAlgorithm::Linear);

    let token = CancelToken::new();
    let mut session = DecompositionSession::new();
    session.set_tiling(Some(TileConfig::new(Nm(400))));
    let id = session
        .submit_layout(&linear, &lattice())
        .expect("valid config");
    session.set_cancel(id, Some(token.clone()));
    let progress = CancelOnFirstTick(token);
    let (_, tiled) = run_tiled_observed(&session, &SerialExecutor, &progress)
        .expect("valid tiling")
        .pop()
        .expect("one layout");
    assert!(tiled.stats.tiles > 1);
    assert!(tiled.result.cancelled(), "tiled");
    assert_eq!(tiled.result.components_skipped(), 1, "tiled");

    let (layout, hierarchy) = bit_cell_array(6, 6, BitArrayStyle::Merged);
    let token = CancelToken::new();
    let mut session = DecompositionSession::new();
    let id = session
        .submit_layout(&linear, &layout)
        .expect("valid config");
    session.set_hierarchy(id, Some(Arc::new(hierarchy)));
    session.set_cancel(id, Some(token.clone()));
    let progress = CancelOnFirstTick(token);
    let (_, hier) = run_hier_observed(&session, &SerialExecutor, &progress)
        .expect("no tiling")
        .pop()
        .expect("one layout");
    assert!(hier.stats.split_components > 0);
    assert!(hier.result.cancelled(), "hier");
    assert_eq!(hier.result.components_skipped(), 1, "hier");
}
