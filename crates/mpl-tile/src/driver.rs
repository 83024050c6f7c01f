//! The tiled run driver: validate halos, shard, and hand the partition to
//! the shared partition-and-reconcile driver.

use crate::shard::shard_layout;
use mpl_core::partition::{run_partitioned, Alignment};
use mpl_core::{
    ConfigError, DecompositionResult, DecompositionSession, Executor, LayoutId, Progress,
};
use mpl_geometry::Nm;

/// What the tiler did to one layout.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TileStats {
    /// Grid dimensions laid over the layout bounding box.
    pub grid_x: usize,
    /// See [`grid_x`](TileStats::grid_x).
    pub grid_y: usize,
    /// Occupied tile pieces decomposed as sub-problems (0 when every
    /// component was resident in a single window).
    pub tiles: usize,
    /// Components spanning several windows, decomposed tile by tile.
    pub tiled_components: usize,
    /// Components resident in one window, decomposed whole — exactly as an
    /// untiled run would.
    pub resident_components: usize,
    /// Halo duplication: Σ piece sizes − Σ component sizes over the tiled
    /// components (each shared vertex is colored once per extra piece).
    pub shared_vertices: usize,
    /// Tile colorings rotated by a non-identity permutation during
    /// reconciliation.
    pub permuted_tiles: usize,
    /// Boundary-strip vertices re-colored by the greedy repair fallback.
    pub recolored_vertices: usize,
    /// Cross-window conflicts after the permutation pass, before repair.
    pub cross_conflicts_before: usize,
    /// Cross-window conflicts after repair (what the final coloring pays).
    pub cross_conflicts_after: usize,
}

// The one key list of the `tiles` object: CLI `--json`, `workload`
// report rows and `qpl-serve` result frames.
mpl_core::json_record!(TileStats {
    grid_x,
    grid_y,
    tiles,
    tiled_components,
    resident_components,
    shared_vertices,
    permuted_tiles,
    recolored_vertices,
    cross_conflicts_before,
    cross_conflicts_after,
});

/// A layout's decomposition result together with its tiling statistics.
#[derive(Debug)]
pub struct TiledLayoutResult {
    /// The merged decomposition, assembled over the full layout graph; its
    /// conflict count is recomputed globally and therefore agrees with
    /// [`verify_spacing`](mpl_core::verify_spacing).
    pub result: DecompositionResult,
    /// What the tiler did to produce it.
    pub stats: TileStats,
}

/// Executes the session's batch with the tiling its
/// [`DecompositionSession::tiling`] requests — see
/// [`run_tiled_observed`] for the full contract.
///
/// # Errors
///
/// Propagates the [`ConfigError`]s of [`run_tiled_observed`].
pub fn run_tiled(
    session: &DecompositionSession,
    executor: &dyn Executor,
) -> Result<Vec<(LayoutId, TiledLayoutResult)>, ConfigError> {
    run_tiled_observed(session, executor, &())
}

/// Executes the session's batch tiled, ticking `progress` as each tile
/// piece (or a layout's batch of resident components) finishes, through
/// the [`mpl_core::partition`] driver.
///
/// Components resident in one tile window flow through the ordinary batch
/// engine untouched, so a layout whose components all fit one window gets
/// colors **bit-identical** to `session.run(executor)` (with or without a
/// memo cache attached).  Components spanning several windows are sharded
/// into halo-expanded tile pieces, decomposed as independent sub-problems
/// on the same executor (sharing the session's memo cache, if any), and
/// reconciled deterministically; the merged coloring's conflict count is
/// recomputed over the full graph, so it always agrees with
/// [`verify_spacing`](mpl_core::verify_spacing).  Results are returned in
/// submission order, like [`DecompositionSession::run`].
///
/// When the session requests no tiling, this is
/// `session.run_observed(executor, progress)`, ticking once per component,
/// with degenerate (all-resident) statistics.
///
/// # Errors
///
/// Returns the [`ConfigError`] of an invalid [`mpl_core::TileConfig`], or
/// [`ConfigError::TileHalo`] when an explicit halo is smaller than some
/// submitted plan's coloring distance (tiles would then miss conflicts
/// crossing window boundaries).
pub fn run_tiled_observed(
    session: &DecompositionSession,
    executor: &dyn Executor,
    progress: &dyn Progress,
) -> Result<Vec<(LayoutId, TiledLayoutResult)>, ConfigError> {
    let Some(tiling) = session.tiling() else {
        return Ok(session
            .run_observed(executor, progress)
            .into_iter()
            .map(|(id, result)| {
                let stats = TileStats {
                    grid_x: 1,
                    grid_y: 1,
                    resident_components: result.component_count(),
                    ..TileStats::default()
                };
                (id, TiledLayoutResult { result, stats })
            })
            .collect());
    };
    tiling.validate()?;

    // Halos must cover every submitted plan's coloring distance, or a
    // conflict crossing a window boundary could be invisible to both sides.
    let halos = session
        .plans()
        .map(|(_, plan)| {
            let config = plan.config();
            let minimum = config.technology.coloring_distance(config.k);
            let halo = match tiling.halo {
                Some(halo) if halo < minimum => {
                    return Err(ConfigError::TileHalo { halo: halo.value() })
                }
                Some(halo) => halo,
                None => config.technology.color_friendly_distance(config.k),
            };
            // validate() already rejects dominating explicit halos; re-check
            // the derived default against the tile size too.
            if halo >= tiling.tile_size {
                return Err(ConfigError::TileHaloDominates {
                    halo: halo.value(),
                    tile_size: tiling.tile_size.value(),
                });
            }
            Ok(halo)
        })
        .collect::<Result<Vec<Nm>, ConfigError>>()?;

    // Resident components keep their original tasks, multi-window
    // components become per-tile pieces aligned on their shared halo
    // vertices.
    let (partitions, stats): (Vec<_>, Vec<_>) = session
        .plans()
        .zip(halos)
        .map(|((_, plan), halo)| shard_layout(plan, tiling.tile_size, halo))
        .unzip();
    let results = run_partitioned(
        session,
        executor,
        &partitions,
        Alignment::Anchors,
        session.memo().cloned(),
        progress,
    );
    Ok(results
        .into_iter()
        .zip(stats)
        .map(|((id, result, reconciled), stats)| {
            let stats = TileStats {
                permuted_tiles: reconciled.permuted_pieces,
                recolored_vertices: reconciled.recolored_vertices,
                cross_conflicts_before: reconciled.cross_conflicts_before,
                cross_conflicts_after: reconciled.cross_conflicts_after,
                ..stats
            };
            (id, TiledLayoutResult { result, stats })
        })
        .collect())
}
