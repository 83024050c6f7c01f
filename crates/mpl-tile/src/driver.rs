//! The tiled run driver: shard, decompose through the batch engine,
//! reconcile, assemble.

use crate::grid::TileGrid;
use crate::reconcile::reconcile;
use crate::shard::{owners, shard_giant, GiantShard};
use mpl_core::{
    ComponentStats, ConfigError, Decomposer, DecompositionObserver, DecompositionPlan,
    DecompositionResult, DecompositionSession, Executor, LayoutId, VertexId,
};
use mpl_geometry::{Nm, Rect};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

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

/// Streaming notifications of a tiled run's per-tile progress.
pub trait TileProgress: Sync {
    /// A tile sub-problem (or the layout's resident batch) finished:
    /// `done` of `total` inner decompositions of `layout` are complete.
    fn tile_done(&self, layout: LayoutId, done: usize, total: usize) {
        let _ = (layout, done, total);
    }
}

/// Ignores all progress (the [`run_tiled`] default).
#[derive(Debug, Default, Clone, Copy)]
pub struct NoTileProgress;

impl TileProgress for NoTileProgress {}

/// How one outer layout maps onto inner submissions.
struct LayoutShards {
    /// Original task indices of components resident in one window.
    resident: Vec<usize>,
    /// Sharded multi-window components.
    giants: Vec<GiantShard>,
    grid: Option<TileGrid>,
}

/// What one inner submission carries, in inner submission order.
enum Submission {
    /// All resident tasks of outer layout `slot`, batched as one plan.
    Resident { slot: usize },
    /// Tile `tile` of giant `giant` of outer layout `slot`.
    Piece {
        slot: usize,
        giant: usize,
        tile: usize,
    },
}

/// Maps inner plan completions to per-layout tile progress ticks.
struct TileObserver<'a> {
    progress: &'a dyn TileProgress,
    /// Inner slot → (outer id, outer slot).
    map: Vec<(LayoutId, usize)>,
    /// Inner submissions per outer slot.
    totals: Vec<usize>,
    done: Vec<AtomicUsize>,
}

impl DecompositionObserver for TileObserver<'_> {
    fn execution_finished(&self, inner: LayoutId, _result: &DecompositionResult) {
        let (outer, slot) = self.map[inner.index()];
        let done = self.done[slot].fetch_add(1, Ordering::Relaxed) + 1;
        self.progress.tile_done(outer, done, self.totals[slot]);
    }
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
    run_tiled_observed(session, executor, &NoTileProgress)
}

/// Executes the session's batch tiled, streaming per-tile progress.
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
/// `session.run_observed(executor, …)` with degenerate (all-resident)
/// statistics.
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
    progress: &dyn TileProgress,
) -> Result<Vec<(LayoutId, TiledLayoutResult)>, ConfigError> {
    let Some(tiling) = session.tiling() else {
        return Ok(session
            .run(executor)
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
    let plans: Vec<(LayoutId, &DecompositionPlan)> = session.plans().collect();
    let mut halos = Vec::with_capacity(plans.len());
    for &(_, plan) in &plans {
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
        halos.push(halo);
    }

    // Shard every layout: resident components keep their original tasks,
    // multi-window components become per-tile pieces.
    let shards: Vec<LayoutShards> = plans
        .iter()
        .zip(&halos)
        .map(|(&(_, plan), &halo)| shard_layout(plan, tiling.tile_size, halo))
        .collect();

    // One inner session: the resident batch of each layout plus every tile
    // piece, all drained through one shared largest-first queue (and the
    // session's memo cache, when attached).
    let mut inner = DecompositionSession::new();
    inner.set_memo(session.memo().cloned());
    let mut submissions = Vec::new();
    let mut totals = vec![0usize; plans.len()];
    for (slot, (&(outer, plan), shard)) in plans.iter().zip(&shards).enumerate() {
        // A cancel token on the outer submission covers every inner
        // sub-problem carved out of it: resident batches and tile pieces
        // alike skip (or stop mid-search) once the token fires.
        let cancel = session.cancel_token(outer).cloned();
        if !shard.resident.is_empty() {
            let decomposer = Decomposer::new(plan.config().clone());
            let subproblems = shard
                .resident
                .iter()
                .map(|&index| {
                    let task = &plan.tasks()[index];
                    (task.problem().clone(), task.to_global().to_vec())
                })
                .collect();
            let inner_id = inner.submit(DecompositionPlan::for_subproblems(
                decomposer,
                plan.layout_name().to_string(),
                plan.graph_shared(),
                subproblems,
            ));
            inner.set_cancel(inner_id, cancel.clone());
            submissions.push(Submission::Resident { slot });
            totals[slot] += 1;
        }
        for (giant, shard) in shard.giants.iter().enumerate() {
            let task = &plan.tasks()[shard.task_index];
            for (tile, piece) in shard.tiles.iter().enumerate() {
                let decomposer = Decomposer::new(plan.config().clone());
                let to_global: Vec<usize> = piece
                    .piece
                    .iter()
                    .map(|&local| task.to_global()[local])
                    .collect();
                let inner_id = inner.submit(DecompositionPlan::for_subproblems(
                    decomposer,
                    format!(
                        "{}/c{}t{}.{}",
                        plan.layout_name(),
                        shard.task_index,
                        piece.iy,
                        piece.ix
                    ),
                    plan.graph_shared(),
                    vec![(piece.problem.clone(), to_global)],
                ));
                inner.set_cancel(inner_id, cancel.clone());
                submissions.push(Submission::Piece { slot, giant, tile });
                totals[slot] += 1;
            }
        }
    }

    let observer = TileObserver {
        progress,
        map: submissions
            .iter()
            .map(|submission| match submission {
                Submission::Resident { slot } | Submission::Piece { slot, .. } => {
                    (plans[*slot].0, *slot)
                }
            })
            .collect(),
        totals: totals.clone(),
        done: totals.iter().map(|_| AtomicUsize::new(0)).collect(),
    };
    let inner_results = inner.run_observed(executor, &observer);

    // Assemble: scatter resident colors, reconcile giants, rebuild one
    // result per outer layout over its full graph.
    let mut assemblies: Vec<Assembly> = plans
        .iter()
        .zip(&shards)
        .map(|(&(_, plan), shard)| Assembly {
            colors: vec![0u8; plan.graph().vertex_count()],
            components: vec![None; plan.tasks().len()],
            piece_colors: shard
                .giants
                .iter()
                .map(|giant| vec![Vec::new(); giant.tiles.len()])
                .collect(),
            color_time: Duration::ZERO,
        })
        .collect();
    let mut piece_stats: Vec<Vec<Vec<ComponentStats>>> = shards
        .iter()
        .map(|shard| {
            shard
                .giants
                .iter()
                .map(|giant| Vec::with_capacity(giant.tiles.len()))
                .collect()
        })
        .collect();

    for (submission, (_, inner_result)) in submissions.iter().zip(inner_results) {
        match submission {
            Submission::Resident { slot } => {
                let assembly = &mut assemblies[*slot];
                let plan = plans[*slot].1;
                let shard = &shards[*slot];
                for (position, &index) in shard.resident.iter().enumerate() {
                    let task = &plan.tasks()[index];
                    for &global in task.to_global() {
                        assembly.colors[global] = inner_result.colors()[global];
                    }
                    let mut stats = inner_result.component_stats()[position].clone();
                    stats.index = index;
                    assembly.components[index] = Some(stats);
                }
                assembly.color_time = assembly.color_time.max(inner_result.color_time());
            }
            Submission::Piece { slot, giant, tile } => {
                let plan = plans[*slot].1;
                let shard = &shards[*slot].giants[*giant];
                let task = &plan.tasks()[shard.task_index];
                let piece = &shard.tiles[*tile];
                assemblies[*slot].piece_colors[*giant][*tile] = piece
                    .piece
                    .iter()
                    .map(|&local| inner_result.colors()[task.to_global()[local]])
                    .collect();
                piece_stats[*slot][*giant].push(inner_result.component_stats()[0].clone());
                assemblies[*slot].color_time =
                    assemblies[*slot].color_time.max(inner_result.color_time());
            }
        }
    }

    let memo_attached = session.memo().is_some();
    let mut results = Vec::with_capacity(plans.len());
    for (slot, (&(id, plan), shard)) in plans.iter().zip(&shards).enumerate() {
        let assembly = &mut assemblies[slot];
        let mut stats = TileStats {
            grid_x: shard.grid.map_or(1, |grid| grid.grid_x()),
            grid_y: shard.grid.map_or(1, |grid| grid.grid_y()),
            tiles: shard.giants.iter().map(|giant| giant.tiles.len()).sum(),
            tiled_components: shard.giants.len(),
            resident_components: shard.resident.len(),
            ..TileStats::default()
        };
        for (giant, shard) in shard.giants.iter().enumerate() {
            let task = &plan.tasks()[shard.task_index];
            let problem = task.problem();
            let (merged, outcome) = reconcile(shard, problem, &assembly.piece_colors[giant]);
            for (local, &global) in task.to_global().iter().enumerate() {
                assembly.colors[global] = merged[local];
            }
            stats.shared_vertices += shard
                .tiles
                .iter()
                .map(|piece| piece.piece.len())
                .sum::<usize>()
                - problem.vertex_count();
            stats.permuted_tiles += outcome.permuted_tiles;
            stats.recolored_vertices += outcome.recolored_vertices;
            stats.cross_conflicts_before += outcome.cross_conflicts_before;
            stats.cross_conflicts_after += outcome.cross_conflicts_after;
            assembly.components[shard.task_index] = Some(merged_component_stats(
                shard.task_index,
                problem,
                &merged,
                &piece_stats[slot][giant],
                memo_attached,
            ));
        }
        let components = assembly
            .components
            .iter_mut()
            .map(|stats| stats.take().expect("every task is resident or sharded"))
            .collect();
        let result = DecompositionResult::assemble(
            plan,
            executor.name(),
            std::mem::take(&mut assembly.colors),
            components,
            assembly.color_time,
        );
        results.push((id, TiledLayoutResult { result, stats }));
    }
    Ok(results)
}

/// Per-layout scratch while scattering inner results back.
struct Assembly {
    colors: Vec<u8>,
    components: Vec<Option<ComponentStats>>,
    /// `piece_colors[giant][tile][i]` is the color tile `tile` assigned to
    /// piece vertex `i` of giant `giant`.
    piece_colors: Vec<Vec<Vec<u8>>>,
    color_time: Duration,
}

/// Classifies a plan's tasks into residents and sharded giants.
fn shard_layout(plan: &DecompositionPlan, tile_size: Nm, halo: Nm) -> LayoutShards {
    let graph = plan.graph();
    let Some(bbox) = layout_bbox(graph) else {
        return LayoutShards {
            resident: Vec::new(),
            giants: Vec::new(),
            grid: None,
        };
    };
    let grid = TileGrid::new(bbox, tile_size);
    let mut resident = Vec::new();
    let mut giants = Vec::new();
    for task in plan.tasks() {
        let owner = owners(&grid, graph, task);
        if owner.windows(2).all(|pair| pair[0] == pair[1]) {
            resident.push(task.index());
        } else {
            giants.push(shard_giant(&grid, graph, task, owner, halo));
        }
    }
    LayoutShards {
        resident,
        giants,
        grid: Some(grid),
    }
}

/// Bounding box of every polygon in the graph (`None` for empty layouts).
fn layout_bbox(graph: &mpl_core::DecompositionGraph) -> Option<Rect> {
    (0..graph.vertex_count())
        .map(|index| graph.polygon(VertexId(index)).bounding_box())
        .reduce(|a, b| a.union_bbox(&b))
}

/// Synthesizes the merged component's statistics from its piece runs: the
/// quality numbers are re-evaluated on the reconciled coloring, the work
/// counters are summed over the pieces.
fn merged_component_stats(
    index: usize,
    problem: &mpl_core::ComponentProblem,
    merged: &[u8],
    pieces: &[ComponentStats],
    memo_attached: bool,
) -> ComponentStats {
    let (conflicts, stitches, cost) = problem.evaluate(merged);
    ComponentStats {
        index,
        vertex_count: problem.vertex_count(),
        conflict_edge_count: problem.conflict_edges().len(),
        stitch_edge_count: problem.stitch_edges().len(),
        conflicts,
        stitches,
        cost,
        time: pieces.iter().map(|stats| stats.time).sum(),
        division_time: pieces.iter().map(|stats| stats.division_time).sum(),
        bnb_nodes: pieces.iter().map(|stats| stats.bnb_nodes).sum(),
        hit_time_limit: pieces.iter().any(|stats| stats.hit_time_limit),
        augmenting_paths: pieces.iter().map(|stats| stats.augmenting_paths).sum(),
        augmenting_path_bound: pieces.iter().map(|stats| stats.augmenting_path_bound).sum(),
        arc_scans: pieces.iter().map(|stats| stats.arc_scans).sum(),
        scratch_allocs: pieces.iter().map(|stats| stats.scratch_allocs).sum(),
        hidden_vertices: pieces.iter().map(|stats| stats.hidden_vertices).sum(),
        kernel_vertices: pieces.iter().map(|stats| stats.kernel_vertices).sum(),
        simplify_rounds: pieces.iter().map(|stats| stats.simplify_rounds).sum(),
        bound_improvements: pieces.iter().map(|stats| stats.bound_improvements).sum(),
        cancelled: pieces.iter().any(|stats| stats.cancelled),
        deadline_exceeded: pieces.iter().any(|stats| stats.deadline_exceeded),
        skipped: pieces.iter().any(|stats| stats.skipped),
        memo_hit: memo_attached.then(|| pieces.iter().all(|stats| stats.memo_hit == Some(true))),
    }
}
