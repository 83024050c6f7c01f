//! Sharding oversized components into halo-expanded tile pieces.
//!
//! A component task whose vertices all share one owner window is *resident*
//! and never sharded — it flows through the ordinary batch engine, which is
//! what makes tiled runs bit-identical to untiled ones on layouts where
//! every component fits a tile.  A component spanning several windows is a
//! *giant*: each occupied window becomes one [`Piece`] owning the window's
//! vertices plus two kinds of context,
//!
//! - the **geometric halo**: every vertex whose polygon bounding box lies
//!   within the halo distance of the window's core rectangle, and
//! - the **edge closure**: every direct conflict/stitch neighbour of an
//!   owned vertex, which guarantees each edge of the component is fully
//!   visible to the piece owning either endpoint even when a long shape's
//!   geometry overhangs its owner window.

use crate::driver::TileStats;
use crate::grid::TileGrid;
use mpl_core::partition::{Partition, Piece, SplitComponent};
use mpl_core::{ComponentTask, DecompositionGraph, DecompositionPlan, VertexId};
use mpl_geometry::{Nm, Rect};
use std::collections::BTreeMap;

/// Classifies a plan's tasks into residents and sharded giants, together
/// with the tiling statistics the partition alone determines.
pub(crate) fn shard_layout(
    plan: &DecompositionPlan,
    tile_size: Nm,
    halo: Nm,
) -> (Partition, TileStats) {
    let graph = plan.graph();
    let mut partition = Partition::default();
    let Some(bbox) = layout_bbox(graph) else {
        let stats = TileStats {
            grid_x: 1,
            grid_y: 1,
            ..TileStats::default()
        };
        return (partition, stats);
    };
    let grid = TileGrid::new(bbox, tile_size);
    for task in plan.tasks() {
        let owner = owners(&grid, graph, task);
        if owner.windows(2).all(|pair| pair[0] == pair[1]) {
            partition.resident.push(task.index());
        } else {
            partition
                .split
                .push(shard_giant(&grid, graph, task, &owner, halo));
        }
    }
    let stats = TileStats {
        grid_x: grid.grid_x(),
        grid_y: grid.grid_y(),
        tiles: partition.split.iter().map(|giant| giant.pieces.len()).sum(),
        tiled_components: partition.split.len(),
        resident_components: partition.resident.len(),
        shared_vertices: partition
            .split
            .iter()
            .map(|giant| {
                let piece_sizes: usize =
                    giant.pieces.iter().map(|piece| piece.vertices.len()).sum();
                piece_sizes - plan.tasks()[giant.task_index].vertex_count()
            })
            .sum(),
        ..TileStats::default()
    };
    (partition, stats)
}

/// Bounding box of every polygon in the graph (`None` for empty layouts).
fn layout_bbox(graph: &DecompositionGraph) -> Option<Rect> {
    (0..graph.vertex_count())
        .map(|index| graph.polygon(VertexId(index)).bounding_box())
        .reduce(|a, b| a.union_bbox(&b))
}

/// The owner window of every vertex of `task`, via its polygon-bbox center.
fn owners(
    grid: &TileGrid,
    graph: &DecompositionGraph,
    task: &ComponentTask,
) -> Vec<(usize, usize)> {
    task.to_global()
        .iter()
        .map(|&global| grid.tile_of(graph.polygon(VertexId(global)).bounding_box().center()))
        .collect()
}

/// Shards `task` into per-window pieces, in row-major `(iy, ix)` window
/// order, with the given halo.
///
/// The caller has already established that the task spans several windows
/// (`owner` is not constant).
fn shard_giant(
    grid: &TileGrid,
    graph: &DecompositionGraph,
    task: &ComponentTask,
    owner: &[(usize, usize)],
    halo: Nm,
) -> SplitComponent {
    let problem = task.problem();
    let n = problem.vertex_count();

    // Occupied windows in row-major order, each with its owned vertices
    // (ascending, because locals are visited in order).
    let mut owned: BTreeMap<(usize, usize), Vec<usize>> = BTreeMap::new();
    for (local, &(ix, iy)) in owner.iter().enumerate() {
        owned.entry((iy, ix)).or_default().push(local);
    }

    let bboxes: Vec<Rect> = task
        .to_global()
        .iter()
        .map(|&global| graph.polygon(VertexId(global)).bounding_box())
        .collect();

    let mut in_piece = vec![false; n];
    let pieces = owned
        .into_iter()
        .map(|((iy, ix), owned)| {
            let core = grid.core(ix, iy);
            in_piece.fill(false);
            for &local in &owned {
                in_piece[local] = true;
                // Edge closure: neighbours of owned vertices, even when the
                // geometric halo misses their (far-away) bbox center side.
                let conflicts = problem.conflict_adjacency().neighbors(local);
                let stitches = problem.stitch_adjacency().neighbors(local);
                for &neighbour in conflicts.iter().chain(stitches) {
                    in_piece[neighbour] = true;
                }
            }
            // Geometric halo: context within `halo` of the core window.
            // `within_distance` is strict, matching the strict conflict
            // predicate: anything that can conflict into the window from
            // outside sits strictly closer than the coloring distance.
            for (local, bbox) in bboxes.iter().enumerate() {
                if !in_piece[local] && bbox.within_distance(&core, halo) {
                    in_piece[local] = true;
                }
            }
            let vertices: Vec<usize> = (0..n).filter(|&local| in_piece[local]).collect();
            let (sub, original) = problem.induced(&vertices);
            debug_assert_eq!(original, vertices);
            Piece {
                owned,
                vertices,
                problem: sub,
            }
        })
        .collect();

    SplitComponent {
        task_index: task.index(),
        pieces,
    }
}
