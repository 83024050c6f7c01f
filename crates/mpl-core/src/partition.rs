//! The partition-and-reconcile driver behind tiled and hierarchical runs.
//!
//! The paper scales K-patterning by dividing the conflict graph, coloring
//! the pieces independently, and re-joining them with a color permutation,
//! which costs nothing inside a piece.  Spatial tiling (`mpl-tile`) and
//! cell-instance splitting (`mpl-hier`) differ only in where they cut a
//! component and in how a piece is aligned with the vertices fixed before
//! it ([`Alignment`]).  Each computes a [`Partition`] per layout and hands
//! it to [`run_partitioned`], which does the rest:
//!
//! 1. **Decompose.** Every layout's resident components (decomposed whole,
//!    exactly as an unpartitioned run would) and every piece of its split
//!    components become inner plans of one [`DecompositionSession`], under
//!    the outer layout's cancel token, drained through one shared queue.
//!    Each inner plan ticks the outer layout's [`Progress`] once, as its
//!    last component finishes.
//! 2. **Align.** Per split component, pieces are fixed in order: each
//!    piece's coloring is rotated by the color permutation its alignment
//!    picks, then its owned vertices are fixed.
//! 3. **Repair.** A bounded greedy pass re-colors vertices on the seams
//!    between owners when that strictly lowers their incident cost.
//! 4. **Assemble.** The merged component's quality numbers are evaluated
//!    on the merged coloring, its work counters summed over its pieces, and
//!    each layout is rebuilt over its full graph by
//!    [`DecompositionResult::assemble`].
//!
//! Every step after the inner run is a pure function of the piece
//! colorings, so merged results inherit the batch engine's schedule
//! independence.

use crate::division::{best_color_permutation, permute_to_match_anchors};
use crate::{
    ComponentProblem, ComponentStats, Decomposer, DecompositionPlan, DecompositionResult,
    DecompositionSession, Executor, LayoutId, MemoCache, Progress,
};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Upper bound on greedy repair sweeps over the seam vertices.  Each sweep
/// applies only strictly-improving recolorings, so the loop usually stops
/// after one or two sweeps; the cap keeps the worst case obvious.
const MAX_REPAIR_SWEEPS: usize = 8;

/// The owner of a vertex no piece has fixed yet.
const UNOWNED: usize = usize::MAX;

/// One piece of a split component.
#[derive(Debug)]
pub struct Piece {
    /// Component-local vertices whose merged colors this piece sets.  The
    /// pieces of a component own each of its vertices exactly once.
    pub owned: Vec<usize>,
    /// `owned` plus any context vertices, component-local and ascending.
    pub vertices: Vec<usize>,
    /// The sub-problem induced by `vertices`.
    pub problem: ComponentProblem,
}

/// A component cut into pieces.
#[derive(Debug)]
pub struct SplitComponent {
    /// Index of the component's task in its plan.
    pub task_index: usize,
    /// The pieces, in the order reconciliation fixes them.
    pub pieces: Vec<Piece>,
}

/// How one layout's components are partitioned.
#[derive(Debug, Default)]
pub struct Partition {
    /// Indices of the tasks decomposed whole.
    pub resident: Vec<usize>,
    /// The components cut into pieces.
    pub split: Vec<SplitComponent>,
}

/// How a piece's coloring is aligned with the vertices fixed before it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Alignment {
    /// For overlapping pieces: the permutation that maps the most of the
    /// piece's already-fixed vertices back onto their fixed colors
    /// ([`permute_to_match_anchors`]).
    Anchors,
    /// For disjoint pieces: the permutation minimising the cost of the
    /// piece's conflict and stitch edges into already-fixed vertices.
    CrossEdges,
}

/// What reconciliation did to one layout's split components.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ReconcileStats {
    /// Pieces whose coloring the alignment permutation changed.
    pub permuted_pieces: usize,
    /// Strictly-improving recolorings applied by the seam repair.
    pub recolored_vertices: usize,
    /// Same-mask conflict edges between differently owned vertices after
    /// alignment, before repair.
    pub cross_conflicts_before: usize,
    /// The same count after repair (what the final coloring pays).
    pub cross_conflicts_after: usize,
}

/// Runs every layout of `session` through its [`Partition`]
/// (`partitions[i]` belongs to the `i`-th submitted plan), returning one
/// merged result per layout in submission order.
///
/// The inner session memoizes through `memo` when it is `Some`.  `progress`
/// ticks once per inner decomposition (a piece, or the layout's batch of
/// resident components) as it finishes, counted per layout.  The merged
/// conflict count is recomputed over each layout's full graph, so it
/// always agrees with [`verify_spacing`](crate::verify_spacing).
///
/// # Panics
///
/// Panics if `partitions` does not hold one entry per submitted plan.
pub fn run_partitioned(
    session: &DecompositionSession,
    executor: &dyn Executor,
    partitions: &[Partition],
    alignment: Alignment,
    memo: Option<Arc<MemoCache>>,
    progress: &dyn Progress,
) -> Vec<(LayoutId, DecompositionResult, ReconcileStats)> {
    let plans: Vec<(LayoutId, &DecompositionPlan)> = session.plans().collect();
    assert_eq!(
        plans.len(),
        partitions.len(),
        "one partition per submitted plan"
    );
    let memo_attached = memo.is_some();
    let mut inner = DecompositionSession::new();
    inner.set_memo(memo);
    let mut outer = Vec::new();
    let mut totals = vec![0usize; plans.len()];
    for (slot, (&(id, plan), partition)) in plans.iter().zip(partitions).enumerate() {
        // The outer cancel token covers every inner plan carved out of the
        // layout: resident batches and pieces alike skip (or stop
        // mid-search) once it fires.
        let cancel = session.cancel_token(id).cloned();
        let resident = (!partition.resident.is_empty()).then(|| {
            partition
                .resident
                .iter()
                .map(|&index| {
                    let task = &plan.tasks()[index];
                    (task.problem().clone(), task.to_global().to_vec())
                })
                .collect::<Vec<_>>()
        });
        let pieces = partition.split.iter().flat_map(|split| {
            let to_global = plan.tasks()[split.task_index].to_global();
            split.pieces.iter().map(move |piece| {
                let piece_to_global: Vec<usize> =
                    piece.vertices.iter().map(|&v| to_global[v]).collect();
                vec![(piece.problem.clone(), piece_to_global)]
            })
        });
        for subproblems in resident.into_iter().chain(pieces) {
            let inner_id = inner.submit(DecompositionPlan::for_subproblems(
                Decomposer::new(plan.config().clone()),
                plan.layout_name().to_string(),
                plan.graph_shared(),
                subproblems,
            ));
            inner.set_cancel(inner_id, cancel.clone());
            outer.push((id, slot));
            totals[slot] += 1;
        }
    }

    let pieces = PieceTicks {
        progress,
        outer,
        finished: totals.iter().map(|_| Mutex::new(0)).collect(),
        totals,
    };
    // Inner results come back in submission order, which the loop below
    // consumes in the same layout → resident → split → piece order.
    let mut inner_results = inner
        .run_observed(executor, &pieces)
        .into_iter()
        .map(|(_, result)| result);
    let mut next_inner = || inner_results.next().expect("one result per inner plan");

    let mut results = Vec::with_capacity(plans.len());
    for ((id, plan), partition) in plans.into_iter().zip(partitions) {
        let mut colors = vec![0u8; plan.graph().vertex_count()];
        let mut components: Vec<Option<ComponentStats>> = vec![None; plan.tasks().len()];
        let mut color_time = Duration::ZERO;
        let mut reconciled = ReconcileStats::default();
        if !partition.resident.is_empty() {
            let result = next_inner();
            for (position, &index) in partition.resident.iter().enumerate() {
                for &global in plan.tasks()[index].to_global() {
                    colors[global] = result.colors()[global];
                }
                let mut stats = result.component_stats()[position].clone();
                stats.index = index;
                components[index] = Some(stats);
            }
            color_time = color_time.max(result.color_time());
        }
        for split in &partition.split {
            let task = &plan.tasks()[split.task_index];
            let mut piece_colors = Vec::with_capacity(split.pieces.len());
            let mut piece_stats = Vec::with_capacity(split.pieces.len());
            for piece in &split.pieces {
                let result = next_inner();
                piece_colors.push(
                    piece
                        .vertices
                        .iter()
                        .map(|&v| result.colors()[task.to_global()[v]])
                        .collect(),
                );
                piece_stats.push(result.component_stats()[0].clone());
                color_time = color_time.max(result.color_time());
            }
            let merged = reconcile(
                task.problem(),
                &split.pieces,
                &piece_colors,
                alignment,
                &mut reconciled,
            );
            for (&global, &color) in task.to_global().iter().zip(&merged) {
                colors[global] = color;
            }
            components[split.task_index] = Some(merged_component_stats(
                split.task_index,
                task.problem(),
                &merged,
                &piece_stats,
                memo_attached,
            ));
        }
        let components = components
            .into_iter()
            .map(|stats| stats.expect("every task is resident or split"))
            .collect();
        let result =
            DecompositionResult::assemble(plan, executor.name(), colors, components, color_time);
        results.push((id, result, reconciled));
    }
    results
}

/// Turns each inner plan's last component tick into one tick of its outer
/// layout.
struct PieceTicks<'a> {
    progress: &'a dyn Progress,
    /// Inner layout index → (outer id, outer slot).
    outer: Vec<(LayoutId, usize)>,
    /// Inner plans finished per outer slot, locked across the outer tick so
    /// each layout's ticks arrive in order.
    finished: Vec<Mutex<usize>>,
    /// Inner plans per outer slot.
    totals: Vec<usize>,
}

impl Progress for PieceTicks<'_> {
    fn done(&self, inner: LayoutId, done: usize, total: usize) {
        if done < total {
            return;
        }
        let (outer, slot) = self.outer[inner.index()];
        let mut finished = self.finished[slot]
            .lock()
            .expect("no panics while counting pieces");
        *finished += 1;
        self.progress.done(outer, *finished, self.totals[slot]);
    }
}

/// Merges `piece_colors` (one coloring per piece, each indexed like the
/// piece's `vertices`) into one component-local coloring, adding what it
/// did to `stats`.
fn reconcile(
    problem: &ComponentProblem,
    pieces: &[Piece],
    piece_colors: &[Vec<u8>],
    alignment: Alignment,
    stats: &mut ReconcileStats,
) -> Vec<u8> {
    let n = problem.vertex_count();
    let k = problem.k();
    let mut owner = vec![UNOWNED; n];
    let mut merged = vec![u8::MAX; n];
    let mut scratch = vec![0u8; n];
    for (index, (piece, colors)) in pieces.iter().zip(piece_colors).enumerate() {
        for (&v, &color) in piece.vertices.iter().zip(colors) {
            scratch[v] = color;
        }
        match alignment {
            Alignment::Anchors => {
                let (anchors, targets): (Vec<usize>, Vec<u8>) = piece
                    .vertices
                    .iter()
                    .filter(|&&v| owner[v] != UNOWNED)
                    .map(|&v| (v, merged[v]))
                    .unzip();
                permute_to_match_anchors(
                    &piece.vertices,
                    &mut scratch,
                    &anchors,
                    &targets,
                    k as u8,
                );
            }
            Alignment::CrossEdges => {
                let weight =
                    cross_edge_weights(problem, &piece.vertices, &scratch, &merged, &owner);
                let permutation = best_color_permutation(&weight, k);
                for &v in &piece.vertices {
                    scratch[v] = permutation[scratch[v] as usize];
                }
            }
        }
        if piece
            .vertices
            .iter()
            .map(|&v| scratch[v])
            .ne(colors.iter().copied())
        {
            stats.permuted_pieces += 1;
        }
        for &v in &piece.owned {
            merged[v] = scratch[v];
            owner[v] = index;
        }
    }
    debug_assert!(!owner.contains(&UNOWNED));

    stats.cross_conflicts_before += cross_conflicts(problem, &owner, &merged);
    stats.recolored_vertices += repair_boundary(problem, &owner, &mut merged);
    stats.cross_conflicts_after += cross_conflicts(problem, &owner, &merged);
    merged
}

/// `weight[c * k + t]`: the cost saved by mapping the piece's color `c`
/// onto `t` — α per stitch edge into a fixed vertex colored `t`, −1 per
/// conflict edge into one.
fn cross_edge_weights(
    problem: &ComponentProblem,
    vertices: &[usize],
    colors: &[u8],
    merged: &[u8],
    owner: &[usize],
) -> Vec<f64> {
    let k = problem.k();
    let mut weight = vec![0.0f64; k * k];
    for &v in vertices {
        let row = colors[v] as usize * k;
        for &u in problem.conflict_adjacency().neighbors(v) {
            if owner[u] != UNOWNED {
                weight[row + merged[u] as usize] -= 1.0;
            }
        }
        for &u in problem.stitch_adjacency().neighbors(v) {
            if owner[u] != UNOWNED {
                weight[row + merged[u] as usize] += problem.alpha();
            }
        }
    }
    weight
}

/// Conflict edges between differently owned vertices on the same mask.
fn cross_conflicts(problem: &ComponentProblem, owner: &[usize], colors: &[u8]) -> usize {
    problem
        .conflict_edges()
        .iter()
        .filter(|&&(u, v)| owner[u] != owner[v] && colors[u] == colors[v])
        .count()
}

/// Greedy local repair of the seams: re-colors a vertex with a differently
/// owned neighbour only when that strictly lowers its incident cost,
/// sweeping those vertices in ascending order until a sweep changes
/// nothing.
///
/// Returns the number of recolorings applied.
fn repair_boundary(problem: &ComponentProblem, owner: &[usize], colors: &mut [u8]) -> usize {
    let conflict_adj = problem.conflict_adjacency();
    let stitch_adj = problem.stitch_adjacency();
    let seam: Vec<usize> = (0..problem.vertex_count())
        .filter(|&v| {
            conflict_adj
                .neighbors(v)
                .iter()
                .chain(stitch_adj.neighbors(v))
                .any(|&u| owner[u] != owner[v])
        })
        .collect();

    // A conflict neighbour on the same mask costs 1, a stitch neighbour on
    // a different mask costs α.
    let incident_cost = |v: usize, color: u8, colors: &[u8]| -> f64 {
        let conflicts = conflict_adj
            .neighbors(v)
            .iter()
            .filter(|&&u| colors[u] == color)
            .count();
        let stitches = stitch_adj
            .neighbors(v)
            .iter()
            .filter(|&&u| colors[u] != color)
            .count();
        conflicts as f64 + problem.alpha() * stitches as f64
    };

    let k = problem.k() as u8;
    let mut recolored = 0;
    for _ in 0..MAX_REPAIR_SWEEPS {
        let mut changed = false;
        for &v in &seam {
            let current = incident_cost(v, colors[v], colors);
            let best = (0..k)
                .filter(|&color| color != colors[v])
                .map(|color| (color, incident_cost(v, color, colors)))
                .min_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
            if let Some((color, cost)) = best {
                if cost < current {
                    colors[v] = color;
                    recolored += 1;
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    recolored
}

/// The merged component's statistics: quality numbers evaluated on the
/// merged coloring, work counters summed over its pieces, and — when the
/// inner run memoized — a memo hit only if every piece was a hit.
fn merged_component_stats(
    index: usize,
    problem: &ComponentProblem,
    merged: &[u8],
    pieces: &[ComponentStats],
    memo_attached: bool,
) -> ComponentStats {
    ComponentStats {
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
        ..ComponentStats::default().evaluated(index, problem, merged)
    }
}
