//! The hierarchical run driver: split along instance seams, decompose
//! through the batch engine (memoized, so each distinct cell body is
//! colored once), reconcile, assemble.

use crate::reconcile::reconcile;
use crate::split::{classify, SplitComponent};
use mpl_core::{
    ComponentStats, ConfigError, Decomposer, DecompositionObserver, DecompositionPlan,
    DecompositionResult, DecompositionSession, Executor, LayoutId, MemoCache,
};
use mpl_layout::LayoutHierarchy;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// What the hierarchical driver did to one layout.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct HierStats {
    /// Top-level cell instances the layout's hierarchy records.
    pub instances: usize,
    /// Distinct cells among those instances.
    pub cells: usize,
    /// Shapes whose instance tag was *inherited* through a nested
    /// reference chain (SREF/AREF at depth ≥ 2 below the top cell).
    ///
    /// The driver only models one level of hierarchy: geometry emitted by
    /// a nested reference is silently attributed to the enclosing
    /// top-level instance, so its per-instance pieces can mix distinct
    /// sub-cells. A non-zero value flags that approximation; it does not
    /// affect correctness (reconciliation re-verifies every conflict
    /// globally), only how much cell-level reuse the splitter can find.
    pub nested_inherited: usize,
    /// Components whose vertices share one provenance, decomposed whole —
    /// exactly as the flat memoized path would.
    pub resident_components: usize,
    /// Mixed-provenance components split along instance seams.
    pub split_components: usize,
    /// Per-instance pieces cut out of the split components.
    pub instance_pieces: usize,
    /// Vertices of the residual pieces: top-level geometry and shapes that
    /// merged across an instance boundary.
    pub boundary_vertices: usize,
    /// Piece colorings rotated by a non-identity permutation during
    /// reconciliation.
    pub permuted_pieces: usize,
    /// Boundary vertices re-colored by the greedy repair fallback.
    pub recolored_vertices: usize,
    /// Cross-provenance conflicts after the permutation pass, before
    /// repair.
    pub cross_conflicts_before: usize,
    /// Cross-provenance conflicts after repair (what the final coloring
    /// pays).
    pub cross_conflicts_after: usize,
}

/// A layout's decomposition result together with its hierarchy statistics.
#[derive(Debug)]
pub struct HierLayoutResult {
    /// The merged decomposition, assembled over the full layout graph; its
    /// conflict count is recomputed globally and therefore agrees with
    /// [`verify_spacing`](mpl_core::verify_spacing).
    pub result: DecompositionResult,
    /// What the hierarchical driver did to produce it.
    pub stats: HierStats,
}

/// Streaming notifications of a hierarchical run's per-piece progress.
pub trait HierProgress: Sync {
    /// A piece sub-problem (or the layout's resident batch) finished:
    /// `done` of `total` inner decompositions of `layout` are complete.
    fn piece_done(&self, layout: LayoutId, done: usize, total: usize) {
        let _ = (layout, done, total);
    }
}

/// Ignores all progress (the [`run_hier`] default).
#[derive(Debug, Default, Clone, Copy)]
pub struct NoHierProgress;

impl HierProgress for NoHierProgress {}

/// How one outer layout maps onto inner submissions.
struct LayoutSplits {
    /// Original task indices of single-provenance components.
    resident: Vec<usize>,
    /// Mixed-provenance components, split along instance seams.
    split: Vec<SplitComponent>,
    hierarchy: Option<Arc<LayoutHierarchy>>,
}

/// What one inner submission carries, in inner submission order.
enum Submission {
    /// All resident tasks of outer layout `slot`, batched as one plan.
    Resident { slot: usize },
    /// Piece `piece` of split component `split` of outer layout `slot`.
    Piece {
        slot: usize,
        split: usize,
        piece: usize,
    },
}

/// Maps inner plan completions to per-layout piece progress ticks.
struct HierObserver<'a> {
    progress: &'a dyn HierProgress,
    /// Inner slot → (outer id, outer slot).
    map: Vec<(LayoutId, usize)>,
    /// Inner submissions per outer slot.
    totals: Vec<usize>,
    done: Vec<AtomicUsize>,
}

impl DecompositionObserver for HierObserver<'_> {
    fn execution_finished(&self, inner: LayoutId, _result: &DecompositionResult) {
        let (outer, slot) = self.map[inner.index()];
        let done = self.done[slot].fetch_add(1, Ordering::Relaxed) + 1;
        self.progress.piece_done(outer, done, self.totals[slot]);
    }
}

/// Executes the session's batch hierarchically — see [`run_hier_observed`]
/// for the full contract.
///
/// # Errors
///
/// Propagates the [`ConfigError`]s of [`run_hier_observed`].
pub fn run_hier(
    session: &DecompositionSession,
    executor: &dyn Executor,
) -> Result<Vec<(LayoutId, HierLayoutResult)>, ConfigError> {
    run_hier_observed(session, executor, &NoHierProgress)
}

/// Executes the session's batch hierarchically, streaming per-piece
/// progress.
///
/// Every layout's components are classified by the cell-instance
/// provenance its [`DecompositionSession::hierarchy`] attachment records.
/// Single-provenance components flow through the ordinary batch engine
/// untouched; mixed-provenance components are split into per-instance
/// pieces plus a residual boundary piece, decomposed as independent
/// sub-problems on the same executor, and reconciled deterministically
/// (mismatch-minimising color permutations first, bounded greedy boundary
/// repair second).  The merged coloring's conflict count is recomputed
/// over the full graph, so it always agrees with
/// [`verify_spacing`](mpl_core::verify_spacing).  Results are returned in
/// submission order, like [`DecompositionSession::run`].
///
/// The inner batch **always** memoizes — through the session's cache when
/// one is attached, through a transient cache otherwise — so
/// translation-identical instance pieces are colored once and stamped
/// everywhere else, and every coloring is a pure function of its canonical
/// signature.  In particular a layout whose components are all
/// single-provenance (isolated instances, no hierarchy attachment, text
/// fixtures) gets colors **bit-identical** to the flat memoized path
/// `session.run(executor)` with a cache attached.
///
/// # Errors
///
/// [`ConfigError::HierWithTiling`] when the session also requests spatial
/// tiling: the two drivers partition components along different seams and
/// cannot be composed in one run.
pub fn run_hier_observed(
    session: &DecompositionSession,
    executor: &dyn Executor,
    progress: &dyn HierProgress,
) -> Result<Vec<(LayoutId, HierLayoutResult)>, ConfigError> {
    if session.tiling().is_some() {
        return Err(ConfigError::HierWithTiling);
    }

    // Classify every layout's components along its instance seams.
    let plans: Vec<(LayoutId, &DecompositionPlan)> = session.plans().collect();
    let splits: Vec<LayoutSplits> = plans
        .iter()
        .map(|&(id, plan)| {
            let hierarchy = session.hierarchy(id).cloned();
            let (resident, split) = classify(plan, hierarchy.as_deref());
            LayoutSplits {
                resident,
                split,
                hierarchy,
            }
        })
        .collect();

    // One inner session: the resident batch of each layout plus every
    // piece, all drained through one shared largest-first queue.  The
    // memo cache is what turns N translation-identical instance pieces
    // into one engine solve plus N−1 stamps.
    let mut inner = DecompositionSession::new();
    inner.set_memo(Some(session.memo().cloned().unwrap_or_else(|| {
        Arc::new(MemoCache::new(MemoCache::DEFAULT_CAPACITY))
    })));
    let mut submissions = Vec::new();
    let mut totals = vec![0usize; plans.len()];
    for (slot, (&(outer, plan), layout_splits)) in plans.iter().zip(&splits).enumerate() {
        // A cancel token on the outer submission covers every inner
        // sub-problem carved out of it: resident batches and instance
        // pieces alike skip (or stop mid-search) once the token fires.
        let cancel = session.cancel_token(outer).cloned();
        if !layout_splits.resident.is_empty() {
            let decomposer = Decomposer::new(plan.config().clone());
            let subproblems = layout_splits
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
        for (split, component) in layout_splits.split.iter().enumerate() {
            let task = &plan.tasks()[component.task_index];
            for (piece, split_piece) in component.pieces.iter().enumerate() {
                let decomposer = Decomposer::new(plan.config().clone());
                let to_global: Vec<usize> = split_piece
                    .locals
                    .iter()
                    .map(|&local| task.to_global()[local])
                    .collect();
                let name = match split_piece.origin {
                    Some(instance) => format!(
                        "{}/c{}i{}",
                        plan.layout_name(),
                        component.task_index,
                        instance
                    ),
                    None => format!("{}/c{}b", plan.layout_name(), component.task_index),
                };
                let inner_id = inner.submit(DecompositionPlan::for_subproblems(
                    decomposer,
                    name,
                    plan.graph_shared(),
                    vec![(split_piece.problem.clone(), to_global)],
                ));
                inner.set_cancel(inner_id, cancel.clone());
                submissions.push(Submission::Piece { slot, split, piece });
                totals[slot] += 1;
            }
        }
    }

    let observer = HierObserver {
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

    // Assemble: scatter resident colors, reconcile split components,
    // rebuild one result per outer layout over its full graph.
    let mut assemblies: Vec<Assembly> = plans
        .iter()
        .zip(&splits)
        .map(|(&(_, plan), layout_splits)| Assembly {
            colors: vec![0u8; plan.graph().vertex_count()],
            components: vec![None; plan.tasks().len()],
            piece_colors: layout_splits
                .split
                .iter()
                .map(|component| vec![Vec::new(); component.pieces.len()])
                .collect(),
            color_time: Duration::ZERO,
        })
        .collect();
    let mut piece_stats: Vec<Vec<Vec<ComponentStats>>> = splits
        .iter()
        .map(|layout_splits| {
            layout_splits
                .split
                .iter()
                .map(|component| Vec::with_capacity(component.pieces.len()))
                .collect()
        })
        .collect();

    for (submission, (_, inner_result)) in submissions.iter().zip(inner_results) {
        match submission {
            Submission::Resident { slot } => {
                let assembly = &mut assemblies[*slot];
                let plan = plans[*slot].1;
                let layout_splits = &splits[*slot];
                for (position, &index) in layout_splits.resident.iter().enumerate() {
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
            Submission::Piece { slot, split, piece } => {
                let plan = plans[*slot].1;
                let component = &splits[*slot].split[*split];
                let task = &plan.tasks()[component.task_index];
                let split_piece = &component.pieces[*piece];
                assemblies[*slot].piece_colors[*split][*piece] = split_piece
                    .locals
                    .iter()
                    .map(|&local| inner_result.colors()[task.to_global()[local]])
                    .collect();
                piece_stats[*slot][*split].push(inner_result.component_stats()[0].clone());
                assemblies[*slot].color_time =
                    assemblies[*slot].color_time.max(inner_result.color_time());
            }
        }
    }

    let mut results = Vec::with_capacity(plans.len());
    for (slot, (&(id, plan), layout_splits)) in plans.iter().zip(&splits).enumerate() {
        let assembly = &mut assemblies[slot];
        let mut stats = HierStats {
            instances: layout_splits
                .hierarchy
                .as_ref()
                .map_or(0, |hierarchy| hierarchy.instance_count()),
            cells: layout_splits
                .hierarchy
                .as_ref()
                .map_or(0, |hierarchy| hierarchy.cell_count()),
            nested_inherited: layout_splits
                .hierarchy
                .as_ref()
                .map_or(0, |hierarchy| hierarchy.nested_inherited()),
            resident_components: layout_splits.resident.len(),
            split_components: layout_splits.split.len(),
            ..HierStats::default()
        };
        for (split, component) in layout_splits.split.iter().enumerate() {
            let task = &plan.tasks()[component.task_index];
            let problem = task.problem();
            let (merged, outcome) = reconcile(component, problem, &assembly.piece_colors[split]);
            for (local, &global) in task.to_global().iter().enumerate() {
                assembly.colors[global] = merged[local];
            }
            stats.instance_pieces += component
                .pieces
                .iter()
                .filter(|piece| piece.origin.is_some())
                .count();
            stats.boundary_vertices += component
                .pieces
                .iter()
                .filter(|piece| piece.origin.is_none())
                .map(|piece| piece.locals.len())
                .sum::<usize>();
            stats.permuted_pieces += outcome.permuted_pieces;
            stats.recolored_vertices += outcome.recolored_vertices;
            stats.cross_conflicts_before += outcome.cross_conflicts_before;
            stats.cross_conflicts_after += outcome.cross_conflicts_after;
            assembly.components[component.task_index] = Some(merged_component_stats(
                component.task_index,
                problem,
                &merged,
                &piece_stats[slot][split],
            ));
        }
        let components = assembly
            .components
            .iter_mut()
            .map(|stats| stats.take().expect("every task is resident or split"))
            .collect();
        let result = DecompositionResult::assemble(
            plan,
            executor.name(),
            std::mem::take(&mut assembly.colors),
            components,
            assembly.color_time,
        );
        results.push((id, HierLayoutResult { result, stats }));
    }
    Ok(results)
}

/// Per-layout scratch while scattering inner results back.
struct Assembly {
    colors: Vec<u8>,
    components: Vec<Option<ComponentStats>>,
    /// `piece_colors[split][piece][i]` is the color piece `piece` assigned
    /// to its vertex `i` of split component `split`.
    piece_colors: Vec<Vec<Vec<u8>>>,
    color_time: Duration,
}

/// Synthesizes the merged component's statistics from its piece runs: the
/// quality numbers are re-evaluated on the reconciled coloring, the work
/// counters are summed over the pieces.  The inner batch always memoizes,
/// so the merged `memo_hit` reports whether **every** piece was stamped
/// from the cache.
fn merged_component_stats(
    index: usize,
    problem: &mpl_core::ComponentProblem,
    merged: &[u8],
    pieces: &[ComponentStats],
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
        memo_hit: Some(pieces.iter().all(|stats| stats.memo_hit == Some(true))),
    }
}
