//! The hierarchical run driver: split along instance seams and hand the
//! partition to the shared partition-and-reconcile driver (memoized, so
//! each distinct cell body is colored once).

use crate::split::classify;
use mpl_core::partition::{run_partitioned, Alignment};
use mpl_core::{
    ConfigError, DecompositionResult, DecompositionSession, LayoutId, MemoCache, Progress,
    ThreadPoolExecutor,
};
use std::sync::Arc;

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

// The one key list of the `hierarchy` object: CLI `--json`, `workload`
// report rows and `qpl-serve` result frames.
// `nested_inherited` decodes as zero on frames from servers predating it.
mpl_core::json_record!(HierStats {
    instances,
    cells,
    nested_inherited = 0,
    resident_components,
    split_components,
    instance_pieces,
    boundary_vertices,
    permuted_pieces,
    recolored_vertices,
    cross_conflicts_before,
    cross_conflicts_after,
});

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

/// Executes the session's batch hierarchically — see [`run_hier_observed`]
/// for the full contract.
///
/// # Errors
///
/// Propagates the [`ConfigError`]s of [`run_hier_observed`].
pub fn run_hier(
    session: &DecompositionSession,
    pool: &ThreadPoolExecutor,
) -> Result<Vec<(LayoutId, HierLayoutResult)>, ConfigError> {
    run_hier_observed(session, pool, &())
}

/// Executes the session's batch hierarchically, ticking `progress` as each
/// piece (or a layout's batch of resident components) finishes, through
/// the [`mpl_core::partition`] driver.
///
/// Every layout's components are classified by the cell-instance
/// provenance its [`DecompositionSession::hierarchy`] attachment records.
/// Single-provenance components flow through the ordinary batch engine
/// untouched; mixed-provenance components are split into per-instance
/// pieces plus a residual boundary piece, decomposed as independent
/// sub-problems on the same pool, and reconciled deterministically
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
/// `session.run(pool)` with a cache attached.
///
/// # Errors
///
/// [`ConfigError::HierWithTiling`] when the session also requests spatial
/// tiling: the two partitioners cut components along different seams and
/// cannot be composed in one run.
pub fn run_hier_observed(
    session: &DecompositionSession,
    pool: &ThreadPoolExecutor,
    progress: &dyn Progress,
) -> Result<Vec<(LayoutId, HierLayoutResult)>, ConfigError> {
    if session.tiling().is_some() {
        return Err(ConfigError::HierWithTiling);
    }

    let (partitions, stats): (Vec<_>, Vec<_>) = session
        .plans()
        .map(|(id, plan)| classify(plan, session.hierarchy(id).map(Arc::as_ref)))
        .unzip();
    // The memo cache is what turns N translation-identical instance pieces
    // into one engine solve plus N−1 stamps.
    let memo = session
        .memo()
        .cloned()
        .unwrap_or_else(|| Arc::new(MemoCache::new(MemoCache::DEFAULT_CAPACITY)));
    let results = run_partitioned(
        session,
        pool,
        &partitions,
        Alignment::CrossEdges,
        Some(memo),
        progress,
    );
    Ok(results
        .into_iter()
        .zip(stats)
        .map(|((id, result, reconciled), stats)| {
            let stats = HierStats {
                permuted_pieces: reconciled.permuted_pieces,
                recolored_vertices: reconciled.recolored_vertices,
                cross_conflicts_before: reconciled.cross_conflicts_before,
                cross_conflicts_after: reconciled.cross_conflicts_after,
                ..stats
            };
            (id, HierLayoutResult { result, stats })
        })
        .collect())
}
