//! The one driver dispatch of every front end.
//!
//! `qpl-decompose`, `qpl-serve` and `workload --batch` each fill a
//! [`DecompositionSession`] and hand it to [`run_layouts`], which picks the
//! driver — hierarchical, tiled or the plain batch engine — and returns one
//! [`LayoutRun`] per layout; each front end reports a run as one
//! [`ResultPayload::from_run`] record.  This crate holds it because it is
//! the one crate that every front end depends on and that itself depends
//! on both partition drivers.

use crate::protocol::ResultPayload;
use mpl_core::{
    ConfigError, DecompositionResult, DecompositionSession, Executor, LayoutId, Progress,
};
use mpl_hier::HierStats;
use mpl_tile::TileStats;

/// One layout's decomposition, as every front end reports it.
#[derive(Debug)]
pub struct LayoutRun {
    /// The layout's id in the session.
    pub id: LayoutId,
    /// The decomposition, over the layout's full graph.
    pub result: DecompositionResult,
    /// The tiler's statistics; set exactly when the session tiles.
    pub tiles: Option<TileStats>,
    /// The hierarchical driver's statistics; set exactly for a `hier` run.
    pub hierarchy: Option<HierStats>,
}

impl ResultPayload {
    /// The record of one layout's run under the submission id `id`, with
    /// the `spacing_violations` a verification of its coloring found (or
    /// `None` when none ran).
    pub fn from_run(
        id: impl Into<String>,
        run: &LayoutRun,
        spacing_violations: Option<usize>,
    ) -> Self {
        let result = &run.result;
        ResultPayload {
            id: id.into(),
            layout: result.layout_name().to_string(),
            k: result.k(),
            algorithm: result.algorithm().to_string(),
            executor: result.executor().to_string(),
            vertices: result.vertex_count(),
            conflict_edges: result.conflict_edge_count(),
            stitch_edges: result.stitch_edge_count(),
            components: result.component_count(),
            conflicts: result.conflicts(),
            stitches: result.stitches(),
            cost: result.cost(),
            graph_seconds: result.graph_time().as_secs_f64(),
            color_seconds: result.color_time().as_secs_f64(),
            colors: result.colors().to_vec(),
            spacing_violations,
            counters: result.counters(),
            memo_hits: result.memo_hits(),
            memo_misses: result.memo_misses(),
            cancelled: result.cancelled(),
            deadline_exceeded: result.deadline_exceeded(),
            components_completed: result.components_completed(),
            components_skipped: result.components_skipped(),
            tiles: run.tiles,
            hierarchy: run.hierarchy,
        }
    }
}

/// Runs the session's batch through the driver the request chose, ticking
/// `progress` per unit that driver finishes, and returns the layouts in
/// submission order.
///
/// * `hier` — [`mpl_hier::run_hier_observed`], one tick per piece, using
///   the hierarchies attached with
///   [`set_hierarchy`](DecompositionSession::set_hierarchy);
/// * a session [`tiling`](DecompositionSession::tiling) —
///   [`mpl_tile::run_tiled_observed`], one tick per tile piece;
/// * otherwise the plain batch engine
///   ([`run_observed`](DecompositionSession::run_observed), which
///   `run_tiled_observed` is without a tiling), one tick per component.
///
/// # Errors
///
/// The [`ConfigError`]s of the chosen driver: an invalid tiling, a halo
/// below some plan's coloring distance, or
/// [`ConfigError::HierWithTiling`] for `hier` on a tiled session.
pub fn run_layouts(
    session: &DecompositionSession,
    executor: &dyn Executor,
    hier: bool,
    progress: &dyn Progress,
) -> Result<Vec<LayoutRun>, ConfigError> {
    if hier {
        return Ok(mpl_hier::run_hier_observed(session, executor, progress)?
            .into_iter()
            .map(|(id, run)| LayoutRun {
                id,
                result: run.result,
                tiles: None,
                hierarchy: Some(run.stats),
            })
            .collect());
    }
    let tiled = session.tiling().is_some();
    Ok(mpl_tile::run_tiled_observed(session, executor, progress)?
        .into_iter()
        .map(|(id, run)| LayoutRun {
            id,
            result: run.result,
            tiles: tiled.then_some(run.stats),
            hierarchy: None,
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpl_core::{Decomposer, DecomposerConfig, SerialExecutor, TileConfig};
    use mpl_geometry::Nm;
    use mpl_hier::fixtures::{bit_cell_array, BitArrayStyle};
    use mpl_layout::{gen, Technology};
    use std::sync::Arc;

    #[test]
    fn each_driver_reports_exactly_its_own_statistics() {
        let tech = Technology::nm20();
        let decomposer = Decomposer::new(DecomposerConfig::quadruple(tech));
        let (array, hierarchy) = bit_cell_array(3, 2, BitArrayStyle::Merged);
        let mut session = DecompositionSession::new();
        let lattice = session
            .submit_layout(&decomposer, &gen::contact_array(&tech, 8, 8, Nm(70)))
            .expect("plans");
        let cells = session.submit_layout(&decomposer, &array).expect("plans");
        session.set_hierarchy(cells, Some(Arc::new(hierarchy)));

        let plain = run_layouts(&session, &SerialExecutor, false, &()).expect("runs");
        let direct = session.run(&SerialExecutor);
        assert_eq!(plain.len(), 2);
        for (run, (id, result)) in plain.iter().zip(&direct) {
            assert_eq!(run.id, *id);
            assert_eq!(run.result.colors(), result.colors());
            assert!(run.tiles.is_none() && run.hierarchy.is_none());
        }

        let hier = run_layouts(&session, &SerialExecutor, true, &()).expect("runs");
        assert_eq!(hier[1].hierarchy.map(|stats| stats.instances), Some(6));
        assert!(hier.iter().all(|run| run.tiles.is_none()));

        session.set_tiling(Some(TileConfig::new(Nm(300))));
        let tiled = run_layouts(&session, &SerialExecutor, false, &()).expect("runs");
        assert_eq!(tiled[0].id, lattice);
        assert!(tiled[0].tiles.is_some_and(|stats| stats.tiles > 1));
        assert!(tiled.iter().all(|run| run.hierarchy.is_none()));
        assert_eq!(
            run_layouts(&session, &SerialExecutor, true, &()).unwrap_err(),
            ConfigError::HierWithTiling
        );
    }
}
