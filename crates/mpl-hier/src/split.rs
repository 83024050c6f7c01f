//! Splitting merged components along cell-instance seams.
//!
//! Every graph vertex inherits the provenance of its layout shape: the
//! instance that placed it ([`LayoutHierarchy::origin_of`]), or `None` for
//! top-level geometry and for shapes whose polygons merged across an
//! instance boundary.  A component whose vertices all share one provenance
//! is *resident* — it is exactly the sub-problem the flat memoized path
//! would see, so it flows through the ordinary batch engine untouched.  A
//! component mixing provenances is split into per-instance pieces (one
//! induced sub-problem per instance, in ascending instance order) plus one
//! *residual* piece holding the unattributed boundary geometry; the pieces
//! are disjoint by construction, so the reconciler aligns each one by the
//! cost of its cross-provenance edges only.
//!
//! Splitting by provenance is what the purely geometric graph division of
//! the engine cannot do: a dense instance array couples into one giant
//! component with no small vertex cuts, but its per-instance pieces are
//! translation-identical, so the memo cache colors one master body and
//! stamps every other instance.

use crate::driver::HierStats;
use mpl_core::partition::{Partition, Piece, SplitComponent};
use mpl_core::{ComponentTask, DecompositionPlan, VertexId};
use mpl_layout::LayoutHierarchy;
use std::collections::BTreeMap;

/// Classifies a plan's tasks into residents and split components, together
/// with the hierarchy statistics the partition alone determines.
///
/// Without a hierarchy every task is resident and the driver degenerates to
/// the flat memoized path.
pub(crate) fn classify(
    plan: &DecompositionPlan,
    hierarchy: Option<&LayoutHierarchy>,
) -> (Partition, HierStats) {
    let mut stats = HierStats {
        instances: hierarchy.map_or(0, LayoutHierarchy::instance_count),
        cells: hierarchy.map_or(0, LayoutHierarchy::cell_count),
        nested_inherited: hierarchy.map_or(0, LayoutHierarchy::nested_inherited),
        ..HierStats::default()
    };
    let mut partition = Partition::default();
    match hierarchy.filter(|hierarchy| !hierarchy.is_trivial()) {
        None => partition.resident = (0..plan.tasks().len()).collect(),
        Some(hierarchy) => {
            let graph = plan.graph();
            for task in plan.tasks() {
                let origin: Vec<Option<usize>> = task
                    .to_global()
                    .iter()
                    .map(|&global| hierarchy.origin_of(graph.shape_of(VertexId(global))))
                    .collect();
                if origin.windows(2).all(|pair| pair[0] == pair[1]) {
                    partition.resident.push(task.index());
                } else {
                    partition
                        .split
                        .push(split_component(task, &origin, &mut stats));
                }
            }
        }
    }
    stats.resident_components = partition.resident.len();
    stats.split_components = partition.split.len();
    (partition, stats)
}

/// Groups a mixed-provenance component's vertices by origin — instances
/// ascending, then the residual — and induces one disjoint piece per group.
fn split_component(
    task: &ComponentTask,
    origin: &[Option<usize>],
    stats: &mut HierStats,
) -> SplitComponent {
    let mut instances: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    let mut residual = Vec::new();
    for (local, &tag) in origin.iter().enumerate() {
        match tag {
            Some(instance) => instances.entry(instance).or_default().push(local),
            None => residual.push(local),
        }
    }
    stats.instance_pieces += instances.len();
    stats.boundary_vertices += residual.len();
    let pieces = instances
        .into_values()
        .chain((!residual.is_empty()).then_some(residual))
        .map(|vertices| {
            let (problem, original) = task.problem().induced(&vertices);
            debug_assert_eq!(original, vertices);
            Piece {
                owned: vertices.clone(),
                vertices,
                problem,
            }
        })
        .collect();
    SplitComponent {
        task_index: task.index(),
        pieces,
    }
}
