//! The benchmark's own recount of every coloring a program returns.
//!
//! Conflicts are recounted with `verify_spacing` (a fresh spatial index
//! over a decomposition graph the benchmark builds itself), stitches by
//! scanning that graph's stitch edges, and the cost from both.  A reported
//! figure that disagrees with the recount fails the operation.

use mpl_core::{verify_spacing, DecompositionGraph, StitchConfig, VertexId};
use mpl_gds::{GdsElement, GdsLibrary};
use mpl_layout::Layout;
use std::collections::HashMap;

/// Masks K of every workload.
pub const K: usize = 4;
/// Stitch weight α of every workload (the programs' default).
pub const ALPHA: f64 = 0.1;
/// GDS layer of mask 0 in `qpl-decompose --output-gds` files.
pub const COLORED_BASE_LAYER: i16 = 100;

/// Conflicts, stitches and cost of one coloring.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quality {
    pub conflicts: usize,
    pub stitches: usize,
    pub cost: f64,
}

impl Quality {
    /// Whether two figures agree (cost up to float summation order).
    pub fn agrees(&self, other: &Quality) -> bool {
        self.conflicts == other.conflicts
            && self.stitches == other.stitches
            && (self.cost - other.cost).abs() <= 1e-6 * self.cost.abs().max(1.0)
    }
}

/// The decomposition graph of `layout` under the workloads' settings.
pub fn graph_of(layout: &Layout) -> DecompositionGraph {
    DecompositionGraph::build(layout, &crate::gen::tech(), K, &StitchConfig::default())
}

/// Recounts a per-vertex coloring of `graph`.
pub fn recount(graph: &DecompositionGraph, colors: &[u8]) -> Result<Quality, String> {
    if colors.len() != graph.vertex_count() {
        return Err(format!(
            "{} colors for {} vertices",
            colors.len(),
            graph.vertex_count()
        ));
    }
    if let Some(bad) = colors.iter().find(|&&c| c as usize >= graph.k()) {
        return Err(format!("color {bad} outside 0..{}", graph.k()));
    }
    let conflicts = verify_spacing(graph, colors, crate::gen::tech().coloring_distance(K)).len();
    let stitches = graph
        .stitch_edges()
        .iter()
        .filter(|&&(u, v)| colors[u] != colors[v])
        .count();
    Ok(Quality {
        conflicts,
        stitches,
        cost: conflicts as f64 + ALPHA * stitches as f64,
    })
}

/// Checks reported figures against the recount of `colors`.
pub fn check(graph: &DecompositionGraph, colors: &[u8], reported: &Quality) -> Result<(), String> {
    let recounted = recount(graph, colors)?;
    if recounted.agrees(reported) {
        Ok(())
    } else {
        Err(format!(
            "reported {reported:?} but the recount gives {recounted:?}"
        ))
    }
}

/// Reads the per-vertex coloring back from a colored GDS export (mask `k`
/// on layer `COLORED_BASE_LAYER + k`, one boundary per vertex rectangle),
/// matching each rectangle to the vertex of `graph` that owns it.
pub fn colors_from_masks(graph: &DecompositionGraph, gds: &[u8]) -> Result<Vec<u8>, String> {
    let mut owner = HashMap::new();
    for vertex in 0..graph.vertex_count() {
        for rect in graph.polygon(VertexId(vertex)).rects() {
            let key = (rect.xlo().0, rect.ylo().0, rect.xhi().0, rect.yhi().0);
            if owner.insert(key, vertex).is_some() {
                return Err(format!("two vertices share the rectangle {key:?}"));
            }
        }
    }
    let library = GdsLibrary::from_bytes(gds).map_err(|e| e.to_string())?;
    let mut colors = vec![u8::MAX; graph.vertex_count()];
    for element in library.structs.iter().flat_map(|s| &s.elements) {
        let GdsElement::Boundary { layer, xy, .. } = element else {
            return Err("colored export holds a non-boundary element".to_string());
        };
        let mask = layer - COLORED_BASE_LAYER;
        if !(0..K as i16).contains(&mask) {
            return Err(format!("boundary on unexpected layer {layer}"));
        }
        let xs = xy.iter().map(|p| p.0 as i64);
        let ys = xy.iter().map(|p| p.1 as i64);
        let key = (
            xs.clone().min().unwrap_or(0),
            ys.clone().min().unwrap_or(0),
            xs.max().unwrap_or(0),
            ys.max().unwrap_or(0),
        );
        let vertex = *owner
            .get(&key)
            .ok_or_else(|| format!("exported rectangle {key:?} matches no vertex"))?;
        if colors[vertex] != u8::MAX && colors[vertex] != mask as u8 {
            return Err(format!("vertex {vertex} is split across masks"));
        }
        colors[vertex] = mask as u8;
    }
    match colors.iter().position(|&c| c == u8::MAX) {
        Some(vertex) => Err(format!("vertex {vertex} is missing from the export")),
        None => Ok(colors),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Ledger;
    use crate::serve::terminal;
    use mpl_core::{ColorAlgorithm, Decomposer, DecomposerConfig};
    use mpl_serve::{ErrorCode, Response};

    fn decomposed() -> (DecompositionGraph, Vec<u8>, Quality) {
        let layout = crate::gen::serve_pool(3).swap_remove(0).layout;
        let config =
            DecomposerConfig::quadruple(crate::gen::tech()).with_algorithm(ColorAlgorithm::Linear);
        let result = Decomposer::new(config)
            .decompose(&layout)
            .expect("valid layout");
        let reported = Quality {
            conflicts: result.conflicts(),
            stitches: result.stitches(),
            cost: result.cost(),
        };
        (graph_of(&layout), result.colors().to_vec(), reported)
    }

    #[test]
    fn a_clean_run_reports_no_failures() {
        let (graph, colors, reported) = decomposed();
        let mut ledger = Ledger::default();
        ledger.record(check(&graph, &colors, &reported));
        assert_eq!(ledger.failed_ratio(), 0.0);
    }

    #[test]
    fn one_vertex_recolored_into_a_conflict_fails_the_operation() {
        let (graph, mut colors, reported) = decomposed();
        let (u, v) = graph
            .conflict_edges()
            .iter()
            .copied()
            .find(|&(u, v)| colors[u] != colors[v])
            .expect("a properly colored conflict edge");
        colors[u] = colors[v];
        let mut ledger = Ledger::default();
        ledger.record(check(&graph, &colors, &reported));
        assert!(ledger.failed_ratio() > 0.0);
    }

    #[test]
    fn an_error_frame_fails_the_operation() {
        let frame = Response::Error {
            id: Some("r1".to_string()),
            code: ErrorCode::Parse,
            message: "truncated".to_string(),
        };
        let mut ledger = Ledger::default();
        let outcome = terminal(frame, "r1").expect("an error frame is terminal");
        ledger.record(outcome.map(|_| ()));
        assert!(ledger.failed_ratio() > 0.0);
    }

    #[test]
    fn the_mask_export_round_trips_a_coloring() {
        let (graph, colors, _) = decomposed();
        let mut masks = vec![Vec::new(); K];
        for (vertex, &color) in colors.iter().enumerate() {
            masks[color as usize].push(graph.polygon(VertexId(vertex)).clone());
        }
        let bytes = mpl_gds::library_from_masks("t", &masks, COLORED_BASE_LAYER)
            .and_then(|library| library.to_bytes())
            .expect("in-range coordinates");
        assert_eq!(colors_from_masks(&graph, &bytes), Ok(colors));
    }
}
