//! Coloring cost evaluation and verification.

use crate::DecompositionGraph;

/// The cost of a complete mask assignment on a decomposition graph.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ColoringCost {
    /// Conflict edges whose endpoints share a mask.
    pub conflicts: usize,
    /// Stitch edges whose endpoints are on different masks (i.e. stitches
    /// actually manufactured).
    pub stitches: usize,
    /// The weighted objective `conflicts + α · stitches`.
    pub cost: f64,
}

/// Evaluates a complete mask assignment against the decomposition graph,
/// with the one count [`mpl_ilp::evaluate_coloring`] that
/// [`ComponentProblem::evaluate`](crate::ComponentProblem::evaluate) also
/// uses.
///
/// # Panics
///
/// Panics if `colors` does not hold exactly one color per vertex or uses a
/// color outside `0..graph.k()`.
pub fn coloring_cost(graph: &DecompositionGraph, colors: &[u8], alpha: f64) -> ColoringCost {
    let (conflicts, stitches, cost) = mpl_ilp::evaluate_coloring(
        graph.vertex_count(),
        graph.k(),
        alpha,
        graph.conflict_edges(),
        graph.stitch_edges(),
        colors,
    );
    ColoringCost {
        conflicts,
        stitches,
        cost,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StitchConfig;
    use mpl_layout::{gen, Technology};

    #[test]
    fn cost_of_a_k4_clique() {
        let tech = Technology::nm20();
        let layout = gen::fig1_contact_clique(&tech);
        let graph = DecompositionGraph::build(&layout, &tech, 4, &StitchConfig::default());
        let clean = coloring_cost(&graph, &[0, 1, 2, 3], 0.1);
        assert_eq!(clean.conflicts, 0);
        assert_eq!(clean.stitches, 0);
        assert_eq!(clean.cost, 0.0);
        let bad = coloring_cost(&graph, &[0, 0, 1, 2], 0.1);
        assert_eq!(bad.conflicts, 1);
        assert_eq!(bad.cost, 1.0);
    }

    #[test]
    #[should_panic(expected = "coloring length mismatch")]
    fn wrong_length_panics() {
        let tech = Technology::nm20();
        let layout = gen::fig1_contact_clique(&tech);
        let graph = DecompositionGraph::build(&layout, &tech, 4, &StitchConfig::default());
        let _ = coloring_cost(&graph, &[0, 1], 0.1);
    }
}
