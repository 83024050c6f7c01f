//! The per-component color-assignment problem handed to the engines.

use mpl_graph::Csr;
use std::sync::OnceLock;

/// A self-contained color-assignment instance over dense local vertex ids
/// `0..vertex_count`, produced by graph division and consumed by the
/// [`crate::assign`] engines.
///
/// Besides conflict and stitch edges it carries the *color-friendly* pairs
/// of Definition 2 (features slightly beyond the coloring distance), which
/// only the linear engine uses as a tie-breaking hint.
///
/// Adjacency views are flat [`Csr`] arrays, built lazily on first use and
/// shared by every stage that walks neighbours (reinsertion, rotation
/// merging, the engines), so no per-vertex `Vec`s are ever materialised
/// for a component.
#[derive(Debug, Clone)]
pub struct ComponentProblem {
    vertex_count: usize,
    k: usize,
    alpha: f64,
    conflict_edges: Vec<(usize, usize)>,
    stitch_edges: Vec<(usize, usize)>,
    color_friendly_pairs: Vec<(usize, usize)>,
    conflict_adjacency: OnceLock<Csr>,
    stitch_adjacency: OnceLock<Csr>,
    friendly_adjacency: OnceLock<Csr>,
}

impl PartialEq for ComponentProblem {
    fn eq(&self, other: &Self) -> bool {
        // The adjacency caches are derived data; equality is the instance.
        self.vertex_count == other.vertex_count
            && self.k == other.k
            && self.alpha == other.alpha
            && self.conflict_edges == other.conflict_edges
            && self.stitch_edges == other.stitch_edges
            && self.color_friendly_pairs == other.color_friendly_pairs
    }
}

impl ComponentProblem {
    /// Creates an empty problem with `vertex_count` vertices, `k` colors and
    /// stitch weight `alpha`.
    ///
    /// # Panics
    ///
    /// Panics if `k < 2` or `alpha` is negative.
    pub fn new(vertex_count: usize, k: usize, alpha: f64) -> Self {
        assert!(k >= 2, "at least two colors are required, got {k}");
        assert!(alpha >= 0.0, "alpha must be non-negative");
        ComponentProblem {
            vertex_count,
            k,
            alpha,
            conflict_edges: Vec::new(),
            stitch_edges: Vec::new(),
            color_friendly_pairs: Vec::new(),
            conflict_adjacency: OnceLock::new(),
            stitch_adjacency: OnceLock::new(),
            friendly_adjacency: OnceLock::new(),
        }
    }

    /// Number of vertices.
    pub fn vertex_count(&self) -> usize {
        self.vertex_count
    }

    /// Number of colors K.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Stitch weight α.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Adds a conflict edge.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range endpoints or a self edge.
    pub fn add_conflict(&mut self, u: usize, v: usize) {
        self.check(u, v);
        self.conflict_adjacency.take();
        self.conflict_edges.push((u, v));
    }

    /// Adds a stitch edge.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range endpoints or a self edge.
    pub fn add_stitch(&mut self, u: usize, v: usize) {
        self.check(u, v);
        self.stitch_adjacency.take();
        self.stitch_edges.push((u, v));
    }

    /// Records a color-friendly pair.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range endpoints or a self edge.
    pub fn add_color_friendly(&mut self, u: usize, v: usize) {
        self.check(u, v);
        self.friendly_adjacency.take();
        self.color_friendly_pairs.push((u, v));
    }

    fn check(&self, u: usize, v: usize) {
        assert!(u != v, "self-edge {u}-{v} is not allowed");
        assert!(
            u < self.vertex_count && v < self.vertex_count,
            "edge ({u}, {v}) out of range for {} vertices",
            self.vertex_count
        );
    }

    /// Conflict edges.
    pub fn conflict_edges(&self) -> &[(usize, usize)] {
        &self.conflict_edges
    }

    /// Stitch edges.
    pub fn stitch_edges(&self) -> &[(usize, usize)] {
        &self.stitch_edges
    }

    /// Color-friendly pairs.
    pub fn color_friendly_pairs(&self) -> &[(usize, usize)] {
        &self.color_friendly_pairs
    }

    /// The flat conflict adjacency (one [`Csr`] shared by every consumer;
    /// built on first use, neighbours in edge order).
    pub fn conflict_adjacency(&self) -> &Csr {
        self.conflict_adjacency
            .get_or_init(|| Csr::from_edges(self.vertex_count, &self.conflict_edges))
    }

    /// The flat stitch adjacency.
    pub fn stitch_adjacency(&self) -> &Csr {
        self.stitch_adjacency
            .get_or_init(|| Csr::from_edges(self.vertex_count, &self.stitch_edges))
    }

    /// The flat color-friendly adjacency.
    pub fn friendly_adjacency(&self) -> &Csr {
        self.friendly_adjacency
            .get_or_init(|| Csr::from_edges(self.vertex_count, &self.color_friendly_pairs))
    }

    /// Evaluates a coloring, returning `(conflicts, stitches, cost)` with
    /// `cost = conflicts + α · stitches` ([`mpl_ilp::evaluate_coloring`]).
    ///
    /// # Panics
    ///
    /// Panics if the coloring has the wrong length or uses a color `≥ k`.
    pub fn evaluate(&self, colors: &[u8]) -> (usize, usize, f64) {
        mpl_ilp::evaluate_coloring(
            self.vertex_count,
            self.k,
            self.alpha,
            &self.conflict_edges,
            &self.stitch_edges,
            colors,
        )
    }

    /// Builds the sub-problem induced by `vertices` (local ids), returning it
    /// together with the mapping from new ids to the ids in `self`.
    pub fn induced(&self, vertices: &[usize]) -> (ComponentProblem, Vec<usize>) {
        let mut new_id = vec![usize::MAX; self.vertex_count];
        let mut original = Vec::with_capacity(vertices.len());
        for &v in vertices {
            assert!(v < self.vertex_count, "vertex {v} out of range");
            if new_id[v] == usize::MAX {
                new_id[v] = original.len();
                original.push(v);
            }
        }
        let mut sub = ComponentProblem::new(original.len(), self.k, self.alpha);
        for &(u, v) in &self.conflict_edges {
            if new_id[u] != usize::MAX && new_id[v] != usize::MAX {
                sub.add_conflict(new_id[u], new_id[v]);
            }
        }
        for &(u, v) in &self.stitch_edges {
            if new_id[u] != usize::MAX && new_id[v] != usize::MAX {
                sub.add_stitch(new_id[u], new_id[v]);
            }
        }
        for &(u, v) in &self.color_friendly_pairs {
            if new_id[u] != usize::MAX && new_id[v] != usize::MAX {
                sub.add_color_friendly(new_id[u], new_id[v]);
            }
        }
        (sub, original)
    }

    /// Builds the sub-problem induced by `vertices` (local ids) with the
    /// edges in `cut_conflicts` / `cut_stitches` (normalized `(min, max)`
    /// pairs) removed, returning it together with the mapping from new ids
    /// to the ids in `self`.
    ///
    /// This is the kernel extraction of the simplification stage: cut
    /// bridges must not constrain the kernel coloring — they are satisfied
    /// afterwards by side rotation.  Only one occurrence of each listed
    /// pair is skipped per listing, so a parallel pair listed once keeps
    /// its other edge.
    pub fn induced_without(
        &self,
        vertices: &[usize],
        cut_conflicts: &[(usize, usize)],
        cut_stitches: &[(usize, usize)],
    ) -> (ComponentProblem, Vec<usize>) {
        let mut new_id = vec![usize::MAX; self.vertex_count];
        let mut original = Vec::with_capacity(vertices.len());
        for &v in vertices {
            assert!(v < self.vertex_count, "vertex {v} out of range");
            if new_id[v] == usize::MAX {
                new_id[v] = original.len();
                original.push(v);
            }
        }
        // Multiset of cut pairs: decrement as occurrences are skipped.
        let mut skip_conflicts: std::collections::HashMap<(usize, usize), usize> =
            std::collections::HashMap::new();
        for &(u, v) in cut_conflicts {
            *skip_conflicts.entry((u.min(v), u.max(v))).or_insert(0) += 1;
        }
        let mut skip_stitches: std::collections::HashMap<(usize, usize), usize> =
            std::collections::HashMap::new();
        for &(u, v) in cut_stitches {
            *skip_stitches.entry((u.min(v), u.max(v))).or_insert(0) += 1;
        }
        let mut sub = ComponentProblem::new(original.len(), self.k, self.alpha);
        for &(u, v) in &self.conflict_edges {
            if new_id[u] == usize::MAX || new_id[v] == usize::MAX {
                continue;
            }
            if let Some(count) = skip_conflicts.get_mut(&(u.min(v), u.max(v))) {
                if *count > 0 {
                    *count -= 1;
                    continue;
                }
            }
            sub.add_conflict(new_id[u], new_id[v]);
        }
        for &(u, v) in &self.stitch_edges {
            if new_id[u] == usize::MAX || new_id[v] == usize::MAX {
                continue;
            }
            if let Some(count) = skip_stitches.get_mut(&(u.min(v), u.max(v))) {
                if *count > 0 {
                    *count -= 1;
                    continue;
                }
            }
            sub.add_stitch(new_id[u], new_id[v]);
        }
        for &(u, v) in &self.color_friendly_pairs {
            if new_id[u] != usize::MAX && new_id[v] != usize::MAX {
                sub.add_color_friendly(new_id[u], new_id[v]);
            }
        }
        (sub, original)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ComponentProblem {
        let mut p = ComponentProblem::new(4, 4, 0.1);
        p.add_conflict(0, 1);
        p.add_conflict(1, 2);
        p.add_stitch(2, 3);
        p.add_color_friendly(0, 3);
        p
    }

    #[test]
    fn accessors() {
        let p = sample();
        assert_eq!(p.vertex_count(), 4);
        assert_eq!(p.k(), 4);
        assert_eq!(p.alpha(), 0.1);
        assert_eq!(p.color_friendly_pairs(), &[(0, 3)]);
    }

    #[test]
    fn evaluate_counts_conflicts_and_stitches() {
        let p = sample();
        let (c, s, cost) = p.evaluate(&[0, 0, 1, 2]);
        assert_eq!(c, 1); // edge (0, 1) is monochromatic
        assert_eq!(s, 1); // stitch (2, 3) has different colors
        assert!((cost - 1.1).abs() < 1e-9);
        let (c2, s2, _) = p.evaluate(&[0, 1, 0, 0]);
        assert_eq!((c2, s2), (0, 0));
    }

    #[test]
    fn induced_subproblem_remaps_edges() {
        let p = sample();
        let (sub, original) = p.induced(&[1, 2, 3]);
        assert_eq!(original, vec![1, 2, 3]);
        assert_eq!(sub.vertex_count(), 3);
        assert_eq!(sub.conflict_edges(), &[(0, 1)]); // 1-2 in the original
        assert_eq!(sub.stitch_edges(), &[(1, 2)]); // 2-3 in the original
        assert!(sub.color_friendly_pairs().is_empty());
    }

    #[test]
    fn induced_without_skips_cut_edges() {
        let mut p = ComponentProblem::new(4, 4, 0.1);
        p.add_conflict(0, 1);
        p.add_conflict(1, 2);
        p.add_conflict(1, 2); // parallel edge: only one occurrence is cut
        p.add_stitch(2, 3);
        let (sub, original) = p.induced_without(&[0, 1, 2, 3], &[(2, 1)], &[(2, 3)]);
        assert_eq!(original, vec![0, 1, 2, 3]);
        assert_eq!(sub.conflict_edges(), &[(0, 1), (1, 2)]);
        assert!(sub.stitch_edges().is_empty());
    }

    #[test]
    #[should_panic(expected = "coloring length mismatch")]
    fn evaluate_rejects_bad_length() {
        let _ = sample().evaluate(&[0, 1]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edges_panic() {
        let mut p = ComponentProblem::new(2, 4, 0.1);
        p.add_conflict(0, 7);
    }
}
