//! Flat compressed-sparse-row (CSR) adjacency.
//!
//! The decomposition hot path builds an adjacency view of a small graph for
//! *every* component it colors — once per simplification, once per
//! biconnectivity split, once per (K−1)-cut division.  Materialising a `Vec<Vec<usize>>`
//! for each of those views costs one heap allocation per vertex; a CSR view
//! is two flat arrays (`offsets`, `targets`) that can be rebuilt in place,
//! so a long batch re-uses the same two buffers for every component.
//!
//! Neighbour order is **stable**: vertex `v`'s neighbour list enumerates the
//! edges incident to `v` in the order the edges were supplied, exactly as
//! pushing onto per-vertex `Vec`s would.  Every algorithm that used to walk
//! `Vec<Vec<usize>>` adjacency therefore visits neighbours in the identical
//! order after switching to [`Csr`].

/// A compressed-sparse-row adjacency view over dense vertex ids `0..n`.
///
/// Each undirected edge `(u, v)` contributes two arcs: `v` in `u`'s
/// neighbour list and `u` in `v`'s.  Parallel edges keep their multiplicity.
///
/// # Example
///
/// ```
/// use mpl_graph::Csr;
///
/// let csr = Csr::from_edges(4, &[(0, 1), (1, 2), (1, 3)]);
/// assert_eq!(csr.neighbors(1), &[0, 2, 3]);
/// assert_eq!(csr.degree(0), 1);
/// assert_eq!(csr.vertex_count(), 4);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Csr {
    /// `offsets[v]..offsets[v + 1]` indexes `targets`; length `n + 1`.
    offsets: Vec<usize>,
    /// Concatenated neighbour lists.
    targets: Vec<usize>,
}

impl Csr {
    /// An empty adjacency over zero vertices.
    pub fn new() -> Self {
        Csr::default()
    }

    /// Builds the adjacency of `n` vertices from an undirected edge list.
    pub fn from_edges(n: usize, edges: &[(usize, usize)]) -> Self {
        let mut csr = Csr::new();
        csr.rebuild(n, edges.iter().copied());
        csr
    }

    /// Rebuilds the adjacency in place, reusing the existing buffers.
    ///
    /// `edges` is consumed twice (degree counting, then placement), so it
    /// must be cheaply cloneable — slice iterators, `chain`s and `filter`s
    /// of them all are.
    ///
    /// # Panics
    ///
    /// Panics if an edge endpoint is `>= n`.
    pub fn rebuild<I>(&mut self, n: usize, edges: I)
    where
        I: Iterator<Item = (usize, usize)> + Clone,
    {
        self.offsets.clear();
        self.offsets.resize(n + 1, 0);
        // Pass 1: count degrees into offsets[v + 1].
        let mut arcs = 0usize;
        for (u, v) in edges.clone() {
            assert!(
                u < n && v < n,
                "edge ({u}, {v}) out of range for {n} vertices"
            );
            self.offsets[u + 1] += 1;
            self.offsets[v + 1] += 1;
            arcs += 2;
        }
        for v in 0..n {
            let base = self.offsets[v];
            self.offsets[v + 1] += base;
        }
        // Pass 2: place arcs, using offsets[v] itself as the write cursor of
        // row v.  After placement offsets[v] has advanced to the row's end
        // (= the start of row v + 1), so one right-shift restores it —
        // no cursor allocation needed.
        self.targets.clear();
        self.targets.resize(arcs, 0);
        for (u, v) in edges {
            self.targets[self.offsets[u]] = v;
            self.offsets[u] += 1;
            self.targets[self.offsets[v]] = u;
            self.offsets[v] += 1;
        }
        for v in (1..=n).rev() {
            self.offsets[v] = self.offsets[v - 1];
        }
        if n > 0 {
            self.offsets[0] = 0;
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn vertex_count(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// The neighbours of `v`, in edge-supply order.
    #[inline]
    pub fn neighbors(&self, v: usize) -> &[usize] {
        &self.targets[self.offsets[v]..self.offsets[v + 1]]
    }

    /// The degree of `v` (parallel edges counted individually).
    #[inline]
    pub fn degree(&self, v: usize) -> usize {
        self.offsets[v + 1] - self.offsets[v]
    }

    /// Total number of stored arcs (twice the edge count).
    #[inline]
    pub fn arc_count(&self) -> usize {
        self.targets.len()
    }
}

/// Flat `(neighbour, edge index)` incidence over dense vertex ids `0..n`:
/// vertex `v` owns `entries[offsets[v]..offsets[v + 1]]`, in edge order,
/// as pushing onto per-vertex `Vec`s would list them.
pub(crate) struct Incidence {
    offsets: Vec<usize>,
    entries: Vec<(usize, usize)>,
}

impl Incidence {
    /// The incidence of `edges`, indexed in iteration order (a counting
    /// sort; `edges` is consumed twice, as in [`Csr::rebuild`]).
    ///
    /// # Panics
    ///
    /// Panics if an edge endpoint is `>= n`.
    pub(crate) fn new<I>(n: usize, edges: I) -> Self
    where
        I: Iterator<Item = (usize, usize)> + Clone,
    {
        let mut offsets = vec![0usize; n + 1];
        for (u, v) in edges.clone() {
            assert!(
                u < n && v < n,
                "edge ({u}, {v}) out of range for {n} vertices"
            );
            offsets[u + 1] += 1;
            offsets[v + 1] += 1;
        }
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        // `offsets[v]` is row v's write cursor, as in `Csr::rebuild`: it
        // ends at the start of row v + 1, and one right shift restores it.
        let mut entries = vec![(0, 0); offsets[n]];
        for (index, (u, v)) in edges.enumerate() {
            entries[offsets[u]] = (v, index);
            offsets[u] += 1;
            entries[offsets[v]] = (u, index);
            offsets[v] += 1;
        }
        offsets.copy_within(0..n, 1);
        offsets[0] = 0;
        Incidence { offsets, entries }
    }

    /// The `(neighbour, edge index)` entries of `v`, in edge order.
    #[inline]
    pub(crate) fn of(&self, v: usize) -> &[(usize, usize)] {
        &self.entries[self.offsets[v]..self.offsets[v + 1]]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph() {
        let csr = Csr::from_edges(0, &[]);
        assert_eq!(csr.vertex_count(), 0);
        assert_eq!(csr.arc_count(), 0);
    }

    #[test]
    fn neighbor_order_matches_push_order() {
        // The reference semantics: adjacency built by pushing both
        // directions of every edge in order.
        let edges = [(2usize, 0usize), (0, 1), (2, 1), (0, 3)];
        let n = 4;
        let mut reference: Vec<Vec<usize>> = vec![Vec::new(); n];
        for &(u, v) in &edges {
            reference[u].push(v);
            reference[v].push(u);
        }
        let csr = Csr::from_edges(n, &edges);
        for (v, expected) in reference.iter().enumerate() {
            assert_eq!(csr.neighbors(v), expected.as_slice(), "vertex {v}");
            assert_eq!(csr.degree(v), expected.len());
        }
    }

    #[test]
    fn parallel_edges_keep_multiplicity() {
        let csr = Csr::from_edges(2, &[(0, 1), (0, 1)]);
        assert_eq!(csr.neighbors(0), &[1, 1]);
        assert_eq!(csr.degree(1), 2);
        assert_eq!(csr.arc_count(), 4);
    }

    #[test]
    fn rebuild_reuses_buffers_for_smaller_graphs() {
        let mut csr = Csr::from_edges(5, &[(0, 4), (1, 2), (2, 3)]);
        let capacity = csr.targets.capacity();
        csr.rebuild(3, [(0usize, 1usize)].into_iter());
        assert_eq!(csr.vertex_count(), 3);
        assert_eq!(csr.neighbors(0), &[1]);
        assert_eq!(csr.neighbors(2), &[] as &[usize]);
        assert!(csr.targets.capacity() >= 2);
        assert!(capacity >= csr.targets.capacity());
    }

    #[test]
    fn rebuild_accepts_filtered_chained_iterators() {
        let conflict = [(0usize, 1usize), (1, 2)];
        let stitch = [(2usize, 3usize)];
        let mut csr = Csr::new();
        csr.rebuild(
            4,
            conflict
                .iter()
                .copied()
                .chain(stitch.iter().copied())
                .filter(|&(u, _)| u != 0),
        );
        assert_eq!(csr.neighbors(0), &[] as &[usize]);
        assert_eq!(csr.neighbors(2), &[1, 3]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_panics() {
        let _ = Csr::from_edges(2, &[(0, 5)]);
    }
}
