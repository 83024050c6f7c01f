//! Iterated graph simplification: hide low-degree vertices and cut bridges
//! until a fixed point, leaving a small *kernel* to color exactly.
//!
//! The DAC'14 flow peels low-degree vertices once before division; OpenMPL
//! showed that *iterating* the simplification — hide, cut, re-hide — is
//! where most of the practical shrink comes from, because each cut lowers
//! degrees and each hide can turn a cycle edge into a bridge.  This module
//! implements that loop over a conflict/stitch multigraph:
//!
//! * **Hide** — a vertex with active conflict degree `< K` and active
//!   stitch degree `< 2` can always be colored after the rest: at
//!   reinsertion time fewer than `K` of its conflict neighbours are
//!   colored, so a conflict-free color exists (and at most one stitch
//!   partner constrains the preference).
//! * **Cut** — a *bridge* of the active union (conflict ∪ stitch) graph
//!   separates it into two sides joined by that single edge.  Color
//!   rotations (`c ← (c + r) mod K`) preserve every conflict and stitch
//!   inside a side, so after coloring both sides independently, rotating
//!   one side to satisfy the cut edge is free.
//!
//! Operations are recorded in application order on an op stack
//! ([`Simplification::ops`]); recovery replays them in *reverse* order
//! (greedy color for each hidden vertex, side rotation for each cut).  The
//! safety argument for batched cuts: when a cut is recovered, every vertex
//! of its recorded side was active when the side was computed, so every
//! edge between vertices colored at that moment already existed then — and
//! by construction of the side (breadth-first reachability avoiding only
//! the cut edge) no such edge crosses the side boundary except the cut
//! edge itself, which the rotation choice satisfies.

use crate::csr::Incidence;
use crate::Biconnectivity;

/// One recorded simplification step, to be undone in reverse order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimplifyOp {
    /// The vertex was hidden: its active conflict degree was `< K` and its
    /// active stitch degree `< 2`, so a greedy color is safe at recovery.
    Hide(usize),
    /// A bridge of the active union graph was cut.
    Cut {
        /// The endpoint left outside the recorded side.
        u: usize,
        /// The endpoint inside the recorded side.
        v: usize,
        /// `true` for a conflict edge, `false` for a stitch edge.
        conflict: bool,
        /// Every vertex (active at cut time) reachable from `v` without
        /// crossing the cut edge — the side to rotate at recovery.
        side: Vec<usize>,
    },
}

/// The result of [`simplify`]: the kernel left to color plus the op stack
/// describing how to reinsert everything else.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Simplification {
    /// Hide and cut operations in application order; recover in reverse.
    pub ops: Vec<SimplifyOp>,
    /// Vertices still active at the fixed point, in ascending order.
    pub kernel: Vec<usize>,
    /// Number of rounds that made progress before the fixed point.
    pub rounds: usize,
    /// Cut conflict edges as `(min, max)` endpoint pairs.
    pub cut_conflicts: Vec<(usize, usize)>,
    /// Cut stitch edges as `(min, max)` endpoint pairs.
    pub cut_stitches: Vec<(usize, usize)>,
}

impl Simplification {
    /// Number of hidden vertices.
    pub fn hidden_count(&self) -> usize {
        self.ops
            .iter()
            .filter(|op| matches!(op, SimplifyOp::Hide(_)))
            .count()
    }

    /// Number of cut edges (conflict + stitch).
    pub fn cut_count(&self) -> usize {
        self.cut_conflicts.len() + self.cut_stitches.len()
    }

    /// `true` when nothing was hidden or cut (the kernel is the whole
    /// graph and recovery is a no-op).
    pub fn is_trivial(&self) -> bool {
        self.ops.is_empty()
    }
}

/// Iterates {hide low-degree vertices, cut bridges} on the union of
/// `conflict_edges` and `stitch_edges` over `n` vertices until neither
/// pass makes progress.
///
/// `hide` enables the low-degree pass (active conflict degree `< k` and
/// active stitch degree `< 2`); `cut` enables the bridge pass.  With both
/// disabled the result is trivial.  Edge ids `0..conflicts` are conflict
/// edges, the rest stitches; parallel edges are handled (a pair connected
/// by two edges is never treated as a bridge).
///
/// # Panics
///
/// Panics if an edge endpoint is `≥ n`.
pub fn simplify(
    n: usize,
    conflict_edges: &[(usize, usize)],
    stitch_edges: &[(usize, usize)],
    k: usize,
    hide: bool,
    cut: bool,
) -> Simplification {
    let conflict_count = conflict_edges.len();
    let edge_count = conflict_count + stitch_edges.len();
    // Edge ids in incidence order: conflicts first, then stitches, so cuts
    // can remove a single edge of a parallel pair.
    let incidence = Incidence::new(n, conflict_edges.iter().chain(stitch_edges).copied());
    let endpoints = |id: usize| -> (usize, usize) {
        if id < conflict_count {
            conflict_edges[id]
        } else {
            stitch_edges[id - conflict_count]
        }
    };

    let mut active = vec![true; n];
    let mut removed_edge = vec![false; edge_count];
    let mut conflict_degree = vec![0usize; n];
    let mut stitch_degree = vec![0usize; n];
    for v in 0..n {
        for &(_, id) in incidence.of(v) {
            if id < conflict_count {
                conflict_degree[v] += 1;
            } else {
                stitch_degree[v] += 1;
            }
        }
    }

    let mut ops = Vec::new();
    let mut cut_conflicts = Vec::new();
    let mut cut_stitches = Vec::new();
    let mut rounds = 0usize;
    let mut worklist: Vec<usize> = Vec::new();
    // The cut pass's dense remap of the active sub-graph and its sides'
    // visit stamps, reused across rounds.
    let mut local = vec![usize::MAX; n];
    let (mut edges, mut edge_ids) = (Vec::new(), Vec::new());
    let mut bridge_ids = Vec::new();
    let mut sides = SideSearch::new(n);
    loop {
        let mut progressed = false;

        // ---- Hide pass: worklist-iterated low-degree removal. ----
        if hide {
            worklist.clear();
            for v in 0..n {
                if active[v] && conflict_degree[v] < k && stitch_degree[v] < 2 {
                    worklist.push(v);
                }
            }
            while let Some(v) = worklist.pop() {
                if !active[v] || conflict_degree[v] >= k || stitch_degree[v] >= 2 {
                    continue;
                }
                active[v] = false;
                ops.push(SimplifyOp::Hide(v));
                progressed = true;
                for &(u, id) in incidence.of(v) {
                    if !active[u] || removed_edge[id] {
                        continue;
                    }
                    if id < conflict_count {
                        conflict_degree[u] -= 1;
                    } else {
                        stitch_degree[u] -= 1;
                    }
                    if conflict_degree[u] < k && stitch_degree[u] < 2 {
                        worklist.push(u);
                    }
                }
            }
        }

        // ---- Cut pass: one Tarjan sweep finds the round's bridges. ----
        if cut && active.contains(&true) {
            // Dense remap of the active sub-graph.
            let mut vertex_count = 0;
            for v in 0..n {
                if active[v] {
                    local[v] = vertex_count;
                    vertex_count += 1;
                }
            }
            edges.clear();
            edge_ids.clear();
            for (id, &removed) in removed_edge.iter().enumerate() {
                let (u, v) = endpoints(id);
                if !removed && active[u] && active[v] {
                    edges.push((local[u], local[v]));
                    edge_ids.push(id);
                }
            }
            if !edges.is_empty() {
                // A bridge is a biconnected component of one edge: a pair
                // joined twice shares its component with the other edge.
                let biconnectivity = Biconnectivity::compute_from_edges(vertex_count, &edges);
                bridge_ids.clear();
                bridge_ids.extend(biconnectivity.components().iter().filter_map(|component| {
                    match component[..] {
                        [edge] => Some(edge_ids[edge]),
                        _ => None,
                    }
                }));
                bridge_ids.sort_unstable();
                for &id in &bridge_ids {
                    if removed_edge[id] {
                        continue;
                    }
                    let (u, v) = endpoints(id);
                    if !active[u] || !active[v] {
                        continue;
                    }
                    // Side of `v`: active vertices reachable without the
                    // candidate edge (respecting cuts made earlier this
                    // round).  If `u` is reachable the edge is not a bridge
                    // any more (parallel edge or stale candidate) — skip.
                    let Some(side) = sides.side_of(v, u, id, &incidence, &active, &removed_edge)
                    else {
                        continue;
                    };
                    // Prefer rotating the smaller side at recovery.
                    let (u, v, side) = {
                        let other = sides
                            .side_of(u, v, id, &incidence, &active, &removed_edge)
                            .expect("a bridge separates both endpoints");
                        if other.len() < side.len() {
                            (v, u, other)
                        } else {
                            (u, v, side)
                        }
                    };
                    removed_edge[id] = true;
                    let conflict = id < conflict_count;
                    let (a, b) = endpoints(id);
                    if conflict {
                        cut_conflicts.push((a.min(b), a.max(b)));
                        conflict_degree[a] -= 1;
                        conflict_degree[b] -= 1;
                    } else {
                        cut_stitches.push((a.min(b), a.max(b)));
                        stitch_degree[a] -= 1;
                        stitch_degree[b] -= 1;
                    }
                    ops.push(SimplifyOp::Cut {
                        u,
                        v,
                        conflict,
                        side,
                    });
                    progressed = true;
                }
            }
        }

        if !progressed {
            break;
        }
        rounds += 1;
    }

    Simplification {
        ops,
        kernel: (0..n).filter(|&v| active[v]).collect(),
        rounds,
        cut_conflicts,
        cut_stitches,
    }
}

/// The cut pass's side search, with a visit stamp per vertex that each
/// search renews instead of clearing.
struct SideSearch {
    stamps: Vec<usize>,
    stamp: usize,
    stack: Vec<usize>,
}

impl SideSearch {
    fn new(n: usize) -> Self {
        SideSearch {
            stamps: vec![0; n],
            stamp: 0,
            stack: Vec::new(),
        }
    }

    /// Active vertices reachable from `from` without crossing edge
    /// `skip_id`, ascending, or `None` if `other` (the far endpoint) turns
    /// out reachable — meaning the candidate edge does not actually
    /// separate the graph.
    fn side_of(
        &mut self,
        from: usize,
        other: usize,
        skip_id: usize,
        incidence: &Incidence,
        active: &[bool],
        removed_edge: &[bool],
    ) -> Option<Vec<usize>> {
        self.stamp += 1;
        self.stack.clear();
        self.stack.push(from);
        self.stamps[from] = self.stamp;
        let mut side = Vec::new();
        while let Some(v) = self.stack.pop() {
            if v == other {
                return None;
            }
            side.push(v);
            for &(u, id) in incidence.of(v) {
                if id == skip_id || removed_edge[id] || !active[u] || self.stamps[u] == self.stamp {
                    continue;
                }
                self.stamps[u] = self.stamp;
                self.stack.push(u);
            }
        }
        side.sort_unstable();
        Some(side)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clique_edges(vertices: &[usize]) -> Vec<(usize, usize)> {
        let mut edges = Vec::new();
        for (i, &u) in vertices.iter().enumerate() {
            for &v in &vertices[i + 1..] {
                edges.push((u.min(v), u.max(v)));
            }
        }
        edges
    }

    #[test]
    fn sparse_graphs_hide_everything() {
        // A path: every vertex has conflict degree ≤ 2 < 4.
        let edges: Vec<_> = (0..5).map(|i| (i, i + 1)).collect();
        let s = simplify(6, &edges, &[], 4, true, true);
        assert!(s.kernel.is_empty());
        assert_eq!(s.hidden_count(), 6);
        assert_eq!(s.cut_count(), 0);
        assert!(s.rounds >= 1);
    }

    #[test]
    fn dense_cores_survive_and_pendants_hide() {
        // K5 core with a pendant path 4-5-6-7.
        let mut edges = clique_edges(&[0, 1, 2, 3, 4]);
        edges.extend([(4, 5), (5, 6), (6, 7)]);
        let s = simplify(8, &edges, &[], 4, true, true);
        assert_eq!(s.kernel, vec![0, 1, 2, 3, 4]);
        assert_eq!(s.hidden_count(), 3);
    }

    #[test]
    fn bridges_between_dense_cores_are_cut() {
        // Two K5s joined by a single bridge (4, 5): hiding removes nothing
        // (every clique vertex has degree ≥ 4), but the bridge cut splits
        // the kernel into two independent cliques.
        let mut edges = clique_edges(&[0, 1, 2, 3, 4]);
        edges.extend(clique_edges(&[5, 6, 7, 8, 9]));
        edges.push((4, 5));
        let s = simplify(10, &edges, &[], 4, true, true);
        assert_eq!(s.kernel.len(), 10);
        assert_eq!(s.cut_conflicts, vec![(4, 5)]);
        assert_eq!(s.cut_count(), 1);
        // The recorded side is the smaller... both sides are 5 vertices;
        // whichever was kept, it contains exactly one endpoint.
        let SimplifyOp::Cut { u, v, ref side, .. } = s.ops[0] else {
            panic!("expected a cut op");
        };
        assert!(side.contains(&v));
        assert!(!side.contains(&u));
        assert_eq!(side.len(), 5);
    }

    #[test]
    fn cutting_enables_further_hiding() {
        // Two triangles joined by a bridge: degrees are all < 4, so the
        // hide pass alone clears the plain version.
        let edges = vec![(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)];
        let s = simplify(6, &edges, &[], 4, true, true);
        assert!(s.kernel.is_empty());

        // Pin vertices 2 and 3 with two stitch edges each (stitch degree
        // 2 blocks hiding).  The stitch pendants 6..9 have stitch degree
        // 1 and hide first, dropping 2 and 3 back under the threshold —
        // the fixed point still empties the graph.
        let stitches = vec![(2, 6), (2, 7), (3, 8), (3, 9)];
        let s = simplify(10, &edges, &stitches, 4, true, true);
        assert!(s.kernel.is_empty());
        assert!(s.rounds >= 1);
    }

    #[test]
    fn iterated_rounds_peel_after_cuts() {
        // K4 {0..3} propped up by a bridge to a K5 {4..8}: vertices 0..2
        // hide immediately (degree 3), which drops vertex 3 to degree 1
        // so it hides too; the K5 keeps degree ≥ 4 and survives.
        let mut edges = clique_edges(&[0, 1, 2, 3]);
        edges.extend(clique_edges(&[4, 5, 6, 7, 8]));
        edges.push((3, 4));
        let s = simplify(9, &edges, &[], 4, true, true);
        assert_eq!(s.kernel, vec![4, 5, 6, 7, 8]);
        assert_eq!(s.hidden_count(), 4);
        assert_eq!(s.cut_count(), 0);

        // Chain of three K5s: both bridges are found by the single
        // Tarjan sweep of round 1.
        let mut edges = clique_edges(&[0, 1, 2, 3, 4]);
        edges.extend(clique_edges(&[5, 6, 7, 8, 9]));
        edges.extend(clique_edges(&[10, 11, 12, 13, 14]));
        edges.push((4, 5));
        edges.push((9, 10));
        let s = simplify(15, &edges, &[], 4, true, true);
        assert_eq!(s.cut_count(), 2);
        assert_eq!(s.rounds, 1);
    }

    #[test]
    fn stitch_bridges_are_cut_and_typed() {
        // Two K5s joined by a stitch edge.
        let mut conflicts = clique_edges(&[0, 1, 2, 3, 4]);
        conflicts.extend(clique_edges(&[5, 6, 7, 8, 9]));
        let stitches = vec![(4, 5)];
        let s = simplify(10, &conflicts, &stitches, 4, true, true);
        assert_eq!(s.cut_stitches, vec![(4, 5)]);
        assert!(s.cut_conflicts.is_empty());
    }

    #[test]
    fn parallel_edges_are_never_cut() {
        // Two K5s joined by BOTH a conflict and a stitch edge between the
        // same pair: neither is a bridge of the multigraph.
        let mut conflicts = clique_edges(&[0, 1, 2, 3, 4]);
        conflicts.extend(clique_edges(&[5, 6, 7, 8, 9]));
        conflicts.push((4, 5));
        let stitches = vec![(4, 5)];
        let s = simplify(10, &conflicts, &stitches, 4, true, true);
        assert_eq!(s.cut_count(), 0, "a parallel pair is not a bridge");
        assert_eq!(s.kernel.len(), 10);
    }

    #[test]
    fn disabled_passes_do_nothing() {
        let edges = vec![(0, 1), (1, 2)];
        let s = simplify(3, &edges, &[], 4, false, false);
        assert!(s.is_trivial());
        assert_eq!(s.kernel, vec![0, 1, 2]);
        assert_eq!(s.rounds, 0);
    }

    #[test]
    fn ops_order_allows_reverse_recovery() {
        // K5, bridge, K5: the cut is recorded, and both endpoints stay in
        // the kernel — every side vertex is active at cut time.
        let mut edges = clique_edges(&[0, 1, 2, 3, 4]);
        edges.extend(clique_edges(&[5, 6, 7, 8, 9]));
        edges.push((4, 5));
        // Add a pendant on vertex 9.  The hide pass runs before the cut
        // pass inside a round, so the pendant's Hide op precedes the Cut
        // op; recovery replays from the end, rotating the side (whose
        // vertices are all colored) before the pendant is re-colored —
        // and the side, computed after the hide, excludes the pendant.
        edges.push((9, 10));
        let s = simplify(11, &edges, &[], 4, true, true);
        assert_eq!(s.hidden_count(), 1);
        assert_eq!(s.cut_count(), 1);
        let hide_position = s
            .ops
            .iter()
            .position(|op| matches!(op, SimplifyOp::Hide(10)))
            .expect("pendant hidden");
        let cut_position = s
            .ops
            .iter()
            .position(|op| matches!(op, SimplifyOp::Cut { .. }))
            .expect("bridge cut");
        assert!(hide_position < cut_position);
        // The side computed after the hide must not contain the hidden
        // pendant.
        let SimplifyOp::Cut { ref side, .. } = s.ops[cut_position] else {
            unreachable!()
        };
        assert!(!side.contains(&10));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edges_panic() {
        let _ = simplify(2, &[(0, 5)], &[], 4, true, true);
    }
}
