//! Threshold connectivity partition via capped max-flows.
//!
//! The paper's (K−1)-cut removal (Algorithm 3) only needs the partition of
//! a component into groups whose pairwise min-cut is at least K — the
//! *values* of the cuts below K are irrelevant.  Min-cut values obey the
//! ultrametric-like inequality `mincut(u, w) ≥ min(mincut(u, v),
//! mincut(v, w))`, so "min-cut ≥ K" is an equivalence relation and the
//! groups are exactly the components of the Gomory–Hu tree after removing
//! edges lighter than K ([`GomoryHuTree::components_after_removing`]).
//!
//! [`threshold_components`] computes that partition directly with **capped**
//! max-flows ([`MaxFlow::max_flow_capped`]): a flow query stops after K
//! augmenting paths, because reaching K already proves "≥ K".
//!
//! **Neighbour certification.**  Each working set is visited in BFS order
//! from its representative `s`, and each vertex `t` is certified against an
//! already-certified graph neighbour `p` (falling back to `s` only when `t`
//! has none).  This is exact because "min-cut ≥ K" is transitive:
//! `mincut(s, t) ≥ min(mincut(s, p), mincut(p, t))`.  A query either
//! certifies `t` into the group (`f ≥ K`) or fails (`f < K`), and then
//! `mincut(s, t) < K` too, the flow is maximal, and the residual side of
//! `p` is a genuine cut of value < K.  Every certified vertex sits on `p`'s
//! side (a cut below K cannot separate it from `p`), and every pair across
//! the cut has min-cut < K, so the working set splits exactly as it would
//! through `s`.  Because `p` and `t` are adjacent, the query's early-exit
//! BFS passes ([`MaxFlow::max_flow_capped`]) stay in their neighbourhood
//! and its sparse resets touch only that neighbourhood, so a
//! well-connected piece costs near-linear work rather than one whole-graph
//! sweep per vertex.
//!
//! **Bounds.**  Each query consumes one of at most `n − 1` certificates and
//! with unit capacities pushes at most K augmenting paths: at most `n · K`
//! augmentations in total.  At most `groups − 1` queries fail; each of those
//! walks the residual reachable set of its `p`, which its final BFS pass
//! already labelled.
//!
//! [`GomoryHuTree::components_after_removing`]:
//! crate::GomoryHuTree::components_after_removing

use crate::{Graph, MaxFlow};

/// Reusable buffers for [`threshold_components_with`], so a batch of
/// components performs O(1) allocations per partition call.
#[derive(Debug, Clone, Default)]
pub struct ThresholdScratch {
    /// Every vertex, grouped into the working sets of `ranges`.
    order: Vec<usize>,
    tmp: Vec<usize>,
    ranges: Vec<(usize, usize)>,
    /// Per-vertex stamp of the current working set's phases: member,
    /// reached by its BFS, certified.
    stamp: Vec<usize>,
}

/// Partitions `0..n` into the groups of pairwise min-cut ≥ `threshold`
/// (unit capacities over the undirected `edges`), reusing `flow` and
/// `scratch` buffers.
///
/// Groups are returned with ascending vertex ids, ordered by their smallest
/// member — bit-identical to
/// [`GomoryHuTree::components_after_removing`](crate::GomoryHuTree::components_after_removing)
/// on the same graph (the partition is unique, and so is this ordering).
///
/// # Panics
///
/// Panics if an edge endpoint is `>= n`.
pub fn threshold_components_with(
    flow: &mut MaxFlow,
    scratch: &mut ThresholdScratch,
    n: usize,
    edges: &[(usize, usize)],
    threshold: i64,
) -> Vec<Vec<usize>> {
    if n == 0 {
        return Vec::new();
    }
    if threshold <= 0 {
        // Even zero-weight (disconnected) tree edges survive a non-positive
        // threshold: everything stays together.
        return vec![(0..n).collect()];
    }
    flow.assign_unit_graph(n, edges);
    let ThresholdScratch {
        order,
        tmp,
        ranges,
        stamp,
    } = scratch;
    order.clear();
    order.extend(0..n);
    ranges.clear();
    ranges.push((0, n));
    stamp.clear();
    stamp.resize(n, 0);
    let mut epoch = 0;
    let mut groups: Vec<Vec<usize>> = Vec::new();

    while let Some((start, mut end)) = ranges.pop() {
        let (member, reached, certified) = (epoch + 1, epoch + 2, epoch + 3);
        epoch += 3;
        // Reorder the working set breadth-first from `s` over the subgraph
        // it induces, so each vertex follows a neighbour wherever it can;
        // vertices `s` cannot reach inside the set keep their order at the
        // end.
        let s = order[start];
        for &v in &order[start..end] {
            stamp[v] = member;
        }
        tmp.clear();
        tmp.push(s);
        stamp[s] = reached;
        let mut head = 0;
        while head < tmp.len() {
            let u = tmp[head];
            head += 1;
            for w in flow.neighbors(u) {
                if stamp[w] == member {
                    stamp[w] = reached;
                    tmp.push(w);
                }
            }
        }
        tmp.extend(
            order[start..end]
                .iter()
                .copied()
                .filter(|&v| stamp[v] == member),
        );
        order[start..end].copy_from_slice(tmp);

        stamp[s] = certified;
        let mut i = start + 1;
        while i < end {
            let t = order[i];
            let p = flow
                .neighbors(t)
                .find(|&w| stamp[w] == certified)
                .unwrap_or(s);
            if flow.max_flow_capped(p, t, threshold) >= threshold {
                stamp[t] = certified;
                i += 1;
                continue;
            }
            // The flow is maximal (f < cap), so `p`'s residual side is a
            // genuine cut of value < threshold: every pair across it is
            // separated for good.  The certified vertices at positions
            // start..i are all on `p`'s side; split the rest stably, the far
            // side (led by `t`) becoming a working set of its own.
            debug_assert!(
                order[start..i].iter().all(|&v| flow.on_source_side(v)),
                "a certified vertex crossed the cut"
            );
            tmp.clear();
            tmp.extend(
                order[i..end]
                    .iter()
                    .copied()
                    .filter(|&v| flow.on_source_side(v)),
            );
            let near = i + tmp.len();
            tmp.extend(
                order[i..end]
                    .iter()
                    .copied()
                    .filter(|&v| !flow.on_source_side(v)),
            );
            order[i..end].copy_from_slice(tmp);
            ranges.push((near, end));
            end = near;
        }
        let mut group = order[start..end].to_vec();
        group.sort_unstable();
        groups.push(group);
    }
    groups.sort_by_key(|group| group[0]);
    groups
}

/// Convenience wrapper over [`threshold_components_with`] with fresh
/// buffers.
pub fn threshold_components(graph: &Graph, threshold: i64) -> Vec<Vec<usize>> {
    let mut flow = MaxFlow::new(0);
    let mut scratch = ThresholdScratch::default();
    threshold_components_with(
        &mut flow,
        &mut scratch,
        graph.vertex_count(),
        graph.edges(),
        threshold,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GomoryHuTree;

    fn assert_matches_gomory_hu(graph: &Graph, thresholds: std::ops::RangeInclusive<i64>) {
        let tree = GomoryHuTree::build(graph);
        for threshold in thresholds {
            let expected = tree.components_after_removing(threshold);
            let got = threshold_components(graph, threshold);
            assert_eq!(got, expected, "threshold {threshold} on {graph}");
        }
    }

    #[test]
    fn two_triangles_with_bridge_split_at_two() {
        let mut g = Graph::new(6);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(2, 0);
        g.add_edge(3, 4);
        g.add_edge(4, 5);
        g.add_edge(5, 3);
        g.add_edge(2, 3);
        assert_matches_gomory_hu(&g, 0..=4);
    }

    #[test]
    fn k4_with_pendant_matches() {
        let mut g = Graph::new(5);
        for i in 0..4 {
            for j in (i + 1)..4 {
                g.add_edge(i, j);
            }
        }
        g.add_edge(4, 0);
        g.add_edge(4, 1);
        g.add_edge(4, 2);
        assert_matches_gomory_hu(&g, 1..=5);
    }

    #[test]
    fn disconnected_and_empty_graphs() {
        let mut g = Graph::new(4);
        g.add_edge(0, 1);
        g.add_edge(2, 3);
        assert_matches_gomory_hu(&g, 0..=2);
        assert!(threshold_components(&Graph::new(0), 4).is_empty());
        assert_eq!(threshold_components(&Graph::new(1), 4), vec![vec![0usize]]);
    }

    #[test]
    fn random_graphs_match_gomory_hu_for_every_threshold() {
        let mut seed: u64 = 0x243F6A8885A308D3;
        let mut next = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 33) as usize
        };
        for case in 0..12 {
            let n = 4 + case % 6;
            let mut g = Graph::new(n);
            for i in 0..n {
                for j in (i + 1)..n {
                    if next() % 100 < 45 {
                        g.add_edge(i, j);
                    }
                }
            }
            assert_matches_gomory_hu(&g, 0..=6);
        }
    }

    #[test]
    fn augmenting_paths_stay_under_n_times_k() {
        let n = 12;
        let mut g = Graph::new(n);
        for i in 0..n {
            for j in (i + 1)..n {
                g.add_edge(i, j);
            }
        }
        let mut flow = MaxFlow::new(0);
        let mut scratch = ThresholdScratch::default();
        for k in 1..=5i64 {
            let before = flow.augmenting_paths();
            let groups = threshold_components_with(&mut flow, &mut scratch, n, g.edges(), k);
            assert_eq!(groups.len(), 1, "K{n} is {k}-connected");
            let pushed = flow.augmenting_paths() - before;
            assert!(
                pushed <= (n as u64) * (k as u64),
                "k={k}: {pushed} paths exceeds n*k"
            );
        }
    }

    #[test]
    fn lattice_arc_scans_per_vertex_stay_flat_as_the_lattice_grows() {
        // Certifying against neighbours keeps every query local, so the
        // max-flow work per vertex must not grow with the lattice (a
        // representative-only certification grows it about linearly).
        let mut flow = MaxFlow::new(0);
        let mut scratch = ThresholdScratch::default();
        let mut scans_per_vertex = Vec::new();
        for side in [12usize, 36] {
            let id = |x: usize, y: usize| y * side + x;
            let mut edges = Vec::new();
            for y in 0..side {
                for x in 0..side {
                    if x + 1 < side {
                        edges.push((id(x, y), id(x + 1, y)));
                    }
                    if y + 1 < side {
                        edges.push((id(x, y), id(x, y + 1)));
                        if x + 1 < side {
                            edges.push((id(x, y), id(x + 1, y + 1)));
                        }
                        if x > 0 {
                            edges.push((id(x, y), id(x - 1, y + 1)));
                        }
                    }
                }
            }
            let before = flow.arc_scans();
            let groups = threshold_components_with(&mut flow, &mut scratch, side * side, &edges, 3);
            assert_eq!(groups.len(), 1, "a degree-8 lattice is 3-edge-connected");
            scans_per_vertex.push((flow.arc_scans() - before) as f64 / (side * side) as f64);
        }
        assert!(
            scans_per_vertex[1] <= 1.5 * scans_per_vertex[0],
            "{scans_per_vertex:?}"
        );
    }

    #[test]
    fn scratch_reuse_across_graphs_is_clean() {
        let mut flow = MaxFlow::new(0);
        let mut scratch = ThresholdScratch::default();
        let mut big = Graph::new(8);
        for i in 0..8 {
            big.add_edge(i, (i + 1) % 8);
        }
        let first = threshold_components_with(&mut flow, &mut scratch, 8, big.edges(), 2);
        assert_eq!(first.len(), 1);
        let second = threshold_components_with(&mut flow, &mut scratch, 3, &[(0, 1)], 2);
        assert_eq!(second, vec![vec![0], vec![1], vec![2]]);
    }
}
