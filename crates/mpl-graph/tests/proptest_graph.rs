//! Property-based tests for the graph substrate.
//!
//! The key invariants checked here back the correctness arguments of the
//! decomposition flow: the Gomory–Hu tree must report exactly the same
//! min-cut values as direct max-flow computations, biconnected /
//! connected component structure must be consistent with reachability, and
//! the capped-flow (K−1)-cut partition must equal the Gomory–Hu tree's on
//! seeded graphs large enough for its neighbour certification to matter.

use mpl_graph::{
    connected_components, threshold_components_with, Biconnectivity, GomoryHuTree, Graph, MaxFlow,
    ThresholdScratch,
};
use proptest::prelude::*;

/// A seeded xorshift64 stream.
fn xorshift(seed: u64) -> impl FnMut() -> usize {
    let mut state = seed;
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state as usize
    }
}

/// Relabels `edges` over `0..n` by a seeded random permutation, so the
/// partition's representatives and BFS orders do not follow construction
/// order.
fn shuffled(n: usize, edges: &[(usize, usize)], next: &mut impl FnMut() -> usize) -> Graph {
    let mut label: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        label.swap(i, next() % (i + 1));
    }
    let mut g = Graph::new(n);
    for &(u, v) in edges {
        g.add_edge(label[u], label[v]);
    }
    g
}

/// A degree-8 lattice of `width × height` cells with about 8 % of the
/// cells cut out as holes and about 10 % of the remaining edges deleted.
fn holed_lattice(width: usize, height: usize, next: &mut impl FnMut() -> usize) -> Graph {
    let mut id = vec![usize::MAX; width * height];
    let mut n = 0;
    for cell in id.iter_mut() {
        if next() % 100 >= 8 {
            *cell = n;
            n += 1;
        }
    }
    let mut edges = Vec::new();
    for y in 0..height {
        for x in 0..width {
            for (dx, dy) in [(1, 0), (0, 1), (1, 1), (-1, 1)] {
                let (nx, ny) = (x as i64 + dx, y as i64 + dy);
                if nx < 0 || nx >= width as i64 || ny >= height as i64 {
                    continue;
                }
                let (a, b) = (id[y * width + x], id[ny as usize * width + nx as usize]);
                if a != usize::MAX && b != usize::MAX && next() % 100 >= 10 {
                    edges.push((a, b));
                }
            }
        }
    }
    shuffled(n, &edges, next)
}

/// `blocks` cliques of 5 or 6 vertices, each joined to the next by 2 or 3
/// random edges, and the last to the first when `ring` is set.
fn clique_chain(blocks: usize, ring: bool, next: &mut impl FnMut() -> usize) -> Graph {
    let mut starts = vec![0];
    for _ in 0..blocks {
        let size = 5 + next() % 2;
        starts.push(starts[starts.len() - 1] + size);
    }
    let mut edges = Vec::new();
    for block in starts.windows(2) {
        for u in block[0]..block[1] {
            for v in (u + 1)..block[1] {
                edges.push((u, v));
            }
        }
    }
    let joins = if ring { blocks } else { blocks - 1 };
    for b in 0..joins {
        let (a, c) = (b, (b + 1) % blocks);
        for _ in 0..2 + next() % 2 {
            let u = starts[a] + next() % (starts[a + 1] - starts[a]);
            let v = starts[c] + next() % (starts[c + 1] - starts[c]);
            edges.push((u, v));
        }
    }
    shuffled(starts[blocks], &edges, next)
}

/// Checks `threshold_components_with` against the Gomory–Hu reference for
/// every K in 2..=6 on one shared network, plus the `n · K` path bound.
fn assert_partition_matches_gomory_hu(
    graph: &Graph,
    flow: &mut MaxFlow,
    scratch: &mut ThresholdScratch,
    context: &str,
) {
    let tree = GomoryHuTree::build(graph);
    let n = graph.vertex_count();
    for k in 2..=6i64 {
        let before = flow.augmenting_paths();
        let got = threshold_components_with(flow, scratch, n, graph.edges(), k);
        assert_eq!(got, tree.components_after_removing(k), "{context} K={k}");
        assert!(
            flow.augmenting_paths() - before <= n as u64 * k as u64,
            "{context} K={k}"
        );
    }
}

#[test]
fn partition_matches_gomory_hu_on_holed_lattices() {
    let mut next = xorshift(0x2545F4914F6CDD1D);
    let (mut flow, mut scratch) = (MaxFlow::default(), ThresholdScratch::default());
    for case in 0..8 {
        let (width, height) = (7 + next() % 8, 7 + next() % 8);
        let graph = holed_lattice(width, height, &mut next);
        assert!((40..=210).contains(&graph.vertex_count()));
        let context = format!("lattice case {case} ({width}×{height})");
        assert_partition_matches_gomory_hu(&graph, &mut flow, &mut scratch, &context);
    }
}

#[test]
fn partition_matches_gomory_hu_on_chains_and_rings_of_cliques() {
    // Joins of 2 or 3 edges split one working set several times, and the
    // shuffled labels leave vertices whose certified neighbours were split
    // away.
    let mut next = xorshift(0x9E3779B97F4A7C15);
    let (mut flow, mut scratch) = (MaxFlow::default(), ThresholdScratch::default());
    for case in 0..8 {
        let blocks = 9 + next() % 24;
        let ring = case % 2 == 1;
        let graph = clique_chain(blocks, ring, &mut next);
        let context = format!("clique case {case} ({blocks} blocks, ring {ring})");
        assert_partition_matches_gomory_hu(&graph, &mut flow, &mut scratch, &context);
    }
}

/// A random sparse-to-medium-density graph on up to 12 vertices described by
/// an adjacency bit matrix.
fn arb_graph(max_n: usize) -> impl Strategy<Value = Graph> {
    (2..=max_n).prop_flat_map(move |n| {
        let pairs = n * (n - 1) / 2;
        prop::collection::vec(prop::bool::weighted(0.45), pairs).prop_map(move |bits| {
            let mut g = Graph::new(n);
            let mut k = 0;
            for i in 0..n {
                for j in (i + 1)..n {
                    if bits[k] {
                        g.add_edge(i, j);
                    }
                    k += 1;
                }
            }
            g
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn gomory_hu_matches_direct_min_cuts(g in arb_graph(9)) {
        let tree = GomoryHuTree::build(&g);
        let mut flow = MaxFlow::from_unit_graph(&g);
        for u in 0..g.vertex_count() {
            for v in (u + 1)..g.vertex_count() {
                prop_assert_eq!(tree.min_cut(u, v), flow.max_flow(u, v));
            }
        }
    }

    #[test]
    fn min_cut_zero_iff_different_components(g in arb_graph(10)) {
        let tree = GomoryHuTree::build(&g);
        let comps = connected_components(&g);
        for u in 0..g.vertex_count() {
            for v in (u + 1)..g.vertex_count() {
                let same = comps.component_of(u) == comps.component_of(v);
                prop_assert_eq!(tree.min_cut(u, v) > 0, same);
            }
        }
    }

    #[test]
    fn cut_removal_groups_refine_connected_components(g in arb_graph(10), k in 1i64..5) {
        let tree = GomoryHuTree::build(&g);
        let comps = connected_components(&g);
        for group in tree.components_after_removing(k) {
            // All vertices in a surviving group are in the same connected
            // component (their pairwise min cut is >= k >= 1 > 0).
            if group.len() > 1 {
                let c0 = comps.component_of(group[0]);
                for &v in &group[1..] {
                    prop_assert_eq!(comps.component_of(v), c0);
                }
            }
        }
    }

    #[test]
    fn cut_removal_keeps_high_connectivity_pairs_together(g in arb_graph(8), k in 1i64..5) {
        let tree = GomoryHuTree::build(&g);
        let groups = tree.components_after_removing(k);
        let group_of = |v: usize| groups.iter().position(|grp| grp.contains(&v)).expect("covered");
        let mut flow = MaxFlow::from_unit_graph(&g);
        for u in 0..g.vertex_count() {
            for v in (u + 1)..g.vertex_count() {
                // Lemma 2 direction used by the paper: a pair with min cut >= k
                // must stay in the same group after (k-1)-cut removal.
                if flow.max_flow(u, v) >= k {
                    prop_assert_eq!(group_of(u), group_of(v));
                }
            }
        }
    }

    #[test]
    fn bridges_disconnect_their_endpoints(g in arb_graph(10)) {
        let bc = Biconnectivity::compute(&g);
        let comps_before = connected_components(&g).component_count();
        for &(u, v) in bc.bridges() {
            // Rebuild the graph without one copy of that bridge.
            let mut h = Graph::new(g.vertex_count());
            let mut skipped = false;
            for &(a, b) in g.edges() {
                if !skipped && ((a, b) == (u, v) || (a, b) == (v, u)) {
                    skipped = true;
                    continue;
                }
                h.add_edge(a, b);
            }
            let comps_after = connected_components(&h).component_count();
            prop_assert_eq!(comps_after, comps_before + 1);
        }
    }

    #[test]
    fn biconnected_components_partition_edges(g in arb_graph(10)) {
        let bc = Biconnectivity::compute(&g);
        let mut seen = vec![false; g.edge_count()];
        for comp in bc.components() {
            for &e in comp {
                prop_assert!(!seen[e], "edge {} appears in two components", e);
                seen[e] = true;
            }
        }
        prop_assert!(seen.iter().all(|&s| s), "every edge belongs to a component");
    }

    #[test]
    fn connected_components_agree_with_bfs_reachability(g in arb_graph(10)) {
        let comps = connected_components(&g);
        // BFS from vertex 0 and compare membership.
        let mut reach = vec![false; g.vertex_count()];
        let mut stack = vec![0usize];
        reach[0] = true;
        while let Some(u) = stack.pop() {
            for &v in g.neighbors(u) {
                if !reach[v] {
                    reach[v] = true;
                    stack.push(v);
                }
            }
        }
        for (v, &reachable) in reach.iter().enumerate() {
            prop_assert_eq!(reachable, comps.component_of(v) == comps.component_of(0));
        }
    }

    #[test]
    fn induced_subgraph_preserves_adjacency(g in arb_graph(10)) {
        let n = g.vertex_count();
        let subset: Vec<usize> = (0..n).filter(|v| v % 2 == 0).collect();
        let (sub, original) = g.induced_subgraph(&subset);
        for i in 0..sub.vertex_count() {
            for j in 0..sub.vertex_count() {
                if i != j {
                    prop_assert_eq!(sub.has_edge(i, j), g.has_edge(original[i], original[j]));
                }
            }
        }
    }
}
