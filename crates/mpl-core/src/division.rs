//! Graph-division techniques (Section 4 of the paper).
//!
//! Division shrinks the instances handed to the color-assignment engines
//! without changing the achievable cost:
//!
//! * low-degree removal — vertices with conflict degree < K and stitch
//!   degree < 2 are removed to a fixed point and re-colored last, when a
//!   conflict-free color always exists.  The decomposer removes them
//!   through [`mpl_graph::simplify`], iterated with bridge cuts by default;
//!   [`peel_low_degree`] is its hide-only pass.
//! * [`biconnected_blocks`] — splits a component at its articulation
//!   points; blocks are colored independently and reconciled with a color
//!   permutation (free: permutations preserve both conflict and stitch
//!   costs inside a block).
//! * [`ghtree_pieces`] — the paper's novel Gomory–Hu-tree based (K−1)-cut
//!   removal (Algorithm 3): vertices whose pairwise min-cut is at least K
//!   stay together, everything else is split apart.
//! * [`merge_with_rotation`] — re-joins split pieces by rotating whole
//!   pieces (Lemma 1 / Theorem 2: with fewer than K cut edges a rotation
//!   that avoids every cross-piece conflict always exists).

use crate::ComponentProblem;
use mpl_graph::{threshold_components_with, Biconnectivity, MaxFlow, SimplifyOp, ThresholdScratch};
use std::cell::RefCell;

/// The result of the iterative low-degree removal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Peeling {
    /// Vertices that survive (conflict degree ≥ K or stitch degree ≥ 2 at
    /// the end of the peeling), in ascending order.
    pub kernel: Vec<usize>,
    /// Removed vertices in removal order; they must be re-colored in
    /// *reverse* order.
    pub stack: Vec<usize>,
}

/// Reusable buffers (plus work counters) threaded through every division
/// call of one component, so a batch of components performs O(1) heap
/// allocations per component instead of O(n).
///
/// One scratch lives per executor worker thread (see the crate-internal
/// `with_division_scratch`); the public division functions allocate a
/// fresh one per call for API compatibility.
#[derive(Debug, Default)]
pub struct DivisionScratch {
    flow: MaxFlow,
    threshold: ThresholdScratch,
    union_edges: Vec<(usize, usize)>,
    /// Problem-vertex → induced-vertex map (usize::MAX = absent).
    local: Vec<usize>,
    merged: Vec<bool>,
    conflict_rotation: Vec<usize>,
    stitch_match: Vec<usize>,
    covered: Vec<bool>,
    /// Buffer-growth events (a proxy for heap allocations on the hot path).
    alloc_events: u64,
    /// Σ |vertices| · K over every (K−1)-cut call — the certified ceiling
    /// for the augmenting-path count.
    augmenting_path_bound: u64,
}

impl DivisionScratch {
    /// Cumulative max-flow augmenting paths pushed through this scratch.
    pub fn augmenting_paths(&self) -> u64 {
        self.flow.augmenting_paths()
    }

    /// Cumulative `n · K` ceiling matching [`DivisionScratch::augmenting_paths`].
    pub fn augmenting_path_bound(&self) -> u64 {
        self.augmenting_path_bound
    }

    /// Cumulative arcs examined through this scratch by the (K−1)-cut
    /// division's max-flows and local certificates (see
    /// [`MaxFlow::arc_scans`]).
    pub fn arc_scans(&self) -> u64 {
        self.flow.arc_scans()
    }

    /// Cumulative buffer-growth events.
    pub fn alloc_events(&self) -> u64 {
        self.alloc_events
    }
}

thread_local! {
    static DIVISION_SCRATCH: RefCell<DivisionScratch> = RefCell::new(DivisionScratch::default());
}

/// Runs `f` with this thread's shared [`DivisionScratch`] (executor worker
/// threads keep one alive across every component they color).
pub(crate) fn with_division_scratch<R>(f: impl FnOnce(&mut DivisionScratch) -> R) -> R {
    DIVISION_SCRATCH.with(|scratch| f(&mut scratch.borrow_mut()))
}

/// Clears `vec` and resizes it to `n` copies of `fill`, counting a growth
/// event when the existing capacity does not suffice.
fn grow<T: Clone>(vec: &mut Vec<T>, n: usize, fill: T, allocs: &mut u64) {
    if vec.capacity() < n {
        *allocs += 1;
    }
    vec.clear();
    vec.resize(n, fill);
}

/// Iteratively removes non-critical vertices (conflict degree < K and stitch
/// degree < 2), mirroring lines 1–4 of Algorithm 2 and the division rule of
/// Section 4: the `Hide` ops and kernel of [`mpl_graph::simplify`] with its
/// cut pass off.
pub fn peel_low_degree(problem: &ComponentProblem) -> Peeling {
    let simplification = mpl_graph::simplify(
        problem.vertex_count(),
        problem.conflict_edges(),
        problem.stitch_edges(),
        problem.k(),
        true,
        false,
    );
    let stack = simplification
        .ops
        .into_iter()
        .map(|op| match op {
            SimplifyOp::Hide(v) => v,
            SimplifyOp::Cut { .. } => unreachable!("the cut pass is off"),
        })
        .collect();
    Peeling {
        kernel: simplification.kernel,
        stack,
    }
}

/// Fills `scratch.union_edges` with the conflict ∪ stitch edges induced by
/// `vertices`, remapped to local ids `0..vertices.len()` (identity mapping:
/// local `i` is `vertices[i]`), in global edge order.  Resets the local-id
/// map afterwards so the next call starts clean.
fn build_union_edges(
    problem: &ComponentProblem,
    vertices: &[usize],
    scratch: &mut DivisionScratch,
) {
    grow(
        &mut scratch.local,
        problem.vertex_count(),
        usize::MAX,
        &mut scratch.alloc_events,
    );
    for (index, &v) in vertices.iter().enumerate() {
        scratch.local[v] = index;
    }
    scratch.union_edges.clear();
    for &(u, v) in problem
        .conflict_edges()
        .iter()
        .chain(problem.stitch_edges())
    {
        let (lu, lv) = (scratch.local[u], scratch.local[v]);
        if lu != usize::MAX && lv != usize::MAX {
            scratch.union_edges.push((lu, lv));
        }
    }
}

/// Splits the sub-graph induced by `vertices` into 2-vertex-connected blocks
/// (each block is a list of the problem's vertex ids).  Vertices without any
/// incident edge inside `vertices` are returned as singleton blocks.
pub fn biconnected_blocks(problem: &ComponentProblem, vertices: &[usize]) -> Vec<Vec<usize>> {
    biconnected_blocks_with(problem, vertices, &mut DivisionScratch::default())
}

/// [`biconnected_blocks`] with caller-provided scratch buffers.
pub(crate) fn biconnected_blocks_with(
    problem: &ComponentProblem,
    vertices: &[usize],
    scratch: &mut DivisionScratch,
) -> Vec<Vec<usize>> {
    if vertices.is_empty() {
        return Vec::new();
    }
    build_union_edges(problem, vertices, scratch);
    let biconnectivity = Biconnectivity::compute_from_edges(vertices.len(), &scratch.union_edges);
    let mut blocks: Vec<Vec<usize>> = Vec::new();
    grow(
        &mut scratch.covered,
        vertices.len(),
        false,
        &mut scratch.alloc_events,
    );
    for component in biconnectivity.vertex_components_from_edges(&scratch.union_edges) {
        for &v in &component {
            scratch.covered[v] = true;
        }
        blocks.push(component.into_iter().map(|v| vertices[v]).collect());
    }
    // Isolated vertices (no incident edges) appear in no block.
    for (index, &v) in vertices.iter().enumerate() {
        if !scratch.covered[index] {
            blocks.push(vec![v]);
        }
    }
    blocks
}

/// Splits the sub-graph induced by `vertices` with the GH-tree based
/// (K−1)-cut removal: pieces are the groups of vertices whose pairwise
/// min-cut (in the induced union graph) is at least K.
///
/// This does not build the Gomory–Hu tree: the identical partition is
/// obtained by [`mpl_graph::threshold_components_with`], which certifies
/// each vertex against already-certified neighbours.  It first counts K
/// edge-disjoint paths of one or two edges to one of them (a local
/// certificate read off the adjacency lists, which answers almost every
/// vertex of a clique or a degree-8 lattice); only when that fails does it
/// run a max-flow query that stops after K augmenting paths.  Each query's
/// BFS passes stop at the sink and its resets touch only what the previous
/// query touched, so a well-connected piece costs near-linear work.  At
/// most `|vertices| · K` augmentations are pushed in total, and at most
/// `pieces − 1` queries fail, each walking its residual reachable set.
pub fn ghtree_pieces(problem: &ComponentProblem, vertices: &[usize]) -> Vec<Vec<usize>> {
    ghtree_pieces_with(problem, vertices, &mut DivisionScratch::default())
}

/// [`ghtree_pieces`] with caller-provided scratch buffers.
pub(crate) fn ghtree_pieces_with(
    problem: &ComponentProblem,
    vertices: &[usize],
    scratch: &mut DivisionScratch,
) -> Vec<Vec<usize>> {
    if vertices.is_empty() {
        return Vec::new();
    }
    build_union_edges(problem, vertices, scratch);
    scratch.augmenting_path_bound += (vertices.len() as u64) * (problem.k() as u64);
    let groups = threshold_components_with(
        &mut scratch.flow,
        &mut scratch.threshold,
        vertices.len(),
        &scratch.union_edges,
        problem.k() as i64,
    );
    groups
        .into_iter()
        .map(|piece| piece.into_iter().map(|v| vertices[v]).collect())
        .collect()
}

/// Re-joins independently colored pieces by color rotation.
///
/// `colors` holds a (possibly partial) coloring over the problem's vertices;
/// all vertices of every piece must already be colored.  Pieces are merged
/// one at a time: for each piece the rotation `c ← (c + r) mod K` minimising
/// the conflict-then-stitch cost towards the already-merged vertices is
/// applied.  Rotations never change costs inside a piece, so per Lemma 1 the
/// merge cannot increase the conflict count when the cut is smaller than K.
pub fn merge_with_rotation(problem: &ComponentProblem, pieces: &[Vec<usize>], colors: &mut [u8]) {
    merge_with_rotation_with(problem, pieces, colors, &mut DivisionScratch::default())
}

/// [`merge_with_rotation`] with caller-provided scratch buffers.
///
/// Instead of re-scanning every edge once per piece *and* rotation
/// (O(pieces · K · E)), each cross edge is visited once per merge step via
/// the problem's CSR adjacency and binned by the single rotation it would
/// make conflicting (or stitch-free): O(E + pieces · K) total.  The per
/// rotation cost is then reassembled with the same float-accumulation
/// sequence as the edge scan, so ties break identically.
pub(crate) fn merge_with_rotation_with(
    problem: &ComponentProblem,
    pieces: &[Vec<usize>],
    colors: &mut [u8],
    scratch: &mut DivisionScratch,
) {
    let k = problem.k();
    let alpha = problem.alpha();
    let conflict_adj = problem.conflict_adjacency();
    let stitch_adj = problem.stitch_adjacency();
    grow(
        &mut scratch.merged,
        problem.vertex_count(),
        false,
        &mut scratch.alloc_events,
    );
    grow(
        &mut scratch.conflict_rotation,
        k,
        0,
        &mut scratch.alloc_events,
    );
    grow(&mut scratch.stitch_match, k, 0, &mut scratch.alloc_events);
    for piece in pieces {
        if piece.is_empty() {
            continue;
        }
        // Bin every cross edge (piece → already-merged) by the rotation at
        // which it is monochromatic: a conflict edge costs 1 exactly at
        // that rotation, a stitch edge costs α at every other rotation.
        scratch.conflict_rotation.iter_mut().for_each(|c| *c = 0);
        scratch.stitch_match.iter_mut().for_each(|c| *c = 0);
        let mut stitch_total = 0usize;
        for &v in piece {
            let inside = colors[v] as usize;
            for &u in conflict_adj.neighbors(v) {
                if scratch.merged[u] {
                    scratch.conflict_rotation[(colors[u] as usize + k - inside) % k] += 1;
                }
            }
            for &u in stitch_adj.neighbors(v) {
                if scratch.merged[u] {
                    scratch.stitch_match[(colors[u] as usize + k - inside) % k] += 1;
                    stitch_total += 1;
                }
            }
        }
        let mut best_rotation = 0u8;
        let mut best_cost = f64::INFINITY;
        for rotation in 0..k {
            // Reproduce the edge scan's accumulation order exactly: an
            // exact integer conflict count first, then one sequential α
            // addition per unmatched stitch edge.
            let mut cost = scratch.conflict_rotation[rotation] as f64;
            for _ in 0..(stitch_total - scratch.stitch_match[rotation]) {
                cost += alpha;
            }
            if cost < best_cost {
                best_cost = cost;
                best_rotation = rotation as u8;
            }
        }
        if best_rotation != 0 {
            for &v in piece {
                colors[v] = (colors[v] + best_rotation) % k as u8;
            }
        }
        for &v in piece {
            scratch.merged[v] = true;
        }
    }
}

/// Applies a color permutation to `piece` so that `anchor`'s color becomes
/// `target`, swapping the two colors involved everywhere in the piece.
/// Used when re-joining biconnected blocks at an articulation vertex.
pub fn permute_to_match(piece: &[usize], colors: &mut [u8], anchor: usize, target: u8) {
    let current = colors[anchor];
    if current == target {
        return;
    }
    for &v in piece {
        if colors[v] == current {
            colors[v] = target;
        } else if colors[v] == target {
            colors[v] = current;
        }
    }
}

/// Reconciles a freshly colored block with *all* of its previously colored
/// articulation vertices at once.
///
/// `anchors[i]` is a vertex of `piece` whose color before the block was
/// re-colored is `targets[i]`.  Color permutations preserve every conflict
/// and stitch inside the block, so the permutation that maps the most
/// anchors back onto their targets is free; with a single anchor an exact
/// match always exists (the classic two-color swap), with several anchors
/// the demands can be contradictory and the permutation minimising the
/// number of mismatched anchors is applied instead.
pub fn permute_to_match_anchors(
    piece: &[usize],
    colors: &mut [u8],
    anchors: &[usize],
    targets: &[u8],
    k: u8,
) {
    debug_assert_eq!(anchors.len(), targets.len());
    match anchors.len() {
        0 => return,
        1 => return permute_to_match(piece, colors, anchors[0], targets[0]),
        _ => {}
    }
    let k = k as usize;
    // matches[c][t]: how many anchors currently colored c want target t.
    let mut matches = vec![0.0f64; k * k];
    for (&anchor, &target) in anchors.iter().zip(targets) {
        matches[colors[anchor] as usize * k + target as usize] += 1.0;
    }
    let permutation = best_color_permutation(&matches, k);
    if permutation
        .iter()
        .enumerate()
        .all(|(c, &t)| c == t as usize)
    {
        return;
    }
    for &v in piece {
        colors[v] = permutation[colors[v] as usize];
    }
}

/// Finds the permutation π of `0..k` maximising `Σ_c weight[c][π(c)]` —
/// exhaustively for small K (at most 720 candidates for K ≤ 6), greedily
/// above that.  Ties prefer the identity-most (lexicographically smallest)
/// permutation so reconciliation is deterministic and a no-op when nothing
/// is gained.
pub(crate) fn best_color_permutation(weight: &[f64], k: usize) -> Vec<u8> {
    let score = |perm: &[u8]| -> f64 {
        perm.iter()
            .enumerate()
            .map(|(c, &t)| weight[c * k + t as usize])
            .sum()
    };
    if k <= 6 {
        // Lexicographic enumeration starts at the identity, and only a
        // strictly better score replaces the incumbent.
        let mut perm: Vec<u8> = (0..k as u8).collect();
        let mut best = perm.clone();
        let mut best_score = score(&perm);
        while next_permutation(&mut perm) {
            let s = score(&perm);
            if s > best_score {
                best_score = s;
                best = perm.clone();
            }
        }
        best
    } else {
        // Greedy assignment by descending positive pair weight; leftovers
        // keep their own color when possible.
        let mut pairs: Vec<(usize, usize)> = (0..k)
            .flat_map(|c| (0..k).map(move |t| (c, t)))
            .filter(|&(c, t)| weight[c * k + t] > 0.0)
            .collect();
        pairs.sort_by(|&(c1, t1), &(c2, t2)| {
            weight[c2 * k + t2]
                .total_cmp(&weight[c1 * k + t1])
                .then((c1, t1).cmp(&(c2, t2)))
        });
        let mut permutation = vec![u8::MAX; k];
        let mut target_taken = vec![false; k];
        for (c, t) in pairs {
            if permutation[c] == u8::MAX && !target_taken[t] {
                permutation[c] = t as u8;
                target_taken[t] = true;
            }
        }
        for c in 0..k {
            if permutation[c] != u8::MAX {
                continue;
            }
            let t = if !target_taken[c] {
                c
            } else {
                (0..k)
                    .find(|&t| !target_taken[t])
                    .expect("a free color remains")
            };
            permutation[c] = t as u8;
            target_taken[t] = true;
        }
        permutation
    }
}

/// Advances `perm` to its lexicographic successor, returning `false` once
/// the last permutation has been reached.
fn next_permutation(perm: &mut [u8]) -> bool {
    let n = perm.len();
    if n < 2 {
        return false;
    }
    let mut i = n - 1;
    while i > 0 && perm[i - 1] >= perm[i] {
        i -= 1;
    }
    if i == 0 {
        return false;
    }
    let mut j = n - 1;
    while perm[j] <= perm[i - 1] {
        j -= 1;
    }
    perm.swap(i - 1, j);
    perm[i..].reverse();
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k_clique(n: usize, k: usize) -> ComponentProblem {
        let mut p = ComponentProblem::new(n, k, 0.1);
        for i in 0..n {
            for j in (i + 1)..n {
                p.add_conflict(i, j);
            }
        }
        p
    }

    #[test]
    fn peeling_removes_everything_from_sparse_graphs() {
        let mut p = ComponentProblem::new(6, 4, 0.1);
        for i in 0..5 {
            p.add_conflict(i, i + 1);
        }
        let peeling = peel_low_degree(&p);
        assert!(peeling.kernel.is_empty());
        assert_eq!(peeling.stack.len(), 6);
    }

    #[test]
    fn peeling_keeps_dense_cores() {
        // A K5 core with a pendant path: the path peels away, the K5 stays.
        let mut p = k_clique(5, 4);
        let mut p2 = ComponentProblem::new(8, 4, 0.1);
        for &(u, v) in p.conflict_edges() {
            p2.add_conflict(u, v);
        }
        p2.add_conflict(4, 5);
        p2.add_conflict(5, 6);
        p2.add_conflict(6, 7);
        p = p2;
        let peeling = peel_low_degree(&p);
        assert_eq!(peeling.kernel, vec![0, 1, 2, 3, 4]);
        assert_eq!(peeling.stack.len(), 3);
    }

    #[test]
    fn peeling_iterates_degree_rechecks_until_a_fixed_point() {
        // Regression guard for the iterated peel: degrees must be
        // re-checked as vertices are removed, not measured once on the
        // initial graph.  Vertex 5 starts at conflict degree 4 (= K, so
        // the first wave skips it) and only drops below K after its two
        // pendant neighbours peel; a single-wave peel would leave it — and
        // the cascade behind it — in the kernel.  After the fixed point,
        // every kernel vertex must be critical with respect to the
        // *kernel-induced* degrees.
        let mut p = ComponentProblem::new(10, 4, 0.1);
        // K5 core on 0..5.
        for i in 0..5 {
            for j in (i + 1)..5 {
                p.add_conflict(i, j);
            }
        }
        // An appendage wiring vertex 5 to exactly four neighbours (4, 6,
        // 7, 8), with 8 continuing to 9.
        p.add_conflict(4, 5);
        p.add_conflict(5, 6);
        p.add_conflict(5, 7);
        p.add_conflict(5, 8);
        p.add_conflict(8, 9);
        let peeling = peel_low_degree(&p);
        // The first wave peels 6, 7, 8, 9 (degree < 4); only then does
        // vertex 5 drop from degree 4 to 1 and cascade away too.
        assert_eq!(peeling.kernel, vec![0, 1, 2, 3, 4]);
        assert_eq!(peeling.stack.len(), 5);
        // Fixed-point invariant: no kernel vertex is peelable under the
        // kernel-induced degrees.
        let in_kernel: std::collections::HashSet<usize> = peeling.kernel.iter().copied().collect();
        for &v in &peeling.kernel {
            let conflict_degree = p
                .conflict_edges()
                .iter()
                .filter(|&&(a, b)| {
                    (a == v && in_kernel.contains(&b)) || (b == v && in_kernel.contains(&a))
                })
                .count();
            let stitch_degree = p
                .stitch_edges()
                .iter()
                .filter(|&&(a, b)| {
                    (a == v && in_kernel.contains(&b)) || (b == v && in_kernel.contains(&a))
                })
                .count();
            assert!(
                conflict_degree >= p.k() || stitch_degree >= 2,
                "kernel vertex {v} is peelable (conflict degree {conflict_degree}, \
                 stitch degree {stitch_degree})"
            );
        }
    }

    #[test]
    fn peeling_respects_stitch_degree() {
        // A vertex with two stitch edges is critical even with no conflicts.
        let mut p = ComponentProblem::new(3, 4, 0.1);
        p.add_stitch(0, 1);
        p.add_stitch(1, 2);
        let peeling = peel_low_degree(&p);
        // Vertices 0 and 2 (stitch degree 1) peel; removing them drops vertex
        // 1's stitch degree below 2, so it peels too.
        assert!(peeling.kernel.is_empty());
        assert_eq!(peeling.stack.len(), 3);
    }

    #[test]
    fn biconnected_blocks_split_bowties() {
        // Two K4s sharing vertex 3.
        let mut p = ComponentProblem::new(7, 4, 0.1);
        for i in 0..4 {
            for j in (i + 1)..4 {
                p.add_conflict(i, j);
            }
        }
        for i in 3..7 {
            for j in (i + 1)..7 {
                p.add_conflict(i, j);
            }
        }
        let vertices: Vec<usize> = (0..7).collect();
        let mut blocks = biconnected_blocks(&p, &vertices);
        blocks.iter_mut().for_each(|b| b.sort_unstable());
        blocks.sort();
        assert_eq!(blocks, vec![vec![0, 1, 2, 3], vec![3, 4, 5, 6]]);
    }

    #[test]
    fn biconnected_blocks_keep_isolated_vertices() {
        let p = ComponentProblem::new(3, 4, 0.1);
        let blocks = biconnected_blocks(&p, &[0, 2]);
        assert_eq!(blocks.len(), 2);
    }

    #[test]
    fn ghtree_split_detects_three_cuts() {
        // Two K5s connected by three edges: the 3-cut splits them for K = 4.
        let mut p = ComponentProblem::new(10, 4, 0.1);
        for base in [0, 5] {
            for i in 0..5 {
                for j in (i + 1)..5 {
                    p.add_conflict(base + i, base + j);
                }
            }
        }
        p.add_conflict(0, 5);
        p.add_conflict(1, 6);
        p.add_conflict(2, 7);
        let vertices: Vec<usize> = (0..10).collect();
        let mut pieces = ghtree_pieces(&p, &vertices);
        pieces.iter_mut().for_each(|piece| piece.sort_unstable());
        pieces.sort();
        assert_eq!(pieces, vec![vec![0, 1, 2, 3, 4], vec![5, 6, 7, 8, 9]]);
    }

    #[test]
    fn ghtree_keeps_well_connected_graphs_whole() {
        let p = k_clique(6, 4);
        let vertices: Vec<usize> = (0..6).collect();
        let pieces = ghtree_pieces(&p, &vertices);
        assert_eq!(pieces.len(), 1);
    }

    #[test]
    fn capped_flow_pieces_match_the_full_gomory_hu_tree() {
        // The capped-flow partition must reproduce the full GH-tree removal
        // bit-identically on a stream of random problems (the referee for
        // swapping the division engine).
        let mut seed: u64 = 0xA5A5A5A55A5A5A5A;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        let mut scratch = DivisionScratch::default();
        for case in 0..12 {
            let n = 5 + case % 5;
            let k = 3 + case % 3;
            let mut p = ComponentProblem::new(n, k, 0.1);
            for i in 0..n {
                for j in (i + 1)..n {
                    match next() % 10 {
                        0..=4 => p.add_conflict(i, j),
                        5 => p.add_stitch(i, j),
                        _ => {}
                    }
                }
            }
            let vertices: Vec<usize> = (0..n).collect();
            // Reference: the full Gomory–Hu tree over the union graph.
            let mut graph = mpl_graph::Graph::new(n);
            for &(u, v) in p.conflict_edges().iter().chain(p.stitch_edges()) {
                graph.add_edge(u, v);
            }
            let expected: Vec<Vec<usize>> =
                mpl_graph::GomoryHuTree::build(&graph).components_after_removing(k as i64);
            // Scratch reuse across cases must not leak state.
            let got = ghtree_pieces_with(&p, &vertices, &mut scratch);
            assert_eq!(got, expected, "case {case}");
            assert_eq!(ghtree_pieces(&p, &vertices), expected, "case {case}");
        }
    }

    #[test]
    fn division_counters_respect_the_nk_bound() {
        // The 4-cube Q4 (vertices joined when their ids differ in one bit)
        // is 4-edge-connected but triangle-free: adjacent vertices share no
        // neighbour, the local certificate finds one path of the K = 4
        // needed, and every vertex after the first runs a capped flow.
        let mut p = ComponentProblem::new(16, 4, 0.1);
        for v in 0..16 {
            for bit in [1, 2, 4, 8] {
                if v & bit == 0 {
                    p.add_conflict(v, v | bit);
                }
            }
        }
        let vertices: Vec<usize> = (0..16).collect();
        let mut scratch = DivisionScratch::default();
        let pieces = ghtree_pieces_with(&p, &vertices, &mut scratch);
        assert_eq!(pieces.len(), 1);
        assert!(scratch.augmenting_paths() > 0);
        assert!(scratch.arc_scans() > scratch.augmenting_paths());
        assert_eq!(scratch.augmenting_path_bound(), 16 * 4);
        assert!(scratch.augmenting_paths() <= scratch.augmenting_path_bound());
    }

    #[test]
    fn cliques_divide_without_a_flow() {
        // In K8 each pair has its edge and six common neighbours, at least
        // K = 4 short paths: the local certificate answers every query.
        let p = k_clique(8, 4);
        let vertices: Vec<usize> = (0..8).collect();
        let mut scratch = DivisionScratch::default();
        let pieces = ghtree_pieces_with(&p, &vertices, &mut scratch);
        assert_eq!(pieces.len(), 1);
        assert_eq!(scratch.augmenting_paths(), 0);
        assert!(scratch.arc_scans() > 0);
        assert_eq!(scratch.augmenting_path_bound(), 8 * 4);
    }

    #[test]
    fn rotation_merge_removes_cross_conflicts() {
        // Two triangles joined by one edge (a 1-cut).  Color both triangles
        // identically, then let the rotation fix the cut edge.
        let mut p = ComponentProblem::new(6, 4, 0.1);
        for base in [0, 3] {
            p.add_conflict(base, base + 1);
            p.add_conflict(base + 1, base + 2);
            p.add_conflict(base, base + 2);
        }
        p.add_conflict(2, 3);
        let mut colors = vec![0, 1, 2, 0, 1, 2];
        // Before merging, edge (2, 3) is fine (2 vs 0), but force the bad
        // case by rotating the second triangle to collide.
        colors[3] = 2;
        colors[4] = 0;
        colors[5] = 1;
        let pieces = vec![vec![0, 1, 2], vec![3, 4, 5]];
        merge_with_rotation(&p, &pieces, &mut colors);
        let (conflicts, _, _) = p.evaluate(&colors);
        assert_eq!(conflicts, 0);
    }

    #[test]
    fn rotation_merge_considers_stitches() {
        // A stitch edge across two singleton pieces: the rotation aligns the
        // colors so no stitch is paid.
        let mut p = ComponentProblem::new(2, 4, 0.1);
        p.add_stitch(0, 1);
        let mut colors = vec![1, 3];
        merge_with_rotation(&p, &[vec![0], vec![1]], &mut colors);
        let (_, stitches, _) = p.evaluate(&colors);
        assert_eq!(stitches, 0);
    }

    #[test]
    fn permutation_matches_anchor_and_preserves_internal_structure() {
        let mut p = ComponentProblem::new(4, 4, 0.1);
        p.add_conflict(0, 1);
        p.add_conflict(1, 2);
        p.add_conflict(2, 3);
        let mut colors = vec![0, 1, 0, 1];
        let piece: Vec<usize> = vec![0, 1, 2, 3];
        let (before_conflicts, _, _) = p.evaluate(&colors);
        permute_to_match(&piece, &mut colors, 0, 3);
        assert_eq!(colors[0], 3);
        let (after_conflicts, _, _) = p.evaluate(&colors);
        assert_eq!(before_conflicts, after_conflicts);
        assert_eq!(colors, vec![3, 1, 3, 1]);
    }

    #[test]
    fn permutation_is_a_no_op_when_colors_already_match() {
        let mut colors = vec![2, 0];
        permute_to_match(&[0, 1], &mut colors, 0, 2);
        assert_eq!(colors, vec![2, 0]);
    }

    #[test]
    fn anchor_reconciliation_satisfies_two_compatible_anchors() {
        // Block {0, 1, 2, 3} was re-colored 0, 1, 2, 3; anchors 0 and 3 were
        // previously 2 and 1.  A single swap can satisfy only one of them,
        // but the permutation 0→2, 1→x, 2→y, 3→1 satisfies both.
        let piece = vec![0, 1, 2, 3];
        let mut colors = vec![0, 1, 2, 3];
        permute_to_match_anchors(&piece, &mut colors, &[0, 3], &[2, 1], 4);
        assert_eq!(colors[0], 2);
        assert_eq!(colors[3], 1);
        // Still a permutation: all four colors distinct.
        let mut sorted = colors.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3]);
    }

    #[test]
    fn anchor_reconciliation_minimises_mismatch_on_contradictory_demands() {
        // Three anchors share the block color 0 but want targets 1, 1, 2: no
        // permutation can satisfy all three, so the majority (two anchors
        // wanting 1) must win.
        let piece = vec![0, 1, 2, 3, 4];
        let mut colors = vec![0, 0, 0, 2, 3];
        permute_to_match_anchors(&piece, &mut colors, &[0, 1, 2], &[1, 1, 2], 4);
        assert_eq!(colors[0], 1);
        assert_eq!(colors[1], 1);
    }

    #[test]
    fn anchor_reconciliation_is_identity_when_anchors_already_match() {
        let piece = vec![0, 1, 2];
        let mut colors = vec![3, 1, 0];
        permute_to_match_anchors(&piece, &mut colors, &[0, 2], &[3, 0], 4);
        assert_eq!(colors, vec![3, 1, 0]);
    }

    #[test]
    fn anchor_reconciliation_handles_large_k_greedily() {
        // K = 8 takes the greedy path (8! would be enumerable but the
        // exhaustive cut-off is 6); both anchors are satisfiable.
        let piece = vec![0, 1];
        let mut colors = vec![0, 1];
        permute_to_match_anchors(&piece, &mut colors, &[0, 1], &[7, 5], 8);
        assert_eq!(colors, vec![7, 5]);
    }

    #[test]
    fn lexicographic_permutations_enumerate_everything() {
        let mut perm = vec![0u8, 1, 2];
        let mut count = 1;
        while next_permutation(&mut perm) {
            count += 1;
        }
        assert_eq!(count, 6);
        assert_eq!(perm, vec![2, 1, 0]);
        assert!(!next_permutation(&mut [0u8]));
    }
}
