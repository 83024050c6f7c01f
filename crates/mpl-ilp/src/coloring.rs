//! Exact conflict/stitch-minimising K-coloring by branch and bound.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Counts a complete coloring of the instance given by `vertex_count`, `k`,
/// `alpha` and its edge lists, returning `(conflicts, stitches, cost)`.
///
/// The discrete problem is the paper's ILP formulation: a conflict edge
/// costs 1 when its endpoints share a color, a stitch edge costs α when its
/// endpoints differ, and `cost = conflicts + α · stitches`.  This is the one
/// count behind [`solve_exact`], `mpl_core::ComponentProblem::evaluate` and
/// `mpl_core::coloring_cost`.
///
/// # Panics
///
/// Panics if `colors` does not hold `vertex_count` colors or contains a
/// color `≥ k`.
pub fn evaluate_coloring(
    vertex_count: usize,
    k: usize,
    alpha: f64,
    conflict_edges: &[(usize, usize)],
    stitch_edges: &[(usize, usize)],
    colors: &[u8],
) -> (usize, usize, f64) {
    assert_eq!(colors.len(), vertex_count, "coloring length mismatch");
    assert!(
        colors.iter().all(|&c| (c as usize) < k),
        "coloring uses a color outside 0..{k}"
    );
    let conflicts = conflict_edges
        .iter()
        .filter(|&&(u, v)| colors[u] == colors[v])
        .count();
    let stitches = stitch_edges
        .iter()
        .filter(|&&(u, v)| colors[u] != colors[v])
        .count();
    (
        conflicts,
        stitches,
        conflicts as f64 + alpha * stitches as f64,
    )
}

/// Checks the solver's input contract: K ≥ 2, α ≥ 0, and every edge in
/// range with two distinct endpoints.
fn check_instance(
    vertex_count: usize,
    k: usize,
    alpha: f64,
    conflict_edges: &[(usize, usize)],
    stitch_edges: &[(usize, usize)],
) {
    assert!(k >= 2, "need at least two masks, got {k}");
    assert!(alpha >= 0.0, "alpha must be non-negative");
    for &(u, v) in conflict_edges.iter().chain(stitch_edges) {
        assert!(u != v, "self-edge {u}-{v} is not allowed");
        assert!(
            u < vertex_count && v < vertex_count,
            "edge ({u}, {v}) out of range for {vertex_count} vertices"
        );
    }
}

/// Options for the exact branch-and-bound solve.
#[derive(Debug, Clone, Default)]
pub struct ExactOptions {
    /// Abandon the proof of optimality after this much wall-clock time; the
    /// incumbent found so far is returned with `proven_optimal == false`.
    pub time_limit: Option<Duration>,
    /// An external stop request, polled on the same amortised clock check
    /// as the time limit.  On observation the incumbent is returned with
    /// [`cancelled`](ExactSolution::cancelled) set, at most one
    /// clock-check batch of nodes (1024, `TIME_CHECK_INTERVAL`) after the
    /// request.
    pub cancel: Option<CancelProbe>,
}

/// A request-level stop signal shared between the caller and a running
/// [`solve_exact`].
///
/// The `flag` is an atomic the owner may set at any time (for instance from
/// another thread answering a wire-protocol `cancel` frame); `deadline` is
/// an optional hard wall-clock cut-off that belongs to the *request* rather
/// than to this individual solve.  When the solver observes either — it
/// polls both on its existing amortised clock check, so the cost stays off
/// the per-node path — it sets `flag` itself (making the stop visible to
/// sibling solves sharing the probe) and returns the incumbent.
#[derive(Debug, Clone, Default)]
pub struct CancelProbe {
    /// The shared stop flag; set by the owner, or by a solver that observed
    /// the deadline.
    pub flag: Arc<AtomicBool>,
    /// Hard wall-clock cut-off for the whole request.
    pub deadline: Option<Instant>,
}

impl CancelProbe {
    /// `true` once a stop has been requested or observed.
    pub fn stop_requested(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }

    /// Polls the probe with a clock reading the caller already has: checks
    /// the flag, promotes an expired deadline into the flag, and returns
    /// whether the solve should stop.
    pub fn should_stop(&self, now: Instant) -> bool {
        if self.flag.load(Ordering::Relaxed) {
            return true;
        }
        if self.deadline.is_some_and(|deadline| now >= deadline) {
            self.flag.store(true, Ordering::Relaxed);
            return true;
        }
        false
    }
}

/// The result of an exact solve.
#[derive(Debug, Clone, PartialEq)]
pub struct ExactSolution {
    /// The best coloring found.
    pub colors: Vec<u8>,
    /// Number of conflict edges whose endpoints share a color.
    pub conflicts: usize,
    /// Number of stitch edges whose endpoints differ in color.
    pub stitches: usize,
    /// Objective value `conflicts + α · stitches`.
    pub cost: f64,
    /// `true` when the search completed and the result is a proven optimum.
    pub proven_optimal: bool,
    /// `true` when the wall-clock budget expired before the proof finished:
    /// the returned coloring is the incumbent (best found so far), not
    /// necessarily an optimum.  Always `!proven_optimal`.
    pub hit_time_limit: bool,
    /// `true` when an external [`CancelProbe`] stopped the search before
    /// the proof finished: the returned coloring is the incumbent.
    pub cancelled: bool,
    /// Number of search nodes explored.
    pub nodes: u64,
    /// Number of clique-expansion steps that strengthened the root lower
    /// bound past the vertex-disjoint clique cover (see
    /// [`solve_exact`]'s bound description).
    pub bound_improvements: u64,
}

/// How often (in explored nodes) the wall clock is consulted.  Amortising
/// the `Instant::now()` syscall keeps per-node cost flat while bounding the
/// overshoot past the deadline to one batch of nodes.
const TIME_CHECK_INTERVAL: u64 = 1024;

/// Flat incidence entry: neighbour id shifted left, conflict flag in bit 0.
#[inline]
fn pack_incident(neighbor: usize, is_conflict: bool) -> usize {
    (neighbor << 1) | usize::from(is_conflict)
}

struct Searcher<'a> {
    k: usize,
    alpha: f64,
    /// CSR incidence: entries `incident[inc_offsets[v]..inc_offsets[v+1]]`
    /// are [`pack_incident`] values (conflict edges first, then stitches,
    /// each in instance edge order).
    inc_offsets: Vec<usize>,
    incident: Vec<usize>,
    order: Vec<usize>,
    position: Vec<usize>,
    /// Expanded clique-cover bookkeeping for the incremental lower bound:
    /// `memberships[member_offsets[v]..member_offsets[v+1]]` are the
    /// tracked cliques containing `v` (at most two — the expansion's usage
    /// cap), `remaining[q]` counts a clique's not-yet-colored members,
    /// `clique_counts[q·k + c]` how many of its members already wear color
    /// `c`, and `clique_lb[q]` the clique's current contribution to the
    /// lower bound (see [`min_fill_conflicts`]).
    member_offsets: Vec<usize>,
    memberships: Vec<usize>,
    remaining: Vec<usize>,
    clique_counts: Vec<usize>,
    clique_lb: Vec<f64>,
    /// Overlap corrections: two tracked cliques sharing `s ≥ 2` vertices
    /// double-count a monochromatic shared pair only when the underlying
    /// conflict edge is *simple* — a pair backed by parallel edges costs at
    /// least as much as both cliques claim.  With `e` simple shared pairs
    /// and `a` of the shared vertices colored, the double count is at most
    /// `min(e, C(s, 2) − C(a, 2))`, which the bound subtracts.
    /// `pair_of[v]` is the correction pair a doubly-tracked vertex belongs
    /// to (`usize::MAX` otherwise); `pair_shared`/`pair_correctable` hold
    /// `s` and `e`; `pair_assigned[p]` is the current `a`.
    pair_of: Vec<usize>,
    pair_shared: Vec<usize>,
    pair_correctable: Vec<usize>,
    pair_assigned: Vec<usize>,
    fill_scratch: Vec<usize>,
    best_cost: f64,
    best_colors: Vec<u8>,
    nodes: u64,
    deadline: Option<Instant>,
    timed_out: bool,
    cancel: Option<&'a CancelProbe>,
    cancelled: bool,
}

impl Searcher<'_> {
    fn search(
        &mut self,
        depth: usize,
        colors: &mut Vec<u8>,
        partial_cost: f64,
        lower_bound: f64,
        max_color_used: u8,
    ) {
        self.nodes += 1;
        if self.nodes.is_multiple_of(TIME_CHECK_INTERVAL)
            && (self.deadline.is_some() || self.cancel.is_some())
        {
            let now = Instant::now();
            if self.deadline.is_some_and(|deadline| now >= deadline) {
                self.timed_out = true;
            }
            if self.cancel.is_some_and(|probe| probe.should_stop(now)) {
                self.cancelled = true;
            }
        }
        if self.timed_out || self.cancelled || partial_cost + lower_bound >= self.best_cost - 1e-9 {
            return;
        }
        if depth == self.order.len() {
            self.best_cost = partial_cost;
            self.best_colors = colors.clone();
            return;
        }
        let vertex = self.order[depth];
        let k = self.k;
        // A vertex belongs to at most two tracked cliques (the expansion's
        // usage cap), so its memberships fit a fixed pair of slots.
        let member_start = self.member_offsets[vertex];
        let member_count = self.member_offsets[vertex + 1] - member_start;
        debug_assert!(member_count <= 2);
        let mut members = [usize::MAX; 2];
        members[..member_count]
            .copy_from_slice(&self.memberships[member_start..member_start + member_count]);
        let pair = self.pair_of[vertex];

        // Symmetry breaking: only allow one fresh (so-far unused) color.
        let color_limit = ((max_color_used as usize) + 1).min(k - 1) as u8;
        for color in 0..=color_limit {
            colors[vertex] = color;
            // Incremental cost against already-assigned neighbours.
            let mut delta = 0.0;
            for &entry in &self.incident[self.inc_offsets[vertex]..self.inc_offsets[vertex + 1]] {
                let neighbor = entry >> 1;
                if self.position[neighbor] < depth {
                    if entry & 1 == 1 {
                        if colors[neighbor] == color {
                            delta += 1.0;
                        }
                    } else if colors[neighbor] != color {
                        delta += self.alpha;
                    }
                }
            }
            // Coloring `vertex` moves it from each tracked clique's
            // uncolored part into color class `color`; the conflicts still
            // forced on the remaining members are re-bounded with the new
            // class occupancies (a color-count-aware refinement of the
            // balanced clique bound).  If the vertex is shared by two
            // cliques of a correction pair, one more shared vertex is now
            // colored and the pair's double-count allowance shrinks by the
            // pre-increment assigned count.
            let next_max = max_color_used.max(color);
            let mut child_bound = lower_bound;
            let mut saved_lb = [0.0f64; 2];
            for (slot, &q) in members[..member_count].iter().enumerate() {
                let old_lb = self.clique_lb[q];
                saved_lb[slot] = old_lb;
                self.remaining[q] -= 1;
                self.clique_counts[q * k + color as usize] += 1;
                let refined = self.refined_clique_bound(q);
                self.clique_lb[q] = refined;
                child_bound += refined - old_lb;
            }
            if pair != usize::MAX {
                let s = self.pair_shared[pair];
                let e = self.pair_correctable[pair];
                let a = self.pair_assigned[pair];
                let allowance = |a: usize| e.min(s * (s - 1) / 2 - a * (a - 1) / 2);
                child_bound += (allowance(a) - allowance(a + 1)) as f64;
                self.pair_assigned[pair] += 1;
            }
            self.search(
                depth + 1,
                colors,
                partial_cost + delta,
                child_bound,
                next_max,
            );
            if pair != usize::MAX {
                self.pair_assigned[pair] -= 1;
            }
            for (slot, &q) in members[..member_count].iter().enumerate().rev() {
                self.clique_lb[q] = saved_lb[slot];
                self.clique_counts[q * k + color as usize] -= 1;
                self.remaining[q] += 1;
            }
            if self.timed_out || self.cancelled {
                break;
            }
        }
    }

    /// Re-computes `clique`'s lower-bound contribution: the minimum number
    /// of *new* conflict pairs created by distributing its `remaining`
    /// uncolored members over the color classes, given how many members
    /// already wear each color ([`min_fill_conflicts`]).
    fn refined_clique_bound(&mut self, clique: usize) -> f64 {
        let k = self.k;
        self.fill_scratch.clear();
        self.fill_scratch
            .extend_from_slice(&self.clique_counts[clique * k..(clique + 1) * k]);
        min_fill_conflicts(&mut self.fill_scratch, self.remaining[clique])
    }
}

/// Minimum number of new same-color pairs created by adding `extra`
/// members to color classes with the given current `sizes` — filling the
/// smallest class first is optimal because the marginal cost of a class is
/// its current size, which only grows.  `sizes` is used as scratch.
fn min_fill_conflicts(sizes: &mut [usize], extra: usize) -> f64 {
    let mut added = 0usize;
    for _ in 0..extra {
        let mut min_index = 0;
        let mut min_size = usize::MAX;
        for (index, &size) in sizes.iter().enumerate() {
            if size < min_size {
                min_size = size;
                min_index = index;
            }
        }
        added += min_size;
        sizes[min_index] += 1;
    }
    added as f64
}

/// Greedily grows vertex-disjoint cliques in the conflict graph, largest
/// seeds first (ties by vertex id).  Returns the cover as clique vertex
/// lists; every vertex appears in at most one clique.
fn greedy_clique_cover(
    n: usize,
    conflict_offsets: &[usize],
    conflict: &[usize],
) -> Vec<Vec<usize>> {
    let degree = |v: usize| conflict_offsets[v + 1] - conflict_offsets[v];
    let mut seeds: Vec<usize> = (0..n).collect();
    seeds.sort_by_key(|&v| (std::cmp::Reverse(degree(v)), v));
    let mut used = vec![false; n];
    // Stamp array answering "is u a current candidate?" in O(1).
    let mut candidate_stamp = vec![0u32; n];
    let mut stamp = 0u32;
    let mut cliques = Vec::new();
    let mut candidates: Vec<usize> = Vec::new();
    for &seed in &seeds {
        if used[seed] {
            continue;
        }
        let mut clique = vec![seed];
        candidates.clear();
        candidates.extend(
            conflict[conflict_offsets[seed]..conflict_offsets[seed + 1]]
                .iter()
                .copied()
                .filter(|&u| !used[u]),
        );
        candidates.sort_unstable();
        candidates.dedup();
        while !candidates.is_empty() {
            stamp += 1;
            for &c in &candidates {
                candidate_stamp[c] = stamp;
            }
            // The candidate adjacent to the most other candidates keeps the
            // grown clique dense; ties pick the smallest id.
            let mut best = candidates[0];
            let mut best_score = 0usize;
            let mut first = true;
            for &c in &candidates {
                let score = conflict[conflict_offsets[c]..conflict_offsets[c + 1]]
                    .iter()
                    .filter(|&&u| u != c && candidate_stamp[u] == stamp)
                    .count();
                if first || score > best_score {
                    best = c;
                    best_score = score;
                    first = false;
                }
            }
            clique.push(best);
            stamp += 1;
            for &u in &conflict[conflict_offsets[best]..conflict_offsets[best + 1]] {
                candidate_stamp[u] = stamp;
            }
            candidates.retain(|&c| c != best && candidate_stamp[c] == stamp);
        }
        for &member in &clique {
            used[member] = true;
        }
        cliques.push(clique);
    }
    cliques
}

/// Minimum conflicts of any K-coloring of a clique with `size` vertices:
/// the most balanced partition into K color classes, paying `C(m, 2)`
/// conflicts per class of size `m`.
fn clique_conflict_bound(size: usize, k: usize) -> f64 {
    let q = size / k;
    let r = size % k;
    let pairs = |m: usize| (m * m.saturating_sub(1) / 2) as f64;
    r as f64 * pairs(q + 1) + (k - r) as f64 * pairs(q)
}

/// Expands the vertex-disjoint cover toward a (limited) edge clique cover:
/// each cover clique, largest first, greedily absorbs outside vertices
/// adjacent to *all* of its members, provided the vertex is in fewer than
/// two cliques and the conservative net bound gain is strictly positive —
/// the clique's bound increment minus, for every other clique already
/// containing the vertex, the number of *simple* edges to the overlap
/// (each such edge becomes a newly double-counted shared pair; parallel
/// edges cost at least as much as both cliques claim, so they are free).
/// Returns the number of accepted expansions.
///
/// The usage cap of two cliques per vertex means every conflict edge lies
/// in at most two tracked cliques, so the pairwise corrections of
/// [`solve_exact`] account for *all* double counting and the resulting
/// bound stays admissible.
fn expand_clique_cover(
    cover: &mut [Vec<usize>],
    n: usize,
    conflict_offsets: &[usize],
    conflict: &[usize],
    k: usize,
    multiplicity: &std::collections::HashMap<(usize, usize), usize>,
) -> u64 {
    let mut usage = vec![0u8; n];
    let mut cliques_of: Vec<[usize; 2]> = vec![[usize::MAX; 2]; n];
    for (ci, clique) in cover.iter().enumerate() {
        for &v in clique {
            cliques_of[v][usage[v] as usize] = ci;
            usage[v] += 1;
        }
    }
    let mut order: Vec<usize> = (0..cover.len()).collect();
    order.sort_by_key(|&ci| (std::cmp::Reverse(cover[ci].len()), ci));
    let mut member_stamp = vec![0u32; n];
    let mut count_stamp = vec![0u32; n];
    let mut counts = vec![0usize; n];
    let mut seen_stamp = vec![0u32; n];
    let mut stamp = 0u32;
    let mut seen = 0u32;
    let mut improvements = 0u64;
    for &ci in &order {
        loop {
            let size = cover[ci].len();
            stamp += 1;
            for &m in &cover[ci] {
                member_stamp[m] = stamp;
            }
            // Count, for every outside vertex with remaining clique
            // capacity, how many *distinct* members it is adjacent to
            // (parallel edges must not count twice); candidates are the
            // vertices adjacent to all of them.
            for &m in &cover[ci] {
                seen += 1;
                for &u in &conflict[conflict_offsets[m]..conflict_offsets[m + 1]] {
                    if member_stamp[u] == stamp || usage[u] >= 2 || seen_stamp[u] == seen {
                        continue;
                    }
                    seen_stamp[u] = seen;
                    if count_stamp[u] != stamp {
                        count_stamp[u] = stamp;
                        counts[u] = 0;
                    }
                    counts[u] += 1;
                }
            }
            let bound_gain = clique_conflict_bound(size + 1, k) - clique_conflict_bound(size, k);
            let mut best: Option<(f64, usize)> = None;
            for v in 0..n {
                if count_stamp[v] != stamp || counts[v] != size {
                    continue;
                }
                let mut penalty = 0.0;
                for &other in cliques_of[v].iter().take(usage[v] as usize) {
                    penalty += cover[other]
                        .iter()
                        .filter(|&&m| {
                            member_stamp[m] == stamp
                                && multiplicity
                                    .get(&(v.min(m), v.max(m)))
                                    .is_none_or(|&count| count == 1)
                        })
                        .count() as f64;
                }
                let gain = bound_gain - penalty;
                if gain > 1e-9 && best.is_none_or(|(best_gain, _)| gain > best_gain + 1e-9) {
                    best = Some((gain, v));
                }
            }
            let Some((_, v)) = best else {
                break;
            };
            cover[ci].push(v);
            cliques_of[v][usage[v] as usize] = ci;
            usage[v] += 1;
            improvements += 1;
        }
    }
    improvements
}

/// Solves the K-coloring instance over `vertex_count` vertices with the
/// given conflict and stitch edges to proven optimality (or to the time
/// limit) by depth-first branch and bound, minimising
/// `conflicts + α · stitches` ([`evaluate_coloring`]).
///
/// The search is pruned four ways:
///
/// * **Connectivity-first ordering** — branching starts on the largest
///   clique of a greedy clique cover, then repeatedly picks the vertex with
///   the most already-branched conflict neighbours (a static DSATUR-style
///   order), so the partial subgraph stays dense and costs accumulate as
///   early as possible.
/// * **Color-symmetry breaking** — at most one previously unused color per
///   branch level; with the first clique branched first, the clique's
///   vertices pin the color classes and the `K!` color permutations are
///   never re-explored.
/// * **Incremental expanded-clique-cover lower bound** — the greedy
///   vertex-disjoint cover is first *expanded* toward an edge clique
///   cover: each clique absorbs outside vertices adjacent to all of its
///   members (at most two cliques per vertex) whenever that strictly
///   raises the bound net of overlap double counting.  Every clique with
///   more vertices than colors then forces conflicts among its uncolored
///   members; only the branching vertex's cliques are re-bounded per color
///   branch (O(k · remaining) via the smallest-class-first fill
///   `min_fill_conflicts` — cliques are small after division), pairs of
///   cliques sharing `s ≥ 2` vertices subtract their double-count
///   allowance `min(e, C(s, 2) − C(a, 2))` (with `e` the *simple*-edge
///   shared pairs — parallel edges pay per copy and are never
///   double-counted), and the result is added to the accumulated cost
///   before comparing against the incumbent.  The number of accepted
///   expansions is reported as
///   [`bound_improvements`](ExactSolution::bound_improvements).
/// * **Greedy incumbent** — the incumbent starts at a greedy coloring in
///   the branch order, so conflict-free components are proven optimal
///   almost immediately.
///
/// The wall clock is consulted every 1024 nodes (`TIME_CHECK_INTERVAL`);
/// on expiry the incumbent is returned with
/// [`hit_time_limit`](ExactSolution::hit_time_limit) set.
///
/// # Panics
///
/// Panics unless `k ≥ 2`, `alpha ≥ 0` and every edge joins two distinct
/// vertices below `vertex_count`.
pub fn solve_exact(
    vertex_count: usize,
    k: usize,
    alpha: f64,
    conflict_edges: &[(usize, usize)],
    stitch_edges: &[(usize, usize)],
    options: &ExactOptions,
) -> ExactSolution {
    check_instance(vertex_count, k, alpha, conflict_edges, stitch_edges);
    let n = vertex_count;
    if n == 0 {
        return ExactSolution {
            colors: Vec::new(),
            conflicts: 0,
            stitches: 0,
            cost: 0.0,
            proven_optimal: true,
            hit_time_limit: false,
            cancelled: false,
            nodes: 0,
            bound_improvements: 0,
        };
    }

    // Flat CSR incidence: conflict edges first, then stitch edges, so the
    // per-vertex entry order matches the old push-list construction.
    let mut inc_offsets = vec![0usize; n + 1];
    let mut conflict_offsets = vec![0usize; n + 1];
    for &(u, v) in conflict_edges {
        inc_offsets[u + 1] += 1;
        inc_offsets[v + 1] += 1;
        conflict_offsets[u + 1] += 1;
        conflict_offsets[v + 1] += 1;
    }
    for &(u, v) in stitch_edges {
        inc_offsets[u + 1] += 1;
        inc_offsets[v + 1] += 1;
    }
    for v in 0..n {
        let base = inc_offsets[v];
        inc_offsets[v + 1] += base;
        let cbase = conflict_offsets[v];
        conflict_offsets[v + 1] += cbase;
    }
    let mut incident = vec![0usize; inc_offsets[n]];
    let mut conflict = vec![0usize; conflict_offsets[n]];
    {
        let mut inc_cursor = inc_offsets.clone();
        let mut con_cursor = conflict_offsets.clone();
        for &(u, v) in conflict_edges {
            incident[inc_cursor[u]] = pack_incident(v, true);
            inc_cursor[u] += 1;
            incident[inc_cursor[v]] = pack_incident(u, true);
            inc_cursor[v] += 1;
            conflict[con_cursor[u]] = v;
            con_cursor[u] += 1;
            conflict[con_cursor[v]] = u;
            con_cursor[v] += 1;
        }
        for &(u, v) in stitch_edges {
            incident[inc_cursor[u]] = pack_incident(v, false);
            inc_cursor[u] += 1;
            incident[inc_cursor[v]] = pack_incident(u, false);
            inc_cursor[v] += 1;
        }
    }
    let conflict_degree = |v: usize| conflict_offsets[v + 1] - conflict_offsets[v];

    // Greedy clique cover, then clique expansion toward an edge clique
    // cover: the largest clique seeds the branch order, and every clique
    // bigger than K contributes to the lower bound.
    let mut cover = greedy_clique_cover(n, &conflict_offsets, &conflict);
    // Conflict-edge multiplicities: a pair connected by parallel edges pays
    // once per edge when monochromatic, so two cliques both claiming it do
    // not double-count — the expansion and the pair corrections below both
    // need to know which shared pairs are simple.
    let mut multiplicity: std::collections::HashMap<(usize, usize), usize> =
        std::collections::HashMap::new();
    for &(u, v) in conflict_edges {
        *multiplicity.entry((u.min(v), u.max(v))).or_insert(0) += 1;
    }
    let bound_improvements = expand_clique_cover(
        &mut cover,
        n,
        &conflict_offsets,
        &conflict,
        k,
        &multiplicity,
    );
    let largest = cover
        .iter()
        .enumerate()
        .max_by_key(|(index, clique)| (clique.len(), std::cmp::Reverse(*index)))
        .map(|(index, _)| index);

    // Branch order: the largest cover clique first, then the vertex with
    // the most already-ordered conflict neighbours (ties: conflict degree,
    // then id) via a lazy max-heap.
    let mut order: Vec<usize> = Vec::with_capacity(n);
    let mut ordered = vec![false; n];
    let mut placed_neighbors = vec![0usize; n];
    let mut heap: std::collections::BinaryHeap<(usize, usize, std::cmp::Reverse<usize>)> =
        std::collections::BinaryHeap::with_capacity(n);
    let append = |v: usize,
                  order: &mut Vec<usize>,
                  ordered: &mut Vec<bool>,
                  placed: &mut Vec<usize>,
                  heap: &mut std::collections::BinaryHeap<(
        usize,
        usize,
        std::cmp::Reverse<usize>,
    )>| {
        ordered[v] = true;
        order.push(v);
        for &u in &conflict[conflict_offsets[v]..conflict_offsets[v + 1]] {
            if !ordered[u] {
                placed[u] += 1;
                heap.push((placed[u], conflict_degree(u), std::cmp::Reverse(u)));
            }
        }
    };
    if let Some(clique_index) = largest {
        for &v in &cover[clique_index] {
            append(
                v,
                &mut order,
                &mut ordered,
                &mut placed_neighbors,
                &mut heap,
            );
        }
    }
    for (v, &placed) in placed_neighbors.iter().enumerate() {
        heap.push((placed, conflict_degree(v), std::cmp::Reverse(v)));
    }
    while let Some((placed, _, std::cmp::Reverse(v))) = heap.pop() {
        // Lazy deletion: skip stale entries (already ordered, or the
        // placed-neighbour count moved on since this entry was pushed).
        if ordered[v] || placed != placed_neighbors[v] {
            continue;
        }
        append(
            v,
            &mut order,
            &mut ordered,
            &mut placed_neighbors,
            &mut heap,
        );
    }
    debug_assert_eq!(order.len(), n);
    let mut position = vec![0usize; n];
    for (depth, &v) in order.iter().enumerate() {
        position[v] = depth;
    }

    // Lower-bound bookkeeping: only cliques that can force conflicts (more
    // vertices than colors) are tracked.  Memberships are a flat CSR — the
    // expansion caps every vertex at two cliques.
    let mut member_counts = vec![0usize; n];
    let mut remaining = Vec::new();
    let mut clique_lb = Vec::new();
    let mut tracked: Vec<&[usize]> = Vec::new();
    for clique in &cover {
        if clique.len() > k {
            tracked.push(clique);
            for &v in clique {
                member_counts[v] += 1;
            }
            remaining.push(clique.len());
            clique_lb.push(clique_conflict_bound(clique.len(), k));
        }
    }
    let mut member_offsets = vec![0usize; n + 1];
    for v in 0..n {
        member_offsets[v + 1] = member_offsets[v] + member_counts[v];
    }
    let mut memberships = vec![0usize; member_offsets[n]];
    {
        let mut cursor = member_offsets.clone();
        for (id, clique) in tracked.iter().enumerate() {
            for &v in *clique {
                memberships[cursor[v]] = id;
                cursor[v] += 1;
            }
        }
    }
    // Overlap-correction pairs: tracked cliques sharing `s ≥ 2` vertices
    // may double-count uncolored shared pairs, but only the pairs whose
    // conflict edge is *simple* — a parallel pair costs one unit per edge
    // copy when monochromatic, covering both cliques' claims.  The root
    // bound subtracts `min(e, C(s, 2))` per pair, where `e` counts the
    // simple shared pairs (single-vertex overlaps share no edge and need
    // no correction).  Each vertex is in at most two tracked cliques, so
    // it belongs to at most one pair.
    let mut shared: std::collections::HashMap<(usize, usize), Vec<usize>> =
        std::collections::HashMap::new();
    for v in 0..n {
        if member_counts[v] == 2 {
            let a = memberships[member_offsets[v]];
            let b = memberships[member_offsets[v] + 1];
            shared.entry((a.min(b), a.max(b))).or_default().push(v);
        }
    }
    let correctable_of = |members: &[usize]| -> usize {
        let mut count = 0usize;
        for (index, &u) in members.iter().enumerate() {
            for &v in &members[index + 1..] {
                if multiplicity
                    .get(&(u.min(v), u.max(v)))
                    .is_none_or(|&edges| edges == 1)
                {
                    count += 1;
                }
            }
        }
        count
    };
    let mut pair_keys: Vec<(usize, usize)> = shared
        .iter()
        .filter(|&(_, members)| members.len() >= 2 && correctable_of(members) > 0)
        .map(|(&key, _)| key)
        .collect();
    pair_keys.sort_unstable();
    let pair_ids: std::collections::HashMap<(usize, usize), usize> = pair_keys
        .iter()
        .enumerate()
        .map(|(id, &key)| (key, id))
        .collect();
    let pair_shared: Vec<usize> = pair_keys.iter().map(|key| shared[key].len()).collect();
    let pair_correctable: Vec<usize> = pair_keys
        .iter()
        .map(|key| correctable_of(&shared[key]))
        .collect();
    let pair_correction: f64 = pair_shared
        .iter()
        .zip(&pair_correctable)
        .map(|(&s, &e)| e.min(s * (s - 1) / 2) as f64)
        .sum();
    let mut pair_of = vec![usize::MAX; n];
    for v in 0..n {
        if member_counts[v] == 2 {
            let a = memberships[member_offsets[v]];
            let b = memberships[member_offsets[v] + 1];
            if let Some(&pair) = pair_ids.get(&(a.min(b), a.max(b))) {
                pair_of[v] = pair;
            }
        }
    }
    let pair_assigned = vec![0usize; pair_keys.len()];
    let clique_counts = vec![0usize; remaining.len() * k];
    let initial_bound: f64 = clique_lb.iter().sum::<f64>() - pair_correction;

    // Incumbent: a greedy coloring in the branch order.
    let mut greedy = vec![0u8; n];
    let mut penalty = vec![0.0f64; k];
    for &v in &order {
        penalty.iter_mut().for_each(|slot| *slot = 0.0);
        for &entry in &incident[inc_offsets[v]..inc_offsets[v + 1]] {
            let neighbor = entry >> 1;
            if position[neighbor] < position[v] {
                if entry & 1 == 1 {
                    penalty[greedy[neighbor] as usize] += 1.0;
                } else {
                    let keep = greedy[neighbor] as usize;
                    for (color, slot) in penalty.iter_mut().enumerate() {
                        if color != keep {
                            *slot += alpha;
                        }
                    }
                }
            }
        }
        let best = penalty
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
            .map(|(c, _)| c)
            .unwrap_or(0);
        greedy[v] = best as u8;
    }
    let (_, _, greedy_cost) = evaluate_coloring(n, k, alpha, conflict_edges, stitch_edges, &greedy);

    let mut searcher = Searcher {
        k,
        alpha,
        inc_offsets,
        incident,
        order,
        position,
        member_offsets,
        memberships,
        remaining,
        clique_counts,
        clique_lb,
        pair_of,
        pair_shared,
        pair_correctable,
        pair_assigned,
        fill_scratch: Vec::with_capacity(k),
        best_cost: greedy_cost + 1e-9,
        best_colors: greedy,
        nodes: 0,
        deadline: options.time_limit.map(|limit| Instant::now() + limit),
        timed_out: false,
        cancel: options.cancel.as_ref(),
        cancelled: options
            .cancel
            .as_ref()
            .is_some_and(|probe| probe.should_stop(Instant::now())),
    };
    let mut colors = vec![0u8; n];
    searcher.search(0, &mut colors, 0.0, initial_bound, 0);

    let best = searcher.best_colors;
    let (conflicts, stitches, cost) =
        evaluate_coloring(n, k, alpha, conflict_edges, stitch_edges, &best);
    ExactSolution {
        colors: best,
        conflicts,
        stitches,
        cost,
        proven_optimal: !searcher.timed_out && !searcher.cancelled,
        hit_time_limit: searcher.timed_out,
        cancelled: searcher.cancelled,
        nodes: searcher.nodes,
        bound_improvements,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every edge of the clique over `0..n`.
    fn clique(n: usize) -> Vec<(usize, usize)> {
        (0..n)
            .flat_map(|i| ((i + 1)..n).map(move |j| (i, j)))
            .collect()
    }

    /// Solves with α = 0.1 and default options.
    fn solve(
        n: usize,
        k: usize,
        conflicts: &[(usize, usize)],
        stitches: &[(usize, usize)],
    ) -> ExactSolution {
        solve_exact(n, k, 0.1, conflicts, stitches, &ExactOptions::default())
    }

    #[test]
    fn empty_instance_is_trivially_optimal() {
        let solution = solve(0, 4, &[], &[]);
        assert_eq!(solution.cost, 0.0);
        assert!(solution.proven_optimal);
    }

    #[test]
    fn k4_is_four_colorable_without_conflicts() {
        let solution = solve(4, 4, &clique(4), &[]);
        assert_eq!(solution.conflicts, 0);
        assert!(solution.proven_optimal);
        // All four colors must be distinct.
        let mut seen = solution.colors.clone();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 4);
    }

    #[test]
    fn k5_under_four_colors_has_exactly_one_conflict() {
        let solution = solve(5, 4, &clique(5), &[]);
        assert_eq!(solution.conflicts, 1);
        assert_eq!(solution.stitches, 0);
        assert!(solution.proven_optimal);
    }

    #[test]
    fn k6_under_four_colors_has_two_conflicts() {
        let solution = solve(6, 4, &clique(6), &[]);
        assert_eq!(solution.conflicts, 2);
        assert_eq!(solution.cost, brute_force(6, 4, 0.1, &clique(6), &[]));
        assert!(solution.proven_optimal);
    }

    #[test]
    fn k5_under_five_colors_is_clean() {
        let solution = solve(5, 5, &clique(5), &[]);
        assert_eq!(solution.conflicts, 0);
        assert!(solution.proven_optimal);
    }

    #[test]
    fn stitch_edges_prefer_same_color() {
        let solution = solve(3, 4, &[], &[(0, 1), (1, 2)]);
        assert_eq!(solution.stitches, 0);
        assert_eq!(solution.colors[0], solution.colors[1]);
        assert_eq!(solution.colors[1], solution.colors[2]);
    }

    #[test]
    fn stitch_is_used_when_it_avoids_a_conflict() {
        // Two colors: the conflict path 0–2–3–1 forces 0 and 1 apart, so
        // keeping the stitched halves 0 and 1 together costs a conflict
        // (1.0) while splitting them costs one stitch (0.1).
        let conflicts = [(0, 2), (2, 3), (3, 1)];
        let solution = solve(4, 2, &conflicts, &[(0, 1)]);
        assert_eq!(solution.conflicts, 0);
        assert_eq!(solution.stitches, 1);
        assert!((solution.cost - 0.1).abs() < 1e-9);
        assert!((solution.cost - brute_force(4, 2, 0.1, &conflicts, &[(0, 1)])).abs() < 1e-9);
        assert!(solution.proven_optimal);
    }

    #[test]
    fn evaluate_reports_components() {
        let (conflicts, stitches, cost) =
            evaluate_coloring(4, 4, 0.1, &[(0, 1)], &[(2, 3)], &[1, 1, 0, 2]);
        assert_eq!(conflicts, 1);
        assert_eq!(stitches, 1);
        assert!((cost - 1.1).abs() < 1e-9);
    }

    #[test]
    fn time_limit_zero_returns_the_greedy_incumbent_unproven() {
        let conflicts = clique(9);
        let solution = solve_exact(
            9,
            4,
            0.1,
            &conflicts,
            &[],
            &ExactOptions {
                time_limit: Some(Duration::from_secs(0)),
                ..ExactOptions::default()
            },
        );
        // The greedy incumbent is still a valid coloring.
        assert_eq!(solution.colors.len(), 9);
        // With a zero budget the proof of optimality is abandoned quickly;
        // the solver may still finish tiny instances before the first clock
        // check, so only the solution validity is asserted here.
        let (c, s, cost) = evaluate_coloring(9, 4, 0.1, &conflicts, &[], &solution.colors);
        assert_eq!((c, s), (solution.conflicts, solution.stitches));
        assert!((cost - solution.cost).abs() < 1e-9);
    }

    /// xorshift64 step for the seeded random-instance streams.
    fn xorshift(seed: &mut u64) -> u64 {
        *seed ^= *seed << 13;
        *seed ^= *seed >> 7;
        *seed ^= *seed << 17;
        *seed
    }

    #[test]
    fn agrees_with_brute_force_on_random_instances() {
        let mut seed: u64 = 0x9E3779B97F4A7C15;
        for case in 0..10 {
            let n = 5 + (case % 3);
            let k = 3 + (case % 3);
            let (mut conflicts, mut stitches) = (Vec::new(), Vec::new());
            for i in 0..n {
                for j in (i + 1)..n {
                    match xorshift(&mut seed) % 10 {
                        0..=4 => conflicts.push((i, j)),
                        5 => stitches.push((i, j)),
                        _ => {}
                    }
                }
            }
            let exact = solve(n, k, &conflicts, &stitches);
            let brute = brute_force(n, k, 0.1, &conflicts, &stitches);
            assert!(
                (exact.cost - brute).abs() < 1e-9,
                "case {case}: exact {} vs brute {}",
                exact.cost,
                brute
            );
            assert!(exact.proven_optimal);
        }
    }

    /// Exhaustive reference: minimum cost over all k^n colorings.
    fn brute_force(
        n: usize,
        k: usize,
        alpha: f64,
        conflicts: &[(usize, usize)],
        stitches: &[(usize, usize)],
    ) -> f64 {
        let mut best = f64::INFINITY;
        let mut colors = vec![0u8; n];
        loop {
            let (_, _, cost) = evaluate_coloring(n, k, alpha, conflicts, stitches, &colors);
            best = best.min(cost);
            // Increment the mixed-radix counter.
            let mut index = 0;
            loop {
                if index == n {
                    return best;
                }
                colors[index] += 1;
                if (colors[index] as usize) < k {
                    break;
                }
                colors[index] = 0;
                index += 1;
            }
        }
    }

    #[test]
    fn cost_parity_with_brute_force_on_random_stitched_instances() {
        // The cost-parity property behind the PR-5 pruning overhaul: on a
        // seed-equivalent stream of random instances (mixed conflicts and
        // stitches, varying K and α), the pruned branch and bound must find
        // exactly the brute-force optimum and prove it.
        let mut seed: u64 = 0xC0FFEE5EED5EED01;
        for case in 0..25 {
            let n = 4 + (case % 5);
            let k = 2 + (case % 4);
            let alpha = [0.1, 0.3, 1.0][case % 3];
            let (mut conflicts, mut stitches) = (Vec::new(), Vec::new());
            for i in 0..n {
                for j in (i + 1)..n {
                    match xorshift(&mut seed) % 10 {
                        0..=4 => conflicts.push((i, j)),
                        5 | 6 => stitches.push((i, j)),
                        _ => {}
                    }
                }
            }
            let exact = solve_exact(n, k, alpha, &conflicts, &stitches, &ExactOptions::default());
            let brute = brute_force(n, k, alpha, &conflicts, &stitches);
            assert!(
                (exact.cost - brute).abs() < 1e-9,
                "case {case}: pruned search {} vs brute force {}",
                exact.cost,
                brute
            );
            assert!(exact.proven_optimal, "case {case}");
            assert!(!exact.hit_time_limit, "case {case}");
        }
    }

    #[test]
    fn dense_cliques_close_at_the_root() {
        // The greedy incumbent is optimal on a clique and the clique-cover
        // lower bound matches it, so the search proves optimality without
        // branching — the pruning win the perf suite pins (the seed solver
        // expanded 10^5-10^6 nodes on these).
        for n in [8usize, 10, 12] {
            let solution = solve(n, 4, &clique(n), &[]);
            assert_eq!(solution.nodes, 1, "K{n}");
            assert!(solution.proven_optimal);
            let brute_optimum = clique_conflict_bound(n, 4);
            assert!((solution.cost - brute_optimum).abs() < 1e-9);
        }
    }

    #[test]
    fn overlapping_k7s_close_at_the_root() {
        // Two K7s sharing vertices {5, 6}: a vertex-disjoint cover sees at
        // best one K7 plus a disjoint K5 (bound 3 + 1 = 4, or 5 after one
        // expansion), while the optimum is 6 — the shared pair's edge is
        // added once per clique, so a monochromatic (5, 6) pays twice.
        // The expansion absorbs both shared vertices into the second
        // clique (the parallel edge is never double-counted, so the
        // overlap penalty is zero) and the root bound reaches the optimum:
        // the search closes immediately.  Before the expanded-cover bound
        // this instance expanded roughly 2·10^5 nodes.
        let mut conflicts = Vec::new();
        for clique in [(0..7).collect::<Vec<_>>(), (5..12).collect::<Vec<_>>()] {
            for (position, &u) in clique.iter().enumerate() {
                for &v in &clique[position + 1..] {
                    conflicts.push((u.min(v), u.max(v)));
                }
            }
        }
        let solution = solve(12, 4, &conflicts, &[]);
        assert!(solution.proven_optimal);
        assert_eq!(solution.conflicts, 6);
        assert_eq!(solution.nodes, 1);
        assert!(solution.bound_improvements >= 2);
    }

    /// A dense pseudo-random 18-vertex conflict graph (K = 4): hard enough
    /// to outlive a zero time budget past the first 1024-node clock check,
    /// and to explore well past one clock-check batch unrestricted (two
    /// overlapping K7s no longer qualify — the expanded clique cover closes
    /// them at the root).
    fn dense_random_conflicts() -> Vec<(usize, usize)> {
        let mut conflicts = Vec::new();
        let mut state = 0x243F6A8885A308D3u64;
        for u in 0..18 {
            for v in (u + 1)..18 {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                if (state >> 33) % 1000 < 550 {
                    conflicts.push((u, v));
                }
            }
        }
        conflicts
    }

    /// Solves the dense random instance with `options`.
    fn solve_dense(options: &ExactOptions) -> ExactSolution {
        solve_exact(18, 4, 0.1, &dense_random_conflicts(), &[], options)
    }

    /// Asserts that `solution`'s counts are a recount of its coloring of
    /// the dense random instance.
    fn assert_recounted(solution: &ExactSolution) {
        let (c, s, cost) =
            evaluate_coloring(18, 4, 0.1, &dense_random_conflicts(), &[], &solution.colors);
        assert_eq!((c, s), (solution.conflicts, solution.stitches));
        assert!((cost - solution.cost).abs() < 1e-9);
    }

    #[test]
    fn hit_time_limit_is_the_negation_of_proven_optimal() {
        let truncated = solve_dense(&ExactOptions {
            time_limit: Some(Duration::from_secs(0)),
            ..ExactOptions::default()
        });
        assert!(truncated.hit_time_limit);
        assert!(!truncated.proven_optimal);
        // The incumbent is still a valid full coloring.
        assert_recounted(&truncated);

        let full = solve_dense(&ExactOptions::default());
        assert!(full.proven_optimal);
        assert!(!full.hit_time_limit);
    }

    #[test]
    fn pre_set_cancel_probe_stops_within_one_poll_batch() {
        let full = solve_dense(&ExactOptions::default());
        assert!(
            full.nodes > 2 * TIME_CHECK_INTERVAL,
            "instance must outlive several poll batches, took {} nodes",
            full.nodes
        );

        let probe = CancelProbe::default();
        probe.flag.store(true, Ordering::Relaxed);
        let cancelled = solve_dense(&ExactOptions {
            cancel: Some(probe),
            ..ExactOptions::default()
        });
        assert!(cancelled.cancelled);
        assert!(!cancelled.proven_optimal);
        assert!(!cancelled.hit_time_limit, "cancel is not a time limit");
        // Work-counter bound: a pre-set flag is observed before the first
        // poll batch completes, so the overshoot is at most one batch.
        assert!(
            cancelled.nodes <= TIME_CHECK_INTERVAL,
            "cancelled after {} nodes",
            cancelled.nodes
        );
        // The incumbent (the greedy coloring) is still a valid full
        // coloring.
        assert_recounted(&cancelled);
    }

    #[test]
    fn probe_deadline_is_promoted_into_the_shared_flag() {
        let probe = CancelProbe {
            deadline: Some(Instant::now()),
            ..CancelProbe::default()
        };
        let solution = solve_dense(&ExactOptions {
            cancel: Some(probe.clone()),
            ..ExactOptions::default()
        });
        assert!(solution.cancelled);
        // The solver promotes an observed deadline into the shared flag so
        // sibling solves (and the owning request) see the stop immediately.
        assert!(probe.stop_requested());
    }

    #[test]
    fn unfired_cancel_probe_changes_nothing() {
        let plain = solve_dense(&ExactOptions::default());
        let probed = solve_dense(&ExactOptions {
            cancel: Some(CancelProbe::default()),
            ..ExactOptions::default()
        });
        assert!(!probed.cancelled);
        assert!(probed.proven_optimal);
        assert_eq!(plain.colors, probed.colors);
        assert_eq!(plain.nodes, probed.nodes);
    }

    #[test]
    fn clique_bound_table_is_exact() {
        // c = qK + r ⇒ r classes of q+1 and K−r classes of q.
        assert_eq!(clique_conflict_bound(4, 4), 0.0);
        assert_eq!(clique_conflict_bound(5, 4), 1.0);
        assert_eq!(clique_conflict_bound(6, 4), 2.0);
        assert_eq!(clique_conflict_bound(7, 4), 3.0);
        assert_eq!(clique_conflict_bound(8, 4), 4.0);
        assert_eq!(clique_conflict_bound(9, 4), 6.0);
        assert_eq!(clique_conflict_bound(3, 5), 0.0);
        // 11 = 2·5 + 1 ⇒ one class of 3 and four of 2: C(3,2) + 4·C(2,2).
        assert_eq!(clique_conflict_bound(11, 5), 7.0);
    }

    #[test]
    fn min_fill_prefers_empty_then_smallest_classes() {
        // Classes sized [2, 0, 1] take four extra members, each into a
        // smallest class, paying that class's current size: 0 (→ [2, 1, 1]),
        // 1 (→ [2, 2, 1]), 1 (→ [2, 2, 2]) and 2 — four in total.
        assert_eq!(min_fill_conflicts(&mut [2, 0, 1], 4), 4.0);
        assert_eq!(min_fill_conflicts(&mut [0, 0, 0, 0], 4), 0.0);
        assert_eq!(min_fill_conflicts(&mut [1, 1, 1, 1], 4), 4.0);
        assert_eq!(min_fill_conflicts(&mut [3, 3], 0), 0.0);
    }

    #[test]
    #[should_panic(expected = "at least two masks")]
    fn k_one_panics() {
        let _ = solve(3, 1, &[], &[]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_panics() {
        let _ = solve(2, 4, &[(0, 5)], &[]);
    }

    #[test]
    #[should_panic(expected = "self-edge")]
    fn self_edge_panics() {
        let _ = solve(2, 4, &[], &[(1, 1)]);
    }

    #[test]
    #[should_panic(expected = "coloring length mismatch")]
    fn evaluate_rejects_wrong_length() {
        let _ = evaluate_coloring(3, 4, 0.1, &[], &[], &[0, 1]);
    }

    #[test]
    #[should_panic(expected = "coloring uses a color outside 0..4")]
    fn evaluate_rejects_an_out_of_range_color() {
        let _ = evaluate_coloring(2, 4, 0.1, &[], &[], &[0, 4]);
    }
}
