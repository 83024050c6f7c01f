//! Dinic's blocking-flow maximum-flow algorithm.

use crate::Graph;

const INF: i64 = i64::MAX / 4;

#[derive(Debug, Clone)]
struct FlowEdge {
    to: usize,
    capacity: i64,
    flow: i64,
}

/// A maximum-flow solver (Dinic's algorithm) over a directed flow network.
///
/// The decomposition flow uses max-flow in two places:
///
/// * directly, to compute minimum s–t cuts between candidate vertices, and
/// * inside the (K−1)-cut graph division — either via the full
///   [Gomory–Hu tree](crate::GomoryHuTree) or via the capped
///   [`threshold_components`](crate::threshold_components) partition, which
///   only asks "is the min cut at least K?" and therefore uses
///   [`MaxFlow::max_flow_capped`] to stop after at most K augmenting paths.
///
/// Undirected edges are modelled as two directed arcs of equal capacity, per
/// the standard reduction.  Adjacency is stored as a flat CSR over arc ids,
/// frozen by [`MaxFlow::assign_unit_graph`] or the first flow query and
/// rebuilt automatically if edges are added afterwards; [`MaxFlow::clear`]
/// resets the network for a new graph while keeping every buffer's
/// capacity, so batch workloads build one network per component without
/// re-allocating.
///
/// Consecutive queries on one network cost only what they touch: a query
/// resets the levels its predecessor's BFS labelled and the flow on the
/// arcs it pushed, never all `n` levels and `E` flows, and each BFS stops
/// as soon as the sink is labelled.  A query between nearby vertices of a
/// large, well-connected graph therefore scans only their neighbourhood.
///
/// # Example
///
/// ```
/// use mpl_graph::MaxFlow;
///
/// // A 4-vertex diamond: two disjoint paths from 0 to 3.
/// let mut flow = MaxFlow::new(4);
/// flow.add_undirected_edge(0, 1, 1);
/// flow.add_undirected_edge(1, 3, 1);
/// flow.add_undirected_edge(0, 2, 1);
/// flow.add_undirected_edge(2, 3, 1);
/// assert_eq!(flow.max_flow(0, 3), 2);
/// ```
#[derive(Debug, Clone)]
pub struct MaxFlow {
    vertex_count: usize,
    edges: Vec<FlowEdge>,
    /// CSR over arc ids: `arcs[offsets[v]..offsets[v + 1]]` are the arcs
    /// leaving `v`, in insertion order.  Rebuilt lazily when stale.
    offsets: Vec<usize>,
    arcs: Vec<usize>,
    adjacency_stale: bool,
    /// BFS level per vertex, -1 when unlabelled.  Only the vertices in
    /// `queue` are labelled.
    level: Vec<i32>,
    iter: Vec<usize>,
    /// The vertices the last BFS labelled, in labelling order.
    queue: Vec<usize>,
    /// Arcs that carried flow since the last reset (repeats allowed): the
    /// only arcs, with their reverses, whose flow can be non-zero.
    pushed: Vec<usize>,
    augmenting_paths: u64,
    arc_scans: u64,
}

impl Default for MaxFlow {
    /// An empty zero-vertex network (populate via [`MaxFlow::assign_unit_graph`]).
    fn default() -> Self {
        MaxFlow::new(0)
    }
}

impl MaxFlow {
    /// Creates an empty flow network with `n` vertices.
    pub fn new(n: usize) -> Self {
        MaxFlow {
            vertex_count: n,
            edges: Vec::new(),
            offsets: Vec::new(),
            arcs: Vec::new(),
            adjacency_stale: true,
            level: vec![-1; n],
            iter: vec![0; n],
            queue: Vec::new(),
            pushed: Vec::new(),
            augmenting_paths: 0,
            arc_scans: 0,
        }
    }

    /// Resets the network to `n` vertices and no edges, keeping the
    /// capacity of every internal buffer (and the cumulative
    /// [`MaxFlow::augmenting_paths`] and [`MaxFlow::arc_scans`] counters).
    pub fn clear(&mut self, n: usize) {
        self.vertex_count = n;
        self.edges.clear();
        // The last query's labelled vertices and pushed arcs may not exist
        // in the new network.
        self.queue.clear();
        self.pushed.clear();
        self.adjacency_stale = true;
        self.level.clear();
        self.level.resize(n, -1);
        self.iter.clear();
        self.iter.resize(n, 0);
    }

    /// Builds a unit-capacity flow network from an undirected [`Graph`];
    /// every graph edge becomes an undirected capacity-1 connection, so the
    /// resulting max-flow values are edge-connectivities, as required for the
    /// paper's (K−1)-cut detection.
    pub fn from_unit_graph(graph: &Graph) -> Self {
        let mut flow = MaxFlow::new(graph.vertex_count());
        flow.assign_unit_graph(graph.vertex_count(), graph.edges());
        flow
    }

    /// Re-initialises the network as the unit-capacity version of an
    /// undirected edge list, reusing buffers (see [`MaxFlow::clear`]), and
    /// freezes its arc CSR.
    pub fn assign_unit_graph(&mut self, n: usize, edges: &[(usize, usize)]) {
        self.clear(n);
        for &(u, v) in edges {
            self.add_undirected_edge(u, v, 1);
        }
        self.ensure_adjacency();
    }

    /// Number of vertices in the network.
    pub fn vertex_count(&self) -> usize {
        self.vertex_count
    }

    /// Cumulative number of augmenting paths pushed by every flow query
    /// since construction (a hardware-independent work counter; survives
    /// [`MaxFlow::clear`]).
    pub fn augmenting_paths(&self) -> u64 {
        self.augmenting_paths
    }

    /// Cumulative number of arcs examined since construction: by the
    /// level BFS of every flow query (whose final pass of a query that
    /// stays under its cap is also the walk of the residual source side),
    /// by the blocking-flow DFS, and by the local certificate of
    /// [`threshold_components`](crate::threshold_components), which reads
    /// the arc lists of the network to answer a query without a flow.  A
    /// hardware-independent work counter; survives [`MaxFlow::clear`].
    pub fn arc_scans(&self) -> u64 {
        self.arc_scans
    }

    /// Adds `scans` arcs read outside a flow query to
    /// [`MaxFlow::arc_scans`].
    pub(crate) fn count_arc_scans(&mut self, scans: u64) {
        self.arc_scans += scans;
    }

    /// The heads of the arcs leaving `v`, read from the arc CSR: for a
    /// network built by [`MaxFlow::assign_unit_graph`], the neighbours of
    /// `v` in the graph (once per parallel edge).
    ///
    /// # Panics
    ///
    /// Panics if edges were added since the CSR was last frozen.
    pub(crate) fn neighbors(&self, v: usize) -> impl Iterator<Item = usize> + '_ {
        assert!(!self.adjacency_stale, "neighbors requires a frozen arc CSR");
        self.arcs[self.offsets[v]..self.offsets[v + 1]]
            .iter()
            .map(|&arc| self.edges[arc].to)
    }

    /// Adds a directed arc `from -> to` with the given capacity (and its
    /// zero-capacity reverse arc).
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range or the capacity is negative.
    pub fn add_edge(&mut self, from: usize, to: usize, capacity: i64) {
        assert!(
            from < self.vertex_count() && to < self.vertex_count(),
            "arc ({from}, {to}) out of range"
        );
        assert!(capacity >= 0, "capacity must be non-negative");
        self.adjacency_stale = true;
        self.edges.push(FlowEdge {
            to,
            capacity,
            flow: 0,
        });
        self.edges.push(FlowEdge {
            to: from,
            capacity: 0,
            flow: 0,
        });
    }

    /// Adds an undirected edge of the given capacity (capacity in both
    /// directions).
    pub fn add_undirected_edge(&mut self, u: usize, v: usize, capacity: i64) {
        assert!(
            u < self.vertex_count() && v < self.vertex_count(),
            "edge ({u}, {v}) out of range"
        );
        assert!(capacity >= 0, "capacity must be non-negative");
        self.adjacency_stale = true;
        self.edges.push(FlowEdge {
            to: v,
            capacity,
            flow: 0,
        });
        self.edges.push(FlowEdge {
            to: u,
            capacity,
            flow: 0,
        });
    }

    /// Rebuilds the arc CSR if edges changed since the last flow query.
    fn ensure_adjacency(&mut self) {
        if !self.adjacency_stale {
            return;
        }
        let n = self.vertex_count;
        self.offsets.clear();
        self.offsets.resize(n + 1, 0);
        // The tail of arc `a` is the head of its paired reverse arc `a ^ 1`.
        for a in 0..self.edges.len() {
            let tail = self.edges[a ^ 1].to;
            self.offsets[tail + 1] += 1;
        }
        for v in 0..n {
            let base = self.offsets[v];
            self.offsets[v + 1] += base;
        }
        self.arcs.clear();
        self.arcs.resize(self.edges.len(), 0);
        for a in 0..self.edges.len() {
            let tail = self.edges[a ^ 1].to;
            self.arcs[self.offsets[tail]] = a;
            self.offsets[tail] += 1;
        }
        for v in (1..=n).rev() {
            self.offsets[v] = self.offsets[v - 1];
        }
        if n > 0 {
            self.offsets[0] = 0;
        }
        self.adjacency_stale = false;
    }

    fn residual(&self, edge: usize) -> i64 {
        self.edges[edge].capacity - self.edges[edge].flow
    }

    /// Labels residual BFS levels from `source`, returning as soon as
    /// `sink` is labelled: every vertex nearer than the sink is labelled by
    /// then, so the level graph keeps every shortest augmenting path.  A
    /// vertex's DFS iterator restarts when it is labelled, and only the
    /// previous BFS's labels are cleared.
    fn bfs(&mut self, source: usize, sink: usize) -> bool {
        for &v in &self.queue {
            self.level[v] = -1;
        }
        self.queue.clear();
        self.level[source] = 0;
        self.iter[source] = 0;
        self.queue.push(source);
        let mut head = 0;
        while head < self.queue.len() {
            let u = self.queue[head];
            head += 1;
            for &e in &self.arcs[self.offsets[u]..self.offsets[u + 1]] {
                self.arc_scans += 1;
                let to = self.edges[e].to;
                if self.residual(e) > 0 && self.level[to] < 0 {
                    self.level[to] = self.level[u] + 1;
                    self.iter[to] = 0;
                    self.queue.push(to);
                    if to == sink {
                        return true;
                    }
                }
            }
        }
        false
    }

    fn dfs(&mut self, u: usize, sink: usize, pushed: i64) -> i64 {
        if u == sink {
            return pushed;
        }
        while self.iter[u] < self.offsets[u + 1] - self.offsets[u] {
            self.arc_scans += 1;
            let e = self.arcs[self.offsets[u] + self.iter[u]];
            let to = self.edges[e].to;
            if self.residual(e) > 0 && self.level[to] == self.level[u] + 1 {
                let amount = self.dfs(to, sink, pushed.min(self.residual(e)));
                if amount > 0 {
                    self.edges[e].flow += amount;
                    self.edges[e ^ 1].flow -= amount;
                    self.pushed.push(e);
                    return amount;
                }
            }
            self.iter[u] += 1;
        }
        0
    }

    /// Resets all flow to zero, allowing the network to be reused.  Only
    /// the arcs pushed since the last reset are touched.
    pub fn reset(&mut self) {
        for &e in &self.pushed {
            self.edges[e].flow = 0;
            self.edges[e ^ 1].flow = 0;
        }
        self.pushed.clear();
    }

    /// Computes the maximum flow (equivalently, the minimum cut value) from
    /// `source` to `sink`.  The flow state is retained so that
    /// [`MaxFlow::min_cut_side`] can recover the source side of a minimum cut.
    ///
    /// # Panics
    ///
    /// Panics if `source == sink` or either is out of range.
    pub fn max_flow(&mut self, source: usize, sink: usize) -> i64 {
        self.max_flow_capped(source, sink, INF)
    }

    /// Computes `min(max_flow(source, sink), cap)`, stopping as soon as
    /// `cap` units have been pushed.
    ///
    /// With unit capacities every augmenting path carries one unit, so the
    /// query performs at most `cap` augmentations — the early exit that
    /// turns the (K−1)-cut division's "is the min cut ≥ K?" questions from
    /// O(E·F) into O(E·K) each.  When the returned value is **less** than
    /// `cap` the flow is maximal and [`MaxFlow::min_cut_side`] is a genuine
    /// minimum cut; when it equals `cap` the flow may have stopped early
    /// and the residual reachability is meaningless.
    ///
    /// The query touches only what it needs: it first clears the previous
    /// query's BFS labels and pushed arcs, and each of its BFS passes stops
    /// once the sink is labelled.  Between adjacent vertices of a degree-8
    /// lattice, K = 4 costs two or three BFS passes around the pair rather
    /// than up to K sweeps of the whole graph.
    ///
    /// # Panics
    ///
    /// Panics if `source == sink`, either endpoint is out of range, or
    /// `cap` is negative.
    pub fn max_flow_capped(&mut self, source: usize, sink: usize, cap: i64) -> i64 {
        assert!(source != sink, "source and sink must differ");
        assert!(
            source < self.vertex_count() && sink < self.vertex_count(),
            "source/sink out of range"
        );
        assert!(cap >= 0, "flow cap must be non-negative");
        self.ensure_adjacency();
        self.reset();
        let mut total = 0;
        while total < cap && self.bfs(source, sink) {
            while total < cap {
                let pushed = self.dfs(source, sink, cap - total);
                if pushed == 0 {
                    break;
                }
                self.augmenting_paths += 1;
                total += pushed;
            }
        }
        total
    }

    /// After a flow query from `source` that stayed below its cap (every
    /// [`MaxFlow::max_flow`] query), returns the set of vertices reachable
    /// from `source` in the residual network — the source side of a
    /// minimum cut.
    ///
    /// # Panics
    ///
    /// Panics if the last flow query did not start at `source`.
    pub fn min_cut_side(&self, source: usize) -> Vec<bool> {
        assert!(
            self.level.get(source) == Some(&0),
            "min_cut_side requires a preceding flow query from {source}"
        );
        (0..self.vertex_count())
            .map(|v| self.on_source_side(v))
            .collect()
    }

    /// After a flow query that stayed below its cap, whether `v` is
    /// reachable from the query's source in the residual network.  The
    /// query's last BFS missed the sink, so it already walked exactly that
    /// set and left it labelled: O(1), no second walk.
    pub(crate) fn on_source_side(&self, v: usize) -> bool {
        self.level[v] >= 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_path_capacity_limits_flow() {
        let mut f = MaxFlow::new(3);
        f.add_edge(0, 1, 5);
        f.add_edge(1, 2, 3);
        assert_eq!(f.max_flow(0, 2), 3);
    }

    #[test]
    fn parallel_paths_add_up() {
        let mut f = MaxFlow::new(4);
        f.add_edge(0, 1, 2);
        f.add_edge(1, 3, 2);
        f.add_edge(0, 2, 3);
        f.add_edge(2, 3, 1);
        assert_eq!(f.max_flow(0, 3), 3);
    }

    #[test]
    fn classic_textbook_network() {
        // CLRS figure 26.1-style network.
        let mut f = MaxFlow::new(6);
        f.add_edge(0, 1, 16);
        f.add_edge(0, 2, 13);
        f.add_edge(1, 2, 10);
        f.add_edge(2, 1, 4);
        f.add_edge(1, 3, 12);
        f.add_edge(3, 2, 9);
        f.add_edge(2, 4, 14);
        f.add_edge(4, 3, 7);
        f.add_edge(3, 5, 20);
        f.add_edge(4, 5, 4);
        assert_eq!(f.max_flow(0, 5), 23);
    }

    #[test]
    fn undirected_edge_connectivity_of_cycle_is_two() {
        let mut g = Graph::new(5);
        for i in 0..5 {
            g.add_edge(i, (i + 1) % 5);
        }
        let mut f = MaxFlow::from_unit_graph(&g);
        assert_eq!(f.max_flow(0, 2), 2);
    }

    #[test]
    fn edge_connectivity_of_complete_graph() {
        let n = 5;
        let mut g = Graph::new(n);
        for i in 0..n {
            for j in (i + 1)..n {
                g.add_edge(i, j);
            }
        }
        let mut f = MaxFlow::from_unit_graph(&g);
        for s in 0..n {
            for t in 0..n {
                if s != t {
                    assert_eq!(f.max_flow(s, t), (n - 1) as i64);
                }
            }
        }
    }

    #[test]
    fn capped_flow_agrees_with_full_flow_on_the_threshold_question() {
        // Deterministic pseudo-random unit graphs: for every pair, capped
        // flow at K must classify "min cut < K vs >= K" exactly like the
        // full flow, and must equal the full flow whenever it is below K.
        let mut seed: u64 = 0x0DDB1A5E5BAD5EED;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for case in 0..10 {
            let n = 5 + (case % 4);
            let mut g = Graph::new(n);
            for i in 0..n {
                for j in (i + 1)..n {
                    if next() % 100 < 55 {
                        g.add_edge(i, j);
                    }
                }
            }
            let mut full = MaxFlow::from_unit_graph(&g);
            let mut capped = MaxFlow::from_unit_graph(&g);
            for k in 1..=5i64 {
                for s in 0..n {
                    for t in (s + 1)..n {
                        let exact = full.max_flow(s, t);
                        let fast = capped.max_flow_capped(s, t, k);
                        assert_eq!(fast >= k, exact >= k, "case {case} k={k} pair ({s},{t})");
                        if fast < k {
                            assert_eq!(fast, exact, "case {case} k={k} pair ({s},{t})");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn capped_flow_counts_at_most_cap_augmenting_paths_per_query() {
        let n = 8;
        let mut g = Graph::new(n);
        for i in 0..n {
            for j in (i + 1)..n {
                g.add_edge(i, j);
            }
        }
        let mut f = MaxFlow::from_unit_graph(&g);
        let before = f.augmenting_paths();
        assert_eq!(f.max_flow_capped(0, 7, 4), 4);
        assert!(f.augmenting_paths() - before <= 4);
    }

    #[test]
    fn clear_reuses_the_network_for_a_new_graph() {
        let mut f = MaxFlow::new(4);
        f.add_undirected_edge(0, 1, 10);
        f.add_undirected_edge(1, 2, 1);
        f.add_undirected_edge(2, 3, 10);
        assert_eq!(f.max_flow(0, 3), 1);
        f.assign_unit_graph(3, &[(0, 1), (1, 2), (0, 2)]);
        assert_eq!(f.vertex_count(), 3);
        assert_eq!(f.max_flow(0, 2), 2);
    }

    /// The fewest edges leaving any vertex set that holds `s` but not `t`,
    /// by enumeration (small `n` only).
    fn brute_force_min_cut(n: usize, edges: &[(usize, usize)], s: usize, t: usize) -> i64 {
        (0u32..1 << n)
            .filter(|set| set & (1 << s) != 0 && set & (1 << t) == 0)
            .map(|set| {
                edges
                    .iter()
                    .filter(|&&(u, v)| ((set >> u) & 1) != ((set >> v) & 1))
                    .count() as i64
            })
            .min()
            .expect("s is on one side")
    }

    #[test]
    fn sparse_resets_answer_a_query_stream_like_fresh_networks() {
        // One network answers a seeded stream of capped and uncapped
        // queries; whatever the previous query left labelled or pushed, each
        // answer must equal a fresh network's (and the brute-force cut).
        let mut seed: u64 = 0x5DEECE66D1234567;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed as usize
        };
        for case in 0..8 {
            let n = 6 + case % 7;
            let mut edges = Vec::new();
            for u in 0..n {
                for v in (u + 1)..n {
                    match next() % 10 {
                        0..=2 => edges.push((u, v)),
                        3 => edges.extend([(u, v), (v, u)]),
                        _ => {}
                    }
                }
            }
            let mut reused = MaxFlow::new(0);
            reused.assign_unit_graph(n, &edges);
            for query in 0..60 {
                let (s, t) = (next() % n, next() % n);
                if s == t {
                    continue;
                }
                let cap = if next() % 3 == 0 {
                    INF
                } else {
                    1 + (next() % 5) as i64
                };
                let got = reused.max_flow_capped(s, t, cap);
                let mut fresh = MaxFlow::new(0);
                fresh.assign_unit_graph(n, &edges);
                let context = format!("case {case} query {query}: {s}->{t} cap {cap}");
                assert_eq!(got, fresh.max_flow_capped(s, t, cap), "{context}");
                assert_eq!(
                    got,
                    brute_force_min_cut(n, &edges, s, t).min(cap),
                    "{context}"
                );
                if got < cap {
                    assert_eq!(reused.min_cut_side(s), fresh.min_cut_side(s), "{context}");
                }
            }
        }
    }

    #[test]
    fn assigning_a_smaller_graph_after_a_query_forgets_its_labels_and_arcs() {
        // A capped query along a 12-vertex path labels every vertex and
        // pushes flow on every arc; the 3-vertex network assigned next must
        // not reset levels or flows at those stale indices.
        let path: Vec<(usize, usize)> = (0..11).map(|v| (v, v + 1)).collect();
        let mut f = MaxFlow::new(0);
        f.assign_unit_graph(12, &path);
        assert_eq!(f.max_flow_capped(11, 0, 1), 1);
        f.assign_unit_graph(3, &[(0, 1), (1, 2), (0, 2)]);
        assert_eq!(f.max_flow(0, 2), 2);
        assert_eq!(f.min_cut_side(0), vec![true, false, false]);
    }

    #[test]
    fn capped_queries_between_neighbours_scan_only_their_neighbourhood() {
        // A 40×40 degree-8 lattice has over 12 000 arcs; proving min-cut ≥ 4
        // between adjacent vertices (orthogonal, then diagonal) must stay
        // within a few hundred of them.
        let side = 40;
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
        let mut f = MaxFlow::new(0);
        f.assign_unit_graph(side * side, &edges);
        for (s, t) in [(id(20, 20), id(21, 20)), (id(7, 30), id(8, 31))] {
            let before = f.arc_scans();
            assert_eq!(f.max_flow_capped(s, t, 4), 4);
            let scans = f.arc_scans() - before;
            assert!(scans > 0 && scans < 1_000, "{scans} arc scans for {s}->{t}");
        }
        let total = f.arc_scans();
        f.clear(0);
        assert_eq!(f.arc_scans(), total, "the counter survives clear");
    }

    #[test]
    fn min_cut_side_separates_source_from_sink() {
        let mut f = MaxFlow::new(4);
        // Bottleneck between 1 and 2.
        f.add_undirected_edge(0, 1, 10);
        f.add_undirected_edge(1, 2, 1);
        f.add_undirected_edge(2, 3, 10);
        assert_eq!(f.max_flow(0, 3), 1);
        let side = f.min_cut_side(0);
        assert_eq!(side, vec![true, true, false, false]);
    }

    #[test]
    fn disconnected_vertices_have_zero_flow() {
        let mut f = MaxFlow::new(4);
        f.add_undirected_edge(0, 1, 7);
        assert_eq!(f.max_flow(0, 3), 0);
        let side = f.min_cut_side(0);
        assert!(side[0] && side[1] && !side[2] && !side[3]);
    }

    #[test]
    fn reuse_after_reset_gives_same_answer() {
        let mut f = MaxFlow::new(3);
        f.add_undirected_edge(0, 1, 2);
        f.add_undirected_edge(1, 2, 3);
        assert_eq!(f.max_flow(0, 2), 2);
        assert_eq!(f.max_flow(0, 2), 2);
        assert_eq!(f.max_flow(2, 0), 2);
    }

    #[test]
    #[should_panic(expected = "must differ")]
    fn same_source_and_sink_panics() {
        let mut f = MaxFlow::new(2);
        f.add_undirected_edge(0, 1, 1);
        let _ = f.max_flow(1, 1);
    }
}
