//! Articulation points, bridges, and 2-vertex-connected components.

use crate::csr::Incidence;
use crate::Graph;

/// The biconnectivity structure of an undirected graph: articulation points
/// (cut vertices), bridges (1-cuts), and the partition of edges into
/// 2-vertex-connected (biconnected) components.
///
/// Splitting the decomposition graph at articulation points is one of the
/// graph-division techniques inherited from triple-patterning decomposers:
/// each biconnected component can be colored independently and the solutions
/// merged at the shared cut vertices without creating new conflicts (a cut
/// vertex can always keep the color chosen in the first component because
/// color permutations within the second component are free).
///
/// # Example
///
/// ```
/// use mpl_graph::{Biconnectivity, Graph};
///
/// // Two triangles sharing vertex 2 ("bow-tie").
/// let mut g = Graph::new(5);
/// g.add_edge(0, 1);
/// g.add_edge(1, 2);
/// g.add_edge(2, 0);
/// g.add_edge(2, 3);
/// g.add_edge(3, 4);
/// g.add_edge(4, 2);
/// let bc = Biconnectivity::compute(&g);
/// assert!(bc.is_articulation(2));
/// assert_eq!(bc.components().len(), 2);
/// assert!(bc.bridges().is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct Biconnectivity {
    articulation: Vec<bool>,
    bridges: Vec<(usize, usize)>,
    /// Edge-index partition: each biconnected component is a list of edge
    /// indices into the original graph's edge list.
    components: Vec<Vec<usize>>,
}

impl Biconnectivity {
    /// Runs Tarjan's biconnectivity algorithm (iterative, so deep structures
    /// cannot overflow the call stack) on `graph`.
    pub fn compute(graph: &Graph) -> Self {
        Biconnectivity::compute_from_edges(graph.vertex_count(), graph.edges())
    }

    /// Runs the same algorithm directly on an undirected edge list over
    /// vertices `0..n` (the hot-path entry point: no [`Graph`] needs to be
    /// materialised per component).
    ///
    /// # Panics
    ///
    /// Panics if an edge endpoint is `>= n`.
    pub fn compute_from_edges(n: usize, edges: &[(usize, usize)]) -> Self {
        let mut state = State {
            edges,
            incidence: Incidence::new(n, edges.iter().copied()),
            disc: vec![usize::MAX; n],
            low: vec![0; n],
            articulation: vec![false; n],
            bridges: Vec::new(),
            components: Vec::new(),
            edge_stack: Vec::new(),
            timer: 0,
        };
        for root in 0..n {
            if state.disc[root] == usize::MAX {
                state.dfs(root);
            }
        }
        Biconnectivity {
            articulation: state.articulation,
            bridges: state.bridges,
            components: state.components,
        }
    }

    /// Returns `true` if `v` is an articulation point (cut vertex).
    pub fn is_articulation(&self, v: usize) -> bool {
        self.articulation[v]
    }

    /// All articulation points, in ascending order.
    pub fn articulation_points(&self) -> Vec<usize> {
        self.articulation
            .iter()
            .enumerate()
            .filter_map(|(v, &a)| a.then_some(v))
            .collect()
    }

    /// All bridge edges `(u, v)` — edges whose removal disconnects the graph
    /// (the paper's 1-cuts).
    pub fn bridges(&self) -> &[(usize, usize)] {
        &self.bridges
    }

    /// The biconnected components as lists of edge indices into the original
    /// graph's [`Graph::edges`] list.
    pub fn components(&self) -> &[Vec<usize>] {
        &self.components
    }

    /// The biconnected components as lists of vertex ids (each sorted and
    /// deduplicated).  Isolated vertices do not appear in any component.
    pub fn vertex_components(&self, graph: &Graph) -> Vec<Vec<usize>> {
        self.vertex_components_from_edges(graph.edges())
    }

    /// [`Biconnectivity::vertex_components`] over a plain edge list (must be
    /// the list the structure was computed from).
    pub fn vertex_components_from_edges(&self, edges: &[(usize, usize)]) -> Vec<Vec<usize>> {
        self.components
            .iter()
            .map(|edge_indices| {
                let mut vertices: Vec<usize> = edge_indices
                    .iter()
                    .flat_map(|&e| {
                        let (u, v) = edges[e];
                        [u, v]
                    })
                    .collect();
                vertices.sort_unstable();
                vertices.dedup();
                vertices
            })
            .collect()
    }
}

struct State<'a> {
    edges: &'a [(usize, usize)],
    incidence: Incidence,
    disc: Vec<usize>,
    low: Vec<usize>,
    articulation: Vec<bool>,
    bridges: Vec<(usize, usize)>,
    components: Vec<Vec<usize>>,
    edge_stack: Vec<usize>,
    timer: usize,
}

struct Frame {
    vertex: usize,
    parent_edge: Option<usize>,
    next_neighbor: usize,
    child_count: usize,
}

impl State<'_> {
    /// Iterative DFS implementing the standard low-link biconnectivity
    /// computation.
    fn dfs(&mut self, root: usize) {
        let mut stack = vec![Frame {
            vertex: root,
            parent_edge: None,
            next_neighbor: 0,
            child_count: 0,
        }];
        self.disc[root] = self.timer;
        self.low[root] = self.timer;
        self.timer += 1;

        while let Some(frame) = stack.last_mut() {
            let u = frame.vertex;
            if let Some(&(v, edge_index)) = self.incidence.of(u).get(frame.next_neighbor) {
                frame.next_neighbor += 1;
                if Some(edge_index) == frame.parent_edge {
                    continue;
                }
                if self.disc[v] == usize::MAX {
                    self.edge_stack.push(edge_index);
                    frame.child_count += 1;
                    self.disc[v] = self.timer;
                    self.low[v] = self.timer;
                    self.timer += 1;
                    stack.push(Frame {
                        vertex: v,
                        parent_edge: Some(edge_index),
                        next_neighbor: 0,
                        child_count: 0,
                    });
                } else if self.disc[v] < self.disc[u] {
                    // Back edge.
                    self.edge_stack.push(edge_index);
                    self.low[u] = self.low[u].min(self.disc[v]);
                }
            } else {
                // Post-order: propagate low-link to the parent.
                let finished = stack.pop().expect("frame exists");
                let u = finished.vertex;
                let stack_depth = stack.len();
                if let Some(parent_frame) = stack.last_mut() {
                    let p = parent_frame.vertex;
                    self.low[p] = self.low[p].min(self.low[u]);
                    let parent_edge = finished.parent_edge.expect("non-root has parent edge");
                    if self.low[u] >= self.disc[p] {
                        // p is an articulation point (unless it is the root
                        // with a single child, handled below) and the edges
                        // on the stack down to parent_edge form a biconnected
                        // component.
                        if !(stack_depth == 1 && parent_frame.child_count == 1) {
                            self.articulation[p] = true;
                        }
                        let mut component = Vec::new();
                        while let Some(&top) = self.edge_stack.last() {
                            self.edge_stack.pop();
                            component.push(top);
                            if top == parent_edge {
                                break;
                            }
                        }
                        if !component.is_empty() {
                            self.components.push(component);
                        }
                    }
                    if self.low[u] > self.disc[p] {
                        let (a, b) = self.edges[parent_edge];
                        self.bridges.push((a, b));
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(n: usize) -> Graph {
        let mut g = Graph::new(n);
        for i in 0..n - 1 {
            g.add_edge(i, i + 1);
        }
        g
    }

    fn cycle(n: usize) -> Graph {
        let mut g = Graph::new(n);
        for i in 0..n {
            g.add_edge(i, (i + 1) % n);
        }
        g
    }

    #[test]
    fn path_every_edge_is_a_bridge() {
        let g = path(5);
        let bc = Biconnectivity::compute(&g);
        assert_eq!(bc.bridges().len(), 4);
        assert_eq!(bc.articulation_points(), vec![1, 2, 3]);
        assert_eq!(bc.components().len(), 4);
    }

    #[test]
    fn cycle_has_no_bridges_or_articulation_points() {
        let g = cycle(6);
        let bc = Biconnectivity::compute(&g);
        assert!(bc.bridges().is_empty());
        assert!(bc.articulation_points().is_empty());
        assert_eq!(bc.components().len(), 1);
        assert_eq!(bc.components()[0].len(), 6);
    }

    #[test]
    fn bow_tie_splits_into_two_triangles() {
        let mut g = Graph::new(5);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(2, 0);
        g.add_edge(2, 3);
        g.add_edge(3, 4);
        g.add_edge(4, 2);
        let bc = Biconnectivity::compute(&g);
        assert_eq!(bc.articulation_points(), vec![2]);
        let mut comps = bc.vertex_components(&g);
        for c in &mut comps {
            c.sort_unstable();
        }
        comps.sort();
        assert_eq!(comps, vec![vec![0, 1, 2], vec![2, 3, 4]]);
    }

    #[test]
    fn two_cycles_joined_by_a_bridge() {
        // 0-1-2-0  3-4-5-3  bridge 2-3
        let mut g = Graph::new(6);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(2, 0);
        g.add_edge(3, 4);
        g.add_edge(4, 5);
        g.add_edge(5, 3);
        g.add_edge(2, 3);
        let bc = Biconnectivity::compute(&g);
        assert_eq!(bc.bridges(), &[(2, 3)]);
        assert_eq!(bc.articulation_points(), vec![2, 3]);
        assert_eq!(bc.components().len(), 3);
    }

    #[test]
    fn disconnected_graph_handles_each_part() {
        let mut g = Graph::new(6);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(2, 0);
        g.add_edge(4, 5);
        let bc = Biconnectivity::compute(&g);
        assert_eq!(bc.bridges(), &[(4, 5)]);
        assert!(bc.articulation_points().is_empty());
        assert_eq!(bc.components().len(), 2);
    }

    #[test]
    fn isolated_vertices_produce_no_components() {
        let g = Graph::new(3);
        let bc = Biconnectivity::compute(&g);
        assert!(bc.components().is_empty());
        assert!(bc.bridges().is_empty());
        assert!(bc.articulation_points().is_empty());
    }

    #[test]
    fn complete_graph_is_one_component() {
        let mut g = Graph::new(5);
        for i in 0..5 {
            for j in (i + 1)..5 {
                g.add_edge(i, j);
            }
        }
        let bc = Biconnectivity::compute(&g);
        assert!(bc.articulation_points().is_empty());
        assert!(bc.bridges().is_empty());
        assert_eq!(bc.components().len(), 1);
        assert_eq!(bc.components()[0].len(), 10);
    }

    #[test]
    fn star_center_is_articulation() {
        let mut g = Graph::new(5);
        for leaf in 1..5 {
            g.add_edge(0, leaf);
        }
        let bc = Biconnectivity::compute(&g);
        assert_eq!(bc.articulation_points(), vec![0]);
        assert_eq!(bc.bridges().len(), 4);
        assert_eq!(bc.components().len(), 4);
    }
}
