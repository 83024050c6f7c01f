//! The linear-time color assignment (Section 3.2, Algorithm 2).

use super::ColorAssigner;
use crate::ComponentProblem;
use mpl_graph::Csr;

/// The vertex orders tried by *peer selection* (Algorithm 2, lines 6-9).
///
/// The paper processes three orders simultaneously and keeps the best
/// result; since each order is colored in linear time, the total remains
/// linear.
#[derive(Debug, Clone, Copy)]
enum VertexOrdering {
    /// `SEQUENCE-COLORING`: vertices in their construction order.
    Sequence,
    /// `DEGREE-COLORING`: vertices by decreasing conflict degree.
    Degree,
    /// `3ROUND-COLORING`: three rounds — vertices whose conflict degree is at
    /// least K first, then those with at least K/2, then the rest.
    ThreeRound,
}

/// The three orders used by peer selection.
const ORDERINGS: [VertexOrdering; 3] = [
    VertexOrdering::Sequence,
    VertexOrdering::Degree,
    VertexOrdering::ThreeRound,
];

/// How much each already-colored color-friendly neighbour (Definition 2)
/// lowers the penalty of its color.
const COLOR_FRIENDLY_BONUS: f64 = 0.01;

/// The linear color assignment engine (Algorithm 2).
///
/// The engine runs in three stages:
///
/// 1. **Iterative vertex removal** — vertices with conflict degree < K and
///    stitch degree < 2 are non-critical: they are removed onto a stack and
///    re-colored last, when a conflict-free color is guaranteed to exist.
/// 2. **Kernel coloring with peer selection** — the remaining vertices are
///    colored greedily under each of three vertex orders; the cheapest
///    result wins.  When scoring a color the engine looks not only at
///    conflict and stitch neighbours but also at *color-friendly* vertices
///    (Definition 2), which in dense layouts tend to share a mask.
/// 3. **Post-refinement** — one greedy improvement pass over the kernel,
///    followed by popping the stack and giving every popped vertex its best
///    legal color.
///
/// The engine has no settings: it always runs the paper's configuration
/// (all three orders, color-friendly guidance, post-refinement).
#[derive(Debug, Clone, Copy, Default)]
pub struct LinearAssigner;

impl LinearAssigner {
    /// Creates the engine.
    pub fn new() -> Self {
        LinearAssigner
    }

    /// The engine's three stages, with peer selection over `orderings`.
    fn assign_with(problem: &ComponentProblem, orderings: &[VertexOrdering]) -> Vec<u8> {
        let n = problem.vertex_count();
        if n == 0 {
            return Vec::new();
        }
        let k = problem.k();
        let alpha = problem.alpha();

        // The problem's shared flat adjacency (built once, reused by every
        // stage; no per-vertex Vecs).
        let conflict_adj = problem.conflict_adjacency();
        let stitch_adj = problem.stitch_adjacency();
        let friendly_adj = problem.friendly_adjacency();

        // ---- Stage 1: iterative removal of non-critical vertices. ----
        let mut conflict_degree: Vec<usize> = (0..n).map(|v| conflict_adj.degree(v)).collect();
        let mut stitch_degree: Vec<usize> = (0..n).map(|v| stitch_adj.degree(v)).collect();
        let mut removed = vec![false; n];
        let mut stack: Vec<usize> = Vec::new();
        let mut worklist: Vec<usize> = (0..n)
            .filter(|&v| conflict_degree[v] < k && stitch_degree[v] < 2)
            .collect();
        while let Some(v) = worklist.pop() {
            if removed[v] || conflict_degree[v] >= k || stitch_degree[v] >= 2 {
                continue;
            }
            removed[v] = true;
            stack.push(v);
            for &u in conflict_adj.neighbors(v) {
                if !removed[u] {
                    conflict_degree[u] -= 1;
                    if conflict_degree[u] < k && stitch_degree[u] < 2 {
                        worklist.push(u);
                    }
                }
            }
            for &u in stitch_adj.neighbors(v) {
                if !removed[u] {
                    stitch_degree[u] -= 1;
                    if conflict_degree[u] < k && stitch_degree[u] < 2 {
                        worklist.push(u);
                    }
                }
            }
        }
        let kernel: Vec<usize> = (0..n).filter(|&v| !removed[v]).collect();

        // ---- Stage 2: peer selection over the kernel. ----
        let kernel_conflict_degree: Vec<usize> = (0..n)
            .map(|v| {
                conflict_adj
                    .neighbors(v)
                    .iter()
                    .filter(|&&u| !removed[u])
                    .count()
            })
            .collect();
        let score = |colors: &[u8]| -> f64 {
            let mut conflicts = 0usize;
            let mut stitches = 0usize;
            for &(u, v) in problem.conflict_edges() {
                if colors[u] != u8::MAX && colors[v] != u8::MAX && colors[u] == colors[v] {
                    conflicts += 1;
                }
            }
            for &(u, v) in problem.stitch_edges() {
                if colors[u] != u8::MAX && colors[v] != u8::MAX && colors[u] != colors[v] {
                    stitches += 1;
                }
            }
            conflicts as f64 + alpha * stitches as f64
        };

        let mut best_colors: Option<Vec<u8>> = None;
        let mut best_score = f64::INFINITY;
        for &ordering in orderings {
            let order = order_vertices(ordering, &kernel, &kernel_conflict_degree, k);
            let mut colors = vec![u8::MAX; n];
            for &v in &order {
                colors[v] =
                    best_color(v, &colors, k, alpha, conflict_adj, stitch_adj, friendly_adj);
            }
            let value = score(&colors);
            if value < best_score {
                best_score = value;
                best_colors = Some(colors);
            }
        }
        let mut colors = best_colors.unwrap_or_else(|| vec![u8::MAX; n]);

        // ---- Stage 3: post-refinement on the kernel. ----
        for &v in &kernel {
            // Re-choosing the locally cheapest color (with the vertex
            // itself masked out) can only keep or reduce the total cost.
            colors[v] = u8::MAX;
            colors[v] = best_color(v, &colors, k, alpha, conflict_adj, stitch_adj, friendly_adj);
        }

        // ---- Pop the stack: a legal color always exists. ----
        for &v in stack.iter().rev() {
            colors[v] = best_color(v, &colors, k, alpha, conflict_adj, stitch_adj, friendly_adj);
        }
        // Any vertex that never received a color (isolated) defaults to 0.
        for color in colors.iter_mut() {
            if *color == u8::MAX {
                *color = 0;
            }
        }
        colors
    }
}

fn order_vertices(
    ordering: VertexOrdering,
    kernel: &[usize],
    conflict_degree: &[usize],
    k: usize,
) -> Vec<usize> {
    let mut order = kernel.to_vec();
    match ordering {
        VertexOrdering::Sequence => {}
        VertexOrdering::Degree => {
            order.sort_by_key(|&v| std::cmp::Reverse(conflict_degree[v]));
        }
        VertexOrdering::ThreeRound => {
            let round = |v: usize| {
                if conflict_degree[v] >= k {
                    0
                } else if conflict_degree[v] * 2 >= k {
                    1
                } else {
                    2
                }
            };
            order.sort_by_key(|&v| (round(v), v));
        }
    }
    order
}

/// Greedy color choice for `vertex` given the partially assigned
/// `colors` (`u8::MAX` marks unassigned vertices).
fn best_color(
    vertex: usize,
    colors: &[u8],
    k: usize,
    alpha: f64,
    conflict_adj: &Csr,
    stitch_adj: &Csr,
    friendly_adj: &Csr,
) -> u8 {
    let mut penalty = vec![0.0f64; k];
    for &n in conflict_adj.neighbors(vertex) {
        if colors[n] != u8::MAX {
            penalty[colors[n] as usize] += 1.0;
        }
    }
    for &n in stitch_adj.neighbors(vertex) {
        if colors[n] != u8::MAX {
            for (color, slot) in penalty.iter_mut().enumerate() {
                if color != colors[n] as usize {
                    *slot += alpha;
                }
            }
        }
    }
    for &n in friendly_adj.neighbors(vertex) {
        if colors[n] != u8::MAX {
            penalty[colors[n] as usize] -= COLOR_FRIENDLY_BONUS;
        }
    }
    penalty
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite penalties"))
        .map(|(color, _)| color as u8)
        .unwrap_or(0)
}

impl ColorAssigner for LinearAssigner {
    fn assign(&self, problem: &ComponentProblem) -> Vec<u8> {
        LinearAssigner::assign_with(problem, &ORDERINGS)
    }

    fn name(&self) -> &'static str {
        "Linear"
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_support::*;
    use super::*;

    #[test]
    fn empty_and_isolated_vertices() {
        let assigner = LinearAssigner::new();
        assert!(assigner
            .assign(&ComponentProblem::new(0, 4, 0.1))
            .is_empty());
        let isolated = ComponentProblem::new(3, 4, 0.1);
        let colors = assigner.assign(&isolated);
        assert_eq!(colors, vec![0, 0, 0]);
    }

    #[test]
    fn sparse_structures_are_colored_without_conflicts() {
        // Cycles and paths have conflict degree <= 2 < 4: the whole graph is
        // peeled onto the stack and popped back conflict-free.
        let assigner = LinearAssigner::new();
        for problem in [cycle(5, 4), cycle(8, 4), cycle(9, 5)] {
            let colors = assigner.assign(&problem);
            let (conflicts, _, _) = problem.evaluate(&colors);
            assert_eq!(conflicts, 0);
        }
    }

    #[test]
    fn k4_clique_is_colored_cleanly() {
        let mut p = ComponentProblem::new(4, 4, 0.1);
        for i in 0..4 {
            for j in (i + 1)..4 {
                p.add_conflict(i, j);
            }
        }
        let colors = LinearAssigner::new().assign(&p);
        let (conflicts, _, _) = p.evaluate(&colors);
        assert_eq!(conflicts, 0);
    }

    #[test]
    fn k5_clique_pays_exactly_one_conflict() {
        let problem = k5(4);
        let colors = LinearAssigner::new().assign(&problem);
        let (conflicts, _, _) = problem.evaluate(&colors);
        assert_eq!(conflicts, 1);
    }

    #[test]
    fn stack_pop_never_introduces_conflicts() {
        // Fig. 4-style structure: a dense core with low-degree satellites.
        let mut p = ComponentProblem::new(8, 4, 0.1);
        for i in 0..4 {
            for j in (i + 1)..4 {
                p.add_conflict(i, j);
            }
        }
        for satellite in 4..8 {
            p.add_conflict(satellite, satellite - 4);
            p.add_conflict(satellite, (satellite - 3) % 4);
        }
        let colors = LinearAssigner::new().assign(&p);
        let (conflicts, _, _) = p.evaluate(&colors);
        assert_eq!(conflicts, 0);
    }

    #[test]
    fn stitch_connected_segments_prefer_one_color() {
        let mut p = ComponentProblem::new(4, 4, 0.1);
        p.add_stitch(0, 1);
        p.add_stitch(1, 2);
        p.add_conflict(2, 3);
        let colors = LinearAssigner::new().assign(&p);
        let (conflicts, stitches, _) = p.evaluate(&colors);
        assert_eq!(conflicts, 0);
        assert_eq!(stitches, 0);
    }

    #[test]
    fn color_friendly_vertices_share_a_mask_when_free() {
        // Two vertices that are color-friendly and otherwise unconstrained
        // should land on the same mask when the rule is enabled.
        let mut p = ComponentProblem::new(6, 4, 0.1);
        // A small dense core to keep the two friends in the kernel.
        for i in 0..4 {
            for j in (i + 1)..4 {
                p.add_conflict(i, j);
            }
        }
        p.add_conflict(4, 0);
        p.add_conflict(4, 1);
        p.add_conflict(4, 2);
        p.add_conflict(4, 3);
        p.add_conflict(5, 0);
        p.add_conflict(5, 1);
        p.add_conflict(5, 2);
        p.add_conflict(5, 3);
        p.add_color_friendly(4, 5);
        let with_rule = LinearAssigner::new().assign(&p);
        assert_eq!(with_rule[4], with_rule[5]);
    }

    #[test]
    fn peer_selection_is_no_worse_than_any_single_ordering() {
        // Build a moderately tangled instance and check that the
        // three-ordering engine is at least as good as each single ordering.
        let mut p = ComponentProblem::new(10, 4, 0.1);
        let edges = [
            (0, 1),
            (0, 2),
            (0, 3),
            (0, 4),
            (1, 2),
            (1, 3),
            (1, 4),
            (2, 3),
            (2, 4),
            (3, 4),
            (4, 5),
            (5, 6),
            (5, 7),
            (5, 8),
            (6, 7),
            (6, 8),
            (7, 8),
            (8, 9),
            (9, 0),
            (9, 5),
        ];
        for &(u, v) in &edges {
            p.add_conflict(u, v);
        }
        let all = LinearAssigner::new().assign(&p);
        let (_, _, cost_all) = p.evaluate(&all);
        for ordering in ORDERINGS {
            let single = LinearAssigner::assign_with(&p, &[ordering]);
            let (_, _, cost_single) = p.evaluate(&single);
            assert!(cost_all <= cost_single + 1e-9);
        }
    }

    #[test]
    fn engine_name_matches_table_header() {
        assert_eq!(LinearAssigner::new().name(), "Linear");
    }
}
