//! SDP-relaxation based color assignment (Section 3.1 of the paper).

use super::ColorAssigner;
use crate::ComponentProblem;
use mpl_ilp::{solve_exact, ExactOptions};
use mpl_sdp::{solve_low_rank, GramMatrix, SolverOptions};
use std::time::Duration;

/// Solves the vector-program relaxation for a component problem, polling
/// `cancel`'s shared flag once per sweep.  An already-expired deadline is
/// promoted into the flag up front, so the relaxation is skipped outright
/// once the request is past due.
fn solve_relaxation(
    problem: &ComponentProblem,
    cancel: Option<&mpl_ilp::CancelProbe>,
) -> GramMatrix {
    if let Some(probe) = cancel {
        probe.should_stop(std::time::Instant::now());
    }
    let options = SolverOptions {
        cancel: cancel.map(|probe| probe.flag.clone()),
        ..SolverOptions::default()
    };
    solve_low_rank(
        problem.vertex_count(),
        problem.k(),
        problem.alpha(),
        problem.conflict_edges(),
        problem.stitch_edges(),
        &options,
    )
    .gram()
    .clone()
}

/// Union–find used by both rounding schemes to group vertices.
#[derive(Debug, Clone)]
struct Groups {
    parent: Vec<usize>,
}

impl Groups {
    fn new(n: usize) -> Self {
        Groups {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, x: usize) -> usize {
        if self.parent[x] != x {
            let root = self.find(self.parent[x]);
            self.parent[x] = root;
        }
        self.parent[x]
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra] = rb;
        }
    }

    /// Dense group index per vertex plus the number of groups.
    fn dense_labels(&mut self) -> (Vec<usize>, usize) {
        let n = self.parent.len();
        let mut label = vec![usize::MAX; n];
        let mut count = 0;
        for v in 0..n {
            let root = self.find(v);
            if label[root] == usize::MAX {
                label[root] = count;
                count += 1;
            }
            label[v] = label[root];
        }
        (label, count)
    }
}

/// Builds the merged problem where each group becomes one vertex, returning
/// the quotient problem and the group label of every original vertex.
fn quotient_problem(
    problem: &ComponentProblem,
    labels: &[usize],
    group_count: usize,
) -> ComponentProblem {
    let mut merged = ComponentProblem::new(group_count, problem.k(), problem.alpha());
    for &(u, v) in problem.conflict_edges() {
        if labels[u] != labels[v] {
            merged.add_conflict(labels[u], labels[v]);
        }
    }
    for &(u, v) in problem.stitch_edges() {
        if labels[u] != labels[v] {
            merged.add_stitch(labels[u], labels[v]);
        }
    }
    merged
}

/// SDP relaxation followed by threshold merging and exhaustive backtracking
/// on the merged graph — Algorithm 1 of the paper.
///
/// Vertex pairs whose relaxed inner product reaches the merge threshold
/// `t_th` (0.9 in the paper) are combined into a single vertex; the much
/// smaller *merged graph* is then colored exactly by branch and bound, which
/// plays the role of the paper's `BACKTRACK` procedure.
#[derive(Debug, Clone)]
pub struct SdpBacktrackAssigner {
    threshold: f64,
}

impl SdpBacktrackAssigner {
    /// Creates the engine with merge threshold `threshold` (the paper uses
    /// 0.9).
    ///
    /// # Panics
    ///
    /// Panics unless `threshold` lies in `(0, 1]`.
    pub fn new(threshold: f64) -> Self {
        assert!(
            threshold > 0.0 && threshold <= 1.0,
            "merge threshold must lie in (0, 1], got {threshold}"
        );
        SdpBacktrackAssigner { threshold }
    }
}

impl ColorAssigner for SdpBacktrackAssigner {
    fn assign(&self, problem: &ComponentProblem) -> Vec<u8> {
        self.assign_with_stats_cancellable(problem, None).colors
    }

    fn assign_with_stats_cancellable(
        &self,
        problem: &ComponentProblem,
        cancel: Option<&crate::CancelToken>,
    ) -> super::AssignOutcome {
        let n = problem.vertex_count();
        if n == 0 {
            return super::AssignOutcome::plain(Vec::new());
        }
        let probe = cancel.map(crate::cancel::CancelToken::probe);
        let gram = solve_relaxation(problem, probe.as_ref());

        // Merge phase (Algorithm 1, lines 1-4): pairs with x_ij >= t_th
        // collapse into one vertex.  Pairs joined by a conflict edge are
        // never merged — a well-converged relaxation keeps them far below
        // the threshold anyway, and the guard keeps the merged graph sound
        // even when the relaxation is stopped early.
        let mut conflicting = std::collections::HashSet::new();
        for &(u, v) in problem.conflict_edges() {
            conflicting.insert((u.min(v), u.max(v)));
        }
        let mut groups = Groups::new(n);
        for i in 0..n {
            for j in (i + 1)..n {
                if gram.value(i, j) >= self.threshold && !conflicting.contains(&(i, j)) {
                    groups.union(i, j);
                }
            }
        }
        let (labels, group_count) = groups.dense_labels();
        let merged = quotient_problem(problem, &labels, group_count);

        // Backtracking phase (Algorithm 1, lines 5-19): exact search on the
        // merged graph.
        let solution = solve_exact(
            merged.vertex_count(),
            merged.k(),
            merged.alpha(),
            merged.conflict_edges(),
            merged.stitch_edges(),
            &ExactOptions {
                time_limit: Some(Duration::from_secs(60)),
                cancel: probe,
            },
        );
        // This engine has always reported zeroed work counters (the
        // branch-and-bound run on the merged graph is an implementation
        // detail of the rounding, not the engine's headline search), so the
        // cancellable path keeps them zero too — only the new `cancelled`
        // flag is surfaced.
        let cancelled =
            solution.cancelled || cancel.is_some_and(crate::CancelToken::stop_requested);
        super::AssignOutcome {
            cancelled,
            ..super::AssignOutcome::plain(labels.iter().map(|&g| solution.colors[g]).collect())
        }
    }

    fn name(&self) -> &'static str {
        "SDP+Backtrack"
    }
}

/// SDP relaxation followed by the greedy mapping of Yu et al. (ICCAD 2011).
///
/// All vertex pairs are sorted by decreasing relaxed inner product; pairs
/// are greedily merged while no conflict edge joins the two groups and the
/// number of groups exceeds K.  The resulting quotient graph is then colored
/// by a single greedy sweep.  The paper reports this engine as roughly twice
/// as fast as the backtracking variant but clearly worse on dense layouts —
/// the behaviour reproduced by the Table 1 bench.
#[derive(Debug, Clone, Default)]
pub struct SdpGreedyAssigner;

impl SdpGreedyAssigner {
    /// Creates the engine.
    pub fn new() -> Self {
        SdpGreedyAssigner
    }
}

impl ColorAssigner for SdpGreedyAssigner {
    fn assign(&self, problem: &ComponentProblem) -> Vec<u8> {
        self.assign_with_stats_cancellable(problem, None).colors
    }

    fn assign_with_stats_cancellable(
        &self,
        problem: &ComponentProblem,
        cancel: Option<&crate::CancelToken>,
    ) -> super::AssignOutcome {
        let n = problem.vertex_count();
        if n == 0 {
            return super::AssignOutcome::plain(Vec::new());
        }
        let k = problem.k();
        let probe = cancel.map(crate::cancel::CancelToken::probe);
        let gram = solve_relaxation(problem, probe.as_ref());

        // Group-level conflict tracking so merges never join conflicting
        // groups.
        let mut conflicting = std::collections::HashSet::new();
        for &(u, v) in problem.conflict_edges() {
            conflicting.insert((u.min(v), u.max(v)));
        }
        let mut pairs: Vec<(usize, usize, f64)> = (0..n)
            .flat_map(|i| ((i + 1)..n).map(move |j| (i, j)))
            .map(|(i, j)| (i, j, gram.value(i, j)))
            .collect();
        pairs.sort_by(|a, b| b.2.partial_cmp(&a.2).expect("finite inner products"));

        let mut groups = Groups::new(n);
        let mut group_count = n;
        for &(i, j, value) in &pairs {
            if group_count <= k || value <= 0.0 {
                break;
            }
            let (ri, rj) = (groups.find(i), groups.find(j));
            if ri == rj {
                continue;
            }
            // Reject the merge if any conflict edge joins the two groups.
            let joins_conflict = problem.conflict_edges().iter().any(|&(u, v)| {
                let (ru, rv) = (groups.find(u), groups.find(v));
                (ru == ri && rv == rj) || (ru == rj && rv == ri)
            });
            if !joins_conflict {
                groups.union(i, j);
                group_count -= 1;
            }
        }
        let (labels, group_count) = groups.dense_labels();
        let merged = quotient_problem(problem, &labels, group_count);

        // Greedy coloring of the quotient graph, largest groups first.
        let mut group_size = vec![0usize; group_count];
        for &label in &labels {
            group_size[label] += 1;
        }
        let mut order: Vec<usize> = (0..group_count).collect();
        order.sort_by_key(|&g| std::cmp::Reverse(group_size[g]));

        let conflict_adj = merged.conflict_adjacency();
        let stitch_adj = merged.stitch_adjacency();
        let mut group_color = vec![u8::MAX; group_count];
        for &g in &order {
            let mut penalty = vec![0.0f64; k];
            for &other in conflict_adj.neighbors(g) {
                if group_color[other] != u8::MAX {
                    penalty[group_color[other] as usize] += 1.0;
                }
            }
            for &other in stitch_adj.neighbors(g) {
                if group_color[other] == u8::MAX {
                    continue;
                }
                let keep = group_color[other] as usize;
                for (color, slot) in penalty.iter_mut().enumerate() {
                    if color != keep {
                        *slot += merged.alpha();
                    }
                }
            }
            let best = penalty
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
                .map(|(c, _)| c)
                .unwrap_or(0);
            group_color[g] = best as u8;
        }
        // The greedy mapping itself is near-linear, so the only stage worth
        // interrupting was the relaxation above.
        super::AssignOutcome {
            cancelled: cancel.is_some_and(crate::CancelToken::stop_requested),
            ..super::AssignOutcome::plain(labels.iter().map(|&g| group_color[g]).collect())
        }
    }

    fn name(&self) -> &'static str {
        "SDP+Greedy"
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_support::*;
    use super::*;

    #[test]
    fn backtrack_finds_the_optimum_on_small_structures() {
        let assigner = SdpBacktrackAssigner::new(0.9);
        for problem in [k5(4), cycle(5, 4), cycle(6, 4), k5(5)] {
            let colors = assigner.assign(&problem);
            let (_, _, cost) = problem.evaluate(&colors);
            assert!(
                (cost - brute_force_cost(&problem)).abs() < 1e-9,
                "cost {cost} differs from the optimum"
            );
        }
    }

    #[test]
    fn backtrack_merges_stitch_connected_segments() {
        // Two segments of the same wire joined by a stitch and not otherwise
        // constrained end up in the same group, hence the same color, so no
        // stitch is paid.
        let mut p = ComponentProblem::new(3, 4, 0.1);
        p.add_stitch(0, 1);
        p.add_conflict(1, 2);
        let colors = SdpBacktrackAssigner::new(0.9).assign(&p);
        let (conflicts, stitches, _) = p.evaluate(&colors);
        assert_eq!(conflicts, 0);
        assert_eq!(stitches, 0);
        assert_eq!(colors[0], colors[1]);
    }

    #[test]
    fn greedy_produces_valid_colorings() {
        let assigner = SdpGreedyAssigner::new();
        for problem in [k5(4), cycle(6, 4), cycle(7, 5)] {
            let colors = assigner.assign(&problem);
            assert_eq!(colors.len(), problem.vertex_count());
            assert!(colors.iter().all(|&c| (c as usize) < problem.k()));
        }
    }

    #[test]
    fn greedy_handles_conflict_free_structures_cleanly() {
        // A 4-cycle is 2-colorable, so even the greedy mapping must produce
        // zero conflicts with four masks available.
        let problem = cycle(4, 4);
        let colors = SdpGreedyAssigner::new().assign(&problem);
        let (conflicts, _, _) = problem.evaluate(&colors);
        assert_eq!(conflicts, 0);
    }

    #[test]
    fn greedy_is_never_better_than_backtrack_on_the_k5() {
        let problem = k5(4);
        let backtrack = SdpBacktrackAssigner::new(0.9).assign(&problem);
        let greedy = SdpGreedyAssigner::new().assign(&problem);
        let (cb, _, _) = problem.evaluate(&backtrack);
        let (cg, _, _) = problem.evaluate(&greedy);
        assert!(cg >= cb);
        assert_eq!(cb, 1);
    }

    #[test]
    fn empty_problem_yields_empty_assignment() {
        let problem = ComponentProblem::new(0, 4, 0.1);
        assert!(SdpBacktrackAssigner::new(0.9).assign(&problem).is_empty());
        assert!(SdpGreedyAssigner::new().assign(&problem).is_empty());
    }

    #[test]
    fn engine_names_match_table_headers() {
        assert_eq!(SdpBacktrackAssigner::new(0.9).name(), "SDP+Backtrack");
        assert_eq!(SdpGreedyAssigner::new().name(), "SDP+Greedy");
    }

    #[test]
    #[should_panic(expected = "merge threshold")]
    fn zero_threshold_is_rejected() {
        let _ = SdpBacktrackAssigner::new(0.0);
    }
}
