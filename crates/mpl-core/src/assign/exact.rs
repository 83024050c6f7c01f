//! The exact (ILP-equivalent) color-assignment engine.

use super::ColorAssigner;
use crate::ComponentProblem;
use mpl_ilp::{solve_exact, BinaryProgram, Comparison, ExactOptions};
use std::time::Duration;

/// The optimal baseline of the paper's Table 1.
///
/// The paper formulates color assignment as an integer linear program
/// (extending the triple-patterning ILP of Yu et al., ICCAD 2011) and solves
/// it with GUROBI under a one-hour limit.  This engine solves the identical
/// discrete problem with the branch-and-bound solver of [`mpl_ilp`]; the
/// model itself can still be materialised with [`build_ilp_model`] for
/// inspection and for the equivalence tests.
#[derive(Debug, Clone)]
pub struct ExactAssigner {
    time_limit: Duration,
}

impl ExactAssigner {
    /// Creates the engine with a per-component wall-clock budget.
    pub fn new(time_limit: Duration) -> Self {
        ExactAssigner { time_limit }
    }
}

impl ColorAssigner for ExactAssigner {
    fn assign(&self, problem: &ComponentProblem) -> Vec<u8> {
        self.assign_with_stats(problem).colors
    }

    fn assign_with_stats(&self, problem: &ComponentProblem) -> super::AssignOutcome {
        self.assign_with_stats_cancellable(problem, None)
    }

    fn assign_with_stats_cancellable(
        &self,
        problem: &ComponentProblem,
        cancel: Option<&crate::CancelToken>,
    ) -> super::AssignOutcome {
        let solution = solve_exact(
            problem.vertex_count(),
            problem.k(),
            problem.alpha(),
            problem.conflict_edges(),
            problem.stitch_edges(),
            &ExactOptions {
                time_limit: Some(self.time_limit),
                cancel: cancel.map(crate::cancel::CancelToken::probe),
            },
        );
        super::AssignOutcome {
            colors: solution.colors,
            bnb_nodes: solution.nodes,
            hit_time_limit: solution.hit_time_limit,
            bound_improvements: solution.bound_improvements,
            cancelled: solution.cancelled,
        }
    }

    fn name(&self) -> &'static str {
        "ILP"
    }
}

/// Materialises the paper's ILP formulation for a component problem.
///
/// Variables (all binary):
///
/// * `x[v][c]` for every vertex `v` and color `c` — vertex `v` uses color
///   `c`; exactly one per vertex (assignment constraints).
/// * `conflict[e]` for every conflict edge — forced to 1 whenever both
///   endpoints share a color (`x[u][c] + x[v][c] − conflict[e] ≤ 1` for all
///   `c`).
/// * `stitch[e]` for every stitch edge — forced to 1 whenever the endpoints
///   differ (`x[u][c] − x[v][c] ≤ stitch[e]` and symmetrically, for all
///   `c`).
///
/// The objective is `Σ conflict[e] + α · Σ stitch[e]`, exactly the paper's
/// cost function.  Returns the program together with the index of the first
/// conflict indicator and the first stitch indicator, so tests can decode
/// solutions.
pub fn build_ilp_model(problem: &ComponentProblem) -> (BinaryProgram, usize, usize) {
    let n = problem.vertex_count();
    let k = problem.k();
    let assignment_vars = n * k;
    let conflict_vars = problem.conflict_edges().len();
    let stitch_vars = problem.stitch_edges().len();
    let conflict_base = assignment_vars;
    let stitch_base = assignment_vars + conflict_vars;
    let mut program = BinaryProgram::new(assignment_vars + conflict_vars + stitch_vars);

    let x = |v: usize, c: usize| v * k + c;

    // Objective.
    for (index, _) in problem.conflict_edges().iter().enumerate() {
        program.set_objective_coefficient(conflict_base + index, 1.0);
    }
    for (index, _) in problem.stitch_edges().iter().enumerate() {
        program.set_objective_coefficient(stitch_base + index, problem.alpha());
    }

    // Exactly one color per vertex.
    for v in 0..n {
        program.add_constraint(
            (0..k).map(|c| (x(v, c), 1.0)).collect(),
            Comparison::Equal,
            1.0,
        );
    }
    // Conflict indicators.
    for (index, &(u, v)) in problem.conflict_edges().iter().enumerate() {
        for c in 0..k {
            program.add_constraint(
                vec![
                    (x(u, c), 1.0),
                    (x(v, c), 1.0),
                    (conflict_base + index, -1.0),
                ],
                Comparison::LessEq,
                1.0,
            );
        }
    }
    // Stitch indicators.
    for (index, &(u, v)) in problem.stitch_edges().iter().enumerate() {
        for c in 0..k {
            program.add_constraint(
                vec![(x(u, c), 1.0), (x(v, c), -1.0), (stitch_base + index, -1.0)],
                Comparison::LessEq,
                0.0,
            );
            program.add_constraint(
                vec![(x(v, c), 1.0), (x(u, c), -1.0), (stitch_base + index, -1.0)],
                Comparison::LessEq,
                0.0,
            );
        }
    }
    (program, conflict_base, stitch_base)
}

#[cfg(test)]
mod tests {
    use super::super::test_support::*;
    use super::*;
    use mpl_ilp::SolveStatus;

    #[test]
    fn exact_engine_matches_brute_force_on_small_instances() {
        let cases = vec![k5(4), cycle(5, 4), cycle(7, 4), k5(5)];
        let assigner = ExactAssigner::new(Duration::from_secs(10));
        for problem in cases {
            let colors = assigner.assign(&problem);
            let (_, _, cost) = problem.evaluate(&colors);
            assert!((cost - brute_force_cost(&problem)).abs() < 1e-9);
        }
    }

    #[test]
    fn exact_engine_uses_stitches_when_cheaper() {
        // Two stitch-connected halves, each locked into a different color by
        // conflict triangles, must pay one stitch rather than one conflict.
        let mut p = ComponentProblem::new(4, 2, 0.1);
        p.add_stitch(0, 1);
        p.add_conflict(0, 2);
        p.add_conflict(1, 3);
        p.add_conflict(2, 3);
        let assigner = ExactAssigner::new(Duration::from_secs(10));
        let colors = assigner.assign(&p);
        let (conflicts, stitches, cost) = p.evaluate(&colors);
        assert_eq!(conflicts, 0);
        assert_eq!(stitches, 1);
        assert!((cost - 0.1).abs() < 1e-9);
    }

    #[test]
    fn ilp_model_matches_the_exact_engine_on_tiny_instances() {
        // Solve the explicit ILP formulation with the generic 0-1 solver and
        // compare objective values with the specialised engine and with
        // brute force: a 4-cycle and a K5, then a seeded stream over n = 4..=6,
        // K = 2..=4 and α ∈ {0.1, 0.3, 1.0} with stitch edges and parallel
        // conflict edges.
        let mut problems = vec![cycle(4, 3), k5(4)];
        let mut seed: u64 = 0x2545F4914F6CDD1D;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for case in 0..36 {
            let n = 4 + case % 3;
            let k = 2 + (case / 3) % 3;
            let alpha = [0.1, 0.3, 1.0][(case / 9) % 3];
            let mut problem = ComponentProblem::new(n, k, alpha);
            for i in 0..n {
                for j in (i + 1)..n {
                    match next() % 10 {
                        0..=3 => problem.add_conflict(i, j),
                        4 => {
                            problem.add_conflict(i, j);
                            problem.add_conflict(j, i);
                        }
                        5 | 6 => problem.add_stitch(i, j),
                        _ => {}
                    }
                }
            }
            problems.push(problem);
        }
        let assigner = ExactAssigner::new(Duration::from_secs(10));
        for (case, problem) in problems.iter().enumerate() {
            let (program, _, _) = build_ilp_model(problem);
            let ilp = program.solve(2_000_000);
            assert_eq!(ilp.status, SolveStatus::Optimal, "case {case}");
            let (_, _, cost) = problem.evaluate(&assigner.assign(problem));
            let brute = brute_force_cost(problem);
            assert!(
                (ilp.objective - cost).abs() < 1e-6 && (brute - cost).abs() < 1e-6,
                "case {case}: ILP {} vs branch-and-bound {cost} vs brute force {brute}",
                ilp.objective
            );
        }
    }

    #[test]
    fn ilp_model_counts_variables_and_constraints() {
        let problem = cycle(3, 4);
        let (program, conflict_base, stitch_base) = build_ilp_model(&problem);
        // 3 vertices x 4 colors + 3 conflict indicators + 0 stitch indicators.
        assert_eq!(program.variable_count(), 15);
        assert_eq!(conflict_base, 12);
        assert_eq!(stitch_base, 15);
        // 3 assignment + 3 edges x 4 colors.
        assert_eq!(program.constraint_count(), 15);
    }

    #[test]
    fn engine_name_matches_table_header() {
        assert_eq!(ExactAssigner::new(Duration::from_secs(1)).name(), "ILP");
    }
}
