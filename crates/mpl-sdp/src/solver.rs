//! Low-rank damped block-coordinate solver for the relaxation.

use crate::GramMatrix;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Options controlling the low-rank solver.
#[derive(Debug, Clone)]
pub struct SolverOptions {
    /// Maximum number of full sweeps over the vertices.
    pub max_iterations: usize,
    /// Convergence threshold on the objective improvement between sweeps.
    pub tolerance: f64,
    /// Rank (embedding dimension) of the factorisation.  Ranks of `K + 2`
    /// and above are comfortably sufficient for the instances produced by
    /// graph division; `0` selects `min(n, K + 3)` automatically.
    pub rank: usize,
    /// Penalty slope for violating the pairwise constraint
    /// `x_ij ≥ −1/(K−1)` on conflict edges.  Larger values track the
    /// constraint boundary more tightly (the equilibrium sits about
    /// `1/(2·penalty)` below it) at the cost of stiffer dynamics.
    pub penalty: f64,
    /// Gradient step size applied to each vertex update (scaled down for
    /// high-degree vertices); small values trade convergence speed for
    /// stability on tightly constrained structures.
    pub damping: f64,
    /// RNG seed for the initial vector placement (the solve is deterministic
    /// for a fixed seed).
    pub seed: u64,
    /// An external stop flag, polled once per sweep — the solver's existing
    /// convergence-check cadence, so the per-vertex hot loop stays
    /// flag-free.  Once it is set the current iterate is returned with
    /// [`converged`](SdpSolution::converged) `false`; its Gram matrix is the
    /// best-so-far relaxation, still usable for rounding.
    pub cancel: Option<Arc<AtomicBool>>,
}

impl Default for SolverOptions {
    fn default() -> Self {
        SolverOptions {
            max_iterations: 6000,
            tolerance: 1e-10,
            rank: 0,
            penalty: 12.0,
            damping: 0.03,
            seed: 0xC0FFEE,
            cancel: None,
        }
    }
}

/// The result of solving the relaxation.
#[derive(Debug, Clone)]
pub struct SdpSolution {
    gram: GramMatrix,
    objective: f64,
    iterations: usize,
    converged: bool,
}

impl SdpSolution {
    /// The Gram matrix `X = [v_i · v_j]` of the optimised unit vectors.
    pub fn gram(&self) -> &GramMatrix {
        &self.gram
    }

    /// The relaxation objective value at the returned solution.
    pub fn objective(&self) -> f64 {
        self.objective
    }

    /// Number of coordinate-descent sweeps performed.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Whether the objective improvement dropped below the tolerance before
    /// the iteration limit.
    pub fn converged(&self) -> bool {
        self.converged
    }
}

/// Solves the paper's relaxation (formulations (2) and (3)) of the
/// K-patterning instance over `vertex_count` vertices with the given
/// conflict and stitch edges:
///
/// ```text
/// min   Σ_{(i,j) ∈ CE} v_i · v_j  −  α · Σ_{(i,j) ∈ SE} v_i · v_j
/// s.t.  ‖v_i‖ = 1,                     v_i · v_j ≥ −1/(K−1)  ∀ (i,j) ∈ CE
/// ```
///
/// Conflict edges push incident vectors apart (towards the simplex angle);
/// stitch edges pull them together (a stitch is only paid when the two
/// sub-shapes end up on different masks).
///
/// The solve is a Burer–Monteiro style low-rank factorisation.  Each vertex
/// carries a unit vector `v_i ∈ R^r`.  A sweep visits every vertex and
/// takes a projected-gradient step of the penalised objective
/// (re-normalising onto the unit sphere); the pairwise inequality
/// constraints enter through a reweighted penalty whose weight grows with
/// the current violation, so the step size — and with it any oscillation —
/// shrinks as the iterate approaches the constrained optimum.  The procedure
/// is deterministic for a fixed seed and converges to near-optimal inner
/// products on the small, sparse instances that graph division produces.
///
/// # Panics
///
/// Panics unless `k ≥ 2`, `alpha ≥ 0` and every edge joins two distinct
/// vertices below `vertex_count`.
///
/// # Example
///
/// ```
/// use mpl_sdp::{solve_low_rank, SolverOptions};
///
/// let solution = solve_low_rank(2, 4, 0.1, &[], &[(0, 1)], &SolverOptions::default());
/// // Stitch-only pairs align: the relaxation keeps them on the same mask.
/// assert!(solution.gram().value(0, 1) > 0.9);
/// ```
pub fn solve_low_rank(
    vertex_count: usize,
    k: usize,
    alpha: f64,
    conflict_edges: &[(usize, usize)],
    stitch_edges: &[(usize, usize)],
    options: &SolverOptions,
) -> SdpSolution {
    check_instance(vertex_count, k, alpha, conflict_edges, stitch_edges);
    let n = vertex_count;
    if n == 0 {
        return SdpSolution {
            gram: GramMatrix::zeros(0),
            objective: 0.0,
            iterations: 0,
            converged: true,
        };
    }
    let rank = if options.rank == 0 {
        (k + 3).min(n.max(2))
    } else {
        options.rank
    };
    let ideal = crate::vectors::ideal_inner_product(k);
    let damping = options.damping.clamp(1e-3, 1.0);
    let mut rng = SmallRng::seed_from_u64(options.seed);

    // Initialise with random unit vectors.
    let mut vectors: Vec<Vec<f64>> = (0..n)
        .map(|_| {
            let mut v: Vec<f64> = (0..rank).map(|_| rng.gen_range(-1.0..1.0)).collect();
            normalize(&mut v);
            v
        })
        .collect();

    let mut incident: Vec<Vec<(usize, bool)>> = vec![Vec::new(); n];
    for &(u, v) in conflict_edges {
        incident[u].push((v, true));
        incident[v].push((u, true));
    }
    for &(u, v) in stitch_edges {
        incident[u].push((v, false));
        incident[v].push((u, false));
    }

    let mut previous_objective = f64::INFINITY;
    let mut iterations = 0;
    let mut converged = false;

    for sweep in 0..options.max_iterations {
        if options
            .cancel
            .as_ref()
            .is_some_and(|flag| flag.load(Ordering::Relaxed))
        {
            break;
        }
        iterations = sweep + 1;
        let mut max_movement: f64 = 0.0;
        for i in 0..n {
            if incident[i].is_empty() {
                continue;
            }
            // Weighted combination of the neighbours: positive weights push
            // v_i away from v_j (conflict), negative weights pull it closer
            // (stitch, or a conflict pair that has over-shot the constraint
            // boundary and must be pushed back up).
            let mut combination = vec![0.0; rank];
            for &(j, is_conflict) in &incident[i] {
                let weight = if is_conflict {
                    let x = dot(&vectors[i], &vectors[j]);
                    let violation = (ideal - x).max(0.0);
                    (1.0 - 2.0 * options.penalty * violation).max(-4.0)
                } else {
                    -alpha
                };
                for (c, vj) in combination.iter_mut().zip(&vectors[j]) {
                    *c += weight * vj;
                }
            }
            let norm = dot(&combination, &combination).sqrt();
            if norm > 1e-12 {
                // Projected-gradient step: the gradient of the penalised
                // objective with respect to v_i is `combination`; step
                // against it and re-normalise.  High-degree vertices get a
                // proportionally smaller step to keep the sweep stable.
                let step = damping / (1.0 + 0.25 * incident[i].len() as f64);
                let mut updated: Vec<f64> = vectors[i]
                    .iter()
                    .zip(&combination)
                    .map(|(vi, c)| vi - step * c)
                    .collect();
                normalize(&mut updated);
                let movement: f64 = updated
                    .iter()
                    .zip(&vectors[i])
                    .map(|(a, b)| (a - b) * (a - b))
                    .sum();
                max_movement = max_movement.max(movement);
                vectors[i] = updated;
            }
        }

        // Converge when both the vectors and the (unpenalised) objective
        // have stopped moving; checking the objective alone can terminate
        // early while a weakly-coupled vertex (e.g. one held only by a
        // stitch edge) is still drifting towards its partner.
        let objective = raw_objective(alpha, conflict_edges, stitch_edges, &vectors);
        if (previous_objective - objective).abs() < options.tolerance
            && max_movement < options.tolerance.max(1e-12) * 1e3
        {
            converged = true;
            previous_objective = objective;
            break;
        }
        previous_objective = objective;
    }

    // A cancel before the first sweep completes leaves the objective
    // unevaluated; report the iterate's true value rather than infinity.
    let objective = if previous_objective.is_finite() {
        previous_objective
    } else {
        raw_objective(alpha, conflict_edges, stitch_edges, &vectors)
    };
    SdpSolution {
        gram: GramMatrix::from_rows(&vectors),
        objective,
        iterations,
        converged,
    }
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

/// The relaxation objective `Σ_CE v_u · v_v − α Σ_SE v_u · v_v`.
fn raw_objective(
    alpha: f64,
    conflict_edges: &[(usize, usize)],
    stitch_edges: &[(usize, usize)],
    vectors: &[Vec<f64>],
) -> f64 {
    let conflict: f64 = conflict_edges
        .iter()
        .map(|&(u, v)| dot(&vectors[u], &vectors[v]))
        .sum();
    let stitch: f64 = stitch_edges
        .iter()
        .map(|&(u, v)| dot(&vectors[u], &vectors[v]))
        .sum();
    conflict - alpha * stitch
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

fn normalize(v: &mut [f64]) {
    let norm = dot(v, v).sqrt();
    if norm > 1e-12 {
        for x in v {
            *x /= norm;
        }
    } else if let Some(first) = v.first_mut() {
        *first = 1.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Solves with α = 0.1 and default options.
    fn solve(
        n: usize,
        k: usize,
        conflicts: &[(usize, usize)],
        stitches: &[(usize, usize)],
    ) -> SdpSolution {
        solve_low_rank(n, k, 0.1, conflicts, stitches, &SolverOptions::default())
    }

    /// Every edge of the clique over `0..n`.
    fn clique(n: usize) -> Vec<(usize, usize)> {
        (0..n)
            .flat_map(|i| ((i + 1)..n).map(move |j| (i, j)))
            .collect()
    }

    #[test]
    fn empty_problem_solves_trivially() {
        let solution = solve(0, 4, &[], &[]);
        assert_eq!(solution.gram().dimension(), 0);
        assert_eq!(solution.objective(), 0.0);
        assert!(solution.converged());
    }

    #[test]
    fn isolated_vertices_keep_unit_norm() {
        let solution = solve(3, 4, &[], &[]);
        for i in 0..3 {
            assert!((solution.gram().value(i, i) - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn single_conflict_edge_approaches_the_simplex_angle() {
        let solution = solve(2, 4, &[(0, 1)], &[]);
        let x = solution.gram().value(0, 1);
        // The constrained optimum is -1/3; the penalty equilibrium sits a
        // little below it.
        assert!((x + 1.0 / 3.0).abs() < 0.12, "x01 = {x}");
    }

    #[test]
    fn single_stitch_edge_aligns_vectors() {
        let solution = solve(2, 4, &[], &[(0, 1)]);
        assert!(solution.gram().value(0, 1) > 0.99);
    }

    #[test]
    fn triangle_spreads_to_pairwise_ideal() {
        let solution = solve(3, 4, &[(0, 1), (1, 2), (0, 2)], &[]);
        for (i, j) in [(0, 1), (1, 2), (0, 2)] {
            let x = solution.gram().value(i, j);
            assert!((x + 1.0 / 3.0).abs() < 0.12, "x{i}{j} = {x}");
        }
        // Objective should approach the constrained optimum 3 · (-1/3) = -1.
        assert!(
            solution.objective() < -0.85,
            "objective {}",
            solution.objective()
        );
    }

    #[test]
    fn k4_clique_respects_constraints_and_bound() {
        let solution = solve(4, 4, &clique(4), &[]);
        let ideal = -1.0 / 3.0;
        for i in 0..4 {
            for j in (i + 1)..4 {
                let x = solution.gram().value(i, j);
                assert!(
                    x >= ideal - 0.12,
                    "constraint violated badly: x{i}{j} = {x}"
                );
            }
        }
        // All six pairs near -1/3 is feasible for K4 (the four simplex
        // vectors themselves), so the objective approaches -2.
        assert!(
            solution.objective() < -1.7,
            "objective {}",
            solution.objective()
        );
    }

    #[test]
    fn k5_clique_stays_above_the_naive_bound() {
        // Five unit vectors cannot be pairwise at inner product -1/3 (the
        // Gram matrix would not be PSD); the true SDP optimum is -2.5
        // (vertices of a 4-simplex at -1/4), well above the naive bound of
        // -10/3.
        let solution = solve(5, 4, &clique(5), &[]);
        assert!(
            solution.objective() > -3.0,
            "objective {}",
            solution.objective()
        );
        assert!(
            solution.objective() < -2.2,
            "objective {}",
            solution.objective()
        );
    }

    #[test]
    fn conflict_chain_with_stitch_balances_terms() {
        // 0 -CE- 1 -SE- 2: vertex 1 and 2 want to align, 0 and 1 want the
        // simplex angle; both are achievable simultaneously.
        let solution = solve(3, 4, &[(0, 1)], &[(1, 2)]);
        let gram = solution.gram();
        assert!(gram.value(0, 1) < -0.2);
        assert!(gram.value(1, 2) > 0.9);
        // The reported objective is `Σ_CE x_ij − α Σ_SE x_ij` of the
        // returned Gram matrix.
        let expected = gram.value(0, 1) - 0.1 * gram.value(1, 2);
        assert!((solution.objective() - expected).abs() < 1e-9);
    }

    #[test]
    fn pentuple_patterning_approaches_minus_one_quarter() {
        let solution = solve(2, 5, &[(0, 1)], &[]);
        assert!((solution.gram().value(0, 1) + 0.25).abs() < 0.12);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let conflicts = [(0, 1), (2, 3)];
        let stitches = [(1, 2)];
        let a = solve(4, 4, &conflicts, &stitches);
        let b = solve(4, 4, &conflicts, &stitches);
        assert_eq!(a.gram(), b.gram());
        let c = solve_low_rank(
            4,
            4,
            0.1,
            &conflicts,
            &stitches,
            &SolverOptions {
                seed: 7,
                ..SolverOptions::default()
            },
        );
        // A different seed may land on a different (equally good) optimum,
        // but the objective should agree closely.
        assert!((a.objective() - c.objective()).abs() < 0.1);
    }

    /// Solves the path 0–1–2 of conflicts with the stop flag `cancel`.
    fn solve_path(cancel: Option<Arc<AtomicBool>>) -> SdpSolution {
        let options = SolverOptions {
            cancel,
            ..SolverOptions::default()
        };
        solve_low_rank(3, 4, 0.1, &[(0, 1), (1, 2)], &[], &options)
    }

    #[test]
    fn pre_set_cancel_flag_stops_before_the_first_sweep() {
        let solution = solve_path(Some(Arc::new(AtomicBool::new(true))));
        assert_eq!(solution.iterations(), 0);
        assert!(!solution.converged());
        // The iterate is still a full unit-vector embedding with a finite
        // objective — usable for rounding.
        assert_eq!(solution.gram().dimension(), 3);
        assert!(solution.objective().is_finite());
        for i in 0..3 {
            assert!((solution.gram().value(i, i) - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn unfired_cancel_flag_changes_nothing() {
        let plain = solve_path(None);
        let probed = solve_path(Some(Arc::new(AtomicBool::new(false))));
        assert_eq!(plain.gram(), probed.gram());
        assert_eq!(plain.iterations(), probed.iterations());
    }

    #[test]
    fn iteration_limit_is_respected() {
        let solution = solve_low_rank(
            3,
            4,
            0.1,
            &[(0, 1), (1, 2)],
            &[],
            &SolverOptions {
                max_iterations: 2,
                ..SolverOptions::default()
            },
        );
        assert!(solution.iterations() <= 2);
    }

    #[test]
    fn two_disjoint_pairs_with_stitch_bridge() {
        // (0, 1) and (2, 3) conflict; 1 and 2 are joined by a stitch edge.
        // The relaxation should keep 1 and 2 closely aligned while pushing
        // their conflict partners away.
        let solution = solve(4, 4, &[(0, 1), (2, 3)], &[(1, 2)]);
        assert!(solution.gram().value(1, 2) > 0.8);
        assert!(solution.gram().value(0, 1) < -0.2);
        assert!(solution.gram().value(2, 3) < -0.2);
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
    #[should_panic(expected = "at least two masks")]
    fn k_one_panics() {
        let _ = solve(2, 1, &[], &[]);
    }
}
