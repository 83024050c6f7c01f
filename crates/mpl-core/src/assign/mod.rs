//! Color-assignment engines.
//!
//! Every engine consumes a [`crate::ComponentProblem`] —
//! a small color-assignment instance produced by graph division — and
//! returns one color in `0..K` per vertex.  The four engines mirror the
//! four columns of the paper's Table 1:
//!
//! * [`ExactAssigner`] — the ILP-equivalent optimal baseline (branch and
//!   bound with a time limit),
//! * [`SdpBacktrackAssigner`] — SDP relaxation, threshold merging, exact
//!   backtracking on the merged graph (Algorithm 1),
//! * [`SdpGreedyAssigner`] — SDP relaxation followed by greedy mapping,
//! * [`LinearAssigner`] — the linear-time heuristic with color-friendly
//!   rules, peer selection and post-refinement (Algorithm 2).

mod exact;
mod linear;
mod sdp;

pub use exact::{build_ilp_model, ExactAssigner};
pub use linear::LinearAssigner;
pub use sdp::{SdpBacktrackAssigner, SdpGreedyAssigner};

use crate::ComponentProblem;

/// The colors produced by one engine run plus the engine's work counters
/// (all zero for engines without an internal search).
#[derive(Debug, Clone)]
pub struct AssignOutcome {
    /// One color per vertex of the problem.
    pub colors: Vec<u8>,
    /// Branch-and-bound nodes expanded (exact engine only).
    pub bnb_nodes: u64,
    /// Whether a wall-clock budget truncated the search, making the colors
    /// an incumbent rather than a proven optimum.
    pub hit_time_limit: bool,
    /// Clique-expansion steps that strengthened the exact engine's lower
    /// bound past the vertex-disjoint clique cover (exact engine only).
    pub bound_improvements: u64,
    /// Whether an external [`CancelToken`](crate::CancelToken) stopped the
    /// engine mid-search, making the colors an incumbent rather than a
    /// proven optimum.
    pub cancelled: bool,
}

impl AssignOutcome {
    /// Wraps plain colors with zeroed counters.
    pub fn plain(colors: Vec<u8>) -> Self {
        AssignOutcome {
            colors,
            bnb_nodes: 0,
            hit_time_limit: false,
            bound_improvements: 0,
            cancelled: false,
        }
    }
}

/// A color-assignment engine.
///
/// Implementations must return exactly one color per vertex, each in
/// `0..problem.k()`.  Engines are `Sync` so one boxed instance can serve
/// every executor worker thread of a batch.
pub trait ColorAssigner: Sync {
    /// Assigns a color to every vertex of `problem`.
    fn assign(&self, problem: &ComponentProblem) -> Vec<u8>;

    /// Assigns colors and reports the engine's work counters.  The default
    /// wraps [`ColorAssigner::assign`] with zeroed counters; engines with
    /// an internal search (the exact engine) override it.
    fn assign_with_stats(&self, problem: &ComponentProblem) -> AssignOutcome {
        AssignOutcome::plain(self.assign(problem))
    }

    /// Like [`assign_with_stats`](ColorAssigner::assign_with_stats), but the
    /// engine additionally polls `cancel` on its amortised clock checks and
    /// returns the incumbent found so far (with
    /// [`cancelled`](AssignOutcome::cancelled) set) once the token stops.
    /// The default ignores the token: engines without an internal search
    /// finish in (near-)linear time anyway, so there is nothing worth
    /// interrupting.
    fn assign_with_stats_cancellable(
        &self,
        problem: &ComponentProblem,
        cancel: Option<&crate::CancelToken>,
    ) -> AssignOutcome {
        let _ = cancel;
        self.assign_with_stats(problem)
    }

    /// Human-readable engine name (used in reports).
    fn name(&self) -> &'static str;
}

/// Constructs the engine selected by a [`crate::ColorAlgorithm`].
pub fn assigner_for(
    algorithm: crate::ColorAlgorithm,
    config: &crate::DecomposerConfig,
) -> Box<dyn ColorAssigner> {
    match algorithm {
        crate::ColorAlgorithm::Ilp => Box::new(ExactAssigner::new(config.ilp_time_limit)),
        crate::ColorAlgorithm::SdpBacktrack => {
            Box::new(SdpBacktrackAssigner::new(config.sdp_merge_threshold))
        }
        crate::ColorAlgorithm::SdpGreedy => Box::new(SdpGreedyAssigner::new()),
        crate::ColorAlgorithm::Linear => Box::new(LinearAssigner::new()),
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    use crate::ComponentProblem;

    /// A K5 conflict clique: the canonical native conflict for K = 4.
    pub fn k5(k: usize) -> ComponentProblem {
        let mut p = ComponentProblem::new(5, k, 0.1);
        for i in 0..5 {
            for j in (i + 1)..5 {
                p.add_conflict(i, j);
            }
        }
        p
    }

    /// A ring of `n` conflict edges.
    pub fn cycle(n: usize, k: usize) -> ComponentProblem {
        let mut p = ComponentProblem::new(n, k, 0.1);
        for i in 0..n {
            p.add_conflict(i, (i + 1) % n);
        }
        p
    }

    /// Exhaustive optimum (for cross-checking on tiny instances).
    pub fn brute_force_cost(problem: &ComponentProblem) -> f64 {
        let n = problem.vertex_count();
        let k = problem.k();
        let mut best = f64::INFINITY;
        let mut colors = vec![0u8; n];
        loop {
            let (_, _, cost) = problem.evaluate(&colors);
            best = best.min(cost);
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
}

#[cfg(test)]
mod tests {
    use super::test_support::*;
    use super::*;
    use crate::{ColorAlgorithm, DecomposerConfig};
    use mpl_layout::Technology;

    #[test]
    fn assigner_for_builds_every_engine() {
        let config = DecomposerConfig::quadruple(Technology::nm20());
        for algorithm in ColorAlgorithm::ALL {
            let assigner = assigner_for(algorithm, &config);
            assert_eq!(assigner.name(), algorithm.name());
            let colors = assigner.assign(&cycle(5, 4));
            assert_eq!(colors.len(), 5);
            assert!(colors.iter().all(|&c| c < 4));
        }
    }

    #[test]
    fn every_engine_solves_the_k5_optimally_enough() {
        // A K5 has a forced conflict; no engine should report more than a
        // couple, and the exact/backtrack engines must find exactly one.
        let config = DecomposerConfig::quadruple(Technology::nm20());
        let problem = k5(4);
        for algorithm in ColorAlgorithm::ALL {
            let assigner = assigner_for(algorithm, &config);
            let colors = assigner.assign(&problem);
            let (conflicts, _, _) = problem.evaluate(&colors);
            assert!(
                conflicts >= 1,
                "{algorithm}: a K5 cannot be 4-colored without conflicts"
            );
            assert!(
                conflicts <= 2,
                "{algorithm}: too many conflicts ({conflicts})"
            );
        }
    }
}
