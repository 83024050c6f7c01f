//! Integer-programming substrate for multiple-patterning layout
//! decomposition.
//!
//! The paper's optimal baseline formulates color assignment as an integer
//! linear program and solves it with GUROBI.  This crate replaces that
//! dependency with two from-scratch components:
//!
//! * [`BinaryProgram`] — a small, general 0-1 linear program model with a
//!   depth-first branch-and-bound solver.  It exists so the ILP formulation
//!   of the paper (extended from the triple-patterning ILP of Yu et al.,
//!   ICCAD 2011) can be written down and solved exactly on small instances,
//!   and it powers several cross-checking tests.
//! * [`solve_exact`] — a branch-and-bound solver specialised for
//!   conflict/stitch-minimising K-coloring.  It produces the same optima as
//!   the ILP on every instance (they model the same discrete problem) but
//!   scales to the component sizes that graph division leaves behind, and
//!   honours a time limit the same way the paper's one-hour GUROBI limit
//!   does.
//!
//! The solver owns no instance type: it reads the vertex count, K, α and
//! borrowed conflict and stitch edge lists — in the decomposition pipeline
//! those of `mpl_core::ComponentProblem`.  [`evaluate_coloring`] is the one
//! count of `conflicts + α · stitches` that the solver, the pipeline's
//! per-component statistics and its layout-level cost all use.
//!
//! # Example
//!
//! ```
//! use mpl_ilp::{evaluate_coloring, solve_exact, ExactOptions};
//!
//! // A K5 cannot be 4-colored: the optimum has exactly one conflict.
//! let conflicts: Vec<(usize, usize)> = (0..5)
//!     .flat_map(|i| ((i + 1)..5).map(move |j| (i, j)))
//!     .collect();
//! let solution = solve_exact(5, 4, 0.1, &conflicts, &[], &ExactOptions::default());
//! assert_eq!(solution.conflicts, 1);
//! assert!(solution.proven_optimal);
//! assert_eq!(
//!     evaluate_coloring(5, 4, 0.1, &conflicts, &[], &solution.colors),
//!     (1, 0, 1.0)
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod coloring;
mod program;

pub use coloring::{evaluate_coloring, solve_exact, CancelProbe, ExactOptions, ExactSolution};
pub use program::{BinaryProgram, Comparison, ProgramSolution, SolveStatus};
