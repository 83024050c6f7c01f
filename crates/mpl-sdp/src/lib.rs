//! Semidefinite-programming substrate for multiple-patterning color
//! assignment.
//!
//! The paper relaxes K-patterning color assignment into the vector program
//!
//! ```text
//! min   Σ_{(i,j) ∈ CE} v_i · v_j  −  α · Σ_{(i,j) ∈ SE} v_i · v_j
//! s.t.  v_i · v_i  =  1                        ∀ i
//!       v_i · v_j  ≥ −1/(K−1)                  ∀ (i,j) ∈ CE
//! ```
//!
//! whose solution Gram matrix `X = [v_i · v_j]` is then rounded (greedily or
//! with the merge-and-backtrack procedure) into a discrete K-coloring.  The
//! paper solves this with the CSDP interior-point library; this crate
//! provides a from-scratch replacement based on a low-rank (Burer–Monteiro
//! style) block-coordinate descent with an iteratively reweighted penalty for
//! the pairwise inequality constraints.  The downstream consumers only read
//! the entries of `X`, so matching CSDP's algorithm is unnecessary — what
//! matters is converging to (near-)optimal inner products, which this method
//! does reliably for the small, graph-structured instances produced by graph
//! division.
//!
//! The crate owns no instance type: [`solve_low_rank`], its one entry point,
//! reads the vertex count, K, α and borrowed conflict and stitch edge lists
//! — in the decomposition pipeline those of `mpl_core::ComponentProblem` —
//! and [`SolverOptions::cancel`] carries an optional stop flag.
//!
//! # Example
//!
//! ```
//! use mpl_sdp::{solve_low_rank, SolverOptions};
//!
//! // A triangle of conflicts under quadruple patterning: the relaxation
//! // spreads the three vectors so that every pairwise inner product
//! // approaches -1/3.
//! let conflicts = [(0, 1), (1, 2), (0, 2)];
//! let solution = solve_low_rank(3, 4, 0.1, &conflicts, &[], &SolverOptions::default());
//! assert!(solution.gram().value(0, 1) < -0.2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod gram;
pub mod linalg;
mod solver;
pub mod vectors;

pub use gram::GramMatrix;
pub use linalg::{is_positive_semidefinite, jacobi_eigenvalues, min_eigenvalue};
pub use solver::{solve_low_rank, SdpSolution, SolverOptions};
