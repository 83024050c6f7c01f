//! Dense symmetric eigen-decomposition (cyclic Jacobi) and PSD checks.
//!
//! The interior-point SDP solver the paper uses (CSDP) maintains positive
//! semidefiniteness explicitly.  The low-rank solver in this crate produces
//! a Gram matrix that is PSD by construction; the routines here make that
//! property *checkable* — they are used by the test-suite to validate
//! solutions and are available to downstream users who want to audit a
//! relaxation result.

use crate::GramMatrix;

/// Computes all eigenvalues of a symmetric matrix with the cyclic Jacobi
/// method.
///
/// The matrix is copied into dense form; the method is `O(n³)` per sweep and
/// converges quadratically, which is more than sufficient for the component
/// sizes this workspace produces (tens of vertices).
pub fn jacobi_eigenvalues(matrix: &GramMatrix) -> Vec<f64> {
    let n = matrix.dimension();
    if n == 0 {
        return Vec::new();
    }
    // Dense working copy.
    let mut a: Vec<Vec<f64>> = (0..n)
        .map(|i| (0..n).map(|j| matrix.value(i, j)).collect())
        .collect();

    let off_diagonal_norm = |a: &Vec<Vec<f64>>| -> f64 {
        let mut sum = 0.0;
        for (i, row) in a.iter().enumerate() {
            for (j, &value) in row.iter().enumerate() {
                if i != j {
                    sum += value * value;
                }
            }
        }
        sum.sqrt()
    };

    let mut sweeps = 0;
    while off_diagonal_norm(&a) > 1e-12 && sweeps < 100 {
        sweeps += 1;
        for p in 0..n {
            for q in (p + 1)..n {
                if a[p][q].abs() < 1e-15 {
                    continue;
                }
                // Jacobi rotation annihilating a[p][q].
                let theta = (a[q][q] - a[p][p]) / (2.0 * a[p][q]);
                let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                let c = 1.0 / (t * t + 1.0).sqrt();
                let s = t * c;
                for row in a.iter_mut() {
                    let akp = row[p];
                    let akq = row[q];
                    row[p] = c * akp - s * akq;
                    row[q] = s * akp + c * akq;
                }
                // The column update touches two different rows, so indexed
                // access is the clearest formulation here.
                #[allow(clippy::needless_range_loop)]
                for k in 0..n {
                    let apk = a[p][k];
                    let aqk = a[q][k];
                    a[p][k] = c * apk - s * aqk;
                    a[q][k] = s * apk + c * aqk;
                }
            }
        }
    }
    (0..n).map(|i| a[i][i]).collect()
}

/// The smallest eigenvalue of a symmetric matrix (`0.0` for an empty
/// matrix).
pub fn min_eigenvalue(matrix: &GramMatrix) -> f64 {
    if matrix.dimension() == 0 {
        return 0.0;
    }
    jacobi_eigenvalues(matrix)
        .into_iter()
        .fold(f64::INFINITY, f64::min)
}

/// Returns `true` when the matrix is positive semidefinite up to the given
/// tolerance (every eigenvalue ≥ `-tolerance`).
pub fn is_positive_semidefinite(matrix: &GramMatrix, tolerance: f64) -> bool {
    jacobi_eigenvalues(matrix)
        .into_iter()
        .all(|eigenvalue| eigenvalue >= -tolerance)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_has_unit_eigenvalues() {
        let id = GramMatrix::identity(4);
        let mut eigenvalues = jacobi_eigenvalues(&id);
        eigenvalues.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        for value in eigenvalues {
            assert!((value - 1.0).abs() < 1e-9);
        }
        assert!(is_positive_semidefinite(&id, 1e-9));
    }

    #[test]
    fn known_two_by_two_spectrum() {
        // [[2, 1], [1, 2]] has eigenvalues 1 and 3.
        let mut m = GramMatrix::identity(2);
        m.set(0, 0, 2.0);
        m.set(1, 1, 2.0);
        m.set(0, 1, 1.0);
        let mut eigenvalues = jacobi_eigenvalues(&m);
        eigenvalues.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        assert!((eigenvalues[0] - 1.0).abs() < 1e-9);
        assert!((eigenvalues[1] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn indefinite_matrix_is_detected() {
        // [[0, 1], [1, 0]] has eigenvalues -1 and 1.
        let mut m = GramMatrix::zeros(2);
        m.set(0, 1, 1.0);
        assert!(!is_positive_semidefinite(&m, 1e-9));
        assert!((min_eigenvalue(&m) + 1.0).abs() < 1e-9);
    }

    #[test]
    fn gram_matrices_of_real_vectors_are_psd() {
        let rows = vec![
            vec![0.3, -0.7, 0.2],
            vec![1.0, 0.0, 0.0],
            vec![-0.5, 0.5, 0.5],
            vec![0.1, 0.9, -0.4],
        ];
        let gram = GramMatrix::from_rows(&rows);
        assert!(is_positive_semidefinite(&gram, 1e-9));
    }

    #[test]
    fn simplex_gram_matrix_is_psd_and_rank_deficient() {
        // The K = 4 simplex vectors span only 3 dimensions, so their Gram
        // matrix has one (near-)zero eigenvalue and three equal positive
        // ones.
        let vectors = crate::vectors::simplex_vectors(4);
        let gram = GramMatrix::from_rows(&vectors);
        let mut eigenvalues = jacobi_eigenvalues(&gram);
        eigenvalues.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        assert!(eigenvalues[0].abs() < 1e-9);
        for value in &eigenvalues[1..] {
            assert!((value - 4.0 / 3.0).abs() < 1e-9);
        }
        assert!(is_positive_semidefinite(&gram, 1e-9));
    }

    #[test]
    fn solver_output_is_positive_semidefinite() {
        use crate::{solve_low_rank, SolverOptions};
        let k5: Vec<(usize, usize)> = (0..5)
            .flat_map(|i| ((i + 1)..5).map(move |j| (i, j)))
            .collect();
        let solution = solve_low_rank(5, 4, 0.1, &k5, &[], &SolverOptions::default());
        assert!(is_positive_semidefinite(solution.gram(), 1e-6));
    }

    #[test]
    fn empty_matrix_is_trivially_psd() {
        let empty = GramMatrix::zeros(0);
        assert!(jacobi_eigenvalues(&empty).is_empty());
        assert!(is_positive_semidefinite(&empty, 1e-9));
        assert_eq!(min_eigenvalue(&empty), 0.0);
    }
}
