//! Verification helpers shared by the test-suite, the examples and the
//! benchmark harness.
//!
//! The paper's comparison only makes sense if every implementation of an
//! algorithm computes the *same* answer; these helpers provide the reference
//! solutions and the tolerance-aware comparisons used to check that the
//! synchronous, asynchronous, threaded and simulated runs all agree.

use crate::chemical::{ChemicalProblem, ChemicalSolution};
use crate::sparse_linear::SparseLinearProblem;
use aiac_core::config::RunConfig;
use aiac_core::runtime::sequential::SequentialRuntime;
use aiac_linalg::norms::nan_max;

/// Maximum relative component-wise difference between two vectors,
/// `max_i |a_i − b_i| / max(|b_i|, floor)`; NaN if any component is NaN.
pub fn max_relative_difference(a: &[f64], b: &[f64], floor: f64) -> f64 {
    assert_eq!(a.len(), b.len(), "vectors must have the same length");
    a.iter().zip(b).fold(0.0f64, |acc, (x, y)| {
        nan_max(acc, (x - y).abs() / nan_max(y.abs(), floor))
    })
}

/// True when two solutions agree within the relative tolerance.
pub fn solutions_agree(a: &[f64], b: &[f64], tol: f64) -> bool {
    max_relative_difference(a, b, 1.0) <= tol
}

/// Solves a sparse linear problem with the sequential reference runtime and
/// returns the solution vector.
pub fn sparse_linear_reference(problem: &SparseLinearProblem, epsilon: f64) -> Vec<f64> {
    let report = SequentialRuntime::new().run(problem, &RunConfig::synchronous(epsilon));
    assert!(
        report.converged,
        "the sequential reference failed to converge (residual {})",
        report.final_residual
    );
    report.solution
}

/// Integrates a chemical problem sequentially (whatever its block count) and
/// returns the full solution, used as ground truth by tests and benches.
pub fn chemical_reference(problem: &ChemicalProblem, epsilon: f64) -> ChemicalSolution {
    let cfg = RunConfig::synchronous(epsilon);
    let solution = problem.solve_with(|kernel, _| SequentialRuntime::new().run(kernel, &cfg));
    assert!(
        solution.all_converged,
        "the sequential chemical reference failed to converge"
    );
    solution
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chemical::ChemicalParams;
    use crate::sparse_linear::SparseLinearParams;

    #[test]
    fn relative_difference_is_zero_for_identical_vectors() {
        let v = vec![1.0, -2.0, 3.0];
        assert_eq!(max_relative_difference(&v, &v, 1.0), 0.0);
        assert!(solutions_agree(&v, &v, 1e-12));
    }

    #[test]
    fn relative_difference_scales_by_the_reference() {
        let a = vec![1.0e6 + 1.0];
        let b = vec![1.0e6];
        assert!(max_relative_difference(&a, &b, 1.0) < 2e-6);
        assert!(!solutions_agree(&[2.0], &[1.0], 0.5));
    }

    #[test]
    fn relative_difference_propagates_nan() {
        assert!(max_relative_difference(&[1.0, f64::NAN], &[1.0, 1.0], 1.0).is_nan());
        assert!(!solutions_agree(&[f64::NAN], &[1.0], 0.5));
    }

    #[test]
    #[should_panic(expected = "same length")]
    fn mismatched_lengths_are_rejected() {
        max_relative_difference(&[1.0], &[1.0, 2.0], 1.0);
    }

    #[test]
    fn sparse_reference_reproduces_the_generator_solution() {
        let problem = SparseLinearProblem::new(SparseLinearParams::paper_scaled(150, 3));
        let x = sparse_linear_reference(&problem, 1e-12);
        assert!(problem.error_of(&x) < 1e-8);
    }

    #[test]
    fn chemical_reference_converges_on_a_small_grid() {
        let mut params = ChemicalParams::paper_scaled(8, 8, 1);
        params.t_end = 180.0;
        let problem = ChemicalProblem::new(params);
        let solution = chemical_reference(&problem, 1e-9);
        assert_eq!(solution.step_reports.len(), 1);
        assert!(solution.final_state.iter().all(|v| v.is_finite()));
    }
}
