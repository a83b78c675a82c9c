//! Jobs: what tenants submit, what the service returns, and how a job is
//! actually solved.
//!
//! A [`JobSpec`] names a tenant, a problem from the [`ServiceProblem`]
//! catalogue and a tolerance; the service answers with a [`JobResult`].
//! Admission failures are *values*, not panics: every bound in the service
//! rejects with a typed [`AdmissionError`] so callers can apply
//! backpressure (and so the `xtask analyze` R7 lint has something to
//! enforce).

use aiac_core::cancel::CancelToken;
use aiac_core::config::RunConfig;
use aiac_core::kernel::{BlockUpdate, DependencyView, InPlaceUpdate, IterativeKernel};
use aiac_core::runtime::SequentialRuntime;
use aiac_solvers::sparse_linear::{SparseLinearParams, SparseLinearProblem};
use serde::{Deserialize, Serialize};

/// Identifies a tenant (a stream of jobs sharing one queue and one
/// fairness lane).
pub type TenantId = u32;

/// Identifies one submitted job, unique within a service instance.
pub type JobId = u64;

/// The catalogue of problems the service knows how to solve.
///
/// Variants are *structural* descriptions — two specs with equal variants
/// build bit-identical kernels, which is what makes the result cache's
/// structural hashing sound.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ServiceProblem {
    /// A ring of scalar contractions with a known fixed point — the cheap
    /// synthetic workload of the load tests.
    Ring {
        /// Number of blocks (one scalar unknown each).
        blocks: usize,
    },
    /// The paper's banded sparse linear system at a service-sized `n`.
    SparseLinear {
        /// Matrix dimension.
        n: usize,
        /// Number of blocks.
        blocks: usize,
    },
}

impl ServiceProblem {
    /// Builds the kernel this problem describes.
    pub fn build(&self) -> Box<dyn IterativeKernel> {
        match *self {
            ServiceProblem::Ring { blocks } => Box::new(ServiceRing::new(blocks)),
            ServiceProblem::SparseLinear { n, blocks } => Box::new(SparseLinearProblem::new(
                SparseLinearParams::paper_scaled(n, blocks),
            )),
        }
    }

    /// Checks the preconditions the problem constructors assert, so a
    /// malformed spec is refused at admission instead of panicking on a
    /// worker.
    ///
    /// # Errors
    /// A description of the first violated precondition.
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            ServiceProblem::Ring { blocks: 0 } | ServiceProblem::SparseLinear { blocks: 0, .. } => {
                Err("the problem needs at least one block".to_string())
            }
            ServiceProblem::SparseLinear { n, blocks } if n < blocks => Err(format!(
                "{n} rows cannot fill {blocks} blocks (need at least one row per block)"
            )),
            ServiceProblem::SparseLinear { n, .. } if n < 2 => {
                Err(format!("the sparse system needs at least 2 rows, got {n}"))
            }
            _ => Ok(()),
        }
    }

    /// The structural fields the cache key hashes: a variant tag plus the
    /// size parameters. Equal fields ⇒ identical kernels.
    pub fn structural_fields(&self) -> [u64; 3] {
        match *self {
            ServiceProblem::Ring { blocks } => [1, blocks as u64, 0],
            ServiceProblem::SparseLinear { n, blocks } => [2, n as u64, blocks as u64],
        }
    }

    /// Short label for rendering.
    pub fn label(&self) -> &'static str {
        match self {
            ServiceProblem::Ring { .. } => "ring",
            ServiceProblem::SparseLinear { .. } => "sparse-linear",
        }
    }
}

/// One solve request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobSpec {
    /// The submitting tenant.
    pub tenant: TenantId,
    /// What to solve.
    pub problem: ServiceProblem,
    /// Residual threshold ε the solve runs to.
    pub epsilon: f64,
    /// Sweep budget (the job completes unconverged when exhausted).
    pub max_sweeps: usize,
}

impl JobSpec {
    /// Checks that the job can be solved: its problem's constructor
    /// preconditions hold and its tolerance and sweep budget form a valid
    /// run configuration.
    ///
    /// # Errors
    /// [`AdmissionError::InvalidSpec`] naming the first violation.
    pub fn validate(&self) -> Result<(), AdmissionError> {
        let config = RunConfig::synchronous(self.epsilon).with_max_iterations(self.max_sweeps);
        self.problem
            .validate()
            .and_then(|()| config.try_validate().map_err(|err| err.to_string()))
            .map_err(|reason| AdmissionError::InvalidSpec { reason })
    }
}

/// One finished (or cancelled) solve, delivered to the submitting side.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobResult {
    /// The job this result answers.
    pub job: JobId,
    /// The tenant that submitted it.
    pub tenant: TenantId,
    /// Whether the solve reached its tolerance.
    pub converged: bool,
    /// Whether the job was cancelled before or during the solve.
    pub cancelled: bool,
    /// Whether the answer came from the result cache.
    pub from_cache: bool,
    /// Sweeps the solve ran (0 for cache hits and pre-solve cancellations).
    pub sweeps: u64,
    /// Final residual of the solve.
    pub final_residual: f64,
    /// Submission-to-completion latency, in (virtual or wall) seconds.
    pub latency_secs: f64,
    /// The assembled solution vector (empty for cancellations).
    pub solution: Vec<f64>,
}

/// Why the service refused a job at the door. Every variant is expected
/// under load — callers retry, shed, or slow down; the service never OOMs
/// and never panics on a full queue.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum AdmissionError {
    /// The tenant's own queue is at its configured depth.
    TenantQueueFull {
        /// The tenant whose queue is full.
        tenant: TenantId,
        /// The configured per-tenant depth.
        depth: usize,
    },
    /// The global admitted-but-unfinished bound is reached.
    InFlightLimit {
        /// The configured global bound.
        limit: usize,
    },
    /// The service is shutting down and accepts no new work.
    Closed,
    /// The job cannot be solved as specified (see [`JobSpec::validate`]).
    /// Unlike the other variants this is not backpressure: retrying the
    /// same spec fails again.
    InvalidSpec {
        /// Which precondition the spec breaks.
        reason: String,
    },
}

impl std::fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmissionError::TenantQueueFull { tenant, depth } => {
                write!(f, "tenant {tenant}'s queue is full ({depth} jobs deep)")
            }
            AdmissionError::InFlightLimit { limit } => {
                write!(f, "service is at its in-flight limit of {limit} jobs")
            }
            AdmissionError::Closed => f.write_str("service is shut down"),
            AdmissionError::InvalidSpec { reason } => write!(f, "invalid job: {reason}"),
        }
    }
}

impl std::error::Error for AdmissionError {}

/// What one actual solve produced — the unit the cache stores and both
/// execution modes (virtual and real) share.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveOutcome {
    /// Whether the solve reached its tolerance.
    pub converged: bool,
    /// Whether a cancel token stopped it early.
    pub cancelled: bool,
    /// Sweeps run.
    pub sweeps: u64,
    /// Final residual.
    pub final_residual: f64,
    /// The assembled solution.
    pub solution: Vec<f64>,
    /// Deterministic virtual duration of the solve: sweeps × the summed
    /// per-block iteration cost — the same cost model the simulated runtime
    /// charges.
    pub virtual_cost_secs: f64,
}

/// Solves a job on the sequential reference runtime, polling `cancel`
/// between sweeps. This is the execution kernel both the virtual-clock
/// simulation and the real worker pool call.
pub fn solve(spec: &JobSpec, cancel: Option<&CancelToken>) -> SolveOutcome {
    let kernel = spec.problem.build();
    let config = RunConfig::synchronous(spec.epsilon).with_max_iterations(spec.max_sweeps);
    let report = SequentialRuntime::new().run_with_cancel(kernel.as_ref(), &config, cancel);
    let sweeps = report.iterations.first().copied().unwrap_or(0);
    let per_sweep: f64 = (0..kernel.num_blocks())
        .map(|b| kernel.iteration_cost(b))
        .sum();
    SolveOutcome {
        converged: report.converged,
        cancelled: report.premature_stop,
        sweeps,
        final_residual: report.final_residual,
        solution: report.solution,
        virtual_cost_secs: sweeps as f64 * per_sweep,
    }
}

/// The load tests' synthetic workload: a ring of scalar blocks where block
/// `i` contracts towards a combination of its two neighbours. The spectral
/// radius is `A + B + C = 0.75 < 1`, so every component converges to the
/// known fixed point `D / (1 − A − B − C)`.
#[derive(Debug, Clone, Copy)]
pub struct ServiceRing {
    /// Number of scalar blocks.
    pub blocks: usize,
}

impl ServiceRing {
    const A: f64 = 0.25;
    const B: f64 = 0.35;
    const C: f64 = 0.15;
    const D: f64 = 1.0;

    /// Creates a ring of `blocks` scalar blocks.
    pub fn new(blocks: usize) -> Self {
        assert!(blocks > 0, "the ring needs at least one block");
        Self { blocks }
    }

    /// The exact fixed point every component converges to.
    pub fn fixed_point(&self) -> f64 {
        Self::D / (1.0 - Self::A - Self::B - Self::C)
    }
}

impl IterativeKernel for ServiceRing {
    fn num_blocks(&self) -> usize {
        self.blocks
    }

    fn block_len(&self, _block: usize) -> usize {
        1
    }

    fn initial_block(&self, _block: usize) -> Vec<f64> {
        vec![0.0]
    }

    fn dependencies(&self, block: usize) -> Vec<usize> {
        if self.blocks == 1 {
            return Vec::new();
        }
        let left = (block + self.blocks - 1) % self.blocks;
        let right = (block + 1) % self.blocks;
        if left == right {
            vec![left]
        } else {
            vec![left, right]
        }
    }

    fn update_block(&self, block: usize, local: &[f64], others: &DependencyView) -> BlockUpdate {
        let mut values = vec![0.0];
        let update = self.update_block_into(block, local, others, &mut values);
        BlockUpdate {
            values,
            residual: update.residual,
        }
    }

    fn update_block_into(
        &self,
        block: usize,
        local: &[f64],
        others: &DependencyView,
        out: &mut [f64],
    ) -> InPlaceUpdate {
        let left = (block + self.blocks - 1) % self.blocks;
        let right = (block + 1) % self.blocks;
        let xl = others.get(left).map_or(0.0, |v| v[0]);
        let xr = others.get(right).map_or(0.0, |v| v[0]);
        let new = Self::A * xl + Self::B * local[0] + Self::C * xr + Self::D;
        out[0] = new;
        InPlaceUpdate {
            residual: (new - local[0]).abs(),
            copied: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring_spec() -> JobSpec {
        JobSpec {
            tenant: 0,
            problem: ServiceProblem::Ring { blocks: 6 },
            epsilon: 1e-8,
            max_sweeps: 10_000,
        }
    }

    #[test]
    fn ring_jobs_solve_to_the_known_fixed_point() {
        let outcome = solve(&ring_spec(), None);
        assert!(outcome.converged);
        assert!(!outcome.cancelled);
        assert!(outcome.sweeps > 0);
        let fp = ServiceRing::new(6).fixed_point();
        assert!((fp - 4.0).abs() < 1e-12);
        for v in &outcome.solution {
            assert!((v - fp).abs() < 1e-6, "{v} vs {fp}");
        }
        assert!(outcome.virtual_cost_secs > 0.0);
    }

    #[test]
    fn sparse_jobs_route_through_the_paper_solver() {
        let spec = JobSpec {
            tenant: 1,
            problem: ServiceProblem::SparseLinear { n: 96, blocks: 3 },
            epsilon: 1e-6,
            max_sweeps: 10_000,
        };
        let outcome = solve(&spec, None);
        assert!(outcome.converged);
        assert_eq!(outcome.solution.len(), 96);
    }

    #[test]
    fn a_raised_token_cancels_the_solve() {
        let token = CancelToken::new();
        token.cancel();
        let outcome = solve(&ring_spec(), Some(&token));
        assert!(outcome.cancelled);
        assert!(!outcome.converged);
        assert_eq!(outcome.sweeps, 0);
    }

    #[test]
    fn sweep_budget_bounds_the_solve() {
        let spec = JobSpec {
            max_sweeps: 3,
            ..ring_spec()
        };
        let outcome = solve(&spec, None);
        assert!(!outcome.converged);
        assert_eq!(outcome.sweeps, 3);
    }

    #[test]
    fn structural_fields_separate_the_variants() {
        let a = ServiceProblem::Ring { blocks: 8 }.structural_fields();
        let b = ServiceProblem::SparseLinear { n: 8, blocks: 8 }.structural_fields();
        assert_ne!(a, b);
    }

    #[test]
    fn admission_errors_render_their_bounds() {
        let e = AdmissionError::TenantQueueFull {
            tenant: 7,
            depth: 64,
        };
        assert!(e.to_string().contains("tenant 7"));
        assert!(AdmissionError::InFlightLimit { limit: 4096 }
            .to_string()
            .contains("4096"));
    }

    #[test]
    fn malformed_specs_are_invalid() {
        let bad = [
            ServiceProblem::SparseLinear { n: 2, blocks: 5 },
            ServiceProblem::SparseLinear { n: 8, blocks: 0 },
            ServiceProblem::SparseLinear { n: 1, blocks: 1 },
            ServiceProblem::Ring { blocks: 0 },
        ];
        for problem in bad {
            let spec = JobSpec {
                problem,
                ..ring_spec()
            };
            let err = spec.validate().unwrap_err();
            assert!(
                matches!(err, AdmissionError::InvalidSpec { .. }),
                "{problem:?}"
            );
        }
        let zero_budget = JobSpec {
            max_sweeps: 0,
            ..ring_spec()
        };
        assert!(zero_budget.validate().is_err());
        let bad_epsilon = JobSpec {
            epsilon: f64::NAN,
            ..ring_spec()
        };
        assert!(bad_epsilon
            .validate()
            .unwrap_err()
            .to_string()
            .starts_with("invalid job"));
        assert_eq!(ring_spec().validate(), Ok(()));
    }

    #[test]
    fn every_valid_small_spec_builds() {
        for blocks in 0..6 {
            for n in 0..8 {
                let problems = [
                    ServiceProblem::Ring { blocks },
                    ServiceProblem::SparseLinear { n, blocks },
                ];
                for problem in problems {
                    if problem.validate().is_ok() {
                        assert_eq!(problem.build().num_blocks(), blocks, "{problem:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn specs_and_results_round_trip_through_json() {
        let spec = ring_spec();
        let text = serde_json::to_string(&spec).unwrap();
        let back: JobSpec = serde_json::from_str(&text).unwrap();
        assert_eq!(back, spec);
    }
}
