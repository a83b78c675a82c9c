//! The sparse linear benchmark problem (Section 4.1 of the paper).
//!
//! The problem is `A·x = b` with `A` a large sparse matrix whose non-zeros
//! sit on 30 sub-diagonals, solved by the **fixed-step gradient descent**
//!
//! ```text
//! x_{k+1} = x_k + γ · M⁻¹ · (b − A·x_k)
//! ```
//!
//! where `M` is the block-diagonal part of `A` induced by the processor
//! decomposition and γ ≈ 1 (γ = 1 is the block-Jacobi method). The matrix and
//! vectors are decomposed vertically and distributed over the processors;
//! each processor first computes its data-dependency list from the sparsity
//! pattern and then iterates on its own block, asynchronously exchanging the
//! values other processors need (Section 4.3).
//!
//! [`SparseLinearProblem`] implements [`IterativeKernel`], so the same object
//! runs on the sequential, threaded and simulated runtimes.

use aiac_core::kernel::{BlockUpdate, DependencyView, InPlaceUpdate, IterativeKernel};
use aiac_linalg::banded::{BandedSpec, ScatteredDiagonalsSpec};
use aiac_linalg::csr::CsrMatrix;
use aiac_linalg::decomp::Partition;
use aiac_linalg::jacobi::BlockJacobi;
use aiac_linalg::norms::{max_norm_diff, nan_max};
use serde::{Deserialize, Serialize};

/// Shape of the generated test matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MatrixShape {
    /// A contiguous band of sub-diagonals (neighbour-only dependencies).
    ContiguousBand,
    /// Sub-diagonals scattered over the whole dimension (all-to-all
    /// dependencies — the communication scheme described in Section 5.1).
    ScatteredDiagonals,
}

/// Parameters of the sparse linear benchmark.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SparseLinearParams {
    /// Matrix dimension (the paper uses 2 000 000).
    pub n: usize,
    /// Number of sub-diagonals (the paper uses 30).
    pub sub_diagonals: usize,
    /// Shape of the sparsity pattern.
    pub shape: MatrixShape,
    /// Bound on the Jacobi contraction factor (spectral radius < 1 required
    /// for asynchronous convergence).
    pub contraction: f64,
    /// Fixed step γ of the gradient descent (1.0 = block Jacobi).
    pub gamma: f64,
    /// Number of blocks / processors.
    pub blocks: usize,
    /// Seed of the matrix generator.
    pub seed: u64,
    /// Reference-machine throughput, in floating-point operations per second,
    /// used to convert per-iteration flop counts into virtual compute time
    /// for the simulated runtime (2004-era sparse-kernel throughput).
    pub reference_flops: f64,
    /// Scale factor applied to both the virtual compute cost and the message
    /// sizes reported to the simulated runtime.
    ///
    /// The paper's matrix has two million unknowns; running the numerics at a
    /// smaller dimension `n` keeps the *convergence behaviour* (iteration
    /// counts are governed by the contraction factor, not by the size) while
    /// the simulator should still see the full-size per-iteration compute
    /// time and data volumes. `paper_scaled` therefore sets this factor to
    /// `2 000 000 / n`, so the simulated execution models the paper-scale run
    /// even though the arithmetic is done at the reduced size. Set it to 1.0
    /// to simulate the reduced size literally.
    pub cost_scale: f64,
}

impl SparseLinearParams {
    /// A scaled-down version of the paper's configuration (Table 1): the
    /// sparsity pattern and contraction match the paper, the dimension is a
    /// parameter because two million unknowns do not fit a unit-test budget.
    pub fn paper_scaled(n: usize, blocks: usize) -> Self {
        Self {
            n,
            sub_diagonals: 30,
            shape: MatrixShape::ScatteredDiagonals,
            contraction: 0.9,
            gamma: 1.0,
            blocks,
            seed: 42,
            reference_flops: 1.5e8,
            cost_scale: 2_000_000.0 / n as f64,
        }
    }

    /// The full-size configuration of Table 1 (2 000 000 unknowns). Only used
    /// when the benchmark harness is explicitly asked to run at paper scale.
    pub fn paper_full(blocks: usize) -> Self {
        Self::paper_scaled(2_000_000, blocks)
    }
}

/// The sparse linear problem, ready to be executed by any runtime.
pub struct SparseLinearProblem {
    params: SparseLinearParams,
    a: CsrMatrix,
    b: Vec<f64>,
    x_exact: Vec<f64>,
    partition: Partition,
    /// Rows owned by each block (global column indices preserved).
    row_blocks: Vec<CsrMatrix>,
    /// Block-diagonal preconditioner `M⁻¹`.
    jacobi: BlockJacobi,
    /// Block dependency graph (which blocks own columns referenced by mine).
    dependencies: Vec<Vec<usize>>,
    /// `needed[from][to]` = number of values of block `from` that block `to`
    /// actually references (payload of a data message).
    needed: Vec<Vec<usize>>,
    /// Estimated flops of one local iteration per block.
    iteration_flops: Vec<f64>,
}

impl SparseLinearProblem {
    /// Generates the matrix, right-hand side and decomposition for the given
    /// parameters.
    ///
    /// # Panics
    /// Panics if a diagonal block is singular (cannot happen with the
    /// provided generators, which are strictly diagonally dominant).
    pub fn new(params: SparseLinearParams) -> Self {
        assert!(params.blocks > 0, "need at least one block");
        assert!(params.n >= params.blocks, "need at least one row per block");
        assert!(params.gamma > 0.0, "gamma must be positive");
        assert!(params.cost_scale > 0.0, "cost_scale must be positive");
        let (a, x_exact, b) = match params.shape {
            MatrixShape::ContiguousBand => {
                let spec = BandedSpec {
                    n: params.n,
                    bandwidth: params.sub_diagonals,
                    contraction: params.contraction,
                    seed: params.seed,
                };
                let a = spec.generate();
                let (x, b) = spec.generate_rhs(&a);
                (a, x, b)
            }
            MatrixShape::ScatteredDiagonals => {
                let spec = ScatteredDiagonalsSpec {
                    n: params.n,
                    num_diagonals: params.sub_diagonals,
                    contraction: params.contraction,
                    seed: params.seed,
                };
                let a = spec.generate();
                let (x, b) = spec.generate_rhs(&a);
                (a, x, b)
            }
        };
        let partition = Partition::balanced(params.n, params.blocks);
        let jacobi = BlockJacobi::new(&a, &partition)
            .expect("diagonally dominant matrices have invertible diagonal blocks");
        let row_blocks: Vec<CsrMatrix> = partition.iter().map(|(_, r)| a.row_block(r)).collect();
        let dependencies = a.block_dependencies(&partition);

        // Count, for every ordered pair (from, to), how many of `from`'s
        // values `to` references — the payload of a data message.
        let mut needed = vec![vec![0usize; params.blocks]; params.blocks];
        for (to, range) in partition.iter() {
            for col in a.external_dependencies(range) {
                let from = partition.owner(col);
                needed[from][to] += 1;
            }
        }

        let iteration_flops: Vec<f64> = row_blocks
            .iter()
            .enumerate()
            .map(|(b, blk)| {
                // SpMV on the local rows + residual + preconditioner solve.
                let spmv = 2.0 * blk.nnz() as f64;
                let jacobi_cost = {
                    let len = partition.size(b) as f64;
                    // forward/backward substitution over the block's LU
                    // factors, which have no fill-in here: the charged cost
                    // is the one `LuFactors::solve_into` executes
                    let block_nnz = a.diagonal_block(partition.range(b)).nnz() as f64;
                    2.0 * block_nnz + 4.0 * len
                };
                spmv + jacobi_cost
            })
            .collect();

        Self {
            params,
            a,
            b,
            x_exact,
            partition,
            row_blocks,
            jacobi,
            dependencies,
            needed,
            iteration_flops,
        }
    }

    /// The parameters the problem was generated from.
    pub fn params(&self) -> &SparseLinearParams {
        &self.params
    }

    /// The generated matrix.
    pub fn matrix(&self) -> &CsrMatrix {
        &self.a
    }

    /// The right-hand side.
    pub fn rhs(&self) -> &[f64] {
        &self.b
    }

    /// The exact solution the right-hand side was generated from.
    pub fn exact_solution(&self) -> &[f64] {
        &self.x_exact
    }

    /// The row partition across blocks.
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// Max-norm error of a candidate solution against the exact one.
    pub fn error_of(&self, x: &[f64]) -> f64 {
        max_norm_diff(x, &self.x_exact)
    }

    /// Max-norm of the linear residual `b − A·x` of a candidate solution;
    /// NaN if any component is NaN.
    pub fn linear_residual(&self, x: &[f64]) -> f64 {
        max_norm_diff(&self.b, &self.a.spmv_alloc(x))
    }

    /// Builds the full-length vector of unknowns a block needs for its local
    /// matrix-vector product: its own values plus the latest available values
    /// of its dependencies (zero elsewhere — those columns never appear in
    /// the local rows).
    fn assemble_global(&self, block: usize, local: &[f64], others: &DependencyView) -> Vec<f64> {
        let mut x = vec![0.0; self.params.n];
        let own = self.partition.range(block);
        x[own].copy_from_slice(local);
        for &dep in &self.dependencies[block] {
            if let Some(values) = others.get(dep) {
                let range = self.partition.range(dep);
                x[range].copy_from_slice(values);
            }
        }
        x
    }
}

impl IterativeKernel for SparseLinearProblem {
    fn num_blocks(&self) -> usize {
        self.params.blocks
    }

    fn block_len(&self, block: usize) -> usize {
        self.partition.size(block)
    }

    fn initial_block(&self, block: usize) -> Vec<f64> {
        // x0 = 0 (an arbitrary starting vector, as in the paper).
        vec![0.0; self.partition.size(block)]
    }

    fn dependencies(&self, block: usize) -> Vec<usize> {
        self.dependencies[block].clone()
    }

    fn update_block(&self, block: usize, local: &[f64], others: &DependencyView) -> BlockUpdate {
        let mut values = vec![0.0; local.len()];
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
        let x = self.assemble_global(block, local, others);
        let range = self.partition.range(block);
        // local residual r = b_i − (A·x)_i restricted to the block's rows,
        // fused into one pass (same accumulation order as spmv + subtract)
        let mut r = vec![0.0; local.len()];
        self.row_blocks[block].residual(&self.b[range], &x, &mut r);
        // correction M_i⁻¹ · r, solved straight into the caller's back buffer
        self.jacobi.apply_block_into(block, &r, out);
        // new iterate x + γ · correction in place, folding the update
        // residual max into the same pass
        let mut residual = 0.0f64;
        for (oi, xi) in out.iter_mut().zip(local) {
            let new = xi + self.params.gamma * *oi;
            residual = nan_max(residual, (new - xi).abs());
            *oi = new;
        }
        InPlaceUpdate {
            residual,
            copied: false,
        }
    }

    fn iteration_cost(&self, block: usize) -> f64 {
        self.iteration_flops[block] * self.params.cost_scale / self.params.reference_flops
    }

    fn message_bytes(&self, from: usize, to: usize) -> u64 {
        // Only the values the destination actually references are sent; the
        // volume is scaled up to the paper-size equivalent (see `cost_scale`).
        ((self.needed[from][to] * std::mem::size_of::<f64>()) as f64 * self.params.cost_scale)
            as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aiac_core::config::RunConfig;
    use aiac_core::runtime::sequential::SequentialRuntime;
    use aiac_core::runtime::threaded::ThreadedRuntime;

    fn small(shape: MatrixShape) -> SparseLinearProblem {
        let mut params = SparseLinearParams::paper_scaled(240, 4);
        params.shape = shape;
        params.sub_diagonals = 8;
        params.cost_scale = 1.0;
        SparseLinearProblem::new(params)
    }

    #[test]
    fn scattered_problem_has_all_to_all_dependencies() {
        let p = small(MatrixShape::ScatteredDiagonals);
        for b in 0..4 {
            assert_eq!(p.dependencies(b).len(), 3, "block {b}");
        }
    }

    #[test]
    fn banded_problem_only_couples_neighbouring_blocks() {
        let p = small(MatrixShape::ContiguousBand);
        assert_eq!(p.dependencies(0), vec![1]);
        assert_eq!(p.dependencies(1), vec![0, 2]);
        assert_eq!(p.dependencies(3), vec![2]);
    }

    #[test]
    fn message_bytes_match_dependency_counts() {
        let p = small(MatrixShape::ContiguousBand);
        // neighbouring blocks exchange up to `sub_diagonals` boundary values
        let bytes = p.message_bytes(0, 1);
        assert!(bytes > 0 && bytes <= 8 * 8);
        // non-dependent blocks would exchange nothing
        assert_eq!(p.message_bytes(0, 3), 0);
    }

    #[test]
    fn sequential_run_recovers_the_exact_solution() {
        let p = small(MatrixShape::ScatteredDiagonals);
        let report = SequentialRuntime::new().run(&p, &RunConfig::synchronous(1e-12));
        assert!(report.converged);
        assert!(
            p.error_of(&report.solution) < 1e-8,
            "error {}",
            p.error_of(&report.solution)
        );
        assert!(p.linear_residual(&report.solution) < 1e-6);
    }

    #[test]
    fn gamma_one_is_block_jacobi_and_converges() {
        let mut params = SparseLinearParams::paper_scaled(120, 3);
        params.gamma = 1.0;
        let p = SparseLinearProblem::new(params);
        let report = SequentialRuntime::new().run(&p, &RunConfig::synchronous(1e-11));
        assert!(report.converged);
        assert!(p.error_of(&report.solution) < 1e-7);
    }

    #[test]
    fn under_relaxed_gamma_still_converges_but_more_slowly() {
        let mut slow_params = SparseLinearParams::paper_scaled(120, 3);
        slow_params.gamma = 0.6;
        let slow = SparseLinearProblem::new(slow_params);
        let fast = SparseLinearProblem::new(SparseLinearParams::paper_scaled(120, 3));
        let cfg = RunConfig::synchronous(1e-10);
        let slow_report = SequentialRuntime::new().run(&slow, &cfg);
        let fast_report = SequentialRuntime::new().run(&fast, &cfg);
        assert!(slow_report.converged && fast_report.converged);
        assert!(slow_report.iterations[0] > fast_report.iterations[0]);
    }

    #[test]
    fn threaded_async_run_matches_exact_solution() {
        let p = small(MatrixShape::ScatteredDiagonals);
        let config = RunConfig::asynchronous(1e-11).with_streak(5);
        let report = ThreadedRuntime::new().run(&p, &config);
        assert!(report.converged);
        assert!(
            p.error_of(&report.solution) < 1e-6,
            "error {}",
            p.error_of(&report.solution)
        );
    }

    #[test]
    fn pooled_sync_runs_are_bit_identical_to_the_sequential_sweep() {
        // The double-buffered block state and the fused in-place update must
        // not perturb a single bit of the synchronous iteration: a pooled
        // threaded run only reorders *which worker* computes a block, never
        // the arithmetic, so every worker count must reproduce the
        // sequential sweep exactly.
        let p = small(MatrixShape::ScatteredDiagonals);
        let seq = SequentialRuntime::new().run(&p, &RunConfig::synchronous(1e-10));
        for workers in 1..=4 {
            let config = RunConfig::synchronous(1e-10).with_num_workers(workers);
            let par = ThreadedRuntime::new().run(&p, &config);
            assert_eq!(par.iterations, seq.iterations, "{workers} workers");
            assert_eq!(par.solution.len(), seq.solution.len(), "{workers} workers");
            for (i, (a, b)) in par.solution.iter().zip(&seq.solution).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "{workers} workers: component {i} diverged from sequential"
                );
            }
        }
    }

    #[test]
    fn threaded_runs_of_the_sparse_solver_never_copy_payloads() {
        // The solver overrides `update_block_into`, so the data plane should
        // be structurally zero-copy in both modes.
        let p = small(MatrixShape::ScatteredDiagonals);
        for config in [
            RunConfig::synchronous(1e-10).with_num_workers(3),
            RunConfig::asynchronous(1e-11).with_streak(5),
        ] {
            let report = ThreadedRuntime::new().run(&p, &config);
            assert!(report.converged);
            assert_eq!(report.payload_clones, 0, "mode {:?}", config.mode);
            assert_eq!(report.bytes_copied, 0, "mode {:?}", config.mode);
        }
    }

    #[test]
    fn iteration_cost_scales_with_matrix_size() {
        let mut small_params = SparseLinearParams::paper_scaled(200, 4);
        small_params.cost_scale = 1.0;
        let mut large_params = SparseLinearParams::paper_scaled(800, 4);
        large_params.cost_scale = 1.0;
        let small_p = SparseLinearProblem::new(small_params);
        let large_p = SparseLinearProblem::new(large_params);
        assert!(large_p.iteration_cost(0) > small_p.iteration_cost(0));
    }

    #[test]
    fn paper_scaled_cost_model_targets_the_full_problem_size() {
        // Two generated problems of different reduced sizes must present the
        // simulator with (approximately) the same full-scale per-iteration
        // cost and per-message volume.
        let a = SparseLinearProblem::new(SparseLinearParams::paper_scaled(1_200, 6));
        let b = SparseLinearProblem::new(SparseLinearParams::paper_scaled(2_400, 6));
        let ratio_cost = a.iteration_cost(0) / b.iteration_cost(0);
        assert!((0.5..2.0).contains(&ratio_cost), "cost ratio {ratio_cost}");
        let bytes_a: u64 = (1..6).map(|d| a.message_bytes(0, d)).sum();
        let bytes_b: u64 = (1..6).map(|d| b.message_bytes(0, d)).sum();
        let ratio_bytes = bytes_a as f64 / bytes_b as f64;
        assert!(
            (0.4..2.5).contains(&ratio_bytes),
            "byte ratio {ratio_bytes}"
        );
    }

    #[test]
    fn a_nan_dependency_value_gives_a_nan_update_residual() {
        use aiac_core::depgraph::DependencyGraph;
        use aiac_core::kernel::initial_payloads;
        let p = small(MatrixShape::ScatteredDiagonals);
        let graph = DependencyGraph::from_kernel(&p);
        let mut view = DependencyView::new(&graph, 0, &initial_payloads(&p));
        let dep = p.dependencies(0)[0];
        let mut poisoned = p.initial_block(dep);
        poisoned.fill(f64::NAN);
        view.set(dep, poisoned);
        let local = p.initial_block(0);
        let mut out = vec![0.0; local.len()];
        let update = p.update_block_into(0, &local, &view, &mut out);
        assert!(update.residual.is_nan(), "residual {}", update.residual);
        assert!(p.update_block(0, &local, &view).residual.is_nan());
        assert!(p.linear_residual(&vec![f64::NAN; 240]).is_nan());
    }

    #[test]
    fn paper_block_factors_have_no_fill_in() {
        // L + U store exactly the off-diagonal entries of each diagonal
        // block, so a block solve costs O(nnz), as `iteration_flops` charges
        for (shape, per_block) in [
            (MatrixShape::ScatteredDiagonals, 102),
            (MatrixShape::ContiguousBand, 14_070),
        ] {
            let mut params = SparseLinearParams::paper_scaled(3000, 12);
            params.shape = shape;
            let p = SparseLinearProblem::new(params);
            let jacobi = BlockJacobi::new(p.matrix(), p.partition()).unwrap();
            for (b, range) in p.partition().iter() {
                let block_nnz = p.matrix().diagonal_block(range.clone()).nnz();
                let stored = jacobi.block_factors(b).off_diagonal_nnz();
                assert_eq!(stored, block_nnz - range.len(), "{shape:?} block {b}");
                assert_eq!(stored, per_block, "{shape:?} block {b}");
            }
        }
    }

    #[test]
    fn initial_guess_is_the_zero_vector() {
        let p = small(MatrixShape::ContiguousBand);
        assert!(p.initial_block(2).iter().all(|v| *v == 0.0));
        assert_eq!(p.initial_block(0).len(), 60);
    }

    #[test]
    #[should_panic(expected = "at least one row per block")]
    fn more_blocks_than_rows_is_rejected() {
        SparseLinearProblem::new(SparseLinearParams::paper_scaled(2, 4));
    }
}
