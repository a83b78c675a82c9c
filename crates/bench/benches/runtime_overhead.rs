//! Criterion micro-benchmark: per-iteration overhead of the runtime layers
//! (block state updates, convergence detection, dependency graph
//! construction) independently of any numerical kernel cost.

use aiac_core::block::BlockState;
use aiac_core::convergence::{GlobalDetector, LocalConvergence};
use aiac_core::depgraph::DependencyGraph;
use aiac_core::kernel::{BlockUpdate, DependencyView, IterativeKernel};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

/// A trivial kernel with a configurable all-to-all dependency pattern, so the
/// benchmark isolates the bookkeeping cost of the runtime structures.
struct NoopKernel {
    blocks: usize,
    len: usize,
}

impl IterativeKernel for NoopKernel {
    fn num_blocks(&self) -> usize {
        self.blocks
    }
    fn block_len(&self, _b: usize) -> usize {
        self.len
    }
    fn initial_block(&self, _b: usize) -> Vec<f64> {
        vec![1.0; self.len]
    }
    fn dependencies(&self, b: usize) -> Vec<usize> {
        (0..self.blocks).filter(|&o| o != b).collect()
    }
    fn update_block(&self, _b: usize, local: &[f64], _o: &DependencyView) -> BlockUpdate {
        BlockUpdate {
            values: local.to_vec(),
            residual: 0.0,
        }
    }
}

fn bench_runtime_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("runtime_overhead");
    group.sample_size(30);

    for &blocks in &[8usize, 32] {
        let kernel = NoopKernel { blocks, len: 256 };
        group.bench_with_input(
            BenchmarkId::new("dependency_graph", blocks),
            &blocks,
            |b, _| b.iter(|| black_box(DependencyGraph::from_kernel(&kernel))),
        );
        group.bench_with_input(
            BenchmarkId::new("block_iterate_and_incorporate", blocks),
            &blocks,
            |b, _| {
                let graph = DependencyGraph::from_kernel(&kernel);
                let mut state = BlockState::initial_states(&kernel, &graph).swap_remove(0);
                let payload = vec![1.0; 256];
                b.iter(|| {
                    state.incorporate(1, state.iteration, payload.clone());
                    black_box(state.iterate(&kernel))
                });
            },
        );
    }

    group.bench_function("convergence_detector_1000_reports", |b| {
        b.iter(|| {
            let mut det = GlobalDetector::new(64);
            let mut lc = LocalConvergence::new(1e-6, 3);
            for i in 0..1000u64 {
                let r = if i % 7 == 0 { 1e-3 } else { 1e-9 };
                if lc.observe(r) {
                    det.report((i % 64) as usize, lc.is_converged());
                }
            }
            black_box(det.converged_blocks())
        });
    });

    group.finish();
}

criterion_group!(benches, bench_runtime_overhead);
criterion_main!(benches);
