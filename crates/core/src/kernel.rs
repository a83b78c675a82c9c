//! The [`IterativeKernel`] trait — how a problem is presented to the runtime.
//!
//! Following the block formulation of Section 1 of the paper, a problem is a
//! fixed-point iteration `X_{k+1} = G(X_k)` whose unknown vector is split into
//! `m` block-components, one per processor. The runtime only needs to know:
//!
//! * how many blocks there are and how long each one is;
//! * which other blocks each block depends on (the dependency graph);
//! * how to update one block given the current local values and whatever
//!   versions of the dependency blocks happen to be available — this is the
//!   `G_i` of Algorithm 1, and the fact that the "whatever versions" may be
//!   stale is precisely what makes the iteration asynchronous;
//! * (for the simulated runtime only) how expensive one local update is and
//!   how many bytes a data message carries.
//!
//! Both benchmark problems of the paper implement this trait in
//! `aiac-solvers`, and the test-suite adds several synthetic kernels.

use crate::depgraph::DependencyGraph;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// A block iterate as it travels through the data plane.
///
/// Payloads are immutable and reference-counted: publishing one on a
/// dependency edge, storing it in a [`DependencyView`] or handing it to a
/// consumer clones the `Arc` (a refcount bump), never the `f64` data. The
/// only places a payload's numbers are ever copied are the one-time
/// conversion of the final block values into the assembled solution and the
/// compatibility fallback of [`IterativeKernel::update_block_into`] — both
/// tracked by the `payload_clones` / `bytes_copied` counters of
/// [`crate::report::RunReport`].
pub type Payload = Arc<[f64]>;

/// Every block's initial values `X_i^0`, one shared [`Payload`] per block,
/// indexed by block id. A run builds these once and hands clones (refcount
/// bumps) to the block itself and to every dependant's [`DependencyView`],
/// so set-up allocates `m` payloads, not one per view slot.
pub fn initial_payloads(kernel: &dyn IterativeKernel) -> Vec<Payload> {
    (0..kernel.num_blocks())
        .map(|b| kernel.initial_block(b).into())
        .collect()
}

/// The most recent block values a processor has received from the blocks it
/// depends on, plus its own block.
///
/// The view is *sparse*: it holds one slot for the block itself and one for
/// each in-neighbour declared through [`IterativeKernel::dependencies`],
/// sorted by block id, so a view costs O(degree) regardless of the block
/// count. Lookups still take a global block id; with the small degrees of
/// block decompositions a linear scan of the slot ids beats any index.
/// Every slot starts with that block's initial values ("only the first
/// iteration begins at the same time on all the processors") and carries the
/// iteration tag of the version it holds (`None` while it is still the
/// initial one).
///
/// A block that was not declared has no slot: [`DependencyView::get`]
/// returns `None` for it. The slots hold shared [`Payload`]s: replacing one
/// drops a reference, it does not copy or free the data other processors
/// may still be reading.
#[derive(Debug, Clone)]
pub struct DependencyView {
    num_blocks: usize,
    /// Sorted ids of the block itself and its in-neighbours.
    ids: Vec<usize>,
    /// `slots[k]` holds the latest version of block `ids[k]`.
    slots: Vec<Slot>,
}

/// One block's latest version in a [`DependencyView`].
#[derive(Debug, Clone)]
struct Slot {
    payload: Payload,
    /// Sender iteration the payload was produced at (`None` = initial).
    tag: Option<u64>,
}

impl DependencyView {
    /// Creates the view of block `block` over the in-neighbours `graph`
    /// records for it, each slot pre-filled from `initial` (one shared
    /// payload per block, indexed by block id; storing it is a refcount
    /// bump).
    ///
    /// # Panics
    /// Panics if `initial` does not hold one payload per block of `graph`.
    pub fn new(graph: &DependencyGraph, block: usize, initial: &[Payload]) -> Self {
        assert_eq!(
            initial.len(),
            graph.num_blocks(),
            "DependencyView::new: one initial payload per block"
        );
        let deps = graph.in_neighbours(block);
        let mut ids = Vec::with_capacity(deps.len() + 1);
        let split = deps.partition_point(|&d| d < block);
        ids.extend_from_slice(&deps[..split]);
        ids.push(block);
        ids.extend_from_slice(&deps[split..]);
        let slots = ids
            .iter()
            .map(|&id| Slot {
                payload: Arc::clone(&initial[id]),
                tag: None,
            })
            .collect();
        Self {
            num_blocks: graph.num_blocks(),
            ids,
            slots,
        }
    }

    /// Number of blocks of the problem (not the number of slots).
    pub fn num_blocks(&self) -> usize {
        self.num_blocks
    }

    /// Number of slots: the block itself plus its in-neighbours.
    pub fn num_slots(&self) -> usize {
        self.ids.len()
    }

    fn slot(&self, id: usize) -> Option<&Slot> {
        self.ids
            .iter()
            .position(|&d| d == id)
            .map(|k| &self.slots[k])
    }

    fn slot_mut(&mut self, id: usize) -> &mut Slot {
        match self.ids.iter().position(|&d| d == id) {
            Some(k) => &mut self.slots[k],
            None => panic!("block {id} is not a declared dependency of this view"),
        }
    }

    /// Stores the latest values of block `id`, leaving its iteration tag
    /// unchanged. Accepts an existing [`Payload`] (stored by reference, zero
    /// copy) or a `Vec<f64>` (converted into a fresh payload).
    ///
    /// # Panics
    /// Panics if `id` has no slot in the view.
    pub fn set(&mut self, id: usize, values: impl Into<Payload>) {
        self.slot_mut(id).payload = values.into();
    }

    /// Stores version `iteration` of block `id` unless the slot already
    /// holds a newer one (the newest received values overwrite previous
    /// ones). Returns whether the version was stored.
    ///
    /// # Panics
    /// Panics if `id` has no slot in the view.
    pub(crate) fn store_newest(
        &mut self,
        id: usize,
        iteration: u64,
        values: impl Into<Payload>,
    ) -> bool {
        let slot = self.slot_mut(id);
        if slot.tag.is_some_and(|prev| iteration < prev) {
            return false;
        }
        slot.payload = values.into();
        slot.tag = Some(iteration);
        true
    }

    /// Iteration tag of the stored version of block `id`: `None` while it
    /// is still the initial values, or when the view has no slot for it.
    pub(crate) fn received_iteration(&self, id: usize) -> Option<u64> {
        self.slot(id).and_then(|s| s.tag)
    }

    /// The latest values of block `id`, or `None` when `id` is neither the
    /// block itself nor one of its declared dependencies.
    pub fn get(&self, id: usize) -> Option<&[f64]> {
        self.slot(id).map(|s| &*s.payload)
    }

    /// The latest values of block `id`.
    ///
    /// # Panics
    /// Panics if the view has no slot for that block; kernels may only read
    /// blocks they declared as dependencies (plus their own).
    pub fn expect(&self, id: usize) -> &[f64] {
        self.get(id)
            .unwrap_or_else(|| panic!("no data available for block {id}"))
    }

    /// True when the view holds a version of block `id`.
    pub fn has(&self, id: usize) -> bool {
        self.slot(id).is_some()
    }
}

/// The result of one local block update.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BlockUpdate {
    /// The new values of the block.
    pub values: Vec<f64>,
    /// The local residual `||X_i^t − X_i^{t−1}||_∞` used by the convergence
    /// detection (Section 1.2).
    pub residual: f64,
}

/// The result of one *in-place* local block update
/// (see [`IterativeKernel::update_block_into`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InPlaceUpdate {
    /// The local residual `||X_i^t − X_i^{t−1}||_∞`.
    pub residual: f64,
    /// True when the kernel fell back to the allocating
    /// [`IterativeKernel::update_block`] path and the new values were deep
    /// copied into the output buffer; false when the kernel wrote them
    /// directly. The runtimes surface this through the `payload_clones`
    /// counter so the zero-copy property is observable (and gateable).
    pub copied: bool,
}

/// A block-decomposed fixed-point problem.
pub trait IterativeKernel: Send + Sync {
    /// Number of block-components `m` (one per processor).
    fn num_blocks(&self) -> usize;

    /// Length (number of scalar unknowns) of block `block`.
    fn block_len(&self, block: usize) -> usize;

    /// Initial values `X_i^0` of block `block`.
    fn initial_block(&self, block: usize) -> Vec<f64>;

    /// The blocks whose data block `block` needs to compute its update
    /// (in-neighbours of `block` in the dependency graph, excluding itself).
    ///
    /// This is a contract: the [`DependencyView`] handed to
    /// [`IterativeKernel::update_block`] holds exactly these blocks plus
    /// `block` itself, and returns `None` for any other block.
    fn dependencies(&self, block: usize) -> Vec<usize>;

    /// Computes `G_i` for block `block`: one local iteration from the current
    /// local values and the latest available dependency data.
    fn update_block(&self, block: usize, local: &[f64], others: &DependencyView) -> BlockUpdate;

    /// Computes `G_i` for block `block` directly into `out` (which the
    /// runtimes hand over as the back buffer of the double-buffered block
    /// state), returning the residual.
    ///
    /// The default implementation calls [`IterativeKernel::update_block`] and
    /// copies the resulting vector — correct for every kernel, but it is a
    /// deep copy on the hot path and is reported as such via
    /// [`InPlaceUpdate::copied`]. Kernels on the benchmark path override this
    /// to write `out` directly (and should keep `update_block` delegating to
    /// it so both entry points stay bit-identical).
    ///
    /// # Panics
    /// Panics if `out.len() != block_len(block)` (the runtimes always size
    /// the buffer correctly).
    fn update_block_into(
        &self,
        block: usize,
        local: &[f64],
        others: &DependencyView,
        out: &mut [f64],
    ) -> InPlaceUpdate {
        let update = self.update_block(block, local, others);
        assert_eq!(
            out.len(),
            update.values.len(),
            "update_block_into: output buffer length mismatch"
        );
        out.copy_from_slice(&update.values);
        InPlaceUpdate {
            residual: update.residual,
            copied: true,
        }
    }

    /// Estimated cost of one local update of `block`, in seconds on the
    /// reference machine. Only the *relative* magnitudes matter; the simulated
    /// runtime multiplies this by the host speed factor. The default assumes
    /// one microsecond per unknown.
    fn iteration_cost(&self, block: usize) -> f64 {
        self.block_len(block) as f64 * 1e-6
    }

    /// Payload size, in bytes, of a data message from block `from` to block
    /// `to`. The default sends the whole block as f64 values, which is what
    /// the paper's implementations do for the values the destination depends
    /// on.
    fn message_bytes(&self, from: usize, to: usize) -> u64 {
        let _ = to;
        (self.block_len(from) * std::mem::size_of::<f64>()) as u64
    }

    /// Distance between two versions of a block, in the same units as the
    /// residual returned by [`IterativeKernel::update_block`].
    ///
    /// The default is the max norm of the difference; kernels whose residual
    /// is scaled (e.g. the chemical problem, which weights its two species by
    /// their 10⁶ / 10¹² magnitudes) must override it consistently, because
    /// the asynchronous runtimes compare this distance against the same ε as
    /// the residual when tracking local convergence.
    fn residual_between(&self, block: usize, a: &[f64], b: &[f64]) -> f64 {
        let _ = block;
        aiac_linalg::norms::max_norm_diff(a, b)
    }

    /// Number of synchronisation points (global collective exchanges) one
    /// iteration of the *synchronous* version of the algorithm requires.
    ///
    /// Most fixed-point kernels need exactly one (the end-of-iteration
    /// exchange plus convergence test). The paper's synchronous baseline for
    /// the non-linear problem, however, applies Newton to the *entire*
    /// system and synchronises inside the parallel linear solver at every
    /// inner iteration; kernels can override this to let the simulated SISC
    /// runtime charge those extra collectives.
    fn sync_collectives_per_iteration(&self) -> usize {
        1
    }

    /// Total problem size (sum of the block lengths).
    fn total_len(&self) -> usize {
        (0..self.num_blocks()).map(|b| self.block_len(b)).sum()
    }

    /// Assembles a full solution vector from per-block values, in block order.
    fn assemble(&self, blocks: &[Vec<f64>]) -> Vec<f64> {
        assert_eq!(
            blocks.len(),
            self.num_blocks(),
            "assemble: block count mismatch"
        );
        let mut out = Vec::with_capacity(self.total_len());
        for (b, values) in blocks.iter().enumerate() {
            assert_eq!(
                values.len(),
                self.block_len(b),
                "assemble: block {b} length mismatch"
            );
            out.extend_from_slice(values);
        }
        out
    }
}

#[cfg(test)]
pub(crate) mod test_kernels {
    //! Small synthetic kernels shared by the runtime tests.

    use super::*;

    /// A linear contraction `x ← a·x_left + b·x_self + c·x_right + d`
    /// distributed over `blocks` scalar blocks arranged in a ring. With
    /// `|a| + |b| + |c| < 1` it converges from any starting point, both
    /// synchronously and asynchronously.
    #[derive(Debug, Clone)]
    pub struct RingContraction {
        pub blocks: usize,
        pub a: f64,
        pub b: f64,
        pub c: f64,
        pub d: f64,
        /// Virtual cost of one local iteration on the reference machine, in
        /// seconds. Kept comparable to (or larger than) wide-area message
        /// latencies so asynchronous runs keep receiving fresh data, as in the
        /// paper's compute-bound workloads.
        pub cost_secs: f64,
        /// Artificial CPU work per real (threaded) iteration, so real-thread
        /// tests also run in a regime where communication keeps up with
        /// computation.
        pub spin: usize,
    }

    impl RingContraction {
        pub fn new(blocks: usize) -> Self {
            Self {
                blocks,
                a: 0.2,
                b: 0.3,
                c: 0.2,
                d: 1.0,
                cost_secs: 0.02,
                spin: 2000,
            }
        }

        /// The exact fixed point: every component equals d / (1 - a - b - c).
        pub fn fixed_point(&self) -> f64 {
            self.d / (1.0 - self.a - self.b - self.c)
        }
    }

    impl IterativeKernel for RingContraction {
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

        fn update_block(
            &self,
            block: usize,
            local: &[f64],
            others: &DependencyView,
        ) -> BlockUpdate {
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
            let left = (block + self.blocks - 1) % self.blocks;
            let right = (block + 1) % self.blocks;
            let xl = others.get(left).map_or(0.0, |v| v[0]);
            let xr = others.get(right).map_or(0.0, |v| v[0]);
            // Burn a controlled amount of CPU so real-thread iterations are
            // slower than channel deliveries (keeps the AIAC tests in the
            // compute-bound regime the paper studies).
            let mut noise = 0.0f64;
            for k in 0..self.spin {
                noise += (k as f64 * 1e-3).sin();
            }
            let new = self.a * xl + self.b * local[0] + self.c * xr + self.d + noise * 0.0;
            out[0] = new;
            InPlaceUpdate {
                residual: (new - local[0]).abs(),
                copied: false,
            }
        }

        fn iteration_cost(&self, _block: usize) -> f64 {
            self.cost_secs
        }
    }

    /// A deliberately non-convergent kernel (expansion by a factor 2) used to
    /// exercise the iteration limits.
    #[derive(Debug, Clone)]
    pub struct Diverging {
        pub blocks: usize,
    }

    impl IterativeKernel for Diverging {
        fn num_blocks(&self) -> usize {
            self.blocks
        }

        fn block_len(&self, _block: usize) -> usize {
            1
        }

        fn initial_block(&self, _block: usize) -> Vec<f64> {
            vec![1.0]
        }

        fn dependencies(&self, _block: usize) -> Vec<usize> {
            Vec::new()
        }

        fn update_block(
            &self,
            _block: usize,
            local: &[f64],
            _others: &DependencyView,
        ) -> BlockUpdate {
            let new = local[0] * 2.0;
            BlockUpdate {
                residual: (new - local[0]).abs(),
                values: vec![new],
            }
        }
    }

    /// The diverging coupled kernel `x_i ← 2·x_i + x_{i+1}` on a ring of
    /// scalar blocks, measured with the default max-norm residual. It
    /// overflows to `∞` within ~650 sweeps; from then on `∞ − ∞` makes every
    /// residual NaN, which a NaN-dropping norm would read as `0.0`.
    #[derive(Debug, Clone)]
    pub struct DivergingCoupled {
        pub blocks: usize,
    }

    impl IterativeKernel for DivergingCoupled {
        fn num_blocks(&self) -> usize {
            self.blocks
        }

        fn block_len(&self, _block: usize) -> usize {
            1
        }

        fn initial_block(&self, _block: usize) -> Vec<f64> {
            vec![1.0]
        }

        fn dependencies(&self, block: usize) -> Vec<usize> {
            vec![(block + 1) % self.blocks]
        }

        fn update_block(
            &self,
            block: usize,
            local: &[f64],
            others: &DependencyView,
        ) -> BlockUpdate {
            let y = others.get((block + 1) % self.blocks).map_or(0.0, |v| v[0]);
            let values = vec![2.0 * local[0] + y];
            BlockUpdate {
                residual: self.residual_between(block, &values, local),
                values,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::test_kernels::*;
    use super::*;

    fn view_of(kernel: &dyn IterativeKernel, block: usize) -> DependencyView {
        let graph = DependencyGraph::from_kernel(kernel);
        DependencyView::new(&graph, block, &initial_payloads(kernel))
    }

    #[test]
    fn view_holds_the_block_and_its_in_neighbours_only() {
        let kernel = RingContraction::new(5);
        let view = view_of(&kernel, 0);
        assert_eq!(view.num_blocks(), 5);
        assert_eq!(view.num_slots(), 3);
        for b in [0, 1, 4] {
            assert_eq!(view.expect(b), &[0.0], "block {b} starts initial");
            assert_eq!(view.received_iteration(b), None);
        }
        // Undeclared blocks are absent, not silently initial.
        assert!(!view.has(2));
        assert_eq!(view.get(2), None);
        assert_eq!(view.get(5), None);
    }

    #[test]
    fn set_replaces_the_payload_and_keeps_the_tag() {
        let kernel = RingContraction::new(5);
        let mut view = view_of(&kernel, 2);
        view.set(3, vec![1.0]);
        assert_eq!(view.expect(3), &[1.0]);
        assert_eq!(view.received_iteration(3), None);
    }

    #[test]
    fn store_newest_rejects_older_versions() {
        let kernel = RingContraction::new(5);
        let mut view = view_of(&kernel, 2);
        assert!(view.store_newest(1, 4, vec![4.0]));
        assert!(!view.store_newest(1, 3, vec![3.0]));
        assert_eq!(view.expect(1), &[4.0]);
        assert!(view.store_newest(1, 4, vec![5.0]));
        assert_eq!(view.expect(1), &[5.0]);
        assert_eq!(view.received_iteration(1), Some(4));
    }

    #[test]
    #[should_panic(expected = "no data available")]
    fn expect_panics_on_an_undeclared_block() {
        view_of(&RingContraction::new(5), 0).expect(2);
    }

    #[test]
    #[should_panic(expected = "not a declared dependency")]
    fn set_panics_on_an_undeclared_block() {
        view_of(&RingContraction::new(5), 0).set(2, vec![1.0]);
    }

    #[test]
    fn ring_contraction_dependencies_are_neighbours() {
        let kernel = RingContraction::new(5);
        assert_eq!(kernel.dependencies(0), vec![4, 1]);
        assert_eq!(kernel.dependencies(2), vec![1, 3]);
        let two = RingContraction::new(2);
        assert_eq!(two.dependencies(0), vec![1]);
    }

    #[test]
    fn ring_contraction_converges_sequentially_to_fixed_point() {
        let kernel = RingContraction::new(4);
        let graph = DependencyGraph::from_kernel(&kernel);
        let mut views: Vec<DependencyView> = (0..4).map(|b| view_of(&kernel, b)).collect();
        let mut blocks: Vec<Vec<f64>> = (0..4).map(|b| kernel.initial_block(b)).collect();
        for _ in 0..200 {
            for b in 0..4 {
                let update = kernel.update_block(b, &blocks[b], &views[b]);
                for &dst in graph.out_neighbours(b) {
                    views[dst].set(b, update.values.clone());
                }
                blocks[b] = update.values;
            }
        }
        let expected = kernel.fixed_point();
        for block in &blocks {
            assert!((block[0] - expected).abs() < 1e-10);
        }
    }

    #[test]
    fn default_cost_and_message_size_scale_with_block_length() {
        let kernel = RingContraction::new(3);
        assert_eq!(kernel.block_len(0), 1);
        assert_eq!(kernel.message_bytes(0, 1), 8);
        assert!(kernel.iteration_cost(0) > 0.0);
        assert_eq!(kernel.total_len(), 3);
    }

    #[test]
    fn assemble_concatenates_blocks_in_order() {
        let kernel = RingContraction::new(3);
        let full = kernel.assemble(&[vec![1.0], vec![2.0], vec![3.0]]);
        assert_eq!(full, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn diverging_kernel_grows_without_bound() {
        let kernel = Diverging { blocks: 1 };
        let view = view_of(&kernel, 0);
        let mut x = kernel.initial_block(0);
        for _ in 0..10 {
            x = kernel.update_block(0, &x, &view).values;
        }
        assert!(x[0] > 1000.0);
    }
}
