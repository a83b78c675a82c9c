//! Per-processor block state.
//!
//! [`BlockState`] bundles everything one processor tracks while iterating:
//! its own current values, its [`DependencyView`] — one slot for itself and
//! one per declared in-neighbour, each holding the freshest version received
//! so far together with the iteration tag it was produced at (the `s_j^i(t)`
//! of the asynchronous model in Section 1.2) — its iteration counter and its
//! last residual. Every runtime uses it, which keeps their iteration logic
//! symmetrical. The state is O(degree), not O(blocks): a run over `m` blocks
//! holds `m + edges` view slots in total, all pre-filled by refcount bumps
//! of the `m` shared initial payloads.
//!
//! Since the zero-copy data plane, the current values are a shared
//! [`Payload`] (`Arc<[f64]>`) and the state is *double-buffered*: the kernel
//! writes the next iterate into a private back buffer while the front buffer
//! stays readable by anyone still holding a reference (the mailbox, a
//! neighbour's dependency view). When the back buffer is uniquely owned it is
//! reused in place; otherwise a fresh allocation replaces it — either way no
//! payload bytes are copied on the native in-place path.

use crate::depgraph::DependencyGraph;
use crate::kernel::{initial_payloads, DependencyView, IterativeKernel, Payload};
use aiac_linalg::norms::max_norm_diff;
use std::sync::Arc;

/// The mutable state of one block (one simulated or real processor).
#[derive(Debug, Clone)]
pub struct BlockState {
    /// Block index.
    pub id: usize,
    /// Current local values `X_i^t` (the front buffer). Shared by reference:
    /// publishing or snapshotting this payload bumps a refcount, never copies.
    pub values: Payload,
    /// Latest received versions of the block itself and of its declared
    /// dependencies, each with its iteration tag.
    pub view: DependencyView,
    /// Number of local iterations performed.
    pub iteration: u64,
    /// Residual of the last local iteration.
    pub residual: f64,
    /// Number of data messages incorporated so far.
    pub messages_incorporated: u64,
    /// Times a kernel fell back to the copying `update_block` path
    /// (i.e. `update_block_into` reported `copied == true`).
    pub payload_clones: u64,
    /// Payload bytes copied by those fallbacks.
    pub bytes_copied: u64,
    /// Back buffer the next iterate is written into before the front/back
    /// swap. Reused in place whenever it is uniquely owned.
    back: Payload,
    /// Snapshot of the values at the start of the current local-convergence
    /// observation window (see [`BlockState::drift_from_anchor`]).
    anchor: Vec<f64>,
}

impl BlockState {
    /// Initialises the state of block `id` of `graph`. Its values and every
    /// slot of its dependency view start from the shared payloads in
    /// `initial` (one per block, see [`crate::kernel::initial_payloads`]):
    /// all processors start the first iteration from the same global state,
    /// and storing a payload is a refcount bump, not a copy.
    ///
    /// # Panics
    /// Panics if `id` is not a block of `graph` or `initial` does not hold
    /// one payload per block.
    pub fn new(graph: &DependencyGraph, initial: &[Payload], id: usize) -> Self {
        assert!(id < graph.num_blocks(), "block id out of range");
        let values = Arc::clone(&initial[id]);
        Self {
            id,
            // copy: the drift anchor is a private snapshot, taken once per block
            anchor: values.to_vec(),
            back: vec![0.0; values.len()].into(),
            values,
            view: DependencyView::new(graph, id, initial),
            iteration: 0,
            residual: f64::INFINITY,
            messages_incorporated: 0,
            payload_clones: 0,
            bytes_copied: 0,
        }
    }

    /// The initial state of every block of `graph`, in block order, sharing
    /// one initial payload per block: set-up makes `m` payload allocations
    /// and `m + edges` view slots.
    pub fn initial_states(kernel: &dyn IterativeKernel, graph: &DependencyGraph) -> Vec<Self> {
        let initial = initial_payloads(kernel);
        (0..graph.num_blocks())
            .map(|b| Self::new(graph, &initial, b))
            .collect()
    }

    /// Total change of the block values since the anchor snapshot was last
    /// reset, `||X_i^t − X_i^anchor||_∞`.
    ///
    /// The asynchronous runtimes use this *cumulative* drift — rather than
    /// the per-iteration residual — as the quantity compared against ε for
    /// local convergence: when a round of dependency updates arrives spread
    /// over many cheap iterations, each individual iteration only moves the
    /// block a little, and a per-iteration measure would under-estimate how
    /// much the block is still changing.
    pub fn drift_from_anchor(&self) -> f64 {
        max_norm_diff(&self.values, &self.anchor)
    }

    /// Resets the anchor snapshot to the current values (called whenever the
    /// drift exceeded ε, i.e. the observation window restarts).
    pub fn reset_anchor(&mut self) {
        self.anchor.copy_from_slice(&self.values);
    }

    /// The anchor snapshot itself, for kernels that measure the drift in
    /// their own (e.g. scaled) units.
    pub fn anchor(&self) -> &[f64] {
        &self.anchor
    }

    /// Incorporates a received data message from block `from`, produced at the
    /// sender's iteration `iteration`.
    ///
    /// Stale messages (older than what is already stored) are ignored, which
    /// mirrors the paper's implementations where the newest received values
    /// overwrite previous ones. Accepts either an owned `Vec<f64>` or an
    /// already-shared [`Payload`]; the latter is stored by reference.
    ///
    /// # Panics
    /// Panics if `from` is not a declared dependency of this block.
    pub fn incorporate(&mut self, from: usize, iteration: u64, values: impl Into<Payload>) -> bool {
        let stored = self.view.store_newest(from, iteration, values);
        self.messages_incorporated += u64::from(stored);
        stored
    }

    /// Runs one local iteration through the kernel and stores the result.
    /// Returns the residual of the update.
    ///
    /// The kernel writes into the back buffer, then front and back swap: the
    /// old front buffer (possibly still referenced by the mailbox or a
    /// neighbour's view) becomes the new back buffer and is only mutated once
    /// every other reference to it has been dropped.
    pub fn iterate(&mut self, kernel: &dyn IterativeKernel) -> f64 {
        let mut back = std::mem::take(&mut self.back);
        let len = self.values.len();
        let out = match Arc::get_mut(&mut back) {
            Some(slice) if slice.len() == len => slice,
            _ => {
                // Someone still reads the old back buffer (or the block size
                // changed): retire it and start a fresh allocation. This is
                // an allocation, not a payload copy.
                back = vec![0.0; len].into();
                Arc::get_mut(&mut back).expect("freshly allocated Arc is unique")
            }
        };
        let update = kernel.update_block_into(self.id, &self.values, &self.view, out);
        if update.copied {
            self.payload_clones += 1;
            self.bytes_copied += (len * std::mem::size_of::<f64>()) as u64;
        }
        self.residual = update.residual;
        self.iteration += 1;
        self.back = std::mem::replace(&mut self.values, back);
        // A processor always has the freshest version of its own block
        // (a refcount bump, not a copy).
        self.view.set(self.id, self.values.clone());
        self.residual
    }

    /// The delay (in sender iterations) of the stored version of block `from`
    /// relative to `latest`, i.e. how stale the data is. Returns `None` when
    /// nothing has been received yet (or `from` is not a dependency).
    pub fn staleness(&self, from: usize, latest: u64) -> Option<u64> {
        self.view
            .received_iteration(from)
            .map(|tag| latest.saturating_sub(tag))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::test_kernels::RingContraction;

    fn states(kernel: &dyn IterativeKernel) -> Vec<BlockState> {
        BlockState::initial_states(kernel, &DependencyGraph::from_kernel(kernel))
    }

    fn state(kernel: &dyn IterativeKernel, id: usize) -> BlockState {
        states(kernel).swap_remove(id)
    }

    #[test]
    fn new_block_starts_from_kernel_initial_values() {
        let kernel = RingContraction::new(3);
        let st = state(&kernel, 1);
        assert_eq!(&*st.values, &[0.0]);
        assert_eq!(st.iteration, 0);
        assert!(st.view.has(0) && st.view.has(2));
    }

    #[test]
    fn iterate_updates_values_and_counters() {
        let kernel = RingContraction::new(3);
        let mut st = state(&kernel, 0);
        let r = st.iterate(&kernel);
        assert_eq!(st.iteration, 1);
        assert_eq!(&*st.values, &[1.0]); // 0.2*0 + 0.3*0 + 0.2*0 + 1.0
        assert_eq!(r, 1.0);
        assert_eq!(st.view.expect(0), &[1.0]);
    }

    #[test]
    fn incorporate_keeps_newest_version() {
        let kernel = RingContraction::new(3);
        let mut st = state(&kernel, 0);
        assert!(st.incorporate(1, 5, vec![5.0]));
        assert_eq!(st.view.expect(1), &[5.0]);
        // an older message is discarded
        assert!(!st.incorporate(1, 3, vec![3.0]));
        assert_eq!(st.view.expect(1), &[5.0]);
        // an equal-or-newer message replaces the data
        assert!(st.incorporate(1, 5, vec![6.0]));
        assert_eq!(st.view.expect(1), &[6.0]);
        assert_eq!(st.messages_incorporated, 2);
    }

    #[test]
    fn drift_accumulates_across_iterations_until_reset() {
        let kernel = RingContraction::new(2);
        let mut st = state(&kernel, 0);
        assert_eq!(st.drift_from_anchor(), 0.0);
        st.iterate(&kernel); // 0 -> 1.0
        let d1 = st.drift_from_anchor();
        assert!(d1 > 0.0);
        st.iterate(&kernel); // keeps moving towards the fixed point
        assert!(st.drift_from_anchor() > d1, "drift is cumulative");
        st.reset_anchor();
        assert_eq!(st.drift_from_anchor(), 0.0);
    }

    #[test]
    fn staleness_tracks_received_iteration_tags() {
        let kernel = RingContraction::new(2);
        let mut st = state(&kernel, 0);
        assert_eq!(st.staleness(1, 10), None);
        st.incorporate(1, 7, vec![1.0]);
        assert_eq!(st.staleness(1, 10), Some(3));
        assert_eq!(st.staleness(1, 7), Some(0));
        // An older message neither lands nor moves the tag.
        assert!(!st.incorporate(1, 2, vec![2.0]));
        assert_eq!(st.staleness(1, 10), Some(3));
    }

    #[test]
    fn undeclared_blocks_have_no_state() {
        let kernel = RingContraction::new(5);
        let st = state(&kernel, 0);
        assert_eq!(st.view.get(2), None);
        assert_eq!(st.staleness(2, 10), None);
    }

    #[test]
    #[should_panic(expected = "not a declared dependency")]
    fn incorporating_an_undeclared_block_panics() {
        let kernel = RingContraction::new(5);
        state(&kernel, 0).incorporate(2, 1, vec![1.0]);
    }

    #[test]
    fn view_slots_are_linear_in_the_edge_count() {
        let kernel = RingContraction::new(4096);
        let graph = DependencyGraph::from_kernel(&kernel);
        let slots: usize = states(&kernel).iter().map(|s| s.view.num_slots()).sum();
        assert_eq!(slots, graph.num_edges() + 4096);
    }

    #[test]
    fn initial_payloads_are_shared_not_copied() {
        let kernel = RingContraction::new(6);
        let graph = DependencyGraph::from_kernel(&kernel);
        let states = states(&kernel);
        for st in &states {
            // The block's front buffer and its own view slot, plus one slot
            // in each dependant's view; no other copy exists.
            let dependants = graph.out_neighbours(st.id).len();
            assert_eq!(Arc::strong_count(&st.values), dependants + 2);
        }
    }

    #[test]
    fn repeated_iterations_converge_with_fresh_neighbour_data() {
        let kernel = RingContraction::new(2);
        let mut a = state(&kernel, 0);
        let mut b = state(&kernel, 1);
        for _ in 0..200 {
            a.iterate(&kernel);
            b.iterate(&kernel);
            let av = a.values.clone();
            let bv = b.values.clone();
            a.incorporate(1, b.iteration, bv);
            b.incorporate(0, a.iteration, av);
        }
        // fixed point of x = 0.2 x_other + 0.3 x + 0.2 x_other + 1 is
        // symmetric: x = 1 / (1 - 0.7)
        let fp = kernel.fixed_point();
        assert!((a.values[0] - fp).abs() < 1e-9);
        assert!((b.values[0] - fp).abs() < 1e-9);
    }

    #[test]
    fn native_in_place_kernels_never_copy_payload_bytes() {
        // RingContraction overrides update_block_into, so iterating through
        // the double buffer must not count any payload clones — even while a
        // neighbour's view still holds the previous front buffer.
        let kernel = RingContraction::new(2);
        let mut st = state(&kernel, 0);
        let mut leaked: Vec<Payload> = Vec::new();
        for _ in 0..8 {
            leaked.push(st.values.clone()); // keep every front buffer alive
            st.iterate(&kernel);
        }
        assert_eq!(st.payload_clones, 0);
        assert_eq!(st.bytes_copied, 0);
        assert_eq!(st.iteration, 8);
    }
}
