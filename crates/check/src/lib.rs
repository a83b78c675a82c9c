//! `aiac-check` — a bounded model checker for the AIAC lock-free data plane.
//!
//! The repo's hot path (`aiac-core`'s lock-free coalescing mailboxes) is
//! correct only if it is correct under *every* interleaving, not just the
//! ones a stress test happens to sample. This crate provides a loom-style
//! checker: the code under test is compiled with
//! `RUSTFLAGS="--cfg aiac_check"` so that its atomics (routed through
//! `aiac-core`'s `runtime::sync` facade) resolve to the instrumented types in
//! [`sync::atomic`], and a driver enumerates thread interleavings
//! exhaustively within configurable bounds.
//!
//! # Execution model
//!
//! - **Sequentially-consistent front.** Exploration enumerates all
//!   interleavings of instrumented operations as if every operation were
//!   `SeqCst`: one thread runs at a time, each atomic operation is a
//!   scheduling point, and the driver picks which runnable thread executes
//!   the next operation. This over-approximates visibility (weaker orderings
//!   admit *more* behaviours than SC) so it can miss relaxed-memory-only
//!   bugs, but every schedule it does explore is real.
//! - **Ordering-aware visibility rule.** On top of the SC front, pointer
//!   cells ([`sync::atomic::AtomicPtr`]) track a release tag: a non-null
//!   pointer written without Release semantics (or read back by a *different*
//!   thread without Acquire semantics) is flagged as a visibility violation,
//!   because the bytes behind the pointer would not be guaranteed visible on
//!   a weakly-ordered machine. This is exactly the failure mode of the
//!   mailbox's `Box::into_raw` → `swap` → `Box::from_raw` handoff, and is
//!   what catches a seeded `AcqRel` → `Relaxed` mutation that the SC front
//!   alone would hide. A preceding [`sync::atomic::fence`] with
//!   Release/Acquire semantics on the same thread also satisfies the rule.
//! - **Bounded preemptions.** Context switches at points where the previous
//!   thread could have kept running are limited to
//!   [`Builder::max_preemptions`] per execution. Empirically (CHESS) almost
//!   all concurrency bugs manifest within two preemptions; the bound turns
//!   an exponential schedule space into a polynomial one while remaining
//!   exhaustive *within the bound*.
//! - **State-hash pruning.** At each branch point the driver hashes the
//!   abstract state — per-thread operation-history chains, shadow atomic
//!   values, thread statuses — and skips `(state, chosen-thread)` pairs it
//!   has already explored at an equal-or-lower preemption budget. Thread
//!   locals are a deterministic function of the thread's read history, so
//!   equal chains imply equal continuations and the pruning is sound.
//!
//! # Usage
//!
//! ```
//! use aiac_check::{model, thread, sync::atomic::{AtomicUsize, Ordering}};
//! use std::sync::Arc;
//!
//! let report = model(|| {
//!     let n = Arc::new(AtomicUsize::new(0));
//!     let n2 = Arc::clone(&n);
//!     let t = thread::spawn(move || {
//!         // ord: model example — counter increment
//!         n2.fetch_add(1, Ordering::SeqCst);
//!     });
//!     // ord: model example — counter increment
//!     n.fetch_add(1, Ordering::SeqCst);
//!     t.join();
//!     // ord: model example — final read at quiescence
//!     assert_eq!(n.load(Ordering::SeqCst), 2);
//! });
//! assert!(report.complete);
//! ```
//!
//! A failing property panics inside the model; [`model`] re-raises the panic
//! annotated with the schedule (thread ids in execution order) and the tail
//! of the operation log so the interleaving can be replayed by hand.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod explore;
pub mod sync;
pub mod thread;

pub use explore::{Builder, ExploreReport};

/// Explore all interleavings of `f` under the default bounds
/// ([`Builder::default`]). Panics if any execution fails; returns the
/// exploration statistics otherwise.
pub fn model<F>(f: F) -> ExploreReport
where
    F: Fn() + Send + Sync + 'static,
{
    Builder::default().check(f)
}
