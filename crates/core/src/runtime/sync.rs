//! Atomic-type facade for the lock-free data plane.
//!
//! Every atomic in `runtime::mailbox` and `runtime::threaded` is imported
//! from here rather than from `std::sync::atomic` (the `xtask analyze` lint
//! enforces it). Normally the
//! re-exports below *are* the `std` types — zero cost, same codegen. Built
//! with `RUSTFLAGS="--cfg aiac_check"`, they switch to `aiac-check`'s
//! instrumented atomics: identical API, but inside a model execution every
//! operation becomes a scheduling point of the bounded model checker, and
//! `AtomicPtr` carries the release-tag metadata behind the checker's
//! cross-thread visibility rule. Outside a model execution the instrumented
//! types fall through to raw `std` operations, so an `aiac_check` build of
//! the runtime still behaves normally under ordinary tests.
//!
//! The facade deliberately re-exports only what the data plane uses: the
//! atomic types and `Ordering`. Widening it is fine — add the type to
//! `aiac-check::sync::atomic` first so both cfg arms stay in sync.

#[cfg(not(aiac_check))]
pub use std::sync::atomic::{AtomicBool, AtomicI64, AtomicPtr, AtomicU64, AtomicUsize, Ordering};

#[cfg(aiac_check)]
pub use aiac_check::sync::atomic::{
    AtomicBool, AtomicI64, AtomicPtr, AtomicU64, AtomicUsize, Ordering,
};
