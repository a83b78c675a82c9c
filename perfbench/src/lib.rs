//! `aiac-perfbench` — the repository benchmark.
//!
//! Four workloads, each run in its own process, drive the AIAC workspace
//! through the public API of its crates only:
//!
//! * [`workloads::paper_grid`] — the simulated grid cells of Tables 2 and 3
//!   (kernel-bound);
//! * [`workloads::pool_ring`] — a 2048-block ring on the threaded pool and
//!   the sequential runtime (runtime-bound);
//! * [`workloads::service_open`] — the solver service, drained as a paused
//!   backlog and driven as an open loop at two fixed offered rates;
//! * [`workloads::trace_check`] — Chrome export and schema validation of a
//!   fixed trace (obs-bound).
//!
//! An untraced run reports the end-to-end metrics; a traced run wraps every
//! kernel in a timing adapter ([`measure::TimedKernel`]), turns event
//! tracing on, and reports per-layer attribution. Every answer the program
//! gives is checked against a known solution ([`outcome::Tally`]).

#![forbid(unsafe_code)]

pub mod measure;
pub mod outcome;
pub mod workloads;

pub use outcome::{Metrics, Outcome, Tally};
pub use workloads::{RunSpec, Size, Workload};
