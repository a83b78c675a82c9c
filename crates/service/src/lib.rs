//! `aiac-service` — the multi-tenant solver service.
//!
//! The paper compared AIAC environments on how well they kept a
//! heterogeneous cluster busy; this crate asks the same question at the
//! serving layer: many concurrent solve jobs from many tenants competing
//! for one shared worker pool, instead of one solve owning the machine.
//!
//! ```text
//!  tenants ──► per-tenant queues ──► admission ──► DRR dispatcher
//!                                                      │
//!                        result cache ◄── shared worker pool (ready queue)
//! ```
//!
//! The pieces:
//!
//! * [`job`] — the [`job::JobSpec`] / [`job::JobResult`] API, the
//!   [`job::ServiceProblem`] catalogue of solvable problems, and the typed
//!   [`job::AdmissionError`] backpressure every bound rejects with;
//! * [`config`] — [`config::ServiceConfig`] sizing (workers, in-flight
//!   bound, tenant queue depth, DRR quantum, cache capacity), derivable
//!   from an environment profile's `ServiceKnobs`;
//! * [`drr`] — bounded per-tenant queues drained by a deficit-round-robin
//!   dispatcher, so no backlogged tenant starves regardless of the arrival
//!   mix;
//! * [`cache`] — a bounded result cache keyed by the structural hash of
//!   (problem, tolerance), with hit/miss counters;
//! * [`traffic`] — a seeded open-loop generator (Poisson arrivals,
//!   heavy-tailed bursts, tenant weighting) producing reproducible job
//!   streams;
//! * [`sim`] — a virtual-clock discrete-event execution of the whole
//!   service, whose latency/throughput/fairness metrics are deterministic
//!   and therefore gateable in CI;
//! * [`service`] — the real front end: OS-thread workers taking jobs from
//!   one FIFO ready queue that shares the dispatcher's mutex and condition
//!   variable (every push and every wait happen under that one lock, so no
//!   wakeup can be lost), with per-job cancellation via
//!   [`aiac_core::cancel::CancelToken`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod config;
pub mod drr;
pub mod job;
pub mod service;
pub mod sim;
pub mod traffic;

pub use cache::{job_key, CachedSolve, ResultCache};
pub use config::ServiceConfig;
pub use drr::{Pending, TenantQueues};
pub use job::{AdmissionError, JobId, JobResult, JobSpec, ServiceProblem, TenantId};
pub use service::{run_real_load, run_real_load_traced, JobTicket, SolverService};
pub use sim::{run_virtual, run_virtual_traced, LoadReport, LoadSpec};
pub use traffic::{Arrival, ProblemMix, SplitMix64, TrafficSpec};
