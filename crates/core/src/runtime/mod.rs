//! Execution back-ends.
//!
//! Three back-ends run the same [`crate::kernel::IterativeKernel`]:
//!
//! * [`sequential`] — a single-threaded fixed-point loop used as the
//!   correctness reference;
//! * [`threaded`] — a fixed-size worker pool multiplexing all blocks, with
//!   newest-wins [`mailbox`] slots (one per dependency edge) for the data
//!   exchanges; the synchronous mode runs barrier-separated supersteps
//!   (SISC), the asynchronous mode lets every block run at its own pace
//!   (AIAC). This back-end is what a downstream user runs on a multicore
//!   machine.
//! * [`simulated`] — a virtual-time execution over an `aiac-netsim` grid and
//!   an `aiac-envs` environment model; this is the back-end the benchmark
//!   harness uses to reproduce the paper's grid experiments, since 40
//!   heterogeneous machines behind 10 Mb Ethernet and ADSL links cannot be
//!   conjured on a development box.

pub mod mailbox;
pub mod sequential;
pub mod simulated;
pub mod sync;
pub mod threaded;

pub use mailbox::{CoalescingMailboxes, MailboxStats};
pub use sequential::SequentialRuntime;
pub use simulated::{SimulatedRuntime, SimulationOutcome};
pub use threaded::ThreadedRuntime;

/// The splitmix64 generator: cheap, seedable, platform-independent, and
/// good enough for load generation and the tests' pause
/// schedules. Advances `state` and returns the next draw. This is the
/// workspace's one PRNG step; seeded streams built on it are bit-identical
/// across platforms and runs.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
