//! Convergence detection and halting.
//!
//! The paper's algorithms stop through a two-level procedure (Section 4.3):
//!
//! * **local convergence** — a processor considers itself converged when the
//!   max-norm residual of its block has stayed under the threshold for a
//!   specified number of consecutive iterations (the streak guards against
//!   the oscillations that asynchronous data arrivals can cause);
//! * **global convergence** — a *centralized* detector (one designated
//!   processor) gathers the local states, which are only sent when they
//!   change, and broadcasts a stop signal once every processor is in local
//!   convergence at the same time.
//!
//! [`LocalConvergence`] implements the first level, [`GlobalDetector`] the
//! second. Both are plain deterministic state machines so the threaded and
//! simulated runtimes share them.

use serde::{Deserialize, Serialize};

/// Per-block local convergence tracker.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LocalConvergence {
    epsilon: f64,
    required_streak: usize,
    current_streak: usize,
    converged: bool,
}

impl LocalConvergence {
    /// Creates a tracker declaring convergence after `required_streak`
    /// consecutive residuals strictly below `epsilon`.
    ///
    /// # Panics
    /// Panics if `epsilon` is not positive or the streak is zero.
    pub fn new(epsilon: f64, required_streak: usize) -> Self {
        assert!(epsilon > 0.0, "epsilon must be positive");
        assert!(required_streak > 0, "streak must be at least 1");
        Self {
            epsilon,
            required_streak,
            current_streak: 0,
            converged: false,
        }
    }

    /// Feeds the residual of one local iteration. Returns `true` when the
    /// local convergence state *changed* (so the caller knows it must send a
    /// state message to the detector, which the paper does "only when it
    /// changes" to avoid overloading the network).
    pub fn observe(&mut self, residual: f64) -> bool {
        self.observe_gated(residual, true)
    }

    /// Like [`LocalConvergence::observe`], but an under-threshold residual
    /// only advances the streak when `fresh_data` is true (i.e. the iteration
    /// incorporated at least one new dependency message, or the block has no
    /// dependencies at all).
    ///
    /// This gate protects the centralized detection against the premature
    /// terminations the paper warns about: a processor that is merely idling
    /// on stale data produces zero residuals, but those say nothing about the
    /// global state. Over-threshold residuals still cancel the streak
    /// regardless of freshness.
    pub fn observe_gated(&mut self, residual: f64, fresh_data: bool) -> bool {
        let was = self.converged;
        if residual < self.epsilon {
            if fresh_data {
                self.current_streak += 1;
                if self.current_streak >= self.required_streak {
                    self.converged = true;
                }
            }
        } else {
            self.current_streak = 0;
            self.converged = false;
        }
        self.converged != was
    }

    /// Whether the block currently believes it has converged.
    pub fn is_converged(&self) -> bool {
        self.converged
    }

    /// Length of the current under-threshold streak.
    pub fn streak(&self) -> usize {
        self.current_streak
    }

    /// Resets the tracker (used between time steps of the non-linear
    /// problem).
    pub fn reset(&mut self) {
        self.current_streak = 0;
        self.converged = false;
    }
}

/// Centralized global convergence detector.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GlobalDetector {
    states: Vec<bool>,
    converged_count: usize,
    /// Number of state messages processed (exposed for the reports).
    reports_received: u64,
    decided: bool,
}

impl GlobalDetector {
    /// Creates a detector for `num_blocks` blocks, all initially
    /// non-converged.
    pub fn new(num_blocks: usize) -> Self {
        assert!(num_blocks > 0, "detector needs at least one block");
        Self {
            states: vec![false; num_blocks],
            converged_count: 0,
            reports_received: 0,
            decided: false,
        }
    }

    /// Processes a state report from a block. Returns `true` when this report
    /// makes the detector decide global convergence (i.e. the caller must now
    /// broadcast the stop signal). Reports received after the decision are
    /// ignored.
    pub fn report(&mut self, block: usize, converged: bool) -> bool {
        if self.decided {
            assert!(block < self.states.len(), "unknown block {block}");
            self.reports_received += 1;
            return false;
        }
        let all = self.record(block, converged);
        self.decided = all;
        all
    }

    /// Processes a state report without deciding: returns whether every
    /// block's latest report now says "converged". A runtime that confirms
    /// that candidate before stopping (the threaded pool, see
    /// [`crate::runtime::threaded`]) calls this and then
    /// [`GlobalDetector::decide`].
    pub(crate) fn record(&mut self, block: usize, converged: bool) -> bool {
        assert!(block < self.states.len(), "unknown block {block}");
        self.reports_received += 1;
        if self.states[block] != converged {
            self.states[block] = converged;
            if converged {
                self.converged_count += 1;
            } else {
                self.converged_count -= 1;
            }
        }
        self.converged_count == self.states.len()
    }

    /// Latches global convergence; later reports are ignored.
    pub(crate) fn decide(&mut self) {
        self.decided = true;
    }

    /// Whether global convergence has been decided.
    pub fn is_decided(&self) -> bool {
        self.decided
    }

    /// Number of blocks currently reporting local convergence.
    pub fn converged_blocks(&self) -> usize {
        self.converged_count
    }

    /// Number of state reports processed.
    pub fn reports_received(&self) -> u64 {
        self.reports_received
    }

    /// Resets the detector (used between time steps of the non-linear
    /// problem).
    pub fn reset(&mut self) {
        for s in self.states.iter_mut() {
            *s = false;
        }
        self.converged_count = 0;
        self.decided = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn local_convergence_requires_a_full_streak() {
        let mut lc = LocalConvergence::new(1e-6, 3);
        assert!(!lc.observe(1e-7));
        assert!(!lc.observe(1e-7));
        assert!(!lc.is_converged());
        // third consecutive small residual flips the state
        assert!(lc.observe(1e-7));
        assert!(lc.is_converged());
        // staying converged is not a change
        assert!(!lc.observe(1e-8));
    }

    #[test]
    fn large_residual_cancels_local_convergence() {
        let mut lc = LocalConvergence::new(1e-6, 2);
        lc.observe(1e-9);
        lc.observe(1e-9);
        assert!(lc.is_converged());
        // an asynchronously received update perturbs the block: oscillation
        assert!(lc.observe(1e-3), "cancellation is a state change");
        assert!(!lc.is_converged());
        assert_eq!(lc.streak(), 0);
    }

    #[test]
    fn streak_of_one_converges_immediately() {
        let mut lc = LocalConvergence::new(1e-6, 1);
        assert!(lc.observe(1e-7));
        assert!(lc.is_converged());
    }

    #[test]
    fn residual_equal_to_epsilon_does_not_count() {
        let mut lc = LocalConvergence::new(1e-6, 1);
        assert!(!lc.observe(1e-6));
        assert!(!lc.is_converged());
    }

    #[test]
    fn stale_iterations_do_not_advance_the_streak() {
        let mut lc = LocalConvergence::new(1e-6, 2);
        assert!(!lc.observe_gated(1e-9, true));
        // arbitrarily many quiet-but-stale iterations keep the streak frozen
        for _ in 0..100 {
            assert!(!lc.observe_gated(0.0, false));
        }
        assert!(!lc.is_converged());
        assert_eq!(lc.streak(), 1);
        // one more fresh quiet iteration completes the streak
        assert!(lc.observe_gated(1e-9, true));
        assert!(lc.is_converged());
    }

    #[test]
    fn large_residual_cancels_even_without_fresh_data() {
        let mut lc = LocalConvergence::new(1e-6, 1);
        lc.observe_gated(1e-9, true);
        assert!(lc.is_converged());
        assert!(lc.observe_gated(1.0, false));
        assert!(!lc.is_converged());
    }

    #[test]
    fn reset_clears_local_state() {
        let mut lc = LocalConvergence::new(1e-6, 1);
        lc.observe(0.0);
        assert!(lc.is_converged());
        lc.reset();
        assert!(!lc.is_converged());
        assert_eq!(lc.streak(), 0);
    }

    #[test]
    fn detector_decides_only_when_all_blocks_converge() {
        let mut det = GlobalDetector::new(3);
        assert!(!det.report(0, true));
        assert!(!det.report(1, true));
        assert_eq!(det.converged_blocks(), 2);
        assert!(!det.is_decided());
        assert!(det.report(2, true));
        assert!(det.is_decided());
    }

    #[test]
    fn detector_handles_cancellations() {
        let mut det = GlobalDetector::new(2);
        det.report(0, true);
        det.report(1, false);
        // block 0 oscillates back out of convergence
        det.report(0, false);
        assert_eq!(det.converged_blocks(), 0);
        det.report(1, true);
        assert!(!det.is_decided());
        assert!(det.report(0, true));
    }

    #[test]
    fn duplicate_reports_do_not_double_count() {
        let mut det = GlobalDetector::new(2);
        det.report(0, true);
        det.report(0, true);
        assert_eq!(det.converged_blocks(), 1);
        assert!(!det.is_decided());
    }

    #[test]
    fn reports_after_decision_are_ignored() {
        let mut det = GlobalDetector::new(1);
        assert!(det.report(0, true));
        assert!(!det.report(0, false), "decision is final");
        assert!(det.is_decided());
        assert_eq!(det.reports_received(), 2);
    }

    #[test]
    fn record_reports_a_candidate_without_deciding() {
        let mut det = GlobalDetector::new(2);
        assert!(!det.record(0, true));
        assert!(det.record(1, true), "every block converged: a candidate");
        assert!(!det.is_decided());
        assert!(!det.record(1, false), "a candidate can still be withdrawn");
        assert!(det.record(1, true));
        det.decide();
        assert!(det.is_decided());
        assert!(!det.report(0, false), "decision is final");
        assert_eq!(det.reports_received(), 5);
    }

    #[test]
    fn reset_restarts_the_detector() {
        let mut det = GlobalDetector::new(2);
        det.report(0, true);
        det.report(1, true);
        assert!(det.is_decided());
        det.reset();
        assert!(!det.is_decided());
        assert_eq!(det.converged_blocks(), 0);
    }

    #[test]
    #[should_panic(expected = "unknown block")]
    fn unknown_block_is_rejected() {
        GlobalDetector::new(2).report(5, true);
    }

    proptest! {
        /// The detector decides if and only if, after its last processed
        /// report, every block's most recent report said "converged".
        #[test]
        fn prop_detector_matches_reference_semantics(
            reports in proptest::collection::vec((0usize..4, proptest::bool::ANY), 1..60)
        ) {
            let mut det = GlobalDetector::new(4);
            let mut latest = [false; 4];
            let mut decided_ref = false;
            for &(b, c) in &reports {
                let fired = det.report(b, c);
                if !decided_ref {
                    latest[b] = c;
                    if latest.iter().all(|&x| x) {
                        decided_ref = true;
                        prop_assert!(fired);
                    } else {
                        prop_assert!(!fired);
                    }
                } else {
                    prop_assert!(!fired);
                }
            }
            prop_assert_eq!(det.is_decided(), decided_ref);
        }

        /// Local convergence is declared exactly when the last `streak`
        /// residuals were all below epsilon.
        #[test]
        fn prop_local_convergence_matches_window_rule(
            residuals in proptest::collection::vec(0.0f64..2e-6, 1..50),
            streak in 1usize..5,
        ) {
            let eps = 1e-6;
            let mut lc = LocalConvergence::new(eps, streak);
            for r in &residuals {
                lc.observe(*r);
            }
            // Reference rule: converged iff the trailing run of
            // under-threshold residuals is at least `streak` long (any larger
            // residual cancels an earlier streak, so only the tail matters).
            let expected = residuals.iter().rev().take_while(|r| **r < eps).count() >= streak;
            prop_assert_eq!(lc.is_converged(), expected);
        }
    }
}
