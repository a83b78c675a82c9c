//! What a run reports: the correctness tally, the metrics and the final
//! JSON line.
//!
//! Every workload reports the same metric names, so the lists below are the
//! single source of truth for `BENCHMARK.json`. The end-to-end list and the
//! universal per-layer list must be measured by every workload; a
//! layer-specific metric reads 0 on a workload that never runs that layer.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics (untraced runs): name and unit.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
];

/// Per-layer metrics every workload measures (traced runs).
pub const PER_LAYER_UNIVERSAL: [(&str, &str); 15] = [
    ("kernel.calls", "count"),
    ("kernel.busy_s", "s"),
    ("kernel.ns_per_call", "ns"),
    ("kernel.share", "ratio"),
    ("kernel.computed_gbps", "GB/s"),
    ("mem.stream_copy_gbps", "GB/s"),
    ("kernel.roofline_frac", "ratio"),
    ("runtime.iterations", "count"),
    ("runtime.overhead_ns_per_iter", "ns"),
    ("rss.after_setup_mb", "MB"),
    ("trace.overhead_ratio", "ratio"),
    ("obs.trace_bytes", "bytes"),
    ("obs.events", "count"),
    ("obs.export_ns_per_event", "ns"),
    ("obs.validate_ns_per_byte", "ns"),
];

/// Per-layer metrics of one layer each; 0 where the workload does not run
/// that layer.
pub const PER_LAYER_SPECIFIC: [(&str, &str); 25] = [
    ("pool.self_share", "ratio"),
    ("pool.iterations", "count"),
    ("pool.async_iter_ratio", "ratio"),
    ("pool.steals", "count"),
    ("pool.failed_steals", "count"),
    ("pool.steal_success_ratio", "ratio"),
    ("pool.local_pushes", "count"),
    ("pool.queue_waits", "count"),
    ("mailbox.data_messages", "count"),
    ("mailbox.coalesced_ratio", "ratio"),
    ("mailbox.peak_occupancy", "count"),
    ("seq.self_share", "ratio"),
    ("sim.self_share", "ratio"),
    ("sim.total_iterations", "count"),
    ("sim.data_messages", "count"),
    ("sim.net_queue_ratio", "ratio"),
    ("sim.virtual_per_wall", "ratio"),
    ("sim.sparse_speed_ratio", "ratio"),
    ("sim.chem_speed_ratio", "ratio"),
    ("svc.self_share", "ratio"),
    ("svc.cache_hit_ratio", "ratio"),
    ("svc.rejected_in_flight", "count"),
    ("svc.rejected_tenant_full", "count"),
    ("drr.fairness_ratio", "ratio"),
    ("gen.late_frac", "ratio"),
];

fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(&PER_LAYER_UNIVERSAL)
        .chain(&PER_LAYER_SPECIFIC)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

/// Correctness bookkeeping: every checked operation is attempted once and
/// failed at most once. Refusals and wrong answers both count as failed.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Operations whose answer was checked.
    pub attempted: u64,
    /// Operations whose answer was refused, missing or wrong.
    pub failed: u64,
    /// The first few failure descriptions.
    pub failures: Vec<String>,
}

impl Tally {
    /// Records one checked operation; `why` describes it when `ok` is false.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(why());
        }
    }

    /// Records a failure of an operation already counted as attempted.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(why);
        }
    }
}

/// Named metric values.
#[derive(Debug, Default, Clone)]
pub struct Metrics {
    values: BTreeMap<String, f64>,
}

impl Metrics {
    /// Sets `name` (which must be one of the declared metrics).
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(unit_of(name).is_some(), "undeclared metric {name}");
        self.values.insert(name.to_string(), value);
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }
}

/// The result of one workload run.
#[derive(Debug, Default, Clone)]
pub struct Outcome {
    /// Correctness of every answer the run checked.
    pub tally: Tally,
    /// Measured metrics.
    pub metrics: Metrics,
    /// Further measurements printed for people, outside the JSON line.
    pub details: Vec<(String, f64, &'static str)>,
}

impl Outcome {
    /// Adds a human-only detail line.
    pub fn detail(&mut self, name: &str, value: f64, unit: &'static str) {
        self.details.push((name.to_string(), value, unit));
    }

    /// The names this run must report: the end-to-end list untraced, the
    /// per-layer lists traced.
    fn expected(traced: bool) -> Vec<(&'static str, &'static str, bool)> {
        if traced {
            PER_LAYER_UNIVERSAL
                .iter()
                .map(|&(n, u)| (n, u, true))
                .chain(PER_LAYER_SPECIFIC.iter().map(|&(n, u)| (n, u, false)))
                .collect()
        } else {
            END_TO_END.iter().map(|&(n, u)| (n, u, true)).collect()
        }
    }

    /// True when every operation passed and every reported value is a
    /// finite number.
    pub fn correct(&self, traced: bool) -> bool {
        self.tally.failed == 0
            && self.tally.attempted > 0
            && self.missing(traced).is_empty()
            && Self::expected(traced)
                .iter()
                .all(|(n, _, _)| self.metrics.get(n).is_none_or(f64::is_finite))
    }

    /// Required metrics the run never set.
    pub fn missing(&self, traced: bool) -> Vec<&'static str> {
        Self::expected(traced)
            .into_iter()
            .filter(|(n, _, required)| *required && self.metrics.get(n).is_none())
            .map(|(n, _, _)| n)
            .collect()
    }

    /// The human listing: every metric by name with its unit.
    pub fn render_listing(&self, traced: bool) -> String {
        let mut out = String::new();
        for (name, unit, _) in Self::expected(traced) {
            let value = self.metrics.get(name).unwrap_or(0.0);
            let _ = writeln!(out, "  {name:<30} {value:>16.6} {unit}");
        }
        for (name, value, unit) in &self.details {
            let _ = writeln!(out, "  {name:<30} {value:>16.6} {unit}   (detail)");
        }
        let _ = writeln!(
            out,
            "  ops_attempted={} ops_failed={}",
            self.tally.attempted, self.tally.failed
        );
        for f in &self.tally.failures {
            let _ = writeln!(out, "  FAILED: {f}");
        }
        out
    }

    /// The final JSON line. Non-finite values (which also make the run
    /// incorrect) are written as -1 so the line stays valid JSON; a run that
    /// checked nothing reports one failed operation.
    pub fn render_json(&self, traced: bool) -> String {
        let (attempted, failed) = match self.tally.attempted {
            0 => (1, 1),
            n => (n, self.tally.failed),
        };
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
            self.correct(traced),
        );
        for (i, (name, unit, _)) in Self::expected(traced).into_iter().enumerate() {
            let value = self.metrics.get(name).unwrap_or(0.0);
            let value = if value.is_finite() { value } else { -1.0 };
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_unique_and_declared_once() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER_UNIVERSAL)
            .chain(&PER_LAYER_SPECIFIC)
            .map(|(n, _)| *n)
            .collect();
        let total = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), total);
    }

    #[test]
    fn a_run_with_a_failure_or_a_missing_metric_is_incorrect() {
        let mut o = Outcome::default();
        o.tally.check(true, String::new);
        for (n, _) in END_TO_END {
            o.metrics.set(n, 1.5);
        }
        assert!(o.correct(false));
        assert!(o.render_json(false).starts_with("{\"correct\": true"));
        o.tally.check(false, || "wrong".into());
        assert!(!o.correct(false));
        let mut p = Outcome::default();
        p.tally.check(true, String::new);
        assert_eq!(p.missing(false).len(), END_TO_END.len());
        assert!(!p.correct(false));
    }
}
