//! The four workloads and the helpers they share.

use std::time::{Duration, Instant};

use aiac_obs::{to_chrome_json, validate_chrome_trace, TraceConfig, TraceSnapshot};

use crate::measure::{self, KernelTotals, StreamCopy};
use crate::outcome::Outcome;

pub mod paper_grid;
pub mod pool_ring;
pub mod service_open;
pub mod trace_check;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Simulated grid cells of Tables 2 and 3.
    PaperGrid,
    /// A large ring on the threaded pool and the sequential runtime.
    PoolRing,
    /// The solver service: backlog drain plus an open loop at two rates.
    ServiceOpen,
    /// Chrome export and validation of a fixed trace.
    TraceCheck,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::PaperGrid,
        Workload::PoolRing,
        Workload::ServiceOpen,
        Workload::TraceCheck,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperGrid => "paper-grid",
            Workload::PoolRing => "pool-ring",
            Workload::ServiceOpen => "service-open",
            Workload::TraceCheck => "trace-check",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Problem sizes: the benchmark's own, or a smoke size that runs the same
/// checks in seconds (used by the self-tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes `BENCHMARK.json` measures.
    Full,
    /// Tiny sizes for the self-tests.
    Smoke,
}

/// Everything one run needs.
#[derive(Debug, Clone, Copy)]
pub struct RunSpec {
    /// Which workload.
    pub workload: Workload,
    /// Drives every generated input: matrix, traffic and `RunConfig::seed`.
    pub seed: u64,
    /// Measurement budget.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub traced: bool,
    /// Problem sizes.
    pub size: Size,
}

impl RunSpec {
    /// The measurement budget as a duration.
    pub fn budget(&self) -> Duration {
        Duration::from_secs_f64(self.seconds.max(0.0))
    }
}

/// Runs one workload.
pub fn run(spec: &RunSpec) -> Outcome {
    match spec.workload {
        Workload::PaperGrid => paper_grid::run(spec),
        Workload::PoolRing => pool_ring::run(spec),
        Workload::ServiceOpen => service_open::run(spec),
        Workload::TraceCheck => trace_check::run(spec),
    }
}

/// Worker threads for the threaded pool: two, never more than the machine
/// has.
pub fn pool_workers() -> usize {
    measure::nproc().clamp(1, 2)
}

/// Trace settings of a traced run: tracing on, with per-track rings small
/// enough that exporting and validating the run's own trace stays cheap.
pub fn traced_config(ring_capacity: usize) -> TraceConfig {
    TraceConfig::on().with_ring_capacity(ring_capacity)
}

/// Seconds since `start`.
pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Wall and CPU time of one timed round.
#[derive(Debug, Clone, Copy)]
pub struct RoundTime {
    /// Wall-clock seconds.
    pub wall_s: f64,
    /// Process CPU seconds, all threads.
    pub cpu_s: f64,
}

/// Times `f` in wall-clock and process CPU time.
pub fn timed<T>(f: impl FnOnce() -> T) -> (RoundTime, T) {
    let cpu = measure::cpu_secs();
    let t = Instant::now();
    let value = f();
    let time = RoundTime {
        wall_s: secs(t),
        cpu_s: measure::cpu_secs() - cpu,
    };
    (time, value)
}

/// Sets the end-to-end metrics: the median set-up, the process's peak RSS,
/// and the median wall and CPU time of one round.
pub fn set_end_to_end(out: &mut Outcome, setup_s: f64, walls: &[f64], cpus: &[f64]) {
    out.metrics.set("setup_s", setup_s);
    out.metrics.set("peak_rss_mb", measure::peak_rss_mb());
    out.metrics.set("wall_s", measure::median(walls));
    out.metrics.set("cpu_s", measure::median(cpus));
    out.detail("rounds", cpus.len() as f64, "count");
}

/// Measures copy bandwidth in this process over a working set of four
/// times the last-level cache (two arrays of twice the LLC each).
pub fn calibrate(out: &mut Outcome, size: Size) -> StreamCopy {
    let total = match size {
        Size::Full => 4 * measure::llc_bytes(),
        Size::Smoke => 8 << 20,
    };
    let copy = measure::stream_copy(total, 5);
    out.metrics.set("mem.stream_copy_gbps", copy.gbps);
    out.detail(
        "mem.stream_copy_array_mib",
        copy.array_bytes as f64 / (1 << 20) as f64,
        "MiB",
    );
    out.detail(
        "mem.llc_mib",
        measure::llc_bytes() as f64 / (1 << 20) as f64,
        "MiB",
    );
    copy
}

/// Sets the kernel metrics. `worker_secs` is wall time × workers of the
/// traced work the kernel ran in, over `rounds` traced rounds; counts and
/// times are reported per round.
pub fn set_kernel_layer(
    out: &mut Outcome,
    k: KernelTotals,
    worker_secs: f64,
    rounds: f64,
    copy: StreamCopy,
) {
    let gbps = if k.busy_secs > 0.0 {
        k.computed_bytes / k.busy_secs / 1e9
    } else {
        0.0
    };
    out.metrics.set("kernel.calls", k.calls as f64 / rounds);
    out.metrics.set("kernel.busy_s", k.busy_secs / rounds);
    out.metrics.set(
        "kernel.ns_per_call",
        k.busy_secs * 1e9 / k.calls.max(1) as f64,
    );
    out.metrics.set("kernel.share", k.busy_secs / worker_secs);
    out.metrics.set("kernel.computed_gbps", gbps);
    out.metrics.set("kernel.roofline_frac", gbps / copy.gbps);
}

/// Exports `snapshot` to Chrome JSON, validates it, checks that the
/// validator saw every exported event, sets the obs metrics, and returns
/// the export.
pub fn measure_obs(out: &mut Outcome, snapshot: &TraceSnapshot) -> String {
    let t = Instant::now();
    let json = to_chrome_json(snapshot);
    let export_s = secs(t);
    let t = Instant::now();
    let verdict = validate_chrome_trace(&json);
    let validate_s = secs(t);
    let events = snapshot.total_events();
    out.tally.check(
        matches!(&verdict, Ok(stats) if stats.events == events),
        || format!("trace export/validation disagrees: {verdict:?} for {events} events"),
    );
    out.metrics.set("obs.trace_bytes", json.len() as f64);
    out.metrics.set("obs.events", events as f64);
    out.metrics.set(
        "obs.export_ns_per_event",
        export_s * 1e9 / events.max(1) as f64,
    );
    out.metrics.set(
        "obs.validate_ns_per_byte",
        validate_s * 1e9 / json.len().max(1) as f64,
    );
    json
}

/// True when every value is finite.
pub fn all_finite(values: &[f64]) -> bool {
    values.iter().all(|v| v.is_finite())
}
