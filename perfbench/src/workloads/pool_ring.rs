//! `pool-ring`: a large `ScaleRing` on the threaded pool, in the default
//! asynchronous mode and in synchronous mode, plus the same ring on the
//! sequential runtime as the single-thread baseline.
//!
//! The ring's kernel costs a few nanoseconds, so the runtime does nearly all
//! the work: pool, mailbox, detector and memory changes show here, kernel
//! changes should not.

use std::time::Instant;

use aiac_bench::scale::ScaleRing;
use aiac_core::config::RunConfig;
use aiac_core::kernel::IterativeKernel;
use aiac_core::report::RunReport;
use aiac_core::runtime::sequential::SequentialRuntime;
use aiac_core::runtime::threaded::ThreadedRuntime;
use aiac_obs::{TraceConfig, TraceSnapshot};

use super::{all_finite, secs, RunSpec, Size};
use crate::measure::{self, KernelProbe, TimedKernel};
use crate::outcome::{Outcome, Tally};

/// Stopping threshold (the `scale_pool` experiment's).
const EPSILON: f64 = 1e-8;
/// Local-convergence streak of the asynchronous mode.
const STREAK: usize = 3;
/// Spectral radius of the ring's iteration (`A + B + C` of [`ScaleRing`]).
const CONTRACTION: f64 = 0.7;
/// Largest accepted distance of any component from the fixed point.
const TOLERANCE: f64 = 100.0 * EPSILON / (1.0 - CONTRACTION);
/// Per-track ring of the traced run.
const TRACE_RING: usize = 256;

/// Ring blocks for `size`.
pub fn blocks(size: Size) -> usize {
    match size {
        Size::Full => 2_048,
        Size::Smoke => 64,
    }
}

/// Everything built before the first timed call.
pub struct Setup {
    /// Whether every block depends on exactly its two ring neighbours, the
    /// structure the expected solution assumes.
    pub is_ring: bool,
    ring: ScaleRing,
    async_cfg: RunConfig,
    sync_cfg: RunConfig,
    seq_cfg: RunConfig,
    threaded: ThreadedRuntime,
    sequential: SequentialRuntime,
    expected: Vec<f64>,
}

/// Builds the ring, the three configurations and the expected solution,
/// and checks the ring's dependency structure.
pub fn setup(blocks: usize, workers: usize, seed: u64) -> Setup {
    let ring = ScaleRing::new(blocks);
    let expected = vec![ring.fixed_point(); blocks];
    let is_ring =
        (0..blocks).all(|b| ring.dependencies(b) == [(b + blocks - 1) % blocks, (b + 1) % blocks]);
    Setup {
        is_ring,
        async_cfg: RunConfig::asynchronous(EPSILON)
            .with_streak(STREAK)
            .with_num_workers(workers)
            .with_seed(seed),
        sync_cfg: RunConfig::synchronous(EPSILON)
            .with_num_workers(workers)
            .with_seed(seed),
        seq_cfg: RunConfig::synchronous(EPSILON).with_seed(seed),
        threaded: ThreadedRuntime::new(),
        sequential: SequentialRuntime::new(),
        ring,
        expected,
    }
}

/// Checks one ring solve against the known fixed point.
pub fn check_ring(tally: &mut Tally, expected: &[f64], label: &str, report: &RunReport) {
    let s = &report.solution;
    let error = s
        .iter()
        .zip(expected)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, |m, e| if e.is_nan() { f64::NAN } else { m.max(e) });
    tally.check(
        report.converged && s.len() == expected.len() && all_finite(s) && error <= TOLERANCE,
        || format!("{label}: converged={} error={error:e}", report.converged),
    );
}

/// One mode's solve.
pub struct Solve {
    /// Wall time.
    pub wall_s: f64,
    /// The runtime's report.
    pub report: RunReport,
}

/// The three solves of one round: threaded async, threaded sync, sequential.
pub struct Round {
    /// The solves, in that order.
    pub solves: [Solve; 3],
    /// The threaded runs' merged event trace (empty unless tracing).
    pub trace: TraceSnapshot,
}

/// Runs the three modes once. With probes, the threaded runs' kernel goes
/// through `pool_probe` and the sequential run's through `seq_probe`.
pub fn round(
    s: &Setup,
    tracing: TraceConfig,
    probes: Option<(&KernelProbe, &KernelProbe)>,
    tally: &mut Tally,
) -> Round {
    let bytes = measure::block_io_bytes(&s.ring);
    let pool_timed = probes.map(|(p, _)| TimedKernel::new(&s.ring, p, bytes.clone()));
    let seq_timed = probes.map(|(_, q)| TimedKernel::new(&s.ring, q, bytes));
    let pool: &dyn IterativeKernel = pool_timed.as_ref().map_or(&s.ring, |t| t);
    let seq: &dyn IterativeKernel = seq_timed.as_ref().map_or(&s.ring, |t| t);
    let mut trace = TraceSnapshot::default();
    let mut threaded = |cfg: &RunConfig, label: &str| {
        let cfg = cfg.clone().with_tracing(tracing);
        let t = Instant::now();
        let (report, snapshot) = s.threaded.run_traced(pool, &cfg);
        let wall_s = secs(t);
        check_ring(tally, &s.expected, label, &report);
        trace.merge(snapshot);
        Solve { wall_s, report }
    };
    let a = threaded(&s.async_cfg, "threaded async");
    let b = threaded(&s.sync_cfg, "threaded sync");
    let t = Instant::now();
    let report = s.sequential.run(seq, &s.seq_cfg);
    let wall_s = secs(t);
    check_ring(tally, &s.expected, "sequential", &report);
    Round {
        solves: [a, b, Solve { wall_s, report }],
        trace,
    }
}

fn iterations(r: &RunReport) -> u64 {
    r.iterations.iter().sum()
}

/// Runs the workload.
pub fn run(spec: &RunSpec) -> Outcome {
    let mut out = Outcome::default();
    let workers = super::pool_workers();
    let n = blocks(spec.size);
    let (setup_s, s) = measure::time_setup(5, 200, || setup(n, workers, spec.seed));
    let rss_after_setup = measure::rss_mb();
    out.tally.check(s.is_ring, || {
        "the ring's dependencies are not its neighbours".into()
    });
    out.detail("workers", workers as f64, "count");

    if !spec.traced {
        let mut walls = Vec::new();
        let mut cpus = Vec::new();
        let mut per_mode: [Vec<f64>; 3] = Default::default();
        measure::run_rounds(spec.budget(), 1, |_| {
            let (time, r) = super::timed(|| round(&s, TraceConfig::off(), None, &mut out.tally));
            walls.push(time.wall_s);
            cpus.push(time.cpu_s);
            for (i, x) in r.solves.iter().enumerate() {
                per_mode[i].push(x.wall_s);
            }
        });
        super::set_end_to_end(&mut out, setup_s, &walls, &cpus);
        for (name, v) in ["async_wall_s", "sync_wall_s", "seq_wall_s"]
            .iter()
            .zip(&per_mode)
        {
            out.detail(name, measure::median(v), "s");
        }
        return out;
    }

    let pool_probe = KernelProbe::new();
    let seq_probe = KernelProbe::new();
    let mut plain_walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut traced: Vec<Round> = Vec::new();
    measure::run_rounds(spec.budget(), 2, |i| {
        if i % 2 == 0 {
            let r = round(&s, TraceConfig::off(), None, &mut out.tally);
            plain_walls.push(r.solves.iter().map(|x| x.wall_s).sum::<f64>());
        } else {
            let tracing = super::traced_config(TRACE_RING);
            let mut r = round(&s, tracing, Some((&pool_probe, &seq_probe)), &mut out.tally);
            traced_walls.push(r.solves.iter().map(|x| x.wall_s).sum::<f64>());
            // Keep the last round's trace only; drop the solutions.
            for x in &mut r.solves {
                x.report.solution = Vec::new();
            }
            if let Some(prev) = traced.last_mut() {
                prev.trace = TraceSnapshot::default();
            }
            traced.push(r);
        }
    });
    drop(s);
    let copy = super::calibrate(&mut out, spec.size);

    let rounds = traced.len() as f64;
    let w = workers as f64;
    let pool_wall: f64 = traced
        .iter()
        .map(|r| r.solves[0].wall_s + r.solves[1].wall_s)
        .sum();
    let seq_wall: f64 = traced.iter().map(|r| r.solves[2].wall_s).sum();
    let worker_secs = w * pool_wall + seq_wall;
    let pool_k = pool_probe.totals();
    let seq_k = seq_probe.totals();
    let k = pool_k.plus(seq_k);
    super::set_kernel_layer(&mut out, k, worker_secs, rounds, copy);

    let sum = |f: &dyn Fn(&RunReport) -> u64, modes: &[usize]| -> f64 {
        traced
            .iter()
            .flat_map(|r| modes.iter().map(move |&m| &r.solves[m].report))
            .map(f)
            .sum::<u64>() as f64
    };
    let all_iters = sum(&iterations, &[0, 1, 2]);
    let async_iters = sum(&iterations, &[0]);
    let sync_iters = sum(&iterations, &[1]);
    let steals = sum(&|r| r.steals, &[0, 1]);
    let failed = sum(&|r| r.failed_steal_attempts, &[0, 1]);
    let data = sum(&|r| r.data_messages, &[0, 1]);
    let coalesced = sum(&|r| r.coalesced_messages, &[0, 1]);
    let peak = traced
        .iter()
        .flat_map(|r| {
            r.solves[..2]
                .iter()
                .map(|x| x.report.peak_mailbox_occupancy)
        })
        .max()
        .unwrap_or(0);

    out.metrics.set("runtime.iterations", all_iters / rounds);
    out.metrics.set(
        "runtime.overhead_ns_per_iter",
        (worker_secs - k.busy_secs) * 1e9 / all_iters.max(1.0),
    );
    out.metrics.set("rss.after_setup_mb", rss_after_setup);
    out.metrics.set(
        "trace.overhead_ratio",
        measure::median(&traced_walls) / measure::median(&plain_walls),
    );
    out.metrics.set(
        "pool.self_share",
        (w * pool_wall - pool_k.busy_secs) / worker_secs,
    );
    out.metrics
        .set("seq.self_share", (seq_wall - seq_k.busy_secs) / worker_secs);
    out.metrics
        .set("pool.iterations", (async_iters + sync_iters) / rounds);
    out.metrics
        .set("pool.async_iter_ratio", async_iters / sync_iters.max(1.0));
    out.metrics.set("pool.steals", steals / rounds);
    out.metrics.set("pool.failed_steals", failed / rounds);
    out.metrics.set(
        "pool.steal_success_ratio",
        if steals + failed > 0.0 {
            steals / (steals + failed)
        } else {
            0.0
        },
    );
    out.metrics.set(
        "pool.local_pushes",
        sum(&|r| r.local_pushes, &[0, 1]) / rounds,
    );
    out.metrics.set(
        "pool.queue_waits",
        sum(&|r| r.queue_wait_events, &[0, 1]) / rounds,
    );
    out.metrics.set("mailbox.data_messages", data / rounds);
    out.metrics
        .set("mailbox.coalesced_ratio", coalesced / data.max(1.0));
    out.metrics.set("mailbox.peak_occupancy", peak as f64);
    let trace = traced.pop().map(|r| r.trace).unwrap_or_default();
    super::measure_obs(&mut out, &trace);
    out
}
