//! `trace-check`: `obs::to_chrome_json` plus `validate_chrome_trace` on a
//! fixed, bit-identical trace from the virtual-clock layers (a simulated
//! grid run and a service replay). Every other workload measures with
//! tracing off, so obs changes show here and nowhere else.

use std::time::Instant;

use aiac_core::config::RunConfig;
use aiac_core::kernel::IterativeKernel;
use aiac_core::runtime::simulated::{SimMetrics, SimulatedRuntime};
use aiac_envs::env::EnvKind;
use aiac_envs::threads::ProblemKind;
use aiac_netsim::topology::GridTopology;
use aiac_obs::{to_chrome_json, validate_chrome_trace, TraceConfig, TraceSnapshot};
use aiac_service::{run_virtual_traced, LoadSpec, ServiceConfig, TrafficSpec};
use aiac_solvers::sparse_linear::{SparseLinearParams, SparseLinearProblem};

use super::{secs, RunSpec, Size};
use crate::measure::{self, KernelProbe, TimedKernel};
use crate::outcome::{Outcome, Tally};

/// Blocks of the simulated grid run.
const BLOCKS: usize = 12;
/// Stopping threshold of the grid run.
const EPSILON: f64 = 1e-7;

/// The trace's sizes.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Sparse matrix dimension of the grid run.
    pub sparse_n: usize,
    /// Per-track ring capacity: bounds the trace size.
    pub ring: usize,
    /// Jobs of the service replay.
    pub jobs: usize,
}

impl Sizes {
    /// Sizes for `size`.
    pub fn of(size: Size) -> Self {
        match size {
            Size::Full => Sizes {
                sparse_n: 1_200,
                ring: 320,
                jobs: 1_800,
            },
            Size::Smoke => Sizes {
                sparse_n: 240,
                ring: 32,
                jobs: 200,
            },
        }
    }
}

/// What generating the trace produced besides the snapshot.
pub struct Generated {
    /// The merged trace.
    pub trace: TraceSnapshot,
    /// Wall time of the grid run.
    pub sim_wall_s: f64,
    /// The grid run's simulator counters.
    pub sim: SimMetrics,
}

/// Runs the traced grid run and the traced service replay and merges their
/// traces. With a probe, the grid kernel goes through the timing adapter;
/// with tracing off the snapshot is empty.
pub fn generate(sizes: Sizes, seed: u64, tracing: bool, probe: Option<&KernelProbe>) -> Generated {
    let trace_config = if tracing {
        TraceConfig::on().with_ring_capacity(sizes.ring)
    } else {
        TraceConfig::off()
    };
    let problem = SparseLinearProblem::new(SparseLinearParams {
        seed,
        ..SparseLinearParams::paper_scaled(sizes.sparse_n, BLOCKS)
    });
    let timed = probe.map(|p| TimedKernel::new(&problem, p, measure::block_io_bytes(&problem)));
    let kernel: &dyn IterativeKernel = match &timed {
        Some(t) => t,
        None => &problem,
    };
    let runtime = SimulatedRuntime::new(
        GridTopology::ethernet_3_sites(BLOCKS),
        EnvKind::Pm2,
        ProblemKind::SparseLinear,
    );
    let config = RunConfig::asynchronous(EPSILON)
        .with_streak(3)
        .with_seed(seed)
        .with_tracing(trace_config);
    let t = Instant::now();
    let outcome = runtime.run(kernel, &config);
    let sim_wall_s = secs(t);
    let load = LoadSpec {
        service: ServiceConfig::default().with_tracing(trace_config),
        traffic: TrafficSpec {
            seed,
            jobs: sizes.jobs,
            ..TrafficSpec::smoke()
        },
        cache_hit_cost_secs: 1e-6,
    };
    let (_, service_trace) = run_virtual_traced(&load);
    let sim = outcome.metrics();
    let mut trace = outcome.obs_trace;
    trace.merge(service_trace);
    Generated {
        trace,
        sim_wall_s,
        sim,
    }
}

/// Checks one export: valid, every event seen, both layers present, and
/// byte-identical to the reference export.
pub fn check_export(tally: &mut Tally, events: u64, json: &str, reference: &str) {
    let verdict = validate_chrome_trace(json);
    tally.check(
        json == reference
            && matches!(&verdict, Ok(stats) if stats.events == events
                && stats.layers.contains("netsim")
                && stats.layers.contains("service")),
        || match &verdict {
            Ok(stats) => format!(
                "trace export: {} of {events} events, layers {:?}, identical={}",
                stats.events,
                stats.layers,
                json == reference
            ),
            Err(err) => format!("trace export rejected: {err}"),
        },
    );
}

/// Runs the workload.
pub fn run(spec: &RunSpec) -> Outcome {
    let mut out = Outcome::default();
    let sizes = Sizes::of(spec.size);
    let (setup_s, g) = measure::time_setup(5, 1, || generate(sizes, spec.seed, true, None));
    let rss_after_setup = measure::rss_mb();
    let events = g.trace.total_events();
    let reference = to_chrome_json(&g.trace);
    out.detail(
        "trace_mib",
        reference.len() as f64 / (1 << 20) as f64,
        "MiB",
    );
    out.detail("trace_events", events as f64, "count");

    if !spec.traced {
        let mut walls = Vec::new();
        let mut cpus = Vec::new();
        measure::run_rounds(spec.budget(), 1, |_| {
            let (time, ()) = super::timed(|| {
                let json = to_chrome_json(&g.trace);
                check_export(&mut out.tally, events, &json, &reference);
            });
            walls.push(time.wall_s);
            cpus.push(time.cpu_s);
        });
        super::set_end_to_end(&mut out, setup_s, &walls, &cpus);
        return out;
    }

    // Traced run: regenerate the trace with the grid kernel behind the
    // timing adapter, then export and validate it; plain rounds regenerate
    // with tracing off for the overhead ratio.
    let probe = KernelProbe::new();
    let mut plain_walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut sim_wall = 0.0;
    let mut sim_iters = 0u64;
    let mut sim_messages = 0u64;
    let mut net_queue = 0.0;
    let mut virtual_s = 0.0;
    measure::run_rounds(spec.budget(), 2, |i| {
        let t = Instant::now();
        if i % 2 == 0 {
            generate(sizes, spec.seed, false, None);
            plain_walls.push(secs(t));
        } else {
            let regen = generate(sizes, spec.seed, true, Some(&probe));
            traced_walls.push(secs(t));
            sim_wall += regen.sim_wall_s;
            sim_iters += regen.sim.total_iterations;
            sim_messages += regen.sim.data_messages;
            net_queue += regen.sim.net_queue_secs;
            virtual_s += regen.sim.sim_time_secs;
            let json = super::measure_obs(&mut out, &regen.trace);
            out.tally.check(json == reference, || {
                "the regenerated trace differs from the set-up one".into()
            });
        }
    });
    let copy = super::calibrate(&mut out, spec.size);
    let k = probe.totals();
    let wall: f64 = traced_walls.iter().sum();
    let rounds = traced_walls.len() as f64;
    super::set_kernel_layer(&mut out, k, wall, rounds, copy);
    out.metrics
        .set("runtime.iterations", sim_iters as f64 / rounds);
    out.metrics.set(
        "runtime.overhead_ns_per_iter",
        (sim_wall - k.busy_secs) * 1e9 / sim_iters.max(1) as f64,
    );
    out.metrics.set("rss.after_setup_mb", rss_after_setup);
    out.metrics.set(
        "trace.overhead_ratio",
        measure::median(&traced_walls) / measure::median(&plain_walls),
    );
    out.metrics
        .set("sim.self_share", (sim_wall - k.busy_secs) / wall);
    out.metrics
        .set("sim.total_iterations", sim_iters as f64 / rounds);
    out.metrics
        .set("sim.data_messages", sim_messages as f64 / rounds);
    out.metrics
        .set("sim.net_queue_ratio", net_queue / virtual_s);
    out.metrics
        .set("sim.virtual_per_wall", virtual_s / sim_wall);
    out
}
