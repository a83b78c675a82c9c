//! `paper-grid`: the simulated grid cells of Tables 2 and 3.
//!
//! Table 2 is the sparse linear problem on `ethernet_3_sites`, Table 3 the
//! chemical problem on `ethernet_adsl_4_sites`; each runs as sync-MPI and as
//! async-PM2 on the simulated runtime, single-threaded. The kernel does
//! nearly all the work, so kernel changes show here and pool or service
//! changes should not.

use std::time::Instant;

use aiac_core::config::RunConfig;
use aiac_core::kernel::IterativeKernel;
use aiac_core::runtime::simulated::{SimMetrics, SimulatedRuntime, SimulationOutcome};
use aiac_envs::env::EnvKind;
use aiac_envs::threads::ProblemKind;
use aiac_netsim::topology::GridTopology;
use aiac_obs::{TraceConfig, TraceSnapshot};
use aiac_solvers::chemical::{ChemicalParams, ChemicalProblem, ChemicalSolution};
use aiac_solvers::sparse_linear::{SparseLinearParams, SparseLinearProblem};
use aiac_solvers::verify;

use super::{all_finite, secs, RunSpec, Size};
use crate::measure::{self, KernelProbe, KernelTotals, TimedKernel};
use crate::outcome::{Outcome, Tally};

/// Blocks (= simulated processors) of both tables.
const BLOCKS: usize = 12;
/// Stopping threshold of the sparse problem (the harness's scaled value).
const SPARSE_EPSILON: f64 = 1e-7;
/// Local-convergence streak of the asynchronous runs.
const STREAK: usize = 3;
/// Largest accepted max-norm error of a sparse solution: the contraction
/// factor 0.9 bounds the error by ε / (1 − 0.9) = 10 ε; ten times that.
const SPARSE_TOLERANCE: f64 = 100.0 * SPARSE_EPSILON;
/// Largest accepted relative difference from the chemical reference. The
/// stopping test at the problem's ε = 1e-8 leaves the synchronous run about
/// 2.2e-4 away from a reference solved to ε / 1000 (60 × 60 grid); the
/// tolerance allows under five times that.
const CHEM_TOLERANCE: f64 = 1e-3;
/// Per-track ring of the traced run: keeps the round's trace small.
const TRACE_RING: usize = 16;

/// The problem sizes of one run.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Sparse matrix dimension.
    pub sparse_n: usize,
    /// Chemical grid points per axis.
    pub chem_grid: usize,
    /// Chemical time interval in seconds.
    pub chem_t_end: f64,
}

impl Sizes {
    /// Sizes for `size`.
    pub fn of(size: Size) -> Self {
        match size {
            Size::Full => Sizes {
                sparse_n: 3_000,
                chem_grid: 60,
                chem_t_end: 720.0,
            },
            Size::Smoke => Sizes {
                sparse_n: 480,
                chem_grid: 12,
                chem_t_end: 360.0,
            },
        }
    }
}

/// Everything built before the first timed call.
pub struct Setup {
    sparse: SparseLinearProblem,
    chem: ChemicalProblem,
    chem_reference: ChemicalSolution,
    sparse_sync: SimulatedRuntime,
    sparse_async: SimulatedRuntime,
    chem_sync: SimulatedRuntime,
    chem_async: SimulatedRuntime,
    sparse_bytes: Vec<u64>,
    seed: u64,
}

fn chem_params(sizes: Sizes) -> ChemicalParams {
    let mut p = ChemicalParams::paper_scaled(sizes.chem_grid, sizes.chem_grid, BLOCKS);
    p.t_end = sizes.chem_t_end;
    p
}

/// Builds the problems, the topologies and the chemical reference.
pub fn setup(sizes: Sizes, seed: u64) -> Setup {
    let sparse = SparseLinearProblem::new(SparseLinearParams {
        seed,
        ..SparseLinearParams::paper_scaled(sizes.sparse_n, BLOCKS)
    });
    let chem = ChemicalProblem::new(chem_params(sizes));
    let chem_reference = verify::chemical_reference(&chem, chem.params().epsilon * 1e-3);
    let eth = GridTopology::ethernet_3_sites(BLOCKS);
    let adsl = GridTopology::ethernet_adsl_4_sites(BLOCKS);
    let sim = |topo: &GridTopology, env, kind| SimulatedRuntime::new(topo.clone(), env, kind);
    let sparse_bytes = sparse_update_bytes(&sparse);
    Setup {
        sparse_sync: sim(&eth, EnvKind::MpiSync, ProblemKind::SparseLinear),
        sparse_async: sim(&eth, EnvKind::Pm2, ProblemKind::SparseLinear),
        chem_sync: sim(&adsl, EnvKind::MpiSync, ProblemKind::NonLinearChemical),
        chem_async: sim(&adsl, EnvKind::Pm2, ProblemKind::NonLinearChemical),
        sparse,
        chem,
        chem_reference,
        sparse_bytes,
        seed,
    }
}

/// Bytes one sparse block update touches: assembling the global iterate
/// (zero fill plus the copied blocks), one pass over the block's CSR rows,
/// the right-hand side and the residual, one pass over the dense LU factors
/// of the diagonal block, and the update of the block itself.
fn sparse_update_bytes(p: &SparseLinearProblem) -> Vec<u64> {
    let n = p.params().n;
    (0..p.num_blocks())
        .map(|b| {
            let range = p.partition().range(b);
            let len = range.len();
            let nnz = p.matrix().row_block(range).nnz();
            let deps: usize = p.dependencies(b).iter().map(|&d| p.block_len(d)).sum();
            let assemble = n + len + deps;
            let residual = 2 * nnz + (len + 1) + 2 * len;
            let precondition = len * len + 2 * len;
            (8 * (assemble + residual + precondition + 3 * len)) as u64
        })
        .collect()
}

/// Bytes one chemical block update touches: the block and its neighbours
/// once, plus one pass over a GMRES Krylov basis of the block.
fn chem_update_bytes(kernel: &dyn IterativeKernel, restart: usize) -> Vec<u64> {
    measure::block_io_bytes(kernel)
        .into_iter()
        .enumerate()
        .map(|(b, io)| io + (8 * (restart + 1) * kernel.block_len(b)) as u64)
        .collect()
}

fn sync_config(epsilon: f64, seed: u64, tracing: TraceConfig) -> RunConfig {
    RunConfig::synchronous(epsilon)
        .with_seed(seed)
        .with_tracing(tracing)
}

fn async_config(epsilon: f64, seed: u64, tracing: TraceConfig) -> RunConfig {
    RunConfig::asynchronous(epsilon)
        .with_streak(STREAK)
        .with_seed(seed)
        .with_tracing(tracing)
}

/// The measurements of one cell.
#[derive(Debug, Clone, Default)]
pub struct Cell {
    /// Wall time of the solve.
    pub wall_s: f64,
    /// Virtual time to solution.
    pub virtual_s: f64,
    /// Distance from the known answer: max-norm error (sparse) or relative
    /// difference from the reference (chemical).
    pub error: f64,
    /// Simulator counters, summed over time steps.
    pub sim: SimTotals,
}

/// Simulator counters summed over one or more runs.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimTotals {
    /// Block iterations.
    pub iterations: u64,
    /// Data messages.
    pub data_messages: u64,
    /// Network queueing, in virtual seconds.
    pub net_queue_secs: f64,
}

impl SimTotals {
    fn add(&mut self, m: &SimMetrics) {
        self.iterations += m.total_iterations;
        self.data_messages += m.data_messages;
        self.net_queue_secs += m.net_queue_secs;
    }
}

/// The four cells of one round, in order: sparse sync, sparse async,
/// chemical sync, chemical async.
pub struct Round {
    /// Per-cell measurements.
    pub cells: [Cell; 4],
    /// The merged event trace (empty unless tracing was on).
    pub trace: TraceSnapshot,
}

/// Checks a sparse solve: converged, finite, and within tolerance of the
/// exact solution the matrix was generated from. Returns the error.
pub fn check_sparse(
    tally: &mut Tally,
    p: &SparseLinearProblem,
    label: &str,
    o: &SimulationOutcome,
) -> f64 {
    let r = &o.report;
    let error = p.error_of(&r.solution);
    tally.check(
        r.converged && all_finite(&r.solution) && error <= SPARSE_TOLERANCE,
        || format!("{label}: converged={} error={error:e}", r.converged),
    );
    error
}

/// Checks a chemical integration against the sequential reference and
/// returns the relative difference.
pub fn check_chem(
    tally: &mut Tally,
    reference: &ChemicalSolution,
    label: &str,
    s: &ChemicalSolution,
) -> f64 {
    let diff = verify::max_relative_difference(&s.final_state, &reference.final_state, 1.0);
    tally.check(
        s.all_converged && all_finite(&s.final_state) && diff <= CHEM_TOLERANCE,
        || {
            format!(
                "{label}: converged={} relative difference {diff:e}",
                s.all_converged
            )
        },
    );
    diff
}

/// Runs the four cells once. With a probe, every kernel goes through the
/// timing adapter.
pub fn round(
    s: &Setup,
    tracing: TraceConfig,
    probe: Option<&KernelProbe>,
    tally: &mut Tally,
) -> Round {
    let mut trace = TraceSnapshot::default();
    let sparse_timed = probe.map(|p| TimedKernel::new(&s.sparse, p, s.sparse_bytes.clone()));
    let sparse: &dyn IterativeKernel = match &sparse_timed {
        Some(t) => t,
        None => &s.sparse,
    };
    let mut sparse_cell = |rt: &SimulatedRuntime, cfg: RunConfig, label: &str| {
        let t = Instant::now();
        let o = rt.run(sparse, &cfg);
        let wall_s = secs(t);
        let error = check_sparse(tally, &s.sparse, label, &o);
        let mut sim = SimTotals::default();
        sim.add(&o.metrics());
        trace.merge(o.obs_trace);
        Cell {
            wall_s,
            virtual_s: o.sim_time.as_secs(),
            error,
            sim,
        }
    };
    let eps = SPARSE_EPSILON;
    let c0 = sparse_cell(
        &s.sparse_sync,
        sync_config(eps, s.seed, tracing),
        "sparse sync-MPI",
    );
    let c1 = sparse_cell(
        &s.sparse_async,
        async_config(eps, s.seed, tracing),
        "sparse async-PM2",
    );

    let restart = s.chem.params().gmres.restart;
    let mut chem_cell = |rt: &SimulatedRuntime, cfg: RunConfig, label: &str| {
        let mut sim = SimTotals::default();
        let mut steps_trace = TraceSnapshot::default();
        let t = Instant::now();
        let solution = s.chem.solve_with(|kernel, _| {
            let o = match probe {
                Some(p) => {
                    let bytes = chem_update_bytes(kernel, restart);
                    rt.run(&TimedKernel::new(kernel, p, bytes), &cfg)
                }
                None => rt.run(kernel, &cfg),
            };
            sim.add(&o.metrics());
            steps_trace.merge(o.obs_trace);
            o.report
        });
        let wall_s = secs(t);
        let error = check_chem(tally, &s.chem_reference, label, &solution);
        trace.merge(steps_trace);
        Cell {
            wall_s,
            virtual_s: solution.total_elapsed_secs,
            error,
            sim,
        }
    };
    let eps = s.chem.params().epsilon;
    let c2 = chem_cell(
        &s.chem_sync,
        sync_config(eps, s.seed, tracing),
        "chem sync-MPI",
    );
    let c3 = chem_cell(
        &s.chem_async,
        async_config(eps, s.seed, tracing),
        "chem async-PM2",
    );
    Round {
        cells: [c0, c1, c2, c3],
        trace,
    }
}

const CELL_NAMES: [&str; 4] = ["sparse_sync", "sparse_async", "chem_sync", "chem_async"];

/// Runs the workload.
pub fn run(spec: &RunSpec) -> Outcome {
    let mut out = Outcome::default();
    let sizes = Sizes::of(spec.size);
    let (setup_s, s) = measure::time_setup(5, 1, || setup(sizes, spec.seed));
    let rss_after_setup = measure::rss_mb();
    let tracing_on = super::traced_config(TRACE_RING);

    if !spec.traced {
        let mut walls = Vec::new();
        let mut cpus = Vec::new();
        let mut cells: [Vec<f64>; 4] = Default::default();
        let mut last: Option<Round> = None;
        measure::run_rounds(spec.budget(), 1, |_| {
            let (time, r) = super::timed(|| round(&s, TraceConfig::off(), None, &mut out.tally));
            walls.push(time.wall_s);
            cpus.push(time.cpu_s);
            for (i, c) in r.cells.iter().enumerate() {
                cells[i].push(c.wall_s);
            }
            last = Some(r);
        });
        super::set_end_to_end(&mut out, setup_s, &walls, &cpus);
        let r = last.expect("at least one round");
        for (i, (name, cell)) in CELL_NAMES.iter().zip(&r.cells).enumerate() {
            out.detail(&format!("{name}_wall_s"), measure::median(&cells[i]), "s");
            out.detail(&format!("{name}_virtual_s"), cell.virtual_s, "s");
            out.detail(&format!("{name}_error"), cell.error, "ratio");
        }
        return out;
    }

    // Traced run: alternate plain and traced rounds; the traced ones time
    // every kernel call and record events.
    let probe = KernelProbe::new();
    let mut plain_walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut traced_cells: Vec<[Cell; 4]> = Vec::new();
    let mut trace = TraceSnapshot::default();
    measure::run_rounds(spec.budget(), 2, |i| {
        if i % 2 == 0 {
            let r = round(&s, TraceConfig::off(), None, &mut out.tally);
            plain_walls.push(r.cells.iter().map(|c| c.wall_s).sum::<f64>());
        } else {
            let r = round(&s, tracing_on, Some(&probe), &mut out.tally);
            traced_walls.push(r.cells.iter().map(|c| c.wall_s).sum::<f64>());
            traced_cells.push(r.cells);
            trace = r.trace;
        }
    });
    drop(s);
    let copy = super::calibrate(&mut out, spec.size);
    let k: KernelTotals = probe.totals();
    let wall: f64 = traced_walls.iter().sum();
    let rounds = traced_cells.len() as f64;
    super::set_kernel_layer(&mut out, k, wall, rounds, copy);
    let mut sim = SimTotals::default();
    let mut virtual_s = [0.0; 4];
    for cells in &traced_cells {
        for (i, c) in cells.iter().enumerate() {
            sim.iterations += c.sim.iterations;
            sim.data_messages += c.sim.data_messages;
            sim.net_queue_secs += c.sim.net_queue_secs;
            virtual_s[i] += c.virtual_s;
        }
    }
    let total_virtual: f64 = virtual_s.iter().sum();
    out.metrics
        .set("runtime.iterations", sim.iterations as f64 / rounds);
    out.metrics.set(
        "runtime.overhead_ns_per_iter",
        (wall - k.busy_secs) * 1e9 / sim.iterations.max(1) as f64,
    );
    out.metrics.set("rss.after_setup_mb", rss_after_setup);
    out.metrics.set(
        "trace.overhead_ratio",
        measure::median(&traced_walls) / measure::median(&plain_walls),
    );
    out.metrics
        .set("sim.self_share", (wall - k.busy_secs) / wall);
    out.metrics
        .set("sim.total_iterations", sim.iterations as f64 / rounds);
    out.metrics
        .set("sim.data_messages", sim.data_messages as f64 / rounds);
    out.metrics
        .set("sim.net_queue_ratio", sim.net_queue_secs / total_virtual);
    out.metrics
        .set("sim.virtual_per_wall", total_virtual / wall);
    out.metrics
        .set("sim.sparse_speed_ratio", virtual_s[0] / virtual_s[1]);
    out.metrics
        .set("sim.chem_speed_ratio", virtual_s[2] / virtual_s[3]);
    super::measure_obs(&mut out, &trace);
    out
}
