//! `service-open`: the `TrafficSpec::sustained()` job mix on a
//! `SolverService` with one worker per CPU, in two phases per round:
//!
//! * a paused backlog drain that measures capacity: each chunk of the
//!   seeded stream is admitted while dispatch is paused, then timed from
//!   `resume` to its last result;
//! * an open loop at two fixed offered rates: the seeded stream is re-timed
//!   to the rate, one generator thread sleeps until each job is due and
//!   submits it, and a job's latency is its submit lateness plus the
//!   service's own `JobResult::latency_secs`.
//!
//! This is the only workload that runs admission, DRR, the result cache and
//! the service worker loop.

use std::collections::{BTreeMap, HashMap};
use std::time::{Duration, Instant};

use aiac_core::config::RunConfig;
use aiac_core::runtime::sequential::SequentialRuntime;
use aiac_service::job::{self, ServiceRing};
use aiac_service::{
    job_key, run_real_load, run_real_load_traced, AdmissionError, JobId, JobResult, JobSpec,
    LoadReport, ServiceConfig, ServiceProblem, SolverService, TrafficSpec,
};
use aiac_solvers::sparse_linear::{SparseLinearParams, SparseLinearProblem};

use super::{all_finite, secs, RunSpec, Size};
use crate::measure::{self, KernelProbe, KernelTotals, TimedKernel};
use crate::outcome::{Outcome, Tally};

/// Spectral radius of the service ring's iteration.
const RING_CONTRACTION: f64 = 0.75;
/// Contraction bound of the service's sparse problems.
const SPARSE_CONTRACTION: f64 = 0.9;
/// Per-track ring of the traced service load.
const TRACE_RING: usize = 256;
/// Submit lateness above which a job counts as late, in seconds.
const LATE_SECS: f64 = 1e-3;
/// Longest wait for an outstanding result before it is declared lost.
const RESULT_TIMEOUT: Duration = Duration::from_secs(30);

/// The workload's sizes and offered rates.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Jobs drained per round.
    pub drain_jobs: usize,
    /// Jobs admitted per paused chunk (within the default admission bounds).
    pub chunk: usize,
    /// Low offered rate, jobs/s.
    pub lo_rate: f64,
    /// High offered rate, jobs/s.
    pub hi_rate: f64,
    /// Length of each open-loop phase, in seconds of offered arrivals.
    pub phase_secs: f64,
}

impl Sizes {
    /// Sizes for `size`.
    pub fn of(size: Size) -> Self {
        match size {
            Size::Full => Sizes {
                drain_jobs: 28_800,
                chunk: 1_800,
                lo_rate: 2_000.0,
                hi_rate: 6_000.0,
                phase_secs: 1.0,
            },
            Size::Smoke => Sizes {
                drain_jobs: 600,
                chunk: 300,
                lo_rate: 500.0,
                hi_rate: 1_000.0,
                phase_secs: 0.2,
            },
        }
    }
}

/// A job due at `due_secs` after the phase starts.
#[derive(Debug, Clone)]
pub struct Due {
    /// Offset from the start of the phase.
    pub due_secs: f64,
    /// The job.
    pub spec: JobSpec,
}

/// Known answers for every problem of the catalogue.
pub struct Answers {
    sparse: Vec<(ServiceProblem, SparseLinearProblem)>,
}

impl Answers {
    /// Builds the sparse problems of the catalogue once.
    pub fn new(traffic: &TrafficSpec) -> Self {
        let sparse = traffic
            .problems
            .iter()
            .filter_map(|m| match m.problem {
                ServiceProblem::SparseLinear { n, blocks } => Some((
                    m.problem,
                    SparseLinearProblem::new(SparseLinearParams::paper_scaled(n, blocks)),
                )),
                ServiceProblem::Ring { .. } => None,
            })
            .collect();
        Answers { sparse }
    }

    /// Max-norm error of `solution` for `spec`'s problem, `None` for an
    /// unknown problem.
    fn error(&self, spec: &JobSpec, solution: &[f64]) -> Option<f64> {
        match spec.problem {
            ServiceProblem::Ring { blocks } => {
                let fixed = ServiceRing::new(blocks).fixed_point();
                (solution.len() == blocks).then(|| {
                    solution
                        .iter()
                        .map(|v| (v - fixed).abs())
                        .fold(0.0, f64::max)
                })
            }
            ServiceProblem::SparseLinear { .. } => self
                .sparse
                .iter()
                .find(|(p, _)| *p == spec.problem)
                .filter(|(_, p)| p.params().n == solution.len())
                .map(|(_, p)| p.error_of(solution)),
        }
    }

    /// Checks one result: converged, not cancelled, finite, and within
    /// tolerance of the problem's known solution.
    pub fn check(&self, tally: &mut Tally, spec: &JobSpec, r: &JobResult) {
        let contraction = match spec.problem {
            ServiceProblem::Ring { .. } => RING_CONTRACTION,
            ServiceProblem::SparseLinear { .. } => SPARSE_CONTRACTION,
        };
        let tolerance = 100.0 * spec.epsilon / (1.0 - contraction);
        let error = self.error(spec, &r.solution);
        tally.check(
            r.converged
                && !r.cancelled
                && all_finite(&r.solution)
                && error.is_some_and(|e| e <= tolerance),
            || {
                format!(
                    "job {} ({}): converged={} cached={} error={error:?}",
                    r.job,
                    spec.problem.label(),
                    r.converged,
                    r.from_cache
                )
            },
        );
    }
}

/// Everything built before the first timed call.
pub struct Setup {
    config: ServiceConfig,
    drain: Vec<JobSpec>,
    lo: Vec<Due>,
    hi: Vec<Due>,
    answers: Answers,
    sizes: Sizes,
    seed: u64,
}

/// The sustained mix with `seed`, `jobs` long.
fn traffic(seed: u64, jobs: usize) -> TrafficSpec {
    TrafficSpec {
        seed,
        jobs,
        ..TrafficSpec::sustained()
    }
}

/// The seeded stream re-timed to an average offered `rate`: the opening
/// burst is dropped and every arrival time is scaled so that the stream
/// spans `jobs / rate` seconds.
pub fn open_loop_stream(seed: u64, rate: f64, secs: f64) -> Vec<Due> {
    let jobs = (rate * secs).round().max(1.0) as usize;
    let arrivals = TrafficSpec {
        initial_burst: 0,
        burst_prob: 0.0,
        ..traffic(seed, jobs)
    }
    .generate();
    let span = arrivals.last().map_or(0.0, |a| a.at_secs);
    let scale = if span > 0.0 { secs / span } else { 0.0 };
    arrivals
        .into_iter()
        .map(|a| Due {
            due_secs: a.at_secs * scale,
            spec: a.spec,
        })
        .collect()
}

/// Generates the streams, builds the known answers, and starts (and stops)
/// one service.
pub fn setup(sizes: Sizes, seed: u64, workers: usize) -> Setup {
    let config = ServiceConfig {
        workers,
        ..ServiceConfig::default()
    };
    let drain_traffic = traffic(seed, sizes.drain_jobs);
    let drain = drain_traffic
        .generate()
        .into_iter()
        .map(|a| a.spec)
        .collect();
    let lo = open_loop_stream(seed.wrapping_add(1), sizes.lo_rate, sizes.phase_secs);
    let hi = open_loop_stream(seed.wrapping_add(2), sizes.hi_rate, sizes.phase_secs);
    let answers = Answers::new(&drain_traffic);
    SolverService::start(config).shutdown();
    Setup {
        config,
        drain,
        lo,
        hi,
        answers,
        sizes,
        seed,
    }
}

fn refusal(tally: &mut Tally, refused: &mut [u64; 2], err: AdmissionError) {
    match err {
        AdmissionError::InFlightLimit { .. } => refused[0] += 1,
        AdmissionError::TenantQueueFull { .. } => refused[1] += 1,
        _ => {}
    }
    tally.fail(format!("job refused: {err:?}"));
}

/// Matches results to admitted jobs: exactly one result per job.
fn settle(
    tally: &mut Tally,
    answers: &Answers,
    admitted: &HashMap<JobId, usize>,
    specs: &dyn Fn(usize) -> JobSpec,
    results: &[JobResult],
) {
    let mut seen: HashMap<JobId, u32> = HashMap::with_capacity(results.len());
    for r in results {
        match admitted.get(&r.job) {
            Some(&i) => {
                *seen.entry(r.job).or_default() += 1;
                answers.check(tally, &specs(i), r);
            }
            None => tally.fail(format!("result for unknown job {}", r.job)),
        }
    }
    for (job, _) in admitted.iter().filter(|(j, _)| !seen.contains_key(j)) {
        tally.check(false, || format!("job {job} admitted but never answered"));
    }
    for (job, n) in seen.into_iter().filter(|(_, n)| *n > 1) {
        tally.fail(format!("job {job} answered {n} times"));
    }
}

/// Receives `expected` results, giving up after [`RESULT_TIMEOUT`] of
/// silence.
fn collect(rx: &std::sync::mpsc::Receiver<JobResult>, expected: usize) -> Vec<JobResult> {
    let mut results = Vec::with_capacity(expected);
    while results.len() < expected {
        match rx.recv_timeout(RESULT_TIMEOUT) {
            Ok(r) => results.push(r),
            Err(_) => break,
        }
    }
    results
}

/// What one drain pass measured.
#[derive(Default)]
pub struct Drain {
    /// Seconds from `resume` to the last result, per chunk.
    pub chunk_walls: Vec<f64>,
    /// Process CPU seconds over the same intervals, summed over chunks.
    pub cpu_s: f64,
    /// Every result, in completion order per chunk.
    pub results: Vec<(usize, JobResult)>,
    /// Wall time of each `submit` call.
    pub submit_secs: Vec<f64>,
    /// Cache hits and misses, summed over chunks.
    pub cache: (u64, u64),
    /// Refusals: in-flight limit, tenant queue full.
    pub refused: [u64; 2],
}

/// Drains the backlog stream chunk by chunk on paused services.
pub fn drain(s: &Setup, tally: &mut Tally) -> Drain {
    let mut d = Drain::default();
    for (c, chunk) in s.drain.chunks(s.sizes.chunk).enumerate() {
        let base = c * s.sizes.chunk;
        let service = SolverService::start_paused(s.config);
        let mut admitted = HashMap::with_capacity(chunk.len());
        for (i, spec) in chunk.iter().enumerate() {
            let t = Instant::now();
            let verdict = service.submit(spec.clone());
            d.submit_secs.push(secs(t));
            match verdict {
                Ok(ticket) => {
                    admitted.insert(ticket.id, base + i);
                }
                Err(err) => refusal(tally, &mut d.refused, err),
            }
        }
        let rx = service
            .take_results()
            .expect("a fresh service holds its receiver");
        let (time, results) = super::timed(|| {
            service.resume();
            collect(&rx, admitted.len())
        });
        d.chunk_walls.push(time.wall_s);
        d.cpu_s += time.cpu_s;
        let (hits, misses) = service.cache_stats();
        d.cache.0 += hits;
        d.cache.1 += misses;
        service.shutdown();
        settle(
            tally,
            &s.answers,
            &admitted,
            &|i| s.drain[i].clone(),
            &results,
        );
        d.results.extend(
            results
                .into_iter()
                .filter_map(|r| admitted.get(&r.job).map(|&i| (i, r))),
        );
    }
    d
}

/// What one open-loop phase measured.
pub struct OpenLoop {
    /// Latency of every offered job from its due time, in seconds;
    /// refused or lost jobs are infinite.
    pub latencies: Vec<f64>,
    /// Submit lateness of every offered job, in seconds.
    pub lateness: Vec<f64>,
    /// Refusals: in-flight limit, tenant queue full.
    pub refused: [u64; 2],
}

/// Offers `stream` to a fresh service at its due times.
pub fn open_loop(s: &Setup, stream: &[Due], tally: &mut Tally) -> OpenLoop {
    let service = SolverService::start(s.config);
    let rx = service
        .take_results()
        .expect("a fresh service holds its receiver");
    // This thread is the generator. Results queue up in the channel and are
    // read once every job has been offered; each carries its own latency.
    let mut admitted = HashMap::with_capacity(stream.len());
    let mut lateness = Vec::with_capacity(stream.len());
    let mut refused_errs = Vec::new();
    let start = Instant::now();
    for (i, job) in stream.iter().enumerate() {
        let now = secs(start);
        if job.due_secs > now {
            std::thread::sleep(Duration::from_secs_f64(job.due_secs - now));
        }
        let late = (secs(start) - job.due_secs).max(0.0);
        lateness.push(late);
        match service.submit(job.spec.clone()) {
            Ok(ticket) => {
                admitted.insert(ticket.id, (i, late));
            }
            Err(err) => refused_errs.push(err),
        }
    }
    let results = collect(&rx, admitted.len());
    service.shutdown();
    let mut refused = [0; 2];
    for err in refused_errs {
        refusal(tally, &mut refused, err);
    }
    let indices: HashMap<JobId, usize> = admitted.iter().map(|(&j, &(i, _))| (j, i)).collect();
    settle(
        tally,
        &s.answers,
        &indices,
        &|i| stream[i].spec.clone(),
        &results,
    );
    let mut latencies = vec![f64::INFINITY; stream.len()];
    for r in &results {
        if let Some(&(i, late)) = admitted.get(&r.job) {
            latencies[i] = late + r.latency_secs.max(0.0);
        }
    }
    OpenLoop {
        latencies,
        lateness,
        refused,
    }
}

/// One round: the drain, then the low and the high offered rate.
pub struct Round {
    /// The drain phase.
    pub drain: Drain,
    /// The low-rate phase.
    pub lo: OpenLoop,
    /// The high-rate phase.
    pub hi: OpenLoop,
}

/// Runs one round.
pub fn round(s: &Setup, tally: &mut Tally) -> Round {
    Round {
        drain: drain(s, tally),
        lo: open_loop(s, &s.lo, tally),
        hi: open_loop(s, &s.hi, tally),
    }
}

/// Solves every distinct job of `jobs` once outside the service: timed
/// through `job::solve`, and again with the kernel behind the timing
/// adapter. Returns, per cache key, the solve time and the kernel totals.
fn distinct_solves<'a>(
    jobs: impl Iterator<Item = &'a JobSpec>,
) -> HashMap<u64, (f64, KernelTotals)> {
    let mut costs = HashMap::new();
    for spec in jobs {
        costs.entry(job_key(spec)).or_insert_with(|| {
            let t = Instant::now();
            std::hint::black_box(job::solve(spec, None));
            let solve_s = secs(t);
            let probe = KernelProbe::new();
            let kernel = spec.problem.build();
            let bytes = measure::block_io_bytes(kernel.as_ref());
            let timed = TimedKernel::new(kernel.as_ref(), &probe, bytes);
            let config = RunConfig::synchronous(spec.epsilon).with_max_iterations(spec.max_sweeps);
            std::hint::black_box(SequentialRuntime::new().run(&timed, &config));
            (solve_s, probe.totals())
        });
    }
    costs
}

/// Runs the workload.
pub fn run(spec: &RunSpec) -> Outcome {
    let mut out = Outcome::default();
    let workers = measure::nproc();
    let sizes = Sizes::of(spec.size);
    let (setup_s, s) = measure::time_setup(5, 1, || setup(sizes, spec.seed, workers));
    let rss_after_setup = measure::rss_mb();
    out.detail("workers", workers as f64, "count");
    out.detail("lo_rate", sizes.lo_rate, "jobs/s");
    out.detail("hi_rate", sizes.hi_rate, "jobs/s");

    let budget = if spec.traced {
        spec.budget() / 2
    } else {
        spec.budget()
    };
    let mut chunk_walls = Vec::new();
    let mut cpus = Vec::new();
    let mut lo = Vec::new();
    let mut hi = Vec::new();
    let mut late = Vec::new();
    let mut last: Option<Round> = None;
    let mut refused = [0u64; 2];
    measure::run_rounds(budget, 1, |_| {
        let r = round(&s, &mut out.tally);
        chunk_walls.extend_from_slice(&r.drain.chunk_walls);
        cpus.push(r.drain.cpu_s);
        lo.extend_from_slice(&r.lo.latencies);
        hi.extend_from_slice(&r.hi.latencies);
        late.extend(r.lo.lateness.iter().chain(&r.hi.lateness));
        for phase in [r.drain.refused, r.lo.refused, r.hi.refused] {
            refused[0] += phase[0];
            refused[1] += phase[1];
        }
        last = Some(r);
    });
    let last = last.expect("at least one round");

    if !spec.traced {
        // The drain's wall time is the median chunk scaled to the whole
        // backlog: robust to a chunk that lost its CPUs to the host.
        let chunks = s.drain.len().div_ceil(s.sizes.chunk) as f64;
        let walls: Vec<f64> = chunk_walls.iter().map(|w| w * chunks).collect();
        super::set_end_to_end(&mut out, setup_s, &walls, &cpus);
        out.detail(
            "capacity_jobs_per_s",
            s.drain.len() as f64 / measure::median(&walls),
            "jobs/s",
        );
        for (name, v) in [("lo", &lo), ("hi", &hi)] {
            out.detail(
                &format!("latency_p50_ms.{name}"),
                measure::median(v) * 1e3,
                "ms",
            );
            out.detail(
                &format!("latency_p99_ms.{name}"),
                measure::quantile(v, 0.99) * 1e3,
                "ms",
            );
            out.detail(&format!("latency_samples.{name}"), v.len() as f64, "count");
        }
        return out;
    }

    // Attribution of the last round's drain: every cache miss ran
    // `job::solve` once on a worker.
    let d = &last.drain;
    let misses: Vec<&JobSpec> = d
        .results
        .iter()
        .filter(|(_, r)| !r.from_cache)
        .map(|(i, _)| &s.drain[*i])
        .collect();
    let costs = distinct_solves(misses.iter().copied());
    let mut solve_s = 0.0;
    let mut k = KernelTotals::default();
    for m in &misses {
        let (sv, kt) = costs[&job_key(m)];
        solve_s += sv;
        k = k.plus(kt);
    }
    let worker_secs = workers as f64 * d.chunk_walls.iter().sum::<f64>();
    let solve_times: Vec<f64> = costs.values().map(|c| c.0).collect();
    let chunk = s.sizes.chunk;

    // A traced and an untraced load on one chunk of the stream.
    let chunk_traffic = traffic(s.seed, s.sizes.chunk);
    let traced_config = s.config.with_tracing(super::traced_config(TRACE_RING));
    let plain = run_real_load(&s.config, &chunk_traffic);
    let (traced, trace) = run_real_load_traced(&traced_config, &chunk_traffic);
    for report in [&plain, &traced] {
        out.tally
            .check(report.lost() == 0 && report.rejected == 0, || {
                format!(
                    "real load: {} generated, {} completed, {} rejected",
                    report.generated, report.completed, report.rejected
                )
            });
    }

    drop(s);
    let copy = super::calibrate(&mut out, spec.size);
    super::set_kernel_layer(&mut out, k, worker_secs, 1.0, copy);
    out.metrics.set("runtime.iterations", k.calls as f64);
    out.metrics.set(
        "runtime.overhead_ns_per_iter",
        (solve_s - k.busy_secs) * 1e9 / k.calls.max(1) as f64,
    );
    out.metrics.set("rss.after_setup_mb", rss_after_setup);
    out.metrics.set(
        "trace.overhead_ratio",
        traced.makespan_secs / plain.makespan_secs,
    );
    out.metrics
        .set("seq.self_share", (solve_s - k.busy_secs) / worker_secs);
    out.metrics
        .set("svc.self_share", (worker_secs - solve_s) / worker_secs);
    let (hits, miss_count) = d.cache;
    out.metrics.set(
        "svc.cache_hit_ratio",
        hits as f64 / (hits + miss_count).max(1) as f64,
    );
    out.metrics.set("svc.rejected_in_flight", refused[0] as f64);
    out.metrics
        .set("svc.rejected_tenant_full", refused[1] as f64);
    out.metrics
        .set("drr.fairness_ratio", early_fairness(&d.results, chunk));
    out.metrics.set(
        "gen.late_frac",
        late.iter().filter(|&&l| l > LATE_SECS).count() as f64 / late.len().max(1) as f64,
    );
    out.detail(
        "svc.submit_ns_p50",
        measure::median(&d.submit_secs) * 1e9,
        "ns",
    );
    out.detail(
        "svc.submit_ns_p99",
        measure::quantile(&d.submit_secs, 0.99) * 1e9,
        "ns",
    );
    out.detail(
        "svc.solve_us_p50",
        measure::median(&solve_times) * 1e6,
        "us",
    );
    out.detail(
        "svc.solve_us_p99",
        measure::quantile(&solve_times, 0.99) * 1e6,
        "us",
    );
    out.detail(
        "svc.overhead_us_per_job",
        (worker_secs - solve_s) * 1e6 / d.results.len().max(1) as f64,
        "us",
    );
    out.detail(
        "gen.late_ms_p99",
        measure::quantile(&late, 0.99) * 1e3,
        "ms",
    );
    out.detail(
        "gen.late_ms_max",
        late.iter().copied().fold(0.0, f64::max) * 1e3,
        "ms",
    );
    super::measure_obs(&mut out, &trace);
    out
}

/// DRR fairness while every tenant is backlogged: the program's own
/// goodput ratio (`LoadReport::fairness_ratio`) over the first half of each
/// chunk's completions. `results` holds each chunk's results in completion
/// order, keyed by stream index.
fn early_fairness(results: &[(usize, JobResult)], chunk: usize) -> f64 {
    let mut report = LoadReport {
        generated: 0,
        completed: 0,
        rejected: 0,
        rejected_tenant_full: 0,
        rejected_in_flight: 0,
        cache_hits: 0,
        cache_misses: 0,
        peak_in_flight: 0,
        in_flight_bound: 0,
        makespan_secs: 0.0,
        latencies: Vec::new(),
        per_tenant_goodput: BTreeMap::new(),
        per_tenant_admitted: BTreeMap::new(),
        per_tenant_submitted: BTreeMap::new(),
    };
    for group in results.chunk_by(|a, b| a.0 / chunk == b.0 / chunk) {
        for (n, (_, r)) in group.iter().enumerate() {
            *report.per_tenant_admitted.entry(r.tenant).or_default() += 1;
            if n < group.len() / 2 {
                *report.per_tenant_goodput.entry(r.tenant).or_default() += 1;
            }
        }
    }
    report.fairness_ratio()
}
