//! Smoke-size self-tests: every workload runs its real checks on tiny
//! inputs in seconds, and deliberately corrupted answers are counted as
//! failed operations.

use aiac_bench::scale::ScaleRing;
use aiac_core::config::RunConfig;
use aiac_core::runtime::sequential::SequentialRuntime;
use aiac_core::runtime::simulated::SimulatedRuntime;
use aiac_envs::env::EnvKind;
use aiac_envs::threads::ProblemKind;
use aiac_netsim::topology::GridTopology;
use aiac_obs::to_chrome_json;
use aiac_perfbench::outcome::{END_TO_END, PER_LAYER_SPECIFIC, PER_LAYER_UNIVERSAL};
use aiac_perfbench::workloads::{self, paper_grid, pool_ring, service_open, trace_check};
use aiac_perfbench::{RunSpec, Size, Tally, Workload};
use aiac_service::{JobResult, JobSpec, ServiceProblem, TrafficSpec};
use aiac_solvers::chemical::{ChemicalParams, ChemicalProblem};
use aiac_solvers::sparse_linear::{SparseLinearParams, SparseLinearProblem};
use aiac_solvers::verify;

fn smoke(workload: Workload, traced: bool) -> aiac_perfbench::Outcome {
    workloads::run(&RunSpec {
        workload,
        seed: 7,
        seconds: 0.0,
        traced,
        size: Size::Smoke,
    })
}

fn assert_clean(workload: Workload, traced: bool) {
    let out = smoke(workload, traced);
    assert!(out.tally.attempted > 0, "{workload:?}: nothing was checked");
    assert_eq!(
        out.tally.failed, 0,
        "{workload:?} traced={traced}: {:?}",
        out.tally.failures
    );
    assert!(out.missing(traced).is_empty(), "{:?}", out.missing(traced));
    assert!(out.correct(traced));
    let names: Vec<&str> = if traced {
        PER_LAYER_UNIVERSAL
            .iter()
            .chain(&PER_LAYER_SPECIFIC)
            .map(|(n, _)| *n)
            .collect()
    } else {
        END_TO_END.iter().map(|(n, _)| *n).collect()
    };
    let json = out.render_json(traced);
    for name in names {
        assert!(
            json.contains(&format!("\"{name}\"")),
            "{name} missing from {json}"
        );
    }
    if !traced {
        for (name, _) in END_TO_END {
            let v = out.metrics.get(name).unwrap();
            assert!(v > 0.0, "{workload:?}: end-to-end metric {name} = {v}");
        }
    }
}

#[test]
fn paper_grid_smoke_passes_its_checks() {
    assert_clean(Workload::PaperGrid, false);
    assert_clean(Workload::PaperGrid, true);
}

#[test]
fn pool_ring_smoke_passes_its_checks() {
    assert_clean(Workload::PoolRing, false);
    assert_clean(Workload::PoolRing, true);
}

#[test]
fn service_open_smoke_passes_its_checks() {
    assert_clean(Workload::ServiceOpen, false);
    assert_clean(Workload::ServiceOpen, true);
}

#[test]
fn trace_check_smoke_passes_its_checks() {
    assert_clean(Workload::TraceCheck, false);
    assert_clean(Workload::TraceCheck, true);
}

#[test]
fn a_corrupted_ring_solution_is_counted_as_failed() {
    let ring = ScaleRing::new(16);
    let expected = vec![ring.fixed_point(); 16];
    let mut report = SequentialRuntime::new().run(&ring, &RunConfig::synchronous(1e-10));
    let mut tally = Tally::default();
    pool_ring::check_ring(&mut tally, &expected, "clean", &report);
    assert_eq!((tally.attempted, tally.failed), (1, 0));

    report.solution[3] += 1e-3;
    pool_ring::check_ring(&mut tally, &expected, "off by 1e-3", &report);
    report.solution[3] = f64::NAN;
    pool_ring::check_ring(&mut tally, &expected, "NaN", &report);
    report.solution[3] = ring.fixed_point();
    report.solution.pop();
    pool_ring::check_ring(&mut tally, &expected, "short", &report);
    assert_eq!((tally.attempted, tally.failed), (4, 3));
}

#[test]
fn a_corrupted_sparse_solution_is_counted_as_failed() {
    let problem = SparseLinearProblem::new(SparseLinearParams {
        seed: 3,
        ..SparseLinearParams::paper_scaled(240, 12)
    });
    let runtime = SimulatedRuntime::new(
        GridTopology::ethernet_3_sites(12),
        EnvKind::MpiSync,
        ProblemKind::SparseLinear,
    );
    let mut outcome = runtime.run(&problem, &RunConfig::synchronous(1e-7));
    let mut tally = Tally::default();
    paper_grid::check_sparse(&mut tally, &problem, "clean", &outcome);
    assert_eq!(tally.failed, 0);
    outcome.report.solution[0] += 1.0;
    paper_grid::check_sparse(&mut tally, &problem, "corrupted", &outcome);
    outcome.report.solution[0] = f64::INFINITY;
    paper_grid::check_sparse(&mut tally, &problem, "infinite", &outcome);
    assert_eq!((tally.attempted, tally.failed), (3, 2));
}

#[test]
fn a_corrupted_chemical_solution_is_counted_as_failed() {
    let mut params = ChemicalParams::paper_scaled(8, 8, 2);
    params.t_end = 180.0;
    let problem = ChemicalProblem::new(params);
    let reference = verify::chemical_reference(&problem, 1e-11);
    let mut solution = verify::chemical_reference(&problem, 1e-8);
    let mut tally = Tally::default();
    paper_grid::check_chem(&mut tally, &reference, "clean", &solution);
    assert_eq!(tally.failed, 0);
    solution.final_state[5] *= 1.01;
    paper_grid::check_chem(&mut tally, &reference, "corrupted", &solution);
    assert_eq!((tally.attempted, tally.failed), (2, 1));
}

#[test]
fn a_corrupted_service_result_is_counted_as_failed() {
    let traffic = TrafficSpec::sustained();
    let answers = service_open::Answers::new(&traffic);
    let spec = JobSpec {
        tenant: 0,
        problem: ServiceProblem::Ring { blocks: 6 },
        epsilon: 1e-8,
        max_sweeps: 10_000,
    };
    let outcome = aiac_service::job::solve(&spec, None);
    let good = JobResult {
        job: 1,
        tenant: 0,
        converged: outcome.converged,
        cancelled: false,
        from_cache: false,
        sweeps: outcome.sweeps,
        final_residual: outcome.final_residual,
        latency_secs: 0.0,
        solution: outcome.solution,
    };
    let mut tally = Tally::default();
    answers.check(&mut tally, &spec, &good);
    assert_eq!(tally.failed, 0);

    let mut wrong = good.clone();
    wrong.solution[2] += 0.5;
    answers.check(&mut tally, &spec, &wrong);
    let mut nan = good.clone();
    nan.solution[0] = f64::NAN;
    answers.check(&mut tally, &spec, &nan);
    let mut unconverged = good;
    unconverged.converged = false;
    answers.check(&mut tally, &spec, &unconverged);
    assert_eq!((tally.attempted, tally.failed), (4, 3));
}

#[test]
fn a_corrupted_trace_export_is_counted_as_failed() {
    let g = trace_check::generate(trace_check::Sizes::of(Size::Smoke), 5, true, None);
    let events = g.trace.total_events();
    let reference = to_chrome_json(&g.trace);
    let mut tally = Tally::default();
    trace_check::check_export(&mut tally, events, &reference, &reference);
    assert_eq!(tally.failed, 0);
    // Each corrupted export is also its own reference, so only the schema
    // validation can reject it.
    let truncated = &reference[..reference.len() / 2];
    trace_check::check_export(&mut tally, events, truncated, truncated);
    let negative = reference.replacen("\"dur\":", "\"dur\":-", 1);
    trace_check::check_export(&mut tally, events, &negative, &negative);
    let fewer = events - 1;
    trace_check::check_export(&mut tally, fewer, &reference, &reference);
    assert_eq!((tally.attempted, tally.failed), (4, 3));
}

#[test]
fn open_loop_streams_are_seeded_and_retimed_to_the_offered_rate() {
    let a = service_open::open_loop_stream(11, 1_000.0, 2.0);
    let b = service_open::open_loop_stream(11, 1_000.0, 2.0);
    let c = service_open::open_loop_stream(12, 1_000.0, 2.0);
    assert_eq!(a.len(), 2_000);
    let due = |s: &[service_open::Due]| s.iter().map(|d| d.due_secs).collect::<Vec<_>>();
    assert_eq!(due(&a), due(&b));
    assert_ne!(due(&a), due(&c));
    assert!((a.last().unwrap().due_secs - 2.0).abs() < 1e-9);
    assert!(due(&a).windows(2).all(|w| w[0] <= w[1]));
}
