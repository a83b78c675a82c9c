//! Deterministic open-loop traffic generation.
//!
//! The generator produces a job stream from a seed and a [`TrafficSpec`]:
//! Poisson inter-arrivals (exponential gaps), occasional heavy-tailed burst
//! clusters (bounded Pareto sizes), tenants drawn from a weight vector, and
//! a problem mix with a hot problem plus a configurable fraction of
//! never-repeating tolerances that force cache misses. It is *open-loop*:
//! arrival times never react to service state, which is what makes overload
//! behaviour (queueing, shedding) observable at all.
//!
//! Everything is a pure function of the spec — the same seed yields the
//! same `Vec<Arrival>` on every platform and every run, so CI can gate the
//! simulated metrics exactly.

use aiac_core::runtime::splitmix64;
use serde::{Deserialize, Serialize};

use crate::job::{JobSpec, ServiceProblem, TenantId};

/// SplitMix64 — a tiny, seedable, platform-independent PRNG stepping
/// [`aiac_core::runtime::splitmix64`]. Good enough statistical quality for
/// load generation, and trivially reproducible.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Seeds the generator.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        splitmix64(&mut self.state)
    }

    /// Uniform draw in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 mantissa bits of the raw output, scaled into [0, 1).
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Exponential draw with the given mean (inter-arrival gaps of a
    /// Poisson process).
    pub fn exponential(&mut self, mean: f64) -> f64 {
        let u = self.next_f64();
        -mean * (1.0 - u).ln()
    }

    /// Bounded Pareto draw in `[1, max]` with tail index `alpha` — the
    /// heavy-tailed burst sizes.
    pub fn pareto(&mut self, alpha: f64, max: f64) -> f64 {
        let u = self.next_f64();
        (1.0 / (1.0 - u).powf(1.0 / alpha)).min(max)
    }

    /// Index into `weights` drawn proportionally to the weights.
    pub fn weighted_index(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        let mut target = self.next_f64() * total;
        for (i, w) in weights.iter().enumerate() {
            target -= w;
            if target < 0.0 {
                return i;
            }
        }
        weights.len().saturating_sub(1)
    }
}

/// One entry of the problem mix tenants draw from.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProblemMix {
    /// The problem submitted.
    pub problem: ServiceProblem,
    /// Its tolerance.
    pub epsilon: f64,
}

/// Everything the generator needs to produce a job stream.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrafficSpec {
    /// PRNG seed; equal seeds yield byte-identical streams.
    pub seed: u64,
    /// Total jobs to generate.
    pub jobs: usize,
    /// Relative traffic share per tenant; the tenant id is the index.
    pub tenant_weights: Vec<f64>,
    /// Mean gap between arrival events, in virtual seconds.
    pub mean_interarrival_secs: f64,
    /// Probability that an arrival event is a burst cluster.
    pub burst_prob: f64,
    /// Pareto tail index of burst sizes (smaller ⇒ heavier tail).
    pub burst_alpha: f64,
    /// Upper bound on one burst's size.
    pub burst_max: usize,
    /// Jobs released at t = 0 before the Poisson process starts — the
    /// load tests use this to pile up a known number of concurrent jobs.
    pub initial_burst: usize,
    /// Fraction of jobs that take the first (hot) entry of `problems`.
    pub hot_fraction: f64,
    /// Fraction of jobs whose tolerance is perturbed to a never-repeating
    /// value, guaranteeing a cache miss.
    pub unique_fraction: f64,
    /// The problem catalogue; index 0 is the hot problem.
    pub problems: Vec<ProblemMix>,
    /// Sweep budget stamped on every job.
    pub max_sweeps: usize,
}

/// One generated arrival: a time and the job submitted at that time.
#[derive(Debug, Clone, PartialEq)]
pub struct Arrival {
    /// Arrival time on the virtual clock, in seconds.
    pub at_secs: f64,
    /// The submitted job.
    pub spec: JobSpec,
}

impl TrafficSpec {
    /// The CI smoke stream: seeded, ~1.8 k jobs over four equal tenants,
    /// with a 1 200-job opening burst so the load test can assert more than
    /// a thousand concurrent jobs in flight.
    pub fn smoke() -> Self {
        TrafficSpec {
            seed: 42,
            jobs: 1_800,
            tenant_weights: vec![1.0, 1.0, 1.0, 1.0],
            mean_interarrival_secs: 1e-4,
            burst_prob: 0.05,
            burst_alpha: 1.3,
            burst_max: 64,
            initial_burst: 1_200,
            hot_fraction: 0.55,
            unique_fraction: 0.25,
            problems: vec![
                ProblemMix {
                    problem: ServiceProblem::Ring { blocks: 6 },
                    epsilon: 1e-8,
                },
                ProblemMix {
                    problem: ServiceProblem::Ring { blocks: 12 },
                    epsilon: 1e-8,
                },
                ProblemMix {
                    problem: ServiceProblem::SparseLinear { n: 64, blocks: 4 },
                    epsilon: 1e-6,
                },
            ],
            max_sweeps: 10_000,
        }
    }

    /// The full-fidelity stream: a longer, burstier mix with skewed tenant
    /// weights and a larger sparse problem in the catalogue.
    pub fn sustained() -> Self {
        TrafficSpec {
            seed: 42,
            jobs: 12_000,
            tenant_weights: vec![4.0, 2.0, 1.0, 1.0, 0.5, 0.5],
            mean_interarrival_secs: 5e-5,
            burst_prob: 0.10,
            burst_alpha: 1.2,
            burst_max: 256,
            initial_burst: 2_000,
            hot_fraction: 0.55,
            unique_fraction: 0.25,
            problems: vec![
                ProblemMix {
                    problem: ServiceProblem::Ring { blocks: 6 },
                    epsilon: 1e-8,
                },
                ProblemMix {
                    problem: ServiceProblem::Ring { blocks: 24 },
                    epsilon: 1e-8,
                },
                ProblemMix {
                    problem: ServiceProblem::SparseLinear { n: 128, blocks: 4 },
                    epsilon: 1e-6,
                },
                ProblemMix {
                    problem: ServiceProblem::SparseLinear { n: 256, blocks: 8 },
                    epsilon: 1e-6,
                },
            ],
            max_sweeps: 20_000,
        }
    }

    /// Generates the arrival stream this spec describes, sorted by time.
    pub fn generate(&self) -> Vec<Arrival> {
        assert!(!self.problems.is_empty(), "the problem catalogue is empty");
        assert!(!self.tenant_weights.is_empty(), "no tenants configured");
        let mut rng = SplitMix64::new(self.seed);
        let mut arrivals = Vec::with_capacity(self.jobs);
        let mut clock = 0.0_f64;
        let mut unique_counter = 0u64;
        while arrivals.len() < self.jobs {
            let in_opening_burst = arrivals.len() < self.initial_burst;
            let cluster = if in_opening_burst {
                self.initial_burst - arrivals.len()
            } else {
                clock += rng.exponential(self.mean_interarrival_secs);
                if self.burst_prob > 0.0 && rng.next_f64() < self.burst_prob {
                    rng.pareto(self.burst_alpha, self.burst_max as f64).round() as usize
                } else {
                    1
                }
            };
            let cluster = cluster.clamp(1, self.jobs - arrivals.len());
            for _ in 0..cluster {
                let tenant = rng.weighted_index(&self.tenant_weights) as TenantId;
                let pick = if rng.next_f64() < self.hot_fraction {
                    0
                } else {
                    (rng.next_u64() % self.problems.len() as u64) as usize
                };
                let mix = &self.problems[pick];
                let epsilon = if rng.next_f64() < self.unique_fraction {
                    unique_counter += 1;
                    // A tiny deterministic perturbation: changes the bits
                    // (and therefore the cache key) without changing the
                    // convergence behaviour measurably.
                    mix.epsilon * (1.0 + unique_counter as f64 * 1e-9)
                } else {
                    mix.epsilon
                };
                arrivals.push(Arrival {
                    at_secs: clock,
                    spec: JobSpec {
                        tenant,
                        problem: mix.problem,
                        epsilon,
                        max_sweeps: self.max_sweeps,
                    },
                });
            }
        }
        arrivals
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn equal_seeds_yield_identical_streams() {
        let spec = TrafficSpec::smoke();
        assert_eq!(spec.generate(), spec.generate());
    }

    #[test]
    fn different_seeds_diverge() {
        let a = TrafficSpec::smoke();
        let b = TrafficSpec {
            seed: 43,
            ..TrafficSpec::smoke()
        };
        assert_ne!(a.generate(), b.generate());
    }

    #[test]
    fn streams_are_sized_sorted_and_open_with_the_burst() {
        let spec = TrafficSpec::smoke();
        let arrivals = spec.generate();
        assert_eq!(arrivals.len(), spec.jobs);
        for pair in arrivals.windows(2) {
            assert!(pair[0].at_secs <= pair[1].at_secs);
        }
        for a in &arrivals[..spec.initial_burst] {
            assert_eq!(a.at_secs, 0.0, "opening burst arrives at t = 0");
        }
        assert!(arrivals[arrivals.len() - 1].at_secs > 0.0);
    }

    #[test]
    fn every_configured_tenant_receives_traffic() {
        let arrivals = TrafficSpec::smoke().generate();
        let mut per_tenant: BTreeMap<TenantId, usize> = BTreeMap::new();
        for a in &arrivals {
            *per_tenant.entry(a.spec.tenant).or_default() += 1;
        }
        assert_eq!(per_tenant.len(), 4);
        for (tenant, count) in &per_tenant {
            assert!(*count > 100, "tenant {tenant} got only {count} jobs");
        }
    }

    #[test]
    fn unique_fraction_produces_never_repeating_tolerances() {
        let spec = TrafficSpec::smoke();
        let arrivals = spec.generate();
        let hot = spec.problems[0].epsilon;
        let jittered = arrivals
            .iter()
            .filter(|a| spec.problems.iter().all(|m| a.spec.epsilon != m.epsilon))
            .count();
        let frac = jittered as f64 / arrivals.len() as f64;
        assert!(
            (frac - spec.unique_fraction).abs() < 0.08,
            "jittered fraction {frac} far from configured {}",
            spec.unique_fraction
        );
        assert!(arrivals.iter().any(|a| a.spec.epsilon == hot));
    }

    #[test]
    fn splitmix_draws_stay_in_range() {
        let mut rng = SplitMix64::new(7);
        for _ in 0..10_000 {
            let u = rng.next_f64();
            assert!((0.0..1.0).contains(&u));
            let e = rng.exponential(2.0);
            assert!(e >= 0.0 && e.is_finite());
            let p = rng.pareto(1.5, 64.0);
            assert!((1.0..=64.0).contains(&p));
        }
        let idx = rng.weighted_index(&[0.0, 0.0, 1.0]);
        assert_eq!(idx, 2);
    }
}
