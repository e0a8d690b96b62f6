//! Simulation driver: the paper's ground-truth estimator
//! (Section 7.1).
//!
//! Wraps the `andi-graph` swap-walk sampler with the experimental
//! protocol the paper uses throughout Section 7: several independent
//! runs (5 by default) of several thousand samples each; the reported
//! estimate is the mean of the run means and the spread is their
//! standard deviation ("the differences between the O-estimates and
//! the average simulated estimates are well within one standard
//! deviation").
//!
//! Seeding: each run is one call of the sampler's one driver,
//! [`sample_cracks_budgeted`], from the run's [`SeedMode`] start. The
//! driver splits a run into `n_batches = ⌈n_samples /
//! samples_per_seed⌉` seed epochs and seeds batch `b` with
//! `rng_seed + b`, so run `r` uses `rng_seed = seed + r·n_batches`
//! (wrapping): no two runs share a batch stream. Runs execute one
//! after another; the batches of each fan out inside the driver on
//! [`par::available_threads`] workers, and the result is identical at
//! any thread count.

use andi_graph::par::{self, Budget};
use andi_graph::sampler::{sample_cracks_budgeted, SamplerConfig, SamplerError};
use andi_graph::{GroupedBigraph, Matching};

use crate::error::{Error, Result};

/// How each run's walk is seeded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SeedMode {
    /// Every run starts from the identity matching (all items
    /// cracked) — the paper's protocol. Biased *high* when the walk
    /// is under-mixed.
    Identity,
    /// Every run starts from a decracked matching (cyclic rotation
    /// within each frequency group where consistent) — biased *low*
    /// when under-mixed.
    Decracked,
    /// Runs alternate between the two starts, so the spread of run
    /// means brackets any residual mixing bias. Recommended.
    Alternate,
}

/// Protocol configuration.
#[derive(Clone, Copy, Debug)]
pub struct SimulationConfig {
    /// Per-run sampler schedule.
    pub sampler: SamplerConfig,
    /// Number of independent runs averaged (the paper uses 5).
    pub n_runs: usize,
    /// Base RNG seed; run `r` uses `seed + r·n_batches` (see the
    /// module docs).
    pub seed: u64,
    /// Walk seeding strategy.
    pub seed_mode: SeedMode,
}

impl Default for SimulationConfig {
    fn default() -> Self {
        SimulationConfig {
            sampler: SamplerConfig::default(),
            n_runs: 5,
            seed: 0x51_D2005,
            seed_mode: SeedMode::Alternate,
        }
    }
}

impl SimulationConfig {
    /// A fast protocol for tests and interactive use.
    pub fn quick() -> Self {
        SimulationConfig {
            sampler: SamplerConfig::quick(),
            n_runs: 3,
            seed: 0x51_D2005,
            seed_mode: SeedMode::Alternate,
        }
    }
}

/// Aggregated simulation outcome.
#[derive(Clone, Debug)]
pub struct SimulationResult {
    /// Mean crack count of each run.
    pub run_means: Vec<f64>,
    /// Within-run sample variance of each run.
    pub run_vars: Vec<f64>,
    /// Samples per run.
    pub run_len: usize,
    /// Size of the seed matching used (equals `n` when perfect).
    pub matched: usize,
}

impl SimulationResult {
    /// The average simulated estimate (mean of run means).
    pub fn mean(&self) -> f64 {
        if self.run_means.is_empty() {
            return 0.0;
        }
        self.run_means.iter().sum::<f64>() / self.run_means.len() as f64
    }

    /// Standard deviation across run means (n-1 denominator).
    pub fn std_dev(&self) -> f64 {
        let k = self.run_means.len();
        if k < 2 {
            return 0.0;
        }
        let mean = self.mean();
        let var = self
            .run_means
            .iter()
            .map(|&m| (m - mean) * (m - mean))
            .sum::<f64>()
            / (k - 1) as f64;
        var.sqrt()
    }

    /// The Gelman–Rubin potential scale reduction factor `R̂` over
    /// the runs (treating each run as one chain): values close to 1
    /// indicate the antithetic starts converged to the same
    /// distribution; values well above 1 flag under-mixing (enlarge
    /// the sampler's swap budget).
    ///
    /// Returns `None` with fewer than two runs or degenerate
    /// variances.
    pub fn r_hat(&self) -> Option<f64> {
        let k = self.run_means.len();
        if k < 2 || self.run_len < 2 {
            return None;
        }
        let n = self.run_len as f64;
        let mean = self.mean();
        // Between-chain variance (per-sample scale).
        let b = n / (k as f64 - 1.0)
            * self
                .run_means
                .iter()
                .map(|&m| (m - mean) * (m - mean))
                .sum::<f64>();
        // Mean within-chain variance.
        let w = self.run_vars.iter().sum::<f64>() / k as f64;
        if w <= 0.0 {
            // All runs are frozen at constants; converged iff the
            // means agree.
            return Some(if b <= 1e-12 { 1.0 } else { f64::INFINITY });
        }
        let var_plus = (n - 1.0) / n * w + b / n;
        Some((var_plus / w).sqrt())
    }
}

/// Simulates the expected number of cracks for a grouped mapping
/// space.
///
/// The seed matching is [`GroupedBigraph::walk_seed`]: the identity
/// (every item cracked, the paper's starting point) when it is
/// consistent; otherwise the greedy interval matching — which may be
/// partial when the belief function is non-compliant enough that some
/// items are unmatchable.
///
/// # Errors
///
/// Returns [`Error::InvalidParameter`] if `config.n_runs` is zero,
/// [`Error::EmptyMappingSpace`] if no item can be matched at all,
/// [`Error::WorkerPanic`] if a sampler batch panics (an injected
/// `sampler.batch` fault), or [`Error::Sampler`] on other sampler
/// failures.
///
/// # Panics
///
/// Panics if `config.sampler.samples_per_seed` is zero, as the
/// sampler does.
///
/// # Examples
///
/// ```
/// use andi_core::{simulate_expected_cracks, BeliefFunction, SimulationConfig};
///
/// let supports = [5u64, 4, 5, 5, 3, 5];
/// let freqs: Vec<f64> = supports.iter().map(|&s| s as f64 / 10.0).collect();
/// let belief = BeliefFunction::point_valued(&freqs).unwrap();
/// let graph = belief.build_graph(&supports, 10);
/// let sim = simulate_expected_cracks(&graph, &SimulationConfig::quick()).unwrap();
/// // Lemma 3 says exactly 3; the sampler agrees statistically.
/// assert!((sim.mean() - 3.0).abs() < 0.4);
/// assert!(sim.r_hat().unwrap() < 1.3, "chains converged");
/// ```
pub fn simulate_expected_cracks(
    graph: &GroupedBigraph,
    config: &SimulationConfig,
) -> Result<SimulationResult> {
    if config.n_runs == 0 {
        return Err(Error::InvalidParameter("need at least one run".into()));
    }
    let base_seed = graph.walk_seed();
    if base_seed.size() == 0 && graph.n() > 0 {
        return Err(Error::EmptyMappingSpace);
    }
    let decracked = decrack(graph, &base_seed);

    // `max(1)` leaves a zero `samples_per_seed` to the sampler's own
    // panic.
    let n_batches = config
        .sampler
        .n_samples
        .div_ceil(config.sampler.samples_per_seed.max(1)) as u64;
    let threads = par::available_threads();
    let mut result = SimulationResult {
        run_means: Vec::with_capacity(config.n_runs),
        run_vars: Vec::with_capacity(config.n_runs),
        run_len: 0,
        matched: base_seed.size(),
    };
    for r in 0..config.n_runs {
        let start = run_start(config.seed_mode, r, &base_seed, &decracked);
        let rng_seed = config.seed.wrapping_add((r as u64).wrapping_mul(n_batches));
        let samples = sample_cracks_budgeted(
            graph,
            start,
            &config.sampler,
            rng_seed,
            threads,
            &Budget::unlimited(),
        )
        .map_err(|e| match e {
            SamplerError::Interrupted(e) => Error::from(e),
            e => Error::Sampler(e.to_string()),
        })?;
        let sd = samples.std_dev();
        result.run_means.push(samples.mean());
        result.run_vars.push(sd * sd);
        result.run_len = samples.counts.len();
    }
    Ok(result)
}

/// The walk start for run `r` under a seed mode.
fn run_start<'a>(
    mode: SeedMode,
    r: usize,
    base_seed: &'a Matching,
    decracked: &'a Matching,
) -> &'a Matching {
    match mode {
        SeedMode::Identity => base_seed,
        SeedMode::Decracked => decracked,
        SeedMode::Alternate => {
            if r.is_multiple_of(2) {
                base_seed
            } else {
                decracked
            }
        }
    }
}

/// Rewires a consistent matching to reduce its crack count without
/// breaking consistency: within each frequency group, cyclically
/// rotates the partners of matched, currently-cracked members where
/// every rotated edge stays consistent. Used as an antithetic walk
/// start.
fn decrack(graph: &GroupedBigraph, seed: &Matching) -> Matching {
    let mut m = seed.clone();
    for g in 0..graph.n_groups() {
        // Group members that are matched to themselves (cracked).
        let cracked: Vec<usize> = graph
            .group_members(g)
            .iter()
            .copied()
            .filter(|&x| m.left_partner[x] == Some(x))
            .collect();
        if cracked.len() < 2 {
            continue;
        }
        // Rotate: left cracked[i] takes right cracked[i+1]. Each new
        // edge must be consistent; members failing the check keep
        // their crack.
        let k = cracked.len();
        let rotatable: Vec<usize> = cracked
            .iter()
            .enumerate()
            .filter(|&(i, &x)| graph.has_edge(x, cracked[(i + 1) % k]))
            .map(|(_, &x)| x)
            .collect();
        if rotatable.len() == k {
            for i in 0..k {
                let x = cracked[i];
                let y = cracked[(i + 1) % k];
                m.left_partner[x] = Some(y);
                m.right_partner[y] = Some(x);
            }
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::belief::BeliefFunction;

    const BIGMART_SUPPORTS: [u64; 6] = [5, 4, 5, 5, 3, 5];

    #[test]
    fn point_valued_simulation_matches_lemma_3() {
        let freqs: Vec<f64> = BIGMART_SUPPORTS.iter().map(|&s| s as f64 / 10.0).collect();
        let b = BeliefFunction::point_valued(&freqs).unwrap();
        let graph = b.build_graph(&BIGMART_SUPPORTS, 10);
        let sim = simulate_expected_cracks(&graph, &SimulationConfig::quick()).unwrap();
        assert_eq!(sim.matched, 6);
        let mean = sim.mean();
        assert!((mean - 3.0).abs() < 0.35, "sim mean {mean} vs exact 3");
    }

    #[test]
    fn ignorant_simulation_matches_lemma_1() {
        let b = BeliefFunction::ignorant(6);
        let graph = b.build_graph(&BIGMART_SUPPORTS, 10);
        let sim = simulate_expected_cracks(&graph, &SimulationConfig::quick()).unwrap();
        let mean = sim.mean();
        assert!((mean - 1.0).abs() < 0.35, "sim mean {mean} vs exact 1");
    }

    #[test]
    fn runs_are_reproducible_under_seed() {
        let b = BeliefFunction::ignorant(6);
        let graph = b.build_graph(&BIGMART_SUPPORTS, 10);
        let a = simulate_expected_cracks(&graph, &SimulationConfig::quick()).unwrap();
        let b2 = simulate_expected_cracks(&graph, &SimulationConfig::quick()).unwrap();
        assert_eq!(a.run_means, b2.run_means);
    }

    #[test]
    fn noncompliant_graph_uses_greedy_seed() {
        // Item 0's interval misses its true frequency but still
        // covers group .4, so a perfect matching exists without any
        // crack edge for 0.
        let intervals = vec![
            (0.35, 0.45), // item 0 (true .5): wrong
            (0.35, 0.55),
            (0.45, 0.55),
            (0.45, 0.55),
            (0.25, 0.45),
            (0.45, 0.55),
        ];
        let b = BeliefFunction::from_intervals(intervals).unwrap();
        let graph = b.build_graph(&BIGMART_SUPPORTS, 10);
        assert!(!graph.crack_edge_exists(0));
        let sim = simulate_expected_cracks(&graph, &SimulationConfig::quick()).unwrap();
        assert!(sim.matched >= 5, "matched {}", sim.matched);
        // Item 0 can never be cracked; total cracks bounded by 5.
        assert!(sim.mean() <= 5.0);
    }

    #[test]
    fn a_partial_seed_still_runs() {
        // Item 0 believes no observed frequency, so the greedy seed
        // matches the other two items only.
        let b = BeliefFunction::from_intervals(vec![(0.9, 1.0), (0.0, 1.0), (0.0, 1.0)]).unwrap();
        let graph = b.build_graph(&[5, 4, 3], 10);
        assert_eq!(graph.walk_seed().size(), 2);
        let sim = simulate_expected_cracks(&graph, &SimulationConfig::quick()).unwrap();
        assert_eq!(sim.matched, 2);
    }

    #[test]
    fn empty_space_is_reported() {
        // Nothing can map anywhere.
        let intervals = vec![(0.9, 1.0), (0.9, 1.0)];
        let b = BeliefFunction::from_intervals(intervals).unwrap();
        let graph = b.build_graph(&[1, 2], 10);
        let err = simulate_expected_cracks(&graph, &SimulationConfig::quick()).unwrap_err();
        assert_eq!(err, Error::EmptyMappingSpace);
    }

    #[test]
    fn zero_runs_are_rejected() {
        // No runs means no samples: there is no mean to report.
        let b = BeliefFunction::ignorant(6);
        let graph = b.build_graph(&BIGMART_SUPPORTS, 10);
        let config = SimulationConfig {
            n_runs: 0,
            ..SimulationConfig::quick()
        };
        let err = simulate_expected_cracks(&graph, &config).unwrap_err();
        assert!(matches!(err, Error::InvalidParameter(_)), "got {err:?}");
    }

    #[test]
    fn run_r_is_one_driver_call_at_its_own_batch_seeds() {
        // Run r starts from its seed mode's matching and draws its
        // batches from `seed + r·n_batches` on: 450 samples in batches
        // of 100 make 5 batches per run, so no two runs share one.
        let b = BeliefFunction::widened(&BIGMART_SUPPORTS.map(|s| s as f64 / 10.0), 0.1).unwrap();
        let graph = b.build_graph(&BIGMART_SUPPORTS, 10);
        let config = SimulationConfig {
            sampler: SamplerConfig {
                n_samples: 450,
                ..SamplerConfig::quick()
            },
            ..SimulationConfig::quick()
        };
        let sim = simulate_expected_cracks(&graph, &config).unwrap();
        assert_eq!(sim.run_means.len(), config.n_runs);
        assert_eq!(sim.run_len, 450);
        let identity = Matching::identity(6);
        let decracked = decrack(&graph, &identity);
        assert_ne!(identity, decracked, "the two starts differ");
        for r in 0..config.n_runs {
            let start = if r.is_multiple_of(2) {
                &identity
            } else {
                &decracked
            };
            let direct = sample_cracks_budgeted(
                &graph,
                start,
                &config.sampler,
                config.seed + 5 * r as u64,
                1,
                &Budget::unlimited(),
            )
            .unwrap();
            let sd = direct.std_dev();
            assert_eq!(
                sim.run_means[r].to_bits(),
                direct.mean().to_bits(),
                "run {r}"
            );
            assert_eq!(sim.run_vars[r].to_bits(), (sd * sd).to_bits(), "run {r}");
        }
    }

    #[test]
    fn std_dev_over_runs() {
        let r = SimulationResult {
            run_means: vec![1.0, 2.0, 3.0],
            run_vars: vec![1.0, 1.0, 1.0],
            run_len: 100,
            matched: 5,
        };
        assert!((r.mean() - 2.0).abs() < 1e-12);
        assert!((r.std_dev() - 1.0).abs() < 1e-12);
        let single = SimulationResult {
            run_means: vec![2.5],
            run_vars: vec![0.5],
            run_len: 100,
            matched: 5,
        };
        assert_eq!(single.std_dev(), 0.0);
        assert_eq!(single.r_hat(), None, "one chain has no R-hat");
    }

    #[test]
    fn r_hat_flags_divergent_chains() {
        // Chains that agree: R-hat near 1.
        let good = SimulationResult {
            run_means: vec![2.0, 2.01, 1.99, 2.0],
            run_vars: vec![1.0; 4],
            run_len: 1_000,
            matched: 5,
        };
        let r = good.r_hat().unwrap();
        assert!((r - 1.0).abs() < 0.1, "converged chains: R-hat = {r}");

        // Chains far apart relative to their width: R-hat >> 1.
        let bad = SimulationResult {
            run_means: vec![1.0, 10.0],
            run_vars: vec![0.5, 0.5],
            run_len: 1_000,
            matched: 5,
        };
        assert!(bad.r_hat().unwrap() > 5.0);

        // Frozen chains at the same constant are converged.
        let frozen = SimulationResult {
            run_means: vec![4.0, 4.0],
            run_vars: vec![0.0, 0.0],
            run_len: 1_000,
            matched: 5,
        };
        assert_eq!(frozen.r_hat(), Some(1.0));
    }

    #[test]
    fn simulation_reports_convergence_fields() {
        let freqs: Vec<f64> = BIGMART_SUPPORTS.iter().map(|&s| s as f64 / 10.0).collect();
        let b = BeliefFunction::point_valued(&freqs).unwrap();
        let graph = b.build_graph(&BIGMART_SUPPORTS, 10);
        let sim = simulate_expected_cracks(&graph, &SimulationConfig::quick()).unwrap();
        assert_eq!(sim.run_vars.len(), sim.run_means.len());
        assert_eq!(sim.run_len, SimulationConfig::quick().sampler.n_samples);
        let r = sim.r_hat().expect("multiple runs");
        assert!(r < 1.5, "quick BigMart runs should converge, R-hat = {r}");
    }
}
