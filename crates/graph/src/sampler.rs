//! MCMC sampling of consistent crack mappings (Section 7.1).
//!
//! The paper estimates the expected number of cracks by sampling
//! perfect matchings that are "perfect, consistent, and as much as
//! possible, random": starting from a seed matching, it repeatedly
//! draws a random permutation `P` of the items and, for each `i`,
//! swaps the partners of `i` and `P(i)` whenever both new edges stay
//! consistent. Swap proposals are symmetric, so the walk's stationary
//! distribution is uniform over the reachable matchings; our test
//! suite validates the resulting crack-count means against the exact
//! permanent-based expectation on small graphs.
//!
//! Schedule (all configurable, defaults = the paper's): 100 000
//! warm-up swap attempts to produce a seed, one sample every 10 000
//! further attempts, 250 samples per seed, then the seed is rebuilt
//! from scratch; 5 000 samples in total.

use rand::Rng;

use crate::dense::DenseBigraph;
use crate::faults;
use crate::grouped::{GroupedBigraph, Matching};
use crate::par::{Budget, ExecError};

/// Anything that can answer consistency queries `(left, right)`.
///
/// The sampler needs only O(1) edge tests, so huge interval graphs
/// can be sampled without materializing adjacency.
pub trait EdgeOracle {
    /// Domain size per side.
    fn n(&self) -> usize;
    /// Whether the hacker may map anonymized `left` to original
    /// `right`.
    fn has_edge(&self, left: usize, right: usize) -> bool;
    /// An optional ordering of the left items such that nearby items
    /// tend to be mutually swappable (for interval graphs: sorted by
    /// observed frequency). Used for locality-aware swap proposals —
    /// any *static* pair distribution preserves the walk's uniform
    /// stationary distribution, because a swap is an involution and
    /// the proposal probability of a pair does not depend on the
    /// current matching.
    fn locality_order(&self) -> Option<Vec<usize>> {
        None
    }
}

impl EdgeOracle for DenseBigraph {
    fn n(&self) -> usize {
        DenseBigraph::n(self)
    }
    fn has_edge(&self, left: usize, right: usize) -> bool {
        DenseBigraph::has_edge(self, left, right)
    }
}

impl EdgeOracle for GroupedBigraph {
    fn n(&self) -> usize {
        GroupedBigraph::n(self)
    }
    fn has_edge(&self, left: usize, right: usize) -> bool {
        GroupedBigraph::has_edge(self, left, right)
    }
    fn locality_order(&self) -> Option<Vec<usize>> {
        // Items in frequency-group order: neighbors in this order
        // have close observed frequencies and are likely consistent
        // swap partners.
        let mut order = Vec::with_capacity(self.n());
        for g in 0..self.n_groups() {
            order.extend_from_slice(self.group_members(g));
        }
        Some(order)
    }
}

/// Sampler schedule.
#[derive(Clone, Copy, Debug)]
pub struct SamplerConfig {
    /// Swap attempts before the first sample of each seed.
    pub warmup_swaps: usize,
    /// Swap attempts between successive samples.
    pub swaps_between_samples: usize,
    /// Samples taken per seed before reseeding.
    pub samples_per_seed: usize,
    /// Total number of samples.
    pub n_samples: usize,
    /// Whether to use locality-aware swap proposals when the oracle
    /// provides a frequency order (strongly recommended for large
    /// domains; `false` reproduces the paper's uniform-pair walk,
    /// and is exposed mainly for the mixing ablation bench).
    pub use_locality: bool,
}

impl Default for SamplerConfig {
    /// The paper's published schedule (plus locality proposals).
    fn default() -> Self {
        SamplerConfig {
            warmup_swaps: 100_000,
            swaps_between_samples: 10_000,
            samples_per_seed: 250,
            n_samples: 5_000,
            use_locality: true,
        }
    }
}

impl SamplerConfig {
    /// A lighter schedule for tests and quick estimates.
    pub fn quick() -> Self {
        SamplerConfig {
            warmup_swaps: 2_000,
            samples_per_seed: 100,
            swaps_between_samples: 200,
            n_samples: 400,
            use_locality: true,
        }
    }
}

/// Crack-count samples and their summary statistics.
#[derive(Clone, Debug)]
pub struct CrackSamples {
    /// One crack count per sampled matching.
    pub counts: Vec<usize>,
}

impl CrackSamples {
    /// Sample mean of the crack count.
    pub fn mean(&self) -> f64 {
        if self.counts.is_empty() {
            return 0.0;
        }
        self.counts.iter().sum::<usize>() as f64 / self.counts.len() as f64
    }

    /// Sample standard deviation (n-1 denominator).
    pub fn std_dev(&self) -> f64 {
        let n = self.counts.len();
        if n < 2 {
            return 0.0;
        }
        let mean = self.mean();
        let var = self
            .counts
            .iter()
            .map(|&c| {
                let d = c as f64 - mean;
                d * d
            })
            .sum::<f64>()
            / (n - 1) as f64;
        var.sqrt()
    }

    /// Empirical histogram of crack counts: `hist[k]` = number of
    /// samples with exactly `k` cracks. Length = max observed + 1
    /// (empty for no samples).
    pub fn histogram(&self) -> Vec<usize> {
        let Some(&max) = self.counts.iter().max() else {
            return Vec::new();
        };
        let mut hist = vec![0usize; max + 1];
        for &c in &self.counts {
            hist[c] += 1;
        }
        hist
    }

    /// Empirical tail probability `P(X >= threshold)` — the figure
    /// an owner reads when the *chance* of a bad release matters
    /// more than the expectation.
    pub fn tail_probability(&self, threshold: usize) -> f64 {
        if self.counts.is_empty() {
            return 0.0;
        }
        self.counts.iter().filter(|&&c| c >= threshold).count() as f64 / self.counts.len() as f64
    }

    /// Empirical `q`-quantile of the crack count (nearest-rank).
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]` or there are no samples.
    pub fn quantile(&self, q: f64) -> usize {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        assert!(!self.counts.is_empty(), "no samples");
        let mut sorted = self.counts.clone();
        sorted.sort_unstable();
        let idx = ((q * (sorted.len() - 1) as f64).round()) as usize;
        sorted[idx]
    }
}

/// Errors from the sampler.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SamplerError {
    /// The provided seed matching uses an edge the oracle rejects.
    InconsistentSeed { left: usize, right: usize },
    /// The seed matching matches nothing (empty walk space).
    EmptySeed,
    /// A budgeted run was interrupted: deadline, cancellation, or an
    /// isolated worker panic.
    Interrupted(ExecError),
}

impl std::fmt::Display for SamplerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SamplerError::InconsistentSeed { left, right } => {
                write!(f, "seed matching edge ({left}', {right}) is inconsistent")
            }
            SamplerError::EmptySeed => write!(f, "seed matching is empty"),
            SamplerError::Interrupted(e) => write!(f, "sampling interrupted: {e}"),
        }
    }
}

impl std::error::Error for SamplerError {}

/// Runs the swap-walk sampler over the matchings of `oracle`,
/// starting from `seed` (typically the identity under full
/// compliance, or a greedy/HK matching otherwise).
///
/// The seed may be partial (a maximum matching smaller than `n`);
/// the walk then permutes the matched pairs and additionally proposes
/// moving a matched left item onto a free right item, so unmatched
/// columns still circulate.
///
/// # Errors
///
/// Returns an error if the seed uses an inconsistent edge or is
/// empty.
/// # Examples
///
/// ```
/// use andi_graph::{sample_cracks, DenseBigraph, Matching};
/// use andi_graph::sampler::SamplerConfig;
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// // The complete graph: Lemma 1 says E[cracks] = 1.
/// let g = DenseBigraph::complete(6);
/// let mut rng = StdRng::seed_from_u64(1);
/// let samples = sample_cracks(&g, &Matching::identity(6),
///     &SamplerConfig::quick(), &mut rng).unwrap();
/// assert!((samples.mean() - 1.0).abs() < 0.3);
/// assert!(samples.tail_probability(0) == 1.0);
/// ```
pub fn sample_cracks<O: EdgeOracle, R: Rng + ?Sized>(
    oracle: &O,
    seed: &Matching,
    config: &SamplerConfig,
    rng: &mut R,
) -> Result<CrackSamples, SamplerError> {
    sample_cracks_core(oracle, seed, config, rng, &Budget::unlimited(), None)
}

/// Shared walk driver behind every sampling entry point: runs the
/// epoch schedule under `budget` (polled once per epoch and every
/// 1024 swap attempts inside [`Walk::run_swaps`]) and, when `hits`
/// is provided, tallies per-item crack frequencies alongside the
/// per-sample counts (`hits[i]` += 1 for every sample with item `i`
/// cracked; `hits` must have length `oracle.n()`).
fn sample_cracks_core<O: EdgeOracle, R: Rng + ?Sized>(
    oracle: &O,
    seed: &Matching,
    config: &SamplerConfig,
    rng: &mut R,
    budget: &Budget,
    mut hits: Option<&mut Vec<u64>>,
) -> Result<CrackSamples, SamplerError> {
    let n = oracle.n();
    assert_eq!(seed.left_partner.len(), n, "seed size mismatch");

    // Validate the seed once.
    let mut active: Vec<usize> = Vec::new();
    for (i, p) in seed.left_partner.iter().enumerate() {
        if let Some(y) = *p {
            if !oracle.has_edge(i, y) {
                return Err(SamplerError::InconsistentSeed { left: i, right: y });
            }
            active.push(i);
        }
    }
    if active.is_empty() {
        return Err(SamplerError::EmptySeed);
    }

    // Locality structure for the proposal kernel: positions of the
    // active items along the oracle's frequency-sorted order.
    let locality = if config.use_locality {
        oracle.locality_order()
    } else {
        None
    }
    .map(|order| {
        let order: Vec<usize> = order
            .into_iter()
            .filter(|&i| seed.left_partner[i].is_some())
            .collect();
        let mut pos = vec![usize::MAX; n];
        for (p, &i) in order.iter().enumerate() {
            pos[i] = p;
        }
        (order, pos)
    });

    let mut counts = Vec::with_capacity(config.n_samples);
    'outer: loop {
        budget.check().map_err(SamplerError::Interrupted)?;
        // (Re)seed.
        let mut partner: Vec<Option<usize>> = seed.left_partner.clone();
        let mut free_rights: Vec<usize> = (0..n)
            .filter(|&y| seed.right_partner[y].is_none())
            .collect();

        let mut walk = Walk {
            oracle,
            partner: &mut partner,
            active: &active,
            free_rights: &mut free_rights,
            locality: locality.as_ref(),
        };

        walk.run_swaps(config.warmup_swaps, rng, budget)
            .map_err(SamplerError::Interrupted)?;
        for _ in 0..config.samples_per_seed {
            walk.run_swaps(config.swaps_between_samples, rng, budget)
                .map_err(SamplerError::Interrupted)?;
            counts.push(count_cracks(walk.partner));
            if let Some(h) = hits.as_deref_mut() {
                tally_cracks(walk.partner, h);
            }
            if counts.len() >= config.n_samples {
                break 'outer;
            }
        }
    }
    Ok(CrackSamples { counts })
}

/// Parallel, thread-count-invariant, budgeted version of
/// [`sample_cracks`].
///
/// The schedule is sharded into *batches* of `config.samples_per_seed`
/// samples — exactly one seed epoch each, the walk's natural unit of
/// independence (every epoch restarts from `seed` anyway). Batch `b`
/// runs its own `StdRng` seeded `rng_seed.wrapping_add(b)`, and the
/// batches are concatenated in batch order, so the returned sample
/// vector depends only on `(oracle, seed, config, rng_seed)` — never
/// on the worker count. Each batch runs as a
/// [`crate::par::try_map_indexed`] task carrying the `sampler.batch`
/// fault probe, and the walk polls `budget` per epoch and every 1024
/// swap attempts.
///
/// Note the sharded stream is *not* the same stream `sample_cracks`
/// draws from one sequential RNG — it is a different (equally valid)
/// schedule with a per-epoch seeding discipline. What is guaranteed
/// is bit-identity of the sharded sampler with itself across thread
/// counts.
///
/// # Errors
///
/// Seed errors as in [`sample_cracks`];
/// [`SamplerError::Interrupted`] when the budget trips, the token
/// fires, or an injected fault panics a batch.
pub fn sample_cracks_budgeted<O: EdgeOracle + Sync>(
    oracle: &O,
    seed: &Matching,
    config: &SamplerConfig,
    rng_seed: u64,
    threads: usize,
    budget: &Budget,
) -> Result<CrackSamples, SamplerError> {
    let (samples, _hits) =
        sample_cracks_budgeted_inner(oracle, seed, config, rng_seed, threads, budget, false)?;
    Ok(samples)
}

/// Per-item crack probabilities estimated by the budgeted sampler:
/// `out[i]` is the fraction of sampled matchings in which item `i`
/// is cracked (mapped to itself). This is the sampler rung's answer
/// to the same question the exact permanent answers via
/// [`crate::exact::crack_probabilities`].
///
/// # Errors
///
/// Same conditions as [`sample_cracks_budgeted`].
pub fn sample_crack_probabilities_budgeted<O: EdgeOracle + Sync>(
    oracle: &O,
    seed: &Matching,
    config: &SamplerConfig,
    rng_seed: u64,
    threads: usize,
    budget: &Budget,
) -> Result<Vec<f64>, SamplerError> {
    let (samples, hits) =
        sample_cracks_budgeted_inner(oracle, seed, config, rng_seed, threads, budget, true)?;
    let total = samples.counts.len();
    if total == 0 {
        return Ok(vec![0.0; oracle.n()]);
    }
    Ok(hits.iter().map(|&h| h as f64 / total as f64).collect())
}

/// Shared batch fan-out for the budgeted samplers. Batch boundaries
/// and per-batch RNG seeds depend only on `(config, rng_seed)`, so
/// the concatenated stream (and the folded tallies, when `tally`)
/// never depend on the worker count.
fn sample_cracks_budgeted_inner<O: EdgeOracle + Sync>(
    oracle: &O,
    seed: &Matching,
    config: &SamplerConfig,
    rng_seed: u64,
    threads: usize,
    budget: &Budget,
    tally: bool,
) -> Result<(CrackSamples, Vec<u64>), SamplerError> {
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    assert!(
        config.samples_per_seed >= 1,
        "samples_per_seed must be >= 1"
    );
    let n = oracle.n();
    let per_batch = config.samples_per_seed;
    let n_batches = config.n_samples.div_ceil(per_batch);
    if n_batches == 0 {
        return Ok((CrackSamples { counts: Vec::new() }, vec![0; n]));
    }

    let results = crate::par::try_map_indexed(threads, n_batches, budget, |b| {
        faults::probe("sampler.batch", b);
        let batch_len = per_batch.min(config.n_samples - b * per_batch);
        let batch_config = SamplerConfig {
            n_samples: batch_len,
            ..*config
        };
        let mut rng = StdRng::seed_from_u64(rng_seed.wrapping_add(b as u64));
        let mut batch_hits = if tally { Some(vec![0u64; n]) } else { None };
        let samples = sample_cracks_core(
            oracle,
            seed,
            &batch_config,
            &mut rng,
            budget,
            batch_hits.as_mut(),
        )?;
        Ok((samples, batch_hits.unwrap_or_default()))
    })
    .map_err(SamplerError::Interrupted)?;

    let mut counts = Vec::with_capacity(config.n_samples);
    let mut hits = vec![0u64; n];
    for result in results {
        let (samples, batch_hits): (CrackSamples, Vec<u64>) = result?;
        counts.extend(samples.counts);
        for (acc, h) in hits.iter_mut().zip(batch_hits) {
            *acc += h;
        }
    }
    Ok((CrackSamples { counts }, hits))
}

fn count_cracks(partner: &[Option<usize>]) -> usize {
    partner
        .iter()
        .enumerate()
        .filter(|&(i, p)| *p == Some(i))
        .count()
}

/// Adds each cracked item of one sample into the per-item tallies.
fn tally_cracks(partner: &[Option<usize>], hits: &mut [u64]) {
    for (i, p) in partner.iter().enumerate() {
        if *p == Some(i) {
            hits[i] += 1;
        }
    }
}

/// Half-width of the locality proposal window (in positions along
/// the frequency-sorted order).
const LOCALITY_WINDOW: usize = 32;

/// Internal walk state.
struct Walk<'a, O: EdgeOracle> {
    oracle: &'a O,
    partner: &'a mut Vec<Option<usize>>,
    active: &'a [usize],
    free_rights: &'a mut Vec<usize>,
    /// `(order, pos)`: active items in frequency order and each
    /// item's position in it.
    locality: Option<&'a (Vec<usize>, Vec<usize>)>,
}

impl<O: EdgeOracle> Walk<'_, O> {
    /// Executes `swaps` swap attempts, polling `budget` every 1024.
    /// Each attempt draws a pair `(i, j)` of matched items — `i`
    /// uniform; `j` uniform half the time and from a window around
    /// `i` in the frequency order otherwise (when the oracle provides
    /// one) — and swaps their partners if both new edges are
    /// consistent. The paper's uniform-permutation sweep is the
    /// special case without locality; mixing the two keeps the chain
    /// irreducible wherever the uniform kernel was, while the local
    /// moves let items in small frequency groups actually find their
    /// rare consistent peers.
    fn run_swaps<R: Rng + ?Sized>(
        &mut self,
        swaps: usize,
        rng: &mut R,
        budget: &Budget,
    ) -> Result<(), ExecError> {
        let k = self.active.len();
        let mut remaining = swaps;
        let mut since_poll = 0u32;
        while remaining > 0 {
            since_poll += 1;
            if since_poll >= 1024 {
                since_poll = 0;
                budget.check()?;
            }
            remaining -= 1;
            let i = self.active[rng.gen_range(0..k)];
            let j = match self.locality {
                Some((order, pos)) if !order.is_empty() && rng.gen_bool(0.5) => {
                    let p = pos[i];
                    debug_assert!(p != usize::MAX);
                    let w = LOCALITY_WINDOW.min(order.len().saturating_sub(1));
                    if w == 0 {
                        continue;
                    }
                    // Symmetric offset in [-w, w] \ {0}.
                    let mut off = rng.gen_range(1..=w) as isize;
                    if rng.gen_bool(0.5) {
                        off = -off;
                    }
                    let q = p as isize + off;
                    if q < 0 || q >= order.len() as isize {
                        continue;
                    }
                    order[q as usize]
                }
                _ => self.active[rng.gen_range(0..k)],
            };
            if i != j {
                self.try_swap(i, j);
            }
            // Occasionally rotate through free right columns so
            // partial matchings explore all columns.
            if !self.free_rights.is_empty() && remaining > 0 {
                remaining -= 1;
                self.try_relocate(i, rng);
            }
        }
        Ok(())
    }

    /// Swaps the partners of active lefts `i` and `j` if both new
    /// edges are consistent.
    fn try_swap(&mut self, i: usize, j: usize) {
        // Callers draw i, j from `active`, whose members are matched
        // by construction; an unmatched item is simply not swappable.
        let (Some(yi), Some(yj)) = (self.partner[i], self.partner[j]) else {
            return;
        };
        if self.oracle.has_edge(i, yj) && self.oracle.has_edge(j, yi) {
            self.partner[i] = Some(yj);
            self.partner[j] = Some(yi);
        }
    }

    /// Moves left `i` onto a random free right column if consistent,
    /// freeing its old column.
    fn try_relocate<R: Rng + ?Sized>(&mut self, i: usize, rng: &mut R) {
        let k = rng.gen_range(0..self.free_rights.len());
        let r = self.free_rights[k];
        // Callers draw i from `active`, whose members are matched by
        // construction; an unmatched item has nothing to free.
        if self.oracle.has_edge(i, r) {
            if let Some(old) = self.partner[i] {
                self.partner[i] = Some(r);
                self.free_rights[k] = old;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::expected_cracks;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn quick() -> SamplerConfig {
        SamplerConfig::quick()
    }

    #[test]
    fn complete_graph_mean_is_near_one() {
        // Lemma 1: E[X] = 1 on the complete graph.
        let g = DenseBigraph::complete(8);
        let mut rng = StdRng::seed_from_u64(61);
        let s = sample_cracks(&g, &Matching::identity(8), &quick(), &mut rng).unwrap();
        assert_eq!(s.counts.len(), quick().n_samples);
        let mean = s.mean();
        assert!((mean - 1.0).abs() < 0.3, "mean {mean} too far from 1");
    }

    #[test]
    fn sampler_matches_exact_on_random_graphs() {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(62);
        let mut checked = 0;
        while checked < 5 {
            let n = rng.gen_range(4..=7);
            let mut g = DenseBigraph::new(n);
            // Dense enough to stay feasible and connected.
            for i in 0..n {
                g.add_edge(i, i);
                for j in 0..n {
                    if rng.gen_bool(0.6) {
                        g.add_edge(i, j);
                    }
                }
            }
            let exact = expected_cracks(&g).expect("diagonal present");
            let s = sample_cracks(&g, &Matching::identity(n), &quick(), &mut rng).unwrap();
            let mean = s.mean();
            assert!(
                (mean - exact).abs() < 0.35 + 3.0 * s.std_dev() / (s.counts.len() as f64).sqrt(),
                "n={n}: sampled {mean} vs exact {exact}"
            );
            checked += 1;
        }
    }

    #[test]
    fn rejects_inconsistent_seed() {
        let g = DenseBigraph::from_edges(2, &[(0, 1), (1, 0)]);
        let err = sample_cracks(
            &g,
            &Matching::identity(2),
            &quick(),
            &mut StdRng::seed_from_u64(63),
        )
        .unwrap_err();
        assert!(matches!(err, SamplerError::InconsistentSeed { .. }));
    }

    #[test]
    fn rejects_empty_seed() {
        let g = DenseBigraph::complete(2);
        let empty = Matching {
            left_partner: vec![None, None],
            right_partner: vec![None, None],
        };
        let err = sample_cracks(&g, &empty, &quick(), &mut StdRng::seed_from_u64(64)).unwrap_err();
        assert_eq!(err, SamplerError::EmptySeed);
    }

    #[test]
    fn frozen_graph_always_reports_full_cracks() {
        // Identity-only graph: the walk can never move.
        let mut g = DenseBigraph::new(5);
        for i in 0..5 {
            g.add_edge(i, i);
        }
        let mut rng = StdRng::seed_from_u64(65);
        let s = sample_cracks(&g, &Matching::identity(5), &quick(), &mut rng).unwrap();
        assert!(s.counts.iter().all(|&c| c == 5));
        assert_eq!(s.std_dev(), 0.0);
    }

    #[test]
    fn partial_seed_walks_over_free_columns() {
        // 3 lefts matched, 1 column free; relocation keeps things
        // consistent and counts stay within bounds.
        let g = DenseBigraph::complete(4);
        let seed = Matching {
            left_partner: vec![Some(0), Some(1), Some(2), None],
            right_partner: vec![Some(0), Some(1), Some(2), None],
        };
        let mut rng = StdRng::seed_from_u64(66);
        let s = sample_cracks(&g, &seed, &quick(), &mut rng).unwrap();
        assert!(s.counts.iter().all(|&c| c <= 3));
    }

    #[test]
    fn grouped_oracle_works() {
        // BigMart with the compliant point-valued belief: three
        // frequency blocks; E[X] = 3 (Lemma 3).
        let supports = vec![5u64, 4, 5, 5, 3, 5];
        let intervals: Vec<(f64, f64)> = supports
            .iter()
            .map(|&s| {
                let f = s as f64 / 10.0;
                (f, f)
            })
            .collect();
        let g = GroupedBigraph::new(&supports, 10, &intervals);
        let mut rng = StdRng::seed_from_u64(67);
        let s = sample_cracks(&g, &Matching::identity(6), &quick(), &mut rng).unwrap();
        let mean = s.mean();
        assert!((mean - 3.0).abs() < 0.4, "mean {mean} vs exact 3");
    }

    #[test]
    fn stats_on_empty_and_singleton() {
        let s = CrackSamples { counts: vec![] };
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.std_dev(), 0.0);
        assert!(s.histogram().is_empty());
        assert_eq!(s.tail_probability(0), 0.0);
        let s = CrackSamples { counts: vec![4] };
        assert_eq!(s.mean(), 4.0);
        assert_eq!(s.std_dev(), 0.0);
    }

    #[test]
    fn histogram_tail_and_quantiles() {
        let s = CrackSamples {
            counts: vec![0, 1, 1, 2, 2, 2, 3, 5],
        };
        assert_eq!(s.histogram(), vec![1, 2, 3, 1, 0, 1]);
        assert!((s.tail_probability(2) - 5.0 / 8.0).abs() < 1e-12);
        assert_eq!(s.tail_probability(0), 1.0);
        assert!((s.tail_probability(6) - 0.0).abs() < 1e-12);
        assert_eq!(s.quantile(0.0), 0);
        assert_eq!(s.quantile(0.5), 2);
        assert_eq!(s.quantile(1.0), 5);
    }

    #[test]
    fn sharded_sampler_is_thread_count_invariant() {
        let g = DenseBigraph::complete(6);
        let seed = Matching::identity(6);
        let config = SamplerConfig::quick();
        let b = Budget::unlimited();
        let serial = sample_cracks_budgeted(&g, &seed, &config, 99, 1, &b).unwrap();
        assert_eq!(serial.counts.len(), config.n_samples);
        for threads in 2..=8 {
            let par = sample_cracks_budgeted(&g, &seed, &config, 99, threads, &b).unwrap();
            assert_eq!(par.counts, serial.counts, "threads = {threads}");
        }
    }

    #[test]
    fn sharded_batches_replay_the_sequential_walk_per_epoch() {
        // Batch b is exactly one sequential `sample_cracks` run on its
        // own `rng_seed + b` stream.
        let g = DenseBigraph::complete(6);
        let seed = Matching::identity(6);
        let config = SamplerConfig::quick();
        let b = Budget::unlimited();
        let sharded = sample_cracks_budgeted(&g, &seed, &config, 99, 4, &b).unwrap();
        let mut expected = Vec::new();
        for (batch, chunk) in sharded.counts.chunks(config.samples_per_seed).enumerate() {
            let batch_config = SamplerConfig {
                n_samples: chunk.len(),
                ..config
            };
            let mut rng = StdRng::seed_from_u64(99 + batch as u64);
            expected.extend(
                sample_cracks(&g, &seed, &batch_config, &mut rng)
                    .unwrap()
                    .counts,
            );
        }
        assert_eq!(sharded.counts, expected);
    }

    #[test]
    fn sharded_sampler_mean_stays_calibrated() {
        // Sharded seeding is a different stream than sequential, but
        // the estimate must still match the exact expectation.
        let g = DenseBigraph::complete(8);
        let s = sample_cracks_budgeted(
            &g,
            &Matching::identity(8),
            &quick(),
            7,
            crate::par::available_threads(),
            &Budget::unlimited(),
        )
        .unwrap();
        assert_eq!(s.counts.len(), quick().n_samples);
        assert!(
            (s.mean() - 1.0).abs() < 0.3,
            "mean {} too far from 1",
            s.mean()
        );
    }

    #[test]
    fn sharded_sampler_truncates_last_batch() {
        let g = DenseBigraph::complete(4);
        let config = SamplerConfig {
            warmup_swaps: 100,
            swaps_between_samples: 10,
            samples_per_seed: 64,
            n_samples: 150, // 2 full batches + one of 22
            use_locality: true,
        };
        let s = sample_cracks_budgeted(
            &g,
            &Matching::identity(4),
            &config,
            5,
            3,
            &Budget::unlimited(),
        )
        .unwrap();
        assert_eq!(s.counts.len(), 150);
    }

    #[test]
    fn budgeted_zero_budget_is_interrupted() {
        let g = DenseBigraph::complete(6);
        let b = Budget::with_deadline(std::time::Duration::ZERO);
        let err =
            sample_cracks_budgeted(&g, &Matching::identity(6), &quick(), 1, 4, &b).unwrap_err();
        assert_eq!(
            err,
            SamplerError::Interrupted(ExecError::BudgetExceeded { budget_ms: 0 })
        );
    }

    #[test]
    fn per_item_probabilities_sum_to_mean() {
        // Linearity: E[X] = Σ_i P(item i cracked), and the tallies
        // come from exactly the samples in `counts`.
        let g = DenseBigraph::complete(6);
        let seed = Matching::identity(6);
        let config = SamplerConfig::quick();
        let b = Budget::unlimited();
        let s = sample_cracks_budgeted(&g, &seed, &config, 7, 3, &b).unwrap();
        let probs = sample_crack_probabilities_budgeted(&g, &seed, &config, 7, 3, &b).unwrap();
        assert_eq!(probs.len(), 6);
        let total: f64 = probs.iter().sum();
        assert!((total - s.mean()).abs() < 1e-12, "{total} vs {}", s.mean());
    }

    #[test]
    #[should_panic(expected = "quantile")]
    fn quantile_rejects_out_of_range() {
        let s = CrackSamples { counts: vec![1] };
        let _ = s.quantile(1.5);
    }

    #[test]
    fn tail_matches_exact_distribution_on_blocks() {
        use crate::exact::crack_distribution;
        // Two complete blocks of sizes 2 and 3.
        let mut g = DenseBigraph::new(5);
        for i in 0..2 {
            for j in 0..2 {
                g.add_edge(i, j);
            }
        }
        for i in 2..5 {
            for j in 2..5 {
                g.add_edge(i, j);
            }
        }
        let exact = crack_distribution(&g).unwrap();
        let mut rng = StdRng::seed_from_u64(77);
        let config = SamplerConfig {
            warmup_swaps: 5_000,
            swaps_between_samples: 40,
            samples_per_seed: 3_000,
            n_samples: 9_000,
            use_locality: true,
        };
        let s = sample_cracks(&g, &Matching::identity(5), &config, &mut rng).unwrap();
        // P(X >= 2) from the histogram matches the exact tail.
        let exact_tail: f64 = exact[2..].iter().sum();
        assert!(
            (s.tail_probability(2) - exact_tail).abs() < 0.03,
            "sampled {} vs exact {exact_tail}",
            s.tail_probability(2)
        );
    }
}
