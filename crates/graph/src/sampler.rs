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
//!
//! Determinism contract: a run's samples are a function of the
//! oracle, the seed matching, the schedule and the generator's
//! stream. How many draws one swap attempt consumes depends only on
//! the stream and the static locality order, never on the current
//! matching: the item, the locality coin, then either a uniform
//! partner or an offset and its sign (an offset outside the order
//! ends the attempt), then a free column when the seed leaves one.
//! The walk therefore generates the stream ahead in blocks into a
//! fixed ring, decodes each attempt with cursor arithmetic, and picks
//! every outcome (local or uniform partner, sign, range check, accept
//! or reject) with a select instead of a branch. It consumes exactly
//! the draws one `gen_range`/`gen_bool` call at a time would, so the
//! samples are bit-identical to that walk; the goldens in
//! `tests/sampler_goldens.rs` pin them. Because the ring reads ahead,
//! each seed epoch owns its generator: [`sample_cracks_budgeted`], the
//! one driver, runs every epoch as a batch on its own stream. `Budget`
//! is polled once per batch and once per block of at most 204
//! attempts, never inside one.

use std::hint::select_unpredictable;

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

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
    #[inline]
    fn n(&self) -> usize {
        DenseBigraph::n(self)
    }
    #[inline]
    fn has_edge(&self, left: usize, right: usize) -> bool {
        DenseBigraph::has_edge(self, left, right)
    }
}

impl EdgeOracle for GroupedBigraph {
    #[inline]
    fn n(&self) -> usize {
        GroupedBigraph::n(self)
    }
    #[inline]
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
    /// Per item: the number of sampled matchings in which it is
    /// cracked (mapped to itself). `Σ hits = Σ counts`.
    pub hits: Vec<u64>,
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
/// compliance, or a greedy/HK matching otherwise). This is the one
/// driver of the walk: the ladder's sampler rung and the §7.1
/// simulation both run through it.
///
/// The seed may be partial (a maximum matching smaller than `n`);
/// the walk then permutes the matched pairs and additionally proposes
/// moving a matched left item onto a free right item, so unmatched
/// columns still circulate.
///
/// The schedule is sharded into *batches* of `config.samples_per_seed`
/// samples — exactly one seed epoch each, the walk's natural unit of
/// independence (every epoch restarts from `seed`). Batch `b` draws
/// from its own `StdRng` seeded `rng_seed.wrapping_add(b)`; the
/// batches' counts are concatenated in batch order and their per-item
/// hits summed, so the result depends only on
/// `(oracle, seed, config, rng_seed)` — never on `threads`. Each batch
/// runs as a [`crate::par::try_map_indexed`] task carrying the
/// `sampler.batch` fault probe, and the walk polls `budget` per batch
/// and once per block of swap attempts.
///
/// # Errors
///
/// [`SamplerError::InconsistentSeed`] or [`SamplerError::EmptySeed`]
/// for a bad seed; [`SamplerError::Interrupted`] when the budget
/// trips, the token fires, or an injected fault panics a batch.
///
/// # Panics
///
/// Panics if `config.samples_per_seed` is zero.
///
/// # Examples
///
/// ```
/// use andi_graph::{sample_cracks_budgeted, Budget, DenseBigraph, Matching};
/// use andi_graph::sampler::SamplerConfig;
///
/// // The complete graph: Lemma 1 says E[cracks] = 1.
/// let g = DenseBigraph::complete(6);
/// let samples = sample_cracks_budgeted(&g, &Matching::identity(6),
///     &SamplerConfig::quick(), 1, 2, &Budget::unlimited()).unwrap();
/// assert!((samples.mean() - 1.0).abs() < 0.3);
/// assert!(samples.tail_probability(0) == 1.0);
/// ```
pub fn sample_cracks_budgeted<O: EdgeOracle + Sync>(
    oracle: &O,
    seed: &Matching,
    config: &SamplerConfig,
    rng_seed: u64,
    threads: usize,
    budget: &Budget,
) -> Result<CrackSamples, SamplerError> {
    let plan = Plan::new(oracle, seed, config)?;
    let per_batch = config.samples_per_seed;
    let n_batches = config.n_samples.div_ceil(per_batch);

    let batches = crate::par::try_map_indexed(threads, n_batches, budget, |b| {
        faults::probe("sampler.batch", b);
        let batch_len = per_batch.min(config.n_samples - b * per_batch);
        let rng = StdRng::seed_from_u64(rng_seed.wrapping_add(b as u64));
        plan.sample(batch_len, rng, budget)
    })
    .map_err(SamplerError::Interrupted)?;

    let mut samples = CrackSamples {
        counts: Vec::with_capacity(config.n_samples),
        hits: vec![0; oracle.n()],
    };
    for batch in batches {
        let batch = batch.map_err(SamplerError::Interrupted)?;
        samples.counts.extend(batch.counts);
        for (acc, h) in samples.hits.iter_mut().zip(batch.hits) {
            *acc += h;
        }
    }
    Ok(samples)
}

/// Per-item crack probabilities estimated by the sampler: `out[i]` is
/// the fraction of sampled matchings in which item `i` is cracked
/// (mapped to itself), i.e. `hits[i] / counts.len()` of
/// [`sample_cracks_budgeted`] (all zeros for no samples). This is the
/// sampler rung's answer to the same question the exact permanent
/// answers via [`crate::exact::crack_probabilities`].
///
/// # Errors
///
/// Same conditions as [`sample_cracks_budgeted`].
///
/// # Panics
///
/// Panics if `config.samples_per_seed` is zero.
pub fn sample_crack_probabilities_budgeted<O: EdgeOracle + Sync>(
    oracle: &O,
    seed: &Matching,
    config: &SamplerConfig,
    rng_seed: u64,
    threads: usize,
    budget: &Budget,
) -> Result<Vec<f64>, SamplerError> {
    let samples = sample_cracks_budgeted(oracle, seed, config, rng_seed, threads, budget)?;
    let total = samples.counts.len().max(1) as f64;
    Ok(samples.hits.iter().map(|&h| h as f64 / total).collect())
}

/// Marks a left item without a partner in the walk's matching.
const UNMATCHED: usize = usize::MAX;

/// Counts the cracked items of one sample and adds each into the
/// per-item tallies, in one pass.
fn record_cracks(partner: &[usize], hits: &mut [u64]) -> usize {
    let mut count = 0;
    for (i, (&p, h)) in partner.iter().zip(hits).enumerate() {
        let cracked = p == i;
        *h += u64::from(cracked);
        count += usize::from(cracked);
    }
    count
}

/// Half-width of the locality proposal window (in positions along
/// the frequency-sorted order).
const LOCALITY_WINDOW: usize = 32;

/// Draws the walk keeps generated ahead of the cursor: a power of
/// two, so positions wrap with a mask; 8 KiB stays in L1.
const STREAM_LEN: usize = 1024;

/// The most draws one attempt consumes: the item, the locality coin,
/// the offset, its sign, and a free column.
const MAX_DRAWS: usize = 5;

/// Attempts per block. A block starts with `STREAM_LEN` unread draws
/// buffered, so it never reads past them; the budget is polled once
/// per block.
const BLOCK_ATTEMPTS: usize = STREAM_LEN / MAX_DRAWS;

/// `rng.gen_range(0..span)` decoded from one draw: the vendored
/// generator's widening multiply.
#[inline(always)]
fn below(draw: u64, span: usize) -> usize {
    ((u128::from(draw) * span as u128) >> 64) as usize
}

/// `rng.gen_bool(0.5)` decoded from one draw: `(draw >> 11) · 2⁻⁵³`
/// is below one half exactly when the top bit is clear.
#[inline(always)]
fn coin(draw: u64) -> bool {
    draw >> 63 == 0
}

/// What every epoch of one sampling run shares: the validated seed
/// and the proposal kernel's static structure.
struct Plan<'a, O: EdgeOracle> {
    oracle: &'a O,
    config: SamplerConfig,
    /// The seed's matched left items: the walk draws `i` from these.
    active: Vec<usize>,
    /// The seed's partner of every left item (`UNMATCHED` if none).
    start: Vec<usize>,
    /// The right items the seed leaves free.
    free: Vec<usize>,
    /// Active items in the oracle's locality order; empty when the
    /// walk proposes uniform pairs only.
    order: Vec<usize>,
    /// Each item's position in `order` (`usize::MAX` when absent).
    pos: Vec<usize>,
    /// Locality window half-width `w`.
    window: usize,
    /// Draws a local proposal consumes: item, coin, offset, sign —
    /// or item and coin alone when the window is empty.
    local_draws: usize,
}

/// The walk's moving parts: the current matching, and the
/// generator's stream decoded from a ring of pre-generated draws.
struct Walk {
    partner: Vec<usize>,
    free_rights: Vec<usize>,
    /// `draws[t % STREAM_LEN]` is the stream's draw number `t` for
    /// every `t` in `cursor..cursor + STREAM_LEN`.
    draws: [u64; STREAM_LEN],
    /// Number of draws consumed so far.
    cursor: usize,
    rng: StdRng,
}

impl<'a, O: EdgeOracle> Plan<'a, O> {
    /// Validates `seed` against `oracle` and lays out the kernel.
    fn new(oracle: &'a O, seed: &Matching, config: &SamplerConfig) -> Result<Self, SamplerError> {
        assert!(
            config.samples_per_seed >= 1,
            "samples_per_seed must be >= 1"
        );
        let n = oracle.n();
        assert_eq!(seed.left_partner.len(), n, "seed size mismatch");

        let mut active = Vec::new();
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

        let order: Vec<usize> = if config.use_locality {
            oracle.locality_order().unwrap_or_default()
        } else {
            Vec::new()
        }
        .into_iter()
        .filter(|&i| seed.left_partner[i].is_some())
        .collect();
        let mut pos = vec![usize::MAX; n];
        for (p, &i) in order.iter().enumerate() {
            pos[i] = p;
        }
        let window = LOCALITY_WINDOW.min(order.len().saturating_sub(1));

        Ok(Plan {
            oracle,
            config: *config,
            active,
            start: seed
                .left_partner
                .iter()
                .map(|p| p.unwrap_or(UNMATCHED))
                .collect(),
            free: (0..n)
                .filter(|&y| seed.right_partner[y].is_none())
                .collect(),
            order,
            pos,
            window,
            local_draws: if window == 0 { 2 } else { 4 },
        })
    }

    /// Runs one seed epoch of `n_samples` (at most
    /// `samples_per_seed`) samples: starts from the seed, warms up,
    /// then records one sample every `swaps_between_samples`
    /// attempts. `budget` is polled before the epoch and once per
    /// block of attempts.
    fn sample(
        &self,
        n_samples: usize,
        mut rng: StdRng,
        budget: &Budget,
    ) -> Result<CrackSamples, ExecError> {
        budget.check()?;
        let mut samples = CrackSamples {
            counts: Vec::with_capacity(n_samples),
            hits: vec![0; self.start.len()],
        };
        let mut walk = Walk {
            partner: self.start.clone(),
            free_rights: self.free.clone(),
            draws: std::array::from_fn(|_| rng.next_u64()),
            cursor: 0,
            rng,
        };
        self.run(&mut walk, self.config.warmup_swaps, budget)?;
        for _ in 0..n_samples {
            self.run(&mut walk, self.config.swaps_between_samples, budget)?;
            let count = record_cracks(&walk.partner, &mut samples.hits);
            samples.counts.push(count);
        }
        Ok(samples)
    }

    /// Executes `swaps` swap attempts in blocks, polling `budget`
    /// before each block. Each attempt draws a pair `(i, j)` of
    /// matched items — `i` uniform; `j` uniform half the time and
    /// from a window around `i` in the frequency order otherwise
    /// (when the oracle provides one) — and swaps their partners if
    /// both new edges are consistent. The paper's uniform-permutation
    /// sweep is the special case without locality; mixing the two
    /// keeps the chain irreducible wherever the uniform kernel was,
    /// while the local moves let items in small frequency groups
    /// actually find their rare consistent peers.
    fn run(&self, walk: &mut Walk, swaps: usize, budget: &Budget) -> Result<(), ExecError> {
        let mut remaining = swaps;
        while remaining > 0 {
            budget.check()?;
            let start = walk.cursor;
            let (partner, free_rights) = (&mut walk.partner[..], &mut walk.free_rights[..]);
            (walk.cursor, remaining) = if self.order.is_empty() {
                self.block::<false>(partner, free_rights, &walk.draws, start, remaining)
            } else {
                self.block::<true>(partner, free_rights, &walk.draws, start, remaining)
            };
            // Replace the draws the block consumed.
            for t in start..walk.cursor {
                walk.draws[t % STREAM_LEN] = walk.rng.next_u64();
            }
        }
        Ok(())
    }

    /// Runs at most `BLOCK_ATTEMPTS` of the `remaining` attempts from
    /// draw `cursor` on. Returns the new cursor and the attempts
    /// still to run.
    fn block<const LOCAL: bool>(
        &self,
        partner: &mut [usize],
        free_rights: &mut [usize],
        draws: &[u64; STREAM_LEN],
        mut cursor: usize,
        mut remaining: usize,
    ) -> (usize, usize) {
        for _ in 0..BLOCK_ATTEMPTS {
            if remaining == 0 {
                break;
            }
            let (used, attempts) =
                self.attempt::<LOCAL>(partner, free_rights, draws, cursor, remaining);
            cursor += used;
            remaining -= attempts;
        }
        (cursor, remaining)
    }

    /// One swap attempt decoded from the draws at `cursor`. It
    /// consumes the draws `gen_range`/`gen_bool` would, in the same
    /// order, and picks every outcome with a select instead of a
    /// branch. With free columns and attempts to spare it then
    /// proposes moving `i` onto a random free column, which counts
    /// as a second attempt. Returns the draws consumed and the
    /// attempts used (1 or 2).
    #[inline(always)]
    fn attempt<const LOCAL: bool>(
        &self,
        partner: &mut [usize],
        free_rights: &mut [usize],
        draws: &[u64; STREAM_LEN],
        cursor: usize,
        remaining: usize,
    ) -> (usize, usize) {
        let draw = |t: usize| draws[(cursor + t) % STREAM_LEN];
        let active = &self.active;

        let i = active[below(draw(0), active.len())];
        // `proposed` is false when a local proposal falls outside the
        // order: the attempt then ends without a swap or relocation.
        let (j, proposed, used) = if LOCAL {
            let local = coin(draw(1));
            let uniform = active[below(draw(2), active.len())];
            // Symmetric offset in [-w, w] \ {0}.
            let off = 1 + below(draw(2), self.window) as isize;
            let q = self.pos[i] as isize + select_unpredictable(coin(draw(3)), -off, off);
            // A negative `q` wraps to a huge `usize`: one comparison
            // checks both ends of the order.
            let inside = (self.window > 0) & ((q as usize) < self.order.len());
            let near = self.order[select_unpredictable(inside, q as usize, 0)];
            (
                select_unpredictable(local, near, uniform),
                !local | inside,
                select_unpredictable(local, self.local_draws, 3),
            )
        } else {
            (active[below(draw(1), active.len())], true, 2)
        };

        let (yi, yj) = (partner[i], partner[j]);
        let swap = proposed & (i != j) & self.oracle.has_edge(i, yj) & self.oracle.has_edge(j, yi);
        partner[i] = select_unpredictable(swap, yj, yi);
        partner[j] = select_unpredictable(swap, yi, yj);

        if free_rights.is_empty() {
            return (used, 1);
        }
        let relocate = proposed & (remaining > 1);
        let slot = below(draw(used), free_rights.len());
        let (r, old) = (free_rights[slot], partner[i]);
        let moved = relocate & self.oracle.has_edge(i, r);
        partner[i] = select_unpredictable(moved, r, old);
        free_rights[slot] = select_unpredictable(moved, old, r);
        (used + usize::from(relocate), 1 + usize::from(relocate))
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

    /// The driver on an unlimited budget at the ambient worker count.
    fn sample<O: EdgeOracle + Sync>(
        oracle: &O,
        seed: &Matching,
        config: &SamplerConfig,
        rng_seed: u64,
    ) -> Result<CrackSamples, SamplerError> {
        sample_cracks_budgeted(
            oracle,
            seed,
            config,
            rng_seed,
            crate::par::available_threads(),
            &Budget::unlimited(),
        )
    }

    #[test]
    fn complete_graph_mean_is_near_one() {
        // Lemma 1: E[X] = 1 on the complete graph.
        let g = DenseBigraph::complete(8);
        let s = sample(&g, &Matching::identity(8), &quick(), 61).unwrap();
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
            let s = sample(&g, &Matching::identity(n), &quick(), rng.gen()).unwrap();
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
        let err = sample(&g, &Matching::identity(2), &quick(), 63).unwrap_err();
        assert!(matches!(err, SamplerError::InconsistentSeed { .. }));
    }

    #[test]
    fn rejects_empty_seed() {
        let g = DenseBigraph::complete(2);
        let empty = Matching {
            left_partner: vec![None, None],
            right_partner: vec![None, None],
        };
        let err = sample(&g, &empty, &quick(), 64).unwrap_err();
        assert_eq!(err, SamplerError::EmptySeed);
    }

    #[test]
    fn frozen_graph_always_reports_full_cracks() {
        // Identity-only graph: the walk can never move.
        let mut g = DenseBigraph::new(5);
        for i in 0..5 {
            g.add_edge(i, i);
        }
        let s = sample(&g, &Matching::identity(5), &quick(), 65).unwrap();
        assert!(s.counts.iter().all(|&c| c == 5));
        assert_eq!(s.std_dev(), 0.0);
        assert_eq!(s.hits, vec![quick().n_samples as u64; 5]);
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
        let s = sample(&g, &seed, &quick(), 66).unwrap();
        assert!(s.counts.iter().all(|&c| c <= 3));
        assert_eq!(s.hits[3], 0, "the unmatched item is never cracked");
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
        let s = sample(&g, &Matching::identity(6), &quick(), 67).unwrap();
        let mean = s.mean();
        assert!((mean - 3.0).abs() < 0.4, "mean {mean} vs exact 3");
    }

    #[test]
    fn stats_on_empty_and_singleton() {
        let s = CrackSamples {
            counts: vec![],
            hits: vec![],
        };
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.std_dev(), 0.0);
        assert!(s.histogram().is_empty());
        assert_eq!(s.tail_probability(0), 0.0);
        let s = CrackSamples {
            counts: vec![4],
            hits: vec![1; 4],
        };
        assert_eq!(s.mean(), 4.0);
        assert_eq!(s.std_dev(), 0.0);
    }

    #[test]
    fn histogram_tail_and_quantiles() {
        let s = CrackSamples {
            counts: vec![0, 1, 1, 2, 2, 2, 3, 5],
            hits: vec![],
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
            assert_eq!(par.hits, serial.hits, "threads = {threads}");
        }
    }

    #[test]
    fn each_batch_is_a_one_batch_call_at_its_own_seed() {
        // Batch b of a multi-batch run is exactly the driver's
        // one-batch run on the `rng_seed + b` stream.
        let g = DenseBigraph::complete(6);
        let seed = Matching::identity(6);
        let config = SamplerConfig {
            n_samples: 350, // 3 full batches + one of 50
            ..quick()
        };
        let b = Budget::unlimited();
        let sharded = sample_cracks_budgeted(&g, &seed, &config, 99, 4, &b).unwrap();
        let mut counts = Vec::new();
        let mut hits = vec![0; 6];
        for (batch, chunk) in sharded.counts.chunks(config.samples_per_seed).enumerate() {
            let one = SamplerConfig {
                n_samples: chunk.len(),
                ..config
            };
            let s = sample_cracks_budgeted(&g, &seed, &one, 99 + batch as u64, 1, &b).unwrap();
            counts.extend(s.counts);
            for (acc, h) in hits.iter_mut().zip(s.hits) {
                *acc += h;
            }
        }
        assert_eq!(sharded.counts, counts);
        assert_eq!(sharded.hits, hits);
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
        assert_eq!(
            s.hits.iter().sum::<u64>(),
            s.counts.iter().sum::<usize>() as u64
        );
        let probs = sample_crack_probabilities_budgeted(&g, &seed, &config, 7, 3, &b).unwrap();
        assert_eq!(probs.len(), 6);
        let total: f64 = probs.iter().sum();
        assert!((total - s.mean()).abs() < 1e-12, "{total} vs {}", s.mean());
    }

    #[test]
    #[should_panic(expected = "quantile")]
    fn quantile_rejects_out_of_range() {
        let s = CrackSamples {
            counts: vec![1],
            hits: vec![],
        };
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
        let config = SamplerConfig {
            warmup_swaps: 5_000,
            swaps_between_samples: 40,
            samples_per_seed: 3_000,
            n_samples: 9_000,
            use_locality: true,
        };
        let s = sample(&g, &Matching::identity(5), &config, 77).unwrap();
        // P(X >= 2) from the histogram matches the exact tail.
        let exact_tail: f64 = exact[2..].iter().sum();
        assert!(
            (s.tail_probability(2) - exact_tail).abs() < 0.03,
            "sampled {} vs exact {exact_tail}",
            s.tail_probability(2)
        );
    }

    #[test]
    fn zero_samples_means_no_samples() {
        let g = DenseBigraph::complete(5);
        let config = SamplerConfig {
            n_samples: 0,
            ..quick()
        };
        let s = sample(&g, &Matching::identity(5), &config, 3).unwrap();
        assert!(s.counts.is_empty());
        assert_eq!(s.hits, vec![0; 5]);
        let p = sample_crack_probabilities_budgeted(
            &g,
            &Matching::identity(5),
            &config,
            3,
            2,
            &Budget::unlimited(),
        )
        .unwrap();
        assert_eq!(p, vec![0.0; 5]);
    }

    #[test]
    #[should_panic(expected = "samples_per_seed must be >= 1")]
    fn zero_samples_per_seed_panics_in_the_budgeted_driver() {
        let config = SamplerConfig {
            samples_per_seed: 0,
            ..quick()
        };
        let g = DenseBigraph::complete(3);
        let b = Budget::unlimited();
        let _ = sample_cracks_budgeted(&g, &Matching::identity(3), &config, 4, 1, &b);
    }

    #[test]
    fn decoders_match_the_generator_calls() {
        use rand::Rng;
        // The walk decodes raw draws itself; each decoder must agree
        // with the `Rng` call it stands for, draw for draw.
        let mut raw = StdRng::seed_from_u64(5);
        let mut calls = StdRng::seed_from_u64(5);
        for span in (1..200).chain([1 << 20, usize::MAX / 3]) {
            assert_eq!(below(raw.next_u64(), span), calls.gen_range(0..span));
            assert_eq!(coin(raw.next_u64()), calls.gen_bool(0.5));
            assert_eq!(1 + below(raw.next_u64(), span), calls.gen_range(1..=span));
        }
    }
}
