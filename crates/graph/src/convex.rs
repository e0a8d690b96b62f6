//! Exact matching counts and crack expectations for *convex*
//! (interval) mapping spaces.
//!
//! The paper treats exact computation as hopeless — the permanent is
//! #P-complete in general (Section 4.1) — and derives closed forms
//! only for chains (Lemma 6). But the mapping space of an interval
//! belief function is a *convex bipartite graph*: each original
//! item's candidates are a contiguous run of frequency groups, and
//! anonymized items within a group are interchangeable. That
//! structure admits an exact dynamic program:
//!
//! * process frequency groups in increasing order;
//! * a right item with candidate range `[a, b]` "arrives" at group
//!   `a` and must be matched by its "deadline" group `b`;
//! * the DP state is the profile of open (arrived, unmatched) rights
//!   bucketed by remaining deadline — at most `W - 1` counters for
//!   ranges spanning at most `W` groups;
//! * matching the `L_g` anonymized items of group `g` against the
//!   open profile contributes `L_g! · Π_d C(open_d, c_d)` ways.
//!
//! The permanent is the total weight of paths ending with an empty
//! profile, and crack marginals are permanent ratios of minors that
//! stay convex (drop one left slot from the item's own group, one
//! right from its range bucket). Chains are the `W = 2` special case
//! — Lemma 6 falls out — and `W = 1` reproduces Lemma 3. All
//! arithmetic is in log space, so group factorials of any size are
//! fine.
//!
//! Complexity: states are `(W-1)`-tuples of open counts, so this is
//! polynomial for fixed `W` but grows quickly with wide windows; the
//! `max_states` budget makes the trade-off explicit and callers fall
//! back to sampling beyond it.
//!
//! The DP table is stored in a blocked SoA layout: state tuples pack
//! into single `u64` keys (fixed-width fields, `state[0]` most
//! significant, so numeric order equals tuple lex order) held in a
//! sorted key vector parallel to a weight vector, and transitions
//! stream through a scratch block that is stably sorted and merged
//! per generation. The fold order of `log_add` into each target state
//! is exactly the entry-API order of the previous ordered-map
//! implementation (kept as the wide-window fallback), so the two
//! lanes are bit-identical.

use std::collections::BTreeMap;

use crate::grouped::GroupedBigraph;

/// Failure modes of the convex exact computation.
#[derive(Clone, Debug, PartialEq)]
pub enum ConvexError {
    /// Some item has no candidate anonymized items at all: the space
    /// has no perfect matching by construction.
    UnmatchableItem { item: usize },
    /// The DP state budget was exceeded (window too wide / groups
    /// too large) — fall back to sampling.
    BudgetExceeded { states: usize, budget: usize },
    /// The space admits no perfect matching (counting reached zero).
    NoPerfectMatching,
}

impl std::fmt::Display for ConvexError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConvexError::UnmatchableItem { item } => {
                write!(
                    f,
                    "item {item} has no candidates; no perfect matching exists"
                )
            }
            ConvexError::BudgetExceeded { states, budget } => {
                write!(f, "DP needed {states} states, budget is {budget}")
            }
            ConvexError::NoPerfectMatching => {
                write!(f, "the mapping space admits no perfect matching")
            }
        }
    }
}

impl std::error::Error for ConvexError {}

/// The convex structure extracted from a grouped graph.
#[derive(Clone, Debug)]
struct ConvexSpec {
    /// Anonymized items per frequency group.
    left_counts: Vec<usize>,
    /// `arrivals[g][d]` = original items with candidate range
    /// `[g, g + d]`.
    arrivals: Vec<Vec<usize>>,
    /// Candidate group range `[lo, hi]` per original item, validated
    /// non-empty at construction.
    ranges: Vec<(usize, usize)>,
    /// Maximum range width `W` (in groups).
    window: usize,
}

impl ConvexSpec {
    fn from_graph(graph: &GroupedBigraph) -> Result<Self, ConvexError> {
        let k = graph.n_groups();
        let mut window = 1usize;
        let mut ranges = Vec::with_capacity(graph.n());
        for x in 0..graph.n() {
            match graph.right_range_of(x) {
                Some((lo, hi)) => {
                    window = window.max(hi - lo + 1);
                    ranges.push((lo, hi));
                }
                None => return Err(ConvexError::UnmatchableItem { item: x }),
            }
        }
        let mut arrivals = vec![vec![0usize; window]; k];
        for &(lo, hi) in &ranges {
            arrivals[lo][hi - lo] += 1;
        }
        Ok(ConvexSpec {
            left_counts: (0..k).map(|g| graph.group_size(g)).collect(),
            arrivals,
            ranges,
            window,
        })
    }
}

/// Natural-log factorial table.
struct LnFact(Vec<f64>);

impl LnFact {
    fn new(n: usize) -> Self {
        let mut t = Vec::with_capacity(n + 1);
        t.push(0.0);
        for i in 1..=n {
            t.push(t[i - 1] + (i as f64).ln());
        }
        LnFact(t)
    }

    #[inline]
    fn fact(&self, n: usize) -> f64 {
        self.0[n]
    }

    #[inline]
    fn choose(&self, n: usize, k: usize) -> f64 {
        debug_assert!(k <= n);
        self.0[n] - self.0[k] - self.0[n - k]
    }
}

#[inline]
fn log_add(a: f64, b: f64) -> f64 {
    if a == f64::NEG_INFINITY {
        return b;
    }
    if b == f64::NEG_INFINITY {
        return a;
    }
    let (hi, lo) = if a >= b { (a, b) } else { (b, a) };
    hi + (lo - hi).exp().ln_1p()
}

/// Log of the number of perfect matchings of the spec, or `None`
/// when zero.
///
/// `max_states` bounds both the live state count and (×16) the total
/// transition work, so pathological windows abort promptly instead
/// of hanging inside one group.
///
/// Runs the blocked SoA kernel whenever the `(w-1)`-tuple of open
/// counts packs into one `u64` key (every realistic window; a state
/// counter never exceeds the item count `n`, so the packed form
/// covers `(w-1) · ceil(log2(n+1)) <= 64`); wider windows fall back
/// to the ordered-map walk. Both paths produce bit-identical
/// weights: the packed keys order exactly like the state vectors
/// (fields are fixed-width with `state[0]` most significant), and
/// the scratch-block merge folds `log_add` per target state in
/// generation order, which is precisely the entry-API accumulation
/// order of the map.
fn log_permanent(
    spec: &ConvexSpec,
    ln: &LnFact,
    max_states: usize,
) -> Result<Option<f64>, ConvexError> {
    let w = spec.window;
    let n = spec.ranges.len();
    let bits = 64 - (n as u64).leading_zeros();
    if w > 1 && (w - 1) as u32 * bits > 64 {
        return log_permanent_wide(spec, ln, max_states);
    }
    log_permanent_packed(spec, ln, max_states, bits)
}

/// The blocked SoA lane of [`log_permanent`]: the live generation is
/// a pair of parallel vectors (packed keys ascending + log weights),
/// transitions stream into a scratch block that is stably sorted and
/// two-pointer-merged into the next generation, and the DP table is
/// never touched through a pointer-chasing map node.
fn log_permanent_packed(
    spec: &ConvexSpec,
    ln: &LnFact,
    max_states: usize,
    bits: u32,
) -> Result<Option<f64>, ConvexError> {
    let w = spec.window;
    let k = spec.left_counts.len();
    let mut keys: Vec<u64> = vec![0]; // the all-zero open profile
    let mut weights: Vec<f64> = vec![0.0];
    let mut sink = PackedSink {
        ln,
        w,
        bits,
        scratch: Vec::new(),
        acc_keys: Vec::new(),
        acc_weights: Vec::new(),
        block_limit: PACKED_BLOCK,
        work: 0,
        // Clamped so `work` (checked against the budget after every
        // increment) provably stays far from the `usize` edge.
        work_budget: max_states.saturating_mul(16).clamp(1_000, 1 << 62),
    };
    let mut avail = vec![0usize; w];
    let mut choice = vec![0usize; w];
    let field = (1u64 << bits) - 1;
    for g in 0..k {
        sink.acc_keys.clear();
        sink.acc_weights.clear();
        sink.block_limit = PACKED_BLOCK;
        for (&key, &lw) in keys.iter().zip(&weights) {
            // Offsets 0..w-1 available at this group: carried opens
            // (unpacked, shifted) plus fresh arrivals.
            for (d, a) in avail.iter_mut().enumerate() {
                let carried = if d < w - 1 {
                    ((key >> (bits as usize * (w - 2 - d))) & field) as usize
                } else {
                    0
                };
                *a = carried + spec.arrivals[g][d];
            }
            // Deadline-now rights are mandatory.
            let must = avail[0];
            let l_g = spec.left_counts[g];
            if must > l_g {
                continue; // more deadlines than slots: dead path
            }
            choice[0] = must;
            sink.distribute(&avail, &mut choice, 1, l_g - must, lw + ln.fact(l_g))?;
        }
        sink.flush();
        std::mem::swap(&mut keys, &mut sink.acc_keys);
        std::mem::swap(&mut weights, &mut sink.acc_weights);
        if keys.len() > max_states {
            return Err(ConvexError::BudgetExceeded {
                states: keys.len(),
                budget: max_states,
            });
        }
        if keys.is_empty() {
            return Ok(None);
        }
    }
    // The all-zero profile packs to key 0, the minimum — first if
    // present.
    match keys.first() {
        Some(0) => Ok(Some(weights[0])),
        _ => Ok(None),
    }
}

/// Scratch-block size of the packed lane: big enough to amortize the
/// sort+merge, small enough to stay cache-resident.
const PACKED_BLOCK: usize = 4096;

/// Transition sink of the packed lane: generated `(key, weight)`
/// pairs collect in generation order; [`PackedSink::flush`] folds
/// them into the sorted accumulator.
struct PackedSink<'a> {
    ln: &'a LnFact,
    w: usize,
    bits: u32,
    scratch: Vec<(u64, f64)>,
    acc_keys: Vec<u64>,
    acc_weights: Vec<f64>,
    block_limit: usize,
    work: usize,
    work_budget: usize,
}

impl PackedSink<'_> {
    /// Recursively distributes `rem` matches over offsets `d..w` —
    /// the same enumeration order (and the same per-call work
    /// accounting) as the ordered-map walk.
    fn distribute(
        &mut self,
        avail: &[usize],
        choice: &mut Vec<usize>,
        d: usize,
        rem: usize,
        lw: f64,
    ) -> Result<(), ConvexError> {
        // andi::prove_no_overflow — the packed-key field arithmetic is machine-checked
        debug_assert!(
            self.work <= self.work_budget,
            "budget check runs every call"
        );
        // andi::assume(work in [0, 4611686018427387904]) — work <= work_budget <= 2^62 on every live path
        debug_assert!(
            d <= self.w && self.w <= 65,
            "(w - 1) * bits <= 64 forces w <= 65"
        );
        // andi::assume(d in [0, 65]) — recursion stops at d == w and w <= 65 in the packed lane
        self.work += 1;
        if self.work > self.work_budget {
            return Err(ConvexError::BudgetExceeded {
                states: self.work,
                budget: self.work_budget,
            });
        }
        let w = self.w;
        if d == w {
            if rem != 0 {
                return Ok(());
            }
            // Weight: product of C(avail_d, choice_d); offset-0
            // choose is C(a, a) = 0 in log space.
            let mut weight = lw;
            for j in 1..w {
                weight += self.ln.choose(avail[j], choice[j]);
            }
            // New state: leftovers shifted down by one offset, packed
            // most-significant-first so key order is state lex order.
            let mut key = 0u64;
            for j in 1..w {
                debug_assert!(
                    self.bits < 64 && key <= u64::MAX >> self.bits,
                    "entry check caps the packed width at (w - 1) * bits <= 64"
                );
                // andi::assume(key << self.bits in [0, 18446744073709551615]) — at most (w - 2) fields of `bits` bits are packed before this shift
                debug_assert!(choice[j] <= avail[j], "choices never exceed availability");
                // andi::assume(avail[j] - choice[j] in [0, 18446744073709551615]) — every choice is capped at max_c, which never exceeds availability
                key = (key << self.bits) | (avail[j] - choice[j]) as u64;
            }
            self.scratch.push((key, weight));
            if self.scratch.len() >= self.block_limit {
                self.flush();
                // Keep merges amortized once the table outgrows the
                // block: each flush rewrites the accumulator once.
                self.block_limit = self.acc_keys.len().max(PACKED_BLOCK);
            }
            return Ok(());
        }
        // Bound the choice at this offset by what later offsets can
        // still absorb.
        let later_capacity: usize = avail[d + 1..w.min(avail.len())].iter().sum();
        let min_c = rem.saturating_sub(later_capacity);
        let max_c = rem.min(avail[d]);
        for c in min_c..=max_c {
            choice[d] = c;
            debug_assert!(c <= rem, "max_c = rem.min(avail[d]) caps the choice");
            // andi::assume(rem - c in [0, 18446744073709551615]) — c <= max_c <= rem
            self.distribute(avail, choice, d + 1, rem - c, lw)?;
        }
        Ok(())
    }

    /// Stable-sorts the scratch block by key and two-pointer-merges
    /// it into the sorted accumulator, folding `log_add` over each
    /// key's pairs in generation order — bit-identical to entry-API
    /// accumulation into an ordered map.
    fn flush(&mut self) {
        if self.scratch.is_empty() {
            return;
        }
        self.scratch.sort_by_key(|&(key, _)| key);
        let merged_cap = self.acc_keys.len() + self.scratch.len();
        let mut keys = Vec::with_capacity(merged_cap);
        let mut weights = Vec::with_capacity(merged_cap);
        let (mut i, mut j) = (0, 0);
        while i < self.acc_keys.len() || j < self.scratch.len() {
            let take_acc = j >= self.scratch.len()
                || (i < self.acc_keys.len() && self.acc_keys[i] <= self.scratch[j].0);
            let (key, mut value) = if take_acc {
                let pair = (self.acc_keys[i], self.acc_weights[i]);
                i += 1;
                pair
            } else {
                (self.scratch[j].0, f64::NEG_INFINITY)
            };
            while j < self.scratch.len() && self.scratch[j].0 == key {
                value = log_add(value, self.scratch[j].1);
                j += 1;
            }
            keys.push(key);
            weights.push(value);
        }
        self.acc_keys = keys;
        self.acc_weights = weights;
        self.scratch.clear();
    }
}

/// The ordered-map fallback for windows too wide to pack (and the
/// bit-identity reference for the packed lane).
fn log_permanent_wide(
    spec: &ConvexSpec,
    ln: &LnFact,
    max_states: usize,
) -> Result<Option<f64>, ConvexError> {
    let w = spec.window;
    let k = spec.left_counts.len();
    // State: open counts at offsets 1..w-1 (relative to the *next*
    // group), i.e. a vector of length w-1. Log-weighted. A BTreeMap
    // keeps the iteration order (and so the `log_add` accumulation
    // order feeding shared target states) deterministic — hash order
    // would perturb floating-point results run to run.
    let mut states: BTreeMap<Vec<usize>, f64> = BTreeMap::new();
    states.insert(vec![0usize; w - 1], 0.0);

    let mut dp = Dp {
        ln,
        next: BTreeMap::new(),
        work: 0,
        // Same clamp as the packed lane, so the two lanes' work
        // accounting trips identically.
        work_budget: max_states.saturating_mul(16).clamp(1_000, 1 << 62),
        w,
    };
    let mut avail = vec![0usize; w];
    let mut choice = vec![0usize; w];
    for g in 0..k {
        dp.next.clear();
        for (state, &lw) in &states {
            // Offsets 0..w-1 available at this group: carried opens
            // (shifted) plus fresh arrivals.
            for d in 0..w {
                let carried = if d < w - 1 { state[d] } else { 0 };
                avail[d] = carried + spec.arrivals[g][d];
            }
            // Deadline-now rights are mandatory.
            let must = avail[0];
            let l_g = spec.left_counts[g];
            if must > l_g {
                continue; // more deadlines than slots: dead path
            }
            choice[0] = must;
            dp.distribute(&avail, &mut choice, 1, l_g - must, lw + ln.fact(l_g))?;
        }
        std::mem::swap(&mut states, &mut dp.next);
        if states.len() > max_states {
            return Err(ConvexError::BudgetExceeded {
                states: states.len(),
                budget: max_states,
            });
        }
        if states.is_empty() {
            return Ok(None);
        }
    }
    Ok(states.get(vec![0usize; w - 1].as_slice()).copied())
}

/// DP scratch: target map plus the transition-work accounting.
struct Dp<'a> {
    ln: &'a LnFact,
    next: BTreeMap<Vec<usize>, f64>,
    work: usize,
    work_budget: usize,
    w: usize,
}

impl Dp<'_> {
    /// Recursively distributes `rem` matches over offsets `d..w`,
    /// accumulating resulting states.
    fn distribute(
        &mut self,
        avail: &[usize],
        choice: &mut Vec<usize>,
        d: usize,
        rem: usize,
        lw: f64,
    ) -> Result<(), ConvexError> {
        self.work += 1;
        if self.work > self.work_budget {
            return Err(ConvexError::BudgetExceeded {
                states: self.work,
                budget: self.work_budget,
            });
        }
        let w = self.w;
        if d == w {
            if rem != 0 {
                return Ok(());
            }
            // Weight: product of C(avail_d, choice_d); offset-0
            // choose is C(a, a) = 0 in log space.
            let mut weight = lw;
            for j in 1..w {
                weight += self.ln.choose(avail[j], choice[j]);
            }
            // New state: leftovers shifted down by one offset.
            let state: Vec<usize> = (1..w).map(|j| avail[j] - choice[j]).collect();
            let slot = self.next.entry(state).or_insert(f64::NEG_INFINITY);
            *slot = log_add(*slot, weight);
            return Ok(());
        }
        // Bound the choice at this offset by what later offsets can
        // still absorb.
        let later_capacity: usize = avail[d + 1..w.min(avail.len())].iter().sum();
        let min_c = rem.saturating_sub(later_capacity);
        let max_c = rem.min(avail[d]);
        for c in min_c..=max_c {
            choice[d] = c;
            self.distribute(avail, choice, d + 1, rem - c, lw)?;
        }
        Ok(())
    }
}

/// Result of the convex exact analysis.
#[derive(Clone, Debug)]
pub struct ConvexExact {
    /// Exact expected number of cracks.
    pub expected_cracks: f64,
    /// Natural log of the number of consistent perfect matchings.
    pub log_matchings: f64,
    /// The window width `W` the DP ran with.
    pub window: usize,
}

/// Default DP state budget.
pub const DEFAULT_STATE_BUDGET: usize = 2_000_000;

/// Computes the exact expected number of cracks of a (compliant)
/// grouped mapping space by convex dynamic programming.
///
/// Generalizes Lemma 3 (`W = 1`), Lemma 5/6 (`W = 2` chains) and
/// goes beyond, in time polynomial for fixed window width.
///
/// # Examples
///
/// Point-valued beliefs (window 1) recover Lemma 3 exactly:
///
/// ```
/// use andi_graph::convex::{expected_cracks_convex, DEFAULT_STATE_BUDGET};
/// use andi_graph::GroupedBigraph;
///
/// let supports = [5u64, 4, 5, 5, 3, 5]; // three frequency groups
/// let intervals: Vec<(f64, f64)> = supports
///     .iter()
///     .map(|&s| { let f = s as f64 / 10.0; (f, f) })
///     .collect();
/// let graph = GroupedBigraph::new(&supports, 10, &intervals);
/// let exact = expected_cracks_convex(&graph, DEFAULT_STATE_BUDGET).unwrap();
/// assert_eq!(exact.window, 1);
/// assert!((exact.expected_cracks - 3.0).abs() < 1e-12); // = g
/// ```
///
/// # Errors
///
/// See [`ConvexError`]. A non-compliant graph is fine as long as
/// every item keeps a non-empty candidate range (non-compliant items
/// simply have crack probability 0 and are skipped in the marginal
/// sum).
pub fn expected_cracks_convex(
    graph: &GroupedBigraph,
    max_states: usize,
) -> Result<ConvexExact, ConvexError> {
    let (probs, log_total, window) = crack_marginals(graph, max_states)?;
    Ok(ConvexExact {
        expected_cracks: probs.iter().sum(),
        log_matchings: log_total,
        window,
    })
}

/// Exact per-item crack probabilities of a grouped mapping space:
/// entry `x` is `P(x' maps to x)` under a uniformly random
/// consistent perfect matching. Non-compliant items get 0.
///
/// # Errors
///
/// See [`ConvexError`].
pub fn crack_probabilities_convex(
    graph: &GroupedBigraph,
    max_states: usize,
) -> Result<Vec<f64>, ConvexError> {
    crack_marginals(graph, max_states).map(|(p, _, _)| p)
}

/// Shared marginal computation: per-item probabilities, the log
/// matching count, and the window width.
fn crack_marginals(
    graph: &GroupedBigraph,
    max_states: usize,
) -> Result<(Vec<f64>, f64, usize), ConvexError> {
    let spec = ConvexSpec::from_graph(graph)?;
    let ln = LnFact::new(graph.n() + 1);
    let log_total = log_permanent(&spec, &ln, max_states)?.ok_or(ConvexError::NoPerfectMatching)?;

    // Group compliant items by (range, own group): identical minors.
    // BTreeMap so minor evaluation order (and any future
    // accumulation over it) is deterministic.
    let mut buckets: BTreeMap<(usize, usize, usize), Vec<usize>> = BTreeMap::new();
    for x in 0..graph.n() {
        let (lo, hi) = spec.ranges[x];
        let own = graph.left_group_of(x);
        if own < lo || own > hi {
            continue; // non-compliant: crack edge absent, P = 0
        }
        buckets.entry((lo, hi, own)).or_default().push(x);
    }

    let mut probs = vec![0.0f64; graph.n()];
    for (&(lo, hi, own), members) in &buckets {
        let mut minor = spec.clone();
        minor.left_counts[own] -= 1;
        minor.arrivals[lo][hi - lo] -= 1;
        let log_minor = match log_permanent(&minor, &ln, max_states)? {
            Some(v) => v,
            None => continue, // the crack edge is in no matching
        };
        let p = (log_minor - log_total).exp();
        for &x in members {
            probs[x] = p;
        }
    }
    Ok((probs, log_total, spec.window))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::expected_cracks;

    /// Grouped graph from supports + intervals (helper).
    fn graph(supports: &[u64], m: u64, intervals: &[(f64, f64)]) -> GroupedBigraph {
        GroupedBigraph::new(supports, m, intervals)
    }

    #[test]
    fn point_valued_recovers_lemma_3() {
        // BigMart point-valued: three complete blocks, E = 3.
        let supports = [5u64, 4, 5, 5, 3, 5];
        let intervals: Vec<(f64, f64)> = supports
            .iter()
            .map(|&s| {
                let f = s as f64 / 10.0;
                (f, f)
            })
            .collect();
        let g = graph(&supports, 10, &intervals);
        let r = expected_cracks_convex(&g, DEFAULT_STATE_BUDGET).unwrap();
        assert_eq!(r.window, 1);
        assert!((r.expected_cracks - 3.0).abs() < 1e-9);
        // log matchings = ln(4! * 1 * 1) = ln 24.
        assert!((r.log_matchings - 24.0f64.ln()).abs() < 1e-9);
    }

    #[test]
    fn chain_recovers_lemma_5() {
        // The Section 4.2 chain: n=(5,3), e=(3,2), s=3 -> 74/45.
        // Realize at m = 90: freq groups at supports 30 and 60.
        let mut supports = Vec::new();
        let mut intervals = Vec::new();
        let f1 = 30.0 / 90.0;
        let f2 = 60.0 / 90.0;
        for _ in 0..3 {
            supports.push(30u64);
            intervals.push((f1, f1));
        }
        for _ in 0..2 {
            supports.push(30);
            intervals.push((f1, f2));
        }
        for _ in 0..2 {
            supports.push(60);
            intervals.push((f2, f2));
        }
        supports.push(60);
        intervals.push((f1, f2));
        let g = graph(&supports, 90, &intervals);
        let r = expected_cracks_convex(&g, DEFAULT_STATE_BUDGET).unwrap();
        assert_eq!(r.window, 2);
        assert!(
            (r.expected_cracks - 74.0 / 45.0).abs() < 1e-9,
            "got {}",
            r.expected_cracks
        );
    }

    #[test]
    fn marginals_match_ryser_probabilities() {
        use crate::exact::crack_probabilities;
        let supports = [5u64, 4, 5, 5, 3, 5];
        let intervals = vec![
            (0.0, 1.0),
            (0.4, 0.5),
            (0.5, 0.5),
            (0.4, 0.6),
            (0.1, 0.4),
            (0.5, 0.5),
        ];
        let g = graph(&supports, 10, &intervals);
        let convex = crack_probabilities_convex(&g, DEFAULT_STATE_BUDGET).unwrap();
        let ryser = crack_probabilities(&g.to_dense()).unwrap();
        for (x, (a, b)) in convex.iter().zip(ryser.iter()).enumerate() {
            assert!((a - b).abs() < 1e-9, "item {x}: convex {a} vs ryser {b}");
        }
    }

    #[test]
    fn agrees_with_ryser_on_random_interval_graphs() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(31415);
        for trial in 0..40 {
            let n = rng.gen_range(3..=9);
            let supports: Vec<u64> = (0..n).map(|_| rng.gen_range(1..30)).collect();
            let intervals: Vec<(f64, f64)> = supports
                .iter()
                .map(|&s| {
                    let f = s as f64 / 30.0;
                    let a: f64 = rng.gen_range(0.0..0.3);
                    let b: f64 = rng.gen_range(0.0..0.3);
                    ((f - a).max(0.0), (f + b).min(1.0))
                })
                .collect();
            let g = graph(&supports, 30, &intervals);
            let dense = g.to_dense();
            let exact = expected_cracks(&dense).expect("compliant");
            let convex =
                expected_cracks_convex(&g, DEFAULT_STATE_BUDGET).expect("compliant and small");
            assert!(
                (convex.expected_cracks - exact).abs() < 1e-7,
                "trial {trial}: convex {} vs ryser {exact}",
                convex.expected_cracks
            );
        }
    }

    #[test]
    fn beyond_chains_window_3() {
        // A genuinely non-chain structure: an item spanning three
        // groups (the belief h's wide interval style). Cross-check
        // with Ryser.
        let supports = [2u64, 2, 5, 5, 8];
        let f = |s: u64| s as f64 / 10.0;
        let intervals = vec![
            (f(2), f(8)), // spans all three groups
            (f(2), f(5)),
            (f(2), f(5)),
            (f(5), f(8)),
            (f(5), f(8)),
        ];
        let g = graph(&supports, 10, &intervals);
        let r = expected_cracks_convex(&g, DEFAULT_STATE_BUDGET).unwrap();
        assert_eq!(r.window, 3);
        let exact = expected_cracks(&g.to_dense()).unwrap();
        assert!(
            (r.expected_cracks - exact).abs() < 1e-9,
            "convex {} vs ryser {exact}",
            r.expected_cracks
        );
    }

    #[test]
    fn scales_beyond_ryser_for_chains() {
        // A chain with 60 items per group: far beyond 2^n Ryser, easy
        // for the DP. Validate against Lemma 6 closed form computed
        // manually: n=(60,60), e=(30,30), s=60, u=v=30.
        let mut supports = Vec::new();
        let mut intervals = Vec::new();
        let f1 = 100.0 / 1000.0;
        let f2 = 200.0 / 1000.0;
        for _ in 0..30 {
            supports.push(100u64);
            intervals.push((f1, f1));
        }
        for _ in 0..30 {
            supports.push(100);
            intervals.push((f1, f2));
        }
        for _ in 0..30 {
            supports.push(200);
            intervals.push((f2, f2));
        }
        for _ in 0..30 {
            supports.push(200);
            intervals.push((f1, f2));
        }
        let g = graph(&supports, 1000, &intervals);
        let r = expected_cracks_convex(&g, DEFAULT_STATE_BUDGET).unwrap();
        // Lemma 5: e1/n1 + e2/n2 + u^2/(s n1) + v^2/(s n2)
        //        = .5 + .5 + 900/3600 + 900/3600 = 1.5.
        assert!(
            (r.expected_cracks - 1.5).abs() < 1e-9,
            "got {}",
            r.expected_cracks
        );
    }

    #[test]
    fn repeated_runs_are_bit_identical() {
        // Regression: the DP used to iterate a `HashMap` of states,
        // so the order of `log_add` accumulations into shared target
        // states followed hash order — per-instance seeded, i.e.
        // nondeterministic even within one process. With ordered
        // state maps, every run must produce the same bits.
        let supports = [2u64, 2, 5, 5, 8, 8, 8];
        let f = |s: u64| s as f64 / 10.0;
        let intervals = vec![
            (f(2), f(8)),
            (f(2), f(5)),
            (f(2), f(5)),
            (f(5), f(8)),
            (f(5), f(8)),
            (f(2), f(8)),
            (f(5), f(8)),
        ];
        let g = graph(&supports, 10, &intervals);
        let first = expected_cracks_convex(&g, DEFAULT_STATE_BUDGET).unwrap();
        let first_probs = crack_probabilities_convex(&g, DEFAULT_STATE_BUDGET).unwrap();
        for run in 0..20 {
            let r = expected_cracks_convex(&g, DEFAULT_STATE_BUDGET).unwrap();
            assert_eq!(
                r.expected_cracks.to_bits(),
                first.expected_cracks.to_bits(),
                "run {run}: expected_cracks drifted"
            );
            assert_eq!(
                r.log_matchings.to_bits(),
                first.log_matchings.to_bits(),
                "run {run}: log_matchings drifted"
            );
            let probs = crack_probabilities_convex(&g, DEFAULT_STATE_BUDGET).unwrap();
            for (x, (a, b)) in probs.iter().zip(first_probs.iter()).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "run {run}: item {x} drifted");
            }
        }
    }

    #[test]
    fn packed_and_wide_paths_are_bit_identical() {
        // The blocked SoA lane must reproduce the ordered-map walk
        // bit for bit: same state order, same log_add fold order.
        type Case = (Vec<u64>, u64, Vec<(f64, f64)>);
        let cases: Vec<Case> = vec![
            // window 2 chain
            (
                vec![30, 30, 30, 60, 60, 60],
                90,
                vec![
                    (1.0 / 3.0, 1.0 / 3.0),
                    (1.0 / 3.0, 2.0 / 3.0),
                    (1.0 / 3.0, 2.0 / 3.0),
                    (2.0 / 3.0, 2.0 / 3.0),
                    (2.0 / 3.0, 2.0 / 3.0),
                    (1.0 / 3.0, 2.0 / 3.0),
                ],
            ),
            // window 3 with shared target states from many sources
            (
                vec![2, 2, 5, 5, 8, 8, 8],
                10,
                vec![
                    (0.2, 0.8),
                    (0.2, 0.5),
                    (0.2, 0.5),
                    (0.5, 0.8),
                    (0.5, 0.8),
                    (0.2, 0.8),
                    (0.5, 0.8),
                ],
            ),
        ];
        for (supports, m, intervals) in cases {
            let g = graph(&supports, m, &intervals);
            let spec = ConvexSpec::from_graph(&g).unwrap();
            let ln = LnFact::new(g.n() + 1);
            let bits = 64 - (spec.ranges.len() as u64).leading_zeros();
            let packed = log_permanent_packed(&spec, &ln, DEFAULT_STATE_BUDGET, bits)
                .unwrap()
                .unwrap();
            let wide = log_permanent_wide(&spec, &ln, DEFAULT_STATE_BUDGET)
                .unwrap()
                .unwrap();
            assert_eq!(
                packed.to_bits(),
                wide.to_bits(),
                "packed {packed} vs wide {wide}"
            );
        }
    }

    #[test]
    fn packed_flush_blocks_preserve_fold_order() {
        // Force many flushes with a tiny block by shrinking the
        // scratch threshold indirectly: a larger instance whose
        // transition count far exceeds PACKED_BLOCK exercises
        // mid-group merges; the result must still match the wide
        // walk exactly.
        let mut supports = Vec::new();
        let mut intervals = Vec::new();
        let f1 = 100.0 / 1000.0;
        let f2 = 200.0 / 1000.0;
        for _ in 0..30 {
            supports.push(100u64);
            intervals.push((f1, f1));
        }
        for _ in 0..30 {
            supports.push(100);
            intervals.push((f1, f2));
        }
        for _ in 0..30 {
            supports.push(200);
            intervals.push((f2, f2));
        }
        for _ in 0..30 {
            supports.push(200);
            intervals.push((f1, f2));
        }
        let g = graph(&supports, 1000, &intervals);
        let spec = ConvexSpec::from_graph(&g).unwrap();
        let ln = LnFact::new(g.n() + 1);
        let bits = 64 - (spec.ranges.len() as u64).leading_zeros();
        let packed = log_permanent_packed(&spec, &ln, DEFAULT_STATE_BUDGET, bits)
            .unwrap()
            .unwrap();
        let wide = log_permanent_wide(&spec, &ln, DEFAULT_STATE_BUDGET)
            .unwrap()
            .unwrap();
        assert_eq!(packed.to_bits(), wide.to_bits());
    }

    #[test]
    fn unmatchable_item_is_reported() {
        let supports = [5u64, 4];
        let intervals = vec![(0.9, 1.0), (0.0, 1.0)];
        let g = graph(&supports, 10, &intervals);
        assert_eq!(
            expected_cracks_convex(&g, DEFAULT_STATE_BUDGET).unwrap_err(),
            ConvexError::UnmatchableItem { item: 0 }
        );
    }

    #[test]
    fn infeasible_space_is_reported() {
        // Two items both believing only the {support 4} group (one
        // anonymized item) — no perfect matching.
        let supports = [4u64, 8];
        let f4 = 0.4;
        let intervals = vec![(f4, f4), (f4, f4)];
        let g = graph(&supports, 10, &intervals);
        assert_eq!(
            expected_cracks_convex(&g, DEFAULT_STATE_BUDGET).unwrap_err(),
            ConvexError::NoPerfectMatching
        );
    }

    #[test]
    fn budget_exceeded_is_reported() {
        // Force a tiny budget.
        let supports = [2u64, 5, 8];
        let f = |s: u64| s as f64 / 10.0;
        let intervals = vec![(f(2), f(8)), (f(2), f(8)), (f(2), f(8))];
        let g = graph(&supports, 10, &intervals);
        match expected_cracks_convex(&g, 0) {
            Err(ConvexError::BudgetExceeded { budget: 0, .. }) => {}
            other => panic!("expected budget error, got {other:?}"),
        }
    }

    #[test]
    fn noncompliant_items_contribute_zero() {
        // Item 0 believes the wrong group; still matchable, never
        // cracked.
        let supports = [2u64, 8];
        let f = |s: u64| s as f64 / 10.0;
        let intervals = vec![(f(8), f(8)), (f(2), f(8))];
        let g = graph(&supports, 10, &intervals);
        let r = expected_cracks_convex(&g, DEFAULT_STATE_BUDGET).unwrap();
        // Unique matching: 0' (freq .2)... item 0 accepts only the
        // freq-.8 anonymized item (1'), item 1 accepts both; perfect
        // matching must give 1' to item 0 and 0' to item 1: zero
        // cracks... except item 1 gets 0' which is NOT its own (its
        // own is 1'): so E = 0.
        assert!((r.expected_cracks - 0.0).abs() < 1e-12);
        let exact = expected_cracks(&g.to_dense()).unwrap();
        assert!((exact - 0.0).abs() < 1e-12);
    }
}
