//! Exact expected-crack computation via permanents (Section 4.1).
//!
//! Under the equal-likelihood assumption over consistent crack
//! mappings, the probability that anonymized item `x'` maps to its
//! true identity `x` is the fraction of perfect matchings using edge
//! `(x', x)`:
//!
//! ```text
//! P(crack x) = perm(A with row x' and column x deleted) / perm(A)
//! ```
//!
//! By linearity of expectation, `E[X]` is the sum of these ratios —
//! this avoids the paper's subset-sum formulation for the expectation
//! while producing identical values. The full crack-count
//! *distribution* `P(X = k)` is also provided for tiny domains,
//! following the paper's formula literally (enumerate cracked subsets
//! `S`, forbid crack edges outside `S`, count matchings).
//!
//! [`crack_probabilities_budgeted`] is the one budgeted core; the
//! other entry points run it (or, for the distribution, the budgeted
//! permanent) with [`Budget::unlimited`] on the ambient worker count.

use crate::dense::DenseBigraph;
use crate::par;
use crate::par::{Budget, ExecError};
use crate::permanent::{try_permanent_of_rows_budgeted, MAX_PERMANENT_N};

/// Structured failure of an exact computation: every condition the
/// panicking wrappers either panic on or fold into `None` gets its
/// own variant, so budgeted callers (the Assess-Risk degradation
/// ladder) can tell "descend a rung" apart from "abort".
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExactError {
    /// The graph has no perfect matching: the mapping space is empty
    /// and crack probabilities are undefined.
    EmptyMappingSpace,
    /// The Ryser accumulator would overflow `i128` (dense graphs
    /// near [`MAX_PERMANENT_N`]).
    Overflow,
    /// A budgeted run was interrupted: deadline, cancellation, or an
    /// isolated worker panic.
    Interrupted(ExecError),
}

impl std::fmt::Display for ExactError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExactError::EmptyMappingSpace => {
                write!(f, "graph has no perfect matching; mapping space is empty")
            }
            ExactError::Overflow => {
                write!(
                    f,
                    "permanent overflowed i128; domain too dense for exact Ryser"
                )
            }
            ExactError::Interrupted(e) => write!(f, "exact computation interrupted: {e}"),
        }
    }
}

impl std::error::Error for ExactError {}

/// Exact expected number of cracks in the aligned graph `g`: the
/// item-order sum of [`crack_probabilities`].
///
/// Returns `None` when the graph has no perfect matching at all (the
/// mapping space is empty and the expectation is undefined).
///
/// # Panics
///
/// As [`crack_probabilities`].
/// # Examples
///
/// ```
/// use andi_graph::{expected_cracks, DenseBigraph};
///
/// // Lemma 1: one expected crack on the complete graph.
/// let e = expected_cracks(&DenseBigraph::complete(5)).unwrap();
/// assert!((e - 1.0).abs() < 1e-9);
///
/// // No perfect matching -> undefined.
/// let g = DenseBigraph::from_edges(2, &[(0, 1), (1, 1)]);
/// assert_eq!(expected_cracks(&g), None);
/// ```
pub fn expected_cracks(g: &DenseBigraph) -> Option<f64> {
    // Items without a crack edge contribute an exact 0.0, so this is
    // the same sum a loop over the crack edges alone accumulates.
    crack_probabilities(g).map(|probs| probs.iter().fold(0.0, |e, &p| e + p))
}

/// Per-item exact crack probabilities: entry `x` is
/// `P(x' maps to x)` — the fraction of perfect matchings that use the
/// crack edge `(x', x)`.
///
/// The graph is first split into its connected components. A uniform
/// consistent mapping is a product of independent uniform mappings,
/// one per component (Section 4.1), so `perm(A) = Π_k perm(C_k)` and,
/// for `x` in component `C_x`,
/// `perm(A_xx) = perm(C_x minus x) · Π_{k≠x} perm(C_k)`. Each
/// component permanent and each diagonal minor inside a component
/// runs through [`try_permanent_of_rows_budgeted`]; the products are
/// `u128::checked_mul`s of those integers. They are the same
/// integers a whole-graph walk produces, so the ratios are too, bit
/// for bit — only the `2^n` subsets of the whole graph are never
/// walked. The computation respects the deadline/token and reports
/// structured errors. The order of the walks is fixed, so the result
/// is bit-identical at any thread count.
///
/// # Errors
///
/// See [`ExactError`]. A component whose sides differ in size (say,
/// an item no candidate can take, or a column no item can reach) is
/// an [`ExactError::EmptyMappingSpace`] before any walk runs; the
/// budget is checked once before the split.
///
/// # Panics
///
/// Panics if `g.n() > MAX_PERMANENT_N`.
pub fn crack_probabilities_budgeted(
    g: &DenseBigraph,
    threads: usize,
    budget: &Budget,
) -> Result<Vec<f64>, ExactError> {
    let n = g.n();
    assert!(n <= MAX_PERMANENT_N);
    budget.check().map_err(ExactError::Interrupted)?;
    let rows: Vec<u64> = (0..n).map(|i| g.row_words(i)[0]).collect();
    let components = components(&rows)?;
    let mut perms = Vec::with_capacity(components.len());
    let mut total: u128 = 1;
    for &(left, right) in &components {
        let p = component_permanent(&rows, left, right, threads, budget)?;
        if p == 0 {
            return Err(ExactError::EmptyMappingSpace);
        }
        total = total.checked_mul(p).ok_or(ExactError::Overflow)?;
        perms.push(p);
    }
    let mut probs = vec![0.0; n];
    for (&(left, right), &p) in components.iter().zip(&perms) {
        // The exact product of the other components' permanents.
        let others = total / p;
        // A crack edge puts row x and column x in one component.
        for x in bits(left).filter(|&x| g.has_edge(x, x)) {
            let bit = 1u64 << x;
            let minor = component_permanent(&rows, left & !bit, right & !bit, threads, budget)?;
            let fixed = minor.checked_mul(others).ok_or(ExactError::Overflow)?;
            probs[x] = fixed as f64 / total as f64;
        }
    }
    Ok(probs)
}

/// Splits the graph with row masks `rows` (`rows.len() <= 32`) into
/// its connected components, in the order of their lowest row: each
/// is a pair of (row, column) bitmasks. A component whose sides
/// differ in size has no perfect matching, so it is
/// [`ExactError::EmptyMappingSpace`]. That covers an empty row and,
/// since the components partition the rows, an uncovered column.
fn components(rows: &[u64]) -> Result<Vec<(u64, u64)>, ExactError> {
    let mut unassigned = (1u64 << rows.len()) - 1;
    let mut out = Vec::new();
    while unassigned != 0 {
        let first = unassigned.trailing_zeros() as usize;
        let (mut left, mut right) = (1u64 << first, rows[first]);
        unassigned &= !left;
        // Pull in every unassigned row that reaches the component's
        // columns until none does.
        loop {
            let joining = bits(unassigned)
                .filter(|&i| rows[i] & right != 0)
                .fold(0u64, |acc, i| acc | 1u64 << i);
            if joining == 0 {
                break;
            }
            unassigned &= !joining;
            left |= joining;
            right = bits(joining).fold(right, |acc, i| acc | rows[i]);
        }
        if left.count_ones() != right.count_ones() {
            return Err(ExactError::EmptyMappingSpace);
        }
        out.push((left, right));
    }
    Ok(out)
}

/// Budgeted permanent of the square submatrix on rows `left` and
/// columns `right` (equal popcounts), with the columns gathered into
/// the low bits in column order.
fn component_permanent(
    rows: &[u64],
    left: u64,
    right: u64,
    threads: usize,
    budget: &Budget,
) -> Result<u128, ExactError> {
    let sub: Vec<u64> = bits(left).map(|i| gather(rows[i], right)).collect();
    budgeted_permanent(&sub, sub.len(), threads, budget)
}

/// The set bit positions of `mask`, lowest first.
fn bits(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let i = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            i
        })
    })
}

/// Packs the bits of `row` at the positions set in `cols` into the
/// low bits, keeping their order (a software `pext`).
fn gather(row: u64, cols: u64) -> u64 {
    bits(cols)
        .enumerate()
        .fold(0, |acc, (k, j)| acc | ((row >> j) & 1) << k)
}

/// Maps the budgeted permanent's three-way outcome onto
/// [`ExactError`].
pub(crate) fn budgeted_permanent(
    rows: &[u64],
    n: usize,
    threads: usize,
    budget: &Budget,
) -> Result<u128, ExactError> {
    match try_permanent_of_rows_budgeted(rows, n, threads, budget) {
        Err(e) => Err(ExactError::Interrupted(e)),
        Ok(None) => Err(ExactError::Overflow),
        Ok(Some(v)) => Ok(v),
    }
}

/// [`crack_probabilities_budgeted`] with an unlimited budget on the
/// ambient [`par::available_threads`] worker count. `None` if no
/// perfect matching exists — and only then.
///
/// # Panics
///
/// Panics if `g.n() > MAX_PERMANENT_N`, on accumulator overflow
/// (dense graphs near the cap; [`crack_probabilities_budgeted`]
/// reports it as [`ExactError::Overflow`]) and on an injected fault.
pub fn crack_probabilities(g: &DenseBigraph) -> Option<Vec<f64>> {
    or_empty(crack_probabilities_budgeted(
        g,
        par::available_threads(),
        &Budget::unlimited(),
    ))
}

/// Unwraps an unlimited-budget exact result for the convenience
/// wrappers: an empty mapping space is `None`, every other failure
/// panics through [`exact_failure`].
fn or_empty<T>(result: Result<T, ExactError>) -> Option<T> {
    match result {
        Ok(v) => Some(v),
        Err(ExactError::EmptyMappingSpace) => None,
        Err(e) => exact_failure(e),
    }
}

/// The single panic site of the convenience wrappers ([`permanent`],
/// [`crack_probabilities`], [`expected_cracks`],
/// [`crack_distribution`]). They run on an unlimited budget, so only
/// accumulator overflow or a fault injected into a chunk task lands
/// here; budgeted callers see the same conditions as [`ExactError`].
///
/// [`permanent`]: crate::permanent::permanent
pub(crate) fn exact_failure(e: ExactError) -> ! {
    // andi::allow(panic-reachability) — documented panicking wrappers; overflow-safe callers use the budgeted cores
    panic!("{e}")
}

/// Removes bit `col` from a row mask, shifting higher bits down by
/// one (column deletion).
#[inline]
fn delete_column(row: u64, col: usize) -> u64 {
    let low = row & ((1u64 << col) - 1);
    let high = (row >> (col + 1)) << col;
    low | high
}

/// Maximum domain size for the full crack-count distribution.
pub const MAX_DISTRIBUTION_N: usize = 14;

/// The exact distribution `P(X = k)` of the number of cracks,
/// `k = 0..=n`, following the paper's Section 4.1 formula.
///
/// Returns `None` if the graph has no perfect matching. Every
/// permanent runs through [`try_permanent_of_rows_budgeted`] with an
/// unlimited budget on the ambient worker count.
///
/// # Panics
///
/// Panics if `g.n() > MAX_DISTRIBUTION_N` or on an injected fault.
/// # Examples
///
/// ```
/// use andi_graph::{crack_distribution, DenseBigraph};
///
/// let dist = crack_distribution(&DenseBigraph::complete(4)).unwrap();
/// // Derangement structure: P(X = 3) = 0 (you cannot miss exactly one).
/// assert!(dist[3].abs() < 1e-12);
/// let mass: f64 = dist.iter().sum();
/// assert!((mass - 1.0).abs() < 1e-9);
/// ```
pub fn crack_distribution(g: &DenseBigraph) -> Option<Vec<f64>> {
    let n = g.n();
    assert!(
        n <= MAX_DISTRIBUTION_N,
        "distribution limited to n <= {MAX_DISTRIBUTION_N}"
    );
    or_empty(distribution(g))
}

/// Body of [`crack_distribution`] over the budgeted permanent.
fn distribution(g: &DenseBigraph) -> Result<Vec<f64>, ExactError> {
    let (threads, budget) = (par::available_threads(), Budget::unlimited());
    let n = g.n();
    let rows: Vec<u64> = (0..n).map(|i| g.row_words(i)[0]).collect();
    let total = budgeted_permanent(&rows, n, threads, &budget)?;
    if total == 0 {
        return Err(ExactError::EmptyMappingSpace);
    }
    let mut dist = vec![0.0f64; n + 1];

    // Enumerate the subset S of cracked items. A matching cracks
    // exactly S iff it uses edge (x, x) for x in S and avoids (y, y)
    // for y outside S: delete S's rows/columns and zero the diagonal
    // of the remainder.
    for s in 0u64..(1u64 << n) {
        // All items of S must actually have their crack edge.
        let mut feasible = true;
        let mut bits = s;
        while bits != 0 {
            let x = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            if rows[x] & (1u64 << x) == 0 {
                feasible = false;
                break;
            }
        }
        if !feasible {
            continue;
        }
        let k = s.count_ones() as usize;
        // Build the reduced matrix over items outside S with the
        // diagonal (crack) entries removed.
        let keep: Vec<usize> = (0..n).filter(|&i| s & (1u64 << i) == 0).collect();
        let reduced: Vec<u64> = keep
            .iter()
            .map(|&i| {
                let mut row = rows[i] & !(1u64 << i); // forbid own crack
                                                      // Delete the S columns (descending so shifts stay valid).
                for x in (0..n).rev() {
                    if s & (1u64 << x) != 0 {
                        row = delete_column(row, x);
                    }
                }
                row
            })
            .collect();
        let count = budgeted_permanent(&reduced, keep.len(), threads, &budget)?;
        if count > 0 {
            dist[k] += count as f64 / total as f64;
        }
    }
    Ok(dist)
}

/// The whole-graph ratio [`crack_probabilities_budgeted`] computed
/// before it factored over connected components, kept verbatim as the
/// reference for the bit-identity tests: one `n`-item permanent and
/// one `(n-1)`-item minor per crack edge.
#[cfg(test)]
fn crack_probabilities_whole_graph(
    g: &DenseBigraph,
    threads: usize,
    budget: &Budget,
) -> Result<Vec<f64>, ExactError> {
    let n = g.n();
    assert!(n <= MAX_PERMANENT_N);
    let rows: Vec<u64> = (0..n).map(|i| g.row_words(i)[0]).collect();
    let total = budgeted_permanent(&rows, n, threads, budget)?;
    if total == 0 {
        return Err(ExactError::EmptyMappingSpace);
    }
    let mut probs = Vec::with_capacity(n);
    for x in 0..n {
        if !g.has_edge(x, x) {
            probs.push(0.0);
            continue;
        }
        let reduced: Vec<u64> = (0..n)
            .filter(|&i| i != x)
            .map(|i| delete_column(rows[i], x))
            .collect();
        let fixed = budgeted_permanent(&reduced, n - 1, threads, budget)?;
        probs.push(fixed as f64 / total as f64);
    }
    Ok(probs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn complete_graph_expectation_is_one() {
        // Lemma 1: E[X] = 1 for the complete bipartite graph.
        for n in 1..=8usize {
            let g = DenseBigraph::complete(n);
            let e = expected_cracks(&g).unwrap();
            assert!((e - 1.0).abs() < 1e-9, "n={n}: E={e}");
        }
    }

    #[test]
    fn staircase_cracks_everything() {
        // Figure 6(a): the unique perfect matching cracks all four.
        let mut g = DenseBigraph::new(4);
        for j in 0..4 {
            for i in 0..=j {
                g.add_edge(i, j);
            }
        }
        assert!((expected_cracks(&g).unwrap() - 4.0).abs() < 1e-12);
        let p = crack_probabilities(&g).unwrap();
        assert!(p.iter().all(|&x| (x - 1.0).abs() < 1e-12));
    }

    #[test]
    fn two_blocks_expectation_is_two() {
        // Lemma 3 with g = 2 groups.
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
        assert!((expected_cracks(&g).unwrap() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn infeasible_graph_returns_none() {
        let g = DenseBigraph::from_edges(2, &[(0, 1), (1, 1)]);
        assert_eq!(expected_cracks(&g), None);
        assert_eq!(crack_probabilities(&g), None);
        assert_eq!(crack_distribution(&g), None);
    }

    #[test]
    fn distribution_sums_to_one_and_matches_expectation() {
        let g = DenseBigraph::complete(5);
        let dist = crack_distribution(&g).unwrap();
        let mass: f64 = dist.iter().sum();
        assert!((mass - 1.0).abs() < 1e-9, "total mass {mass}");
        let mean: f64 = dist.iter().enumerate().map(|(k, p)| k as f64 * p).sum();
        assert!((mean - 1.0).abs() < 1e-9, "mean {mean}");
        // Complete graph cracks follow the derangement law:
        // P(X = n-1) = 0 (can't miss exactly one).
        assert!(dist[4].abs() < 1e-12);
    }

    #[test]
    fn distribution_of_the_bigmart_point_belief() {
        // Groups {1',3',4',6'}, {2'}, {5'}: cracks = 2 + cracks in a
        // complete 4-group. E[X] = 3 = g (Lemma 3).
        let mut g = DenseBigraph::new(6);
        for &i in &[0usize, 2, 3, 5] {
            for &j in &[0usize, 2, 3, 5] {
                g.add_edge(i, j);
            }
        }
        g.add_edge(1, 1);
        g.add_edge(4, 4);
        let e = expected_cracks(&g).unwrap();
        assert!((e - 3.0).abs() < 1e-9);
        let dist = crack_distribution(&g).unwrap();
        // X is always at least 2 (the singletons are forced cracks).
        assert!(dist[0].abs() < 1e-12);
        assert!(dist[1].abs() < 1e-12);
        let mean: f64 = dist.iter().enumerate().map(|(k, p)| k as f64 * p).sum();
        assert!((mean - 3.0).abs() < 1e-9);
    }

    #[test]
    fn expected_cracks_is_the_item_order_sum_of_the_core() {
        let mut g = DenseBigraph::new(6);
        for &i in &[0usize, 2, 3, 5] {
            for &j in &[0usize, 2, 3, 5] {
                g.add_edge(i, j);
            }
        }
        g.add_edge(1, 1);
        g.add_edge(4, 4);
        g.clear_left(1);
        g.add_edge(1, 4);
        g.add_edge(4, 1);
        // Item 1 now has no crack edge: its 0.0 term must not perturb
        // the sum a crack-edge-only loop accumulates.
        let probs = crack_probabilities_budgeted(&g, 1, &Budget::unlimited()).unwrap();
        assert_eq!(probs[1], 0.0);
        let mut e = 0.0f64;
        for (x, p) in probs.iter().enumerate() {
            if g.has_edge(x, x) {
                e += p;
            }
        }
        assert_eq!(expected_cracks(&g).map(f64::to_bits), Some(e.to_bits()));

        // Empty mapping space is its own variant in the core and the
        // wrappers' only `None`.
        let g = DenseBigraph::from_edges(2, &[(0, 1), (1, 1)]);
        assert_eq!(
            crack_probabilities_budgeted(&g, 1, &Budget::unlimited()),
            Err(ExactError::EmptyMappingSpace)
        );
    }

    #[test]
    fn dense_overflow_is_a_structured_error_not_a_panic() {
        // The satellite regression: the dense n=27 case that overflows
        // Ryser's i128 partial sums must surface as
        // `ExactError::Overflow` from the audited caller path (the
        // `expected_cracks` wrapper panics on it instead).
        let mut g = DenseBigraph::new(27);
        for i in 0..27 {
            for j in 0..27 {
                g.add_edge(i, j);
            }
        }
        assert_eq!(
            crack_probabilities_budgeted(&g, par::available_threads(), &Budget::unlimited()),
            Err(ExactError::Overflow)
        );
    }

    #[test]
    fn budgeted_probabilities_match_legacy() {
        let mut g = DenseBigraph::new(6);
        for &i in &[0usize, 2, 3, 5] {
            for &j in &[0usize, 2, 3, 5] {
                g.add_edge(i, j);
            }
        }
        g.add_edge(1, 1);
        g.add_edge(4, 4);
        let legacy = crack_probabilities(&g).unwrap();
        for threads in 1..=4 {
            let b = Budget::unlimited();
            let budgeted = crack_probabilities_budgeted(&g, threads, &b).unwrap();
            assert_eq!(budgeted, legacy, "threads = {threads}");
        }

        let infeasible = DenseBigraph::from_edges(2, &[(0, 1), (1, 1)]);
        let b = Budget::unlimited();
        assert_eq!(
            crack_probabilities_budgeted(&infeasible, 2, &b),
            Err(ExactError::EmptyMappingSpace)
        );
    }

    #[test]
    fn budgeted_probabilities_zero_budget_is_interrupted() {
        // The identity graph splits into singleton components; a
        // zero budget still trips.
        for g in [DenseBigraph::complete(5), identity(5)] {
            let b = Budget::with_deadline(std::time::Duration::ZERO);
            assert_eq!(
                crack_probabilities_budgeted(&g, 2, &b),
                Err(ExactError::Interrupted(ExecError::BudgetExceeded {
                    budget_ms: 0
                }))
            );
        }
    }

    fn identity(n: usize) -> DenseBigraph {
        let edges: Vec<(usize, usize)> = (0..n).map(|i| (i, i)).collect();
        DenseBigraph::from_edges(n, &edges)
    }

    /// `K_b ⊕ K_b`: two disjoint complete blocks of `b` items each.
    fn two_complete_blocks(b: usize) -> DenseBigraph {
        let mut g = DenseBigraph::new(2 * b);
        for block in [0, b] {
            for i in block..block + b {
                for j in block..block + b {
                    g.add_edge(i, j);
                }
            }
        }
        g
    }

    #[test]
    fn disconnected_blocks_past_the_whole_graph_walk() {
        // K14 ⊕ K14 (n = 28) took a 2^28-subset checked-lane walk per
        // permanent; K16 ⊕ K16 (n = 32) overflowed its i128
        // accumulator. Factored, each block is a 14- or 16-item walk,
        // and every item is cracked with probability 1/b.
        for b in [14usize, 16] {
            let g = two_complete_blocks(b);
            for threads in [1usize, 4] {
                let probs = crack_probabilities_budgeted(&g, threads, &Budget::unlimited())
                    .expect("both blocks have perfect matchings");
                assert_eq!(probs.len(), 2 * b);
                for &p in &probs {
                    assert_eq!(p.to_bits(), probs[0].to_bits());
                    assert!((p - 1.0 / b as f64).abs() < 1e-15, "b={b}: p={p}");
                }
            }
        }
    }

    /// Seeded graphs of the shapes the factoring must get right.
    /// `shape`: 0 block-diagonal (items shuffled), 1 interval-shaped
    /// (the cold-exact service traffic), 2 dense connected, 3 identity
    /// only, 4 a random graph with one uncovered column.
    fn shaped_graph(shape: usize, n: usize, seed: u64) -> DenseBigraph {
        use rand::rngs::StdRng;
        use rand::seq::SliceRandom;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut g = DenseBigraph::new(n);
        match shape {
            0 => {
                let mut order: Vec<usize> = (0..n).collect();
                order.shuffle(&mut rng);
                let mut start = 0;
                while start < n {
                    let end = (start + rng.gen_range(1..=6usize)).min(n);
                    for &i in &order[start..end] {
                        g.add_edge(i, i);
                        for &j in &order[start..end] {
                            if rng.gen_bool(0.6) {
                                g.add_edge(i, j);
                            }
                        }
                    }
                    start = end;
                }
            }
            1 => {
                // Supports uniform in 1..1000 of m = 1000; item y's
                // belief is its frequency with up to 0.099 of slack.
                let freq: Vec<f64> = (0..n)
                    .map(|_| rng.gen_range(1..1000u64) as f64 / 1000.0)
                    .collect();
                let slack: Vec<f64> = (0..n)
                    .map(|_| rng.gen_range(0..99u64) as f64 / 1000.0)
                    .collect();
                for (x, &f) in freq.iter().enumerate() {
                    for (y, (&fy, &s)) in freq.iter().zip(&slack).enumerate() {
                        if (fy - s).max(0.0) <= f && f <= (fy + s).min(1.0) {
                            g.add_edge(x, y);
                        }
                    }
                }
            }
            2 => {
                for i in 0..n {
                    g.add_edge(i, i);
                    g.add_edge(i, (i + 1) % n);
                    for j in 0..n {
                        if rng.gen_bool(0.7) {
                            g.add_edge(i, j);
                        }
                    }
                }
            }
            3 => g = identity(n),
            _ => {
                let col = rng.gen_range(0..n);
                for i in 0..n {
                    for j in 0..n {
                        if j != col && rng.gen_bool(0.5) {
                            g.add_edge(i, j);
                        }
                    }
                }
            }
        }
        g
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Bit identity of the factored core against the whole-graph
        /// reference: equal `Result`s, probabilities compared as bit
        /// patterns, at the CI thread counts.
        #[test]
        fn factored_probabilities_equal_whole_graph_reference(
            shape in 0usize..5,
            n in 1usize..=16,
            seed in 0u64..1_000_000,
        ) {
            let g = shaped_graph(shape, n, seed);
            let bits = |r: Result<Vec<f64>, ExactError>| {
                r.map(|p| p.iter().map(|x| x.to_bits()).collect::<Vec<u64>>())
            };
            for threads in [1usize, 4] {
                let b = Budget::unlimited();
                proptest::prop_assert_eq!(
                    bits(crack_probabilities_budgeted(&g, threads, &b)),
                    bits(crack_probabilities_whole_graph(&g, threads, &b)),
                    "shape={}, n={}, seed={}, threads={}", shape, n, seed, threads
                );
            }
        }
    }

    #[test]
    fn every_shape_is_exercised() {
        // The uncovered column is an empty mapping space; the other
        // shapes answer (identity and the feasible generators keep the
        // diagonal, the interval shape contains every true frequency).
        let b = Budget::unlimited();
        for shape in 0..5 {
            let g = shaped_graph(shape, 12, 3);
            let r = crack_probabilities_budgeted(&g, 1, &b);
            if shape == 4 {
                assert_eq!(r, Err(ExactError::EmptyMappingSpace));
            } else {
                assert!(r.is_ok(), "shape {shape}: {r:?}");
            }
        }
    }

    #[test]
    fn components_split_by_shared_columns() {
        // Rows 0 and 2 share column 3, rows 1 and 3 share column 1.
        let rows = [0b1001, 0b0110, 0b1000, 0b0010];
        assert_eq!(
            components(&rows),
            Ok(vec![(0b0101, 0b1001), (0b1010, 0b0110)])
        );
        // Three rows over two columns: column 2 is uncovered.
        assert_eq!(
            components(&[0b011, 0b011, 0b001]),
            Err(ExactError::EmptyMappingSpace)
        );
        assert_eq!(components(&[]), Ok(vec![]));
        assert_eq!(gather(0b1010_0110, 0b1100_0101), 0b1010);
    }

    #[test]
    fn delete_column_shifts() {
        // row bits {0, 2, 5}; deleting column 2 leaves {0, 4}.
        assert_eq!(delete_column(0b100101, 2), 0b10001);
        // Deleting an unset column just shifts the higher bits.
        assert_eq!(delete_column(0b100101, 1), 0b10011);
        assert_eq!(delete_column(0b1, 0), 0);
    }
}
