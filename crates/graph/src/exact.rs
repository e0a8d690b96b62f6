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
//! while producing identical values. The tests also keep the full
//! crack-count *distribution* `P(X = k)` for tiny domains, following
//! the paper's formula literally (enumerate cracked subsets `S`,
//! forbid crack edges outside `S`, count matchings), as ground truth
//! for the sampler's tail.
//!
//! Two budgeted entry points split a graph into its connected
//! components, each its own way: [`crack_probabilities_budgeted`] a
//! dense graph of at most [`MAX_PERMANENT_N`] items, and
//! [`crack_probabilities_per_component`] a grouped graph of any size,
//! priced first. Both hand their components to one ratio-walk driver.
//! The other entry points run the dense one with
//! [`Budget::unlimited`] on the ambient worker count.

use crate::dense::DenseBigraph;
use crate::grouped::GroupedBigraph;
use crate::par;
use crate::par::{Budget, ExecError};
use crate::permanent::{try_permanent_of_rows_budgeted, walk_subsets, MAX_PERMANENT_N};

/// The most subset steps one [`crack_probabilities_per_component`]
/// call may walk: one 18-item component with 18 crack edges (about
/// 12 ms on one worker, `BENCH_permanent.json`'s `n18_dense` row).
pub const EXACT_PRICE_CAP: u64 = (1 << 17) + 18 * (1 << 16);

/// Structured failure of an exact computation: every condition the
/// panicking wrappers either panic on or fold into `None` gets its
/// own variant, so budgeted callers (the Assess-Risk degradation
/// ladder) can tell "descend a rung" apart from "abort".
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExactError {
    /// The graph has no perfect matching: the mapping space is empty
    /// and crack probabilities are undefined.
    EmptyMappingSpace,
    /// The component walks would take more than [`EXACT_PRICE_CAP`]
    /// subset steps, so none was tried.
    TooCostly {
        /// Subset steps of all the walks, summed (saturating).
        price: u64,
        /// The cap it exceeds.
        cap: u64,
    },
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
            ExactError::TooCostly { price, cap } => write!(
                f,
                "the component walks price at {price} subset steps, above the exact cap {cap}"
            ),
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
/// one per component (Section 4.1), so `perm(A) = Π_k perm(C_k)` and
/// the other components' factors cancel from `P(crack x)`: for `x`
/// in component `C`, `P(crack x) = perm(C minus x) / perm(C)`. Each
/// component's permanent and then each diagonal minor inside it runs
/// through [`try_permanent_of_rows_budgeted`], one component after
/// another in the order of their lowest row, and each probability is
/// one `f64` division of those two integers. No product across
/// components is formed, so the number of components does not bound
/// the answer. The computation respects the deadline/token and
/// reports structured errors. The order of the walks is fixed, so the
/// result is bit-identical at any thread count.
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
    let split: Vec<(Vec<usize>, Vec<usize>)> = components(&rows)?
        .into_iter()
        .map(|(left, right)| (bits(left).collect(), bits(right).collect()))
        .collect();
    let split = split.iter().map(|(left, right)| (&left[..], &right[..]));
    ratio_walks(n, split, |i, y| g.has_edge(i, y), u64::MAX, threads, budget)
}

/// Exact crack probabilities of a grouped graph at any size, one
/// connected component at a time: the split is
/// [`GroupedBigraph::components`], and the components run the ratio
/// walks of [`crack_probabilities_budgeted`], through the same
/// driver. All the walks are priced before the first runs. An item
/// whose anonymized and original sides fall in different components
/// has no crack edge, so its probability is 0. No dense graph of the
/// whole domain is built.
///
/// The components run in the order of their lowest anonymized item,
/// each with its rows and columns in item order. So on a graph of at
/// most [`MAX_PERMANENT_N`] items the walks are those of
/// [`crack_probabilities_budgeted`] on [`GroupedBigraph::to_dense`],
/// in the same order, and where the price passes the `Result` is the
/// same, bit for bit.
///
/// # Errors
///
/// The budget is checked once before the split, as in
/// [`crack_probabilities_budgeted`]. Then the split either proves the
/// mapping space empty ([`ExactError::EmptyMappingSpace`]) or, when
/// the walks price above [`EXACT_PRICE_CAP`] subset steps, declines
/// with [`ExactError::TooCostly`] before any walk runs. Every other
/// error is a component walk's.
pub fn crack_probabilities_per_component(
    graph: &GroupedBigraph,
    threads: usize,
    budget: &Budget,
) -> Result<Vec<f64>, ExactError> {
    budget.check().map_err(ExactError::Interrupted)?;
    let components = graph.components().ok_or(ExactError::EmptyMappingSpace)?;
    let mut order: Vec<(&[usize], &[usize])> = components.iter().collect();
    order.sort_unstable_by_key(|&(left, _)| left.first().copied());
    let has_edge = |i, y| graph.has_edge(i, y);
    ratio_walks(graph.n(), order, has_edge, EXACT_PRICE_CAP, threads, budget)
}

/// The ratio walks behind both exact entry points, over `n` items
/// split into `components`: each is its (anonymized, original) items,
/// ascending, in walk order. Every component's crack edges are found
/// first, and the walks are priced from them; above `cap` subset
/// steps none runs. (The dense entry point passes `u64::MAX`: its
/// [`MAX_PERMANENT_N`] bound already limits its walks.) Then each
/// component's rows over its own columns go to
/// [`component_probabilities`].
fn ratio_walks<'a>(
    n: usize,
    components: impl IntoIterator<Item = (&'a [usize], &'a [usize])>,
    has_edge: impl Fn(usize, usize) -> bool,
    cap: u64,
    threads: usize,
    budget: &Budget,
) -> Result<Vec<f64>, ExactError> {
    let walks: Vec<(&[usize], &[usize], Vec<Crack>)> = components
        .into_iter()
        .map(|(left, right)| {
            // A crack edge puts item x on both sides of one component;
            // its local row and column are x's ranks on the two sides.
            let cracks = left
                .iter()
                .enumerate()
                .filter(|&(_, &x)| has_edge(x, x))
                .filter_map(|(row, &x)| {
                    let col = right.binary_search(&x).ok()?;
                    Some(Crack { row, col, item: x })
                })
                .collect();
            (left, right, cracks)
        })
        .collect();
    let price = walks_price(&walks);
    if price > cap {
        return Err(ExactError::TooCostly { price, cap });
    }
    let mut probs = vec![0.0; n];
    for (left, right, cracks) in &walks {
        let rows: Vec<u64> = left
            .iter()
            .map(|&i| {
                let cols = right.iter().enumerate().filter(|&(_, &y)| has_edge(i, y));
                cols.fold(0u64, |acc, (j, _)| acc | 1u64 << j)
            })
            .collect();
        component_probabilities(&rows, cracks, threads, budget, &mut probs)?;
    }
    Ok(probs)
}

/// Subset steps of every component's walks, summed (saturating): a
/// permanent, then one minor per crack edge; a 0-item minor walks
/// nothing, and a component too large to walk prices at `u64::MAX`.
fn walks_price(walks: &[(&[usize], &[usize], Vec<Crack>)]) -> u64 {
    let steps = |n: usize| if n == 0 { 0 } else { walk_subsets(n) };
    walks.iter().fold(0, |price: u64, (left, _, cracks)| {
        let c = left.len();
        if c > MAX_PERMANENT_N {
            return u64::MAX;
        }
        price.saturating_add(steps(c) + cracks.len() as u64 * steps(c - 1))
    })
}

/// A crack edge inside one component: its local row and column, and
/// the item whose probability it gives.
struct Crack {
    row: usize,
    col: usize,
    item: usize,
}

/// The ratio walks of one connected component with square rows `sub`
/// (bit `j` of a row is the component's `j`-th column): the component's
/// permanent, then one minor per crack edge, in order, each written
/// to `probs[item]` as `minor / perm`.
fn component_probabilities(
    sub: &[u64],
    cracks: &[Crack],
    threads: usize,
    budget: &Budget,
    probs: &mut [f64],
) -> Result<(), ExactError> {
    let total = budgeted_permanent(sub, sub.len(), threads, budget)?;
    if total == 0 {
        return Err(ExactError::EmptyMappingSpace);
    }
    for crack in cracks {
        let minor: Vec<u64> = sub
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != crack.row)
            .map(|(_, &row)| delete_column(row, crack.col))
            .collect();
        let fixed = budgeted_permanent(&minor, minor.len(), threads, budget)?;
        probs[crack.item] = fixed as f64 / total as f64;
    }
    Ok(())
}

/// Splits the graph with row masks `rows`
/// (`rows.len() <= MAX_PERMANENT_N`) into its connected components,
/// in the order of their lowest row: each is a pair of (row, column)
/// bitmasks. A component whose sides
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

/// The budgeted permanent with its interruption as an
/// [`ExactError`].
pub(crate) fn budgeted_permanent(
    rows: &[u64],
    n: usize,
    threads: usize,
    budget: &Budget,
) -> Result<u128, ExactError> {
    try_permanent_of_rows_budgeted(rows, n, threads, budget).map_err(ExactError::Interrupted)
}

/// [`crack_probabilities_budgeted`] with an unlimited budget on the
/// ambient [`par::available_threads`] worker count. `None` if no
/// perfect matching exists — and only then.
///
/// # Panics
///
/// Panics if `g.n() > MAX_PERMANENT_N` and on an injected fault.
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
/// [`crack_probabilities`], [`expected_cracks`]). They run on an
/// unlimited budget, so only a fault injected into a chunk task lands
/// here; budgeted callers see it as [`ExactError::Interrupted`].
///
/// [`permanent`]: crate::permanent::permanent
pub(crate) fn exact_failure(e: ExactError) -> ! {
    // andi::allow(panic-reachability) — documented panicking wrappers; fault-tolerant callers use the budgeted cores
    panic!("{e}")
}

/// Removes bit `col` from a row mask, shifting higher bits down by
/// one (column deletion).
fn delete_column(row: u64, col: usize) -> u64 {
    let low = row & ((1u64 << col) - 1);
    let high = (row >> (col + 1)) << col;
    low | high
}

/// Maximum domain size for the full crack-count distribution.
#[cfg(test)]
const MAX_DISTRIBUTION_N: usize = 14;

/// The exact distribution `P(X = k)` of the number of cracks,
/// `k = 0..=n`, following the paper's Section 4.1 formula: one
/// permanent per crackable subset, so `2^n` walks. Test-only ground
/// truth for the sampler's tail.
///
/// Returns `None` if the graph has no perfect matching.
///
/// # Panics
///
/// Panics if `g.n() > MAX_DISTRIBUTION_N` or on an injected fault.
#[cfg(test)]
pub(crate) fn crack_distribution(g: &DenseBigraph) -> Option<Vec<f64>> {
    let n = g.n();
    assert!(
        n <= MAX_DISTRIBUTION_N,
        "distribution limited to n <= {MAX_DISTRIBUTION_N}"
    );
    or_empty(distribution(g))
}

/// Body of [`crack_distribution`] over the budgeted permanent.
#[cfg(test)]
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

/// The ratio form computed apart from the kernel, as the reference
/// for the bit-identity tests: components from a depth-first search
/// over the dense edges, and each component permanent and minor from
/// the scalar `ryser_range_reference` walk, with rows and columns in
/// item order.
#[cfg(test)]
fn crack_probabilities_reference(g: &DenseBigraph) -> Result<Vec<f64>, ExactError> {
    let n = g.n();
    // Nodes 0..n are rows, n..2n columns; components in the order of
    // their lowest row.
    let mut seen = vec![false; 2 * n];
    let mut found: Vec<(Vec<usize>, Vec<usize>)> = Vec::new();
    for start in 0..n {
        if seen[start] {
            continue;
        }
        seen[start] = true;
        let (mut rows, mut cols, mut stack) = (Vec::new(), Vec::new(), vec![start]);
        while let Some(v) = stack.pop() {
            if v < n {
                rows.push(v);
            } else {
                cols.push(v - n);
            }
            for w in 0..n {
                let (next, edge) = if v < n {
                    (n + w, g.has_edge(v, w))
                } else {
                    (w, g.has_edge(w, v - n))
                };
                if edge && !seen[next] {
                    seen[next] = true;
                    stack.push(next);
                }
            }
        }
        rows.sort_unstable();
        cols.sort_unstable();
        found.push((rows, cols));
    }
    let uncovered = seen[n..].iter().any(|&s| !s);
    if uncovered || found.iter().any(|(r, c)| r.len() != c.len()) {
        return Err(ExactError::EmptyMappingSpace);
    }
    let perm = |rows: &[usize], cols: &[usize]| -> u128 {
        let k = rows.len();
        if k == 0 {
            return 1;
        }
        let sub: Vec<u64> = rows
            .iter()
            .map(|&i| {
                let hits = cols.iter().enumerate().filter(|&(_, &y)| g.has_edge(i, y));
                hits.fold(0u64, |acc, (j, _)| acc | 1u64 << j)
            })
            .collect();
        let total = crate::permanent::ryser_range_reference(&sub, k, 1, 1u64 << k);
        u128::try_from(total).expect("a permanent is non-negative")
    };
    let mut probs = vec![0.0; n];
    for (rows, cols) in &found {
        let total = perm(rows, cols);
        if total == 0 {
            return Err(ExactError::EmptyMappingSpace);
        }
        for &x in rows.iter().filter(|&&x| g.has_edge(x, x)) {
            let minor_rows: Vec<usize> = rows.iter().copied().filter(|&i| i != x).collect();
            let minor_cols: Vec<usize> = cols.iter().copied().filter(|&y| y != x).collect();
            probs[x] = perm(&minor_rows, &minor_cols) as f64 / total as f64;
        }
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
    fn disconnected_blocks_factor_at_and_above_the_cap() {
        // K11 ⊕ K11 fills the dense kernel's domain bound (n = 22, a
        // 2^21-subset walk on the whole graph); K14 ⊕ K14 and K16 ⊕ K16
        // (n = 28, 32) are above it, so they take the grouped path: two
        // frequency groups, each item believed at its own. Factored,
        // each block is a b-item walk, and every item is cracked with
        // probability 1/b.
        let check = |b: usize, probs: Vec<f64>| {
            assert_eq!(probs.len(), 2 * b);
            for &p in &probs {
                assert_eq!(p.to_bits(), probs[0].to_bits());
                assert!((p - 1.0 / b as f64).abs() < 1e-15, "b={b}: p={p}");
            }
        };
        for threads in [1usize, 4] {
            for b in [10usize, 11] {
                let g = two_complete_blocks(b);
                let probs = crack_probabilities_budgeted(&g, threads, &Budget::unlimited());
                check(b, probs.expect("both blocks have perfect matchings"));
            }
            for b in [14usize, 16] {
                let supports: Vec<u64> = (0..2 * b).map(|i| if i < b { 5 } else { 7 }).collect();
                let intervals: Vec<(f64, f64)> = supports
                    .iter()
                    .map(|&s| (s as f64 / 10.0, s as f64 / 10.0))
                    .collect();
                let graph = GroupedBigraph::new(&supports, 10, &intervals);
                let probs =
                    crack_probabilities_per_component(&graph, threads, &Budget::unlimited());
                check(b, probs.expect("both blocks have perfect matchings"));
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

        /// Bit identity of the factored core against the ratio-form
        /// reference: equal `Result`s, probabilities compared as bit
        /// patterns, at the CI thread counts.
        #[test]
        fn factored_probabilities_equal_ratio_reference(
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
                    bits(crack_probabilities_reference(&g)),
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
