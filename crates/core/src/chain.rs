//! Chain interval belief functions (Section 4.2, Lemmas 5–6) and
//! their O-estimates (Section 5.2).
//!
//! A compliant interval belief function *forms a chain* when every
//! belief group (items with identical candidate sets) maps to either
//! exactly one frequency group (*exclusive*, sizes `e_1..e_k`) or two
//! successive ones (*shared*, sizes `s_1..s_{k-1}`). For chains the
//! expected number of cracks has a closed form (Lemma 6); comparing
//! it against the chain O-estimate reproduces the paper's Δ table.
//!
//! Derivation of the shared split: let `u_i` (`v_i`) be the items of
//! shared group `S_i` whose anonymized counterpart lives in frequency
//! group `i` (`i+1`). Then `u_i = n_i - e_i - v_{i-1}` and
//! `v_i = s_i - u_i`, which telescopes to the paper's
//! `u_i = Σ_{j<=i} (n_j - e_j - s_{j-1})` and
//! `v_i = Σ_{j<=i} (s_j + e_j - n_j)`.

use andi_graph::GroupedBigraph;

use crate::belief::BeliefFunction;
use crate::error::{Error, Result};

/// A chain of length `k`: frequency-group sizes `n`, exclusive belief
/// group sizes `e` (one per frequency group) and shared belief group
/// sizes `s` (one per adjacent pair).
///
/// # Examples
///
/// The Section 4.2 worked example — expected cracks 74/45, chain
/// O-estimate 197/120:
///
/// ```
/// use andi_core::ChainSpec;
///
/// let chain = ChainSpec::new(vec![5, 3], vec![3, 2], vec![3]).unwrap();
/// assert!((chain.expected_cracks() - 74.0 / 45.0).abs() < 1e-12);
/// assert!((chain.oestimate() - 197.0 / 120.0).abs() < 1e-12);
/// assert!(chain.delta() > 0.0, "the O-estimate underestimates");
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChainSpec {
    n: Vec<usize>,
    e: Vec<usize>,
    s: Vec<usize>,
    /// `u[i]`: shared-group-`i` items truly in frequency group `i`.
    u: Vec<usize>,
    /// `v[i]`: shared-group-`i` items truly in frequency group `i+1`.
    v: Vec<usize>,
}

impl ChainSpec {
    /// Builds and validates a chain.
    ///
    /// # Errors
    ///
    /// Requires `|e| = |n| = k >= 1`, `|s| = k - 1`, item
    /// conservation `Σn = Σe + Σs`, and a consistent non-negative
    /// shared split (`0 <= u_i <= s_i` at every link, with the last
    /// link closing exactly).
    pub fn new(n: Vec<usize>, e: Vec<usize>, s: Vec<usize>) -> Result<Self> {
        let k = n.len();
        if k == 0 {
            return Err(Error::InvalidParameter(
                "chain needs at least one group".into(),
            ));
        }
        if e.len() != k || s.len() != k - 1 {
            return Err(Error::InvalidParameter(format!(
                "chain of length {k} needs {k} exclusive and {} shared sizes",
                k - 1
            )));
        }
        if n.contains(&0) {
            return Err(Error::InvalidParameter(
                "frequency groups must be non-empty".into(),
            ));
        }
        let total_n: usize = n.iter().sum();
        let total_es: usize = e.iter().sum::<usize>() + s.iter().sum::<usize>();
        if total_n != total_es {
            return Err(Error::InvalidParameter(format!(
                "item conservation violated: Σn = {total_n} but Σe + Σs = {total_es}"
            )));
        }
        // Propagate the split u_i = n_i - e_i - v_{i-1}; v_i = s_i - u_i.
        let mut u = vec![0usize; k.saturating_sub(1)];
        let mut v = vec![0usize; k.saturating_sub(1)];
        let mut v_prev = 0usize;
        for i in 0..k {
            let inflow = e[i] + v_prev;
            if inflow > n[i] {
                return Err(Error::InvalidParameter(format!(
                    "group {i}: exclusive + shared inflow {inflow} exceeds size {}",
                    n[i]
                )));
            }
            let u_i = n[i] - inflow;
            if i == k - 1 {
                if u_i != 0 {
                    return Err(Error::InvalidParameter(format!(
                        "group {i}: {u_i} items unaccounted for at the chain end"
                    )));
                }
                break;
            }
            if u_i > s[i] {
                return Err(Error::InvalidParameter(format!(
                    "shared group {i}: needs {u_i} items but has {}",
                    s[i]
                )));
            }
            u[i] = u_i;
            v[i] = s[i] - u_i;
            v_prev = v[i];
        }
        Ok(ChainSpec { n, e, s, u, v })
    }

    /// Chain length `k` (number of frequency groups).
    pub fn k(&self) -> usize {
        self.n.len()
    }

    /// Total domain size.
    pub fn n_items(&self) -> usize {
        self.n.iter().sum()
    }

    /// Frequency-group sizes.
    pub fn group_sizes(&self) -> &[usize] {
        &self.n
    }

    /// Lemma 6 (Lemma 5 when `k = 2`): the exact expected number of
    /// cracks.
    ///
    /// ```text
    /// E[X] = Σ_j e_j/n_j
    ///      + Σ_i u_i²/(s_i·n_i) + Σ_i v_i²/(s_i·n_{i+1})
    /// ```
    pub fn expected_cracks(&self) -> f64 {
        let k = self.k();
        let mut total = 0.0;
        for j in 0..k {
            total += self.e[j] as f64 / self.n[j] as f64;
        }
        for i in 0..k - 1 {
            if self.s[i] == 0 {
                continue;
            }
            let s_i = self.s[i] as f64;
            let u = self.u[i] as f64;
            let v = self.v[i] as f64;
            total += u * u / (s_i * self.n[i] as f64);
            total += v * v / (s_i * self.n[i + 1] as f64);
        }
        total
    }

    /// The chain O-estimate of Section 5.2:
    /// `OE = Σ_j e_j/n_j + Σ_j s_j/(n_j + n_{j+1})`.
    pub fn oestimate(&self) -> f64 {
        let k = self.k();
        let mut total = 0.0;
        for j in 0..k {
            total += self.e[j] as f64 / self.n[j] as f64;
        }
        for j in 0..k - 1 {
            if self.s[j] > 0 {
                total += self.s[j] as f64 / (self.n[j] + self.n[j + 1]) as f64;
            }
        }
        total
    }

    /// The signed difference `Δ = E[X] - OE` the paper tabulates.
    pub fn delta(&self) -> f64 {
        self.expected_cracks() - self.oestimate()
    }

    /// `Δ` relative to the exact value, in percent (the paper's
    /// "Percentage error" column).
    pub fn percentage_error(&self) -> f64 {
        100.0 * self.delta() / self.expected_cracks()
    }

    /// Realizes the chain as a concrete support profile plus a
    /// compliant interval belief function over `n_transactions`
    /// transactions, enabling cross-validation against the general
    /// O-estimate, the sampler, and (for small chains) the exact
    /// permanent computation.
    ///
    /// Frequency group `i` receives support `(i + 1) · step` where
    /// `step = m / (k + 1)`. Exclusive items get point intervals;
    /// shared items get the interval spanning their two groups.
    /// Item order: for each group `i`, first the `e_i` exclusive
    /// items, then the `u_i` items of `S_i` (true group `i`), then
    /// the `v_{i-1}` items of `S_{i-1}` (true group `i`).
    ///
    /// # Errors
    ///
    /// `n_transactions` must be at least `(k + 1)` so supports stay
    /// distinct.
    pub fn realize(&self, n_transactions: u64) -> Result<(Vec<u64>, BeliefFunction)> {
        let k = self.k() as u64;
        if n_transactions < k + 1 {
            return Err(Error::InvalidParameter(format!(
                "need at least {} transactions for {k} distinct groups",
                k + 1
            )));
        }
        let step = n_transactions / (k + 1);
        let support_of = |g: usize| (g as u64 + 1) * step;
        let freq_of = |g: usize| support_of(g) as f64 / n_transactions as f64;

        let mut supports = Vec::with_capacity(self.n_items());
        let mut intervals = Vec::with_capacity(self.n_items());
        for g in 0..self.k() {
            let f = freq_of(g);
            for _ in 0..self.e[g] {
                supports.push(support_of(g));
                intervals.push((f, f));
            }
            // Shared group S_g items that truly live in group g.
            if g < self.k() - 1 {
                for _ in 0..self.u[g] {
                    supports.push(support_of(g));
                    intervals.push((f, freq_of(g + 1)));
                }
            }
            // Shared group S_{g-1} items that truly live in group g.
            if g > 0 {
                for _ in 0..self.v[g - 1] {
                    supports.push(support_of(g));
                    intervals.push((freq_of(g - 1), f));
                }
            }
        }
        let belief = BeliefFunction::from_intervals(intervals)?;
        Ok((supports, belief))
    }

    /// Attempts to recognize a chain in the grouped mapping-space
    /// graph of a *compliant* belief function: every item's candidate
    /// range must span one frequency group or two successive ones.
    ///
    /// Returns `None` if the structure is not a chain (some range is
    /// wider, empty, or the belief is non-compliant on some item).
    pub fn detect(graph: &GroupedBigraph) -> Option<ChainSpec> {
        let k = graph.n_groups();
        let mut e = vec![0usize; k];
        let mut s = vec![0usize; k.saturating_sub(1)];
        for x in 0..graph.n() {
            let (lo, hi) = graph.right_range_of(x)?;
            let own = graph.left_group_of(x);
            if own < lo || own > hi {
                return None; // non-compliant
            }
            match hi - lo {
                0 => e[lo] += 1,
                1 => s[lo] += 1,
                _ => return None,
            }
        }
        let n: Vec<usize> = (0..graph.n_groups()).map(|g| graph.group_size(g)).collect();
        ChainSpec::new(n, e, s).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Section 4.2 example: k = 2, n = (5, 3), e = (3, 2),
    /// s = (3).
    fn paper_example() -> ChainSpec {
        ChainSpec::new(vec![5, 3], vec![3, 2], vec![3]).unwrap()
    }

    #[test]
    fn lemma_5_gives_74_over_45() {
        let c = paper_example();
        let e = c.expected_cracks();
        assert!(
            (e - 74.0 / 45.0).abs() < 1e-12,
            "expected 74/45 = 1.6444..., got {e}"
        );
    }

    #[test]
    fn chain_oestimate_gives_197_over_120() {
        let c = paper_example();
        let oe = c.oestimate();
        assert!(
            (oe - 197.0 / 120.0).abs() < 1e-12,
            "expected 197/120 = 1.64166..., got {oe}"
        );
    }

    #[test]
    fn delta_table_row_1() {
        // n = (20, 30, 20), e = (10, 10, 10), s = (20, 20) -> 1.54 %.
        let c = ChainSpec::new(vec![20, 30, 20], vec![10, 10, 10], vec![20, 20]).unwrap();
        let pct = c.percentage_error();
        assert!((pct - 1.54).abs() < 0.01, "row 1: got {pct:.3}%");
    }

    #[test]
    fn validation_rejects_bad_chains() {
        // Wrong arity.
        assert!(ChainSpec::new(vec![5, 3], vec![3], vec![3]).is_err());
        assert!(ChainSpec::new(vec![5, 3], vec![3, 2], vec![]).is_err());
        // Conservation violated.
        assert!(ChainSpec::new(vec![5, 3], vec![3, 3], vec![3]).is_err());
        // Inflow exceeds a group.
        assert!(ChainSpec::new(vec![2, 6], vec![3, 2], vec![3]).is_err());
        // Empty group.
        assert!(ChainSpec::new(vec![0, 8], vec![3, 2], vec![3]).is_err());
        // Empty chain.
        assert!(ChainSpec::new(vec![], vec![], vec![]).is_err());
    }

    #[test]
    fn single_group_chain_reduces_to_lemma_1() {
        let c = ChainSpec::new(vec![7], vec![7], vec![]).unwrap();
        assert_eq!(c.expected_cracks(), 1.0);
        assert_eq!(c.oestimate(), 1.0);
        assert_eq!(c.delta(), 0.0);
    }

    #[test]
    fn all_exclusive_chain_matches_lemma_3_per_group() {
        // No shared groups: E = Σ e_i/n_i = k since e_i = n_i.
        let c = ChainSpec::new(vec![4, 6], vec![4, 6], vec![0]).unwrap();
        assert_eq!(c.expected_cracks(), 2.0);
        assert_eq!(c.oestimate(), 2.0);
    }

    #[test]
    fn realize_produces_matching_general_structures() {
        let c = paper_example();
        let (supports, belief) = c.realize(90).unwrap();
        assert_eq!(supports.len(), 8);
        let graph = belief.build_graph(&supports, 90);
        assert_eq!(graph.n_groups(), 2);
        assert_eq!((graph.group_size(0), graph.group_size(1)), (5, 3));
        // The belief is compliant everywhere.
        let freqs: Vec<f64> = supports.iter().map(|&s| s as f64 / 90.0).collect();
        assert!((belief.alpha(&freqs) - 1.0).abs() < 1e-12);
        // Detection round-trips.
        let detected = ChainSpec::detect(&graph).expect("realized chain is a chain");
        assert_eq!(detected, c);
    }

    #[test]
    fn realize_rejects_tiny_m() {
        let c = paper_example();
        assert!(c.realize(2).is_err());
    }

    #[test]
    fn detect_rejects_non_chains() {
        // An item spanning three groups breaks chain-ness.
        let supports = vec![2u64, 4, 6, 2, 4, 6];
        let intervals = vec![
            (0.0, 1.0), // spans all three groups
            (0.4, 0.4),
            (0.6, 0.6),
            (0.2, 0.2),
            (0.4, 0.4),
            (0.6, 0.6),
        ];
        let g = GroupedBigraph::new(&supports, 10, &intervals);
        assert_eq!(g.n_groups(), 3);
        assert!(ChainSpec::detect(&g).is_none());
    }

    #[test]
    fn detect_rejects_noncompliant() {
        let supports = vec![2u64, 8];
        // Item 0 believes [0.7, 0.9], but its true frequency is 0.2.
        let intervals = vec![(0.7, 0.9), (0.8, 0.8)];
        let g = GroupedBigraph::new(&supports, 10, &intervals);
        assert!(ChainSpec::detect(&g).is_none());
    }

    #[test]
    fn oe_always_at_most_exact_on_valid_chains() {
        // Monotone sanity across a small grid (the paper's Δ is
        // always positive in its table).
        for e1 in [5usize, 10, 15] {
            for s1 in [10usize, 20] {
                let n1 = 20;
                let n2 = 30;
                // e2 determined by conservation within the 2-chain.
                let total = n1 + n2;
                if e1 + s1 > total {
                    continue;
                }
                let e2 = total - e1 - s1;
                if e2 > n2 || n1 < e1 || (n1 - e1) > s1 {
                    continue;
                }
                if let Ok(c) = ChainSpec::new(vec![n1, n2], vec![e1, e2], vec![s1]) {
                    assert!(
                        c.delta() >= -1e-9,
                        "e1={e1}, s1={s1}: Δ = {} < 0",
                        c.delta()
                    );
                }
            }
        }
    }
}
