//! The O-estimate heuristic (Section 5, Figure 5).
//!
//! For each original item `x`, let `O_x` be the number of anonymized
//! items that can map to it. Under compliance the crack edge
//! `(x', x)` exists, and the O-estimate approximates the probability
//! of cracking `x` by `1/O_x`:
//!
//! ```text
//! OE(β, D) = Σ_{x ∈ I} 1 / O_x
//! ```
//!
//! restricted to the compliant subset `I_C` for α-compliant belief
//! functions (Section 5.3). The plain estimate runs in
//! `O(|D| + n log n)` via frequency groups and prefix sums; the
//! *propagated* variant first applies the Figure 7 degree-1
//! propagation ("whenever we refer to outdegrees, we assume that this
//! algorithm has been applied"), which turns certainty cascades like
//! Figure 6(a) into exact contributions.

use andi_data::Database;
use andi_graph::propagate::propagate_in_place;
use andi_graph::{DenseBigraph, GroupedBigraph};

use crate::belief::BeliefFunction;
use crate::error::{Error, Result};

/// What propagation concluded about one original item.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ItemStatus {
    /// Still free; cracked with estimated probability `1/O_x`.
    Free { outdegree: usize },
    /// Propagation proved `x' -> x` is in every consistent mapping:
    /// cracked with certainty.
    ForcedCrack,
    /// Propagation matched some other anonymized item to `x`: never
    /// cracked.
    ForcedElsewhere,
    /// No anonymized item can map to `x` (its belief interval misses
    /// every observed frequency): never cracked.
    NoCandidates,
}

/// Per-item crack-probability profile, the carrier for all O-estimate
/// variants. Computing it once lets the recipe reuse it across many
/// compliance masks.
#[derive(Clone, Debug)]
pub struct OutdegreeProfile {
    status: Vec<ItemStatus>,
}

impl OutdegreeProfile {
    /// Plain Figure 5 profile (no propagation): every item with a
    /// non-empty candidate set is `Free` with its raw outdegree.
    pub fn plain(graph: &GroupedBigraph) -> Self {
        let status = (0..graph.n())
            .map(|x| match graph.outdegree(x) {
                0 => ItemStatus::NoCandidates,
                d => ItemStatus::Free { outdegree: d },
            })
            .collect();
        OutdegreeProfile { status }
    }

    /// Profile after degree-1 propagation (Figure 7). Materializes
    /// the dense graph; intended for domains up to a few tens of
    /// thousands of items.
    ///
    /// # Errors
    ///
    /// Returns [`Error::EmptyMappingSpace`] if propagation proves no
    /// consistent perfect matching exists.
    pub fn propagated(graph: &GroupedBigraph) -> Result<Self> {
        Self::propagated_dense(graph.to_dense())
    }

    /// Propagated profile over an arbitrary dense mapping-space
    /// graph (consumes the graph, which propagation mutates).
    ///
    /// # Errors
    ///
    /// Returns [`Error::EmptyMappingSpace`] if propagation proves no
    /// consistent perfect matching exists.
    pub fn propagated_dense(mut dense: DenseBigraph) -> Result<Self> {
        let prop = propagate_in_place(&mut dense);
        if prop.infeasible() {
            return Err(Error::EmptyMappingSpace);
        }
        let n = dense.n();
        let mut status: Vec<ItemStatus> = prop
            .graph
            .right_degrees()
            .into_iter()
            .map(|d| match d {
                0 => ItemStatus::NoCandidates,
                d => ItemStatus::Free { outdegree: d },
            })
            .collect();
        for &(i, y) in &prop.forced {
            debug_assert!(y < n);
            status[y] = if i == y {
                ItemStatus::ForcedCrack
            } else {
                ItemStatus::ForcedElsewhere
            };
        }
        Ok(OutdegreeProfile { status })
    }

    /// Domain size.
    pub fn n_items(&self) -> usize {
        self.status.len()
    }

    /// Status of item `x`.
    pub fn status(&self, x: usize) -> ItemStatus {
        self.status[x]
    }

    /// Estimated probability that item `x` is cracked.
    pub fn crack_probability(&self, x: usize) -> f64 {
        match self.status[x] {
            ItemStatus::Free { outdegree } => 1.0 / outdegree as f64,
            ItemStatus::ForcedCrack => 1.0,
            ItemStatus::ForcedElsewhere | ItemStatus::NoCandidates => 0.0,
        }
    }

    /// The O-estimate over the whole domain (full compliance).
    pub fn oestimate(&self) -> f64 {
        (0..self.n_items()).map(|x| self.crack_probability(x)).sum()
    }

    /// All crack probabilities as a vector (for the curve and recipe
    /// machinery, which is estimator-agnostic).
    pub fn probabilities(&self) -> Vec<f64> {
        (0..self.n_items())
            .map(|x| self.crack_probability(x))
            .collect()
    }

    /// The α-compliant O-estimate (Section 5.3): sum only over the
    /// compliant items — consistency guarantees the others are never
    /// cracked.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DomainMismatch`] when the mask length
    /// disagrees with the domain.
    pub fn oestimate_masked(&self, compliant: &[bool]) -> Result<f64> {
        if compliant.len() != self.n_items() {
            return Err(Error::DomainMismatch {
                expected: self.n_items(),
                got: compliant.len(),
            });
        }
        Ok((0..self.n_items())
            .filter(|&x| compliant[x])
            .map(|x| self.crack_probability(x))
            .sum())
    }

    /// A copy of the profile with the crack probability of every
    /// item outside `keep` zeroed out (status `NoCandidates`). Used
    /// by items-of-interest analyses so downstream sums and curves
    /// only count the kept items.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DomainMismatch`] when the mask length
    /// disagrees with the domain.
    pub fn restrict(&self, keep: &[bool]) -> Result<OutdegreeProfile> {
        if keep.len() != self.n_items() {
            return Err(Error::DomainMismatch {
                expected: self.n_items(),
                got: keep.len(),
            });
        }
        Ok(OutdegreeProfile {
            status: self
                .status
                .iter()
                .zip(keep.iter())
                .map(|(&s, &k)| if k { s } else { ItemStatus::NoCandidates })
                .collect(),
        })
    }

    /// Items propagation identified with certainty.
    pub fn forced_cracks(&self) -> usize {
        self.status
            .iter()
            .filter(|s| matches!(s, ItemStatus::ForcedCrack))
            .count()
    }
}

/// The O-estimate `OE(β, D)` of Figure 5 for a belief function
/// against an observed support profile (aligned indexing), without
/// propagation.
///
/// # Examples
///
/// The ignorant hacker's estimate recovers Lemma 1 and the
/// point-valued hacker's recovers Lemma 3:
///
/// ```
/// use andi_core::{oestimate, BeliefFunction};
///
/// let supports = [5u64, 4, 5, 5, 3, 5]; // BigMart, m = 10
/// let ignorant = BeliefFunction::ignorant(6);
/// assert!((oestimate(&ignorant, &supports, 10) - 1.0).abs() < 1e-12);
///
/// let freqs: Vec<f64> = supports.iter().map(|&s| s as f64 / 10.0).collect();
/// let exact = BeliefFunction::point_valued(&freqs).unwrap();
/// assert!((oestimate(&exact, &supports, 10) - 3.0).abs() < 1e-12);
/// ```
pub fn oestimate(belief: &BeliefFunction, supports: &[u64], n_transactions: u64) -> f64 {
    let graph = belief.build_graph(supports, n_transactions);
    OutdegreeProfile::plain(&graph).oestimate()
}

/// Figure 5 + the Figure 7 propagation.
///
/// # Errors
///
/// See [`OutdegreeProfile::propagated`].
pub fn oestimate_propagated(
    belief: &BeliefFunction,
    supports: &[u64],
    n_transactions: u64,
) -> Result<f64> {
    let graph = belief.build_graph(supports, n_transactions);
    Ok(OutdegreeProfile::propagated(&graph)?.oestimate())
}

/// Convenience: the plain O-estimate straight from a database
/// (computes the support profile in a single pass, as step 1 of
/// Figure 5 prescribes).
pub fn oestimate_for(belief: &BeliefFunction, db: &Database) -> f64 {
    oestimate(belief, &db.supports(), db.n_transactions() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    const BIGMART_SUPPORTS: [u64; 6] = [5, 4, 5, 5, 3, 5];
    const M: u64 = 10;

    fn freqs() -> Vec<f64> {
        BIGMART_SUPPORTS
            .iter()
            .map(|&s| s as f64 / M as f64)
            .collect()
    }

    #[test]
    fn ignorant_oe_is_one() {
        // Every O_x = n, so OE = n * 1/n = 1 (Lemma 1 recovered).
        let b = BeliefFunction::ignorant(6);
        let oe = oestimate(&b, &BIGMART_SUPPORTS, M);
        assert!((oe - 1.0).abs() < 1e-12);
    }

    #[test]
    fn point_valued_oe_equals_group_count() {
        // O_x = |group of x|, so OE = Σ n_i * (1/n_i) = g (Lemma 3
        // recovered).
        let b = BeliefFunction::point_valued(&freqs()).unwrap();
        let oe = oestimate(&b, &BIGMART_SUPPORTS, M);
        assert!((oe - 3.0).abs() < 1e-12);
    }

    #[test]
    fn figure_6a_plain_vs_propagated() {
        // The staircase: O-estimate 25/12 without propagation, exact
        // 4 with it.
        let supports = vec![2u64, 4, 6, 8];
        let f = |s: u64| s as f64 / 10.0;
        let intervals = vec![(f(2), f(2)), (f(2), f(4)), (f(2), f(6)), (f(2), f(8))];
        let b = BeliefFunction::from_intervals(intervals).unwrap();
        let plain = oestimate(&b, &supports, 10);
        assert!(
            (plain - 25.0 / 12.0).abs() < 1e-12,
            "plain OE should be 25/12, got {plain}"
        );
        let prop = oestimate_propagated(&b, &supports, 10).unwrap();
        assert!(
            (prop - 4.0).abs() < 1e-12,
            "propagated OE should be 4, got {prop}"
        );
    }

    #[test]
    fn masked_oe_drops_noncompliant_items() {
        let b = BeliefFunction::widened(&freqs(), 0.05).unwrap();
        let graph = b.build_graph(&BIGMART_SUPPORTS, M);
        let profile = OutdegreeProfile::plain(&graph);
        let full = profile.oestimate();
        let half = profile
            .oestimate_masked(&[true, false, true, false, true, false])
            .unwrap();
        assert!(half < full);
        let none = profile.oestimate_masked(&[false; 6]).unwrap();
        assert_eq!(none, 0.0);
        let all = profile.oestimate_masked(&[true; 6]).unwrap();
        assert!((all - full).abs() < 1e-12);
        // Wrong-size masks are a domain error, not a panic.
        assert!(matches!(
            profile.oestimate_masked(&[true; 3]),
            Err(Error::DomainMismatch {
                expected: 6,
                got: 3
            })
        ));
    }

    #[test]
    fn monotonicity_lemma_8() {
        // Wider intervals => smaller OE.
        let f = freqs();
        let narrow = BeliefFunction::widened(&f, 0.01).unwrap();
        let wide = BeliefFunction::widened(&f, 0.15).unwrap();
        assert!(narrow.refines(&wide));
        let oe_narrow = oestimate(&narrow, &BIGMART_SUPPORTS, M);
        let oe_wide = oestimate(&wide, &BIGMART_SUPPORTS, M);
        assert!(
            oe_narrow >= oe_wide - 1e-12,
            "Lemma 8 violated: {oe_narrow} < {oe_wide}"
        );
    }

    #[test]
    fn monotonicity_lemma_10() {
        // Fewer compliant items => smaller OE.
        let b = BeliefFunction::widened(&freqs(), 0.05).unwrap();
        let graph = b.build_graph(&BIGMART_SUPPORTS, M);
        let profile = OutdegreeProfile::plain(&graph);
        let big = profile
            .oestimate_masked(&[true, true, true, true, false, false])
            .unwrap();
        let small = profile
            .oestimate_masked(&[true, true, false, false, false, false])
            .unwrap();
        assert!(small <= big + 1e-12, "Lemma 10 violated: {small} > {big}");
    }

    #[test]
    fn no_candidate_items_contribute_zero() {
        // Item 0 believes a frequency nothing has.
        let intervals = vec![(0.95, 1.0), (0.0, 1.0), (0.0, 1.0)];
        let b = BeliefFunction::from_intervals(intervals).unwrap();
        let oe = oestimate(&b, &[5, 4, 3], 10);
        // Items 1, 2 each have O = 3.
        assert!((oe - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn propagated_profile_reports_statuses() {
        let supports = vec![2u64, 4, 6, 8];
        let f = |s: u64| s as f64 / 10.0;
        let intervals = vec![(f(2), f(2)), (f(2), f(4)), (f(2), f(6)), (f(2), f(8))];
        let b = BeliefFunction::from_intervals(intervals).unwrap();
        let graph = b.build_graph(&supports, 10);
        let profile = OutdegreeProfile::propagated(&graph).unwrap();
        assert_eq!(profile.forced_cracks(), 4);
        for x in 0..4 {
            assert_eq!(profile.status(x), ItemStatus::ForcedCrack);
            assert_eq!(profile.crack_probability(x), 1.0);
        }
    }

    #[test]
    fn oestimate_for_database_matches_supports_path() {
        let db = andi_data::bigmart();
        let b = BeliefFunction::widened(&db.frequencies(), 0.05).unwrap();
        let via_db = oestimate_for(&b, &db);
        let via_supports = oestimate(&b, &db.supports(), db.n_transactions() as u64);
        assert_eq!(via_db, via_supports);
    }

    #[test]
    fn restrict_zeroes_dropped_items() {
        let b = BeliefFunction::widened(&freqs(), 0.05).unwrap();
        let graph = b.build_graph(&BIGMART_SUPPORTS, M);
        let profile = OutdegreeProfile::plain(&graph);
        let restricted = profile
            .restrict(&[true, false, true, false, false, false])
            .unwrap();
        assert_eq!(restricted.crack_probability(1), 0.0);
        assert_eq!(restricted.status(3), ItemStatus::NoCandidates);
        assert_eq!(
            restricted.crack_probability(0),
            profile.crack_probability(0)
        );
        assert!(
            (restricted.oestimate()
                - profile
                    .oestimate_masked(&[true, false, true, false, false, false])
                    .unwrap())
            .abs()
                < 1e-12
        );
        // Probabilities vector agrees entry-wise.
        let probs = restricted.probabilities();
        assert_eq!(probs.len(), 6);
        assert_eq!(probs[1], 0.0);
    }

    #[test]
    fn restrict_checks_mask_length() {
        let b = BeliefFunction::ignorant(6);
        let graph = b.build_graph(&BIGMART_SUPPORTS, M);
        assert!(matches!(
            OutdegreeProfile::plain(&graph).restrict(&[true; 3]),
            Err(Error::DomainMismatch {
                expected: 6,
                got: 3
            })
        ));
    }

    #[test]
    fn chain_oe_agrees_with_closed_form() {
        use crate::chain::ChainSpec;
        let c = ChainSpec::new(vec![5, 3], vec![3, 2], vec![3]).unwrap();
        let (supports, belief) = c.realize(90).unwrap();
        let oe = oestimate(&belief, &supports, 90);
        assert!(
            (oe - c.oestimate()).abs() < 1e-12,
            "general OE {oe} vs chain closed form {}",
            c.oestimate()
        );
    }

    /// Property tests generalizing the Lemma 8 / Lemma 10 monotonicity
    /// checks above from hand-picked masks to random non-compliant
    /// subsets, plus the `DomainMismatch` path of `oestimate_masked`.
    mod masked_props {
        use super::*;
        use proptest::prelude::*;

        const M: u64 = 200;

        /// Strategy: a support profile over `m = 200` together with a
        /// uniform compliance mask and a thinning mask, all of one
        /// random length.
        fn profile_mask_and_drop() -> impl Strategy<Value = (Vec<u64>, Vec<bool>, Vec<bool>)> {
            (3usize..20).prop_flat_map(|n| {
                (
                    prop::collection::vec(1u64..M, n),
                    prop::collection::vec(prop::bool::ANY, n),
                    prop::collection::vec(prop::bool::weighted(0.4), n),
                )
            })
        }

        fn widened_profile(supports: &[u64], width: f64) -> OutdegreeProfile {
            let f: Vec<f64> = supports.iter().map(|&s| s as f64 / M as f64).collect();
            let b = BeliefFunction::widened(&f, width).unwrap();
            OutdegreeProfile::plain(&b.build_graph(supports, M))
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Lemma 10 over random subsets: shrinking the compliant
            /// set can only lower the masked O-estimate, and the
            /// all-true mask recovers the unmasked estimate.
            #[test]
            fn lemma_10_holds_for_random_subsets(
                (supports, mask, drop) in profile_mask_and_drop(),
                width_pct in 0u32..30,
            ) {
                let profile = widened_profile(&supports, width_pct as f64 / 100.0);
                let submask: Vec<bool> = mask
                    .iter()
                    .zip(drop.iter())
                    .map(|(&m, &d)| m && !d)
                    .collect();
                let big = profile.oestimate_masked(&mask).unwrap();
                let small = profile.oestimate_masked(&submask).unwrap();
                prop_assert!(
                    small <= big + 1e-12,
                    "Lemma 10 violated: OE({submask:?}) = {small} > OE({mask:?}) = {big}"
                );
                let full = profile.oestimate_masked(&vec![true; supports.len()]).unwrap();
                prop_assert!((full - profile.oestimate()).abs() < 1e-12);
            }

            /// Lemma 8 under masking: a refined belief (narrower
            /// intervals) never lowers the O-estimate, whatever the
            /// compliant subset.
            #[test]
            fn lemma_8_holds_under_random_masks(
                (supports, mask, _) in profile_mask_and_drop(),
                w_lo_pct in 0u32..15,
                w_delta_pct in 1u32..20,
            ) {
                let narrow = widened_profile(&supports, w_lo_pct as f64 / 100.0);
                let wide =
                    widened_profile(&supports, (w_lo_pct + w_delta_pct) as f64 / 100.0);
                let oe_narrow = narrow.oestimate_masked(&mask).unwrap();
                let oe_wide = wide.oestimate_masked(&mask).unwrap();
                prop_assert!(
                    oe_narrow >= oe_wide - 1e-12,
                    "Lemma 8 violated under mask {mask:?}: {oe_narrow} < {oe_wide}"
                );
            }

            /// The masked estimator is additive over a partition of
            /// the domain and agrees with `restrict`.
            #[test]
            fn masked_oe_partitions_and_matches_restrict(
                (supports, mask, _) in profile_mask_and_drop(),
                width_pct in 0u32..30,
            ) {
                let profile = widened_profile(&supports, width_pct as f64 / 100.0);
                let complement: Vec<bool> = mask.iter().map(|&m| !m).collect();
                let kept = profile.oestimate_masked(&mask).unwrap();
                let dropped = profile.oestimate_masked(&complement).unwrap();
                prop_assert!(
                    (kept + dropped - profile.oestimate()).abs() < 1e-9,
                    "masked OE not additive: {kept} + {dropped} != {}",
                    profile.oestimate()
                );
                let restricted = profile.restrict(&mask).unwrap().oestimate();
                prop_assert!((restricted - kept).abs() < 1e-12);
            }

            /// Every wrong-length mask is a `DomainMismatch` carrying
            /// both lengths — never a panic, never a silent truncation.
            #[test]
            fn wrong_length_masks_are_domain_errors(
                (supports, _, _) in profile_mask_and_drop(),
                bad_len in 0usize..40,
                width_pct in 0u32..30,
            ) {
                prop_assume!(bad_len != supports.len());
                let profile = widened_profile(&supports, width_pct as f64 / 100.0);
                let n = supports.len();
                match profile.oestimate_masked(&vec![true; bad_len]) {
                    Err(Error::DomainMismatch { expected, got }) => {
                        prop_assert_eq!(expected, n);
                        prop_assert_eq!(got, bad_len);
                    }
                    other => {
                        prop_assert!(false, "expected DomainMismatch, got {other:?}");
                    }
                }
                match profile.restrict(&vec![false; bad_len]) {
                    Err(Error::DomainMismatch { expected, got }) => {
                        prop_assert_eq!(expected, n);
                        prop_assert_eq!(got, bad_len);
                    }
                    other => {
                        let unexpected = other.map(|p| p.oestimate());
                        prop_assert!(false, "expected DomainMismatch, got {unexpected:?}");
                    }
                }
            }
        }
    }
}
