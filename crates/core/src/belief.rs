//! Belief functions (Section 2.2).
//!
//! A belief function `β` captures the hacker's prior knowledge: it
//! maps each item `x ∈ I` to an interval `[l, r] ⊆ [0, 1]` believed
//! to contain `x`'s frequency. Special cases:
//!
//! * the **ignorant** belief function maps everything to `[0, 1]`;
//! * a **point-valued** belief function maps every item to a single
//!   value;
//! * an **interval** belief function has at least one true range;
//! * `β` is **compliant** (on an item) when the interval contains the
//!   item's true frequency, and **α-compliant** when a fraction `α`
//!   of items are compliant.

use andi_data::FrequencyGroups;
use andi_graph::GroupedBigraph;
use rand::Rng;

use crate::error::{Error, Result};

/// A hacker's belief function: one frequency interval per item.
///
/// # Examples
///
/// The four Figure 2 archetypes:
///
/// ```
/// use andi_core::BeliefFunction;
///
/// let truth = [0.5, 0.4, 0.3];
/// let ignorant = BeliefFunction::ignorant(3);
/// let exact = BeliefFunction::point_valued(&truth).unwrap();
/// let ballpark = BeliefFunction::widened(&truth, 0.05).unwrap();
///
/// assert!(ignorant.is_ignorant());
/// assert_eq!(exact.interval(1), (0.4, 0.4));
/// assert!(ballpark.interval(1).0 < ballpark.interval(1).1);
/// // All three contain the truth: fully compliant.
/// assert_eq!(ballpark.alpha(&truth), 1.0);
/// // Refinement (Definition 7): tighter knowledge refines looser.
/// assert!(exact.refines(&ballpark));
/// assert!(ballpark.refines(&ignorant));
/// ```
// andi::declassify(Debug renders belief intervals for test diagnostics and oracle counterexamples; adversary-visible outputs go through Provenance)
#[derive(Clone, Debug, PartialEq)]
pub struct BeliefFunction {
    // andi::sensitive — the adversary's per-item belief intervals [l, u]
    intervals: Vec<(f64, f64)>,
}

impl BeliefFunction {
    /// The ignorant belief function on `n` items: every interval is
    /// `[0, 1]`.
    pub fn ignorant(n: usize) -> Self {
        BeliefFunction {
            intervals: vec![(0.0, 1.0); n],
        }
    }

    /// The compliant point-valued belief function for the given true
    /// frequencies: `β(x) = [f_x, f_x]`.
    ///
    /// # Errors
    ///
    /// Rejects frequencies outside `[0, 1]`.
    pub fn point_valued(freqs: &[f64]) -> Result<Self> {
        Self::from_intervals(freqs.iter().map(|&f| (f, f)).collect())
    }

    /// The recipe's compliant interval belief function:
    /// `β(x) = [f_x - δ, f_x + δ]`, clamped to `[0, 1]`
    /// (Section 6.1, step 5 of Figure 8).
    ///
    /// # Errors
    ///
    /// Rejects negative `δ` or frequencies outside `[0, 1]`.
    pub fn widened(freqs: &[f64], delta: f64) -> Result<Self> {
        if delta.is_nan() || delta < 0.0 {
            return Err(Error::InvalidParameter(format!(
                "interval half-width must be non-negative, got {delta}"
            )));
        }
        let intervals = freqs
            .iter()
            .map(|&f| ((f - delta).max(0.0), (f + delta).min(1.0)))
            .collect();
        // from_intervals re-validates the original frequencies
        // indirectly: a frequency outside [0,1] yields an inverted or
        // out-of-range interval only when delta is small, so check
        // freqs explicitly.
        for (x, &f) in freqs.iter().enumerate() {
            if !(0.0..=1.0).contains(&f) {
                return Err(Error::InvalidInterval {
                    item: x,
                    low: f,
                    high: f,
                });
            }
        }
        Self::from_intervals(intervals)
    }

    /// Steps 3–5 of Figure 8 on a grouped support profile: `δ_med`,
    /// the median gap between successive frequency groups (0 when a
    /// single group leaves no gap), and the compliant belief
    /// [`BeliefFunction::widened_profile`] by it.
    ///
    /// # Errors
    ///
    /// As [`BeliefFunction::widened`]: a support above the profile's
    /// transaction count is an invalid interval.
    pub fn delta_med_compliant(groups: &FrequencyGroups) -> Result<(f64, Self)> {
        let delta = groups.median_gap().unwrap_or(0.0);
        Ok((delta, Self::widened_profile(groups, delta)?))
    }

    /// The compliant belief `[s_x/m - δ, s_x/m + δ]` of every item of a
    /// grouped support profile ([`FrequencyGroups::from_supports`]),
    /// in item order, for a caller-chosen `δ`.
    ///
    /// # Errors
    ///
    /// As [`BeliefFunction::widened`].
    pub fn widened_profile(groups: &FrequencyGroups, delta: f64) -> Result<Self> {
        let mut freqs = vec![0.0; groups.n_items()];
        for (i, group) in groups.groups.iter().enumerate() {
            let f = groups.frequency(i);
            for x in &group.items {
                freqs[x.index()] = f;
            }
        }
        Self::widened(&freqs, delta)
    }

    /// Builds from explicit intervals.
    ///
    /// # Errors
    ///
    /// Every interval must satisfy `0 <= l <= r <= 1`.
    pub fn from_intervals(intervals: Vec<(f64, f64)>) -> Result<Self> {
        for (x, &(l, r)) in intervals.iter().enumerate() {
            if !(0.0 <= l && l <= r && r <= 1.0) {
                return Err(Error::InvalidInterval {
                    item: x,
                    low: l,
                    high: r,
                });
            }
        }
        Ok(BeliefFunction { intervals })
    }

    /// Domain size.
    #[inline]
    pub fn n_items(&self) -> usize {
        self.intervals.len()
    }

    /// The belief interval of item `x`.
    ///
    /// # Panics
    ///
    /// Panics if `x` is out of range.
    #[inline]
    pub fn interval(&self, x: usize) -> (f64, f64) {
        self.intervals[x]
    }

    /// All intervals.
    #[inline]
    pub fn intervals(&self) -> &[(f64, f64)] {
        &self.intervals
    }

    /// Whether every interval is `[0, 1]`.
    pub fn is_ignorant(&self) -> bool {
        self.intervals.iter().all(|&(l, r)| l == 0.0 && r == 1.0)
    }

    /// Whether `β` is compliant on item `x` given its true frequency.
    #[inline]
    pub fn compliant_on(&self, x: usize, true_freq: f64) -> bool {
        let (l, r) = self.intervals[x];
        l <= true_freq && true_freq <= r
    }

    /// Per-item compliance against the true frequencies.
    ///
    /// # Panics
    ///
    /// Panics if lengths disagree.
    pub fn compliance_mask(&self, true_freqs: &[f64]) -> Vec<bool> {
        assert_eq!(
            true_freqs.len(),
            self.n_items(),
            "frequency vector size mismatch"
        );
        true_freqs
            .iter()
            .enumerate()
            .map(|(x, &f)| self.compliant_on(x, f))
            .collect()
    }

    /// The degree of compliancy `α`: the fraction of items whose
    /// interval contains the true frequency.
    pub fn alpha(&self, true_freqs: &[f64]) -> f64 {
        if self.n_items() == 0 {
            return 1.0;
        }
        let c = self
            .compliance_mask(true_freqs)
            .iter()
            .filter(|&&b| b)
            .count();
        c as f64 / self.n_items() as f64
    }

    /// The paper's refinement order (Definition 7): `self ⊑ other`
    /// iff every interval of `self` is contained in the corresponding
    /// interval of `other`. Lemma 8 then gives
    /// `OE(self) >= OE(other)`.
    pub fn refines(&self, other: &BeliefFunction) -> bool {
        self.n_items() == other.n_items()
            && self
                .intervals
                .iter()
                .zip(other.intervals.iter())
                .all(|(&(l1, r1), &(l2, r2))| l1 >= l2 && r1 <= r2)
    }

    /// Returns a copy where the selected items' intervals are moved
    /// off their true frequency (made *non-compliant*) while keeping
    /// their width. Used by the recipe's α-compliant anchoring
    /// (Section 6.2): the chosen items keep plausible-looking but
    /// wrong ranges.
    ///
    /// # Panics
    ///
    /// Panics on length mismatches or an out-of-range item index.
    pub fn with_noncompliant_items<R: Rng + ?Sized>(
        &self,
        true_freqs: &[f64],
        items: &[usize],
        rng: &mut R,
    ) -> BeliefFunction {
        assert_eq!(true_freqs.len(), self.n_items());
        let mut intervals = self.intervals.clone();
        for &x in items {
            let f = true_freqs[x];
            let (l, r) = intervals[x];
            let width = r - l;
            intervals[x] = wrong_interval(f, width, rng);
        }
        BeliefFunction { intervals }
    }

    /// Builds the consistent-mapping-space graph for this belief
    /// function against an observed support profile (aligned
    /// indexing: anonymized item `i` is original item `i`).
    ///
    /// # Panics
    ///
    /// Panics if the profile's size disagrees with the domain.
    pub fn build_graph(&self, supports: &[u64], n_transactions: u64) -> GroupedBigraph {
        assert_eq!(
            supports.len(),
            self.n_items(),
            "support profile size mismatch"
        );
        GroupedBigraph::new(supports, n_transactions, &self.intervals)
    }
}

/// Draws an interval of the given width inside `[0, 1]` that does
/// *not* contain `f`. Falls back to a zero-width wrong point when the
/// width leaves no room (e.g. width close to 1).
fn wrong_interval<R: Rng + ?Sized>(f: f64, width: f64, rng: &mut R) -> (f64, f64) {
    for _ in 0..64 {
        let l = rng.gen::<f64>() * (1.0 - width);
        let r = l + width;
        if f < l || f > r {
            return (l, r.min(1.0));
        }
    }
    // Width too large for a same-width miss: use a wrong point value.
    let mut p = rng.gen::<f64>();
    if (p - f).abs() < 1e-9 {
        p = if f < 0.5 { (f + 0.5).min(1.0) } else { f - 0.5 };
    }
    (p, p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const BIGMART_FREQS: [f64; 6] = [0.5, 0.4, 0.5, 0.5, 0.3, 0.5];

    /// Whether every interval is a single point.
    fn is_point_valued(b: &BeliefFunction) -> bool {
        b.intervals().iter().all(|&(l, r)| l == r)
    }

    /// Whether at least one interval is a true range (`l < r`) — the
    /// paper's definition of an *interval* belief function.
    fn is_interval(b: &BeliefFunction) -> bool {
        b.intervals().iter().any(|&(l, r)| l < r)
    }

    /// The belief function `h` of Figure 2 (0-based item ids).
    fn belief_h() -> BeliefFunction {
        BeliefFunction::from_intervals(vec![
            (0.0, 1.0),
            (0.4, 0.5),
            (0.5, 0.5),
            (0.4, 0.6),
            (0.1, 0.4),
            (0.5, 0.5),
        ])
        .unwrap()
    }

    /// The 0.5-compliant belief function `k` of Figure 2: wrong on
    /// the first three items.
    fn belief_k() -> BeliefFunction {
        BeliefFunction::from_intervals(vec![
            (0.6, 1.0),
            (0.1, 0.25),
            (0.0, 0.4),
            (0.4, 0.6),
            (0.1, 0.4),
            (0.5, 0.5),
        ])
        .unwrap()
    }

    #[test]
    fn classification_of_figure_2_functions() {
        let f = BeliefFunction::point_valued(&BIGMART_FREQS).unwrap();
        assert!(is_point_valued(&f));
        assert!(!is_interval(&f));
        assert!(!f.is_ignorant());

        let g = BeliefFunction::ignorant(6);
        assert!(g.is_ignorant());
        assert!(is_interval(&g));
        assert!(!is_point_valued(&g));

        let h = belief_h();
        assert!(is_interval(&h));
        assert!(!h.is_ignorant());
        assert!(!is_point_valued(&h));
    }

    #[test]
    fn compliance_of_figure_2_functions() {
        let f = BeliefFunction::point_valued(&BIGMART_FREQS).unwrap();
        assert!((f.alpha(&BIGMART_FREQS) - 1.0).abs() < 1e-12);

        let g = BeliefFunction::ignorant(6);
        assert!((g.alpha(&BIGMART_FREQS) - 1.0).abs() < 1e-12);

        let h = belief_h();
        assert!((h.alpha(&BIGMART_FREQS) - 1.0).abs() < 1e-12);

        // k guesses wrong on the first three items: 0.5-compliant.
        let k = belief_k();
        assert!((k.alpha(&BIGMART_FREQS) - 0.5).abs() < 1e-12);
        let mask = k.compliance_mask(&BIGMART_FREQS);
        assert_eq!(mask, vec![false, false, false, true, true, true]);
    }

    #[test]
    fn widened_clamps_to_unit_interval() {
        let b = BeliefFunction::widened(&[0.05, 0.5, 0.98], 0.1).unwrap();
        assert_eq!(b.interval(0), (0.0, 0.15000000000000002));
        let (l, r) = b.interval(2);
        assert!((l - 0.88).abs() < 1e-12);
        assert_eq!(r, 1.0);
        // Widened beliefs are compliant by construction.
        assert!((b.alpha(&[0.05, 0.5, 0.98]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn delta_med_is_zero_on_one_group() {
        let groups = FrequencyGroups::from_supports(&[4, 4, 4], 10);
        let (delta, b) = BeliefFunction::delta_med_compliant(&groups).unwrap();
        assert_eq!(delta, 0.0);
        assert!(is_point_valued(&b));
        assert_eq!(b.intervals(), [(0.4, 0.4); 3]);
    }

    #[test]
    fn delta_med_is_the_median_gap_widening_of_the_analogs() {
        use andi_data::Analog;
        for analog in [
            Analog::Chess,
            Analog::Mushroom,
            Analog::Connect,
            Analog::Pumsb,
        ] {
            let (supports, m) = (analog.supports(), analog.spec().n_transactions);
            let groups = FrequencyGroups::from_supports(&supports, m);
            let delta = groups.median_gap().expect("many groups");
            let freqs: Vec<f64> = supports.iter().map(|&s| s as f64 / m as f64).collect();
            let expected = BeliefFunction::widened(&freqs, delta).unwrap();
            let (got_delta, got) = BeliefFunction::delta_med_compliant(&groups).unwrap();
            assert_eq!(got_delta.to_bits(), delta.to_bits(), "{analog:?}");
            let bits = |b: &BeliefFunction| -> Vec<(u64, u64)> {
                b.intervals()
                    .iter()
                    .map(|&(l, r)| (l.to_bits(), r.to_bits()))
                    .collect()
            };
            assert_eq!(bits(&got), bits(&expected), "{analog:?}");
        }
    }

    #[test]
    fn a_profile_support_above_m_is_an_invalid_interval() {
        let groups = FrequencyGroups::from_supports(&[3, 12, 5], 10);
        assert!(matches!(
            BeliefFunction::widened_profile(&groups, 0.1),
            Err(Error::InvalidInterval { item: 1, .. })
        ));
    }

    #[test]
    fn invalid_inputs_are_rejected() {
        assert!(BeliefFunction::from_intervals(vec![(0.5, 0.4)]).is_err());
        assert!(BeliefFunction::from_intervals(vec![(-0.1, 0.5)]).is_err());
        assert!(BeliefFunction::from_intervals(vec![(0.2, 1.2)]).is_err());
        assert!(BeliefFunction::point_valued(&[1.5]).is_err());
        assert!(BeliefFunction::widened(&[0.5], -0.1).is_err());
        assert!(BeliefFunction::widened(&[2.0], 0.1).is_err());
    }

    #[test]
    fn refinement_order() {
        let point = BeliefFunction::point_valued(&BIGMART_FREQS).unwrap();
        let wide = BeliefFunction::widened(&BIGMART_FREQS, 0.05).unwrap();
        let ignorant = BeliefFunction::ignorant(6);
        assert!(point.refines(&wide));
        assert!(wide.refines(&ignorant));
        assert!(point.refines(&ignorant));
        assert!(point.refines(&point), "refinement is reflexive");
        assert!(!ignorant.refines(&point));
        assert!(!wide.refines(&point));
        // Mismatched domains never refine.
        assert!(!point.refines(&BeliefFunction::ignorant(5)));
    }

    #[test]
    fn noncompliant_rewrite_misses_the_truth() {
        let mut rng = StdRng::seed_from_u64(81);
        let b = BeliefFunction::widened(&BIGMART_FREQS, 0.05).unwrap();
        let bad = b.with_noncompliant_items(&BIGMART_FREQS, &[0, 2, 4], &mut rng);
        let mask = bad.compliance_mask(&BIGMART_FREQS);
        assert_eq!(mask, vec![false, true, false, true, false, true]);
        assert!((bad.alpha(&BIGMART_FREQS) - 0.5).abs() < 1e-12);
        // Untouched intervals are identical.
        assert_eq!(bad.interval(1), b.interval(1));
        assert_eq!(bad.interval(3), b.interval(3));
    }

    #[test]
    fn wrong_interval_handles_wide_widths() {
        let mut rng = StdRng::seed_from_u64(82);
        for _ in 0..200 {
            let (l, r) = wrong_interval(0.5, 0.95, &mut rng);
            assert!(!(l <= 0.5 && 0.5 <= r), "[{l},{r}] must miss 0.5");
            assert!((0.0..=1.0).contains(&l) && l <= r && r <= 1.0);
        }
    }

    #[test]
    fn build_graph_matches_figure_3() {
        let supports = vec![5u64, 4, 5, 5, 3, 5];
        let g = belief_h().build_graph(&supports, 10);
        assert_eq!(g.outdegrees(), vec![6, 5, 4, 5, 2, 4]);
    }

    #[test]
    fn empty_domain_alpha_is_one() {
        let b = BeliefFunction::ignorant(0);
        assert_eq!(b.alpha(&[]), 1.0);
    }
}
