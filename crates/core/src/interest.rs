//! Items-of-interest risk analysis (Lemmas 2 and 4 generalized).
//!
//! Often the owner is not equally worried about every item: "the
//! data owner may only be concerned with the identities of the
//! frequent items, or the items with the highest profit margin"
//! (Section 3.1). This module selects an interest subset `I₁ ⊆ I`,
//! evaluates the closed forms restricted to it (Lemma 2 for the
//! ignorant hacker, Lemma 4 for the point-valued one) and the
//! O-estimate restricted to it, and finds the interest-budgeted
//! `α_max`.

use andi_data::FrequencyGroups;

use crate::belief::BeliefFunction;
use crate::error::{Error, Result};
use crate::formulas;
use crate::oestimate::OutdegreeProfile;
use crate::recipe::compliancy_curve;

/// How the interest subset is chosen.
#[derive(Clone, Debug, PartialEq)]
pub enum InterestSpec {
    /// The `k` most frequent items (ties broken by item id).
    TopKFrequent(usize),
    /// Items with frequency at least the threshold.
    FrequencyAbove(f64),
    /// An explicit item list.
    Explicit(Vec<usize>),
}

/// Weighted disclosure value: `Σ_x w_x · P(crack x)` — the "items
/// with the highest profit margin" reading of Section 3.1, where a
/// crack is as bad as the item is valuable.
///
/// # Errors
///
/// The weight vector must cover the domain, with non-negative
/// finite entries.
pub fn weighted_expected_damage(
    profile: &crate::oestimate::OutdegreeProfile,
    weights: &[f64],
) -> Result<f64> {
    if weights.len() != profile.n_items() {
        return Err(Error::DomainMismatch {
            expected: profile.n_items(),
            got: weights.len(),
        });
    }
    for (x, &w) in weights.iter().enumerate() {
        if !(w >= 0.0 && w.is_finite()) {
            return Err(Error::InvalidParameter(format!(
                "weight of item {x} must be finite and non-negative, got {w}"
            )));
        }
    }
    Ok(weights
        .iter()
        .enumerate()
        .map(|(x, &w)| w * profile.crack_probability(x))
        .sum())
}

impl InterestSpec {
    /// Materializes the boolean mask over the domain.
    ///
    /// # Errors
    ///
    /// Rejects out-of-domain explicit items, `k` larger than the
    /// domain, or thresholds outside `[0, 1]`.
    pub fn mask(&self, supports: &[u64], n_transactions: u64) -> Result<Vec<bool>> {
        let n = supports.len();
        match self {
            InterestSpec::TopKFrequent(k) => {
                if *k > n {
                    return Err(Error::InvalidParameter(format!(
                        "top-{k} requested from a domain of {n}"
                    )));
                }
                let mut order: Vec<usize> = (0..n).collect();
                order.sort_unstable_by_key(|&x| (std::cmp::Reverse(supports[x]), x));
                let mut mask = vec![false; n];
                for &x in order.iter().take(*k) {
                    mask[x] = true;
                }
                Ok(mask)
            }
            InterestSpec::FrequencyAbove(threshold) => {
                if !(0.0..=1.0).contains(threshold) {
                    return Err(Error::InvalidParameter(format!(
                        "frequency threshold {threshold} out of [0, 1]"
                    )));
                }
                let m = n_transactions as f64;
                Ok(supports
                    .iter()
                    .map(|&s| s as f64 / m >= *threshold)
                    .collect())
            }
            InterestSpec::Explicit(items) => {
                let mut mask = vec![false; n];
                for &x in items {
                    if x >= n {
                        return Err(Error::InvalidParameter(format!(
                            "interest item {x} outside domain 0..{n}"
                        )));
                    }
                    mask[x] = true;
                }
                Ok(mask)
            }
        }
    }
}

/// Risk figures restricted to the interest subset.
#[derive(Clone, Debug)]
pub struct InterestRisk {
    /// The interest mask used.
    pub mask: Vec<bool>,
    /// `n₁ = |I₁|`.
    pub n_interest: usize,
    /// Lemma 2: expected interesting cracks under the ignorant
    /// hacker, `n₁/n`.
    pub ignorant: f64,
    /// Lemma 4: expected interesting cracks under the compliant
    /// point-valued hacker, `Σ cᵢ/nᵢ`.
    pub point_valued: f64,
    /// O-estimate of interesting cracks for the `δ`-widened
    /// compliant interval belief.
    pub interval_oe: f64,
    /// Largest compliancy fraction keeping the *interesting* crack
    /// estimate within `tolerance · n₁`, averaged over nested random
    /// masks (None if even full compliance fits).
    pub alpha_max: Option<f64>,
}

/// Configuration for [`assess_interest_risk`].
#[derive(Clone, Copy, Debug)]
pub struct InterestConfig {
    /// Tolerated expected fraction *of the interest subset* cracked.
    pub tolerance: f64,
    /// Interval half-width; `None` = use the median frequency-group
    /// gap (`δ_med`).
    pub delta: Option<f64>,
    /// Averaging runs for the α curve.
    pub n_mask_runs: usize,
    /// RNG seed for mask permutations.
    pub seed: u64,
}

impl Default for InterestConfig {
    fn default() -> Self {
        InterestConfig {
            tolerance: 0.1,
            delta: None,
            n_mask_runs: 5,
            seed: 0x1A7E,
        }
    }
}

/// Runs the interest-restricted analysis on a support profile.
///
/// # Errors
///
/// Propagates spec/parameter validation and empty-space detection.
/// # Examples
///
/// ```
/// use andi_core::{assess_interest_risk, InterestConfig, InterestSpec};
///
/// let supports = [5u64, 4, 5, 5, 3, 5]; // BigMart
/// // The owner only cares about the two best sellers.
/// let risk = assess_interest_risk(
///     &supports, 10,
///     &InterestSpec::TopKFrequent(2),
///     &InterestConfig::default(),
/// ).unwrap();
/// assert_eq!(risk.n_interest, 2);
/// // Lemma 2: an ignorant hacker cracks n1/n of them.
/// assert!((risk.ignorant - 2.0 / 6.0).abs() < 1e-12);
/// ```
pub fn assess_interest_risk(
    supports: &[u64],
    n_transactions: u64,
    spec: &InterestSpec,
    config: &InterestConfig,
) -> Result<InterestRisk> {
    if supports.is_empty() {
        return Err(Error::InvalidParameter("empty support profile".into()));
    }
    if !(config.tolerance > 0.0 && config.tolerance <= 1.0) {
        return Err(Error::InvalidParameter(format!(
            "tolerance must be in (0, 1], got {}",
            config.tolerance
        )));
    }
    let n = supports.len();
    let mask = spec.mask(supports, n_transactions)?;
    let n_interest = mask.iter().filter(|&&b| b).count();

    let groups = FrequencyGroups::from_supports(supports, n_transactions);
    let ignorant = formulas::ignorant_expected_cracks_of_subset(n, n_interest)?;
    let point_valued = formulas::point_valued_expected_cracks_of_subset(&groups, &mask)?;

    let delta = config
        .delta
        .unwrap_or_else(|| groups.median_gap().unwrap_or(0.0));
    let m = n_transactions as f64;
    let freqs: Vec<f64> = supports.iter().map(|&s| s as f64 / m).collect();
    let belief = BeliefFunction::widened(&freqs, delta)?;
    let graph = belief.build_graph(supports, n_transactions);
    let profile = OutdegreeProfile::propagated(&graph)?;
    let interval_oe = profile.oestimate_masked(&mask)?;

    // α search against the interest budget. The compliancy curve
    // machinery works on crack probabilities; zero out uninteresting
    // items by building a restricted profile view via masking within
    // the curve: reuse compliancy_curve on a masked pseudo-profile.
    let budget = config.tolerance * n_interest as f64;
    let alpha_max = if interval_oe <= budget {
        None
    } else {
        // Restrict the profile to interesting items (uninteresting
        // crack probabilities do not count toward the budget).
        let restricted = profile.restrict(&mask)?;
        let alphas: Vec<f64> = (0..=100).map(|k| k as f64 / 100.0).collect();
        let curve = compliancy_curve(
            &restricted.probabilities(),
            &alphas,
            config.n_mask_runs,
            config.seed,
            andi_graph::par::available_threads(),
        );
        let best = curve
            .iter()
            .rev()
            .find(|p| p.oestimate <= budget)
            .map(|p| p.alpha)
            .unwrap_or(0.0);
        Some(best)
    };

    Ok(InterestRisk {
        mask,
        n_interest,
        ignorant,
        point_valued,
        interval_oe,
        alpha_max,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const BIGMART_SUPPORTS: [u64; 6] = [5, 4, 5, 5, 3, 5];

    #[test]
    fn top_k_mask_selects_most_frequent() {
        let mask = InterestSpec::TopKFrequent(2)
            .mask(&BIGMART_SUPPORTS, 10)
            .unwrap();
        // Supports 5,4,5,5,3,5: top-2 by (support, id) = items 0, 2.
        assert_eq!(mask, vec![true, false, true, false, false, false]);
    }

    #[test]
    fn frequency_threshold_mask() {
        let mask = InterestSpec::FrequencyAbove(0.45)
            .mask(&BIGMART_SUPPORTS, 10)
            .unwrap();
        assert_eq!(mask, vec![true, false, true, true, false, true]);
    }

    #[test]
    fn explicit_mask_and_validation() {
        let mask = InterestSpec::Explicit(vec![1, 4])
            .mask(&BIGMART_SUPPORTS, 10)
            .unwrap();
        assert_eq!(mask.iter().filter(|&&b| b).count(), 2);
        assert!(InterestSpec::Explicit(vec![9])
            .mask(&BIGMART_SUPPORTS, 10)
            .is_err());
        assert!(InterestSpec::TopKFrequent(7)
            .mask(&BIGMART_SUPPORTS, 10)
            .is_err());
        assert!(InterestSpec::FrequencyAbove(1.5)
            .mask(&BIGMART_SUPPORTS, 10)
            .is_err());
    }

    #[test]
    fn lemma_values_on_bigmart() {
        let risk = assess_interest_risk(
            &BIGMART_SUPPORTS,
            10,
            &InterestSpec::Explicit(vec![0, 1]),
            &InterestConfig::default(),
        )
        .unwrap();
        assert_eq!(risk.n_interest, 2);
        // Lemma 2: 2/6.
        assert!((risk.ignorant - 2.0 / 6.0).abs() < 1e-12);
        // Lemma 4: item 0 in the 4-group (1/4), item 1 alone (1).
        assert!((risk.point_valued - 1.25).abs() < 1e-12);
        // Interval OE of the subset is at most the Lemma 4 value
        // (wider intervals, Lemma 8).
        assert!(risk.interval_oe <= risk.point_valued + 1e-12);
    }

    #[test]
    fn alpha_max_appears_under_tight_budgets() {
        let tight = assess_interest_risk(
            &BIGMART_SUPPORTS,
            10,
            &InterestSpec::TopKFrequent(4),
            &InterestConfig {
                tolerance: 0.05,
                ..InterestConfig::default()
            },
        )
        .unwrap();
        let alpha = tight.alpha_max.expect("tight budget forces the search");
        assert!(alpha < 1.0);

        let loose = assess_interest_risk(
            &BIGMART_SUPPORTS,
            10,
            &InterestSpec::TopKFrequent(4),
            &InterestConfig {
                tolerance: 1.0,
                ..InterestConfig::default()
            },
        )
        .unwrap();
        assert_eq!(loose.alpha_max, None, "full compliance fits a 100% budget");
    }

    #[test]
    fn empty_interest_is_risk_free() {
        let risk = assess_interest_risk(
            &BIGMART_SUPPORTS,
            10,
            &InterestSpec::Explicit(vec![]),
            &InterestConfig::default(),
        )
        .unwrap();
        assert_eq!(risk.n_interest, 0);
        assert_eq!(risk.ignorant, 0.0);
        assert_eq!(risk.point_valued, 0.0);
        assert_eq!(risk.interval_oe, 0.0);
        assert_eq!(risk.alpha_max, None);
    }

    #[test]
    fn weighted_damage_weighs_probabilities() {
        use crate::belief::BeliefFunction;
        use crate::oestimate::OutdegreeProfile;
        let freqs: Vec<f64> = BIGMART_SUPPORTS.iter().map(|&s| s as f64 / 10.0).collect();
        let b = BeliefFunction::point_valued(&freqs).unwrap();
        let graph = b.build_graph(&BIGMART_SUPPORTS, 10);
        let profile = OutdegreeProfile::plain(&graph);
        // Uniform weight 1: damage = OE = 3.
        let flat = weighted_expected_damage(&profile, &[1.0; 6]).unwrap();
        assert!((flat - 3.0).abs() < 1e-12);
        // All value on singleton item 1 (cracked w.p. 1): damage = w.
        let mut w = [0.0; 6];
        w[1] = 100.0;
        let focused = weighted_expected_damage(&profile, &w).unwrap();
        assert!((focused - 100.0).abs() < 1e-12);
        // Validation.
        assert!(weighted_expected_damage(&profile, &[1.0; 3]).is_err());
        assert!(weighted_expected_damage(&profile, &[1.0, -1.0, 0.0, 0.0, 0.0, 0.0]).is_err());
        assert!(weighted_expected_damage(&profile, &[f64::NAN, 0.0, 0.0, 0.0, 0.0, 0.0]).is_err());
    }

    #[test]
    fn parameter_validation() {
        let bad = InterestConfig {
            tolerance: 0.0,
            ..InterestConfig::default()
        };
        assert!(
            assess_interest_risk(&BIGMART_SUPPORTS, 10, &InterestSpec::TopKFrequent(2), &bad)
                .is_err()
        );
        assert!(assess_interest_risk(
            &[],
            10,
            &InterestSpec::TopKFrequent(0),
            &InterestConfig::default()
        )
        .is_err());
    }
}
