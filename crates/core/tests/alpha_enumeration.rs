//! The α tail against brute force.
//!
//! Figure 8 steps 8–9, Figure 11's curves and the interest analysis
//! all read the masked O-estimate `Σ_{x∈C} t_x` averaged over the
//! compliant subsets `C` of `c` items. On random profiles of at most
//! 12 items this suite enumerates every subset, averages the masked
//! sum per size, and checks that each answer equals that mean: the
//! recipe's `alpha_max` and `oestimate_at_alpha`, both curves, and the
//! interest `alpha_max`.

use andi_core::{
    assess_interest_risk, assess_risk, compliancy_curve, compliancy_curve_decoy, compliant_count,
    BeliefFunction, InterestConfig, InterestSpec, OutdegreeProfile, RecipeConfig, RiskDecision,
};
use andi_data::FrequencyGroups;
use andi_graph::GroupedBigraph;
use proptest::prelude::*;

/// Transactions behind every generated profile.
const M: u64 = 60;

/// Relative slack between the enumerated mean and an answer: the two
/// sum the same terms in different orders.
const EPS: f64 = 1e-9;

/// Strategy: a support profile of 2 to 12 items over `M`.
fn profile() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(1u64..M, 2..=12)
}

/// `means[c]`: the masked sum `Σ_{x∈C} terms[x]` averaged over every
/// subset `C` of `c` items.
fn subset_means(terms: &[f64]) -> Vec<f64> {
    let n = terms.len();
    let mut sums = vec![0.0; n + 1];
    let mut counts = vec![0u32; n + 1];
    for mask in 0u32..1 << n {
        let c = mask.count_ones() as usize;
        sums[c] += (0..n)
            .filter(|&x| mask >> x & 1 == 1)
            .map(|x| terms[x])
            .sum::<f64>();
        counts[c] += 1;
    }
    sums.iter()
        .zip(&counts)
        .map(|(&s, &k)| s / f64::from(k))
        .collect()
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= EPS * (1.0 + b.abs())
}

/// Whether some mean lies within [`EPS`] of `budget`, where the two
/// summation orders may disagree about the comparison.
fn straddles(means: &[f64], budget: f64) -> bool {
    means.iter().any(|&m| close(m, budget))
}

/// The recipe's step-5 graph: every item believed within `δ_med` of
/// its true frequency.
fn delta_med_graph(supports: &[u64]) -> GroupedBigraph {
    let groups = FrequencyGroups::from_supports(supports, M);
    let (_, belief) = BeliefFunction::delta_med_compliant(&groups).expect("supports are below M");
    belief.build_graph(supports, M)
}

/// The recipe's step-6 crack probabilities.
fn step6_probabilities(supports: &[u64]) -> Vec<f64> {
    OutdegreeProfile::propagated(&delta_med_graph(supports))
        .expect("a compliant belief has a mapping")
        .probabilities()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `assess_risk`'s `alpha_max` is `c*/n` for the largest count
    /// `c*` whose enumerated mean fits `τ·n`, and its
    /// `oestimate_at_alpha` is that mean.
    #[test]
    fn recipe_alpha_max_is_the_enumerated_count(
        supports in profile(),
        tau_pct in 1u32..40,
    ) {
        let tau = f64::from(tau_pct) / 100.0;
        let n = supports.len();
        let config = RecipeConfig { tolerance: tau, ..RecipeConfig::default() };
        let verdict = assess_risk(&supports, M, &config).unwrap();
        let RiskDecision::AlphaMax { alpha_max, oestimate_at_alpha } = verdict.decision else {
            return Ok(());
        };
        let means = subset_means(&step6_probabilities(&supports));
        let budget = tau * n as f64;
        if straddles(&means, budget) {
            return Ok(());
        }
        let c_star = (0..=n).rev().find(|&c| means[c] <= budget).unwrap();
        prop_assert_eq!(alpha_max, c_star as f64 / n as f64, "means {:?}", means);
        prop_assert!(
            close(oestimate_at_alpha, means[c_star]),
            "OE at alpha_max {} vs enumerated {}", oestimate_at_alpha, means[c_star]
        );
    }

    /// Both Figure 11 curves equal the enumerated mean at each α's
    /// compliant count.
    #[test]
    fn curves_are_the_enumerated_means(
        supports in profile(),
        width_pct in 0u32..40,
    ) {
        let n = supports.len();
        let graph = delta_med_graph(&supports);
        let alphas: Vec<f64> = (0..=20).map(|k| f64::from(k) / 20.0).collect();

        let probs = step6_probabilities(&supports);
        let means = subset_means(&probs);
        let curve = compliancy_curve(&probs, &alphas);
        for point in &curve {
            let want = means[compliant_count(point.alpha, n)];
            prop_assert!(close(point.oestimate, want),
                "alpha {}: curve {} vs enumerated {}", point.alpha, point.oestimate, want);
        }

        let width = f64::from(width_pct) / 100.0;
        let outdegrees = graph.outdegrees();
        let decoy = compliancy_curve_decoy(&graph, width, &alphas);
        for point in &decoy {
            let decoys = (1.0 - point.alpha) * n as f64 * width;
            let terms: Vec<f64> = (0..n)
                .map(|x| {
                    if graph.crack_edge_exists(x) && outdegrees[x] > 0 {
                        1.0 / (outdegrees[x] as f64 + decoys)
                    } else {
                        0.0
                    }
                })
                .collect();
            let want = subset_means(&terms)[compliant_count(point.alpha, n)];
            prop_assert!(close(point.oestimate, want),
                "alpha {}: decoy curve {} vs enumerated {}", point.alpha, point.oestimate, want);
        }
    }

    /// The interest `alpha_max` is the largest `k/100` whose
    /// compliant count's enumerated mean, over the interesting items'
    /// probabilities alone, fits `τ·n₁`.
    #[test]
    fn interest_alpha_max_is_the_enumerated_grid_point(
        supports in profile(),
        top_k in 1usize..=12,
        tau_pct in 1u32..40,
    ) {
        let n = supports.len();
        let tau = f64::from(tau_pct) / 100.0;
        let spec = InterestSpec::TopKFrequent(top_k.min(n));
        let config = InterestConfig { tolerance: tau, ..InterestConfig::default() };
        let risk = assess_interest_risk(&supports, M, &spec, &config).unwrap();
        let Some(alpha_max) = risk.alpha_max else {
            return Ok(());
        };
        let terms: Vec<f64> = step6_probabilities(&supports)
            .iter()
            .zip(&risk.mask)
            .map(|(&p, &interesting)| if interesting { p } else { 0.0 })
            .collect();
        let means = subset_means(&terms);
        let budget = tau * risk.n_interest as f64;
        if straddles(&means, budget) {
            return Ok(());
        }
        let want = (0..=100)
            .rev()
            .map(|k| f64::from(k) / 100.0)
            .find(|&alpha| means[compliant_count(alpha, n)] <= budget)
            .unwrap();
        prop_assert_eq!(alpha_max, want, "means {:?}", means);
    }
}
