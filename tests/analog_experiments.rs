//! Smoke-scale versions of the paper's experiments on the benchmark
//! analogs: every figure's qualitative claim, checked in CI time.

use andi::core::recipe::compliancy_curve;
use andi::{
    assess_risk, similarity_by_sampling, Analog, GapPolicy, OutdegreeProfile, RecipeConfig,
    SimilarityConfig,
};

/// Figure 9: the analogs hit the published group/singleton counts
/// exactly and track the mean gap.
#[test]
fn fig9_shape_matches_paper() {
    let expected: [(Analog, usize, usize, f64); 6] = [
        (Analog::Connect, 125, 122, 0.0081),
        (Analog::Pumsb, 650, 421, 0.00154),
        (Analog::Accidents, 310, 286, 0.00324),
        (Analog::Retail, 582, 218, 0.00099),
        (Analog::Mushroom, 90, 77, 0.01124),
        (Analog::Chess, 73, 71, 0.01389),
    ];
    for (analog, groups, singles, mean_gap) in expected {
        let fg = analog.frequency_groups();
        assert_eq!(fg.n_groups(), groups, "{analog} group count");
        assert_eq!(fg.n_singleton_groups(), singles, "{analog} singleton count");
        let stats = fg.gap_stats().unwrap();
        assert!(
            (stats.mean - mean_gap).abs() / mean_gap < 0.25,
            "{analog}: mean gap {} vs paper {mean_gap}",
            stats.mean
        );
        assert!(
            stats.median <= stats.mean,
            "{analog}: gap distribution must be right-skewed"
        );
    }
}

/// Section 6.1's observation: for all benchmarks the number of
/// singleton groups is high relative to the domain, so point-valued
/// compliance gives an unacceptably high crack estimate.
#[test]
fn point_valued_estimate_is_too_high_on_all_analogs() {
    for analog in Analog::ALL {
        let fg = analog.frequency_groups();
        let n = analog.spec().n_items as f64;
        let g = fg.n_groups() as f64;
        assert!(
            g / n > 0.03,
            "{analog}: g/n = {} should dwarf any sane tolerance",
            g / n
        );
    }
}

/// Figure 11's qualitative ordering at τ = 0.1: RETAIL discloses
/// outright; CONNECT's α_max is small; the α_max of PUMSB and
/// ACCIDENTS is comfortably higher than CONNECT's.
#[test]
fn fig11_qualitative_ordering() {
    let tau = 0.1;
    let alpha_of = |analog: Analog| {
        let spec = analog.spec();
        let verdict = assess_risk(
            &analog.supports(),
            spec.n_transactions,
            &RecipeConfig {
                tolerance: tau,
                ..RecipeConfig::default()
            },
        )
        .unwrap();
        verdict.alpha_max()
    };

    let retail = alpha_of(Analog::Retail);
    assert_eq!(retail, None, "RETAIL should disclose outright at tau = 0.1");

    let connect = alpha_of(Analog::Connect).expect("CONNECT must need the search");
    let pumsb = alpha_of(Analog::Pumsb).expect("PUMSB must need the search");
    let accidents = alpha_of(Analog::Accidents).expect("ACCIDENTS must need the search");
    assert!(
        connect < pumsb && connect < accidents,
        "CONNECT ({connect:.2}) must cross tolerance earliest \
         (PUMSB {pumsb:.2}, ACCIDENTS {accidents:.2})"
    );
    assert!(
        connect < 0.4,
        "paper: CONNECT alpha_max ≈ 0.2, got {connect:.2}"
    );
    assert!(pumsb > 0.4, "paper: PUMSB alpha_max ≈ 0.7, got {pumsb:.2}");
}

/// The compliancy curve is monotone and anchored for every analog.
#[test]
fn fig11_curves_are_monotone() {
    for analog in [Analog::Chess, Analog::Mushroom, Analog::Connect] {
        let spec = analog.spec();
        let supports = analog.supports();
        let freqs: Vec<f64> = supports
            .iter()
            .map(|&s| s as f64 / spec.n_transactions as f64)
            .collect();
        let fg = analog.frequency_groups();
        let belief = andi::BeliefFunction::widened(&freqs, fg.median_gap().unwrap()).unwrap();
        let graph = belief.build_graph(&supports, spec.n_transactions);
        let profile = OutdegreeProfile::plain(&graph);
        let alphas: Vec<f64> = (0..=10).map(|k| k as f64 / 10.0).collect();
        let curve = compliancy_curve(&profile.probabilities(), &alphas);
        for w in curve.windows(2) {
            assert!(w[0].fraction <= w[1].fraction + 1e-12, "{analog}");
        }
        assert!(curve[0].fraction.abs() < 1e-12);
        assert!((curve[10].oestimate - profile.oestimate()).abs() < 1e-9);
    }
}

/// Figure 12's headline claims, on the smallest analog (CHESS, so
/// the test stays fast): small samples already carry real
/// compliancy; the sampled *average* gap is far more permissive than
/// the median (the paper's ~0.99 observation); and compliancy grows
/// broadly with sample size for a dense dataset.
#[test]
fn fig12_small_samples_are_dangerous() {
    let db = Analog::Chess.database();
    let config = SimilarityConfig {
        samples_per_size: 4,
        gap_policy: GapPolicy::Median,
        seed: 3,
    };
    let points = similarity_by_sampling(&db, &[0.10, 0.50, 1.0], &config).unwrap();
    // With only 3 196 transactions, a 10% CHESS sample has large
    // frequency noise; compliancy is modest but far from zero — the
    // qualitative "samples leak" point stands.
    assert!(
        points[0].mean_alpha > 0.15,
        "a 10% sample should carry nontrivial compliancy, got {}",
        points[0].mean_alpha
    );
    assert!(
        points[2].mean_alpha > points[0].mean_alpha,
        "compliancy must grow toward the full sample"
    );
    assert!(
        (points[2].mean_alpha - 1.0).abs() < 1e-12,
        "full sample is exact"
    );

    let mean_points = similarity_by_sampling(
        &db,
        &[0.10, 0.50, 1.0],
        &SimilarityConfig {
            gap_policy: GapPolicy::Mean,
            ..config
        },
    )
    .unwrap();
    for (med, mean) in points.iter().zip(mean_points.iter()) {
        assert!(
            mean.mean_alpha >= med.mean_alpha - 1e-12,
            "mean-gap intervals are wider, hence at least as compliant"
        );
    }
    assert!(
        mean_points[1].mean_alpha > 0.8,
        "the mean-gap policy is misleadingly permissive (paper: ~0.99), got {}",
        mean_points[1].mean_alpha
    );
}

/// The recipe's three-stage structure fires in the right order as
/// tolerance moves, on a real analog profile.
#[test]
fn recipe_stages_on_mushroom() {
    let analog = Analog::Mushroom;
    let spec = analog.spec();
    let supports = analog.supports();
    // g = 90 groups over 120 items: g/n = 0.75.
    let stage1 = assess_risk(
        &supports,
        spec.n_transactions,
        &RecipeConfig {
            tolerance: 0.8,
            ..RecipeConfig::default()
        },
    )
    .unwrap();
    assert_eq!(stage1.decision, andi::RiskDecision::DiscloseAtPointValued);

    let stage3 = assess_risk(
        &supports,
        spec.n_transactions,
        &RecipeConfig {
            tolerance: 0.05,
            ..RecipeConfig::default()
        },
    )
    .unwrap();
    assert!(
        stage3.alpha_max().is_some(),
        "tight tolerance reaches the search"
    );
}

/// Analog materialization is faithful: group structure of the
/// generated transactions matches the profile (up to rare
/// empty-transaction fills).
#[test]
fn materialized_analogs_match_profiles() {
    for analog in [Analog::Chess, Analog::Mushroom] {
        let spec = analog.spec();
        let db = analog.database();
        assert_eq!(db.n_items(), spec.n_items);
        assert_eq!(db.n_transactions() as u64, spec.n_transactions);
        let fg = andi::FrequencyGroups::of_database(&db);
        let drift = (fg.n_groups() as i64 - spec.n_groups as i64).abs();
        assert!(
            drift <= 3,
            "{analog}: groups {} vs {}",
            fg.n_groups(),
            spec.n_groups
        );
    }
}
