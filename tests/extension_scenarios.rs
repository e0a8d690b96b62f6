//! Integration scenarios for the beyond-the-paper extensions:
//! exact estimation, the advisor, sanitization, powerset beliefs and
//! Figure 11's α_max — each exercised across crate boundaries.

use andi::core::advisor::suppression_plan;
use andi::core::powerset::{ItemsetBelief, PowersetBelief};
use andi::core::recipe::compliancy_curve;
use andi::core::sanitize::{round_supports, utility_loss};
use andi::graph::crack_probabilities_per_component;
use andi::{
    assess_powerset_risk, best_expected_cracks, bigmart, fpgrowth, BeliefFunction, Budget,
    FrequencyGroups, OutdegreeProfile, RecipeConfig, Rung,
};
use andi_oracle::convex::{convex_exact, DEFAULT_STATE_BUDGET};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Exact recipe == heuristic recipe on structure, with a value at
/// least as large (the O-estimate underestimates). The exact recipe
/// is the budgeted one on an unlimited budget: its ladder answers on
/// the Ryser rung.
#[test]
fn exact_recipe_dominates_heuristic() {
    let db = bigmart();
    let supports = db.supports();
    let config = RecipeConfig {
        tolerance: 0.01,
        ..RecipeConfig::default()
    };
    let heuristic = andi::assess_risk(&supports, 10, &config).unwrap();
    let budgeted =
        andi::assess_risk_budgeted(&supports, 10, &config, &Budget::unlimited(), 1).unwrap();
    assert_eq!(budgeted.provenance.rung, Rung::Exact);
    let exact = budgeted.assessment;
    assert!(exact.full_compliance_oe >= heuristic.full_compliance_oe - 1e-9);
    // Exact risk is higher, so the exact alpha_max is at most the
    // heuristic one: the owner using exact values is *more* cautious.
    let (a_exact, a_heur) = (exact.alpha_max().unwrap(), heuristic.alpha_max().unwrap());
    assert!(a_exact <= a_heur + 0.2, "{a_exact} vs {a_heur}");
}

/// The advisor's plan actually works: recomputing the O-estimate on
/// the suppressed release (projected database) meets the budget.
#[test]
fn suppression_plan_verifies_end_to_end() {
    let db = bigmart();
    let supports = db.supports();
    let m = db.n_transactions() as u64;
    let groups = FrequencyGroups::from_supports(&supports, m);
    let delta = groups.median_gap().unwrap();
    let belief = BeliefFunction::widened(&db.frequencies(), delta).unwrap();
    let profile = OutdegreeProfile::plain(&belief.build_graph(&supports, m));
    let tau = 0.2;
    let plan = suppression_plan(&profile, tau).unwrap();
    assert!(plan.n_suppressed() > 0, "tight budget must suppress");

    // Re-check the residual against a fresh masked computation.
    let mut keep = vec![true; db.n_items()];
    for &x in &plan.suppress {
        keep[x] = false;
    }
    let masked = profile.oestimate_masked(&keep).unwrap();
    assert!(
        (masked - plan.residual_oestimate).abs() < 1e-12,
        "plan bookkeeping must match the masked estimate"
    );
    assert!(masked <= tau * db.n_items() as f64 + 1e-12);
}

/// Sanitization lowers the recipe's risk but costs mining fidelity —
/// the full trade-off in one assertion chain.
#[test]
fn sanitization_tradeoff_end_to_end() {
    let db = bigmart();
    let mut rng = StdRng::seed_from_u64(5);
    let sanitized = round_supports(&db, 5, &mut rng).unwrap();

    // Risk side: g collapses from 3 to 1 (Lemma 3).
    let g_before = FrequencyGroups::of_database(&db).n_groups();
    let g_after = FrequencyGroups::of_database(&sanitized.database).n_groups();
    assert_eq!(g_before, 3);
    assert_eq!(g_after, 1);

    // Utility side: frequencies drifted, mining results differ.
    let loss = utility_loss(&db, &sanitized).unwrap();
    assert!(loss.mean_frequency_error > 0.0);
    let before = fpgrowth(&db, 4);
    let after = fpgrowth(&sanitized.database, 4);
    assert_ne!(before, after, "perturbation must show up in mining");
}

/// Powerset knowledge strictly refines item knowledge, and the
/// refined graph remains usable by the exact estimators.
#[test]
fn powerset_pruning_feeds_exact_estimation() {
    let db = bigmart();
    let item_belief = BeliefFunction::point_valued(&db.frequencies()).unwrap();

    // Item-level exact expectation.
    let item_graph = item_belief.build_graph(&db.supports(), 10);
    let (rung, item_exact) = best_expected_cracks(&item_graph).unwrap();
    assert_eq!(rung, Rung::Exact);
    assert!((item_exact - 3.0).abs() < 1e-9);

    // Pair-level pruning raises the exact expectation.
    let pair_support = db.itemset_support(&[andi::ItemId(0), andi::ItemId(1)]);
    let f = pair_support as f64 / 10.0;
    let belief = PowersetBelief::item_only(item_belief)
        .with_set(ItemsetBelief::new(vec![0, 1], (f, f)).unwrap())
        .unwrap();
    let risk = assess_powerset_risk(&db, &belief).unwrap();
    let pruned_exact = andi::graph::expected_cracks(&risk.graph).unwrap();
    assert!(
        pruned_exact > item_exact + 0.5,
        "pair knowledge must raise the exact expectation: {pruned_exact}"
    );
}

/// Figure 11's α_max, read off `compliancy_curve` as the last
/// compliant fraction c/n whose masked estimate fits τ·n, is the
/// recipe's α_max whenever both read the same crack probabilities:
/// the O-estimate for `assess_risk`, the per-component exact
/// marginals for the budgeted recipe on an unlimited budget.
#[test]
fn curve_alpha_max_agrees_with_the_recipe_on_shared_probabilities() {
    let db = bigmart();
    let supports = db.supports();
    let m = db.n_transactions() as u64;
    let n = supports.len();
    let groups = FrequencyGroups::from_supports(&supports, m);
    let (_, belief) = BeliefFunction::delta_med_compliant(&groups).unwrap();
    let graph = belief.build_graph(&supports, m);
    let oe = OutdegreeProfile::propagated(&graph)
        .unwrap()
        .probabilities();
    let exact = crack_probabilities_per_component(&graph, 1, &Budget::unlimited()).unwrap();

    let curve_alpha_max = |probs: &[f64], tau: f64| {
        let fractions: Vec<f64> = (0..=n).map(|c| c as f64 / n as f64).collect();
        let fits = compliancy_curve(probs, &fractions);
        let c = fits
            .iter()
            .rposition(|p| p.oestimate <= tau * n as f64)
            .unwrap();
        fits[c].alpha
    };

    for tau in [0.01, 0.1] {
        let config = RecipeConfig {
            tolerance: tau,
            ..RecipeConfig::default()
        };
        let heuristic = andi::assess_risk(&supports, m, &config).unwrap();
        assert_eq!(heuristic.alpha_max(), Some(curve_alpha_max(&oe, tau)));

        let budgeted =
            andi::assess_risk_budgeted(&supports, m, &config, &Budget::unlimited(), 1).unwrap();
        assert_eq!(budgeted.provenance.rung, Rung::Exact);
        assert_eq!(
            budgeted.assessment.alpha_max(),
            Some(curve_alpha_max(&exact, tau))
        );
    }
}

/// Brute-force soundness of the powerset pruning: an edge is pruned
/// only if NO full crack mapping consistent with every set belief
/// uses it. Verified by enumerating all consistent perfect matchings
/// of the item-level graph and filtering by the set constraints.
#[test]
fn powerset_pruning_is_sound_by_enumeration() {
    let db = bigmart();
    let n = db.n_items();
    let item_belief = BeliefFunction::point_valued(&db.frequencies()).unwrap();

    // A handful of pair/triple beliefs with their true frequencies.
    let sets: Vec<Vec<usize>> = vec![vec![0, 1], vec![2, 3], vec![0, 1, 2]];
    let mut belief = PowersetBelief::item_only(item_belief.clone());
    let mut constraints: Vec<(Vec<usize>, f64)> = Vec::new();
    for items in &sets {
        let ids: Vec<andi::ItemId> = items.iter().map(|&x| andi::ItemId(x as u32)).collect();
        let f = db.itemset_support(&ids) as f64 / 10.0;
        constraints.push((items.clone(), f));
        belief = belief
            .with_set(ItemsetBelief::new(items.clone(), (f, f)).unwrap())
            .unwrap();
    }
    let risk = assess_powerset_risk(&db, &belief).unwrap();
    assert!(risk.pruned_edges > 0, "constraints must bite");

    // Enumerate all perfect matchings of the UNPRUNED item graph and
    // keep those where every believed set's observed frequency (the
    // frequency of the matched anonymized counterparts) matches.
    let item_graph = item_belief.build_graph(&db.supports(), 10).to_dense();
    let mut surviving_edges = vec![vec![false; n]; n];
    let mut assignment = vec![usize::MAX; n];
    // assignment[y] = anonymized item matched to original y.
    fn rec(
        g: &andi::graph::DenseBigraph,
        db: &andi::Database,
        constraints: &[(Vec<usize>, f64)],
        y: usize,
        used: &mut Vec<bool>,
        assignment: &mut Vec<usize>,
        surviving: &mut Vec<Vec<bool>>,
    ) {
        let n = g.n();
        if y == n {
            // Check every set constraint under this full mapping.
            for (items, f) in constraints {
                let anon: Vec<andi::ItemId> = items
                    .iter()
                    .map(|&orig| andi::ItemId(assignment[orig] as u32))
                    .collect();
                let observed = db.itemset_support(&anon) as f64 / 10.0;
                if (observed - f).abs() > 1e-12 {
                    return;
                }
            }
            for (orig, &anon) in assignment.iter().enumerate() {
                surviving[anon][orig] = true;
            }
            return;
        }
        for i in 0..n {
            if !used[i] && g.has_edge(i, y) {
                used[i] = true;
                assignment[y] = i;
                rec(g, db, constraints, y + 1, used, assignment, surviving);
                used[i] = false;
            }
        }
    }
    let mut used = vec![false; n];
    rec(
        &item_graph,
        &db,
        &constraints,
        0,
        &mut used,
        &mut assignment,
        &mut surviving_edges,
    );

    // Soundness: every edge used by some surviving matching must have
    // survived the pruning.
    for (i, row) in surviving_edges.iter().enumerate() {
        for (y, &survives) in row.iter().enumerate() {
            if survives {
                assert!(
                    risk.graph.has_edge(i, y),
                    "edge ({i}', {y}) used by a consistent mapping but pruned"
                );
            }
        }
    }
}

/// The exact estimator's provenance is reported truthfully: a small
/// belief answers on Ryser per component, equal to the dense kernel
/// on the whole graph, and one 19-item component, whose walks price
/// above the exact cap, leaves the answer to the O-estimate.
#[test]
fn estimator_provenance_chain() {
    let db = bigmart();
    let belief = BeliefFunction::widened(&db.frequencies(), 0.1).unwrap();
    let graph = belief.build_graph(&db.supports(), 10);

    let (rung, exact) = best_expected_cracks(&graph).unwrap();
    assert_eq!(rung, Rung::Exact);
    let dense = andi::graph::expected_cracks(&graph.to_dense()).unwrap();
    assert!(
        (exact - dense).abs() < 1e-9,
        "both exact paths agree: {exact} vs {dense}"
    );

    let n = 19;
    let wide = BeliefFunction::from_intervals(vec![(0.0, 1.0); n])
        .unwrap()
        .build_graph(&vec![5; n], 10);
    let (rung, _) = best_expected_cracks(&wide).unwrap();
    assert_eq!(rung, Rung::OEstimate);
}

/// Forty items with distinct supports, each believed within one
/// support step of its own: forty-item graphs made of small connected
/// components.
fn forty_narrow_items() -> (Vec<u64>, Vec<(f64, f64)>) {
    let supports: Vec<u64> = (1..=40).map(|s| 2 * s).collect();
    let intervals = supports
        .iter()
        .map(|&s| ((s - 1) as f64 / 100.0, (s + 1) as f64 / 100.0))
        .collect();
    (supports, intervals)
}

/// Above 18 items, Ryser still answers: it runs one connected
/// component at a time, so forty items in small components are
/// answered on the exact rung, equal to the oracle's independent
/// convex DP.
#[test]
fn ryser_answers_above_eighteen_items_in_small_components() {
    let (supports, intervals) = forty_narrow_items();
    let graph = BeliefFunction::from_intervals(intervals)
        .unwrap()
        .build_graph(&supports, 100);
    assert!(graph.components().is_some_and(|c| c.largest() <= 18));

    let (rung, ryser) = best_expected_cracks(&graph).unwrap();
    assert_eq!(rung, Rung::Exact);
    let convex = convex_exact(&graph, DEFAULT_STATE_BUDGET).unwrap();
    assert!(
        (convex.expected_cracks() - ryser).abs() < 1e-9,
        "{} vs {ryser}",
        convex.expected_cracks()
    );
}

/// An item no anonymized item can be is an empty mapping space at
/// every domain size: the component split proves it before any
/// estimate, where forty items used to get an O-estimate.
#[test]
fn an_unmatchable_item_is_an_empty_space_at_every_size() {
    let (supports, mut intervals) = forty_narrow_items();
    intervals[0] = (0.95, 1.0);
    let graph = BeliefFunction::from_intervals(intervals)
        .unwrap()
        .build_graph(&supports, 100);
    assert_eq!(
        best_expected_cracks(&graph).unwrap_err(),
        andi::core::Error::EmptyMappingSpace
    );
}
