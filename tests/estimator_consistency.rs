//! Property-based consistency tests across the estimator stack:
//! exact permanents, closed-form lemmas, O-estimates and the MCMC
//! sampler must agree wherever their domains overlap.
//!
//! Randomized inputs are expressed as [`andi_oracle::Instance`]
//! values and evaluated through the oracle's [`Estimator`] surface,
//! so these properties exercise exactly the objects the conformance
//! sweeps and the committed corpus replay.

use andi::core::compliancy_curve_decoy;
use andi::graph::{expected_cracks, sample_cracks_budgeted, Budget, Matching};
use andi::{compliancy_curve, BeliefFunction, ChainSpec, OutdegreeProfile};
use andi_oracle::estimators::{crack_probabilities_of, ClosedForm, OEstimate, Permanent};
use andi_oracle::{Estimator, Instance, Regime};
use proptest::prelude::*;

/// Strategy: a small support profile over m = 100 transactions.
fn small_profile() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(1u64..100, 2..9)
}

/// Wraps supports + intervals as an oracle instance over m = 100.
fn instance(supports: Vec<u64>, intervals: Vec<(f64, f64)>) -> Instance {
    Instance {
        label: "prop:estimator-consistency".into(),
        regime: Regime::AlphaCompliant,
        supports,
        m: 100,
        intervals,
        mask: None,
    }
}

/// Strategy: a compliant interval belief for the given supports —
/// each interval is the true frequency widened by random slack on
/// both sides.
fn compliant_belief(supports: &[u64]) -> impl Strategy<Value = Vec<(f64, f64)>> {
    let freqs: Vec<f64> = supports.iter().map(|&s| s as f64 / 100.0).collect();
    prop::collection::vec((0.0f64..0.3, 0.0f64..0.3), freqs.len()).prop_map(move |slacks| {
        freqs
            .iter()
            .zip(slacks.iter())
            .map(|(&f, &(a, b))| ((f - a).max(0.0), (f + b).min(1.0)))
            .collect()
    })
}

/// Strategy: a compliant instance over m = 100.
fn compliant_instance() -> impl Strategy<Value = Instance> {
    small_profile().prop_flat_map(|s| {
        let b = compliant_belief(&s);
        (Just(s), b).prop_map(|(supports, intervals)| instance(supports, intervals))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Plain OE is refined by propagation on compliant beliefs, and
    /// both stay within [0, n]; the exact expectation also lies
    /// between the certain-crack count and n.
    #[test]
    fn oe_bounds_hold(inst in compliant_instance()) {
        let n = inst.n() as f64;
        let plain = OEstimate { propagated: false }.estimate(&inst).unwrap().value;
        let propagated = OEstimate { propagated: true }.estimate(&inst).unwrap().value;
        prop_assert!(plain >= 0.0 && plain <= n + 1e-9);
        prop_assert!(propagated + 1e-9 >= plain, "propagation sharpens: {propagated} < {plain}");

        let exact: f64 = crack_probabilities_of(&inst)
            .expect("compliant is feasible")
            .iter()
            .sum();
        prop_assert!(exact <= n + 1e-9);
        let prop_profile = OutdegreeProfile::propagated(&inst.graph().unwrap()).unwrap();
        prop_assert!(
            exact + 1e-9 >= prop_profile.forced_cracks() as f64,
            "certain cracks lower-bound the expectation"
        );
    }

    /// Lemma 8 (monotonicity): widening every interval cannot raise
    /// the O-estimate.
    #[test]
    fn lemma_8_monotonicity(supports in small_profile(), extra in 0.0f64..0.4) {
        let freqs: Vec<f64> = supports.iter().map(|&s| s as f64 / 100.0).collect();
        let narrow = BeliefFunction::widened(&freqs, 0.02).unwrap();
        let wide = BeliefFunction::widened(&freqs, 0.02 + extra).unwrap();
        prop_assert!(narrow.refines(&wide));
        let inst_n = instance(supports.clone(), narrow.intervals().to_vec());
        let inst_w = instance(supports, wide.intervals().to_vec());
        let est = OEstimate { propagated: false };
        let oe_n = est.estimate(&inst_n).unwrap().value;
        let oe_w = est.estimate(&inst_w).unwrap().value;
        prop_assert!(oe_n + 1e-9 >= oe_w, "{oe_n} < {oe_w}");
    }

    /// Lemma 10 (α-monotonicity): removing items from the compliant
    /// set cannot raise the masked O-estimate.
    #[test]
    fn lemma_10_monotonicity(supports in small_profile(), seed in 0u64..1000) {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let freqs: Vec<f64> = supports.iter().map(|&s| s as f64 / 100.0).collect();
        let belief = BeliefFunction::widened(&freqs, 0.05).unwrap();
        let mut inst = instance(supports, belief.intervals().to_vec());
        let n = inst.n();
        let mut order: Vec<usize> = (0..n).collect();
        order.shuffle(&mut rand::rngs::StdRng::seed_from_u64(seed));
        let est = OEstimate { propagated: false };
        let whole = est.estimate(&inst).unwrap().value;
        let mut mask = vec![false; n];
        let mut prev = 0.0;
        for &x in &order {
            mask[x] = true;
            inst.mask = Some(mask.clone());
            let oe = est.estimate(&inst).unwrap().value;
            prop_assert!(oe + 1e-12 >= prev, "masked OE must grow with the compliant set");
            prev = oe;
        }
        prop_assert!((prev - whole).abs() < 1e-9);
    }

    /// The Lemma 6 chain closed form agrees with the exact
    /// permanent computation on every realizable small chain, with
    /// the oracle's ClosedForm estimator re-detecting the chain from
    /// the realized instance.
    #[test]
    fn chain_formula_matches_permanent(
        n1 in 1usize..4, n2 in 1usize..4, n3 in 1usize..4,
        e1_frac in 0.0f64..=1.0, split in 0.0f64..=1.0,
    ) {
        // Construct a consistent chain: pick e1 <= n1, then u1 =
        // n1 - e1 items of S1 are in group 1; pick v1 <= n2 items of
        // S1 in group 2; continue for one shared link only (k = 2)
        // and for k = 3 via the second split.
        let e1 = (e1_frac * n1 as f64).floor() as usize;
        let u1 = n1 - e1;
        let v1 = (split * n2 as f64).floor() as usize;
        let s1 = u1 + v1;
        let rest2 = n2 - v1; // items of group 2 fed by e2 or S2
        // Keep k = 2 by making everything else exclusive.
        let e2 = rest2;
        let e3 = n3;
        // Chain of length 3 with empty second shared group.
        let chain = ChainSpec::new(vec![n1, n2, n3], vec![e1, e2, e3], vec![s1, 0]);
        prop_assume!(chain.is_ok());
        let chain = chain.unwrap();
        prop_assume!(chain.n_items() <= 10);

        let (supports, belief) = chain.realize(100).unwrap();
        let inst = Instance {
            regime: Regime::Chain,
            ..instance(supports, belief.intervals().to_vec())
        };
        let exact = Permanent { cap: 10 }.estimate(&inst).unwrap().value;
        prop_assert!(
            (exact - chain.expected_cracks()).abs() < 1e-9,
            "Lemma 6 gives {}, permanent gives {exact}",
            chain.expected_cracks()
        );
        // ClosedForm re-detects the chain from the graph and lands
        // on the same number.
        prop_assert!(ClosedForm.applies_to(&inst));
        let closed = ClosedForm.estimate(&inst).unwrap().value;
        prop_assert!((closed - exact).abs() < 1e-9);
    }

    /// The decoy-corrected curve is the plain O-estimate curve
    /// wherever it models no decoy: at every α when the assumed
    /// interval width is 0, and at α = 1 whatever the width. (On a
    /// compliant belief every crack edge exists, so the decoy curve's
    /// crack-edge filter drops no term.)
    #[test]
    fn decoy_curve_without_decoys_is_the_plain_curve(
        supports in small_profile(),
        delta in 0.0f64..0.3,
        width in 0.0f64..1.0,
    ) {
        let freqs: Vec<f64> = supports.iter().map(|&s| s as f64 / 100.0).collect();
        let graph = BeliefFunction::widened(&freqs, delta)
            .unwrap()
            .build_graph(&supports, 100);
        let probs = OutdegreeProfile::plain(&graph).probabilities();
        let alphas: Vec<f64> = (0..=10).map(|k| k as f64 / 10.0).collect();
        let plain = compliancy_curve(&probs, &alphas);
        let no_width = compliancy_curve_decoy(&graph, 0.0, &alphas);
        for (p, d) in plain.iter().zip(&no_width) {
            prop_assert!(
                (p.oestimate - d.oestimate).abs() <= 1e-12 * (1.0 + p.oestimate),
                "alpha={}: plain {} vs decoy {}", p.alpha, p.oestimate, d.oestimate
            );
        }
        let full = compliancy_curve_decoy(&graph, width, &[1.0]);
        let last = plain.last().unwrap().oestimate;
        prop_assert!((full[0].oestimate - last).abs() <= 1e-12 * (1.0 + last));
    }

    /// The grouped and dense graphs always agree on outdegrees, and
    /// the sampler accepts any compliant instance.
    #[test]
    fn grouped_dense_agreement(supports in small_profile()) {
        let freqs: Vec<f64> = supports.iter().map(|&s| s as f64 / 100.0).collect();
        let belief = BeliefFunction::widened(&freqs, 0.07).unwrap();
        let inst = instance(supports.clone(), belief.intervals().to_vec());
        let graph = inst.graph().unwrap();
        let dense = graph.to_dense();
        prop_assert_eq!(graph.outdegrees(), dense.right_degrees());
        prop_assert_eq!(graph.n_edges(), dense.n_edges());
        for i in 0..supports.len() {
            for y in 0..supports.len() {
                prop_assert_eq!(graph.has_edge(i, y), dense.has_edge(i, y));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The prefix-tight block decomposition is sound: matchings never
    /// cross block boundaries, so the exact crack marginals computed
    /// on each block's standalone subgraph equal the marginals of the
    /// whole graph.
    #[test]
    fn identified_blocks_localize_marginals(inst in compliant_instance()) {
        let graph = inst.graph().unwrap();
        let id = andi::identify_sets(&graph);
        prop_assume!(!id.blocks.is_empty());
        let whole = crack_probabilities_of(&inst).expect("compliant");

        for block in &id.blocks {
            // Tightness: for compliant beliefs in aligned indexing,
            // the block's anonymized and original item sets coincide.
            let mut anon_sorted = block.anonymized_items.clone();
            anon_sorted.sort_unstable();
            prop_assert_eq!(&anon_sorted, &block.original_items);

            // The block's standalone sub-instance (re-indexed).
            let sub = Instance {
                label: "prop:block".into(),
                regime: inst.regime,
                supports: block
                    .original_items
                    .iter()
                    .map(|&i| inst.supports[i])
                    .collect(),
                m: inst.m,
                intervals: block
                    .original_items
                    .iter()
                    .map(|&y| inst.intervals[y])
                    .collect(),
                mask: None,
            };
            let local = crack_probabilities_of(&sub).expect("block is feasible");
            for (k, &y) in block.original_items.iter().enumerate() {
                prop_assert!(
                    (whole[y] - local[k]).abs() < 1e-9,
                    "item {y}: whole-graph {} vs block-local {}",
                    whole[y],
                    local[k]
                );
            }
        }
    }
}

/// Non-proptest: the sampler's long-run mean matches the exact
/// expectation on a batch of random compliant instances (this is the
/// statistical contract the paper's Figure 10 relies on).
#[test]
fn sampler_tracks_exact_on_random_instances() {
    use andi::graph::sampler::SamplerConfig;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(99);
    let config = SamplerConfig {
        warmup_swaps: 20_000,
        swaps_between_samples: 400,
        samples_per_seed: 500,
        n_samples: 1_500,
        use_locality: true,
    };
    for trial in 0..6 {
        let n = rng.gen_range(4..9);
        let supports: Vec<u64> = (0..n).map(|_| rng.gen_range(1..100)).collect();
        let freqs: Vec<f64> = supports.iter().map(|&s| s as f64 / 100.0).collect();
        let delta = rng.gen_range(0.01..0.2);
        let belief = BeliefFunction::widened(&freqs, delta).unwrap();
        let graph = belief.build_graph(&supports, 100);
        let exact = expected_cracks(&graph.to_dense()).expect("feasible");
        let samples = sample_cracks_budgeted(
            &graph,
            &Matching::identity(n),
            &config,
            rng.gen(),
            andi::graph::par::available_threads(),
            &Budget::unlimited(),
        )
        .unwrap();
        let mean = samples.mean();
        assert!(
            (mean - exact).abs() < 0.2,
            "trial {trial}: sampled {mean} vs exact {exact} (n={n}, delta={delta:.3})"
        );
    }
}
