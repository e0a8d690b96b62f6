//! Property tests of the core analysis layer.

use std::time::Duration;

use andi_core::{
    assess_risk, assess_risk_budgeted, round_supports, suppression_plan, BeliefFunction, ChainSpec,
    OutdegreeProfile, RecipeConfig, RiskAssessment, RiskDecision, Rung,
};
use andi_data::{DatabaseBuilder, FrequencyGroups};
use andi_graph::par::Budget;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Strategy: a support profile over m = 200.
fn profile() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(1u64..200, 3..25)
}

/// Strategy: a small database (as transaction sets).
fn small_db() -> impl Strategy<Value = Vec<std::collections::BTreeSet<u32>>> {
    prop::collection::vec(prop::collection::btree_set(0u32..10, 1..6), 3..20)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The masked-OE curve is linear, `c·OE/n` at `c` compliant
    /// items, so `α_max = c*/n` exactly for `c* = ⌊τ·n²/OE⌋` (capped
    /// at `n`).
    #[test]
    fn alpha_max_tracks_the_linear_formula(
        supports in profile(),
        tau_pct in 2u32..40,
    ) {
        let tau = tau_pct as f64 / 100.0;
        let config = RecipeConfig {
            tolerance: tau,
            ..RecipeConfig::default()
        };
        let n = supports.len() as f64;
        let verdict = assess_risk(&supports, 200, &config).unwrap();
        if let Some(alpha) = verdict.alpha_max() {
            let oe = verdict.full_compliance_oe;
            let bound = (tau * n * n / oe).min(n);
            let c = (alpha * n).round();
            // Where the bound lands on an integer k, rounding may put
            // k either side of the budget.
            let k = bound.round();
            let on_boundary = (bound - k).abs() < 1e-9;
            prop_assert!(
                c == bound.floor() || (on_boundary && (c == k || c == k - 1.0)),
                "alpha_max {alpha} vs c*/n = {}/{n}", bound.floor()
            );
        } else {
            // Disclosure: one of the two early exits fired.
            let g = FrequencyGroups::from_supports(&supports, 200).n_groups() as f64;
            prop_assert!(
                g <= tau * n + 1e-9 || verdict.full_compliance_oe <= tau * n + 1e-9
            );
        }
    }

    /// The chain O-estimate never exceeds the exact Lemma 6 value
    /// (the Δ table's positivity), across random valid chains.
    #[test]
    fn chain_oe_is_a_lower_bound(
        n1 in 2usize..20, n2 in 2usize..20,
        e1_frac in 0.0f64..1.0, v1_frac in 0.0f64..1.0,
    ) {
        let e1 = ((e1_frac * n1 as f64) as usize).min(n1);
        let u1 = n1 - e1;
        let v1 = ((v1_frac * n2 as f64) as usize).min(n2);
        let s1 = u1 + v1;
        let e2 = n2 - v1;
        let chain = ChainSpec::new(vec![n1, n2], vec![e1, e2], vec![s1]);
        prop_assume!(chain.is_ok());
        let chain = chain.unwrap();
        prop_assert!(
            chain.oestimate() <= chain.expected_cracks() + 1e-9,
            "OE {} > exact {}",
            chain.oestimate(),
            chain.expected_cracks()
        );
    }

    /// Support rounding always produces bucket-aligned (or clamped)
    /// supports and keeps every transaction non-empty.
    #[test]
    fn sanitizer_respects_its_contract(
        txs in small_db(),
        bucket in 1u64..10,
        seed in 0u64..500,
    ) {
        let mut builder = DatabaseBuilder::new(10);
        for t in &txs {
            builder.add(t.iter().copied()).unwrap();
        }
        let db = builder.build().unwrap();
        let m = db.n_transactions() as u64;
        let mut rng = StdRng::seed_from_u64(seed);
        let sanitized = round_supports(&db, bucket, &mut rng).unwrap();
        prop_assert_eq!(sanitized.database.n_transactions(), db.n_transactions());
        for t in sanitized.database.transactions() {
            prop_assert!(!t.is_empty());
        }
        // Supports either hit a bucket boundary, the clamp at m, or
        // were blocked by the no-empty-transaction rule (deletions
        // can stall); in the last case the support moved toward the
        // target.
        let orig = db.supports();
        for (x, &s) in sanitized.database.supports().iter().enumerate() {
            if orig[x] == 0 {
                prop_assert_eq!(s, 0);
                continue;
            }
            let target = ((orig[x] as f64 / bucket as f64).round() as u64 * bucket)
                .clamp(bucket.min(m), m);
            let aligned = s == target;
            let stalled = target < orig[x] && s >= target && s <= orig[x];
            prop_assert!(
                aligned || stalled,
                "item {x}: support {s}, original {}, target {target}",
                orig[x]
            );
        }
    }

    /// The suppression plan always meets its budget and never
    /// suppresses more than necessary (removing its last item would
    /// breach the budget).
    #[test]
    fn suppression_plan_is_tight(supports in profile(), tau_pct in 2u32..50) {
        let tau = tau_pct as f64 / 100.0;
        let freqs: Vec<f64> = supports.iter().map(|&s| s as f64 / 200.0).collect();
        let belief = BeliefFunction::widened(&freqs, 0.02).unwrap();
        let graph = belief.build_graph(&supports, 200);
        let profile = OutdegreeProfile::plain(&graph);
        let plan = suppression_plan(&profile, tau).unwrap();
        prop_assert!(plan.within_budget);
        prop_assert!(plan.residual_oestimate <= plan.budget + 1e-9);
        if let Some(&last) = plan.exposure.last() {
            prop_assert!(
                plan.residual_oestimate + last > plan.budget - 1e-9,
                "plan suppressed more than needed"
            );
        }
    }

    /// α-compliant perturbation hits the requested compliance
    /// exactly and leaves untouched items untouched.
    #[test]
    fn noncompliant_rewrite_is_surgical(
        supports in profile(),
        bad_frac in 0.0f64..1.0,
        seed in 0u64..500,
    ) {
        let n = supports.len();
        let freqs: Vec<f64> = supports.iter().map(|&s| s as f64 / 200.0).collect();
        let belief = BeliefFunction::widened(&freqs, 0.03).unwrap();
        let n_bad = ((bad_frac * n as f64) as usize).min(n);
        let bad: Vec<usize> = (0..n_bad).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let perturbed = belief.with_noncompliant_items(&freqs, &bad, &mut rng);
        let mask = perturbed.compliance_mask(&freqs);
        for (x, &ok) in mask.iter().enumerate() {
            prop_assert_eq!(ok, x >= n_bad, "item {}", x);
        }
        for x in n_bad..n {
            prop_assert_eq!(perturbed.interval(x), belief.interval(x));
        }
    }
}

/// Every bit of a transcript: `(n, τ, g, δ_med, full-compliance OE,
/// verdict, α_max, OE at α_max)`, with the verdict as 0 = disclose at
/// point-valued, 1 = disclose at full compliance, 2 = α search.
fn transcript_bits(a: &RiskAssessment) -> (usize, u64, u64, u64, u64, u8, u64, u64) {
    let (verdict, alpha, at_alpha) = match a.decision {
        RiskDecision::DiscloseAtPointValued => (0, 0, 0),
        RiskDecision::DiscloseAtFullCompliance => (1, 0, 0),
        RiskDecision::AlphaMax {
            alpha_max,
            oestimate_at_alpha,
        } => (2, alpha_max.to_bits(), oestimate_at_alpha.to_bits()),
    };
    (
        a.n_items,
        a.tolerance.to_bits(),
        a.point_valued_cracks.to_bits(),
        a.delta_med.to_bits(),
        a.full_compliance_oe.to_bits(),
        verdict,
        alpha,
        at_alpha,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Both recipe entry points share one Figure 8 body. A zero
    /// deadline trips the ladder's exact and sampler rungs before any
    /// work, so it lands on the O-estimate floor — the same step-6
    /// estimate `assess_risk` uses. There `assess_risk_budgeted` must
    /// reproduce `assess_risk` bit for bit at one and four workers,
    /// over a τ grid that reaches all three verdicts.
    #[test]
    fn budgeted_recipe_on_the_oe_floor_reproduces_the_plain_recipe(
        supports in prop::collection::vec(1u64..60, 2..=12),
        seed in 0u64..1000,
    ) {
        let config = |tolerance: f64| RecipeConfig {
            tolerance,
            seed,
            ..RecipeConfig::default()
        };
        let n = supports.len() as f64;
        // τ = 1 always discloses at point-valued (g <= n) and
        // τ = 1/32 always searches α (g >= 1 and OE >= 1 exceed
        // 12/32); the midpoint between OE/n and g/n discloses at full
        // compliance whenever OE < g.
        let probe = assess_risk(&supports, 60, &config(1.0)).unwrap();
        let (g, oe) = (probe.point_valued_cracks, probe.full_compliance_oe);
        let mut taus: Vec<f64> = (1..=32).map(|k| k as f64 / 32.0).collect();
        let full_compliance_reachable = oe < g - 1e-9;
        if full_compliance_reachable {
            taus.push((g + oe) / (2.0 * n));
        }
        let mut reached = [false; 3];
        for &tau in &taus {
            let plain = assess_risk(&supports, 60, &config(tau)).unwrap();
            let bits = transcript_bits(&plain);
            reached[bits.5 as usize] = true;
            for threads in [1usize, 4] {
                let zero = Budget::with_deadline(Duration::ZERO);
                let budgeted =
                    assess_risk_budgeted(&supports, 60, &config(tau), &zero, threads).unwrap();
                prop_assert_eq!(budgeted.provenance.rung, Rung::OEstimate);
                prop_assert_eq!(
                    transcript_bits(&budgeted.assessment),
                    bits,
                    "tau={}, threads={}", tau, threads
                );
            }
        }
        prop_assert!(reached[0] && reached[2], "verdicts reached: {:?}", reached);
        if full_compliance_reachable {
            prop_assert!(reached[1], "g={}, OE={}: full-compliance verdict missed", g, oe);
        }
    }
}
