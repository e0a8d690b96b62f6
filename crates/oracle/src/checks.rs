//! The differential engine: every applicable estimator pair is
//! evaluated on an instance and the paper's relations are checked —
//! exact ≡ exact (Lemmas 1–6, the permanent, the ladder's exact rung
//! and the convex DP, pairwise), sampler → exact
//! within a CLT band, the O-estimate's structural relations (range,
//! propagation sharpening, forced cracks as a lower bound, the §5.2
//! chain closed form), plus the metamorphic relations (Lemma 8
//! widening, Lemma 10 masking, masked/restricted additivity,
//! budgeted ≡ unbudgeted).
//!
//! Note the plain O-estimate is deliberately *not* compared against
//! the exact expectation by order: the paper's Δ analysis shows OE
//! underestimates E on chains, but the relation is not universal (a
//! wide belief over three distinct groups can push `Σ 1/outdeg`
//! above `Σ p_x`), so only the provable relations are enforced.

use andi_core::OutdegreeProfile;
use andi_graph::sampler::SamplerConfig;
use andi_graph::{Budget, MAX_PERMANENT_N};

use crate::error::OracleError;
use crate::estimators::{
    crack_probabilities_of, default_estimators, Confidence, ConvexDp, Estimate, Estimator,
    SwapSampler,
};
use crate::instance::Instance;

/// Absolute tolerance for comparing two exact estimators.
pub const EXACT_EPS: f64 = 1e-9;

/// Engine configuration.
#[derive(Clone, Debug)]
pub struct CheckConfig {
    /// Worker threads for budgeted/sharded code paths.
    pub threads: usize,
    /// Domain-size ceiling for permanent-based estimators.
    pub exact_cap: usize,
    /// Whether to run the (comparatively slow) sampler checks.
    pub run_sampler: bool,
    /// Sampler schedule for the stochastic checks.
    pub sampler_config: SamplerConfig,
}

/// CLT multiplier: the sampler may drift `SAMPLER_Z * std_err +
/// SAMPLER_FLOOR` from the exact value before the oracle calls it a
/// violation (see DESIGN.md for the derivation).
pub const SAMPLER_Z: f64 = 6.0;

/// Additive slack under the CLT band absorbing residual swap-walk
/// autocorrelation (the standard error assumes independent samples).
pub const SAMPLER_FLOOR: f64 = 0.05;

impl Default for CheckConfig {
    fn default() -> Self {
        CheckConfig {
            threads: andi_graph::par::available_threads(),
            exact_cap: 11,
            run_sampler: false,
            sampler_config: SamplerConfig::quick(),
        }
    }
}

/// One failed relation.
#[derive(Clone, Debug, PartialEq)]
pub struct Violation {
    /// The relation that failed (stable kebab-case name).
    pub check: String,
    /// Values and tolerances, human-readable.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.check, self.detail)
    }
}

/// The engine's verdict on one instance.
#[derive(Clone, Debug, Default)]
pub struct CheckReport {
    /// Names of the relations that were evaluated.
    pub checks_run: Vec<String>,
    /// Relations that failed.
    pub violations: Vec<Violation>,
}

impl CheckReport {
    /// Whether every evaluated relation held.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Compares two estimates according to their confidences. Returns
/// the violation detail when the relation fails, `None` when it
/// holds or no relation connects the two confidences.
fn compare_values(a_name: &str, a: &Estimate, b_name: &str, b: &Estimate) -> Option<String> {
    use Confidence::*;
    match (a.confidence, b.confidence) {
        (Exact, Exact) => ((a.value - b.value).abs() > EXACT_EPS).then(|| {
            format!(
                "{a_name} = {} but {b_name} = {} (|Δ| > {EXACT_EPS})",
                a.value, b.value
            )
        }),
        (Stochastic { std_err, .. }, Exact) => {
            let tol = SAMPLER_Z * std_err + SAMPLER_FLOOR;
            ((a.value - b.value).abs() > tol).then(|| {
                format!(
                    "{a_name} = {} drifts from {b_name} = {} beyond {tol} \
                     (z = {SAMPLER_Z}, s.e. = {std_err})",
                    a.value, b.value
                )
            })
        }
        (Exact, Stochastic { .. }) => compare_values(b_name, b, a_name, a),
        // No generic relation orders a LowerBound estimate against
        // the others (see the module docs); the structural O-estimate
        // relations live in `check_oe_relations`.
        _ => None,
    }
}

/// An estimator's answer on one instance, or `None` when it does not
/// apply — including a decline only its own work could find
/// ([`OracleError::NotApplicable`]).
fn answer(e: &dyn Estimator, inst: &Instance) -> Result<Option<Estimate>, OracleError> {
    if !e.applies_to(inst) {
        return Ok(None);
    }
    match e.estimate(inst) {
        Ok(estimate) => Ok(Some(estimate)),
        Err(OracleError::NotApplicable(_)) => Ok(None),
        Err(err) => Err(err),
    }
}

/// Pairwise differential comparison of two estimators on one
/// instance. Used by the engine and directly by bug-injection tests.
///
/// # Errors
///
/// Estimator failures other than a shared infeasibility verdict.
pub fn compare(
    a: &dyn Estimator,
    b: &dyn Estimator,
    inst: &Instance,
) -> Result<Option<Violation>, OracleError> {
    let (Some(ea), Some(eb)) = (answer(a, inst)?, answer(b, inst)?) else {
        return Ok(None);
    };
    Ok(
        compare_values(a.name(), &ea, b.name(), &eb).map(|detail| Violation {
            check: format!("{}-vs-{}", a.name(), b.name()),
            detail,
        }),
    )
}

/// Runs the full relation battery on one instance.
///
/// # Errors
///
/// Structural failures only (an invalid instance); disagreements are
/// reported as [`Violation`]s, not errors.
pub fn check_instance(inst: &Instance, cfg: &CheckConfig) -> Result<CheckReport, OracleError> {
    inst.validate()?;
    let mut report = CheckReport::default();
    let graph = inst.graph()?;
    let feasible = andi_graph::hopcroft_karp(&graph.to_dense()).size() == inst.n();

    if !feasible {
        check_empty_space_consistency(inst, cfg, &mut report)?;
        return Ok(report);
    }

    // Pairwise differential sweep over the estimator battery: each
    // estimator answers once, and every pair that both answer is
    // compared.
    let mut answers = Vec::new();
    for e in default_estimators(cfg.threads, cfg.exact_cap) {
        if let Some(estimate) = answer(e.as_ref(), inst)? {
            answers.push((e.name(), estimate));
        }
    }
    for (i, (a_name, a)) in answers.iter().enumerate() {
        for (b_name, b) in &answers[i + 1..] {
            let check = format!("{a_name}-vs-{b_name}");
            if let Some(detail) = compare_values(a_name, a, b_name, b) {
                report.violations.push(Violation {
                    check: check.clone(),
                    detail,
                });
            }
            report.checks_run.push(check);
        }
    }

    if cfg.run_sampler && inst.mask.is_none() && inst.n() <= cfg.exact_cap {
        check_sampler(inst, cfg, &mut report)?;
    }

    check_oe_relations(inst, cfg, &mut report)?;
    check_widening_monotonicity(inst, &mut report)?;
    check_mask_relations(inst, &mut report)?;
    if inst.n() <= cfg.exact_cap.min(MAX_PERMANENT_N) {
        check_budgeted_equals_unbudgeted(inst, cfg, &mut report)?;
    }
    Ok(report)
}

/// Sampler-vs-permanent within the CLT band, plus thread-count
/// determinism of the sharded stream.
fn check_sampler(
    inst: &Instance,
    cfg: &CheckConfig,
    report: &mut CheckReport,
) -> Result<(), OracleError> {
    let sampler = SwapSampler {
        config: cfg.sampler_config,
        rng_seed: 0xD15C_105E,
        threads: cfg.threads,
        cap: cfg.exact_cap,
    };
    let perm = crate::estimators::Permanent { cap: cfg.exact_cap };
    report.checks_run.push("swap-sampler-vs-permanent".into());
    if let Some(v) = compare(&sampler, &perm, inst)? {
        report.violations.push(v);
    }

    report.checks_run.push("sampler-thread-determinism".into());
    let single = SwapSampler {
        threads: 1,
        ..sampler
    };
    let (a, b) = (sampler.estimate(inst)?, single.estimate(inst)?);
    if a.value.to_bits() != b.value.to_bits() {
        report.violations.push(Violation {
            check: "sampler-thread-determinism".into(),
            detail: format!(
                "mean {} at {} threads vs {} at 1 thread",
                a.value, cfg.threads, b.value
            ),
        });
    }
    Ok(())
}

/// The O-estimate's provable relations: both profiles stay in
/// `[0, n]`, propagation can only sharpen the plain estimate, the
/// propagated profile's forced cracks lower-bound the exact
/// expectation, and on detected chains the plain OE equals the §5.2
/// closed form `Σ eⱼ/nⱼ + Σ sⱼ/(nⱼ + nⱼ₊₁)` exactly.
fn check_oe_relations(
    inst: &Instance,
    cfg: &CheckConfig,
    report: &mut CheckReport,
) -> Result<(), OracleError> {
    let graph = inst.graph()?;
    let n = inst.n() as f64;
    let plain = OutdegreeProfile::plain(&graph).oestimate();
    let propagated = OutdegreeProfile::propagated(&graph)?;

    report.checks_run.push("oe-range".into());
    for (name, oe) in [("plain", plain), ("propagated", propagated.oestimate())] {
        if !(-EXACT_EPS..=n + EXACT_EPS).contains(&oe) {
            report.violations.push(Violation {
                check: "oe-range".into(),
                detail: format!("{name} OE = {oe} outside [0, {n}]"),
            });
        }
    }

    // Propagation only sharpens *upward* under a fully compliant
    // belief: there the identity matching is consistent, so no
    // diagonal edge can be eliminated and every forced crack or
    // outdegree cut raises the estimate. A non-compliant item lets
    // propagation remove diagonals and (correctly) push the estimate
    // down, so the ordering is gated on α = 1.
    let freqs = inst.frequencies();
    let compliant = inst
        .intervals
        .iter()
        .zip(freqs.iter())
        .all(|(&(l, r), &f)| l <= f && f <= r);
    if compliant {
        report.checks_run.push("oe-propagation-sharpens".into());
        if propagated.oestimate() + EXACT_EPS < plain {
            report.violations.push(Violation {
                check: "oe-propagation-sharpens".into(),
                detail: format!(
                    "propagated OE {} below plain OE {plain}",
                    propagated.oestimate()
                ),
            });
        }
    }

    if inst.mask.is_none() && inst.n() <= cfg.exact_cap.min(MAX_PERMANENT_N) {
        report.checks_run.push("forced-cracks-lower-bound".into());
        let exact: f64 = crack_probabilities_of(inst)?.iter().sum();
        let forced = propagated.forced_cracks() as f64;
        if forced > exact + EXACT_EPS {
            report.violations.push(Violation {
                check: "forced-cracks-lower-bound".into(),
                detail: format!("{forced} forced cracks exceed exact E = {exact}"),
            });
        }
    }

    if inst.mask.is_none() {
        if let Some(spec) = andi_core::ChainSpec::detect(&graph) {
            report.checks_run.push("chain-oe-closed-form".into());
            if (spec.oestimate() - plain).abs() > EXACT_EPS {
                report.violations.push(Violation {
                    check: "chain-oe-closed-form".into(),
                    detail: format!(
                        "chain closed form gives {} but the profile gives {plain}",
                        spec.oestimate()
                    ),
                });
            }
        }
    }
    Ok(())
}

/// Lemma 8: widening every interval (a coarser belief the original
/// refines) cannot raise the O-estimate.
fn check_widening_monotonicity(
    inst: &Instance,
    report: &mut CheckReport,
) -> Result<(), OracleError> {
    report.checks_run.push("lemma8-widening".into());
    let widened: Vec<(f64, f64)> = inst
        .intervals
        .iter()
        .map(|&(l, r)| ((l - 0.1).max(0.0), (r + 0.1).min(1.0)))
        .collect();
    let wide = Instance {
        intervals: widened,
        mask: None,
        ..inst.clone()
    };
    let narrow_b = inst.belief()?;
    let wide_b = wide.belief()?;
    if !narrow_b.refines(&wide_b) {
        return Err(OracleError::Invalid(
            "widened belief must be refined by the original".into(),
        ));
    }
    let oe_narrow = OutdegreeProfile::plain(&inst.graph()?).oestimate();
    let oe_wide = OutdegreeProfile::plain(&wide.graph()?).oestimate();
    if oe_narrow + EXACT_EPS < oe_wide {
        report.violations.push(Violation {
            check: "lemma8-widening".into(),
            detail: format!("OE rose from {oe_narrow} to {oe_wide} under widening"),
        });
    }
    Ok(())
}

/// Lemma 10 monotonicity plus masked/restricted additivity of the
/// O-estimate.
fn check_mask_relations(inst: &Instance, report: &mut CheckReport) -> Result<(), OracleError> {
    let n = inst.n();
    // Use the instance's mask, or a deterministic alternating one.
    let mask: Vec<bool> = match &inst.mask {
        Some(m) => m.clone(),
        None => (0..n).map(|i| i % 2 == 0).collect(),
    };
    let profile = OutdegreeProfile::plain(&inst.graph()?);
    let whole = profile.oestimate();
    let inside = profile.oestimate_masked(&mask)?;
    let complement: Vec<bool> = mask.iter().map(|&b| !b).collect();
    let outside = profile.oestimate_masked(&complement)?;

    report.checks_run.push("masked-additivity".into());
    if (inside + outside - whole).abs() > EXACT_EPS {
        report.violations.push(Violation {
            check: "masked-additivity".into(),
            detail: format!(
                "OE({mask:?}) + OE(!mask) = {} but OE = {whole}",
                inside + outside
            ),
        });
    }

    report.checks_run.push("restricted-equals-masked".into());
    let restricted = profile.restrict(&mask)?.oestimate();
    if (restricted - inside).abs() > EXACT_EPS {
        report.violations.push(Violation {
            check: "restricted-equals-masked".into(),
            detail: format!("restrict gives {restricted}, masked gives {inside}"),
        });
    }

    report.checks_run.push("lemma10-mask-monotonicity".into());
    if inside > whole + EXACT_EPS || outside > whole + EXACT_EPS {
        report.violations.push(Violation {
            check: "lemma10-mask-monotonicity".into(),
            detail: format!("masked OE {inside}/{outside} exceeds whole-domain {whole}"),
        });
    }
    // Growing the compliant set cannot shrink the masked OE.
    if let Some(first_out) = mask.iter().position(|&b| !b) {
        let mut grown = mask.clone();
        grown[first_out] = true;
        let grown_oe = profile.oestimate_masked(&grown)?;
        if grown_oe + EXACT_EPS < inside {
            report.violations.push(Violation {
                check: "lemma10-mask-monotonicity".into(),
                detail: format!("masked OE fell from {inside} to {grown_oe} on a superset"),
            });
        }
    }
    Ok(())
}

/// With an unlimited budget no rung trips, so the budgeted exact
/// path must be bit-identical to the plain one.
fn check_budgeted_equals_unbudgeted(
    inst: &Instance,
    cfg: &CheckConfig,
    report: &mut CheckReport,
) -> Result<(), OracleError> {
    report.checks_run.push("budgeted-equals-unbudgeted".into());
    let dense = inst.graph()?.to_dense();
    let plain = crack_probabilities_of(inst)?;
    let budget = Budget::unlimited();
    match andi_graph::crack_probabilities_budgeted(&dense, cfg.threads.max(1), &budget) {
        Err(e) => report.violations.push(Violation {
            check: "budgeted-equals-unbudgeted".into(),
            detail: format!("unlimited budget tripped: {e}"),
        }),
        Ok(budgeted) => {
            let identical = budgeted.len() == plain.len()
                && budgeted
                    .iter()
                    .zip(plain.iter())
                    .all(|(a, b)| a.to_bits() == b.to_bits());
            if !identical {
                report.violations.push(Violation {
                    check: "budgeted-equals-unbudgeted".into(),
                    detail: format!("budgeted probs {budgeted:?} != plain {plain:?}"),
                });
            }
        }
    }
    Ok(())
}

/// Every exact path must agree that an infeasible instance has an
/// empty mapping space (and none may return a number).
fn check_empty_space_consistency(
    inst: &Instance,
    cfg: &CheckConfig,
    report: &mut CheckReport,
) -> Result<(), OracleError> {
    report.checks_run.push("empty-space-consistency".into());
    let graph = inst.graph()?;
    let mut verdicts: Vec<(String, bool)> = Vec::new();

    if inst.n() <= cfg.exact_cap.min(MAX_PERMANENT_N) {
        let dense = graph.to_dense();
        verdicts.push((
            "expected_cracks".into(),
            andi_graph::expected_cracks(&dense).is_none(),
        ));
        verdicts.push((
            "crack_probabilities_budgeted".into(),
            matches!(
                andi_graph::crack_probabilities_budgeted(
                    &dense,
                    cfg.threads.max(1),
                    &Budget::unlimited()
                ),
                Err(andi_graph::ExactError::EmptyMappingSpace)
            ),
        ));
        verdicts.push((
            "crack_probabilities_per_component".into(),
            matches!(
                andi_graph::crack_probabilities_per_component(
                    &graph,
                    cfg.threads.max(1),
                    &Budget::unlimited()
                ),
                // A priced decline does not apply; an answer is a miss.
                Err(andi_graph::ExactError::EmptyMappingSpace
                    | andi_graph::ExactError::TooCostly { .. })
            ),
        ));
    }
    // The convex DP may decline, but it must not return a number.
    verdicts.push((
        "convex-dp".into(),
        ConvexDp::default().estimate(inst).is_err(),
    ));
    // Propagation is a sound but *incomplete* emptiness test (it can
    // miss Hall-condition violations), so `Ok` is acceptable here —
    // but any error it does raise must be the structured verdict.
    verdicts.push((
        "propagated-profile".into(),
        match OutdegreeProfile::propagated(&graph) {
            Ok(_) | Err(andi_core::Error::EmptyMappingSpace) => true,
            Err(_) => false,
        },
    ));

    for (who, agrees) in verdicts {
        if !agrees {
            report.violations.push(Violation {
                check: "empty-space-consistency".into(),
                detail: format!("{who} did not report an empty mapping space"),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimators::Permanent;
    use crate::instance::Regime;

    fn bigmart_h() -> Instance {
        Instance {
            label: "unit:bigmart-h".into(),
            regime: Regime::AlphaCompliant,
            supports: vec![5, 4, 5, 5, 3, 5],
            m: 10,
            intervals: vec![
                (0.0, 1.0),
                (0.4, 0.5),
                (0.5, 0.5),
                (0.4, 0.6),
                (0.1, 0.4),
                (0.5, 0.5),
            ],
            mask: None,
        }
    }

    #[test]
    fn clean_instance_passes_the_battery() {
        let report = check_instance(&bigmart_h(), &CheckConfig::default()).unwrap();
        assert!(report.is_clean(), "violations: {:?}", report.violations);
        assert!(report.checks_run.iter().any(|c| c.contains("permanent")));
        assert!(report.checks_run.iter().any(|c| c == "lemma8-widening"));
        assert!(report.checks_run.iter().any(|c| c == "masked-additivity"));
    }

    #[test]
    fn sampler_checks_run_when_enabled() {
        let cfg = CheckConfig {
            run_sampler: true,
            ..CheckConfig::default()
        };
        let report = check_instance(&bigmart_h(), &cfg).unwrap();
        assert!(report.is_clean(), "violations: {:?}", report.violations);
        assert!(report
            .checks_run
            .iter()
            .any(|c| c == "swap-sampler-vs-permanent"));
        assert!(report
            .checks_run
            .iter()
            .any(|c| c == "sampler-thread-determinism"));
    }

    #[test]
    fn infeasible_instances_get_the_consistency_check() {
        let inst = Instance {
            label: "unit:infeasible".into(),
            regime: Regime::NearDegenerate,
            supports: vec![2, 4, 6],
            m: 10,
            intervals: vec![(0.2, 0.2), (0.2, 0.2), (0.6, 0.6)],
            mask: None,
        };
        let report = check_instance(&inst, &CheckConfig::default()).unwrap();
        assert_eq!(report.checks_run, vec!["empty-space-consistency"]);
        assert!(report.is_clean(), "violations: {:?}", report.violations);
    }

    /// A deliberately wrong estimator must be caught by the pairwise
    /// comparator.
    struct OffByOne;
    impl Estimator for OffByOne {
        fn name(&self) -> &'static str {
            "off-by-one"
        }
        fn applies_to(&self, inst: &Instance) -> bool {
            Permanent::default().applies_to(inst)
        }
        fn estimate(&self, inst: &Instance) -> Result<Estimate, OracleError> {
            let mut e = Permanent::default().estimate(inst)?;
            e.value += 1.0;
            Ok(e)
        }
    }

    #[test]
    fn compare_catches_a_wrong_exact_estimator() {
        let v = compare(&OffByOne, &Permanent::default(), &bigmart_h())
            .unwrap()
            .expect("off-by-one must be detected");
        assert_eq!(v.check, "off-by-one-vs-permanent");
        assert!(v.detail.contains("2.8125"), "detail: {}", v.detail);
    }

    #[test]
    fn a_declining_estimator_is_no_violation() {
        let declines = ConvexDp { max_states: 0 };
        assert_eq!(
            compare(&declines, &Permanent::default(), &bigmart_h()),
            Ok(None)
        );
        let report = check_instance(&bigmart_h(), &CheckConfig::default()).unwrap();
        assert!(report
            .checks_run
            .iter()
            .any(|c| c == "convex-dp-vs-permanent"));
    }

    #[test]
    fn masked_instances_run_the_subset_lemmas() {
        let inst = Instance {
            label: "unit:masked-point".into(),
            regime: Regime::PointCompliant,
            supports: vec![5, 4, 5, 5, 3, 5],
            m: 10,
            intervals: vec![
                (0.5, 0.5),
                (0.4, 0.4),
                (0.5, 0.5),
                (0.5, 0.5),
                (0.3, 0.3),
                (0.5, 0.5),
            ],
            mask: Some(vec![true, true, false, false, false, false]),
        };
        let report = check_instance(&inst, &CheckConfig::default()).unwrap();
        assert!(report.is_clean(), "violations: {:?}", report.violations);
        assert!(report
            .checks_run
            .iter()
            .any(|c| c == "closed-form-vs-permanent"));
    }
}
