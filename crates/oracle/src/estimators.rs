//! The uniform [`Estimator`] surface over every way the workspace
//! computes expected cracks, so the differential engine (and any
//! future estimator) can be cross-checked pairwise.
//!
//! | estimator              | domain                      | confidence |
//! |------------------------|-----------------------------|------------|
//! | convex DP              | DP key `<= 64` bits and `<= max_states` states, feasible | exact |
//! | closed forms (L1–L6)   | ignorant / point / chain    | exact      |
//! | Ryser permanent        | `n <= cap`, feasible        | exact      |
//! | budgeted ladder (exact rung) | every component `<= cap`, feasible | exact |
//! | swap-walk sampler      | feasible, whole domain      | stochastic |
//! | O-estimate plain/prop  | everywhere feasible         | lower bound|
//!
//! The convex DP shares no code with the Ryser kernels behind
//! [`Permanent`] and [`LadderExact`], so it is the independent exact
//! check of the answer path. Its declines — a window whose key needs
//! more than 64 bits, or a spent state budget — are reported as
//! [`OracleError::NotApplicable`], which the engine reads as "does
//! not apply", never as a violation.

use andi_core::{ChainSpec, OutdegreeProfile};
use andi_data::FrequencyGroups;
use andi_graph::sampler::SamplerConfig;
use andi_graph::{Budget, Matching, MAX_PERMANENT_N};

use crate::convex::{convex_exact, ConvexError, DEFAULT_STATE_BUDGET};
use crate::error::OracleError;
use crate::instance::Instance;

/// How strongly an estimate pins the true expectation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Confidence {
    /// Mathematically exact (closed form or permanent arithmetic).
    Exact,
    /// A sampler mean with the given standard error of the mean.
    Stochastic { std_err: f64, n_samples: usize },
    /// A provable lower bound on the expectation (the O-estimate).
    LowerBound,
}

/// An estimator's answer for one instance.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Estimate {
    /// Expected number of cracks (of the masked subset when the
    /// instance carries a mask and the estimator honors it).
    pub value: f64,
    /// How the value should be compared against others.
    pub confidence: Confidence,
}

/// A uniform handle on one way of computing expected cracks.
///
/// Contract: wherever two estimators both apply, their answers must
/// agree up to their confidence — exactly for two exact estimators,
/// within a CLT band against a stochastic one, and as `lhs <= rhs`
/// for a lower bound against an exact value. New estimators must
/// implement this trait and survive a 1000-instance
/// `andi-oracle run` sweep (see CONTRIBUTING.md).
pub trait Estimator {
    /// Stable display name (used in violation reports).
    fn name(&self) -> &'static str;
    /// Whether the instance is inside this estimator's domain.
    fn applies_to(&self, inst: &Instance) -> bool;
    /// The estimate; only called when [`Estimator::applies_to`].
    ///
    /// # Errors
    ///
    /// Structural failures (infeasible instance, overflow), or
    /// [`OracleError::NotApplicable`] when the estimator declines an
    /// instance only its own work could rule out; an estimator must
    /// not panic on any instance it applies to.
    fn estimate(&self, inst: &Instance) -> Result<Estimate, OracleError>;
}

/// Whether the instance's belief is compliant point-valued.
fn is_point_compliant(inst: &Instance) -> bool {
    let freqs = inst.frequencies();
    inst.intervals
        .iter()
        .zip(freqs.iter())
        .all(|(&(l, r), &f)| l == r && l == f)
}

/// Whether every interval is `[0, 1]`.
fn is_ignorant(inst: &Instance) -> bool {
    inst.intervals.iter().all(|&(l, r)| l == 0.0 && r == 1.0)
}

/// Lemmas 1–6 wherever they apply: ignorant (L1, masked L2),
/// compliant point-valued (L3, masked L4), and detected chains (L5/L6
/// via [`ChainSpec::detect`], whole domain only).
pub struct ClosedForm;

impl Estimator for ClosedForm {
    fn name(&self) -> &'static str {
        "closed-form"
    }

    fn applies_to(&self, inst: &Instance) -> bool {
        if inst.validate().is_err() {
            return false;
        }
        if is_ignorant(inst) || is_point_compliant(inst) {
            return true;
        }
        // Chains: whole-domain only (the paper states no masked
        // chain formula).
        inst.mask.is_none()
            && inst
                .graph()
                .ok()
                .and_then(|g| ChainSpec::detect(&g))
                .is_some()
    }

    fn estimate(&self, inst: &Instance) -> Result<Estimate, OracleError> {
        inst.validate()?;
        let exact = |value: f64| Estimate {
            value,
            confidence: Confidence::Exact,
        };
        if is_ignorant(inst) {
            let value = match &inst.mask {
                None => andi_core::ignorant_expected_cracks(inst.n()),
                Some(mask) => {
                    let n1 = mask.iter().filter(|&&b| b).count();
                    andi_core::ignorant_expected_cracks_of_subset(inst.n(), n1)?
                }
            };
            return Ok(exact(value));
        }
        if is_point_compliant(inst) {
            let groups = FrequencyGroups::from_supports(&inst.supports, inst.m);
            let value = match &inst.mask {
                None => andi_core::point_valued_expected_cracks(&groups),
                Some(mask) => andi_core::point_valued_expected_cracks_of_subset(&groups, mask)?,
            };
            return Ok(exact(value));
        }
        if inst.mask.is_none() {
            if let Some(chain) = ChainSpec::detect(&inst.graph()?) {
                return Ok(exact(chain.expected_cracks()));
            }
        }
        Err(OracleError::NotApplicable("closed-form"))
    }
}

/// Exact crack probabilities from Ryser permanents, summed over the
/// whole domain or the instance's mask.
pub struct Permanent {
    /// Domain-size ceiling; permanents cost `O(n 2^n)` so sweeps cap
    /// well below [`MAX_PERMANENT_N`].
    pub cap: usize,
}

impl Default for Permanent {
    fn default() -> Self {
        Permanent { cap: 11 }
    }
}

impl Estimator for Permanent {
    fn name(&self) -> &'static str {
        "permanent"
    }

    fn applies_to(&self, inst: &Instance) -> bool {
        inst.validate().is_ok() && inst.n() <= self.cap.min(MAX_PERMANENT_N)
    }

    fn estimate(&self, inst: &Instance) -> Result<Estimate, OracleError> {
        Ok(exact_sum(&crack_probabilities_of(inst)?, inst))
    }
}

/// The exact estimate of per-item crack probabilities: their sum over
/// the whole domain, or over the instance's mask.
fn exact_sum(probs: &[f64], inst: &Instance) -> Estimate {
    let value = match &inst.mask {
        None => probs.iter().sum(),
        Some(mask) => probs
            .iter()
            .zip(mask.iter())
            .filter(|&(_, &keep)| keep)
            .map(|(&p, _)| p)
            .sum(),
    };
    Estimate {
        value,
        confidence: Confidence::Exact,
    }
}

/// Exact per-item crack probabilities of an instance.
///
/// # Errors
///
/// [`OracleError::Core`] with `EmptyMappingSpace` when no consistent
/// matching exists.
pub fn crack_probabilities_of(inst: &Instance) -> Result<Vec<f64>, OracleError> {
    let dense = inst.graph()?.to_dense();
    andi_graph::crack_probabilities(&dense)
        .ok_or(OracleError::Core(andi_core::Error::EmptyMappingSpace))
}

/// The budgeted degradation ladder's exact rung: the same question
/// answered through the fault-isolated, budget-polling code path,
/// one connected component at a time
/// ([`andi_graph::crack_probabilities_per_component`]). It applies
/// wherever every component has at most `cap` items, so it also
/// answers domains above the cap. With an unlimited budget and
/// `n <= cap` it must be *bit-identical* to [`Permanent`].
pub struct LadderExact {
    /// Worker threads for the budgeted permanents.
    pub threads: usize,
    /// Component-size ceiling, as [`Permanent`]'s domain ceiling.
    pub cap: usize,
}

impl Estimator for LadderExact {
    fn name(&self) -> &'static str {
        "ladder-exact"
    }

    fn applies_to(&self, inst: &Instance) -> bool {
        let cap = self.cap.min(MAX_PERMANENT_N);
        inst.validate().is_ok()
            && inst.graph().is_ok_and(|g| {
                g.components()
                    .map_or(inst.n() <= cap, |c| c.largest() <= cap)
            })
    }

    fn estimate(&self, inst: &Instance) -> Result<Estimate, OracleError> {
        let graph = inst.graph()?;
        let budget = Budget::unlimited();
        let threads = self.threads.max(1);
        let probs =
            andi_graph::crack_probabilities_per_component(&graph, self.cap, threads, &budget)
                .map_err(|e| match e {
                    andi_graph::ExactError::EmptyMappingSpace => {
                        OracleError::Core(andi_core::Error::EmptyMappingSpace)
                    }
                    other => OracleError::Invalid(format!("budgeted permanent failed: {other}")),
                })?;
        Ok(exact_sum(&probs, inst))
    }
}

/// Exact crack probabilities from the convex deadline-profile DP
/// ([`crate::convex`]), summed over the whole domain or the
/// instance's mask. It applies to every valid instance and declines
/// by its own work: a window too wide to pack or a spent state budget
/// is [`OracleError::NotApplicable`].
pub struct ConvexDp {
    /// DP state budget (and, ×16, transition-work budget) per
    /// permanent; spending it is a decline.
    pub max_states: usize,
}

impl Default for ConvexDp {
    fn default() -> Self {
        ConvexDp {
            max_states: DEFAULT_STATE_BUDGET,
        }
    }
}

impl Estimator for ConvexDp {
    fn name(&self) -> &'static str {
        "convex-dp"
    }

    fn applies_to(&self, inst: &Instance) -> bool {
        inst.validate().is_ok()
    }

    fn estimate(&self, inst: &Instance) -> Result<Estimate, OracleError> {
        match convex_exact(&inst.graph()?, self.max_states) {
            Ok(exact) => Ok(exact_sum(&exact.probabilities, inst)),
            Err(ConvexError::WindowTooWide { .. } | ConvexError::BudgetExceeded { .. }) => {
                Err(OracleError::NotApplicable("convex-dp"))
            }
            Err(ConvexError::NoPerfectMatching | ConvexError::UnmatchableItem { .. }) => {
                Err(OracleError::Core(andi_core::Error::EmptyMappingSpace))
            }
        }
    }
}

/// The swap-walk matching sampler's empirical mean, whole domain
/// only (the sampler reports totals, not masked subsets).
pub struct SwapSampler {
    /// Walk schedule.
    pub config: SamplerConfig,
    /// Deterministic stream seed.
    pub rng_seed: u64,
    /// Worker threads (the sharded sampler is bit-identical across
    /// thread counts).
    pub threads: usize,
    /// Domain-size ceiling keeping mixing honest in sweeps.
    pub cap: usize,
}

impl SwapSampler {
    /// The sweep default: the quick schedule at a fixed stream seed.
    pub fn sweep(threads: usize) -> Self {
        SwapSampler {
            config: SamplerConfig::quick(),
            rng_seed: 0xD15C_105E,
            threads,
            cap: 9,
        }
    }
}

impl Estimator for SwapSampler {
    fn name(&self) -> &'static str {
        "swap-sampler"
    }

    fn applies_to(&self, inst: &Instance) -> bool {
        inst.mask.is_none() && inst.validate().is_ok() && inst.n() <= self.cap
    }

    fn estimate(&self, inst: &Instance) -> Result<Estimate, OracleError> {
        let graph = inst.graph()?;
        let n = graph.n();
        let seed = if (0..n).all(|i| graph.has_edge(i, i)) {
            Matching::identity(n)
        } else {
            graph.greedy_matching()
        };
        if seed.size() < n {
            return Err(OracleError::Core(andi_core::Error::EmptyMappingSpace));
        }
        let samples = andi_graph::sample_cracks_budgeted(
            &graph,
            &seed,
            &self.config,
            self.rng_seed,
            self.threads.max(1),
            &Budget::unlimited(),
        )
        .map_err(|e| OracleError::Core(andi_core::Error::Sampler(e.to_string())))?;
        let n_samples = self.config.n_samples.max(1);
        Ok(Estimate {
            value: samples.mean(),
            confidence: Confidence::Stochastic {
                std_err: samples.std_dev() / (n_samples as f64).sqrt(),
                n_samples,
            },
        })
    }
}

/// The O-estimate, a provable lower bound on the expectation
/// (masked via Lemma 10's per-item decomposition when the instance
/// carries a mask).
pub struct OEstimate {
    /// Whether to run the degree-propagation sharpening first.
    pub propagated: bool,
}

impl Estimator for OEstimate {
    fn name(&self) -> &'static str {
        if self.propagated {
            "o-estimate-propagated"
        } else {
            "o-estimate-plain"
        }
    }

    fn applies_to(&self, inst: &Instance) -> bool {
        inst.validate().is_ok()
    }

    fn estimate(&self, inst: &Instance) -> Result<Estimate, OracleError> {
        let graph = inst.graph()?;
        let profile = if self.propagated {
            OutdegreeProfile::propagated(&graph)?
        } else {
            OutdegreeProfile::plain(&graph)
        };
        let value = match &inst.mask {
            None => profile.oestimate(),
            Some(mask) => profile.oestimate_masked(mask)?,
        };
        Ok(Estimate {
            value,
            confidence: Confidence::LowerBound,
        })
    }
}

/// The default estimator battery the differential engine sweeps.
pub fn default_estimators(threads: usize, exact_cap: usize) -> Vec<Box<dyn Estimator>> {
    vec![
        Box::new(ConvexDp::default()),
        Box::new(ClosedForm),
        Box::new(Permanent { cap: exact_cap }),
        Box::new(LadderExact {
            threads,
            cap: exact_cap,
        }),
        Box::new(OEstimate { propagated: false }),
        Box::new(OEstimate { propagated: true }),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::Regime;

    fn bigmart_point() -> Instance {
        Instance {
            label: "unit:bigmart-point".into(),
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
            mask: None,
        }
    }

    #[test]
    fn closed_form_point_valued_counts_groups() {
        let inst = bigmart_point();
        assert!(ClosedForm.applies_to(&inst));
        let e = ClosedForm.estimate(&inst).unwrap();
        assert_eq!(e.value, 3.0);
        assert_eq!(e.confidence, Confidence::Exact);
    }

    #[test]
    fn closed_form_honors_masks() {
        let mut inst = bigmart_point();
        // Items 0 (in the size-4 group) and 1 (its own group):
        // Lemma 4 gives 1/4 + 1 = 1.25.
        inst.mask = Some(vec![true, true, false, false, false, false]);
        let e = ClosedForm.estimate(&inst).unwrap();
        assert!((e.value - 1.25).abs() < 1e-12);

        // Ignorant masked: Lemma 2 gives n1/n.
        let ign = Instance {
            intervals: vec![(0.0, 1.0); 6],
            ..inst
        };
        let e = ClosedForm.estimate(&ign).unwrap();
        assert!((e.value - 2.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn permanent_agrees_with_closed_form_on_bigmart() {
        let inst = bigmart_point();
        let p = Permanent::default().estimate(&inst).unwrap();
        assert!((p.value - 3.0).abs() < 1e-9);
        let l = LadderExact {
            threads: 2,
            cap: 11,
        }
        .estimate(&inst)
        .unwrap();
        assert_eq!(l.value, p.value, "ladder exact rung is bit-identical");
    }

    #[test]
    fn convex_dp_recovers_lemma_3_and_declines_without_failing() {
        let inst = bigmart_point();
        let c = ConvexDp::default().estimate(&inst).unwrap();
        assert_eq!(c.confidence, Confidence::Exact);
        assert!((c.value - 3.0).abs() < 1e-12, "{}", c.value);
        // A spent state budget is a decline, not a failure.
        assert_eq!(
            ConvexDp { max_states: 0 }.estimate(&inst),
            Err(OracleError::NotApplicable("convex-dp"))
        );
    }

    #[test]
    fn oe_is_a_lower_bound_on_bigmart_h() {
        let inst = Instance {
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
        };
        let oe = OEstimate { propagated: false }.estimate(&inst).unwrap();
        assert_eq!(oe.confidence, Confidence::LowerBound);
        let exact = Permanent::default().estimate(&inst).unwrap();
        assert!((exact.value - 1.8125).abs() < 1e-9);
        assert!(oe.value <= exact.value + 1e-9);
    }

    #[test]
    fn infeasible_instances_error_consistently() {
        // Two items both claiming the singleton 0.2-frequency slot.
        let inst = Instance {
            label: "unit:infeasible".into(),
            regime: Regime::NearDegenerate,
            supports: vec![2, 4, 6],
            m: 10,
            intervals: vec![(0.2, 0.2), (0.2, 0.2), (0.6, 0.6)],
            mask: None,
        };
        let p = Permanent::default().estimate(&inst);
        assert_eq!(
            p,
            Err(OracleError::Core(andi_core::Error::EmptyMappingSpace))
        );
        let s = SwapSampler::sweep(1).estimate(&inst);
        assert_eq!(
            s,
            Err(OracleError::Core(andi_core::Error::EmptyMappingSpace))
        );
        let c = ConvexDp::default().estimate(&inst);
        assert_eq!(
            c,
            Err(OracleError::Core(andi_core::Error::EmptyMappingSpace))
        );
    }

    #[test]
    fn sampler_tracks_the_permanent_on_bigmart_h() {
        let inst = Instance {
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
        };
        let s = SwapSampler::sweep(2).estimate(&inst).unwrap();
        let Confidence::Stochastic { std_err, n_samples } = s.confidence else {
            panic!("sampler must report stochastic confidence");
        };
        assert!(n_samples > 0 && std_err >= 0.0);
        assert!((s.value - 1.8125).abs() < 0.25, "mean {}", s.value);
        // Identical seed, different thread count: bit-identical.
        let again = SwapSampler::sweep(4).estimate(&inst).unwrap();
        assert_eq!(again.value, s.value);
    }
}
