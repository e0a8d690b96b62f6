//! The Assess-Risk recipe (Section 6, Figure 8).
//!
//! The data owner's decision procedure:
//!
//! 1. compute `g`, the Lemma 3 expected cracks under the compliant
//!    point-valued belief function; disclose if `g <= τ·n`;
//! 2. otherwise widen to the compliant interval belief function with
//!    half-width `δ_med` (the median frequency-group gap) and
//!    disclose if its O-estimate is within tolerance;
//! 3. otherwise find the largest degree of compliancy `α_max` whose
//!    masked O-estimate stays within tolerance — the owner then
//!    judges whether a hacker could plausibly guess that fraction of
//!    intervals correctly.
//!
//! Section 6.2 anchors α by averaging the masked O-estimate
//! `Σ_{x∈C} p_x` over random compliant subsets `C`. The `p_x` are
//! fixed before any subset is drawn, so the mean over a uniform
//! subset of `c` of the `n` items is exactly `c·Σp/n`: each item is
//! compliant with probability `c/n`. The recipe and both Figure 11
//! curves use that limit of the averaging instead of sampling it, on
//! integer compliant-item counts: `α_max = c*/n` for the largest count
//! `c*` within tolerance.

use andi_data::FrequencyGroups;
use andi_graph::exact::ExactError;
use andi_graph::par::{Budget, ExecError};
use andi_graph::sampler::SamplerConfig;
use andi_graph::{GroupedBigraph, Matching, SamplerError};

use crate::belief::BeliefFunction;
use crate::error::{Error, Result};
use crate::oestimate::OutdegreeProfile;
use crate::report::{Provenance, Rung};

/// Number of compliant items for a degree of compliancy `alpha` over
/// a domain of `n` items: `round(alpha·n)`, clamped to `[0, n]`.
///
/// This is *the* α→count quantization used everywhere the recipe
/// anchors a fractional degree of compliancy to a compliant-item
/// count (the α search works on these integer counts directly, so the
/// two directions agree). Round-half-up at the midpoints:
/// `compliant_count(0.25, 6) = 2` (1.5 rounds away from zero).
///
/// Negative or NaN `alpha` clamps to 0; `alpha > 1` clamps to `n`.
pub fn compliant_count(alpha: f64, n: usize) -> usize {
    let scaled = (alpha * n as f64).round();
    if scaled.is_nan() || scaled <= 0.0 {
        0
    } else {
        (scaled as usize).min(n)
    }
}

/// Tuning knobs for [`assess_risk`] and [`assess_risk_budgeted`].
#[derive(Clone, Copy, Debug)]
pub struct RecipeConfig {
    /// The owner's degree of tolerance `τ`: the acceptable expected
    /// fraction of cracked items.
    pub tolerance: f64,
    /// The sampler rung's RNG seed.
    pub seed: u64,
    /// Swap-walk schedule for the matching-sampler rung of the
    /// budgeted degradation ladder (read by
    /// [`ladder_crack_probabilities`] — the ladder `andi-serve` runs —
    /// and so by [`assess_risk_budgeted`]).
    pub sampler_schedule: SamplerConfig,
}

impl Default for RecipeConfig {
    fn default() -> Self {
        RecipeConfig {
            tolerance: 0.1,
            seed: 0xA55E55,
            sampler_schedule: SamplerConfig::quick(),
        }
    }
}

/// The recipe's verdict.
#[derive(Clone, Debug, PartialEq)]
pub enum RiskDecision {
    /// Step 2: even a point-valued-compliant hacker cracks at most
    /// `τ·n` items in expectation — disclose.
    DiscloseAtPointValued,
    /// Step 7: the δ_med interval O-estimate is within tolerance —
    /// disclose.
    DiscloseAtFullCompliance,
    /// Steps 8–10: full compliance exceeds tolerance; the owner must
    /// judge whether `α_max` is comfortably high.
    AlphaMax {
        /// Largest degree of compliancy within tolerance.
        alpha_max: f64,
        /// The masked O-estimate at `α_max` (in items): `c*·Σp/n` for
        /// `c* = α_max·n` compliant items.
        oestimate_at_alpha: f64,
    },
}

/// Full transcript of a recipe run.
#[derive(Clone, Debug)]
pub struct RiskAssessment {
    /// Domain size `n`.
    pub n_items: usize,
    /// The tolerance used.
    pub tolerance: f64,
    /// Lemma 3 `g`: expected cracks under point-valued compliance.
    pub point_valued_cracks: f64,
    /// The interval half-width `δ_med` (median group gap; 0 when the
    /// data has a single frequency group).
    pub delta_med: f64,
    /// O-estimate of the `δ_med`-widened compliant belief function.
    pub full_compliance_oe: f64,
    /// The verdict.
    pub decision: RiskDecision,
}

impl RiskAssessment {
    /// Whether the recipe recommends disclosure outright (steps 2/7).
    pub fn discloses(&self) -> bool {
        matches!(
            self.decision,
            RiskDecision::DiscloseAtPointValued | RiskDecision::DiscloseAtFullCompliance
        )
    }

    /// `α_max` if the recipe reached the binary search.
    pub fn alpha_max(&self) -> Option<f64> {
        match self.decision {
            RiskDecision::AlphaMax { alpha_max, .. } => Some(alpha_max),
            _ => None,
        }
    }
}

/// The transcript `andi assess` prints: one `label : value` line per
/// field, without a trailing newline.
impl std::fmt::Display for RiskAssessment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "domain size n           : {}", self.n_items)?;
        writeln!(f, "tolerance tau           : {}", self.tolerance)?;
        writeln!(
            f,
            "budget tau*n            : {:.2}",
            self.tolerance * self.n_items as f64
        )?;
        writeln!(
            f,
            "point-valued cracks (g) : {:.0}",
            self.point_valued_cracks
        )?;
        writeln!(f, "delta_med               : {:.6}", self.delta_med)?;
        writeln!(
            f,
            "full-compliance OE      : {:.2}",
            self.full_compliance_oe
        )?;
        match &self.decision {
            RiskDecision::DiscloseAtPointValued => write!(
                f,
                "verdict                 : DISCLOSE (safe even against exact frequencies)"
            ),
            RiskDecision::DiscloseAtFullCompliance => write!(
                f,
                "verdict                 : DISCLOSE (interval knowledge within tolerance)"
            ),
            RiskDecision::AlphaMax {
                alpha_max,
                oestimate_at_alpha,
            } => {
                writeln!(f, "verdict                 : JUDGEMENT CALL")?;
                writeln!(f, "alpha_max               : {alpha_max:.3}")?;
                writeln!(f, "OE at alpha_max         : {oestimate_at_alpha:.2}")?;
                write!(
                    f,
                    "reading                 : a hacker must guess the frequency interval of \
                     {:.0}% of items correctly to crack more than tolerated",
                    alpha_max * 100.0
                )
            }
        }
    }
}

/// Runs Assess-Risk (Figure 8) on an observed support profile.
///
/// Step 6 reads the O-estimate's per-item crack probabilities (with
/// the Figure 7 refinement); for the exact
/// expectation run [`assess_risk_budgeted`] on
/// [`Budget::unlimited`]. The answer is a pure function of the
/// inputs: no step draws a random number or depends on the worker
/// count.
///
/// # Examples
///
/// ```
/// use andi_core::{assess_risk, RecipeConfig, RiskDecision};
///
/// let supports = [5u64, 4, 5, 5, 3, 5]; // BigMart, m = 10
///
/// // Generous tolerance: g = 3 <= 0.6 * 6, disclose right away.
/// let relaxed = assess_risk(&supports, 10, &RecipeConfig {
///     tolerance: 0.6, ..RecipeConfig::default()
/// }).unwrap();
/// assert_eq!(relaxed.decision, RiskDecision::DiscloseAtPointValued);
///
/// // Tight tolerance: the recipe reports how much the hacker would
/// // need to know.
/// let strict = assess_risk(&supports, 10, &RecipeConfig {
///     tolerance: 0.1, ..RecipeConfig::default()
/// }).unwrap();
/// assert!(strict.alpha_max().is_some());
/// ```
///
/// # Errors
///
/// Rejects `τ` outside `(0, 1]`, an empty profile, or an empty
/// mapping space after propagation.
pub fn assess_risk(
    supports: &[u64],
    n_transactions: u64,
    config: &RecipeConfig,
) -> Result<RiskAssessment> {
    let (assessment, ()) = figure8(supports, n_transactions, config, |graph| {
        oe_probabilities(graph).map(|probs| ((), probs))
    })?;
    Ok(assessment)
}

/// A budgeted assessment: the ordinary transcript plus the
/// provenance of the crack-probability estimate behind it — which
/// rung of the degradation ladder answered, every rung that tripped
/// on the way down, and the budget spent.
#[derive(Clone, Debug)]
pub struct BudgetedAssessment {
    /// The Assess-Risk transcript, same shape as [`assess_risk`]'s.
    pub assessment: RiskAssessment,
    /// Where the numbers came from.
    pub provenance: Provenance,
}

impl BudgetedAssessment {
    /// Whether a rung below exact-permanent answered.
    pub fn is_degraded(&self) -> bool {
        self.provenance.degraded
    }
}

/// The budgeted Assess-Risk recipe on `threads` workers: the same
/// Figure 8 body as [`assess_risk`], but step 6 takes its crack
/// probabilities from the graceful-degradation ladder of
/// [`ladder_crack_probabilities`], which descends one rung each time
/// the budget trips:
///
/// 1. **exact-permanent** — Ryser crack probabilities, one connected
///    component at a time
///    ([`andi_graph::crack_probabilities_per_component`]): the
///    components' walks are priced in subset steps whatever the domain
///    size, and the rung declines, before any walk, when they price
///    above [`andi_graph::exact::EXACT_PRICE_CAP`];
/// 2. **matching-sampler** — the swap-walk's empirical crack
///    frequencies under `config.sampler_schedule`;
/// 3. **o-estimate** — the closed-form estimate; probe-free and
///    unconditional, so the ladder always lands.
///
/// A rung descends on a deadline trip, an isolated worker panic, or
/// (for the exact rung) a priced decline; the returned
/// [`Provenance`] records the answering rung and every trip. The α
/// search after the ladder is closed-form, so it neither polls nor
/// spends the budget.
///
/// # Errors
///
/// Parameter validation as in [`assess_risk`];
/// [`Error::EmptyMappingSpace`] when there is no consistent matching
/// (as [`ladder_crack_probabilities`] finds it); [`Error::Cancelled`]
/// as soon as the [`andi_graph::CancelToken`] fires during the
/// ladder — cancellation aborts the whole run rather than degrading
/// it.
pub fn assess_risk_budgeted(
    supports: &[u64],
    n_transactions: u64,
    config: &RecipeConfig,
    budget: &Budget,
    threads: usize,
) -> Result<BudgetedAssessment> {
    let (assessment, provenance) = figure8(supports, n_transactions, config, |graph| {
        ladder_crack_probabilities(graph, config, threads, budget)
    })?;
    Ok(BudgetedAssessment {
        assessment,
        provenance,
    })
}

/// The one Figure 8 body behind [`assess_risk`] and
/// [`assess_risk_budgeted`]: validation, steps 1–5, step 6 through
/// `step6` (which returns its own record next to the per-item crack
/// probabilities), the verdict, and the α search.
fn figure8<T>(
    supports: &[u64],
    n_transactions: u64,
    config: &RecipeConfig,
    step6: impl FnOnce(&GroupedBigraph) -> Result<(T, Vec<f64>)>,
) -> Result<(RiskAssessment, T)> {
    if !(config.tolerance > 0.0 && config.tolerance <= 1.0) {
        return Err(Error::InvalidParameter(format!(
            "tolerance must be in (0, 1], got {}",
            config.tolerance
        )));
    }
    if supports.is_empty() {
        return Err(Error::InvalidParameter("empty support profile".into()));
    }
    let n = supports.len();
    let tol_budget = config.tolerance * n as f64;

    // Steps 1-2: Lemma 3.
    let groups = FrequencyGroups::from_supports(supports, n_transactions);
    let g = groups.n_groups() as f64;

    // Steps 3-5: δ_med-widened compliant interval belief function.
    let (delta_med, belief) = BeliefFunction::delta_med_compliant(&groups)?;
    let graph = belief.build_graph(supports, n_transactions);

    // Step 6: per-item crack probabilities.
    let (record, probs) = step6(&graph)?;
    let full_oe: f64 = probs.iter().sum();

    let decision = if g <= tol_budget {
        RiskDecision::DiscloseAtPointValued
    } else if full_oe <= tol_budget {
        // Step 7.
        RiskDecision::DiscloseAtFullCompliance
    } else {
        // Steps 8-9: the largest compliant-item count c* whose masked
        // OE fits the budget. The masked OE grows with c, and c = 0
        // always fits.
        let c = (0..=n)
            .rev()
            .find(|&c| masked_oestimate(c, n, full_oe) <= tol_budget)
            .unwrap_or(0);
        RiskDecision::AlphaMax {
            alpha_max: c as f64 / n as f64,
            oestimate_at_alpha: masked_oestimate(c, n, full_oe),
        }
    };

    let assessment = RiskAssessment {
        n_items: n,
        tolerance: config.tolerance,
        point_valued_cracks: g,
        delta_med,
        full_compliance_oe: full_oe,
        decision,
    };
    Ok((assessment, record))
}

/// Runs the degradation ladder directly on a caller-supplied belief
/// graph, returning the answering rung's per-item crack
/// probabilities together with the full [`Provenance`] record.
///
/// This is the ladder of [`assess_risk_budgeted`] detached from the
/// Figure 8 pipeline: the caller keeps control of the belief (it
/// need not be the `δ_med`-widened compliant one), which makes every
/// rung — including the [`Error::EmptyMappingSpace`] abort — directly
/// reachable. The conformance oracle, the `andi assess --belief` CLI
/// path and `andi-serve` drive it this way.
///
/// The exact rung answers whenever its walks price at most
/// [`andi_graph::exact::EXACT_PRICE_CAP`] subset steps, whatever the
/// domain size: each connected component `C` runs Ryser on its own,
/// and an item is cracked with probability `perm(C minus x) / perm(C)`
/// inside it. One component of 18 items with every crack edge prices
/// exactly at the cap, so no graph of at most 18 items prices above
/// it; where the price passes on a graph of at most
/// [`andi_graph::MAX_PERMANENT_N`] items, the answer is
/// [`andi_graph::crack_probabilities`] of the dense graph, bit for
/// bit. A costlier graph declines before any walk, and the sampler
/// answers unless the deadline trips it too. The price is a constant,
/// so the rung choice depends only on the graph. The sampler rung
/// starts from [`GroupedBigraph::walk_seed`], and the floor
/// propagates over the frequency groups, so no rung builds a dense
/// graph of the whole domain.
///
/// # Errors
///
/// [`Error::EmptyMappingSpace`] when no consistent matching exists,
/// at any size and whichever rung would answer: the exact rung's
/// component split proves it (an item without candidates, a frequency
/// group no interval covers, or a component whose sides differ), or a
/// zero permanent does inside a component, or, once the exact rung
/// declines or trips, the sampler's seed matching is not perfect.
/// [`Error::Cancelled`] when the budget's cancel token fires.
pub fn ladder_crack_probabilities(
    graph: &GroupedBigraph,
    config: &RecipeConfig,
    threads: usize,
    budget: &Budget,
) -> Result<(Provenance, Vec<f64>)> {
    let mut trips: Vec<(Rung, Error)> = Vec::new();
    let (rung, probs) = ladder_probabilities(graph, config, threads, budget, &mut trips)?;
    Ok((
        Provenance {
            rung,
            degraded: rung != Rung::Exact,
            trips,
            budget_ms: budget.limit_ms(),
            spent_ms: budget.spent().as_millis(),
        },
        probs,
    ))
}

/// Walks the degradation ladder top-down and returns the first rung
/// that produced per-item crack probabilities, recording every trip.
///
/// Cancellation and a provably empty mapping space abort instead of
/// degrading (the lower rungs could not answer either meaningfully).
fn ladder_probabilities(
    graph: &GroupedBigraph,
    config: &RecipeConfig,
    threads: usize,
    budget: &Budget,
    trips: &mut Vec<(Rung, Error)>,
) -> Result<(Rung, Vec<f64>)> {
    // Rung 1: exact crack probabilities, Ryser per connected
    // component, priced before any walk.
    if let Some(p) = exact_rung(graph, threads, budget, trips)? {
        return Ok((Rung::Exact, p));
    }

    // Rung 2: the swap-walk sampler's empirical crack frequencies.
    match andi_graph::sample_crack_probabilities_budgeted(
        graph,
        &seed_matching(graph)?,
        &config.sampler_schedule,
        config.seed,
        threads,
        budget,
    ) {
        Ok(p) => return Ok((Rung::Sampler, p)),
        Err(SamplerError::Interrupted(ExecError::Cancelled)) => return Err(Error::Cancelled),
        Err(SamplerError::Interrupted(e)) => trips.push((Rung::Sampler, e.into())),
        Err(e) => trips.push((Rung::Sampler, Error::Sampler(e.to_string()))),
    }

    // Rung 3: the O-estimate floor — probe-free and unconditional.
    Ok((Rung::OEstimate, oe_probabilities(graph)?))
}

/// Rung 1 of the ladder
/// ([`andi_graph::crack_probabilities_per_component`]): `None` once
/// its trip (a priced decline, a deadline or a worker panic) is
/// recorded in `trips`. An empty mapping space and a fired
/// cancel token are errors.
fn exact_rung(
    graph: &GroupedBigraph,
    threads: usize,
    budget: &Budget,
    trips: &mut Vec<(Rung, Error)>,
) -> Result<Option<Vec<f64>>> {
    let trip = match andi_graph::crack_probabilities_per_component(graph, threads, budget) {
        Ok(p) => return Ok(Some(p)),
        Err(ExactError::EmptyMappingSpace) => return Err(Error::EmptyMappingSpace),
        Err(ExactError::Interrupted(ExecError::Cancelled)) => return Err(Error::Cancelled),
        Err(ExactError::TooCostly { price, cap }) => Error::TooCostly { price, cap },
        Err(ExactError::Interrupted(e)) => e.into(),
    };
    trips.push((Rung::Exact, trip));
    Ok(None)
}

/// The sampler's seed matching, [`GroupedBigraph::walk_seed`], which
/// is a maximum matching. So when the seed is not perfect, no
/// consistent matching exists: [`Error::EmptyMappingSpace`].
fn seed_matching(graph: &GroupedBigraph) -> Result<Matching> {
    let seed = graph.walk_seed();
    seed.is_perfect()
        .then_some(seed)
        .ok_or(Error::EmptyMappingSpace)
}

/// One point of the Figure 11 compliancy curve.
#[derive(Clone, Copy, Debug)]
pub struct CompliancyPoint {
    /// Degree of compliancy probed.
    pub alpha: f64,
    /// Masked O-estimate, in items.
    pub oestimate: f64,
    /// The same as a fraction of the domain (Figure 11's y-axis).
    pub fraction: f64,
}

impl CompliancyPoint {
    /// The point at `alpha` over `n` items whose per-item masked terms
    /// sum to `total`.
    fn at(alpha: f64, n: usize, total: f64) -> Self {
        let oestimate = masked_oestimate(compliant_count(alpha, n), n, total);
        CompliancyPoint {
            alpha,
            oestimate,
            fraction: oestimate / n as f64,
        }
    }
}

/// Sweeps the α grid of Figure 11 over per-item crack probabilities
/// from any estimator (an [`OutdegreeProfile::probabilities`], the
/// exact per-component marginals, …): the point at α is `c·Σp/n` for
/// `c = compliant_count(α, n)`, the mean masked sum over the compliant
/// subsets of `c` items.
///
/// [`OutdegreeProfile::probabilities`]: crate::oestimate::OutdegreeProfile::probabilities
pub fn compliancy_curve(probs: &[f64], alphas: &[f64]) -> Vec<CompliancyPoint> {
    let total: f64 = probs.iter().sum();
    alphas
        .iter()
        .map(|&alpha| CompliancyPoint::at(alpha, probs.len(), total))
        .collect()
}

/// The decoy-corrected compliancy curve.
///
/// The §5.3 masked O-estimate `Σ_{x∈I_C} 1/O_x` is *linear* in α —
/// but simulation shows the true curve is super-linear, exactly as
/// the paper's Figure 11 reports. The mechanism: a non-compliant
/// item's wrong interval still lays claim to whatever anonymized
/// items it happens to cover, so compliant items face *decoy
/// competition* for their own anonymized counterparts. Modeling
/// wrong intervals as uniformly placed with mean width `w̄`, each
/// anonymized item attracts `(1-α)·n·w̄` expected decoy claimants,
/// and the crack probability of a compliant item becomes
/// `1/(O_x + (1-α)·n·w̄)` instead of `1/O_x`. At `α = 1` this
/// reduces to the ordinary O-estimate.
///
/// `mean_width` is the average belief-interval width the hacker is
/// assumed to use (the recipe's `2·δ_med`). Like
/// [`compliancy_curve`], the point at α is `(c/n)·Σ_x t_x` with the
/// decoy-corrected terms `t_x`, one pass over the items per α.
pub fn compliancy_curve_decoy(
    graph: &GroupedBigraph,
    mean_width: f64,
    alphas: &[f64],
) -> Vec<CompliancyPoint> {
    let n = graph.n();
    let outdegrees = graph.outdegrees();
    alphas
        .iter()
        .map(|&alpha| {
            let decoys = (1.0 - alpha).max(0.0) * n as f64 * mean_width.clamp(0.0, 1.0);
            // Only items whose crack edge exists can be cracked;
            // O_x = 0 items are unmatchable anyway.
            let total: f64 = (0..n)
                .filter(|&x| graph.crack_edge_exists(x) && outdegrees[x] > 0)
                .map(|x| 1.0 / (outdegrees[x] as f64 + decoys))
                .sum();
            CompliancyPoint::at(alpha, n, total)
        })
        .collect()
}

/// Crack probabilities via the O-estimate path: the outdegree profile
/// of `graph` after Figure 7 propagation. Built once per assessment;
/// the α search reuses the returned vector.
fn oe_probabilities(graph: &GroupedBigraph) -> Result<Vec<f64>> {
    Ok(OutdegreeProfile::propagated(graph)?.probabilities())
}

/// The masked O-estimate `Σ_{x∈C} p_x` averaged over every compliant
/// subset `C` of `c` of the `n` items, whose per-item terms `p_x` sum
/// to `total`. Each item is in `C` with probability `c/n`, so by
/// linearity the mean is `c·total/n` — the limit of Section 6.2's
/// averaging over random compliant subsets. It grows with `c`.
fn masked_oestimate(c: usize, n: usize, total: f64) -> f64 {
    // An empty domain has only c = 0, and nothing to crack.
    c as f64 * total / n.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    const BIGMART_SUPPORTS: [u64; 6] = [5, 4, 5, 5, 3, 5];

    fn config(tau: f64) -> RecipeConfig {
        RecipeConfig {
            tolerance: tau,
            seed: 99,
            ..RecipeConfig::default()
        }
    }

    #[test]
    fn compliant_count_boundaries() {
        // The four α boundaries the recipe actually probes, across a
        // spread of domain sizes (including sizes where alpha*n lands
        // exactly on .5 and where 1/n is not representable exactly).
        for n in [1usize, 2, 3, 6, 7, 10, 97, 1000] {
            let inv = 1.0 / n as f64;
            assert_eq!(compliant_count(0.0, n), 0, "alpha = 0, n = {n}");
            assert_eq!(compliant_count(inv, n), 1, "alpha = 1/n, n = {n}");
            assert_eq!(
                compliant_count(1.0 - inv, n),
                n - 1,
                "alpha = 1 - 1/n, n = {n}"
            );
            assert_eq!(compliant_count(1.0, n), n, "alpha = 1, n = {n}");
        }
        // Rounding, not truncation: 0.25 * 6 = 1.5 rounds up.
        assert_eq!(compliant_count(0.25, 6), 2);
        // Just below a half-step stays down.
        assert_eq!(compliant_count(0.24, 6), 1);
        // Degenerate inputs clamp instead of wrapping or panicking.
        assert_eq!(compliant_count(-0.5, 10), 0);
        assert_eq!(compliant_count(1.5, 10), 10);
        assert_eq!(compliant_count(f64::NAN, 10), 0);
        assert_eq!(compliant_count(0.5, 0), 0);
    }

    #[test]
    fn generous_tolerance_discloses_at_point_valued() {
        // g = 3, n = 6: τ = 0.6 gives budget 3.6 >= 3.
        let a = assess_risk(&BIGMART_SUPPORTS, 10, &config(0.6)).unwrap();
        assert_eq!(a.decision, RiskDecision::DiscloseAtPointValued);
        assert!(a.discloses());
        assert_eq!(a.point_valued_cracks, 3.0);
        assert_eq!(a.alpha_max(), None);
    }

    #[test]
    fn tight_tolerance_reaches_alpha_search() {
        let a = assess_risk(&BIGMART_SUPPORTS, 10, &config(0.1)).unwrap();
        assert!(!a.discloses());
        let alpha = a.alpha_max().expect("must reach the binary search");
        assert!((0.0..1.0).contains(&alpha), "alpha_max = {alpha}");
        match a.decision {
            RiskDecision::AlphaMax {
                oestimate_at_alpha, ..
            } => {
                assert!(oestimate_at_alpha <= 0.1 * 6.0 + 1e-12);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn mid_tolerance_may_disclose_at_full_compliance() {
        // Find a τ between OE/n and g/n: OE with δ_med = .1 on
        // BigMart is below g = 3 by monotonicity.
        let a = assess_risk(&BIGMART_SUPPORTS, 10, &config(0.45)).unwrap();
        // Budget = 2.7 < g = 3; decision depends on OE; whatever it
        // is, the transcript must be internally consistent.
        if a.discloses() {
            assert!(a.full_compliance_oe <= 2.7 + 1e-12);
            assert_eq!(a.decision, RiskDecision::DiscloseAtFullCompliance);
        } else {
            assert!(a.full_compliance_oe > 2.7);
        }
    }

    #[test]
    fn delta_med_is_the_median_gap() {
        let a = assess_risk(&BIGMART_SUPPORTS, 10, &config(0.1)).unwrap();
        assert!((a.delta_med - 0.1).abs() < 1e-12);
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(assess_risk(&BIGMART_SUPPORTS, 10, &config(0.0)).is_err());
        assert!(assess_risk(&BIGMART_SUPPORTS, 10, &config(1.5)).is_err());
        assert!(assess_risk(&[], 10, &config(0.1)).is_err());
    }

    #[test]
    fn alpha_max_monotone_in_tolerance() {
        let strict = assess_risk(&BIGMART_SUPPORTS, 10, &config(0.05)).unwrap();
        let loose = assess_risk(&BIGMART_SUPPORTS, 10, &config(0.2)).unwrap();
        let a1 = strict.alpha_max().unwrap_or(1.0);
        let a2 = loose.alpha_max().unwrap_or(1.0);
        assert!(a1 <= a2 + 1e-12, "alpha_max must grow with tolerance");
    }

    #[test]
    fn compliancy_curve_is_monotone_and_anchored() {
        let freqs: Vec<f64> = BIGMART_SUPPORTS.iter().map(|&s| s as f64 / 10.0).collect();
        let belief = BeliefFunction::widened(&freqs, 0.1).unwrap();
        let graph = belief.build_graph(&BIGMART_SUPPORTS, 10);
        let profile = OutdegreeProfile::plain(&graph);
        let alphas: Vec<f64> = (0..=10).map(|k| k as f64 / 10.0).collect();
        let curve = compliancy_curve(&profile.probabilities(), &alphas);
        assert_eq!(curve.len(), 11);
        assert_eq!(curve[0].oestimate, 0.0, "alpha 0 cracks nothing");
        assert!(
            (curve[10].oestimate - profile.oestimate()).abs() < 1e-12,
            "alpha 1 recovers the full OE"
        );
        for w in curve.windows(2) {
            assert!(
                w[0].oestimate <= w[1].oestimate + 1e-12,
                "curve must be non-decreasing"
            );
        }
    }

    #[test]
    fn decoy_curve_is_superlinear_and_anchored() {
        let freqs: Vec<f64> = BIGMART_SUPPORTS.iter().map(|&s| s as f64 / 10.0).collect();
        let belief = BeliefFunction::widened(&freqs, 0.1).unwrap();
        let graph = belief.build_graph(&BIGMART_SUPPORTS, 10);
        let alphas: Vec<f64> = (0..=10).map(|k| k as f64 / 10.0).collect();
        let probs = OutdegreeProfile::plain(&graph).probabilities();
        let plain = compliancy_curve(&probs, &alphas);
        let decoy = compliancy_curve_decoy(&graph, 0.2, &alphas);
        // Anchored at both ends: alpha=0 gives 0; alpha=1 equals the
        // plain O-estimate.
        assert_eq!(decoy[0].oestimate, 0.0);
        assert!((decoy[10].oestimate - plain[10].oestimate).abs() < 1e-9);
        // Strictly below the linear curve in the interior (the
        // super-linearity the simulation exhibits).
        for k in 1..10 {
            assert!(
                decoy[k].oestimate < plain[k].oestimate - 1e-9,
                "alpha {}: decoy {} !< plain {}",
                alphas[k],
                decoy[k].oestimate,
                plain[k].oestimate
            );
        }
        // Monotone in alpha.
        for w in decoy.windows(2) {
            assert!(w[0].oestimate <= w[1].oestimate + 1e-12);
        }
    }

    #[test]
    fn decoy_curve_with_zero_width_is_linear() {
        let freqs: Vec<f64> = BIGMART_SUPPORTS.iter().map(|&s| s as f64 / 10.0).collect();
        let belief = BeliefFunction::widened(&freqs, 0.1).unwrap();
        let graph = belief.build_graph(&BIGMART_SUPPORTS, 10);
        let alphas = [0.0, 0.5, 1.0];
        let decoy = compliancy_curve_decoy(&graph, 0.0, &alphas);
        let probs = OutdegreeProfile::plain(&graph).probabilities();
        let plain = compliancy_curve(&probs, &alphas);
        for (d, p) in decoy.iter().zip(plain.iter()) {
            assert!((d.oestimate - p.oestimate).abs() < 1e-9);
        }
    }

    #[test]
    fn display_covers_all_verdicts() {
        let relaxed = assess_risk(&BIGMART_SUPPORTS, 10, &config(0.6)).unwrap();
        assert!(relaxed.to_string().contains("DISCLOSE"));
        let strict = assess_risk(&BIGMART_SUPPORTS, 10, &config(0.05)).unwrap();
        let text = strict.to_string();
        assert!(text.contains("JUDGEMENT CALL"), "got: {text}");
        assert!(text.contains("alpha_max"));
        assert!(text.contains("delta_med"));
    }

    #[test]
    fn budgeted_unlimited_answers_on_the_exact_rung() {
        let budget = Budget::unlimited();
        let base = assess_risk_budgeted(&BIGMART_SUPPORTS, 10, &config(0.1), &budget, 1).unwrap();
        assert_eq!(base.provenance.rung, Rung::Exact);
        assert!(!base.is_degraded());
        assert!(base.provenance.trips.is_empty());
        assert_eq!(base.provenance.budget_ms, None);

        // The exact rung's full-compliance expectation is the
        // permanent-based truth, not the O-estimate.
        let a = &base.assessment;
        let freqs: Vec<f64> = BIGMART_SUPPORTS.iter().map(|&s| s as f64 / 10.0).collect();
        let belief = BeliefFunction::widened(&freqs, a.delta_med).unwrap();
        let dense = belief.build_graph(&BIGMART_SUPPORTS, 10).to_dense();
        let truth = andi_graph::exact::expected_cracks(&dense).unwrap();
        assert!(
            (a.full_compliance_oe - truth).abs() < 1e-9,
            "exact rung {} vs permanent {truth}",
            a.full_compliance_oe
        );
        // The exact value dominates the heuristic.
        let heuristic = assess_risk(&BIGMART_SUPPORTS, 10, &config(0.1)).unwrap();
        assert!(a.full_compliance_oe >= heuristic.full_compliance_oe - 1e-9);

        // Same numbers and decision at any worker count.
        for threads in 2..=4 {
            let b = assess_risk_budgeted(
                &BIGMART_SUPPORTS,
                10,
                &config(0.1),
                &Budget::unlimited(),
                threads,
            )
            .unwrap();
            assert_eq!(b.provenance.rung, Rung::Exact);
            assert_eq!(
                b.assessment.full_compliance_oe.to_bits(),
                a.full_compliance_oe.to_bits(),
                "t={threads}"
            );
            assert_eq!(b.assessment.decision, a.decision, "t={threads}");
        }
    }

    #[test]
    fn budgeted_zero_budget_degrades_to_the_oestimate_floor() {
        let base = assess_risk_budgeted(
            &BIGMART_SUPPORTS,
            10,
            &config(0.1),
            &Budget::with_deadline(std::time::Duration::ZERO),
            1,
        )
        .unwrap();
        assert_eq!(base.provenance.rung, Rung::OEstimate);
        assert!(base.is_degraded());
        assert_eq!(base.provenance.budget_ms, Some(0));
        let trip_rungs: Vec<Rung> = base.provenance.trips.iter().map(|(r, _)| *r).collect();
        assert_eq!(trip_rungs, vec![Rung::Exact, Rung::Sampler]);
        for (_, err) in &base.provenance.trips {
            assert_eq!(*err, Error::BudgetExceeded { budget_ms: 0 });
        }

        // The floor is the plain recipe's O-estimate path: identical
        // transcript numbers.
        let plain = assess_risk(&BIGMART_SUPPORTS, 10, &config(0.1)).unwrap();
        assert_eq!(
            base.assessment.full_compliance_oe.to_bits(),
            plain.full_compliance_oe.to_bits()
        );
        assert_eq!(base.assessment.decision, plain.decision);

        // Identical structured outcome at any worker count.
        for threads in 2..=4 {
            let b = assess_risk_budgeted(
                &BIGMART_SUPPORTS,
                10,
                &config(0.1),
                &Budget::with_deadline(std::time::Duration::ZERO),
                threads,
            )
            .unwrap();
            assert_eq!(b.provenance.rung, base.provenance.rung, "t={threads}");
            assert_eq!(b.provenance.trips, base.provenance.trips, "t={threads}");
            assert_eq!(
                b.assessment.full_compliance_oe.to_bits(),
                base.assessment.full_compliance_oe.to_bits(),
                "t={threads}"
            );
        }
    }

    #[test]
    fn a_partial_walk_seed_is_an_empty_mapping_space() {
        // Item 0 believes no observed frequency: the walk seed is
        // partial. With the exact rung out of time, the sampler's seed
        // check is what reports the empty space.
        let belief =
            BeliefFunction::from_intervals(vec![(0.9, 1.0), (0.0, 1.0), (0.0, 1.0)]).unwrap();
        let graph = belief.build_graph(&[5, 4, 3], 10);
        assert!(!graph.walk_seed().is_perfect());
        for budget in [
            Budget::unlimited(),
            Budget::with_deadline(std::time::Duration::ZERO),
        ] {
            let err = ladder_crack_probabilities(&graph, &RecipeConfig::default(), 1, &budget)
                .unwrap_err();
            assert_eq!(err, Error::EmptyMappingSpace);
        }
    }

    #[test]
    fn budgeted_cancellation_aborts_instead_of_degrading() {
        let token = andi_graph::CancelToken::new();
        token.cancel();
        let budget = Budget::unlimited().with_token(token);
        for threads in [1, 4] {
            let err = assess_risk_budgeted(&BIGMART_SUPPORTS, 10, &config(0.1), &budget, threads)
                .unwrap_err();
            assert_eq!(err, Error::Cancelled, "t={threads}");
        }
    }

    #[test]
    fn budgeted_rejects_bad_parameters_like_the_plain_recipe() {
        let b = Budget::unlimited();
        assert!(assess_risk_budgeted(&BIGMART_SUPPORTS, 10, &config(0.0), &b, 1).is_err());
        assert!(assess_risk_budgeted(&[], 10, &config(0.1), &b, 1).is_err());
    }
}
