//! Release portfolios: the dilemma as a decision table.
//!
//! The paper's title question — to disclose or not — is rarely
//! binary in practice: the owner chooses *among releases*. This
//! module evaluates a portfolio of candidates side by side:
//!
//! * the **full** anonymized database;
//! * a **sample** (Clifton's proposal, §7.4);
//! * a **sanitized** copy (support rounding — the perturbation
//!   family the paper contrasts);
//! * a **suppressed** release (the advisor's withhold-list applied).
//!
//! Each gets the same scorecard: disclosure risk (Lemma 3's `g`, the
//! δ_med interval O-estimate, crack fraction) and mining utility
//! (F1 of its frequent itemsets against the full data's, plus
//! frequency drift), so both pans of the scale hold numbers.

use andi_core::advisor::suppression_plan;
use andi_core::sanitize::round_supports;
use andi_core::{BeliefFunction, Error, OutdegreeProfile, Result};
use andi_data::sample::sample_fraction;
use andi_data::{builder::project, Database, FrequencyGroups};
use andi_mining::{fpgrowth, MiningResult};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A candidate release to evaluate.
#[derive(Clone, Debug, PartialEq)]
pub enum ReleaseCandidate {
    /// The whole database, anonymized as-is.
    Full,
    /// A random fraction of the transactions.
    Sample {
        /// Fraction of transactions to release, in `(0, 1]`.
        fraction: f64,
    },
    /// Support rounding with the given bucket (see
    /// [`andi_core::sanitize`]).
    Sanitized {
        /// Rounding bucket (1 = identity).
        bucket: u64,
    },
    /// The advisor's suppression plan for the given tolerance,
    /// applied by projecting the withheld items away.
    Suppressed {
        /// Tolerance the plan is built against.
        tolerance: f64,
    },
}

impl ReleaseCandidate {
    fn label(&self) -> String {
        match self {
            ReleaseCandidate::Full => "full".into(),
            ReleaseCandidate::Sample { fraction } => {
                format!("sample {:.0}%", fraction * 100.0)
            }
            ReleaseCandidate::Sanitized { bucket } => format!("rounded /{bucket}"),
            ReleaseCandidate::Suppressed { tolerance } => {
                format!("suppressed @{tolerance}")
            }
        }
    }
}

/// The scorecard of one candidate.
#[derive(Clone, Debug)]
pub struct CandidateReport {
    /// Human-readable candidate label.
    pub label: String,
    /// Items present in the release (with non-zero support).
    pub items_released: usize,
    /// Transactions in the release.
    pub transactions_released: usize,
    /// Lemma 3's `g` on the release.
    pub point_valued_cracks: usize,
    /// δ_med interval O-estimate on the release.
    pub oestimate: f64,
    /// O-estimate over the *original* domain size (comparable across
    /// candidates).
    pub crack_fraction: f64,
    /// F1 of the release's frequent itemsets against the full data's
    /// (support thresholds scaled to the release size).
    pub mining_f1: f64,
}

/// Portfolio evaluation settings.
#[derive(Clone, Copy, Debug)]
pub struct PortfolioConfig {
    /// Absolute support threshold for the utility comparison, on the
    /// full database (scaled proportionally for samples).
    pub min_support: u64,
    /// RNG seed (sampling / sanitization randomness).
    pub seed: u64,
}

impl Default for PortfolioConfig {
    fn default() -> Self {
        PortfolioConfig {
            min_support: 2,
            seed: 0x90_27F0,
        }
    }
}

/// Evaluates every candidate against the same database.
///
/// # Errors
///
/// Propagates candidate-construction failures (bad fractions or
/// buckets) and analysis failures.
pub fn evaluate_portfolio(
    db: &Database,
    candidates: &[ReleaseCandidate],
    config: &PortfolioConfig,
) -> Result<Vec<CandidateReport>> {
    if config.min_support == 0 {
        return Err(Error::InvalidParameter(
            "min_support must be positive".into(),
        ));
    }
    let truth = fpgrowth(db, config.min_support);
    let n_full = db.n_items();

    candidates
        .iter()
        .map(|candidate| {
            let mut rng = StdRng::seed_from_u64(config.seed);
            // Build the released database plus an id map back to the
            // original domain (identity except for suppression).
            let (released, back_map): (Database, Option<Vec<u32>>) = match candidate {
                ReleaseCandidate::Full => (db.clone(), None),
                ReleaseCandidate::Sample { fraction } => {
                    if !(*fraction > 0.0 && *fraction <= 1.0) {
                        return Err(Error::InvalidParameter(format!(
                            "sample fraction {fraction} out of (0, 1]"
                        )));
                    }
                    (sample_fraction(db, *fraction, &mut rng), None)
                }
                ReleaseCandidate::Sanitized { bucket } => {
                    (round_supports(db, *bucket, &mut rng)?.database, None)
                }
                ReleaseCandidate::Suppressed { tolerance } => {
                    let (_, belief) =
                        BeliefFunction::delta_med_compliant(&FrequencyGroups::of_database(db))?;
                    let profile = OutdegreeProfile::plain(
                        &belief.build_graph(&db.supports(), db.n_transactions() as u64),
                    );
                    let plan = suppression_plan(&profile, *tolerance)?;
                    let mut keep = vec![true; n_full];
                    for &x in &plan.suppress {
                        keep[x] = false;
                    }
                    let (projected, kept) = project(db, &keep).map_err(Error::Data)?;
                    (projected, Some(kept))
                }
            };

            // Risk side, on the release itself.
            let supports = released.supports();
            let m = released.n_transactions() as u64;
            let groups = FrequencyGroups::from_supports(&supports, m);
            let (_, belief) = BeliefFunction::delta_med_compliant(&groups)?;
            let profile = OutdegreeProfile::plain(&belief.build_graph(&supports, m));
            let oe = profile.oestimate();

            // Utility side: mine the release, map back, F1 vs truth.
            let scaled_support = match candidate {
                ReleaseCandidate::Sample { fraction } => {
                    ((config.min_support as f64 * fraction).round() as u64).max(1)
                }
                _ => config.min_support,
            };
            let mined = fpgrowth(&released, scaled_support);
            let comparable = match &back_map {
                Some(kept) => {
                    // Projected ids -> original ids.
                    let mut relabel = vec![0u32; released.n_items()];
                    for (new, &old) in kept.iter().enumerate() {
                        relabel[new] = old;
                    }
                    mined.relabel(&relabel)
                }
                None => mined,
            };

            Ok(CandidateReport {
                label: candidate.label(),
                items_released: supports.iter().filter(|&&s| s > 0).count(),
                transactions_released: released.n_transactions(),
                point_valued_cracks: groups.groups.iter().filter(|g| g.support > 0).count(),
                oestimate: oe,
                crack_fraction: oe / n_full as f64,
                mining_f1: f1(&truth, &comparable),
            })
        })
        .collect()
}

/// F1 of `got` against `truth`, on itemset identity (supports are
/// allowed to drift).
fn f1(truth: &MiningResult, got: &MiningResult) -> f64 {
    if truth.is_empty() && got.is_empty() {
        return 1.0;
    }
    if truth.is_empty() || got.is_empty() {
        return 0.0;
    }
    let tp = got
        .iter()
        .filter(|(s, _)| truth.support(s).is_some())
        .count() as f64;
    let precision = tp / got.len() as f64;
    let recall = tp / truth.len() as f64;
    if precision + recall == 0.0 {
        0.0
    } else {
        2.0 * precision * recall / (precision + recall)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use andi_data::bigmart;

    fn config() -> PortfolioConfig {
        PortfolioConfig {
            min_support: 2,
            seed: 42,
        }
    }

    #[test]
    fn full_release_is_the_baseline() {
        let db = bigmart();
        let reports = evaluate_portfolio(&db, &[ReleaseCandidate::Full], &config()).unwrap();
        let r = &reports[0];
        assert_eq!(r.label, "full");
        assert_eq!(r.items_released, 6);
        assert_eq!(r.transactions_released, 10);
        assert_eq!(r.point_valued_cracks, 3);
        assert!(
            (r.mining_f1 - 1.0).abs() < 1e-12,
            "full release mines the truth"
        );
    }

    #[test]
    fn sanitized_release_trades_risk_for_utility() {
        let db = bigmart();
        let reports = evaluate_portfolio(
            &db,
            &[
                ReleaseCandidate::Full,
                ReleaseCandidate::Sanitized { bucket: 5 },
            ],
            &config(),
        )
        .unwrap();
        let (full, rounded) = (&reports[0], &reports[1]);
        assert!(rounded.point_valued_cracks < full.point_valued_cracks);
        assert!(rounded.mining_f1 <= full.mining_f1 + 1e-12);
    }

    #[test]
    fn suppressed_release_drops_items() {
        let db = bigmart();
        let reports = evaluate_portfolio(
            &db,
            &[ReleaseCandidate::Suppressed { tolerance: 0.2 }],
            &config(),
        )
        .unwrap();
        let r = &reports[0];
        assert!(r.items_released < 6, "the plan withholds items");
        assert!(r.label.starts_with("suppressed"));
        assert!(
            r.mining_f1 < 1.0,
            "patterns involving withheld items vanish"
        );
        assert!(r.mining_f1 > 0.0, "the rest survives");
    }

    #[test]
    fn sample_release_scales_counts() {
        let db = bigmart();
        let reports = evaluate_portfolio(
            &db,
            &[ReleaseCandidate::Sample { fraction: 0.5 }],
            &config(),
        )
        .unwrap();
        let r = &reports[0];
        assert_eq!(r.transactions_released, 5);
        assert!(r.label.contains("50%"));
    }

    #[test]
    fn invalid_candidates_are_rejected() {
        let db = bigmart();
        assert!(evaluate_portfolio(
            &db,
            &[ReleaseCandidate::Sample { fraction: 0.0 }],
            &config()
        )
        .is_err());
        assert!(
            evaluate_portfolio(&db, &[ReleaseCandidate::Sanitized { bucket: 0 }], &config())
                .is_err()
        );
        let bad = PortfolioConfig {
            min_support: 0,
            ..config()
        };
        assert!(evaluate_portfolio(&db, &[ReleaseCandidate::Full], &bad).is_err());
    }

    #[test]
    fn reports_align_with_candidates() {
        let db = bigmart();
        let candidates = vec![
            ReleaseCandidate::Full,
            ReleaseCandidate::Sample { fraction: 0.8 },
            ReleaseCandidate::Sanitized { bucket: 2 },
            ReleaseCandidate::Suppressed { tolerance: 0.3 },
        ];
        let reports = evaluate_portfolio(&db, &candidates, &config()).unwrap();
        assert_eq!(reports.len(), 4);
        for r in &reports {
            assert!(r.crack_fraction >= 0.0 && r.crack_fraction <= 1.0 + 1e-9);
            assert!((0.0..=1.0).contains(&r.mining_f1));
        }
    }
}
