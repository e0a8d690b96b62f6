//! Similarity-by-Sampling (Section 7.4, Figure 13).
//!
//! How much compliancy can an attacker with *similar* data achieve?
//! The data owner simulates similarity by sampling their own
//! database: a `p%` sample yields sampled frequencies `f̂_x` and a
//! sampled median group gap `δ'_med`; the induced belief function
//! `β(x) = [f̂_x - δ'_med, f̂_x + δ'_med]` has a measurable degree of
//! compliancy against the true frequencies. Sweeping `p` produces the
//! Figure 12 curves, read together with the recipe's `α_max` to judge
//! whether "similar data" suffices to breach tolerance.

use andi_data::{sample::sample_fraction, Database, FrequencyGroups};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::belief::BeliefFunction;
use crate::error::{Error, Result};

/// Which gap statistic sets the sampled interval half-width.
///
/// The paper's procedure uses the median; it reports that using the
/// *average* instead yields a misleading ~0.99 compliancy uniformly
/// across sample sizes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GapPolicy {
    /// `δ' = ` sampled median group gap (the paper's choice).
    Median,
    /// `δ' = ` sampled mean group gap (shown by the paper to be
    /// over-permissive).
    Mean,
}

impl GapPolicy {
    /// The half-width `δ'` this policy reads off a sampled profile's
    /// groups, and the belief that profile widens by it. A single
    /// frequency group has no gaps, so either policy falls back to a
    /// point belief (width 0).
    fn belief(self, groups: &FrequencyGroups) -> Result<(f64, BeliefFunction)> {
        match self {
            GapPolicy::Median => BeliefFunction::delta_med_compliant(groups),
            GapPolicy::Mean => {
                let delta = groups.gap_stats().map_or(0.0, |s| s.mean);
                Ok((delta, BeliefFunction::widened_profile(groups, delta)?))
            }
        }
    }
}

/// Configuration for the sampling sweep.
#[derive(Clone, Copy, Debug)]
pub struct SimilarityConfig {
    /// Samples drawn per sample size (the paper uses 10).
    pub samples_per_size: usize,
    /// Gap statistic for the interval width.
    pub gap_policy: GapPolicy,
    /// Base RNG seed.
    pub seed: u64,
}

impl Default for SimilarityConfig {
    fn default() -> Self {
        SimilarityConfig {
            samples_per_size: 10,
            gap_policy: GapPolicy::Median,
            seed: 0x5A11,
        }
    }
}

/// One sweep point: the average compliancy achieved by belief
/// functions built from samples of a given size.
#[derive(Clone, Copy, Debug)]
pub struct SimilarityPoint {
    /// Sample size as a fraction of the database.
    pub fraction: f64,
    /// Mean degree of compliancy `α_p` over the repeated samples.
    pub mean_alpha: f64,
    /// Standard deviation of `α` across samples.
    pub std_alpha: f64,
    /// Mean sampled interval half-width `δ'` used.
    pub mean_delta: f64,
}

/// A belief function built from one sample, plus its bookkeeping.
#[derive(Clone, Debug)]
pub struct SampledBelief {
    /// The induced belief function over sampled frequencies.
    pub belief: BeliefFunction,
    /// The half-width `δ'` used.
    pub delta: f64,
    /// Its degree of compliancy against the full database.
    pub alpha: f64,
}

/// Builds the belief function induced by one random sample of
/// `fraction` of the transactions (steps a–d of Figure 13).
///
/// # Errors
///
/// Propagates parameter validation; `fraction` must lie in `(0, 1]`.
pub fn sampled_belief(
    db: &Database,
    fraction: f64,
    config: &SimilarityConfig,
    rng: &mut StdRng,
) -> Result<SampledBelief> {
    if !(fraction > 0.0 && fraction <= 1.0) {
        return Err(Error::InvalidParameter(format!(
            "sample fraction must be in (0, 1], got {fraction}"
        )));
    }
    let sample = sample_fraction(db, fraction, rng);
    let (delta, belief) = config
        .gap_policy
        .belief(&FrequencyGroups::of_database(&sample))?;
    let alpha = belief.alpha(&db.frequencies());
    Ok(SampledBelief {
        belief,
        delta,
        alpha,
    })
}

/// Runs the full Figure 13 procedure over a range of sample sizes.
///
/// # Errors
///
/// Rejects an empty fraction list, out-of-range fractions, or a zero
/// repeat count.
/// # Examples
///
/// ```
/// use andi_core::{similarity_by_sampling, SimilarityConfig};
/// use andi_data::bigmart;
///
/// let db = bigmart();
/// let config = SimilarityConfig { samples_per_size: 3, ..SimilarityConfig::default() };
/// let points = similarity_by_sampling(&db, &[0.5, 1.0], &config).unwrap();
/// // A belief function built from the full data is fully compliant.
/// assert!((points[1].mean_alpha - 1.0).abs() < 1e-9);
/// ```
pub fn similarity_by_sampling(
    db: &Database,
    fractions: &[f64],
    config: &SimilarityConfig,
) -> Result<Vec<SimilarityPoint>> {
    if fractions.is_empty() {
        return Err(Error::InvalidParameter("no sample sizes given".into()));
    }
    if config.samples_per_size == 0 {
        return Err(Error::InvalidParameter(
            "need at least one sample per size".into(),
        ));
    }
    let mut out = Vec::with_capacity(fractions.len());
    for (k, &fraction) in fractions.iter().enumerate() {
        let mut alphas = Vec::with_capacity(config.samples_per_size);
        let mut deltas = Vec::with_capacity(config.samples_per_size);
        for s in 0..config.samples_per_size {
            let mut rng = StdRng::seed_from_u64(
                config
                    .seed
                    .wrapping_add((k as u64) << 32)
                    .wrapping_add(s as u64),
            );
            let sb = sampled_belief(db, fraction, config, &mut rng)?;
            alphas.push(sb.alpha);
            deltas.push(sb.delta);
        }
        let mean_alpha = alphas.iter().sum::<f64>() / alphas.len() as f64;
        let var = alphas
            .iter()
            .map(|&a| (a - mean_alpha) * (a - mean_alpha))
            .sum::<f64>()
            / alphas.len().max(2) as f64;
        out.push(SimilarityPoint {
            fraction,
            mean_alpha,
            std_alpha: var.sqrt(),
            mean_delta: deltas.iter().sum::<f64>() / deltas.len() as f64,
        });
    }
    Ok(out)
}

/// Risk of releasing an anonymized *sample* instead of the full
/// database.
///
/// Clifton \[7\] argues a small random sample poses little threat; the
/// paper's Section 7.4 shows that in compliancy terms this is not
/// true for every dataset. This helper gives the owner the direct
/// view: for each candidate release fraction, the expected crack
/// fraction of the released sample itself, under the recipe's
/// `δ_med`-interval hacker with full compliancy on the *released*
/// frequencies.
#[derive(Clone, Copy, Debug)]
pub struct SampleReleasePoint {
    /// Fraction of transactions released.
    pub fraction: f64,
    /// Items in the released sample with non-zero support (only
    /// these can leak).
    pub exposed_items: usize,
    /// O-estimate of cracks against the released sample.
    pub oestimate: f64,
    /// The same as a fraction of the full domain.
    pub fraction_cracked: f64,
}

/// Sweeps release fractions and reports the crack O-estimate of each
/// hypothetical release (mean over `config.samples_per_size` draws).
///
/// # Errors
///
/// Mirrors [`similarity_by_sampling`]'s validation.
pub fn sample_release_curve(
    db: &Database,
    fractions: &[f64],
    config: &SimilarityConfig,
) -> Result<Vec<SampleReleasePoint>> {
    if fractions.is_empty() {
        return Err(Error::InvalidParameter("no release fractions given".into()));
    }
    if config.samples_per_size == 0 {
        return Err(Error::InvalidParameter(
            "need at least one sample per size".into(),
        ));
    }
    let n = db.n_items();
    let mut out = Vec::with_capacity(fractions.len());
    for (k, &fraction) in fractions.iter().enumerate() {
        if !(fraction > 0.0 && fraction <= 1.0) {
            return Err(Error::InvalidParameter(format!(
                "release fraction must be in (0, 1], got {fraction}"
            )));
        }
        let mut oes = Vec::with_capacity(config.samples_per_size);
        let mut exposed = 0usize;
        for s in 0..config.samples_per_size {
            let mut rng = StdRng::seed_from_u64(
                config
                    .seed
                    .wrapping_add(0x5EED)
                    .wrapping_add((k as u64) << 32)
                    .wrapping_add(s as u64),
            );
            let sample = sample_fraction(db, fraction, &mut rng);
            let supports = sample.supports();
            let m = sample.n_transactions() as u64;
            let (_, belief) = config
                .gap_policy
                .belief(&FrequencyGroups::from_supports(&supports, m))?;
            let graph = belief.build_graph(&supports, m);
            let oe = crate::oestimate::OutdegreeProfile::plain(&graph).oestimate();
            oes.push(oe);
            exposed = exposed.max(supports.iter().filter(|&&c| c > 0).count());
        }
        let mean_oe = oes.iter().sum::<f64>() / oes.len() as f64;
        out.push(SampleReleasePoint {
            fraction,
            exposed_items: exposed,
            oestimate: mean_oe,
            fraction_cracked: mean_oe / n as f64,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use andi_data::bigmart;

    #[test]
    fn full_sample_is_fully_compliant() {
        // A 100% sample reproduces the true frequencies exactly, so
        // every interval contains its truth.
        let db = bigmart();
        let config = SimilarityConfig::default();
        let mut rng = StdRng::seed_from_u64(1);
        let sb = sampled_belief(&db, 1.0, &config, &mut rng).unwrap();
        assert!((sb.alpha - 1.0).abs() < 1e-12);
        assert!((sb.delta - 0.1).abs() < 1e-12, "true median gap is 0.1");
    }

    #[test]
    fn sweep_produces_one_point_per_fraction() {
        let db = bigmart();
        let config = SimilarityConfig {
            samples_per_size: 4,
            ..SimilarityConfig::default()
        };
        let points = similarity_by_sampling(&db, &[0.3, 0.6, 1.0], &config).unwrap();
        assert_eq!(points.len(), 3);
        for p in &points {
            assert!(
                (0.0..=1.0).contains(&p.mean_alpha),
                "alpha {}",
                p.mean_alpha
            );
            assert!(p.mean_delta >= 0.0);
        }
        // The 100% point is exact.
        assert!((points[2].mean_alpha - 1.0).abs() < 1e-12);
        assert_eq!(points[2].std_alpha, 0.0);
    }

    #[test]
    fn mean_policy_is_at_least_as_permissive() {
        // Wider intervals (mean >= median for skewed gaps) can only
        // raise compliancy on average.
        let db = bigmart();
        let base = SimilarityConfig {
            samples_per_size: 6,
            gap_policy: GapPolicy::Median,
            seed: 7,
        };
        let med = similarity_by_sampling(&db, &[0.5], &base).unwrap()[0];
        let mean = similarity_by_sampling(
            &db,
            &[0.5],
            &SimilarityConfig {
                gap_policy: GapPolicy::Mean,
                ..base
            },
        )
        .unwrap()[0];
        assert!(mean.mean_alpha >= med.mean_alpha - 1e-9);
    }

    #[test]
    fn invalid_inputs_rejected() {
        let db = bigmart();
        let config = SimilarityConfig::default();
        let mut rng = StdRng::seed_from_u64(2);
        assert!(sampled_belief(&db, 0.0, &config, &mut rng).is_err());
        assert!(sampled_belief(&db, 1.5, &config, &mut rng).is_err());
        assert!(similarity_by_sampling(&db, &[], &config).is_err());
        let bad = SimilarityConfig {
            samples_per_size: 0,
            ..config
        };
        assert!(similarity_by_sampling(&db, &[0.5], &bad).is_err());
    }

    #[test]
    fn sweep_is_reproducible() {
        let db = bigmart();
        let config = SimilarityConfig {
            samples_per_size: 3,
            ..SimilarityConfig::default()
        };
        let a = similarity_by_sampling(&db, &[0.4], &config).unwrap();
        let b = similarity_by_sampling(&db, &[0.4], &config).unwrap();
        assert_eq!(a[0].mean_alpha, b[0].mean_alpha);
    }

    #[test]
    fn sample_release_curve_shapes() {
        let db = bigmart();
        let config = SimilarityConfig {
            samples_per_size: 3,
            ..SimilarityConfig::default()
        };
        let points = sample_release_curve(&db, &[0.3, 1.0], &config).unwrap();
        assert_eq!(points.len(), 2);
        for p in &points {
            assert!(p.oestimate >= 0.0);
            assert!(p.fraction_cracked <= 1.0 + 1e-9);
            assert!(p.exposed_items <= 6);
        }
        // A full release exposes everything; its OE equals the
        // recipe's full-compliance OE on the original database.
        assert_eq!(points[1].exposed_items, 6);
        let full = &points[1];
        let groups = FrequencyGroups::of_database(&db);
        let belief =
            BeliefFunction::widened(&db.frequencies(), groups.median_gap().unwrap()).unwrap();
        let expected = crate::oestimate::oestimate_for(&belief, &db);
        assert!((full.oestimate - expected).abs() < 1e-9);
    }

    #[test]
    fn sample_release_rejects_bad_inputs() {
        let db = bigmart();
        let config = SimilarityConfig::default();
        assert!(sample_release_curve(&db, &[], &config).is_err());
        assert!(sample_release_curve(&db, &[0.0], &config).is_err());
        assert!(sample_release_curve(&db, &[1.5], &config).is_err());
        let bad = SimilarityConfig {
            samples_per_size: 0,
            ..config
        };
        assert!(sample_release_curve(&db, &[0.5], &bad).is_err());
    }

    #[test]
    fn single_group_sample_degrades_to_point_width() {
        // A database where every item has the same support: no gaps.
        let mut builder = andi_data::DatabaseBuilder::new(3);
        builder.add([0, 1, 2]).unwrap().add([0, 1, 2]).unwrap();
        let db = builder.build().unwrap();
        let config = SimilarityConfig::default();
        let mut rng = StdRng::seed_from_u64(3);
        let sb = sampled_belief(&db, 1.0, &config, &mut rng).unwrap();
        assert_eq!(sb.delta, 0.0);
        assert!((sb.alpha - 1.0).abs() < 1e-12);
    }
}
