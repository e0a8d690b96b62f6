//! # andi-core — disclosure-risk analysis of anonymized data
//!
//! Reproduction of *"To Do or Not To Do: The Dilemma of Disclosing
//! Anonymized Data"* (Lakshmanan, Ng & Ramesh, SIGMOD 2005).
//!
//! A data owner anonymizes a transaction database before releasing it
//! for mining. A hacker holding partial knowledge — a
//! [`BeliefFunction`] mapping each item to a believed frequency
//! interval — restricts the possible de-anonymizations to *consistent
//! crack mappings* and picks one at random. This crate computes the
//! resulting disclosure risk, the expected number of **cracks**:
//!
//! * exact closed forms for the ignorant and compliant point-valued
//!   extremes ([`formulas`], Lemmas 1–4) and for chain interval
//!   belief functions ([`chain`], Lemmas 5–6);
//! * the **O-estimate** heuristic for arbitrary interval belief
//!   functions ([`mod@oestimate`], Figure 5 + the Figure 7 propagation);
//! * the MCMC **simulation** protocol used as experimental ground
//!   truth ([`simulate`], Section 7.1);
//! * the owner-facing **Assess-Risk recipe** with α-compliancy
//!   binary search ([`recipe`], Figure 8) and
//!   **Similarity-by-Sampling** ([`similarity`], Figure 13);
//! * the Section 8 generalizations: relational/attribute knowledge
//!   ([`relational`]) and itemset-level identification
//!   ([`itemsets`]).
//!
//! ## Quick taste
//!
//! ```
//! use andi_core::{assess_risk, RecipeConfig};
//! use andi_data::bigmart;
//!
//! let db = bigmart(); // the paper's Figure 1 example
//! let assessment = assess_risk(
//!     &db.supports(),
//!     db.n_transactions() as u64,
//!     &RecipeConfig { tolerance: 0.6, ..RecipeConfig::default() },
//! ).unwrap();
//! assert!(assessment.discloses());
//! ```

#![forbid(unsafe_code)]

pub mod advisor;
pub mod anonymize;
pub mod belief;
pub mod chain;
pub mod error;
pub mod formulas;
pub mod incremental;
pub mod interest;
pub mod itemsets;
pub mod oestimate;
pub mod powerset;
pub mod recipe;
pub mod relational;
pub mod report;
pub mod sanitize;
pub mod similarity;
pub mod simulate;

pub use advisor::{suppression_plan, SuppressionPlan};
pub use anonymize::AnonymizationMapping;
pub use belief::BeliefFunction;
pub use chain::ChainSpec;
pub use error::{Error, Result};
pub use incremental::{apply_edits_to_summary, summary_fingerprint, DeltaBatch, Edit};

pub use formulas::{
    ignorant_expected_cracks, ignorant_expected_cracks_of_subset, point_valued_expected_cracks,
    point_valued_expected_cracks_of_subset,
};
pub use interest::{
    assess_interest_risk, weighted_expected_damage, InterestConfig, InterestRisk, InterestSpec,
};
pub use itemsets::{identify_sets, IdentifiedBlock, SetIdentification};
pub use oestimate::{oestimate, oestimate_for, ItemStatus, OutdegreeProfile};
pub use powerset::{assess_powerset_risk, ItemsetBelief, PowersetBelief, PowersetRisk};
pub use recipe::{
    assess_risk, assess_risk_budgeted, compliancy_curve, compliancy_curve_decoy, compliant_count,
    ladder_crack_probabilities, BudgetedAssessment, CompliancyPoint, RecipeConfig, RiskAssessment,
    RiskDecision,
};
pub use relational::{
    assess_relational_risk, AnonymizedRelation, AttrValue, Constraint, Knowledge, RelationalRisk,
};
pub use report::{Provenance, Rung};
pub use sanitize::{round_supports, utility_loss, Sanitized, UtilityLoss};
pub use similarity::{
    sample_release_curve, sampled_belief, similarity_by_sampling, GapPolicy, SampleReleasePoint,
    SampledBelief, SimilarityConfig, SimilarityPoint,
};
pub use simulate::{simulate_expected_cracks, SeedMode, SimulationConfig, SimulationResult};
