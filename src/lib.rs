//! # andi — anonymized-data disclosure-risk analysis
//!
//! A production-quality Rust reproduction of *"To Do or Not To Do:
//! The Dilemma of Disclosing Anonymized Data"* (Lakshmanan, Ng &
//! Ramesh, SIGMOD 2005), packaged as one facade over four crates:
//!
//! * [`data`] (`andi-data`) — transaction databases, FIMI I/O,
//!   frequency statistics, sampling and calibrated benchmark
//!   analogs;
//! * [`graph`] (`andi-graph`) — the bipartite crack-mapping
//!   machinery: bitset/interval graphs, matchings, permanents,
//!   propagation, and the MCMC matching sampler;
//! * [`mining`] (`andi-mining`) — the FP-Growth frequent-set miner,
//!   association rules and closed/maximal condensation;
//! * [`core`] (`andi-core`) — belief functions, crack-expectation
//!   formulas, O-estimates, the Assess-Risk recipe,
//!   Similarity-by-Sampling and the Section 8 extensions.
//!
//! The most common entry points are re-exported at the top level.
//!
//! ## The decision in five lines
//!
//! ```
//! use andi::{assess_risk, RecipeConfig};
//!
//! let db = andi::data::bigmart();
//! let verdict = assess_risk(&db.supports(), db.n_transactions() as u64,
//!                           &RecipeConfig::default()).unwrap();
//! println!("release the data? {}", verdict.discloses());
//! ```
//!
//! See `examples/` for complete walkthroughs (quickstart, the
//! mining-as-a-service scenario, consortium risk screening, the
//! relational attack, and itemset-level identification).

pub use andi_core as core;
pub use andi_data as data;
pub use andi_graph as graph;
pub use andi_mining as mining;

pub mod portfolio;

/// A literate, fully-tested walkthrough of the whole workflow — from
/// anonymizing a database to acting on the recipe's verdict. Every
/// code block is a doctest.
pub mod guide {
    #![doc = include_str!("../docs/GUIDE.md")]
}

pub use andi_core::{
    assess_interest_risk, assess_powerset_risk, assess_relational_risk, assess_risk,
    assess_risk_budgeted, compliancy_curve, identify_sets, oestimate, oestimate_for,
    sample_release_curve, sampled_belief, similarity_by_sampling, simulate_expected_cracks,
    AnonymizationMapping, BeliefFunction, BudgetedAssessment, ChainSpec, GapPolicy, InterestSpec,
    ItemsetBelief, OutdegreeProfile, PowersetBelief, Provenance, RecipeConfig, RiskAssessment,
    RiskDecision, Rung, SimilarityConfig, SimulationConfig,
};
pub use andi_data::{bigmart, Analog, Database, FrequencyGroups, ItemId, Transaction};
pub use andi_graph::{Budget, CancelToken};
pub use andi_mining::{fpgrowth, Itemset, MiningResult};
pub use portfolio::{evaluate_portfolio, CandidateReport, PortfolioConfig, ReleaseCandidate};
