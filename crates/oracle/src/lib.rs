//! # andi-oracle — differential & metamorphic conformance harness
//!
//! Cross-checks every estimator in the workspace against the paper's
//! ground truth on randomized, stratified instances:
//!
//! - [`generate`](generate::generate) produces seeded instances
//!   across six regimes (ignorant, point-compliant, α-compliant,
//!   chains, near-degenerate, adversarial sizes);
//! - [`check_instance`] evaluates every
//!   applicable [`Estimator`] pair and the
//!   paper's metamorphic relations (Lemmas 1–6, 8, 10; sampler CLT
//!   tolerance; masked additivity; budgeted-ladder equivalence);
//! - [`convex`] is the exact deadline-profile DP for interval
//!   mapping spaces, the battery's exact estimator that shares no
//!   code with the Ryser kernels;
//! - [`shrink`](shrink::shrink) minimizes failing instances, which
//!   are committed under `crates/oracle/corpus/` and replayed as
//!   ordinary tests;
//! - the `andi-oracle` binary drives seeded sweeps in CI.

pub mod cases;
pub mod checks;
pub mod convex;
pub mod corpus;
pub mod editscript;
pub mod error;
pub mod estimators;
pub mod generate;
pub mod instance;
pub mod serial;
pub mod shrink;
pub mod sweep;

pub use checks::{check_instance, CheckConfig, CheckReport, Violation};
pub use error::OracleError;
pub use estimators::{default_estimators, Confidence, Estimate, Estimator};
pub use generate::generate;
pub use instance::{Instance, Regime};
pub use serial::{provenance_from_json, provenance_to_json};
pub use shrink::shrink;
pub use sweep::{run_sweep, Failure, SweepOutcome};
