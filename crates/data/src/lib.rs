//! # andi-data — transaction database substrate
//!
//! The data layer underneath the `andi` disclosure-risk analysis
//! (SIGMOD 2005, "To Do or Not To Do: The Dilemma of Disclosing
//! Anonymized Data"). It provides:
//!
//! * [`Database`] / [`Transaction`] — the paper's `D = <T1, ..., Tm>`
//!   over a dense item domain `I` (Section 2.1);
//! * [`stats::FrequencyGroups`] — the frequency-group decomposition
//!   and gap statistics that drive the `δ_med` heuristic (Figure 9);
//! * [`fimi`] — reader/writer for the FIMI `.dat` benchmark format;
//! * [`sample`] — transaction sampling for Similarity-by-Sampling
//!   (Figure 13);
//! * [`synth`] — calibrated analogs of the six paper benchmarks plus
//!   a Quest-style correlated basket generator.
//!
//! ```
//! use andi_data::{bigmart, stats::FrequencyGroups};
//!
//! let db = bigmart();
//! let groups = FrequencyGroups::of_database(&db);
//! assert_eq!(groups.n_groups(), 3); // frequencies 0.3, 0.4, 0.5
//! ```

#![forbid(unsafe_code)]

pub mod builder;
pub mod database;
pub mod fimi;
pub mod item;
pub mod sample;
pub mod stats;
pub mod summary;
pub mod synth;
pub mod transaction;

pub use builder::{project, DatabaseBuilder};
pub use database::{bigmart, Database};
pub use item::{anon_domain, domain, AnonItemId, ItemId};
pub use stats::{FrequencyGroups, GapStats};
pub use summary::DatasetSummary;
pub use synth::Analog;
pub use transaction::Transaction;
