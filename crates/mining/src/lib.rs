//! # andi-mining — frequent itemset mining substrate
//!
//! The paper's motivating task is frequent set mining over released
//! (anonymized) baskets, and one of anonymization's selling points is
//! that it "does not perturb data characteristics": mining the
//! anonymized database and mapping patterns back yields *exactly* the
//! original patterns. Anonymization is a relabelling, so one correct
//! miner shows that invariance: this crate supplies [`fpgrowth()`],
//! tested against brute-force support counting, plus association
//! rules over its results.
//!
//! ```
//! use andi_data::{bigmart, ItemId};
//! use andi_mining::{fpgrowth, Itemset};
//!
//! let frequent = fpgrowth(&bigmart(), 4);
//! assert_eq!(frequent.support(&Itemset::new([ItemId(0), ItemId(1)])), Some(4));
//! ```

#![forbid(unsafe_code)]

pub mod fpgrowth;
pub mod itemset;
pub mod rules;

pub use fpgrowth::fpgrowth;
pub use itemset::{Itemset, MiningResult};
pub use rules::{generate_rules, Rule};
