//! Synthetic dataset substrate.
//!
//! The paper evaluates on six UCI/FIMI benchmarks that are not
//! redistributable here. This module provides *analogs*: generators
//! calibrated to the published Figure 9 statistics of each benchmark
//! (see DESIGN.md for the substitution rationale). Real FIMI files
//! drop in via [`crate::fimi`] when available.

pub mod materialize;
pub mod profile;
pub mod quest;

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::database::Database;
use crate::stats::FrequencyGroups;
use materialize::materialize;
use profile::{AnalogSpec, GapShape};

/// The six benchmark analogs of Figure 9.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Analog {
    /// CONNECT: small dense domain, almost every support distinct.
    Connect,
    /// PUMSB: mid-size domain with heavy low-support collision mass.
    Pumsb,
    /// ACCIDENTS: large transaction count, mostly distinct supports.
    Accidents,
    /// RETAIL: very sparse; the paper's outlier dataset.
    Retail,
    /// MUSHROOM: small dense domain.
    Mushroom,
    /// CHESS: smallest, densest domain.
    Chess,
}

impl Analog {
    /// All six analogs in the paper's Figure 9 order.
    pub const ALL: [Analog; 6] = [
        Analog::Connect,
        Analog::Pumsb,
        Analog::Accidents,
        Analog::Retail,
        Analog::Mushroom,
        Analog::Chess,
    ];

    /// The four analogs shown in Figures 10 and 11.
    pub const FIGURE_10: [Analog; 4] = [
        Analog::Connect,
        Analog::Pumsb,
        Analog::Accidents,
        Analog::Retail,
    ];

    /// The calibrated shape specification (numbers from Figure 9).
    pub fn spec(self) -> AnalogSpec {
        match self {
            Analog::Connect => AnalogSpec {
                name: "CONNECT",
                n_items: 130,
                n_transactions: 67_557,
                n_groups: 125,
                n_singleton_groups: 122,
                mean_gap: 0.0081,
                median_gap: 0.0029,
                min_frequency: 0.02,
                size_exponent: 1.0,
                collisions_at_bottom: false,
                gap_shape: GapShape::Shuffled,
            },
            Analog::Pumsb => AnalogSpec {
                name: "PUMSB",
                n_items: 2_113,
                n_transactions: 49_046,
                n_groups: 650,
                n_singleton_groups: 421,
                mean_gap: 0.00154,
                median_gap: 0.000041,
                min_frequency: 0.0005,
                size_exponent: 1.3,
                collisions_at_bottom: true,
                gap_shape: GapShape::Ascending,
            },
            Analog::Accidents => AnalogSpec {
                name: "ACCIDENTS",
                n_items: 469,
                n_transactions: 340_184,
                n_groups: 310,
                n_singleton_groups: 286,
                mean_gap: 0.00324,
                median_gap: 0.000176,
                min_frequency: 0.002,
                size_exponent: 1.1,
                collisions_at_bottom: true,
                gap_shape: GapShape::Ascending,
            },
            Analog::Retail => AnalogSpec {
                name: "RETAIL",
                n_items: 16_470,
                n_transactions: 88_163,
                n_groups: 582,
                n_singleton_groups: 218,
                mean_gap: 0.00099,
                median_gap: 0.0000113,
                min_frequency: 0.00002,
                size_exponent: 1.6,
                collisions_at_bottom: true,
                gap_shape: GapShape::Ascending,
            },
            Analog::Mushroom => AnalogSpec {
                name: "MUSHROOM",
                n_items: 120,
                n_transactions: 8_124,
                n_groups: 90,
                n_singleton_groups: 77,
                mean_gap: 0.01124,
                median_gap: 0.00394,
                min_frequency: 0.01,
                size_exponent: 1.1,
                collisions_at_bottom: false,
                gap_shape: GapShape::Shuffled,
            },
            Analog::Chess => AnalogSpec {
                name: "CHESS",
                n_items: 75,
                n_transactions: 3_196,
                n_groups: 73,
                n_singleton_groups: 71,
                mean_gap: 0.01389,
                median_gap: 0.00657,
                min_frequency: 0.03,
                size_exponent: 1.0,
                collisions_at_bottom: false,
                gap_shape: GapShape::Shuffled,
            },
        }
    }

    /// Dataset name as printed in the paper's tables.
    pub fn name(self) -> &'static str {
        self.spec().name
    }

    /// A fixed per-analog seed so experiments are reproducible.
    fn default_seed(self) -> u64 {
        match self {
            Analog::Connect => 0xC0_2005,
            Analog::Pumsb => 0x70_2005,
            Analog::Accidents => 0xAC_2005,
            Analog::Retail => 0x4E_2005,
            Analog::Mushroom => 0x30_2005,
            Analog::Chess => 0xCE_2005,
        }
    }

    /// Synthesizes the support profile with the default seed.
    pub fn supports(self) -> Vec<u64> {
        self.supports_seeded(self.default_seed())
    }

    /// Synthesizes the support profile with an explicit seed.
    pub fn supports_seeded(self, seed: u64) -> Vec<u64> {
        let spec = self.spec();
        let mut rng = StdRng::seed_from_u64(seed);
        spec.synthesize_supports(&mut rng)
    }

    /// The frequency-group decomposition of the default profile.
    pub fn frequency_groups(self) -> FrequencyGroups {
        FrequencyGroups::from_supports(&self.supports(), self.spec().n_transactions)
    }

    /// Materializes a full transaction database (default seed).
    ///
    /// The large analogs allocate tens of millions of item
    /// occurrences; prefer [`Analog::supports`] when only the
    /// frequency profile is needed.
    pub fn database(self) -> Database {
        self.database_seeded(self.default_seed())
    }

    /// Materializes a full transaction database with an explicit
    /// seed.
    pub fn database_seeded(self, seed: u64) -> Database {
        let spec = self.spec();
        let supports = self.supports_seeded(seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_F00D);
        materialize(&supports, spec.n_transactions, &mut rng).database
    }
}

impl std::fmt::Display for Analog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_specs_are_consistent() {
        for analog in Analog::ALL {
            let spec = analog.spec();
            // Synthesizing validates internally; also check the
            // published shape is honored exactly.
            let supports = analog.supports();
            assert_eq!(supports.len(), spec.n_items, "{analog}");
            let fg = FrequencyGroups::from_supports(&supports, spec.n_transactions);
            assert_eq!(fg.n_groups(), spec.n_groups, "{analog}");
            assert_eq!(fg.n_singleton_groups(), spec.n_singleton_groups, "{analog}");
        }
    }

    #[test]
    fn default_seed_is_stable() {
        let a = Analog::Chess.supports();
        let b = Analog::Chess.supports();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = Analog::Chess.supports_seeded(1);
        let b = Analog::Chess.supports_seeded(2);
        assert_ne!(a, b);
    }

    #[test]
    fn chess_database_materializes() {
        let db = Analog::Chess.database();
        assert_eq!(db.n_items(), 75);
        assert_eq!(db.n_transactions(), 3_196);
        // Supports of the materialized database group like the
        // profile up to rare empty-transaction fills.
        let fg = FrequencyGroups::of_database(&db);
        let target = Analog::Chess.spec();
        let diff = (fg.n_groups() as i64 - target.n_groups as i64).abs();
        assert!(
            diff <= 3,
            "groups {} vs target {}",
            fg.n_groups(),
            target.n_groups
        );
    }

    #[test]
    fn mushroom_gap_stats_are_in_band() {
        let fg = Analog::Mushroom.frequency_groups();
        let stats = fg.gap_stats().unwrap();
        let spec = Analog::Mushroom.spec();
        assert!(
            (stats.mean - spec.mean_gap).abs() / spec.mean_gap < 0.3,
            "mean {} vs {}",
            stats.mean,
            spec.mean_gap
        );
        assert!(stats.median <= stats.mean);
    }

    #[test]
    fn display_names() {
        assert_eq!(Analog::Retail.to_string(), "RETAIL");
        assert_eq!(Analog::ALL.len(), 6);
        assert_eq!(Analog::FIGURE_10.len(), 4);
    }
}
