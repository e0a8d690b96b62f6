//! Frequency groups and gap statistics (the Figure 9 columns).
//!
//! Anonymized items are grouped by their *observed frequency*
//! (Section 3.2): two items belong to the same frequency group iff
//! their supports are equal. To avoid floating-point equality
//! pitfalls, grouping is performed on the integer support counts;
//! frequencies are derived as `support / m` only afterwards.
//!
//! The gap statistics (mean/median/min/max gap between successive
//! frequency groups) feed the paper's `δ_med` heuristic: the Assess-
//! Risk recipe widens each item's believed frequency to
//! `[f - δ_med, f + δ_med]` where `δ_med` is the *median* gap
//! (Section 6.1).

use crate::database::Database;
use crate::item::ItemId;

/// One frequency group: the items sharing a common support count.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FrequencyGroup {
    /// Common support count of every item in the group.
    pub support: u64,
    /// Members, in increasing item-id order.
    pub items: Vec<ItemId>,
}

/// The complete frequency-group decomposition of a database's item
/// domain, ordered by increasing support.
#[derive(Clone, Debug)]
pub struct FrequencyGroups {
    /// Number of transactions the supports are relative to.
    pub n_transactions: u64,
    /// Groups in strictly increasing support order.
    pub groups: Vec<FrequencyGroup>,
}

impl FrequencyGroups {
    /// Computes the frequency groups of `db` (all items, including
    /// support-0 items, which form a group of their own if present).
    pub fn of_database(db: &Database) -> Self {
        Self::from_supports(&db.supports(), db.n_transactions() as u64)
    }

    /// Groups an explicit support profile. `supports[x]` is the
    /// support count of item `x`.
    pub fn from_supports(supports: &[u64], n_transactions: u64) -> Self {
        let mut order: Vec<usize> = (0..supports.len()).collect();
        order.sort_unstable_by_key(|&x| (supports[x], x));
        let mut groups: Vec<FrequencyGroup> = Vec::new();
        for x in order {
            let s = supports[x];
            match groups.last_mut() {
                Some(g) if g.support == s => g.items.push(ItemId(x as u32)),
                _ => groups.push(FrequencyGroup {
                    support: s,
                    items: vec![ItemId(x as u32)],
                }),
            }
        }
        FrequencyGroups {
            n_transactions,
            groups,
        }
    }

    /// Number of distinct observed frequencies, the paper's `g`
    /// (Lemma 3: the expected number of cracks under the compliant
    /// point-valued belief function).
    #[inline]
    pub fn n_groups(&self) -> usize {
        self.groups.len()
    }

    /// Number of groups consisting of a single item ("Size 1 Gps." in
    /// Figure 9). Singleton-group items are cracked outright by a
    /// point-valued-compliant hacker.
    pub fn n_singleton_groups(&self) -> usize {
        self.groups.iter().filter(|g| g.items.len() == 1).count()
    }

    /// Total number of items across all groups.
    pub fn n_items(&self) -> usize {
        self.groups.iter().map(|g| g.items.len()).sum()
    }

    /// The frequency (support / m) of group `i`.
    #[inline]
    pub fn frequency(&self, i: usize) -> f64 {
        self.groups[i].support as f64 / self.n_transactions as f64
    }

    /// All group frequencies in increasing order.
    pub fn frequencies(&self) -> Vec<f64> {
        (0..self.groups.len()).map(|i| self.frequency(i)).collect()
    }

    /// Group sizes `n_1, ..., n_g` in increasing frequency order.
    pub fn sizes(&self) -> Vec<usize> {
        self.groups.iter().map(|g| g.items.len()).collect()
    }

    /// Gaps between successive group frequencies (length
    /// `n_groups - 1`; empty if fewer than two groups).
    pub fn gaps(&self) -> Vec<f64> {
        let m = self.n_transactions as f64;
        self.groups
            .windows(2)
            .map(|w| (w[1].support - w[0].support) as f64 / m)
            .collect()
    }

    /// Summary gap statistics, `None` if fewer than two groups.
    pub fn gap_stats(&self) -> Option<GapStats> {
        GapStats::from_gaps(&self.gaps())
    }

    /// The `δ_med` of the recipe: the median gap between successive
    /// frequency groups, or `None` with fewer than two groups.
    pub fn median_gap(&self) -> Option<f64> {
        self.gap_stats().map(|s| s.median)
    }
}

/// Mean/median/min/max statistics over the frequency gaps — the last
/// four columns of Figure 9.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GapStats {
    pub mean: f64,
    pub median: f64,
    pub min: f64,
    pub max: f64,
}

impl GapStats {
    /// Computes the statistics from raw gaps; `None` on empty input.
    pub fn from_gaps(gaps: &[f64]) -> Option<Self> {
        if gaps.is_empty() {
            return None;
        }
        let mut sorted = gaps.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let median = if n % 2 == 1 {
            sorted[n / 2]
        } else {
            (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
        };
        let mean = sorted.iter().sum::<f64>() / n as f64;
        Some(GapStats {
            mean,
            median,
            min: sorted[0],
            max: sorted[n - 1],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::bigmart;

    #[test]
    fn bigmart_has_three_groups() {
        // Frequencies 0.3, 0.4, 0.5 with sizes 1, 1, 4 (Figure 3(b)).
        let fg = FrequencyGroups::of_database(&bigmart());
        assert_eq!(fg.n_groups(), 3);
        assert_eq!(fg.sizes(), vec![1, 1, 4]);
        assert_eq!(fg.n_singleton_groups(), 2);
        assert_eq!(fg.n_items(), 6);
        let f = fg.frequencies();
        assert!((f[0] - 0.3).abs() < 1e-12);
        assert!((f[1] - 0.4).abs() < 1e-12);
        assert!((f[2] - 0.5).abs() < 1e-12);
        // Group of frequency 0.5 holds items 0, 2, 3, 5.
        assert_eq!(
            fg.groups[2].items,
            vec![ItemId(0), ItemId(2), ItemId(3), ItemId(5)]
        );
    }

    #[test]
    fn gaps_and_median() {
        let fg = FrequencyGroups::of_database(&bigmart());
        let gaps = fg.gaps();
        assert_eq!(gaps.len(), 2);
        assert!((gaps[0] - 0.1).abs() < 1e-12);
        assert!((gaps[1] - 0.1).abs() < 1e-12);
        let stats = fg.gap_stats().unwrap();
        assert!((stats.median - 0.1).abs() < 1e-12);
        assert!((stats.mean - 0.1).abs() < 1e-12);
        assert!((stats.min - 0.1).abs() < 1e-12);
        assert!((stats.max - 0.1).abs() < 1e-12);
    }

    #[test]
    fn from_supports_groups_equal_counts() {
        let fg = FrequencyGroups::from_supports(&[7, 3, 7, 3, 1], 10);
        assert_eq!(fg.n_groups(), 3);
        assert_eq!(fg.sizes(), vec![1, 2, 2]);
        assert_eq!(fg.groups[0].items, vec![ItemId(4)]);
        assert_eq!(fg.groups[1].items, vec![ItemId(1), ItemId(3)]);
        assert_eq!(fg.groups[2].items, vec![ItemId(0), ItemId(2)]);
    }

    #[test]
    fn single_group_has_no_gaps() {
        let fg = FrequencyGroups::from_supports(&[5, 5, 5], 10);
        assert_eq!(fg.n_groups(), 1);
        assert!(fg.gaps().is_empty());
        assert!(fg.gap_stats().is_none());
        assert!(fg.median_gap().is_none());
    }

    #[test]
    fn median_even_number_of_gaps() {
        // Supports 1, 2, 4, 8 over 10 transactions -> gaps .1, .2, .4.
        let fg = FrequencyGroups::from_supports(&[1, 2, 4, 8], 10);
        assert!((fg.median_gap().unwrap() - 0.2).abs() < 1e-12);
        // Supports 1, 2, 4 -> gaps .1, .2 -> median .15.
        let fg = FrequencyGroups::from_supports(&[1, 2, 4], 10);
        assert!((fg.median_gap().unwrap() - 0.15).abs() < 1e-12);
    }

    #[test]
    fn gap_stats_empty_is_none() {
        assert!(GapStats::from_gaps(&[]).is_none());
    }
}
