//! Condensed representations: closed and maximal frequent itemsets.
//!
//! A frequent itemset is **closed** when no proper superset has the
//! same support, and **maximal** when no proper superset is frequent
//! at all. Closed sets preserve every support (lossless); maximal
//! sets preserve only the frequent/infrequent border (smallest).
//! Both are standard ways to shrink a mining result before sharing —
//! which is exactly what the paper's data-owner does with mining
//! outputs.

use std::collections::BTreeMap;

use crate::itemset::{Itemset, MiningResult};

/// Extracts the closed itemsets of a mining result.
///
/// An itemset is closed iff none of its single-item frequent
/// extensions has equal support; checking the one-step extensions
/// suffices because support is monotone.
/// # Examples
///
/// ```
/// use andi_data::Database;
/// use andi_mining::{fpgrowth, closed_itemsets, maximal_itemsets};
///
/// // Items 0 and 1 always co-occur: {0} is absorbed by {0,1}.
/// let db = Database::from_raw(3, &[&[0, 1], &[0, 1, 2], &[0, 1]]).unwrap();
/// let all = fpgrowth(&db, 1);
/// let closed = closed_itemsets(&all);
/// let maximal = maximal_itemsets(&all);
/// assert!(maximal.len() <= closed.len());
/// assert!(closed.len() < all.len());
/// ```
pub fn closed_itemsets(result: &MiningResult) -> MiningResult {
    // Index supersets by length for the +1 lookup. BTreeMap keeps
    // any future iteration over the index deterministic.
    let mut by_len: BTreeMap<usize, Vec<(&Itemset, u64)>> = BTreeMap::new();
    for (s, c) in result.iter() {
        by_len.entry(s.len()).or_default().push((s, c));
    }
    let closed = result.iter().filter(|(s, c)| {
        by_len
            .get(&(s.len() + 1))
            .map(|bigger| {
                !bigger
                    .iter()
                    .any(|(sup, sc)| *sc == *c && s.is_subset_of(sup))
            })
            .unwrap_or(true)
    });
    MiningResult::new(closed.map(|(s, c)| (s.clone(), c)), result.min_support)
}

/// Extracts the maximal frequent itemsets.
pub fn maximal_itemsets(result: &MiningResult) -> MiningResult {
    let mut by_len: BTreeMap<usize, Vec<&Itemset>> = BTreeMap::new();
    for (s, _) in result.iter() {
        by_len.entry(s.len()).or_default().push(s);
    }
    let maximal = result.iter().filter(|(s, _)| {
        by_len
            .get(&(s.len() + 1))
            .map(|bigger| !bigger.iter().any(|sup| s.is_subset_of(sup)))
            .unwrap_or(true)
    });
    MiningResult::new(maximal.map(|(s, c)| (s.clone(), c)), result.min_support)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fpgrowth::fpgrowth;
    use andi_data::{bigmart, Database, ItemId};

    fn set(ids: &[u32]) -> Itemset {
        Itemset::new(ids.iter().map(|&i| ItemId(i)))
    }

    #[test]
    fn closed_sets_absorb_equal_support_subsets() {
        // In a database where 0 and 1 always co-occur, {0} is not
        // closed (same support as {0,1}).
        let db = Database::from_raw(3, &[&[0, 1], &[0, 1, 2], &[0, 1]]).unwrap();
        let all = fpgrowth(&db, 1);
        let closed = closed_itemsets(&all);
        assert!(closed.support(&set(&[0])).is_none(), "{{0}} is absorbed");
        assert!(closed.support(&set(&[0, 1])).is_some());
        assert!(closed.support(&set(&[0, 1, 2])).is_some());
        // {2} has support 1 = {0,1,2}: absorbed too.
        assert!(closed.support(&set(&[2])).is_none());
    }

    #[test]
    fn maximal_sets_keep_only_the_border() {
        let db = Database::from_raw(3, &[&[0, 1], &[0, 1, 2], &[0, 1]]).unwrap();
        let all = fpgrowth(&db, 1);
        let maximal = maximal_itemsets(&all);
        assert_eq!(maximal.len(), 1);
        assert!(maximal.support(&set(&[0, 1, 2])).is_some());
    }

    #[test]
    fn maximal_subset_of_closed_subset_of_all() {
        let db = bigmart();
        for min_support in [1u64, 2, 3, 4] {
            let all = fpgrowth(&db, min_support);
            let closed = closed_itemsets(&all);
            let maximal = maximal_itemsets(&all);
            assert!(maximal.len() <= closed.len());
            assert!(closed.len() <= all.len());
            // Every maximal set is closed; every closed set is
            // frequent with its original support.
            for (s, c) in maximal.iter() {
                assert_eq!(closed.support(s), Some(c), "{s}");
            }
            for (s, c) in closed.iter() {
                assert_eq!(all.support(s), Some(c), "{s}");
            }
        }
    }

    #[test]
    fn closed_sets_are_lossless() {
        // Every frequent itemset's support is recoverable as the
        // maximum support of a closed superset.
        let db = bigmart();
        let all = fpgrowth(&db, 2);
        let closed = closed_itemsets(&all);
        for (s, c) in all.iter() {
            let recovered = closed
                .iter()
                .filter(|(sup, _)| s.is_subset_of(sup))
                .map(|(_, sc)| sc)
                .max()
                .expect("some closed superset exists");
            assert_eq!(recovered, c, "support of {s} must be recoverable");
        }
    }

    #[test]
    fn distinct_supports_mean_everything_is_closed() {
        // A chain where every set has a distinct support.
        let db = Database::from_raw(2, &[&[0], &[0, 1], &[0]]).unwrap();
        let all = fpgrowth(&db, 1);
        let closed = closed_itemsets(&all);
        // {0}: 3, {1}: 1, {0,1}: 1 -> {1} absorbed by {0,1}; others
        // closed.
        assert_eq!(closed.len(), 2);
    }
}
