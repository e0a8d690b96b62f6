//! Itemsets and mining results.
//!
//! Frequent set mining is the paper's host task (its title scenario:
//! releasing anonymized baskets for mining). An itemset is a sorted,
//! duplicate-free set of items; a mining result is the collection of
//! all itemsets whose support meets a threshold.

use std::collections::BTreeMap;

use andi_data::ItemId;

/// A sorted, duplicate-free itemset.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Itemset {
    items: Box<[ItemId]>,
}

impl Itemset {
    /// Builds an itemset, sorting and deduplicating the input.
    pub fn new<I: IntoIterator<Item = ItemId>>(items: I) -> Self {
        let mut v: Vec<ItemId> = items.into_iter().collect();
        v.sort_unstable();
        v.dedup();
        Itemset {
            items: v.into_boxed_slice(),
        }
    }

    /// Builds from items already sorted and unique (debug-asserted).
    pub fn from_sorted_unique(items: Vec<ItemId>) -> Self {
        debug_assert!(items.windows(2).all(|w| w[0] < w[1]));
        Itemset {
            items: items.into_boxed_slice(),
        }
    }

    /// The items in increasing order.
    #[inline]
    pub fn items(&self) -> &[ItemId] {
        &self.items
    }

    /// Cardinality.
    #[inline]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Applies a per-item relabeling; used to map mined patterns
    /// between the original and anonymized domains.
    pub fn relabel(&self, relabel: &[u32]) -> Itemset {
        Itemset::new(self.items.iter().map(|x| ItemId(relabel[x.index()])))
    }
}

impl std::fmt::Display for Itemset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{{")?;
        for (k, item) in self.items.iter().enumerate() {
            if k > 0 {
                write!(f, ",")?;
            }
            write!(f, "{item}")?;
        }
        write!(f, "}}")
    }
}

/// The result of a frequent-set mining run: itemsets with their
/// support counts, in a canonical (sorted) order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MiningResult {
    /// `(itemset, support_count)` pairs sorted by itemset.
    patterns: BTreeMap<Itemset, u64>,
    /// The absolute support threshold the run used.
    pub min_support: u64,
}

impl MiningResult {
    /// Creates a result from raw pairs.
    pub fn new(pairs: impl IntoIterator<Item = (Itemset, u64)>, min_support: u64) -> Self {
        MiningResult {
            patterns: pairs.into_iter().collect(),
            min_support,
        }
    }

    /// Number of frequent itemsets found.
    pub fn len(&self) -> usize {
        self.patterns.len()
    }

    /// Whether no itemset met the threshold.
    pub fn is_empty(&self) -> bool {
        self.patterns.is_empty()
    }

    /// Support of a specific itemset, if frequent.
    pub fn support(&self, itemset: &Itemset) -> Option<u64> {
        self.patterns.get(itemset).copied()
    }

    /// Iterates `(itemset, support)` in canonical order.
    pub fn iter(&self) -> impl Iterator<Item = (&Itemset, u64)> {
        self.patterns.iter().map(|(s, &c)| (s, c))
    }

    /// Relabels every pattern (supports unchanged) — the "map the
    /// mined patterns back through the anonymization" step.
    pub fn relabel(&self, relabel: &[u32]) -> MiningResult {
        MiningResult {
            patterns: self
                .patterns
                .iter()
                .map(|(s, &c)| (s.relabel(relabel), c))
                .collect(),
            min_support: self.min_support,
        }
    }
}

/// Set union for the unit tests of this module and of `rules`.
#[cfg(test)]
impl Itemset {
    pub(crate) fn union(&self, other: &Itemset) -> Itemset {
        Itemset::new(self.items.iter().chain(other.items.iter()).copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(ids: &[u32]) -> Itemset {
        Itemset::new(ids.iter().map(|&i| ItemId(i)))
    }

    #[test]
    fn new_sorts_and_dedups() {
        let s = set(&[5, 1, 3, 1]);
        assert_eq!(s.items(), &[ItemId(1), ItemId(3), ItemId(5)]);
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
        assert!(set(&[]).is_empty());
    }

    #[test]
    fn union_merges() {
        assert_eq!(set(&[1, 2]).union(&set(&[2, 5])), set(&[1, 2, 5]));
    }

    #[test]
    fn display_format() {
        assert_eq!(set(&[2, 0]).to_string(), "{0,2}");
        assert_eq!(set(&[]).to_string(), "{}");
    }

    #[test]
    fn relabel_remaps_and_resorts() {
        // 0 -> 2, 1 -> 0, 2 -> 1.
        let s = set(&[0, 2]).relabel(&[2, 0, 1]);
        assert_eq!(s, set(&[1, 2]));
    }

    #[test]
    fn mining_result_accessors() {
        let r = MiningResult::new(vec![(set(&[0]), 5), (set(&[1]), 4), (set(&[0, 1]), 3)], 3);
        assert_eq!(r.len(), 3);
        assert!(!r.is_empty());
        assert_eq!(r.support(&set(&[0, 1])), Some(3));
        assert_eq!(r.support(&set(&[2])), None);
        let sizes: Vec<usize> = r.iter().map(|(s, _)| s.len()).collect();
        assert_eq!(sizes, [1, 2, 1], "canonical (sorted itemset) order");
    }

    #[test]
    fn mining_result_relabel_roundtrip() {
        let r = MiningResult::new(vec![(set(&[0, 2]), 7)], 5);
        let fwd = r.relabel(&[1, 2, 0]);
        assert_eq!(fwd.support(&set(&[0, 1])), Some(7));
        // Applying the inverse returns the original.
        let back = fwd.relabel(&[2, 0, 1]);
        assert_eq!(back, r);
    }
}
