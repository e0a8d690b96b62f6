//! FP-Growth frequent-set mining.
//!
//! Pattern-growth miner: transactions are compressed into a prefix
//! tree (the FP-tree) with items ordered by descending support, then
//! patterns grow recursively from per-item conditional trees. No
//! candidate generation, two passes over the data per (sub)tree.

use std::collections::BTreeMap;

use andi_data::{Database, ItemId};

use crate::itemset::{Itemset, MiningResult};

/// Mines all itemsets with support count `>= min_support` using
/// FP-Growth.
///
/// # Panics
///
/// Panics if `min_support` is zero.
pub fn fpgrowth(db: &Database, min_support: u64) -> MiningResult {
    assert!(min_support >= 1, "min_support must be at least 1");
    let supports = db.supports();

    // Global item order: descending support, ties by id, restricted
    // to frequent items.
    let mut frequent: Vec<ItemId> = (0..db.n_items() as u32)
        .map(ItemId)
        .filter(|x| supports[x.index()] >= min_support)
        .collect();
    frequent.sort_unstable_by_key(|x| (std::cmp::Reverse(supports[x.index()]), *x));
    let rank: BTreeMap<ItemId, usize> = frequent.iter().enumerate().map(|(r, &x)| (x, r)).collect();

    // Build the initial tree from rank-sorted frequent projections.
    let mut tree = FpTree::new(frequent.len());
    for t in db.transactions() {
        let mut path: Vec<usize> = t.iter().filter_map(|x| rank.get(&x).copied()).collect();
        path.sort_unstable();
        tree.insert(&path, 1);
    }

    let mut out: Vec<(Itemset, u64)> = Vec::new();
    mine_tree(&tree, &[], min_support, &mut out);

    // Translate ranks back to item ids.
    let result = out.into_iter().map(|(ranks_set, c)| {
        let items = ranks_set
            .items()
            .iter()
            .map(|r| frequent[r.index()])
            .collect::<Vec<_>>();
        (Itemset::new(items), c)
    });
    MiningResult::new(result, min_support)
}

/// An FP-tree over rank-encoded items (rank 0 = most frequent).
struct FpTree {
    /// Arena: node 0 is the root.
    nodes: Vec<Node>,
    /// Per-rank chain of node indices holding that rank.
    header: Vec<Vec<usize>>,
    /// Per-rank total count.
    rank_count: Vec<u64>,
}

struct Node {
    rank: usize,
    count: u64,
    parent: usize,
    children: BTreeMap<usize, usize>,
}

impl FpTree {
    fn new(n_ranks: usize) -> Self {
        FpTree {
            nodes: vec![Node {
                rank: usize::MAX,
                count: 0,
                parent: usize::MAX,
                children: BTreeMap::new(),
            }],
            header: vec![Vec::new(); n_ranks],
            rank_count: vec![0; n_ranks],
        }
    }

    /// Inserts a rank-sorted path with multiplicity `count`.
    fn insert(&mut self, path: &[usize], count: u64) {
        let mut cur = 0usize;
        for &r in path {
            self.rank_count[r] += count;
            cur = match self.nodes[cur].children.get(&r) {
                Some(&child) => {
                    self.nodes[child].count += count;
                    child
                }
                None => {
                    let idx = self.nodes.len();
                    self.nodes.push(Node {
                        rank: r,
                        count,
                        parent: cur,
                        children: BTreeMap::new(),
                    });
                    self.nodes[cur].children.insert(r, idx);
                    self.header[r].push(idx);
                    idx
                }
            };
        }
    }

    /// The prefix path of a node (ranks above it), root exclusive.
    fn prefix_of(&self, mut idx: usize) -> Vec<usize> {
        let mut path = Vec::new();
        idx = self.nodes[idx].parent;
        while idx != 0 && idx != usize::MAX {
            path.push(self.nodes[idx].rank);
            idx = self.nodes[idx].parent;
        }
        path.reverse();
        path
    }
}

/// Recursively mines `tree`, extending `suffix` (rank-encoded,
/// descending order semantics handled by construction).
fn mine_tree(tree: &FpTree, suffix: &[usize], min_support: u64, out: &mut Vec<(Itemset, u64)>) {
    // Iterate ranks bottom-up (least frequent first) as usual.
    for r in (0..tree.header.len()).rev() {
        let count = tree.rank_count[r];
        if count < min_support || tree.header[r].is_empty() {
            continue;
        }
        let mut pattern: Vec<usize> = suffix.to_vec();
        pattern.push(r);
        out.push((
            Itemset::new(pattern.iter().map(|&x| ItemId(x as u32))),
            count,
        ));

        // Conditional tree on r's prefix paths, keeping only the ranks
        // frequent among those paths.
        let paths: Vec<(Vec<usize>, u64)> = tree.header[r]
            .iter()
            .map(|&node| (tree.prefix_of(node), tree.nodes[node].count))
            .collect();
        let mut cond_count = vec![0u64; tree.header.len()];
        for (path, count) in &paths {
            for &pr in path {
                cond_count[pr] += count;
            }
        }
        if cond_count.iter().any(|&c| c >= min_support) {
            let mut cond = FpTree::new(tree.header.len());
            for (path, count) in paths {
                let path: Vec<usize> = path
                    .into_iter()
                    .filter(|&pr| cond_count[pr] >= min_support)
                    .collect();
                if !path.is_empty() {
                    cond.insert(&path, count);
                }
            }
            mine_tree(&cond, &pattern, min_support, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use andi_data::bigmart;
    use proptest::prelude::*;

    fn set(ids: &[u32]) -> Itemset {
        Itemset::new(ids.iter().map(|&i| ItemId(i)))
    }

    /// The reference result: the support of every non-empty subset of
    /// the domain, counted transaction by transaction.
    fn brute_force(db: &Database, min_support: u64) -> MiningResult {
        let n = db.n_items() as u32;
        let all = (1u32..1 << n).filter_map(|mask| {
            let s = Itemset::new((0..n).filter(|&x| mask & (1 << x) != 0).map(ItemId));
            let count = db.itemset_support(s.items());
            (count >= min_support).then_some((s, count))
        });
        MiningResult::new(all, min_support)
    }

    /// A database over `n` items from non-empty item bitmasks.
    fn from_masks(n: usize, masks: &[u32]) -> Database {
        let rows: Vec<Vec<u32>> = masks
            .iter()
            .map(|&mask| (0..n as u32).filter(|&x| mask & (1 << x) != 0).collect())
            .collect();
        let raw: Vec<&[u32]> = rows.iter().map(Vec::as_slice).collect();
        Database::from_raw(n, &raw).expect("masks are non-empty and in range")
    }

    #[test]
    fn matches_brute_force_on_bigmart() {
        let db = bigmart();
        for min_support in 1u64..=11 {
            assert_eq!(
                fpgrowth(&db, min_support),
                brute_force(&db, min_support),
                "min_support {min_support}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// On random databases of at most 8 items and 24
        /// transactions, FP-Growth finds exactly the itemsets (and
        /// supports) of brute-force counting at every threshold from
        /// 1 (every co-occurring set) to m + 1 (nothing).
        #[test]
        fn equals_brute_force_on_random_databases(
            (n, masks) in (1usize..=8).prop_flat_map(|n| {
                (Just(n), prop::collection::vec(1u32..1 << n, 1..=24))
            })
        ) {
            let db = from_masks(n, &masks);
            for min_support in 1..=masks.len() as u64 + 1 {
                prop_assert_eq!(
                    fpgrowth(&db, min_support),
                    brute_force(&db, min_support),
                    "min_support {}", min_support
                );
            }
        }
    }

    #[test]
    fn finds_known_sets_on_bigmart() {
        let r = fpgrowth(&bigmart(), 4);
        // Supports 5,4,5,5,3,5: five singletons at min_support 4.
        assert_eq!(r.iter().filter(|(s, _)| s.len() == 1).count(), 5);
        assert_eq!(r.support(&set(&[0])), Some(5));
        assert_eq!(r.support(&set(&[3, 5])), Some(4));
        assert_eq!(r.support(&set(&[0, 1])), Some(4));
        assert_eq!(r.support(&set(&[4])), None);
    }

    #[test]
    fn single_transaction_database() {
        let db = Database::from_raw(4, &[&[0, 2, 3]]).unwrap();
        let r = fpgrowth(&db, 1);
        assert_eq!(r.len(), 7, "all non-empty subsets of a 3-set");
        assert_eq!(r.support(&set(&[0, 2, 3])), Some(1));
    }

    #[test]
    fn deep_itemsets() {
        let db =
            Database::from_raw(5, &[&[0, 1, 2, 3, 4], &[0, 1, 2, 3, 4], &[0, 1, 2, 3]]).unwrap();
        let r = fpgrowth(&db, 2);
        // All non-empty subsets of {0..4} have support >= 2: 31.
        assert_eq!(r.len(), 31);
        assert_eq!(r.support(&set(&[0, 1, 2, 3, 4])), Some(2));
    }

    #[test]
    fn empty_result_above_max_support() {
        let r = fpgrowth(&bigmart(), 11);
        assert!(r.is_empty());
    }

    #[test]
    #[should_panic(expected = "min_support")]
    fn rejects_zero_threshold() {
        let _ = fpgrowth(&bigmart(), 0);
    }
}
