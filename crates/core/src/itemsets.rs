//! Itemset-level identification (the Section 8.2 extension).
//!
//! Even when individual items are protected by their frequency
//! groups, *sets* of items can be identified with certainty: in the
//! Figure 6(b) graph there is no way to tell `1'` from `2'`, yet the
//! itemset `{1', 2'}` indisputably maps onto `{1, 2}` — a perfect
//! matching has to use both of them there. The paper leaves this as
//! ongoing work; we implement the interval-graph case.
//!
//! For grouped (interval) mapping spaces the identified sets are the
//! *blocks* of the prefix-tight decomposition: scanning frequency
//! groups in order, a cut after group `j` is tight when the number of
//! original items whose candidate range ends by `j` equals the number
//! of anonymized items observed in groups `0..=j`. Items whose range
//! ends by a tight cut can only be matched inside the prefix, and the
//! counts leave no room for anything else — so the anonymized items
//! of each block map onto exactly the block's original items.

use andi_graph::GroupedBigraph;

/// One identified block: a set of anonymized items that provably maps
/// onto a known set of original items.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IdentifiedBlock {
    /// Inclusive frequency-group range the block spans.
    pub group_range: (usize, usize),
    /// Anonymized (left) item indices of the block.
    pub anonymized_items: Vec<usize>,
    /// Original (right) item indices the set maps onto.
    pub original_items: Vec<usize>,
}

impl IdentifiedBlock {
    /// Block size (items per side).
    pub fn len(&self) -> usize {
        self.anonymized_items.len()
    }

    /// Whether the block is empty (never produced by the
    /// decomposition; for API completeness).
    pub fn is_empty(&self) -> bool {
        self.anonymized_items.is_empty()
    }

    /// A singleton block is an outright crack.
    pub fn is_crack(&self) -> bool {
        self.len() == 1
    }
}

/// The set-identification report for a mapping space.
#[derive(Clone, Debug)]
pub struct SetIdentification {
    /// Identified blocks in increasing frequency order. A single
    /// block covering the whole domain means no set-level leak.
    pub blocks: Vec<IdentifiedBlock>,
    /// Items whose candidate range is empty (unmatchable; excluded
    /// from every block).
    pub unmatchable: Vec<usize>,
}

impl SetIdentification {
    /// Number of items identified outright (singleton blocks).
    pub fn certain_cracks(&self) -> usize {
        self.blocks
            .iter()
            .filter(|b| b.is_crack() && b.anonymized_items == b.original_items)
            .count()
    }

    /// The finest provable partition sizes, smallest first — a
    /// compact leak summary for reports.
    pub fn block_sizes(&self) -> Vec<usize> {
        let mut sizes: Vec<usize> = self.blocks.iter().map(|b| b.len()).collect();
        sizes.sort_unstable();
        sizes
    }
}

/// Computes the prefix-tight block decomposition of a grouped mapping
/// space.
///
/// # Examples
///
/// The paper's Figure 6(b): no single item is identifiable, but the
/// *pair* `{1', 2'}` indisputably maps onto `{1, 2}`:
///
/// ```
/// use andi_core::{identify_sets, BeliefFunction};
///
/// let supports = [2u64, 4, 6, 8];
/// let f = |s: u64| s as f64 / 10.0;
/// let belief = BeliefFunction::from_intervals(vec![
///     (f(2), f(4)), (f(2), f(4)), (f(4), f(8)), (f(6), f(8)),
/// ]).unwrap();
/// let id = identify_sets(&belief.build_graph(&supports, 10));
/// assert_eq!(id.blocks.len(), 2);
/// assert_eq!(id.blocks[0].original_items, vec![0, 1]);
/// ```
///
/// Original items with an empty candidate range are reported as
/// `unmatchable` and take no part in the counting (no perfect
/// matching can involve them; with α-compliant beliefs the space may
/// still hold maximum matchings, which is what the blocks then
/// describe on the matchable part).
pub fn identify_sets(graph: &GroupedBigraph) -> SetIdentification {
    let k = graph.n_groups();
    let n = graph.n();

    // Bucket right items by the upper end of their range.
    let mut ends: Vec<Vec<usize>> = vec![Vec::new(); k];
    let mut unmatchable = Vec::new();
    for y in 0..n {
        match graph.right_range_of(y) {
            Some((_, hi)) => ends[hi].push(y),
            None => unmatchable.push(y),
        }
    }

    let mut blocks = Vec::new();
    let mut block_start = 0usize; // first group of the open block
    let mut lefts_in_block = 0usize;
    let mut rights_in_block: Vec<usize> = Vec::new();
    for (j, end_bucket) in ends.iter().enumerate() {
        lefts_in_block += graph.group_size(j);
        rights_in_block.extend_from_slice(end_bucket);
        if rights_in_block.len() == lefts_in_block {
            // Tight cut: close the block.
            let mut anonymized = Vec::with_capacity(lefts_in_block);
            for g in block_start..=j {
                anonymized.extend_from_slice(graph.group_members(g));
            }
            let mut original = std::mem::take(&mut rights_in_block);
            original.sort_unstable();
            blocks.push(IdentifiedBlock {
                group_range: (block_start, j),
                anonymized_items: anonymized,
                original_items: original,
            });
            block_start = j + 1;
            lefts_in_block = 0;
        }
    }
    // A trailing non-tight region (possible only when some items are
    // unmatchable or ranges overflow) is reported as one last block
    // covering it, without the tightness guarantee only if counts
    // mismatch; we include it solely when it balances.
    if lefts_in_block > 0 && rights_in_block.len() == lefts_in_block {
        let mut anonymized = Vec::with_capacity(lefts_in_block);
        for g in block_start..k {
            anonymized.extend_from_slice(graph.group_members(g));
        }
        rights_in_block.sort_unstable();
        blocks.push(IdentifiedBlock {
            group_range: (block_start, k - 1),
            anonymized_items: anonymized,
            original_items: rights_in_block,
        });
    }
    SetIdentification {
        blocks,
        unmatchable,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::belief::BeliefFunction;

    /// A grouped rendition of Figure 6(b): four singleton frequency
    /// groups; 1,2 believe the first two groups, 4 believes the last
    /// two, 3 spans groups 2-4.
    fn figure_6b() -> GroupedBigraph {
        let supports = vec![2u64, 4, 6, 8];
        let f = |s: u64| s as f64 / 10.0;
        let intervals = vec![
            (f(2), f(4)), // item 0 ("1"): groups {0,1}
            (f(2), f(4)), // item 1 ("2"): groups {0,1}
            (f(4), f(8)), // item 2 ("3"): groups {1,2,3}
            (f(6), f(8)), // item 3 ("4"): groups {2,3}
        ];
        GroupedBigraph::new(&supports, 10, &intervals)
    }

    #[test]
    fn figure_6b_splits_into_two_pairs() {
        let id = identify_sets(&figure_6b());
        assert_eq!(id.blocks.len(), 2);
        assert_eq!(id.blocks[0].anonymized_items, vec![0, 1]);
        assert_eq!(id.blocks[0].original_items, vec![0, 1]);
        assert_eq!(id.blocks[1].anonymized_items, vec![2, 3]);
        assert_eq!(id.blocks[1].original_items, vec![2, 3]);
        assert_eq!(id.block_sizes(), vec![2, 2]);
        assert_eq!(id.certain_cracks(), 0);
        assert!(id.unmatchable.is_empty());
    }

    #[test]
    fn ignorant_belief_is_one_big_block() {
        let b = BeliefFunction::ignorant(5);
        let graph = b.build_graph(&[1, 2, 3, 4, 5], 10);
        let id = identify_sets(&graph);
        assert_eq!(id.blocks.len(), 1);
        assert_eq!(id.blocks[0].len(), 5);
    }

    #[test]
    fn point_valued_belief_identifies_every_group() {
        // BigMart point-valued: blocks = the three frequency groups.
        let supports = vec![5u64, 4, 5, 5, 3, 5];
        let freqs: Vec<f64> = supports.iter().map(|&s| s as f64 / 10.0).collect();
        let b = BeliefFunction::point_valued(&freqs).unwrap();
        let graph = b.build_graph(&supports, 10);
        let id = identify_sets(&graph);
        assert_eq!(id.block_sizes(), vec![1, 1, 4]);
        // The two singleton groups are outright cracks.
        assert_eq!(id.certain_cracks(), 2);
    }

    #[test]
    fn staircase_identifies_singletons() {
        // Figure 6(a) as intervals: item i believes groups 0..=i, so
        // every prefix is tight and each item is its own block.
        let supports = vec![2u64, 4, 6, 8];
        let f = |s: u64| s as f64 / 10.0;
        let intervals = vec![(f(2), f(2)), (f(2), f(4)), (f(2), f(6)), (f(2), f(8))];
        let graph = GroupedBigraph::new(&supports, 10, &intervals);
        let id = identify_sets(&graph);
        assert_eq!(id.block_sizes(), vec![1, 1, 1, 1]);
        assert_eq!(id.certain_cracks(), 4);
    }

    #[test]
    fn unmatchable_items_are_reported() {
        let supports = vec![5u64, 4, 3];
        let intervals = vec![(0.9, 1.0), (0.0, 1.0), (0.0, 1.0)];
        let graph = GroupedBigraph::new(&supports, 10, &intervals);
        let id = identify_sets(&graph);
        assert_eq!(id.unmatchable, vec![0]);
        // Counts never balance (3 lefts, 2 matchable rights), so no
        // tight block closes.
        assert!(id.blocks.is_empty());
    }

    #[test]
    fn empty_block_helpers() {
        let b = IdentifiedBlock {
            group_range: (0, 0),
            anonymized_items: vec![],
            original_items: vec![],
        };
        assert!(b.is_empty());
        assert!(!b.is_crack());
    }
}
