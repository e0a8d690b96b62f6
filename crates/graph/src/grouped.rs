//! Grouped (interval) bipartite graphs.
//!
//! For interval belief functions, the consistent-mapping graph has
//! special structure: anonymized items with equal observed frequency
//! are interchangeable (they form the *frequency groups* of
//! Section 3.2), and every original item's candidate set is a
//! *contiguous range* of frequency groups — the anonymized items
//! whose observed frequency falls inside the item's belief interval.
//!
//! [`GroupedBigraph`] exploits this: it stores the sorted frequency
//! groups once, plus one group range per original item. Outdegrees
//! (`O_x`) come from prefix sums in `O(log k)` each — this is the
//! `O(|D| + n log n)` implementation the paper sketches under
//! Figure 5 — and a maximum consistent matching comes from the
//! classical deadline-greedy in `O(n log n)`.

use std::sync::Arc;

use crate::dense::DenseBigraph;

/// The belief-independent half of a [`GroupedBigraph`]: the
/// frequency-group precomputation over one database summary
/// `(supports, m)` — distinct supports sorted and deduplicated, the
/// items listed group by group, the group offsets into that list,
/// and each item's group.
///
/// The layout is compressed sparse rows: one `members` array sorted
/// by (group, item) and one `prefix` array of group offsets, so group
/// `g` is `members[prefix[g]..prefix[g + 1]]` and its size is a
/// `prefix` difference. That is four heap blocks whatever the number
/// of groups.
///
/// Building this is the `O(n log n)` part of graph construction and
/// it does not depend on the hacker's belief at all, so a service
/// answering many concurrent requests against the *same* database
/// computes it once and completes each request's graph with the
/// cheap per-interval [`FrequencyScaffold::graph_for`] pass, which
/// shares the scaffold through its `Arc` instead of copying it. The
/// completion is definitionally equivalent to
/// [`GroupedBigraph::new`] — `new` itself is implemented as
/// `FrequencyScaffold::new(..).into_graph(..)`.
#[derive(Clone, Debug)]
pub struct FrequencyScaffold {
    /// Distinct support counts, strictly increasing.
    group_supports: Vec<u64>,
    /// Group offsets into `members`: group `g` is
    /// `members[prefix[g]..prefix[g + 1]]`, so `prefix[g]` is the
    /// number of items in groups `0..g`.
    prefix: Vec<usize>,
    /// Item -> its frequency-group index.
    left_group: Vec<usize>,
    /// Items group by group, ascending within each group.
    members: Vec<usize>,
    /// Transaction count the supports are relative to.
    n_transactions: u64,
}

impl FrequencyScaffold {
    /// Precomputes the frequency groups of a support profile.
    ///
    /// # Panics
    ///
    /// Panics if `n_transactions == 0` or any support exceeds it
    /// (the same structural contract as [`GroupedBigraph::new`]).
    pub fn new(supports: &[u64], n_transactions: u64) -> Self {
        assert!(n_transactions > 0, "need at least one transaction");
        let n = supports.len();

        // Distinct supports ascending + membership.
        let mut distinct: Vec<u64> = supports.to_vec();
        distinct.sort_unstable();
        distinct.dedup();
        let k = distinct.len();
        let mut left_group = vec![0usize; n];
        // Count each group's size into `prefix[g + 1]`, then prefix-sum.
        let mut prefix = vec![0usize; k + 1];
        for (i, &s) in supports.iter().enumerate() {
            assert!(s <= n_transactions, "item {i} support {s} exceeds m");
            // `distinct` was built from these same supports, so the
            // partition point lands exactly on `s`.
            let g = distinct.partition_point(|&d| d < s);
            prefix[g + 1] += 1;
            left_group[i] = g;
        }
        for g in 0..k {
            prefix[g + 1] += prefix[g];
        }
        // Scatter the items in increasing order, so each group's slice
        // comes out ascending.
        let mut next = prefix[..k].to_vec();
        let mut members = vec![0usize; n];
        for (i, &g) in left_group.iter().enumerate() {
            members[next[g]] = i;
            next[g] += 1;
        }

        FrequencyScaffold {
            group_supports: distinct,
            prefix,
            left_group,
            members,
            n_transactions,
        }
    }

    /// Domain size the scaffold was built over.
    pub fn n(&self) -> usize {
        self.left_group.len()
    }

    /// Transaction count the supports are relative to.
    pub fn n_transactions(&self) -> u64 {
        self.n_transactions
    }

    /// Whether this scaffold was built over exactly `supports` out of
    /// `n_transactions` — what a cache keyed by a hash of the two
    /// checks before it trusts a hit.
    pub fn is_for(&self, supports: &[u64], n_transactions: u64) -> bool {
        self.n_transactions == n_transactions
            && supports.len() == self.left_group.len()
            && supports
                .iter()
                .zip(&self.left_group)
                .all(|(&s, &g)| self.group_supports[g] == s)
    }

    /// Completes the graph for one belief: computes each item's
    /// candidate group range from its interval. The graph shares this
    /// scaffold through the `Arc`; only the ranges are built.
    ///
    /// # Panics
    ///
    /// Panics if `intervals.len() != self.n()` or an interval is
    /// inverted.
    pub fn graph_for(self: &Arc<Self>, intervals: &[(f64, f64)]) -> GroupedBigraph {
        assert_eq!(
            self.left_group.len(),
            intervals.len(),
            "supports and intervals must cover the same domain"
        );
        let m = self.n_transactions as f64;
        let freqs: Vec<f64> = self.group_supports.iter().map(|&s| s as f64 / m).collect();
        let right_range = intervals
            .iter()
            .enumerate()
            .map(|(y, &(l, r))| {
                assert!(l <= r, "item {y} has inverted interval [{l}, {r}]");
                // First group with frequency >= l.
                let lo = freqs.partition_point(|&f| f < l);
                // First group with frequency > r.
                let hi = freqs.partition_point(|&f| f <= r);
                if lo < hi {
                    Some((lo, hi - 1))
                } else {
                    None
                }
            })
            .collect();

        GroupedBigraph {
            scaffold: Arc::clone(self),
            right_range,
        }
    }

    /// Consuming variant of [`FrequencyScaffold::graph_for`].
    ///
    /// # Panics
    ///
    /// Panics if `intervals.len() != self.n()` or an interval is
    /// inverted.
    pub fn into_graph(self, intervals: &[(f64, f64)]) -> GroupedBigraph {
        Arc::new(self).graph_for(intervals)
    }
}

/// A bipartite mapping-space graph in grouped interval form.
///
/// Indexing is *aligned*: left (anonymized) index `i` corresponds to
/// original (right) index `i`; a crack is a matching edge `(i, i)`.
///
/// # Examples
///
/// The BigMart mapping space under the belief function `h` of
/// Figure 2 — `O_x` counts how many anonymized items could be `x`:
///
/// ```
/// use andi_graph::GroupedBigraph;
///
/// let supports = [5u64, 4, 5, 5, 3, 5];
/// let intervals = vec![
///     (0.0, 1.0), (0.4, 0.5), (0.5, 0.5),
///     (0.4, 0.6), (0.1, 0.4), (0.5, 0.5),
/// ];
/// let g = GroupedBigraph::new(&supports, 10, &intervals);
/// assert_eq!(g.n_groups(), 3);
/// assert_eq!(g.outdegrees(), vec![6, 5, 4, 5, 2, 4]);
/// assert!(g.has_edge(0, 1)); // 1' (freq .5) could be item 2
/// assert!(!g.has_edge(0, 4)); // ...but not item 5 ([0.1, 0.4])
/// ```
#[derive(Clone, Debug)]
pub struct GroupedBigraph {
    /// The frequency groups, shared with every other graph built from
    /// the same scaffold.
    scaffold: Arc<FrequencyScaffold>,
    /// Right item -> inclusive candidate group range, or `None` when
    /// the belief interval contains no observed frequency.
    right_range: Vec<Option<(usize, usize)>>,
}

impl GroupedBigraph {
    /// Builds the graph for observed supports (aligned indexing) and
    /// per-item belief intervals `[l, r]` over frequencies.
    ///
    /// # Panics
    ///
    /// Panics if lengths disagree, `m == 0`, any support exceeds `m`,
    /// or an interval is inverted.
    pub fn new(supports: &[u64], n_transactions: u64, intervals: &[(f64, f64)]) -> Self {
        FrequencyScaffold::new(supports, n_transactions).into_graph(intervals)
    }

    /// Domain size per side.
    #[inline]
    pub fn n(&self) -> usize {
        self.scaffold.n()
    }

    /// Number of frequency groups `k`.
    #[inline]
    pub fn n_groups(&self) -> usize {
        self.scaffold.group_supports.len()
    }

    /// Size of frequency group `g` (groups in ascending frequency
    /// order).
    #[inline]
    pub fn group_size(&self, g: usize) -> usize {
        self.scaffold.prefix[g + 1] - self.scaffold.prefix[g]
    }

    /// Distinct support counts, ascending.
    #[inline]
    pub fn group_supports(&self) -> &[u64] {
        &self.scaffold.group_supports
    }

    /// Transaction count.
    #[inline]
    pub fn n_transactions(&self) -> u64 {
        self.scaffold.n_transactions
    }

    /// Frequency of group `g`.
    #[inline]
    pub fn group_frequency(&self, g: usize) -> f64 {
        self.scaffold.group_supports[g] as f64 / self.scaffold.n_transactions as f64
    }

    /// The frequency-group index of (anonymized) item `i`.
    #[inline]
    pub fn left_group_of(&self, i: usize) -> usize {
        self.scaffold.left_group[i]
    }

    /// Left item indices belonging to group `g`, increasing.
    #[inline]
    pub fn group_members(&self, g: usize) -> &[usize] {
        let prefix = &self.scaffold.prefix;
        &self.scaffold.members[prefix[g]..prefix[g + 1]]
    }

    /// The candidate group range of original item `y`.
    #[inline]
    pub fn right_range_of(&self, y: usize) -> Option<(usize, usize)> {
        self.right_range[y]
    }

    /// Every original item's candidate group range, by item.
    #[inline]
    pub(crate) fn right_ranges(&self) -> &[Option<(usize, usize)>] {
        &self.right_range
    }

    /// Whether edge `(left, right)` exists: left's observed frequency
    /// group lies inside right's candidate range. O(1).
    #[inline]
    pub fn has_edge(&self, left: usize, right: usize) -> bool {
        match self.right_range[right] {
            Some((lo, hi)) => {
                let g = self.scaffold.left_group[left];
                lo <= g && g <= hi
            }
            None => false,
        }
    }

    /// The paper's `O_x`: the number of anonymized items that can map
    /// to original item `x`. Prefix-sum lookup, O(1).
    #[inline]
    pub fn outdegree(&self, x: usize) -> usize {
        match self.right_range[x] {
            Some((lo, hi)) => self.scaffold.prefix[hi + 1] - self.scaffold.prefix[lo],
            None => 0,
        }
    }

    /// All outdegrees.
    pub fn outdegrees(&self) -> Vec<usize> {
        (0..self.n()).map(|x| self.outdegree(x)).collect()
    }

    /// Whether item `x` is *compliant* in graph terms: its own
    /// anonymized counterpart is among its candidates, i.e. the crack
    /// edge `(x', x)` exists.
    #[inline]
    pub fn crack_edge_exists(&self, x: usize) -> bool {
        self.has_edge(x, x)
    }

    /// Total number of edges.
    pub fn n_edges(&self) -> usize {
        (0..self.n()).map(|x| self.outdegree(x)).sum()
    }

    /// Materializes the dense bitset form (for permanents,
    /// propagation and exactness tests). Quadratic; intended for
    /// modest domains.
    pub fn to_dense(&self) -> DenseBigraph {
        let n = self.n();
        let mut g = DenseBigraph::new(n);
        for y in 0..n {
            if let Some((lo, hi)) = self.right_range[y] {
                let prefix = &self.scaffold.prefix;
                for &i in &self.scaffold.members[prefix[lo]..prefix[hi + 1]] {
                    g.add_edge(i, y);
                }
            }
        }
        g
    }

    /// Partitions the original items into *belief groups* — the
    /// paper's Figure 3(b) view: items belong to the same belief
    /// group iff the same set of anonymized items can map to them
    /// (for interval graphs, iff their candidate group ranges are
    /// equal). Groups are returned ordered by range.
    pub fn belief_groups(&self) -> Vec<BeliefGroup> {
        let mut by_range: std::collections::BTreeMap<Option<(usize, usize)>, Vec<usize>> =
            std::collections::BTreeMap::new();
        for y in 0..self.n() {
            by_range.entry(self.right_range[y]).or_default().push(y);
        }
        by_range
            .into_iter()
            .map(|(range, members)| BeliefGroup { range, members })
            .collect()
    }

    /// Splits the graph into its connected components with one sweep
    /// over the frequency groups, in `O(n log n)` and without a dense
    /// graph.
    ///
    /// Every candidate set is a contiguous range of groups, so a
    /// component is a run of consecutive groups that no item's range
    /// crosses: its left side is the run's anonymized items and its
    /// right side the original items whose ranges lie inside it. When
    /// every group is covered by some range, each run is connected,
    /// because every pair of neighbouring groups in it shares the
    /// range that crosses their boundary.
    ///
    /// Returns `None` when the sweep proves the mapping space empty:
    /// an original item with no candidate, a group no range covers,
    /// or a run whose two sides differ in size.
    pub fn components(&self) -> Option<Components> {
        let k = self.n_groups();
        let ranges: Vec<(usize, usize)> =
            self.right_range.iter().copied().collect::<Option<_>>()?;
        // reach[g]: the highest group any range starting at g reaches.
        let mut reach: Vec<Option<usize>> = vec![None; k];
        for &(lo, hi) in &ranges {
            reach[lo] = reach[lo].max(Some(hi));
        }
        // A run ends at the first group no earlier range reaches past;
        // a group that no earlier range reaches is uncovered.
        let mut run_of = vec![0usize; k];
        let mut bounds = vec![0usize];
        let mut end = None;
        for g in 0..k {
            end = end.max(reach[g]);
            if end < Some(g) {
                return None;
            }
            run_of[g] = bounds.len() - 1;
            if end == Some(g) {
                bounds.push(self.scaffold.prefix[g + 1]);
            }
        }
        let runs = bounds.len() - 1;
        let mut sizes = vec![0usize; runs];
        for &(lo, _) in &ranges {
            sizes[run_of[lo]] += 1;
        }
        if sizes
            .iter()
            .zip(bounds.windows(2))
            .any(|(&size, run)| size != run[1] - run[0])
        {
            return None;
        }
        // Right items: bucketed by run in item order, so each run's
        // items come out ascending.
        let mut next = bounds[..runs].to_vec();
        let mut right = vec![0usize; ranges.len()];
        for (y, &(lo, _)) in ranges.iter().enumerate() {
            let slot = &mut next[run_of[lo]];
            right[*slot] = y;
            *slot += 1;
        }
        // Left items: the runs' group slices, each sorted by item.
        let mut left = self.scaffold.members.clone();
        for run in bounds.windows(2) {
            left[run[0]..run[1]].sort_unstable();
        }
        Some(Components {
            left,
            right,
            bounds,
        })
    }

    /// The matching a swap walk (§7.1) starts from: the identity when
    /// every crack edge exists, otherwise [`Self::greedy_matching`],
    /// which is maximum but may be partial.
    pub fn walk_seed(&self) -> Matching {
        let n = self.n();
        if (0..n).all(|x| self.crack_edge_exists(x)) {
            Matching::identity(n)
        } else {
            self.greedy_matching()
        }
    }

    /// Maximum consistent matching via the deadline greedy: original
    /// items are processed by increasing range upper end and matched
    /// to the lowest-frequency anonymized item still available in
    /// their range. For interval bigraphs this yields a maximum
    /// matching; if it is perfect, every anonymized item is assigned.
    ///
    /// Returns `partner[left] = Some(right)` for matched left items.
    pub fn greedy_matching(&self) -> Matching {
        let n = self.n();
        // Order right items by (hi, lo), carrying each range along so
        // no later lookup has to re-prove the filter.
        let mut order: Vec<(usize, (usize, usize))> = (0..n)
            .filter_map(|y| self.right_range[y].map(|r| (y, r)))
            .collect();
        order.sort_unstable_by_key(|&(_, (lo, hi))| (hi, lo));

        // Each group is a stack of still-unassigned left items: its
        // members slice up to a cursor that moves down from the
        // group's end, so items pop largest first. A BTreeSet of
        // groups with remaining capacity supports "smallest group
        // >= lo" queries.
        let FrequencyScaffold {
            prefix, members, ..
        } = &*self.scaffold;
        let mut top: Vec<usize> = prefix[1..].to_vec();
        // Every group starts with at least one member.
        let mut nonempty: std::collections::BTreeSet<usize> = (0..self.n_groups()).collect();

        let mut left_partner: Vec<Option<usize>> = vec![None; n];
        let mut right_partner: Vec<Option<usize>> = vec![None; n];
        for (y, (lo, hi)) in order {
            if let Some(&g) = nonempty.range(lo..=hi).next() {
                top[g] -= 1;
                let i = members[top[g]];
                if top[g] == prefix[g] {
                    nonempty.remove(&g);
                }
                left_partner[i] = Some(y);
                right_partner[y] = Some(i);
            }
        }
        Matching {
            left_partner,
            right_partner,
        }
    }
}

/// A belief group (Figure 3(b)): original items sharing a candidate
/// set.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BeliefGroup {
    /// Inclusive frequency-group range the members can map from
    /// (`None` when no observed frequency fits their interval).
    pub range: Option<(usize, usize)>,
    /// Member original items, increasing.
    pub members: Vec<usize>,
}

impl BeliefGroup {
    /// Whether the group maps to exactly one frequency group
    /// (*exclusive* in the chain terminology of Section 4.2).
    pub fn is_exclusive(&self) -> bool {
        matches!(self.range, Some((lo, hi)) if lo == hi)
    }

    /// Whether the group maps to exactly two successive frequency
    /// groups (*shared*).
    pub fn is_shared(&self) -> bool {
        matches!(self.range, Some((lo, hi)) if hi == lo + 1)
    }
}

/// The connected components of a [`GroupedBigraph`], in ascending
/// frequency order ([`GroupedBigraph::components`]). Both sides of a
/// component have the same size, so one offset list serves both:
/// component `c` pairs the anonymized items
/// `left[bounds[c]..bounds[c + 1]]` with the original items
/// `right[bounds[c]..bounds[c + 1]]`, each ascending.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Components {
    left: Vec<usize>,
    right: Vec<usize>,
    bounds: Vec<usize>,
}

impl Components {
    /// Each component's (anonymized, original) items, in order.
    pub fn iter(&self) -> impl Iterator<Item = (&[usize], &[usize])> {
        self.bounds
            .windows(2)
            .map(|run| (&self.left[run[0]..run[1]], &self.right[run[0]..run[1]]))
    }

    /// Items per side of the largest component (0 when there is none).
    pub fn largest(&self) -> usize {
        self.bounds
            .windows(2)
            .map(|run| run[1] - run[0])
            .max()
            .unwrap_or(0)
    }
}

/// A (partial) matching between the two sides.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Matching {
    /// `left_partner[i]` = right item matched to left `i`.
    pub left_partner: Vec<Option<usize>>,
    /// `right_partner[y]` = left item matched to right `y`.
    pub right_partner: Vec<Option<usize>>,
}

impl Matching {
    /// The identity matching on `n` items (every item cracked).
    pub fn identity(n: usize) -> Self {
        Matching {
            left_partner: (0..n).map(Some).collect(),
            right_partner: (0..n).map(Some).collect(),
        }
    }

    /// Number of matched pairs.
    pub fn size(&self) -> usize {
        self.left_partner.iter().filter(|p| p.is_some()).count()
    }

    /// Whether every node is matched.
    pub fn is_perfect(&self) -> bool {
        self.left_partner.iter().all(|p| p.is_some())
    }

    /// Number of cracks: matched pairs `(i, i)`.
    pub fn n_cracks(&self) -> usize {
        self.left_partner
            .iter()
            .enumerate()
            .filter(|&(i, p)| *p == Some(i))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The BigMart supports: 5,4,5,5,3,5 over 10 transactions.
    fn bigmart_supports() -> Vec<u64> {
        vec![5, 4, 5, 5, 3, 5]
    }

    /// The belief function `h` of Figure 2 (0-based items).
    fn belief_h() -> Vec<(f64, f64)> {
        vec![
            (0.0, 1.0),
            (0.4, 0.5),
            (0.5, 0.5),
            (0.4, 0.6),
            (0.1, 0.4),
            (0.5, 0.5),
        ]
    }

    #[test]
    fn a_scaffold_knows_the_supports_it_was_built_over() {
        let scaffold = FrequencyScaffold::new(&[5, 4, 5, 5, 3, 5], 10);
        assert!(scaffold.is_for(&[5, 4, 5, 5, 3, 5], 10));
        assert!(!scaffold.is_for(&[5, 4, 5, 5, 3, 5], 11));
        assert!(!scaffold.is_for(&[5, 4, 5, 5, 3, 4], 10));
        assert!(!scaffold.is_for(&[5, 4, 5, 5, 3], 10));
    }

    #[test]
    fn groups_match_figure_3b() {
        let g = GroupedBigraph::new(&bigmart_supports(), 10, &belief_h());
        assert_eq!(g.n_groups(), 3);
        let sizes: Vec<usize> = (0..g.n_groups()).map(|grp| g.group_size(grp)).collect();
        assert_eq!(sizes, [1, 1, 4]);
        assert_eq!(g.group_supports(), &[3, 4, 5]);
        assert_eq!(g.left_group_of(4), 0); // item 5 (0-based 4), freq .3
        assert_eq!(g.left_group_of(1), 1); // freq .4
        assert_eq!(g.left_group_of(0), 2); // freq .5
    }

    #[test]
    fn outdegrees_match_paper_discussion() {
        // For h: 1' can map to items 1,2,3,4,6 (0-based 0,1,2,3,5);
        // dually O_x counts anonymized candidates per original item.
        let g = GroupedBigraph::new(&bigmart_supports(), 10, &belief_h());
        // Item 0 (paper 1) has interval [0,1] -> all 6 anonymized.
        assert_eq!(g.outdegree(0), 6);
        // Item 1 (paper 2) has [0.4, 0.5]: groups .4 (1) + .5 (4) = 5.
        assert_eq!(g.outdegree(1), 5);
        // Item 2 (paper 3) point 0.5 -> 4.
        assert_eq!(g.outdegree(2), 4);
        // Item 3 (paper 4) [0.4,0.6] -> 5.
        assert_eq!(g.outdegree(3), 5);
        // Item 4 (paper 5) [0.1,0.4]: groups .3 and .4 -> 2.
        assert_eq!(g.outdegree(4), 2);
        // Item 5 (paper 6) point 0.5 -> 4.
        assert_eq!(g.outdegree(5), 4);
    }

    #[test]
    fn edges_match_consistency_rule() {
        let g = GroupedBigraph::new(&bigmart_supports(), 10, &belief_h());
        // 1' (freq .5) maps to 1,2,3,4,6 but not 5 (0-based: not 4).
        for y in [0usize, 1, 2, 3, 5] {
            assert!(g.has_edge(0, y), "edge (1', {})", y + 1);
        }
        assert!(!g.has_edge(0, 4));
        // 2' (freq .4) maps to 1,2,4,5 (0-based 0,1,3,4).
        for y in [0usize, 1, 3, 4] {
            assert!(g.has_edge(1, y));
        }
        assert!(!g.has_edge(1, 2));
        assert!(!g.has_edge(1, 5));
    }

    #[test]
    fn compliant_beliefs_have_crack_edges() {
        let g = GroupedBigraph::new(&bigmart_supports(), 10, &belief_h());
        for x in 0..6 {
            assert!(g.crack_edge_exists(x), "h is compliant on item {x}");
        }
    }

    #[test]
    fn empty_interval_yields_no_candidates() {
        let supports = vec![5, 4];
        let intervals = vec![(0.0, 0.1), (0.0, 1.0)];
        let g = GroupedBigraph::new(&supports, 10, &intervals);
        assert_eq!(g.outdegree(0), 0);
        assert_eq!(g.right_range_of(0), None);
        assert!(!g.crack_edge_exists(0));
        assert_eq!(g.outdegree(1), 2);
    }

    #[test]
    fn to_dense_agrees_on_edges_and_degrees() {
        let g = GroupedBigraph::new(&bigmart_supports(), 10, &belief_h());
        let d = g.to_dense();
        for i in 0..6 {
            for y in 0..6 {
                assert_eq!(g.has_edge(i, y), d.has_edge(i, y), "edge ({i},{y})");
            }
        }
        let od = d.right_degrees();
        assert_eq!(od, g.outdegrees());
        assert_eq!(d.n_edges(), g.n_edges());
    }

    #[test]
    fn greedy_matching_is_perfect_under_compliance() {
        let g = GroupedBigraph::new(&bigmart_supports(), 10, &belief_h());
        let m = g.greedy_matching();
        assert!(m.is_perfect());
        // Verify consistency of every matched edge.
        for (i, p) in m.left_partner.iter().enumerate() {
            assert!(g.has_edge(i, p.expect("perfect")));
        }
    }

    #[test]
    fn greedy_matching_handles_infeasible_items() {
        // Item 0's interval misses every observed frequency.
        let supports = vec![5, 4, 3];
        let intervals = vec![(0.9, 1.0), (0.0, 1.0), (0.0, 1.0)];
        let g = GroupedBigraph::new(&supports, 10, &intervals);
        let m = g.greedy_matching();
        assert_eq!(m.size(), 2);
        assert!(m.right_partner[0].is_none());
    }

    #[test]
    fn walk_seed_is_the_identity_only_when_every_crack_edge_exists() {
        // h is compliant on every item.
        let g = GroupedBigraph::new(&bigmart_supports(), 10, &belief_h());
        assert_eq!(g.walk_seed(), Matching::identity(6));

        // Items 0 and 1 swap point beliefs: neither has its crack
        // edge, yet a perfect matching exists.
        let g = GroupedBigraph::new(&[1, 2, 3], 10, &[(0.2, 0.2), (0.1, 0.1), (0.3, 0.3)]);
        let seed = g.walk_seed();
        assert_eq!(seed, g.greedy_matching());
        assert!(seed.is_perfect());
        assert_eq!(seed.n_cracks(), 1);

        // Item 0's interval misses every observed frequency: no
        // perfect matching, so the seed is the greedy's partial one.
        let g = GroupedBigraph::new(&[5, 4, 3], 10, &[(0.9, 1.0), (0.0, 1.0), (0.0, 1.0)]);
        let seed = g.walk_seed();
        assert_eq!(seed, g.greedy_matching());
        assert_eq!(seed.size(), 2);
        assert!(!seed.is_perfect());
    }

    #[test]
    fn matching_crack_count() {
        let m = Matching::identity(4);
        assert_eq!(m.n_cracks(), 4);
        assert!(m.is_perfect());
        let m2 = Matching {
            left_partner: vec![Some(1), Some(0), Some(2), None],
            right_partner: vec![Some(1), Some(0), Some(2), None],
        };
        assert_eq!(m2.n_cracks(), 1);
        assert_eq!(m2.size(), 3);
        assert!(!m2.is_perfect());
    }

    #[test]
    fn belief_groups_match_figure_3b() {
        // Under h, items 2 and 4 (0-based 1 and 3) share the range
        // {.4, .5} even though their intervals differ — the paper's
        // point about the group view.
        let g = GroupedBigraph::new(&bigmart_supports(), 10, &belief_h());
        let groups = g.belief_groups();
        let find = |y: usize| {
            groups
                .iter()
                .find(|grp| grp.members.contains(&y))
                .expect("every item is in a group")
        };
        assert_eq!(find(1).members, vec![1, 3], "items 2 and 4 share a group");
        assert!(find(1).is_shared());
        // Point-believers 3 and 6 (0-based 2 and 5) share the .5-only
        // group.
        assert_eq!(find(2).members, vec![2, 5]);
        assert!(find(2).is_exclusive());
        // Item 1 (0-based 0) spans all three groups: neither.
        assert!(!find(0).is_exclusive() && !find(0).is_shared());
        // Partition check.
        let total: usize = groups.iter().map(|grp| grp.members.len()).sum();
        assert_eq!(total, 6);
    }

    #[test]
    fn point_valued_belief_isolates_groups() {
        // Compliant point-valued belief f of Figure 2.
        let supports = bigmart_supports();
        let intervals: Vec<(f64, f64)> = supports
            .iter()
            .map(|&s| {
                let f = s as f64 / 10.0;
                (f, f)
            })
            .collect();
        let g = GroupedBigraph::new(&supports, 10, &intervals);
        // Outdegree of each item equals its group size.
        assert_eq!(g.outdegrees(), vec![4, 1, 4, 4, 1, 4]);
    }

    #[test]
    fn scaffold_completion_is_equivalent_to_direct_construction() {
        // Every structural observable must agree between the one-shot
        // constructor and the scaffold-then-complete path, for a
        // spread of belief shapes over the same database summary —
        // this is the contract that lets a server share one
        // frequency-group precomputation across concurrent requests.
        let supports = bigmart_supports();
        let scaffold = Arc::new(FrequencyScaffold::new(&supports, 10));
        assert_eq!(scaffold.n(), 6);
        assert_eq!(scaffold.n_transactions(), 10);
        let beliefs: Vec<Vec<(f64, f64)>> = vec![
            belief_h(),
            vec![(0.0, 1.0); 6],
            supports
                .iter()
                .map(|&s| {
                    let f = s as f64 / 10.0;
                    (f, f)
                })
                .collect(),
            vec![(0.9, 1.0); 6], // no candidate group at all
        ];
        for intervals in &beliefs {
            let direct = GroupedBigraph::new(&supports, 10, intervals);
            let shared = scaffold.graph_for(intervals);
            assert_eq!(shared.n(), direct.n());
            assert_eq!(shared.n_groups(), direct.n_groups());
            assert_eq!(shared.group_supports(), direct.group_supports());
            for grp in 0..direct.n_groups() {
                assert_eq!(shared.group_size(grp), direct.group_size(grp));
            }
            assert_eq!(shared.outdegrees(), direct.outdegrees());
            for y in 0..direct.n() {
                assert_eq!(shared.right_range_of(y), direct.right_range_of(y));
                assert_eq!(shared.left_group_of(y), direct.left_group_of(y));
            }
            for x in 0..direct.n() {
                for y in 0..direct.n() {
                    assert_eq!(shared.has_edge(x, y), direct.has_edge(x, y));
                }
            }
        }
    }

    /// The one-`Vec`-per-group layout the CSR scaffold replaced, kept
    /// verbatim as the reference for the layout-equivalence test:
    /// construction, edge test, deadline greedy, locality order and
    /// dense form.
    struct NestedReference {
        group_sizes: Vec<usize>,
        left_group: Vec<usize>,
        right_range: Vec<Option<(usize, usize)>>,
        group_members: Vec<Vec<usize>>,
    }

    impl NestedReference {
        fn new(supports: &[u64], n_transactions: u64, intervals: &[(f64, f64)]) -> Self {
            let n = supports.len();
            let mut distinct: Vec<u64> = supports.to_vec();
            distinct.sort_unstable();
            distinct.dedup();
            let k = distinct.len();
            let mut group_sizes = vec![0usize; k];
            let mut left_group = vec![0usize; n];
            let mut group_members = vec![Vec::new(); k];
            for (i, &s) in supports.iter().enumerate() {
                let g = distinct.partition_point(|&d| d < s);
                group_sizes[g] += 1;
                left_group[i] = g;
                group_members[g].push(i);
            }
            let m = n_transactions as f64;
            let freqs: Vec<f64> = distinct.iter().map(|&s| s as f64 / m).collect();
            let right_range = intervals
                .iter()
                .map(|&(l, r)| {
                    let lo = freqs.partition_point(|&f| f < l);
                    let hi = freqs.partition_point(|&f| f <= r);
                    if lo < hi {
                        Some((lo, hi - 1))
                    } else {
                        None
                    }
                })
                .collect();
            NestedReference {
                group_sizes,
                left_group,
                right_range,
                group_members,
            }
        }

        fn has_edge(&self, left: usize, right: usize) -> bool {
            match self.right_range[right] {
                Some((lo, hi)) => {
                    let g = self.left_group[left];
                    lo <= g && g <= hi
                }
                None => false,
            }
        }

        fn locality_order(&self) -> Vec<usize> {
            let mut order = Vec::new();
            for members in &self.group_members {
                order.extend_from_slice(members);
            }
            order
        }

        fn to_dense(&self) -> DenseBigraph {
            let n = self.left_group.len();
            let mut g = DenseBigraph::new(n);
            for y in 0..n {
                if let Some((lo, hi)) = self.right_range[y] {
                    for grp in lo..=hi {
                        for &i in &self.group_members[grp] {
                            g.add_edge(i, y);
                        }
                    }
                }
            }
            g
        }

        fn greedy_matching(&self) -> Matching {
            let n = self.left_group.len();
            let mut order: Vec<(usize, (usize, usize))> = (0..n)
                .filter_map(|y| self.right_range[y].map(|r| (y, r)))
                .collect();
            order.sort_unstable_by_key(|&(_, (lo, hi))| (hi, lo));
            let mut remaining: Vec<Vec<usize>> = self.group_members.clone();
            let mut nonempty: std::collections::BTreeSet<usize> = (0..self.group_sizes.len())
                .filter(|&g| !remaining[g].is_empty())
                .collect();
            let mut left_partner: Vec<Option<usize>> = vec![None; n];
            let mut right_partner: Vec<Option<usize>> = vec![None; n];
            for (y, (lo, hi)) in order {
                if let Some(&g) = nonempty.range(lo..=hi).next() {
                    let Some(i) = remaining[g].pop() else {
                        nonempty.remove(&g);
                        continue;
                    };
                    if remaining[g].is_empty() {
                        nonempty.remove(&g);
                    }
                    left_partner[i] = Some(y);
                    right_partner[y] = Some(i);
                }
            }
            Matching {
                left_partner,
                right_partner,
            }
        }
    }

    /// Asserts that the CSR scaffold and the nested reference agree on
    /// every observable of one instance.
    fn assert_layouts_agree(supports: &[u64], m: u64, intervals: &[(f64, f64)]) {
        use crate::sampler::EdgeOracle;
        let reference = NestedReference::new(supports, m, intervals);
        let g = GroupedBigraph::new(supports, m, intervals);
        let n = supports.len();
        assert_eq!(g.n(), n);
        assert_eq!(g.n_groups(), reference.group_sizes.len());
        for grp in 0..g.n_groups() {
            assert_eq!(
                g.group_members(grp),
                reference.group_members[grp].as_slice()
            );
            assert_eq!(g.group_size(grp), reference.group_sizes[grp]);
        }
        for x in 0..n {
            assert_eq!(g.left_group_of(x), reference.left_group[x]);
            assert_eq!(g.right_range_of(x), reference.right_range[x]);
            for y in 0..n {
                assert_eq!(
                    g.has_edge(x, y),
                    reference.has_edge(x, y),
                    "edge ({x}, {y})"
                );
            }
        }
        assert_eq!(g.greedy_matching(), reference.greedy_matching());
        assert_eq!(g.locality_order(), Some(reference.locality_order()));
        assert_eq!(g.to_dense(), reference.to_dense());
    }

    #[test]
    fn csr_layout_equals_nested_reference() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(16);
        let random_interval = |rng: &mut StdRng| {
            let (a, b): (f64, f64) = (rng.gen(), rng.gen());
            (a.min(b), a.max(b))
        };
        for _ in 0..40 {
            // All supports distinct.
            let n = rng.gen_range(2..=24);
            let mut supports: Vec<u64> = (1..=n as u64).collect();
            for i in (1..n).rev() {
                supports.swap(i, rng.gen_range(0..=i));
            }
            let intervals: Vec<_> = (0..n).map(|_| random_interval(&mut rng)).collect();
            assert_layouts_agree(&supports, n as u64 + 3, &intervals);

            // All supports equal: one group.
            let n = rng.gen_range(2..=24);
            let intervals: Vec<_> = (0..n).map(|_| random_interval(&mut rng)).collect();
            assert_layouts_agree(&vec![7; n], 10, &intervals);

            // Repeated supports, some intervals hitting no frequency.
            let n = rng.gen_range(2..=32);
            let supports: Vec<u64> = (0..n).map(|_| rng.gen_range(1..=6)).collect();
            let intervals: Vec<_> = (0..n)
                .map(|_| {
                    if rng.gen_bool(0.3) {
                        (0.75, 0.99)
                    } else {
                        random_interval(&mut rng)
                    }
                })
                .collect();
            assert_layouts_agree(&supports, 12, &intervals);

            // n = 1.
            let interval = random_interval(&mut rng);
            assert_layouts_agree(&[rng.gen_range(0..=5)], 5, &[interval]);

            // The cold-exact shape: n in 10..=18, supports uniform in
            // 1..=1000 of m = 1000, truthful intervals widened by a
            // slack below 0.1.
            let n = rng.gen_range(10..=18);
            let supports: Vec<u64> = (0..n).map(|_| rng.gen_range(1..=1000)).collect();
            let intervals: Vec<_> = supports
                .iter()
                .map(|&s| {
                    let f = s as f64 / 1000.0;
                    let slack = rng.gen_range(0..=99) as f64 / 1000.0;
                    ((f - slack).max(0.0), (f + slack).min(1.0))
                })
                .collect();
            assert_layouts_agree(&supports, 1000, &intervals);
        }
    }

    /// The connected components of the dense rendering by a
    /// depth-first search, each as (sorted left, sorted right), sorted;
    /// `None` when one has sides of different sizes.
    fn dense_components(g: &GroupedBigraph) -> Option<Vec<(Vec<usize>, Vec<usize>)>> {
        let n = g.n();
        let mut seen = vec![false; 2 * n];
        let mut out = Vec::new();
        for start in 0..2 * n {
            if seen[start] {
                continue;
            }
            seen[start] = true;
            let (mut left, mut right, mut stack) = (Vec::new(), Vec::new(), vec![start]);
            while let Some(v) = stack.pop() {
                if v < n {
                    left.push(v)
                } else {
                    right.push(v - n)
                }
                for w in 0..n {
                    let (next, edge) = if v < n {
                        (n + w, g.has_edge(v, w))
                    } else {
                        (w, g.has_edge(w, v - n))
                    };
                    if edge && !seen[next] {
                        seen[next] = true;
                        stack.push(next);
                    }
                }
            }
            if left.len() != right.len() {
                return None;
            }
            left.sort_unstable();
            right.sort_unstable();
            out.push((left, right));
        }
        out.sort_unstable();
        Some(out)
    }

    #[test]
    fn component_sweep_equals_a_dense_search() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(23);
        let (mut split, mut empty) = (0, 0);
        for _ in 0..400 {
            // Repeated supports; mostly truthful narrow intervals, some
            // wrong ones and some that hold no observed frequency.
            let n = rng.gen_range(1..=24);
            let supports: Vec<u64> = (0..n).map(|_| rng.gen_range(1..=40)).collect();
            let intervals: Vec<(f64, f64)> = supports
                .iter()
                .map(|&s| {
                    let f = s as f64 / 50.0;
                    let slack = rng.gen_range(0..=4) as f64 / 50.0;
                    match rng.gen_range(0..10) {
                        0 => (0.9, 1.0),
                        1 => {
                            let c = rng.gen_range(1..=40) as f64 / 50.0;
                            ((c - slack).max(0.0), (c + slack).min(1.0))
                        }
                        _ => ((f - slack).max(0.0), (f + slack).min(1.0)),
                    }
                })
                .collect();
            let g = GroupedBigraph::new(&supports, 50, &intervals);
            let want = dense_components(&g);
            let got = g.components().map(|c| {
                let mut parts: Vec<(Vec<usize>, Vec<usize>)> =
                    c.iter().map(|(l, r)| (l.to_vec(), r.to_vec())).collect();
                let largest = parts.iter().map(|(l, _)| l.len()).max().unwrap_or(0);
                assert_eq!(c.largest(), largest);
                parts.sort_unstable();
                parts
            });
            assert_eq!(got, want, "supports {supports:?}, intervals {intervals:?}");
            if got.is_some() {
                split += 1
            } else {
                empty += 1
            }
        }
        assert!(split > 50 && empty > 50, "{split} split, {empty} empty");
    }

    #[test]
    fn component_sweep_reports_each_kind_of_empty_space() {
        let supports = [1u64, 2, 3, 4];
        let graph = |intervals: &[(f64, f64)]| GroupedBigraph::new(&supports, 10, intervals);
        // Two runs, {.1, .2} and {.3, .4}, each with both sides even.
        let ok = graph(&[(0.1, 0.2), (0.1, 0.2), (0.3, 0.3), (0.3, 0.4)]);
        let c = ok.components().expect("both runs are balanced");
        let parts: Vec<_> = c.iter().collect();
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0], (&[0, 1][..], &[0, 1][..]));
        assert_eq!(parts[1], (&[2, 3][..], &[2, 3][..]));
        // An item with no candidate.
        assert_eq!(
            graph(&[(0.1, 0.2), (0.1, 0.2), (0.3, 0.4), (0.9, 1.0)]).components(),
            None
        );
        // Group .4 covered by no range.
        assert_eq!(
            graph(&[(0.1, 0.2), (0.1, 0.2), (0.3, 0.3), (0.3, 0.3)]).components(),
            None
        );
        // One range across the boundary joins the runs.
        assert_eq!(
            graph(&[(0.1, 0.2), (0.1, 0.2), (0.1, 0.4), (0.3, 0.4)])
                .components()
                .map(|c| c.iter().count()),
            Some(1)
        );
        // A run with three originals over two anonymized items.
        assert_eq!(
            graph(&[(0.1, 0.2), (0.1, 0.2), (0.2, 0.2), (0.3, 0.4)]).components(),
            None
        );
        // The empty domain has no components.
        let none = GroupedBigraph::new(&[], 10, &[]);
        assert_eq!(
            none.components().map(|c| (c.iter().count(), c.largest())),
            Some((0, 0))
        );
    }

    #[test]
    #[should_panic(expected = "cover the same domain")]
    fn scaffold_rejects_mismatched_interval_count() {
        FrequencyScaffold::new(&bigmart_supports(), 10).into_graph(&[(0.0, 1.0)]);
    }
}
