//! Powerset belief functions (the Section 8.2 research direction,
//! realized).
//!
//! The paper closes with: "we extend belief functions defined over
//! the domain of items to those defined over the powerset" — a
//! hacker may hold educated guesses about the frequencies of
//! *itemsets*, not just items ("bread+butter sells in 10–12% of
//! baskets"). Itemset knowledge is strictly stronger than item
//! knowledge: two items indistinguishable by frequency may co-occur
//! very differently with a third, known item.
//!
//! We realize the extension as *constraint propagation* on the
//! item-level mapping space: an edge `(x', a)` survives only if the
//! claimed identity can be completed — for every believed itemset `S`
//! containing `a`, there must exist distinct candidate anonymized
//! items for the rest of `S` whose observed co-occurrence frequency
//! (together with `x'`) lies in the believed interval. Pruning runs
//! to fixpoint (like Figure 7, one level up), after which all the
//! item-level machinery — O-estimates, propagation, exact permanents,
//! the sampler — applies to the *pruned* graph.

use std::collections::BTreeMap;

use andi_data::{Database, ItemId};
use andi_graph::DenseBigraph;

use crate::belief::BeliefFunction;
use crate::error::{Error, Result};
use crate::oestimate::OutdegreeProfile;

/// A belief about one original itemset's frequency.
#[derive(Clone, Debug, PartialEq)]
pub struct ItemsetBelief {
    /// The original items of the set (deduplicated, sorted on
    /// construction).
    items: Vec<usize>,
    /// Believed frequency interval of the set.
    interval: (f64, f64),
}

impl ItemsetBelief {
    /// Creates a belief about `items` (at least two — single items
    /// belong in the [`BeliefFunction`]).
    ///
    /// # Errors
    ///
    /// Rejects sets smaller than 2 and invalid intervals.
    pub fn new(items: Vec<usize>, interval: (f64, f64)) -> Result<Self> {
        let mut items = items;
        items.sort_unstable();
        items.dedup();
        if items.len() < 2 {
            return Err(Error::InvalidParameter(
                "itemset beliefs need at least two items".into(),
            ));
        }
        let (l, r) = interval;
        if !(0.0 <= l && l <= r && r <= 1.0) {
            return Err(Error::InvalidInterval {
                item: items[0],
                low: l,
                high: r,
            });
        }
        Ok(ItemsetBelief { items, interval })
    }

    /// The believed items.
    pub fn items(&self) -> &[usize] {
        &self.items
    }

    /// The believed interval.
    pub fn interval(&self) -> (f64, f64) {
        self.interval
    }
}

/// A hacker's combined knowledge: item-level intervals plus itemset
/// frequencies.
#[derive(Clone, Debug)]
pub struct PowersetBelief {
    /// The item-level belief function.
    pub items: BeliefFunction,
    /// Additional itemset beliefs.
    pub sets: Vec<ItemsetBelief>,
}

impl PowersetBelief {
    /// A powerset belief with no set-level knowledge (reduces to the
    /// item analysis).
    pub fn item_only(items: BeliefFunction) -> Self {
        PowersetBelief {
            items,
            sets: Vec::new(),
        }
    }

    /// Adds a set belief.
    ///
    /// # Errors
    ///
    /// The set must fit the domain.
    pub fn with_set(mut self, set: ItemsetBelief) -> Result<Self> {
        if let Some(&max) = set.items.iter().max() {
            if max >= self.items.n_items() {
                return Err(Error::DomainMismatch {
                    expected: self.items.n_items(),
                    got: max + 1,
                });
            }
        }
        self.sets.push(set);
        Ok(self)
    }
}

/// Memoizing observed-support oracle over anonymized itemsets
/// (aligned indexing: anonymized item `i` is original item `i`, so
/// observed set supports equal original ones — anonymization does
/// not perturb co-occurrence).
struct SupportOracle<'a> {
    db: &'a Database,
    cache: BTreeMap<Vec<u32>, u64>,
}

impl<'a> SupportOracle<'a> {
    fn new(db: &'a Database) -> Self {
        SupportOracle {
            db,
            cache: BTreeMap::new(),
        }
    }

    /// Observed frequency of an anonymized itemset.
    fn frequency(&mut self, items: &mut Vec<u32>) -> f64 {
        items.sort_unstable();
        let support = match self.cache.get(items.as_slice()) {
            Some(&s) => s,
            None => {
                let sorted: Vec<ItemId> = items.iter().map(|&i| ItemId(i)).collect();
                let s = self.db.itemset_support(&sorted);
                self.cache.insert(items.clone(), s);
                s
            }
        };
        support as f64 / self.db.n_transactions() as f64
    }
}

/// Result of powerset-constraint pruning.
#[derive(Clone, Debug)]
pub struct PowersetRisk {
    /// The pruned mapping-space graph.
    pub graph: DenseBigraph,
    /// Edges removed by set-level constraints (beyond item-level
    /// consistency).
    pub pruned_edges: usize,
    /// Fixpoint rounds executed.
    pub rounds: usize,
    /// Crack-probability profile of the pruned graph (after Figure 7
    /// propagation).
    pub profile: OutdegreeProfile,
}

impl PowersetRisk {
    /// The O-estimate on the pruned space.
    pub fn oestimate(&self) -> f64 {
        self.profile.oestimate()
    }

    /// Items identified with certainty once set knowledge is used.
    pub fn certain_cracks(&self) -> usize {
        self.profile.forced_cracks()
    }
}

/// Cap on believed-set size: completion search is exponential in the
/// set size, and beliefs about very large sets are unrealistic.
pub const MAX_SET_SIZE: usize = 5;

/// Analyzes the disclosure risk of releasing (the anonymization of)
/// `db` against a hacker holding `belief`.
///
/// # Errors
///
/// Rejects domain mismatches, oversized set beliefs, and a pruned
/// space with no consistent matching.
/// # Examples
///
/// ```
/// use andi_core::{assess_powerset_risk, BeliefFunction, ItemsetBelief, PowersetBelief};
/// use andi_data::{bigmart, ItemId};
///
/// let db = bigmart();
/// let items = BeliefFunction::point_valued(&db.frequencies()).unwrap();
/// // Knowing how often products 1 and 2 co-sell breaks the
/// // frequency-group camouflage (Lemma 3 alone gives 3.0).
/// let pair = db.itemset_support(&[ItemId(0), ItemId(1)]) as f64 / 10.0;
/// let belief = PowersetBelief::item_only(items)
///     .with_set(ItemsetBelief::new(vec![0, 1], (pair, pair)).unwrap())
///     .unwrap();
/// let risk = assess_powerset_risk(&db, &belief).unwrap();
/// assert!(risk.oestimate() > 3.0);
/// ```
pub fn assess_powerset_risk(db: &Database, belief: &PowersetBelief) -> Result<PowersetRisk> {
    let n = db.n_items();
    if belief.items.n_items() != n {
        return Err(Error::DomainMismatch {
            expected: n,
            got: belief.items.n_items(),
        });
    }
    for set in &belief.sets {
        if set.items.len() > MAX_SET_SIZE {
            return Err(Error::InvalidParameter(format!(
                "set belief over {} items exceeds the supported maximum of {MAX_SET_SIZE}",
                set.items.len()
            )));
        }
    }

    // Level 1: the item-level graph.
    let supports = db.supports();
    let grouped = belief
        .items
        .build_graph(&supports, db.n_transactions() as u64);
    let mut graph = grouped.to_dense();
    let mut oracle = SupportOracle::new(db);

    // Level 2: arc-consistency against every set belief, to fixpoint.
    let mut pruned_edges = 0usize;
    let mut rounds = 0usize;
    loop {
        rounds += 1;
        let mut changed = false;
        for set in &belief.sets {
            for &a in &set.items {
                let candidates: Vec<usize> = (0..n).filter(|&x| graph.has_edge(x, a)).collect();
                for xp in candidates {
                    if !has_completion(&graph, &mut oracle, set, a, xp) {
                        graph.remove_edge(xp, a);
                        pruned_edges += 1;
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }

    let profile = OutdegreeProfile::propagated_dense(&graph)?;
    Ok(PowersetRisk {
        graph,
        pruned_edges,
        rounds,
        profile,
    })
}

/// Whether the claim "anonymized `xp` is original `a`" can be
/// completed for the believed set: distinct anonymized candidates
/// for the other members such that the joint observed frequency lies
/// in the believed interval.
fn has_completion(
    graph: &DenseBigraph,
    oracle: &mut SupportOracle<'_>,
    set: &ItemsetBelief,
    a: usize,
    xp: usize,
) -> bool {
    let rest: Vec<usize> = set.items.iter().copied().filter(|&b| b != a).collect();
    let mut chosen: Vec<u32> = vec![xp as u32];
    complete(graph, oracle, set.interval, &rest, 0, &mut chosen)
}

fn complete(
    graph: &DenseBigraph,
    oracle: &mut SupportOracle<'_>,
    interval: (f64, f64),
    rest: &[usize],
    depth: usize,
    chosen: &mut Vec<u32>,
) -> bool {
    if depth == rest.len() {
        let mut items = chosen.clone();
        let f = oracle.frequency(&mut items);
        let (l, r) = interval;
        return l <= f && f <= r;
    }
    let b = rest[depth];
    for yp in 0..graph.n() {
        let yp32 = yp as u32;
        if chosen.contains(&yp32) || !graph.has_edge(yp, b) {
            continue;
        }
        // Monotone prune: adding items to a set can only lower its
        // frequency, so if the partial set is already below `l`,
        // no completion can succeed.
        let mut partial = chosen.clone();
        partial.push(yp32);
        let pf = oracle.frequency(&mut partial);
        if pf < interval.0 {
            continue;
        }
        chosen.push(yp32);
        if complete(graph, oracle, interval, rest, depth + 1, chosen) {
            chosen.pop();
            return true;
        }
        chosen.pop();
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use andi_data::bigmart;

    fn point_belief(db: &Database) -> BeliefFunction {
        BeliefFunction::point_valued(&db.frequencies()).unwrap()
    }

    #[test]
    fn itemset_belief_validation() {
        assert!(ItemsetBelief::new(vec![1], (0.0, 1.0)).is_err());
        assert!(
            ItemsetBelief::new(vec![1, 1], (0.0, 1.0)).is_err(),
            "dedup to 1"
        );
        assert!(ItemsetBelief::new(vec![1, 2], (0.5, 0.4)).is_err());
        assert!(ItemsetBelief::new(vec![1, 2], (-0.1, 0.4)).is_err());
        let b = ItemsetBelief::new(vec![2, 1], (0.1, 0.2)).unwrap();
        assert_eq!(b.items(), &[1, 2]);
        assert_eq!(b.interval(), (0.1, 0.2));
    }

    #[test]
    fn no_set_beliefs_reduces_to_item_analysis() {
        let db = bigmart();
        let belief = PowersetBelief::item_only(point_belief(&db));
        let risk = assess_powerset_risk(&db, &belief).unwrap();
        assert_eq!(risk.pruned_edges, 0);
        // Item-level point-valued OE = g = 3 (Lemma 3).
        assert!((risk.oestimate() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn pair_knowledge_breaks_group_camouflage() {
        // BigMart: items 0,2,3,5 share frequency 0.5 and are
        // item-indistinguishable. Pair supports differ though:
        // {0,1} co-occur in 4 transactions while {2,1}, {3,1}, {5,1}
        // co-occur in 2, 1, 0. A hacker believing pair {0,1} has
        // frequency exactly 0.4 can eliminate 2, 3, 5 as identities
        // for 0'.
        let db = bigmart();
        assert_eq!(db.itemset_support(&[ItemId(0), ItemId(1)]), 4);
        let belief = PowersetBelief::item_only(point_belief(&db))
            .with_set(ItemsetBelief::new(vec![0, 1], (0.4, 0.4)).unwrap())
            .unwrap();
        let risk = assess_powerset_risk(&db, &belief).unwrap();
        assert!(risk.pruned_edges > 0, "pair knowledge must prune");
        // Item 0 is now uniquely identified (item 1 is a singleton
        // group, so x' = 1' is pinned; the pair then pins 0').
        assert!(
            risk.certain_cracks() >= 2,
            "certain = {}",
            risk.certain_cracks()
        );
        assert!(risk.oestimate() > 3.0, "risk rises above the item-level g");
    }

    #[test]
    fn wrong_pair_beliefs_can_empty_the_space() {
        // A pair belief no candidate pair satisfies kills every
        // completion.
        let db = bigmart();
        let belief = PowersetBelief::item_only(point_belief(&db))
            .with_set(ItemsetBelief::new(vec![0, 1], (0.99, 1.0)).unwrap())
            .unwrap();
        let err = assess_powerset_risk(&db, &belief).unwrap_err();
        assert_eq!(err, Error::EmptyMappingSpace);
    }

    #[test]
    fn triple_beliefs_are_supported() {
        let db = bigmart();
        // {0,1,2} co-occur in t2, t3: frequency 0.2.
        assert_eq!(db.itemset_support(&[ItemId(0), ItemId(1), ItemId(2)]), 2);
        let belief = PowersetBelief::item_only(point_belief(&db))
            .with_set(ItemsetBelief::new(vec![0, 1, 2], (0.2, 0.2)).unwrap())
            .unwrap();
        let risk = assess_powerset_risk(&db, &belief).unwrap();
        // The triple distinguishes 2' from 3'/5' (which have
        // different co-occurrence with {0,1}).
        assert!(risk.oestimate() >= 3.0 - 1e-9);
    }

    #[test]
    fn oversized_sets_are_rejected() {
        let db = bigmart();
        let belief = PowersetBelief::item_only(point_belief(&db))
            .with_set(ItemsetBelief::new(vec![0, 1, 2, 3, 4, 5], (0.0, 1.0)).unwrap())
            .unwrap();
        let err = assess_powerset_risk(&db, &belief).unwrap_err();
        assert!(matches!(err, Error::InvalidParameter(_)));
    }

    #[test]
    fn out_of_domain_sets_are_rejected() {
        let db = bigmart();
        let res = PowersetBelief::item_only(point_belief(&db))
            .with_set(ItemsetBelief::new(vec![0, 99], (0.0, 1.0)).unwrap());
        assert!(matches!(res, Err(Error::DomainMismatch { .. })));
    }

    #[test]
    fn vacuous_set_beliefs_prune_nothing() {
        let db = bigmart();
        let belief = PowersetBelief::item_only(point_belief(&db))
            .with_set(ItemsetBelief::new(vec![0, 1], (0.0, 1.0)).unwrap())
            .unwrap();
        let risk = assess_powerset_risk(&db, &belief).unwrap();
        assert_eq!(risk.pruned_edges, 0, "the [0,1] interval excludes nothing");
        assert!((risk.oestimate() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn set_knowledge_composes_with_interval_items() {
        // Even with loose item intervals, one sharp pair belief
        // raises the estimate.
        let db = bigmart();
        let items = BeliefFunction::widened(&db.frequencies(), 0.1).unwrap();
        let base = assess_powerset_risk(&db, &PowersetBelief::item_only(items.clone()))
            .unwrap()
            .oestimate();
        let sharp = assess_powerset_risk(
            &db,
            &PowersetBelief::item_only(items)
                .with_set(ItemsetBelief::new(vec![0, 1], (0.35, 0.45)).unwrap())
                .unwrap(),
        )
        .unwrap()
        .oestimate();
        assert!(
            sharp >= base - 1e-9,
            "set knowledge cannot lower the risk: {sharp} < {base}"
        );
    }
}
