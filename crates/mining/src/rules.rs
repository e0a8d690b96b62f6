//! Association-rule generation from frequent itemsets.
//!
//! The paper's lineage (\[6\], \[10\], \[26\]) is association-rule mining:
//! rules `A => B` with support and confidence thresholds. Rules are
//! generated from a [`MiningResult`] by splitting each frequent
//! itemset into antecedent/consequent and reading supports off the
//! result — no extra database passes.

use andi_data::ItemId;

use crate::itemset::{Itemset, MiningResult};

/// An association rule `antecedent => consequent` with its measures.
#[derive(Clone, Debug, PartialEq)]
pub struct Rule {
    /// Left-hand side (non-empty).
    pub antecedent: Itemset,
    /// Right-hand side (non-empty, disjoint from the antecedent).
    pub consequent: Itemset,
    /// Support count of the full itemset.
    pub support: u64,
    /// `support(A ∪ B) / support(A)`.
    pub confidence: f64,
    /// `confidence / P(B)` — independence-normalized strength.
    pub lift: f64,
}

impl std::fmt::Display for Rule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} => {} (sup {}, conf {:.2}, lift {:.2})",
            self.antecedent, self.consequent, self.support, self.confidence, self.lift
        )
    }
}

/// Generates all rules meeting `min_confidence` from the frequent
/// itemsets of `result`.
///
/// `n_transactions` is needed for lift. Rules whose antecedent or
/// consequent support is missing from the result (possible only if
/// the result was filtered externally) are skipped.
///
/// # Panics
///
/// Panics if `min_confidence` is outside `[0, 1]` or
/// `n_transactions` is zero.
/// # Examples
///
/// ```
/// use andi_data::bigmart;
/// use andi_mining::{fpgrowth, generate_rules};
///
/// let db = bigmart();
/// let frequent = fpgrowth(&db, 4);
/// let rules = generate_rules(&frequent, db.n_transactions() as u64, 0.9);
/// assert!(!rules.is_empty());
/// assert!(rules.iter().all(|r| r.confidence >= 0.9));
/// ```
pub fn generate_rules(
    result: &MiningResult,
    n_transactions: u64,
    min_confidence: f64,
) -> Vec<Rule> {
    assert!(
        (0.0..=1.0).contains(&min_confidence),
        "confidence must be in [0, 1]"
    );
    assert!(n_transactions > 0, "need at least one transaction");
    let m = n_transactions as f64;
    let mut rules = Vec::new();
    for (itemset, support) in result.iter() {
        let k = itemset.len();
        if k < 2 {
            continue;
        }
        // Every non-empty proper subset as antecedent.
        let items = itemset.items();
        for mask in 1..((1u64 << k) - 1) {
            let antecedent: Vec<ItemId> = (0..k)
                .filter(|&i| mask & (1 << i) != 0)
                .map(|i| items[i])
                .collect();
            let consequent: Vec<ItemId> = (0..k)
                .filter(|&i| mask & (1 << i) == 0)
                .map(|i| items[i])
                .collect();
            let a = Itemset::from_sorted_unique(antecedent);
            let c = Itemset::from_sorted_unique(consequent);
            let (Some(sa), Some(sc)) = (result.support(&a), result.support(&c)) else {
                continue;
            };
            let confidence = support as f64 / sa as f64;
            if confidence + 1e-12 < min_confidence {
                continue;
            }
            let lift = confidence / (sc as f64 / m);
            rules.push(Rule {
                antecedent: a,
                consequent: c,
                support,
                confidence,
                lift,
            });
        }
    }
    rules.sort_by(|a, b| {
        b.confidence
            .total_cmp(&a.confidence)
            .then_with(|| b.support.cmp(&a.support))
            .then_with(|| a.antecedent.cmp(&b.antecedent))
            .then_with(|| a.consequent.cmp(&b.consequent))
    });
    rules
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fpgrowth::fpgrowth;
    use andi_data::bigmart;

    fn set(ids: &[u32]) -> Itemset {
        Itemset::new(ids.iter().map(|&i| ItemId(i)))
    }

    #[test]
    fn generates_bigmart_rules() {
        let db = bigmart();
        let result = fpgrowth(&db, 4);
        let rules = generate_rules(&result, db.n_transactions() as u64, 0.8);
        // {0,1} has support 4, item 1 support 4 -> rule 1 => 0 has
        // confidence 1.0.
        let rule = rules
            .iter()
            .find(|r| r.antecedent == set(&[1]) && r.consequent == set(&[0]))
            .expect("1 => 0 must qualify");
        assert!((rule.confidence - 1.0).abs() < 1e-12);
        assert_eq!(rule.support, 4);
        // lift = 1.0 / 0.5 = 2.
        assert!((rule.lift - 2.0).abs() < 1e-12);
    }

    #[test]
    fn confidence_threshold_filters() {
        let db = bigmart();
        let result = fpgrowth(&db, 4);
        let all = generate_rules(&result, 10, 0.0);
        let strict = generate_rules(&result, 10, 0.9);
        assert!(strict.len() < all.len());
        assert!(strict.iter().all(|r| r.confidence >= 0.9 - 1e-12));
    }

    #[test]
    fn rules_are_sorted_by_confidence() {
        let db = bigmart();
        let result = fpgrowth(&db, 2);
        let rules = generate_rules(&result, 10, 0.5);
        for w in rules.windows(2) {
            assert!(w[0].confidence >= w[1].confidence - 1e-12);
        }
    }

    #[test]
    fn antecedent_and_consequent_partition_the_itemset() {
        let db = bigmart();
        let result = fpgrowth(&db, 2);
        for r in generate_rules(&result, 10, 0.0) {
            let union = r.antecedent.union(&r.consequent);
            assert!(result.support(&union).is_some());
            assert!(!r.antecedent.is_empty());
            assert!(!r.consequent.is_empty());
            // Disjoint by construction.
            for x in r.antecedent.items() {
                assert!(!r.consequent.items().contains(x));
            }
        }
    }

    #[test]
    fn no_rules_from_singletons_only() {
        let db = bigmart();
        let result = fpgrowth(&db, 6); // nothing co-occurs 6 times
        assert!(result.iter().all(|(s, _)| s.len() == 1));
        assert!(generate_rules(&result, 10, 0.0).is_empty());
    }

    #[test]
    fn display_is_readable() {
        let db = bigmart();
        let result = fpgrowth(&db, 4);
        let rules = generate_rules(&result, 10, 0.9);
        let text = rules[0].to_string();
        assert!(text.contains("=>"), "{text}");
        assert!(text.contains("conf"), "{text}");
    }
}
