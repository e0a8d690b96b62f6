//! The transaction database `D` and its support/frequency profile.
//!
//! Following Section 2.1, a database is a sequence of transactions
//! over a dense item domain `0..n`. The frequency of an item is the
//! fraction of transactions containing it. All of the paper's
//! belief-function machinery consumes only the *support profile*
//! (the per-item transaction counts), which [`Database::supports`]
//! computes in a single pass.

use crate::item::ItemId;
use crate::transaction::Transaction;

/// A transaction database over a dense domain of `n_items` items.
// andi::declassify(Debug renders the full transaction list for test diagnostics and oracle counterexample shrinking; no production path formats a Database)
#[derive(Clone, Debug)]
pub struct Database {
    n_items: usize,
    // andi::sensitive — every owner's raw transaction row
    transactions: Vec<Transaction>,
}

impl Database {
    /// Creates a database over `n_items` items from the given
    /// transactions.
    ///
    /// # Errors
    ///
    /// Returns an error message if any transaction references an item
    /// `>= n_items` or if there are no transactions at all.
    pub fn new(n_items: usize, transactions: Vec<Transaction>) -> Result<Self, String> {
        if transactions.is_empty() {
            return Err("a database must contain at least one transaction".into());
        }
        for (i, t) in transactions.iter().enumerate() {
            // Items are sorted, so checking the maximum suffices. The
            // error reports the index and domain only — naming the
            // item would echo an element of the owner's basket.
            if let Some(&max) = t.items().last() {
                if max.index() >= n_items {
                    return Err(format!(
                        "transaction {i} references an item outside domain 0..{n_items}"
                    ));
                }
            }
        }
        Ok(Database {
            n_items,
            transactions,
        })
    }

    /// Crate-internal constructor for transactions the caller already
    /// validated (subsamplers and generators that build every
    /// transaction non-empty and in-domain). Debug builds re-check
    /// the [`Database::new`] invariants; release builds skip the
    /// pass — no panic path, so no suppression needed at call sites.
    pub(crate) fn from_trusted(n_items: usize, transactions: Vec<Transaction>) -> Self {
        debug_assert!(
            !transactions.is_empty(),
            "trusted databases hold at least one transaction"
        );
        debug_assert!(
            transactions
                .iter()
                .all(|t| t.items().last().is_some_and(|x| x.index() < n_items)),
            "trusted transactions stay inside the domain 0..{n_items}"
        );
        Database {
            n_items,
            transactions,
        }
    }

    /// Domain size `n = |I|`.
    #[inline]
    pub fn n_items(&self) -> usize {
        self.n_items
    }

    /// Number of transactions `m = |D|`.
    #[inline]
    pub fn n_transactions(&self) -> usize {
        self.transactions.len()
    }

    /// The transactions in order.
    #[inline]
    pub fn transactions(&self) -> &[Transaction] {
        &self.transactions
    }

    /// Per-item support counts: `supports()[x]` is the number of
    /// transactions containing item `x`. Single database pass.
    pub fn supports(&self) -> Vec<u64> {
        let mut counts = vec![0u64; self.n_items];
        for t in &self.transactions {
            for item in t {
                counts[item.index()] += 1;
            }
        }
        counts
    }

    /// Support count of a single itemset (sorted item list): the
    /// number of transactions containing every item of the set.
    pub fn itemset_support(&self, sorted_items: &[ItemId]) -> u64 {
        self.transactions
            .iter()
            .filter(|t| t.contains_all(sorted_items))
            .count() as u64
    }

    /// Per-item frequencies `support / m` as `f64`.
    pub fn frequencies(&self) -> Vec<f64> {
        let m = self.n_transactions() as f64;
        self.supports().iter().map(|&c| c as f64 / m).collect()
    }

    /// Frequency of one item.
    pub fn frequency(&self, item: ItemId) -> f64 {
        let c = self
            .transactions
            .iter()
            .filter(|t| t.contains(item))
            .count();
        c as f64 / self.n_transactions() as f64
    }

    /// Total number of item occurrences across all transactions.
    pub fn total_occurrences(&self) -> u64 {
        self.transactions.iter().map(|t| t.len() as u64).sum()
    }

    /// Average transaction length.
    pub fn avg_transaction_len(&self) -> f64 {
        self.total_occurrences() as f64 / self.n_transactions() as f64
    }

    /// Applies a per-item relabeling `relabel[x] -> new id` to every
    /// transaction, producing a new database over the same domain
    /// size.
    ///
    /// This is the mechanical half of anonymization (Section 2.1):
    /// the core crate wraps it with the typed
    /// `AnonymizationMapping`. The relabeling must be a permutation
    /// of `0..n`.
    ///
    /// # Errors
    ///
    /// Returns an error if `relabel` is not a permutation of the
    /// domain.
    pub fn relabel(&self, relabel: &[u32]) -> Result<Self, String> {
        if relabel.len() != self.n_items {
            return Err(format!(
                "relabeling has {} entries for a domain of {}",
                relabel.len(),
                self.n_items
            ));
        }
        let mut seen = vec![false; self.n_items];
        for &t in relabel {
            let t = t as usize;
            if t >= self.n_items || seen[t] {
                return Err("relabeling is not a permutation of the domain".into());
            }
            seen[t] = true;
        }
        let transactions = self
            .transactions
            .iter()
            .map(|t| {
                Transaction::new(t.iter().map(|x| ItemId(relabel[x.index()])))
                    // andi::allow(lib-unwrap) — relabeling is a bijection, so a non-empty transaction stays non-empty
                    .expect("relabeled transaction stays non-empty")
            })
            .collect();
        Ok(Database {
            n_items: self.n_items,
            transactions,
        })
    }
}

/// The BigMart example database of Figure 1, used throughout the
/// paper (and throughout our test suite).
///
/// Six items with frequencies 0.5, 0.4, 0.5, 0.5, 0.3, 0.5 over ten
/// transactions. Items are 0-based here (paper's item `1` is our
/// `ItemId(0)`).
pub fn bigmart() -> Database {
    // Supports: item0 5, item1 4, item2 5, item3 5, item4 3, item5 5.
    // Item k occupies a contiguous run of transactions:
    //   item0: t0..t4, item1: t0..t3, item2: t2..t6,
    //   item3: t4..t8, item4: t7..t9, item5: t5..t9.
    //
    // Each row is sorted, duplicate-free, and within 0..6, so the
    // trusted constructors apply directly — no fallible path, no
    // suppression; debug builds re-check the invariants.
    let raw: [&[u32]; 10] = [
        &[0, 1],
        &[0, 1],
        &[0, 1, 2],
        &[0, 1, 2],
        &[0, 2, 3],
        &[2, 3, 5],
        &[2, 3, 5],
        &[3, 4, 5],
        &[3, 4, 5],
        &[4, 5],
    ];
    let txs = raw
        .iter()
        .map(|r| Transaction::from_sorted_unique(r.iter().map(|&x| ItemId(x)).collect()))
        .collect();
    Database::from_trusted(6, txs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bigmart_matches_paper_frequencies() {
        let db = bigmart();
        assert_eq!(db.n_items(), 6);
        assert_eq!(db.n_transactions(), 10);
        let f = db.frequencies();
        let expected = [0.5, 0.4, 0.5, 0.5, 0.3, 0.5];
        for (i, (&got, &want)) in f.iter().zip(expected.iter()).enumerate() {
            assert!((got - want).abs() < 1e-12, "item {i}: {got} != {want}");
        }
    }

    #[test]
    fn supports_single_pass_agrees_with_per_item() {
        let db = bigmart();
        let s = db.supports();
        for (x, &sx) in s.iter().enumerate() {
            let f = db.frequency(ItemId(x as u32));
            assert!((f - sx as f64 / 10.0).abs() < 1e-12);
        }
    }

    #[test]
    fn rejects_out_of_domain_items() {
        let tx = Transaction::new([ItemId(0), ItemId(5)]).unwrap();
        let err = Database::new(2, vec![tx]).unwrap_err();
        assert!(err.contains("outside domain"), "got: {err}");
    }

    #[test]
    fn rejects_empty_database() {
        let err = Database::new(3, vec![]).unwrap_err();
        assert!(err.contains("at least one transaction"));
    }

    #[test]
    fn itemset_support_counts_containing_transactions() {
        let db = bigmart();
        // Items {3, 5} co-occur in transactions t5..t8 -> support 4.
        assert_eq!(db.itemset_support(&[ItemId(3), ItemId(5)]), 4);
        assert_eq!(db.itemset_support(&[ItemId(4)]), 3);
        // Empty itemset is contained in every transaction.
        assert_eq!(db.itemset_support(&[]), 10);
    }

    #[test]
    fn relabel_permutes_supports() {
        let db = bigmart();
        // Reverse permutation.
        let relabel: Vec<u32> = (0..6u32).rev().collect();
        let anon = db.relabel(&relabel).unwrap();
        let s = db.supports();
        let s2 = anon.supports();
        for (x, &sx) in s.iter().enumerate() {
            assert_eq!(sx, s2[5 - x], "support must follow the relabeling");
        }
        assert_eq!(anon.total_occurrences(), db.total_occurrences());
    }

    #[test]
    fn relabel_rejects_non_permutations() {
        let db = bigmart();
        assert!(db.relabel(&[0, 0, 1, 2, 3, 4]).is_err(), "duplicate target");
        assert!(db.relabel(&[0, 1, 2]).is_err(), "wrong length");
        assert!(db.relabel(&[0, 1, 2, 3, 4, 9]).is_err(), "out of range");
    }

    #[test]
    fn avg_transaction_len() {
        let mut builder = crate::DatabaseBuilder::new(3);
        builder.add([0]).unwrap().add([0, 1, 2]).unwrap();
        let db = builder.build().unwrap();
        assert!((db.avg_transaction_len() - 2.0).abs() < 1e-12);
    }
}
