//! Materializing a transaction database from a support profile.
//!
//! Given target supports `s_x` over `m` transactions, each item is
//! placed into exactly `s_x` distinct transactions chosen uniformly
//! at random. The resulting database reproduces the support profile
//! *exactly* (the quantity all of the paper's analysis consumes);
//! item co-occurrence is independent, which is the documented
//! substitution for the unavailable benchmark files (see DESIGN.md).
//!
//! Transactions must be non-empty; a transaction left empty by the
//! random placement receives one uniformly chosen item, whose support
//! grows by one (a vanishing perturbation for realistic profiles, and
//! counted by [`MaterializedDatabase::filled_transactions`]).

use rand::seq::index::sample as index_sample;
use rand::Rng;

use crate::database::Database;
use crate::item::ItemId;
use crate::transaction::Transaction;

/// A materialized database plus bookkeeping about the (rare) empty-
/// transaction repairs.
#[derive(Clone, Debug)]
pub struct MaterializedDatabase {
    /// The generated database.
    pub database: Database,
    /// Number of transactions that required a filler item.
    pub filled_transactions: usize,
}

/// Materializes a database with the given per-item supports over
/// `n_transactions` transactions.
///
/// # Panics
///
/// Panics if any support exceeds `n_transactions`, if the profile is
/// empty, or if `n_transactions` is zero.
pub fn materialize<R: Rng + ?Sized>(
    supports: &[u64],
    n_transactions: u64,
    rng: &mut R,
) -> MaterializedDatabase {
    assert!(!supports.is_empty(), "empty support profile");
    assert!(n_transactions > 0, "need at least one transaction");
    let m = n_transactions as usize;
    for (x, &s) in supports.iter().enumerate() {
        assert!(
            s <= n_transactions,
            "item {x} has support {s} > {n_transactions} transactions"
        );
    }

    let mut contents: Vec<Vec<ItemId>> = vec![Vec::new(); m];
    for (x, &s) in supports.iter().enumerate() {
        if s == 0 {
            continue;
        }
        for t in index_sample(rng, m, s as usize) {
            contents[t].push(ItemId(x as u32));
        }
    }

    let n_items = supports.len();
    let mut filled = 0usize;
    let transactions: Vec<Transaction> = contents
        .into_iter()
        .map(|mut items| {
            if items.is_empty() {
                filled += 1;
                items.push(ItemId(rng.gen_range(0..n_items as u32)));
            }
            items.sort_unstable();
            Transaction::from_sorted_unique(items)
        })
        .collect();

    // The generator pads every transaction to non-empty and ids stay
    // < n_items, so the trusted constructor applies.
    let database = Database::from_trusted(n_items, transactions);
    MaterializedDatabase {
        database,
        filled_transactions: filled,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn supports_match_exactly_without_fills() {
        let mut rng = StdRng::seed_from_u64(21);
        // Dense enough that no transaction stays empty.
        let supports = vec![90, 80, 70, 95, 60];
        let md = materialize(&supports, 100, &mut rng);
        assert_eq!(md.filled_transactions, 0);
        assert_eq!(md.database.supports(), supports);
        assert_eq!(md.database.n_transactions(), 100);
    }

    #[test]
    fn fills_report_support_drift() {
        let mut rng = StdRng::seed_from_u64(22);
        // Extremely sparse: most transactions will be empty.
        let supports = vec![1, 1];
        let md = materialize(&supports, 50, &mut rng);
        assert!(md.filled_transactions >= 46);
        let got = md.database.supports();
        // Each fill bumps exactly one item by one.
        let drift: u64 = got.iter().sum::<u64>() - 2;
        assert_eq!(drift, md.filled_transactions as u64);
    }

    #[test]
    fn zero_support_items_appear_only_as_fills() {
        let mut rng = StdRng::seed_from_u64(23);
        let supports = vec![10, 0];
        let md = materialize(&supports, 10, &mut rng);
        assert_eq!(md.filled_transactions, 0);
        assert_eq!(md.database.supports(), vec![10, 0]);
    }

    #[test]
    #[should_panic(expected = "support")]
    fn rejects_support_above_m() {
        let mut rng = StdRng::seed_from_u64(24);
        let _ = materialize(&[11], 10, &mut rng);
    }

    #[test]
    fn deterministic_under_seed() {
        let supports = vec![5, 3, 8, 2];
        let a = materialize(&supports, 10, &mut StdRng::seed_from_u64(25));
        let b = materialize(&supports, 10, &mut StdRng::seed_from_u64(25));
        for (ta, tb) in a
            .database
            .transactions()
            .iter()
            .zip(b.database.transactions())
        {
            assert_eq!(ta.items(), tb.items());
        }
    }

    #[test]
    fn all_transactions_nonempty() {
        let mut rng = StdRng::seed_from_u64(26);
        let supports = vec![2, 3, 1, 1];
        let md = materialize(&supports, 20, &mut rng);
        assert!(md.database.transactions().iter().all(|t| !t.is_empty()));
    }
}
