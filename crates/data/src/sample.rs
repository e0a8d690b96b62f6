//! Transaction sampling (the `D_p ⊂ D` of Figure 13).
//!
//! The Similarity-by-Sampling procedure draws samples of the original
//! database to simulate an attacker holding "similar" data. The
//! sample is exact-size and without replacement (what a p% sample of
//! the transaction list means operationally); the paper's procedure
//! is agnostic, and exact-size sampling gives better-behaved small
//! samples than a Bernoulli per-transaction draw.

use rand::seq::SliceRandom;
use rand::Rng;

use crate::database::Database;

/// Draws a sample of exactly `⌈fraction · m⌉` transactions without
/// replacement (at least one transaction — a database must stay
/// non-empty).
///
/// # Panics
///
/// Panics if `fraction` is not within `(0, 1]`.
pub fn sample_fraction<R: Rng + ?Sized>(db: &Database, fraction: f64, rng: &mut R) -> Database {
    assert!(
        fraction > 0.0 && fraction <= 1.0,
        "sample fraction must be in (0, 1], got {fraction}"
    );
    let m = db.n_transactions();
    let k = ((fraction * m as f64).ceil() as usize).clamp(1, m);
    sample_count(db, k, rng)
}

/// Draws a sample of exactly `k` transactions without replacement.
///
/// # Panics
///
/// Panics if `k` is zero or exceeds the number of transactions.
pub fn sample_count<R: Rng + ?Sized>(db: &Database, k: usize, rng: &mut R) -> Database {
    let m = db.n_transactions();
    assert!(k >= 1 && k <= m, "sample size {k} out of range 1..={m}");
    let mut idx: Vec<usize> = (0..m).collect();
    idx.shuffle(rng);
    idx.truncate(k);
    idx.sort_unstable(); // keep original transaction order
    let transactions = idx
        .into_iter()
        .map(|i| db.transactions()[i].clone())
        .collect();
    // The transactions come from a validated Database and k >= 1
    // keeps at least one, so the trusted constructor applies.
    Database::from_trusted(db.n_items(), transactions)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::bigmart;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn sample_count_exact_size() {
        let db = bigmart();
        let mut rng = StdRng::seed_from_u64(1);
        for k in 1..=10 {
            let s = sample_count(&db, k, &mut rng);
            assert_eq!(s.n_transactions(), k);
            assert_eq!(s.n_items(), db.n_items());
        }
    }

    #[test]
    fn sample_fraction_rounds_up() {
        let db = bigmart(); // 10 transactions
        let mut rng = StdRng::seed_from_u64(2);
        assert_eq!(sample_fraction(&db, 0.05, &mut rng).n_transactions(), 1);
        assert_eq!(sample_fraction(&db, 0.25, &mut rng).n_transactions(), 3);
        assert_eq!(sample_fraction(&db, 1.0, &mut rng).n_transactions(), 10);
    }

    #[test]
    #[should_panic(expected = "sample fraction")]
    fn sample_fraction_rejects_zero() {
        let db = bigmart();
        let mut rng = StdRng::seed_from_u64(3);
        let _ = sample_fraction(&db, 0.0, &mut rng);
    }

    #[test]
    fn full_sample_is_the_database() {
        let db = bigmart();
        let mut rng = StdRng::seed_from_u64(4);
        let s = sample_count(&db, db.n_transactions(), &mut rng);
        assert_eq!(s.supports(), db.supports());
    }

    #[test]
    fn samples_are_sub_multisets() {
        let db = bigmart();
        let mut rng = StdRng::seed_from_u64(5);
        let s = sample_count(&db, 4, &mut rng);
        // Every sampled transaction occurs at least as often in the
        // original database.
        for t in s.transactions() {
            let in_sample = s.transactions().iter().filter(|u| u == &t).count();
            let in_db = db.transactions().iter().filter(|u| u == &t).count();
            assert!(in_sample <= in_db);
        }
    }

    #[test]
    fn sampling_is_deterministic_under_seed() {
        let db = bigmart();
        let a = sample_count(&db, 5, &mut StdRng::seed_from_u64(7));
        let b = sample_count(&db, 5, &mut StdRng::seed_from_u64(7));
        assert_eq!(a.supports(), b.supports());
    }
}
