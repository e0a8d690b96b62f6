//! Robustness tests: arbitrary inputs must produce clean errors,
//! never panics, and parse/serialize round-trips must be lossless.

use andi_data::fimi::{read_fimi, write_fimi};
use andi_data::sample::sample_count;
use andi_data::stats::FrequencyGroups;
use andi_data::DatabaseBuilder;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The FIMI parser never panics on arbitrary bytes.
    #[test]
    fn fimi_parser_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let _ = read_fimi(bytes.as_slice());
    }

    /// The FIMI parser never panics on arbitrary ASCII-ish text
    /// (digits, spaces, newlines, stray punctuation).
    #[test]
    fn fimi_parser_handles_messy_text(
        text in "[0-9 \t\r\n.,;x-]{0,256}"
    ) {
        let _ = read_fimi(text.as_bytes());
    }

    /// Valid databases round-trip through FIMI exactly.
    #[test]
    fn fimi_roundtrip(
        txs in prop::collection::vec(
            prop::collection::btree_set(0u32..40, 1..8),
            1..30,
        )
    ) {
        let mut builder = DatabaseBuilder::new(40);
        for t in &txs {
            builder.add(t.iter().copied()).unwrap();
        }
        let db = builder.build().unwrap();
        let mut buf = Vec::new();
        write_fimi(&db, &mut buf).unwrap();
        let parsed = read_fimi(buf.as_slice()).unwrap();
        // Dense ids can shift (unused items vanish), but the
        // transaction structure survives via the raw-id map.
        prop_assert_eq!(parsed.database.n_transactions(), db.n_transactions());
        for (orig, back) in db.transactions().iter().zip(parsed.database.transactions()) {
            let recovered: Vec<u64> =
                back.iter().map(|x| parsed.raw_ids[x.index()]).collect();
            let original: Vec<u64> =
                orig.iter().map(|x| x.0 as u64).collect();
            prop_assert_eq!(recovered, original);
        }
    }

    /// Frequency-group decomposition always partitions the domain
    /// with strictly increasing supports.
    #[test]
    fn frequency_groups_partition(
        supports in prop::collection::vec(0u64..100, 1..60)
    ) {
        let fg = FrequencyGroups::from_supports(&supports, 100);
        prop_assert_eq!(fg.n_items(), supports.len());
        let mut seen = vec![false; supports.len()];
        let mut last_support = None;
        for g in &fg.groups {
            if let Some(prev) = last_support {
                prop_assert!(g.support > prev, "groups must strictly increase");
            }
            last_support = Some(g.support);
            for &x in &g.items {
                prop_assert!(!seen[x.index()], "item in two groups");
                seen[x.index()] = true;
                prop_assert_eq!(supports[x.index()], g.support);
            }
        }
        prop_assert!(seen.iter().all(|&b| b));
    }

    /// Sampling preserves the per-item support ordering constraint:
    /// a sample's support never exceeds the original.
    #[test]
    fn sample_supports_bounded(
        txs in prop::collection::vec(
            prop::collection::btree_set(0u32..20, 1..6),
            2..25,
        ),
        seed in 0u64..1000,
        keep_half in prop::bool::ANY,
    ) {
        let mut builder = DatabaseBuilder::new(20);
        for t in &txs {
            builder.add(t.iter().copied()).unwrap();
        }
        let db = builder.build().unwrap();
        let k = if keep_half { (db.n_transactions() / 2).max(1) } else { 1 };
        let mut rng = StdRng::seed_from_u64(seed);
        let s = sample_count(&db, k, &mut rng);
        let orig = db.supports();
        for (x, &sup) in s.supports().iter().enumerate() {
            prop_assert!(sup <= orig[x]);
        }
        prop_assert_eq!(s.n_transactions(), k);
    }

    /// Relabeling by any permutation is always invertible.
    #[test]
    fn relabel_invertible(
        txs in prop::collection::vec(
            prop::collection::btree_set(0u32..12, 1..6),
            1..15,
        ),
        seed in 0u64..1000,
    ) {
        use rand::seq::SliceRandom;
        let mut builder = DatabaseBuilder::new(12);
        for t in &txs {
            builder.add(t.iter().copied()).unwrap();
        }
        let db = builder.build().unwrap();
        let mut forward: Vec<u32> = (0..12).collect();
        forward.shuffle(&mut StdRng::seed_from_u64(seed));
        let mut backward = vec![0u32; 12];
        for (x, &xp) in forward.iter().enumerate() {
            backward[xp as usize] = x as u32;
        }
        let there = db.relabel(&forward).unwrap();
        let back = there.relabel(&backward).unwrap();
        for (a, b) in db.transactions().iter().zip(back.transactions()) {
            prop_assert_eq!(a.items(), b.items());
        }
    }
}

/// Non-proptest regression: a FIMI file full of huge ids parses
/// without overflow.
#[test]
fn fimi_large_ids() {
    let text = "18446744073709551615 7\n7\n";
    let ds = read_fimi(text.as_bytes()).unwrap();
    assert_eq!(ds.database.n_items(), 2);
    assert_eq!(ds.raw_ids[1], u64::MAX);
}

/// Ids beyond u64 produce a clean error.
#[test]
fn fimi_overflowing_ids_error() {
    let err = read_fimi("184467440737095516160\n".as_bytes()).unwrap_err();
    assert!(err.contains("invalid item token"), "got: {err}");
}

/// A database with one item in every transaction has a single group.
#[test]
fn degenerate_uniform_database() {
    let mut builder = DatabaseBuilder::new(1);
    builder
        .add([0])
        .unwrap()
        .add([0])
        .unwrap()
        .add([0])
        .unwrap();
    let db = builder.build().unwrap();
    let fg = FrequencyGroups::of_database(&db);
    assert_eq!(fg.n_groups(), 1);
    assert!(fg.median_gap().is_none());
}
