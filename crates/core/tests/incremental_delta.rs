//! Property tests of the `DeltaBatch` algebra on
//! `apply_edits_to_summary`, the function `POST /update` runs:
//!
//! * `apply(a)` then `apply(b)` reaches the same summary as
//!   `apply(a ⧺ b)`;
//! * the empty batch is the identity;
//! * inserting a transaction and then deleting it restores the
//!   summary exactly.
//!
//! Every property compares both the summary `(supports, m)` and its
//! `summary_fingerprint`.
//!
//! A rate-zero fault schedule is installed around each case so a chaos
//! schedule from the ambient `ANDI_FAULTS` cannot fire the
//! `incremental.delta` probe here: surviving injected faults is the
//! chaos suite's job; this suite pins the algebra itself.

use andi_core::{apply_edits_to_summary, summary_fingerprint, DeltaBatch, Edit};
use andi_graph::FaultSchedule;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Strategy: a small summary (supports over m) plus an RNG seed.
fn summary() -> impl Strategy<Value = (Vec<u64>, u64, u64)> {
    (4u64..40, 1u64..u64::MAX)
        .prop_flat_map(|(m, seed)| (prop::collection::vec(0..=m, 2..10), Just(m), Just(seed)))
}

/// A strictly increasing non-empty item subset.
fn random_items(rng: &mut StdRng, n: usize) -> Vec<usize> {
    loop {
        let items: Vec<usize> = (0..n).filter(|_| rng.gen_bool(0.4)).collect();
        if !items.is_empty() {
            return items;
        }
    }
}

/// Generates `k` edits that stay valid against the running summary.
/// Candidates are screened with `apply_edits_to_summary`; inserts are
/// the always-valid fallback.
fn random_batch(rng: &mut StdRng, supports: &mut Vec<u64>, m: &mut u64, k: usize) -> DeltaBatch {
    let n = supports.len();
    let mut edits = Vec::with_capacity(k);
    for _ in 0..k {
        let candidate = match rng.gen_range(0..3u32) {
            0 => Edit::Insert {
                items: random_items(rng, n),
            },
            1 => Edit::Delete {
                items: random_items(rng, n),
            },
            _ => Edit::Replace {
                old: random_items(rng, n),
                new: random_items(rng, n),
            },
        };
        let single = DeltaBatch::new(vec![candidate.clone()]);
        let chosen = match apply_edits_to_summary(supports, *m, &single) {
            Ok((s, new_m)) => {
                *supports = s;
                *m = new_m;
                candidate
            }
            Err(_) => {
                let items = random_items(rng, n);
                for &i in &items {
                    supports[i] += 1;
                }
                *m += 1;
                Edit::Insert { items }
            }
        };
        edits.push(chosen);
    }
    DeltaBatch::new(edits)
}

/// Asserts two summaries are equal, and so are their fingerprints.
fn assert_same_summary(a: &(Vec<u64>, u64), b: &(Vec<u64>, u64), what: &str) {
    assert_eq!(a, b, "{what}: summary");
    assert_eq!(
        summary_fingerprint(&a.0, a.1),
        summary_fingerprint(&b.0, b.1),
        "{what}: fingerprint"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// `apply(a) ∘ apply(b)` ≡ `apply(a ⧺ b)`.
    #[test]
    fn sequential_application_equals_concatenation(
        (supports, m, seed) in summary(),
        ka in 1usize..5,
        kb in 1usize..5,
    ) {
        let _quiet = FaultSchedule::parse("1:0").unwrap().install();
        let mut rng = StdRng::seed_from_u64(seed);
        let (mut s, mut cur_m) = (supports.clone(), m);
        let a = random_batch(&mut rng, &mut s, &mut cur_m, ka);
        let b = random_batch(&mut rng, &mut s, &mut cur_m, kb);

        let (mid_s, mid_m) = apply_edits_to_summary(&supports, m, &a).unwrap();
        let seq = apply_edits_to_summary(&mid_s, mid_m, &b).unwrap();
        let ab = DeltaBatch::new(a.edits.iter().cloned().chain(b.edits).collect());
        let whole = apply_edits_to_summary(&supports, m, &ab).unwrap();

        assert_same_summary(&seq, &whole, "a;b vs a++b");
        // The generator tracked the same running summary edit by edit.
        assert_same_summary(&seq, &(s, cur_m), "a;b vs generator");
    }

    /// The empty batch changes nothing.
    #[test]
    fn empty_batch_is_the_identity((supports, m, _seed) in summary()) {
        let _quiet = FaultSchedule::parse("1:0").unwrap().install();
        let out = apply_edits_to_summary(&supports, m, &DeltaBatch::default()).unwrap();
        assert_same_summary(&out, &(supports, m), "empty batch");
    }

    /// Insert a transaction, delete the same transaction: the summary
    /// and its fingerprint round-trip.
    #[test]
    fn insert_then_delete_round_trips((supports, m, seed) in summary()) {
        let _quiet = FaultSchedule::parse("1:0").unwrap().install();
        let mut rng = StdRng::seed_from_u64(seed);
        let items = random_items(&mut rng, supports.len());
        let before = summary_fingerprint(&supports, m);

        let insert = DeltaBatch::new(vec![Edit::Insert { items: items.clone() }]);
        let (s1, m1) = apply_edits_to_summary(&supports, m, &insert).unwrap();
        prop_assert!(summary_fingerprint(&s1, m1) != before, "insert must move the summary");
        let delete = DeltaBatch::new(vec![Edit::Delete { items }]);
        let back = apply_edits_to_summary(&s1, m1, &delete).unwrap();
        assert_same_summary(&back, &(supports, m), "insert/delete round trip");
    }
}
