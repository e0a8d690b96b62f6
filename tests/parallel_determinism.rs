//! The parallel layer's determinism contract, property-tested end to
//! end: every threaded hot path — the budgeted recipe, the budgeted
//! Ryser permanent, the budgeted sharded sampler — must return
//! **bit-identical** results at every thread count from 1 to 8 under
//! an unlimited budget, across random graphs, beliefs, seeds and
//! schedules. (`andi_core::parallel` documents the contract; these
//! tests are its teeth.)

use andi_core::{assess_risk_budgeted, compliant_count, BeliefFunction, RecipeConfig};
use andi_graph::permanent::try_permanent_of_rows_budgeted;
use andi_graph::sampler::{sample_cracks_budgeted, SamplerConfig};
use andi_graph::{Budget, GroupedBigraph, Matching};
use proptest::prelude::*;

/// Strategy: supports plus a compliant widened belief over m = 60,
/// rendered as a grouped graph.
fn grouped_graph() -> impl Strategy<Value = GroupedBigraph> {
    (2usize..=10).prop_flat_map(|n| {
        (prop::collection::vec(1u64..60, n), 0.0f64..0.3).prop_map(|(supports, delta)| {
            let freqs: Vec<f64> = supports.iter().map(|&s| s as f64 / 60.0).collect();
            let belief = BeliefFunction::widened(&freqs, delta).unwrap();
            belief.build_graph(&supports, 60)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The budgeted recipe — whose exact rung walks Ryser on the
    /// worker pool — returns the same transcript, answering rung and
    /// trips at every thread count, whatever the tolerance.
    #[test]
    fn budgeted_recipe_is_identical_across_threads(
        supports in prop::collection::vec(1u64..60, 2..=10),
        tau_pct in 1u32..=100,
    ) {
        let config = RecipeConfig {
            tolerance: f64::from(tau_pct) / 100.0,
            ..RecipeConfig::default()
        };
        // `{:?}` prints every f64 so that it reads back to the same
        // bits; `spent_ms` is wall-clock and left out.
        let run = |threads: usize| {
            match assess_risk_budgeted(&supports, 60, &config, &Budget::unlimited(), threads) {
                Ok(b) => format!(
                    "{:?} rung={:?} trips={:?}",
                    b.assessment, b.provenance.rung, b.provenance.trips
                ),
                Err(e) => format!("err {e:?}"),
            }
        };
        let serial = run(1);
        for threads in 2..=8 {
            prop_assert_eq!(run(threads), serial.clone(), "threads={}", threads);
        }
    }

    /// The chunked Ryser walk equals the one-worker walk exactly
    /// (integer arithmetic, so no tolerance at all) on random row
    /// masks. n = 16 splits into 8 fixed chunk tasks.
    #[test]
    fn permanent_is_identical_across_threads(
        rows in prop::collection::vec(1u64..(1 << 16), 16),
        extra_density in 0u64..(1 << 16),
    ) {
        let n = rows.len();
        // Mix in a shared mask so some instances are dense.
        let rows: Vec<u64> = rows.iter().map(|&r| r | extra_density).collect();
        let b = Budget::unlimited();
        let serial = try_permanent_of_rows_budgeted(&rows, n, 1, &b);
        prop_assert!(serial.is_ok(), "an unlimited budget never trips");
        for threads in 2..=8 {
            prop_assert_eq!(
                try_permanent_of_rows_budgeted(&rows, n, threads, &b),
                serial.clone(),
                "threads={}", threads
            );
        }
    }

    /// The sharded sampler returns the same sample vector — not just
    /// the same mean — at every thread count.
    #[test]
    fn sampler_is_bit_identical_across_threads(
        g in grouped_graph(),
        rng_seed in 0u64..1000,
        per_seed in 8usize..40,
    ) {
        let seed = g.greedy_matching();
        prop_assume!(seed.size() > 0);
        let config = SamplerConfig {
            warmup_swaps: 200,
            swaps_between_samples: 20,
            samples_per_seed: per_seed,
            n_samples: 100,
            use_locality: true,
        };
        let b = Budget::unlimited();
        let serial = sample_cracks_budgeted(&g, &seed, &config, rng_seed, 1, &b).unwrap();
        for threads in 2..=8 {
            let par = sample_cracks_budgeted(&g, &seed, &config, rng_seed, threads, &b).unwrap();
            prop_assert_eq!(&par.counts, &serial.counts, "threads={}", threads);
        }
    }

    /// `compliant_count` is monotone in α and inverts exact grid
    /// points: `compliant_count(c/n, n) == c`.
    #[test]
    fn compliant_count_round_trips_grid_points(n in 1usize..500, steps in 1usize..50) {
        for c in 0..=n.min(steps) {
            prop_assert_eq!(compliant_count(c as f64 / n as f64, n), c);
        }
        let mut prev = 0;
        for k in 0..=steps {
            let alpha = k as f64 / steps as f64;
            let c = compliant_count(alpha, n);
            prop_assert!(c >= prev, "not monotone at alpha={}", alpha);
            prop_assert!(c <= n);
            prev = c;
        }
    }
}

/// A seed matching must exist for the sampler property to be
/// non-vacuous on at least the complete graph; pin one concrete case
/// outside the proptest so a pathological strategy can't silently
/// reject everything.
#[test]
fn sampler_shard_determinism_concrete_case() {
    use andi_graph::DenseBigraph;
    let g = DenseBigraph::complete(7);
    let config = SamplerConfig::quick();
    let budget = Budget::unlimited();
    let seed = Matching::identity(7);
    let serial = sample_cracks_budgeted(&g, &seed, &config, 3, 1, &budget).unwrap();
    for threads in 2..=8 {
        let par = sample_cracks_budgeted(&g, &seed, &config, 3, threads, &budget).unwrap();
        assert_eq!(par.counts, serial.counts, "threads={threads}");
    }
}

/// The two largest sizes the kernel takes, up to
/// `MAX_PERMANENT_N = 22` (2^20 and 2^21 half-space subsets, i.e. 256
/// and 512 fixed chunk tasks), so the walk proves thread-count
/// invariance on real chunk seams where its totals are largest.
#[test]
fn permanent_chunk_seams_are_identical_across_threads() {
    for n in [21usize, 22] {
        // Deterministic mixed-density rows: diagonal plus a splitmix-
        // style scramble, masked to n columns.
        let rows: Vec<u64> = (0..n)
            .map(|i| {
                let mut x = (i as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                x ^= x >> 31;
                (x | (1 << i)) & ((1 << n) - 1)
            })
            .collect();
        let budget = Budget::unlimited();
        let serial = try_permanent_of_rows_budgeted(&rows, n, 1, &budget);
        assert!(
            matches!(serial, Ok(v) if v > 0),
            "n={n} instance has a perfect matching"
        );
        for threads in 2..=8 {
            assert_eq!(
                try_permanent_of_rows_budgeted(&rows, n, threads, &budget),
                serial,
                "n={n} threads={threads}"
            );
        }
    }
}
