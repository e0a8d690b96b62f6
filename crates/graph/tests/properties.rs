//! Property tests for the bipartite machinery: the estimators and
//! the sampler are only trustworthy if the graph layer is exactly
//! right.

use andi_graph::dense::DenseBigraph;
use andi_graph::grouped::GroupedBigraph;
use andi_graph::matching::hopcroft_karp;
use andi_graph::par::{available_threads, Budget};
use andi_graph::permanent::{permanent, permanent_naive};
use andi_graph::propagate::propagate;
use andi_graph::sampler::{sample_cracks_budgeted, SamplerConfig};
use andi_graph::Matching;
use proptest::prelude::*;

/// Strategy: a random bipartite graph given as an adjacency bit
/// matrix over `n <= 7` nodes per side.
fn small_graph() -> impl Strategy<Value = DenseBigraph> {
    (2usize..=7).prop_flat_map(|n| {
        prop::collection::vec(prop::bool::weighted(0.5), n * n).prop_map(move |bits| {
            let mut g = DenseBigraph::new(n);
            for (k, &b) in bits.iter().enumerate() {
                if b {
                    g.add_edge(k / n, k % n);
                }
            }
            g
        })
    })
}

/// Strategy: a random grouped interval graph (supports + compliant
/// random-width intervals).
fn small_grouped() -> impl Strategy<Value = GroupedBigraph> {
    (2usize..=8).prop_flat_map(|n| {
        (
            prop::collection::vec(1u64..50, n),
            prop::collection::vec((0.0f64..0.25, 0.0f64..0.25), n),
        )
            .prop_map(|(supports, slacks)| {
                let intervals: Vec<(f64, f64)> = supports
                    .iter()
                    .zip(slacks.iter())
                    .map(|(&s, &(a, b))| {
                        let f = s as f64 / 50.0;
                        ((f - a).max(0.0), (f + b).min(1.0))
                    })
                    .collect();
                GroupedBigraph::new(&supports, 50, &intervals)
            })
    })
}

/// Strategy: a random grouped interval graph of up to 48 items whose
/// beliefs mix truthful intervals, wrong ones (placed anywhere) and
/// ones that hold no observed frequency, so the mapping space is
/// often not perfect or outright empty.
fn noncompliant_grouped() -> impl Strategy<Value = GroupedBigraph> {
    (1usize..=48).prop_flat_map(|n| {
        (
            prop::collection::vec(1u64..40, n),
            prop::collection::vec((0u8..10, 0u64..40, 0u64..6), n),
        )
            .prop_map(|(supports, beliefs)| {
                let intervals: Vec<(f64, f64)> = supports
                    .iter()
                    .zip(&beliefs)
                    .map(|(&s, &(kind, centre, slack))| {
                        let (centre, slack) = match kind {
                            // No support reaches 40 of 50: no frequency.
                            0 => (45, 0),
                            1..=3 => (centre, slack),
                            _ => (s, slack),
                        };
                        let lo = centre.saturating_sub(slack) as f64 / 50.0;
                        let hi = (centre + slack).min(50) as f64 / 50.0;
                        (lo, hi)
                    })
                    .collect();
                GroupedBigraph::new(&supports, 50, &intervals)
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The deadline greedy stays maximum when beliefs are wrong or
    /// hold no frequency: the same matching size as Hopcroft–Karp on
    /// the dense rendering, through consistent edges only. The ladder
    /// and the oracle seed the sampler with it on that claim.
    #[test]
    fn greedy_matching_is_maximum_on_noncompliant_interval_graphs(g in noncompliant_grouped()) {
        let greedy = g.greedy_matching();
        let hk = hopcroft_karp(&g.to_dense());
        prop_assert_eq!(greedy.size(), hk.size());
        for (i, p) in greedy.left_partner.iter().enumerate() {
            if let Some(y) = *p {
                prop_assert!(g.has_edge(i, y));
                prop_assert_eq!(greedy.right_partner[y], Some(i));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Hopcroft–Karp finds a perfect matching exactly when the
    /// permanent is positive.
    #[test]
    fn hk_agrees_with_permanent(g in small_graph()) {
        let perm = permanent(&g);
        let m = hopcroft_karp(&g);
        prop_assert_eq!(perm > 0, m.is_perfect());
    }

    /// Ryser's formula agrees with naive expansion.
    #[test]
    fn ryser_agrees_with_naive(g in small_graph()) {
        prop_assert_eq!(permanent(&g), permanent_naive(&g));
    }

    /// Propagation is sound (restoring forced edges preserves the
    /// permanent) and idempotent.
    #[test]
    fn propagation_sound_and_idempotent(g in small_graph()) {
        let p = propagate(&g);
        if p.infeasible() {
            prop_assert_eq!(permanent(&g), 0);
        } else {
            let mut restored = p.graph.clone();
            for &(i, y) in &p.forced {
                restored.add_edge(i, y);
            }
            prop_assert_eq!(permanent(&restored), permanent(&g));
            // Idempotent: a second pass finds nothing new.
            let p2 = propagate(&p.graph);
            let spurious: Vec<_> = p2
                .forced
                .iter()
                .filter(|f| !p.forced.contains(f))
                .collect();
            prop_assert!(spurious.is_empty(), "second pass forced {spurious:?}");
        }
    }

    /// The grouped greedy matching is maximum (same size as
    /// Hopcroft–Karp on the dense rendering).
    #[test]
    fn greedy_interval_matching_is_maximum(g in small_grouped()) {
        let greedy = g.greedy_matching();
        let hk = hopcroft_karp(&g.to_dense());
        prop_assert_eq!(greedy.size(), hk.size());
        // And every matched edge is consistent.
        for (i, p) in greedy.left_partner.iter().enumerate() {
            if let Some(y) = *p {
                prop_assert!(g.has_edge(i, y));
            }
        }
    }

    /// Grouped outdegrees equal dense right-degrees (the O-estimate's
    /// prefix-sum path is exact).
    #[test]
    fn grouped_outdegrees_are_exact(g in small_grouped()) {
        prop_assert_eq!(g.outdegrees(), g.to_dense().right_degrees());
    }
}

/// Enumerates all perfect matchings of a small dense graph as
/// partner vectors.
fn enumerate_matchings(g: &DenseBigraph) -> Vec<Vec<usize>> {
    let n = g.n();
    let mut out = Vec::new();
    let mut partner = vec![usize::MAX; n];
    fn rec(
        g: &DenseBigraph,
        i: usize,
        used: u64,
        partner: &mut Vec<usize>,
        out: &mut Vec<Vec<usize>>,
    ) {
        let n = g.n();
        if i == n {
            out.push(partner.clone());
            return;
        }
        for y in g.neighbors(i) {
            if used & (1 << y) == 0 {
                partner[i] = y;
                rec(g, i + 1, used | (1 << y), partner, out);
            }
        }
    }
    rec(g, 0, 0, &mut partner, &mut out);
    out
}

/// The swap walk's stationary distribution is uniform over the
/// matchings it can reach: on a well-connected small graph, a long
/// chain visits every perfect matching with near-equal frequency
/// (chi-square-style tolerance).
#[test]
fn sampler_is_uniform_over_matchings() {
    // A 4-node graph, dense enough for the transposition walk to be
    // irreducible: complete minus one edge.
    let mut g = DenseBigraph::complete(4);
    g.remove_edge(3, 0);
    let matchings = enumerate_matchings(&g);
    let k = matchings.len();
    assert!(k >= 10, "want a rich space, got {k}");

    // Track visit counts of each matching via its crack-pattern...
    // crack counts collide, so count full partner vectors: re-run the
    // sampler manually through CrackSamples is insufficient; instead
    // sample crack counts and compare against the exact distribution.
    let config = SamplerConfig {
        warmup_swaps: 5_000,
        swaps_between_samples: 50,
        samples_per_seed: 4_000,
        n_samples: 12_000,
        use_locality: true,
    };
    let samples = sample_cracks_budgeted(
        &g,
        &Matching::identity(4),
        &config,
        2024,
        available_threads(),
        &Budget::unlimited(),
    )
    .unwrap();

    // Exact crack-count distribution over the enumerated matchings.
    let mut exact_counts = [0usize; 5];
    for m in &matchings {
        let cracks = m.iter().enumerate().filter(|&(i, &y)| i == y).count();
        exact_counts[cracks] += 1;
    }
    let exact: Vec<f64> = exact_counts.iter().map(|&c| c as f64 / k as f64).collect();
    let mut observed = [0usize; 5];
    for &c in &samples.counts {
        observed[c] += 1;
    }
    let total = samples.counts.len() as f64;
    for cracks in 0..=4 {
        let obs = observed[cracks] as f64 / total;
        assert!(
            (obs - exact[cracks]).abs() < 0.03,
            "cracks={cracks}: observed {obs:.3} vs exact {:.3}",
            exact[cracks]
        );
    }
}

/// The identity matching is reachable from any other matching (the
/// walk is reversible), so starting anywhere converges to the same
/// distribution: compare two very different starts.
#[test]
fn sampler_start_independence() {
    let mut g = DenseBigraph::complete(5);
    g.remove_edge(0, 4);
    let config = SamplerConfig {
        warmup_swaps: 10_000,
        swaps_between_samples: 100,
        samples_per_seed: 2_000,
        n_samples: 6_000,
        use_locality: true,
    };
    let id_start = Matching::identity(5);
    let hk = hopcroft_karp(&g); // some other perfect matching
    let threads = available_threads();
    let unlimited = Budget::unlimited();
    let a = sample_cracks_budgeted(&g, &id_start, &config, 7, threads, &unlimited)
        .unwrap()
        .mean();
    let b = sample_cracks_budgeted(&g, &hk, &config, 8, threads, &unlimited)
        .unwrap()
        .mean();
    assert!((a - b).abs() < 0.1, "start dependence: {a} vs {b}");
}
