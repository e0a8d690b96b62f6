//! The ladder's exact rung, one connected component at a time.
//!
//! - On the CHESS, MUSHROOM and CONNECT analogs with truthful
//!   intervals widened from `δ_med` to `2·δ_med` (the beliefs the
//!   service's analog traffic sends), the exact rung answers with no
//!   trip, bit-identically at 1, 4 and `ANDI_THREADS` workers.
//!   `andi-oracle`'s analog test checks the same marginals against
//!   its independent exact estimator.
//! - On random interval instances of at most `MAX_PERMANENT_N = 22`
//!   items, the ladder's
//!   `Result` is the dense Ryser kernel's on the whole graph, bit for
//!   bit, at 1, 4 and `ANDI_THREADS` workers, wherever the walks price
//!   under the cap; the rest decline on price to the sampler.
//! - The price: one 18-item component with 18 crack edges is exactly
//!   the cap and answers exactly, two of them decline, and components
//!   of 23, 33 and 70 items decline before any walk. Every interval
//!   graph of at most 18 items prices under the cap.
//! - A crack edge that crosses components gives `p = 0`, and a
//!   23-item component trips the exact rung so the sampler answers.
//! - A graph with no perfect matching is an empty mapping space
//!   whichever rung the ladder would answer on.
//! - Degenerate inputs (one item, one frequency group) keep Lemma 1 on
//!   every rung that answers them.

use std::time::{Duration, Instant};

use andi_core::{ladder_crack_probabilities, BeliefFunction, Error, RecipeConfig, Rung};
use andi_data::{Analog, FrequencyGroups};
use andi_graph::exact::EXACT_PRICE_CAP;
use andi_graph::par::{available_threads, Budget};
use andi_graph::{
    crack_probabilities_budgeted, crack_probabilities_per_component, ExactError, GroupedBigraph,
    MAX_PERMANENT_N,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Every item believed within `delta` of its true frequency.
fn widened_graph(supports: &[u64], m: u64, delta: f64) -> GroupedBigraph {
    let freqs: Vec<f64> = supports.iter().map(|&s| s as f64 / m as f64).collect();
    BeliefFunction::widened(&freqs, delta)
        .expect("a valid half-width")
        .build_graph(supports, m)
}

fn ladder(graph: &GroupedBigraph, threads: usize) -> andi_core::Result<(Rung, Vec<u64>)> {
    let (provenance, probs) = ladder_crack_probabilities(
        graph,
        &RecipeConfig::default(),
        threads,
        &Budget::unlimited(),
    )?;
    if provenance.rung == Rung::Exact {
        assert!(provenance.trips.is_empty(), "{:?}", provenance.trips);
    }
    Ok((provenance.rung, probs.iter().map(|p| p.to_bits()).collect()))
}

#[test]
fn analog_beliefs_answer_on_the_exact_rung() {
    for analog in [Analog::Chess, Analog::Mushroom, Analog::Connect] {
        let supports = analog.supports();
        let m = analog.spec().n_transactions;
        let delta_med = FrequencyGroups::from_supports(&supports, m)
            .median_gap()
            .expect("the analogs have several groups");
        for scale in [1.0, 1.5, 2.0] {
            let name = format!("{} at {scale}·δ_med", analog.name());
            let graph = widened_graph(&supports, m, delta_med * scale);
            assert!(graph.n() > MAX_PERMANENT_N, "{name}: n = {}", graph.n());
            let (rung, bits) = ladder(&graph, 1).expect("a compliant belief");
            assert_eq!(rung, Rung::Exact, "{name}");
            for threads in [4, available_threads()] {
                let again = ladder(&graph, threads).expect("thread-invariant");
                assert_eq!(again, (rung, bits.clone()), "{name}, t={threads}");
            }
        }
    }
}

/// A seeded interval instance of at most [`MAX_PERMANENT_N`] items
/// over 40 supports of `m = 50` with narrow beliefs: all truthful, or
/// each wrong with probability 1/16, or all truthful but one that
/// holds no frequency; or, from 19 items on, with every belief
/// `[0, 1]`: one complete component, whose walks price above the cap.
fn random_instance(rng: &mut StdRng) -> GroupedBigraph {
    let n = rng.gen_range(1..=MAX_PERMANENT_N);
    let supports: Vec<u64> = (0..n).map(|_| rng.gen_range(1..=40)).collect();
    let kind = rng.gen_range(0..4);
    let blank = rng.gen_range(0..n);
    let intervals: Vec<(f64, f64)> = supports
        .iter()
        .enumerate()
        .map(|(x, &s)| {
            let slack = rng.gen_range(0..=2u64);
            let centre = match kind {
                1 if rng.gen_range(0..16) == 0 => rng.gen_range(1..=40u64),
                2 if x == blank => 45,
                3 if n > 18 => return (0.0, 1.0),
                _ => s,
            };
            (
                centre.saturating_sub(slack) as f64 / 50.0,
                (centre + slack).min(50) as f64 / 50.0,
            )
        })
        .collect();
    GroupedBigraph::new(&supports, 50, &intervals)
}

/// Where the walks price under the cap, the ladder's exact rung is the
/// dense kernel's `Result` bit for bit; a costlier graph declines on
/// price, before any walk, and the sampler answers it (the dense
/// kernel is not run there: its walks of up to 22 items would take
/// most of the test's time).
#[test]
fn small_domains_equal_the_dense_kernel_bit_for_bit() {
    let mut rng = StdRng::seed_from_u64(0xC0AA);
    let (mut answered, mut empty, mut declined) = (0, 0, 0);
    for case in 0..300 {
        let graph = random_instance(&mut rng);
        let dense = graph.to_dense();
        for threads in [1, 4, available_threads()] {
            let got = ladder(&graph, threads);
            if matches!(got, Ok((Rung::Sampler, _))) {
                let priced = crack_probabilities_per_component(&graph, 1, &Budget::unlimited());
                assert!(
                    graph.n() > 18 && matches!(priced, Err(ExactError::TooCostly { .. })),
                    "case {case}, t={threads}: {priced:?}"
                );
                declined += 1;
                continue;
            }
            match crack_probabilities_budgeted(&dense, threads, &Budget::unlimited()) {
                Ok(p) => {
                    let bits: Vec<u64> = p.iter().map(|x| x.to_bits()).collect();
                    assert_eq!(got, Ok((Rung::Exact, bits)), "case {case}, t={threads}");
                    answered += 1;
                }
                Err(ExactError::EmptyMappingSpace) => {
                    assert_eq!(got, Err(Error::EmptyMappingSpace), "case {case}");
                    empty += 1;
                }
                Err(e) => panic!("case {case}: the dense kernel failed: {e}"),
            }
        }
    }
    assert!(
        answered > 100 && empty > 100 && declined > 0,
        "{answered} answered, {empty} empty, {declined} declined"
    );
}

/// One frequency group of `n` items over `m = 10`, believed anywhere:
/// one complete `n`-item component with every crack edge.
fn one_group(n: usize) -> GroupedBigraph {
    GroupedBigraph::new(&vec![5; n], 10, &vec![(0.0, 1.0); n])
}

#[test]
fn an_eighteen_item_component_prices_at_the_cap_and_two_decline() {
    // The permanent walks 2^17 half-space subsets and each of the 18
    // minors 2^16: exactly the cap, which the rung still pays.
    let graph = one_group(18);
    let (rung, bits) = ladder(&graph, 1).expect("a complete component");
    assert_eq!(rung, Rung::Exact);
    assert_eq!(ladder(&graph, 4), Ok((rung, bits)));

    // Two such components, each believed at its own frequency, price
    // at twice the cap: the sum is what is priced.
    let supports: Vec<u64> = (0..36).map(|i| if i < 18 { 5 } else { 7 }).collect();
    let intervals: Vec<(f64, f64)> = supports
        .iter()
        .map(|&s| (s as f64 / 10.0, s as f64 / 10.0))
        .collect();
    let graph = GroupedBigraph::new(&supports, 10, &intervals);
    assert_eq!(graph.components().map(|c| c.largest()), Some(18));
    let declined = Err(ExactError::TooCostly {
        price: 2 * EXACT_PRICE_CAP,
        cap: EXACT_PRICE_CAP,
    });
    for threads in [1, 4] {
        let out = crack_probabilities_per_component(&graph, threads, &Budget::unlimited());
        assert_eq!(out, declined, "t={threads}");
    }
    let (provenance, _) =
        ladder_crack_probabilities(&graph, &RecipeConfig::default(), 1, &Budget::unlimited())
            .expect("the sampler answers");
    assert_eq!(provenance.rung, Rung::Sampler);
    let trip = provenance.trips[0].1.to_string();
    assert!(
        trip.contains("2621440") && trip.contains("1310720"),
        "{trip}"
    );
}

#[test]
fn components_above_the_walk_ceiling_decline_before_any_walk() {
    assert_eq!(MAX_PERMANENT_N + 1, 23);
    for n in [MAX_PERMANENT_N + 1, 33, 70] {
        let start = Instant::now();
        let out = crack_probabilities_per_component(&one_group(n), 1, &Budget::unlimited());
        assert_eq!(
            out,
            Err(ExactError::TooCostly {
                price: u64::MAX,
                cap: EXACT_PRICE_CAP
            }),
            "n = {n}"
        );
        assert!(
            start.elapsed().as_secs() < 2,
            "n = {n}: {:?}",
            start.elapsed()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// No interval graph of at most 18 items prices above the cap, so
    /// the exact rung answers every one of them that has a perfect
    /// matching.
    #[test]
    fn graphs_of_at_most_eighteen_items_price_under_the_cap(
        items in prop::collection::vec((1u64..=20, 0u64..=20, 0u64..=20), 1..=18),
    ) {
        let supports: Vec<u64> = items.iter().map(|&(s, _, _)| s).collect();
        let intervals: Vec<(f64, f64)> = items
            .iter()
            .map(|&(_, a, b)| (a.min(b) as f64 / 20.0, a.max(b) as f64 / 20.0))
            .collect();
        let graph = GroupedBigraph::new(&supports, 20, &intervals);
        let out = crack_probabilities_per_component(&graph, 1, &Budget::unlimited());
        prop_assert!(
            matches!(out, Ok(_) | Err(ExactError::EmptyMappingSpace)),
            "{out:?}"
        );
    }
}

/// Three items believe only the support-1 group, which holds two
/// anonymized items, and the rest believe anything: one `n`-item
/// component with no perfect matching.
fn three_claim_two(n: usize) -> GroupedBigraph {
    let supports: Vec<u64> = (0..n).map(|i| if i < 2 { 1 } else { 2 }).collect();
    let intervals: Vec<(f64, f64)> = (0..n)
        .map(|i| if i < 3 { (0.1, 0.1) } else { (0.0, 1.0) })
        .collect();
    GroupedBigraph::new(&supports, 10, &intervals)
}

/// The 20-item graph prices above the cap, and so does the 40-item
/// one, which is above the 22-item walk ceiling too. Neither has a
/// perfect matching, so the ladder says so, on an unlimited budget
/// and on an expired one alike, rather than letting the sampler or
/// the floor answer.
#[test]
fn an_empty_space_is_reported_at_every_size() {
    for n in [20, 40] {
        let graph = three_claim_two(n);
        assert_eq!(graph.components().map(|c| c.largest()), Some(n));
        for threads in [1, 4] {
            for budget in [Budget::unlimited(), Budget::with_deadline(Duration::ZERO)] {
                let out =
                    ladder_crack_probabilities(&graph, &RecipeConfig::default(), threads, &budget);
                assert_eq!(
                    out.map(|(p, _)| p.rung),
                    Err(Error::EmptyMappingSpace),
                    "n = {n}, t={threads}"
                );
            }
        }
    }
}

#[test]
fn crossing_crack_edges_and_oversized_components() {
    // Items 0 and 1 swap beliefs, so each original item sits in the
    // other's one-group component: neither can be cracked. Items 2 and
    // 3 share one component of two.
    let supports = [10u64, 20, 30, 40];
    let intervals = [(0.2, 0.2), (0.1, 0.1), (0.3, 0.4), (0.3, 0.4)];
    let graph = GroupedBigraph::new(&supports, 100, &intervals);
    assert_eq!(graph.components().map(|c| c.iter().count()), Some(3));
    let (rung, bits) = ladder(&graph, 1).expect("a perfect matching exists");
    assert_eq!(rung, Rung::Exact);
    let probs: Vec<f64> = bits.into_iter().map(f64::from_bits).collect();
    assert_eq!(probs, [0.0, 0.0, 0.5, 0.5]);

    // One frequency group of 23 items is one 23-item component.
    let n = MAX_PERMANENT_N + 1;
    let graph = GroupedBigraph::new(&vec![5; n], 10, &vec![(0.0, 1.0); n]);
    let (provenance, probs) =
        ladder_crack_probabilities(&graph, &RecipeConfig::default(), 2, &Budget::unlimited())
            .expect("the sampler answers");
    assert_eq!(provenance.rung, Rung::Sampler);
    assert_eq!(provenance.trips.len(), 1);
    let (rung, error) = &provenance.trips[0];
    assert_eq!(*rung, Rung::Exact);
    // A priced decline is its own error kind, not an invalid request.
    assert_eq!(
        *error,
        Error::TooCostly {
            price: u64::MAX,
            cap: EXACT_PRICE_CAP
        }
    );
    let message = error.to_string();
    assert!(
        message.contains("subset steps") && message.contains("1310720"),
        "{message}"
    );
    assert_eq!(probs.len(), n);
}

/// In a 40-item domain, a 26-item component is priced like any
/// other: its `c + 1` walks of up to `2^(c-1)` subsets price far
/// above the cap, so the exact rung declines before any walk, and the
/// sampler answers inside a one-second deadline that those walks, a
/// minute or more of work, would have burnt.
#[test]
fn a_mid_size_component_under_a_short_deadline_is_sampled() {
    // A chain of 26 supports, each believed within three support
    // steps, is one 26-item component; 14 point beliefs on distinct
    // supports are one-item components.
    let chain = 1..=26u64;
    let singles = (0..14u64).map(|k| 60 + 2 * k);
    let supports: Vec<u64> = chain.chain(singles).collect();
    let intervals: Vec<(f64, f64)> = supports
        .iter()
        .map(|&s| match s {
            1..=26 => (s.saturating_sub(3) as f64 / 100.0, (s + 3) as f64 / 100.0),
            _ => (s as f64 / 100.0, s as f64 / 100.0),
        })
        .collect();
    let graph = GroupedBigraph::new(&supports, 100, &intervals);
    assert!(graph.n() > MAX_PERMANENT_N);
    assert_eq!(graph.components().map(|c| c.largest()), Some(26));
    let declined = crack_probabilities_per_component(&graph, 1, &Budget::unlimited());
    let Err(ExactError::TooCostly { price, cap }) = declined else {
        panic!("a 26-item component prices above the cap: {declined:?}");
    };

    for threads in [1, 4] {
        let budget = Budget::with_deadline(Duration::from_secs(1));
        let (provenance, probs) =
            ladder_crack_probabilities(&graph, &RecipeConfig::default(), threads, &budget)
                .expect("the sampler answers");
        assert_eq!(provenance.rung, Rung::Sampler, "t={threads}");
        assert_eq!(
            provenance.trips,
            [(Rung::Exact, Error::TooCostly { price, cap })],
            "t={threads}"
        );
        assert_eq!(probs.len(), graph.n());
    }
}

/// `n` items of support 1 over `m = 1`, each believed at its true
/// frequency 1: one frequency group, so a complete graph, where
/// Lemma 1 puts the expected crack count at exactly 1.
fn one_transaction(n: usize) -> GroupedBigraph {
    GroupedBigraph::new(&vec![1; n], 1, &vec![(1.0, 1.0); n])
}

/// Degenerate inputs through every rung: one item, and one frequency
/// group at 6 items (the exact rung answers) and at 40 (a priced
/// decline hands it to the sampler), then all three under an expired
/// budget, where the floor answers. Lemma 1 is the reference: the
/// probabilities sum to 1 within 1e-12 on the exact rung and the
/// floor, and within six standard errors on the sampler, whose crack
/// count (the fixed points of a uniform permutation) has variance 1.
/// A belief that covers no observed frequency is an empty mapping
/// space on every budget.
#[test]
fn degenerate_inputs_keep_lemma_1_on_every_rung() {
    let config = RecipeConfig::default();
    let sampler_se = 1.0 / (config.sampler_schedule.n_samples as f64).sqrt();
    for (n, rung) in [(1, Rung::Exact), (6, Rung::Exact), (40, Rung::Sampler)] {
        let graph = one_transaction(n);
        assert_eq!(graph.components().map(|c| c.largest()), Some(n));
        for threads in [1, 4] {
            for (budget, rung, tolerance) in [
                (Budget::unlimited(), rung, 1e-12),
                (
                    Budget::with_deadline(Duration::ZERO),
                    Rung::OEstimate,
                    1e-12,
                ),
            ] {
                let tolerance = if rung == Rung::Sampler {
                    6.0 * sampler_se
                } else {
                    tolerance
                };
                let (provenance, probs) =
                    ladder_crack_probabilities(&graph, &config, threads, &budget)
                        .expect("a complete graph has perfect matchings");
                assert_eq!(provenance.rung, rung, "n = {n}, t={threads}");
                assert_eq!(probs.len(), n);
                let total: f64 = probs.iter().sum();
                assert!(
                    (total - 1.0).abs() <= tolerance,
                    "n = {n}, t={threads}, {rung:?}: Σp = {total}"
                );
            }
        }

        // Item 0 believes a frequency no item has.
        let mut intervals = vec![(1.0, 1.0); n];
        intervals[0] = (0.0, 0.5);
        let graph = GroupedBigraph::new(&vec![1; n], 1, &intervals);
        for threads in [1, 4] {
            for budget in [Budget::unlimited(), Budget::with_deadline(Duration::ZERO)] {
                let out = ladder_crack_probabilities(&graph, &config, threads, &budget);
                assert_eq!(
                    out.map(|(p, _)| p.rung),
                    Err(Error::EmptyMappingSpace),
                    "n = {n}, t={threads}"
                );
            }
        }
    }
}
