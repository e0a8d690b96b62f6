//! The ladder's exact rung, one connected component at a time.
//!
//! - On the CHESS, MUSHROOM and CONNECT analogs with truthful
//!   intervals widened from `δ_med` to `2·δ_med` (the beliefs the
//!   service's analog traffic sends), the exact rung answers with no
//!   trip, bit-identically at 1, 4 and `ANDI_THREADS` workers.
//!   `andi-oracle`'s analog test checks the same marginals against
//!   its independent exact estimator.
//! - On random interval instances of at most 32 items, the ladder's
//!   `Result` is the dense Ryser kernel's on the whole graph, bit for
//!   bit, at 1, 4 and `ANDI_THREADS` workers.
//! - A crack edge that crosses components gives `p = 0`, and a
//!   33-item component trips the exact rung so the sampler answers.

use andi_core::{ladder_crack_probabilities, BeliefFunction, Error, RecipeConfig, Rung};
use andi_data::{Analog, FrequencyGroups};
use andi_graph::par::{available_threads, Budget};
use andi_graph::{crack_probabilities_budgeted, ExactError, GroupedBigraph, MAX_PERMANENT_N};
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

/// A seeded interval instance of at most 32 items over 40 supports
/// of `m = 50` with narrow beliefs: all truthful, or each wrong with
/// probability 1/16, or all truthful but one that holds no
/// frequency.
fn random_instance(rng: &mut StdRng) -> GroupedBigraph {
    let n = rng.gen_range(1..=32);
    let supports: Vec<u64> = (0..n).map(|_| rng.gen_range(1..=40)).collect();
    let kind = rng.gen_range(0..3);
    let blank = rng.gen_range(0..n);
    let intervals: Vec<(f64, f64)> = supports
        .iter()
        .enumerate()
        .map(|(x, &s)| {
            let slack = rng.gen_range(0..=2u64);
            let centre = match kind {
                1 if rng.gen_range(0..16) == 0 => rng.gen_range(1..=40u64),
                2 if x == blank => 45,
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

#[test]
fn small_domains_equal_the_dense_kernel_bit_for_bit() {
    let mut rng = StdRng::seed_from_u64(0xC0AA);
    let (mut answered, mut empty) = (0, 0);
    for case in 0..300 {
        let graph = random_instance(&mut rng);
        let dense = graph.to_dense();
        for threads in [1, 4, available_threads()] {
            let want = crack_probabilities_budgeted(&dense, threads, &Budget::unlimited());
            let got = ladder(&graph, threads);
            match want {
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
        answered > 100 && empty > 100,
        "{answered} answered, {empty} empty"
    );
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

    // One frequency group of 33 items is one 33-item component.
    let n = MAX_PERMANENT_N + 1;
    let graph = GroupedBigraph::new(&vec![5; n], 10, &vec![(0.0, 1.0); n]);
    let (provenance, probs) =
        ladder_crack_probabilities(&graph, &RecipeConfig::default(), 2, &Budget::unlimited())
            .expect("the sampler answers");
    assert_eq!(provenance.rung, Rung::Sampler);
    assert_eq!(provenance.trips.len(), 1);
    let (rung, error) = &provenance.trips[0];
    assert_eq!(*rung, Rung::Exact);
    assert!(error.to_string().contains("33 items"), "{error}");
    assert_eq!(probs.len(), n);
}

/// Above 32 items, a component of 20–32 items runs on the exact rung
/// as it does in a smaller domain: its `c + 1` walks of `2^c` subsets
/// outlast a short deadline, the trip is sticky, so the sampler trips
/// at its first poll and the O-estimate floor answers. This is the
/// answer a graph of at most 32 items with the same component has
/// always had.
#[test]
fn a_mid_size_component_under_a_short_deadline_lands_on_the_floor() {
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

    for threads in [1, 4] {
        let budget = Budget::with_deadline(std::time::Duration::from_millis(50));
        let (provenance, probs) =
            ladder_crack_probabilities(&graph, &RecipeConfig::default(), threads, &budget)
                .expect("the floor answers");
        assert_eq!(provenance.rung, Rung::OEstimate, "t={threads}");
        let tripped = Error::BudgetExceeded { budget_ms: 50 };
        assert_eq!(
            provenance.trips,
            [(Rung::Exact, tripped.clone()), (Rung::Sampler, tripped)],
            "t={threads}"
        );
        assert_eq!(probs.len(), graph.n());
    }
}
