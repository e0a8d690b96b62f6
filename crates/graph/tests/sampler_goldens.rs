//! Pinned sampler outputs: the swap walk's bit-identity contract.
//!
//! Every value below comes from the seed-epoch batch stream (batch
//! `b` on the `7 + b` generator). The probabilities were recorded from
//! the walk that tested each proposal with branches, one
//! `gen_range`/`gen_bool` call at a time; the counts from the
//! branch-free walk proven bit-identical to it. Any later walk must
//! draw the same proposals from the same stream and accept the same
//! swaps, so these hashes may never change: a mismatch means the walk
//! now samples different matchings. Each
//! golden is an FNV-1a fold of the exact output — per-item crack
//! probabilities by `to_bits`, crack counts as integers — never an
//! epsilon comparison.
//!
//! Cases: the CHESS, MUSHROOM and CONNECT analogs under their `δ_med`
//! beliefs (the service's analog workload; locality proposals on),
//! the same CHESS graph with the paper's uniform-pair walk, a partial
//! seed on a `DenseBigraph` (the free-column relocation path), and a
//! single matched item (a zero-width locality window). The driver
//! runs at 1 and 4 workers and at `ANDI_THREADS`.

use andi_data::{Analog, FrequencyGroups};
use andi_graph::hash::{fnv1a_u64, FNV_OFFSET};
use andi_graph::par::{available_threads, Budget};
use andi_graph::sampler::{
    sample_crack_probabilities_budgeted, sample_cracks_budgeted, EdgeOracle, SamplerConfig,
};
use andi_graph::{DenseBigraph, GroupedBigraph, Matching};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The recipe's step-5 graph: every item believed within `δ_med` (the
/// median frequency-group gap) of its true frequency.
fn delta_med_graph(analog: Analog) -> GroupedBigraph {
    let supports = analog.supports();
    let m = analog.spec().n_transactions;
    let delta = FrequencyGroups::from_supports(&supports, m)
        .median_gap()
        .unwrap_or(0.0);
    let intervals: Vec<(f64, f64)> = supports
        .iter()
        .map(|&s| {
            let f = s as f64 / m as f64;
            ((f - delta).max(0.0), (f + delta).min(1.0))
        })
        .collect();
    GroupedBigraph::new(&supports, m, &intervals)
}

/// A random sparse graph on 16 items with only items `0..12` matched
/// to themselves: columns 12..16 start free, so relocations run.
fn partial_dense() -> (DenseBigraph, Matching) {
    let n = 16;
    let mut rng = StdRng::seed_from_u64(2005);
    let mut g = DenseBigraph::new(n);
    for i in 0..n {
        if i < 12 {
            g.add_edge(i, i);
        }
        for j in 0..n {
            if rng.gen_bool(0.35) {
                g.add_edge(i, j);
            }
        }
    }
    let mut seed = Matching {
        left_partner: vec![None; n],
        right_partner: vec![None; n],
    };
    for i in 0..12 {
        seed.left_partner[i] = Some(i);
        seed.right_partner[i] = Some(i);
    }
    (g, seed)
}

/// A grouped graph with one matched item: the locality order holds a
/// single position, so every local proposal has an empty window.
fn single_active() -> (GroupedBigraph, Matching) {
    let supports = [5u64, 4, 5, 5, 3, 5];
    let intervals: Vec<(f64, f64)> = supports
        .iter()
        .map(|&s| (s as f64 / 10.0 - 0.15, s as f64 / 10.0 + 0.15))
        .collect();
    let g = GroupedBigraph::new(&supports, 10, &intervals);
    let mut seed = Matching {
        left_partner: vec![None; 6],
        right_partner: vec![None; 6],
    };
    seed.left_partner[0] = Some(0);
    seed.right_partner[0] = Some(0);
    (g, seed)
}

fn hash_probabilities(p: &[f64]) -> u64 {
    p.iter().fold(FNV_OFFSET, |h, x| fnv1a_u64(h, x.to_bits()))
}

fn hash_counts(c: &[usize]) -> u64 {
    c.iter().fold(FNV_OFFSET, |h, &x| fnv1a_u64(h, x as u64))
}

/// Runs the driver on one case at every worker count and checks it
/// against the pinned hashes: the per-item probabilities and the
/// crack counts. The probabilities must also be the driver's
/// `hits / samples` bit for bit, and its hits must sum to its counts.
fn check<O: EdgeOracle + Sync>(
    name: &str,
    oracle: &O,
    seed: &Matching,
    config: &SamplerConfig,
    probabilities: u64,
    counts: u64,
) {
    let budget = Budget::unlimited();
    for threads in [1, 4, available_threads()] {
        let p = sample_crack_probabilities_budgeted(oracle, seed, config, 7, threads, &budget)
            .expect("seed is consistent");
        assert_eq!(
            hash_probabilities(&p),
            probabilities,
            "{name}: probabilities moved at {threads} threads (got {:#018x})",
            hash_probabilities(&p)
        );
        let s = sample_cracks_budgeted(oracle, seed, config, 7, threads, &budget)
            .expect("seed is consistent");
        assert_eq!(s.counts.len(), config.n_samples, "{name}");
        assert_eq!(
            hash_counts(&s.counts),
            counts,
            "{name}: counts moved at {threads} threads (got {:#018x})",
            hash_counts(&s.counts)
        );
        let total = s.counts.len() as f64;
        let from_hits: Vec<u64> = s
            .hits
            .iter()
            .map(|&h| (h as f64 / total).to_bits())
            .collect();
        let bits: Vec<u64> = p.iter().map(|x| x.to_bits()).collect();
        assert_eq!(
            bits, from_hits,
            "{name}: probabilities are not hits / samples"
        );
        assert_eq!(
            s.hits.iter().sum::<u64>(),
            s.counts.iter().sum::<usize>() as u64,
            "{name}: hits do not sum to the counts"
        );
    }
}

#[test]
fn chess_delta_med_is_pinned() {
    let g = delta_med_graph(Analog::Chess);
    let seed = Matching::identity(g.n());
    check(
        "CHESS",
        &g,
        &seed,
        &SamplerConfig::quick(),
        0xc954932a574a294a,
        0x0f188fe35c66eb2b,
    );
}

#[test]
fn mushroom_delta_med_is_pinned() {
    let g = delta_med_graph(Analog::Mushroom);
    let seed = Matching::identity(g.n());
    check(
        "MUSHROOM",
        &g,
        &seed,
        &SamplerConfig::quick(),
        0xc95650503869b885,
        0x0097ab2fd6182098,
    );
}

#[test]
fn connect_delta_med_is_pinned() {
    let g = delta_med_graph(Analog::Connect);
    let seed = Matching::identity(g.n());
    check(
        "CONNECT",
        &g,
        &seed,
        &SamplerConfig::quick(),
        0xc1c76b480e17dd79,
        0x3d338fed3498438c,
    );
}

#[test]
fn uniform_pair_walk_is_pinned() {
    let g = delta_med_graph(Analog::Chess);
    let seed = Matching::identity(g.n());
    let config = SamplerConfig {
        use_locality: false,
        ..SamplerConfig::quick()
    };
    check(
        "CHESS uniform",
        &g,
        &seed,
        &config,
        0x2469822cf6c2bc50,
        0x68ff862b099ef82e,
    );
}

#[test]
fn partial_dense_seed_is_pinned() {
    let (g, seed) = partial_dense();
    check(
        "partial dense",
        &g,
        &seed,
        &SamplerConfig::quick(),
        0x3281b9b462d8321c,
        0xf8e5129490e867a3,
    );
}

#[test]
fn single_active_item_is_pinned() {
    let (g, seed) = single_active();
    check(
        "single active",
        &g,
        &seed,
        &SamplerConfig::quick(),
        0xb1e405a16ee281d1,
        0x3172dd6a7a38ccc4,
    );
}
