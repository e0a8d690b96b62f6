//! Seeded, stratified instance generation. Every instance is a pure
//! function of `(seed, index, regime)`, so CI sweeps and shrinker
//! reproductions are deterministic across machines and thread
//! counts.

use andi_core::{BeliefFunction, ChainSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::instance::{Instance, Regime};

/// SplitMix64-style avalanche for combining seed material.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn rng_for(seed: u64, index: u64, regime: Regime) -> StdRng {
    let tag = regime as u64 + 1;
    StdRng::seed_from_u64(mix(seed ^ mix(index ^ mix(tag))))
}

/// Generates the `index`-th instance of a regime under a sweep seed.
pub fn generate(seed: u64, index: u64, regime: Regime) -> Instance {
    let mut rng = rng_for(seed, index, regime);
    let label = format!("gen {} seed={seed} index={index}", regime.name());
    match regime {
        Regime::Ignorant => ignorant(&mut rng, label),
        Regime::PointCompliant => point_compliant(&mut rng, label),
        Regime::AlphaCompliant => alpha_compliant(&mut rng, label),
        Regime::Chain => chain(&mut rng, index, label),
        Regime::NearDegenerate => near_degenerate(&mut rng, index, label),
        Regime::Adversarial => adversarial(&mut rng, label),
    }
}

/// A random support profile: `n` supports in `[1, m - 1]`, with a
/// deliberate chance of collisions so frequency groups of size > 1
/// appear regularly.
fn random_supports(rng: &mut StdRng, n: usize, m: u64) -> Vec<u64> {
    let distinct = rng.gen_range(1..=n);
    let pool: Vec<u64> = (0..distinct).map(|_| rng.gen_range(1..m)).collect();
    (0..n).map(|_| pool[rng.gen_range(0..pool.len())]).collect()
}

fn random_mask(rng: &mut StdRng, n: usize) -> Option<Vec<bool>> {
    if rng.gen_bool(0.5) {
        Some((0..n).map(|_| rng.gen_bool(0.5)).collect())
    } else {
        None
    }
}

fn ignorant(rng: &mut StdRng, label: String) -> Instance {
    let n = rng.gen_range(2..=9);
    let m = rng.gen_range(20..=200);
    Instance {
        label,
        regime: Regime::Ignorant,
        supports: random_supports(rng, n, m),
        m,
        intervals: vec![(0.0, 1.0); n],
        mask: random_mask(rng, n),
    }
}

fn point_compliant(rng: &mut StdRng, label: String) -> Instance {
    let n = rng.gen_range(2..=9);
    let m = rng.gen_range(20..=200);
    let supports = random_supports(rng, n, m);
    let intervals = supports
        .iter()
        .map(|&s| {
            let f = s as f64 / m as f64;
            (f, f)
        })
        .collect();
    Instance {
        label,
        regime: Regime::PointCompliant,
        supports,
        m,
        intervals,
        mask: random_mask(rng, n),
    }
}

fn alpha_compliant(rng: &mut StdRng, label: String) -> Instance {
    let n = rng.gen_range(2..=9);
    let m = rng.gen_range(20..=200);
    let supports = random_supports(rng, n, m);
    let freqs: Vec<f64> = supports.iter().map(|&s| s as f64 / m as f64).collect();
    let delta = rng.gen_range(0.01..0.25);
    // Widening keeps the belief inside [0, 1] for valid frequencies,
    // so the constructor cannot fail here; fall back to ignorant
    // intervals defensively rather than unwrap.
    let belief =
        BeliefFunction::widened(&freqs, delta).unwrap_or_else(|_| BeliefFunction::ignorant(n));
    // Make a random minority of items non-compliant.
    let n_bad = rng.gen_range(0..=(n / 2));
    let mut items: Vec<usize> = (0..n).collect();
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(0..=i);
        items.swap(i, j);
    }
    items.truncate(n_bad);
    let belief = belief.with_noncompliant_items(&freqs, &items, rng);
    Instance {
        label,
        regime: Regime::AlphaCompliant,
        supports,
        m,
        intervals: belief.intervals().to_vec(),
        mask: random_mask(rng, n),
    }
}

/// Random valid chains. Every fifth instance is a boundary chain:
/// `k = n` (all groups singletons) or `k = 1` (one group).
fn chain(rng: &mut StdRng, index: u64, label: String) -> Instance {
    let spec = match index % 5 {
        // k = n: every frequency group is a singleton.
        0 => {
            let k = rng.gen_range(2..=8);
            build_chain(rng, &vec![1; k])
        }
        // k = 1: Lemma 6 degenerates to Lemma 3's single group.
        1 => {
            let n = rng.gen_range(1..=8);
            ChainSpec::new(vec![n], vec![n], vec![]).ok()
        }
        _ => random_chain(rng),
    };
    let realized = spec.and_then(|spec| {
        let k = spec.k() as u64;
        let step: u64 = rng.gen_range(2..=11);
        // realize() cannot fail: m = (k + 1) * step >= k + 1.
        spec.realize((k + 1) * step)
            .ok()
            .map(|r| ((k + 1) * step, r))
    });
    match realized {
        Some((m, (supports, belief))) => Instance {
            label,
            regime: Regime::Chain,
            supports,
            m,
            intervals: belief.intervals().to_vec(),
            mask: None,
        },
        None => fallback_chain_instance(label),
    }
}

fn random_chain(rng: &mut StdRng) -> Option<ChainSpec> {
    let k = rng.gen_range(2..=4);
    let sizes: Vec<usize> = (0..k).map(|_| rng.gen_range(1..=3)).collect();
    build_chain(rng, &sizes)
}

/// Builds a valid chain over the given group sizes by walking the
/// conservation recurrence forward: at each link choose how many of
/// group `i`'s remaining items sit in the shared group (`u_i`) and
/// how many of group `i + 1`'s items the shared group claims
/// (`v_i`).
fn build_chain(rng: &mut StdRng, sizes: &[usize]) -> Option<ChainSpec> {
    let k = sizes.len();
    let mut e = vec![0usize; k];
    let mut s = vec![0usize; k.saturating_sub(1)];
    let mut v_prev = 0usize;
    for i in 0..k {
        let remaining = sizes[i] - v_prev;
        if i == k - 1 {
            e[i] = remaining;
            break;
        }
        let u_i = rng.gen_range(0..=remaining);
        e[i] = remaining - u_i;
        let v_i = rng.gen_range(0..=sizes[i + 1]);
        s[i] = u_i + v_i;
        v_prev = v_i;
    }
    ChainSpec::new(sizes.to_vec(), e, s).ok()
}

/// The paper's Section 4.2 chain written out as literal item data:
/// groups of sizes (5, 3) with 3 shared items, at m = 15. Used as a
/// total fallback so the generator never panics; the constructions
/// above are valid by design, so this is effectively unreachable.
fn fallback_chain_instance(label: String) -> Instance {
    let f1 = 5.0 / 15.0;
    let f2 = 10.0 / 15.0;
    Instance {
        label,
        regime: Regime::Chain,
        supports: vec![5, 5, 5, 5, 5, 10, 10, 10],
        m: 15,
        intervals: vec![
            (f1, f1),
            (f1, f1),
            (f1, f1),
            (f1, f2),
            (f1, f2),
            (f1, f2),
            (f2, f2),
            (f2, f2),
        ],
        mask: None,
    }
}

/// Empty mapping spaces, duplicate frequencies, all-tied groups.
fn near_degenerate(rng: &mut StdRng, index: u64, label: String) -> Instance {
    match index % 3 {
        0 => {
            // Empty mapping space: distinct singleton groups, but two
            // items both claim the same singleton slot.
            let n = rng.gen_range(2..=8);
            let m = (n as u64 + 1) * rng.gen_range(2..=9u64);
            let step = m / (n as u64 + 1);
            let supports: Vec<u64> = (0..n).map(|i| (i as u64 + 1) * step).collect();
            let f0 = supports[0] as f64 / m as f64;
            let mut intervals: Vec<(f64, f64)> = supports
                .iter()
                .map(|&s| {
                    let f = s as f64 / m as f64;
                    (f, f)
                })
                .collect();
            intervals[1] = (f0, f0); // second claimant of slot 0
            Instance {
                label,
                regime: Regime::NearDegenerate,
                supports,
                m,
                intervals,
                mask: None,
            }
        }
        1 => {
            // Duplicate frequencies: a single frequency group.
            let n = rng.gen_range(2..=9);
            let m = rng.gen_range(20..=200);
            let s = rng.gen_range(1..m);
            let f = s as f64 / m as f64;
            let delta = rng.gen_range(0.0..0.2);
            let interval = ((f - delta).max(0.0), (f + delta).min(1.0));
            Instance {
                label,
                regime: Regime::NearDegenerate,
                supports: vec![s; n],
                m,
                intervals: vec![interval; n],
                mask: random_mask(rng, n),
            }
        }
        _ => {
            // All-tied groups: g groups, each of size t.
            let g: usize = rng.gen_range(2..=3);
            let t: usize = rng.gen_range(2..=3);
            let n = g * t;
            let m = (g as u64 + 1) * rng.gen_range(3..=9u64);
            let step = m / (g as u64 + 1);
            let mut supports = Vec::with_capacity(n);
            let mut intervals = Vec::with_capacity(n);
            for gi in 0..g {
                let s = (gi as u64 + 1) * step;
                let f = s as f64 / m as f64;
                for _ in 0..t {
                    supports.push(s);
                    intervals.push((f, f));
                }
            }
            Instance {
                label,
                regime: Regime::NearDegenerate,
                supports,
                m,
                intervals,
                mask: random_mask(rng, n),
            }
        }
    }
}

/// Largest domain of the adversarial regime. It is the regime's own
/// bound, not the exact kernel's: the sweeps and the committed corpus
/// draw `n` from `10..=32`.
const ADVERSARIAL_MAX_N: usize = 32;

/// Large mixed-shape domains up to [`ADVERSARIAL_MAX_N`] items, above
/// the exact kernel's [`andi_graph::MAX_PERMANENT_N`]; only the cheap
/// relations apply at these sizes.
fn adversarial(rng: &mut StdRng, label: String) -> Instance {
    let n = rng.gen_range(10..=ADVERSARIAL_MAX_N);
    let m = rng.gen_range(50..=400);
    let supports = random_supports(rng, n, m);
    let intervals: Vec<(f64, f64)> = supports
        .iter()
        .map(|&s| {
            let f = s as f64 / m as f64;
            match rng.gen_range(0..4) {
                0 => (0.0, 1.0),
                1 => (f, f),
                2 => {
                    let d = rng.gen_range(0.0..0.3);
                    ((f - d).max(0.0), (f + d).min(1.0))
                }
                _ => {
                    // Possibly non-compliant: a random interval.
                    let a = rng.gen_range(0.0..1.0);
                    let b = rng.gen_range(0.0..1.0);
                    (a.min(b), a.max(b))
                }
            }
        })
        .collect();
    Instance {
        label,
        regime: Regime::Adversarial,
        supports,
        m,
        intervals,
        mask: random_mask(rng, n),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        for regime in Regime::ALL {
            for index in 0..8 {
                let a = generate(7, index, regime);
                let b = generate(7, index, regime);
                assert_eq!(a, b, "{regime} #{index}");
                assert_eq!(a.regime, regime);
                assert!(
                    a.validate().is_ok(),
                    "{regime} #{index}: {:?}",
                    a.validate()
                );
            }
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(7, 0, Regime::AlphaCompliant);
        let b = generate(8, 0, Regime::AlphaCompliant);
        assert_ne!(a.supports, b.supports);
    }

    #[test]
    fn chain_boundaries_appear() {
        // index % 5 == 0 -> k = n (all singleton groups);
        // index % 5 == 1 -> k = 1 (one group).
        let kn = generate(7, 0, Regime::Chain);
        let g = kn.graph().unwrap();
        assert_eq!(g.n_groups(), kn.n(), "k = n boundary");
        let k1 = generate(7, 1, Regime::Chain);
        assert_eq!(k1.graph().unwrap().n_groups(), 1, "k = 1 boundary");
    }

    #[test]
    fn chains_are_detectable() {
        for index in 0..20 {
            let inst = generate(11, index, Regime::Chain);
            let g = inst.graph().unwrap();
            assert!(
                andi_core::ChainSpec::detect(&g).is_some(),
                "chain #{index} must be detectable"
            );
        }
    }

    #[test]
    fn near_degenerate_covers_empty_spaces() {
        let inst = generate(7, 0, Regime::NearDegenerate);
        let dense = inst.graph().unwrap().to_dense();
        assert!(
            andi_graph::hopcroft_karp(&dense).size() < inst.n(),
            "index 0 mod 3 must be infeasible"
        );
        let dup = generate(7, 1, Regime::NearDegenerate);
        let groups = andi_data::FrequencyGroups::from_supports(&dup.supports, dup.m);
        assert_eq!(groups.n_groups(), 1, "index 1 mod 3 is a single group");
    }

    #[test]
    fn adversarial_sizes_reach_the_permanent_cap() {
        let max_n = (0..40)
            .map(|i| generate(3, i, Regime::Adversarial).n())
            .max()
            .unwrap();
        assert!(max_n >= 25, "adversarial sizes stay large, saw {max_n}");
    }
}
