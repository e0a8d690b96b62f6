//! P-time: exact permanent computation (Section 4.1's "direct
//! method").
//!
//! Quantifies why the paper abandons exactness: Ryser's `O(2^n · n)`
//! doubles per added item, motivating the O-estimate.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use andi_core::BeliefFunction;
use andi_graph::{crack_probabilities, expected_cracks, permanent, DenseBigraph};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_graph(n: usize, density: f64, seed: u64) -> DenseBigraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = DenseBigraph::new(n);
    for i in 0..n {
        g.add_edge(i, i); // keep it feasible
        for j in 0..n {
            if rng.gen_bool(density) {
                g.add_edge(i, j);
            }
        }
    }
    g
}

/// A belief graph in the shape of the `assess-cold-exact` service
/// traffic: `n` supports uniform in `1..1000` of `m = 1000`, each
/// belief the true frequency with up to 0.099 of slack on each side.
fn interval_graph(n: usize, seed: u64) -> DenseBigraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let supports: Vec<u64> = (0..n).map(|_| rng.gen_range(1..1000u64)).collect();
    let intervals = supports
        .iter()
        .map(|&s| {
            let f = s as f64 / 1000.0;
            let slack = rng.gen_range(0..99u64) as f64 / 1000.0;
            ((f - slack).max(0.0), (f + slack).min(1.0))
        })
        .collect();
    BeliefFunction::from_intervals(intervals)
        .expect("intervals inside [0, 1]")
        .build_graph(&supports, 1000)
        .to_dense()
}

fn bench_permanent(c: &mut Criterion) {
    let mut group = c.benchmark_group("permanent_ryser");
    group.sample_size(10);
    for n in [8usize, 12, 16, 20] {
        let g = random_graph(n, 0.5, n as u64);
        group.bench_function(format!("n{n}"), |b| b.iter(|| permanent(black_box(&g))));
    }
    group.finish();

    let mut group = c.benchmark_group("exact_expected_cracks");
    group.sample_size(10);
    for n in [8usize, 12] {
        let g = random_graph(n, 0.5, n as u64);
        group.bench_function(format!("n{n}"), |b| {
            b.iter(|| expected_cracks(black_box(&g)))
        });
    }
    group.finish();

    // The exact rung at the largest `assess-cold-exact` size. The
    // interval graph (seed 1) splits into connected components of
    // 7, 4, 3, 2, 1 and 1 items — its largest is the median largest
    // component of that traffic — and they are walked one by one. The
    // dense graph is connected, so it still pays the whole-graph walks.
    let mut group = c.benchmark_group("exact_crack_probabilities");
    group.sample_size(10);
    for (name, g) in [
        ("n18_interval", interval_graph(18, 1)),
        ("n18_dense", random_graph(18, 0.5, 18)),
    ] {
        group.bench_function(name, |b| b.iter(|| crack_probabilities(black_box(&g))));
    }
    group.finish();
}

fn bench_per_component(c: &mut Criterion) {
    use andi_bench::Workload;
    use andi_data::synth::Analog;
    use andi_graph::{crack_probabilities_per_component, Budget};

    let mut group = c.benchmark_group("exact_per_component");
    group.sample_size(10);
    // Dense benchmark-scale interval graphs far above the 22-item
    // permanent cap: at δ_med they split into connected components
    // of at most 10 items, so the exact kernel answers them
    // exactly, one component at a time, on one worker here.
    for analog in [Analog::Chess, Analog::Mushroom, Analog::Connect] {
        let w = Workload::load(analog);
        let (_, belief) = w.delta_med_belief();
        let graph = belief.build_graph(&w.supports, w.n_transactions);
        group.bench_function(w.name.clone(), |b| {
            b.iter(|| {
                crack_probabilities_per_component(black_box(&graph), 1, &Budget::unlimited())
                    .expect("the walks price under the cap")
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_permanent, bench_per_component);
criterion_main!(benches);
