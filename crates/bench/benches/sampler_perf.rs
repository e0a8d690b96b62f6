//! P-time: throughput of the Section 7.1 matching sampler.
//!
//! Measures swap-walk progress per unit time on small and mid-size
//! mapping spaces — the cost driver behind the paper's 5 000-sample
//! ground-truth runs.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use andi_bench::Workload;
use andi_data::synth::Analog;
use andi_graph::sampler::{sample_cracks_budgeted, SamplerConfig};
use andi_graph::{Budget, Matching};

/// A short fixed schedule whose dominant cost is raw swap attempts.
fn budget() -> SamplerConfig {
    SamplerConfig {
        warmup_swaps: 20_000,
        swaps_between_samples: 1_000,
        samples_per_seed: 30,
        n_samples: 30,
        use_locality: true,
    }
}

fn bench_sampler(c: &mut Criterion) {
    let mut group = c.benchmark_group("sampler_swaps");
    group.sample_size(10);
    let config = budget();
    let total_swaps =
        (config.warmup_swaps + config.swaps_between_samples * config.samples_per_seed) as u64;
    group.throughput(Throughput::Elements(total_swaps));

    for analog in [Analog::Chess, Analog::Connect, Analog::Pumsb] {
        let w = Workload::load(analog);
        let (_, belief) = w.delta_med_belief();
        let graph = belief.build_graph(&w.supports, w.n_transactions);
        let seed = Matching::identity(w.n_items());
        // One batch on one worker: every call times the same 50 000
        // attempts of the seed-7 stream.
        group.bench_function(w.name.clone(), |b| {
            b.iter(|| {
                sample_cracks_budgeted(&graph, &seed, &config, 7, 1, &Budget::unlimited())
                    .expect("seed is consistent")
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_sampler);
criterion_main!(benches);
