//! P-time: the FP-Growth miner on correlated baskets.
//!
//! Not a paper table — this exercises the mining substrate the
//! examples use, at two support thresholds.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use andi_data::synth::quest::{generate, QuestConfig};
use andi_mining::fpgrowth;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_fpgrowth(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1234);
    let db = generate(
        &QuestConfig {
            n_items: 150,
            n_transactions: 4_000,
            n_patterns: 30,
            avg_pattern_len: 4,
            patterns_per_transaction: 2,
            noise_prob: 0.25,
            noise_max: 3,
        },
        &mut rng,
    );

    for min_support_pct in [2u64, 5] {
        let min_support = db.n_transactions() as u64 * min_support_pct / 100;
        let mut group = c.benchmark_group(format!("mining_minsup_{min_support_pct}pct"));
        group.sample_size(10);
        group.bench_function("fp-growth", |b| {
            b.iter(|| fpgrowth(black_box(&db), min_support))
        });
        group.finish();
    }
}

criterion_group!(benches, bench_fpgrowth);
criterion_main!(benches);
