//! P-time: O-estimate runtime (the Section 7.2 "only a few seconds"
//! remark, and the Figure 5 `O(|D| + n log n)` claim).
//!
//! Benchmarks the plain prefix-sum O-estimate and the propagated
//! variant across the benchmark analogs, plus graph construction on
//! its own.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use andi_bench::Workload;
use andi_core::OutdegreeProfile;
use andi_data::synth::Analog;

fn bench_plain_oe(c: &mut Criterion) {
    let mut group = c.benchmark_group("oe_plain");
    group.sample_size(20);
    for analog in Analog::ALL {
        let w = Workload::load(analog);
        let belief = w.delta_med_belief();
        group.bench_function(w.name.clone(), |b| {
            b.iter(|| {
                // Full Figure 5 pipeline from the support profile:
                // grouping, graph setup, prefix-sum outdegrees, sum.
                let graph = belief.build_graph(black_box(&w.supports), w.n_transactions);
                OutdegreeProfile::plain(&graph).oestimate()
            })
        });
    }
    group.finish();
}

fn bench_propagated_oe(c: &mut Criterion) {
    let mut group = c.benchmark_group("oe_propagated");
    group.sample_size(10);
    for analog in Analog::ALL {
        let w = Workload::load(analog);
        let belief = w.delta_med_belief();
        let graph = belief.build_graph(&w.supports, w.n_transactions);
        group.bench_function(w.name.clone(), |b| {
            b.iter(|| {
                OutdegreeProfile::propagated(black_box(&graph))
                    .expect("feasible")
                    .oestimate()
            })
        });
    }
    group.finish();
}

fn bench_graph_construction(c: &mut Criterion) {
    let mut group = c.benchmark_group("graph_construction");
    group.sample_size(20);
    for analog in [Analog::Connect, Analog::Retail] {
        let w = Workload::load(analog);
        let belief = w.delta_med_belief();
        group.bench_function(w.name.clone(), |b| {
            b.iter(|| belief.build_graph(black_box(&w.supports), w.n_transactions))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_plain_oe,
    bench_propagated_oe,
    bench_graph_construction
);
criterion_main!(benches);
