//! P-time: end-to-end Assess-Risk recipe cost (Figure 8), the
//! operation a data owner actually runs, and the graph-build layer
//! under it: the frequency scaffold and the per-belief completion
//! that `andi-serve` runs on every scaffold-cache miss and hit.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Arc;

use andi_bench::Workload;
use andi_core::{assess_risk, RecipeConfig};
use andi_data::synth::Analog;
use andi_graph::FrequencyScaffold;

fn bench_recipe(c: &mut Criterion) {
    let mut group = c.benchmark_group("assess_risk_propagated");
    group.sample_size(10);
    let config = RecipeConfig {
        tolerance: 0.1,
        ..RecipeConfig::default()
    };
    for analog in [Analog::Chess, Analog::Connect, Analog::Pumsb] {
        let w = Workload::load(analog);
        group.bench_function(w.name.clone(), |b| {
            b.iter(|| {
                assess_risk(black_box(&w.supports), w.n_transactions, &config)
                    .expect("valid inputs")
            })
        });
    }
    group.finish();
}

fn bench_graph_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("graph_build");
    group.sample_size(10);
    for analog in [Analog::Chess, Analog::Connect, Analog::Pumsb] {
        let w = Workload::load(analog);
        let intervals = w.delta_med_belief().1.intervals().to_vec();
        group.bench_function(format!("scaffold_new/{}", w.name), |b| {
            b.iter(|| FrequencyScaffold::new(black_box(&w.supports), w.n_transactions))
        });
        let scaffold = Arc::new(FrequencyScaffold::new(&w.supports, w.n_transactions));
        group.bench_function(format!("graph_for/{}", w.name), |b| {
            b.iter(|| scaffold.graph_for(black_box(&intervals)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_recipe, bench_graph_build);
criterion_main!(benches);
