//! The convex DP against Ryser per connected component at benchmark
//! scale: on the CHESS, MUSHROOM and CONNECT analogs with truthful
//! intervals widened from `δ_med` to `2·δ_med` (the beliefs
//! the ladder's exact rung and the service's analog traffic answer
//! exactly), the two exact estimators — which share no code — give
//! every item's crack probability within 1e-12 relative, at 1, 4 and
//! `ANDI_THREADS` workers.

use andi_core::BeliefFunction;
use andi_data::{Analog, FrequencyGroups};
use andi_graph::par::{available_threads, Budget};
use andi_graph::{crack_probabilities_per_component, MAX_PERMANENT_N};
use andi_oracle::convex::{convex_exact, DEFAULT_STATE_BUDGET};

#[test]
fn convex_dp_equals_per_component_marginals_on_the_analogs() {
    for analog in [Analog::Chess, Analog::Mushroom, Analog::Connect] {
        let supports = analog.supports();
        let m = analog.spec().n_transactions;
        let freqs: Vec<f64> = supports.iter().map(|&s| s as f64 / m as f64).collect();
        let delta_med = FrequencyGroups::from_supports(&supports, m)
            .median_gap()
            .expect("the analogs have several groups");
        for scale in [1.0, 1.5, 2.0] {
            let name = format!("{} at {scale}·δ_med", analog.name());
            let graph = BeliefFunction::widened(&freqs, delta_med * scale)
                .expect("a valid half-width")
                .build_graph(&supports, m);
            assert!(graph.n() > MAX_PERMANENT_N, "{name}: n = {}", graph.n());
            let convex = convex_exact(&graph, DEFAULT_STATE_BUDGET)
                .unwrap_or_else(|e| panic!("{name}: the DP declined: {e}"));
            assert!(convex.window >= 2, "{name}: W = {}", convex.window);
            for threads in [1, 4, available_threads()] {
                let exact =
                    crack_probabilities_per_component(&graph, threads, &Budget::unlimited())
                        .unwrap_or_else(|e| panic!("{name}: the component walk failed: {e}"));
                for (x, (&p, &q)) in exact.iter().zip(&convex.probabilities).enumerate() {
                    assert!(
                        (p - q).abs() <= 1e-12 * q.abs(),
                        "{name}, t={threads}: item {x} exact {p} vs convex {q}"
                    );
                }
            }
        }
    }
}
