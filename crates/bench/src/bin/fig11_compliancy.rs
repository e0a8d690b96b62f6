//! F-fig11: varying the degree of compliancy (Figure 11).
//!
//! For each Figure 10 dataset: sweep α over 0.0..=1.0, print the
//! masked O-estimate (its closed-form mean over compliant subsets) as
//! a fraction of the domain (the figure's y-axis), mark the owner's
//! tolerance τ = 0.1, and report α_max on the same curve: the largest
//! compliant fraction c/n whose masked estimate fits τ·n, from the
//! probabilities the table uses. Without `--sim` the output is
//! a pure function of the analog, at any `ANDI_THREADS`. The paper's
//! qualitative claims to reproduce:
//!
//! * RETAIL sits below τ even at α = 1 (clear disclose);
//! * PUMSB and ACCIDENTS cross τ at a comfortable α (≈ 0.65–0.7);
//! * CONNECT crosses early (≈ 0.2) — the owner should think twice.
//!
//! With `--sim`, each α grid point is also simulated (the figure's
//! second series) by materializing an α-compliant belief function.
//!
//! ```text
//! cargo run --release -p andi-bench --bin fig11_compliancy [--quick] [--sim]
//! ```

use andi_bench::{n_runs, quick_mode, sampler_config, Workload};
use andi_core::recipe::{compliancy_curve, compliancy_curve_decoy};
use andi_core::report::TextTable;
use andi_core::simulate::{simulate_expected_cracks, SimulationConfig};
use andi_core::OutdegreeProfile;
use andi_data::synth::Analog;
use andi_graph::crack_probabilities_per_component;
use andi_graph::par::{available_threads, Budget};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

fn main() {
    let quick = quick_mode();
    let with_sim = std::env::args().any(|a| a == "--sim");
    let tau = 0.1;
    let alphas: Vec<f64> = (0..=10).map(|k| k as f64 / 10.0).collect();

    for analog in Analog::FIGURE_10 {
        let w = Workload::load(analog);
        let n = w.n_items();
        let (delta_med, belief) = w.delta_med_belief();
        let graph = belief.build_graph(&w.supports, w.n_transactions);
        // Exact marginals, one connected component at a time, when
        // the walks price under the cap; otherwise the propagated
        // O-estimate.
        let exact =
            crack_probabilities_per_component(&graph, available_threads(), &Budget::unlimited());
        let (probs, estimator) = match exact {
            Ok(p) => (p, "exact"),
            Err(_) => (
                OutdegreeProfile::propagated(&graph)
                    .expect("compliant space is non-empty")
                    .probabilities(),
                "O-estimate",
            ),
        };
        let curve = compliancy_curve(&probs, &alphas);
        // Decoy-corrected variant: wrong intervals of the same mean
        // width still absorb anonymized items and compete with the
        // compliant claimants, bending the curve super-linear (as the
        // paper's Figure 11 shows and the simulation confirms).
        let width = 2.0 * delta_med;
        let decoy = compliancy_curve_decoy(&graph, width, &alphas);

        let mut table = TextTable::new(if with_sim {
            vec!["alpha", "OE", "OE/n", "decoy/n", "sim/n", "<= tau?"]
        } else {
            vec!["alpha", "OE", "OE/n", "decoy/n", "<= tau?"]
        });
        for (point, d) in curve.iter().zip(decoy.iter()) {
            let mut row = vec![
                format!("{:.1}", point.alpha),
                format!("{:.2}", point.oestimate),
                format!("{:.4}", point.fraction),
                format!("{:.4}", d.fraction),
            ];
            if with_sim {
                row.push(format!(
                    "{:.4}",
                    simulate_alpha(&w, point.alpha, quick) / n as f64
                ));
            }
            row.push(if point.fraction <= tau { "yes" } else { "no" }.into());
            table.add_row(row);
        }

        // α_max at τ on the curve above: the last of the compliant
        // fractions c/n, c = 0..=n, whose masked OE fits τ·n (c = 0
        // always does). A fit at c = n discloses outright.
        let fractions: Vec<f64> = (0..=n).map(|c| c as f64 / n as f64).collect();
        let fits = compliancy_curve(&probs, &fractions);
        let c_max = fits
            .iter()
            .rposition(|p| p.oestimate <= tau * n as f64)
            .unwrap_or(0);
        let alpha_max = if c_max == n {
            "discloses outright".to_string()
        } else {
            format!("alpha_max = {:.2}", fits[c_max].alpha)
        };
        println!(
            "Figure 11 — {} (n = {n}, tau = {tau}, estimator: {estimator}): {alpha_max}\n{}",
            w.name,
            table.render()
        );
    }
}

/// Ground-truth simulation at one α: make a random (1-α) fraction of
/// items non-compliant (same interval width, wrong location) and run
/// the Section 7.1 sampler.
fn simulate_alpha(w: &Workload, alpha: f64, quick: bool) -> f64 {
    let n = w.n_items();
    let freqs = w.frequencies();
    let (_, belief) = w.delta_med_belief();
    let mut rng = StdRng::seed_from_u64(0x51711 ^ (alpha * 1000.0) as u64);
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(&mut rng);
    let n_bad = n - ((alpha * n as f64).round() as usize).min(n);
    let bad: Vec<usize> = order.into_iter().take(n_bad).collect();
    let alpha_belief = belief.with_noncompliant_items(&freqs, &bad, &mut rng);
    let graph = alpha_belief.build_graph(&w.supports, w.n_transactions);
    match simulate_expected_cracks(
        &graph,
        &SimulationConfig {
            sampler: sampler_config(quick, n),
            n_runs: n_runs(quick),
            seed: 0x51711,
            ..SimulationConfig::default()
        },
    ) {
        Ok(sim) => sim.mean(),
        Err(_) => 0.0, // empty mapping space: nothing can be cracked
    }
}
