//! F-fig10: accuracy of the O-estimates (Figure 10).
//!
//! For the four datasets of Figure 10, under full compliancy with the
//! recipe's `δ_med` interval width: the O-estimate vs the average
//! simulated estimate (5 runs of the Section 7.1 sampler) with its
//! standard deviation. The paper's claim to reproduce: the
//! O-estimates fall well within one standard deviation of the
//! simulated estimates.
//!
//! ```text
//! cargo run --release -p andi-bench --bin fig10_accuracy [--quick]
//! ```

use std::time::Instant;

use andi_bench::{n_runs, quick_mode, sampler_config, Workload};
use andi_core::report::TextTable;
use andi_core::simulate::{simulate_expected_cracks, SimulationConfig};
use andi_core::{best_expected_cracks, OutdegreeProfile};
use andi_data::synth::Analog;

fn main() {
    let quick = quick_mode();
    if quick {
        eprintln!("[fig10] quick mode: reduced sampler schedule");
    }

    let mut table = TextTable::new([
        "dataset",
        "n",
        "OE (plain)",
        "OE (propagated)",
        "exact",
        "sim mean",
        "sim std",
        "R-hat",
        "|OE-sim|/std",
        "err %",
        "OE time",
    ]);

    for analog in Analog::FIGURE_10 {
        let w = Workload::load(analog);
        let belief = w.delta_med_belief();
        let graph = belief.build_graph(&w.supports, w.n_transactions);

        let t0 = Instant::now();
        let plain = OutdegreeProfile::plain(&graph).oestimate();
        let plain_time = t0.elapsed();

        let t0 = Instant::now();
        let propagated = OutdegreeProfile::propagated(&graph)
            .expect("compliant belief has a non-empty space")
            .oestimate();
        let prop_time = t0.elapsed();

        // Exact expectation via Ryser per connected component where
        // the components are small enough (our addition beyond the
        // paper: dense datasets get ground truth without sampling).
        let exact = best_expected_cracks(&graph)
            .ok()
            .filter(|e| e.method.is_exact())
            .map_or_else(|| "—".into(), |e| format!("{:.2}", e.value));

        let sim_config = SimulationConfig {
            sampler: sampler_config(quick, w.n_items()),
            n_runs: n_runs(quick),
            seed: 0xF1610,
            ..SimulationConfig::default()
        };
        let sim = simulate_expected_cracks(&graph, &sim_config)
            .expect("compliant belief has a non-empty space");
        let dev = if sim.std_dev() > 0.0 {
            (propagated - sim.mean()).abs() / sim.std_dev()
        } else {
            f64::INFINITY
        };
        table.add_row([
            w.name.clone(),
            w.n_items().to_string(),
            format!("{plain:.2}"),
            format!("{propagated:.2}"),
            exact,
            format!("{:.2}", sim.mean()),
            format!("{:.3}", sim.std_dev()),
            sim.r_hat()
                .map(|r| format!("{r:.3}"))
                .unwrap_or_else(|| "—".into()),
            format!("{dev:.2}"),
            format!(
                "{:.2}",
                100.0 * (sim.mean() - propagated) / sim.mean().max(1e-12)
            ),
            format!("{:.0?}+{:.0?}", plain_time, prop_time),
        ]);
    }
    println!(
        "Figure 10: O-estimate vs average simulated estimate (full\n\
         compliancy, width = delta_med, {} runs, alternating\n\
         identity/decracked walk starts)\n",
        n_runs(quick)
    );
    println!("{}", table.render());
    println!(
        "paper's claim: |OE - sim| well within one std dev; the 'OE time'\n\
         column backs the \"even for RETAIL it takes only a few seconds\"\n\
         remark of Section 7.2."
    );
}
