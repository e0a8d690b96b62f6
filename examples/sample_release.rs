//! Should the owner release a sample instead of the full database?
//!
//! Clifton's argument (cited in Section 7.4) says a small random
//! sample poses little threat. The paper pushes back in compliancy
//! terms; this example gives the owner both views:
//!
//! 1. the crack risk *of the released sample itself* as the release
//!    fraction grows, and
//! 2. how much compliancy (attack power against the full data) a
//!    belief function built from that sample achieves.
//!
//! Also shows the exact-when-affordable estimator: beliefs whose
//! connected components are small get exact numbers rather than
//! heuristics.
//!
//! ```text
//! cargo run --release --example sample_release
//! ```

use andi::core::estimate::best_expected_cracks;
use andi::core::report::TextTable;
use andi::{
    sample_release_curve, similarity_by_sampling, Analog, BeliefFunction, FrequencyGroups,
    SimilarityConfig,
};

fn main() {
    let analog = Analog::Mushroom;
    println!("owner data: the {} analog", analog.name());
    let db = analog.database();
    let fractions = [0.05, 0.10, 0.25, 0.50, 1.0];
    let config = SimilarityConfig {
        samples_per_size: 5,
        ..SimilarityConfig::default()
    };

    // View 1: risk of the release itself.
    let release = sample_release_curve(&db, &fractions, &config).expect("parameters are valid");
    // View 2: attack power a sample lends against the full data.
    let attack = similarity_by_sampling(&db, &fractions, &config).expect("parameters are valid");

    let mut table = TextTable::new([
        "release %",
        "exposed items",
        "OE of release",
        "crack fraction",
        "alpha vs full data",
    ]);
    for (r, a) in release.iter().zip(attack.iter()) {
        table.add_row([
            format!("{:.0}%", r.fraction * 100.0),
            r.exposed_items.to_string(),
            format!("{:.2}", r.oestimate),
            format!("{:.3}", r.fraction_cracked),
            format!("{:.3}", a.mean_alpha),
        ]);
    }
    println!("{}", table.render());

    // Exactness bonus: this dense analog's δ_med belief splits into
    // small connected components, so Ryser per component gives the
    // *exact* expected cracks of a full release, no simulation
    // needed.
    let supports = db.supports();
    let m = db.n_transactions() as u64;
    let groups = FrequencyGroups::from_supports(&supports, m);
    let delta = groups.median_gap().expect("multiple groups");
    let belief = BeliefFunction::widened(&db.frequencies(), delta).expect("valid");
    let graph = belief.build_graph(&supports, m);
    match best_expected_cracks(&graph) {
        Ok(e) => println!(
            "full release, exact expected cracks = {:.3} via {:?}",
            e.value, e.method
        ),
        Err(e) => println!("exact estimate unavailable: {e}"),
    }

    println!(
        "\nreading: small releases still leak — the sample's own O-estimate\n\
         stays a sizeable fraction of its exposed items, and even a 10%\n\
         sample hands an attacker nontrivial compliancy against the full\n\
         data. 'Release less' is not a privacy mechanism."
    );
}
