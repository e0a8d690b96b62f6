//! Mining for the common good (the paper's second scenario).
//!
//! A consortium pools member data; partners may be, or become,
//! competitors. Each member screens its dataset with the Assess-Risk
//! recipe, then sanity-checks the verdict with Similarity-by-Sampling
//! — if a modest sample of the data already yields a belief function
//! more compliant than `α_max`, a partner holding *similar* data is a
//! real threat (the paper's ACCIDENTS cautionary tale).
//!
//! ```text
//! cargo run --release --example consortium
//! ```

use andi::core::report::TextTable;
use andi::{assess_risk, similarity_by_sampling, Analog, RecipeConfig, SimilarityConfig};

fn main() {
    let tau = 0.10;
    println!("consortium screening at tolerance tau = {tau}\n");

    let mut table = TextTable::new([
        "dataset",
        "items",
        "groups",
        "g<=tau*n?",
        "full OE",
        "OE/n",
        "alpha_max",
    ]);
    let mut alpha_max_of: Vec<(Analog, Option<f64>)> = Vec::new();

    for analog in [
        Analog::Chess,
        Analog::Mushroom,
        Analog::Connect,
        Analog::Pumsb,
    ] {
        let spec = analog.spec();
        let supports = analog.supports();
        let verdict = assess_risk(
            &supports,
            spec.n_transactions,
            &RecipeConfig {
                tolerance: tau,
                ..RecipeConfig::default()
            },
        )
        .expect("analog profiles are valid");
        let alpha = verdict.alpha_max();
        alpha_max_of.push((analog, alpha));
        table.add_row([
            analog.name().to_string(),
            spec.n_items.to_string(),
            format!("{:.0}", verdict.point_valued_cracks),
            if verdict.point_valued_cracks <= tau * spec.n_items as f64 {
                "yes".into()
            } else {
                "no".to_string()
            },
            format!("{:.2}", verdict.full_compliance_oe),
            format!("{:.3}", verdict.full_compliance_oe / spec.n_items as f64),
            match alpha {
                Some(a) => format!("{a:.2}"),
                None => "— (disclose)".into(),
            },
        ]);
    }
    println!("{}", table.render());

    // ------------------------------------------------------------------
    // Similarity check on the smallest dataset: how compliant is a
    // belief function built from a sample?
    // ------------------------------------------------------------------
    let analog = Analog::Chess;
    println!(
        "similarity-by-sampling on {} (how much would a partner with \
         similar data know?)",
        analog.name()
    );
    let db = analog.database();
    let points = similarity_by_sampling(
        &db,
        &[0.05, 0.10, 0.25, 0.50, 0.75],
        &SimilarityConfig {
            samples_per_size: 5,
            ..SimilarityConfig::default()
        },
    )
    .expect("sampling parameters are valid");

    let mut t2 = TextTable::new(["sample %", "mean alpha", "std", "delta'"]);
    for p in &points {
        t2.add_row([
            format!("{:.0}%", p.fraction * 100.0),
            format!("{:.3}", p.mean_alpha),
            format!("{:.3}", p.std_alpha),
            format!("{:.5}", p.mean_delta),
        ]);
    }
    println!("{}", t2.render());

    if let Some((_, Some(alpha_max))) = alpha_max_of.iter().find(|(a, _)| *a == analog) {
        let breach = points.iter().find(|p| p.mean_alpha > *alpha_max);
        match breach {
            Some(p) => println!(
                "warning: a {:.0}% sample already achieves alpha = {:.2} > \
                 alpha_max = {alpha_max:.2} — withhold from partners with similar data",
                p.fraction * 100.0,
                p.mean_alpha
            ),
            None => println!(
                "no tested sample size reaches alpha_max = {alpha_max:.2}; \
                 disclosure looks defensible"
            ),
        }
    }
}
