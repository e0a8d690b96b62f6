//! Mining as a service (the paper's first motivating scenario).
//!
//! A company without in-house expertise ships its baskets to an
//! external mining provider. Anonymization's selling point is that it
//! does not perturb data characteristics: the provider mines the
//! anonymized baskets, returns anonymized patterns, and the owner
//! maps them back losslessly. The flip side — how much the provider
//! could learn about product identities — is what the risk analysis
//! quantifies.
//!
//! ```text
//! cargo run --example mining_service
//! ```

use andi::{assess_risk, fpgrowth, AnonymizationMapping, RecipeConfig};
use andi_data::synth::quest::{generate, QuestConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // The owner's correlated basket data (Quest-style generator).
    let mut rng = StdRng::seed_from_u64(42);
    let config = QuestConfig {
        n_items: 120,
        n_transactions: 3_000,
        n_patterns: 25,
        avg_pattern_len: 4,
        patterns_per_transaction: 2,
        noise_prob: 0.25,
        noise_max: 3,
    };
    let db = generate(&config, &mut rng);
    println!(
        "owner data: {} items, {} transactions, avg length {:.1}",
        db.n_items(),
        db.n_transactions(),
        db.avg_transaction_len()
    );

    // --------------------------------------------------------------
    // Step 1: anonymize and ship.
    // --------------------------------------------------------------
    let mapping = AnonymizationMapping::random(db.n_items(), &mut rng);
    let shipped = mapping.anonymize_database(&db).expect("domains match");

    // --------------------------------------------------------------
    // Step 2: the provider mines the anonymized data.
    // --------------------------------------------------------------
    let min_support = (db.n_transactions() / 20) as u64; // 5%
    let provider_result = fpgrowth(&shipped, min_support);
    println!(
        "provider mined {} frequent itemsets at min support {min_support}",
        provider_result.len()
    );

    // --------------------------------------------------------------
    // Step 3: the owner maps the patterns back and cross-checks that
    // nothing was perturbed: mining the original directly gives the
    // identical result.
    // --------------------------------------------------------------
    let mapped_back = provider_result.relabel(mapping.backward());
    let direct = fpgrowth(&db, min_support);
    assert_eq!(
        mapped_back, direct,
        "anonymization must not perturb mining results"
    );
    println!("mapped-back patterns identical to mining the original: OK");
    if let Some((top, support)) = direct.iter().max_by_key(|&(_, c)| c) {
        println!("most frequent pattern: {top} (support {support})");
    }

    // --------------------------------------------------------------
    // Step 4: before shipping, the owner should have asked — how safe
    // was that? Run the recipe at a 10% tolerance.
    // --------------------------------------------------------------
    let verdict = assess_risk(
        &db.supports(),
        db.n_transactions() as u64,
        &RecipeConfig {
            tolerance: 0.10,
            ..RecipeConfig::default()
        },
    )
    .expect("recipe inputs are valid");
    println!(
        "\nrisk assessment (tau = 0.10): point-valued cracks = {:.0}, \
         delta_med = {:.5}, full-compliance OE = {:.2}",
        verdict.point_valued_cracks, verdict.delta_med, verdict.full_compliance_oe
    );
    match verdict.decision {
        andi::RiskDecision::DiscloseAtPointValued => {
            println!("verdict: disclose — safe even against exact frequency knowledge")
        }
        andi::RiskDecision::DiscloseAtFullCompliance => {
            println!("verdict: disclose — interval-level knowledge stays within tolerance")
        }
        andi::RiskDecision::AlphaMax {
            alpha_max,
            oestimate_at_alpha,
        } => println!(
            "verdict: the provider would need to guess {:.0}% of frequency \
             intervals correctly to crack more than tolerated \
             (OE at alpha_max = {oestimate_at_alpha:.2} items)",
            alpha_max * 100.0
        ),
    }
}
