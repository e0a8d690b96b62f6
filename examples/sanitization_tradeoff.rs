//! The dilemma, quantified: risk bought by perturbation vs mining
//! utility lost.
//!
//! Plain anonymization preserves mining results exactly but leaves
//! the frequency profile intact for a knowledgeable hacker. The
//! perturbation family the paper cites (rule hiding, randomization,
//! k-anonymity) trades utility for camouflage. Here we sweep the
//! simplest such sanitizer — support rounding — and print both sides
//! of the ledger on one table: disclosure risk (point-valued `g`,
//! interval O-estimate) versus mining fidelity (F1 of the frequent
//! itemsets against the unperturbed truth) and frequency error.
//!
//! ```text
//! cargo run --release --example sanitization_tradeoff
//! ```

use andi::core::report::TextTable;
use andi::core::sanitize::{round_supports, utility_loss};
use andi::{fpgrowth, BeliefFunction, FrequencyGroups, MiningResult, OutdegreeProfile};
use andi_data::synth::quest::{generate, QuestConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// F1 of the sanitized mining result against the truth.
fn mining_f1(truth: &MiningResult, got: &MiningResult) -> f64 {
    let tp = got
        .iter()
        .filter(|(s, _)| truth.support(s).is_some())
        .count() as f64;
    if got.is_empty() || truth.is_empty() {
        return if got.len() == truth.len() { 1.0 } else { 0.0 };
    }
    let precision = tp / got.len() as f64;
    let recall = tp / truth.len() as f64;
    if precision + recall == 0.0 {
        0.0
    } else {
        2.0 * precision * recall / (precision + recall)
    }
}

fn main() {
    let mut rng = StdRng::seed_from_u64(515);
    let db = generate(
        &QuestConfig {
            n_items: 100,
            n_transactions: 2_000,
            n_patterns: 20,
            avg_pattern_len: 4,
            patterns_per_transaction: 2,
            noise_prob: 0.3,
            noise_max: 3,
        },
        &mut rng,
    );
    let m = db.n_transactions() as u64;
    let min_support = m / 20; // 5%
    let truth = fpgrowth(&db, min_support);
    println!(
        "workload: {} items, {m} transactions; truth = {} frequent sets at 5%\n",
        db.n_items(),
        truth.len()
    );

    let mut table = TextTable::new([
        "bucket",
        "groups g",
        "OE (delta_med)",
        "OE/n",
        "mining F1",
        "mean freq err",
        "edits %",
    ]);
    for bucket in [1u64, 5, 10, 25, 50, 100] {
        let sanitized = round_supports(&db, bucket, &mut rng).expect("bucket >= 1");
        let sdb = &sanitized.database;
        let supports = sdb.supports();
        let groups = FrequencyGroups::from_supports(&supports, m);
        let (_, belief) = BeliefFunction::delta_med_compliant(&groups).expect("valid frequencies");
        let graph = belief.build_graph(&supports, m);
        let oe = OutdegreeProfile::propagated(&graph)
            .expect("compliant space")
            .oestimate();
        let mined = fpgrowth(sdb, min_support);
        let loss = utility_loss(&db, &sanitized).expect("same domain");
        table.add_row([
            bucket.to_string(),
            groups.n_groups().to_string(),
            format!("{oe:.1}"),
            format!("{:.3}", oe / db.n_items() as f64),
            format!("{:.3}", mining_f1(&truth, &mined)),
            format!("{:.4}", loss.mean_frequency_error),
            format!("{:.2}%", 100.0 * loss.edit_fraction),
        ]);
    }
    println!("{}", table.render());
    println!(
        "reading: rounding buys camouflage (g and the O-estimate fall) at a\n\
         measurable mining cost — exactly the trade plain anonymization\n\
         refuses to make. The owner can now put numbers on both pans of\n\
         the scale."
    );
}
