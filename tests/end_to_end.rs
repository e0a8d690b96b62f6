//! End-to-end scenarios spanning all four crates: owner anonymizes,
//! hacker attacks, and the estimates predict what actually happens.

use andi::graph::sampler::SamplerConfig;
use andi::graph::{hopcroft_karp, sample_cracks_budgeted, Budget};
use andi::{
    assess_risk, fpgrowth, sampled_belief, AnonymizationMapping, BeliefFunction, OutdegreeProfile,
    RecipeConfig, SimilarityConfig,
};
use andi_data::synth::quest::{generate, QuestConfig};
use andi_data::{bigmart, Database};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// An actual end-to-end attack: the owner anonymizes; the hacker
/// (holding the true frequencies) finds a consistent crack mapping
/// via maximum matching on the *released* data; the number of true
/// cracks equals what Lemma 3's group analysis allows.
#[test]
fn real_attack_on_bigmart_with_exact_knowledge() {
    let db = bigmart();
    let n = db.n_items();
    let mut rng = StdRng::seed_from_u64(404);
    let mapping = AnonymizationMapping::random(n, &mut rng);
    let released = mapping.anonymize_database(&db).unwrap();

    // The hacker knows the exact frequencies (compliant point-valued
    // belief) and observes the released supports.
    let released_supports = released.supports();
    let belief = BeliefFunction::point_valued(&db.frequencies()).unwrap();

    // Build the hacker's graph in *release* indexing: edge (i, y)
    // iff released item i's frequency lies in y's interval.
    let m = released.n_transactions() as f64;
    let mut g = andi::graph::DenseBigraph::new(n);
    for (i, &sup) in released_supports.iter().enumerate() {
        let f = sup as f64 / m;
        for y in 0..n {
            let (l, r) = belief.interval(y);
            if l <= f && f <= r {
                g.add_edge(i, y);
            }
        }
    }
    let matching = hopcroft_karp(&g);
    assert!(
        matching.is_perfect(),
        "point-valued space admits a matching"
    );

    // Count true cracks against the secret mapping.
    let crack_map: Vec<u32> = (0..n)
        .map(|i| matching.left_partner[i].unwrap() as u32)
        .collect();
    let cracks = mapping.count_cracks(&crack_map);
    // The two singleton frequency groups are cracked for sure; the
    // 4-group items may or may not be.
    assert!(
        cracks >= 2,
        "singleton groups are always cracked, got {cracks}"
    );
    assert!(cracks <= n);
}

/// The full mining-as-a-service loop: anonymized mining results map
/// back exactly.
#[test]
fn mining_roundtrip_through_anonymization() {
    let mut rng = StdRng::seed_from_u64(777);
    let db = generate(
        &QuestConfig {
            n_items: 60,
            n_transactions: 500,
            n_patterns: 12,
            avg_pattern_len: 3,
            patterns_per_transaction: 2,
            noise_prob: 0.2,
            noise_max: 2,
        },
        &mut rng,
    );
    let mapping = AnonymizationMapping::random(db.n_items(), &mut rng);
    let released = mapping.anonymize_database(&db).unwrap();
    let min_support = 25;
    let direct = fpgrowth(&db, min_support);
    assert!(!direct.is_empty(), "workload should have frequent sets");
    let anon_result = fpgrowth(&released, min_support);
    assert_eq!(anon_result.relabel(mapping.backward()), direct);
}

/// The recipe and an actual simulated hacker agree on BigMart: the
/// recipe's full-compliance OE matches a long simulation within a
/// few percent.
#[test]
fn recipe_oe_matches_simulated_hacker() {
    let db = bigmart();
    let supports = db.supports();
    let verdict = assess_risk(
        &supports,
        db.n_transactions() as u64,
        &RecipeConfig {
            tolerance: 0.01, // force the full path
            ..RecipeConfig::default()
        },
    )
    .unwrap();

    let belief = BeliefFunction::widened(&db.frequencies(), verdict.delta_med).unwrap();
    let graph = belief.build_graph(&supports, db.n_transactions() as u64);
    let samples = sample_cracks_budgeted(
        &graph,
        &andi::graph::Matching::identity(db.n_items()),
        &SamplerConfig {
            warmup_swaps: 20_000,
            swaps_between_samples: 500,
            samples_per_seed: 500,
            n_samples: 2_000,
            use_locality: true,
        },
        11,
        andi::graph::par::available_threads(),
        &Budget::unlimited(),
    )
    .unwrap();
    let sim = samples.mean();
    // The exact value for this 6-item instance is computable too.
    let exact = andi::graph::expected_cracks(&graph.to_dense()).expect("feasible");
    assert!(
        (sim - exact).abs() < 0.15,
        "simulation {sim} should approach exact {exact}"
    );
    // OE is within the paper's observed error band of the exact
    // value on this tiny entangled instance.
    assert!(
        (verdict.full_compliance_oe - exact).abs() / exact < 0.25,
        "OE {} vs exact {exact}",
        verdict.full_compliance_oe
    );
}

/// Similarity-by-sampling feeds the recipe: a belief function built
/// from a 100% "sample" is fully compliant, and its masked OE equals
/// the full OE.
#[test]
fn sampled_belief_plugs_into_profile_machinery() {
    let db = bigmart();
    let mut rng = StdRng::seed_from_u64(21);
    let sb = sampled_belief(&db, 1.0, &SimilarityConfig::default(), &mut rng).unwrap();
    assert!((sb.alpha - 1.0).abs() < 1e-12);
    let graph = sb
        .belief
        .build_graph(&db.supports(), db.n_transactions() as u64);
    let profile = OutdegreeProfile::plain(&graph);
    let mask = sb.belief.compliance_mask(&db.frequencies());
    assert!((profile.oestimate_masked(&mask).unwrap() - profile.oestimate()).abs() < 1e-12);
}

/// Anonymization's protective value degrades gracefully: a hacker
/// with a 30% sample cracks more than an ignorant one but less than
/// a point-valued one (in O-estimate terms).
#[test]
fn knowledge_ladder_is_ordered() {
    // A mid-size synthetic workload with collisions.
    let mut rng = StdRng::seed_from_u64(31);
    let db = generate(
        &QuestConfig {
            n_items: 80,
            n_transactions: 2_000,
            ..QuestConfig::default()
        },
        &mut rng,
    );
    let supports = db.supports();
    let m = db.n_transactions() as u64;
    let freqs = db.frequencies();

    let oe_ignorant = andi::oestimate(&BeliefFunction::ignorant(80), &supports, m);
    let point = BeliefFunction::point_valued(&freqs).unwrap();
    let oe_point = andi::oestimate(&point, &supports, m);

    let sb = sampled_belief(&db, 0.3, &SimilarityConfig::default(), &mut rng).unwrap();
    let graph = sb.belief.build_graph(&supports, m);
    let mask = sb.belief.compliance_mask(&freqs);
    let oe_sampled = OutdegreeProfile::plain(&graph)
        .oestimate_masked(&mask)
        .unwrap();

    assert!(
        oe_ignorant <= oe_sampled + 1e-9,
        "ignorant {oe_ignorant} vs sampled {oe_sampled}"
    );
    assert!(
        oe_sampled <= oe_point + 1e-9,
        "sampled {oe_sampled} vs point-valued {oe_point}"
    );
}

/// Database relabeling composes: anonymizing twice with two mappings
/// equals anonymizing once with the composition.
#[test]
fn anonymization_composes() {
    let db = bigmart();
    let mut rng = StdRng::seed_from_u64(41);
    let m1 = AnonymizationMapping::random(6, &mut rng);
    let m2 = AnonymizationMapping::random(6, &mut rng);
    let step = m2
        .anonymize_database(&m1.anonymize_database(&db).unwrap())
        .unwrap();
    let composed: Vec<u32> = (0..6)
        .map(|x| m2.forward()[m1.forward()[x] as usize])
        .collect();
    let direct = AnonymizationMapping::from_permutation(composed)
        .unwrap()
        .anonymize_database(&db)
        .unwrap();
    assert_eq!(step.supports(), direct.supports());
    for (a, b) in step.transactions().iter().zip(direct.transactions()) {
        assert_eq!(a.items(), b.items());
    }
}

/// FIMI round-trip through anonymization and back preserves the
/// database exactly.
#[test]
fn fimi_anonymize_roundtrip() {
    let db = bigmart();
    let mut rng = StdRng::seed_from_u64(51);
    let mapping = AnonymizationMapping::random(6, &mut rng);
    let released = mapping.anonymize_database(&db).unwrap();
    let mut buf = Vec::new();
    andi::data::fimi::write_fimi(&released, &mut buf).unwrap();
    let parsed = andi::data::fimi::read_fimi(buf.as_slice()).unwrap();
    let recovered = mapping.deanonymize_database(&parsed.database).unwrap();
    assert_eq!(recovered.supports(), db.supports());
}

/// Degenerate databases flow through the whole pipeline without
/// panics: single item, single transaction.
#[test]
fn degenerate_databases() {
    let db = Database::from_raw(1, &[&[0]]).unwrap();
    let supports = db.supports();
    let verdict = assess_risk(
        &supports,
        1,
        &RecipeConfig {
            tolerance: 1.0,
            ..RecipeConfig::default()
        },
    )
    .unwrap();
    // One item, one group: g = 1 <= 1.0 * 1.
    assert!(verdict.discloses());
    let b = BeliefFunction::ignorant(1);
    assert_eq!(andi::oestimate(&b, &supports, 1), 1.0);
}
