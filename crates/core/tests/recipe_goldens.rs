//! Pinned Assess-Risk outputs: the O-estimate path's bit-identity
//! contract.
//!
//! Each case runs the recipe (Figure 8) on an analog's default
//! supports with [`RecipeConfig::default`], at τ = 0.1 —
//! RETAIL at τ = 0.01, since at 0.1 it discloses at step 2 before the
//! α search — and pins:
//!
//! - `full_compliance_oe`, the step-6 O-estimate of the
//!   `δ_med`-widened compliant belief after Figure 7 propagation, by
//!   `to_bits`;
//! - the verdict's `alpha_max` and `oestimate_at_alpha`, by `to_bits`:
//!   `c*/n` and `c*·OE/n` for the largest compliant count `c*` whose
//!   masked O-estimate `c·OE/n` fits `τ·n` (CHESS: 14 of 75 items);
//! - an FNV-1a fold of the per-item probabilities that
//!   [`ladder_crack_probabilities`] returns on an expired budget, where
//!   the O-estimate floor answers.
//!
//! The plain recipe runs at `ANDI_THREADS`; the budgeted recipe and
//! the ladder run at 1 and 4 workers on an expired budget, where they
//! must land on the floor and give the same bits. Nothing here is an
//! epsilon comparison: a mismatch means the O-estimate path now
//! computes different numbers.
//!
//! A last case sends the ladder a RETAIL-scale non-compliant belief
//! and pins both the floor's answer and that it keeps a short
//! deadline.

use std::time::{Duration, Instant};

use andi_core::{
    assess_risk, assess_risk_budgeted, ladder_crack_probabilities, BeliefFunction, RecipeConfig,
    RiskAssessment, RiskDecision, Rung,
};
use andi_data::{Analog, FrequencyGroups};
use andi_graph::hash::{fnv1a_u64, FNV_OFFSET};
use andi_graph::par::Budget;
use andi_graph::GroupedBigraph;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// The pinned bits of one case: `full_compliance_oe`, `alpha_max`,
/// `oestimate_at_alpha` and the floor's probability hash.
type Bits = (u64, u64, u64, u64);

fn config(tolerance: f64) -> RecipeConfig {
    RecipeConfig {
        tolerance,
        ..RecipeConfig::default()
    }
}

fn frequencies(supports: &[u64], m: u64) -> Vec<f64> {
    supports.iter().map(|&s| s as f64 / m as f64).collect()
}

/// The recipe's step-5 belief: every item believed within `δ_med`
/// (the median frequency-group gap) of its true frequency.
fn delta_med_belief(supports: &[u64], m: u64) -> BeliefFunction {
    let delta = FrequencyGroups::from_supports(supports, m)
        .median_gap()
        .unwrap_or(0.0);
    BeliefFunction::widened(&frequencies(supports, m), delta).expect("δ_med is a valid half-width")
}

/// The recipe's step-5 graph.
fn delta_med_graph(supports: &[u64], m: u64) -> GroupedBigraph {
    delta_med_belief(supports, m).build_graph(supports, m)
}

fn show((oe, alpha, at_alpha, ladder): Bits) -> String {
    format!("({oe:#018x}, {alpha:#018x}, {at_alpha:#018x}, {ladder:#018x})")
}

fn hash_probabilities(p: &[f64]) -> u64 {
    p.iter().fold(FNV_OFFSET, |h, x| fnv1a_u64(h, x.to_bits()))
}

/// The transcript's pinned bits, with `ladder` as the floor hash.
fn bits(a: &RiskAssessment, ladder: u64) -> Bits {
    match a.decision {
        RiskDecision::AlphaMax {
            alpha_max,
            oestimate_at_alpha,
        } => (
            a.full_compliance_oe.to_bits(),
            alpha_max.to_bits(),
            oestimate_at_alpha.to_bits(),
            ladder,
        ),
        ref other => panic!("expected an α search at τ = 0.1, got {other:?}"),
    }
}

/// Runs one analog through the plain recipe, the budgeted recipe and
/// the ladder, and checks every run against the pinned bits.
fn check(analog: Analog, tolerance: f64, pinned: Bits) {
    let name = format!("{} (τ = {tolerance})", analog.name());
    let supports = analog.supports();
    let m = analog.spec().n_transactions;
    let config = config(tolerance);
    let graph = delta_med_graph(&supports, m);
    let expired = || Budget::with_deadline(Duration::ZERO);

    let plain = assess_risk(&supports, m, &config).expect("valid inputs");
    for threads in [1, 4] {
        let (provenance, probs) = ladder_crack_probabilities(&graph, &config, threads, &expired())
            .expect("the floor always answers");
        assert_eq!(provenance.rung, Rung::OEstimate, "{name}: ladder rung");
        let ladder = hash_probabilities(&probs);

        let got = bits(&plain, ladder);
        assert!(
            got == pinned,
            "{name}: assess_risk moved at {threads} threads (got {})",
            show(got)
        );

        let budgeted =
            assess_risk_budgeted(&supports, m, &config, &expired(), threads).expect("valid inputs");
        assert_eq!(
            budgeted.provenance.rung,
            Rung::OEstimate,
            "{name}: budgeted rung"
        );
        let got = bits(&budgeted.assessment, ladder);
        assert!(
            got == pinned,
            "{name}: assess_risk_budgeted moved at {threads} threads (got {})",
            show(got)
        );
    }
}

#[test]
fn chess_propagated_is_pinned() {
    check(
        Analog::Chess,
        0.1,
        (
            0x4043aaaaaaaaaaac,
            0x3fc7e4b17e4b17e5,
            0x401d5e6f8091a2b5,
            0xfad16148d2d65873,
        ),
    );
}

#[test]
fn mushroom_propagated_is_pinned() {
    check(
        Analog::Mushroom,
        0.1,
        (
            0x4048d5215215215a,
            0x3fcdddddddddddde,
            0x40272d524c9c4143,
            0xe28bbf55367799a2,
        ),
    );
}

#[test]
fn connect_propagated_is_pinned() {
    check(
        Analog::Connect,
        0.1,
        (
            0x40509bbbbbbbbbbe,
            0x3fc89d89d89d89d9,
            0x40298d20d20d20d6,
            0x88660d53c4b8e1e2,
        ),
    );
}

#[test]
fn pumsb_propagated_is_pinned() {
    check(
        Analog::Pumsb,
        0.1,
        (
            0x4076e6201815bd39,
            0x3fe27220b6377d27,
            0x406a663a90cd572e,
            0x112cb5899d8a4319,
        ),
    );
}

#[test]
fn accidents_propagated_is_pinned() {
    check(
        Analog::Accidents,
        0.1,
        (
            0x4066377508c60984,
            0x3fd0c8deb420c023,
            0x40474e5f7b48ed0e,
            0x25e8380a6c4dca71,
        ),
    );
}

#[test]
fn retail_propagated_is_pinned() {
    check(
        Analog::Retail,
        0.01,
        (
            0x40747d93b100a5a4,
            0x3fe012e69a20e3ce,
            0x406495c849b5a334,
            0x0211d9e556246e51,
        ),
    );
}

/// The floor's wall-clock bound past an expired deadline. On a
/// 2-core x86-64 box, a floor that materializes the n²-bit dense graph
/// (16 470² bits, 34 MB) and walks it takes 0.88 s in release and
/// 5.9–6.8 s in debug; the walk over frequency groups takes 6–9 ms in
/// release and 112–136 ms in debug. The bound leaves over 3× headroom
/// above the group walk in debug and stays below the dense walk in
/// either profile.
const FLOOR_BOUND: Duration = Duration::from_millis(500);

/// A RETAIL-scale request whose belief puts one item's interval in
/// the wrong place, so the identity is no consistent matching. Under
/// an expired deadline the exact and sampler rungs trip and the
/// O-estimate floor answers within [`FLOOR_BOUND`], with pinned
/// probabilities.
#[test]
fn retail_noncompliant_floor_keeps_a_short_deadline() {
    let analog = Analog::Retail;
    let supports = analog.supports();
    let m = analog.spec().n_transactions;
    let freqs = frequencies(&supports, m);
    // Seed 210 is the first whose one wrong interval leaves a mapping
    // space the floor answers.
    let mut rng = StdRng::seed_from_u64(210);
    let mut order: Vec<usize> = (0..supports.len()).collect();
    order.shuffle(&mut rng);
    let bad = &order[..1];
    let graph = delta_med_belief(&supports, m)
        .with_noncompliant_items(&freqs, bad, &mut rng)
        .build_graph(&supports, m);
    assert!(
        !graph.crack_edge_exists(bad[0]),
        "item {} is non-compliant",
        bad[0]
    );

    let start = Instant::now();
    let (provenance, probs) = ladder_crack_probabilities(
        &graph,
        &RecipeConfig::default(),
        1,
        &Budget::with_deadline(Duration::ZERO),
    )
    .expect("the floor answers a non-empty space");
    let elapsed = start.elapsed();
    assert_eq!(provenance.rung, Rung::OEstimate);
    assert!(
        hash_probabilities(&probs) == 0x07acbf6fd5c9c1c5,
        "the floor's probabilities moved (got {:#018x})",
        hash_probabilities(&probs)
    );
    assert!(
        elapsed < FLOOR_BOUND,
        "the floor took {elapsed:?} past an expired deadline (bound {FLOOR_BOUND:?})"
    );
}
