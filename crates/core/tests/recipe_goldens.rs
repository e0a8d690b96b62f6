//! Pinned Assess-Risk outputs: the O-estimate path's bit-identity
//! contract.
//!
//! Each case runs the recipe (Figure 8) on an analog's default
//! supports at τ = 0.1 with [`RecipeConfig::default`]'s seeds, with
//! and without Figure 7 propagation, and pins:
//!
//! - `full_compliance_oe`, the step-6 O-estimate of the
//!   `δ_med`-widened compliant belief, by `to_bits`;
//! - the verdict's `alpha_max` and `oestimate_at_alpha`, by `to_bits`;
//! - an FNV-1a fold of the per-item probabilities that
//!   [`ladder_crack_probabilities`] returns on an expired budget, where
//!   the O-estimate floor answers.
//!
//! The plain recipe runs at `ANDI_THREADS`; the budgeted recipe and
//! the ladder run at 1 and 4 workers on an expired budget, where they
//! must land on the floor and give the same bits. Nothing here is an
//! epsilon comparison: a mismatch means the O-estimate path now
//! computes different numbers.

use std::time::Duration;

use andi_core::{
    assess_risk, assess_risk_budgeted, ladder_crack_probabilities, BeliefFunction, RecipeConfig,
    RiskAssessment, RiskDecision, Rung,
};
use andi_data::{Analog, FrequencyGroups};
use andi_graph::hash::{fnv1a_u64, FNV_OFFSET};
use andi_graph::par::Budget;
use andi_graph::GroupedBigraph;

/// The pinned bits of one case: `full_compliance_oe`, `alpha_max`,
/// `oestimate_at_alpha` and the floor's probability hash.
type Bits = (u64, u64, u64, u64);

fn config(use_propagation: bool) -> RecipeConfig {
    RecipeConfig {
        tolerance: 0.1,
        use_propagation,
        ..RecipeConfig::default()
    }
}

/// The recipe's step-5 graph: every item believed within `δ_med` (the
/// median frequency-group gap) of its true frequency.
fn delta_med_graph(supports: &[u64], m: u64) -> GroupedBigraph {
    let delta = FrequencyGroups::from_supports(supports, m)
        .median_gap()
        .unwrap_or(0.0);
    let freqs: Vec<f64> = supports.iter().map(|&s| s as f64 / m as f64).collect();
    BeliefFunction::widened(&freqs, delta)
        .expect("δ_med is a valid half-width")
        .build_graph(supports, m)
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
fn check(analog: Analog, use_propagation: bool, pinned: Bits) {
    let name = format!("{} (propagation {use_propagation})", analog.name());
    let supports = analog.supports();
    let m = analog.spec().n_transactions;
    let config = config(use_propagation);
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
fn chess_plain_is_pinned() {
    check(
        Analog::Chess,
        false,
        (
            0x4043aaaaaaaaaaac,
            0x3fc62fc962fc9630,
            0x401c5c28f5c28f5d,
            0xfad16148d2d65873,
        ),
    );
}

#[test]
fn chess_propagated_is_pinned() {
    check(
        Analog::Chess,
        true,
        (
            0x4043aaaaaaaaaaac,
            0x3fc62fc962fc9630,
            0x401c5c28f5c28f5d,
            0xfad16148d2d65873,
        ),
    );
}

#[test]
fn mushroom_plain_is_pinned() {
    check(
        Analog::Mushroom,
        false,
        (
            0x4048d5215215215a,
            0x3fcccccccccccccd,
            0x4027c4eab511b781,
            0xe28bbf55367799a2,
        ),
    );
}

#[test]
fn mushroom_propagated_is_pinned() {
    check(
        Analog::Mushroom,
        true,
        (
            0x4048d5215215215a,
            0x3fcccccccccccccd,
            0x4027c4eab511b781,
            0xe28bbf55367799a2,
        ),
    );
}

#[test]
fn connect_plain_is_pinned() {
    check(
        Analog::Connect,
        false,
        (
            0x40509bbbbbbbbbbe,
            0x3fc89d89d89d89d9,
            0x402958bf258bf258,
            0x88660d53c4b8e1e2,
        ),
    );
}

#[test]
fn connect_propagated_is_pinned() {
    check(
        Analog::Connect,
        true,
        (
            0x40509bbbbbbbbbbe,
            0x3fc89d89d89d89d9,
            0x402958bf258bf258,
            0x88660d53c4b8e1e2,
        ),
    );
}

#[test]
fn pumsb_plain_is_pinned() {
    check(
        Analog::Pumsb,
        false,
        (
            0x4076e6201815bd39,
            0x3fe2858335e9f328,
            0x406a634c60d25c40,
            0x112cb5899d8a4319,
        ),
    );
}

#[test]
fn pumsb_propagated_is_pinned() {
    check(
        Analog::Pumsb,
        true,
        (
            0x4076e6201815bd39,
            0x3fe2858335e9f328,
            0x406a634c60d25c40,
            0x112cb5899d8a4319,
        ),
    );
}
