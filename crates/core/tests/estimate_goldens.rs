//! Pinned [`best_expected_cracks`] answers on the analogs.
//!
//! Each case builds the recipe's step-5 graph (every item believed
//! within `δ_med` of its true frequency) and pins the value by
//! `to_bits` together with the estimator that answered. CHESS,
//! MUSHROOM and CONNECT answer on the convex DP; the PUMSB and
//! ACCIDENTS windows are too wide for it and fall through to the
//! O-estimate. RETAIL is left to `fig10_accuracy`: its packed DP runs
//! into the work budget before it falls through, which takes seconds.

use andi_core::{best_expected_cracks, BeliefFunction, EstimateMethod};
use andi_data::{Analog, FrequencyGroups};
use andi_graph::convex::DEFAULT_STATE_BUDGET;
use andi_graph::GroupedBigraph;

fn delta_med_graph(analog: Analog) -> GroupedBigraph {
    let supports = analog.supports();
    let m = analog.spec().n_transactions;
    let delta = FrequencyGroups::from_supports(&supports, m)
        .median_gap()
        .unwrap_or(0.0);
    let freqs: Vec<f64> = supports.iter().map(|&s| s as f64 / m as f64).collect();
    BeliefFunction::widened(&freqs, delta)
        .expect("δ_med is a valid half-width")
        .build_graph(&supports, m)
}

fn check(analog: Analog, bits: u64, method: EstimateMethod) {
    let graph = delta_med_graph(analog);
    let got = best_expected_cracks(&graph, DEFAULT_STATE_BUDGET).expect("a compliant belief");
    assert!(
        (got.value.to_bits(), got.method) == (bits, method),
        "{}: got {} ({:#018x}) from {:?}",
        analog.name(),
        got.value,
        got.value.to_bits(),
        got.method
    );
}

#[test]
fn chess_answers_on_the_convex_dp() {
    check(
        Analog::Chess,
        0x4044b55555555558,
        EstimateMethod::ConvexExact { window: 5 },
    );
}

#[test]
fn mushroom_answers_on_the_convex_dp() {
    check(
        Analog::Mushroom,
        0x404a4d74394120e8,
        EstimateMethod::ConvexExact { window: 6 },
    );
}

#[test]
fn connect_answers_on_the_convex_dp() {
    check(
        Analog::Connect,
        0x4051129100a4402b,
        EstimateMethod::ConvexExact { window: 5 },
    );
}

#[test]
fn pumsb_falls_through_to_the_oestimate() {
    check(Analog::Pumsb, 0x4076e6201815bd39, EstimateMethod::OEstimate);
}

#[test]
fn accidents_falls_through_to_the_oestimate() {
    check(
        Analog::Accidents,
        0x4066377508c60984,
        EstimateMethod::OEstimate,
    );
}
