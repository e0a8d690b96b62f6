//! Pinned [`best_expected_cracks`] answers on the analogs.
//!
//! Each case builds the recipe's step-5 graph (every item believed
//! within `δ_med` of its true frequency) and pins the value by
//! `to_bits` together with the estimator that answered. CHESS,
//! MUSHROOM and CONNECT split into connected components of at most
//! 10 items and answer on Ryser per component; PUMSB, ACCIDENTS and
//! RETAIL have components far above `RYSER_LIMIT` and fall through to
//! the propagated O-estimate.

use std::time::{Duration, Instant};

use andi_core::{best_expected_cracks, BeliefFunction, EstimateMethod};
use andi_data::{Analog, FrequencyGroups};
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

/// Checks the pinned answer and returns how long the call took.
fn check(analog: Analog, bits: u64, method: EstimateMethod) -> Duration {
    let graph = delta_med_graph(analog);
    let start = Instant::now();
    let got = best_expected_cracks(&graph).expect("a compliant belief");
    let elapsed = start.elapsed();
    assert!(
        (got.value.to_bits(), got.method) == (bits, method),
        "{}: got {} ({:#018x}) from {:?}",
        analog.name(),
        got.value,
        got.value.to_bits(),
        got.method
    );
    elapsed
}

#[test]
fn chess_answers_on_ryser_per_component() {
    check(
        Analog::Chess,
        0x4044b55555555555,
        EstimateMethod::RyserExact,
    );
}

#[test]
fn mushroom_answers_on_ryser_per_component() {
    check(
        Analog::Mushroom,
        0x404a4d74394120f4,
        EstimateMethod::RyserExact,
    );
}

#[test]
fn connect_answers_on_ryser_per_component() {
    check(
        Analog::Connect,
        0x4051129100a4402a,
        EstimateMethod::RyserExact,
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

/// RETAIL's largest component holds about 16 000 items, so the
/// component split declines before any walk and the O-estimate over
/// frequency groups answers in milliseconds: about 5 ms in release and
/// 90 ms in debug builds on a 2-core x86-64 box. A ladder that first
/// spends an exact estimator's work budget on it takes 170–225 ms in
/// release and 1.35–1.82 s in debug there, past these bounds.
#[test]
fn retail_falls_through_to_the_oestimate_promptly() {
    let bound = if cfg!(debug_assertions) {
        Duration::from_millis(600)
    } else {
        Duration::from_millis(60)
    };
    let elapsed = check(
        Analog::Retail,
        0x40747d93b100a5a4,
        EstimateMethod::OEstimate,
    );
    assert!(elapsed <= bound, "took {elapsed:?}, bound {bound:?}");
}
