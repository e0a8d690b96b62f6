//! Pinned expected cracks on the analogs, from the exact kernel or,
//! where it declines, the propagated O-estimate.
//!
//! Each case builds the recipe's step-5 graph (every item believed
//! within `δ_med` of its true frequency). CHESS, MUSHROOM and CONNECT
//! split into connected components of at most 10 items, so
//! [`crack_probabilities_per_component`] answers them exactly, Ryser
//! per component; the sum of its probabilities is pinned by
//! `to_bits`. PUMSB, ACCIDENTS and RETAIL have components far above
//! the 22-item walk ceiling: the kernel declines on price
//! ([`ExactError::TooCostly`]), and the propagated O-estimate is
//! pinned instead.

use std::time::{Duration, Instant};

use andi_core::{BeliefFunction, OutdegreeProfile};
use andi_data::{Analog, FrequencyGroups};
use andi_graph::par::{available_threads, Budget};
use andi_graph::{crack_probabilities_per_component, ExactError, GroupedBigraph};

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

/// The exact kernel on an unlimited budget, timed.
fn exact(graph: &GroupedBigraph) -> (Result<Vec<f64>, ExactError>, Duration) {
    let start = Instant::now();
    let out = crack_probabilities_per_component(graph, available_threads(), &Budget::unlimited());
    (out, start.elapsed())
}

fn assert_bits(analog: Analog, value: f64, bits: u64) {
    assert!(
        value.to_bits() == bits,
        "{}: got {value} ({:#018x})",
        analog.name(),
        value.to_bits(),
    );
}

/// Checks that the kernel answers with the pinned sum.
fn check_exact(analog: Analog, bits: u64) {
    let (out, _) = exact(&delta_med_graph(analog));
    let probs = out.expect("small components answer exactly");
    assert_bits(analog, probs.iter().sum(), bits);
}

/// Checks that the kernel declines on price, and the pinned
/// propagated O-estimate; returns how long the kernel took to decline.
fn check_declined(analog: Analog, bits: u64) -> Duration {
    let graph = delta_med_graph(analog);
    let (out, elapsed) = exact(&graph);
    assert!(
        matches!(out, Err(ExactError::TooCostly { .. })),
        "{}: {out:?}",
        analog.name()
    );
    let oe = OutdegreeProfile::propagated(&graph)
        .expect("a compliant belief")
        .oestimate();
    assert_bits(analog, oe, bits);
    elapsed
}

#[test]
fn chess_answers_on_ryser_per_component() {
    check_exact(Analog::Chess, 0x4044b55555555555);
}

#[test]
fn mushroom_answers_on_ryser_per_component() {
    check_exact(Analog::Mushroom, 0x404a4d74394120f4);
}

#[test]
fn connect_answers_on_ryser_per_component() {
    check_exact(Analog::Connect, 0x4051129100a4402a);
}

#[test]
fn pumsb_falls_through_to_the_oestimate() {
    check_declined(Analog::Pumsb, 0x4076e6201815bd39);
}

#[test]
fn accidents_falls_through_to_the_oestimate() {
    check_declined(Analog::Accidents, 0x4066377508c60984);
}

/// RETAIL's largest component holds about 16 000 items, so the
/// kernel declines on price before any walk, in milliseconds: with
/// the O-estimate after it, about 5 ms in release and 90 ms in debug
/// builds on a 2-core x86-64 box. An estimator that spends an exact
/// work budget before declining takes 170–225 ms in release and
/// 1.35–1.82 s in debug there, past these bounds.
#[test]
fn retail_falls_through_to_the_oestimate_promptly() {
    let bound = if cfg!(debug_assertions) {
        Duration::from_millis(600)
    } else {
        Duration::from_millis(60)
    };
    let elapsed = check_declined(Analog::Retail, 0x40747d93b100a5a4);
    assert!(elapsed <= bound, "took {elapsed:?}, bound {bound:?}");
}
