//! Best-effort crack-expectation estimation.
//!
//! [`best_expected_cracks`] is the degradation ladder of
//! [`crate::recipe::ladder_crack_probabilities`] on an unlimited
//! budget, without its sampler:
//!
//! 1. **exact-permanent** ([`andi_graph::exact`]) — Ryser one
//!    connected component at a time, priced before any walk; exact.
//! 2. **o-estimate** ([`mod@crate::oestimate`]) — always fast; a close
//!    under-estimate (the paper's Δ analysis).
//!
//! It reports the [`Rung`] that answered, so callers (and reports)
//! know whether a number is exact or heuristic.

use andi_graph::par::{self, Budget};
use andi_graph::GroupedBigraph;

use crate::error::Result;
use crate::recipe::{exact_rung, oe_probabilities, seed_matching};
use crate::report::Rung;

/// Computes the expected number of cracks of a grouped mapping
/// space, exactly when affordable, and the [`Rung`] that answered.
///
/// The exact rung runs Ryser one connected component at a time
/// ([`andi_graph::crack_probabilities_per_component`]) at any domain
/// size. Walks that price above
/// [`andi_graph::exact::EXACT_PRICE_CAP`] subset steps, or a worker
/// panic in one, leave the answer to the propagated O-estimate, once
/// the deadline greedy — a maximum matching on interval graphs — has
/// found a perfect matching.
///
/// # Errors
///
/// Returns [`Error::EmptyMappingSpace`] when no consistent perfect
/// matching exists: the component split proves it (an item without
/// candidates does so at every domain size), Ryser finds a zero
/// permanent inside a component, or the deadline greedy matches fewer
/// than every item.
///
/// [`Error::EmptyMappingSpace`]: crate::Error::EmptyMappingSpace
///
/// # Examples
///
/// ```
/// use andi_core::{best_expected_cracks, BeliefFunction, Rung};
///
/// let supports = [5u64, 4, 5, 5, 3, 5];
/// let freqs: Vec<f64> = supports.iter().map(|&s| s as f64 / 10.0).collect();
/// let belief = BeliefFunction::point_valued(&freqs).unwrap();
/// let graph = belief.build_graph(&supports, 10);
/// let (rung, value) = best_expected_cracks(&graph).unwrap();
/// assert_eq!(rung, Rung::Exact);
/// assert!((value - 3.0).abs() < 1e-9); // Lemma 3, exactly
/// ```
pub fn best_expected_cracks(graph: &GroupedBigraph) -> Result<(Rung, f64)> {
    let threads = par::available_threads();
    let (rung, probs) = match exact_rung(graph, threads, &Budget::unlimited(), &mut Vec::new())? {
        Some(p) => (Rung::Exact, p),
        None => {
            seed_matching(graph)?;
            (Rung::OEstimate, oe_probabilities(graph)?)
        }
    };
    Ok((rung, probs.iter().fold(0.0, |e, &p| e + p)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::belief::BeliefFunction;
    use crate::error::Error;

    const BIGMART_SUPPORTS: [u64; 6] = [5, 4, 5, 5, 3, 5];

    fn freqs() -> Vec<f64> {
        BIGMART_SUPPORTS.iter().map(|&s| s as f64 / 10.0).collect()
    }

    #[test]
    fn point_valued_is_exact() {
        let b = BeliefFunction::point_valued(&freqs()).unwrap();
        let g = b.build_graph(&BIGMART_SUPPORTS, 10);
        let (rung, value) = best_expected_cracks(&g).unwrap();
        assert_eq!(rung, Rung::Exact);
        assert!((value - 3.0).abs() < 1e-9);
    }

    #[test]
    fn belief_h_is_exact_too() {
        // h's widest interval spans all three groups; the exact
        // value is 1.8125.
        let h = BeliefFunction::from_intervals(vec![
            (0.0, 1.0),
            (0.4, 0.5),
            (0.5, 0.5),
            (0.4, 0.6),
            (0.1, 0.4),
            (0.5, 0.5),
        ])
        .unwrap();
        let g = h.build_graph(&BIGMART_SUPPORTS, 10);
        let (rung, value) = best_expected_cracks(&g).unwrap();
        assert_eq!(rung, Rung::Exact);
        assert!((value - 1.8125).abs() < 1e-9, "got {value}");
    }

    #[test]
    fn large_noncompliant_domains_are_empty_spaces() {
        // 30 items, one whose interval holds no frequency: the
        // component split proves the space empty at this size too.
        let supports: Vec<u64> = (1..=30).collect();
        let mut intervals: Vec<(f64, f64)> = supports
            .iter()
            .map(|&s| {
                let f = s as f64 / 30.0;
                ((f - 0.05).max(0.0), (f + 0.05).min(1.0))
            })
            .collect();
        intervals[0] = (0.98, 0.99); // between 29/30 and 30/30
        let b = BeliefFunction::from_intervals(intervals).unwrap();
        let g = b.build_graph(&supports, 30);
        assert_eq!(
            best_expected_cracks(&g).unwrap_err(),
            Error::EmptyMappingSpace
        );
    }

    #[test]
    fn large_noncompliant_domains_use_oe() {
        // 30 items, each believed within one support step of its own
        // but item 0, believed at the top frequency (non-compliant,
        // yet matchable): one 30-item component. Its walks price
        // above the cap, so the O-estimate answers without a walk.
        let supports: Vec<u64> = (1..=30).collect();
        let mut intervals: Vec<(f64, f64)> = supports
            .iter()
            .map(|&s| {
                let f = s as f64 / 30.0;
                ((f - 0.05).max(0.0), (f + 0.05).min(1.0))
            })
            .collect();
        intervals[0] = (0.99, 1.0);
        let b = BeliefFunction::from_intervals(intervals).unwrap();
        let g = b.build_graph(&supports, 30);
        assert_eq!(g.components().unwrap().largest(), 30);
        let start = std::time::Instant::now();
        let (rung, _) = best_expected_cracks(&g).unwrap();
        assert_eq!(rung, Rung::OEstimate);
        // One Ryser walk of this component alone takes seconds.
        assert!(start.elapsed().as_secs() < 2, "took {:?}", start.elapsed());
    }

    #[test]
    fn a_component_above_the_cap_uses_oe() {
        // 40 items in one frequency group: one 40-item component.
        let supports = vec![5u64; 40];
        let b = BeliefFunction::from_intervals(vec![(0.0, 1.0); 40]).unwrap();
        let g = b.build_graph(&supports, 10);
        let (rung, _) = best_expected_cracks(&g).unwrap();
        assert_eq!(rung, Rung::OEstimate);
    }

    #[test]
    fn an_empty_space_above_the_cap_is_reported() {
        // Three items believe only the support-1 group, which holds
        // two anonymized items; 17 more believe anything. That is one
        // 20-item component that prices above the cap, with no
        // degree-1 item for propagation to force, and no perfect
        // matching.
        let supports: Vec<u64> = (0..20).map(|i| if i < 2 { 1 } else { 2 }).collect();
        let intervals: Vec<(f64, f64)> = (0..20)
            .map(|i| if i < 3 { (0.1, 0.1) } else { (0.0, 1.0) })
            .collect();
        let b = BeliefFunction::from_intervals(intervals).unwrap();
        let g = b.build_graph(&supports, 10);
        assert_eq!(g.components().unwrap().largest(), 20);
        assert_eq!(
            best_expected_cracks(&g).unwrap_err(),
            Error::EmptyMappingSpace
        );
    }

    #[test]
    fn empty_space_is_reported() {
        let supports = [4u64, 8];
        let intervals = vec![(0.4, 0.4), (0.4, 0.4)];
        let b = BeliefFunction::from_intervals(intervals).unwrap();
        let g = b.build_graph(&supports, 10);
        let err = best_expected_cracks(&g).unwrap_err();
        assert_eq!(err, Error::EmptyMappingSpace);
    }
}
