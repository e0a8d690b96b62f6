//! Best-effort crack-expectation estimation.
//!
//! The library has three estimators with different domains of
//! applicability:
//!
//! 1. **Convex exact** ([`andi_graph::convex`]) — polynomial for
//!    narrow candidate windows; exact.
//! 2. **Ryser exact** ([`andi_graph::exact`]) — any graph, but
//!    `O(2^n)`; exact.
//! 3. **O-estimate** ([`mod@crate::oestimate`]) — always fast; a close
//!    under-estimate (the paper's Δ analysis).
//!
//! [`best_expected_cracks`] tries them in that order and reports
//! which one answered, so callers (and reports) know whether a
//! number is exact or heuristic. Every call builds what it needs from
//! the graph it is given; a caller that reuses an O-estimate keeps the
//! [`OutdegreeProfile`] itself.

use andi_graph::convex::{expected_cracks_convex, ConvexError};
use andi_graph::exact::{crack_probabilities_per_component, ExactError};
use andi_graph::par::{self, Budget};
use andi_graph::GroupedBigraph;

use crate::error::{Error, Result};
use crate::oestimate::OutdegreeProfile;

/// Which estimator produced the value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EstimateMethod {
    /// Exact, via the convex-bipartite dynamic program.
    ConvexExact {
        /// The candidate-window width the DP ran with.
        window: usize,
    },
    /// Exact, via Ryser permanents, one connected component at a
    /// time.
    RyserExact,
    /// The O-estimate heuristic (with Figure 7 propagation).
    OEstimate,
}

impl EstimateMethod {
    /// Whether the value is exact rather than heuristic.
    pub fn is_exact(self) -> bool {
        !matches!(self, EstimateMethod::OEstimate)
    }
}

/// An expected-crack value plus its provenance.
#[derive(Clone, Copy, Debug)]
pub struct CrackEstimate {
    /// Expected number of cracks.
    pub value: f64,
    /// Which estimator produced it.
    pub method: EstimateMethod,
}

/// Component-size ceiling for the Ryser leg: a component of `c`
/// items costs `c + 1` walks of up to `2^c` subsets, so this keeps a
/// call on an unlimited budget to milliseconds whatever the domain
/// size.
pub const RYSER_LIMIT: usize = 18;

/// Computes the expected number of cracks of a grouped mapping
/// space, exactly when affordable.
///
/// `state_budget` bounds the convex DP (use
/// [`andi_graph::convex::DEFAULT_STATE_BUDGET`] unless memory is
/// tight). When the DP declines, Ryser runs one connected component
/// at a time ([`crack_probabilities_per_component`]) at any domain
/// size. A component above [`RYSER_LIMIT`] items, or a permanent that
/// overflows, leaves the answer to the O-estimate.
///
/// # Errors
///
/// Returns [`Error::EmptyMappingSpace`] when the convex DP or the
/// component split proves that no consistent perfect matching
/// exists — an item without candidates does so at every domain size —
/// when Ryser finds a zero permanent inside a component, or when
/// propagation proves the space empty.
///
/// # Examples
///
/// ```
/// use andi_core::{best_expected_cracks, BeliefFunction};
/// use andi_graph::convex::DEFAULT_STATE_BUDGET;
///
/// let supports = [5u64, 4, 5, 5, 3, 5];
/// let freqs: Vec<f64> = supports.iter().map(|&s| s as f64 / 10.0).collect();
/// let belief = BeliefFunction::point_valued(&freqs).unwrap();
/// let graph = belief.build_graph(&supports, 10);
/// let estimate = best_expected_cracks(&graph, DEFAULT_STATE_BUDGET).unwrap();
/// assert!(estimate.method.is_exact());
/// assert!((estimate.value - 3.0).abs() < 1e-9); // Lemma 3, exactly
/// ```
pub fn best_expected_cracks(graph: &GroupedBigraph, state_budget: usize) -> Result<CrackEstimate> {
    // 1. Convex exact.
    match expected_cracks_convex(graph, state_budget) {
        Ok(exact) => {
            return Ok(CrackEstimate {
                value: exact.expected_cracks,
                method: EstimateMethod::ConvexExact {
                    window: exact.window,
                },
            })
        }
        Err(ConvexError::NoPerfectMatching) | Err(ConvexError::UnmatchableItem { .. }) => {
            return Err(Error::EmptyMappingSpace)
        }
        Err(ConvexError::BudgetExceeded { .. }) => {}
    }

    // 2. Ryser exact per connected component of at most RYSER_LIMIT
    // items: the item-order sum of the exact crack probabilities.
    let threads = par::available_threads();
    match crack_probabilities_per_component(graph, RYSER_LIMIT, threads, &Budget::unlimited()) {
        Ok(probs) => {
            return Ok(CrackEstimate {
                value: probs.iter().fold(0.0, |e, &p| e + p),
                method: EstimateMethod::RyserExact,
            })
        }
        Err(ExactError::EmptyMappingSpace) => return Err(Error::EmptyMappingSpace),
        Err(ExactError::ComponentTooLarge { .. }) | Err(ExactError::Overflow) => {}
        Err(ExactError::Interrupted(e)) => return Err(e.into()),
    }

    // 3. O-estimate with propagation.
    Ok(CrackEstimate {
        value: OutdegreeProfile::propagated(graph)?.oestimate(),
        method: EstimateMethod::OEstimate,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::belief::BeliefFunction;

    const BIGMART_SUPPORTS: [u64; 6] = [5, 4, 5, 5, 3, 5];

    fn freqs() -> Vec<f64> {
        BIGMART_SUPPORTS.iter().map(|&s| s as f64 / 10.0).collect()
    }

    #[test]
    fn point_valued_goes_convex() {
        let b = BeliefFunction::point_valued(&freqs()).unwrap();
        let g = b.build_graph(&BIGMART_SUPPORTS, 10);
        let e = best_expected_cracks(&g, 1_000_000).unwrap();
        assert_eq!(e.method, EstimateMethod::ConvexExact { window: 1 });
        assert!(e.method.is_exact());
        assert!((e.value - 3.0).abs() < 1e-9);
    }

    #[test]
    fn belief_h_is_exact_too() {
        // h's widest interval spans all three groups: window 3, still
        // affordable; must equal the Ryser value 1.8125.
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
        let e = best_expected_cracks(&g, 1_000_000).unwrap();
        assert!(e.method.is_exact());
        assert!((e.value - 1.8125).abs() < 1e-9, "got {}", e.value);
    }

    #[test]
    fn tiny_budget_falls_back_to_ryser_then_oe() {
        let h = BeliefFunction::widened(&freqs(), 0.1).unwrap();
        let g = h.build_graph(&BIGMART_SUPPORTS, 10);
        // Budget 0 kills the convex DP; n = 6 <= RYSER_LIMIT.
        let e = best_expected_cracks(&g, 0).unwrap();
        assert_eq!(e.method, EstimateMethod::RyserExact);
    }

    #[test]
    fn large_noncompliant_domains_are_empty_spaces() {
        // 30 items, one whose interval holds no frequency: convex
        // refuses, and the component split proves the space empty at
        // this size too.
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
            best_expected_cracks(&g, 0).unwrap_err(),
            Error::EmptyMappingSpace
        );
    }

    #[test]
    fn large_noncompliant_domains_use_oe() {
        // 30 items, each believed within one support step of its own
        // but item 0, believed at the top frequency (non-compliant,
        // yet matchable): one 30-item component. Convex refuses at
        // budget 0 and the component is above RYSER_LIMIT, so the
        // O-estimate answers without a walk.
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
        let e = best_expected_cracks(&g, 0).unwrap();
        assert_eq!(e.method, EstimateMethod::OEstimate);
        // One Ryser walk of this component alone takes seconds.
        assert!(start.elapsed().as_secs() < 2, "took {:?}", start.elapsed());
    }

    #[test]
    fn a_component_above_the_cap_uses_oe() {
        // 40 items in one frequency group: one 40-item component.
        let supports = vec![5u64; 40];
        let b = BeliefFunction::from_intervals(vec![(0.0, 1.0); 40]).unwrap();
        let g = b.build_graph(&supports, 10);
        let e = best_expected_cracks(&g, 0).unwrap();
        assert_eq!(e.method, EstimateMethod::OEstimate);
        assert!(!e.method.is_exact());
    }

    #[test]
    fn empty_space_is_reported() {
        let supports = [4u64, 8];
        let intervals = vec![(0.4, 0.4), (0.4, 0.4)];
        let b = BeliefFunction::from_intervals(intervals).unwrap();
        let g = b.build_graph(&supports, 10);
        let err = best_expected_cracks(&g, 1_000_000).unwrap_err();
        assert_eq!(err, Error::EmptyMappingSpace);
    }
}
