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
//! number is exact or heuristic.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock};

use andi_graph::convex::{expected_cracks_convex, ConvexError};
use andi_graph::exact::{crack_probabilities_budgeted, ExactError};
use andi_graph::hash::{fnv1a_u64, FNV_OFFSET};
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
    /// Exact, via Ryser permanents (tiny domains).
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

/// Domain-size ceiling for the Ryser fallback.
const RYSER_LIMIT: usize = 18;

/// Computes the expected number of cracks of a grouped mapping
/// space, exactly when affordable.
///
/// `state_budget` bounds the convex DP (use
/// [`andi_graph::convex::DEFAULT_STATE_BUDGET`] unless memory is
/// tight).
///
/// # Errors
///
/// Returns [`Error::EmptyMappingSpace`] when no consistent perfect
/// matching exists (all three methods agree on detecting this).
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
        Err(ConvexError::NoPerfectMatching) => return Err(Error::EmptyMappingSpace),
        // Unmatchable items also mean no perfect matching; but the
        // O-estimate semantics still assign the remaining items
        // probabilities, so fall through like BudgetExceeded.
        Err(ConvexError::UnmatchableItem { .. }) | Err(ConvexError::BudgetExceeded { .. }) => {}
    }

    // 2. Ryser exact on tiny domains: the item-order sum of the exact
    // crack probabilities. Overflow and an empty mapping space are
    // distinct outcomes of the budgeted core.
    if graph.n() <= RYSER_LIMIT {
        let probs = crack_probabilities_budgeted(
            &graph.to_dense(),
            par::available_threads(),
            &Budget::unlimited(),
        );
        return match probs {
            Ok(probs) => Ok(CrackEstimate {
                value: probs.iter().fold(0.0, |e, &p| e + p),
                method: EstimateMethod::RyserExact,
            }),
            Err(ExactError::EmptyMappingSpace) => Err(Error::EmptyMappingSpace),
            Err(ExactError::Overflow) => {
                Err(Error::Overflow("Ryser permanent overflowed i128".into()))
            }
            Err(ExactError::Interrupted(e)) => Err(e.into()),
        };
    }

    // 3. O-estimate with propagation.
    let profile = cached_profile(graph, true)?;
    Ok(CrackEstimate {
        value: profile.oestimate(),
        method: EstimateMethod::OEstimate,
    })
}

/// Entry cap on the profile memo. Eviction is per-entry LRU (not a
/// wholesale clear): a long-running server sweeping many distinct
/// beliefs keeps its hot working set while cold entries age out.
const PROFILE_CACHE_CAP: usize = 256;

/// A bounded, deterministic least-recently-used memo.
///
/// Recency is a logical tick counter bumped on every hit and insert —
/// no wall clock — so eviction order is a pure function of the access
/// sequence. When full, the entry with the smallest tick is evicted;
/// ties are impossible (ticks are unique) and the scan walks the
/// `BTreeMap` in key order, so the behavior is identical across runs
/// and thread counts for a fixed access sequence.
struct ProfileLru {
    tick: u64,
    entries: BTreeMap<(u64, bool), (u64, Arc<OutdegreeProfile>)>,
}

impl ProfileLru {
    const fn new() -> Self {
        ProfileLru {
            tick: 0,
            entries: BTreeMap::new(),
        }
    }

    fn touch(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    fn get(&mut self, key: &(u64, bool)) -> Option<Arc<OutdegreeProfile>> {
        let tick = self.touch();
        let (last_used, profile) = self.entries.get_mut(key)?;
        *last_used = tick;
        Some(Arc::clone(profile))
    }

    fn insert(&mut self, key: (u64, bool), profile: Arc<OutdegreeProfile>) {
        let tick = self.touch();
        if !self.entries.contains_key(&key) && self.entries.len() >= PROFILE_CACHE_CAP {
            if let Some(coldest) = self
                .entries
                .iter()
                .min_by_key(|(_, (last_used, _))| *last_used)
                .map(|(k, _)| *k)
            {
                self.entries.remove(&coldest);
            }
        }
        self.entries.insert(key, (tick, profile));
    }
}

type ProfileCache = Mutex<ProfileLru>;

fn profile_cache() -> &'static ProfileCache {
    static CACHE: OnceLock<ProfileCache> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(ProfileLru::new()))
}

/// Locks the cache, tolerating poisoning: the guarded map is a pure
/// memo, so a panic mid-update can at worst leave a stale or missing
/// entry — never an inconsistent one worth propagating a panic for.
fn lock_cache() -> std::sync::MutexGuard<'static, ProfileLru> {
    profile_cache()
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Structural fingerprint of a grouped mapping space: FNV-1a over the
/// domain size, transaction count, group supports/sizes, each item's
/// frequency group and each item's candidate group range. Two graphs
/// share a fingerprint iff they were built from the same (supports,
/// n_transactions, belief intervals) modulo hash collisions — the
/// belief only enters `GroupedBigraph` through exactly these fields.
pub fn graph_fingerprint(graph: &GroupedBigraph) -> u64 {
    let mut h = FNV_OFFSET;
    let mut mix = |v: u64| h = fnv1a_u64(h, v);
    mix(graph.n() as u64);
    mix(graph.n_transactions());
    for &s in graph.group_supports() {
        mix(s);
    }
    for &s in graph.group_sizes() {
        mix(s as u64);
    }
    for i in 0..graph.n() {
        mix(graph.left_group_of(i) as u64);
        match graph.right_range_of(i) {
            Some((lo, hi)) => {
                mix(lo as u64 + 1);
                mix(hi as u64 + 1);
            }
            None => mix(0),
        }
    }
    h
}

/// Memoized [`OutdegreeProfile`] lookup keyed by the graph's
/// structural fingerprint (which encodes the belief and supports) and
/// the propagation flag. Repeated α/τ sweeps over the same release —
/// the recipe's common shape — rebuild the profile once instead of
/// per call; the `Arc` is shared, never cloned deep.
///
/// # Errors
///
/// Propagates [`OutdegreeProfile::propagated`]'s empty-mapping-space
/// error (never cached).
pub fn cached_profile(graph: &GroupedBigraph, propagated: bool) -> Result<Arc<OutdegreeProfile>> {
    let key = (graph_fingerprint(graph), propagated);
    if let Some(hit) = lock_cache().get(&key) {
        return Ok(hit);
    }
    let profile = Arc::new(if propagated {
        OutdegreeProfile::propagated(graph)?
    } else {
        OutdegreeProfile::plain(graph)
    });
    lock_cache().insert(key, Arc::clone(&profile));
    Ok(profile)
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
        // Budget 0 kills the convex DP; n = 6 <= Ryser limit.
        let e = best_expected_cracks(&g, 0).unwrap();
        assert_eq!(e.method, EstimateMethod::RyserExact);
    }

    #[test]
    fn large_noncompliant_domains_use_oe() {
        // 30 items, one unmatchable: convex refuses, Ryser is out of
        // range, OE answers.
        let supports: Vec<u64> = (1..=30).collect();
        let mut intervals: Vec<(f64, f64)> = supports
            .iter()
            .map(|&s| {
                let f = s as f64 / 30.0;
                ((f - 0.05).max(0.0), (f + 0.05).min(1.0))
            })
            .collect();
        intervals[0] = (0.99, 1.0); // unmatchable
        let b = BeliefFunction::from_intervals(intervals).unwrap();
        let g = b.build_graph(&supports, 30);
        let e = best_expected_cracks(&g, 0).unwrap();
        assert_eq!(e.method, EstimateMethod::OEstimate);
        assert!(!e.method.is_exact());
    }

    #[test]
    fn profile_cache_shares_and_discriminates() {
        let b = BeliefFunction::widened(&freqs(), 0.1).unwrap();
        let g = b.build_graph(&BIGMART_SUPPORTS, 10);
        let p1 = cached_profile(&g, false).unwrap();
        let p2 = cached_profile(&g, false).unwrap();
        assert!(Arc::ptr_eq(&p1, &p2), "second lookup must hit the cache");

        // A structurally identical rebuild (fresh allocation) still
        // hits: the key is the fingerprint, not the address.
        let g_again = b.build_graph(&BIGMART_SUPPORTS, 10);
        let p3 = cached_profile(&g_again, false).unwrap();
        assert!(Arc::ptr_eq(&p1, &p3));

        // The propagation flag and a different belief both miss.
        let p_prop = cached_profile(&g, true).unwrap();
        assert!(!Arc::ptr_eq(&p1, &p_prop));
        let wider = BeliefFunction::widened(&freqs(), 0.2).unwrap();
        let g_wide = wider.build_graph(&BIGMART_SUPPORTS, 10);
        let p_wide = cached_profile(&g_wide, false).unwrap();
        assert!(!Arc::ptr_eq(&p1, &p_wide));
        assert_ne!(
            graph_fingerprint(&g),
            graph_fingerprint(&g_wide),
            "wider belief must change the fingerprint"
        );

        // Cached values agree with direct construction.
        let direct = OutdegreeProfile::plain(&g);
        assert_eq!(p1.probabilities(), direct.probabilities());
    }

    #[test]
    fn lru_keeps_hot_entry_and_hits_stay_bit_identical() {
        let b = BeliefFunction::widened(&freqs(), 0.15).unwrap();
        let g = b.build_graph(&BIGMART_SUPPORTS, 10);
        let hot = cached_profile(&g, true).unwrap();

        // Flood the memo with more distinct entries than the cap,
        // re-touching the hot entry after every insert so it is never
        // the least-recently-used — it must survive the whole sweep.
        for i in 0..(PROFILE_CACHE_CAP as u64 + 16) {
            let supports = [i + 1, i + 2];
            let filler = BeliefFunction::from_intervals(vec![(0.0, 1.0), (0.0, 1.0)]).unwrap();
            let fg = filler.build_graph(&supports, 1_000);
            cached_profile(&fg, false).unwrap();
            let again = cached_profile(&g, true).unwrap();
            assert!(
                Arc::ptr_eq(&hot, &again),
                "hot entry evicted after filler {i}"
            );
        }

        // The earliest filler entries were the coldest and must be
        // gone: a re-lookup rebuilds (fresh Arc)...
        let filler0 = BeliefFunction::from_intervals(vec![(0.0, 1.0), (0.0, 1.0)]).unwrap();
        let fg0 = filler0.build_graph(&[1u64, 2], 1_000);
        let key0 = (graph_fingerprint(&fg0), false);
        let cached0 = lock_cache().get(&key0);
        assert!(cached0.is_none(), "coldest filler should have been evicted");

        // ...and a cache hit is bit-identical to cold-path
        // construction, for both profile flavors.
        let rebuilt = cached_profile(&fg0, false).unwrap();
        assert_eq!(
            rebuilt.probabilities(),
            OutdegreeProfile::plain(&fg0).probabilities()
        );
        assert_eq!(
            hot.probabilities(),
            OutdegreeProfile::propagated(&g).unwrap().probabilities()
        );
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
