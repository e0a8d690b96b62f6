//! # andi-graph — bipartite crack-mapping machinery
//!
//! The paper's second analysis level (Section 8.1): given *any*
//! bipartite graph `G = (J ∪ I, E)` of consistent crack mappings —
//! however it was constructed — estimate how many anonymized items a
//! hacker cracks with a uniformly random perfect matching. This crate
//! is belief-function-agnostic; `andi-core` builds the graphs.
//!
//! * [`DenseBigraph`] — bitset adjacency; O(1) edge tests, popcount
//!   degrees.
//! * [`GroupedBigraph`] — the interval-structured form: frequency
//!   groups plus one contiguous group range per item; outdegrees via
//!   prefix sums (the `O(|D| + n log n)` path of Figure 5).
//! * [`matching`] — Hopcroft–Karp maximum matching.
//! * [`mod@permanent`] / [`exact`] — Ryser permanents and the exact
//!   Section 4.1 expectation and per-item crack probabilities, run one
//!   connected component at a time at any domain size.
//! * [`mod@propagate`] — the Figure 7 degree-1 propagation, one
//!   worklist over frequency groups or dense rows.
//! * [`sampler`] — the Section 7.1 swap-walk MCMC over consistent
//!   matchings.
//! * [`par`] — the deterministic work-stealing worker pool the
//!   permanent, sampler and (via `andi-core`) recipe hot paths fan
//!   out on, plus the [`par::Budget`]/[`par::CancelToken`] layer that
//!   makes every budgeted entry point deadline-bounded, cancellable,
//!   and panic-isolated.
//! * [`faults`] — the deterministic seeded fault-injection harness
//!   behind the chaos suite (`ANDI_FAULTS` schedules, named probe
//!   points inside the budgeted hot paths).
//! * [`hash`] — the FNV-1a / SplitMix64 primitives behind every
//!   fingerprint, cache shard pick and fault-schedule draw.
//!
//! Each kernel has one budgeted, threaded core — the code the
//! service runs — and at most a thin unbudgeted wrapper over it:
//!
//! | kernel | budgeted core | wrappers |
//! |--------|---------------|----------|
//! | permanent | [`try_permanent_of_rows_budgeted`] (one proven unchecked lane, `n <=` [`MAX_PERMANENT_N`] `= 22`) | [`permanent()`] |
//! | exact crack probabilities | one private ratio-walk driver behind two component splits: [`crack_probabilities_budgeted`] (dense, `n <= 22`) and [`crack_probabilities_per_component`] (grouped, any `n`, walks priced up to [`exact::EXACT_PRICE_CAP`]) | [`crack_probabilities`], [`expected_cracks`] |
//! | sampler | [`sample_cracks_budgeted`] (counts and per-item hits) | — ([`sample_crack_probabilities_budgeted`] is its hits / samples, same budget) |
//! | fan-out | [`try_map_indexed`] | [`par::map_indexed`] |

#![forbid(unsafe_code)]

pub mod dense;
pub mod dot;
pub mod exact;
pub mod faults;
pub mod grouped;
pub mod hash;
pub mod matching;
pub mod par;
pub mod permanent;
pub mod propagate;
pub mod sampler;

pub use dense::DenseBigraph;
pub use dot::{to_dot, DotOptions};
pub use exact::{
    crack_probabilities, crack_probabilities_budgeted, crack_probabilities_per_component,
    expected_cracks, ExactError,
};
pub use faults::{FaultMode, FaultSchedule, FAULTS_ENV};
pub use grouped::{BeliefGroup, Components, FrequencyScaffold, GroupedBigraph, Matching};
pub use matching::hopcroft_karp;
pub use par::{try_map_indexed, Budget, CancelToken, ExecError};
pub use permanent::{permanent, try_permanent_of_rows_budgeted, MAX_PERMANENT_N};
pub use propagate::{propagate, propagate_grouped, Propagation};
pub use sampler::{
    sample_crack_probabilities_budgeted, sample_cracks_budgeted, CrackSamples, EdgeOracle,
    SamplerConfig, SamplerError,
};
