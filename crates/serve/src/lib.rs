//! # andi-serve — the fault-isolated risk-assessment service
//!
//! ROADMAP item 1: the budgeted Assess-Risk ladder
//! ([`andi_core::recipe::ladder_crack_probabilities`]) behind a
//! long-running TCP service, built from `std` only (the offline-
//! vendor pattern: a thin HTTP/1.1 layer lives in [`http`]).
//!
//! Three interlocking robustness subsystems:
//!
//! * **Admission control** ([`admission`]) — a bounded connection
//!   queue; overflow is shed with a structured `429` whose
//!   `Retry-After` comes from the observed request-latency EWMA
//!   ([`stats`]), and a server-wide drain empties everything
//!   deterministically on shutdown.
//! * **Coalescing shard cache** ([`cache`]) — fingerprint-keyed,
//!   FNV-sharded, bounded-LRU, poison-tolerant, with single-flight
//!   coalescing of identical `(database, belief)` requests into one
//!   ladder run. `/assess` only reads the
//!   [`andi_graph::FrequencyScaffold`] cache: only `/update` fills it,
//!   for the edited database, and a miss builds a scaffold that is
//!   not kept.
//! * **Fault isolation** ([`server`]) — `serve.accept`,
//!   `serve.request`, and `cache.shard` probe points
//!   ([`andi_graph::faults`]) sit inside `catch_unwind` boundaries,
//!   so injected panics and delays surface as structured `500`s and
//!   slow responses, never aborts or hangs. Every request runs under
//!   its own [`andi_graph::par::Budget`]/cancel token, wired to
//!   client disconnect and the drain signal.
//!
//! Responses are deterministic (provenance `spent_ms` is zeroed in
//! bodies; real timing rides in the `X-Andi-Spent-Ms` header), so a
//! seeded load run (the `load` integration test) can demand an exact
//! response multiset across runs and thread counts.

#![forbid(unsafe_code)]

pub mod admission;
pub mod cache;
pub mod client;
pub mod http;
pub mod server;
pub mod stats;

pub use admission::{Admission, Offer};
pub use cache::{CacheStats, Outcome, ShardedCache};
pub use client::Client;
pub use http::{Request, Response, WireError, WireLimits};
pub use server::{start, ServeConfig, ServerHandle};
pub use stats::ServerStats;
