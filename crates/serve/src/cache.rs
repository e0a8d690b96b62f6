//! A sharded, fingerprint-keyed, single-flight result cache.
//!
//! Entries are keyed by a caller-computed 64-bit structural
//! fingerprint, spread across a fixed power-of-two number of shards
//! (so unrelated requests never contend on one lock), bounded by a
//! per-shard deterministic LRU, and **coalesced** — when several
//! requests miss on the same key at once, exactly one computes while
//! the rest wait and share the result, so a stampede of identical
//! requests costs one ladder run instead of N.
//!
//! Locks are poison-tolerant throughout: the guarded state is a pure
//! memo plus flight bookkeeping, and a leader that panics mid-compute
//! (e.g. an injected `cache.shard` fault) unwinds through an RAII
//! guard that clears its flight and wakes the waiters, who then
//! elect a new leader. No fault can strand a follower.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::Duration;

use andi_graph::faults;
use andi_graph::hash::splitmix64;
/// The service's fingerprint primitives (FNV-1a over bytes and over
/// chained 64-bit words).
pub use andi_graph::hash::{fnv1a, fnv1a_u64, FNV_OFFSET};

/// Number of shards; a power of two so the shard pick is a mask.
const SHARDS: usize = 8;

/// How a lookup was satisfied.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Served from a cached entry.
    Hit,
    /// Waited on another request's in-flight computation and shared
    /// its result.
    Joined,
    /// Led the computation (a miss).
    Computed,
}

/// Monotonic counters describing cache behavior, snapshot into the
/// server's stats JSON.
#[derive(Debug, Default)]
pub struct CacheStats {
    hits: AtomicU64,
    misses: AtomicU64,
    joins: AtomicU64,
    evictions: AtomicU64,
    failures: AtomicU64,
    waiters: AtomicU64,
    invalidations: AtomicU64,
}

impl CacheStats {
    /// Served-from-cache count.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that found no entry: a [`ShardedCache::get`] miss, or
    /// a [`ShardedCache::get_or_compute`] that led the computation.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Shared-an-in-flight-result count.
    pub fn joins(&self) -> u64 {
        self.joins.load(Ordering::Relaxed)
    }

    /// Evicted-entry count.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Failed-flight count (leader returned an error or panicked).
    pub fn failures(&self) -> u64 {
        self.failures.load(Ordering::Relaxed)
    }

    /// Requests currently blocked on another request's flight
    /// (a gauge, not a counter; tests use it to rendezvous).
    pub fn waiters(&self) -> u64 {
        self.waiters.load(Ordering::Relaxed)
    }

    /// Explicitly-invalidated entry count (delta updates).
    pub fn invalidations(&self) -> u64 {
        self.invalidations.load(Ordering::Relaxed)
    }

    /// Renders the counters as a JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"hits\":{},\"misses\":{},\"joins\":{},\"evictions\":{},\"failures\":{},\"invalidations\":{}}}",
            self.hits(),
            self.misses(),
            self.joins(),
            self.evictions(),
            self.failures(),
            self.invalidations()
        )
    }
}

struct ShardState<V> {
    tick: u64,
    entries: BTreeMap<u64, (u64, V)>,
    flights: BTreeSet<u64>,
}

struct Shard<V> {
    state: Mutex<ShardState<V>>,
    cv: Condvar,
}

impl<V> Shard<V> {
    fn lock(&self) -> MutexGuard<'_, ShardState<V>> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// The sharded single-flight cache. `V` is the cached value —
/// something cheap to clone (`Arc<str>`, `Arc<FrequencyScaffold>`).
pub struct ShardedCache<V> {
    shards: Vec<Shard<V>>,
    cap_per_shard: usize,
    stats: CacheStats,
}

/// Clears a failed flight and wakes its waiters when the leader
/// unwinds without completing (error return or injected panic).
struct FlightGuard<'a, V> {
    shard: &'a Shard<V>,
    key: u64,
    armed: bool,
}

impl<V> Drop for FlightGuard<'_, V> {
    fn drop(&mut self) {
        if self.armed {
            self.shard.lock().flights.remove(&self.key);
            self.shard.cv.notify_all();
        }
    }
}

impl<V: Clone> ShardedCache<V> {
    /// Creates a cache with `cap_per_shard` LRU slots per shard
    /// (minimum 1).
    pub fn new(cap_per_shard: usize) -> Self {
        let mut shards = Vec::with_capacity(SHARDS);
        for _ in 0..SHARDS {
            shards.push(Shard {
                state: Mutex::new(ShardState {
                    tick: 0,
                    entries: BTreeMap::new(),
                    flights: BTreeSet::new(),
                }),
                cv: Condvar::new(),
            });
        }
        ShardedCache {
            shards,
            cap_per_shard: cap_per_shard.max(1),
            stats: CacheStats::default(),
        }
    }

    /// The cache's counters.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Deterministic shard pick: remix the fingerprint so keys that
    /// share low bits still spread.
    fn shard_of(&self, key: u64) -> &Shard<V> {
        let ix = (splitmix64(key) as usize) & (SHARDS - 1);
        &self.shards[ix]
    }

    /// Looks up `key`, coalescing concurrent misses: the first caller
    /// computes via `compute` while later callers for the same key
    /// block and share the result. The `cache.shard` fault probe
    /// fires here, so injected faults exercise the failure path of
    /// the flight protocol; callers run lookups inside their request
    /// `catch_unwind`.
    ///
    /// # Errors
    ///
    /// Propagates `compute`'s error to the leader. Waiters never see
    /// another request's error: a failed flight wakes them to elect a
    /// new leader (or hit the entry a racing leader stored).
    pub fn get_or_compute<E>(
        &self,
        key: u64,
        compute: impl FnOnce() -> Result<V, E>,
    ) -> Result<(V, Outcome), E> {
        faults::probe("cache.shard", key as usize);
        let shard = self.shard_of(key);
        let mut waited = false;
        let mut st = shard.lock();
        loop {
            st.tick += 1;
            let tick = st.tick;
            if let Some((last_used, value)) = st.entries.get_mut(&key) {
                *last_used = tick;
                let value = value.clone();
                drop(st);
                if waited {
                    self.stats.joins.fetch_add(1, Ordering::Relaxed);
                    return Ok((value, Outcome::Joined));
                }
                self.stats.hits.fetch_add(1, Ordering::Relaxed);
                return Ok((value, Outcome::Hit));
            }
            if st.flights.contains(&key) {
                waited = true;
                self.stats.waiters.fetch_add(1, Ordering::Relaxed);
                // The timeout is liveness belt-and-braces only: a
                // leader that dies always notifies via its guard.
                let (guard, _) = shard
                    .cv
                    .wait_timeout(st, Duration::from_millis(20))
                    .unwrap_or_else(|e| e.into_inner());
                st = guard;
                self.stats.waiters.fetch_sub(1, Ordering::Relaxed);
                continue;
            }
            st.flights.insert(key);
            break;
        }
        drop(st);

        let mut flight = FlightGuard {
            shard,
            key,
            armed: true,
        };
        match compute() {
            Ok(value) => {
                let mut st = shard.lock();
                st.tick += 1;
                let tick = st.tick;
                if !st.entries.contains_key(&key) && st.entries.len() >= self.cap_per_shard {
                    if let Some(coldest) = st
                        .entries
                        .iter()
                        .min_by_key(|(_, (last_used, _))| *last_used)
                        .map(|(k, _)| *k)
                    {
                        st.entries.remove(&coldest);
                        self.stats.evictions.fetch_add(1, Ordering::Relaxed);
                    }
                }
                st.entries.insert(key, (tick, value.clone()));
                st.flights.remove(&key);
                flight.armed = false;
                drop(st);
                shard.cv.notify_all();
                self.stats.misses.fetch_add(1, Ordering::Relaxed);
                Ok((value, Outcome::Computed))
            }
            Err(e) => {
                // The guard clears the flight and notifies.
                self.stats.failures.fetch_add(1, Ordering::Relaxed);
                drop(flight);
                Err(e)
            }
        }
    }

    /// Looks up `key` without computing or storing anything: a miss
    /// returns `None` and leaves the cache as it was. Counts a hit or
    /// a miss, refreshes the entry's LRU tick, and runs the same
    /// `cache.shard` fault probe as [`ShardedCache::get_or_compute`].
    pub fn get(&self, key: u64) -> Option<V> {
        faults::probe("cache.shard", key as usize);
        let mut st = self.shard_of(key).lock();
        st.tick += 1;
        let tick = st.tick;
        let value = st.entries.get_mut(&key).map(|(last_used, value)| {
            *last_used = tick;
            value.clone()
        });
        drop(st);
        let counter = if value.is_some() {
            &self.stats.hits
        } else {
            &self.stats.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        value
    }

    /// Removes every cached entry whose value satisfies `stale`, in one
    /// pass over the shards (one shard lock at a time), and returns how
    /// many went. Like [`ShardedCache::invalidate`], it leaves
    /// in-flight computations alone.
    pub fn invalidate_where(&self, stale: impl Fn(&V) -> bool) -> usize {
        let mut removed = 0;
        for shard in &self.shards {
            let mut st = shard.lock();
            let before = st.entries.len();
            st.entries.retain(|_, (_, value)| !stale(value));
            removed += before - st.entries.len();
        }
        self.stats
            .invalidations
            .fetch_add(removed as u64, Ordering::Relaxed);
        removed
    }

    /// Explicitly removes a cached entry, returning whether one was
    /// present, touching only the one shard that owns the key. A
    /// `POST /update` drops the edited database's scaffold this way.
    /// An in-flight computation for the key is untouched — its value
    /// is derived from the key (content-addressed), so whatever it
    /// stores is correct *for that key*; invalidation exists for
    /// callers that re-derive keys from mutable identifiers.
    pub fn invalidate(&self, key: u64) -> bool {
        let shard = self.shard_of(key);
        let removed = shard.lock().entries.remove(&key).is_some();
        if removed {
            self.stats.invalidations.fetch_add(1, Ordering::Relaxed);
        }
        removed
    }

    /// Total cached entries across all shards (for stats/tests).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().entries.len()).sum()
    }

    /// Whether no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}
