//! ShardedCache semantics: LRU bounds, deterministic eviction,
//! single-flight coalescing (joins observable), and failed-flight
//! recovery (no stranded waiters).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use andi_serve::cache::{Outcome, ShardedCache};

#[test]
fn hit_join_miss_outcomes_and_counters() {
    let cache: ShardedCache<Arc<str>> = ShardedCache::new(8);
    let (v1, o1) = cache
        .get_or_compute(42, || Ok::<_, ()>(Arc::from("value-a")))
        .unwrap();
    assert_eq!(o1, Outcome::Computed);
    assert_eq!(v1.as_ref(), "value-a");

    let (v2, o2) = cache
        .get_or_compute(42, || Ok::<_, ()>(Arc::from("never-used")))
        .unwrap();
    assert_eq!(o2, Outcome::Hit);
    assert_eq!(v2.as_ref(), "value-a");

    assert_eq!(cache.stats().hits(), 1);
    assert_eq!(cache.stats().misses(), 1);
    assert_eq!(cache.stats().joins(), 0);
}

#[test]
fn bounded_lru_keeps_hot_entries() {
    let cache: ShardedCache<Arc<str>> = ShardedCache::new(4);
    let hot: Arc<str> = Arc::from("hot");
    let hot_clone = Arc::clone(&hot);
    cache
        .get_or_compute(0, move || Ok::<_, ()>(hot_clone))
        .unwrap();
    // Flood well past the per-shard cap, touching the hot key
    // between inserts.
    for k in 1..=64u64 {
        cache
            .get_or_compute(k, || Ok::<_, ()>(Arc::from(format!("cold-{k}"))))
            .unwrap();
        let (v, o) = cache
            .get_or_compute(0, || Ok::<_, ()>(Arc::from("rebuilt")))
            .unwrap();
        assert_eq!(o, Outcome::Hit, "hot entry evicted after filler {k}");
        assert!(Arc::ptr_eq(&v, &hot));
    }
    assert!(cache.stats().evictions() > 0, "flood should have evicted");
    // Total size stays bounded by shards × cap.
    assert!(cache.len() <= 8 * 4, "len {} exceeds bound", cache.len());
}

/// Deterministic coalescing rendezvous: a leader blocks inside its
/// compute until the test observes a waiter, so exactly one join is
/// guaranteed — no sleeps, no racy timing.
#[test]
fn concurrent_identical_requests_coalesce_into_one_flight() {
    let cache: Arc<ShardedCache<Arc<str>>> = Arc::new(ShardedCache::new(8));
    let gate = Arc::new((Mutex::new(false), Condvar::new()));
    let computes = Arc::new(AtomicU64::new(0));

    let leader = {
        let cache = Arc::clone(&cache);
        let gate = Arc::clone(&gate);
        let computes = Arc::clone(&computes);
        std::thread::spawn(move || {
            cache
                .get_or_compute(7, move || {
                    computes.fetch_add(1, Ordering::SeqCst);
                    let (lock, cv) = &*gate;
                    let mut open = lock.lock().unwrap();
                    while !*open {
                        open = cv.wait(open).unwrap();
                    }
                    Ok::<_, ()>(Arc::from("coalesced"))
                })
                .unwrap()
        })
    };

    // Wait until the leader is inside its compute.
    while computes.load(Ordering::SeqCst) == 0 {
        std::thread::yield_now();
    }

    let follower = {
        let cache = Arc::clone(&cache);
        let computes = Arc::clone(&computes);
        std::thread::spawn(move || {
            cache
                .get_or_compute(7, move || {
                    computes.fetch_add(1, Ordering::SeqCst);
                    Ok::<_, ()>(Arc::from("should-not-compute"))
                })
                .unwrap()
        })
    };

    // Rendezvous: wait for the follower to block on the flight.
    while cache.stats().waiters() == 0 {
        std::thread::yield_now();
    }
    {
        let (lock, cv) = &*gate;
        *lock.lock().unwrap() = true;
        cv.notify_all();
    }

    let (lv, lo) = leader.join().unwrap();
    let (fv, fo) = follower.join().unwrap();
    assert_eq!(lo, Outcome::Computed);
    assert_eq!(fo, Outcome::Joined);
    assert_eq!(lv.as_ref(), "coalesced");
    assert!(Arc::ptr_eq(&lv, &fv), "joined value must be shared");
    assert_eq!(computes.load(Ordering::SeqCst), 1, "exactly one compute");
    assert_eq!(cache.stats().joins(), 1);
}

/// A leader that fails (error or panic) must not strand its waiters:
/// they elect a new leader and finish.
#[test]
fn failed_flight_wakes_waiters_who_recover() {
    let cache: Arc<ShardedCache<Arc<str>>> = Arc::new(ShardedCache::new(8));
    let gate = Arc::new((Mutex::new(false), Condvar::new()));
    let attempts = Arc::new(AtomicU64::new(0));

    // Leader: panics inside compute once released.
    let leader = {
        let cache = Arc::clone(&cache);
        let gate = Arc::clone(&gate);
        let attempts = Arc::clone(&attempts);
        std::thread::spawn(move || {
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                cache.get_or_compute(9, move || {
                    attempts.fetch_add(1, Ordering::SeqCst);
                    let (lock, cv) = &*gate;
                    let mut open = lock.lock().unwrap();
                    while !*open {
                        open = cv.wait(open).unwrap();
                    }
                    panic!("injected leader failure");
                    #[allow(unreachable_code)]
                    Ok::<Arc<str>, ()>(Arc::from("unreachable"))
                })
            }));
            assert!(result.is_err(), "leader should have panicked");
        })
    };

    while attempts.load(Ordering::SeqCst) == 0 {
        std::thread::yield_now();
    }

    let follower = {
        let cache = Arc::clone(&cache);
        let attempts = Arc::clone(&attempts);
        std::thread::spawn(move || {
            cache
                .get_or_compute(9, move || {
                    attempts.fetch_add(1, Ordering::SeqCst);
                    Ok::<_, ()>(Arc::from("recovered"))
                })
                .unwrap()
        })
    };

    while cache.stats().waiters() == 0 {
        std::thread::yield_now();
    }
    {
        let (lock, cv) = &*gate;
        *lock.lock().unwrap() = true;
        cv.notify_all();
    }

    leader.join().unwrap();
    let (v, o) = follower.join().unwrap();
    assert_eq!(v.as_ref(), "recovered");
    assert_eq!(o, Outcome::Computed, "waiter should have become leader");
    assert_eq!(attempts.load(Ordering::SeqCst), 2);
}

/// Error-returning flights propagate only to the leader and leave
/// nothing cached.
#[test]
fn error_flights_cache_nothing() {
    let cache: ShardedCache<Arc<str>> = ShardedCache::new(8);
    let err = cache.get_or_compute(5, || Err::<Arc<str>, String>("boom".to_string()));
    assert_eq!(err.unwrap_err(), "boom");
    assert!(cache.is_empty());
    assert_eq!(cache.stats().failures(), 1);
    let (_, o) = cache
        .get_or_compute(5, || Ok::<_, String>(Arc::from("fine")))
        .unwrap();
    assert_eq!(o, Outcome::Computed);
}

/// `get` never stores on a miss, and `invalidate_where` removes
/// exactly the matching entries, whatever shard they live in.
#[test]
fn lookup_only_get_and_predicate_invalidation() {
    let cache: ShardedCache<(u64, Arc<str>)> = ShardedCache::new(8);
    assert!(cache.get(3).is_none());
    assert!(cache.is_empty(), "a get miss must not insert");
    for key in 0..24u64 {
        cache
            .get_or_compute(key, || Ok::<_, ()>((key % 3, Arc::from(format!("v{key}")))))
            .unwrap();
    }
    assert_eq!(cache.get(4).map(|(_, v)| v), Some(Arc::from("v4")));
    assert_eq!((cache.stats().hits(), cache.stats().misses()), (1, 25));

    assert_eq!(cache.invalidate_where(|(tag, _)| *tag == 1), 8);
    assert_eq!(cache.stats().invalidations(), 8);
    for key in 0..24u64 {
        assert_eq!(cache.get(key).is_some(), key % 3 != 1, "key {key}");
    }
    assert_eq!(cache.invalidate_where(|(tag, _)| *tag == 1), 0);
}
