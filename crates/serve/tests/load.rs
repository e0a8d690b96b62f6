//! Seeded load acceptance: ≥10⁵ requests with zero transport aborts,
//! a response multiset that reproduces exactly across same-seed runs
//! with radically different interleavings (4 workers × 4 pipelined
//! connections vs 1 × 1), and coalescing observable in the stats
//! JSON. A separate chaos-mode run proves the load client and server
//! together survive fault injection without a single unanswered
//! request.
//!
//! The driver below sends a deterministic request mix: a pool of 32
//! seeded instances (domains sized for the exact rung, so every
//! answer is cacheable) sampled with heavy duplication by a SplitMix64
//! stream, pushed in pipelined batches of 64 over keep-alive
//! connections. Its report carries an **order-independent multiset
//! hash** of every response body, so two runs — whatever their
//! connection count, worker count or interleaving — must produce the
//! same hash. That is the service determinism contract in one number.
//!
//! `ANDI_LOAD_COUNT` overrides the request count (default 100 000).

use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use andi_graph::faults::{self, FaultMode, FaultSchedule};
use andi_graph::hash::{fnv1a, splitmix64};
use andi_oracle::instance::{Instance, Regime};
use andi_serve::{start, Client, ServeConfig};

/// Mix seed: same seed ⇒ same request multiset.
const SEED: u64 = 7;
/// Distinct instances in the pool.
const POOL: usize = 32;
/// Pipelining batch size per connection.
const BATCH: u64 = 64;

/// What a load run produced.
#[derive(Debug, Default)]
struct LoadReport {
    /// `200` responses.
    ok: u64,
    /// Non-`200` responses.
    failed: u64,
    /// Requests left unanswered (transport-level aborts).
    aborted: u64,
    /// Reconnections after a mid-run connection loss (e.g. an
    /// injected accept fault); the lost requests were resent.
    reconnects: u64,
    /// Order-independent hash of the response-body multiset.
    multiset_hash: u64,
}

fn load_count() -> u64 {
    std::env::var("ANDI_LOAD_COUNT")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(100_000)
}

/// Builds the deterministic instance pool: small domains (n ≤ 8) with
/// truth-containing intervals, so the exact rung answers untripped
/// and every response is cacheable.
fn build_pool() -> Vec<String> {
    (0..POOL)
        .map(|p| {
            let mut s = splitmix64(SEED ^ (p as u64).wrapping_mul(0x9e37_79b9));
            let n = 4 + (s % 5) as usize; // 4..=8
            let m: u64 = 40;
            let mut supports = Vec::with_capacity(n);
            let mut intervals = Vec::with_capacity(n);
            for _ in 0..n {
                s = splitmix64(s);
                let support = 1 + s % m; // 1..=m
                let f = support as f64 / m as f64;
                s = splitmix64(s);
                let slack = (s % 100) as f64 / 1000.0; // 0..0.099
                supports.push(support);
                intervals.push(((f - slack).max(0.0), (f + slack).min(1.0)));
            }
            Instance {
                label: format!("load pool={p}"),
                regime: Regime::PointCompliant,
                supports,
                m,
                intervals,
                mask: None,
            }
            .to_text()
        })
        .collect()
}

/// Sends `count` requests of the seeded mix over `connections`
/// connections, each taking a contiguous slice of the request
/// indices. A connection killed mid-batch (e.g. an injected accept
/// fault answered 500 and closed) is not an abort: the unanswered
/// tail of the batch is resent on a fresh connection. Only exhausting
/// the reconnect allowance counts the remaining requests as aborted.
fn run_load(addr: SocketAddr, count: u64, connections: u64) -> LoadReport {
    let pool = Arc::new(build_pool());
    let ok = Arc::new(AtomicU64::new(0));
    let failed = Arc::new(AtomicU64::new(0));
    let aborted = Arc::new(AtomicU64::new(0));
    let reconnects = Arc::new(AtomicU64::new(0));
    let multiset = Arc::new(AtomicU64::new(0));

    let handles: Vec<_> = (0..connections)
        .map(|c| {
            let lo = count * c / connections;
            let hi = count * (c + 1) / connections;
            let pool = Arc::clone(&pool);
            let ok = Arc::clone(&ok);
            let failed = Arc::clone(&failed);
            let aborted = Arc::clone(&aborted);
            let reconnects = Arc::clone(&reconnects);
            let multiset = Arc::clone(&multiset);
            std::thread::spawn(move || {
                let Ok(mut client) = Client::connect(addr) else {
                    aborted.fetch_add(hi - lo, Ordering::Relaxed);
                    return;
                };
                let mut reconnects_left = 64u32;
                let mut index = lo;
                while index < hi {
                    let upto = (index + BATCH).min(hi);
                    let picks: Vec<usize> = (index..upto)
                        .map(|i| (splitmix64(SEED ^ i) as usize) % pool.len())
                        .collect();
                    let mut answered = 0usize;
                    while answered < picks.len() {
                        let mut sent = answered;
                        for &pick in &picks[answered..] {
                            if client
                                .send("POST", "/assess", pool[pick].as_bytes())
                                .is_err()
                            {
                                break;
                            }
                            sent += 1;
                        }
                        while answered < sent {
                            let Ok(resp) = client.recv() else { break };
                            if resp.status == 200 {
                                ok.fetch_add(1, Ordering::Relaxed);
                            } else {
                                failed.fetch_add(1, Ordering::Relaxed);
                            }
                            // Commutative multiset hash: the sum of
                            // well-mixed per-body hashes is invariant
                            // under response ordering.
                            multiset.fetch_add(splitmix64(fnv1a(&resp.body)), Ordering::Relaxed);
                            answered += 1;
                        }
                        if answered < picks.len() {
                            let fresh = if reconnects_left == 0 {
                                None
                            } else {
                                reconnects_left -= 1;
                                reconnects.fetch_add(1, Ordering::Relaxed);
                                Client::connect(addr).ok()
                            };
                            match fresh {
                                Some(fresh) => client = fresh,
                                None => {
                                    aborted
                                        .fetch_add(hi - index - answered as u64, Ordering::Relaxed);
                                    return;
                                }
                            }
                        }
                    }
                    index = upto;
                }
            })
        })
        .collect();
    for handle in handles {
        if handle.join().is_err() {
            aborted.fetch_add(1, Ordering::Relaxed);
        }
    }

    LoadReport {
        ok: ok.load(Ordering::Relaxed),
        failed: failed.load(Ordering::Relaxed),
        aborted: aborted.load(Ordering::Relaxed),
        reconnects: reconnects.load(Ordering::Relaxed),
        multiset_hash: multiset.load(Ordering::Relaxed),
    }
}

/// A rate-zero schedule: installing it masks any ambient
/// `ANDI_FAULTS` so the determinism contract is measured on the
/// faultless path (the chaos-mode run below is the faulty one), and
/// its global install lock serializes the load tests.
fn faultless() -> FaultSchedule {
    FaultSchedule {
        seed: 0,
        rate_ppm: 0,
        mode: FaultMode::Panic,
    }
}

/// Pulls `"hits":N` out of the first cache object in the stats JSON.
fn result_cache_hits(stats: &str) -> u64 {
    let cache = stats
        .split("\"result_cache\":")
        .nth(1)
        .expect("stats JSON has a result_cache object");
    let after = cache
        .split("\"hits\":")
        .nth(1)
        .expect("result_cache has a hits counter");
    after
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .expect("hits counter is a number")
}

#[test]
fn seeded_load_reproduces_the_response_multiset_exactly() {
    let _quiet = faultless().install();
    let count = load_count();

    // Run A: full concurrency — 4 workers, 4 pipelined connections.
    let handle = start(ServeConfig {
        workers: 4,
        ..ServeConfig::default()
    })
    .expect("server starts");
    let report_a = run_load(handle.addr(), count, 4);
    assert_eq!(report_a.aborted, 0, "no aborts allowed: {report_a:?}");
    assert_eq!(report_a.failed, 0, "no failures allowed: {report_a:?}");
    assert_eq!(report_a.ok, count);
    assert_eq!(report_a.reconnects, 0, "faultless run never reconnects");

    // Coalescing is observable in the stats JSON: heavy duplication
    // over a 32-instance pool means nearly every request is a cache
    // hit, and the single-flight join counter is published.
    let stats = handle.stats_json();
    assert!(
        result_cache_hits(&stats) > 0,
        "expected result-cache hits under duplication: {stats}"
    );
    assert!(
        stats.contains("\"joins\":"),
        "stats must publish the coalescing counter: {stats}"
    );
    handle.shutdown();

    // Run B: same seed, no concurrency anywhere — 1 worker, 1
    // connection. The response-body multiset must be identical.
    let handle = start(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    })
    .expect("server starts");
    let report_b = run_load(handle.addr(), count, 1);
    handle.shutdown();
    assert_eq!(report_b.aborted, 0, "no aborts allowed: {report_b:?}");
    assert_eq!(report_b.failed, 0, "no failures allowed: {report_b:?}");
    assert_eq!(
        report_a.multiset_hash, report_b.multiset_hash,
        "same seed must reproduce the exact response multiset"
    );
}

/// Chaos-mode load: with faults firing at every probe the load
/// client may see injected 500s (structured failures) and closed
/// connections (it reconnects and resends), but not one request may
/// go unanswered.
#[test]
fn load_survives_fault_injection_without_aborts() {
    let schedule = faults::ambient()
        .copied()
        .unwrap_or_else(|| FaultSchedule::parse("11:0.02:mix").expect("built-in schedule parses"));
    let _guard = schedule.install();

    let handle = start(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    })
    .expect("server starts");
    let count = 2_000;
    let report = run_load(handle.addr(), count, 2);
    handle.shutdown();

    assert_eq!(
        report.aborted, 0,
        "every request must be answered even under faults: {report:?}"
    );
    assert_eq!(
        report.ok + report.failed,
        count,
        "answered responses must account for every request: {report:?}"
    );
}
