//! The seeded synthetic load harness.
//!
//! Drives a deterministic request mix against a running server:
//! a small pool of seeded instances (domains sized for the exact
//! rung, so every answer is cacheable) sampled with heavy duplication
//! by a SplitMix64 stream, pushed over a few pipelined keep-alive
//! connections. The report carries an **order-independent multiset
//! hash** of every response body, so two runs with the same seed —
//! regardless of connection count, worker count, or interleaving —
//! must produce the same hash. That is the service determinism
//! contract in one number.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use andi_graph::hash::{fnv1a, splitmix64};
use andi_graph::par;
use andi_oracle::instance::{Instance, Regime};

use crate::client::Client;

/// Load-run parameters.
#[derive(Clone, Debug)]
pub struct LoadConfig {
    /// Server address.
    pub addr: String,
    /// Mix seed: same seed ⇒ same request multiset.
    pub seed: u64,
    /// Total requests to send.
    pub count: u64,
    /// Client connections driving the mix (each takes a contiguous,
    /// deterministic slice of the request indices).
    pub connections: usize,
    /// Distinct instances in the pool (the duplication knob: `count /
    /// pool` requests share each instance).
    pub pool: usize,
    /// Pipelining batch size per connection.
    pub batch: usize,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            addr: String::new(),
            seed: 7,
            count: 100_000,
            connections: 4,
            pool: 32,
            batch: 64,
        }
    }
}

/// What a load run produced.
#[derive(Clone, Debug, Default)]
pub struct LoadReport {
    /// Requests sent.
    pub sent: u64,
    /// `200` responses.
    pub ok: u64,
    /// Non-`200` responses (any of these is a failed acceptance).
    pub failed: u64,
    /// Transport-level errors (aborted requests).
    pub aborted: u64,
    /// Reconnections performed after a mid-run connection loss (e.g.
    /// an injected accept fault); the lost requests were resent.
    pub reconnects: u64,
    /// Order-independent hash of the response-body multiset.
    pub multiset_hash: u64,
}

/// Builds the deterministic instance pool: small domains (n ≤ 8) with
/// truth-containing intervals, so the exact rung answers untripped
/// and every response is cacheable.
fn build_pool(seed: u64, pool: usize) -> Vec<String> {
    let mut texts = Vec::with_capacity(pool);
    for p in 0..pool {
        let mut s = splitmix64(seed ^ (p as u64).wrapping_mul(0x9e37_79b9));
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
        let instance = Instance {
            label: format!("load pool={p}"),
            regime: Regime::PointCompliant,
            supports,
            m,
            intervals,
            mask: None,
        };
        texts.push(instance.to_text());
    }
    texts
}

/// Runs the load mix and reports.
///
/// # Errors
///
/// Connection failures when opening the client connections.
pub fn run_load(cfg: &LoadConfig) -> std::io::Result<LoadReport> {
    let pool = Arc::new(build_pool(cfg.seed, cfg.pool.max(1)));
    let connections = cfg.connections.max(1);
    let ok = Arc::new(AtomicU64::new(0));
    let failed = Arc::new(AtomicU64::new(0));
    let aborted = Arc::new(AtomicU64::new(0));
    let reconnects = Arc::new(AtomicU64::new(0));
    let multiset = Arc::new(AtomicU64::new(0));

    let mut handles = Vec::with_capacity(connections);
    for c in 0..connections {
        let lo = cfg.count * c as u64 / connections as u64;
        let hi = cfg.count * (c as u64 + 1) / connections as u64;
        let pool = Arc::clone(&pool);
        let ok = Arc::clone(&ok);
        let failed = Arc::clone(&failed);
        let aborted = Arc::clone(&aborted);
        let reconnects = Arc::clone(&reconnects);
        let multiset = Arc::clone(&multiset);
        let addr = cfg.addr.clone();
        let seed = cfg.seed;
        let batch = cfg.batch.max(1);
        handles.push(par::spawn_worker(&format!("load-conn-{c}"), move || {
            let mut client = match Client::connect(&addr) {
                Ok(c) => c,
                Err(_) => {
                    aborted.fetch_add(hi - lo, Ordering::Relaxed);
                    return;
                }
            };
            // A connection killed mid-batch (e.g. an injected accept
            // fault answered 500 and closed) is not an abort: the
            // unanswered tail of the batch is resent on a fresh
            // connection. Only exhausting the reconnect allowance
            // counts the remaining requests as aborted.
            let mut reconnects_left = 64u32;
            let mut index = lo;
            while index < hi {
                let upto = (index + batch as u64).min(hi);
                let picks: Vec<usize> = (index..upto)
                    .map(|i| (splitmix64(seed ^ i) as usize) % pool.len())
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
                        match client.recv() {
                            Ok(resp) => {
                                if resp.status == 200 {
                                    ok.fetch_add(1, Ordering::Relaxed);
                                } else {
                                    failed.fetch_add(1, Ordering::Relaxed);
                                }
                                // Commutative multiset hash: the sum
                                // of well-mixed per-body hashes is
                                // invariant under response ordering.
                                let h = splitmix64(fnv1a(&resp.body));
                                multiset.fetch_add(h, Ordering::Relaxed);
                                answered += 1;
                            }
                            Err(_) => break,
                        }
                    }
                    if answered < picks.len() {
                        if reconnects_left == 0 {
                            aborted.fetch_add(hi - index - answered as u64, Ordering::Relaxed);
                            return;
                        }
                        reconnects_left -= 1;
                        reconnects.fetch_add(1, Ordering::Relaxed);
                        match Client::connect(&addr) {
                            Ok(fresh) => client = fresh,
                            Err(_) => {
                                aborted.fetch_add(hi - index - answered as u64, Ordering::Relaxed);
                                return;
                            }
                        }
                    }
                }
                index = upto;
            }
        })?);
    }
    for handle in handles {
        if handle.join().is_err() {
            aborted.fetch_add(1, Ordering::Relaxed);
        }
    }

    Ok(LoadReport {
        sent: cfg.count,
        ok: ok.load(Ordering::Relaxed),
        failed: failed.load(Ordering::Relaxed),
        aborted: aborted.load(Ordering::Relaxed),
        reconnects: reconnects.load(Ordering::Relaxed),
        multiset_hash: multiset.load(Ordering::Relaxed),
    })
}
