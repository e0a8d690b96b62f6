//! The closed loop: set-up, the timed window and the post-window
//! check.
//!
//! Each of the `CLIENTS` connections keeps one request outstanding and
//! sends the next as soon as the last completes. Latencies go into
//! fixed-size histograms; responses kept for the check are capped, so
//! neither grows with the server's speed.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use andi_core::report::Rung;
use andi_graph::par;
use andi_oracle::instance::Instance;
use andi_oracle::serial::Json;
use andi_serve::http::response_header;
use andi_serve::{start, Client, Response, ServeConfig, ServerHandle, WireError};

use crate::check::{check_assess, check_update, classify};
use crate::hist::Histogram;
use crate::workload::{warmup, Expect, Inputs, Sequence, Workload, CLIENTS};
use crate::{CACHE_CAP_PER_SHARD, REQUEST_BUDGET_MS};

/// Bodies each connection keeps for the post-window check.
const STORED_PER_CONN: usize = 256;
/// Failure descriptions kept for the report.
const KEPT_ERRORS: usize = 4;

/// Cache outcomes named by the `x-andi-cache` header, in metric order.
/// Coalesced answers (`join`) cannot occur in these workloads: no two
/// connections send the same missing instance at once.
pub const OUTCOMES: [&str; 3] = ["hit", "miss", "uncached"];

/// The first answer to an `/assess` request key.
#[derive(Clone)]
struct Stored {
    instance: Arc<Instance>,
    body: Vec<u8>,
    outcome: Option<String>,
}

/// What one connection saw during the window. Latencies are those of
/// successful operations only.
pub struct ConnStats {
    pub latency: Histogram,
    pub by_outcome: [Histogram; 3],
    pub attempted: u64,
    /// Operations that got no answer or a failed one: a transport
    /// error, an unexpected status, a failed trip.
    pub failed: u64,
    /// Operations whose answer was wrong.
    pub wrong: u64,
    /// Answers by rung: exact, sampler, O-estimate.
    pub rungs: [u64; 3],
    pub trips: u64,
    pub assessed: u64,
    pub cacheable: u64,
    /// First answer per request key, for the check.
    assess_bodies: BTreeMap<u64, Stored>,
    /// Edit count and body per update-mix cycle.
    update_bodies: BTreeMap<u64, (usize, Vec<u8>)>,
    pub errors: Vec<String>,
    pub end: Instant,
}

impl ConnStats {
    fn new() -> ConnStats {
        ConnStats {
            latency: Histogram::default(),
            by_outcome: Default::default(),
            attempted: 0,
            failed: 0,
            wrong: 0,
            rungs: [0; 3],
            trips: 0,
            assessed: 0,
            cacheable: 0,
            assess_bodies: BTreeMap::new(),
            update_bodies: BTreeMap::new(),
            errors: Vec::new(),
            end: Instant::now(),
        }
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        self.keep(why);
    }

    fn wrong(&mut self, why: String) {
        self.wrong += 1;
        self.keep(why);
    }

    fn keep(&mut self, why: String) {
        if self.errors.len() < KEPT_ERRORS {
            self.errors.push(why);
        }
    }

    /// Checks what the `--trace` replay answered to a request of this
    /// connection against the first answer the server sent to its key,
    /// when that was stored: the same status, body bytes and
    /// `x-andi-cache` outcome, or the replay has drifted from the
    /// server and the answer counts as wrong. The stored answer is
    /// taken, so only the replay's first answer to a key is compared
    /// (a later one may be a cache hit where the first was a miss).
    /// `true` when an answer was compared.
    pub fn check_replayed(&mut self, expect: &Expect, replayed: &Response) -> bool {
        let served = match expect {
            Expect::Assess { key, .. } => {
                self.assess_bodies.remove(key).map(|s| (s.body, s.outcome))
            }
            Expect::Update { key, .. } => self.update_bodies.remove(key).map(|(_, b)| (b, None)),
        };
        let Some((body, outcome)) = served else {
            return false;
        };
        let replayed_outcome = response_header(replayed, "x-andi-cache");
        if replayed.status != 200 || replayed.body != body || replayed_outcome != outcome.as_deref()
        {
            let bytes = if replayed.body == body {
                "same"
            } else {
                "other"
            };
            let why = format!(
                "the replay answered {}, {replayed_outcome:?}, {bytes} bytes; the server 200, {outcome:?}",
                replayed.status
            );
            self.wrong(why);
        }
        true
    }
}

/// A finished run of the closed loop.
pub struct Window {
    pub conns: Vec<ConnStats>,
    pub seconds: f64,
    /// Median set-up time.
    pub setup_s: f64,
    /// `/stats` at the start and the end of the window.
    pub stats: (Json, Json),
}

impl Window {
    pub fn attempted(&self) -> u64 {
        self.sum(|c| c.attempted)
    }

    /// Operations that failed, wrong answers included.
    pub fn failed(&self) -> u64 {
        self.sum(|c| c.failed + c.wrong)
    }

    pub fn wrong(&self) -> u64 {
        self.sum(|c| c.wrong)
    }

    pub fn latency(&self) -> Histogram {
        self.merged(|c| &c.latency)
    }

    pub fn merged(&self, f: impl Fn(&ConnStats) -> &Histogram) -> Histogram {
        let mut all = Histogram::default();
        for c in &self.conns {
            all.merge(f(c));
        }
        all
    }

    pub fn sum(&self, f: impl Fn(&ConnStats) -> u64) -> u64 {
        self.conns.iter().map(f).sum()
    }
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Runs `f(c, items[c])` on one thread per item and collects the
/// results in item order.
fn on_threads<I: Send + 'static, T: Send + 'static>(
    name: &str,
    items: Vec<I>,
    f: impl Fn(usize, I) -> T + Send + Sync + 'static,
) -> Result<Vec<T>, String> {
    let f = Arc::new(f);
    let handles = items
        .into_iter()
        .enumerate()
        .map(|(c, item)| {
            let f = Arc::clone(&f);
            par::spawn_worker(&format!("{name}-{c}"), move || f(c, item))
                .map_err(|e| format!("cannot spawn a {name} thread: {e}"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    handles
        .into_iter()
        .map(|h| h.join().map_err(|_| format!("a {name} thread panicked")))
        .collect()
}

/// Runs a served workload: `setups` set-ups (server start, input
/// generation, warm-up), keeping the last; the timed window; then the
/// check of every stored response.
pub fn serve(
    w: Workload,
    seed: u64,
    seconds: f64,
    setups: usize,
    threads: usize,
) -> Result<Window, String> {
    let mut times = Vec::new();
    let mut live: Option<Live> = None;
    for _ in 0..setups {
        if let Some((server, clients, _)) = live.take() {
            drop(clients);
            server.shutdown();
        }
        let t0 = Instant::now();
        live = Some(set_up_server(w, seed)?);
        times.push(t0.elapsed().as_secs_f64());
    }
    let (server, clients, inputs) = live.ok_or("no set-up ran")?;
    let stats = |h: &ServerHandle| Json::parse(&h.stats_json()).map_err(|e| e.to_string());
    let before = stats(&server)?;

    let addr = server.addr();
    let start_at = Instant::now();
    let deadline = start_at + Duration::from_secs_f64(seconds);
    let mut conns = on_threads("client", clients, move |c, client| {
        let seq = Sequence::new(Arc::clone(&inputs), seed, c);
        client_loop(client, seq, addr, deadline)
    })?;
    let after = stats(&server)?;
    server.shutdown();

    for conn in &mut conns {
        let mut wrong = Vec::new();
        for s in conn.assess_bodies.values() {
            if let Err(e) = check_assess(&s.instance, &s.body, threads) {
                wrong.push(format!("wrong /assess answer: {e}"));
            }
        }
        for (edits, body) in conn.update_bodies.values() {
            if let Err(e) = check_update(body, *edits) {
                wrong.push(format!("wrong /update answer: {e}"));
            }
        }
        for why in wrong {
            conn.wrong(why);
        }
    }
    Ok(Window {
        seconds: window_seconds(&conns, start_at),
        conns,
        setup_s: median(times),
        stats: (before, after),
    })
}

type Live = (ServerHandle, Vec<Client>, Arc<Inputs>);

fn set_up_server(w: Workload, seed: u64) -> Result<Live, String> {
    let server = start(ServeConfig {
        workers: 2,
        request_budget_ms: REQUEST_BUDGET_MS,
        cache_cap_per_shard: CACHE_CAP_PER_SHARD,
        access_log: false,
        ..ServeConfig::default()
    })
    .map_err(|e| format!("server start: {e}"))?;
    let inputs = Arc::new(Inputs::new(w, seed));
    let addr = server.addr();
    let warm = Arc::clone(&inputs);
    let clients = on_threads(
        "warm-up",
        vec![(); CLIENTS],
        move |c, ()| -> Result<Client, String> {
            let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
            for req in warmup(&warm, seed, c) {
                let resp = request(&mut client, req.path, &req.body)
                    .map_err(|e| format!("warm-up request: {e:?}"))?;
                if resp.status != 200 {
                    return Err(format!("warm-up request answered {}", resp.status));
                }
            }
            Ok(client)
        },
    )?;
    let clients = clients.into_iter().collect::<Result<Vec<_>, _>>()?;
    Ok((server, clients, inputs))
}

/// Read-timeout ticks (200 ms each) to wait for a response to start.
const MAX_IDLE_TICKS: u32 = 50;

/// `POST path` and its response. `Client::request` reports a response
/// that has not started within the client's 200 ms read timeout as
/// `Idle`; the server may legitimately take up to its 2 s budget, so
/// keep waiting for up to 10 s.
fn request(client: &mut Client, path: &str, body: &str) -> Result<Response, WireError> {
    client
        .send("POST", path, body.as_bytes())
        .map_err(|e| WireError::Io(e.kind().to_string()))?;
    let mut idle = 0;
    loop {
        match client.recv() {
            Err(WireError::Idle) if idle < MAX_IDLE_TICKS => idle += 1,
            answer => return answer,
        }
    }
}

fn window_seconds(conns: &[ConnStats], start_at: Instant) -> f64 {
    conns
        .iter()
        .map(|c| c.end.duration_since(start_at).as_secs_f64())
        .fold(0.0, f64::max)
}

fn client_loop(
    mut client: Client,
    mut seq: Sequence,
    addr: std::net::SocketAddr,
    deadline: Instant,
) -> ConnStats {
    let mut st = ConnStats::new();
    while Instant::now() < deadline {
        let req = seq.next_request();
        st.attempted += 1;
        let t0 = Instant::now();
        let answer = request(&mut client, req.path, &req.body);
        let ns = t0.elapsed().as_nanos() as u64;
        let resp = match answer {
            Ok(resp) => resp,
            Err(e) => {
                st.fail(format!("transport error: {e:?}"));
                match Client::connect(addr) {
                    Ok(fresh) => client = fresh,
                    Err(_) => break,
                }
                continue;
            }
        };
        if resp.status != 200 {
            st.fail(format!("{} answered {}", req.path, resp.status));
            continue;
        }
        match req.expect {
            Expect::Update { edits, key } => {
                if st.update_bodies.len() < STORED_PER_CONN {
                    st.update_bodies.insert(key, (edits, resp.body));
                }
                st.latency.record(ns);
            }
            Expect::Assess {
                instance,
                key,
                sample,
            } => {
                let c = classify(&resp.body);
                st.assessed += 1;
                st.trips += c.trips as u64;
                if let Some(rung) = c.rung {
                    st.rungs[rung as usize] += 1;
                }
                if c.trips == 0 && c.rung == Some(Rung::Exact) {
                    st.cacheable += 1;
                }
                if c.failed_trip {
                    st.fail("a rung tripped on its deadline, cancellation or a panic".into());
                    continue;
                }
                let outcome = response_header(&resp, "x-andi-cache");
                if let Some(first) = st.assess_bodies.get(&key) {
                    if first.body != resp.body {
                        st.wrong("a repeated instance got a different body".into());
                        continue;
                    }
                } else if sample && st.assess_bodies.len() < STORED_PER_CONN {
                    let stored = Stored {
                        instance,
                        body: resp.body.clone(),
                        outcome: outcome.map(str::to_string),
                    };
                    st.assess_bodies.insert(key, stored);
                }
                if let Some(k) = OUTCOMES.iter().position(|o| Some(*o) == outcome) {
                    st.by_outcome[k].record(ns);
                }
                st.latency.record(ns);
            }
        }
    }
    st.end = Instant::now();
    st
}

#[cfg(test)]
mod tests {
    use super::*;
    use andi_oracle::instance::Regime;

    #[test]
    fn a_replayed_answer_that_differs_from_the_served_one_is_wrong() {
        let instance = Arc::new(Instance {
            label: "replay test".into(),
            regime: Regime::PointCompliant,
            supports: vec![1],
            m: 2,
            intervals: vec![(0.5, 0.5)],
            mask: None,
        });
        let mut st = ConnStats::new();
        let stored = Stored {
            instance: Arc::clone(&instance),
            body: b"{\"n\":1}".to_vec(),
            outcome: Some("miss".into()),
        };
        let store = |st: &mut ConnStats| {
            st.assess_bodies.insert(3, stored.clone());
            st.update_bodies.insert(3, (1, b"{\"edits\":1}".to_vec()));
        };
        let assess = |key| Expect::Assess {
            instance: Arc::clone(&instance),
            key,
            sample: true,
        };
        let update = Expect::Update { edits: 1, key: 3 };
        let answer = |body: &str| Response::json(200, body);
        let hit = |body: &str| answer(body).with_header("x-andi-cache", "hit");
        let miss = |body: &str| answer(body).with_header("x-andi-cache", "miss");

        store(&mut st);
        assert!(st.check_replayed(&assess(3), &miss("{\"n\":1}")));
        assert!(st.check_replayed(&update, &answer("{\"edits\":1}")));
        assert_eq!(st.wrong, 0);
        // Only the first answer to a key is compared.
        assert!(!st.check_replayed(&assess(3), &hit("{\"n\":1}")));
        // Nor is a request the window did not store.
        assert!(!st.check_replayed(&assess(4), &miss("{}")));

        // Other body bytes, another cache outcome, another update body.
        store(&mut st);
        assert!(st.check_replayed(&assess(3), &miss("{\"n\":2}")));
        store(&mut st);
        assert!(st.check_replayed(&assess(3), &hit("{\"n\":1}")));
        assert!(st.check_replayed(&update, &answer("{\"edits\":2}")));
        assert_eq!(st.wrong, 3);
    }
}
