//! The andi-serve server: accept loop, admission, workers, watcher.
//!
//! Life of a request:
//!
//! 1. The accept loop (nonblocking + drain poll) takes the TCP
//!    connection, runs the `serve.accept` fault probe under
//!    `catch_unwind`, and offers the connection to the bounded
//!    [`Admission`] queue — shedding a structured `429` +
//!    `Retry-After` when full, a `503` when draining.
//! 2. A worker picks the connection up and serves its keep-alive
//!    request stream. Each request runs under `catch_unwind` with the
//!    `serve.request` probe inside, so injected panics become
//!    structured `500`s, never aborts.
//! 3. `POST /assess` parses the oracle instance format, builds a
//!    per-request [`Budget`] + [`CancelToken`] (wired to client
//!    disconnect via the watcher thread and to the server-wide drain),
//!    and answers with the full budgeted-ladder result — coalescing
//!    identical requests through the result [`ShardedCache`], whose
//!    entries carry their database's fingerprint and a second,
//!    independent hash of the instance that a hit must match. It
//!    reads the scaffold cache but never fills it: only `POST /update`
//!    warms a scaffold, for the edited database it says comes next,
//!    and an `/assess` that finds none — or finds one built over other
//!    supports — builds its own (an O(n log n) pass).
//! 4. [`ServerHandle::shutdown`] drains: stops accepting, cancels
//!    every in-flight token, lets workers finish their current
//!    request, and joins all service threads.
//!
//! Responses are deterministic: provenance in the body carries
//! `spent_ms: 0` (the measured value rides in the `X-Andi-Spent-Ms`
//! header) and only untripped results enter the cache, so a cache hit
//! is bit-identical to the cold path and a seeded load run reproduces
//! its exact response multiset.

use std::io::{BufReader, ErrorKind, Read};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use andi_core::incremental::{apply_edits_to_summary, summary_fingerprint, DeltaBatch};
use andi_core::recipe::{ladder_crack_probabilities, RecipeConfig};
use andi_core::report::Provenance;
use andi_core::Error;
use andi_graph::hash::splitmix64;
use andi_graph::par::{self, Budget, CancelToken, WorkerHandle};
use andi_graph::{faults, FrequencyScaffold};
use andi_oracle::editscript::parse_edit;
use andi_oracle::instance::{json_string, Instance};
use andi_oracle::serial::{error_to_json, provenance_to_json};

use crate::admission::{Admission, Offer};
use crate::cache::{fnv1a_u64, Outcome, ShardedCache};
use crate::http::{read_request, Request, Response, WireError, WireLimits};
use crate::stats::ServerStats;

/// Server configuration; [`Default`] gives test-friendly values.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Request worker threads.
    pub workers: usize,
    /// Admission queue capacity (waiting connections beyond the
    /// workers); `0` sheds everything — useful for tests.
    pub queue_cap: usize,
    /// Per-request wall-clock budget in ms; `0` means no deadline.
    pub request_budget_ms: u64,
    /// Result/scaffold cache capacity per shard.
    pub cache_cap_per_shard: usize,
    /// Wire-layer byte and stall caps.
    pub limits: WireLimits,
    /// Emit one access-log line per request on stdout. Lines carry
    /// method, path, status, sizes, and timing only — never belief
    /// intervals, supports, or transactions.
    pub access_log: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue_cap: 64,
            request_budget_ms: 2_000,
            cache_cap_per_shard: 64,
            limits: WireLimits::default(),
            access_log: false,
        }
    }
}

/// A registered in-flight request: the watcher peeks the stream and
/// fires the token when the client goes away.
struct WatchEntry {
    stream: TcpStream,
    token: CancelToken,
    done: AtomicBool,
}

/// Registry of in-flight requests for the disconnect watcher.
#[derive(Default)]
struct Watchlist {
    entries: Mutex<Vec<Arc<WatchEntry>>>,
}

/// Deregisters a request on drop (normal return or unwind).
struct WatchGuard(Arc<WatchEntry>);

impl Drop for WatchGuard {
    fn drop(&mut self) {
        self.0.done.store(true, Ordering::SeqCst);
    }
}

impl Watchlist {
    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Arc<WatchEntry>>> {
        self.entries.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Registers a request's stream + token; `None` (no disconnect
    /// detection, request still served) when the clone fails.
    fn register(&self, stream: &TcpStream, token: CancelToken) -> Option<WatchGuard> {
        let clone = stream.try_clone().ok()?;
        // A short receive timeout bounds each watcher peek; the
        // worker re-asserts its own timeout before its next read.
        if clone
            .set_read_timeout(Some(Duration::from_millis(1)))
            .is_err()
        {
            return None;
        }
        let entry = Arc::new(WatchEntry {
            stream: clone,
            token,
            done: AtomicBool::new(false),
        });
        self.lock().push(Arc::clone(&entry));
        Some(WatchGuard(entry))
    }

    /// One watcher pass: drop finished entries, cancel dead peers.
    /// The peeks run on a snapshot with the list unlocked: the clone
    /// shares the worker's receive timeout, so a peek can block for up
    /// to that timeout, and `register` must not wait behind it.
    fn sweep(&self) {
        let live: Vec<Arc<WatchEntry>> = {
            let mut entries = self.lock();
            entries.retain(|e| !e.done.load(Ordering::SeqCst));
            entries.clone()
        };
        for entry in &live {
            let mut probe_buf = [0u8; 1];
            match entry.stream.peek(&mut probe_buf) {
                // EOF: the client hung up — cancel the computation.
                Ok(0) => entry.token.cancel(),
                // Buffered bytes (e.g. a pipelined next request):
                // the client is alive.
                Ok(_) => {}
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut => {}
                // Reset or other transport death.
                Err(_) => entry.token.cancel(),
            }
        }
    }

    /// Fires every in-flight token (drain).
    fn cancel_all(&self) {
        for entry in self.lock().iter() {
            entry.token.cancel();
        }
    }
}

/// State shared by every service thread.
struct Shared {
    cfg: ServeConfig,
    admission: Admission,
    stats: ServerStats,
    results: ShardedCache<CachedResult>,
    /// Written only by `POST /update`'s warm step; `/assess` reads it.
    scaffolds: ShardedCache<Arc<FrequencyScaffold>>,
    watch: Watchlist,
    draining: AtomicBool,
    request_seq: AtomicU64,
    recipe: RecipeConfig,
    threads: usize,
}

/// A running server: its bound address and the means to drain it.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    threads: Vec<WorkerHandle<()>>,
}

impl ServerHandle {
    /// The bound socket address (with the OS-assigned port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current server stats as JSON (same shape as `GET /stats`).
    pub fn stats_json(&self) -> String {
        stats_json(&self.shared)
    }

    /// Graceful drain: stop accepting, cancel in-flight tokens, let
    /// workers finish their current request, join every service
    /// thread. Returns when the server is fully stopped.
    pub fn shutdown(self) {
        self.shared.draining.store(true, Ordering::SeqCst);
        self.shared.admission.drain();
        self.shared.watch.cancel_all();
        for handle in self.threads {
            // A panicked service thread already surfaced through its
            // catch_unwind; joining the corpse is best-effort.
            if handle.join().is_err() {
                self.shared
                    .stats
                    .server_errors
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// Binds and starts the service threads.
///
/// # Errors
///
/// Bind or thread-spawn failures.
pub fn start(cfg: ServeConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&cfg.addr)?;
    let addr = listener.local_addr()?;
    let workers = cfg.workers.max(1);
    let shared = Arc::new(Shared {
        admission: Admission::new(cfg.queue_cap),
        stats: ServerStats::default(),
        results: ShardedCache::new(cfg.cache_cap_per_shard),
        scaffolds: ShardedCache::new(cfg.cache_cap_per_shard),
        watch: Watchlist::default(),
        draining: AtomicBool::new(false),
        request_seq: AtomicU64::new(0),
        recipe: RecipeConfig::default(),
        threads: par::available_threads(),
        cfg,
    });

    let mut threads = Vec::with_capacity(workers + 2);
    let accept_shared = Arc::clone(&shared);
    threads.push(par::spawn_worker("serve-accept", move || {
        accept_loop(&accept_shared, &listener)
    })?);
    for i in 0..workers {
        let worker_shared = Arc::clone(&shared);
        threads.push(par::spawn_worker(
            &format!("serve-worker-{i}"),
            move || worker_loop(&worker_shared),
        )?);
    }
    let watch_shared = Arc::clone(&shared);
    threads.push(par::spawn_worker("serve-watch", move || {
        watcher_loop(&watch_shared)
    })?);

    Ok(ServerHandle {
        addr,
        shared,
        threads,
    })
}

/// Nonblocking accept + drain poll. Connections the loop answers
/// itself linger in `closing`, polled once per turn, so reading their
/// requests never stalls the accepts.
fn accept_loop(shared: &Shared, listener: &TcpListener) {
    if listener.set_nonblocking(true).is_err() {
        // Without nonblocking accept the drain poll cannot work;
        // refuse to serve rather than hang shutdown forever.
        return;
    }
    let limits = &shared.cfg.limits;
    let mut closing: Vec<Closing> = Vec::new();
    let mut accept_index: usize = 0;
    loop {
        if shared.draining.load(Ordering::SeqCst) {
            closing.into_iter().for_each(Closing::finish);
            return;
        }
        closing.retain_mut(Closing::poll);
        match listener.accept() {
            Ok((stream, _peer)) => {
                shared.stats.accepted.fetch_add(1, Ordering::Relaxed);
                accept_index += 1;
                let probed = catch_unwind(AssertUnwindSafe(|| {
                    faults::probe("serve.accept", accept_index);
                }));
                if let Err(payload) = probed {
                    // Injected accept-path fault: answer structurally
                    // instead of dropping the connection.
                    let resp = Response::json(
                        500,
                        error_to_json(&Error::WorkerPanic {
                            task: accept_index,
                            payload: panic_text(payload.as_ref()),
                        }),
                    );
                    closing.extend(Closing::start(stream, &resp, limits));
                    continue;
                }
                let answered = match shared.admission.offer(stream) {
                    Offer::Accepted => None,
                    Offer::Full(stream) => shed(shared, stream),
                    Offer::Draining(stream) => Closing::start(
                        stream,
                        &Response::json(503, "{\"kind\":\"draining\"}"),
                        limits,
                    ),
                };
                closing.extend(answered);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => par::sleep_ms(1),
            Err(_) => par::sleep_ms(5),
        }
    }
}

/// Sheds a connection with `429` + `Retry-After`.
fn shed(shared: &Shared, stream: TcpStream) -> Option<Closing> {
    shared.stats.shed.fetch_add(1, Ordering::Relaxed);
    let retry = shared
        .stats
        .retry_after_secs(shared.admission.backlog(), shared.cfg.workers.max(1));
    let body = format!("{{\"kind\":\"overloaded\",\"retry_after_s\":{retry}}}");
    let resp = Response::json(429, body).with_header("retry-after", retry.to_string());
    Closing::start(stream, &resp, &shared.cfg.limits)
}

/// How long an answered connection waits for its client to hang up.
const LINGER_MS: u64 = 250;

/// A connection that got its last response outside the request loop
/// (accept fault, shed, drain, wire error) and is half-closed. Its
/// request may still be unread or in transit, and closing a socket
/// with unread bytes makes the kernel reset the connection: the client
/// would see `connection reset` or `broken pipe` instead of the
/// structured answer. So it is read, and the bytes dropped, until the
/// client hangs up, the [`WireLimits`] byte caps are spent, or
/// [`LINGER_MS`] passes.
struct Closing {
    stream: TcpStream,
    linger: Budget,
    bytes_left: usize,
}

impl Closing {
    /// Best-effort bounded write of `resp`, then a half-close. `None`
    /// when the peer is gone: nothing structural is left to say.
    fn start(stream: TcpStream, resp: &Response, limits: &WireLimits) -> Option<Closing> {
        stream
            .set_write_timeout(Some(Duration::from_millis(1_000)))
            .ok()?;
        resp.write_to(&mut &stream, true).ok()?;
        stream.shutdown(Shutdown::Write).ok()?;
        stream.set_nonblocking(true).ok()?;
        Some(Closing {
            stream,
            linger: Budget::with_deadline(Duration::from_millis(LINGER_MS)),
            bytes_left: limits.max_head_bytes + limits.max_body_bytes,
        })
    }

    /// Drops the bytes that have arrived; `false` once the connection
    /// may close.
    fn poll(&mut self) -> bool {
        let mut buf = [0u8; 4096];
        while self.bytes_left > 0 && self.linger.check().is_ok() {
            let want = self.bytes_left.min(buf.len());
            match (&self.stream).read(&mut buf[..want]) {
                Ok(0) => return false,
                Ok(got) => self.bytes_left -= got,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return false,
            }
        }
        false
    }

    /// Polls until the connection may close, then closes it.
    fn finish(mut self) {
        while self.poll() {
            par::sleep_ms(1);
        }
    }
}

/// Worker: serve queued connections until drain.
fn worker_loop(shared: &Shared) {
    while let Some(stream) = shared.admission.take() {
        handle_connection(shared, stream);
    }
}

/// Watcher: poll in-flight request streams for disconnect.
fn watcher_loop(shared: &Shared) {
    loop {
        if shared.draining.load(Ordering::SeqCst) {
            return;
        }
        shared.watch.sweep();
        par::sleep_ms(5);
    }
}

/// Serves one connection's keep-alive request stream.
fn handle_connection(shared: &Shared, stream: TcpStream) {
    if stream
        .set_write_timeout(Some(Duration::from_millis(10_000)))
        .is_err()
    {
        return;
    }
    let reader_stream = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let mut reader = BufReader::new(reader_stream);
    loop {
        if shared.draining.load(Ordering::SeqCst) {
            return;
        }
        // Re-asserted every iteration: the watcher may have shrunk
        // the shared receive timeout while a compute was in flight.
        if stream
            .set_read_timeout(Some(Duration::from_millis(100)))
            .is_err()
        {
            return;
        }
        match read_request(&mut reader, &shared.cfg.limits) {
            Err(WireError::Idle) => continue,
            Err(WireError::Closed) => return,
            Err(e) => {
                let status = e.status();
                if status != 0 {
                    let resp = Response::json(status, e.to_json());
                    shared.stats.count_response(status);
                    // This worker owns the connection, so it lingers
                    // here rather than on the accept thread.
                    if let Some(closing) = Closing::start(stream, &resp, &shared.cfg.limits) {
                        closing.finish();
                    }
                }
                return;
            }
            Ok(req) => {
                shared.stats.requests.fetch_add(1, Ordering::Relaxed);
                let seq = shared.request_seq.fetch_add(1, Ordering::Relaxed);
                let close = req.wants_close() || shared.draining.load(Ordering::SeqCst);
                let resp = dispatch(shared, &req, seq, &stream);
                shared.stats.count_response(resp.status);
                if shared.cfg.access_log {
                    // Method/path/status/sizes/latency only: never
                    // echo request bodies (supports, intervals) here.
                    println!(
                        "access: {} {} {} req={}b resp={}b",
                        req.method,
                        req.target,
                        resp.status,
                        req.body.len(),
                        resp.body.len()
                    );
                }
                let mut w = &stream;
                if resp.write_to(&mut w, close).is_err() {
                    return;
                }
                if close {
                    return;
                }
            }
        }
    }
}

/// Fault-isolated request dispatch: panics inside become `500`s.
fn dispatch(shared: &Shared, req: &Request, seq: u64, stream: &TcpStream) -> Response {
    let outcome = catch_unwind(AssertUnwindSafe(|| route(shared, req, seq, stream)));
    match outcome {
        Ok(resp) => resp,
        Err(payload) => Response::json(
            500,
            error_to_json(&Error::WorkerPanic {
                task: seq as usize,
                payload: panic_text(payload.as_ref()),
            }),
        ),
    }
}

/// Routes a request to its endpoint.
fn route(shared: &Shared, req: &Request, seq: u64, stream: &TcpStream) -> Response {
    faults::probe("serve.request", seq as usize);
    match (req.method.as_str(), req.target.as_str()) {
        ("GET", "/health") => Response::json(200, "{\"ok\":true}"),
        ("GET", "/stats") => Response::json(200, stats_json(shared)),
        ("POST", "/assess") => assess(shared, req, stream),
        ("POST", "/update") => update(shared, req),
        (_, "/health" | "/stats" | "/assess" | "/update") => Response::json(
            405,
            format!(
                "{{\"kind\":\"method-not-allowed\",\"method\":{}}}",
                json_string(&req.method)
            ),
        ),
        _ => Response::json(404, "{\"kind\":\"not-found\"}"),
    }
}

/// `POST /assess`: oracle instance text in, budgeted ladder result
/// out.
fn assess(shared: &Shared, req: &Request, stream: &TcpStream) -> Response {
    let text = match std::str::from_utf8(&req.body) {
        Ok(t) => t,
        Err(_) => {
            return Response::json(
                400,
                "{\"kind\":\"malformed\",\"message\":\"body is not utf-8\"}",
            )
        }
    };
    let instance = match Instance::from_text(text) {
        Ok(i) => i,
        Err(e) => return invalid_instance(&e),
    };
    if let Err(e) = instance.validate() {
        return invalid_instance(&e);
    }

    let token = CancelToken::new();
    let budget = if shared.cfg.request_budget_ms == 0 {
        Budget::unlimited().with_token(token.clone())
    } else {
        Budget::with_deadline(Duration::from_millis(shared.cfg.request_budget_ms))
            .with_token(token.clone())
    };
    // Keep the guard alive for the whole compute: dropping it marks
    // the entry done for the watcher.
    let _watch = shared.watch.register(stream, token.clone());

    let db_key = summary_fingerprint(&instance.supports, instance.m);
    let result_key = result_fingerprint(db_key, &instance);
    let check = result_check(&instance);
    let computed = shared.results.get_or_compute(result_key, || {
        compute_assess(shared, &instance, db_key, check, &budget)
    });
    // An entry whose second hash differs holds another instance's
    // body under a colliding key: answer this instance outside the
    // cache.
    let answered = match computed {
        Ok((result, outcome)) if result.check == check => Ok((result.body, outcome_name(outcome))),
        Ok(_) => compute_assess(shared, &instance, db_key, check, &budget)
            .map(|result| (result.body, "uncached")),
        Err(e) => Err(e),
    };
    let spent_ms = budget.spent().as_millis();
    self_observe(shared, &budget);
    match answered {
        Ok((body, cache)) => Response::json(200, body.as_ref())
            .with_header("x-andi-cache", cache)
            .with_header("x-andi-spent-ms", spent_ms.to_string()),
        // An uncacheable (tripped/degraded) result is still a full
        // answer; it just bypassed the cache.
        Err(AssessFailure::Uncached(body)) => Response::json(200, body)
            .with_header("x-andi-cache", "uncached")
            .with_header("x-andi-spent-ms", spent_ms.to_string()),
        Err(AssessFailure::Core(e)) => {
            core_error_response(&e).with_header("x-andi-spent-ms", spent_ms.to_string())
        }
    }
}

/// Why a flight produced no cacheable value.
enum AssessFailure {
    /// The ladder answered, but with trips or degradation — correct,
    /// yet dependent on timing/faults, so never cached.
    Uncached(String),
    /// The ladder aborted with a structured core error.
    Core(Error),
}

/// A cached `/assess` body, the fingerprint of the database it was
/// computed for, so `POST /update` can drop exactly that database's
/// results, and the [`result_check`] of its instance.
#[derive(Clone)]
struct CachedResult {
    db: u64,
    check: u64,
    body: Arc<str>,
}

/// The cold path: the database's scaffold (a warmed one if `/update`
/// left it for these supports, else built here and not kept) +
/// per-belief graph completion + the budgeted degradation ladder.
fn compute_assess(
    shared: &Shared,
    instance: &Instance,
    db_key: u64,
    check: u64,
    budget: &Budget,
) -> Result<CachedResult, AssessFailure> {
    if let Err(e) = budget.check() {
        return Err(AssessFailure::Core(e.into()));
    }
    let scaffold = shared
        .scaffolds
        .get(db_key)
        .filter(|s| s.is_for(&instance.supports, instance.m))
        .unwrap_or_else(|| Arc::new(FrequencyScaffold::new(&instance.supports, instance.m)));
    let graph = scaffold.graph_for(&instance.intervals);
    let (provenance, probs) =
        ladder_crack_probabilities(&graph, &shared.recipe, shared.threads, budget)
            .map_err(AssessFailure::Core)?;
    let body = render_assess(&provenance, &probs);
    if provenance.trips.is_empty() && !provenance.degraded {
        Ok(CachedResult {
            db: db_key,
            check,
            body: Arc::from(body),
        })
    } else {
        Err(AssessFailure::Uncached(body))
    }
}

/// Renders the deterministic response body: `spent_ms` is zeroed (the
/// measured value rides in a header) so identical requests always
/// produce identical bytes.
fn render_assess(provenance: &Provenance, probs: &[f64]) -> String {
    let mut normalized = provenance.clone();
    normalized.spent_ms = 0;
    let expected: f64 = probs.iter().sum();
    let probs_json: Vec<String> = probs.iter().map(|p| p.to_string()).collect();
    format!(
        "{{\"n\":{},\"expected_cracks\":{},\"provenance\":{},\"probs\":[{}]}}",
        probs.len(),
        expected,
        provenance_to_json(&normalized),
        probs_json.join(",")
    )
}

/// 400 for an unparseable or invalid instance. The message comes from
/// the oracle's own validation and parse errors.
fn invalid_instance(e: &andi_oracle::OracleError) -> Response {
    Response::json(
        400,
        format!(
            "{{\"kind\":\"invalid-instance\",\"message\":{}}}",
            json_string(&e.to_string())
        ),
    )
}

/// Maps a core error to its HTTP status + serialized body.
fn core_error_response(e: &Error) -> Response {
    let status = match e {
        Error::EmptyMappingSpace => 422,
        Error::Cancelled => 503,
        Error::BudgetExceeded { .. } => 504,
        Error::WorkerPanic { .. } => 500,
        _ => 400,
    };
    Response::json(status, error_to_json(e))
}

/// Feeds the latency EWMA from the request's own budget clock.
fn self_observe(shared: &Shared, budget: &Budget) {
    let spent = budget.spent();
    let us = spent.as_micros().min(u128::from(u64::MAX)) as u64;
    shared.stats.observe_latency_us(us);
}

fn outcome_name(outcome: Outcome) -> &'static str {
    match outcome {
        Outcome::Hit => "hit",
        Outcome::Joined => "join",
        Outcome::Computed => "miss",
    }
}

/// `POST /update`: applies a [`DeltaBatch`] to a database summary and
/// invalidates exactly the cache entries the edit affects — the old
/// summary's scaffold, if an earlier `/update` warmed it, and every
/// cached result tagged with the old summary's fingerprint — then
/// warms the scaffold cache for the edited summary so the next
/// `/assess` against it starts from a hit. This warm step is the
/// scaffold cache's only writer.
///
/// Body format (line-oriented, like the oracle formats):
///
/// ```text
/// andi-serve update v1
/// m: 10
/// supports: 5 4 5 5 3 5
/// edit: insert 1 4
/// edit: replace 0 / 2
/// ```
fn update(shared: &Shared, req: &Request) -> Response {
    let text = match std::str::from_utf8(&req.body) {
        Ok(t) => t,
        Err(_) => {
            return Response::json(
                400,
                "{\"kind\":\"malformed\",\"message\":\"body is not utf-8\"}",
            )
        }
    };
    let parsed = match parse_update(text) {
        Ok(p) => p,
        Err(message) => {
            return Response::json(
                400,
                format!(
                    "{{\"kind\":\"invalid-update\",\"message\":{}}}",
                    json_string(&message)
                ),
            )
        }
    };
    let (m, supports, batch) = parsed;
    let (new_supports, new_m) = match apply_edits_to_summary(&supports, m, &batch) {
        Ok(edited) => edited,
        Err(e) => return core_error_response(&e),
    };

    let old_db = summary_fingerprint(&supports, m);
    let new_db = summary_fingerprint(&new_supports, new_m);
    let scaffold_invalidated = shared.scaffolds.invalidate(old_db);
    let results_invalidated = shared.results.invalidate_where(|r| r.db == old_db);
    // Warm the edited summary's scaffold so write traffic keeps the
    // cache hot instead of just cold.
    let warmed = shared
        .scaffolds
        .get_or_compute(new_db, || {
            Ok::<_, std::convert::Infallible>(Arc::new(FrequencyScaffold::new(
                &new_supports,
                new_m,
            )))
        })
        .is_ok();
    Response::json(
        200,
        format!(
            "{{\"kind\":\"updated\",\"edits\":{},\"old_db\":\"{:016x}\",\
             \"new_db\":\"{:016x}\",\"scaffold_invalidated\":{},\
             \"results_invalidated\":{},\"warmed\":{}}}",
            batch.len(),
            old_db,
            new_db,
            scaffold_invalidated,
            results_invalidated,
            warmed
        ),
    )
}

/// Parses the `/update` body into `(m, supports, batch)`. Error
/// messages are structural only — they never echo supports or item
/// values.
fn parse_update(text: &str) -> Result<(u64, Vec<u64>, DeltaBatch), String> {
    const UPDATE_HEADER: &str = "andi-serve update v1";
    let mut lines = text.lines();
    let header = lines.next().unwrap_or("");
    if header.trim() != UPDATE_HEADER {
        return Err(format!("bad header (want {UPDATE_HEADER:?})"));
    }
    let mut m: Option<u64> = None;
    let mut supports: Option<Vec<u64>> = None;
    let mut edits = Vec::new();
    for line in lines {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (key, value) = line.split_once(':').ok_or("missing ':' in a body line")?;
        let value = value.trim();
        match key.trim() {
            "m" => m = Some(value.parse::<u64>().map_err(|_| "m is not a number")?),
            "supports" => {
                supports = Some(
                    value
                        .split_whitespace()
                        .map(|t| t.parse::<u64>().map_err(|_| "a support is not a number"))
                        .collect::<Result<Vec<_>, _>>()?,
                )
            }
            "edit" => edits.push(parse_edit(value).map_err(|e| e.to_string())?),
            other => return Err(format!("unknown field {other:?}")),
        }
    }
    let m = m.ok_or("missing m")?;
    let supports = supports.ok_or("missing supports")?;
    if supports.is_empty() {
        return Err("supports must name at least one item".into());
    }
    if m == 0 {
        return Err("m must be positive".into());
    }
    if supports.iter().any(|&s| s > m) {
        return Err("a support exceeds the transaction count".into());
    }
    Ok((m, supports, DeltaBatch::new(edits)))
}

/// Full result fingerprint: database + belief intervals. The label,
/// regime, and mask do not enter the assessment, so requests that
/// differ only there coalesce.
fn result_fingerprint(db_key: u64, instance: &Instance) -> u64 {
    let mut h = fnv1a_u64(db_key, 0x5eed);
    for &(l, r) in &instance.intervals {
        h = fnv1a_u64(h, l.to_bits());
        h = fnv1a_u64(h, r.to_bits());
    }
    h
}

/// A second hash of what the answer depends on — `m`, the supports
/// and the intervals — built on SplitMix64 rather than FNV-1a, so a
/// collision of [`result_fingerprint`] does not make it collide too.
fn result_check(instance: &Instance) -> u64 {
    let mut h = splitmix64(instance.m);
    let words = instance.supports.iter().copied().chain(
        instance
            .intervals
            .iter()
            .flat_map(|&(l, r)| [l.to_bits(), r.to_bits()]),
    );
    for word in std::iter::once(instance.supports.len() as u64).chain(words) {
        h = splitmix64(h ^ word);
    }
    h
}

/// The `/stats` document.
fn stats_json(shared: &Shared) -> String {
    let s = &shared.stats;
    format!(
        "{{\"accepted\":{},\"shed\":{},\"requests\":{},\
         \"responses\":{{\"ok\":{},\"client_error\":{},\"server_error\":{}}},\
         \"latency_ewma_us\":{},\"backlog\":{},\"draining\":{},\
         \"result_cache\":{},\"scaffold_cache\":{}}}",
        s.accepted.load(Ordering::Relaxed),
        s.shed.load(Ordering::Relaxed),
        s.requests.load(Ordering::Relaxed),
        s.ok.load(Ordering::Relaxed),
        s.client_errors.load(Ordering::Relaxed),
        s.server_errors.load(Ordering::Relaxed),
        s.latency_ewma_us(),
        shared.admission.backlog(),
        shared.draining.load(Ordering::SeqCst),
        shared.results.stats().to_json(),
        shared.scaffolds.stats().to_json(),
    )
}

/// Extracts a printable payload from a caught panic.
fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use std::time::Instant;

    use super::*;

    /// A connected `(client, server)` pair over loopback.
    fn socket_pair(listener: &TcpListener) -> (TcpStream, TcpStream) {
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        (client, server)
    }

    /// A sweep blocked on a peek must not hold up `register`: the
    /// watched clone shares the worker's receive timeout, so a peek of
    /// an idle client can block for that whole timeout.
    #[test]
    fn register_does_not_wait_behind_a_blocked_sweep() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let watch = Arc::new(Watchlist::default());
        let (idle_client, idle) = socket_pair(&listener);
        let _idle_guard = watch.register(&idle, CancelToken::new()).unwrap();
        // As a worker does: its own timeout overrides the watcher's.
        idle.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();

        let sweeper = {
            let watch = Arc::clone(&watch);
            std::thread::spawn(move || watch.sweep())
        };
        std::thread::sleep(Duration::from_millis(200));
        let (_client, other) = socket_pair(&listener);
        let started = Instant::now();
        let guard = watch.register(&other, CancelToken::new());
        let waited = started.elapsed();
        assert!(guard.is_some());
        assert!(
            !sweeper.is_finished(),
            "the sweep was not blocked on its peek; the test proves nothing"
        );
        assert!(
            waited < Duration::from_secs(2),
            "register waited {waited:?} behind the sweep"
        );

        // Hanging up ends the peek (EOF) and the sweep.
        idle_client.shutdown(Shutdown::Both).unwrap();
        sweeper.join().unwrap();
    }

    /// Entries planted under a request's keys — another instance's
    /// body under its result key, a scaffold of other supports under
    /// its database key — stand for 64-bit key collisions. The request
    /// must still get its own answer, computed outside the cache.
    #[test]
    fn a_colliding_cache_entry_is_not_served() {
        let text = "andi-oracle instance v1\nlabel: collide\nregime: alpha-compliant\n\
                    m: 10\nsupports: 5 4 5 5 3 5\n\
                    intervals: 0,1 0.4,0.5 0.5,0.5 0.4,0.6 0.1,0.4 0.5,0.5\n";
        let assess = |server: &ServerHandle| {
            crate::client::Client::connect(server.addr())
                .unwrap()
                .request("POST", "/assess", text.as_bytes())
                .unwrap()
        };
        let clean = start(ServeConfig::default()).unwrap();
        let want = assess(&clean);
        clean.shutdown();
        assert_eq!(want.status, 200);

        let planted = start(ServeConfig::default()).unwrap();
        let instance = Instance::from_text(text).unwrap();
        let db_key = summary_fingerprint(&instance.supports, instance.m);
        let wrong = CachedResult {
            db: db_key,
            check: result_check(&instance) ^ 1,
            body: Arc::from("{\"n\":1}"),
        };
        let result_key = result_fingerprint(db_key, &instance);
        let other = Arc::new(FrequencyScaffold::new(&[1, 2, 3, 4, 5, 6], 10));
        let shared = &planted.shared;
        assert!(shared
            .results
            .get_or_compute(result_key, || Ok::<_, ()>(wrong))
            .is_ok());
        assert!(shared
            .scaffolds
            .get_or_compute(db_key, || Ok::<_, ()>(other))
            .is_ok());
        for _ in 0..2 {
            let got = assess(&planted);
            assert_eq!(got.status, 200);
            assert_eq!(got.body, want.body);
            assert_eq!(
                crate::http::response_header(&got, "x-andi-cache"),
                Some("uncached")
            );
        }
        planted.shutdown();
    }
}
