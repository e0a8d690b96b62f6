//! The `--trace` replay: the server's request path runs in-process
//! over the same seeded sequences, with a span around each public
//! function it calls at a layer boundary.
//!
//! The server's own glue (routing, fingerprints, the result-key index,
//! body rendering, the `/update` body parser) is private to
//! `andi-serve`, so it is mirrored here line for line; every library
//! call inside it is the one the server makes. Every replayed answer
//! the window also stored is compared byte for byte with the server's,
//! so a mirror that drifts from the server fails the run. Nothing
//! inside the libraries is timed: spans sit around calls into `serve`,
//! `oracle`, `graph` and `core`.

use std::collections::{BTreeMap, BTreeSet};
use std::convert::Infallible;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use andi_core::incremental::{apply_edits_to_summary, DeltaBatch};
use andi_core::recipe::{ladder_crack_probabilities, RecipeConfig};
use andi_core::report::Provenance;
use andi_graph::exact::crack_probabilities_budgeted;
use andi_graph::par::Budget;
use andi_graph::{
    hopcroft_karp, sample_crack_probabilities_budgeted, FrequencyScaffold, GroupedBigraph,
    Matching, MAX_PERMANENT_N,
};
use andi_oracle::editscript::parse_edit;
use andi_oracle::instance::Instance;
use andi_oracle::serial::provenance_to_json;
use andi_serve::cache::{fnv1a_u64, Outcome, ShardedCache, FNV_OFFSET};
use andi_serve::http::{read_request, read_response, Response, WireLimits};

use crate::drive::ConnStats;
use crate::trace::Tracer;
use crate::workload::{warmup, Expect, Inputs, Request, Sequence, Workload, CLIENTS};
use crate::{CACHE_CAP_PER_SHARD, REQUEST_BUDGET_MS};

/// Spans the per-layer metrics report, in output order.
pub const SPANS: [&str; 15] = [
    "serve.http.read",
    "serve.http.write",
    "oracle.instance.parse",
    "serve.cache.result",
    "serve.cache.scaffold",
    "graph.scaffold.new",
    "graph.scaffold.graph_for",
    "core.ladder",
    "graph.dense.to_dense",
    "graph.exact.crack_probabilities",
    "graph.sampler.crack_probabilities",
    "oracle.serial.provenance_to_json",
    "oracle.editscript.parse_edit",
    "core.incremental.apply",
    "serve.cache.invalidate",
];

/// Root span of one replayed request; its mean is the in-process
/// request time the wire residual is measured against.
pub const REQUEST_SPAN: &str = "request";

/// The bytes `andi_serve::Client::send` puts on the wire.
fn wire_bytes(path: &str, body: &str) -> Vec<u8> {
    let mut wire = format!(
        "POST {path} HTTP/1.1\r\nhost: andi-serve\r\ncontent-length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    wire.extend_from_slice(body.as_bytes());
    wire
}

/// `database_fingerprint` of andi-serve's server.rs.
fn database_fingerprint(m: u64, supports: &[u64]) -> u64 {
    let mut h = fnv1a_u64(FNV_OFFSET, m);
    h = fnv1a_u64(h, supports.len() as u64);
    for &s in supports {
        h = fnv1a_u64(h, s);
    }
    h
}

/// `result_fingerprint` of andi-serve's server.rs: the replay's caches
/// must see the server's keys to shard and evict as the server does.
fn result_fingerprint(db_key: u64, instance: &Instance) -> u64 {
    let mut h = fnv1a_u64(db_key, 0x5eed);
    for &(l, r) in &instance.intervals {
        h = fnv1a_u64(h, l.to_bits());
        h = fnv1a_u64(h, r.to_bits());
    }
    h
}

/// `DB_INDEX_CAP` of andi-serve's server.rs.
const DB_INDEX_CAP: usize = 1024;

/// `parse_update` of andi-serve's server.rs, with a span around each
/// `parse_edit`.
fn parse_update(t: &Tracer, text: &str) -> Result<(u64, Vec<u64>, DeltaBatch), String> {
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
            "edit" => edits.push(
                t.span("oracle.editscript.parse_edit", || parse_edit(value))
                    .map_err(|e| e.to_string())?,
            ),
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

fn outcome_name(outcome: Outcome) -> &'static str {
    match outcome {
        Outcome::Hit => "hit",
        Outcome::Joined => "join",
        Outcome::Computed => "miss",
    }
}

enum Failure {
    Uncached(String),
    Core(String),
}

/// The server's state for one replay: its two caches and the
/// database → result-key index `/update` invalidates through.
struct Server {
    results: ShardedCache<Arc<str>>,
    scaffolds: ShardedCache<Arc<FrequencyScaffold>>,
    index: BTreeMap<u64, BTreeSet<u64>>,
    recipe: RecipeConfig,
    limits: WireLimits,
    threads: usize,
}

impl Server {
    fn new(threads: usize) -> Server {
        Server {
            results: ShardedCache::new(CACHE_CAP_PER_SHARD),
            scaffolds: ShardedCache::new(CACHE_CAP_PER_SHARD),
            index: BTreeMap::new(),
            recipe: RecipeConfig::default(),
            limits: WireLimits::default(),
            threads,
        }
    }

    /// Serves one request; returns the response as written to the
    /// wire and the graph the ladder ran on, if it ran, for the
    /// standalone kernel spans.
    fn serve(
        &mut self,
        t: &Tracer,
        req: &Request,
    ) -> Result<(Vec<u8>, Option<GroupedBigraph>), String> {
        let wire = wire_bytes(req.path, &req.body);
        let mut out = Vec::new();
        let graph = t.span(REQUEST_SPAN, || match req.expect {
            Expect::Assess { .. } => self.assess(t, &wire, &mut out),
            Expect::Update { .. } => self.update(t, &wire, &mut out).map(|()| None),
        })?;
        Ok((out, graph))
    }

    /// `index_result_key` of andi-serve's server.rs.
    fn index_result_key(&mut self, db_key: u64, result_key: u64) {
        if !self.index.contains_key(&db_key) && self.index.len() >= DB_INDEX_CAP {
            self.index.pop_first();
        }
        let keys = self.index.entry(db_key).or_default();
        if keys.len() >= DB_INDEX_CAP {
            keys.pop_first();
        }
        keys.insert(result_key);
    }

    fn assess(
        &mut self,
        t: &Tracer,
        wire: &[u8],
        out: &mut Vec<u8>,
    ) -> Result<Option<GroupedBigraph>, String> {
        let req = t
            .span("serve.http.read", || {
                read_request(&mut &wire[..], &self.limits)
            })
            .map_err(|e| e.to_json())?;
        let text = std::str::from_utf8(&req.body).map_err(|e| e.to_string())?;
        let instance = t
            .span("oracle.instance.parse", || {
                let i = Instance::from_text(text)?;
                i.validate().map(|()| i)
            })
            .map_err(|e| e.to_string())?;
        let budget = Budget::with_deadline(Duration::from_millis(REQUEST_BUDGET_MS));
        let db_key = database_fingerprint(instance.m, &instance.supports);
        let result_key = result_fingerprint(db_key, &instance);
        self.index_result_key(db_key, result_key);

        let mut ladder_graph = None;
        let computed = t.span("serve.cache.result", || {
            self.results.get_or_compute(result_key, || {
                budget.check().map_err(|e| Failure::Core(e.to_string()))?;
                let scaffold = match t.span("serve.cache.scaffold", || {
                    self.scaffolds.get_or_compute(db_key, || {
                        Ok::<_, Infallible>(Arc::new(t.span("graph.scaffold.new", || {
                            FrequencyScaffold::new(&instance.supports, instance.m)
                        })))
                    })
                }) {
                    Ok((s, _)) => s,
                    Err(never) => match never {},
                };
                let graph = t.span("graph.scaffold.graph_for", || {
                    scaffold.graph_for(&instance.intervals)
                });
                let (provenance, probs) = t
                    .span("core.ladder", || {
                        ladder_crack_probabilities(&graph, &self.recipe, self.threads, &budget)
                    })
                    .map_err(|e| Failure::Core(e.to_string()))?;
                let body = render_assess(t, &provenance, &probs);
                ladder_graph = Some(graph);
                if provenance.trips.is_empty() && !provenance.degraded {
                    Ok(Arc::from(body))
                } else {
                    Err(Failure::Uncached(body))
                }
            })
        });
        let (body, outcome) = match computed {
            Ok((body, outcome)) => (body.to_string(), outcome_name(outcome)),
            Err(Failure::Uncached(body)) => (body, "uncached"),
            Err(Failure::Core(e)) => return Err(e),
        };
        let spent_ms = budget.spent().as_millis();
        t.span("serve.http.write", || {
            Response::json(200, body)
                .with_header("x-andi-cache", outcome)
                .with_header("x-andi-spent-ms", spent_ms.to_string())
                .write_to(out, false)
        })
        .map_err(|e| e.to_string())?;
        Ok(ladder_graph)
    }

    fn update(&mut self, t: &Tracer, wire: &[u8], out: &mut Vec<u8>) -> Result<(), String> {
        let req = t
            .span("serve.http.read", || {
                read_request(&mut &wire[..], &self.limits)
            })
            .map_err(|e| e.to_json())?;
        let text = std::str::from_utf8(&req.body).map_err(|e| e.to_string())?;
        let (m, supports, batch) = parse_update(t, text)?;
        let (new_supports, new_m) = t
            .span("core.incremental.apply", || {
                apply_edits_to_summary(&supports, m, &batch)
            })
            .map_err(|e| e.to_string())?;

        let old_db = database_fingerprint(m, &supports);
        let new_db = database_fingerprint(new_m, &new_supports);
        let scaffold_invalidated = t.span("serve.cache.invalidate", || {
            self.scaffolds.invalidate(old_db)
        });
        let mut results_invalidated = 0usize;
        for key in self.index.remove(&old_db).unwrap_or_default() {
            if t.span("serve.cache.invalidate", || self.results.invalidate(key)) {
                results_invalidated += 1;
            }
        }
        let warmed = t
            .span("serve.cache.scaffold", || {
                self.scaffolds.get_or_compute(new_db, || {
                    Ok::<_, Infallible>(Arc::new(t.span("graph.scaffold.new", || {
                        FrequencyScaffold::new(&new_supports, new_m)
                    })))
                })
            })
            .is_ok();
        let body = format!(
            "{{\"kind\":\"updated\",\"edits\":{},\"old_db\":\"{:016x}\",\
             \"new_db\":\"{:016x}\",\"scaffold_invalidated\":{},\
             \"results_invalidated\":{},\"warmed\":{}}}",
            batch.len(),
            old_db,
            new_db,
            scaffold_invalidated,
            results_invalidated,
            warmed
        );
        t.span("serve.http.write", || {
            Response::json(200, body).write_to(out, false)
        })
        .map_err(|e| e.to_string())
    }

    /// The ladder's kernels on its own graph, each timed on its own
    /// beside the ladder rather than inside it: Ryser (with the dense
    /// conversion it needs) up to `MAX_PERMANENT_N`, the sampler above.
    fn kernels(&self, t: &Tracer, graph: &GroupedBigraph) {
        let n = graph.n();
        t.span("kernels", || {
            if n <= MAX_PERMANENT_N {
                let dense = t.span("graph.dense.to_dense", || graph.to_dense());
                black_box(t.span("graph.exact.crack_probabilities", || {
                    crack_probabilities_budgeted(&dense, self.threads, &Budget::unlimited())
                }))
                .ok();
            } else {
                let seed = if (0..n).all(|i| graph.has_edge(i, i)) {
                    Matching::identity(n)
                } else {
                    hopcroft_karp(&graph.to_dense())
                };
                black_box(t.span("graph.sampler.crack_probabilities", || {
                    sample_crack_probabilities_budgeted(
                        graph,
                        &seed,
                        &self.recipe.sampler_schedule,
                        self.recipe.seed,
                        self.threads,
                        &Budget::unlimited(),
                    )
                }))
                .ok();
            }
        });
    }
}

/// `render_assess` of andi-serve's server.rs.
fn render_assess(t: &Tracer, provenance: &Provenance, probs: &[f64]) -> String {
    let mut normalized = provenance.clone();
    normalized.spent_ms = 0;
    let expected: f64 = probs.iter().sum();
    let probs_json: Vec<String> = probs.iter().map(|p| p.to_string()).collect();
    let provenance_json = t.span("oracle.serial.provenance_to_json", || {
        provenance_to_json(&normalized)
    });
    format!(
        "{{\"n\":{},\"expected_cracks\":{},\"provenance\":{},\"probs\":[{}]}}",
        probs.len(),
        expected,
        provenance_json,
        probs_json.join(",")
    )
}

/// Replays warm-up plus `ops` requests of workload `w`, taking the
/// connections' requests in turn, and writes the spans to `out` as
/// JSON lines. Each replayed answer is checked against the one the
/// server sent on the same connection (`conns`), where the window
/// stored it; the result is the tracer and the number of answers
/// compared.
pub fn replay(
    w: Workload,
    seed: u64,
    ops: u64,
    threads: usize,
    out: &Path,
    conns: &mut [ConnStats],
) -> Result<(Tracer, u64), String> {
    let tracer = Tracer::new();
    // Warm-up runs under its own recorder, so the spans and stats
    // cover the same steady state as the timed window.
    let untimed = Tracer::new();
    let inputs = Arc::new(Inputs::new(w, seed));
    let mut server = Server::new(threads);
    for conn in 0..CLIENTS {
        for req in warmup(&inputs, seed, conn) {
            server.serve(&untimed, &req)?;
        }
    }
    let mut seqs: Vec<Sequence> = (0..CLIENTS)
        .map(|c| Sequence::new(Arc::clone(&inputs), seed, c))
        .collect();
    let limits = WireLimits::default();
    let mut compared = 0;
    for i in 0..ops {
        tracer.begin_request(i);
        let conn = (i % CLIENTS as u64) as usize;
        let req = seqs[conn].next_request();
        let (wire, graph) = server.serve(&tracer, &req)?;
        if let Some(graph) = graph {
            server.kernels(&tracer, &graph);
        }
        let resp = read_response(&mut &wire[..], &limits)
            .map_err(|e| format!("the replay wrote a bad response: {e:?}"))?;
        compared += u64::from(conns[conn].check_replayed(&req.expect, &resp));
    }
    tracer
        .write_jsonl(out)
        .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    Ok((tracer, compared))
}
