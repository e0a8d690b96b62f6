//! `andi-benchmark`: the end-to-end benchmark of `andi-serve`.
//!
//! ```text
//! andi-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--quick]
//! andi-benchmark compare A B
//! ```
//!
//! With `--workload`, one workload runs in this process and the last
//! stdout line is its result: `correct`, `attempted`, `failed` and
//! the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). Without it, every workload runs in a child process
//! of its own and the last line gathers their results. The exit code
//! is non-zero when an operation failed or an answer was wrong. See
//! README.md.

mod check;
mod compare;
mod drive;
mod hist;
mod replay;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use andi_graph::par::{self, THREADS_ENV};
use andi_graph::FAULTS_ENV;
use andi_oracle::serial::Json;

use drive::{Window, OUTCOMES};
use replay::{REQUEST_SPAN, SPANS};
use trace::Tracer;
use workload::Workload;

/// Result-cache and scaffold-cache capacity per shard (the server's
/// default).
pub const CACHE_CAP_PER_SHARD: usize = 64;
/// Per-request deadline the server runs the ladder under.
pub const REQUEST_BUDGET_MS: u64 = 2_000;
/// Timed window when `--seconds` is not given (BENCHMARK.json's
/// `run_seconds`).
const DEFAULT_SECONDS: f64 = 15.0;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// `--quick`: a smoke run.
const QUICK_SECONDS: f64 = 0.3;

const USAGE: &str = "usage: andi-benchmark [--workload NAME] [--seed N] [--seconds S] \
                     [--trace 0|1] [--quick]\n       andi-benchmark compare A B";

struct Options {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
}

impl Options {
    fn parse(args: &[String]) -> Result<Options, String> {
        let mut o = Options {
            workload: None,
            seed: 7,
            seconds: DEFAULT_SECONDS,
            trace: false,
            quick: false,
        };
        let mut seconds = None;
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let mut value = || it.next().ok_or(format!("{arg} needs a value"));
            match arg.as_str() {
                "--workload" => {
                    let name = value()?;
                    o.workload =
                        Some(Workload::parse(name).ok_or(format!("unknown workload {name:?}"))?);
                }
                "--seed" => o.seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
                "--seconds" => {
                    let s: f64 = value()?.parse().map_err(|_| "--seconds takes a number")?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err("--seconds must be in (0, 600]".into());
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    o.trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace takes 0 or 1".into()),
                    }
                }
                "--quick" => o.quick = true,
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        o.seconds = seconds.unwrap_or(if o.quick {
            QUICK_SECONDS
        } else {
            DEFAULT_SECONDS
        });
        Ok(o)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return match compare::run(&args[1..]) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("{e}");
                ExitCode::from(2)
            }
        };
    }
    let opts = match Options::parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match opts.workload {
        Some(w) => run_workload(w, &opts),
        None => run_all(&opts),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("andi-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value: if value.is_finite() { value } else { 0.0 },
        unit,
    }
}

/// Runs one workload in this process and prints its result line;
/// `Ok(false)` when an operation failed or an answer was wrong.
fn run_workload(w: Workload, opts: &Options) -> Result<bool, String> {
    // Set before any thread starts: the server reads both once. The
    // checker's in-process ladder must use the server's worker count,
    // and without a schedule every fault probe takes the branch a
    // deployed server takes.
    std::env::set_var(THREADS_ENV, "1");
    std::env::remove_var(FAULTS_ENV);
    let threads = par::available_threads();

    let setups = if opts.quick { 1 } else { SETUPS };
    let mut window = drive::serve(w, opts.seed, opts.seconds, setups, threads)?;
    let metrics = if opts.trace {
        let out = trace_path(w);
        let ops = w.trace_ops(opts.quick);
        let (tracer, compared) =
            replay::replay(w, opts.seed, ops, threads, &out, &mut window.conns)?;
        eprintln!(
            "{}: spans written to {}; {compared} replayed answers compared with the server's",
            w.name(),
            out.display()
        );
        per_layer(&window, &tracer)
    } else {
        end_to_end(&window)?
    };

    let (attempted, failed) = (window.attempted(), window.failed());
    let correct = window.wrong() == 0;
    eprintln!(
        "{}: seed {} ANDI_THREADS={threads} window {:.2} s, {attempted} attempted, {failed} failed",
        w.name(),
        opts.seed,
        window.seconds
    );
    for e in window.conns.iter().flat_map(|c| &c.errors) {
        eprintln!("  failure: {e}");
    }
    let rendered: Vec<String> = metrics
        .iter()
        .map(|m| {
            eprintln!("  {:<44} {:>14.4} {}", m.name, m.value, m.unit);
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        rendered.join(",")
    );
    Ok(correct && failed == 0)
}

fn trace_path(w: Workload) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{}.jsonl", w.name()))
}

fn end_to_end(window: &Window) -> Result<Vec<Metric>, String> {
    let latency = window.latency();
    Ok(vec![
        metric(
            "throughput_rps",
            latency.count() as f64 / window.seconds,
            "1/s",
        ),
        metric("p50_ms", latency.quantile_ns(0.5) / 1e6, "ms"),
        metric("p99_ms", latency.quantile_ns(0.99) / 1e6, "ms"),
        metric("setup_s", window.setup_s, "s"),
        metric("peak_rss_mb", peak_rss_kb()? as f64 / 1024.0, "MB"),
    ])
}

/// `VmHWM`, the process's peak resident set, in kB.
fn peak_rss_kb() -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read the process status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| "no VmHWM in the process status".to_string())
}

/// The counter at `path` in a `/stats` document.
fn stat(doc: &Json, path: &[&str]) -> f64 {
    let mut v = Some(doc);
    for key in path {
        v = v.and_then(|v| v.get(key));
    }
    v.and_then(Json::as_num)
        .and_then(|n| n.parse().ok())
        .unwrap_or(0.0)
}

fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// The per-layer metrics: span statistics, then the counters read
/// from outside the server.
fn per_layer(window: &Window, tracer: &Tracer) -> Vec<Metric> {
    let mut out = Vec::new();
    for name in SPANS {
        let h = tracer.stats(name);
        out.push(metric(format!("{name}.calls"), h.count() as f64, "count"));
        out.push(metric(
            format!("{name}.us_p50"),
            h.quantile_ns(0.5) / 1e3,
            "us",
        ));
        out.push(metric(format!("{name}.us_mean"), h.mean_ns() / 1e3, "us"));
    }

    let (before, after) = &window.stats;
    let delta = |path: &[&str]| stat(after, path) - stat(before, path);
    let hit_ratio = |cache: &str| {
        let lookups: f64 = ["hits", "misses", "joins", "failures"]
            .iter()
            .map(|k| delta(&[cache, k]))
            .sum();
        ratio(delta(&[cache, "hits"]), lookups)
    };
    out.push(metric(
        "serve.cache.result.hit_ratio",
        hit_ratio("result_cache"),
        "ratio",
    ));
    out.push(metric(
        "serve.cache.result.evictions",
        delta(&["result_cache", "evictions"]),
        "count",
    ));
    out.push(metric(
        "serve.cache.scaffold.hit_ratio",
        hit_ratio("scaffold_cache"),
        "ratio",
    ));
    out.push(metric(
        "serve.cache.invalidations",
        delta(&["result_cache", "invalidations"]) + delta(&["scaffold_cache", "invalidations"]),
        "count",
    ));
    out.push(metric("serve.shed", delta(&["shed"]), "count"));
    out.push(metric(
        "serve.server_errors",
        delta(&["responses", "server_error"]),
        "count",
    ));

    for (k, outcome) in OUTCOMES.iter().enumerate() {
        let h = window.merged(|c| &c.by_outcome[k]);
        out.push(metric(
            format!("serve.latency.{outcome}_p50_ms"),
            h.quantile_ns(0.5) / 1e6,
            "ms",
        ));
    }

    for (k, rung) in ["exact", "sampler", "oestimate"].iter().enumerate() {
        out.push(metric(
            format!("core.ladder.rung_{rung}"),
            window.sum(|c| c.rungs[k]) as f64,
            "count",
        ));
    }
    out.push(metric(
        "core.ladder.trips",
        window.sum(|c| c.trips) as f64,
        "count",
    ));
    out.push(metric(
        "core.ladder.cacheable_ratio",
        ratio(
            window.sum(|c| c.cacheable) as f64,
            window.sum(|c| c.assessed) as f64,
        ),
        "ratio",
    ));
    out.push(metric(
        "serve.wire.residual_us_mean",
        (window.latency().mean_ns() - tracer.stats(REQUEST_SPAN).mean_ns()) / 1e3,
        "us",
    ));
    out
}

/// Runs every workload in a child process of its own, so each starts
/// with empty caches and reports its own peak RSS, and prints one line
/// gathering their results.
fn run_all(opts: &Options) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this binary: {e}"))?;
    let mut parts = Vec::new();
    let mut all_ok = true;
    for w in Workload::ALL {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w.name()])
            .args(["--seed", &opts.seed.to_string()])
            .args(["--seconds", &opts.seconds.to_string()])
            .args(["--trace", if opts.trace { "1" } else { "0" }])
            .stderr(Stdio::inherit());
        if opts.quick {
            cmd.arg("--quick");
        }
        let out = cmd
            .output()
            .map_err(|e| format!("cannot run {}: {e}", w.name()))?;
        all_ok &= out.status.success();
        let stdout = String::from_utf8_lossy(&out.stdout);
        let Some(line) = stdout.lines().last().filter(|l| l.starts_with('{')) else {
            eprintln!("{}: no result line", w.name());
            all_ok = false;
            continue;
        };
        let doc = Json::parse(line).map_err(|e| format!("{}: {e}", w.name()))?;
        let error_rate = ratio(stat(&doc, &["failed"]), stat(&doc, &["attempted"]));
        parts.push(format!(
            "\"{}\":{{\"error_rate\":{error_rate},{}",
            w.name(),
            &line[1..]
        ));
    }
    println!(
        "{{\"seed\":{},\"andi_threads\":1,\"trace\":{},\"workloads\":{{{}}}}}",
        opts.seed,
        u8::from(opts.trace),
        parts.join(",")
    );
    Ok(all_ok)
}
