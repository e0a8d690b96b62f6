//! `andi-serve` — serve the budgeted Assess-Risk ladder over HTTP.
//!
//! ```text
//! andi-serve --addr 127.0.0.1:0 [--workers N] [--queue-cap N]
//!            [--budget-ms N] [--quiet]
//! ```
//!
//! Prints `listening on <addr>` once bound, then serves until the
//! process is killed. Endpoints: `POST /assess` (oracle instance
//! text in, ladder result JSON out), `POST /update` (an edit batch
//! against a database summary in, the old and new summary
//! fingerprints and the invalidation counts out), `GET /stats`,
//! `GET /health`.

use andi_graph::par;
use andi_serve::{start, ServeConfig};

fn usage() -> String {
    "usage: andi-serve [--addr HOST:PORT] [--workers N] [--queue-cap N] \
     [--budget-ms N] [--quiet]"
        .to_string()
}

fn parse_args(args: &[String]) -> Result<ServeConfig, String> {
    let mut cfg = ServeConfig {
        addr: "127.0.0.1:7341".to_string(),
        access_log: true,
        ..ServeConfig::default()
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value_for = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value\n{}", usage()))
        };
        match arg.as_str() {
            "--addr" => cfg.addr = value_for("--addr")?,
            "--workers" => {
                cfg.workers = value_for("--workers")?
                    .parse()
                    .map_err(|_| format!("bad --workers value\n{}", usage()))?
            }
            "--queue-cap" => {
                cfg.queue_cap = value_for("--queue-cap")?
                    .parse()
                    .map_err(|_| format!("bad --queue-cap value\n{}", usage()))?
            }
            "--budget-ms" => {
                cfg.request_budget_ms = value_for("--budget-ms")?
                    .parse()
                    .map_err(|_| format!("bad --budget-ms value\n{}", usage()))?
            }
            "--quiet" => cfg.access_log = false,
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown flag {other:?}\n{}", usage())),
        }
    }
    Ok(cfg)
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = parse_args(&args)?;
    let handle = start(cfg).map_err(|e| format!("failed to start: {e}"))?;
    println!("listening on {}", handle.addr());
    loop {
        par::sleep_ms(60_000);
    }
}

fn main() {
    if let Err(msg) = run() {
        eprintln!("{msg}");
        std::process::exit(2);
    }
}
