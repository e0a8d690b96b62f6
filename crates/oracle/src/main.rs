//! `andi-oracle` — CLI driver for the conformance harness.
//!
//! ```text
//! andi-oracle run --seed 7 --count 1000 [--regime chain] [--sampler]
//! andi-oracle check <instance.txt>
//! andi-oracle corpus-write [--dir DIR] [--per-regime N]
//! andi-oracle corpus-replay [--dir DIR]
//! ```
//!
//! Exit codes: 0 clean, 1 usage/IO error, 2 conformance failures.

use std::path::PathBuf;
use std::process::ExitCode;

use andi_oracle::checks::CheckConfig;
use andi_oracle::instance::{json_string, Regime};
use andi_oracle::{cases, corpus, generate, run_sweep, Instance};

const USAGE: &str = "\
andi-oracle — differential & metamorphic conformance harness

USAGE:
    andi-oracle run [--seed S] [--count N] [--regime R] [--sampler]
                    [--exact-cap C] [--shrink-out DIR]
    andi-oracle check <instance.txt> [--sampler]
    andi-oracle corpus-write [--dir DIR] [--per-regime N]
    andi-oracle corpus-replay [--dir DIR] [--sampler]

Regimes: ignorant, point-compliant, alpha-compliant, chain,
near-degenerate, adversarial (default: all).

Exit codes: 0 clean, 1 usage or I/O error, 2 conformance failures.";

/// Exit code for confirmed conformance failures.
const EXIT_FAILURES: u8 = 2;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

fn dispatch(args: &[String]) -> Result<ExitCode, String> {
    match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("check") => cmd_check(&args[1..]),
        Some("corpus-write") => cmd_corpus_write(&args[1..]),
        Some("corpus-replay") => cmd_corpus_replay(&args[1..]),
        Some("--help" | "-h" | "help") | None => {
            println!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        Some(other) => Err(format!("unknown command {other:?}")),
    }
}

/// Extracts `--name value` from `args`, removing both tokens.
fn option(args: &mut Vec<String>, name: &str) -> Result<Option<String>, String> {
    if let Some(i) = args.iter().position(|a| a == name) {
        if i + 1 >= args.len() {
            return Err(format!("{name} needs a value"));
        }
        let v = args.remove(i + 1);
        args.remove(i);
        Ok(Some(v))
    } else {
        Ok(None)
    }
}

/// Extracts a boolean `--flag`.
fn flag(args: &mut Vec<String>, name: &str) -> bool {
    if let Some(i) = args.iter().position(|a| a == name) {
        args.remove(i);
        true
    } else {
        false
    }
}

fn parse<T: std::str::FromStr>(what: &str, v: &str) -> Result<T, String> {
    v.parse().map_err(|_| format!("bad {what}: {v:?}"))
}

fn reject_unknown(args: &[String]) -> Result<(), String> {
    match args.first() {
        Some(a) => Err(format!("unexpected argument {a:?}")),
        None => Ok(()),
    }
}

fn config_from(args: &mut Vec<String>) -> Result<CheckConfig, String> {
    let mut cfg = CheckConfig {
        run_sampler: flag(args, "--sampler"),
        ..CheckConfig::default()
    };
    if let Some(cap) = option(args, "--exact-cap")? {
        cfg.exact_cap = parse("--exact-cap", &cap)?;
    }
    Ok(cfg)
}

fn cmd_run(args: &[String]) -> Result<ExitCode, String> {
    let mut args = args.to_vec();
    let seed: u64 = match option(&mut args, "--seed")? {
        Some(s) => parse("--seed", &s)?,
        None => 7,
    };
    let count: u64 = match option(&mut args, "--count")? {
        Some(c) => parse("--count", &c)?,
        None => 100,
    };
    let regimes: Vec<Regime> = match option(&mut args, "--regime")? {
        Some(r) => vec![Regime::parse(&r).map_err(|e| e.to_string())?],
        None => Regime::ALL.to_vec(),
    };
    let shrink_out = option(&mut args, "--shrink-out")?.map(PathBuf::from);
    let cfg = config_from(&mut args)?;
    reject_unknown(&args)?;

    let outcome = run_sweep(seed, count, &regimes, &cfg);
    println!("{}", outcome.to_json(seed, count, &regimes));
    if let Some(dir) = shrink_out {
        for f in &outcome.failures {
            let path = corpus::save(&dir, &f.shrunk).map_err(|e| e.to_string())?;
            eprintln!("shrunk reproduction written to {}", path.display());
        }
    }
    if outcome.is_clean() {
        Ok(ExitCode::SUCCESS)
    } else {
        Ok(ExitCode::from(EXIT_FAILURES))
    }
}

fn cmd_check(args: &[String]) -> Result<ExitCode, String> {
    let mut args = args.to_vec();
    let cfg = config_from(&mut args)?;
    let path = match args.first() {
        Some(p) => PathBuf::from(p),
        None => return Err("check needs an instance file".into()),
    };
    reject_unknown(&args[1..])?;
    let inst = corpus::load(&path).map_err(|e| e.to_string())?;
    let report = andi_oracle::check_instance(&inst, &cfg).map_err(|e| e.to_string())?;
    let checks: Vec<String> = report.checks_run.iter().map(|c| json_string(c)).collect();
    let violations: Vec<String> = report
        .violations
        .iter()
        .map(|v| {
            format!(
                "{{\"check\":{},\"detail\":{}}}",
                json_string(&v.check),
                json_string(&v.detail)
            )
        })
        .collect();
    println!(
        "{{\"label\":{},\"clean\":{},\"checks_run\":[{}],\"violations\":[{}]}}",
        json_string(&inst.label),
        report.is_clean(),
        checks.join(","),
        violations.join(",")
    );
    if report.is_clean() {
        Ok(ExitCode::SUCCESS)
    } else {
        Ok(ExitCode::from(EXIT_FAILURES))
    }
}

/// The committed corpus = every paper case plus `per_regime` seeded
/// samples of each generation regime (seed 7, the CI sweep seed).
fn corpus_instances(per_regime: u64) -> Result<Vec<Instance>, String> {
    let mut out = cases::all().map_err(|e| e.to_string())?;
    for regime in Regime::ALL {
        for index in 0..per_regime {
            out.push(generate(7, index, regime));
        }
    }
    Ok(out)
}

fn cmd_corpus_write(args: &[String]) -> Result<ExitCode, String> {
    let mut args = args.to_vec();
    let dir = option(&mut args, "--dir")?
        .map(PathBuf::from)
        .unwrap_or_else(corpus::corpus_dir);
    let per_regime: u64 = match option(&mut args, "--per-regime")? {
        Some(n) => parse("--per-regime", &n)?,
        None => 3,
    };
    reject_unknown(&args)?;
    for inst in corpus_instances(per_regime)? {
        let path = corpus::save(&dir, &inst).map_err(|e| e.to_string())?;
        println!("{}", path.display());
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_corpus_replay(args: &[String]) -> Result<ExitCode, String> {
    let mut args = args.to_vec();
    let dir = option(&mut args, "--dir")?
        .map(PathBuf::from)
        .unwrap_or_else(corpus::corpus_dir);
    let cfg = config_from(&mut args)?;
    reject_unknown(&args)?;
    let entries = corpus::load_dir(&dir).map_err(|e| e.to_string())?;
    let mut dirty = 0usize;
    for (path, inst) in &entries {
        let report = andi_oracle::check_instance(inst, &cfg).map_err(|e| e.to_string())?;
        if report.is_clean() {
            println!("ok   {}", path.display());
        } else {
            dirty += 1;
            for v in &report.violations {
                println!("FAIL {}: {v}", path.display());
            }
        }
    }
    println!("replayed {} instances, {} failing", entries.len(), dirty);
    if dirty == 0 {
        Ok(ExitCode::SUCCESS)
    } else {
        Ok(ExitCode::from(EXIT_FAILURES))
    }
}
