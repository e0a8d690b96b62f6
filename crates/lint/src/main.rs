//! CLI for `andi-lint`.
//!
//! ```text
//! andi-lint check [--root DIR] [--format human|json]
//! andi-lint check --file PATH --as VIRTUAL [--file … --as …] [--format human|json]
//! andi-lint prove [--root DIR]
//! andi-lint taint [--root DIR] [--format human|json]
//! andi-lint rules
//! ```
//!
//! `--file/--as` may repeat: the named files are linted together as
//! one virtual workspace, which is how the cross-file fixtures
//! exercise the call graph. `prove` runs only the interval prover
//! over the contract pragmas and prints a proof summary. `taint`
//! runs only the information-flow layer and prints the
//! source→…→sink flow stats plus the declassify inventory. Exit
//! codes: 0 = clean, 1 = findings, 2 = usage/IO error.

#![forbid(unsafe_code)]

use std::io;
use std::path::PathBuf;
use std::process::ExitCode;

use andi_lint::{
    check_tree, format_human, format_json, format_taint_json, lint_files, prove_tree, taint_tree,
    Finding, RULES,
};

const USAGE: &str = "usage: andi-lint check [--root DIR] [--file PATH --as VIRTUAL]... \
                     [--format human|json] | andi-lint prove [--root DIR] | \
                     andi-lint taint [--root DIR] [--format human|json] | andi-lint rules";

/// The flag values of one subcommand.
struct Opts {
    root: PathBuf,
    json: bool,
    /// `(virtual path, file on disk)` pairs from `--as`/`--file`.
    files: Vec<(String, PathBuf)>,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map_or("", String::as_str);
    let accepted: &[&str] = match cmd {
        "check" => &["--root", "--format", "--file", "--as"],
        "taint" => &["--root", "--format"],
        "prove" => &["--root"],
        "rules" => {
            for r in RULES {
                println!("{:<26} {:<40} {}", r.name, r.scope, r.summary);
            }
            return ExitCode::SUCCESS;
        }
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let opts = match parse_flags(&args[1..], accepted) {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("{msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let clean = match cmd {
        "check" => check(&opts),
        "taint" => taint(&opts),
        _ => prove(&opts),
    };
    match clean {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("andi-lint: {e}");
            ExitCode::from(2)
        }
    }
}

/// Parses `args` for a subcommand that takes the flags in `accepted`,
/// each with one value; a usage error comes back as its message.
fn parse_flags(args: &[String], accepted: &[&str]) -> Result<Opts, String> {
    let (mut root, mut json) = (PathBuf::from("."), false);
    let (mut files, mut virts) = (Vec::new(), Vec::new());
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if !accepted.contains(&flag.as_str()) {
            return Err(format!("unknown argument {flag}"));
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--root" => root = PathBuf::from(value),
            "--format" if value == "human" || value == "json" => json = value == "json",
            "--format" => return Err("--format must be human or json".to_string()),
            "--file" => files.push(PathBuf::from(value)),
            _ => virts.push(value.clone()),
        }
    }
    if files.len() != virts.len() {
        return Err("each --file needs a matching --as VIRTUAL to scope the rules".to_string());
    }
    let files = virts.into_iter().zip(files).collect();
    Ok(Opts { root, json, files })
}

/// `"s"` unless `n` is one.
fn s(n: usize) -> &'static str {
    if n == 1 {
        ""
    } else {
        "s"
    }
}

/// A report's findings and hygiene findings, sorted by position and
/// rule.
fn merged(findings: &[Finding], hygiene: &[Finding]) -> Vec<Finding> {
    let mut all = findings.to_vec();
    all.extend(hygiene.iter().cloned());
    all.sort_by(|a, b| (&a.file, a.line, a.col, a.rule).cmp(&(&b.file, b.line, b.col, b.rule)));
    all
}

fn check(opts: &Opts) -> io::Result<bool> {
    let findings = if opts.files.is_empty() {
        check_tree(&opts.root)?
    } else {
        lint_files(&opts.files)?
    };
    if opts.json {
        print!("{}", format_json(&findings));
    } else {
        print!("{}", format_human(&findings));
    }
    Ok(findings.is_empty())
}

fn prove(opts: &Opts) -> io::Result<bool> {
    let proved = prove_tree(&opts.root)?;
    let all = merged(&proved.findings, &proved.hygiene);
    let st = &proved.stats;
    print!("{}", format_human(&all));
    println!(
        "andi-lint prove: {} region{}, {} checked op{}, {} assume{}, {} fn{} analyzed",
        st.regions,
        s(st.regions),
        st.checked_ops,
        s(st.checked_ops),
        st.assumes,
        s(st.assumes),
        st.fns_analyzed,
        s(st.fns_analyzed),
    );
    Ok(all.is_empty())
}

fn taint(opts: &Opts) -> io::Result<bool> {
    let report = taint_tree(&opts.root)?;
    let all = merged(&report.findings, &report.hygiene);
    let st = &report.stats;
    if opts.json {
        print!("{}", format_taint_json(&all, st));
        return Ok(all.is_empty());
    }
    print!("{}", format_human(&all));
    println!(
        "andi-lint taint: {} sensitive type{} ({} member{}), {} bearing type{}, \
         {} fn{} analyzed, {} raw-returning, {} sink site{}",
        st.sensitive_types.len(),
        s(st.sensitive_types.len()),
        st.sensitive_members,
        s(st.sensitive_members),
        st.bearing_types.len(),
        s(st.bearing_types.len()),
        st.fns_analyzed,
        s(st.fns_analyzed),
        st.raw_returning_fns,
        st.sink_sites,
        s(st.sink_sites),
    );
    let n = st.declassifies.len();
    let ending = if n == 1 { "y" } else { "ies" };
    println!("declassify inventory ({n} boundar{ending}):");
    for d in &st.declassifies {
        println!("  {}:{} — {}", d.file, d.line, d.reason);
        for f in &d.flows {
            println!("    {f}");
        }
    }
    Ok(all.is_empty())
}
