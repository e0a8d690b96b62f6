//! Ties the layers together: the deterministic file walk, the
//! parser-derived test masks, the call-graph construction, pragma
//! suppression and hygiene, and the output formats.
//!
//! Linting is a *workspace* operation now: all files are scanned and
//! parsed first, the call graph is built over the whole set, the
//! token rules run per file and the semantic rules run globally, and
//! the combined findings are sorted by `(path, line, column, rule)` —
//! so the output is byte-identical regardless of the order files were
//! discovered or supplied in.

use std::collections::BTreeSet;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::graph::{build, SourceFile};
use crate::rules::{is_known_rule, run_rules, run_semantic_rules, Finding};

/// Lints a set of `(virtual path, source)` files as one workspace:
/// per-file token rules, cross-file semantic rules, pragma
/// suppression and hygiene. Findings come back sorted by
/// `(path, line, col, rule)` independent of the input order.
pub fn lint_workspace(inputs: &[(String, String)]) -> Vec<Finding> {
    // Deterministic file order regardless of how the caller
    // enumerated them.
    let mut inputs: Vec<&(String, String)> = inputs.iter().collect();
    inputs.sort_by(|a, b| a.0.cmp(&b.0));
    inputs.dedup_by(|a, b| a.0 == b.0);

    let files: Vec<SourceFile> = inputs
        .iter()
        .map(|(path, source)| SourceFile::new(path, source))
        .collect();
    lint_loaded(&files)
}

/// Lints already-loaded files, in the given order, as one workspace.
fn lint_loaded(files: &[SourceFile]) -> Vec<Finding> {
    // Per-file token rules, with the parser's real test mask.
    let mut findings = Vec::new();
    for sf in files {
        findings.extend(run_rules(&sf.path, &sf.scan.tokens, &sf.mask));
    }

    // Workspace semantic rules.
    let graph = build(files);
    let (semantic, cut_pragmas) = run_semantic_rules(files, &graph);
    findings.extend(semantic);

    // Contract-driven interval proofs. The `unchecked-width` and
    // `assume-soundness` findings are suppressible like any other
    // rule; contract *hygiene* (malformed, misplaced, or dead
    // contracts) is appended after the suppression pass below — a
    // broken contract can never be `andi::allow`'d away.
    let proved = crate::interval::prove(files, &graph);
    findings.extend(proved.findings);

    // Information-flow layer: leak findings are suppressible (though
    // the idiomatic sanction is `andi::declassify`, which the pass
    // applies internally); its pragma hygiene joins the contract
    // hygiene after the suppression pass.
    let taint = crate::taint::analyze(files, &graph);
    findings.extend(taint.findings);

    // Pragma suppression + hygiene, per file.
    for (fi, sf) in files.iter().enumerate() {
        let mut used = vec![false; sf.scan.pragmas.len()];
        // Mid-path pragmas that cut a reachability edge count as used
        // even though no finding reaches their line.
        for (pi, p) in sf.scan.pragmas.iter().enumerate() {
            if cut_pragmas.iter().any(|&(f, l)| f == fi && l == p.line) {
                used[pi] = true;
            }
        }
        // A pragma on the finding's line, or on the line directly
        // above it, suppresses that rule there.
        findings.retain(|f| {
            if f.file != sf.path {
                return true;
            }
            let mut suppressed = false;
            for (pi, p) in sf.scan.pragmas.iter().enumerate() {
                if p.rule == f.rule && (p.line == f.line || p.line + 1 == f.line) {
                    used[pi] = true;
                    suppressed = true;
                }
            }
            !suppressed
        });

        // Hygiene: a pragma must name a known rule and carry a
        // written reason; a well-formed pragma must suppress
        // something.
        for (pi, p) in sf.scan.pragmas.iter().enumerate() {
            if p.rule.is_empty() || !is_known_rule(&p.rule) {
                findings.push(Finding {
                    file: sf.path.clone(),
                    line: p.line,
                    col: 1,
                    rule: "invalid-pragma",
                    message: if p.rule.is_empty() {
                        "malformed pragma; expected `// andi::allow(<rule>) — <reason>`".to_string()
                    } else {
                        format!("pragma names unknown rule `{}`", p.rule)
                    },
                });
            } else if p.reason.is_empty() {
                findings.push(Finding {
                    file: sf.path.clone(),
                    line: p.line,
                    col: 1,
                    rule: "invalid-pragma",
                    message: format!(
                        "pragma for `{}` has no written justification; add `— <reason>`",
                        p.rule
                    ),
                });
            } else if !used[pi] {
                findings.push(Finding {
                    file: sf.path.clone(),
                    line: p.line,
                    col: 1,
                    rule: "unused-pragma",
                    message: format!("pragma for `{}` suppresses nothing; remove it", p.rule),
                });
            }
        }
    }

    // Contract and annotation hygiene land after suppression on
    // purpose: they are not suppressible.
    findings.extend(proved.hygiene);
    findings.extend(taint.hygiene);

    // Global deterministic order; name-collision over-approximation
    // in the call graph can produce identical duplicates — drop them.
    findings.sort_by(|a, b| {
        (&a.file, a.line, a.col, a.rule, &a.message)
            .cmp(&(&b.file, b.line, b.col, b.rule, &b.message))
    });
    findings.dedup();
    findings
}

/// Lints one file's source under its workspace-relative `path` (a
/// one-file workspace: cross-file resolution sees nothing else).
pub fn lint_source(path: &str, source: &str) -> Vec<Finding> {
    lint_workspace(&[(path.to_string(), source.to_string())])
}

/// Lints files on disk under explicit virtual paths, as one
/// workspace.
pub fn lint_files(pairs: &[(String, PathBuf)]) -> io::Result<Vec<Finding>> {
    let mut inputs = Vec::with_capacity(pairs.len());
    for (virt, real) in pairs {
        inputs.push((virt.clone(), fs::read_to_string(real)?));
    }
    Ok(lint_workspace(&inputs))
}

/// Lints a file on disk under an explicit virtual path.
pub fn lint_file(virtual_path: &str, real_path: &Path) -> io::Result<Vec<Finding>> {
    lint_files(&[(virtual_path.to_string(), real_path.to_path_buf())])
}

/// The workspace-relative in-scope `.rs` files under `root`: `src/`
/// of the root package and of each `crates/*` member, skipping
/// `vendor/`, `target/`, and per-crate `fixtures/`, `tests/`,
/// `benches/`, `examples/`. Sorted lexicographically.
pub fn tree_files(root: &Path) -> io::Result<Vec<(String, PathBuf)>> {
    let mut files: BTreeSet<PathBuf> = BTreeSet::new();
    collect_rs(&root.join("src"), &mut files)?;
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        for entry in fs::read_dir(&crates_dir)? {
            let member = entry?.path();
            if member.is_dir() {
                collect_rs(&member.join("src"), &mut files)?;
            }
        }
    }
    Ok(files
        .into_iter()
        .map(|file| {
            let rel = file
                .strip_prefix(root)
                .unwrap_or(&file)
                .to_string_lossy()
                .replace('\\', "/");
            (rel, file)
        })
        .collect())
}

/// Reads, scans and parses every in-scope file under `root`, in
/// [`tree_files`] order. Every whole-tree entry point below loads
/// through here.
fn load_tree(root: &Path) -> io::Result<Vec<SourceFile>> {
    tree_files(root)?
        .iter()
        .map(|(virt, real)| Ok(SourceFile::new(virt, &fs::read_to_string(real)?)))
        .collect()
}

/// Walks the workspace at `root` and lints every in-scope `.rs` file
/// as one workspace. Finding order is `(path, line, col, rule)`,
/// independent of filesystem order.
pub fn check_tree(root: &Path) -> io::Result<Vec<Finding>> {
    Ok(lint_loaded(&load_tree(root)?))
}

/// Runs only the interval prover over the tree at `root`: scans and
/// parses every in-scope file, builds the call graph, and
/// machine-checks the `andi::prove_no_overflow` regions. This is the
/// kernel-equivalence entry point — CI runs it next to the
/// differential tests so a kernel edit that breaks a width proof
/// fails the same job that exercises the kernel.
pub fn prove_tree(root: &Path) -> io::Result<crate::interval::Proved> {
    let files = load_tree(root)?;
    Ok(crate::interval::prove(&files, &build(&files)))
}

/// Runs only the information-flow layer over the tree at `root`:
/// scans and parses every in-scope file, builds the call graph, and
/// traces `andi::sensitive` sources to disclosure sinks. This is the
/// `andi-lint taint` entry point — CI gates on zero findings and
/// archives the flow stats as a reviewable artifact.
pub fn taint_tree(root: &Path) -> io::Result<crate::taint::TaintReport> {
    let files = load_tree(root)?;
    Ok(crate::taint::analyze(&files, &build(&files)))
}

/// Counts the active `andi::declassify` boundaries in the tree at
/// `root`. The burn-down test pins this as a decreasing ceiling —
/// the declassification inventory can only shrink without review.
pub fn count_declassifies(root: &Path) -> io::Result<usize> {
    Ok(load_tree(root)?
        .iter()
        .map(|sf| sf.scan.declassifies.len())
        .sum())
}

/// Counts the active suppression pragmas in the tree at `root` —
/// every `// andi::allow(…)` the lexer collects from walked files
/// (fixtures, vendored code, and docs that merely mention the
/// grammar are out of scope by construction). The burn-down test
/// pins this as a decreasing ceiling.
pub fn count_pragmas(root: &Path) -> io::Result<usize> {
    Ok(load_tree(root)?
        .iter()
        .map(|sf| sf.scan.pragmas.len())
        .sum())
}

/// Recursively collects `.rs` files under `dir` (if it exists).
fn collect_rs(dir: &Path, out: &mut BTreeSet<PathBuf>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.insert(path);
        }
    }
    Ok(())
}

/// Renders findings as human-readable lines.
pub fn format_human(findings: &[Finding]) -> String {
    let mut s = String::new();
    for f in findings {
        s.push_str(&format!(
            "{}:{}:{}: [{}] {}\n",
            f.file, f.line, f.col, f.rule, f.message
        ));
    }
    s.push_str(&format!(
        "andi-lint: {} finding{}\n",
        findings.len(),
        if findings.len() == 1 { "" } else { "s" }
    ));
    s
}

/// Renders findings as a JSON array (stable field order; no escapes
/// beyond the JSON-mandatory set).
pub fn format_json(findings: &[Finding]) -> String {
    let mut s = String::from("[");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "\n  {{\"file\":{},\"line\":{},\"col\":{},\"rule\":{},\"message\":{}}}",
            json_str(&f.file),
            f.line,
            f.col,
            json_str(f.rule),
            json_str(&f.message)
        ));
    }
    if !findings.is_empty() {
        s.push('\n');
    }
    s.push_str("]\n");
    s
}

/// Renders findings as a minimal SARIF 2.1.0 log (one run, one
/// driver). Field order is fixed and findings arrive pre-sorted from
/// [`lint_workspace`], so the output is byte-stable for a given
/// finding set regardless of input order. The rule catalogue embeds
/// only the rules that actually fired, keeping the log small and the
/// bytes independent of unrelated catalogue growth.
pub fn format_sarif(findings: &[Finding]) -> String {
    let mut fired: Vec<&'static str> = findings.iter().map(|f| f.rule).collect();
    fired.sort_unstable();
    fired.dedup();
    let mut s = String::from(
        "{\n  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n  \
         \"version\": \"2.1.0\",\n  \"runs\": [\n    {\n      \"tool\": {\n        \
         \"driver\": {\n          \"name\": \"andi-lint\",\n          \"rules\": [",
    );
    for (i, name) in fired.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let summary = crate::rules::RULES
            .iter()
            .find(|r| r.name == *name)
            .map(|r| r.summary)
            .unwrap_or("");
        s.push_str(&format!(
            "\n            {{\"id\":{},\"shortDescription\":{{\"text\":{}}}}}",
            json_str(name),
            json_str(summary)
        ));
    }
    if !fired.is_empty() {
        s.push_str("\n          ");
    }
    s.push_str("]\n        }\n      },\n      \"results\": [");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "\n        {{\"ruleId\":{},\"level\":\"error\",\"message\":{{\"text\":{}}},\
             \"locations\":[{{\"physicalLocation\":{{\"artifactLocation\":{{\"uri\":{}}},\
             \"region\":{{\"startLine\":{},\"startColumn\":{}}}}}}}]}}",
            json_str(f.rule),
            json_str(&f.message),
            json_str(&f.file),
            f.line,
            f.col
        ));
    }
    if !findings.is_empty() {
        s.push_str("\n      ");
    }
    s.push_str("]\n    }\n  ]\n}\n");
    s
}

fn json_str(v: &str) -> String {
    let mut s = String::with_capacity(v.len() + 2);
    s.push('"');
    for c in v.chars() {
        match c {
            '"' => s.push_str("\\\""),
            '\\' => s.push_str("\\\\"),
            '\n' => s.push_str("\\n"),
            '\r' => s.push_str("\\r"),
            '\t' => s.push_str("\\t"),
            c if (c as u32) < 0x20 => s.push_str(&format!("\\u{:04x}", c as u32)),
            c => s.push(c),
        }
    }
    s.push('"');
    s
}
