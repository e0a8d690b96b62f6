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
use crate::taint::TaintStats;

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

/// Lints files on disk under explicit virtual paths, as one
/// workspace.
pub fn lint_files(pairs: &[(String, PathBuf)]) -> io::Result<Vec<Finding>> {
    let mut inputs = Vec::with_capacity(pairs.len());
    for (virt, real) in pairs {
        inputs.push((virt.clone(), fs::read_to_string(real)?));
    }
    Ok(lint_workspace(&inputs))
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
    let mut s = findings_array(findings, "");
    s.push('\n');
    s
}

/// Renders the `andi-lint taint` report as one JSON object: the
/// findings under `"findings"`, then the flow stats and the declassify
/// inventory with its sanctioned chains.
pub fn format_taint_json(findings: &[Finding], stats: &TaintStats) -> String {
    let mut s = format!(
        "{{\n  \"findings\": {},\n  \"sensitive_types\": {}, \"sensitive_members\": {}, \
         \"bearing_types\": {},\n  \"fns_analyzed\": {}, \"raw_returning_fns\": {}, \
         \"sink_sites\": {},\n  \"declassifies\": [\n",
        findings_array(findings, "  "),
        stats.sensitive_types.len(),
        stats.sensitive_members,
        stats.bearing_types.len(),
        stats.fns_analyzed,
        stats.raw_returning_fns,
        stats.sink_sites
    );
    for (i, d) in stats.declassifies.iter().enumerate() {
        let flows: Vec<String> = d.flows.iter().map(|f| json_str(f)).collect();
        s.push_str(&format!(
            "    {{\"file\": {}, \"line\": {}, \"reason\": {}, \"flows\": [{}]}}{}\n",
            json_str(&d.file),
            d.line,
            json_str(&d.reason),
            flows.join(", "),
            if i + 1 == stats.declassifies.len() {
                ""
            } else {
                ","
            }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// A JSON array of findings, one per line, each line and the closing
/// bracket indented by `indent`.
fn findings_array(findings: &[Finding], indent: &str) -> String {
    let mut s = String::from("[");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "\n{indent}  {{\"file\":{},\"line\":{},\"col\":{},\"rule\":{},\"message\":{}}}",
            json_str(&f.file),
            f.line,
            f.col,
            json_str(f.rule),
            json_str(&f.message)
        ));
    }
    if !findings.is_empty() {
        s.push('\n');
        s.push_str(indent);
    }
    s.push(']');
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
