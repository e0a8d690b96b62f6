//! The rule catalogue: token-stream matchers plus the semantic
//! (call-graph / dataflow) rules.
//!
//! Every rule guards one leg of the workspace's headline guarantee —
//! reproducible risk numbers (see `DESIGN.md` §"Static-analysis
//! layer" and §"Semantic analysis layer"):
//!
//! | rule | invariant |
//! |------|-----------|
//! | `nondet-iteration` | no result-affecting iteration of `HashMap`/`HashSet` |
//! | `lib-unwrap` | no `unwrap`/`expect` panics reachable from library APIs |
//! | `wallclock-in-core` | no `Instant`/`SystemTime` outside `crates/bench` |
//! | `unseeded-rng` | no entropy-seeded RNG construction in core/graph |
//! | `thread-spawn-outside-par` | all threading goes through `andi_graph::par` |
//! | `panic-reachability` | no panic transitively reachable from a public API |
//! | `seed-provenance` | no RNG seed fed from a nondeterministic source |
//! | `float-merge-order` | no float merge whose grouping tracks the thread count |
//! | `result-discard` | no `Result` from a fallible workspace fn silently dropped |
//! | `poll-reachability` | no long budget-reachable loop that never reaches a poll |
//! | `unchecked-width` | every op in a proven region fits its type's width |
//! | `assume-soundness` | every `andi::assume` is backed by a runtime guard |
//! | `leak-to-log` | no sensitive data reaches a format/log/write sink undeclared |
//! | `leak-in-error` | no sensitive data flows into error payloads or error `Display` |
//! | `sensitive-debug` | no `Debug` on a sensitive type without declassification |
//!
//! Token matchers are heuristics over the token stream (there is no
//! type information), tuned to the idioms of this workspace: they
//! must flag every real violation class we have seen while never
//! flagging the fixture near-misses. The semantic rules run on the
//! parsed item trees and the workspace call graph ([`crate::graph`],
//! [`crate::dataflow`]). Paths are workspace-relative with `/`
//! separators; `#[cfg(test)]` / `#[test]` subtrees (real parser
//! scopes, not heuristics) are exempt from every rule — test code
//! may panic and may time things.

use crate::dataflow::{float_merge_order, poll_reachability, result_discard, seed_provenance};
use crate::graph::{panic_reachability, stmt_end, CallGraph, SourceFile};
use crate::lexer::{Token, TokenKind};

/// One reported violation.
#[derive(Clone, Debug, PartialEq)]
pub struct Finding {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based byte column.
    pub col: u32,
    /// Rule name (suppressible via `andi::allow(<rule>)`).
    pub rule: &'static str,
    /// Human-readable description of the violation.
    pub message: String,
}

/// Catalogue entry, surfaced by `andi-lint rules` and the docs.
pub struct RuleInfo {
    /// Stable rule name.
    pub name: &'static str,
    /// One-line description.
    pub summary: &'static str,
    /// Where the rule applies.
    pub scope: &'static str,
}

/// The rule catalogue.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        name: "nondet-iteration",
        summary: "iterating a HashMap/HashSet binding without a sort or BTree conversion",
        scope: "crates/{core,graph,mining,data}/src",
    },
    RuleInfo {
        name: "lib-unwrap",
        summary: "unwrap()/expect() (and *_err variants) in non-test library code",
        scope: "crates/{core,graph,mining,data}/src",
    },
    RuleInfo {
        name: "wallclock-in-core",
        summary: "Instant/SystemTime outside crates/bench",
        scope: "everything except crates/bench and crates/graph/src/par.rs (the Budget clock)",
    },
    RuleInfo {
        name: "unseeded-rng",
        summary: "entropy-seeded RNG construction (thread_rng/from_entropy/OsRng)",
        scope: "crates/{core,graph}/src",
    },
    RuleInfo {
        name: "thread-spawn-outside-par",
        summary: "raw std::thread/crossbeam use outside andi_graph::par",
        scope: "everything except crates/graph/src/{par,faults}.rs",
    },
    RuleInfo {
        name: "panic-reachability",
        summary: "panic site transitively reachable from a public API fn (shortest path)",
        scope: "crates/{core,graph,mining,data}/src",
    },
    RuleInfo {
        name: "seed-provenance",
        summary: "RNG seed fed from a nondeterministic source instead of run config",
        scope: "crates/{core,graph,mining,data}/src",
    },
    RuleInfo {
        name: "float-merge-order",
        summary: "float accumulation whose grouping depends on the thread count",
        scope: "crates/{core,graph}/src except par.rs",
    },
    RuleInfo {
        name: "result-discard",
        summary: "Result of a fallible workspace fn silently discarded",
        scope: "crates/{core,graph,mining,data}/src",
    },
    RuleInfo {
        name: "poll-reachability",
        summary: "long non-constant loop reachable from a budgeted entry point that \
                  never reaches a Budget/CancelToken poll, even through calls",
        scope: "crates/{core,graph,mining,data,oracle}/src",
    },
    RuleInfo {
        name: "unchecked-width",
        summary: "arithmetic op inside an andi::prove_no_overflow region whose interval \
                  is not provably within its type's width",
        scope: "everywhere a prove_no_overflow contract appears",
    },
    RuleInfo {
        name: "assume-soundness",
        summary: "andi::assume contract with no dominating runtime guard mentioning its \
                  free identifiers",
        scope: "everywhere an assume contract appears",
    },
    RuleInfo {
        name: "leak-to-log",
        summary: "sensitive data (andi::sensitive sources) reaching a format!/log/write \
                  sink without an andi::declassify boundary",
        scope: "every non-test fn body",
    },
    RuleInfo {
        name: "leak-in-error",
        summary: "sensitive data flowing into an Error constructor payload or an error \
                  Display body",
        scope: "every non-test fn body",
    },
    RuleInfo {
        name: "sensitive-debug",
        summary: "#[derive(Debug)] or manual Debug impl on an andi::sensitive type \
                  without declassification",
        scope: "every non-test type definition",
    },
    RuleInfo {
        name: "invalid-pragma",
        summary: "andi::allow/declassify/sensitive pragma without a rule name, target, \
                  or written justification",
        scope: "everywhere",
    },
    RuleInfo {
        name: "unused-pragma",
        summary: "andi::allow or andi::declassify pragma that suppresses/sanctions nothing",
        scope: "everywhere",
    },
];

/// Whether `name` is a known suppressible rule.
pub fn is_known_rule(name: &str) -> bool {
    RULES.iter().any(|r| r.name == name)
}

const LIB_CRATES: &[&str] = &[
    "crates/core/src/",
    "crates/graph/src/",
    "crates/mining/src/",
    "crates/data/src/",
    "crates/oracle/src/",
    "crates/serve/src/",
];

pub(crate) fn in_lib_crate(path: &str) -> bool {
    LIB_CRATES.iter().any(|p| path.starts_with(p))
}

/// Runs the semantic rules over the whole workspace: the call-graph
/// reachability analysis and the three dataflow rules. Returns the
/// findings plus `(file index, pragma line)` pairs for mid-path
/// pragmas that cut a reachability edge (the engine marks those
/// used).
pub fn run_semantic_rules(
    files: &[SourceFile],
    graph: &CallGraph,
) -> (Vec<Finding>, Vec<(usize, u32)>) {
    let (mut findings, used) = panic_reachability(files, graph);
    findings.extend(seed_provenance(files, graph));
    findings.extend(float_merge_order(files, graph));
    findings.extend(result_discard(files, graph));
    findings.extend(poll_reachability(files, graph));
    (findings, used)
}

/// Runs every applicable rule over one file's tokens. `is_test[i]`
/// marks tokens inside `#[cfg(test)]` / `#[test]` items.
pub fn run_rules(path: &str, tokens: &[Token], is_test: &[bool]) -> Vec<Finding> {
    let mut findings = Vec::new();
    if in_lib_crate(path) {
        nondet_iteration(path, tokens, is_test, &mut findings);
        lib_unwrap(path, tokens, is_test, &mut findings);
    }
    // par.rs hosts the Budget deadline clock — the one sanctioned
    // Instant in library code (results never depend on it: a deadline
    // only turns an answer into a structured BudgetExceeded).
    if !path.starts_with("crates/bench/") && path != "crates/graph/src/par.rs" {
        wallclock(path, tokens, is_test, &mut findings);
    }
    if path.starts_with("crates/core/src/") || path.starts_with("crates/graph/src/") {
        unseeded_rng(path, tokens, is_test, &mut findings);
    }
    // faults.rs injects delays via std::thread::sleep on the current
    // worker; it never spawns.
    if path != "crates/graph/src/par.rs" && path != "crates/graph/src/faults.rs" {
        thread_spawn(path, tokens, is_test, &mut findings);
    }
    findings
}

fn finding(path: &str, t: &Token, rule: &'static str, message: String) -> Finding {
    Finding {
        file: path.to_string(),
        line: t.line,
        col: t.col,
        rule,
        message,
    }
}

/// `lib-unwrap`: `.unwrap()`, `.expect(`, `.unwrap_err()`,
/// `.expect_err(` in non-test library code. Safe combinators
/// (`unwrap_or`, `unwrap_or_else`, …) do not match because the
/// identifier comparison is exact.
fn lib_unwrap(path: &str, tokens: &[Token], is_test: &[bool], out: &mut Vec<Finding>) {
    for i in 1..tokens.len() {
        if is_test[i] {
            continue;
        }
        let t = &tokens[i];
        if t.kind != TokenKind::Ident {
            continue;
        }
        if !matches!(
            t.text.as_str(),
            "unwrap" | "expect" | "unwrap_err" | "expect_err"
        ) {
            continue;
        }
        let preceded_by_dot = tokens[i - 1].is_punct('.');
        let followed_by_paren = tokens.get(i + 1).is_some_and(|n| n.is_punct('('));
        if preceded_by_dot && followed_by_paren {
            out.push(finding(
                path,
                t,
                "lib-unwrap",
                format!(
                    ".{}() can panic in library code; return a Result or prove safety \
                     with `// andi::allow(lib-unwrap) — <proof>`",
                    t.text
                ),
            ));
        }
    }
}

/// `wallclock-in-core`: any `Instant` / `SystemTime` identifier.
fn wallclock(path: &str, tokens: &[Token], is_test: &[bool], out: &mut Vec<Finding>) {
    for (i, t) in tokens.iter().enumerate() {
        if is_test[i] || t.kind != TokenKind::Ident {
            continue;
        }
        if matches!(t.text.as_str(), "Instant" | "SystemTime") {
            out.push(finding(
                path,
                t,
                "wallclock-in-core",
                format!(
                    "{} makes results depend on wall-clock time; timing belongs in crates/bench",
                    t.text
                ),
            ));
        }
    }
}

/// `unseeded-rng`: constructing an RNG from ambient entropy instead
/// of a caller-supplied seed.
fn unseeded_rng(path: &str, tokens: &[Token], is_test: &[bool], out: &mut Vec<Finding>) {
    for (i, t) in tokens.iter().enumerate() {
        if is_test[i] || t.kind != TokenKind::Ident {
            continue;
        }
        if matches!(
            t.text.as_str(),
            "thread_rng" | "from_entropy" | "from_os_rng" | "OsRng"
        ) {
            out.push(finding(
                path,
                t,
                "unseeded-rng",
                format!(
                    "{} draws ambient entropy; core/graph RNGs must take a caller-supplied seed",
                    t.text
                ),
            ));
        }
    }
}

/// `thread-spawn-outside-par`: `crossbeam` anywhere, `std::thread`
/// or `thread::spawn` sequences, outside `andi_graph::par`.
fn thread_spawn(path: &str, tokens: &[Token], is_test: &[bool], out: &mut Vec<Finding>) {
    for (i, t) in tokens.iter().enumerate() {
        if is_test[i] || t.kind != TokenKind::Ident {
            continue;
        }
        let hit = match t.text.as_str() {
            "crossbeam" => true,
            "std" => path_follows(tokens, i, "thread"),
            "thread" => path_follows(tokens, i, "spawn"),
            _ => false,
        };
        if hit {
            out.push(finding(
                path,
                t,
                "thread-spawn-outside-par",
                "raw threading bypasses the deterministic parallel layer; \
                 use andi_graph::par::map_indexed"
                    .to_string(),
            ));
        }
    }
}

/// Whether tokens `i+1..=i+3` spell `::<seg>`.
fn path_follows(tokens: &[Token], i: usize, seg: &str) -> bool {
    tokens.get(i + 1).is_some_and(|t| t.is_punct(':'))
        && tokens.get(i + 2).is_some_and(|t| t.is_punct(':'))
        && tokens.get(i + 3).is_some_and(|t| t.is_ident(seg))
}

/// Iteration methods whose order leaks into results.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "into_keys",
    "values",
    "values_mut",
    "into_values",
    "drain",
];

/// `nondet-iteration`: collect identifiers bound to `HashMap` /
/// `HashSet` (let bindings, struct fields, fn params — anything of
/// the shape `name: HashMap<…>` or `name = HashMap::new()`), then
/// flag `for … in` loops and iteration-method calls on them, unless
/// the same statement converts through a `BTreeMap`/`BTreeSet` or a
/// sort.
fn nondet_iteration(path: &str, tokens: &[Token], is_test: &[bool], out: &mut Vec<Finding>) {
    let mut hashy: Vec<String> = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if is_test[i] || !(t.is_ident("HashMap") || t.is_ident("HashSet")) {
            continue;
        }
        if let Some(name) = binding_name(tokens, i) {
            if !hashy.contains(&name) {
                hashy.push(name);
            }
        }
    }
    if hashy.is_empty() {
        return;
    }

    for (i, t) in tokens.iter().enumerate() {
        if is_test[i] {
            continue;
        }
        // `for <pat> in <expr> {`: flag a hashy identifier anywhere in
        // <expr>.
        if t.is_ident("for") {
            if let Some((expr_lo, expr_hi)) = for_loop_expr(tokens, i) {
                let segment = &tokens[expr_lo..expr_hi];
                if let Some(h) = segment
                    .iter()
                    .find(|t| t.kind == TokenKind::Ident && hashy.contains(&t.text))
                {
                    if !has_order_fix(segment) {
                        out.push(finding(
                            path,
                            h,
                            "nondet-iteration",
                            format!(
                                "iterating hash-ordered `{}`: order is nondeterministic; \
                                 use a BTree collection or sort first",
                                h.text
                            ),
                        ));
                    }
                }
                continue;
            }
        }
        // `<hashy>.iter()` and friends, outside a for-expr (the loop
        // case above already covers those tokens).
        if t.kind == TokenKind::Ident && hashy.contains(&t.text) {
            let is_iter_call = tokens.get(i + 1).is_some_and(|n| n.is_punct('.'))
                && tokens
                    .get(i + 2)
                    .is_some_and(|n| ITER_METHODS.contains(&n.text.as_str()))
                && tokens.get(i + 3).is_some_and(|n| n.is_punct('('));
            if is_iter_call && !in_for_expr(tokens, i) {
                let start = statement_start(tokens, i);
                let end = stmt_end(tokens, i, tokens.len());
                if !has_order_fix(&tokens[start..end]) {
                    out.push(finding(
                        path,
                        t,
                        "nondet-iteration",
                        format!(
                            "`{}.{}()` iterates in hash order; convert through a BTree \
                             collection or sort the result",
                            t.text,
                            tokens[i + 2].text
                        ),
                    ));
                }
            }
        }
    }
}

/// Whether a token segment contains an order-restoring operation.
fn has_order_fix(segment: &[Token]) -> bool {
    segment.iter().any(|t| {
        t.kind == TokenKind::Ident && (t.text.starts_with("BTree") || t.text.starts_with("sort"))
    })
}

/// For a `HashMap`/`HashSet` ident at `j`, resolves the name it is
/// bound to: `name: [&mut] [path::]HashMap<…>` or
/// `name = [path::]HashMap`.
fn binding_name(tokens: &[Token], j: usize) -> Option<String> {
    // Step over leading path segments (`std::collections::HashMap`).
    let mut k = j;
    while k >= 3
        && tokens[k - 1].is_punct(':')
        && tokens[k - 2].is_punct(':')
        && tokens[k - 3].kind == TokenKind::Ident
    {
        k -= 3;
    }
    // Step over reference sigils and mutability (`&mut HashMap`,
    // `&'a HashMap`) so borrowed parameters still resolve.
    while k >= 1
        && (tokens[k - 1].is_punct('&')
            || tokens[k - 1].is_ident("mut")
            || tokens[k - 1].kind == TokenKind::Lifetime)
    {
        k -= 1;
    }
    if k < 2 {
        return None;
    }
    let (prev, prev2) = (&tokens[k - 1], &tokens[k - 2]);
    let name_before_colon =
        prev.is_punct(':') && !prev2.is_punct(':') && prev2.kind == TokenKind::Ident;
    let name_before_eq = prev.is_punct('=')
        && prev2.kind == TokenKind::Ident
        && !matches!(prev2.text.as_str(), "if" | "while" | "return" | "else");
    if name_before_colon || name_before_eq {
        Some(prev2.text.clone())
    } else {
        None
    }
}

/// For a `for` keyword at `i`, the token range of the loop
/// expression: from after `in` to the body `{`.
pub(crate) fn for_loop_expr(tokens: &[Token], i: usize) -> Option<(usize, usize)> {
    let mut depth = 0i32;
    let mut in_at = None;
    for (k, t) in tokens.iter().enumerate().skip(i + 1).take(200) {
        match () {
            _ if t.is_punct('(') || t.is_punct('[') => depth += 1,
            _ if t.is_punct(')') || t.is_punct(']') => depth -= 1,
            _ if t.is_ident("in") && depth == 0 && in_at.is_none() => in_at = Some(k + 1),
            _ if t.is_punct('{') && depth == 0 => {
                return in_at.map(|lo| (lo, k));
            }
            _ => {}
        }
    }
    None
}

/// Whether token `i` lies inside some enclosing `for` expression
/// (between `in` and the body `{`).
fn in_for_expr(tokens: &[Token], i: usize) -> bool {
    let lo = i.saturating_sub(200);
    (lo..i)
        .filter(|&k| tokens[k].is_ident("for"))
        .any(|k| for_loop_expr(tokens, k).is_some_and(|(a, b)| a <= i && i < b))
}

/// Start of the statement containing token `i`: the token after the
/// previous `;`, `{`, or `}` at the same bracket depth (bounded
/// back-walk). Lets the neutralizer scan see a `BTreeMap` in a `let`
/// type annotation left of the receiver.
fn statement_start(tokens: &[Token], i: usize) -> usize {
    let mut depth = 0i32;
    let lo = i.saturating_sub(200);
    for k in (lo..i).rev() {
        let t = &tokens[k];
        if t.is_punct(')') || t.is_punct(']') {
            depth += 1;
        } else if t.is_punct('(') || t.is_punct('[') {
            if depth == 0 {
                return k + 1;
            }
            depth -= 1;
        } else if depth == 0 && (t.is_punct(';') || t.is_punct('{') || t.is_punct('}')) {
            return k + 1;
        }
    }
    lo
}
