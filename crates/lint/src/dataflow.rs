//! A small forward-dataflow (taint) engine over fn bodies, and the
//! three semantic rules built on it: `seed-provenance`,
//! `float-merge-order`, and `result-discard`.
//!
//! The engine is a single forward pass over a flat statement split of
//! the body token range: `let` bindings, plain and compound
//! assignments, and `for`-loop pattern bindings propagate taint from
//! any tainted identifier (or source call) on their right-hand side.
//! Locals are function-scoped (shadowing and block scopes are
//! flattened) and closure/match bodies are split like ordinary
//! statements — both are over-approximations that err toward
//! *propagating* taint, which for these rules means erring toward a
//! finding; the near-miss fixtures pin the idioms that must stay
//! clean.
//!
//! The cross-file leg rides on the call graph: a taint that flows
//! into a call argument is checked against the *callee's parsed
//! signature* (`seed`-named parameters), so a nondeterministic seed
//! cannot hide behind one level of indirection in another crate.

use std::collections::BTreeSet;

use crate::graph::{
    call_paren, matching, pattern_idents, split_args, split_let, CallGraph, SourceFile,
};
use crate::lexer::{Token, TokenKind};
use crate::rules::{for_loop_expr, in_lib_crate, loop_body_open, Finding};

/// Splits a body token range into flat statement segments at `;`,
/// `{`, and `}` (any depth except inside parens/brackets, so call
/// arguments stay whole).
pub(crate) fn statements(toks: &[Token], lo: usize, hi: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut depth = 0i64;
    let mut seg = lo;
    let hi = hi.min(toks.len());
    for (k, t) in toks.iter().enumerate().take(hi).skip(lo) {
        if t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            depth -= 1;
        } else if depth <= 0 && (t.is_punct(';') || t.is_punct('{') || t.is_punct('}')) {
            if seg < k {
                out.push((seg, k));
            }
            seg = k + 1;
        }
    }
    if seg < hi {
        out.push((seg, hi));
    }
    out
}

/// Whether any token in `[a, b)` is a tainted identifier or a source
/// position (per `is_source`).
fn range_tainted(
    toks: &[Token],
    (a, b): (usize, usize),
    tainted: &BTreeSet<String>,
    is_source: &dyn Fn(&[Token], usize) -> bool,
) -> bool {
    let b = b.min(toks.len());
    for k in a..b {
        let t = &toks[k];
        if t.kind == TokenKind::Ident && tainted.contains(&t.text) {
            return true;
        }
        if is_source(toks, k) {
            return true;
        }
    }
    false
}

/// One forward pass: seeds `tainted` with `init`, then propagates
/// through `let`/assignment/`for` statements in source order.
fn propagate(
    toks: &[Token],
    lo: usize,
    hi: usize,
    init: &[String],
    is_source: &dyn Fn(&[Token], usize) -> bool,
) -> BTreeSet<String> {
    let mut tainted: BTreeSet<String> = init.iter().cloned().collect();
    for (a, b) in statements(toks, lo, hi) {
        let seg = &toks[a..b.min(toks.len())];
        if seg.is_empty() {
            continue;
        }
        if seg[0].is_ident("let") {
            // `let [mut] <pat> [: Ty] = expr`: the pattern's idents
            // take the initializer's taint.
            let Some(parts) = split_let(toks, a, b) else {
                continue;
            };
            if range_tainted(toks, parts.rhs, &tainted, is_source) {
                tainted.extend(pattern_idents(toks, parts.pat).map(str::to_string));
            }
        } else if seg[0].is_ident("for") {
            // `for <pat> in expr` (body split off at `{`).
            let Some(pos) = seg.iter().position(|t| t.is_ident("in")) else {
                continue;
            };
            if range_tainted(toks, (a + pos + 1, b), &tainted, is_source) {
                tainted.extend(pattern_idents(toks, (a + 1, a + pos)).map(str::to_string));
            }
        } else if seg.len() >= 3 && seg[0].kind == TokenKind::Ident {
            // `name = expr` / `name op= expr`.
            let assign_at = if seg[1].is_punct('=') && !seg[2].is_punct('=') {
                Some(1)
            } else if seg.len() >= 4
                && seg[1].kind == TokenKind::Punct
                && seg[2].is_punct('=')
                && !seg[1].is_punct('=')
                && !seg[1].is_punct('!')
                && !seg[1].is_punct('<')
                && !seg[1].is_punct('>')
            {
                Some(2)
            } else {
                None
            };
            if let Some(eq) = assign_at {
                if range_tainted(toks, (a + eq + 1, b), &tainted, is_source) {
                    tainted.insert(seg[0].text.clone());
                }
            }
        }
    }
    tainted
}

/// Entropy / wall-clock sources that must never feed an RNG seed.
fn is_entropy_source(toks: &[Token], k: usize) -> bool {
    let t = &toks[k];
    if t.kind != TokenKind::Ident {
        return false;
    }
    if t.is_ident("OsRng") {
        return true;
    }
    matches!(
        t.text.as_str(),
        "thread_rng"
            | "from_entropy"
            | "from_os_rng"
            | "random"
            | "now"
            | "elapsed"
            | "available_parallelism"
            | "available_threads"
    ) && toks.get(k + 1).is_some_and(|n| n.is_punct('('))
}

/// RNG-seeding sinks checked within a single file.
const SEED_SINKS: &[&str] = &["seed_from_u64", "from_seed", "with_seed"];

/// Whether a callee parameter receives an RNG seed, by name.
fn is_seed_param(name: &str) -> bool {
    name == "seed" || name == "rng_seed" || name.ends_with("_seed")
}

/// `seed-provenance`: an RNG seed argument fed — through locals and
/// resolved calls — from a nondeterministic source instead of
/// config / `seed + index` derivation. Checked per non-test fn in
/// the lib crates; the cross-file leg maps tainted call arguments
/// onto `seed`-named parameters of resolved callees.
pub fn seed_provenance(files: &[SourceFile], g: &CallGraph) -> Vec<Finding> {
    let mut findings = Vec::new();
    for (u, f) in g.fns.iter().enumerate() {
        let sf = &files[f.file];
        if f.in_test || !in_lib_crate(&sf.path) {
            continue;
        }
        let Some((lo, hi)) = f.body else { continue };
        let toks = &sf.scan.tokens;
        let tainted = propagate(toks, lo, hi, &[], &is_entropy_source);

        // In-file sinks: `seed_from_u64(expr)` and friends.
        for k in lo..hi.min(toks.len()) {
            let t = &toks[k];
            if t.kind != TokenKind::Ident || !SEED_SINKS.contains(&t.text.as_str()) {
                continue;
            }
            let Some(paren) = call_paren(toks, k, hi) else {
                continue;
            };
            let close = matching(toks, paren, hi).unwrap_or(hi.min(toks.len()).saturating_sub(1));
            let args = split_args(toks, paren + 1, close);
            if args
                .iter()
                .any(|&r| range_tainted(toks, r, &tainted, &is_entropy_source))
            {
                findings.push(Finding {
                    file: sf.path.clone(),
                    line: t.line,
                    col: t.col,
                    rule: "seed-provenance",
                    message: format!(
                        "`{}` is fed from a nondeterministic source; seeds must derive \
                         from the run config (e.g. `seed + index`)",
                        t.text
                    ),
                });
            }
        }

        // Cross-file sinks: tainted argument into a `seed`-named
        // parameter of a resolved workspace fn.
        for c in g.calls_of(u) {
            let callee = &g.fns[c.callee];
            let params: &[crate::parser::Param] =
                if callee.params.first().is_some_and(|p| p.name == "self") {
                    &callee.params[1..]
                } else {
                    &callee.params
                };
            for (i, p) in params.iter().enumerate() {
                if !is_seed_param(&p.name) {
                    continue;
                }
                let Some(&arg) = c.args.get(i) else { continue };
                if range_tainted(toks, arg, &tainted, &is_entropy_source) {
                    findings.push(Finding {
                        file: sf.path.clone(),
                        line: c.line,
                        col: c.col,
                        rule: "seed-provenance",
                        message: format!(
                            "argument `{}` of `{}` is fed from a nondeterministic source; \
                             seeds must derive from the run config",
                            p.name,
                            callee.display(),
                        ),
                    });
                }
            }
        }
    }
    findings
}

/// Thread-count sources for `float-merge-order`.
fn is_thread_source(toks: &[Token], k: usize) -> bool {
    let t = &toks[k];
    t.kind == TokenKind::Ident
        && matches!(
            t.text.as_str(),
            "available_threads" | "available_parallelism"
        )
        && toks.get(k + 1).is_some_and(|n| n.is_punct('('))
}

/// Parameter names that carry a thread count.
fn is_thread_param(name: &str) -> bool {
    matches!(
        name,
        "threads" | "n_threads" | "num_threads" | "workers" | "n_workers"
    )
}

/// Whether a number token is a float literal.
fn is_float_literal(t: &Token) -> bool {
    t.kind == TokenKind::Number
        && (t.text.contains('.') || t.text.ends_with("f64") || t.text.ends_with("f32"))
}

/// `float-merge-order`: an `f64`/`f32` accumulation whose grouping
/// depends on the thread count. `par::map_indexed` output is
/// index-ordered and therefore safe to reduce — *unless* the task
/// count itself is thread-derived; `par::chunk_ranges` output is
/// thread-shaped whenever either argument is. Exact integer
/// accumulation over the same shapes is order-independent and stays
/// clean.
pub fn float_merge_order(files: &[SourceFile], g: &CallGraph) -> Vec<Finding> {
    let mut findings = Vec::new();
    for f in &g.fns {
        let sf = &files[f.file];
        let in_scope = (sf.path.starts_with("crates/core/src/")
            || sf.path.starts_with("crates/graph/src/"))
            && sf.path != "crates/graph/src/par.rs";
        if f.in_test || !in_scope {
            continue;
        }
        let Some((lo, hi)) = f.body else { continue };
        let toks = &sf.scan.tokens;

        // Layer 1: thread-count taint (params + ambient queries).
        let thread_init: Vec<String> = f
            .params
            .iter()
            .filter(|p| is_thread_param(&p.name))
            .map(|p| p.name.clone())
            .collect();
        let threads = propagate(toks, lo, hi, &thread_init, &is_thread_source);

        // Layer 2: chunk taint — values whose *shape* depends on the
        // thread count.
        let threads_for_source = threads.clone();
        let is_chunk_source = move |toks: &[Token], k: usize| -> bool {
            let t = &toks[k];
            if t.kind != TokenKind::Ident {
                return false;
            }
            let Some(paren) = call_paren(toks, k, toks.len()) else {
                return false;
            };
            let close = matching(toks, paren, toks.len()).unwrap_or(toks.len() - 1);
            let args = split_args(toks, paren + 1, close);
            let arg_threaded =
                |r: (usize, usize)| range_tainted(toks, r, &threads_for_source, &is_thread_source);
            match t.text.as_str() {
                // Chunk boundaries move with the thread count.
                "chunk_ranges" => args.iter().any(|&r| arg_threaded(r)),
                // Output is index-ordered; only a thread-derived task
                // count makes its shape thread-dependent (arg 0 is
                // scheduling only, by the par contract).
                "map_indexed" => args.get(1).is_some_and(|&r| arg_threaded(r)),
                _ => false,
            }
        };
        let chunked = propagate(toks, lo, hi, &[], &is_chunk_source);

        // Float locals (for `+=` accumulation detection).
        let mut float_locals: BTreeSet<String> = BTreeSet::new();
        for (a, b) in statements(toks, lo, hi) {
            let seg = &toks[a..b.min(toks.len())];
            if seg.first().is_some_and(|t| t.is_ident("let"))
                && seg
                    .iter()
                    .any(|t| is_float_literal(t) || t.is_ident("f64") || t.is_ident("f32"))
            {
                if let Some(parts) = split_let(toks, a, b) {
                    float_locals.extend(pattern_idents(toks, parts.pat).map(str::to_string));
                }
            }
        }

        // Flag float reductions over chunk-tainted values, one
        // finding per statement.
        for (a, b) in statements(toks, lo, hi) {
            let b = b.min(toks.len());
            if !range_tainted(toks, (a, b), &chunked, &is_chunk_source) {
                continue;
            }
            let seg = &toks[a..b];
            let mut site: Option<&Token> = None;
            for (k, t) in seg.iter().enumerate() {
                // `.sum::<f64>()` / `.product::<f32>()`.
                if (t.is_ident("sum") || t.is_ident("product"))
                    && k > 0
                    && seg[k - 1].is_punct('.')
                    && seg[k + 1..]
                        .iter()
                        .take(5)
                        .any(|n| n.is_ident("f64") || n.is_ident("f32"))
                {
                    site = Some(t);
                    break;
                }
                // `.fold(0.0, …)` / `.try_fold(0f64, …)`.
                if (t.is_ident("fold") || t.is_ident("try_fold"))
                    && k > 0
                    && seg[k - 1].is_punct('.')
                    && seg.get(k + 2).is_some_and(is_float_literal)
                {
                    site = Some(t);
                    break;
                }
                // `acc += chunked_value` with a float accumulator.
                if t.is_punct('+')
                    && seg.get(k + 1).is_some_and(|n| n.is_punct('='))
                    && k > 0
                    && seg[k - 1].kind == TokenKind::Ident
                    && float_locals.contains(&seg[k - 1].text)
                {
                    site = Some(&seg[k - 1]);
                    break;
                }
            }
            if let Some(t) = site {
                findings.push(Finding {
                    file: sf.path.clone(),
                    line: t.line,
                    col: t.col,
                    rule: "float-merge-order",
                    message: "float accumulation over a thread-shaped partition: the \
                              grouping (and so the rounding) changes with the thread \
                              count; accumulate exactly (integers/Kahan) or fix the \
                              chunk count"
                        .to_string(),
                });
            }
        }
    }
    findings
}

/// `result-discard`: the `Result` of a fallible workspace fn is
/// dropped — `let _ = fallible(…);` or a bare `fallible(…);`
/// statement — in non-test lib-crate code. `?`-propagated and
/// consumed results are fine.
pub fn result_discard(files: &[SourceFile], g: &CallGraph) -> Vec<Finding> {
    let mut findings = Vec::new();
    for c in &g.calls {
        let caller = &g.fns[c.caller];
        let sf = &files[caller.file];
        if caller.in_test || !in_lib_crate(&sf.path) {
            continue;
        }
        let callee = &g.fns[c.callee];
        if !callee.ret.contains("Result") {
            continue;
        }
        let toks = &sf.scan.tokens;
        let Some(paren) = call_paren(toks, c.tok, toks.len()) else {
            continue;
        };
        let close = matching(toks, paren, toks.len()).unwrap_or(toks.len() - 1);
        // The call's value must reach the end of the statement
        // unconsumed: next token is `;`.
        if !toks.get(close + 1).is_some_and(|t| t.is_punct(';')) {
            continue;
        }
        // Walk back over the path / simple receiver chain to the
        // start of the call expression.
        let mut s = c.tok;
        loop {
            if s >= 2 && toks[s - 1].is_punct('.') && toks[s - 2].kind == TokenKind::Ident {
                s -= 2;
            } else if s >= 3
                && toks[s - 1].is_punct(':')
                && toks[s - 2].is_punct(':')
                && toks[s - 3].kind == TokenKind::Ident
            {
                s -= 3;
            } else {
                break;
            }
        }
        if s == 0 {
            continue;
        }
        let prev = &toks[s - 1];
        let let_discard = prev.is_punct('=')
            && s >= 3
            && toks[s - 2].is_ident("_")
            && toks[s - 3].is_ident("let");
        let bare_discard = prev.is_punct(';') || prev.is_punct('{') || prev.is_punct('}');
        if let_discard || bare_discard {
            findings.push(Finding {
                file: sf.path.clone(),
                line: c.line,
                col: c.col,
                rule: "result-discard",
                message: format!(
                    "Result of fallible `{}` is discarded; handle it, propagate with \
                     `?`, or bind and check it",
                    callee.display(),
                ),
            });
        }
    }
    findings
}

/// A loop body longer than this many tokens counts as "long" — big
/// enough to clear every tight fold/update loop in the workspace,
/// small enough that an unpolled Gray-code walk or swap loop cannot
/// hide.
const LONG_LOOP_TOKENS: usize = 80;

/// Identifiers that witness a cancellation/budget poll (or a fault
/// probe, which only exists inside budgeted task bodies).
const POLL_IDENTS: &[&str] = &["check", "probe", "is_cancelled", "poll"];

/// Whether a `for` loop's iterated expression has a compile-time
/// constant trip count: every token is a number literal, a range
/// punct, parens, or an UPPER_SNAKE constant / const-generic name.
/// Such loops run a bounded, small number of iterations and are
/// exempt from the polling contract.
fn constant_trip(toks: &[Token], expr_lo: usize, expr_hi: usize) -> bool {
    let expr = &toks[expr_lo..expr_hi.min(toks.len())];
    !expr.is_empty()
        && expr.iter().all(|t| match t.kind {
            TokenKind::Number => true,
            TokenKind::Punct => matches!(t.text.as_str(), "." | "=" | "(" | ")"),
            TokenKind::Ident => {
                !t.text.is_empty() && !t.text.chars().any(|c| c.is_ascii_lowercase())
            }
            _ => false,
        })
}

/// `poll-reachability`: interprocedural budgeted-loop analysis.
///
/// The budgeted entry points are the non-test lib-crate fns with a
/// `Budget`- or `CancelToken`-typed parameter — the fns that *can*
/// poll. Every long loop with a non-constant trip count in such a fn
/// must reach a poll: either a `POLL_IDENTS` identifier directly in
/// its body, or a call site in its body whose callee *transitively*
/// polls (computed as a fixpoint over the whole call graph). Helpers
/// without budget access are checked at their call sites: a helper
/// that never polls contributes no credit, so a budgeted loop that
/// delegates all its work to pollless helpers is flagged at the loop
/// — the one place the fix (a `budget.check()?` per iteration) is
/// actually possible. Unlike its file-scoped predecessor
/// (`cancel-blind-loop`), a hot loop cannot dodge the contract by
/// moving to an unlisted file, and a loop that genuinely polls
/// through a helper chain needs no suppression.
pub fn poll_reachability(files: &[SourceFile], g: &CallGraph) -> Vec<Finding> {
    let n = g.fns.len();

    // The budgeted entry points: fns with the budget in scope.
    let mut budgeted = vec![false; n];
    for (u, f) in g.fns.iter().enumerate() {
        if f.in_test || f.body.is_none() || !in_lib_crate(&files[f.file].path) {
            continue;
        }
        budgeted[u] = f
            .params
            .iter()
            .any(|p| p.ty.contains("Budget") || p.ty.contains("CancelToken"));
    }

    // Which fns poll, directly or through a callee (fixpoint over the
    // call graph; edges propagate callee → caller).
    let mut polls = vec![false; n];
    for (u, f) in g.fns.iter().enumerate() {
        let Some((lo, hi)) = f.body else { continue };
        let toks = &files[f.file].scan.tokens;
        polls[u] = toks[lo..hi.min(toks.len())]
            .iter()
            .any(|t| t.kind == TokenKind::Ident && POLL_IDENTS.contains(&t.text.as_str()));
    }
    g.mark_callers(&mut polls);

    let mut findings = Vec::new();
    for (u, f) in g.fns.iter().enumerate() {
        if !budgeted[u] || f.in_test {
            continue;
        }
        let Some((lo, hi)) = f.body else { continue };
        let sf = &files[f.file];
        let toks = &sf.scan.tokens;
        let hi = hi.min(toks.len());
        for k in lo..hi {
            let t = &toks[k];
            if t.kind != TokenKind::Ident {
                continue;
            }
            let body_open = match t.text.as_str() {
                "loop" => toks
                    .get(k + 1)
                    .is_some_and(|n| n.is_punct('{'))
                    .then_some(k + 1),
                "while" => loop_body_open(toks, k),
                "for" => for_loop_expr(toks, k).map(|(_, brace)| brace),
                _ => None,
            };
            let Some(open) = body_open else { continue };
            let Some(close) = matching(toks, open, toks.len()) else {
                continue;
            };
            let body = &toks[open + 1..close];
            if body.len() <= LONG_LOOP_TOKENS {
                continue;
            }
            if t.is_ident("for") {
                if let Some((expr_lo, brace)) = for_loop_expr(toks, k) {
                    if constant_trip(toks, expr_lo, brace) {
                        continue;
                    }
                }
            }
            if body
                .iter()
                .any(|b| b.kind == TokenKind::Ident && POLL_IDENTS.contains(&b.text.as_str()))
            {
                continue;
            }
            if g.calls_of(u)
                .iter()
                .any(|c| c.tok > open && c.tok < close && polls[c.callee])
            {
                continue;
            }
            findings.push(Finding {
                file: sf.path.clone(),
                line: t.line,
                col: t.col,
                rule: "poll-reachability",
                message: format!(
                    "long `{}` body ({} tokens) in `{}` runs under a budget but never \
                     reaches a poll; call budget.check()? (directly or via a polling \
                     helper) so deadlines and cancellation keep working",
                    t.text,
                    body.len(),
                    f.display(),
                ),
            });
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{build, SourceFile};

    fn run(
        files: &[(&str, &str)],
        rule: fn(&[SourceFile], &CallGraph) -> Vec<Finding>,
    ) -> Vec<Finding> {
        let files: Vec<SourceFile> = files.iter().map(|(p, s)| SourceFile::new(p, s)).collect();
        let g = build(&files);
        rule(&files, &g)
    }

    #[test]
    fn seed_taint_flows_through_locals() {
        let f = run(
            &[(
                "crates/core/src/a.rs",
                "pub fn bad() {\n  let t = available_threads();\n  let s = t as u64;\n\
                 let rng = StdRng::seed_from_u64(s);\n}\n",
            )],
            seed_provenance,
        );
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "seed-provenance");
        assert_eq!(f[0].line, 4);
    }

    #[test]
    fn config_derived_seed_is_clean() {
        let f = run(
            &[(
                "crates/core/src/a.rs",
                "pub fn good(seed: u64, index: u64) {\n\
                 let s = seed.wrapping_add(index);\n\
                 let rng = StdRng::seed_from_u64(s);\n}\n",
            )],
            seed_provenance,
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn let_type_ascription_is_not_a_tainted_name() {
        // `usize` is `t`'s ascribed type, not a binding: the seed
        // derives from `seed` and `n` alone.
        let f = run(
            &[(
                "crates/core/src/a.rs",
                "pub fn f(seed: u64, n: usize) {\n\
                 let t: usize = available_threads();\n\
                 let s = seed ^ (n as usize as u64);\n\
                 let rng = StdRng::seed_from_u64(s);\n}\n",
            )],
            seed_provenance,
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn path_pattern_let_binds_its_inner_names() {
        // The second `:` of `Wrap::Seed` is not an ascription: `t`
        // is bound, and it carries the thread count into the seed.
        let f = run(
            &[(
                "crates/core/src/a.rs",
                "pub fn f() {\n\
                 let Wrap::Seed(t) = available_threads() else { return };\n\
                 let rng = StdRng::seed_from_u64(t as u64);\n}\n",
            )],
            seed_provenance,
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn seed_taint_crosses_files_via_params() {
        let f = run(
            &[
                (
                    "crates/core/src/caller.rs",
                    "pub fn bad() {\n  let t = available_threads() as u64;\n  make_rng(t);\n}\n",
                ),
                (
                    "crates/graph/src/rngs.rs",
                    "pub fn make_rng(seed: u64) -> u64 { seed }\n",
                ),
            ],
            seed_provenance,
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].file, "crates/core/src/caller.rs");
        assert!(f[0].message.contains("make_rng"));
    }

    #[test]
    fn thread_shaped_float_sum_is_flagged() {
        let f = run(
            &[(
                "crates/core/src/a.rs",
                "pub fn bad(threads: usize, xs: &[f64]) -> f64 {\n\
                 let ranges = chunk_ranges(xs.len(), threads * 8);\n\
                 let partials = compute(ranges);\n\
                 partials.iter().sum::<f64>()\n}\n\
                 fn compute(r: Vec<u64>) -> Vec<f64> { Vec::new() }\n",
            )],
            float_merge_order,
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "float-merge-order");
    }

    #[test]
    fn integer_fold_over_thread_chunks_is_clean() {
        let f = run(
            &[(
                "crates/core/src/a.rs",
                "pub fn good(threads: usize, xs: &[i64]) -> i64 {\n\
                 let ranges = chunk_ranges(xs.len(), threads * 8);\n\
                 let total = ranges.iter().try_fold(0i128, |a, r| Some(a)); 0\n}\n",
            )],
            float_merge_order,
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn fixed_chunk_count_float_sum_is_clean() {
        let f = run(
            &[(
                "crates/core/src/a.rs",
                "pub fn good(xs: &[f64]) -> f64 {\n\
                 let ranges = chunk_ranges(xs.len(), 64);\n\
                 let partials = compute(ranges);\n\
                 partials.iter().sum::<f64>()\n}\n\
                 fn compute(r: Vec<u64>) -> Vec<f64> { Vec::new() }\n",
            )],
            float_merge_order,
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn float_accumulator_over_chunked_partials_is_flagged() {
        let f = run(
            &[(
                "crates/core/src/a.rs",
                "pub fn bad(threads: usize, n: usize) -> f64 {\n\
                 let parts = map_indexed(threads, threads * 4);\n\
                 let mut total = 0.0;\n\
                 for p in parts { total += p; }\n  total\n}\n\
                 fn map_indexed(t: usize, n: usize) -> Vec<f64> { Vec::new() }\n",
            )],
            float_merge_order,
        );
        assert_eq!(f.len(), 1, "{f:?}");
    }

    #[test]
    fn map_indexed_with_fixed_task_count_is_clean() {
        let f = run(
            &[(
                "crates/core/src/a.rs",
                "pub fn good(threads: usize, n: usize) -> f64 {\n\
                 let parts = map_indexed(threads, n);\n\
                 parts.iter().sum::<f64>()\n}\n\
                 fn map_indexed(t: usize, n: usize) -> Vec<f64> { Vec::new() }\n",
            )],
            float_merge_order,
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn discarded_results_are_flagged() {
        let f = run(
            &[(
                "crates/core/src/a.rs",
                "pub fn bad() {\n  let _ = fallible(1);\n  fallible(2);\n}\n\
                 fn fallible(x: u32) -> Result<u32, String> { Ok(x) }\n",
            )],
            result_discard,
        );
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f.iter().all(|f| f.rule == "result-discard"));
    }

    #[test]
    fn propagated_and_bound_results_are_clean() {
        let f = run(
            &[(
                "crates/core/src/a.rs",
                "pub fn good() -> Result<u32, String> {\n\
                 let v = fallible(1)?;\n  let _ = fallible(2)?;\n\
                 let kept = fallible(3);\n  kept\n}\n\
                 fn fallible(x: u32) -> Result<u32, String> { Ok(x) }\n",
            )],
            result_discard,
        );
        assert!(f.is_empty(), "{f:?}");
    }

    // A loop body comfortably past LONG_LOOP_TOKENS: ~24 tokens per
    // statement line, repeated.
    fn long_body(stmts: usize) -> String {
        "a = a + b * c - d / e + f * g - h + i * j - k + l * m - n + o * p - q;\n".repeat(stmts)
    }

    #[test]
    fn budgeted_pollless_loop_is_flagged() {
        let src = format!(
            "pub fn run(budget: &Budget, n: usize) -> u64 {{\n\
             for i in 0..n {{\n{}}}\n 0\n}}\n",
            long_body(5)
        );
        let f = run(
            &[("crates/graph/src/a.rs", src.as_str())],
            poll_reachability,
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "poll-reachability");
        assert_eq!(f[0].line, 2);
    }

    #[test]
    fn loop_polling_through_helper_is_clean() {
        let src = format!(
            "pub fn run(budget: &Budget, n: usize) -> u64 {{\n\
             for i in 0..n {{\n step(budget);\n{}}}\n 0\n}}\n\
             fn step(budget: &Budget) {{ budget.check(); }}\n",
            long_body(5)
        );
        let f = run(
            &[("crates/graph/src/a.rs", src.as_str())],
            poll_reachability,
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn delegating_to_a_pollless_helper_earns_no_credit() {
        // The budgeted loop delegates all its work to a helper that
        // never polls — the loop is flagged (at the loop, where the
        // fix is possible), and the helper itself is not.
        let src = format!(
            "pub fn run(budget: &Budget, n: usize) -> u64 {{\n\
             for i in 0..n {{\n inner(i); inner(i + 1);\n{}}}\n 0\n}}\n\
             fn inner(n: usize) -> u64 {{ n * 3 }}\n",
            long_body(4)
        );
        let f = run(
            &[("crates/graph/src/a.rs", src.as_str())],
            poll_reachability,
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("run"), "{}", f[0].message);
        assert_eq!(f[0].line, 2);
    }

    #[test]
    fn polling_through_a_two_level_helper_chain_is_clean() {
        // poll credit is a fixpoint: the loop calls `outer`, which
        // polls only through `step` — two edges away.
        let src = format!(
            "pub fn run(budget: &Budget, n: usize) -> u64 {{\n\
             for i in 0..n {{\n outer(budget);\n{}}}\n 0\n}}\n\
             fn outer(budget: &Budget) {{ step(budget); }}\n\
             fn step(budget: &Budget) {{ budget.probe(); }}\n",
            long_body(5)
        );
        let f = run(
            &[("crates/graph/src/a.rs", src.as_str())],
            poll_reachability,
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn constant_trip_and_unbudgeted_loops_are_clean() {
        let constant = format!(
            "pub fn run(budget: &Budget) -> u64 {{\n\
             for i in 0..SMALL_N {{\n{}}}\n 0\n}}\n",
            long_body(5)
        );
        let unbudgeted = format!(
            "pub fn free(n: usize) -> u64 {{\n\
             for i in 0..n {{\n{}}}\n 0\n}}\n",
            long_body(5)
        );
        for src in [constant, unbudgeted] {
            let f = run(
                &[("crates/graph/src/a.rs", src.as_str())],
                poll_reachability,
            );
            assert!(f.is_empty(), "{f:?}");
        }
    }

    #[test]
    fn test_code_is_exempt_from_dataflow_rules() {
        let f = run(
            &[(
                "crates/core/src/a.rs",
                "#[cfg(test)]\nmod tests {\n  fn t() {\n    let _ = fallible(1);\n\
                 let s = available_threads() as u64;\n\
                 let r = StdRng::seed_from_u64(s);\n  }\n}\n\
                 pub(crate) fn fallible(x: u32) -> Result<u32, String> { Ok(x) }\n\
                 pub(crate) fn available_threads() -> usize { 1 }\n",
            )],
            seed_provenance,
        );
        assert!(f.is_empty(), "{f:?}");
    }
}
