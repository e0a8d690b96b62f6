//! Workspace call graph: links fn definitions to call sites across
//! all walked files, and runs the `panic-reachability` analysis on
//! top of it.
//!
//! This module is also the front end every analysis reads: call
//! sites by caller (`CallGraph::calls_of`), the callee→caller
//! fixpoint (`CallGraph::mark_callers`), struct-field tables,
//! delimiter matching (`matching`), body braces (`brace_after`),
//! statement ends (`stmt_end`), call arguments (`split_args`) and
//! `let` splitting (`split_let`). Two facts keep a second, differing
//! implementation outside this module: the taint layer's unique
//! callee at a call breaks ties by a `Type::` qualifier where
//! `CallGraph::resolve_unique` is strict, and the interval prover's
//! `pattern_names` binds only lowercase, non-path names where
//! `pattern_idents` keeps every identifier. DESIGN.md gives the
//! reasons.
//!
//! Resolution is name-based (there is no type information), tuned to
//! this workspace's idioms and deliberately *asymmetric* in its
//! approximation:
//!
//! * qualified calls (`par::map_indexed(…)`, `Type::new(…)`,
//!   `Self::helper(…)`) resolve through the path segment;
//! * unqualified free calls resolve to same-file fns first, then
//!   same-crate, then workspace-wide;
//! * method calls (`.restrict(…)`) resolve by name against every
//!   `impl`/`trait` fn in the workspace — except names on the
//!   `COMMON_METHODS` blocklist (std-colliding names like `len`,
//!   `get`, `insert`), which are never linked. That is an
//!   under-approximation for workspace methods that shadow std
//!   names; DESIGN.md documents the trade.
//!
//! Everything iterates in (file, token) order, so the graph — and
//! every analysis over it — is deterministic regardless of input
//! ordering upstream.

use std::collections::{BTreeMap, VecDeque};

use crate::lexer::{scan, Scan, Token, TokenKind};
use crate::parser::{parse, FileAst, Param, Vis};
use crate::rules::{in_lib_crate, Finding};

/// One scanned + parsed workspace file.
pub struct SourceFile {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// Token stream + pragmas.
    pub scan: Scan,
    /// Item tree.
    pub ast: FileAst,
    /// Per-token `#[cfg(test)]`/`#[test]` mask.
    pub mask: Vec<bool>,
}

impl SourceFile {
    /// Scans and parses one file.
    pub fn new(path: &str, source: &str) -> Self {
        let scanned = scan(source);
        let ast = parse(&scanned.tokens);
        let mask = ast.test_mask();
        SourceFile {
            path: path.to_string(),
            scan: scanned,
            ast,
            mask,
        }
    }
}

/// One fn definition anywhere in the workspace.
#[derive(Clone, Debug)]
pub struct FnNode {
    /// Index into the workspace file list.
    pub file: usize,
    /// Fn name.
    pub name: String,
    /// Enclosing `impl`/`trait` type name, if any.
    pub self_of: Option<String>,
    /// Visibility.
    pub vis: Vis,
    /// Whether the fn sits in a test subtree.
    pub in_test: bool,
    /// Definition site.
    pub line: u32,
    /// Definition column.
    pub col: u32,
    /// Body token range in the defining file, if the fn has one.
    pub body: Option<(usize, usize)>,
    /// Parsed parameters.
    pub params: Vec<Param>,
    /// Normalized return-type text.
    pub ret: String,
    /// Const generics in scope: the enclosing `impl`/`trait` header's
    /// (`impl<const N: usize> …`) followed by the fn's own. The
    /// interval prover seeds these into the abstract environment.
    pub consts: Vec<Param>,
}

impl FnNode {
    /// `Type::name` or bare `name`, for reports.
    pub fn display(&self) -> String {
        match &self.self_of {
            Some(t) => format!("{t}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// One resolved call site: `caller` invokes `callee`.
#[derive(Clone, Debug)]
pub struct CallSite {
    /// Calling fn (index into [`CallGraph::fns`]).
    pub caller: usize,
    /// Called fn (index into [`CallGraph::fns`]).
    pub callee: usize,
    /// Token index (caller's file) of the callee-name token.
    pub tok: usize,
    /// Call-site line in the caller's file.
    pub line: u32,
    /// Call-site column.
    pub col: u32,
    /// Token ranges (caller's file) of each top-level argument.
    pub args: Vec<(usize, usize)>,
}

/// One potential panic site inside a fn body.
#[derive(Clone, Debug)]
pub struct PanicSite {
    /// Containing fn (index into [`CallGraph::fns`]).
    pub func: usize,
    /// Site line.
    pub line: u32,
    /// Site column.
    pub col: u32,
    /// What panics: `unwrap`, `expect`, `panic!`, ….
    pub what: String,
}

/// One named struct field: `name: Ty` inside `struct S { … }`.
#[derive(Clone, Debug)]
pub(crate) struct Field {
    /// Defining file (index into the workspace file list).
    pub(crate) file: usize,
    /// Field name.
    pub(crate) name: String,
    /// Line of the field name.
    pub(crate) line: u32,
    /// Token range of the type, up to the next depth-0 `,`.
    pub(crate) ty: (usize, usize),
}

/// The workspace call graph, plus the struct-field table every
/// analysis reads.
pub struct CallGraph {
    /// Every fn definition, in (file, source) order.
    pub fns: Vec<FnNode>,
    /// Every resolved call site, in (caller, source) order.
    pub calls: Vec<CallSite>,
    /// Every panic site, in (fn, source) order.
    pub panics: Vec<PanicSite>,
    /// `calls[by_caller[u]..by_caller[u + 1]]` are the sites in fn
    /// `u`.
    by_caller: Vec<usize>,
    /// Named fields by struct name, in (file, source) order.
    pub(crate) fields: BTreeMap<String, Vec<Field>>,
}

impl CallGraph {
    /// The call sites inside fn `u`, in source order.
    pub(crate) fn calls_of(&self, u: usize) -> &[CallSite] {
        &self.calls[self.by_caller[u]..self.by_caller[u + 1]]
    }

    /// The unique callee resolved for the call whose name token sits
    /// at `tok` inside `caller`, or `None` when the site is unlinked
    /// or ambiguous. The interval prover only trusts unambiguous
    /// edges for return-interval propagation.
    pub fn resolve_unique(&self, caller: usize, tok: usize) -> Option<usize> {
        let mut at_tok = self.calls_of(caller).iter().filter(|c| c.tok == tok);
        match (at_tok.next(), at_tok.next()) {
            (Some(c), None) => Some(c.callee),
            _ => None,
        }
    }

    /// Marks every fn that reaches a marked fn through calls: a caller
    /// is marked once any of its callees is (least fixpoint).
    pub(crate) fn mark_callers(&self, marked: &mut [bool]) {
        let mut changed = true;
        while changed {
            changed = false;
            for c in &self.calls {
                if marked[c.callee] && !marked[c.caller] {
                    marked[c.caller] = true;
                    changed = true;
                }
            }
        }
    }
}

/// Method names that collide with std types; method calls through
/// these are never linked (a workspace method shadowing one of them
/// goes unlinked — an accepted under-approximation).
const COMMON_METHODS: &[&str] = &[
    "new",
    "default",
    "clone",
    "len",
    "is_empty",
    "get",
    "get_mut",
    "insert",
    "remove",
    "push",
    "pop",
    "iter",
    "iter_mut",
    "into_iter",
    "next",
    "fmt",
    "from",
    "into",
    "eq",
    "cmp",
    "hash",
    "drop",
    "index",
    "deref",
    "take",
    "swap",
    "extend",
    "contains",
    "clear",
    "min",
    "max",
    "abs",
    "map",
    "find",
    "last",
    "count",
    "get_or_insert_with",
];

/// Rust keywords and call-shaped builtins that never name a
/// workspace fn.
fn is_call_keyword(s: &str) -> bool {
    matches!(
        s,
        "if" | "else"
            | "while"
            | "for"
            | "loop"
            | "match"
            | "return"
            | "break"
            | "continue"
            | "let"
            | "move"
            | "Some"
            | "None"
            | "Ok"
            | "Err"
            | "Box"
            | "Vec"
            | "String"
            | "await"
    )
}

/// The crate prefix of a workspace path (`crates/core/src/x.rs` →
/// `crates/core`), or the leading directory otherwise.
fn crate_of(path: &str) -> &str {
    if let Some(rest) = path.strip_prefix("crates/") {
        let end = rest.find('/').map_or(rest.len(), |i| 7 + i);
        &path[..end]
    } else {
        path.split('/').next().unwrap_or(path)
    }
}

/// Builds the workspace call graph over the given files.
pub fn build(files: &[SourceFile]) -> CallGraph {
    // Collect fn nodes in deterministic (file, source) order,
    // carrying enclosing impl/trait const generics down to each fn.
    let mut fns: Vec<FnNode> = Vec::new();
    fn collect(
        items: &[crate::parser::Item],
        fi: usize,
        inherited: &[Param],
        fns: &mut Vec<FnNode>,
    ) {
        for it in items {
            if it.kind == crate::parser::ItemKind::Fn {
                let mut consts = inherited.to_vec();
                consts.extend(it.consts.iter().cloned());
                fns.push(FnNode {
                    file: fi,
                    name: it.name.clone(),
                    self_of: it.self_of.clone(),
                    vis: it.vis,
                    in_test: it.in_test,
                    line: it.line,
                    col: it.col,
                    body: it.body,
                    params: it.params.clone(),
                    ret: it.ret.clone(),
                    consts,
                });
            }
            if it.children.is_empty() {
                continue;
            }
            if it.consts.is_empty() {
                collect(&it.children, fi, inherited, fns);
            } else {
                let mut inh = inherited.to_vec();
                inh.extend(it.consts.iter().cloned());
                collect(&it.children, fi, &inh, fns);
            }
        }
    }
    for (fi, sf) in files.iter().enumerate() {
        collect(&sf.ast.items, fi, &[], &mut fns);
    }

    // Name indexes (BTreeMap: deterministic candidate order).
    let mut free: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    let mut methods: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    let mut assoc: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
    for (i, f) in fns.iter().enumerate() {
        match &f.self_of {
            Some(t) => {
                methods.entry(&f.name).or_default().push(i);
                assoc.entry((t, &f.name)).or_default().push(i);
            }
            None => free.entry(&f.name).or_default().push(i),
        }
    }

    let mut calls = Vec::new();
    let mut panics = Vec::new();
    for (u, node) in fns.iter().enumerate() {
        let Some((lo, hi)) = node.body else { continue };
        let sf = &files[node.file];
        let toks = &sf.scan.tokens;
        let hi = hi.min(toks.len());
        for k in lo..hi {
            let t = &toks[k];
            if t.kind != TokenKind::Ident {
                continue;
            }
            // Panic sites: `.unwrap()` family and panic macros.
            let after_dot = k > 0 && toks[k - 1].is_punct('.');
            if after_dot
                && matches!(
                    t.text.as_str(),
                    "unwrap" | "expect" | "unwrap_err" | "expect_err"
                )
                && toks.get(k + 1).is_some_and(|n| n.is_punct('('))
            {
                panics.push(PanicSite {
                    func: u,
                    line: t.line,
                    col: t.col,
                    what: format!(".{}()", t.text),
                });
                continue;
            }
            if matches!(
                t.text.as_str(),
                "panic" | "unreachable" | "todo" | "unimplemented"
            ) && toks.get(k + 1).is_some_and(|n| n.is_punct('!'))
            {
                panics.push(PanicSite {
                    func: u,
                    line: t.line,
                    col: t.col,
                    what: format!("{}!", t.text),
                });
                continue;
            }

            // Call sites: `name(` possibly with a `::<…>` turbofish.
            let Some(paren) = call_paren(toks, k, hi) else {
                continue;
            };
            if is_call_keyword(&t.text) {
                continue;
            }
            let name = t.text.as_str();
            let qualified = k >= 2 && toks[k - 1].is_punct(':') && toks[k - 2].is_punct(':');
            let candidates: Vec<usize> = if after_dot {
                // Method call: name-only, blocklist guarded.
                if COMMON_METHODS.contains(&name) {
                    Vec::new()
                } else {
                    methods.get(name).cloned().unwrap_or_default()
                }
            } else if qualified {
                let q = (k >= 3)
                    .then(|| &toks[k - 3])
                    .filter(|q| q.kind == TokenKind::Ident);
                match q.map(|q| q.text.as_str()) {
                    Some("Self") => node
                        .self_of
                        .as_deref()
                        .and_then(|t| assoc.get(&(t, name)).cloned())
                        .unwrap_or_default(),
                    Some(q) => {
                        if let Some(v) = assoc.get(&(q, name)) {
                            // `Type::assoc_fn(…)`.
                            v.clone()
                        } else if q
                            .chars()
                            .next()
                            .is_some_and(|c| c.is_lowercase() || c == '_')
                        {
                            // Module-qualified free fn (`par::map_indexed`).
                            narrow(&fns, files, node, free.get(name))
                        } else {
                            // Foreign type (`Ordering::Less(…)` etc.).
                            Vec::new()
                        }
                    }
                    None => Vec::new(),
                }
            } else {
                // Unqualified free call.
                if COMMON_METHODS.contains(&name) {
                    Vec::new()
                } else {
                    narrow(&fns, files, node, free.get(name))
                }
            };

            if candidates.is_empty() {
                continue;
            }
            let close = matching(toks, paren, hi).unwrap_or(hi.saturating_sub(1));
            let args = split_args(toks, paren + 1, close);
            for v in candidates {
                if v == u {
                    continue; // self-recursion adds nothing
                }
                calls.push(CallSite {
                    caller: u,
                    callee: v,
                    tok: k,
                    line: t.line,
                    col: t.col,
                    args: args.clone(),
                });
            }
        }
    }

    let mut by_caller = vec![0; fns.len() + 1];
    for c in &calls {
        by_caller[c.caller + 1] += 1;
    }
    for u in 0..fns.len() {
        by_caller[u + 1] += by_caller[u];
    }
    CallGraph {
        fns,
        calls,
        panics,
        by_caller,
        fields: struct_fields(files),
    }
}

/// Collects `struct Name { field: Ty, … }` field tables across the
/// workspace (token-level: the parser does not model fields). Tuple
/// and unit structs have no named fields.
fn struct_fields(files: &[SourceFile]) -> BTreeMap<String, Vec<Field>> {
    let mut out: BTreeMap<String, Vec<Field>> = BTreeMap::new();
    for (fi, sf) in files.iter().enumerate() {
        let toks = &sf.scan.tokens;
        for k in 0..toks.len() {
            if !toks[k].is_ident("struct")
                || toks.get(k + 1).is_none_or(|n| n.kind != TokenKind::Ident)
            {
                continue;
            }
            // The body brace at depth 0, past any generics header.
            let mut open = None;
            let mut depth = 0i64;
            for (j, t) in toks.iter().enumerate().skip(k + 1) {
                if t.is_punct('<') || t.is_punct('(') {
                    depth += 1;
                } else if t.is_punct('>') || t.is_punct(')') {
                    depth -= 1;
                } else if t.is_punct(';') && depth <= 0 {
                    break;
                } else if t.is_punct('{') && depth <= 0 {
                    open = Some(j);
                    break;
                }
            }
            let Some(open) = open else { continue };
            let close = matching(toks, open, toks.len()).unwrap_or(toks.len());
            // `ident : ty` pairs; a type runs to the next depth-0 `,`.
            let mut m = open + 1;
            while m + 1 < close {
                if toks[m].kind != TokenKind::Ident || !toks[m + 1].is_punct(':') {
                    m += 1;
                    continue;
                }
                let mut d = 0i64;
                let mut e = m + 2;
                while e < close {
                    let u = &toks[e];
                    if u.is_punct('<') || u.is_punct('(') || u.is_punct('[') {
                        d += 1;
                    } else if u.is_punct('>') || u.is_punct(')') || u.is_punct(']') {
                        d -= 1;
                    } else if u.is_punct(',') && d <= 0 {
                        break;
                    }
                    e += 1;
                }
                out.entry(toks[k + 1].text.clone())
                    .or_default()
                    .push(Field {
                        file: fi,
                        name: toks[m].text.clone(),
                        line: toks[m].line,
                        ty: (m + 2, e),
                    });
                m = e + 1;
            }
        }
    }
    out
}

/// Narrows free-fn candidates: same file beats same crate beats
/// workspace-wide (over-approximating only when nothing closer
/// matches).
fn narrow(
    fns: &[FnNode],
    files: &[SourceFile],
    caller: &FnNode,
    cands: Option<&Vec<usize>>,
) -> Vec<usize> {
    let Some(cands) = cands else {
        return Vec::new();
    };
    let same_file: Vec<usize> = cands
        .iter()
        .copied()
        .filter(|&v| fns[v].file == caller.file)
        .collect();
    if !same_file.is_empty() {
        return same_file;
    }
    let cc = crate_of(&files[caller.file].path);
    let same_crate: Vec<usize> = cands
        .iter()
        .copied()
        .filter(|&v| crate_of(&files[fns[v].file].path) == cc)
        .collect();
    if !same_crate.is_empty() {
        return same_crate;
    }
    cands.clone()
}

/// If token `k` is the callee name of a call, the index of its `(`
/// (handling a `::<…>` turbofish between name and paren).
pub(crate) fn call_paren(toks: &[Token], k: usize, hi: usize) -> Option<usize> {
    let n1 = toks.get(k + 1)?;
    if n1.is_punct('(') {
        return Some(k + 1);
    }
    // Turbofish: `name::<T>(…)`.
    if n1.is_punct(':')
        && toks.get(k + 2).is_some_and(|t| t.is_punct(':'))
        && toks.get(k + 3).is_some_and(|t| t.is_punct('<'))
    {
        let mut depth = 0i64;
        for (j, t) in toks.iter().enumerate().take(hi).skip(k + 3) {
            if t.is_punct('<') {
                depth += 1;
            } else if t.is_punct('>') {
                depth -= 1;
                if depth == 0 {
                    return toks.get(j + 1).filter(|t| t.is_punct('(')).map(|_| j + 1);
                }
            }
        }
    }
    None
}

/// Index of the delimiter closing the `(`, `[` or `{` at `open`,
/// searching before `hi` and counting only that delimiter kind, or
/// `None` when `open` holds no opener or it is unclosed before `hi`.
/// Callers pick their own fallback for unbalanced input.
pub(crate) fn matching(toks: &[Token], open: usize, hi: usize) -> Option<usize> {
    let opener = toks.get(open).filter(|t| t.kind == TokenKind::Punct)?;
    let (oc, cc) = match opener.text.as_str() {
        "(" => ("(", ")"),
        "[" => ("[", "]"),
        "{" => ("{", "}"),
        _ => return None,
    };
    let mut depth = 0i64;
    for (j, t) in toks.iter().enumerate().take(hi).skip(open) {
        if t.kind != TokenKind::Punct {
            continue;
        }
        if t.text == oc {
            depth += 1;
        } else if t.text == cc {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

/// Index of the first `{` in `[from, hi)` outside parens and
/// brackets: the body brace after an `if`/`while`/`for`/`match`
/// header (closures and index expressions in the header are skipped).
pub(crate) fn brace_after(toks: &[Token], from: usize, hi: usize) -> Option<usize> {
    let mut depth = 0i64;
    for (j, t) in toks.iter().enumerate().take(hi).skip(from) {
        if t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            depth -= 1;
        } else if depth <= 0 && t.is_punct('{') {
            return Some(j);
        }
    }
    None
}

/// End (exclusive) of the statement starting at `from`: the first
/// `;` outside brackets, or the closing bracket that leaves the
/// statement's own depth; `hi` when neither comes before `hi`.
pub(crate) fn stmt_end(toks: &[Token], from: usize, hi: usize) -> usize {
    let mut depth = 0i64;
    for (j, t) in toks.iter().enumerate().take(hi).skip(from) {
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth -= 1;
            if depth < 0 {
                return j;
            }
        } else if depth == 0 && t.is_punct(';') {
            return j;
        }
    }
    hi
}

/// A `let` statement split into half-open token ranges.
pub(crate) struct LetParts {
    /// The binding pattern, after `let`.
    pub(crate) pat: (usize, usize),
    /// The type ascription after a top-level `:`, if any.
    pub(crate) ty: Option<(usize, usize)>,
    /// The initializer, up to a top-level `else` (`let … else`).
    pub(crate) rhs: (usize, usize),
}

/// Splits `let [mut] <pat> [: ty] = <rhs> [else { … }]` with `let` at
/// `k` and the statement ending before `end`. Both split points lie
/// outside brackets: the ascription is the first lone `:` (not half
/// of a `::` path separator), and the initializer starts after the
/// first plain assignment `=` (not `==`, `<=`, `=>` or a compound
/// `+=`). `None` without an initializer.
pub(crate) fn split_let(toks: &[Token], k: usize, end: usize) -> Option<LetParts> {
    let end = end.min(toks.len());
    let mut colon = None;
    let mut eq = None;
    let mut d = 0i64;
    for j in k + 1..end {
        let t = &toks[j];
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('<') || t.is_punct('{') {
            d += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('>') || t.is_punct('}') {
            d -= 1;
        } else if d <= 0 && t.is_punct(':') && !in_path_sep(toks, j) {
            colon = colon.or(Some(j));
        } else if d <= 0 && is_plain_assign(toks, j) {
            eq = Some(j);
            break;
        }
    }
    let eq = eq?;
    let mut rhs_hi = end;
    let mut d = 0i64;
    for (j, t) in toks.iter().enumerate().take(end).skip(eq + 1) {
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            d += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            d -= 1;
        } else if d <= 0 && t.is_ident("else") {
            rhs_hi = j;
            break;
        }
    }
    Some(LetParts {
        pat: (k + 1, colon.unwrap_or(eq)),
        ty: colon.map(|c| (c + 1, eq)),
        rhs: (eq + 1, rhs_hi),
    })
}

/// Whether the `:` at `j` is half of a `::` path separator, which the
/// lexer emits as two touching `:` tokens.
fn in_path_sep(toks: &[Token], j: usize) -> bool {
    let t = &toks[j];
    toks.get(j + 1)
        .is_some_and(|n| n.is_punct(':') && adjacent(t, n))
        || j.checked_sub(1)
            .is_some_and(|i| toks[i].is_punct(':') && adjacent(&toks[i], t))
}

/// The names a `let` or `for` pattern in `[lo, hi)` may bind: every
/// identifier but `mut` and `ref`, constructor and path names
/// included (an over-approximation).
pub(crate) fn pattern_idents(
    toks: &[Token],
    (lo, hi): (usize, usize),
) -> impl Iterator<Item = &str> {
    toks[lo..hi]
        .iter()
        .filter(|t| t.kind == TokenKind::Ident && !t.is_ident("mut") && !t.is_ident("ref"))
        .map(|t| t.text.as_str())
}

/// Whether tokens `a` and `b` touch (no whitespace between them).
pub(crate) fn adjacent(a: &Token, b: &Token) -> bool {
    a.start + a.len == b.start
}

/// Whether the `=` at `j` is an assignment (not `==`, `<=`, `>=`,
/// `!=`, `=>`, `..=`, or part of a compound `op=` — compound forms
/// are still assignments, so only comparison/arrow shapes reject).
pub(crate) fn is_assign_eq(toks: &[Token], j: usize) -> bool {
    let t = &toks[j];
    if !t.is_punct('=') {
        return false;
    }
    if let Some(n) = toks.get(j + 1) {
        if adjacent(t, n) && (n.is_punct('=') || n.is_punct('>')) {
            return false; // `==` or `=>`
        }
    }
    if j > 0 {
        let p = &toks[j - 1];
        if adjacent(p, t) {
            if p.is_punct('=') || p.is_punct('!') {
                return false; // `==` tail or `!=`
            }
            if p.is_punct('.') {
                return false; // `..=`
            }
            if p.is_punct('<') || p.is_punct('>') {
                // `<=`/`>=` unless it is `<<=`/`>>=`.
                let double = j >= 2 && adjacent(&toks[j - 2], p) && toks[j - 2].text == p.text;
                return double;
            }
        }
    }
    true
}

/// Whether the `=` at `j` is a *plain* assignment (no compound op).
fn is_plain_assign(toks: &[Token], j: usize) -> bool {
    if !is_assign_eq(toks, j) {
        return false;
    }
    if j == 0 {
        return true;
    }
    let p = &toks[j - 1];
    !(adjacent(p, &toks[j])
        && (p.is_punct('+')
            || p.is_punct('-')
            || p.is_punct('*')
            || p.is_punct('/')
            || p.is_punct('%')
            || p.is_punct('&')
            || p.is_punct('|')
            || p.is_punct('^')
            || p.is_punct('<')
            || p.is_punct('>')))
}

/// Splits `(lo..hi)` (exclusive of the parens) into top-level
/// argument token ranges.
pub(crate) fn split_args(toks: &[Token], lo: usize, hi: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut depth = 0i64;
    let mut seg = lo;
    for (k, t) in toks.iter().enumerate().take(hi.min(toks.len())).skip(lo) {
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth -= 1;
        } else if t.is_punct(',') && depth == 0 {
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

/// Whether a pragma for `rule` (with a written reason) covers `line`
/// in the given file — on the line itself or the line directly above.
fn pragma_covers(sf: &SourceFile, rule: &str, line: u32) -> Option<u32> {
    sf.scan
        .pragmas
        .iter()
        .find(|p| p.rule == rule && !p.reason.is_empty() && (p.line == line || p.line + 1 == line))
        .map(|p| p.line)
}

/// The `panic-reachability` analysis: a panic site transitively
/// reachable from a public API fn in a lib crate, with no
/// justification pragma anywhere on the path, is reported *at the
/// panic site* with the shortest call path from the nearest public
/// root.
///
/// Justifications cut the search in two places:
/// * a `lib-unwrap` or `panic-reachability` pragma at the panic site
///   proves the site safe — it is excluded up front (`lib-unwrap`
///   pragmas are consumed by the token rule; site-level
///   `panic-reachability` pragmas are returned as used);
/// * a `panic-reachability` pragma at a *call site* vouches for the
///   whole subtree behind that edge — the edge is cut, and the
///   pragma counts as used iff the callee actually reaches a panic.
///
/// Returns the findings plus `(file index, pragma line)` pairs for
/// mid-path pragmas the engine must mark used.
pub fn panic_reachability(
    files: &[SourceFile],
    g: &CallGraph,
) -> (Vec<Finding>, Vec<(usize, u32)>) {
    let n = g.fns.len();
    let mut used: Vec<(usize, u32)> = Vec::new();

    // Live panic sites: in lib crates, outside tests, not proven
    // safe at the site.
    let mut live: Vec<&PanicSite> = Vec::new();
    for p in &g.panics {
        let f = &g.fns[p.func];
        if f.in_test || !in_lib_crate(&files[f.file].path) {
            continue;
        }
        let sf = &files[f.file];
        if pragma_covers(sf, "lib-unwrap", p.line).is_some() {
            continue; // the unwrap itself is justified; so is reaching it
        }
        live.push(p);
    }

    // Which fns transitively reach a live panic (over ALL edges):
    // used to decide whether a cut-edge pragma actually suppressed
    // anything.
    let mut reaches_panic = vec![false; n];
    for p in &live {
        reaches_panic[p.func] = true;
    }
    g.mark_callers(&mut reaches_panic);

    // Partition edges: cut (pragma'd call sites) vs. traversable.
    let mut adj: Vec<Vec<&CallSite>> = vec![Vec::new(); n];
    for c in &g.calls {
        let caller = &g.fns[c.caller];
        if caller.in_test || g.fns[c.callee].in_test {
            continue;
        }
        let sf = &files[caller.file];
        if let Some(pline) = pragma_covers(sf, "panic-reachability", c.line) {
            if reaches_panic[c.callee] {
                used.push((caller.file, pline));
            }
            continue;
        }
        adj[c.caller].push(c);
    }

    // Multi-source BFS from public roots; first visit = shortest
    // hop path (deterministic: fns are in (file, source) order).
    let mut parent: Vec<Option<usize>> = vec![None; n];
    let mut visited = vec![false; n];
    let mut queue = VecDeque::new();
    for (i, f) in g.fns.iter().enumerate() {
        if f.vis == Vis::Pub && !f.in_test && f.body.is_some() && in_lib_crate(&files[f.file].path)
        {
            visited[i] = true;
            queue.push_back(i);
        }
    }
    while let Some(u) = queue.pop_front() {
        for c in &adj[u] {
            if !visited[c.callee] {
                visited[c.callee] = true;
                parent[c.callee] = Some(u);
                queue.push_back(c.callee);
            }
        }
    }

    let mut findings = Vec::new();
    for p in live {
        if !visited[p.func] {
            continue;
        }
        // Reconstruct root → … → containing fn.
        let mut path = vec![p.func];
        let mut cur = p.func;
        while let Some(up) = parent[cur] {
            path.push(up);
            cur = up;
        }
        path.reverse();
        let chain: Vec<String> = path.iter().map(|&i| g.fns[i].display()).collect();
        let sf = &files[g.fns[p.func].file];
        findings.push(Finding {
            file: sf.path.clone(),
            line: p.line,
            col: p.col,
            rule: "panic-reachability",
            message: format!(
                "`{}` can panic and is reachable from public API `{}` via {}; \
                 return a Result or justify the site or a call edge with \
                 `// andi::allow(panic-reachability) — <proof>`",
                p.what,
                chain.first().map(String::as_str).unwrap_or("?"),
                chain.join(" → "),
            ),
        });
    }
    (findings, used)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws(files: &[(&str, &str)]) -> (Vec<SourceFile>, CallGraph) {
        let files: Vec<SourceFile> = files.iter().map(|(p, s)| SourceFile::new(p, s)).collect();
        let g = build(&files);
        (files, g)
    }

    #[test]
    fn links_free_fns_within_a_file() {
        let (_, g) = ws(&[(
            "crates/core/src/a.rs",
            "pub fn entry() { helper(1); }\nfn helper(x: u32) -> u32 { x }\n",
        )]);
        assert_eq!(g.fns.len(), 2);
        assert_eq!(g.calls.len(), 1);
        assert_eq!(g.fns[g.calls[0].caller].name, "entry");
        assert_eq!(g.fns[g.calls[0].callee].name, "helper");
        assert_eq!(g.calls[0].args.len(), 1);
    }

    #[test]
    fn links_module_qualified_calls_across_crates() {
        let (_, g) = ws(&[
            (
                "crates/graph/src/par.rs",
                "pub fn map_indexed(threads: usize, n: usize) -> Vec<u64> { Vec::new() }\n",
            ),
            (
                "crates/core/src/recipe.rs",
                "pub fn run() { let v = par::map_indexed(4, 100); }\n",
            ),
        ]);
        assert_eq!(g.calls.len(), 1);
        assert_eq!(g.fns[g.calls[0].callee].name, "map_indexed");
        assert_eq!(g.calls[0].args.len(), 2);
    }

    #[test]
    fn prefers_same_file_over_other_crates() {
        let (files, g) = ws(&[
            (
                "crates/core/src/a.rs",
                "fn pick() {}\npub fn go() { pick(); }\n",
            ),
            ("crates/graph/src/b.rs", "pub fn pick() {}\n"),
        ]);
        assert_eq!(g.calls.len(), 1);
        assert_eq!(
            files[g.fns[g.calls[0].callee].file].path,
            "crates/core/src/a.rs"
        );
    }

    #[test]
    fn method_calls_resolve_by_name_with_blocklist() {
        let (_, g) = ws(&[(
            "crates/core/src/a.rs",
            "pub struct P;\nimpl P { pub fn restrict(&self) {} }\n\
             pub fn f(p: &P, v: Vec<u32>) { p.restrict(); let _n = v.len(); }\n",
        )]);
        // `restrict` links; `len` is blocklisted.
        assert_eq!(g.calls.len(), 1);
        assert_eq!(g.fns[g.calls[0].callee].name, "restrict");
    }

    #[test]
    fn panic_sites_are_collected() {
        let (_, g) = ws(&[(
            "crates/core/src/a.rs",
            "pub fn f(x: Option<u32>) -> u32 { x.unwrap() }\nfn g() { panic!(\"no\"); }\n",
        )]);
        let whats: Vec<&str> = g.panics.iter().map(|p| p.what.as_str()).collect();
        assert_eq!(whats, vec![".unwrap()", "panic!"]);
    }

    #[test]
    fn reachability_reports_shortest_path_at_the_site() {
        let (files, g) = ws(&[(
            "crates/core/src/a.rs",
            "pub fn api() { mid(); }\nfn mid() { deep(); }\n\
             fn deep(x: Option<u32>) { x.unwrap(); }\n",
        )]);
        let (findings, used) = panic_reachability(&files, &g);
        assert_eq!(findings.len(), 1);
        assert!(used.is_empty());
        let f = &findings[0];
        assert_eq!(f.rule, "panic-reachability");
        assert_eq!(f.line, 3);
        assert!(f.message.contains("api → mid → deep"), "{}", f.message);
    }

    #[test]
    fn site_pragma_justifies_the_panic() {
        let (files, g) = ws(&[(
            "crates/core/src/a.rs",
            "pub fn api(x: Option<u32>) -> u32 {\n\
             // andi::allow(lib-unwrap) — checked above\n  x.unwrap()\n}\n",
        )]);
        let (findings, _) = panic_reachability(&files, &g);
        assert!(findings.is_empty());
    }

    #[test]
    fn call_edge_pragma_cuts_the_path_and_counts_as_used() {
        let (files, g) = ws(&[(
            "crates/core/src/a.rs",
            "pub fn api() {\n// andi::allow(panic-reachability) — input validated by caller\n\
             mid();\n}\nfn mid(x: Option<u32>) { x.unwrap(); }\n",
        )]);
        let (findings, used) = panic_reachability(&files, &g);
        assert!(findings.is_empty(), "{findings:?}");
        assert_eq!(used, vec![(0, 2)]);
    }

    #[test]
    fn test_code_is_never_a_root_or_a_path() {
        let (files, g) = ws(&[(
            "crates/core/src/a.rs",
            "#[cfg(test)]\nmod tests {\n  #[test]\n  fn t() { helper(); }\n}\n\
             pub(crate) fn helper(x: Option<u32>) { x.unwrap(); }\n",
        )]);
        // helper is only reachable from tests; pub(crate) is not a root.
        let (findings, _) = panic_reachability(&files, &g);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn cross_file_reachability() {
        let (files, g) = ws(&[
            (
                "crates/core/src/entry.rs",
                "pub fn api() { leaf::inner(); }\n",
            ),
            (
                "crates/core/src/leaf.rs",
                "pub(crate) fn inner(x: Option<u32>) { x.unwrap(); }\n",
            ),
        ]);
        let (findings, _) = panic_reachability(&files, &g);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].file, "crates/core/src/leaf.rs");
        assert!(findings[0].message.contains("api → inner"));
    }
}
