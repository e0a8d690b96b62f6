//! Field-sensitive, interprocedural information-flow (taint) layer:
//! machine-checked disclosure boundaries.
//!
//! The paper's whole question is *when sensitive data may cross a
//! disclosure boundary*; this pass enforces the static analog on our
//! own tree. `// andi::sensitive` annotations mark the sources — raw
//! transaction contents (`Transaction::items`), the database's
//! transaction list, belief-function intervals — and the lattice
//! tracks where those values flow. Sinks are everything that renders
//! or persists text: the `format!` family (including `panic!`
//! messages), error-constructor payloads and `Display`/`Debug`
//! bodies, and file/byte writes. A flow from source to sink is a
//! finding unless an `// andi::declassify(<reason>)` pragma marks
//! the boundary as audited.
//!
//! ## Lattice
//!
//! Three points per value, with per-field precision on the middle
//! one:
//!
//! * `Clean` — publishable. Aggregates (counts, supports, risk
//!   estimates) land here: any value produced by arithmetic over
//!   sensitive inputs is deliberately laundered, mirroring the
//!   paper's stance that *computed* disclosure-risk numbers are the
//!   output of the system, not a leak.
//! * `Carrier(types)` — a value of (or containing) a sensitive-
//!   bearing type. Projections out of a carrier are Clean by default
//!   (`db.n_items()` is publishable); only the annotated leaf fields
//!   and accessors (`Transaction::items`, `BeliefFunction::
//!   intervals`) project to `Raw`, and fields whose type mentions a
//!   bearing type project to `Carrier` again.
//! * `Raw` — extracted sensitive data. Propagates through bindings,
//!   element access, string conversion, and calls; only counting
//!   aggregates (`len`, `count`, …) and arithmetic launder it.
//!
//! ## Interprocedural summaries
//!
//! Per fn, a fixpoint over the workspace call graph computes:
//! `returns_raw` (the body can return Raw data), and per-parameter
//! `param_sink` / `param_ret` masks (a value passed in position *i*
//! reaches a local sink / the return value). Caller-side, a Raw
//! argument into a `param_sink` position is a finding anchored at the
//! call site, with the shortest fn chain to the sink — the same
//! shortest-path anchoring `panic-reachability` uses.
//!
//! Everything iterates in (file, token) order over `BTreeMap`s, so
//! findings, flows, and the declassify inventory are deterministic
//! regardless of input ordering.

use std::collections::{BTreeMap, BTreeSet};

use crate::dataflow::{statements, top_level_eq};
use crate::graph::{call_paren, split_args, CallGraph, SourceFile};
use crate::lexer::{Token, TokenKind};
use crate::parser::{Item, ItemKind};
use crate::rules::{matching_brace, Finding};

/// Formatting/logging macro names whose argument positions are
/// disclosure sinks. `assert!`/`debug_assert!` are deliberately
/// absent: their message position fires only on a violated invariant
/// in a debug build, and taint there would fight the contract layer.
const FORMAT_MACROS: &[&str] = &[
    "format",
    "format_args",
    "println",
    "print",
    "eprintln",
    "eprint",
    "write",
    "writeln",
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
];

/// Writer methods that persist bytes: a tainted argument here is a
/// file-write leak.
const WRITE_METHODS: &[&str] = &["write_all", "write_fmt", "write_str"];

/// Projections that keep a `Carrier` a carrier: element access and
/// reference/ownership adapters do not cross the disclosure
/// boundary by themselves.
const ELEMENT_KEEP: &[&str] = &[
    "iter",
    "into_iter",
    "get",
    "first",
    "last",
    "clone",
    "to_vec",
    "to_owned",
    "as_slice",
    "as_ref",
    "borrow",
    "windows",
    "chunks",
    "split_at",
    "split_first",
    "split_last",
    "enumerate",
    "copied",
    "cloned",
    "take",
    "skip",
    "rev",
    "flatten",
    "by_ref",
];

/// Aggregating projections that launder `Raw` (and whole-annotated
/// carriers) to `Clean`: a count over sensitive data is publishable.
const CLEAN_AGGREGATES: &[&str] = &["len", "is_empty", "count", "capacity"];

/// Method calls whose *arguments* do not flow into the result
/// (membership tests and searches return booleans/positions).
const CLEAN_ARG_METHODS: &[&str] = &[
    "contains",
    "contains_all",
    "contains_key",
    "starts_with",
    "ends_with",
    "binary_search",
    "any",
    "all",
    "position",
];

/// One audited disclosure boundary: a valid `andi::declassify`
/// pragma plus every sanctioned flow that crosses it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeclassifySite {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based pragma line.
    pub line: u32,
    /// The audit justification from inside the parentheses.
    pub reason: String,
    /// Human-readable `source → fn → sink` chains this boundary
    /// sanctions, sorted and deduplicated.
    pub flows: Vec<String>,
}

/// Aggregate statistics from one taint analysis, printed by the
/// `andi-lint taint` subcommand and pinned by the golden inventory
/// test.
#[derive(Clone, Debug, Default)]
pub struct TaintStats {
    /// Directly annotated type names (type-level or via a field).
    pub sensitive_types: Vec<String>,
    /// Number of annotated fields/accessors.
    pub sensitive_members: usize,
    /// Transitive closure: every type that can carry sensitive data.
    pub bearing_types: Vec<String>,
    /// Fns whose bodies were analyzed.
    pub fns_analyzed: usize,
    /// Fns whose summaries say they can return Raw data.
    pub raw_returning_fns: usize,
    /// Sink sites scanned (format macros, error ctors, writes).
    pub sink_sites: usize,
    /// Declassify inventory with sanctioned flows.
    pub declassifies: Vec<DeclassifySite>,
}

/// Result of the information-flow pass, mirroring
/// [`crate::interval::Proved`]: `findings` are suppressible leak
/// reports, `hygiene` are pragma-hygiene findings that must *not* be
/// suppressible (they are appended after the suppression pass).
#[derive(Clone, Debug, Default)]
pub struct TaintReport {
    /// `leak-to-log` / `leak-in-error` / `sensitive-debug` findings.
    pub findings: Vec<Finding>,
    /// `invalid-pragma` / `unused-pragma` findings for the new
    /// annotation grammar.
    pub hygiene: Vec<Finding>,
    /// Flow statistics + declassify inventory.
    pub stats: TaintStats,
}

/// What a projection out of a carrier yields.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Proj {
    /// Annotated leaf: the raw sensitive data itself.
    Leaf,
    /// A field/accessor whose type mentions bearing types: the
    /// projection is itself a carrier of those types.
    Into(BTreeSet<String>),
}

/// Taint lattice point. Ordered so `merge` can take the max kind.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Kind {
    Clean,
    Carrier(BTreeSet<String>),
    Raw,
}

/// One abstract value: lattice point, symbolic parameter origins
/// (for the caller-side summaries), and a human-readable source
/// label for messages.
#[derive(Clone, Debug)]
struct Taint {
    kind: Kind,
    origins: BTreeSet<usize>,
    src: String,
}

impl Taint {
    fn clean() -> Self {
        Taint {
            kind: Kind::Clean,
            origins: BTreeSet::new(),
            src: String::new(),
        }
    }

    fn is_clean(&self) -> bool {
        self.kind == Kind::Clean && self.origins.is_empty()
    }

    fn merge(&mut self, other: &Taint) {
        let was_clean = self.kind == Kind::Clean;
        self.kind = match (&self.kind, &other.kind) {
            (Kind::Raw, _) | (_, Kind::Raw) => Kind::Raw,
            (Kind::Carrier(a), Kind::Carrier(b)) => Kind::Carrier(a.union(b).cloned().collect()),
            (Kind::Carrier(a), _) => Kind::Carrier(a.clone()),
            (_, Kind::Carrier(b)) => Kind::Carrier(b.clone()),
            (Kind::Clean, Kind::Clean) => Kind::Clean,
        };
        self.origins.extend(other.origins.iter().copied());
        // Source labels follow actual taint, not symbolic origins: a
        // clean contributor must not name itself as the leak source,
        // and the contributor that first makes the value tainted
        // overrides whatever label a clean binding carried.
        if other.kind != Kind::Clean && !other.src.is_empty() && (self.src.is_empty() || was_clean)
        {
            self.src = other.src.clone();
        }
    }
}

/// Per-fn interprocedural summary.
#[derive(Clone, Debug, Default, PartialEq)]
struct Summary {
    /// The body can return Raw data.
    returns_raw: bool,
    /// Source label for the raw return (first discovered).
    ret_src: String,
    /// Parameter `i` reaches a local (or transitive) sink.
    param_sink: Vec<bool>,
    /// Parameter `i` flows into the return value.
    param_ret: Vec<bool>,
    /// Per-parameter shortest chain to the sink: fn displays plus a
    /// sink description.
    chains: Vec<Option<(Vec<String>, String)>>,
}

/// The annotation catalogue: what is sensitive, what bears it, and
/// how projections behave.
#[derive(Debug, Default)]
struct Catalog {
    /// Type-level `andi::sensitive` targets: every projection is raw
    /// unless it is a counting aggregate.
    whole: BTreeSet<String>,
    /// Directly annotated types (type-level or owning an annotated
    /// member) — the `sensitive-debug` domain.
    direct: BTreeSet<String>,
    /// `(type, member)` projection behavior.
    proj: BTreeMap<(String, String), Proj>,
    /// Transitive sensitive-bearing closure.
    bearing: BTreeSet<String>,
    /// Count of annotated members (fields + accessors).
    members: usize,
}

impl Catalog {
    /// Bearing types mentioned (word-level) in a type text.
    fn mentions(&self, ty: &str) -> BTreeSet<String> {
        words(ty)
            .into_iter()
            .filter(|w| self.bearing.contains(w))
            .collect()
    }
}

/// Whether a return type can only carry ids/counts/lengths/flags:
/// every identifier word is an integer primitive or `bool`, possibly
/// tupled or wrapped in `Option`/`Result`. Collections are NOT
/// countlike — a `&[u64]` of raw item ids is the market basket in
/// bulk. Floats are deliberately absent too: belief intervals are
/// `f64` pairs and stay sensitive.
fn countlike_ret(ty: &str) -> bool {
    if ty.contains('[') || ty.contains("Vec") || ty.contains("Box") || ty.contains("impl") {
        return false;
    }
    const COUNTLIKE: &[&str] = &[
        "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize",
        "bool", "char", "Option", "Result",
    ];
    let ws = words(ty);
    !ws.is_empty() && ws.iter().all(|w| COUNTLIKE.contains(&w.as_str()))
}

/// Splits a normalized type text into identifier words.
fn words(ty: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    for c in ty.chars() {
        if c == '_' || c.is_alphanumeric() {
            cur.push(c);
        } else if !cur.is_empty() {
            out.push(std::mem::take(&mut cur));
        }
    }
    if !cur.is_empty() {
        out.push(cur);
    }
    out
}

/// One struct field scraped from the token stream: name, normalized
/// type text, and the line of the field name (for annotation
/// matching).
#[derive(Clone, Debug)]
struct FieldDef {
    name: String,
    ty: String,
    line: u32,
}

/// Collects `struct Name { field: Ty, … }` tables workspace-wide.
/// Token-level (the parser does not model fields), same skeleton as
/// the interval prover's field scan.
fn scan_fields(files: &[SourceFile]) -> BTreeMap<String, Vec<FieldDef>> {
    let mut out: BTreeMap<String, Vec<FieldDef>> = BTreeMap::new();
    for sf in files {
        let toks = &sf.scan.tokens;
        for k in 0..toks.len() {
            if !toks[k].is_ident("struct")
                || toks.get(k + 1).is_none_or(|n| n.kind != TokenKind::Ident)
            {
                continue;
            }
            let sname = toks[k + 1].text.clone();
            // Find the body brace at depth 0 (skipping generics).
            let mut j = k + 1;
            let mut open = None;
            let mut depth = 0i64;
            while j < toks.len() {
                let t = &toks[j];
                if t.is_punct('<') || t.is_punct('(') {
                    depth += 1;
                } else if t.is_punct('>') || t.is_punct(')') {
                    depth -= 1;
                } else if t.is_punct(';') && depth <= 0 {
                    break; // tuple/unit struct: no named fields
                } else if t.is_punct('{') && depth <= 0 {
                    open = Some(j);
                    break;
                }
                j += 1;
            }
            let Some(open) = open else { continue };
            let close = matching_brace(toks, open).unwrap_or(toks.len());
            let mut m = open + 1;
            while m + 1 < close {
                let t = &toks[m];
                if t.kind == TokenKind::Ident && toks[m + 1].is_punct(':') {
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
                    let ty = toks[m + 2..e]
                        .iter()
                        .map(|t| t.text.as_str())
                        .collect::<Vec<_>>()
                        .join(" ");
                    out.entry(sname.clone()).or_default().push(FieldDef {
                        name: t.text.clone(),
                        ty,
                        line: t.line,
                    });
                    m = e;
                } else {
                    m += 1;
                }
            }
        }
    }
    out
}

/// One precomputed disclosure-sink site inside a fn body. The token
/// structure never changes across fixpoint rounds, so the walk that
/// finds these runs once per fn; only the environment evaluation is
/// per-round work.
#[derive(Clone)]
struct SinkSite {
    /// Payload/argument token range to evaluate.
    lo: usize,
    /// End of that range (exclusive; may exceed the token count).
    hi: usize,
    /// Report anchor line.
    line: u32,
    /// Report anchor column.
    col: u32,
    /// Sink description for messages (`` `X::Y` payload ``, `` `format!` `` …).
    desc: String,
    /// Error-channel sink: a ctor payload, or any sink inside an
    /// `Error` type's `fmt`.
    is_err: bool,
    /// Inline-capture names of the site's format string (`"{x}"`).
    captures: Vec<String>,
}

/// The analysis driver.
struct Analysis<'a> {
    files: &'a [SourceFile],
    g: &'a CallGraph,
    cat: Catalog,
    fields: BTreeMap<String, Vec<FieldDef>>,
    /// Per-fn summaries, indexed like `g.fns`.
    sums: Vec<Summary>,
    /// `(file, tok)` → resolved callee, for unique call sites.
    site: BTreeMap<(usize, usize), usize>,
    /// `(file, tok)` → argument token ranges of that call site.
    site_args: BTreeMap<(usize, usize), Vec<(usize, usize)>>,
    /// Callee → callers, for the fixpoint worklist.
    callers: BTreeMap<usize, BTreeSet<usize>>,
    /// Per-file: (declassify index) → used flag + sanctioned flows.
    declassify_used: Vec<Vec<(bool, Vec<String>)>>,
    /// Enclosing impl type of the fn currently being analyzed, so
    /// `Self { … }` / `Self::new(…)` resolve to a bearing type.
    cur_self: Option<String>,
    /// Per-fn display labels, computed once — `display()` allocates
    /// and the hot paths would otherwise re-format it per call site.
    displays: Vec<String>,
    /// Per-fn bearing mentions of the return type with `-> Self`
    /// resolved, cached so `call_result` does no type-text parsing.
    ret_mentions: Vec<BTreeSet<String>>,
    /// Per-fn countlike-return bit (ids/counts/lengths only).
    ret_countlike: Vec<bool>,
    /// Per-fn statement segmentation of the body — bodies never
    /// change across fixpoint rounds, so parse once.
    stmts: Vec<Vec<(usize, usize)>>,
    /// Per-file dense call-resolution table indexed by name token:
    /// `u32::MAX` = no unique resolution, else index into `g.calls`.
    /// `eval` probes this for every ident token, so the `site`
    /// BTreeMap is too slow to sit on that path.
    site_by_tok: Vec<Vec<u32>>,
    /// Caller → its call indices, so per-fn scans skip the global
    /// call list.
    calls_of: Vec<Vec<usize>>,
    /// Per-fn precomputed sink sites (see [`SinkSite`]).
    sinks_of: Vec<Vec<SinkSite>>,
    findings: Vec<Finding>,
    hygiene: Vec<Finding>,
    sink_sites: usize,
}

/// Runs the information-flow analysis over a parsed workspace.
pub fn analyze(files: &[SourceFile], g: &CallGraph) -> TaintReport {
    let fields = scan_fields(files);
    let mut a = Analysis {
        files,
        g,
        cat: Catalog::default(),
        fields,
        sums: vec![Summary::default(); g.fns.len()],
        site: BTreeMap::new(),
        site_args: BTreeMap::new(),
        callers: BTreeMap::new(),
        declassify_used: files
            .iter()
            .map(|sf| {
                sf.scan
                    .declassifies
                    .iter()
                    .map(|_| (false, Vec::new()))
                    .collect()
            })
            .collect(),
        cur_self: None,
        displays: Vec::new(),
        ret_mentions: Vec::new(),
        ret_countlike: Vec::new(),
        stmts: Vec::new(),
        site_by_tok: Vec::new(),
        calls_of: Vec::new(),
        sinks_of: Vec::new(),
        findings: Vec::new(),
        hygiene: Vec::new(),
        sink_sites: 0,
    };
    a.build_catalog();
    if a.cat.bearing.is_empty() {
        // No annotations anywhere: only pragma hygiene can fire.
        a.declassify_hygiene();
        return a.finish();
    }
    a.displays = g.fns.iter().map(|f| f.display()).collect();
    a.ret_mentions = g
        .fns
        .iter()
        .map(|f| {
            let mut m = a.cat.mentions(&f.ret);
            if let Some(so) = f.self_of.as_ref().filter(|so| a.cat.bearing.contains(*so)) {
                if words(&f.ret).iter().any(|w| w == "Self") {
                    m.insert(so.clone());
                }
            }
            m
        })
        .collect();
    a.ret_countlike = g.fns.iter().map(|f| countlike_ret(&f.ret)).collect();
    a.stmts = g
        .fns
        .iter()
        .map(|f| match f.body {
            Some((lo, hi)) => statements(&files[f.file].scan.tokens, lo, hi),
            None => Vec::new(),
        })
        .collect();
    a.calls_of = vec![Vec::new(); g.fns.len()];
    a.sinks_of = (0..g.fns.len()).map(|u| a.find_sinks(u)).collect();
    // A `Type::name(…)` path call names its impl type, so same-name
    // fns on other types don't make the site ambiguous.
    let qualifier = |fi: usize, tok: usize| -> Option<String> {
        let toks = &files[fi].scan.tokens;
        if tok >= 3
            && toks[tok - 1].is_punct(':')
            && toks[tok - 2].is_punct(':')
            && toks[tok - 3].kind == TokenKind::Ident
        {
            Some(toks[tok - 3].text.clone())
        } else {
            None
        }
    };
    for (i, c) in g.calls.iter().enumerate() {
        let fi = g.fns[c.caller].file;
        // Only unique resolutions feed summaries (same trust rule as
        // the interval prover's return propagation).
        match a.site.entry((fi, c.tok)) {
            std::collections::btree_map::Entry::Vacant(e) => {
                e.insert(i);
            }
            std::collections::btree_map::Entry::Occupied(mut e) => {
                let prev = *e.get();
                if prev != usize::MAX && g.calls[prev].callee == c.callee {
                    // same resolution, nothing to do
                } else if let Some(q) = qualifier(fi, c.tok) {
                    let matches = |call: usize| {
                        g.fns[g.calls[call].callee].self_of.as_deref() == Some(q.as_str())
                    };
                    match (prev != usize::MAX && matches(prev), matches(i)) {
                        (true, false) => {}
                        (false, true) => {
                            e.insert(i);
                        }
                        _ => {
                            e.insert(usize::MAX);
                        }
                    }
                } else {
                    e.insert(usize::MAX); // ambiguous
                }
            }
        }
        a.site_args.insert((fi, c.tok), c.args.clone());
        a.callers.entry(c.callee).or_default().insert(c.caller);
        a.calls_of[c.caller].push(i);
    }
    a.site_by_tok = files
        .iter()
        .map(|sf| vec![u32::MAX; sf.scan.tokens.len()])
        .collect();
    for (&(fi, tok), &i) in &a.site {
        if i != usize::MAX {
            a.site_by_tok[fi][tok] = i as u32;
        }
    }
    a.seed_summaries();
    a.fixpoint();
    a.emit();
    a.sensitive_debug();
    a.declassify_hygiene();
    a.finish()
}

impl<'a> Analysis<'a> {
    // ----- catalogue -----------------------------------------------

    fn build_catalog(&mut self) {
        // Resolve each `andi::sensitive` mark to a type, field, or
        // accessor on the same or next line.
        for (fi, sf) in self.files.iter().enumerate() {
            for mark in &sf.scan.sensitives {
                if !self.resolve_mark(fi, mark.line) {
                    self.hygiene.push(Finding {
                        file: sf.path.clone(),
                        line: mark.line,
                        col: 1,
                        rule: "invalid-pragma",
                        message: "andi::sensitive names no type, field, or fn on this \
                                  or the next line; move it directly above the item"
                            .to_string(),
                    });
                }
            }
        }
        // Transitive bearing closure over the field tables: a struct
        // with a field whose type mentions a bearing type bears it
        // too (enums are out of scope; DESIGN.md documents the
        // under-approximation).
        let mut bearing: BTreeSet<String> = self.cat.direct.clone();
        loop {
            let mut grew = false;
            for (sname, fs) in &self.fields {
                if bearing.contains(sname) {
                    continue;
                }
                if fs
                    .iter()
                    .any(|f| words(&f.ty).iter().any(|w| bearing.contains(w)))
                {
                    bearing.insert(sname.clone());
                    grew = true;
                }
            }
            if !grew {
                break;
            }
        }
        self.cat.bearing = bearing;
        // Every field whose type mentions a bearing type is an
        // `Into` projection (unless annotated as a leaf).
        let mut extra: Vec<((String, String), Proj)> = Vec::new();
        for (sname, fs) in &self.fields {
            for f in fs {
                let key = (sname.clone(), f.name.clone());
                if self.cat.proj.contains_key(&key) {
                    continue;
                }
                let m = self.cat.mentions(&f.ty);
                if !m.is_empty() {
                    extra.push((key, Proj::Into(m)));
                }
            }
        }
        self.cat.proj.extend(extra);
    }

    /// Attaches one mark to its target; false when nothing matches.
    fn resolve_mark(&mut self, fi: usize, line: u32) -> bool {
        // Item on this line (trailing mark) or the next (mark above).
        let mut target: Option<(ItemKind, String, Option<String>, String)> = None;
        self.files[fi].ast.visit(&mut |it: &Item| {
            if target.is_some() || (it.line != line && it.line != line + 1) {
                return;
            }
            match it.kind {
                ItemKind::TypeDef => {
                    target = Some((ItemKind::TypeDef, it.name.clone(), None, String::new()));
                }
                ItemKind::Fn => {
                    target = Some((
                        ItemKind::Fn,
                        it.name.clone(),
                        it.self_of.clone(),
                        it.ret.clone(),
                    ));
                }
                _ => {}
            }
        });
        if let Some((kind, name, self_of, ret)) = target {
            match kind {
                ItemKind::TypeDef => {
                    self.cat.whole.insert(name.clone());
                    self.cat.direct.insert(name);
                }
                ItemKind::Fn => {
                    let owner = match self_of {
                        Some(t) => t,
                        // A free fn cannot be a projection source;
                        // treat the mark as unresolved.
                        None => return false,
                    };
                    self.cat.direct.insert(owner.clone());
                    let m = self.mentions_before_closure(&ret);
                    let proj = if m.is_empty() {
                        Proj::Leaf
                    } else {
                        Proj::Into(m)
                    };
                    self.cat.proj.insert((owner, name), proj);
                    self.cat.members += 1;
                }
                _ => unreachable!(),
            }
            return true;
        }
        // Field inside a struct defined in this file.
        let path = &self.files[fi].path;
        let mut hit: Option<(String, String, String)> = None;
        for (sname, fs) in &self.fields {
            for f in fs {
                if (f.line == line || f.line == line + 1) && self.owns_struct(path, sname, f.line) {
                    hit = Some((sname.clone(), f.name.clone(), f.ty.clone()));
                    break;
                }
            }
            if hit.is_some() {
                break;
            }
        }
        if let Some((sname, fname, ty)) = hit {
            self.cat.direct.insert(sname.clone());
            let m = self.mentions_before_closure(&ty);
            let proj = if m.is_empty() {
                Proj::Leaf
            } else {
                Proj::Into(m)
            };
            self.cat.proj.insert((sname, fname), proj);
            self.cat.members += 1;
            return true;
        }
        false
    }

    /// Whether the named struct (with a field at `line`) is defined
    /// in `path` — guards against same-named fields in other files.
    fn owns_struct(&self, path: &str, sname: &str, line: u32) -> bool {
        self.files.iter().any(|sf| {
            sf.path == path
                && sf
                    .scan
                    .tokens
                    .windows(2)
                    .any(|w| w[0].is_ident("struct") && w[1].is_ident(sname))
                && sf.scan.tokens.iter().any(|t| t.line == line)
        })
    }

    /// Bearing-type mentions *before* the closure exists: direct
    /// annotations only. Used while the catalogue is still being
    /// built; the closure re-derives `Into` sets afterwards anyway.
    fn mentions_before_closure(&self, ty: &str) -> BTreeSet<String> {
        words(ty)
            .into_iter()
            .filter(|w| self.cat.direct.contains(w) || self.cat.whole.contains(w))
            .collect()
    }

    // ----- summaries -----------------------------------------------

    fn seed_summaries(&mut self) {
        for (u, f) in self.g.fns.iter().enumerate() {
            self.sums[u].param_sink = vec![false; f.params.len()];
            self.sums[u].param_ret = vec![false; f.params.len()];
            self.sums[u].chains = vec![None; f.params.len()];
        }
    }

    fn fixpoint(&mut self) {
        let mut work: BTreeSet<usize> = (0..self.g.fns.len()).collect();
        let mut rounds = 0usize;
        while let Some(&u) = work.iter().next() {
            work.remove(&u);
            rounds += 1;
            if rounds > self.g.fns.len() * 16 {
                break; // chain-shortening is bounded; belt and braces
            }
            let before = self.sums[u].clone();
            self.analyze_fn(u, false);
            if self.sums[u] != before {
                if let Some(cs) = self.callers.get(&u) {
                    work.extend(cs.iter().copied());
                }
            }
        }
    }

    fn emit(&mut self) {
        for u in 0..self.g.fns.len() {
            self.analyze_fn(u, true);
        }
    }

    // ----- per-fn analysis -----------------------------------------

    /// Analyzes one fn body: builds the local environment, updates
    /// the fn's summary, and (when `emit`) reports sink flows.
    fn analyze_fn(&mut self, u: usize, emit: bool) {
        let node = &self.g.fns[u];
        let Some((lo, hi)) = node.body else { return };
        if node.in_test {
            return;
        }
        let fi = node.file;
        let display = self.displays[u].clone();
        self.cur_self = node.self_of.clone();

        // Seed the environment from parameters.
        let mut env: BTreeMap<String, Taint> = BTreeMap::new();
        for (i, p) in node.params.iter().enumerate() {
            if p.name.is_empty() {
                continue;
            }
            let kind = if p.name == "self" {
                match &node.self_of {
                    Some(t) if self.cat.bearing.contains(t) => {
                        Kind::Carrier([t.clone()].into_iter().collect())
                    }
                    _ => Kind::Clean,
                }
            } else {
                let m = self.cat.mentions(&p.ty);
                if m.is_empty() {
                    Kind::Clean
                } else {
                    Kind::Carrier(m)
                }
            };
            env.insert(
                p.name.clone(),
                Taint {
                    kind,
                    origins: [i].into_iter().collect(),
                    src: format!("`{}` (param of `{display}`)", p.name),
                },
            );
        }

        // Pass 1: statement-order binding updates (monotone), over
        // the cached segmentation (bodies never change).
        let toks = &self.files[fi].scan.tokens;
        let stmts = self.stmts[u].clone();
        for (a, b) in stmts {
            let seg = &toks[a..b.min(toks.len())];
            if seg.is_empty() {
                continue;
            }
            if seg[0].is_ident("let") {
                let Some(eq) = top_level_eq(seg) else {
                    continue;
                };
                let mut t = self.eval(fi, a + eq + 1, b, &env);
                // `let x: Database = …` — a carrier-typed ascription
                // upgrades an unknown RHS to a carrier.
                let colon = top_level_colon(&seg[1..eq]).map(|c| c + 1);
                if t.kind == Kind::Clean {
                    if let Some(c) = colon {
                        let ty: String = seg[c + 1..eq]
                            .iter()
                            .map(|t| t.text.as_str())
                            .collect::<Vec<_>>()
                            .join(" ");
                        let m = self.cat.mentions(&ty);
                        if !m.is_empty() {
                            t.kind = Kind::Carrier(m);
                        }
                    }
                }
                if t.is_clean() {
                    continue;
                }
                let pat_end = colon.unwrap_or(eq);
                for tk in &seg[1..pat_end] {
                    if tk.kind == TokenKind::Ident && !tk.is_ident("mut") && !tk.is_ident("ref") {
                        env.entry(tk.text.clone())
                            .or_insert_with(Taint::clean)
                            .merge(&t);
                    }
                }
            } else if seg[0].is_ident("for") {
                let Some(pos) = seg.iter().position(|t| t.is_ident("in")) else {
                    continue;
                };
                let t = self.eval(fi, a + pos + 1, b, &env);
                if t.is_clean() {
                    continue;
                }
                // `for (i, x) in xs.iter().enumerate()`: the first
                // pattern ident is the counter — a count, not data.
                let enumerated = seg[pos..]
                    .windows(2)
                    .any(|w| w[0].is_punct('.') && w[1].is_ident("enumerate"))
                    && seg.get(1).is_some_and(|t| t.is_punct('('));
                let mut first = true;
                for tk in &seg[1..pos] {
                    if tk.kind == TokenKind::Ident && !tk.is_ident("mut") && !tk.is_ident("ref") {
                        if enumerated && std::mem::take(&mut first) {
                            continue;
                        }
                        env.entry(tk.text.clone())
                            .or_insert_with(Taint::clean)
                            .merge(&t);
                    }
                }
            } else if seg.len() >= 3 && seg[0].kind == TokenKind::Ident {
                // Plain `name = expr` propagates; compound assigns
                // (`+=` …) are arithmetic and launder.
                if seg[1].is_punct('=') && !seg[2].is_punct('=') {
                    let t = self.eval(fi, a + 2, b, &env);
                    if !t.is_clean() {
                        env.entry(seg[0].text.clone())
                            .or_insert_with(Taint::clean)
                            .merge(&t);
                    }
                } else if seg[1].is_punct('.')
                    && seg[2].kind == TokenKind::Ident
                    && MUTATORS.contains(&seg[2].text.as_str())
                    && seg.get(3).is_some_and(|t| t.is_punct('('))
                {
                    // `buf.push_str(raw)` taints `buf`.
                    let t = self.eval(fi, a + 4, b, &env);
                    if !t.is_clean() {
                        env.entry(seg[0].text.clone())
                            .or_insert_with(Taint::clean)
                            .merge(&t);
                    }
                }
            }
        }

        // Pass 2: summary updates + (when emitting) sink reports,
        // over the whole body with the final environment.
        self.scan_sinks(u, fi, &env, emit);
        self.scan_returns(u, fi, hi, &env);
        self.scan_call_args(u, fi, lo, hi, &env, emit);
    }

    /// Return-position taint → `returns_raw` / `param_ret`.
    fn scan_returns(&mut self, u: usize, fi: usize, hi: usize, env: &BTreeMap<String, Taint>) {
        if self.g.fns[u].ret.is_empty() {
            return; // `()` fns cannot leak through their return value
        }
        if self.ret_countlike[u] {
            // Integers and bools are ids/counts/lengths — exactly the
            // render the rules sanction. Structured sensitive data
            // cannot fit through such a return type. (Floats are NOT
            // exempt: belief intervals are `f64` pairs.)
            return;
        }
        let toks = &self.files[fi].scan.tokens;
        let segs = self.stmts[u].clone();
        for (i, (a, b)) in segs.iter().enumerate() {
            let seg = &toks[*a..(*b).min(toks.len())];
            if seg.is_empty() {
                continue;
            }
            let explicit = seg[0].is_ident("return");
            // Trailing-expression position: the segment ends at a
            // closing brace or the body end (over-approximates
            // if/match arm tails, which *are* values).
            let tail =
                *b >= hi || toks.get(*b).is_some_and(|t| t.is_punct('}')) || i + 1 == segs.len();
            if !explicit && !tail {
                continue;
            }
            let from = if explicit { *a + 1 } else { *a };
            let t = self.eval(fi, from, *b, env);
            if t.kind == Kind::Raw && !self.sums[u].returns_raw {
                if std::env::var_os("ANDI_TAINT_DEBUG").is_some() {
                    eprintln!(
                        "[taint] returns_raw {} at {}:{} src {}",
                        self.displays[u],
                        self.files[fi].path,
                        toks.get(from).map(|t| t.line).unwrap_or(0),
                        t.src
                    );
                }
                self.sums[u].returns_raw = true;
                self.sums[u].ret_src = t.src.clone();
            }
            for &o in &t.origins {
                if o < self.sums[u].param_ret.len() {
                    self.sums[u].param_ret[o] = true;
                }
            }
        }
    }

    /// Caller-side flow: a Raw argument into a `param_sink` position
    /// is a finding; symbolic origins extend this fn's own summary.
    fn scan_call_args(
        &mut self,
        u: usize,
        fi: usize,
        lo: usize,
        hi: usize,
        env: &BTreeMap<String, Taint>,
        emit: bool,
    ) {
        let sites: Vec<(usize, usize, u32, u32)> = self.calls_of[u]
            .iter()
            .map(|&i| &self.g.calls[i])
            .filter(|c| c.tok >= lo && c.tok < hi)
            .map(|c| (c.tok, c.callee, c.line, c.col))
            .collect();
        for (tok, callee, line, col) in sites {
            if self.site.get(&(fi, tok)) == Some(&usize::MAX) {
                continue; // ambiguous resolution: don't trust it
            }
            let args = match self.site_args.get(&(fi, tok)) {
                Some(a) => a.clone(),
                None => continue,
            };
            // Method-style calls bind the receiver to param 0; the
            // parenthesized args start at param 1.
            let toks = &self.files[fi].scan.tokens;
            let method_style = tok > 0 && toks[tok - 1].is_punct('.');
            let offset = if method_style
                && self.g.fns[callee]
                    .params
                    .first()
                    .is_some_and(|p| p.name == "self")
            {
                1
            } else {
                0
            };
            for (j, (alo, ahi)) in args.iter().enumerate() {
                let pi = j + offset;
                if pi >= self.sums[callee].param_sink.len() || !self.sums[callee].param_sink[pi] {
                    continue;
                }
                let t = self.eval(fi, *alo, *ahi, env);
                let (chain_fns, sink_desc) = match &self.sums[callee].chains[pi] {
                    Some((fns, d)) => (fns.clone(), d.clone()),
                    None => (vec![self.displays[callee].clone()], "a sink".to_string()),
                };
                if t.kind == Kind::Raw && emit {
                    let chain = chain_fns.join(" → ");
                    let flow = format!("{} → {chain} → {sink_desc}", t.src);
                    let msg = format!(
                        "sensitive data from {} reaches {sink_desc} via `{chain}`; \
                         pass ids/counts/lengths instead, or declassify the audited \
                         boundary with `// andi::declassify(<reason>)`",
                        t.src
                    );
                    self.report(fi, line, col, "leak-to-log", msg, u, flow);
                }
                // Symbolic extension: our params reaching this arg
                // flow to the same sink, one hop longer.
                for &o in &t.origins {
                    if o < self.sums[u].param_sink.len() {
                        self.sums[u].param_sink[o] = true;
                        let mut fns = vec![self.displays[u].clone()];
                        fns.extend(chain_fns.iter().cloned());
                        let cand = (fns, sink_desc.clone());
                        let better = match &self.sums[u].chains[o] {
                            None => true,
                            Some(old) => {
                                cand.0.len() < old.0.len()
                                    || (cand.0.len() == old.0.len() && cand < *old)
                            }
                        };
                        if better {
                            self.sums[u].chains[o] = Some(cand);
                        }
                    }
                }
            }
        }
    }

    /// Local sink scan: error constructors first (their argument
    /// regions swallow nested format macros), then format macros and
    /// writer calls outside those regions.
    fn scan_sinks(&mut self, u: usize, fi: usize, env: &BTreeMap<String, Taint>, emit: bool) {
        // Take the cached site list out of `self` for the duration so
        // the `&mut self` calls below don't fight the borrow.
        let sites = std::mem::take(&mut self.sinks_of[u]);
        for s in &sites {
            self.sink_sites += 1;
            let mut t = self.eval(fi, s.lo, s.hi, env);
            // Inline captures: `format!("{x}")` never mentions `x` as
            // a token.
            for name in &s.captures {
                if let Some(b) = env.get(name) {
                    t.merge(b);
                }
            }
            self.sink_hit(u, fi, s.line, s.col, &t, &s.desc, s.is_err, emit);
        }
        self.sinks_of[u] = sites;
    }

    /// Walks one fn body for its sink sites; runs once per fn at
    /// setup (the sites are positional, so fixpoint rounds share the
    /// result via `sinks_of`).
    fn find_sinks(&self, u: usize) -> Vec<SinkSite> {
        let node = &self.g.fns[u];
        let Some((lo, hi)) = node.body else {
            return Vec::new();
        };
        if node.in_test {
            return Vec::new();
        }
        let toks = &self.files[node.file].scan.tokens;
        let in_error_fmt =
            node.name == "fmt" && node.self_of.as_deref().is_some_and(|t| t.contains("Error"));
        let mut out = Vec::new();
        let mut ctor_regions: Vec<(usize, usize)> = Vec::new();

        // Error-constructor payloads.
        let mut k = lo;
        while k + 3 < hi.min(toks.len()) {
            let is_ctor = toks[k].kind == TokenKind::Ident
                && toks[k].text.contains("Error")
                && toks[k + 1].is_punct(':')
                && toks[k + 2].is_punct(':')
                && toks[k + 3].kind == TokenKind::Ident;
            if !is_ctor {
                k += 1;
                continue;
            }
            let open = k + 4;
            let (close, region) = if toks.get(open).is_some_and(|t| t.is_punct('(')) {
                let c = matching_delim(toks, open, '(', ')');
                (c, (open + 1, c))
            } else if toks.get(open).is_some_and(|t| t.is_punct('{')) {
                let c = matching_brace(toks, open).unwrap_or(toks.len());
                (c, (open + 1, c))
            } else {
                k += 1;
                continue;
            };
            ctor_regions.push((k, close));
            out.push(SinkSite {
                lo: region.0,
                hi: region.1,
                line: toks[k].line,
                col: toks[k].col,
                desc: format!("`{}::{}` payload", toks[k].text, toks[k + 3].text),
                is_err: true,
                captures: Vec::new(),
            });
            k = open; // nested ctors inside the payload count too
        }

        // Format-family macros + writer calls.
        let mut k = lo;
        while k + 1 < hi.min(toks.len()) {
            let t0 = &toks[k];
            // `name!(…)` / `name![…]`
            if t0.kind == TokenKind::Ident
                && FORMAT_MACROS.contains(&t0.text.as_str())
                && toks[k + 1].is_punct('!')
            {
                let open = k + 2;
                let (oc, cc) = match toks.get(open) {
                    Some(t) if t.is_punct('(') => ('(', ')'),
                    Some(t) if t.is_punct('[') => ('[', ']'),
                    _ => {
                        k += 1;
                        continue;
                    }
                };
                let close = matching_delim(toks, open, oc, cc);
                if ctor_regions.iter().any(|&(a, b)| k > a && k < b) {
                    k = close; // the enclosing ctor finding covers it
                    continue;
                }
                let captures = toks[open + 1..close.min(toks.len())]
                    .iter()
                    .find(|t| t.kind == TokenKind::Str)
                    .map(|s| inline_captures(&s.text))
                    .unwrap_or_default();
                out.push(SinkSite {
                    lo: open + 1,
                    hi: close,
                    line: t0.line,
                    col: t0.col,
                    desc: format!("`{}!`", t0.text),
                    is_err: in_error_fmt,
                    captures,
                });
                k = close;
                continue;
            }
            // `.write_all(…)` / `.write_fmt(…)` / `.write_str(…)` and
            // `fs::write(…)`.
            let is_write_method = t0.is_punct('.')
                && toks
                    .get(k + 1)
                    .is_some_and(|t| WRITE_METHODS.contains(&t.text.as_str()))
                && toks.get(k + 2).is_some_and(|t| t.is_punct('('));
            let is_fs_write = t0.is_ident("fs")
                && toks.get(k + 1).is_some_and(|t| t.is_punct(':'))
                && toks.get(k + 2).is_some_and(|t| t.is_punct(':'))
                && toks.get(k + 3).is_some_and(|t| t.is_ident("write"))
                && toks.get(k + 4).is_some_and(|t| t.is_punct('('));
            if is_write_method || is_fs_write {
                let (open, name_tok) = if is_write_method {
                    (k + 2, k + 1)
                } else {
                    (k + 4, k + 3)
                };
                let close = matching_delim(toks, open, '(', ')');
                if ctor_regions.iter().any(|&(a, b)| k > a && k < b) {
                    k = close;
                    continue;
                }
                out.push(SinkSite {
                    lo: open + 1,
                    hi: close,
                    line: toks[name_tok].line,
                    col: toks[name_tok].col,
                    desc: if is_fs_write {
                        "`fs::write()`".to_string()
                    } else {
                        format!("`.{}()`", toks[name_tok].text)
                    },
                    is_err: in_error_fmt,
                    captures: Vec::new(),
                });
                k = close;
                continue;
            }
            k += 1;
        }
        out
    }

    /// Processes one evaluated sink: summary bits always; a finding
    /// or a declassified-flow record when emitting.
    #[allow(clippy::too_many_arguments)]
    fn sink_hit(
        &mut self,
        u: usize,
        fi: usize,
        line: u32,
        col: u32,
        t: &Taint,
        desc: &str,
        in_error: bool,
        emit: bool,
    ) {
        // Symbolic: params reaching this sink.
        for &o in &t.origins {
            if o < self.sums[u].param_sink.len() {
                self.sums[u].param_sink[o] = true;
                let cand = (vec![self.displays[u].clone()], desc.to_string());
                let better = match &self.sums[u].chains[o] {
                    None => true,
                    Some(old) => {
                        cand.0.len() < old.0.len() || (cand.0.len() == old.0.len() && cand < *old)
                    }
                };
                if better {
                    self.sums[u].chains[o] = Some(cand);
                }
            }
        }
        if !emit || t.kind == Kind::Clean {
            return;
        }
        let src = if t.src.is_empty() {
            "a sensitive value".to_string()
        } else {
            t.src.clone()
        };
        let flow = format!("{src} → {} → {desc}", self.displays[u]);
        let (rule, msg) = if in_error {
            (
                "leak-in-error",
                format!(
                    "sensitive data from {src} flows into {desc}; error payloads \
                     must carry ids/counts/lengths, never raw contents — or mark \
                     an audited boundary with `// andi::declassify(<reason>)`"
                ),
            )
        } else {
            (
                "leak-to-log",
                format!(
                    "sensitive data from {src} reaches {desc}; render \
                     ids/counts/lengths instead, or mark an audited boundary \
                     with `// andi::declassify(<reason>)`"
                ),
            )
        };
        self.report(fi, line, col, rule, msg, u, flow);
    }

    /// Emits a finding unless a declassify boundary covers the site
    /// (same line / line above) or the enclosing fn's signature.
    #[allow(clippy::too_many_arguments)]
    fn report(
        &mut self,
        fi: usize,
        line: u32,
        col: u32,
        rule: &'static str,
        msg: String,
        u: usize,
        flow: String,
    ) {
        if let Some(d) = self.covering_declassify(fi, line, Some(u)) {
            let slot = &mut self.declassify_used[fi][d];
            slot.0 = true;
            if !slot.1.contains(&flow) {
                slot.1.push(flow);
            }
            return;
        }
        self.findings.push(Finding {
            file: self.files[fi].path.clone(),
            line,
            col,
            rule,
            message: msg,
        });
    }

    /// Index of a valid declassify covering `line` directly, or the
    /// enclosing fn `u`'s signature/attribute lines.
    fn covering_declassify(&self, fi: usize, line: u32, u: Option<usize>) -> Option<usize> {
        let ds = &self.files[fi].scan.declassifies;
        let direct = ds
            .iter()
            .position(|d| !d.reason.is_empty() && (d.line == line || d.line + 1 == line));
        if direct.is_some() {
            return direct;
        }
        let u = u?;
        let node = &self.g.fns[u];
        if node.file != fi {
            return None;
        }
        // The fn's own line, or the line of its first attribute, or
        // the line just above either (pragma-above placement).
        let mut anchor_lines: BTreeSet<u32> = [node.line, node.line.saturating_sub(1)]
            .into_iter()
            .collect();
        let toks = &self.files[fi].scan.tokens;
        let mut item_attr_line: Option<u32> = None;
        self.files[fi].ast.visit(&mut |it: &Item| {
            if it.kind == ItemKind::Fn && it.line == node.line && it.name == node.name {
                item_attr_line = toks.get(it.attr_start).map(|t| t.line);
            }
        });
        if let Some(al) = item_attr_line {
            anchor_lines.insert(al);
            anchor_lines.insert(al.saturating_sub(1));
        }
        ds.iter()
            .position(|d| !d.reason.is_empty() && anchor_lines.contains(&d.line))
    }

    // ----- expression evaluation -----------------------------------

    /// Evaluates a token range to a taint value: environment lookups
    /// with postfix projection, constructor detection, call-summary
    /// application, and arithmetic laundering.
    fn eval(&self, fi: usize, a: usize, b: usize, env: &BTreeMap<String, Taint>) -> Taint {
        let toks = &self.files[fi].scan.tokens;
        let b = b.min(toks.len());
        let mut out = Taint::clean();
        let mut k = a;
        while k < b {
            let t = &toks[k];
            if t.kind != TokenKind::Ident {
                k += 1;
                continue;
            }
            // Field labels / ascriptions (`name:` but not `name::`)
            // are never value occurrences; projection names after `.`
            // are handled by their receiver's postfix walk (unless
            // the receiver was clean and the method resolves — see
            // the summary branch below).
            let next_colon = toks.get(k + 1).is_some_and(|n| n.is_punct(':'))
                && !toks.get(k + 2).is_some_and(|n| n.is_punct(':'));
            let prev = k.checked_sub(1).map(|i| &toks[i]);
            let after_dot = prev.is_some_and(|p| p.is_punct('.'));
            let after_colon = prev.is_some_and(|p| p.is_punct(':'));
            if !next_colon && !after_dot && !after_colon {
                // Environment binding → postfix walk.
                if let Some(binding) = env.get(&t.text) {
                    let (val, end) = self.postfix(fi, k, b, binding.clone(), env);
                    self.merge_occurrence(&mut out, val, toks, k, end);
                    k = end;
                    continue;
                }
                // Bearing-type constructor: `B { … }`, `B(…)`,
                // `B::…(…)`. `Self` inside an impl of a bearing type
                // counts.
                let ctor_ty = if self.cat.bearing.contains(&t.text) {
                    Some(t.text.clone())
                } else if t.is_ident("Self") {
                    self.cur_self
                        .as_ref()
                        .filter(|s| self.cat.bearing.contains(*s))
                        .cloned()
                } else {
                    None
                };
                if let Some(bty) = ctor_ty {
                    let nxt = toks.get(k + 1);
                    let carrier = Taint {
                        kind: Kind::Carrier([bty.clone()].into_iter().collect()),
                        origins: BTreeSet::new(),
                        src: format!("`{bty}`"),
                    };
                    if nxt.is_some_and(|n| n.is_punct('{')) {
                        // Struct literal: the value is a carrier;
                        // field initializers are evaluated by the
                        // outer walk.
                        let close = matching_brace(toks, k + 1).unwrap_or(b);
                        let (val, end) = self.postfix_from(fi, close + 1, b, carrier, env);
                        self.merge_occurrence(&mut out, val, toks, k, end);
                        k += 2; // walk the initializers too
                        continue;
                    }
                    if nxt.is_some_and(|n| n.is_punct('(')) {
                        // Tuple-struct ctor `B(…)`.
                        let close = matching_delim(toks, k + 1, '(', ')');
                        let (val, end) = self.postfix_from(fi, close + 1, b, carrier, env);
                        self.merge_occurrence(&mut out, val, toks, k, end);
                        k += 2; // evaluate arguments too
                        continue;
                    }
                    if nxt.is_some_and(|n| n.is_punct(':'))
                        && toks.get(k + 2).is_some_and(|n| n.is_punct(':'))
                        && toks.get(k + 3).is_some_and(|n| n.kind == TokenKind::Ident)
                    {
                        // `B::ctor(…)`: a resolved call summary takes
                        // precedence (it may return Raw); otherwise
                        // assume the result carries `B`.
                        let name_tok = k + 3;
                        if let Some(open) = call_paren(toks, name_tok, b) {
                            let close = matching_delim(toks, open, '(', ')');
                            let val = match self.resolved(fi, name_tok) {
                                Some(cu) => self.call_result(fi, cu, open, close, env, carrier),
                                None => carrier,
                            };
                            let (val, end) = self.postfix_from(fi, close + 1, b, val, env);
                            self.merge_occurrence(&mut out, val, toks, k, end);
                            k = open + 1; // evaluate arguments too
                            continue;
                        }
                        k += 3;
                        continue;
                    }
                    k += 1;
                    continue;
                }
            }
            // Resolved call at this name token — free fn, path tail
            // (`mod::f(…)`), or method on a clean/unbound receiver.
            // The callee summary replaces the argument walk: an
            // argument only flows out through `param_ret`.
            if !next_colon {
                if let Some(cu) = self.resolved(fi, k) {
                    if let Some(open) = call_paren(toks, k, b) {
                        let close = matching_delim(toks, open, '(', ')');
                        let val = self.call_result(fi, cu, open, close, env, Taint::clean());
                        let (val, end) = self.postfix_from(fi, close + 1, b, val, env);
                        self.merge_occurrence(&mut out, val, toks, k, end);
                        k = close + 1;
                        continue;
                    }
                }
            }
            k += 1;
        }
        out
    }

    /// Applies a resolved callee's summary at a call whose argument
    /// parens span `(open, close)`.
    fn call_result(
        &self,
        fi: usize,
        callee: usize,
        open: usize,
        close: usize,
        env: &BTreeMap<String, Taint>,
        base: Taint,
    ) -> Taint {
        let mut out = base;
        let s = &self.sums[callee];
        let node = &self.g.fns[callee];
        if s.returns_raw {
            out.merge(&Taint {
                kind: Kind::Raw,
                origins: BTreeSet::new(),
                src: if s.ret_src.is_empty() {
                    format!("`{}`", self.displays[callee])
                } else {
                    s.ret_src.clone()
                },
            });
        }
        // Cached bearing mentions of the return type (`-> Self` on a
        // bearing type's method already resolved at setup).
        let ret_m = &self.ret_mentions[callee];
        if !ret_m.is_empty() {
            out.merge(&Taint {
                kind: Kind::Carrier(ret_m.clone()),
                origins: BTreeSet::new(),
                src: format!("`{}`", self.displays[callee]),
            });
        }
        // Identity-ish params: a tainted argument in a `param_ret`
        // position flows into the result.
        if s.param_ret.iter().any(|&x| x) {
            let toks = &self.files[fi].scan.tokens;
            let method_style = open >= 2 && toks[open - 2].is_punct('.');
            let offset = if method_style && node.params.first().is_some_and(|p| p.name == "self") {
                1
            } else {
                0
            };
            for (j, (alo, ahi)) in split_args(toks, open + 1, close).iter().enumerate() {
                let pi = j + offset;
                if pi < s.param_ret.len() && s.param_ret[pi] {
                    let at = self.eval(fi, *alo, *ahi, env);
                    out.merge(&at);
                }
            }
        }
        out
    }

    /// Unique resolved callee for the call-name token at `tok`.
    fn resolved(&self, fi: usize, tok: usize) -> Option<usize> {
        match self.site_by_tok[fi].get(tok) {
            Some(&i) if i != u32::MAX => Some(self.g.calls[i as usize].callee),
            _ => None,
        }
    }

    /// Postfix walk starting from the token *after* an occurrence at
    /// `k` (an ident); returns the final value and the exclusive end.
    fn postfix(
        &self,
        fi: usize,
        k: usize,
        b: usize,
        start: Taint,
        env: &BTreeMap<String, Taint>,
    ) -> (Taint, usize) {
        self.postfix_from(fi, k + 1, b, start, env)
    }

    /// Postfix walk from position `j`: `.field`, `.method(args)`,
    /// `[index]`, and `?` transform the value per the projection
    /// rules.
    fn postfix_from(
        &self,
        fi: usize,
        mut j: usize,
        b: usize,
        mut val: Taint,
        env: &BTreeMap<String, Taint>,
    ) -> (Taint, usize) {
        let toks = &self.files[fi].scan.tokens;
        let b = b.min(toks.len());
        while j < b {
            let t = &toks[j];
            if t.is_punct('?') {
                j += 1;
                continue;
            }
            if t.is_punct('[') {
                // Element access keeps the value (an element of a
                // carrier collection is what the `Into` set names).
                let close = matching_delim(toks, j, '[', ']');
                j = close + 1;
                continue;
            }
            if t.is_punct('.') && j + 1 < b {
                let m = &toks[j + 1];
                let mname = m.text.clone();
                let is_call = toks.get(j + 2).is_some_and(|t| t.is_punct('('))
                    || (toks.get(j + 2).is_some_and(|t| t.is_punct(':'))
                        && call_paren(toks, j + 1, b).is_some());
                if m.kind == TokenKind::Number {
                    // Tuple projection: fields of tuple structs are
                    // not in the tables; whole-annotated types leak.
                    val = self.project(&val, &mname);
                    j += 2;
                    continue;
                }
                if m.kind != TokenKind::Ident {
                    break;
                }
                if !is_call {
                    val = self.project(&val, &mname);
                    j += 2;
                    continue;
                }
                let open = call_paren(toks, j + 1, b).unwrap_or(j + 2);
                let close = matching_delim(toks, open, '(', ')');
                // Resolved method summaries take precedence over the
                // token-level projection rules.
                if let Some(cu) = self.resolved(fi, j + 1) {
                    val = self.call_result(fi, cu, open, close, env, {
                        // The receiver still projects: `db.relabel()`
                        // on a carrier yields whatever the summary
                        // says, starting clean.
                        Taint::clean()
                    });
                } else {
                    val = self.project(&val, &mname);
                }
                // Arguments can flow into the result (`s.replace(raw,
                // "")`), except for membership/search methods and
                // closures — a `.map(|x| …)` body transforms elements
                // (the receiver chain models that flow) and its own
                // sinks are scanned by the enclosing fn's sink pass.
                if !CLEAN_ARG_METHODS.contains(&mname.as_str()) {
                    for (alo, ahi) in split_args(toks, open + 1, close) {
                        let is_closure = toks
                            .get(alo)
                            .is_some_and(|t| t.is_punct('|') || t.is_ident("move"));
                        if is_closure {
                            continue;
                        }
                        let at = self.eval(fi, alo, ahi, env);
                        if at.kind != Kind::Clean {
                            val.merge(&at);
                        }
                    }
                }
                j = close + 1;
                continue;
            }
            break;
        }
        (val, j)
    }

    /// Projection rules: what `val.name` / `val.name()` yields.
    fn project(&self, val: &Taint, name: &str) -> Taint {
        match &val.kind {
            Kind::Clean => {
                let mut v = val.clone();
                // On an untyped symbol only identity-like projections
                // still denote "the same data"; any other method is a
                // derivation, i.e. an aggregate — drop the symbolic
                // origins so `param_ret` stays meaningful.
                if !ELEMENT_KEEP.contains(&name) {
                    v.origins.clear();
                }
                v
            }
            Kind::Raw => {
                if CLEAN_AGGREGATES.contains(&name) {
                    Taint::clean()
                } else {
                    val.clone()
                }
            }
            Kind::Carrier(types) => {
                for ty in types {
                    match self.cat.proj.get(&(ty.clone(), name.to_string())) {
                        Some(Proj::Leaf) => {
                            return Taint {
                                kind: Kind::Raw,
                                origins: val.origins.clone(),
                                src: format!("`{ty}::{name}`"),
                            }
                        }
                        Some(Proj::Into(m)) => {
                            return Taint {
                                kind: Kind::Carrier(m.clone()),
                                origins: val.origins.clone(),
                                src: format!("`{ty}::{name}`"),
                            }
                        }
                        None => {}
                    }
                }
                if types.iter().any(|t| self.cat.whole.contains(t)) {
                    if CLEAN_AGGREGATES.contains(&name) {
                        return Taint::clean();
                    }
                    return Taint {
                        kind: Kind::Raw,
                        origins: val.origins.clone(),
                        src: val.src.clone(),
                    };
                }
                if ELEMENT_KEEP.contains(&name) {
                    return val.clone();
                }
                // Unknown member on a carrier: a derivation, i.e. an
                // aggregate over the carried data — clean, and the
                // symbolic origins do not survive either.
                Taint::clean()
            }
        }
    }

    /// Merges one occurrence into the running value, laundering
    /// through adjacent arithmetic/comparison operators: a number
    /// *computed from* sensitive data is an aggregate, not a leak.
    fn merge_occurrence(&self, out: &mut Taint, val: Taint, toks: &[Token], k: usize, end: usize) {
        if val.is_clean() {
            return;
        }
        let arith = |i: usize, prefix: bool| -> bool {
            let Some(t) = toks.get(i) else { return false };
            if t.kind != TokenKind::Punct {
                return false;
            }
            match t.text.chars().next() {
                Some('+') | Some('/') | Some('%') | Some('<') | Some('>') => true,
                Some(c @ ('-' | '*')) => {
                    if !prefix {
                        return true; // `x -`, `x *`: always infix
                    }
                    // `- x` / `* x`: infix only when something
                    // precedes the operator (else negation/deref).
                    let _ = c;
                    i.checked_sub(1).is_some_and(|p| {
                        let pt = &toks[p];
                        pt.kind == TokenKind::Ident
                            || pt.kind == TokenKind::Number
                            || pt.is_punct(')')
                            || pt.is_punct(']')
                    })
                }
                _ => false,
            }
        };
        if k.checked_sub(1).is_some_and(|p| arith(p, true)) || arith(end, false) {
            return; // laundered
        }
        if std::env::var_os("ANDI_TAINT_DEBUG").is_some() {
            eprintln!(
                "[taint] {}:{} tok `{}` -> {:?} origins {:?} src {}",
                self.files.first().map(|_| "").unwrap_or(""),
                toks[k].line,
                toks[k].text,
                val.kind,
                val.origins,
                val.src
            );
        }
        out.merge(&val);
    }

    // ----- sensitive-debug -----------------------------------------

    /// `#[derive(Debug)]` / manual `impl Debug` on a directly
    /// annotated type without declassification.
    fn sensitive_debug(&mut self) {
        // One token sweep per file; every directly annotated type is
        // checked against each candidate site as it is found.
        let direct = self.cat.direct.clone();
        for (fi, sf) in self.files.iter().enumerate() {
            let toks = &sf.scan.tokens;
            // (type, line, col, in-test mask)
            let mut sites: Vec<(String, u32, u32, bool)> = Vec::new();
            for k in 0..toks.len() {
                // Derive site: the `Debug` token inside a `derive`
                // attribute directly above `struct ty` / `enum ty`.
                if toks[k].is_ident("derive") && toks.get(k + 1).is_some_and(|t| t.is_punct('(')) {
                    let close = matching_delim(toks, k + 1, '(', ')');
                    let Some(d) = toks[k + 2..close.min(toks.len())]
                        .iter()
                        .find(|t| t.is_ident("Debug"))
                    else {
                        continue;
                    };
                    // The derive must belong to an annotated type: the
                    // next `struct`/`enum` ident after the attr.
                    let mut j = close + 1;
                    while j + 1 < toks.len() && j < close + 24 {
                        if (toks[j].is_ident("struct") || toks[j].is_ident("enum"))
                            && toks[j + 1].kind == TokenKind::Ident
                        {
                            if direct.contains(&toks[j + 1].text) {
                                sites.push((
                                    toks[j + 1].text.clone(),
                                    d.line,
                                    d.col,
                                    sf.mask.get(k).copied().unwrap_or(false),
                                ));
                            }
                            break;
                        }
                        j += 1;
                    }
                }
                // Manual impl: `impl [fmt::]Debug for ty`.
                if toks[k].is_ident("Debug")
                    && toks.get(k + 1).is_some_and(|t| t.is_ident("for"))
                    && toks
                        .get(k + 2)
                        .is_some_and(|t| t.kind == TokenKind::Ident && direct.contains(&t.text))
                {
                    sites.push((
                        toks[k + 2].text.clone(),
                        toks[k].line,
                        toks[k].col,
                        sf.mask.get(k).copied().unwrap_or(false),
                    ));
                }
            }
            for (ty, line, col, masked) in sites {
                if masked {
                    continue; // test-only impls are fine
                }
                let msg = format!(
                    "sensitive type `{ty}` derives or implements `Debug` without \
                     declassification; a `{{:?}}` render discloses raw contents — \
                     remove it or add `// andi::declassify(<reason>)`"
                );
                let flow = format!("`{ty}` → `Debug` → `{{:?}}` render");
                if let Some(d) = self.covering_declassify(fi, line, None) {
                    let slot = &mut self.declassify_used[fi][d];
                    slot.0 = true;
                    if !slot.1.contains(&flow) {
                        slot.1.push(flow);
                    }
                } else {
                    self.findings.push(Finding {
                        file: self.files[fi].path.clone(),
                        line,
                        col,
                        rule: "sensitive-debug",
                        message: msg,
                    });
                }
            }
        }
    }

    // ----- hygiene + assembly --------------------------------------

    fn declassify_hygiene(&mut self) {
        for (fi, sf) in self.files.iter().enumerate() {
            for (di, d) in sf.scan.declassifies.iter().enumerate() {
                if d.reason.is_empty() {
                    self.hygiene.push(Finding {
                        file: sf.path.clone(),
                        line: d.line,
                        col: 1,
                        rule: "invalid-pragma",
                        message: "andi::declassify requires an audit reason inside \
                                  the parentheses: `// andi::declassify(<reason>)`"
                            .to_string(),
                    });
                } else if !self.declassify_used[fi][di].0 {
                    self.hygiene.push(Finding {
                        file: sf.path.clone(),
                        line: d.line,
                        col: 1,
                        rule: "unused-pragma",
                        message: "andi::declassify sanctions no sensitive flow; \
                                  delete it (stale declassifications hide future leaks)"
                            .to_string(),
                    });
                }
            }
        }
    }

    fn finish(self) -> TaintReport {
        let mut declassifies = Vec::new();
        for (fi, sf) in self.files.iter().enumerate() {
            for (di, d) in sf.scan.declassifies.iter().enumerate() {
                if d.reason.is_empty() {
                    continue;
                }
                let mut flows = self.declassify_used[fi][di].1.clone();
                flows.sort();
                flows.dedup();
                declassifies.push(DeclassifySite {
                    file: sf.path.clone(),
                    line: d.line,
                    reason: d.reason.clone(),
                    flows,
                });
            }
        }
        let mut findings = self.findings;
        findings.sort_by(|x, y| {
            (&x.file, x.line, x.col, x.rule, &x.message)
                .cmp(&(&y.file, y.line, y.col, y.rule, &y.message))
        });
        findings.dedup();
        let mut hygiene = self.hygiene;
        hygiene.sort_by(|x, y| {
            (&x.file, x.line, x.col, x.rule, &x.message)
                .cmp(&(&y.file, y.line, y.col, y.rule, &y.message))
        });
        hygiene.dedup();
        TaintReport {
            findings,
            hygiene,
            stats: TaintStats {
                sensitive_types: self.cat.direct.iter().cloned().collect(),
                sensitive_members: self.cat.members,
                bearing_types: self.cat.bearing.iter().cloned().collect(),
                fns_analyzed: self
                    .g
                    .fns
                    .iter()
                    .filter(|f| f.body.is_some() && !f.in_test)
                    .count(),
                raw_returning_fns: self.sums.iter().filter(|s| s.returns_raw).count(),
                sink_sites: self.sink_sites,
                declassifies,
            },
        }
    }
}

/// Receiver-mutating methods through which taint enters a local
/// collection/string (`buf.push_str(raw)`).
const MUTATORS: &[&str] = &["push", "push_str", "insert", "extend", "append"];

/// Matching close delimiter for `open` (same-kind nesting), or the
/// token count when unbalanced.
fn matching_delim(toks: &[Token], open: usize, oc: char, cc: char) -> usize {
    let mut depth = 0i64;
    for (j, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct(oc) {
            depth += 1;
        } else if t.is_punct(cc) {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
    }
    toks.len()
}

/// Top-level `:` (type ascription) in a `let` pattern segment.
fn top_level_colon(seg: &[Token]) -> Option<usize> {
    let mut depth = 0i64;
    for (k, t) in seg.iter().enumerate() {
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('<') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('>') {
            depth -= 1;
        } else if depth <= 0 && t.is_punct(':') {
            return Some(k);
        }
    }
    None
}

/// Identifier names captured inline in a format string literal:
/// `"{x}"`, `"{x:?}"`, `"{x:>8}"`. `{{` escapes are skipped;
/// positional `{}` / `{0}` captures refer to the argument list,
/// which the token walk already covers.
fn inline_captures(lit: &str) -> Vec<String> {
    let bytes: Vec<char> = lit.chars().collect();
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < bytes.len() {
        if bytes[i] != '{' {
            i += 1;
            continue;
        }
        if bytes.get(i + 1) == Some(&'{') {
            i += 2; // escaped brace
            continue;
        }
        let mut j = i + 1;
        let mut name = String::new();
        while j < bytes.len() && (bytes[j] == '_' || bytes[j].is_alphanumeric()) {
            name.push(bytes[j]);
            j += 1;
        }
        let terminated = bytes.get(j) == Some(&'}') || bytes.get(j) == Some(&':');
        if terminated && !name.is_empty() && !name.chars().next().unwrap().is_ascii_digit() {
            out.push(name);
        }
        i = j + 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::build;

    fn run(src: &str) -> TaintReport {
        let files = vec![SourceFile::new("crates/core/src/t.rs", src)];
        let g = build(&files);
        analyze(&files, &g)
    }

    fn rules(r: &TaintReport) -> Vec<&'static str> {
        r.findings.iter().map(|f| f.rule).collect()
    }

    const SENSITIVE_STRUCT: &str = "pub struct Txn {\n    // andi::sensitive — raw items\n    items: Vec<u64>,\n}\nimpl Txn {\n    pub fn items(&self) -> &[u64] { &self.items }\n    pub fn len(&self) -> usize { self.items.len() }\n}\n";

    #[test]
    fn direct_leak_is_flagged_with_source_and_sink() {
        let src = format!(
            "{SENSITIVE_STRUCT}pub fn show(t: &Txn) -> String {{\n    format!(\"{{:?}}\", t.items())\n}}\n"
        );
        let r = run(&src);
        assert_eq!(rules(&r), vec!["leak-to-log"]);
        let m = &r.findings[0].message;
        assert!(m.contains("Txn::items"), "source named: {m}");
        assert!(m.contains("`format!`"), "sink named: {m}");
    }

    #[test]
    fn aggregates_are_laundered() {
        let src = format!(
            "{SENSITIVE_STRUCT}pub fn stats(t: &Txn) -> String {{\n    let n = t.len();\n    let s: u64 = t.items().iter().sum::<u64>() / 2;\n    format!(\"n={{n}} s={{s}}\")\n}}\n"
        );
        let r = run(&src);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }

    #[test]
    fn inline_capture_leak_is_flagged() {
        let src = format!(
            "{SENSITIVE_STRUCT}pub fn show(t: &Txn) -> String {{\n    let raw = t.items();\n    format!(\"{{raw:?}}\")\n}}\n"
        );
        let r = run(&src);
        assert_eq!(rules(&r), vec!["leak-to-log"]);
    }

    #[test]
    fn declassify_sanctions_and_is_tracked() {
        let src = format!(
            "{SENSITIVE_STRUCT}pub fn export(t: &Txn) -> String {{\n    // andi::declassify(audited corpus export)\n    format!(\"{{:?}}\", t.items())\n}}\n"
        );
        let r = run(&src);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
        assert!(r.hygiene.is_empty(), "{:?}", r.hygiene);
        assert_eq!(r.stats.declassifies.len(), 1);
        assert_eq!(r.stats.declassifies[0].reason, "audited corpus export");
        assert_eq!(r.stats.declassifies[0].flows.len(), 1);
    }

    #[test]
    fn unused_declassify_is_hygiene() {
        let src = format!(
            "{SENSITIVE_STRUCT}pub fn clean(t: &Txn) -> String {{\n    // andi::declassify(nothing flows here)\n    format!(\"n={{}}\", t.len())\n}}\n"
        );
        let r = run(&src);
        assert!(r.findings.is_empty());
        assert_eq!(r.hygiene.len(), 1);
        assert_eq!(r.hygiene[0].rule, "unused-pragma");
    }

    #[test]
    fn interprocedural_flow_reports_the_chain() {
        let src = format!(
            "{SENSITIVE_STRUCT}fn log_line(msg: &str) {{\n    println!(\"{{msg}}\");\n}}\npub fn trace(t: &Txn) {{\n    let raw = format!(\"{{:?}}\", t.items());\n    log_line(&raw);\n}}\n"
        );
        let r = run(&src);
        // Two findings: the local format! and the call-site flow.
        assert!(rules(&r).contains(&"leak-to-log"), "{:?}", r.findings);
        assert!(
            r.findings.iter().any(|f| f.message.contains("log_line")),
            "chain names the callee: {:?}",
            r.findings
        );
    }

    #[test]
    fn error_payload_leak_is_leak_in_error() {
        let src = format!(
            "{SENSITIVE_STRUCT}pub enum MyError {{ Bad(String) }}\npub fn fail(t: &Txn) -> MyError {{\n    MyError::Bad(format!(\"{{:?}}\", t.items()))\n}}\n"
        );
        let r = run(&src);
        assert_eq!(rules(&r), vec!["leak-in-error"]);
    }

    #[test]
    fn sensitive_debug_fires_without_declassify() {
        let src =
            "#[derive(Debug)]\npub struct Txn {\n    // andi::sensitive\n    items: Vec<u64>,\n}\n";
        let r = run(src);
        assert_eq!(rules(&r), vec!["sensitive-debug"]);
    }

    #[test]
    fn declassified_debug_is_sanctioned() {
        let src = "// andi::declassify(debug for test diagnostics only)\n#[derive(Debug)]\npub struct Txn {\n    // andi::sensitive\n    items: Vec<u64>,\n}\n";
        let r = run(src);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
        assert_eq!(r.stats.declassifies.len(), 1);
    }

    #[test]
    fn carrier_projections_default_clean() {
        let src = format!(
            "pub struct Db {{\n    n: usize,\n    // andi::sensitive\n    txns: Vec<Txn>,\n}}\n{SENSITIVE_STRUCT}impl Db {{\n    pub fn n(&self) -> usize {{ self.n }}\n}}\npub fn describe(db: &Db) -> String {{\n    format!(\"{{}} txns\", db.n())\n}}\n"
        );
        let r = run(&src);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }

    #[test]
    fn bearing_closure_carries_through_wrappers() {
        let src = format!(
            "{SENSITIVE_STRUCT}pub struct Wrap {{\n    inner: Vec<Txn>,\n}}\npub fn dump(w: &Wrap) {{\n    for t in &w.inner {{\n        println!(\"{{:?}}\", t.items());\n    }}\n}}\n"
        );
        let r = run(&src);
        assert_eq!(rules(&r), vec!["leak-to-log"]);
    }

    #[test]
    fn invalid_sensitive_mark_is_hygiene() {
        let r = run("// andi::sensitive\n\nfn unrelated() {}\n");
        assert_eq!(r.hygiene.len(), 1);
        assert_eq!(r.hygiene[0].rule, "invalid-pragma");
    }

    #[test]
    fn write_all_is_a_sink() {
        let src = format!(
            "{SENSITIVE_STRUCT}use std::io::Write;\npub fn save(t: &Txn, w: &mut impl Write) {{\n    let mut line = String::new();\n    for x in t.items() {{\n        line.push_str(&x.to_string());\n    }}\n    w.write_all(line.as_bytes()).unwrap();\n}}\n"
        );
        let r = run(&src);
        assert_eq!(rules(&r), vec!["leak-to-log"]);
        assert!(r.findings[0].message.contains("write_all"));
    }

    #[test]
    fn inline_captures_parse() {
        assert_eq!(
            inline_captures("\"a {x} b {y:?} {{esc}} {0} {} {z:>8}\""),
            vec!["x", "y", "z"]
        );
    }
}
