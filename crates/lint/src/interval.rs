//! Integer-interval abstract interpretation over fn bodies: the
//! engine behind `unchecked-width` and `assume-soundness`.
//!
//! The domain is `[lo, hi]` over `i128` with explicit infinities
//! ([`Bound`]), clamped through Rust's integer types ([`Ty`]). The
//! prover walks each fn body top to bottom, tracking an abstract
//! environment of variable → [`Val`] (interval + type), seeded by
//! parameter types, const generics, workspace `const`s, and
//! `// andi::assume(…)` contracts ([`crate::contracts`]).
//!
//! Inside a fn marked `// andi::prove_no_overflow`, every `+ - * <<`
//! and unary `-` (including `+= -= *= <<=`) must have a computed
//! interval that provably fits its type, or `unchecked-width` fires
//! with the computed interval and the offending op. Every `assume`
//! anywhere must be dominated by a runtime guard (`assert!` family or
//! a `match`) mentioning each free identifier of its target, or
//! `assume-soundness` fires — that is what keeps contracts from
//! drifting away from the code they describe.
//!
//! Soundness posture: the walker is conservative. Unknown constructs
//! evaluate to ⊤, written variables are widened to their type range
//! across loop iterations (assumes re-narrow them), closures and
//! `match` arms are opaque (their writes widen, their ops are not
//! checked), and only unambiguous call-graph edges propagate return
//! intervals. The checked-op list is exactly the set of ops that can
//! overflow in release builds without a guard: `+ - * <<` and `neg`;
//! `& | ^ >> / %` and the `wrapping_/checked_/saturating_` method
//! families cannot, and are used as *sources* of bounds instead.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use crate::contracts::{self, Assume, Contract};
use crate::graph::{
    self, adjacent, brace_after, is_assign_eq, matching, stmt_end, CallGraph, SourceFile,
};
use crate::lexer::{Token, TokenKind};
use crate::rules::Finding;

// ---------------------------------------------------------------
// Bounds and intervals
// ---------------------------------------------------------------

/// One end of an interval: finite `i128` or an infinity.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Bound {
    /// −∞.
    NegInf,
    /// A finite value.
    Fin(i128),
    /// +∞.
    PosInf,
}

use Bound::{Fin, NegInf, PosInf};

impl PartialOrd for Bound {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Bound {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        use std::cmp::Ordering::*;
        match (self, other) {
            (NegInf, NegInf) | (PosInf, PosInf) => Equal,
            (NegInf, _) | (_, PosInf) => Less,
            (_, NegInf) | (PosInf, _) => Greater,
            (Fin(a), Fin(b)) => a.cmp(b),
        }
    }
}

impl fmt::Display for Bound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NegInf => write!(f, "-inf"),
            PosInf => write!(f, "+inf"),
            Fin(v) => write!(f, "{v}"),
        }
    }
}

/// A closed integer interval `[lo, hi]`; `lo ≤ hi` always holds for
/// values built through the constructors.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interval {
    /// Inclusive lower bound (never `PosInf`).
    pub lo: Bound,
    /// Inclusive upper bound (never `NegInf`).
    pub hi: Bound,
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {}]", self.lo, self.hi)
    }
}

/// The whole line: `[-inf, +inf]`.
pub const TOP: Interval = Interval {
    lo: NegInf,
    hi: PosInf,
};

// The abstract transfer functions deliberately mirror the operator
// names they model (`add`, `shl`, …); implementing the std operator
// traits instead would hide the interval semantics behind sugar.
#[allow(clippy::should_implement_trait)]
impl Interval {
    /// `[v, v]`.
    pub fn exact(v: i128) -> Interval {
        Interval {
            lo: Fin(v),
            hi: Fin(v),
        }
    }

    /// `[lo, hi]` from finite bounds.
    pub fn fin(lo: i128, hi: i128) -> Interval {
        debug_assert!(lo <= hi);
        Interval {
            lo: Fin(lo),
            hi: Fin(hi),
        }
    }

    /// Smallest interval containing both.
    pub fn union(self, o: Interval) -> Interval {
        Interval {
            lo: self.lo.min(o.lo),
            hi: self.hi.max(o.hi),
        }
    }

    /// Intersection, `None` when empty.
    pub fn meet(self, o: Interval) -> Option<Interval> {
        let lo = self.lo.max(o.lo);
        let hi = self.hi.min(o.hi);
        (lo <= hi).then_some(Interval { lo, hi })
    }

    /// Whether every point of `self` lies inside `o`.
    pub fn within(self, o: Interval) -> bool {
        o.lo <= self.lo && self.hi <= o.hi
    }

    fn nonneg(self) -> bool {
        Fin(0) <= self.lo
    }

    /// Sum; any i128 overflow widens that side to its infinity.
    pub fn add(self, o: Interval) -> Interval {
        Interval {
            lo: badd(self.lo, o.lo, NegInf),
            hi: badd(self.hi, o.hi, PosInf),
        }
    }

    /// Difference.
    pub fn sub(self, o: Interval) -> Interval {
        Interval {
            lo: badd(self.lo, bneg(o.hi), NegInf),
            hi: badd(self.hi, bneg(o.lo), PosInf),
        }
    }

    /// Product: min/max over the four corners, `0 × ∞ = 0`.
    pub fn mul(self, o: Interval) -> Interval {
        let cs = [
            bmul(self.lo, o.lo),
            bmul(self.lo, o.hi),
            bmul(self.hi, o.lo),
            bmul(self.hi, o.hi),
        ];
        Interval {
            lo: cs.iter().copied().min().unwrap_or(NegInf),
            hi: cs.iter().copied().max().unwrap_or(PosInf),
        }
    }

    /// Negation.
    pub fn neg(self) -> Interval {
        Interval {
            lo: bneg(self.hi),
            hi: bneg(self.lo),
        }
    }

    /// `|x|`.
    pub fn abs_(self) -> Interval {
        if self.nonneg() {
            return self;
        }
        let n = self.neg();
        if Fin(0) <= n.lo {
            return n;
        }
        Interval {
            lo: Fin(0),
            hi: self.hi.max(n.hi),
        }
    }

    /// Left shift `self << s` (shift clamped to `[0, 127]`).
    pub fn shl(self, s: Interval) -> Interval {
        let (slo, shi) = clamp_shift(s);
        let cs = [
            bshl(self.lo, slo),
            bshl(self.lo, shi),
            bshl(self.hi, slo),
            bshl(self.hi, shi),
        ];
        Interval {
            lo: cs.iter().copied().min().unwrap_or(NegInf),
            hi: cs.iter().copied().max().unwrap_or(PosInf),
        }
    }

    /// Right shift, non-negative operand only (else ⊤-ish widening).
    pub fn shr(self, s: Interval) -> Interval {
        let (slo, _shi) = clamp_shift(s);
        if !self.nonneg() {
            return TOP;
        }
        let hi = match self.hi {
            Fin(h) => Fin(h >> slo.min(127)),
            b => b,
        };
        Interval { lo: Fin(0), hi }
    }

    /// `x & m`: when either side is known non-negative with a finite
    /// upper bound `M`, the result is `[0, M]` regardless of the
    /// other operand (two's complement AND cannot exceed a
    /// non-negative operand).
    pub fn and_mask(self, o: Interval) -> Interval {
        let cap = |iv: Interval| -> Option<i128> {
            match (iv.nonneg(), iv.hi) {
                (true, Fin(h)) => Some(h),
                _ => None,
            }
        };
        match (cap(self), cap(o)) {
            (Some(a), Some(b)) => Interval::fin(0, a.min(b)),
            (Some(a), None) => Interval::fin(0, a),
            (None, Some(b)) => Interval::fin(0, b),
            (None, None) => TOP,
        }
    }

    /// `x | m` / `x ^ m` for non-negative finite operands: bounded by
    /// the next power of two above either maximum.
    pub fn or_like(self, o: Interval) -> Interval {
        match (self.nonneg(), self.hi, o.nonneg(), o.hi) {
            (true, Fin(a), true, Fin(b)) => {
                let m = a.max(b).max(0) as u128;
                let cap = m
                    .checked_next_power_of_two()
                    .and_then(|p| p.checked_mul(2))
                    .map_or(PosInf, |p| Fin((p - 1).min(i128::MAX as u128) as i128));
                Interval {
                    lo: Fin(0),
                    hi: cap,
                }
            }
            _ => TOP,
        }
    }

    /// `x % m` with `m ≥ 1`: `[0, m.hi − 1]` for non-negative `x`,
    /// `[−(m.hi − 1), m.hi − 1]` otherwise.
    pub fn rem(self, m: Interval) -> Interval {
        let Fin(mh) = m.hi else { return TOP };
        if m.lo < Fin(1) || mh < 1 {
            return TOP;
        }
        if self.nonneg() {
            // A remainder never exceeds the dividend either.
            let hi = match self.hi {
                Fin(h) => h.min(mh - 1),
                _ => mh - 1,
            };
            Interval::fin(0, hi)
        } else {
            Interval::fin(-(mh - 1), mh - 1)
        }
    }

    /// Pointwise `min`.
    pub fn min_(self, o: Interval) -> Interval {
        Interval {
            lo: self.lo.min(o.lo),
            hi: self.hi.min(o.hi),
        }
    }

    /// Pointwise `max`.
    pub fn max_(self, o: Interval) -> Interval {
        Interval {
            lo: self.lo.max(o.lo),
            hi: self.hi.max(o.hi),
        }
    }
}

/// Bound addition; on i128 overflow (or mixed infinities) falls to
/// `widen` — callers pass the sound direction for the side they are
/// computing.
fn badd(a: Bound, b: Bound, widen: Bound) -> Bound {
    match (a, b) {
        (Fin(x), Fin(y)) => x.checked_add(y).map(Fin).unwrap_or(widen),
        (NegInf, PosInf) | (PosInf, NegInf) => widen,
        (NegInf, _) | (_, NegInf) => NegInf,
        (PosInf, _) | (_, PosInf) => PosInf,
    }
}

fn bneg(a: Bound) -> Bound {
    match a {
        NegInf => PosInf,
        PosInf => NegInf,
        Fin(v) => v.checked_neg().map(Fin).unwrap_or(PosInf),
    }
}

fn bmul(a: Bound, b: Bound) -> Bound {
    let sign = |b: Bound| match b {
        NegInf => -1,
        PosInf => 1,
        Fin(v) => v.signum() as i32,
    };
    match (a, b) {
        (Fin(0), _) | (_, Fin(0)) => Fin(0),
        (Fin(x), Fin(y)) => x.checked_mul(y).map(Fin).unwrap_or_else(|| {
            if (x < 0) ^ (y < 0) {
                NegInf
            } else {
                PosInf
            }
        }),
        _ => {
            if sign(a) * sign(b) < 0 {
                NegInf
            } else {
                PosInf
            }
        }
    }
}

fn bshl(a: Bound, s: u32) -> Bound {
    match a {
        Fin(x) => match x.checked_shl(s) {
            Some(r) if (r >> s) == x => Fin(r),
            _ => {
                if x < 0 {
                    NegInf
                } else {
                    PosInf
                }
            }
        },
        b => b,
    }
}

/// Shift amounts clamped into `[0, 127]` (a shift ≥ width is already
/// caught by the fit check on the operand type).
fn clamp_shift(s: Interval) -> (u32, u32) {
    let c = |b: Bound, dflt: u32| match b {
        Fin(v) => v.clamp(0, 127) as u32,
        _ => dflt,
    };
    (c(s.lo, 0), c(s.hi, 127))
}

// ---------------------------------------------------------------
// Types
// ---------------------------------------------------------------

/// A Rust integer type the prover clamps through.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
#[allow(missing_docs)]
pub enum Ty {
    I8,
    I16,
    I32,
    I64,
    I128,
    Isize,
    U8,
    U16,
    U32,
    U64,
    U128,
    Usize,
}

impl Ty {
    /// Parses a scalar type name.
    pub fn parse(s: &str) -> Option<Ty> {
        Some(match s {
            "i8" => Ty::I8,
            "i16" => Ty::I16,
            "i32" => Ty::I32,
            "i64" => Ty::I64,
            "i128" => Ty::I128,
            "isize" => Ty::Isize,
            "u8" => Ty::U8,
            "u16" => Ty::U16,
            "u32" => Ty::U32,
            "u64" => Ty::U64,
            "u128" => Ty::U128,
            "usize" => Ty::Usize,
            _ => return None,
        })
    }

    /// Bit width; `usize`/`isize` assume the 64-bit targets this
    /// workspace ships on (CI runs x86-64/aarch64).
    pub fn bits(self) -> u32 {
        match self {
            Ty::I8 | Ty::U8 => 8,
            Ty::I16 | Ty::U16 => 16,
            Ty::I32 | Ty::U32 => 32,
            Ty::I64 | Ty::U64 | Ty::Isize | Ty::Usize => 64,
            Ty::I128 | Ty::U128 => 128,
        }
    }

    /// Whether the type is signed.
    pub fn signed(self) -> bool {
        matches!(
            self,
            Ty::I8 | Ty::I16 | Ty::I32 | Ty::I64 | Ty::I128 | Ty::Isize
        )
    }

    /// The type's value range as an interval (`u128::MAX` exceeds
    /// `i128`, so `U128`'s upper bound is `+inf` — a `u128` value can
    /// therefore never be *proved* to fit by this domain, which is
    /// the conservative direction).
    pub fn range(self) -> Interval {
        if self.signed() {
            let b = self.bits();
            if b == 128 {
                return Interval::fin(i128::MIN, i128::MAX);
            }
            let h = (1i128 << (b - 1)) - 1;
            Interval::fin(-(h + 1), h)
        } else {
            let b = self.bits();
            if b == 128 {
                return Interval {
                    lo: Fin(0),
                    hi: PosInf,
                };
            }
            Interval::fin(0, (1i128 << b) - 1)
        }
    }

    fn name(self) -> &'static str {
        match self {
            Ty::I8 => "i8",
            Ty::I16 => "i16",
            Ty::I32 => "i32",
            Ty::I64 => "i64",
            Ty::I128 => "i128",
            Ty::Isize => "isize",
            Ty::U8 => "u8",
            Ty::U16 => "u16",
            Ty::U32 => "u32",
            Ty::U64 => "u64",
            Ty::U128 => "u128",
            Ty::Usize => "usize",
        }
    }
}

/// What the prover knows about a value's type.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TyInfo {
    /// A known integer type.
    Int(Ty),
    /// Floating point — ops on floats are never width-checked.
    Float,
    /// A sequence (slice, array, `Vec`) of elements.
    Seq(Box<TyInfo>),
    /// No information.
    Unknown,
}

impl TyInfo {
    /// One indexing/iteration step: unwraps a `Seq` level.
    pub fn elem(&self) -> TyInfo {
        match self {
            TyInfo::Seq(inner) => (**inner).clone(),
            _ => TyInfo::Unknown,
        }
    }
}

/// Parses normalized type text (`& 'a [ u64 ]`, `Vec < i32 >`,
/// `usize`) into a [`TyInfo`].
pub fn parse_ty_str(s: &str) -> TyInfo {
    let toks = crate::lexer::scan(s).tokens;
    parse_ty_toks(&toks, 0).0
}

fn parse_ty_toks(toks: &[Token], mut k: usize) -> (TyInfo, usize) {
    // Strip references, lifetimes, and `mut`.
    while k < toks.len() {
        let t = &toks[k];
        if t.is_punct('&') || t.kind == TokenKind::Lifetime || t.is_ident("mut") {
            k += 1;
        } else {
            break;
        }
    }
    let Some(t) = toks.get(k) else {
        return (TyInfo::Unknown, k);
    };
    if t.is_punct('[') {
        let (inner, _) = parse_ty_toks(toks, k + 1);
        return (TyInfo::Seq(Box::new(inner)), toks.len());
    }
    if t.kind == TokenKind::Ident {
        if let Some(ty) = Ty::parse(&t.text) {
            return (TyInfo::Int(ty), k + 1);
        }
        if t.text == "f32" || t.text == "f64" {
            return (TyInfo::Float, k + 1);
        }
        if t.text == "Vec" && toks.get(k + 1).is_some_and(|n| n.is_punct('<')) {
            let (inner, _) = parse_ty_toks(toks, k + 2);
            return (TyInfo::Seq(Box::new(inner)), toks.len());
        }
    }
    (TyInfo::Unknown, k + 1)
}

// ---------------------------------------------------------------
// Abstract values and environments
// ---------------------------------------------------------------

/// An abstract value: interval + type knowledge. For `Seq` values the
/// interval describes the *scalar leaves* (indexing and iteration
/// unwrap the type but keep the interval).
#[derive(Clone, Debug)]
pub struct Val {
    /// Interval of the value (scalar leaves for sequences).
    pub iv: Interval,
    /// Type knowledge.
    pub ty: TyInfo,
    /// `(file, line)` of the assume this value's narrowing came from;
    /// looking the value up marks that assume used.
    pub src: Option<(usize, u32)>,
}

impl Val {
    fn top() -> Val {
        Val {
            iv: TOP,
            ty: TyInfo::Unknown,
            src: None,
        }
    }

    fn of(iv: Interval, ty: TyInfo) -> Val {
        Val { iv, ty, src: None }
    }

    fn int(iv: Interval, ty: Ty) -> Val {
        Val::of(iv, TyInfo::Int(ty))
    }

    /// One indexing/iteration step.
    fn elem(&self) -> Val {
        Val {
            iv: self.iv,
            ty: self.ty.elem(),
            src: self.src,
        }
    }

    /// The widest value consistent with the type alone (the interval
    /// of a sequence describes its scalar leaves).
    fn ty_range(ty: &TyInfo) -> Val {
        fn leaf(ty: &TyInfo) -> Interval {
            match ty {
                TyInfo::Int(t) => t.range(),
                TyInfo::Seq(inner) => leaf(inner),
                _ => TOP,
            }
        }
        Val::of(leaf(ty), ty.clone())
    }
}

type Env = BTreeMap<String, Val>;

/// An assume attached to the fn currently being walked.
#[derive(Clone, Debug)]
struct ActiveAssume {
    a: Assume,
    /// `(file, line)` key for usage marking.
    key: (usize, u32),
    /// Whether the target is a pure path (`total`, `self . bits`) —
    /// applied through the environment — or an expression, matched
    /// against normalized spans during evaluation.
    is_path: bool,
    /// Whether the walker has passed the assume's line yet.
    active: bool,
}

/// Per-fn walk context.
struct Ctx {
    file: usize,
    fnid: usize,
    /// Whether this fn is a `prove_no_overflow` region (checks on).
    region: bool,
    /// Suppression depth: > 0 while re-evaluating for type inference
    /// or walking callees for return intervals — no findings then.
    suppress: u32,
    /// Interprocedural depth (caps return-interval chains).
    depth: u32,
    env: Env,
    assumes: Vec<ActiveAssume>,
    /// Values of `return expr;` statements seen so far.
    returns: Vec<Val>,
}

/// Prover statistics, surfaced by `andi-lint prove`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProofStats {
    /// Fns marked `prove_no_overflow`.
    pub regions: usize,
    /// Width-checked arithmetic ops inside regions.
    pub checked_ops: usize,
    /// Well-formed `assume` contracts.
    pub assumes: usize,
    /// Fns the walker analyzed (regions + fns carrying assumes).
    pub fns_analyzed: usize,
}

/// Everything the prover concluded about one workspace.
#[derive(Debug, Default)]
pub struct Proved {
    /// `unchecked-width` / `assume-soundness` findings
    /// (suppressible like any other rule).
    pub findings: Vec<Finding>,
    /// Contract-hygiene findings (`invalid-pragma`/`unused-pragma`
    /// rules; NOT suppressible, mirroring `andi::allow` hygiene).
    pub hygiene: Vec<Finding>,
    /// Statistics for reporting.
    pub stats: ProofStats,
}

/// The workspace-level prover.
struct Prover<'a> {
    files: &'a [SourceFile],
    g: &'a CallGraph,
    /// Workspace `const NAME: Ty = …;` values by name; `None` marks
    /// a cross-file name conflict (treated as unknown).
    consts: BTreeMap<String, Option<Val>>,
    /// Struct-field types keyed by struct name then field name;
    /// `None` marks a same-name duplicate-definition conflict.
    fields: BTreeMap<String, BTreeMap<String, Option<TyInfo>>>,
    /// Parsed contracts grouped per fn: `(assumes, is_region)`.
    fn_contracts: BTreeMap<usize, (Vec<Assume>, bool)>,
    /// Memoized return values per fn; `None` = in progress.
    ret_memo: BTreeMap<usize, Option<Val>>,
    /// `(file, line)` of every contract that did some work.
    used: BTreeSet<(usize, u32)>,
    findings: Vec<Finding>,
    hygiene: Vec<Finding>,
    stats: ProofStats,
}

/// Runs the interval prover over the whole workspace.
pub fn prove(files: &[SourceFile], g: &CallGraph) -> Proved {
    let mut p = Prover {
        files,
        g,
        consts: BTreeMap::new(),
        fields: BTreeMap::new(),
        fn_contracts: BTreeMap::new(),
        ret_memo: BTreeMap::new(),
        used: BTreeSet::new(),
        findings: Vec::new(),
        hygiene: Vec::new(),
        stats: ProofStats::default(),
    };
    p.fold_fields();
    p.scan_consts();
    p.map_contracts();
    p.run();
    let mut out = Proved {
        findings: p.findings,
        hygiene: p.hygiene,
        stats: p.stats,
    };
    out.findings
        .sort_by(|a, b| (&a.file, a.line, a.col, a.rule).cmp(&(&b.file, b.line, b.col, b.rule)));
    out.hygiene
        .sort_by(|a, b| (&a.file, a.line, a.col, a.rule).cmp(&(&b.file, b.line, b.col, b.rule)));
    out
}

impl<'a> Prover<'a> {
    /// Folds the shared struct-field table to field types, keyed by
    /// struct name (so two structs can share a field name with
    /// different types); duplicate same-name struct definitions with
    /// disagreeing types degrade to unknown.
    fn fold_fields(&mut self) {
        for (sname, fs) in &self.g.fields {
            let per = self.fields.entry(sname.clone()).or_default();
            for f in fs {
                let ty = parse_ty_toks(&self.files[f.file].scan.tokens[f.ty.0..f.ty.1], 0).0;
                per.entry(f.name.clone())
                    .and_modify(|v| {
                        if v.as_ref() != Some(&ty) {
                            *v = None;
                        }
                    })
                    .or_insert(Some(ty));
            }
        }
    }

    /// Looks up a field's type: the enclosing impl's struct first
    /// (`self_of`), then — for free `x.field` accesses with no
    /// receiver type — the unanimous type across every struct that
    /// declares the field, degrading to unknown on any disagreement.
    fn field_ty(&self, self_of: Option<&str>, fname: &str) -> TyInfo {
        if let Some(sname) = self_of {
            if let Some(per) = self.fields.get(sname) {
                if let Some(o) = per.get(fname) {
                    return o.clone().unwrap_or(TyInfo::Unknown);
                }
            }
        }
        let mut agreed: Option<TyInfo> = None;
        for per in self.fields.values() {
            let Some(o) = per.get(fname) else { continue };
            let Some(ty) = o else {
                return TyInfo::Unknown;
            };
            match &agreed {
                None => agreed = Some(ty.clone()),
                Some(a) if a == ty => {}
                Some(_) => return TyInfo::Unknown,
            }
        }
        agreed.unwrap_or(TyInfo::Unknown)
    }

    /// Collects `const NAME: Ty = <expr>;` values. Two passes: plain
    /// literals first, then a check-free evaluation so consts built
    /// from other consts (`1u64 << 62`, `A * B`) resolve too.
    fn scan_consts(&mut self) {
        let mut sites: Vec<(usize, usize, usize, String, TyInfo)> = Vec::new();
        for (fi, sf) in self.files.iter().enumerate() {
            let toks = &sf.scan.tokens;
            for k in 0..toks.len() {
                if !toks[k].is_ident("const") {
                    continue;
                }
                let Some(name) = toks.get(k + 1).filter(|t| t.kind == TokenKind::Ident) else {
                    continue;
                };
                if !toks.get(k + 2).is_some_and(|t| t.is_punct(':')) {
                    continue;
                }
                // `const fn` and associated-const-in-trait headers
                // never match `ident :` here, so this is a value.
                let mut eq = k + 3;
                let mut d = 0i64;
                while eq < toks.len() {
                    let t = &toks[eq];
                    if t.is_punct('<') || t.is_punct('(') || t.is_punct('[') {
                        d += 1;
                    } else if t.is_punct('>') || t.is_punct(')') || t.is_punct(']') {
                        d -= 1;
                    } else if (t.is_punct('=') || t.is_punct(';')) && d <= 0 {
                        break;
                    }
                    eq += 1;
                }
                if !toks.get(eq).is_some_and(|t| t.is_punct('=')) {
                    continue;
                }
                let ty = parse_ty_toks(&toks[k + 3..eq], 0).0;
                let mut end = eq + 1;
                let mut d2 = 0i64;
                while end < toks.len() {
                    let t = &toks[end];
                    if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                        d2 += 1;
                    } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                        d2 -= 1;
                    } else if t.is_punct(';') && d2 <= 0 {
                        break;
                    }
                    end += 1;
                }
                sites.push((fi, eq + 1, end, name.text.clone(), ty));
            }
        }
        // Pass 1: literal initializers.
        for (fi, lo, hi, name, ty) in &sites {
            let toks = &self.files[*fi].scan.tokens;
            if hi - lo == 1 && toks[*lo].kind == TokenKind::Number {
                if let Some((v, suffix)) = parse_int_lit(&toks[*lo].text) {
                    let t = suffix.or(match ty {
                        TyInfo::Int(t) => Some(*t),
                        _ => None,
                    });
                    let val = match t {
                        Some(t) => Val::int(Interval::exact(v), t),
                        None => Val::of(Interval::exact(v), ty.clone()),
                    };
                    self.insert_const(name, val);
                }
            }
        }
        // Pass 2: evaluate the rest with checks off.
        for (fi, lo, hi, name, ty) in &sites {
            if self.consts.contains_key(name) {
                continue;
            }
            let mut cx = self.fresh_ctx(*fi);
            let v = self.eval(&mut cx, *lo, *hi);
            let v = match (&v.ty, ty) {
                (TyInfo::Unknown, TyInfo::Int(t)) => {
                    let iv = v.iv.meet(t.range()).unwrap_or(t.range());
                    Val::int(iv, *t)
                }
                _ => v,
            };
            self.insert_const(name, v);
        }
    }

    fn insert_const(&mut self, name: &str, val: Val) {
        match self.consts.get_mut(name) {
            None => {
                self.consts.insert(name.to_string(), Some(val));
            }
            Some(slot) => {
                // Same-name consts in different files: keep only if
                // the intervals agree, else poison.
                let agree = slot
                    .as_ref()
                    .is_some_and(|v| v.iv == val.iv && v.ty == val.ty);
                if !agree {
                    *slot = None;
                }
            }
        }
    }

    /// A suppressed, empty context for const/ret evaluation.
    fn fresh_ctx(&self, file: usize) -> Ctx {
        Ctx {
            file,
            fnid: usize::MAX,
            region: false,
            suppress: 1,
            depth: 0,
            env: Env::new(),
            assumes: Vec::new(),
            returns: Vec::new(),
        }
    }

    /// Parses every file's contract comments and maps each to the
    /// innermost fn whose body covers its line. Invalid contracts and
    /// contracts with no enclosing fn become hygiene findings.
    fn map_contracts(&mut self) {
        for (fi, sf) in self.files.iter().enumerate() {
            let fc = contracts::parse(&sf.scan.contracts);
            for (line, msg) in &fc.invalid {
                self.hygiene.push(Finding {
                    file: sf.path.clone(),
                    line: *line,
                    col: 1,
                    rule: "invalid-pragma",
                    message: msg.clone(),
                });
            }
            for c in fc.contracts {
                let line = match &c {
                    Contract::ProveRegion { line } => *line,
                    Contract::Assume(a) => a.line,
                };
                let Some(fnid) = self.enclosing_fn(fi, line) else {
                    self.hygiene.push(Finding {
                        file: sf.path.clone(),
                        line,
                        col: 1,
                        rule: "invalid-pragma",
                        message: "contract has no enclosing fn body; move it inside the fn it \
                                  describes"
                            .to_string(),
                    });
                    continue;
                };
                let entry = self.fn_contracts.entry(fnid).or_default();
                match c {
                    Contract::ProveRegion { .. } => {
                        entry.1 = true;
                        self.used.insert((fi, line));
                    }
                    Contract::Assume(a) => {
                        self.stats.assumes += 1;
                        entry.0.push(a);
                    }
                }
            }
        }
    }

    /// Innermost fn whose body token range covers `line` in file
    /// `fi` (smallest covering span wins).
    fn enclosing_fn(&self, fi: usize, line: u32) -> Option<usize> {
        let toks = &self.files[fi].scan.tokens;
        let mut best: Option<(usize, usize)> = None;
        for (i, f) in self.g.fns.iter().enumerate() {
            if f.file != fi {
                continue;
            }
            let Some((lo, hi)) = f.body else { continue };
            // `body` is strictly inside the braces; widen to the `{`
            // at `lo - 1` and the `}` at `hi` so contracts on the
            // first body line (before any token) are still covered.
            let (Some(a), Some(b)) = (toks.get(lo.saturating_sub(1)), toks.get(hi)) else {
                continue;
            };
            if a.line <= line && line <= b.line {
                let span = hi - lo;
                if best.is_none_or(|(_, s)| span < s) {
                    best = Some((i, span));
                }
            }
        }
        best.map(|(i, _)| i)
    }

    /// Walks every fn that is a region or carries assumes, then
    /// reports assumes that never narrowed anything.
    fn run(&mut self) {
        let ids: Vec<usize> = self.fn_contracts.keys().copied().collect();
        for fnid in ids {
            let f = &self.g.fns[fnid];
            if f.in_test {
                continue;
            }
            let (assumes, region) = self.fn_contracts.get(&fnid).cloned().unwrap_or_default();
            if region {
                self.stats.regions += 1;
            }
            self.stats.fns_analyzed += 1;
            self.check_assume_guards(fnid, &assumes);
            self.walk_fn(fnid, region, 0);
        }
        // Unused assumes.
        let mut unused: Vec<(usize, u32, String)> = Vec::new();
        for (fnid, (assumes, _)) in &self.fn_contracts {
            let f = &self.g.fns[*fnid];
            if f.in_test {
                continue;
            }
            for a in assumes {
                if !self.used.contains(&(f.file, a.line)) {
                    unused.push((
                        f.file,
                        a.line,
                        format!(
                            "contract `andi::assume({})` narrows nothing; remove it or fix \
                             the target",
                            a.target
                        ),
                    ));
                }
            }
        }
        for (fi, line, message) in unused {
            self.hygiene.push(Finding {
                file: self.files[fi].path.clone(),
                line,
                col: 1,
                rule: "unused-pragma",
                message,
            });
        }
    }

    /// `assume-soundness`: each assume must have, at or above its
    /// line inside the same fn body, an `assert!`-family macro whose
    /// argument list mentions every free identifier of the target, or
    /// a `match` whose span does.
    fn check_assume_guards(&mut self, fnid: usize, assumes: &[Assume]) {
        let f = &self.g.fns[fnid];
        let sf = &self.files[f.file];
        let toks = &sf.scan.tokens;
        let Some((lo, hi)) = f.body else { return };
        let hi = hi.min(toks.len());
        for a in assumes {
            if a.idents.is_empty() {
                continue; // constant target; nothing to guard
            }
            let mut guarded = false;
            for k in lo..hi {
                let t = &toks[k];
                if t.line > a.line {
                    break;
                }
                if t.kind != TokenKind::Ident {
                    continue;
                }
                let is_assert = matches!(
                    t.text.as_str(),
                    "assert"
                        | "assert_eq"
                        | "assert_ne"
                        | "debug_assert"
                        | "debug_assert_eq"
                        | "debug_assert_ne"
                        | "matches"
                ) && toks.get(k + 1).is_some_and(|n| n.is_punct('!'));
                let is_match = t.is_ident("match");
                if !is_assert && !is_match {
                    continue;
                }
                let (glo, ghi) = if is_assert {
                    if !toks.get(k + 2).is_some_and(|n| n.is_punct('(')) {
                        continue;
                    }
                    (k + 3, matching(toks, k + 2, hi).unwrap_or(hi - 1))
                } else {
                    // `match scrutinee { arms }` — the whole construct.
                    let Some(open) = brace_after(toks, k + 1, hi) else {
                        continue;
                    };
                    (k + 1, matching(toks, open, hi).unwrap_or(hi))
                };
                let mentions_all = a.idents.iter().all(|id| {
                    toks[glo..ghi.min(hi)]
                        .iter()
                        .any(|t| t.kind == TokenKind::Ident && &t.text == id)
                });
                if mentions_all {
                    guarded = true;
                    break;
                }
            }
            if !guarded {
                self.findings.push(Finding {
                    file: sf.path.clone(),
                    line: a.line,
                    col: 1,
                    rule: "assume-soundness",
                    message: format!(
                        "`andi::assume({} in [{}, {}])` has no dominating runtime guard \
                         mentioning {}; add an assert!/debug_assert! (or match) above it \
                         so the contract cannot drift from the code",
                        a.target,
                        a.lo,
                        a.hi,
                        a.idents
                            .iter()
                            .map(|i| format!("`{i}`"))
                            .collect::<Vec<_>>()
                            .join(", "),
                    ),
                });
            }
        }
    }

    /// Return interval of fn `fnid`, memoized; `depth` caps the
    /// interprocedural chain.
    fn ret_val(&mut self, fnid: usize, depth: u32) -> Val {
        let fallback = {
            let f = &self.g.fns[fnid];
            Val::ty_range(&parse_ty_str(&f.ret))
        };
        if depth > 3 {
            return fallback;
        }
        match self.ret_memo.get(&fnid) {
            Some(Some(v)) => return v.clone(),
            Some(None) => return fallback, // recursion
            None => {}
        }
        self.ret_memo.insert(fnid, None);
        let v = self.walk_fn(fnid, false, depth + 1).unwrap_or(fallback);
        self.ret_memo.insert(fnid, Some(v.clone()));
        v
    }
}

// ---------------------------------------------------------------
// Statement walker
// ---------------------------------------------------------------

impl<'a> Prover<'a> {
    /// Walks one fn body; returns the union of `return` values and
    /// the tail expression when known.
    fn walk_fn(&mut self, fnid: usize, region: bool, depth: u32) -> Option<Val> {
        let g = self.g;
        let f = &g.fns[fnid];
        let (lo, hi) = f.body?;
        let files = self.files;
        let toks = &files[f.file].scan.tokens;
        let hi = hi.min(toks.len());
        if lo >= hi {
            return None;
        }
        let mut cx = Ctx {
            file: f.file,
            fnid,
            region,
            suppress: u32::from(depth > 0),
            depth,
            env: Env::new(),
            assumes: Vec::new(),
            returns: Vec::new(),
        };
        for p in f.consts.iter().chain(f.params.iter()) {
            cx.env
                .insert(p.name.clone(), Val::ty_range(&parse_ty_str(&p.ty)));
        }
        if let Some((assumes, _)) = self.fn_contracts.get(&fnid) {
            for a in assumes.clone() {
                let is_path = a
                    .target
                    .split(' ')
                    .all(|w| w == "." || w == "self" || is_ident_word(w));
                cx.assumes.push(ActiveAssume {
                    key: (f.file, a.line),
                    a,
                    is_path,
                    active: false,
                });
            }
        }
        // `body` is strictly inside the braces: `lo - 1` is the `{`
        // and `hi` is the matching `}`.
        let open = lo.saturating_sub(1);
        let close = hi;
        let tail = self.walk_block(&mut cx, open, close);
        let mut out = tail;
        for r in cx.returns.clone() {
            out = Some(match out {
                Some(v) => Val::of(
                    v.iv.union(r.iv),
                    if v.ty == r.ty { v.ty } else { TyInfo::Unknown },
                ),
                None => r,
            });
        }
        out
    }

    /// Walks the statements between brace indices `open`/`close`
    /// (exclusive); returns the tail expression value if the block
    /// ends in one.
    fn walk_block(&mut self, cx: &mut Ctx, open: usize, close: usize) -> Option<Val> {
        let files = self.files;
        let toks = &files[cx.file].scan.tokens;
        let close = close.min(toks.len());
        let mut k = open + 1;
        let mut tail: Option<Val> = None;
        while k < close {
            let t = &toks[k];
            self.activate(cx, t.line);
            // Attributes on statements.
            if t.is_punct('#') {
                if toks.get(k + 1).is_some_and(|n| n.is_punct('[')) {
                    k = matching(toks, k + 1, close).unwrap_or(close) + 1;
                } else {
                    k += 1;
                }
                continue;
            }
            if t.is_punct(';') || t.is_punct('}') {
                k += 1;
                continue;
            }
            match t.text.as_str() {
                "let" => k = self.stmt_let(cx, k, close),
                "for" => k = self.stmt_for(cx, k, close),
                "while" | "loop" => k = self.stmt_while_loop(cx, k, close),
                "if" => {
                    let (v, next) = self.eval_if(cx, k, close);
                    if next >= close {
                        tail = v;
                    }
                    k = next;
                }
                "match" => k = self.stmt_match(cx, k, close),
                "return" => {
                    let end = stmt_end(toks, k + 1, close);
                    if k + 1 < end {
                        let v = self.eval(cx, k + 1, end);
                        cx.returns.push(v);
                    }
                    k = end + 1;
                }
                "break" | "continue" => k = stmt_end(toks, k + 1, close) + 1,
                "unsafe" if toks.get(k + 1).is_some_and(|n| n.is_punct('{')) => {
                    let c = matching(toks, k + 1, close).unwrap_or(close);
                    let v = self.walk_block(cx, k + 1, c);
                    if c + 1 >= close {
                        tail = v;
                    }
                    k = c + 1;
                }
                _ if t.is_punct('{') => {
                    let c = matching(toks, k, close).unwrap_or(close);
                    let v = self.walk_block(cx, k, c);
                    if c + 1 >= close {
                        tail = v;
                    }
                    k = c + 1;
                }
                _ => {
                    // Assignment or expression statement.
                    let end = stmt_end(toks, k, close);
                    if let Some(next) = self.stmt_assign(cx, k, end) {
                        k = next;
                    } else {
                        let v = self.eval(cx, k, end);
                        if end >= close {
                            tail = Some(v);
                        }
                        k = end + 1;
                    }
                }
            }
        }
        tail
    }

    /// Activates every assume whose line the walker has reached;
    /// path-assumes narrow (or create) their environment entries.
    fn activate(&mut self, cx: &mut Ctx, line: u32) {
        for i in 0..cx.assumes.len() {
            if cx.assumes[i].active || cx.assumes[i].a.line > line {
                continue;
            }
            cx.assumes[i].active = true;
            if !cx.assumes[i].is_path {
                continue;
            }
            let (target, lo, hi, key) = {
                let aa = &cx.assumes[i];
                (aa.a.target.clone(), aa.a.lo, aa.a.hi, aa.key)
            };
            let range = Interval::fin(lo, hi);
            let mut keys = vec![target.clone()];
            if !target.contains(' ') {
                keys.push(format!("self . {target}"));
            }
            let self_of = self.g.fns[cx.fnid].self_of.clone();
            for kname in keys {
                let field = kname.rsplit(' ').next().unwrap_or(&kname).to_string();
                let fallback_ty = self.field_ty(self_of.as_deref(), &field);
                let entry = cx.env.entry(kname).or_insert_with(|| Val {
                    iv: TOP,
                    ty: fallback_ty,
                    src: None,
                });
                entry.iv = entry.iv.meet(range).unwrap_or(range);
                entry.src = Some(key);
            }
        }
    }

    /// Re-applies active path-assumes to `name` after a (re)binding.
    fn reapply_assumes(&mut self, cx: &mut Ctx, name: &str) {
        for i in 0..cx.assumes.len() {
            let aa = &cx.assumes[i];
            if !aa.active || !aa.is_path || aa.a.target != name {
                continue;
            }
            let range = Interval::fin(aa.a.lo, aa.a.hi);
            let key = aa.key;
            if let Some(v) = cx.env.get_mut(name) {
                v.iv = v.iv.meet(range).unwrap_or(range);
                v.src = Some(key);
            }
        }
    }

    /// `let [mut] <pat> [: ty] = <rhs>;`
    fn stmt_let(&mut self, cx: &mut Ctx, k: usize, close: usize) -> usize {
        let files = self.files;
        let toks = &files[cx.file].scan.tokens;
        let end = stmt_end(toks, k, close);
        let Some(parts) = graph::split_let(toks, k, end) else {
            return end + 1;
        };
        let names = pattern_names(toks, parts.pat.0, parts.pat.1);
        let mut val = self.eval(cx, parts.rhs.0, parts.rhs.1);
        if let Some((lo, hi)) = parts.ty {
            let asc = parse_ty_toks(&toks[lo..hi], 0).0;
            match asc {
                TyInfo::Int(t) => {
                    val.iv = val.iv.meet(t.range()).unwrap_or(t.range());
                    val.ty = TyInfo::Int(t);
                }
                TyInfo::Unknown => {}
                other => val.ty = other,
            }
        }
        if names.len() == 1 {
            cx.env.insert(names[0].clone(), val);
            let n = names[0].clone();
            self.reapply_assumes(cx, &n);
        } else {
            for n in names {
                cx.env.insert(n.clone(), Val::top());
                self.reapply_assumes(cx, &n);
            }
        }
        end + 1
    }

    /// `for <pat> in <iter> { … }`
    fn stmt_for(&mut self, cx: &mut Ctx, k: usize, close: usize) -> usize {
        let files = self.files;
        let toks = &files[cx.file].scan.tokens;
        // Find depth-0 `in`, then the body `{`.
        let mut in_at = None;
        let mut d = 0i64;
        #[allow(clippy::needless_range_loop)] // depth-tracking token scan
        for j in k + 1..close {
            let t = &toks[j];
            if t.is_punct('(') || t.is_punct('[') {
                d += 1;
            } else if t.is_punct(')') || t.is_punct(']') {
                d -= 1;
            } else if d <= 0 && t.is_ident("in") {
                in_at = Some(j);
                break;
            }
        }
        let Some(in_at) = in_at else { return close };
        let Some(open) = brace_after(toks, in_at + 1, close) else {
            return close;
        };
        let body_close = matching(toks, open, close).unwrap_or(close);
        let shape = self.analyze_iter(cx, in_at + 1, open);
        let written = prescan_writes(toks, open + 1, body_close);
        self.widen_written(cx, &written, true);
        // Bind the loop pattern.
        let names = pattern_names(toks, k + 1, in_at);
        match (&names[..], shape) {
            ([a], ElemShape::Single(v)) => {
                cx.env.insert(a.clone(), v);
            }
            ([a, b], ElemShape::Pair(x, y)) => {
                cx.env.insert(a.clone(), *x);
                cx.env.insert(b.clone(), *y);
            }
            (ns, _) => {
                for n in ns {
                    cx.env.insert(n.clone(), Val::top());
                }
            }
        }
        for n in pattern_names(toks, k + 1, in_at) {
            self.reapply_assumes(cx, &n);
        }
        self.walk_block(cx, open, body_close);
        self.widen_written(cx, &written, false);
        body_close + 1
    }

    /// `while <cond> { … }` / `loop { … }`
    fn stmt_while_loop(&mut self, cx: &mut Ctx, k: usize, close: usize) -> usize {
        let files = self.files;
        let toks = &files[cx.file].scan.tokens;
        let Some(open) = brace_after(toks, k + 1, close) else {
            return close;
        };
        if toks[k].is_ident("while") && k + 1 < open {
            self.eval(cx, k + 1, open);
        }
        let body_close = matching(toks, open, close).unwrap_or(close);
        let written = prescan_writes(toks, open + 1, body_close);
        self.widen_written(cx, &written, true);
        self.walk_block(cx, open, body_close);
        self.widen_written(cx, &written, false);
        body_close + 1
    }

    /// `match <scrutinee> { … }` — the scrutinee is evaluated (and
    /// checked); the arms are opaque: their writes widen, their ops
    /// are not checked.
    fn stmt_match(&mut self, cx: &mut Ctx, k: usize, close: usize) -> usize {
        let files = self.files;
        let toks = &files[cx.file].scan.tokens;
        let Some(open) = brace_after(toks, k + 1, close) else {
            return close;
        };
        if k + 1 < open {
            self.eval(cx, k + 1, open);
        }
        let body_close = matching(toks, open, close).unwrap_or(close);
        let written = prescan_writes(toks, open + 1, body_close);
        self.widen_written(cx, &written, false);
        body_close + 1
    }

    /// `if c { … } else if c2 { … } else { … }` as statement or
    /// expression; returns `(tail value, index past the chain)`.
    fn eval_if(&mut self, cx: &mut Ctx, k: usize, close: usize) -> (Option<Val>, usize) {
        let files = self.files;
        let toks = &files[cx.file].scan.tokens;
        let base = cx.env.clone();
        let mut branch_envs: Vec<Env> = Vec::new();
        let mut vals: Vec<Option<Val>> = Vec::new();
        let mut has_else = false;
        let mut j = k;
        loop {
            // `j` sits on `if`.
            let Some(open) = brace_after(toks, j + 1, close) else {
                return (None, close);
            };
            if j + 1 < open {
                self.eval(cx, j + 1, open);
            }
            let body_close = matching(toks, open, close).unwrap_or(close);
            cx.env = base.clone();
            vals.push(self.walk_block(cx, open, body_close));
            branch_envs.push(std::mem::take(&mut cx.env));
            j = body_close + 1;
            if !toks.get(j).is_some_and(|t| t.is_ident("else")) {
                break;
            }
            if toks.get(j + 1).is_some_and(|t| t.is_ident("if")) {
                j += 1;
                continue;
            }
            let Some(open2) = toks.get(j + 1).filter(|t| t.is_punct('{')).map(|_| j + 1) else {
                break;
            };
            let bc = matching(toks, open2, close).unwrap_or(close);
            cx.env = base.clone();
            vals.push(self.walk_block(cx, open2, bc));
            branch_envs.push(std::mem::take(&mut cx.env));
            has_else = true;
            j = bc + 1;
            break;
        }
        // Merge: every key of the pre-state takes the union across
        // branches (an if without else keeps the pre-state as one
        // branch).
        let mut merged = base.clone();
        for (name, pre) in &base {
            let mut iv = if has_else { None } else { Some(pre.iv) };
            let mut ty_ok = true;
            for be in &branch_envs {
                let bv = be.get(name).unwrap_or(pre);
                iv = Some(match iv {
                    Some(cur) => cur.union(bv.iv),
                    None => bv.iv,
                });
                if bv.ty != pre.ty {
                    ty_ok = false;
                }
            }
            let m = merged.get_mut(name).expect("key from base");
            m.iv = iv.unwrap_or(pre.iv);
            if !ty_ok {
                m.ty = TyInfo::Unknown;
            }
            m.src = None;
        }
        cx.env = merged;
        let tail = if has_else && vals.iter().all(Option::is_some) {
            let mut it = vals.into_iter().flatten();
            let first = it.next();
            first.map(|f| {
                it.fold(f, |acc, v| {
                    Val::of(
                        acc.iv.union(v.iv),
                        if acc.ty == v.ty {
                            acc.ty
                        } else {
                            TyInfo::Unknown
                        },
                    )
                })
            })
        } else {
            None
        };
        (tail, j)
    }

    /// Handles `<target> = rhs;` / `<target> op= rhs;` statements;
    /// `None` when the statement is not an assignment.
    fn stmt_assign(&mut self, cx: &mut Ctx, k: usize, end: usize) -> Option<usize> {
        let files = self.files;
        let toks = &files[cx.file].scan.tokens;
        // Find a depth-0 assignment `=` within the statement.
        let mut d = 0i64;
        let mut eq = None;
        for j in k..end {
            let t = &toks[j];
            if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                d += 1;
            } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                d -= 1;
            } else if d <= 0 && t.is_punct('=') && is_assign_eq(toks, j) {
                eq = Some(j);
                break;
            }
        }
        let eq = eq?;
        // Classify a compound op directly before the `=`.
        let (op, target_hi): (Option<&'static str>, usize) = {
            let p = eq.checked_sub(1).map(|i| &toks[i]);
            match p {
                Some(t) if adjacent(t, &toks[eq]) && t.is_punct('+') => (Some("+"), eq - 1),
                Some(t) if adjacent(t, &toks[eq]) && t.is_punct('-') => (Some("-"), eq - 1),
                Some(t) if adjacent(t, &toks[eq]) && t.is_punct('*') => (Some("*"), eq - 1),
                Some(t) if adjacent(t, &toks[eq]) && t.is_punct('/') => (Some("/"), eq - 1),
                Some(t) if adjacent(t, &toks[eq]) && t.is_punct('%') => (Some("%"), eq - 1),
                Some(t) if adjacent(t, &toks[eq]) && t.is_punct('&') => (Some("&"), eq - 1),
                Some(t) if adjacent(t, &toks[eq]) && t.is_punct('|') => (Some("|"), eq - 1),
                Some(t) if adjacent(t, &toks[eq]) && t.is_punct('^') => (Some("^"), eq - 1),
                Some(t)
                    if adjacent(t, &toks[eq])
                        && t.is_punct('<')
                        && eq >= 2
                        && toks[eq - 2].is_punct('<')
                        && adjacent(&toks[eq - 2], t) =>
                {
                    (Some("<<"), eq - 2)
                }
                Some(t)
                    if adjacent(t, &toks[eq])
                        && t.is_punct('>')
                        && eq >= 2
                        && toks[eq - 2].is_punct('>')
                        && adjacent(&toks[eq - 2], t) =>
                {
                    (Some(">>"), eq - 2)
                }
                _ => (None, eq),
            }
        };
        let key = assign_target_key(toks, k, target_hi)?;
        let rhs = self.eval(cx, eq + 1, end);
        let op_tok = &toks[target_hi];
        let (op_line, op_col) = (op_tok.line, op_tok.col);
        let cur = self.lookup(cx, &key.name).unwrap_or_else(Val::top);
        let new = match op {
            None => {
                // Plain store: the value keeps the slot's type.
                let ty = if cur.ty == TyInfo::Unknown {
                    rhs.ty.clone()
                } else {
                    cur.ty.clone()
                };
                let iv = match &ty {
                    TyInfo::Int(t) => rhs.iv.meet(t.range()).unwrap_or(t.range()),
                    _ => rhs.iv,
                };
                Val::of(iv, ty)
            }
            Some(o) => self.binary_op(cx, o, &cur, &rhs, op_line, op_col),
        };
        if key.element {
            // One element of a sequence changed: union into the leaves.
            if let Some(slot) = cx.env.get_mut(&key.name) {
                slot.iv = slot.iv.union(new.iv);
                slot.src = None;
            }
        } else {
            let ty = cur.ty.clone();
            let merged = Val::of(
                match &ty {
                    TyInfo::Int(t) => new.iv.meet(t.range()).unwrap_or(t.range()),
                    _ => new.iv,
                },
                if ty == TyInfo::Unknown { new.ty } else { ty },
            );
            cx.env.insert(key.name, merged);
        }
        Some(end + 1)
    }

    /// Widens every written name (and its `self .` twin) to its type
    /// range. On loop *entry* (`reapply`) the active assumes narrow
    /// again — they are declared invariants; on loop *exit* they do
    /// not, because the final iteration's writes are unconstrained.
    fn widen_written(&mut self, cx: &mut Ctx, written: &BTreeSet<String>, reapply: bool) {
        for name in written {
            for kname in [name.clone(), format!("self . {name}")] {
                if let Some(v) = cx.env.get_mut(&kname) {
                    v.iv = Val::ty_range(&v.ty).iv;
                    v.src = None;
                    if reapply {
                        self.reapply_assumes(cx, &kname);
                    }
                }
            }
        }
    }

    /// Environment lookup that credits the assume a narrowed entry
    /// came from.
    fn lookup(&mut self, cx: &Ctx, name: &str) -> Option<Val> {
        let v = cx.env.get(name)?.clone();
        if let Some(key) = v.src {
            self.used.insert(key);
        }
        Some(v)
    }
}

/// The left-hand side of an assignment, reduced to an environment
/// key.
struct AssignKey {
    name: String,
    /// Whether the write hits one element (`x[i] = …`) rather than
    /// the whole slot.
    element: bool,
}

/// Classifies `x`, `*x`, `x[i]`, `x.f`, `self.f` assignment targets.
fn assign_target_key(toks: &[Token], lo: usize, hi: usize) -> Option<AssignKey> {
    if lo >= hi {
        return None;
    }
    let mut lo = lo;
    if toks[lo].is_punct('*') {
        lo += 1;
    }
    if lo >= hi {
        return None;
    }
    if toks[lo].kind != TokenKind::Ident {
        return None;
    }
    let first = &toks[lo].text;
    if lo + 1 == hi {
        return Some(AssignKey {
            name: first.clone(),
            element: false,
        });
    }
    // `x [ … ]` element write.
    if toks[lo + 1].is_punct('[') {
        return Some(AssignKey {
            name: first.clone(),
            element: true,
        });
    }
    // `self . f` / `x . f` (optionally followed by an index).
    if toks[lo + 1].is_punct('.') && lo + 2 < hi && toks[lo + 2].kind == TokenKind::Ident {
        let fname = &toks[lo + 2].text;
        let element = toks.get(lo + 3).is_some_and(|t| t.is_punct('['));
        if first == "self" {
            return Some(AssignKey {
                name: format!("self . {fname}"),
                element,
            });
        }
        return Some(AssignKey {
            name: fname.clone(),
            element,
        });
    }
    None
}

/// Binding-pattern identifiers (`mut`, `ref`, `_`, and
/// constructor-ish uppercase paths excluded).
fn pattern_names(toks: &[Token], lo: usize, hi: usize) -> Vec<String> {
    let mut out = Vec::new();
    for j in lo..hi.min(toks.len()) {
        let t = &toks[j];
        if t.kind != TokenKind::Ident {
            continue;
        }
        if matches!(t.text.as_str(), "mut" | "ref" | "_" | "self") {
            continue;
        }
        if t.text.chars().next().is_some_and(char::is_uppercase) {
            continue; // Some / Ok / enum variants
        }
        // Skip path heads (`x::y`).
        if toks.get(j + 1).is_some_and(|n| n.is_punct(':')) {
            continue;
        }
        out.push(t.text.clone());
    }
    out
}

/// Names a loop body may write: assignment targets, `&mut` args,
/// receivers of mutating std methods, and `let` re-bindings.
fn prescan_writes(toks: &[Token], lo: usize, hi: usize) -> BTreeSet<String> {
    const MUTATORS: &[&str] = &[
        "push",
        "pop",
        "insert",
        "remove",
        "clear",
        "extend",
        "fill",
        "swap",
        "truncate",
        "resize",
        "sort",
        "sort_unstable",
        "sort_by",
        "sort_unstable_by",
        "iter_mut",
        "chunks_mut",
        "chunks_exact_mut",
        "get_mut",
        "split_at_mut",
        "drain",
    ];
    let mut out = BTreeSet::new();
    let hi = hi.min(toks.len());
    for j in lo..hi {
        let t = &toks[j];
        if t.is_punct('=') && is_assign_eq(toks, j) {
            // Walk back over a compound-op punct to the target.
            let mut e = j;
            while e > lo
                && toks[e - 1].kind == TokenKind::Punct
                && adjacent(&toks[e - 1], &toks[e])
                && !toks[e - 1].is_punct(')')
                && !toks[e - 1].is_punct(']')
            {
                e -= 1;
            }
            // Target name: scan back over `ident . ident`, `ident [ … ]`,
            // `* ident` shapes to the leading identifier.
            let mut b = e;
            let mut depth = 0i64;
            while b > lo {
                let p = &toks[b - 1];
                if p.is_punct(']') {
                    depth += 1;
                } else if p.is_punct('[') {
                    depth -= 1;
                    if depth < 0 {
                        break;
                    }
                } else if depth == 0
                    && !(p.kind == TokenKind::Ident
                        || p.is_punct('.')
                        || p.kind == TokenKind::Number)
                {
                    break;
                }
                b -= 1;
            }
            for u in &toks[b..e] {
                if u.kind == TokenKind::Ident && u.text != "self" {
                    out.insert(u.text.clone());
                }
            }
            // `* x = …` deref writes.
            if b > lo
                && toks[b - 1].is_punct('*')
                && toks.get(b).is_some_and(|u| u.kind == TokenKind::Ident)
            {
                out.insert(toks[b].text.clone());
            }
        } else if t.is_punct('&') && toks.get(j + 1).is_some_and(|n| n.is_ident("mut")) {
            if let Some(n) = toks.get(j + 2).filter(|n| n.kind == TokenKind::Ident) {
                if n.text != "self" {
                    out.insert(n.text.clone());
                }
            }
        } else if t.kind == TokenKind::Ident
            && MUTATORS.contains(&t.text.as_str())
            && j >= 2
            && toks[j - 1].is_punct('.')
            && toks.get(j + 1).is_some_and(|n| n.is_punct('('))
        {
            // Receiver: `name.method(` or `self.f.method(` / `x.f.method(`.
            let mut b = j - 1;
            while b > lo && (toks[b - 1].kind == TokenKind::Ident || toks[b - 1].is_punct('.')) {
                b -= 1;
            }
            for u in &toks[b..j - 1] {
                if u.kind == TokenKind::Ident && u.text != "self" {
                    out.insert(u.text.clone());
                }
            }
        } else if t.is_ident("let") {
            if let Some(n) = toks
                .get(j + 1)
                .filter(|n| n.kind == TokenKind::Ident && n.text != "mut")
                .or_else(|| toks.get(j + 2).filter(|n| n.kind == TokenKind::Ident))
            {
                out.insert(n.text.clone());
            }
        }
    }
    out
}

// ---------------------------------------------------------------
// Token helpers
// ---------------------------------------------------------------

fn is_ident_word(w: &str) -> bool {
    let mut cs = w.chars();
    cs.next().is_some_and(|c| c.is_alphabetic() || c == '_')
        && cs.all(|c| c.is_alphanumeric() || c == '_')
}

/// Parses an integer literal (`0x…`, `0b…`, `0o…`, `_` separators,
/// optional type suffix). Floats return `None`.
fn parse_int_lit(text: &str) -> Option<(i128, Option<Ty>)> {
    let t: String = text.chars().filter(|&c| c != '_').collect();
    let (digits, suffix) = split_suffix(&t);
    let ty = if suffix.is_empty() {
        None
    } else {
        Some(Ty::parse(suffix)?)
    };
    let v = if let Some(h) = digits
        .strip_prefix("0x")
        .or_else(|| digits.strip_prefix("0X"))
    {
        i128::from_str_radix(h, 16).ok().or_else(|| {
            // u128-range hex (e.g. u64::MAX) clamps through u128.
            u128::from_str_radix(h, 16)
                .ok()
                .map(|u| u.min(i128::MAX as u128) as i128)
        })?
    } else if let Some(b) = digits
        .strip_prefix("0b")
        .or_else(|| digits.strip_prefix("0B"))
    {
        i128::from_str_radix(b, 2).ok()?
    } else if let Some(o) = digits
        .strip_prefix("0o")
        .or_else(|| digits.strip_prefix("0O"))
    {
        i128::from_str_radix(o, 8).ok()?
    } else {
        if digits.contains(['.', 'e', 'E']) {
            return None; // float
        }
        digits.parse::<i128>().ok().or_else(|| {
            digits
                .parse::<u128>()
                .ok()
                .map(|u| u.min(i128::MAX as u128) as i128)
        })?
    };
    Some((v, ty))
}

fn split_suffix(t: &str) -> (&str, &str) {
    for s in [
        "i128", "u128", "isize", "usize", "i64", "u64", "i32", "u32", "i16", "u16", "i8", "u8",
        "f64", "f32",
    ] {
        if let Some(d) = t.strip_suffix(s) {
            // Hex digits can end in letters; require the char before
            // the suffix to be a digit or the base marker.
            if !d.is_empty() {
                return (d, s);
            }
        }
    }
    (t, "")
}

// ---------------------------------------------------------------
// Expression evaluation
// ---------------------------------------------------------------

/// What one iteration of a `for` loop binds.
enum ElemShape {
    /// A single bound value.
    Single(Val),
    /// A `(a, b)` pair (zip/enumerate).
    Pair(Box<Val>, Box<Val>),
}

impl<'a> Prover<'a> {
    /// The element shape produced by iterating `toks[lo..hi]`.
    fn analyze_iter(&mut self, cx: &mut Ctx, lo: usize, hi: usize) -> ElemShape {
        let files = self.files;
        let toks = &files[cx.file].scan.tokens;
        let hi = hi.min(toks.len());
        if lo >= hi {
            return ElemShape::Single(Val::top());
        }
        // A fully parenthesized iterable: `(0..n).rev()` recursion
        // lands here with `(0..n)`.
        if toks[lo].is_punct('(') && matching(toks, lo, hi).unwrap_or(hi - 1) == hi - 1 {
            return self.analyze_iter(cx, lo + 1, hi - 1);
        }
        // Trailing iterator adaptor? `recv . name ( … )` ending at hi.
        if toks[hi - 1].is_punct(')') {
            if let Some((dot, name, paren)) = trailing_method(toks, lo, hi) {
                let args = graph::split_args(toks, paren + 1, hi - 1);
                match name {
                    "iter" | "iter_mut" | "into_iter" | "by_ref" | "rev" | "copied" | "cloned" => {
                        return self.analyze_iter(cx, lo, dot);
                    }
                    "take" | "skip" | "step_by" => {
                        for (alo, ahi) in &args {
                            self.eval(cx, *alo, *ahi);
                        }
                        return self.analyze_iter(cx, lo, dot);
                    }
                    "zip" => {
                        let a = match self.analyze_iter(cx, lo, dot) {
                            ElemShape::Single(v) => v,
                            ElemShape::Pair(..) => Val::top(),
                        };
                        let b = match args.first() {
                            Some(&(alo, ahi)) => match self.analyze_iter(cx, alo, ahi) {
                                ElemShape::Single(v) => v,
                                ElemShape::Pair(..) => Val::top(),
                            },
                            None => Val::top(),
                        };
                        return ElemShape::Pair(Box::new(a), Box::new(b));
                    }
                    "enumerate" => {
                        let idx = Val::int(
                            Interval {
                                lo: Fin(0),
                                hi: Ty::Usize.range().hi,
                            },
                            Ty::Usize,
                        );
                        let e = match self.analyze_iter(cx, lo, dot) {
                            ElemShape::Single(v) => v,
                            ElemShape::Pair(..) => Val::top(),
                        };
                        return ElemShape::Pair(Box::new(idx), Box::new(e));
                    }
                    "chunks" | "chunks_exact" | "chunks_mut" | "chunks_exact_mut" | "windows" => {
                        for (alo, ahi) in &args {
                            self.eval(cx, *alo, *ahi);
                        }
                        // Each chunk is the sequence itself.
                        return ElemShape::Single(self.eval(cx, lo, dot));
                    }
                    _ => {}
                }
            }
        }
        // A top-level range `a .. b` / `a ..= b`.
        if let Some((dots, inclusive)) = top_level_range(toks, lo, hi) {
            let a = if lo < dots {
                Some(self.eval(cx, lo, dots))
            } else {
                None
            };
            let blo = dots + if inclusive { 3 } else { 2 };
            let b = if blo < hi {
                Some(self.eval(cx, blo, hi))
            } else {
                None
            };
            let lo_b = a.as_ref().map_or(NegInf, |v| v.iv.lo);
            let hi_b = match (&b, inclusive) {
                (Some(v), true) => v.iv.hi,
                (Some(v), false) => badd(v.iv.hi, Fin(-1), NegInf),
                (None, _) => PosInf,
            };
            let ty = match (&a, &b) {
                (Some(v), _) if matches!(v.ty, TyInfo::Int(_)) => v.ty.clone(),
                (_, Some(v)) if matches!(v.ty, TyInfo::Int(_)) => v.ty.clone(),
                _ => TyInfo::Unknown,
            };
            let iv = if lo_b <= hi_b {
                Interval { lo: lo_b, hi: hi_b }
            } else {
                // Empty or unknown range: iterate zero times; the
                // binding still needs *a* value.
                Interval { lo: lo_b, hi: lo_b }
            };
            return ElemShape::Single(Val::of(iv, ty));
        }
        // Anything else: evaluate and take one element.
        let v = self.eval(cx, lo, hi);
        ElemShape::Single(v.elem())
    }

    /// Evaluates `toks[lo..hi]` with expression-assume matching.
    fn eval(&mut self, cx: &mut Ctx, lo: usize, hi: usize) -> Val {
        let files = self.files;
        let toks = &files[cx.file].scan.tokens;
        let hi = hi.min(toks.len());
        if lo >= hi {
            return Val::top();
        }
        if hi - lo <= 24 {
            let text = join_toks(toks, lo, hi);
            let hit = cx
                .assumes
                .iter()
                .enumerate()
                .find(|(_, aa)| aa.active && !aa.is_path && aa.a.target == text)
                .map(|(i, _)| i);
            if let Some(i) = hit {
                let (key, range) = {
                    let aa = &cx.assumes[i];
                    (aa.key, Interval::fin(aa.a.lo, aa.a.hi))
                };
                self.used.insert(key);
                // Type comes from a suppressed structural pass; the
                // assume preempts the checks inside its span.
                cx.suppress += 1;
                let shadow = self.eval_expr(cx, lo, hi);
                cx.suppress -= 1;
                return Val {
                    iv: range,
                    ty: shadow.ty,
                    src: Some(key),
                };
            }
        }
        self.eval_expr(cx, lo, hi)
    }

    /// Structural evaluation (precedence climbing over the tokens).
    fn eval_expr(&mut self, cx: &mut Ctx, lo: usize, hi: usize) -> Val {
        let files = self.files;
        let toks = &files[cx.file].scan.tokens;
        let hi = hi.min(toks.len());
        if lo >= hi {
            return Val::top();
        }
        let t0 = &toks[lo];
        // Control-flow expressions.
        if t0.is_ident("if") {
            let (v, _) = self.eval_if(cx, lo, hi);
            return v.unwrap_or_else(Val::top);
        }
        if t0.is_ident("match") {
            self.stmt_match(cx, lo, hi);
            return Val::top();
        }
        if t0.is_punct('{') {
            let c = matching(toks, lo, hi).unwrap_or(hi);
            return self.walk_block(cx, lo, c).unwrap_or_else(Val::top);
        }
        if t0.is_punct('|') || t0.is_ident("move") {
            return Val::top(); // closures are opaque
        }
        // Range expression in value position: evaluate the endpoints
        // (their ops still need checking) but the range itself has no
        // scalar value.
        if let Some((dots, inclusive)) = top_level_range(toks, lo, hi) {
            if lo < dots {
                self.eval(cx, lo, dots);
            }
            let blo = dots + if inclusive { 3 } else { 2 };
            if blo < hi {
                self.eval(cx, blo, hi);
            }
            return Val::top();
        }
        // Lowest-precedence split first: `||`/`&&`, comparisons,
        // then `| ^ &`, shifts, `+ -`, `* / %`.
        if let Some(j) = find_bool_op(toks, lo, hi) {
            self.eval(cx, lo, j);
            self.eval(cx, j + 2, hi);
            return Val::top();
        }
        if let Some((j, w)) = find_cmp_op(toks, lo, hi) {
            self.eval(cx, lo, j);
            self.eval(cx, j + w, hi);
            return Val::top();
        }
        for ops in [&['|'][..], &['^'][..], &['&'][..]] {
            if let Some(j) = find_bit_op(toks, lo, hi, ops) {
                let op = if toks[j].is_punct('|') {
                    "|"
                } else if toks[j].is_punct('^') {
                    "^"
                } else {
                    "&"
                };
                let l = self.eval(cx, lo, j);
                let r = self.eval(cx, j + 1, hi);
                return self.binary_op(cx, op, &l, &r, toks[j].line, toks[j].col);
            }
        }
        if let Some((j, op)) = find_shift_op(toks, lo, hi) {
            let l = self.eval(cx, lo, j);
            let r = self.eval(cx, j + 2, hi);
            return self.binary_op(cx, op, &l, &r, toks[j].line, toks[j].col);
        }
        if let Some((j, op)) = find_addsub_op(toks, lo, hi) {
            // Conditional-negate idiom: `(x ^ m) - m` evaluates to
            // `±x`, so its result is `[-M, M]` for `M = max |x|`; the
            // inner `^` is exempt, the outer `-` is still fit-checked.
            if op == "-" {
                if let Some(v) = self.cond_negate(cx, lo, j, hi) {
                    return v;
                }
            }
            let l = self.eval(cx, lo, j);
            let r = self.eval(cx, j + 1, hi);
            return self.binary_op(cx, op, &l, &r, toks[j].line, toks[j].col);
        }
        if let Some((j, op)) = find_muldiv_op(toks, lo, hi) {
            let l = self.eval(cx, lo, j);
            let r = self.eval(cx, j + 1, hi);
            return self.binary_op(cx, op, &l, &r, toks[j].line, toks[j].col);
        }
        // `expr as Ty`.
        if let Some(j) = find_as(toks, lo, hi) {
            let v = self.eval(cx, lo, j);
            let ty = parse_ty_toks(&toks[j + 1..hi], 0).0;
            return match ty {
                TyInfo::Int(t) => {
                    let iv = if v.iv.within(t.range()) {
                        v.iv
                    } else {
                        t.range()
                    };
                    Val::int(iv, t)
                }
                TyInfo::Float => Val::of(TOP, TyInfo::Float),
                _ => Val::top(),
            };
        }
        // Unary prefix.
        if t0.is_punct('-') {
            let v = self.eval(cx, lo + 1, hi);
            if v.ty == TyInfo::Float {
                return v;
            }
            let iv = v.iv.neg();
            let iv = self.check_fit(cx, "neg", iv, &v.ty, t0.line, t0.col);
            return Val::of(iv, v.ty);
        }
        if t0.is_punct('!') {
            let v = self.eval(cx, lo + 1, hi);
            return match v.ty {
                TyInfo::Int(t) => Val::int(t.range(), t),
                _ => Val::top(),
            };
        }
        if t0.is_punct('*') {
            return self.eval(cx, lo + 1, hi);
        }
        if t0.is_punct('&') {
            let s = lo + 1 + usize::from(toks.get(lo + 1).is_some_and(|t| t.is_ident("mut")));
            return self.eval(cx, s, hi);
        }
        self.eval_postfix(cx, lo, hi)
    }

    /// `(x ^ m) - m` with matching `m ⊆ [-1, 0]`.
    fn cond_negate(&mut self, cx: &mut Ctx, lo: usize, minus: usize, hi: usize) -> Option<Val> {
        let files = self.files;
        let toks = &files[cx.file].scan.tokens;
        if !toks[lo].is_punct('(') {
            return None;
        }
        let close = matching(toks, lo, minus).unwrap_or(minus - 1);
        if close + 1 != minus {
            return None;
        }
        // Top-level `^` inside the parens.
        let caret = find_bit_op(toks, lo + 1, close, &['^'])?;
        let m1 = join_toks(toks, caret + 1, close);
        let m2 = join_toks(toks, minus + 1, hi);
        if m1 != m2 {
            return None;
        }
        let m = self.eval(cx, minus + 1, hi);
        if !m.iv.within(Interval::fin(-1, 0)) {
            return None;
        }
        let x = self.eval(cx, lo + 1, caret);
        let mag = x.iv.abs_();
        let iv = Interval {
            lo: bneg(mag.hi),
            hi: mag.hi,
        };
        let ty = match (&x.ty, &m.ty) {
            (TyInfo::Int(a), _) => TyInfo::Int(*a),
            (_, TyInfo::Int(b)) => TyInfo::Int(*b),
            _ => TyInfo::Unknown,
        };
        let t = &toks[minus];
        let iv = self.check_fit(cx, "-", iv, &ty, t.line, t.col);
        Some(Val::of(iv, ty))
    }

    /// Applies a binary operator with width checking for `+ - * <<`.
    fn binary_op(
        &mut self,
        cx: &mut Ctx,
        op: &'static str,
        l: &Val,
        r: &Val,
        line: u32,
        col: u32,
    ) -> Val {
        if l.ty == TyInfo::Float || r.ty == TyInfo::Float {
            return Val::of(TOP, TyInfo::Float);
        }
        // Shifts take their type from the left operand alone.
        let ty = if op == "<<" || op == ">>" {
            l.ty.clone()
        } else {
            merge_int_ty(&l.ty, &r.ty)
        };
        let iv = match op {
            "+" => l.iv.add(r.iv),
            "-" => l.iv.sub(r.iv),
            "*" => l.iv.mul(r.iv),
            "<<" => l.iv.shl(r.iv),
            ">>" => l.iv.shr(r.iv),
            "&" => l.iv.and_mask(r.iv),
            "|" | "^" => l.iv.or_like(r.iv),
            "%" => l.iv.rem(r.iv),
            "/" => div_iv(l.iv, r.iv),
            _ => TOP,
        };
        let iv = if matches!(op, "+" | "-" | "*" | "<<") {
            self.check_fit(cx, op, iv, &ty, line, col)
        } else {
            match &ty {
                TyInfo::Int(t) => iv.meet(t.range()).unwrap_or(t.range()),
                _ => iv,
            }
        };
        Val::of(iv, ty)
    }

    /// The width check: inside a region, a checked op whose interval
    /// is not provably within its type is an `unchecked-width`
    /// finding. Returns the interval clamped for onward evaluation.
    fn check_fit(
        &mut self,
        cx: &mut Ctx,
        op: &str,
        iv: Interval,
        ty: &TyInfo,
        line: u32,
        col: u32,
    ) -> Interval {
        if !cx.region || cx.suppress > 0 {
            return match ty {
                TyInfo::Int(t) => iv.meet(t.range()).unwrap_or(t.range()),
                _ => iv,
            };
        }
        self.stats.checked_ops += 1;
        match ty {
            TyInfo::Int(t) => {
                let range = t.range();
                if iv.within(range) {
                    iv
                } else {
                    self.findings.push(Finding {
                        file: self.files[cx.file].path.clone(),
                        line,
                        col,
                        rule: "unchecked-width",
                        message: format!(
                            "unproven `{op}`: computed interval {iv} does not fit `{}` \
                             [{}, {}]; tighten the operands with a guard + andi::assume \
                             or use checked/widened arithmetic",
                            t.name(),
                            range.lo,
                            range.hi,
                        ),
                    });
                    iv.meet(range).unwrap_or(range)
                }
            }
            _ => {
                self.findings.push(Finding {
                    file: self.files[cx.file].path.clone(),
                    line,
                    col,
                    rule: "unchecked-width",
                    message: format!(
                        "unproven `{op}`: operand type unknown (computed interval {iv}); \
                         add a typed binding, a cast, or an andi::assume naming the value",
                    ),
                });
                iv
            }
        }
    }

    /// Primary + postfix chain: literals, paths, calls, indexing,
    /// fields, methods.
    fn eval_postfix(&mut self, cx: &mut Ctx, lo: usize, hi: usize) -> Val {
        let files = self.files;
        let toks = &files[cx.file].scan.tokens;
        let t0 = &toks[lo];
        let (mut val, mut j) = match t0.kind {
            TokenKind::Number => {
                let v = parse_int_lit(&t0.text).map_or_else(
                    || Val::of(TOP, TyInfo::Float),
                    |(v, suffix)| match suffix {
                        Some(t) => Val::int(Interval::exact(v), t),
                        None => Val::of(Interval::exact(v), TyInfo::Unknown),
                    },
                );
                (v, lo + 1)
            }
            TokenKind::Str | TokenKind::Char | TokenKind::Lifetime => (Val::top(), lo + 1),
            TokenKind::Punct if t0.is_punct('(') => {
                let c = matching(toks, lo, hi).unwrap_or(hi - 1);
                let parts = graph::split_args(toks, lo + 1, c);
                let v = if parts.len() == 1 {
                    self.eval(cx, parts[0].0, parts[0].1)
                } else {
                    for (alo, ahi) in &parts {
                        self.eval(cx, *alo, *ahi);
                    }
                    Val::top()
                };
                (v, c + 1)
            }
            TokenKind::Punct if t0.is_punct('[') => {
                let c = matching(toks, lo, hi).unwrap_or(hi);
                // `[elem; N]` or `[a, b, …]`.
                let mut semi = None;
                let mut d = 0i64;
                #[allow(clippy::needless_range_loop)] // depth-tracking token scan
                for m in lo + 1..c {
                    let t = &toks[m];
                    if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                        d += 1;
                    } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                        d -= 1;
                    } else if d == 0 && t.is_punct(';') {
                        semi = Some(m);
                        break;
                    }
                }
                let v = if let Some(s) = semi {
                    let e = self.eval(cx, lo + 1, s);
                    self.eval(cx, s + 1, c);
                    Val::of(e.iv, TyInfo::Seq(Box::new(e.ty)))
                } else {
                    let parts = graph::split_args(toks, lo + 1, c);
                    let mut iv: Option<Interval> = None;
                    let mut ty: Option<TyInfo> = None;
                    for (alo, ahi) in parts {
                        let e = self.eval(cx, alo, ahi);
                        iv = Some(iv.map_or(e.iv, |c| c.union(e.iv)));
                        ty = Some(match ty {
                            None => e.ty,
                            Some(t) if t == e.ty => t,
                            Some(_) => TyInfo::Unknown,
                        });
                    }
                    Val::of(
                        iv.unwrap_or(TOP),
                        TyInfo::Seq(Box::new(ty.unwrap_or(TyInfo::Unknown))),
                    )
                };
                (v, c + 1)
            }
            TokenKind::Ident => self.eval_path(cx, lo, hi),
            _ => (Val::top(), lo + 1),
        };
        // Postfix chain.
        while j < hi {
            let t = &toks[j];
            if t.is_punct('?') {
                val = Val::top();
                j += 1;
            } else if t.is_punct('[') {
                let c = matching(toks, j, hi).unwrap_or(hi);
                self.eval(cx, j + 1, c);
                val = val.elem();
                j = c + 1;
            } else if t.is_punct('.') {
                let Some(n) = toks.get(j + 1) else { break };
                if n.kind == TokenKind::Number {
                    val = Val::top(); // tuple field
                    j += 2;
                } else if n.kind == TokenKind::Ident {
                    if toks.get(j + 2).is_some_and(|p| p.is_punct('(')) {
                        let close = matching(toks, j + 2, hi).unwrap_or(hi - 1);
                        let args = graph::split_args(toks, j + 3, close);
                        let mut argv = Vec::new();
                        for (alo, ahi) in &args {
                            argv.push(self.eval(cx, *alo, *ahi));
                        }
                        val = self.method_val(cx, &val, &n.text, &argv, j + 1);
                        j = close + 1;
                    } else {
                        // Field access on an arbitrary receiver: no
                        // struct type in hand, so the type holds only
                        // if every declaring struct agrees.
                        let ty = self.field_ty(None, &n.text);
                        val = Val::ty_range(&ty);
                        j += 2;
                    }
                } else {
                    break;
                }
            } else if t.is_punct('(') {
                let c = matching(toks, j, hi).unwrap_or(hi - 1);
                for (alo, ahi) in graph::split_args(toks, j + 1, c) {
                    self.eval(cx, alo, ahi);
                }
                val = Val::top();
                j = c + 1;
            } else {
                break;
            }
        }
        val
    }

    /// Identifier-rooted primaries: env vars, `self.field`, consts,
    /// `Ty::MAX`-style associated consts, paths, fn calls, macros,
    /// struct literals.
    fn eval_path(&mut self, cx: &mut Ctx, lo: usize, hi: usize) -> (Val, usize) {
        let files = self.files;
        let toks = &files[cx.file].scan.tokens;
        let t0 = &toks[lo];
        // Macro invocation: opaque, never checked.
        if toks.get(lo + 1).is_some_and(|n| n.is_punct('!')) {
            let j = lo + 2;
            let opens = toks
                .get(j)
                .is_some_and(|t| t.is_punct('(') || t.is_punct('[') || t.is_punct('{'));
            let end = if opens {
                matching(toks, j, hi).map_or(hi, |c| c + 1)
            } else {
                j
            };
            return (Val::top(), end.min(hi));
        }
        // `self . field` root.
        if t0.is_ident("self")
            && toks.get(lo + 1).is_some_and(|n| n.is_punct('.'))
            && toks.get(lo + 2).is_some_and(|n| n.kind == TokenKind::Ident)
        {
            let fname = toks[lo + 2].text.clone();
            // `self.method(…)` is handled by the postfix loop.
            if toks.get(lo + 3).is_some_and(|p| p.is_punct('(')) {
                return (Val::top(), lo + 1);
            }
            let key = format!("self . {fname}");
            if let Some(v) = self.lookup(cx, &key) {
                return (v, lo + 3);
            }
            let ty = self.field_ty(self.g.fns[cx.fnid].self_of.as_deref(), &fname);
            return (Val::ty_range(&ty), lo + 3);
        }
        // Collect a `::`-path (skipping turbofish groups).
        let mut segs: Vec<(usize, String)> = vec![(lo, t0.text.clone())];
        let mut j = lo + 1;
        while j + 1 < hi
            && toks[j].is_punct(':')
            && toks.get(j + 1).is_some_and(|n| n.is_punct(':'))
        {
            let mut k = j + 2;
            if toks.get(k).is_some_and(|n| n.is_punct('<')) {
                // Turbofish: skip to the matching `>`.
                let mut d = 0i64;
                while k < hi {
                    if toks[k].is_punct('<') {
                        d += 1;
                    } else if toks[k].is_punct('>') {
                        d -= 1;
                        if d == 0 {
                            k += 1;
                            break;
                        }
                    }
                    k += 1;
                }
                if !(toks[k].is_punct(':') && toks.get(k + 1).is_some_and(|n| n.is_punct(':'))) {
                    break;
                }
                k += 2;
            }
            let Some(n) = toks.get(k).filter(|n| n.kind == TokenKind::Ident) else {
                break;
            };
            segs.push((k, n.text.clone()));
            j = k + 1;
        }
        let (last_at, last) = segs.last().cloned().expect("at least the root");
        let is_call = graph::call_paren(toks, last_at, hi).is_some();
        if is_call {
            let paren = graph::call_paren(toks, last_at, hi).expect("checked");
            let close = matching(toks, paren, hi).unwrap_or(hi - 1);
            let args = graph::split_args(toks, paren + 1, close);
            let mut argv = Vec::new();
            for (alo, ahi) in &args {
                argv.push(self.eval(cx, *alo, *ahi));
            }
            // `u64::from(x)` / `i128::from(x)`: a widening cast.
            if segs.len() == 2 && last == "from" {
                if let Some(t) = Ty::parse(&segs[0].1) {
                    let iv = argv
                        .first()
                        .map_or(t.range(), |a| a.iv.meet(t.range()).unwrap_or(t.range()));
                    return (Val::int(iv, t), close + 1);
                }
            }
            let v = match self.g.resolve_unique(cx.fnid, last_at) {
                Some(callee) => self.ret_val(callee, cx.depth),
                None => Val::top(),
            };
            return (v, close + 1);
        }
        // `u64::MAX` / `u64::MIN` / `u64::BITS`.
        if segs.len() == 2 {
            if let Some(t) = Ty::parse(&segs[0].1) {
                let v = match last.as_str() {
                    "MAX" => Some(Val::int(
                        Interval {
                            lo: t.range().hi,
                            hi: t.range().hi,
                        },
                        t,
                    )),
                    "MIN" => Some(Val::int(
                        Interval {
                            lo: t.range().lo,
                            hi: t.range().lo,
                        },
                        t,
                    )),
                    "BITS" => Some(Val::int(Interval::exact(t.bits() as i128), Ty::U32)),
                    _ => None,
                };
                if let Some(v) = v {
                    return (v, segs[1].0 + 1);
                }
            }
        }
        let next = last_at + 1;
        // Struct literal `Name { … }`: opaque.
        if segs.len() == 1
            && t0.text.chars().next().is_some_and(char::is_uppercase)
            && toks.get(next).is_some_and(|n| n.is_punct('{'))
        {
            let c = matching(toks, next, hi).unwrap_or(hi);
            return (Val::top(), c + 1);
        }
        if segs.len() == 1 {
            if let Some(v) = self.lookup(cx, &t0.text) {
                return (v, next);
            }
        }
        // A const by its final segment (`Self::LIMIT`, `quest::CAP`).
        if last
            .chars()
            .all(|c| c.is_ascii_uppercase() || c == '_' || c.is_ascii_digit())
        {
            if let Some(Some(v)) = self.consts.get(&last) {
                return (v.clone(), next);
            }
        }
        (Val::top(), next)
    }

    /// Std-method semantics over intervals; unknown names fall back
    /// to unique call-graph edges.
    fn method_val(
        &mut self,
        cx: &mut Ctx,
        recv: &Val,
        name: &str,
        args: &[Val],
        name_at: usize,
    ) -> Val {
        let a0 = args.first();
        let rty = recv.ty.clone();
        let clamp = |iv: Interval| match &rty {
            TyInfo::Int(t) => iv.meet(t.range()).unwrap_or(t.range()),
            _ => iv,
        };
        match name {
            "min" => a0.map_or_else(Val::top, |a| Val::of(recv.iv.min_(a.iv), rty.clone())),
            "max" => a0.map_or_else(Val::top, |a| Val::of(recv.iv.max_(a.iv), rty.clone())),
            "clamp" => {
                if let [a, b] = args {
                    Val::of(recv.iv.max_(a.iv).min_(b.iv), rty.clone())
                } else {
                    Val::top()
                }
            }
            "abs" => Val::of(clamp(recv.iv.abs_()), rty.clone()),
            "signum" => Val::of(Interval::fin(-1, 1), rty.clone()),
            "rem_euclid" => {
                a0.map_or_else(Val::top, |a| Val::of(recv.iv.abs_().rem(a.iv), rty.clone()))
            }
            "count_ones" | "count_zeros" | "leading_zeros" | "trailing_zeros" | "leading_ones"
            | "trailing_ones" => {
                let bits = match &rty {
                    TyInfo::Int(t) => t.bits(),
                    _ => 128,
                };
                Val::int(Interval::fin(0, bits as i128), Ty::U32)
            }
            "wrapping_add" | "wrapping_sub" | "wrapping_mul" | "wrapping_shl" | "wrapping_neg" => {
                let iv = match (name, a0) {
                    ("wrapping_add", Some(a)) => recv.iv.add(a.iv),
                    ("wrapping_sub", Some(a)) => recv.iv.sub(a.iv),
                    ("wrapping_mul", Some(a)) => recv.iv.mul(a.iv),
                    ("wrapping_shl", Some(a)) => recv.iv.shl(a.iv),
                    ("wrapping_neg", _) => recv.iv.neg(),
                    _ => TOP,
                };
                match &rty {
                    TyInfo::Int(t) if iv.within(t.range()) => Val::of(iv, rty.clone()),
                    TyInfo::Int(t) => Val::int(t.range(), *t),
                    _ => Val::top(),
                }
            }
            "saturating_add" | "saturating_sub" | "saturating_mul" => {
                let iv = match (name, a0) {
                    ("saturating_add", Some(a)) => recv.iv.add(a.iv),
                    ("saturating_sub", Some(a)) => recv.iv.sub(a.iv),
                    ("saturating_mul", Some(a)) => recv.iv.mul(a.iv),
                    _ => TOP,
                };
                match &rty {
                    TyInfo::Int(t) => Val::int(clamp_into(iv, t.range()), *t),
                    _ => Val::of(iv, rty.clone()),
                }
            }
            "checked_add" | "checked_sub" | "checked_mul" | "checked_shl" | "checked_neg"
            | "checked_div" | "checked_rem" | "checked_pow" => Val::top(),
            "pow" => Val::ty_range(&rty),
            "rotate_left" | "rotate_right" | "swap_bytes" | "reverse_bits" | "to_le" | "to_be" => {
                Val::ty_range(&rty)
            }
            "len" => Val::int(
                Interval {
                    lo: Fin(0),
                    hi: Ty::Usize.range().hi,
                },
                Ty::Usize,
            ),
            "iter" | "iter_mut" | "into_iter" | "by_ref" | "rev" | "copied" | "cloned" | "take"
            | "skip" | "step_by" => recv.clone(),
            "chunks" | "chunks_exact" | "chunks_mut" | "chunks_exact_mut" | "windows" => {
                Val::of(recv.iv, TyInfo::Seq(Box::new(rty.clone())))
            }
            "remainder" => recv.elem(),
            "unsigned_abs" => match &rty {
                TyInfo::Int(t) => {
                    let u = match t {
                        Ty::I8 => Ty::U8,
                        Ty::I16 => Ty::U16,
                        Ty::I32 => Ty::U32,
                        Ty::I64 => Ty::I64,
                        Ty::Isize => Ty::Usize,
                        other => *other,
                    };
                    Val::int(clamp_into(recv.iv.abs_(), u.range()), u)
                }
                _ => Val::top(),
            },
            _ => match self.g.resolve_unique(cx.fnid, name_at) {
                Some(callee) => self.ret_val(callee, cx.depth),
                None => Val::top(),
            },
        }
    }
}

/// Integer division bound: for divisors ≥ 1 the magnitude can only
/// shrink.
fn div_iv(a: Interval, b: Interval) -> Interval {
    if b.lo < Fin(1) {
        return TOP;
    }
    if a.nonneg() {
        return Interval {
            lo: Fin(0),
            hi: a.hi,
        };
    }
    let m = a.abs_().hi;
    Interval { lo: bneg(m), hi: m }
}

fn clamp_into(iv: Interval, range: Interval) -> Interval {
    Interval {
        lo: iv.lo.clamp(range.lo, range.hi),
        hi: iv.hi.clamp(range.lo, range.hi),
    }
}

/// Op-type merge: equal ints keep, int beats unknown, sequences and
/// disagreements degrade to unknown.
fn merge_int_ty(a: &TyInfo, b: &TyInfo) -> TyInfo {
    match (a, b) {
        (TyInfo::Int(x), TyInfo::Int(y)) if x == y => TyInfo::Int(*x),
        (TyInfo::Int(_), TyInfo::Int(_)) => TyInfo::Unknown,
        (TyInfo::Int(x), TyInfo::Unknown) | (TyInfo::Unknown, TyInfo::Int(x)) => TyInfo::Int(*x),
        _ => TyInfo::Unknown,
    }
}

fn join_toks(toks: &[Token], lo: usize, hi: usize) -> String {
    contracts::join_glued(&toks[lo..hi.min(toks.len())])
}

// ---------------------------------------------------------------
// Operator scanning
// ---------------------------------------------------------------

/// Token positions at bracket depth 0 within `[lo, hi)`, with
/// turbofish `::<…>` groups skipped so their angles never read as
/// comparisons or shifts.
fn top_positions(toks: &[Token], lo: usize, hi: usize) -> Vec<usize> {
    let hi = hi.min(toks.len());
    let mut out = Vec::new();
    let mut d = 0i64;
    let mut j = lo;
    while j < hi {
        let t = &toks[j];
        if d == 0
            && t.is_punct(':')
            && toks.get(j + 1).is_some_and(|n| n.is_punct(':'))
            && toks.get(j + 2).is_some_and(|n| n.is_punct('<'))
        {
            let mut a = 0i64;
            let mut k = j + 2;
            while k < hi {
                if toks[k].is_punct('<') {
                    a += 1;
                } else if toks[k].is_punct('>') {
                    a -= 1;
                    if a == 0 {
                        break;
                    }
                }
                k += 1;
            }
            j = k + 1;
            continue;
        }
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            if d == 0 {
                out.push(j);
            }
            d += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            d -= 1;
            if d == 0 {
                out.push(j);
            }
        } else if d == 0 {
            out.push(j);
        }
        j += 1;
    }
    out
}

/// Whether the token can end an operand (so a following `- * &` is
/// binary, not prefix).
fn is_operand_end(t: &Token) -> bool {
    match t.kind {
        TokenKind::Number | TokenKind::Str | TokenKind::Char => true,
        TokenKind::Ident => !matches!(
            t.text.as_str(),
            "return"
                | "break"
                | "continue"
                | "if"
                | "else"
                | "match"
                | "in"
                | "let"
                | "move"
                | "while"
                | "loop"
                | "as"
                | "mut"
                | "ref"
                | "unsafe"
        ),
        TokenKind::Punct => {
            t.is_punct(')') || t.is_punct(']') || t.is_punct('}') || t.is_punct('?')
        }
        TokenKind::Lifetime => false,
    }
}

fn prev_is_operand(toks: &[Token], lo: usize, j: usize) -> bool {
    j > lo && is_operand_end(&toks[j - 1])
}

/// Rightmost top-level `||` / `&&`.
fn find_bool_op(toks: &[Token], lo: usize, hi: usize) -> Option<usize> {
    let mut found = None;
    for j in top_positions(toks, lo, hi) {
        let t = &toks[j];
        if (t.is_punct('|') || t.is_punct('&'))
            && toks
                .get(j + 1)
                .is_some_and(|n| n.text == t.text && adjacent(t, n))
            && j + 2 < hi
            && prev_is_operand(toks, lo, j)
        {
            found = Some(j);
        }
    }
    found
}

/// Rightmost top-level comparison; returns `(position, width)`.
fn find_cmp_op(toks: &[Token], lo: usize, hi: usize) -> Option<(usize, usize)> {
    let mut found = None;
    let pos = top_positions(toks, lo, hi);
    for &j in &pos {
        let t = &toks[j];
        let next_adj = |c: char| {
            toks.get(j + 1)
                .is_some_and(|n| n.is_punct(c) && adjacent(t, n))
        };
        let prev_adj = |c: char| j > lo && toks[j - 1].is_punct(c) && adjacent(&toks[j - 1], t);
        if (t.is_punct('=')
            && next_adj('=')
            && !prev_adj('=')
            && !prev_adj('!')
            && !prev_adj('<')
            && !prev_adj('>'))
            || (t.is_punct('!') && next_adj('='))
        {
            found = Some((j, 2));
        } else if (t.is_punct('<') || t.is_punct('>'))
            && !next_adj(if t.is_punct('<') { '<' } else { '>' })
            && !prev_adj(if t.is_punct('<') { '<' } else { '>' })
            && prev_is_operand(toks, lo, j)
        {
            let w = if next_adj('=') { 2 } else { 1 };
            found = Some((j, w));
        }
    }
    found
}

/// Rightmost top-level single `| ^ &` from `ops`.
fn find_bit_op(toks: &[Token], lo: usize, hi: usize, ops: &[char]) -> Option<usize> {
    let mut found = None;
    for j in top_positions(toks, lo, hi) {
        let t = &toks[j];
        if !ops.iter().any(|&c| t.is_punct(c)) {
            continue;
        }
        // Not doubled (`||`, `&&`), not `op=`.
        let next = toks.get(j + 1);
        if next.is_some_and(|n| adjacent(t, n) && (n.text == t.text || n.is_punct('='))) {
            continue;
        }
        if j > lo && toks[j - 1].text == t.text && adjacent(&toks[j - 1], t) {
            continue;
        }
        if (t.is_punct('&') || t.is_punct('|')) && !prev_is_operand(toks, lo, j) {
            continue; // prefix `&` / closure head `|`
        }
        found = Some(j);
    }
    found
}

/// Rightmost top-level `<<` / `>>`.
fn find_shift_op(toks: &[Token], lo: usize, hi: usize) -> Option<(usize, &'static str)> {
    let mut found = None;
    for j in top_positions(toks, lo, hi) {
        let t = &toks[j];
        let c = if t.is_punct('<') {
            '<'
        } else if t.is_punct('>') {
            '>'
        } else {
            continue;
        };
        let Some(n) = toks.get(j + 1) else { continue };
        if !(n.is_punct(c) && adjacent(t, n)) {
            continue;
        }
        // Exclude `<<=` and a middle token of `<<<`.
        if toks
            .get(j + 2)
            .is_some_and(|m| m.is_punct('=') && adjacent(n, m))
        {
            continue;
        }
        if j > lo && toks[j - 1].is_punct(c) && adjacent(&toks[j - 1], t) {
            continue;
        }
        if !prev_is_operand(toks, lo, j) {
            continue;
        }
        found = Some((j, if c == '<' { "<<" } else { ">>" }));
    }
    found
}

/// Rightmost top-level binary `+` / `-`.
fn find_addsub_op(toks: &[Token], lo: usize, hi: usize) -> Option<(usize, &'static str)> {
    let mut found = None;
    for j in top_positions(toks, lo, hi) {
        let t = &toks[j];
        let op = if t.is_punct('+') {
            "+"
        } else if t.is_punct('-') {
            "-"
        } else {
            continue;
        };
        if toks
            .get(j + 1)
            .is_some_and(|n| (n.is_punct('=') || n.is_punct('>')) && adjacent(t, n))
        {
            continue; // `+=` / `->`
        }
        if !prev_is_operand(toks, lo, j) {
            continue;
        }
        found = Some((j, op));
    }
    found
}

/// Rightmost top-level binary `* / %`.
fn find_muldiv_op(toks: &[Token], lo: usize, hi: usize) -> Option<(usize, &'static str)> {
    let mut found = None;
    for j in top_positions(toks, lo, hi) {
        let t = &toks[j];
        let op = if t.is_punct('*') {
            "*"
        } else if t.is_punct('/') {
            "/"
        } else if t.is_punct('%') {
            "%"
        } else {
            continue;
        };
        if toks
            .get(j + 1)
            .is_some_and(|n| n.is_punct('=') && adjacent(t, n))
        {
            continue;
        }
        if !prev_is_operand(toks, lo, j) {
            continue;
        }
        found = Some((j, op));
    }
    found
}

/// Rightmost top-level `as`.
fn find_as(toks: &[Token], lo: usize, hi: usize) -> Option<usize> {
    let mut found = None;
    for j in top_positions(toks, lo, hi) {
        if toks[j].is_ident("as") {
            found = Some(j);
        }
    }
    found
}

/// First top-level `..` / `..=`; returns `(position, inclusive)`.
fn top_level_range(toks: &[Token], lo: usize, hi: usize) -> Option<(usize, bool)> {
    for j in top_positions(toks, lo, hi) {
        let t = &toks[j];
        if t.is_punct('.')
            && toks
                .get(j + 1)
                .is_some_and(|n| n.is_punct('.') && adjacent(t, n))
            && !(j > lo && toks[j - 1].is_punct('.') && adjacent(&toks[j - 1], t))
        {
            let inclusive = toks
                .get(j + 2)
                .is_some_and(|m| m.is_punct('=') && adjacent(&toks[j + 1], m));
            return Some((j, inclusive));
        }
    }
    None
}

/// The last top-level `. name ( … )` whose `)` closes the span;
/// returns `(dot, name, open paren)`.
fn trailing_method(toks: &[Token], lo: usize, hi: usize) -> Option<(usize, &str, usize)> {
    let mut found = None;
    for j in top_positions(toks, lo, hi) {
        let t = &toks[j];
        if t.is_punct('.')
            && toks.get(j + 1).is_some_and(|n| n.kind == TokenKind::Ident)
            && toks.get(j + 2).is_some_and(|n| n.is_punct('('))
            && matching(toks, j + 2, hi).unwrap_or(hi - 1) == hi - 1
        {
            found = Some((j, toks[j + 1].text.as_str(), j + 2));
        }
    }
    found
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prove_src(src: &str) -> Proved {
        let files = vec![SourceFile::new("crates/core/src/t.rs", src)];
        let g = graph::build(&files);
        prove(&files, &g)
    }

    #[test]
    fn interval_arithmetic_widens_on_overflow() {
        let big = Interval::exact(i128::MAX);
        assert_eq!(big.add(Interval::exact(1)).hi, PosInf);
        assert_eq!(big.mul(Interval::exact(2)).hi, PosInf);
        assert_eq!(
            Interval::exact(i128::MIN).sub(Interval::exact(1)).lo,
            NegInf
        );
        assert_eq!(
            Interval::fin(-3, 5).mul(Interval::fin(-2, 4)),
            Interval::fin(-12, 20)
        );
        assert_eq!(
            Interval::fin(-9, 100).and_mask(Interval::fin(0, 7)),
            Interval::fin(0, 7)
        );
        assert_eq!(
            Interval::fin(1, 3).shl(Interval::fin(0, 4)),
            Interval::fin(1, 48)
        );
        assert_eq!(Interval::fin(-7, 3).abs_(), Interval::fin(0, 7));
        assert!(Interval::fin(0, 255).within(Ty::U8.range()));
        assert!(!Interval::fin(0, 256).within(Ty::U8.range()));
    }

    #[test]
    fn bounded_loop_accumulation_proves() {
        let p = prove_src(
            "pub fn acc(xs: &[i32]) -> i64 {\n\
             // andi::prove_no_overflow\n\
             let mut total = 0i64;\n\
             for &v in xs {\n\
                 debug_assert!(v >= -100 && v <= 100);\n\
                 // andi::assume(v in [-100, 100]) — asserted above\n\
                 debug_assert!(total.abs() <= 1_000_000);\n\
                 // andi::assume(total in [-1000000, 1000000]) — loop invariant\n\
                 total += v as i64;\n\
             }\n\
             total\n\
             }\n",
        );
        assert_eq!(p.findings, Vec::new());
        assert_eq!(p.hygiene, Vec::new());
        assert_eq!(p.stats.regions, 1);
        assert!(p.stats.checked_ops >= 1);
    }

    #[test]
    fn unbounded_accumulation_is_flagged_with_interval() {
        let p = prove_src(
            "pub fn acc(xs: &[i64]) -> i64 {\n\
             // andi::prove_no_overflow\n\
             let mut total = 0i64;\n\
             for &v in xs {\n\
                 total += v;\n\
             }\n\
             total\n\
             }\n",
        );
        assert_eq!(p.findings.len(), 1, "{:?}", p.findings);
        let f = &p.findings[0];
        assert_eq!(f.rule, "unchecked-width");
        assert!(f.message.contains('+'), "{}", f.message);
        assert!(f.message.contains("i64"), "{}", f.message);
        assert!(f.message.contains("does not fit"), "{}", f.message);
        assert_eq!(f.line, 5);
    }

    #[test]
    fn unguarded_assume_is_unsound() {
        let p = prove_src(
            "pub fn f(n: u64) -> u64 {\n\
             // andi::assume(n in [0, 65535]) — caller guarantees\n\
             n & 0xFFFF\n\
             }\n",
        );
        let rules: Vec<&str> = p.findings.iter().map(|f| f.rule).collect();
        assert_eq!(rules, vec!["assume-soundness"]);
        assert_eq!(p.findings[0].line, 2);
    }

    #[test]
    fn guarded_assume_is_sound() {
        let p = prove_src(
            "pub fn f(n: u64) -> u64 {\n\
             debug_assert!(n <= 0xFFFF);\n\
             // andi::assume(n in [0, 65535]) — asserted above\n\
             n & 0xFFFF\n\
             }\n",
        );
        assert_eq!(p.findings, Vec::new());
    }

    #[test]
    fn dead_assume_is_unused() {
        let p = prove_src(
            "pub fn f(q: u64) -> u64 {\n\
             debug_assert!(q > 0); // mentions no assume target\n\
             // andi::assume(zzz in [0, 10]) — typo, never matches\n\
             q\n\
             }\n",
        );
        assert!(
            p.hygiene
                .iter()
                .any(|f| f.rule == "unused-pragma" && f.message.contains("zzz")),
            "{:?}",
            p.hygiene
        );
    }

    #[test]
    fn malformed_contract_is_invalid() {
        let p = prove_src(
            "pub fn f() -> u64 {\n\
             // andi::assume(x in [1, 2])\n\
             1\n\
             }\n",
        );
        assert!(
            p.hygiene.iter().any(|f| f.rule == "invalid-pragma"),
            "{:?}",
            p.hygiene
        );
    }

    #[test]
    fn const_generic_bounds_flow_from_impl_header() {
        let p = prove_src(
            "pub struct W<const N: usize>;\n\
             impl<const N: usize> W<N> {\n\
             pub fn go(&self) -> i64 {\n\
             // andi::prove_no_overflow\n\
             debug_assert!(N <= 22);\n\
             // andi::assume(N in [1, 22]) — asserted above\n\
             let n = N as i64;\n\
             n * n * n\n\
             }\n\
             }\n",
        );
        assert_eq!(p.findings, Vec::new());
        assert_eq!(p.hygiene, Vec::new());
    }

    #[test]
    fn conditional_negate_idiom_is_understood() {
        let p = prove_src(
            "pub fn sel(x: i64, s: u64) -> i64 {\n\
             // andi::prove_no_overflow\n\
             debug_assert!(x >= -1000 && x <= 1000 && s <= 1);\n\
             // andi::assume(x in [-1000, 1000]) — asserted above\n\
             let m = -((s & 1) as i64);\n\
             (x ^ m) - m\n\
             }\n",
        );
        assert_eq!(p.findings, Vec::new(), "{:?}", p.findings);
    }

    #[test]
    fn expression_assume_narrows_a_span() {
        let p = prove_src(
            "pub fn pack(key: u64, bits: u32, w: u64) -> u64 {\n\
             // andi::prove_no_overflow\n\
             debug_assert!(bits < 64 && key <= u64::MAX >> bits);\n\
             // andi::assume(key << bits in [0, 18446744073709551615]) — guarded above\n\
             (key << bits) | w\n\
             }\n",
        );
        assert_eq!(p.findings, Vec::new(), "{:?}", p.findings);
        assert_eq!(p.hygiene, Vec::new(), "{:?}", p.hygiene);
    }

    #[test]
    fn interprocedural_return_interval_via_unique_edge() {
        let p = prove_src(
            "fn cap(x: u32) -> u32 { x.min(100) }\n\
             pub fn use_it(x: u32) -> u32 {\n\
             // andi::prove_no_overflow\n\
             cap(x) * 43_000_000\n\
             }\n",
        );
        // cap() returns [0, 100]; 100 * 43e6 = 4.3e9 which does NOT
        // fit u32 — the point is the interval came through the call.
        assert_eq!(p.findings.len(), 1, "{:?}", p.findings);
        assert!(
            p.findings[0].message.contains("4300000000"),
            "{}",
            p.findings[0].message
        );
    }

    #[test]
    fn saturating_and_wrapping_are_not_checked() {
        let p = prove_src(
            "pub fn f(a: i64, b: i64) -> i64 {\n\
             // andi::prove_no_overflow\n\
             a.saturating_mul(b).saturating_add(1)\n\
             }\n",
        );
        assert_eq!(p.findings, Vec::new(), "{:?}", p.findings);
    }
}
