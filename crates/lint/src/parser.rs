//! A lightweight recursive-descent *item* parser on top of the token
//! stream from [`crate::lexer`].
//!
//! The lexer strips comments and string contents; this layer
//! recovers the file's item structure — modules, functions with
//! signatures, `impl`/`trait` blocks, `use` paths — with exact token
//! spans, which is what the semantic rules need: real
//! `#[cfg(test)]`/`#[test]` subtree exemption, per-function body
//! ranges for the dataflow engine, and signatures for the workspace
//! call graph.
//!
//! It parses exactly as much Rust as the workspace uses. Anything it
//! does not understand degrades gracefully: unknown constructs are
//! recorded as [`ItemKind::Other`] spans (or skipped one token at a
//! time), and the parser is total — it never panics and always
//! terminates, which the property suite pins. Statement-level syntax
//! inside function bodies is *not* parsed here; the dataflow layer
//! works on the raw body token range.

use crate::graph::matching;
use crate::lexer::{Token, TokenKind};

/// Item visibility, as far as the rules care.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Vis {
    /// `pub` — part of the crate's public API surface.
    Pub,
    /// `pub(crate)`, `pub(super)`, `pub(in …)` — visible but not a
    /// public API root.
    Restricted,
    /// No visibility qualifier.
    Private,
}

/// What kind of item a node is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ItemKind {
    /// `mod name { … }` or `mod name;`.
    Mod,
    /// `fn name(…) { … }` (free, associated, or trait method).
    Fn,
    /// `impl [Trait for] Type { … }`.
    Impl,
    /// `trait Name { … }`.
    Trait,
    /// `use path::to::thing;`.
    Use,
    /// `struct` / `enum` / `union` definition.
    TypeDef,
    /// `const` / `static` item.
    ConstItem,
    /// Anything else (type aliases, macro definitions/invocations,
    /// extern blocks, recovery spans).
    Other,
}

/// One function parameter: `name: Type` (name may be empty for
/// pattern parameters, `"self"` for receivers).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Param {
    /// Binding name (`""` for destructuring patterns).
    pub name: String,
    /// Normalized type text (token texts joined by single spaces).
    pub ty: String,
}

/// One parsed item with exact token spans.
#[derive(Clone, Debug)]
pub struct Item {
    /// Item class.
    pub kind: ItemKind,
    /// Item name (fn/mod/type name; full path text for `use`; the
    /// self-type name for `impl`; empty when unnamed).
    pub name: String,
    /// Visibility.
    pub vis: Vis,
    /// 1-based line of the item keyword.
    pub line: u32,
    /// 1-based column of the item keyword.
    pub col: u32,
    /// Token index of the first attribute (== `start` when there are
    /// none).
    pub attr_start: usize,
    /// Token index of the item keyword.
    pub start: usize,
    /// Exclusive token index one past the item.
    pub end: usize,
    /// For `Fn`: the token range strictly inside the body braces.
    /// `None` for bodyless signatures (`fn f();`).
    pub body: Option<(usize, usize)>,
    /// For `Fn`: parsed parameters.
    pub params: Vec<Param>,
    /// For `Fn`: normalized return-type text (empty when `()`).
    pub ret: String,
    /// Const generics declared in this item's own `<…>` header
    /// (`const N: usize` → `Param { name: "N", ty: "usize" }`). For
    /// `Fn` these are the fn's own; enclosing `impl` headers carry
    /// their own list (the call graph merges them per fn).
    pub consts: Vec<Param>,
    /// Whether the item sits in a `#[cfg(test)]` / `#[test]` subtree
    /// (its own attributes or any ancestor's).
    pub in_test: bool,
    /// For fns inside `impl Type` / `trait Type`: the type name.
    pub self_of: Option<String>,
    /// Nested items (mod / impl / trait contents).
    pub children: Vec<Item>,
}

/// A parsed file: the item tree plus the token count it was built
/// from (for mask construction).
#[derive(Clone, Debug, Default)]
pub struct FileAst {
    /// Top-level items in source order.
    pub items: Vec<Item>,
    /// Number of tokens in the underlying stream.
    pub n_tokens: usize,
}

impl FileAst {
    /// Marks every token inside a `#[cfg(test)]` / `#[test]` subtree.
    /// The mask is parallel to the token stream the AST was parsed
    /// from.
    pub fn test_mask(&self) -> Vec<bool> {
        let mut mask = vec![false; self.n_tokens];
        fn walk(items: &[Item], mask: &mut [bool]) {
            for it in items {
                if it.in_test {
                    let end = it.end.min(mask.len());
                    for m in mask.iter_mut().take(end).skip(it.attr_start) {
                        *m = true;
                    }
                } else {
                    walk(&it.children, mask);
                }
            }
        }
        walk(&self.items, &mut mask);
        mask
    }

    /// Depth-first visit of every item (parents before children).
    pub fn visit<'a>(&'a self, f: &mut impl FnMut(&'a Item)) {
        fn walk<'a>(items: &'a [Item], f: &mut impl FnMut(&'a Item)) {
            for it in items {
                f(it);
                walk(&it.children, f);
            }
        }
        walk(&self.items, f);
    }
}

/// Parses one file's token stream into an item tree. Total: never
/// panics, always terminates, and unparseable stretches degrade to
/// [`ItemKind::Other`] spans.
pub fn parse(tokens: &[Token]) -> FileAst {
    let mut p = Parser { toks: tokens };
    let items = p.parse_items(0, tokens.len(), false, None);
    FileAst {
        items,
        n_tokens: tokens.len(),
    }
}

/// Keywords that can never start an expression-call we care about
/// and never name an item.
fn is_item_keyword(s: &str) -> bool {
    matches!(
        s,
        "mod"
            | "fn"
            | "impl"
            | "trait"
            | "use"
            | "struct"
            | "enum"
            | "union"
            | "const"
            | "static"
            | "type"
            | "extern"
            | "macro_rules"
            | "unsafe"
            | "async"
            | "default"
            | "pub"
    )
}

struct Parser<'a> {
    toks: &'a [Token],
}

impl<'a> Parser<'a> {
    fn ident_at(&self, i: usize) -> Option<&str> {
        let t = self.toks.get(i)?;
        (t.kind == TokenKind::Ident).then_some(t.text.as_str())
    }

    fn punct_at(&self, i: usize, c: char) -> bool {
        self.toks.get(i).is_some_and(|t| t.is_punct(c))
    }

    /// Skips a balanced generics group `<…>` starting at `i` (which
    /// must hold `<`); returns the index just past the closing `>`.
    /// `->` arrows inside (Fn-trait sugar) do not close the group.
    fn skip_generics(&self, i: usize, end: usize) -> usize {
        let mut depth = 0i64;
        let mut k = i;
        while k < end {
            let t = &self.toks[k];
            if t.is_punct('<') {
                depth += 1;
            } else if t.is_punct('>') {
                // `->`: the `>` belongs to an arrow, not the group.
                let is_arrow = k > 0
                    && self.toks[k - 1].is_punct('-')
                    && self.toks[k - 1].start + self.toks[k - 1].len == t.start;
                if !is_arrow {
                    depth -= 1;
                    if depth == 0 {
                        return k + 1;
                    }
                }
            }
            k += 1;
        }
        end
    }

    /// Extracts `const NAME: Ty` declarations from a generics group
    /// body `[lo, hi)` (the tokens strictly inside the `<…>`). Type
    /// and lifetime parameters are skipped; only const generics carry
    /// interval information for the prover.
    fn parse_const_generics(&self, lo: usize, hi: usize) -> Vec<Param> {
        let hi = hi.min(self.toks.len());
        let mut out = Vec::new();
        let mut k = lo;
        let mut depth = 0i64;
        while k < hi {
            let t = &self.toks[k];
            if t.is_punct('<') || t.is_punct('(') || t.is_punct('[') {
                depth += 1;
            } else if t.is_punct('>') || t.is_punct(')') || t.is_punct(']') {
                depth -= 1;
            } else if depth == 0 && t.kind == TokenKind::Ident && t.text == "const" {
                if let Some(name) = self.ident_at(k + 1) {
                    if self.punct_at(k + 2, ':') {
                        // Type runs to the next `,` at this depth (or
                        // the end of the group).
                        let ty_lo = k + 3;
                        let mut ty_hi = ty_lo;
                        let mut d2 = 0i64;
                        while ty_hi < hi {
                            let u = &self.toks[ty_hi];
                            if u.is_punct('<') || u.is_punct('(') || u.is_punct('[') {
                                d2 += 1;
                            } else if u.is_punct('>') || u.is_punct(')') || u.is_punct(']') {
                                if d2 == 0 {
                                    break;
                                }
                                d2 -= 1;
                            } else if d2 == 0 && u.is_punct(',') {
                                break;
                            }
                            ty_hi += 1;
                        }
                        // A `= DEFAULT` tail is not part of the type.
                        let mut t_end = ty_hi;
                        for m in ty_lo..ty_hi {
                            if self.punct_at(m, '=') {
                                t_end = m;
                                break;
                            }
                        }
                        out.push(Param {
                            name: name.to_string(),
                            ty: join_tokens(&self.toks[ty_lo..t_end]),
                        });
                        k = ty_hi;
                        continue;
                    }
                }
            }
            k += 1;
        }
        out
    }

    /// Parses items in `[i, end)` until exhausted.
    fn parse_items(
        &mut self,
        mut i: usize,
        end: usize,
        in_test: bool,
        self_of: Option<&str>,
    ) -> Vec<Item> {
        let mut out = Vec::new();
        while i < end {
            let before = i;
            if let Some(item) = self.parse_item(&mut i, end, in_test, self_of) {
                out.push(item);
            }
            if i <= before {
                i = before + 1; // recovery: always make progress
            }
        }
        out
    }

    /// Parses one item starting at `*i`; advances `*i` past it.
    fn parse_item(
        &mut self,
        i: &mut usize,
        end: usize,
        parent_test: bool,
        self_of: Option<&str>,
    ) -> Option<Item> {
        let attr_start = *i;
        let mut attr_test = false;

        // Attributes. Inner attributes (`#![…]`) apply to the
        // enclosing scope, not the next item; skip them without
        // attaching.
        while self.punct_at(*i, '#') {
            let inner = self.punct_at(*i + 1, '!');
            let open = *i + 1 + usize::from(inner);
            if !self.punct_at(open, '[') {
                break;
            }
            let close = matching(self.toks, open, end).unwrap_or(end - 1);
            if !inner && self.attr_is_test(open + 1, close) {
                attr_test = true;
            }
            *i = close + 1;
        }

        // Visibility.
        let mut vis = Vis::Private;
        if self.ident_at(*i) == Some("pub") {
            *i += 1;
            if self.punct_at(*i, '(') {
                vis = Vis::Restricted;
                *i = matching(self.toks, *i, end).unwrap_or(end - 1) + 1;
            } else {
                vis = Vis::Pub;
            }
        }

        // Fn modifiers (`const unsafe async extern "C" default fn`).
        // `const` only counts as a modifier when a `fn` actually
        // follows within the modifier chain.
        let mut j = *i;
        loop {
            match self.ident_at(j) {
                Some("unsafe" | "async" | "default") => j += 1,
                Some("const")
                    if matches!(
                        self.ident_at(j + 1),
                        Some("fn" | "unsafe" | "async" | "extern")
                    ) =>
                {
                    j += 1
                }
                Some("extern")
                    if self
                        .toks
                        .get(j + 1)
                        .is_some_and(|t| t.kind == TokenKind::Str)
                        && self.ident_at(j + 2) == Some("fn") =>
                {
                    j += 2
                }
                _ => break,
            }
        }

        let in_test = parent_test || attr_test;
        let kw_at = j;
        let kw = self.ident_at(j)?.to_string();
        let (line, col) = self
            .toks
            .get(kw_at)
            .map(|t| (t.line, t.col))
            .unwrap_or((1, 1));
        let mk =
            |kind, name: String, start, item_end, body, params, ret, so: Option<String>| Item {
                kind,
                name,
                vis,
                line,
                col,
                attr_start,
                start,
                end: item_end,
                body,
                params,
                ret,
                consts: Vec::new(),
                in_test,
                self_of: so,
                children: Vec::new(),
            };

        match kw.as_str() {
            "fn" => {
                *i = j + 1;
                let name = self.ident_at(*i).unwrap_or("").to_string();
                *i += 1;
                let mut consts = Vec::new();
                if self.punct_at(*i, '<') {
                    let after = self.skip_generics(*i, end);
                    consts = self.parse_const_generics(*i + 1, after.saturating_sub(1));
                    *i = after;
                }
                let mut params = Vec::new();
                if self.punct_at(*i, '(') {
                    let close = matching(self.toks, *i, end).unwrap_or(end - 1);
                    params = self.parse_params(*i + 1, close);
                    *i = close + 1;
                }
                // Return type: `->` … until `{`, `;`, or `where`.
                let mut ret = String::new();
                if self.punct_at(*i, '-') && self.punct_at(*i + 1, '>') {
                    *i += 2;
                    let stop = self.scan_to_fn_body(*i, end);
                    ret = join_tokens(&self.toks[*i..stop]);
                    *i = stop;
                } else {
                    *i = self.scan_to_fn_body(*i, end);
                }
                // Trim a trailing where-clause out of the return text.
                if let Some(w) = ret.find(" where ") {
                    ret.truncate(w);
                }
                let (body, item_end) = if self.punct_at(*i, '{') {
                    let close = matching(self.toks, *i, end).unwrap_or(end - 1);
                    (Some((*i + 1, close)), close + 1)
                } else {
                    (None, (*i + 1).min(end)) // the `;`
                };
                *i = item_end;
                let mut item = mk(
                    ItemKind::Fn,
                    name,
                    kw_at,
                    item_end,
                    body,
                    params,
                    ret,
                    self_of.map(str::to_string),
                );
                item.consts = consts;
                Some(item)
            }
            "mod" => {
                *i = j + 1;
                let name = self.ident_at(*i).unwrap_or("").to_string();
                *i += 1;
                if self.punct_at(*i, '{') {
                    let close = matching(self.toks, *i, end).unwrap_or(end - 1);
                    let children = self.parse_items(*i + 1, close, in_test, None);
                    *i = close + 1;
                    let mut item = mk(
                        ItemKind::Mod,
                        name,
                        kw_at,
                        close + 1,
                        None,
                        Vec::new(),
                        String::new(),
                        None,
                    );
                    item.children = children;
                    Some(item)
                } else {
                    let item_end = (*i + 1).min(end); // `mod name;`
                    *i = item_end;
                    Some(mk(
                        ItemKind::Mod,
                        name,
                        kw_at,
                        item_end,
                        None,
                        Vec::new(),
                        String::new(),
                        None,
                    ))
                }
            }
            "impl" | "trait" => {
                *i = j + 1;
                let mut consts = Vec::new();
                if kw == "impl" && self.punct_at(*i, '<') {
                    let after = self.skip_generics(*i, end);
                    consts = self.parse_const_generics(*i + 1, after.saturating_sub(1));
                    *i = after;
                }
                // Header up to the `{` (or `;` for `trait A = B;`).
                let header_start = *i;
                let mut k = *i;
                let mut angle = 0i64;
                while k < end {
                    let t = &self.toks[k];
                    if t.is_punct('<') {
                        angle += 1;
                    } else if t.is_punct('>') && angle > 0 {
                        angle -= 1;
                    } else if angle == 0 && (t.is_punct('{') || t.is_punct(';')) {
                        break;
                    }
                    k += 1;
                }
                let name = self.self_type_name(header_start, k);
                if self.punct_at(k, '{') {
                    let close = matching(self.toks, k, end).unwrap_or(end - 1);
                    let children = self.parse_items(k + 1, close, in_test, Some(&name));
                    *i = close + 1;
                    let mut item = mk(
                        if kw == "impl" {
                            ItemKind::Impl
                        } else {
                            ItemKind::Trait
                        },
                        name,
                        kw_at,
                        close + 1,
                        None,
                        Vec::new(),
                        String::new(),
                        None,
                    );
                    item.consts = consts;
                    item.children = children;
                    Some(item)
                } else {
                    let item_end = (k + 1).min(end);
                    *i = item_end;
                    Some(mk(
                        ItemKind::Other,
                        name,
                        kw_at,
                        item_end,
                        None,
                        Vec::new(),
                        String::new(),
                        None,
                    ))
                }
            }
            "use" => {
                *i = j + 1;
                let start = *i;
                let item_end = self.skip_to_semi(i, end);
                Some(mk(
                    ItemKind::Use,
                    join_tokens(&self.toks[start..item_end.saturating_sub(1).max(start)]),
                    kw_at,
                    item_end,
                    None,
                    Vec::new(),
                    String::new(),
                    None,
                ))
            }
            "struct" | "enum" | "union" => {
                *i = j + 1;
                let name = self.ident_at(*i).unwrap_or("").to_string();
                let item_end = self.skip_type_def(i, end);
                Some(mk(
                    ItemKind::TypeDef,
                    name,
                    kw_at,
                    item_end,
                    None,
                    Vec::new(),
                    String::new(),
                    None,
                ))
            }
            "const" | "static" => {
                *i = j + 1;
                if self.ident_at(*i) == Some("mut") {
                    *i += 1;
                }
                let name = self.ident_at(*i).unwrap_or("").to_string();
                let item_end = self.skip_to_semi(i, end);
                Some(mk(
                    ItemKind::ConstItem,
                    name,
                    kw_at,
                    item_end,
                    None,
                    Vec::new(),
                    String::new(),
                    None,
                ))
            }
            "type" => {
                *i = j + 1;
                let name = self.ident_at(*i).unwrap_or("").to_string();
                let item_end = self.skip_to_semi(i, end);
                Some(mk(
                    ItemKind::Other,
                    name,
                    kw_at,
                    item_end,
                    None,
                    Vec::new(),
                    String::new(),
                    None,
                ))
            }
            "extern" | "macro_rules" => {
                // `extern crate x;`, `extern { … }`, `macro_rules! m { … }`.
                *i = j + 1;
                if kw == "macro_rules" && self.punct_at(*i, '!') {
                    *i += 1;
                    if self.ident_at(*i).is_some() {
                        *i += 1;
                    }
                }
                let item_end = if self.punct_at(*i, '{') {
                    matching(self.toks, *i, end).unwrap_or(end - 1) + 1
                } else {
                    let mut k = *i;
                    self.skip_to_semi(&mut k, end)
                };
                *i = item_end;
                Some(mk(
                    ItemKind::Other,
                    String::new(),
                    kw_at,
                    item_end,
                    None,
                    Vec::new(),
                    String::new(),
                    None,
                ))
            }
            // Item-level macro invocation: `name! { … }` / `name!(…);`.
            name if !is_item_keyword(name) && self.punct_at(j + 1, '!') => {
                *i = j + 2;
                let item_end = if self.punct_at(*i, '{') {
                    matching(self.toks, *i, end).unwrap_or(end - 1) + 1
                } else if self.punct_at(*i, '(') || self.punct_at(*i, '[') {
                    let close = matching(self.toks, *i, end).unwrap_or(end - 1);
                    if self.punct_at(close + 1, ';') {
                        close + 2
                    } else {
                        close + 1
                    }
                } else {
                    *i
                };
                *i = item_end;
                Some(mk(
                    ItemKind::Other,
                    name.to_string(),
                    kw_at,
                    item_end,
                    None,
                    Vec::new(),
                    String::new(),
                    None,
                ))
            }
            _ => {
                // Unknown: consume one token as a recovery span.
                *i = j + 1;
                None
            }
        }
    }

    /// Whether attribute body tokens in `[lo, hi)` mark test code:
    /// `test`, `cfg(test)`, or any `cfg(…)` mentioning `test`.
    fn attr_is_test(&self, lo: usize, hi: usize) -> bool {
        let body = &self.toks[lo.min(self.toks.len())..hi.min(self.toks.len())];
        match body.first() {
            Some(t) if t.is_ident("test") && body.len() == 1 => true,
            Some(t) if t.is_ident("cfg") => body[1..].iter().any(|t| t.is_ident("test")),
            _ => false,
        }
    }

    /// Scans forward from `i` to the fn body `{` or terminating `;`
    /// at depth 0 (skipping a where clause and any grouped tokens).
    fn scan_to_fn_body(&self, i: usize, end: usize) -> usize {
        let mut k = i;
        let mut angle = 0i64;
        let mut paren = 0i64;
        while k < end {
            let t = &self.toks[k];
            if t.is_punct('<') {
                angle += 1;
            } else if t.is_punct('>') && angle > 0 {
                let is_arrow = k > 0
                    && self.toks[k - 1].is_punct('-')
                    && self.toks[k - 1].start + self.toks[k - 1].len == t.start;
                if !is_arrow {
                    angle -= 1;
                }
            } else if t.is_punct('(') || t.is_punct('[') {
                paren += 1;
            } else if t.is_punct(')') || t.is_punct(']') {
                paren -= 1;
            } else if paren <= 0 && angle == 0 && (t.is_punct('{') || t.is_punct(';')) {
                return k;
            }
            k += 1;
        }
        end
    }

    /// Advances past the next `;` at depth 0 (braces/brackets/parens
    /// tracked); returns the index just past it.
    fn skip_to_semi(&self, i: &mut usize, end: usize) -> usize {
        let mut depth = 0i64;
        while *i < end {
            let t = &self.toks[*i];
            if t.is_punct('{') || t.is_punct('(') || t.is_punct('[') {
                depth += 1;
            } else if t.is_punct('}') || t.is_punct(')') || t.is_punct(']') {
                depth -= 1;
            } else if t.is_punct(';') && depth <= 0 {
                *i += 1;
                return *i;
            }
            *i += 1;
        }
        *i
    }

    /// End of a struct/enum/union definition: past the brace block or
    /// the `;` (tuple structs / unit structs), whichever comes first
    /// at depth 0.
    fn skip_type_def(&self, i: &mut usize, end: usize) -> usize {
        let mut depth = 0i64;
        while *i < end {
            let t = &self.toks[*i];
            if t.is_punct('{') && depth == 0 {
                *i = matching(self.toks, *i, end).unwrap_or(end - 1) + 1;
                return *i;
            }
            if t.is_punct('(') || t.is_punct('[') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') {
                depth -= 1;
            } else if t.is_punct(';') && depth == 0 {
                *i += 1;
                return *i;
            }
            *i += 1;
        }
        *i
    }

    /// The self-type name of an `impl` header in `[lo, hi)`: the last
    /// angle-depth-0 identifier after `for` (trait impls) or in the
    /// whole header (inherent impls); generic arguments are skipped.
    fn self_type_name(&self, lo: usize, hi: usize) -> String {
        let mut seg_lo = lo;
        let mut angle = 0i64;
        for k in lo..hi.min(self.toks.len()) {
            if angle == 0 && self.toks[k].is_ident("for") {
                seg_lo = k + 1;
            }
            if self.toks[k].is_punct('<') {
                angle += 1;
            } else if self.toks[k].is_punct('>') && angle > 0 {
                angle -= 1;
            }
        }
        let mut name = String::new();
        let mut angle = 0i64;
        for k in seg_lo..hi.min(self.toks.len()) {
            let t = &self.toks[k];
            if t.is_punct('<') {
                angle += 1;
            } else if t.is_punct('>') && angle > 0 {
                angle -= 1;
            } else if angle == 0
                && t.kind == TokenKind::Ident
                && !matches!(t.text.as_str(), "dyn" | "where" | "mut")
            {
                name = t.text.clone();
            } else if angle == 0 && t.is_ident("where") {
                break;
            }
        }
        name
    }

    /// Parses a parameter list between parens `(lo..hi)` exclusive of
    /// the delimiters.
    fn parse_params(&self, lo: usize, hi: usize) -> Vec<Param> {
        let mut params = Vec::new();
        let mut depth = 0i64;
        let mut seg = lo;
        let mut k = lo;
        let hi = hi.min(self.toks.len());
        let flush = |a: usize, b: usize, params: &mut Vec<Param>| {
            if a >= b {
                return;
            }
            params.push(self.parse_one_param(a, b));
        };
        while k < hi {
            let t = &self.toks[k];
            if t.is_punct('(') || t.is_punct('[') || t.is_punct('<') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') {
                depth -= 1;
            } else if t.is_punct('>') && depth > 0 {
                let is_arrow = k > 0
                    && self.toks[k - 1].is_punct('-')
                    && self.toks[k - 1].start + self.toks[k - 1].len == t.start;
                if !is_arrow {
                    depth -= 1;
                }
            } else if t.is_punct(',') && depth == 0 {
                flush(seg, k, &mut params);
                seg = k + 1;
            }
            k += 1;
        }
        flush(seg, hi, &mut params);
        params
    }

    /// One parameter from tokens `[a, b)`: `[mut] name: Type`,
    /// `[&[mut]] self`, or a pattern (empty name).
    fn parse_one_param(&self, mut a: usize, b: usize) -> Param {
        while a < b
            && (self.toks[a].is_ident("mut")
                || self.toks[a].is_punct('&')
                || self.toks[a].kind == TokenKind::Lifetime)
        {
            a += 1;
        }
        if self.ident_at(a) == Some("self") {
            return Param {
                name: "self".to_string(),
                ty: String::new(),
            };
        }
        if a < b && self.toks[a].kind == TokenKind::Ident && self.punct_at(a + 1, ':') {
            return Param {
                name: self.toks[a].text.clone(),
                ty: join_tokens(&self.toks[(a + 2).min(b)..b]),
            };
        }
        Param {
            name: String::new(),
            ty: join_tokens(&self.toks[a..b]),
        }
    }
}

/// Joins token texts with single spaces (normalized type/path text).
fn join_tokens(toks: &[Token]) -> String {
    let mut s = String::new();
    for t in toks {
        if !s.is_empty() && !t.is_punct(':') && !s.ends_with(':') && !s.ends_with('&') {
            s.push(' ');
        }
        s.push_str(&t.text);
    }
    s.trim().to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::scan;

    fn ast(src: &str) -> FileAst {
        parse(&scan(src).tokens)
    }

    fn flat(ast: &FileAst) -> Vec<(ItemKind, String, bool)> {
        let mut out = Vec::new();
        ast.visit(&mut |it| out.push((it.kind, it.name.clone(), it.in_test)));
        out
    }

    #[test]
    fn parses_free_fns_with_signatures() {
        let a = ast("pub fn add(a: u64, b: u64) -> u64 { a + b }\nfn noop() {}\n");
        let items = &a.items;
        assert_eq!(items.len(), 2);
        assert_eq!(items[0].kind, ItemKind::Fn);
        assert_eq!(items[0].name, "add");
        assert_eq!(items[0].vis, Vis::Pub);
        assert_eq!(items[0].params.len(), 2);
        assert_eq!(items[0].params[0].name, "a");
        assert_eq!(items[0].params[0].ty, "u64");
        assert_eq!(items[0].ret, "u64");
        assert!(items[0].body.is_some());
        assert_eq!(items[1].vis, Vis::Private);
    }

    #[test]
    fn generics_where_clauses_and_impl_ret() {
        let a = ast(
            "pub fn m<T, F>(n: usize, f: F) -> Vec<T> where F: Fn(usize) -> T + Sync { todo!() }\n\
             pub fn it(&self) -> impl Iterator<Item = u32> + '_ { 0..3 }\n",
        );
        assert_eq!(a.items[0].name, "m");
        assert_eq!(a.items[0].params.len(), 2);
        assert_eq!(a.items[0].params[1].name, "f");
        assert!(a.items[0].ret.starts_with("Vec"), "{:?}", a.items[0].ret);
        assert_eq!(a.items[1].name, "it");
        assert!(a.items[1].ret.contains("Iterator"));
    }

    #[test]
    fn impl_blocks_carry_self_type() {
        let a = ast(
            "impl<O: EdgeOracle> Walk<'_, O> { fn step(&mut self) {} }\n\
             impl std::fmt::Display for Error { fn fmt(&self) -> u8 { 0 } }\n\
             impl Default for Config { fn default() -> Self { Config }\n}",
        );
        assert_eq!(a.items[0].kind, ItemKind::Impl);
        assert_eq!(a.items[0].name, "Walk");
        assert_eq!(a.items[0].children[0].self_of.as_deref(), Some("Walk"));
        assert_eq!(a.items[1].name, "Error");
        assert_eq!(a.items[2].name, "Config");
        assert_eq!(a.items[2].children[0].name, "default");
    }

    #[test]
    fn cfg_test_subtrees_are_marked() {
        let src = "pub fn lib_code() {}\n\
                   #[cfg(test)]\nmod tests {\n  use super::*;\n  #[test]\n  fn t() { lib_code(); }\n}\n";
        let a = ast(src);
        assert!(!a.items[0].in_test);
        assert!(a.items[1].in_test);
        assert_eq!(a.items[1].kind, ItemKind::Mod);
        // Every child inherits.
        assert!(a.items[1].children.iter().all(|c| c.in_test));
        // The mask covers the mod's tokens.
        let mask = a.test_mask();
        let toks = scan(src).tokens;
        let idx = toks.iter().position(|t| t.is_ident("t")).unwrap();
        assert!(mask[idx]);
        let lib = toks.iter().position(|t| t.is_ident("lib_code")).unwrap();
        assert!(!mask[lib]);
    }

    #[test]
    fn test_attr_on_fn_marks_it() {
        let a = ast("#[test]\nfn check() { assert!(true); }\npub fn real() {}\n");
        assert!(a.items[0].in_test);
        assert!(!a.items[1].in_test);
    }

    #[test]
    fn pub_crate_is_restricted() {
        let a = ast("pub(crate) fn helper() {}\npub(super) fn up() {}\n");
        assert_eq!(a.items[0].vis, Vis::Restricted);
        assert_eq!(a.items[1].vis, Vis::Restricted);
    }

    #[test]
    fn const_fn_vs_const_item() {
        let a = ast("pub const LIMIT: usize = 3;\npub const fn cap() -> usize { LIMIT }\n");
        assert_eq!(a.items[0].kind, ItemKind::ConstItem);
        assert_eq!(a.items[0].name, "LIMIT");
        assert_eq!(a.items[1].kind, ItemKind::Fn);
        assert_eq!(a.items[1].name, "cap");
    }

    #[test]
    fn structs_enums_uses_and_macros() {
        let a = ast("use std::collections::BTreeMap;\n\
             pub struct P(pub u32);\n\
             pub enum E { A, B(u8) }\n\
             struct S { x: u32 }\n\
             macro_rules! m { () => {}; }\n\
             thread_local! { static X: u32 = 0; }\n");
        let kinds: Vec<ItemKind> = a.items.iter().map(|i| i.kind).collect();
        assert_eq!(
            kinds,
            vec![
                ItemKind::Use,
                ItemKind::TypeDef,
                ItemKind::TypeDef,
                ItemKind::TypeDef,
                ItemKind::Other,
                ItemKind::Other,
            ]
        );
        assert_eq!(a.items[1].name, "P");
        assert_eq!(a.items[2].name, "E");
    }

    #[test]
    fn nested_mods_inherit_test_scope() {
        let a = ast(
            "#[cfg(test)]\nmod outer {\n  mod inner {\n    fn deep() { x.unwrap(); }\n  }\n}\n",
        );
        let all = flat(&a);
        assert!(all.iter().all(|(_, _, t)| *t), "{all:?}");
    }

    #[test]
    fn traits_parse_their_methods() {
        let a = ast(
            "pub trait Oracle { fn n(&self) -> usize; fn has(&self, i: usize) -> bool { i < self.n() } }",
        );
        assert_eq!(a.items[0].kind, ItemKind::Trait);
        assert_eq!(a.items[0].name, "Oracle");
        assert_eq!(a.items[0].children.len(), 2);
        assert!(a.items[0].children[0].body.is_none());
        assert!(a.items[0].children[1].body.is_some());
        assert_eq!(a.items[0].children[1].self_of.as_deref(), Some("Oracle"));
    }

    #[test]
    fn parser_is_total_on_garbage() {
        for src in [
            "fn",
            "fn (",
            "impl {",
            "pub pub pub",
            "#[cfg(test) fn x",
            "mod m { fn f( }",
            "struct",
            "} } }",
            "fn f<T(x: T) {}",
        ] {
            let a = ast(src);
            // Mask construction must also be total.
            let _ = a.test_mask();
        }
    }

    #[test]
    fn body_ranges_are_exact() {
        let src = "fn f() { let x = 1; }";
        let a = ast(src);
        let toks = scan(src).tokens;
        let (lo, hi) = a.items[0].body.unwrap();
        let texts: Vec<&str> = toks[lo..hi].iter().map(|t| t.text.as_str()).collect();
        assert_eq!(texts, vec!["let", "x", "=", "1", ";"]);
    }
}
