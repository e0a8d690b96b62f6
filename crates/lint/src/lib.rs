//! `andi-lint` — repo-native static analysis for the `andi`
//! workspace.
//!
//! The workspace's headline guarantee (PR 1) is that every risk
//! number is bit-identical across runs and thread counts. That
//! guarantee is easy to erode one `HashMap` iteration or one
//! `unwrap()` at a time, so this crate enforces it mechanically, in
//! two layers:
//!
//! * a **token layer**: a comment/string/char-literal-aware scanner
//!   ([`lexer`]) and line-local rules over the token stream
//!   ([`rules`]);
//! * a **semantic layer**: a recursive-descent item parser
//!   ([`parser`]) producing per-file item trees with real
//!   `#[cfg(test)]` scopes, a workspace call graph linking fn
//!   definitions to call sites across crates ([`graph`], also the
//!   shared front end: call lists, field tables, delimiter matches
//!   and `let` splits that every analysis reads), and a
//!   forward-dataflow engine over fn bodies ([`dataflow`]) — the
//!   substrate for `panic-reachability`, `seed-provenance`,
//!   `float-merge-order`, and `result-discard`.
//!
//! The engine ([`engine`]) lints the whole workspace as one unit and
//! emits findings in `(path, line, column, rule)` order, so output is
//! byte-identical regardless of walk order.
//!
//! Run it with `cargo run -p andi-lint -- check`; CI runs it with
//! `--format json` and fails the build on any unsuppressed finding.
//! Suppressions are spelled
//!
//! ```text
//! // andi::allow(lib-unwrap) — mutex poisoning is unreachable: workers never panic
//! ```
//!
//! on the offending line or the line above it, and MUST carry a
//! written justification; the engine itself flags empty reasons
//! (`invalid-pragma`) and pragmas that suppress nothing
//! (`unused-pragma`). For `panic-reachability`, a pragma at a *call
//! site* vouches for every panic behind that edge (see
//! CONTRIBUTING.md for the report format).

#![forbid(unsafe_code)]

pub mod contracts;
pub mod dataflow;
pub mod engine;
pub mod graph;
pub mod interval;
pub mod lexer;
pub mod parser;
pub mod rules;
pub mod taint;

pub use contracts::{Assume, Contract, FileContracts};
pub use engine::{
    check_tree, count_declassifies, count_pragmas, format_human, format_json, format_sarif,
    lint_file, lint_files, lint_source, lint_workspace, prove_tree, taint_tree, tree_files,
};
pub use graph::{build, CallGraph, CallSite, FnNode, PanicSite, SourceFile};
pub use interval::{prove, Interval, ProofStats, Proved, Ty, TyInfo};
pub use lexer::{scan, ContractComment, Declassify, Pragma, Scan, SensitiveMark, Token, TokenKind};
pub use parser::{parse, FileAst, Item, ItemKind, Param, Vis};
pub use rules::{Finding, RuleInfo, RULES};
pub use taint::{analyze, DeclassifySite, TaintReport, TaintStats};
