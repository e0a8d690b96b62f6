//! Golden tests: every rule has a fixture that must flag and a
//! near-miss that must not, plus pragma-hygiene and whole-tree
//! checks, and exit-code tests against the compiled binary.

use std::path::{Path, PathBuf};
use std::process::Command;

use andi_lint::{lint_file, lint_files, lint_source, Finding};

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures")
}

/// Lints a fixture file under a virtual workspace path.
fn lint_fixture(fixture: &str, virtual_path: &str) -> Vec<Finding> {
    lint_file(virtual_path, &fixture_dir().join(fixture)).expect("fixture exists")
}

/// Lints several fixture files together as one virtual workspace —
/// how the cross-file fixtures exercise the call graph.
fn lint_fixtures(pairs: &[(&str, &str)]) -> Vec<Finding> {
    let pairs: Vec<(String, PathBuf)> = pairs
        .iter()
        .map(|(fixture, virt)| (virt.to_string(), fixture_dir().join(fixture)))
        .collect();
    lint_files(&pairs).expect("fixtures exist")
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root exists")
        .to_path_buf()
}

fn rules_of(findings: &[Finding]) -> Vec<&str> {
    findings.iter().map(|f| f.rule).collect()
}

#[test]
fn nondet_iteration_flags_and_near_miss() {
    let bad = lint_fixture("nondet_flag.rs", "crates/core/src/nondet_flag.rs");
    let rules = rules_of(&bad);
    assert!(
        rules.iter().filter(|r| **r == "nondet-iteration").count() >= 2,
        "for-loop and .keys() sites must both flag, got {bad:?}"
    );

    let ok = lint_fixture("nondet_near_miss.rs", "crates/core/src/nondet_near_miss.rs");
    assert!(ok.is_empty(), "near-miss must stay clean, got {ok:?}");

    // Out of scope: the same code in the binary crate root is not a
    // library determinism concern for this rule.
    let out_of_scope = lint_fixture("nondet_flag.rs", "src/nondet_flag.rs");
    assert!(rules_of(&out_of_scope)
        .iter()
        .all(|r| *r != "nondet-iteration"));
}

#[test]
fn lib_unwrap_flags_and_near_miss() {
    let bad = lint_fixture("unwrap_flag.rs", "crates/graph/src/unwrap_flag.rs");
    let rules = rules_of(&bad);
    assert_eq!(
        rules.iter().filter(|r| **r == "lib-unwrap").count(),
        3,
        "unwrap, expect and unwrap_err must flag, got {bad:?}"
    );

    let ok = lint_fixture(
        "unwrap_near_miss.rs",
        "crates/graph/src/unwrap_near_miss.rs",
    );
    assert!(ok.is_empty(), "near-miss must stay clean, got {ok:?}");
}

#[test]
fn wallclock_flags_and_near_miss() {
    let bad = lint_fixture("wallclock_flag.rs", "crates/core/src/wallclock_flag.rs");
    assert!(rules_of(&bad).contains(&"wallclock-in-core"), "{bad:?}");

    // The identical file under crates/bench is allowed.
    let bench = lint_fixture("wallclock_flag.rs", "crates/bench/src/wallclock_flag.rs");
    assert!(bench.is_empty(), "bench may time, got {bench:?}");

    let ok = lint_fixture(
        "wallclock_near_miss.rs",
        "crates/core/src/wallclock_near_miss.rs",
    );
    assert!(ok.is_empty(), "near-miss must stay clean, got {ok:?}");
}

#[test]
fn unseeded_rng_flags_and_near_miss() {
    let bad = lint_fixture("rng_flag.rs", "crates/core/src/rng_flag.rs");
    let rules = rules_of(&bad);
    assert_eq!(
        rules.iter().filter(|r| **r == "unseeded-rng").count(),
        2,
        "from_entropy and thread_rng must flag, got {bad:?}"
    );

    let ok = lint_fixture("rng_near_miss.rs", "crates/graph/src/rng_near_miss.rs");
    assert!(ok.is_empty(), "near-miss must stay clean, got {ok:?}");

    // The rule is scoped to core/graph: the data crate's generators
    // take RNGs from callers anyway, but the rule must not fire
    // there.
    let out_of_scope = lint_fixture("rng_flag.rs", "crates/data/src/rng_flag.rs");
    assert!(rules_of(&out_of_scope).iter().all(|r| *r != "unseeded-rng"));
}

#[test]
fn thread_spawn_flags_and_near_miss() {
    let bad = lint_fixture("thread_flag.rs", "crates/core/src/thread_flag.rs");
    let rules = rules_of(&bad);
    assert!(
        rules
            .iter()
            .filter(|r| **r == "thread-spawn-outside-par")
            .count()
            >= 2,
        "std::thread::spawn and crossbeam must both flag, got {bad:?}"
    );

    // The same file IS the parallel layer: allowed.
    let par = lint_fixture("thread_flag.rs", "crates/graph/src/par.rs");
    assert!(par.is_empty(), "par.rs may spawn, got {par:?}");

    let ok = lint_fixture("thread_near_miss.rs", "crates/core/src/thread_near_miss.rs");
    assert!(ok.is_empty(), "near-miss must stay clean, got {ok:?}");
}

#[test]
fn panic_reachability_flags_and_near_miss() {
    let bad = lint_fixture("panic_flag.rs", "crates/core/src/panic_flag.rs");
    let hits: Vec<&Finding> = bad
        .iter()
        .filter(|f| f.rule == "panic-reachability")
        .collect();
    assert_eq!(
        hits.len(),
        2,
        "the transitive panic! and the direct unreachable! must flag, got {bad:?}"
    );
    // The transitive site reports the shortest path from the root.
    assert!(
        hits.iter().any(|f| f.message.contains("lookup → locate")),
        "shortest path missing from report: {hits:?}"
    );
    assert!(
        hits.iter().any(|f| f.message.contains("`classify`")),
        "direct site must name its own root: {hits:?}"
    );

    let ok = lint_fixture("panic_near_miss.rs", "crates/core/src/panic_near_miss.rs");
    assert!(ok.is_empty(), "near-miss must stay clean, got {ok:?}");
}

#[test]
fn cross_file_panic_reachability() {
    // The leaf alone is clean: `pub(crate)` is not a public root.
    let alone = lint_fixture("xpanic_leaf.rs", "crates/graph/src/xpanic_leaf.rs");
    assert!(alone.is_empty(), "leaf alone must be clean, got {alone:?}");

    // Together with the public entry, the panic becomes reachable
    // across files — and the finding lands at the leaf site.
    let bad = lint_fixtures(&[
        ("xpanic_entry_flag.rs", "crates/graph/src/xpanic_entry.rs"),
        ("xpanic_leaf.rs", "crates/graph/src/xpanic_leaf.rs"),
    ]);
    let hits: Vec<&Finding> = bad
        .iter()
        .filter(|f| f.rule == "panic-reachability")
        .collect();
    assert_eq!(hits.len(), 1, "{bad:?}");
    assert_eq!(hits[0].file, "crates/graph/src/xpanic_leaf.rs");
    assert!(
        hits[0].message.contains("entry → leaf_pick"),
        "{}",
        hits[0].message
    );

    // A pragma on the call edge vouches for the subtree: clean, and
    // the pragma counts as used (no unused-pragma finding either).
    let ok = lint_fixtures(&[
        (
            "xpanic_entry_near_miss.rs",
            "crates/graph/src/xpanic_entry.rs",
        ),
        ("xpanic_leaf.rs", "crates/graph/src/xpanic_leaf.rs"),
    ]);
    assert!(ok.is_empty(), "pragma'd edge must stay clean, got {ok:?}");
}

#[test]
fn seed_provenance_flags_and_near_miss() {
    let bad = lint_fixture("seed_flag.rs", "crates/core/src/seed_flag.rs");
    let rules = rules_of(&bad);
    assert_eq!(
        rules.iter().filter(|r| **r == "seed-provenance").count(),
        2,
        "direct sink and *_seed parameter must both flag, got {bad:?}"
    );

    let ok = lint_fixture("seed_near_miss.rs", "crates/core/src/seed_near_miss.rs");
    assert!(
        ok.is_empty(),
        "config-derived seeds must stay clean, got {ok:?}"
    );
}

#[test]
fn float_merge_order_flags_and_near_miss() {
    let bad = lint_fixture("float_flag.rs", "crates/core/src/float_flag.rs");
    let rules = rules_of(&bad);
    assert_eq!(
        rules.iter().filter(|r| **r == "float-merge-order").count(),
        2,
        "thread-shaped sum and += accumulation must both flag, got {bad:?}"
    );

    let ok = lint_fixture("float_near_miss.rs", "crates/core/src/float_near_miss.rs");
    assert!(
        ok.is_empty(),
        "integer folds and fixed partitions must stay clean, got {ok:?}"
    );

    // Scope: the rule watches core/graph only.
    let out_of_scope = lint_fixture("float_flag.rs", "crates/mining/src/float_flag.rs");
    assert!(rules_of(&out_of_scope)
        .iter()
        .all(|r| *r != "float-merge-order"));
}

#[test]
fn result_discard_flags_and_near_miss() {
    let bad = lint_fixture("result_flag.rs", "crates/core/src/result_flag.rs");
    let rules = rules_of(&bad);
    assert_eq!(
        rules.iter().filter(|r| **r == "result-discard").count(),
        2,
        "`let _ =` and the bare statement must both flag, got {bad:?}"
    );

    let ok = lint_fixture("result_near_miss.rs", "crates/core/src/result_near_miss.rs");
    assert!(ok.is_empty(), "handled Results must stay clean, got {ok:?}");
}

#[test]
fn poll_reachability_flags_and_near_miss() {
    // The budgeted entry points are the fns with a Budget/CancelToken
    // parameter — no path list: the rule follows the call graph.
    let bad = lint_fixture("poll_flag.rs", "crates/graph/src/poll_flag.rs");
    let rules = rules_of(&bad);
    assert_eq!(
        rules.iter().filter(|r| **r == "poll-reachability").count(),
        2,
        "the pollless for-walk and while-retry must both flag, got {bad:?}"
    );

    // A direct budget.check(), a poll through a two-level helper
    // chain, a constant trip count, or a short body all neutralize
    // the rule — with no suppressions.
    let ok = lint_fixture("poll_near_miss.rs", "crates/graph/src/poll_near_miss.rs");
    assert!(ok.is_empty(), "near-miss must stay clean, got {ok:?}");

    // Out of scope: the binary crate root holds no budgeted entry
    // points.
    let out_of_scope = lint_fixture("poll_flag.rs", "src/poll_flag.rs");
    assert!(rules_of(&out_of_scope)
        .iter()
        .all(|r| *r != "poll-reachability"));
}

#[test]
fn unchecked_width_flags_and_near_miss() {
    let bad = lint_fixture("width_flag.rs", "crates/graph/src/width_flag.rs");
    let hits: Vec<&Finding> = bad.iter().filter(|f| f.rule == "unchecked-width").collect();
    assert_eq!(
        hits.len(),
        2,
        "the unbounded accumulation and the unbounded shift must both flag, got {bad:?}"
    );
    assert!(
        hits.iter().any(|f| f.message.contains("unproven `+`")),
        "the accumulation must name its op: {hits:?}"
    );
    assert!(
        hits.iter().any(|f| f.message.contains("unproven `<<`")),
        "the shift must name its op: {hits:?}"
    );

    let ok = lint_fixture("width_near_miss.rs", "crates/graph/src/width_near_miss.rs");
    assert!(
        ok.is_empty(),
        "guarded + assumed shapes must prove clean, got {ok:?}"
    );
}

#[test]
fn assume_soundness_flags_and_near_miss() {
    let bad = lint_fixture("assume_flag.rs", "crates/graph/src/assume_flag.rs");
    let hits: Vec<&Finding> = bad
        .iter()
        .filter(|f| f.rule == "assume-soundness")
        .collect();
    assert_eq!(
        hits.len(),
        2,
        "the unguarded assume and the half-guarded pair must flag, got {bad:?}"
    );
    assert!(
        hits.iter().any(|f| f.message.contains("(n in [0, 1000])")),
        "{hits:?}"
    );
    assert!(
        hits.iter().any(|f| f.message.contains("(b in [0, 50])")),
        "the guarded `a` must pass while the unguarded `b` flags: {hits:?}"
    );

    let ok = lint_fixture(
        "assume_near_miss.rs",
        "crates/graph/src/assume_near_miss.rs",
    );
    assert!(
        ok.is_empty(),
        "assert- and match-guarded assumes must stay clean, got {ok:?}"
    );
}

/// Regression: widening the kernel's dispatch ceiling without
/// re-deriving the width proof must be caught by the prover. At
/// `MAX_PERMANENT_N = 24`, the walk bound 2^23 * 24^24 exceeds
/// `i128::MAX`, so no total-accumulator contract can exist — the best
/// available assume (i128::MAX itself) leaves both `total += …`
/// accumulations unprovable: the block walk's and the chunk fold's.
#[test]
fn injected_dispatch_widening_is_flagged() {
    let path = workspace_root().join("crates/graph/src/permanent.rs");
    let src = std::fs::read_to_string(&path).expect("kernel source exists");

    // Baseline: the shipped kernel proves clean even standalone.
    let clean = lint_source("crates/graph/src/permanent.rs", &src);
    assert!(
        clean.is_empty(),
        "shipped kernel must prove clean, got {clean:?}"
    );

    let mut bugged = src.clone();
    for (from, to) in [
        // The injected bug: widen the fast-lane ceiling to 24.
        ("MAX_PERMANENT_N: usize = 22", "MAX_PERMANENT_N: usize = 24"),
        // Re-derive every small contract for N = 24 (24, 24^2, 24^3)…
        ("in [1, 22]", "in [1, 24]"),
        ("in [-22, 22]", "in [-24, 24]"),
        ("in [-484, 484]", "in [-576, 576]"),
        ("in [-10648, 10648]", "in [-13824, 13824]"),
        // …but no total bound exists: even claiming the full i128
        // range cannot make the accumulation provable.
        (
            "[-716026155870127773233492469657632768, 716026155870127773233492469657632768]",
            "[-170141183460469231731687303715884105727, 170141183460469231731687303715884105727]",
        ),
    ] {
        assert!(
            bugged.contains(from),
            "kernel drifted: `{from}` not found in permanent.rs"
        );
        bugged = bugged.replace(from, to);
    }

    let findings = lint_source("crates/graph/src/permanent.rs", &bugged);
    let width: Vec<&Finding> = findings
        .iter()
        .filter(|f| f.rule == "unchecked-width")
        .collect();
    assert_eq!(
        width.len(),
        2,
        "exactly the two widened accumulations must flag, got {findings:?}"
    );
    let lines: Vec<&str> = bugged.lines().collect();
    for f in &width {
        assert!(
            lines[f.line as usize - 1].contains("total +="),
            "the finding must sit on a `total +=` accumulation: {f:?}"
        );
        assert!(
            f.message.contains("unproven `+`"),
            "the finding must name the offending op: {}",
            f.message
        );
        assert!(
            f.message.contains("does not fit `i128`"),
            "the finding must show the overflowed type: {}",
            f.message
        );
    }
    assert!(
        findings.iter().all(|f| f.rule == "unchecked-width"),
        "the re-derived contracts must not trip other rules: {findings:?}"
    );
}

#[test]
fn budget_layer_scope_exemptions() {
    // par.rs hosts the Budget deadline clock: Instant is sanctioned
    // there (and only there, outside crates/bench).
    let par = lint_fixture("wallclock_flag.rs", "crates/graph/src/par.rs");
    assert!(
        rules_of(&par).iter().all(|r| *r != "wallclock-in-core"),
        "par.rs may read the clock, got {par:?}"
    );

    // faults.rs injects delays via std::thread::sleep; the
    // thread-spawn rule must not fire there.
    let faults = lint_fixture("thread_flag.rs", "crates/graph/src/faults.rs");
    assert!(
        rules_of(&faults)
            .iter()
            .all(|r| *r != "thread-spawn-outside-par"),
        "faults.rs may sleep, got {faults:?}"
    );
}

/// Two runs over differently-ordered file lists must produce
/// byte-identical JSON: findings are sorted by
/// `(path, line, column, rule)`, not by walk order.
#[test]
fn shuffled_file_order_yields_identical_json() {
    let pairs = [
        ("unwrap_flag.rs", "crates/core/src/a_unwrap.rs"),
        ("result_flag.rs", "crates/core/src/b_result.rs"),
        ("float_flag.rs", "crates/core/src/c_float.rs"),
        ("xpanic_entry_flag.rs", "crates/graph/src/xpanic_entry.rs"),
        ("xpanic_leaf.rs", "crates/graph/src/xpanic_leaf.rs"),
        ("poll_flag.rs", "crates/graph/src/poll_flag.rs"),
        ("width_flag.rs", "crates/graph/src/width_flag.rs"),
        ("assume_flag.rs", "crates/graph/src/assume_flag.rs"),
    ];
    let forward = andi_lint::format_json(&lint_fixtures(&pairs));
    let mut reversed = pairs;
    reversed.reverse();
    let backward = andi_lint::format_json(&lint_fixtures(&reversed));
    // Interleave a third order to be thorough.
    let shuffled = [
        pairs[2], pairs[6], pairs[4], pairs[0], pairs[7], pairs[3], pairs[1], pairs[5],
    ];
    let scrambled = andi_lint::format_json(&lint_fixtures(&shuffled));
    assert_eq!(forward, backward, "file order leaked into the output");
    assert_eq!(forward, scrambled, "file order leaked into the output");
    assert!(!forward.trim().is_empty());
}

/// Pragma burn-down: the count of active suppressions in the walked
/// tree may only decrease. The scope-aware semantic engine retired a
/// batch of pragmas the token heuristics needed; new code must not
/// creep back up. Raise this ceiling only with a written argument in
/// the PR description.
#[test]
fn pragma_count_only_decreases() {
    let count = andi_lint::count_pragmas(&workspace_root()).expect("tree walk succeeds");
    const CEILING: usize = 7;
    assert!(
        count <= CEILING,
        "active andi::allow pragmas grew to {count} (ceiling {CEILING}); \
         justify each new suppression and lower the ceiling when you retire one"
    );
}

/// Golden SARIF: the `--format sarif` rendering of a pinned fixture
/// workspace must stay byte-identical. CI consumers ingest this
/// format; any drift is a deliberate schema change. Regenerate with
/// `ANDI_BLESS=1 cargo test -p andi-lint --test golden sarif`.
#[test]
fn sarif_output_is_byte_stable() {
    let findings = lint_fixtures(&[
        ("unwrap_flag.rs", "crates/core/src/a_unwrap.rs"),
        ("float_flag.rs", "crates/core/src/c_float.rs"),
    ]);
    assert!(!findings.is_empty(), "the golden set must have findings");
    let sarif = andi_lint::format_sarif(&findings);
    let golden_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden_check.sarif");
    if std::env::var_os("ANDI_BLESS").is_some() {
        std::fs::write(&golden_path, &sarif).expect("bless writes the golden");
    }
    let golden = std::fs::read_to_string(&golden_path)
        .expect("golden SARIF exists; regenerate with ANDI_BLESS=1");
    assert_eq!(
        sarif, golden,
        "SARIF output drifted from tests/golden_check.sarif; \
         bless deliberately with ANDI_BLESS=1"
    );
}

/// SARIF must be walk-order independent, exactly like the JSON
/// format: findings are sorted by `(path, line, column, rule)` and
/// the rules table by rule id.
#[test]
fn shuffled_file_order_yields_identical_sarif() {
    let pairs = [
        ("unwrap_flag.rs", "crates/core/src/a_unwrap.rs"),
        ("result_flag.rs", "crates/core/src/b_result.rs"),
        ("float_flag.rs", "crates/core/src/c_float.rs"),
        ("xpanic_entry_flag.rs", "crates/graph/src/xpanic_entry.rs"),
        ("xpanic_leaf.rs", "crates/graph/src/xpanic_leaf.rs"),
        ("poll_flag.rs", "crates/graph/src/poll_flag.rs"),
        ("width_flag.rs", "crates/graph/src/width_flag.rs"),
        ("assume_flag.rs", "crates/graph/src/assume_flag.rs"),
    ];
    let forward = andi_lint::format_sarif(&lint_fixtures(&pairs));
    let mut reversed = pairs;
    reversed.reverse();
    let backward = andi_lint::format_sarif(&lint_fixtures(&reversed));
    let shuffled = [
        pairs[5], pairs[1], pairs[7], pairs[3], pairs[0], pairs[6], pairs[2], pairs[4],
    ];
    let scrambled = andi_lint::format_sarif(&lint_fixtures(&shuffled));
    assert_eq!(forward, backward, "file order leaked into SARIF");
    assert_eq!(forward, scrambled, "file order leaked into SARIF");
    assert!(forward.contains("\"version\": \"2.1.0\""));
    assert!(forward.contains("json.schemastore.org/sarif-2.1.0.json"));
}

/// Runs the information-flow pass over fixture files mounted at
/// virtual workspace paths — the taint analogue of [`lint_fixtures`].
fn taint_fixtures(pairs: &[(&str, &str)]) -> andi_lint::TaintReport {
    let files: Vec<andi_lint::SourceFile> = pairs
        .iter()
        .map(|(fixture, virt)| {
            let src = std::fs::read_to_string(fixture_dir().join(fixture)).expect("fixture exists");
            andi_lint::SourceFile::new(virt, &src)
        })
        .collect();
    let graph = andi_lint::build(&files);
    andi_lint::analyze(&files, &graph)
}

#[test]
fn leak_to_log_flags_and_near_miss() {
    let bad = taint_fixtures(&[("leak_log_flag.rs", "crates/core/src/leak_log_flag.rs")]);
    assert_eq!(rules_of(&bad.findings), vec!["leak-to-log"], "{bad:?}");
    let m = &bad.findings[0].message;
    assert!(m.contains("Basket::items"), "source must be named: {m}");
    assert!(m.contains("`format!`"), "sink must be named: {m}");

    let ok = taint_fixtures(&[(
        "leak_log_near_miss.rs",
        "crates/core/src/leak_log_near_miss.rs",
    )]);
    assert!(ok.findings.is_empty(), "aggregates are clean: {ok:?}");
    assert!(ok.hygiene.is_empty(), "{ok:?}");
}

#[test]
fn leak_in_error_flags_and_near_miss() {
    let bad = taint_fixtures(&[("leak_error_flag.rs", "crates/core/src/leak_error_flag.rs")]);
    assert_eq!(rules_of(&bad.findings), vec!["leak-in-error"], "{bad:?}");
    let m = &bad.findings[0].message;
    assert!(m.contains("Basket::items"), "source must be named: {m}");

    let ok = taint_fixtures(&[(
        "leak_error_near_miss.rs",
        "crates/core/src/leak_error_near_miss.rs",
    )]);
    assert!(ok.findings.is_empty(), "counts in errors are clean: {ok:?}");
    assert!(ok.hygiene.is_empty(), "{ok:?}");
}

#[test]
fn sensitive_debug_flags_and_near_miss() {
    let bad = taint_fixtures(&[(
        "sensitive_debug_flag.rs",
        "crates/core/src/sensitive_debug_flag.rs",
    )]);
    assert_eq!(rules_of(&bad.findings), vec!["sensitive-debug"], "{bad:?}");

    let ok = taint_fixtures(&[(
        "sensitive_debug_near_miss.rs",
        "crates/core/src/sensitive_debug_near_miss.rs",
    )]);
    assert!(
        ok.findings.is_empty(),
        "declassified Debug is clean: {ok:?}"
    );
    assert!(ok.hygiene.is_empty(), "the pragma is used: {ok:?}");
    assert_eq!(
        ok.stats.declassifies.len(),
        1,
        "the boundary joins the inventory: {ok:?}"
    );
}

/// End-to-end injected-leak drill: mount the real workspace sources
/// plus one extra file that prints raw transactions, and assert the
/// analysis flags exactly that file with a chain naming the real
/// source projection and the sink. This proves the annotations seeded
/// in `crates/data` actually protect the tree — not just fixtures.
#[test]
fn injected_leak_is_caught_with_named_chain() {
    let root = workspace_root();
    let mut files: Vec<andi_lint::SourceFile> = Vec::new();
    for (virt, real) in andi_lint::tree_files(&root).expect("tree walk succeeds") {
        files.push(andi_lint::SourceFile::new(
            &virt,
            &std::fs::read_to_string(&real).expect("source readable"),
        ));
    }
    files.push(andi_lint::SourceFile::new(
        "crates/core/src/injected_leak.rs",
        "use andi_data::database::Database;\n\
         pub fn debug_dump(db: &Database) {\n\
             println!(\"{:?}\", db.transactions());\n\
         }\n",
    ));
    let graph = andi_lint::build(&files);
    let report = andi_lint::analyze(&files, &graph);
    let injected: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.file == "crates/core/src/injected_leak.rs")
        .collect();
    assert_eq!(injected.len(), 1, "exactly the injected leak: {report:?}");
    assert_eq!(injected[0].rule, "leak-to-log");
    let m = &injected[0].message;
    assert!(
        m.contains("Database::transactions"),
        "chain must name the source: {m}"
    );
    assert!(m.contains("`println!`"), "chain must name the sink: {m}");
    // The rest of the tree stays leak-clean even with the extra file
    // in the graph.
    assert!(
        report
            .findings
            .iter()
            .all(|f| f.file == "crates/core/src/injected_leak.rs"),
        "{report:?}"
    );
}

/// Declassification burn-down: like `andi::allow`, the set of
/// `andi::declassify` boundaries may only shrink without review.
/// Every boundary is a hole in the information-flow proof; each new
/// one needs a written argument in the PR description.
#[test]
fn declassify_count_only_decreases() {
    let count = andi_lint::count_declassifies(&workspace_root()).expect("tree walk succeeds");
    const CEILING: usize = 4;
    assert!(
        count <= CEILING,
        "active andi::declassify boundaries grew to {count} (ceiling {CEILING}); \
         justify each new disclosure boundary and lower the ceiling when you retire one"
    );
}

/// Golden prover coverage: the tree proves clean, and the counts of
/// regions, width-checked ops, assumes and analyzed fns are pinned. A
/// front-end change that drops a struct field, a `let` binding or a
/// call edge must not silently shrink what the prover checks.
#[test]
fn prove_tree_is_clean_with_pinned_stats() {
    let proved = andi_lint::prove_tree(&workspace_root()).expect("tree walk succeeds");
    assert!(proved.findings.is_empty(), "{:?}", proved.findings);
    assert!(proved.hygiene.is_empty(), "{:?}", proved.hygiene);
    assert_eq!(
        proved.stats,
        andi_lint::ProofStats {
            regions: 7,
            checked_ops: 27,
            assumes: 19,
            fns_analyzed: 7,
        }
    );
}

/// Golden declassify inventory: the tree is leak-clean and the exact
/// set of sanctioned disclosure boundaries is pinned. A new boundary
/// (or a moved one) must update this list deliberately.
#[test]
fn taint_tree_is_leak_clean_with_pinned_inventory() {
    let report = andi_lint::taint_tree(&workspace_root()).expect("tree walk succeeds");
    assert!(
        report.findings.is_empty(),
        "information-flow findings in the tree: {:?}",
        report.findings
    );
    assert!(
        report.hygiene.is_empty(),
        "taint pragma hygiene findings: {:?}",
        report.hygiene
    );
    let inventory: Vec<&str> = report
        .stats
        .declassifies
        .iter()
        .map(|d| d.file.as_str())
        .collect();
    assert_eq!(
        inventory,
        [
            "crates/core/src/belief.rs",
            "crates/data/src/database.rs",
            "crates/data/src/fimi.rs",
            "crates/data/src/transaction.rs",
        ],
        "declassify inventory drifted: {:?}",
        report.stats.declassifies
    );
    // Every boundary sanctions at least one concrete flow — an
    // unused declassify would already be a hygiene finding, but pin
    // the inventory's flows too so chains stay explainable.
    for d in &report.stats.declassifies {
        assert!(
            !d.flows.is_empty(),
            "boundary {}:{} sanctions no flow",
            d.file,
            d.line
        );
        assert!(!d.reason.is_empty());
    }
}

#[test]
fn pragma_hygiene_is_enforced() {
    let findings = lint_fixture("pragma_hygiene.rs", "crates/core/src/pragma_hygiene.rs");
    let rules = rules_of(&findings);
    assert_eq!(
        rules.iter().filter(|r| **r == "invalid-pragma").count(),
        3,
        "reasonless + unknown-rule + malformed, got {findings:?}"
    );
    assert_eq!(
        rules.iter().filter(|r| **r == "unused-pragma").count(),
        1,
        "{findings:?}"
    );
    assert!(
        rules.iter().all(|r| *r != "lib-unwrap"),
        "the reasonless pragma still suppresses the unwrap, got {findings:?}"
    );
}

#[test]
fn suppression_requires_matching_rule_and_line() {
    let src = "fn f(v: &[u32]) -> u32 {\n\
               // andi::allow(wallclock-in-core) — wrong rule name\n\
               *v.first().unwrap()\n\
               }\n";
    let findings = lint_source("crates/core/src/demo.rs", src);
    let rules = rules_of(&findings);
    assert!(rules.contains(&"lib-unwrap"), "{findings:?}");
    assert!(rules.contains(&"unused-pragma"), "{findings:?}");
}

#[test]
fn findings_are_sorted_and_carry_positions() {
    let bad = lint_fixture("unwrap_flag.rs", "crates/core/src/unwrap_flag.rs");
    assert!(bad.windows(2).all(|w| w[0].line <= w[1].line));
    for f in &bad {
        assert!(f.line >= 1 && f.col >= 1);
        assert_eq!(f.file, "crates/core/src/unwrap_flag.rs");
    }
}

/// The merged tree must be clean — the merge-gate property the CI
/// job relies on.
#[test]
fn workspace_tree_is_clean() {
    let findings = andi_lint::check_tree(&workspace_root()).expect("tree walk succeeds");
    assert!(
        findings.is_empty(),
        "the workspace must lint clean:\n{}",
        andi_lint::format_human(&findings)
    );
}

/// Exit codes of the compiled binary: 0 on clean input, 1 on a
/// committed negative fixture, 2 on usage errors.
#[test]
fn binary_exit_codes() {
    let bin = env!("CARGO_BIN_EXE_andi-lint");
    let fixture = fixture_dir().join("unwrap_flag.rs");

    let dirty = Command::new(bin)
        .args(["check", "--file"])
        .arg(&fixture)
        .args(["--as", "crates/core/src/unwrap_flag.rs", "--format", "json"])
        .output()
        .expect("binary runs");
    assert_eq!(dirty.status.code(), Some(1), "findings must exit 1");
    let json = String::from_utf8(dirty.stdout).expect("json output is utf-8");
    assert!(json.contains("\"rule\":\"lib-unwrap\""), "{json}");
    assert!(json.trim_start().starts_with('['), "{json}");

    let clean = Command::new(bin)
        .args(["check", "--file"])
        .arg(fixture_dir().join("unwrap_near_miss.rs"))
        .args(["--as", "crates/core/src/unwrap_near_miss.rs"])
        .output()
        .expect("binary runs");
    assert_eq!(clean.status.code(), Some(0), "clean input must exit 0");

    let usage = Command::new(bin)
        .args(["frobnicate"])
        .output()
        .expect("binary runs");
    assert_eq!(usage.status.code(), Some(2), "usage errors must exit 2");

    // Repeated --file/--as pairs lint as one virtual workspace, so
    // the cross-file rules see both sides.
    let cross = Command::new(bin)
        .args(["check", "--file"])
        .arg(fixture_dir().join("xpanic_entry_flag.rs"))
        .args(["--as", "crates/graph/src/xpanic_entry.rs", "--file"])
        .arg(fixture_dir().join("xpanic_leaf.rs"))
        .args([
            "--as",
            "crates/graph/src/xpanic_leaf.rs",
            "--format",
            "json",
        ])
        .output()
        .expect("binary runs");
    assert_eq!(cross.status.code(), Some(1), "cross-file panic must exit 1");
    let json = String::from_utf8(cross.stdout).expect("utf-8");
    assert!(json.contains("\"rule\":\"panic-reachability\""), "{json}");

    let rules = Command::new(bin).args(["rules"]).output().expect("runs");
    assert_eq!(rules.status.code(), Some(0));
    let listing = String::from_utf8(rules.stdout).expect("utf-8");
    for rule in [
        "nondet-iteration",
        "lib-unwrap",
        "wallclock-in-core",
        "panic-reachability",
        "seed-provenance",
        "float-merge-order",
        "result-discard",
        "poll-reachability",
        "unchecked-width",
        "assume-soundness",
        "leak-to-log",
        "leak-in-error",
        "sensitive-debug",
    ] {
        assert!(listing.contains(rule), "missing {rule} in listing");
    }
    assert!(
        !listing.contains("cancel-blind-loop"),
        "cancel-blind-loop was subsumed by poll-reachability and must \
         no longer be advertised"
    );
}

/// Regression for the lexer's UTF-8 column accounting: a multi-byte
/// em-dash in a comment earlier on the line must not shift the
/// reported column of a finding after it (columns are characters,
/// not bytes).
#[test]
fn multibyte_comment_keeps_finding_columns() {
    let src = "pub fn f(v: &[u32]) -> u32 {\n\
               /* — dash — */ *v.first().unwrap()\n\
               }\n";
    let findings = lint_source("crates/core/src/demo.rs", src);
    let unwraps: Vec<&Finding> = findings.iter().filter(|f| f.rule == "lib-unwrap").collect();
    assert_eq!(unwraps.len(), 1, "{findings:?}");
    // The `unwrap` ident sits at character column 27; counting the
    // two 3-byte em-dashes per byte would report 31 instead.
    assert_eq!(unwraps[0].line, 2);
    assert_eq!(
        unwraps[0].col, 27,
        "character column expected, not byte column: {:?}",
        unwraps[0]
    );
}
