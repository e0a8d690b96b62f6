//! Perf regression guard: the linter is a CI merge gate that runs on
//! every push, so whole-tree analysis must stay under a hard
//! wall-clock budget even with the interval prover in the pipeline.
//!
//! Two layers: the committed `BENCH_lint.json` baseline (produced by
//! `cargo bench -p andi-bench --bench lint_perf`) must record a
//! full-workspace median under the budget, and — in release builds —
//! a direct measurement re-checks the real tree so the guard cannot
//! go stale against a forgotten baseline.

use std::path::{Path, PathBuf};

/// Hard budget for one full-workspace lint (token rules + call graph
/// + interval prover + hygiene), in nanoseconds.
const BUDGET_NS: f64 = 100_000_000.0;

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root exists")
        .to_path_buf()
}

/// Minimal extraction of `"median": <f64>` from the named group's
/// record in the baseline JSON — the file is written by our vendored
/// criterion shim with a fixed shape, so no JSON parser is needed.
fn baseline_median_ns(json: &str, group: &str) -> f64 {
    let needle = format!("\"group\": \"{group}\"");
    let rec_start = json
        .find(&needle)
        .unwrap_or_else(|| panic!("group {group} missing from BENCH_lint.json"));
    let rest = &json[rec_start..];
    let med = rest
        .find("\"median\": ")
        .map(|i| &rest[i + "\"median\": ".len()..])
        .expect("median field present");
    let end = med.find([',', '}']).expect("median value terminated");
    med[..end]
        .trim()
        .parse::<f64>()
        .expect("median parses as a number")
}

#[test]
fn committed_baseline_is_under_budget() {
    let path = workspace_root().join("BENCH_lint.json");
    let json = std::fs::read_to_string(&path).expect("BENCH_lint.json is committed");
    let median = baseline_median_ns(&json, "lint_workspace");
    assert!(
        median < BUDGET_NS,
        "BENCH_lint.json records a full-tree lint median of {:.1} ms; \
         the merge gate budget is {:.0} ms — make the new analysis \
         cheaper or split it out of the per-push path",
        median / 1e6,
        BUDGET_NS / 1e6,
    );
    // The phase records must stay consistent with the total: each
    // phase alone cannot exceed the whole pipeline's budget.
    for phase in ["lint_scan_parse", "lint_call_graph"] {
        let m = baseline_median_ns(&json, phase);
        assert!(
            m < BUDGET_NS,
            "phase {phase} median {:.1} ms exceeds the whole-pipeline budget",
            m / 1e6
        );
    }
}

/// Release-build re-measurement over the real tree, so the guard
/// holds even if the committed baseline goes stale. Debug builds are
/// several times slower for reasons the gate does not care about, so
/// the wall-clock check compiles out there.
#[cfg(not(debug_assertions))]
#[test]
fn full_tree_lint_stays_under_budget() {
    use std::time::Instant;

    let root = workspace_root();
    let sources: Vec<(String, String)> = andi_lint::tree_files(&root)
        .expect("walk workspace tree")
        .into_iter()
        .map(|(rel, abs)| {
            let text = std::fs::read_to_string(&abs).expect("workspace file reads");
            (rel, text)
        })
        .collect();

    // Warm-up, then the median of five runs — a single cold run is
    // too noisy for a hard gate.
    let _ = andi_lint::lint_workspace(&sources);
    let mut runs: Vec<u128> = (0..5)
        .map(|_| {
            let t = Instant::now();
            let findings = andi_lint::lint_workspace(&sources);
            assert!(findings.is_empty(), "tree must stay clean: {findings:?}");
            t.elapsed().as_nanos()
        })
        .collect();
    runs.sort_unstable();
    let median = runs[runs.len() / 2] as f64;
    // Printed on passing runs too (CI runs this with `--nocapture`), so
    // the trend toward the budget shows before the gate trips.
    eprintln!(
        "full-tree lint median {:.1} ms over {} runs (budget {:.0} ms)",
        median / 1e6,
        runs.len(),
        BUDGET_NS / 1e6,
    );
    assert!(
        median < BUDGET_NS,
        "full-tree lint measured at {:.1} ms (budget {:.0} ms); \
         re-run `cargo bench -p andi-bench --bench lint_perf` and \
         shrink the regression before merging",
        median / 1e6,
        BUDGET_NS / 1e6,
    );
}
