//! Replays the committed regression corpus as ordinary tests: every
//! instance under `crates/oracle/corpus/` must pass the full
//! differential battery, deterministically. CI runs this under
//! `ANDI_THREADS=1` and `ANDI_THREADS=4`; the reports must not
//! depend on the thread count.

use andi_oracle::convex::{convex_exact, DEFAULT_STATE_BUDGET};
use andi_oracle::{check_instance, corpus, CheckConfig};

#[test]
fn committed_corpus_replays_clean() {
    let entries = corpus::load_dir(&corpus::corpus_dir()).expect("committed corpus loads");
    assert!(
        entries.len() >= 31,
        "corpus unexpectedly small: {} files",
        entries.len()
    );
    let config = CheckConfig::default();
    for (path, inst) in &entries {
        let report = check_instance(inst, &config).unwrap();
        assert!(
            report.is_clean(),
            "{}: {:?}",
            path.display(),
            report.violations
        );
        assert!(
            !report.checks_run.is_empty(),
            "{}: no relations evaluated",
            path.display()
        );
    }
}

#[test]
fn corpus_replay_is_deterministic() {
    let entries = corpus::load_dir(&corpus::corpus_dir()).expect("committed corpus loads");
    let config = CheckConfig::default();
    for (path, inst) in &entries {
        let first = check_instance(inst, &config).unwrap();
        let second = check_instance(inst, &config).unwrap();
        assert_eq!(
            first.checks_run,
            second.checks_run,
            "{}: replay must evaluate the same relations",
            path.display()
        );
    }
}

#[test]
fn corpus_files_are_canonical() {
    // Each committed file is the canonical serialization of the
    // instance it parses to, under the file name the corpus derives
    // from its label — so regenerating the corpus is a no-op.
    let entries = corpus::load_dir(&corpus::corpus_dir()).expect("committed corpus loads");
    for (path, inst) in &entries {
        let text = std::fs::read_to_string(path).unwrap();
        assert_eq!(text, inst.to_text(), "{} is not canonical", path.display());
        let name = path.file_name().unwrap().to_str().unwrap();
        assert_eq!(
            name,
            corpus::file_name_for(&inst.label),
            "{} is misnamed for label {:?}",
            path.display(),
            inst.label
        );
    }
}

#[test]
fn convex_cases_compare_the_dp_on_wide_windows() {
    // The committed `convex:` cases keep the convex DP answering at a
    // window of two groups or more, and the battery compares it with
    // another exact estimator there.
    let entries = corpus::load_dir(&corpus::corpus_dir()).expect("committed corpus loads");
    let config = CheckConfig::default();
    let mut seen = 0;
    for (path, inst) in entries
        .iter()
        .filter(|(_, i)| i.label.starts_with("convex:"))
    {
        let exact = convex_exact(&inst.graph().unwrap(), DEFAULT_STATE_BUDGET).unwrap();
        assert!(
            exact.window >= 2,
            "{}: W = {}",
            path.display(),
            exact.window
        );
        let report = check_instance(inst, &config).unwrap();
        assert!(
            report
                .checks_run
                .iter()
                .any(|c| c.starts_with("convex-dp-vs-") && !c.contains("o-estimate")),
            "{}: {:?}",
            path.display(),
            report.checks_run
        );
        seen += 1;
    }
    assert!(seen >= 2, "only {seen} convex cases");
}
