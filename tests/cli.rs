//! End-to-end tests of the `andi` command-line binary, driving the
//! real executable over real FIMI files.

use std::path::PathBuf;
use std::process::{Command, Output};

fn andi(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_andi"))
        .args(args)
        .output()
        .expect("the andi binary runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// Writes the BigMart database as a FIMI file in a temp dir.
fn bigmart_file(dir: &std::path::Path) -> PathBuf {
    let db = andi::bigmart();
    let mut buf = Vec::new();
    andi::data::fimi::write_fimi(&db, &mut buf).unwrap();
    let path = dir.join("bigmart.dat");
    std::fs::write(&path, buf).unwrap();
    path
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("andi-cli-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn no_args_prints_usage_and_fails() {
    let out = andi(&[]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("usage:"));
}

#[test]
fn help_succeeds() {
    let out = andi(&["help"]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("assess"));
}

#[test]
fn unknown_command_fails_with_message() {
    let out = andi(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("frobnicate"));
}

#[test]
fn demo_walks_bigmart() {
    let out = andi(&["demo"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("BigMart"));
    assert!(
        text.contains("tau =") && text.contains("0.1:"),
        "got:\n{text}"
    );
}

#[test]
fn stats_reports_figure_9_columns() {
    let dir = temp_dir("stats");
    let file = bigmart_file(&dir);
    let out = andi(&["stats", file.to_str().unwrap()]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("items:            6"));
    assert!(text.contains("frequency groups: 3 (2 singletons)"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn assess_produces_a_verdict() {
    let dir = temp_dir("assess");
    let file = bigmart_file(&dir);
    let out = andi(&["assess", file.to_str().unwrap(), "--tau", "0.6"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    assert!(stdout(&out).contains("DISCLOSE"));

    let out = andi(&["assess", file.to_str().unwrap(), "--tau", "0.1"]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("JUDGEMENT CALL"));
    assert!(text.contains("alpha_max"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn assess_with_budget_reports_provenance_and_exit_codes() {
    let dir = temp_dir("assess-budget");
    let file = bigmart_file(&dir);

    // A generous budget answers on the exact rung: exit 0, and the
    // provenance names the rung that produced the numbers.
    let out = andi(&[
        "assess",
        file.to_str().unwrap(),
        "--tau",
        "0.1",
        "--budget-ms",
        "60000",
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(
        text.contains("answered by exact-permanent (exact)"),
        "got:\n{text}"
    );

    // A zero budget trips every rung above the O-estimate floor: the
    // verdict still prints, but the run exits with the degraded code.
    let out = andi(&[
        "assess",
        file.to_str().unwrap(),
        "--tau",
        "0.1",
        "--budget-ms",
        "0",
    ]);
    assert_eq!(out.status.code(), Some(3), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(
        text.contains("answered by o-estimate (degraded)"),
        "got:\n{text}"
    );
    assert!(text.contains("exact-permanent tripped"), "got:\n{text}");
    assert!(text.contains("matching-sampler tripped"), "got:\n{text}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn oe_with_exact_estimator() {
    let dir = temp_dir("oe");
    let file = bigmart_file(&dir);
    let out = andi(&["oe", file.to_str().unwrap(), "--exact"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("O-estimate (plain)"));
    assert!(
        text.contains("exact expected cracks     : 2.000\n"),
        "got:\n{text}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Forty items in every one of five transactions share one support:
/// one complete 40-item component, above the 22-item walk ceiling, so
/// the exact kernel prices it at `u64::MAX` and declines before any
/// walk. `oe --exact` prints that decline and still succeeds.
#[test]
fn oe_exact_prints_the_priced_decline() {
    let dir = temp_dir("oe-decline");
    let row: Vec<String> = (0..40).map(|i| i.to_string()).collect();
    let file = dir.join("flat.dat");
    std::fs::write(&file, format!("{}\n", row.join(" ")).repeat(5)).unwrap();
    let out = andi(&["oe", file.to_str().unwrap(), "--exact"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    let line = text
        .lines()
        .find(|l| l.starts_with("exact expected cracks"))
        .unwrap_or_else(|| panic!("no exact line in:\n{text}"));
    assert!(line.contains("declined"), "{line}");
    assert!(line.contains(&u64::MAX.to_string()), "{line}");
    assert!(line.contains("1310720"), "{line}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn anonymize_roundtrip_through_files() {
    let dir = temp_dir("anon");
    let file = bigmart_file(&dir);
    let anon = dir.join("anon.dat");
    let map = dir.join("map.txt");
    let out = andi(&[
        "anonymize",
        file.to_str().unwrap(),
        anon.to_str().unwrap(),
        "--seed",
        "9",
        "--mapping",
        map.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    assert!(anon.exists());
    let mapping_text = std::fs::read_to_string(&map).unwrap();
    assert!(mapping_text.lines().count() >= 7, "header + 6 items");

    // The released file parses and has the same support multiset.
    let released = andi::data::fimi::read_fimi_file(&anon).unwrap();
    let mut a = released.database.supports();
    let mut b = andi::bigmart().supports();
    a.sort_unstable();
    b.sort_unstable();
    assert_eq!(a, b);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn mine_lists_itemsets_and_rules() {
    let dir = temp_dir("mine");
    let file = bigmart_file(&dir);
    let out = andi(&[
        "mine",
        file.to_str().unwrap(),
        "--min-support",
        "4",
        "--rules",
        "0.9",
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("frequent itemsets"));
    assert!(text.contains("rules at confidence"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn mine_requires_min_support() {
    let dir = temp_dir("mine2");
    let file = bigmart_file(&dir);
    let file = file.to_str().unwrap();
    for args in [vec!["mine", file], vec!["mine", file, "--min-support", "0"]] {
        let out = andi(&args);
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        let err = stderr(&out);
        assert!(
            err.contains("error:") && err.contains("--min-support"),
            "{err}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A rule confidence outside [0, 1] (or NaN) is refused before any
/// mining, with nothing on stdout: it used to reach `generate_rules`'
/// assertion after the itemsets were printed.
#[test]
fn mine_rejects_a_confidence_outside_the_unit_interval() {
    let dir = temp_dir("mine-rules");
    let file = bigmart_file(&dir);
    let file = file.to_str().unwrap();
    for conf in ["2", "-1", "nan", "1.0000001"] {
        let out = andi(&["mine", file, "--min-support", "1", "--rules", conf]);
        assert_eq!(out.status.code(), Some(1), "--rules {conf}");
        assert!(
            stderr(&out).contains("error: --rules must be in [0, 1]"),
            "--rules {conf}: {}",
            stderr(&out)
        );
        assert!(out.stdout.is_empty(), "--rules {conf}: mined anyway");
    }
    for conf in ["0", "1"] {
        let out = andi(&["mine", file, "--min-support", "4", "--rules", conf]);
        assert!(out.status.success(), "--rules {conf}: {}", stderr(&out));
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A FIMI file whose items are 10, 20, 30 and 40: the reports name
/// the file's ids, not the dense ids 0..4 they are mined under.
#[test]
fn reports_name_the_files_item_ids() {
    let dir = temp_dir("sparse-ids");
    let file = dir.join("sparse.dat");
    std::fs::write(
        &file,
        "10 20\n10 30\n10 20 30\n10 30 40\n20 40\n30 40\n10 30\n30\n",
    )
    .unwrap();
    let file = file.to_str().unwrap();

    let out = andi(&["advise", file, "--tau", "0.1"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    let withheld: Vec<&str> = text
        .lines()
        .filter_map(|l| l.trim().strip_prefix("withhold item "))
        .map(|rest| rest.split_whitespace().next().unwrap())
        .collect();
    assert!(!withheld.is_empty(), "{text}");
    for id in withheld {
        assert!(["10", "20", "30", "40"].contains(&id), "{text}");
    }

    let out = andi(&["mine", file, "--min-support", "2", "--rules", "0.8"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("  {10,30}  (support 4)\n"), "{text}");
    assert!(text.contains("  {10} => {30} (sup 4, conf 0.80"), "{text}");
    assert!(!text.contains("{0"), "{text}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn options_may_come_before_the_files() {
    let dir = temp_dir("order");
    let file = bigmart_file(&dir);
    let file = file.to_str().unwrap();
    let after = andi(&["mine", file, "--min-support", "2", "--rules", "0.9"]);
    let before = andi(&["mine", "--min-support", "2", "--rules", "0.9", file]);
    assert!(before.status.success(), "stderr: {}", stderr(&before));
    assert_eq!(stdout(&before), stdout(&after));

    let out_file = dir.join("anon.dat");
    let out = andi(&[
        "anonymize",
        "--seed",
        "5",
        file,
        "--mapping",
        dir.join("map.txt").to_str().unwrap(),
        out_file.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    assert!(
        out_file.exists(),
        "the second positional is the output file"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn an_option_the_command_does_not_read_is_an_error() {
    let dir = temp_dir("unknown-option");
    let file = bigmart_file(&dir);
    let out = andi(&[
        "mine",
        file.to_str().unwrap(),
        "--min-support",
        "2",
        "--algo",
        "eclat",
    ]);
    assert!(!out.status.success());
    assert!(
        stderr(&out).contains("unknown option \"--algo\""),
        "{}",
        stderr(&out)
    );

    let out = andi(&["oe", file.to_str().unwrap(), "--tau"]);
    assert!(!out.status.success(), "oe reads no --tau");
    let out = andi(&["advise", file.to_str().unwrap(), "--tau"]);
    assert!(
        stderr(&out).contains("--tau needs a value"),
        "{}",
        stderr(&out)
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_file_the_command_does_not_read_is_an_error() {
    let dir = temp_dir("extra-file");
    let file = bigmart_file(&dir);
    let file = file.to_str().unwrap();
    for args in [
        vec!["stats", file, "/nonexistent/extra.dat"],
        vec!["assess", file, "--tau", "0.6", "/nonexistent/extra.dat"],
        vec!["anonymize", file, "out.dat", "/nonexistent/extra.dat"],
        vec!["demo", "/nonexistent/extra.dat"],
    ] {
        let out = andi(&args);
        assert!(!out.status.success(), "{args:?} exited 0");
        assert!(
            stderr(&out).contains("unexpected argument \"/nonexistent/extra.dat\""),
            "{args:?}: {}",
            stderr(&out)
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn similarity_prints_curve() {
    let dir = temp_dir("sim");
    let file = bigmart_file(&dir);
    let out = andi(&[
        "similarity",
        file.to_str().unwrap(),
        "--fractions",
        "0.5,1.0",
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("mean alpha"));
    assert!(text.contains("100.0%"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn advise_recommends_suppression() {
    let dir = temp_dir("advise");
    let file = bigmart_file(&dir);
    let out = andi(&["advise", file.to_str().unwrap(), "--tau", "0.2"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("advice"), "got: {text}");
    assert!(text.contains("withhold"), "got: {text}");

    let out = andi(&["advise", file.to_str().unwrap(), "--tau", "0.99"]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("release as-is"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn portfolio_compares_candidates() {
    let dir = temp_dir("portfolio");
    let file = bigmart_file(&dir);
    let out = andi(&["portfolio", file.to_str().unwrap(), "--min-support", "2"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("candidate"), "got: {text}");
    assert!(text.contains("full"));
    assert!(text.contains("suppressed"));
    assert!(text.contains("mining F1"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn missing_file_is_a_clean_error() {
    let out = andi(&["stats", "/nonexistent/nope.dat"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("nope.dat"));
}

/// Writes a FIMI file of 4 identical transactions over 31 items, so
/// every item has support 4 and an ignorant belief makes one complete
/// 31-item component.
fn wide_file(dir: &std::path::Path) -> PathBuf {
    let row: Vec<String> = (1..=31).map(|i| i.to_string()).collect();
    let row = row.join(" ");
    let text = format!("{row}\n{row}\n{row}\n{row}\n");
    let path = dir.join("wide.dat");
    std::fs::write(&path, text).unwrap();
    path
}

/// Writes an ignorant 31-item belief instance matching [`wide_file`]
/// in the oracle's instance format.
fn wide_ignorant_instance(dir: &std::path::Path) -> PathBuf {
    let inst = andi_oracle::Instance {
        label: "cli:wide-ignorant".into(),
        regime: andi_oracle::Regime::Ignorant,
        supports: vec![4; 31],
        m: 4,
        intervals: vec![(0.0, 1.0); 31],
        mask: None,
    };
    let path = dir.join("wide-ignorant.txt");
    std::fs::write(&path, inst.to_text()).unwrap();
    path
}

#[test]
fn assess_belief_degrades_to_sampler_above_the_permanent_cap() {
    let dir = temp_dir("belief-sampler");
    let file = wide_file(&dir);
    let inst = wide_ignorant_instance(&dir);
    let json = dir.join("prov.json");

    // The complete 31-item component prices above the exact cap, so
    // the ladder answers on the sampler rung: degraded exit code, one
    // recorded trip.
    let out = andi(&[
        "assess",
        file.to_str().unwrap(),
        "--belief",
        inst.to_str().unwrap(),
        "--provenance-json",
        json.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(3), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(
        text.contains("answered by matching-sampler (degraded)"),
        "got:\n{text}"
    );
    assert!(text.contains("exact-permanent tripped"), "got:\n{text}");

    // The provenance JSON round-trips through the oracle's parser.
    let raw = std::fs::read_to_string(&json).unwrap();
    let prov = andi_oracle::provenance_from_json(&raw).unwrap();
    assert_eq!(prov.rung, andi::Rung::Sampler);
    assert!(prov.degraded);
    assert_eq!(prov.trips.len(), 1);
    assert_eq!(prov.trips[0].0, andi::Rung::Exact);
    assert_eq!(andi_oracle::provenance_to_json(&prov), raw.trim_end());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn assess_belief_degrades_to_oestimate_on_a_zero_budget() {
    let dir = temp_dir("belief-oe");
    let file = wide_file(&dir);
    let inst = wide_ignorant_instance(&dir);
    let json = dir.join("prov.json");

    let out = andi(&[
        "assess",
        file.to_str().unwrap(),
        "--belief",
        inst.to_str().unwrap(),
        "--budget-ms",
        "0",
        "--provenance-json",
        json.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(3), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(
        text.contains("answered by o-estimate (degraded)"),
        "got:\n{text}"
    );
    assert!(text.contains("exact-permanent tripped"), "got:\n{text}");
    assert!(text.contains("matching-sampler tripped"), "got:\n{text}");

    let raw = std::fs::read_to_string(&json).unwrap();
    let prov = andi_oracle::provenance_from_json(&raw).unwrap();
    assert_eq!(prov.rung, andi::Rung::OEstimate);
    assert!(prov.degraded);
    assert_eq!(prov.trips.len(), 2);
    assert_eq!(prov.budget_ms, Some(0));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn assess_belief_rejects_an_empty_mapping_space() {
    let dir = temp_dir("belief-empty");
    let file = bigmart_file(&dir);

    // Two point believers both claim the singleton frequency-3 group:
    // no consistent crack mapping exists.
    let inst = andi_oracle::Instance {
        label: "cli:bigmart-infeasible".into(),
        regime: andi_oracle::Regime::NearDegenerate,
        supports: vec![5, 4, 5, 5, 3, 5],
        m: 10,
        intervals: vec![
            (0.5, 0.5),
            (0.3, 0.3),
            (0.5, 0.5),
            (0.5, 0.5),
            (0.3, 0.3),
            (0.5, 0.5),
        ],
        mask: None,
    };
    let inst_path = dir.join("infeasible.txt");
    std::fs::write(&inst_path, inst.to_text()).unwrap();

    let out = andi(&[
        "assess",
        file.to_str().unwrap(),
        "--belief",
        inst_path.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(1), "stdout: {}", stdout(&out));
    assert!(
        stderr(&out).contains("mappings is empty"),
        "got: {}",
        stderr(&out)
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn assess_budget_writes_provenance_json() {
    let dir = temp_dir("assess-prov-json");
    let file = bigmart_file(&dir);
    let json = dir.join("prov.json");

    let out = andi(&[
        "assess",
        file.to_str().unwrap(),
        "--tau",
        "0.1",
        "--budget-ms",
        "60000",
        "--provenance-json",
        json.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let raw = std::fs::read_to_string(&json).unwrap();
    let prov = andi_oracle::provenance_from_json(&raw).unwrap();
    assert_eq!(prov.rung, andi::Rung::Exact);
    assert!(!prov.degraded);
    assert!(prov.trips.is_empty());
    std::fs::remove_dir_all(&dir).ok();
}
