//! Smoke test: a `--quick` run of every workload prints every metric
//! `BENCHMARK.json` names, with its unit, fails no operation and exits
//! 0; and `compare` gates on the bounds and on failures.

use std::path::{Path, PathBuf};
use std::process::Command;

use andi_oracle::serial::Json;

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json sits at the repository root");
    Json::parse(&text).expect("BENCHMARK.json is JSON")
}

fn list<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
    match doc.get(key) {
        Some(Json::Arr(items)) => items,
        _ => panic!("BENCHMARK.json has no {key} list"),
    }
}

fn field<'a>(item: &'a Json, key: &str) -> &'a str {
    item.get(key)
        .and_then(Json::as_str)
        .expect("a string field")
}

fn run(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_andi-benchmark"))
        .args(args)
        .output()
        .expect("the benchmark binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn assert_printed(result: &Json, workload: &str, metric: &str, unit: &str) {
    let printed = result
        .get("metrics")
        .and_then(|ms| ms.get(metric))
        .unwrap_or_else(|| panic!("{workload}: {metric} not printed"));
    assert_eq!(
        printed.get("unit").and_then(Json::as_str),
        Some(unit),
        "{workload}: {metric}"
    );
    let value: f64 = printed
        .get("value")
        .and_then(Json::as_num)
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("{workload}: {metric} has no numeric value"));
    assert!(value.is_finite(), "{workload}: {metric}");
}

#[test]
fn quick_runs_print_every_named_metric_without_failures() {
    let spec = benchmark_json();
    let mut expected: Vec<&str> = list(&spec, "workloads")
        .iter()
        .map(|w| field(w, "name"))
        .collect();
    expected.sort_unstable();
    for (trace, metrics_key) in [("0", "end_to_end"), ("1", "per_layer")] {
        let (ok, stdout, stderr) = run(&["--quick", "--seed", "7", "--trace", trace]);
        assert!(ok, "--trace {trace} failed:\n{stderr}");
        let last = stdout.lines().last().expect("a result line");
        let doc = Json::parse(last).expect("the result line is JSON");
        let Some(Json::Obj(results)) = doc.get("workloads") else {
            panic!("no workloads in {last}");
        };
        let mut names: Vec<&str> = results.iter().map(|(n, _)| n.as_str()).collect();
        names.sort_unstable();
        assert_eq!(names, expected);
        for (name, result) in results {
            assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{name}");
            assert_eq!(
                result.get("error_rate").and_then(Json::as_num),
                Some("0"),
                "{name}"
            );
            for m in list(&spec, metrics_key) {
                assert_printed(result, name, field(m, "name"), field(m, "unit"));
            }
        }
    }
}

/// One all-workload result line with every end-to-end metric at
/// `value` and `failed` of 100 operations failed.
fn result_line(spec: &Json, value: f64, failed: u32) -> String {
    let metrics: Vec<String> = list(spec, "end_to_end")
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{value},\"unit\":\"{}\"}}",
                field(m, "name"),
                field(m, "unit")
            )
        })
        .collect();
    let workloads: Vec<String> = list(spec, "workloads")
        .iter()
        .map(|w| {
            format!(
                "\"{}\":{{\"attempted\":100,\"failed\":{failed},\"metrics\":{{{}}}}}",
                field(w, "name"),
                metrics.join(",")
            )
        })
        .collect();
    format!("{{\"workloads\":{{{}}}}}\n", workloads.join(","))
}

#[test]
fn compare_passes_within_bounds_and_fails_beyond_them() {
    let spec = benchmark_json();
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let write = |name: &str, value: f64, failed: u32| {
        let path = dir.join(name);
        std::fs::write(&path, result_line(&spec, value, failed)).expect("temp dir is writable");
        path.to_string_lossy().into_owned()
    };
    let base = write("compare-base.jsonl", 100.0, 0);
    let near = write("compare-near.jsonl", 100.5, 0);
    let far = write("compare-far.jsonl", 200.0, 0);
    let failing = write("compare-failing.jsonl", 100.0, 1);
    assert!(run(&["compare", &base, &near]).0);
    // Doubling every metric makes each lower-is-better one worse.
    assert!(!run(&["compare", &base, &far]).0);
    // Equal metrics, but one operation in 100 failed.
    assert!(!run(&["compare", &base, &failing]).0);
    assert!(run(&["compare", &failing, &base]).0);
}
