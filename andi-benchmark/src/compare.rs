//! `andi-benchmark compare A B`: the run-to-run check.
//!
//! `A` and `B` each hold one or more all-workload result documents,
//! one per line, as the benchmark prints them. For every workload and
//! every end-to-end metric of the repository's `BENCHMARK.json`, the
//! median of `B` is compared with the median of `A`; a change in the
//! metric's worse direction by more than its bound fails the
//! comparison. So does any rise in a workload's failure rate, failed
//! over attempted operations across all runs of a file.

use std::collections::BTreeMap;
use std::path::Path;

use andi_oracle::serial::Json;

struct Bound {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

fn read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

fn num(v: Option<&Json>) -> Option<f64> {
    v.and_then(Json::as_num).and_then(|n| n.parse().ok())
}

/// The end-to-end bounds and the workload names of `BENCHMARK.json`.
fn spec() -> Result<(Vec<Bound>, Vec<String>), String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let doc = Json::parse(&read(&path)?).map_err(|e| format!("{}: {e}", path.display()))?;
    let (Some(Json::Arr(metrics)), Some(Json::Arr(workloads))) =
        (doc.get("end_to_end"), doc.get("workloads"))
    else {
        return Err(format!("{} lacks end_to_end or workloads", path.display()));
    };
    let names = workloads
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str).map(str::to_string))
        .collect();
    let bounds = metrics
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).ok_or(format!("an end_to_end metric lacks {k}"));
            Ok(Bound {
                name: field("name")?.as_str().unwrap_or_default().to_string(),
                lower_is_better: field("better")?.as_str() == Some("lower"),
                bound: num(Some(field("bound")?)).ok_or("a bound is not a number")?,
            })
        })
        .collect::<Result<_, String>>()?;
    Ok((bounds, names))
}

/// Every run document of one file.
#[derive(Default)]
struct Runs {
    /// Every value of each `(workload, metric)`.
    metrics: BTreeMap<(String, String), Vec<f64>>,
    /// Failed and attempted operations of each workload, summed.
    failures: BTreeMap<String, (f64, f64)>,
}

fn runs(path: &str) -> Result<Runs, String> {
    let mut out = Runs::default();
    for line in read(Path::new(path))?
        .lines()
        .filter(|l| !l.trim().is_empty())
    {
        let doc = Json::parse(line).map_err(|e| format!("{path}: {e}"))?;
        let Some(Json::Obj(workloads)) = doc.get("workloads") else {
            return Err(format!("{path}: a line without a workloads object"));
        };
        for (workload, result) in workloads {
            let (Some(failed), Some(attempted)) =
                (num(result.get("failed")), num(result.get("attempted")))
            else {
                return Err(format!("{path}: {workload} lacks failed or attempted"));
            };
            let sums = out.failures.entry(workload.clone()).or_default();
            *sums = (sums.0 + failed, sums.1 + attempted);
            let Some(Json::Obj(metrics)) = result.get("metrics") else {
                continue;
            };
            for (metric, v) in metrics {
                let value = num(v.get("value")).ok_or(format!("{path}: bad value"))?;
                out.metrics
                    .entry((workload.clone(), metric.clone()))
                    .or_default()
                    .push(value);
            }
        }
    }
    Ok(out)
}

fn median(xs: &[f64]) -> f64 {
    let mut xs = xs.to_vec();
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Prints each `(workload, metric)` pair with its relative change and
/// bound, then each workload's failure rates; `Ok(true)` when every
/// pair stays within its bound and no failure rate rose.
pub fn run(args: &[String]) -> Result<bool, String> {
    let [a, b] = args else {
        return Err("usage: andi-benchmark compare A B".into());
    };
    let (bounds, workloads) = spec()?;
    let (a, b) = (runs(a)?, runs(b)?);
    let mut within = true;
    for workload in &workloads {
        for m in &bounds {
            let key = (workload.clone(), m.name.clone());
            let (Some(xa), Some(xb)) = (a.metrics.get(&key), b.metrics.get(&key)) else {
                println!("{workload:<18} {:<14} missing", m.name);
                within = false;
                continue;
            };
            let (ma, mb) = (median(xa), median(xb));
            let change = if ma == 0.0 { 0.0 } else { (mb - ma) / ma };
            let worse = if m.lower_is_better { change } else { -change };
            let verdict = if worse <= m.bound {
                "ok"
            } else {
                within = false;
                "WORSE"
            };
            println!(
                "{workload:<18} {:<14} {ma:>12.4} -> {mb:>12.4}  {:>+7.2}%  bound {:>4.1}%  {verdict}",
                m.name,
                100.0 * change,
                100.0 * m.bound,
            );
        }
        let rate = |r: &Runs| {
            r.failures
                .get(workload)
                .map(|&(failed, attempted)| failed / attempted.max(1.0))
        };
        let (Some(ra), Some(rb)) = (rate(&a), rate(&b)) else {
            println!("{workload:<18} {:<14} missing", "error_rate");
            within = false;
            continue;
        };
        let verdict = if rb <= ra {
            "ok"
        } else {
            within = false;
            "WORSE"
        };
        println!(
            "{workload:<18} {:<14} {ra:>12.4} -> {rb:>12.4}  bound: no rise  {verdict}",
            "error_rate"
        );
    }
    Ok(within)
}
