//! `andi` — command-line disclosure-risk toolkit.
//!
//! Everything a data owner needs before releasing anonymized
//! baskets, over FIMI `.dat` files:
//!
//! ```text
//! andi stats <file.dat>                      dataset summary (Figure 9 row)
//! andi assess <file.dat> [--tau T] [--budget-ms N]
//!             [--belief inst.txt] [--provenance-json out.json]
//!                                            the Assess-Risk recipe (Figure 8);
//!                                            with a budget the estimate degrades
//!                                            exact -> sampler -> O-estimate and
//!                                            the exit code is 3 when degraded;
//!                                            --belief runs the ladder under the
//!                                            hacker belief of an oracle instance
//!                                            file instead of the recipe's own
//! andi advise <file.dat> [--tau T]           which items to withhold to pass
//! andi portfolio <file.dat> [--min-support N] [--tau T]
//!                                            full/sample/rounded/suppressed scorecard
//! andi oe <file.dat> [--delta D] [--exact]   O-estimate (default delta = delta_med)
//! andi similarity <file.dat> [--fractions 0.1,0.25,0.5]
//!                                            Similarity-by-Sampling (Figure 13)
//! andi anonymize <in.dat> <out.dat> [--seed S] [--mapping map.txt]
//!                                            release an anonymized copy
//! andi mine <file.dat> --min-support N [--rules C]
//!                                            FP-Growth frequent sets (and rules)
//! andi demo                                  the paper's BigMart walkthrough
//! ```
//!
//! Options may come before or after the files; every option but
//! `--exact` takes the next token as its value, and an option or a
//! file the command does not read is an error.

use std::process::ExitCode;

use andi::core::assess_risk_budgeted;
use andi::core::report::TextTable;
use andi::core::similarity::{GapPolicy, SimilarityConfig};
use andi::data::fimi::{self, FimiDataset};
use andi::data::DatasetSummary;
use andi::graph::{Budget, ExactError};
use andi::mining::generate_rules;
use andi::{
    assess_risk, similarity_by_sampling, AnonymizationMapping, BeliefFunction, Itemset,
    OutdegreeProfile, RecipeConfig, RiskDecision,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("{}", usage());
            ExitCode::FAILURE
        }
    }
}

/// Exit code for a budgeted assessment whose answer came from a rung
/// below exact-permanent: the run *succeeded*, but scripts must be
/// able to tell a degraded figure from an exact one.
const EXIT_DEGRADED: u8 = 3;

/// Renders the usage text; built at call time so the exact rungs'
/// price cap in the help tracks
/// [`andi::graph::exact::EXACT_PRICE_CAP`] instead of drifting when
/// it moves.
fn usage() -> String {
    format!(
        "usage:
  andi stats <file.dat>
  andi assess <file.dat> [--tau T] [--budget-ms N]
              [--belief inst.txt] [--provenance-json out.json]
  andi advise <file.dat> [--tau T]
  andi portfolio <file.dat> [--min-support N] [--tau T]
  andi oe <file.dat> [--delta D] [--exact]
  andi similarity <file.dat> [--fractions 0.1,0.25,0.5]
  andi anonymize <in.dat> <out.dat> [--seed S] [--mapping map.txt]
  andi mine <file.dat> --min-support N [--rules C]
  andi demo

exact kernels run one connected component at a time, at any domain
size: assess's exact rung and oe --exact answer when the components'
Ryser walks price at most {cap} subset steps (one 18-item component);
on costlier graphs assess answers from the sampler and oe --exact
prints the priced decline

exit codes: 0 success, 1 error, 3 budgeted assessment answered by a
degraded rung (see the provenance lines)",
        cap = andi::graph::exact::EXACT_PRICE_CAP
    )
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let Some(cmd) = args.first() else {
        return Err("no command given".into());
    };
    let rest = &args[1..];
    match cmd.as_str() {
        "stats" => cmd_stats(rest).map(|()| ExitCode::SUCCESS),
        "assess" => cmd_assess(rest),
        "advise" => cmd_advise(rest).map(|()| ExitCode::SUCCESS),
        "portfolio" => cmd_portfolio(rest).map(|()| ExitCode::SUCCESS),
        "oe" => cmd_oe(rest).map(|()| ExitCode::SUCCESS),
        "similarity" => cmd_similarity(rest).map(|()| ExitCode::SUCCESS),
        "anonymize" => cmd_anonymize(rest).map(|()| ExitCode::SUCCESS),
        "mine" => cmd_mine(rest).map(|()| ExitCode::SUCCESS),
        "demo" => cmd_demo(rest).map(|()| ExitCode::SUCCESS),
        "--help" | "-h" | "help" => {
            println!("{}", usage());
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown command {other:?}")),
    }
}

/// A command's arguments: its files in order, and its
/// `--option value` pairs (`--exact`, the one switch, has no value).
struct Args<'a> {
    positionals: Vec<&'a str>,
    options: Vec<(&'a str, &'a str)>,
}

impl<'a> Args<'a> {
    /// Splits `args`, taking the token after each option as its value
    /// and rejecting any `--name` outside `known` and any positional
    /// past the first `n_files`.
    fn parse(args: &'a [String], n_files: usize, known: &[&str]) -> Result<Self, String> {
        let mut parsed = Args {
            positionals: Vec::new(),
            options: Vec::new(),
        };
        let mut tokens = args.iter().map(String::as_str);
        while let Some(token) = tokens.next() {
            if !token.starts_with("--") {
                parsed.positionals.push(token);
            } else if !known.contains(&token) {
                return Err(format!("unknown option {token:?}"));
            } else if token == "--exact" {
                parsed.options.push((token, ""));
            } else {
                let value = tokens
                    .next()
                    .ok_or_else(|| format!("{token} needs a value"))?;
                parsed.options.push((token, value));
            }
        }
        if let Some(extra) = parsed.positionals.get(n_files) {
            return Err(format!("unexpected argument {extra:?}"));
        }
        Ok(parsed)
    }

    /// The positional argument at `idx`, failing with a decent
    /// message.
    fn positional(&self, idx: usize, name: &str) -> Result<&'a str, String> {
        self.positionals
            .get(idx)
            .copied()
            .ok_or_else(|| format!("missing <{name}> argument"))
    }

    /// The value of the first `name` option, if given.
    fn option(&self, name: &str) -> Option<&'a str> {
        self.options
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }
}

fn parse<T: std::str::FromStr>(text: &str, what: &str) -> Result<T, String> {
    text.parse()
        .map_err(|_| format!("cannot parse {what}: {text:?}"))
}

/// Reads a FIMI file: the database over dense ids `0..n`, and
/// `raw_ids`, the file's id of each, which the reports print.
fn load(path: &str) -> Result<FimiDataset, String> {
    let ds = fimi::read_fimi_file(path)?;
    eprintln!(
        "loaded {}: {} items, {} transactions",
        path,
        ds.database.n_items(),
        ds.database.n_transactions()
    );
    Ok(ds)
}

/// `set` in the file's item ids, as `{10,30}`.
fn file_ids(set: &Itemset, raw_ids: &[u64]) -> String {
    let ids: Vec<String> = set
        .items()
        .iter()
        .map(|x| raw_ids[x.index()].to_string())
        .collect();
    format!("{{{}}}", ids.join(","))
}

fn cmd_stats(args: &[String]) -> Result<(), String> {
    let args = &Args::parse(args, 1, &[])?;
    let db = load(args.positional(0, "file.dat")?)?.database;
    println!("{}", DatasetSummary::of(&db));
    Ok(())
}

fn cmd_assess(args: &[String]) -> Result<ExitCode, String> {
    let args = &Args::parse(
        args,
        1,
        &["--tau", "--budget-ms", "--belief", "--provenance-json"],
    )?;
    let db = load(args.positional(0, "file.dat")?)?.database;
    let tau: f64 = match args.option("--tau") {
        Some(t) => parse(t, "--tau")?,
        None => 0.1,
    };
    let config = RecipeConfig {
        tolerance: tau,
        ..RecipeConfig::default()
    };
    let supports = db.supports();
    let m = db.n_transactions() as u64;

    if let Some(inst_path) = args.option("--belief") {
        return assess_with_belief(args, &supports, m, &config, inst_path);
    }

    if let Some(ms) = args.option("--budget-ms") {
        let ms: u64 = parse(ms, "--budget-ms")?;
        let budget = Budget::with_deadline(std::time::Duration::from_millis(ms));
        let threads = andi::graph::par::available_threads();
        let result = assess_risk_budgeted(&supports, m, &config, &budget, threads)
            .map_err(|e| e.to_string())?;
        println!("{}", result.assessment);
        print!("{}", result.provenance);
        write_provenance_json(args, &result.provenance)?;
        return Ok(if result.is_degraded() {
            ExitCode::from(EXIT_DEGRADED)
        } else {
            ExitCode::SUCCESS
        });
    }

    let verdict = assess_risk(&supports, m, &config).map_err(|e| e.to_string())?;
    println!("{verdict}");
    Ok(ExitCode::SUCCESS)
}

/// Writes the provenance record as JSON when `--provenance-json` was
/// given (the format round-trips through `andi_oracle::serial`).
fn write_provenance_json(args: &Args, provenance: &andi::core::Provenance) -> Result<(), String> {
    if let Some(path) = args.option("--provenance-json") {
        let json = andi_oracle::provenance_to_json(provenance);
        std::fs::write(path, json).map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("wrote provenance JSON to {path}");
    }
    Ok(())
}

/// `assess --belief`: run the degradation ladder under the hacker
/// belief of an oracle instance file (its intervals, against this
/// database's supports) instead of the recipe's own widened belief.
/// Unlike the recipe path, an inconsistent belief makes the
/// [`EmptyMappingSpace`](andi::core::Error::EmptyMappingSpace) abort
/// reachable from the command line.
fn assess_with_belief(
    args: &Args,
    supports: &[u64],
    m: u64,
    config: &RecipeConfig,
    inst_path: &str,
) -> Result<ExitCode, String> {
    let inst =
        andi_oracle::corpus::load(std::path::Path::new(inst_path)).map_err(|e| e.to_string())?;
    if inst.n() != supports.len() {
        return Err(format!(
            "belief instance has {} items but the database has {}",
            inst.n(),
            supports.len()
        ));
    }
    let belief =
        BeliefFunction::from_intervals(inst.intervals.clone()).map_err(|e| e.to_string())?;
    let graph = belief.build_graph(supports, m);
    let budget = match args.option("--budget-ms") {
        Some(ms) => {
            let ms: u64 = parse(ms, "--budget-ms")?;
            Budget::with_deadline(std::time::Duration::from_millis(ms))
        }
        None => Budget::unlimited(),
    };
    let (provenance, probs) = andi::core::ladder_crack_probabilities(
        &graph,
        config,
        andi::graph::par::available_threads(),
        &budget,
    )
    .map_err(|e| e.to_string())?;
    let expected: f64 = probs.iter().sum();
    println!("belief instance         : {}", inst.label);
    println!("domain size n           : {}", supports.len());
    println!("expected cracks         : {expected:.4}");
    print!("{provenance}");
    write_provenance_json(args, &provenance)?;
    Ok(if provenance.degraded {
        ExitCode::from(EXIT_DEGRADED)
    } else {
        ExitCode::SUCCESS
    })
}

fn cmd_advise(args: &[String]) -> Result<(), String> {
    let args = &Args::parse(args, 1, &["--tau"])?;
    let FimiDataset {
        database: db,
        raw_ids,
    } = load(args.positional(0, "file.dat")?)?;
    let tau: f64 = match args.option("--tau") {
        Some(t) => parse(t, "--tau")?,
        None => 0.1,
    };
    let supports = db.supports();
    let m = db.n_transactions() as u64;
    let groups = andi::FrequencyGroups::from_supports(&supports, m);
    let (_, belief) = BeliefFunction::delta_med_compliant(&groups).map_err(|e| e.to_string())?;
    let graph = belief.build_graph(&supports, m);
    let profile = OutdegreeProfile::propagated(&graph).map_err(|e| e.to_string())?;
    let plan = andi::core::advisor::suppression_plan(&profile, tau).map_err(|e| e.to_string())?;
    println!("full-compliance OE        : {:.2}", profile.oestimate());
    println!("budget (tau*n)            : {:.2}", plan.budget);
    if plan.n_suppressed() == 0 {
        println!("advice                    : release as-is; already within tolerance");
        return Ok(());
    }
    println!(
        "advice                    : withhold {} item(s); residual OE = {:.2}",
        plan.n_suppressed(),
        plan.residual_oestimate
    );
    for (&x, p) in plan.suppress.iter().zip(plan.exposure.iter()).take(20) {
        println!(
            "  withhold item {:<6} (crack probability {p:.3})",
            raw_ids[x]
        );
    }
    if plan.n_suppressed() > 20 {
        println!("  ... {} more", plan.n_suppressed() - 20);
    }
    Ok(())
}

fn cmd_portfolio(args: &[String]) -> Result<(), String> {
    use andi::{evaluate_portfolio, PortfolioConfig, ReleaseCandidate};
    let args = &Args::parse(args, 1, &["--min-support", "--tau"])?;
    let db = load(args.positional(0, "file.dat")?)?.database;
    let min_support: u64 = match args.option("--min-support") {
        Some(s) => parse(s, "--min-support")?,
        None => ((db.n_transactions() / 20).max(2)) as u64,
    };
    let tau: f64 = match args.option("--tau") {
        Some(t) => parse(t, "--tau")?,
        None => 0.1,
    };
    let candidates = vec![
        ReleaseCandidate::Full,
        ReleaseCandidate::Sample { fraction: 0.1 },
        ReleaseCandidate::Sample { fraction: 0.5 },
        ReleaseCandidate::Sanitized {
            bucket: (db.n_transactions() as u64 / 20).max(2),
        },
        ReleaseCandidate::Suppressed { tolerance: tau },
    ];
    let reports = evaluate_portfolio(
        &db,
        &candidates,
        &PortfolioConfig {
            min_support,
            ..PortfolioConfig::default()
        },
    )
    .map_err(|e| e.to_string())?;

    let mut table = TextTable::new([
        "candidate",
        "items",
        "txns",
        "g",
        "OE",
        "crack frac",
        "mining F1",
    ]);
    for r in &reports {
        table.add_row([
            r.label.clone(),
            r.items_released.to_string(),
            r.transactions_released.to_string(),
            r.point_valued_cracks.to_string(),
            format!("{:.2}", r.oestimate),
            format!("{:.4}", r.crack_fraction),
            format!("{:.3}", r.mining_f1),
        ]);
    }
    println!("{}", table.render());
    println!("(risk columns use the delta_med interval hacker; F1 at min support {min_support})");
    Ok(())
}

fn cmd_oe(args: &[String]) -> Result<(), String> {
    let args = &Args::parse(args, 1, &["--delta", "--exact"])?;
    let db = load(args.positional(0, "file.dat")?)?.database;
    let supports = db.supports();
    let m = db.n_transactions() as u64;
    let groups = andi::FrequencyGroups::from_supports(&supports, m);
    let (delta, belief) = match args.option("--delta") {
        Some(d) => {
            let delta: f64 = parse(d, "--delta")?;
            BeliefFunction::widened_profile(&groups, delta).map(|b| (delta, b))
        }
        None => BeliefFunction::delta_med_compliant(&groups),
    }
    .map_err(|e| e.to_string())?;
    let graph = belief.build_graph(&supports, m);
    let plain = OutdegreeProfile::plain(&graph);
    let propagated = OutdegreeProfile::propagated(&graph).map_err(|e| e.to_string())?;
    println!("interval half-width delta : {delta:.6}");
    println!("O-estimate (plain)        : {:.3}", plain.oestimate());
    println!("O-estimate (propagated)   : {:.3}", propagated.oestimate());
    println!("certain cracks            : {}", propagated.forced_cracks());
    println!(
        "expected crack fraction   : {:.4}",
        propagated.oestimate() / db.n_items() as f64
    );
    if args.option("--exact").is_some() {
        let threads = andi::graph::par::available_threads();
        match andi::graph::crack_probabilities_per_component(&graph, threads, &Budget::unlimited())
        {
            Ok(probs) => println!(
                "exact expected cracks     : {:.3}",
                probs.iter().sum::<f64>()
            ),
            Err(e @ ExactError::TooCostly { .. }) => {
                println!("exact expected cracks     : declined: {e}")
            }
            Err(e) => return Err(e.to_string()),
        }
    }
    Ok(())
}

fn cmd_similarity(args: &[String]) -> Result<(), String> {
    let args = &Args::parse(args, 1, &["--fractions"])?;
    let db = load(args.positional(0, "file.dat")?)?.database;
    let fractions: Vec<f64> = match args.option("--fractions") {
        Some(list) => list
            .split(',')
            .map(|t| parse::<f64>(t.trim(), "--fractions entry"))
            .collect::<Result<_, _>>()?,
        None => vec![0.01, 0.05, 0.10, 0.25, 0.50, 0.75],
    };
    let points = similarity_by_sampling(
        &db,
        &fractions,
        &SimilarityConfig {
            samples_per_size: 10,
            gap_policy: GapPolicy::Median,
            seed: 0xC11,
        },
    )
    .map_err(|e| e.to_string())?;
    let mut table = TextTable::new(["sample %", "mean alpha", "std", "delta'_med"]);
    for p in &points {
        table.add_row([
            format!("{:.1}%", p.fraction * 100.0),
            format!("{:.3}", p.mean_alpha),
            format!("{:.3}", p.std_alpha),
            format!("{:.6}", p.mean_delta),
        ]);
    }
    println!("{}", table.render());
    Ok(())
}

fn cmd_anonymize(args: &[String]) -> Result<(), String> {
    let args = &Args::parse(args, 2, &["--seed", "--mapping"])?;
    let input = args.positional(0, "in.dat")?;
    let output = args.positional(1, "out.dat")?;
    let db = load(input)?.database;
    let seed: u64 = match args.option("--seed") {
        Some(s) => parse(s, "--seed")?,
        None => 0xA_2005,
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let mapping = AnonymizationMapping::random(db.n_items(), &mut rng);
    let released = mapping.anonymize_database(&db).map_err(|e| e.to_string())?;
    let out = std::fs::File::create(output).map_err(|e| format!("cannot create {output}: {e}"))?;
    fimi::write_fimi(&released, out)?;
    println!("wrote anonymized database to {output}");
    if let Some(map_path) = args.option("--mapping") {
        let mut text = String::from("# original_dense_id anonymized_id\n");
        for (x, &xp) in mapping.forward().iter().enumerate() {
            text.push_str(&format!("{x} {xp}\n"));
        }
        std::fs::write(map_path, text).map_err(|e| format!("cannot write {map_path}: {e}"))?;
        println!("wrote secret mapping to {map_path} — keep it private!");
    }
    Ok(())
}

fn cmd_mine(args: &[String]) -> Result<(), String> {
    let args = &Args::parse(args, 1, &["--min-support", "--rules"])?;
    let min_support: u64 = parse(
        args.option("--min-support")
            .ok_or("--min-support is required")?,
        "--min-support",
    )?;
    if min_support == 0 {
        return Err("--min-support must be at least 1".into());
    }
    let min_conf: Option<f64> = match args.option("--rules") {
        Some(conf) => Some(parse(conf, "--rules")?),
        None => None,
    };
    if min_conf.is_some_and(|c| !(0.0..=1.0).contains(&c)) {
        return Err("--rules must be in [0, 1]".into());
    }
    let FimiDataset {
        database: db,
        raw_ids,
    } = load(args.positional(0, "file.dat")?)?;
    let result = andi::fpgrowth(&db, min_support);
    println!(
        "{} frequent itemsets at min support {min_support} (fp-growth)",
        result.len()
    );
    for (s, c) in result.iter().take(25) {
        println!("  {}  (support {c})", file_ids(s, &raw_ids));
    }
    if result.len() > 25 {
        println!("  ... {} more", result.len() - 25);
    }
    if let Some(min_conf) = min_conf {
        let rules = generate_rules(&result, db.n_transactions() as u64, min_conf);
        println!("\n{} rules at confidence >= {min_conf}", rules.len());
        for r in rules.iter().take(25) {
            println!(
                "  {} => {} (sup {}, conf {:.2}, lift {:.2})",
                file_ids(&r.antecedent, &raw_ids),
                file_ids(&r.consequent, &raw_ids),
                r.support,
                r.confidence,
                r.lift
            );
        }
    }
    Ok(())
}

fn cmd_demo(args: &[String]) -> Result<(), String> {
    Args::parse(args, 0, &[])?;
    let db = andi::bigmart();
    println!("The paper's BigMart example: 6 items, 10 transactions.\n");
    println!("{}\n", DatasetSummary::of(&db));
    for tau in [0.6, 0.3, 0.1] {
        let verdict = assess_risk(
            &db.supports(),
            db.n_transactions() as u64,
            &RecipeConfig {
                tolerance: tau,
                ..RecipeConfig::default()
            },
        )
        .map_err(|e| e.to_string())?;
        let text = match verdict.decision {
            RiskDecision::DiscloseAtPointValued => "disclose (even point-valued safe)".into(),
            RiskDecision::DiscloseAtFullCompliance => "disclose (OE within budget)".into(),
            RiskDecision::AlphaMax { alpha_max, .. } => {
                format!("alpha_max = {alpha_max:.2}")
            }
        };
        println!("tau = {tau:>4}: {text}");
    }
    Ok(())
}
