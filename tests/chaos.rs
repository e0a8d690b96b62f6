//! Chaos suite for the fault-tolerance layer: under a deterministic
//! seeded fault schedule the budgeted recipe, permanent, and sampler
//! must never hang, never abort the process, and produce an identical
//! result — or an identical structured error — at every thread count.
//!
//! Every test grabs `CHAOS_LOCK` first so an installed override never
//! bleeds into the ambient-schedule test running on a sibling thread.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use andi::core::{assess_risk_budgeted, ladder_crack_probabilities, BeliefFunction, Error};
use andi::graph::exact::{crack_probabilities_budgeted, ExactError};
use andi::graph::faults::FaultSchedule;
use andi::graph::par::ExecError;
use andi::graph::permanent::try_permanent_of_rows_budgeted;
use andi::graph::sampler::{sample_cracks_budgeted, SamplerConfig};
use andi::graph::{DenseBigraph, GroupedBigraph, Matching};
use andi::{Analog, Budget, BudgetedAssessment, FrequencyGroups, RecipeConfig, RiskDecision, Rung};

/// Serializes the chaos tests within this binary. `install()` holds
/// its own global lock, but the ambient test takes no guard, so
/// without this it could observe a sibling test's override schedule.
static CHAOS_LOCK: Mutex<()> = Mutex::new(());

/// Sixteen items in eight frequency groups of two — small enough for
/// the exact-permanent rung, structured enough that every rung has
/// real work to do.
fn supports16() -> Vec<u64> {
    (0..16u64).map(|i| 3 * (i / 2 + 1)).collect()
}

const M: u64 = 100;

fn assess(threads: usize, tolerance: f64, budget: &Budget) -> Result<BudgetedAssessment, Error> {
    let config = RecipeConfig {
        tolerance,
        ..RecipeConfig::default()
    };
    assess_risk_budgeted(&supports16(), M, &config, budget, threads)
}

/// Everything that must be thread-count invariant about an outcome:
/// the structured error, or the decision, the bit-exact numbers, and
/// the provenance minus the wall-clock `spent_ms` field.
fn fingerprint(out: &Result<BudgetedAssessment, Error>) -> String {
    match out {
        Ok(b) => format!(
            "ok rung={:?} degraded={} trips={:?} decision={:?} g={:016x} oe={:016x}",
            b.provenance.rung,
            b.provenance.degraded,
            b.provenance.trips,
            b.assessment.decision,
            b.assessment.point_valued_cracks.to_bits(),
            b.assessment.full_compliance_oe.to_bits(),
        ),
        Err(e) => format!("err {e:?}"),
    }
}

#[test]
fn full_rate_panic_schedule_degrades_identically_at_every_thread_count() {
    let _serial = CHAOS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let _guard = FaultSchedule::parse("7:1.0").unwrap().install();
    // Every probe fires, so the exact and sampler rungs both lose
    // their first task to an injected panic and the O-estimate floor
    // answers. At τ = 0.1 the recipe goes on to its α search, which
    // is closed-form and carries no probe.
    let baseline = assess(1, 0.1, &Budget::unlimited());
    let b = baseline
        .as_ref()
        .expect("the O-estimate floor always answers");
    assert_eq!(b.provenance.rung, Rung::OEstimate);
    assert!(b.provenance.degraded);
    assert_eq!(b.provenance.trips.len(), 2);
    assert_eq!(b.provenance.trips[0].0, Rung::Exact);
    assert_eq!(b.provenance.trips[1].0, Rung::Sampler);
    for trip in &b.provenance.trips {
        assert!(
            matches!(trip.1, Error::WorkerPanic { .. }),
            "expected an isolated injected panic, got {:?}",
            trip.1
        );
    }
    assert!(matches!(
        b.assessment.decision,
        RiskDecision::AlphaMax { .. }
    ));
    for threads in [2usize, 4] {
        let out = assess(threads, 0.1, &Budget::unlimited());
        assert_eq!(
            fingerprint(&out),
            fingerprint(&baseline),
            "threads={threads}"
        );
    }
}

#[test]
fn partial_panic_schedules_are_thread_count_invariant() {
    let _serial = CHAOS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // Three different seeds and rates; whatever each schedule does —
    // a clean pass or a degraded answer — it must do the same thing
    // at every thread count. Every probe sits in a ladder rung, and a
    // rung that loses a task degrades, so no schedule ends in an error.
    for spec in ["3:0.2", "11:0.35", "99:0.08"] {
        let _guard = FaultSchedule::parse(spec).unwrap().install();
        let baseline = assess(1, 0.1, &Budget::unlimited());
        if let Err(e) = &baseline {
            panic!("{spec}: an injected panic must degrade a rung, got {e:?}");
        }
        for threads in [2usize, 4] {
            let out = assess(threads, 0.1, &Budget::unlimited());
            assert_eq!(
                fingerprint(&out),
                fingerprint(&baseline),
                "spec={spec} threads={threads}"
            );
        }
    }
}

#[test]
fn zero_budget_with_delay_faults_lands_on_the_oestimate_floor() {
    let _serial = CHAOS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let _guard = FaultSchedule::parse("5:0.5:delay").unwrap().install();
    let baseline = assess(1, 0.1, &Budget::with_deadline(Duration::ZERO));
    let b = baseline
        .as_ref()
        .expect("zero budget degrades, never errors");
    assert_eq!(b.provenance.rung, Rung::OEstimate);
    assert_eq!(
        b.provenance.trips,
        vec![
            (Rung::Exact, Error::BudgetExceeded { budget_ms: 0 }),
            (Rung::Sampler, Error::BudgetExceeded { budget_ms: 0 }),
        ]
    );
    let report = b.provenance.to_string();
    assert!(
        report.contains("answered by o-estimate (degraded)"),
        "report must name the answering rung: {report}"
    );
    for threads in [2usize, 4] {
        let out = assess(threads, 0.1, &Budget::with_deadline(Duration::ZERO));
        assert_eq!(
            fingerprint(&out),
            fingerprint(&baseline),
            "threads={threads}"
        );
    }
}

#[test]
fn delay_faults_do_not_change_any_number() {
    let _serial = CHAOS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // Rate 0 disables injection outright — a clean baseline that is
    // immune to whatever ANDI_FAULTS the chaos CI job exports.
    let clean = {
        let _guard = FaultSchedule::parse("0:0.0").unwrap().install();
        assess(1, 0.1, &Budget::unlimited())
    };
    let _guard = FaultSchedule::parse("9:0.8:delay").unwrap().install();
    for threads in [1usize, 4] {
        let delayed = assess(threads, 0.1, &Budget::unlimited());
        assert_eq!(
            fingerprint(&delayed),
            fingerprint(&clean),
            "threads={threads}: delays must not change results"
        );
    }
}

#[test]
fn timed_budget_with_mix_faults_never_hangs_or_aborts() {
    let _serial = CHAOS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let _guard = FaultSchedule::parse("13:0.4:mix").unwrap().install();
    for threads in [1usize, 4] {
        let start = Instant::now();
        let out = assess(
            threads,
            0.1,
            &Budget::with_deadline(Duration::from_millis(250)),
        );
        let elapsed = start.elapsed();
        assert!(
            elapsed < Duration::from_secs(60),
            "threads={threads}: {elapsed:?} — the budget stopped binding"
        );
        match out {
            Ok(b) => assert!(matches!(
                b.provenance.rung,
                Rung::Exact | Rung::Sampler | Rung::OEstimate
            )),
            Err(e) => assert!(
                matches!(e, Error::WorkerPanic { .. } | Error::BudgetExceeded { .. }),
                "threads={threads}: unstructured failure {e:?}"
            ),
        }
    }
}

#[test]
fn unbudgeted_recipe_is_untouched_by_a_full_rate_fault_schedule() {
    let _serial = CHAOS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // `assess_risk` reads the O-estimate and finds α in closed form,
    // so no step of it carries a probe: a schedule that fires every
    // probe leaves both an early verdict and the α search as they are
    // without faults.
    let configs = [0.1, 0.9].map(|tolerance| RecipeConfig {
        tolerance,
        ..RecipeConfig::default()
    });
    let run = |config: &RecipeConfig| andi::assess_risk(&supports16(), M, config).unwrap();
    let clean: Vec<String> = configs.iter().map(|c| format!("{:?}", run(c))).collect();
    let _guard = FaultSchedule::parse("7:1.0").unwrap().install();
    let faulted: Vec<_> = configs.iter().map(run).collect();
    assert!(matches!(faulted[0].decision, RiskDecision::AlphaMax { .. }));
    assert!(faulted[1].discloses());
    for (clean, faulted) in clean.iter().zip(&faulted) {
        assert_eq!(&format!("{faulted:?}"), clean);
    }
}

#[test]
fn exact_wrappers_never_fold_a_fault_into_an_empty_space() {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    let _serial = CHAOS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let _guard = FaultSchedule::parse("7:1.0").unwrap().install();
    // The unbudgeted exact wrappers' `None` means "no perfect
    // matching" and nothing else: a failure of the budgeted core they
    // wrap (here an injected chunk fault) panics instead.
    let g = DenseBigraph::complete(6);
    let probs = catch_unwind(AssertUnwindSafe(|| andi::graph::crack_probabilities(&g)));
    assert!(probs.is_err(), "got {probs:?}");
    let e = catch_unwind(AssertUnwindSafe(|| andi::graph::expected_cracks(&g)));
    assert!(e.is_err(), "got {e:?}");
}

#[test]
fn faulted_permanent_is_thread_count_invariant() {
    let _serial = CHAOS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let schedule = FaultSchedule::parse("21:0.15").unwrap();
    // 2^16 subsets split into sixteen chunk tasks: make sure this
    // seed actually exercises the panic path on at least one of them.
    assert!(
        (0..16).any(|c| schedule.fires("permanent.chunk", c).is_some()),
        "seed 21 no longer fires on any chunk; pick another seed"
    );
    let _guard = schedule.install();
    let rows = vec![(1u64 << 16) - 1; 16];
    let baseline = try_permanent_of_rows_budgeted(&rows, 16, 1, &Budget::unlimited());
    assert!(
        matches!(baseline, Err(ExecError::WorkerPanic { .. })),
        "got {baseline:?}"
    );
    for threads in [2usize, 4, 8] {
        let out = try_permanent_of_rows_budgeted(&rows, 16, threads, &Budget::unlimited());
        assert_eq!(out, baseline, "threads={threads}");
    }
}

#[test]
fn faulted_permanent_panic_names_the_probe_point() {
    let _serial = CHAOS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let _guard = FaultSchedule::parse("7:1.0").unwrap().install();
    let rows = vec![(1u64 << 16) - 1; 16];
    let err = try_permanent_of_rows_budgeted(&rows, 16, 4, &Budget::unlimited())
        .expect_err("every chunk fires");
    match err {
        ExecError::WorkerPanic { task, payload } => {
            assert_eq!(task, 0, "fetch_min must report the minimal chunk");
            assert_eq!(payload, "injected fault at permanent.chunk[0]");
        }
        other => panic!("unexpected {other:?}"),
    }
}

/// Identity on items 0..2, `K3` on 2..5 and `K17` on 5..22: the exact
/// core walks each connected component on its own, the singletons
/// and `K3` in one chunk each, `K17` in sixteen.
fn disconnected22() -> DenseBigraph {
    let mut g = DenseBigraph::new(22);
    for i in 0..2 {
        g.add_edge(i, i);
    }
    for (lo, hi) in [(2, 5), (5, 22)] {
        for i in lo..hi {
            for j in lo..hi {
                g.add_edge(i, j);
            }
        }
    }
    g
}

#[test]
fn faulted_components_panic_at_the_first_chunk() {
    let _serial = CHAOS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let _guard = FaultSchedule::parse("7:1.0").unwrap().install();
    let err = crack_probabilities_budgeted(&disconnected22(), 4, &Budget::unlimited())
        .expect_err("every chunk fires");
    match err {
        ExactError::Interrupted(ExecError::WorkerPanic { task, payload }) => {
            assert_eq!(task, 0);
            assert_eq!(payload, "injected fault at permanent.chunk[0]");
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn faulted_components_are_thread_count_invariant() {
    let _serial = CHAOS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let schedule = FaultSchedule::parse("21:0.15").unwrap();
    // The one-chunk components must get through and `K17` must not:
    // the fault then lands mid-graph, after answered components.
    assert!(schedule.fires("permanent.chunk", 0).is_none());
    assert!(
        (1..16).any(|c| schedule.fires("permanent.chunk", c).is_some()),
        "seed 21 no longer fires on a K17 chunk; pick another seed"
    );
    let _guard = schedule.install();
    let g = disconnected22();
    let baseline = crack_probabilities_budgeted(&g, 1, &Budget::unlimited());
    assert!(
        matches!(
            baseline,
            Err(ExactError::Interrupted(ExecError::WorkerPanic { .. }))
        ),
        "got {baseline:?}"
    );
    for threads in [2usize, 4, 8] {
        let out = crack_probabilities_budgeted(&g, threads, &Budget::unlimited());
        assert_eq!(out, baseline, "threads={threads}");
    }
}

/// CHESS at `δ_med`: 75 items in connected components of at most a
/// dozen, so the exact rung answers with one single-chunk walk per
/// permanent, and a fault on `permanent.chunk[0]` hits every one.
fn chess_delta_med() -> GroupedBigraph {
    let supports = Analog::Chess.supports();
    let m = Analog::Chess.spec().n_transactions;
    let delta = FrequencyGroups::from_supports(&supports, m)
        .median_gap()
        .expect("CHESS has several groups");
    let freqs: Vec<f64> = supports.iter().map(|&s| s as f64 / m as f64).collect();
    BeliefFunction::widened(&freqs, delta)
        .expect("δ_med is a valid half-width")
        .build_graph(&supports, m)
}

#[test]
fn faulted_component_walks_trip_to_the_sampler_at_analog_scale() {
    let _serial = CHAOS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let config = RecipeConfig::default();
    let batches = config
        .sampler_schedule
        .n_samples
        .div_ceil(config.sampler_schedule.samples_per_seed);
    let schedule = FaultSchedule::parse("59:0.5").unwrap();
    assert!(
        schedule.fires("permanent.chunk", 0).is_some()
            && (0..batches).all(|b| schedule.fires("sampler.batch", b).is_none()),
        "seed 59 no longer faults the exact rung alone; pick another seed"
    );
    let _guard = schedule.install();
    let graph = chess_delta_med();
    let run = |threads: usize| {
        let (provenance, probs) =
            ladder_crack_probabilities(&graph, &config, threads, &Budget::unlimited())
                .expect("the sampler answers");
        let bits: Vec<u64> = probs.iter().map(|p| p.to_bits()).collect();
        (provenance.rung, provenance.trips, bits)
    };
    let baseline = run(1);
    assert_eq!(baseline.0, Rung::Sampler);
    assert_eq!(
        baseline.1,
        vec![(
            Rung::Exact,
            Error::WorkerPanic {
                task: 0,
                payload: "injected fault at permanent.chunk[0]".into()
            }
        )]
    );
    for threads in [2usize, 4] {
        assert_eq!(run(threads), baseline, "threads={threads}");
    }
}

#[test]
fn faulted_sampler_is_thread_count_invariant() {
    let _serial = CHAOS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let g = DenseBigraph::complete(10);
    let config = SamplerConfig {
        n_samples: 400,
        ..SamplerConfig::quick()
    };
    for spec in ["17:0.5", "4:0.3:mix", "2:1.0:delay"] {
        let _guard = FaultSchedule::parse(spec).unwrap().install();
        let baseline = sample_cracks_budgeted(
            &g,
            &Matching::identity(10),
            &config,
            7,
            1,
            &Budget::unlimited(),
        );
        for threads in [2usize, 4] {
            let out = sample_cracks_budgeted(
                &g,
                &Matching::identity(10),
                &config,
                7,
                threads,
                &Budget::unlimited(),
            );
            match (&out, &baseline) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a.counts, b.counts, "spec={spec} threads={threads}")
                }
                (Err(a), Err(b)) => assert_eq!(
                    format!("{a:?}"),
                    format!("{b:?}"),
                    "spec={spec} threads={threads}"
                ),
                _ => panic!("spec={spec} threads={threads}: {out:?} vs baseline {baseline:?}"),
            }
        }
    }
}

#[test]
fn simulation_turns_an_injected_batch_fault_into_a_structured_error() {
    use andi::{simulate_expected_cracks, BeliefFunction, SimulationConfig};
    let _serial = CHAOS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let _guard = FaultSchedule::parse("7:1.0").unwrap().install();
    // Every §7.1 run is a call of the sampler's batch driver, so its
    // `sampler.batch` probe reaches the simulation: the first batch's
    // fault surfaces as an error, never an abort.
    let supports = supports16();
    let graph = BeliefFunction::ignorant(supports.len()).build_graph(&supports, M);
    match simulate_expected_cracks(&graph, &SimulationConfig::quick()) {
        Err(Error::WorkerPanic { task, payload }) => {
            assert_eq!(task, 0);
            assert_eq!(payload, "injected fault at sampler.batch[0]");
        }
        other => panic!("expected an isolated injected panic, got {other:?}"),
    }
}

#[test]
fn ambient_schedule_outcome_is_thread_count_invariant() {
    let _serial = CHAOS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // No override installed: probes consult ANDI_FAULTS, which the
    // chaos CI job exports and local runs usually leave unset. Either
    // way the firing decision is a pure function of (seed, point,
    // index), so the outcome must not depend on the thread count.
    let baseline = assess(1, 0.1, &Budget::unlimited());
    if let Err(e) = &baseline {
        assert!(
            matches!(e, Error::WorkerPanic { .. }),
            "only isolated injected panics may surface ambiently, got {e:?}"
        );
    }
    for threads in [2usize, 4] {
        let out = assess(threads, 0.1, &Budget::unlimited());
        assert_eq!(
            fingerprint(&out),
            fingerprint(&baseline),
            "threads={threads}"
        );
    }
}

#[test]
fn fault_mid_delta_rejects_the_whole_batch_or_none_of_it() {
    use andi::core::{apply_edits_to_summary, summary_fingerprint, DeltaBatch, Edit};
    use andi::graph::faults::FaultAction;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    let _serial = CHAOS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let supports = supports16();
    let batch = DeltaBatch::new(vec![
        Edit::Insert {
            items: vec![0, 3, 7],
        },
        Edit::Replace {
            old: vec![0],
            new: vec![5, 9],
        },
        Edit::Delete { items: vec![3, 7] },
    ]);
    let expected = {
        let _quiet = FaultSchedule::parse("1:0").unwrap().install();
        apply_edits_to_summary(&supports, M, &batch).unwrap()
    };
    assert_ne!(
        summary_fingerprint(&expected.0, expected.1),
        summary_fingerprint(&supports, M)
    );

    // The `incremental.delta` probe fires before each edit is staged,
    // so whatever a schedule injects the outcome is either the quiet
    // answer, bit for bit, or a panic naming the first edit whose
    // probe fires — never a partially edited summary.
    for spec in ["7:1.0", "3:0.2", "11:0.35", "13:0.4:mix", "9:0.8:delay"] {
        let schedule = FaultSchedule::parse(spec).unwrap();
        let first_panic = (0..batch.len())
            .find(|&i| schedule.fires("incremental.delta", i) == Some(FaultAction::Panic));
        let _guard = schedule.install();
        let out = catch_unwind(AssertUnwindSafe(|| {
            apply_edits_to_summary(&supports, M, &batch)
        }));
        match (first_panic, out) {
            (None, Ok(Ok(edited))) => assert_eq!(edited, expected, "spec={spec}"),
            (Some(i), Err(payload)) => {
                let msg = payload
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .unwrap_or_default();
                assert_eq!(
                    msg,
                    format!("injected fault at incremental.delta[{i}]"),
                    "spec={spec}"
                );
            }
            (want, got) => panic!("spec={spec}: expected panic at {want:?}, got {got:?}"),
        }
    }
    assert_eq!(
        supports,
        supports16(),
        "the caller's summary is borrowed, never edited"
    );
}
