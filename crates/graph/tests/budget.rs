//! The budget layer's contract, end to end: `try_map_indexed` is
//! bit-identical to a serial map at every thread count, panics are
//! isolated into structured errors with a deterministic task index,
//! deadlines bound wall-clock time to budget + one chunk, and a
//! cancel token fired from another thread stops the permanent and the
//! sampler with `Cancelled` at every thread count. The component walk
//! behind the ladder's exact rung keeps the same deadline and cancel
//! contract.

use std::time::{Duration, Instant};

use andi_graph::dense::DenseBigraph;
use andi_graph::exact::{crack_probabilities_per_component, ExactError, EXACT_PRICE_CAP};
use andi_graph::par::{try_map_indexed, Budget, CancelToken, ExecError};
use andi_graph::permanent::try_permanent_of_rows_budgeted;
use andi_graph::sampler::{sample_cracks_budgeted, SamplerConfig};
use andi_graph::{GroupedBigraph, Matching};
use proptest::prelude::*;

/// Generous allowance for "one chunk of work plus scheduling noise"
/// on a loaded CI box. The deadline contract is budget + one poll
/// interval, not an exact cut.
const SLACK: Duration = Duration::from_millis(2000);

fn complete_rows(n: usize) -> Vec<u64> {
    vec![(1u64 << n) - 1; n]
}

#[test]
fn try_map_indexed_matches_a_serial_map_across_threads() {
    for n_tasks in [0usize, 1, 2, 7, 64, 257] {
        let expected: Vec<usize> = (0..n_tasks).map(|i| i * i + 3).collect();
        for threads in 1..=8 {
            let got = try_map_indexed(threads, n_tasks, &Budget::unlimited(), |i| i * i + 3)
                .expect("no budget, no panics");
            assert_eq!(got, expected, "threads={threads} n_tasks={n_tasks}");
        }
    }
}

#[test]
fn panicking_task_reports_the_first_panicking_index() {
    for threads in 1..=8 {
        let err = try_map_indexed(threads, 32, &Budget::unlimited(), |i| {
            if i == 7 || i == 13 {
                panic!("boom at {i}");
            }
            i
        })
        .expect_err("task 7 panics");
        assert_eq!(
            err,
            ExecError::WorkerPanic {
                task: 7,
                payload: "boom at 7".into()
            },
            "threads={threads}"
        );
    }
}

#[test]
fn one_thread_runs_every_task_on_the_calling_thread() {
    let caller = std::thread::current().id();
    let ran_on =
        try_map_indexed(1, 9, &Budget::unlimited(), |_| std::thread::current().id()).unwrap();
    assert_eq!(ran_on, vec![caller; 9]);
}

#[test]
fn zero_budget_trips_before_any_task_runs() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    let ran = AtomicUsize::new(0);
    for threads in 1..=8 {
        let err = try_map_indexed(threads, 16, &Budget::with_deadline(Duration::ZERO), |i| {
            ran.fetch_add(1, Ordering::Relaxed);
            i
        })
        .expect_err("deadline already passed");
        assert_eq!(err, ExecError::BudgetExceeded { budget_ms: 0 });
    }
    assert_eq!(ran.load(std::sync::atomic::Ordering::Relaxed), 0);
}

#[test]
fn budgeted_permanent_returns_within_budget_plus_one_chunk() {
    // The 2^21 Gray-code subsets of a complete 22-item domain take
    // tens of milliseconds even in a release build, far longer than
    // the budget; the walk must give up within budget + one chunk of
    // wall clock.
    let rows = complete_rows(22);
    for threads in [1usize, 4] {
        let budget = Budget::with_deadline(Duration::from_millis(1));
        let start = Instant::now();
        let out = try_permanent_of_rows_budgeted(&rows, 22, threads, &budget);
        let elapsed = start.elapsed();
        assert_eq!(
            out,
            Err(ExecError::BudgetExceeded { budget_ms: 1 }),
            "threads={threads}"
        );
        assert!(
            elapsed <= Duration::from_millis(1) + SLACK,
            "threads={threads}: took {elapsed:?}"
        );
    }
}

#[test]
fn budgeted_sampler_returns_within_budget_plus_one_batch() {
    let g = DenseBigraph::complete(12);
    let config = SamplerConfig {
        n_samples: 200_000,
        ..SamplerConfig::quick()
    };
    for threads in [1usize, 4] {
        let budget = Budget::with_deadline(Duration::from_millis(25));
        let start = Instant::now();
        let out = sample_cracks_budgeted(&g, &Matching::identity(12), &config, 5, threads, &budget);
        let elapsed = start.elapsed();
        assert!(out.is_err(), "threads={threads}: 200k samples in 25ms");
        assert!(
            elapsed <= Duration::from_millis(25) + SLACK,
            "threads={threads}: took {elapsed:?}"
        );
    }
}

/// A chain of 26 supports over `m = 100`, each believed within three
/// support steps: one 26-item connected component, whose `c + 1`
/// walks of `2^26` subsets price far above the exact cap.
fn one_26_item_component() -> GroupedBigraph {
    let supports: Vec<u64> = (1..=26).collect();
    let intervals: Vec<(f64, f64)> = supports
        .iter()
        .map(|&s| (s.saturating_sub(3) as f64 / 100.0, (s + 3) as f64 / 100.0))
        .collect();
    let graph = GroupedBigraph::new(&supports, 100, &intervals);
    assert_eq!(graph.components().map(|c| c.largest()), Some(26));
    graph
}

/// One frequency group of 18 items believed anywhere: one complete
/// 18-item component, whose walks price exactly at the cap and take
/// about 12 ms on one worker in a release build.
fn one_18_item_complete_component() -> GroupedBigraph {
    GroupedBigraph::new(&[5; 18], 10, &[(0.0, 1.0); 18])
}

#[test]
fn component_walk_returns_within_budget_plus_one_chunk() {
    let graph = one_18_item_complete_component();
    for threads in [1usize, 4] {
        let budget = Budget::with_deadline(Duration::from_millis(1));
        let start = Instant::now();
        let out = crack_probabilities_per_component(&graph, threads, &budget);
        let elapsed = start.elapsed();
        assert_eq!(
            out,
            Err(ExactError::Interrupted(ExecError::BudgetExceeded {
                budget_ms: 1
            })),
            "threads={threads}"
        );
        assert!(
            elapsed <= Duration::from_millis(1) + SLACK,
            "threads={threads}: took {elapsed:?}"
        );
    }

    // A 26-item component declines on its price before any walk.
    let start = Instant::now();
    let out = crack_probabilities_per_component(&one_26_item_component(), 1, &Budget::unlimited());
    assert!(
        matches!(
            out,
            Err(ExactError::TooCostly {
                cap: EXACT_PRICE_CAP,
                ..
            })
        ),
        "{out:?}"
    );
    assert!(start.elapsed() <= SLACK, "took {:?}", start.elapsed());
}

#[test]
fn component_walk_stops_on_a_pre_cancelled_token() {
    let graph = one_26_item_component();
    let token = CancelToken::new();
    token.cancel();
    let budget = Budget::unlimited().with_token(token);
    for threads in [1usize, 4] {
        let start = Instant::now();
        let out = crack_probabilities_per_component(&graph, threads, &budget);
        let elapsed = start.elapsed();
        assert_eq!(
            out,
            Err(ExactError::Interrupted(ExecError::Cancelled)),
            "threads={threads}"
        );
        assert!(elapsed <= SLACK, "threads={threads}: took {elapsed:?}");
    }
}

#[test]
fn cross_thread_cancel_stops_the_permanent() {
    let rows = complete_rows(22);
    let fact: u128 = (1..=22).product();
    let mut cancelled = 0;
    for threads in 1..=8 {
        let token = CancelToken::new();
        let budget = Budget::unlimited().with_token(token.clone());
        let canceller = {
            let token = token.clone();
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(2));
                token.cancel();
            })
        };
        let out = try_permanent_of_rows_budgeted(&rows, 22, threads, &budget);
        canceller.join().unwrap();
        // The token fires 2 ms into a walk of 2^21 subsets, so the
        // walk is cancelled mid-flight; only a box that finishes the
        // whole walk first may answer, and then exactly.
        match out {
            Err(ExecError::Cancelled) => cancelled += 1,
            Ok(v) => assert_eq!(v, fact, "threads={threads}"),
            other => panic!("threads={threads}: unexpected outcome {other:?}"),
        }
    }
    assert!(cancelled > 0, "no thread count was cancelled mid-flight");
}

#[test]
fn cross_thread_cancel_stops_the_sampler() {
    let g = DenseBigraph::complete(12);
    let config = SamplerConfig {
        n_samples: 500_000,
        ..SamplerConfig::quick()
    };
    for threads in 1..=8 {
        let token = CancelToken::new();
        let budget = Budget::unlimited().with_token(token.clone());
        let canceller = {
            let token = token.clone();
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                token.cancel();
            })
        };
        let out = sample_cracks_budgeted(&g, &Matching::identity(12), &config, 5, threads, &budget);
        canceller.join().unwrap();
        match out {
            Err(andi_graph::SamplerError::Interrupted(ExecError::Cancelled)) => {}
            Ok(_) => {}
            other => panic!("threads={threads}: unexpected outcome {other:?}"),
        }
    }
}

#[test]
fn pre_cancelled_token_short_circuits_everything() {
    let token = CancelToken::new();
    token.cancel();
    let budget = Budget::unlimited().with_token(token);
    for threads in 1..=8 {
        assert_eq!(
            try_permanent_of_rows_budgeted(&complete_rows(16), 16, threads, &budget),
            Err(ExecError::Cancelled)
        );
        let g = DenseBigraph::complete(8);
        let out = sample_cracks_budgeted(
            &g,
            &Matching::identity(8),
            &SamplerConfig::quick(),
            5,
            threads,
            &budget,
        );
        assert!(matches!(
            out,
            Err(andi_graph::SamplerError::Interrupted(ExecError::Cancelled))
        ));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `try_map_indexed` with an unlimited budget is a serial map
    /// for arbitrary task counts and thread counts.
    #[test]
    fn try_map_is_map(n_tasks in 0usize..100, threads in 1usize..9, salt in 0u64..1000) {
        let f = |i: usize| (i as u64).wrapping_mul(salt).rotate_left((i % 63) as u32);
        let expected: Vec<u64> = (0..n_tasks).map(f).collect();
        let got = try_map_indexed(threads, n_tasks, &Budget::unlimited(), f).unwrap();
        prop_assert_eq!(got, expected);
    }

    /// A panic at a data-dependent index is reported at the same
    /// (minimal) index regardless of thread count.
    #[test]
    fn panic_index_is_thread_count_invariant(
        n_tasks in 1usize..64,
        bad_bits in 1u64..u64::MAX,
    ) {
        let is_bad = move |i: usize| (bad_bits >> (i % 64)) & 1 == 1;
        let serial = try_map_indexed(1, n_tasks, &Budget::unlimited(), move |i| {
            if is_bad(i) { panic!("bad {i}"); }
            i
        });
        for threads in 2..=6 {
            let par = try_map_indexed(threads, n_tasks, &Budget::unlimited(), move |i| {
                if is_bad(i) { panic!("bad {i}"); }
                i
            });
            prop_assert_eq!(&par, &serial, "threads={}", threads);
        }
    }
}
