//! Deterministic parallel execution layer.
//!
//! Every estimator in this workspace that fans out over independent
//! subproblems — Ryser subset chunks, sampler batches — goes through
//! one worker pool, [`try_map_indexed`]: the calling thread plus
//! `threads − 1` scoped helpers (over the vendored
//! `crossbeam::thread::scope`) run the same self-scheduling
//! loop over a shared task counter (work-stealing-style dynamic load
//! balancing: whoever is idle claims the next unclaimed index, so
//! uneven task costs never leave a core idle). At `threads <= 1` the
//! caller runs that loop alone and nothing is spawned.
//!
//! # Determinism contract
//!
//! On an unlimited budget, `try_map_indexed(threads, n, &budget, f)`
//! returns exactly `Ok((0..n).map(f).collect())` — same values, same
//! order — for *every*
//! `threads` value, provided `f(i)` depends only on `i`. Callers
//! then reduce the returned vector in index order, so floating-point
//! accumulation order is fixed and results are bit-identical at any
//! thread count.
//!
//! # Thread-count resolution
//!
//! [`available_threads`] resolves the ambient parallelism: the
//! `ANDI_THREADS` environment variable when set (values `0` and `1`
//! both mean serial), otherwise `std::thread::available_parallelism`.
//! An unparseable override is rejected with a one-time warning, not
//! silently ignored.
//!
//! # Budgets, cancellation, and fault isolation
//!
//! [`Budget`] carries an optional wall-clock deadline plus an
//! optional [`CancelToken`]; [`Budget::check`] is the single poll
//! primitive every hot loop in the workspace calls (Gray-code strides
//! in `permanent`, swap strides and epoch boundaries in `sampler`,
//! and between tasks here). A trip surfaces as a structured
//! [`ExecError`] instead of a hang.
//!
//! Each task runs under `catch_unwind`, the pool drains cleanly, and
//! a panicking task becomes [`ExecError::WorkerPanic`] carrying the
//! *lowest* panicking task index — the same index a serial run would
//! hit first — so the reported error is bit-identical at every thread
//! count whenever the set of panicking tasks depends only on the task
//! index (the [`crate::faults`] injection discipline guarantees
//! exactly that).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, Once};
use std::time::{Duration, Instant};

/// Environment variable overriding the worker count.
pub const THREADS_ENV: &str = "ANDI_THREADS";

/// Resolves the ambient thread count: `ANDI_THREADS` when set (and
/// parseable), otherwise the machine's available parallelism. Always
/// at least 1. An unparseable `ANDI_THREADS` value falls back to
/// machine parallelism with a one-time `stderr` warning naming the
/// variable and the fallback (a silent fallback once masked typos
/// like `ANDI_THREADS=four` in CI matrices).
pub fn available_threads() -> usize {
    let ambient = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    match std::env::var(THREADS_ENV) {
        Ok(v) => resolve_threads(Some(&v), ambient),
        Err(_) => ambient,
    }
}

/// Pure resolution of an `ANDI_THREADS` override against the ambient
/// machine parallelism (separated from the env read so the policy is
/// unit-testable without mutating process-global state). Garbage
/// values warn once and fall back to `ambient`.
fn resolve_threads(override_value: Option<&str>, ambient: usize) -> usize {
    match override_value {
        None => ambient,
        Some(v) => match v.trim().parse::<usize>() {
            Ok(n) => n.max(1),
            Err(_) => {
                warn_bad_threads(v, ambient);
                ambient
            }
        },
    }
}

/// One-time warning for an unparseable `ANDI_THREADS` value.
fn warn_bad_threads(value: &str, fallback: usize) {
    static WARNED: Once = Once::new();
    WARNED.call_once(|| {
        eprintln!(
            "warning: {THREADS_ENV}={value:?} is not a valid thread count; \
             falling back to machine parallelism ({fallback})"
        );
    });
}

/// Cooperative cancellation flag, shared by cloning. Fire
/// [`CancelToken::cancel`] from any thread; every in-flight budgeted
/// computation polling a [`Budget`] built with this token stops at
/// its next poll point with [`ExecError::Cancelled`].
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    inner: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Requests cancellation. Idempotent; the flag latches.
    pub fn cancel(&self) {
        self.inner.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.inner.load(Ordering::Relaxed)
    }
}

/// A wall-clock deadline plus an optional [`CancelToken`], polled
/// cooperatively via [`Budget::check`].
///
/// Both trips are *sticky*: once the deadline has passed or the token
/// has fired, every later poll reports the same structured error, so
/// early and late polls of the same budget can never disagree about
/// the outcome.
#[derive(Clone, Debug)]
pub struct Budget {
    start: Instant,
    deadline: Option<Instant>,
    limit_ms: Option<u64>,
    token: Option<CancelToken>,
}

impl Budget {
    /// A budget that never trips on its own (no deadline, no token).
    pub fn unlimited() -> Self {
        Budget {
            start: Instant::now(),
            deadline: None,
            limit_ms: None,
            token: None,
        }
    }

    /// A budget whose deadline is `limit` from now.
    pub fn with_deadline(limit: Duration) -> Self {
        let start = Instant::now();
        Budget {
            start,
            deadline: Some(start + limit),
            limit_ms: Some(limit.as_millis().min(u128::from(u64::MAX)) as u64),
            token: None,
        }
    }

    /// Attaches a cancellation token (builder style).
    pub fn with_token(mut self, token: CancelToken) -> Self {
        self.token = Some(token);
        self
    }

    /// The configured wall-clock limit in milliseconds, if any.
    pub fn limit_ms(&self) -> Option<u64> {
        self.limit_ms
    }

    /// Wall-clock time elapsed since this budget was created.
    pub fn spent(&self) -> Duration {
        Instant::now().duration_since(self.start)
    }

    /// Polls the budget: cancellation first, then the deadline.
    ///
    /// # Errors
    ///
    /// [`ExecError::Cancelled`] if the token has fired,
    /// [`ExecError::BudgetExceeded`] if the deadline has passed.
    pub fn check(&self) -> Result<(), ExecError> {
        if let Some(token) = &self.token {
            if token.is_cancelled() {
                return Err(ExecError::Cancelled);
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Err(ExecError::BudgetExceeded {
                    budget_ms: self.limit_ms.unwrap_or(0),
                });
            }
        }
        Ok(())
    }
}

/// Structured failure of a budgeted parallel computation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExecError {
    /// A [`CancelToken`] fired; the computation stopped at its next
    /// poll point.
    Cancelled,
    /// The wall-clock deadline passed before the computation
    /// finished.
    BudgetExceeded {
        /// The configured limit, for reporting (0 when unknown).
        budget_ms: u64,
    },
    /// A worker task panicked; the pool was drained cleanly and the
    /// panic converted into a value instead of aborting the process.
    WorkerPanic {
        /// The lowest panicking task index (equal to the index a
        /// serial run would hit first).
        task: usize,
        /// The panic payload, when it was a string.
        payload: String,
    },
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Cancelled => write!(f, "computation cancelled"),
            ExecError::BudgetExceeded { budget_ms } => {
                write!(f, "wall-clock budget of {budget_ms} ms exceeded")
            }
            ExecError::WorkerPanic { task, payload } => {
                write!(f, "worker task {task} panicked: {payload}")
            }
        }
    }
}

impl std::error::Error for ExecError {}

/// Renders a caught panic payload.
fn payload_text(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The workspace's one worker pool: maps `f` over `0..n_tasks` on
/// the calling thread plus `threads.min(n_tasks) - 1` scoped helpers,
/// polling `budget` between tasks and catching task panics instead of
/// aborting.
///
/// On success the result equals `(0..n_tasks).map(f).collect()` (see
/// the module docs for the determinism contract). On failure the
/// error is structured and *deterministic* under the same
/// preconditions:
///
/// * budget/cancel trips are sticky, so whichever poll observes them
///   reports the same [`ExecError`] value at any thread count;
/// * a panic reports the lowest panicking task index (workers skip
///   indices above the current minimum and drain), which equals the
///   first index a serial run would panic at whenever panicking is a
///   function of the task index alone.
///
/// Error precedence when several conditions hold at drain time:
/// `Cancelled` over `BudgetExceeded` over `WorkerPanic`.
///
/// # Errors
///
/// See [`ExecError`].
pub fn try_map_indexed<T, F>(
    threads: usize,
    n_tasks: usize,
    budget: &Budget,
    f: F,
) -> Result<Vec<T>, ExecError>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    budget.check()?;
    let next = AtomicUsize::new(0);
    let min_panic = AtomicUsize::new(usize::MAX);
    let payloads: Mutex<Vec<(usize, String)>> = Mutex::new(Vec::new());
    // The one task loop, run by the caller and by every helper.
    let work = || {
        let mut local: Vec<(usize, T)> = Vec::new();
        loop {
            if budget.check().is_err() {
                break;
            }
            let i = next.fetch_add(1, Ordering::Relaxed);
            // Indices above the lowest known panic cannot change the
            // reported error, and every later claim is larger still,
            // so the loop drains. Indices below it must still run —
            // one of them may panic with a smaller index, and the
            // minimum over all executed tasks is what makes the
            // report thread-count-independent.
            if i >= n_tasks || i >= min_panic.load(Ordering::Relaxed) {
                break;
            }
            match catch_unwind(AssertUnwindSafe(|| f(i))) {
                Ok(v) => local.push((i, v)),
                Err(p) => {
                    min_panic.fetch_min(i, Ordering::Relaxed);
                    let mut sink = payloads.lock().unwrap_or_else(|e| e.into_inner());
                    sink.push((i, payload_text(p)));
                }
            }
        }
        local
    };
    let helpers = threads.min(n_tasks).saturating_sub(1);
    let mut tagged: Vec<(usize, T)> = Vec::with_capacity(n_tasks);
    let pool = crossbeam::thread::scope(|scope| {
        let handles: Vec<_> = (0..helpers).map(|_| scope.spawn(|_| work())).collect();
        tagged.extend(work());
        for h in handles {
            match h.join() {
                Ok(part) => tagged.extend(part),
                // Only reachable if a panic escapes catch_unwind
                // (e.g. a panicking payload Drop); report it rather
                // than unwinding through the caller.
                Err(_) => {
                    min_panic.fetch_min(0, Ordering::Relaxed);
                }
            }
        }
    });
    if pool.is_err() {
        min_panic.fetch_min(0, Ordering::Relaxed);
    }

    budget.check()?;
    let mp = min_panic.load(Ordering::Relaxed);
    if mp != usize::MAX {
        let sink = payloads.lock().unwrap_or_else(|e| e.into_inner());
        let payload = sink
            .iter()
            .find(|(i, _)| *i == mp)
            .map(|(_, s)| s.clone())
            .unwrap_or_else(|| "worker pool failure".to_string());
        return Err(ExecError::WorkerPanic { task: mp, payload });
    }
    debug_assert_eq!(tagged.len(), n_tasks);
    tagged.sort_unstable_by_key(|&(i, _)| i);
    Ok(tagged.into_iter().map(|(_, v)| v).collect())
}

/// Spawns a named, long-lived service thread.
///
/// Estimator fan-out must go through [`try_map_indexed`] — that is
/// what makes results thread-count invariant. Long-running *service* threads (a server's accept
/// loop, its request workers, a connection watcher) are a different
/// animal: they never touch result values, they only move requests
/// around, and they live until their subsystem shuts down. This is
/// the one sanctioned way to create them, so the
/// `thread-spawn-outside-par` invariant ("all threading goes through
/// `andi_graph::par`") keeps holding for the service layer too.
///
/// The thread name shows up in panic messages and debuggers.
///
/// # Errors
///
/// Propagates the OS spawn failure (thread limit, out of memory)
/// instead of panicking, so a service under resource pressure can
/// shed load structurally.
pub fn spawn_worker<T, F>(name: &str, f: F) -> std::io::Result<WorkerHandle<T>>
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    std::thread::Builder::new().name(name.to_string()).spawn(f)
}

/// Join handle for a [`spawn_worker`] service thread, re-exported so
/// service crates can store handles without naming `std::thread`
/// themselves.
pub type WorkerHandle<T> = std::thread::JoinHandle<T>;

/// Parks the calling thread for `ms` milliseconds. Service loops
/// (the accept poll, the disconnect watcher) use this instead of
/// `std::thread::sleep` directly so all timing primitives outside
/// `crates/bench` live in this module.
pub fn sleep_ms(ms: u64) {
    std::thread::sleep(Duration::from_millis(ms));
}

/// Splits the half-open range `[0, total)` into at most `max_chunks`
/// contiguous chunks of near-equal size (first chunks one longer when
/// `total` does not divide evenly). Chunk boundaries depend only on
/// `total` and `max_chunks`, never on the thread count.
pub fn chunk_ranges(total: u64, max_chunks: usize) -> Vec<(u64, u64)> {
    if total == 0 {
        return Vec::new();
    }
    let chunks = (max_chunks.max(1) as u64).min(total);
    let base = total / chunks;
    let extra = total % chunks;
    let mut out = Vec::with_capacity(chunks as usize);
    let mut start = 0u64;
    for c in 0..chunks {
        let len = base + u64::from(c < extra);
        out.push((start, start + len));
        start += len;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The pool on an unlimited budget, which never trips.
    fn map_unlimited<T: Send>(threads: usize, n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
        try_map_indexed(threads, n, &Budget::unlimited(), f).unwrap()
    }

    #[test]
    fn pool_matches_serial_at_every_thread_count() {
        let serial: Vec<u64> = (0..37).map(|i| (i as u64) * 3 + 1).collect();
        for threads in 1..=8 {
            let par = map_unlimited(threads, 37, |i| (i as u64) * 3 + 1);
            assert_eq!(par, serial, "threads = {threads}");
        }
    }

    #[test]
    fn pool_handles_empty_and_single() {
        assert_eq!(map_unlimited(4, 0, |i| i), Vec::<usize>::new());
        assert_eq!(map_unlimited(4, 1, |i| i + 10), vec![10]);
    }

    #[test]
    fn pool_balances_uneven_tasks() {
        // Tasks with wildly different costs still produce ordered
        // results.
        let out = map_unlimited(4, 16, |i| {
            let spins = if i % 4 == 0 { 200_000 } else { 10 };
            let mut acc = i as u64;
            for k in 0..spins {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
            }
            (i, acc)
        });
        for (k, &(i, _)) in out.iter().enumerate() {
            assert_eq!(k, i);
        }
    }

    #[test]
    fn chunk_ranges_cover_exactly() {
        for total in [0u64, 1, 7, 64, 1 << 20] {
            for chunks in [1usize, 2, 3, 8, 64] {
                let ranges = chunk_ranges(total, chunks);
                let mut expected = 0;
                for &(s, e) in &ranges {
                    assert_eq!(s, expected);
                    assert!(e > s);
                    expected = e;
                }
                assert_eq!(expected, total);
                assert!(ranges.len() <= chunks.max(1));
            }
        }
    }

    #[test]
    fn spawn_worker_runs_named_and_joins() {
        let h = spawn_worker("par-test-worker", || 41 + 1).expect("spawn");
        assert_eq!(h.join().expect("worker must not panic"), 42);
    }

    #[test]
    fn env_override_is_respected() {
        // Serial resolution path only: parsing, not the live env
        // (tests must not mutate process-global state).
        assert!(available_threads() >= 1);
    }
}
