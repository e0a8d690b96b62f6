//! Deterministic, seeded fault injection.
//!
//! The budgeted execution paths (`permanent`, `sampler`) carry named
//! *probe points* — [`probe`] calls that are free when no
//! schedule is active and that inject a panic or a short delay when
//! one is. Whether a given probe fires is a **pure function** of
//! `(schedule, point name, task index)` — no clocks, no thread ids,
//! no global counters — so an injected fault lands on exactly the
//! same task at `ANDI_THREADS=1` and `ANDI_THREADS=4`, which is what
//! lets the chaos suite demand bit-identical outcomes across thread
//! counts.
//!
//! # Schedule grammar
//!
//! ```text
//! ANDI_FAULTS=<seed>:<rate>[:<mode>]
//! ```
//!
//! `seed` is a `u64`, `rate` a probability in `[0, 1]` (stored as
//! parts-per-million), `mode` one of `panic` (default), `delay`, or
//! `mix`. Example: `ANDI_FAULTS=7:0.05:panic` panics at ~5% of probe
//! hits, chosen deterministically by the seed.
//!
//! Every probe point sits *inside* a task run under
//! [`crate::par::try_map_indexed`]'s `catch_unwind`, so an injected
//! panic always surfaces as a structured
//! [`crate::par::ExecError::WorkerPanic`], never a process abort.
//!
//! The service layer (`crates/serve`) adds three probe points of its
//! own — `serve.accept` (indexed by connection sequence, fired
//! before a connection is queued), `serve.request` (indexed by
//! request sequence, fired before routing), and `cache.shard`
//! (indexed by the cache key, fired on every shard lookup). Each
//! sits under the server's own `catch_unwind` perimeter, so an
//! injected panic becomes a structured `500` response and the
//! connection (not the server) is what pays for it.
//!
//! # Activation
//!
//! Ambient activation reads [`FAULTS_ENV`] once per process (CI sets
//! it for the chaos job). Tests use [`FaultSchedule::install`], which
//! takes a process-wide lock for the guard's lifetime — serializing
//! chaos tests within a test binary — and overrides the ambient
//! schedule without mutating the environment.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, Once, OnceLock};
use std::time::Duration;

use crate::hash::{fnv1a, splitmix64};

/// Environment variable carrying the ambient fault schedule.
pub const FAULTS_ENV: &str = "ANDI_FAULTS";

/// What an active probe injects when it fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultMode {
    /// Every firing probe panics.
    Panic,
    /// Every firing probe sleeps for a few milliseconds.
    Delay,
    /// Each firing probe deterministically picks panic or delay.
    Mix,
}

/// The concrete action a firing probe takes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// Panic with a payload naming the probe point and index.
    Panic,
    /// Sleep for the given duration.
    Delay(Duration),
}

/// A deterministic fault schedule: seed, firing rate, and mode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultSchedule {
    /// Seed mixed into every firing decision.
    pub seed: u64,
    /// Firing probability in parts per million.
    pub rate_ppm: u32,
    /// What a firing probe does.
    pub mode: FaultMode,
}

impl FaultSchedule {
    /// Parses the `<seed>:<rate>[:<mode>]` grammar. Returns `None`
    /// (with no side effects) on any malformed input.
    pub fn parse(spec: &str) -> Option<FaultSchedule> {
        let mut parts = spec.trim().split(':');
        let seed: u64 = parts.next()?.trim().parse().ok()?;
        let rate: f64 = parts.next()?.trim().parse().ok()?;
        if !(0.0..=1.0).contains(&rate) {
            return None;
        }
        let mode = match parts.next().map(str::trim) {
            None | Some("panic") => FaultMode::Panic,
            Some("delay") => FaultMode::Delay,
            Some("mix") => FaultMode::Mix,
            Some(_) => return None,
        };
        if parts.next().is_some() {
            return None;
        }
        Some(FaultSchedule {
            seed,
            rate_ppm: (rate * 1_000_000.0).round() as u32,
            mode,
        })
    }

    /// Pure firing decision for `(point, index)`: `Some(action)` when
    /// this probe hit should inject a fault. Identical for every
    /// thread count and every interleaving by construction.
    pub fn fires(&self, point: &str, index: usize) -> Option<FaultAction> {
        if self.rate_ppm == 0 {
            return None;
        }
        let h = splitmix64(self.seed ^ fnv1a(point.as_bytes()) ^ splitmix64(index as u64));
        if (h % 1_000_000) as u32 >= self.rate_ppm {
            return None;
        }
        let action_bits = h >> 32;
        let delay = Duration::from_millis(1 + (action_bits >> 1) % 4);
        match self.mode {
            FaultMode::Panic => Some(FaultAction::Panic),
            FaultMode::Delay => Some(FaultAction::Delay(delay)),
            FaultMode::Mix => {
                if action_bits & 1 == 0 {
                    Some(FaultAction::Panic)
                } else {
                    Some(FaultAction::Delay(delay))
                }
            }
        }
    }

    /// Installs this schedule as the process-wide override for the
    /// guard's lifetime, taking a global lock so concurrent tests
    /// with different schedules serialize instead of interleaving.
    pub fn install(self) -> ScheduleGuard {
        let serial = INSTALL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        *OVERRIDE.lock().unwrap_or_else(|e| e.into_inner()) = Some(self);
        OVERRIDE_ACTIVE.store(true, Ordering::SeqCst);
        ScheduleGuard { _serial: serial }
    }
}

/// RAII guard for an installed override schedule; dropping it
/// deactivates injection and releases the serialization lock.
pub struct ScheduleGuard {
    _serial: MutexGuard<'static, ()>,
}

impl Drop for ScheduleGuard {
    fn drop(&mut self) {
        OVERRIDE_ACTIVE.store(false, Ordering::SeqCst);
        *OVERRIDE.lock().unwrap_or_else(|e| e.into_inner()) = None;
    }
}

static INSTALL_LOCK: Mutex<()> = Mutex::new(());
static OVERRIDE: Mutex<Option<FaultSchedule>> = Mutex::new(None);
static OVERRIDE_ACTIVE: AtomicBool = AtomicBool::new(false);

/// The ambient schedule from [`FAULTS_ENV`], parsed once per
/// process. Malformed values warn once on `stderr` and deactivate
/// injection rather than erroring.
pub fn ambient() -> Option<&'static FaultSchedule> {
    static AMBIENT: OnceLock<Option<FaultSchedule>> = OnceLock::new();
    AMBIENT
        .get_or_init(|| match std::env::var(FAULTS_ENV) {
            Err(_) => None,
            Ok(spec) => {
                let parsed = FaultSchedule::parse(&spec);
                if parsed.is_none() {
                    warn_bad_schedule(&spec);
                }
                parsed
            }
        })
        .as_ref()
}

/// One-time warning for an unparseable `ANDI_FAULTS` value.
fn warn_bad_schedule(spec: &str) {
    static WARNED: Once = Once::new();
    WARNED.call_once(|| {
        eprintln!(
            "warning: {FAULTS_ENV}={spec:?} does not match <seed>:<rate>[:panic|delay|mix]; \
             fault injection disabled"
        );
    });
}

/// A named probe point. No-op (two relaxed loads) unless a schedule
/// is active; otherwise consults [`FaultSchedule::fires`] and injects
/// the chosen fault. Call sites must sit inside a
/// [`crate::par::try_map_indexed`] task so injected panics stay
/// isolated.
pub fn probe(point: &str, index: usize) {
    let schedule = if OVERRIDE_ACTIVE.load(Ordering::SeqCst) {
        *OVERRIDE.lock().unwrap_or_else(|e| e.into_inner())
    } else {
        match ambient() {
            None => return,
            Some(s) => Some(*s),
        }
    };
    let Some(schedule) = schedule else { return };
    match schedule.fires(point, index) {
        None => {}
        Some(FaultAction::Delay(d)) => std::thread::sleep(d),
        Some(FaultAction::Panic) => {
            // andi::allow(panic-reachability) — deterministic injected fault; every probe site sits inside try_map_indexed's catch_unwind
            panic!("injected fault at {point}[{index}]")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_full_grammar() {
        assert_eq!(
            FaultSchedule::parse("7:0.05"),
            Some(FaultSchedule {
                seed: 7,
                rate_ppm: 50_000,
                mode: FaultMode::Panic
            })
        );
        assert_eq!(
            FaultSchedule::parse(" 1234 : 0.2 : mix "),
            Some(FaultSchedule {
                seed: 1234,
                rate_ppm: 200_000,
                mode: FaultMode::Mix
            })
        );
        assert_eq!(
            FaultSchedule::parse("0:1:delay").map(|s| s.mode),
            Some(FaultMode::Delay)
        );
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in [
            "",
            "7",
            "7:",
            "seven:0.1",
            "7:1.5",
            "7:-0.1",
            "7:0.1:boom",
            "7:0.1:panic:extra",
        ] {
            assert_eq!(FaultSchedule::parse(bad), None, "accepted {bad:?}");
        }
    }

    #[test]
    fn fires_is_pure_and_rate_zero_never_fires() {
        let s = FaultSchedule {
            seed: 42,
            rate_ppm: 500_000,
            mode: FaultMode::Mix,
        };
        for i in 0..64 {
            assert_eq!(s.fires("permanent.chunk", i), s.fires("permanent.chunk", i));
        }
        let off = FaultSchedule { rate_ppm: 0, ..s };
        assert!((0..256).all(|i| off.fires("sampler.batch", i).is_none()));
    }

    #[test]
    fn fires_rate_one_always_fires_and_varies_by_point() {
        let s = FaultSchedule {
            seed: 9,
            rate_ppm: 1_000_000,
            mode: FaultMode::Panic,
        };
        assert!((0..64).all(|i| s.fires("permanent.chunk", i) == Some(FaultAction::Panic)));
        let half = FaultSchedule {
            rate_ppm: 300_000,
            ..s
        };
        let a: Vec<bool> = (0..64)
            .map(|i| half.fires("permanent.chunk", i).is_some())
            .collect();
        let b: Vec<bool> = (0..64)
            .map(|i| half.fires("sampler.batch", i).is_some())
            .collect();
        assert_ne!(a, b, "point name should decorrelate firing patterns");
        assert!(a.iter().any(|&x| x) && a.iter().any(|&x| !x));
    }

    #[test]
    fn install_overrides_and_drop_restores() {
        let s = FaultSchedule {
            seed: 1,
            rate_ppm: 1_000_000,
            mode: FaultMode::Delay,
        };
        {
            let _guard = s.install();
            assert!(OVERRIDE_ACTIVE.load(Ordering::SeqCst));
            // A delay-mode probe must not panic.
            probe("permanent.chunk", 3);
        }
        assert!(!OVERRIDE_ACTIVE.load(Ordering::SeqCst));
    }
}
