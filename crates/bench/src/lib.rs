//! Shared plumbing for the benchmark harness.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the
//! paper (see DESIGN.md's per-experiment index); the helpers here
//! keep them small: analog loading (with an escape hatch to real
//! FIMI files), the recipe's `δ_med` belief construction, and a
//! `--quick` switch that scales the simulation schedules down for
//! smoke runs.

use andi_core::BeliefFunction;
use andi_data::synth::Analog;
use andi_data::FrequencyGroups;
use andi_graph::sampler::SamplerConfig;

/// A loaded dataset profile ready for analysis.
pub struct Workload {
    /// Dataset label for tables.
    pub name: String,
    /// Per-item support counts (aligned indexing).
    pub supports: Vec<u64>,
    /// Number of transactions.
    pub n_transactions: u64,
}

impl Workload {
    /// Loads the analog, or — when the environment variable
    /// `ANDI_DATA_DIR` points at a directory containing
    /// `<name>.dat` in FIMI format — the *real* benchmark dataset.
    pub fn load(analog: Analog) -> Workload {
        if let Ok(dir) = std::env::var("ANDI_DATA_DIR") {
            let path =
                std::path::Path::new(&dir).join(format!("{}.dat", analog.name().to_lowercase()));
            if path.exists() {
                match andi_data::fimi::read_fimi_file(&path) {
                    Ok(ds) => {
                        eprintln!("[workload] using real dataset {}", path.display());
                        return Workload {
                            name: format!("{} (real)", analog.name()),
                            supports: ds.database.supports(),
                            n_transactions: ds.database.n_transactions() as u64,
                        };
                    }
                    Err(e) => eprintln!(
                        "[workload] failed to read {}: {e}; falling back to analog",
                        path.display()
                    ),
                }
            }
        }
        Workload {
            name: analog.name().to_string(),
            supports: analog.supports(),
            n_transactions: analog.spec().n_transactions,
        }
    }

    /// Domain size.
    pub fn n_items(&self) -> usize {
        self.supports.len()
    }

    /// Item frequencies.
    pub fn frequencies(&self) -> Vec<f64> {
        let m = self.n_transactions as f64;
        self.supports.iter().map(|&s| s as f64 / m).collect()
    }

    /// Frequency groups of the profile.
    pub fn groups(&self) -> FrequencyGroups {
        FrequencyGroups::from_supports(&self.supports, self.n_transactions)
    }

    /// The recipe's `δ_med` and the compliant interval belief
    /// function of its step 5: `[f_x - δ_med, f_x + δ_med]`.
    pub fn delta_med_belief(&self) -> (f64, BeliefFunction) {
        BeliefFunction::delta_med_compliant(&self.groups())
            .expect("frequencies derived from counts are valid")
    }
}

/// Whether `--quick` was passed (smoke-test scale).
pub fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// The Section 7.1 sampler schedule with swap budgets scaled to the
/// domain size: warm-up and thinning each cover the whole domain
/// several times, which the paper's fixed numbers (100 000 and
/// 10 000 attempts) only did for small `n`. `--quick` uses a reduced
/// version.
pub fn sampler_config(quick: bool, n_items: usize) -> SamplerConfig {
    let n = n_items.max(1);
    if quick {
        SamplerConfig {
            warmup_swaps: (15 * n).max(10_000),
            swaps_between_samples: n.max(1_000),
            samples_per_seed: 125,
            n_samples: 500,
            use_locality: true,
        }
    } else {
        SamplerConfig {
            warmup_swaps: (30 * n).max(100_000),
            swaps_between_samples: (2 * n).max(10_000),
            samples_per_seed: 250,
            n_samples: 5_000,
            use_locality: true,
        }
    }
}

/// Number of simulation runs (the paper averages 5; 2 under
/// `--quick`).
pub fn n_runs(quick: bool) -> usize {
    if quick {
        2
    } else {
        5
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_loads_analogs() {
        let w = Workload::load(Analog::Chess);
        assert_eq!(w.name, "CHESS");
        assert_eq!(w.n_items(), 75);
        assert_eq!(w.n_transactions, 3_196);
        let (delta_med, b) = w.delta_med_belief();
        assert!(delta_med > 0.0);
        assert!((b.alpha(&w.frequencies()) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sampler_configs_scale() {
        let quick = sampler_config(true, 100);
        let full = sampler_config(false, 100);
        assert!(quick.n_samples < full.n_samples);
        assert_eq!(full.n_samples, 5_000);
        assert_eq!(full.warmup_swaps, 100_000, "paper floor for small n");
        // Large domains get proportional budgets.
        let big = sampler_config(false, 16_470);
        assert_eq!(big.warmup_swaps, 30 * 16_470);
        assert_eq!(big.swaps_between_samples, 2 * 16_470);
        assert_eq!(n_runs(false), 5);
        assert_eq!(n_runs(true), 2);
    }
}
