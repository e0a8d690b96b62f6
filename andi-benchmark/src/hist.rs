//! A fixed-size log-linear histogram of nanosecond durations.
//!
//! Every power of two is split into 128 linear sub-buckets, so a
//! recorded value is known to within 1/128 of itself, and the whole
//! table is 7424 counters whatever the run length. A faster server
//! therefore records more samples without growing the process, which
//! keeps `peak_rss_mb` honest.

/// Sub-bucket bits per power of two.
const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;
/// Buckets for every `u64`: values below `SUB` are exact, then
/// `64 - SUB_BITS` octaves of `SUB` sub-buckets each.
const BUCKETS: usize = ((64 - SUB_BITS as usize) + 1) * SUB as usize;

/// Counts, sum and bucketed distribution of recorded durations.
#[derive(Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
    sum_ns: u128,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: vec![0; BUCKETS],
            total: 0,
            sum_ns: 0,
        }
    }
}

fn bucket_of(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let shift = 63 - v.leading_zeros() - SUB_BITS;
    let sub = (v >> shift) - SUB;
    (shift as usize + 1) * SUB as usize + sub as usize
}

/// Half-open value range `[lo, hi)` of bucket `i`.
fn bucket_range(i: usize) -> (u128, u128) {
    let i = i as u128;
    let sub = u128::from(SUB);
    if i < sub {
        return (i, i + 1);
    }
    let shift = i / sub - 1;
    let lo = (sub + i % sub) << shift;
    (lo, lo + (1 << shift))
}

impl Histogram {
    /// Records one duration in nanoseconds.
    pub fn record(&mut self, ns: u64) {
        self.counts[bucket_of(ns)] += 1;
        self.total += 1;
        self.sum_ns += u128::from(ns);
    }

    /// Adds every sample of `other`.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum_ns += other.sum_ns;
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Mean in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        self.sum_ns as f64 / self.total as f64
    }

    /// The `q`-quantile in nanoseconds (0 when empty): the bucket that
    /// holds the sample of rank `ceil(q * count)`, interpolated
    /// linearly by that sample's rank among the bucket's samples.
    pub fn quantile_ns(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c >= rank {
                let (lo, hi) = bucket_range(i);
                let within = (rank - seen) as f64 - 0.5;
                return lo as f64 + (hi - lo) as f64 * within / c as f64;
            }
            seen += c;
        }
        unreachable!("rank {rank} is at most the total {}", self.total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_cover_u64_in_order() {
        let mut last = 0;
        for v in (0..5000u64).chain([u64::MAX / 3, u64::MAX - 1, u64::MAX]) {
            let b = bucket_of(v);
            assert!(b >= last && b < BUCKETS, "v={v}");
            let (lo, hi) = bucket_range(b);
            assert!(lo <= u128::from(v) && u128::from(v) < hi, "v={v}");
            last = b;
        }
    }

    #[test]
    fn quantiles_are_within_bucket_precision() {
        let mut h = Histogram::default();
        for v in 1..=10_000u64 {
            h.record(v * 1_000);
        }
        for (q, want) in [(0.5, 5_000_000.0), (0.99, 9_900_000.0)] {
            let got = h.quantile_ns(q);
            assert!((got - want).abs() / want < 1.0 / SUB as f64, "q={q}: {got}");
        }
        assert_eq!(h.count(), 10_000);
        assert!((h.mean_ns() - 5_000_500.0).abs() < 1e-6);
        let mut twice = h.clone();
        twice.merge(&h);
        assert_eq!(twice.count(), 20_000);
        assert_eq!(Histogram::default().quantile_ns(0.5), 0.0);
    }
}
