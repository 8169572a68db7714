//! Streaming quantile sketches: fixed-cost, deterministic, exactly
//! mergeable summaries of latency streams.
//!
//! The offline reports keep every sample ([`crate::LatencyHistogram`])
//! — fine for one broadcast, wrong for a 10,000-epoch soak where the
//! telemetry must not grow with traffic. [`QuantileSketch`] keeps the
//! same log₂ bucketing the histogram already renders (`bucket b` holds
//! samples in `[2^(b-1), 2^b)` ps, bucket 0 holds exact zeros) but
//! *only* the 65 bucket counters, so its memory cost is constant and
//! its merge is per-bucket addition — associative, commutative, and
//! bit-identical to having recorded the concatenated stream in one
//! sketch (the property the proptests in `tests/sketch_props.rs` pin).
//!
//! ## Error bound
//!
//! A quantile is answered by nearest-rank over the cumulative bucket
//! counts, reporting the *upper bound* of the bucket holding the rank
//! (`2^b − 1` ps for bucket `b ≥ 1`, `0` for bucket 0). Because the
//! exact nearest-rank sample lies in the same bucket,
//!
//! ```text
//! exact ≤ reported ≤ 2·exact − 1   (exact > 0)
//! reported = exact = 0             (exact = 0)
//! ```
//!
//! i.e. the sketch never under-reports and over-reports by strictly
//! less than 2×. The `soak` experiment re-checks this bound against a
//! replayed full recording as a shape claim on every run.

use scc_hal::Time;

/// Number of bucket counters: bucket 0 (zeros) plus one per possible
/// leading-bit position of a `u64` picosecond sample.
pub const SKETCH_BUCKETS: usize = 65;

/// A fixed-bucket log₂ quantile sketch over picosecond samples.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QuantileSketch {
    counts: [u64; SKETCH_BUCKETS],
    total: u64,
}

impl Default for QuantileSketch {
    fn default() -> QuantileSketch {
        QuantileSketch { counts: [0; SKETCH_BUCKETS], total: 0 }
    }
}

impl QuantileSketch {
    pub fn new() -> QuantileSketch {
        QuantileSketch::default()
    }

    /// The bucket index of a picosecond sample: 0 for zero, otherwise
    /// the bit position of the leading one — exactly
    /// [`crate::LatencyHistogram::log2_buckets`]'s rule.
    #[inline]
    pub fn bucket_of(ps: u64) -> usize {
        if ps == 0 {
            0
        } else {
            (64 - ps.leading_zeros()) as usize
        }
    }

    /// Largest picosecond value bucket `b` can hold (`2^b − 1`; 0 for
    /// the zero bucket). This is the value quantiles report.
    #[inline]
    pub fn bucket_upper(b: usize) -> u64 {
        if b == 0 {
            0
        } else {
            u64::MAX >> (64 - b)
        }
    }

    pub fn record(&mut self, v: Time) {
        self.record_ps(v.as_ps());
    }

    pub fn record_ps(&mut self, ps: u64) {
        self.counts[Self::bucket_of(ps)] += 1;
        self.total += 1;
    }

    /// Fold `other` in. Exact: the result is bit-identical to a sketch
    /// that recorded both streams in any order.
    pub fn merge(&mut self, other: &QuantileSketch) {
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts.iter()) {
            *mine += theirs;
        }
        self.total += other.total;
    }

    /// Nearest-rank quantile (`q` in 0..=1) in picoseconds, reported as
    /// the holding bucket's upper bound (see the module-level error
    /// bound). `None` on an empty sketch.
    pub fn quantile_ps(&self, q: f64) -> Option<u64> {
        if self.total == 0 {
            return None;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        self.counts
            .iter()
            .position(|&n| {
                seen += n;
                seen >= rank
            })
            .map(Self::bucket_upper)
    }

    /// [`Self::quantile_ps`] as a [`Time`].
    pub fn quantile(&self, q: f64) -> Option<Time> {
        self.quantile_ps(q).map(Time::from_ps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ps(v: u64) -> Time {
        Time::from_ps(v)
    }

    #[test]
    fn bucketing_matches_histogram_rule() {
        assert_eq!(QuantileSketch::bucket_of(0), 0);
        assert_eq!(QuantileSketch::bucket_of(1), 1);
        assert_eq!(QuantileSketch::bucket_of(2), 2);
        assert_eq!(QuantileSketch::bucket_of(3), 2);
        assert_eq!(QuantileSketch::bucket_of(1024), 11);
        assert_eq!(QuantileSketch::bucket_of(u64::MAX), 64);
    }

    #[test]
    fn bucket_upper_bounds() {
        assert_eq!(QuantileSketch::bucket_upper(0), 0);
        assert_eq!(QuantileSketch::bucket_upper(1), 1);
        assert_eq!(QuantileSketch::bucket_upper(2), 3);
        assert_eq!(QuantileSketch::bucket_upper(11), 2047);
        assert_eq!(QuantileSketch::bucket_upper(64), u64::MAX);
    }

    #[test]
    fn empty_sketch_has_no_quantiles() {
        let s = QuantileSketch::new();
        assert_eq!(s.quantile(0.5), None);
    }

    #[test]
    fn quantile_error_bound_holds() {
        // Exact nearest-rank vs the sketch over a spread of magnitudes.
        let samples: Vec<u64> = (0..500).map(|i| (i * i * 37 + 1) as u64).collect();
        let mut s = QuantileSketch::new();
        let mut exacth = crate::LatencyHistogram::new();
        for &v in &samples {
            s.record_ps(v);
            exacth.record(ps(v));
        }
        for q in [0.5, 0.9, 0.99, 0.999, 1.0] {
            let exact = exacth.quantile(q).unwrap().as_ps();
            let got = s.quantile_ps(q).unwrap();
            assert!(got >= exact, "q={q}: reported {got} under-reports exact {exact}");
            assert!(got < 2 * exact, "q={q}: reported {got} >= 2x exact {exact}");
        }
    }

    #[test]
    fn identical_samples_collapse_all_quantiles() {
        let mut s = QuantileSketch::new();
        for _ in 0..9 {
            s.record(ps(1500));
        }
        // All samples share bucket 11, so every quantile reports its
        // upper bound.
        assert_eq!(s.quantile_ps(0.5), Some(2047));
        assert_eq!(s.quantile_ps(0.999), Some(2047));
    }

    #[test]
    fn merge_equals_concatenation() {
        let (a, b): (Vec<u64>, Vec<u64>) =
            ((1u64..100).map(|v| v * 7).collect(), (1u64..50).map(|v| v * v).collect());
        let mut left = QuantileSketch::new();
        a.iter().for_each(|&v| left.record_ps(v));
        let mut right = QuantileSketch::new();
        b.iter().for_each(|&v| right.record_ps(v));
        let mut whole = QuantileSketch::new();
        a.iter().chain(b.iter()).for_each(|&v| whole.record_ps(v));
        left.merge(&right);
        assert_eq!(left, whole);
    }
}
