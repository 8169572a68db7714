//! The benchmark's summary statistics: median, nearest-rank
//! percentiles, the interquartile spread, and the tail rule — a
//! percentile is only reported when at least [`TAIL_BEYOND`] samples
//! lie beyond it, so a "p99" of 40 samples is never printed.

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median: the middle sample, or the mean of the two middle samples.
/// `None` on an empty slice.
pub fn median(samples: &[f64]) -> Option<f64> {
    let v = sorted(samples);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Nearest-rank percentile: the smallest sample with at least `pct` %
/// of the samples at or below it. `None` on an empty slice.
pub fn percentile(samples: &[f64], pct: f64) -> Option<f64> {
    let v = sorted(samples);
    if v.is_empty() {
        return None;
    }
    let rank = ((pct / 100.0) * v.len() as f64).ceil() as usize;
    Some(v[rank.clamp(1, v.len()) - 1])
}

/// The highest percentile that still has [`TAIL_BEYOND`] samples
/// strictly beyond it, as `(percentile, value)`. `None` when that
/// percentile would not even reach the median (fewer than
/// `2 * TAIL_BEYOND` samples): the run is too short to have a tail.
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(samples);
    let n = v.len();
    if n < 2 * TAIL_BEYOND {
        return None;
    }
    let at_or_below = n - TAIL_BEYOND;
    Some((100.0 * at_or_below as f64 / n as f64, v[at_or_below - 1]))
}

/// Distance between the first and third quartile as a share of the
/// median, in percent. `None` below four samples.
pub fn iqr_pct(samples: &[f64]) -> Option<f64> {
    if samples.len() < 4 {
        return None;
    }
    let (q1, q3) = (percentile(samples, 25.0)?, percentile(samples, 75.0)?);
    Some(100.0 * (q3 - q1) / median(samples)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 90.0), Some(9.0));
        assert_eq!(percentile(&v, 91.0), Some(10.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 100.0), Some(10.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        // 990 samples at or below, exactly 10 beyond: p99.
        assert_eq!(tail(&v), Some((99.0, 990.0)));
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail(&v), Some((75.0, 30.0)));
        // Too few samples for any tail above the median.
        let v: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail(&v), None);
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn iqr_is_relative_to_the_median() {
        let v: Vec<f64> = (1..=8).map(f64::from).collect();
        // q1 = 2, q3 = 6, median = 4.5.
        assert_eq!(iqr_pct(&v), Some(100.0 * 4.0 / 4.5));
        assert_eq!(iqr_pct(&[1.0, 2.0, 3.0]), None);
    }
}
