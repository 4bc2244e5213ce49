//! Order statistics over host-time samples, and the calibration kernel.

use std::hint::black_box;
use std::time::Instant;

/// The median of `xs` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN sample.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Percentiles the tail rule may pick, highest first, in per-mille (so
/// ranks are exact integer arithmetic).
const TAIL_PER_MILLE: [usize; 4] = [999, 990, 900, 500];

/// Samples a percentile must leave above it before it may stand as the
/// tail.
const TAIL_MIN_BEYOND: usize = 10;

/// A tail estimate: the percentile picked, its value, and how many
/// samples it rests on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile picked (50 when no higher one qualifies).
    pub pct: f64,
    /// The sample at that percentile (nearest rank).
    pub value: f64,
    /// Samples in the set.
    pub samples: usize,
}

/// The highest percentile in [`TAIL_PER_MILLE`] that leaves at least
/// [`TAIL_MIN_BEYOND`] samples above its nearest-rank position. With too
/// few samples for any of them the median stands in, labelled 50.
///
/// # Panics
///
/// Panics on an empty slice or a NaN sample.
pub fn tail(xs: &[f64]) -> Tail {
    assert!(!xs.is_empty(), "tail of no samples");
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    let n = v.len();
    // Nearest rank: the smallest sample with at least pct% of the set at
    // or below it.
    let rank = |pm: usize| (pm * n).div_ceil(1000).clamp(1, n);
    let pick = TAIL_PER_MILLE
        .into_iter()
        .find(|&pm| n - rank(pm) >= TAIL_MIN_BEYOND)
        .unwrap_or(500);
    Tail {
        pct: pick as f64 / 10.0,
        value: v[rank(pick) - 1],
        samples: n,
    }
}

/// A fixed pure-CPU kernel (an xorshift-multiply chain, 2^22 steps),
/// timed five times; returns the median ns per step. No change to the
/// simulator can move it, so records taken at different times can be
/// compared as ratios to it.
pub fn calib_ns() -> f64 {
    const STEPS: u64 = 1 << 22;
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            let mut x: u64 = black_box(0x9E37_79B9_7F4A_7C15);
            for _ in 0..STEPS {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x = x.wrapping_mul(0x2545_F491_4F6C_DD1D);
            }
            black_box(x);
            t.elapsed().as_nanos() as f64 / STEPS as f64
        })
        .collect();
    median(&samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_falls_back_to_the_median_below_twenty_samples() {
        let xs: Vec<f64> = (1..=19).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!((t.pct, t.value, t.samples), (50.0, 10.0, 19));
    }

    #[test]
    fn tail_picks_p90_once_ten_samples_lie_beyond_it() {
        // 100 samples: p90's nearest rank is 90, leaving exactly 10
        // above it; p99 would leave 1.
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!((t.pct, t.value), (90.0, 90.0));
        // 99 samples: p90 ranks 90 and leaves only 9, so p50 stands.
        let xs: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(tail(&xs).pct, 50.0);
    }

    #[test]
    fn tail_picks_p99_and_p999_at_their_thresholds() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!((t.pct, t.value), (99.0, 990.0));
        let xs: Vec<f64> = (1..=10_000).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!((t.pct, t.value), (99.9, 9990.0));
    }

    #[test]
    fn tail_ignores_input_order() {
        let mut xs: Vec<f64> = (1..=100).map(f64::from).collect();
        xs.reverse();
        assert_eq!(tail(&xs).value, 90.0);
    }
}
