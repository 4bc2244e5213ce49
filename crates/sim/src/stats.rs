//! Statistics primitives used across the simulator.
//!
//! The NoC, memory-system and core models record events through these types;
//! the experiment harness reads them back to produce the paper's tables and
//! figures. Everything is plain-old-data and cheap to update on the
//! simulation fast path.

use std::fmt;

/// A monotonically increasing event counter.
///
/// # Examples
///
/// ```
/// use nocout_sim::stats::Counter;
///
/// let mut c = Counter::new();
/// c.add(3);
/// c.incr();
/// assert_eq!(c.value(), 4);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// Creates a zeroed counter.
    pub fn new() -> Self {
        Counter(0)
    }

    /// Adds `n` events.
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Adds a single event.
    #[inline]
    pub fn incr(&mut self) {
        self.0 += 1;
    }

    /// Current count.
    #[inline]
    pub fn value(&self) -> u64 {
        self.0
    }

    /// Resets to zero (used at the warmup/measurement boundary).
    pub fn reset(&mut self) {
        self.0 = 0;
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Streaming mean/variance/min/max over `f64` samples (Welford's method).
///
/// Used for end-to-end packet latencies, queue depths, and the per-seed
/// aggregation in the harness.
///
/// # Examples
///
/// ```
/// use nocout_sim::stats::RunningStats;
///
/// let mut s = RunningStats::new();
/// for x in [1.0, 2.0, 3.0] {
///     s.record(x);
/// }
/// assert_eq!(s.count(), 3);
/// assert!((s.mean() - 2.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Default)]
pub struct RunningStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl RunningStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        RunningStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        if x < self.min {
            self.min = x;
        }
        if x > self.max {
            self.max = x;
        }
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (0 with fewer than two samples).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest sample (`None` when empty).
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Half-width of the ~95% confidence interval of the mean, using the
    /// normal approximation (the paper reports 95% confidence with <4%
    /// error; the harness reports the same interval).
    pub fn ci95_half_width(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            1.96 * self.std_dev() / (self.count as f64).sqrt()
        }
    }

    /// Resets the accumulator.
    pub fn reset(&mut self) {
        *self = RunningStats::new();
    }

    /// Merges another accumulator into this one (parallel Welford update).
    pub fn merge(&mut self, other: &RunningStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Number of linear sub-buckets per power-of-two major bucket in
/// [`LatencyHist`] (as a shift): 2^5 = 32 sub-buckets.
const SUB_BITS: usize = 5;
/// Sub-buckets per major bucket.
const SUBS: usize = 1 << SUB_BITS;
/// Total bucket count: values below `SUBS` get an exact bucket each, and
/// every wider power-of-two range `[2^m, 2^(m+1))` for `m in SUB_BITS..64`
/// is split into `SUBS` equal-width sub-buckets.
const LAT_BUCKETS: usize = SUBS * (64 - SUB_BITS + 1);

/// A fixed-capacity log-linear latency histogram: power-of-two major
/// buckets, each split into 32 linear sub-buckets.
///
/// Recording costs a handful of ALU ops and one array increment, with
/// zero steady-state allocation, and the relative quantile error is
/// bounded at **1/32 (~3%)**, tight enough to report p99/p999. Values
/// below 32 are recorded exactly, and no bucket straddles a power of
/// two. Histograms merge by bucket-wise
/// addition, so per-core/per-tile histograms compose into chip-wide
/// distributions without losing tail resolution.
///
/// [`percentile`](LatencyHist::percentile) returns the *upper bound* of
/// the bucket holding the q-quantile sample (rank `ceil(q·total)`,
/// minimum 1), so the result never under-reports the true quantile and
/// over-reports it by at most a factor of 33/32.
///
/// # Examples
///
/// ```
/// use nocout_sim::stats::LatencyHist;
///
/// let mut h = LatencyHist::new();
/// for x in 1..=1000u64 {
///     h.record(x);
/// }
/// let p99 = h.percentile(0.99);
/// assert!(p99 >= 990 && p99 <= 990 * 33 / 32);
/// ```
#[derive(Clone)]
pub struct LatencyHist {
    buckets: Box<[u64; LAT_BUCKETS]>,
    total: u64,
    sum: u128,
}

impl Default for LatencyHist {
    fn default() -> Self {
        LatencyHist::new()
    }
}

impl LatencyHist {
    /// Creates an empty histogram. This is the only allocation the
    /// histogram ever performs; `record`/`merge`/`reset` are in-place.
    pub fn new() -> Self {
        LatencyHist {
            buckets: Box::new([0; LAT_BUCKETS]),
            total: 0,
            sum: 0,
        }
    }

    /// Bucket index of `v`.
    #[inline]
    fn bucket_of(v: u64) -> usize {
        if v < SUBS as u64 {
            v as usize
        } else {
            let msb = 63 - v.leading_zeros() as usize;
            let shift = msb - SUB_BITS;
            SUBS + (shift << SUB_BITS) + ((v >> shift) as usize & (SUBS - 1))
        }
    }

    /// Largest value that falls into bucket `i` (saturating at
    /// `u64::MAX` for the final bucket).
    fn bucket_upper(i: usize) -> u64 {
        if i < SUBS {
            i as u64
        } else {
            let m = (i - SUBS) >> SUB_BITS;
            let sub = (i - SUBS) & (SUBS - 1);
            let upper = (((SUBS + sub + 1) as u128) << m) - 1;
            upper.min(u64::MAX as u128) as u64
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.buckets[Self::bucket_of(v)] += 1;
        self.total += 1;
        self.sum += v as u128;
    }

    /// Number of recorded samples.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Mean of recorded samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Approximate percentile (`q` in `[0,1]`): the upper bound of the
    /// bucket containing the sample of rank `ceil(q·total)` (minimum
    /// rank 1). Returns 0 when empty. Never below the exact quantile,
    /// above it by at most a factor of 33/32.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if b > 0 && seen >= rank {
                return Self::bucket_upper(i);
            }
        }
        u64::MAX
    }

    /// The q-quantile rounded up to a power of two: `2^bitlen(v)` for the
    /// sample `v` of rank `ceil(q·total)` (minimum rank 1), so 1 for a
    /// zero sample, capped at `2^63`. Returns 0 when empty. Exact, not
    /// approximate: every sample sharing `v`'s bucket has `v`'s bit
    /// length.
    pub fn pow2_percentile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        1 << (64 - self.percentile(q).leading_zeros()).min(63)
    }

    /// Merges another histogram into this one: bucket-wise addition, so
    /// the result is exactly the histogram of the concatenated sample
    /// streams.
    pub fn merge(&mut self, other: &LatencyHist) {
        for (a, &b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.total += other.total;
        self.sum += other.sum;
    }

    /// Iterates over `(bucket_upper_bound, count)` pairs for non-empty
    /// buckets.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (Self::bucket_upper(i), c))
    }

    /// Resets the histogram in place (no reallocation).
    pub fn reset(&mut self) {
        self.buckets.fill(0);
        self.total = 0;
        self.sum = 0;
    }
}

impl fmt::Debug for LatencyHist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LatencyHist")
            .field("total", &self.total)
            .field("mean", &self.mean())
            .field("p50", &self.percentile(0.5))
            .field("p99", &self.percentile(0.99))
            .field("p999", &self.percentile(0.999))
            .finish()
    }
}

/// Tracks the utilization of a resource: the fraction of observed cycles in
/// which the resource was busy.
///
/// # Examples
///
/// ```
/// use nocout_sim::stats::Utilization;
///
/// let mut u = Utilization::new();
/// u.observe(true);
/// u.observe(false);
/// assert!((u.fraction() - 0.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct Utilization {
    busy: u64,
    observed: u64,
}

impl Utilization {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Utilization::default()
    }

    /// Records one cycle of observation.
    #[inline]
    pub fn observe(&mut self, busy: bool) {
        self.observed += 1;
        if busy {
            self.busy += 1;
        }
    }

    /// Busy fraction in `[0,1]` (0 when nothing observed).
    pub fn fraction(&self) -> f64 {
        if self.observed == 0 {
            0.0
        } else {
            self.busy as f64 / self.observed as f64
        }
    }

    /// Number of busy cycles.
    pub fn busy_cycles(&self) -> u64 {
        self.busy
    }

    /// Number of observed cycles.
    pub fn observed_cycles(&self) -> u64 {
        self.observed
    }

    /// Resets the tracker.
    pub fn reset(&mut self) {
        *self = Utilization::default();
    }
}

/// Geometric mean of a slice of positive values, the aggregation the paper
/// uses for Fig. 7 and Fig. 9 ("GMean") and the one
/// `nocout::campaign::NormalizedFrame::geomean` relies on.
///
/// Edge cases (pinned by `geometric_mean_edge_cases`): an empty slice
/// yields 0; a single element yields itself; non-positive elements are
/// clamped to 1e-300 before the log — the result stays finite and
/// non-negative (collapsing toward 0) instead of going NaN, so a
/// degenerate normalization (a zero-IPC point) poisons a GMean visibly
/// but never propagates NaN into a table.
///
/// # Examples
///
/// ```
/// use nocout_sim::stats::geometric_mean;
///
/// let g = geometric_mean(&[1.0, 4.0]);
/// assert!((g - 2.0).abs() < 1e-12);
/// ```
pub fn geometric_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(1e-300).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates_and_resets() {
        let mut c = Counter::new();
        c.incr();
        c.add(9);
        assert_eq!(c.value(), 10);
        c.reset();
        assert_eq!(c.value(), 0);
    }

    #[test]
    fn running_stats_mean_variance() {
        let mut s = RunningStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.record(x);
        }
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
    }

    #[test]
    fn running_stats_empty() {
        let s = RunningStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
        assert_eq!(s.ci95_half_width(), 0.0);
    }

    #[test]
    fn running_stats_merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = RunningStats::new();
        for &x in &xs {
            whole.record(x);
        }
        let mut a = RunningStats::new();
        let mut b = RunningStats::new();
        for &x in &xs[..37] {
            a.record(x);
        }
        for &x in &xs[37..] {
            b.record(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.variance() - whole.variance()).abs() < 1e-9);
    }

    #[test]
    fn latency_hist_small_values_are_exact() {
        let mut h = LatencyHist::new();
        for v in 0..32u64 {
            h.record(v);
        }
        assert_eq!(h.total(), 32);
        // Every value below 32 has its own bucket: quantiles are exact.
        for v in 0..32u64 {
            let q = (v + 1) as f64 / 32.0;
            assert_eq!(h.percentile(q), v, "q={q}");
        }
    }

    #[test]
    fn latency_hist_percentile_brackets_exact_quantile() {
        let mut h = LatencyHist::new();
        let samples: Vec<u64> = (0..5000u64).map(|i| i * i % 1_000_003).collect();
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        for &s in &samples {
            h.record(s);
        }
        for q in [0.5, 0.9, 0.99, 0.999, 1.0] {
            let rank = ((q * sorted.len() as f64).ceil() as usize).max(1);
            let exact = sorted[rank - 1];
            let approx = h.percentile(q);
            assert!(approx >= exact, "q={q}: {approx} < {exact}");
            assert!(
                approx as f64 <= exact as f64 * 33.0 / 32.0,
                "q={q}: {approx} too far above {exact}"
            );
        }
    }

    #[test]
    fn latency_hist_merge_is_concat() {
        let mut a = LatencyHist::new();
        let mut b = LatencyHist::new();
        let mut whole = LatencyHist::new();
        for v in 0..2000u64 {
            let x = v.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
            if v % 2 == 0 {
                a.record(x);
            } else {
                b.record(x);
            }
            whole.record(x);
        }
        a.merge(&b);
        assert_eq!(a.total(), whole.total());
        assert_eq!(a.mean(), whole.mean());
        for q in [0.25, 0.5, 0.99, 0.999] {
            assert_eq!(a.percentile(q), whole.percentile(q));
        }
    }

    #[test]
    fn latency_hist_reset_and_extremes() {
        let mut h = LatencyHist::new();
        assert_eq!(h.percentile(0.5), 0);
        h.record(u64::MAX);
        assert_eq!(h.percentile(1.0), u64::MAX);
        h.reset();
        assert_eq!(h.total(), 0);
        assert_eq!(h.percentile(0.999), 0);
        // Bucket boundaries round-trip: the upper bound of the bucket a
        // value lands in is never below the value.
        for v in [31, 32, 33, 63, 64, 65, 1 << 20, (1 << 40) + 12345] {
            h.record(v);
            assert!(h.percentile(1.0) >= v);
            h.reset();
        }
    }

    #[test]
    fn utilization_fraction() {
        let mut u = Utilization::new();
        for i in 0..10 {
            u.observe(i % 4 == 0);
        }
        assert!((u.fraction() - 0.3).abs() < 1e-12);
        assert_eq!(u.busy_cycles(), 3);
        assert_eq!(u.observed_cycles(), 10);
    }

    #[test]
    fn geometric_mean_basics() {
        assert_eq!(geometric_mean(&[]), 0.0);
        assert!((geometric_mean(&[3.0]) - 3.0).abs() < 1e-12);
        assert!((geometric_mean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn geometric_mean_edge_cases() {
        // The contract ResultFrame's normalization helpers rely on:
        // empty slice → exactly 0 (not NaN).
        let empty = geometric_mean(&[]);
        assert_eq!(empty, 0.0);
        assert!(!empty.is_nan());
        // Single element → itself, bit-for-bit (ln/exp round-trip must
        // not wobble the figures' single-workload GMeans).
        for v in [1.0, 0.734, 42.5] {
            assert!((geometric_mean(&[v]) - v).abs() < 1e-12, "{v}");
        }
        // A zero element: clamped to 1e-300, so the mean collapses
        // toward zero but stays finite and non-negative — never NaN,
        // never negative, and strictly below every honest value.
        let g = geometric_mean(&[0.0, 2.0]);
        assert!(g.is_finite() && g >= 0.0, "{g}");
        assert!(g < 1e-100, "{g}");
        // Same guarantee for a negative outlier (clamped identically).
        let n = geometric_mean(&[-1.0, 2.0]);
        assert!(n.is_finite() && n >= 0.0, "{n}");
    }
}
