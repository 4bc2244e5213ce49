//! Property-based tests for [`LatencyHist`] against a sorted-`Vec`
//! oracle: the histogram's percentiles must bracket the exact rank
//! statistic within the documented 1/32 relative error bound, and merge
//! must equal recording the concatenated sample stream. The network's
//! power-of-two p50/p99 derived from the per-class histograms must equal
//! what the retired power-of-two histogram reported.
//!
//! This is the structure-level half of the service-level-metrics proof
//! (the chip-level half is the lockstep test in
//! `tests/chip_event_determinism.rs`: recording must not perturb the
//! simulation).

use nocout_repro::substrates::noc::stats::NetStats;
use nocout_repro::substrates::noc::types::CLASS_COUNT;
use nocout_repro::substrates::sim::stats::LatencyHist;
use proptest::prelude::*;

/// The exact q-quantile under the histogram's rank convention:
/// rank = max(ceil(q * n), 1), value = sorted[rank - 1].
fn exact_percentile(sorted: &[u64], q: f64) -> u64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).max(1);
    sorted[rank.min(sorted.len()) - 1]
}

/// A latency sample: mostly small values (dense linear buckets), some
/// mid-range, and occasional full-range values exercising the top
/// log-linear buckets.
fn sample() -> impl Strategy<Value = u64> {
    prop_oneof![0u64..64, 0u64..100_000, 0u64..u64::MAX]
}

const QUANTILES: [f64; 5] = [0.01, 0.5, 0.9, 0.99, 0.999];

/// A sample biased to the power-of-two edges: 0, 1, every `2^k - 1`,
/// `2^k` and `2^k + 1`, and `u64::MAX`, mixed with [`sample`].
fn octave_sample() -> impl Strategy<Value = u64> {
    prop_oneof![
        (0u64..64, 0u64..3).prop_map(|(k, d)| (1u64 << k).wrapping_add(d).wrapping_sub(1)),
        Just(u64::MAX),
        sample(),
    ]
}

/// The retired `Log2Histogram::percentile`, kept as the oracle: bucket
/// `bitlen(x)` (capped at 63), reported as `2^bucket`, 1 for bucket 0.
fn log2_percentile(samples: &[u64], q: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let mut buckets = [0u64; 64];
    for &x in samples {
        buckets[((64 - x.leading_zeros()) as usize).min(63)] += 1;
    }
    let rank = (q.clamp(0.0, 1.0) * samples.len() as f64).ceil() as u64;
    let mut seen = 0;
    for (i, &b) in buckets.iter().enumerate() {
        seen += b;
        if seen >= rank.max(1) {
            return if i == 0 { 1 } else { 1u64 << i };
        }
    }
    u64::MAX
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // Every percentile is never below the exact quantile and at most
    // a factor 33/32 above it (the log-linear bucket width bound).
    #[test]
    fn percentiles_bracket_the_sorted_oracle(
        samples in prop::collection::vec(sample(), 1..500)
    ) {
        let mut h = LatencyHist::new();
        for &v in &samples {
            h.record(v);
        }
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        prop_assert_eq!(h.total(), samples.len() as u64);
        for q in QUANTILES {
            let exact = exact_percentile(&sorted, q);
            let approx = h.percentile(q);
            prop_assert!(approx >= exact, "q={q}: approx {approx} < exact {exact}");
            prop_assert!(
                (approx as u128) * 32 <= (exact as u128) * 33 + 32,
                "q={q}: approx {approx} > exact {exact} * 33/32"
            );
        }
    }

    // Merging two histograms is indistinguishable from recording the
    // concatenated stream: same totals, same mean bits, same buckets
    // (hence same percentiles at every q).
    #[test]
    fn merge_equals_concatenation(
        a in prop::collection::vec(sample(), 0..300),
        b in prop::collection::vec(sample(), 0..300),
    ) {
        let mut ha = LatencyHist::new();
        for &v in &a {
            ha.record(v);
        }
        let mut hb = LatencyHist::new();
        for &v in &b {
            hb.record(v);
        }
        let mut hc = LatencyHist::new();
        for &v in a.iter().chain(&b) {
            hc.record(v);
        }
        ha.merge(&hb);
        prop_assert_eq!(ha.total(), hc.total());
        prop_assert_eq!(ha.mean().to_bits(), hc.mean().to_bits());
        for q in QUANTILES {
            prop_assert_eq!(ha.percentile(q), hc.percentile(q), "q={}", q);
        }
    }

    // The network's `p50_latency`/`p99_latency` come from the merged
    // per-class histograms through `pow2_percentile`; they equal what
    // the retired power-of-two histogram, fed every delivery, reported.
    #[test]
    fn pow2_percentile_matches_the_retired_log2_histogram(
        deliveries in prop::collection::vec((0usize..CLASS_COUNT, octave_sample()), 0..400)
    ) {
        let mut net = NetStats::new();
        for &(class, v) in &deliveries {
            net.tail_hists[class].record(v);
        }
        let values: Vec<u64> = deliveries.iter().map(|&(_, v)| v).collect();
        let all = net.latency_hist();
        for q in [0.0, 0.5, 0.99, 1.0] {
            prop_assert_eq!(all.pow2_percentile(q), log2_percentile(&values, q), "q={}", q);
        }
    }

    // `reset` returns the histogram to the freshly-constructed state:
    // a reset-then-record run matches a fresh histogram exactly.
    #[test]
    fn reset_is_a_fresh_start(
        first in prop::collection::vec(sample(), 0..200),
        second in prop::collection::vec(sample(), 0..200),
    ) {
        let mut reused = LatencyHist::new();
        for &v in &first {
            reused.record(v);
        }
        reused.reset();
        prop_assert_eq!(reused.total(), 0);
        let mut fresh = LatencyHist::new();
        for &v in &second {
            reused.record(v);
            fresh.record(v);
        }
        prop_assert_eq!(reused.total(), fresh.total());
        prop_assert_eq!(reused.mean().to_bits(), fresh.mean().to_bits());
        for q in QUANTILES {
            prop_assert_eq!(reused.percentile(q), fresh.percentile(q), "q={}", q);
        }
    }
}
