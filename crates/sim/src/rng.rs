//! Deterministic pseudo-random number generation.
//!
//! Every stochastic decision in the simulator (workload address streams,
//! dependency draws, bank selection, ...) flows through [`SimRng`], a
//! xoshiro256\*\* generator with SplitMix64 seeding. Keeping the generator
//! in-tree (rather than relying on `rand`'s default engines) pins the random
//! streams across toolchain and dependency upgrades, which is what makes the
//! experiment harness exactly reproducible from a seed.

/// A deterministic xoshiro256\*\* pseudo-random number generator.
///
/// The generator is seeded through SplitMix64 so that any `u64` (including
/// zero) produces a well-mixed initial state. It can be [split](SimRng::split)
/// into independent child generators, which the system driver uses to hand
/// each core its own stream without inter-component coupling.
///
/// # Examples
///
/// ```
/// use nocout_sim::rng::SimRng;
///
/// let mut a = SimRng::new(7);
/// let mut b = SimRng::new(7);
/// assert_eq!(a.next_u64(), b.next_u64()); // same seed, same stream
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimRng {
    state: [u64; 4],
}

#[inline]
fn splitmix64(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Creates a generator from a seed. Any seed value, including zero,
    /// yields a usable, well-distributed stream.
    pub fn new(seed: u64) -> Self {
        let mut s = seed;
        SimRng {
            state: [
                splitmix64(&mut s),
                splitmix64(&mut s),
                splitmix64(&mut s),
                splitmix64(&mut s),
            ],
        }
    }

    /// Derives an independent child generator. The child stream is decoupled
    /// from the parent's future output: each call consumes one value from
    /// the parent and seeds the child through SplitMix64 with distinct
    /// mixing.
    pub fn split(&mut self) -> SimRng {
        let seed = self.next_u64() ^ 0xA5A5_A5A5_DEAD_BEEF;
        SimRng::new(seed)
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[1]
            .wrapping_mul(5)
            .rotate_left(7)
            .wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform value in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    #[inline]
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Lemire's multiply-shift rejection-free variant is unnecessary for
        // simulation purposes; 128-bit multiply-high gives a negligible and
        // uniform-enough bias for bounds far below 2^64.
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw: returns `true` with probability `p` (clamped to
    /// `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.next_f64() < p
        }
    }

    /// Geometric draw: number of failures before the first success of a
    /// Bernoulli(p) process. Returns 0 when `p >= 1`. Used for inter-arrival
    /// style sampling in the workload models. A caller drawing repeatedly
    /// with one `p` should build a [`Geometric`] once instead.
    #[inline]
    pub fn geometric(&mut self, p: f64) -> u64 {
        Geometric::new(p).sample(self)
    }

    /// Selects an index in `[0, weights.len())` with probability
    /// proportional to `weights[i]`.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or sums to a non-positive value.
    pub fn weighted_index(&mut self, weights: &[f64]) -> usize {
        assert!(!weights.is_empty(), "weights must be non-empty");
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "weights must sum to a positive value");
        let mut x = self.next_f64() * total;
        for (i, w) in weights.iter().enumerate() {
            if x < *w {
                return i;
            }
            x -= *w;
        }
        weights.len() - 1
    }
}

/// A geometric distribution for a fixed `p`, with the per-draw constant
/// `ln(1 - p)` computed once: draws are bit-identical to
/// [`SimRng::geometric`] with the same `p`, minus one `ln` each.
///
/// # Examples
///
/// ```
/// use nocout_sim::rng::{Geometric, SimRng};
///
/// let (mut a, mut b) = (SimRng::new(3), SimRng::new(3));
/// let g = Geometric::new(0.2);
/// assert_eq!(g.sample(&mut a), b.geometric(0.2));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Geometric {
    /// `ln(1 - p)` with `p` clamped to at least `1e-12`; `None` when
    /// `p >= 1` (every draw is 0 and consumes no randomness).
    ln_q: Option<f64>,
}

impl Geometric {
    /// The distribution of failures before the first success of a
    /// Bernoulli(`p`) process.
    pub fn new(p: f64) -> Self {
        let ln_q = if p >= 1.0 {
            None
        } else {
            Some((1.0 - p.max(1e-12)).ln())
        };
        Geometric { ln_q }
    }

    /// One draw from `rng`.
    #[inline]
    pub fn sample(&self, rng: &mut SimRng) -> u64 {
        match self.ln_q {
            None => 0,
            Some(ln_q) => {
                let u = rng.next_f64().max(f64::MIN_POSITIVE);
                (u.ln() / ln_q).floor() as u64
            }
        }
    }
}

/// A Zipf-distributed sampler over ranks `0..n`.
///
/// Scale-out workloads re-reference a skewed subset of their instruction
/// footprint (hot request-handling paths); the workload models use this
/// sampler to produce that skew. Sampling uses the rejection-inversion
/// method's cheap cousin: a precomputed cumulative table, acceptable because
/// footprints are sampled at cache-line granularity over at most a few
/// hundred thousand ranks and tables are built once per run.
///
/// # Examples
///
/// ```
/// use nocout_sim::rng::{SimRng, Zipf};
///
/// let zipf = Zipf::new(1000, 0.8);
/// let mut rng = SimRng::new(1);
/// let r = zipf.sample(&mut rng);
/// assert!(r < 1000);
/// ```
#[derive(Debug, Clone)]
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    /// Builds a sampler over `n` ranks with exponent `theta` (0 = uniform).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: usize, theta: f64) -> Self {
        assert!(n > 0, "Zipf support must be non-empty");
        let mut cumulative = Vec::with_capacity(n);
        let mut acc = 0.0;
        for rank in 0..n {
            acc += 1.0 / ((rank + 1) as f64).powf(theta);
            cumulative.push(acc);
        }
        let total = acc;
        for c in &mut cumulative {
            *c /= total;
        }
        Zipf { cumulative }
    }

    /// Number of ranks in the support.
    pub fn len(&self) -> usize {
        self.cumulative.len()
    }

    /// Whether the support is empty (never true: construction forbids it).
    pub fn is_empty(&self) -> bool {
        self.cumulative.is_empty()
    }

    /// Draws one rank.
    pub fn sample(&self, rng: &mut SimRng) -> usize {
        let u = rng.next_f64();
        match self
            .cumulative
            .binary_search_by(|c| c.partial_cmp(&u).expect("cumulative is finite"))
        {
            Ok(i) => i,
            Err(i) => i.min(self.cumulative.len() - 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_stream() {
        let mut a = SimRng::new(12345);
        let mut b = SimRng::new(12345);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4, "streams from different seeds should diverge");
    }

    #[test]
    fn split_is_independent() {
        let mut parent = SimRng::new(99);
        let mut child = parent.split();
        let child_vals: Vec<u64> = (0..8).map(|_| child.next_u64()).collect();
        let parent_vals: Vec<u64> = (0..8).map(|_| parent.next_u64()).collect();
        assert_ne!(child_vals, parent_vals);
    }

    #[test]
    fn bounded_values_in_range() {
        let mut rng = SimRng::new(7);
        for _ in 0..10_000 {
            assert!(rng.next_below(17) < 17);
        }
    }

    #[test]
    fn f64_unit_interval() {
        let mut rng = SimRng::new(7);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::new(3);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
    }

    #[test]
    fn chance_rate_close_to_p() {
        let mut rng = SimRng::new(11);
        let n = 100_000;
        let hits = (0..n).filter(|_| rng.chance(0.02)).count();
        let rate = hits as f64 / n as f64;
        assert!((rate - 0.02).abs() < 0.004, "rate was {rate}");
    }

    #[test]
    fn weighted_index_prefers_heavy_weight() {
        let mut rng = SimRng::new(5);
        let w = [0.01, 0.98, 0.01];
        let picks = (0..10_000)
            .filter(|_| rng.weighted_index(&w) == 1)
            .count();
        assert!(picks > 9_000);
    }

    #[test]
    fn geometric_mean_matches() {
        let mut rng = SimRng::new(21);
        let p: f64 = 0.25;
        let n = 50_000;
        let total: u64 = (0..n).map(|_| rng.geometric(p)).sum();
        let mean = total as f64 / n as f64;
        let expect = (1.0 - p) / p;
        assert!((mean - expect).abs() < 0.15, "mean was {mean}, want {expect}");
    }

    #[test]
    fn prebuilt_geometric_matches_per_call_draw() {
        // Hoisting `ln(1 - p)` must not move a single bit of any draw,
        // nor the RNG position (p >= 1 consumes nothing).
        for p in [0.0, 1e-15, 0.03, 0.25, 0.5, 0.999, 1.0, 2.0] {
            let g = Geometric::new(p);
            let (mut a, mut b) = (SimRng::new(5), SimRng::new(5));
            for _ in 0..1_000 {
                assert_eq!(g.sample(&mut a), b.geometric(p), "p = {p}");
            }
            assert_eq!(a, b, "p = {p}: generators diverged");
        }
    }

    #[test]
    fn zipf_in_range_and_skewed() {
        let zipf = Zipf::new(100, 0.99);
        let mut rng = SimRng::new(42);
        let mut counts = vec![0usize; 100];
        for _ in 0..50_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[50] * 5, "rank 0 should be far hotter");
        assert_eq!(counts.iter().sum::<usize>(), 50_000);
    }

    #[test]
    fn zipf_theta_zero_is_uniformish() {
        let zipf = Zipf::new(10, 0.0);
        let mut rng = SimRng::new(4);
        let mut counts = vec![0usize; 10];
        for _ in 0..100_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        for &c in &counts {
            assert!((c as f64 - 10_000.0).abs() < 1_000.0);
        }
    }
}
