//! Simulation kernel for the NOC-Out reproduction.
//!
//! This crate provides the substrate shared by every timing model in the
//! workspace:
//!
//! * [`Cycle`] — a strongly-typed cycle count and the [`SimClock`] that
//!   advances it,
//! * [`rng::SimRng`] — a deterministic, splittable pseudo-random number
//!   generator so that every experiment is exactly reproducible from a seed,
//! * [`stats`] — counters, histograms and running statistics used by the
//!   network, memory-system and core models,
//! * [`ring::Ring`] — the fixed-capacity ring buffer behind the uncore
//!   hot-path FIFO queues,
//! * [`config`] — small helpers for experiment configuration,
//! * [`fnv1a`] — the one content hash behind results-cache file names,
//!   trace content hashes, wire frame digests and journal fingerprints.
//!
//! The original paper used the Flexus full-system simulation framework; this
//! crate is the equivalent foundation for our from-scratch cycle-driven
//! models.
//!
//! # Examples
//!
//! ```
//! use nocout_sim::{Cycle, SimClock};
//!
//! let mut clock = SimClock::new();
//! assert_eq!(clock.now(), Cycle(0));
//! clock.advance();
//! assert_eq!(clock.now(), Cycle(1));
//! ```

pub mod config;
pub mod ring;
pub mod rng;
pub mod stats;

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A simulated clock cycle.
///
/// All timing models in the workspace run at the chip clock (2 GHz in the
/// paper's 32nm configuration). Using a newtype keeps cycle arithmetic from
/// being confused with other integer quantities such as flit counts or
/// addresses.
///
/// # Examples
///
/// ```
/// use nocout_sim::Cycle;
///
/// let start = Cycle(10);
/// let end = Cycle(25);
/// assert_eq!(end - start, 15);
/// assert_eq!(start + 5, Cycle(15));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cycle(pub u64);

impl Cycle {
    /// The zero cycle (simulation start).
    pub const ZERO: Cycle = Cycle(0);

    /// A cycle value beyond any realistic simulation length, used as the
    /// "not yet scheduled" sentinel.
    pub const NEVER: Cycle = Cycle(u64::MAX);

    /// Returns the raw cycle count.
    #[inline]
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Saturating subtraction between two cycle stamps, returning the
    /// elapsed number of cycles.
    #[inline]
    pub fn saturating_since(self, earlier: Cycle) -> u64 {
        self.0.saturating_sub(earlier.0)
    }

    /// Converts a cycle count into seconds given a clock frequency in Hz.
    ///
    /// # Examples
    ///
    /// ```
    /// use nocout_sim::Cycle;
    /// let c = Cycle(2_000_000_000);
    /// assert!((c.to_seconds(2.0e9) - 1.0).abs() < 1e-12);
    /// ```
    #[inline]
    pub fn to_seconds(self, frequency_hz: f64) -> f64 {
        self.0 as f64 / frequency_hz
    }
}

impl Add<u64> for Cycle {
    type Output = Cycle;
    #[inline]
    fn add(self, rhs: u64) -> Cycle {
        Cycle(self.0 + rhs)
    }
}

impl AddAssign<u64> for Cycle {
    #[inline]
    fn add_assign(&mut self, rhs: u64) {
        self.0 += rhs;
    }
}

impl Sub<Cycle> for Cycle {
    type Output = u64;
    #[inline]
    fn sub(self, rhs: Cycle) -> u64 {
        self.0 - rhs.0
    }
}

impl fmt::Display for Cycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<u64> for Cycle {
    fn from(v: u64) -> Self {
        Cycle(v)
    }
}

/// The global simulation clock.
///
/// Components never advance the clock themselves; the top-level system
/// driver ticks every component once per cycle and then advances the clock,
/// which keeps the whole chip model synchronous and deterministic.
///
/// # Examples
///
/// ```
/// use nocout_sim::SimClock;
///
/// let mut clock = SimClock::new();
/// for _ in 0..100 {
///     clock.advance();
/// }
/// assert_eq!(clock.now().raw(), 100);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SimClock {
    now: Cycle,
}

impl SimClock {
    /// Creates a clock at cycle zero.
    pub fn new() -> Self {
        SimClock { now: Cycle::ZERO }
    }

    /// The current cycle.
    #[inline]
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Advances the clock by one cycle.
    #[inline]
    pub fn advance(&mut self) {
        self.now.0 += 1;
    }

    /// Advances the clock by `n` cycles.
    #[inline]
    pub fn advance_by(&mut self, n: u64) {
        self.now.0 += n;
    }
}

/// Frequency of the simulated chip in Hz (2 GHz per Table 1 of the paper).
pub const CHIP_FREQUENCY_HZ: f64 = 2.0e9;

/// Duration of one clock cycle in picoseconds at [`CHIP_FREQUENCY_HZ`].
pub const CYCLE_TIME_PS: f64 = 1.0e12 / CHIP_FREQUENCY_HZ;

/// FNV-1a 64 offset basis: the initial state for [`fnv1a`].
pub const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into the FNV-1a 64 hash `state` (start from
/// [`FNV_BASIS`]). Streaming: folding `a` and then `b` gives the hash
/// of their concatenation. Cache file names, trace content hashes,
/// frame digests and journal fingerprints all persist this value, so it
/// must never change.
///
/// # Examples
///
/// ```
/// use nocout_sim::{fnv1a, FNV_BASIS};
///
/// let whole = fnv1a(FNV_BASIS, b"foobar");
/// assert_eq!(fnv1a(fnv1a(FNV_BASIS, b"foo"), b"bar"), whole);
/// ```
#[inline]
pub fn fnv1a(state: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(state, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a(FNV_BASIS, b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a(FNV_BASIS, b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a(FNV_BASIS, b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn cycle_arithmetic() {
        let a = Cycle(5);
        let b = a + 10;
        assert_eq!(b, Cycle(15));
        assert_eq!(b - a, 10);
        let mut c = Cycle(0);
        c += 7;
        assert_eq!(c.raw(), 7);
    }

    #[test]
    fn cycle_saturating_since() {
        assert_eq!(Cycle(5).saturating_since(Cycle(10)), 0);
        assert_eq!(Cycle(10).saturating_since(Cycle(4)), 6);
    }

    #[test]
    fn cycle_ordering_and_sentinel() {
        assert!(Cycle::ZERO < Cycle(1));
        assert!(Cycle(1_000_000) < Cycle::NEVER);
    }

    #[test]
    fn clock_advances() {
        let mut clk = SimClock::new();
        clk.advance();
        clk.advance_by(9);
        assert_eq!(clk.now(), Cycle(10));
    }

    #[test]
    fn cycle_display_and_from() {
        assert_eq!(Cycle::from(42).to_string(), "42");
    }

    #[test]
    fn cycle_seconds_at_two_ghz() {
        let c = Cycle(2);
        let s = c.to_seconds(CHIP_FREQUENCY_HZ);
        assert!((s - 1.0e-9).abs() < 1e-15);
        assert!((CYCLE_TIME_PS - 500.0).abs() < 1e-9);
    }
}
