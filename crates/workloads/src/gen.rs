//! The per-core instruction-stream generator.

use crate::profile::WorkloadProfile;
use nocout_cpu::source::{FetchedInstr, InstructionSource, Op};
use nocout_mem::addr::{Addr, LINE_BYTES};
use nocout_sim::rng::{Geometric, SimRng, Zipf};

/// Base of the shared instruction region.
pub const INSTR_BASE: u64 = 0x0100_0000_0000;
/// Base of the small shared read-write region.
pub const SHARED_RW_BASE: u64 = 0x0200_0000_0000;
/// Base of the modest LLC-resident data region (shared read-mostly).
pub const LLC_DATA_BASE: u64 = 0x0300_0000_0000;
/// Base of the per-core private data regions (strided by core).
pub const PRIVATE_BASE: u64 = 0x1000_0000_0000;

/// A per-core synthetic instruction stream implementing
/// [`InstructionSource`].
///
/// All cores running the same workload share the instruction region, the
/// shared read-write region and the LLC-resident region; private data is
/// disjoint per core. The stream is fully determined by `(profile, core,
/// seed)`.
///
/// # Examples
///
/// ```
/// use nocout_cpu::source::InstructionSource;
/// use nocout_workloads::{Workload, WorkloadGen};
///
/// let mut gen = WorkloadGen::new(Workload::WebSearch.profile(), 0, 42);
/// let i = gen.next_instr();
/// assert!(i.fetch_line.0 >= nocout_workloads::gen::INSTR_BASE);
/// ```
#[derive(Debug)]
pub struct WorkloadGen {
    profile: WorkloadProfile,
    core: u16,
    rng: SimRng,
    hot_zipf: Zipf,
    /// Fetch-line run length minus one, with the profile's mean run
    /// length (built once: its `ln` is constant per stream).
    run_extra: Geometric,
    current_line: u64,
    remaining_in_run: u32,
    /// Cumulative op-mix thresholds: one uniform draw against this table
    /// classifies an instruction as memory op / long ALU / short ALU,
    /// replacing the per-field Bernoulli draws of the original generator.
    mix_mem: f64,
    mix_alu_long: f64,
}

impl WorkloadGen {
    /// Creates the stream for `core` with the given seed. Different cores
    /// should use different `(core, seed)` pairs; the same pair reproduces
    /// the same stream exactly.
    pub fn new(profile: WorkloadProfile, core: u16, seed: u64) -> Self {
        assert!(
            profile.instr_hot_lines < profile.instr_footprint_lines,
            "hot set must be a subset of the footprint"
        );
        let mut rng = SimRng::new(seed ^ ((core as u64) << 32) ^ 0x9E37_79B9);
        let hot_zipf = Zipf::new(profile.instr_hot_lines, profile.instr_zipf_theta);
        let current_line = hot_zipf.sample(&mut rng) as u64;
        // Cumulative op-mix table: P(mem), then P(long ALU) carved out of
        // the non-memory remainder, so the marginal op distribution
        // matches the profile's per-field fractions exactly.
        let mix_mem = profile.mem_op_fraction;
        let mix_alu_long = mix_mem + (1.0 - mix_mem) * profile.alu_long_fraction;
        // Geometric run length with the configured mean (≥ 1).
        let cont = 1.0 - 1.0 / profile.mean_run_length.max(1.0);
        WorkloadGen {
            profile,
            core,
            rng,
            hot_zipf,
            run_extra: Geometric::new(1.0 - cont),
            current_line,
            remaining_in_run: 1,
            mix_mem,
            mix_alu_long,
        }
    }

    /// The instruction lines a warmed L1-I would hold (the hot set).
    pub fn hot_instr_lines(&self) -> impl Iterator<Item = Addr> + '_ {
        (0..self.profile.instr_hot_lines as u64)
            .map(|i| Addr(INSTR_BASE + i * LINE_BYTES))
    }

    /// The data lines a warmed L1-D would hold (the core's local set).
    pub fn local_data_lines(&self) -> impl Iterator<Item = Addr> + '_ {
        let base = PRIVATE_BASE + ((self.core as u64) << 40);
        (0..self.profile.local_data_lines as u64).map(move |i| Addr(base + i * LINE_BYTES))
    }

    /// The profile driving this stream.
    pub fn profile(&self) -> &WorkloadProfile {
        &self.profile
    }

    fn data_address(&mut self) -> (Addr, bool) {
        // Returns (address, in_shared_rw_region). Region probabilities:
        // local L1-resident set, shared read-write set, LLC-resident set,
        // then the vast private dataset for the remainder.
        let p = &self.profile;
        let base = PRIVATE_BASE + ((self.core as u64) << 40);
        let r = self.rng.next_f64();
        if r < p.local_data_fraction {
            let line = self.rng.next_below(p.local_data_lines as u64);
            (Addr(base + line * LINE_BYTES), false)
        } else if r < p.local_data_fraction + p.shared_rw_fraction {
            let line = self.rng.next_below(p.shared_rw_lines as u64);
            (Addr(SHARED_RW_BASE + line * LINE_BYTES), true)
        } else if r < p.local_data_fraction + p.shared_rw_fraction + p.llc_resident_data_fraction
        {
            let line = self.rng.next_below(p.llc_resident_lines as u64);
            (Addr(LLC_DATA_BASE + line * LINE_BYTES), false)
        } else {
            // Vast dataset: beyond the local set, no temporal reuse.
            let line = p.local_data_lines as u64
                + self.rng.next_below(p.private_data_lines);
            (Addr(base + line * LINE_BYTES), false)
        }
    }

    /// Generates the next instruction of the stream. Both trait entry
    /// points ([`InstructionSource::next_instr`] and the batched
    /// [`InstructionSource::refill`]) route through this one function, so
    /// the block-dispatch path and the per-instruction oracle consume the
    /// identical sequence by construction.
    #[inline]
    fn gen_one(&mut self) -> FetchedInstr {
        let p = self.profile;
        if self.remaining_in_run == 0 {
            // Hot-set transitions stay L1-I resident; cold-tail jumps reach
            // lines only the LLC holds.
            self.current_line = if self.rng.chance(p.instr_hot_fraction) {
                self.hot_zipf.sample(&mut self.rng) as u64
            } else {
                p.instr_hot_lines as u64
                    + self
                        .rng
                        .next_below((p.instr_footprint_lines - p.instr_hot_lines) as u64)
            };
            self.remaining_in_run = 1 + self.run_extra.sample(&mut self.rng) as u32;
        }
        self.remaining_in_run -= 1;
        let fetch_line = Addr(INSTR_BASE + self.current_line * LINE_BYTES);

        // One draw against the cumulative op-mix table classifies the op;
        // only memory ops pay for further draws (address, store/load,
        // dependence).
        let r = self.rng.next_f64();
        let op = if r < self.mix_mem {
            let (addr, shared) = self.data_address();
            // Shared-region stores are what generate invalidations and
            // forwards; they get at least a healthy store ratio so the
            // ping-pong the directory must handle actually occurs.
            let store_p = if shared {
                p.store_fraction.max(0.25)
            } else {
                p.store_fraction
            };
            let is_store = self.rng.chance(store_p);
            if is_store {
                Op::Store { addr }
            } else {
                Op::Load {
                    addr,
                    dependent: self.rng.chance(p.dependent_load_fraction),
                }
            }
        } else if r < self.mix_alu_long {
            Op::Alu { latency: 3 }
        } else {
            Op::Alu { latency: 1 }
        };
        FetchedInstr { fetch_line, op }
    }
}

// Block delivery: a core crosses the trait object once per
// [`nocout_cpu::source::BLOCK_CAP`] instructions via the trait's default
// `refill`, whose `next_instr` calls dispatch statically once
// monomorphized for this type — no override needed.
impl InstructionSource for WorkloadGen {
    fn next_instr(&mut self) -> FetchedInstr {
        self.gen_one()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::Workload;

    fn collect(gen: &mut WorkloadGen, n: usize) -> Vec<FetchedInstr> {
        (0..n).map(|_| gen.next_instr()).collect()
    }

    #[test]
    fn deterministic_per_seed() {
        let p = Workload::DataServing.profile();
        let mut a = WorkloadGen::new(p, 3, 7);
        let mut b = WorkloadGen::new(p, 3, 7);
        assert_eq!(collect(&mut a, 1000), collect(&mut b, 1000));
    }

    #[test]
    fn refill_matches_per_instruction_stream() {
        // The batched block path must produce exactly the sequence the
        // per-instruction path does — the contract behind the core-level
        // block-dispatch differential tests.
        use nocout_cpu::source::InstrBlock;
        let p = Workload::WebSearch.profile();
        let mut blocked = WorkloadGen::new(p, 2, 11);
        let mut direct = WorkloadGen::new(p, 2, 11);
        let mut block = InstrBlock::new();
        for n in 0..10_000 {
            assert_eq!(block.take(&mut blocked), direct.next_instr(), "instr {n}");
        }
    }

    #[test]
    fn different_cores_different_streams() {
        let p = Workload::DataServing.profile();
        let mut a = WorkloadGen::new(p, 0, 7);
        let mut b = WorkloadGen::new(p, 1, 7);
        assert_ne!(collect(&mut a, 100), collect(&mut b, 100));
    }

    #[test]
    fn instruction_addresses_in_region() {
        let p = Workload::MapReduceW.profile();
        let mut g = WorkloadGen::new(p, 0, 1);
        for i in collect(&mut g, 10_000) {
            let off = i.fetch_line.0 - INSTR_BASE;
            assert!(off < p.instr_footprint_lines as u64 * LINE_BYTES);
            assert_eq!(i.fetch_line.0 % LINE_BYTES, 0);
        }
    }

    #[test]
    fn private_data_is_disjoint_across_cores() {
        let p = Workload::MapReduceC.profile();
        let mut a = WorkloadGen::new(p, 0, 1);
        let mut b = WorkloadGen::new(p, 1, 1);
        let private = |is: Vec<FetchedInstr>| -> Vec<u64> {
            is.iter()
                .filter_map(|i| match i.op {
                    Op::Load { addr, .. } | Op::Store { addr } if addr.0 >= PRIVATE_BASE => {
                        Some(addr.0)
                    }
                    _ => None,
                })
                .collect()
        };
        let pa = private(collect(&mut a, 5_000));
        let pb = private(collect(&mut b, 5_000));
        assert!(!pa.is_empty() && !pb.is_empty());
        for x in &pa {
            assert!(!pb.contains(x), "private regions must not overlap");
        }
    }

    #[test]
    fn mem_op_fraction_close_to_profile() {
        let p = Workload::SatSolver.profile();
        let mut g = WorkloadGen::new(p, 0, 9);
        let n = 50_000;
        let mem = collect(&mut g, n)
            .iter()
            .filter(|i| matches!(i.op, Op::Load { .. } | Op::Store { .. }))
            .count();
        let frac = mem as f64 / n as f64;
        assert!(
            (frac - p.mem_op_fraction).abs() < 0.02,
            "measured {frac}, profile {}",
            p.mem_op_fraction
        );
    }

    #[test]
    fn shared_accesses_are_rare() {
        let p = Workload::DataServing.profile();
        let mut g = WorkloadGen::new(p, 0, 5);
        let instrs = collect(&mut g, 100_000);
        let (mut shared, mut data) = (0usize, 0usize);
        for i in &instrs {
            if let Op::Load { addr, .. } | Op::Store { addr } = i.op {
                data += 1;
                if addr.0 >= SHARED_RW_BASE && addr.0 < LLC_DATA_BASE {
                    shared += 1;
                }
            }
        }
        let frac = shared as f64 / data as f64;
        assert!(
            (frac - p.shared_rw_fraction).abs() < 0.005,
            "measured {frac} vs profile {}",
            p.shared_rw_fraction
        );
    }

    #[test]
    fn run_lengths_have_configured_mean() {
        let p = Workload::WebSearch.profile();
        let mut g = WorkloadGen::new(p, 0, 11);
        let instrs = collect(&mut g, 200_000);
        let mut transitions = 0usize;
        for w in instrs.windows(2) {
            if w[0].fetch_line != w[1].fetch_line {
                transitions += 1;
            }
        }
        let mean_run = instrs.len() as f64 / transitions.max(1) as f64;
        assert!(
            (mean_run - p.mean_run_length).abs() < 1.5,
            "mean run {mean_run}, profile {}",
            p.mean_run_length
        );
    }

    #[test]
    fn instruction_reuse_is_skewed() {
        // The hottest instruction line must be referenced far more often
        // than the median — that's what makes part of the footprint stick
        // in the L1-I.
        let p = Workload::WebSearch.profile();
        let mut g = WorkloadGen::new(p, 0, 3);
        let mut counts = std::collections::HashMap::new();
        for i in collect(&mut g, 100_000) {
            *counts.entry(i.fetch_line.0).or_insert(0usize) += 1;
        }
        let max = counts.values().max().copied().unwrap();
        let mean = 100_000 / counts.len();
        assert!(max > mean * 10, "max {max}, mean {mean}");
    }
}
