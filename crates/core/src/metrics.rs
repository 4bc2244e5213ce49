//! System-level metrics collected over a measurement window.

use nocout_sim::stats::LatencyHist;
use nocout_tech::energy::NocActivity;
use serde::{Deserialize, Serialize};

/// The service-level summary of one latency distribution: sample count,
/// mean, and the tail percentiles scale-out serving is judged by.
///
/// Built from a [`LatencyHist`], so the percentiles inherit its 1/32
/// relative error bound (never below the exact quantile, at most 33/32
/// above it). Percentiles do **not** compose across summaries — merge the
/// underlying histograms first, then summarize ([`TailSummary::of`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct TailSummary {
    /// Samples recorded.
    pub count: u64,
    /// Mean latency in cycles.
    pub mean: f64,
    /// Median (cycles).
    pub p50: u64,
    /// 99th percentile (cycles).
    pub p99: u64,
    /// 99.9th percentile (cycles).
    pub p999: u64,
}

impl TailSummary {
    /// Summarizes a histogram.
    pub fn of(h: &LatencyHist) -> Self {
        TailSummary {
            count: h.total(),
            mean: h.mean(),
            p50: h.percentile(0.5),
            p99: h.percentile(0.99),
            p999: h.percentile(0.999),
        }
    }
}

/// Everything the experiment harness reads out of a run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SystemMetrics {
    /// Instructions per cycle of every core (inactive cores report 0).
    pub per_core_ipc: Vec<f64>,
    /// Number of cores that ran the workload.
    pub active_cores: usize,
    /// Measured cycles.
    pub cycles: u64,
    /// Total instructions retired across active cores.
    pub instructions: u64,
    /// Fraction of core cycles stalled on instruction fetch.
    pub fetch_stall_fraction: f64,
    /// LLC behaviour.
    pub llc: LlcSummary,
    /// Interconnect behaviour.
    pub network: NetSummary,
    /// Memory-channel behaviour.
    pub memory: MemSummary,
    /// Total cycles fetch engines spent waiting for L1-I fills (summed
    /// over active cores; the first per-request counter, PR 5).
    pub ifetch_fill_wait_cycles: u64,
    /// Fetch-to-retire latency per 64-instruction block, merged over
    /// active cores.
    pub block_latency: TailSummary,
    /// End-to-end L1 miss-to-fill latency (core request leaving the chip
    /// model to the data packet dispatching back into the core).
    pub fill_latency: TailSummary,
    /// LLC miss-to-fill latency per memory-bound MSHR, merged over tiles.
    pub llc_miss_latency: TailSummary,
    /// End-to-end service latency of open-loop requests (arrival to
    /// completion, including queueing delay); all-zero for closed-loop
    /// workloads.
    pub request_latency: TailSummary,
}

impl SystemMetrics {
    /// The paper's performance metric: application instructions per total
    /// cycle, aggregated over the chip.
    pub fn aggregate_ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// Mean per-active-core IPC (Fig. 1's per-core performance).
    pub fn per_core_performance(&self) -> f64 {
        if self.active_cores == 0 {
            0.0
        } else {
            self.aggregate_ipc() / self.active_cores as f64
        }
    }

    /// Network activity in the shape the energy model consumes.
    pub fn noc_activity(&self) -> NocActivity {
        NocActivity {
            flit_mm: self.network.flit_mm,
            buffer_writes: self.network.buffer_writes,
            buffer_reads: self.network.buffer_reads,
            xbar_traversals: self.network.xbar_traversals,
            cycles: self.cycles,
        }
    }
}

/// Aggregated LLC statistics (summed over tiles).
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct LlcSummary {
    /// Core requests processed.
    pub accesses: u64,
    /// Serviced from the LLC or by owner forwarding.
    pub hits: u64,
    /// Fetched from memory.
    pub misses: u64,
    /// Snoop messages sent.
    pub snoops_sent: u64,
    /// Core requests that triggered at least one snoop (Fig. 4 numerator).
    pub snooping_accesses: u64,
    /// Writebacks received.
    pub writebacks: u64,
}

impl LlcSummary {
    /// Percentage of LLC accesses that triggered a snoop (Fig. 4).
    pub fn snoop_percent(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            100.0 * self.snooping_accesses as f64 / self.accesses as f64
        }
    }

    /// LLC hit ratio.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Interconnect statistics for the window.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct NetSummary {
    /// Packets delivered.
    pub packets: u64,
    /// Mean end-to-end packet latency in cycles.
    pub mean_latency: f64,
    /// Mean request-class latency.
    pub mean_request_latency: f64,
    /// Mean response-class latency.
    pub mean_response_latency: f64,
    /// Median end-to-end packet latency (cycles), rounded up to a power
    /// of two (`LatencyHist::pow2_percentile`).
    pub p50_latency: u64,
    /// 99th-percentile end-to-end packet latency (cycles), rounded up
    /// the same way — where the Fig. 9 serialization spike shows first.
    pub p99_latency: u64,
    /// Flit·mm of link traversal (energy input).
    pub flit_mm: f64,
    /// Buffer writes.
    pub buffer_writes: u64,
    /// Buffer reads.
    pub buffer_reads: u64,
    /// Crossbar traversals.
    pub xbar_traversals: u64,
    /// Request-class packet latency distribution (GetS/GetX).
    pub request_tail: TailSummary,
    /// Snoop-class packet latency distribution.
    pub snoop_tail: TailSummary,
    /// Response-class packet latency distribution (data/acks) — the
    /// class whose serialization latency the paper's Fig. 9 argument
    /// rests on.
    pub response_tail: TailSummary,
}

/// Memory-channel statistics for the window.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct MemSummary {
    /// Line reads serviced.
    pub reads: u64,
    /// Line writes serviced.
    pub writes: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics() -> SystemMetrics {
        SystemMetrics {
            per_core_ipc: vec![0.5; 4],
            active_cores: 4,
            cycles: 1000,
            instructions: 2000,
            fetch_stall_fraction: 0.3,
            llc: LlcSummary {
                accesses: 100,
                hits: 80,
                misses: 20,
                snoops_sent: 2,
                snooping_accesses: 2,
                writebacks: 5,
            },
            network: NetSummary::default(),
            memory: MemSummary::default(),
            ifetch_fill_wait_cycles: 0,
            block_latency: TailSummary::default(),
            fill_latency: TailSummary::default(),
            llc_miss_latency: TailSummary::default(),
            request_latency: TailSummary::default(),
        }
    }

    #[test]
    fn tail_summary_of_histogram() {
        let mut h = LatencyHist::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let t = TailSummary::of(&h);
        assert_eq!(t.count, 1000);
        assert!(t.p50 <= t.p99 && t.p99 <= t.p999);
        assert!(t.p99 >= 990 && t.p999 >= 999);
        assert!((t.mean - 500.5).abs() < 1e-9);
    }

    #[test]
    fn aggregate_ipc() {
        assert!((metrics().aggregate_ipc() - 2.0).abs() < 1e-12);
        assert!((metrics().per_core_performance() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn snoop_percent() {
        assert!((metrics().llc.snoop_percent() - 2.0).abs() < 1e-12);
        assert!((metrics().llc.hit_ratio() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn activity_round_trip() {
        let a = metrics().noc_activity();
        assert_eq!(a.cycles, 1000);
    }
}
