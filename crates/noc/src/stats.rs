//! Network-level activity statistics.
//!
//! Everything the experiment harness and the energy model need: packet
//! latencies per class, flit activity (buffer reads/writes, crossbar
//! traversals, link millimetres) and queue pressure.

use crate::types::{MessageClass, CLASS_COUNT};
use nocout_sim::stats::{Counter, LatencyHist, RunningStats};

/// Aggregated statistics for one network over the measurement window.
#[derive(Debug, Default)]
pub struct NetStats {
    /// Packets accepted into injection queues.
    pub packets_injected: Counter,
    /// Packets fully delivered (tail ejected).
    pub packets_delivered: Counter,
    /// Flits delivered to terminals.
    pub flits_delivered: Counter,
    /// End-to-end packet latency (injection-queue entry to tail ejection).
    pub latency: RunningStats,
    /// Latency split per message class.
    pub per_class_latency: [RunningStats; CLASS_COUNT],
    /// Latency distribution per message class (log-linear buckets,
    /// tight enough for p99/p999).
    pub tail_hists: [LatencyHist; CLASS_COUNT],
    /// Total flit link traversals (router-to-router and ejection links).
    pub flit_hops: Counter,
    /// Total link distance travelled by flits, in flit·mm (drives link
    /// energy).
    pub flit_mm: f64,
    /// Flit buffer writes (arrival into any input VC).
    pub buffer_writes: Counter,
    /// Flit buffer reads (departure from any input VC).
    pub buffer_reads: Counter,
    /// Crossbar/mux traversals (any flit leaving through an output port).
    pub xbar_traversals: Counter,
    /// Maximum injection-queue depth observed at any terminal.
    pub peak_inject_queue: u64,
}

impl NetStats {
    /// Creates zeroed statistics.
    pub fn new() -> Self {
        NetStats::default()
    }

    /// Records a completed delivery.
    pub(crate) fn record_delivery(&mut self, class: MessageClass, latency: u64, flits: u16) {
        self.packets_delivered.incr();
        self.flits_delivered.add(flits as u64);
        self.latency.record(latency as f64);
        self.per_class_latency[class.vc()].record(latency as f64);
        self.tail_hists[class.vc()].record(latency);
    }

    /// The latency distribution for one message class.
    pub fn class_tail(&self, class: MessageClass) -> &LatencyHist {
        &self.tail_hists[class.vc()]
    }

    /// The end-to-end latency distribution over every message class.
    pub fn latency_hist(&self) -> LatencyHist {
        let mut all = LatencyHist::new();
        for h in &self.tail_hists {
            all.merge(h);
        }
        all
    }

    /// Mean end-to-end packet latency in cycles.
    pub fn mean_latency(&self) -> f64 {
        self.latency.mean()
    }

    /// Mean latency for one message class.
    pub fn mean_class_latency(&self, class: MessageClass) -> f64 {
        self.per_class_latency[class.vc()].mean()
    }

    /// Resets all statistics (used at the warmup/measurement boundary).
    pub fn reset(&mut self) {
        *self = NetStats::new();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivery_recording() {
        let mut s = NetStats::new();
        s.record_delivery(MessageClass::Request, 10, 1);
        s.record_delivery(MessageClass::Response, 30, 5);
        assert_eq!(s.packets_delivered.value(), 2);
        assert_eq!(s.flits_delivered.value(), 6);
        assert!((s.mean_latency() - 20.0).abs() < 1e-12);
        assert!((s.mean_class_latency(MessageClass::Response) - 30.0).abs() < 1e-12);
        s.reset();
        assert_eq!(s.packets_delivered.value(), 0);
    }
}
