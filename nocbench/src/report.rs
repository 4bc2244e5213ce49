//! The metric catalogue and the result record every run prints.
//!
//! Every name the benchmark prints is declared here once, with its unit
//! and better direction; `BENCHMARK.json` lists the same names (a unit
//! test holds the two together).

use std::fmt::Write as _;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, memory).
    Lower,
    /// Larger is better (rates, hit ratios).
    Higher,
}

/// One printed metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Printed name (`[A-Za-z0-9_.-]+`).
    pub name: &'static str,
    /// Printed unit.
    pub unit: &'static str,
    /// Improvement direction (`BENCHMARK.json` states it; the tests hold
    /// the two together).
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: Better,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better }
}

use Better::{Higher, Lower};

/// Metrics of the untraced run (`--trace 0`), printed on every workload.
pub const END_TO_END: &[MetricDef] = &[
    m("sim_cycles_per_s", "1/s", Higher),
    m("sim_cycles_per_s.mesh", "1/s", Higher),
    m("sim_cycles_per_s.fbfly", "1/s", Higher),
    m("sim_cycles_per_s.nocout", "1/s", Higher),
    m("wall_s", "s", Lower),
    m("setup_s", "s", Lower),
    m("peak_rss_mib", "MiB", Lower),
];

/// Metrics of the traced run (`--trace 1`), printed on every workload.
pub const PER_LAYER: &[MetricDef] = &[
    m("chip.new_ms", "ms", Lower),
    m("chip.run_for_ns_per_cycle.mesh", "ns", Lower),
    m("chip.run_for_ns_per_cycle.fbfly", "ns", Lower),
    m("chip.run_for_ns_per_cycle.nocout", "ns", Lower),
    m("chip.run_for_ns_per_cycle.ideal", "ns", Lower),
    m("chip.unattributed_frac.mesh", "ratio", Lower),
    m("chip.unattributed_frac.fbfly", "ratio", Lower),
    m("chip.unattributed_frac.nocout", "ratio", Lower),
    m("chip.unattributed_frac.ideal", "ratio", Lower),
    m("cpu.tick_ns", "ns", Lower),
    m("cpu.instructions", "count", Higher),
    m("cpu.fetch_stall_fraction", "ratio", Lower),
    m("workloads.gen_ns_per_instr", "ns", Lower),
    m("workloads.openloop_ns_per_cycle", "ns", Lower),
    m("workloads.trace_ns_per_instr", "ns", Lower),
    m("workloads.requests", "count", Higher),
    m("memsys.llc_ns_per_access", "ns", Lower),
    m("memsys.mem_ns_per_read", "ns", Lower),
    m("memsys.llc_accesses", "count", Higher),
    m("memsys.llc_hit_ratio", "ratio", Higher),
    m("memsys.mem_reads", "count", Lower),
    m("noc.tick_ns.mesh", "ns", Lower),
    m("noc.tick_ns.fbfly", "ns", Lower),
    m("noc.tick_ns.nocout", "ns", Lower),
    m("noc.ns_per_hop.mesh", "ns", Lower),
    m("noc.ns_per_hop.fbfly", "ns", Lower),
    m("noc.ns_per_hop.nocout", "ns", Lower),
    m("noc.idle_tick_ns.mesh", "ns", Lower),
    m("noc.idle_tick_ns.fbfly", "ns", Lower),
    m("noc.idle_tick_ns.nocout", "ns", Lower),
    m("noc.packets", "count", Higher),
    m("noc.xbar_traversals", "count", Lower),
    m("sim.hist_record_ns", "ns", Lower),
    m("sim.calib_ns", "ns", Lower),
    m("runner.point_ms.p50", "ms", Lower),
    m("runner.point_ms.tail", "ms", Lower),
    m("runner.point_ms.tail_pct", "%", Higher),
    m("runner.point_ms.samples", "count", Higher),
    m("cache.get_us", "us", Lower),
    m("cache.put_us", "us", Lower),
    m("cache.hits", "count", Higher),
    m("cache.misses", "count", Lower),
    m("distribute.overhead_s", "s", Lower),
    m("distribute.wire_encode_us", "us", Lower),
    m("distribute.wire_decode_us", "us", Lower),
    m("distribute.journal_append_us", "us", Lower),
    m("distribute.store_commit_ms", "ms", Lower),
    m("distribute.dispatches", "count", Lower),
    m("distribute.retries", "count", Lower),
    m("distribute.trace_ships", "count", Lower),
];

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Record {
    /// Operations attempted (simulated points, cache round trips).
    pub attempted: u64,
    /// Operations that returned an error or a simulated output that
    /// differs from its reference.
    pub failed: u64,
    /// Measured values by name.
    pub values: Vec<(String, f64)>,
    /// Human-readable lines printed above the metrics.
    pub notes: Vec<String>,
}

impl Record {
    /// Books `n` operations of which `failed` failed.
    pub fn ops(&mut self, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed;
    }

    /// Books one operation per entry of `bad`, failed where it is true.
    pub fn tally(&mut self, bad: &[bool]) {
        self.ops(bad.len() as u64, bad.iter().filter(|b| **b).count() as u64);
    }

    /// Books one check over `n` operations: all of them fail when `ok` is
    /// false, and `what` is noted.
    pub fn check(&mut self, n: u64, ok: bool, what: &str) {
        self.ops(n, if ok { 0 } else { n });
        if !ok {
            self.notes.push(format!("FAILED: {what}"));
        }
    }

    /// Sets a metric value.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.values.push((name.into(), value));
    }

    /// Renders the human-readable lines and the final JSON line for the
    /// metrics in `defs`.
    ///
    /// # Panics
    ///
    /// Panics when a metric of `defs` was never set, or a set name is not
    /// in `defs` — both are bugs in this benchmark.
    pub fn render(&self, defs: &[MetricDef]) -> String {
        for (name, _) in &self.values {
            assert!(
                defs.iter().any(|d| d.name == name),
                "metric {name} is not declared for this run"
            );
        }
        let mut out = String::new();
        for note in &self.notes {
            let _ = writeln!(out, "{note}");
        }
        let error_rate = self.failed as f64 / self.attempted.max(1) as f64;
        let _ = writeln!(
            out,
            "error_rate {error_rate} ({} failed of {} attempted)",
            self.failed, self.attempted
        );
        let mut json = String::new();
        for (i, d) in defs.iter().enumerate() {
            let value = self
                .values
                .iter()
                .find(|(n, _)| n == d.name)
                .unwrap_or_else(|| panic!("metric {} was not measured", d.name))
                .1;
            let _ = writeln!(out, "  {:<36} {:>16} {}", d.name, fmt_num(value), d.unit);
            if i > 0 {
                json.push_str(", ");
            }
            let _ = write!(
                json,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                d.name,
                fmt_num(value),
                d.unit
            );
        }
        let _ = writeln!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed
        );
        out
    }
}

/// A JSON number with every digit Rust's shortest round-trip formatting
/// gives (never `NaN` or infinite: those print as 0 and are bugs).
fn fmt_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether `name` is a well-formed metric name.
    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
            && name.as_bytes()[0].is_ascii_alphanumeric()
    }

    fn benchmark_json() -> String {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root")
    }

    #[test]
    fn every_name_is_well_formed_and_unique() {
        let all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
        for name in &all {
            assert!(valid_name(name), "{name} is not a valid metric name");
        }
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "a metric name is declared twice");
    }

    #[test]
    fn every_printed_name_is_listed_in_benchmark_json() {
        let json = benchmark_json();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            let better = match d.better {
                Better::Lower => "lower",
                Better::Higher => "higher",
            };
            let entry = format!(
                "\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\"",
                d.name, d.unit
            );
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        // No stale names either: every listed metric is one we print.
        let listed = json.matches("\"better\"").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn rendered_json_names_every_metric_once() {
        let mut r = Record::default();
        r.ops(3, 0);
        for d in END_TO_END {
            r.set(d.name, 1.5);
        }
        let out = r.render(END_TO_END);
        let last = out.lines().last().expect("a final line");
        assert!(last.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        for d in END_TO_END {
            assert_eq!(last.matches(&format!("\"{}\":", d.name)).count(), 1);
        }
    }

    #[test]
    fn a_failed_operation_makes_the_run_incorrect() {
        let mut r = Record::default();
        r.check(18, false, "perturbed");
        r.set("wall_s", 1.0);
        let out = r.render(&END_TO_END[4..5]);
        let last = out.lines().last().expect("a final line");
        assert!(last.starts_with("{\"correct\": false, \"attempted\": 18, \"failed\": 18"));
    }
}
