//! Correctness references: metric digests, the committed golden CSVs,
//! and the table renderings compared against them.

use crate::exec::PointRun;
use nocout::campaign::{csv_render, ResultFrame};
use nocout::prelude::*;
use nocout_workloads::OpenLoopSpec;
use std::path::{Path, PathBuf};

/// The workload seed the committed goldens were generated with.
pub const GOLDEN_SEED: u64 = 1;

/// The golden measurement window (`NOCOUT_FAST=1` in the experiment
/// binaries): the window of `tests/golden/{fig7,loadlat}_fast.csv`.
pub fn golden_window() -> MeasurementWindow {
    MeasurementWindow::new(4_000, 8_000)
}

/// FNV-1a, 64-bit.
fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A digest of every field of `m` (the `Debug` rendering prints floats
/// with all their digits, so equal digests mean bit-identical metrics).
pub fn digest(m: &SystemMetrics) -> u64 {
    fnv64(format!("{m:?}").as_bytes())
}

/// The repository root: the benchmark package sits one level below it.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package lives inside the repository")
        .to_path_buf()
}

/// Reads a committed golden file under `tests/golden/`.
pub fn golden(name: &str) -> Result<String, String> {
    let path = repo_root().join("tests/golden").join(name);
    std::fs::read_to_string(&path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

/// Whether `got` is byte-identical to `want`; on a mismatch, a note
/// naming the first differing line.
pub fn same_bytes(what: &str, want: &str, got: &str) -> Result<(), String> {
    if want == got {
        return Ok(());
    }
    let line = want
        .lines()
        .zip(got.lines())
        .position(|(a, b)| a != b)
        .unwrap_or_else(|| want.lines().count().min(got.lines().count()));
    Err(format!(
        "{what} differs from its reference at line {}: want {:?}, got {:?}",
        line + 1,
        want.lines().nth(line).unwrap_or(""),
        got.lines().nth(line).unwrap_or("")
    ))
}

/// Arrival intervals of the load-vs-tail grid, lightest load first (the
/// `loadlat` experiment's ladder).
pub const LOADLAT_INTERVALS: [u64; 6] = [1600, 800, 400, 200, 100, 50];

/// The open-loop workload at one rung: Data Serving, 32-instruction
/// requests.
pub fn loadlat_spec(interval: u64) -> OpenLoopSpec {
    OpenLoopSpec {
        workload: Workload::DataServing,
        interval,
        service_instrs: 32,
    }
}

/// Renders the `loadlat` table (the bytes of `out/loadlat.csv`) from the
/// grid's points, in the experiment's row order.
///
/// # Errors
///
/// A missing grid point.
pub fn loadlat_csv(points: &[PointRun]) -> Result<String, String> {
    let mut records = vec![[
        "Organization",
        "IntervalCycles",
        "ReqCount",
        "ReqP50",
        "ReqP99",
        "ReqP999",
        "NetRespP99",
    ]
    .map(String::from)
    .to_vec()];
    for org in Organization::EVALUATED {
        for interval in LOADLAT_INTERVALS {
            let want = WorkloadClass::from(loadlat_spec(interval));
            let p = points
                .iter()
                .find(|p| p.spec.chip.organization == org && p.spec.workload == want)
                .ok_or_else(|| format!("loadlat grid lacks {org} at interval {interval}"))?;
            let t = p.metrics.request_latency;
            records.push(vec![
                org.to_string(),
                interval.to_string(),
                t.count.to_string(),
                t.p50.to_string(),
                t.p99.to_string(),
                t.p999.to_string(),
                p.metrics.network.response_tail.p99.to_string(),
            ]);
        }
    }
    Ok(csv_render(&records))
}

/// Renders the Figure 7 table (the bytes of `out/fig7.csv`) from a frame
/// of the Figure 7 grid.
///
/// # Errors
///
/// A frame with failed points (the table cannot be formed).
pub fn fig7_csv(frame: &ResultFrame) -> Result<String, String> {
    if let Some(f) = frame.failed().first() {
        return Err(format!("fig7 frame has failed points, first: {f}"));
    }
    Ok(csv_render(
        &nocout_experiments::fig7_table(frame).csv_records(),
    ))
}

/// The GMean row of a Figure 7 CSV: (flattened butterfly, NOC-Out).
pub fn fig7_gmeans(csv: &str) -> Option<(f64, f64)> {
    let row = csv.lines().find(|l| l.starts_with("GMean,"))?;
    let cells: Vec<&str> = row.split(',').collect();
    Some((cells.get(2)?.parse().ok()?, cells.get(3)?.parse().ok()?))
}

/// The paper's Figure 7 geometric mean for both NOC-Out and the
/// flattened butterfly.
pub const PAPER_GMEAN: f64 = 1.17;

/// Reference digests of the full-load chips, recorded at the commit that
/// introduced the benchmark: `seed org digest` per line.
const FULLLOAD_DIGESTS: &str = include_str!("../reference/fullload_digests.txt");

/// The recorded digest of the full-load chip of `org_key` at `seed`.
pub fn fullload_reference(seed: u64, org_key: &str) -> Option<u64> {
    parse_digests(FULLLOAD_DIGESTS)
        .find(|(s, o, _)| *s == seed && o == org_key)
        .map(|(_, _, d)| d)
}

/// Parses `seed org hexdigest` lines (blank and `#` lines skipped).
fn parse_digests(text: &str) -> impl Iterator<Item = (u64, String, u64)> + '_ {
    text.lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .filter_map(|l| {
            let mut it = l.split_whitespace();
            let seed = it.next()?.parse().ok()?;
            let org = it.next()?.to_string();
            let d = u64::from_str_radix(it.next()?, 16).ok()?;
            Some((seed, org, d))
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_perturbed_csv_byte_is_a_mismatch() {
        let want = golden("fig7_fast.csv").expect("golden present");
        assert!(same_bytes("fig7", &want, &want).is_ok());
        let mut bytes = want.clone().into_bytes();
        let i = bytes
            .iter()
            .rposition(|b| b.is_ascii_digit())
            .expect("a digit");
        bytes[i] = if bytes[i] == b'9' { b'8' } else { bytes[i] + 1 };
        let got = String::from_utf8(bytes).expect("still UTF-8");
        let err = same_bytes("fig7", &want, &got).expect_err("one byte differs");
        assert!(err.contains("line 8"), "{err}");
        // A dropped trailing newline is a difference too.
        assert!(same_bytes("fig7", &want, want.trim_end()).is_err());
    }

    #[test]
    fn a_perturbed_metric_changes_the_digest() {
        let spec = RunSpec::new(
            ChipConfig::with_cores(Organization::Mesh, 16),
            Workload::WebSearch,
        )
        .with_window(MeasurementWindow::new(100, 400));
        let m = nocout::runner::run(&spec);
        let mut n = m.clone();
        assert_eq!(digest(&m), digest(&n));
        n.network.mean_latency = f64::from_bits(n.network.mean_latency.to_bits() ^ 1);
        assert_ne!(digest(&m), digest(&n), "a one-ulp change must show");
        let mut n = m.clone();
        n.instructions += 1;
        assert_ne!(digest(&m), digest(&n));
    }

    #[test]
    fn golden_gmeans_give_the_seed_model_error() {
        let csv = golden("fig7_fast.csv").expect("golden present");
        let (fb, no) = fig7_gmeans(&csv).expect("a GMean row");
        let err = |g: f64| (g - PAPER_GMEAN).abs() / PAPER_GMEAN;
        assert!((err(no) - 0.012).abs() < 0.001, "nocout {}", err(no));
        assert!((err(fb) - 0.014).abs() < 0.001, "fbfly {}", err(fb));
    }

    #[test]
    fn recorded_digests_parse_and_cover_the_golden_seed() {
        for (_, key) in crate::exec::ORG_KEYS {
            assert!(fullload_reference(GOLDEN_SEED, key).is_some(), "{key}");
        }
    }
}
