//! `fullload`: closed-loop Data Serving on all 64 cores, one warmed chip
//! each for the mesh, the flattened butterfly, NOC-Out and IdealWire.
//! The hot path at its heaviest; IdealWire runs the same cores and LLC
//! without routers, the control for fabric changes.

use crate::check::{digest, fullload_reference};
use crate::exec::{org_key, run_pass, setup_secs, timed_rounds, Round, ORG_KEYS};
use crate::report::Record;
use nocout::prelude::*;
use std::convert::Infallible;
use std::time::Instant;

/// Warm-up then measurement, per chip.
pub fn window() -> MeasurementWindow {
    MeasurementWindow::new(2_000, 20_000)
}

/// The four chips of a round.
pub fn specs(seed: u64) -> Vec<RunSpec> {
    ORG_KEYS
        .iter()
        .map(|&(org, _)| {
            RunSpec::new(ChipConfig::paper(org), Workload::DataServing)
                .with_window(window())
                .with_seed(seed)
        })
        .collect()
}

/// Checks one chip's digest against the recorded digest of its seed,
/// or, for a seed without one, against `first` (the first round's).
fn verdict(seed: u64, key: &str, got: u64, first: u64) -> Result<(), String> {
    let (want, source) = match fullload_reference(seed, key) {
        Some(recorded) => (recorded, "recorded digest"),
        None => (first, "first round"),
    };
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "fullload {key} seed {seed}: digest {got:016x} != {source} {want:016x}"
        ))
    }
}

/// Runs rounds for `seconds`, checking every chip's metrics with
/// [`verdict`]. Returns the rounds and the memory high-water mark after
/// `exec::RSS_ROUNDS` of them.
pub fn rounds(seed: u64, seconds: f64, rec: &mut Record) -> (Vec<Round>, f64) {
    let specs = specs(seed);
    let mut first: Vec<u64> = Vec::new();
    let Ok(out) = timed_rounds::<Infallible>(seconds, 2, |i| {
        let t = Instant::now();
        let points = run_pass(&specs);
        let wall_s = t.elapsed().as_secs_f64();
        let digests: Vec<u64> = points.iter().map(|p| digest(&p.metrics)).collect();
        if i == 0 {
            first = digests.clone();
        }
        for (k, p) in points.iter().enumerate() {
            let v = verdict(
                seed,
                org_key(p.spec.chip.organization),
                digests[k],
                first[k],
            );
            rec.check(1, v.is_ok(), &v.err().unwrap_or_default());
        }
        Ok(Round {
            setup_s: setup_secs(&points),
            points,
            wall_s,
        })
    });
    out
}

/// Prints `seed org digest` lines for seeds `from..=to` (the reference
/// table under `reference/`).
pub fn record_digests(from: u64, to: u64) {
    for seed in from..=to {
        for p in run_pass(&specs(seed)) {
            println!(
                "{seed} {} {:016x}",
                org_key(p.spec.chip.organization),
                digest(&p.metrics)
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_perturbed_digest_fails_its_check() {
        let recorded = fullload_reference(1, "mesh").expect("seed 1 is recorded");
        assert!(verdict(1, "mesh", recorded, 0).is_ok());
        // The recorded digest is the reference even when the first round
        // agrees with the perturbed one.
        assert!(verdict(1, "mesh", recorded ^ 1, recorded ^ 1).is_err());
        // Without a recorded digest the first round is the reference.
        assert!(verdict(1 << 40, "mesh", 5, 5).is_ok());
        assert!(verdict(1 << 40, "mesh", 5, 6).is_err());
    }
}
