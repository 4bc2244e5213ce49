//! `openloop`: the `loadlat` grid at its golden window — open-loop Data
//! Serving with 32-instruction requests over six arrival intervals on
//! the three evaluated organizations, tail recording on. Light rungs
//! leave the fabric idle while cores tick single-instruction fillers and
//! check arrivals every cycle; heavy rungs converge to full load.

use crate::check::{
    digest, golden, golden_window, loadlat_csv, loadlat_spec, same_bytes, GOLDEN_SEED,
    LOADLAT_INTERVALS,
};
use crate::exec::{run_pass, setup_secs, timed_rounds, Round};
use crate::report::Record;
use nocout::prelude::*;
use std::time::Instant;

/// The grid's specs, in campaign order (as the `loadlat` experiment
/// declares them).
pub fn specs(seed: u64) -> Vec<RunSpec> {
    Campaign::new()
        .window(golden_window())
        .seeds([seed])
        .orgs(Organization::EVALUATED)
        .workloads(LOADLAT_INTERVALS.map(loadlat_spec))
        .specs()
}

/// Runs grid passes for `seconds`. Each pass's table must be
/// byte-identical to `tests/golden/loadlat_fast.csv` on the golden seed,
/// and every pass's points bit-identical to the first pass's. Returns the
/// rounds and the memory high-water mark after `exec::RSS_ROUNDS` of them.
///
/// # Errors
///
/// The golden file cannot be read.
pub fn rounds(seed: u64, seconds: f64, rec: &mut Record) -> Result<(Vec<Round>, f64), String> {
    let specs = specs(seed);
    let want = if seed == GOLDEN_SEED {
        Some(golden("loadlat_fast.csv")?)
    } else {
        None
    };
    let mut first: Vec<u64> = Vec::new();
    timed_rounds(seconds, 2, |i| {
        let t = Instant::now();
        let points = run_pass(&specs);
        let wall_s = t.elapsed().as_secs_f64();
        let mut bad = vec![false; points.len()];
        let table = loadlat_csv(&points).and_then(|csv| match &want {
            Some(want) => same_bytes("loadlat table", want, &csv),
            None => Ok(()),
        });
        if let Err(e) = table {
            bad.fill(true);
            rec.notes.push(format!("FAILED: {e}"));
        }
        let digests: Vec<u64> = points.iter().map(|p| digest(&p.metrics)).collect();
        if i == 0 {
            first = digests.clone();
        }
        for (k, (a, b)) in digests.iter().zip(&first).enumerate() {
            if a != b {
                bad[k] = true;
                rec.notes.push(format!(
                    "FAILED: openloop pass {i} point {k} differs from pass 0"
                ));
            }
        }
        rec.tally(&bad);
        Ok(Round {
            setup_s: setup_secs(&points),
            points,
            wall_s,
        })
    })
}
