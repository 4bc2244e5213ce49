//! Timed direct execution of run specs: the steps of
//! `nocout::runner::run` (build, warm up, reset statistics, measure),
//! with the chip build and the two `run_for` calls timed apart.

use nocout::prelude::*;
use std::time::Instant;

/// The organizations the benchmark reports, with their metric-name keys.
pub const ORG_KEYS: [(Organization, &str); 4] = [
    (Organization::Mesh, "mesh"),
    (Organization::FlattenedButterfly, "fbfly"),
    (Organization::NocOut, "nocout"),
    (Organization::IdealWire, "ideal"),
];

/// The metric-name key of an organization.
pub fn org_key(org: Organization) -> &'static str {
    ORG_KEYS
        .iter()
        .find(|(o, _)| *o == org)
        .map(|(_, k)| *k)
        .expect("the benchmark only builds the four keyed organizations")
}

/// One directly executed point.
#[derive(Debug, Clone)]
pub struct PointRun {
    /// The spec that ran.
    pub spec: RunSpec,
    /// Its metrics (bit-identical to `nocout::runner::run`).
    pub metrics: SystemMetrics,
    /// Host seconds in `ScaleOutChip::new` (fabric build, cache warming).
    pub new_s: f64,
    /// Host seconds inside the two `run_for` calls.
    pub run_s: f64,
}

impl PointRun {
    /// Simulated cycles covered by `run_s` (warm-up plus measurement).
    pub fn cycles(&self) -> u64 {
        self.spec.window.total_cycles()
    }
}

/// Executes `spec` as `nocout::runner::run` does, timing the build and
/// the simulation apart.
pub fn run_point(spec: &RunSpec) -> PointRun {
    let t0 = Instant::now();
    let mut chip = ScaleOutChip::new(spec.chip, spec.workload.clone(), spec.seed);
    let t1 = Instant::now();
    chip.run_for(spec.window.warmup_cycles);
    let t2 = Instant::now();
    chip.reset_stats();
    let t3 = Instant::now();
    chip.run_for(spec.window.measure_cycles);
    let t4 = Instant::now();
    PointRun {
        spec: spec.clone(),
        metrics: chip.metrics(),
        new_s: (t1 - t0).as_secs_f64(),
        run_s: (t2 - t1).as_secs_f64() + (t4 - t3).as_secs_f64(),
    }
}

/// Executes every spec in order, one at a time.
pub fn run_pass(specs: &[RunSpec]) -> Vec<PointRun> {
    specs.iter().map(run_point).collect()
}

/// Simulated cycles per host second inside `run_for` over the points of
/// `org` (all points when `None`); `None` when no point matches.
pub fn sim_rate(points: &[PointRun], org: Option<Organization>) -> Option<f64> {
    let (cycles, secs) = points
        .iter()
        .filter(|p| org.is_none_or(|o| p.spec.chip.organization == o))
        .fold((0u64, 0.0f64), |(c, s), p| (c + p.cycles(), s + p.run_s));
    (secs > 0.0).then(|| cycles as f64 / secs)
}

/// Host seconds in `ScaleOutChip::new` over all points.
pub fn setup_secs(points: &[PointRun]) -> f64 {
    points.iter().map(|p| p.new_s).sum()
}

/// The process's resident-memory high-water mark in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One timed repetition of a workload's unit of work.
#[derive(Debug)]
pub struct Round {
    /// The directly executed points (their `run_for` time gives the
    /// simulation rates).
    pub points: Vec<PointRun>,
    /// Host seconds of the round's timed work.
    pub wall_s: f64,
    /// Host seconds of the round's set-up.
    pub setup_s: f64,
}

/// The rounds whose memory high-water mark `peak_rss_mib` reports: the
/// first, which starts in a fresh process. Later rounds inherit what the
/// allocator arenas of the campaign's worker threads kept from earlier
/// ones, which varies with thread timing: over ten seeds the mark after
/// two rounds spread by 0.13 of its median, the first round's by less
/// than 0.1.
pub const RSS_ROUNDS: usize = 1;

/// Runs `round` until `seconds` have passed and at least `min` rounds
/// ran; returns the rounds and the memory high-water mark (MiB) after
/// [`RSS_ROUNDS`] of them.
pub fn timed_rounds<E>(
    seconds: f64,
    min: usize,
    mut round: impl FnMut(usize) -> Result<Round, E>,
) -> Result<(Vec<Round>, f64), E> {
    let start = Instant::now();
    let mut rounds = Vec::new();
    let mut rss = 0.0;
    while rounds.len() < min.max(RSS_ROUNDS) || start.elapsed().as_secs_f64() < seconds {
        rounds.push(round(rounds.len())?);
        if rounds.len() == RSS_ROUNDS {
            rss = peak_rss_mib();
        }
    }
    Ok((rounds, rss))
}

/// Sets the end-to-end metrics: the median over rounds of each round's
/// value, plus the memory high-water mark `rss_mib`.
pub fn end_to_end(rounds: &[Round], rss_mib: f64, rec: &mut crate::report::Record) {
    use crate::stats::median;
    let per_round = |f: &dyn Fn(&Round) -> Option<f64>| -> f64 {
        median(&rounds.iter().filter_map(f).collect::<Vec<_>>())
    };
    rec.set(
        "sim_cycles_per_s",
        per_round(&|r| sim_rate(&r.points, None)),
    );
    for (org, key) in &ORG_KEYS[..3] {
        rec.set(
            format!("sim_cycles_per_s.{key}"),
            per_round(&|r| sim_rate(&r.points, Some(*org))),
        );
    }
    rec.set("wall_s", per_round(&|r| Some(r.wall_s)));
    rec.set("setup_s", per_round(&|r| Some(r.setup_s)));
    rec.set("peak_rss_mib", rss_mib);
    rec.notes.push(format!("rounds {}", rounds.len()));
}
