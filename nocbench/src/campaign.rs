//! `campaign`: the Figure 7 grid (3 organizations × 6 profiles) at its
//! golden window through `Campaign::run` on a cached `BatchRunner` — a
//! cold pass (all misses), then a warm pass (all hits) — and then, with
//! the replay points of a Web Search trace captured during set-up,
//! through `ShardedDriver` to two local workers with empty trace stores
//! and a journal. Many short points, all six profiles, the 16-core ones
//! included.

use crate::check::{digest, fig7_csv, golden, golden_window, same_bytes, GOLDEN_SEED};
use crate::exec::{run_pass, timed_rounds, Round};
use crate::report::Record;
use nocout::cache::ResultsCache;
use nocout::campaign::{CampaignExecutor, ResultFrame};
use nocout::distribute::{DriverConfig, Endpoint, ShardedDriver};
use nocout::prelude::*;
use nocout::runner::{BatchRunner, PointOutcome};
use std::cell::RefCell;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// The Figure 7 grid at the golden window, on one seed.
pub fn grid(seed: u64) -> Campaign {
    Campaign::new()
        .window(golden_window())
        .seeds([seed])
        .orgs(Organization::EVALUATED)
        .workloads(Workload::ALL)
}

/// The trace's replay points, one per evaluated organization.
pub fn trace_specs(trace: &Arc<nocout_workloads::TraceSet>, seed: u64) -> Vec<RunSpec> {
    Organization::EVALUATED
        .iter()
        .map(|&org| {
            RunSpec::new(ChipConfig::paper(org), WorkloadClass::Trace(trace.clone()))
                .with_window(golden_window())
                .with_seed(seed)
        })
        .collect()
}

/// Organizations whose trace replay must equal the synthetic run: the
/// trace is captured on the mesh, and the flattened butterfly activates
/// the same cores in the same order. NOC-Out activates other cores, so
/// its replay is checked against its own direct run only.
const REPLAY_EQUALS_SYNTHETIC: [Organization; 2] =
    [Organization::Mesh, Organization::FlattenedButterfly];

/// A sharded executor that appends the trace's replay points to the
/// grid's specs and keeps their outcomes aside.
struct WithTraces<'a> {
    driver: &'a ShardedDriver,
    extra: &'a [RunSpec],
    extra_out: RefCell<Vec<PointOutcome>>,
}

impl CampaignExecutor for WithTraces<'_> {
    fn execute(&self, specs: &[RunSpec]) -> Vec<PointOutcome> {
        let mut all = specs.to_vec();
        all.extend_from_slice(self.extra);
        let mut out = self.driver.execute_sharded(&all);
        *self.extra_out.borrow_mut() = out.split_off(specs.len());
        out
    }
}

/// Marks the grid points of `frame` that are missing or differ from
/// their direct run (`direct[k]` is the digest of `specs[k]`).
fn frame_bad(frame: &ResultFrame, specs: &[RunSpec], direct: &[u64], seed: u64) -> Vec<bool> {
    let keyed: Vec<(String, u64)> = frame
        .results()
        .iter()
        .map(|p| {
            let spec = RunSpec::new(p.chip, p.workload.clone())
                .with_window(golden_window())
                .with_seed(seed);
            (spec.cache_key(), digest(&p.metrics))
        })
        .collect();
    specs
        .iter()
        .zip(direct)
        .map(|(s, d)| {
            let key = s.cache_key();
            !keyed.iter().any(|(k, fd)| *k == key && fd == d)
        })
        .collect()
}

/// What the rounds leave besides their timings.
pub struct Outcome {
    /// The timed rounds.
    pub rounds: Vec<Round>,
    /// The memory high-water mark after `exec::RSS_ROUNDS` rounds.
    pub rss_mib: f64,
    /// (hits, misses) of a round's results cache over its cold and warm
    /// passes.
    pub cache_counts: (u64, u64),
    /// The first cold pass's Figure 7 table.
    pub fig7: String,
}

/// Runs campaign rounds for `seconds`, each in a fresh directory under
/// `work` (removed with `work`), checking every pass.
///
/// # Errors
///
/// A set-up failure: the cache, a worker, or the trace capture.
pub fn rounds(
    seed: u64,
    seconds: f64,
    jobs: usize,
    work: &Path,
    rec: &mut Record,
) -> Result<Outcome, String> {
    let want = if seed == GOLDEN_SEED {
        Some(golden("fig7_fast.csv")?)
    } else {
        None
    };
    let grid = grid(seed);
    let grid_specs = grid.specs();
    let n = grid_specs.len();
    let mut first: Vec<u64> = Vec::new();
    let mut cache_counts = (0, 0);
    let mut fig7 = String::new();
    let (rounds, rss_mib) = timed_rounds(seconds, 2, |i| -> Result<Round, String> {
        let dir = work.join(format!("round-{i}"));
        let io = |e: std::io::Error| format!("{}: {e}", dir.display());

        let t = Instant::now();
        let cache = ResultsCache::open(dir.join("cache")).map_err(io)?;
        let workers = crate::worker::start(&dir, 2)?;
        let window = golden_window();
        let trace = capture_synthetic_trace(
            ChipConfig::paper(Organization::Mesh),
            Workload::WebSearch,
            seed,
            &dir.join("trace"),
            trace_capture_len(&window),
        )
        .map_err(io)?;
        let setup_s = t.elapsed().as_secs_f64();
        let traces = trace_specs(&trace, seed);

        let runner = BatchRunner::new(jobs).with_cache(cache);
        let t = Instant::now();
        let cold = grid.run(&runner);
        let cold_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let warm = grid.run(&runner);
        let warm_s = t.elapsed().as_secs_f64();
        let c = runner.cache().expect("the runner was given a cache");
        cache_counts = (c.hits(), c.misses());

        let driver = ShardedDriver::new(
            workers
                .iter()
                .map(|w| Endpoint::Tcp(w.addr.clone()))
                .collect(),
            DriverConfig {
                journal: Some(dir.join("journal")),
                ..DriverConfig::default()
            },
        );
        let exec = WithTraces {
            driver: &driver,
            extra: &traces,
            extra_out: RefCell::new(Vec::new()),
        };
        let t = Instant::now();
        let sharded = grid.run_on(&exec);
        let sharded_s = t.elapsed().as_secs_f64();
        drop(workers);
        let trace_sharded = exec.extra_out.into_inner();

        // The direct pass: the grid and the replays, timed per chip.
        let all: Vec<RunSpec> = grid_specs.iter().chain(&traces).cloned().collect();
        let points = run_pass(&all);
        let direct: Vec<u64> = points.iter().map(|p| digest(&p.metrics)).collect();

        if i == 0 {
            first = direct.clone();
        }
        let mut bad_direct: Vec<bool> = direct.iter().zip(&first).map(|(a, b)| a != b).collect();
        for (k, spec) in traces.iter().enumerate() {
            if REPLAY_EQUALS_SYNTHETIC.contains(&spec.chip.organization) {
                let synth = grid_specs
                    .iter()
                    .position(|s| {
                        s.chip.organization == spec.chip.organization
                            && s.workload == WorkloadClass::from(Workload::WebSearch)
                    })
                    .expect("the grid has every Web Search point");
                if direct[n + k] != direct[synth] {
                    bad_direct[n + k] = true;
                    rec.notes.push(format!(
                        "FAILED: {} trace replay differs from the synthetic run",
                        spec.chip.organization
                    ));
                }
            }
        }
        rec.tally(&bad_direct);

        let cold_csv = fig7_csv(&cold);
        for (name, frame) in [("cold", &cold), ("warm", &warm), ("sharded", &sharded)] {
            let mut bad = frame_bad(frame, &grid_specs, &direct[..n], seed);
            let table = fig7_csv(frame).and_then(|csv| {
                if let Some(want) = &want {
                    same_bytes(&format!("{name} fig7 table"), want, &csv)?;
                }
                same_bytes(
                    &format!("{name} vs cold fig7 table"),
                    cold_csv.as_deref().unwrap_or(""),
                    &csv,
                )
            });
            if let Err(e) = table {
                bad.fill(true);
                rec.notes.push(format!("FAILED: {e}"));
            }
            if bad.iter().any(|b| *b) {
                rec.notes.push(format!(
                    "FAILED: {name} pass of round {i} differs from the direct runs"
                ));
            }
            rec.tally(&bad);
        }
        let bad_traces: Vec<bool> = (0..traces.len())
            .map(|k| {
                !trace_sharded
                    .get(k)
                    .is_some_and(|o| o.as_ref().is_ok_and(|m| digest(m) == direct[n + k]))
            })
            .collect();
        if bad_traces.iter().any(|b| *b) {
            rec.notes.push(format!(
                "FAILED: sharded trace replays of round {i} differ from the direct runs"
            ));
        }
        rec.tally(&bad_traces);
        if i == 0 {
            fig7 = cold_csv.unwrap_or_default();
        }
        // The round directory stays until the run ends: the points'
        // trace specs refer to its trace.
        Ok(Round {
            points,
            wall_s: cold_s + warm_s + sharded_s,
            setup_s,
        })
    })?;
    Ok(Outcome {
        rounds,
        rss_mib,
        cache_counts,
        fig7,
    })
}
