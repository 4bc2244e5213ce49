//! The event-driven chip tick's contract: active-set scheduling,
//! sleeping cores, idle fast-forward and block-based instruction
//! delivery never change results.
//!
//! `ScaleOutChip::tick` visits only LLC tiles and memory channels with
//! pending work, takes provably stalled cores out of the per-cycle core
//! loop until their fill or timed wake (crediting their stall counters
//! in bulk), and feeds every core in instruction *blocks* (one virtual
//! `refill` per 64 instructions); `ScaleOutChip::run_for` jumps over
//! globally idle stretches. All of it must be bit-identical to the
//! dense, full-scan, per-instruction reference (`tick_reference`) across
//! every organization, workload class and seed — the same differential
//! pattern `tests/batch_determinism.rs` applies to the parallel batch
//! engine and `tests/trace_replay.rs` to the trace workload class.

use nocout_repro::prelude::*;
use nocout_repro::substrates::workloads::{OpenLoopSpec, TraceSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

const ALL_ORGS: [Organization; 5] = [
    Organization::Mesh,
    Organization::FlattenedButterfly,
    Organization::NocOut,
    Organization::IdealWire,
    Organization::ZeroLoadMesh,
];

fn assert_metrics_identical(a: &SystemMetrics, b: &SystemMetrics, ctx: &str) {
    assert_eq!(a.active_cores, b.active_cores, "{ctx}: active cores");
    assert_eq!(a.cycles, b.cycles, "{ctx}: cycles");
    assert_eq!(a.instructions, b.instructions, "{ctx}: instructions");
    assert_eq!(
        a.fetch_stall_fraction.to_bits(),
        b.fetch_stall_fraction.to_bits(),
        "{ctx}: fetch stall fraction"
    );
    assert_eq!(a.per_core_ipc.len(), b.per_core_ipc.len(), "{ctx}");
    for (i, (x, y)) in a.per_core_ipc.iter().zip(&b.per_core_ipc).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{ctx}: core {i} ipc");
    }
    assert_eq!(a.llc.accesses, b.llc.accesses, "{ctx}: llc accesses");
    assert_eq!(a.llc.hits, b.llc.hits, "{ctx}: llc hits");
    assert_eq!(a.llc.misses, b.llc.misses, "{ctx}: llc misses");
    assert_eq!(a.llc.snoops_sent, b.llc.snoops_sent, "{ctx}: snoops");
    assert_eq!(
        a.llc.snooping_accesses, b.llc.snooping_accesses,
        "{ctx}: snooping accesses"
    );
    assert_eq!(a.llc.writebacks, b.llc.writebacks, "{ctx}: writebacks");
    assert_eq!(a.network.packets, b.network.packets, "{ctx}: packets");
    assert_eq!(
        a.network.mean_latency.to_bits(),
        b.network.mean_latency.to_bits(),
        "{ctx}: mean latency"
    );
    assert_eq!(a.network.p50_latency, b.network.p50_latency, "{ctx}: p50");
    assert_eq!(a.network.p99_latency, b.network.p99_latency, "{ctx}: p99");
    assert_eq!(
        a.network.buffer_writes, b.network.buffer_writes,
        "{ctx}: buffer writes"
    );
    assert_eq!(
        a.network.xbar_traversals, b.network.xbar_traversals,
        "{ctx}: xbar traversals"
    );
    assert_eq!(a.memory.reads, b.memory.reads, "{ctx}: memory reads");
    assert_eq!(a.memory.writes, b.memory.writes, "{ctx}: memory writes");
}

/// Active-set, block-fed ticking matches the full-scan per-instruction
/// reference, cycle for cycle, on every organization and across
/// workloads and seeds — including intermediate in-flight state, not
/// just final counters.
#[test]
fn active_set_tick_is_bit_identical_to_full_scan() {
    for org in ALL_ORGS {
        for (workload, seed) in [
            (Workload::WebSearch, 1u64),
            (Workload::DataServing, 7),
            (Workload::SatSolver, 13),
            (Workload::MapReduceW, 5),
        ] {
            let cfg = ChipConfig::paper(org);
            let mut fast = ScaleOutChip::new(cfg, workload, seed);
            let mut reference = ScaleOutChip::new(cfg, workload, seed);
            for cycle in 0..4_000u64 {
                fast.tick();
                reference.tick_reference();
                if cycle % 512 == 0 {
                    assert_eq!(
                        fast.inflight_messages(),
                        reference.inflight_messages(),
                        "{org} {workload:?} seed {seed} cycle {cycle}: in-flight msgs"
                    );
                    assert_eq!(
                        fast.inflight_transactions(),
                        reference.inflight_transactions(),
                        "{org} {workload:?} seed {seed} cycle {cycle}: in-flight txns"
                    );
                }
            }
            let ctx = format!("{org} {workload:?} seed {seed}");
            assert_metrics_identical(&fast.metrics(), &reference.metrics(), &ctx);
        }
    }
}

/// Mixing the two tick flavours mid-run is also safe: the active sets
/// stay consistent whichever path maintained them last.
#[test]
fn interleaved_tick_flavours_stay_consistent() {
    let cfg = ChipConfig::paper(Organization::Mesh);
    let mut mixed = ScaleOutChip::new(cfg, Workload::MapReduceC, 3);
    let mut reference = ScaleOutChip::new(cfg, Workload::MapReduceC, 3);
    for cycle in 0..3_000u64 {
        if (cycle / 64) % 2 == 0 {
            mixed.tick();
        } else {
            mixed.tick_reference();
        }
        reference.tick_reference();
    }
    assert_metrics_identical(&mixed.metrics(), &reference.metrics(), "mixed flavours");
}

/// `run_for` (with chip-level idle fast-forward) reproduces per-cycle
/// ticking exactly, including the stall counters it applies in bulk.
#[test]
fn run_for_fast_forward_is_bit_identical() {
    for org in ALL_ORGS {
        let cfg = ChipConfig::paper(org);
        let (warmup, measure) = (2_000u64, 4_000u64);
        let mut jumped = ScaleOutChip::new(cfg, Workload::WebFrontend, 9);
        jumped.run_for(warmup);
        jumped.reset_stats();
        jumped.run_for(measure);

        let mut stepped = ScaleOutChip::new(cfg, Workload::WebFrontend, 9);
        for _ in 0..warmup {
            stepped.tick();
        }
        stepped.reset_stats();
        for _ in 0..measure {
            stepped.tick();
        }

        assert_eq!(jumped.now(), stepped.now(), "{org}: clocks must agree");
        assert_metrics_identical(&jumped.metrics(), &stepped.metrics(), &format!("{org}"));
    }
}

/// Service-level tail recording is purely observational: a run with
/// recording disabled produces bit-identical legacy metrics to one with
/// it enabled (the default). The tail histograms may only ever *read*
/// the simulation — never touch RNG draws, event order, or arbitration
/// state.
#[test]
fn tail_recording_does_not_perturb_simulation() {
    for org in [Organization::Mesh, Organization::NocOut] {
        for (workload, seed) in [(Workload::WebSearch, 1u64), (Workload::DataServing, 7)] {
            let cfg = ChipConfig::paper(org);
            let mut recording = ScaleOutChip::new(cfg, workload, seed);
            let mut silent = ScaleOutChip::new(cfg, workload, seed);
            silent.set_tail_recording(false);
            recording.run_for(2_000);
            silent.run_for(2_000);
            recording.reset_stats();
            silent.reset_stats();
            recording.run_for(6_000);
            silent.run_for(6_000);
            let (rm, sm) = (recording.metrics(), silent.metrics());
            let ctx = format!("{org} {workload:?} seed {seed}");
            assert_metrics_identical(&rm, &sm, &ctx);
            // The recording run actually measured something...
            assert!(rm.block_latency.count > 0, "{ctx}: no blocks recorded");
            assert!(rm.fill_latency.count > 0, "{ctx}: no fills recorded");
            // ...and the silent run recorded nothing in the gated hists.
            assert_eq!(sm.block_latency.count, 0, "{ctx}");
            assert_eq!(sm.fill_latency.count, 0, "{ctx}");
            assert_eq!(sm.llc_miss_latency.count, 0, "{ctx}");
        }
    }
}

/// A chip with few active cores (the paper's common case: a 16-core
/// workload on a 64-tile die) must still drain all traffic through the
/// active sets — nothing gets stranded by the idle fast-path.
#[test]
fn low_occupancy_chip_drains_through_active_sets() {
    for org in [Organization::Mesh, Organization::NocOut] {
        let mut chip = ScaleOutChip::new(ChipConfig::paper(org), Workload::WebSearch, 5);
        assert_eq!(chip.active_cores(), 16, "{org}");
        chip.run_for(20_000);
        let m = chip.metrics();
        assert!(m.instructions > 1_000, "{org}: retired {}", m.instructions);
        assert!(m.memory.reads > 0, "{org}: memory must be reached");
        // In-flight work stays bounded: requests are not being lost by
        // components dropping out of the active sets prematurely.
        assert!(
            chip.inflight_transactions() <= 16 * 10,
            "{org}: {} transactions stranded",
            chip.inflight_transactions()
        );
    }
}

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        TempDir(std::env::temp_dir().join(format!(
            "nocout-chip-event-{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        )))
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Cycles per lockstep step (uneven lengths, so steps end at varied phases
/// of the cores' stalls).
const STEPS: [u64; 6] = [211, 150, 337, 180, 263, 259];

/// Advances `fast` with sleeping cores and `reference` densely through
/// the same cycles, comparing full metrics after every step. Steps
/// alternate between raw `tick()` calls (so a read lands in the middle
/// of sleeps, with credit still pending) and `run_for` (which settles),
/// and the statistics reset falls right after raw ticks, while cores
/// sleep. Returns the fast chip's tick counts over the measured window.
fn lockstep(cfg: ChipConfig, class: WorkloadClass, seed: u64, ctx: &str) -> (u64, u64) {
    const RESET_AFTER_STEP: usize = 2;
    let mut fast = ScaleOutChip::new(cfg, class.clone(), seed);
    let mut reference = ScaleOutChip::new(cfg, class, seed);
    let mut measured = 0;
    for (i, &n) in STEPS.iter().enumerate() {
        if i % 2 == 0 {
            for _ in 0..n {
                fast.tick();
            }
        } else {
            fast.run_for(n);
        }
        for _ in 0..n {
            reference.tick_reference();
        }
        let ctx = format!("{ctx} after step {i}");
        assert_eq!(fast.now(), reference.now(), "{ctx}: clocks");
        assert_eq!(
            fast.inflight_transactions(),
            reference.inflight_transactions(),
            "{ctx}: in-flight txns"
        );
        let (fm, rm) = (fast.metrics(), reference.metrics());
        assert_metrics_identical(&fm, &rm, &ctx);
        assert_eq!(fm.block_latency, rm.block_latency, "{ctx}: block tail");
        assert_eq!(fm.fill_latency, rm.fill_latency, "{ctx}: fill tail");
        assert_eq!(
            fm.request_latency, rm.request_latency,
            "{ctx}: request tail"
        );
        assert_eq!(
            fm.ifetch_fill_wait_cycles, rm.ifetch_fill_wait_cycles,
            "{ctx}"
        );
        if i > RESET_AFTER_STEP {
            measured += n;
        }
        if i == RESET_AFTER_STEP {
            fast.reset_stats();
            reference.reset_stats();
            assert_eq!(fast.core_tick_counts(), Default::default(), "{ctx}");
        }
    }
    // Every active core accounts for every measured cycle exactly once;
    // the reference sleeps through none.
    let counts = fast.core_tick_counts();
    let cores = fast.active_cores() as u64;
    assert_eq!(
        counts.ticked + counts.slept,
        cores * measured,
        "{ctx}: tick accounting"
    );
    let dense = reference.core_tick_counts();
    assert_eq!(
        (dense.ticked, dense.slept),
        (cores * measured, 0),
        "{ctx}: dense accounting"
    );
    (counts.ticked, counts.slept)
}

/// Sleeping cores against the dense reference on all six workloads and
/// five organizations, for each workload class: synthetic, open-loop
/// and captured-trace replay.
#[test]
fn sleeping_cores_match_dense_reference_on_every_workload_class() {
    let seed = 4;
    let window = MeasurementWindow::new(0, STEPS.iter().sum());
    for org in ALL_ORGS {
        let cfg = ChipConfig::paper(org);
        for workload in Workload::ALL {
            let dir = TempDir::new("trace");
            capture_synthetic_trace(cfg, workload, seed, &dir.0, trace_capture_len(&window))
                .expect("capture");
            let classes = [
                ("synthetic", WorkloadClass::from(workload)),
                (
                    "open-loop",
                    WorkloadClass::OpenLoop(OpenLoopSpec {
                        workload,
                        interval: 50,
                        service_instrs: 32,
                    }),
                ),
                (
                    "trace",
                    WorkloadClass::Trace(TraceSet::load(&dir.0).expect("load")),
                ),
            ];
            for (name, class) in classes {
                let ctx = format!("{org} {workload:?} {name}");
                let (ticked, slept) = lockstep(cfg, class, seed, &ctx);
                assert!(ticked > 0 && slept > 0, "{ctx}: cores never slept");
            }
        }
    }
}

/// Full-load Data Serving on the mesh keeps most core-cycles asleep
/// (about 89% when this was written): a change that silently stops
/// cores from sleeping fails here, long before it shows as a slowdown.
#[test]
fn full_load_cores_mostly_sleep() {
    let mut chip = ScaleOutChip::new(
        ChipConfig::paper(Organization::Mesh),
        Workload::DataServing,
        1,
    );
    chip.run_for(2_000);
    chip.reset_stats();
    chip.run_for(20_000);
    let counts = chip.core_tick_counts();
    assert_eq!(counts.ticked + counts.slept, 64 * 20_000);
    let share = counts.slept as f64 / (64 * 20_000) as f64;
    assert!(share >= 0.8, "slept share {share:.3} ({counts:?})");
}
