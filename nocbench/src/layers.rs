//! Per-layer measurements for the traced run.
//!
//! Each layer is timed around calls into its crate's public functions,
//! outside the chip, with inputs shaped by what the workload's chips
//! measured (fill latency, LLC hit ratio, request rate per organization).
//! Every replay runs [`REPS`] times and reports the median, in ns per
//! event. Counts come straight from the chips' `SystemMetrics`, so they
//! repeat exactly for a fixed seed.

use crate::exec::{sim_rate, PointRun, Round, ORG_KEYS};
use crate::report::Record;
use crate::stats::{median, tail};
use nocout::cache::ResultsCache;
use nocout::distribute::{archive_trace, decode_frame, encode_frame, Journal, Message, TraceStore};
use nocout::distribute::{DriverConfig, Endpoint, ShardedDriver};
use nocout::metrics::TailSummary;
use nocout::prelude::*;
use nocout::runner::{run_outcome, BatchRunner, PointOutcome};
use nocout_cpu::source::{InstrBlock, InstructionSource};
use nocout_cpu::{Core, CoreConfig, FetchedInstr, MissRequest};
use nocout_mem::addr::Addr;
use nocout_mem::llc::{LlcConfig, LlcInput, LlcOutput, LlcTile};
use nocout_mem::mem_ctrl::{MemChannelConfig, MemRequest, MemoryChannel};
use nocout_mem::protocol::{CoreId, RequestKind, TxnId};
use nocout_noc::fabric::Fabric;
use nocout_noc::topology::{fbfly::build_fbfly, mesh::build_mesh, nocout::build_nocout};
use nocout_noc::types::{MessageClass, TerminalId};
use nocout_sim::rng::SimRng;
use nocout_sim::stats::LatencyHist;
use nocout_sim::Cycle;
use nocout_workloads::trace::TraceSet;
use nocout_workloads::{OpenLoopSource, OpenLoopSpec, WorkloadGen};
use std::collections::VecDeque;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Timed repetitions per replay; the median is reported.
pub const REPS: usize = 5;

/// The physical core id replays drive (a centre tile of the 8×8 die, so
/// its private address space matches a real active core's).
const REPLAY_CORE: u16 = 27;

/// An instruction stream a workload's cores consume.
#[derive(Debug, Clone, Copy)]
pub enum SourceKind {
    /// A closed-loop synthetic profile.
    Synthetic(Workload),
    /// An open-loop request stream.
    OpenLoop(OpenLoopSpec),
}

/// Times `op` [`REPS`] times and returns the median of `ns / events`,
/// where `op` returns its event count.
fn per_event_ns(mut op: impl FnMut() -> u64) -> f64 {
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            let events = op();
            t.elapsed().as_nanos() as f64 / events.max(1) as f64
        })
        .collect();
    median(&samples)
}

/// Measured properties of the workload's chips.
struct Shape {
    fill_latency: u64,
    llc_hit_ratio: f64,
    llc_miss_latency: u64,
    per_core_ipc: f64,
}

fn weighted_mean(points: &[PointRun], f: impl Fn(&SystemMetrics) -> TailSummary) -> f64 {
    let (sum, n) = points.iter().fold((0.0, 0u64), |(s, n), p| {
        let t = f(&p.metrics);
        (s + t.mean * t.count as f64, n + t.count)
    });
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

impl Shape {
    fn of(points: &[PointRun]) -> Shape {
        let sum =
            |f: &dyn Fn(&SystemMetrics) -> u64| points.iter().map(|p| f(&p.metrics)).sum::<u64>();
        let accesses = sum(&|m| m.llc.accesses);
        let core_cycles = sum(&|m| m.cycles * m.active_cores as u64);
        Shape {
            fill_latency: weighted_mean(points, |m| m.fill_latency).round().max(1.0) as u64,
            llc_hit_ratio: sum(&|m| m.llc.hits) as f64 / accesses.max(1) as f64,
            llc_miss_latency: weighted_mean(points, |m| m.llc_miss_latency)
                .round()
                .max(1.0) as u64,
            per_core_ipc: sum(&|m| m.instructions) as f64 / core_cycles.max(1) as f64,
        }
    }
}

/// A stream behind one enum, as the chip keeps its cores' sources.
enum Src {
    Gen(WorkloadGen),
    Open(OpenLoopSource),
}

impl Src {
    fn new(kind: SourceKind, seed: u64) -> Src {
        match kind {
            SourceKind::Synthetic(w) => Src::Gen(WorkloadGen::new(w.profile(), REPLAY_CORE, seed)),
            SourceKind::OpenLoop(s) => Src::Open(OpenLoopSource::new(s, REPLAY_CORE, seed)),
        }
    }

    fn gen(&self) -> &WorkloadGen {
        match self {
            Src::Gen(g) => g,
            Src::Open(o) => o.gen(),
        }
    }
}

impl InstructionSource for Src {
    fn next_instr(&mut self) -> FetchedInstr {
        match self {
            Src::Gen(g) => g.next_instr(),
            Src::Open(o) => o.next_instr(),
        }
    }

    fn refill(&mut self, block: &mut InstrBlock) {
        match self {
            Src::Gen(g) => g.refill(block),
            Src::Open(o) => o.refill(block),
        }
    }
}

/// A warmed core on one stream whose misses are filled a fixed latency
/// after they issue.
struct CoreRig {
    core: Core,
    src: Src,
    now: u64,
    reqs: Vec<MissRequest>,
    fills: VecDeque<(u64, Addr, bool)>,
    latency: u64,
}

impl CoreRig {
    fn new(kind: SourceKind, seed: u64, latency: u64) -> CoreRig {
        let src = Src::new(kind, seed);
        let mut core = Core::new(CoreConfig::a15());
        for a in src.gen().hot_instr_lines() {
            core.warm_l1i(a);
        }
        for a in src.gen().local_data_lines() {
            core.warm_l1d(a);
        }
        CoreRig {
            core,
            src,
            now: 0,
            reqs: Vec::new(),
            fills: VecDeque::new(),
            latency,
        }
    }

    fn ticks(&mut self, n: u64) -> u64 {
        for _ in 0..n {
            let now = self.now;
            if let Src::Open(o) = &mut self.src {
                o.advance_to(now);
            }
            self.core.tick(Cycle(now), &mut self.src, &mut self.reqs);
            for r in self.reqs.drain(..) {
                self.fills
                    .push_back((now + self.latency, r.line, r.kind.is_ifetch()));
            }
            while self.fills.front().is_some_and(|f| f.0 <= now) {
                let (_, line, ifetch) = self.fills.pop_front().expect("front checked");
                if ifetch {
                    self.core.fill_ifetch(line, Cycle(now));
                } else {
                    black_box(self.core.fill_data(line, Cycle(now)));
                }
            }
            self.now += 1;
        }
        n
    }
}

/// `cpu.tick_ns`: ns per `Core::tick` over the workload's streams.
fn cpu_tick_ns(sources: &[SourceKind], seed: u64, shape: &Shape) -> f64 {
    const TICKS: u64 = 120_000;
    let per = TICKS / sources.len() as u64;
    let mut rigs: Vec<CoreRig> = sources
        .iter()
        .map(|&k| CoreRig::new(k, seed, shape.fill_latency))
        .collect();
    for r in &mut rigs {
        r.ticks(10_000);
    }
    per_event_ns(|| rigs.iter_mut().map(|r| r.ticks(per)).sum())
}

fn profiles(sources: &[SourceKind]) -> Vec<Workload> {
    let mut ws: Vec<Workload> = sources
        .iter()
        .map(|s| match *s {
            SourceKind::Synthetic(w) => w,
            SourceKind::OpenLoop(o) => o.workload,
        })
        .collect();
    ws.dedup();
    ws
}

/// Instructions one refill delivers.
const BLOCK: u64 = nocout_cpu::source::BLOCK_CAP as u64;

/// `workloads.gen_ns_per_instr`: `WorkloadGen` refill cost.
fn gen_ns_per_instr(sources: &[SourceKind], seed: u64) -> f64 {
    const REFILLS: u64 = 8_000;
    let ws = profiles(sources);
    let per = REFILLS / ws.len() as u64;
    let mut gens: Vec<WorkloadGen> = ws
        .iter()
        .map(|w| WorkloadGen::new(w.profile(), REPLAY_CORE, seed))
        .collect();
    let mut block = InstrBlock::new();
    per_event_ns(|| {
        for g in &mut gens {
            for _ in 0..per {
                g.refill(&mut block);
                black_box(&block);
            }
        }
        per * gens.len() as u64 * BLOCK
    })
}

/// `workloads.openloop_ns_per_cycle`: `OpenLoopSource::advance_to` every
/// cycle plus the refills a core drains at the workload's per-core IPC,
/// over the load ladder's rungs.
fn openloop_ns_per_cycle(seed: u64, shape: &Shape) -> f64 {
    const CYCLES: u64 = 200_000;
    let specs: Vec<OpenLoopSpec> = crate::check::LOADLAT_INTERVALS
        .iter()
        .map(|&i| crate::check::loadlat_spec(i))
        .collect();
    let per = CYCLES / specs.len() as u64;
    let ipc = shape.per_core_ipc.max(0.05);
    let mut srcs: Vec<(OpenLoopSource, InstrBlock, u64, f64)> = specs
        .iter()
        .map(|&s| {
            (
                OpenLoopSource::new(s, REPLAY_CORE, seed),
                InstrBlock::new(),
                0,
                0.0,
            )
        })
        .collect();
    per_event_ns(|| {
        for (src, block, now, owed) in &mut srcs {
            for _ in 0..per {
                src.advance_to(*now);
                *owed += ipc;
                while *owed >= 1.0 {
                    if block.remaining() == 0 {
                        src.refill(block);
                    }
                    black_box(block.pop());
                    *owed -= 1.0;
                }
                *now += 1;
            }
        }
        per * srcs.len() as u64
    })
}

/// `workloads.trace_ns_per_instr`: `TraceSource` refill cost.
fn trace_ns_per_instr(trace: &TraceSet) -> Result<f64, String> {
    const REFILLS: u64 = 8_000;
    let mut src = trace
        .open_stream(0)
        .map_err(|e| format!("open trace stream: {e}"))?;
    let mut block = InstrBlock::new();
    Ok(per_event_ns(|| {
        for _ in 0..REFILLS {
            src.refill(&mut block);
            black_box(&block);
        }
        REFILLS * BLOCK
    }))
}

/// `memsys.llc_ns_per_access`: an LLC slice of the tiled organizations
/// serving GetS requests at the workload's hit ratio, with misses
/// answered from memory after the workload's miss latency.
fn llc_ns_per_access(shape: &Shape) -> f64 {
    const ACCESSES: u64 = 40_000;
    const WARM: u64 = 1024;
    let mut tile = LlcTile::new(LlcConfig {
        slice_bytes: 8 * 1024 * 1024 / 64,
        ..LlcConfig::tiled_slice()
    });
    for i in 0..WARM {
        tile.warm(Addr::from_line_index(i));
    }
    let mut now = 0u64;
    let mut i = 0u64;
    let mut cold = 1u64 << 32;
    let mut hit_credit = 0.0;
    let mut mem: VecDeque<(u64, LlcInput)> = VecDeque::new();
    let latency = shape.llc_miss_latency;
    let ratio = shape.llc_hit_ratio;
    let mut round = |n: u64| {
        let mut done = 0;
        while done < n {
            if tile.inflight() < 16 {
                hit_credit += ratio;
                let line = if hit_credit >= 1.0 {
                    hit_credit -= 1.0;
                    i % WARM
                } else {
                    cold += 1;
                    cold
                };
                tile.submit(LlcInput::Core {
                    txn: TxnId(i as u32),
                    core: CoreId((i % 64) as u16),
                    addr: Addr::from_line_index(line),
                    kind: RequestKind::GetS,
                });
                i += 1;
                done += 1;
            }
            for _ in 0..2 {
                while mem.front().is_some_and(|m| m.0 <= now) {
                    tile.submit(mem.pop_front().expect("front checked").1);
                }
                tile.tick(Cycle(now));
                while let Some(out) = tile.pop_ready(Cycle(now)) {
                    if let LlcOutput::MemRead { mshr, .. } = out {
                        mem.push_back((now + latency, LlcInput::MemData { mshr }));
                    }
                }
                now += 1;
            }
        }
        n
    };
    round(ACCESSES);
    per_event_ns(|| round(ACCESSES))
}

/// `memsys.mem_ns_per_read`: a DDR3 channel kept busy with reads.
fn mem_ns_per_read() -> f64 {
    const READS: u64 = 40_000;
    let cfg = MemChannelConfig::default();
    let mut ch = MemoryChannel::new(cfg);
    let mut done = Vec::new();
    let mut now = 0u64;
    let mut token = 0u64;
    per_event_ns(|| {
        let mut completed = 0;
        while completed < READS {
            if now.is_multiple_of(cfg.occupancy) {
                token += 1;
                ch.push(
                    MemRequest::Read {
                        token,
                        addr: Addr::from_line_index(token),
                    },
                    Cycle(now),
                );
            }
            done.clear();
            ch.tick(Cycle(now), &mut done);
            completed += done.len() as u64;
            now += 1;
        }
        completed
    })
}

/// A paper-configuration fabric with its core and LLC terminals.
fn build(org: Organization) -> (Box<dyn Fabric>, Vec<TerminalId>, Vec<TerminalId>) {
    let cfg = ChipConfig::paper(org);
    match org {
        Organization::Mesh => {
            let b = build_mesh(&cfg.mesh_spec());
            (
                Box::new(b.network),
                b.tile_terminals.clone(),
                b.tile_terminals,
            )
        }
        Organization::FlattenedButterfly => {
            let b = build_fbfly(&cfg.fbfly_spec());
            (
                Box::new(b.network),
                b.tile_terminals.clone(),
                b.tile_terminals,
            )
        }
        Organization::NocOut => {
            let b = build_nocout(&cfg.nocout_spec());
            (Box::new(b.network), b.core_terminals, b.llc_terminals)
        }
        _ => unreachable!("only the three evaluated fabrics are replayed"),
    }
}

/// The NoC replay of one organization: (loaded ns per cycle, ns per
/// crossbar traversal, idle ns per cycle).
fn noc(org: Organization, rate: f64, seed: u64) -> (f64, f64, f64) {
    const CYCLES: u64 = 4_000;
    const IDLE: u64 = 40_000;
    let (mut fab, cores, llcs) = build(org);
    let mut rng = SimRng::new(seed);
    let mut cycles = |fab: &mut Box<dyn Fabric>, n: u64| {
        let before = fab.stats().xbar_traversals.value();
        for _ in 0..n {
            for (k, &c) in cores.iter().enumerate() {
                if rng.chance(rate) {
                    let d = llcs[rng.next_below(llcs.len() as u64) as usize];
                    fab.inject(c, d, MessageClass::Request, 0, k as u64);
                }
            }
            fab.tick();
            while let Some(t) = fab.take_ready_terminal() {
                while let Some(d) = fab.poll(t) {
                    if d.packet.class == MessageClass::Request {
                        let back = cores[d.packet.token as usize];
                        fab.inject(t, back, MessageClass::Response, 64, 0);
                    }
                }
            }
        }
        fab.stats().xbar_traversals.value() - before
    };
    cycles(&mut fab, 2_000);
    let samples: Vec<(f64, u64)> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            let hops = cycles(&mut fab, CYCLES);
            (t.elapsed().as_nanos() as f64, hops)
        })
        .collect();
    let tick_ns = median(
        &samples
            .iter()
            .map(|s| s.0 / CYCLES as f64)
            .collect::<Vec<_>>(),
    );
    let hop_ns = median(
        &samples
            .iter()
            .map(|s| s.0 / s.1.max(1) as f64)
            .collect::<Vec<_>>(),
    );
    let (mut idle, _, _) = build(org);
    let idle_ns = per_event_ns(|| {
        for _ in 0..IDLE {
            idle.tick();
        }
        IDLE
    });
    (tick_ns, hop_ns, idle_ns)
}

/// `sim.hist_record_ns`: `LatencyHist::record` over values spread around
/// the workload's fill latency.
fn hist_record_ns(shape: &Shape) -> f64 {
    const RECORDS: u64 = 1 << 20;
    let span = 4 * shape.fill_latency.max(8);
    let mut h = LatencyHist::new();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    per_event_ns(|| {
        for _ in 0..RECORDS {
            x ^= x >> 30;
            x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
            h.record(x % span);
        }
        black_box(&h);
        RECORDS
    })
}

/// Measures the chip, cpu, workloads, memsys, noc and sim layers. The
/// chip timings take the median over `rounds`; the replays are shaped by
/// the first round's points.
///
/// # Errors
///
/// The trace cannot be replayed.
fn components(
    t: &Traced,
    rounds: &[Round],
    trace: &TraceSet,
    rec: &mut Record,
) -> Result<(), String> {
    let points = &rounds[0].points;
    let shape = Shape::of(points);
    let sum = |f: &dyn Fn(&SystemMetrics) -> u64| points.iter().map(|p| f(&p.metrics)).sum::<u64>();

    // Counts, from the chips themselves.
    let core_cycles = sum(&|m| m.cycles * m.active_cores as u64);
    let stalled: f64 = points
        .iter()
        .map(|p| {
            p.metrics.fetch_stall_fraction
                * (p.metrics.cycles * p.metrics.active_cores as u64) as f64
        })
        .sum();
    rec.set("cpu.instructions", sum(&|m| m.instructions) as f64);
    rec.set(
        "cpu.fetch_stall_fraction",
        stalled / core_cycles.max(1) as f64,
    );
    rec.set(
        "workloads.requests",
        sum(&|m| m.request_latency.count) as f64,
    );
    let accesses = sum(&|m| m.llc.accesses);
    rec.set("memsys.llc_accesses", accesses as f64);
    rec.set("memsys.llc_hit_ratio", shape.llc_hit_ratio);
    rec.set("memsys.mem_reads", sum(&|m| m.memory.reads) as f64);
    rec.set("noc.packets", sum(&|m| m.network.packets) as f64);
    rec.set(
        "noc.xbar_traversals",
        sum(&|m| m.network.xbar_traversals) as f64,
    );

    // Component replays.
    let cpu_ns = cpu_tick_ns(&t.sources, t.seed, &shape);
    rec.set("cpu.tick_ns", cpu_ns);
    rec.set(
        "workloads.gen_ns_per_instr",
        gen_ns_per_instr(&t.sources, t.seed),
    );
    rec.set(
        "workloads.openloop_ns_per_cycle",
        openloop_ns_per_cycle(t.seed, &shape),
    );
    rec.set("workloads.trace_ns_per_instr", trace_ns_per_instr(trace)?);
    let llc_ns = llc_ns_per_access(&shape);
    rec.set("memsys.llc_ns_per_access", llc_ns);
    let mem_ns = mem_ns_per_read();
    rec.set("memsys.mem_ns_per_read", mem_ns);
    rec.set("sim.hist_record_ns", hist_record_ns(&shape));

    // The chip: build time, and run_for time per simulated cycle.
    let news: Vec<f64> = rounds
        .iter()
        .flat_map(|r| &r.points)
        .map(|p| p.new_s * 1e3)
        .collect();
    rec.set("chip.new_ms", median(&news));
    let run_for_ns = |org: Organization| -> Option<f64> {
        let per_pass: Vec<f64> = rounds
            .iter()
            .filter_map(|r| sim_rate(&r.points, Some(org)))
            .map(|rate| 1e9 / rate)
            .collect();
        (!per_pass.is_empty()).then(|| median(&per_pass))
    };
    // A workload without an IdealWire chip gets the control measured on
    // an IdealWire twin of its first point.
    let is_ideal = |p: &&PointRun| p.spec.chip.organization == Organization::IdealWire;
    let twin: Vec<PointRun> = if points.iter().any(|p| is_ideal(&p)) {
        Vec::new()
    } else {
        let mut spec = points[0].spec.clone();
        spec.chip.organization = Organization::IdealWire;
        (0..3).map(|_| crate::exec::run_point(&spec)).collect()
    };
    for (org, key) in ORG_KEYS {
        let ns = run_for_ns(org).unwrap_or_else(|| {
            median(
                &twin
                    .iter()
                    .map(|p| p.run_s * 1e9 / p.cycles() as f64)
                    .collect::<Vec<_>>(),
            )
        });
        rec.set(format!("chip.run_for_ns_per_cycle.{key}"), ns);
    }

    // Accounting check: the share of run_for time the replays leave
    // unexplained (event counts of the measurement window are scaled to
    // the whole warm-up plus measurement span).
    let unattributed = |pts: &[&PointRun], noc_ns: f64| -> f64 {
        let (mut explained, mut run_ns) = (0.0, 0.0);
        for p in pts {
            let m = &p.metrics;
            let scale = p.cycles() as f64 / m.cycles.max(1) as f64;
            explained += cpu_ns * (p.cycles() * m.active_cores as u64) as f64
                + (llc_ns * m.llc.accesses as f64 + mem_ns * m.memory.reads as f64) * scale
                + noc_ns * p.cycles() as f64;
            run_ns += p.run_s * 1e9;
        }
        1.0 - explained / run_ns
    };
    let mut shares = Vec::new();
    for (org, key) in &ORG_KEYS[..3] {
        let org = *org;
        let org_points: Vec<&PointRun> = points
            .iter()
            .filter(|p| p.spec.chip.organization == org)
            .collect();
        let rate = org_points
            .iter()
            .map(|p| p.metrics.llc.accesses)
            .sum::<u64>() as f64
            / org_points
                .iter()
                .map(|p| p.metrics.cycles)
                .sum::<u64>()
                .max(1) as f64
            / 64.0;
        let (tick_ns, hop_ns, idle_ns) = noc(org, rate, t.seed);
        rec.set(format!("noc.tick_ns.{key}"), tick_ns);
        rec.set(format!("noc.ns_per_hop.{key}"), hop_ns);
        rec.set(format!("noc.idle_tick_ns.{key}"), idle_ns);
        let share = unattributed(&org_points, tick_ns);
        rec.set(format!("chip.unattributed_frac.{key}"), share);
        shares.push(format!("{key} {share:.3}"));
    }
    // IdealWire has no router fabric to replay: its contention-free
    // fabric stays inside the unattributed share.
    let ideal: Vec<&PointRun> = points
        .iter()
        .chain(twin.iter().take(1))
        .filter(is_ideal)
        .collect();
    let share = unattributed(&ideal, 0.0);
    rec.set("chip.unattributed_frac.ideal", share);
    shares.push(format!("ideal {share:.3}"));
    rec.notes.push(format!(
        "accounting check: share of run_for time the layer replays leave unexplained \
         (chip.unattributed_frac): {}",
        shares.join(", ")
    ));
    Ok(())
}

/// `runner.point_ms.*`: `run_outcome` per spec, `passes` times over the
/// specs. Returns the number of failed points.
pub fn runner(specs: &[RunSpec], passes: usize, rec: &mut Record) -> u64 {
    let mut samples = Vec::new();
    let mut failed = 0;
    for _ in 0..passes {
        for spec in specs {
            let t = Instant::now();
            let out = run_outcome(spec);
            samples.push(t.elapsed().as_secs_f64() * 1e3);
            failed += u64::from(out.is_err());
        }
    }
    let t = tail(&samples);
    rec.set("runner.point_ms.p50", median(&samples));
    rec.set("runner.point_ms.tail", t.value);
    rec.set("runner.point_ms.tail_pct", t.pct);
    rec.set("runner.point_ms.samples", t.samples as f64);
    rec.notes.push(format!(
        "runner.point_ms: median {:.3} ms, tail p{} {:.3} ms over {} samples",
        median(&samples),
        t.pct,
        t.value,
        t.samples
    ));
    failed
}

/// `cache.get_us`/`cache.put_us` from a fresh cache holding the
/// workload's points, and the wire and journal costs of their entries.
/// Returns (attempted, failed) round trips: a cached entry must read
/// back bit-identical.
pub fn cache_wire_journal(
    points: &[PointRun],
    dir: &Path,
    rec: &mut Record,
) -> Result<(u64, u64), String> {
    let io = |e: std::io::Error| e.to_string();
    let mut puts = Vec::new();
    let mut gets = Vec::new();
    let mut failed = 0;
    let mut entries = Vec::new();
    for rep in 0..REPS {
        let cache_dir = dir.join(format!("cache-{rep}"));
        let cache = ResultsCache::open(&cache_dir).map_err(io)?;
        let t = Instant::now();
        for p in points {
            cache.put(&p.spec, &p.metrics);
        }
        puts.push(t.elapsed().as_secs_f64() * 1e6 / points.len() as f64);
        let t = Instant::now();
        let back: Vec<Option<SystemMetrics>> = points.iter().map(|p| cache.get(&p.spec)).collect();
        gets.push(t.elapsed().as_secs_f64() * 1e6 / points.len() as f64);
        if rep == 0 {
            for (p, b) in points.iter().zip(&back) {
                let same = b
                    .as_ref()
                    .is_some_and(|b| crate::check::digest(b) == crate::check::digest(&p.metrics));
                failed += u64::from(!same);
            }
            for p in points {
                let path = cache_dir.join(format!("{:016x}.metrics", p.spec.content_hash()));
                entries.push(std::fs::read_to_string(path).map_err(io)?);
            }
        }
    }
    rec.set("cache.put_us", median(&puts));
    rec.set("cache.get_us", median(&gets));

    let frames: Vec<Message> = entries
        .iter()
        .enumerate()
        .map(|(i, e)| Message::PointOk {
            shard: 0,
            index: i as u32,
            entry: e.clone(),
        })
        .collect();
    let mut encoded = Vec::new();
    let enc = per_event_ns(|| {
        encoded = frames
            .iter()
            .map(|f| encode_frame(f).expect("entries fit a frame"))
            .collect();
        frames.len() as u64
    });
    let dec = per_event_ns(|| {
        for bytes in &encoded {
            black_box(decode_frame(bytes).expect("a frame just encoded decodes"));
        }
        encoded.len() as u64
    });
    rec.set("distribute.wire_encode_us", enc / 1e3);
    rec.set("distribute.wire_decode_us", dec / 1e3);

    let specs: Vec<RunSpec> = points.iter().map(|p| p.spec.clone()).collect();
    let mut appends = Vec::new();
    for rep in 0..REPS {
        let mut journal =
            Journal::create(&dir.join(format!("journal-{rep}")), &specs).map_err(io)?;
        let t = Instant::now();
        for (i, e) in entries.iter().enumerate() {
            journal.record_ok(i, e).map_err(io)?;
        }
        appends.push(t.elapsed().as_secs_f64() * 1e6 / entries.len() as f64);
    }
    rec.set("distribute.journal_append_us", median(&appends));
    Ok((points.len() as u64, failed))
}

/// `distribute.store_commit_ms`: staging a trace archive into an empty
/// worker trace store and committing it.
pub fn store_commit(trace: &TraceSet, dir: &Path, rec: &mut Record) -> Result<(), String> {
    let io = |e: std::io::Error| e.to_string();
    let bytes = archive_trace(trace).map_err(io)?;
    let hash = trace.content_hash();
    let mut samples = Vec::new();
    for rep in 0..REPS {
        let store = TraceStore::open(dir.join(format!("store-{rep}"))).map_err(io)?;
        let t = Instant::now();
        store.append_chunk(hash, 0, &bytes).map_err(io)?;
        store.commit(hash, bytes.len() as u64).map_err(io)?;
        samples.push(t.elapsed().as_secs_f64() * 1e3);
    }
    rec.set("distribute.store_commit_ms", median(&samples));
    Ok(())
}

/// `distribute.*`: the specs through a local `BatchRunner` and through
/// two fresh local workers; the overhead is the sharded wall time minus
/// the local one. Returns (attempted, failed) points: every outcome must
/// be bit-identical to its direct run in `reference` (same order).
pub fn distribute(
    specs: &[RunSpec],
    reference: &[PointRun],
    dir: &Path,
    jobs: usize,
    rec: &mut Record,
) -> Result<(u64, u64), String> {
    let workers = crate::worker::start(dir, 2)?;
    let t = Instant::now();
    let local = BatchRunner::new(jobs).run_batch_outcomes(specs);
    let local_s = t.elapsed().as_secs_f64();
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
    let t = Instant::now();
    let sharded = driver.execute_sharded(specs);
    let sharded_s = t.elapsed().as_secs_f64();
    drop(workers);
    let stats = driver.stats();
    rec.set("distribute.overhead_s", sharded_s - local_s);
    rec.set("distribute.dispatches", stats.dispatches as f64);
    rec.set("distribute.retries", stats.retries as f64);
    rec.set("distribute.trace_ships", stats.trace_ships as f64);
    let same = |o: &PointOutcome, p: &PointRun| {
        o.as_ref()
            .is_ok_and(|m| crate::check::digest(m) == crate::check::digest(&p.metrics))
    };
    let failed = local
        .iter()
        .chain(&sharded)
        .zip(reference.iter().chain(reference))
        .filter(|(o, p)| !same(o, p))
        .count() as u64;
    Ok((2 * specs.len() as u64, failed))
}

/// Everything a workload's traced run needs besides its rounds.
pub struct Traced {
    /// The streams its cores consume.
    pub sources: Vec<SourceKind>,
    /// The profile whose capture the trace and store layers replay.
    pub trace_profile: Workload,
    /// (hits, misses) of the workload's own results cache, if it has one.
    pub cache_counts: (u64, u64),
    /// The workload seed.
    pub seed: u64,
    /// Simulation jobs for the local runner.
    pub jobs: usize,
}

/// Measures every layer for a traced run whose direct passes are
/// `rounds`, in the scratch directory `dir`.
///
/// # Errors
///
/// A trace, cache, journal or worker failure.
pub fn measure(t: &Traced, rounds: &[Round], dir: &Path, rec: &mut Record) -> Result<(), String> {
    let trace = capture_synthetic_trace(
        ChipConfig::paper(Organization::Mesh),
        t.trace_profile,
        t.seed,
        &dir.join("trace"),
        16_384,
    )
    .map_err(|e| format!("trace capture: {e}"))?;
    components(t, rounds, &trace, rec)?;
    let points = &rounds[0].points;
    let specs: Vec<RunSpec> = points.iter().map(|p| p.spec.clone()).collect();

    let runner_passes = 24usize.div_ceil(specs.len()).max(1);
    let failed = runner(&specs, runner_passes, rec);
    rec.ops((runner_passes * specs.len()) as u64, failed);

    let (n, failed) = cache_wire_journal(points, &dir.join("cache"), rec)?;
    rec.ops(n, failed);
    rec.set("cache.hits", t.cache_counts.0 as f64);
    rec.set("cache.misses", t.cache_counts.1 as f64);
    store_commit(&trace, &dir.join("stores"), rec)?;
    let (n, failed) = distribute(&specs, points, &dir.join("distribute"), t.jobs, rec)?;
    rec.ops(n, failed);
    Ok(())
}
