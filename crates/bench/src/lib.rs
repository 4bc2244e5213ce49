//! Benchmark support crate.
//!
//! The benchmarks live in `benches/`:
//!
//! * `figures` — one Criterion benchmark per paper table/figure
//!   (`bench_fig1`, `bench_fig4`, `bench_fig7`, `bench_fig8`,
//!   `bench_fig9`, `bench_power`, `bench_table1`, `bench_banking`,
//!   `bench_scalability`), each exercising a scaled-down version of the
//!   corresponding experiment pipeline,
//! * `micro` — microbenchmarks of the simulator's hot paths (network
//!   tick, LLC tile, L1, workload generation, RNG), whose named
//!   operations are the modules below.
//!
//! Run with `cargo bench -p nocout-bench`. The repository's end-to-end,
//! per-layer benchmark is `nocbench/` (see `nocbench/README.md`); the
//! full-fidelity experiment binaries live in `nocout-experiments`.

/// A short measurement window for benchmark-scale simulations.
pub fn bench_window() -> nocout_sim::config::MeasurementWindow {
    nocout_sim::config::MeasurementWindow::new(500, 1_500)
}

/// The core/L1 memory-path microbench operations of `benches/micro.rs`.
/// Each function is one named op, so a throughput reading always says
/// what "one op" means.
pub mod memopt {
    use nocout_cpu::model::{Core, CoreConfig};
    use nocout_cpu::rob::{RingRob, WakeupIndex};
    use nocout_cpu::source::{FetchedInstr, Op, ScriptedSource};
    use nocout_cpu::MissRequest;
    use nocout_mem::addr::Addr;
    use nocout_mem::l1::{L1Access, L1Cache, L1Config};
    use nocout_sim::Cycle;

    /// One ROB round: 8 waiting dispatches across 8 lines, 8 fills, 8
    /// retires — the paper-configuration MSHR-bound MLP pattern.
    #[inline]
    pub fn rob_fill_wakeup_round(rob: &mut RingRob, idx: &mut WakeupIndex, round: u64) {
        for l in 0..8u64 {
            let slot = rob.push_waiting();
            idx.enqueue(l, slot, rob);
        }
        for l in 0..8u64 {
            idx.wake_line(l, Cycle(round), rob);
        }
        for _ in 0..8 {
            rob.pop_front();
        }
    }

    /// One MSHR op: allocate → merge → out-param fill on an always-cold
    /// line (`next_line` advances so every round misses).
    #[inline]
    pub fn mshr_alloc_merge_fill(l1: &mut L1Cache, scratch: &mut Vec<u64>, next_line: &mut u64) {
        let a = Addr::from_line_index(*next_line);
        *next_line += 1;
        assert_eq!(l1.access(a, false, 0), L1Access::Miss);
        assert_eq!(l1.access(a, true, 1), L1Access::MergedMiss);
        scratch.clear();
        let _ = l1.fill(a, false, scratch);
    }

    /// A warmed core on an L1-resident single-line ALU stream: every
    /// tick is pure ring push/pop at full width (no misses possible).
    pub fn resident_alu_core() -> (Core, ScriptedSource) {
        let src = ScriptedSource::new(vec![FetchedInstr {
            fetch_line: Addr(0),
            op: Op::Alu { latency: 1 },
        }]);
        let mut core = Core::new(CoreConfig::a15());
        core.warm_l1i(Addr(0));
        (core, src)
    }

    /// Ticks a [`resident_alu_core`] once; `out` must stay empty.
    #[inline]
    pub fn resident_alu_tick(
        core: &mut Core,
        src: &mut ScriptedSource,
        out: &mut Vec<MissRequest>,
        now: Cycle,
    ) {
        core.tick(now, src, out);
        debug_assert!(out.is_empty(), "resident stream must not miss");
    }

    /// A fresh paper-configuration ROB + wakeup index pair.
    pub fn rob_and_index() -> (RingRob, WakeupIndex) {
        (RingRob::new(64), WakeupIndex::new(8))
    }

    /// A fresh paper-configuration L1.
    pub fn a15_l1() -> L1Cache {
        L1Cache::new(L1Config::a15())
    }
}

/// The uncore microbench operations — LLC tile service, directory
/// tracking, and the analytic-fabric event wheel — named like
/// [`memopt`]'s.
pub mod uncoreopt {
    use nocout_mem::addr::Addr;
    use nocout_mem::directory::Directory;
    use nocout_mem::llc::{LlcConfig, LlcInput, LlcTile};
    use nocout_mem::protocol::{CoreId, RequestKind, TxnId};
    use nocout_noc::fabric::Fabric;
    use nocout_noc::latency::LatencyFabric;
    use nocout_noc::types::{MessageClass, TerminalId};
    use nocout_sim::Cycle;

    /// Lines warmed into the benchmark tile, so every submitted request
    /// hits.
    pub const LLC_WARM_LINES: u64 = 1000;

    /// A NOC-Out LLC tile with [`LLC_WARM_LINES`] resident lines.
    pub fn warmed_nocout_tile() -> LlcTile {
        let mut tile = LlcTile::new(LlcConfig::nocout_tile());
        for i in 0..LLC_WARM_LINES {
            tile.warm(Addr::from_line_index(i));
        }
        tile
    }

    /// One LLC op: submit a GetS that hits, then tick and drain the tile
    /// across two cycles — one trip through the input ring, the MSHR-file
    /// merge probe, bank arbitration, the directory update and the
    /// calendar-wheel output stage. Two cycles per request is the tile's
    /// exact service capacity (2 banks × 4-cycle occupancy, consecutive
    /// line indices alternating banks), so the input queue stays bounded
    /// and every request is granted on its submit tick.
    #[inline]
    pub fn llc_tile_hit_round(tile: &mut LlcTile, now: &mut Cycle, i: u64) {
        tile.submit(LlcInput::Core {
            txn: TxnId(i as u32),
            core: CoreId((i % 64) as u16),
            addr: Addr::from_line_index(i % LLC_WARM_LINES),
            kind: RequestKind::GetS,
        });
        for _ in 0..2 {
            tile.tick(*now);
            while tile.pop_ready(*now).is_some() {}
            *now += 1;
        }
    }

    /// A directory with the default standalone slice geometry (256 sets
    /// × 16 ways).
    pub fn bench_directory() -> Directory {
        Directory::new()
    }

    /// One directory op over a 4096-line space: track a line for two
    /// sharers, probe its state, then invalidate both — an insert, three
    /// set-indexed finds, and an entry drop per round, so population
    /// churns the way L1 fills and evictions churn it.
    #[inline]
    pub fn directory_round(dir: &mut Directory, i: u64) {
        let addr = Addr((i % 4096) * 64);
        let a = CoreId((i % 64) as u16);
        let b = CoreId(((i + 1) % 64) as u16);
        dir.add_sharer(addr, a);
        dir.add_sharer(addr, b);
        debug_assert!(dir.state(addr).is_some());
        dir.remove_core(addr, a);
        dir.remove_core(addr, b);
    }

    /// A 64-terminal contention-free fabric with a fixed 10-cycle head
    /// latency.
    pub fn tencycle_fabric() -> LatencyFabric {
        LatencyFabric::new(64, 128, Box::new(|_, _| 10))
    }

    /// One fabric op: inject a single-flit packet, advance one cycle and
    /// drain deliveries. After the first 10 ops the wheel carries a
    /// steady 10 packets in flight, so each round is one scheduled push,
    /// one slot drain and one delivery pop.
    #[inline]
    pub fn fabric_wheel_round(fab: &mut LatencyFabric, i: u64) {
        let src = TerminalId((i % 64) as u16);
        let dst = TerminalId(((i * 7 + 3) % 64) as u16);
        fab.inject(src, dst, MessageClass::Request, 0, i);
        fab.tick();
        while let Some(t) = fab.take_ready_terminal() {
            while fab.poll(t).is_some() {}
        }
    }
}

/// The flit-level network microbench operations — the saturated
/// router-pair switch hop and the per-topology loaded network tick —
/// named like [`memopt`]'s.
pub mod nocopt {
    use nocout_noc::network::{Network, NetworkBuilder};
    use nocout_noc::router::RouterConfig;
    use nocout_noc::topology::fbfly::{build_fbfly, FbflySpec};
    use nocout_noc::topology::mesh::{build_mesh, MeshSpec};
    use nocout_noc::topology::nocout::{build_nocout, NocOutSpec};
    use nocout_noc::types::{MessageClass, TerminalId};
    use nocout_sim::rng::SimRng;

    /// A two-mesh-router bidirectional pair carrying 5-flit response
    /// streams both ways, pre-filled so the switch allocator grants on
    /// every cycle. One *switch hop* is one granted flit traversal (the
    /// callers measure `stats().flit_hops` over the timed loop rather
    /// than counting rounds, so the reading is ns-per-hop honest).
    pub fn saturated_pair() -> (Network, [TerminalId; 2]) {
        let mut b = NetworkBuilder::new(128);
        let r0 = b.add_router(RouterConfig::mesh());
        let r1 = b.add_router(RouterConfig::mesh());
        b.add_bidi_link(r0, r1, 1, 2.0);
        let t0 = b.add_terminal(r0).terminal;
        let t1 = b.add_terminal(r1).terminal;
        b.compute_routes_bfs();
        let mut net = b.build();
        for _ in 0..4 {
            net.inject(t0, t1, MessageClass::Response, 64, 0);
            net.inject(t1, t0, MessageClass::Response, 64, 0);
        }
        (net, [t0, t1])
    }

    /// One saturated-pair round: a tick, then re-inject one packet per
    /// delivery so both directions stay backlogged forever.
    #[inline]
    pub fn switch_hop_round(net: &mut Network, terms: &[TerminalId; 2]) {
        net.tick();
        for k in 0..2 {
            while net.poll(terms[k]).is_some() {
                net.inject(terms[k], terms[1 - k], MessageClass::Response, 64, 0);
            }
        }
    }

    /// A paper-scale network under sustained random load (~0.5 packets
    /// injected per cycle); one op is one `Network::tick`.
    pub struct LoadedNet {
        /// Benchmark-name prefix (`mesh`, `flattened_butterfly`,
        /// `noc_out`).
        pub key: &'static str,
        net: Network,
        srcs: Vec<TerminalId>,
        dsts: Vec<TerminalId>,
        all: Vec<TerminalId>,
        class: MessageClass,
        payload_bytes: u32,
        rng: SimRng,
    }

    /// The three evaluated paper topologies under their loaded-tick
    /// traffic shapes: uniform-random 64-byte responses between tiles on
    /// the mesh and the flattened butterfly, and core→LLC requests on
    /// NOC-Out (the tree direction whose many low-radix routers the
    /// dirty-list scan targets).
    pub fn loaded_networks() -> Vec<LoadedNet> {
        let mesh = build_mesh(&MeshSpec::paper_64());
        let fb = build_fbfly(&FbflySpec::paper_64());
        let n = build_nocout(&NocOutSpec::paper_64());
        vec![
            LoadedNet {
                key: "mesh",
                srcs: mesh.tile_terminals.clone(),
                dsts: mesh.tile_terminals.clone(),
                all: mesh.tile_terminals.clone(),
                net: mesh.network,
                class: MessageClass::Response,
                payload_bytes: 64,
                rng: SimRng::new(1),
            },
            LoadedNet {
                key: "flattened_butterfly",
                srcs: fb.tile_terminals.clone(),
                dsts: fb.tile_terminals.clone(),
                all: fb.tile_terminals.clone(),
                net: fb.network,
                class: MessageClass::Response,
                payload_bytes: 64,
                rng: SimRng::new(1),
            },
            LoadedNet {
                key: "noc_out",
                srcs: n.core_terminals.clone(),
                dsts: n.llc_terminals.clone(),
                all: n
                    .core_terminals
                    .iter()
                    .chain(n.llc_terminals.iter())
                    .copied()
                    .collect(),
                net: n.network,
                class: MessageClass::Request,
                payload_bytes: 0,
                rng: SimRng::new(1),
            },
        ]
    }

    /// One loaded-network op: maybe inject (p = 0.5), tick, drain.
    #[inline]
    pub fn loaded_tick(ln: &mut LoadedNet) {
        if ln.rng.chance(0.5) {
            let s = ln.rng.next_below(ln.srcs.len() as u64) as usize;
            let d = ln.rng.next_below(ln.dsts.len() as u64) as usize;
            ln.net.inject(ln.srcs[s], ln.dsts[d], ln.class, ln.payload_bytes, 0);
        }
        ln.net.tick();
        for t in &ln.all {
            while ln.net.poll(*t).is_some() {}
        }
    }

    /// Flit hops performed so far (the switch-hop op count).
    pub fn flit_hops(net: &Network) -> u64 {
        net.stats().flit_hops.value()
    }

    /// Flit hops performed so far by a loaded network.
    pub fn flit_hops_loaded(ln: &LoadedNet) -> u64 {
        ln.net.stats().flit_hops.value()
    }
}

/// The service-level statistics microbench operation, named like
/// [`memopt`]'s.
pub mod statopt {
    use nocout_sim::stats::LatencyHist;

    /// One latency-histogram round: 64 records spanning the linear and
    /// log-linear bucket ranges into `scratch`, a bucket-wise merge of
    /// `scratch` into `acc` (then a scratch reset), and a p99 read-back
    /// — the per-window record/merge/query mix of the chip's
    /// tail-metric aggregation.
    #[inline]
    pub fn latency_hist_round(scratch: &mut LatencyHist, acc: &mut LatencyHist, round: u64) {
        let mut x = round.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        for _ in 0..64 {
            // splitmix64-style scramble; shifting by the low bits
            // spreads samples over every bucket magnitude.
            x ^= x >> 30;
            x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
            scratch.record(x >> (x & 63));
        }
        acc.merge(scratch);
        scratch.reset();
        std::hint::black_box(acc.percentile(0.99));
    }
}
