//! The full-system chip model: cores + L1s + LLC tiles + directory +
//! memory channels, bound together by an interconnect fabric.
//!
//! This is the piece that corresponds to the paper's Flexus full-system
//! timing simulation (§5.4): every protocol message physically traverses
//! the configured NoC, LLC banks arbitrate among requests, memory channels
//! queue, and cores stall exactly as their fills come back.

use crate::config::{ChipConfig, Organization};
use crate::metrics::{LlcSummary, MemSummary, NetSummary, SystemMetrics, TailSummary};
use nocout_cpu::{Core, CoreConfig, CoreStats, MissRequest, Wake};
use nocout_mem::addr::{Addr, AddressMap};
use nocout_mem::llc::{LlcConfig, LlcInput, LlcOutput, LlcTile};
use nocout_mem::mem_ctrl::{MemChannelConfig, MemRequest, MemoryChannel};
use nocout_mem::protocol::{AccessKind, CoreId, Msg, MsgSlab, TxnId};
use nocout_noc::fabric::{Fabric, NextEvent};
use nocout_noc::latency::LatencyFabric;
use nocout_noc::topology::ideal::{build_analytic, AnalyticKind, AnalyticSpec};
use nocout_noc::topology::{fbfly::build_fbfly, mesh::build_mesh, nocout::build_nocout};
use nocout_noc::types::{MessageClass, TerminalId};
use nocout_cpu::source::{FetchedInstr, InstrBlock, InstructionSource};
use nocout_sim::stats::LatencyHist;
use nocout_sim::Cycle;
use nocout_workloads::trace::{TraceHeader, TraceSet, TraceSource, TraceWriter, TRACE_SUFFIX};
use nocout_workloads::{OpenLoopSource, Workload, WorkloadClass, WorkloadGen};
use std::sync::Arc;

/// What an organization's topology builder hands back: the fabric plus
/// the terminal ids for cores, LLC tiles and memory channels, and the
/// preferred core-activation order.
type BuiltFabric = (
    Box<dyn Fabric>,
    Vec<TerminalId>,
    Vec<TerminalId>,
    Vec<TerminalId>,
    Vec<usize>,
);

/// The instruction stream driving one active core: a synthetic generator
/// or a trace replay, behind one enum so the chip's hot path stays free
/// of per-workload-class branching (the core consumes blocks; the class
/// distinction surfaces only at refill).
#[derive(Debug)]
enum CoreSource {
    Synthetic(WorkloadGen),
    Trace(TraceSource),
    OpenLoop(OpenLoopSource),
}

impl InstructionSource for CoreSource {
    fn next_instr(&mut self) -> FetchedInstr {
        match self {
            CoreSource::Synthetic(g) => g.next_instr(),
            CoreSource::Trace(t) => t.next_instr(),
            CoreSource::OpenLoop(o) => o.next_instr(),
        }
    }

    fn refill(&mut self, block: &mut InstrBlock) {
        match self {
            CoreSource::Synthetic(g) => g.refill(block),
            CoreSource::Trace(t) => t.refill(block),
            CoreSource::OpenLoop(o) => o.refill(block),
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct TermInfo {
    core: Option<usize>,
    llc: Option<usize>,
    mem: Option<usize>,
}

/// Membership bitmap (plus population count) of components with pending
/// work. The chip's per-cycle scans visit only members, in index order —
/// on a 64-tile chip most LLC tiles and memory channels are idle most
/// cycles, so calling into all of them was the dominant cost of the
/// tile/channel steps (mirroring what `Fabric::take_ready_terminal`
/// already does for delivery). A bitmap beats a sorted worklist here:
/// membership updates are branch-cheap, iteration order matches the
/// full-scan reference by construction, and when nothing is active the
/// whole step is one counter test.
#[derive(Debug, Default)]
struct ActiveSet {
    member: Vec<bool>,
    count: usize,
}

impl ActiveSet {
    fn with_len(n: usize) -> Self {
        ActiveSet {
            member: vec![false; n],
            count: 0,
        }
    }

    #[inline]
    fn insert(&mut self, i: usize) {
        if !self.member[i] {
            self.member[i] = true;
            self.count += 1;
        }
    }

    /// Records the component's post-tick state.
    #[inline]
    fn set(&mut self, i: usize, active: bool) {
        if self.member[i] != active {
            self.member[i] = active;
            if active {
                self.count += 1;
            } else {
                self.count -= 1;
            }
        }
    }

    #[inline]
    fn is_empty(&self) -> bool {
        self.count == 0
    }
}

#[derive(Debug)]
struct TxnTable {
    entries: Vec<Option<(u16, Addr, AccessKind, Cycle)>>,
    free: Vec<u32>,
}

impl TxnTable {
    fn new() -> Self {
        TxnTable {
            entries: Vec::new(),
            free: Vec::new(),
        }
    }

    fn alloc(&mut self, core: u16, line: Addr, kind: AccessKind, born: Cycle) -> TxnId {
        if let Some(i) = self.free.pop() {
            self.entries[i as usize] = Some((core, line, kind, born));
            TxnId(i)
        } else {
            self.entries.push(Some((core, line, kind, born)));
            TxnId((self.entries.len() - 1) as u32)
        }
    }

    fn release(&mut self, txn: TxnId) -> (u16, Addr, AccessKind, Cycle) {
        let rec = self.entries[txn.0 as usize]
            .take()
            .expect("transaction must be live");
        self.free.push(txn.0);
        rec
    }

    fn live(&self) -> usize {
        self.entries.len() - self.free.len()
    }
}

/// The simulated chip.
///
/// # Examples
///
/// Run a few thousand cycles of Web Search on NOC-Out:
///
/// ```
/// use nocout::chip::ScaleOutChip;
/// use nocout::config::{ChipConfig, Organization};
/// use nocout_workloads::Workload;
///
/// let mut chip = ScaleOutChip::new(
///     ChipConfig::paper(Organization::NocOut),
///     Workload::WebSearch,
///     42,
/// );
/// for _ in 0..2000 {
///     chip.tick();
/// }
/// assert!(chip.metrics().instructions > 0);
/// ```
pub struct ScaleOutChip {
    cfg: ChipConfig,
    fabric: Box<dyn Fabric>,
    cores: Vec<Core>,
    /// (core index, its instruction stream) for every active core.
    active: Vec<(usize, CoreSource)>,
    llcs: Vec<LlcTile>,
    channels: Vec<MemoryChannel>,
    msgs: MsgSlab,
    txns: TxnTable,
    map: AddressMap,
    core_term: Vec<TerminalId>,
    llc_term: Vec<TerminalId>,
    mc_term: Vec<TerminalId>,
    term_info: Vec<TermInfo>,
    now: Cycle,
    req_buf: Vec<MissRequest>,
    /// Reusable staging buffer for messages injected during `tick` (hoisted
    /// out of the per-cycle hot path so steady state allocates nothing).
    inject_buf: Vec<(TerminalId, TerminalId, Msg)>,
    /// LLC tiles with queued inputs or undelivered outputs.
    active_llcs: ActiveSet,
    /// Memory channels with queued requests or outstanding completions.
    active_mems: ActiveSet,
    /// Reusable scratch for memory-channel completions.
    mem_done_buf: Vec<u64>,
    /// End-to-end L1 miss-to-fill latency: core request entering the chip
    /// model to its data packet dispatching back into the core.
    fill_hist: LatencyHist,
    /// Whether the chip-level fill histogram records (propagated to cores
    /// and LLC tiles by [`ScaleOutChip::set_tail_recording`]).
    record_tails: bool,
    /// Whether the workload is open-loop (gates the per-cycle arrival
    /// advance so closed-loop runs pay nothing in the core loop).
    open_loop: bool,
    /// Per active-core slot: the first cycle at which the core must be
    /// ticked again. [`AWAKE`] while it is in the per-cycle loop, else
    /// its timed wake cycle, or [`FILL_ONLY`] when only a fill wakes it.
    wake_at: Vec<u64>,
    /// Per slot: the first cycle a sleeping core skipped. Its stall
    /// credit, `now - sleep_since`, is applied lazily (see `settle`).
    sleep_since: Vec<u64>,
    /// Slots currently awake (`wake_at == AWAKE`).
    awake: usize,
    /// Activation slot of each physical core ([`NO_SLOT`] if inactive),
    /// so a data delivery can wake its core.
    slot_of: Vec<usize>,
    /// Core-cycles ticked and slept since the last statistics reset.
    tick_counts: CoreTickCounts,
}

/// `wake_at` value of a core in the per-cycle loop (every cycle is `>=`).
const AWAKE: u64 = 0;
/// `wake_at` value of a core only a fill can wake (no cycle reaches it).
const FILL_ONLY: u64 = u64::MAX;
/// `slot_of` value of a core that runs no workload.
const NO_SLOT: usize = usize::MAX;

/// How many core-cycles the chip ticked and how many it slept through:
/// deterministic work counters of the event-driven core loop (every
/// active core accounts for each cycle exactly once, in one or the
/// other). They describe the simulator, not the simulated chip, so they
/// stay out of [`SystemMetrics`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreTickCounts {
    /// Core-cycles on which a core was ticked.
    pub ticked: u64,
    /// Core-cycles a stalled core spent asleep, credited in bulk.
    pub slept: u64,
}

/// Builds the organization's fabric: the network plus the terminal ids
/// for cores, LLC tiles and memory channels, and the preferred
/// core-activation order.
fn build_fabric(cfg: &ChipConfig) -> BuiltFabric {
    match cfg.organization {
        Organization::Mesh => {
            let built = build_mesh(&cfg.mesh_spec());
            let order = center_first_order(built.cols, built.rows);
            (
                Box::new(built.network),
                built.tile_terminals.clone(),
                built.tile_terminals,
                built.mc_terminals,
                order,
            )
        }
        Organization::FlattenedButterfly => {
            let built = build_fbfly(&cfg.fbfly_spec());
            let order = center_first_order(built.cols, built.rows);
            (
                Box::new(built.network),
                built.tile_terminals.clone(),
                built.tile_terminals,
                built.mc_terminals,
                order,
            )
        }
        Organization::NocOut => {
            let built = build_nocout(&cfg.nocout_spec());
            // LLC-adjacent cores first (§5.3: 16-core workloads run on
            // the core tiles adjacent to the LLC).
            let mut order: Vec<usize> = (0..built.core_terminals.len()).collect();
            order.sort_by_key(|&c| (built.core_depth(c), c));
            (
                Box::new(built.network),
                built.core_terminals,
                built.llc_terminals,
                built.mc_terminals,
                order,
            )
        }
        Organization::IdealWire | Organization::ZeroLoadMesh => {
            let kind = if cfg.organization == Organization::IdealWire {
                AnalyticKind::IdealWire
            } else {
                AnalyticKind::ZeroLoadMesh
            };
            let mut spec = AnalyticSpec::for_tiles(cfg.cores, kind);
            spec.link_width_bits = cfg.link_width_bits;
            spec.num_memory_channels = cfg.mem_channels;
            let fab: LatencyFabric = build_analytic(&spec);
            let tiles: Vec<TerminalId> =
                (0..cfg.cores as u16).map(TerminalId).collect();
            let mcs: Vec<TerminalId> = (0..cfg.mem_channels as u16)
                .map(|k| TerminalId(cfg.cores as u16 + k))
                .collect();
            let order = center_first_order(spec.cols, spec.rows);
            (Box::new(fab), tiles.clone(), tiles, mcs, order)
        }
    }
}

impl std::fmt::Debug for ScaleOutChip {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScaleOutChip")
            .field("organization", &self.cfg.organization)
            .field("cores", &self.cores.len())
            .field("active", &self.active.len())
            .field("llc_tiles", &self.llcs.len())
            .field("now", &self.now)
            .finish()
    }
}

impl ScaleOutChip {
    /// Builds a chip running `workload` — a synthetic [`Workload`] or any
    /// other [`WorkloadClass`] such as a captured trace — with the given
    /// seed (trace replay ignores the seed: the streams are literal).
    ///
    /// # Panics
    ///
    /// Panics on inconsistent configurations (e.g. a core count the
    /// organization cannot lay out) and on a trace whose streams cannot
    /// be opened.
    pub fn new(cfg: ChipConfig, workload: impl Into<WorkloadClass>, seed: u64) -> Self {
        let class = workload.into();
        let (fabric, core_term, llc_term, mc_term, active_order): BuiltFabric =
            build_fabric(&cfg);

        let llc_tiles = llc_term.len();
        let banks = if cfg.organization == Organization::NocOut {
            cfg.banks_per_llc_tile
        } else {
            1
        };
        let map = AddressMap::new(llc_tiles, banks, cfg.mem_channels);
        let slice_bytes = cfg.llc_total_bytes / llc_tiles as u64;
        let llc_cfg = LlcConfig {
            slice_bytes,
            banks,
            ..if cfg.organization == Organization::NocOut {
                LlcConfig::nocout_tile()
            } else {
                LlcConfig::tiled_slice()
            }
        };
        let llcs: Vec<LlcTile> = (0..llc_tiles)
            .map(|i| LlcTile::new(llc_cfg.at_position(i, llc_tiles)))
            .collect();
        let channels: Vec<MemoryChannel> = (0..cfg.mem_channels)
            .map(|_| MemoryChannel::new(MemChannelConfig::default()))
            .collect();
        let cores: Vec<Core> = (0..cfg.cores).map(|_| Core::new(CoreConfig::a15())).collect();

        // Reverse terminal map.
        let max_term = core_term
            .iter()
            .chain(llc_term.iter())
            .chain(mc_term.iter())
            .map(|t| t.index())
            .max()
            .expect("at least one terminal")
            + 1;
        let mut term_info = vec![TermInfo::default(); max_term];
        for (i, t) in core_term.iter().enumerate() {
            term_info[t.index()].core = Some(i);
        }
        for (i, t) in llc_term.iter().enumerate() {
            term_info[t.index()].llc = Some(i);
        }
        for (i, t) in mc_term.iter().enumerate() {
            term_info[t.index()].mem = Some(i);
        }

        // Activate the first `n` cores in the organization's preferred
        // placement order. Synthetic classes scale with the profile; a
        // trace activates one core per captured stream.
        let wanted = match &class {
            WorkloadClass::Synthetic(w) => w.profile().active_cores(cfg.cores),
            WorkloadClass::Trace(t) => t.streams(),
            WorkloadClass::OpenLoop(s) => s.workload.profile().active_cores(cfg.cores),
        };
        let mut n_active = cfg
            .active_core_override
            .unwrap_or(wanted)
            .min(cfg.cores);
        if let WorkloadClass::Trace(t) = &class {
            // Silently dropping captured streams would simulate a
            // different workload than the trace records; subsetting must
            // be an explicit request (`active_core_override`), not a
            // side effect of a smaller chip.
            assert!(
                t.streams() <= cfg.cores || cfg.active_core_override.is_some(),
                "trace has {} streams but the chip has only {} cores; \
                 set active_core_override to replay a subset deliberately",
                t.streams(),
                cfg.cores
            );
            // A trace can drive at most one core per captured stream.
            n_active = n_active.min(t.streams());
        }
        let active: Vec<(usize, CoreSource)> = active_order[..n_active]
            .iter()
            .enumerate()
            .map(|(slot, &c)| {
                let source = match &class {
                    WorkloadClass::Synthetic(w) => {
                        CoreSource::Synthetic(WorkloadGen::new(w.profile(), c as u16, seed))
                    }
                    WorkloadClass::Trace(t) => CoreSource::Trace(
                        t.open_stream(slot).unwrap_or_else(|e| {
                            panic!("cannot open trace stream {slot}: {e}")
                        }),
                    ),
                    WorkloadClass::OpenLoop(s) => {
                        CoreSource::OpenLoop(OpenLoopSource::new(*s, c as u16, seed))
                    }
                };
                (c, source)
            })
            .collect();

        let num_llcs = llcs.len();
        let num_mems = channels.len();
        let num_active = active.len();
        let mut slot_of = vec![NO_SLOT; cores.len()];
        for (slot, (c, _)) in active.iter().enumerate() {
            slot_of[*c] = slot;
        }
        let mut chip = ScaleOutChip {
            cfg,
            fabric,
            cores,
            active,
            llcs,
            channels,
            msgs: MsgSlab::new(),
            txns: TxnTable::new(),
            map,
            core_term,
            llc_term,
            mc_term,
            term_info,
            now: Cycle::ZERO,
            req_buf: Vec::new(),
            inject_buf: Vec::new(),
            active_llcs: ActiveSet::with_len(num_llcs),
            active_mems: ActiveSet::with_len(num_mems),
            mem_done_buf: Vec::new(),
            fill_hist: LatencyHist::new(),
            record_tails: true,
            open_loop: matches!(&class, WorkloadClass::OpenLoop(_)),
            wake_at: vec![AWAKE; num_active],
            sleep_since: vec![0; num_active],
            awake: num_active,
            slot_of,
            tick_counts: CoreTickCounts::default(),
        };
        chip.warm_caches(&class);
        chip
    }

    /// Checkpoint-style cache warming (§5.4: the paper launches from
    /// checkpoints with warmed caches): the shared instruction footprint,
    /// the LLC-resident data region and the shared read-write region are
    /// installed in the LLC; each active core's hot instruction set and
    /// local data set are installed in its L1s. Trace replay reproduces
    /// the same warm state from the region sizes recorded in the stream
    /// headers (local-data lines are derived from the *captured* core id,
    /// whose private address space the stream's accesses live in).
    fn warm_caches(&mut self, class: &WorkloadClass) {
        use nocout_mem::addr::LINE_BYTES;
        use nocout_workloads::gen::{INSTR_BASE, LLC_DATA_BASE, PRIVATE_BASE, SHARED_RW_BASE};
        if self.active.is_empty() {
            return;
        }
        let (footprint, llc_resident, shared_rw) = match class {
            WorkloadClass::Synthetic(w) => {
                let p = w.profile();
                (
                    p.instr_footprint_lines as u64,
                    p.llc_resident_lines as u64,
                    p.shared_rw_lines as u64,
                )
            }
            WorkloadClass::Trace(t) => {
                let w = t.warm();
                (
                    w.instr_footprint_lines as u64,
                    w.llc_resident_lines as u64,
                    w.shared_rw_lines as u64,
                )
            }
            WorkloadClass::OpenLoop(s) => {
                let p = s.workload.profile();
                (
                    p.instr_footprint_lines as u64,
                    p.llc_resident_lines as u64,
                    p.shared_rw_lines as u64,
                )
            }
        };
        for i in 0..footprint {
            let addr = Addr(INSTR_BASE + i * LINE_BYTES);
            self.llcs[self.map.home_tile(addr)].warm(addr);
        }
        for i in 0..llc_resident {
            let addr = Addr(LLC_DATA_BASE + i * LINE_BYTES);
            self.llcs[self.map.home_tile(addr)].warm(addr);
        }
        for i in 0..shared_rw {
            let addr = Addr(SHARED_RW_BASE + i * LINE_BYTES);
            self.llcs[self.map.home_tile(addr)].warm(addr);
        }
        for slot in 0..self.active.len() {
            let c = self.active[slot].0;
            let (hot, local): (Vec<Addr>, Vec<Addr>) = match &self.active[slot].1 {
                CoreSource::Synthetic(g) => {
                    (g.hot_instr_lines().collect(), g.local_data_lines().collect())
                }
                CoreSource::OpenLoop(o) => {
                    let g = o.gen();
                    (g.hot_instr_lines().collect(), g.local_data_lines().collect())
                }
                CoreSource::Trace(t) => {
                    let h = t.header();
                    let base = PRIVATE_BASE + ((h.core as u64) << 40);
                    (
                        (0..h.instr_hot_lines as u64)
                            .map(|i| Addr(INSTR_BASE + i * LINE_BYTES))
                            .collect(),
                        (0..h.local_data_lines as u64)
                            .map(|i| Addr(base + i * LINE_BYTES))
                            .collect(),
                    )
                }
            };
            for addr in hot {
                self.cores[c].warm_l1i(addr);
            }
            for addr in local {
                self.cores[c].warm_l1d(addr);
            }
        }
    }

    /// The chip configuration.
    pub fn config(&self) -> ChipConfig {
        self.cfg
    }

    /// Current cycle.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Number of cores running the workload.
    pub fn active_cores(&self) -> usize {
        self.active.len()
    }

    /// Physical core indices running the workload, in activation-slot
    /// order (the organization's preferred placement). Slot `i` of a
    /// trace replay drives the core this method lists at position `i`.
    pub fn active_core_ids(&self) -> Vec<usize> {
        self.active.iter().map(|(c, _)| *c).collect()
    }

    /// Protocol messages currently in flight (network + tables).
    pub fn inflight_messages(&self) -> usize {
        self.msgs.len()
    }

    /// Outstanding core transactions.
    pub fn inflight_transactions(&self) -> usize {
        self.txns.live()
    }

    fn inject(&mut self, src: TerminalId, dst: TerminalId, msg: Msg) {
        let class = msg.class();
        let payload = msg.payload_bytes();
        let token = self.msgs.insert(msg);
        self.fabric.inject(src, dst, class, payload, token);
    }

    /// Advances the chip by one cycle, visiting only components with work.
    ///
    /// LLC tiles and memory channels are scanned through active sets that
    /// a component enters when traffic arrives for it and leaves when it
    /// drains. Cores are event-driven the same way: after each tick a
    /// core that [`Core::sleep_until`] reports provably stalled leaves
    /// the per-cycle loop, and re-enters it at its timed wake cycle or
    /// when a data packet is delivered to it, whichever comes first. Its
    /// stall counters for the slept cycles are credited on wake (and in
    /// [`ScaleOutChip::metrics`] while it still sleeps). Awake cores are
    /// visited in ascending slot order, so requests are injected in the
    /// order the dense loop would produce.
    ///
    /// Bit-identical to [`ScaleOutChip::tick_reference`] (a tick of an
    /// idle component, or of a stalled core, changes nothing the skip
    /// does not account for), which the differential tests enforce
    /// across every organization and workload class.
    pub fn tick(&mut self) {
        self.tick_impl(false);
    }

    /// The full-scan, dense, per-instruction reference tick: semantically
    /// identical to [`ScaleOutChip::tick`] but wakes every sleeping core
    /// and ticks every active core, visits every LLC tile and memory
    /// channel every cycle, *and* pulls instructions across the source
    /// trait object one at a time (`Core::tick_reference`) instead of in
    /// blocks. Kept as the oracle for differential testing of the
    /// event-driven core loop, the active-set scheduler and the
    /// block-based delivery path (and as the honest baseline for their
    /// microbenchmarks). Both flavours run on the same ring-ROB/array-MSHR
    /// core structures; those are proved equivalent to their
    /// pre-refactor containers separately (`tests/chip_golden_metrics.rs`,
    /// `tests/proptest_core.rs`).
    pub fn tick_reference(&mut self) {
        for ai in 0..self.active.len() {
            if self.wake_at[ai] != AWAKE {
                self.wake(ai, self.now.raw());
            }
        }
        self.tick_impl(true);
    }

    /// Credits slot `ai`'s sleeping core the cycles from `sleep_since` up
    /// to (not including) `until`, which becomes its new `sleep_since`.
    fn credit(&mut self, ai: usize, until: u64) {
        let delta = until - self.sleep_since[ai];
        self.cores[self.active[ai].0].credit_sleep(delta);
        self.tick_counts.slept += delta;
        self.sleep_since[ai] = until;
    }

    /// Returns a sleeping slot to the per-cycle loop, crediting it up to
    /// (not including) `until`.
    fn wake(&mut self, ai: usize, until: u64) {
        self.credit(ai, until);
        self.wake_at[ai] = AWAKE;
        self.awake += 1;
    }

    /// Applies every sleeping core's pending credit up to `now`, leaving
    /// it asleep: afterwards each core's own counters are exact.
    fn settle(&mut self) {
        for ai in 0..self.active.len() {
            if self.wake_at[ai] != AWAKE {
                self.credit(ai, self.now.raw());
            }
        }
    }

    /// Cycles slot `ai` has slept without being credited yet.
    fn pending_credit(&self, ai: usize) -> u64 {
        if self.wake_at[ai] == AWAKE {
            0
        } else {
            self.now.raw() - self.sleep_since[ai]
        }
    }

    /// Core-cycles ticked and slept since the last
    /// [`ScaleOutChip::reset_stats`], pending sleep included: a cheap,
    /// deterministic view of how much work the event-driven core loop
    /// saves. [`ScaleOutChip::tick_reference`] ticks every core.
    pub fn core_tick_counts(&self) -> CoreTickCounts {
        let pending: u64 = (0..self.active.len())
            .map(|ai| self.pending_credit(ai))
            .sum();
        CoreTickCounts {
            ticked: self.tick_counts.ticked,
            slept: self.tick_counts.slept + pending,
        }
    }

    fn tick_impl(&mut self, full_scan: bool) {
        let now = self.now;

        // 1. Awake cores execute and emit miss requests.
        let mut injections = std::mem::take(&mut self.inject_buf);
        // Open-loop arrivals land on their schedule regardless of core
        // progress (a fast-forwarded gap is caught up in one call). The
        // pre-pass is gated so closed-loop runs keep the core loop as-is.
        if self.open_loop {
            for (_, source) in self.active.iter_mut() {
                if let CoreSource::OpenLoop(o) = source {
                    o.advance_to(now.raw());
                }
            }
        }
        let next = now + 1;
        let mut ticked = 0;
        for ai in 0..self.active.len() {
            let wake_at = self.wake_at[ai];
            if wake_at > now.raw() {
                continue;
            }
            if wake_at != AWAKE {
                // Timed wake: the ROB head completes this cycle.
                self.wake(ai, now.raw());
            }
            let (c, source) = {
                let entry = &mut self.active[ai];
                (entry.0, &mut entry.1)
            };
            self.req_buf.clear();
            if full_scan {
                self.cores[c].tick_reference(now, source, &mut self.req_buf);
            } else {
                self.cores[c].tick(now, source, &mut self.req_buf);
            }
            ticked += 1;
            for r in self.req_buf.drain(..) {
                let txn = self.txns.alloc(c as u16, r.line, r.kind, now);
                let home = self.map.home_tile(r.line);
                injections.push((
                    self.core_term[c],
                    self.llc_term[home],
                    Msg::CoreRequest {
                        txn,
                        core: CoreId(c as u16),
                        addr: r.line,
                        kind: r.kind.request(),
                    },
                ));
            }
            if !full_scan {
                if let Some(wake) = self.cores[c].sleep_until(next) {
                    self.wake_at[ai] = match wake {
                        Wake::At(at) => at.raw(),
                        Wake::Fill => FILL_ONLY,
                    };
                    self.sleep_since[ai] = next.raw();
                    self.awake -= 1;
                }
            }
        }
        self.tick_counts.ticked += ticked;
        for (src, dst, msg) in injections.drain(..) {
            self.inject(src, dst, msg);
        }

        // 2. Active LLC tiles process and emit protocol messages. The
        // bitmap is visited in index order, so the messages injected here
        // appear in exactly the order the full scan would produce.
        if full_scan || !self.active_llcs.is_empty() {
            for i in 0..self.llcs.len() {
                if !full_scan && !self.active_llcs.member[i] {
                    continue;
                }
                self.llcs[i].tick(now);
                while let Some(out) = self.llcs[i].pop_ready(now) {
                    let (src, dst, msg) = self.convert_llc_output(i, out);
                    injections.push((src, dst, msg));
                }
                self.active_llcs.set(i, self.llcs[i].has_pending_work());
            }
            for (src, dst, msg) in injections.drain(..) {
                self.inject(src, dst, msg);
            }
        }

        // 3. Active memory channels complete reads.
        if full_scan || !self.active_mems.is_empty() {
            let mut done = std::mem::take(&mut self.mem_done_buf);
            for k in 0..self.channels.len() {
                if !full_scan && !self.active_mems.member[k] {
                    continue;
                }
                done.clear();
                self.channels[k].tick(now, &mut done);
                for &token in &done {
                    let home = match self.msgs.get(token) {
                        Msg::MemData { home, .. } => *home as usize,
                        other => unreachable!("unexpected memory completion {other:?}"),
                    };
                    self.fabric.inject(
                        self.mc_term[k],
                        self.llc_term[home],
                        MessageClass::Response,
                        nocout_mem::LINE_BYTES as u32,
                        token,
                    );
                }
                self.active_mems.set(k, self.channels[k].has_pending_work());
            }
            self.mem_done_buf = done;
        }

        // 4. The interconnect moves flits.
        self.fabric.tick();

        // 5. Deliveries resume protocol FSMs. The fabric hands back only
        // terminals that actually received packets this cycle — on a
        // 64-core chip most terminals are idle most cycles, so scanning
        // all of them was the dominant cost of this step.
        while let Some(t) = self.fabric.take_ready_terminal() {
            while let Some(delivery) = self.fabric.poll(t) {
                self.dispatch(t.index(), delivery.packet.token, now);
            }
        }

        self.inject_buf = injections;
        self.now.0 += 1;
    }

    /// Runs `cycles` ticks, bit-identical to calling
    /// [`ScaleOutChip::tick`] `cycles` times.
    ///
    /// Through stretches where every component is provably idle — every
    /// active core asleep (see [`ScaleOutChip::tick`]), the LLC/memory
    /// active sets holding only timed wakeups, and the fabric's only
    /// pending work sitting in its event wheels — the clock jumps to the
    /// earliest wake cycle instead: the chip-level analogue of the
    /// network's `run_until_drained` fast-forward. Sleeping cores'
    /// stall credit is settled on return.
    pub fn run_for(&mut self, cycles: u64) {
        let mut remaining = cycles;
        while remaining > 0 {
            match self.skippable_cycles() {
                Some(skip) if skip > 0 => {
                    let skip = skip.min(remaining);
                    self.skip_idle(skip);
                    remaining -= skip;
                }
                _ => {
                    self.tick();
                    remaining -= 1;
                }
            }
        }
        self.settle();
    }

    /// How many upcoming whole-chip ticks are provably no-ops (beyond
    /// stall credit for sleeping cores). `None` when some component
    /// needs per-cycle ticking right now — decided in O(1) whenever a
    /// core is awake, the common case under load.
    fn skippable_cycles(&self) -> Option<u64> {
        fn merge(wake: &mut Option<Cycle>, at: Cycle) {
            *wake = Some(wake.map_or(at, |w| w.min(at)));
        }
        if self.awake > 0 {
            return None;
        }
        let mut wake: Option<Cycle> = None;
        for &at in &self.wake_at {
            if at != FILL_ONLY {
                merge(&mut wake, Cycle(at));
            }
        }
        if !self.active_llcs.is_empty() {
            for (i, tile) in self.llcs.iter().enumerate() {
                if !self.active_llcs.member[i] {
                    continue;
                }
                // Queued inputs arbitrate for banks (and count wait
                // cycles) every cycle; only output timers are skippable.
                if tile.has_queued_input() {
                    return None;
                }
                if let Some(at) = tile.next_output_at() {
                    merge(&mut wake, at);
                }
            }
        }
        if !self.active_mems.is_empty() {
            for (k, ch) in self.channels.iter().enumerate() {
                if !self.active_mems.member[k] {
                    continue;
                }
                if let Some(at) = ch.next_wake() {
                    merge(&mut wake, at);
                }
            }
        }
        match self.fabric.next_event() {
            NextEvent::EveryCycle => return None,
            NextEvent::Idle => {}
            NextEvent::At(at) => merge(&mut wake, at),
        }
        Some(match wake {
            Some(w) => w.raw().saturating_sub(self.now.raw()),
            // Fully quiescent: nothing but stall counters would ever move
            // again, so any number of cycles may be skipped.
            None => u64::MAX,
        })
    }

    /// Applies `delta` skipped cycles: the fabric clock advances and the
    /// chip clock jumps. Every core is asleep, and its stall credit for
    /// the jump accrues with the rest of its sleep.
    fn skip_idle(&mut self, delta: u64) {
        self.fabric.skip_idle(delta);
        self.now.0 += delta;
    }

    fn convert_llc_output(
        &mut self,
        tile: usize,
        out: LlcOutput,
    ) -> (TerminalId, TerminalId, Msg) {
        let src = self.llc_term[tile];
        match out {
            LlcOutput::Data { txn, to } => {
                (src, self.core_term[to.index()], Msg::Data { txn })
            }
            LlcOutput::FwdGetS {
                txn,
                owner,
                requester,
                addr,
            } => (
                src,
                self.core_term[owner.index()],
                Msg::FwdGetS {
                    txn,
                    requester,
                    addr,
                },
            ),
            LlcOutput::FwdGetX {
                txn,
                owner,
                requester,
                addr,
            } => (
                src,
                self.core_term[owner.index()],
                Msg::FwdGetX {
                    txn,
                    requester,
                    addr,
                },
            ),
            LlcOutput::Inv { mshr, sharer, addr } => (
                src,
                self.core_term[sharer.index()],
                Msg::Inv {
                    mshr,
                    home: tile as u16,
                    addr,
                },
            ),
            LlcOutput::MemRead { mshr, addr } => {
                let ch = self.map.memory_channel(addr);
                (
                    src,
                    self.mc_term[ch],
                    Msg::MemRead {
                        mshr,
                        home: tile as u16,
                        addr,
                    },
                )
            }
            LlcOutput::MemWrite { addr } => {
                let ch = self.map.memory_channel(addr);
                (src, self.mc_term[ch], Msg::MemWrite { addr })
            }
        }
    }

    fn dispatch(&mut self, terminal: usize, token: u64, now: Cycle) {
        let info = self.term_info[terminal];
        let msg = self.msgs.take(token);
        match msg {
            Msg::CoreRequest {
                txn,
                core,
                addr,
                kind,
            } => {
                let llc = info.llc.expect("CoreRequest must land on an LLC tile");
                self.active_llcs.insert(llc);
                self.llcs[llc].submit(LlcInput::Core {
                    txn,
                    core,
                    addr,
                    kind,
                });
            }
            Msg::WriteBack { core, addr } => {
                let llc = info.llc.expect("WriteBack must land on an LLC tile");
                self.active_llcs.insert(llc);
                self.llcs[llc].submit(LlcInput::WriteBack { core, addr });
            }
            Msg::InvAck { mshr } => {
                let llc = info.llc.expect("InvAck must land on an LLC tile");
                self.active_llcs.insert(llc);
                self.llcs[llc].submit(LlcInput::InvAck { mshr });
            }
            Msg::MemData { mshr, .. } => {
                let llc = info.llc.expect("MemData must land on an LLC tile");
                self.active_llcs.insert(llc);
                self.llcs[llc].submit(LlcInput::MemData { mshr });
            }
            Msg::Data { txn } => {
                let (core, line, kind, born) = self.txns.release(txn);
                if self.record_tails {
                    self.fill_hist.record(now.raw() - born.raw());
                }
                let c = core as usize;
                debug_assert_eq!(info.core, Some(c));
                // A sleeping core wakes before its fill: the cycles it
                // slept through this one were ticks in the pre-fill state.
                let ai = self.slot_of[c];
                if self.wake_at[ai] != AWAKE {
                    self.wake(ai, now.raw() + 1);
                }
                if kind.is_ifetch() {
                    self.cores[c].fill_ifetch(line, now);
                } else if let Some(victim) = self.cores[c].fill_data(line, now) {
                    if victim.dirty {
                        let home = self.map.home_tile(victim.addr);
                        self.inject(
                            self.core_term[c],
                            self.llc_term[home],
                            Msg::WriteBack {
                                core: CoreId(core),
                                addr: victim.addr,
                            },
                        );
                    }
                }
            }
            Msg::FwdGetS {
                txn,
                requester,
                addr,
            } => {
                let c = info.core.expect("snoop must land on a core");
                self.cores[c].snoop_downgrade(addr);
                // The owner supplies the line straight to the requester
                // (an L1-to-L1 forward; in NOC-Out it physically transits
                // the LLC region).
                self.inject(
                    self.core_term[c],
                    self.core_term[requester.index()],
                    Msg::Data { txn },
                );
            }
            Msg::FwdGetX {
                txn,
                requester,
                addr,
            } => {
                let c = info.core.expect("snoop must land on a core");
                self.cores[c].snoop_invalidate(addr);
                self.inject(
                    self.core_term[c],
                    self.core_term[requester.index()],
                    Msg::Data { txn },
                );
            }
            Msg::Inv { mshr, home, addr } => {
                let c = info.core.expect("invalidation must land on a core");
                self.cores[c].snoop_invalidate(addr);
                self.inject(
                    self.core_term[c],
                    self.llc_term[home as usize],
                    Msg::InvAck { mshr },
                );
            }
            Msg::MemRead { mshr, home, addr } => {
                let ch = info.mem.expect("MemRead must land on a memory channel");
                let token = self.msgs.insert(Msg::MemData { mshr, home });
                self.active_mems.insert(ch);
                self.channels[ch].push(MemRequest::Read { token, addr }, now);
            }
            Msg::MemWrite { addr } => {
                let ch = info.mem.expect("MemWrite must land on a memory channel");
                self.active_mems.insert(ch);
                self.channels[ch].push(MemRequest::Write { addr }, now);
            }
        }
    }

    /// Resets all statistics at the warmup/measurement boundary.
    /// Sleeping cores stay asleep; the cycles they slept before the
    /// boundary are settled first, so none leak into the new window.
    pub fn reset_stats(&mut self) {
        self.settle();
        self.tick_counts = CoreTickCounts::default();
        for (c, _) in &self.active {
            self.cores[*c].reset_stats(self.now);
        }
        for (_, src) in &mut self.active {
            if let CoreSource::OpenLoop(o) = src {
                o.reset_stats();
            }
        }
        for llc in &mut self.llcs {
            llc.stats.reset();
        }
        for ch in &mut self.channels {
            ch.reads.reset();
            ch.writes.reset();
            ch.queue_cycles.reset();
        }
        self.fill_hist.reset();
        self.fabric.reset_stats();
    }

    /// Enables or disables every service-level latency recorder in one
    /// call (default on): block fetch-to-retire per core, LLC miss-to-fill
    /// per tile, and the chip-level end-to-end fill histogram. Recording
    /// is strictly observational — the lockstep test in
    /// `tests/chip_event_determinism.rs` proves a recording run and a
    /// non-recording run produce bit-identical legacy metrics. The NoC's
    /// per-class packet histograms record unconditionally (they share the
    /// delivery bookkeeping that always runs); open-loop request latency
    /// is workload semantics, not observation, so it is not gated either.
    pub fn set_tail_recording(&mut self, on: bool) {
        self.record_tails = on;
        for core in &mut self.cores {
            core.set_tail_recording(on);
        }
        for llc in &mut self.llcs {
            llc.set_tail_recording(on);
        }
    }

    /// Collects the metrics accumulated since the last reset. A core
    /// that is asleep right now is read with its pending stall credit
    /// added, so the result is exact after any sequence of `tick` calls.
    pub fn metrics(&self) -> SystemMetrics {
        let mut per_core_ipc = vec![0.0; self.cores.len()];
        let mut instructions = 0u64;
        let mut cycles = 0u64;
        let mut fetch_stall = 0u64;
        let mut core_cycles = 0u64;
        let mut ifetch_fill_wait_cycles = 0u64;
        let mut block_hist = LatencyHist::new();
        let mut request_hist = LatencyHist::new();
        for (ai, (c, src)) in self.active.iter().enumerate() {
            let core = &self.cores[*c];
            let s = &core.stats;
            let pending = self.pending_credit(ai);
            let c_cycles = s.cycles.value() + pending;
            per_core_ipc[*c] = CoreStats::ipc_of(s.retired.value(), c_cycles);
            instructions += s.retired.value();
            cycles = cycles.max(c_cycles);
            fetch_stall += s.fetch_stall_cycles.value();
            if core.fetch_stalled() {
                fetch_stall += pending;
            }
            core_cycles += c_cycles;
            ifetch_fill_wait_cycles += s.ifetch_fill_wait_cycles.value();
            block_hist.merge(&s.block_latency);
            if let CoreSource::OpenLoop(o) = src {
                request_hist.merge(o.hist());
            }
        }
        let mut llc = LlcSummary::default();
        let mut llc_miss_hist = LatencyHist::new();
        for tile in &self.llcs {
            llc.accesses += tile.stats.accesses.value();
            llc.hits += tile.stats.hits.value();
            llc.misses += tile.stats.misses.value();
            llc.snoops_sent += tile.stats.snoops_sent.value();
            llc.snooping_accesses += tile.stats.snooping_accesses.value();
            llc.writebacks += tile.stats.writebacks.value();
            llc_miss_hist.merge(&tile.stats.miss_latency);
        }
        let ns = self.fabric.stats();
        let net_hist = ns.latency_hist();
        let network = NetSummary {
            packets: ns.packets_delivered.value(),
            mean_latency: ns.mean_latency(),
            mean_request_latency: ns.mean_class_latency(MessageClass::Request),
            mean_response_latency: ns.mean_class_latency(MessageClass::Response),
            p50_latency: net_hist.pow2_percentile(0.5),
            p99_latency: net_hist.pow2_percentile(0.99),
            flit_mm: ns.flit_mm,
            buffer_writes: ns.buffer_writes.value(),
            buffer_reads: ns.buffer_reads.value(),
            xbar_traversals: ns.xbar_traversals.value(),
            request_tail: TailSummary::of(ns.class_tail(MessageClass::Request)),
            snoop_tail: TailSummary::of(ns.class_tail(MessageClass::Snoop)),
            response_tail: TailSummary::of(ns.class_tail(MessageClass::Response)),
        };
        let mut memory = MemSummary::default();
        for ch in &self.channels {
            memory.reads += ch.reads.value();
            memory.writes += ch.writes.value();
        }
        SystemMetrics {
            per_core_ipc,
            active_cores: self.active.len(),
            cycles,
            instructions,
            fetch_stall_fraction: if core_cycles == 0 {
                0.0
            } else {
                fetch_stall as f64 / core_cycles as f64
            },
            llc,
            network,
            memory,
            ifetch_fill_wait_cycles,
            block_latency: TailSummary::of(&block_hist),
            fill_latency: TailSummary::of(&self.fill_hist),
            llc_miss_latency: TailSummary::of(&llc_miss_hist),
            request_latency: TailSummary::of(&request_hist),
        }
    }
}

/// Captures `workload`'s synthetic streams for the cores `cfg` would
/// activate into a trace directory: one `core-NNN.nctrace` stream per
/// activation slot, each `instrs_per_core` instructions long, recorded
/// from a fresh [`WorkloadGen`] for the slot's physical core. Replaying
/// the returned [`TraceSet`] on the same `cfg` therefore drives the
/// identical cores with the identical streams — bit-identical chip
/// metrics, as long as the capture covers every instruction the run
/// consumes (see [`trace_capture_len`]).
///
/// Pre-existing stream files in `dir` are removed first, so a shorter
/// re-capture cannot leave stale extra streams behind.
pub fn capture_synthetic_trace(
    cfg: ChipConfig,
    workload: Workload,
    seed: u64,
    dir: &std::path::Path,
    instrs_per_core: u64,
) -> std::io::Result<Arc<TraceSet>> {
    let profile = workload.profile();
    // The same activation order and count `ScaleOutChip::new` would use
    // for this synthetic class — computed from the fabric build alone,
    // without constructing (and cache-warming) a throwaway chip.
    let (_, _, _, _, active_order) = build_fabric(&cfg);
    let n_active = cfg
        .active_core_override
        .unwrap_or_else(|| profile.active_cores(cfg.cores))
        .min(cfg.cores);
    std::fs::create_dir_all(dir)?;
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path
            .file_name()
            .and_then(|n| n.to_str())
            .is_some_and(|n| n.ends_with(TRACE_SUFFIX))
        {
            std::fs::remove_file(path)?;
        }
    }
    for (slot, c) in active_order[..n_active].iter().copied().enumerate() {
        let mut gen = WorkloadGen::new(profile, c as u16, seed);
        let path = dir.join(format!("core-{slot:03}{TRACE_SUFFIX}"));
        let mut w = TraceWriter::create(path, TraceHeader::for_profile(&profile, c as u32, seed))?;
        w.capture(&mut gen, instrs_per_core)?;
        w.finish()?;
    }
    TraceSet::load(dir)
}

/// Instructions per core a capture must record so a run over `window`
/// cycles replays bit-identically: the dispatch width bounds per-cycle
/// consumption, and one block of prefetch headroom keeps the replay from
/// wrapping into the looped stream while the run is still consuming
/// fresh instructions.
pub fn trace_capture_len(window: &nocout_sim::config::MeasurementWindow) -> u64 {
    let width = CoreConfig::a15().width as u64;
    (window.total_cycles() + 2) * width + nocout_cpu::source::BLOCK_CAP as u64
}

/// Tile indices ordered centre-out: the paper runs 16-core workloads on
/// the 16 tiles in the centre of the tiled die (§5.3).
fn center_first_order(cols: usize, rows: usize) -> Vec<usize> {
    let cx = (cols as f64 - 1.0) / 2.0;
    let cy = (rows as f64 - 1.0) / 2.0;
    let mut order: Vec<usize> = (0..cols * rows).collect();
    order.sort_by(|&a, &b| {
        let da = ((a % cols) as f64 - cx).powi(2) + ((a / cols) as f64 - cy).powi(2);
        let db = ((b % cols) as f64 - cx).powi(2) + ((b / cols) as f64 - cy).powi(2);
        da.partial_cmp(&db).unwrap().then(a.cmp(&b))
    });
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_cycles(chip: &mut ScaleOutChip, n: u64) {
        for _ in 0..n {
            chip.tick();
        }
    }

    #[test]
    fn center_order_prefers_middle_tiles() {
        let order = center_first_order(8, 8);
        let center16: Vec<usize> = order[..16].to_vec();
        for &tile in &center16 {
            let (c, r) = (tile % 8, tile / 8);
            assert!((2..=5).contains(&c) && (2..=5).contains(&r), "tile {tile}");
        }
    }

    #[test]
    fn mesh_chip_makes_progress() {
        let mut chip = ScaleOutChip::new(
            ChipConfig::paper(Organization::Mesh),
            Workload::MapReduceC,
            1,
        );
        run_cycles(&mut chip, 3000);
        let m = chip.metrics();
        assert!(m.instructions > 1000, "retired {}", m.instructions);
        assert!(m.llc.accesses > 0);
        assert!(m.network.packets > 0);
    }

    #[test]
    fn nocout_chip_makes_progress() {
        let mut chip = ScaleOutChip::new(
            ChipConfig::paper(Organization::NocOut),
            Workload::MapReduceC,
            1,
        );
        run_cycles(&mut chip, 3000);
        assert!(chip.metrics().instructions > 1000);
    }

    #[test]
    fn analytic_fabrics_run() {
        for org in [Organization::IdealWire, Organization::ZeroLoadMesh] {
            let mut chip = ScaleOutChip::new(
                ChipConfig::with_cores(org, 4),
                Workload::DataServing,
                3,
            );
            run_cycles(&mut chip, 2000);
            assert!(chip.metrics().instructions > 100, "{org}");
        }
    }

    #[test]
    fn sixteen_core_workload_activates_sixteen() {
        let chip = ScaleOutChip::new(
            ChipConfig::paper(Organization::NocOut),
            Workload::WebSearch,
            1,
        );
        assert_eq!(chip.active_cores(), 16);
    }

    #[test]
    fn memory_traffic_flows() {
        let mut chip = ScaleOutChip::new(
            ChipConfig::paper(Organization::Mesh),
            Workload::DataServing,
            7,
        );
        run_cycles(&mut chip, 5000);
        let m = chip.metrics();
        assert!(m.memory.reads > 0, "vast dataset must reach memory");
        assert!(m.llc.misses > 0);
    }

    #[test]
    fn snoops_occur_but_rarely() {
        let mut chip = ScaleOutChip::new(
            ChipConfig::paper(Organization::Mesh),
            Workload::SatSolver,
            5,
        );
        run_cycles(&mut chip, 20_000);
        let m = chip.metrics();
        assert!(m.llc.snoops_sent > 0, "sharing must produce some snoops");
        assert!(
            m.llc.snoop_percent() < 10.0,
            "but rarely: {:.1}%",
            m.llc.snoop_percent()
        );
    }

    #[test]
    fn reset_clears_window() {
        let mut chip = ScaleOutChip::new(
            ChipConfig::paper(Organization::Mesh),
            Workload::MapReduceW,
            2,
        );
        run_cycles(&mut chip, 1000);
        chip.reset_stats();
        let m = chip.metrics();
        assert_eq!(m.instructions, 0);
        run_cycles(&mut chip, 1000);
        assert!(chip.metrics().instructions > 0);
    }

    #[test]
    fn no_transaction_leaks_over_long_run() {
        let mut chip = ScaleOutChip::new(
            ChipConfig::paper(Organization::NocOut),
            Workload::WebFrontend,
            9,
        );
        run_cycles(&mut chip, 10_000);
        // In-flight transactions stay bounded by cores × (MSHRs + fetch).
        assert!(
            chip.inflight_transactions() <= 16 * 10,
            "{} transactions leaked",
            chip.inflight_transactions()
        );
    }
}
