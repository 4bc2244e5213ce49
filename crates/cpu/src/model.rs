//! The out-of-order core pipeline model.

use crate::rob::{RingRob, WakeupIndex};
use crate::source::{FetchedInstr, InstrBlock, InstructionSource, Op};
use nocout_mem::addr::Addr;
use nocout_mem::l1::{L1Access, L1Cache, L1Config};
use nocout_mem::protocol::AccessKind;
use nocout_sim::stats::{Counter, LatencyHist};
use nocout_sim::Cycle;

/// Sentinel line index for "no line" (no resolved fetch line, no stall).
const NO_LINE: u64 = u64::MAX;

/// Core microarchitecture parameters (Table 1 defaults via
/// [`CoreConfig::a15`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreConfig {
    /// Dispatch/retire width.
    pub width: usize,
    /// Reorder-buffer entries.
    pub rob_entries: usize,
    /// Load/store-queue entries: bounds outstanding data misses.
    pub lsq_entries: usize,
    /// L1 configuration (shared by I and D sides).
    pub l1: L1Config,
}

impl CoreConfig {
    /// ARM Cortex-A15-like: 3-way, 64-entry ROB, 16-entry LSQ, 32 KB L1s.
    pub fn a15() -> Self {
        CoreConfig {
            width: 3,
            rob_entries: 64,
            lsq_entries: 16,
            l1: L1Config::a15(),
        }
    }
}

/// A miss request the core asks the chip model to send to the home LLC
/// tile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MissRequest {
    /// Line address.
    pub line: Addr,
    /// Fetch, load, or store (selects GetS/GetX and the L1 to fill).
    pub kind: AccessKind,
}

/// When a sleeping core must next be ticked if no fill reaches it first
/// — the answer of [`Core::sleep_until`], the contract behind the chip's
/// event-driven core loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wake {
    /// The ROB head completes at this cycle: every tick strictly before
    /// it only bumps counters, and the core must be ticked from it on.
    At(Cycle),
    /// Nothing but stall counters can move until a fill arrives.
    Fill,
}

/// Per-core statistics.
#[derive(Debug, Default)]
pub struct CoreStats {
    /// Instructions retired (numerator of the paper's performance metric).
    pub retired: Counter,
    /// Cycles observed (denominator).
    pub cycles: Counter,
    /// Cycles with fetch stalled on an L1-I miss.
    pub fetch_stall_cycles: Counter,
    /// Cycles in which nothing retired because the ROB head waited on a
    /// data miss.
    pub mem_stall_cycles: Counter,
    /// L1-I miss requests issued.
    pub ifetch_misses: Counter,
    /// L1-D miss requests issued.
    pub data_misses: Counter,
    /// Total cycles between an L1-I miss stalling fetch and the fill
    /// that cleared it (the interconnect round-trip latency the fetch
    /// engine actually observed, summed over all stalls).
    pub ifetch_fill_wait_cycles: Counter,
    /// Fetch-to-retire latency per [`crate::source::BLOCK_CAP`]-instruction
    /// block: dispatch of instruction `64k` to retirement of instruction
    /// `64k+63`. Purely observational — see `docs/service-level-metrics.md`.
    pub block_latency: LatencyHist,
}

impl CoreStats {
    /// Instructions per cycle over the measured window.
    pub fn ipc(&self) -> f64 {
        Self::ipc_of(self.retired.value(), self.cycles.value())
    }

    /// `retired / cycles`, 0 when no cycle was observed — the one IPC
    /// formula, shared with readers that add a sleeping core's pending
    /// cycles first.
    pub fn ipc_of(retired: u64, cycles: u64) -> f64 {
        if cycles == 0 {
            0.0
        } else {
            retired as f64 / cycles as f64
        }
    }

    /// Resets all counters (warmup boundary).
    pub fn reset(&mut self) {
        *self = CoreStats::default();
    }
}

/// The core: pipeline state plus private L1-I and L1-D.
///
/// Driven by the chip model: [`Core::tick`] advances one cycle and collects
/// miss requests; [`Core::fill_data`]/[`Core::fill_ifetch`] deliver lines;
/// snoops arrive via [`Core::snoop_invalidate`]/[`Core::snoop_downgrade`].
///
/// A caller need not tick a stalled core every cycle. After a tick at
/// `now`, [`Core::sleep_until`]`(now + 1)` says whether the following
/// ticks can only bump stall counters, and until when; the caller may
/// then skip them, as long as it calls [`Core::credit_sleep`] with the
/// number of skipped cycles before the core's next tick *and* before
/// any fill reaches it. The result is bit-identical to dense ticking.
///
/// # Examples
///
/// An all-ALU stream retires at full width once warmed up:
///
/// ```
/// use nocout_cpu::model::{Core, CoreConfig};
/// use nocout_cpu::source::{FetchedInstr, Op, ScriptedSource};
/// use nocout_mem::addr::Addr;
/// use nocout_sim::Cycle;
///
/// let mut core = Core::new(CoreConfig::a15());
/// let mut src = ScriptedSource::new(vec![FetchedInstr {
///     fetch_line: Addr(0),
///     op: Op::Alu { latency: 1 },
/// }]);
/// let mut out = Vec::new();
/// let mut now = Cycle(0);
/// // First tick misses in the empty L1-I.
/// core.tick(now, &mut src, &mut out);
/// assert_eq!(out.len(), 1);
/// core.fill_ifetch(out[0].line, now);
/// for _ in 0..100 {
///     now += 1;
///     out.clear();
///     core.tick(now, &mut src, &mut out);
/// }
/// assert!(core.stats.ipc() > 2.0, "ipc {}", core.stats.ipc());
/// ```
#[derive(Debug)]
pub struct Core {
    cfg: CoreConfig,
    l1i: L1Cache,
    l1d: L1Cache,
    /// Fixed-capacity ring-buffer reorder buffer (see [`crate::rob`]).
    rob: RingRob,
    /// Line-indexed wakeup chains threaded through the ROB slots: a data
    /// fill wakes exactly the entries waiting on its line, and the
    /// index's waiting total *is* the outstanding-data (MLP) count.
    wakeup: WakeupIndex,
    /// Resolved line index currently being fetched from (hits in it are
    /// free); [`NO_LINE`] before the first fetch resolves. Holding the
    /// index (not an `Option<Addr>`) makes the per-instruction
    /// line-crossing check a single integer compare.
    fetch_line: u64,
    /// Line/set-base decode of the last L1-I probe — reused when the
    /// same line is re-probed (blocked-retry) so the crossing path does
    /// the tag-array geometry math once per resolved line.
    probe_line: u64,
    probe_set_base: u32,
    /// Fetch stalled on this line index until its fill arrives
    /// ([`NO_LINE`] when fetch is running).
    stall_line: u64,
    /// Cycle the current fetch stall began (fill-latency accounting).
    stall_started: Cycle,
    /// Instruction pulled from the source but not yet dispatched.
    staged: Option<FetchedInstr>,
    /// Buffered instructions from the source: [`Core::tick`] consumes
    /// from here and crosses the `dyn InstructionSource` boundary only
    /// when the block drains.
    block: InstrBlock,
    /// Reusable buffer for the waiter tags an L1 fill releases (the
    /// core does not use the tags; the buffer exists so fills allocate
    /// nothing).
    waiter_scratch: Vec<u64>,
    /// Whether block fetch-to-retire latencies are recorded into
    /// [`CoreStats::block_latency`]. Observational only: with recording
    /// off the cycle-by-cycle architectural state is bit-identical.
    record_tails: bool,
    /// Instructions dispatched since construction (not reset at the
    /// warmup boundary: block mark positions are keyed by absolute
    /// sequence numbers).
    dispatched: u64,
    /// Instructions retired since construction.
    retired_seq: u64,
    /// Dispatch timestamps of in-flight block marks, indexed by
    /// `(sequence / 64) % 4`. The ROB retires in order and holds at most
    /// 64 instructions, so at most two marks are ever in flight.
    block_marks: [Cycle; 4],
    /// Per-core statistics.
    pub stats: CoreStats,
}

impl Core {
    /// Creates an idle core.
    pub fn new(cfg: CoreConfig) -> Self {
        Core {
            cfg,
            l1i: L1Cache::new(cfg.l1),
            l1d: L1Cache::new(cfg.l1),
            rob: RingRob::new(cfg.rob_entries),
            wakeup: WakeupIndex::new(cfg.l1.mshr_capacity),
            fetch_line: NO_LINE,
            probe_line: NO_LINE,
            probe_set_base: 0,
            stall_line: NO_LINE,
            stall_started: Cycle::ZERO,
            staged: None,
            block: InstrBlock::new(),
            waiter_scratch: Vec::with_capacity(cfg.lsq_entries),
            record_tails: true,
            dispatched: 0,
            retired_seq: 0,
            block_marks: [Cycle::ZERO; 4],
            stats: CoreStats::default(),
        }
    }

    /// Enables or disables block fetch-to-retire latency recording
    /// (default on). Recording is observational: toggling it changes no
    /// architectural state, RNG draw, or event, only whether
    /// [`CoreStats::block_latency`] fills in. Toggle only between runs —
    /// marks set while disabled are never recorded.
    pub fn set_tail_recording(&mut self, on: bool) {
        self.record_tails = on;
    }

    /// Marks block boundaries at dispatch: instruction `64k` stamps the
    /// current cycle into the mark ring.
    #[inline]
    fn note_dispatch(&mut self, now: Cycle) {
        if self.dispatched.is_multiple_of(64) && self.record_tails {
            self.block_marks[(self.dispatched / 64 % 4) as usize] = now;
        }
        self.dispatched += 1;
    }

    /// Completes a block at retire: instruction `64k+63` records the
    /// elapsed cycles since its block's dispatch mark.
    #[inline]
    fn note_retire(&mut self, now: Cycle) {
        if self.retired_seq % 64 == 63 && self.record_tails {
            let start = self.block_marks[(self.retired_seq / 64 % 4) as usize];
            self.stats.block_latency.record(now.raw() - start.raw());
        }
        self.retired_seq += 1;
    }

    /// The configuration.
    pub fn config(&self) -> CoreConfig {
        self.cfg
    }

    /// Outstanding data misses (diagnostics; bounded by the LSQ). Reads
    /// the wakeup index's total: the waiter chains are the only place a
    /// waiting ROB entry can live, so this count cannot drift from them.
    pub fn outstanding_data_misses(&self) -> usize {
        self.wakeup.waiting()
    }

    /// Whether fetch is currently stalled on an instruction miss.
    pub fn fetch_stalled(&self) -> bool {
        self.stall_line != NO_LINE
    }

    /// Whether the core may sleep from cycle `next` on: `Some(wake)` when
    /// every tick from `next` until `wake` (or, for [`Wake::Fill`], until
    /// the next [`Core::fill_data`]/[`Core::fill_ifetch`]) would change
    /// nothing but the counters [`Core::credit_sleep`] applies in bulk.
    ///
    /// That holds when the ROB head cannot retire at `next` and dispatch
    /// is provably stuck: (a) fetch is stalled on an L1-I miss; (b) the
    /// ROB is full; (c) the staged instruction is a dependent load while
    /// data misses are outstanding; or (d) the staged instruction is a
    /// memory op while the LSQ is full. Cases (c) and (d) also need the
    /// staged instruction to sit in the resolved fetch line, so its
    /// dispatch attempt probes no L1-I. A staged access that re-probes a
    /// full L1 MSHR file stays awake: each retry counts as blocked.
    pub fn sleep_until(&self, next: Cycle) -> Option<Wake> {
        let wake = match self.rob.front() {
            None => Wake::Fill,
            Some(slot) if slot.is_waiting() => Wake::Fill,
            Some(slot) if slot.retirable(next) => return None,
            Some(slot) => Wake::At(slot.ready_at()),
        };
        let stuck = self.stall_line != NO_LINE || self.rob.is_full() || self.staged_is_blocked();
        stuck.then_some(wake)
    }

    /// Cases (c) and (d) of [`Core::sleep_until`]: the staged instruction
    /// is refused dispatch before it touches either L1, and only a data
    /// fill (shrinking the outstanding-miss count) can change that.
    fn staged_is_blocked(&self) -> bool {
        let Some(instr) = &self.staged else {
            return false;
        };
        if instr.fetch_line.line_index() != self.fetch_line {
            return false;
        }
        let waiting = self.wakeup.waiting();
        match instr.op {
            Op::Load {
                dependent: true, ..
            } if waiting > 0 => true,
            Op::Load { .. } | Op::Store { .. } => waiting >= self.cfg.lsq_entries,
            Op::Alu { .. } => false,
        }
    }

    /// Applies `delta` slept cycles in one step: exactly what `delta`
    /// consecutive [`Core::tick`] calls add in a state
    /// [`Core::sleep_until`] allowed to sleep — `cycles`, plus
    /// `fetch_stall_cycles` while fetch is stalled and `mem_stall_cycles`
    /// while the ROB head waits on data. Must be applied before a fill
    /// changes that state.
    pub fn credit_sleep(&mut self, delta: u64) {
        self.stats.cycles.add(delta);
        if self.stall_line != NO_LINE {
            self.stats.fetch_stall_cycles.add(delta);
        }
        if self.rob.front().is_some_and(|slot| slot.is_waiting()) {
            self.stats.mem_stall_cycles.add(delta);
        }
    }

    /// Advances one cycle: retires completed instructions and dispatches
    /// new ones; any L1 misses needing the interconnect are appended to
    /// `requests`.
    ///
    /// Instructions are consumed from the core's internal block and the
    /// `source` trait object is crossed only when the block drains (one
    /// [`InstructionSource::refill`] per [`crate::source::BLOCK_CAP`]
    /// instructions). [`Core::tick_reference`] keeps the per-instruction
    /// path as the differential oracle.
    pub fn tick(
        &mut self,
        now: Cycle,
        source: &mut dyn InstructionSource,
        requests: &mut Vec<MissRequest>,
    ) {
        self.tick_impl(now, source, requests, true);
    }

    /// The per-instruction reference tick: identical to [`Core::tick`]
    /// except that every fetched instruction crosses the source trait
    /// object individually. Kept as the oracle for differential testing
    /// of the block-based delivery path (and as the honest baseline for
    /// its microbenchmark). Any instructions already buffered in the
    /// block are drained first, so the two tick flavours may be mixed on
    /// one core without perturbing the consumed stream.
    pub fn tick_reference(
        &mut self,
        now: Cycle,
        source: &mut dyn InstructionSource,
        requests: &mut Vec<MissRequest>,
    ) {
        self.tick_impl(now, source, requests, false);
    }

    fn tick_impl(
        &mut self,
        now: Cycle,
        source: &mut dyn InstructionSource,
        requests: &mut Vec<MissRequest>,
        use_block: bool,
    ) {
        self.stats.cycles.incr();
        self.retire(now);
        if self.stall_line != NO_LINE {
            self.stats.fetch_stall_cycles.incr();
        } else {
            self.dispatch(now, source, requests, use_block);
        }
    }

    fn retire(&mut self, now: Cycle) {
        // Fast path: one integer compare per retired entry (a waiting
        // slot's sentinel completion cycle can never be `<= now`).
        let mut retired = 0;
        while retired < self.cfg.width {
            let Some(slot) = self.rob.front() else { break };
            if slot.retirable(now) {
                self.rob.pop_front();
                self.stats.retired.incr();
                self.note_retire(now);
                retired += 1;
            } else {
                if retired == 0 && slot.is_waiting() {
                    self.stats.mem_stall_cycles.incr();
                }
                break;
            }
        }
    }

    fn dispatch(
        &mut self,
        now: Cycle,
        source: &mut dyn InstructionSource,
        requests: &mut Vec<MissRequest>,
        use_block: bool,
    ) {
        for _ in 0..self.cfg.width {
            if self.rob.is_full() {
                break;
            }
            let instr = match self.staged.take() {
                Some(i) => i,
                // The reference path still drains buffered instructions
                // first: they are the next positions of the stream, and
                // skipping them would tear the sequence when the two tick
                // flavours are mixed on one core.
                None if use_block => self.block.take(source),
                None => match self.block.pop() {
                    Some(i) => i,
                    None => source.next_instr(),
                },
            };
            // Instruction-fetch side: crossing into a new line costs an
            // L1-I access. The current line is held as a resolved index,
            // so staying within it — the overwhelmingly common case — is
            // one compare; a crossing decodes the new line's set base
            // once and caches it for blocked-retry re-probes.
            let line_idx = instr.fetch_line.line_index();
            if line_idx != self.fetch_line {
                let set_base = if self.probe_line == line_idx {
                    self.probe_set_base
                } else {
                    let b = self.l1i.set_base_of(line_idx);
                    self.probe_line = line_idx;
                    self.probe_set_base = b;
                    b
                };
                match self.l1i.access_indexed(line_idx, set_base, false, 0) {
                    L1Access::Hit => {
                        self.fetch_line = line_idx;
                    }
                    L1Access::Miss => {
                        self.stats.ifetch_misses.incr();
                        requests.push(MissRequest {
                            line: Addr::from_line_index(line_idx),
                            kind: AccessKind::InstrFetch,
                        });
                        self.stall_line = line_idx;
                        self.stall_started = now;
                        self.staged = Some(instr);
                        return;
                    }
                    L1Access::MergedMiss => {
                        self.stall_line = line_idx;
                        self.stall_started = now;
                        self.staged = Some(instr);
                        return;
                    }
                    L1Access::Blocked => {
                        self.staged = Some(instr);
                        return;
                    }
                }
            }
            match instr.op {
                Op::Alu { latency } => {
                    self.rob.push_ready(now + latency.max(1) as u64);
                }
                Op::Load { addr, dependent } => {
                    if dependent && self.wakeup.waiting() > 0 {
                        // Dependent load: wait for earlier misses (low-MLP
                        // behaviour of scale-out workloads).
                        self.staged = Some(instr);
                        return;
                    }
                    if !self.try_dispatch_mem(addr, AccessKind::Load, now, requests) {
                        self.staged = Some(instr);
                        return;
                    }
                }
                Op::Store { addr } => {
                    if !self.try_dispatch_mem(addr, AccessKind::Store, now, requests) {
                        self.staged = Some(instr);
                        return;
                    }
                }
            }
            // Reached only when the instruction actually entered the ROB
            // this cycle (every non-dispatch path above returns).
            self.note_dispatch(now);
        }
    }

    /// Returns false if the access could not be dispatched this cycle.
    fn try_dispatch_mem(
        &mut self,
        addr: Addr,
        kind: AccessKind,
        now: Cycle,
        requests: &mut Vec<MissRequest>,
    ) -> bool {
        if self.wakeup.waiting() >= self.cfg.lsq_entries {
            return false;
        }
        match self.l1d.access(addr, kind.is_write(), 0) {
            L1Access::Hit => {
                self.rob.push_ready(now + self.l1d.latency());
                true
            }
            L1Access::Miss => {
                self.stats.data_misses.incr();
                requests.push(MissRequest {
                    line: addr.line(),
                    kind,
                });
                let slot = self.rob.push_waiting();
                self.wakeup.enqueue(addr.line_index(), slot, &mut self.rob);
                true
            }
            L1Access::MergedMiss => {
                let slot = self.rob.push_waiting();
                self.wakeup.enqueue(addr.line_index(), slot, &mut self.rob);
                true
            }
            L1Access::Blocked => false,
        }
    }

    /// Delivers a data line (completing the GetS/GetX the chip sent for
    /// it): fills the L1-D and wakes exactly the ROB entries chained on
    /// the line in the wakeup index — no scan of the other entries.
    /// Returns the evicted victim, if any — dirty victims must be written
    /// back to the home LLC tile by the caller.
    pub fn fill_data(&mut self, line: Addr, now: Cycle) -> Option<nocout_mem::cache::Evicted> {
        let evicted = if self.l1d.miss_pending(line) {
            self.waiter_scratch.clear();
            self.l1d.fill(line, false, &mut self.waiter_scratch)
        } else {
            None
        };
        let ready = now + self.l1d.latency();
        // Waking the chain also retires its count from the outstanding
        // total (stale fills resolve no chain and change nothing).
        self.wakeup.wake_line(line.line_index(), ready, &mut self.rob);
        evicted
    }

    /// Delivers an instruction line: fills the L1-I and clears the fetch
    /// stall if it was waiting on this line, charging the observed
    /// miss-to-fill interval to
    /// [`CoreStats::ifetch_fill_wait_cycles`].
    pub fn fill_ifetch(&mut self, line: Addr, now: Cycle) {
        if self.l1i.miss_pending(line) {
            self.waiter_scratch.clear();
            let _ = self.l1i.fill(line, false, &mut self.waiter_scratch);
        }
        let idx = line.line_index();
        if self.stall_line == idx {
            self.stats
                .ifetch_fill_wait_cycles
                .add(now.raw().saturating_sub(self.stall_started.raw()));
            self.stall_line = NO_LINE;
            self.fetch_line = idx;
        }
    }

    /// Resets the statistics at a warmup/measurement boundary. Prefer
    /// this over resetting the `stats` field directly: a fetch stall in
    /// flight at the boundary is re-anchored to `now`, so the
    /// [`CoreStats::ifetch_fill_wait_cycles`] its fill eventually books
    /// covers only the post-reset window (consistent with how
    /// `fetch_stall_cycles` accrues per in-window tick).
    pub fn reset_stats(&mut self, now: Cycle) {
        self.stats.reset();
        if self.stall_line != NO_LINE {
            self.stall_started = now;
        }
    }

    /// Warms the L1-I with a line (checkpoint-style initialization).
    pub fn warm_l1i(&mut self, line: Addr) {
        self.l1i.warm(line);
    }

    /// Warms the L1-D with a line (checkpoint-style initialization).
    pub fn warm_l1d(&mut self, line: Addr) {
        self.l1d.warm(line);
    }

    /// Invalidation snoop against the L1-D; returns `(present, dirty)`.
    pub fn snoop_invalidate(&mut self, line: Addr) -> (bool, bool) {
        self.l1d.snoop_invalidate(line)
    }

    /// Downgrade snoop (forward-read) against the L1-D; returns presence.
    pub fn snoop_downgrade(&mut self, line: Addr) -> bool {
        self.l1d.snoop_downgrade(line)
    }

    /// Read access to the L1-I (diagnostics).
    pub fn l1i(&self) -> &L1Cache {
        &self.l1i
    }

    /// Read access to the L1-D (diagnostics).
    pub fn l1d(&self) -> &L1Cache {
        &self.l1d
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::ScriptedSource;

    fn alu_stream() -> ScriptedSource {
        ScriptedSource::new(vec![FetchedInstr {
            fetch_line: Addr(0),
            op: Op::Alu { latency: 1 },
        }])
    }

    fn warm_core(src: &mut ScriptedSource) -> (Core, Cycle, Vec<MissRequest>) {
        let mut core = Core::new(CoreConfig::a15());
        let mut out = Vec::new();
        let now = Cycle(0);
        core.tick(now, src, &mut out);
        for r in out.drain(..) {
            match r.kind {
                AccessKind::InstrFetch => core.fill_ifetch(r.line, now),
                _ => {
                    core.fill_data(r.line, now);
                }
            }
        }
        (core, now, out)
    }

    #[test]
    fn alu_stream_reaches_full_width() {
        let mut src = alu_stream();
        let (mut core, mut now, mut out) = warm_core(&mut src);
        core.stats.reset();
        for _ in 0..1000 {
            now += 1;
            core.tick(now, &mut src, &mut out);
            assert!(out.is_empty());
        }
        assert!(
            core.stats.ipc() > 2.9,
            "3-wide ALU stream should near width; got {}",
            core.stats.ipc()
        );
    }

    #[test]
    fn ifetch_miss_stalls_until_fill() {
        let mut src = ScriptedSource::new(vec![
            FetchedInstr {
                fetch_line: Addr(0),
                op: Op::Alu { latency: 1 },
            },
            FetchedInstr {
                fetch_line: Addr(64),
                op: Op::Alu { latency: 1 },
            },
        ]);
        let mut core = Core::new(CoreConfig::a15());
        let mut out = Vec::new();
        core.tick(Cycle(0), &mut src, &mut out);
        assert_eq!(out.len(), 1);
        assert!(core.fetch_stalled());
        // Stalled for 10 cycles: no new requests, no progress.
        for t in 1..=10 {
            let before = core.stats.retired.value();
            core.tick(Cycle(t), &mut src, &mut out);
            assert_eq!(core.stats.retired.value(), before);
        }
        assert_eq!(out.len(), 1);
        core.fill_ifetch(Addr(0), Cycle(10));
        assert!(!core.fetch_stalled());
        out.clear();
        core.tick(Cycle(11), &mut src, &mut out);
        // Immediately misses on the second line.
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].line, Addr(64));
    }

    #[test]
    fn fetch_stall_cycles_counted() {
        let mut src = alu_stream();
        let mut core = Core::new(CoreConfig::a15());
        let mut out = Vec::new();
        core.tick(Cycle(0), &mut src, &mut out);
        for t in 1..=20 {
            core.tick(Cycle(t), &mut src, &mut out);
        }
        assert_eq!(core.stats.fetch_stall_cycles.value(), 20);
    }

    #[test]
    fn independent_loads_overlap_up_to_lsq() {
        // Stream of independent loads to distinct lines.
        let script: Vec<FetchedInstr> = (0..64)
            .map(|i| FetchedInstr {
                fetch_line: Addr(0),
                op: Op::Load {
                    addr: Addr(0x10000 + i * 64),
                    dependent: false,
                },
            })
            .collect();
        let mut src = ScriptedSource::new(script);
        let mut core = Core::new(CoreConfig::a15());
        let mut out = Vec::new();
        core.tick(Cycle(0), &mut src, &mut out);
        core.fill_ifetch(Addr(0), Cycle(0));
        for t in 1..=20 {
            core.tick(Cycle(t), &mut src, &mut out);
        }
        let loads: Vec<_> = out
            .iter()
            .filter(|r| r.kind == AccessKind::Load)
            .collect();
        // L1D MSHR capacity (8) gates below the 16-entry LSQ.
        assert_eq!(loads.len(), 8);
        assert_eq!(core.outstanding_data_misses(), 8);
    }

    #[test]
    fn dependent_loads_serialize() {
        let script: Vec<FetchedInstr> = (0..64)
            .map(|i| FetchedInstr {
                fetch_line: Addr(0),
                op: Op::Load {
                    addr: Addr(0x10000 + i * 64),
                    dependent: true,
                },
            })
            .collect();
        let mut src = ScriptedSource::new(script);
        let mut core = Core::new(CoreConfig::a15());
        let mut out = Vec::new();
        core.tick(Cycle(0), &mut src, &mut out);
        core.fill_ifetch(Addr(0), Cycle(0));
        for t in 1..=20 {
            core.tick(Cycle(t), &mut src, &mut out);
        }
        let loads = out.iter().filter(|r| r.kind == AccessKind::Load).count();
        assert_eq!(loads, 1, "dependent loads expose no MLP");
    }

    #[test]
    fn fill_wakes_waiting_entries_and_retires() {
        let mut src = ScriptedSource::new(vec![FetchedInstr {
            fetch_line: Addr(0),
            op: Op::Load {
                addr: Addr(0x5000),
                dependent: false,
            },
        }]);
        let mut core = Core::new(CoreConfig::a15());
        let mut out = Vec::new();
        core.tick(Cycle(0), &mut src, &mut out);
        core.fill_ifetch(Addr(0), Cycle(0));
        out.clear();
        core.tick(Cycle(1), &mut src, &mut out);
        assert!(out.iter().any(|r| r.kind == AccessKind::Load));
        let before = core.stats.retired.value();
        core.fill_data(Addr(0x5000), Cycle(5));
        // Ready at 5 + L1 latency; retire happens on the next tick after.
        for t in 6..=10 {
            core.tick(Cycle(t), &mut src, &mut out);
        }
        assert!(core.stats.retired.value() > before);
    }

    #[test]
    fn multi_waiter_same_line_fill_wakes_all_in_one_step() {
        // Two independent loads to the same line: the second merges into
        // the first's MSHR and both ROB entries chain on one wakeup
        // line. The single fill must wake both, and the outstanding-MLP
        // count — owned by the wakeup index — must go 2 → 0 in that one
        // step (the pre-refactor code decremented it once per matching
        // entry inside the full-ROB scan).
        let script = vec![
            FetchedInstr {
                fetch_line: Addr(0),
                op: Op::Load {
                    addr: Addr(0x5000),
                    dependent: false,
                },
            },
            FetchedInstr {
                fetch_line: Addr(0),
                op: Op::Load {
                    addr: Addr(0x5008),
                    dependent: false,
                },
            },
            FetchedInstr {
                fetch_line: Addr(0),
                op: Op::Alu { latency: 1 },
            },
        ];
        let mut src = ScriptedSource::new(script);
        let mut core = Core::new(CoreConfig::a15());
        let mut out = Vec::new();
        core.tick(Cycle(0), &mut src, &mut out);
        core.fill_ifetch(Addr(0), Cycle(0));
        out.clear();
        core.tick(Cycle(1), &mut src, &mut out);
        // One miss request on the wire, two entries waiting on its line.
        let loads = out.iter().filter(|r| r.kind == AccessKind::Load).count();
        assert_eq!(loads, 1, "second load must merge, not re-request");
        assert_eq!(core.outstanding_data_misses(), 2);
        core.fill_data(Addr(0x5000), Cycle(5));
        assert_eq!(
            core.outstanding_data_misses(),
            0,
            "the fill retires the whole chain from the outstanding count"
        );
        let before = core.stats.retired.value();
        for t in 6..=10 {
            core.tick(Cycle(t), &mut src, &mut out);
        }
        assert!(
            core.stats.retired.value() >= before + 2,
            "both woken loads must retire"
        );
    }

    #[test]
    fn ifetch_fill_wait_cycles_record_miss_to_fill_interval() {
        let mut src = alu_stream();
        let mut core = Core::new(CoreConfig::a15());
        let mut out = Vec::new();
        // Miss at cycle 0; the fill lands at cycle 10.
        core.tick(Cycle(0), &mut src, &mut out);
        assert!(core.fetch_stalled());
        core.fill_ifetch(Addr(0), Cycle(10));
        assert_eq!(core.stats.ifetch_fill_wait_cycles.value(), 10);
        // A stale fill for a line fetch never stalled on adds nothing.
        core.fill_ifetch(Addr(0x4000), Cycle(25));
        assert_eq!(core.stats.ifetch_fill_wait_cycles.value(), 10);
    }

    #[test]
    fn reset_stats_reanchors_inflight_stall_interval() {
        // A stall spanning the warmup boundary must book only its
        // post-reset portion into the fill-wait counter.
        let mut src = alu_stream();
        let mut core = Core::new(CoreConfig::a15());
        let mut out = Vec::new();
        core.tick(Cycle(0), &mut src, &mut out);
        assert!(core.fetch_stalled());
        core.reset_stats(Cycle(50));
        core.fill_ifetch(Addr(0), Cycle(60));
        assert_eq!(core.stats.ifetch_fill_wait_cycles.value(), 10);
    }

    #[test]
    fn store_miss_requests_getx_kind() {
        let mut src = ScriptedSource::new(vec![FetchedInstr {
            fetch_line: Addr(0),
            op: Op::Store { addr: Addr(0x9000) },
        }]);
        let mut core = Core::new(CoreConfig::a15());
        let mut out = Vec::new();
        core.tick(Cycle(0), &mut src, &mut out);
        core.fill_ifetch(Addr(0), Cycle(0));
        out.clear();
        core.tick(Cycle(1), &mut src, &mut out);
        assert!(out.iter().any(|r| r.kind == AccessKind::Store));
    }

    #[test]
    fn mem_stall_cycles_accumulate_when_head_waits() {
        let mut src = ScriptedSource::new(vec![FetchedInstr {
            fetch_line: Addr(0),
            op: Op::Load {
                addr: Addr(0x5000),
                dependent: true,
            },
        }]);
        let mut core = Core::new(CoreConfig::a15());
        let mut out = Vec::new();
        core.tick(Cycle(0), &mut src, &mut out);
        core.fill_ifetch(Addr(0), Cycle(0));
        for t in 1..=30 {
            core.tick(Cycle(t), &mut src, &mut out);
        }
        assert!(core.stats.mem_stall_cycles.value() > 10);
    }

    #[test]
    fn rob_fills_and_blocks_dispatch() {
        // A head-of-ROB load that never completes must cap the ROB at its
        // configured size while independent work piles behind it.
        let script = vec![
            FetchedInstr {
                fetch_line: Addr(0),
                op: Op::Load {
                    addr: Addr(0x7000),
                    dependent: false,
                },
            },
            FetchedInstr {
                fetch_line: Addr(0),
                op: Op::Alu { latency: 1 },
            },
        ];
        let mut src = ScriptedSource::new(script);
        let mut core = Core::new(CoreConfig::a15());
        let mut out = Vec::new();
        core.tick(Cycle(0), &mut src, &mut out);
        core.fill_ifetch(Addr(0), Cycle(0));
        for t in 1..200 {
            core.tick(Cycle(t), &mut src, &mut out);
        }
        // Nothing retires past the stuck load; ROB is bounded.
        assert_eq!(core.stats.retired.value(), 0);
        assert!(core.stats.mem_stall_cycles.value() > 100);
    }

    #[test]
    fn warm_l1i_prevents_initial_stall() {
        let mut src = alu_stream();
        let mut core = Core::new(CoreConfig::a15());
        core.warm_l1i(Addr(0));
        let mut out = Vec::new();
        core.tick(Cycle(0), &mut src, &mut out);
        assert!(out.is_empty(), "warmed line must not miss");
        assert!(!core.fetch_stalled());
        assert!(core.stats.retired.value() == 0); // retires next cycle
        core.tick(Cycle(1), &mut src, &mut out);
        core.tick(Cycle(2), &mut src, &mut out);
        assert!(core.stats.retired.value() > 0);
    }

    #[test]
    fn stale_fill_for_unrequested_line_is_harmless() {
        let mut core = Core::new(CoreConfig::a15());
        // No outstanding miss: fills must not corrupt state or panic.
        assert!(core.fill_data(Addr(0xAB00), Cycle(3)).is_none());
        core.fill_ifetch(Addr(0xCD00), Cycle(3));
        assert_eq!(core.outstanding_data_misses(), 0);
    }

    #[test]
    fn mixed_alu_and_load_stream_sustains_mlp() {
        // Independent loads interleaved with ALU work: multiple misses in
        // flight despite the in-order head.
        let script: Vec<FetchedInstr> = (0..32)
            .flat_map(|i| {
                vec![
                    FetchedInstr {
                        fetch_line: Addr(0),
                        op: Op::Load {
                            addr: Addr(0x2_0000 + i * 64),
                            dependent: false,
                        },
                    },
                    FetchedInstr {
                        fetch_line: Addr(0),
                        op: Op::Alu { latency: 1 },
                    },
                ]
            })
            .collect();
        let mut src = ScriptedSource::new(script);
        let mut core = Core::new(CoreConfig::a15());
        let mut out = Vec::new();
        core.tick(Cycle(0), &mut src, &mut out);
        core.fill_ifetch(Addr(0), Cycle(0));
        for t in 1..=15 {
            core.tick(Cycle(t), &mut src, &mut out);
        }
        assert!(
            core.outstanding_data_misses() >= 4,
            "expected MLP, got {}",
            core.outstanding_data_misses()
        );
    }

    /// Asserts the counters a sleep may credit agree between two cores.
    fn assert_counters_match(dense: &Core, sparse: &Core) {
        let (d, s) = (&dense.stats, &sparse.stats);
        assert_eq!(d.cycles.value(), s.cycles.value(), "cycles");
        assert_eq!(d.retired.value(), s.retired.value(), "retired");
        assert_eq!(
            d.fetch_stall_cycles.value(),
            s.fetch_stall_cycles.value(),
            "fetch stall"
        );
        assert_eq!(
            d.mem_stall_cycles.value(),
            s.mem_stall_cycles.value(),
            "mem stall"
        );
        assert_eq!(
            dense.l1d().blocked.value(),
            sparse.l1d().blocked.value(),
            "L1-D blocked"
        );
    }

    #[test]
    fn sleep_credit_matches_per_cycle_stall() {
        // Two identical stalled cores: one ticked cycle by cycle, one
        // asleep and credited in a single step. Counters must match.
        let build = || {
            let mut src = ScriptedSource::new(vec![
                FetchedInstr {
                    fetch_line: Addr(0),
                    op: Op::Load {
                        addr: Addr(0x5000),
                        dependent: false,
                    },
                },
                FetchedInstr {
                    fetch_line: Addr(64),
                    op: Op::Alu { latency: 1 },
                },
            ]);
            let mut core = Core::new(CoreConfig::a15());
            let mut out = Vec::new();
            core.tick(Cycle(0), &mut src, &mut out);
            core.fill_ifetch(Addr(0), Cycle(0));
            core.tick(Cycle(1), &mut src, &mut out);
            core.tick(Cycle(2), &mut src, &mut out);
            (core, src)
        };
        let (mut dense, mut src_a) = build();
        let (mut sparse, _src_b) = build();
        // Both are now fetch-stalled on line 64 with the load in the ROB:
        // case (a) with a waiting head, so only a fill wakes them.
        assert_eq!(sparse.sleep_until(Cycle(3)), Some(Wake::Fill));
        let mut out = Vec::new();
        for t in 3..40 {
            dense.tick(Cycle(t), &mut src_a, &mut out);
        }
        sparse.credit_sleep(37);
        assert_counters_match(&dense, &sparse);
        assert!(sparse.stats.mem_stall_cycles.value() >= 37);
    }

    #[test]
    fn dependent_load_behind_a_miss_sleeps_until_its_fill() {
        // Case (c): a dependent load staged behind an outstanding miss
        // cannot dispatch until the fill; sleeping through the wait and
        // crediting it, then filling both cores, must match dense ticks.
        let build = || {
            let load = |addr| FetchedInstr {
                fetch_line: Addr(0),
                op: Op::Load {
                    addr: Addr(addr),
                    dependent: true,
                },
            };
            let mut src = ScriptedSource::new(vec![load(0x5000), load(0x6000)]);
            let mut core = Core::new(CoreConfig::a15());
            let mut out = Vec::new();
            core.tick(Cycle(0), &mut src, &mut out);
            core.fill_ifetch(Addr(0), Cycle(0));
            core.tick(Cycle(1), &mut src, &mut out);
            (core, src)
        };
        let (mut dense, mut src_a) = build();
        let (mut sparse, mut src_b) = build();
        assert!(!sparse.fetch_stalled());
        assert_eq!(sparse.sleep_until(Cycle(2)), Some(Wake::Fill));
        let mut out = Vec::new();
        for t in 2..30 {
            dense.tick(Cycle(t), &mut src_a, &mut out);
        }
        sparse.credit_sleep(28);
        assert_counters_match(&dense, &sparse);
        // The fill at 29 wakes both; from 30 on they tick in lockstep.
        dense.fill_data(Addr(0x5000), Cycle(29));
        sparse.fill_data(Addr(0x5000), Cycle(29));
        let (mut out_a, mut out_b) = (Vec::new(), Vec::new());
        for t in 30..40 {
            dense.tick(Cycle(t), &mut src_a, &mut out_a);
            sparse.tick(Cycle(t), &mut src_b, &mut out_b);
        }
        assert_eq!(out_a, out_b, "post-wake request streams");
        assert_counters_match(&dense, &sparse);
    }

    #[test]
    fn blocked_mshr_retry_stays_awake() {
        // Nine independent loads to distinct lines: the L1-D MSHR file
        // (8) fills before the 16-entry LSQ, so the ninth re-probes the
        // L1-D every cycle and bumps its blocked counter — not a sleep.
        let script: Vec<FetchedInstr> = (0..9)
            .map(|i| FetchedInstr {
                fetch_line: Addr(0),
                op: Op::Load {
                    addr: Addr(0x10000 + i * 64),
                    dependent: false,
                },
            })
            .collect();
        let mut src = ScriptedSource::new(script);
        let mut core = Core::new(CoreConfig::a15());
        let mut out = Vec::new();
        core.tick(Cycle(0), &mut src, &mut out);
        core.fill_ifetch(Addr(0), Cycle(0));
        for t in 1..=5 {
            core.tick(Cycle(t), &mut src, &mut out);
        }
        let blocked = core.l1d().blocked.value();
        assert!(blocked > 0, "the ninth load must be blocked");
        assert_eq!(core.sleep_until(Cycle(6)), None);
        core.tick(Cycle(6), &mut src, &mut out);
        assert_eq!(core.l1d().blocked.value(), blocked + 1);
    }

    /// A looping stream with fetch-line transitions, loads, stores and
    /// mixed ALU latencies — enough structure to exercise stalls, fills
    /// and refill boundaries in the differential tests below.
    fn varied_script() -> Vec<FetchedInstr> {
        (0..23u64)
            .map(|i| FetchedInstr {
                fetch_line: Addr((i / 4) * 64),
                op: match i % 5 {
                    0 => Op::Alu { latency: 1 },
                    1 => Op::Alu { latency: 3 },
                    2 => Op::Load {
                        addr: Addr(0x3_0000 + (i % 11) * 64),
                        dependent: i % 2 == 0,
                    },
                    3 => Op::Store {
                        addr: Addr(0x5_0000 + (i % 7) * 64),
                    },
                    _ => Op::Load {
                        addr: Addr(0x7_0000 + i * 64),
                        dependent: false,
                    },
                },
            })
            .collect()
    }

    /// Drives a core for `cycles`, filling every miss after a fixed
    /// latency, with the chosen tick flavour (or a mix).
    fn drive(cycles: u64, flavour: impl Fn(u64) -> bool) -> (CoreStats, Vec<MissRequest>) {
        let mut src = ScriptedSource::new(varied_script());
        let mut core = Core::new(CoreConfig::a15());
        let mut out = Vec::new();
        let mut log = Vec::new();
        let mut pending: Vec<(Cycle, MissRequest)> = Vec::new();
        for t in 0..cycles {
            let now = Cycle(t);
            pending.retain(|(at, r)| {
                if *at <= now {
                    match r.kind {
                        AccessKind::InstrFetch => core.fill_ifetch(r.line, now),
                        _ => {
                            core.fill_data(r.line, now);
                        }
                    }
                    false
                } else {
                    true
                }
            });
            out.clear();
            if flavour(t) {
                core.tick(now, &mut src, &mut out);
            } else {
                core.tick_reference(now, &mut src, &mut out);
            }
            for r in out.drain(..) {
                log.push(r);
                pending.push((now + 18, r));
            }
        }
        (core.stats, log)
    }

    #[test]
    fn block_tick_is_bit_identical_to_per_instruction_reference() {
        let (blocked, blocked_reqs) = drive(3_000, |_| true);
        let (reference, reference_reqs) = drive(3_000, |_| false);
        assert_eq!(blocked_reqs, reference_reqs, "miss streams diverged");
        assert_eq!(blocked.retired.value(), reference.retired.value());
        assert_eq!(blocked.cycles.value(), reference.cycles.value());
        assert_eq!(
            blocked.fetch_stall_cycles.value(),
            reference.fetch_stall_cycles.value()
        );
        assert_eq!(
            blocked.mem_stall_cycles.value(),
            reference.mem_stall_cycles.value()
        );
        assert_eq!(blocked.ifetch_misses.value(), reference.ifetch_misses.value());
        assert_eq!(blocked.data_misses.value(), reference.data_misses.value());
    }

    #[test]
    fn mixed_tick_flavours_preserve_the_stream() {
        // Alternating between block and per-instruction ticking mid-run
        // must consume exactly the same sequence: the reference path
        // drains the block's buffered instructions before touching the
        // source again.
        let (mixed, mixed_reqs) = drive(3_000, |t| (t / 97) % 2 == 0);
        let (reference, reference_reqs) = drive(3_000, |_| false);
        assert_eq!(mixed_reqs, reference_reqs, "miss streams diverged");
        assert_eq!(mixed.retired.value(), reference.retired.value());
        assert_eq!(mixed.data_misses.value(), reference.data_misses.value());
    }

    /// A core stalled on an ifetch miss with one completed-but-unretired
    /// ALU op in the ROB: it may sleep until the op's completion cycle.
    fn stalled_until_core() -> (Core, ScriptedSource, Cycle) {
        let mut src = ScriptedSource::new(vec![
            FetchedInstr {
                fetch_line: Addr(0),
                op: Op::Alu { latency: 4 },
            },
            FetchedInstr {
                fetch_line: Addr(64),
                op: Op::Alu { latency: 1 },
            },
        ]);
        let mut core = Core::new(CoreConfig::a15());
        let mut out = Vec::new();
        core.tick(Cycle(0), &mut src, &mut out);
        core.fill_ifetch(Addr(0), Cycle(0));
        out.clear();
        // Dispatches the latency-4 ALU op, then stalls fetching line 64.
        core.tick(Cycle(1), &mut src, &mut out);
        assert!(core.fetch_stalled());
        (core, src, Cycle(1))
    }

    #[test]
    fn credit_sleep_zero_delta_is_a_no_op() {
        let (mut core, _src, _) = stalled_until_core();
        let before_cycles = core.stats.cycles.value();
        let before_stall = core.stats.fetch_stall_cycles.value();
        core.credit_sleep(0);
        assert_eq!(core.stats.cycles.value(), before_cycles);
        assert_eq!(core.stats.fetch_stall_cycles.value(), before_stall);
    }

    #[test]
    fn sleep_to_exact_wake_cycle_matches_dense_ticking() {
        // The ROB head becomes ready at some cycle `w`: the core sleeps
        // strictly up to (not across) `w`. Crediting exactly the slept
        // cycles and ticking from `w` on must match dense per-cycle
        // ticking bit for bit.
        let (mut dense_core, mut dense_src, start) = stalled_until_core();
        let (mut sparse_core, mut sparse_src, _) = stalled_until_core();
        let next = start + 1;
        let wake = match sparse_core.sleep_until(next) {
            Some(Wake::At(at)) => at,
            other => panic!("expected a timed wake, got {other:?}"),
        };
        // Not sleepable from the wake cycle itself: the head retires there.
        assert_eq!(sparse_core.sleep_until(wake), None);
        let mut out = Vec::new();
        for t in next.raw()..wake.raw() {
            dense_core.tick(Cycle(t), &mut dense_src, &mut out);
        }
        sparse_core.credit_sleep(wake.raw() - next.raw());
        // From the wake cycle onward both must be ticked normally.
        for t in wake.raw()..wake.raw() + 10 {
            dense_core.tick(Cycle(t), &mut dense_src, &mut out);
            sparse_core.tick(Cycle(t), &mut sparse_src, &mut out);
        }
        assert_counters_match(&dense_core, &sparse_core);
    }

    #[test]
    fn sleeping_fetch_stalled_core_counts_pure_stall() {
        // Fetch-stalled with an empty ROB (nothing will ever retire until
        // the fill arrives): only a fill wakes it, any delta may be
        // credited, and only the stall counters move.
        let mut src = alu_stream();
        let mut core = Core::new(CoreConfig::a15());
        let mut out = Vec::new();
        core.tick(Cycle(0), &mut src, &mut out);
        assert!(core.fetch_stalled());
        assert_eq!(core.sleep_until(Cycle(1)), Some(Wake::Fill));
        let retired_before = core.stats.retired.value();
        core.credit_sleep(1_000);
        assert_eq!(core.stats.retired.value(), retired_before);
        assert_eq!(core.stats.fetch_stall_cycles.value(), 1_000);
        assert_eq!(core.stats.cycles.value(), 1_001);
        // No data miss at the ROB head, so no memory-stall cycles.
        assert_eq!(core.stats.mem_stall_cycles.value(), 0);
    }

    #[test]
    fn dispatching_core_does_not_sleep() {
        let mut src = alu_stream();
        let (core, now, _) = warm_core(&mut src);
        assert_eq!(core.sleep_until(now + 1), None);
    }

    #[test]
    fn snoops_affect_l1d() {
        let mut src = ScriptedSource::new(vec![FetchedInstr {
            fetch_line: Addr(0),
            op: Op::Store { addr: Addr(0x9000) },
        }]);
        let mut core = Core::new(CoreConfig::a15());
        let mut out = Vec::new();
        core.tick(Cycle(0), &mut src, &mut out);
        core.fill_ifetch(Addr(0), Cycle(0));
        out.clear();
        core.tick(Cycle(1), &mut src, &mut out);
        core.fill_data(Addr(0x9000), Cycle(5));
        let (present, _) = core.snoop_invalidate(Addr(0x9000));
        assert!(present);
        let (present, _) = core.snoop_invalidate(Addr(0x9000));
        assert!(!present, "second invalidate finds nothing");
    }
}
