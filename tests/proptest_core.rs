//! Property-based differential tests for the core memory-path
//! structures: the ring-buffer ROB + line-indexed wakeup index against a
//! `VecDeque` model of the pre-refactor ROB, and the array-backed L1
//! MSHR file against a `HashMap` model of the pre-refactor MSHRs.
//!
//! These are the structure-level halves of the old-vs-new proof (the
//! chip-level half is `tests/chip_golden_metrics.rs`): every operation
//! sequence must leave the new structures observably identical to the
//! containers they replaced.
//!
//! The last property pins the core's sleep contract: a core that skips
//! every tick `Core::sleep_until` allows, and is credited with
//! `Core::credit_sleep` on wake, is indistinguishable from one ticked
//! every cycle.

use nocout_repro::substrates::cpu::rob::{RingRob, WakeupIndex};
use nocout_repro::substrates::cpu::source::ScriptedSource;
use nocout_repro::substrates::cpu::{Core, CoreConfig, FetchedInstr, MissRequest, Op, Wake};
use nocout_repro::substrates::mem::addr::Addr;
use nocout_repro::substrates::mem::mshr::{MshrFile, MshrRequest};
use nocout_repro::substrates::mem::protocol::AccessKind;
use nocout_repro::substrates::sim::Cycle;
use proptest::prelude::*;
use std::collections::{HashMap, VecDeque};

/// The pre-refactor ROB entry: `VecDeque<RobState>` semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ModelEntry {
    Ready(u64),
    Waiting(u64),
}

const ROB_CAP: usize = 16;

/// One scripted ROB operation (decoded from proptest-generated tuples).
#[derive(Debug, Clone, Copy)]
enum RobOp {
    /// Push a ready entry completing at the cycle.
    PushReady(u64),
    /// Push an entry waiting on the line.
    PushWaiting(u64),
    /// Retire the head if it is ready at the cycle.
    TryPop(u64),
    /// Fill the line, waking its waiters ready at the cycle.
    Fill(u64, u64),
}

fn decode(kind: u8, line: u64, at: u64) -> RobOp {
    match kind % 4 {
        0 => RobOp::PushReady(at),
        1 => RobOp::PushWaiting(line),
        2 => RobOp::TryPop(at),
        _ => RobOp::Fill(line, at),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn ring_rob_matches_vecdeque_model(
        ops in prop::collection::vec((0u8..4, 0u64..6, 1u64..1000), 1..300)
    ) {
        let mut rob = RingRob::new(ROB_CAP);
        let mut wakeup = WakeupIndex::new(8);
        let mut model: VecDeque<ModelEntry> = VecDeque::new();
        for &(kind, line, at) in &ops {
            match decode(kind, line, at) {
                RobOp::PushReady(at) => {
                    if model.len() < ROB_CAP {
                        model.push_back(ModelEntry::Ready(at));
                        rob.push_ready(Cycle(at));
                    }
                }
                RobOp::PushWaiting(line) => {
                    if model.len() < ROB_CAP {
                        model.push_back(ModelEntry::Waiting(line));
                        let slot = rob.push_waiting();
                        wakeup.enqueue(line, slot, &mut rob);
                    }
                }
                RobOp::TryPop(now) => {
                    let model_pops = matches!(
                        model.front(),
                        Some(ModelEntry::Ready(a)) if *a <= now
                    );
                    let ring_pops = rob
                        .front()
                        .is_some_and(|s| s.retirable(Cycle(now)));
                    prop_assert_eq!(model_pops, ring_pops);
                    if model_pops {
                        model.pop_front();
                        rob.pop_front();
                    }
                }
                RobOp::Fill(line, at) => {
                    // Pre-refactor semantics: scan every entry, waking
                    // each one waiting on the line.
                    let mut model_woken = 0usize;
                    for e in &mut model {
                        if *e == ModelEntry::Waiting(line) {
                            *e = ModelEntry::Ready(at);
                            model_woken += 1;
                        }
                    }
                    let ring_woken = wakeup.wake_line(line, Cycle(at), &mut rob);
                    prop_assert_eq!(model_woken, ring_woken);
                }
            }
            // Invariants after every op.
            prop_assert_eq!(model.len(), rob.len());
            let model_waiting = model
                .iter()
                .filter(|e| matches!(e, ModelEntry::Waiting(_)))
                .count();
            prop_assert_eq!(model_waiting, wakeup.waiting());
            match (model.front(), rob.front()) {
                (None, None) => {}
                (Some(ModelEntry::Waiting(_)), Some(s)) => prop_assert!(s.is_waiting()),
                (Some(ModelEntry::Ready(a)), Some(s)) => {
                    prop_assert!(!s.is_waiting());
                    prop_assert_eq!(Cycle(*a), s.ready_at());
                }
                (m, _) => prop_assert!(false, "front mismatch: model {m:?}"),
            }
        }
    }

    #[test]
    fn array_mshrs_match_hashmap_model(
        ops in prop::collection::vec((0u8..3, 0u64..12, any::<bool>()), 1..300)
    ) {
        const CAP: usize = 8;
        let mut file = MshrFile::new(CAP);
        // The pre-refactor structure: line → (waiters, wants_write).
        let mut model: HashMap<u64, (Vec<u64>, bool)> = HashMap::new();
        let mut next_waiter = 0u64;
        let mut scratch = Vec::new();
        for &(kind, line, write) in &ops {
            if kind < 2 {
                // Request (twice as likely as release, so files fill up).
                let waiter = next_waiter;
                next_waiter += 1;
                let expect = if let Some(e) = model.get_mut(&line) {
                    e.0.push(waiter);
                    e.1 |= write;
                    MshrRequest::Merged
                } else if model.len() >= CAP {
                    MshrRequest::Full
                } else {
                    model.insert(line, (vec![waiter], write));
                    MshrRequest::Allocated
                };
                prop_assert_eq!(file.request(line, waiter, write), expect);
            } else if let Some((waiters, wants_write)) = model.remove(&line) {
                scratch.clear();
                let got_write = file.release(line, &mut scratch);
                prop_assert_eq!(&scratch, &waiters, "waiter order must be push order");
                prop_assert_eq!(got_write, wants_write);
            } else {
                // No outstanding miss: release would panic in both
                // implementations; just check membership agrees.
                prop_assert!(!file.contains(line));
            }
            prop_assert_eq!(file.len(), model.len());
            for l in model.keys() {
                prop_assert!(file.contains(*l));
            }
        }
    }
}

/// Decodes one generated instruction. Lines are laid out in a few L1
/// sets (the L1s are 4-way with an 8 KiB set stride) so conflict misses
/// keep recurring as the script loops: two thirds of the instructions
/// sit in one hot fetch line, the rest in eight lines sharing one L1-I
/// set (fetch stalls), and data spans twelve lines in each of four
/// L1-D sets (MSHR-full retries and LSQ-full dispatch stalls).
fn decode_instr(kind: u8, line: u64, data: u64, dep: u8) -> FetchedInstr {
    const SET_STRIDE: u64 = 8 * 1024;
    let fetch_line = if line < 16 {
        Addr(0x100_0040)
    } else {
        Addr(0x100_0000 + (line - 16) * SET_STRIDE)
    };
    let addr = Addr(0x400_0000 + (data % 4) * 64 + (data / 4) * SET_STRIDE);
    let op = match kind {
        0 => Op::Alu { latency: 1 },
        1 => Op::Alu {
            latency: 1 + (data % 4) as u8,
        },
        2..=4 => Op::Load {
            addr,
            dependent: dep == 0,
        },
        _ => Op::Store { addr },
    };
    FetchedInstr { fetch_line, op }
}

/// What a driven core leaves behind: its statistics and both L1s'
/// counters (an MSHR-full retry shows only in `blocked`), its block tail
/// as `(upper bound, count)` buckets, and every request with its cycle.
type CoreRun = (Vec<u64>, Vec<(u64, u64)>, Vec<(u64, MissRequest)>);

fn fingerprint(core: &Core) -> (Vec<u64>, Vec<(u64, u64)>) {
    let s = &core.stats;
    let mut counters = vec![
        s.retired.value(),
        s.cycles.value(),
        s.fetch_stall_cycles.value(),
        s.mem_stall_cycles.value(),
        s.ifetch_misses.value(),
        s.data_misses.value(),
        s.ifetch_fill_wait_cycles.value(),
    ];
    for l1 in [core.l1i(), core.l1d()] {
        counters.extend([
            l1.hits.value(),
            l1.misses.value(),
            l1.merged.value(),
            l1.blocked.value(),
        ]);
    }
    (counters, s.block_latency.iter().collect())
}

/// Drives a core for `cycles`, filling request `k` after
/// `delays[k % delays.len()]` cycles; fills due at a cycle land before
/// that cycle's tick. With `sleep`, the core skips every tick
/// `sleep_until` allows and is credited on its timed wake or its next
/// fill, as the chip does; the statistics are reset mid-run (settling a
/// sleep first) to cover the warmup boundary.
fn drive_core(script: &[FetchedInstr], delays: &[u64], cycles: u64, sleep: bool) -> CoreRun {
    const RESET_AT: u64 = 150;
    let mut src = ScriptedSource::new(script.to_vec());
    let mut core = Core::new(CoreConfig::a15());
    let mut out = Vec::new();
    let mut log = Vec::new();
    let mut pending: Vec<(u64, MissRequest)> = Vec::new();
    // (first skipped cycle, wake) while asleep.
    let mut asleep: Option<(u64, Wake)> = None;
    for t in 0..cycles {
        if t == RESET_AT {
            if let Some((since, wake)) = asleep {
                core.credit_sleep(t - since);
                asleep = Some((t, wake));
            }
            core.reset_stats(Cycle(t));
        }
        while let Some(i) = pending.iter().position(|&(due, _)| due <= t) {
            let (_, r) = pending.remove(i);
            if let Some((since, _)) = asleep.take() {
                core.credit_sleep(t - since);
            }
            match r.kind {
                AccessKind::InstrFetch => core.fill_ifetch(r.line, Cycle(t)),
                _ => {
                    core.fill_data(r.line, Cycle(t));
                }
            }
        }
        match asleep {
            Some((since, Wake::At(at))) if at.raw() <= t => {
                core.credit_sleep(t - since);
                asleep = None;
            }
            Some(_) => continue,
            None => {}
        }
        out.clear();
        core.tick(Cycle(t), &mut src, &mut out);
        for &r in &out {
            pending.push((t + delays[log.len() % delays.len()], r));
            log.push((t, r));
        }
        if sleep {
            asleep = core.sleep_until(Cycle(t + 1)).map(|wake| (t + 1, wake));
        }
    }
    if let Some((since, _)) = asleep {
        core.credit_sleep(cycles - since);
    }
    let (counters, tail) = fingerprint(&core);
    (counters, tail, log)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn sleeping_core_matches_dense_ticking(
        raw in prop::collection::vec((0u8..6, 0u64..24, 0u64..48, 0u8..4), 1..96),
        delays in prop::collection::vec(1u64..60, 1..12)
    ) {
        let script: Vec<FetchedInstr> = raw
            .iter()
            .map(|&(kind, line, data, dep)| decode_instr(kind, line, data, dep))
            .collect();
        let dense = drive_core(&script, &delays, 700, false);
        let sparse = drive_core(&script, &delays, 700, true);
        prop_assert_eq!(&dense.2, &sparse.2, "request streams (with cycles)");
        prop_assert_eq!(&dense.0, &sparse.0, "core counters");
        prop_assert_eq!(&dense.1, &sparse.1, "block tail");
    }
}
