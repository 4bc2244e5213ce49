//! Each named microbench op does exactly the work its doc promises, so
//! a throughput reading of `benches/micro.rs` counts what it says.

use nocout_bench::{memopt, statopt, uncoreopt};
use nocout_noc::fabric::Fabric as _;
use nocout_sim::stats::LatencyHist;
use nocout_sim::Cycle;

const ROUNDS: u64 = 5_000;

#[test]
fn rob_round_retires_everything_it_dispatched() {
    let (mut rob, mut idx) = memopt::rob_and_index();
    for round in 0..ROUNDS {
        memopt::rob_fill_wakeup_round(&mut rob, &mut idx, round);
    }
    assert!(rob.is_empty());
}

#[test]
fn llc_round_is_one_access() {
    let mut tile = uncoreopt::warmed_nocout_tile();
    let mut now = Cycle(0);
    for i in 0..ROUNDS {
        uncoreopt::llc_tile_hit_round(&mut tile, &mut now, i);
    }
    assert_eq!(tile.stats.accesses.value(), ROUNDS);
}

#[test]
fn directory_round_leaves_no_tracked_line() {
    let mut dir = uncoreopt::bench_directory();
    for i in 0..ROUNDS {
        uncoreopt::directory_round(&mut dir, i);
    }
    assert_eq!(dir.tracked_lines(), 0);
}

#[test]
fn fabric_round_is_one_cycle() {
    let mut fab = uncoreopt::tencycle_fabric();
    for i in 0..ROUNDS {
        uncoreopt::fabric_wheel_round(&mut fab, i);
    }
    assert_eq!(fab.now(), Cycle(ROUNDS));
}

#[test]
fn latency_hist_round_records_64_samples() {
    let mut scratch = LatencyHist::new();
    let mut acc = LatencyHist::new();
    for round in 0..ROUNDS {
        statopt::latency_hist_round(&mut scratch, &mut acc, round);
    }
    assert_eq!(acc.total(), ROUNDS * 64);
}
