//! Microbenchmarks of the simulator's hot paths.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use nocout_cpu::source::InstructionSource;
use nocout_mem::addr::Addr;
use nocout_mem::cache::{CacheArray, CacheGeometry};
use nocout_sim::rng::{SimRng, Zipf};
use nocout_sim::Cycle;
use nocout_workloads::{Workload, WorkloadGen};
use std::hint::black_box;

/// Flit-level networks under sustained random traffic (all three
/// evaluated topologies), plus the saturated router-pair switch-hop op.
/// The op definitions live in `nocout_bench::nocopt`.
fn bench_network_tick(c: &mut Criterion) {
    use nocout_bench::nocopt;

    let mut g = c.benchmark_group("network");
    g.throughput(Throughput::Elements(1000));
    for mut ln in nocopt::loaded_networks() {
        g.bench_function(format!("{}_64_tick_1k_cycles_loaded", ln.key), |b| {
            b.iter(|| {
                for _ in 0..1000 {
                    nocopt::loaded_tick(&mut ln);
                }
                black_box(nocopt::flit_hops_loaded(&ln))
            })
        });
    }
    g.bench_function("switch_hop_1k_rounds_saturated_pair", |b| {
        let (mut net, terms) = nocopt::saturated_pair();
        b.iter(|| {
            for _ in 0..1000 {
                nocopt::switch_hop_round(&mut net, &terms);
            }
            black_box(nocopt::flit_hops(&net))
        })
    });
    g.finish();
}

/// Full-system cycle cost: end-to-end `chip.tick()` for every
/// organization (the detailed flit-level fabrics and both analytic
/// fabrics), so a hot-path regression in any organization's tick loop is
/// visible in `cargo bench` output.
fn bench_chip_tick(c: &mut Criterion) {
    use nocout::prelude::*;
    let mut g = c.benchmark_group("chip");
    g.throughput(Throughput::Elements(1000));
    for org in [
        Organization::Mesh,
        Organization::FlattenedButterfly,
        Organization::NocOut,
        Organization::IdealWire,
        Organization::ZeroLoadMesh,
    ] {
        g.bench_function(format!("{org}_tick_1k_cycles"), |b| {
            let mut chip = nocout::ScaleOutChip::new(
                ChipConfig::paper(org),
                Workload::MapReduceC,
                1,
            );
            b.iter(|| {
                for _ in 0..1000 {
                    chip.tick();
                }
                black_box(chip.now())
            })
        });
    }
    g.finish();
}

/// Core hot-path structures: the ring-buffer ROB with line-indexed
/// wakeup (dispatch → fill → retire round trips) and the end-to-end core
/// tick on an L1-resident ALU stream (pure ring push/pop at full width).
/// The op definitions live in `nocout_bench::memopt`.
fn bench_core_structs(c: &mut Criterion) {
    use nocout_bench::memopt;

    let mut g = c.benchmark_group("core");
    g.throughput(Throughput::Elements(1000));
    g.bench_function("rob_fill_wakeup_1k_rounds", |b| {
        let (mut rob, mut idx) = memopt::rob_and_index();
        b.iter(|| {
            for round in 0..1000u64 {
                memopt::rob_fill_wakeup_round(&mut rob, &mut idx, round);
            }
            black_box(rob.len())
        })
    });
    g.bench_function("core_tick_1k_resident_alu", |b| {
        let (mut core, mut src) = memopt::resident_alu_core();
        let mut out = Vec::new();
        let mut now = Cycle(0);
        b.iter(|| {
            for _ in 0..1000 {
                now += 1;
                memopt::resident_alu_tick(&mut core, &mut src, &mut out, now);
            }
            black_box(core.stats.retired.value())
        })
    });
    g.finish();
}

/// L1 MSHR file: the allocate → merge → fill cycle on always-cold lines
/// (each op exercises a slot claim, a waiter merge and an out-param
/// release plus the tag-array install).
fn bench_l1_mshr(c: &mut Criterion) {
    use nocout_bench::memopt;

    let mut g = c.benchmark_group("l1");
    g.throughput(Throughput::Elements(1000));
    g.bench_function("mshr_alloc_merge_fill_1k", |b| {
        let mut l1 = memopt::a15_l1();
        let mut scratch = Vec::new();
        let mut next_line = 0u64;
        b.iter(|| {
            for _ in 0..1000u64 {
                memopt::mshr_alloc_merge_fill(&mut l1, &mut scratch, &mut next_line);
            }
            black_box(l1.outstanding_misses())
        })
    });
    g.finish();
}

/// Uncore hot-path structures: LLC tile service (input ring, MSHR file
/// and calendar-wheel output stage), the set-associative directory, and
/// the analytic-fabric event wheel. The op definitions live in
/// `nocout_bench::uncoreopt`.
fn bench_uncore(c: &mut Criterion) {
    use nocout_bench::uncoreopt;

    let mut g = c.benchmark_group("uncore");
    g.throughput(Throughput::Elements(1000));
    g.bench_function("llc_tile_1k_hits", |b| {
        let mut tile = uncoreopt::warmed_nocout_tile();
        let mut now = Cycle(0);
        b.iter(|| {
            for i in 0..1000u64 {
                uncoreopt::llc_tile_hit_round(&mut tile, &mut now, i);
            }
            black_box(tile.stats.accesses.value())
        })
    });
    g.bench_function("directory_1k_rounds", |b| {
        let mut dir = uncoreopt::bench_directory();
        b.iter(|| {
            for i in 0..1000u64 {
                uncoreopt::directory_round(&mut dir, i);
            }
            black_box(dir.tracked_lines())
        })
    });
    g.bench_function("fabric_wheel_1k_rounds", |b| {
        use nocout_noc::fabric::Fabric;
        let mut fab = uncoreopt::tencycle_fabric();
        b.iter(|| {
            for i in 0..1000u64 {
                uncoreopt::fabric_wheel_round(&mut fab, i);
            }
            black_box(fab.now())
        })
    });
    g.finish();
}

/// Tag-array operations.
fn bench_cache_array(c: &mut Criterion) {
    c.bench_function("cache_array_lookup_insert", |b| {
        let mut cache = CacheArray::new(CacheGeometry::llc_slice(1024 * 1024));
        let mut rng = SimRng::new(3);
        b.iter(|| {
            for _ in 0..1000 {
                let a = Addr::from_line_index(rng.next_below(100_000));
                if cache.lookup(a) == nocout_mem::cache::Lookup::Miss {
                    cache.insert(a, false);
                }
            }
            black_box(cache.valid_lines())
        })
    });
}

/// Workload stream generation.
fn bench_workload_gen(c: &mut Criterion) {
    let mut g = c.benchmark_group("workload");
    g.throughput(Throughput::Elements(1000));
    g.bench_function("data_serving_next_instr", |b| {
        let mut gen = WorkloadGen::new(Workload::DataServing.profile(), 0, 1);
        b.iter(|| {
            let mut acc = 0u64;
            for _ in 0..1000 {
                acc ^= gen.next_instr().fetch_line.0;
            }
            black_box(acc)
        })
    });
    g.finish();
}

/// Service-level latency histogram: the record/merge/reset/p99 round
/// (`nocout_bench::statopt`).
fn bench_latency_hist(c: &mut Criterion) {
    use nocout_bench::statopt;
    use nocout_sim::stats::LatencyHist;

    let mut g = c.benchmark_group("stats");
    g.throughput(Throughput::Elements(1000));
    g.bench_function("latency_hist_1k_rounds", |b| {
        let mut scratch = LatencyHist::new();
        let mut acc = LatencyHist::new();
        let mut round = 0u64;
        b.iter(|| {
            for _ in 0..1000 {
                statopt::latency_hist_round(&mut scratch, &mut acc, round);
                round += 1;
            }
            black_box(acc.total())
        })
    });
    g.finish();
}

/// RNG and Zipf sampling.
fn bench_rng(c: &mut Criterion) {
    c.bench_function("rng_next_u64_x1000", |b| {
        let mut rng = SimRng::new(1);
        b.iter(|| {
            let mut acc = 0u64;
            for _ in 0..1000 {
                acc ^= rng.next_u64();
            }
            black_box(acc)
        })
    });
    c.bench_function("zipf_sample_x1000", |b| {
        let zipf = Zipf::new(96 * 1024, 0.6);
        let mut rng = SimRng::new(1);
        b.iter(|| {
            let mut acc = 0usize;
            for _ in 0..1000 {
                acc ^= zipf.sample(&mut rng);
            }
            black_box(acc)
        })
    });
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(3))
}

criterion_group! {
    name = micro;
    config = config();
    targets = bench_network_tick, bench_chip_tick, bench_core_structs, bench_l1_mshr,
              bench_uncore, bench_cache_array, bench_workload_gen, bench_latency_hist,
              bench_rng
}
criterion_main!(micro);
