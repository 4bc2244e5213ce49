//! `nocbench`: the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path nocbench/Cargo.toml -- \
//!     --workload fullload|openloop|campaign|all --seed N --seconds S --trace 0|1
//! ```
//!
//! Runs a workload for about `S` seconds in repeated rounds, checks
//! every simulated output against its reference, and prints the metrics
//! by name with their units; the last line is one JSON object. With
//! `--trace 0` it prints the end-to-end metrics, with `--trace 1` the
//! per-layer ones. `--workload all` runs the three workloads one after
//! another in one process, each printing its own record. See
//! `nocbench/README.md` for what each metric means.
//!
//! `--record-digests FROM TO` prints the full-load reference digests for
//! a seed range (the table in `reference/`).

mod campaign;
mod check;
mod exec;
mod fullload;
mod layers;
mod openloop;
mod report;
mod stats;
mod worker;

use layers::{SourceKind, Traced};
use nocout::prelude::*;
use report::Record;
use std::path::Path;

const USAGE: &str = "usage: nocbench --workload fullload|openloop|campaign|all --seed N --seconds S --trace 0|1\n       \
                     nocbench --record-digests FROM TO";

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Bench {
    Fullload,
    Openloop,
    Campaign,
}

impl Bench {
    fn name(self) -> &'static str {
        match self {
            Bench::Fullload => "fullload",
            Bench::Openloop => "openloop",
            Bench::Campaign => "campaign",
        }
    }
}

const ALL: [Bench; 3] = [Bench::Fullload, Bench::Openloop, Bench::Campaign];

/// Checked command-line arguments.
#[derive(Debug)]
struct Args {
    /// The workloads to run, one after another (`all` names every one).
    workloads: Vec<Bench>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: `{value}` is not {what}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "fullload" => vec![Bench::Fullload],
                    "openloop" => vec![Bench::Openloop],
                    "campaign" => vec![Bench::Campaign],
                    "all" => ALL.to_vec(),
                    _ => return Err(bad("fullload, openloop, campaign or all")),
                })
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("a seed"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err(bad("a number of seconds in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workloads: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("--worker") if argv.len() == 2 => {
            if let Err(e) = worker::serve(Path::new(&argv[1])) {
                eprintln!("nocbench worker: {e}");
                std::process::exit(1);
            }
            return;
        }
        Some("--record-digests") if argv.len() == 3 => {
            match (argv[1].parse(), argv[2].parse()) {
                (Ok(from), Ok(to)) => fullload::record_digests(from, to),
                _ => {
                    eprintln!("{USAGE}");
                    std::process::exit(2);
                }
            }
            return;
        }
        _ => {}
    }
    let args = parse(&argv).unwrap_or_else(|e| {
        eprintln!("nocbench: {e}\n{USAGE}");
        std::process::exit(2);
    });

    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let jobs = nproc.min(2);
    for &bench in &args.workloads {
        let calib = stats::calib_ns();
        println!(
            "nocbench workload={} seed={} nproc={nproc} jobs={jobs} sim.calib_ns={calib} trace={}",
            bench.name(),
            args.seed,
            u8::from(args.trace)
        );
        let base = check::repo_root().join(".nocbench_work");
        let work = base.join(std::process::id().to_string());
        let result = std::fs::create_dir_all(&work)
            .map_err(|e| format!("{}: {e}", work.display()))
            .and_then(|()| run(bench, &args, jobs, calib, &work));
        let _ = std::fs::remove_dir_all(&work);
        let _ = std::fs::remove_dir(&base);
        match result {
            Ok(rec) => {
                let defs = if args.trace {
                    report::PER_LAYER
                } else {
                    report::END_TO_END
                };
                print!("{}", rec.render(defs));
            }
            Err(e) => {
                eprintln!("nocbench: {e}");
                std::process::exit(1);
            }
        }
    }
}

fn run(bench: Bench, args: &Args, jobs: usize, calib: f64, work: &Path) -> Result<Record, String> {
    let mut rec = Record::default();
    let seed = args.seed;
    // A traced run spends half its time on rounds, then replays layers.
    let seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let ((rounds, rss_mib), sources, trace_profile, cache_counts) = match bench {
        Bench::Fullload => (
            fullload::rounds(seed, seconds, &mut rec),
            vec![SourceKind::Synthetic(Workload::DataServing)],
            Workload::DataServing,
            (0, 0),
        ),
        Bench::Openloop => (
            openloop::rounds(seed, seconds, &mut rec)?,
            check::LOADLAT_INTERVALS
                .iter()
                .map(|&i| SourceKind::OpenLoop(check::loadlat_spec(i)))
                .collect(),
            Workload::DataServing,
            (0, 0),
        ),
        Bench::Campaign => {
            let out = campaign::rounds(seed, seconds, jobs, work, &mut rec)?;
            if let Some((fb, no)) = check::fig7_gmeans(&out.fig7) {
                for (name, g) in [("model_err.nocout", no), ("model_err.fbfly", fb)] {
                    let err = (g - check::PAPER_GMEAN).abs() / check::PAPER_GMEAN;
                    rec.notes.push(format!(
                        "{name} {err} (simulated: GMean {g} vs the paper's {})",
                        check::PAPER_GMEAN
                    ));
                }
            }
            (
                (out.rounds, out.rss_mib),
                Workload::ALL
                    .iter()
                    .map(|&w| SourceKind::Synthetic(w))
                    .collect(),
                Workload::WebSearch,
                out.cache_counts,
            )
        }
    };
    if args.trace {
        let traced = Traced {
            sources,
            trace_profile,
            cache_counts,
            seed,
            jobs,
        };
        layers::measure(&traced, &rounds, &work.join("layers"), &mut rec)?;
        rec.set("sim.calib_ns", calib);
        rec.notes.push(
            "tracing overhead: none inside run_for — the layer replays run between chip runs, \
             so chip.run_for_ns_per_cycle.<org> of this run and 1e9 / sim_cycles_per_s.<org> of \
             an untraced run differ only by noise"
                .to_string(),
        );
    } else {
        exec::end_to_end(&rounds, rss_mib, &mut rec);
    }
    Ok(rec)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = args("--workload campaign --seed 7 --seconds 10 --trace 1").expect("valid");
        assert_eq!(
            (a.workloads, a.seed, a.seconds, a.trace),
            (vec![Bench::Campaign], 7, 10.0, true)
        );
        let a = args("--workload all --seed 7 --seconds 10 --trace 0").expect("valid");
        assert_eq!(a.workloads, ALL);
    }

    #[test]
    fn rejects_bad_flags_and_values() {
        assert!(args("--workload hit --seed 1 --seconds 1 --trace 0").is_err());
        assert!(args("--workload fullload --seed -1 --seconds 1 --trace 0").is_err());
        assert!(args("--workload fullload --seed 1 --seconds 0 --trace 0").is_err());
        assert!(args("--workload fullload --seed 1 --seconds 1 --trace 2").is_err());
        assert!(args("--workload fullload --seed 1 --seconds 1").is_err());
        assert!(args("--workload fullload --seed 1 --seconds 1 --trace 0 --x 1").is_err());
    }
}
