//! On-disk results cache: memoizes [`SystemMetrics`] by [`RunSpec`]
//! content hash.
//!
//! Simulation points are pure functions of their spec (configuration +
//! workload + window + seed), so a campaign that shares points with an
//! earlier one — a figure grid re-run after editing one organization, a
//! sweep extended by two widths — only needs to pay for the new points.
//! This is the first slice of a Parsimon-style decomposition of the
//! campaign layer: independent sub-simulations keyed and memoized by
//! spec, with the aggregation layered on top.
//!
//! ## Key and invalidation
//!
//! The cache key is a *content* hash (FNV-1a 64) over
//! [`RunSpec::cache_key`], a versioned canonical rendering that spells
//! out every field of the spec: all ten `ChipConfig` fields, the
//! workload class, both window lengths, and the seed. Any field change —
//! different link width, another seed, a longer window — therefore maps
//! to a different entry; there are no partial hits. A trace workload
//! contributes its *content* hash plus stream/instruction counts (see
//! `nocout_workloads::trace`), so editing any stream byte invalidates
//! its cached replays even when the path is unchanged. The canonical
//! string is stored inside the entry and verified on every load, so for
//! synthetic specs a hash collision (or a format change that reuses a
//! hash) degrades to a miss, never to wrong data; for traces the
//! canonical string itself contains a 64-bit digest of the content, so
//! that guarantee is probabilistic (aliasing needs an FNV-64 collision
//! *plus* matching stream/instruction counts). Bump
//! [`FORMAT`] when the entry layout changes; bump the `v2` prefix in
//! [`RunSpec::cache_key`] when simulator *behaviour* changes so that
//! stale results from older binaries cannot be replayed.
//!
//! Metrics round-trip bit-exactly: floats are stored as the hex of their
//! IEEE-754 bits, so a cache hit is indistinguishable from re-running the
//! simulation — a property the integration tests and the CI byte-identity
//! gate both enforce.
//!
//! ## Concurrency
//!
//! Entries are written to a temporary file and atomically renamed into
//! place, so concurrent sweeps sharing a cache directory can race only
//! toward identical bytes. Stores are best-effort: an unwritable cache
//! degrades to uncached operation rather than failing the run.

use crate::metrics::{LlcSummary, MemSummary, NetSummary, SystemMetrics, TailSummary};
use crate::runner::RunSpec;
use nocout_sim::{fnv1a, FNV_BASIS};
use std::cell::Cell;
use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};

/// Entry format version; part of every file and checked on load.
const FORMAT: &str = "nocout-results-cache v2";

impl RunSpec {
    /// The canonical, versioned rendering of this spec that the results
    /// cache hashes and verifies. Every field of the spec appears by
    /// name; any change to any field changes the key (the invalidation
    /// rule is exactly "the spec changed"). Trace workloads render as
    /// their *content* hash, so editing or re-capturing a trace directory
    /// invalidates its cached replay results even at the same path. The
    /// `v2` prefix is the *behaviour* version: bump it when the
    /// simulator's outputs change for unchanged specs (v1 → v2: the
    /// workload generator moved to a cumulative-threshold op-mix draw,
    /// changing every synthetic stream).
    pub fn cache_key(&self) -> String {
        let c = &self.chip;
        format!(
            "v2 org={:?} cores={} llc_bytes={} link_bits={} mem_channels={} \
             banks_per_llc_tile={} concentration={} active_override={:?} \
             express={} llc_rows={} workload={} warmup={} measure={} seed={}",
            c.organization,
            c.cores,
            c.llc_total_bytes,
            c.link_width_bits,
            c.mem_channels,
            c.banks_per_llc_tile,
            c.concentration,
            c.active_core_override,
            c.express_links,
            c.llc_rows,
            self.workload.cache_token(),
            self.window.warmup_cycles,
            self.window.measure_cycles,
            self.seed
        )
    }

    /// FNV-1a 64 hash of [`RunSpec::cache_key`] — the cache file name.
    pub fn content_hash(&self) -> u64 {
        fnv1a(FNV_BASIS, self.cache_key().as_bytes())
    }
}

/// A directory of memoized simulation results, plus hit/miss accounting
/// for the run it is attached to.
///
/// # Examples
///
/// ```no_run
/// use nocout::cache::ResultsCache;
/// use nocout::config::{ChipConfig, Organization};
/// use nocout::runner::RunSpec;
/// use nocout_workloads::Workload;
///
/// let cache = ResultsCache::open("results-cache").unwrap();
/// let spec = RunSpec::new(ChipConfig::paper(Organization::Mesh), Workload::WebSearch);
/// if cache.get(&spec).is_none() {
///     let metrics = nocout::run(&spec);
///     cache.put(&spec, &metrics);
/// }
/// ```
#[derive(Debug, Clone)]
pub struct ResultsCache {
    dir: PathBuf,
    hits: Cell<u64>,
    misses: Cell<u64>,
    store_failures: Cell<u64>,
    quarantined: Cell<u64>,
}

impl ResultsCache {
    /// Opens (creating if needed) a cache directory.
    pub fn open<P: Into<PathBuf>>(dir: P) -> io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(ResultsCache {
            dir,
            hits: Cell::new(0),
            misses: Cell::new(0),
            store_failures: Cell::new(0),
            quarantined: Cell::new(0),
        })
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Cache hits recorded by this handle.
    pub fn hits(&self) -> u64 {
        self.hits.get()
    }

    /// Cache misses recorded by this handle.
    pub fn misses(&self) -> u64 {
        self.misses.get()
    }

    /// Entries this handle failed to store (warned once, then counted).
    pub fn store_failures(&self) -> u64 {
        self.store_failures.get()
    }

    /// Corrupt or key-mismatched entries this handle moved aside to
    /// `<entry>.bad`.
    pub fn quarantined(&self) -> u64 {
        self.quarantined.get()
    }

    fn entry_path(&self, spec: &RunSpec) -> PathBuf {
        self.dir.join(format!("{:016x}.metrics", spec.content_hash()))
    }

    /// Looks the spec up; a corrupt, truncated, or key-mismatched entry is
    /// reported as a miss. Such an entry is also *quarantined*: renamed to
    /// `<entry>.bad` (preserving the bytes for inspection) so repeated
    /// lookups of the same spec do not re-read and re-parse a file that
    /// can never hit, and so the next `put` recreates the entry cleanly.
    pub fn get(&self, spec: &RunSpec) -> Option<SystemMetrics> {
        let path = self.entry_path(spec);
        let loaded = match std::fs::read_to_string(&path) {
            Err(_) => None, // absent (or unreadable): a plain miss
            Ok(text) => {
                let parsed = parse_entry(&text, &spec.cache_key());
                if parsed.is_none() {
                    // Present but unusable: move it out of the lookup path.
                    if std::fs::rename(&path, path.with_extension("bad")).is_ok() {
                        self.quarantined.set(self.quarantined.get() + 1);
                    }
                }
                parsed
            }
        };
        match &loaded {
            Some(_) => self.hits.set(self.hits.get() + 1),
            None => self.misses.set(self.misses.get() + 1),
        }
        loaded
    }

    /// Stores a result. Best-effort: an I/O failure never fails the
    /// simulation that produced the metrics. The first failure per handle
    /// warns on stderr; subsequent ones are only counted
    /// ([`ResultsCache::store_failures`]) so a fully unwritable cache
    /// directory does not drown a campaign in identical warnings.
    pub fn put(&self, spec: &RunSpec, metrics: &SystemMetrics) {
        let body = render_entry(&spec.cache_key(), metrics);
        let path = self.entry_path(spec);
        let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
        let result = std::fs::write(&tmp, body).and_then(|()| std::fs::rename(&tmp, &path));
        if let Err(e) = result {
            let _ = std::fs::remove_file(&tmp);
            if self.store_failures.get() == 0 {
                eprintln!(
                    "warning: could not store cache entry {}: {e} \
                     (further store failures will be counted, not repeated)",
                    path.display()
                );
            }
            self.store_failures.set(self.store_failures.get() + 1);
        }
    }
}

/// Renders a metrics entry: the versioned header, the canonical key, then
/// every metric field with floats as the hex of their IEEE-754 bits. Also
/// the bit-exact payload format of `crate::distribute` result frames and
/// the driver journal.
pub(crate) fn render_entry(key: &str, m: &SystemMetrics) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "{FORMAT}");
    let _ = writeln!(s, "key {key}");
    let _ = writeln!(s, "active_cores {}", m.active_cores);
    let _ = writeln!(s, "cycles {}", m.cycles);
    let _ = writeln!(s, "instructions {}", m.instructions);
    let _ = writeln!(s, "fetch_stall_fraction {:016x}", m.fetch_stall_fraction.to_bits());
    let _ = write!(s, "per_core_ipc");
    for ipc in &m.per_core_ipc {
        let _ = write!(s, " {:016x}", ipc.to_bits());
    }
    s.push('\n');
    let _ = writeln!(
        s,
        "llc {} {} {} {} {} {}",
        m.llc.accesses,
        m.llc.hits,
        m.llc.misses,
        m.llc.snoops_sent,
        m.llc.snooping_accesses,
        m.llc.writebacks
    );
    let _ = writeln!(
        s,
        "net_counts {} {} {} {} {} {}",
        m.network.packets,
        m.network.p50_latency,
        m.network.p99_latency,
        m.network.buffer_writes,
        m.network.buffer_reads,
        m.network.xbar_traversals
    );
    let _ = writeln!(
        s,
        "net_lat {:016x} {:016x} {:016x} {:016x}",
        m.network.mean_latency.to_bits(),
        m.network.mean_request_latency.to_bits(),
        m.network.mean_response_latency.to_bits(),
        m.network.flit_mm.to_bits()
    );
    let _ = writeln!(s, "mem {} {}", m.memory.reads, m.memory.writes);
    let _ = writeln!(s, "ifetch_wait {}", m.ifetch_fill_wait_cycles);
    fn tail_line(s: &mut String, name: &str, t: &TailSummary) {
        let _ = writeln!(
            s,
            "{name} {} {:016x} {} {} {}",
            t.count,
            t.mean.to_bits(),
            t.p50,
            t.p99,
            t.p999
        );
    }
    tail_line(&mut s, "tail_block", &m.block_latency);
    tail_line(&mut s, "tail_fill", &m.fill_latency);
    tail_line(&mut s, "tail_llc_miss", &m.llc_miss_latency);
    tail_line(&mut s, "tail_request", &m.request_latency);
    tail_line(&mut s, "net_tail_request", &m.network.request_tail);
    tail_line(&mut s, "net_tail_snoop", &m.network.snoop_tail);
    tail_line(&mut s, "net_tail_response", &m.network.response_tail);
    s
}

/// Parses [`render_entry`] output, verifying the embedded key against
/// `expected_key`; any mismatch, truncation or malformed field is `None`.
pub(crate) fn parse_entry(text: &str, expected_key: &str) -> Option<SystemMetrics> {
    // Every writer (cache file, journal body, wire record) emits a
    // newline-terminated final line; text truncated mid-value on the last
    // line would otherwise still parse as a valid, wrong number.
    if !text.ends_with('\n') {
        return None;
    }
    let mut lines = text.lines();
    if lines.next()? != FORMAT {
        return None;
    }
    let key = lines.next()?.strip_prefix("key ")?;
    if key != expected_key {
        return None;
    }
    fn field<'a>(line: &'a str, name: &str) -> Option<&'a str> {
        line.strip_prefix(name)?.strip_prefix(' ')
    }
    fn ints(s: &str) -> Option<Vec<u64>> {
        s.split_whitespace()
            .map(|t| t.parse().ok())
            .collect::<Option<Vec<u64>>>()
    }
    fn floats(s: &str) -> Option<Vec<f64>> {
        s.split_whitespace()
            .map(|t| u64::from_str_radix(t, 16).ok().map(f64::from_bits))
            .collect::<Option<Vec<f64>>>()
    }
    let active_cores = field(lines.next()?, "active_cores")?.parse().ok()?;
    let cycles = field(lines.next()?, "cycles")?.parse().ok()?;
    let instructions = field(lines.next()?, "instructions")?.parse().ok()?;
    let fsf = floats(field(lines.next()?, "fetch_stall_fraction")?)?;
    let per_core_ipc = floats(lines.next()?.strip_prefix("per_core_ipc")?)?;
    let llc = ints(field(lines.next()?, "llc")?)?;
    let net_counts = ints(field(lines.next()?, "net_counts")?)?;
    let net_lat = floats(field(lines.next()?, "net_lat")?)?;
    let mem = ints(field(lines.next()?, "mem")?)?;
    let ifetch_wait: u64 = field(lines.next()?, "ifetch_wait")?.parse().ok()?;
    fn tail(s: &str) -> Option<TailSummary> {
        let mut it = s.split_whitespace();
        let count = it.next()?.parse().ok()?;
        let mean = f64::from_bits(u64::from_str_radix(it.next()?, 16).ok()?);
        let p50 = it.next()?.parse().ok()?;
        let p99 = it.next()?.parse().ok()?;
        let p999 = it.next()?.parse().ok()?;
        if it.next().is_some() {
            return None;
        }
        Some(TailSummary {
            count,
            mean,
            p50,
            p99,
            p999,
        })
    }
    let tail_block = tail(field(lines.next()?, "tail_block")?)?;
    let tail_fill = tail(field(lines.next()?, "tail_fill")?)?;
    let tail_llc_miss = tail(field(lines.next()?, "tail_llc_miss")?)?;
    let tail_request = tail(field(lines.next()?, "tail_request")?)?;
    let net_tail_request = tail(field(lines.next()?, "net_tail_request")?)?;
    let net_tail_snoop = tail(field(lines.next()?, "net_tail_snoop")?)?;
    let net_tail_response = tail(field(lines.next()?, "net_tail_response")?)?;
    if fsf.len() != 1 || llc.len() != 6 || net_counts.len() != 6 || net_lat.len() != 4 || mem.len() != 2
    {
        return None;
    }
    Some(SystemMetrics {
        per_core_ipc,
        active_cores,
        cycles,
        instructions,
        fetch_stall_fraction: fsf[0],
        llc: LlcSummary {
            accesses: llc[0],
            hits: llc[1],
            misses: llc[2],
            snoops_sent: llc[3],
            snooping_accesses: llc[4],
            writebacks: llc[5],
        },
        network: NetSummary {
            packets: net_counts[0],
            mean_latency: net_lat[0],
            mean_request_latency: net_lat[1],
            mean_response_latency: net_lat[2],
            p50_latency: net_counts[1],
            p99_latency: net_counts[2],
            flit_mm: net_lat[3],
            buffer_writes: net_counts[3],
            buffer_reads: net_counts[4],
            xbar_traversals: net_counts[5],
            request_tail: net_tail_request,
            snoop_tail: net_tail_snoop,
            response_tail: net_tail_response,
        },
        memory: MemSummary {
            reads: mem[0],
            writes: mem[1],
        },
        ifetch_fill_wait_cycles: ifetch_wait,
        block_latency: tail_block,
        fill_latency: tail_fill,
        llc_miss_latency: tail_llc_miss,
        request_latency: tail_request,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ChipConfig, Organization};
    use nocout_workloads::Workload;

    fn spec() -> RunSpec {
        RunSpec::new(
            ChipConfig::with_cores(Organization::Mesh, 16),
            Workload::WebSearch,
        )
        .fast()
    }

    fn metrics() -> SystemMetrics {
        SystemMetrics {
            per_core_ipc: vec![0.25, 0.0, 1.0 / 3.0],
            active_cores: 3,
            cycles: 10_000,
            instructions: 12_345,
            fetch_stall_fraction: 0.37,
            llc: LlcSummary {
                accesses: 9,
                hits: 7,
                misses: 2,
                snoops_sent: 1,
                snooping_accesses: 1,
                writebacks: 3,
            },
            network: NetSummary {
                packets: 42,
                mean_latency: 17.25,
                mean_request_latency: 13.5,
                mean_response_latency: 21.125,
                p50_latency: 16,
                p99_latency: 61,
                flit_mm: 1234.5678,
                buffer_writes: 5,
                buffer_reads: 6,
                xbar_traversals: 7,
                request_tail: TailSummary {
                    count: 30,
                    mean: 14.75,
                    p50: 14,
                    p99: 29,
                    p999: 31,
                },
                snoop_tail: TailSummary::default(),
                response_tail: TailSummary {
                    count: 12,
                    mean: 22.5,
                    p50: 21,
                    p99: 44,
                    p999: 47,
                },
            },
            memory: MemSummary {
                reads: 11,
                writes: 4,
            },
            ifetch_fill_wait_cycles: 321,
            block_latency: TailSummary {
                count: 19,
                mean: 130.0625,
                p50: 120,
                p99: 400,
                p999: 512,
            },
            fill_latency: TailSummary {
                count: 8,
                mean: 77.5,
                p50: 70,
                p99: 150,
                p999: 150,
            },
            llc_miss_latency: TailSummary {
                count: 2,
                mean: 90.0,
                p50: 88,
                p99: 92,
                p999: 92,
            },
            request_latency: TailSummary {
                count: 55,
                mean: 333.125,
                p50: 300,
                p99: 900,
                p999: 1024,
            },
        }
    }

    #[test]
    fn entry_round_trips_bit_exactly() {
        let m = metrics();
        let key = spec().cache_key();
        let parsed = parse_entry(&render_entry(&key, &m), &key).expect("parses");
        assert_eq!(parsed.active_cores, m.active_cores);
        assert_eq!(parsed.cycles, m.cycles);
        assert_eq!(parsed.instructions, m.instructions);
        assert_eq!(
            parsed.fetch_stall_fraction.to_bits(),
            m.fetch_stall_fraction.to_bits()
        );
        assert_eq!(parsed.per_core_ipc.len(), m.per_core_ipc.len());
        for (a, b) in parsed.per_core_ipc.iter().zip(&m.per_core_ipc) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(parsed.llc.accesses, m.llc.accesses);
        assert_eq!(parsed.llc.writebacks, m.llc.writebacks);
        assert_eq!(parsed.network.packets, m.network.packets);
        assert_eq!(parsed.network.flit_mm.to_bits(), m.network.flit_mm.to_bits());
        assert_eq!(parsed.network.p99_latency, m.network.p99_latency);
        assert_eq!(parsed.memory.reads, m.memory.reads);
        assert_eq!(parsed.ifetch_fill_wait_cycles, m.ifetch_fill_wait_cycles);
        assert_eq!(parsed.block_latency, m.block_latency);
        assert_eq!(parsed.fill_latency, m.fill_latency);
        assert_eq!(parsed.llc_miss_latency, m.llc_miss_latency);
        assert_eq!(parsed.request_latency, m.request_latency);
        assert_eq!(parsed.network.request_tail, m.network.request_tail);
        assert_eq!(parsed.network.snoop_tail, m.network.snoop_tail);
        assert_eq!(parsed.network.response_tail, m.network.response_tail);
    }

    #[test]
    fn key_mismatch_is_a_miss() {
        let m = metrics();
        let entry = render_entry(&spec().cache_key(), &m);
        let other = spec().with_seed(999).cache_key();
        assert!(parse_entry(&entry, &other).is_none());
    }

    #[test]
    fn truncated_entry_is_a_miss() {
        let key = spec().cache_key();
        let entry = render_entry(&key, &metrics());
        for cut in [0, 10, entry.len() / 2, entry.len() - 2] {
            assert!(parse_entry(&entry[..cut], &key).is_none(), "cut {cut}");
        }
    }

    #[test]
    fn every_spec_field_changes_the_key() {
        // One variant per RunSpec field — all ten ChipConfig fields, the
        // workload, both window lengths, and the seed. A cache_key()
        // refactor that drops any field fails here rather than silently
        // aliasing two configurations to one entry.
        let base = spec();
        let base_key = base.cache_key();
        let variants: Vec<(&str, RunSpec)> = vec![
            ("seed", base.clone().with_seed(2)),
            ("workload", {
                let mut v = base.clone();
                v.workload = Workload::SatSolver.into();
                v
            }),
            ("measure_cycles", {
                let mut v = base.clone();
                v.window.measure_cycles += 1;
                v
            }),
            ("warmup_cycles", {
                let mut v = base.clone();
                v.window.warmup_cycles += 1;
                v
            }),
            ("organization", {
                let mut v = base.clone();
                v.chip.organization = Organization::NocOut;
                v
            }),
            ("cores", {
                let mut v = base.clone();
                v.chip.cores = 64;
                v
            }),
            ("llc_total_bytes", {
                let mut v = base.clone();
                v.chip.llc_total_bytes *= 2;
                v
            }),
            ("link_width_bits", {
                let mut v = base.clone();
                v.chip.link_width_bits = 64;
                v
            }),
            ("mem_channels", {
                let mut v = base.clone();
                v.chip.mem_channels += 1;
                v
            }),
            ("banks_per_llc_tile", {
                let mut v = base.clone();
                v.chip.banks_per_llc_tile += 1;
                v
            }),
            ("concentration", {
                let mut v = base.clone();
                v.chip.concentration = 2;
                v
            }),
            ("active_core_override", {
                let mut v = base.clone();
                v.chip.active_core_override = Some(4);
                v
            }),
            ("express_links", {
                let mut v = base.clone();
                v.chip.express_links = true;
                v
            }),
            ("llc_rows", {
                let mut v = base.clone();
                v.chip.llc_rows = 2;
                v
            }),
        ];
        for (field, variant) in variants {
            assert_ne!(variant.cache_key(), base_key, "field {field}");
            assert_ne!(
                variant.content_hash(),
                base.content_hash(),
                "field {field}"
            );
        }
    }

    #[test]
    fn corrupt_entry_is_quarantined_not_reparsed() {
        let dir = std::env::temp_dir().join(format!(
            "nocout-cache-quarantine-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = ResultsCache::open(&dir).unwrap();
        let s = spec();
        cache.put(&s, &metrics());
        assert!(cache.get(&s).is_some());

        // Corrupt the entry on disk: the lookup must miss, and the bytes
        // must move to `<entry>.bad` so the next lookup is a plain
        // missing-file miss instead of another parse of garbage.
        let path = cache.entry_path(&s);
        std::fs::write(&path, "not a cache entry").unwrap();
        assert!(cache.get(&s).is_none());
        assert_eq!(cache.quarantined(), 1);
        assert!(!path.exists());
        let bad = path.with_extension("bad");
        assert_eq!(std::fs::read_to_string(&bad).unwrap(), "not a cache entry");

        // Second lookup: still a miss, but nothing new to quarantine.
        assert!(cache.get(&s).is_none());
        assert_eq!(cache.quarantined(), 1);

        // A fresh put recreates the entry and lookups hit again.
        cache.put(&s, &metrics());
        assert!(cache.get(&s).is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_failures_are_counted() {
        let dir = std::env::temp_dir().join(format!(
            "nocout-cache-storefail-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = ResultsCache::open(&dir).unwrap();
        // Remove the directory out from under the handle: every store now
        // fails, and the handle counts each one (warning only once).
        std::fs::remove_dir_all(&dir).unwrap();
        cache.put(&spec(), &metrics());
        cache.put(&spec().with_seed(2), &metrics());
        assert_eq!(cache.store_failures(), 2);
    }
}
