//! Binary instruction traces: capture any [`InstructionSource`] stream to
//! compact per-core files and replay them as a first-class workload.
//!
//! A trace is a *directory* of per-core stream files (`core-000.nctrace`,
//! `core-001.nctrace`, ...), each holding a versioned header followed by
//! length-prefixed instruction records (the exact byte layout is
//! documented in `docs/trace-format.md`). [`TraceWriter`] produces one
//! stream file; [`TraceSource`] replays one with buffered reads (no mmap)
//! and loops back to the first record when the stream runs out, so a
//! finite capture can drive arbitrarily long simulations;
//! [`TraceSet`] loads a whole directory, validates every record once,
//! and computes the content hash that keys replay runs in the results
//! cache (editing any byte of any stream invalidates cached metrics).
//!
//! [`WorkloadClass`] is the run-spec-level union of the two workload
//! classes the simulator now supports: a synthetic CloudSuite-style
//! profile ([`Workload`]) or a captured trace (`trace:PATH` on every
//! experiment CLI).

use crate::openloop::OpenLoopSpec;
use crate::profile::{Workload, WorkloadProfile};
use nocout_cpu::source::{FetchedInstr, InstructionSource, Op};
use nocout_mem::addr::Addr;
use nocout_sim::{fnv1a, FNV_BASIS};
use std::fmt;
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Magic bytes opening every trace stream file.
pub const TRACE_MAGIC: [u8; 4] = *b"NCTR";
/// Current trace format version (checked on open; see
/// `docs/trace-format.md` for the versioning policy).
pub const TRACE_VERSION: u32 = 1;
/// File-name suffix of per-core stream files inside a trace directory.
pub const TRACE_SUFFIX: &str = ".nctrace";

/// Byte offset of the `instr_count`/`payload_len` pair the writer patches
/// on finish: magic(4) + version(4) + core(4) + name_len(2).
const COUNTS_OFFSET: u64 = 14;

fn invalid<T>(path: &Path, what: impl fmt::Display) -> io::Result<T> {
    Err(io::Error::new(
        io::ErrorKind::InvalidData,
        format!("{}: {what}", path.display()),
    ))
}

/// The per-stream header: identity and the warm-up sets a chip needs to
/// reproduce checkpoint-style cache warming without the originating
/// profile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceHeader {
    /// Physical core index the stream was captured for. Replay warms this
    /// core's private-data region and generates its addresses, so metrics
    /// reproduce exactly when the stream is mapped back onto it.
    pub core: u32,
    /// Seed of the originating run (provenance only).
    pub seed: u64,
    /// Instructions recorded in the stream.
    pub instr_count: u64,
    /// Bytes of the record section following the header.
    pub payload_len: u64,
    /// Hot instruction lines to warm into the L1-I.
    pub instr_hot_lines: u32,
    /// Local data lines to warm into the L1-D.
    pub local_data_lines: u32,
    /// Shared instruction footprint to warm into the LLC (lines).
    pub instr_footprint_lines: u32,
    /// LLC-resident data region to warm into the LLC (lines).
    pub llc_resident_lines: u32,
    /// Shared read-write region to warm into the LLC (lines).
    pub shared_rw_lines: u32,
    /// Human-readable origin (e.g. the profile name).
    pub name: String,
}

impl TraceHeader {
    /// A header for a stream captured from `profile` on physical core
    /// `core` under `seed` (counts are filled in by the writer).
    pub fn for_profile(profile: &WorkloadProfile, core: u32, seed: u64) -> Self {
        TraceHeader {
            core,
            seed,
            instr_count: 0,
            payload_len: 0,
            instr_hot_lines: profile.instr_hot_lines as u32,
            local_data_lines: profile.local_data_lines as u32,
            instr_footprint_lines: profile.instr_footprint_lines as u32,
            llc_resident_lines: profile.llc_resident_lines as u32,
            shared_rw_lines: profile.shared_rw_lines as u32,
            name: profile.name.to_string(),
        }
    }

    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.name.len());
        out.extend_from_slice(&TRACE_MAGIC);
        out.extend_from_slice(&TRACE_VERSION.to_le_bytes());
        out.extend_from_slice(&self.core.to_le_bytes());
        out.extend_from_slice(&(self.name.len() as u16).to_le_bytes());
        debug_assert_eq!(out.len() as u64, COUNTS_OFFSET);
        out.extend_from_slice(&self.instr_count.to_le_bytes());
        out.extend_from_slice(&self.payload_len.to_le_bytes());
        out.extend_from_slice(&self.seed.to_le_bytes());
        out.extend_from_slice(&self.instr_hot_lines.to_le_bytes());
        out.extend_from_slice(&self.local_data_lines.to_le_bytes());
        out.extend_from_slice(&self.instr_footprint_lines.to_le_bytes());
        out.extend_from_slice(&self.llc_resident_lines.to_le_bytes());
        out.extend_from_slice(&self.shared_rw_lines.to_le_bytes());
        out.extend_from_slice(self.name.as_bytes());
        out
    }

    fn decode(r: &mut impl Read, path: &Path) -> io::Result<TraceHeader> {
        let mut fixed = [0u8; 58];
        r.read_exact(&mut fixed)?;
        if fixed[0..4] != TRACE_MAGIC {
            return invalid(path, "not a trace stream (bad magic)");
        }
        let version = u32::from_le_bytes(fixed[4..8].try_into().unwrap());
        if version != TRACE_VERSION {
            return invalid(
                path,
                format!("trace version {version} (this build reads {TRACE_VERSION})"),
            );
        }
        let u32_at = |o: usize| u32::from_le_bytes(fixed[o..o + 4].try_into().unwrap());
        let u64_at = |o: usize| u64::from_le_bytes(fixed[o..o + 8].try_into().unwrap());
        let name_len = u16::from_le_bytes(fixed[12..14].try_into().unwrap()) as usize;
        let mut name = vec![0u8; name_len];
        r.read_exact(&mut name)?;
        let Ok(name) = String::from_utf8(name) else {
            return invalid(path, "header name is not UTF-8");
        };
        Ok(TraceHeader {
            core: u32_at(8),
            instr_count: u64_at(14),
            payload_len: u64_at(22),
            seed: u64_at(30),
            instr_hot_lines: u32_at(38),
            local_data_lines: u32_at(42),
            instr_footprint_lines: u32_at(46),
            llc_resident_lines: u32_at(50),
            shared_rw_lines: u32_at(54),
            name,
        })
    }

    fn encoded_len(&self) -> u64 {
        58 + self.name.len() as u64
    }
}

// Record tags (first body byte after the length prefix).
const TAG_ALU: u8 = 0;
const TAG_LOAD: u8 = 1;
const TAG_STORE: u8 = 2;

fn encode_record(out: &mut Vec<u8>, instr: &FetchedInstr) {
    let start = out.len();
    out.push(0); // length prefix, patched below
    match instr.op {
        Op::Alu { latency } => {
            out.push(TAG_ALU);
            out.extend_from_slice(&instr.fetch_line.0.to_le_bytes());
            out.push(latency);
        }
        Op::Load { addr, dependent } => {
            out.push(TAG_LOAD);
            out.extend_from_slice(&instr.fetch_line.0.to_le_bytes());
            out.extend_from_slice(&addr.0.to_le_bytes());
            out.push(dependent as u8);
        }
        Op::Store { addr } => {
            out.push(TAG_STORE);
            out.extend_from_slice(&instr.fetch_line.0.to_le_bytes());
            out.extend_from_slice(&addr.0.to_le_bytes());
        }
    }
    out[start] = (out.len() - start - 1) as u8;
}

fn decode_record(body: &[u8], path: &Path) -> io::Result<FetchedInstr> {
    let err = |what: &str| -> io::Result<FetchedInstr> { invalid(path, what) };
    let Some((&tag, rest)) = body.split_first() else {
        return err("empty record");
    };
    let u64_at = |o: usize| -> io::Result<u64> {
        match rest.get(o..o + 8) {
            Some(b) => Ok(u64::from_le_bytes(b.try_into().unwrap())),
            None => invalid(path, "truncated record"),
        }
    };
    let fetch_line = Addr(u64_at(0)?);
    let op = match tag {
        TAG_ALU => match rest.get(8) {
            Some(&latency) => Op::Alu { latency },
            None => return err("truncated ALU record"),
        },
        TAG_LOAD => {
            let addr = Addr(u64_at(8)?);
            match rest.get(16) {
                Some(&dep) => Op::Load {
                    addr,
                    dependent: dep != 0,
                },
                None => return err("truncated load record"),
            }
        }
        TAG_STORE => Op::Store {
            addr: Addr(u64_at(8)?),
        },
        other => return invalid(path, format!("unknown record tag {other}")),
    };
    Ok(FetchedInstr { fetch_line, op })
}

/// Writes one per-core stream file: header first, then each captured
/// instruction as a length-prefixed record; [`TraceWriter::finish`]
/// patches the final counts back into the header.
///
/// # Examples
///
/// ```no_run
/// use nocout_cpu::source::{FetchedInstr, Op, ScriptedSource};
/// use nocout_mem::addr::Addr;
/// use nocout_workloads::trace::{TraceHeader, TraceWriter};
/// use nocout_workloads::Workload;
///
/// let profile = Workload::WebSearch.profile();
/// let mut src = ScriptedSource::new(vec![FetchedInstr {
///     fetch_line: Addr(0),
///     op: Op::Alu { latency: 1 },
/// }]);
/// let header = TraceHeader::for_profile(&profile, 0, 1);
/// let mut w = TraceWriter::create("trace-dir/core-000.nctrace", header).unwrap();
/// w.capture(&mut src, 1_000_000).unwrap();
/// w.finish().unwrap();
/// ```
#[derive(Debug)]
pub struct TraceWriter {
    out: BufWriter<File>,
    path: PathBuf,
    header: TraceHeader,
    buf: Vec<u8>,
}

impl TraceWriter {
    /// Creates (truncating) a stream file and writes its header with
    /// zeroed counts.
    pub fn create<P: Into<PathBuf>>(path: P, header: TraceHeader) -> io::Result<Self> {
        let path = path.into();
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let mut out = BufWriter::new(File::create(&path)?);
        let mut header = header;
        header.instr_count = 0;
        header.payload_len = 0;
        out.write_all(&header.encode())?;
        Ok(TraceWriter {
            out,
            path,
            header,
            buf: Vec::with_capacity(32),
        })
    }

    /// The file being written.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one instruction.
    pub fn write(&mut self, instr: &FetchedInstr) -> io::Result<()> {
        self.buf.clear();
        encode_record(&mut self.buf, instr);
        self.out.write_all(&self.buf)?;
        self.header.instr_count += 1;
        self.header.payload_len += self.buf.len() as u64;
        Ok(())
    }

    /// Captures the next `n` instructions of any source's stream.
    pub fn capture(&mut self, source: &mut dyn InstructionSource, n: u64) -> io::Result<()> {
        for _ in 0..n {
            let i = source.next_instr();
            self.write(&i)?;
        }
        Ok(())
    }

    /// Flushes the records and patches the instruction/byte counts into
    /// the header, completing the file.
    pub fn finish(mut self) -> io::Result<()> {
        self.out.flush()?;
        let mut file = self.out.into_inner().map_err(|e| e.into_error())?;
        file.seek(SeekFrom::Start(COUNTS_OFFSET))?;
        file.write_all(&self.header.instr_count.to_le_bytes())?;
        file.write_all(&self.header.payload_len.to_le_bytes())?;
        file.sync_all()
    }
}

/// Buffered, looping replay of one stream file — an
/// [`InstructionSource`] whose stream is the recorded sequence repeated
/// forever (workload streams are infinite by contract).
///
/// Decoding trusts the file layout; [`TraceSet::load`] validates every
/// record up front, and a file mutated after that validation surfaces as
/// a panic naming the file rather than silent corruption.
#[derive(Debug)]
pub struct TraceSource {
    reader: BufReader<File>,
    path: PathBuf,
    header: TraceHeader,
    payload_start: u64,
    /// Bytes of payload consumed since the last rewind.
    consumed: u64,
}

impl TraceSource {
    /// Opens a stream file and validates its header. Empty streams are
    /// rejected: a source must always produce.
    pub fn open<P: Into<PathBuf>>(path: P) -> io::Result<Self> {
        let path = path.into();
        let mut reader = BufReader::new(File::open(&path)?);
        let header = TraceHeader::decode(&mut reader, &path)?;
        if header.instr_count == 0 || header.payload_len == 0 {
            return invalid(&path, "empty trace stream (sources must be infinite)");
        }
        let payload_start = header.encoded_len();
        Ok(TraceSource {
            reader,
            path,
            header,
            payload_start,
            consumed: 0,
        })
    }

    /// The stream's header.
    pub fn header(&self) -> &TraceHeader {
        &self.header
    }

    fn read_one(&mut self) -> FetchedInstr {
        if self.consumed >= self.header.payload_len {
            // Loop: rewind to the first record.
            self.reader
                .seek(SeekFrom::Start(self.payload_start))
                .unwrap_or_else(|e| panic!("{}: rewind failed: {e}", self.path.display()));
            self.consumed = 0;
        }
        let mut len = [0u8; 1];
        let mut body = [0u8; 255];
        let instr = self
            .reader
            .read_exact(&mut len)
            .and_then(|()| {
                let n = len[0] as usize;
                self.reader.read_exact(&mut body[..n])?;
                decode_record(&body[..n], &self.path)
            })
            .unwrap_or_else(|e| panic!("{}: corrupt trace record: {e}", self.path.display()));
        self.consumed += 1 + len[0] as u64;
        instr
    }
}

// The trait's default `refill` already loops `next_instr` with static
// dispatch once monomorphized for this type, so no override is needed.
impl InstructionSource for TraceSource {
    fn next_instr(&mut self) -> FetchedInstr {
        self.read_one()
    }
}

/// LLC warm-up regions shared by every stream of a trace (validated
/// consistent at load time).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceWarm {
    /// Shared instruction footprint in lines.
    pub instr_footprint_lines: u32,
    /// LLC-resident data region in lines.
    pub llc_resident_lines: u32,
    /// Shared read-write region in lines.
    pub shared_rw_lines: u32,
}

/// A loaded trace directory: one validated stream per core slot, plus the
/// content hash that keys replay runs in the results cache.
///
/// Stream files are ordered by file name; slot `i` of a replay run reads
/// the `i`-th file and is placed on the chip's `i`-th preferred core (the
/// same activation order the synthetic classes use), so a trace captured
/// from a chip configuration replays onto the identical core set.
#[derive(Debug)]
pub struct TraceSet {
    dir: PathBuf,
    files: Vec<PathBuf>,
    headers: Vec<TraceHeader>,
    warm: TraceWarm,
    content_hash: u64,
}

impl TraceSet {
    /// Loads and validates a trace directory: every stream's header and
    /// every record is checked once, and the content hash (FNV-1a 64 over
    /// each file's name and bytes, in file-name order) is computed here so
    /// cache-key construction never re-reads the files.
    pub fn load<P: Into<PathBuf>>(dir: P) -> io::Result<Arc<TraceSet>> {
        let dir = dir.into();
        let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)?
            .collect::<io::Result<Vec<_>>>()?
            .into_iter()
            .map(|e| e.path())
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.ends_with(TRACE_SUFFIX))
            })
            .collect();
        files.sort();
        if files.is_empty() {
            return invalid(&dir, format!("no `*{TRACE_SUFFIX}` stream files"));
        }
        let mut headers = Vec::with_capacity(files.len());
        let mut hash = FNV_BASIS;
        for path in &files {
            let bytes = std::fs::read(path)?;
            let name = path
                .file_name()
                .and_then(|n| n.to_str())
                .expect("suffix-matched name is UTF-8");
            hash = fnv1a(hash, name.as_bytes());
            hash = fnv1a(hash, &bytes);
            let mut cursor = io::Cursor::new(&bytes[..]);
            let header = TraceHeader::decode(&mut cursor, path)?;
            if header.instr_count == 0 {
                return invalid(path, "empty trace stream");
            }
            // Validate the whole record section once, so replay can trust
            // the layout.
            let payload_start = header.encoded_len() as usize;
            let payload_end = payload_start + header.payload_len as usize;
            if bytes.len() != payload_end {
                return invalid(
                    path,
                    format!(
                        "file is {} bytes but header promises {payload_end}",
                        bytes.len()
                    ),
                );
            }
            let mut off = payload_start;
            let mut records = 0u64;
            while off < payload_end {
                let len = bytes[off] as usize;
                let body_end = off + 1 + len;
                if body_end > payload_end {
                    return invalid(path, "record overruns the payload");
                }
                decode_record(&bytes[off + 1..body_end], path)?;
                off = body_end;
                records += 1;
            }
            if records != header.instr_count {
                return invalid(
                    path,
                    format!(
                        "header promises {} instructions, payload holds {records}",
                        header.instr_count
                    ),
                );
            }
            headers.push(header);
        }
        let first = &headers[0];
        let warm = TraceWarm {
            instr_footprint_lines: first.instr_footprint_lines,
            llc_resident_lines: first.llc_resident_lines,
            shared_rw_lines: first.shared_rw_lines,
        };
        for (path, h) in files.iter().zip(&headers) {
            if (h.instr_footprint_lines, h.llc_resident_lines, h.shared_rw_lines)
                != (
                    warm.instr_footprint_lines,
                    warm.llc_resident_lines,
                    warm.shared_rw_lines,
                )
            {
                return invalid(path, "streams disagree on LLC warm-up regions");
            }
        }
        Ok(Arc::new(TraceSet {
            dir,
            files,
            headers,
            warm,
            content_hash: hash,
        }))
    }

    /// The trace directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Number of per-core streams (the replay run's active core count).
    pub fn streams(&self) -> usize {
        self.files.len()
    }

    /// Header of the `slot`-th stream (file-name order).
    pub fn header(&self, slot: usize) -> &TraceHeader {
        &self.headers[slot]
    }

    /// The shared LLC warm-up regions.
    pub fn warm(&self) -> TraceWarm {
        self.warm
    }

    /// Opens the `slot`-th stream for replay.
    pub fn open_stream(&self, slot: usize) -> io::Result<TraceSource> {
        TraceSource::open(&self.files[slot])
    }

    /// The stream files, in file-name order — the same order the content
    /// hash folds them in, so an archiver that walks this list and
    /// re-hashes name + bytes reproduces [`TraceSet::content_hash`]
    /// exactly (the identity rule trace shipping relies on; see
    /// `docs/trace-format.md`).
    pub fn files(&self) -> &[PathBuf] {
        &self.files
    }

    /// FNV-1a 64 over every stream file's name and bytes — the token that
    /// represents this trace in `RunSpec` cache keys, so editing any byte
    /// of any stream invalidates cached replay results.
    pub fn content_hash(&self) -> u64 {
        self.content_hash
    }

    /// Total instructions recorded across all streams (part of the cache
    /// token alongside the content hash, so colliding hashes would also
    /// need identical shapes to alias).
    pub fn total_instructions(&self) -> u64 {
        self.headers.iter().map(|h| h.instr_count).sum()
    }
}

/// The workload classes a run spec can name: a synthetic CloudSuite-style
/// profile, or a captured trace replayed from disk.
///
/// Cloning is cheap (traces are shared through an [`Arc`]), and equality
/// follows cache-key semantics: two trace classes are equal exactly when
/// their content hashes are.
#[derive(Debug, Clone)]
pub enum WorkloadClass {
    /// A synthetic profile generated on the fly.
    Synthetic(Workload),
    /// A captured trace directory (`trace:PATH` on the experiment CLIs).
    Trace(Arc<TraceSet>),
    /// A synthetic profile driven by an open-loop arrival schedule
    /// (`openloop:WORKLOAD:INTERVAL:SERVICE` on the experiment CLIs).
    OpenLoop(OpenLoopSpec),
}

impl WorkloadClass {
    /// Whether runs of this class vary with the run spec's seed.
    /// Synthetic generators are seeded (open-loop service streams too);
    /// trace replay is literal — the seed changes nothing, so campaign
    /// layers collapse seed replication of trace points to a single run.
    pub fn is_seed_sensitive(&self) -> bool {
        matches!(
            self,
            WorkloadClass::Synthetic(_) | WorkloadClass::OpenLoop(_)
        )
    }

    /// Display name (profile name, or the trace directory).
    pub fn name(&self) -> String {
        match self {
            WorkloadClass::Synthetic(w) => w.name().to_string(),
            WorkloadClass::Trace(t) => format!("trace:{}", t.dir().display()),
            WorkloadClass::OpenLoop(s) => format!(
                "{} open-loop 1/{}c x{}",
                s.workload.name(),
                s.interval,
                s.service_instrs
            ),
        }
    }

    /// The canonical token this class contributes to a `RunSpec` cache
    /// key. Synthetic classes render as the workload's identifier; traces
    /// render as their content hash plus stream and instruction counts.
    /// Note the trace token is a *digest*, not the content itself: unlike
    /// synthetic keys, the cache's verify-on-load check can only be as
    /// strong as this token, so two traces aliasing requires a 64-bit
    /// FNV collision *and* identical stream/instruction counts —
    /// astronomically unlikely, but probabilistic rather than exact.
    pub fn cache_token(&self) -> String {
        match self {
            WorkloadClass::Synthetic(w) => format!("{w:?}"),
            WorkloadClass::Trace(t) => format!(
                "trace:{:016x}x{}i{}",
                t.content_hash(),
                t.streams(),
                t.total_instructions()
            ),
            WorkloadClass::OpenLoop(s) => s.token(),
        }
    }
}

impl From<OpenLoopSpec> for WorkloadClass {
    fn from(s: OpenLoopSpec) -> Self {
        WorkloadClass::OpenLoop(s)
    }
}

impl From<Workload> for WorkloadClass {
    fn from(w: Workload) -> Self {
        WorkloadClass::Synthetic(w)
    }
}

impl From<Arc<TraceSet>> for WorkloadClass {
    fn from(t: Arc<TraceSet>) -> Self {
        WorkloadClass::Trace(t)
    }
}

impl PartialEq for WorkloadClass {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (WorkloadClass::Synthetic(a), WorkloadClass::Synthetic(b)) => a == b,
            (WorkloadClass::Trace(a), WorkloadClass::Trace(b)) => {
                a.content_hash() == b.content_hash()
            }
            (WorkloadClass::OpenLoop(a), WorkloadClass::OpenLoop(b)) => a == b,
            _ => false,
        }
    }
}

impl fmt::Display for WorkloadClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::WorkloadGen;
    use nocout_cpu::source::InstrBlock;
    use std::sync::atomic::{AtomicU64, Ordering};

    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> Self {
            static NEXT: AtomicU64 = AtomicU64::new(0);
            let dir = std::env::temp_dir().join(format!(
                "nocout-trace-test-{tag}-{}-{}",
                std::process::id(),
                NEXT.fetch_add(1, Ordering::Relaxed)
            ));
            std::fs::create_dir_all(&dir).unwrap();
            TempDir(dir)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn capture_one(dir: &Path, core: u32, seed: u64, n: u64) -> PathBuf {
        let profile = Workload::MapReduceC.profile();
        let mut gen = WorkloadGen::new(profile, core as u16, seed);
        let path = dir.join(format!("core-{core:03}{TRACE_SUFFIX}"));
        let mut w = TraceWriter::create(&path, TraceHeader::for_profile(&profile, core, seed))
            .unwrap();
        w.capture(&mut gen, n).unwrap();
        w.finish().unwrap();
        path
    }

    #[test]
    fn capture_then_replay_reproduces_the_stream() {
        let dir = TempDir::new("roundtrip");
        let path = capture_one(&dir.0, 3, 7, 5_000);
        let mut replay = TraceSource::open(&path).unwrap();
        assert_eq!(replay.header().instr_count, 5_000);
        assert_eq!(replay.header().core, 3);
        let mut gen = WorkloadGen::new(Workload::MapReduceC.profile(), 3, 7);
        for n in 0..5_000 {
            assert_eq!(replay.next_instr(), gen.next_instr(), "instr {n}");
        }
    }

    #[test]
    fn replay_loops_past_the_end() {
        let dir = TempDir::new("looping");
        let path = capture_one(&dir.0, 0, 1, 100);
        let mut replay = TraceSource::open(&path).unwrap();
        let first: Vec<FetchedInstr> = (0..100).map(|_| replay.next_instr()).collect();
        let second: Vec<FetchedInstr> = (0..100).map(|_| replay.next_instr()).collect();
        assert_eq!(first, second, "stream must loop exactly");
    }

    #[test]
    fn block_refill_matches_per_instruction_replay() {
        let dir = TempDir::new("block");
        let path = capture_one(&dir.0, 1, 9, 777);
        let mut blocked = TraceSource::open(&path).unwrap();
        let mut direct = TraceSource::open(&path).unwrap();
        let mut block = InstrBlock::new();
        for n in 0..3_000 {
            assert_eq!(block.take(&mut blocked), direct.next_instr(), "instr {n}");
        }
    }

    #[test]
    fn trace_set_loads_streams_in_name_order() {
        let dir = TempDir::new("set");
        capture_one(&dir.0, 5, 2, 50);
        capture_one(&dir.0, 2, 2, 60);
        let set = TraceSet::load(&dir.0).unwrap();
        assert_eq!(set.streams(), 2);
        // File-name order: core-002 before core-005.
        assert_eq!(set.header(0).core, 2);
        assert_eq!(set.header(1).core, 5);
        assert_eq!(set.header(0).instr_count, 60);
        let warm = set.warm();
        assert_eq!(
            warm.instr_footprint_lines,
            Workload::MapReduceC.profile().instr_footprint_lines as u32
        );
    }

    #[test]
    fn content_hash_tracks_every_byte() {
        let dir = TempDir::new("hash");
        let path = capture_one(&dir.0, 0, 4, 200);
        let before = TraceSet::load(&dir.0).unwrap().content_hash();
        let again = TraceSet::load(&dir.0).unwrap().content_hash();
        assert_eq!(before, again, "hash is deterministic");
        // Flip one payload byte (keeping the record layout valid: patch an
        // address byte inside the first record).
        let mut bytes = std::fs::read(&path).unwrap();
        let off = bytes.len() - 2;
        bytes[off] ^= 0x01;
        std::fs::write(&path, bytes).unwrap();
        let after = TraceSet::load(&dir.0).unwrap().content_hash();
        assert_ne!(before, after, "edits must change the hash");
    }

    #[test]
    fn truncated_stream_is_rejected() {
        let dir = TempDir::new("truncated");
        let path = capture_one(&dir.0, 0, 1, 100);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        let err = TraceSet::load(&dir.0).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn wrong_version_is_rejected() {
        let dir = TempDir::new("version");
        let path = capture_one(&dir.0, 0, 1, 10);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[4] = 99; // version field
        std::fs::write(&path, bytes).unwrap();
        let err = TraceSource::open(&path).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
    }

    #[test]
    fn empty_directory_is_rejected() {
        let dir = TempDir::new("empty");
        let err = TraceSet::load(&dir.0).unwrap_err();
        assert!(err.to_string().contains(TRACE_SUFFIX), "{err}");
    }

    #[test]
    fn workload_class_equality_and_tokens() {
        let dir = TempDir::new("class");
        capture_one(&dir.0, 0, 1, 20);
        let a: WorkloadClass = Workload::WebSearch.into();
        let b: WorkloadClass = Workload::WebSearch.into();
        let c: WorkloadClass = Workload::DataServing.into();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.cache_token(), "WebSearch");
        let t = WorkloadClass::from(TraceSet::load(&dir.0).unwrap());
        assert_ne!(t, a);
        assert!(t.cache_token().starts_with("trace:"));
        // One stream of 20 instructions.
        assert!(t.cache_token().ends_with("x1i20"), "{}", t.cache_token());
    }
}
