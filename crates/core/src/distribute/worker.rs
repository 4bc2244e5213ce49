//! The shard worker: serves [`wire`](super::wire) shard requests on a
//! local [`BatchRunner`], streaming back bit-exact metric records.
//!
//! A worker is deliberately stateless between shards: it receives a
//! [`Message::ShardRequest`], executes each spec through the same
//! panic-isolating path as local batches
//! ([`BatchRunner::run_batch_outcomes`]), and answers with one
//! [`Message::PointOk`]/[`Message::PointFailed`] per spec followed by a
//! [`Message::ShardDone`] trailer whose count lets the driver detect a
//! short stream. While a point simulates, a heartbeat thread keeps the
//! connection audibly alive ([`Message::Heartbeat`] every
//! [`Worker::with_heartbeat`] interval), so the driver can distinguish
//! "slow point" from "dead worker" with a single read timeout.
//!
//! The one piece of durable state is the optional [`TraceStore`]
//! (`--trace-store DIR`): a connection opens with the
//! [`Message::Hello`]/[`Message::HelloAck`] capability handshake, where
//! the worker advertises its core count, whether it has a store, and the
//! trace content hashes the store holds. A driver ships missing traces
//! as [`Message::TraceOffer`] + [`Message::TraceChunk`] frames before
//! dispatching trace-bearing shards; the store appends chunks
//! crash-safely and re-verifies the assembled archive against the
//! content hash before installing (`super::store`). Shard requests then
//! resolve `trace@<contenthash>` specs against the store.
//!
//! ## Deterministic fault injection
//!
//! A [`FaultPlan`] makes the worker misbehave on purpose — drop the
//! connection after N result frames (simulating a mid-shard crash),
//! drop it after receiving N trace chunks *without* dying (simulating a
//! crash-and-restart mid-transfer, the staged partial retained), delay
//! every result frame (a straggler), corrupt one frame's payload
//! *after* its digest is computed (undetectable except by the digest),
//! or panic while executing the K-th point. Counters are process-wide,
//! so a plan describes one deterministic failure story regardless of how
//! the driver shards or retries. The chaos CI gates and the
//! fault-injection integration tests drive everything through these
//! flags; nothing here fires unless a plan is set.

use super::store::TraceStore;
use super::wire::{read_frame_with, write_frame, Message, WireError, VERSION};
use crate::cache::render_entry;
use crate::runner::{panic_message, BatchRunner, PointError, RunSpec};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::TcpListener;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Deterministic worker misbehaviour, for tests and the chaos CI gates.
/// All counters refer to process-wide result-frame / point / chunk
/// indices (heartbeats are not counted — their cadence is
/// timing-dependent).
#[derive(Debug, Clone, Copy, Default)]
pub struct FaultPlan {
    /// Drop the connection (and stop serving — a simulated crash) instead
    /// of sending the N-th result frame (0-based).
    pub drop_after_frames: Option<u64>,
    /// Drop the connection after *receiving* (and durably staging) the
    /// N-th trace chunk (1-based: `Some(2)` keeps two chunks). Unlike
    /// `drop_after_frames` the worker keeps serving — it models a worker
    /// that crashed mid-transfer and restarted, so the next offer must
    /// resume from the staged partial.
    pub drop_after_chunks: Option<u64>,
    /// Sleep this long before every result frame (a straggler worker).
    pub delay: Option<Duration>,
    /// Flip one payload byte of the N-th result frame after its digest
    /// is computed — on the wire it is a corrupt frame.
    pub corrupt_frame: Option<u64>,
    /// Panic while executing the K-th point (exercises the worker-side
    /// panic isolation path end to end).
    pub panic_on_point: Option<u64>,
}

impl FaultPlan {
    /// Whether any fault is armed.
    pub fn is_armed(&self) -> bool {
        self.drop_after_frames.is_some()
            || self.drop_after_chunks.is_some()
            || self.delay.is_some()
            || self.corrupt_frame.is_some()
            || self.panic_on_point.is_some()
    }
}

/// A shard worker: a [`BatchRunner`] (plus an optional [`TraceStore`])
/// behind the wire protocol.
#[derive(Debug)]
pub struct Worker {
    runner: BatchRunner,
    store: Option<TraceStore>,
    heartbeat: Duration,
    fault: FaultPlan,
    /// Result frames sent, process-wide (drives `drop_after_frames` /
    /// `corrupt_frame`).
    frames: AtomicU64,
    /// Points executed, process-wide (drives `panic_on_point`).
    points: AtomicU64,
    /// Trace chunks received, process-wide (drives `drop_after_chunks`).
    chunks: AtomicU64,
    /// The drop fault fired: stop serving (the simulated crash).
    dead: AtomicBool,
}

impl Worker {
    /// A worker executing shards on `runner`, heartbeating every 200 ms,
    /// with no trace store (synthetic and open-loop points only).
    pub fn new(runner: BatchRunner) -> Self {
        Worker {
            runner,
            store: None,
            heartbeat: Duration::from_millis(200),
            fault: FaultPlan::default(),
            frames: AtomicU64::new(0),
            points: AtomicU64::new(0),
            chunks: AtomicU64::new(0),
            dead: AtomicBool::new(false),
        }
    }

    /// Attaches a content-addressed trace store: the worker advertises
    /// its held hashes in the handshake, accepts trace shipments, and
    /// resolves `trace@<contenthash>` specs against it.
    pub fn with_trace_store(mut self, store: TraceStore) -> Self {
        self.store = Some(store);
        self
    }

    /// Sets the heartbeat interval. Keep it a small fraction of the
    /// driver's read timeout.
    pub fn with_heartbeat(mut self, interval: Duration) -> Self {
        self.heartbeat = interval;
        self
    }

    /// Arms a deterministic fault plan.
    pub fn with_faults(mut self, fault: FaultPlan) -> Self {
        self.fault = fault;
        self
    }

    /// Whether the drop fault has fired (the worker considers itself
    /// crashed and will serve no further connections).
    pub fn is_dead(&self) -> bool {
        self.dead.load(Ordering::SeqCst)
    }

    /// Serves connections on `listener` until the drop fault fires.
    /// Connections are handled one at a time (a worker owns its whole
    /// pool); per-connection protocol errors are reported on stderr and
    /// do not stop the worker.
    ///
    /// # Errors
    ///
    /// Only accept-level I/O errors; a misbehaving *client* never stops
    /// the worker.
    pub fn serve_listener(&self, listener: &TcpListener) -> std::io::Result<()> {
        for conn in listener.incoming() {
            if self.is_dead() {
                break;
            }
            let stream = conn?;
            let reader = stream.try_clone()?;
            if let Err(e) = self.serve_stream(reader, &stream) {
                if !matches!(e, WireError::Closed) {
                    eprintln!("nocout-worker: connection ended: {e}");
                }
            }
            if self.is_dead() {
                break;
            }
        }
        Ok(())
    }

    /// Serves one peer over stdin/stdout — the pipe transport for local
    /// process pools that never open a socket.
    ///
    /// # Errors
    ///
    /// The first protocol error on the pipe (there is no next connection
    /// to fall back to).
    pub fn serve_stdio(&self) -> Result<(), WireError> {
        self.serve_stream(std::io::stdin().lock(), std::io::stdout())
    }

    /// Serves one peer: handshake, trace shipments and shard requests
    /// in, capability/transfer acks and result frames out, until the
    /// peer closes or a fault fires.
    ///
    /// # Errors
    ///
    /// Any [`WireError`] from the transport or a malformed request — in
    /// particular [`WireError::VersionMismatch`] (naming both versions)
    /// when the peer's frames declare a different protocol version.
    pub fn serve_stream<R: Read, W: Write + Send>(
        &self,
        mut reader: R,
        writer: W,
    ) -> Result<(), WireError> {
        let writer = Mutex::new(writer);
        // Archive totals from offers on *this* connection, so a chunk
        // completing a transfer knows when to commit.
        let mut offers: HashMap<u64, u64> = HashMap::new();
        loop {
            let msg = match read_frame_with(
                &mut reader,
                self.store.as_ref().map(|s| s as &dyn super::wire::TraceLookup),
            ) {
                Ok(m) => m,
                Err(WireError::Closed) => return Ok(()),
                Err(e) => return Err(e),
            };
            match msg {
                Message::Hello { version: _ } => {
                    // Frame decoding already enforced version equality;
                    // the ack advertises this worker's capabilities.
                    let (store, trace_hashes) = match &self.store {
                        Some(s) => (true, s.held()),
                        None => (false, Vec::new()),
                    };
                    self.send_raw(
                        &writer,
                        &Message::HelloAck {
                            version: VERSION,
                            cores: self.runner.jobs() as u32,
                            store,
                            trace_hashes,
                        },
                    )?;
                }
                Message::TraceOffer { hash, total_len } => {
                    let store = self.store.as_ref().ok_or_else(|| {
                        WireError::Malformed(
                            "trace offered to a worker without a --trace-store".into(),
                        )
                    })?;
                    offers.insert(hash, total_len);
                    // A verified installed entry answers with the full
                    // length (nothing to ship); otherwise the staged
                    // partial length is the resume point.
                    let have = if store.get(hash).is_some() {
                        total_len
                    } else {
                        store.staged_len(hash)
                    };
                    self.send_raw(&writer, &Message::TraceAck { hash, have })?;
                }
                Message::TraceChunk { hash, offset, data } => {
                    let store = self.store.as_ref().ok_or_else(|| {
                        WireError::Malformed(
                            "trace chunk sent to a worker without a --trace-store".into(),
                        )
                    })?;
                    let staged = store
                        .append_chunk(hash, offset, &data)
                        .map_err(WireError::Io)?;
                    let chunk_no = self.chunks.fetch_add(1, Ordering::SeqCst) + 1;
                    if self.fault.drop_after_chunks == Some(chunk_no) {
                        // Crash-and-restart mid-transfer: the chunk above
                        // is durably staged, the connection dies, the
                        // worker lives to resume on the next offer.
                        return Err(WireError::Io(std::io::Error::other(
                            "injected fault: connection dropped after trace chunk",
                        )));
                    }
                    let total = offers.get(&hash).copied().ok_or_else(|| {
                        WireError::Malformed(format!(
                            "trace chunk for {hash:016x} without a preceding offer"
                        ))
                    })?;
                    if staged >= total {
                        let installed =
                            store.commit(hash, total).map_err(WireError::Io)?;
                        debug_assert_eq!(installed.content_hash(), hash);
                        self.send_raw(&writer, &Message::TraceAck { hash, have: total })?;
                    }
                }
                Message::ShardRequest { shard, specs } => {
                    self.run_shard(shard, &specs, &writer)?;
                    if self.is_dead() {
                        return Ok(());
                    }
                }
                Message::Heartbeat => {}
                other => {
                    return Err(WireError::Malformed(format!(
                        "worker received a {other:?} frame (only handshakes, trace \
                         shipments and shard requests flow this way)"
                    )))
                }
            }
        }
    }

    /// Executes one shard, streaming results as they complete. Points run
    /// one at a time through the runner (its cache still memoizes each),
    /// so results stream out between points and a heartbeat thread covers
    /// the silence *within* a long point.
    fn run_shard<W: Write + Send>(
        &self,
        shard: u64,
        specs: &[RunSpec],
        writer: &Mutex<W>,
    ) -> Result<(), WireError> {
        let stop = AtomicBool::new(false);
        // Copied out so the heartbeat thread does not capture `self`
        // (the runner's cache counters are deliberately not `Sync`).
        let heartbeat = self.heartbeat;
        std::thread::scope(|scope| {
            let stop = &stop;
            scope.spawn(move || {
                // Heartbeat ticker: wakes often enough to stop promptly,
                // writes at the configured cadence. Write errors are left
                // for the result path to surface.
                let tick = Duration::from_millis(20).min(heartbeat);
                let mut since_beat = Duration::ZERO;
                while !stop.load(Ordering::SeqCst) {
                    std::thread::sleep(tick);
                    since_beat += tick;
                    if since_beat >= heartbeat {
                        since_beat = Duration::ZERO;
                        if let Ok(mut w) = writer.lock() {
                            let _ = write_frame(&mut *w, &Message::Heartbeat);
                        }
                    }
                }
            });
            let result = self.run_shard_inner(shard, specs, writer);
            stop.store(true, Ordering::SeqCst);
            result
        })
    }

    fn run_shard_inner<W: Write + Send>(
        &self,
        shard: u64,
        specs: &[RunSpec],
        writer: &Mutex<W>,
    ) -> Result<(), WireError> {
        let mut sent = 0u32;
        for (index, spec) in specs.iter().enumerate() {
            let point_no = self.points.fetch_add(1, Ordering::SeqCst);
            let outcome = if self.fault.panic_on_point == Some(point_no) {
                // A real unwind through the isolation path, not a
                // synthesized error: the fault proves the machinery.
                catch_unwind(AssertUnwindSafe(|| {
                    panic!("injected fault: panic on point {point_no}")
                }))
                .map_err(|p| PointError {
                    cache_key: spec.cache_key(),
                    message: panic_message(p),
                })
            } else {
                self.runner
                    .run_batch_outcomes(std::slice::from_ref(spec))
                    .pop()
                    .expect("one spec yields one outcome")
            };
            let msg = match outcome {
                Ok(metrics) => Message::PointOk {
                    shard,
                    index: index as u32,
                    entry: render_entry(&spec.cache_key(), &metrics),
                },
                Err(e) => Message::PointFailed {
                    shard,
                    index: index as u32,
                    error: e.message,
                },
            };
            self.send_result(writer, &msg)?;
            sent += 1;
        }
        self.send_result(writer, &Message::ShardDone { shard, points: sent })
    }

    /// Sends a protocol frame that is *not* a result frame (handshake
    /// and transfer acks): no fault counters apply.
    fn send_raw<W: Write + Send>(
        &self,
        writer: &Mutex<W>,
        msg: &Message,
    ) -> Result<(), WireError> {
        let mut w = writer.lock().map_err(|_| {
            WireError::Io(std::io::Error::other("writer lock poisoned"))
        })?;
        write_frame(&mut *w, msg)
    }

    /// Sends one result frame, applying the armed faults in order:
    /// delay, then drop, then corruption.
    fn send_result<W: Write + Send>(
        &self,
        writer: &Mutex<W>,
        msg: &Message,
    ) -> Result<(), WireError> {
        if let Some(d) = self.fault.delay {
            std::thread::sleep(d);
        }
        let frame_no = self.frames.fetch_add(1, Ordering::SeqCst);
        if self.fault.drop_after_frames == Some(frame_no) {
            self.dead.store(true, Ordering::SeqCst);
            return Err(WireError::Io(std::io::Error::other(
                "injected fault: connection dropped",
            )));
        }
        let mut frame = super::wire::encode_frame(msg)?;
        if self.fault.corrupt_frame == Some(frame_no) {
            let last = frame.len() - 1;
            frame[last] ^= 0x01;
        }
        let mut w = writer.lock().map_err(|_| {
            WireError::Io(std::io::Error::other("writer lock poisoned"))
        })?;
        w.write_all(&frame)?;
        w.flush()?;
        Ok(())
    }
}
