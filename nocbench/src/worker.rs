//! Local shard workers: this binary re-executed in worker mode, serving
//! `nocout::distribute` shard requests on a loopback port.

use nocout::distribute::{read_frame, write_frame, Message, TraceStore, Worker, VERSION};
use nocout::runner::BatchRunner;
use std::io::Read as _;
use std::io::{BufRead, BufReader, Write as _};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};

/// A running worker process, killed and reaped on drop.
pub struct WorkerProc {
    child: Child,
    /// Held open while the worker should live: the worker exits when it
    /// closes, even if this process dies without running `Drop`.
    _stdin: ChildStdin,
    /// Kept open so the worker never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
    /// The worker's `host:port`.
    pub addr: String,
}

impl WorkerProc {
    /// Starts a one-job worker with an empty trace store at `store` and
    /// waits for its `listening <addr>` banner.
    ///
    /// # Errors
    ///
    /// The process cannot start or announces no address.
    pub fn spawn(store: &Path) -> Result<WorkerProc, String> {
        let exe = std::env::current_exe().map_err(|e| format!("no executable path: {e}"))?;
        let mut child = Command::new(exe)
            .arg("--worker")
            .arg(store)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start a worker: {e}"))?;
        let stdin = child.stdin.take().expect("stdin is piped");
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut banner = String::new();
        let addr = match stdout.read_line(&mut banner) {
            Ok(_) => banner.trim().strip_prefix("listening ").map(str::to_string),
            Err(_) => None,
        };
        let mut proc = WorkerProc {
            child,
            _stdin: stdin,
            _stdout: stdout,
            addr: String::new(),
        };
        match addr {
            Some(a) => {
                proc.addr = a;
                Ok(proc)
            }
            None => Err(format!("worker announced no address (got {banner:?})")),
        }
    }

    /// Dials the worker and completes the capability handshake.
    ///
    /// # Errors
    ///
    /// A transport error or an answer other than `HelloAck`.
    pub fn handshake(&self) -> Result<(), String> {
        let mut s =
            TcpStream::connect(&self.addr).map_err(|e| format!("dial {}: {e}", self.addr))?;
        write_frame(&mut s, &Message::Hello { version: VERSION }).map_err(|e| e.to_string())?;
        match read_frame(&mut s).map_err(|e| e.to_string())? {
            Message::HelloAck { .. } => Ok(()),
            other => Err(format!("worker answered the handshake with {other:?}")),
        }
    }
}

impl Drop for WorkerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Starts `n` workers with trace stores `<dir>/store-<i>` and shakes
/// hands with each.
///
/// # Errors
///
/// Any worker failing to start or to answer.
pub fn start(dir: &Path, n: usize) -> Result<Vec<WorkerProc>, String> {
    (0..n)
        .map(|i| {
            let w = WorkerProc::spawn(&dir.join(format!("store-{i}")))?;
            w.handshake()?;
            Ok(w)
        })
        .collect()
}

/// Worker mode: binds a loopback port, announces it, and serves shard
/// connections on one simulation job until killed or until its stdin
/// closes (the benchmark process that started it is gone).
pub fn serve(store: &Path) -> Result<(), String> {
    std::thread::spawn(|| {
        let _ = std::io::stdin().read_to_end(&mut Vec::new());
        std::process::exit(0);
    });
    let store = TraceStore::open(store).map_err(|e| format!("trace store: {e}"))?;
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let mut out = std::io::stdout();
    writeln!(out, "listening {addr}")
        .and_then(|()| out.flush())
        .map_err(|e| e.to_string())?;
    Worker::new(BatchRunner::new(1))
        .with_trace_store(store)
        .serve_listener(&listener)
        .map_err(|e| e.to_string())
}
