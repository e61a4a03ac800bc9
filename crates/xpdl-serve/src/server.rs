//! The TCP daemon: listener, worker pool, admission control, deadlines.
//!
//! Thread model: one accept loop, one reader thread per connection, and
//! a global bounded worker pool. Every request, in either encoding,
//! takes the same path on its connection's reader thread: read one line
//! or frame, decode, admit, execute, encode, write. Cheap methods execute
//! right there; only methods that block or rebuild the model (`sleep`,
//! `reload`, `shutdown`) are handed to the worker pool, and the worker
//! that runs one writes its reply itself. Pool replies may therefore
//! overtake or trail inline ones — the protocol's `id` correlation is
//! what makes that safe. The socket's write half sits behind a mutex
//! shared by the reader and the workers, so replies never tear, and
//! every write is bounded by [`WRITE_TIMEOUT`].
//!
//! All socket I/O blocks, and stopping wakes it rather than a timer:
//! [`Server::shutdown`], or the worker that runs the protocol
//! `shutdown`, connects once to unblock `accept`; the accept loop (shared
//! with the registry daemon, [`xpdl_registry::server::accept_loop`])
//! then shuts down the read half of every live connection, whose reader
//! sees EOF while in-flight replies still go out. Workers block on the
//! job queue and exit when its last sender, a connection, is gone.
//!
//! Every connection starts in JSON-lines; a `hello` as the very first
//! message may switch it to the binary framing of [`crate::codec`]
//! (spec: `docs/WIRE.md`). Only framing, decode and encode depend on the
//! encoding, and JSON replies are byte-for-byte the pre-negotiation wire.
//!
//! Admission control happens *before* a request is executed or
//! enqueued: if the in-flight gauge is at `max_inflight` the request is
//! shed immediately with `S420` rather than queued behind work the
//! server cannot finish in time. Requests handed to the pool carry their
//! arrival instant; a worker that dequeues one past its deadline answers
//! `S421` without touching the model. Load is therefore bounded in both
//! depth (permits) and time (deadline), and overload degrades into fast,
//! explicit errors instead of unbounded queueing.

use crate::codec::{self, Encoding, StrDecoder, StrEncoder};
use crate::engine::Engine;
use crate::protocol::{codes, parse_request, Method, Reply, Request, Response, ServeError};
use crate::stats::InflightPermit;
use std::io::{BufRead, BufReader, ErrorKind, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};
use xpdl_registry::server::{accept_loop, wake_accept, write_or_shutdown, WriteHalf};

/// How long one reply may block on a client that stopped reading before
/// that connection is shut down. A reading client drains its socket
/// buffer far faster; without a bound, a stalled client pins its reader
/// thread, or the pool worker answering its `sleep`/`reload`, and
/// [`Server::join`] never returns.
pub const WRITE_TIMEOUT: Duration = Duration::from_secs(1);

/// Tuning knobs for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// Worker threads executing `sleep`/`reload`/`shutdown` (min 1).
    pub workers: usize,
    /// Maximum requests admitted concurrently; beyond this, shed `S420`.
    pub max_inflight: usize,
    /// Deadline for pool requests measured from admission; exceeded in
    /// queue → `S421`. `None` disables queue deadlines.
    pub deadline: Option<Duration>,
    /// Longest accepted request line — or binary frame body — in bytes
    /// (`S414` beyond).
    pub max_line_bytes: usize,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions {
            workers: 4,
            max_inflight: 256,
            deadline: Some(Duration::from_millis(2000)),
            max_line_bytes: 64 * 1024,
        }
    }
}

/// One admitted request travelling to the worker pool.
struct Job {
    request: Request,
    admitted_at: Instant,
    /// Encoding the response must be serialized in. Fixed at admission:
    /// a connection's encoding can only change on its first message, and
    /// by then no job from it can be in flight.
    enc: Encoding,
    /// The connection the worker writes its reply to.
    write_half: WriteHalf,
}

/// A running daemon. Dropping it (or calling [`Server::shutdown`] and
/// then [`Server::join`]) stops the accept loop and the worker pool.
pub struct Server {
    engine: Arc<Engine>,
    addr: SocketAddr,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("addr", &self.addr)
            .field("threads", &self.threads.len())
            .finish()
    }
}

impl Server {
    /// Bind `addr` and start serving `engine`. Returns once the listener
    /// is accepting; serving continues on background threads.
    pub fn start(
        engine: Arc<Engine>,
        addr: &str,
        options: ServerOptions,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;

        let (job_tx, job_rx) = mpsc::channel::<Job>();
        let job_rx = Arc::new(parking_lot::Mutex::new(job_rx));
        let mut threads = Vec::new();

        for w in 0..options.workers.max(1) {
            let engine = Arc::clone(&engine);
            let job_rx = Arc::clone(&job_rx);
            let deadline = options.deadline;
            threads.push(
                std::thread::Builder::new()
                    .name(format!("xpdl-serve-worker-{w}"))
                    .spawn(move || worker_loop(&engine, &job_rx, deadline, local))
                    .expect("spawn worker"),
            );
        }

        {
            let engine = Arc::clone(&engine);
            let conn_engine = Arc::clone(&engine);
            threads.push(
                std::thread::Builder::new()
                    .name("xpdl-serve-accept".to_string())
                    .spawn(move || {
                        accept_loop(
                            &listener,
                            "xpdl-serve-conn",
                            WRITE_TIMEOUT,
                            || engine.shutdown_requested(),
                            move |stream, conn| {
                                conn_engine.stats().connections.inc();
                                connection_loop(stream, conn, &conn_engine, &options, &job_tx);
                            },
                        )
                    })
                    .expect("spawn accept loop"),
            );
        }

        Ok(Server { engine, addr: local, threads })
    }

    /// The address actually bound (resolves `:0` to the real port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The engine this server fronts.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// Whether the server has been asked to stop (locally or via the
    /// protocol `shutdown` method).
    pub fn stopping(&self) -> bool {
        self.engine.shutdown_requested()
    }

    /// Ask all server threads to wind down, waking the blocked accept.
    pub fn shutdown(&self) {
        self.engine.request_shutdown();
        wake_accept(self.addr);
    }

    /// Block until every server thread has exited. Call
    /// [`Server::shutdown`] first (or have a client send `shutdown`).
    pub fn join(mut self) {
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.threads.is_empty() {
            return; // already joined
        }
        self.shutdown();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Per-connection wire state owned by the reader thread.
struct ConnState {
    /// Current encoding; starts JSON, switched at most once by `hello`.
    enc: Encoding,
    /// Whether any message (even an unparseable one) has been received.
    /// `hello` may only negotiate while this is false — after any other
    /// traffic a pool reply could still be in flight, and switching
    /// encodings under it would corrupt the stream.
    saw_traffic: bool,
    /// Request-direction intern table (client-driven defines).
    req_strings: StrDecoder,
    /// Response-direction intern table. Reader-thread exclusive: inline
    /// replies intern through it; worker replies are encoded inline-only
    /// so they never touch (or depend on) this table.
    resp_strings: StrEncoder,
    /// Shared with every pool job this connection enqueues.
    write_half: WriteHalf,
}

/// Serve one connection until the client leaves, framing is lost, a
/// write fails, or the server stops.
fn connection_loop(
    stream: TcpStream,
    write_half: WriteHalf,
    engine: &Arc<Engine>,
    options: &ServerOptions,
    job_tx: &mpsc::Sender<Job>,
) {
    let mut conn = ConnState {
        enc: Encoding::Json,
        saw_traffic: false,
        req_strings: StrDecoder::new(),
        resp_strings: StrEncoder::new(),
        write_half,
    };
    let mut reader = BufReader::new(stream);
    let mut line = Vec::new();
    while serve_step(&mut reader, &mut line, &mut conn, engine, options, job_tx) {}
}

/// Read, decode and answer (or enqueue) one message in the connection's
/// current encoding. Returns false when the connection is done.
fn serve_step(
    reader: &mut BufReader<TcpStream>,
    line: &mut Vec<u8>,
    conn: &mut ConnState,
    engine: &Arc<Engine>,
    options: &ServerOptions,
    job_tx: &mpsc::Sender<Job>,
) -> bool {
    let cap = options.max_line_bytes;
    let too_long = |message: String| Err((None, ServeError::new(codes::LINE_TOO_LONG, message)));
    let decoded = match conn.enc {
        Encoding::Json => {
            line.clear();
            match reader.take(cap as u64 + 1).read_until(b'\n', line) {
                Ok(_) if line.ends_with(b"\n") => {
                    let text = String::from_utf8_lossy(line);
                    let trimmed = text.trim();
                    if trimmed.is_empty() {
                        // Empty lines are ignored and are not traffic.
                        return true;
                    }
                    parse_request(trimmed)
                }
                Ok(_) if line.len() > cap => too_long(format!("request line exceeds {cap} bytes")),
                // EOF (a dangling partial line drops with it) or a dead socket.
                _ => return false,
            }
        }
        Encoding::Binary => match codec::read_frame(reader, cap) {
            Ok(Some(body)) => codec::decode_request(&body, &mut conn.req_strings),
            // The declared length is over the cap; refused before buffering.
            Err(e) if e.kind() == ErrorKind::InvalidData => too_long(e.to_string()),
            // EOF (a partial frame drops with it) or a dead socket.
            _ => return false,
        },
    };
    let request = match decoded {
        Ok(r) => r,
        Err((id, e)) => {
            conn.saw_traffic = true;
            engine.stats().record_unhandled();
            // S412 (well-framed, bad params) keeps the connection; S414
            // and S415 mean framing is lost — report, then close.
            let fatal = e.code == codes::BAD_FRAME || e.code == codes::LINE_TOO_LONG;
            return reply(&Response::err(id.unwrap_or(0), e), conn) && !fatal;
        }
    };
    if matches!(request.method, Method::Hello { .. }) {
        return handle_hello(&request, conn, engine);
    }
    conn.saw_traffic = true;
    dispatch(request, conn, engine, options, job_tx)
}

/// Handle a `hello`. Negotiation is only allowed as the connection's
/// first message: then no pool reply can be in flight, so the ack
/// (always in the pre-switch encoding) is the last byte in the old
/// encoding and every later reply lands after it. After any traffic,
/// `hello` answers `S412` and the encoding stays put.
fn handle_hello(request: &Request, conn: &mut ConnState, engine: &Arc<Engine>) -> bool {
    if conn.saw_traffic {
        engine.stats().record_unhandled();
        let err =
            ServeError::invalid_params("hello must be the first request on a connection");
        return reply(&Response::err(request.id, err), conn);
    }
    conn.saw_traffic = true;
    // The engine negotiates (S412 when no overlap).
    let resp = engine.handle(request);
    if !reply(&resp, conn) {
        return false;
    }
    if let Ok(Reply::Hello { encoding }) = &resp.result {
        if encoding == codec::BINARY {
            conn.enc = Encoding::Binary;
        }
    }
    true
}

/// Admit one request, then execute it inline and reply, or hand it to
/// the worker pool. Returns false when the socket is gone.
fn dispatch(
    request: Request,
    conn: &mut ConnState,
    engine: &Arc<Engine>,
    options: &ServerOptions,
    job_tx: &mpsc::Sender<Job>,
) -> bool {
    let permit = match InflightPermit::try_acquire(engine.stats(), options.max_inflight) {
        Ok(permit) => permit,
        Err(shed) => {
            // Shed at the door: rejected, never served — keep it out of
            // the served-latency percentiles (see ServeStats docs).
            engine.stats().record_rejected(0);
            return reply(&Response::err(request.id, shed), conn);
        }
    };
    if !matches!(request.method, Method::Sleep { .. } | Method::Reload | Method::Shutdown) {
        // Inline execution never queues; the zero keeps the queue-wait
        // histogram honest about what this path skips.
        engine.stats().queue_wait_us.record(0);
        let resp = engine.handle(&request);
        drop(permit);
        return reply(&resp, conn);
    }
    // Blocking or model-rebuilding: keep off the reader. The job owns
    // the in-flight slot until a worker finishes it, so forget the RAII
    // guard here; the worker decrements the gauge.
    std::mem::forget(permit);
    let job = Job {
        request,
        admitted_at: Instant::now(),
        enc: conn.enc,
        write_half: Arc::clone(&conn.write_half),
    };
    if job_tx.send(job).is_ok() {
        return true;
    }
    // Every worker is gone (they outlive the senders, so only panics get
    // here): undo the in-flight claim.
    engine.stats().inflight.dec();
    engine.stats().record_unhandled();
    let resp = Response::err(0, ServeError::new(codes::SHUTTING_DOWN, "server is stopping"));
    reply(&resp, conn)
}

/// Worker: dequeue jobs, enforce deadlines, run the engine, reply.
fn worker_loop(
    engine: &Arc<Engine>,
    job_rx: &parking_lot::Mutex<mpsc::Receiver<Job>>,
    deadline: Option<Duration>,
    addr: SocketAddr,
) {
    loop {
        // Hold the receiver lock only for the dequeue, never during
        // request execution. `recv` fails once every sender — the accept
        // loop and its connections — is gone.
        let Ok(job) = job_rx.lock().recv() else { return };
        if engine.shutdown_requested() {
            // Dequeued after stop: dropped unanswered.
            engine.stats().inflight.dec();
            continue;
        }
        let queue_wait = job.admitted_at.elapsed();
        let wait_us = queue_wait.as_micros().min(u64::MAX as u128) as u64;
        engine.stats().queue_wait_us.record(wait_us);
        let response = match deadline {
            Some(d) if queue_wait > d => {
                engine.stats().deadline_exceeded.inc();
                // A queue-expired request was never served; recording it
                // as a 0µs sample in the latency ring skewed p99 under
                // shed. It goes to the reject histogram instead.
                engine.stats().record_rejected(wait_us);
                Response::err(
                    job.request.id,
                    ServeError::new(
                        codes::DEADLINE_EXCEEDED,
                        format!("request spent more than {} ms queued", d.as_millis()),
                    ),
                )
            }
            _ => engine.handle(&job.request),
        };
        // The job held the in-flight slot transferred in `dispatch`.
        engine.stats().inflight.dec();
        // Inline-only binary frames never define string ids, so they are
        // valid against the client's decoder however they interleave
        // with the reader's interned frames.
        let bytes = encode(&response, job.enc, &mut StrEncoder::inline_only());
        write_or_shutdown(&job.write_half, &bytes);
        if matches!(response.result, Ok(Reply::ShuttingDown)) {
            // The engine flag cannot reach a blocked `accept`.
            wake_accept(addr);
        }
    }
}

/// Serialize a response for the wire: a JSON line (newline included) or
/// a binary frame interned through `strings`.
fn encode(resp: &Response, enc: Encoding, strings: &mut StrEncoder) -> Vec<u8> {
    match enc {
        Encoding::Json => {
            let mut out = resp.to_json().into_bytes();
            out.push(b'\n');
            out
        }
        Encoding::Binary => codec::encode_response(resp, strings),
    }
}

/// Encode a response with the reader-owned interning table and write it
/// under the shared lock. Reader-thread only — interleaving with
/// worker-produced inline-only frames is safe because only this thread
/// ever *defines* string ids, in the order it writes them. Returns false
/// when the socket is gone.
fn reply(resp: &Response, conn: &mut ConnState) -> bool {
    let bytes = encode(resp, conn.enc, &mut conn.resp_strings);
    write_or_shutdown(&conn.write_half, &bytes)
}

/// Spawn a thread that calls [`Engine::reload`] every `interval` until
/// the engine shuts down. Reload failures are counted in stats and leave
/// the previous snapshot serving.
pub fn spawn_reload_thread(
    engine: Arc<Engine>,
    interval: Duration,
) -> std::thread::JoinHandle<()> {
    std::thread::Builder::new()
        .name("xpdl-serve-reload".to_string())
        .spawn(move || {
            let step = Duration::from_millis(50).min(interval);
            let mut elapsed = Duration::ZERO;
            loop {
                if engine.shutdown_requested() {
                    break;
                }
                std::thread::sleep(step);
                elapsed += step;
                if elapsed >= interval {
                    elapsed = Duration::ZERO;
                    let _ = engine.reload();
                }
            }
        })
        .expect("spawn reload thread")
}

/// Unix: arrange for SIGTERM/SIGINT to set the given flag, so the CLI
/// can shut the server down cleanly from `kill -TERM`. No-op elsewhere.
#[cfg(unix)]
pub fn install_termination_handler(flag: &'static AtomicBool) {
    // libc is already linked by std; declaring `signal` avoids a crate
    // dependency. The handler only does an atomic store — async-signal-safe.
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    static FLAG: std::sync::OnceLock<&'static AtomicBool> = std::sync::OnceLock::new();
    let _ = FLAG.set(flag);
    extern "C" fn on_term(_sig: i32) {
        if let Some(f) = FLAG.get() {
            f.store(true, Ordering::Release);
        }
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGTERM, on_term as *const () as usize);
        signal(SIGINT, on_term as *const () as usize);
    }
}

/// Portable stub when not on unix: termination is ctrl-c only.
#[cfg(not(unix))]
pub fn install_termination_handler(_flag: &'static AtomicBool) {}
