//! The TCP daemon: listener, connection readers, admission control.
//!
//! Thread model: one accept loop and one reader thread per connection,
//! as in the registry daemon (DESIGN.md §16). Every request, in either
//! encoding, takes one path on its connection's reader thread: read one
//! line or frame, decode, admit, execute, encode, write. Replies
//! therefore leave in the order their requests arrived (`docs/WIRE.md`
//! §1), and only the reader defines binary string ids. Each write is
//! bounded by [`WRITE_TIMEOUT`].
//!
//! Waiting for the next request has two phases (Ousterhout's two-phase
//! waiting): a reader whose connection is the daemon's only active one
//! polls its socket for up to [`SPIN_BUDGET`], yielding between polls,
//! and only then blocks in `read`. A lone closed-loop client's next
//! request then lands while its reader still runs, instead of paying a
//! wake-up from an idle CPU per call. A per-daemon gate decides "only
//! active": no other connection of this daemon read a request in the
//! last one to two [`GATE_WINDOW_MS`] windows. There is no spin on fewer
//! than two CPUs or where `poll(2)` is not declared.
//!
//! Every other socket wait blocks, and stopping wakes it rather than a
//! timer: [`Server::shutdown`], or the reader that runs the protocol
//! `shutdown` once its reply is written, connects once to unblock
//! `accept`; the accept loop (shared with the registry daemon,
//! [`xpdl_registry::server::accept_loop`]) then shuts down the read half
//! of every live connection, which makes a spinning reader's socket
//! readable and a blocked reader's `read` return EOF.
//!
//! Every connection starts in JSON-lines; a `hello` as the very first
//! message may switch it to the binary framing of [`crate::codec`]
//! (spec: `docs/WIRE.md`). Only framing, decode and encode depend on the
//! encoding, and JSON replies are byte-for-byte the pre-negotiation wire.
//!
//! Admission control happens *before* a request is executed: if the
//! in-flight gauge is at `max_inflight` the request is shed immediately
//! with `S420`, so overload degrades into fast, explicit errors instead
//! of requests waiting on work the server cannot finish.

use crate::codec::{self, Encoding, StrDecoder, StrEncoder};
use crate::engine::Engine;
use crate::protocol::{codes, parse_request, Method, Reply, Request, Response, ServeError};
use crate::stats::{InflightPermit, ServeStats};
use std::io::{BufRead, BufReader, ErrorKind, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use xpdl_registry::server::{
    accept_loop, wake_accept, write_or_shutdown, WriteHalf, MAX_LINE_BYTES,
};

/// How long one reply may block on a client that stopped reading before
/// that connection is shut down. A reading client drains its socket
/// buffer far faster; without a bound, a stalled client pins its reader
/// thread and [`Server::join`] never returns.
pub const WRITE_TIMEOUT: Duration = Duration::from_secs(1);

/// How long a reader polls its socket for the next request before it
/// blocks, when no other connection of its daemon is active. On the
/// benchmark's lone closed-loop binary client, 98.5–99.7% of next
/// requests became readable within 50 µs of the previous reply's write
/// (DESIGN.md §13 has the distribution). A client that goes silent costs
/// one budget of CPU.
pub const SPIN_BUDGET: Duration = Duration::from_micros(50);

/// The two-phase wait's gate window, in milliseconds. A connection that
/// read a request counts as active for the rest of that window and all
/// of the next, so for one to two windows.
pub const GATE_WINDOW_MS: u64 = 1;

/// Admission control for [`Server::start`]. A request line or binary
/// frame body over [`MAX_LINE_BYTES`] (64 KiB) is refused with `S414`.
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// Maximum requests admitted concurrently; beyond this, shed `S420`.
    pub max_inflight: usize,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions { max_inflight: 256 }
    }
}

/// A running daemon. Dropping it (or calling [`Server::shutdown`] and
/// then [`Server::join`]) stops the accept loop and every reader.
pub struct Server {
    engine: Arc<Engine>,
    addr: SocketAddr,
    accept: Option<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server").field("addr", &self.addr).finish()
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
        let conn_engine = Arc::clone(&engine);
        let gate = Arc::new(ReadGate::new());
        let accept = std::thread::Builder::new()
            .name("xpdl-serve-accept".to_string())
            .spawn(move || {
                let stopping = Arc::clone(&conn_engine);
                accept_loop(
                    &listener,
                    "xpdl-serve-conn",
                    WRITE_TIMEOUT,
                    || stopping.shutdown_requested(),
                    move |stream, conn| {
                        conn_engine.stats().connections.inc();
                        let max_inflight = options.max_inflight;
                        connection_loop(stream, conn, local, &conn_engine, max_inflight, &gate);
                    },
                )
            })
            .expect("spawn accept loop");
        Ok(Server { engine, addr: local, accept: Some(accept) })
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
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(accept) = self.accept.take() {
            self.shutdown();
            let _ = accept.join();
        }
    }
}

/// Per-connection wire state owned by the reader thread.
struct ConnState {
    /// Current encoding; starts JSON, switched at most once by `hello`.
    enc: Encoding,
    /// Whether any message (even an unparseable one) has been received.
    /// `hello` may only negotiate while this is false (WIRE.md §3.2).
    saw_traffic: bool,
    /// Request-direction intern table (client-driven defines).
    req_strings: StrDecoder,
    /// Response-direction intern table; every reply interns through it.
    resp_strings: StrEncoder,
    /// The socket's write half; every reply is written under its lock.
    write_half: WriteHalf,
    /// The listener's address: a protocol `shutdown` connects to it once
    /// to wake the blocked `accept`.
    listener: SocketAddr,
    /// This reader's side of the two-phase wait.
    waiter: Waiter,
}

/// Serve one connection until the client leaves, framing is lost, a
/// write fails, or the server stops.
fn connection_loop(
    stream: TcpStream,
    write_half: WriteHalf,
    listener: SocketAddr,
    engine: &Engine,
    max_inflight: usize,
    gate: &ReadGate,
) {
    let mut conn = ConnState {
        enc: Encoding::Json,
        saw_traffic: false,
        req_strings: StrDecoder::new(),
        resp_strings: StrEncoder::new(),
        write_half,
        listener,
        waiter: Waiter::default(),
    };
    let mut reader = BufReader::new(stream);
    let mut line = Vec::new();
    while serve_step(&mut reader, &mut line, &mut conn, engine, max_inflight, gate) {}
    conn.waiter.flush(engine.stats());
}

/// Read, decode and answer one message in the connection's current
/// encoding. Returns false when the connection is done.
fn serve_step(
    reader: &mut BufReader<TcpStream>,
    line: &mut Vec<u8>,
    conn: &mut ConnState,
    engine: &Engine,
    max_inflight: usize,
    gate: &ReadGate,
) -> bool {
    if reader.buffer().is_empty() {
        conn.waiter.wait(reader.get_ref(), gate, engine.stats());
    }
    let cap = MAX_LINE_BYTES;
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
    conn.waiter.read(gate, Instant::now(), engine.stats());
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
    dispatch(&request, conn, engine, max_inflight)
}

/// Handle a `hello`. Negotiation is only allowed as the connection's
/// first message; the ack goes out in the pre-switch encoding, and every
/// later reply lands after it. After any traffic, `hello` answers `S412`
/// and the encoding stays put.
fn handle_hello(request: &Request, conn: &mut ConnState, engine: &Engine) -> bool {
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

/// Admit one request, execute it and write its reply. Returns false when
/// the socket is gone.
fn dispatch(request: &Request, conn: &mut ConnState, engine: &Engine, max_inflight: usize) -> bool {
    let resp = match InflightPermit::try_acquire(engine.stats(), max_inflight) {
        // The permit is held while the handler runs, not while the
        // reply is written.
        Ok(_permit) => engine.handle(request),
        Err(shed) => {
            // Shed at the door: never served, so it leaves no latency
            // sample (see ServeStats docs).
            engine.stats().record_unhandled();
            Response::err(request.id, shed)
        }
    };
    let written = reply(&resp, conn);
    if matches!(resp.result, Ok(Reply::ShuttingDown)) {
        // The engine flag cannot reach a blocked `accept`.
        wake_accept(conn.listener);
    }
    written
}

/// Encode a response in the connection's encoding — a JSON line, or a
/// binary frame interned through the reader's table — and write it.
/// Returns false when the socket is gone.
fn reply(resp: &Response, conn: &mut ConnState) -> bool {
    let bytes = match conn.enc {
        Encoding::Json => {
            let mut out = resp.to_json().into_bytes();
            out.push(b'\n');
            out
        }
        Encoding::Binary => codec::encode_response(resp, &mut conn.resp_strings),
    };
    write_or_shutdown(&conn.write_half, &bytes)
}

/// Bits of a [`ReadGate`] slot that count connections; the window number
/// sits above them.
const COUNT_BITS: u32 = 24;

/// Which of one daemon's connections read a request lately, for the
/// two-phase wait. One word per window parity holds the window's number
/// and how many connections read a request in it
/// (`window << COUNT_BITS | count`). A connection counts itself once per
/// window, so two busy connections each store to these words about once
/// a millisecond and otherwise only load them. Every access is relaxed:
/// the words publish no other data, and a stale read costs at most one
/// spin begun or skipped.
struct ReadGate {
    /// Whether readers spin at all: `poll(2)` is declared here, and the
    /// host has at least two CPUs, so a spinning reader and its client
    /// need not share one.
    spins: bool,
    origin: Instant,
    slots: [AtomicU64; 2],
}

impl ReadGate {
    fn new() -> ReadGate {
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        ReadGate {
            spins: cfg!(any(target_os = "linux", target_os = "macos")) && cpus >= 2,
            origin: Instant::now(),
            slots: [AtomicU64::new(0), AtomicU64::new(0)],
        }
    }

    /// The window `now` falls in, counted from 1: a slot's initial word
    /// reads as window 0 with no connections.
    fn window(&self, now: Instant) -> u64 {
        now.duration_since(self.origin).as_millis() as u64 / GATE_WINDOW_MS + 1
    }

    /// Count one more connection in window `w`, unless a later window
    /// has taken its slot already.
    fn count(&self, w: u64) {
        let slot = &self.slots[(w & 1) as usize];
        let mut cur = slot.load(Ordering::Relaxed);
        loop {
            let next = match cur >> COUNT_BITS {
                tag if tag == w => cur + 1,
                tag if tag < w => w << COUNT_BITS | 1,
                _ => return,
            };
            match slot.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Whether a connection other than the one `me` serves read a
    /// request in window `w` or in the one before it.
    fn others_active(&self, w: u64, me: &Waiter) -> bool {
        [w, w - 1].into_iter().any(|v| {
            let slot = self.slots[(v & 1) as usize].load(Ordering::Relaxed);
            let count = if slot >> COUNT_BITS == v { slot & ((1 << COUNT_BITS) - 1) } else { 0 };
            count > u64::from(me.counted.contains(&v))
        })
    }
}

/// One reader's side of the two-phase wait.
#[derive(Default)]
struct Waiter {
    /// The last two windows this connection counted itself in, newest
    /// first (0: none).
    counted: [u64; 2],
    /// Waits that blocked without spinning, not yet added to
    /// `serve.read.spin_skipped`: a shared counter bumped per request
    /// would be the store per request that the gate avoids.
    skipped: u64,
}

impl Waiter {
    /// A request was read at `now`: count this connection in that
    /// window, once per window, and hand over the skipped waits then.
    fn read(&mut self, gate: &ReadGate, now: Instant, stats: &ServeStats) {
        let w = gate.window(now);
        if w != self.counted[0] {
            gate.count(w);
            self.counted = [w, self.counted[0]];
            self.flush(stats);
        }
    }

    /// The first phase of a wait for the next request: unless another
    /// connection is active, poll `stream` until it is readable, another
    /// connection reads a request, or [`SPIN_BUDGET`] is spent. The
    /// caller's read then returns at once or blocks.
    fn wait(&mut self, stream: &TcpStream, gate: &ReadGate, stats: &ServeStats) {
        // The window of this connection's last read stands for now: the
        // reply to that request has just gone out. After a slow request
        // it may be stale, and the check after the first poll corrects it.
        let last = match self.counted[0] {
            0 => gate.window(Instant::now()),
            w => w,
        };
        if !gate.spins || gate.others_active(last, self) {
            self.skipped += 1;
            return;
        }
        let deadline = Instant::now() + SPIN_BUDGET;
        while !ready(stream) {
            let now = Instant::now();
            if now >= deadline || gate.others_active(gate.window(now), self) {
                stats.spin_expired.inc();
                return;
            }
            // A runnable client on this CPU goes first.
            std::thread::yield_now();
        }
        stats.spin_caught.inc();
    }

    /// Add the skipped waits to the shared counter.
    fn flush(&mut self, stats: &ServeStats) {
        if self.skipped > 0 {
            stats.spin_skipped.add(std::mem::take(&mut self.skipped));
        }
    }
}

/// `poll(2)` with a zero timeout: whether a read on `stream` would return
/// at once (bytes, the end of input, or an error). Declared, like
/// `signal` below, where `nfds_t` is known: `unsigned long` on Linux,
/// `unsigned int` on macOS.
#[cfg(any(target_os = "linux", target_os = "macos"))]
fn ready(stream: &TcpStream) -> bool {
    use std::os::fd::AsRawFd;
    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }
    #[cfg(target_os = "linux")]
    type Nfds = std::ffi::c_ulong;
    #[cfg(target_os = "macos")]
    type Nfds = std::ffi::c_uint;
    extern "C" {
        fn poll(fds: *mut PollFd, nfds: Nfds, timeout: i32) -> i32;
    }
    const POLLIN: i16 = 1;
    let mut fd = PollFd { fd: stream.as_raw_fd(), events: POLLIN, revents: 0 };
    // SAFETY: one valid `pollfd` that outlives the call; a zero timeout
    // never blocks. A failed poll (-1) ends the spin, and the read that
    // follows reports whatever is wrong.
    unsafe { poll(&mut fd, 1, 0) != 0 }
}

/// No spin where `poll(2)` is not declared ([`ReadGate::spins`] is false).
#[cfg(not(any(target_os = "linux", target_os = "macos")))]
fn ready(_stream: &TcpStream) -> bool {
    true
}

/// Spawn a thread that calls [`Engine::reload`] every `interval` until
/// the engine shuts down. Reload failures are counted in stats and leave
/// the previous snapshot serving. The thread parks until its next reload
/// is due: whoever shuts the engine down must unpark it
/// (`handle.thread().unpark()`) before joining it.
pub fn spawn_reload_thread(
    engine: Arc<Engine>,
    interval: Duration,
) -> std::thread::JoinHandle<()> {
    std::thread::Builder::new()
        .name("xpdl-serve-reload".to_string())
        .spawn(move || {
            let mut due = Instant::now() + interval;
            while !engine.shutdown_requested() {
                let now = Instant::now();
                if now < due {
                    std::thread::park_timeout(due - now);
                } else {
                    let _ = engine.reload();
                    due = Instant::now() + interval;
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_gate_sees_another_connection_for_one_to_two_windows() {
        let (gate, stats) = (ReadGate::new(), ServeStats::new());
        let at = |us: u64| gate.origin + Duration::from_micros(us);
        let busy = |us: u64, me: &Waiter| gate.others_active(gate.window(at(us)), me);
        let (mut a, mut b) = (Waiter::default(), Waiter::default());
        a.read(&gate, at(500), &stats);
        assert!(!busy(600, &a), "a connection is not its own other");
        assert!(busy(600, &b));
        // A second read in the same window stores nothing.
        let word = gate.slots[1].load(Ordering::Relaxed);
        a.read(&gate, at(900), &stats);
        assert_eq!(gate.slots[1].load(Ordering::Relaxed), word);
        b.read(&gate, at(700), &stats);
        assert!(busy(800, &a) && busy(800, &b));
        // The next window still remembers both; the one after forgets.
        assert!(busy(1_999, &a));
        assert!(!busy(2_000, &a) && !busy(2_000, &b));
        // A count for a window whose slot a later window took is dropped.
        a.read(&gate, at(2_100), &stats);
        Waiter::default().read(&gate, at(100), &stats);
        assert!(!busy(2_200, &a));
    }

    #[test]
    fn skipped_waits_reach_the_counter_once_per_window() {
        let (gate, stats) = (ReadGate::new(), ServeStats::new());
        let at = |us: u64| gate.origin + Duration::from_micros(us);
        let mut w = Waiter { skipped: 5, ..Waiter::default() };
        w.read(&gate, at(100), &stats);
        assert_eq!((stats.spin_skipped.get(), w.skipped), (5, 0));
        w.skipped = 3;
        w.read(&gate, at(200), &stats);
        assert_eq!(stats.spin_skipped.get(), 5, "handed over within the window");
        w.flush(&stats);
        assert_eq!((stats.spin_skipped.get(), w.skipped), (8, 0));
    }
}
