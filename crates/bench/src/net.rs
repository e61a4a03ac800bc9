//! Timeout-hardened TCP helpers for the bench clients.
//!
//! Every bench binary used to call bare `TcpStream::connect` and
//! blocking `read_line` — a hung or half-dead server wedged the whole
//! CI job with no diagnostic. [`LineConn`] gives the load generators
//! the same discipline the serving stack itself uses: it connects
//! through `xpdl_registry::client::dial` (hard connect, read, and write
//! timeouts, `TCP_NODELAY`), and its errors say which address failed,
//! doing what, after how long. A single round trip on a fresh
//! connection is `xpdl_registry::client::call_line` with [`CONNECT_TIMEOUT`]
//! and [`IO_TIMEOUT`]. [`BinConn`] is the binary-encoding sibling: it
//! negotiates the frame protocol with a `hello` at connect time and then
//! speaks typed requests/responses.
//!
//! The load generators share one JSON client loop ([`json_client`]), one
//! way to run clients at once ([`run_clients`]) and one `stats` fetch
//! ([`fetch_stats`]).

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};
use xpdl_registry::client::{call_line, dial};
use xpdl_serve::codec::{self, StrDecoder, StrEncoder};
use xpdl_serve::{parse_response, Reply, Request, Response, StatsSnapshot};

/// Default connect timeout for bench clients.
pub const CONNECT_TIMEOUT: Duration = Duration::from_secs(5);
/// Default per-line read/write timeout for bench clients. Generous —
/// this is a liveness bound, not a latency assertion.
pub const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// A JSON-lines client connection with hard timeouts on every
/// operation. Each I/O error is annotated with the peer address and the
/// failing operation, so a wedged run dies with a diagnostic instead of
/// hanging CI.
pub struct LineConn {
    addr: String,
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    line: String,
}

impl std::fmt::Debug for LineConn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LineConn").field("addr", &self.addr).finish()
    }
}

impl LineConn {
    /// Connect with the default bench timeouts.
    pub fn connect(addr: &str) -> std::io::Result<LineConn> {
        LineConn::connect_with(addr, CONNECT_TIMEOUT, IO_TIMEOUT)
    }

    /// Connect with explicit timeouts.
    pub fn connect_with(
        addr: &str,
        connect_timeout: Duration,
        io_timeout: Duration,
    ) -> std::io::Result<LineConn> {
        let stream = dial(addr, connect_timeout, io_timeout)?;
        let writer = stream.try_clone().map_err(|e| annotate(addr, "clone", e))?;
        Ok(LineConn {
            addr: addr.to_string(),
            writer,
            reader: BufReader::new(stream),
            line: String::new(),
        })
    }

    /// The peer address this connection talks to.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Write one line (newline appended).
    pub fn send_line(&mut self, line: &str) -> std::io::Result<()> {
        self.writer
            .write_all(line.as_bytes())
            .and_then(|_| self.writer.write_all(b"\n"))
            .map_err(|e| annotate(&self.addr, "send", e))
    }

    /// Read one line; EOF and timeouts are errors (the peer owed us a
    /// response).
    pub fn recv_line(&mut self) -> std::io::Result<&str> {
        self.line.clear();
        let started = Instant::now();
        match self.reader.read_line(&mut self.line) {
            Ok(0) => Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                format!("{}: connection closed while awaiting a response", self.addr),
            )),
            Ok(_) => Ok(self.line.trim()),
            Err(e) if matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut) => {
                Err(std::io::Error::new(
                    std::io::ErrorKind::TimedOut,
                    format!(
                        "{}: no response within {:?} — server wedged?",
                        self.addr,
                        started.elapsed()
                    ),
                ))
            }
            Err(e) => Err(annotate(&self.addr, "recv", e)),
        }
    }

    /// One request/response round trip.
    pub fn call(&mut self, line: &str) -> std::io::Result<&str> {
        self.send_line(line)?;
        self.recv_line()
    }
}

/// A binary-encoding client connection (`docs/WIRE.md`): negotiates with
/// a JSON `hello` at connect time, then exchanges length-prefixed frames
/// with persistent per-direction intern tables. Same timeout discipline
/// as [`LineConn`].
pub struct BinConn {
    addr: String,
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    enc: StrEncoder,
    dec: StrDecoder,
}

impl std::fmt::Debug for BinConn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BinConn").field("addr", &self.addr).finish()
    }
}

impl BinConn {
    /// Connect with the default bench timeouts and negotiate the binary
    /// encoding. Fails (rather than silently degrading) when the server
    /// does not switch — a bench that asked for binary must measure it.
    pub fn connect(addr: &str) -> std::io::Result<BinConn> {
        let mut line = LineConn::connect(addr)?;
        let hello = codec::client_hello(0).to_json();
        let ack_line = line.call(&hello)?.to_string();
        let ack = parse_response(ack_line.trim()).map_err(|e| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("{addr}: malformed hello ack: {e}"),
            )
        })?;
        match ack.result {
            Ok(Reply::Hello { encoding }) if encoding == codec::BINARY => {}
            other => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("{addr}: server did not negotiate binary: {other:?}"),
                ))
            }
        }
        let LineConn { addr, writer, reader, .. } = line;
        Ok(BinConn { addr, writer, reader, enc: StrEncoder::new(), dec: StrDecoder::new() })
    }

    /// The peer address this connection talks to.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// One request/response round trip in binary frames.
    pub fn call(&mut self, req: &Request) -> std::io::Result<Response> {
        let frame = codec::encode_request(req, &mut self.enc);
        self.writer.write_all(&frame).map_err(|e| annotate(&self.addr, "send", e))?;
        let body = codec::read_frame(&mut self.reader, codec::MAX_RESPONSE_FRAME)
            .map_err(|e| annotate(&self.addr, "recv", e))?
            .ok_or_else(|| {
                std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    format!("{}: connection closed while awaiting a response", self.addr),
                )
            })?;
        codec::decode_response(&body, &mut self.dec).map_err(|e| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("{}: malformed response frame: {e}", self.addr),
            )
        })
    }
}

fn annotate(addr: &str, op: &str, e: std::io::Error) -> std::io::Error {
    std::io::Error::new(e.kind(), format!("{addr}: {op}: {e}"))
}

/// What a load-generating client saw.
#[derive(Debug, Default)]
pub struct Tally {
    /// Replies that answered the request they were sent for with `ok`.
    pub ok: u64,
    /// Error replies, replies carrying the wrong id and malformed replies.
    pub errors: u64,
    /// Client-observed round-trip time of every request, µs.
    pub latencies_us: Vec<u64>,
}

impl Tally {
    /// An empty tally with room for `requests` round trips.
    pub fn with_capacity(requests: u64) -> Tally {
        Tally { latencies_us: Vec::with_capacity(requests as usize), ..Tally::default() }
    }

    /// Count one round trip that took `elapsed`.
    pub fn add(&mut self, elapsed: Duration, ok: bool) {
        self.latencies_us.push(elapsed.as_micros() as u64);
        if ok {
            self.ok += 1;
        } else {
            self.errors += 1;
        }
    }
}

/// A JSON-lines client: `requests` round trips on one [`LineConn`],
/// cycling through `mix`, request templates whose `ID` is replaced by
/// `thread_id * 10_000_000 + n`. A transport failure panics with the
/// connection's diagnostic; any reply but `ok` for the right id is an
/// error.
pub fn json_client(addr: &str, mix: &[&str], requests: u64, thread_id: u64) -> Tally {
    let mut tally = Tally::with_capacity(requests);
    let mut conn = LineConn::connect(addr).expect("bench client connect");
    for n in 0..requests {
        let id = thread_id * 10_000_000 + n;
        let req = mix[n as usize % mix.len()].replace("ID", &id.to_string());
        let start = Instant::now();
        let line = conn.call(&req).expect("bench client round trip");
        let elapsed = start.elapsed();
        let ok = matches!(parse_response(line), Ok(resp) if resp.id == id && resp.result.is_ok());
        tally.add(elapsed, ok);
    }
    tally
}

/// Run `clients` client threads at once (every one is spawned before
/// any is joined), `client(t)` on thread `t`, and merge their tallies.
pub fn run_clients<F>(clients: u64, client: F) -> Tally
where
    F: Fn(u64) -> Tally + Clone + Send + 'static,
{
    let threads: Vec<_> = (0..clients)
        .map(|t| {
            let client = client.clone();
            std::thread::spawn(move || client(t))
        })
        .collect();
    let mut total = Tally::default();
    for t in threads {
        let tally = t.join().expect("bench client thread");
        total.ok += tally.ok;
        total.errors += tally.errors;
        total.latencies_us.extend(tally.latencies_us);
    }
    total
}

/// The daemon's own counters, from a `stats` call on a fresh
/// connection; `None` when the reply is not a `stats` reply.
pub fn fetch_stats(addr: &str) -> Option<StatsSnapshot> {
    let stats = r#"{"v":1,"id":1,"method":"stats"}"#;
    let line = call_line(addr, stats, CONNECT_TIMEOUT, IO_TIMEOUT).expect("stats round trip");
    match parse_response(line.trim()).ok()?.result {
        Ok(Reply::Stats(s)) => Some(s),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn connect_refused_names_the_address() {
        let err = LineConn::connect("127.0.0.1:1").unwrap_err();
        assert!(err.to_string().contains("127.0.0.1:1"), "{err}");
        assert!(err.to_string().contains("connect"), "{err}");
    }

    #[test]
    fn recv_timeout_is_a_diagnostic_not_a_hang() {
        // A listener that accepts and then never answers.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let hold = std::thread::spawn(move || listener.accept().map(|(s, _)| s));
        let mut conn =
            LineConn::connect_with(&addr, Duration::from_secs(2), Duration::from_millis(100))
                .unwrap();
        conn.send_line("hello").unwrap();
        let err = conn.recv_line().unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::TimedOut, "{err}");
        assert!(err.to_string().contains("no response within"), "{err}");
        drop(hold.join().unwrap());
    }

    #[test]
    fn eof_is_reported_as_closed_connection() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let closer = std::thread::spawn(move || {
            let (s, _) = listener.accept().unwrap();
            drop(s);
        });
        let mut conn = LineConn::connect(&addr).unwrap();
        closer.join().unwrap();
        let err = conn.recv_line().unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof, "{err}");
    }

    #[test]
    fn round_trip_against_an_echo_server() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let echo = std::thread::spawn(move || {
            let (s, _) = listener.accept().unwrap();
            let mut reader = std::io::BufReader::new(s.try_clone().unwrap());
            let mut w = s;
            let mut line = String::new();
            std::io::BufRead::read_line(&mut reader, &mut line).unwrap();
            std::io::Write::write_all(&mut w, line.as_bytes()).unwrap();
        });
        let reply = xpdl_registry::client::call_line(&addr, "ping", CONNECT_TIMEOUT, IO_TIMEOUT)
            .unwrap();
        assert_eq!(reply, "ping");
        echo.join().unwrap();
    }
}
