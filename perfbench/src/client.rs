//! A blocking query client that times its own three stages: encode the
//! request, wait for the whole reply, decode it.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};
use xpdl_serve::codec::{self, StrDecoder, StrEncoder};
use xpdl_serve::{parse_response, Encoding, Reply, Request, Response};

/// Liveness bound on every socket operation, not a latency assertion.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// One call's stage boundaries: encode start, send start, last reply
/// byte read, decode end.
pub type Marks = [Instant; 4];

/// A connection to the query daemon.
#[derive(Debug)]
pub struct Conn {
    encoding: Encoding,
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    line: String,
    enc: StrEncoder,
    dec: StrDecoder,
}

fn invalid(msg: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
}

impl Conn {
    /// Connect to `addr` and, for [`Encoding::Binary`], negotiate the
    /// binary encoding (failing if the server does not switch).
    pub fn connect(addr: &str, encoding: Encoding) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        let mut conn = Conn {
            encoding: Encoding::Json,
            writer,
            reader: BufReader::new(stream),
            line: String::new(),
            enc: StrEncoder::new(),
            dec: StrDecoder::new(),
        };
        if encoding == Encoding::Binary {
            let (ack, _, _) = conn.call(&codec::client_hello(0))?;
            match ack.result {
                Ok(Reply::Hello { encoding }) if encoding == codec::BINARY => {
                    conn.encoding = Encoding::Binary
                }
                other => return Err(invalid(format!("{addr}: binary not negotiated: {other:?}"))),
            }
        }
        Ok(conn)
    }

    /// One round trip: the decoded response, its stage marks and the
    /// reply's size on the wire in bytes.
    pub fn call(&mut self, req: &Request) -> std::io::Result<(Response, Marks, usize)> {
        let t0 = Instant::now();
        match self.encoding {
            Encoding::Json => {
                let mut line = req.to_json();
                line.push('\n');
                let t1 = Instant::now();
                self.writer.write_all(line.as_bytes())?;
                self.line.clear();
                let n = self.reader.read_line(&mut self.line)?;
                if n == 0 {
                    return Err(invalid("connection closed awaiting a reply".into()));
                }
                let t2 = Instant::now();
                let resp = parse_response(self.line.trim_end()).map_err(invalid)?;
                Ok((resp, [t0, t1, t2, Instant::now()], n))
            }
            Encoding::Binary => {
                let frame = codec::encode_request(req, &mut self.enc);
                let t1 = Instant::now();
                self.writer.write_all(&frame)?;
                let body = codec::read_frame(&mut self.reader, codec::MAX_RESPONSE_FRAME)?
                    .ok_or_else(|| invalid("connection closed awaiting a reply".into()))?;
                let t2 = Instant::now();
                let resp = codec::decode_response(&body, &mut self.dec).map_err(invalid)?;
                Ok((resp, [t0, t1, t2, Instant::now()], body.len() + 4))
            }
        }
    }
}
