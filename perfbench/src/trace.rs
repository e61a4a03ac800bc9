//! In-memory spans around the benchmark's calls into each layer, written
//! out as one Chrome trace (`chrome://tracing`, Perfetto) when a traced
//! run ends.
//!
//! Each thread owns a [`Recorder`]; nothing is shared while measuring.
//! Every span carries the sequence number of the operation it belongs to,
//! so all spans of one request or one build line up under the same `seq`.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// Spans kept per recorder. Statistics never come from spans, so capping
/// them bounds the trace file without losing any measurement.
pub const MAX_SPANS: usize = 20_000;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    seq: u64,
    start_ns: u64,
    dur_ns: u64,
}

/// One thread's span buffer.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    tid: u32,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder for thread lane `tid`, timing relative to `origin`.
    pub fn new(origin: Instant, tid: u32) -> Recorder {
        Recorder {
            origin,
            tid,
            spans: Vec::new(),
        }
    }

    /// Record that `name` ran from `start` to `end` for operation `seq`.
    pub fn span(&mut self, name: &'static str, seq: u64, start: Instant, end: Instant) {
        if self.spans.len() >= MAX_SPANS {
            return;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            seq,
            start_ns: ns(start),
            dur_ns: ns(end) - ns(start),
        });
    }
}

/// Record a span into an optional recorder (tracing off: `None`).
pub fn span(
    rec: &mut Option<Recorder>,
    name: &'static str,
    seq: u64,
    start: Instant,
    end: Instant,
) {
    if let Some(r) = rec {
        r.span(name, seq, start, end);
    }
}

/// Write every recorder's spans as one Chrome trace file.
pub fn write_chrome(path: &Path, recorders: &[Recorder]) -> std::io::Result<()> {
    let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    let mut first = true;
    for r in recorders {
        for s in &r.spans {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"seq\":{}}}}}",
                s.name,
                r.tid,
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3,
                s.seq
            );
        }
    }
    out.push_str("]}\n");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_share_their_sequence_id_and_cap() {
        let t0 = Instant::now();
        let mut rec = Some(Recorder::new(t0, 3));
        let t1 = Instant::now();
        span(&mut rec, "client.encode", 7, t0, t1);
        span(&mut rec, "client.wait", 7, t1, Instant::now());
        let rec = rec.unwrap();
        assert_eq!(rec.spans.len(), 2);
        assert!(rec.spans.iter().all(|s| s.seq == 7));
        let mut full = Recorder::new(t0, 0);
        for i in 0..(MAX_SPANS as u64 + 5) {
            full.span("x", i, t0, t0);
        }
        assert_eq!(full.spans.len(), MAX_SPANS);
    }
}
