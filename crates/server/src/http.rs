//! A hand-rolled HTTP/1.1 subset over any `BufRead`/`Write` transport.
//!
//! The build environment has no registry access, so there is no hyper and no
//! tokio; this module implements exactly the slice of RFC 9112 the serving
//! layer needs — request line, headers, `Content-Length` and `chunked`
//! bodies, keep-alive — with hard bounds on every buffer it allocates
//! (request-line/header bytes, header count, chunk-size line length), since
//! the peer is untrusted by definition.
//!
//! The one design rule: **bodies are never buffered**. [`BodyReader`]
//! implements `BufRead` *borrowing* the connection, so a request body flows
//! straight through `foxq_xml::XmlReader` into the transducer engines while
//! the socket is still receiving it. A streamed response leaves through a
//! [`Coalescer`], which decides when certain output goes on the wire.

use foxq_service::limits::{Limit, Tripped, HEADERS, HEAD_BYTES};
use std::cell::RefCell;
use std::io::{BufRead, Error, ErrorKind, IoSlice, Read, Write};

/// Upper bound on the request line plus all header bytes.
pub const MAX_HEAD_BYTES: usize = HEAD_BYTES.serve as usize;
/// Upper bound on the number of request headers.
pub const MAX_HEADERS: usize = HEADERS.serve as usize;

/// A parse-level failure, answered `400 Bad Request` upstream.
fn bad(msg: impl Into<String>) -> Error {
    Error::new(ErrorKind::InvalidData, msg.into())
}

/// A head past one of its bounds: a parse failure that carries its row,
/// whose status it is answered with.
fn over(limit: &'static Limit) -> Error {
    Tripped::new(limit, limit.serve, String::new()).into()
}

/// How a request frames its body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BodyKind {
    /// No body (GET and friends, or `Content-Length: 0`).
    Empty,
    /// `Content-Length: n`.
    Sized(u64),
    /// `Transfer-Encoding: chunked`.
    Chunked,
}

/// A parsed request head. The body stays on the wire — take it with
/// [`BodyReader::new`].
#[derive(Debug)]
pub struct Request {
    pub method: String,
    /// Decoded path component (no query string).
    pub path: String,
    /// Decoded `key=value` pairs of the query string, in order.
    pub query: Vec<(String, String)>,
    /// Header `(name, value)` pairs; names lowercased.
    pub headers: Vec<(String, String)>,
    /// False for `HTTP/1.0` (connections then default to close).
    pub http11: bool,
    /// How the body is framed, as [`read_request`] checked it.
    pub body: BodyKind,
}

impl Request {
    /// First value of a header, by lowercase name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// All values of a header, by lowercase name, in order.
    pub fn header_values<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a str> {
        self.headers
            .iter()
            .filter(move |(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// All values of the query parameter `name`, in order.
    pub fn params<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a str> {
        self.query
            .iter()
            .filter(move |(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// The request's body framing, per RFC 9112 §6.3. Ambiguous framing is
    /// rejected outright — these are the request-smuggling shapes:
    ///
    /// * `Transfer-Encoding` alongside any `Content-Length` (a front proxy
    ///   honoring one and this server the other would desynchronize);
    /// * more than one `Content-Length` header, even with equal values;
    /// * a `Content-Length` list value (`"5, 5"`) or any non-digit byte.
    ///
    /// [`read_request`] fails a request framed so, which must be answered
    /// 400 *and* close the connection: the body length is unknowable, so the
    /// next request's start is too.
    fn body_kind(&self) -> Result<BodyKind, Error> {
        let te: Vec<&str> = self.header_values("transfer-encoding").collect();
        let cl: Vec<&str> = self.header_values("content-length").collect();
        if !te.is_empty() {
            if !cl.is_empty() {
                return Err(bad(
                    "both transfer-encoding and content-length present (ambiguous framing)",
                ));
            }
            if let [one] = te.as_slice() {
                if one.eq_ignore_ascii_case("chunked") {
                    return Ok(BodyKind::Chunked);
                }
            }
            return Err(bad(format!("unsupported transfer-encoding {te:?}")));
        }
        match cl.as_slice() {
            [] => Ok(BodyKind::Empty),
            [v] => {
                let v = v.trim();
                // Strict digits only: no sign, no list value ("5, 5"), no
                // leading-'+' — anything a lenient front proxy might read
                // differently than we do.
                if v.is_empty() || !v.bytes().all(|b| b.is_ascii_digit()) {
                    return Err(bad(format!("bad content-length {v:?}")));
                }
                let n: u64 = v
                    .parse()
                    .map_err(|_| bad(format!("bad content-length {v:?}")))?;
                Ok(if n == 0 {
                    BodyKind::Empty
                } else {
                    BodyKind::Sized(n)
                })
            }
            many => Err(bad(format!(
                "{} content-length headers (ambiguous framing)",
                many.len()
            ))),
        }
    }

    /// Whether the connection may be reused after this exchange.
    pub fn keep_alive(&self) -> bool {
        match self.header("connection") {
            Some(v) if v.eq_ignore_ascii_case("close") => false,
            Some(v) if v.eq_ignore_ascii_case("keep-alive") => true,
            _ => self.http11,
        }
    }
}

/// Read one head line (request line or header), CRLF- or LF-terminated,
/// within the shared head budget, failing with `too_long()` past it.
/// `Ok(None)` = clean EOF before any byte.
fn read_line<R: BufRead>(
    r: &mut R,
    budget: &mut usize,
    too_long: fn() -> Error,
) -> Result<Option<String>, Error> {
    let mut line: Vec<u8> = Vec::new();
    loop {
        let buf = r.fill_buf()?;
        if buf.is_empty() {
            if line.is_empty() {
                return Ok(None);
            }
            return Err(bad("connection closed mid-line"));
        }
        let nl = buf.iter().position(|&b| b == b'\n');
        let take = nl.map(|i| i + 1).unwrap_or(buf.len());
        if take > *budget {
            return Err(too_long());
        }
        *budget -= take;
        line.extend_from_slice(&buf[..take]);
        r.consume(take);
        if nl.is_some() {
            while matches!(line.last(), Some(b'\n') | Some(b'\r')) {
                line.pop();
            }
            return String::from_utf8(line)
                .map(Some)
                .map_err(|_| bad("non-UTF-8 head"));
        }
    }
}

/// Parse one request head off the connection, its body framing included.
/// `Ok(None)` when the peer closed the connection cleanly between requests
/// (keep-alive end).
pub fn read_request<R: BufRead>(r: &mut R) -> Result<Option<Request>, Error> {
    let mut budget = MAX_HEAD_BYTES;
    let head_line = |r: &mut R, budget: &mut usize| read_line(r, budget, || over(&HEAD_BYTES));
    let Some(request_line) = head_line(r, &mut budget)? else {
        return Ok(None);
    };
    let mut parts = request_line.split_ascii_whitespace();
    let method = parts.next().ok_or_else(|| bad("empty request line"))?;
    let target = parts.next().ok_or_else(|| bad("missing request target"))?;
    let version = parts.next().ok_or_else(|| bad("missing HTTP version"))?;
    let http11 = match version {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        v => return Err(bad(format!("unsupported version {v:?}"))),
    };
    if parts.next().is_some() {
        return Err(bad("malformed request line"));
    }

    let (raw_path, raw_query) = match target.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (target, None),
    };
    let path = percent_decode(raw_path).ok_or_else(|| bad("bad percent-encoding in path"))?;
    let mut query = Vec::new();
    if let Some(raw) = raw_query {
        for pair in raw.split('&').filter(|p| !p.is_empty()) {
            let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
            let k = form_decode(k).ok_or_else(|| bad("bad percent-encoding in query"))?;
            let v = form_decode(v).ok_or_else(|| bad("bad percent-encoding in query"))?;
            query.push((k, v));
        }
    }

    let mut headers = Vec::new();
    loop {
        let line = head_line(r, &mut budget)?.ok_or_else(|| bad("EOF inside headers"))?;
        if line.is_empty() {
            break;
        }
        if headers.len() >= MAX_HEADERS {
            return Err(over(&HEADERS));
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| bad(format!("malformed header {line:?}")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let mut request = Request {
        method: method.to_string(),
        path,
        query,
        headers,
        http11,
        body: BodyKind::Empty,
    };
    request.body = request.body_kind()?;
    Ok(Some(request))
}

/// Decode `%XX` escapes (strict: a lone `%` is an error → `None`).
pub fn percent_decode(s: &str) -> Option<String> {
    let mut out = Vec::with_capacity(s.len());
    let bytes = s.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                let hi = char::from(*bytes.get(i + 1)?).to_digit(16)?;
                let lo = char::from(*bytes.get(i + 2)?).to_digit(16)?;
                out.push((hi * 16 + lo) as u8);
                i += 3;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8(out).ok()
}

/// Decode an `application/x-www-form-urlencoded` component (`+` = space).
pub fn form_decode(s: &str) -> Option<String> {
    percent_decode(&s.replace('+', " "))
}

/// Percent-encode a string for use inside a query-string value.
pub fn urlencode(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for &b in s.as_bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                out.push(b as char)
            }
            _ => out.push_str(&format!("%{b:02X}")),
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Streaming bodies
// ---------------------------------------------------------------------------

enum BodyState {
    /// Bytes left of a sized body.
    Sized(u64),
    /// Chunked: bytes left in the current chunk; `first` until the first
    /// size line has been read.
    Chunked { in_chunk: u64, first: bool },
    /// Fully consumed (or empty from the start).
    Done,
}

/// Streams a request body off the connection without ever buffering it.
///
/// Implements `Read` (what `XmlReader` fills its window with) and
/// `BufRead`; reports clean EOF at the body's end, leaving the transport
/// positioned at the next request (keep-alive safe). Chunk-size lines are
/// bounded; `Transfer-Encoding: chunked` trailers are consumed and dropped.
pub struct BodyReader<'a, R: BufRead> {
    inner: &'a mut R,
    state: BodyState,
}

impl<'a, R: BufRead> BodyReader<'a, R> {
    pub fn new(inner: &'a mut R, kind: BodyKind) -> Self {
        let state = match kind {
            BodyKind::Empty => BodyState::Done,
            BodyKind::Sized(n) => BodyState::Sized(n),
            BodyKind::Chunked => BodyState::Chunked {
                in_chunk: 0,
                first: true,
            },
        };
        BodyReader { inner, state }
    }

    /// Whether the body has been consumed to its framed end (safe to reuse
    /// the connection).
    pub fn exhausted(&self) -> bool {
        matches!(self.state, BodyState::Done)
    }

    /// Read one CRLF/LF-terminated chunk-framing line (bounded).
    fn framing_line(&mut self) -> Result<String, Error> {
        let mut budget = 256usize;
        let too_long = || bad("chunked framing line too long");
        read_line(self.inner, &mut budget, too_long)?
            .ok_or_else(|| bad("EOF inside chunked framing"))
    }

    /// Advance chunked state until data is available or the body ends.
    fn next_chunk(&mut self) -> Result<(), Error> {
        let BodyState::Chunked { in_chunk: 0, first } = self.state else {
            return Ok(());
        };
        if !first {
            // Consume the CRLF that terminates the previous chunk.
            let sep = self.framing_line()?;
            if !sep.is_empty() {
                return Err(bad("missing CRLF after chunk"));
            }
        }
        let line = self.framing_line()?;
        let size_hex = line.split(';').next().unwrap_or("").trim();
        let size = u64::from_str_radix(size_hex, 16)
            .map_err(|_| bad(format!("bad chunk size {size_hex:?}")))?;
        if size == 0 {
            // Trailer section: header lines then an empty line. Bounded
            // like the request head — endless trailers must not wedge a
            // worker (the framing bytes bypass the body byte budget).
            for _ in 0..MAX_HEADERS {
                if self.framing_line()?.is_empty() {
                    self.state = BodyState::Done;
                    return Ok(());
                }
            }
            return Err(bad("too many chunked trailers"));
        }
        self.state = BodyState::Chunked {
            in_chunk: size,
            first: false,
        };
        Ok(())
    }

    /// How many body bytes may be taken off the transport before the next
    /// piece of framing: the rest of a sized body or of the current chunk,
    /// 0 once the body is done.
    fn framed(&mut self) -> Result<usize, Error> {
        self.next_chunk()?;
        let framed = match self.state {
            BodyState::Done => 0,
            BodyState::Sized(n) => n,
            BodyState::Chunked { in_chunk, .. } => in_chunk,
        };
        Ok(usize::try_from(framed).unwrap_or(usize::MAX))
    }

    /// `amt` body bytes have left the transport.
    fn taken(&mut self, amt: usize) {
        if amt == 0 {
            return;
        }
        match &mut self.state {
            BodyState::Sized(n) => {
                *n -= amt as u64;
                if *n == 0 {
                    self.state = BodyState::Done;
                }
            }
            BodyState::Chunked { in_chunk, .. } => *in_chunk -= amt as u64,
            BodyState::Done => unreachable!("consume on finished body"),
        }
    }
}

fn closed_mid_body() -> Error {
    Error::new(ErrorKind::UnexpectedEof, "connection closed mid-body")
}

impl<R: BufRead> Read for BodyReader<'_, R> {
    /// Reads straight into `buf`: a `BufReader` underneath hands a read as
    /// large as its own buffer on to the socket, so a consumer with a big
    /// window (`XmlReader`) crosses the socket once per window, and never
    /// for more than what is left of the framed body.
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let take = buf.len().min(self.framed()?);
        if take == 0 {
            return Ok(0);
        }
        match self.inner.read(&mut buf[..take])? {
            0 => Err(closed_mid_body()),
            n => {
                self.taken(n);
                Ok(n)
            }
        }
    }
}

impl<R: BufRead> BufRead for BodyReader<'_, R> {
    fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
        let framed = self.framed()?;
        if framed == 0 {
            return Ok(&[]);
        }
        let buf = self.inner.fill_buf()?;
        if buf.is_empty() {
            return Err(closed_mid_body());
        }
        Ok(&buf[..buf.len().min(framed)])
    }

    fn consume(&mut self, amt: usize) {
        self.inner.consume(amt);
        self.taken(amt);
    }
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

/// Every status code the server emits, with its standard reason phrase.
pub const STATUSES: [(u16, &str); 10] = [
    (200, "OK"),
    (400, "Bad Request"),
    (404, "Not Found"),
    (405, "Method Not Allowed"),
    (408, "Request Timeout"),
    (409, "Conflict"),
    (413, "Content Too Large"),
    (422, "Unprocessable Content"),
    (500, "Internal Server Error"),
    (503, "Service Unavailable"),
];

/// Standard reason phrase of a status code in [`STATUSES`].
pub fn reason(status: u16) -> &'static str {
    STATUSES
        .iter()
        .find(|(code, _)| *code == status)
        .map_or("Unknown", |(_, reason)| reason)
}

/// Write a complete response with `Content-Length` framing.
pub fn write_response(
    w: &mut impl Write,
    status: u16,
    content_type: &str,
    extra_headers: &[(&str, String)],
    body: &[u8],
    keep_alive: bool,
) -> std::io::Result<()> {
    write!(
        w,
        "HTTP/1.1 {status} {}\r\ncontent-type: {content_type}\r\ncontent-length: {}\r\nconnection: {}\r\n",
        reason(status),
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    )?;
    for (name, value) in extra_headers {
        write!(w, "{name}: {value}\r\n")?;
    }
    w.write_all(b"\r\n")?;
    w.write_all(body)?;
    w.flush()
}

/// Write a chunked-response head: status line, `transfer-encoding:
/// chunked`, and a `trailer:` declaration naming the fields that will
/// follow the final chunk. No `content-length` — the body's extent is
/// framed per chunk, which is what lets the server start answering
/// before the engine has finished (earliest emission).
pub fn write_chunked_head(
    w: &mut impl Write,
    status: u16,
    content_type: &str,
    extra_headers: &[(&str, String)],
    trailer_names: &[&str],
    keep_alive: bool,
) -> std::io::Result<()> {
    write!(
        w,
        "HTTP/1.1 {status} {}\r\ncontent-type: {content_type}\r\ntransfer-encoding: chunked\r\nconnection: {}\r\n",
        reason(status),
        if keep_alive { "keep-alive" } else { "close" },
    )?;
    if !trailer_names.is_empty() {
        write!(w, "trailer: {}\r\n", trailer_names.join(", "))?;
    }
    for (name, value) in extra_headers {
        write!(w, "{name}: {value}\r\n")?;
    }
    w.write_all(b"\r\n")?;
    w.flush()
}

/// Append the bytes that terminate a chunked body: the zero-size last
/// chunk, the trailer fields (computed only after the run — e.g.
/// peak-memory marks), and the final empty line. Built in a buffer rather
/// than written so the reactor's resumable `WriteResponse` phase can flush
/// it under backpressure.
pub fn chunked_tail(out: &mut Vec<u8>, trailers: &[(&str, String)]) {
    out.extend_from_slice(b"0\r\n");
    for (name, value) in trailers {
        out.extend_from_slice(name.as_bytes());
        out.extend_from_slice(b": ");
        out.extend_from_slice(value.as_bytes());
        out.extend_from_slice(b"\r\n");
    }
    out.extend_from_slice(b"\r\n");
}

/// How much output a [`Coalescer`] holds back at most: the size of a
/// server worker's request `BufReader`, so a streamed reply moves in pieces
/// of the size its request body arrives in.
pub const COALESCE_BYTES: usize = 16 * 1024;

/// A stream of irrevocable output prefixes, written in few pieces without
/// any prefix waiting on more input. The rule:
///
/// * **First prefix at once**, in one write with whatever
///   [`lead`](Coalescer::lead) staged ahead of it (a response head).
/// * **Then by size.** Later prefixes are held. The one that brings the
///   held bytes to [`COALESCE_BYTES`] goes out with them in one vectored
///   write, uncopied, so the buffer never outgrows `COALESCE_BYTES`
///   however large a prefix is.
/// * **Before the source could block.** [`flush`](Coalescer::flush) writes
///   what is held; [`FlushBeforeRead`] calls it before every input read.
/// * **At the end**, [`finish_into`](Coalescer::finish_into) appends what
///   is held to the caller's tail instead of writing it.
///
/// Chunked, every write is one HTTP/1.1 chunk; raw, the bytes go out as
/// they are. A failed write ends the stream: its error is returned, nothing
/// stays held, and every later call fails too.
pub struct Coalescer<W: Write> {
    out: W,
    chunked: bool,
    /// Bytes that go out ahead of the next write; each chunk's size line
    /// is framed here.
    lead: Vec<u8>,
    /// Output held back, always less than [`COALESCE_BYTES`]; allocated
    /// at the first prefix held, then reused.
    held: Vec<u8>,
    /// Whether the first prefix has been written.
    started: bool,
    /// The kind of the write error that ended the stream.
    failed: Option<ErrorKind>,
}

impl<W: Write> Coalescer<W> {
    pub fn new(out: W, chunked: bool) -> Self {
        Coalescer {
            out,
            chunked,
            lead: Vec::new(),
            held: Vec::new(),
            started: false,
            failed: None,
        }
    }

    /// Bytes to send ahead of the next write, in the same write.
    pub fn lead(&mut self) -> &mut Vec<u8> {
        &mut self.lead
    }

    /// Deliver one prefix. The first is written at once (even when empty,
    /// which sends the lead alone); later ones are held until there are
    /// [`COALESCE_BYTES`] of them.
    pub fn push(&mut self, data: &[u8]) -> std::io::Result<()> {
        self.check()?;
        if !self.started {
            self.started = true;
        } else if self.held.len() + data.len() < COALESCE_BYTES {
            if self.held.capacity() == 0 {
                self.held.reserve_exact(COALESCE_BYTES);
            }
            self.held.extend_from_slice(data);
            return Ok(());
        }
        self.send(data)
    }

    /// Write whatever is held or staged, now.
    pub fn flush(&mut self) -> std::io::Result<()> {
        self.check()?;
        if self.held.is_empty() && self.lead.is_empty() {
            return Ok(());
        }
        self.send(&[])
    }

    /// End of output: append what is held or staged, framed, to `tail`
    /// for the caller to write.
    pub fn finish_into(&mut self, tail: &mut Vec<u8>) {
        let end = self.frame(self.held.len());
        tail.extend_from_slice(&self.lead);
        tail.extend_from_slice(&self.held);
        tail.extend_from_slice(end);
        self.lead.clear();
        self.held.clear();
    }

    fn check(&self) -> std::io::Result<()> {
        match self.failed {
            Some(kind) => Err(Error::new(kind, "an earlier write of this output failed")),
            None => Ok(()),
        }
    }

    /// Stage the size line of a `len`-byte chunk in the lead; returns the
    /// bytes that close the chunk. Raw, or with nothing to frame: nothing.
    fn frame(&mut self, len: usize) -> &'static [u8] {
        if !self.chunked || len == 0 {
            return b"";
        }
        write!(self.lead, "{len:x}\r\n").expect("writing to Vec cannot fail");
        b"\r\n"
    }

    /// Write lead, held bytes and `data` as one piece (one chunk).
    fn send(&mut self, data: &[u8]) -> std::io::Result<()> {
        let end = self.frame(self.held.len() + data.len());
        let mut bufs = [
            IoSlice::new(&self.lead),
            IoSlice::new(&self.held),
            IoSlice::new(data),
            IoSlice::new(end),
        ];
        let sent = write_all_vectored(&mut self.out, &mut bufs).and_then(|()| self.out.flush());
        self.lead.clear();
        self.held.clear();
        if let Err(e) = &sent {
            self.failed = Some(e.kind());
        }
        sent
    }
}

/// `Write::write_all` over several buffers: one `writev` when the writer
/// takes them all, as a socket with room does.
fn write_all_vectored(w: &mut impl Write, mut bufs: &mut [IoSlice<'_>]) -> std::io::Result<()> {
    IoSlice::advance_slices(&mut bufs, 0); // drop leading empty buffers
    while !bufs.is_empty() {
        match w.write_vectored(bufs) {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut bufs, n),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// An input that first writes what a [`Coalescer`] holds: output that
/// became certain while the input paused is on the wire before the reader
/// waits for more. A failed write fails the read.
pub struct FlushBeforeRead<'a, R, W: Write> {
    inner: R,
    wire: &'a RefCell<Coalescer<W>>,
}

impl<'a, R, W: Write> FlushBeforeRead<'a, R, W> {
    pub fn new(inner: R, wire: &'a RefCell<Coalescer<W>>) -> Self {
        FlushBeforeRead { inner, wire }
    }
}

impl<R: Read, W: Write> Read for FlushBeforeRead<'_, R, W> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.wire.borrow_mut().flush()?;
        self.inner.read(buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(head: &str) -> Request {
        read_request(&mut BufReader::new(head.as_bytes()))
            .unwrap()
            .unwrap()
    }

    /// A head's body framing, or why it was refused.
    fn framing(head: &str) -> Result<BodyKind, Error> {
        read_request(&mut BufReader::new(head.as_bytes())).map(|r| r.unwrap().body)
    }

    #[test]
    fn request_line_and_headers() {
        let r = parse("POST /query?q=%3Co%2F%3E&q=two+words HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello");
        assert_eq!(r.method, "POST");
        assert_eq!(r.path, "/query");
        assert_eq!(r.params("q").collect::<Vec<_>>(), vec!["<o/>", "two words"]);
        assert_eq!(r.header("host"), Some("x"));
        assert_eq!(r.body, BodyKind::Sized(5));
        assert!(r.keep_alive());
    }

    #[test]
    fn ambiguous_body_framing_is_rejected() {
        // Two Content-Length headers, conflicting values.
        let r = framing("POST /q HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 0\r\n\r\n");
        assert!(r.unwrap_err().to_string().contains("ambiguous"));
        // Two Content-Length headers, *equal* values: still rejected (a
        // front proxy may merge or drop one).
        let r = framing("POST /q HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 5\r\n\r\n");
        assert!(r.is_err());
        // A list value smuggled in one header line.
        let r = framing("POST /q HTTP/1.1\r\nContent-Length: 5, 5\r\n\r\n");
        assert!(r.is_err());
        // Signs and garbage.
        for v in ["+5", "-1", "5x", ""] {
            let r = framing(&format!("POST /q HTTP/1.1\r\nContent-Length: {v}\r\n\r\n"));
            assert!(r.is_err(), "content-length {v:?} accepted");
        }
        // Transfer-Encoding together with Content-Length.
        let r =
            framing("POST /q HTTP/1.1\r\nTransfer-Encoding: chunked\r\nContent-Length: 4\r\n\r\n");
        assert!(r.unwrap_err().to_string().contains("ambiguous"));
        // Doubled Transfer-Encoding headers.
        let r = framing(
            "POST /q HTTP/1.1\r\nTransfer-Encoding: chunked\r\nTransfer-Encoding: chunked\r\n\r\n",
        );
        assert!(r.is_err());
        // The well-formed shapes still parse.
        let r = framing("POST /q HTTP/1.1\r\nContent-Length: 7\r\n\r\n");
        assert_eq!(r.unwrap(), BodyKind::Sized(7));
        let r = framing("POST /q HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n");
        assert_eq!(r.unwrap(), BodyKind::Chunked);
    }

    #[test]
    fn clean_eof_between_requests_is_none() {
        assert!(read_request(&mut BufReader::new(&b""[..]))
            .unwrap()
            .is_none());
    }

    #[test]
    fn oversized_head_is_rejected() {
        let huge = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(MAX_HEAD_BYTES));
        let err = read_request(&mut BufReader::new(huge.as_bytes())).unwrap_err();
        assert!(err.to_string().contains("too large"), "{err}");
    }

    #[test]
    fn sized_body_reads_to_clean_eof() {
        let mut conn = BufReader::new(&b"hello rest-of-stream"[..]);
        let mut body = BodyReader::new(&mut conn, BodyKind::Sized(5));
        let mut out = String::new();
        body.read_to_string(&mut out).unwrap();
        assert_eq!(out, "hello");
        assert!(body.exhausted());
        // The transport is positioned exactly after the body.
        let mut rest = String::new();
        conn.read_to_string(&mut rest).unwrap();
        assert_eq!(rest, " rest-of-stream");
    }

    #[test]
    fn chunked_body_decodes_and_leaves_the_stream_positioned() {
        let wire = b"5\r\nhello\r\n8;ext=1\r\n, chunks\r\n0\r\nTrailer: x\r\n\r\nNEXT";
        let mut conn = BufReader::new(&wire[..]);
        let mut body = BodyReader::new(&mut conn, BodyKind::Chunked);
        let mut out = String::new();
        body.read_to_string(&mut out).unwrap();
        assert_eq!(out, "hello, chunks");
        assert!(body.exhausted());
        let mut rest = String::new();
        conn.read_to_string(&mut rest).unwrap();
        assert_eq!(rest, "NEXT");
    }

    #[test]
    fn truncated_sized_body_is_an_error() {
        let mut conn = BufReader::new(&b"hel"[..]);
        let mut body = BodyReader::new(&mut conn, BodyKind::Sized(5));
        let mut out = Vec::new();
        let err = body.read_to_end(&mut out).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::UnexpectedEof);
    }

    #[test]
    fn bad_chunk_size_is_an_error() {
        let mut conn = BufReader::new(&b"zz\r\nhello"[..]);
        let mut body = BodyReader::new(&mut conn, BodyKind::Chunked);
        let mut out = Vec::new();
        assert!(body.read_to_end(&mut out).is_err());
    }

    #[test]
    fn chunked_response_wire_format() {
        let mut wire = Coalescer::new(Vec::new(), true);
        write_chunked_head(
            wire.lead(),
            200,
            "application/xml",
            &[("x-req", "abc".to_string())],
            &["x-peak"],
            true,
        )
        .unwrap();
        wire.push(b"<o>").unwrap();
        wire.push(b"").unwrap(); // must not terminate the body
        wire.push(b"hello").unwrap();
        wire.flush().unwrap();
        wire.push(b"</o>").unwrap();
        let mut tail = Vec::new();
        wire.finish_into(&mut tail);
        chunked_tail(&mut tail, &[("x-peak", "7".to_string())]);
        let mut out = wire.out;
        out.extend_from_slice(&tail);
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("transfer-encoding: chunked\r\n"));
        assert!(!text.contains("content-length"));
        assert!(text.contains("trailer: x-peak\r\n"));
        let body_at = text.find("\r\n\r\n").unwrap() + 4;
        assert_eq!(
            &text[body_at..],
            "3\r\n<o>\r\n5\r\nhello\r\n4\r\n</o>\r\n0\r\nx-peak: 7\r\n\r\n"
        );
        // Our own BodyReader decodes it (trailers consumed and dropped).
        let mut conn = BufReader::new(&text.as_bytes()[body_at..]);
        let mut body = BodyReader::new(&mut conn, BodyKind::Chunked);
        let mut decoded = String::new();
        body.read_to_string(&mut decoded).unwrap();
        assert_eq!(decoded, "<o>hello</o>");
        assert!(body.exhausted());
    }

    /// A writer that keeps every write it is given as one entry: a whole
    /// vectored write, or at most `max` bytes of it when `max` is nonzero.
    /// With `fail` set, every write times out.
    #[derive(Default)]
    struct Recorder {
        writes: Vec<Vec<u8>>,
        max: usize,
        fail: bool,
    }

    impl Write for Recorder {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
            if self.fail {
                return Err(Error::new(ErrorKind::TimedOut, "the peer stopped reading"));
            }
            let mut write: Vec<u8> = bufs.iter().flat_map(|b| b.iter().copied()).collect();
            if self.max > 0 {
                write.truncate(self.max);
            }
            let n = write.len();
            self.writes.push(write);
            Ok(n)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn chunked_recorder() -> Coalescer<Recorder> {
        Coalescer::new(Recorder::default(), true)
    }

    #[test]
    fn the_first_prefix_leaves_at_once_with_the_head() {
        let mut wire = chunked_recorder();
        wire.lead().extend_from_slice(b"HEAD\r\n\r\n");
        wire.push(b"<o>").unwrap();
        assert_eq!(wire.out.writes, [b"HEAD\r\n\r\n3\r\n<o>\r\n".to_vec()]);
    }

    #[test]
    fn later_prefixes_wait_for_coalesce_bytes_then_leave_as_one_chunk() {
        let mut wire = chunked_recorder();
        wire.push(b"<o>").unwrap();
        for _ in 0..100 {
            wire.push(b"<p>x</p>").unwrap();
        }
        assert_eq!(wire.out.writes.len(), 1, "800 bytes must be held");
        // The prefix that brings the held bytes to the threshold takes
        // them out with it: one write, one chunk.
        wire.push(&vec![b'y'; COALESCE_BYTES - 800]).unwrap();
        assert_eq!(wire.out.writes.len(), 2);
        let chunk = &wire.out.writes[1];
        assert!(chunk.starts_with(b"4000\r\n<p>x</p>"));
        assert!(chunk.ends_with(b"y\r\n"));
        assert_eq!(chunk.len(), 6 + COALESCE_BYTES + 2);
        assert!(wire.held.is_empty());
    }

    #[test]
    fn a_read_first_writes_what_is_held_as_one_chunk() {
        let wire = RefCell::new(chunked_recorder());
        wire.borrow_mut().push(b"<o>").unwrap();
        wire.borrow_mut().push(b"p0").unwrap();
        wire.borrow_mut().push(b"p1").unwrap();
        let mut input = FlushBeforeRead::new(&b"<more/>"[..], &wire);
        let mut buf = [0u8; 64];
        let n = input.read(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"<more/>");
        assert_eq!(wire.borrow().out.writes.len(), 2);
        assert_eq!(wire.borrow().out.writes[1], b"4\r\np0p1\r\n");
        // With nothing held, a read writes nothing.
        assert_eq!(input.read(&mut buf).unwrap(), 0);
        assert_eq!(wire.borrow().out.writes.len(), 2);
    }

    #[test]
    fn a_prefix_past_coalesce_bytes_is_written_through_uncopied() {
        let mut wire = chunked_recorder();
        wire.push(b"<o>").unwrap();
        wire.push(b"ab").unwrap();
        let big = vec![b'z'; 3 * COALESCE_BYTES];
        wire.push(&big).unwrap();
        assert_eq!(wire.out.writes.len(), 2);
        let chunk = &wire.out.writes[1];
        let size_line = format!("{:x}\r\nab", 2 + big.len());
        assert!(chunk.starts_with(size_line.as_bytes()));
        assert_eq!(chunk.len(), size_line.len() + big.len() + 2);
        // The buffer held two bytes, never the big prefix.
        assert!(
            wire.held.capacity() <= COALESCE_BYTES,
            "{}",
            wire.held.capacity()
        );
        assert!(wire.lead.capacity() <= 16, "{}", wire.lead.capacity());
        wire.push(b"c").unwrap();
        assert_eq!((wire.out.writes.len(), &wire.held[..]), (2, &b"c"[..]));
    }

    #[test]
    fn a_write_error_fails_every_later_delivery_and_read() {
        let wire = RefCell::new(chunked_recorder());
        wire.borrow_mut().push(b"<o>").unwrap();
        wire.borrow_mut().push(b"p0").unwrap();
        wire.borrow_mut().out.fail = true;
        // The delivery whose write fails reports it...
        let big = vec![b'z'; COALESCE_BYTES];
        let err = wire.borrow_mut().push(&big).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::TimedOut);
        // ...and from then on nothing is held and nothing is written, even
        // when the writer would take it.
        wire.borrow_mut().out.fail = false;
        let err = wire.borrow_mut().push(b"p1").unwrap_err();
        assert_eq!(err.kind(), ErrorKind::TimedOut);
        assert!(wire.borrow().held.is_empty());
        let mut input = FlushBeforeRead::new(&b"<more/>"[..], &wire);
        let err = input.read(&mut [0u8; 64]).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::TimedOut);
        assert_eq!(wire.borrow().out.writes.len(), 1);

        // A failing flush before a read fails the read.
        let wire = RefCell::new(chunked_recorder());
        wire.borrow_mut().push(b"<o>").unwrap();
        wire.borrow_mut().push(b"p0").unwrap();
        wire.borrow_mut().out.fail = true;
        let mut input = FlushBeforeRead::new(&b"<more/>"[..], &wire);
        let err = input.read(&mut [0u8; 64]).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::TimedOut);
        assert!(wire.borrow_mut().push(b"p1").is_err());
    }

    #[test]
    fn raw_output_is_unframed_and_survives_short_writes() {
        let mut wire = Coalescer::new(
            Recorder {
                max: 3,
                ..Recorder::default()
            },
            false,
        );
        wire.push(b"<o>p").unwrap();
        wire.push(b"0").unwrap();
        wire.push(b"p1</o>").unwrap();
        wire.flush().unwrap();
        let out: Vec<u8> = wire.out.writes.concat();
        assert_eq!(out, b"<o>p0p1</o>");
        assert_eq!(wire.out.writes, [&b"<o>"[..], b"p", b"0p1", b"</o", b">"]);
    }

    #[test]
    fn urlencode_roundtrips_through_form_decode() {
        let q = r#"<o>{$input/site[@id = "x y"]}</o>"#;
        assert_eq!(form_decode(&urlencode(q)).unwrap(), q);
    }

    #[test]
    fn response_wire_format() {
        let mut out = Vec::new();
        write_response(
            &mut out,
            200,
            "text/plain",
            &[("x-test", "1".to_string())],
            b"ok",
            true,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("content-length: 2\r\n"));
        assert!(text.contains("connection: keep-alive\r\n"));
        assert!(text.contains("x-test: 1\r\n"));
        assert!(text.ends_with("\r\n\r\nok"));
    }
}
