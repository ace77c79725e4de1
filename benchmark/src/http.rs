//! The harness's own HTTP/1.1 client: one keep-alive connection, requests
//! written from a prebuilt buffer, responses decoded incrementally
//! (`Content-Length` or chunked with trailers) and folded into a
//! fingerprint. It shares nothing with `foxq_server::client`, so a bug in
//! the server's framing cannot hide behind a client that has the same bug.

use crate::hash::Fingerprint;
use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// A request as it goes on the wire.
pub struct Request {
    wire: Vec<u8>,
    pub body_len: usize,
}

impl Request {
    pub fn new(method: &str, target: &str, body: &[u8]) -> Request {
        let mut wire = format!("{method} {target} HTTP/1.1\r\nhost: foxq-bench\r\n").into_bytes();
        if method == "POST" {
            wire.extend_from_slice(format!("content-length: {}\r\n", body.len()).as_bytes());
        }
        wire.extend_from_slice(b"\r\n");
        wire.extend_from_slice(body);
        Request {
            wire,
            body_len: body.len(),
        }
    }
}

/// `application/x-www-form-urlencoded`-style escaping of a query-string
/// value: unreserved characters stay, everything else becomes `%XX`.
pub fn urlencode(text: &str) -> String {
    let mut out = String::with_capacity(text.len() * 3);
    for b in text.bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                out.push(b as char)
            }
            _ => out.push_str(&format!("%{b:02X}")),
        }
    }
    out
}

/// One decoded response. Times are nanoseconds from the start of the
/// request write.
#[derive(Debug, Clone, PartialEq)]
pub struct Exchange {
    pub status: u16,
    pub body: Fingerprint,
    /// Chunks of a chunked body (0 for a `Content-Length` body).
    pub chunks: usize,
    pub trailers: Vec<(String, String)>,
    /// False when a chunked body ended without its terminating chunk, or a
    /// `Content-Length` body came up short.
    pub complete: bool,
    pub written_ns: u64,
    pub first_byte_ns: u64,
    pub total_ns: u64,
}

impl Exchange {
    pub fn trailer(&self, name: &str) -> Option<&str> {
        self.trailers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Incremental response decoder over any byte source.
pub struct ResponseReader<R> {
    source: R,
    buf: Vec<u8>,
    pos: usize,
    end: usize,
    /// When the first byte of the response being decoded was seen.
    first_data: Option<Instant>,
}

fn invalid(msg: &str) -> io::Error {
    io::Error::new(ErrorKind::InvalidData, msg.to_string())
}

impl<R: Read> ResponseReader<R> {
    pub fn new(source: R) -> Self {
        ResponseReader {
            source,
            buf: vec![0; 1 << 16],
            pos: 0,
            end: 0,
            first_data: None,
        }
    }

    /// Read more bytes; `Ok(false)` at end of stream.
    fn fill(&mut self) -> io::Result<bool> {
        if self.pos == self.end {
            self.pos = 0;
            self.end = 0;
        } else if self.end == self.buf.len() {
            self.buf.copy_within(self.pos..self.end, 0);
            self.end -= self.pos;
            self.pos = 0;
            if self.end == self.buf.len() {
                return Err(invalid("header line longer than the read buffer"));
            }
        }
        loop {
            match self.source.read(&mut self.buf[self.end..]) {
                Ok(0) => return Ok(false),
                Ok(n) => {
                    self.first_data.get_or_insert_with(Instant::now);
                    self.end += n;
                    return Ok(true);
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// The next CRLF-terminated line, without its terminator. `None` at a
    /// clean end of stream before any byte of the line.
    fn line(&mut self) -> io::Result<Option<String>> {
        let mut scanned = 0;
        loop {
            let window = &self.buf[self.pos..self.end];
            if let Some(i) = window[scanned..].iter().position(|&b| b == b'\n') {
                let raw = &window[..scanned + i];
                let raw = raw.strip_suffix(b"\r").unwrap_or(raw);
                let text = String::from_utf8_lossy(raw).into_owned();
                self.pos += scanned + i + 1;
                return Ok(Some(text));
            }
            // Relative to `pos`, so it survives `fill` moving the window to
            // the front of the buffer.
            scanned = window.len();
            if !self.fill()? {
                return if scanned == 0 {
                    Ok(None)
                } else {
                    Err(io::Error::new(ErrorKind::UnexpectedEof, "partial line"))
                };
            }
        }
    }

    /// Fold exactly `n` body bytes into `body`; `Ok(false)` if the stream
    /// ended first.
    fn take(&mut self, mut n: u64, body: &mut Fingerprint) -> io::Result<bool> {
        while n > 0 {
            if self.pos == self.end && !self.fill()? {
                return Ok(false);
            }
            let available = (self.end - self.pos) as u64;
            let step = available.min(n) as usize;
            body.update(&self.buf[self.pos..self.pos + step]);
            self.pos += step;
            n -= step as u64;
        }
        Ok(true)
    }

    fn header_block(&mut self) -> io::Result<Vec<(String, String)>> {
        let mut headers = Vec::new();
        loop {
            let line = self.line()?.ok_or_else(|| {
                io::Error::new(ErrorKind::UnexpectedEof, "end of stream in headers")
            })?;
            if line.is_empty() {
                return Ok(headers);
            }
            let (name, value) = line
                .split_once(':')
                .ok_or_else(|| invalid("bad header line"))?;
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
        }
    }

    /// Decode one response. `start` is when the request write began;
    /// `written_ns` and an already observed first byte (seen while the
    /// request was still being written) come from the caller.
    pub fn response(
        &mut self,
        start: Instant,
        written_ns: u64,
        first_byte_seen: Option<Instant>,
    ) -> io::Result<Exchange> {
        self.first_data = first_byte_seen;
        if self.pos < self.end {
            // Bytes of this response already buffered (pipelined reads).
            self.first_data.get_or_insert_with(Instant::now);
        }
        let status_line = self
            .line()?
            .ok_or_else(|| io::Error::new(ErrorKind::UnexpectedEof, "connection closed"))?;
        let status: u16 = status_line
            .split_ascii_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| invalid("bad status line"))?;
        let headers = self.header_block()?;
        let header = |name: &str| {
            headers
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| v.as_str())
        };
        let mut body = Fingerprint::default();
        let mut chunks = 0;
        let mut trailers = Vec::new();
        let chunked =
            header("transfer-encoding").is_some_and(|v| v.eq_ignore_ascii_case("chunked"));
        let complete = if chunked {
            self.chunked_body(&mut body, &mut chunks, &mut trailers)?
        } else {
            let length: u64 = match header("content-length") {
                Some(v) => v.parse().map_err(|_| invalid("bad content-length"))?,
                None => 0,
            };
            self.take(length, &mut body)?
        };
        let first = self.first_data.unwrap_or_else(Instant::now);
        Ok(Exchange {
            status,
            body,
            chunks,
            trailers,
            complete,
            written_ns,
            first_byte_ns: first.saturating_duration_since(start).as_nanos() as u64,
            total_ns: start.elapsed().as_nanos() as u64,
        })
    }

    /// De-chunk a body. `Ok(false)` when the stream ends before the
    /// terminating zero-size chunk — how the server signals a mid-stream
    /// failure after the head has left.
    fn chunked_body(
        &mut self,
        body: &mut Fingerprint,
        chunks: &mut usize,
        trailers: &mut Vec<(String, String)>,
    ) -> io::Result<bool> {
        loop {
            let Some(size_line) = self.line()? else {
                return Ok(false);
            };
            let digits = size_line.split(';').next().unwrap_or("").trim();
            let size = u64::from_str_radix(digits, 16).map_err(|_| invalid("bad chunk size"))?;
            if size == 0 {
                *trailers = self.header_block()?;
                return Ok(true);
            }
            *chunks += 1;
            if !self.take(size, body)? {
                return Ok(false);
            }
            match self.line()? {
                Some(rest) if rest.is_empty() => {}
                Some(_) => return Err(invalid("chunk data not followed by CRLF")),
                None => return Ok(false),
            }
        }
    }
}

/// A keep-alive connection to the server under test.
pub struct Conn {
    writer: TcpStream,
    reader: ResponseReader<TcpStream>,
}

/// A request this small goes out in one blocking write: the server cannot
/// have answered before it has the whole of it.
const SINGLE_WRITE: usize = 1 << 16;

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: std::os::raw::c_ulong, timeout_ms: i32) -> i32;
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // Only a guard against a wedged server; no request comes near it.
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        stream.set_write_timeout(Some(Duration::from_secs(60)))?;
        let writer = stream.try_clone()?;
        Ok(Conn {
            writer,
            reader: ResponseReader::new(stream),
        })
    }

    /// Write a large request while watching for the response: a streamed
    /// response begins before the body is fully sent, and its first byte
    /// must be timed when it arrives, not when the write is over. The
    /// socket is non-blocking for the duration; `poll` sleeps until it can
    /// take more bytes or has some to give.
    fn write_watching(&mut self, wire: &[u8]) -> io::Result<Option<Instant>> {
        use std::os::fd::AsRawFd;
        let mut first_byte_seen = None;
        let mut sent = 0;
        self.writer.set_nonblocking(true)?;
        let outcome = loop {
            if sent == wire.len() {
                break Ok(());
            }
            let mut fd = PollFd {
                fd: self.writer.as_raw_fd(),
                events: POLLOUT | if first_byte_seen.is_none() { POLLIN } else { 0 },
                revents: 0,
            };
            // SAFETY: `fd` is one valid `pollfd`, alive for the call.
            let ready = unsafe { poll(&mut fd, 1, 60_000) };
            if ready < 0 {
                let e = io::Error::last_os_error();
                if e.kind() == ErrorKind::Interrupted {
                    continue;
                }
                break Err(e);
            }
            if ready == 0 {
                break Err(io::Error::new(
                    ErrorKind::TimedOut,
                    "server stopped reading",
                ));
            }
            if fd.revents & POLLIN != 0 && first_byte_seen.is_none() {
                first_byte_seen = Some(Instant::now());
            }
            // Also on POLLERR / POLLHUP, so the write reports the error.
            if fd.revents & !POLLIN != 0 {
                match self.writer.write(&wire[sent..]) {
                    Ok(n) => sent += n,
                    Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(e) => break Err(e),
                }
            }
        };
        self.writer.set_nonblocking(false)?;
        outcome.map(|()| first_byte_seen)
    }

    /// Send `request` and decode the response.
    pub fn exchange(&mut self, request: &Request) -> io::Result<Exchange> {
        let start = Instant::now();
        let first_byte_seen = if request.wire.len() <= SINGLE_WRITE {
            self.writer.write_all(&request.wire)?;
            None
        } else {
            self.write_watching(&request.wire)?
        };
        let written_ns = start.elapsed().as_nanos() as u64;
        self.reader.response(start, written_ns, first_byte_seen)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hands out the response a few bytes at a time, like a slow socket.
    struct Dribble<'a>(&'a [u8], usize);

    impl Read for Dribble<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = self.1.min(self.0.len()).min(buf.len());
            buf[..n].copy_from_slice(&self.0[..n]);
            self.0 = &self.0[n..];
            Ok(n)
        }
    }

    fn decode(wire: &[u8], step: usize) -> io::Result<Exchange> {
        ResponseReader::new(Dribble(wire, step)).response(Instant::now(), 0, None)
    }

    #[test]
    fn content_length_body() {
        let wire = b"HTTP/1.1 200 OK\r\nContent-Type: application/xml\r\nContent-Length: 10\r\n\r\n<o>Jim</o>";
        for step in [1, 3, 4096] {
            let x = decode(wire, step).unwrap();
            assert_eq!(x.status, 200);
            assert!(x.complete);
            assert_eq!(x.chunks, 0);
            assert_eq!(x.body, Fingerprint::of(b"<o>Jim</o>"));
        }
        let short = &wire[..wire.len() - 2];
        assert!(!decode(short, 7).unwrap().complete);
    }

    #[test]
    fn chunked_body_with_trailers() {
        let wire = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\nTrailer: x-foxq-events\r\n\r\n\
                     3\r\n<o>\r\nA;ext=1\r\nJimLi</o>x\r\n0\r\nX-Foxq-Events: 12\r\nx-foxq-output-bytes: 13\r\n\r\n";
        for step in [1, 2, 5, 4096] {
            let x = decode(wire, step).unwrap();
            assert_eq!(x.status, 200);
            assert!(x.complete, "step {step}");
            assert_eq!(x.chunks, 2);
            assert_eq!(x.body, Fingerprint::of(b"<o>JimLi</o>x"));
            assert_eq!(x.trailer("x-foxq-events"), Some("12"));
            assert_eq!(x.trailer("x-foxq-output-bytes"), Some("13"));
            assert_eq!(x.trailer("absent"), None);
        }
    }

    #[test]
    fn truncated_chunking_is_incomplete_not_an_error() {
        let head = b"HTTP/1.1 200 OK\r\ntransfer-encoding: chunked\r\n\r\n".to_vec();
        // Ends after a whole chunk, with no terminating zero chunk.
        let mut wire = head.clone();
        wire.extend_from_slice(b"3\r\n<o>\r\n");
        let x = decode(&wire, 4).unwrap();
        assert!(!x.complete);
        assert_eq!(x.chunks, 1);
        // Ends in the middle of a chunk's data.
        let mut wire = head;
        wire.extend_from_slice(b"8\r\n<o>J");
        assert!(!decode(&wire, 4).unwrap().complete);
    }

    #[test]
    fn two_responses_on_one_stream() {
        let wire = b"HTTP/1.1 200 OK\r\ncontent-length: 2\r\n\r\nokHTTP/1.1 404 Not Found\r\ncontent-length: 0\r\n\r\n";
        let mut reader = ResponseReader::new(Dribble(wire, 4096));
        let first = reader.response(Instant::now(), 0, None).unwrap();
        assert_eq!((first.status, first.body), (200, Fingerprint::of(b"ok")));
        let second = reader.response(Instant::now(), 0, None).unwrap();
        assert_eq!((second.status, second.body.len), (404, 0));
    }

    #[test]
    fn malformed_responses_are_errors() {
        assert!(decode(b"", 1).is_err());
        assert!(decode(b"HTTP/1.1 abc\r\n\r\n", 64).is_err());
        assert!(decode(
            b"HTTP/1.1 200 OK\r\ntransfer-encoding: chunked\r\n\r\nzz\r\n",
            64
        )
        .is_err());
    }

    #[test]
    fn request_wire_format_and_urlencoding() {
        let r = Request::new("POST", "/query?q=a", b"<a/>");
        assert_eq!(
            r.wire,
            b"POST /query?q=a HTTP/1.1\r\nhost: foxq-bench\r\ncontent-length: 4\r\n\r\n<a/>"
        );
        let r = Request::new("GET", "/healthz", b"");
        assert_eq!(r.wire, b"GET /healthz HTTP/1.1\r\nhost: foxq-bench\r\n\r\n");
        assert_eq!(
            urlencode("<o>{$input/a b}</o>"),
            "%3Co%3E%7B%24input%2Fa%20b%7D%3C%2Fo%3E"
        );
    }
}
