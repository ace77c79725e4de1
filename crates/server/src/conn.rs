//! Per-connection state for the epoll reactor.
//!
//! Each accepted socket is a small resumable machine instead of a parked
//! worker thread — Koch-style buffer minimization applied to the transport.
//! The phases and their transitions:
//!
//! ```text
//!           accept
//!             │
//!             ▼
//!   ┌──────► Idle ─── first byte ──► ReadHead ─── head complete ───┐
//!   │                                   │                          ▼
//!   │                             (head > cap: 400)           RouteBody
//!   │                                   │                    (in a worker:
//!   │                                   │                     body streams
//!   │                                   ▼                     through the
//!   └── keep-alive ────────────── WriteResponse ◄──────────── engine)
//!       (pipelined head already        │
//!        buffered? dispatch now)       ├── close ──► (drop)
//!                                      └── unread body ──► Linger ──► (drop)
//! ```
//!
//! `Idle`/`ReadHead`/`WriteResponse`/`Linger` live on the reactor thread
//! and are resumable across `WouldBlock`; `RouteBody` is the one blocking
//! phase, and it runs on a worker with the socket temporarily switched back
//! to blocking mode (the engine consumes the request body *while* it runs —
//! suspending mid-evaluation is not worth coroutine-izing the transducers).
//! Bytes read past the current request (a pipelined next request) ride
//! along in [`Conn::buf`] across phase changes and worker handoffs.

use crate::http::MAX_HEAD_BYTES;
use crate::metrics::Endpoint;
use std::net::TcpStream;
use std::time::Instant;

/// What to do with the connection once its response is fully flushed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum After {
    /// Body consumed to its framed end and keep-alive agreed: back to
    /// [`Phase::Idle`] (or straight to dispatch if the next head is already
    /// buffered).
    Reuse,
    /// Close immediately (clean end: nothing unread on the wire).
    Close,
    /// Unread request bytes remain on the wire: send FIN, then discard the
    /// peer's tail for a bounded time so the kernel cannot RST the response
    /// away (see [`Phase::Linger`]).
    Linger,
}

/// Where a connection is in its request/response cycle.
#[derive(Debug)]
pub enum Phase {
    /// Between requests: registered for read, nothing buffered yet.
    Idle,
    /// Accumulating request-head bytes in [`Conn::buf`].
    ReadHead,
    /// Handed to a worker: request routing, body streaming, engine
    /// execution. The fd is deregistered from the poller while here.
    RouteBody,
    /// Flushing the serialized response; resumable across `WouldBlock`.
    WriteResponse {
        out: Vec<u8>,
        written: usize,
        after: After,
    },
    /// FIN sent; discarding up to [`Conn::LINGER_CAP`] tail bytes.
    Linger { drained: usize },
}

/// One connection owned by the reactor (or, during `RouteBody`, by a
/// worker).
pub struct Conn {
    pub stream: TcpStream,
    pub token: u64,
    /// Bytes read off the socket but not yet consumed by request
    /// processing, in wire order.
    pub buf: Vec<u8>,
    /// How far [`Conn::head_end`] has already scanned `buf` (avoids re-scanning
    /// the prefix as a slow head trickles in).
    pub scanned: usize,
    pub phase: Phase,
    /// When the current phase times out: idle/head deadline in
    /// `Idle`/`ReadHead`, write deadline in `WriteResponse`, drain deadline
    /// in `Linger`.
    pub deadline: Instant,
    /// Whether the fd is currently registered in the poller, and with what
    /// interest (`EPOLLIN`/`EPOLLOUT`); `None` while in a worker.
    pub interest: Option<u32>,
    /// When the current request's head completed (set at dispatch); the
    /// anchor for the TTFB and request-latency histograms. Taken when the
    /// response is fully flushed.
    pub req_start: Option<Instant>,
    /// Whether time-to-first-byte was already observed for the current
    /// response (only the first written chunk counts).
    pub ttfb_recorded: bool,
    /// Endpoint that served the current request (stamped by the worker),
    /// attributing the flush-complete latency to the right histogram.
    pub endpoint: Option<Endpoint>,
}

impl Conn {
    /// Upper bound on tail bytes discarded during a lingering close.
    pub const LINGER_CAP: usize = 1 << 20;

    /// Hard cap on buffered head bytes before the peer is answered 400 and
    /// cut off. Slightly above the parser's own budget so the parser (which
    /// produces the proper error message) is what rejects a maximal head.
    pub const HEAD_BUF_CAP: usize = MAX_HEAD_BYTES + 1024;

    pub fn new(stream: TcpStream, token: u64, deadline: Instant) -> Conn {
        Conn {
            stream,
            token,
            buf: Vec::new(),
            scanned: 0,
            phase: Phase::Idle,
            deadline,
            interest: None,
            req_start: None,
            ttfb_recorded: false,
            endpoint: None,
        }
    }

    /// Offset one past the end of the first complete request head in
    /// `buf`, if any — the position after the blank line that terminates
    /// the head. Resumes scanning where the last call stopped.
    pub fn head_end(&mut self) -> Option<usize> {
        let end = head_end_from(&self.buf, self.scanned);
        // Re-scan the last 2 bytes next time: a terminator can straddle
        // this read and the next ("…\r\n\r" + "\n").
        self.scanned = self.buf.len().saturating_sub(2);
        end
    }
}

/// Find the end of an HTTP head in `buf` starting the scan at `from`:
/// the byte offset just past `\n\n`, `\n\r\n` (LF line endings are accepted
/// everywhere the parser accepts them). Scanning must start at or before
/// any candidate terminator's *second-to-last* byte.
fn head_end_from(buf: &[u8], from: usize) -> Option<usize> {
    let start = from.min(buf.len());
    for i in start..buf.len() {
        if buf[i] != b'\n' {
            continue;
        }
        match buf.get(i + 1) {
            Some(b'\n') => return Some(i + 2),
            Some(b'\r') if buf.get(i + 2) == Some(&b'\n') => return Some(i + 3),
            _ => {}
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn conn_with(buf: &[u8]) -> Conn {
        // A loopback socket pair just to satisfy the struct; the tests only
        // exercise the buffer scanning.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let stream = std::net::TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let mut c = Conn::new(stream, 9, Instant::now());
        c.buf = buf.to_vec();
        c
    }

    #[test]
    fn detects_complete_heads() {
        assert_eq!(
            conn_with(b"GET / HTTP/1.1\r\nhost: x\r\n\r\n").head_end(),
            Some(27)
        );
        assert_eq!(conn_with(b"GET / HTTP/1.1\n\n").head_end(), Some(16));
        assert_eq!(conn_with(b"GET / HTTP/1.1\n\r\n").head_end(), Some(17));
        // Body bytes after the head do not move the boundary.
        assert_eq!(
            conn_with(b"POST / HTTP/1.1\r\ncontent-length: 4\r\n\r\n<a/>").head_end(),
            Some(38)
        );
    }

    #[test]
    fn incomplete_heads_are_not_detected() {
        for partial in [
            &b""[..],
            b"GET / HTTP/1.1",
            b"GET / HTTP/1.1\r\n",
            b"GET / HTTP/1.1\r\nhost: x\r\n",
            b"GET / HTTP/1.1\r\nhost: x\r\n\r",
        ] {
            assert_eq!(conn_with(partial).head_end(), None, "{partial:?}");
        }
    }

    #[test]
    fn incremental_scans_find_a_straddled_terminator() {
        let wire = b"GET / HTTP/1.1\r\nhost: x\r\n\r\n";
        let mut c = conn_with(&wire[..26]); // up to "…\r\n\r"
        assert_eq!(c.head_end(), None);
        c.buf.push(b'\n');
        assert_eq!(c.head_end(), Some(27));
    }

    #[test]
    fn scan_restart_is_conservative_for_lf_only_heads() {
        let mut c = conn_with(b"GET / HTTP/1.1\n");
        assert_eq!(c.head_end(), None);
        c.buf.push(b'\n');
        assert_eq!(c.head_end(), Some(16));
    }
}
