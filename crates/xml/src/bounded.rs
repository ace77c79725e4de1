//! Byte-budgeted reading for untrusted input streams.
//!
//! A network serving layer must never let one request monopolize a worker:
//! [`BoundedReader`] wraps any `Read`/`BufRead` and fails with a
//! [`ByteLimitExceeded`] I/O error once more than `limit` bytes have been
//! pulled through it. Because the check runs *while streaming*, a consumer
//! such as [`crate::XmlReader`] aborts after reading `limit` bytes — the
//! oversized document is never buffered, and the transport can stop reading
//! mid-body (the `foxq-server` 413 path).

use std::io::{BufRead, Error, ErrorKind, Read};

/// The error payload a [`BoundedReader`] produces past its limit.
///
/// It travels inside a [`std::io::Error`] (and from there inside
/// [`crate::XmlError::Io`]); use [`byte_limit_exceeded`] to recognize it
/// across those wrappings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ByteLimitExceeded {
    /// The configured budget in bytes.
    pub limit: u64,
}

impl std::fmt::Display for ByteLimitExceeded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "input exceeded the byte limit of {}", self.limit)
    }
}

impl std::error::Error for ByteLimitExceeded {}

/// Whether `e` is (or wraps) a [`ByteLimitExceeded`], returning the limit.
pub fn byte_limit_exceeded(e: &Error) -> Option<u64> {
    e.get_ref()
        .and_then(|inner| inner.downcast_ref::<ByteLimitExceeded>())
        .map(|b| b.limit)
}

/// A `Read`/`BufRead` adapter that errors once more than `limit` bytes have
/// been read from the underlying stream.
///
/// End-of-input at or under the limit is reported normally (`Ok(0)` /
/// an empty `fill_buf`); only the *limit + 1*-th byte turns into an error,
/// so a document of exactly `limit` bytes still parses.
pub struct BoundedReader<R> {
    inner: R,
    limit: u64,
    remaining: u64,
}

impl<R> BoundedReader<R> {
    /// Allow at most `limit` bytes through.
    pub fn new(inner: R, limit: u64) -> Self {
        BoundedReader {
            inner,
            limit,
            remaining: limit,
        }
    }

    /// Bytes still allowed before the limit trips.
    pub fn remaining(&self) -> u64 {
        self.remaining
    }

    /// Bytes consumed so far.
    pub fn consumed(&self) -> u64 {
        self.limit - self.remaining
    }

    /// The configured limit.
    pub fn limit(&self) -> u64 {
        self.limit
    }

    /// Recover the wrapped reader.
    pub fn into_inner(self) -> R {
        self.inner
    }

    fn limit_error(&self) -> Error {
        Error::new(
            ErrorKind::InvalidData,
            ByteLimitExceeded { limit: self.limit },
        )
    }
}

impl<R: Read> Read for BoundedReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        if self.remaining == 0 {
            // Only a real next byte trips the limit: probe one byte so that
            // an input of exactly `limit` bytes still reports clean EOF.
            let mut probe = [0u8; 1];
            return match self.inner.read(&mut probe)? {
                0 => Ok(0),
                _ => Err(self.limit_error()),
            };
        }
        let take = buf
            .len()
            .min(usize::try_from(self.remaining).unwrap_or(usize::MAX));
        let n = self.inner.read(&mut buf[..take])?;
        self.remaining -= n as u64;
        Ok(n)
    }
}

impl<R: BufRead> BufRead for BoundedReader<R> {
    fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
        // Borrow-checker friendly: probe the limit before borrowing the
        // buffer for return.
        if self.remaining == 0 && !self.inner.fill_buf()?.is_empty() {
            return Err(self.limit_error());
        }
        let remaining = usize::try_from(self.remaining).unwrap_or(usize::MAX);
        let buf = self.inner.fill_buf()?;
        let n = buf.len().min(remaining);
        Ok(&buf[..n])
    }

    fn consume(&mut self, amt: usize) {
        debug_assert!(amt as u64 <= self.remaining);
        self.remaining -= amt as u64;
        self.inner.consume(amt);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn under_the_limit_reads_cleanly() {
        let mut r = BoundedReader::new(&b"hello"[..], 10);
        let mut out = String::new();
        r.read_to_string(&mut out).unwrap();
        assert_eq!(out, "hello");
        assert_eq!(r.consumed(), 5);
    }

    #[test]
    fn exactly_the_limit_is_fine() {
        let mut r = BoundedReader::new(&b"hello"[..], 5);
        let mut out = String::new();
        r.read_to_string(&mut out).unwrap();
        assert_eq!(out, "hello");
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn one_past_the_limit_errors() {
        let mut r = BoundedReader::new(&b"hello!"[..], 5);
        let mut out = Vec::new();
        let e = r.read_to_end(&mut out).unwrap_err();
        assert_eq!(byte_limit_exceeded(&e), Some(5));
        assert_eq!(out, b"hello"); // everything under the budget came through
    }

    #[test]
    fn bufread_path_is_bounded_too() {
        let mut r = BoundedReader::new(&b"abcdef"[..], 3);
        assert_eq!(r.fill_buf().unwrap(), b"abc");
        r.consume(3);
        let e = r.fill_buf().unwrap_err();
        assert_eq!(byte_limit_exceeded(&e), Some(3));
    }

    #[test]
    fn xml_reader_over_bounded_reader_aborts_mid_parse() {
        let xml = b"<a><b>text</b></a>";
        let bounded = BoundedReader::new(&xml[..], 7);
        let mut reader = crate::XmlReader::new(bounded);
        let err = loop {
            match reader.next_event() {
                Ok(crate::XmlEvent::Eof) => panic!("expected the limit to trip"),
                Ok(_) => continue,
                Err(e) => break e,
            }
        };
        match err {
            crate::XmlError::Io { offset, source } => {
                assert!(offset <= 8, "offset {offset}");
                assert_eq!(byte_limit_exceeded(&source), Some(7));
            }
            other => panic!("expected Io, got {other}"),
        }
    }
}
