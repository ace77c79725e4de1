//! Streaming XML parser and serializer for `foxq`.
//!
//! The paper's engines process XML as a stream of parse events; this crate
//! provides that substrate (the authors use Expat under OCaml):
//!
//! * [`XmlReader`] — a pull parser producing [`XmlEvent`]s over any
//!   `Read`, tokenizing inside a window it fills with one read at a
//!   time. Attributes are expanded into leading element children
//!   (`<a b="c"/>` ⇒ `a(b("c"))`), matching the paper's data adaptation
//!   ("All attribute nodes are encoded as element nodes", Table 1).
//! * [`XmlWriter`] / [`write_forest`] — serializer with text escaping.
//! * [`parse_document`] — convenience DOM loader built on the pull parser.
//! * [`XmlSink`] — the output interface used by the streaming transducer
//!   engine, with [`CountingSink`] and [`ForestSink`] implementations.
//! * [`EventSource`] — the engine-facing input interface: anything that can
//!   replay the `Open`/`Close`/`Eof` stream drives the engines
//!   ([`XmlReader`] here; `foxq_store::TapeReader` replays pre-parsed
//!   tapes without tokenizing), and skips a subtree its consumer has no
//!   use for (a tape seeks; [`XmlReader`] skims: all checks, no events).
//! * [`BoundedReader`] — a byte-budget adapter for untrusted transports
//!   (sockets): reading past its limit fails with a recognizable
//!   [`ByteLimitExceeded`] instead of buffering without bound.

pub mod bounded;
pub mod error;
pub mod event;
pub mod reader;
pub mod sink;
pub mod writer;

pub use bounded::{byte_limit_exceeded, BoundedReader, ByteLimitExceeded};
pub use error::XmlError;
pub use event::{EventSource, XmlEvent};
pub use reader::{WhitespaceMode, XmlReader};
pub use sink::{CountingSink, ForestSink, NullSink, WriterSink, XmlSink};
pub use writer::{forest_to_xml_string, write_forest, XmlWriter};

use foxq_forest::Forest;

/// Parse a complete XML document (or forest of documents) into memory.
pub fn parse_document(bytes: &[u8]) -> Result<Forest, XmlError> {
    parse_document_with(bytes, WhitespaceMode::SkipWhitespaceOnly)
}

/// [`parse_document`] with an explicit whitespace mode.
pub fn parse_document_with(bytes: &[u8], ws: WhitespaceMode) -> Result<Forest, XmlError> {
    let mut reader = XmlReader::with_mode(bytes, ws);
    let mut sink = ForestSink::new();
    loop {
        match reader.next_event()? {
            XmlEvent::Open(label) => sink.open(&label),
            XmlEvent::Close(label) => sink.close(&label),
            XmlEvent::Eof => break,
        }
    }
    Ok(sink.into_forest())
}

#[cfg(test)]
mod tests {
    use super::*;
    use foxq_forest::term::forest_to_term;

    #[test]
    fn document_roundtrip() {
        let xml = "<book><isbn>123</isbn><author>Knuth</author></book>";
        let f = parse_document(xml.as_bytes()).unwrap();
        assert_eq!(forest_to_term(&f), r#"book(isbn("123") author("Knuth"))"#);
        assert_eq!(forest_to_xml_string(&f), xml);
    }

    #[test]
    fn attributes_become_children() {
        let f =
            parse_document(br#"<book isbn="123" price="$99"><title>Art</title></book>"#).unwrap();
        assert_eq!(
            forest_to_term(&f),
            r#"book(isbn("123") price("$99") title("Art"))"#
        );
    }

    #[test]
    fn paper_figure1_example() {
        let xml = r#"<book isbn="123" price="$99"><author>Knuth</author><title>Art of Programming</title></book>"#;
        let f = parse_document(xml.as_bytes()).unwrap();
        assert_eq!(
            forest_to_term(&f),
            r#"book(isbn("123") price("$99") author("Knuth") title("Art of Programming"))"#
        );
    }
}
