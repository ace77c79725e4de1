//! # foxq-store — a persistent corpus of seekable, indexed event tapes
//!
//! Every engine in this workspace consumes a *parse-event stream*
//! (Definition 1's `Open`/`Close`/`Eof`), yet a hot corpus pays the XML
//! tokenizer again on every query. This crate materializes the event stream
//! **once** into an indexed binary tape (the **FET3** format) so repeat
//! queries replay events instead of re-parsing text — and, because the
//! footer carries a *per-label skip index*, a query set's matched-label
//! union can drive a merged cursor that decodes only the matched subtrees,
//! seeking over everything else.
//!
//! * [`TapeWriter`] streams events to disk in one pass with constant memory
//!   (O(depth) bookkeeping plus a fixed-size write buffer); text payloads
//!   are LZ-compressed per frame, posting lists accumulate per label.
//! * [`TapeReader`] is the one tape cursor: one frame decoder, reading
//!   through the input's window, and one frame stack on which every close
//!   is settled by one verification rule. It implements the engine's
//!   event-source interface ([`foxq_xml::EventSource`]); its
//!   `skip_subtree` is a seek ([`TapeReader::skip_subtree`] is the same
//!   operation, also reporting the bytes it saved). File-opened readers
//!   sit on a [`TapeInput`] — a raw memory map when the platform grants
//!   one (zero-copy, page-cache-friendly), buffered file I/O otherwise.
//! * [`IndexedReplay`] (built by [`index_drive`]) selects candidates: it
//!   merges the matched labels' posting lists and has the cursor open the
//!   frame at each surviving posting or close the innermost one, so it
//!   delivers exactly the events the shared label prefilter would — cost
//!   proportional to the answer, not the document. Its
//!   [`IndexedReplay::skip_subtree`] is the cursor's, so a driver drops a
//!   delivered subtree the same way on either path.
//! * [`Corpus`] manages a directory of tapes with a durable manifest
//!   (doc id → file, version, byte/event counts, checksum) and can
//!   [`Corpus::migrate`] older tapes to FET3 in place ([`migrate_tape`]).
//!
//! ## The FET3 byte layout
//!
//! All multi-byte integers are **little-endian**; `varint` is unsigned
//! LEB128 (7 data bits per byte, high bit = continuation, at most 10
//! bytes). The file has three regions:
//!
//! ```text
//! header (13 bytes):
//!   offset 0   magic  "FET3"                          (4 bytes)
//!   offset 4   version u8 = 3
//!   offset 5   footer_offset u64  — absolute offset of the footer
//!              (backpatched when the tape is finished)
//!   offset 13  first tape frame
//!
//! frames (tag byte first):
//!   0x01 OpenElem   varint label_id · close_delta u32
//!   0x02 OpenText   varint raw_len · varint enc_len · enc_len bytes
//!                   · close_delta u32
//!   0x03 Close      varint subtree_events · subtree_hash u32
//!   0x00 Eof        (end of tape; the footer starts at the next byte)
//!
//! footer (at footer_offset):
//!   varint label_count
//!   label_count × ( varint name_len · name_len UTF-8 bytes )
//!       — element names; label_id is the position in this table
//!   varint event_count    — opens + closes on the tape (Eof excluded)
//!   varint max_depth
//!   flags u8              — FLAG_TEXT_CHILDREN (0x01), FLAG_DELTA_OVERFLOW
//!                           (0x02); either disables the index read path
//!   (2 × label_count + 1) × posting list — one per element label in
//!       label-id order, then the text-node buckets partitioned by
//!       parent: first texts at the forest root, then texts under each
//!       element label in id order. Partitioning texts by parent makes
//!       projection exact: a query loads only the buckets under matched
//!       parents instead of scanning one global text list. Each list:
//!           varint posting_count · varint byte_len · list_hash u32
//!           · byte_len bytes (the body; list_hash is the high 32 bits of
//!           FNV-1a 64 stepped on its 8-byte little-endian words, the last
//!           one zero-padded)
//!       each posting:  varint offset_delta — frame-tag offset minus the
//!                          previous posting's in the same list
//!                          (first: minus 13)
//!                      varint depth        — root = 1
//!                      varint parent_plus1 — parent element's label id
//!                          + 1; 0 = document root
//!   varint raw_text_bytes — total text payload before compression
//!   varint enc_text_bytes — total text payload as stored
//!   checksum u64          — document hash (see below)
//!   footer_hash u64       — FNV-1a 64 of every footer byte before it but
//!                           the posting-list bodies; the file ends here
//! ```
//!
//! **Text compression.** Each text payload is compressed independently
//! with a byte-oriented LZ scheme (64 KiB window, 2-byte offsets — see
//! `lz.rs`), so any frame can be decoded or skipped mid-stream without
//! upstream state. `enc_len == raw_len` means the payload is stored raw
//! (always the case under 16 bytes, or when compression does not shrink);
//! `enc_len > raw_len` is corrupt, and `raw_len > 255 × enc_len` is
//! rejected before any allocation (255 is the codec's maximum expansion).
//!
//! **The close-offset invariant.** `close_delta` is the number of tape
//! bytes from the end of the open frame (the byte after its `close_delta`
//! field) to the *tag byte* of the matching `Close` frame. A reader
//! positioned just past an open frame reaches the close frame by seeking
//! forward exactly `close_delta` bytes; everything in between is the
//! subtree, skipped without decoding. The sentinel `0xFFFF_FFFF` means the
//! subtree spans ≥ 4 GiB and must be scanned instead (and sets
//! `FLAG_DELTA_OVERFLOW`). The writer backpatches the placeholder on close
//! — in memory when the open frame is still in the write buffer (the
//! overwhelmingly common case), by a file seek otherwise.
//!
//! `subtree_events` on a `Close` frame is the number of open + close
//! events of the subtree it terminates, *its own open and close included*
//! (a leaf carries 2). A seeking reader learns the event count of what it
//! skipped from the close frame alone, keeping downstream event accounting
//! exact. The count is not covered by the subtree hash, so the reader
//! checks it at every close, however it got there — decoded in order,
//! reached by a seek, or reached by the skip index: against the events
//! replayed since the matching open (skipped children counted by *their*
//! stored counts) exactly when the subtree was decoded without gaps, and
//! otherwise for lying between what was replayed and what is left of the
//! tape; `Eof` is checked the same way against the footer's
//! `event_count`. The same close must also sit where its open frame's
//! `close_delta` points. Any mismatch is [`StoreError::Corrupt`].
//!
//! **Compositional checksums.** Each node is hashed independently with
//! FNV-1a 64 (offset basis `0xcbf29ce484222325`, prime `0x100000001b3`):
//! fold the open tag byte (`0x01`/`0x02`), the name or raw text bytes,
//! `0xFF`; then, per direct child in document order, the 4 little-endian
//! bytes of `stored ^ id · 0x9E3779B9` (wrapping u32 arithmetic), where
//! `stored` is the child's **stored** 32-bit hash and `id` the label id of
//! its open frame (`0xFFFFFFFF` for a text); then `0x03`. The low 32 bits
//! are stored in the node's `Close` frame (`subtree_hash`). The footer
//! `checksum` folds each root the same way, then `0x00`. Consequences: a
//! reader verifies **exactly the subtrees it decodes**
//! ([`StoreError::Checksum`] fires at the corrupted node's close, not at
//! `Eof`); seeking over a subtree folds its stored hash into the parent, so
//! every enclosing check — including the document hash at `Eof` — survives
//! partial replays. Corruption inside a fully-skipped subtree is
//! undetectable by construction (its bytes are never read).
//!
//! **What is hashed.** Everything a read path acts on. The label id a seek
//! was decided on is folded with the skipped child's stored hash, so a
//! damaged one fails at the parent's close. `footer_hash` is checked when
//! the tape is opened, a `list_hash` when a query loads that list.
//! `tests/tape_mutations.rs` damages every byte of a small corpus and reads
//! each mutant on every path: it fails with a [`StoreError`] or answers as
//! the undamaged tape does.
//!
//! **Older tapes: migrate only.** FET1 (raw text, no close hashes, no skip
//! index, one stream hash) and FET2 (no footer or list hashes, a plain
//! child fold) are read by [`migrate_tape`] alone, front to back, checking
//! their hashes. Everything else answers them with
//! [`StoreError::NeedsMigration`].
//!
//! ## Quick start
//!
//! ```
//! use foxq_store::{Corpus, TapeReader, TapeWriter};
//! use foxq_xml::{EventSource, XmlEvent, XmlReader};
//!
//! // Write: stream parse events onto a tape (here: an in-memory one).
//! let xml = b"<site><people><person><name>Jim</name></person></people></site>";
//! let mut writer = TapeWriter::new(std::io::Cursor::new(Vec::new())).unwrap();
//! let mut parser = XmlReader::new(&xml[..]);
//! loop {
//!     match parser.next_event().unwrap() {
//!         XmlEvent::Open(l) => writer.open(&l).unwrap(),
//!         XmlEvent::Close(_) => writer.close().unwrap(),
//!         XmlEvent::Eof => break,
//!     }
//! }
//! let (cursor, info) = writer.finish().unwrap();
//! assert_eq!(info.events, 10); // 5 opens + 5 closes (site…name + the text)
//! assert_eq!(info.postings, 5); // one skip-index posting per open frame
//!
//! // Read: replay the same events without re-tokenizing any XML.
//! let mut tape = TapeReader::new(std::io::Cursor::new(cursor.into_inner())).unwrap();
//! let mut replayed = 0;
//! while tape.next_event().unwrap() != XmlEvent::Eof {
//!     replayed += 1;
//! }
//! assert_eq!(replayed, 10);
//! ```

#![warn(clippy::undocumented_unsafe_blocks)]

pub mod corpus;
pub mod cursor;
mod lz;
pub mod mmap;
pub mod tape;

pub use corpus::{ingest_xml_to_tmp, migrate_tape, Corpus, DocMeta};
pub use cursor::{index_drive, IndexedReplay, TapeDrive};
pub use mmap::{Mmap, TapeInput};
pub use tape::{
    ingest_xml_to_tape, PostingDirEntry, SkippedSubtree, StoreError, TapeInfo, TapeReader,
    TapeWriter, FLAG_DELTA_OVERFLOW, FLAG_TEXT_CHILDREN,
};
