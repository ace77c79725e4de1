//! The FET tape: writer and reader.
//!
//! See the crate-level docs for the byte layout (FET3). Everything here is
//! plain `std` I/O: the writer needs `Write + Seek` (close offsets are
//! backpatched), the reader needs `BufRead + Seek` (the label table lives
//! in the footer, and skipping is a forward seek). File-opened readers sit
//! on a [`crate::TapeInput`] — a memory map when the platform grants one.
//! Older tapes are read by migration alone ([`crate::migrate_tape`]).

use crate::lz;
use crate::mmap::TapeInput;
use foxq_forest::{FxHashMap, Label};
use foxq_xml::{EventSource, XmlError, XmlEvent, XmlReader};
use std::io::{BufRead, Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::Arc;

/// File magic, offset 0.
pub const MAGIC: [u8; 4] = *b"FET3";
/// The format version this crate writes, and the only one it runs queries
/// on; FET1 and FET2 tapes are rewritten by [`crate::Corpus::migrate`].
pub const VERSION: u8 = 3;
/// Offset of the first frame (magic + version + footer_offset).
pub const TAPE_START: u64 = 13;
/// Offset of the backpatched `footer_offset` field.
const FOOTER_OFFSET_AT: u64 = 5;

const TAG_EOF: u8 = 0x00;
const TAG_OPEN_ELEM: u8 = 0x01;
const TAG_OPEN_TEXT: u8 = 0x02;
const TAG_CLOSE: u8 = 0x03;

/// `close_delta` sentinel: subtree spans ≥ 4 GiB, scan instead of seeking.
const DELTA_OVERFLOW: u32 = u32::MAX;

/// Writer buffer size; backpatches inside it cost a memcpy, not a seek.
const WRITE_BUF_CAP: usize = 256 * 1024;

/// Sanity bounds against corrupt footers (not format limits).
const MAX_LABELS: u64 = 1 << 22;
const MAX_NAME_LEN: u64 = 1 << 16;

/// Footer flag: some node's parent is a text node (hand-built
/// forests only; XML cannot produce this). The skip index assumes element
/// parents, so the index-driven read path is disabled.
pub const FLAG_TEXT_CHILDREN: u8 = 0x01;
/// Footer flag: some `close_delta` overflowed the u32 sentinel, so
/// not every open frame can be seeked over; the index path is disabled.
pub const FLAG_DELTA_OVERFLOW: u8 = 0x02;
const KNOWN_FLAGS: u8 = FLAG_TEXT_CHILDREN | FLAG_DELTA_OVERFLOW;

/// Text payloads shorter than this are stored raw; compression overhead
/// (token + offset bytes) cannot win on them.
const MIN_COMPRESS_LEN: usize = 16;
/// Worst-case LZ expansion per encoded byte (a 255-run length extension
/// byte yields at most 255 output bytes). Bounds `raw_len` against
/// adversarial frames before any allocation.
const MAX_EXPANSION: u64 = 255;

/// Text nodes have no interned label id; this sentinel stands for one on
/// the open stacks and in the label fold.
const TEXT_NODE: u32 = u32::MAX;

/// The label key of [`EventHash::child`]: odd, so distinct ids give
/// distinct masks.
const LABEL_KEY: u32 = 0x9E37_79B9;

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Failure reading or writing a tape or corpus.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The XML being ingested was malformed.
    Xml(XmlError),
    /// The tape bytes violate the FET grammar (bad magic, unknown frame
    /// tag, truncated frame, out-of-range label id, …).
    Corrupt { offset: u64, msg: String },
    /// A recomputed checksum did not match the stored one: the footer's,
    /// a posting list's, a close frame's subtree hash, or the document's.
    Checksum { expected: u64, found: u64 },
    /// A tape of an older format version (1 or 2): migrate it.
    NeedsMigration { version: u8 },
    /// A corpus lookup for an id that is not in the manifest.
    UnknownDoc { id: String },
    /// A document id outside `[A-Za-z0-9._-]` (or starting with `.`).
    BadDocId { id: String },
    /// The corpus manifest file did not parse.
    Manifest { line: usize, msg: String },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "{e}"),
            StoreError::Xml(e) => write!(f, "{e}"),
            StoreError::Corrupt { offset, msg } => {
                write!(f, "corrupt FET tape at byte {offset}: {msg}")
            }
            StoreError::Checksum { expected, found } => write!(
                f,
                "tape checksum mismatch: stored {expected:#x}, replay computed {found:#x}"
            ),
            StoreError::NeedsMigration { version } => write!(
                f,
                "tape is FET{version}, an older format; rewrite it as FET{VERSION} \
                 with `foxq store migrate --dir <corpus>`"
            ),
            StoreError::UnknownDoc { id } => write!(f, "no document {id:?} in the corpus"),
            StoreError::BadDocId { id } => write!(
                f,
                "invalid document id {id:?} (use [A-Za-z0-9._-], not starting with '.')"
            ),
            StoreError::Manifest { line, msg } => {
                write!(f, "corrupt corpus manifest at line {line}: {msg}")
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            StoreError::Xml(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<XmlError> for StoreError {
    fn from(e: XmlError) -> Self {
        StoreError::Xml(e)
    }
}

impl StoreError {
    /// Render as an [`XmlError`] so a tape can stand in wherever an XML
    /// event source is expected (the [`EventSource`] impl).
    pub fn into_xml(self) -> XmlError {
        match self {
            StoreError::Io(e) => XmlError::Io {
                offset: 0,
                source: e,
            },
            StoreError::Xml(e) => e,
            StoreError::Corrupt { offset, msg } => XmlError::Syntax {
                offset,
                msg: format!("FET tape: {msg}"),
            },
            other => XmlError::Syntax {
                offset: 0,
                msg: format!("FET tape: {other}"),
            },
        }
    }
}

// ---------------------------------------------------------------------------
// Checksum
// ---------------------------------------------------------------------------

/// FNV-1a 64 (see the crate docs). Events are hashed *compositionally*:
/// each node gets a fresh hash seeded with its open event, children fold
/// their truncated hash into the parent as they close, and the footer
/// checksum folds the roots — so a seeking reader can verify exactly the
/// subtrees it decoded. The footer is hashed as plain bytes, each posting
/// list by words ([`EventHash::of_list`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct EventHash(pub(crate) u64);

impl EventHash {
    pub(crate) fn new() -> Self {
        EventHash(0xcbf2_9ce4_8422_2325)
    }

    fn byte(&mut self, b: u8) {
        self.word(u64::from(b));
    }

    fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(0x100_0000_01b3);
    }

    /// A posting list's hash: the FNV-1a step on 8-byte little-endian words
    /// (the last zero-padded; the length is the directory's), high 32 bits —
    /// an eighth of the steps, as a query loads its lists on every run.
    fn of_list(bs: &[u8]) -> u32 {
        let mut hash = EventHash::new();
        let mut words = bs.chunks_exact(8);
        for word in &mut words {
            hash.word(u64::from_le_bytes(word.try_into().unwrap()));
        }
        let mut last = [0u8; 8];
        last[..words.remainder().len()].copy_from_slice(words.remainder());
        hash.word(u64::from_le_bytes(last));
        (hash.0 >> 32) as u32
    }

    fn bytes(&mut self, bs: &[u8]) {
        for &b in bs {
            self.byte(b);
        }
    }

    pub(crate) fn open(&mut self, label: &Label) {
        self.byte(if label.is_text() {
            TAG_OPEN_TEXT
        } else {
            TAG_OPEN_ELEM
        });
        self.bytes(label.name.as_bytes());
        self.byte(0xFF);
    }

    pub(crate) fn close(&mut self) {
        self.byte(TAG_CLOSE);
    }

    pub(crate) fn eof(&mut self) {
        self.byte(TAG_EOF);
    }

    /// The low 32 bits — what a close frame stores for its subtree.
    pub(crate) fn trunc32(&self) -> u32 {
        self.0 as u32
    }

    /// Fold a direct child's stored hash, keyed by the label id its open
    /// frame carries ([`TEXT_NODE`] for a text): `key` is [`LABEL_KEY`] on
    /// FET3 and 0 on FET2, whose fold is the stored hash alone.
    pub(crate) fn child(&mut self, stored: u32, id: u32, key: u32) {
        self.bytes(&(stored ^ id.wrapping_mul(key)).to_le_bytes());
    }
}

/// [`StoreError::Checksum`] unless the recomputed hash is the stored one.
#[inline(always)]
pub(crate) fn check_hash(
    expected: impl Into<u64>,
    found: impl Into<u64>,
) -> Result<(), StoreError> {
    let (expected, found) = (expected.into(), found.into());
    if expected == found {
        Ok(())
    } else {
        Err(StoreError::Checksum { expected, found })
    }
}

/// A footer reader that folds every byte it reads into `hash`.
struct HashedRead<'a, R> {
    inner: &'a mut R,
    hash: EventHash,
}

impl<R: Read> Read for HashedRead<'_, R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.hash.bytes(&buf[..n]);
        Ok(n)
    }
}

// ---------------------------------------------------------------------------
// Varints
// ---------------------------------------------------------------------------

pub(crate) fn push_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(b);
            return;
        }
        buf.push(b | 0x80);
    }
}

// ---------------------------------------------------------------------------
// Metadata
// ---------------------------------------------------------------------------

/// Footer-level facts about one tape, available without replaying it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TapeInfo {
    /// Format version ([`VERSION`]; 1 or 2 only when migrating).
    pub version: u8,
    /// Open + close events on the tape (`Eof` excluded).
    pub events: u64,
    /// Distinct element names in the label table.
    pub label_count: usize,
    /// Maximum nesting depth of the document.
    pub max_depth: usize,
    /// Bytes of the frame region (header and footer excluded).
    pub tape_bytes: u64,
    /// Total file size.
    pub file_bytes: u64,
    /// Document checksum: FNV-1a 64 folding the roots' subtree hashes (on
    /// FET1, of the event stream).
    pub checksum: u64,
    /// Footer flags ([`FLAG_TEXT_CHILDREN`], [`FLAG_DELTA_OVERFLOW`]).
    pub flags: u8,
    /// Total text payload bytes before compression (0 on FET1).
    pub raw_text_bytes: u64,
    /// Total text payload bytes as stored (0 on FET1).
    pub enc_text_bytes: u64,
    /// Bytes of the footer's skip-index section (0 on FET1).
    pub index_bytes: u64,
    /// Total posting entries across all skip-index lists (0 on FET1).
    pub postings: u64,
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// One not-yet-closed node: where its `close_delta` placeholder sits, the
/// event counter when it opened, its compositional hash and its label id
/// ([`TEXT_NODE`] for texts).
struct PendingOpen {
    patch_at: u64,
    events_at_open: u64,
    hash: EventHash,
    label_id: u32,
}

/// One label's skip-index list under construction: delta-varint postings
/// of `(open-frame offset, depth, parent label + 1)`.
struct PostingList {
    count: u64,
    last: u64,
    bytes: Vec<u8>,
}

impl PostingList {
    fn new() -> Self {
        PostingList {
            count: 0,
            last: TAPE_START,
            bytes: Vec::new(),
        }
    }

    fn push(&mut self, at: u64, depth: u64, parent_plus1: u64) {
        push_varint(&mut self.bytes, at - self.last);
        push_varint(&mut self.bytes, depth);
        push_varint(&mut self.bytes, parent_plus1);
        self.last = at;
        self.count += 1;
    }
}

/// Streams events onto a FET tape in one pass.
///
/// Memory is O(depth) for the backpatch stack plus a fixed write buffer;
/// the label table and the skip index grow with the *vocabulary* and the
/// *node count*, not the text volume. Feed events with
/// [`TapeWriter::open`] / [`TapeWriter::close`] (the usual sink shape),
/// then call [`TapeWriter::finish`].
pub struct TapeWriter<W: Write + Seek> {
    out: W,
    /// Bytes already written to `out`; `out`'s cursor sits there between
    /// calls.
    flushed: u64,
    /// Unwritten tail of the tape. Backpatches landing here are applied in
    /// memory.
    buf: Vec<u8>,
    stack: Vec<PendingOpen>,
    label_ids: FxHashMap<Arc<str>, u32>,
    label_names: Vec<Arc<str>>,
    /// Per-element-label posting lists, parallel to `label_names`.
    elem_postings: Vec<PostingList>,
    /// Text open frames, partitioned by parent: bucket `p` holds the
    /// texts whose `parent_plus1` is `p` (bucket 0 = forest-root texts).
    /// Partitioning by parent makes the reader's projection exact — a
    /// query selects only the buckets under matched parents instead of
    /// decode-and-discarding every text posting in the document.
    text_postings: Vec<PostingList>,
    events: u64,
    max_depth: usize,
    /// The document hash, folding root subtrees.
    hash: EventHash,
    flags: u8,
    raw_text_bytes: u64,
    enc_text_bytes: u64,
    enc_scratch: Vec<u8>,
}

impl<W: Write + Seek> TapeWriter<W> {
    /// Start a tape on `out` (the header is written immediately).
    pub fn new(mut out: W) -> Result<Self, StoreError> {
        out.write_all(&MAGIC)?;
        out.write_all(&[VERSION])?;
        out.write_all(&0u64.to_le_bytes())?; // footer_offset placeholder
        Ok(TapeWriter {
            out,
            flushed: TAPE_START,
            buf: Vec::with_capacity(WRITE_BUF_CAP + 4096),
            stack: Vec::new(),
            label_ids: FxHashMap::default(),
            label_names: Vec::new(),
            elem_postings: Vec::new(),
            text_postings: Vec::new(),
            events: 0,
            max_depth: 0,
            hash: EventHash::new(),
            flags: 0,
            raw_text_bytes: 0,
            enc_text_bytes: 0,
            enc_scratch: Vec::new(),
        })
    }

    /// Current absolute write position.
    fn pos(&self) -> u64 {
        self.flushed + self.buf.len() as u64
    }

    fn flush_buf(&mut self) -> Result<(), StoreError> {
        if !self.buf.is_empty() {
            self.out.write_all(&self.buf)?;
            self.flushed += self.buf.len() as u64;
            self.buf.clear();
        }
        Ok(())
    }

    /// Overwrite the 4 placeholder bytes at `at` — in memory when they are
    /// still buffered, by a seek round-trip otherwise. A frame is appended
    /// atomically before any flush, so the field never straddles the
    /// flushed boundary.
    fn patch(&mut self, at: u64, bytes: [u8; 4]) -> Result<(), StoreError> {
        if at >= self.flushed {
            let i = (at - self.flushed) as usize;
            self.buf[i..i + 4].copy_from_slice(&bytes);
        } else {
            self.out.seek(SeekFrom::Start(at))?;
            self.out.write_all(&bytes)?;
            self.out.seek(SeekFrom::Start(self.flushed))?;
        }
        Ok(())
    }

    fn intern(&mut self, name: &Arc<str>) -> u32 {
        if let Some(&id) = self.label_ids.get(name) {
            return id;
        }
        let id = self.label_names.len() as u32;
        self.label_ids.insert(name.clone(), id);
        self.label_names.push(name.clone());
        self.elem_postings.push(PostingList::new());
        id
    }

    /// Record an opening event (element or text node).
    pub fn open(&mut self, label: &Label) -> Result<(), StoreError> {
        self.events += 1;
        let frame_at = self.pos();
        let depth = self.stack.len() as u64 + 1;
        let parent_plus1 = match self.stack.last() {
            None => 0,
            Some(p) if p.label_id == TEXT_NODE => {
                // A node under a text node: the index's element-parent
                // pruning would misfire, so flag the tape out of it.
                self.flags |= FLAG_TEXT_CHILDREN;
                0
            }
            Some(p) => u64::from(p.label_id) + 1,
        };
        let mut node_hash = EventHash::new();
        node_hash.open(label);
        let label_id = if label.is_text() {
            let raw = label.name.as_bytes();
            self.buf.push(TAG_OPEN_TEXT);
            push_varint(&mut self.buf, raw.len() as u64);
            let bucket = parent_plus1 as usize;
            if self.text_postings.len() <= bucket {
                self.text_postings.resize_with(bucket + 1, PostingList::new);
            }
            self.text_postings[bucket].push(frame_at, depth, parent_plus1);
            self.raw_text_bytes += raw.len() as u64;
            self.enc_scratch.clear();
            if raw.len() >= MIN_COMPRESS_LEN {
                lz::compress(raw, &mut self.enc_scratch);
            }
            if !self.enc_scratch.is_empty() && self.enc_scratch.len() < raw.len() {
                push_varint(&mut self.buf, self.enc_scratch.len() as u64);
                self.buf.extend_from_slice(&self.enc_scratch);
                self.enc_text_bytes += self.enc_scratch.len() as u64;
            } else {
                push_varint(&mut self.buf, raw.len() as u64);
                self.buf.extend_from_slice(raw);
                self.enc_text_bytes += raw.len() as u64;
            }
            TEXT_NODE
        } else {
            let id = self.intern(&label.name);
            self.elem_postings[id as usize].push(frame_at, depth, parent_plus1);
            self.buf.push(TAG_OPEN_ELEM);
            push_varint(&mut self.buf, u64::from(id));
            id
        };
        let patch_at = self.pos();
        self.buf.extend_from_slice(&[0u8; 4]); // close_delta placeholder
        self.stack.push(PendingOpen {
            patch_at,
            events_at_open: self.events,
            hash: node_hash,
            label_id,
        });
        self.max_depth = self.max_depth.max(self.stack.len());
        if self.buf.len() >= WRITE_BUF_CAP {
            self.flush_buf()?;
        }
        Ok(())
    }

    /// Record the closing event of the most recently opened node.
    pub fn close(&mut self) -> Result<(), StoreError> {
        let open = self.stack.pop().expect("close without matching open");
        self.events += 1;
        let close_tag_at = self.pos();
        let delta64 = close_tag_at - (open.patch_at + 4);
        let delta = u32::try_from(delta64).unwrap_or(DELTA_OVERFLOW);
        if delta == DELTA_OVERFLOW {
            self.flags |= FLAG_DELTA_OVERFLOW;
        }
        self.patch(open.patch_at, delta.to_le_bytes())?;
        let subtree_events = self.events - open.events_at_open + 1;
        self.buf.push(TAG_CLOSE);
        push_varint(&mut self.buf, subtree_events);
        let mut h = open.hash;
        h.close();
        let trunc = h.trunc32();
        self.buf.extend_from_slice(&trunc.to_le_bytes());
        let parent = match self.stack.last_mut() {
            Some(parent) => &mut parent.hash,
            None => &mut self.hash,
        };
        parent.child(trunc, open.label_id, LABEL_KEY);
        if self.buf.len() >= WRITE_BUF_CAP {
            self.flush_buf()?;
        }
        Ok(())
    }

    /// Write the `Eof` frame and the footer, backpatch the header, and
    /// return the underlying writer (cursor at end of file) plus the tape
    /// facts.
    pub fn finish(mut self) -> Result<(W, TapeInfo), StoreError> {
        assert!(self.stack.is_empty(), "finish with unclosed nodes");
        self.buf.push(TAG_EOF);
        self.hash.eof();
        let footer_offset = self.pos();
        // The footer hash covers every footer byte but the posting-list
        // bodies, which carry their own: `covered` takes the bytes from
        // `from` on before each body is appended.
        let mut covered = EventHash::new();
        let mut from = self.buf.len();
        push_varint(&mut self.buf, self.label_names.len() as u64);
        for name in &self.label_names {
            push_varint(&mut self.buf, name.len() as u64);
            self.buf.extend_from_slice(name.as_bytes());
        }
        push_varint(&mut self.buf, self.events);
        push_varint(&mut self.buf, self.max_depth as u64);
        self.buf.push(self.flags);
        let index_start = self.pos();
        let lists = std::mem::take(&mut self.elem_postings);
        // Text buckets cover every possible parent_plus1 (0 = forest
        // root, then one per element label), empty or not, so the
        // reader's directory is position-addressable.
        let mut texts = std::mem::take(&mut self.text_postings);
        texts.resize_with(self.label_names.len() + 1, PostingList::new);
        let mut postings = 0u64;
        for list in lists.iter().chain(texts.iter()) {
            push_varint(&mut self.buf, list.count);
            push_varint(&mut self.buf, list.bytes.len() as u64);
            let list_hash = EventHash::of_list(&list.bytes);
            self.buf.extend_from_slice(&list_hash.to_le_bytes());
            covered.bytes(&self.buf[from..]);
            self.buf.extend_from_slice(&list.bytes);
            from = self.buf.len();
            postings += list.count;
        }
        let index_bytes = self.pos() - index_start;
        push_varint(&mut self.buf, self.raw_text_bytes);
        push_varint(&mut self.buf, self.enc_text_bytes);
        self.buf.extend_from_slice(&self.hash.0.to_le_bytes());
        covered.bytes(&self.buf[from..]);
        self.buf.extend_from_slice(&covered.0.to_le_bytes());
        self.flush_buf()?;
        self.out.seek(SeekFrom::Start(FOOTER_OFFSET_AT))?;
        self.out.write_all(&footer_offset.to_le_bytes())?;
        self.out.seek(SeekFrom::Start(self.flushed))?;
        self.out.flush()?;
        Ok((
            self.out,
            TapeInfo {
                version: VERSION,
                events: self.events,
                label_count: self.label_names.len(),
                max_depth: self.max_depth,
                tape_bytes: footer_offset - TAPE_START,
                file_bytes: self.flushed,
                checksum: self.hash.0,
                flags: self.flags,
                raw_text_bytes: self.raw_text_bytes,
                enc_text_bytes: self.enc_text_bytes,
                index_bytes,
                postings,
            },
        ))
    }
}

/// Parse XML and write it to a tape in one streaming pass. Returns the
/// tape facts and the number of XML source bytes consumed.
pub fn ingest_xml_to_tape<R: Read, W: Write + Seek>(
    xml: R,
    out: W,
) -> Result<(W, TapeInfo, u64), StoreError> {
    let mut writer = TapeWriter::new(out)?;
    let mut counted = CountingRead { inner: xml, n: 0 };
    let mut parser = XmlReader::new(&mut counted);
    loop {
        match parser.next_event()? {
            XmlEvent::Open(label) => writer.open(&label)?,
            XmlEvent::Close(_) => writer.close()?,
            XmlEvent::Eof => break,
        }
    }
    let (out, info) = writer.finish()?;
    Ok((out, info, counted.n))
}

/// Counts the bytes read through it (the XML source size of an ingest).
struct CountingRead<R> {
    inner: R,
    n: u64,
}

impl<R: Read> Read for CountingRead<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let got = self.inner.read(buf)?;
        self.n += got as u64;
        Ok(got)
    }
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// What a tape's `skip_subtree` ([`TapeReader::skip_subtree`],
/// [`crate::IndexedReplay::skip_subtree`]) consumed.
#[derive(Debug, Clone, Copy)]
pub struct SkippedSubtree {
    /// Open + close events consumed — the subtree's interior and its close;
    /// its open had been returned. What [`EventSource::skip_subtree`]
    /// returns.
    pub events: u64,
    /// Tape bytes that were never decoded.
    pub bytes: u64,
}

/// Location of one posting list inside the footer.
#[derive(Debug, Clone, Copy)]
pub struct PostingDirEntry {
    /// Number of posting entries in the list.
    pub count: u64,
    /// Absolute file offset of the list's first posting byte.
    pub offset: u64,
    /// Encoded length of the list in bytes.
    pub bytes: u64,
    /// The list's hash, checked when the list is loaded: FNV-1a on the
    /// list's bytes as 8-byte little-endian words (the last zero-padded),
    /// high 32 bits.
    pub hash: u32,
}

/// Longest frame head: a tag and two 10-byte varints (an open text's
/// lengths), or a tag, a varint and a 4-byte field.
const MAX_HEAD: usize = 21;

const TRUNCATED: &str = "tape truncated mid-frame";

/// A frame's fixed part, as [`parse_head`] reads it.
enum Head {
    /// An element's open frame: its label id and `close_delta`.
    Elem {
        id: u64,
        close_delta: u32,
    },
    /// A text's open frame: the payload and the `close_delta` follow
    /// ([`TapeReader::read_text`]).
    Text {
        raw_len: u64,
        enc_len: u64,
    },
    /// `subtree_events` and (not on FET1) `subtree_hash`.
    Close {
        events: u64,
        hash: Option<u32>,
    },
    Eof,
}

/// Parse the frame head at the start of `b`: the head and its length, or
/// the index in `b` where it fails ([`bad_head`] says why). The one place
/// a frame tag is read. `FET1` is the layout migration reads older tapes
/// in, which differs from FET2 and FET3 in two places: its text is stored
/// raw (it reads as `enc_len = raw_len`), and its closes carry no hash.
#[inline(always)]
fn parse_head<const FET1: bool>(b: &[u8]) -> Result<(Head, usize), usize> {
    let mut i = 1;
    let field = |i: &mut usize| {
        let bytes = b.get(*i..*i + 4).ok_or(*i)?;
        *i += 4;
        Ok::<_, usize>(u32::from_le_bytes(bytes.try_into().unwrap()))
    };
    let head = match *b.first().ok_or(0usize)? {
        TAG_OPEN_ELEM => Head::Elem {
            id: slice_varint(b, &mut i).ok_or(i)?,
            close_delta: field(&mut i)?,
        },
        TAG_OPEN_TEXT => {
            let raw_len = slice_varint(b, &mut i).ok_or(i)?;
            let enc_len = if FET1 {
                raw_len
            } else {
                slice_varint(b, &mut i).ok_or(i)?
            };
            Head::Text { raw_len, enc_len }
        }
        TAG_CLOSE => Head::Close {
            events: slice_varint(b, &mut i).ok_or(i)?,
            hash: if FET1 { None } else { Some(field(&mut i)?) },
        },
        TAG_EOF => Head::Eof,
        _ => return Err(0),
    };
    Ok((head, i))
}

/// Why [`parse_head`] failed at index `i` of `b`, a frame starting at
/// offset `at`.
#[cold]
fn bad_head(at: u64, b: &[u8], i: usize) -> StoreError {
    let msg = match b.first() {
        Some(tag) if i == 0 => format!("unknown frame tag {tag:#04x}"),
        _ if i >= b.len() => TRUNCATED.to_string(),
        _ => "varint overflows u64".to_string(),
    };
    StoreError::Corrupt {
        offset: at + i as u64,
        msg,
    }
}

/// One open node on the reader's frame stack. `stack[0]` is a virtual
/// document root whose close frame is the `Eof` tag, so roots need no
/// special case; a node's depth is its index.
struct Frame {
    label: Label,
    /// The label id of its open frame ([`TEXT_NODE`] for a text).
    id: u32,
    /// Offset of the close frame's tag; `None` when `close_delta`
    /// overflowed.
    close_at: Option<u64>,
    /// Compositional hash of what was decoded so far.
    hash: EventHash,
    /// Every child so far was decoded, adjacent to its predecessor.
    complete: bool,
    /// Where the next child frame starts while the subtree has no gaps.
    next_at: u64,
    /// [`TapeReader::events_read`] right after this node's open.
    opened_at: u64,
}

/// Replays a FET tape as parse events, without re-tokenizing any XML —
/// the one tape cursor. The scan pulls frames in order
/// ([`TapeReader::next_event`]); [`TapeReader::skip_subtree`] seeks to a
/// close; the skip index ([`crate::IndexedReplay`]) jumps from candidate
/// to candidate and asks this reader to open the frame there or to close
/// the top one.
///
/// Every close, however it was reached, is settled by one rule: the close
/// frame must sit where its open said; its event count must be exact for a
/// subtree decoded without gaps, and otherwise between what was replayed
/// and what is left; its hash is checked when there were no gaps; its
/// stored hash is folded into the parent, keyed by the label id of its
/// open frame. `Eof` is the virtual root's close, checked against the
/// footer's event count and document hash. A skipped child is no gap — its
/// stored hash stands in for it — so every decoded subtree is verified,
/// seeks included, and so is the label each seek was decided on. The
/// footer is verified when the tape is opened, each posting list when it
/// is loaded.
pub struct TapeReader<R> {
    input: R,
    /// Absolute offset of the next unread byte.
    offset: u64,
    pub(crate) footer_offset: u64,
    labels: Vec<Label>,
    info: TapeInfo,
    /// Skip index: one entry per element label (label-id order), then the
    /// text-node buckets. Empty on FET1.
    postings_dir: Vec<PostingDirEntry>,
    stack: Vec<Frame>,
    /// Open/close events of the tape behind the read position: the ones
    /// returned, plus each closed subtree's stored count for what was not.
    position: u64,
    seek_skipped_bytes: u64,
    seek_micros: u64,
    /// The label key of [`EventHash::child`]: [`LABEL_KEY`], or 0 on a FET2
    /// tape opened for migration.
    key: u32,
    finished: bool,
    /// Where a frame cut by a buffered input's window edge is read.
    scratch: Vec<u8>,
}

impl TapeReader<TapeInput> {
    /// Open a tape file, memory-mapping it when possible (see
    /// [`TapeInput::open`]).
    pub fn open_file(path: &Path) -> Result<Self, StoreError> {
        TapeReader::new(TapeInput::open(std::fs::File::open(path)?))
    }
}

#[cold]
fn corrupt<T>(offset: u64, msg: impl Into<String>) -> Result<T, StoreError> {
    Err(StoreError::Corrupt {
        offset,
        msg: msg.into(),
    })
}

impl<R: BufRead + Seek> TapeReader<R> {
    /// Validate the header, load and verify the footer (label table,
    /// counts, skip index directory, checksums), and position the reader
    /// at the first frame. A FET1 or FET2 tape is
    /// [`StoreError::NeedsMigration`].
    pub fn new(input: R) -> Result<Self, StoreError> {
        Self::open(input, false)
    }

    /// [`TapeReader::new`]; with `older_too` — for migration, the one
    /// reader of older tapes — FET1 and FET2 open as well.
    pub(crate) fn open(mut input: R, older_too: bool) -> Result<Self, StoreError> {
        let file_bytes = input.seek(SeekFrom::End(0))?;
        input.seek(SeekFrom::Start(0))?;
        let mut head = [0u8; 13];
        read_exact_at(&mut input, &mut head, &mut 0)?;
        let version = match head[..4] {
            [b'F', b'E', b'T', digit @ b'1'..=b'3'] => digit - b'0',
            _ => return corrupt(0, "bad magic (not a FET tape)"),
        };
        if head[4] != version {
            let found = head[4];
            return corrupt(
                4,
                format!("version byte {found} contradicts the FET{version} magic"),
            );
        }
        if version != VERSION && !older_too {
            return Err(StoreError::NeedsMigration { version });
        }
        let footer_offset = u64::from_le_bytes(head[5..13].try_into().unwrap());
        // The Eof tag sits between the header and the footer.
        if footer_offset <= TAPE_START || footer_offset >= file_bytes {
            return corrupt(
                FOOTER_OFFSET_AT,
                format!("footer offset {footer_offset} outside the file ({file_bytes} bytes)"),
            );
        }
        input.seek(SeekFrom::Start(footer_offset))?;
        // Every footer byte is read through `footer`, and so hashed, but
        // the posting-list bodies, which are seeked over.
        let mut footer = HashedRead {
            inner: &mut input,
            hash: EventHash::new(),
        };
        let mut at = footer_offset;
        let label_count = read_varint(&mut footer, &mut at)?;
        // Every entry takes at least a byte: a count the footer cannot
        // hold must not size an allocation.
        if label_count > MAX_LABELS || label_count > file_bytes - at {
            return corrupt(at, format!("implausible label count {label_count}"));
        }
        let mut labels = Vec::with_capacity(label_count as usize);
        for _ in 0..label_count {
            let len = read_varint(&mut footer, &mut at)?;
            if len > MAX_NAME_LEN {
                return corrupt(at, format!("implausible label length {len}"));
            }
            let mut name = vec![0u8; len as usize];
            read_exact_at(&mut footer, &mut name, &mut at)?;
            let Ok(name) = String::from_utf8(name) else {
                return corrupt(at, "label table entry is not UTF-8");
            };
            labels.push(Label::elem(name));
        }
        let events = read_varint(&mut footer, &mut at)?;
        let max_depth = read_varint(&mut footer, &mut at)?;
        // FET1 predates the flags: any of its close offsets may have
        // overflowed.
        let mut flags = FLAG_DELTA_OVERFLOW;
        let mut postings_dir = Vec::new();
        let mut raw_text_bytes = 0;
        let mut enc_text_bytes = 0;
        let mut index_bytes = 0;
        let mut postings = 0;
        if version > 1 {
            let mut b = [0u8];
            read_exact_at(&mut footer, &mut b, &mut at)?;
            flags = b[0];
            if flags & !KNOWN_FLAGS != 0 {
                return corrupt(at - 1, format!("unknown footer flags {flags:#04x}"));
            }
            let index_start = at;
            // One list per element label, then one text bucket per
            // possible parent: the forest root, then each element label.
            postings_dir.reserve(2 * labels.len() + 1);
            for _ in 0..2 * labels.len() + 1 {
                let count = read_varint(&mut footer, &mut at)?;
                let len = read_varint(&mut footer, &mut at)?;
                let mut hash = [0u8; 4];
                if version == VERSION {
                    read_exact_at(&mut footer, &mut hash, &mut at)?;
                }
                if count > events || len > file_bytes.saturating_sub(at) {
                    return corrupt(
                        at,
                        format!("implausible posting list ({count} entries, {len} bytes)"),
                    );
                }
                postings_dir.push(PostingDirEntry {
                    count,
                    offset: at,
                    bytes: len,
                    hash: u32::from_le_bytes(hash),
                });
                postings += count;
                footer.inner.seek(SeekFrom::Start(at + len))?;
                at += len;
            }
            index_bytes = at - index_start;
            raw_text_bytes = read_varint(&mut footer, &mut at)?;
            enc_text_bytes = read_varint(&mut footer, &mut at)?;
        }
        let mut sum = [0u8; 8];
        read_exact_at(&mut footer, &mut sum, &mut at)?;
        let checksum = u64::from_le_bytes(sum);
        if version == VERSION {
            let found = footer.hash.0;
            read_exact_at(&mut input, &mut sum, &mut at)?;
            check_hash(u64::from_le_bytes(sum), found)?;
        }
        if at != file_bytes {
            return corrupt(at, "bytes after the end of the footer");
        }
        input.seek(SeekFrom::Start(TAPE_START))?;
        let label_count = labels.len();
        let root = Frame {
            label: Label::elem(""),
            id: 0,
            close_at: Some(footer_offset - 1), // the Eof tag
            hash: EventHash::new(),
            complete: true,
            next_at: TAPE_START,
            opened_at: 0,
        };
        Ok(TapeReader {
            input,
            offset: TAPE_START,
            footer_offset,
            labels,
            info: TapeInfo {
                version,
                events,
                label_count,
                max_depth: max_depth as usize,
                tape_bytes: footer_offset - TAPE_START,
                file_bytes,
                checksum,
                flags,
                raw_text_bytes,
                enc_text_bytes,
                index_bytes,
                postings,
            },
            postings_dir,
            stack: vec![root],
            position: 0,
            seek_skipped_bytes: 0,
            seek_micros: 0,
            key: if version == VERSION { LABEL_KEY } else { 0 },
            finished: false,
            scratch: Vec::new(),
        })
    }

    /// Footer-level facts (no replay needed).
    pub fn info(&self) -> &TapeInfo {
        &self.info
    }

    /// The interned element names, in label-id order.
    pub fn labels(&self) -> &[Label] {
        &self.labels
    }

    /// The skip-index directory: one list per element label in label-id
    /// order, then the text-node buckets — one per possible parent, forest
    /// root first, then each element label in id order (entry
    /// `labels.len() + 1 + id` holds the texts under label `id`).
    pub fn posting_dir(&self) -> &[PostingDirEntry] {
        &self.postings_dir
    }

    /// Whether this tape supports the index-driven read path: no footer
    /// flag disables it.
    pub fn index_usable(&self) -> bool {
        self.info.flags & KNOWN_FLAGS == 0
    }

    /// Open/close events consumed so far: the ones returned and the ones
    /// [`TapeReader::skip_subtree`] counted.
    pub fn events_read(&self) -> u64 {
        self.position
    }

    /// Tape bytes jumped over (never decoded) so far.
    pub fn seek_skipped_bytes(&self) -> u64 {
        self.seek_skipped_bytes
    }

    /// Wall time spent inside [`TapeReader::skip_subtree`] so far, in
    /// microseconds. Together with the replay time measured by the
    /// driver, this splits tape cost into "decoding" vs. "seeking".
    pub fn seek_micros(&self) -> u64 {
        self.seek_micros
    }

    /// At least `n` bytes at the read position — fewer only where the file
    /// ends — without consuming them, and whether they are the input's
    /// window. They are whenever it holds `n` bytes, which mapped and
    /// in-memory inputs always do; at the window edge of a buffered file
    /// they are read into `scratch` instead.
    #[inline(always)]
    fn peek(&mut self, n: usize) -> Result<(&[u8], bool), StoreError> {
        if self.input.fill_buf()?.len() >= n {
            return Ok((self.input.fill_buf()?, true));
        }
        self.scratch.clear();
        self.scratch.resize(n, 0);
        let mut got = 0;
        while got < n {
            match self.input.read(&mut self.scratch[got..]) {
                Ok(0) => break,
                Ok(k) => got += k,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
        self.scratch.truncate(got);
        Ok((&self.scratch, false))
    }

    /// Consume `n` bytes of what [`TapeReader::peek`] returned.
    #[inline(always)]
    fn advance(&mut self, n: usize, from_window: bool) -> Result<(), StoreError> {
        self.offset += n as u64;
        if from_window {
            self.input.consume(n);
        } else {
            self.input.seek(SeekFrom::Start(self.offset))?;
        }
        Ok(())
    }

    /// The one frame decoder: the frame head at the read position, through
    /// the input's window, in the FET3 layout or ([`parse_head`]) FET1's;
    /// an element's label id is checked against the label table. (It and
    /// the other per-frame steps are `#[inline(always)]`: an index replay
    /// took 15–20% longer per frame when the compiler chose to call them.)
    #[inline(always)]
    fn read_frame<const FET1: bool>(&mut self) -> Result<Head, StoreError> {
        let at = self.offset;
        let (window, from_window) = self.peek(MAX_HEAD)?;
        let (head, used) = match parse_head::<FET1>(window) {
            Ok(parsed) => parsed,
            Err(i) => return Err(bad_head(at, window, i)),
        };
        self.advance(used, from_window)?;
        match head {
            Head::Elem { id, .. } if id >= self.labels.len() as u64 => {
                let n = self.labels.len();
                corrupt(at, format!("label id {id} out of range ({n} in table)"))
            }
            head => Ok(head),
        }
    }

    /// The rest of an open text frame: the payload, decompressed when it
    /// is stored compressed, and `close_delta` — what an open frame yields:
    /// the label, its id ([`TEXT_NODE`]) and `close_delta`.
    #[inline(never)]
    fn read_text(&mut self, raw_len: u64, enc_len: u64) -> Result<(Label, u32, u32), StoreError> {
        // Bound both lengths before anything is sized by them; the
        // saturating form stays correct for a length near u64::MAX.
        let here = self.offset;
        if enc_len > self.footer_offset.saturating_sub(here) {
            return corrupt(
                here,
                format!("text encoding ({enc_len} bytes) runs past the tape"),
            );
        }
        if raw_len > enc_len.saturating_mul(MAX_EXPANSION) {
            return corrupt(
                here,
                format!("implausible text expansion ({enc_len} encoded bytes claim {raw_len} raw)"),
            );
        }
        if raw_len < enc_len {
            return corrupt(
                here,
                format!("text encoding ({enc_len} bytes) longer than its payload ({raw_len})"),
            );
        }
        let enc = enc_len as usize;
        let (window, from_window) = self.peek(enc + 4)?;
        let Some(delta) = window.get(enc..enc + 4) else {
            return corrupt(here + window.len() as u64, TRUNCATED);
        };
        let close_delta = u32::from_le_bytes(delta.try_into().unwrap());
        let text: Option<Arc<str>> = if enc_len == raw_len {
            std::str::from_utf8(&window[..enc]).ok().map(Arc::from)
        } else {
            let Some(raw) = lz::decompress(&window[..enc], raw_len as usize) else {
                return corrupt(here, "text payload fails to decompress");
            };
            String::from_utf8(raw).ok().map(Arc::from)
        };
        let Some(text) = text else {
            return corrupt(here, "text payload is not UTF-8");
        };
        self.advance(enc + 4, from_window)?;
        Ok((Label::text(text), TEXT_NODE, close_delta))
    }

    /// The top frame's close offset; the footer's when it overflowed.
    #[inline(always)]
    pub(crate) fn close_bound(&self) -> u64 {
        let top = self.stack.last().and_then(|top| top.close_at);
        top.unwrap_or(self.footer_offset)
    }

    /// Depth of the innermost open node (0: none, only the virtual root).
    pub(crate) fn depth(&self) -> u64 {
        self.stack.len().saturating_sub(1) as u64
    }

    pub(crate) fn finished(&self) -> bool {
        self.finished
    }

    /// Open a node whose open frame, carrying label id `id`, started at
    /// `at` and ends at the read position.
    #[inline(always)]
    fn push(&mut self, at: u64, label: Label, id: u32, close_delta: u32) -> Result<(), StoreError> {
        let close_at = if close_delta == DELTA_OVERFLOW {
            if self.index_usable() {
                return corrupt(at, "overflowed close offset on an index-enabled tape");
            }
            None
        } else {
            let close_at = self.offset + u64::from(close_delta);
            if close_at >= self.close_bound() {
                return corrupt(
                    at,
                    format!("close offset {close_at} escapes the enclosing subtree"),
                );
            }
            Some(close_at)
        };
        let mut hash = EventHash::new();
        hash.open(&label);
        self.position += 1;
        let parent = self.stack.last_mut().expect("open after Eof");
        if at != parent.next_at {
            parent.complete = false;
        }
        self.stack.push(Frame {
            label,
            id,
            close_at,
            hash,
            complete: true,
            next_at: self.offset,
            opened_at: self.position,
        });
        Ok(())
    }

    /// What every close is checked for, the `Eof` tag included: where it
    /// sits and the events it counts. Moves the position over `frame`'s
    /// subtree and says whether it was decoded without gaps. `own` is 1
    /// for a node (its own open and close count), 0 for the virtual root.
    #[inline(always)]
    fn settle_count(
        &mut self,
        frame: &Frame,
        at: u64,
        count: u64,
        own: u64,
    ) -> Result<bool, StoreError> {
        if frame.close_at.is_some_and(|close_at| close_at != at) {
            return corrupt(
                at,
                if own == 0 {
                    "Eof frame does not sit at the footer boundary".to_string()
                } else {
                    format!("close frame at {at} is not where its open frame points")
                },
            );
        }
        let gapless = frame.complete && frame.next_at == at;
        let replayed = self.position - frame.opened_at + 2 * own;
        let room = self
            .info
            .events
            .saturating_add(own)
            .saturating_sub(frame.opened_at);
        if count < replayed || count > room || (gapless && count != replayed) {
            return corrupt(
                at,
                if own == 0 {
                    format!("tape replayed {replayed} events, its footer counts {count}")
                } else {
                    format!("close frame counts {count} subtree events, {replayed} replayed")
                },
            );
        }
        self.position = frame.opened_at - own + count;
        Ok(gapless)
    }

    /// Settle the top node at the close frame decoded at `at`, which
    /// stores `count` and (not on FET1) `stored` — the one verification
    /// rule (see [`TapeReader`]).
    #[inline(always)]
    fn settle(&mut self, at: u64, count: u64, stored: Option<u32>) -> Result<XmlEvent, StoreError> {
        if self.stack.len() < 2 {
            return corrupt(at, "close frame without an open node");
        }
        let frame = self.stack.pop().expect("checked");
        let gapless = self.settle_count(&frame, at, count, 1)?;
        let parent = self.stack.last_mut().expect("checked");
        if let Some(stored) = stored {
            let mut hash = frame.hash;
            hash.close();
            if gapless {
                check_hash(stored, hash.trunc32())?;
            }
            parent.hash.child(stored, frame.id, self.key);
        }
        parent.next_at = self.offset;
        Ok(XmlEvent::Close(frame.label))
    }

    /// Settle the virtual root at the `Eof` tag decoded at `at`: the
    /// footer's event count and (when `document` is set) its document hash
    /// stand in for its close.
    fn settle_root(&mut self, at: u64, document: bool) -> Result<XmlEvent, StoreError> {
        let open = self.depth();
        if open > 0 {
            return corrupt(at, format!("tape ended with {open} unclosed node(s)"));
        }
        let root = self.stack.pop().expect("the virtual root");
        let gapless = self.settle_count(&root, at, self.info.events, 0)?;
        self.finished = true;
        if gapless && document {
            let mut found = root.hash;
            found.eof();
            check_hash(self.info.checksum, found.0)?;
        }
        Ok(XmlEvent::Eof)
    }

    /// Pull the next event. After `Eof`, keeps returning `Eof`.
    pub fn next_event(&mut self) -> Result<XmlEvent, StoreError> {
        self.pull::<false>()
    }

    /// [`TapeReader::next_event`] in the FET3 layout or, for migration,
    /// FET1's: its closes carry no hash, and its footer's is the event
    /// stream's, which the caller recomputes.
    #[inline(always)]
    pub(crate) fn pull<const FET1: bool>(&mut self) -> Result<XmlEvent, StoreError> {
        if self.finished {
            return Ok(XmlEvent::Eof);
        }
        let at = self.offset;
        let (label, id, close_delta) = match self.read_frame::<FET1>()? {
            Head::Close { events, hash } => return self.settle(at, events, hash),
            Head::Eof => return self.settle_root(at, !FET1),
            Head::Elem { id, close_delta } => {
                (self.labels[id as usize].clone(), id as u32, close_delta)
            }
            Head::Text { raw_len, enc_len } => self.read_text(raw_len, enc_len)?,
        };
        self.push(at, label, id, close_delta)?;
        Ok(XmlEvent::Open(self.top_label()))
    }

    /// The innermost open node's label.
    pub(crate) fn top_label(&self) -> Label {
        self.stack.last().expect("open node").label.clone()
    }

    /// Move the read position forward to `to` without decoding what lies
    /// between; returns the bytes passed over.
    #[inline(always)]
    pub(crate) fn jump(&mut self, to: u64) -> Result<u64, StoreError> {
        if to < self.offset {
            return corrupt(to, format!("frame offset {to} behind the read position"));
        }
        let bytes = to - self.offset;
        if bytes > 0 {
            self.input.seek(SeekFrom::Start(to))?;
            self.offset = to;
        }
        Ok(bytes)
    }

    /// Settle the top frame at the frame under the read position, which
    /// must be its close (the `Eof` tag for the virtual root).
    #[inline(always)]
    pub(crate) fn close_top(&mut self) -> Result<XmlEvent, StoreError> {
        let at = self.offset;
        match self.read_frame::<false>()? {
            Head::Close { events, hash } => self.settle(at, events, hash),
            Head::Eof => self.settle_root(at, true),
            _ => corrupt(at, "close offset points at an open frame"),
        }
    }

    /// For the skip index: open the frame under the read position, which
    /// must be an open of label id `elem_id` (a text when `None`). A node
    /// `keep` accepts is opened, and the answer is whether it was; one it
    /// rejects is a gap in its parent.
    #[inline(always)]
    pub(crate) fn open_posting(
        &mut self,
        elem_id: Option<u64>,
        keep: impl FnOnce(&Label) -> bool,
    ) -> Result<bool, StoreError> {
        let at = self.offset;
        let (label, id, close_delta) = match (self.read_frame::<false>()?, elem_id) {
            (Head::Elem { id, close_delta }, Some(want)) if id == want => {
                (self.labels[id as usize].clone(), id as u32, close_delta)
            }
            (Head::Text { raw_len, enc_len }, None) => self.read_text(raw_len, enc_len)?,
            _ => {
                let msg = format!("posting for label id {elem_id:?} points at another frame");
                return corrupt(at, msg);
            }
        };
        if !keep(&label) {
            self.stack.last_mut().expect("open after Eof").complete = false;
            return Ok(false);
        }
        self.push(at, label, id, close_delta)?;
        Ok(true)
    }

    /// One posting list's bytes, read without moving the read position and
    /// checked against the list's hash.
    pub(crate) fn posting_bytes(&mut self, dir: PostingDirEntry) -> Result<Vec<u8>, StoreError> {
        let mut bytes = vec![0u8; dir.bytes as usize];
        self.input.seek(SeekFrom::Start(dir.offset))?;
        read_exact_at(&mut self.input, &mut bytes, &mut { dir.offset })?;
        self.input.seek(SeekFrom::Start(self.offset))?;
        check_hash(dir.hash, EventHash::of_list(&bytes))?;
        Ok(bytes)
    }

    /// [`EventSource::skip_subtree`] for a tape, which also says how many
    /// bytes that saved: consume the innermost open subtree through its
    /// close frame. Where its close offset is recorded that is a seek and
    /// the frames in between are never decoded; an open whose close offset
    /// overflowed its field is decoded through instead.
    ///
    /// The skipped subtree is settled like any other close, as one that
    /// had gaps: its hash is not checked, its count must lie between what
    /// was replayed and what is left of the tape, and its stored hash is
    /// folded into the parent, keyed by its open frame's label id — so
    /// verification of everything *around* the skip, the footer's document
    /// hash at `Eof` included, survives, an enclosing close checks the
    /// count exactly, and a label id damaged into a different skip decision
    /// fails there. Panics when no node is open.
    pub fn skip_subtree(&mut self) -> Result<SkippedSubtree, StoreError> {
        assert!(self.depth() > 0, "skip_subtree outside any open subtree");
        let before = self.position;
        let Some(close_at) = self.stack.last().and_then(|top| top.close_at) else {
            let depth = self.stack.len();
            while self.stack.len() >= depth && self.next_event()? != XmlEvent::Eof {}
            return Ok(SkippedSubtree {
                events: self.position - before,
                bytes: 0,
            });
        };
        let start = std::time::Instant::now();
        self.stack.last_mut().expect("checked non-empty").complete = false;
        let bytes = self.jump(close_at)?;
        self.close_top()?;
        self.seek_skipped_bytes += bytes;
        self.seek_micros += start.elapsed().as_micros().min(u64::MAX as u128) as u64;
        Ok(SkippedSubtree {
            events: self.position - before,
            bytes,
        })
    }
}

impl<R: BufRead + Seek> EventSource for TapeReader<R> {
    fn next_event(&mut self) -> Result<XmlEvent, XmlError> {
        TapeReader::next_event(self).map_err(StoreError::into_xml)
    }

    fn events_read(&self) -> u64 {
        TapeReader::events_read(self)
    }

    fn skip_subtree(&mut self) -> Result<u64, XmlError> {
        match TapeReader::skip_subtree(self) {
            Ok(skipped) => Ok(skipped.events),
            Err(e) => Err(e.into_xml()),
        }
    }
}

// ---------------------------------------------------------------------------
// Low-level read helpers
// ---------------------------------------------------------------------------

/// `read_exact` of the bytes at `at`, advancing it, that reports
/// truncation as [`StoreError::Corrupt`] there (a tape that ends mid-frame
/// is corrupt, not "EOF").
pub(crate) fn read_exact_at<R: Read>(
    input: &mut R,
    buf: &mut [u8],
    at: &mut u64,
) -> Result<(), StoreError> {
    input.read_exact(buf).map_err(|e| match e.kind() {
        std::io::ErrorKind::UnexpectedEof => StoreError::Corrupt {
            offset: *at,
            msg: TRUNCATED.into(),
        },
        _ => StoreError::Io(e),
    })?;
    *at += buf.len() as u64;
    Ok(())
}

/// LEB128 decode, advancing `at` by the bytes consumed.
pub(crate) fn read_varint<R: Read>(input: &mut R, at: &mut u64) -> Result<u64, StoreError> {
    let mut value = 0u64;
    let mut shift = 0u32;
    loop {
        let mut b = [0u8];
        read_exact_at(input, &mut b, at)?;
        let b = b[0];
        if shift >= 63 && b > 1 {
            return Err(StoreError::Corrupt {
                offset: *at,
                msg: "varint overflows u64".into(),
            });
        }
        value |= u64::from(b & 0x7F) << shift;
        if b & 0x80 == 0 {
            return Ok(value);
        }
        shift += 7;
        if shift > 63 {
            return Err(StoreError::Corrupt {
                offset: *at,
                msg: "varint longer than 10 bytes".into(),
            });
        }
    }
}

/// Decode one varint from a byte slice at `i`, advancing it. The slice
/// counterpart of [`read_varint`] for posting-list decoding.
pub(crate) fn slice_varint(bytes: &[u8], i: &mut usize) -> Option<u64> {
    let mut value = 0u64;
    let mut shift = 0u32;
    loop {
        let b = *bytes.get(*i)?;
        *i += 1;
        if shift >= 63 && b > 1 {
            return None;
        }
        value |= u64::from(b & 0x7F) << shift;
        if b & 0x80 == 0 {
            return Some(value);
        }
        shift += 7;
        if shift > 63 {
            return None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn tape_of(xml: &str) -> (Vec<u8>, TapeInfo) {
        let (out, info, _src) =
            ingest_xml_to_tape(xml.as_bytes(), Cursor::new(Vec::new())).unwrap();
        (out.into_inner(), info)
    }

    fn replay(bytes: Vec<u8>) -> Vec<XmlEvent> {
        let mut r = TapeReader::new(Cursor::new(bytes)).unwrap();
        let mut out = Vec::new();
        loop {
            let ev = r.next_event().unwrap();
            let done = ev == XmlEvent::Eof;
            out.push(ev);
            if done {
                return out;
            }
        }
    }

    fn parse_events(xml: &str) -> Vec<XmlEvent> {
        let mut r = XmlReader::new(xml.as_bytes());
        let mut out = Vec::new();
        loop {
            let ev = r.next_event().unwrap();
            let done = ev == XmlEvent::Eof;
            out.push(ev);
            if done {
                return out;
            }
        }
    }

    #[test]
    fn roundtrip_equals_direct_parse() {
        let xml = r#"<site><a x="1">hi &amp; ho</a><b/><c><d>deep</d></c></site>"#;
        assert_eq!(replay(tape_of(xml).0), parse_events(xml));
    }

    #[test]
    fn long_repetitive_text_is_stored_compressed_and_replays_exactly() {
        let text = "north north-east east south-east south ".repeat(60);
        let xml = format!("<a><b>{text}</b><c>{text}</c></a>");
        let (bytes, info) = tape_of(&xml);
        assert_eq!(info.raw_text_bytes, 2 * text.len() as u64);
        assert!(
            info.enc_text_bytes * 3 < info.raw_text_bytes,
            "repetitive text should compress ≥3×: raw {} enc {}",
            info.raw_text_bytes,
            info.enc_text_bytes
        );
        assert_eq!(replay(bytes), parse_events(&xml));
    }

    #[test]
    fn info_reports_footer_facts() {
        let (bytes, info) = tape_of("<a><b>t</b><b>u</b></a>");
        assert_eq!(info.events, 10); // a, b, "t", b, "u": 5 opens + 5 closes
        let r = TapeReader::new(Cursor::new(bytes)).unwrap();
        assert_eq!(r.info(), &info);
        assert_eq!(info.label_count, 2); // a, b interned once each
        assert_eq!(info.max_depth, 3); // a > b > text
        assert!(info.tape_bytes > 0);
        assert_eq!(info.version, VERSION);
        assert_eq!(info.flags, 0);
        assert_eq!(info.postings, 5); // one posting per open frame
        assert!(info.index_bytes > 0);
        // Directory: element lists for a (1 posting) and b (2), then text
        // buckets by parent — root (0), under a (0), under b (2).
        let dir = r.posting_dir();
        assert_eq!(dir.len(), 5);
        assert_eq!(dir[0].count, 1);
        assert_eq!(dir[1].count, 2);
        assert_eq!(dir[2].count, 0);
        assert_eq!(dir[3].count, 0);
        assert_eq!(dir[4].count, 2);
        assert!(r.index_usable());
    }

    #[test]
    fn older_tapes_need_migration_and_open_only_to_migrate() {
        for (bytes, version) in [
            (
                &include_bytes!("../../../tests/fixtures/old-fet1.fet")[..],
                1,
            ),
            (
                &include_bytes!("../../../tests/fixtures/old-fet2.fet")[..],
                2,
            ),
        ] {
            match TapeReader::new(Cursor::new(bytes)) {
                Err(e @ StoreError::NeedsMigration { .. }) => {
                    assert!(matches!(e, StoreError::NeedsMigration { version: v } if v == version));
                    assert!(e.to_string().contains("foxq store migrate --dir"), "{e}");
                }
                other => panic!("FET{version}: {:?}", other.map(|_| "a reader")),
            }
            let r = TapeReader::open(Cursor::new(bytes), true).unwrap();
            assert_eq!(r.info().version, version);
        }
    }

    #[test]
    fn damage_to_the_footer_fails_at_open_and_to_a_list_when_it_is_loaded() {
        let (bytes, info) = tape_of("<a><b>t</b><b>u</b></a>");
        let footer_offset = (TAPE_START + info.tape_bytes) as usize;
        // The label table's first name: "a" becomes "c".
        let mut renamed = bytes.clone();
        assert_eq!(renamed[footer_offset + 2], b'a');
        renamed[footer_offset + 2] = b'c';
        assert!(matches!(
            TapeReader::new(Cursor::new(renamed)),
            Err(StoreError::Checksum { .. })
        ));
        // <b>'s posting list body: the tape opens, the list fails to load.
        let dir = TapeReader::new(Cursor::new(&bytes)).unwrap().posting_dir()[1];
        let mut moved = bytes.clone();
        moved[dir.offset as usize] ^= 0x01;
        let mut r = TapeReader::new(Cursor::new(moved)).unwrap();
        assert!(matches!(
            r.posting_bytes(dir),
            Err(StoreError::Checksum { .. })
        ));
        // Nothing may follow the footer.
        let mut longer = bytes;
        longer.push(0);
        assert!(matches!(
            TapeReader::new(Cursor::new(longer)),
            Err(StoreError::Corrupt { .. })
        ));
    }

    #[test]
    fn a_seek_decided_on_a_damaged_label_id_fails_at_the_parents_close() {
        // <r>: 13..19, <a>: 19..25, <x>: 25..31, ...; ids r = 0, a = 1.
        let (mut bytes, _) = tape_of("<r><a><x/></a><b/></r>");
        assert_eq!(bytes[19..21], [TAG_OPEN_ELEM, 1]);
        bytes[20] = 3; // <a> now reads as <b>
        let mut r = TapeReader::new(Cursor::new(bytes)).unwrap();
        assert_eq!(r.next_event().unwrap(), XmlEvent::Open(Label::elem("r")));
        assert_eq!(r.next_event().unwrap(), XmlEvent::Open(Label::elem("b")));
        r.skip_subtree().unwrap();
        assert_eq!(r.next_event().unwrap(), XmlEvent::Open(Label::elem("b")));
        assert_eq!(r.next_event().unwrap(), XmlEvent::Close(Label::elem("b")));
        assert!(matches!(r.next_event(), Err(StoreError::Checksum { .. })));
    }

    #[test]
    fn skip_subtree_jumps_to_the_close() {
        let xml = "<r><junk><x>1</x><y>2</y></junk><keep>3</keep></r>";
        // By a seek — or, had the close offset overflowed its field, by
        // decoding; through the trait it is the same operation.
        for ((bytes, _), seeks) in [(tape_of(xml), true), (tape_of(xml), false)] {
            let mut r = TapeReader::new(Cursor::new(bytes)).unwrap();
            assert_eq!(r.next_event().unwrap(), XmlEvent::Open(Label::elem("r")));
            assert_eq!(r.next_event().unwrap(), XmlEvent::Open(Label::elem("junk")));
            let skipped = if seeks {
                r.skip_subtree().unwrap()
            } else {
                r.stack.last_mut().unwrap().close_at = None;
                let events = EventSource::skip_subtree(&mut r).unwrap();
                SkippedSubtree { events, bytes: 0 }
            };
            // x + "1" + y + "2", opens and closes, and the close of junk.
            assert_eq!(skipped.events, 9);
            assert_eq!(r.events_read(), 11);
            assert_eq!(skipped.bytes > 0, seeks);
            assert_eq!(r.seek_skipped_bytes(), skipped.bytes);
            // The replay resumes exactly after </junk>.
            assert_eq!(r.next_event().unwrap(), XmlEvent::Open(Label::elem("keep")));
            assert_eq!(r.next_event().unwrap(), XmlEvent::Open(Label::text("3")));
            assert_eq!(r.next_event().unwrap(), XmlEvent::Close(Label::text("3")));
            assert_eq!(
                r.next_event().unwrap(),
                XmlEvent::Close(Label::elem("keep"))
            );
            assert_eq!(r.next_event().unwrap(), XmlEvent::Close(Label::elem("r")));
            assert_eq!(r.next_event().unwrap(), XmlEvent::Eof);
            assert_eq!(r.next_event().unwrap(), XmlEvent::Eof); // sticky
        }
    }

    #[test]
    fn corrupt_magic_is_rejected() {
        let (mut bytes, _) = tape_of("<a/>");
        bytes[0] = b'X';
        assert!(matches!(
            TapeReader::new(Cursor::new(bytes)),
            Err(StoreError::Corrupt { offset: 0, .. })
        ));
    }

    #[test]
    fn flipped_text_byte_fails_at_the_nodes_close() {
        // Detected locally, at the corrupted node's close frame — long
        // before Eof. ("checksum-me" is < 16 bytes, so it is stored raw and
        // the flip corrupts content, not the compression framing.)
        let (mut bytes, _) = tape_of("<a>checksum-me<b>fine</b></a>");
        let pos = bytes
            .windows(b"checksum-me".len())
            .position(|w| w == b"checksum-me")
            .unwrap();
        bytes[pos] ^= 0x20;
        let mut r = TapeReader::new(Cursor::new(bytes)).unwrap();
        assert_eq!(r.next_event().unwrap(), XmlEvent::Open(Label::elem("a")));
        assert!(matches!(
            r.next_event(),
            Ok(XmlEvent::Open(l)) if l.is_text()
        ));
        // The very next event is the text node's close: mismatch here.
        assert!(matches!(r.next_event(), Err(StoreError::Checksum { .. })));
    }

    #[test]
    fn truncated_tape_is_corrupt() {
        let (bytes, _) = tape_of("<a><b>some text here</b></a>");
        let cut = bytes.len() / 2;
        match TapeReader::new(Cursor::new(bytes[..cut].to_vec())) {
            // Either the footer offset now points outside the file (header
            // check) or the footer read hits EOF — both are Corrupt.
            Err(StoreError::Corrupt { .. }) => {}
            other => panic!("expected Corrupt, got {:?}", other.map(|_| "reader")),
        }
    }

    #[test]
    fn writer_backpatches_across_the_flush_boundary() {
        // A root holding enough children to overflow the write buffer: its
        // close_delta must be patched with a seek, and the replay must
        // still be exact.
        let n = 40_000; // ~ (tag+id+4)·2·n bytes ≫ WRITE_BUF_CAP
        let mut xml = String::from("<r>");
        for i in 0..n {
            xml.push_str(&format!("<c>{i}</c>"));
        }
        xml.push_str("</r>");
        let (out, info, _) = ingest_xml_to_tape(xml.as_bytes(), Cursor::new(Vec::new())).unwrap();
        assert_eq!(info.events, (2 * n as u64 + 1) * 2);
        let bytes = out.into_inner();
        let mut r = TapeReader::new(Cursor::new(bytes)).unwrap();
        assert_eq!(r.next_event().unwrap(), XmlEvent::Open(Label::elem("r")));
        let skipped = r.skip_subtree().unwrap();
        assert!(skipped.bytes > 0, "root close offset not backpatched");
        assert_eq!(skipped.events, info.events - 1);
        // The skip folded the root's stored hash, so Eof still verifies
        // the document hash.
        assert_eq!(r.next_event().unwrap(), XmlEvent::Eof);
    }

    #[test]
    fn text_children_set_the_index_disabling_flag() {
        // XML cannot nest under a text node, but hand-built forests can;
        // such tapes must opt out of the index path.
        let mut w = TapeWriter::new(Cursor::new(Vec::new())).unwrap();
        w.open(&Label::text("parent")).unwrap();
        w.open(&Label::elem("child")).unwrap();
        w.close().unwrap();
        w.close().unwrap();
        let (out, info) = w.finish().unwrap();
        assert_eq!(info.flags & FLAG_TEXT_CHILDREN, FLAG_TEXT_CHILDREN);
        let r = TapeReader::new(Cursor::new(out.into_inner())).unwrap();
        assert!(!r.index_usable());
    }

    /// A tape of one hand-made text frame (`raw_len`, `enc_len`, then
    /// `rest`) at the root, with a footer sealed as the writer seals one:
    /// no labels, the text's posting in the root bucket, the footer hash.
    fn hand_built(raw_len: u64, enc_len: u64, rest: &[u8]) -> Vec<u8> {
        let mut tape = MAGIC.to_vec();
        tape.push(VERSION);
        tape.extend_from_slice(&[0; 8]);
        tape.push(TAG_OPEN_TEXT);
        push_varint(&mut tape, raw_len);
        push_varint(&mut tape, enc_len);
        tape.extend_from_slice(rest);
        tape.push(TAG_EOF);
        let footer_offset = tape.len();
        tape[5..13].copy_from_slice(&(footer_offset as u64).to_le_bytes());
        let list = [0, 1, 0]; // offset delta 0, depth 1, at the root
                              // No labels, 2 events, depth 1, no flags; the list's directory
                              // entry.
        tape.extend_from_slice(&[0, 2, 1, 0, 1, list.len() as u8]);
        tape.extend_from_slice(&EventHash::of_list(&list).to_le_bytes());
        let mut covered = EventHash::new();
        covered.bytes(&tape[footer_offset..]);
        tape.extend_from_slice(&list);
        let from = tape.len();
        push_varint(&mut tape, raw_len.min(1 << 40)); // raw_text_bytes
        push_varint(&mut tape, enc_len.min(1 << 40)); // enc_text_bytes
        tape.extend_from_slice(&0u64.to_le_bytes()); // document checksum
        covered.bytes(&tape[from..]);
        tape.extend_from_slice(&covered.0.to_le_bytes());
        tape
    }

    #[test]
    fn huge_text_length_varint_is_corrupt_not_a_panic() {
        // A text frame claiming an encoding of u64::MAX bytes: the bounds
        // check must not wrap into accepting it (release builds would then
        // die on a capacity-overflow alloc).
        let mut r = TapeReader::new(Cursor::new(hand_built(u64::MAX, u64::MAX, &[]))).unwrap();
        assert!(matches!(r.next_event(), Err(StoreError::Corrupt { .. })));
    }

    #[test]
    fn huge_raw_len_on_a_tiny_encoding_is_corrupt_not_an_alloc() {
        // A text frame claiming a terabyte raw length for a few encoded
        // bytes must be rejected by the expansion bound before allocating
        // anything.
        let evil = hand_built(1 << 40, 4, b"abcd\0\0\0\0");
        let mut r = TapeReader::new(Cursor::new(evil)).unwrap();
        match r.next_event() {
            Err(StoreError::Corrupt { msg, .. }) => {
                assert!(msg.contains("expansion"), "wrong rejection: {msg}")
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn varint_roundtrip() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            push_varint(&mut buf, v);
            let mut at = 0u64;
            assert_eq!(read_varint(&mut &buf[..], &mut at).unwrap(), v);
            assert_eq!(at, buf.len() as u64);
            let mut i = 0usize;
            assert_eq!(slice_varint(&buf, &mut i), Some(v));
            assert_eq!(i, buf.len());
        }
        assert_eq!(slice_varint(&[0x80], &mut 0), None); // truncated
    }
}
