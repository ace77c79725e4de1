//! The FET tape: writer and reader.
//!
//! See the crate-level docs for the byte layouts (FET2, and the legacy
//! FET1 this crate still reads). Everything here is plain `std` I/O: the
//! writer needs `Write + Seek` (close offsets are backpatched), the reader
//! needs `BufRead + Seek` (the label table lives in the footer, and
//! skipping is a forward seek). File-opened readers sit on a
//! [`crate::TapeInput`] — a memory map when the platform grants one.

use crate::lz;
use crate::mmap::TapeInput;
use foxq_forest::{FxHashMap, Label};
use foxq_xml::{EventSource, XmlError, XmlEvent, XmlReader};
use std::io::{BufRead, Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::Arc;

/// File magic of the legacy format, offset 0.
pub const MAGIC_V1: [u8; 4] = *b"FET1";
/// File magic of the current format, offset 0.
pub const MAGIC: [u8; 4] = *b"FET2";
/// Legacy format version (readable, writable via [`TapeWriter::new_v1`]).
pub const VERSION_V1: u8 = 1;
/// Format version this crate writes by default.
pub const VERSION: u8 = 2;
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

/// FET2 footer flag: some node's parent is a text node (hand-built
/// forests only; XML cannot produce this). The skip index assumes element
/// parents, so the index-driven read path is disabled.
pub const FLAG_TEXT_CHILDREN: u8 = 0x01;
/// FET2 footer flag: some `close_delta` overflowed the u32 sentinel, so
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

/// Text nodes have no interned label id; this sentinel marks them on the
/// writer's open stack.
const TEXT_NODE: u64 = u64::MAX;

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
    /// A recomputed checksum did not match the stored one — the footer's
    /// document hash on a v1 full replay, a close frame's subtree hash on
    /// a v2 read.
    Checksum { expected: u64, found: u64 },
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

/// FNV-1a 64 over event bytes (see the crate docs).
///
/// FET1 folds the whole logical event stream into one running hash. FET2
/// hashes *compositionally*: each node gets a fresh hash seeded with its
/// open event, children fold their truncated hash into the parent as they
/// close, and the footer checksum folds the roots — so a seeking reader
/// can verify exactly the subtrees it decoded.
#[derive(Debug, Clone, Copy)]
pub(crate) struct EventHash(pub(crate) u64);

impl EventHash {
    pub(crate) fn new() -> Self {
        EventHash(0xcbf2_9ce4_8422_2325)
    }

    fn byte(&mut self, b: u8) {
        self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
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

    /// The low 32 bits — what a v2 close frame stores for its subtree.
    pub(crate) fn trunc32(&self) -> u32 {
        self.0 as u32
    }

    /// Fold a child subtree's stored hash (v2 compositional step).
    pub(crate) fn child(&mut self, trunc: u32) {
        self.bytes(&trunc.to_le_bytes());
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
    /// Format version (1 or 2).
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
    /// Document checksum (v1: FNV-1a 64 of the event stream; v2: FNV-1a 64
    /// folding the roots' subtree hashes).
    pub checksum: u64,
    /// FET2 footer flags ([`FLAG_TEXT_CHILDREN`], [`FLAG_DELTA_OVERFLOW`]);
    /// 0 on v1 tapes.
    pub flags: u8,
    /// Total text payload bytes before compression (v2; 0 on v1).
    pub raw_text_bytes: u64,
    /// Total text payload bytes as stored (v2; 0 on v1).
    pub enc_text_bytes: u64,
    /// Bytes of the footer's skip-index section (v2; 0 on v1).
    pub index_bytes: u64,
    /// Total posting entries across all skip-index lists (v2; 0 on v1).
    pub postings: u64,
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// One not-yet-closed node: where its `close_delta` placeholder sits, the
/// event counter when it opened, and (v2) its compositional hash and
/// label id ([`TEXT_NODE`] for texts).
struct PendingOpen {
    patch_at: u64,
    events_at_open: u64,
    hash: EventHash,
    label_id: u64,
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
/// then call [`TapeWriter::finish`]. [`TapeWriter::new`] writes FET2;
/// [`TapeWriter::new_v1`] writes the legacy format (migration tests,
/// baseline benches).
pub struct TapeWriter<W: Write + Seek> {
    out: W,
    version: u8,
    /// Bytes already written to `out`; `out`'s cursor sits there between
    /// calls.
    flushed: u64,
    /// Unwritten tail of the tape. Backpatches landing here are applied in
    /// memory.
    buf: Vec<u8>,
    stack: Vec<PendingOpen>,
    label_ids: FxHashMap<Arc<str>, u64>,
    label_names: Vec<Arc<str>>,
    /// Per-element-label posting lists, parallel to `label_names` (v2).
    elem_postings: Vec<PostingList>,
    /// Text open frames, partitioned by parent: bucket `p` holds the
    /// texts whose `parent_plus1` is `p` (bucket 0 = forest-root texts).
    /// Partitioning by parent makes the reader's projection exact — a
    /// query selects only the buckets under matched parents instead of
    /// decode-and-discarding every text posting in the document (v2).
    text_postings: Vec<PostingList>,
    events: u64,
    max_depth: usize,
    /// v1: running stream hash. v2: document hash folding root subtrees.
    hash: EventHash,
    flags: u8,
    raw_text_bytes: u64,
    enc_text_bytes: u64,
    enc_scratch: Vec<u8>,
    /// Backpatches that had to seek (telemetry for tests/benches).
    seek_patches: u64,
}

impl<W: Write + Seek> TapeWriter<W> {
    /// Start a FET2 tape on `out` (the header is written immediately).
    pub fn new(out: W) -> Result<Self, StoreError> {
        Self::with_version(out, VERSION)
    }

    /// Start a legacy FET1 tape on `out`.
    pub fn new_v1(out: W) -> Result<Self, StoreError> {
        Self::with_version(out, VERSION_V1)
    }

    fn with_version(mut out: W, version: u8) -> Result<Self, StoreError> {
        out.write_all(if version == VERSION_V1 {
            &MAGIC_V1
        } else {
            &MAGIC
        })?;
        out.write_all(&[version])?;
        out.write_all(&0u64.to_le_bytes())?; // footer_offset placeholder
        Ok(TapeWriter {
            out,
            version,
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
            seek_patches: 0,
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
            self.seek_patches += 1;
            self.out.seek(SeekFrom::Start(at))?;
            self.out.write_all(&bytes)?;
            self.out.seek(SeekFrom::Start(self.flushed))?;
        }
        Ok(())
    }

    fn intern(&mut self, name: &Arc<str>) -> u64 {
        if let Some(&id) = self.label_ids.get(name) {
            return id;
        }
        let id = self.label_names.len() as u64;
        self.label_ids.insert(name.clone(), id);
        self.label_names.push(name.clone());
        if self.version != VERSION_V1 {
            self.elem_postings.push(PostingList::new());
        }
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
            Some(p) => p.label_id + 1,
        };
        let mut node_hash = EventHash::new();
        if self.version == VERSION_V1 {
            self.hash.open(label);
        } else {
            node_hash.open(label);
        }
        let label_id = if label.is_text() {
            let raw = label.name.as_bytes();
            self.buf.push(TAG_OPEN_TEXT);
            push_varint(&mut self.buf, raw.len() as u64);
            if self.version == VERSION_V1 {
                self.buf.extend_from_slice(raw);
            } else {
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
            }
            TEXT_NODE
        } else {
            let id = self.intern(&label.name);
            if self.version != VERSION_V1 {
                self.elem_postings[id as usize].push(frame_at, depth, parent_plus1);
            }
            self.buf.push(TAG_OPEN_ELEM);
            push_varint(&mut self.buf, id);
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
        if self.version == VERSION_V1 {
            self.hash.close();
        } else {
            let mut h = open.hash;
            h.close();
            let trunc = h.trunc32();
            self.buf.extend_from_slice(&trunc.to_le_bytes());
            match self.stack.last_mut() {
                Some(parent) => parent.hash.child(trunc),
                None => self.hash.child(trunc),
            }
        }
        if self.buf.len() >= WRITE_BUF_CAP {
            self.flush_buf()?;
        }
        Ok(())
    }

    /// Open/close events recorded so far.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Backpatches that fell outside the write buffer and cost a seek.
    pub fn seek_patches(&self) -> u64 {
        self.seek_patches
    }

    /// Write the `Eof` frame and the footer, backpatch the header, and
    /// return the underlying writer (cursor at end of file) plus the tape
    /// facts.
    pub fn finish(mut self) -> Result<(W, TapeInfo), StoreError> {
        assert!(self.stack.is_empty(), "finish with unclosed nodes");
        self.buf.push(TAG_EOF);
        self.hash.eof();
        let footer_offset = self.pos();
        push_varint(&mut self.buf, self.label_names.len() as u64);
        for name in &self.label_names {
            push_varint(&mut self.buf, name.len() as u64);
            self.buf.extend_from_slice(name.as_bytes());
        }
        push_varint(&mut self.buf, self.events);
        push_varint(&mut self.buf, self.max_depth as u64);
        let mut index_bytes = 0u64;
        let mut postings = 0u64;
        if self.version != VERSION_V1 {
            self.buf.push(self.flags);
            let index_start = self.pos();
            let lists = std::mem::take(&mut self.elem_postings);
            // Text buckets cover every possible parent_plus1 (0 = forest
            // root, then one per element label), empty or not, so the
            // reader's directory is position-addressable.
            let mut texts = std::mem::take(&mut self.text_postings);
            texts.resize_with(self.label_names.len() + 1, PostingList::new);
            for list in lists.iter().chain(texts.iter()) {
                push_varint(&mut self.buf, list.count);
                push_varint(&mut self.buf, list.bytes.len() as u64);
                self.buf.extend_from_slice(&list.bytes);
                postings += list.count;
            }
            index_bytes = self.pos() - index_start;
            push_varint(&mut self.buf, self.raw_text_bytes);
            push_varint(&mut self.buf, self.enc_text_bytes);
        }
        self.buf.extend_from_slice(&self.hash.0.to_le_bytes());
        self.flush_buf()?;
        self.out.seek(SeekFrom::Start(FOOTER_OFFSET_AT))?;
        self.out.write_all(&footer_offset.to_le_bytes())?;
        self.out.seek(SeekFrom::Start(self.flushed))?;
        self.out.flush()?;
        Ok((
            self.out,
            TapeInfo {
                version: self.version,
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

/// Parse XML and write it to a FET2 tape in one streaming pass. Returns
/// the tape facts and the number of XML source bytes consumed.
pub fn ingest_xml_to_tape<R: Read, W: Write + Seek>(
    xml: R,
    out: W,
) -> Result<(W, TapeInfo, u64), StoreError> {
    ingest_with(xml, TapeWriter::new(out)?)
}

/// Like [`ingest_xml_to_tape`] but writing the legacy FET1 format — the
/// migration-equivalence and perf-baseline counterpart.
pub fn ingest_xml_to_tape_v1<R: Read, W: Write + Seek>(
    xml: R,
    out: W,
) -> Result<(W, TapeInfo, u64), StoreError> {
    ingest_with(xml, TapeWriter::new_v1(out)?)
}

fn ingest_with<R: Read, W: Write + Seek>(
    xml: R,
    mut writer: TapeWriter<W>,
) -> Result<(W, TapeInfo, u64), StoreError> {
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

/// Location of one posting list inside a FET2 footer.
#[derive(Debug, Clone, Copy)]
pub struct PostingDirEntry {
    /// Number of posting entries in the list.
    pub count: u64,
    /// Absolute file offset of the list's first posting byte.
    pub offset: u64,
    /// Encoded length of the list in bytes.
    pub bytes: u64,
}

/// Longest frame head: a tag and two 10-byte varints (an open text's
/// lengths), or a tag, a varint and a 4-byte field.
const MAX_HEAD: usize = 21;

const TRUNCATED: &str = "tape truncated mid-frame";

/// A frame's fixed part, as [`parse_head`] reads it.
enum Head {
    Elem {
        id: u64,
        close_delta: u32,
    },
    /// The payload and the `close_delta` follow.
    Text {
        raw_len: u64,
        enc_len: u64,
    },
    Close {
        events: u64,
        hash: Option<u32>,
    },
    Eof,
}

/// Parse the frame head at the start of `b`: the head and its length, or
/// the index in `b` where it fails ([`bad_head`] says why). The one place
/// a frame tag is read. FET1's two differences from FET2 live here: its
/// text is stored raw (it reads as `enc_len = raw_len`), and its closes
/// carry no hash.
#[inline(always)]
fn parse_head(b: &[u8], v1: bool) -> Result<(Head, usize), usize> {
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
            let enc_len = if v1 {
                raw_len
            } else {
                slice_varint(b, &mut i).ok_or(i)?
            };
            Head::Text { raw_len, enc_len }
        }
        TAG_CLOSE => Head::Close {
            events: slice_varint(b, &mut i).ok_or(i)?,
            hash: if v1 { None } else { Some(field(&mut i)?) },
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

/// One frame, decoded at the read position.
enum Decoded {
    /// An element's open frame: its label id (checked against the label
    /// table) and `close_delta`.
    Elem {
        id: u64,
        close_delta: u32,
    },
    /// A text's open frame: its content and `close_delta`.
    Text {
        text: Arc<str>,
        close_delta: u32,
    },
    /// `subtree_events` and (FET2) `subtree_hash`.
    Close {
        events: u64,
        hash: Option<u32>,
    },
    Eof,
}

/// One open node on the reader's frame stack. `stack[0]` is a virtual
/// document root whose close frame is the `Eof` tag, so roots need no
/// special case; a node's depth is its index.
struct Frame {
    label: Label,
    /// Offset of the close frame's tag; `None` when `close_delta`
    /// overflowed.
    close_at: Option<u64>,
    /// FET2 compositional hash of what was decoded so far.
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
/// stored hash is folded into the parent. `Eof` is the virtual root's
/// close, checked against the footer's event count and document hash. A
/// skipped child is no gap — its stored hash stands in for it — so on FET2
/// every decoded subtree is verified, seeks included. FET1 has one stream
/// hash, which the first seek forfeits.
pub struct TapeReader<R> {
    input: R,
    /// Absolute offset of the next unread byte.
    offset: u64,
    pub(crate) footer_offset: u64,
    labels: Vec<Label>,
    info: TapeInfo,
    /// FET2 skip index: one entry per element label (label-id order), then
    /// the text-node list. Empty on v1 tapes.
    postings_dir: Vec<PostingDirEntry>,
    stack: Vec<Frame>,
    /// Open/close events of the tape behind the read position: the ones
    /// returned, plus each closed subtree's stored count for what was not.
    position: u64,
    seek_skipped_bytes: u64,
    seek_micros: u64,
    /// FET1's single stream hash; the first seek clears it (a partial FET1
    /// replay cannot checksum). `None` on FET2.
    stream: Option<EventHash>,
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
    /// Validate the header, load the footer (label table, counts, skip
    /// index directory, checksum), and position the reader at the first
    /// frame.
    pub fn new(mut input: R) -> Result<Self, StoreError> {
        let file_bytes = input.seek(SeekFrom::End(0))?;
        input.seek(SeekFrom::Start(0))?;
        let mut head = [0u8; 13];
        read_exact_at(&mut input, &mut head, 0)?;
        let version = if head[..4] == MAGIC_V1 {
            VERSION_V1
        } else if head[..4] == MAGIC {
            VERSION
        } else {
            return corrupt(0, "bad magic (not a FET tape)");
        };
        if head[4] != version {
            let magic = if version == VERSION_V1 {
                "FET1"
            } else {
                "FET2"
            };
            return corrupt(
                4,
                format!("version byte {} contradicts the {magic} magic", head[4]),
            );
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
        let mut at = footer_offset;
        let label_count = read_varint(&mut input, &mut at)?;
        // Every entry takes at least a byte: a count the footer cannot
        // hold must not size an allocation.
        if label_count > MAX_LABELS || label_count > file_bytes - at {
            return corrupt(at, format!("implausible label count {label_count}"));
        }
        let mut labels = Vec::with_capacity(label_count as usize);
        for _ in 0..label_count {
            let len = read_varint(&mut input, &mut at)?;
            if len > MAX_NAME_LEN {
                return corrupt(at, format!("implausible label length {len}"));
            }
            let mut name = vec![0u8; len as usize];
            read_exact_at(&mut input, &mut name, at)?;
            at += len;
            let Ok(name) = String::from_utf8(name) else {
                return corrupt(at, "label table entry is not UTF-8");
            };
            labels.push(Label::elem(name));
        }
        let events = read_varint(&mut input, &mut at)?;
        let max_depth = read_varint(&mut input, &mut at)?;
        let mut flags = 0u8;
        let mut postings_dir = Vec::new();
        let mut raw_text_bytes = 0;
        let mut enc_text_bytes = 0;
        let mut index_bytes = 0;
        let mut postings = 0;
        if version != VERSION_V1 {
            let mut b = [0u8];
            read_exact_at(&mut input, &mut b, at)?;
            at += 1;
            flags = b[0];
            if flags & !KNOWN_FLAGS != 0 {
                return corrupt(at - 1, format!("unknown footer flags {flags:#04x}"));
            }
            let index_start = at;
            // One list per element label, then one text bucket per
            // possible parent: the forest root, then each element label.
            postings_dir.reserve(2 * labels.len() + 1);
            for _ in 0..2 * labels.len() + 1 {
                let count = read_varint(&mut input, &mut at)?;
                let len = read_varint(&mut input, &mut at)?;
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
                });
                postings += count;
                input.seek(SeekFrom::Start(at + len))?;
                at += len;
            }
            index_bytes = at - index_start;
            raw_text_bytes = read_varint(&mut input, &mut at)?;
            enc_text_bytes = read_varint(&mut input, &mut at)?;
        }
        let mut sum = [0u8; 8];
        read_exact_at(&mut input, &mut sum, at)?;
        let checksum = u64::from_le_bytes(sum);
        input.seek(SeekFrom::Start(TAPE_START))?;
        let label_count = labels.len();
        let root = Frame {
            label: Label::elem(""),
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
            stream: (version == VERSION_V1).then(EventHash::new),
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

    /// The FET2 skip-index directory: one list per element label in
    /// label-id order, then the text-node buckets — one per possible
    /// parent, forest root first, then each element label in id order
    /// (entry `labels.len() + 1 + id` holds the texts under label `id`).
    /// Empty on v1 tapes.
    pub fn posting_dir(&self) -> &[PostingDirEntry] {
        &self.postings_dir
    }

    /// Whether this tape supports the index-driven read path: a FET2 tape
    /// with no disabling flags.
    pub fn index_usable(&self) -> bool {
        self.info.version != VERSION_V1 && self.info.flags & KNOWN_FLAGS == 0
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

    /// The one frame decoder: the frame at the read position, through the
    /// input's window. (It and the other per-frame steps are
    /// `#[inline(always)]`: an index replay took 15–20% longer per frame
    /// when the compiler chose to call them.)
    #[inline(always)]
    fn read_frame(&mut self) -> Result<Decoded, StoreError> {
        let at = self.offset;
        let v1 = self.info.version == VERSION_V1;
        let (window, from_window) = self.peek(MAX_HEAD)?;
        let (head, used) = match parse_head(window, v1) {
            Ok(parsed) => parsed,
            Err(i) => return Err(bad_head(at, window, i)),
        };
        self.advance(used, from_window)?;
        match head {
            Head::Elem { id, .. } if id >= self.labels.len() as u64 => {
                let n = self.labels.len();
                corrupt(at, format!("label id {id} out of range ({n} in table)"))
            }
            Head::Elem { id, close_delta } => Ok(Decoded::Elem { id, close_delta }),
            Head::Text { raw_len, enc_len } => self.read_text(raw_len, enc_len),
            Head::Close { events, hash } => Ok(Decoded::Close { events, hash }),
            Head::Eof => Ok(Decoded::Eof),
        }
    }

    /// The rest of an open text frame: the payload, decompressed when it
    /// is stored compressed, and `close_delta`.
    #[inline(never)]
    fn read_text(&mut self, raw_len: u64, enc_len: u64) -> Result<Decoded, StoreError> {
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
        Ok(Decoded::Text { text, close_delta })
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

    /// Open a node whose open frame started at `at` and ends at the read
    /// position.
    #[inline(always)]
    fn push(&mut self, at: u64, label: Label, close_delta: u32) -> Result<(), StoreError> {
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
        match &mut self.stream {
            Some(stream) => stream.open(&label),
            None => hash.open(&label),
        }
        self.position += 1;
        let parent = self.stack.last_mut().expect("open after Eof");
        if at != parent.next_at {
            parent.complete = false;
        }
        self.stack.push(Frame {
            label,
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
    /// stores `count` and (FET2) `stored` — the one verification rule
    /// (see [`TapeReader`]).
    #[inline(always)]
    fn settle(&mut self, at: u64, count: u64, stored: Option<u32>) -> Result<XmlEvent, StoreError> {
        if self.stack.len() < 2 {
            return corrupt(at, "close frame without an open node");
        }
        let frame = self.stack.pop().expect("checked");
        let gapless = self.settle_count(&frame, at, count, 1)?;
        match stored {
            Some(stored) => {
                let mut hash = frame.hash;
                hash.close();
                if gapless && hash.trunc32() != stored {
                    return Err(StoreError::Checksum {
                        expected: u64::from(stored),
                        found: u64::from(hash.trunc32()),
                    });
                }
                self.stack.last_mut().expect("checked").hash.child(stored);
            }
            None => {
                if let Some(stream) = &mut self.stream {
                    stream.close();
                }
            }
        }
        self.stack.last_mut().expect("checked").next_at = self.offset;
        Ok(XmlEvent::Close(frame.label))
    }

    /// Settle the virtual root at the `Eof` tag decoded at `at`: the
    /// footer's event count and document hash stand in for its close.
    fn settle_root(&mut self, at: u64) -> Result<XmlEvent, StoreError> {
        let open = self.depth();
        if open > 0 {
            return corrupt(at, format!("tape ended with {open} unclosed node(s)"));
        }
        let root = self.stack.pop().expect("the virtual root");
        let gapless = self.settle_count(&root, at, self.info.events, 0)?;
        self.finished = true;
        let document = if self.info.version == VERSION_V1 {
            self.stream.take()
        } else {
            gapless.then_some(root.hash)
        };
        if let Some(mut document) = document {
            document.eof();
            if document.0 != self.info.checksum {
                return Err(StoreError::Checksum {
                    expected: self.info.checksum,
                    found: document.0,
                });
            }
        }
        Ok(XmlEvent::Eof)
    }

    /// Pull the next event. After `Eof`, keeps returning `Eof`.
    pub fn next_event(&mut self) -> Result<XmlEvent, StoreError> {
        if self.finished {
            return Ok(XmlEvent::Eof);
        }
        let at = self.offset;
        let (label, close_delta) = match self.read_frame()? {
            Decoded::Close { events, hash } => return self.settle(at, events, hash),
            Decoded::Eof => return self.settle_root(at),
            Decoded::Elem { id, close_delta } => (self.labels[id as usize].clone(), close_delta),
            Decoded::Text { text, close_delta } => (Label::text(text), close_delta),
        };
        self.push(at, label, close_delta)?;
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
        match self.read_frame()? {
            Decoded::Close { events, hash } => self.settle(at, events, hash),
            Decoded::Eof => self.settle_root(at),
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
        let (label, close_delta) = match (self.read_frame()?, elem_id) {
            (Decoded::Elem { id, close_delta }, Some(want)) if id == want => {
                (self.labels[id as usize].clone(), close_delta)
            }
            (Decoded::Text { text, close_delta }, None) => (Label::text(text), close_delta),
            _ => {
                let msg = format!("posting for label id {elem_id:?} points at another frame");
                return corrupt(at, msg);
            }
        };
        if !keep(&label) {
            self.stack.last_mut().expect("open after Eof").complete = false;
            return Ok(false);
        }
        self.push(at, label, close_delta)?;
        Ok(true)
    }

    /// One posting list's bytes, read without moving the read position.
    pub(crate) fn posting_bytes(&mut self, dir: PostingDirEntry) -> Result<Vec<u8>, StoreError> {
        let mut bytes = vec![0u8; dir.bytes as usize];
        self.input.seek(SeekFrom::Start(dir.offset))?;
        read_exact_at(&mut self.input, &mut bytes, dir.offset)?;
        self.input.seek(SeekFrom::Start(self.offset))?;
        Ok(bytes)
    }

    /// Whether the event just returned was an `Open` whose subtree can be
    /// seeked over (its close offset is recorded and did not overflow).
    pub fn skippable(&self) -> bool {
        let top = self.stack.last().filter(|_| self.depth() > 0);
        top.is_some_and(|top| top.opened_at == self.position && top.close_at.is_some())
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
    /// folded into the parent — so on FET2 verification of everything
    /// *around* the skip, the footer's document hash at `Eof` included,
    /// survives, and an enclosing close checks the count exactly. On FET1
    /// the first seek forfeits the stream hash. Panics when no node is
    /// open.
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
        self.stream = None;
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

/// `read_exact` that reports truncation as [`StoreError::Corrupt`] at the
/// given offset (a tape that ends mid-frame is corrupt, not "EOF").
pub(crate) fn read_exact_at<R: Read>(
    input: &mut R,
    buf: &mut [u8],
    at: u64,
) -> Result<(), StoreError> {
    input.read_exact(buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            StoreError::Corrupt {
                offset: at,
                msg: "tape truncated mid-frame".into(),
            }
        } else {
            StoreError::Io(e)
        }
    })
}

/// LEB128 decode, advancing `at` by the bytes consumed.
pub(crate) fn read_varint<R: Read>(input: &mut R, at: &mut u64) -> Result<u64, StoreError> {
    let mut value = 0u64;
    let mut shift = 0u32;
    loop {
        let mut b = [0u8];
        read_exact_at(input, &mut b, *at)?;
        *at += 1;
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

    fn tape_of_v1(xml: &str) -> (Vec<u8>, TapeInfo) {
        let (out, info, _src) =
            ingest_xml_to_tape_v1(xml.as_bytes(), Cursor::new(Vec::new())).unwrap();
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
        assert_eq!(replay(tape_of_v1(xml).0), parse_events(xml));
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
    fn v1_tapes_still_read_and_report_their_version() {
        let (bytes, info) = tape_of_v1("<a><b>t</b><b>u</b></a>");
        assert_eq!(info.version, VERSION_V1);
        assert_eq!(info.postings, 0);
        assert_eq!(info.index_bytes, 0);
        let r = TapeReader::new(Cursor::new(bytes)).unwrap();
        assert_eq!(r.info(), &info);
        assert!(r.posting_dir().is_empty());
        assert!(!r.index_usable());
    }

    #[test]
    fn skip_subtree_jumps_to_the_close() {
        let xml = "<r><junk><x>1</x><y>2</y></junk><keep>3</keep></r>";
        // By a seek — or, had the close offset overflowed its field, by
        // decoding; through the trait it is the same operation.
        for ((bytes, _), seeks) in [
            (tape_of(xml), true),
            (tape_of_v1(xml), true),
            (tape_of(xml), false),
        ] {
            let mut r = TapeReader::new(Cursor::new(bytes)).unwrap();
            assert_eq!(r.next_event().unwrap(), XmlEvent::Open(Label::elem("r")));
            assert_eq!(r.next_event().unwrap(), XmlEvent::Open(Label::elem("junk")));
            assert!(r.skippable());
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
    fn flipped_text_byte_fails_the_checksum() {
        // v1: detected at Eof against the footer's stream hash.
        let xml = "<a>checksum-me</a>";
        let (mut bytes, info) = tape_of_v1(xml);
        let pos = bytes
            .windows(b"checksum-me".len())
            .position(|w| w == b"checksum-me")
            .unwrap();
        bytes[pos] ^= 0x20;
        let mut r = TapeReader::new(Cursor::new(bytes)).unwrap();
        let err = loop {
            match r.next_event() {
                Ok(XmlEvent::Eof) => panic!("corruption not detected"),
                Ok(_) => continue,
                Err(e) => break e,
            }
        };
        match err {
            StoreError::Checksum { expected, .. } => assert_eq!(expected, info.checksum),
            other => panic!("expected Checksum, got {other:?}"),
        }
    }

    #[test]
    fn v2_flipped_text_byte_fails_at_the_nodes_close() {
        // v2: detected locally, at the corrupted node's close frame — long
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
        assert!(r.skippable(), "root close offset not backpatched");
        let skipped = r.skip_subtree().unwrap();
        assert_eq!(skipped.events, info.events - 1);
        // v2: the skip folded the root's stored hash, so Eof still
        // verifies the document hash.
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

    #[test]
    fn huge_text_length_varint_is_corrupt_not_a_panic() {
        // A hand-crafted v1 tape whose single frame claims a text payload
        // of u64::MAX bytes: the bounds check must not wrap into accepting
        // it (release builds would then die on a capacity-overflow alloc).
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC_V1);
        bytes.push(VERSION_V1);
        bytes.extend_from_slice(&24u64.to_le_bytes()); // footer right after
        bytes.push(TAG_OPEN_TEXT);
        bytes.extend_from_slice(&[0xFF; 9]); // LEB128 u64::MAX …
        bytes.push(0x01); // … final byte
        bytes.extend_from_slice(&[0x00, 0x00, 0x00]); // footer: 0 labels/events/depth
        bytes.extend_from_slice(&0u64.to_le_bytes()); // checksum
        let mut r = TapeReader::new(Cursor::new(bytes)).unwrap();
        assert!(matches!(r.next_event(), Err(StoreError::Corrupt { .. })));
    }

    #[test]
    fn huge_raw_len_on_a_tiny_encoding_is_corrupt_not_an_alloc() {
        // A hand-built v2 text frame claiming a terabyte raw length for a
        // few encoded bytes must be rejected by the expansion bound before
        // allocating anything.
        let mut evil = Vec::new();
        evil.extend_from_slice(&MAGIC);
        evil.push(VERSION);
        evil.extend_from_slice(&0u64.to_le_bytes());
        evil.push(TAG_OPEN_TEXT);
        push_varint(&mut evil, 1 << 40); // raw_len: a terabyte
        push_varint(&mut evil, 4); // enc_len: four bytes
        evil.extend_from_slice(b"abcd");
        evil.extend_from_slice(&[0u8; 4]); // close_delta
        evil.push(TAG_EOF);
        let footer_offset = evil.len() as u64; // footer starts after Eof
        evil[5..13].copy_from_slice(&footer_offset.to_le_bytes());
        push_varint(&mut evil, 0); // labels
        push_varint(&mut evil, 2); // events
        push_varint(&mut evil, 1); // max_depth
        evil.push(0); // flags
        push_varint(&mut evil, 1); // root text bucket (the only list): 1 posting …
        push_varint(&mut evil, 3);
        evil.extend_from_slice(&[0, 1, 0]); // … delta 0, depth 1, root
        push_varint(&mut evil, 1 << 40); // raw_text_bytes
        push_varint(&mut evil, 4); // enc_text_bytes
        evil.extend_from_slice(&0u64.to_le_bytes()); // checksum
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
