//! The FET2 merged index cursor: replaying *only* the matched subtrees.
//!
//! A linear tape replay decodes every frame and asks the prefilter about
//! every open — cost proportional to document size. The FET2 footer stores
//! a posting list per label (open-frame offsets with depth and parent),
//! so a query set's matched-label union selects a handful of lists and a
//! k-way merge over them visits exactly the *candidate* frames, seeking
//! over everything in between. [`IndexedReplay`] delivers the same
//! open/close sequence a scan with the shared label prefilter would — the
//! equivalence is proven in `tests/store.rs` — while decoding bytes
//! proportional to the matched subtrees, not the document.
//!
//! ## Why depth and parent ride in every posting
//!
//! An offset merge alone would deliver a matched node nested under an
//! *unmatched* ancestor, which the scan prefilter would have skipped. Two
//! guards restore equivalence cheaply:
//!
//! * **parent pruning** — a deliverable node's parent is delivered too,
//!   so its parent label must be matched (or the node is a root); postings
//!   failing that die in a tight varint loop, no frame decode, no clock
//!   read. Text postings never even reach that loop: the footer buckets
//!   them by parent label, so a text-heavy corpus costs only the buckets
//!   under matched parents, selected up front.
//! * **the depth rule** — a surviving posting is accepted only if its
//!   depth is exactly one below the innermost open frame: a deeper
//!   posting means some intermediate ancestor was not delivered, so the
//!   scan would never have reached this node.
//!
//! ## Verification
//!
//! Each stack frame accumulates the FET2 compositional hash of what was
//! actually decoded, and tracks whether its subtree was decoded
//! *contiguously* (every child frame adjacent, no rejected candidates).
//! Fully-decoded subtrees are verified against the close frame's stored
//! hash — the seek path verifies exactly what it decodes; a skipped
//! child's stored hash is folded into the parent so enclosing checks stay
//! sound.

use crate::tape::{
    read_exact_at, read_varint, slice_varint, EventHash, PostingDirEntry, SkippedSubtree,
    StoreError, TapeInfo, TapeReader, TAG_CLOSE, TAG_EOF, TAG_OPEN_ELEM, TAG_OPEN_TEXT, TAPE_START,
};
use foxq_forest::{FxHashSet, Label};
use foxq_xml::{EventSource, XmlError, XmlEvent};
use std::io::{BufRead, Seek, SeekFrom};
use std::sync::Arc;

/// Decode a frame header through the input's own buffered window — a
/// borrowed slice of the whole remaining tape for mapped and in-memory
/// inputs, the reader's window for buffered files. `parse` returns the
/// decoded value and the bytes it consumed, or `None` when the window is
/// too short for the header (or the bytes are not the expected frame);
/// the caller then falls back to byte-wise reads, which revisit the same
/// position and report the precise error. The fast path costs one borrow
/// and a few slice ops per frame instead of three to six small reads.
fn buffered_parse<R: BufRead, T>(
    input: &mut R,
    offset: &mut u64,
    parse: impl FnOnce(&[u8]) -> Option<(T, usize)>,
) -> Result<Option<T>, StoreError> {
    let got = parse(input.fill_buf()?);
    Ok(got.map(|(value, used)| {
        input.consume(used);
        *offset += used as u64;
        value
    }))
}

/// One decoded posting: an open frame's offset, depth (root = 1), and
/// parent element label + 1 (0 = document root).
#[derive(Debug, Clone, Copy)]
struct Posting {
    offset: u64,
    depth: u64,
}

/// One selected posting list being merged: its loaded bytes, a decode
/// cursor, and the next surviving posting (parent-pruned).
struct ListCursor {
    bytes: Vec<u8>,
    i: usize,
    remaining: u64,
    prev_offset: u64,
    /// Element label id this list posts, or `None` for a text bucket.
    elem_id: Option<u64>,
    head: Option<Posting>,
}

impl ListCursor {
    /// Decode postings until one survives the parent filter (or the list
    /// runs dry), leaving it in `head`.
    fn advance(&mut self, parent_matched: &[bool], footer_offset: u64) -> Result<(), StoreError> {
        self.head = None;
        while self.remaining > 0 {
            self.remaining -= 1;
            let (delta, depth, parent_plus1) = (|| {
                let d = slice_varint(&self.bytes, &mut self.i)?;
                let depth = slice_varint(&self.bytes, &mut self.i)?;
                let p = slice_varint(&self.bytes, &mut self.i)?;
                Some((d, depth, p))
            })()
            .ok_or_else(|| StoreError::Corrupt {
                offset: 0,
                msg: "posting list truncated".into(),
            })?;
            let offset = self.prev_offset + delta;
            self.prev_offset = offset;
            if depth == 0 || offset >= footer_offset {
                return Err(StoreError::Corrupt {
                    offset,
                    msg: "posting outside the frame region".into(),
                });
            }
            let keep = match parent_plus1 {
                0 => true, // document root
                p => parent_matched
                    .get((p - 1) as usize)
                    .copied()
                    .unwrap_or(false),
            };
            if keep {
                self.head = Some(Posting { offset, depth });
                return Ok(());
            }
        }
        if self.i != self.bytes.len() {
            return Err(StoreError::Corrupt {
                offset: 0,
                msg: "posting list has trailing bytes after its declared count".into(),
            });
        }
        Ok(())
    }
}

/// One open frame on the cursor's stack. `stack[0]` is a virtual document
/// root (depth 0, "close" at the Eof tag) so roots need no special case.
struct Frame {
    label: Label,
    close_at: u64,
    depth: u64,
    hash: EventHash,
    /// Every child so far was decoded, adjacent to its predecessor.
    complete: bool,
    /// Where the next child frame starts if the subtree stays contiguous.
    next_at: u64,
    /// [`IndexedReplay::position`] right after this frame's open.
    opened_at: u64,
}

/// Replays the prefilter-surviving events of a FET2 tape by merging the
/// matched labels' posting lists. Built by [`index_drive`]; drives the
/// same engine interface as a full [`TapeReader`] replay.
pub struct IndexedReplay<R> {
    tape: TapeReader<R>,
    lists: Vec<ListCursor>,
    matched: Arc<FxHashSet<Label>>,
    /// Element label id → matched (the parent filter postings are pruned
    /// against).
    parent_matched: Vec<bool>,
    /// Text candidates must themselves be matched (plan's `texts` flag);
    /// when false, every text under a delivered parent is delivered.
    texts_filtered: bool,
    stack: Vec<Frame>,
    delivered: u64,
    /// Events [`IndexedReplay::skip_subtree`] counted without delivering
    /// them.
    seek_skipped_events: u64,
    /// Events behind the read position *within the innermost contiguous
    /// frame*: delivered ones plus, for every closed child, what its close
    /// frame says it held. Gaps between children are not counted, so the
    /// value only means something to a frame decoded without gaps — where
    /// it must equal the frame's own stored count.
    position: u64,
    index_skipped_bytes: u64,
    probe_micros: u64,
    finished: bool,
}

/// A tape ready to drive a query set: through the merged index cursor
/// when the tape and the plan allow it, by linear scan otherwise.
pub enum TapeDrive<R> {
    /// FET2 index path: only candidate frames are decoded.
    Indexed(IndexedReplay<R>),
    /// Scan path: frames are decoded in order, the driver seeks over
    /// subtrees no lane can use (FET1 tapes, flagged tapes).
    Linear(TapeReader<R>),
}

/// Select the read path for `tape` under a query set's matched-label
/// union. Returns [`TapeDrive::Indexed`] when the tape is FET2 with no
/// disabling flags; [`TapeDrive::Linear`] otherwise. `texts` is the
/// plan's text flag: true when every eligible lane may skip unmatched
/// text events (so only matched texts are delivered).
pub fn index_drive<R: BufRead + Seek>(
    mut tape: TapeReader<R>,
    matched: Arc<FxHashSet<Label>>,
    texts: bool,
) -> Result<TapeDrive<R>, StoreError> {
    if !tape.index_usable() {
        return Ok(TapeDrive::Linear(tape));
    }
    // Probe time covers the index-specific setup: loading the selected
    // posting lists and advancing each to its first surviving posting.
    // The per-event merge is a handful of compares — timing it would cost
    // more (two clock reads per delivered event) than the work itself.
    let probe_start = std::time::Instant::now();
    let parent_matched: Vec<bool> = tape.labels.iter().map(|l| matched.contains(l)).collect();
    let mut selected: Vec<(usize, Option<u64>)> = parent_matched
        .iter()
        .enumerate()
        .filter(|(_, &m)| m)
        .map(|(id, _)| (id, Some(id as u64)))
        .collect();
    // Text buckets: needed when texts are delivered unconditionally, or
    // when specific text labels are matched. The buckets are partitioned
    // by parent, so only the forest-root bucket and the buckets under
    // matched parents are loaded — the parent filter runs at selection
    // time instead of per posting.
    if !texts || matched.iter().any(|l| l.is_text()) {
        selected.push((tape.labels.len(), None));
        for (id, &m) in parent_matched.iter().enumerate() {
            if m {
                selected.push((tape.labels.len() + 1 + id, None));
            }
        }
    }
    let footer_offset = tape.footer_offset;
    let mut lists = Vec::with_capacity(selected.len());
    for (dir_idx, elem_id) in selected {
        let dir: PostingDirEntry = tape.postings_dir[dir_idx];
        let mut bytes = vec![0u8; dir.bytes as usize];
        tape.input.seek(SeekFrom::Start(dir.offset))?;
        read_exact_at(&mut tape.input, &mut bytes, dir.offset)?;
        let mut list = ListCursor {
            bytes,
            i: 0,
            remaining: dir.count,
            prev_offset: TAPE_START,
            elem_id,
            head: None,
        };
        list.advance(&parent_matched, footer_offset)?;
        lists.push(list);
    }
    let root = Frame {
        label: Label::elem(""),
        close_at: footer_offset - 1, // the Eof tag byte
        depth: 0,
        hash: EventHash::new(),
        complete: true,
        next_at: TAPE_START,
        opened_at: 0,
    };
    tape.input.seek(SeekFrom::Start(TAPE_START))?;
    tape.offset = TAPE_START;
    let probe_micros = probe_start.elapsed().as_micros().min(u64::MAX as u128) as u64;
    Ok(TapeDrive::Indexed(IndexedReplay {
        tape,
        lists,
        matched,
        parent_matched,
        texts_filtered: texts,
        stack: vec![root],
        delivered: 0,
        seek_skipped_events: 0,
        position: 0,
        index_skipped_bytes: 0,
        probe_micros,
        finished: false,
    }))
}

impl<R: BufRead + Seek> TapeDrive<R> {
    /// Footer-level facts of the underlying tape.
    pub fn info(&self) -> &TapeInfo {
        match self {
            TapeDrive::Indexed(c) => c.info(),
            TapeDrive::Linear(t) => t.info(),
        }
    }
}

impl<R: BufRead + Seek> IndexedReplay<R> {
    /// Footer-level facts of the underlying tape.
    pub fn info(&self) -> &TapeInfo {
        &self.tape.info
    }

    /// Open/close events delivered so far.
    pub fn delivered_events(&self) -> u64 {
        self.delivered
    }

    /// Tape bytes jumped over (never decoded) so far.
    pub fn index_skipped_bytes(&self) -> u64 {
        self.index_skipped_bytes
    }

    /// Tape bytes [`IndexedReplay::skip_subtree`] seeked over so far.
    pub fn seek_skipped_bytes(&self) -> u64 {
        self.tape.seek_skipped_bytes
    }

    /// Wall time spent loading the selected posting lists and advancing
    /// each to its first surviving posting, in microseconds — the index
    /// path's analogue of seek time.
    pub fn probe_micros(&self) -> u64 {
        self.probe_micros
    }

    fn corrupt<T>(&self, at: u64, msg: impl Into<String>) -> Result<T, StoreError> {
        Err(StoreError::Corrupt {
            offset: at,
            msg: msg.into(),
        })
    }

    /// Jump the read position forward to `to`, accounting the gap as
    /// index-skipped bytes.
    fn jump(&mut self, to: u64) -> Result<(), StoreError> {
        if self.tape.offset < to {
            self.index_skipped_bytes += to - self.tape.offset;
            self.tape.input.seek(SeekFrom::Start(to))?;
            self.tape.offset = to;
        }
        Ok(())
    }

    /// Read an open frame's 4-byte little-endian close delta at the
    /// current offset (used after a text payload, and by the byte-wise
    /// fallback decode).
    fn read_close_delta(&mut self) -> Result<u32, StoreError> {
        let fast = buffered_parse(&mut self.tape.input, &mut self.tape.offset, |b| {
            Some((u32::from_le_bytes(b.get(..4)?.try_into().ok()?), 4))
        })?;
        match fast {
            Some(delta) => Ok(delta),
            None => {
                let mut delta = [0u8; 4];
                read_exact_at(&mut self.tape.input, &mut delta, self.tape.offset)?;
                self.tape.offset += 4;
                Ok(u32::from_le_bytes(delta))
            }
        }
    }

    /// Deliver the close of the innermost open frame — or `Eof` when only
    /// the virtual root remains.
    fn deliver_close(&mut self) -> Result<XmlEvent, StoreError> {
        let frame = self.stack.pop().expect("virtual root always present");
        let contiguous = frame.complete && frame.next_at == frame.close_at;
        self.jump(frame.close_at)?;
        if self.stack.is_empty() {
            // The virtual root: its "close frame" is the Eof tag.
            let mut b = [0u8];
            read_exact_at(&mut self.tape.input, &mut b, self.tape.offset)?;
            self.tape.offset += 1;
            if b[0] != TAG_EOF {
                return self.corrupt(
                    frame.close_at,
                    format!("expected the Eof tag, found {:#04x}", b[0]),
                );
            }
            if contiguous && self.position != self.tape.info.events {
                return self.corrupt(
                    frame.close_at,
                    format!(
                        "tape replayed {} events, its footer counts {}",
                        self.position, self.tape.info.events
                    ),
                );
            }
            let mut h = frame.hash;
            h.eof();
            if contiguous && h.0 != self.tape.info.checksum {
                return Err(StoreError::Checksum {
                    expected: self.tape.info.checksum,
                    found: h.0,
                });
            }
            self.finished = true;
            return Ok(XmlEvent::Eof);
        }
        let fast = buffered_parse(&mut self.tape.input, &mut self.tape.offset, |b| {
            if *b.first()? != TAG_CLOSE {
                return None;
            }
            let mut i = 1usize;
            let subtree_events = slice_varint(b, &mut i)?;
            let stored = u32::from_le_bytes(b.get(i..i + 4)?.try_into().ok()?);
            Some(((subtree_events, stored), i + 4))
        })?;
        let (subtree_events, stored) = match fast {
            Some(pair) => pair,
            None => {
                let mut b = [0u8];
                read_exact_at(&mut self.tape.input, &mut b, self.tape.offset)?;
                self.tape.offset += 1;
                if b[0] != TAG_CLOSE {
                    return self.corrupt(
                        frame.close_at,
                        format!("open frame's close offset points at tag {:#04x}", b[0]),
                    );
                }
                let subtree_events = read_varint(&mut self.tape.input, &mut self.tape.offset)?;
                let mut sum = [0u8; 4];
                read_exact_at(&mut self.tape.input, &mut sum, self.tape.offset)?;
                self.tape.offset += 4;
                (subtree_events, u32::from_le_bytes(sum))
            }
        };
        // The count sits outside the subtree hash. A subtree decoded
        // without gaps must have replayed exactly that many events (its
        // children's counts included); one with gaps holds at least what
        // was replayed, and its count is what the parent goes by.
        let replayed = self.position + 1 - frame.opened_at + 1;
        let room = (self.tape.info.events + 1).saturating_sub(frame.opened_at);
        if subtree_events < replayed
            || subtree_events > room
            || (contiguous && subtree_events != replayed)
        {
            return self.corrupt(
                frame.close_at,
                format!("close frame counts {subtree_events} subtree events, {replayed} replayed"),
            );
        }
        self.position = frame.opened_at + subtree_events - 1;
        let mut h = frame.hash;
        h.close();
        if contiguous && h.trunc32() != stored {
            return Err(StoreError::Checksum {
                expected: u64::from(stored),
                found: u64::from(h.trunc32()),
            });
        }
        let parent = self.stack.last_mut().expect("checked non-empty");
        parent.hash.child(stored);
        parent.next_at = self.tape.offset;
        self.delivered += 1;
        Ok(XmlEvent::Close(frame.label))
    }

    /// [`EventSource::skip_subtree`] for an indexed replay, as
    /// [`TapeReader::skip_subtree`] is for a scan: seek to the close frame
    /// of the innermost open subtree and consume it. The bytes in between,
    /// none of which is decoded now, are not counted as index-skipped: the
    /// jump starts from a decoded open. The postings inside the subtree are
    /// discarded by the depth rule as the merge reaches them, and the frame
    /// counts as not fully decoded, so its stored hash is folded into the
    /// parent unverified — exactly a skipped child. Panics when no
    /// delivered open is waiting for its close.
    pub fn skip_subtree(&mut self) -> Result<SkippedSubtree, StoreError> {
        assert!(
            self.stack.len() > 1,
            "skip_subtree outside any open subtree"
        );
        let top = self.stack.last_mut().expect("checked non-empty");
        top.complete = false;
        let close_at = top.close_at;
        let bytes = close_at - self.tape.offset;
        self.tape.input.seek(SeekFrom::Start(close_at))?;
        self.tape.offset = close_at;
        self.tape.seek_skipped_bytes += bytes;
        let before = self.position;
        self.deliver_close()?;
        // The close frame's count moved the position over the interior.
        let events = self.position - before;
        self.seek_skipped_events += events - 1;
        Ok(SkippedSubtree { events, bytes })
    }

    /// Pull the next prefilter-surviving event.
    pub fn next_event(&mut self) -> Result<XmlEvent, StoreError> {
        if self.finished {
            return Ok(XmlEvent::Eof);
        }
        loop {
            // Merge step: smallest next posting across the selected lists.
            // k is the matched-label count — a linear min beats a heap.
            let mut best: Option<(usize, Posting)> = None;
            for (i, list) in self.lists.iter().enumerate() {
                if let Some(p) = list.head {
                    if best.is_none_or(|(_, b)| p.offset < b.offset) {
                        best = Some((i, p));
                    }
                }
            }
            let top = self.stack.last().expect("virtual root always present");
            let (list_idx, posting) = match best {
                Some((i, p)) if p.offset < top.close_at => (i, p),
                // No posting inside the innermost subtree: deliver its
                // close (or Eof at the virtual root).
                _ => return self.deliver_close(),
            };
            let (top_depth, top_close_at) = (top.depth, top.close_at);
            if posting.depth <= top_depth {
                return self.corrupt(
                    posting.offset,
                    format!(
                        "posting depth {} not below the enclosing frame (depth {})",
                        posting.depth, top_depth
                    ),
                );
            }
            // Advance the source list now — every branch below consumes
            // the posting (accepting, or discarding it as unreachable).
            self.lists[list_idx].advance(&self.parent_matched, self.tape.footer_offset)?;
            if posting.depth > top_depth + 1 {
                // An intermediate ancestor was never delivered (unmatched):
                // the scan prefilter would have skipped this whole region.
                continue;
            }
            // A direct child of the innermost frame: decode it.
            self.jump(posting.offset)?;
            let started_at = posting.offset;
            let is_text_list = self.lists[list_idx].elem_id.is_none();
            let (label, delta) = if is_text_list {
                let fast = buffered_parse(&mut self.tape.input, &mut self.tape.offset, |b| {
                    if *b.first()? != TAG_OPEN_TEXT {
                        return None;
                    }
                    let mut i = 1usize;
                    let raw_len = slice_varint(b, &mut i)?;
                    let enc_len = slice_varint(b, &mut i)?;
                    Some(((raw_len, enc_len), i))
                })?;
                let (raw_len, enc_len) = match fast {
                    Some(lens) => lens,
                    None => {
                        let mut tag = [0u8];
                        read_exact_at(&mut self.tape.input, &mut tag, self.tape.offset)?;
                        self.tape.offset += 1;
                        if tag[0] != TAG_OPEN_TEXT {
                            return self.corrupt(
                                started_at,
                                format!("text posting points at tag {:#04x}", tag[0]),
                            );
                        }
                        let raw_len = read_varint(&mut self.tape.input, &mut self.tape.offset)?;
                        let enc_len = read_varint(&mut self.tape.input, &mut self.tape.offset)?;
                        (raw_len, enc_len)
                    }
                };
                let content = self.tape.read_text_payload(raw_len, enc_len)?;
                let Ok(content) = String::from_utf8(content) else {
                    return self.corrupt(started_at, "text payload is not UTF-8");
                };
                (Label::text(content), self.read_close_delta()?)
            } else {
                let fast = buffered_parse(&mut self.tape.input, &mut self.tape.offset, |b| {
                    if *b.first()? != TAG_OPEN_ELEM {
                        return None;
                    }
                    let mut i = 1usize;
                    let id = slice_varint(b, &mut i)?;
                    let delta = u32::from_le_bytes(b.get(i..i + 4)?.try_into().ok()?);
                    Some(((id, delta), i + 4))
                })?;
                let (id, delta) = match fast {
                    Some(pair) => pair,
                    None => {
                        let mut tag = [0u8];
                        read_exact_at(&mut self.tape.input, &mut tag, self.tape.offset)?;
                        self.tape.offset += 1;
                        if tag[0] != TAG_OPEN_ELEM {
                            return self.corrupt(
                                started_at,
                                format!("element posting points at tag {:#04x}", tag[0]),
                            );
                        }
                        let id = read_varint(&mut self.tape.input, &mut self.tape.offset)?;
                        (id, self.read_close_delta()?)
                    }
                };
                if Some(id) != self.lists[list_idx].elem_id {
                    return self.corrupt(
                        started_at,
                        format!("posting for label {:?} points at label id {id}", {
                            self.lists[list_idx].elem_id
                        }),
                    );
                }
                (self.tape.labels[id as usize].clone(), delta)
            };
            if delta == u32::MAX {
                return self.corrupt(
                    started_at,
                    "overflowed close offset on an index-enabled tape",
                );
            }
            let close_at = self.tape.offset + u64::from(delta);
            if close_at >= top_close_at {
                return self.corrupt(
                    started_at,
                    format!("child close offset {close_at} escapes its parent's subtree"),
                );
            }
            let top = self.stack.last_mut().expect("virtual root always present");
            if is_text_list && self.texts_filtered && !self.matched.contains(&label) {
                // Decoded candidate, rejected by the label test — exactly
                // what the scan prefilter does to an unmatched text.
                top.complete = false;
                continue;
            }
            if started_at != top.next_at {
                top.complete = false;
            }
            let mut hash = EventHash::new();
            hash.open(&label);
            self.stack.push(Frame {
                label: label.clone(),
                close_at,
                depth: posting.depth,
                hash,
                complete: true,
                next_at: self.tape.offset,
                opened_at: self.position + 1,
            });
            self.position += 1;
            self.delivered += 1;
            return Ok(XmlEvent::Open(label));
        }
    }
}

impl<R: BufRead + Seek> EventSource for IndexedReplay<R> {
    fn next_event(&mut self) -> Result<XmlEvent, XmlError> {
        IndexedReplay::next_event(self).map_err(StoreError::into_xml)
    }

    fn events_read(&self) -> u64 {
        self.delivered + self.seek_skipped_events
    }

    fn skip_subtree(&mut self) -> Result<u64, XmlError> {
        match IndexedReplay::skip_subtree(self) {
            Ok(skipped) => Ok(skipped.events),
            Err(e) => Err(e.into_xml()),
        }
    }
}
