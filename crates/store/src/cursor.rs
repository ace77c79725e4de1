//! The skip index as a candidate selector: replaying *only* the
//! matched subtrees.
//!
//! A scan decodes every frame and asks the prefilter about every open —
//! cost proportional to document size. The footer stores a posting
//! list per label (open-frame offsets with depth and parent), so a query
//! set's matched-label union selects a handful of lists and a k-way merge
//! over them visits exactly the *candidate* frames. [`IndexedReplay`]
//! delivers the same open/close sequence a scan with the shared label
//! prefilter would — the equivalence is proven in `tests/store.rs` — while
//! decoding bytes proportional to the matched subtrees, not the document.
//!
//! It decodes nothing itself. For each surviving posting it asks the one
//! tape cursor, [`TapeReader`], to jump there and open the frame (checking
//! its kind and label id), or to jump to the innermost open frame's close
//! and settle it. Verification is the cursor's one rule: a subtree the
//! index delivered without gaps is checked against its stored count and
//! hash; one with gaps (a rejected candidate, a jump between children)
//! only has its count bounded, and its stored hash stands in for it in the
//! parent. The label table and the posting lists that pick the candidates
//! are checked against the footer's and their own hashes.
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

use crate::tape::{slice_varint, SkippedSubtree, StoreError, TapeInfo, TapeReader, TAPE_START};
use foxq_forest::{FxHashSet, Label};
use foxq_xml::{EventSource, XmlError, XmlEvent};
use std::io::{BufRead, Seek};
use std::sync::Arc;

/// One decoded posting: an open frame's offset and depth (root = 1).
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
            let offset = self.prev_offset.saturating_add(delta);
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

/// Replays the prefilter-surviving events of a tape by merging the
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
    delivered: u64,
    /// Events [`IndexedReplay::skip_subtree`] counted without delivering
    /// them.
    seek_skipped_events: u64,
    index_skipped_bytes: u64,
    probe_micros: u64,
}

/// A tape ready to drive a query set: through the merged index cursor
/// when the tape and the plan allow it, by linear scan otherwise.
pub enum TapeDrive<R> {
    /// Index path: only candidate frames are decoded.
    Indexed(IndexedReplay<R>),
    /// Scan path: frames are decoded in order, the driver seeks over
    /// subtrees no lane can use (flagged tapes, and plans the index cannot
    /// serve).
    Linear(TapeReader<R>),
}

/// Select the read path for `tape` under a query set's matched-label
/// union. Returns [`TapeDrive::Indexed`] when the tape has no disabling
/// flags; [`TapeDrive::Linear`] otherwise. `texts` is the
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
    let parent_matched: Vec<bool> = tape.labels().iter().map(|l| matched.contains(l)).collect();
    let labels = parent_matched.len();
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
        selected.push((labels, None));
        for (id, &m) in parent_matched.iter().enumerate() {
            if m {
                selected.push((labels + 1 + id, None));
            }
        }
    }
    let mut lists = Vec::with_capacity(selected.len());
    for (dir_idx, elem_id) in selected {
        let dir = tape.posting_dir()[dir_idx];
        let mut list = ListCursor {
            bytes: tape.posting_bytes(dir)?,
            i: 0,
            remaining: dir.count,
            prev_offset: TAPE_START,
            elem_id,
            head: None,
        };
        list.advance(&parent_matched, tape.footer_offset)?;
        lists.push(list);
    }
    let probe_micros = probe_start.elapsed().as_micros().min(u64::MAX as u128) as u64;
    Ok(TapeDrive::Indexed(IndexedReplay {
        tape,
        lists,
        matched,
        parent_matched,
        texts_filtered: texts,
        delivered: 0,
        seek_skipped_events: 0,
        index_skipped_bytes: 0,
        probe_micros,
    }))
}

impl<R: BufRead + Seek> IndexedReplay<R> {
    /// Footer-level facts of the underlying tape.
    pub fn info(&self) -> &TapeInfo {
        self.tape.info()
    }

    /// Tape bytes jumped over (never decoded) so far.
    pub fn index_skipped_bytes(&self) -> u64 {
        self.index_skipped_bytes
    }

    /// Tape bytes [`IndexedReplay::skip_subtree`] seeked over so far.
    pub fn seek_skipped_bytes(&self) -> u64 {
        self.tape.seek_skipped_bytes()
    }

    /// Wall time spent loading the selected posting lists and advancing
    /// each to its first surviving posting, in microseconds — the index
    /// path's analogue of seek time.
    pub fn probe_micros(&self) -> u64 {
        self.probe_micros
    }

    /// [`EventSource::skip_subtree`] for an indexed replay: the tape's own
    /// [`TapeReader::skip_subtree`] — seek to the close frame of the
    /// innermost open subtree and settle it as one with gaps. The bytes in
    /// between are seek-skipped, not index-skipped: the jump starts from a
    /// decoded open. The postings inside the subtree are discarded by the
    /// depth rule as the merge reaches them. Panics when no delivered open
    /// is waiting for its close.
    pub fn skip_subtree(&mut self) -> Result<SkippedSubtree, StoreError> {
        let skipped = self.tape.skip_subtree()?;
        self.delivered += 1; // the close
        self.seek_skipped_events += skipped.events - 1;
        Ok(skipped)
    }

    /// Pull the next prefilter-surviving event. (Kept out of line: where
    /// the compiler inlined it into a caller's loop, that loop ran up to
    /// 14% slower, depending on what else the caller inlined.)
    #[inline(never)]
    pub fn next_event(&mut self) -> Result<XmlEvent, StoreError> {
        if self.tape.finished() {
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
            let close_at = self.tape.close_bound();
            let (list_idx, posting) = match best {
                Some((i, p)) if p.offset < close_at => (i, p),
                // No posting inside the innermost subtree: deliver its
                // close (or Eof at the virtual root).
                _ => {
                    self.index_skipped_bytes += self.tape.jump(close_at)?;
                    self.delivered += u64::from(self.tape.depth() > 0);
                    // Returned as it is: passing the event on through `?`
                    // cost ≈ 10% per delivered frame.
                    return self.tape.close_top();
                }
            };
            let depth = self.tape.depth();
            if posting.depth <= depth {
                return Err(StoreError::Corrupt {
                    offset: posting.offset,
                    msg: format!(
                        "posting depth {} not below the enclosing frame (depth {depth})",
                        posting.depth
                    ),
                });
            }
            // Advance the source list now — every branch below consumes
            // the posting (accepting, or discarding it as unreachable).
            let list = &mut self.lists[list_idx];
            list.advance(&self.parent_matched, self.tape.footer_offset)?;
            if posting.depth > depth + 1 {
                // An intermediate ancestor was never delivered (unmatched):
                // the scan prefilter would have skipped this whole region.
                continue;
            }
            // A direct child of the innermost frame: open it — unless it
            // is a text the label test rejects, exactly as the scan
            // prefilter does.
            let elem_id = list.elem_id;
            let (matched, filtered) = (&self.matched, self.texts_filtered);
            let keep = |label: &Label| elem_id.is_some() || !filtered || matched.contains(label);
            self.index_skipped_bytes += self.tape.jump(posting.offset)?;
            if self.tape.open_posting(elem_id, keep)? {
                self.delivered += 1;
                return Ok(XmlEvent::Open(self.tape.top_label()));
            }
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
