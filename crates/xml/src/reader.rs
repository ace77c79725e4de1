//! Pull-based streaming XML parser.
//!
//! Scope: well-formed XML 1.0 documents restricted to what the paper's data
//! uses — elements, attributes, character data, CDATA sections, comments,
//! processing instructions and a DOCTYPE prolog (the latter three are
//! skipped). Namespaces are passed through verbatim as part of names.
//! Predefined and numeric character entities are decoded.
//!
//! Attributes are *expanded into leading element children* so that the
//! downstream transducers see the paper's attribute-free encoding.
//!
//! The reader tokenizes inside a contiguous window of its input: one `read`
//! fills the window, every construct that lies wholly inside it is
//! recognised in place (a word-at-a-time scan to the next `<` or `&`, a byte
//! table for names, UTF-8 validated once per text run), and a construct cut
//! off by the window's end waits for the next `read` behind what is left of
//! it. Element and attribute names are interned per reader, so an `Open`
//! costs an `Arc` clone and a text node one allocation.
//!
//! A consumer that has no use for a subtree says so with
//! [`XmlReader::skip_subtree`]: the same routines then *skim* it — every
//! check is made, no name is interned, no text allocated, no event queued.

use crate::error::XmlError;
use crate::event::{EventSource, XmlEvent};
use foxq_forest::Label;
use std::collections::VecDeque;
use std::io::{ErrorKind, Read};
use std::str::{from_utf8, Utf8Error};

/// How to treat text nodes that consist only of whitespace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WhitespaceMode {
    /// Drop text nodes that are entirely ASCII whitespace (the usual choice
    /// for data-oriented XML such as XMark; this is the default).
    #[default]
    SkipWhitespaceOnly,
    /// Keep all text nodes exactly as written.
    Preserve,
    /// Trim leading/trailing whitespace; drop the node if it becomes empty.
    Trim,
}

/// The window starts this small, so that a reader over a small document
/// costs what the document does, …
const FIRST_WINDOW: usize = 4 << 10;
/// … and doubles up to this while the input keeps filling it. Only a single
/// tag, text node or CDATA section longer than the window grows it further.
const WINDOW: usize = 64 << 10;

/// A pull parser over any `Read`, producing [`XmlEvent`]s.
///
/// The reader buffers for itself: hand it the file or the socket, not a
/// `BufReader` around it. It reads no further ahead than one window, and
/// only by calling `read` — an input that frames a message (a request
/// body) is never read past its end.
pub struct XmlReader<R> {
    input: R,
    /// `buf[pos..len]` is read and not yet tokenized, `buf[len..]` is room
    /// for the next read.
    buf: Vec<u8>,
    pos: usize,
    len: usize,
    /// Offset of `buf[0]` in the input (for error messages).
    base: u64,
    /// The input has reported its end.
    eof: bool,
    /// Set once Eof has been returned.
    finished: bool,
    /// Open/close events returned so far (Eof excluded). Lets callers prove
    /// single-pass properties: fanning one reader out to N engines must not
    /// move this counter faster than N = 1 would.
    events_read: u64,
    tokens: Tokenizer,
}

impl<R: Read> XmlReader<R> {
    pub fn new(input: R) -> Self {
        Self::with_mode(input, WhitespaceMode::default())
    }

    pub fn with_mode(input: R, ws: WhitespaceMode) -> Self {
        XmlReader {
            input,
            buf: Vec::new(),
            pos: 0,
            len: 0,
            base: 0,
            eof: false,
            finished: false,
            events_read: 0,
            tokens: Tokenizer {
                queue: VecDeque::new(),
                stack: Vec::new(),
                names: Names::default(),
                ws,
                skipping: None,
                doctype_depth: 0,
                scratch: Vec::new(),
                skim: false,
                skimmed: 0,
                skim_names: Vec::new(),
                skim_starts: Vec::new(),
            },
        }
    }

    /// Current depth of open elements.
    pub fn depth(&self) -> usize {
        self.tokens.depth()
    }

    /// Open/close events consumed so far (`Eof` excluded): the ones
    /// [`XmlReader::next_event`] returned and the ones
    /// [`XmlReader::skip_subtree`] counted.
    pub fn events_read(&self) -> u64 {
        self.events_read
    }

    /// Pull the next event. After `Eof` has been returned, keeps returning
    /// `Eof`.
    pub fn next_event(&mut self) -> Result<XmlEvent, XmlError> {
        let ev = self.pull_event()?;
        if ev != XmlEvent::Eof {
            self.events_read += 1;
        }
        Ok(ev)
    }

    /// Consume the rest of the innermost open node — right after an
    /// element's `Open`, its whole subtree — through the matching close,
    /// and return how many open + close events that was.
    ///
    /// The interior is *skimmed*: the tokenizer's own routines run over it
    /// and make every check they make for [`XmlReader::next_event`] (names,
    /// attribute syntax, references, UTF-8, close tag = innermost open
    /// name, text nodes counted per [`WhitespaceMode`] after decoding), so
    /// a malformed byte fails here with the error it always got; they only
    /// build nothing — no label, no text, no queued event.
    pub fn skip_subtree(&mut self) -> Result<u64, XmlError> {
        let (mut events, mut depth) = (0, 1usize);
        // Attribute children, and the close of a `<a/>` or a text node, are
        // already queued behind the `Open`.
        while depth > 0 {
            match self.tokens.queue.pop_front() {
                Some(XmlEvent::Open(_)) => depth += 1,
                Some(_) => depth -= 1,
                None => break,
            }
            events += 1;
        }
        if depth > 0 {
            self.tokens.skim = true;
            self.tokens.skimmed = 0;
            // Comes back with the close that ends the skim, or — nothing
            // was open — the end of the input.
            let end = self.pull_event();
            self.tokens.skim = false;
            events += self.tokens.skimmed + u64::from(end? != XmlEvent::Eof);
        }
        self.events_read += events;
        Ok(events)
    }

    fn pull_event(&mut self) -> Result<XmlEvent, XmlError> {
        loop {
            if let Some(ev) = self.tokens.queue.pop_front() {
                return Ok(ev);
            }
            if self.finished {
                return Ok(XmlEvent::Eof);
            }
            let window = &self.buf[self.pos..self.len];
            let at = self.base + self.pos as u64;
            match self.tokens.scan(window, at, self.eof)? {
                Scan::Event(ev, used) => {
                    self.pos += used;
                    return Ok(ev);
                }
                Scan::Skip(used) => self.pos += used,
                Scan::More(needle) => {
                    // A construct that holds the byte it ends with (a `>` in
                    // an attribute value, say) is not over when that byte
                    // arrives: it has to double before it is looked at
                    // again, or a hostile one is rescanned read after read.
                    let doubled = match window.contains(&needle) {
                        true => 2 * window.len(),
                        false => 0,
                    };
                    self.refill(needle, doubled)?;
                }
                Scan::End => self.finished = true,
            }
        }
    }

    /// Move what is left of the window to the front of the buffer and read
    /// behind it until `needle` arrives in a window of at least `at_least`
    /// bytes, the buffer is full or the input ends — usually one `read`.
    fn refill(&mut self, needle: u8, at_least: usize) -> Result<(), XmlError> {
        // Grow while reads use up all the room there is: up to `WINDOW`
        // because the input has more to give, beyond it because one
        // construct is longer than the buffer.
        let filled = self.len == self.buf.len();
        self.buf.copy_within(self.pos..self.len, 0);
        self.base += self.pos as u64;
        self.len -= self.pos;
        self.pos = 0;
        if filled && (self.buf.len() < WINDOW || self.len == self.buf.len()) {
            let size = (self.buf.len() * 2).max(FIRST_WINDOW);
            self.buf.resize(size, 0);
        }
        // The tokenizer rescans a cut-off construct from its start, so it
        // is asked again only once the byte that can end it is there: the
        // work per byte is constant, whatever size the input's reads are.
        let mut arrived = false;
        while self.len < self.buf.len() {
            match self.input.read(&mut self.buf[self.len..]) {
                Ok(0) => {
                    self.eof = true;
                    break;
                }
                Ok(n) => {
                    let fresh = self.len..self.len + n;
                    self.len = fresh.end;
                    arrived |= self.buf[fresh].contains(&needle);
                    if arrived && self.len >= at_least {
                        break;
                    }
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(XmlError::io_at(self.base + self.len as u64, e)),
            }
        }
        Ok(())
    }
}

impl<R: Read> EventSource for XmlReader<R> {
    fn next_event(&mut self) -> Result<XmlEvent, XmlError> {
        XmlReader::next_event(self)
    }

    fn events_read(&self) -> u64 {
        XmlReader::events_read(self)
    }

    fn skip_subtree(&mut self) -> Result<u64, XmlError> {
        XmlReader::skip_subtree(self)
    }
}

// ---- tokenizer ----------------------------------------------------------

/// What the tokenizer made of the front of a window.
enum Scan {
    /// An event — more may be queued behind it — and the bytes it used up.
    Event(XmlEvent, usize),
    /// That many bytes hold nothing to report.
    Skip(usize),
    /// The window ends inside a construct that cannot end before this byte
    /// arrives.
    More(u8),
    /// The input ended where a document may end.
    End,
}

/// Everything the reader knows apart from the window. Its methods are handed
/// the window — `win`, whose first byte lies at offset `at` of the input, and
/// which ends where the input does if `eof` — and never keep a reference
/// into it.
struct Tokenizer {
    /// Events synthesized but not yet returned (attribute expansion,
    /// self-closing tags, the close of a text node).
    queue: VecDeque<XmlEvent>,
    /// Names of currently open elements.
    stack: Vec<Label>,
    names: Names,
    ws: WhitespaceMode,
    /// Inside a comment, a processing instruction or a DOCTYPE literal:
    /// everything up to and including this terminator is skipped, in
    /// however many windows it takes.
    skipping: Option<&'static [u8]>,
    /// How many `<` of a DOCTYPE declaration await their `>`; 0 outside one.
    doctype_depth: usize,
    /// Text and attribute values that hold references are decoded here.
    scratch: Vec<u8>,
    /// Skimming ([`XmlReader::skip_subtree`]): every check is made, and what
    /// would have been an event is counted in `skimmed` instead. Ends with
    /// the close of the innermost element of `stack`, which is an event.
    /// (The few methods that look at this are `#[inline(always)]`: each
    /// finishes its caller's `Scan`, and tokenizing went from 34 to 41 ns
    /// per event when the compiler chose to call them instead.)
    skim: bool,
    skimmed: u64,
    /// The elements opened while skimming, innermost last: their names back
    /// to back — bytes are all a close tag is compared with — and where
    /// each name starts.
    skim_names: Vec<u8>,
    skim_starts: Vec<usize>,
}

/// The encoding signature a UTF-8 document may start with (XML 1.0 §4.3.3):
/// not character data.
const BOM: &[u8] = b"\xEF\xBB\xBF";

impl Tokenizer {
    fn scan(&mut self, win: &[u8], at: u64, eof: bool) -> Result<Scan, XmlError> {
        if let Some(terminator) = self.skipping {
            return self.skip_until(terminator, win, at, eof);
        }
        if self.doctype_depth > 0 {
            return self.doctype(win, at, eof);
        }
        if at == 0 {
            if win.starts_with(BOM) {
                return Ok(Scan::Skip(BOM.len()));
            }
            if !eof && BOM.starts_with(win) {
                // Text, if it is no signature: that waits for its `<` too.
                return Ok(Scan::More(b'<'));
            }
        }
        match win.first() {
            Some(b'<') => self.markup(win, at, eof),
            Some(_) => self.text(win, at, eof),
            None if !eof => Ok(Scan::More(b'<')),
            None if self.depth() == 0 => Ok(Scan::End),
            None => Err(self.eof_at(at)),
        }
    }

    fn depth(&self) -> usize {
        self.stack.len() + self.skim_starts.len()
    }

    fn eof_at(&self, offset: u64) -> XmlError {
        XmlError::UnexpectedEof {
            offset,
            open_elements: self.depth(),
        }
    }

    /// The window ends inside a construct that `needle` ends.
    fn cut_off(&self, needle: u8, win: &[u8], at: u64, eof: bool) -> Result<Scan, XmlError> {
        if eof {
            Err(self.eof_at(at + win.len() as u64))
        } else {
            Ok(Scan::More(needle))
        }
    }

    // ---- skipped constructs ---------------------------------------------

    fn skip_until(
        &mut self,
        terminator: &'static [u8],
        win: &[u8],
        at: u64,
        eof: bool,
    ) -> Result<Scan, XmlError> {
        // The window may end with the terminator's first bytes.
        let kept = terminator.len() - 1;
        if let Some(found) = find(win, terminator) {
            self.skipping = None;
            Ok(Scan::Skip(found + terminator.len()))
        } else if win.len() > kept {
            Ok(Scan::Skip(win.len() - kept))
        } else {
            self.cut_off(terminator[kept], win, at, eof)
        }
    }

    /// Inside `<!DOCTYPE … >`: the declaration ends with the `>` that
    /// balances its `<`, not counting those inside quoted literals, comments
    /// and processing instructions of the internal subset.
    fn doctype(&mut self, win: &[u8], at: u64, eof: bool) -> Result<Scan, XmlError> {
        let next = win
            .iter()
            .position(|c| matches!(c, b'<' | b'>' | b'"' | b'\''))
            .unwrap_or(win.len());
        let used = match &win[next..] {
            [b'"', ..] => {
                self.skipping = Some(b"\"");
                1
            }
            [b'\'', ..] => {
                self.skipping = Some(b"'");
                1
            }
            [b'>', ..] => {
                self.doctype_depth -= 1;
                1
            }
            [b'<', b'?', ..] => {
                self.skipping = Some(b"?>");
                2
            }
            [b'<', b'!', b'-', b'-', ..] => {
                self.skipping = Some(b"-->");
                4
            }
            // Nothing of interest, or too little of it to tell a comment
            // from a declaration: skip what is before it and wait.
            [] | [b'<'] | [b'<', b'!'] | [b'<', b'!', b'-'] => {
                return match next {
                    0 => self.cut_off(b'>', win, at, eof),
                    skipped => Ok(Scan::Skip(skipped)),
                };
            }
            // A declaration; the byte that showed it is no comment is
            // looked at again.
            [b'<', rest @ ..] => {
                self.doctype_depth += 1;
                match rest {
                    [b'!', b'-', ..] => 3,
                    [b'!', ..] => 2,
                    _ => 1,
                }
            }
            _ => unreachable!("`next` is the index of one of the four bytes above"),
        };
        Ok(Scan::Skip(next + used))
    }

    // ---- markup -----------------------------------------------------------

    /// `win` starts with `<`.
    fn markup(&mut self, win: &[u8], at: u64, eof: bool) -> Result<Scan, XmlError> {
        match win.get(1) {
            None => self.cut_off(b'>', win, at, eof),
            Some(b'/') => self.close_tag(win, at, eof),
            Some(b'?') => {
                self.skipping = Some(b"?>");
                Ok(Scan::Skip(2))
            }
            Some(b'!') => self.bang(win, at, eof),
            Some(&c) if is_name_start(c) => {
                let skimmed = self.skimmed;
                let scanned = self.open_tag(win, at, eof);
                if !matches!(scanned, Ok(Scan::Event(..) | Scan::Skip(_))) {
                    // Attributes of a tag that did not end (yet).
                    self.queue.clear();
                    self.skimmed = skimmed;
                }
                scanned
            }
            Some(&c) => syntax(
                at + 2,
                format!("unexpected character {:?} after '<'", c as char),
            ),
        }
    }

    /// `<name attr="v"…>` or `<name …/>`.
    fn open_tag(&mut self, win: &[u8], at: u64, eof: bool) -> Result<Scan, XmlError> {
        let Some((label, mut i)) = self.name(1, win, at, eof)? else {
            return Ok(Scan::More(b'>'));
        };
        let name = &win[1..i];
        loop {
            i = skip_ws(win, i);
            match win.get(i) {
                None => return self.cut_off(b'>', win, at, eof),
                Some(b'>') => return Ok(self.opened(label, name, false, i + 1)),
                Some(b'/') => {
                    return match win.get(i + 1) {
                        None => self.cut_off(b'>', win, at, eof),
                        Some(b'>') => Ok(self.opened(label, name, true, i + 2)),
                        Some(_) => syntax(at + i as u64 + 2, "expected '>' after '/'"),
                    };
                }
                Some(&c) if is_name_start(c) => match self.attribute(i, win, at, eof)? {
                    Some(end) => i = end,
                    None => return self.cut_off(b'>', win, at, eof),
                },
                Some(&c) => {
                    return syntax(
                        at + i as u64 + 1,
                        format!("unexpected {:?} in start tag", c as char),
                    );
                }
            }
        }
    }

    /// The start tag of `name` is complete, and `empty` if it is `<name/>`:
    /// the open event — or, skimming, one more element to count and match.
    #[inline(always)]
    fn opened(&mut self, label: Option<Label>, name: &[u8], empty: bool, used: usize) -> Scan {
        let Some(label) = label else {
            self.skimmed += 1 + u64::from(empty);
            if !empty {
                self.skim_starts.push(self.skim_names.len());
                self.skim_names.extend_from_slice(name);
            }
            return Scan::Skip(used);
        };
        if empty {
            self.queue.push_back(XmlEvent::Close(label.clone()));
        } else {
            self.stack.push(label.clone());
        }
        Scan::Event(XmlEvent::Open(label), used)
    }

    /// The name that starts at `win[start]` and where it ends, `None` if
    /// the window may end inside it. The name comes as a label, or — while
    /// skimming — checked and as no label at all.
    #[inline(always)]
    fn name(
        &mut self,
        start: usize,
        win: &[u8],
        at: u64,
        eof: bool,
    ) -> Result<Option<(Option<Label>, usize)>, XmlError> {
        let end = name_end(win, start + 1);
        if end == win.len() && !eof {
            return Ok(None);
        }
        let name = &win[start..end];
        let label = if !self.skim {
            self.names.label(name).map(Some)
        } else if name.is_ascii() {
            Ok(None) // nearly always, and told faster than by `from_utf8`
        } else {
            from_utf8(name).map(|_| None)
        };
        match label {
            Ok(label) => Ok(Some((label, end))),
            Err(_) => Err(XmlError::Utf8 {
                offset: at + end as u64,
            }),
        }
    }

    /// The attribute whose name starts at `win[start]`: queues `<e a="v">` as
    /// the child `a("v")` and returns where it ends, `None` if the window
    /// ends first.
    fn attribute(
        &mut self,
        start: usize,
        win: &[u8],
        at: u64,
        eof: bool,
    ) -> Result<Option<usize>, XmlError> {
        let Some((name, end)) = self.name(start, win, at, eof)? else {
            return Ok(None);
        };
        let mut i = skip_ws(win, end);
        match win.get(i) {
            None => return Ok(None),
            Some(b'=') => {}
            Some(_) => return syntax(at + i as u64 + 1, "expected '=' in attribute"),
        }
        i = skip_ws(win, i + 1);
        let quote = match win.get(i) {
            None => return Ok(None),
            Some(&quote @ (b'"' | b'\'')) => quote,
            Some(_) => return syntax(at + i as u64 + 1, "expected quoted attribute value"),
        };
        let from = i + 1;
        let Some(plain) = win[from..].iter().position(|&c| c == quote || c == b'&') else {
            return Ok(None);
        };
        let mut end = from + plain;
        let value = if win[end] == quote {
            &win[from..end]
        } else {
            self.scratch.clear();
            match decode_run(win, from, quote, at, &mut self.scratch)? {
                Some(closing) if closing < win.len() => end = closing,
                _ => return Ok(None),
            }
            &self.scratch
        };
        let value = from_utf8(value).map_err(|_| XmlError::Utf8 {
            offset: at + end as u64 + 1,
        })?;
        let Some(name) = name else {
            self.skimmed += if value.is_empty() { 2 } else { 4 };
            return Ok(Some(end + 1));
        };
        self.queue.push_back(XmlEvent::Open(name.clone()));
        if !value.is_empty() {
            let text = Label::text(value);
            self.queue.push_back(XmlEvent::Open(text.clone()));
            self.queue.push_back(XmlEvent::Close(text));
        }
        self.queue.push_back(XmlEvent::Close(name));
        Ok(Some(end + 1))
    }

    /// `</name>`.
    fn close_tag(&mut self, win: &[u8], at: u64, eof: bool) -> Result<Scan, XmlError> {
        // Nearly always the innermost open element's name and a `>`.
        let top = self.top_name();
        let end = 2 + top.map_or(0, <[u8]>::len);
        if win.get(end) == Some(&b'>') && top.is_some_and(|top| win[2..end] == *top) {
            return Ok(self.closed(end + 1));
        }
        match win.get(2) {
            None => return self.cut_off(b'>', win, at, eof),
            Some(&c) if is_name_start(c) => {}
            Some(_) => return syntax(at + 3, "expected element name in closing tag"),
        }
        let end = name_end(win, 3);
        if end == win.len() && !eof {
            return Ok(Scan::More(b'>'));
        }
        let found = from_utf8(&win[2..end]).map_err(|_| XmlError::Utf8 {
            offset: at + end as u64,
        })?;
        let i = skip_ws(win, end);
        match win.get(i) {
            None => return self.cut_off(b'>', win, at, eof),
            Some(b'>') => {}
            Some(_) => return syntax(at + i as u64 + 1, "expected '>' in closing tag"),
        }
        match self.top_name() {
            Some(top) if top == found.as_bytes() => Ok(self.closed(i + 1)),
            top => Err(XmlError::MismatchedClose {
                offset: at + i as u64 + 1,
                expected: match top {
                    Some(top) => String::from_utf8_lossy(top).into_owned(),
                    None => "(document end)".into(),
                },
                found: found.into(),
            }),
        }
    }

    /// The name of the innermost open element.
    #[inline(always)]
    fn top_name(&self) -> Option<&[u8]> {
        match self.skim_starts.last() {
            Some(&start) => Some(&self.skim_names[start..]),
            None => self.stack.last().map(|label| label.name.as_bytes()),
        }
    }

    /// The innermost open element is closed: counted, if it was opened
    /// while skimming; if not, an event — the one a skim ends with.
    #[inline(always)]
    fn closed(&mut self, used: usize) -> Scan {
        if let Some(start) = self.skim_starts.pop() {
            self.skim_names.truncate(start);
            self.skimmed += 1;
            return Scan::Skip(used);
        }
        let label = self.stack.pop().expect("an element is open");
        Scan::Event(XmlEvent::Close(label), used)
    }

    /// `<!…`: comment, CDATA or DOCTYPE. CDATA is treated as text.
    fn bang(&mut self, win: &[u8], at: u64, eof: bool) -> Result<Scan, XmlError> {
        match &win[2..] {
            [] | [b'-'] => self.cut_off(b'>', win, at, eof),
            [b'-', b'-', ..] => {
                self.skipping = Some(b"-->");
                Ok(Scan::Skip(4))
            }
            [b'-', ..] => syntax(at + 4, "malformed comment"),
            [b'[', ..] => self.cdata(win, at, eof),
            [b'D', ..] => {
                self.doctype_depth = 1; // the '<' of <!DOCTYPE
                Ok(Scan::Skip(3))
            }
            [_, ..] => syntax(at + 3, "unsupported '<!' construct"),
        }
    }

    /// `<![CDATA[ … ]]>` — a text node (no entity decoding, no whitespace
    /// mode).
    fn cdata(&mut self, win: &[u8], at: u64, eof: bool) -> Result<Scan, XmlError> {
        const OPEN: &[u8] = b"<![CDATA[";
        for (i, expected) in OPEN.iter().enumerate().skip(3) {
            match win.get(i) {
                None => return self.cut_off(b'>', win, at, eof),
                Some(c) if c == expected => {}
                Some(_) => return syntax(at + i as u64 + 1, "malformed CDATA section"),
            }
        }
        let Some(len) = find(&win[OPEN.len()..], b"]]>") else {
            return self.cut_off(b'>', win, at, eof);
        };
        let end = OPEN.len() + len + 3;
        let content = from_utf8(&win[OPEN.len()..][..len]).map_err(|_| XmlError::Utf8 {
            offset: at + end as u64,
        })?;
        Ok(if content.is_empty() {
            Scan::Skip(end)
        } else {
            let label = self.text_label(content);
            self.text_node(label, end)
        })
    }

    // ---- text -------------------------------------------------------------

    /// Character data up to the next `<`.
    fn text(&mut self, win: &[u8], at: u64, eof: bool) -> Result<Scan, XmlError> {
        let mut end = find_markup(win);
        let run = match win.get(end) {
            Some(b'<') => &win[..end],
            None if eof => win,
            None => return Ok(Scan::More(b'<')),
            Some(_) => {
                self.scratch.clear();
                match decode_run(win, 0, b'<', at, &mut self.scratch)? {
                    Some(stop) if stop < win.len() || eof => end = stop,
                    _ => return self.cut_off(b'<', win, at, eof),
                }
                &self.scratch
            }
        };
        if self.ws == WhitespaceMode::SkipWhitespaceOnly
            && run.iter().all(|c| c.is_ascii_whitespace())
        {
            return Ok(Scan::Skip(end));
        }
        let mut content = from_utf8(run).map_err(|_| XmlError::Utf8 {
            offset: at + end as u64,
        })?;
        if self.ws == WhitespaceMode::Trim {
            content = content.trim();
            if content.is_empty() {
                return Ok(Scan::Skip(end));
            }
        }
        let label = self.text_label(content);
        Ok(self.text_node(label, end))
    }

    /// The label of a text node; none while skimming, as for a name.
    #[inline(always)]
    fn text_label(&self, content: &str) -> Option<Label> {
        (!self.skim).then(|| Label::text(content))
    }

    /// The open event of a text node, its close queued behind it — or,
    /// skimming, two more events to count.
    #[inline(always)]
    fn text_node(&mut self, label: Option<Label>, used: usize) -> Scan {
        let Some(label) = label else {
            self.skimmed += 2;
            return Scan::Skip(used);
        };
        self.queue.push_back(XmlEvent::Close(label.clone()));
        Scan::Event(XmlEvent::Open(label), used)
    }
}

fn syntax<T>(offset: u64, msg: impl Into<String>) -> Result<T, XmlError> {
    Err(XmlError::Syntax {
        offset,
        msg: msg.into(),
    })
}

/// Copy `win[from..]` up to its first `stop` byte (or the window's end) onto
/// `out`, references decoded. Returns where the run stopped; `None` if the
/// window ends inside a reference.
fn decode_run(
    win: &[u8],
    from: usize,
    stop: u8,
    at: u64,
    out: &mut Vec<u8>,
) -> Result<Option<usize>, XmlError> {
    let mut i = from;
    loop {
        let plain = win[i..]
            .iter()
            .position(|&c| c == stop || c == b'&')
            .unwrap_or(win.len() - i);
        out.extend_from_slice(&win[i..i + plain]);
        i += plain;
        if win.get(i) != Some(&b'&') {
            return Ok(Some(i));
        }
        match reference(win, i, at, out)? {
            Some(end) => i = end,
            None => return Ok(None),
        }
    }
}

/// Decode the reference whose `&` is `win[amp]` onto `out`. Returns the
/// index behind its `;`, `None` if the window ends first.
fn reference(
    win: &[u8],
    amp: usize,
    at: u64,
    out: &mut Vec<u8>,
) -> Result<Option<usize>, XmlError> {
    let body = &win[amp + 1..];
    let mut len = 0;
    loop {
        match body.get(len) {
            None => return Ok(None),
            Some(b';') => break,
            Some(_) if len > 16 => {
                return syntax(at + (amp + len) as u64 + 2, "entity reference too long");
            }
            Some(_) => len += 1,
        }
    }
    let end = amp + len + 2;
    let offset = at + end as u64;
    match &body[..len] {
        b"lt" => out.push(b'<'),
        b"gt" => out.push(b'>'),
        b"amp" => out.push(b'&'),
        b"apos" => out.push(b'\''),
        b"quot" => out.push(b'"'),
        [b'#', digits @ ..] => {
            let s = from_utf8(digits).map_err(|_| XmlError::Utf8 { offset })?;
            let code = if let Some(hex) = s.strip_prefix('x').or_else(|| s.strip_prefix('X')) {
                u32::from_str_radix(hex, 16)
            } else {
                s.parse::<u32>()
            };
            let Ok(code) = code else {
                return syntax(offset, "bad numeric character reference");
            };
            // XML 1.0 `Char`: no C0 control but tab, LF and CR, no
            // surrogate (`from_u32` refuses those), not #xFFFE / #xFFFF.
            let legal =
                matches!(code, 0x9 | 0xA | 0xD | 0x20..) && !matches!(code, 0xFFFE | 0xFFFF);
            match char::from_u32(code).filter(|_| legal) {
                Some(ch) => out.extend_from_slice(ch.encode_utf8(&mut [0u8; 4]).as_bytes()),
                None => return syntax(offset, "invalid character code"),
            }
        }
        _ => return syntax(offset, "unknown entity reference"),
    }
    Ok(Some(end))
}

// ---- byte scanning ------------------------------------------------------

/// Index of the first `<` or `&` of `hay`, or its length: eight bytes at a
/// time.
fn find_markup(hay: &[u8]) -> usize {
    const LOW: u64 = 0x0101_0101_0101_0101;
    const HIGH: u64 = 0x8080_8080_8080_8080;
    // The high bit of every zero byte of `word` (and of some bytes above
    // the lowest zero byte, which is the one looked at).
    let zero_bytes = |word: u64| word.wrapping_sub(LOW) & !word & HIGH;
    let mut words = hay.chunks_exact(8);
    let mut at = 0;
    for word in &mut words {
        let word = u64::from_le_bytes(word.try_into().expect("chunks of eight"));
        let hits = zero_bytes(word ^ (LOW * b'<' as u64)) | zero_bytes(word ^ (LOW * b'&' as u64));
        if hits != 0 {
            return at + hits.trailing_zeros() as usize / 8;
        }
        at += 8;
    }
    let tail = words.remainder();
    at + tail
        .iter()
        .position(|&c| c == b'<' || c == b'&')
        .unwrap_or(tail.len())
}

fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

const NAME_START: u8 = 1;
const NAME: u8 = 2;

/// Which bytes start and continue a name. Every byte of a multi-byte
/// character does both; what they spell is checked as UTF-8 once per name.
static NAME_BYTES: [u8; 256] = {
    let mut class = [0u8; 256];
    let mut c = 0;
    while c < 256 {
        let byte = c as u8;
        if byte.is_ascii_alphabetic() || byte == b'_' || byte >= 0x80 {
            class[c] = NAME_START | NAME;
        } else if byte.is_ascii_digit() || matches!(byte, b'-' | b'.' | b':') {
            class[c] = NAME;
        }
        c += 1;
    }
    class
};

fn is_name_start(c: u8) -> bool {
    NAME_BYTES[c as usize] & NAME_START != 0
}

/// Index of the first byte of `win[from..]` that does not continue a name.
fn name_end(win: &[u8], from: usize) -> usize {
    win[from..]
        .iter()
        .position(|&c| NAME_BYTES[c as usize] & NAME == 0)
        .map_or(win.len(), |n| from + n)
}

/// Index of the first byte of `win[from..]` that is not whitespace.
fn skip_ws(win: &[u8], from: usize) -> usize {
    win[from..]
        .iter()
        .position(|c| !c.is_ascii_whitespace())
        .map_or(win.len(), |n| from + n)
}

// ---- names --------------------------------------------------------------

/// The table starts with this many slots and doubles when half full, …
const FIRST_SLOTS: usize = 64;
/// … up to this many, i.e. `MAX_SLOTS / 2` names, …
const MAX_SLOTS: usize = 2048;
/// … of this many bytes in total.
const MAX_NAME_BYTES: usize = 64 << 10;
/// A name lives in one of this many slots, from where its hash points on.
const PROBES: usize = 16;

/// The element and attribute names seen so far, so that the label of a
/// start tag is an `Arc` clone.
///
/// The names are the document's, so nothing here relies on the hash being
/// hard to collide or on the vocabulary being small: a name that finds
/// neither itself nor a free slot among its [`PROBES`] slots, or that comes
/// after the table has reached its caps, gets a label of its own every time
/// — slower, same events.
#[derive(Default)]
struct Names {
    /// Empty, or a power of two of slots that hashes point to and
    /// `PROBES - 1` more behind them.
    slots: Vec<Option<Label>>,
    held: usize,
    held_bytes: usize,
}

impl Names {
    /// The element label of `name`.
    fn label(&mut self, name: &[u8]) -> Result<Label, Utf8Error> {
        let known = self.slots[self.slots_of(name)]
            .iter()
            .flatten()
            .find(|label| label.name.as_bytes() == name);
        if let Some(label) = known {
            return Ok(label.clone());
        }
        let label = Label::elem(from_utf8(name)?);
        if self.held_bytes + name.len() <= MAX_NAME_BYTES {
            if self.held * 2 >= self.hashed_slots() && self.hashed_slots() < MAX_SLOTS {
                self.grow();
            }
            if self.held * 2 < self.hashed_slots() {
                self.keep(label.clone());
            }
        }
        Ok(label)
    }

    fn hashed_slots(&self) -> usize {
        self.slots.len().saturating_sub(PROBES - 1)
    }

    /// The slots `name` may live in.
    fn slots_of(&self, name: &[u8]) -> std::ops::Range<usize> {
        if self.slots.is_empty() {
            return 0..0;
        }
        // The high bits of a multiplicative hash are the mixed ones.
        let home = (hash(name) >> (64 - self.hashed_slots().trailing_zeros())) as usize;
        home..home + PROBES
    }

    fn keep(&mut self, label: Label) {
        let slots = self.slots_of(label.name.as_bytes());
        if let Some(free) = self.slots[slots].iter_mut().find(|slot| slot.is_none()) {
            self.held += 1;
            self.held_bytes += label.name.len();
            *free = Some(label);
        }
    }

    fn grow(&mut self) {
        let hashed = (self.hashed_slots() * 2).max(FIRST_SLOTS);
        let old = std::mem::replace(&mut self.slots, vec![None; hashed + PROBES - 1]);
        self.held = 0;
        self.held_bytes = 0;
        for label in old.into_iter().flatten() {
            self.keep(label);
        }
    }
}

/// Cheap, and easy to collide on purpose; see [`Names`] for why that is
/// affordable.
fn hash(name: &[u8]) -> u64 {
    const K: u64 = 0x517C_C1B7_2722_0A95;
    let mut words = name.chunks_exact(8);
    let mut h = name.len() as u64;
    for word in &mut words {
        let word = u64::from_le_bytes(word.try_into().expect("chunks of eight"));
        h = (h.rotate_left(5) ^ word).wrapping_mul(K);
    }
    let tail = words
        .remainder()
        .iter()
        .fold(0u64, |tail, &c| tail << 8 | c as u64);
    (h.rotate_left(5) ^ tail).wrapping_mul(K)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn events(xml: &str) -> Vec<XmlEvent> {
        events_mode(xml, WhitespaceMode::default())
    }

    fn events_mode(xml: &str, ws: WhitespaceMode) -> Vec<XmlEvent> {
        let mut r = XmlReader::with_mode(xml.as_bytes(), ws);
        let mut out = Vec::new();
        loop {
            let ev = r.next_event().unwrap();
            let done = ev == XmlEvent::Eof;
            out.push(ev);
            if done {
                break;
            }
        }
        out
    }

    fn open(n: &str) -> XmlEvent {
        XmlEvent::Open(Label::elem(n))
    }
    fn close(n: &str) -> XmlEvent {
        XmlEvent::Close(Label::elem(n))
    }
    fn topen(t: &str) -> XmlEvent {
        XmlEvent::Open(Label::text(t))
    }
    fn tclose(t: &str) -> XmlEvent {
        XmlEvent::Close(Label::text(t))
    }

    #[test]
    fn simple_element() {
        assert_eq!(
            events("<a><b/></a>"),
            vec![open("a"), open("b"), close("b"), close("a"), XmlEvent::Eof]
        );
    }

    #[test]
    fn text_and_whitespace_modes() {
        assert_eq!(
            events("<a> hi </a>"),
            vec![
                open("a"),
                topen(" hi "),
                tclose(" hi "),
                close("a"),
                XmlEvent::Eof
            ]
        );
        assert_eq!(
            events("<a>  \n </a>"),
            vec![open("a"), close("a"), XmlEvent::Eof]
        );
        assert_eq!(
            events_mode("<a> hi </a>", WhitespaceMode::Trim),
            vec![
                open("a"),
                topen("hi"),
                tclose("hi"),
                close("a"),
                XmlEvent::Eof
            ]
        );
        assert_eq!(
            events_mode("<a> </a>", WhitespaceMode::Preserve),
            vec![
                open("a"),
                topen(" "),
                tclose(" "),
                close("a"),
                XmlEvent::Eof
            ]
        );
    }

    #[test]
    fn attributes_expand_in_order() {
        assert_eq!(
            events(r#"<a x="1" y=''/>"#),
            vec![
                open("a"),
                open("x"),
                topen("1"),
                tclose("1"),
                close("x"),
                open("y"),
                close("y"),
                close("a"),
                XmlEvent::Eof
            ]
        );
    }

    #[test]
    fn entities_decode() {
        assert_eq!(
            events("<a>&lt;x&gt; &amp; &#65;&#x42;</a>"),
            vec![
                open("a"),
                topen("<x> & AB"),
                tclose("<x> & AB"),
                close("a"),
                XmlEvent::Eof
            ]
        );
    }

    #[test]
    fn comments_pis_doctype_skipped() {
        let xml = "<?xml version=\"1.0\"?><!DOCTYPE site SYSTEM \"x.dtd\" [<!ENTITY e \"v\">]>\n<a><!-- note --><b/></a>";
        assert_eq!(
            events(xml),
            vec![open("a"), open("b"), close("b"), close("a"), XmlEvent::Eof]
        );
    }

    #[test]
    fn doctype_literals_comments_and_pis_may_hold_angle_brackets() {
        // Each of these used to end the DOCTYPE at the `>` inside it and
        // hand the rest of the subset on as top-level text (`]>`).
        let a = vec![open("a"), close("a"), XmlEvent::Eof];
        assert_eq!(events("<!DOCTYPE a [<!ENTITY e \"x>y\">]><a/>"), a);
        assert_eq!(events("<!DOCTYPE a [<!-- a > b -->]><a/>"), a);
        assert_eq!(events("<!DOCTYPE a [<?pi a > b ?>]><a/>"), a);
        assert_eq!(
            events("<!DOCTYPE a SYSTEM 'x>y.dtd' [<!ATTLIST a b CDATA '<'>]><a/>"),
            a
        );
        // A literal that never ends takes the document with it.
        let unterminated = "<!DOCTYPE a [<!ENTITY e \"x>y>]><a/>";
        let mut r = XmlReader::new(unterminated.as_bytes());
        match r.next_event() {
            Err(XmlError::UnexpectedEof {
                offset,
                open_elements: 0,
            }) => assert_eq!(offset, unterminated.len() as u64),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn terminators_overlapping_their_own_prefix_end_the_construct() {
        // `---` before `>`, `??` before `>`, `]]]` before `>`: the byte
        // that breaks a partial match may itself continue one.
        let a_b = vec![open("a"), open("b"), close("b"), close("a"), XmlEvent::Eof];
        assert_eq!(events("<a><!-- c ---><b/><!-- d --></a>"), a_b);
        assert_eq!(events("<a><!-----><b/><!-- - -- d --></a>"), a_b);
        assert_eq!(events("<a><?pi c ??><b/><?pi d?></a>"), a_b);
        assert_eq!(
            events("<a><![CDATA[c]]]><b/><![CDATA[]]]]></a>"),
            vec![
                open("a"),
                topen("c]"),
                tclose("c]"),
                open("b"),
                close("b"),
                topen("]]"),
                tclose("]]"),
                close("a"),
                XmlEvent::Eof
            ]
        );
    }

    #[test]
    fn illegal_character_references_are_syntax_errors() {
        for reference in [
            "&#0;", "&#x0;", "&#8;", "&#x1F;", "&#xFFFE;", "&#65535;", "&#xD800;",
        ] {
            for xml in [
                format!("<a>x{reference}</a>"),
                format!("<a t='{reference}'/>"),
            ] {
                let mut reader = XmlReader::new(xml.as_bytes());
                let error = loop {
                    match reader.next_event() {
                        Ok(XmlEvent::Eof) => panic!("{xml} accepted"),
                        Ok(_) => {}
                        Err(e) => break e,
                    }
                };
                assert!(matches!(error, XmlError::Syntax { .. }), "{xml}: {error}");
            }
        }
        // The legal control characters and the edges of the legal ranges.
        assert_eq!(
            events("<a>x&#9;&#xA;&#13;&#x20;&#xD7FF;&#xE000;&#xFFFD;&#x10000;&#x10FFFF;</a>")[1],
            topen("x\t\n\r \u{D7FF}\u{E000}\u{FFFD}\u{10000}\u{10FFFF}")
        );
    }

    #[test]
    fn cdata_is_text() {
        assert_eq!(
            events("<a><![CDATA[<raw> & stuff]]></a>"),
            vec![
                open("a"),
                topen("<raw> & stuff"),
                tclose("<raw> & stuff"),
                close("a"),
                XmlEvent::Eof
            ]
        );
    }

    #[test]
    fn mismatched_close_is_an_error() {
        let mut r = XmlReader::new("<a></b>".as_bytes());
        r.next_event().unwrap();
        assert!(matches!(
            r.next_event(),
            Err(XmlError::MismatchedClose { .. })
        ));
    }

    #[test]
    fn eof_inside_element_is_an_error() {
        let mut r = XmlReader::new("<a><b>".as_bytes());
        r.next_event().unwrap();
        r.next_event().unwrap();
        assert!(matches!(
            r.next_event(),
            Err(XmlError::UnexpectedEof { .. })
        ));
    }

    #[test]
    fn eof_is_sticky() {
        let mut r = XmlReader::new("<a/>".as_bytes());
        while r.next_event().unwrap() != XmlEvent::Eof {}
        assert_eq!(r.next_event().unwrap(), XmlEvent::Eof);
    }

    #[test]
    fn events_read_counts_open_close_only() {
        let mut r = XmlReader::new("<a><b/>hi</a>".as_bytes());
        while r.next_event().unwrap() != XmlEvent::Eof {}
        // a, b, "hi" — 3 opens + 3 closes; sticky Eof does not count.
        assert_eq!(r.events_read(), 6);
        let _ = r.next_event().unwrap();
        assert_eq!(r.events_read(), 6);
    }

    #[test]
    fn a_byte_order_mark_is_the_signature_at_offset_0_and_text_elsewhere() {
        let a_x = vec![
            open("a"),
            topen("x"),
            tclose("x"),
            close("a"),
            XmlEvent::Eof,
        ];
        assert_eq!(events("\u{FEFF}<a>x</a>"), a_x);
        assert_eq!(events("\u{FEFF}<?xml version='1.0'?><a>x</a>"), a_x);
        assert_eq!(events("<a>\u{FEFF}x</a>")[1], topen("\u{FEFF}x"));
        assert_eq!(events("\u{FEFF}\u{FEFF}<a/>")[0], topen("\u{FEFF}"));
        // Error offsets keep counting its three bytes.
        let mut r = XmlReader::new("\u{FEFF}<a></b>".as_bytes());
        r.next_event().unwrap();
        match r.next_event() {
            Err(XmlError::MismatchedClose { offset, .. }) => assert_eq!(offset, 10),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn skip_subtree_counts_what_it_does_not_build() {
        let xml = r#"<r><a x="1" y=""><b>t &amp; u</b><!-- c --><c/> </a>tail<d z="2"/><e/></r>"#;
        let mut r = XmlReader::new(xml.as_bytes());
        assert_eq!(r.next_event().unwrap(), open("r"));
        assert_eq!(r.next_event().unwrap(), open("a"));
        // x("1") y() b("t & u") c and the close of a.
        assert_eq!(r.skip_subtree().unwrap(), 4 + 2 + 4 + 2 + 1);
        assert_eq!((r.depth(), r.events_read()), (1, 15));
        // A text node, and elements whose close is queued behind the open.
        assert_eq!(r.next_event().unwrap(), topen("tail"));
        assert_eq!(r.skip_subtree().unwrap(), 1);
        assert_eq!(r.next_event().unwrap(), open("d"));
        assert_eq!(r.skip_subtree().unwrap(), 4 + 1);
        assert_eq!(r.next_event().unwrap(), open("e"));
        assert_eq!(r.skip_subtree().unwrap(), 1);
        assert_eq!(r.next_event().unwrap(), close("r"));
        assert_eq!(r.next_event().unwrap(), XmlEvent::Eof);
        assert_eq!(r.events_read(), events(xml).len() as u64 - 1);
    }

    #[test]
    fn a_skimmed_subtree_fails_as_it_would_have_failed_pulled() {
        for xml in [
            "<r><a><b></c></b></a></r>",
            "<r><a><b>&bogus;</b></a></r>",
            "<r><a><b x='\u{FFFD}' y=1/></a></r>",
            "<r><a><b>",
        ] {
            let mut pulled = XmlReader::new(xml.as_bytes());
            let expected = loop {
                if let Err(e) = pulled.next_event() {
                    break format!("{e:?}");
                }
            };
            let mut r = XmlReader::new(xml.as_bytes());
            r.next_event().unwrap();
            r.next_event().unwrap();
            assert_eq!(format!("{:?}", r.skip_subtree().unwrap_err()), expected);
        }
    }

    #[test]
    fn multiple_top_level_trees_allowed() {
        // Forests, not just documents (Definition 1 allows n ≥ 0 trees).
        assert_eq!(
            events("<a/><b/>"),
            vec![open("a"), close("a"), open("b"), close("b"), XmlEvent::Eof]
        );
    }

    #[test]
    fn attribute_entity_and_quotes() {
        assert_eq!(
            events(r#"<a t="&quot;x&apos;"/>"#),
            vec![
                open("a"),
                open("t"),
                topen("\"x'"),
                tclose("\"x'"),
                close("t"),
                close("a"),
                XmlEvent::Eof
            ]
        );
    }
}
