//! The byte-at-a-time XML reader that `foxq_xml::XmlReader` replaced, kept
//! as the differential oracle of `tests/xml_windows.rs`.
//!
//! This is the reader of commit 0b6e4f5 moved here verbatim — one
//! `fill_buf` + `consume(1)` per byte, a `Vec` → `String` → `Arc<str>` per
//! name and text — with three edits: it is called `ByteReader`,
//! `skip_doctype` honours quoted literals, comments and processing
//! instructions inside the internal subset (the fix the in-window reader
//! shipped with), and a UTF-8 byte-order mark at offset 0 is dropped (the
//! fix the skimming reader shipped with), so that the two define the same
//! language. Every event, every error variant and every error offset of the
//! in-window reader must equal what this one produces — and what
//! `XmlReader::skip_subtree` counts and fails with must equal what pulling
//! the same subtree from this one does (`EventSource`'s default body).

use foxq::forest::Label;
use foxq::xml::{EventSource, WhitespaceMode, XmlError, XmlEvent};
use std::collections::VecDeque;
use std::io::BufRead;

/// A pull parser over any `BufRead`, producing [`XmlEvent`]s.
pub struct ByteReader<R> {
    input: R,
    /// Byte offset of the next unread byte (for error messages).
    offset: u64,
    /// One byte of pushback.
    pushback: Option<u8>,
    /// Events synthesized but not yet returned (attribute expansion,
    /// self-closing tags).
    queue: VecDeque<XmlEvent>,
    /// Names of currently open elements.
    stack: Vec<Label>,
    ws: WhitespaceMode,
    /// Open/close events returned so far (Eof excluded). Lets callers prove
    /// single-pass properties: fanning one reader out to N engines must not
    /// move this counter faster than N = 1 would.
    events_read: u64,
    /// Set once Eof has been returned.
    finished: bool,
    /// Scratch buffer reused across text nodes.
    scratch: Vec<u8>,
}

impl<R: BufRead> ByteReader<R> {
    pub fn new(input: R) -> Self {
        Self::with_mode(input, WhitespaceMode::default())
    }

    pub fn with_mode(input: R, ws: WhitespaceMode) -> Self {
        ByteReader {
            input,
            offset: 0,
            pushback: None,
            queue: VecDeque::new(),
            stack: Vec::new(),
            ws,
            events_read: 0,
            finished: false,
            scratch: Vec::new(),
        }
    }

    /// Current depth of open elements.
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    /// Open/close events returned so far (`Eof` excluded).
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

    fn pull_event(&mut self) -> Result<XmlEvent, XmlError> {
        if let Some(ev) = self.queue.pop_front() {
            return Ok(ev);
        }
        if self.finished {
            return Ok(XmlEvent::Eof);
        }
        if self.offset == 0 {
            // The encoding signature (XML 1.0 §4.3.3) is not character
            // data. The oracle is only ever handed a slice, whose first
            // `fill_buf` holds all there is.
            let offset = self.offset;
            let buf = self
                .input
                .fill_buf()
                .map_err(|e| XmlError::io_at(offset, e))?;
            if buf.starts_with(b"\xEF\xBB\xBF") {
                self.input.consume(3);
                self.offset = 3;
            }
        }
        loop {
            match self.read_byte()? {
                None => {
                    if !self.stack.is_empty() {
                        return Err(XmlError::UnexpectedEof {
                            offset: self.offset,
                            open_elements: self.stack.len(),
                        });
                    }
                    self.finished = true;
                    return Ok(XmlEvent::Eof);
                }
                Some(b'<') => {
                    if let Some(ev) = self.markup()? {
                        return Ok(ev);
                    }
                    // Comment / PI / DOCTYPE: keep scanning.
                    if let Some(ev) = self.queue.pop_front() {
                        return Ok(ev);
                    }
                }
                Some(c) => {
                    if let Some(ev) = self.text(c)? {
                        return Ok(ev);
                    }
                    // Whitespace-only text dropped: keep scanning.
                }
            }
        }
    }

    // ---- byte-level helpers -------------------------------------------

    fn read_byte(&mut self) -> Result<Option<u8>, XmlError> {
        if let Some(b) = self.pushback.take() {
            self.offset += 1;
            return Ok(Some(b));
        }
        let offset = self.offset;
        let buf = self
            .input
            .fill_buf()
            .map_err(|e| XmlError::io_at(offset, e))?;
        if buf.is_empty() {
            return Ok(None);
        }
        let b = buf[0];
        self.input.consume(1);
        self.offset += 1;
        Ok(Some(b))
    }

    fn unread(&mut self, b: u8) {
        debug_assert!(self.pushback.is_none());
        self.pushback = Some(b);
        self.offset -= 1;
    }

    fn expect_byte(&mut self) -> Result<u8, XmlError> {
        self.read_byte()?.ok_or(XmlError::UnexpectedEof {
            offset: self.offset,
            open_elements: self.stack.len(),
        })
    }

    fn syntax<T>(&self, msg: impl Into<String>) -> Result<T, XmlError> {
        Err(XmlError::Syntax {
            offset: self.offset,
            msg: msg.into(),
        })
    }

    // ---- markup --------------------------------------------------------

    /// Called after consuming `<`. Returns an event for tags, `None` for
    /// skipped constructs (with possible queued events).
    fn markup(&mut self) -> Result<Option<XmlEvent>, XmlError> {
        match self.expect_byte()? {
            b'/' => self.close_tag().map(Some),
            b'!' => {
                self.bang()?;
                Ok(None)
            }
            b'?' => {
                self.skip_until(b"?>")?;
                Ok(None)
            }
            c if is_name_start(c) => self.open_tag(c).map(Some),
            c => self.syntax(format!("unexpected character {:?} after '<'", c as char)),
        }
    }

    fn read_name(&mut self, first: u8) -> Result<String, XmlError> {
        let mut name = Vec::with_capacity(16);
        name.push(first);
        loop {
            match self.read_byte()? {
                Some(c) if is_name_cont(c) => name.push(c),
                Some(c) => {
                    self.unread(c);
                    break;
                }
                None => break,
            }
        }
        String::from_utf8(name).map_err(|_| XmlError::Utf8 {
            offset: self.offset,
        })
    }

    fn skip_ws(&mut self) -> Result<(), XmlError> {
        loop {
            match self.read_byte()? {
                Some(c) if c.is_ascii_whitespace() => continue,
                Some(c) => {
                    self.unread(c);
                    return Ok(());
                }
                None => return Ok(()),
            }
        }
    }

    /// `<name attr="v"…>` or `<name …/>`; the `<` and first name byte are
    /// already consumed.
    fn open_tag(&mut self, first: u8) -> Result<XmlEvent, XmlError> {
        let name = self.read_name(first)?;
        let label = Label::elem(name);
        let mut self_closing = false;
        loop {
            self.skip_ws()?;
            match self.expect_byte()? {
                b'>' => break,
                b'/' => {
                    if self.expect_byte()? != b'>' {
                        return self.syntax("expected '>' after '/'");
                    }
                    self_closing = true;
                    break;
                }
                c if is_name_start(c) => {
                    let (aname, avalue) = self.attribute(c)?;
                    // <e a="v"> ⇒ child a("v")
                    let alabel = Label::elem(aname);
                    self.queue.push_back(XmlEvent::Open(alabel.clone()));
                    if !avalue.is_empty() {
                        let tlabel = Label::text(avalue);
                        self.queue.push_back(XmlEvent::Open(tlabel.clone()));
                        self.queue.push_back(XmlEvent::Close(tlabel));
                    }
                    self.queue.push_back(XmlEvent::Close(alabel));
                }
                c => {
                    return self.syntax(format!("unexpected {:?} in start tag", c as char));
                }
            }
        }
        if self_closing {
            self.queue.push_back(XmlEvent::Close(label.clone()));
        } else {
            self.stack.push(label.clone());
        }
        Ok(XmlEvent::Open(label))
    }

    fn attribute(&mut self, first: u8) -> Result<(String, String), XmlError> {
        let name = self.read_name(first)?;
        self.skip_ws()?;
        if self.expect_byte()? != b'=' {
            return self.syntax("expected '=' in attribute");
        }
        self.skip_ws()?;
        let quote = self.expect_byte()?;
        if quote != b'"' && quote != b'\'' {
            return self.syntax("expected quoted attribute value");
        }
        let mut raw = Vec::with_capacity(16);
        loop {
            let c = self.expect_byte()?;
            if c == quote {
                break;
            }
            if c == b'&' {
                self.entity(&mut raw)?;
            } else {
                raw.push(c);
            }
        }
        let value = String::from_utf8(raw).map_err(|_| XmlError::Utf8 {
            offset: self.offset,
        })?;
        Ok((name, value))
    }

    /// `</name>`; `</` already consumed.
    fn close_tag(&mut self) -> Result<XmlEvent, XmlError> {
        let first = self.expect_byte()?;
        if !is_name_start(first) {
            return self.syntax("expected element name in closing tag");
        }
        let name = self.read_name(first)?;
        self.skip_ws()?;
        if self.expect_byte()? != b'>' {
            return self.syntax("expected '>' in closing tag");
        }
        match self.stack.pop() {
            Some(label) if *label.name == name => Ok(XmlEvent::Close(label)),
            Some(label) => Err(XmlError::MismatchedClose {
                offset: self.offset,
                expected: label.name.to_string(),
                found: name,
            }),
            None => Err(XmlError::MismatchedClose {
                offset: self.offset,
                expected: "(document end)".into(),
                found: name,
            }),
        }
    }

    /// `<!…`: comment, CDATA or DOCTYPE. CDATA is treated as text.
    fn bang(&mut self) -> Result<(), XmlError> {
        match self.expect_byte()? {
            b'-' => {
                if self.expect_byte()? != b'-' {
                    return self.syntax("malformed comment");
                }
                self.skip_until(b"-->")
            }
            b'[' => {
                // <![CDATA[ … ]]> — produce a text node (no entity decoding).
                for &expected in b"CDATA[" {
                    if self.expect_byte()? != expected {
                        return self.syntax("malformed CDATA section");
                    }
                }
                let mut raw = Vec::new();
                let mut tail = [0u8; 2];
                loop {
                    let c = self.expect_byte()?;
                    if c == b'>' && tail == *b"]]" {
                        raw.truncate(raw.len().saturating_sub(2));
                        break;
                    }
                    raw.push(c);
                    tail[0] = tail[1];
                    tail[1] = c;
                }
                let content = String::from_utf8(raw).map_err(|_| XmlError::Utf8 {
                    offset: self.offset,
                })?;
                if !content.is_empty() {
                    let label = Label::text(content);
                    self.queue.push_back(XmlEvent::Open(label.clone()));
                    self.queue.push_back(XmlEvent::Close(label));
                }
                Ok(())
            }
            b'D' => self.skip_doctype(),
            _ => self.syntax("unsupported '<!' construct"),
        }
    }

    /// Skip a DOCTYPE declaration, tolerating an internal subset: a `<` or
    /// `>` inside a quoted literal, a comment or a processing instruction
    /// does not count towards the nesting.
    fn skip_doctype(&mut self) -> Result<(), XmlError> {
        let mut depth = 1usize; // the '<' of <!DOCTYPE
        loop {
            match self.expect_byte()? {
                quote @ (b'"' | b'\'') => self.skip_until(&[quote])?,
                b'>' => {
                    depth -= 1;
                    if depth == 0 {
                        return Ok(());
                    }
                }
                b'<' => {
                    // `<?` and `<!--` open a skipped construct; anything
                    // else opens a declaration and is looked at again.
                    let mut c = self.expect_byte()?;
                    if c == b'?' {
                        self.skip_until(b"?>")?;
                        continue;
                    }
                    if c == b'!' {
                        c = self.expect_byte()?;
                        if c == b'-' {
                            c = self.expect_byte()?;
                            if c == b'-' {
                                self.skip_until(b"-->")?;
                                continue;
                            }
                        }
                    }
                    depth += 1;
                    self.unread(c);
                }
                _ => {}
            }
        }
    }

    fn skip_until(&mut self, terminator: &[u8]) -> Result<(), XmlError> {
        let mut matched = 0usize;
        loop {
            let c = self.expect_byte()?;
            if c == terminator[matched] {
                matched += 1;
                if matched == terminator.len() {
                    return Ok(());
                }
            } else {
                // Fall back to the longest prefix of the terminator that
                // the input still ends with: `--` + `-` ends with `--`.
                matched = (1..=matched)
                    .rev()
                    .find(|&k| {
                        terminator[k - 1] == c
                            && terminator[..k - 1] == terminator[matched + 1 - k..matched]
                    })
                    .unwrap_or(0);
            }
        }
    }

    // ---- text ----------------------------------------------------------

    /// Accumulate character data starting with `first` until the next `<`.
    /// Returns `None` if the node is dropped by the whitespace mode.
    fn text(&mut self, first: u8) -> Result<Option<XmlEvent>, XmlError> {
        self.scratch.clear();
        if first == b'&' {
            let mut tmp = Vec::new();
            self.entity(&mut tmp)?;
            self.scratch.extend_from_slice(&tmp);
        } else {
            self.scratch.push(first);
        }
        loop {
            match self.read_byte()? {
                None => break,
                Some(b'<') => {
                    self.unread(b'<');
                    break;
                }
                Some(b'&') => {
                    let mut tmp = Vec::new();
                    self.entity(&mut tmp)?;
                    self.scratch.extend_from_slice(&tmp);
                }
                Some(c) => self.scratch.push(c),
            }
        }
        let raw = std::mem::take(&mut self.scratch);
        let content = String::from_utf8(raw).map_err(|_| XmlError::Utf8 {
            offset: self.offset,
        })?;
        let content = match self.ws {
            WhitespaceMode::Preserve => content,
            WhitespaceMode::SkipWhitespaceOnly => {
                if content.bytes().all(|b| b.is_ascii_whitespace()) {
                    return Ok(None);
                }
                content
            }
            WhitespaceMode::Trim => {
                let trimmed = content.trim();
                if trimmed.is_empty() {
                    return Ok(None);
                }
                trimmed.to_string()
            }
        };
        let label = Label::text(content);
        self.queue.push_back(XmlEvent::Close(label.clone()));
        Ok(Some(XmlEvent::Open(label)))
    }

    /// Decode an entity after its `&`.
    fn entity(&mut self, out: &mut Vec<u8>) -> Result<(), XmlError> {
        let mut name = Vec::with_capacity(8);
        loop {
            let c = self.expect_byte()?;
            if c == b';' {
                break;
            }
            if name.len() > 16 {
                return self.syntax("entity reference too long");
            }
            name.push(c);
        }
        match name.as_slice() {
            b"lt" => out.push(b'<'),
            b"gt" => out.push(b'>'),
            b"amp" => out.push(b'&'),
            b"apos" => out.push(b'\''),
            b"quot" => out.push(b'"'),
            n if n.first() == Some(&b'#') => {
                let s = std::str::from_utf8(&n[1..]).map_err(|_| XmlError::Utf8 {
                    offset: self.offset,
                })?;
                let code = if let Some(hex) = s.strip_prefix('x').or_else(|| s.strip_prefix('X')) {
                    u32::from_str_radix(hex, 16)
                } else {
                    s.parse::<u32>()
                };
                let code = match code {
                    Ok(c) => c,
                    Err(_) => return self.syntax("bad numeric character reference"),
                };
                // XML 1.0 `Char`: no C0 control but tab, LF and CR, no
                // surrogate (`from_u32` refuses those), not #xFFFE / #xFFFF.
                let legal =
                    matches!(code, 0x9 | 0xA | 0xD | 0x20..) && !matches!(code, 0xFFFE | 0xFFFF);
                match char::from_u32(code).filter(|_| legal) {
                    Some(ch) => {
                        let mut buf = [0u8; 4];
                        out.extend_from_slice(ch.encode_utf8(&mut buf).as_bytes());
                    }
                    None => return self.syntax("invalid character code"),
                }
            }
            _ => return self.syntax("unknown entity reference"),
        }
        Ok(())
    }
}

fn is_name_start(c: u8) -> bool {
    c.is_ascii_alphabetic() || c == b'_' || c >= 0x80
}

fn is_name_cont(c: u8) -> bool {
    c.is_ascii_alphanumeric() || matches!(c, b'_' | b'-' | b'.' | b':') || c >= 0x80
}

impl<R: BufRead> EventSource for ByteReader<R> {
    fn next_event(&mut self) -> Result<XmlEvent, XmlError> {
        ByteReader::next_event(self)
    }

    fn events_read(&self) -> u64 {
        ByteReader::events_read(self)
    }
}
