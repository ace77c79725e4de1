//! Differential suite for the in-window tokenizer.
//!
//! `foxq::xml::XmlReader` recognises constructs inside a window of its
//! input and waits for the next read when one is cut off; the reader it
//! replaced went byte by byte and had no windows to get wrong. That reader
//! lives on in `tests/common/byte_reader.rs` as the oracle: for every
//! document here, legal or not, and however the input is cut into reads,
//! the in-window reader must produce the oracle's events, the oracle's
//! error — variant, offset and every other field — and the same
//! `events_read()`.
//!
//! The same goes for `XmlReader::skip_subtree`, which skims a subtree
//! instead of building its events. There the expected outcome is the
//! oracle's, projected: pull the subtree from the oracle (`EventSource`'s
//! default `skip_subtree`) and count. Kept events, the error, the count,
//! `events_read()` and — in lock-step — `depth()` must all be equal.

mod common;

use common::byte_reader::ByteReader;
use foxq::obs::AllocScope;
use foxq::xml::{forest_to_xml_string, EventSource, WhitespaceMode, XmlError, XmlEvent, XmlReader};
use foxq_gen::Dataset;
use proptest::prelude::*;
use proptest::TestRng;
use std::io::Read;

/// A debug build takes every `STRIDE`th read size, cut and mutated byte —
/// a different residue per document, so together they still touch every
/// offset class; a release build (CI's
/// `cargo test --release --test xml_windows`) takes them all.
const STRIDE: usize = if cfg!(debug_assertions) { 4 } else { 1 };

const MODES: [WhitespaceMode; 3] = [
    WhitespaceMode::SkipWhitespaceOnly,
    WhitespaceMode::Preserve,
    WhitespaceMode::Trim,
];

/// What a reader made of a document.
#[derive(Debug, PartialEq)]
struct Outcome {
    /// The events up to the `Eof` or the error.
    events: Vec<XmlEvent>,
    /// The error with all its fields, as its `Debug` text.
    error: Option<String>,
    events_read: u64,
}

fn drain(mut next: impl FnMut() -> Result<XmlEvent, XmlError>) -> (Vec<XmlEvent>, Option<String>) {
    let mut events = Vec::new();
    loop {
        match next() {
            Ok(XmlEvent::Eof) => return (events, None),
            Ok(event) => events.push(event),
            Err(e) => return (events, Some(format!("{e:?}"))),
        }
    }
}

fn oracle(doc: &[u8], ws: WhitespaceMode) -> Outcome {
    let mut reader = ByteReader::with_mode(doc, ws);
    let (events, error) = drain(|| reader.next_event());
    Outcome {
        events,
        error,
        events_read: reader.events_read(),
    }
}

/// `doc`, handed out in reads of the given sizes and then all at once.
struct Reads<'a, I> {
    rest: &'a [u8],
    sizes: I,
}

impl<I: Iterator<Item = usize>> Read for Reads<'_, I> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let size = self.sizes.next().unwrap_or(usize::MAX).max(1);
        let n = size.min(buf.len()).min(self.rest.len());
        let (now, rest) = self.rest.split_at(n);
        buf[..n].copy_from_slice(now);
        self.rest = rest;
        Ok(n)
    }
}

fn windowed(doc: &[u8], ws: WhitespaceMode, sizes: impl Iterator<Item = usize>) -> Outcome {
    let mut reader = XmlReader::with_mode(Reads { rest: doc, sizes }, ws);
    let (events, error) = drain(|| reader.next_event());
    Outcome {
        events,
        error,
        events_read: reader.events_read(),
    }
}

fn show(doc: &[u8]) -> String {
    String::from_utf8_lossy(doc).into_owned()
}

// ---- (a) the hand-written corpus ----------------------------------------

/// Small documents, legal and illegal, that between them use every
/// construct and every error the reader knows.
fn corpus() -> Vec<Vec<u8>> {
    let mut docs: Vec<Vec<u8>> = [
        // Elements, attributes, self-closing tags.
        &b"<a><b/></a>"[..],
        b"<a x=\"1\" y=''/>",
        b"<a  x = '1'\ty\n=\r\"2\" ><b z=\"&lt;&amp;&#65;\" /></a >",
        b"<a x=\"1\"y=\"2\"><b x='>' y=\"<'\"/></a>",
        b"<ns:a-b.c_1 xml:lang='en'><_x/></ns:a-b.c_1>",
        // References, legal.
        b"<a>&lt;x&gt; &amp; &apos;&quot;&#65;&#x42;&#X43;</a>",
        b"<a>x&#9;&#xA;&#13;&#x20;&#xD7FF;&#xE000;&#xFFFD;&#x10000;&#x10FFFF;</a>",
        b"<a t=\"&quot;x&apos;\" u='&#32;'>&#32;&#x9;</a>",
        b"<a>&#+65;&#x+42;</a>",
        b"&amp;<a/>&lt;",
        // References, illegal.
        b"<a>x&#0;</a>",
        b"<a>&#x0;</a>",
        b"<a>&#8;</a>",
        b"<a>&#xFFFE;y</a>",
        b"<a>&#65535;</a>",
        b"<a>&#xD800;</a>",
        b"<a>&#1114112;</a>",
        b"<a>&#99999999999;</a>",
        b"<a>&bogus;</a>",
        b"<a>&;</a>",
        b"<a>&#;</a>",
        b"<a>&#x;</a>",
        b"<a>&#12a;</a>",
        b"<a>&#\xff;</a>",
        b"<a>1 &lt 2; x</a>",
        b"<a>a&x<y;b</a>",
        b"<a>x &amp y</a>",
        b"<a>&sixteen-bytes-xx;</a>",
        b"<a>&seventeen-bytes-x;</a>",
        b"<a>&eighteen-bytes-xxx;</a>",
        b"<a>\xff&bogus;</a>",
        b"<a t='&bogus;'/>",
        b"<a t='&#0;'/>",
        b"<a t='x&a\";'/>",
        b"<a t=\"&eighteen-bytes-xxx;\"/>",
        // Text and the whitespace modes.
        b"<a> hi </a><b>\n\t </b> tail ",
        b"  <a>\r\n  <b> x </b>\x0c\n</a>\n",
        b"<a>\x0b</a>",
        b"   ",
        b"just text",
        b"<a>]]></a>",
        "<a>\u{a0} nbsp \u{2003}</a><b>\u{a0}</b>".as_bytes(),
        // CDATA.
        b"<a><![CDATA[<raw> & stuff]]></a>",
        b"<a>x<![CDATA[c]]]><b/><![CDATA[]]]]><![CDATA[]]><![CDATA[  ]]>y</a>",
        b"<a><![CDATA[\xff]]></a>",
        b"<a><![cdata[x]]></a>",
        b"<a><![CDATA x]]></a>",
        // Comments and processing instructions.
        b"<a><!-- c ---><b/><!-- d --><!-----><!-- - -- d --><!----></a>",
        b"<a><?pi c ??><b/><?pi d?><??></a>",
        b"<?xml version=\"1.0\"?><a/><!-- after --><?after?>",
        b"<a><!-->x</a>",
        b"<a><?>x</a>",
        b"<a><!-x--></a>",
        b"<a><!x></a>",
        // DOCTYPE and its internal subset.
        b"<!DOCTYPE site SYSTEM \"x.dtd\" [<!ENTITY e \"v\">]>\n<a><b/></a>",
        b"<!DOCTYPE a [<!ENTITY e \"x>y\">]><a/>",
        b"<!DOCTYPE a [<!-- a > b -->]><a/>",
        b"<!DOCTYPE a [<?pi a > b ?><!ELEMENT a (#PCDATA)><!ATTLIST a b CDATA 'it''s>'>]><a/>",
        b"<!DOCTYPE a SYSTEM 'x>y.dtd'><a>t</a>",
        b"<!DOCTYPE a [<!- x><!x><x>< ><!-- ' --><?\"?>]><a>t</a>",
        b"<!DOCTYPE a [<!ENTITY e \"x>y]><a/>",
        b"<!DOCTYPE a [<!-- a > b --]><a/>",
        b"<!D><a/>",
        b"<!DOCTYPE a [",
        // Multi-byte characters, and bytes that are not UTF-8.
        "<donn\u{e9}es \u{e9}t\u{e9}=\"\u{e7}a\">na\u{ef}ve \u{2014} \u{65e5}\u{672c}\u{8a9e} \u{1f600}</donn\u{e9}es>"
            .as_bytes(),
        b"<a>\xff</a>",
        b"<a>\xe6\x97</a>",
        b"<\xff/>",
        b"<a \xff='1'/>",
        b"<a x='\xff'/>",
        b"<a></\xff>",
        b"<a\xff",
        b"<a \xff",
        // A byte-order mark is the encoding signature at offset 0, and text
        // anywhere else; two thirds of one are not UTF-8.
        b"\xef\xbb\xbf<a>x</a>",
        b"\xef\xbb\xbf\n<?xml version='1.0'?><a/>",
        b"\xef\xbb\xbftext<a/>",
        b"\xef\xbb\xbf",
        b"\xef\xbb\xbf\xef\xbb\xbf<a/>",
        b"<a>\xef\xbb\xbfx</a>",
        b" \xef\xbb\xbf<a/>",
        b"\xef\xbb",
        b"\xef\xbb<a/>",
        b"\xef<a/>",
        // Forests.
        b"",
        b"<a/><b/>text<c>x</c>",
        // Mismatched and stray closing tags.
        b"<a></b>",
        b"<a><b></a></b>",
        b"</a>",
        b"<a></a></a>",
        b"<a></a\n >",
        b"<a></ a>",
        b"<a></a b>",
        b"<a></1>",
        b"<ab></a>",
        b"<a></ab>",
        // Input that ends inside a construct.
        b"<a><b>",
        b"<a>text",
        b"<a>&am",
        b"<a",
        b"<a x = ",
        b"<a x='1&lt",
        b"<a x='1'",
        b"<a/",
        b"<a></a",
        b"<a></",
        b"<!-- x --",
        b"<![CDATA[x]]",
        b"<![CDA",
        b"<?pi ?",
        // Other syntax errors.
        b"<1/>",
        b"< a/>",
        b"<a/ >",
        b"<a x/>",
        b"<a x=1/>",
        b"<a =/>",
        b"<a @/>",
    ]
    .iter()
    .map(|doc| doc.to_vec())
    .collect();
    // One document with everything, longer than the largest read below.
    let all: Vec<u8> = docs
        .iter()
        .filter(|doc| oracle(doc, WhitespaceMode::Preserve).error.is_none())
        .flat_map(|doc| doc.iter().copied())
        .collect();
    docs.push(all);
    docs
}

#[test]
fn corpus_agrees_with_the_oracle_however_it_is_cut() {
    for (d, doc) in corpus().into_iter().enumerate() {
        for ws in MODES {
            let expected = oracle(&doc, ws);
            // Reads of one size …
            for size in (1 + d % STRIDE..=64).step_by(STRIDE) {
                let got = windowed(&doc, ws, std::iter::repeat(size));
                assert_eq!(got, expected, "{ws:?}, reads of {size}: {}", show(&doc));
            }
            // … and two reads that meet at each byte.
            for cut in (d % STRIDE..=doc.len()).step_by(STRIDE) {
                let got = windowed(&doc, ws, std::iter::once(cut));
                assert_eq!(got, expected, "{ws:?}, cut at {cut}: {}", show(&doc));
            }
        }
    }
}

#[test]
fn the_corpus_reaches_every_error_variant() {
    let mut variants = std::collections::BTreeSet::new();
    for doc in corpus() {
        if let Some(error) = oracle(&doc, WhitespaceMode::default()).error {
            variants.insert(error.split([' ', '{']).next().unwrap().to_string());
        }
    }
    assert_eq!(
        variants.into_iter().collect::<Vec<_>>(),
        ["MismatchedClose", "Syntax", "UnexpectedEof", "Utf8"]
    );
}

// ---- (c) mutations of the corpus ------------------------------------------

/// Bytes that mean something to the tokenizer, and two that do not.
const INTERESTING: &[u8] = b"<>&;\"'/!-]?[=# D\xffa\n";

/// Every truncation, deletion, bit flip and substitution of an
/// [`INTERESTING`] byte, at every byte of every corpus document (every
/// [`STRIDE`]th byte in a debug build).
fn for_each_mutant(check: &mut dyn FnMut(&[u8])) {
    let mut docs = corpus();
    docs.pop(); // the concatenation is long and made of the others
    for (d, doc) in docs.into_iter().enumerate() {
        for at in (d % STRIDE..doc.len()).step_by(STRIDE) {
            check(&doc[..at]);
            check(&[&doc[..at], &doc[at + 1..]].concat());
            let mut flipped = doc.clone();
            for bit in 0..8 {
                flipped[at] = doc[at] ^ (1 << bit);
                check(&flipped);
            }
            for &byte in INTERESTING {
                flipped[at] = byte;
                check(&flipped);
            }
        }
    }
}

#[test]
fn every_mutation_of_the_corpus_agrees_with_the_oracle() {
    let mut mutants = 0u64;
    let mut check = |mutant: &[u8]| {
        mutants += 1;
        for ws in MODES {
            let expected = oracle(mutant, ws);
            for size in [1, 3, usize::MAX] {
                let got = windowed(mutant, ws, std::iter::repeat(size));
                assert_eq!(got, expected, "{ws:?}, reads of {size}: {}", show(mutant));
            }
        }
    };
    for_each_mutant(&mut check);
    assert!(mutants > 50_000 / STRIDE as u64, "{mutants} mutants");
}

// ---- skimming: `skip_subtree` against the oracle, projected ----------------

/// Read `doc` with both readers in lock-step, skipping the subtree of every
/// element opened at nesting depth `skip_depth`: the oracle by pulling it,
/// the in-window reader by skimming it. Returns how many subtrees were
/// skipped, or what differed.
fn skim_in_lock_step(
    doc: &[u8],
    ws: WhitespaceMode,
    skip_depth: usize,
    sizes: impl Iterator<Item = usize>,
) -> Result<u64, String> {
    let mut oracle = ByteReader::with_mode(doc, ws);
    let mut reader = XmlReader::with_mode(Reads { rest: doc, sizes }, ws);
    let debug = |e: XmlError| format!("{e:?}");
    // Nodes open around the next event, text and attribute nodes included.
    let mut nesting = 0;
    let mut skipped = 0;
    loop {
        let expected = oracle.next_event().map_err(debug);
        let got = reader.next_event().map_err(debug);
        if got != expected {
            return Err(format!("event {got:?}, oracle {expected:?}"));
        }
        match got {
            Err(_) | Ok(XmlEvent::Eof) => break,
            Ok(XmlEvent::Open(label)) if !label.is_text() && nesting == skip_depth => {
                let expected = EventSource::skip_subtree(&mut oracle).map_err(debug);
                let got = reader.skip_subtree().map_err(debug);
                if got != expected {
                    return Err(format!("skip of <{label}> {got:?}, oracle {expected:?}"));
                }
                if got.is_err() {
                    break;
                }
                skipped += 1;
            }
            Ok(XmlEvent::Open(_)) => nesting += 1,
            Ok(XmlEvent::Close(_)) => nesting -= 1,
        }
        if (reader.depth(), reader.events_read()) != (oracle.depth(), oracle.events_read()) {
            return Err(format!(
                "depth {} after {} events, oracle {} after {}",
                reader.depth(),
                reader.events_read(),
                oracle.depth(),
                oracle.events_read()
            ));
        }
    }
    Ok(skipped)
}

#[test]
fn skimmed_corpus_agrees_with_the_oracle_however_it_is_cut() {
    let mut skipped = 0;
    for doc in corpus() {
        for ws in MODES {
            for skip_depth in 0..=2 {
                for size in [1, 2, 3, 5, 7, 16, 64, usize::MAX] {
                    skipped += skim_in_lock_step(&doc, ws, skip_depth, std::iter::repeat(size))
                        .unwrap_or_else(|e| {
                            panic!(
                                "{ws:?}, skipping at {skip_depth}, reads of {size}: {e}\n{}",
                                show(&doc)
                            )
                        });
                }
            }
        }
    }
    assert!(skipped > 2_500, "{skipped} subtrees skipped");
}

#[test]
fn every_mutation_of_the_corpus_skims_as_the_oracle_reads_it() {
    let mut mutants = 0u64;
    let mut check = |mutant: &[u8]| {
        mutants += 1;
        for ws in MODES {
            for skip_depth in 0..=2 {
                for size in [1, 3, usize::MAX] {
                    if let Err(e) =
                        skim_in_lock_step(mutant, ws, skip_depth, std::iter::repeat(size))
                    {
                        panic!(
                            "{ws:?}, skipping at {skip_depth}, reads of {size}: {e}\n{}",
                            show(mutant)
                        );
                    }
                }
            }
        }
    };
    for_each_mutant(&mut check);
    assert!(mutants > 50_000 / STRIDE as u64, "{mutants} mutants");
}

// ---- (b) generated documents ----------------------------------------------

/// Read sizes from `rng`: mostly small, some of tens of kilobytes, so that
/// cuts fall both inside the reader's buffer and at its end.
fn random_sizes(mut rng: TestRng) -> impl Iterator<Item = usize> {
    std::iter::repeat_with(move || match rng.below(8) {
        0 => 1 + rng.below(100_000),
        1 => 1 + rng.below(5_000),
        _ => 1 + rng.below(64),
    })
}

proptest! {
    #[test]
    fn generated_documents_agree_at_random_read_sizes(seed in any::<u64>()) {
        let dataset = [Dataset::Xmark, Dataset::Treebank, Dataset::Xmark, Dataset::Medline]
            [(seed % 4) as usize];
        let size = 2_000 + (seed >> 3) as usize % 150_000;
        let doc = forest_to_xml_string(&foxq_gen::generate(dataset, size, seed));
        let ws = MODES[(seed >> 24) as usize % 3];
        let expected = oracle(doc.as_bytes(), ws);
        prop_assert!(expected.error.is_none());
        let got = windowed(doc.as_bytes(), ws, random_sizes(TestRng::from_seed(seed)));
        prop_assert!(got == expected, "{} of {size} bytes, seed {seed:#x}", dataset.name());
        let got = windowed(doc.as_bytes(), ws, std::iter::empty());
        prop_assert!(got == expected, "{} of {size} bytes in one read", dataset.name());
        let skip_depth = (seed >> 32) as usize % 5;
        let sizes = random_sizes(TestRng::from_seed(!seed));
        let skimmed = skim_in_lock_step(doc.as_bytes(), ws, skip_depth, sizes);
        prop_assert!(
            matches!(skimmed, Ok(skipped) if skipped > 0),
            "{} of {size} bytes, seed {seed:#x}, skipping at {skip_depth}: {skimmed:?}",
            dataset.name()
        );
    }

    #[test]
    fn damaged_generated_documents_agree_too(seed in any::<u64>()) {
        let mut rng = TestRng::from_seed(seed);
        let dataset = [Dataset::Xmark, Dataset::Treebank][rng.below(2)];
        let forest = foxq_gen::generate(dataset, 2_000 + rng.below(20_000), seed);
        let mut doc = forest_to_xml_string(&forest).into_bytes();
        for _ in 0..1 + rng.below(3) {
            let at = rng.below(doc.len());
            match rng.below(3) {
                0 => doc[at] = INTERESTING[rng.below(INTERESTING.len())],
                1 => drop(doc.remove(at)),
                _ => doc.truncate(at),
            }
        }
        let ws = MODES[rng.below(3)];
        let skip_depth = rng.below(5);
        let expected = oracle(&doc, ws);
        let got = windowed(&doc, ws, random_sizes(TestRng::from_seed(seed)));
        prop_assert!(got == expected, "seed {seed:#x}: {:?} vs {:?}", got.error, expected.error);
        let skimmed = skim_in_lock_step(&doc, ws, skip_depth, random_sizes(rng));
        prop_assert!(skimmed.is_ok(), "seed {seed:#x}, skipping at {skip_depth}: {skimmed:?}");
    }
}

// ---- constructs longer than the window --------------------------------------

#[test]
fn constructs_longer_than_the_window_agree_with_the_oracle() {
    let long = |unit: &str, bytes: usize| unit.repeat(bytes / unit.len() + 1);
    let docs = [
        format!("<a>{}</a>", long("plain text ", 200_000)),
        format!(
            "<a>{}</a>",
            long("text &amp; r\u{e9}f\u{e9}rences ", 150_000)
        ),
        format!("<a><![CDATA[{}]]></a>", long("<raw> ]] ", 100_000)),
        format!(
            "<a x='{}' y=\"{}\"/>",
            long("v", 70_000),
            long("&lt;w", 9_000)
        ),
        format!("<a><{}/></a>", long("name", 5_000)),
        format!("<a><!--{}--><b/></a>", long(" - > -- ", 300_000)),
        format!("<a><?{}?><b/></a>", long(" ? > ", 150_000)),
        format!(
            "<!DOCTYPE a [{}]><a/>",
            long("<!ENTITY e \"x>y\"><!-- > -->", 100_000)
        ),
        format!("<a>{}", long("never closed ", 100_000)),
        format!("<a><!--{}", long("never closed ", 100_000)),
    ];
    for (i, doc) in docs.iter().enumerate() {
        for ws in [WhitespaceMode::SkipWhitespaceOnly, WhitespaceMode::Trim] {
            let expected = oracle(doc.as_bytes(), ws);
            for sizes in [
                Box::new(std::iter::empty()) as Box<dyn Iterator<Item = usize>>,
                Box::new(std::iter::repeat(1_000)),
                Box::new(random_sizes(TestRng::from_seed(i as u64))),
            ] {
                let got = windowed(doc.as_bytes(), ws, sizes);
                assert!(got == expected, "document {i}, {ws:?}: {:?}", got.error);
            }
            // The same constructs inside a skimmed subtree (the DOCTYPE,
            // which has to come first, before one).
            let (prolog, body) = match doc.starts_with("<!DOCTYPE") {
                true => (doc.as_str(), "<a/>"),
                false => ("", doc.as_str()),
            };
            let under_root = format!("{prolog}<root><skimmed>{body}</skimmed><kept/></root>");
            for sizes in [
                Box::new(std::iter::empty()) as Box<dyn Iterator<Item = usize>>,
                Box::new(std::iter::repeat(1_000)),
                Box::new(random_sizes(TestRng::from_seed(i as u64))),
            ] {
                let skimmed = skim_in_lock_step(under_root.as_bytes(), ws, 1, sizes);
                assert!(skimmed.is_ok(), "document {i}, {ws:?}: {skimmed:?}");
            }
        }
    }
}

/// Allocated and not yet freed on this thread since `scope` began.
fn live_bytes(scope: &AllocScope) -> i64 {
    let delta = scope.delta();
    delta.allocated_bytes as i64 - delta.freed_bytes as i64
}

#[test]
fn skipped_constructs_of_any_length_take_one_window_of_memory() {
    for (open, unit) in [
        ("<!--", " - > -- "),
        ("<?", " ? > "),
        ("<!DOCTYPE a [", "<!-- > -->'>'"),
    ] {
        let doc = format!("{open}{}", unit.repeat((4 << 20) / unit.len()));
        let scope = AllocScope::begin();
        let mut reader = XmlReader::new(doc.as_bytes());
        let error = reader.next_event().unwrap_err();
        assert!(matches!(error, XmlError::UnexpectedEof { .. }), "{error}");
        let held = live_bytes(&scope);
        assert!(held < 100 << 10, "{open}: the reader holds {held} bytes");
    }
}

#[test]
fn a_skimmed_subtree_of_any_size_takes_one_window_of_memory() {
    // 4 MiB of everything that allocates when it is tokenized: names never
    // seen before, attributes, text with and without references, CDATA.
    let mut doc = String::from("<root><dead>");
    for i in 0.. {
        if doc.len() >= 4 << 20 {
            break;
        }
        doc.push_str(&format!(
            "<n{i} a{i}='v&amp;{i}'>text {i} &lt; <![CDATA[<{i}>]]><e{i}/></n{i}>"
        ));
    }
    doc.push_str("</dead><live/></root>");
    let mut reader = XmlReader::new(doc.as_bytes());
    let scope = AllocScope::begin();
    for _ in 0..2 {
        reader.next_event().unwrap();
    }
    let skipped = reader.skip_subtree().unwrap();
    let held = live_bytes(&scope);
    assert!(held < 100 << 10, "the reader holds {held} bytes");
    assert!(skipped > 500_000, "{skipped} events");
    // What follows the skim is read as ever.
    let (rest, error) = drain(|| reader.next_event());
    assert_eq!((rest.len(), error), (3, None));
    assert_eq!(
        reader.events_read(),
        oracle(doc.as_bytes(), WhitespaceMode::default()).events_read
    );
}

// ---- a hostile vocabulary ---------------------------------------------------

#[test]
fn a_million_distinct_names_do_not_grow_the_reader() {
    const NAMES: usize = 1_000_000;
    let mut doc = String::from("<root>");
    for i in 0..NAMES {
        doc.push_str(&format!("<n{i} a{i}='v'/>"));
    }
    doc.push_str("</root>");

    // What the reader holds a tenth into the document is all it ever holds:
    // the window and the name table have reached their caps by then.
    let scope = AllocScope::begin();
    let mut reader = XmlReader::new(doc.as_bytes());
    let mut held_early = 0;
    for event in 0.. {
        if reader.next_event().unwrap() == XmlEvent::Eof {
            break;
        }
        if event == NAMES / 10 {
            held_early = live_bytes(&scope);
        }
    }
    let held = live_bytes(&scope);
    assert_eq!(reader.events_read(), 2 + 6 * NAMES as u64);
    assert!(
        held_early > 0 && held <= held_early,
        "{held_early} then {held} bytes"
    );
    assert!(held < 512 << 10, "the reader holds {held} bytes");
    drop(reader);

    // Interned or not, every name reads as the oracle reads it.
    let mut reader = XmlReader::new(doc.as_bytes());
    let mut oracle = ByteReader::new(doc.as_bytes());
    loop {
        let event = reader.next_event().unwrap();
        assert_eq!(event, oracle.next_event().unwrap());
        assert_eq!(reader.depth(), oracle.depth());
        if event == XmlEvent::Eof {
            break;
        }
    }
}

/// A construct that holds its own closing byte many times over (`>` in an
/// attribute value, in a CDATA section) must not be rescanned from its
/// start at every read that brings another one: 4 MiB in 512-byte reads
/// would be 8192 rescans of 2 MiB on average, minutes of work; looked at
/// again only when it has doubled, it is a fraction of a second.
#[test]
fn a_construct_full_of_its_closing_byte_costs_linear_work() {
    let filler = "> ".repeat(2 << 20);
    for doc in [
        format!("<a x=\"{filler}\"/>"),
        format!("<a><![CDATA[{filler}]]></a>"),
    ] {
        let started = std::time::Instant::now();
        let got = windowed(
            doc.as_bytes(),
            WhitespaceMode::default(),
            std::iter::repeat(512),
        );
        let took = started.elapsed();
        assert!(got == oracle(doc.as_bytes(), WhitespaceMode::default()));
        assert!(
            took < std::time::Duration::from_secs(20),
            "{took:?} for {} bytes",
            doc.len()
        );
        // No different when the construct is skimmed.
        let under_root = format!("<root>{doc}</root>");
        let started = std::time::Instant::now();
        let skimmed = skim_in_lock_step(
            under_root.as_bytes(),
            WhitespaceMode::default(),
            0,
            std::iter::repeat(512),
        );
        let took = started.elapsed();
        assert_eq!(skimmed, Ok(1));
        assert!(
            took < std::time::Duration::from_secs(20),
            "{took:?} for {} bytes, skimming",
            doc.len()
        );
    }
}
