//! Fault-injection net for the tape reader.
//!
//! The recipe of `tests/xml_windows.rs`, applied to FET tapes: a small
//! hand-written corpus, every byte of every tape truncated there and each
//! of its eight bits flipped, every mutant read on three paths —
//!
//! * **scan** — `TapeReader::next_event` until `Eof`;
//! * **seek** — `run_lanes` with a subtree-copying query, which no label
//!   prefilter covers: the tape is scanned and seeked wherever the
//!   engine's verdict says a subtree is dead;
//! * **index** — `run_lanes` with a child-path query, which takes the
//!   skip index on FET2 (and the prefilter's seeks on FET1).
//!
//! Allowed outcomes: a [`StoreError`] (the type says so), or the undamaged
//! answer. Never a panic, and never a different answer — except where the
//! format is documented not to verify, which is counted and printed, not
//! asserted on:
//!
//! * the footer on the index path: its label table and posting lists are
//!   not hashed, and they decide which frames the index delivers;
//! * a seek the damage moved: a skip is decided on the label of an open
//!   frame (named by the label table), and the skipped subtree's stored
//!   hash, the only thing covering that label, is folded in unverified;
//! * anything on a FET1 replay that seeked: its one checksum covers full
//!   replays only.

use foxq::core::stream::StreamLimits;
use foxq::service::{run_lanes, PreparedQuery, QuerySetPlan};
use foxq::store::tape::TAPE_START;
use foxq::store::{StoreError, TapeInfo, TapeReader, TapeWriter};
use foxq::xml::{WriterSink, XmlEvent, XmlReader};
use std::io::Cursor;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// A debug build mutates every `STRIDE`th byte — a different residue per
/// tape, so together they still touch every offset class; a release build
/// (CI's `cargo test --release --test tape_mutations`) mutates them all.
const STRIDE: usize = if cfg!(debug_assertions) { 4 } else { 1 };

/// One corpus document and the two queries its mutants are read with.
struct Doc {
    name: &'static str,
    xml: &'static str,
    /// Copies subtrees: scanned, seeked on the engine's verdict.
    copy: &'static str,
    /// A child path the label prefilter covers: the index path on FET2.
    child: &'static str,
    /// Also written as FET1.
    fet1: bool,
}

const CORPUS: [Doc; 4] = [
    Doc {
        name: "nested",
        xml: "<a><b>x</b>t<b>y<c>z</c>w</b>u</a>",
        copy: "<o>{$input/a/b}</o>",
        child: "<o>{$input/a/b/text()}</o>",
        fet1: false,
    },
    Doc {
        name: "compressed",
        xml: "<r><p>abcabcabcabcabcabcabcabc</p><p>q</p></r>",
        copy: "<o>{$input/r/p}</o>",
        child: "<o>{$input/r/p/text()}</o>",
        fet1: false,
    },
    Doc {
        name: "seeking",
        xml: "<site><junk><x>1</x><y>2</y></junk><keep><k>3</k></keep></site>",
        copy: "<o>{$input/site/keep}</o>",
        child: "<o>{$input/site/keep/k/text()}</o>",
        fet1: true,
    },
    Doc {
        // Repeated labels at several depths, empty elements, multi-byte
        // text.
        name: "mixed",
        xml: "<d><d><e/>\u{e9}t\u{e9}</d><e>\u{fc}<d/></e><d><e>v</e></d></d>",
        copy: "<o>{$input/d/e}</o>",
        child: "<o>{$input/d/d/e/text()}</o>",
        fet1: false,
    },
];

fn write_tape(xml: &str, mut writer: TapeWriter<Cursor<Vec<u8>>>) -> (Vec<u8>, TapeInfo) {
    let mut parser = XmlReader::new(xml.as_bytes());
    loop {
        match parser.next_event().unwrap() {
            XmlEvent::Open(label) => writer.open(&label).unwrap(),
            XmlEvent::Close(_) => writer.close().unwrap(),
            XmlEvent::Eof => break,
        }
    }
    let (out, info) = writer.finish().unwrap();
    (out.into_inner(), info)
}

/// What one read path made of a tape: the events (scan) or the lane's
/// output and the pass's input events (runs), and the bytes it seeked over.
#[derive(Debug, PartialEq)]
enum Answer {
    Events(Vec<XmlEvent>),
    Run {
        output: Result<Vec<u8>, String>,
        input_events: u64,
    },
}

type Read = Result<(Answer, u64), StoreError>;

fn scan(tape: &[u8]) -> Read {
    let mut reader = TapeReader::new(Cursor::new(tape))?;
    let mut events = Vec::new();
    loop {
        match reader.next_event()? {
            XmlEvent::Eof => return Ok((Answer::Events(events), 0)),
            event => events.push(event),
        }
    }
}

fn run(query: &PreparedQuery, tape: &[u8]) -> Read {
    let mft = query.mft();
    let run = run_lanes(
        &[mft],
        TapeReader::new(Cursor::new(tape))?,
        vec![(WriterSink::new(Vec::new()), ())],
        StreamLimits::default(),
        &QuerySetPlan::new([mft]),
    )?;
    let seeked = run.source.seek_skipped_bytes;
    let lane = run.results.into_iter().next().unwrap();
    let output = lane
        .map(|(sink, _, ())| sink.finish().unwrap())
        .map_err(|e| e.to_string());
    let answer = Answer::Run {
        output,
        input_events: run.input_events,
    };
    Ok((answer, seeked))
}

/// Outcomes of one read path over every mutant.
#[derive(Debug, Default, Clone, Copy)]
struct Tally {
    same: u64,
    failed: u64,
    exempt: u64,
}

const PATHS: [&str; 3] = ["scan", "seek", "index"];

#[test]
fn every_mutant_tape_fails_cleanly_or_answers_as_the_undamaged_one() {
    let mut totals = [Tally::default(); 3];
    // Index-path footer damage; seeks moved by damage to the frames, and
    // to the footer; FET1 replays that seeked.
    let mut exempt = [0u64; 4];
    let mut wrong: Vec<String> = Vec::new();
    let mut mutants = 0u64;
    let mut tapes = Vec::new();
    for doc in &CORPUS {
        tapes.push((
            doc,
            "FET2",
            write_tape(doc.xml, TapeWriter::new(Cursor::new(Vec::new())).unwrap()),
        ));
        if doc.fet1 {
            let v1 = TapeWriter::new_v1(Cursor::new(Vec::new())).unwrap();
            tapes.push((doc, "FET1", write_tape(doc.xml, v1)));
        }
    }
    for (t, (doc, format, (tape, info))) in tapes.iter().enumerate() {
        let copy = PreparedQuery::compile(doc.copy).unwrap();
        let child = PreparedQuery::compile(doc.child).unwrap();
        assert!(
            !QuerySetPlan::new([copy.mft()]).prefilters_whole_set(),
            "{}: the copying query must scan",
            doc.name
        );
        assert!(
            QuerySetPlan::new([child.mft()]).prefilters_whole_set(),
            "{}: the child-path query must take the index",
            doc.name
        );
        let fet1 = *format == "FET1";
        let footer_offset = TAPE_START + info.tape_bytes;
        let read = |path: usize, bytes: &[u8]| match path {
            0 => scan(bytes),
            1 => run(&copy, bytes),
            _ => run(&child, bytes),
        };
        let clean: Vec<(Answer, u64)> = (0..3).map(|p| read(p, tape).unwrap()).collect();
        if let Answer::Run { output, .. } = &clean[2].0 {
            let output = String::from_utf8(output.clone().unwrap()).unwrap();
            assert!(output.len() > "<o></o>".len(), "{}: no answer", doc.name);
        }
        if doc.name == "seeking" && !fet1 {
            assert!(
                clean[1].1 > 0,
                "the copying query must seek on {}",
                doc.name
            );
        }
        let mut check = |what: String, at: u64, bytes: &[u8]| {
            mutants += 1;
            for (p, tally) in totals.iter_mut().enumerate() {
                let got = catch_unwind(AssertUnwindSafe(|| read(p, bytes)));
                let context = || format!("{} {format}, {what}, {} path", doc.name, PATHS[p]);
                match got {
                    Err(_) => wrong.push(format!("{}: panicked", context())),
                    Ok(Err(_)) => tally.failed += 1,
                    Ok(Ok((answer, _))) if answer == clean[p].0 => tally.same += 1,
                    Ok(Ok((_, seeked))) if fet1 && seeked > 0 => {
                        tally.exempt += 1;
                        exempt[3] += 1;
                    }
                    Ok(Ok((_, seeked))) if p == 1 && seeked != clean[p].1 => {
                        tally.exempt += 1;
                        exempt[1 + usize::from(at >= footer_offset)] += 1;
                    }
                    Ok(Ok(_)) if p == 2 && at >= footer_offset => {
                        tally.exempt += 1;
                        exempt[0] += 1;
                    }
                    Ok(Ok((answer, _))) => {
                        wrong.push(format!("{}: answered {answer:?}", context()))
                    }
                }
            }
        };
        for at in (t % STRIDE..tape.len()).step_by(STRIDE) {
            check(format!("cut at {at}"), at as u64, &tape[..at]);
            for bit in 0..8 {
                let mut flipped = tape.clone();
                flipped[at] ^= 1 << bit;
                check(
                    format!("bit {bit} of byte {at} flipped"),
                    at as u64,
                    &flipped,
                );
            }
        }
    }
    for (path, tally) in PATHS.iter().zip(&totals) {
        eprintln!(
            "{path:>5} path: {} same answer, {} failed, {} exempt",
            tally.same, tally.failed, tally.exempt
        );
    }
    eprintln!(
        "{mutants} mutants; exempt: {} index-path footer, {} + {} seeks moved by damage \
         to the frames + the footer, {} FET1 after a seek",
        exempt[0], exempt[1], exempt[2], exempt[3]
    );
    assert!(mutants > 4_000 / STRIDE as u64, "{mutants} mutants");
    // The unverified footer is a known gap; it must not widen.
    let ceiling = if STRIDE == 1 { 336 } else { 103 };
    assert!(exempt[0] <= ceiling, "{} footer exemptions", exempt[0]);
    assert!(
        wrong.is_empty(),
        "{} wrong outcomes, first: {:#?}",
        wrong.len(),
        &wrong[..wrong.len().min(5)]
    );
}

// ---- hand-made damage ---------------------------------------------------------

/// Read every event of `tape`, returning the first error.
fn scan_error(tape: Vec<u8>) -> Option<StoreError> {
    let mut reader = match TapeReader::new(Cursor::new(tape)) {
        Ok(reader) => reader,
        Err(e) => return Some(e),
    };
    loop {
        match reader.next_event() {
            Ok(XmlEvent::Eof) => return None,
            Ok(_) => {}
            Err(e) => return Some(e),
        }
    }
}

#[test]
fn a_close_offset_that_misses_its_close_is_corrupt_where_the_scan_decodes_it() {
    // <a>: 13..19, <b>: 19..25, "x": 25..33, </x>: 33..39, </b>: 39..45,
    // <c>: 45..51, </c>: 51..57, </a>: 57..63, Eof: 63.
    let (mut tape, _) = write_tape(
        "<a><b>x</b><c/></a>",
        TapeWriter::new(Cursor::new(Vec::new())).unwrap(),
    );
    assert_eq!(
        (tape[19], tape[39], tape[51], tape[63]),
        (0x01, 0x03, 0x03, 0x00)
    );
    assert_eq!(tape[21..25], 14u32.to_le_bytes(), "<b> points at its close");
    assert_eq!(scan_error(tape.clone()).map(|e| e.to_string()), None);
    // Point <b> at </c>: inside <a>, so only its own close can tell.
    tape[21..25].copy_from_slice(&26u32.to_le_bytes());
    match scan_error(tape) {
        Some(StoreError::Corrupt { offset, .. }) => assert_eq!(offset, 39),
        other => panic!("expected Corrupt at </b>, got {other:?}"),
    }
}

#[test]
fn a_label_count_the_footer_cannot_hold_allocates_nothing() {
    // A FET2 header, the Eof tag, and a footer claiming the most labels a
    // tape may have — followed by twenty bytes, not four million entries.
    let mut tape = b"FET2\x02".to_vec();
    tape.extend_from_slice(&14u64.to_le_bytes());
    tape.push(0x00);
    tape.extend_from_slice(&[0x80, 0x80, 0x80, 0x02]); // 1 << 22
    tape.extend_from_slice(&[0; 20]);
    let scope = foxq::obs::AllocScope::begin();
    let error = scan_error(tape);
    let allocated = scope.delta().allocated_bytes;
    assert!(
        matches!(error, Some(StoreError::Corrupt { .. })),
        "{error:?}"
    );
    assert!(allocated < 1 << 20, "{allocated} bytes allocated");
}
