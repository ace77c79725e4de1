//! Fault-injection net for the tape reader.
//!
//! The recipe of `tests/xml_windows.rs`, applied to tapes: a small
//! hand-written corpus and the two old-format fixtures; every byte of every
//! tape truncated there, each of its eight bits flipped, and set to each of
//! [`BOUNDARY`]; every mutant read on each of its paths —
//!
//! * **scan** — `TapeReader::next_event` until `Eof`;
//! * **seek** — `run_lanes` with a subtree-copying query, which no label
//!   prefilter covers: the tape is scanned and seeked wherever the
//!   engine's verdict says a subtree is dead;
//! * **index** — `run_lanes` with a child-path query, which takes the
//!   skip index;
//! * **migrate** — the FET1 and FET2 fixtures, rewritten by `migrate_tape`
//!   and the result scanned.
//!
//! Allowed outcomes: a [`StoreError`] (the type says so), or the undamaged
//! answer. Never a panic, and never a different answer: every byte a path
//! acts on is covered by a hash or a structural check.

use foxq::core::stream::StreamLimits;
use foxq::service::{run_lanes, PreparedQuery, QuerySetPlan};
use foxq::store::{migrate_tape, StoreError, TapeReader, TapeWriter};
use foxq::xml::{WriterSink, XmlEvent, XmlReader};
use std::io::Cursor;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// A debug build mutates every `STRIDE`th byte — a different residue per
/// tape, so together they still touch every offset class; a release build
/// (CI's `cargo test --release --test tape_mutations`) mutates them all.
const STRIDE: usize = if cfg!(debug_assertions) { 4 } else { 1 };

/// The values every byte is also set to: the varint and sign boundaries.
const BOUNDARY: [u8; 4] = [0x00, 0x7F, 0x80, 0xFF];

/// One corpus document and the two queries its mutants are read with.
struct Doc {
    name: &'static str,
    xml: &'static str,
    /// Copies subtrees: scanned, seeked on the engine's verdict.
    copy: &'static str,
    /// A child path the label prefilter covers: the index path.
    child: &'static str,
}

const CORPUS: [Doc; 4] = [
    Doc {
        name: "nested",
        xml: "<a><b>x</b>t<b>y<c>z</c>w</b>u</a>",
        copy: "<o>{$input/a/b}</o>",
        child: "<o>{$input/a/b/text()}</o>",
    },
    Doc {
        name: "compressed",
        xml: "<r><p>abcabcabcabcabcabcabcabc</p><p>q</p></r>",
        copy: "<o>{$input/r/p}</o>",
        child: "<o>{$input/r/p/text()}</o>",
    },
    Doc {
        name: "seeking",
        xml: "<site><junk><x>1</x><y>2</y></junk><keep><k>3</k></keep></site>",
        copy: "<o>{$input/site/keep}</o>",
        child: "<o>{$input/site/keep/k/text()}</o>",
    },
    Doc {
        // Repeated labels at several depths, empty elements, multi-byte
        // text.
        name: "mixed",
        xml: "<d><d><e/>\u{e9}t\u{e9}</d><e>\u{fc}<d/></e><d><e>v</e></d></d>",
        copy: "<o>{$input/d/e}</o>",
        child: "<o>{$input/d/d/e/text()}</o>",
    },
];

/// Tapes an older foxq wrote, which only migration reads.
const FIXTURES: [(&str, &[u8]); 2] = [
    ("FET1", include_bytes!("fixtures/old-fet1.fet")),
    ("FET2", include_bytes!("fixtures/old-fet2.fet")),
];

fn write_tape(xml: &str) -> Vec<u8> {
    let mut writer = TapeWriter::new(Cursor::new(Vec::new())).unwrap();
    let mut parser = XmlReader::new(xml.as_bytes());
    loop {
        match parser.next_event().unwrap() {
            XmlEvent::Open(label) => writer.open(&label).unwrap(),
            XmlEvent::Close(_) => writer.close().unwrap(),
            XmlEvent::Eof => break,
        }
    }
    writer.finish().unwrap().0.into_inner()
}

/// What one read path made of a tape: the events (scan, migrate) or the
/// lane's output and the pass's input events (runs), and the tape bytes
/// seeked over.
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

fn migrate(tape: &[u8]) -> Read {
    let (out, _) = migrate_tape(Cursor::new(tape), Cursor::new(Vec::new()))?;
    scan(&out.into_inner())
}

/// Outcomes of one read path over every mutant.
#[derive(Debug, Default, Clone, Copy)]
struct Tally {
    same: u64,
    failed: u64,
}

const PATHS: [&str; 4] = ["scan", "seek", "index", "migrate"];

/// One read path: its index in [`PATHS`] and how it reads a tape.
type Path<'a> = (usize, Box<dyn Fn(&[u8]) -> Read + 'a>);

/// Every mutant of `tape` with what was done to it: cut at each byte, each
/// bit flipped, each byte set to each [`BOUNDARY`] value one flip does not
/// already make.
fn mutants(tape: &[u8], residue: usize) -> impl Iterator<Item = (String, Vec<u8>)> + '_ {
    (residue % STRIDE..tape.len())
        .step_by(STRIDE)
        .flat_map(move |at| {
            let cut = (format!("cut at {at}"), tape[..at].to_vec());
            let flips =
                (0..8).map(move |bit| (format!("bit {bit} of byte {at} flipped"), 1 << bit));
            let sets = BOUNDARY
                .into_iter()
                .filter(move |&b| (b ^ tape[at]).count_ones() > 1)
                .map(move |b| (format!("byte {at} set to {b:#04x}"), b ^ tape[at]));
            let xored = flips.chain(sets).map(move |(what, mask)| {
                let mut mutant = tape.to_vec();
                mutant[at] ^= mask;
                (what, mutant)
            });
            std::iter::once(cut).chain(xored)
        })
}

#[test]
fn every_mutant_tape_fails_cleanly_or_answers_as_the_undamaged_one() {
    let start = Instant::now();
    let queries: Vec<_> = CORPUS
        .iter()
        .map(|doc| {
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
            (copy, child)
        })
        .collect();
    let mut subjects: Vec<(String, Vec<u8>, Vec<Path>)> = CORPUS
        .iter()
        .zip(&queries)
        .map(|(doc, (copy, child))| {
            let paths: Vec<Path> = vec![
                (0, Box::new(scan)),
                (1, Box::new(move |tape| run(copy, tape))),
                (2, Box::new(move |tape| run(child, tape))),
            ];
            (doc.name.to_string(), write_tape(doc.xml), paths)
        })
        .collect();
    for (format, tape) in FIXTURES {
        let paths: Vec<Path> = vec![(3, Box::new(migrate))];
        subjects.push((format!("{format} fixture"), tape.to_vec(), paths));
    }
    let mut totals = [Tally::default(); 4];
    let mut wrong: Vec<String> = Vec::new();
    let mut mutants_read = 0u64;
    for (t, (name, tape, paths)) in subjects.iter().enumerate() {
        let clean: Vec<(Answer, u64)> = paths.iter().map(|(_, read)| read(tape).unwrap()).collect();
        for ((p, _), (answer, seeked)) in paths.iter().zip(&clean) {
            if let Answer::Run { output, .. } = answer {
                let output = String::from_utf8(output.clone().unwrap()).unwrap();
                assert!(output.len() > "<o></o>".len(), "{name}: no answer");
            }
            if name == "seeking" && *p == 1 {
                assert!(*seeked > 0, "the copying query must seek on {name}");
            }
        }
        for (what, mutant) in mutants(tape, t) {
            mutants_read += 1;
            for ((p, read), (clean, _)) in paths.iter().zip(&clean) {
                let got = catch_unwind(AssertUnwindSafe(|| read(&mutant)));
                let context = || format!("{name}, {what}, {} path", PATHS[*p]);
                match got {
                    Err(_) => wrong.push(format!("{}: panicked", context())),
                    Ok(Err(_)) => totals[*p].failed += 1,
                    Ok(Ok((answer, _))) if answer == *clean => totals[*p].same += 1,
                    Ok(Ok((answer, _))) => {
                        wrong.push(format!("{}: answered {answer:?}", context()))
                    }
                }
            }
        }
    }
    for (path, tally) in PATHS.iter().zip(&totals) {
        eprintln!(
            "{path:>7} path: {} same answer, {} failed",
            tally.same, tally.failed
        );
    }
    eprintln!(
        "{mutants_read} mutants at stride {STRIDE} in {:.2?}",
        start.elapsed()
    );
    assert!(
        mutants_read > 8_000 / STRIDE as u64,
        "{mutants_read} mutants"
    );
    assert!(
        wrong.is_empty(),
        "{} wrong outcomes, first: {:#?}",
        wrong.len(),
        &wrong[..wrong.len().min(5)]
    );
}

// ---- hand-made damage ---------------------------------------------------------

#[test]
fn a_close_offset_that_misses_its_close_is_corrupt_where_the_scan_decodes_it() {
    // <a>: 13..19, <b>: 19..25, "x": 25..33, </x>: 33..39, </b>: 39..45,
    // <c>: 45..51, </c>: 51..57, </a>: 57..63, Eof: 63.
    let mut tape = write_tape("<a><b>x</b><c/></a>");
    assert_eq!(
        (tape[19], tape[39], tape[51], tape[63]),
        (0x01, 0x03, 0x03, 0x00)
    );
    assert_eq!(tape[21..25], 14u32.to_le_bytes(), "<b> points at its close");
    assert!(scan(&tape).is_ok());
    // Point <b> at </c>: inside <a>, so only its own close can tell.
    tape[21..25].copy_from_slice(&26u32.to_le_bytes());
    match scan(&tape) {
        Err(StoreError::Corrupt { offset, .. }) => assert_eq!(offset, 39),
        other => panic!("expected Corrupt at </b>, got {other:?}"),
    }
}

#[test]
fn a_label_count_the_footer_cannot_hold_allocates_nothing() {
    // A header, the Eof tag, and a footer claiming the most labels a tape
    // may have — followed by twenty bytes, not four million entries.
    let mut tape = b"FET3\x03".to_vec();
    tape.extend_from_slice(&14u64.to_le_bytes());
    tape.push(0x00);
    tape.extend_from_slice(&[0x80, 0x80, 0x80, 0x02]); // 1 << 22
    tape.extend_from_slice(&[0; 20]);
    let scope = foxq::obs::AllocScope::begin();
    let error = scan(&tape).err();
    let allocated = scope.delta().allocated_bytes;
    assert!(
        matches!(error, Some(StoreError::Corrupt { .. })),
        "{error:?}"
    );
    assert!(allocated < 1 << 20, "{allocated} bytes allocated");
}
