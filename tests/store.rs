//! Integration tests for the foxq-store tape subsystem: event-stream
//! round-trips against the XML parser on every generated dataset, seek-path
//! vs scan-path vs prefilter-off agreement, and corrupt-tape error paths
//! surfaced through the serving layer.

use foxq::core::emit::EmitWriter;
use foxq::core::stream::{StreamError, StreamLimits, StreamStats};
use foxq::core::{parse_mft, Mft};
use foxq::forest::Label;
use foxq::service::{
    run_lanes, run_multi, run_multi_on_tape, BatchDriver, Events, MultiQueryEngine, MultiRun,
    PreparedQuery, QuerySetPlan,
};
use foxq::store::{ingest_xml_to_tape, Corpus, StoreError, TapeDrive, TapeReader};
use foxq::xml::{forest_to_xml_string, ForestSink, WriterSink, XmlEvent, XmlReader};
use foxq_gen::Dataset;
use proptest::prelude::*;
use std::io::Cursor;
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("foxq-store-it-{test}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Parse `xml` directly, collecting the event stream.
fn parse_events(xml: &[u8]) -> Vec<XmlEvent> {
    let mut reader = XmlReader::new(xml);
    let mut events = Vec::new();
    loop {
        let ev = reader.next_event().unwrap();
        let done = ev == XmlEvent::Eof;
        events.push(ev);
        if done {
            return events;
        }
    }
}

/// Write `xml` to an in-memory tape, then replay it.
fn tape_events(xml: &[u8]) -> Vec<XmlEvent> {
    let (out, info, source_bytes) = ingest_xml_to_tape(xml, Cursor::new(Vec::new())).unwrap();
    assert_eq!(source_bytes, xml.len() as u64);
    let mut tape = TapeReader::new(Cursor::new(out.into_inner())).unwrap();
    assert_eq!(tape.info(), &info);
    let mut events = Vec::new();
    loop {
        let ev = tape.next_event().unwrap();
        let done = ev == XmlEvent::Eof;
        events.push(ev);
        if done {
            return events;
        }
    }
}

#[test]
fn tape_roundtrips_every_generated_dataset() {
    for dataset in Dataset::ALL {
        let forest = foxq_gen::generate(dataset, 60_000, 0xBEEF);
        let xml = forest_to_xml_string(&forest);
        let direct = parse_events(xml.as_bytes());
        let replayed = tape_events(xml.as_bytes());
        assert_eq!(
            replayed.len(),
            direct.len(),
            "{}: event count mismatch",
            dataset.name()
        );
        assert_eq!(replayed, direct, "{}: event stream drifted", dataset.name());
    }
}

proptest! {
    /// parse → TapeWriter → TapeReader equals direct XmlReader parsing on
    /// seeded random documents from all four generators at random sizes.
    #[test]
    fn tape_roundtrip_randomized(seed in any::<u64>()) {
        let dataset = Dataset::ALL[(seed % 4) as usize];
        let size = 2_000 + (seed >> 3) as usize % 38_000;
        let xml = forest_to_xml_string(&foxq_gen::generate(dataset, size, seed));
        prop_assert_eq!(tape_events(xml.as_bytes()), parse_events(xml.as_bytes()));
    }
}

/// A prefilter-eligible XMark navigator.
const NAMES_QUERY: &str = "<o>{$input/site/people/person/name/text()}</o>";

#[test]
fn prefilter_on_and_off_agree_on_the_tape_path() {
    let prepared = PreparedQuery::compile(NAMES_QUERY).unwrap();
    let mft = prepared.mft();
    let xml = forest_to_xml_string(&foxq_gen::generate(Dataset::Xmark, 120_000, 7));
    let (out, _, _) = ingest_xml_to_tape(xml.as_bytes(), Cursor::new(Vec::new())).unwrap();
    let tape_bytes = out.into_inner();

    // (a) reparse the XML text.
    let reparse = run_multi(
        &[mft],
        XmlReader::new(xml.as_bytes()),
        vec![ForestSink::new()],
    )
    .unwrap();
    // (b) full tape replay through the generic event-source driver (the
    // scan-mode prefilter still runs, but nothing is seeked).
    let replay = run_multi(
        &[mft],
        TapeReader::new(Cursor::new(tape_bytes.clone())).unwrap(),
        vec![ForestSink::new()],
    )
    .unwrap();
    // (c) tape replay through the auto-dispatched path: the plan prefilters
    // the whole set and the tape has a skip index, so this takes the merged index
    // cursor.
    let plan = QuerySetPlan::new([mft]);
    let indexed = run_multi_on_tape(
        &[mft],
        TapeReader::new(Cursor::new(tape_bytes.clone())).unwrap(),
        vec![ForestSink::new()],
        StreamLimits::default(),
        &plan,
    )
    .unwrap();
    // (c') the same replay with the index path forced off: linear scan with
    // seek-based subtree skipping.
    let seek = run_lanes(
        &[mft],
        TapeDrive::Linear(TapeReader::new(Cursor::new(tape_bytes.clone())).unwrap()),
        vec![(ForestSink::new(), ())],
        StreamLimits::default(),
        &plan,
    )
    .unwrap();
    // (d) tape replay with the prefilter disabled entirely.
    let mut off_engine = MultiQueryEngine::with_plan(
        vec![(mft, ForestSink::new())],
        StreamLimits::default(),
        &QuerySetPlan::pass_through(1),
    );
    let mut tape = TapeReader::new(Cursor::new(tape_bytes)).unwrap();
    loop {
        match tape.next_event().unwrap() {
            XmlEvent::Open(label) => off_engine.open(&label),
            XmlEvent::Close(_) => off_engine.close(),
            XmlEvent::Eof => break,
        }
    }
    let off = off_engine.finish();

    let output = |sink: ForestSink| forest_to_xml_string(&sink.into_forest());
    let (a, a_stats) = reparse.results.into_iter().next().unwrap().unwrap();
    let (b, b_stats) = replay.results.into_iter().next().unwrap().unwrap();
    let (c, c_stats) = indexed.results.into_iter().next().unwrap().unwrap();
    let (c2, c2_stats, ()) = seek.results.into_iter().next().unwrap().unwrap();
    let (d, d_stats) = off.into_iter().next().unwrap().unwrap();
    let expected = output(a);
    assert!(expected.contains("<o>"), "query produced no output");
    assert_eq!(output(b), expected, "full replay drifted from reparse");
    assert_eq!(output(c), expected, "index replay drifted from reparse");
    assert_eq!(output(c2), expected, "seek replay drifted from reparse");
    assert_eq!(output(d), expected, "prefilter-off replay drifted");

    // Accounting: the same events are withheld on every prefiltered path —
    // the merged cursor must agree with the scan prefilter exactly; the off
    // path sees everything.
    assert!(a_stats.prefiltered_events > 0, "query was not prefiltered");
    assert_eq!(b_stats.prefiltered_events, a_stats.prefiltered_events);
    assert_eq!(c_stats.prefiltered_events, a_stats.prefiltered_events);
    assert_eq!(c2_stats.prefiltered_events, a_stats.prefiltered_events);
    assert_eq!(c_stats.events, c2_stats.events, "delivered events differ");
    assert_eq!(
        d_stats.events,
        a_stats.events + a_stats.prefiltered_events,
        "off path must see every event"
    );
    // The index path jumps bytes without decoding and never seeks; the scan
    // path seeks over skipped subtrees and never consults the index. The
    // index skips at least as much as the scan path seeks (it also jumps
    // over frames the scan has to decode just to test the label).
    assert!(c_stats.index_skipped_bytes > 0, "index path never skipped");
    assert_eq!(
        indexed.source.index_skipped_bytes,
        c_stats.index_skipped_bytes
    );
    assert_eq!(indexed.source.seek_skipped_bytes, 0);
    assert!(seek.source.seek_skipped_bytes > 0, "seek path never seeked");
    assert_eq!(c2_stats.index_skipped_bytes, 0);
    assert!(c_stats.index_skipped_bytes >= seek.source.seek_skipped_bytes);
    assert_eq!(reparse.source.seek_skipped_bytes, 0);
    assert_eq!(replay.source.seek_skipped_bytes, 0);
}

#[test]
fn a_copied_subtree_is_replayed_whole_on_the_seek_path() {
    // The copy of each <a> passes its events straight to the sink, so no
    // call subscribes inside it; the engine must not report it dead all
    // the same, or the seek would skip what has to be copied. Nothing
    // reads <z>: it is seeked over.
    let query = PreparedQuery::compile("<o>{$input/r/a}</o>").unwrap();
    let xml = "<r><a><b><c/>t</b></a><z><y/>u</z><a>v</a></r>";
    let want = "<o><a><b><c></c>t</b></a><a>v</a></o>";
    let (out, _, _) = ingest_xml_to_tape(xml.as_bytes(), Cursor::new(Vec::new())).unwrap();
    let tape = out.into_inner();

    let reader = TapeReader::new(Cursor::new(tape.clone())).unwrap();
    let sink = WriterSink::new(Vec::new());
    let (sink, stats) = foxq::core::stream::run_streaming_with_limits(
        query.mft(),
        reader,
        sink,
        StreamLimits::default(),
    )
    .unwrap();
    assert_eq!(String::from_utf8(sink.finish().unwrap()).unwrap(), want);
    // <y/> and `u`: two opens and two closes.
    assert_eq!(stats.prefiltered_events, 4);

    let seek = run_lanes(
        &[query.mft()],
        TapeDrive::Linear(TapeReader::new(Cursor::new(tape)).unwrap()),
        vec![(WriterSink::new(Vec::new()), ())],
        StreamLimits::default(),
        &QuerySetPlan::new([query.mft()]),
    )
    .unwrap();
    assert!(seek.source.seek_skipped_bytes > 0, "nothing was seeked");
    let (sink, lane_stats, ()) = seek.results.into_iter().next().unwrap().unwrap();
    assert_eq!(String::from_utf8(sink.finish().unwrap()).unwrap(), want);
    assert_eq!(lane_stats, stats);
}

#[test]
fn corrupt_tapes_fail_cleanly_through_the_batch_driver() {
    let dir = scratch("corrupt");
    let mut corpus = Corpus::open(&dir).unwrap();
    corpus
        .add_xml(
            "good",
            &b"<site><people><person><name>ok</name></person></people></site>"[..],
        )
        .unwrap();
    corpus
        .add_xml(
            "bad",
            &b"<site><people><person><name>tampered</name></person></people></site>"[..],
        )
        .unwrap();

    // Flip one payload byte of the "bad" tape on disk (checksum breaks).
    let path = corpus.tape_path("bad").unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    let pos = bytes
        .windows(b"tampered".len())
        .position(|w| w == b"tampered")
        .expect("payload not found on tape");
    bytes[pos] ^= 0x01;
    std::fs::write(&path, &bytes).unwrap();

    // Truncate a third tape mid-frame.
    corpus
        .add_xml("cut", &b"<site><a>some longer content here</a></site>"[..])
        .unwrap();
    let cut_path = corpus.tape_path("cut").unwrap();
    let full = std::fs::read(&cut_path).unwrap();
    std::fs::write(&cut_path, &full[..full.len() / 2]).unwrap();

    let queries = vec![Arc::new(
        PreparedQuery::compile("<o>{$input//name}</o>").unwrap(),
    )];
    let run = BatchDriver::new(2).run_corpus(&corpus, &queries);
    assert_eq!(run.doc_ids, vec!["bad", "cut", "good"]);
    assert_eq!(run.report.failures, 2);
    let err = run.report.output(0, 0).as_ref().unwrap_err();
    assert!(err.contains("checksum"), "unexpected error: {err}");
    let err = run.report.output(1, 0).as_ref().unwrap_err();
    assert!(err.contains("corrupt"), "unexpected error: {err}");
    assert_eq!(
        run.report.output(2, 0).as_ref().unwrap(),
        "<o><name>ok</name></o>"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// A corpus at `dir` holding both old-format fixtures as the foxq that
/// wrote them left it: the tapes `fet1` and `fet2` and their manifest lines.
fn plant_fixtures(dir: &Path) -> Corpus {
    std::fs::create_dir_all(dir).unwrap();
    let mut manifest = String::new();
    for version in [1, 2] {
        let tape = std::fs::read(fixture(&format!("old-fet{version}.fet"))).unwrap();
        std::fs::write(dir.join(format!("fet{version}.fet")), &tape).unwrap();
        let len = tape.len();
        manifest += &format!("fet{version}\tfet{version}.fet\t{version}\t198\t{len}\t32\t0\n");
    }
    std::fs::write(dir.join("manifest.tsv"), manifest).unwrap();
    Corpus::open(dir).unwrap()
}

/// What every refusal of an older tape names.
const MIGRATE_HINT: &str = "foxq store migrate --dir";

#[test]
fn old_fixtures_migrate_and_answer_as_the_xml_path() {
    let dir = scratch("fixtures");
    let mut corpus = plant_fixtures(&dir);
    let xml = std::fs::read(fixture("old.xml")).unwrap();
    assert_eq!(corpus.migrate_all().unwrap(), 2);
    let sources = [
        NAMES_QUERY,
        "<o>{$input/site/people/person}</o>",
        "<o>{$input//name}</o>",
        "<o>{$input/site/*}</o>",
    ];
    for id in ["fet1", "fet2"] {
        assert_eq!(corpus.get(id).unwrap().version, 3);
        let tape = std::fs::read(corpus.tape_path(id).unwrap()).unwrap();
        for source in sources {
            let prepared = PreparedQuery::compile(source).unwrap();
            let mft = prepared.mft();
            let from_xml = prepared
                .run_to_string(&xml[..], StreamLimits::default())
                .unwrap()
                .output;
            let run = run_multi_on_tape(
                &[mft],
                reader(&tape),
                vec![WriterSink::new(Vec::new())],
                StreamLimits::default(),
                &QuerySetPlan::new([mft]),
            )
            .unwrap();
            // The child-path query rides the rewritten tape's skip index.
            let indexed = run.source.index_skipped_bytes > 0;
            assert_eq!(indexed, source == NAMES_QUERY, "{id} {source}");
            let (sink, _) = run.results.into_iter().next().unwrap().unwrap();
            let from_tape = String::from_utf8(sink.finish().unwrap()).unwrap();
            assert_eq!(from_tape, from_xml, "{id} {source}");
        }
    }
    // A second migration rewrites nothing.
    let tapes = ["fet1", "fet2"].map(|id| std::fs::read(corpus.tape_path(id).unwrap()).unwrap());
    assert_eq!(corpus.migrate_all().unwrap(), 0);
    for (id, tape) in ["fet1", "fet2"].iter().zip(tapes) {
        assert_eq!(corpus.migrate(id).unwrap().version, 3);
        assert_eq!(std::fs::read(corpus.tape_path(id).unwrap()).unwrap(), tape);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_stale_tape_fails_the_same_way_at_every_entry_point() {
    let dir = scratch("stale");
    let corpus_dir = dir.join("corpus");
    let corpus = plant_fixtures(&corpus_dir);
    let query = dir.join("q.xq");
    std::fs::write(&query, NAMES_QUERY).unwrap();
    let foxq = |args: &[&Path]| {
        std::process::Command::new(env!("CARGO_BIN_EXE_foxq"))
            .args(args)
            .output()
            .unwrap()
    };
    let (run, stats) = (Path::new("run"), Path::new("stats"));
    for id in ["fet1", "fet2"] {
        let tape = corpus.tape_path(id).unwrap();
        assert!(matches!(
            TapeReader::open_file(&tape),
            Err(StoreError::NeedsMigration { .. })
        ));
        assert!(matches!(
            corpus.open_tape(id),
            Err(StoreError::NeedsMigration { .. })
        ));
        for args in [
            [run, &query, &tape].as_slice(),
            &[stats, &query, &tape],
            &[stats, &tape],
        ] {
            let out = foxq(args);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
            assert!(stderr.contains(MIGRATE_HINT), "{args:?}: {stderr}");
        }
    }
    let queries = vec![Arc::new(PreparedQuery::compile(NAMES_QUERY).unwrap())];
    let batch = BatchDriver::new(2).run_corpus(&corpus, &queries);
    assert_eq!(batch.report.failures, 2);
    for d in 0..2 {
        let err = batch.report.output(d, 0).as_ref().unwrap_err();
        assert!(err.contains(MIGRATE_HINT), "{err}");
    }
    // `foxq store migrate` mends them; then the tapes answer as the XML.
    let out = foxq(&[
        Path::new("store"),
        Path::new("migrate"),
        Path::new("--dir"),
        &corpus_dir,
    ]);
    assert!(out.status.success());
    let said = String::from_utf8_lossy(&out.stdout);
    assert!(said.contains("migrated 2 tape(s) to FET3"), "{said}");
    let from_xml = foxq(&[run, &query, &fixture("old.xml")]);
    assert!(String::from_utf8_lossy(&from_xml.stdout).contains("Jim Blake"));
    for id in ["fet1", "fet2"] {
        let out = foxq(&[run, &query, &corpus_dir.join(format!("{id}.fet"))]);
        assert_eq!(out.stdout, from_xml.stdout, "{id}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_posting_list_fails_cleanly_on_the_index_path() {
    let dir = scratch("postings");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("doc.fet");
    let xml = forest_to_xml_string(&foxq_gen::generate(Dataset::Xmark, 60_000, 11));
    ingest_xml_to_tape(xml.as_bytes(), std::fs::File::create(&path).unwrap()).unwrap();

    // Locate <name>'s posting list via the footer directory and overwrite
    // its first offset delta with a varint pointing far past the frames.
    let tape = TapeReader::open_file(&path).unwrap();
    let name_id = tape
        .labels()
        .iter()
        .position(|l| *l == Label::elem("name"))
        .expect("XMark has <name> elements");
    let entry = tape.posting_dir()[name_id];
    assert!(
        entry.count > 0 && entry.bytes >= 5,
        "list too small to smash"
    );
    drop(tape);
    let mut bytes = std::fs::read(&path).unwrap();
    let at = entry.offset as usize;
    bytes[at..at + 5].copy_from_slice(&[0xFF, 0xFF, 0xFF, 0xFF, 0x7F]);
    std::fs::write(&path, &bytes).unwrap();

    let prepared = PreparedQuery::compile(NAMES_QUERY).unwrap();
    let mft = prepared.mft();
    let plan = QuerySetPlan::new([mft]);
    let tape = TapeReader::open_file(&path).unwrap();
    let err = run_multi_on_tape(
        &[mft],
        tape,
        vec![ForestSink::new()],
        StreamLimits::default(),
        &plan,
    )
    .map(|_| ())
    .expect_err("smashed posting list must not answer queries")
    .to_string();
    // Refused by the list's own hash before a posting is decoded.
    assert!(err.contains("checksum"), "unexpected error: {err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn index_path_catches_a_flipped_text_byte_at_the_subtree_close() {
    let dir = scratch("subtree-sum");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("doc.fet");
    let xml = "<site><people><person><name>somename</name></person></people></site>";
    ingest_xml_to_tape(xml.as_bytes(), std::fs::File::create(&path).unwrap()).unwrap();

    // Short texts are stored raw, so the payload is findable on disk.
    let mut bytes = std::fs::read(&path).unwrap();
    let pos = bytes
        .windows(b"somename".len())
        .position(|w| w == b"somename")
        .expect("payload not found on tape");
    bytes[pos] ^= 0x01;
    std::fs::write(&path, &bytes).unwrap();

    let prepared = PreparedQuery::compile(NAMES_QUERY).unwrap();
    let mft = prepared.mft();
    let plan = QuerySetPlan::new([mft]);
    let err = run_multi_on_tape(
        &[mft],
        TapeReader::open_file(&path).unwrap(),
        vec![ForestSink::new()],
        StreamLimits::default(),
        &plan,
    )
    .map(|_| ())
    .expect_err("the delivered subtree's checksum must catch the flip")
    .to_string();
    assert!(err.contains("checksum"), "unexpected error: {err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_compressed_text_fails_cleanly() {
    let dir = scratch("lz");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("doc.fet");
    // Long repetitive text: stored LZ-compressed (asserted below).
    let text = "the quick brown fox jumps over the lazy dog; ".repeat(128);
    let xml = format!("<site><doc>{text}</doc></site>");
    let (_, info, _) =
        ingest_xml_to_tape(xml.as_bytes(), std::fs::File::create(&path).unwrap()).unwrap();
    assert!(
        info.enc_text_bytes < info.raw_text_bytes,
        "text did not compress ({} stored vs {} raw)",
        info.enc_text_bytes,
        info.raw_text_bytes
    );

    // Zero a run of bytes inside the compressed payload. The frame layout
    // puts the text payload within a few bytes of the two open frames, and
    // the encoding is far longer than the smashed range, so offsets 40..56
    // land inside it.
    let mut bytes = std::fs::read(&path).unwrap();
    for b in &mut bytes[40..56] {
        *b = 0;
    }
    std::fs::write(&path, &bytes).unwrap();

    // The decoder either fails to reconstruct raw_len bytes (corrupt) or
    // reconstructs the wrong bytes (subtree checksum) — both are errors.
    let prepared = PreparedQuery::compile("<o>{$input/site/doc/text()}</o>").unwrap();
    let mft = prepared.mft();
    let plan = QuerySetPlan::new([mft]);
    let err = run_multi_on_tape(
        &[mft],
        TapeReader::open_file(&path).unwrap(),
        vec![ForestSink::new()],
        StreamLimits::default(),
        &plan,
    )
    .map(|_| ())
    .expect_err("corrupted compressed text must not decode silently")
    .to_string();
    assert!(
        err.contains("corrupt") || err.contains("checksum") || err.contains("text"),
        "unexpected error: {err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corpus_round_trip_over_all_datasets() {
    let dir = scratch("datasets");
    let mut corpus = Corpus::open(&dir).unwrap();
    for (i, dataset) in Dataset::ALL.iter().enumerate() {
        let xml = forest_to_xml_string(&foxq_gen::generate(*dataset, 30_000, i as u64));
        let id = format!("ds{i}");
        let meta = corpus.add_xml(&id, xml.as_bytes()).unwrap();
        assert_eq!(meta.source_bytes, xml.len() as u64);
        // The stored event count equals what a direct parse yields.
        assert_eq!(meta.events, (parse_events(xml.as_bytes()).len() - 1) as u64);
    }
    // An identity-ish query over every stored doc succeeds on all four.
    let queries = vec![Arc::new(
        PreparedQuery::compile("<all>{$input/*}</all>").unwrap(),
    )];
    let run = BatchDriver::new(2).run_corpus(&corpus, &queries);
    assert_eq!(run.report.failures, 0);
    for row in &run.report.cells {
        assert!(row[0].output.as_ref().unwrap().starts_with("<all>"));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Engine-driven subtree skipping: one answer on every read path
// ---------------------------------------------------------------------------

fn tape_of(xml: &str) -> Vec<u8> {
    let (out, _, _) = ingest_xml_to_tape(xml.as_bytes(), Cursor::new(Vec::new())).unwrap();
    out.into_inner()
}

fn reader(tape: &[u8]) -> TapeReader<Cursor<Vec<u8>>> {
    TapeReader::new(Cursor::new(tape.to_vec())).unwrap()
}

/// Per lane: the output bytes and, when the sinks were emitting ones, the
/// sequence of emission chunks — or the error's text.
type LaneOutcome = Result<(Vec<u8>, Vec<Vec<u8>>), String>;

/// A buffered run's lanes, with the accounting identity checked on every
/// successful one.
fn buffered<E: std::fmt::Debug>(
    run: Result<Unobserved<WriterSink<Vec<u8>>>, E>,
    what: &str,
) -> (Vec<LaneOutcome>, u64) {
    let run = run.unwrap_or_else(|e| panic!("{what}: {e:?}"));
    let input_events = run.input_events;
    let lanes = run
        .results
        .into_iter()
        .map(|lane| match lane {
            Ok((sink, stats, ())) => {
                assert_eq!(
                    stats.events + stats.prefiltered_events,
                    input_events,
                    "{what}: delivered + withheld must cover the input"
                );
                Ok((sink.finish().unwrap(), Vec::new()))
            }
            Err(e) => Err(e.to_string()),
        })
        .collect();
    (lanes, input_events)
}

/// The chunks one emitting lane delivered, in order.
type Chunks = std::cell::RefCell<Vec<Vec<u8>>>;

/// One emitting sink per lane, recording its chunks into `chunked`.
fn emitters(chunked: &[Chunks]) -> Vec<EmitWriter<impl FnMut(&[u8]) -> std::io::Result<()> + '_>> {
    chunked
        .iter()
        .map(|lane| {
            lane.borrow_mut().clear();
            EmitWriter::new(move |c: &[u8]| {
                lane.borrow_mut().push(c.to_vec());
                Ok(())
            })
        })
        .collect()
}

/// A run of unobserved lanes.
type Unobserved<S> = MultiRun<(S, StreamStats, ())>;

/// Pair each sink with the disabled observer.
fn unobserved<S>(sinks: Vec<S>) -> Vec<(S, ())> {
    sinks.into_iter().map(|sink| (sink, ())).collect()
}

/// An emitting run's lanes (bytes = the chunks concatenated), with the
/// accounting identity checked on every successful one.
fn emitted<F: FnMut(&[u8]) -> std::io::Result<()>>(
    run: Unobserved<EmitWriter<F>>,
    chunked: &[Chunks],
    what: &str,
) -> (Vec<LaneOutcome>, u64) {
    let input = run.input_events;
    let lanes = run
        .results
        .into_iter()
        .zip(chunked)
        .map(|(lane, chunks)| match lane {
            Ok((sink, stats, ())) => {
                sink.finish().unwrap();
                assert_eq!(stats.events + stats.prefiltered_events, input, "{what}");
                let chunks = chunks.borrow().clone();
                Ok((chunks.concat(), chunks))
            }
            Err(e) => Err(e.to_string()),
        })
        .collect();
    (lanes, input)
}

/// Each lane's bytes (or error), without the chunking.
fn bytes_of(lanes: &[LaneOutcome]) -> Vec<Result<&Vec<u8>, &String>> {
    lanes
        .iter()
        .map(|lane| lane.as_ref().map(|(bytes, _)| bytes))
        .collect()
}

/// Every read path of one query set over one tape must give each lane the
/// same bytes — and, when emitting, the same chunks — as a full replay that
/// skips nothing.
fn assert_paths_agree(mfts: &[&Mft], tape: &[u8], limits: StreamLimits, what: &str) {
    let n = mfts.len();
    let plan = QuerySetPlan::new(mfts.iter().copied());
    let pass = QuerySetPlan::pass_through(n);
    let sinks = || unobserved((0..n).map(|_| WriterSink::new(Vec::new())).collect());
    let mut chunked: Vec<Chunks> = Vec::new();
    chunked.resize_with(n, Default::default);
    let emitting = || unobserved(emitters(&chunked));

    // The reference: the generic event-source loop, every frame decoded,
    // nothing withheld.
    let (full, input_events) = buffered(
        run_lanes(mfts, Events(reader(tape)), sinks(), limits, &pass),
        what,
    );
    for (plan, mode) in [(&plan, "plan"), (&pass, "pass-through")] {
        let what = format!("{what}, {mode}");
        // Withholding an event from a lane also withholds the flush it
        // would have made, so the chunk sequence is compared with a full
        // replay under the same plan: seeking must not move a boundary.
        let (full_emit, _) = emitted(
            run_lanes(mfts, Events(reader(tape)), emitting(), limits, plan).unwrap(),
            &chunked,
            &what,
        );
        assert_eq!(bytes_of(&full_emit), bytes_of(&full), "{what}: full emit");

        let (auto, auto_input) =
            buffered(run_lanes(mfts, reader(tape), sinks(), limits, plan), &what);
        let (scan, scan_input) = buffered(
            run_lanes(mfts, TapeDrive::Linear(reader(tape)), sinks(), limits, plan),
            &what,
        );
        assert_eq!(auto, full, "{what}: auto path");
        assert_eq!(scan, full, "{what}: scan path");

        let (auto_emit, auto_emit_input) = emitted(
            run_lanes(mfts, reader(tape), emitting(), limits, plan).unwrap(),
            &chunked,
            &what,
        );
        let (scan_emit, scan_emit_input) = emitted(
            run_lanes(
                mfts,
                TapeDrive::Linear(reader(tape)),
                emitting(),
                limits,
                plan,
            )
            .unwrap(),
            &chunked,
            &what,
        );
        assert_eq!(auto_emit, full_emit, "{what}: auto path, emitting");
        assert_eq!(scan_emit, full_emit, "{what}: scan path, emitting");

        // A pass that ends early (every lane failed) may stop anywhere;
        // one that reaches the end has seen or accounted every event.
        if full.iter().any(|lane| lane.is_ok()) {
            for input in [auto_input, scan_input, auto_emit_input, scan_emit_input] {
                assert_eq!(input, input_events, "{what}: input events");
            }
        }
    }
}

/// A query native to each generator's vocabulary that copies subtrees, so
/// the dead-location rule has work on the documents XMark queries only
/// glance at.
fn copying_query_for(dataset: Dataset) -> &'static str {
    match dataset {
        Dataset::Xmark => "<o>{$input/site/people/person/name}</o>",
        Dataset::Treebank => "<o>{for $s in $input/FILE/EMPTY/S return <s>{$s/NP}</s>}</o>",
        Dataset::Medline => "<o>{$input/MedlineCitationSet/MedlineCitation/Article/AuthorList}</o>",
        Dataset::Protein => "<o>{$input/ProteinDatabase/ProteinEntry/protein}</o>",
    }
}

#[test]
fn every_read_path_agrees_with_a_full_replay() {
    for dataset in Dataset::ALL {
        let xml = forest_to_xml_string(&foxq_gen::generate(dataset, 40_000, 0x5EED));
        let tape = tape_of(&xml);
        let mut sources: Vec<(&str, &str)> = foxq_bench::QUERIES
            .iter()
            .filter(|(name, _)| *name != "fourstar")
            .copied()
            .collect();
        sources.push(("copy", "<o>{$input/site}</o>"));
        sources.push(("native", copying_query_for(dataset)));
        for (name, source) in sources {
            let prepared = PreparedQuery::compile(source).unwrap();
            assert_paths_agree(
                &[prepared.mft()],
                &tape,
                StreamLimits::default(),
                &format!("{} {name}", dataset.name()),
            );
        }
    }
}

#[test]
fn mixed_lane_sets_agree_with_a_full_replay() {
    let xml = forest_to_xml_string(&foxq_gen::generate(Dataset::Xmark, 60_000, 21));
    let tape = tape_of(&xml);
    let compile = |name: &str| PreparedQuery::compile(foxq_bench::query_source(name)).unwrap();
    let (q1, q13, q16) = (compile("Q1"), compile("Q13"), compile("Q16"));
    let copy = PreparedQuery::compile("<o>{$input/site/people}</o>").unwrap();
    let looping = parse_mft("q0(%) -> q0(x0);").unwrap();
    let limits = StreamLimits {
        max_expansions_per_event: 100_000,
        ..StreamLimits::default()
    };
    let sets: [(&str, Vec<&Mft>); 4] = [
        (
            "eligible + pass-through",
            vec![q1.mft(), q13.mft(), q16.mft()],
        ),
        ("a lane out of fuel", vec![q1.mft(), &looping, q13.mft()]),
        ("all pass-through", vec![q13.mft(), copy.mft()]),
        ("every lane out of fuel", vec![&looping, &looping]),
    ];
    for (name, mfts) in &sets {
        assert_paths_agree(mfts, &tape, limits, name);
    }
    // The failing lane really failed, and the others really skipped.
    let mfts = &sets[1].1;
    let run = run_multi_on_tape(
        mfts,
        reader(&tape),
        (0..3).map(|_| WriterSink::new(Vec::new())).collect(),
        limits,
        &QuerySetPlan::new(mfts.iter().copied()),
    )
    .unwrap();
    assert!(matches!(run.results[1], Err(StreamError::Fuel { .. })));
    assert!(
        run.source.seek_skipped_bytes > 0,
        "a failed lane must not pin the tape"
    );
}

#[test]
fn q13_reads_a_tenth_of_the_2mib_xmark_tape() {
    let xml = forest_to_xml_string(&foxq_gen::generate(Dataset::Xmark, 2 << 20, 0xF0E5));
    let tape = tape_of(&xml);
    let tape_events = reader(&tape).info().events;
    let q13 = PreparedQuery::compile(foxq_bench::query_source("Q13")).unwrap();
    assert!(
        !q13.mft().projection().elements,
        "Q13 copies subtrees: no static projection, no skip index"
    );
    let run = run_multi_on_tape(
        &[q13.mft()],
        reader(&tape),
        vec![WriterSink::new(Vec::new())],
        StreamLimits::default(),
        &QuerySetPlan::new([q13.mft()]),
    )
    .unwrap();
    let (sink, stats) = run.results.into_iter().next().unwrap().unwrap();
    assert_eq!(run.input_events, tape_events + 1);
    assert_eq!(stats.events + stats.prefiltered_events, run.input_events);
    assert!(
        stats.events * 10 <= tape_events,
        "Q13 was fed {} of {tape_events} events",
        stats.events
    );
    assert!(run.source.seek_skipped_bytes * 10 >= tape.len() as u64 * 7);
    let reparsed = q13
        .run_to_string(xml.as_bytes(), StreamLimits::default())
        .unwrap();
    assert_eq!(
        String::from_utf8(sink.finish().unwrap()).unwrap(),
        reparsed.output
    );
}

/// A document where Q13 copies one description and never looks at the
/// other region; the four texts are findable on the tape (short texts are
/// stored raw).
const TWO_REGIONS: &str = "<site><regions><africa><item><name>decoyname</name>\
    <description><text>decoytext</text></description></item></africa>\
    <australia><item><name>wantedname</name>\
    <description><text>wantedtext</text></description></item></australia>\
    </regions></site>";

fn flip_text(tape: &[u8], text: &str) -> Vec<u8> {
    let mut bytes = tape.to_vec();
    let at = bytes
        .windows(text.len())
        .position(|w| w == text.as_bytes())
        .unwrap_or_else(|| panic!("{text} not found on the tape"));
    bytes[at + 1] ^= 0x20;
    bytes
}

fn run_q13(tape: &[u8]) -> Result<(String, u64), StoreError> {
    let q13 = PreparedQuery::compile(foxq_bench::query_source("Q13")).unwrap();
    let run = run_multi_on_tape(
        &[q13.mft()],
        reader(tape),
        vec![WriterSink::new(Vec::new())],
        StreamLimits::default(),
        &QuerySetPlan::new([q13.mft()]),
    )?;
    let seeked = run.source.seek_skipped_bytes;
    let (sink, _) = run.results.into_iter().next().unwrap().unwrap();
    Ok((String::from_utf8(sink.finish().unwrap()).unwrap(), seeked))
}

#[test]
fn a_skipping_replay_verifies_what_it_decodes_and_only_that() {
    let tape = tape_of(TWO_REGIONS);
    let (clean, seeked) = run_q13(&tape).unwrap();
    assert!(clean.contains("wantedtext") && !clean.contains("decoy"));
    assert!(seeked > 0, "<africa> was not seeked over");
    // Inside the copied description, and in the name Q13 reads: caught at
    // the enclosing close.
    for text in ["wantedtext", "wantedname"] {
        match run_q13(&flip_text(&tape, text)) {
            Err(StoreError::Checksum { .. }) => {}
            other => panic!("flip in {text}: {other:?}"),
        }
    }
    // Inside the region nobody subscribed to: never read. The run succeeds
    // with the same answer, which also means every enclosing hash —
    // <regions>, <site>, the document's — verified over the stored hash of
    // the skipped child.
    for text in ["decoytext", "decoyname"] {
        let (out, _) = run_q13(&flip_text(&tape, text)).unwrap();
        assert_eq!(out, clean, "flip in {text}");
    }
}

/// Offsets of the `subtree_events` varint of every close frame of a tape, found by walking the frames as the crate docs lay them out.
fn close_count_offsets(tape: &[u8]) -> Vec<usize> {
    fn varint(bytes: &[u8], at: &mut usize) -> u64 {
        let (mut value, mut shift) = (0u64, 0);
        loop {
            let b = bytes[*at];
            *at += 1;
            value |= u64::from(b & 0x7F) << shift;
            if b & 0x80 == 0 {
                return value;
            }
            shift += 7;
        }
    }
    let mut at = 13;
    let mut found = Vec::new();
    loop {
        let tag = tape[at];
        at += 1;
        match tag {
            0x00 => return found,
            0x01 => {
                varint(tape, &mut at);
                at += 4;
            }
            0x02 => {
                varint(tape, &mut at);
                at += varint(tape, &mut at) as usize + 4;
            }
            0x03 => {
                found.push(at);
                varint(tape, &mut at);
                at += 4;
            }
            other => panic!("unknown frame tag {other:#04x} at {}", at - 1),
        }
    }
}

#[test]
fn a_wrong_subtree_event_count_is_corrupt_wherever_it_is_read() {
    let tape = tape_of(TWO_REGIONS);
    let events = reader(&tape).info().events;
    let (clean, _) = run_q13(&tape).unwrap();
    let names =
        PreparedQuery::compile("<o>{$input/site/regions/australia/item/name/text()}</o>").unwrap();
    let names_plan = QuerySetPlan::new([names.mft()]);
    assert!(
        names_plan.prefilters_whole_set(),
        "must take the index path"
    );
    let by_index = |tape: &[u8]| {
        run_multi_on_tape(
            &[names.mft()],
            reader(tape),
            vec![WriterSink::new(Vec::new())],
            StreamLimits::default(),
            &names_plan,
        )
        .map(|run| {
            let input = run.input_events;
            let (sink, stats) = run.results.into_iter().next().unwrap().unwrap();
            assert_eq!(stats.events + stats.prefiltered_events, input);
            (sink.finish().unwrap(), input)
        })
    };
    let (clean_names, _) = by_index(&tape).unwrap();

    let offsets = close_count_offsets(&tape);
    assert_eq!(offsets.len() as u64 * 2, events);
    for &at in &offsets {
        assert!(tape[at] < 0x80, "single-byte counts on this small tape");
        for wrong in [0, 1, tape[at] ^ 1, tape[at] + 2, 0x7F] {
            if wrong == tape[at] {
                continue;
            }
            let mut bad = tape.clone();
            bad[at] = wrong;
            // A full scan decodes every close: always caught.
            let mut full = reader(&bad);
            let err = loop {
                match full.next_event() {
                    Ok(XmlEvent::Eof) => panic!("count {wrong} at {at} went unnoticed"),
                    Ok(_) => {}
                    Err(e) => break e,
                }
            };
            assert!(matches!(err, StoreError::Corrupt { .. }), "{err}");
            // A skipping scan reads it unless it lies strictly inside a
            // skipped subtree; the index path goes by the footer's total.
            // Either way: an error, or the clean answer with every event
            // accounted — never a panic, never a wrong count.
            match run_q13(&bad) {
                Ok((out, _)) => assert_eq!(out, clean),
                Err(e) => assert!(matches!(e, StoreError::Corrupt { .. }), "{e}"),
            }
            match by_index(&bad) {
                Ok((out, input)) => assert_eq!((out, input), (clean_names.clone(), events + 1)),
                Err(e) => assert!(matches!(e, StoreError::Corrupt { .. }), "{e}"),
            }
        }
    }
    // The close of the skipped <africa> (the seventh on the tape) is read
    // by the skip itself: a count that cannot be right is refused there, a
    // merely wrong one at the close of <regions>, where it does not add up.
    let africa_close = offsets[6];
    assert_eq!(tape[africa_close], 14);
    for wrong in [0u8, 1, 12, 16] {
        let mut bad = tape.clone();
        bad[africa_close] = wrong;
        match run_q13(&bad) {
            Err(StoreError::Corrupt { msg, .. }) => {
                assert!(msg.contains("subtree events"), "{msg}")
            }
            other => panic!("count {wrong} on the skipped subtree's close: {other:?}"),
        }
    }
}
