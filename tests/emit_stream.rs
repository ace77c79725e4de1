//! Byte-identity guard for the earliest-emission subsystem: on every
//! generated dataset, the concatenation of the streamed prefixes equals the
//! materialized output — for the XML text source and for tapes, with the
//! label prefilter both on and off. Over XML text the
//! drivers skim the subtrees their engines are dead in; the chunk sequence
//! must be the one of a run that is fed every event.
//!
//! This is the contract [`PreparedQuery::run_streaming`] documents: emission
//! boundaries change *when* bytes leave, never *which* bytes leave.

use foxq::core::emit::{EmitSink, EmitWriter};
use foxq::core::stream::{run_streaming_with_limits, Engine, StreamLimits};
use foxq::core::Mft;
use foxq::service::{run_lanes, Events, PreparedQuery, QuerySetPlan};
use foxq::store::{ingest_xml_to_tape, TapeReader};
use foxq::xml::{forest_to_xml_string, XmlEvent, XmlReader};
use foxq_gen::Dataset;
use proptest::prelude::*;
use std::io::Cursor;

/// A navigator per dataset that matches part of the document, so the
/// prefilter has subtrees to withhold and the stream has output to emit.
fn query_for(dataset: Dataset) -> &'static str {
    match dataset {
        Dataset::Xmark => "<o>{$input/site/people/person/name/text()}</o>",
        Dataset::Treebank => "<o>{$input//NP/NN/text()}</o>",
        Dataset::Medline => {
            "<o>{$input/MedlineCitationSet/MedlineCitation/Article/AuthorList/Author/LastName/text()}</o>"
        }
        Dataset::Protein => "<o>{$input/ProteinDatabase/ProteinEntry/protein/name/text()}</o>",
    }
}

/// A sink that appends each delivered prefix to `chunks`.
fn collecting(
    chunks: &mut Vec<Vec<u8>>,
) -> EmitWriter<impl FnMut(&[u8]) -> std::io::Result<()> + '_> {
    EmitWriter::new(|c: &[u8]| {
        chunks.push(c.to_vec());
        Ok(())
    })
}

/// Stream `xml` through the multi-query driver into an emitting sink: the
/// delivered prefixes, in order.
fn stream_xml(mft: &Mft, xml: &[u8], plan: &QuerySetPlan) -> Vec<Vec<u8>> {
    let mut chunks = Vec::new();
    let lanes = run_lanes(
        &[mft],
        Events(XmlReader::new(xml)),
        vec![(collecting(&mut chunks), ())],
        StreamLimits::default(),
        plan,
    )
    .unwrap()
    .results;
    for lane in lanes {
        lane.unwrap().0.finish().unwrap();
    }
    chunks
}

/// The same through the solo driver.
fn stream_xml_solo(mft: &Mft, xml: &[u8]) -> Vec<Vec<u8>> {
    let mut chunks = Vec::new();
    let sink = collecting(&mut chunks);
    let (sink, _stats) =
        run_streaming_with_limits(mft, XmlReader::new(xml), sink, StreamLimits::default()).unwrap();
    sink.finish().unwrap();
    chunks
}

/// The prefixes of a run that is fed *every* event of `xml`, dead subtrees
/// included, with the emission boundary fired after each: what the drivers
/// delivered before they skimmed.
fn stream_every_event(mft: &Mft, xml: &[u8]) -> Vec<Vec<u8>> {
    let mut chunks = Vec::new();
    let mut engine = Engine::new(mft, collecting(&mut chunks));
    let mut reader = XmlReader::new(xml);
    loop {
        match reader.next_event().unwrap() {
            XmlEvent::Open(label) => engine.open(&label).unwrap(),
            XmlEvent::Close(_) => engine.close().unwrap(),
            XmlEvent::Eof => break,
        }
        engine.sink_mut().emit().unwrap();
    }
    let (mut sink, stats) = engine.finish().unwrap();
    assert_eq!(stats.events, reader.events_read() + 1);
    sink.emit().unwrap();
    sink.finish().unwrap();
    chunks
}

/// Stream a tape through the driver into an emitting sink (index,
/// seek-scan, or plain replay is the driver's choice), concatenating
/// delivered prefixes.
fn stream_tape(mft: &Mft, tape_bytes: &[u8], plan: &QuerySetPlan) -> Vec<u8> {
    let mut out = Vec::new();
    let sink = EmitWriter::new(|c: &[u8]| {
        out.extend_from_slice(c);
        Ok(())
    });
    let run = run_lanes(
        &[mft],
        TapeReader::new(Cursor::new(tape_bytes.to_vec())).unwrap(),
        vec![(sink, ())],
        StreamLimits::default(),
        plan,
    )
    .unwrap();
    let (sink, _stats, ()) = run.results.into_iter().next().unwrap().unwrap();
    sink.finish().unwrap();
    out
}

/// Run the whole source × prefilter matrix for one document and compare
/// every cell against the materialized reference output.
fn assert_streamed_identity(dataset: Dataset, xml: &str) {
    let prepared = PreparedQuery::compile(query_for(dataset)).unwrap();
    let mft = prepared.mft();
    let expected = prepared
        .run_to_string(xml.as_bytes(), StreamLimits::default())
        .unwrap()
        .output;

    let (tape, _, _) = ingest_xml_to_tape(xml.as_bytes(), Cursor::new(Vec::new())).unwrap();
    let tape = tape.into_inner();

    // Skimming the subtrees the engine is dead in moves no boundary: the
    // chunk *sequence* is that of a run fed every event.
    let every_event = stream_every_event(mft, xml.as_bytes());
    assert_eq!(every_event.concat(), expected.as_bytes());
    if !expected.is_empty() {
        assert!(
            !every_event.is_empty(),
            "{}: never streamed",
            dataset.name()
        );
    }
    let solo = stream_xml_solo(mft, xml.as_bytes());
    assert!(solo == every_event, "{}: xml source, solo", dataset.name());

    let on = QuerySetPlan::new([mft]);
    let off = QuerySetPlan::pass_through(1);
    for (plan, mode) in [(&on, "prefilter on"), (&off, "prefilter off")] {
        let chunks = stream_xml(mft, xml.as_bytes(), plan);
        assert!(
            chunks == every_event,
            "{}: xml source, {mode}",
            dataset.name()
        );
        let bytes = stream_tape(mft, &tape, plan);
        assert_eq!(
            String::from_utf8(bytes).unwrap(),
            expected,
            "{}: tape, {mode}",
            dataset.name()
        );
    }
}

#[test]
fn streamed_prefixes_concatenate_to_materialized_output() {
    for dataset in Dataset::ALL {
        let forest = foxq_gen::generate(dataset, 60_000, 0xF0C5);
        assert_streamed_identity(dataset, &forest_to_xml_string(&forest));
    }
}

proptest! {
    /// The same identity on seeded random documents from all four
    /// generators at random sizes.
    #[test]
    fn streamed_prefixes_match_materialized_randomized(seed in any::<u64>()) {
        let dataset = Dataset::ALL[(seed % 4) as usize];
        let size = 2_000 + (seed >> 3) as usize % 28_000;
        let xml = forest_to_xml_string(&foxq_gen::generate(dataset, size, seed));
        assert_streamed_identity(dataset, &xml);
    }
}
