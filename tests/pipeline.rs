//! End-to-end pipeline tests: XML bytes in, XML bytes out, through the real
//! parser (entities, attributes, CDATA, whitespace) and the full
//! parse → translate → optimize → stream stack.

use foxq::core::opt::optimize;
use foxq::core::stream::{run_streaming_to_string, run_streaming_with_limits, StreamLimits};
use foxq::core::translate::translate;
use foxq::xml::{parse_document, WriterSink, XmlReader};
use foxq::xquery::{eval_query, parse_query};

fn pipeline(query: &str, xml: &str) -> String {
    let q = parse_query(query).unwrap();
    let m = optimize(translate(&q).unwrap());
    run_streaming_to_string(&m, xml.as_bytes(), StreamLimits::default())
        .unwrap()
        .output
}

fn reference(query: &str, xml: &str) -> String {
    let q = parse_query(query).unwrap();
    let f = parse_document(xml.as_bytes()).unwrap();
    foxq::xml::forest_to_xml_string(&eval_query(&q, &f).unwrap())
}

#[test]
fn attributes_are_queryable_as_children() {
    // <book isbn="123"> — the attribute is an element child in the model.
    let xml = r#"<lib><book isbn="123"><t>A</t></book><book isbn="456"><t>B</t></book></lib>"#;
    let q = r#"<hit>{ for $b in $input/lib/book[./isbn/text()="456"] return $b/t/text() }</hit>"#;
    assert_eq!(pipeline(q, xml), "<hit>B</hit>");
    assert_eq!(pipeline(q, xml), reference(q, xml));
}

#[test]
fn entities_compare_correctly() {
    let xml = "<r><p><id>a&amp;b</id><n>X</n></p><p><id>ab</id><n>Y</n></p></r>";
    let q = r#"<o>{ for $p in $input/r/p[./id/text()="a&b"] return $p/n/text() }</o>"#;
    // The query string contains the raw characters; the document the
    // entity-encoded form. They must meet in the data model.
    let parsed = parse_query(q).unwrap();
    let m = optimize(translate(&parsed).unwrap());
    let out = run_streaming_to_string(&m, xml.as_bytes(), StreamLimits::default())
        .unwrap()
        .output;
    assert_eq!(out, "<o>X</o>");
}

#[test]
fn output_is_escaped() {
    let xml = "<r><v>1 &lt; 2 &amp; 3</v></r>";
    let q = "<o>{$input/r/v/text()}</o>";
    assert_eq!(pipeline(q, xml), "<o>1 &lt; 2 &amp; 3</o>");
}

#[test]
fn cdata_and_comments_flow_through() {
    let xml = "<r><!-- ignored --><v><![CDATA[<raw>]]></v></r>";
    let q = "<o>{$input/r/v}</o>";
    assert_eq!(pipeline(q, xml), "<o><v>&lt;raw&gt;</v></o>");
}

#[test]
fn a_doctype_subset_leaves_no_stray_text() {
    // A `>` inside an entity literal or a comment of the internal subset
    // used to end the DOCTYPE early: this query answered `<o>]&gt;</o>`.
    let q = "<o>{$input/text()}</o>";
    for xml in [
        "<!DOCTYPE a [<!ENTITY e \"x>y\">]><a/>",
        "<!DOCTYPE a [<!-- a > b -->]><a/>",
    ] {
        assert_eq!(pipeline(q, xml), "<o></o>", "{xml}");
        assert_eq!(pipeline(q, xml), reference(q, xml));
    }
}

#[test]
fn a_byte_order_mark_is_not_text() {
    // `EF BB BF` at offset 0 is the encoding signature (XML 1.0 §4.3.3):
    // this query used to answer `<o>\u{FEFF}</o>`, and `store add` baked
    // the character into tapes.
    let q = "<o>{$input/text()}</o>";
    assert_eq!(pipeline(q, "\u{FEFF}<a>x</a>"), "<o></o>");
    assert_eq!(pipeline(q, "\u{FEFF}<a>x</a>"), reference(q, "<a>x</a>"));
    // Anywhere else it is the character it always was.
    let q = "<o>{$input/a/text()}</o>";
    assert_eq!(pipeline(q, "<a>\u{FEFF}x</a>"), "<o>\u{FEFF}x</o>");
}

#[test]
fn streaming_into_a_writer_sink_matches_string_driver() {
    let xml = "<site><a><b>x</b></a><a><b>y</b></a></site>";
    let q = "<o>{$input//b}</o>";
    let parsed = parse_query(q).unwrap();
    let m = optimize(translate(&parsed).unwrap());
    let (sink, stats) = run_streaming_with_limits(
        &m,
        XmlReader::new(xml.as_bytes()),
        WriterSink::new(Vec::new()),
        StreamLimits::default(),
    )
    .unwrap();
    let bytes = sink.finish().unwrap();
    assert_eq!(String::from_utf8(bytes).unwrap(), "<o><b>x</b><b>y</b></o>");
    assert!(stats.events > 0 && stats.output_events > 0);
}

#[test]
fn all_benchmark_queries_run_through_real_xml() {
    // Serialize a generated XMark document and run the full byte pipeline.
    let forest = foxq_gen::generate(foxq_gen::Dataset::Xmark, 30_000, 9);
    let xml = foxq::xml::forest_to_xml_string(&forest);
    for (name, src) in foxq_bench::QUERIES {
        let q = parse_query(src).unwrap();
        let m = optimize(translate(&q).unwrap());
        let streamed = run_streaming_to_string(&m, xml.as_bytes(), StreamLimits::default())
            .unwrap()
            .output;
        let expect = foxq::xml::forest_to_xml_string(&eval_query(&q, &forest).unwrap());
        assert_eq!(streamed, expect, "{name} through the byte pipeline");
    }
}

#[test]
fn malformed_xml_surfaces_as_an_error() {
    let q = parse_query("<o>{$input/a}</o>").unwrap();
    let m = optimize(translate(&q).unwrap());
    let limits = StreamLimits::default();
    assert!(run_streaming_to_string(&m, b"<a><b></a>", limits).is_err());
    assert!(run_streaming_to_string(&m, b"<a>", limits).is_err());
}
