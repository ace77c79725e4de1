//! The central correctness property of the reproduction: **all engines
//! agree with the reference semantics** on randomly generated MinXQuery
//! programs and documents.
//!
//! For every sampled (query, document) pair:
//!
//! * `eval_query`           — the reference DOM evaluator;
//! * `run_mft ∘ translate`  — Theorem 1 (the translation is semantics-
//!   preserving);
//! * `run_mft ∘ optimize`   — §4.1 (optimizations are semantics-preserving);
//! * streaming engine       — on both the optimized and unoptimized MFT,
//!   bare, with a `StreamProfiler` observing, as lanes of a
//!   pass-through `MultiQueryEngine`, and solo over the document's XML
//!   text, whose subtrees are skimmed wherever the engine is dead;
//! * the run matrix         — the two as lanes of `run_lanes`, every source
//!   (XML text, a tape scanned, a tape read as the driver picks) × sink (buffering, emitting) × observer (none, a
//!   profiler) × plan (the lanes' own, pass-through): subtrees are skimmed
//!   or seeked over wherever every lane is dead, no answer may change and
//!   no event go uncounted;
//! * the GCX baseline       — when it supports the query.
//!
//! Queries are generated respecting the §2.1 scope discipline (paths start
//! at the nearest enclosing for-variable or `$input`), so translation never
//! rejects them.

use foxq::core::emit::EmitWriter;
use foxq::core::profile::StreamProfiler;
use foxq::core::stream::{
    run_streaming_on_forest, run_streaming_to_string, run_streaming_with_limits, Engine,
    StreamError, StreamLimits, StreamObserver, StreamStats,
};
use foxq::core::{parse_mft, print_mft, run_mft, Mft};
use foxq::forest::term::parse_forest;
use foxq::forest::{elem, text, Forest, Label, Tree};
use foxq::service::{
    run_lanes, Events, LaneInput, MultiQueryEngine, QueryCache, QuerySetPlan, SourceCost,
};
use foxq::store::{TapeDrive, TapeReader, TapeWriter};
use foxq::xml::{
    forest_to_xml_string, parse_document, ForestSink, WriterSink, XmlEvent, XmlReader,
};
use foxq::xquery::ast::{Axis, NodeTest, Path, Pred, Query, RelPath, Step};
use foxq::xquery::eval_query;
use foxq_gcx::{run_gcx_on_forest, GcxError};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

const NAMES: [&str; 5] = ["a", "b", "c", "d", "e"];
const TEXTS: [&str; 3] = ["t1", "t2", "t3"];

fn random_doc(rng: &mut SmallRng, size_budget: usize) -> Forest {
    fn tree(rng: &mut SmallRng, budget: &mut usize, depth: usize) -> Tree {
        *budget = budget.saturating_sub(1);
        if depth >= 5 || *budget == 0 || rng.gen_bool(0.3) {
            if rng.gen_bool(0.4) {
                return text(TEXTS[rng.gen_range(0..TEXTS.len())]);
            }
            return elem(NAMES[rng.gen_range(0..NAMES.len())], vec![]);
        }
        let n = rng.gen_range(0..4usize);
        let children = (0..n).map(|_| tree(rng, budget, depth + 1)).collect();
        elem(NAMES[rng.gen_range(0..NAMES.len())], children)
    }
    let mut budget = size_budget;
    let mut out = Vec::new();
    while budget > 0 {
        out.push(tree(rng, &mut budget, 0));
        if rng.gen_bool(0.5) {
            break;
        }
    }
    out
}

fn random_step(rng: &mut SmallRng, allow_preds: bool) -> Step {
    let axis = match rng.gen_range(0..10) {
        0..=5 => Axis::Child,
        6..=7 => Axis::Descendant,
        _ => Axis::FollowingSibling,
    };
    let test = match rng.gen_range(0..10) {
        0..=5 => NodeTest::Name(NAMES[rng.gen_range(0..NAMES.len())].to_string()),
        6..=7 => NodeTest::AnyElem,
        8 => NodeTest::Text,
        _ => NodeTest::AnyNode,
    };
    let mut preds = Vec::new();
    if allow_preds && rng.gen_bool(0.35) && test != NodeTest::Text {
        let rel = RelPath {
            steps: vec![Step {
                axis: if rng.gen_bool(0.7) {
                    Axis::Child
                } else {
                    Axis::Descendant
                },
                test: if rng.gen_bool(0.5) {
                    NodeTest::Name(NAMES[rng.gen_range(0..NAMES.len())].to_string())
                } else {
                    NodeTest::Text
                },
                preds: vec![],
            }],
        };
        let t = TEXTS[rng.gen_range(0..TEXTS.len())].to_string();
        preds.push(match rng.gen_range(0..4) {
            0 => Pred::Exists(rel),
            1 => Pred::Empty(rel),
            // Comparisons must end in text() for exact engine agreement
            // (the MFT desugaring is text-child based):
            2 => Pred::Eq(
                RelPath {
                    steps: vec![Step {
                        axis: Axis::Child,
                        test: NodeTest::Text,
                        preds: vec![],
                    }],
                },
                t,
            ),
            _ => Pred::Neq(
                RelPath {
                    steps: vec![Step {
                        axis: Axis::Child,
                        test: NodeTest::Text,
                        preds: vec![],
                    }],
                },
                t,
            ),
        });
    }
    Step { axis, test, preds }
}

fn random_path(rng: &mut SmallRng, start: &str) -> Path {
    let n = rng.gen_range(1..=3);
    Path {
        start: start.to_string(),
        steps: (0..n).map(|_| random_step(rng, true)).collect(),
    }
}

/// Random query respecting the scope discipline. `nearest` is the nearest
/// for-variable (or `input`); `outs` are variables usable as outputs.
fn random_query(rng: &mut SmallRng, nearest: &str, outs: &[String], depth: usize) -> Query {
    random_query_in(rng, nearest, outs, depth, false)
}

/// `in_content`: literal text is only grammatical as direct element content.
fn random_query_in(
    rng: &mut SmallRng,
    nearest: &str,
    outs: &[String],
    depth: usize,
    in_content: bool,
) -> Query {
    let choice = if depth >= 3 {
        rng.gen_range(0..4)
    } else {
        rng.gen_range(0..7)
    };
    match choice {
        0 if in_content => Query::Text(TEXTS[rng.gen_range(0..TEXTS.len())].to_string()),
        0 => Query::Path(random_path(rng, nearest)),
        1 => Query::Path(random_path(rng, nearest)),
        2 if !outs.is_empty() => {
            let v = &outs[rng.gen_range(0..outs.len())];
            Query::Path(Path {
                start: v.clone(),
                steps: vec![],
            })
        }
        2 => Query::Path(random_path(rng, nearest)),
        3 => {
            let raw: Vec<Query> = (0..rng.gen_range(0..3usize))
                .map(|_| random_query_in(rng, nearest, outs, depth + 1, true))
                .collect();
            // Adjacent literal text merges when reparsed; normalize now so
            // the printer/parser round-trip is exact.
            let mut content: Vec<Query> = Vec::new();
            for q in raw {
                match (content.last_mut(), q) {
                    (Some(Query::Text(prev)), Query::Text(next)) => prev.push_str(&next),
                    (_, q) => content.push(q),
                }
            }
            Query::Element {
                name: NAMES[rng.gen_range(0..NAMES.len())].to_string(),
                content,
            }
        }
        4 => {
            let var = format!("v{}", rng.gen_range(0..100));
            let body = {
                let mut outs2 = outs.to_vec();
                outs2.push(var.clone());
                random_query_in(rng, &var, &outs2, depth + 1, false)
            };
            Query::For {
                var: var.clone(),
                path: random_path(rng, nearest),
                body: Box::new(body),
            }
        }
        5 => {
            let var = format!("w{}", rng.gen_range(0..100));
            let value = random_query_in(rng, nearest, outs, depth + 1, false);
            let body = {
                let mut outs2 = outs.to_vec();
                outs2.push(var.clone());
                random_query_in(rng, nearest, &outs2, depth + 1, false)
            };
            Query::Let {
                var,
                value: Box::new(value),
                body: Box::new(body),
            }
        }
        _ => Query::Seq(
            (0..rng.gen_range(2..4usize))
                .map(|_| random_query_in(rng, nearest, outs, depth + 1, false))
                .collect(),
        ),
    }
}

/// Prepared-query cache shared by the fixed-seed and property suites: the
/// small grammar repeats query texts often, so most samples skip the parse →
/// translate → optimize pipeline entirely (the dominant cost of this file).
fn shared_cache() -> &'static Mutex<QueryCache> {
    static CACHE: OnceLock<Mutex<QueryCache>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(QueryCache::new(512)))
}

/// `doc` as the input events it stands for: `Some` opens, `None` closes.
fn events_of(doc: &[Tree]) -> Vec<Option<&Label>> {
    fn walk<'a>(t: &'a Tree, out: &mut Vec<Option<&'a Label>>) {
        out.push(Some(&t.label));
        for c in &t.children {
            walk(c, out);
        }
        out.push(None);
    }
    let mut out = Vec::new();
    for t in doc {
        walk(t, &mut out);
    }
    out
}

/// Every event counts, whether or not the engine had anything to do on it.
fn assert_counts_every_event(stats: &StreamStats, doc: &[Tree], context: &str) {
    let opens = events_of(doc).iter().flatten().count() as u64;
    assert_eq!(stats.open_events, opens, "{context}");
    assert_eq!(stats.close_events, opens, "{context}");
    assert_eq!(stats.events, 2 * opens + 1, "{context}");
}

/// `m` over `doc` with a profiler observing: output and statistics.
fn stream_profiled(m: &Mft, doc: &[Tree]) -> (String, StreamStats) {
    let profiler = StreamProfiler::for_mft(m);
    let mut engine = Engine::with_observer(m, ForestSink::new(), StreamLimits::default(), profiler);
    for event in events_of(doc) {
        match event {
            Some(label) => engine.open(label).unwrap(),
            None => engine.close().unwrap(),
        }
    }
    let (sink, stats, profiler) = engine.finish_observed().unwrap();
    let profile = profiler.into_profile(m);
    let attributed: u64 = profile.states.iter().map(|s| s.expansions).sum();
    assert_eq!(attributed, stats.expansions);
    assert_eq!(profile.peak_live_bytes, stats.peak_live_bytes as u64);
    (forest_to_xml_string(&sink.into_forest()), stats)
}

/// Tape bytes the samples' pass-through replays seeked over on the
/// engines' verdict alone.
static SEEKED_ON_VERDICT: AtomicU64 = AtomicU64::new(0);

/// Events the samples' solo and pass-through runs over XML text had the
/// reader skim on the engines' verdict alone.
static SKIMMED_ON_VERDICT: AtomicU64 = AtomicU64::new(0);

/// The sample once more, solo, from the XML text of `doc`, into a buffering
/// sink and into an emitting one. Wherever the engine is dead the reader
/// skims; no answer may change and no event may go uncounted.
fn check_over_xml(
    context: &str,
    xml: &str,
    expected: &str,
    input_events: u64,
    unopt: &Mft,
    opt: &Mft,
) {
    let limits = StreamLimits::default();
    let context = |what: &str| format!("{what}, solo, over {context}");
    let check = |out: String, stats: &StreamStats, what: &str| {
        assert_eq!(out, expected, "{}", context(what));
        assert_eq!(
            stats.events + stats.prefiltered_events,
            input_events,
            "{}",
            context(what)
        );
    };

    for (label, m) in [("unopt", unopt), ("opt", opt)] {
        let reader = XmlReader::new(xml.as_bytes());
        let (sink, stats) = run_streaming_with_limits(m, reader, ForestSink::new(), limits)
            .unwrap_or_else(|e| panic!("{}: {e}", context(label)));
        check(forest_to_xml_string(&sink.into_forest()), &stats, label);
        SKIMMED_ON_VERDICT.fetch_add(stats.prefiltered_events, Ordering::Relaxed);

        let mut out = Vec::new();
        let sink = EmitWriter::new(|chunk: &[u8]| {
            out.extend_from_slice(chunk);
            Ok(())
        });
        let reader = XmlReader::new(xml.as_bytes());
        let (sink, emitted) = run_streaming_with_limits(m, reader, sink, limits).unwrap();
        sink.finish().unwrap();
        check(
            String::from_utf8(out).unwrap(),
            &emitted,
            &format!("{label}, emitting"),
        );
        assert_eq!(emitted, stats, "{}", context(label));
    }
}

/// What a profiler saw of a lane: expansions, output events, exact peak
/// bytes. `None` from the disabled observer.
type Totals = Option<(u64, u64, u64)>;

trait Watch: StreamObserver {
    fn totals(self, m: &Mft, stats: &StreamStats) -> Totals;
}

impl Watch for () {
    fn totals(self, _: &Mft, _: &StreamStats) -> Totals {
        None
    }
}

impl Watch for StreamProfiler {
    fn totals(self, m: &Mft, stats: &StreamStats) -> Totals {
        let profile = self.into_profile(m);
        let expansions: u64 = profile.states.iter().map(|s| s.expansions).sum();
        let output_events: u64 = profile.states.iter().map(|s| s.output_events).sum();
        assert_eq!(expansions, stats.expansions);
        assert_eq!(output_events, stats.output_events);
        assert_eq!(profile.peak_live_bytes, stats.peak_live_bytes as u64);
        Some((expansions, output_events, profile.peak_live_bytes))
    }
}

/// One cell of the run matrix, run: per lane the bytes written (the chunks
/// of an emitting sink, concatenated), the statistics and the profiler's
/// totals; and what the pass counted.
#[derive(Debug, PartialEq)]
struct Cell {
    lanes: Vec<(String, StreamStats, Totals)>,
    input_events: u64,
    seek_skipped_bytes: u64,
    index_skipped_bytes: u64,
}

/// `mfts` as the lanes of one `run_lanes` pass over `input`, into emitting
/// sinks or buffering ones, each lane under its observer.
fn run_cell<I: LaneInput, O: Watch>(
    mfts: &[&Mft],
    input: I,
    emitting: bool,
    observers: Vec<O>,
    plan: &QuerySetPlan,
) -> Cell
where
    I::Error: std::fmt::Debug,
{
    let limits = StreamLimits::default();
    let mut outs = vec![Vec::new(); mfts.len()];
    let (settled, input_events, source): (Vec<_>, u64, SourceCost) = if emitting {
        let lanes = outs
            .iter_mut()
            .zip(observers)
            .map(|(out, obs)| {
                let deliver = move |chunk: &[u8]| {
                    out.extend_from_slice(chunk);
                    Ok(())
                };
                (EmitWriter::new(deliver), obs)
            })
            .collect();
        let run = run_lanes(mfts, input, lanes, limits, plan).unwrap();
        let settle = |(sink, stats, obs): (EmitWriter<_>, _, _)| {
            sink.finish().unwrap();
            (stats, obs)
        };
        let settled = run.results.into_iter().map(|lane| settle(lane.unwrap()));
        (settled.collect(), run.input_events, run.source)
    } else {
        let lanes = observers
            .into_iter()
            .map(|obs| (WriterSink::new(Vec::new()), obs))
            .collect();
        let run = run_lanes(mfts, input, lanes, limits, plan).unwrap();
        let settle = |(out, (sink, stats, obs)): (&mut Vec<u8>, (WriterSink<_>, _, _))| {
            *out = sink.finish().unwrap();
            (stats, obs)
        };
        let settled = outs
            .iter_mut()
            .zip(run.results.into_iter().map(Result::unwrap));
        (settled.map(settle).collect(), run.input_events, run.source)
    };
    let lanes = outs
        .into_iter()
        .zip(settled)
        .zip(mfts)
        .map(|((out, (stats, obs)), m)| {
            (
                String::from_utf8(out).unwrap(),
                stats,
                obs.totals(m, &stats),
            )
        })
        .collect();
    Cell {
        lanes,
        input_events,
        seek_skipped_bytes: source.seek_skipped_bytes,
        index_skipped_bytes: source.index_skipped_bytes,
    }
}

/// One source's block of the run matrix — sinks × observers × plans, every
/// cell through `run_lanes`. Every lane of every cell answers as the DOM
/// evaluator does and accounts for every input event, delivered or
/// withheld; an emitting cell writes its buffered twin's bytes and an
/// observed one runs as its plain twin does; a profiler sees the same
/// totals whichever the sink. Returns what the pass-through cell skipped on
/// the engines' verdict alone: events withheld, tape bytes seeked over.
fn check_source<I: LaneInput>(
    context: &str,
    source: impl Fn() -> I,
    mfts: &[&Mft],
    expected: &str,
    input_events: u64,
) -> (u64, u64)
where
    I::Error: std::fmt::Debug,
{
    let mut on_verdict = (0, 0);
    for plan in [
        QuerySetPlan::new(mfts.iter().copied()),
        QuerySetPlan::pass_through(mfts.len()),
    ] {
        let context = format!("{context}, {} eligible lane(s)", plan.eligible_lanes());
        let cell = |emitting: bool, observed: bool| {
            if observed {
                let profilers = mfts.iter().map(|m| StreamProfiler::for_mft(m)).collect();
                run_cell(mfts, source(), emitting, profilers, &plan)
            } else {
                run_cell(mfts, source(), emitting, vec![(); mfts.len()], &plan)
            }
        };
        let plain = cell(false, false);
        assert_eq!(plain.input_events, input_events, "{context}");
        for (lane, (out, stats, _)) in plain.lanes.iter().enumerate() {
            let context = format!("{context}, lane {lane}");
            assert_eq!(out, expected, "{context}");
            let accounted = stats.events + stats.prefiltered_events;
            assert_eq!(accounted, input_events, "{context}");
        }
        // Nothing but what its profilers saw tells a cell from the plain,
        // buffering one.
        let unobserved = |cell: Cell| Cell {
            lanes: cell
                .lanes
                .into_iter()
                .map(|(out, stats, _)| (out, stats, None))
                .collect(),
            ..cell
        };
        assert_eq!(cell(true, false), plain, "{context}, emitting");
        let (observed, emitting_observed) = (cell(false, true), cell(true, true));
        assert!(observed.lanes.iter().all(|(.., totals)| totals.is_some()));
        assert_eq!(emitting_observed, observed, "{context}, emitting, observed");
        assert_eq!(unobserved(observed), plain, "{context}, observed");
        if plan.eligible_lanes() == 0 {
            on_verdict = (
                plain.lanes[0].1.prefiltered_events,
                plain.seek_skipped_bytes,
            );
        }
    }
    on_verdict
}

/// `doc` on a tape, and the events a pass over it reads.
fn tape_of(doc: &[Tree]) -> (Vec<u8>, u64) {
    let mut writer = TapeWriter::new(std::io::Cursor::new(Vec::new())).unwrap();
    for event in events_of(doc) {
        match event {
            Some(label) => writer.open(label).unwrap(),
            None => writer.close().unwrap(),
        }
    }
    let (tape, info) = writer.finish().unwrap();
    (tape.into_inner(), info.events + 1)
}

/// Run one (query, doc) sample through every engine and compare.
fn check_sample(seed: u64) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let query = random_query(&mut rng, "input", &[], 0);
    let doc = random_doc(&mut rng, 40);

    let expected = forest_to_xml_string(&eval_query(&query, &doc).unwrap());

    let prepared = shared_cache()
        .lock()
        .unwrap()
        .get_or_compile(&query.to_string())
        .unwrap_or_else(|e| panic!("prepare failed (seed {seed}): {e}\nquery: {query}"));
    // The cache key is the printed query; the prepared AST must round-trip.
    assert_eq!(
        prepared.query(),
        &query,
        "printer/parser mismatch (seed {seed})"
    );
    let (unopt, opt) = (prepared.unoptimized(), prepared.mft());
    let xml = forest_to_xml_string(&doc);
    for (label, m) in [("unopt", unopt), ("opt", opt)] {
        // Enough to reproduce a failure without the generator.
        let sample = || {
            format!(
                "(seed {seed})\nquery: {query}\ndocument: {xml}\n{label} mft:\n{}",
                print_mft(m)
            )
        };
        let interp = forest_to_xml_string(&foxq::core::run_mft(m, &doc).unwrap());
        assert_eq!(interp, expected, "{label} interp {}", sample());
        let (sink, stats) = run_streaming_on_forest(m, &doc, ForestSink::new()).unwrap();
        let streamed = forest_to_xml_string(&sink.into_forest());
        assert_eq!(streamed, expected, "{label} stream {}", sample());
        assert_counts_every_event(&stats, &doc, &format!("{label} stream (seed {seed})"));
        // An observer sees the same run: same output, same counters.
        let (profiled, profiled_stats) = stream_profiled(m, &doc);
        assert_eq!(
            profiled, expected,
            "{label} profiled (seed {seed})\nquery: {query}"
        );
        assert_eq!(profiled_stats, stats, "{label} profiled (seed {seed})");
    }
    // Both transducers as lanes of one multi-query pass, nothing withheld.
    let mut multi = MultiQueryEngine::with_plan(
        [unopt, opt].map(|m| (m, ForestSink::new())),
        StreamLimits::default(),
        &QuerySetPlan::pass_through(2),
    );
    for event in events_of(&doc) {
        match event {
            Some(label) => multi.open(label),
            None => multi.close(),
        }
    }
    for (lane, result) in multi.finish().into_iter().enumerate() {
        let (sink, stats) = result.unwrap();
        assert_eq!(
            forest_to_xml_string(&sink.into_forest()),
            expected,
            "multi lane {lane} (seed {seed})\nquery: {query}"
        );
        assert_counts_every_event(&stats, &doc, &format!("multi lane {lane} (seed {seed})"));
    }
    // The run matrix. The tapes hold `doc` as it is; its XML text denotes
    // a document whose adjacent text nodes are one, and the DOM evaluator
    // answers for that one there.
    let context = |source: &str| format!("{source} (seed {seed})\nquery: {query}");
    let lanes = [unopt, opt];
    let tape = |bytes: &[u8]| TapeReader::new(std::io::Cursor::new(bytes.to_vec())).unwrap();
    let (bytes, tape_events) = tape_of(&doc);
    let (_, seeked) = check_source(
        &context("tape, scanned"),
        || TapeDrive::Linear(tape(&bytes)),
        &lanes,
        &expected,
        tape_events,
    );
    SEEKED_ON_VERDICT.fetch_add(seeked, Ordering::Relaxed);
    check_source(
        &context("tape"),
        || tape(&bytes),
        &lanes,
        &expected,
        tape_events,
    );
    let denoted = parse_document(xml.as_bytes()).unwrap();
    let expected_of_text = forest_to_xml_string(&eval_query(&query, &denoted).unwrap());
    let mut full = XmlReader::new(xml.as_bytes());
    while full.next_event().unwrap() != XmlEvent::Eof {}
    let (context, text_events) = (context(&format!("XML text {xml}")), full.events_read() + 1);
    let (skimmed, _) = check_source(
        &context,
        || Events(XmlReader::new(xml.as_bytes())),
        &lanes,
        &expected_of_text,
        text_events,
    );
    SKIMMED_ON_VERDICT.fetch_add(skimmed, Ordering::Relaxed);
    check_over_xml(&context, &xml, &expected_of_text, text_events, unopt, opt);
    match run_gcx_on_forest(&query, &doc, ForestSink::new()) {
        Ok((sink, _)) => {
            let out = forest_to_xml_string(&sink.into_forest());
            assert_eq!(out, expected, "gcx (seed {seed})\nquery: {query}");
        }
        Err(GcxError::Unsupported(_)) => {} // fine — smaller fragment
        Err(e) => panic!("gcx error (seed {seed}): {e}\nquery: {query}"),
    }
}

#[test]
fn engines_agree_on_fixed_seeds() {
    for seed in 0..400u64 {
        check_sample(seed);
    }
    assert!(
        SEEKED_ON_VERDICT.load(Ordering::Relaxed) > 0,
        "no sample ever seeked over a dead subtree"
    );
    assert!(
        SKIMMED_ON_VERDICT.load(Ordering::Relaxed) > 0,
        "no sample ever skimmed a dead subtree"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn engines_agree_on_random_seeds(seed in any::<u64>()) {
        check_sample(seed);
    }
}

/// `m` over `doc`: the streaming engine — bare and profiled — against the
/// in-memory interpreter; returns the run's statistics.
fn check_dead_region_case(m: &Mft, doc: &str) -> StreamStats {
    let doc = parse_forest(doc).unwrap();
    let expected = forest_to_xml_string(&run_mft(m, &doc).unwrap());
    let (sink, stats) = run_streaming_on_forest(m, &doc, ForestSink::new()).unwrap();
    assert_eq!(forest_to_xml_string(&sink.into_forest()), expected);
    assert_counts_every_event(&stats, &doc, "dead-region case");
    assert_eq!(stream_profiled(m, &doc), (expected, stats));
    stats
}

/// An event on a location no call subscribed to expands nothing, and
/// neither does any event of the subtree and the siblings that follow:
/// the engine only counts them. These enter and leave such regions where
/// the bookkeeping is most likely to slip.
#[test]
fn dead_regions_are_entered_and_left_everywhere() {
    // Depth 0. Labels of the top-level trees only: every subtree is dead,
    // and each top-level close leaves the region again.
    let tops = parse_mft("q0(%t(x1) x2) -> %t() q0(x2); q0(eps) -> eps;").unwrap();
    let stats = check_dead_region_case(&tops, r#"a(b(c) "t") "u" d e(f(g(h)))"#);
    assert_eq!(stats.max_depth, 4);
    assert_eq!(stats.expansions, 5); // four top-level trees and the end
                                     // Depth 0 again: after the first <a> nothing is subscribed anywhere —
                                     // the region lasts until, and includes, the end of input.
    let first_a =
        parse_mft("q0(a(x1) x2) -> a(); q0(%t(x1) x2) -> q0(x2); q0(eps) -> none();").unwrap();
    let stats = check_dead_region_case(&first_a, r#"b(a) "t" a(b(c)) d(e) f"#);
    assert_eq!((stats.max_depth, stats.expansions), (3, 3));
    check_dead_region_case(&first_a, "b c");
    check_dead_region_case(&first_a, "");

    // Maximum depth: whatever is below /a/b is dead, down to the deepest
    // node of the document — which still sets `max_depth`.
    let hits = foxq::core::opt::optimize(
        foxq::core::translate::translate(
            &foxq::xquery::parse_query("<o>{ for $x in $input/a/b return <hit/> }</o>").unwrap(),
        )
        .unwrap(),
    );
    let stats = check_dead_region_case(&hits, "a(b(c(d(e))) b x(b(c))) a(b) b(a(b(c(d(e(f))))))");
    assert_eq!(stats.max_depth, 7);
    assert_eq!(stats.output_events, 2 + 2 * 3);

    // Directly before a text node: <b>'s subtree is dead, and the event
    // after its close — back on a live location — is a text node; a text
    // node is also the first and the last thing inside a dead region.
    let texts = parse_mft(
        r#"q0(a(x1) x2) -> q1(x1) q0(x2); q0(%t(x1) x2) -> q0(x2); q0(eps) -> eps;
           q1(%ttext(x1) x2) -> %t() q1(x2); q1(%t(x1) x2) -> q1(x2); q1(eps) -> eps;"#,
    )
    .unwrap();
    check_dead_region_case(
        &texts,
        r#"a(b(c) "t" b("x") "u" b("y" c "z") "v") c("w") a("k")"#,
    );

    // Under a stay move: the calls made on x0 expand within the same
    // event, and only what *they* subscribe keeps the region alive.
    let stay = parse_mft(
        r#"q0(%) -> o(q1(x0) q2(x0));
           q1(a(x1) x2) -> a(q1(x1)); q1(%t(x1) x2) -> skipped(); q1(eps) -> eps;
           q2(b(x1) x2) -> q2(x2); q2(%t(x1) x2) -> eps; q2(eps) -> end();"#,
    )
    .unwrap();
    for doc in ["a(a(c(d) a) a) b", "b(c(d)) b", "c(d(e)) a", "b", ""] {
        check_dead_region_case(&stay, doc);
    }
}

#[test]
fn limits_fail_with_the_state_and_budget_they_always_named() {
    // A stay loop entered after a dead region, deep in the document.
    let looping = parse_mft(
        r#"q0(a(x1) x2) -> spin(x0); q0(%t(x1) x2) -> q0(x2); q0(eps) -> eps;
           spin(%) -> spin(x0);"#,
    )
    .unwrap();
    let limits = StreamLimits {
        max_expansions_per_event: 50,
        ..StreamLimits::default()
    };
    match run_streaming_to_string(&looping, b"<b><c/></b><a/>", limits) {
        Err(StreamError::Fuel { state, .. }) => assert_eq!(state, "spin"),
        other => panic!("expected Fuel, got {other:?}"),
    }
    // Fuel is per event: 50 expansions spread over many events are fine.
    let copy = parse_mft("q(%t(x1) x2) -> %t(q(x1)) q(x2); q(eps) -> eps;").unwrap();
    let wide = "<a/>".repeat(100);
    let out = run_streaming_to_string(&copy, wide.as_bytes(), limits).unwrap();
    assert_eq!(out.stats.expansions, 201);

    // The output budget admits exactly `max_output_events` events.
    for (max_output_events, fits) in [(200, true), (199, false)] {
        let limits = StreamLimits {
            max_output_events,
            ..StreamLimits::default()
        };
        match run_streaming_to_string(&copy, wide.as_bytes(), limits) {
            Ok(out) if fits => assert_eq!(out.stats.output_events, 200),
            Err(StreamError::OutputLimit {
                max_output_events: reported,
            }) if !fits => {
                assert_eq!(reported, max_output_events)
            }
            other => panic!("budget {max_output_events}: {other:?}"),
        }
    }
}
