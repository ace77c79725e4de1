//! Allocation guard for the tokenizer and the engine's event loop, and a
//! parity guard for what the engine reports.
//!
//! The streaming claim rests on a small constant cost per input event, so
//! the tokenizer must not allocate per event beyond the text it hands on,
//! nor the engine at all once its slabs have their size — output included.
//! These tests count allocations exactly, through `foxq_obs`'s counting
//! allocator — no timing, so they hold in debug builds — and pin the
//! engine's counters and profile to the values the `Rc<RefCell<_>>`-location
//! engine before this one produced on the same input.

use foxq::core::mft::Mft;
use foxq::core::profile::StreamProfiler;
use foxq::core::stream::{
    run_streaming_with_limits, BufferSample, Engine, StreamLimits, StreamObserver, StreamStats,
};
use foxq::core::StateId;
use foxq::forest::Label;
use foxq::obs::AllocScope;
use foxq::service::PreparedQuery;
use foxq::xml::{forest_to_xml_string, NullSink, XmlEvent, XmlReader};
use foxq_bench::query_source;
use foxq_gen::Dataset;

/// 256 KiB of XMark.
fn xmark_document() -> String {
    forest_to_xml_string(&foxq_gen::generate(Dataset::Xmark, 256 << 10, 0xF0E5))
}

/// The document, tokenized ahead of the measured runs.
fn xmark_events() -> Vec<XmlEvent> {
    let xml = xmark_document();
    let mut reader = XmlReader::new(xml.as_bytes());
    let mut events = Vec::new();
    loop {
        match reader.next_event().unwrap() {
            XmlEvent::Eof => return events,
            event => events.push(event),
        }
    }
}

fn compile(name: &str) -> PreparedQuery {
    PreparedQuery::compile(query_source(name)).unwrap()
}

fn feed<O: StreamObserver>(engine: &mut Engine<'_, NullSink, O>, event: &XmlEvent) {
    match event {
        XmlEvent::Open(label) => engine.open(label).unwrap(),
        XmlEvent::Close(_) => engine.close().unwrap(),
        XmlEvent::Eof => unreachable!("tokenized without the eof"),
    }
}

/// Allocations per input event of one whole engine run, output dropped.
fn allocations_per_event(mft: &Mft, events: &[XmlEvent]) -> f64 {
    let scope = AllocScope::begin();
    let mut engine = Engine::new(mft, NullSink);
    for event in events {
        feed(&mut engine, event);
    }
    engine.finish().unwrap();
    scope.delta().allocations as f64 / events.len() as f64
}

#[test]
fn tokenizer_allocates_once_per_text_node_and_never_per_known_name() {
    // A text node is one `Arc<str>` shared by its open and its close; the
    // byte-at-a-time reader before this one took 1.50 allocations per event
    // on the same document.
    let xml = xmark_document();
    let scope = AllocScope::begin();
    let mut reader = XmlReader::new(xml.as_bytes());
    while reader.next_event().unwrap() != XmlEvent::Eof {}
    let per_event = scope.delta().allocations as f64 / reader.events_read() as f64;
    assert!(per_event <= 0.25, "{per_event:.3} allocations/event");

    // The document's elements without its text, twice under one root: by
    // the second copy every name is interned, the window and the stack of
    // open elements have their size, and nothing is left to allocate.
    let mut elements = String::new();
    let mut events_per_copy = 0;
    for event in xmark_events() {
        match event {
            XmlEvent::Open(label) if !label.is_text() => elements += &format!("<{}>", label.name),
            XmlEvent::Close(label) if !label.is_text() => elements += &format!("</{}>", label.name),
            _ => continue,
        }
        events_per_copy += 1;
    }
    let twice = format!("<twice>{elements}{elements}</twice>");
    let mut reader = XmlReader::new(twice.as_bytes());
    for _ in 0..1 + events_per_copy {
        reader.next_event().unwrap();
    }
    let scope = AllocScope::begin();
    while reader.next_event().unwrap() != XmlEvent::Eof {}
    assert_eq!(reader.events_read(), 2 + 2 * events_per_copy);
    assert_eq!(scope.delta().allocations, 0, "in the second copy");
}

#[test]
fn a_selecting_run_over_xml_bytes_allocates_for_what_it_feeds_only() {
    // Reader and engine together, as `foxq run` puts them together: the
    // subtrees Q1 is dead in are skimmed, so the reader allocates for the
    // events it feeds only. With every event tokenized, and the engine
    // still giving each output node and call a heap list of its own, the
    // same run took 0.19 (reader) + 0.25 (engine) = 0.44 allocations per
    // input event; the engine's share, now its slabs' growth alone, is
    // `selecting_engine_allocates_only_where_it_expands`'s to guard.
    let xml = xmark_document();
    let events = xmark_events();
    let q1 = compile("Q1");
    let scope = AllocScope::begin();
    let reader = XmlReader::new(xml.as_bytes());
    let (_, stats) =
        run_streaming_with_limits(q1.mft(), reader, NullSink, StreamLimits::default()).unwrap();
    let together = scope.delta().allocations as f64;
    let input_events = stats.events + stats.prefiltered_events;
    assert_eq!(input_events, events.len() as u64 + 1);
    assert!(stats.prefiltered_events * 2 > input_events, "{stats:?}");
    let per_event = together / events.len() as f64;
    assert!(per_event <= 0.05, "Q1: {per_event:.3} allocations/event");
    let reader = per_event - allocations_per_event(q1.mft(), &events);
    assert!(reader <= 0.03, "Q1: {reader:.3} of them the reader's");
}

#[test]
fn skimming_allocates_nothing_once_its_stacks_have_their_size() {
    // A dead subtree twice under one root, with all that allocates when it
    // is tokenized — text, attributes, names — left in: the second copy is
    // skimmed with the window, the scratch space and the stack of skimmed
    // names at the size the first copy gave them.
    let xml = xmark_document();
    let twice = format!("<twice>{xml}{xml}</twice>");
    let mut reader = XmlReader::new(twice.as_bytes());
    assert!(matches!(reader.next_event().unwrap(), XmlEvent::Open(_)));
    assert!(matches!(reader.next_event().unwrap(), XmlEvent::Open(_)));
    let first = reader.skip_subtree().unwrap();
    assert!(matches!(reader.next_event().unwrap(), XmlEvent::Open(_)));
    let scope = AllocScope::begin();
    let second = reader.skip_subtree().unwrap();
    assert_eq!(scope.delta().allocations, 0, "in the second copy");
    assert_eq!(first, second);
    assert_eq!(first + 1, xmark_events().len() as u64);
}

#[test]
fn selecting_engine_allocates_only_where_it_expands() {
    let events = xmark_events();
    let q1 = compile("Q1");
    let per_event = allocations_per_event(q1.mft(), &events);
    assert!(per_event <= 0.01, "Q1: {per_event:.4} allocations/event");

    // Q1 reads /site/people only: below every other child of <site> no
    // call is subscribed, so those events must move nothing but counters.
    let mut engine = Engine::new(q1.mft(), NullSink);
    let mut path: Vec<&str> = Vec::new();
    let mut dead_events = 0usize;
    for event in &events {
        let dead = path.len() >= 2 && path[1] != "people";
        let expansions = engine.stats().expansions;
        let scope = AllocScope::begin();
        feed(&mut engine, event);
        if dead {
            dead_events += 1;
            assert_eq!(scope.delta().allocations, 0, "at {path:?}");
            assert_eq!(engine.stats().expansions, expansions, "at {path:?}");
        }
        match event {
            XmlEvent::Open(label) => path.push(&label.name),
            _ => drop(path.pop()),
        }
    }
    let (_, stats) = engine.finish().unwrap();
    assert!(dead_events * 2 > events.len(), "{dead_events} dead events");
    // Dead events are events all the same.
    assert_eq!(stats.events, events.len() as u64 + 1);
    assert_eq!(stats.open_events + stats.close_events + 1, stats.events);
}

#[test]
fn copying_engine_allocates_for_its_output_only() {
    // The document twice under one root, each copy copied whole: a copied
    // node's label is an entry of the engine's label table and its
    // children are cells, so by the second copy the slot, cell and label
    // slabs, the subscriber lists and the emitter's frames have the size
    // the first copy gave them and nothing is left to allocate. A slot, a
    // cell or a label entry leaked per copied node would grow a slab here.
    let events = xmark_events();
    let copy = PreparedQuery::compile("<o>{$input/twice/site}</o>").unwrap();
    let mut engine = Engine::new(copy.mft(), NullSink);
    engine.open(&Label::elem("twice")).unwrap();
    for event in &events {
        feed(&mut engine, event);
    }
    let scope = AllocScope::begin();
    for event in &events {
        feed(&mut engine, event);
    }
    assert_eq!(scope.delta().allocations, 0, "in the second copy");
    engine.close().unwrap();
    let (_, stats) = engine.finish().unwrap();
    assert_eq!(stats.output_events, 2 + 2 * events.len() as u64);
}

#[test]
fn a_copy_on_the_output_frontier_holds_the_same_at_any_depth() {
    // `copy` over <site> wrapping a chain of nested <a>: the copy is on the
    // output frontier from its first event, so it passes the chain
    // straight to the sink and holds the same few expressions at any
    // depth. Building the copy as a graph held 3,005 nodes, 117,156 bytes
    // and 1,003 pending calls at depth 1,000.
    let copy = PreparedQuery::compile(include_str!("../benchmark/queries/copy.xq")).unwrap();
    let peaks = |depth: usize| {
        let xml = format!(
            "<site>{}{}</site>",
            "<a>".repeat(depth),
            "</a>".repeat(depth)
        );
        let reader = XmlReader::new(xml.as_bytes());
        let (_, stats) =
            run_streaming_with_limits(copy.mft(), reader, NullSink, StreamLimits::default())
                .unwrap();
        assert_eq!(stats.output_events, 2 * (depth as u64 + 2));
        (
            stats.peak_live_nodes,
            stats.peak_live_bytes,
            stats.peak_pending_calls,
        )
    };
    assert_eq!(peaks(250), (6, 204, 3));
    assert_eq!(peaks(1000), (6, 204, 3));
}

#[test]
fn double_holds_a_bounded_number_of_bytes_per_input_node() {
    // `double` buffers the whole document for its second copy, so its peak
    // is linear in the input; what is pinned is the slope. Measured: 149.2
    // bytes per open event (24 per slot, 12 per cell, a label entry of 32
    // plus the name per copied node); the bound is that + 5%.
    let events = xmark_events();
    let double = compile("double");
    let mut engine = Engine::new(double.mft(), NullSink);
    for event in &events {
        feed(&mut engine, event);
    }
    let (_, stats) = engine.finish().unwrap();
    let per_node = stats.peak_live_bytes as f64 / stats.open_events as f64;
    assert!(
        per_node <= 149.2 * 1.05,
        "{per_node:.1} bytes per open event"
    );
}

/// A [`StreamProfiler`] that also checks `on_event` fires exactly once per
/// input event, in order.
struct CountingProfiler {
    profiler: StreamProfiler,
    events_seen: u64,
}

impl StreamObserver for CountingProfiler {
    const ENABLED: bool = true;

    fn on_expansion(&mut self, state: StateId, d_nodes: i64, d_bytes: i64, d_pending: i64) {
        self.profiler
            .on_expansion(state, d_nodes, d_bytes, d_pending);
    }

    fn on_output_event(&mut self) {
        self.profiler.on_output_event();
    }

    fn on_event(&mut self, sample: BufferSample) {
        self.events_seen += 1;
        assert_eq!(sample.input_event_index, self.events_seen);
        self.profiler.on_event(sample);
    }
}

/// FNV-1a, to pin a long rendering without checking it in.
fn fingerprint(text: &str) -> u64 {
    text.bytes().fold(0xCBF2_9CE4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x1_0000_01B3)
    })
}

#[test]
fn stats_and_profile_are_what_they_were() {
    // Recorded at the parent of the slab / dead-location engine (commit
    // a82e42a), over the same events: every counter of `StreamStats`, and
    // the fingerprint of the whole `StreamProfile` (per-state attribution,
    // peaks, buffer timeline). Events in dead regions still count and
    // still reach `on_event`; nothing else may move. The byte peaks and
    // the fingerprints, which carry bytes, were re-based once, when the
    // arena went from an accounting weight of 48 B per expression plus 8
    // per list entry to the bytes it holds: 24 per slot, 12 per cell and
    // a label entry with its name (Q1 1638, Q13 2402, double 2469251
    // before). `double`'s peaks and fingerprint were re-based once more
    // when identity calls on the output frontier began to pass their
    // input straight to the sink: its first copy no longer builds nodes
    // (peak nodes 41824 → 41788, bytes 2077971 → 2076939, pending calls
    // 29 → 17, fingerprint 0x3644_AE34_D668_1875 before). Every other
    // counter stayed as it was, and so did the fingerprints of Q1 and
    // Q13: the only copies on their frontier are of text nodes, which
    // pass through with the counts and deltas the graph made.
    let document = StreamStats {
        events: 27855,
        open_events: 13927,
        close_events: 13927,
        max_depth: 13,
        first_emit_events: 1,
        ..StreamStats::default()
    };
    let recorded = [
        (
            "Q1",
            StreamStats {
                expansions: 3609,
                peak_live_nodes: 29,
                peak_live_bytes: 1031,
                peak_pending_calls: 8,
                output_events: 6,
                emit_flushes: 6,
                streamed_output_events: 5,
                ..document
            },
            0x664D_AA2A_DC59_9D1Du64,
        ),
        (
            "Q13",
            StreamStats {
                expansions: 1699,
                peak_live_nodes: 41,
                peak_live_bytes: 1664,
                peak_pending_calls: 12,
                output_events: 1022,
                emit_flushes: 206,
                streamed_output_events: 1021,
                ..document
            },
            0x585B_9391_971F_A506,
        ),
        (
            "double",
            StreamStats {
                expansions: 55711,
                peak_live_nodes: 41788,
                peak_live_bytes: 2076939,
                peak_pending_calls: 17,
                output_events: 55712,
                emit_flushes: 27855,
                streamed_output_events: 27856,
                ..document
            },
            0x2B27_6AA5_A1FC_6C40,
        ),
    ];
    let events = xmark_events();
    for (name, stats_then, profile_then) in recorded {
        let query = compile(name);
        let mft = query.mft();
        let observer = CountingProfiler {
            profiler: StreamProfiler::for_mft(mft),
            events_seen: 0,
        };
        let mut engine = Engine::with_observer(mft, NullSink, StreamLimits::default(), observer);
        for event in &events {
            feed(&mut engine, event);
        }
        let (_, stats, observer) = engine.finish_observed().unwrap();
        assert_eq!(stats, stats_then, "{name}");
        assert_eq!(observer.events_seen, stats.events, "{name}");
        let profile = observer.profiler.into_profile(mft);
        let profile_now = fingerprint(&format!("{profile:?}"));
        assert!(
            profile_now == profile_then,
            "{name}: profile fingerprint {profile_now:#X}"
        );
    }
}
