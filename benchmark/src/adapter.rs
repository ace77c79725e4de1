//! Every call into a `foxq_*` crate the harness makes.
//!
//! `gen` and `layers` reach the library only through this file, and `e2e`
//! does not reach it at all, so when the crates' entry points are renamed
//! or collapsed this is the one file of the benchmark that changes. The
//! functions are deliberately thin: they do one library call each and
//! return plain numbers or opaque handles; timing, repetition and spans
//! live in `layers.rs`.

use foxq_core::opt::optimize_with_stats;
use foxq_core::stream::{Engine, StreamLimits, StreamStats};
use foxq_core::{EmitSink, EmitWriter, Mft};
use foxq_forest::{Forest, Label};
use foxq_gen::Dataset;
use foxq_service::{run_multi, run_multi_on_tape, MultiQueryEngine, PreparedQuery, QueryCache};
use foxq_store::{index_drive, TapeDrive, TapeReader};
use foxq_xml::{EventSource, NullSink, WriterSink, XmlEvent, XmlReader, XmlSink};
use std::path::Path;

/// A generated document: the tree the DOM reference evaluates and the
/// bytes the program is given.
pub struct Doc {
    forest: Forest,
}

#[derive(Debug, Clone, Copy)]
pub enum Shape {
    /// Auction-site vocabulary of the Fig. 3 queries.
    Xmark,
    /// Very deep, tag-dense phrase-structure trees.
    Treebank,
}

pub fn generate(shape: Shape, target_bytes: usize, seed: u64) -> Doc {
    let dataset = match shape {
        Shape::Xmark => Dataset::Xmark,
        Shape::Treebank => Dataset::Treebank,
    };
    Doc {
        forest: foxq_gen::generate(dataset, target_bytes, seed),
    }
}

impl Doc {
    pub fn to_xml(&self) -> String {
        foxq_xml::forest_to_xml_string(&self.forest)
    }

    /// Parse document bytes back into a tree (for the probes that take one).
    pub fn parse(xml: &[u8]) -> Result<Doc, String> {
        foxq_xml::parse_document(xml)
            .map(|forest| Doc { forest })
            .map_err(text)
    }

    /// The reference answer: the DOM evaluator's output, serialized. Shares
    /// no code with the transducer pipeline beyond the query parser.
    pub fn reference_output(&self, query_source: &str) -> Result<String, String> {
        let query = foxq_xquery::parse_query(query_source).map_err(text)?;
        let out = foxq_xquery::eval_query(&query, &self.forest).map_err(text)?;
        Ok(foxq_xml::forest_to_xml_string(&out))
    }
}

// ---------------------------------------------------------------------------
// Layer probes
// ---------------------------------------------------------------------------

fn text<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

/// Allocations the calling thread makes inside `f` (the counting allocator
/// of `foxq_obs` is this binary's global allocator).
pub fn count_allocs<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let scope = foxq_obs::AllocScope::begin();
    let value = f();
    (value, scope.delta().allocations)
}

// --- xquery / core: compile ------------------------------------------------

pub struct Ast(foxq_xquery::Query);
pub struct Transducer(Mft);
/// A query compiled the way the program compiles it.
pub struct Compiled(PreparedQuery);

pub fn parse(source: &str) -> Result<Ast, String> {
    foxq_xquery::parse_query(source).map(Ast).map_err(text)
}

pub fn translate(ast: &Ast) -> Result<Transducer, String> {
    foxq_core::translate::translate(&ast.0)
        .map(Transducer)
        .map_err(text)
}

/// §4.1 optimization of a fresh copy of `unoptimized` (the copy is what the
/// program's own compile path pays too).
pub fn optimize(unoptimized: &Transducer) -> Transducer {
    Transducer(optimize_with_stats(unoptimized.0.clone()).0)
}

pub fn compile(source: &str) -> Result<Compiled, String> {
    PreparedQuery::compile(source).map(Compiled).map_err(text)
}

// --- xml: tokenizer and serializer -----------------------------------------

/// A pre-tokenized document.
pub struct Events(Vec<XmlEvent>);

impl Events {
    /// Open + close events (`Eof` excluded).
    pub fn len(&self) -> usize {
        self.0.len()
    }
}

/// Tokenize into nothing; returns the number of open + close events.
pub fn tokenize_discard(xml: &[u8]) -> Result<u64, String> {
    let mut reader = XmlReader::new(xml);
    while reader.next_event().map_err(text)? != XmlEvent::Eof {}
    Ok(reader.events_read())
}

pub fn tokenize(xml: &[u8]) -> Result<Events, String> {
    let mut reader = XmlReader::new(xml);
    let mut events = Vec::new();
    loop {
        match reader.next_event().map_err(text)? {
            XmlEvent::Eof => return Ok(Events(events)),
            event => events.push(event),
        }
    }
}

/// Output events as the engine pushed them, kept for a separate
/// serialization stage.
#[derive(Default)]
pub struct Recording(Vec<(bool, Label)>);

impl Recording {
    pub fn len(&self) -> usize {
        self.0.len()
    }
}

impl XmlSink for Recording {
    fn open(&mut self, label: &Label) {
        self.0.push((true, label.clone()));
    }
    fn close(&mut self, label: &Label) {
        self.0.push((false, label.clone()));
    }
}

pub fn serialize(recording: &Recording) -> Vec<u8> {
    let mut sink = WriterSink::new(Vec::new());
    for (open, label) in &recording.0 {
        if *open {
            sink.open(label);
        } else {
            sink.close(label);
        }
    }
    sink.finish().expect("writing to a Vec cannot fail")
}

// --- core: the streaming engine --------------------------------------------

/// The counters of one engine run the probes report.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunStats {
    pub expansions: u64,
    pub peak_live_nodes: u64,
    pub peak_live_bytes: u64,
    pub output_events: u64,
    pub prefiltered_events: u64,
    pub index_skipped_bytes: u64,
}

impl From<StreamStats> for RunStats {
    fn from(s: StreamStats) -> Self {
        RunStats {
            expansions: s.expansions,
            peak_live_nodes: s.peak_live_nodes as u64,
            peak_live_bytes: s.peak_live_bytes as u64,
            output_events: s.output_events,
            prefiltered_events: s.prefiltered_events,
            index_skipped_bytes: s.index_skipped_bytes,
        }
    }
}

fn drive<S: XmlSink>(mft: &Mft, events: &Events, sink: S) -> Result<(S, RunStats), String> {
    let mut engine = Engine::new(mft, sink);
    for event in &events.0 {
        match event {
            XmlEvent::Open(label) => engine.open(label).map_err(text)?,
            XmlEvent::Close(_) => engine.close().map_err(text)?,
            XmlEvent::Eof => {}
        }
    }
    let (sink, stats) = engine.finish().map_err(text)?;
    Ok((sink, stats.into()))
}

/// The engine alone: pre-tokenized input, output discarded. `optimized`
/// false runs the raw §3 translation (the paper's noopt series).
pub fn engine_null(query: &Compiled, optimized: bool, events: &Events) -> Result<RunStats, String> {
    let mft = if optimized {
        query.0.mft()
    } else {
        query.0.unoptimized()
    };
    drive(mft, events, NullSink).map(|(_, stats)| stats)
}

pub fn engine_record(query: &Compiled, events: &Events) -> Result<(Recording, RunStats), String> {
    drive(query.0.mft(), events, Recording::default())
}

/// Engine into the materializing serializer: the buffered-response shape.
pub fn engine_writer(query: &Compiled, events: &Events) -> Result<Vec<u8>, String> {
    let (sink, _) = drive(query.0.mft(), events, WriterSink::new(Vec::new()))?;
    sink.finish().map_err(text)
}

/// Engine into the emitting serializer with a delivery at every emission
/// boundary: the `stream=1` shape. Returns (bytes, chunks) delivered.
pub fn engine_emit(query: &Compiled, events: &Events) -> Result<(u64, u64), String> {
    let mut bytes = 0u64;
    let sink = EmitWriter::new(|chunk: &[u8]| {
        bytes += chunk.len() as u64;
        Ok(())
    });
    let mut engine = Engine::new(query.0.mft(), sink);
    for event in &events.0 {
        match event {
            XmlEvent::Open(label) => engine.open(label).map_err(text)?,
            XmlEvent::Close(_) => engine.close().map_err(text)?,
            XmlEvent::Eof => {}
        }
        engine.sink_mut().emit().map_err(text)?;
    }
    let (mut sink, _) = engine.finish().map_err(text)?;
    sink.emit().map_err(text)?;
    let chunks = sink.chunks_delivered();
    sink.finish().map_err(text)?;
    Ok((bytes, chunks))
}

/// The engine fed straight from a generated tree (no bytes involved).
pub fn engine_on_doc(query: &Compiled, doc: &Doc) -> Result<RunStats, String> {
    foxq_core::stream::run_streaming_on_forest(query.0.mft(), &doc.forest, NullSink)
        .map(|(_, stats)| stats.into())
        .map_err(text)
}

/// Tokenizer → engine → serializer in one piece, the way `foxq run` and a
/// buffered `/query` put them together.
pub fn run_xml(query: &Compiled, xml: &[u8]) -> Result<Vec<u8>, String> {
    let sink = WriterSink::new(Vec::new());
    let (sink, _) = foxq_core::stream::run_streaming_with_limits(
        query.0.mft(),
        XmlReader::new(xml),
        sink,
        StreamLimits::serving(),
    )
    .map_err(text)?;
    sink.finish().map_err(text)
}

// --- service: prefilter, multi-query pass, cache ----------------------------

fn drive_lane<S: XmlSink>(
    query: &Compiled,
    events: &Events,
    sink: S,
) -> Result<(S, RunStats), String> {
    let mut engine = MultiQueryEngine::with_plan(
        [(query.0.mft(), sink)],
        StreamLimits::serving(),
        query.0.solo_plan(),
    );
    for event in &events.0 {
        match event {
            XmlEvent::Open(label) => engine.open(label),
            XmlEvent::Close(_) => engine.close(),
            XmlEvent::Eof => {}
        }
    }
    let lane = engine.finish().pop().expect("one lane");
    lane.map(|(sink, stats)| (sink, stats.into())).map_err(text)
}

/// One lane in the multi-query engine under its own prefilter plan, over
/// pre-tokenized input, output discarded.
pub fn prefilter_pass(query: &Compiled, events: &Events) -> Result<RunStats, String> {
    drive_lane(query, events, NullSink).map(|(_, stats)| stats)
}

/// The same lane with its output recorded: the engine stage of the paths
/// that run under a prefilter plan (`/query` bodies, tape replays).
pub fn lane_record(query: &Compiled, events: &Events) -> Result<(Recording, RunStats), String> {
    drive_lane(query, events, Recording::default())
}

/// All `queries` answered in one pass over the XML bytes, outputs discarded.
pub fn multi_pass(queries: &[&Compiled], xml: &[u8]) -> Result<(), String> {
    let mfts: Vec<&Mft> = queries.iter().map(|q| q.0.mft()).collect();
    let sinks = mfts.iter().map(|_| NullSink).collect();
    let run = run_multi(&mfts, XmlReader::new(xml), sinks).map_err(text)?;
    for lane in run.results {
        lane.map_err(text)?;
    }
    Ok(())
}

/// A prepared-query cache holding one query.
pub struct Cache(QueryCache);

impl Cache {
    pub fn holding(source: &str) -> Result<Cache, String> {
        let mut cache = QueryCache::new(16);
        cache.get_or_compile(source).map_err(text)?;
        Ok(Cache(cache))
    }

    /// Look `source` up; true on a hit.
    pub fn lookup(&mut self, source: &str) -> bool {
        matches!(self.0.lookup_or_compile(source), Ok((_, true)))
    }
}

// --- store: tapes ------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
pub struct TapeFacts {
    pub file_bytes: u64,
    pub events: u64,
}

/// Parse XML onto a FET2 tape at `path`, synced like `foxq store add` does.
pub fn ingest(xml: &[u8], path: &Path) -> Result<TapeFacts, String> {
    let (info, _) = foxq_store::ingest_xml_to_tmp(path, xml).map_err(text)?;
    Ok(TapeFacts {
        file_bytes: info.file_bytes,
        events: info.events,
    })
}

/// Map the tape and read its footer.
pub fn tape_open(path: &Path) -> Result<TapeFacts, String> {
    let tape = TapeReader::open_file(path).map_err(text)?;
    Ok(TapeFacts {
        file_bytes: tape.info().file_bytes,
        events: tape.info().events,
    })
}

/// Open the tape and decode every frame; returns the events replayed.
pub fn tape_scan(path: &Path) -> Result<u64, String> {
    let mut tape = TapeReader::open_file(path).map_err(text)?;
    while tape.next_event().map_err(text)? != XmlEvent::Eof {}
    Ok(tape.events_read())
}

/// Replay the events `query`'s prefilter lets through, by the skip index
/// when the tape has one: what the engine is fed on the corpus path.
/// Returns the events and the tape bytes the index jumped over.
pub fn tape_replay(query: &Compiled, path: &Path) -> Result<(Events, u64), String> {
    let tape = TapeReader::open_file(path).map_err(text)?;
    let plan = query.0.solo_plan();
    let mut events = Vec::new();
    let mut collect = |source: &mut dyn EventSource| -> Result<(), String> {
        loop {
            match source.next_event().map_err(text)? {
                XmlEvent::Eof => return Ok(()),
                event => events.push(event),
            }
        }
    };
    // The program's own choice: the index drives the replay only when the
    // whole query set (here: the one lane) takes part in the prefilter.
    let drive = if plan.prefilters_whole_set() {
        index_drive(tape, plan.matched_labels(), plan.skips_texts()).map_err(text)?
    } else {
        TapeDrive::Linear(tape)
    };
    let skipped = match drive {
        TapeDrive::Indexed(mut drive) => {
            collect(&mut drive)?;
            drive.index_skipped_bytes()
        }
        TapeDrive::Linear(mut tape) => {
            collect(&mut tape)?;
            0
        }
    };
    Ok((Events(events), skipped))
}

/// Open → replay → engine → serializer in one piece, the way `foxq run
/// doc.fet` puts them together.
pub fn run_tape(query: &Compiled, path: &Path) -> Result<(Vec<u8>, RunStats), String> {
    let tape = TapeReader::open_file(path).map_err(text)?;
    let run = run_multi_on_tape(
        &[query.0.mft()],
        tape,
        vec![WriterSink::new(Vec::new())],
        StreamLimits::serving(),
        query.0.solo_plan(),
    )
    .map_err(text)?;
    let (sink, stats) = run
        .results
        .into_iter()
        .next()
        .expect("one lane")
        .map_err(text)?;
    Ok((sink.finish().map_err(text)?, stats.into()))
}

// --- gcx: the baseline -------------------------------------------------------

/// Peak buffered nodes of the GCX-style baseline on `doc`; `None` where it
/// does not support the query.
pub fn gcx_peak_nodes(query: &Compiled, doc: &Doc) -> Result<Option<u64>, String> {
    match foxq_gcx::run_gcx_on_forest(query.0.query(), &doc.forest, NullSink) {
        Ok((_, stats)) => Ok(Some(stats.peak_buffered_nodes as u64)),
        Err(foxq_gcx::GcxError::Unsupported(_)) => Ok(None),
        Err(e) => Err(text(e)),
    }
}
