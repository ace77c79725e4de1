//! Multi-query evaluation over a **single pass** of the event stream.
//!
//! The event stream is the scarce resource of a streamed tree-query system:
//! parsing is a full scan of the input, and under serving traffic the same
//! document is typically interrogated by many queries at once. A
//! [`MultiQueryEngine`] holds one `core::stream::Engine` lane per prepared
//! query and fans every `open`/`close` event out to all of them, so N
//! queries are answered with one parse — the reader's event counter does not
//! move as N grows (proven by `tests/service.rs`).
//!
//! Failure is isolated per lane: a query that exhausts its
//! [`StreamLimits`] (a stay-move loop, typically) marks only its own lane
//! failed; the remaining queries keep streaming. Only input-side errors
//! (malformed XML) abort the whole pass, since every lane shares the input.
//!
//! ## The shared label prefilter
//!
//! Most translated MFTs are child-path navigators: every state either
//! reacts to a handful of `(q,σ)`-rules or skips the node with a pure
//! `q(x2)` default. [`foxq_core::mft::Mft::projection`] detects that shape
//! statically, and the engine unions the **matched label sets of every
//! eligible lane**: an event whose label no lane can match is withheld —
//! with its whole subtree — from all eligible lanes at once, so it costs
//! one hash probe instead of N rule expansions. A lane whose projection is
//! label-agnostic (descendant axes, subtree copies, stay loops) simply
//! passes through and keeps receiving every event; the withheld-event count
//! is reported per lane in [`StreamStats::prefiltered_events`].
//!
//! ## The dead-location verdict drives the source
//!
//! The prefilter is a static over-approximation of something each engine
//! knows exactly at run time: after an `open`, a lane whose current
//! location has no subscriber ([`Engine::is_dead`]) cannot be affected by
//! anything inside that subtree. [`MultiQueryEngine::all_lanes_dead`] is
//! that verdict for the whole set — a lane the prefilter is withholding
//! from, or one that failed, is dead by definition — and the driver acts
//! on it: it feeds the open, and when every lane is dead it has the source
//! skip to the matching close instead of producing the interior
//! ([`EventSource::skip_subtree`]). A tape seeks there; a
//! [`foxq_xml::XmlReader`] *skims* — every byte is still checked, so a
//! malformed document fails as it always did, but no name is interned, no
//! text allocated, no event built. That is the only skip protocol; "the
//! prefilter withheld it" is one way of being dead.
//!
//! ## One driver, three sources
//!
//! [`run_lanes`] is the one way to run a query set: it takes any
//! [`LaneInput`], one [`EmitSink`] and one [`StreamObserver`] per lane
//! (`()` compiles away), and a [`QuerySetPlan`]. Behind it is one event
//! loop — open → verdict → skip → close, with every lane's emission
//! boundary fired after each delivered event — generic over a private
//! `Source`: how to pull, how to skip, and an end-of-run read-out of the
//! counters the source keeps itself. It is implemented for [`Events`] (any
//! [`EventSource`], XML text above all), for [`TapeReader`] (the scan) and
//! for [`IndexedReplay`] (the skip index: what it never visited is
//! accounted once, at end of input). Each keeps its own error type.
//! Handing [`run_lanes`] a [`TapeReader`] picks between the last two as
//! [`index_drive`] decides; a [`TapeDrive`] is run as already picked.
//! [`run_multi`] and [`run_multi_on_tape`] are that call with plain sinks.

use foxq_core::emit::EmitSink;
use foxq_core::mft::Mft;
use foxq_core::stream::{Engine, StreamError, StreamLimits, StreamObserver, StreamStats};
use foxq_forest::{FxHashSet, Label, Tree};
use foxq_obs::Stage;
use foxq_store::{index_drive, IndexedReplay, StoreError, TapeDrive, TapeReader};
use foxq_xml::{EventSource, XmlError, XmlEvent, XmlSink};
use std::io::{BufRead, Seek};
use std::sync::Arc;

/// One query's lane inside the fan-out.
enum Lane<'m, S, O: StreamObserver = ()> {
    // Boxed: an Engine is ~an order of magnitude larger than a
    // StreamError, and lanes are touched per delivered event anyway.
    Running(Box<Engine<'m, S, O>>),
    Failed(StreamError),
}

/// The shared-prefilter plan of one query set, computed **once** from the
/// lanes' static projections and reusable across any number of documents
/// and worker threads (the label set is behind an [`Arc`], so handing it
/// to another engine is a pointer copy, not a recomputation).
///
/// [`crate::BatchDriver`] builds one plan per batch instead of re-running
/// [`Mft::projection`] per document — the first bite of cross-document
/// query-set sharing.
#[derive(Debug, Clone)]
pub struct QuerySetPlan {
    /// Lane index → participates in the shared prefilter.
    eligible: Vec<bool>,
    /// Union of every eligible lane's matched labels.
    matched: Arc<FxHashSet<Label>>,
    /// Every eligible lane may skip unmatched *text* events too.
    texts: bool,
}

impl QuerySetPlan {
    /// Run the projection analysis once per lane, in lane order.
    pub fn new<'a>(mfts: impl IntoIterator<Item = &'a Mft>) -> QuerySetPlan {
        let mut eligible = Vec::new();
        let mut matched: FxHashSet<Label> = FxHashSet::default();
        let mut texts = true;
        for mft in mfts {
            let projection = mft.projection();
            eligible.push(projection.elements);
            if projection.elements {
                matched.extend(projection.matched);
                texts &= projection.texts;
            }
        }
        QuerySetPlan {
            eligible,
            matched: Arc::new(matched),
            texts,
        }
    }

    /// Number of lanes the plan covers.
    pub fn lane_count(&self) -> usize {
        self.eligible.len()
    }

    /// Lanes participating in the shared prefilter.
    pub fn eligible_lanes(&self) -> usize {
        self.eligible.iter().filter(|&&e| e).count()
    }

    /// Union of the eligible lanes' matched labels (a pointer copy — the
    /// set is behind an [`Arc`]).
    pub fn matched_labels(&self) -> Arc<FxHashSet<Label>> {
        self.matched.clone()
    }

    /// Whether every eligible lane may skip unmatched *text* events too.
    pub fn skips_texts(&self) -> bool {
        self.texts
    }

    /// Every lane participates in the prefilter (and there is at least
    /// one) — the precondition for driving the input from a tape's label
    /// skip index, where withheld events are never even decoded.
    pub fn prefilters_whole_set(&self) -> bool {
        !self.eligible.is_empty() && self.eligible.iter().all(|&e| e)
    }

    /// A plan that prefilters nothing: every lane is ineligible, so each
    /// receives every event and tape drivers decode every frame. The A/B
    /// baseline for prefilter measurements and the prefilter-off arm of
    /// the emission-identity proptests.
    pub fn pass_through(lane_count: usize) -> QuerySetPlan {
        QuerySetPlan {
            eligible: vec![false; lane_count],
            matched: Arc::new(FxHashSet::default()),
            texts: false,
        }
    }
}

/// Shared start-tag prefilter state over the eligible lanes.
struct Prefilter {
    /// Union of every eligible lane's matched labels: events carrying any
    /// other label are withheld from the eligible lanes.
    matched: Arc<FxHashSet<Label>>,
    /// Every eligible lane may skip unmatched *text* events too.
    texts: bool,
    /// Open-depth inside a currently skipped subtree (0 = delivering).
    skip_depth: u64,
    /// Events withheld so far (opens + closes).
    skipped: u64,
    /// One entry per *delivered* open event: was it a text label?
    text_parents: Vec<bool>,
    /// Currently open delivered text nodes. A skip must never start inside
    /// a text-rooted subtree: `x1`-of-text-rule subscribers are exempt from
    /// the projection's requirements and propagate freely within one (text
    /// nodes only have children in hand-built forests, but correctness must
    /// not depend on the input being XML-shaped).
    open_texts: u64,
}

/// Fan one event stream out to N streaming engines.
pub struct MultiQueryEngine<'m, S, O: StreamObserver = ()> {
    lanes: Vec<Lane<'m, S, O>>,
    /// Lane index → participates in the shared prefilter.
    eligible: Vec<bool>,
    filter: Option<Prefilter>,
    running: usize,
    input_events: u64,
    /// Events inside subtrees the driver had its source skip (a tape seek,
    /// an XML skim) because every lane was dead at the open — withheld from
    /// *every* lane, on top of what the prefilter withholds from the
    /// eligible ones.
    seek_events: u64,
}

impl<'m, S: XmlSink> MultiQueryEngine<'m, S> {
    /// One lane per `(mft, sink)` pair, with default limits.
    pub fn new(queries: impl IntoIterator<Item = (&'m Mft, S)>) -> Self {
        Self::with_limits(queries, StreamLimits::default())
    }

    /// One lane per `(mft, sink)` pair, sharing `limits`. The prefilter
    /// plan is computed here; callers evaluating the same query set over
    /// many documents should compute a [`QuerySetPlan`] once and use
    /// [`MultiQueryEngine::with_plan`] instead.
    pub fn with_limits(
        queries: impl IntoIterator<Item = (&'m Mft, S)>,
        limits: StreamLimits,
    ) -> Self {
        let queries: Vec<(&'m Mft, S)> = queries.into_iter().collect();
        let plan = QuerySetPlan::new(queries.iter().map(|(m, _)| *m));
        Self::with_plan(queries, limits, &plan)
    }

    /// One lane per `(mft, sink)` pair under a precomputed
    /// [`QuerySetPlan`] (which must have been built from the same MFTs, in
    /// the same order).
    pub fn with_plan(
        queries: impl IntoIterator<Item = (&'m Mft, S)>,
        limits: StreamLimits,
        plan: &QuerySetPlan,
    ) -> Self {
        MultiQueryEngine::with_observers(
            queries.into_iter().map(|(mft, sink)| (mft, sink, ())),
            limits,
            plan,
        )
    }
}

impl<'m, S: XmlSink, O: StreamObserver> MultiQueryEngine<'m, S, O> {
    /// One lane per `(mft, sink, observer)` triple under a precomputed
    /// [`QuerySetPlan`] — the profiling variant of
    /// [`MultiQueryEngine::with_plan`].
    pub fn with_observers(
        queries: impl IntoIterator<Item = (&'m Mft, S, O)>,
        limits: StreamLimits,
        plan: &QuerySetPlan,
    ) -> Self {
        let lanes: Vec<Lane<'m, S, O>> = queries
            .into_iter()
            .map(|(mft, sink, obs)| {
                Lane::Running(Box::new(Engine::with_observer(mft, sink, limits, obs)))
            })
            .collect();
        assert_eq!(
            lanes.len(),
            plan.eligible.len(),
            "plan built for a different lane count"
        );
        let eligible = plan.eligible.clone();
        let filter = eligible.iter().any(|&e| e).then_some(Prefilter {
            matched: plan.matched.clone(),
            texts: plan.texts,
            skip_depth: 0,
            skipped: 0,
            text_parents: Vec::new(),
            open_texts: 0,
        });
        MultiQueryEngine {
            running: lanes.len(),
            lanes,
            eligible,
            filter,
            input_events: 0,
            seek_events: 0,
        }
    }

    /// Number of lanes (queries).
    pub fn lane_count(&self) -> usize {
        self.lanes.len()
    }

    /// Lanes that have not failed.
    pub fn running(&self) -> usize {
        self.running
    }

    /// Open/close events fed so far, each counted once (not once per lane);
    /// matches [`EventSource::events_read`] when driven from a reader. The
    /// end-of-input tick is not counted — drivers add it when reporting.
    pub fn input_events(&self) -> u64 {
        self.input_events
    }

    /// Lanes participating in the shared label prefilter.
    pub fn prefiltered_lanes(&self) -> usize {
        match self.filter {
            Some(_) => self.eligible.iter().filter(|&&e| e).count(),
            None => 0,
        }
    }

    /// Events withheld from the eligible lanes so far: by the prefilter,
    /// and inside subtrees the source skipped (a tape seek, an XML skim).
    pub fn prefiltered_events(&self) -> u64 {
        self.seek_events + self.filter.as_ref().map_or(0, |f| f.skipped)
    }

    /// Account the opens + closes an index-driven tape replay never
    /// visited, on the prefilter's behalf (only a fully prefiltered set is
    /// driven by an index). Reported once at end of input: the index knows
    /// the exact remainder from the footer's event count, not per jump.
    fn note_unvisited(&mut self, events: u64) {
        if events > 0 {
            self.input_events += events;
            let f = self
                .filter
                .as_mut()
                .expect("an index drove unfiltered lanes");
            f.skipped += events;
        }
    }

    /// Can nothing inside the subtree of the `open` just fed reach any
    /// lane? True when every running lane is either being withheld from by
    /// the label prefilter or reports [`Engine::is_dead`]; failed lanes
    /// count as dead. A seekable source may then jump to the matching
    /// close — which must still be fed — instead of producing the interior.
    pub fn all_lanes_dead(&self) -> bool {
        let withholding = self.filter.as_ref().is_some_and(|f| f.skip_depth > 0);
        self.lanes
            .iter()
            .zip(&self.eligible)
            .all(|(lane, &eligible)| match lane {
                Lane::Running(engine) => (eligible && withholding) || engine.is_dead(),
                Lane::Failed(_) => true,
            })
    }

    /// Account the interior of a subtree the source skipped after
    /// [`MultiQueryEngine::all_lanes_dead`]: `events` opens + closes
    /// nobody was fed (the subtree's own open and close are fed and not
    /// among them).
    fn note_seek_skipped(&mut self, events: u64) {
        self.input_events += events;
        self.seek_events += events;
    }

    /// Feed an event to live lanes; `eligible_too = false` withholds it
    /// from the prefiltered lanes.
    fn each_running(
        &mut self,
        eligible_too: bool,
        mut f: impl FnMut(&mut Engine<'m, S, O>) -> Result<(), StreamError>,
    ) {
        for (lane, &eligible) in self.lanes.iter_mut().zip(&self.eligible) {
            if !eligible_too && eligible {
                continue;
            }
            if let Lane::Running(engine) = lane {
                if let Err(e) = f(engine) {
                    *lane = Lane::Failed(e);
                    self.running -= 1;
                }
            }
        }
    }

    /// Feed an opening event (element or text node) to every live lane.
    pub fn open(&mut self, label: &Label) {
        self.input_events += 1;
        let deliver_all = match &mut self.filter {
            None => true,
            Some(f) => {
                if f.skip_depth > 0 {
                    f.skip_depth += 1;
                    f.skipped += 1;
                    false
                } else {
                    let kind_ok = !label.is_text() || f.texts;
                    if f.open_texts == 0 && kind_ok && !f.matched.contains(label) {
                        f.skip_depth = 1;
                        f.skipped += 1;
                        false
                    } else {
                        f.text_parents.push(label.is_text());
                        f.open_texts += u64::from(label.is_text());
                        true
                    }
                }
            }
        };
        self.each_running(deliver_all, |e| e.open(label));
    }

    /// Feed the matching closing event to every live lane.
    pub fn close(&mut self) {
        self.input_events += 1;
        let deliver_all = match &mut self.filter {
            None => true,
            Some(f) => {
                if f.skip_depth > 0 {
                    f.skip_depth -= 1;
                    f.skipped += 1;
                    false
                } else {
                    if let Some(was_text) = f.text_parents.pop() {
                        f.open_texts -= u64::from(was_text);
                    }
                    true
                }
            }
        };
        self.each_running(deliver_all, |e| e.close());
    }

    /// Signal end of input; collect each lane's sink and statistics. Every
    /// lane reports what the source's skips withheld from it in
    /// [`StreamStats::prefiltered_events`]; lanes the prefilter served add
    /// its withheld-event count.
    pub fn finish(self) -> Vec<Result<(S, StreamStats), StreamError>> {
        without_observers(self.finish_observed())
    }

    /// [`MultiQueryEngine::finish`], also handing back each lane's
    /// observer.
    pub fn finish_observed(self) -> Vec<Result<(S, StreamStats, O), StreamError>> {
        self.finish_read_from(&SourceCost::default())
    }

    /// [`MultiQueryEngine::finish_observed`] after a pass over a source
    /// that skipped `cost`'s bytes: the lanes the prefilter served report
    /// the index-skipped ones.
    fn finish_read_from(
        mut self,
        cost: &SourceCost,
    ) -> Vec<Result<(S, StreamStats, O), StreamError>> {
        let seek_events = self.seek_events;
        let skipped = self.prefiltered_events();
        let eligible = std::mem::take(&mut self.eligible);
        self.lanes
            .drain(..)
            .zip(eligible)
            .map(|(lane, eligible)| match lane {
                Lane::Running(engine) => engine.finish_observed().map(|(sink, mut stats, obs)| {
                    stats.prefiltered_events = if eligible { skipped } else { seek_events };
                    if eligible {
                        stats.index_skipped_bytes = cost.index_skipped_bytes;
                    }
                    (sink, stats, obs)
                }),
                Lane::Failed(e) => Err(e),
            })
            .collect()
    }
}

impl<'m, S: EmitSink, O: StreamObserver> MultiQueryEngine<'m, S, O> {
    /// Fire every running lane's emission boundary: whatever its engine
    /// flushed since the previous boundary is irrevocable (no pending
    /// call to its left) and is released downstream. Called by the
    /// driver after each delivered event. A delivery failure
    /// (e.g. the lane's client hung up) fails only that lane, like any
    /// other engine-side error.
    pub fn emit_running(&mut self) {
        self.each_running(true, |e| e.sink_mut().emit().map_err(StreamError::from));
    }
}

/// What a pass cost on the input side, as the source itself counted it.
/// All zero over XML text (nothing can be skipped there without being
/// scanned) and over an in-memory forest.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SourceCost {
    /// Tape bytes the pass *seeked over* instead of decoding, because
    /// every lane was dead at a subtree's open.
    pub seek_skipped_bytes: u64,
    /// Wall time spent in those seeks ([`TapeReader::skip_subtree`]), in
    /// microseconds. Nonzero only on the scan path.
    pub tape_seek_micros: u64,
    /// Tape bytes the label skip index proved irrelevant, so the merged
    /// cursor jumped over them without decoding a single frame. Nonzero
    /// only on the index path.
    pub index_skipped_bytes: u64,
    /// Wall time spent loading and advancing posting lists, in
    /// microseconds — the index path's analogue of
    /// [`SourceCost::tape_seek_micros`].
    pub index_probe_micros: u64,
}

impl SourceCost {
    /// Split the wall time of a tape run into its request-level stages:
    /// what the source clocked as seeking and as index probing, and the
    /// rest — decoding and the engines — as replay. The parts add up to
    /// `wall_micros`.
    pub fn tape_stages(&self, wall_micros: u64) -> [(Stage, u64); 3] {
        let seek = self.tape_seek_micros.min(wall_micros);
        let probe = self.index_probe_micros.min(wall_micros - seek);
        [
            (Stage::TapeSeek, seek),
            (Stage::IndexProbe, probe),
            (Stage::TapeReplay, wall_micros - seek - probe),
        ]
    }
}

/// Result of a run: per-query outcomes plus the shared input cost. The lane
/// payload `L` is `(sink, stats, observer)` from [`run_lanes`] and `(sink,
/// stats)` from the plain wrappers.
pub struct MultiRun<L> {
    /// One result per query, in input order. Per-query failures (e.g. fuel
    /// exhaustion, a sink that failed to deliver) appear here; they do not
    /// abort the other queries.
    pub results: Vec<Result<L, StreamError>>,
    /// Events consumed from the (single) pass, including the end-of-input
    /// tick — equals each successful lane's `stats.events +
    /// stats.prefiltered_events`.
    pub input_events: u64,
    /// What the source skipped, and what that took.
    pub source: SourceCost,
}

/// What one lane's run reports: the lane's own statistics, the pass's input
/// cost, and — when the run was profiled — what it cost the worker. Every
/// per-run fact foxq shows is read off it through [`crate::FACTS`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunReport {
    /// The lane's engine statistics.
    pub stats: StreamStats,
    /// Events the pass consumed ([`MultiRun::input_events`]).
    pub input_events: u64,
    /// What the pass's source skipped, and what that took.
    pub source: SourceCost,
    /// Allocator bytes the worker thread billed to the run, when profiled.
    pub alloc_bytes: Option<u64>,
    /// Engine wall time in microseconds, when profiled.
    pub execute_micros: Option<u64>,
}

impl<S, O> MultiRun<(S, StreamStats, O)> {
    /// Each lane's outcome, in query order: its sink and observer with its
    /// [`RunReport`].
    pub fn into_reports(self) -> impl Iterator<Item = Result<(S, O, RunReport), StreamError>> {
        let (input_events, source) = (self.input_events, self.source);
        self.results.into_iter().map(move |lane| {
            lane.map(|(sink, stats, obs)| {
                let report = RunReport {
                    stats,
                    input_events,
                    source,
                    ..RunReport::default()
                };
                (sink, obs, report)
            })
        })
    }

    /// Drop the observers.
    fn plain(self) -> MultiRun<(S, StreamStats)> {
        MultiRun {
            results: without_observers(self.results),
            input_events: self.input_events,
            source: self.source,
        }
    }
}

fn without_observers<S, O>(
    lanes: Vec<Result<(S, StreamStats, O), StreamError>>,
) -> Vec<Result<(S, StreamStats), StreamError>> {
    let plain = |lane: Result<_, _>| lane.map(|(sink, stats, _)| (sink, stats));
    lanes.into_iter().map(plain).collect()
}

/// Pair each sink with the disabled `()` observer.
fn plain_lanes<S>(sinks: Vec<S>) -> Vec<(S, ())> {
    sinks.into_iter().map(|s| (s, ())).collect()
}

// ---------------------------------------------------------------------------
// The driver
// ---------------------------------------------------------------------------

/// What the event loop needs from an input, and all that differs between
/// inputs.
trait Source {
    type Error;

    /// The next event.
    fn pull(&mut self) -> Result<XmlEvent, Self::Error>;

    /// Right after an element's open was pulled and fed, when every lane
    /// is dead: consume its subtree through its close; returns the open +
    /// close events consumed, the close included.
    fn skip(&mut self) -> Result<u64, Self::Error>;

    /// End of the run: the costs the source kept count of, and how many
    /// events it never visited (and so never reported in a `skip`).
    fn read_out(&self) -> (SourceCost, u64) {
        (SourceCost::default(), 0)
    }
}

/// Any [`EventSource`] as a [`run_lanes`] input — XML text through a
/// [`foxq_xml::XmlReader`] above all — read by that protocol alone: its
/// [`EventSource::skip_subtree`] is called wherever every lane is dead (an
/// `XmlReader` skims). The tape types have inputs of their own, which keep
/// their error type and their counters.
pub struct Events<E>(pub E);

impl<E: EventSource> Source for Events<E> {
    type Error = XmlError;

    fn pull(&mut self) -> Result<XmlEvent, XmlError> {
        self.0.next_event()
    }

    fn skip(&mut self) -> Result<u64, XmlError> {
        self.0.skip_subtree()
    }
}

/// The scan: frames are decoded in order, dead subtrees seeked over.
impl<R: BufRead + Seek> Source for TapeReader<R> {
    type Error = StoreError;

    fn pull(&mut self) -> Result<XmlEvent, StoreError> {
        self.next_event()
    }

    fn skip(&mut self) -> Result<u64, StoreError> {
        self.skip_subtree().map(|skipped| skipped.events)
    }

    fn read_out(&self) -> (SourceCost, u64) {
        let cost = SourceCost {
            seek_skipped_bytes: self.seek_skipped_bytes(),
            tape_seek_micros: self.seek_micros(),
            ..SourceCost::default()
        };
        (cost, 0)
    }
}

/// The index: only the merged cursor's candidate frames are decoded, and
/// everything it never visited is accounted in one step at end of input
/// (the footer's event count makes the remainder exact).
impl<R: BufRead + Seek> Source for IndexedReplay<R> {
    type Error = StoreError;

    fn pull(&mut self) -> Result<XmlEvent, StoreError> {
        self.next_event()
    }

    fn skip(&mut self) -> Result<u64, StoreError> {
        self.skip_subtree().map(|skipped| skipped.events)
    }

    fn read_out(&self) -> (SourceCost, u64) {
        let cost = SourceCost {
            seek_skipped_bytes: self.seek_skipped_bytes(),
            index_skipped_bytes: self.index_skipped_bytes(),
            index_probe_micros: self.probe_micros(),
            ..SourceCost::default()
        };
        (cost, self.info().events - self.events_read())
    }
}

/// The one event loop: feed each event to the fan-out, then fire every
/// lane's emission boundary. After an element's open at which every lane
/// is dead ([`MultiQueryEngine::all_lanes_dead`]), it skips to the
/// matching close, the interior is accounted as withheld from every lane,
/// and the close is fed.
fn drive<'m, Src: Source, S: EmitSink, O: StreamObserver>(
    mut source: Src,
    mut engine: MultiQueryEngine<'m, S, O>,
) -> Result<MultiRun<(S, StreamStats, O)>, Src::Error> {
    // Once every lane has failed nothing can produce output any more: the
    // rest of the input is neither read nor skimmed.
    while engine.running() > 0 {
        match source.pull()? {
            XmlEvent::Open(label) => {
                engine.open(&label);
                if !label.is_text() && engine.running() > 0 && engine.all_lanes_dead() {
                    let skipped = source.skip()?;
                    engine.note_seek_skipped(skipped - 1);
                    engine.emit_running();
                    engine.close();
                }
            }
            XmlEvent::Close(_) => engine.close(),
            XmlEvent::Eof => {
                let (cost, unvisited) = source.read_out();
                engine.note_unvisited(unvisited);
                return Ok(engine.into_run(cost, 1));
            }
        }
        engine.emit_running();
    }
    Ok(engine.into_run(source.read_out().0, 0))
}

impl<'m, S: EmitSink, O: StreamObserver> MultiQueryEngine<'m, S, O> {
    /// Close the pass: `eof_tick` is 1 when the source was read to its
    /// end. The end-of-input tick ground the remainder of each surviving
    /// lane's output, so one last emission boundary releases it; a failure
    /// there turns that lane's result into [`StreamError::Emit`].
    fn into_run(self, source: SourceCost, eof_tick: u64) -> MultiRun<(S, StreamStats, O)> {
        let input_events = self.input_events() + eof_tick;
        let results = self
            .finish_read_from(&source)
            .into_iter()
            .map(|lane| {
                lane.and_then(|(mut sink, stats, obs)| {
                    sink.emit()?;
                    Ok((sink, stats, obs))
                })
            })
            .collect();
        MultiRun {
            results,
            input_events,
            source,
        }
    }
}

mod sealed {
    pub trait Sealed {}
    impl<E> Sealed for super::Events<E> {}
    impl<R> Sealed for super::TapeReader<R> {}
    impl<R> Sealed for super::TapeDrive<R> {}
}

/// What [`run_lanes`] reads a document from: [`Events`], a [`TapeReader`]
/// or a [`TapeDrive`]. (Sealed: the set is closed.)
pub trait LaneInput: sealed::Sealed + Sized {
    /// Input-side failure, which ends the whole pass.
    type Error;

    #[doc(hidden)]
    fn feed<'m, S: EmitSink, O: StreamObserver>(
        self,
        engine: MultiQueryEngine<'m, S, O>,
        plan: &QuerySetPlan,
    ) -> Result<MultiRun<(S, StreamStats, O)>, Self::Error>;
}

impl<E: EventSource> LaneInput for Events<E> {
    type Error = XmlError;

    fn feed<'m, S: EmitSink, O: StreamObserver>(
        self,
        engine: MultiQueryEngine<'m, S, O>,
        _: &QuerySetPlan,
    ) -> Result<MultiRun<(S, StreamStats, O)>, XmlError> {
        drive(self, engine)
    }
}

/// A tape is read as little as the query set permits, on one of two paths
/// picked here:
///
/// * **Index** — the tape's skip index is usable and *every* lane
///   participates in the prefilter: the matched labels' posting lists drive
///   a merged cursor ([`foxq_store::index_drive`]) that decodes only
///   candidate frames and jumps over everything between them without so
///   much as a tag-byte read ([`SourceCost::index_skipped_bytes`]).
/// * **Scan** — otherwise (flagged tapes, a pass-through lane in the set):
///   frames are decoded in order.
///
/// Either way a subtree at whose open every lane is dead is seeked over
/// ([`SourceCost::seek_skipped_bytes`]): what the prefilter withholds from
/// every lane is the static case of that; a subtree-copying or
/// descendant-axis query gets it wherever its engine has no subscriber
/// left. Every decoded subtree is still verified. Output is identical
/// across both paths and a full replay, and every lane's `events +
/// prefiltered_events` adds up to [`MultiRun::input_events`]
/// (`tests/store.rs` proves it).
impl<R: BufRead + Seek> LaneInput for TapeReader<R> {
    type Error = StoreError;

    fn feed<'m, S: EmitSink, O: StreamObserver>(
        self,
        engine: MultiQueryEngine<'m, S, O>,
        plan: &QuerySetPlan,
    ) -> Result<MultiRun<(S, StreamStats, O)>, StoreError> {
        let picked = if plan.prefilters_whole_set() {
            index_drive(self, plan.matched_labels(), plan.skips_texts())?
        } else {
            TapeDrive::Linear(self)
        };
        picked.feed(engine, plan)
    }
}

/// A tape whose read path is already picked: `TapeDrive::Linear(tape)`
/// forces the scan (A/B measurement); an `Indexed` drive must have been
/// built from `plan`'s labels.
impl<R: BufRead + Seek> LaneInput for TapeDrive<R> {
    type Error = StoreError;

    fn feed<'m, S: EmitSink, O: StreamObserver>(
        self,
        engine: MultiQueryEngine<'m, S, O>,
        _: &QuerySetPlan,
    ) -> Result<MultiRun<(S, StreamStats, O)>, StoreError> {
        match self {
            TapeDrive::Indexed(replay) => drive(replay, engine),
            TapeDrive::Linear(tape) => drive(tape, engine),
        }
    }
}

/// Run N transducers over one pass of `input`: lane `i` is `mfts[i]`
/// writing into `lanes[i]`'s sink under its observer, every lane under
/// `limits`, the set under `plan` (which must have been built from the
/// same MFTs, in the same order).
///
/// Input-side errors fail the whole run (every lane reads the same
/// stream); engine-side errors are isolated per query. Once *every* lane
/// has failed the rest of the input is not read (so the tail is no longer
/// checked for well-formedness) — `input_events` then reflects the events
/// consumed up to the abort.
pub fn run_lanes<I: LaneInput, S: EmitSink, O: StreamObserver>(
    mfts: &[&Mft],
    input: I,
    lanes: Vec<(S, O)>,
    limits: StreamLimits,
    plan: &QuerySetPlan,
) -> Result<MultiRun<(S, StreamStats, O)>, I::Error> {
    assert_eq!(mfts.len(), lanes.len(), "one sink per query");
    let engine = MultiQueryEngine::with_observers(
        mfts.iter().copied().zip(lanes).map(|(m, (s, o))| (m, s, o)),
        limits,
        plan,
    );
    input.feed(engine, plan)
}

/// [`run_lanes`] over any event source (a [`foxq_xml::XmlReader`], …) with
/// plain sinks, default limits and the set's own plan.
pub fn run_multi<E: EventSource, S: EmitSink>(
    mfts: &[&Mft],
    events: E,
    sinks: Vec<S>,
) -> Result<MultiRun<(S, StreamStats)>, XmlError> {
    let plan = QuerySetPlan::new(mfts.iter().copied());
    let limits = StreamLimits::default();
    run_lanes(mfts, Events(events), plain_lanes(sinks), limits, &plan).map(MultiRun::plain)
}

/// [`run_lanes`] over one replay of a [`TapeReader`] with plain sinks: by
/// the skip index where the plan and the tape allow it, by a scan
/// otherwise (see [`LaneInput`] for `TapeReader`).
pub fn run_multi_on_tape<R: BufRead + Seek, S: EmitSink>(
    mfts: &[&Mft],
    tape: TapeReader<R>,
    sinks: Vec<S>,
    limits: StreamLimits,
    plan: &QuerySetPlan,
) -> Result<MultiRun<(S, StreamStats)>, StoreError> {
    run_lanes(mfts, tape, plain_lanes(sinks), limits, plan).map(MultiRun::plain)
}

fn feed_tree<S: XmlSink>(engine: &mut MultiQueryEngine<'_, S>, t: &Tree) {
    engine.open(&t.label);
    for c in &t.children {
        feed_tree(engine, c);
    }
    engine.close();
}

/// Drive N transducers from an in-memory forest (tests and benchmarks).
pub fn run_multi_on_forest<S: XmlSink>(
    mfts: &[&Mft],
    forest: &[Tree],
    sinks: Vec<S>,
) -> MultiRun<(S, StreamStats)> {
    assert_eq!(mfts.len(), sinks.len(), "one sink per query");
    let mut engine = MultiQueryEngine::new(mfts.iter().copied().zip(sinks));
    for t in forest {
        feed_tree(&mut engine, t);
    }
    let input_events = engine.input_events() + 1;
    MultiRun {
        results: engine.finish(),
        input_events,
        source: SourceCost::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use foxq_core::opt::optimize;
    use foxq_core::text::parse_mft;
    use foxq_core::translate::translate;
    use foxq_forest::term::parse_forest;
    use foxq_xml::{forest_to_xml_string, ForestSink, XmlReader};
    use foxq_xquery::parse_query;

    fn mft_of(q: &str) -> Mft {
        optimize(translate(&parse_query(q).unwrap()).unwrap())
    }

    #[test]
    fn lanes_agree_with_solo_runs() {
        let queries = ["<a>{$input/x}</a>", "<b>{$input//y}</b>", "<c><k/></c>"];
        let mfts: Vec<Mft> = queries.iter().map(|q| mft_of(q)).collect();
        let doc = parse_forest(r#"x("1") y(x() y("2"))"#).unwrap();
        let refs: Vec<&Mft> = mfts.iter().collect();
        let sinks = vec![ForestSink::new(), ForestSink::new(), ForestSink::new()];
        let run = run_multi_on_forest(&refs, &doc, sinks);
        for (m, r) in mfts.iter().zip(run.results) {
            let (sink, _) = r.unwrap();
            let (solo, _) =
                foxq_core::stream::run_streaming_on_forest(m, &doc, ForestSink::new()).unwrap();
            assert_eq!(
                forest_to_xml_string(&sink.into_forest()),
                forest_to_xml_string(&solo.into_forest())
            );
        }
    }

    #[test]
    fn one_lane_failing_does_not_abort_the_others() {
        let looping = parse_mft("q0(%) -> q0(x0);").unwrap();
        let copy =
            parse_mft("qcopy(%t(x1) x2) -> %t(qcopy(x1)) qcopy(x2); qcopy(eps) -> eps;").unwrap();
        let doc = parse_forest(r#"a(b("t"))"#).unwrap();
        let limits = StreamLimits {
            max_expansions_per_event: 1_000,
            ..StreamLimits::default()
        };
        let mut engine = MultiQueryEngine::with_limits(
            vec![
                (&looping, ForestSink::new()),
                (&copy, ForestSink::new()),
                (&looping, ForestSink::new()),
            ],
            limits,
        );
        for t in &doc {
            feed_tree(&mut engine, t);
        }
        assert_eq!(engine.running(), 1, "looping lanes should have failed");
        let results = engine.finish();
        assert!(matches!(results[0], Err(StreamError::Fuel { .. })));
        assert!(matches!(results[2], Err(StreamError::Fuel { .. })));
        let (sink, stats) = results.into_iter().nth(1).unwrap().unwrap();
        assert_eq!(forest_to_xml_string(&sink.into_forest()), "<a><b>t</b></a>");
        assert_eq!(stats.events, 7); // 3 opens + 3 closes + eof
    }

    #[test]
    fn all_lanes_failing_aborts_the_pass_early() {
        let looping = parse_mft("q0(%) -> q0(x0);").unwrap();
        let doc = format!("<a>{}</a>", "<b></b>".repeat(1_000));
        let run = run_lanes(
            &[&looping],
            Events(XmlReader::new(doc.as_bytes())),
            vec![(foxq_xml::NullSink, ())],
            StreamLimits {
                max_expansions_per_event: 100,
                ..StreamLimits::default()
            },
            &QuerySetPlan::new([&looping]),
        )
        .unwrap();
        assert!(matches!(run.results[0], Err(StreamError::Fuel { .. })));
        // The sole lane died on the first open; the other 2001 events were
        // never pulled from the reader.
        assert_eq!(run.input_events, 1);
    }

    #[test]
    fn prefilter_skips_unmatched_subtrees_without_changing_output() {
        let m = mft_of("<o>{$input/site/people/person/name/text()}</o>");
        assert!(m.projection().elements, "child-path navigator is eligible");
        let doc = parse_forest(
            r#"site(regions(africa(item(name("decoy"))) asia(item()))
                    people(person(name("Jim") age("33")) person(name("Li"))))"#,
        )
        .unwrap();
        let run = run_multi_on_forest(&[&m], &doc, vec![ForestSink::new()]);
        let (sink, stats) = run.results.into_iter().next().unwrap().unwrap();
        let (solo, solo_stats) =
            foxq_core::stream::run_streaming_on_forest(&m, &doc, ForestSink::new()).unwrap();
        assert_eq!(
            forest_to_xml_string(&sink.into_forest()),
            forest_to_xml_string(&solo.into_forest())
        );
        // The regions subtree (and the age leaf) were withheld…
        assert!(stats.prefiltered_events > 0, "nothing was prefiltered");
        // …and every input event was either delivered or withheld.
        assert_eq!(stats.events + stats.prefiltered_events, solo_stats.events);
        assert_eq!(solo_stats.prefiltered_events, 0);
    }

    #[test]
    fn prefilter_never_starts_a_skip_under_a_text_parent() {
        // The projection exempts x1-of-text-rule callees because text nodes
        // are leaves in XML; a hand-built forest can violate that, and the
        // engine must then deliver the text node's children anyway.
        let m = parse_mft(
            "s(%ttext(x1) x2) -> %t(qcopy(x1)) s(x2);\
             s(%t(x1) x2) -> s(x2);\
             s(eps) -> eps;\
             qcopy(%t(x1) x2) -> %t(qcopy(x1)) qcopy(x2);\
             qcopy(eps) -> eps;",
        )
        .unwrap();
        assert!(m.projection().elements);
        let text_with_children = Tree {
            label: foxq_forest::Label::text("T"),
            children: vec![parse_forest("z(k())").unwrap().remove(0)],
        };
        let doc = vec![text_with_children];
        let run = run_multi_on_forest(&[&m], &doc, vec![ForestSink::new()]);
        let (sink, stats) = run.results.into_iter().next().unwrap().unwrap();
        let mut solo = MultiQueryEngine::with_plan(
            vec![(&m, ForestSink::new())],
            StreamLimits::default(),
            &QuerySetPlan::pass_through(1),
        );
        solo.open(&doc[0].label);
        solo.open(&doc[0].children[0].label);
        solo.open(&doc[0].children[0].children[0].label);
        solo.close();
        solo.close();
        solo.close();
        let (unfiltered, _) = solo.finish().into_iter().next().unwrap().unwrap();
        assert_eq!(
            forest_to_xml_string(&sink.into_forest()),
            forest_to_xml_string(&unfiltered.into_forest()),
        );
        // z(k()) sits under the text node: it must have been delivered.
        assert_eq!(stats.prefiltered_events, 0);
    }

    #[test]
    fn agnostic_lanes_pass_through_while_eligible_lanes_skip() {
        let navigator = mft_of("<o>{$input/site/people/person/name/text()}</o>");
        let copier =
            parse_mft("qcopy(%t(x1) x2) -> %t(qcopy(x1)) qcopy(x2); qcopy(eps) -> eps;").unwrap();
        assert!(!copier.projection().elements);
        let doc = parse_forest(r#"site(junk(a() b("t")) people(person(name("Li"))))"#).unwrap();
        let run = run_multi_on_forest(
            &[&navigator, &copier],
            &doc,
            vec![ForestSink::new(), ForestSink::new()],
        );
        let mut results = run.results.into_iter();
        let (nav_sink, nav_stats) = results.next().unwrap().unwrap();
        let (copy_sink, copy_stats) = results.next().unwrap().unwrap();
        // The agnostic copier saw everything and reproduced the document.
        assert_eq!(copy_stats.prefiltered_events, 0);
        assert_eq!(
            forest_to_xml_string(&copy_sink.into_forest()),
            forest_to_xml_string(&doc)
        );
        // The navigator skipped the junk subtree, output unchanged.
        assert!(nav_stats.prefiltered_events > 0);
        assert_eq!(forest_to_xml_string(&nav_sink.into_forest()), "<o>Li</o>");
        assert_eq!(
            nav_stats.events + nav_stats.prefiltered_events,
            copy_stats.events
        );
    }

    fn tape_of(xml: &str) -> foxq_store::TapeReader<std::io::Cursor<Vec<u8>>> {
        let (out, _, _) =
            foxq_store::ingest_xml_to_tape(xml.as_bytes(), std::io::Cursor::new(Vec::new()))
                .unwrap();
        foxq_store::TapeReader::new(std::io::Cursor::new(out.into_inner())).unwrap()
    }

    #[test]
    fn tape_replay_with_seek_matches_the_parse_path() {
        let m = mft_of("<o>{$input/site/people/person/name/text()}</o>");
        let xml = "<site><regions><africa><item><name>decoy</name></item></africa>\
                   <asia><item/></asia></regions>\
                   <people><person><name>Jim</name><age>33</age></person>\
                   <person><name>Li</name></person></people></site>";
        let parsed = run_multi(
            &[&m],
            XmlReader::new(xml.as_bytes()),
            vec![ForestSink::new()],
        )
        .unwrap();
        let plan = QuerySetPlan::new([&m]);
        let taped = run_multi_on_tape(
            &[&m],
            tape_of(xml),
            vec![ForestSink::new()],
            StreamLimits::default(),
            &plan,
        )
        .unwrap();
        let scanned = run_lanes(
            &[&m],
            TapeDrive::Linear(tape_of(xml)),
            vec![(ForestSink::new(), ())],
            StreamLimits::default(),
            &plan,
        )
        .unwrap();
        let (psink, pstats) = parsed.results.into_iter().next().unwrap().unwrap();
        let (tsink, tstats) = taped.results.into_iter().next().unwrap().unwrap();
        let (ssink, sstats, ()) = scanned.results.into_iter().next().unwrap().unwrap();
        let expected = forest_to_xml_string(&psink.into_forest());
        assert_eq!(forest_to_xml_string(&tsink.into_forest()), expected);
        assert_eq!(forest_to_xml_string(&ssink.into_forest()), expected);
        // All passes withheld the same events. The auto tape pass took the
        // index path (everything under <regions> was jumped over without a
        // decode); the forced scan pass decoded every open and seeked.
        assert_eq!(tstats.prefiltered_events, pstats.prefiltered_events);
        assert_eq!(sstats.prefiltered_events, pstats.prefiltered_events);
        assert!(tstats.prefiltered_events > 0);
        let (taped_cost, scanned_cost) = (taped.source, scanned.source);
        assert!(taped_cost.index_skipped_bytes > 0);
        assert_eq!(taped_cost.seek_skipped_bytes, 0);
        assert_eq!(tstats.index_skipped_bytes, taped_cost.index_skipped_bytes);
        assert!(scanned_cost.seek_skipped_bytes > 0);
        assert_eq!(scanned_cost.index_skipped_bytes, 0);
        assert_eq!(parsed.source, SourceCost::default());
        assert_eq!(taped.input_events, parsed.input_events);
        assert_eq!(scanned.input_events, parsed.input_events);
        // The index never visits more than the scan path delivers, so it
        // always skips at least what seeking did.
        assert!(taped_cost.index_skipped_bytes >= scanned_cost.seek_skipped_bytes);
    }

    #[test]
    fn tape_stages_partition_the_wall_time() {
        let m = mft_of("<o>{$input/site/people/person/name/text()}</o>");
        let xml = "<site><regions><africa><item/></africa></regions>\
                   <people><person><name>Li</name></person></people></site>";
        let plan = QuerySetPlan::new([&m]);
        let sinks = vec![ForestSink::new()];
        let run = run_multi_on_tape(&[&m], tape_of(xml), sinks, StreamLimits::default(), &plan);
        let cost = run.unwrap().source;
        assert!(cost.index_skipped_bytes > 0, "not the index path");
        let probe = cost.index_probe_micros;
        assert_eq!(
            cost.tape_stages(probe + 1_000),
            [
                (Stage::TapeSeek, 0),
                (Stage::IndexProbe, probe),
                (Stage::TapeReplay, 1_000),
            ]
        );
        // The parts add up to the wall time handed in even when it is
        // shorter than what the source's own clocks read.
        let clocked = SourceCost {
            tape_seek_micros: 7,
            index_probe_micros: 11,
            ..cost
        };
        for wall in [1_000, 12, 3, 0] {
            let parts = clocked.tape_stages(wall).map(|(_, micros)| micros);
            assert_eq!(parts.iter().sum::<u64>(), wall);
        }
    }

    #[test]
    fn tape_seek_waits_for_every_lane_to_be_dead() {
        let navigator = mft_of("<o>{$input/site/people/person/name/text()}</o>");
        let copier =
            parse_mft("qcopy(%t(x1) x2) -> %t(qcopy(x1)) qcopy(x2); qcopy(eps) -> eps;").unwrap();
        let people = mft_of("<p>{$input/site/people}</p>");
        assert!(!people.projection().elements, "subtree copy is agnostic");
        let xml = "<site><junk><a/><b>t</b></junk><people><person><name>Li</name></person></people></site>";
        let copied = "<site><junk><a></a><b>t</b></junk><people><person><name>Li</name></person></people></site>";
        let run = |second: &Mft| {
            let plan = QuerySetPlan::new([&navigator, second]);
            assert_eq!(plan.eligible_lanes(), 1);
            let run = run_multi_on_tape(
                &[&navigator, second],
                tape_of(xml),
                vec![ForestSink::new(), ForestSink::new()],
                StreamLimits::default(),
                &plan,
            )
            .unwrap();
            let mut results = run.results.into_iter();
            let (nav, nav_stats) = results.next().unwrap().unwrap();
            let (other, other_stats) = results.next().unwrap().unwrap();
            // The prefilter withheld <junk> from the navigator either way.
            assert_eq!(forest_to_xml_string(&nav.into_forest()), "<o>Li</o>");
            assert!(nav_stats.prefiltered_events > other_stats.prefiltered_events);
            for stats in [nav_stats, other_stats] {
                assert_eq!(stats.events + stats.prefiltered_events, run.input_events);
            }
            (
                forest_to_xml_string(&other.into_forest()),
                other_stats,
                run.source.seek_skipped_bytes,
            )
        };
        // The copier subscribes everywhere: nothing can be seeked over.
        let (out, stats, seeked) = run(&copier);
        assert_eq!(out, copied);
        assert_eq!((stats.prefiltered_events, seeked), (0, 0));
        // A lane that copies only <people> is dead inside <junk>, where the
        // navigator is withheld from: the tape jumps over <a/><b>t</b>.
        let (out, stats, seeked) = run(&people);
        assert_eq!(
            out,
            "<p><people><person><name>Li</name></person></people></p>"
        );
        assert_eq!(stats.prefiltered_events, 6);
        assert!(seeked > 0);
    }

    #[test]
    fn plan_reuse_matches_per_engine_computation() {
        let a = mft_of("<o>{$input/x/y}</o>");
        let b = mft_of("<o>{$input//z}</o>");
        let plan = QuerySetPlan::new([&a, &b]);
        assert_eq!(plan.lane_count(), 2);
        let doc = parse_forest(r#"x(y("1") q()) w(z("2"))"#).unwrap();
        let mut planned = MultiQueryEngine::with_plan(
            vec![(&a, ForestSink::new()), (&b, ForestSink::new())],
            StreamLimits::default(),
            &plan,
        );
        let mut fresh =
            MultiQueryEngine::new(vec![(&a, ForestSink::new()), (&b, ForestSink::new())]);
        for t in &doc {
            feed_tree(&mut planned, t);
            feed_tree(&mut fresh, t);
        }
        assert_eq!(planned.prefiltered_events(), fresh.prefiltered_events());
        for (p, f) in planned.finish().into_iter().zip(fresh.finish()) {
            assert_eq!(
                forest_to_xml_string(&p.unwrap().0.into_forest()),
                forest_to_xml_string(&f.unwrap().0.into_forest())
            );
        }
    }

    #[test]
    fn input_events_are_counted_once() {
        let m = mft_of("<o>{$input/a}</o>");
        let doc = parse_forest("a() b(c())").unwrap();
        for n in [1usize, 4] {
            let refs: Vec<&Mft> = vec![&m; n];
            let sinks: Vec<_> = (0..n).map(|_| foxq_xml::NullSink).collect();
            let run = run_multi_on_forest(&refs, &doc, sinks);
            assert_eq!(run.input_events, 7); // 3 opens + 3 closes + eof
        }
    }
}
