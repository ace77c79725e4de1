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
//! from, or one that failed, is dead by definition — and every driver acts
//! on it: it feeds the open, and when every lane is dead it has the source
//! skip to the matching close instead of producing the interior
//! ([`EventSource::skip_subtree`]). A tape seeks there; an [`XmlReader`]
//! *skims* — every byte is still checked, so a malformed document fails as
//! it always did, but no name is interned, no text allocated, no event
//! built. That is the only skip protocol; "the prefilter withheld it" is
//! one way of being dead.

use foxq_core::emit::EmitSink;
use foxq_core::mft::Mft;
use foxq_core::stream::{Engine, StreamError, StreamLimits, StreamObserver, StreamStats};
use foxq_forest::{FxHashSet, Label, Tree};
use foxq_store::tape::VERSION_V1;
use foxq_store::{index_drive, IndexedReplay, StoreError, TapeDrive, TapeReader};
use foxq_xml::{EventSource, XmlError, XmlEvent, XmlReader, XmlSink};
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
    /// Tape bytes a label skip index proved irrelevant on the eligible
    /// lanes' behalf (see [`MultiQueryEngine::note_index_skipped`]).
    index_bytes: u64,
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
    /// Events inside subtrees a driver had its source skip (a tape seek,
    /// an XML skim) because every lane was dead at the open — withheld from
    /// *every* lane, on top of what the prefilter withholds from the
    /// eligible ones.
    seek_events: u64,
    /// Tape bytes those seeks never decoded.
    seek_bytes: u64,
    /// Per-lane wall time (nanoseconds), when lane timing is enabled.
    lane_nanos: Option<Vec<u64>>,
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
            index_bytes: 0,
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
            seek_bytes: 0,
            lane_nanos: None,
        }
    }

    /// Measure per-lane run time: every event delivery is clocked and
    /// charged to the lane that consumed it. Off by default — two
    /// monotonic-clock reads per event per lane is real overhead — so
    /// drivers opt in for diagnostics/ablation, not on the serving hot
    /// path. Must be called before the first event is fed.
    pub fn enable_lane_timing(&mut self) {
        assert_eq!(self.input_events, 0, "enable_lane_timing after events fed");
        self.lane_nanos = Some(vec![0; self.lanes.len()]);
    }

    /// Per-lane accumulated run time in nanoseconds; `None` unless
    /// [`MultiQueryEngine::enable_lane_timing`] was called.
    pub fn lane_nanos(&self) -> Option<&[u64]> {
        self.lane_nanos.as_deref()
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
    /// matches [`XmlReader::events_read`] when driven from a reader. The
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

    /// Tape bytes the drivers seeked over because
    /// [`MultiQueryEngine::all_lanes_dead`] held at a subtree's open.
    pub fn seek_skipped_bytes(&self) -> u64 {
        self.seek_bytes
    }

    /// Bytes an index-driven replay reported via
    /// [`MultiQueryEngine::note_index_skipped`].
    pub fn index_skipped_bytes(&self) -> u64 {
        self.filter.as_ref().map_or(0, |f| f.index_bytes)
    }

    /// Record what an index-driven tape replay withheld wholesale:
    /// `events` opens + closes that were never delivered and `bytes` of
    /// tape the merged cursor jumped over. Reported once at end of input
    /// (the index knows the exact remainder from the footer's event count,
    /// not per skipped subtree).
    pub fn note_index_skipped(&mut self, events: u64, bytes: u64) {
        self.input_events += events;
        let f = self
            .filter
            .as_mut()
            .expect("note_index_skipped without a prefilter");
        f.skipped += events;
        f.index_bytes += bytes;
    }

    /// Can nothing inside the subtree of the `open` just fed reach any
    /// lane? True when every running lane is either being withheld from by
    /// the label prefilter or reports [`Engine::is_dead`]; failed lanes
    /// count as dead. A seekable source may then jump to the matching
    /// close — which must still be fed — instead of producing the interior.
    pub fn all_lanes_dead(&self) -> bool {
        self.lanes_idle(true)
    }

    /// [`MultiQueryEngine::all_lanes_dead`]; with `ask_engines` false only
    /// the prefilter's withholding counts, not the engines' own verdicts.
    fn lanes_idle(&self, ask_engines: bool) -> bool {
        let withholding = self.filter.as_ref().is_some_and(|f| f.skip_depth > 0);
        self.lanes
            .iter()
            .zip(&self.eligible)
            .all(|(lane, &eligible)| match lane {
                Lane::Running(engine) => {
                    (eligible && withholding) || (ask_engines && engine.is_dead())
                }
                Lane::Failed(_) => true,
            })
    }

    /// Account the interior of a subtree the source skipped after
    /// [`MultiQueryEngine::all_lanes_dead`]: `events` opens + closes
    /// nobody was fed (the subtree's own open and close are fed and not
    /// among them) and `bytes` of undecoded tape (0 for skimmed XML).
    fn note_seek_skipped(&mut self, events: u64, bytes: u64) {
        self.input_events += events;
        self.seek_events += events;
        self.seek_bytes += bytes;
    }

    /// Turn the shared prefilter off (every lane then receives every
    /// event). Must be called before the first event is fed; useful for A/B
    /// measurements.
    pub fn disable_prefilter(&mut self) {
        assert_eq!(self.input_events, 0, "disable_prefilter after events fed");
        self.filter = None;
        self.eligible.iter_mut().for_each(|e| *e = false);
    }

    /// Feed an event to live lanes; `eligible_too = false` withholds it
    /// from the prefiltered lanes.
    fn each_running(
        &mut self,
        eligible_too: bool,
        mut f: impl FnMut(&mut Engine<'m, S, O>) -> Result<(), StreamError>,
    ) {
        for (i, (lane, &eligible)) in self.lanes.iter_mut().zip(&self.eligible).enumerate() {
            if !eligible_too && eligible {
                continue;
            }
            if let Lane::Running(engine) = lane {
                let start = self.lane_nanos.is_some().then(std::time::Instant::now);
                let result = f(engine);
                if let (Some(start), Some(nanos)) = (start, self.lane_nanos.as_mut()) {
                    nanos[i] += start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
                }
                if let Err(e) = result {
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
    /// lane reports what tape seeks and XML skims withheld from it in
    /// [`StreamStats::prefiltered_events`] /
    /// [`StreamStats::seek_skipped_bytes`]; lanes the prefilter served add
    /// its withheld-event count.
    pub fn finish(self) -> Vec<Result<(S, StreamStats), StreamError>> {
        self.finish_observed()
            .into_iter()
            .map(|r| r.map(|(sink, stats, _)| (sink, stats)))
            .collect()
    }

    /// [`MultiQueryEngine::finish`], also handing back each lane's
    /// observer.
    pub fn finish_observed(mut self) -> Vec<Result<(S, StreamStats, O), StreamError>> {
        let (seek_events, seek_bytes) = (self.seek_events, self.seek_bytes);
        let skipped = self.prefiltered_events();
        let index_bytes = self.index_skipped_bytes();
        let eligible = std::mem::take(&mut self.eligible);
        self.lanes
            .drain(..)
            .zip(eligible)
            .map(|(lane, eligible)| match lane {
                Lane::Running(engine) => engine.finish_observed().map(|(sink, mut stats, obs)| {
                    stats.prefiltered_events = if eligible { skipped } else { seek_events };
                    stats.seek_skipped_bytes = seek_bytes;
                    if eligible {
                        stats.index_skipped_bytes = index_bytes;
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
    /// `*_emit` drivers after each delivered event. A delivery failure
    /// (e.g. the lane's client hung up) fails only that lane, like any
    /// other engine-side error.
    pub fn emit_running(&mut self) {
        self.each_running(true, |e| e.sink_mut().emit().map_err(StreamError::from));
    }
}

/// Result of [`run_multi`]: per-query outcomes plus the shared input cost.
pub struct MultiRun<S> {
    /// One result per query, in input order. Per-query failures (e.g. fuel
    /// exhaustion) appear here; they do not abort the other queries.
    pub results: Vec<Result<(S, StreamStats), StreamError>>,
    /// Events consumed from the (single) reader pass, including the
    /// end-of-input tick — equals each successful lane's `stats.events`.
    pub input_events: u64,
    /// Input bytes the pass *seeked over* instead of decoding, because
    /// every lane was dead at a subtree's open. Nonzero only for the tape
    /// drivers (XML text cannot be skipped without being scanned).
    pub seek_skipped_bytes: u64,
    /// Wall time spent seeking (inside [`TapeReader::skip_subtree`]), in
    /// microseconds — splits tape cost into replay vs. seek for the
    /// request-level stage breakdown. Nonzero only for
    /// [`run_multi_on_tape`].
    pub tape_seek_micros: u64,
    /// Input bytes a FET2 label skip index proved irrelevant, so the
    /// merged cursor jumped over them without decoding a single frame.
    /// Nonzero only when [`run_multi_on_tape`] takes the index path.
    pub index_skipped_bytes: u64,
    /// Wall time spent merging and advancing posting lists, in
    /// microseconds — the index path's analogue of
    /// [`MultiRun::tape_seek_micros`].
    pub index_probe_micros: u64,
}

/// Result of an `*_observed` driver: [`MultiRun`] whose per-lane
/// payloads also carry the lane's [`StreamObserver`] (e.g. a
/// `StreamProfiler` ready to be turned into a profile).
pub struct ObservedMultiRun<S, O> {
    /// One result per query, in input order, observer included.
    pub results: Vec<Result<(S, StreamStats, O), StreamError>>,
    /// See [`MultiRun::input_events`].
    pub input_events: u64,
    /// See [`MultiRun::seek_skipped_bytes`].
    pub seek_skipped_bytes: u64,
    /// See [`MultiRun::tape_seek_micros`].
    pub tape_seek_micros: u64,
    /// See [`MultiRun::index_skipped_bytes`].
    pub index_skipped_bytes: u64,
    /// See [`MultiRun::index_probe_micros`].
    pub index_probe_micros: u64,
}

impl<S, O> ObservedMultiRun<S, O> {
    /// Separate the run from the per-lane observers (`None` for failed
    /// lanes).
    pub fn split(self) -> (MultiRun<S>, Vec<Option<O>>) {
        let mut observers = Vec::with_capacity(self.results.len());
        let results = self
            .results
            .into_iter()
            .map(|r| match r {
                Ok((sink, stats, obs)) => {
                    observers.push(Some(obs));
                    Ok((sink, stats))
                }
                Err(e) => {
                    observers.push(None);
                    Err(e)
                }
            })
            .collect();
        (
            MultiRun {
                results,
                input_events: self.input_events,
                seek_skipped_bytes: self.seek_skipped_bytes,
                tape_seek_micros: self.tape_seek_micros,
                index_skipped_bytes: self.index_skipped_bytes,
                index_probe_micros: self.index_probe_micros,
            },
            observers,
        )
    }

    /// Drop the observers, keeping only the plain run.
    pub fn discard_observers(self) -> MultiRun<S> {
        self.split().0
    }
}

/// Pair each sink with the disabled `()` observer.
fn plain_lanes<S>(sinks: Vec<S>) -> Vec<(S, ())> {
    sinks.into_iter().map(|s| (s, ())).collect()
}

/// Run N transducers over one pass of any event source (an
/// [`foxq_xml::XmlReader`], a replayed tape, …).
///
/// Input-side errors fail the whole run (every lane reads the same
/// stream); engine-side errors are isolated per query. Once *every* lane
/// has failed the rest of the input is not read (so the tail is no longer
/// checked for well-formedness) — `input_events` then reflects the events
/// consumed up to the abort.
pub fn run_multi<E: EventSource, S: XmlSink>(
    mfts: &[&Mft],
    events: E,
    sinks: Vec<S>,
) -> Result<MultiRun<S>, XmlError> {
    run_multi_with_limits(mfts, events, sinks, StreamLimits::default())
}

/// [`run_multi`] with explicit per-lane [`StreamLimits`].
pub fn run_multi_with_limits<E: EventSource, S: XmlSink>(
    mfts: &[&Mft],
    events: E,
    sinks: Vec<S>,
    limits: StreamLimits,
) -> Result<MultiRun<S>, XmlError> {
    let plan = QuerySetPlan::new(mfts.iter().copied());
    run_multi_with_plan(mfts, events, sinks, limits, &plan)
}

/// [`run_multi_with_limits`] under a precomputed [`QuerySetPlan`] —
/// evaluating the same query set over many documents computes the
/// projections once, not once per document.
pub fn run_multi_with_plan<E: EventSource, S: XmlSink>(
    mfts: &[&Mft],
    events: E,
    sinks: Vec<S>,
    limits: StreamLimits,
    plan: &QuerySetPlan,
) -> Result<MultiRun<S>, XmlError> {
    run_multi_with_plan_observed(mfts, events, plain_lanes(sinks), limits, plan)
        .map(ObservedMultiRun::discard_observers)
}

/// [`run_multi_with_plan`] with a [`StreamObserver`] per lane.
pub fn run_multi_with_plan_observed<E: EventSource, S: XmlSink, O: StreamObserver>(
    mfts: &[&Mft],
    events: E,
    lanes: Vec<(S, O)>,
    limits: StreamLimits,
    plan: &QuerySetPlan,
) -> Result<ObservedMultiRun<S, O>, XmlError> {
    run_multi_hooked(mfts, events, lanes, limits, plan, |_| {})
}

/// The shared event-source loop: feed each event to the fan-out, then let
/// `after_event` fire (the `*_emit` drivers release irrevocable prefixes
/// there; plain drivers pass a no-op that compiles away). After an
/// element's open that leaves [`MultiQueryEngine::all_lanes_dead`], the
/// source skips to the matching close — an [`XmlReader`] skims — and the
/// interior is accounted as withheld from every lane, as on a tape.
fn run_multi_hooked<'m, E: EventSource, S: XmlSink, O: StreamObserver>(
    mfts: &[&'m Mft],
    mut events: E,
    lanes: Vec<(S, O)>,
    limits: StreamLimits,
    plan: &QuerySetPlan,
    mut after_event: impl FnMut(&mut MultiQueryEngine<'m, S, O>),
) -> Result<ObservedMultiRun<S, O>, XmlError> {
    assert_eq!(mfts.len(), lanes.len(), "one sink per query");
    let mut engine = MultiQueryEngine::with_observers(
        mfts.iter().copied().zip(lanes).map(|(m, (s, o))| (m, s, o)),
        limits,
        plan,
    );
    loop {
        if engine.running() == 0 {
            // Every lane failed: nothing can produce output any more, so
            // don't pay for parsing the rest of the stream.
            let input_events = engine.input_events();
            return Ok(ObservedMultiRun {
                results: engine.finish_observed(),
                input_events,
                seek_skipped_bytes: 0,
                tape_seek_micros: 0,
                index_skipped_bytes: 0,
                index_probe_micros: 0,
            });
        }
        match events.next_event()? {
            XmlEvent::Open(label) => {
                engine.open(&label);
                // (With every lane failed the pass is over: nothing is left
                // to skim for.)
                if !label.is_text() && engine.running() > 0 && engine.all_lanes_dead() {
                    // Nobody can use the subtree: the source consumes it
                    // without building its events (an `XmlReader` skims).
                    let skipped = events.skip_subtree()?;
                    engine.note_seek_skipped(skipped - 1, 0);
                    after_event(&mut engine);
                    engine.close();
                }
            }
            XmlEvent::Close(_) => engine.close(),
            XmlEvent::Eof => {
                let input_events = engine.input_events() + 1;
                return Ok(ObservedMultiRun {
                    results: engine.finish_observed(),
                    input_events,
                    seek_skipped_bytes: 0,
                    tape_seek_micros: 0,
                    index_skipped_bytes: 0,
                    index_probe_micros: 0,
                });
            }
        }
        after_event(&mut engine);
    }
}

/// Run N transducers over one replay of a [`TapeReader`], reading as
/// little of the tape as the query set permits.
///
/// Two read paths, picked automatically:
///
/// * **Index** — when the tape is FET2 with a usable skip index and
///   *every* lane participates in the prefilter, the matched labels'
///   posting lists drive a merged cursor ([`foxq_store::index_drive`])
///   that decodes only candidate frames; everything between them is
///   jumped over without so much as a tag-byte read, reported in
///   [`MultiRun::index_skipped_bytes`].
/// * **Scan** — otherwise (FET1 tapes, flagged tapes, a pass-through lane
///   in the set), frames are decoded in order.
///
/// Both obey one skip rule: an element's open is fed, and when
/// [`MultiQueryEngine::all_lanes_dead`] then holds the source seeks to the
/// matching close instead of producing the interior
/// ([`MultiRun::seek_skipped_bytes`]). A subtree the prefilter withholds
/// from every lane is the static case of that; a subtree-copying or
/// descendant-axis query gets it wherever its engine has no subscriber
/// left. On FET2 every decoded subtree is still verified and a skipped
/// child's stored hash is folded into its parent; a FET1 tape loses its
/// one footer checksum at the first seek, so there only the prefilter's
/// withholding triggers one — as it always has — and a pass-through
/// replay stays fully verified.
///
/// Output is identical across both paths and a full replay, and every
/// lane's `events + prefiltered_events` adds up to
/// [`MultiRun::input_events`] (`tests/store.rs` proves it);
/// [`run_multi_on_tape_scan`] forces the scan path for A/B measurement.
pub fn run_multi_on_tape<R: BufRead + Seek, S: XmlSink>(
    mfts: &[&Mft],
    tape: TapeReader<R>,
    sinks: Vec<S>,
    limits: StreamLimits,
    plan: &QuerySetPlan,
) -> Result<MultiRun<S>, StoreError> {
    run_multi_on_tape_observed(mfts, tape, plain_lanes(sinks), limits, plan)
        .map(ObservedMultiRun::discard_observers)
}

/// [`run_multi_on_tape`] with a [`StreamObserver`] per lane.
pub fn run_multi_on_tape_observed<R: BufRead + Seek, S: XmlSink, O: StreamObserver>(
    mfts: &[&Mft],
    tape: TapeReader<R>,
    lanes: Vec<(S, O)>,
    limits: StreamLimits,
    plan: &QuerySetPlan,
) -> Result<ObservedMultiRun<S, O>, StoreError> {
    if plan.prefilters_whole_set() {
        return match index_drive(tape, plan.matched_labels(), plan.skips_texts())? {
            TapeDrive::Indexed(drive) => run_multi_on_index(mfts, drive, lanes, limits, plan),
            TapeDrive::Linear(tape) => {
                run_multi_on_tape_scan_observed(mfts, tape, lanes, limits, plan)
            }
        };
    }
    run_multi_on_tape_scan_observed(mfts, tape, lanes, limits, plan)
}

/// The index path of [`run_multi_on_tape`]: deliver the merged cursor's
/// events, then account everything it withheld in one step at end of
/// input (the footer's event count makes the remainder exact).
fn run_multi_on_index<R: BufRead + Seek, S: XmlSink, O: StreamObserver>(
    mfts: &[&Mft],
    drive: IndexedReplay<R>,
    lanes: Vec<(S, O)>,
    limits: StreamLimits,
    plan: &QuerySetPlan,
) -> Result<ObservedMultiRun<S, O>, StoreError> {
    run_multi_on_index_hooked(mfts, drive, lanes, limits, plan, |_| {})
}

/// [`run_multi_on_index`] with the shared `after_event` hook.
fn run_multi_on_index_hooked<'m, R: BufRead + Seek, S: XmlSink, O: StreamObserver>(
    mfts: &[&'m Mft],
    mut drive: IndexedReplay<R>,
    lanes: Vec<(S, O)>,
    limits: StreamLimits,
    plan: &QuerySetPlan,
    mut after_event: impl FnMut(&mut MultiQueryEngine<'m, S, O>),
) -> Result<ObservedMultiRun<S, O>, StoreError> {
    assert_eq!(mfts.len(), lanes.len(), "one sink per query");
    let mut engine = MultiQueryEngine::with_observers(
        mfts.iter().copied().zip(lanes).map(|(m, (s, o))| (m, s, o)),
        limits,
        plan,
    );
    let done = |engine: MultiQueryEngine<'_, S, O>, drive: &IndexedReplay<R>, eof: bool| {
        let input_events = engine.input_events() + u64::from(eof);
        let seek_skipped_bytes = engine.seek_skipped_bytes();
        let index_skipped_bytes = engine.index_skipped_bytes();
        ObservedMultiRun {
            results: engine.finish_observed(),
            input_events,
            seek_skipped_bytes,
            tape_seek_micros: 0,
            index_skipped_bytes,
            index_probe_micros: drive.probe_micros(),
        }
    };
    loop {
        if engine.running() == 0 {
            return Ok(done(engine, &drive, false));
        }
        match drive.next_event()? {
            XmlEvent::Open(label) => {
                engine.open(&label);
                if !label.is_text() && engine.all_lanes_dead() {
                    // The interior's events are part of the remainder
                    // accounted at end of input.
                    let skipped = drive.skip_subtree()?;
                    engine.note_seek_skipped(0, skipped.bytes);
                    after_event(&mut engine);
                    engine.close();
                }
            }
            XmlEvent::Close(_) => engine.close(),
            XmlEvent::Eof => {
                engine.note_index_skipped(drive.undelivered_events(), drive.index_skipped_bytes());
                return Ok(done(engine, &drive, true));
            }
        }
        after_event(&mut engine);
    }
}

/// [`run_multi_on_tape`] restricted to the scan path — what every tape
/// got before the FET2 skip index, kept callable for FET1 tapes and A/B
/// measurement.
pub fn run_multi_on_tape_scan<R: BufRead + Seek, S: XmlSink>(
    mfts: &[&Mft],
    tape: TapeReader<R>,
    sinks: Vec<S>,
    limits: StreamLimits,
    plan: &QuerySetPlan,
) -> Result<MultiRun<S>, StoreError> {
    run_multi_on_tape_scan_observed(mfts, tape, plain_lanes(sinks), limits, plan)
        .map(ObservedMultiRun::discard_observers)
}

/// [`run_multi_on_tape_scan`] with a [`StreamObserver`] per lane.
pub fn run_multi_on_tape_scan_observed<R: BufRead + Seek, S: XmlSink, O: StreamObserver>(
    mfts: &[&Mft],
    tape: TapeReader<R>,
    lanes: Vec<(S, O)>,
    limits: StreamLimits,
    plan: &QuerySetPlan,
) -> Result<ObservedMultiRun<S, O>, StoreError> {
    run_multi_on_tape_scan_hooked(mfts, tape, lanes, limits, plan, |_| {})
}

/// [`run_multi_on_tape_scan_observed`] with the shared `after_event` hook.
fn run_multi_on_tape_scan_hooked<'m, R: BufRead + Seek, S: XmlSink, O: StreamObserver>(
    mfts: &[&'m Mft],
    mut tape: TapeReader<R>,
    lanes: Vec<(S, O)>,
    limits: StreamLimits,
    plan: &QuerySetPlan,
    mut after_event: impl FnMut(&mut MultiQueryEngine<'m, S, O>),
) -> Result<ObservedMultiRun<S, O>, StoreError> {
    assert_eq!(mfts.len(), lanes.len(), "one sink per query");
    let mut engine = MultiQueryEngine::with_observers(
        mfts.iter().copied().zip(lanes).map(|(m, (s, o))| (m, s, o)),
        limits,
        plan,
    );
    let done = |engine: MultiQueryEngine<'_, S, O>, tape_seek_micros: u64, eof: bool| {
        let input_events = engine.input_events() + u64::from(eof);
        let seek_skipped_bytes = engine.seek_skipped_bytes();
        ObservedMultiRun {
            results: engine.finish_observed(),
            input_events,
            seek_skipped_bytes,
            tape_seek_micros,
            index_skipped_bytes: 0,
            index_probe_micros: 0,
        }
    };
    // A FET1 seek forfeits the footer checksum, so those tapes keep the
    // skips they always took: the ones the prefilter asks for.
    let ask_engines = tape.info().version != VERSION_V1;
    loop {
        if engine.running() == 0 {
            return Ok(done(engine, tape.seek_micros(), false));
        }
        match tape.next_event()? {
            XmlEvent::Open(label) => {
                engine.open(&label);
                if !label.is_text() && tape.skippable() && engine.lanes_idle(ask_engines) {
                    let skipped = tape.skip_subtree()?;
                    engine.note_seek_skipped(skipped.events - 1, skipped.bytes);
                    after_event(&mut engine);
                    engine.close();
                }
            }
            XmlEvent::Close(_) => engine.close(),
            XmlEvent::Eof => {
                let seek_micros = tape.seek_micros();
                return Ok(done(engine, seek_micros, true));
            }
        }
        after_event(&mut engine);
    }
}

// ---------------------------------------------------------------------------
// Earliest-emission drivers
// ---------------------------------------------------------------------------

/// Fire the end-of-input emission boundary on every surviving lane: the
/// eof tick's flush ground the remainder of each output, so one last
/// `emit` releases it. A failure here turns that lane's result into
/// [`StreamError::Emit`].
fn final_emits<S: EmitSink, O>(mut run: ObservedMultiRun<S, O>) -> ObservedMultiRun<S, O> {
    run.results = run
        .results
        .into_iter()
        .map(|r| {
            r.and_then(|(mut sink, stats, obs)| {
                sink.emit().map_err(StreamError::from)?;
                Ok((sink, stats, obs))
            })
        })
        .collect();
    run
}

/// [`run_multi_with_plan`] over [`EmitSink`] lanes: after every delivered
/// event each lane's emission boundary fires, releasing whatever its
/// engine just made irrevocable — output streams out while the input is
/// still being read.
pub fn run_multi_emit<E: EventSource, S: EmitSink>(
    mfts: &[&Mft],
    events: E,
    sinks: Vec<S>,
    limits: StreamLimits,
    plan: &QuerySetPlan,
) -> Result<MultiRun<S>, XmlError> {
    run_multi_emit_observed(mfts, events, plain_lanes(sinks), limits, plan)
        .map(ObservedMultiRun::discard_observers)
}

/// [`run_multi_emit`] with a [`StreamObserver`] per lane.
pub fn run_multi_emit_observed<E: EventSource, S: EmitSink, O: StreamObserver>(
    mfts: &[&Mft],
    events: E,
    lanes: Vec<(S, O)>,
    limits: StreamLimits,
    plan: &QuerySetPlan,
) -> Result<ObservedMultiRun<S, O>, XmlError> {
    run_multi_hooked(mfts, events, lanes, limits, plan, |e| e.emit_running()).map(final_emits)
}

/// [`run_multi_on_tape`] over [`EmitSink`] lanes — same automatic
/// index-vs-scan path choice, with per-event emission boundaries.
pub fn run_multi_on_tape_emit<R: BufRead + Seek, S: EmitSink>(
    mfts: &[&Mft],
    tape: TapeReader<R>,
    sinks: Vec<S>,
    limits: StreamLimits,
    plan: &QuerySetPlan,
) -> Result<MultiRun<S>, StoreError> {
    run_multi_on_tape_emit_observed(mfts, tape, plain_lanes(sinks), limits, plan)
        .map(ObservedMultiRun::discard_observers)
}

/// [`run_multi_on_tape_emit`] with a [`StreamObserver`] per lane.
pub fn run_multi_on_tape_emit_observed<R: BufRead + Seek, S: EmitSink, O: StreamObserver>(
    mfts: &[&Mft],
    tape: TapeReader<R>,
    lanes: Vec<(S, O)>,
    limits: StreamLimits,
    plan: &QuerySetPlan,
) -> Result<ObservedMultiRun<S, O>, StoreError> {
    let run = if plan.prefilters_whole_set() {
        match index_drive(tape, plan.matched_labels(), plan.skips_texts())? {
            TapeDrive::Indexed(drive) => {
                run_multi_on_index_hooked(mfts, drive, lanes, limits, plan, |e| e.emit_running())?
            }
            TapeDrive::Linear(tape) => {
                run_multi_on_tape_scan_hooked(mfts, tape, lanes, limits, plan, |e| {
                    e.emit_running()
                })?
            }
        }
    } else {
        run_multi_on_tape_scan_hooked(mfts, tape, lanes, limits, plan, |e| e.emit_running())?
    };
    Ok(final_emits(run))
}

/// [`run_multi_on_tape_scan`] over [`EmitSink`] lanes — forces the
/// scan-with-seek path (FET1 tapes, A/B measurement).
pub fn run_multi_on_tape_scan_emit<R: BufRead + Seek, S: EmitSink>(
    mfts: &[&Mft],
    tape: TapeReader<R>,
    sinks: Vec<S>,
    limits: StreamLimits,
    plan: &QuerySetPlan,
) -> Result<MultiRun<S>, StoreError> {
    run_multi_on_tape_scan_hooked(mfts, tape, plain_lanes(sinks), limits, plan, |e| {
        e.emit_running()
    })
    .map(final_emits)
    .map(ObservedMultiRun::discard_observers)
}

/// Drive N transducers from an in-memory forest (tests and benchmarks).
pub fn run_multi_on_forest<S: XmlSink>(
    mfts: &[&Mft],
    forest: &[Tree],
    sinks: Vec<S>,
) -> MultiRun<S> {
    assert_eq!(mfts.len(), sinks.len(), "one sink per query");
    let mut engine = MultiQueryEngine::new(mfts.iter().copied().zip(sinks));
    fn feed<S: XmlSink>(engine: &mut MultiQueryEngine<'_, S>, t: &Tree) {
        engine.open(&t.label);
        for c in &t.children {
            feed(engine, c);
        }
        engine.close();
    }
    for t in forest {
        feed(&mut engine, t);
    }
    let input_events = engine.input_events() + 1;
    MultiRun {
        results: engine.finish(),
        input_events,
        seek_skipped_bytes: 0,
        tape_seek_micros: 0,
        index_skipped_bytes: 0,
        index_probe_micros: 0,
    }
}

/// Convenience driver for [`crate::PreparedQuery`] sets: one pass over
/// `input`, serialized per-query outputs.
pub fn run_multi_to_strings(
    queries: &[std::sync::Arc<crate::PreparedQuery>],
    input: &[u8],
) -> Result<MultiRun<String>, XmlError> {
    let mfts: Vec<&Mft> = queries.iter().map(|q| q.mft()).collect();
    let sinks: Vec<_> = queries
        .iter()
        .map(|_| foxq_xml::WriterSink::new(Vec::new()))
        .collect();
    let run = run_multi(&mfts, XmlReader::new(input), sinks)?;
    Ok(MultiRun {
        results: run
            .results
            .into_iter()
            .map(|r| {
                r.map(|(sink, stats)| {
                    let buf = sink.finish().expect("writing to Vec cannot fail");
                    (String::from_utf8(buf).expect("output is UTF-8"), stats)
                })
            })
            .collect(),
        input_events: run.input_events,
        seek_skipped_bytes: run.seek_skipped_bytes,
        tape_seek_micros: run.tape_seek_micros,
        index_skipped_bytes: run.index_skipped_bytes,
        index_probe_micros: run.index_probe_micros,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use foxq_core::opt::optimize;
    use foxq_core::text::parse_mft;
    use foxq_core::translate::translate;
    use foxq_forest::term::parse_forest;
    use foxq_xml::{forest_to_xml_string, ForestSink};
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
    fn lane_timing_attributes_run_time_per_lane() {
        let queries = ["<a>{$input/x}</a>", "<b>{$input//y}</b>"];
        let mfts: Vec<Mft> = queries.iter().map(|q| mft_of(q)).collect();
        let doc = parse_forest(&r#"x("1") y(x() y("2")) "#.repeat(200)).unwrap();
        let mut engine = MultiQueryEngine::new(
            mfts.iter()
                .map(|m| (m, foxq_xml::NullSink))
                .collect::<Vec<_>>(),
        );
        assert!(engine.lane_nanos().is_none(), "timing must be opt-in");
        engine.enable_lane_timing();
        fn feed<S: XmlSink>(e: &mut MultiQueryEngine<'_, S>, t: &Tree) {
            e.open(&t.label);
            for c in &t.children {
                feed(e, c);
            }
            e.close();
        }
        for t in &doc {
            feed(&mut engine, t);
        }
        let nanos = engine.lane_nanos().unwrap();
        assert_eq!(nanos.len(), 2);
        // ~2,000 delivered events per lane: every lane has measurable time.
        assert!(nanos.iter().all(|&n| n > 0), "{nanos:?}");
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
        fn feed<S: XmlSink>(e: &mut MultiQueryEngine<'_, S>, t: &Tree) {
            e.open(&t.label);
            for c in &t.children {
                feed(e, c);
            }
            e.close();
        }
        for t in &doc {
            feed(&mut engine, t);
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
        let run = run_multi_with_limits(
            &[&looping],
            XmlReader::new(doc.as_bytes()),
            vec![foxq_xml::NullSink],
            StreamLimits {
                max_expansions_per_event: 100,
                ..StreamLimits::default()
            },
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
        let mut solo = MultiQueryEngine::new(vec![(&m, ForestSink::new())]);
        solo.disable_prefilter();
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
        let scanned = run_multi_on_tape_scan(
            &[&m],
            tape_of(xml),
            vec![ForestSink::new()],
            StreamLimits::default(),
            &plan,
        )
        .unwrap();
        let (psink, pstats) = parsed.results.into_iter().next().unwrap().unwrap();
        let (tsink, tstats) = taped.results.into_iter().next().unwrap().unwrap();
        let (ssink, sstats) = scanned.results.into_iter().next().unwrap().unwrap();
        let expected = forest_to_xml_string(&psink.into_forest());
        assert_eq!(forest_to_xml_string(&tsink.into_forest()), expected);
        assert_eq!(forest_to_xml_string(&ssink.into_forest()), expected);
        // All passes withheld the same events. The auto tape pass took the
        // index path (everything under <regions> was jumped over without a
        // decode); the forced scan pass decoded every open and seeked.
        assert_eq!(tstats.prefiltered_events, pstats.prefiltered_events);
        assert_eq!(sstats.prefiltered_events, pstats.prefiltered_events);
        assert!(tstats.prefiltered_events > 0);
        assert!(taped.index_skipped_bytes > 0);
        assert_eq!(taped.seek_skipped_bytes, 0);
        assert_eq!(tstats.index_skipped_bytes, taped.index_skipped_bytes);
        assert!(scanned.seek_skipped_bytes > 0);
        assert_eq!(scanned.index_skipped_bytes, 0);
        assert_eq!(sstats.seek_skipped_bytes, scanned.seek_skipped_bytes);
        assert_eq!(pstats.seek_skipped_bytes, 0);
        assert_eq!(taped.input_events, parsed.input_events);
        assert_eq!(scanned.input_events, parsed.input_events);
        // The index never visits more than the scan path delivers, so it
        // always skips at least what seeking did.
        assert!(taped.index_skipped_bytes >= scanned.seek_skipped_bytes);
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
                assert_eq!(stats.seek_skipped_bytes, run.seek_skipped_bytes);
            }
            (
                forest_to_xml_string(&other.into_forest()),
                other_stats,
                run.seek_skipped_bytes,
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
        fn feed<S: XmlSink>(e: &mut MultiQueryEngine<'_, S>, t: &Tree) {
            e.open(&t.label);
            for c in &t.children {
                feed(e, c);
            }
            e.close();
        }
        for t in &doc {
            feed(&mut planned, t);
            feed(&mut fresh, t);
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
