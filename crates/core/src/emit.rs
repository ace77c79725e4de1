//! Earliest emission — stream query results out before the document ends.
//!
//! The streaming engine ([`crate::stream`]) already maintains the earliest
//! emission invariant internally: after every input event it walks the
//! leftmost frontier of the output graph, pushes everything ground to the
//! sink, stalls at the first pending state call, and frees the flushed
//! prefix from the arena. What it lacked was a way to *release* that
//! irrevocable prefix downstream incrementally — every caller buffered the
//! whole serialized output and shipped it after end-of-input.
//!
//! This module closes the gap with two pieces:
//!
//! * [`EmitSink`] — an [`XmlSink`] with an `emit` boundary. Every driver
//!   ([`run_streaming_with_observer`](crate::stream::run_streaming_with_observer)
//!   and `foxq_service::run_lanes`) calls `emit` after each delivered input
//!   event; everything pushed since the previous boundary is irrevocable
//!   (per the paper's earliest-emission argument: no pending state call
//!   remains to its left) and can be handed to a socket, stdout, or a
//!   chunked HTTP response without ever being revoked. A sink that holds
//!   nothing back ([`WriterSink`], the counting and
//!   forest-building sinks) has nothing to release there: its boundary is
//!   empty and compiles away.
//! * [`EmissionAnalysis`] — a static analysis over the compiled MFT that
//!   answers, per state, *can this state ever have ground output to the
//!   left of a pending call?* A transducer none of whose reachable states
//!   can is end-buffered by construction (its entire output materializes at
//!   the eof tick); one whose initial state can is expected to stream.
//!
//! [`EmitWriter`] is the serializer both the server and the CLI use: it
//! renders output events through the shared [`XmlWriter`] (so streamed
//! bytes are identical to materialized ones) into an internal buffer that
//! each `emit` boundary drains through a caller-supplied delivery closure.

use crate::mft::{Mft, Rhs, RhsNode, StateId};
use foxq_forest::{Label, NodeKind};
use foxq_xml::{CountingSink, ForestSink, NullSink, WriterSink, XmlSink, XmlWriter};
use std::io;

// ---------------------------------------------------------------------------
// EmitSink
// ---------------------------------------------------------------------------

/// An [`XmlSink`] with an emission boundary.
///
/// The engine's drivers call [`EmitSink::emit`] after each fully
/// processed input event (and once more after end-of-input). Everything
/// pushed via `open`/`close` since the previous boundary is *irrevocable* —
/// no pending state call remains to its left — so the sink may release it
/// downstream immediately. `emit` with nothing new accumulated must be a
/// cheap no-op: most input events grow no output on buffering queries.
///
/// Unlike the per-event `open`/`close` hot path (infallible, errors
/// deferred), `emit` is fallible: a delivery failure (client hung up,
/// stdout closed) aborts the run as [`StreamError::Emit`] — there is no
/// point transducing input nobody will read.
///
/// [`StreamError::Emit`]: crate::stream::StreamError::Emit
pub trait EmitSink: XmlSink {
    /// Release everything accumulated since the previous boundary. The
    /// default is for a sink that accumulates nothing: there is nothing to
    /// release, and the boundary compiles away.
    #[inline]
    fn emit(&mut self) -> io::Result<()> {
        Ok(())
    }
}

// These hold nothing back for a boundary to release.
impl EmitSink for NullSink {}
impl EmitSink for CountingSink {}
impl EmitSink for ForestSink {}
impl<W: io::Write> EmitSink for WriterSink<W> {}

// ---------------------------------------------------------------------------
// EmitWriter
// ---------------------------------------------------------------------------

/// Serializes output events into an internal buffer and hands each
/// irrevocable prefix to a delivery closure at [`EmitSink::emit`] time.
///
/// Serialization goes through the same [`XmlWriter`] as the materializing
/// [`WriterSink`], so the concatenation of delivered
/// prefixes is byte-identical to the buffered output (proptest-guarded in
/// `tests/emit_stream.rs`). I/O errors from the delivery closure surface at
/// the next `emit` / [`EmitWriter::finish`], mirroring `WriterSink`'s
/// deferred-error contract on the infallible `open`/`close` path.
pub struct EmitWriter<F: FnMut(&[u8]) -> io::Result<()>> {
    writer: XmlWriter<Vec<u8>>,
    deliver: F,
    /// Non-empty prefixes delivered so far.
    chunks: u64,
    error: Option<io::Error>,
}

impl<F: FnMut(&[u8]) -> io::Result<()>> EmitWriter<F> {
    pub fn new(deliver: F) -> Self {
        EmitWriter {
            writer: XmlWriter::new(Vec::new()),
            deliver,
            chunks: 0,
            error: None,
        }
    }

    /// Total serialized bytes (delivered + still buffered).
    pub fn bytes_written(&self) -> u64 {
        self.writer.bytes_written()
    }

    /// Non-empty prefixes delivered so far.
    pub fn chunks_delivered(&self) -> u64 {
        self.chunks
    }

    /// Check for a deferred serialization error (delivery errors surface
    /// eagerly from [`EmitSink::emit`], so after a successful final emit
    /// this can only report buffer-write failures, which cannot happen for
    /// `Vec`).
    pub fn finish(mut self) -> io::Result<()> {
        match self.error.take() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    fn record(&mut self, r: io::Result<()>) {
        if self.error.is_none() {
            if let Err(e) = r {
                self.error = Some(e);
            }
        }
    }
}

impl<F: FnMut(&[u8]) -> io::Result<()>> XmlSink for EmitWriter<F> {
    fn open(&mut self, label: &Label) {
        let r = match label.kind {
            NodeKind::Element => self.writer.start_elem(&label.name),
            NodeKind::Text => self.writer.text(&label.name),
        };
        self.record(r);
    }

    fn close(&mut self, label: &Label) {
        if label.kind == NodeKind::Element {
            let r = self.writer.end_elem(&label.name);
            self.record(r);
        }
    }
}

impl<F: FnMut(&[u8]) -> io::Result<()>> EmitSink for EmitWriter<F> {
    fn emit(&mut self) -> io::Result<()> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        let buf = self.writer.get_mut();
        if buf.is_empty() {
            return Ok(());
        }
        let r = (self.deliver)(buf);
        buf.clear();
        if r.is_ok() {
            self.chunks += 1;
        }
        r
    }
}

// ---------------------------------------------------------------------------
// Static emission analysis
// ---------------------------------------------------------------------------

/// Per-state answer to *can this state have ground output to the left of a
/// pending call?* — the static side of earliest emission.
///
/// A state `q` is **early-emitting** when some reachable configuration of
/// `q` holds an output event that is already irrevocable (no pending call
/// to its left) while a pending call remains to its right. The engine
/// flushes exactly such prefixes; a transducer whose initial state is not
/// early-emitting keeps its entire output behind its leftmost pending call
/// until end-of-input (the end-buffered shape — e.g. the unoptimized
/// translation that accumulates `qcopy(x0)` in a parameter).
///
/// Computed as a least fixpoint over rule right-hand sides, `early[q]`
/// holds iff some rule of `q`
///
/// * places an output node strictly before a state call in emission
///   (pre-order) position — the output flushes while the call pends — or
/// * contains a call (anywhere, including accumulator arguments) to an
///   early-emitting state: substituting that state's rule exhibits the
///   same shape one expansion later.
///
/// Parameters (`y_i`) are opaque: their content is supplied by the caller
/// and placed wherever the callee puts the parameter, so they count as
/// neither output nor call. The analysis is a *may* over-approximation —
/// `early[q]` can hold for runs where every call resolves within one event
/// — which is the useful direction for a streaming diagnostic.
#[derive(Debug, Clone)]
pub struct EmissionAnalysis {
    early: Vec<bool>,
}

impl EmissionAnalysis {
    /// Run the fixpoint over all states of `mft`.
    pub fn analyze(mft: &Mft) -> Self {
        let n = mft.states.len();
        let mut early = vec![false; n];
        // Seed: rules with a direct output-before-call shape.
        for (q, rules) in mft.rules.iter().enumerate() {
            let direct = rules
                .by_sym
                .values()
                .chain(rules.text_default.iter())
                .chain([&rules.default, &rules.eps])
                .any(rhs_emits_before_call);
            early[q] = direct;
        }
        // Propagate: calling an early state (anywhere) makes a state early.
        let mut changed = true;
        while changed {
            changed = false;
            for (q, rules) in mft.rules.iter().enumerate() {
                if early[q] {
                    continue;
                }
                let hit = rules
                    .by_sym
                    .values()
                    .chain(rules.text_default.iter())
                    .chain([&rules.default, &rules.eps])
                    .any(|r| rhs_calls_early(r, &early));
                if hit {
                    early[q] = true;
                    changed = true;
                }
            }
        }
        EmissionAnalysis { early }
    }

    /// Whether `q` can hold irrevocable output left of a pending call.
    pub fn is_early(&self, q: StateId) -> bool {
        self.early[q.idx()]
    }

    /// Number of early-emitting states.
    pub fn early_count(&self) -> usize {
        self.early.iter().filter(|&&b| b).count()
    }

    /// Total number of states analyzed.
    pub fn state_count(&self) -> usize {
        self.early.len()
    }

    /// Whether the transducer as a whole is expected to stream: its
    /// initial state is early-emitting.
    pub fn streams_early(&self, mft: &Mft) -> bool {
        self.is_early(mft.initial)
    }
}

/// Does `rhs` place an output node strictly before a state call in
/// emission (pre-order) position? Call arguments are excluded from the
/// positional walk: they surface at the callee's parameter positions, not
/// here.
fn rhs_emits_before_call(rhs: &Rhs) -> bool {
    fn walk(rhs: &Rhs, seen_out: &mut bool) -> bool {
        for node in rhs {
            match node {
                RhsNode::Out { children, .. } => {
                    *seen_out = true;
                    if walk(children, seen_out) {
                        return true;
                    }
                }
                RhsNode::Call { .. } => {
                    if *seen_out {
                        return true;
                    }
                }
                RhsNode::Param(_) => {}
            }
        }
        false
    }
    walk(rhs, &mut false)
}

/// Does `rhs` call an already-early state anywhere (including inside
/// accumulator arguments)?
fn rhs_calls_early(rhs: &Rhs, early: &[bool]) -> bool {
    rhs.iter().any(|node| match node {
        RhsNode::Out { children, .. } => rhs_calls_early(children, early),
        RhsNode::Call { state, args, .. } => {
            early[state.idx()] || args.iter().any(|a| rhs_calls_early(a, early))
        }
        RhsNode::Param(_) => false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opt::optimize;
    use crate::stream::{run_streaming_to_string, run_streaming_with_limits, StreamLimits};
    use crate::text::parse_mft;
    use crate::translate::translate;
    use foxq_xquery::parse_query;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn identity_is_early_emitting() {
        let m =
            parse_mft("qcopy(%t(x1) x2) -> %t(qcopy(x1)) qcopy(x2); qcopy(eps) -> eps;").unwrap();
        let a = EmissionAnalysis::analyze(&m);
        assert!(a.streams_early(&m));
        assert_eq!(a.early_count(), a.state_count());
    }

    #[test]
    fn pure_accumulator_is_not_early() {
        // Everything funnels into a parameter; output only appears at eof
        // when the ε-rule discharges the accumulator. No rule ever has
        // ground output left of a call.
        let m = parse_mft(
            "q0(%t(x1) x2) -> qacc(x2, %t()); q0(eps) -> eps; \
             qacc(%t(x1) x2, y1) -> qacc(x2, y1); qacc(eps, y1) -> y1;",
        )
        .unwrap();
        let a = EmissionAnalysis::analyze(&m);
        assert!(!a.streams_early(&m));
        assert_eq!(a.early_count(), 0);
    }

    #[test]
    fn earliness_propagates_through_calls() {
        // q0 itself has no output-before-call rule, but it calls qcopy,
        // which does.
        let m = parse_mft(
            "q0(%t(x1) x2) -> qcopy(x1); q0(eps) -> eps; \
             qcopy(%t(x1) x2) -> %t(qcopy(x1)) qcopy(x2); qcopy(eps) -> eps;",
        )
        .unwrap();
        let a = EmissionAnalysis::analyze(&m);
        assert!(a.streams_early(&m));
    }

    #[test]
    fn translated_streamable_query_is_early() {
        let q =
            parse_query("<o>{ for $p in $input/people/person return <n>{$p/name/text()}</n> }</o>")
                .unwrap();
        let m = optimize(translate(&q).unwrap());
        assert!(EmissionAnalysis::analyze(&m).streams_early(&m));
    }

    #[test]
    fn emit_writer_chunks_concatenate_to_full_output() {
        let m = optimize(translate(&parse_query("<o>{$input/site/a}</o>").unwrap()).unwrap());
        let doc = "<site><a>1</a><b>x</b><a>2</a></site>";
        let chunks: Rc<RefCell<Vec<Vec<u8>>>> = Rc::default();
        let sink = {
            let chunks = chunks.clone();
            EmitWriter::new(move |p: &[u8]| {
                chunks.borrow_mut().push(p.to_vec());
                Ok(())
            })
        };
        let reader = foxq_xml::XmlReader::new(doc.as_bytes());
        let (sink, stats) =
            run_streaming_with_limits(&m, reader, sink, StreamLimits::default()).unwrap();
        assert!(sink.chunks_delivered() >= 2, "expected incremental chunks");
        sink.finish().unwrap();
        let all: Vec<u8> = chunks.borrow().iter().flatten().copied().collect();
        let expected =
            run_streaming_to_string(&m, doc.as_bytes(), StreamLimits::default()).unwrap();
        assert_eq!(String::from_utf8(all).unwrap(), expected.output);
        assert!(stats.emit_flushes >= 2, "{}", stats.emit_flushes);
        assert!(stats.first_emit_events > 0);
        assert!(stats.streamed_output_events > 0);
        assert!(stats.streamed_fraction() > 0.0);
    }

    #[test]
    fn emit_error_aborts_run() {
        let m =
            parse_mft("qcopy(%t(x1) x2) -> %t(qcopy(x1)) qcopy(x2); qcopy(eps) -> eps;").unwrap();
        let sink = EmitWriter::new(|_: &[u8]| {
            Err(io::Error::new(io::ErrorKind::BrokenPipe, "client gone"))
        });
        let reader = foxq_xml::XmlReader::new(b"<a><b>t</b></a>".as_slice());
        let err = match run_streaming_with_limits(&m, reader, sink, StreamLimits::default()) {
            Err(e) => e,
            Ok(_) => panic!("expected the run to abort on emit failure"),
        };
        assert!(matches!(err, crate::stream::StreamError::Emit(_)), "{err}");
    }
}
