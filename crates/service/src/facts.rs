//! The per-run facts, one row each.
//!
//! A run's statistics reach a client as `x-foxq-*` headers (trailers on a
//! streamed reply), an operator as `/metrics` families, and the profile
//! registry as per-query aggregates. [`FACTS`] declares each fact once —
//! its key, the field that carries it and on which replies, its Prometheus
//! family, whether the registry tracks it, and how to read it off a
//! [`RunReport`] — and every one of those views is a loop over it, so
//! they cannot disagree.

use crate::multi::RunReport;
use foxq_obs::{Family, Histogram};

/// Which replies carry a fact as an `x-foxq-*` field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum On {
    /// Every `/query` reply.
    Every,
    /// `stream=1` replies only.
    Streamed,
    /// `doc=` replies only.
    Doc,
}

/// The shape of a reply: buffered or streamed (`stream=1`), over a body or
/// a stored document (`doc=`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplyKind {
    pub streamed: bool,
    pub doc: bool,
}

impl ReplyKind {
    /// Whether this reply carries the facts declared [`On`] `on`.
    pub fn carries(self, on: On) -> bool {
        match on {
            On::Every => true,
            On::Streamed => self.streamed,
            On::Doc => self.doc,
        }
    }
}

/// Whether the profile registry tracks a fact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tracked {
    No,
    /// Under its key.
    Yes,
    /// Under its key in `/debug/profile`, under this one in the
    /// `--profile` JSONL record.
    As(&'static str),
}

/// One per-run fact.
pub struct Fact {
    /// Its name: the `/debug/profile` row and the `--profile` JSONL key.
    pub key: &'static str,
    /// The `x-foxq-*` field that carries it, and on which replies; a header
    /// on a buffered reply, a trailer on a streamed one.
    pub field: Option<(&'static str, On)>,
    /// Its `/metrics` family: a counter it is added to, or a value
    /// histogram it is observed in, once per successful lane — on the
    /// replies that carry its field, if it has one.
    pub family: Option<Family>,
    /// Whether the profile registry aggregates it.
    pub tracked: Tracked,
    /// Its value in a report; `None` where the run did not measure it.
    pub value: fn(&RunReport) -> Option<u64>,
}

const NODES: &[u64] = Histogram::NODE_BOUNDS;
const BYTES: &[u64] = Histogram::BYTE_BOUNDS;

/// Every per-run fact, in the order replies, `/debug/profile` and the
/// JSONL record list them.
#[rustfmt::skip]
pub const FACTS: [Fact; 12] = [
    Fact { key: "input_events", field: Some(("x-foxq-input-events", On::Every)),
        family: None, tracked: Tracked::Yes, value: |r| Some(r.input_events) },
    Fact { key: "output_events", field: Some(("x-foxq-output-events", On::Every)),
        family: Some(Family::counter("foxq_output_events_total",
            "Output events produced by successful lanes.")),
        tracked: Tracked::Yes, value: |r| Some(r.stats.output_events) },
    Fact { key: "prefiltered_events", field: Some(("x-foxq-prefiltered-events", On::Every)),
        family: Some(Family::counter("foxq_prefilter_skipped_events_total",
            "Input events withheld from lanes: by the label prefilter, or skipped (tape seek, \
             XML skim) where every lane was dead.")),
        tracked: Tracked::No, value: |r| Some(r.stats.prefiltered_events) },
    Fact { key: "peak_live_nodes", field: Some(("x-foxq-peak-live-nodes", On::Every)),
        family: Some(Family::values("foxq_live_nodes_peak",
            "Per-request peak of live expression nodes.", NODES)),
        tracked: Tracked::Yes, value: |r| Some(r.stats.peak_live_nodes as u64) },
    Fact { key: "peak_live_bytes", field: Some(("x-foxq-peak-live-bytes", On::Every)),
        family: Some(Family::values("foxq_live_bytes_peak",
            "Per-request peak of approximate live bytes.", BYTES)),
        tracked: Tracked::Yes, value: |r| Some(r.stats.peak_live_bytes as u64) },
    Fact { key: "peak_pending_calls", field: Some(("x-foxq-peak-pending-calls", On::Every)),
        family: None, tracked: Tracked::Yes, value: |r| Some(r.stats.peak_pending_calls as u64) },
    Fact { key: "emit_flushes", field: Some(("x-foxq-emit-flushes", On::Streamed)),
        family: Some(Family::values("foxq_emit_flushes_per_request",
            "Irrevocable emission flushes per streamed query run.", NODES)),
        tracked: Tracked::No, value: |r| Some(r.stats.emit_flushes) },
    Fact { key: "first_emit_events", field: Some(("x-foxq-first-emit-events", On::Streamed)),
        family: Some(Family::values("foxq_first_emit_events",
            "Input events before the first irrevocable emission flush on streamed query runs.",
            NODES)),
        tracked: Tracked::No, value: |r| Some(r.stats.first_emit_events) },
    Fact { key: "seek_skipped_bytes", field: Some(("x-foxq-seek-skipped-bytes", On::Doc)),
        family: Some(Family::counter("foxq_seek_skipped_bytes_total",
            "Tape bytes seeked over (never decoded) on corpus query runs.")),
        tracked: Tracked::No, value: |r| Some(r.source.seek_skipped_bytes) },
    Fact { key: "index_skipped_bytes", field: Some(("x-foxq-index-skipped-bytes", On::Doc)),
        family: Some(Family::counter("foxq_index_skipped_bytes_total",
            "Tape bytes the label skip index jumped over on corpus query runs.")),
        tracked: Tracked::No, value: |r| Some(r.source.index_skipped_bytes) },
    Fact { key: "alloc_bytes", field: None,
        family: Some(Family::values("foxq_alloc_bytes_per_request",
            "Allocator bytes billed to the worker thread per query request.", BYTES)),
        tracked: Tracked::Yes, value: |r| r.alloc_bytes },
    Fact { key: "execute_micros", field: None, family: None,
        tracked: Tracked::As("execute_us"), value: |r| r.execute_micros },
];

impl RunReport {
    /// The `x-foxq-*` fields a reply of `kind` carries, with their values.
    pub fn fields(&self, kind: ReplyKind) -> Vec<(&'static str, String)> {
        FACTS
            .iter()
            .filter_map(|fact| {
                let (name, on) = fact.field?;
                let value = (fact.value)(self).filter(|_| kind.carries(on))?;
                Some((name, value.to_string()))
            })
            .collect()
    }
}

/// The names of the fields a reply of `kind` carries — what a streamed
/// reply declares in its `Trailer:` header before the run.
pub fn field_names(kind: ReplyKind) -> impl Iterator<Item = &'static str> {
    FACTS
        .iter()
        .filter_map(move |fact| fact.field.filter(|&(_, on)| kind.carries(on)))
        .map(|(name, _)| name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_names_spell_the_keys() {
        for fact in &FACTS {
            if let Some((name, _)) = fact.field {
                assert_eq!(name, format!("x-foxq-{}", fact.key.replace('_', "-")));
            }
        }
    }

    #[test]
    fn a_reply_declares_exactly_the_fields_it_carries() {
        let report = RunReport::default();
        for streamed in [false, true] {
            for doc in [false, true] {
                let kind = ReplyKind { streamed, doc };
                let sent: Vec<_> = report.fields(kind).into_iter().map(|(n, _)| n).collect();
                assert_eq!(field_names(kind).collect::<Vec<_>>(), sent, "{kind:?}");
            }
        }
        assert_eq!(field_names(ReplyKind::default()).count(), 6);
        let all = ReplyKind {
            streamed: true,
            doc: true,
        };
        assert_eq!(field_names(all).count(), 10);
    }
}
