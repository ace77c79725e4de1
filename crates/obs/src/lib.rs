//! Observability core for foxq: histograms, spans, and trace sinks.
//!
//! Zero-dependency (std only), mirroring the house style of
//! `foxq_server::reactor`. Three pieces, layered so the engine crates
//! stay free of any global state:
//!
//! - [`Histogram`]: fixed-bucket latency histogram with atomic buckets,
//!   lock-free recording, and Prometheus text exposition
//!   (`_bucket`/`_sum`/`_count` with cumulative `le` buckets).
//! - [`TraceContext`] / [`Span`]: a per-request accumulator of
//!   per-[`Stage`] wall time, driven by RAII guards over monotonic
//!   clocks. Snapshots out to a [`StageTimes`] value that renders as a
//!   `Server-Timing` header or a CLI stage table.
//! - [`TraceSink`] implementations: [`RingSink`] (bounded in-memory
//!   ring for `/debug/requests`) and [`JsonlSink`] (size-capped,
//!   rotating JSONL file for `foxq serve --trace-log`).
//! - A counting `#[global_allocator]` wrapper (`alloc`): process-wide
//!   allocation/free/live/peak counters ([`alloc_snapshot`]),
//!   per-thread scoped deltas ([`AllocScope`]) so a worker can bill a
//!   single run, and RSS sampling ([`read_rss_bytes`]).
//! - [`Family`]: a Prometheus family declared as one row — name, HELP
//!   text, [`Kind`] — so a registry renders its families in one loop.
//!
//! The stage taxonomy ([`Stage`]) is shared across the stack: the
//! compile pipeline (`foxq_service`), the engines (`foxq_core`), the
//! tape store (`foxq_store`), and the HTTP layer (`foxq_server`) all
//! report through the same stage names.

#![warn(clippy::undocumented_unsafe_blocks)]

mod alloc;
mod family;
mod histogram;
mod sink;
mod span;

pub use alloc::{alloc_snapshot, read_rss_bytes, AllocDelta, AllocScope, AllocSnapshot};
pub use family::{Family, Kind};
pub use histogram::Histogram;
pub use sink::{JsonlSink, RingSink, TraceRecord, TraceSink, DEFAULT_TRACE_LOG_MAX_BYTES};
pub use span::{Span, StageTimes, TraceContext};

use std::time::{Duration, Instant};

/// Whole microseconds elapsed since `start`, saturating.
pub fn micros_since(start: Instant) -> u64 {
    micros(start.elapsed())
}

/// Whole microseconds in `d`, saturating.
fn micros(d: Duration) -> u64 {
    d.as_micros().try_into().unwrap_or(u64::MAX)
}

/// Pipeline stages shared across the stack.
///
/// Every timed region in foxq is attributed to exactly one of these.
/// The order is the order stages run in for a typical request; renderers
/// preserve it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Query text to AST (`foxq_xquery::parse_query`).
    Parse,
    /// AST to macro forest transducer (`foxq_core::translate`).
    Translate,
    /// MFT rewriting: inlining, dead-state elimination (`foxq_core::opt`).
    Optimize,
    /// Prepared-query cache probe, including waiting on the cache lock.
    CacheLookup,
    /// Engine event loop over a parsed XML stream.
    Execute,
    /// Engine event loop over a stored event tape (corpus path).
    TapeReplay,
    /// Forward seeks within a tape, over subtrees no lane can use.
    TapeSeek,
    /// Merging and advancing posting lists on the index read path.
    IndexProbe,
    /// Output forest to response bytes.
    Serialize,
    /// Request start to the first irrevocable emission flush on a
    /// streamed response — the engine-side half of TTFB.
    FirstFlush,
}

impl Stage {
    /// Every stage, in pipeline order.
    pub const ALL: [Stage; 10] = [
        Stage::Parse,
        Stage::Translate,
        Stage::Optimize,
        Stage::CacheLookup,
        Stage::Execute,
        Stage::TapeReplay,
        Stage::TapeSeek,
        Stage::IndexProbe,
        Stage::Serialize,
        Stage::FirstFlush,
    ];

    /// Number of stages (array dimension for per-stage storage).
    pub const COUNT: usize = Self::ALL.len();

    /// Stable lowercase name used in metric labels, Server-Timing
    /// entries, and the CLI stage table.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Parse => "parse",
            Stage::Translate => "translate",
            Stage::Optimize => "optimize",
            Stage::CacheLookup => "cache_lookup",
            Stage::Execute => "execute",
            Stage::TapeReplay => "tape_replay",
            Stage::TapeSeek => "tape_seek",
            Stage::IndexProbe => "index_probe",
            Stage::Serialize => "serialize",
            Stage::FirstFlush => "first_flush",
        }
    }

    /// Index into per-stage arrays: the declaration order, which is the
    /// order of [`Stage::ALL`] (a test holds the two together).
    pub fn idx(self) -> usize {
        self as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_indices_roundtrip() {
        for (i, stage) in Stage::ALL.iter().enumerate() {
            assert_eq!(stage.idx(), i);
        }
        assert_eq!(Stage::COUNT, Stage::ALL.len());
    }

    #[test]
    fn stage_names_unique() {
        let mut names: Vec<_> = Stage::ALL.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Stage::COUNT);
    }
}
