//! Process-wide serving metrics, rendered in the Prometheus text format.
//!
//! Plain `AtomicU64` counters and [`foxq_obs::Histogram`]s behind an
//! `Arc`: workers record with `Relaxed` ordering (monotone counters need
//! no synchronization beyond atomicity), `GET /metrics` renders a
//! snapshot. Every family is declared once, as a row — the server's own
//! scalars in `SCALARS`, values read live at render time in `LIVE`,
//! the per-run facts in [`foxq_service::FACTS`] — and rendering is a loop
//! over the rows. Cache statistics are not duplicated here — the render
//! pulls them live from the shared [`foxq_service::SharedQueryCache`] so
//! the two views can never drift.

use crate::http::STATUSES;
use foxq_obs::{AllocSnapshot, Family, Histogram, Kind, Stage};
use foxq_service::{CacheStats, ReplyKind, RunReport, FACTS};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};

/// The endpoints broken out in `foxq_requests_total`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    Healthz,
    Metrics,
    Query,
    Batch,
    /// `GET /corpus` (manifest) and `POST /corpus/{id}` (ingest).
    Corpus,
    Shutdown,
    /// `GET /debug/requests` (the slow-query ring).
    Debug,
    Other,
}

impl Endpoint {
    /// Every endpoint with its label, in declaration order.
    const ALL: [(Endpoint, &'static str); 8] = [
        (Endpoint::Healthz, "healthz"),
        (Endpoint::Metrics, "metrics"),
        (Endpoint::Query, "query"),
        (Endpoint::Batch, "batch"),
        (Endpoint::Corpus, "corpus"),
        (Endpoint::Shutdown, "shutdown"),
        (Endpoint::Debug, "debug"),
        (Endpoint::Other, "other"),
    ];

    pub(crate) fn name(self) -> &'static str {
        Self::ALL[self.idx()].1
    }

    fn idx(self) -> usize {
        self as usize
    }
}

// `Endpoint::idx` is the declaration order, so `ALL` must list it.
const _: () = {
    let mut i = 0;
    while i < Endpoint::ALL.len() {
        assert!(
            Endpoint::ALL[i].0 as usize == i,
            "Endpoint::ALL out of declaration order"
        );
        i += 1;
    }
};

/// Declares [`Scalar`] and `SCALARS` from one list: every scalar the
/// server keeps itself, with its family.
macro_rules! scalars {
    ($($scalar:ident: $kind:ident($name:literal, $help:literal),)*) => {
        /// A scalar the server keeps itself.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Scalar {
            $($scalar,)*
        }

        /// Every [`Scalar`]'s family, in declaration order.
        const SCALARS: &[Family] = &[$(Family::$kind($name, $help),)*];
    };
}

scalars! {
    Connections: counter("foxq_connections_total", "Connections accepted."),
    // Heads and bodies; a lingering close's discarded tail is excluded by
    // design.
    BytesIn: counter("foxq_bytes_in_total", "Request bytes delivered to request processing."),
    BytesOut: counter("foxq_bytes_out_total", "Response bytes written to sockets."),
    AcceptGateRejections: counter("foxq_accept_gate_rejections_total",
        "Times the accept gate closed at max_connections."),
    // Across /query and /batch runs, and corpus ingests.
    InputEvents: counter("foxq_input_events_total", "XML input events parsed across query runs."),
    LaneRuns: counter("foxq_lane_runs_total", "Query lanes run (one per query per request)."),
    // Fuel, output budget, a client that hung up mid-stream.
    LaneFailures: counter("foxq_lane_failures_total", "Lanes that ended in a per-lane error."),
    StreamedResponses: counter("foxq_streamed_responses_total",
        "Responses streamed with chunked transfer-encoding."),
    CorpusHits: counter("foxq_corpus_hits_total",
        "Queries answered from a stored tape (/query?doc=)."),
    CorpusIngests: counter("foxq_corpus_ingests_total", "Documents ingested into the corpus."),
    ConnectionsActive: gauge("foxq_connections_active", "Connections currently being served."),
    ConnectionsLingering: gauge("foxq_connections_lingering",
        "Connections draining in the Linger phase."),
    WorkerQueueDepth: gauge("foxq_worker_queue_depth",
        "Requests dispatched to workers but not yet picked up."),
}

/// What a render reads live instead of keeping.
struct Live {
    cache: CacheStats,
    /// Stored tapes by format version, one per document.
    tapes: Option<[u64; 3]>,
    alloc: AllocSnapshot,
    rss: Option<u64>,
}

/// How a render reads a live value; `None` leaves the family out (no
/// corpus configured, no `/proc`).
type LiveValue = fn(&Live) -> Option<u64>;

/// Families whose value is read at render time.
#[rustfmt::skip]
const LIVE: [(Family, LiveValue); 10] = [
    (Family::counter("foxq_query_cache_hits_total",
        "Query cache lookups answered without compiling."), |l| Some(l.cache.hits)),
    (Family::counter("foxq_query_cache_misses_total",
        "Query cache lookups that required a compile."), |l| Some(l.cache.misses)),
    (Family::counter("foxq_query_cache_compiles_total",
        "Successful compilations performed by the cache."), |l| Some(l.cache.compiles)),
    (Family::counter("foxq_query_cache_evictions_total",
        "Cache entries evicted."), |l| Some(l.cache.evictions)),
    (Family::gauge("foxq_corpus_docs",
        "Documents currently stored in the corpus."), |l| l.tapes.map(|t| t.iter().sum())),
    (Family::counter("foxq_alloc_allocations_total",
        "Heap allocations observed by the counting allocator."), |l| Some(l.alloc.allocations)),
    (Family::counter("foxq_alloc_frees_total",
        "Heap frees observed by the counting allocator."), |l| Some(l.alloc.deallocations)),
    (Family::gauge("foxq_alloc_live_bytes",
        "Heap bytes currently live per the counting allocator."), |l| Some(l.alloc.live_bytes)),
    (Family::gauge("foxq_alloc_peak_bytes",
        "High-water mark of live heap bytes."), |l| Some(l.alloc.peak_live_bytes)),
    (Family::gauge("foxq_process_rss_bytes",
        "Resident set size from /proc/self/statm."), |l| l.rss),
];

const CORPUS_TAPES: Family = Family::gauge("foxq_corpus_tapes", "Stored tapes, by format version.");
const HTTP_ERRORS: Family = Family::counter(
    "foxq_http_errors_total",
    "Error responses sent, by status class.",
);
const REQUESTS: Family = Family::counter("foxq_requests_total", "Requests received, by endpoint.");
const RESPONSES: Family =
    Family::counter("foxq_responses_total", "Responses sent, by status code.");
const REQUEST_LATENCY: Family = Family::seconds(
    "foxq_request_latency_seconds",
    "Head-completion to full response flush.",
);
const TTFB: Family = Family::seconds(
    "foxq_ttfb_seconds",
    "Head-completion to first response byte.",
);
const ENGINE_STAGE: Family = Family::seconds(
    "foxq_engine_stage_seconds",
    "Per-request engine time, by stage.",
);
const LOOP_LAG: Family = Family::seconds(
    "foxq_reactor_loop_lag_seconds",
    "Reactor busy time per wakeup.",
);
const EPOLL_WAIT: Family = Family::seconds(
    "foxq_reactor_epoll_wait_seconds",
    "Time blocked in epoll_wait.",
);

/// Where a per-run fact's family is kept.
enum FactStore {
    Counter(AtomicU64),
    Values(Histogram),
}

/// Counter registry shared by every worker.
pub struct Metrics {
    /// Indexed by [`Scalar`].
    scalars: [AtomicU64; SCALARS.len()],
    /// Requests received, by endpoint.
    requests: [AtomicU64; Endpoint::ALL.len()],
    /// Responses sent, by status code.
    responses: [AtomicU64; STATUSES.len()],
    /// Error responses sent, by status class: 4xx, 5xx.
    http_errors: [AtomicU64; 2],
    /// Head-completion to full-flush latency, by endpoint.
    request_latency: [Histogram; Endpoint::ALL.len()],
    /// Head-completion to first response byte on the socket.
    pub ttfb: Histogram,
    /// Per-request engine time, by pipeline stage.
    engine_stage: [Histogram; Stage::COUNT],
    /// Indexed like [`FACTS`]; `None` for facts without a family.
    facts: [Option<FactStore>; FACTS.len()],
    /// Reactor busy time per wakeup (everything between two epoll waits).
    pub loop_lag: Histogram,
    /// Time blocked inside `epoll_wait` per reactor cycle.
    pub epoll_wait: Histogram,
}

impl Default for Metrics {
    fn default() -> Metrics {
        let fact = |i: usize| {
            FACTS[i].family.map(|family| match family.kind {
                Kind::Values(ladder) => FactStore::Values(Histogram::new(ladder)),
                _ => FactStore::Counter(AtomicU64::new(0)),
            })
        };
        Metrics {
            scalars: Default::default(),
            requests: Default::default(),
            responses: Default::default(),
            http_errors: Default::default(),
            request_latency: std::array::from_fn(|_| Histogram::latency()),
            ttfb: Histogram::latency(),
            engine_stage: std::array::from_fn(|_| Histogram::latency()),
            facts: std::array::from_fn(fact),
            loop_lag: Histogram::reactor(),
            epoll_wait: Histogram::reactor(),
        }
    }
}

fn bump(counter: &AtomicU64, n: u64) {
    counter.fetch_add(n, Ordering::Relaxed);
}

fn get(counter: &AtomicU64) -> u64 {
    counter.load(Ordering::Relaxed)
}

impl Metrics {
    /// Add to a scalar (relaxed; all metrics are monotone or gauge-like).
    pub fn add(&self, scalar: Scalar, n: u64) {
        bump(&self.scalars[scalar as usize], n);
    }

    /// Decrement a gauge.
    pub fn sub(&self, scalar: Scalar, n: u64) {
        self.scalars[scalar as usize].fetch_sub(n, Ordering::Relaxed);
    }

    pub fn record_request(&self, endpoint: Endpoint) {
        bump(&self.requests[endpoint.idx()], 1);
    }

    pub fn record_response(&self, status: u16) {
        if let Some(i) = STATUSES.iter().position(|&(c, _)| c == status) {
            bump(&self.responses[i], 1);
        }
        match status {
            400..=499 => bump(&self.http_errors[0], 1),
            500..=599 => bump(&self.http_errors[1], 1),
            _ => {}
        }
    }

    /// Record one successful lane's run, answered in a reply of `kind`:
    /// every fact with a family, where the reply carries it.
    pub fn record_run(&self, report: &RunReport, kind: ReplyKind) {
        for (fact, store) in FACTS.iter().zip(&self.facts) {
            let carried = fact.field.is_none_or(|(_, on)| kind.carries(on));
            let Some(store) = store.as_ref().filter(|_| carried) else {
                continue;
            };
            match (store, (fact.value)(report)) {
                (FactStore::Counter(counter), Some(value)) => bump(counter, value),
                (FactStore::Values(histogram), Some(value)) => histogram.observe_value(value),
                (_, None) => {}
            }
        }
        if kind.streamed {
            self.add(Scalar::StreamedResponses, 1);
        }
        if kind.doc {
            self.add(Scalar::CorpusHits, 1);
        }
    }

    /// Requests seen on one endpoint (used by tests).
    pub fn requests(&self, endpoint: Endpoint) -> u64 {
        get(&self.requests[endpoint.idx()])
    }

    /// The request-latency histogram of one endpoint.
    pub fn request_latency(&self, endpoint: Endpoint) -> &Histogram {
        &self.request_latency[endpoint.idx()]
    }

    /// The engine-time histogram of one pipeline stage.
    pub fn engine_stage(&self, stage: Stage) -> &Histogram {
        &self.engine_stage[stage.idx()]
    }

    /// Render the Prometheus text exposition, splicing in the query cache's
    /// live counters and (when a corpus is configured) the stored-document
    /// and per-tape-version gauges from its tapes by format version (FET1,
    /// FET2, FET3).
    pub fn render(&self, cache: CacheStats, tapes: Option<[u64; 3]>) -> String {
        let mut out = String::with_capacity(8192);
        for (family, value) in SCALARS.iter().zip(&self.scalars) {
            family.render_scalar(&mut out, get(value));
        }
        let live = Live {
            cache,
            tapes,
            alloc: foxq_obs::alloc_snapshot(),
            rss: foxq_obs::read_rss_bytes(),
        };
        for (family, read) in &LIVE {
            if let Some(value) = read(&live) {
                family.render_scalar(&mut out, value);
            }
        }
        for (fact, store) in FACTS.iter().zip(&self.facts) {
            let (Some(family), Some(store)) = (fact.family, store) else {
                continue;
            };
            match store {
                FactStore::Counter(counter) => family.render_scalar(&mut out, get(counter)),
                FactStore::Values(histogram) => {
                    family.describe(&mut out);
                    histogram.render_values_into(&mut out, family.name, "");
                }
            }
        }

        if let Some(tapes) = tapes {
            labeled(&mut out, &CORPUS_TAPES, "version", (1..=3).zip(tapes));
        }
        let errors = ["4xx", "5xx"].iter().zip(&self.http_errors);
        labeled(
            &mut out,
            &HTTP_ERRORS,
            "class",
            errors.map(|(c, n)| (c, get(n))),
        );
        let requests = Endpoint::ALL.iter().zip(&self.requests);
        labeled(
            &mut out,
            &REQUESTS,
            "endpoint",
            requests.map(|((_, e), n)| (e, get(n))),
        );
        let responses = STATUSES.iter().zip(&self.responses);
        labeled(
            &mut out,
            &RESPONSES,
            "code",
            responses.map(|((c, _), n)| (c, get(n))),
        );

        REQUEST_LATENCY.describe(&mut out);
        for ((_, endpoint), histogram) in Endpoint::ALL.iter().zip(&self.request_latency) {
            let labels = format!("endpoint=\"{endpoint}\"");
            histogram.render_into(&mut out, REQUEST_LATENCY.name, &labels);
        }
        TTFB.describe(&mut out);
        self.ttfb.render_into(&mut out, TTFB.name, "");
        ENGINE_STAGE.describe(&mut out);
        for (stage, histogram) in Stage::ALL.iter().zip(&self.engine_stage) {
            let labels = format!("stage=\"{}\"", stage.name());
            histogram.render_into(&mut out, ENGINE_STAGE.name, &labels);
        }
        LOOP_LAG.describe(&mut out);
        self.loop_lag.render_into(&mut out, LOOP_LAG.name, "");
        EPOLL_WAIT.describe(&mut out);
        self.epoll_wait.render_into(&mut out, EPOLL_WAIT.name, "");
        out
    }
}

/// A family with one sample per value of its one label.
fn labeled<V: std::fmt::Display>(
    out: &mut String,
    family: &Family,
    label: &str,
    samples: impl IntoIterator<Item = (V, u64)>,
) {
    family.describe(out);
    for (value, n) in samples {
        let _ = writeln!(out, "{}{{{label}=\"{value}\"}} {n}", family.name);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_contains_every_family() {
        let m = Metrics::default();
        m.record_request(Endpoint::Query);
        m.record_response(200);
        m.add(Scalar::BytesIn, 42);
        let cache = CacheStats {
            hits: 7,
            misses: 2,
            compiles: 2,
            evictions: 0,
        };
        let text = m.render(cache, Some([1, 2, 3]));
        assert!(text.contains("foxq_requests_total{endpoint=\"query\"} 1"));
        assert!(text.contains("foxq_requests_total{endpoint=\"debug\"} 0"));
        assert!(text.contains("foxq_responses_total{code=\"200\"} 1"));
        assert!(text.contains("foxq_bytes_in_total 42"));
        assert!(text.contains("foxq_query_cache_hits_total 7"));
        assert!(text.contains("# TYPE foxq_connections_active gauge"));
        assert!(text.contains("# TYPE foxq_connections_lingering gauge"));
        assert!(text.contains("# TYPE foxq_worker_queue_depth gauge"));
        assert!(text.contains("foxq_accept_gate_rejections_total 0"));
        assert!(text.contains("foxq_seek_skipped_bytes_total 0"));
        assert!(text.contains("foxq_index_skipped_bytes_total 0"));
        assert!(text.contains("foxq_corpus_hits_total 0"));
        assert!(text.contains("foxq_corpus_docs 6"));
        assert!(text.contains("foxq_corpus_tapes{version=\"1\"} 1"));
        assert!(text.contains("foxq_corpus_tapes{version=\"2\"} 2"));
        assert!(text.contains("foxq_corpus_tapes{version=\"3\"} 3"));
        assert!(text.contains("# TYPE foxq_request_latency_seconds histogram"));
        assert!(text.contains("# TYPE foxq_engine_stage_seconds histogram"));
        assert!(text.contains("# TYPE foxq_reactor_loop_lag_seconds histogram"));
        assert!(text.contains("foxq_ttfb_seconds_count 0"));
        assert!(text.contains("foxq_streamed_responses_total 0"));
        assert!(text.contains("# TYPE foxq_first_emit_events histogram"));
        assert!(text.contains("foxq_first_emit_events_count 0"));
        assert!(text.contains("# TYPE foxq_emit_flushes_per_request histogram"));
        assert!(text.contains("# TYPE foxq_live_nodes_peak histogram"));
        assert!(text.contains("# TYPE foxq_live_bytes_peak histogram"));
        assert!(text.contains("foxq_alloc_bytes_per_request_count 0"));
        assert!(text.contains("# TYPE foxq_alloc_live_bytes gauge"));
        assert!(text.contains("# TYPE foxq_alloc_peak_bytes gauge"));
        assert!(text.contains("foxq_alloc_allocations_total"));
        #[cfg(target_os = "linux")]
        assert!(text.contains("foxq_process_rss_bytes"));
        // Without a corpus the gauge is absent but the counters remain.
        let text = m.render(cache, None);
        assert!(!text.contains("foxq_corpus_docs"));
        assert!(!text.contains("foxq_corpus_tapes"));
        assert!(text.contains("foxq_corpus_ingests_total 0"));
    }

    #[test]
    fn error_classes_split_in_rendering() {
        let m = Metrics::default();
        m.record_response(400);
        m.record_response(413);
        m.record_response(503);
        m.record_response(200);
        let text = m.render(CacheStats::default(), None);
        assert!(text.contains("foxq_http_errors_total{class=\"4xx\"} 2"));
        assert!(text.contains("foxq_http_errors_total{class=\"5xx\"} 1"));
    }

    #[test]
    fn latency_observations_land_in_the_right_family() {
        let m = Metrics::default();
        m.request_latency(Endpoint::Query).observe_micros(1_500);
        m.engine_stage(Stage::Execute).observe_micros(900);
        let text = m.render(CacheStats::default(), None);
        assert!(text.contains("foxq_request_latency_seconds_count{endpoint=\"query\"} 1"));
        assert!(text.contains("foxq_request_latency_seconds_count{endpoint=\"batch\"} 0"));
        assert!(text
            .contains("foxq_request_latency_seconds_bucket{endpoint=\"query\",le=\"0.0025\"} 1"));
        assert!(text.contains("foxq_engine_stage_seconds_count{stage=\"execute\"} 1"));
        assert!(text.contains("foxq_engine_stage_seconds_sum{stage=\"execute\"} 0.0009"));
    }

    #[test]
    fn a_run_is_recorded_where_its_reply_carries_the_facts() {
        let m = Metrics::default();
        let mut report = RunReport::default();
        report.stats.output_events = 5;
        report.stats.emit_flushes = 2;
        report.source.seek_skipped_bytes = 70;
        m.record_run(&report, ReplyKind::default());
        let text = m.render(CacheStats::default(), None);
        assert!(text.contains("foxq_output_events_total 5"));
        assert!(text.contains("foxq_live_nodes_peak_count 1"));
        assert!(text.contains("foxq_emit_flushes_per_request_count 0"));
        assert!(text.contains("foxq_seek_skipped_bytes_total 0"));
        assert!(text.contains("foxq_alloc_bytes_per_request_count 0"));
        report.alloc_bytes = Some(1 << 20);
        m.record_run(
            &report,
            ReplyKind {
                streamed: true,
                doc: true,
            },
        );
        let text = m.render(CacheStats::default(), None);
        assert!(text.contains("foxq_output_events_total 10"));
        assert!(text.contains("foxq_emit_flushes_per_request_count 1"));
        assert!(text.contains("foxq_seek_skipped_bytes_total 70"));
        assert!(text.contains("foxq_alloc_bytes_per_request_count 1"));
        assert!(text.contains("foxq_streamed_responses_total 1"));
        assert!(text.contains("foxq_corpus_hits_total 1"));
    }

    /// README.md documents every reply field and every `/metrics` family.
    #[test]
    fn the_readme_names_every_field_and_family() {
        let readme = include_str!("../../../README.md");
        let all = ReplyKind {
            streamed: true,
            doc: true,
        };
        for name in foxq_service::field_names(all) {
            assert!(readme.contains(&format!("`{name}`")), "README omits {name}");
        }
        let text = Metrics::default().render(CacheStats::default(), Some([0, 0, 0]));
        let families = text.lines().filter_map(|l| l.strip_prefix("# TYPE "));
        let mut count = 0;
        for family in families.map(|l| l.split(' ').next().unwrap()) {
            assert!(
                readme.contains(&format!("`{family}")),
                "README omits {family}"
            );
            count += 1;
        }
        assert!(count > 30, "only {count} families rendered");
    }
}
