//! Process-wide serving metrics, rendered in the Prometheus text format.
//!
//! Plain `AtomicU64` counters and [`foxq_obs::Histogram`]s behind an
//! `Arc`: workers record with `Relaxed` ordering (monotone counters need
//! no synchronization beyond atomicity), `GET /metrics` renders a
//! snapshot. Cache statistics are not duplicated here — the render pulls
//! them live from the shared [`foxq_service::SharedQueryCache`] so the
//! two views can never drift.

use foxq_obs::{Histogram, Stage};
use foxq_service::CacheStats;
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
    const ALL: [Endpoint; 8] = [
        Endpoint::Healthz,
        Endpoint::Metrics,
        Endpoint::Query,
        Endpoint::Batch,
        Endpoint::Corpus,
        Endpoint::Shutdown,
        Endpoint::Debug,
        Endpoint::Other,
    ];

    pub(crate) fn name(self) -> &'static str {
        match self {
            Endpoint::Healthz => "healthz",
            Endpoint::Metrics => "metrics",
            Endpoint::Query => "query",
            Endpoint::Batch => "batch",
            Endpoint::Corpus => "corpus",
            Endpoint::Shutdown => "shutdown",
            Endpoint::Debug => "debug",
            Endpoint::Other => "other",
        }
    }

    fn idx(self) -> usize {
        Self::ALL.iter().position(|e| *e == self).unwrap()
    }
}

/// Status codes the server can emit (see [`crate::http::reason`]).
const CODES: [u16; 9] = [200, 400, 404, 405, 408, 413, 422, 500, 503];

/// Live corpus gauges spliced into a render (see [`Metrics::render`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct CorpusGauges {
    /// Stored documents.
    pub docs: u64,
    /// Stored tapes still on the legacy FET1 format.
    pub fet1_tapes: u64,
    /// Stored tapes on the current FET2 format.
    pub fet2_tapes: u64,
}

/// Counter registry shared by every worker.
pub struct Metrics {
    /// Connections accepted over the process lifetime.
    pub connections_total: AtomicU64,
    /// Connections currently being served (gauge).
    pub connections_active: AtomicU64,
    /// Connections draining in the Linger phase (gauge).
    pub connections_lingering: AtomicU64,
    /// Requests dispatched to workers but not yet picked up (gauge).
    pub worker_queue_depth: AtomicU64,
    /// Times the accept gate closed because `max_connections` was reached.
    pub accept_gate_rejections_total: AtomicU64,
    /// Requests received, by endpoint.
    requests: [AtomicU64; 8],
    /// Responses sent, by status code.
    responses: [AtomicU64; 9],
    /// Error responses sent, by status class (4xx / 5xx).
    http_errors_4xx: AtomicU64,
    http_errors_5xx: AtomicU64,
    /// Request bytes delivered to request processing (heads and bodies; a
    /// lingering close's discarded tail is excluded by design).
    pub bytes_in_total: AtomicU64,
    /// Response bytes written to sockets.
    pub bytes_out_total: AtomicU64,
    /// XML input events parsed across /query and /batch runs.
    pub input_events_total: AtomicU64,
    /// Output events produced by successful lanes.
    pub output_events_total: AtomicU64,
    /// Query lanes run (one per query per request).
    pub lane_runs_total: AtomicU64,
    /// Lanes that ended in a per-lane error (fuel, output budget).
    pub lane_failures_total: AtomicU64,
    /// Input events withheld from lanes: by the shared label prefilter, and
    /// inside subtrees every lane was dead in (tape seek, XML skim).
    pub prefilter_skipped_total: AtomicU64,
    /// Tape bytes seeked over (never decoded) on corpus query runs.
    pub seek_skipped_bytes_total: AtomicU64,
    /// Tape bytes the FET2 label skip index jumped over on corpus query
    /// runs (no frame inside was decoded).
    pub index_skipped_bytes_total: AtomicU64,
    /// Responses streamed with chunked transfer-encoding (`?stream=1`).
    pub streamed_responses_total: AtomicU64,
    /// Queries answered from a stored tape (`/query?doc=` hits).
    pub corpus_hits_total: AtomicU64,
    /// Documents ingested into the corpus (`POST /corpus/{id}`).
    pub corpus_ingests_total: AtomicU64,
    /// Head-completion to full-flush latency, by endpoint.
    request_latency: [Histogram; 8],
    /// Head-completion to first response byte on the socket.
    pub ttfb: Histogram,
    /// Per-request engine time, by pipeline stage.
    engine_stage: [Histogram; Stage::COUNT],
    /// Input events delivered before the first irrevocable emission flush
    /// (streamed query runs) — how much document a client waits through
    /// before the first byte can exist.
    pub first_emit_events: Histogram,
    /// Irrevocable emission flushes per streamed query run.
    pub emit_flushes_per_request: Histogram,
    /// Per-request peak of live expression nodes (query runs).
    pub live_nodes_peak: Histogram,
    /// Per-request peak of approximate live expression bytes.
    pub live_bytes_peak: Histogram,
    /// Allocator bytes billed to the worker thread per /query request.
    pub alloc_bytes_per_request: Histogram,
    /// Reactor busy time per wakeup (everything between two epoll waits).
    pub loop_lag: Histogram,
    /// Time blocked inside `epoll_wait` per reactor cycle.
    pub epoll_wait: Histogram,
}

impl Default for Metrics {
    fn default() -> Metrics {
        Metrics {
            connections_total: AtomicU64::new(0),
            connections_active: AtomicU64::new(0),
            connections_lingering: AtomicU64::new(0),
            worker_queue_depth: AtomicU64::new(0),
            accept_gate_rejections_total: AtomicU64::new(0),
            requests: Default::default(),
            responses: Default::default(),
            http_errors_4xx: AtomicU64::new(0),
            http_errors_5xx: AtomicU64::new(0),
            bytes_in_total: AtomicU64::new(0),
            bytes_out_total: AtomicU64::new(0),
            input_events_total: AtomicU64::new(0),
            output_events_total: AtomicU64::new(0),
            lane_runs_total: AtomicU64::new(0),
            lane_failures_total: AtomicU64::new(0),
            prefilter_skipped_total: AtomicU64::new(0),
            seek_skipped_bytes_total: AtomicU64::new(0),
            index_skipped_bytes_total: AtomicU64::new(0),
            streamed_responses_total: AtomicU64::new(0),
            corpus_hits_total: AtomicU64::new(0),
            corpus_ingests_total: AtomicU64::new(0),
            request_latency: std::array::from_fn(|_| Histogram::latency()),
            ttfb: Histogram::latency(),
            engine_stage: std::array::from_fn(|_| Histogram::latency()),
            first_emit_events: Histogram::nodes(),
            emit_flushes_per_request: Histogram::nodes(),
            live_nodes_peak: Histogram::nodes(),
            live_bytes_peak: Histogram::bytes(),
            alloc_bytes_per_request: Histogram::bytes(),
            loop_lag: Histogram::reactor(),
            epoll_wait: Histogram::reactor(),
        }
    }
}

/// Add to a counter (relaxed; all metrics are monotone or gauge-like).
pub fn add(counter: &AtomicU64, n: u64) {
    counter.fetch_add(n, Ordering::Relaxed);
}

/// Decrement a gauge.
pub fn sub(counter: &AtomicU64, n: u64) {
    counter.fetch_sub(n, Ordering::Relaxed);
}

fn get(counter: &AtomicU64) -> u64 {
    counter.load(Ordering::Relaxed)
}

impl Metrics {
    pub fn record_request(&self, endpoint: Endpoint) {
        add(&self.requests[endpoint.idx()], 1);
    }

    pub fn record_response(&self, status: u16) {
        if let Some(i) = CODES.iter().position(|&c| c == status) {
            add(&self.responses[i], 1);
        }
        match status {
            400..=499 => add(&self.http_errors_4xx, 1),
            500..=599 => add(&self.http_errors_5xx, 1),
            _ => {}
        }
    }

    /// Requests seen on one endpoint (used by tests).
    pub fn requests(&self, endpoint: Endpoint) -> u64 {
        get(&self.requests[endpoint.idx()])
    }

    /// Responses sent with one status code (used by tests).
    pub fn responses(&self, status: u16) -> u64 {
        CODES
            .iter()
            .position(|&c| c == status)
            .map_or(0, |i| get(&self.responses[i]))
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
    /// and per-tape-version gauges.
    pub fn render(&self, cache: CacheStats, corpus: Option<CorpusGauges>) -> String {
        let mut out = String::with_capacity(8192);
        let mut counter = |name: &str, help: &str, value: u64| {
            scalar(&mut out, name, help, "counter", value);
        };
        counter(
            "foxq_connections_total",
            "Connections accepted.",
            get(&self.connections_total),
        );
        counter(
            "foxq_bytes_in_total",
            "Request bytes delivered to request processing.",
            get(&self.bytes_in_total),
        );
        counter(
            "foxq_bytes_out_total",
            "Response bytes written to sockets.",
            get(&self.bytes_out_total),
        );
        counter(
            "foxq_accept_gate_rejections_total",
            "Times the accept gate closed at max_connections.",
            get(&self.accept_gate_rejections_total),
        );
        counter(
            "foxq_input_events_total",
            "XML input events parsed across query runs.",
            get(&self.input_events_total),
        );
        counter(
            "foxq_output_events_total",
            "Output events produced by successful lanes.",
            get(&self.output_events_total),
        );
        counter(
            "foxq_lane_runs_total",
            "Query lanes run (one per query per request).",
            get(&self.lane_runs_total),
        );
        counter(
            "foxq_lane_failures_total",
            "Lanes that ended in a per-lane error.",
            get(&self.lane_failures_total),
        );
        counter(
            "foxq_prefilter_skipped_events_total",
            "Input events withheld from lanes: by the label prefilter, or skipped (tape seek, XML skim) where every lane was dead.",
            get(&self.prefilter_skipped_total),
        );
        counter(
            "foxq_seek_skipped_bytes_total",
            "Tape bytes seeked over (never decoded) on corpus query runs.",
            get(&self.seek_skipped_bytes_total),
        );
        counter(
            "foxq_index_skipped_bytes_total",
            "Tape bytes the label skip index jumped over on corpus query runs.",
            get(&self.index_skipped_bytes_total),
        );
        counter(
            "foxq_streamed_responses_total",
            "Responses streamed with chunked transfer-encoding.",
            get(&self.streamed_responses_total),
        );
        counter(
            "foxq_corpus_hits_total",
            "Queries answered from a stored tape (/query?doc=).",
            get(&self.corpus_hits_total),
        );
        counter(
            "foxq_corpus_ingests_total",
            "Documents ingested into the corpus.",
            get(&self.corpus_ingests_total),
        );
        counter(
            "foxq_query_cache_hits_total",
            "Query cache lookups answered without compiling.",
            cache.hits,
        );
        counter(
            "foxq_query_cache_misses_total",
            "Query cache lookups that required a compile.",
            cache.misses,
        );
        counter(
            "foxq_query_cache_compiles_total",
            "Successful compilations performed by the cache.",
            cache.compiles,
        );
        counter(
            "foxq_query_cache_evictions_total",
            "Cache entries evicted.",
            cache.evictions,
        );
        scalar(
            &mut out,
            "foxq_connections_active",
            "Connections currently being served.",
            "gauge",
            get(&self.connections_active),
        );
        scalar(
            &mut out,
            "foxq_connections_lingering",
            "Connections draining in the Linger phase.",
            "gauge",
            get(&self.connections_lingering),
        );
        scalar(
            &mut out,
            "foxq_worker_queue_depth",
            "Requests dispatched to workers but not yet picked up.",
            "gauge",
            get(&self.worker_queue_depth),
        );
        if let Some(corpus) = corpus {
            scalar(
                &mut out,
                "foxq_corpus_docs",
                "Documents currently stored in the corpus.",
                "gauge",
                corpus.docs,
            );
            out.push_str(
                "# HELP foxq_corpus_tapes Stored tapes, by format version.\n\
                 # TYPE foxq_corpus_tapes gauge\n",
            );
            out.push_str(&format!(
                "foxq_corpus_tapes{{version=\"1\"}} {}\n",
                corpus.fet1_tapes
            ));
            out.push_str(&format!(
                "foxq_corpus_tapes{{version=\"2\"}} {}\n",
                corpus.fet2_tapes
            ));
        }

        out.push_str("# HELP foxq_http_errors_total Error responses sent, by status class.\n");
        out.push_str("# TYPE foxq_http_errors_total counter\n");
        out.push_str(&format!(
            "foxq_http_errors_total{{class=\"4xx\"}} {}\n",
            get(&self.http_errors_4xx)
        ));
        out.push_str(&format!(
            "foxq_http_errors_total{{class=\"5xx\"}} {}\n",
            get(&self.http_errors_5xx)
        ));
        out.push_str("# HELP foxq_requests_total Requests received, by endpoint.\n");
        out.push_str("# TYPE foxq_requests_total counter\n");
        for e in Endpoint::ALL {
            out.push_str(&format!(
                "foxq_requests_total{{endpoint=\"{}\"}} {}\n",
                e.name(),
                get(&self.requests[e.idx()])
            ));
        }
        out.push_str("# HELP foxq_responses_total Responses sent, by status code.\n");
        out.push_str("# TYPE foxq_responses_total counter\n");
        for (i, code) in CODES.iter().enumerate() {
            out.push_str(&format!(
                "foxq_responses_total{{code=\"{code}\"}} {}\n",
                get(&self.responses[i])
            ));
        }

        out.push_str(
            "# HELP foxq_request_latency_seconds Head-completion to full response flush.\n",
        );
        out.push_str("# TYPE foxq_request_latency_seconds histogram\n");
        for e in Endpoint::ALL {
            self.request_latency[e.idx()].render_into(
                &mut out,
                "foxq_request_latency_seconds",
                &format!("endpoint=\"{}\"", e.name()),
            );
        }
        out.push_str("# HELP foxq_ttfb_seconds Head-completion to first response byte.\n");
        out.push_str("# TYPE foxq_ttfb_seconds histogram\n");
        self.ttfb.render_into(&mut out, "foxq_ttfb_seconds", "");
        out.push_str("# HELP foxq_engine_stage_seconds Per-request engine time, by stage.\n");
        out.push_str("# TYPE foxq_engine_stage_seconds histogram\n");
        for s in Stage::ALL {
            self.engine_stage[s.idx()].render_into(
                &mut out,
                "foxq_engine_stage_seconds",
                &format!("stage=\"{}\"", s.name()),
            );
        }
        out.push_str(
            "# HELP foxq_first_emit_events Input events before the first \
             irrevocable emission flush on streamed query runs.\n\
             # TYPE foxq_first_emit_events histogram\n",
        );
        self.first_emit_events
            .render_values_into(&mut out, "foxq_first_emit_events", "");
        out.push_str(
            "# HELP foxq_emit_flushes_per_request Irrevocable emission flushes \
             per streamed query run.\n\
             # TYPE foxq_emit_flushes_per_request histogram\n",
        );
        self.emit_flushes_per_request.render_values_into(
            &mut out,
            "foxq_emit_flushes_per_request",
            "",
        );
        out.push_str(
            "# HELP foxq_live_nodes_peak Per-request peak of live expression nodes.\n\
             # TYPE foxq_live_nodes_peak histogram\n",
        );
        self.live_nodes_peak
            .render_values_into(&mut out, "foxq_live_nodes_peak", "");
        out.push_str(
            "# HELP foxq_live_bytes_peak Per-request peak of approximate live bytes.\n\
             # TYPE foxq_live_bytes_peak histogram\n",
        );
        self.live_bytes_peak
            .render_values_into(&mut out, "foxq_live_bytes_peak", "");
        out.push_str(
            "# HELP foxq_alloc_bytes_per_request Allocator bytes billed to the \
             worker thread per query request.\n\
             # TYPE foxq_alloc_bytes_per_request histogram\n",
        );
        self.alloc_bytes_per_request.render_values_into(
            &mut out,
            "foxq_alloc_bytes_per_request",
            "",
        );

        let alloc = foxq_obs::alloc_snapshot();
        counter2(
            &mut out,
            "foxq_alloc_allocations_total",
            "Heap allocations observed by the counting allocator.",
            alloc.allocations,
        );
        counter2(
            &mut out,
            "foxq_alloc_frees_total",
            "Heap frees observed by the counting allocator.",
            alloc.deallocations,
        );
        scalar(
            &mut out,
            "foxq_alloc_live_bytes",
            "Heap bytes currently live per the counting allocator.",
            "gauge",
            alloc.live_bytes,
        );
        scalar(
            &mut out,
            "foxq_alloc_peak_bytes",
            "High-water mark of live heap bytes.",
            "gauge",
            alloc.peak_live_bytes,
        );
        if let Some(rss) = foxq_obs::read_rss_bytes() {
            scalar(
                &mut out,
                "foxq_process_rss_bytes",
                "Resident set size from /proc/self/statm.",
                "gauge",
                rss,
            );
        }

        out.push_str("# HELP foxq_reactor_loop_lag_seconds Reactor busy time per wakeup.\n");
        out.push_str("# TYPE foxq_reactor_loop_lag_seconds histogram\n");
        self.loop_lag
            .render_into(&mut out, "foxq_reactor_loop_lag_seconds", "");
        out.push_str("# HELP foxq_reactor_epoll_wait_seconds Time blocked in epoll_wait.\n");
        out.push_str("# TYPE foxq_reactor_epoll_wait_seconds histogram\n");
        self.epoll_wait
            .render_into(&mut out, "foxq_reactor_epoll_wait_seconds", "");
        out
    }
}

fn counter2(out: &mut String, name: &str, help: &str, value: u64) {
    scalar(out, name, help, "counter", value);
}

fn scalar(out: &mut String, name: &str, help: &str, kind: &str, value: u64) {
    out.push_str(&format!(
        "# HELP {name} {help}\n# TYPE {name} {kind}\n{name} {value}\n"
    ));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_contains_every_family() {
        let m = Metrics::default();
        m.record_request(Endpoint::Query);
        m.record_response(200);
        add(&m.bytes_in_total, 42);
        let cache = CacheStats {
            hits: 7,
            misses: 2,
            compiles: 2,
            evictions: 0,
        };
        let text = m.render(
            cache,
            Some(CorpusGauges {
                docs: 3,
                fet1_tapes: 1,
                fet2_tapes: 2,
            }),
        );
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
        assert!(text.contains("foxq_corpus_docs 3"));
        assert!(text.contains("foxq_corpus_tapes{version=\"1\"} 1"));
        assert!(text.contains("foxq_corpus_tapes{version=\"2\"} 2"));
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
}
