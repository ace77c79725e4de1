//! The six workloads. Pure data: `gen`, `e2e` and `layers` all read this
//! table, so the three processes agree on documents, queries and op counts
//! without sharing any state but the work directory.

use crate::affinity::Placement;

/// How a workload reaches the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `foxq run <q> doc.xml`, one process per op.
    CliXml,
    /// `foxq run <q> doc.fet` on the document stored by `foxq store add`.
    CliTape,
    /// `POST /query?q=…` to a `foxq serve` child, buffered response.
    Http,
    /// The same with `&stream=1`: chunked response, trailers.
    HttpStream,
}

impl Kind {
    pub fn is_http(self) -> bool {
        matches!(self, Kind::Http | Kind::HttpStream)
    }
}

#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`: what the workload exercises and what
    /// it bypasses.
    pub why: &'static str,
    pub kind: Kind,
    /// Target size of the XMark document.
    pub doc_bytes: usize,
    /// Query names (see [`query_file`]); a round runs each once, in order.
    pub queries: &'static [&'static str],
    /// Ops in one timed round: one per query for the CLI workloads, a fixed
    /// request count for the HTTP ones. Rounds are the unit every
    /// end-to-end median is taken over.
    pub ops_per_round: usize,
    /// Warm-up ops per (query, document) pair, part of `setup_s`.
    pub warmup_ops: usize,
    /// Where the program runs relative to the harness (see `affinity.rs`).
    pub placement: Placement,
}

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "cli-select",
        why: "Big XML in, tiny output (paper Fig. 4a-f): tokenizer and rule dispatch dominate; \
              serializer and output arena are bypassed.",
        kind: Kind::CliXml,
        doc_bytes: 2 << 20,
        queries: &["Q1", "Q2", "Q4", "Q16", "Q17"],
        ops_per_round: 5,
        warmup_ops: 1,
        placement: Placement::Apart,
    },
    Workload {
        name: "cli-transform",
        why: "Output-heavy and fully buffering queries (Fig. 4g,i): expansion, output arena and \
              serializer dominate; carries the peak-memory claim.",
        kind: Kind::CliXml,
        doc_bytes: 2 << 20,
        queries: &["copy", "Q13", "deepdup", "double"],
        ops_per_round: 4,
        warmup_ops: 1,
        placement: Placement::Apart,
    },
    Workload {
        name: "cli-corpus",
        why: "The same document replayed from a stored FET2 tape: bypasses the tokenizer, so \
              store open/index/scan is the work; set-up is foxq store add.",
        kind: Kind::CliTape,
        doc_bytes: 2 << 20,
        queries: &["Q1", "Q2", "Q4", "Q16", "Q17", "Q13"],
        ops_per_round: 6,
        warmup_ops: 1,
        placement: Placement::Apart,
    },
    Workload {
        name: "http-small",
        why: "Keep-alive POST /query with a 3 KB body: HTTP parse, reactor hand-off, cache hit \
              and syscalls dominate; engine work is bypassed.",
        kind: Kind::Http,
        doc_bytes: 3 << 10,
        queries: &["names"],
        ops_per_round: 4000,
        warmup_ops: 200,
        placement: Placement::Together,
    },
    Workload {
        name: "http-buffered",
        why: "POST /query Q13 with a 1 MiB body, buffered response: the server's body-streaming \
              path through tokenizer and engine; twin of http-stream.",
        kind: Kind::Http,
        doc_bytes: 1 << 20,
        queries: &["Q13"],
        ops_per_round: 20,
        warmup_ops: 5,
        placement: Placement::Apart,
    },
    Workload {
        name: "http-stream",
        why: "The same request with stream=1: chunked earliest-emission response, so TTFB and \
              the cost of per-event flush and per-chunk writes show.",
        kind: Kind::HttpStream,
        doc_bytes: 1 << 20,
        queries: &["Q13"],
        ops_per_round: 20,
        warmup_ops: 5,
        placement: Placement::Apart,
    },
];

pub fn find(name: &str) -> Result<&'static Workload, String> {
    WORKLOADS.iter().find(|w| w.name == name).ok_or_else(|| {
        let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; one of {}", names.join(", "))
    })
}

/// File under `benchmark/queries/` holding a query.
pub fn query_file(name: &str) -> String {
    match name.strip_prefix('Q').and_then(|n| n.parse::<u32>().ok()) {
        Some(n) => format!("query{n:02}.xq"),
        None => format!("{name}.xq"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_files() {
        assert_eq!(query_file("Q1"), "query01.xq");
        assert_eq!(query_file("Q13"), "query13.xq");
        assert_eq!(query_file("copy"), "copy.xq");
    }

    #[test]
    fn workload_names_are_unique_and_queries_known() {
        for (i, w) in WORKLOADS.iter().enumerate() {
            assert!(WORKLOADS[i + 1..].iter().all(|o| o.name != w.name));
            for q in w.queries {
                let path = format!("{}/queries/{}", env!("CARGO_MANIFEST_DIR"), query_file(q));
                assert!(std::path::Path::new(&path).is_file(), "{path}");
            }
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(find(w.name).is_ok());
        }
        assert!(find("nope").is_err());
    }
}
