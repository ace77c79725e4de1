//! Integration suite for `foxq-server`: a real listener on an ephemeral
//! port, driven by the crate's own minimal HTTP client.
//!
//! The acceptance properties of the subsystem:
//!
//! 1. **Correct under concurrency** — ≥ 100 concurrent connections, each
//!    with its own document, all answered, none mixed up.
//! 2. **Streaming, bounded input** — a request body is never buffered
//!    whole: an over-limit chunked upload is answered 413 after the server
//!    has consumed roughly `max_body_bytes`, not the full upload (observed
//!    through `foxq_bytes_in_total`).
//! 3. **Observable** — /metrics reflects cache hits for repeated query
//!    texts and its counters are monotone.
//! 4. **Graceful shutdown** — a drain signalled mid-request lets the
//!    in-flight request finish before the server exits.

use foxq::server::client::{self, Client};
use foxq::server::{Server, ServerConfig};
use foxq::service::{Limits, LIMITS};
use std::time::Duration;

const PERSON_NAMES: &str = "<o>{$input/site/people/person/name/text()}</o>";

fn doc(names: &[&str]) -> Vec<u8> {
    let mut xml = String::from("<site><regions><africa><item/></africa></regions><people>");
    for n in names {
        xml.push_str(&format!("<person><name>{n}</name></person>"));
    }
    xml.push_str("</people></site>");
    xml.into_bytes()
}

fn test_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 8,
        limits: Limits {
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            ..Limits::serving()
        },
        ..ServerConfig::default()
    }
}

fn start(config: ServerConfig) -> foxq::server::ServerHandle {
    Server::bind(config).unwrap().start().unwrap()
}

/// Scrape one counter value out of a Prometheus rendering.
fn metric(text: &str, name: &str) -> u64 {
    text.lines()
        .find(|l| l.starts_with(name) && l[name.len()..].starts_with(' '))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("metric {name} not found in:\n{text}"))
}

#[test]
fn health_metrics_and_unknown_routes() {
    let handle = start(test_config());
    let addr = handle.local_addr();

    let ok = client::get(addr, "/healthz").unwrap();
    assert_eq!((ok.status, ok.text().as_str()), (200, "ok\n"));

    let metrics = client::get(addr, "/metrics").unwrap();
    assert_eq!(metrics.status, 200);
    assert!(metrics
        .text()
        .contains("foxq_requests_total{endpoint=\"healthz\"} 1"));

    assert_eq!(client::get(addr, "/nope").unwrap().status, 404);
    // Known path, wrong method.
    assert_eq!(client::get(addr, "/query").unwrap().status, 405);
    assert_eq!(client::post(addr, "/healthz", b"x").unwrap().status, 405);

    handle.shutdown();
}

#[test]
fn query_round_trip_cache_hits_and_keep_alive() {
    let handle = start(test_config());
    let addr = handle.local_addr();
    let target = client::query_target(PERSON_NAMES);

    // One keep-alive connection, several exchanges.
    let mut c = Client::connect(addr).unwrap();
    let r1 = c
        .request("POST", &target, &[], &doc(&["Jim", "Li"]))
        .unwrap();
    assert_eq!((r1.status, r1.text().as_str()), (200, "<o>JimLi</o>"));
    // The regions decoy subtree was withheld by the label prefilter.
    let prefiltered: u64 = r1
        .header("x-foxq-prefiltered-events")
        .unwrap()
        .parse()
        .unwrap();
    assert!(prefiltered > 0, "prefilter did not engage");

    let r2 = c.request("POST", &target, &[], &doc(&["Ada"])).unwrap();
    assert_eq!((r2.status, r2.text().as_str()), (200, "<o>Ada</o>"));
    let r3 = c.request("GET", "/healthz", &[], &[]).unwrap();
    assert_eq!(r3.status, 200);

    // Same query text compiled once; the second run was a cache hit.
    let metrics = c.request("GET", "/metrics", &[], &[]).unwrap().text();
    assert_eq!(metric(&metrics, "foxq_query_cache_compiles_total"), 1);
    assert!(metric(&metrics, "foxq_query_cache_hits_total") >= 1);
    assert!(metric(&metrics, "foxq_prefilter_skipped_events_total") >= prefiltered);

    handle.shutdown();
}

#[test]
fn batch_answers_n_queries_in_one_pass() {
    let handle = start(test_config());
    let addr = handle.local_addr();
    let target = client::batch_target([PERSON_NAMES, "<n>{$input//item}</n>"]);

    let r = client::post(addr, &target, &doc(&["Jim"])).unwrap();
    assert_eq!(r.status, 200);
    assert_eq!(
        r.text(),
        "### query 0\n<o>Jim</o>\n### query 1\n<n><item></item></n>\n"
    );
    assert_eq!(r.header("x-foxq-failed-lanes"), Some("0"));
    // Two lanes, one parse: the input-events header counts the shared pass.
    let events: u64 = r.header("x-foxq-input-events").unwrap().parse().unwrap();
    let solo = client::post(addr, &client::query_target(PERSON_NAMES), &doc(&["Jim"])).unwrap();
    let solo_events: u64 = solo.header("x-foxq-input-events").unwrap().parse().unwrap();
    assert_eq!(events, solo_events);

    handle.shutdown();
}

#[test]
fn bad_requests_are_rejected_cleanly() {
    let handle = start(test_config());
    let addr = handle.local_addr();

    // Malformed XML body.
    let r = client::post(addr, &client::query_target(PERSON_NAMES), b"<a><b>").unwrap();
    assert_eq!(r.status, 400);
    assert!(r.text().contains("malformed XML"), "{}", r.text());

    // Unparsable query text.
    let r = client::post(addr, "/query?q=for+%24x+return", b"<a/>").unwrap();
    assert_eq!(r.status, 400);
    assert!(r.text().contains("query rejected"), "{}", r.text());

    // Missing q parameter / missing body.
    assert_eq!(client::post(addr, "/query", b"<a/>").unwrap().status, 400);
    let r = Client::connect(addr)
        .unwrap()
        .request("POST", &client::query_target(PERSON_NAMES), &[], &[])
        .unwrap();
    assert_eq!(r.status, 400);

    handle.shutdown();
}

/// A request that trips one bound of `foxq_service::LIMITS`, against a
/// server whose bounds `set` shrinks so that a small request suffices.
struct Trip {
    set: fn(&mut Limits),
    send: fn(std::net::SocketAddr) -> client::Response,
}

/// `<a>` nested `depth` deep.
fn nested_a(depth: usize) -> Vec<u8> {
    ("<a>".repeat(depth) + &"</a>".repeat(depth)).into_bytes()
}

fn post(addr: std::net::SocketAddr, query: &str, body: &[u8]) -> client::Response {
    client::post(addr, &client::query_target(query), body).unwrap()
}

fn head(addr: std::net::SocketAddr, headers: &[(&str, &str)]) -> client::Response {
    let mut c = Client::connect(addr).unwrap();
    c.request("GET", "/healthz", headers, &[]).unwrap()
}

/// The tripping case of each row with a status.
fn trip(limit: &str) -> Option<Trip> {
    #[rustfmt::skip]
    let trip = match limit {
        "max_head_bytes" => Trip { set: |_| {},
            send: |addr| head(addr, &[("x-pad", &"p".repeat(16_500))]) },
        "max_headers" => Trip { set: |_| {}, send: |addr| {
            let names: Vec<String> = (0..101).map(|i| format!("x-h{i}")).collect();
            head(addr, &names.iter().map(|n| (n.as_str(), "v")).collect::<Vec<_>>())
        } },
        "read_timeout" => Trip { set: |l| l.read_timeout = Duration::from_millis(300),
            send: |addr| {
                let mut c = Client::connect(addr).unwrap();
                let target = client::query_target(PERSON_NAMES);
                let head = format!("POST {target} HTTP/1.1\r\ncontent-length: 100\r\n\r\n<a>");
                std::io::Write::write_all(c.raw_writer(), head.as_bytes()).unwrap();
                c.read_response().unwrap()
            } },
        "max_body_bytes" => Trip { set: |l| l.max_body_bytes = 64,
            send: |addr| post(addr, PERSON_NAMES, &doc(&["Jim", "Li", "Ada"])) },
        "max_queries_per_batch" => Trip { set: |l| l.max_queries_per_batch = 2,
            send: |addr| {
                let target = client::batch_target([PERSON_NAMES; 3]);
                client::post(addr, &target, &doc(&["Jim"])).unwrap()
            } },
        "max_source_bytes" => Trip { set: |l| l.max_source_bytes = 32,
            send: |addr| post(addr, PERSON_NAMES, &doc(&["Jim"])) },
        // 4,000 parentheses, unescaped: an 8 KB head that once overflowed a
        // worker's stack and aborted the process.
        "max_nesting" => Trip { set: |_| {}, send: |addr| {
            let q = format!("{}%24input%2Fa{}", "(".repeat(4000), ")".repeat(4000));
            client::post(addr, &format!("/query?q={q}"), &doc(&["Jim"])).unwrap()
        } },
        "max_translated_size" => Trip { set: |l| l.max_translated_size = 8,
            send: |addr| post(addr, PERSON_NAMES, &doc(&["Jim"])) },
        "max_expansions_per_event" => Trip { set: |l| l.max_expansions_per_event = 8,
            send: |addr| post(addr, "<o>{$input//a//a}</o>", &nested_a(16)) },
        "max_output_events" => Trip { set: |l| l.max_output_events = 8,
            send: |addr| post(addr, "<o>{$input//a}</o>", &nested_a(16)) },
        _ => return None,
    };
    Some(trip)
}

/// The table is the contract: for every row with a status, a minimal
/// request that trips that row alone gets the row's status and a message
/// naming the row, is counted once under that status, and leaves a server
/// that answers `/healthz`. A row without a case fails here.
#[test]
fn every_limit_row_is_tripped_alone_by_a_minimal_request() {
    for limit in LIMITS.iter().filter(|limit| limit.status.is_some()) {
        let name = limit.name;
        let trip = trip(name).unwrap_or_else(|| panic!("no tripping case for {name}"));
        let mut config = test_config();
        (trip.set)(&mut config.limits);
        let handle = start(config);
        let addr = handle.local_addr();
        let r = (trip.send)(addr);
        assert_eq!(Some(r.status), limit.status, "{name}: {}", r.text());
        assert!(r.text().contains(name), "{name}: {}", r.text());
        let metrics = client::get(addr, "/metrics").unwrap().text();
        let code = format!("foxq_responses_total{{code=\"{}\"}}", r.status);
        assert_eq!(metric(&metrics, &code), 1, "{name}");
        assert_eq!(client::get(addr, "/healthz").unwrap().status, 200, "{name}");
        handle.shutdown();
    }
}

#[test]
fn oversized_bodies_get_413_without_being_buffered() {
    let mut config = test_config();
    config.limits.max_body_bytes = 4 * 1024;
    let handle = start(config);
    let addr = handle.local_addr();
    let metrics0 = client::get(addr, "/metrics").unwrap().text();
    let bytes_before = metric(&metrics0, "foxq_bytes_in_total");

    // Content-Length framing: rejected as soon as the budget is exhausted.
    let big = doc(&vec!["x"; 2000]); // ~60 KiB
    assert!(big.len() > 32 * 1024);
    let r = client::post(addr, &client::query_target(PERSON_NAMES), &big).unwrap();
    assert_eq!(r.status, 413);
    assert!(r.text().contains("4096 bytes"), "{}", r.text());

    // Chunked framing: the server answers mid-upload; the client may not
    // even manage to send the whole body.
    let chunks: Vec<&[u8]> = big.chunks(1024).collect();
    let mut c = Client::connect(addr).unwrap();
    let (r, _sent) = c
        .request_chunked_expecting_early_reply(
            "POST",
            &client::query_target(PERSON_NAMES),
            chunks.iter().copied(),
        )
        .unwrap();
    assert_eq!(r.status, 413);

    // The server consumed ~max_body_bytes per attempt, not the ~120 KiB the
    // two uploads totalled: the body was streamed against the budget, never
    // buffered whole.
    let metrics1 = client::get(addr, "/metrics").unwrap().text();
    let consumed = metric(&metrics1, "foxq_bytes_in_total") - bytes_before;
    assert!(
        consumed < 2 * 16 * 1024,
        "server consumed {consumed} bytes of two over-limit uploads"
    );
    assert_eq!(metric(&metrics1, "foxq_responses_total{code=\"413\"}"), 2);

    handle.shutdown();
}

#[test]
fn a_document_larger_than_the_connection_buffer_streams_through() {
    // The inverse direction: a large *legitimate* document under the limit
    // streams through chunk by chunk and produces the right answer.
    let handle = start(test_config());
    let addr = handle.local_addr();
    let names: Vec<String> = (0..3000).map(|i| format!("p{i}")).collect();
    let refs: Vec<&str> = names.iter().map(String::as_str).collect();
    let big = doc(&refs); // ~100 KiB
    let chunks: Vec<&[u8]> = big.chunks(1500).collect();
    let mut c = Client::connect(addr).unwrap();
    let r = c
        .request_chunked("POST", &client::query_target(PERSON_NAMES), chunks)
        .unwrap();
    assert_eq!(r.status, 200);
    let expected = format!("<o>{}</o>", names.join(""));
    assert_eq!(r.text(), expected);
    handle.shutdown();
}

#[test]
fn sustains_100_concurrent_connections_with_zero_errors() {
    let handle = start(test_config());
    let addr = handle.local_addr();
    const CLIENTS: usize = 100;

    let results: Vec<Result<(), String>> = std::thread::scope(|scope| {
        let mut joins = Vec::with_capacity(CLIENTS);
        for i in 0..CLIENTS {
            joins.push(scope.spawn(move || -> Result<(), String> {
                let name = format!("client{i}");
                let mut c = Client::connect(addr).map_err(|e| e.to_string())?;
                // Two requests per connection: exercises keep-alive under load.
                for _ in 0..2 {
                    let r = c
                        .request(
                            "POST",
                            &client::query_target(PERSON_NAMES),
                            &[],
                            &doc(&[&name]),
                        )
                        .map_err(|e| e.to_string())?;
                    if r.status != 200 {
                        return Err(format!("status {}", r.status));
                    }
                    let expected = format!("<o>{name}</o>");
                    if r.text() != expected {
                        return Err(format!("mixed-up response: {}", r.text()));
                    }
                }
                Ok(())
            }));
        }
        joins.into_iter().map(|j| j.join().unwrap()).collect()
    });

    let failures: Vec<&String> = results.iter().filter_map(|r| r.as_ref().err()).collect();
    assert!(
        failures.is_empty(),
        "{} failures: {:?}",
        failures.len(),
        &failures[..failures.len().min(5)]
    );

    let metrics = client::get(addr, "/metrics").unwrap().text();
    assert!(metric(&metrics, "foxq_connections_total") >= CLIENTS as u64);
    assert_eq!(metric(&metrics, "foxq_query_cache_compiles_total"), 1);
    assert!(metric(&metrics, "foxq_query_cache_hits_total") >= (2 * CLIENTS - 1) as u64);
    handle.shutdown();
}

#[test]
fn metrics_counters_are_monotone() {
    let handle = start(test_config());
    let addr = handle.local_addr();
    let watched = [
        "foxq_connections_total",
        "foxq_bytes_in_total",
        "foxq_bytes_out_total",
        "foxq_input_events_total",
        "foxq_output_events_total",
        "foxq_lane_runs_total",
        "foxq_query_cache_hits_total",
        "foxq_query_cache_misses_total",
    ];
    let mut last = vec![0u64; watched.len()];
    for round in 0..4 {
        let r = client::post(addr, &client::query_target(PERSON_NAMES), &doc(&["n"])).unwrap();
        assert_eq!(r.status, 200);
        let text = client::get(addr, "/metrics").unwrap().text();
        for (name, prev) in watched.iter().zip(&mut last) {
            let now = metric(&text, name);
            assert!(now >= *prev, "{name} went backwards in round {round}");
            *prev = now;
        }
    }
    handle.shutdown();
}

#[test]
fn graceful_shutdown_drains_the_in_flight_request() {
    let config = ServerConfig {
        threads: 1, // the in-flight request owns the only worker
        ..test_config()
    };
    let handle = start(config);
    let addr = handle.local_addr();
    let metrics = handle.metrics();

    // Start a chunked /query upload but do not finish the body yet.
    let mut c = Client::connect(addr).unwrap();
    use std::io::Write;
    let target = client::query_target(PERSON_NAMES);
    let head =
        format!("POST {target} HTTP/1.1\r\nhost: foxq\r\ntransfer-encoding: chunked\r\n\r\n");
    let part1 = b"<site><people><person><name>Drain</name></person>";
    c.raw_writer()
        .write_all(format!("{head}{:x}\r\n", part1.len()).as_bytes())
        .unwrap();
    c.raw_writer().write_all(part1).unwrap();
    c.raw_writer().write_all(b"\r\n").unwrap();
    c.raw_writer().flush().unwrap();

    // Wait until the server is demonstrably inside the request…
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while metrics.requests(foxq::server::Endpoint::Query) == 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "request never started"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    // …then signal shutdown from another thread (it blocks on the drain).
    let shutdown = std::thread::spawn(move || handle.shutdown());
    std::thread::sleep(Duration::from_millis(100));

    // Finish the body: the draining server must still answer.
    let part2 = b"</people></site>";
    c.raw_writer()
        .write_all(format!("{:x}\r\n", part2.len()).as_bytes())
        .unwrap();
    c.raw_writer().write_all(part2).unwrap();
    c.raw_writer().write_all(b"\r\n0\r\n\r\n").unwrap();
    c.raw_writer().flush().unwrap();
    let r = c.read_response().unwrap();
    assert_eq!((r.status, r.text().as_str()), (200, "<o>Drain</o>"));

    shutdown.join().unwrap();

    // The listener is gone: new connections are refused (or reset).
    match Client::connect(addr) {
        Err(_) => {}
        Ok(mut c) => {
            assert!(c.request("GET", "/healthz", &[], &[]).is_err());
        }
    }
}

#[test]
fn shutdown_endpoint_drains_remotely() {
    let handle = start(test_config());
    let addr = handle.local_addr();
    let r = client::post(addr, "/shutdown", &[]).unwrap();
    assert_eq!((r.status, r.text().as_str()), (200, "draining\n"));
    // join() returns because the endpoint signalled the drain.
    handle.join();
    assert!(Client::connect(addr)
        .map(|mut c| c.request("GET", "/healthz", &[], &[]).is_err())
        .unwrap_or(true));
}

#[test]
fn corpus_ingest_list_query_and_metrics() {
    let dir = std::env::temp_dir().join(format!("foxq-server-corpus-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let handle = start(ServerConfig {
        corpus_dir: Some(dir.to_string_lossy().into_owned()),
        ..test_config()
    });
    let addr = handle.local_addr();
    let mut c = Client::connect(addr).unwrap();

    // Ingest two documents; the second replaces nothing (distinct ids).
    let r = c
        .request("POST", "/corpus/alpha", &[], &doc(&["Jim", "Li"]))
        .unwrap();
    assert_eq!(r.status, 200, "{}", r.text());
    assert!(r.text().contains("stored alpha"), "{}", r.text());
    let r = c
        .request("POST", "/corpus/beta", &[], &doc(&["Ada"]))
        .unwrap();
    assert_eq!(r.status, 200);

    // Hostile ids and missing bodies are rejected.
    let r = c.request("POST", "/corpus/.sneaky", &[], b"<a/>").unwrap();
    assert_eq!(r.status, 400);
    // (that reply closed the connection: the body was left on the wire)
    let mut c = Client::connect(addr).unwrap();
    let r = c.request("POST", "/corpus/nobody", &[], &[]).unwrap();
    assert_eq!(r.status, 400);

    // The manifest lists both docs.
    let r = c.request("GET", "/corpus", &[], &[]).unwrap();
    assert_eq!(r.status, 200);
    let listing = r.text();
    assert!(
        listing.contains("alpha\t") && listing.contains("beta\t"),
        "{listing}"
    );

    // Query from the stored tape: no request body at all.
    let r = c
        .request(
            "POST",
            &client::query_doc_target(PERSON_NAMES, "alpha"),
            &[],
            &[],
        )
        .unwrap();
    assert_eq!((r.status, r.text().as_str()), (200, "<o>JimLi</o>"));
    // Corpus tapes carry a skip index, so the query rides it:
    // unmatched regions are never visited, let alone seeked over.
    let index: u64 = r
        .header("x-foxq-index-skipped-bytes")
        .unwrap()
        .parse()
        .unwrap();
    assert!(index > 0, "regions subtree was not index-skipped");

    // Unknown doc → 404; malformed ingest XML → 400.
    let r = c
        .request(
            "POST",
            &client::query_doc_target(PERSON_NAMES, "nope"),
            &[],
            &[],
        )
        .unwrap();
    assert_eq!(r.status, 404);
    let mut c2 = Client::connect(addr).unwrap();
    let r = c2
        .request("POST", "/corpus/broken", &[], b"<a><unclosed>")
        .unwrap();
    assert_eq!(r.status, 400);

    // Metrics carry the corpus counters.
    let text = client::get(addr, "/metrics").unwrap().text();
    assert_eq!(metric(&text, "foxq_corpus_ingests_total"), 2);
    assert_eq!(metric(&text, "foxq_corpus_hits_total"), 1);
    assert_eq!(metric(&text, "foxq_corpus_docs"), 2);
    assert!(metric(&text, "foxq_index_skipped_bytes_total") > 0);

    // The store is durable: a fresh server over the same directory serves
    // the same documents.
    handle.shutdown();
    let handle = start(ServerConfig {
        corpus_dir: Some(dir.to_string_lossy().into_owned()),
        ..test_config()
    });
    let r = client::post(
        handle.local_addr(),
        &client::query_doc_target(PERSON_NAMES, "beta"),
        &[],
    )
    .unwrap();
    assert_eq!((r.status, r.text().as_str()), (200, "<o>Ada</o>"));
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A tape of an older format is server state, not broken state: a `doc=`
/// query on it is a 409 naming the migration, buffered or streamed, and the
/// version gauge shows it until it is migrated.
#[test]
fn a_stale_corpus_tape_is_a_409_naming_the_migration() {
    let dir = std::env::temp_dir().join(format!("foxq-server-stale-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let fixture = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/old-fet2.fet");
    let tape = std::fs::read(fixture).unwrap();
    std::fs::write(dir.join("old.fet"), &tape).unwrap();
    let line = format!("old\told.fet\t2\t198\t{}\t32\t0\n", tape.len());
    std::fs::write(dir.join("manifest.tsv"), line).unwrap();
    let config = || ServerConfig {
        corpus_dir: Some(dir.to_string_lossy().into_owned()),
        ..test_config()
    };
    let target = client::query_doc_target(PERSON_NAMES, "old");

    let handle = start(config());
    let addr = handle.local_addr();
    for target in [target.clone(), format!("{target}&stream=1")] {
        let r = client::post(addr, &target, &[]).unwrap();
        assert_eq!(r.status, 409, "{}", r.text());
        assert!(
            r.text().contains("foxq store migrate --dir"),
            "{}",
            r.text()
        );
    }
    let text = client::get(addr, "/metrics").unwrap().text();
    assert!(
        text.contains("foxq_corpus_tapes{version=\"2\"} 1"),
        "{text}"
    );
    assert!(
        text.contains("foxq_corpus_tapes{version=\"3\"} 0"),
        "{text}"
    );
    assert!(
        text.contains("foxq_responses_total{code=\"409\"} 2"),
        "{text}"
    );
    handle.shutdown();

    foxq::store::Corpus::open(&dir)
        .unwrap()
        .migrate_all()
        .unwrap();
    let handle = start(config());
    let r = client::post(handle.local_addr(), &target, &[]).unwrap();
    assert_eq!(
        (r.status, r.text().as_str()),
        (200, "<o>Jim BlakeZo\u{eb} Ruiz</o>")
    );
    let text = client::get(handle.local_addr(), "/metrics").unwrap().text();
    assert!(
        text.contains("foxq_corpus_tapes{version=\"3\"} 1"),
        "{text}"
    );
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Keep-alive framing: pipelining, smuggling shapes, trailing bytes
// ---------------------------------------------------------------------------

/// Two complete requests written in one TCP segment: both must be answered,
/// in order, off the bytes the server buffered past the first request.
#[test]
fn pipelined_requests_in_one_segment_are_both_answered() {
    use std::io::Write;
    let handle = start(test_config());
    let addr = handle.local_addr();
    let mut c = Client::connect(addr).unwrap();
    let target = client::query_target(PERSON_NAMES);
    let body = doc(&["Pipe"]);
    let mut segment = Vec::new();
    segment.extend_from_slice(
        format!(
            "POST {target} HTTP/1.1\r\nhost: foxq\r\ncontent-length: {}\r\n\r\n",
            body.len()
        )
        .as_bytes(),
    );
    segment.extend_from_slice(&body);
    segment.extend_from_slice(b"GET /healthz HTTP/1.1\r\nhost: foxq\r\n\r\n");
    c.raw_writer().write_all(&segment).unwrap();
    c.raw_writer().flush().unwrap();

    let r1 = c.read_response().unwrap();
    assert_eq!((r1.status, r1.text().as_str()), (200, "<o>Pipe</o>"));
    let r2 = c.read_response().unwrap();
    assert_eq!((r2.status, r2.text().as_str()), (200, "ok\n"));
    handle.shutdown();
}

/// Duplicate, conflicting, and list-valued `Content-Length` headers are the
/// request-smuggling shapes of RFC 9112 §6.3: each must be answered 400 and
/// the connection closed, and the bytes a desynchronized parser would have
/// treated as a second request must never be answered.
#[test]
fn conflicting_content_lengths_are_rejected_and_the_connection_closed() {
    use std::io::Write;
    let handle = start(test_config());
    let addr = handle.local_addr();
    // The trailer is what a front proxy honoring the *other* CL value
    // would forward as a separate request; answering it means smuggling.
    let smuggle = "GET /smuggled HTTP/1.1\r\nhost: foxq\r\n\r\n";
    for cl_headers in [
        "content-length: 0\r\ncontent-length: 38\r\n",
        "content-length: 38\r\ncontent-length: 38\r\n",
        "content-length: 0, 38\r\n",
    ] {
        let mut c = Client::connect(addr).unwrap();
        let wire = format!("GET /healthz HTTP/1.1\r\nhost: foxq\r\n{cl_headers}\r\n{smuggle}");
        c.raw_writer().write_all(wire.as_bytes()).unwrap();
        c.raw_writer().flush().unwrap();
        let r = c.read_response().unwrap();
        assert_eq!(r.status, 400, "headers {cl_headers:?}: {}", r.text());
        assert!(
            c.read_response().is_err(),
            "connection stayed open after ambiguous framing {cl_headers:?}"
        );
    }
    // The smuggled target never reached routing.
    let text = client::get(addr, "/metrics").unwrap().text();
    assert_eq!(metric(&text, "foxq_responses_total{code=\"400\"}"), 3);
    handle.shutdown();
}

/// `Transfer-Encoding` together with `Content-Length` is ambiguous framing
/// (RFC 9112 §6.3): 400, connection closed — today's silent TE-wins
/// behavior is exactly how smuggling pairs disagree.
#[test]
fn transfer_encoding_with_content_length_is_rejected() {
    use std::io::Write;
    let handle = start(test_config());
    let addr = handle.local_addr();
    let target = client::query_target(PERSON_NAMES);
    let mut c = Client::connect(addr).unwrap();
    let wire = format!(
        "POST {target} HTTP/1.1\r\nhost: foxq\r\n\
         transfer-encoding: chunked\r\ncontent-length: 4\r\n\r\n\
         4\r\n<a/>\r\n0\r\n\r\n"
    );
    c.raw_writer().write_all(wire.as_bytes()).unwrap();
    c.raw_writer().flush().unwrap();
    let r = c.read_response().unwrap();
    assert_eq!(r.status, 400, "{}", r.text());
    assert!(r.text().contains("transfer-encoding"), "{}", r.text());
    assert!(c.read_response().is_err(), "connection stayed open");
    handle.shutdown();
}

/// Bytes after the XML root inside a sized body must never desynchronize
/// the next keep-alive request: either the parser consumes them (top-level
/// text) and the pipelined request is answered normally, or the request
/// fails and the connection closes. A response to a *mis-framed* second
/// request is the bug.
#[test]
fn trailing_bytes_after_the_root_never_misframe_the_next_request() {
    use std::io::Write;
    let handle = start(test_config());
    let addr = handle.local_addr();
    let target = client::query_target(PERSON_NAMES);

    // Trailing top-level text: consumed to the framed end, connection
    // reusable, pipelined request answered.
    let mut c = Client::connect(addr).unwrap();
    let body = b"<site><people/></site> trailing words";
    let wire = format!(
        "POST {target} HTTP/1.1\r\nhost: foxq\r\ncontent-length: {}\r\n\r\n",
        body.len()
    );
    c.raw_writer().write_all(wire.as_bytes()).unwrap();
    c.raw_writer().write_all(body).unwrap();
    c.raw_writer()
        .write_all(b"GET /healthz HTTP/1.1\r\nhost: foxq\r\n\r\n")
        .unwrap();
    c.raw_writer().flush().unwrap();
    let r1 = c.read_response().unwrap();
    // If the server kept the connection, the second response must be the
    // health check — not a parse of mid-body bytes. A closed connection
    // (read error) is also sound.
    if let Ok(r2) = c.read_response() {
        assert_eq!(r1.status, 200, "{}", r1.text());
        assert_eq!((r2.status, r2.text().as_str()), (200, "ok\n"));
    }

    // Trailing garbage that kills the parse mid-body: the 400 must close
    // the connection (unread bytes remain), never answer the next head.
    let mut c = Client::connect(addr).unwrap();
    let body = b"<site><people/></site></oops>";
    let wire = format!(
        "POST {target} HTTP/1.1\r\nhost: foxq\r\ncontent-length: {}\r\n\r\n",
        body.len()
    );
    c.raw_writer().write_all(wire.as_bytes()).unwrap();
    c.raw_writer().write_all(body).unwrap();
    c.raw_writer()
        .write_all(b"GET /healthz HTTP/1.1\r\nhost: foxq\r\n\r\n")
        .unwrap();
    c.raw_writer().flush().unwrap();
    let r1 = c.read_response().unwrap();
    assert_eq!(r1.status, 400, "{}", r1.text());
    assert!(
        c.read_response().is_err(),
        "connection reused after an unconsumed body"
    );
    handle.shutdown();
}

/// A chunked body whose terminating `0\r\n\r\n` is followed *in the same
/// segment* by the next request head: the chunk decoder must stop exactly
/// at the framed end and the next head must be answered.
#[test]
fn chunked_body_followed_immediately_by_the_next_head() {
    use std::io::Write;
    let handle = start(test_config());
    let addr = handle.local_addr();
    let target = client::query_target(PERSON_NAMES);
    let body = doc(&["Chunky"]);

    let mut segment = Vec::new();
    segment.extend_from_slice(
        format!("POST {target} HTTP/1.1\r\nhost: foxq\r\ntransfer-encoding: chunked\r\n\r\n")
            .as_bytes(),
    );
    for chunk in body.chunks(7) {
        segment.extend_from_slice(format!("{:x}\r\n", chunk.len()).as_bytes());
        segment.extend_from_slice(chunk);
        segment.extend_from_slice(b"\r\n");
    }
    segment.extend_from_slice(b"0\r\n\r\n");
    segment.extend_from_slice(b"GET /healthz HTTP/1.1\r\nhost: foxq\r\n\r\n");

    let mut c = Client::connect(addr).unwrap();
    c.raw_writer().write_all(&segment).unwrap();
    c.raw_writer().flush().unwrap();
    let r1 = c.read_response().unwrap();
    assert_eq!((r1.status, r1.text().as_str()), (200, "<o>Chunky</o>"));
    let r2 = c.read_response().unwrap();
    assert_eq!((r2.status, r2.text().as_str()), (200, "ok\n"));
    handle.shutdown();
}

/// The reactor property itself: connections trickling partial heads park in
/// the reactor, not on workers — with a single worker thread and eight
/// stalled peers, a healthy client is still answered immediately. (The
/// worker-pool server wedged here: each stalled head held the worker for a
/// full read timeout.)
#[test]
fn stalled_head_connections_do_not_wedge_healthy_clients() {
    use std::io::Write;
    let config = ServerConfig {
        threads: 1,
        ..test_config()
    };
    let handle = start(config);
    let addr = handle.local_addr();

    let mut stalled = Vec::new();
    for _ in 0..8 {
        let mut c = Client::connect(addr).unwrap();
        c.raw_writer()
            .write_all(b"GET /healthz HTTP/1.1\r\nhost: loris\r\n")
            .unwrap();
        c.raw_writer().flush().unwrap();
        stalled.push(c); // keep open, never finish the head
    }

    let t0 = std::time::Instant::now();
    let r = client::get(addr, "/healthz").unwrap();
    assert_eq!(r.status, 200);
    assert!(
        t0.elapsed() < Duration::from_secs(3),
        "healthy request took {:?} behind stalled connections",
        t0.elapsed()
    );
    drop(stalled);
    handle.shutdown();
}

#[test]
fn corpus_endpoints_without_a_corpus_are_503() {
    let handle = start(test_config());
    let addr = handle.local_addr();
    let r = client::get(addr, "/corpus").unwrap();
    assert_eq!(r.status, 503);
    let r = client::post(addr, &client::query_doc_target(PERSON_NAMES, "x"), &[]).unwrap();
    assert_eq!(r.status, 503);
    // /metrics omits the corpus gauge entirely.
    let text = client::get(addr, "/metrics").unwrap().text();
    assert!(!text.contains("foxq_corpus_docs"));
    handle.shutdown();
}

// ---------------------------------------------------------------------------
// Earliest-emission streaming: /query?stream=1
// ---------------------------------------------------------------------------

/// A streamed response carries the same bytes as the buffered one, framed as
/// chunks, with the run statistics moved from headers into trailers — and the
/// connection stays reusable afterwards.
#[test]
fn streamed_query_matches_buffered_and_moves_stats_to_trailers() {
    let handle = start(test_config());
    let addr = handle.local_addr();
    let body = doc(&["Jim", "Li", "Ada", "Mina"]);
    let target = client::query_target(PERSON_NAMES);
    let streamed_target = format!("{target}&stream=1");

    let mut c = Client::connect(addr).unwrap();
    let buffered = c.request("POST", &target, &[], &body).unwrap();
    let streamed = c.request("POST", &streamed_target, &[], &body).unwrap();
    assert_eq!(buffered.status, 200);
    assert_eq!(streamed.status, 200);
    assert_eq!(streamed.header("transfer-encoding"), Some("chunked"));
    assert!(streamed.header("content-length").is_none());
    assert_eq!(streamed.body, buffered.body, "streamed bytes diverge");
    assert!(streamed.chunks >= 1);

    // Peak stats ride as headers on buffered responses, trailers on streamed
    // ones. The engine run is deterministic, so the values agree.
    assert!(buffered.header("x-foxq-peak-pending-calls").is_some());
    assert!(buffered.trailers.is_empty());
    assert!(streamed.header("x-foxq-peak-pending-calls").is_none());
    assert!(streamed.header("x-foxq-peak-live-bytes").is_none());
    assert_eq!(
        streamed.trailer("x-foxq-peak-pending-calls"),
        buffered.header("x-foxq-peak-pending-calls")
    );
    assert_eq!(
        streamed.trailer("x-foxq-peak-live-bytes"),
        buffered.header("x-foxq-peak-live-bytes")
    );
    let flushes: u64 = streamed
        .trailer("x-foxq-emit-flushes")
        .unwrap()
        .parse()
        .unwrap();
    assert!(flushes >= 1, "no emitting flushes recorded");
    let first: u64 = streamed
        .trailer("x-foxq-first-emit-events")
        .unwrap()
        .parse()
        .unwrap();
    assert!(first >= 1, "first emit event not recorded");

    // A streamed request without a body is rejected before any chunk is
    // written: a plain buffered 400.
    let r = c.request("POST", &streamed_target, &[], &[]).unwrap();
    assert_eq!(r.status, 400);
    assert!(r.header("content-length").is_some());

    // The new metric families move.
    let metrics = c.request("GET", "/metrics", &[], &[]).unwrap().text();
    assert_eq!(metric(&metrics, "foxq_streamed_responses_total"), 1);
    assert!(metric(&metrics, "foxq_first_emit_events_count") >= 1);
    assert!(metric(&metrics, "foxq_emit_flushes_per_request_count") >= 1);
    handle.shutdown();
}

/// The point of the subsystem: the response head, and all the output the
/// uploaded part already makes certain, are on the wire while the request
/// body is still being uploaded. The client holds the chunked upload open,
/// reads a 200 status line and the last name sent, and only then finishes
/// the document.
#[test]
fn streamed_head_arrives_before_request_body_ends() {
    use std::io::{BufRead, BufReader, Read, Write};
    use std::net::TcpStream;
    let handle = start(test_config());
    let addr = handle.local_addr();
    let target = format!("{}&stream=1", client::query_target(PERSON_NAMES));

    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.set_nodelay(true).ok();
    write!(
        stream,
        "POST {target} HTTP/1.1\r\nhost: foxq\r\nconnection: close\r\ntransfer-encoding: chunked\r\n\r\n"
    )
    .unwrap();
    // First request chunk: an unterminated document holding plenty of
    // already-final output.
    let mut prefix = String::from("<site><people>");
    for i in 0..500 {
        prefix.push_str(&format!("<person><name>p{i}</name></person>"));
    }
    write!(stream, "{:x}\r\n{prefix}\r\n", prefix.len()).unwrap();
    stream.flush().unwrap();

    // Earliest emission in action: the status line must arrive while the
    // upload is still open.
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut status = String::new();
    reader.read_line(&mut status).unwrap();
    assert!(
        status.starts_with("HTTP/1.1 200"),
        "bad status line before body end: {status:?}"
    );
    // And so must all the output the uploaded part makes certain, up to its
    // last name: the server writes what it holds before it waits for more
    // of the body.
    let mut rest = Vec::new();
    while !String::from_utf8_lossy(&rest).contains("p499") {
        let got = reader.fill_buf().unwrap();
        assert!(!got.is_empty(), "eof before p499");
        rest.extend_from_slice(got);
        let n = got.len();
        reader.consume(n);
    }

    // Now close the document and the chunked request body, and drain the
    // rest of the response.
    let tail = "</people></site>";
    write!(stream, "{:x}\r\n{tail}\r\n0\r\n\r\n", tail.len()).unwrap();
    stream.flush().unwrap();
    reader.read_to_end(&mut rest).unwrap();
    let rest = String::from_utf8_lossy(&rest);
    assert!(rest.contains("transfer-encoding: chunked"), "{rest}");
    assert!(rest.contains("p0") && rest.contains("p499"), "{rest}");
    assert!(rest.contains("x-foxq-peak-pending-calls"), "{rest}");
    assert!(rest.ends_with("\r\n\r\n"), "trailer section unterminated");
    handle.shutdown();
}

/// Streaming over a stored corpus tape: same bytes as the buffered doc
/// query, with the tape skip counters appearing as trailers.
#[test]
fn streamed_doc_query_serves_from_corpus_tape() {
    let dir = std::env::temp_dir().join(format!("foxq-server-stream-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let handle = start(ServerConfig {
        corpus_dir: Some(dir.to_string_lossy().into_owned()),
        ..test_config()
    });
    let addr = handle.local_addr();
    let mut c = Client::connect(addr).unwrap();
    let r = c
        .request("POST", "/corpus/alpha", &[], &doc(&["Jim", "Li"]))
        .unwrap();
    assert_eq!(r.status, 200);

    let target = client::query_doc_target(PERSON_NAMES, "alpha");
    let buffered = c.request("POST", &target, &[], &[]).unwrap();
    let streamed = c
        .request("POST", &format!("{target}&stream=1"), &[], &[])
        .unwrap();
    assert_eq!(streamed.status, 200);
    assert_eq!(streamed.header("transfer-encoding"), Some("chunked"));
    assert_eq!(streamed.body, buffered.body);
    assert_eq!(streamed.text(), "<o>JimLi</o>");
    // Tapes ride the label skip index even when streaming.
    let index: u64 = streamed
        .trailer("x-foxq-index-skipped-bytes")
        .unwrap()
        .parse()
        .unwrap();
    assert!(index > 0, "regions subtree was not index-skipped");

    // Unknown doc on the streamed path: a plain buffered 404.
    let r = c
        .request(
            "POST",
            &format!(
                "{}&stream=1",
                client::query_doc_target(PERSON_NAMES, "nope")
            ),
            &[],
            &[],
        )
        .unwrap();
    assert_eq!(r.status, 404);
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A subtree-copying query has no label projection, so no skip index: over
/// a corpus tape it is the engine's dead-location verdict that keeps the
/// server from decoding what the query never looks at — and the skip shows
/// in the metric, in the buffered reply's headers and in the streamed
/// reply's trailers.
#[test]
fn copying_doc_query_seeks_over_dead_subtrees() {
    const PEOPLE: &str = "<o>{$input/site/people/person}</o>";
    let dir = std::env::temp_dir().join(format!("foxq-server-seek-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let handle = start(ServerConfig {
        corpus_dir: Some(dir.to_string_lossy().into_owned()),
        ..test_config()
    });
    let addr = handle.local_addr();
    let mut c = Client::connect(addr).unwrap();
    let r = c
        .request("POST", "/corpus/alpha", &[], &doc(&["Jim", "Li"]))
        .unwrap();
    assert_eq!(r.status, 200);
    let seeked_total = |addr| {
        let text = client::get(addr, "/metrics").unwrap().text();
        metric(&text, "foxq_seek_skipped_bytes_total")
    };
    assert_eq!(seeked_total(addr), 0);

    let target = client::query_doc_target(PEOPLE, "alpha");
    let buffered = c.request("POST", &target, &[], &[]).unwrap();
    assert_eq!(
        (buffered.status, buffered.text().as_str()),
        (
            200,
            "<o><person><name>Jim</name></person><person><name>Li</name></person></o>"
        )
    );
    let number = |value: Option<&str>| {
        value
            .expect("skip statistic missing")
            .parse::<u64>()
            .unwrap()
    };
    let seeked = number(buffered.header("x-foxq-seek-skipped-bytes"));
    assert!(seeked > 0, "<regions> was decoded, not seeked over");
    assert_eq!(number(buffered.header("x-foxq-index-skipped-bytes")), 0);
    // <africa><item/></africa>: four events nobody was fed.
    assert_eq!(number(buffered.header("x-foxq-prefiltered-events")), 4);
    assert_eq!(seeked_total(addr), seeked);

    let streamed = c
        .request("POST", &format!("{target}&stream=1"), &[], &[])
        .unwrap();
    assert_eq!(streamed.header("transfer-encoding"), Some("chunked"));
    assert_eq!(streamed.body, buffered.body);
    assert_eq!(
        number(streamed.trailer("x-foxq-seek-skipped-bytes")),
        seeked
    );
    assert_eq!(number(streamed.trailer("x-foxq-prefiltered-events")), 4);
    assert_eq!(seeked_total(addr), 2 * seeked);
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A streamed reply's `Trailer:` header declares exactly the trailers it
/// then sends, in order — over a request body and over a stored document,
/// which adds the tape skip counters.
#[test]
fn streamed_replies_declare_exactly_the_trailers_they_send() {
    let dir = std::env::temp_dir().join(format!("foxq-server-trailer-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let handle = start(ServerConfig {
        corpus_dir: Some(dir.to_string_lossy().into_owned()),
        ..test_config()
    });
    let mut c = Client::connect(handle.local_addr()).unwrap();
    let body = doc(&["Jim", "Li"]);
    let r = c.request("POST", "/corpus/alpha", &[], &body).unwrap();
    assert_eq!(r.status, 200);
    let over_body = format!("{}&stream=1", client::query_target(PERSON_NAMES));
    let over_doc = format!(
        "{}&stream=1",
        client::query_doc_target(PERSON_NAMES, "alpha")
    );
    for (target, body, doc_trailers) in [(over_body, &body[..], 0), (over_doc, &[][..], 2)] {
        let r = c.request("POST", &target, &[], body).unwrap();
        assert_eq!((r.status, r.text().as_str()), (200, "<o>JimLi</o>"));
        let declared: Vec<&str> = r.header("trailer").unwrap().split(", ").collect();
        let sent: Vec<&str> = r.trailers.iter().map(|(name, _)| name.as_str()).collect();
        assert_eq!(declared, sent, "{target}");
        assert_eq!(sent.len(), 8 + doc_trailers, "{target}");
    }
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// `/batch` reports each successful lane's buffer peaks to `/metrics`, as
/// `/query` does: one observation per lane.
#[test]
fn batch_lanes_observe_the_peak_histograms() {
    let handle = start(test_config());
    let addr = handle.local_addr();
    let peaks = || {
        let text = client::get(addr, "/metrics").unwrap().text();
        (
            metric(&text, "foxq_live_nodes_peak_count"),
            metric(&text, "foxq_live_bytes_peak_count"),
        )
    };
    assert_eq!(peaks(), (0, 0));
    let target = client::batch_target([PERSON_NAMES, "<n>{$input//item}</n>"]);
    let r = client::post(addr, &target, &doc(&["Jim"])).unwrap();
    assert_eq!(r.header("x-foxq-failed-lanes"), Some("0"));
    assert_eq!(peaks(), (2, 2));
    handle.shutdown();
}

/// A run that fails after the head is on the wire cannot be un-sent: the
/// server truncates the chunked body (no terminating zero chunk) and closes,
/// which a conforming client must treat as an incomplete response.
#[test]
fn streamed_mid_run_failure_truncates_the_chunked_body() {
    let handle = start(test_config());
    let addr = handle.local_addr();
    let target = format!("{}&stream=1", client::query_target(PERSON_NAMES));
    let mut c = Client::connect(addr).unwrap();
    // Well-formed prefix (so the head and first chunks go out), then a
    // parse error at end of input.
    let body = b"<site><people><person><name>Jim</name></person><broken".to_vec();
    let err = c
        .request("POST", &target, &[], &body)
        .expect_err("truncated stream decoded as a complete response");
    assert!(
        matches!(
            err.kind(),
            std::io::ErrorKind::InvalidData | std::io::ErrorKind::UnexpectedEof
        ),
        "unexpected error: {err}"
    );
    let text = client::get(addr, "/metrics").unwrap().text();
    assert!(metric(&text, "foxq_lane_failures_total") >= 1);
    handle.shutdown();
}

/// A client that stops reading still backpressures the engine: the server
/// holds back at most 16 KiB of output, so once the socket buffers are full
/// the worker's write blocks, its write timeout ends the run, and the
/// connection closes without a terminating chunk. The one worker is then
/// free for the next connection. Release only: the upload is 16 MiB.
#[test]
fn streamed_slow_reader_hits_write_timeout() {
    use std::io::{Read, Write};
    use std::net::TcpStream;
    if cfg!(debug_assertions) {
        eprintln!(
            "streamed_slow_reader_hits_write_timeout: skipped (debug build; run with --release)"
        );
        return;
    }
    let mut config = ServerConfig {
        threads: 1,
        ..test_config()
    };
    config.limits.write_timeout = Duration::from_millis(200);
    let handle = start(config);
    let addr = handle.local_addr();
    // A copying query: its output is as large as the document, far more
    // than the loopback socket buffers hold.
    let copy = format!(
        "{}&stream=1",
        client::query_target("<o>{$input/site/people/person}</o>")
    );
    let mut body = String::from("<site><people>");
    for i in 0.. {
        if body.len() >= 16 << 20 {
            break;
        }
        body.push_str(&format!(
            "<person><name>p{i}</name><note>never read by the client</note></person>"
        ));
    }
    body.push_str("</people></site>");
    let mut request = format!(
        "POST {copy} HTTP/1.1\r\nhost: foxq\r\ncontent-length: {}\r\nconnection: close\r\n\r\n",
        body.len()
    )
    .into_bytes();
    request.extend_from_slice(body.as_bytes());
    drop(body);

    let stalled = TcpStream::connect(addr).unwrap();
    // The upload stalls as soon as the server stops reading, and fails once
    // it closes; how far it gets does not matter.
    let mut upload = stalled.try_clone().unwrap();
    upload
        .set_write_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let sender = std::thread::spawn(move || {
        let _ = upload.write_all(&request);
    });

    // The worker comes free: a second connection is answered, a streamed
    // query included, while the first client still has not read a byte.
    let ok = client::get(addr, "/healthz").unwrap();
    assert_eq!((ok.status, ok.text().as_str()), (200, "ok\n"));
    let target = format!("{}&stream=1", client::query_target(PERSON_NAMES));
    let r = client::post(addr, &target, &doc(&["Jim"])).unwrap();
    assert_eq!((r.status, r.text().as_str()), (200, "<o>Jim</o>"));
    let text = client::get(addr, "/metrics").unwrap().text();
    assert_eq!(metric(&text, "foxq_lane_failures_total"), 1);

    // The stalled connection was closed, its body cut short.
    let mut stalled = stalled;
    stalled
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut got = Vec::new();
    let mut buf = vec![0u8; 1 << 16];
    loop {
        match stalled.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => got.extend_from_slice(&buf[..n]),
            Err(e) => {
                // A reset is a close too; a timeout is a connection left open.
                assert_eq!(e.kind(), std::io::ErrorKind::ConnectionReset, "{e}");
                break;
            }
        }
    }
    let got = String::from_utf8_lossy(&got);
    assert!(got.is_empty() || got.starts_with("HTTP/1.1 200 OK\r\n"));
    assert!(
        !got.contains("\r\n0\r\n"),
        "the stalled body was terminated"
    );
    sender.join().unwrap();
    handle.shutdown();
}

// ---- skimmed subtrees are still checked, and still bounded -------------------

/// XMark Q13: items of `/site/regions/australia`, with their descriptions.
/// No label projection (it copies `$i/description`), so nothing is withheld
/// statically: everywhere outside australia its engine is dead and the body
/// is skimmed.
const Q13: &str = "<out>{ for $i in /site/regions/australia/item \
    return <item><name>{$i/name/text()}</name>{$i/description}</item> }</out>";
/// The same items without the wrapper: nothing is emitted before australia.
const Q13_BARE: &str = "for $i in /site/regions/australia/item \
    return <item><name>{$i/name/text()}</name>{$i/description}</item>";

/// `africa_items` items in africa, `damage` spliced into the first one's
/// description, and one item in australia.
fn regions_doc(africa_items: usize, damage: &str) -> Vec<u8> {
    let mut xml = String::from("<site><regions><africa>");
    for i in 0..africa_items {
        let damage = if i == 0 { damage } else { "" };
        xml.push_str(&format!(
            "<item id=\"a{i}\"><name>n{i}</name><description><parlist>\
             <listitem>text &amp; more{damage}</listitem></parlist></description></item>"
        ));
    }
    xml.push_str(
        "</africa><australia><item><name>roo</name><description>hops</description></item>\
         </australia></regions></site>",
    );
    xml.into_bytes()
}

#[test]
fn a_malformed_byte_in_a_dead_subtree_still_fails_the_request() {
    use foxq::xml::{XmlEvent, XmlReader};
    let handle = start(test_config());
    let addr = handle.local_addr();
    let body = regions_doc(3, "</wrong>");
    // What a reader that builds every event says of the document.
    let mut reader = XmlReader::new(&body[..]);
    let error = loop {
        match reader.next_event() {
            Ok(XmlEvent::Eof) => panic!("the document is malformed"),
            Ok(_) => {}
            Err(e) => break e.to_string(),
        }
    };
    assert!(
        error.contains("expected </listitem>, found </wrong>") && error.contains("at byte 1"),
        "{error}"
    );
    let expected = format!("malformed XML input: {error}\n");

    let mut c = Client::connect(addr).unwrap();
    let sound = c
        .request("POST", &client::query_target(Q13), &[], &regions_doc(3, ""))
        .unwrap();
    assert_eq!(sound.status, 200);
    assert!(
        sound.text().contains("<name>roo</name>"),
        "{}",
        sound.text()
    );
    let skimmed: u64 = sound
        .header("x-foxq-prefiltered-events")
        .unwrap()
        .parse()
        .unwrap();
    assert!(skimmed >= 3 * 14, "africa was not skimmed: {skimmed}");

    // Buffered, and streamed before the head has gone out: a plain 400 with
    // the reader's own message, and the connection is not reused.
    for target in [
        client::query_target(Q13),
        client::query_target(Q13_BARE),
        format!("{}&stream=1", client::query_target(Q13_BARE)),
    ] {
        let r = client::post(addr, &target, &body).unwrap();
        assert_eq!((r.status, r.text()), (400, expected.clone()), "{target}");
        assert_eq!(r.header("connection"), Some("close"), "{target}");
    }
    // Streamed with the head on the wire (`<out>` is final at the first
    // event): the chunked body is cut short, as for any failure mid-run.
    let streamed = format!("{}&stream=1", client::query_target(Q13));
    let err = client::post(addr, &streamed, &body)
        .expect_err("truncated stream decoded as a complete response");
    assert!(
        matches!(
            err.kind(),
            std::io::ErrorKind::InvalidData | std::io::ErrorKind::UnexpectedEof
        ),
        "unexpected error: {err}"
    );
    handle.shutdown();
}

#[test]
fn the_byte_limit_fires_inside_a_skimmed_subtree() {
    const LIMIT: u64 = 64 << 10;
    let mut config = test_config();
    config.limits.max_body_bytes = LIMIT;
    let handle = start(config);
    let addr = handle.local_addr();
    // Africa alone is several times the limit: the overrun lands while the
    // reader skims it.
    let body = regions_doc(3_000, "");
    assert!(body.len() as u64 > 4 * LIMIT);
    for target in [
        client::query_target(Q13),
        format!("{}&stream=1", client::query_target(Q13_BARE)),
    ] {
        let r = client::post(addr, &target, &body).unwrap();
        assert_eq!(r.status, 413, "{target}: {}", r.text());
        assert!(r.text().contains("65536 bytes"), "{}", r.text());
    }
    handle.shutdown();
}

// ---- the in-window tokenizer behind the body framing --------------------------

/// ~1 MiB whose every record has a multi-byte character and a reference.
fn big_accented_doc() -> (Vec<u8>, String) {
    let mut xml = String::from("<site><people>");
    let mut expected = String::from("<o>");
    for i in 0.. {
        if xml.len() >= 1 << 20 {
            break;
        }
        xml.push_str(&format!(
            "<person id=\"p{i}\"><name>Zo\u{e9} &amp; Ren\u{e9}e {i}</name></person>"
        ));
        expected.push_str(&format!("Zo\u{e9} &amp; Ren\u{e9}e {i}"));
    }
    xml.push_str("</people></site>");
    expected.push_str("</o>");
    (xml.into_bytes(), expected)
}

/// The tokenizer sees a chunked body as whatever reads the chunk decoder
/// hands it: chunk boundaries inside a tag, inside a reference and between
/// the two bytes of a character must not show in the answer.
#[test]
fn chunk_boundaries_inside_tags_references_and_characters_do_not_show() {
    let handle = start(test_config());
    let addr = handle.local_addr();
    let target = client::query_target(PERSON_NAMES);
    let (body, expected) = big_accented_doc();

    let plain = client::post(addr, &target, &body).unwrap();
    assert_eq!(plain.status, 200, "{}", plain.text());
    assert_eq!(plain.text(), expected);

    // From 64 places spread over the document, the next `<per|son`, the
    // next `&a|mp;` and the next `\xC3|\xA9`.
    let find = |from: usize, pattern: &[u8]| {
        from + body[from..]
            .windows(pattern.len())
            .position(|w| w == pattern)
            .expect("the pattern recurs to the end")
    };
    let mut cuts = Vec::new();
    for k in 0..64 {
        let from = k * (body.len() - 200) / 64;
        let tag = find(from, b"<person") + 4;
        let reference = find(tag, b"&amp;") + 2;
        let character = find(reference, "\u{e9}".as_bytes()) + 1;
        cuts.extend([tag, reference, character]);
    }
    cuts.dedup();
    assert!(cuts.windows(2).all(|w| w[0] < w[1]), "cuts in order");
    let mut chunks = Vec::new();
    let mut rest = &body[..];
    let mut taken = 0;
    for cut in cuts {
        let (chunk, tail) = rest.split_at(cut - taken);
        chunks.push(chunk);
        rest = tail;
        taken = cut;
    }
    chunks.push(rest);

    let mut c = Client::connect(addr).unwrap();
    let chunked = c.request_chunked("POST", &target, chunks).unwrap();
    assert_eq!(chunked.status, 200, "{}", chunked.text());
    assert_eq!(chunked.text(), expected);
    // The body was read to its framed end: the connection is still good.
    let again = c.request("GET", "/healthz", &[], &[]).unwrap();
    assert_eq!((again.status, again.text().as_str()), (200, "ok\n"));
    handle.shutdown();
}

/// The byte budget trips on the first byte past it, and by then the server
/// has taken no more off the socket than the budget and one window of the
/// reader: the tokenizer's larger reads do not read around the limit.
#[test]
fn the_byte_limit_fires_at_limit_plus_one_within_one_window() {
    const LIMIT: usize = 100_000;
    let mut config = test_config();
    config.limits.max_body_bytes = LIMIT as u64;
    let handle = start(config);
    let addr = handle.local_addr();
    let target = client::query_target(PERSON_NAMES);
    // Padded with trailing whitespace to an exact size.
    let sized = |bytes: usize| {
        let mut body = doc(&["Edge"]);
        body.resize(bytes, b' ');
        body
    };

    let at_limit = client::post(addr, &target, &sized(LIMIT)).unwrap();
    assert_eq!(
        (at_limit.status, at_limit.text().as_str()),
        (200, "<o>Edge</o>")
    );
    let one_over = client::post(addr, &target, &sized(LIMIT + 1)).unwrap();
    assert_eq!(one_over.status, 413, "{}", one_over.text());

    let before = metric(
        &client::get(addr, "/metrics").unwrap().text(),
        "foxq_bytes_in_total",
    );
    let far_over = client::post(addr, &target, &sized(512 << 10)).unwrap();
    assert_eq!(far_over.status, 413, "{}", far_over.text());
    let after = metric(
        &client::get(addr, "/metrics").unwrap().text(),
        "foxq_bytes_in_total",
    );
    // Both scrapes' own request heads are in the difference too.
    let consumed = (after - before) as usize;
    assert!(
        consumed <= LIMIT + (64 << 10) + 1024,
        "the server took {consumed} bytes of a 512 KiB upload under a limit of {LIMIT}"
    );
    handle.shutdown();
}

/// A request pipelined behind a body several windows long: the reader's
/// reads are clipped to the framed body, so the next head stays where the
/// reactor finds it — for a sized body and for a chunked one.
#[test]
fn a_request_pipelined_behind_a_long_body_is_not_swallowed() {
    use std::io::Write;
    let handle = start(test_config());
    let addr = handle.local_addr();
    let target = client::query_target(PERSON_NAMES);
    let names: Vec<String> = (0..9000).map(|i| format!("p{i}")).collect();
    let refs: Vec<&str> = names.iter().map(String::as_str).collect();
    let body = doc(&refs); // ~300 KiB
    assert!(body.len() > 4 * (64 << 10));
    let expected = format!("<o>{}</o>", names.join(""));

    for chunked in [false, true] {
        let mut wire = Vec::new();
        if chunked {
            wire.extend_from_slice(
                format!(
                    "POST {target} HTTP/1.1\r\nhost: foxq\r\ntransfer-encoding: chunked\r\n\r\n"
                )
                .as_bytes(),
            );
            for chunk in body.chunks(70_001) {
                wire.extend_from_slice(format!("{:x}\r\n", chunk.len()).as_bytes());
                wire.extend_from_slice(chunk);
                wire.extend_from_slice(b"\r\n");
            }
            wire.extend_from_slice(b"0\r\n\r\n");
        } else {
            wire.extend_from_slice(
                format!(
                    "POST {target} HTTP/1.1\r\nhost: foxq\r\ncontent-length: {}\r\n\r\n",
                    body.len()
                )
                .as_bytes(),
            );
            wire.extend_from_slice(&body);
        }
        wire.extend_from_slice(b"GET /healthz HTTP/1.1\r\nhost: foxq\r\n\r\n");

        let mut c = Client::connect(addr).unwrap();
        c.raw_writer().write_all(&wire).unwrap();
        c.raw_writer().flush().unwrap();
        let first = c.read_response().unwrap();
        assert_eq!(first.status, 200, "chunked {chunked}: {}", first.text());
        assert_eq!(first.text(), expected, "chunked {chunked}");
        let second = c.read_response().unwrap();
        assert_eq!(
            (second.status, second.text().as_str()),
            (200, "ok\n"),
            "chunked {chunked}"
        );
    }
    handle.shutdown();
}
