//! End-to-end observability suite: Prometheus exposition conformance,
//! request-id / Server-Timing response headers, the slow-query ring at
//! `GET /debug/requests`, the JSONL trace log, and the liveness gauges.

use foxq::server::client::{self, Client};
use foxq::server::{Server, ServerConfig};
use foxq::service::Limits;
use std::collections::HashMap;
use std::time::Duration;

const PERSON_NAMES: &str = "<o>{$input/site/people/person/name/text()}</o>";

fn doc(persons: usize) -> Vec<u8> {
    let mut xml = String::from("<site><regions><africa><item/></africa></regions><people>");
    for i in 0..persons {
        xml.push_str(&format!("<person><name>p{i}</name></person>"));
    }
    xml.push_str("</people></site>");
    xml.into_bytes()
}

fn test_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 4,
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

/// `POST target` on a connection of its own, read to its close: the reply
/// as it was on the wire after the head (which names the request) — every
/// chunk with its size line, the last chunk, the trailers.
fn raw_chunked_reply(addr: std::net::SocketAddr, target: &str, body: &[u8]) -> String {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    let head = format!(
        "POST {target} HTTP/1.1\r\nhost: foxq\r\ncontent-length: {}\r\nconnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).unwrap();
    stream.write_all(body).unwrap();
    let mut reply = String::new();
    stream.read_to_string(&mut reply).unwrap();
    let (head, chunked) = reply.split_once("\r\n\r\n").expect("a reply head");
    assert!(head.starts_with("HTTP/1.1 200 "), "{head}");
    assert!(head.contains("transfer-encoding: chunked"), "{head}");
    chunked.to_string()
}

// ---------------------------------------------------------------------------
// A small Prometheus text-format checker
// ---------------------------------------------------------------------------

/// One parsed exposition: per-family metadata plus every sample.
struct Exposition {
    /// family -> (help seen, type string), in order of first appearance.
    families: HashMap<String, (usize, String)>,
    /// (sample name with suffix, label string, value), in document order.
    samples: Vec<(String, String, f64)>,
}

/// The family a sample belongs to: histogram suffixes fold into their
/// base name when that base is a declared histogram family.
fn family_of<'a>(name: &'a str, families: &HashMap<String, (usize, String)>) -> &'a str {
    for suffix in ["_bucket", "_sum", "_count"] {
        if let Some(base) = name.strip_suffix(suffix) {
            if families.get(base).is_some_and(|(_, t)| t == "histogram") {
                return base;
            }
        }
    }
    name
}

fn parse_exposition(text: &str) -> Exposition {
    let mut families: HashMap<String, (usize, String)> = HashMap::new();
    let mut samples = Vec::new();
    let mut seen: HashMap<(String, String), usize> = HashMap::new();
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let name = rest.split(' ').next().unwrap().to_string();
            let entry = families.entry(name).or_insert((0, String::new()));
            entry.0 += 1;
        } else if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split(' ');
            let name = parts.next().unwrap().to_string();
            let ty = parts.next().unwrap_or("").to_string();
            let entry = families.entry(name.clone()).or_insert((0, String::new()));
            assert!(entry.1.is_empty(), "duplicate TYPE for {name}");
            entry.1 = ty;
        } else {
            assert!(!line.starts_with('#'), "unknown comment line: {line}");
            let (name_labels, value) = line.rsplit_once(' ').unwrap_or_else(|| {
                panic!("sample line without a value: {line:?}");
            });
            let value: f64 = value
                .parse()
                .unwrap_or_else(|_| panic!("unparsable value in {line:?}"));
            let (name, labels) = match name_labels.split_once('{') {
                Some((n, rest)) => (n.to_string(), rest.trim_end_matches('}').to_string()),
                None => (name_labels.to_string(), String::new()),
            };
            let key = (name.clone(), labels.clone());
            *seen.entry(key.clone()).or_insert(0) += 1;
            assert_eq!(seen[&key], 1, "duplicate sample {name}{{{labels}}}");
            samples.push((name, labels, value));
        }
    }
    Exposition { families, samples }
}

impl Exposition {
    /// Every sample belongs to a family with exactly one HELP and one
    /// TYPE line.
    fn check_metadata(&self) {
        for (name, _, _) in &self.samples {
            let family = family_of(name, &self.families);
            let (help_count, ty) = self
                .families
                .get(family)
                .unwrap_or_else(|| panic!("sample {name} has no # TYPE metadata"));
            assert_eq!(*help_count, 1, "family {family}: {help_count} HELP lines");
            assert!(
                matches!(ty.as_str(), "counter" | "gauge" | "histogram"),
                "family {family} has unexpected type {ty:?}"
            );
        }
    }

    /// Histogram buckets are cumulative, le-ordered, end at `+Inf`, and
    /// agree with `_count`; `_sum` exists for each series.
    fn check_histograms(&self) {
        // (family, labels-minus-le) -> ordered (le, value).
        let mut buckets: HashMap<(String, String), Vec<(f64, f64)>> = HashMap::new();
        let mut counts: HashMap<(String, String), f64> = HashMap::new();
        let mut sums: HashMap<(String, String), f64> = HashMap::new();
        for (name, labels, value) in &self.samples {
            let family = family_of(name, &self.families).to_string();
            if self.families.get(&family).map(|(_, t)| t.as_str()) != Some("histogram") {
                continue;
            }
            if name.ends_with("_bucket") {
                let (rest, le) = labels
                    .rsplit_once("le=\"")
                    .unwrap_or_else(|| panic!("bucket without le: {name}{{{labels}}}"));
                let le = le.trim_end_matches('"');
                let le = if le == "+Inf" {
                    f64::INFINITY
                } else {
                    le.parse().unwrap()
                };
                let series = rest.trim_end_matches(',').to_string();
                buckets
                    .entry((family, series))
                    .or_default()
                    .push((le, *value));
            } else if name.ends_with("_count") {
                counts.insert((family, labels.clone()), *value);
            } else if name.ends_with("_sum") {
                sums.insert((family, labels.clone()), *value);
            }
        }
        assert!(!buckets.is_empty(), "no histogram series found");
        for ((family, series), ladder) in &buckets {
            let key = (family.clone(), series.clone());
            for pair in ladder.windows(2) {
                assert!(
                    pair[0].0 < pair[1].0,
                    "{family}{{{series}}}: le not increasing"
                );
                assert!(
                    pair[0].1 <= pair[1].1,
                    "{family}{{{series}}}: buckets not cumulative"
                );
            }
            let (last_le, last_count) = *ladder.last().unwrap();
            assert!(
                last_le.is_infinite(),
                "{family}{{{series}}}: ladder does not end at +Inf"
            );
            let count = counts
                .get(&key)
                .unwrap_or_else(|| panic!("{family}{{{series}}}: no _count"));
            assert_eq!(
                last_count, *count,
                "{family}{{{series}}}: +Inf bucket != _count"
            );
            assert!(sums.contains_key(&key), "{family}{{{series}}}: no _sum");
        }
    }

    /// Every counter sample (including histogram buckets/counts/sums) in
    /// `earlier` is still present and did not decrease.
    fn check_monotone_from(&self, earlier: &Exposition) {
        let now: HashMap<(String, String), f64> = self
            .samples
            .iter()
            .map(|(n, l, v)| ((n.clone(), l.clone()), *v))
            .collect();
        let mut compared = 0;
        for (name, labels, value) in &earlier.samples {
            let family = family_of(name, &earlier.families);
            let ty = earlier.families[family].1.as_str();
            if ty == "gauge" {
                continue; // gauges may legitimately go down
            }
            let later = now
                .get(&(name.clone(), labels.clone()))
                .unwrap_or_else(|| panic!("{name}{{{labels}}} vanished between scrapes"));
            assert!(
                later >= value,
                "{name}{{{labels}}} went backwards: {value} -> {later}"
            );
            compared += 1;
        }
        assert!(compared > 50, "only {compared} counter samples compared");
    }
}

fn scrape(c: &mut Client) -> String {
    let r = c.request("GET", "/metrics", &[], &[]).unwrap();
    assert_eq!(r.status, 200);
    r.text()
}

#[test]
fn exposition_is_conformant_and_counters_are_monotone() {
    let handle = start(test_config());
    let addr = handle.local_addr();
    let target = client::query_target(PERSON_NAMES);

    let mut c = Client::connect(addr).unwrap();
    for _ in 0..3 {
        let r = c.request("POST", &target, &[], &doc(50)).unwrap();
        assert_eq!(r.status, 200);
    }
    let first = parse_exposition(&scrape(&mut c));
    first.check_metadata();
    first.check_histograms();

    // More traffic, including an error, then a second scrape.
    for _ in 0..3 {
        let r = c.request("POST", &target, &[], &doc(10)).unwrap();
        assert_eq!(r.status, 200);
    }
    assert_eq!(c.request("GET", "/nope", &[], &[]).unwrap().status, 404);
    let second = parse_exposition(&scrape(&mut c));
    second.check_metadata();
    second.check_histograms();
    second.check_monotone_from(&first);

    // The request-latency histogram actually collected the queries.
    let query_count = second
        .samples
        .iter()
        .find(|(n, l, _)| n == "foxq_request_latency_seconds_count" && l.contains("query"))
        .map(|(_, _, v)| *v)
        .unwrap();
    assert!(query_count >= 6.0, "query latency count {query_count}");

    handle.shutdown();
}

#[test]
fn responses_carry_request_id_and_server_timing() {
    let handle = start(test_config());
    let addr = handle.local_addr();
    let target = client::query_target(PERSON_NAMES);

    let mut c = Client::connect(addr).unwrap();
    // A document big enough that execute time cannot round to zero.
    let r1 = c.request("POST", &target, &[], &doc(2000)).unwrap();
    assert_eq!(r1.status, 200);
    let id1 = r1
        .header("x-foxq-request-id")
        .expect("request id")
        .to_string();
    assert_eq!(id1.len(), 16, "id {id1:?} is not 16 hex chars");
    assert!(id1.chars().all(|ch| ch.is_ascii_hexdigit()));
    let timing = r1
        .header("server-timing")
        .expect("server-timing")
        .to_string();
    assert!(
        timing.contains("total;dur="),
        "no total entry in {timing:?}"
    );
    assert!(
        timing.contains("execute;dur="),
        "no execute entry in {timing:?}"
    );

    // Ids are unique per request; even a 404 carries them.
    let r2 = c.request("GET", "/nope", &[], &[]).unwrap();
    let id2 = r2.header("x-foxq-request-id").unwrap();
    assert_ne!(id1, id2);
    assert!(r2.header("server-timing").is_some());

    // Every stage named in the header was also recorded in the
    // engine-stage histograms (same snapshot feeds both).
    let metrics = scrape(&mut c);
    for entry in timing.split(", ") {
        let stage = entry.split(';').next().unwrap();
        if stage == "total" {
            continue;
        }
        let needle = format!("foxq_engine_stage_seconds_count{{stage=\"{stage}\"}}");
        let line = metrics
            .lines()
            .find(|l| l.starts_with(&needle))
            .unwrap_or_else(|| panic!("no histogram samples for stage {stage}"));
        let count: f64 = line.rsplit(' ').next().unwrap().parse().unwrap();
        assert!(count >= 1.0, "stage {stage} has zero histogram samples");
    }

    handle.shutdown();
}

#[test]
fn slow_query_ring_and_trace_log_capture_requests() {
    let log_path = std::env::temp_dir().join(format!("foxq_trace_{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&log_path);
    let handle = start(ServerConfig {
        slow_ms: 0, // trace everything
        trace_log: Some(log_path.to_str().unwrap().to_string()),
        ..test_config()
    });
    let addr = handle.local_addr();
    let target = client::query_target(PERSON_NAMES);

    let r = client::post(addr, &target, &doc(5)).unwrap();
    assert_eq!(r.status, 200);
    let id = r.header("x-foxq-request-id").unwrap().to_string();

    let debug = client::get(addr, "/debug/requests").unwrap();
    assert_eq!(debug.status, 200);
    let dump = debug.text();
    assert!(
        dump.contains(&format!("id={id}")),
        "ring misses {id}:\n{dump}"
    );
    assert!(dump.contains("target=query"), "no query record:\n{dump}");
    assert!(dump.contains("POST /query"), "no detail:\n{dump}");

    handle.shutdown();
    let log = std::fs::read_to_string(&log_path).unwrap();
    assert!(log.lines().count() >= 2, "trace log too short:\n{log}");
    assert!(log.lines().all(|l| l.starts_with('{') && l.ends_with('}')));
    assert!(log.contains(&format!("\"id\":\"{id}\"")));
    assert!(log.contains("\"stages_us\""));
    let _ = std::fs::remove_file(&log_path);
}

#[test]
fn profiler_endpoint_headers_and_json_ring() {
    let log_path = std::env::temp_dir().join(format!("foxq_prof_{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&log_path);
    let handle = start(ServerConfig {
        profile: true,
        slow_ms: 0, // every request through the ring
        trace_log: Some(log_path.to_str().unwrap().to_string()),
        ..test_config()
    });
    let addr = handle.local_addr();
    let target = client::query_target(PERSON_NAMES);

    let mut c = Client::connect(addr).unwrap();
    let r = c.request("POST", &target, &[], &doc(50)).unwrap();
    assert_eq!(r.status, 200);
    let peak_bytes: u64 = r
        .header("x-foxq-peak-live-bytes")
        .expect("x-foxq-peak-live-bytes header")
        .parse()
        .unwrap();
    assert!(peak_bytes > 0, "peak live bytes must be nonzero");

    // The registry renders the run: aggregates, hot-state rows, timeline.
    let p = c.request("GET", "/debug/profile", &[], &[]).unwrap();
    assert_eq!(p.status, 200);
    let text = p.text();
    assert!(text.contains("runs=1"), "no run recorded:\n{text}");
    assert!(text.contains("peak_live_bytes"), "no aggregates:\n{text}");
    assert!(text.contains("hot states"), "no hot-state table:\n{text}");
    assert!(text.contains("buffer timeline"), "no timeline:\n{text}");

    // A second identical query folds into the same profile entry.
    assert_eq!(
        c.request("POST", &target, &[], &doc(50)).unwrap().status,
        200
    );
    let text = c.request("GET", "/debug/profile", &[], &[]).unwrap().text();
    assert!(text.contains("runs=2"), "runs did not fold:\n{text}");

    // A third one, streamed, is sampled like the buffered two — and shows
    // it nowhere in the reply: the chunks, one by one, and the trailers
    // are those of a server that does not profile. The first prefix leaves
    // alone, at once; the rest of the answer, certain before the server
    // reads more of the socket, leaves as one chunk.
    let streamed_target = format!("{target}&stream=1");
    let streamed = raw_chunked_reply(addr, &streamed_target, &doc(50));
    let text = c.request("GET", "/debug/profile", &[], &[]).unwrap().text();
    assert!(text.contains("runs=3"), "streamed run not sampled:\n{text}");
    let names: String = (0..50).map(|i| format!("p{i}")).collect();
    let rest = format!("{names}</o>");
    let shape = format!("3\r\n<o>\r\n{:x}\r\n{rest}\r\n0\r\n", rest.len());
    assert!(streamed.starts_with(&shape), "{streamed}");
    assert!(streamed.contains("\r\nx-foxq-emit-flushes: "), "{streamed}");
    let unprofiled = start(test_config());
    let plain = raw_chunked_reply(unprofiled.local_addr(), &streamed_target, &doc(50));
    unprofiled.shutdown();
    assert_eq!(streamed, plain);

    // The slow-query ring serves JSON when asked.
    let json = c
        .request("GET", "/debug/requests?format=json", &[], &[])
        .unwrap();
    assert_eq!(json.status, 200);
    let body = json.text();
    assert!(body.lines().count() >= 2, "ring json too short:\n{body}");
    assert!(body.lines().all(|l| l.starts_with('{') && l.ends_with('}')));
    assert!(body.contains("\"target\":\"query\""), "{body}");

    // The new metric families collected the runs, and the process-level
    // memory gauges report.
    let metrics = scrape(&mut c);
    let sample = |name: &str| -> f64 {
        metrics
            .lines()
            .find(|l| l.starts_with(name) && l[name.len()..].starts_with(' '))
            .and_then(|l| l.rsplit(' ').next())
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("metric {name} not found"))
    };
    assert!(sample("foxq_live_nodes_peak_count") >= 3.0);
    assert!(sample("foxq_live_bytes_peak_count") >= 3.0);
    assert!(sample("foxq_alloc_bytes_per_request_count") >= 3.0);
    assert!(sample("foxq_alloc_allocations_total") > 0.0);
    assert!(sample("foxq_process_rss_bytes") > 0.0);

    handle.shutdown();
    // Profile records ride in the same JSONL stream as the traces.
    let log = std::fs::read_to_string(&log_path).unwrap();
    let profiles = log.lines().filter(|l| l.starts_with("{\"profile\":"));
    assert_eq!(profiles.count(), 3, "one profile record per run:\n{log}");
    assert!(log.contains("\"hot_states\""), "no hot states:\n{log}");
    let _ = std::fs::remove_file(&log_path);
}

#[test]
fn debug_profile_is_disabled_without_the_flag() {
    let handle = start(test_config());
    let r = client::get(handle.local_addr(), "/debug/profile").unwrap();
    assert_eq!(r.status, 503);
    assert!(r.text().contains("--profile"));
    handle.shutdown();
}

#[test]
fn liveness_gauges_and_accept_gate_counter() {
    let mut config = test_config();
    config.limits.max_connections = 1;
    let handle = start(config);
    let addr = handle.local_addr();

    // The single allowed connection: accepting it closes the gate, which
    // is exactly the rejection event the counter records.
    let mut c = Client::connect(addr).unwrap();
    let r = c.request("GET", "/healthz", &[], &[]).unwrap();
    assert_eq!(r.status, 200);

    let metrics = scrape(&mut c);
    let gauge = |name: &str| -> f64 {
        metrics
            .lines()
            .find(|l| l.starts_with(name) && l[name.len()..].starts_with(' '))
            .and_then(|l| l.rsplit(' ').next())
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("metric {name} not found"))
    };
    assert!(gauge("foxq_connections_active") >= 1.0);
    assert!(gauge("foxq_accept_gate_rejections_total") >= 1.0);
    assert_eq!(gauge("foxq_connections_lingering"), 0.0);

    handle.shutdown();
}
