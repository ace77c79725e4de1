//! Throughput of the `foxq-server` HTTP front-end: requests per second on a
//! small document, measured through real sockets on loopback.
//!
//! Two axes:
//!
//! * `keepalive_roundtrips` — one persistent connection, R sequential
//!   `/query` round-trips per sample (per-request cost without the TCP
//!   handshake);
//! * `concurrent_connections` — C client threads, each a fresh connection
//!   doing one round-trip (the accept-queue + worker-pool path).
//!
//! Each benchmark line also prints the derived requests/s (the criterion
//! stand-in reports robust per-sample timing; req/s = requests ÷ mean).

use criterion::{criterion_group, criterion_main, summarize, BenchmarkId, Criterion};
use foxq_server::client::{self, Client};
use foxq_server::{Server, ServerConfig};
use std::time::{Duration, Instant};

const QUERY: &str = "<o>{$input/site/people/person/name/text()}</o>";
const DOC: &[u8] = b"<site><regions><africa><item/></africa></regions>\
    <people><person><name>Jim</name></person><person><name>Li</name></person></people></site>";

fn start_server() -> foxq_server::ServerHandle {
    Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4),
        ..ServerConfig::default()
    })
    .expect("bind")
    .start()
    .expect("start")
}

/// Report requests/s for a measured closure that performs `requests`
/// round-trips per call.
fn report_reqs_per_sec(label: &str, requests: u64, samples: &[Duration]) {
    if let Some(summary) = summarize(samples) {
        let rps = requests as f64 / summary.mean.as_secs_f64();
        println!(
            "{label}: {rps:.0} req/s (mean over {} samples)",
            summary.samples
        );
    }
}

fn bench_server_throughput(criterion: &mut Criterion) {
    let handle = start_server();
    let addr = handle.local_addr();
    let target = client::query_target(QUERY);

    let mut group = criterion.benchmark_group("server_throughput");
    group.sample_size(10);

    const ROUNDTRIPS: u64 = 200;
    let mut keepalive_samples = Vec::new();
    group.bench_function(BenchmarkId::new("keepalive_roundtrips", ROUNDTRIPS), |b| {
        let mut c = Client::connect(addr).expect("connect");
        b.iter(|| {
            let start = Instant::now();
            for _ in 0..ROUNDTRIPS {
                let r = c.request("POST", &target, &[], DOC).expect("request");
                assert_eq!(r.status, 200);
            }
            keepalive_samples.push(start.elapsed());
        })
    });

    const CONNECTIONS: u64 = 32;
    let mut concurrent_samples = Vec::new();
    group.bench_function(
        BenchmarkId::new("concurrent_connections", CONNECTIONS),
        |b| {
            b.iter(|| {
                let start = Instant::now();
                std::thread::scope(|scope| {
                    for _ in 0..CONNECTIONS {
                        scope.spawn(|| {
                            let r = client::post(addr, &target, DOC).expect("request");
                            assert_eq!(r.status, 200);
                        });
                    }
                });
                concurrent_samples.push(start.elapsed());
            })
        },
    );
    group.finish();

    report_reqs_per_sec("keepalive_roundtrips", ROUNDTRIPS, &keepalive_samples);
    report_reqs_per_sec("concurrent_connections", CONNECTIONS, &concurrent_samples);
    handle.shutdown();
}

criterion_group!(benches, bench_server_throughput);
criterion_main!(benches);
