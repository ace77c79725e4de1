//! Healthy-client throughput while slow-loris connections trickle.
//!
//! The attack shape: N connections each send a valid request head at
//! ~1 byte/s and never finish it. Under the old blocking worker pool every
//! such connection parked a worker inside `read` for the full read timeout,
//! so N ≥ threads wedged the server. Under the epoll reactor a trickling
//! head is just a buffer the reactor appends to on readiness — workers
//! never see it — so healthy-client throughput should be flat in N.
//!
//! Two measured points: healthy keep-alive `/query` round-trips with 0 and
//! with 64 stalled connections, plus the derived ratio. The CI-enforced
//! bound lives in `tests/slow_loris.rs`; this bench is for watching the
//! numbers.

use criterion::{criterion_group, criterion_main, summarize, BenchmarkId, Criterion};
use foxq_server::client::{self, Client};
use foxq_server::{Server, ServerConfig};
use foxq_service::Limits;
use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const QUERY: &str = "<o>{$input/site/people/person/name/text()}</o>";
const DOC: &[u8] = b"<site><regions><africa><item/></africa></regions>\
    <people><person><name>Jim</name></person><person><name>Li</name></person></people></site>";

fn start_server() -> foxq_server::ServerHandle {
    Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        // Long enough that the stalled connections outlive the measurement
        // (the reactor's head deadline would otherwise reap them, which is
        // the defense but not what we are measuring).
        limits: Limits {
            read_timeout: Duration::from_secs(60),
            ..Limits::serving()
        },
        ..ServerConfig::default()
    })
    .expect("bind")
    .start()
    .expect("start")
}

/// A pack of slow-loris connections: each opens, sends a partial head, and
/// then trickles one header byte per second until dropped.
struct LorisPack {
    stop: Arc<AtomicBool>,
    feeder: Option<std::thread::JoinHandle<()>>,
}

impl LorisPack {
    fn hold(addr: std::net::SocketAddr, count: usize) -> LorisPack {
        let mut conns = Vec::with_capacity(count);
        for _ in 0..count {
            let mut c = Client::connect(addr).expect("loris connect");
            c.raw_writer()
                .write_all(b"GET /healthz HTTP/1.1\r\nhost: loris\r\nx-drip: ")
                .expect("loris head start");
            c.raw_writer().flush().ok();
            conns.push(c);
        }
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = stop.clone();
        let feeder = std::thread::spawn(move || {
            while !stop2.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_secs(1));
                for c in &mut conns {
                    // ~1 byte/s of header, never completing the line.
                    let _ = c.raw_writer().write_all(b"a");
                }
            }
        });
        LorisPack {
            stop,
            feeder: Some(feeder),
        }
    }
}

impl Drop for LorisPack {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(f) = self.feeder.take() {
            let _ = f.join();
        }
    }
}

fn report_reqs_per_sec(label: &str, requests: u64, samples: &[Duration]) -> Option<f64> {
    let summary = summarize(samples)?;
    let rps = requests as f64 / summary.mean.as_secs_f64();
    println!(
        "{label}: {rps:.0} req/s (mean over {} samples)",
        summary.samples
    );
    Some(rps)
}

fn bench_slow_loris(criterion: &mut Criterion) {
    let handle = start_server();
    let addr = handle.local_addr();
    let target = client::query_target(QUERY);

    let mut group = criterion.benchmark_group("slow_loris");
    group.sample_size(10);

    const ROUNDTRIPS: u64 = 200;
    let mut all_samples = Vec::new();
    for stalled in [0usize, 64] {
        let pack = (stalled > 0).then(|| LorisPack::hold(addr, stalled));
        let mut samples = Vec::new();
        group.bench_function(BenchmarkId::new("healthy_under_stalled", stalled), |b| {
            let mut c = Client::connect(addr).expect("connect");
            b.iter(|| {
                let start = Instant::now();
                for _ in 0..ROUNDTRIPS {
                    let r = c.request("POST", &target, &[], DOC).expect("request");
                    assert_eq!(r.status, 200);
                }
                samples.push(start.elapsed());
            })
        });
        drop(pack);
        all_samples.push((stalled, samples));
    }
    group.finish();

    let rates: Vec<(usize, f64)> = all_samples
        .iter()
        .filter_map(|(stalled, samples)| {
            report_reqs_per_sec(
                &format!("healthy_under_stalled/{stalled}"),
                ROUNDTRIPS,
                samples,
            )
            .map(|rps| (*stalled, rps))
        })
        .collect();
    if let [(_, unloaded), (_, loaded)] = rates.as_slice() {
        println!(
            "slow_loris: 64 stalled connections keep {:.0}% of unloaded throughput",
            100.0 * loaded / unloaded
        );
    }
    handle.shutdown();
}

criterion_group!(benches, bench_slow_loris);
criterion_main!(benches);
