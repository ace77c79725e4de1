//! `benchmark e2e`: the end-to-end pass. It reaches the program only across
//! the process boundary — `foxq run` / `foxq store add` children and a
//! `foxq serve` child spoken to over loopback HTTP — and calls no `foxq_*`
//! function, so it keeps measuring the same thing while the library's
//! entry points are renamed underneath it.
//!
//! Closed loop, one client: the next op starts when the previous one has
//! finished. Ops are grouped into rounds; every metric is the quiet
//! quartile over rounds of the round's own value, because on a shared
//! machine interference only ever slows a round down.

use crate::affinity;
use crate::args::Args;
use crate::hash::Fingerprint;
use crate::http::{urlencode, Conn, Exchange, Request};
use crate::metrics::{Metric, Row, Tally};
use crate::proc::{self, run_cli, CliOp};
use crate::server::ServerChild;
use crate::stats::{percentile, samples_beyond};
use crate::workdir::WorkDir;
use crate::workloads::{self, Kind, Workload};
use std::ffi::OsStr;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Set-up is repeated and its median reported, so one slow start does not
/// read as a regression of `setup_s`.
const SETUP_REPS: usize = 5;
/// Rounds a timed phase runs at least, however short `--seconds` is.
const MIN_ROUNDS: usize = 5;

pub fn run(args: &Args) -> Result<Row, String> {
    let w = workloads::find(args.required("workload")?)?;
    let wd = WorkDir::new(args.required("dir")?, args.required("queries")?);
    let foxq = PathBuf::from(args.required("foxq")?);
    let seconds: f64 = args.parsed("seconds")?;
    let budget = Duration::from_secs_f64(seconds);
    affinity::place(w.placement);
    let row = if w.kind.is_http() {
        http_workload(w, &wd, &foxq, budget)?
    } else {
        cli_workload(w, &wd, &foxq, budget)?
    };
    wd.write_json("e2e.json", &row.to_json())?;
    Ok(row)
}

/// Per-round values of a timed phase, one entry per round.
#[derive(Default)]
struct Rounds {
    wall_s: Vec<f64>,
    cpu_ms: Vec<f64>,
    latency_p50_ms: Vec<f64>,
    latency_p90_ms: Vec<f64>,
    ttfb_p50_ms: Vec<f64>,
}

impl Rounds {
    fn series(&self) -> Vec<(&'static str, Vec<f64>)> {
        vec![
            ("round_wall_s", self.wall_s.clone()),
            ("round_cpu_ms", self.cpu_ms.clone()),
            ("round_latency_p50_ms", self.latency_p50_ms.clone()),
            ("round_latency_p90_ms", self.latency_p90_ms.clone()),
            ("round_ttfb_p50_ms", self.ttfb_p50_ms.clone()),
        ]
    }

    /// Close a round: its wall and CPU time, and the nearest-rank
    /// percentiles over its ops. In a CLI round every query runs exactly
    /// once, so a percentile always lands on the same query (or one that
    /// costs the same) and does not jump between the modes of the mix.
    fn push(&mut self, wall_s: f64, cpu_ms: f64, latency_ms: &[f64], ttfb_ms: &[f64]) {
        self.wall_s.push(wall_s);
        self.cpu_ms.push(cpu_ms);
        self.latency_p50_ms.push(percentile(latency_ms, 50.0));
        self.latency_p90_ms.push(percentile(latency_ms, 90.0));
        self.ttfb_p50_ms.push(percentile(ttfb_ms, 50.0));
    }
}

/// Turn the rounds into the eight end-to-end metrics, each the quiet
/// quartile over rounds of the round's own value (see `Metric::quiet_low`).
/// `round_mb` is the document megabytes (10⁶ B) one round puts through the
/// program.
fn end_to_end_metrics(
    setups_s: &[f64],
    rounds: &Rounds,
    ops_per_round: usize,
    round_mb: f64,
    peak_rss_kb: u64,
) -> Vec<Metric> {
    let throughput: Vec<f64> = rounds.wall_s.iter().map(|s| round_mb / s).collect();
    let rate: Vec<f64> = rounds
        .wall_s
        .iter()
        .map(|s| ops_per_round as f64 / s)
        .collect();
    let cpu: Vec<f64> = rounds.cpu_ms.iter().map(|ms| ms / round_mb).collect();
    vec![
        Metric::quiet_low("setup_s", setups_s),
        Metric::quiet_high("throughput_mb_s", &throughput),
        Metric::quiet_low("cpu_ms_per_mb", &cpu),
        Metric::single("peak_rss_mb", peak_rss_kb as f64 * 1024.0 / 1e6),
        Metric::quiet_high("requests_per_s", &rate),
        Metric::quiet_low("latency_p50_ms", &rounds.latency_p50_ms),
        Metric::quiet_low("latency_p90_ms", &rounds.latency_p90_ms),
        Metric::quiet_low("ttfb_p50_ms", &rounds.ttfb_p50_ms),
    ]
}

fn doc_megabytes(wd: &WorkDir) -> Result<f64, String> {
    let path = wd.doc_xml();
    let meta = std::fs::metadata(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(meta.len() as f64 / 1e6)
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

// ---------------------------------------------------------------------------
// CLI workloads
// ---------------------------------------------------------------------------

fn cli_workload(w: &Workload, wd: &WorkDir, foxq: &Path, budget: Duration) -> Result<Row, String> {
    // `foxq run` ends its output with a newline the reference does not have.
    let refs: Vec<Fingerprint> = wd
        .read_refs(w)?
        .into_iter()
        .map(|r| r.extended(b"\n"))
        .collect();
    let queries: Vec<PathBuf> = w.queries.iter().map(|q| wd.query_path(q)).collect();
    let doc_mb = doc_megabytes(wd)?;
    let input = match w.kind {
        Kind::CliTape => wd.corpus().join("doc.fet"),
        _ => wd.doc_xml(),
    };
    let mut tally = Tally::default();
    let mut peak_rss_kb = 0u64;
    let mut op = |query: &Path, expect: Fingerprint, tally: &mut Tally| -> Result<CliOp, String> {
        let args: [&OsStr; 3] = ["run".as_ref(), query.as_ref(), input.as_ref()];
        let op = run_cli(foxq, &args)?;
        tally.note(op.reaped.exit_ok && op.stdout == expect);
        peak_rss_kb = peak_rss_kb.max(op.reaped.max_rss_kb);
        Ok(op)
    };

    // Set-up: what the program does before the first timed op — ingest for
    // the corpus workload, then one untimed pass per (query, document) pair
    // so page cache and allocator are warm.
    let mut setups_s = Vec::new();
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        if w.kind == Kind::CliTape {
            let corpus = wd.corpus();
            let _ = std::fs::remove_dir_all(&corpus);
            let doc = wd.doc_xml();
            let args: [&OsStr; 7] = [
                "store".as_ref(),
                "add".as_ref(),
                "--dir".as_ref(),
                corpus.as_ref(),
                "--id".as_ref(),
                "doc".as_ref(),
                doc.as_ref(),
            ];
            let add = run_cli(foxq, &args)?;
            tally.note(add.reaped.exit_ok && input.is_file());
        }
        for _ in 0..w.warmup_ops {
            for (query, expect) in queries.iter().zip(&refs) {
                op(query, *expect, &mut tally)?;
            }
        }
        setups_s.push(start.elapsed().as_secs_f64());
    }
    let warmup_ops = tally.attempted;

    let mut rounds = Rounds::default();
    let phase = Instant::now();
    while rounds.wall_s.len() < MIN_ROUNDS || phase.elapsed() < budget {
        let start = Instant::now();
        let mut cpu_ms = 0.0;
        let mut latency = Vec::with_capacity(queries.len());
        let mut ttfb = Vec::with_capacity(queries.len());
        for (query, expect) in queries.iter().zip(&refs) {
            let op = op(query, *expect, &mut tally)?;
            cpu_ms += op.reaped.cpu_ms;
            latency.push(ms(op.wall_ns));
            ttfb.push(ms(op.first_byte_ns));
        }
        rounds.push(start.elapsed().as_secs_f64(), cpu_ms, &latency, &ttfb);
    }
    let round_mb = doc_mb * queries.len() as f64;
    let metrics = end_to_end_metrics(&setups_s, &rounds, queries.len(), round_mb, peak_rss_kb);
    Ok(Row {
        workload: w.name,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        counts: vec![
            ("rounds", rounds.wall_s.len() as f64),
            ("ops_per_round", queries.len() as f64),
            ("timed_ops", (tally.attempted - warmup_ops) as f64),
            ("setup_ops", warmup_ops as f64),
            (
                "p90_samples_beyond_per_round",
                samples_beyond(queries.len(), 90.0) as f64,
            ),
        ],
        series: rounds.series(),
    })
}

// ---------------------------------------------------------------------------
// HTTP workloads
// ---------------------------------------------------------------------------

fn http_workload(w: &Workload, wd: &WorkDir, foxq: &Path, budget: Duration) -> Result<Row, String> {
    let expect = wd.read_refs(w)?[0];
    let query = wd.query_source(w.queries[0])?;
    let mut target = format!("/query?q={}", urlencode(&query));
    if w.kind == Kind::HttpStream {
        target.push_str("&stream=1");
    }
    let body = std::fs::read(wd.doc_xml()).map_err(|e| format!("doc.xml: {e}"))?;
    let doc_mb = body.len() as f64 / 1e6;
    let request = Request::new("POST", &target, &body);
    drop(body);
    let mut tally = Tally::default();

    // Set-up: server start → /healthz OK → warm-up requests (the first one
    // compiles the query; the rest hit the cache). The last server started
    // serves the timed phase.
    let mut setups_s = Vec::new();
    let mut running = None;
    for rep in 0..SETUP_REPS {
        let start = Instant::now();
        let server = ServerChild::start(foxq)?;
        let mut conn = Conn::connect(server.addr).map_err(|e| format!("connect: {e}"))?;
        for _ in 0..w.warmup_ops {
            let x = conn
                .exchange(&request)
                .map_err(|e| format!("warm-up request: {e}"))?;
            tally.note(accepted(&x, expect, w.kind));
        }
        setups_s.push(start.elapsed().as_secs_f64());
        if rep + 1 < SETUP_REPS {
            drop(conn);
            server.shutdown()?;
        } else {
            running = Some((server, conn));
        }
    }
    let (server, mut conn) = running.expect("SETUP_REPS is at least 1");
    let warmup_ops = tally.attempted;

    let mut rounds = Rounds::default();
    let mut chunks = 0usize;
    let phase = Instant::now();
    while rounds.wall_s.len() < MIN_ROUNDS || phase.elapsed() < budget {
        // `/proc/<pid>/stat` counts in clock ticks (10 ms); a round is sized
        // to burn dozens of them.
        let cpu_before = proc::cpu_ms_of(server.pid())?;
        let start = Instant::now();
        let mut latency = Vec::with_capacity(w.ops_per_round);
        let mut ttfb = Vec::with_capacity(w.ops_per_round);
        for _ in 0..w.ops_per_round {
            let x = conn
                .exchange(&request)
                .map_err(|e| format!("request: {e}"))?;
            tally.note(accepted(&x, expect, w.kind));
            latency.push(ms(x.total_ns));
            ttfb.push(ms(x.first_byte_ns));
            chunks = x.chunks;
        }
        let wall_s = start.elapsed().as_secs_f64();
        let cpu_ms = proc::cpu_ms_of(server.pid())? - cpu_before;
        rounds.push(wall_s, cpu_ms, &latency, &ttfb);
    }
    let peak_rss_kb = proc::vm_hwm_kb_of(server.pid())?;
    drop(conn);
    server.shutdown()?;

    let round_mb = doc_mb * w.ops_per_round as f64;
    let metrics = end_to_end_metrics(&setups_s, &rounds, w.ops_per_round, round_mb, peak_rss_kb);
    Ok(Row {
        workload: w.name,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        counts: vec![
            ("rounds", rounds.wall_s.len() as f64),
            ("ops_per_round", w.ops_per_round as f64),
            ("timed_ops", (tally.attempted - warmup_ops) as f64),
            ("setup_ops", warmup_ops as f64),
            (
                "p90_samples_beyond_per_round",
                samples_beyond(w.ops_per_round, 90.0) as f64,
            ),
            ("chunks_last_response", chunks as f64),
        ],
        series: rounds.series(),
    })
}

/// A response counts as a success when it is a complete 200 whose body is
/// the reference output; a streamed one must also have arrived chunked and
/// closed with the run statistics as trailers.
fn accepted(x: &Exchange, expect: Fingerprint, kind: Kind) -> bool {
    let streamed_properly = || {
        x.chunks > 0
            && x.trailer("x-foxq-output-events")
                .is_some_and(|v| v.parse::<u64>().is_ok())
    };
    x.status == 200
        && x.complete
        && x.body == expect
        && (kind != Kind::HttpStream || streamed_properly())
}
