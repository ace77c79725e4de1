//! `benchmark layers`: the traced pass. It times calls into each crate's
//! public functions (all of them behind `adapter.rs`) over the workload's
//! own document, replays every (query, document) pair of the workload stage
//! by stage under spans, and talks to a `foxq serve` child for the server
//! probes. End-to-end metrics are never measured here.

use crate::adapter::{self, Compiled, Doc, Shape};
use crate::affinity::{self, Placement};
use crate::args::{parse_seed, Args};
use crate::hash::Fingerprint;
use crate::http::{urlencode, Conn, Request};
use crate::json::Json;
use crate::metrics::{Metric, Row, Tally, PER_LAYER};
use crate::proc::run_cli;
use crate::server::ServerChild;
use crate::span::Spans;
use crate::stats::{percentile, quiet_low};
use crate::workdir::{write_file, WorkDir};
use crate::workloads::{self, Kind, Workload};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Every timed probe is the quiet quartile (`Metric::quiet_low`) of at least
/// this many repetitions …
const MIN_REPS: usize = 7;
/// … except the two multi-query passes, which tokenize the document seven
/// times per repetition between them.
const MIN_REPS_MULTI: usize = 3;
/// Timed probes sharing `--seconds`: each repeats until its share is used.
const TIMED_PROBES: f64 = 24.0;
/// A sample is stretched over enough calls to last this long, so the clock
/// reads around it stay negligible.
const MIN_SAMPLE: Duration = Duration::from_micros(200);
/// Keep-alive round trips behind each server probe.
const SERVER_PROBE_REQUESTS: usize = 2000;

/// Repeated timing of one call.
struct Bench {
    slice: Duration,
}

/// Nanoseconds per call, one entry per sample.
struct Timing(Vec<f64>);

impl Timing {
    /// The undisturbed cost of one call: the quiet quartile of the samples.
    fn quiet_ns(&self) -> f64 {
        quiet_low(&self.0)
    }

    /// A lower-is-better metric computed from each sample's nanoseconds.
    fn cost(&self, name: &str, from_ns: impl Fn(f64) -> f64) -> Metric {
        let values: Vec<f64> = self.0.iter().map(|&ns| from_ns(ns)).collect();
        Metric::quiet_low(name, &values)
    }

    /// A higher-is-better metric computed from each sample's nanoseconds.
    fn rate(&self, name: &str, from_ns: impl Fn(f64) -> f64) -> Metric {
        let values: Vec<f64> = self.0.iter().map(|&ns| from_ns(ns)).collect();
        Metric::quiet_high(name, &values)
    }
}

impl Bench {
    fn time_at_least(&self, min_reps: usize, mut f: impl FnMut()) -> Timing {
        let started = Instant::now();
        f();
        let once = started.elapsed();
        let calls = (MIN_SAMPLE.as_nanos() / once.as_nanos().max(1) + 1) as usize;
        let mut samples = Vec::new();
        while samples.len() < min_reps || (started.elapsed() < self.slice && samples.len() < 10_000)
        {
            let t = Instant::now();
            for _ in 0..calls {
                f();
            }
            samples.push(t.elapsed().as_nanos() as f64 / calls as f64);
        }
        Timing(samples)
    }

    fn time(&self, f: impl FnMut()) -> Timing {
        self.time_at_least(MIN_REPS, f)
    }
}

/// Everything one traced pass works on and accumulates.
struct Pass<'a> {
    bench: Bench,
    w: &'a Workload,
    wd: &'a WorkDir,
    foxq: &'a Path,
    /// The workload's document.
    xml: &'a [u8],
    seed: u64,
    /// Where the store probes leave the document as a tape.
    tape: PathBuf,
    metrics: Vec<Metric>,
    tally: Tally,
    spans: Spans,
}

pub fn run(args: &Args) -> Result<Row, String> {
    let w = workloads::find(args.required("workload")?)?;
    let wd = WorkDir::new(args.required("dir")?, args.required("queries")?);
    let foxq = PathBuf::from(args.required("foxq")?);
    let seconds: f64 = args.parsed("seconds")?;
    let seed = parse_seed(args.required("seed")?)?;
    let build_s: f64 = args.parsed_or("build-s", 0.0)?;
    // In-process probes run on the harness's CPU anyway; the server probes
    // are sub-millisecond ping-pongs.
    affinity::place(Placement::Together);

    let xml = std::fs::read(wd.doc_xml()).map_err(|e| format!("doc.xml: {e}"))?;
    let refs = wd.read_refs(w)?;
    let mut pass = Pass {
        bench: Bench {
            slice: Duration::from_secs_f64(seconds / TIMED_PROBES),
        },
        w,
        wd: &wd,
        foxq: &foxq,
        xml: &xml,
        seed,
        tape: wd.dir.join("layers.fet"),
        metrics: Vec::new(),
        tally: Tally::default(),
        spans: Spans::default(),
    };

    pass.compile_probes()?;
    let events = adapter::tokenize(&xml)?;
    let q1 = adapter::compile(&wd.query_source("Q1")?)?;
    pass.xml_probes(events.len())?;
    pass.core_probes(&q1, &events)?;
    pass.service_probes(&q1, &events)?;
    pass.store_probes(&q1)?;
    pass.gcx_probes(&q1)?;
    drop(events);
    let closure_ratio = pass.traced_replay(&refs)?;
    pass.server_probes(refs[0])?;
    pass.harness_probes(build_s, closure_ratio)?;

    let Pass {
        mut metrics,
        tally,
        spans,
        ..
    } = pass;
    if let Some(path) = args.get("trace-out") {
        write_file(Path::new(path), spans.to_jsonl().as_bytes())?;
    }
    // Report in the declared order, whatever order the probes ran in.
    metrics.sort_by_key(|m| PER_LAYER.iter().position(|(n, _)| *n == m.name));
    let traced_ops = spans.spans().iter().filter(|s| s.parent.is_none()).count();
    let row = Row {
        workload: w.name,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        counts: vec![
            ("document_bytes", xml.len() as f64),
            ("traced_ops", traced_ops as f64),
            ("spans", spans.spans().len() as f64),
        ],
        series: Vec::new(),
    };
    wd.write_json("layers.json", &row.to_json())?;
    Ok(row)
}

fn mb(bytes: usize) -> f64 {
    bytes as f64 / 1e6
}

impl Pass<'_> {
    /// Report a value that is not a timing: an exact count, or a ratio of
    /// two quiet quartiles.
    fn exact(&mut self, name: &str, value: f64) {
        self.metrics.push(Metric::single(name, value));
    }

    /// Count one output checked against the DOM reference.
    fn verify(tally: &mut Tally, what: &str, got: Fingerprint, expect: Fingerprint) {
        if got != expect {
            eprintln!("layers: {what}: output differs from the DOM reference");
        }
        tally.note(got == expect);
    }

    fn compile(&self, query: &str) -> Result<Compiled, String> {
        adapter::compile(&self.wd.query_source(query)?)
    }

    // --- xquery + core: compile ---------------------------------------------

    /// Parse, translate and optimize each of the workload's queries; the
    /// metrics are sums over the queries (the fixed cost one round pays).
    fn compile_probes(&mut self) -> Result<(), String> {
        let (mut parse_us, mut translate_us, mut optimize_us) = (0.0, 0.0, 0.0);
        for q in self.w.queries {
            let source = self.wd.query_source(q)?;
            let ast = adapter::parse(&source)?;
            let unoptimized = adapter::translate(&ast)?;
            let bench = &self.bench;
            parse_us += bench
                .time(|| drop(black_box(adapter::parse(&source))))
                .quiet_ns();
            translate_us += bench
                .time(|| drop(black_box(adapter::translate(&ast))))
                .quiet_ns();
            optimize_us += bench
                .time(|| drop(black_box(adapter::optimize(&unoptimized))))
                .quiet_ns();
        }
        self.exact("xquery.parse_us", parse_us / 1e3);
        self.exact("core.translate_us", translate_us / 1e3);
        self.exact("core.optimize_us", optimize_us / 1e3);
        self.exact(
            "core.compile_us",
            (parse_us + translate_us + optimize_us) / 1e3,
        );
        Ok(())
    }

    // --- xml: tokenizer -------------------------------------------------------

    fn xml_probes(&mut self, events: usize) -> Result<(), String> {
        let xml = self.xml;
        let (counted, allocs) = adapter::count_allocs(|| adapter::tokenize_discard(xml));
        if counted? != events as u64 {
            return Err("tokenizer event count changed between two passes".to_string());
        }
        let t = self
            .bench
            .time(|| drop(black_box(adapter::tokenize_discard(black_box(xml)))));
        self.metrics
            .push(t.rate("xml.tokenize_mb_s", |ns| mb(xml.len()) / (ns / 1e9)));
        self.metrics
            .push(t.cost("xml.tokenize_ns_per_event", |ns| ns / events as f64));
        self.exact(
            "xml.tokenize_allocs_per_event",
            allocs as f64 / events as f64,
        );

        // Same size, other shape: deep, tag-dense trees instead of XMark's
        // shallow text-heavy records.
        let treebank = adapter::generate(Shape::Treebank, xml.len(), self.seed).to_xml();
        let deep = treebank.as_bytes();
        let t = self
            .bench
            .time(|| drop(black_box(adapter::tokenize_discard(black_box(deep)))));
        self.metrics
            .push(t.rate("xml.tokenize_treebank_mb_s", |ns| {
                mb(deep.len()) / (ns / 1e9)
            }));
        Ok(())
    }

    // --- core: engine, output, memory, ablation -------------------------------

    fn core_probes(&mut self, q1: &Compiled, events: &adapter::Events) -> Result<(), String> {
        let n = events.len() as f64;
        let copy = self.compile("copy")?;
        let double = self.compile("double")?;
        let q13 = self.compile("Q13")?;

        // Selective query: big input, tiny output.
        let (stats, allocs) = adapter::count_allocs(|| adapter::engine_null(q1, true, events));
        let select = stats?;
        let opt = self
            .bench
            .time(|| drop(black_box(adapter::engine_null(q1, true, events))));
        self.metrics
            .push(opt.cost("core.engine_select_ns_per_event", |ns| ns / n));
        self.exact("core.engine_select_allocs_per_event", allocs as f64 / n);
        self.exact(
            "core.engine_select_expansions_per_event",
            select.expansions as f64 / n,
        );
        self.exact("core.select_peak_live_bytes", select.peak_live_bytes as f64);

        // The paper's flat-memory claim: the same query on four times the
        // input.
        let big = adapter::generate(Shape::Xmark, 4 * self.w.doc_bytes, self.seed);
        let grown = adapter::engine_on_doc(q1, &big)?;
        drop(big);
        self.exact(
            "core.select_peak_growth_4x",
            grown.peak_live_bytes as f64 / select.peak_live_bytes as f64,
        );

        // Copying query: every input event becomes output.
        let (stats, allocs) = adapter::count_allocs(|| adapter::engine_null(&copy, true, events));
        stats?;
        let t = self
            .bench
            .time(|| drop(black_box(adapter::engine_null(&copy, true, events))));
        self.metrics
            .push(t.cost("core.engine_copy_ns_per_event", |ns| ns / n));
        self.exact("core.engine_copy_allocs_per_event", allocs as f64 / n);

        // Fully buffering query.
        let buffered = adapter::engine_null(&double, true, events)?;
        self.exact(
            "core.double_peak_live_bytes",
            buffered.peak_live_bytes as f64,
        );

        // §4.1 ablation: the raw translation against the optimized transducer.
        let unoptimized = adapter::engine_null(q1, false, events)?;
        let noopt = self
            .bench
            .time(|| drop(black_box(adapter::engine_null(q1, false, events))));
        self.exact(
            "core.noopt_over_opt_time",
            noopt.quiet_ns() / opt.quiet_ns(),
        );
        self.exact(
            "core.noopt_over_opt_peak_nodes",
            unoptimized.peak_live_nodes as f64 / select.peak_live_nodes as f64,
        );

        // Per-boundary delivery against one materialized buffer.
        let emit = self
            .bench
            .time(|| drop(black_box(adapter::engine_emit(&q13, events))));
        let writer = self
            .bench
            .time(|| drop(black_box(adapter::engine_writer(&q13, events))));
        self.exact("core.emit_over_writer", emit.quiet_ns() / writer.quiet_ns());

        // Serializer alone, over the recorded output of the copying query.
        let (recording, _) = adapter::engine_record(&copy, events)?;
        let bytes = adapter::serialize(&recording).len();
        let t = self
            .bench
            .time(|| drop(black_box(adapter::serialize(black_box(&recording)))));
        self.metrics
            .push(t.rate("xml.serialize_mb_s", |ns| mb(bytes) / (ns / 1e9)));
        Ok(())
    }

    // --- service: prefilter, multi-query pass, cache --------------------------

    fn service_probes(&mut self, q1: &Compiled, events: &adapter::Events) -> Result<(), String> {
        let n = events.len() as f64;
        let stats = adapter::prefilter_pass(q1, events)?;
        let t = self
            .bench
            .time(|| drop(black_box(adapter::prefilter_pass(q1, events))));
        self.metrics
            .push(t.cost("service.prefilter_ns_per_event", |ns| ns / n));
        self.exact(
            "service.prefiltered_event_share",
            stats.prefiltered_events as f64 / n,
        );

        let mut six = Vec::new();
        for q in ["Q1", "Q2", "Q4", "Q16", "Q17", "Q13"] {
            six.push(self.compile(q)?);
        }
        let lanes: Vec<&Compiled> = six.iter().collect();
        let xml = self.xml;
        adapter::multi_pass(&lanes, xml)?;
        let together = self.bench.time_at_least(MIN_REPS_MULTI, || {
            drop(black_box(adapter::multi_pass(&lanes, xml)))
        });
        let alone = self.bench.time_at_least(MIN_REPS_MULTI, || {
            for lane in &lanes {
                drop(black_box(adapter::multi_pass(&[lane], xml)));
            }
        });
        self.exact(
            "service.multi6_over_solo_sum",
            together.quiet_ns() / alone.quiet_ns(),
        );

        let source = self.wd.query_source("names")?;
        let mut cache = adapter::Cache::holding(&source)?;
        if !cache.lookup(&source) {
            return Err("query cache missed a query it holds".to_string());
        }
        let t = self.bench.time(|| {
            black_box(cache.lookup(black_box(&source)));
        });
        self.metrics.push(t.cost("service.cache_hit_ns", |ns| ns));
        Ok(())
    }

    // --- store: ingest, open, scan, indexed replay ----------------------------

    fn store_probes(&mut self, q1: &Compiled) -> Result<(), String> {
        let (xml, tape) = (self.xml, self.tape.as_path());
        let facts = adapter::ingest(xml, tape)?;
        let t = self
            .bench
            .time(|| drop(black_box(adapter::ingest(xml, tape))));
        let ingest = t.rate("store.ingest_mb_s", |ns| mb(xml.len()) / (ns / 1e9));

        let t = self
            .bench
            .time(|| drop(black_box(adapter::tape_open(tape))));
        let open = t.cost("store.open_us", |ns| ns / 1e3);

        let scanned = adapter::tape_scan(tape)?;
        if scanned != facts.events {
            return Err(format!(
                "tape replays {scanned} events, footer says {}",
                facts.events
            ));
        }
        let t = self
            .bench
            .time(|| drop(black_box(adapter::tape_scan(tape))));
        let scan = t.cost("store.scan_ns_per_event", |ns| ns / scanned as f64);

        let (_, stats) = adapter::run_tape(q1, tape)?;
        let replay = self
            .bench
            .time(|| drop(black_box(adapter::run_tape(q1, tape))));
        let reparse = self
            .bench
            .time(|| drop(black_box(adapter::run_xml(q1, xml))));
        let index_replay = replay.cost("store.index_replay_ms", |ns| ns / 1e6);

        self.metrics.extend([ingest, open, scan, index_replay]);
        self.exact(
            "store.tape_bytes_per_xml_byte",
            facts.file_bytes as f64 / xml.len() as f64,
        );
        self.exact(
            "store.index_skipped_byte_share",
            stats.index_skipped_bytes as f64 / facts.file_bytes as f64,
        );
        self.exact(
            "store.replay_over_reparse",
            replay.quiet_ns() / reparse.quiet_ns(),
        );
        Ok(())
    }

    // --- gcx: the paper's comparison engine -----------------------------------

    fn gcx_probes(&mut self, q1: &Compiled) -> Result<(), String> {
        let doc = Doc::parse(self.xml)?;
        let double = self.compile("double")?;
        let unsupported = || "the GCX baseline refused a query it supports".to_string();
        let q1_peak = adapter::gcx_peak_nodes(q1, &doc)?.ok_or_else(unsupported)?;
        let double_peak = adapter::gcx_peak_nodes(&double, &doc)?.ok_or_else(unsupported)?;
        // Both engines fed from the same tree, so neither pays a tokenizer.
        let gcx = self
            .bench
            .time(|| drop(black_box(adapter::gcx_peak_nodes(q1, &doc))));
        let mft = self
            .bench
            .time(|| drop(black_box(adapter::engine_on_doc(q1, &doc))));
        self.exact("gcx.q1_over_mft_time", gcx.quiet_ns() / mft.quiet_ns());
        self.exact("gcx.q1_peak_nodes", q1_peak as f64);
        self.exact("gcx.double_peak_nodes", double_peak as f64);
        Ok(())
    }

    // --- the traced replay ------------------------------------------------------

    /// Replay every (query, document) pair of the workload stage by stage,
    /// one span per call into a layer, verifying the serialized result; then
    /// run the same pairs through the whole pipeline in one piece. Returns
    /// Σ stage self-times ÷ Σ one-piece times (`harness.closure_ratio`).
    fn traced_replay(&mut self, refs: &[Fingerprint]) -> Result<f64, String> {
        let (w, xml, tape) = (self.w, self.xml, self.tape.clone());
        let from_tape = w.kind == Kind::CliTape;
        let spans = &mut self.spans;
        let mut staged_ns = 0u64;
        let mut whole_ns = 0u64;
        for (op, (q, expect)) in w.queries.iter().zip(refs).enumerate() {
            let op = op as u32;
            let source = self.wd.query_source(q)?;
            let root = spans.open(op, ("harness", "op"));
            let at = Some(root);

            let (ast, _) = spans.record(op, at, ("xquery", "parse"), || adapter::parse(&source));
            let ast = ast?;
            let (unoptimized, _) =
                spans.record(op, at, ("core", "translate"), || adapter::translate(&ast));
            let unoptimized = unoptimized?;
            spans.record(op, at, ("core", "optimize"), || {
                adapter::optimize(&unoptimized)
            });
            // The stages below run the program's own compiled form of the
            // query.
            let query = adapter::compile(&source)?;

            let events = if from_tape {
                let (facts, id) =
                    spans.record(op, at, ("store", "open"), || adapter::tape_open(&tape));
                spans.count(id, "tape_bytes", facts?.file_bytes as f64);
                let (replayed, id) = spans.record(op, at, ("store", "replay"), || {
                    adapter::tape_replay(&query, &tape)
                });
                let (events, skipped) = replayed?;
                spans.count(id, "events", events.len() as f64);
                spans.count(id, "index_skipped_bytes", skipped as f64);
                events
            } else {
                let (events, id) =
                    spans.record(op, at, ("xml", "tokenize"), || adapter::tokenize(xml));
                let events = events?;
                spans.count(id, "bytes", xml.len() as f64);
                spans.count(id, "events", events.len() as f64);
                events
            };

            // `foxq run doc.xml` drives the engine directly; tape replays and
            // `/query` bodies drive it as one lane under the prefilter plan.
            let (ran, id) = spans.record(op, at, ("core", "engine"), || {
                if w.kind == Kind::CliXml {
                    adapter::engine_record(&query, &events)
                } else {
                    adapter::lane_record(&query, &events)
                }
            });
            let (recording, stats) = ran?;
            spans.count(id, "events", events.len() as f64);
            spans.count(id, "expansions", stats.expansions as f64);
            spans.count(id, "peak_live_bytes", stats.peak_live_bytes as f64);
            spans.count(id, "output_events", stats.output_events as f64);

            let (bytes, id) = spans.record(op, at, ("xml", "serialize"), || {
                adapter::serialize(&recording)
            });
            spans.count(id, "output_events", recording.len() as f64);
            spans.count(id, "bytes", bytes.len() as f64);
            spans.close(root);
            Self::verify(
                &mut self.tally,
                &format!("{q} staged"),
                Fingerprint::of(&bytes),
                *expect,
            );
            drop((events, recording, bytes));

            // Self times of the op's stage spans (the root's own is glue).
            let own = spans.self_times_ns();
            staged_ns += spans
                .spans()
                .iter()
                .filter(|s| s.parent == Some(root))
                .map(|s| own[s.id as usize])
                .sum::<u64>();

            let start = Instant::now();
            let query = adapter::compile(&source)?;
            let bytes = if from_tape {
                adapter::run_tape(&query, &tape)?.0
            } else {
                adapter::run_xml(&query, xml)?
            };
            whole_ns += start.elapsed().as_nanos() as u64;
            Self::verify(
                &mut self.tally,
                &format!("{q} in one piece"),
                Fingerprint::of(&bytes),
                *expect,
            );
        }
        Ok(staged_ns as f64 / whole_ns as f64)
    }

    // --- server: HTTP + reactor -------------------------------------------------

    fn server_probes(&mut self, expect: Fingerprint) -> Result<(), String> {
        let (w, xml) = (self.w, self.xml);
        let server = ServerChild::start(self.foxq)?;
        let mut conn = Conn::connect(server.addr).map_err(|e| format!("connect: {e}"))?;
        let mut exchange =
            |request: &Request| conn.exchange(request).map_err(|e| format!("request: {e}"));

        // Pure HTTP + reactor: no body, no query.
        let healthz = Request::new("GET", "/healthz", b"");
        let mut round_trips = Vec::with_capacity(SERVER_PROBE_REQUESTS);
        for _ in 0..SERVER_PROBE_REQUESTS {
            round_trips.push(exchange(&healthz)?.total_ns as f64 / 1e3);
        }
        self.metrics.push(Metric::quiet_low(
            "server.healthz_roundtrip_us",
            &round_trips,
        ));

        // The tail of small requests: a 3 KB document through `names`.
        let names = self.wd.query_source("names")?;
        let small = adapter::generate(Shape::Xmark, 3 << 10, self.seed);
        let small_expect = Fingerprint::of(small.reference_output(&names)?.as_bytes());
        let target = format!("/query?q={}", urlencode(&names));
        let request = Request::new("POST", &target, small.to_xml().as_bytes());
        let mut latency_ms = Vec::with_capacity(SERVER_PROBE_REQUESTS);
        for _ in 0..SERVER_PROBE_REQUESTS {
            let x = exchange(&request)?;
            self.tally.note(x.status == 200 && x.body == small_expect);
            latency_ms.push(x.total_ns as f64 / 1e6);
        }
        self.exact("server.latency_p99_ms", percentile(&latency_ms, 99.0));

        // The workload's own first pair over HTTP (streamed, if that is how
        // the workload asks) against the same pair run in-process in one
        // piece: what the server adds around the pipeline.
        let source = self.wd.query_source(w.queries[0])?;
        let query = adapter::compile(&source)?;
        let buffered = format!("/query?q={}", urlencode(&source));
        let streamed = format!("{buffered}&stream=1");
        let own_target = if w.kind == Kind::HttpStream {
            &streamed
        } else {
            &buffered
        };
        let request = Request::new("POST", own_target, xml);
        let spans = &mut self.spans;
        let mut over_http = Vec::new();
        let started = Instant::now();
        while over_http.len() < MIN_REPS || started.elapsed() < self.bench.slice {
            let begin = spans.now_ns();
            let x = exchange(&request)?;
            Self::verify(&mut self.tally, "/query", x.body, expect);
            over_http.push(x.total_ns as f64);
            if w.kind.is_http() && over_http.len() <= 20 {
                // The client's view of one request, as spans.
                let op = 1000 + over_http.len() as u32;
                let end = begin + x.total_ns;
                let written = begin + x.written_ns;
                let first_byte = begin + x.first_byte_ns.max(x.written_ns);
                let root = spans.push(op, None, ("http", "request"), (begin, end));
                let at = Some(root);
                spans.push(op, at, ("http", "write_request"), (begin, written));
                spans.push(op, at, ("http", "wait_first_byte"), (written, first_byte));
                spans.push(op, at, ("http", "read_rest"), (first_byte, end));
                spans.count(root, "request_body_bytes", request.body_len as f64);
                spans.count(root, "response_body_bytes", x.body.len as f64);
                spans.count(root, "chunks", x.chunks as f64);
            }
        }
        let in_process = self
            .bench
            .time(|| drop(black_box(adapter::run_xml(&query, xml))));
        self.exact(
            "server.overhead_us",
            (quiet_low(&over_http) - in_process.quiet_ns()) / 1e3,
        );

        // The same pair streamed: how many chunks the response arrives in.
        let reply = exchange(&Request::new("POST", &streamed, xml))?;
        Self::verify(&mut self.tally, "streamed /query", reply.body, expect);
        if !reply.complete {
            return Err("streamed response ended without its terminating chunk".to_string());
        }
        self.exact("server.chunks_per_response", reply.chunks as f64);

        drop(conn);
        server.shutdown()
    }

    // --- harness: what the measuring itself costs -------------------------------

    fn harness_probes(&mut self, build_s: f64, closure_ratio: f64) -> Result<(), String> {
        let datagen_s = self
            .wd
            .read_json("gen.json")?
            .get("datagen_s")
            .and_then(Json::as_f64)
            .ok_or("gen.json has no datagen_s")?;
        self.exact("harness.datagen_s", datagen_s);
        self.exact("harness.build_s", build_s);

        // Process start-up: the smallest possible `foxq run`.
        let tiny = self.wd.dir.join("tiny.xml");
        write_file(&tiny, b"<site><people/></site>\n")?;
        let query = self.wd.query_path("names");
        let mut spawn_ms = Vec::new();
        for _ in 0..20 {
            let op = run_cli(self.foxq, &["run".as_ref(), query.as_ref(), tiny.as_ref()])?;
            if !op.reaped.exit_ok || op.stdout != Fingerprint::of(b"<o></o>\n") {
                return Err("foxq run on the 23-byte document failed".to_string());
            }
            spawn_ms.push(op.wall_ns as f64 / 1e6);
        }
        self.metrics
            .push(Metric::quiet_low("harness.spawn_ms", &spawn_ms));

        // Cost of one span around nothing.
        let mut scratch = Spans::default();
        let rounds = 100_000;
        let start = Instant::now();
        for _ in 0..rounds {
            scratch.record(0, None, ("harness", "empty"), || black_box(0));
        }
        let per_span = start.elapsed().as_nanos() as f64 / f64::from(rounds);
        black_box(scratch.spans().len());
        self.exact("harness.span_overhead_ns", per_span);
        self.exact("harness.closure_ratio", closure_ratio);
        Ok(())
    }
}
