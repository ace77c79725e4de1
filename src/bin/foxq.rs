//! `foxq` — command-line XQuery streaming by forest transducers.
//!
//! ```text
//! foxq run   <query.xq> [input.xml|.fet]  # stream input (or stdin) through the query
//! foxq compile <query.xq>                 # print the optimized MFT rules
//! foxq compile --no-opt <query.xq>        # print the raw §3 translation
//! foxq stats <query.xq> [input.xml|.fet]  # run and report engine statistics
//! foxq stats <tape.fet>                   # inspect a tape without running a query
//! foxq batch -q a.xq -q b.xq [in.xml …]   # N queries, one pass per document
//! foxq store add|ls|rm|query --dir DIR …  # the persistent tape corpus
//! foxq serve --addr 127.0.0.1:8080        # long-running HTTP server
//! ```
//!
//! Output goes to stdout; diagnostics to stderr. Exit code 1 on any error.

use foxq::core::opt::optimize_with_stats;
use foxq::core::profile::StreamProfiler;
use foxq::core::stream::{
    run_streaming_with_observer, StreamLimits, StreamObserver, StreamStats,
    DEFAULT_MAX_OUTPUT_EVENTS,
};
use foxq::core::translate::translate;
use foxq::core::{print_mft, EmissionAnalysis, EmitSink, EmitWriter, Mft};
use foxq::obs::{Stage, StageTimes};
use foxq::service::{run_lanes, BatchDriver, Events, QueryCache, QuerySetPlan, SourceCost};
use foxq::store::{Corpus, TapeReader};
use foxq::xml::{WriterSink, XmlReader};
use foxq::xquery::parse_query;
use std::io::{Read, Write};
use std::process::ExitCode;
use std::time::Instant;

fn main() -> ExitCode {
    match real_main() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("foxq: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn real_main() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..], false),
        Some("stats") => cmd_run(&args[1..], true),
        Some("compile") => cmd_compile(&args[1..]),
        Some("batch") => cmd_batch(&args[1..]),
        Some("store") => cmd_store(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("--help") | Some("-h") | None => {
            eprint!("{}", USAGE);
            Ok(())
        }
        Some(other) => Err(format!("unknown command {other:?}\n{USAGE}")),
    }
}

const USAGE: &str = "\
usage:
  foxq run [--stream] <query.xq> [input.xml|input.fet]
      stream input (default stdin) through the query, building only what
      the query can use: after each element's open, if the engine has no
      pending call left at that position (its label prefilter withholding
      the element is the static case), the subtree is skipped. XML text is
      skimmed to the matching close: every byte is still checked — a
      malformed document fails with the error and offset it always got —
      but no event is built. A .fet input replays the pre-parsed event
      tape (no XML tokenization) and seeks there instead. That helps the
      queries without a label projection too — subtree copies
      ($i/description), descendant axes below a child path
      (/site/regions//item), query sets mixing those with navigators. On
      FET2 every decoded subtree is still checked against its stored hash
      and a skipped one's hash is folded into its parent's; what lies
      inside a seeked-over subtree is never read, so never verified.
      foxq stats reports the skipped events as 'prefiltered'. --stream
      flushes stdout at every emission boundary: each irrevocable output
      prefix appears as soon as the engine proves it final, not when the
      output buffer fills or the input ends
  foxq stats [--timing] [--profile] <query.xq> [input.xml|input.fet]
      run and report engine statistics to stderr, including an earliest
      emission summary (early-emitting states, streamed output fraction,
      emitting flushes, events to first emit); --timing adds a
      per-stage wall-time table (parse/translate/optimize/execute/...);
      --profile adds the per-state hot-state table and a sparkline
      buffer timeline (live bytes / pending calls over the input)
  foxq stats <tape.fet>                 inspect a tape: events, labels, depth;
      FET2 tapes also report text compression and per-label skip-index sizes
  foxq compile [--no-opt] <query.xq>    print the (optimized) MFT in rule notation
  foxq batch [-q <query.xq>]... [--threads N] [--stats] [input.xml ...]
      answer all queries over each input in a single pass per document;
      with no inputs, one pass over stdin; with several, documents are
      sharded across worker threads. Outputs are labeled '### doc query'.

  foxq store add --dir DIR [--id ID] <input.xml>...
      parse each document once into the corpus at DIR (FET2 tapes + manifest);
      ids default to the file stem (--id only with a single input)
  foxq store ls --dir DIR               list the corpus manifest
  foxq store rm --dir DIR <id>...       remove stored documents
  foxq store migrate --dir DIR [id ...] rewrite FET1 tapes as FET2 in place
      (all documents, or just the given ids); FET2 tapes are left untouched
  foxq store query --dir DIR [-q <query.xq>]... [--threads N] [--stats]
      [--max-output N] [id ...]
      run the query set over every stored document (or just the given ids),
      replaying tapes via the label skip index where the whole set has a
      label projection (FET2) and by a scan otherwise, seeking over every
      subtree no query of the set can use — no XML re-parsing either way

  foxq serve --addr HOST:PORT [--threads N] [--max-body-bytes N]
      [--cache-capacity N] [--read-timeout-ms N] [--write-timeout-ms N]
      [--max-connections N] [--corpus DIR] [--slow-ms N] [--trace-log FILE]
      [--trace-log-max-bytes N] [--profile]
      long-running HTTP/1.1 server: POST /query?q=<urlencoded query> and
      POST /batch?q=..&q=.. stream the request body through prepared
      queries; add &stream=1 to /query for a chunked response whose
      chunks are the engine's irrevocable output prefixes (run statistics
      arrive as HTTP trailers); with --corpus, POST /corpus/{id} ingests
      documents, GET /corpus lists them, and POST /query?q=..&doc=<id>
      answers from the stored tape; GET /metrics (Prometheus),
      GET /healthz, POST /shutdown (graceful drain). Runs until shut down.
      Observability: every response carries X-Foxq-Request-Id and
      Server-Timing headers; requests at or over --slow-ms (default 500;
      0 = all) land in GET /debug/requests (append ?format=json for
      JSONL); --trace-log appends every request as one JSON line to
      FILE, rotating it to FILE.1 past --trace-log-max-bytes (default
      64 MiB; 0 = never); --profile attaches the engine resource
      profiler to every /query lane and serves per-query aggregates at
      GET /debug/profile.

  run/stats/batch/store-query also accept --max-output <events>: abort a run
  (batch: its cell) once its output exceeds that many events (default
  1000000000; 0 = unlimited) — a transducer can emit output exponential in
  its input, this bounds a run on hostile pairs.
";

/// Compile a query file, timing each stage (for `foxq stats --timing`).
fn load_query_timed(path: &str) -> Result<(Mft, StageTimes), String> {
    let src =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read query {path}: {e}"))?;
    let mut times = StageTimes::default();
    let t = Instant::now();
    let query = parse_query(&src).map_err(|e| e.to_string())?;
    times.add(Stage::Parse, micros_since(t));
    let t = Instant::now();
    let unopt = translate(&query).map_err(|e| e.to_string())?;
    times.add(Stage::Translate, micros_since(t));
    let t = Instant::now();
    let (opt, _) = optimize_with_stats(unopt);
    times.add(Stage::Optimize, micros_since(t));
    Ok((opt, times))
}

/// Elapsed whole microseconds since `start`.
fn micros_since(start: Instant) -> u64 {
    start.elapsed().as_micros().min(u64::MAX as u128) as u64
}

fn cmd_run(args: &[String], report: bool) -> Result<(), String> {
    let mut positional: Vec<&String> = Vec::new();
    let mut max_output = DEFAULT_MAX_OUTPUT_EVENTS;
    let mut timing = false;
    let mut profile = false;
    let mut stream = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--stream" => {
                if report {
                    return Err("--stream only applies to foxq run".to_string());
                }
                stream = true;
            }
            "--max-output" => {
                i += 1;
                let n: u64 = args
                    .get(i)
                    .ok_or("--max-output needs a number")?
                    .parse()
                    .map_err(|_| "--max-output needs a number".to_string())?;
                max_output = if n == 0 { u64::MAX } else { n };
            }
            "--timing" => {
                if !report {
                    return Err("--timing only applies to foxq stats".to_string());
                }
                timing = true;
            }
            "--profile" => {
                if !report {
                    return Err("--profile only applies to foxq stats".to_string());
                }
                profile = true;
            }
            other if other.starts_with('-') => {
                return Err(format!("unknown flag {other:?}\n{USAGE}"));
            }
            _ => positional.push(&args[i]),
        }
        i += 1;
    }
    // `foxq stats <tape.fet>`: inspect the tape, no query involved.
    if report && positional.len() == 1 && positional[0].ends_with(".fet") {
        return cmd_tape_stats(positional[0]);
    }
    let query_path = positional.first().ok_or("missing query file")?;
    let (mft, mut times) = load_query_timed(query_path)?;
    let limits = StreamLimits {
        max_output_events: max_output,
        ..StreamLimits::default()
    };
    let input = positional.get(1).map(|path| path.as_str());
    let stdout = std::io::stdout();
    if stream {
        // Earliest emission to a pipe: every irrevocable prefix is
        // flushed the moment the engine proves it final, so a consumer
        // sees results while the document is still arriving.
        let mut out = stdout.lock();
        let sink = EmitWriter::new(|chunk: &[u8]| out.write_all(chunk).and_then(|_| out.flush()));
        let (sink, ..) = run_query(&mft, input, sink, limits, ())?;
        sink.finish().map_err(|e| e.to_string())?;
        return out
            .write_all(b"\n")
            .and_then(|_| out.flush())
            .map_err(|e| e.to_string());
    }
    let sink = WriterSink::new(std::io::BufWriter::new(stdout.lock()));
    let t = Instant::now();
    let (sink, stats, profiled, tape_cost) = if profile {
        let obs = StreamProfiler::for_mft(&mft);
        let (sink, stats, obs, cost) = run_query(&mft, input, sink, limits, obs)?;
        (sink, stats, Some(obs.into_profile(&mft)), cost)
    } else {
        let (sink, stats, (), cost) = run_query(&mft, input, sink, limits, ())?;
        (sink, stats, None, cost)
    };
    let ran = micros_since(t);
    let mut out = sink.finish().map_err(|e| e.to_string())?;
    out.write_all(b"\n")
        .and_then(|_| out.flush())
        .map_err(|e| e.to_string())?;
    let wall = micros_since(t);
    match tape_cost {
        // A tape's stages partition its wall time, the write-out included.
        Some(cost) => {
            for (stage, micros) in cost.tape_stages(wall) {
                times.add(stage, micros);
            }
        }
        None => {
            times.add(Stage::Execute, ran);
            times.add(Stage::Serialize, wall - ran);
        }
    }
    if report {
        report_stats(&mft, &stats);
        if timing {
            report_timing(&times);
        }
        if let Some(p) = profiled {
            eprint!("{}", p.render());
        }
    }
    Ok(())
}

/// One query over one input, into `sink` under `obs`. A `.fet` input
/// replays the pre-parsed tape — by its skip index where the query has a
/// label projection, seeking over the subtrees the engine is dead in
/// otherwise — instead of tokenizing XML, and hands back what that cost;
/// anything else (stdin by default) is XML text for the single-lane loop,
/// which pays for no fan-out.
fn run_query<S: EmitSink, O: StreamObserver>(
    mft: &Mft,
    input: Option<&str>,
    sink: S,
    limits: StreamLimits,
    obs: O,
) -> Result<(S, StreamStats, O, Option<SourceCost>), String> {
    if let Some(path) = input.filter(|path| path.ends_with(".fet")) {
        let tape = TapeReader::open_file(std::path::Path::new(path))
            .map_err(|e| format!("cannot open tape {path}: {e}"))?;
        let plan = QuerySetPlan::new([mft]);
        let run = run_lanes(&[mft], tape, vec![(sink, obs)], limits, &plan)
            .map_err(|e| format!("{path}: {e}"))?;
        let lane = run.results.into_iter().next().expect("one lane");
        let (sink, stats, obs) = lane.map_err(|e| e.to_string())?;
        return Ok((sink, stats, obs, Some(run.source)));
    }
    let reader = XmlReader::new(open_xml(input)?);
    let (sink, stats, obs) =
        run_streaming_with_observer(mft, reader, sink, limits, obs).map_err(|e| e.to_string())?;
    Ok((sink, stats, obs, None))
}

/// The XML document at `path`, or stdin.
fn open_xml(path: Option<&str>) -> Result<Box<dyn Read>, String> {
    Ok(match path {
        Some(path) => {
            Box::new(std::fs::File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?)
        }
        None => Box::new(std::io::stdin().lock()),
    })
}

/// `foxq stats <tape.fet>`: footer facts, no replay. FET2 tapes get the
/// index and compression sections on top of the shared counters.
fn cmd_tape_stats(path: &str) -> Result<(), String> {
    let tape = TapeReader::open_file(std::path::Path::new(path))
        .map_err(|e| format!("cannot inspect {path}: {e}"))?;
    let info = *tape.info();
    println!(
        "format:            {} v{}",
        if info.version == 1 { "FET1" } else { "FET2" },
        info.version
    );
    println!("events:            {}", info.events);
    println!(
        "  open / close:    {} / {}",
        info.events / 2,
        info.events / 2
    );
    println!("label table:       {} element name(s)", info.label_count);
    println!("max depth:         {}", info.max_depth);
    println!(
        "tape bytes:        {} (file: {})",
        info.tape_bytes, info.file_bytes
    );
    println!("checksum:          {:016x}", info.checksum);
    if info.version >= 2 {
        let pct = |part: u64, whole: u64| {
            if whole == 0 {
                0.0
            } else {
                part as f64 * 100.0 / whole as f64
            }
        };
        println!(
            "text bytes:        {} raw, {} stored ({:.1}% of raw)",
            info.raw_text_bytes,
            info.enc_text_bytes,
            pct(info.enc_text_bytes, info.raw_text_bytes.max(1))
        );
        println!(
            "skip index:        {} posting(s), {} bytes ({:.1}% of tape)",
            info.postings,
            info.index_bytes,
            pct(info.index_bytes, info.tape_bytes)
        );
        if !tape.index_usable() {
            println!("  (index disabled: flags {:#04x})", info.flags);
        }
        // Per-label posting-list sizes: element lists in label-id order,
        // then the per-parent text buckets. Empty text buckets (most
        // parents never hold a text) are elided.
        let labels = tape.labels();
        for (i, dir) in tape.posting_dir().iter().enumerate() {
            let name = if let Some(label) = labels.get(i) {
                format!("<{}>", label.name)
            } else if i == labels.len() {
                "#text (root)".to_string()
            } else {
                let parent = &labels[i - labels.len() - 1];
                format!("#text in <{}>", parent.name)
            };
            if labels.get(i).is_none() && dir.count == 0 {
                continue;
            }
            println!(
                "  {:<16} {:>8} posting(s) {:>10} bytes",
                name, dir.count, dir.bytes
            );
        }
    }
    Ok(())
}

fn report_stats(mft: &Mft, stats: &StreamStats) {
    eprintln!("events:            {}", stats.events);
    eprintln!(
        "  open / close:    {} / {}",
        stats.open_events, stats.close_events
    );
    eprintln!("rule expansions:   {}", stats.expansions);
    eprintln!("peak live nodes:   {}", stats.peak_live_nodes);
    eprintln!("peak live bytes:   {}", stats.peak_live_bytes);
    eprintln!("peak pending:      {} calls", stats.peak_pending_calls);
    eprintln!("max input depth:   {}", stats.max_depth);
    eprintln!("output events:     {}", stats.output_events);
    let analysis = EmissionAnalysis::analyze(mft);
    eprintln!("earliest emission:");
    eprintln!(
        "  early states:    {} of {}{}",
        analysis.early_count(),
        analysis.state_count(),
        if analysis.streams_early(mft) {
            ""
        } else {
            " (output held until end of input)"
        }
    );
    eprintln!(
        "  streamed:        {} of {} output events ({:.1}%)",
        stats.streamed_output_events,
        stats.output_events,
        stats.streamed_fraction() * 100.0
    );
    eprintln!("  flushes:         {} emitting", stats.emit_flushes);
    if stats.first_emit_events > 0 {
        eprintln!("  first emit:      at event {}", stats.first_emit_events);
    }
    if stats.prefiltered_events > 0 || stats.seek_skipped_bytes > 0 {
        eprintln!("prefiltered:       {} events", stats.prefiltered_events);
        eprintln!("seek-skipped:      {} bytes", stats.seek_skipped_bytes);
    }
    if stats.index_skipped_bytes > 0 {
        eprintln!("index-skipped:     {} bytes", stats.index_skipped_bytes);
    }
}

/// `foxq stats --timing`: the per-stage wall-time table.
fn report_timing(times: &StageTimes) {
    eprintln!("stage timing:");
    for (stage, micros) in times.iter() {
        eprintln!("  {:<12} {:>12.3} ms", stage.name(), micros as f64 / 1000.0);
    }
    eprintln!(
        "  {:<12} {:>12.3} ms",
        "total",
        times.total_micros() as f64 / 1000.0
    );
}

/// `foxq batch`: N prepared queries, one pass over each input document.
fn cmd_batch(args: &[String]) -> Result<(), String> {
    let mut query_files: Vec<String> = Vec::new();
    let mut inputs: Vec<String> = Vec::new();
    let mut threads: usize = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut report_stats = false;
    let mut max_output = DEFAULT_MAX_OUTPUT_EVENTS;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "-q" | "--query-file" => {
                i += 1;
                query_files.push(
                    args.get(i)
                        .ok_or("-q/--query-file needs a file argument")?
                        .clone(),
                );
            }
            "--threads" => {
                i += 1;
                threads = args
                    .get(i)
                    .ok_or("--threads needs a number")?
                    .parse()
                    .map_err(|_| "--threads needs a number".to_string())?;
            }
            "--stats" => report_stats = true,
            "--max-output" => {
                i += 1;
                let n: u64 = args
                    .get(i)
                    .ok_or("--max-output needs a number")?
                    .parse()
                    .map_err(|_| "--max-output needs a number".to_string())?;
                max_output = if n == 0 { u64::MAX } else { n };
            }
            other if other.starts_with('-') => {
                return Err(format!("unknown batch flag {other:?}\n{USAGE}"));
            }
            other => inputs.push(other.to_string()),
        }
        i += 1;
    }
    let limits = StreamLimits {
        max_output_events: max_output,
        ..StreamLimits::default()
    };
    if query_files.is_empty() {
        return Err(format!("batch needs at least one -q <query.xq>\n{USAGE}"));
    }

    // Compile through the cache: passing the same query file twice (or two
    // files with identical text) translates it once.
    let mut cache = QueryCache::new(query_files.len().max(1));
    let mut queries = Vec::with_capacity(query_files.len());
    for path in &query_files {
        let src =
            std::fs::read_to_string(path).map_err(|e| format!("cannot read query {path}: {e}"))?;
        let prepared = cache
            .get_or_compile(&src)
            .map_err(|e| format!("{path}: {e}"))?;
        queries.push(prepared);
    }
    if report_stats {
        let cs = cache.stats();
        eprintln!(
            "queries:           {} ({} compiled, {} cache hits)",
            queries.len(),
            cs.compiles,
            cs.hits
        );
    }

    let stdout = std::io::stdout();
    let mut out = std::io::BufWriter::new(stdout.lock());
    let mut failures = 0usize;

    if inputs.len() <= 1 {
        // Single document: stream it (stdin or a file) in one pass.
        let doc_name = inputs.first().map(String::as_str).unwrap_or("stdin");
        let input = open_xml(inputs.first().map(String::as_str))?;
        let mfts: Vec<&Mft> = queries.iter().map(|q| q.mft()).collect();
        let lanes: Vec<_> = queries
            .iter()
            .map(|_| (WriterSink::new(Vec::new()), ()))
            .collect();
        let plan = QuerySetPlan::new(mfts.iter().copied());
        match run_lanes(&mfts, Events(XmlReader::new(input)), lanes, limits, &plan) {
            Ok(run) => {
                if report_stats {
                    eprintln!("input events:      {} (one pass)", run.input_events);
                }
                for (qfile, result) in query_files.iter().zip(run.results) {
                    writeln!(out, "### {doc_name} {qfile}").map_err(|e| e.to_string())?;
                    match result {
                        Ok((sink, stats, ())) => {
                            let buf = sink.finish().map_err(|e| e.to_string())?;
                            out.write_all(&buf)
                                .and_then(|_| out.write_all(b"\n"))
                                .map_err(|e| e.to_string())?;
                            if report_stats {
                                eprintln!(
                                    "{qfile}: {} output events, peak {} nodes / {} bytes",
                                    stats.output_events,
                                    stats.peak_live_nodes,
                                    stats.peak_live_bytes
                                );
                            }
                        }
                        Err(e) => {
                            failures += 1;
                            writeln!(out, "error: {e}").map_err(|e| e.to_string())?;
                            eprintln!("foxq: {qfile} on {doc_name}: {e}");
                        }
                    }
                }
            }
            // Same labeled-row contract as the multi-document path: a bad
            // document fails every query's block, not the whole command
            // format.
            Err(e) => {
                for qfile in &query_files {
                    writeln!(out, "### {doc_name} {qfile}").map_err(|e| e.to_string())?;
                    writeln!(out, "error: {e}").map_err(|e| e.to_string())?;
                    eprintln!("foxq: {qfile} on {doc_name}: {e}");
                    failures += 1;
                }
            }
        }
    } else {
        // Several documents: shard them across worker threads. Each worker
        // opens and streams the files it claims, so peak memory does not
        // scale with the corpus size.
        let report = BatchDriver::new(threads)
            .with_limits(limits)
            .run_files(&inputs, &queries);
        if report_stats {
            eprintln!(
                "documents:         {} over {} threads",
                inputs.len(),
                threads.max(1)
            );
            eprintln!(
                "input events:      {} (one pass per document)",
                report.input_events
            );
            eprintln!("output events:     {}", report.output_events);
        }
        failures += report.failures;
        for (doc_name, row) in inputs.iter().zip(&report.cells) {
            for (qfile, cell) in query_files.iter().zip(row) {
                writeln!(out, "### {doc_name} {qfile}").map_err(|e| e.to_string())?;
                if report_stats {
                    if let Some(stats) = &cell.stats {
                        eprintln!(
                            "{doc_name} {qfile}: {} output events, peak {} nodes / {} bytes",
                            stats.output_events, stats.peak_live_nodes, stats.peak_live_bytes
                        );
                    }
                }
                match &cell.output {
                    Ok(text) => writeln!(out, "{text}").map_err(|e| e.to_string())?,
                    Err(e) => {
                        writeln!(out, "error: {e}").map_err(|e| e.to_string())?;
                        eprintln!("foxq: {qfile} on {doc_name}: {e}");
                    }
                }
            }
        }
    }
    out.flush().map_err(|e| e.to_string())?;
    if failures > 0 {
        return Err(format!("{failures} query run(s) failed"));
    }
    Ok(())
}

/// `foxq store`: manage and query the persistent tape corpus.
fn cmd_store(args: &[String]) -> Result<(), String> {
    let sub = args.first().map(String::as_str);
    let rest = &args[1..];
    match sub {
        Some("add") => store_add(rest),
        Some("ls") => store_ls(rest),
        Some("rm") => store_rm(rest),
        Some("query") => store_query(rest),
        Some("migrate") => store_migrate(rest),
        _ => Err(format!("store needs add|ls|rm|query|migrate\n{USAGE}")),
    }
}

/// Parse `--dir DIR` plus flags out of a store subcommand's arguments;
/// returns (dir, flag values in declaration order, positionals).
struct StoreArgs {
    dir: String,
    positional: Vec<String>,
    id: Option<String>,
    query_files: Vec<String>,
    threads: usize,
    report_stats: bool,
    max_output: u64,
}

fn parse_store_args(args: &[String]) -> Result<StoreArgs, String> {
    let mut parsed = StoreArgs {
        dir: String::new(),
        positional: Vec::new(),
        id: None,
        query_files: Vec::new(),
        threads: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        report_stats: false,
        max_output: DEFAULT_MAX_OUTPUT_EVENTS,
    };
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let mut value = |what: &str| -> Result<String, String> {
            i += 1;
            args.get(i).cloned().ok_or(format!("{flag} needs {what}"))
        };
        match flag {
            "--dir" => parsed.dir = value("a directory")?,
            "--id" => parsed.id = Some(value("an id")?),
            "-q" | "--query-file" => {
                let v = value("a file argument")?;
                parsed.query_files.push(v);
            }
            "--threads" => {
                parsed.threads = value("a number")?
                    .parse()
                    .map_err(|_| "--threads needs a number".to_string())?;
            }
            "--stats" => parsed.report_stats = true,
            "--max-output" => {
                let n: u64 = value("a number")?
                    .parse()
                    .map_err(|_| "--max-output needs a number".to_string())?;
                parsed.max_output = if n == 0 { u64::MAX } else { n };
            }
            other if other.starts_with('-') => {
                return Err(format!("unknown store flag {other:?}\n{USAGE}"));
            }
            other => parsed.positional.push(other.to_string()),
        }
        i += 1;
    }
    if parsed.dir.is_empty() {
        return Err(format!("store needs --dir DIR\n{USAGE}"));
    }
    Ok(parsed)
}

fn open_corpus(dir: &str) -> Result<Corpus, String> {
    Corpus::open(dir).map_err(|e| format!("corpus {dir}: {e}"))
}

fn store_add(args: &[String]) -> Result<(), String> {
    let parsed = parse_store_args(args)?;
    if parsed.positional.is_empty() {
        return Err("store add needs at least one input file".to_string());
    }
    if parsed.id.is_some() && parsed.positional.len() > 1 {
        return Err("--id only works with a single input file".to_string());
    }
    let mut corpus = open_corpus(&parsed.dir)?;
    for path in &parsed.positional {
        let id = match &parsed.id {
            Some(id) => id.clone(),
            None => std::path::Path::new(path)
                .file_stem()
                .and_then(|s| s.to_str())
                .ok_or_else(|| format!("cannot derive an id from {path:?}; use --id"))?
                .to_string(),
        };
        let file = std::fs::File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
        let meta = corpus
            .add_xml(&id, file)
            .map_err(|e| format!("{path}: {e}"))?;
        println!(
            "stored {}: {} events, {} tape bytes (from {} XML bytes)",
            meta.id, meta.events, meta.tape_bytes, meta.source_bytes
        );
    }
    Ok(())
}

fn store_ls(args: &[String]) -> Result<(), String> {
    let parsed = parse_store_args(args)?;
    let corpus = open_corpus(&parsed.dir)?;
    println!(
        "{:<24} {:>4} {:>12} {:>12} {:>12}  checksum",
        "id", "fmt", "events", "xml.bytes", "tape.bytes"
    );
    for meta in corpus.docs() {
        println!(
            "{:<24} {:>4} {:>12} {:>12} {:>12}  {:016x}",
            meta.id,
            format!("FET{}", meta.version),
            meta.events,
            meta.source_bytes,
            meta.tape_bytes,
            meta.checksum
        );
    }
    println!(
        "({} document(s), {} events, {} tape bytes)",
        corpus.len(),
        corpus.total_events(),
        corpus.total_tape_bytes()
    );
    Ok(())
}

fn store_rm(args: &[String]) -> Result<(), String> {
    let parsed = parse_store_args(args)?;
    if parsed.positional.is_empty() {
        return Err("store rm needs at least one document id".to_string());
    }
    let mut corpus = open_corpus(&parsed.dir)?;
    for id in &parsed.positional {
        let meta = corpus.remove(id).map_err(|e| e.to_string())?;
        println!("removed {} ({} events)", meta.id, meta.events);
    }
    Ok(())
}

fn store_migrate(args: &[String]) -> Result<(), String> {
    let parsed = parse_store_args(args)?;
    let mut corpus = open_corpus(&parsed.dir)?;
    if parsed.positional.is_empty() {
        let rewritten = corpus.migrate_all().map_err(|e| e.to_string())?;
        println!(
            "migrated {} tape(s) to FET2 ({} document(s) total)",
            rewritten,
            corpus.len()
        );
    } else {
        for id in &parsed.positional {
            let meta = corpus.migrate(id).map_err(|e| format!("{id}: {e}"))?;
            println!(
                "{}: FET{} — {} events, {} tape bytes",
                meta.id, meta.version, meta.events, meta.tape_bytes
            );
        }
    }
    Ok(())
}

fn store_query(args: &[String]) -> Result<(), String> {
    let parsed = parse_store_args(args)?;
    if parsed.query_files.is_empty() {
        return Err(format!(
            "store query needs at least one -q <query.xq>\n{USAGE}"
        ));
    }
    let corpus = open_corpus(&parsed.dir)?;
    let mut cache = QueryCache::new(parsed.query_files.len().max(1));
    let mut queries = Vec::with_capacity(parsed.query_files.len());
    for path in &parsed.query_files {
        let src =
            std::fs::read_to_string(path).map_err(|e| format!("cannot read query {path}: {e}"))?;
        queries.push(
            cache
                .get_or_compile(&src)
                .map_err(|e| format!("{path}: {e}"))?,
        );
    }
    let limits = StreamLimits {
        max_output_events: parsed.max_output,
        ..StreamLimits::default()
    };
    let driver = BatchDriver::new(parsed.threads).with_limits(limits);
    let report = if parsed.positional.is_empty() {
        driver.run_corpus(&corpus, &queries)
    } else {
        driver.run_corpus_subset(&corpus, parsed.positional.clone(), &queries)
    };
    if parsed.report_stats {
        eprintln!(
            "documents:         {} over {} threads (tape replay, no re-parse)",
            report.doc_ids.len(),
            parsed.threads.max(1)
        );
        eprintln!("input events:      {}", report.report.input_events);
        eprintln!("output events:     {}", report.report.output_events);
        eprintln!(
            "seek-skipped:      {} bytes",
            report.report.seek_skipped_bytes
        );
        eprintln!(
            "index-skipped:     {} bytes",
            report.report.index_skipped_bytes
        );
    }
    let stdout = std::io::stdout();
    let mut out = std::io::BufWriter::new(stdout.lock());
    let mut failures = 0usize;
    for (doc_id, row) in report.doc_ids.iter().zip(&report.report.cells) {
        for (qfile, cell) in parsed.query_files.iter().zip(row) {
            writeln!(out, "### {doc_id} {qfile}").map_err(|e| e.to_string())?;
            if parsed.report_stats {
                if let Some(stats) = &cell.stats {
                    eprintln!(
                        "{doc_id} {qfile}: {} output events, peak {} nodes / {} bytes",
                        stats.output_events, stats.peak_live_nodes, stats.peak_live_bytes
                    );
                }
            }
            match &cell.output {
                Ok(text) => writeln!(out, "{text}").map_err(|e| e.to_string())?,
                Err(e) => {
                    failures += 1;
                    writeln!(out, "error: {e}").map_err(|e| e.to_string())?;
                    eprintln!("foxq: {qfile} on {doc_id}: {e}");
                }
            }
        }
    }
    out.flush().map_err(|e| e.to_string())?;
    if failures > 0 {
        return Err(format!("{failures} query run(s) failed"));
    }
    Ok(())
}

/// `foxq serve`: the long-running HTTP front-end.
fn cmd_serve(args: &[String]) -> Result<(), String> {
    use foxq::server::{Server, ServerConfig};
    let mut config = ServerConfig {
        addr: "127.0.0.1:8080".to_string(),
        ..ServerConfig::default()
    };
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let mut value = |what: &str| -> Result<&String, String> {
            i += 1;
            args.get(i).ok_or(format!("{flag} needs {what}"))
        };
        match flag {
            "--addr" => config.addr = value("HOST:PORT")?.clone(),
            "--corpus" => config.corpus_dir = Some(value("a directory")?.clone()),
            "--threads" => {
                config.threads = value("a number")?
                    .parse()
                    .map_err(|_| "--threads needs a number".to_string())?;
            }
            "--max-body-bytes" => {
                config.max_body_bytes = value("a number")?
                    .parse()
                    .map_err(|_| "--max-body-bytes needs a number".to_string())?;
            }
            "--cache-capacity" => {
                config.cache_capacity = value("a number")?
                    .parse()
                    .map_err(|_| "--cache-capacity needs a number".to_string())?;
            }
            "--read-timeout-ms" => {
                let ms: u64 = value("milliseconds")?
                    .parse()
                    .map_err(|_| "--read-timeout-ms needs a number".to_string())?;
                config.read_timeout = std::time::Duration::from_millis(ms);
            }
            "--write-timeout-ms" => {
                let ms: u64 = value("milliseconds")?
                    .parse()
                    .map_err(|_| "--write-timeout-ms needs a number".to_string())?;
                config.write_timeout = std::time::Duration::from_millis(ms);
            }
            "--max-connections" => {
                config.max_connections = value("a number")?
                    .parse()
                    .map_err(|_| "--max-connections needs a number".to_string())?;
            }
            "--slow-ms" => {
                config.slow_ms = value("milliseconds")?
                    .parse()
                    .map_err(|_| "--slow-ms needs a number".to_string())?;
            }
            "--trace-log" => config.trace_log = Some(value("a file path")?.clone()),
            "--trace-log-max-bytes" => {
                config.trace_log_max_bytes = value("a number")?
                    .parse()
                    .map_err(|_| "--trace-log-max-bytes needs a number".to_string())?;
            }
            "--profile" => config.profile = true,
            other => return Err(format!("unknown serve flag {other:?}\n{USAGE}")),
        }
        i += 1;
    }
    let server = Server::bind(config).map_err(|e| format!("cannot bind: {e}"))?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    let handle = server.start().map_err(|e| format!("cannot start: {e}"))?;
    eprintln!("foxq-server listening on http://{addr} (POST /shutdown to stop)");
    handle.join();
    eprintln!("foxq-server drained and stopped");
    Ok(())
}

fn cmd_compile(args: &[String]) -> Result<(), String> {
    let (no_opt, path) = match args {
        [flag, path] if flag == "--no-opt" => (true, path),
        [path] => (false, path),
        _ => return Err("usage: foxq compile [--no-opt] <query.xq>".to_string()),
    };
    let src =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read query {path}: {e}"))?;
    let query = parse_query(&src).map_err(|e| e.to_string())?;
    let unopt = translate(&query).map_err(|e| e.to_string())?;
    let m = if no_opt {
        unopt
    } else {
        let (opt, stats) = optimize_with_stats(unopt);
        eprintln!(
            "// optimized: {} states, size {}; removed {} unused + {} constant parameters, \
             inlined {} stay states, dropped {} unreachable states",
            opt.state_count(),
            opt.size(),
            stats.unused_params_removed,
            stats.const_params_removed,
            stats.stay_states_inlined,
            stats.states_removed
        );
        opt
    };
    print!("{}", print_mft(&m));
    Ok(())
}
