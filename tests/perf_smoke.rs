//! Release-mode timing guards for two hot paths that were once
//! exponential, so those regressions can never silently return:
//!
//! * the reference interpreter (`run_mft`) on the FT∘FT composition of two
//!   doublers over four trees (65,536 output trees) takes ~40 ms —
//!   guarded at 1 s — and the whole of `examples/compose.rs` ~0.1 s —
//!   guarded at 10 s wall clock;
//! * `opt::optimize` on 20 nested value-doubling lets was ~5.8 s before the
//!   inlining growth budget (~15 ms after) — guarded at 50 ms.
//!
//! Plus the foxq-store acceptance bars: replaying a stored tape with
//! seek-based subtree skipping must stay ≥ 1.4× faster than re-parsing the
//! XML for a prefilter-eligible query (measured ~2×, against a re-parse
//! that skims what the query cannot use), and reading the same query's
//! matched events through the merged index cursor must be ≥ 2× faster
//! again than a prefilter seek scan of the same tape.
//! And the skim's own: skimming a document costs at most half of
//! tokenizing it (measured ~0.4×).
//!
//! Plus the foxq-obs acceptance bar: serving with full tracing enabled
//! (slow-query ring on every request + JSONL trace log) must stay within
//! 5% of default-config keep-alive throughput — the instrumentation is
//! atomics and a handful of clock reads per request, not a new hot path.
//!
//! The bounds are the PR's acceptance criteria; they sit orders of
//! magnitude below the pre-fix numbers (a regression cannot sneak under
//! them) while leaving 3–100× headroom over the measured post-fix times for
//! scheduler noise; a guard that compares two sides alternates them, best
//! of 5 each ([`alternate_best_of_5`]). All tests no-op in debug builds
//! (debug constant factors are not what they guard); CI runs them via
//! `cargo test --release`. They run one at a time: every guard holds
//! [`release_only`]'s lock while it measures, so on a 2-core runner no
//! guard's clock is running against another guard's load.

use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// `None` (skip) unless this is an optimized build; there, the lock that
/// serializes this file's wall-clock guards, held until the guard is done.
fn release_only() -> Option<MutexGuard<'static, ()>> {
    static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());
    if cfg!(debug_assertions) {
        eprintln!("perf_smoke: skipped (debug build; run with --release)");
        return None;
    }
    // A guard that failed while measuring poisons nothing worth keeping.
    Some(ONE_AT_A_TIME.lock().unwrap_or_else(PoisonError::into_inner))
}

#[test]
fn composed_ft_ft_interpretation_is_subsecond() {
    let Some(_alone) = release_only() else {
        return;
    };
    use foxq::core::interp::run_mft;
    use foxq::core::parse_mft;
    use foxq::forest::term::parse_forest;
    let doubler = parse_mft("q(%t(x1) x2) -> q(x2) q(x2); q(eps) -> a();").unwrap();
    let composed = foxq_tt::compose_ft_ft(&doubler, &doubler);
    let f = parse_forest("w x y z").unwrap();
    let start = Instant::now();
    let direct = run_mft(&composed, &f).unwrap();
    let elapsed = start.elapsed();
    assert_eq!(direct.len(), 1 << 16);
    eprintln!("FT∘FT interpretation: {elapsed:?}");
    assert!(
        elapsed < Duration::from_secs(1),
        "accumulator-encoded FT∘FT interpretation took {elapsed:?} (~40 ms \
         is usual; must stay well under 1 s)"
    );
}

#[test]
fn optimizer_is_polynomial_on_nested_doubling_lets() {
    let Some(_alone) = release_only() else {
        return;
    };
    use foxq::core::opt::{nested_doubling_lets, optimize_with_stats};
    use foxq::core::translate::translate;
    use foxq::xquery::parse_query;
    let q = parse_query(&nested_doubling_lets(20)).unwrap();
    let m = translate(&q).unwrap();
    // Best of 3: one 50 ms sample is at the mercy of whatever else the
    // box is running.
    let (elapsed, (opt, stats)) = (0..3)
        .map(|_| {
            let m = m.clone();
            let start = Instant::now();
            let optimized = optimize_with_stats(m);
            (start.elapsed(), optimized)
        })
        .min_by_key(|(elapsed, _)| *elapsed)
        .unwrap();
    assert!(stats.inline_budget_skips > 0, "{stats:?}");
    assert!(opt.size() < 100_000, "size {}", opt.size());
    assert!(
        elapsed < Duration::from_millis(50),
        "optimize on the 20-nested-let adversary took {elapsed:?} (was ~5.8 s \
         before the inlining growth budget; must stay under 50 ms)"
    );
}

/// Best of 3: robust to one-off scheduler hiccups.
fn best_of_3(f: &mut dyn FnMut()) -> Duration {
    (0..3)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed()
        })
        .min()
        .expect("three runs")
}

/// Best of 5 per side of an A/B guard, the sides alternating, so a slow
/// phase of the box slows both sides rather than one.
fn alternate_best_of_5(
    a: &mut dyn FnMut() -> Duration,
    b: &mut dyn FnMut() -> Duration,
) -> (Duration, Duration) {
    (0..5).fold((Duration::MAX, Duration::MAX), |(best_a, best_b), _| {
        (best_a.min(a()), best_b.min(b()))
    })
}

#[test]
fn tape_seek_replay_beats_a_skimming_reparse() {
    let Some(_alone) = release_only() else {
        return;
    };
    use foxq::core::stream::StreamLimits;
    use foxq::service::{run_lanes, run_multi, PreparedQuery, QuerySetPlan};
    use foxq::store::{ingest_xml_to_tape, TapeDrive, TapeReader};
    use foxq::xml::{forest_to_xml_string, NullSink, XmlReader};
    use foxq_gen::Dataset;
    use std::io::Cursor;

    // The store_replay acceptance bar, a same-run ratio: a
    // prefilter-eligible query over a stored XMark tape must run ≥ 1.4×
    // faster via the seek path than by re-parsing the XML. The bar was 3×
    // while a re-parse tokenized every event (13.8 ms against the seek's
    // 2.9 ms at 2 MiB, 4.8×). A re-parse now skims what the query cannot
    // use and takes 5.5–6.7 ms, the seek what it took: 1.9–2.3×, so 1.4×
    // leaves the headroom for scheduler noise the old bar had. Scan mode is
    // forced — the index path has its own, stricter guard below.
    let forest = foxq_gen::generate(Dataset::Xmark, 2 << 20, 0xF0E5);
    let xml = forest_to_xml_string(&forest).into_bytes();
    let (out, _, _) = ingest_xml_to_tape(&xml[..], Cursor::new(Vec::new())).unwrap();
    let tape = out.into_inner();
    let prepared =
        PreparedQuery::compile("<o>{$input/site/people/person/name/text()}</o>").unwrap();
    let mft = prepared.mft();
    let plan = QuerySetPlan::new([mft]);

    let reparse = best_of_3(&mut || {
        run_multi(&[mft], XmlReader::new(&xml[..]), vec![NullSink]).unwrap();
    });
    let seek = best_of_3(&mut || {
        let reader = TapeReader::new(Cursor::new(&tape[..])).unwrap();
        run_lanes(
            &[mft],
            TapeDrive::Linear(reader),
            vec![(NullSink, ())],
            StreamLimits::default(),
            &plan,
        )
        .unwrap();
    });
    eprintln!("reparse {reparse:?}, seek {seek:?}");
    assert!(
        seek * 14 <= reparse * 10,
        "tape seek replay must be ≥ 1.4× faster than reparse: reparse {reparse:?}, seek {seek:?}"
    );
}

#[test]
fn skimming_costs_at_most_half_of_tokenizing() {
    let Some(_alone) = release_only() else {
        return;
    };
    use foxq::xml::{forest_to_xml_string, XmlEvent, XmlReader};
    use foxq_gen::Dataset;

    // What the XML-fed rows gain where the engine is dead: the skim makes
    // every check of the tokenizer and builds none of its events. A
    // same-run ratio over one 2 MiB XMark document, skimmed from its root
    // open (measured 0.37–0.41: 3.4–4.2 ms against 9.1–10.5 ms).
    let forest = foxq_gen::generate(Dataset::Xmark, 2 << 20, 0xF0E5);
    let xml = forest_to_xml_string(&forest).into_bytes();
    let mut events = (0, 0);
    let tokenize = best_of_3(&mut || {
        let mut reader = XmlReader::new(&xml[..]);
        while reader.next_event().unwrap() != XmlEvent::Eof {}
        events.0 = reader.events_read();
    });
    let skim = best_of_3(&mut || {
        let mut reader = XmlReader::new(&xml[..]);
        reader.next_event().unwrap();
        reader.skip_subtree().unwrap();
        assert_eq!(reader.next_event().unwrap(), XmlEvent::Eof);
        events.1 = reader.events_read();
    });
    eprintln!("tokenize {tokenize:?}, skim {skim:?}, {} events", events.0);
    assert_eq!(events.0, events.1);
    assert!(
        skim * 2 <= tokenize,
        "skimming must cost ≤ 0.5× tokenizing: tokenize {tokenize:?}, skim {skim:?}"
    );
}

#[test]
fn index_read_beats_a_prefilter_seek_scan_by_2x() {
    let Some(_alone) = release_only() else {
        return;
    };
    use foxq::service::{PreparedQuery, QuerySetPlan};
    use foxq::store::{index_drive, ingest_xml_to_tape, TapeDrive, TapeReader};
    use foxq::xml::{forest_to_xml_string, XmlEvent};
    use foxq_gen::Dataset;
    use std::io::Cursor;

    // The skip index's acceptance bar: for a prefilter-eligible child-path
    // query, reading the matched events off a tape through the merged
    // posting-list cursor (mmapped, zero-copy) must be ≥ 2× faster than a
    // full scan of the same tape whose prefilter seeks over every
    // unmatched subtree — delivering the *same* event stream. The query
    // engine downstream of either reader does identical work on identical
    // events (the equivalence is proven in tests/store.rs), so this guard
    // times exactly the part the skip index claims to improve: the tape
    // read.
    let forest = foxq_gen::generate(Dataset::Xmark, 2 << 20, 0xF0E5);
    let xml = forest_to_xml_string(&forest).into_bytes();
    let path = std::env::temp_dir().join(format!("foxq_perf_index_{}.fet", std::process::id()));
    ingest_xml_to_tape(&xml[..], std::fs::File::create(&path).unwrap()).unwrap();
    let tape = std::fs::read(&path).unwrap();
    let prepared =
        PreparedQuery::compile("<o>{$input/site/people/person/name/text()}</o>").unwrap();
    let plan = QuerySetPlan::new([prepared.mft()]);
    let matched = plan.matched_labels();
    let texts = plan.skips_texts();

    // The scan: decode every frame, ask the prefilter about every open,
    // seek over unmatched skippable subtrees.
    let mut seek_delivered = 0u64;
    let mut scan = || {
        let start = Instant::now();
        let mut tape = TapeReader::new(Cursor::new(&tape[..])).unwrap();
        let mut delivered = 0u64;
        let mut open_texts = 0u64;
        let mut stack: Vec<bool> = Vec::new();
        loop {
            match tape.next_event().unwrap() {
                XmlEvent::Open(label) => {
                    let kind_ok = !label.is_text() || texts;
                    if open_texts == 0 && kind_ok && !matched.contains(&label) {
                        tape.skip_subtree().unwrap();
                    } else {
                        stack.push(label.is_text());
                        open_texts += u64::from(label.is_text());
                        delivered += 1;
                    }
                }
                XmlEvent::Close(_) => {
                    if let Some(was_text) = stack.pop() {
                        open_texts -= u64::from(was_text);
                    }
                    delivered += 1;
                }
                XmlEvent::Eof => break,
            }
        }
        assert!(tape.seek_skipped_bytes() > 0, "the scan must seek");
        let elapsed = start.elapsed();
        seek_delivered = delivered;
        elapsed
    };

    // The index: merge the matched labels' posting lists over the mmapped
    // file, decode only candidate frames.
    let mut index_delivered = 0u64;
    let mut read_index = || {
        let start = Instant::now();
        let reader = TapeReader::open_file(&path).unwrap();
        let TapeDrive::Indexed(mut drive) = index_drive(reader, matched.clone(), texts).unwrap()
        else {
            panic!("the tape must take the index path");
        };
        let mut delivered = 0u64;
        loop {
            match drive.next_event().unwrap() {
                XmlEvent::Eof => break,
                _ => delivered += 1,
            }
        }
        assert!(
            drive.index_skipped_bytes() > 0,
            "index read must skip bytes"
        );
        let elapsed = start.elapsed();
        index_delivered = delivered;
        elapsed
    };
    let (seek, index) = alternate_best_of_5(&mut scan, &mut read_index);
    let _ = std::fs::remove_file(&path);
    assert_eq!(
        seek_delivered, index_delivered,
        "both read paths must deliver the same event stream"
    );
    assert!(index_delivered > 0, "the query must match something");
    eprintln!(
        "tape read: prefilter seek scan {seek:?}, index {index:?} \
         ({index_delivered} delivered events)"
    );
    assert!(
        index * 2 <= seek,
        "the index read must be ≥ 2× faster than the prefilter seek scan: \
         seek {seek:?}, index {index:?}"
    );
}

/// Requests timed per keep-alive run.
const KEEP_ALIVE_REQUESTS: u32 = 2_000;

/// A server on an ephemeral port with two workers and 5 s socket timeouts.
fn keep_alive_config() -> foxq::server::ServerConfig {
    use foxq::server::ServerConfig;
    use foxq::service::Limits;
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 2,
        limits: Limits {
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            ..Limits::serving()
        },
        ..ServerConfig::default()
    }
}

/// Start a server with `config` and time [`KEEP_ALIVE_REQUESTS`] `POST
/// /query` requests on one keep-alive connection, which isolates the cost
/// of a request from that of a connection. 100 untimed requests first warm
/// the query cache and the connection.
fn keep_alive_run(config: foxq::server::ServerConfig) -> Duration {
    use foxq::server::client::{self, Client};
    use foxq::server::Server;
    let query = "<o>{$input/site/people/person/name/text()}</o>";
    let mut doc = String::from("<site><people>");
    for i in 0..50 {
        doc.push_str(&format!("<person><name>p{i}</name></person>"));
    }
    doc.push_str("</people></site>");
    let handle = Server::bind(config).unwrap().start().unwrap();
    let target = client::query_target(query);
    let mut c = Client::connect(handle.local_addr()).unwrap();
    let mut request = || {
        assert_eq!(
            c.request("POST", &target, &[], doc.as_bytes())
                .unwrap()
                .status,
            200
        );
    };
    (0..100).for_each(|_| request());
    let start = Instant::now();
    (0..KEEP_ALIVE_REQUESTS).for_each(|_| request());
    let elapsed = start.elapsed();
    drop(c);
    handle.shutdown();
    elapsed
}

/// Requests per second of a [`keep_alive_run`] that took `elapsed`.
fn req_per_s(elapsed: Duration) -> f64 {
    f64::from(KEEP_ALIVE_REQUESTS) / elapsed.as_secs_f64()
}

#[test]
fn instrumented_keep_alive_throughput_within_5_percent() {
    let Some(_alone) = release_only() else {
        return;
    };
    use foxq::server::ServerConfig;

    // A/B over the same binary: a default server vs. one with maximal
    // tracing (ring on every request + JSONL log).
    let log_path = std::env::temp_dir().join(format!("foxq_perf_{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&log_path);
    let (baseline, traced) =
        alternate_best_of_5(&mut || keep_alive_run(keep_alive_config()), &mut || {
            keep_alive_run(ServerConfig {
                slow_ms: 0, // every request through the ring
                trace_log: Some(log_path.to_str().unwrap().to_string()),
                ..keep_alive_config()
            })
        });
    let (baseline, traced) = (req_per_s(baseline), req_per_s(traced));
    let _ = std::fs::remove_file(&log_path);
    eprintln!("keep-alive throughput: baseline {baseline:.0} req/s, traced {traced:.0} req/s");
    // The 5% budget, with the same measurement headroom style as the
    // other guards: full tracing must retain ≥ 80% of baseline here for
    // the ≤ 5% production bound to hold with margin (loopback req/s noise
    // between two multi-second runs is itself several percent).
    assert!(
        traced >= 0.80 * baseline,
        "tracing overhead too high: baseline {baseline:.0} req/s, traced {traced:.0} req/s"
    );
}

#[test]
fn profiled_keep_alive_throughput_within_5_percent() {
    let Some(_alone) = release_only() else {
        return;
    };
    use foxq::server::ServerConfig;

    // A/B over the same binary: observer-off vs. `--profile` (a
    // StreamProfiler on every /query lane plus allocator scope billing
    // and registry folds). The off side monomorphizes the engine with the
    // `()` observer — the hooks compile away entirely — so this guard
    // bounds the *on* cost: ≥ 95% of baseline in production terms, ≥ 80%
    // in-test to absorb loopback req/s noise between multi-second runs.
    let (baseline, profiled) =
        alternate_best_of_5(&mut || keep_alive_run(keep_alive_config()), &mut || {
            keep_alive_run(ServerConfig {
                profile: true,
                ..keep_alive_config()
            })
        });
    let (baseline, profiled) = (req_per_s(baseline), req_per_s(profiled));
    eprintln!(
        "keep-alive throughput: observer-off {baseline:.0} req/s, profiled {profiled:.0} req/s"
    );
    assert!(
        profiled >= 0.80 * baseline,
        "profiler overhead too high: observer-off {baseline:.0} req/s, \
         profiled {profiled:.0} req/s"
    );
}

#[test]
fn streamed_query_ttfb_and_peak_output_buffer() {
    let Some(_alone) = release_only() else {
        return;
    };
    use foxq::core::stream::StreamLimits;
    use foxq::server::client::{self, Client};
    use foxq::server::{Server, ServerConfig};
    use foxq::service::PreparedQuery;
    use foxq::xml::forest_to_xml_string;
    use foxq_gen::Dataset;
    use std::io::{Read, Write};
    use std::net::TcpStream;

    // The earliest-emission acceptance bar, on an output-heavy query whose
    // matches start near the front of the document (africa is the first
    // region): the streamed path must put first bytes on the wire while the
    // rest of the document is still uploading — TTFB ≤ 25% of total request
    // latency — and must never buffer more than a sliver of the output,
    // where the materializing path holds all of it at once.
    let query = "<o>{$input/site/regions/africa/item}</o>";
    let forest = foxq_gen::generate(Dataset::Xmark, 4 << 20, 0xE817);
    let xml = forest_to_xml_string(&forest).into_bytes();

    // (a) Service level: largest single flush vs. materialized output size.
    let prepared = PreparedQuery::compile(query).unwrap();
    let materialized = prepared
        .run_to_string(&xml, StreamLimits::default())
        .unwrap()
        .output;
    let mut max_chunk = 0usize;
    let mut total = 0usize;
    prepared
        .run_streaming(&xml, StreamLimits::default(), |c| {
            max_chunk = max_chunk.max(c.len());
            total += c.len();
            Ok(())
        })
        .unwrap();
    assert_eq!(total, materialized.len(), "streamed bytes diverge");
    assert!(total > 100_000, "query not output-heavy enough: {total} B");
    eprintln!(
        "streamed output: {total} B total, largest single flush {max_chunk} B \
         (materializing path buffers all {total} B)"
    );
    assert!(
        max_chunk * 4 <= total,
        "streaming must hold at most a quarter of the output at once: \
         largest flush {max_chunk} B of {total} B"
    );

    // (b) Server level: first response byte vs. last, streamed and buffered.
    let handle = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 2,
        ..ServerConfig::default()
    })
    .unwrap()
    .start()
    .unwrap();
    let addr = handle.local_addr();
    // Warm the query cache outside the timed window.
    let mut c = Client::connect(addr).unwrap();
    let warm = b"<site><regions><africa><item><name>w</name></item></africa></regions></site>";
    assert_eq!(
        c.request("POST", &client::query_target(query), &[], warm)
            .unwrap()
            .status,
        200
    );
    drop(c);

    // One raw timed exchange: a helper thread uploads the request while
    // this thread times first and last response byte — the two must overlap
    // on the streamed path, which is the whole point.
    let measure = |target: &str| -> (Duration, Duration) {
        let mut reader = TcpStream::connect(addr).unwrap();
        reader
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        reader.set_nodelay(true).ok();
        let mut writer = reader.try_clone().unwrap();
        let head = format!(
            "POST {target} HTTP/1.1\r\nhost: foxq\r\nconnection: close\r\ncontent-length: {}\r\n\r\n",
            xml.len()
        );
        let body = xml.clone();
        let t0 = Instant::now();
        let upload = std::thread::spawn(move || {
            writer.write_all(head.as_bytes()).unwrap();
            writer.write_all(&body).unwrap();
            writer.flush().unwrap();
        });
        let mut first = [0u8; 1];
        reader.read_exact(&mut first).unwrap();
        let ttfb = t0.elapsed();
        let mut rest = Vec::new();
        reader.read_to_end(&mut rest).unwrap();
        let total = t0.elapsed();
        upload.join().unwrap();
        assert_eq!(first[0], b'H', "unexpected first byte");
        assert!(
            rest.starts_with(b"TTP/1.1 200"),
            "unexpected response head: {}",
            String::from_utf8_lossy(&rest[..rest.len().min(80)])
        );
        (ttfb, total)
    };

    // Best of 3 per path: keep the run with the lowest TTFB fraction.
    let streamed_target = format!("{}&stream=1", client::query_target(query));
    let buffered_target = client::query_target(query);
    let mut streamed_frac = f64::MAX;
    let mut buffered_frac = f64::MAX;
    for _ in 0..3 {
        let (ttfb, total) = measure(&streamed_target);
        streamed_frac = streamed_frac.min(ttfb.as_secs_f64() / total.as_secs_f64());
        let (ttfb, total) = measure(&buffered_target);
        buffered_frac = buffered_frac.min(ttfb.as_secs_f64() / total.as_secs_f64());
    }
    handle.shutdown();
    eprintln!(
        "TTFB as a fraction of request latency: streamed {:.1}%, buffered {:.1}%",
        streamed_frac * 100.0,
        buffered_frac * 100.0
    );
    assert!(
        streamed_frac <= 0.25,
        "streamed TTFB must be ≤ 25% of total request latency, got {:.1}%",
        streamed_frac * 100.0
    );
}

#[test]
fn compose_example_completes_under_wall_clock_guard() {
    let Some(_alone) = release_only() else {
        return;
    };
    // The example binary sits next to the test binary's profile directory.
    // `cargo test --release --test perf_smoke` does not build examples, so
    // build it here if a previous step has not (e.g. a fresh CI runner).
    let mut dir = std::env::current_exe().unwrap();
    dir.pop();
    if dir.ends_with("deps") {
        dir.pop();
    }
    let path = dir.join("examples").join("compose");
    if !path.exists() {
        let status = std::process::Command::new(env!("CARGO"))
            .args(["build", "--release", "--example", "compose"])
            .status()
            .unwrap();
        assert!(status.success(), "building examples/compose failed");
    }
    assert!(path.exists(), "example binary missing: {}", path.display());
    let start = Instant::now();
    let out = std::process::Command::new(path).output().unwrap();
    let elapsed = start.elapsed();
    assert!(out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("single-pass composition"),
        "unexpected example output"
    );
    assert!(
        elapsed < Duration::from_secs(10),
        "examples/compose took {elapsed:?} (~0.1 s is usual; must stay under 10 s)"
    );
}
