//! The foxq-store claim: serving a hot corpus from pre-parsed FET tapes
//! beats re-tokenizing the XML on every query, the close-offset seek path
//! beats even that by never decoding prefilter-withheld subtrees, and the
//! label skip index beats the seek path by never *visiting* frames the
//! query set cannot match.
//!
//! Five engines over the same XMark document and the same prefilter-
//! eligible query:
//!
//! * `reparse`           — XML bytes → `XmlReader` → engine;
//! * `replay`            — tape → `TapeReader` → engine (no tokenization);
//! * `replay_seek`       — linear scan with seek-based subtree skipping
//!   (`TapeDrive::Linear`, the index forced off);
//! * `replay_index`      — merged posting-list cursor, in-memory;
//! * `replay_index_mmap` — the same cursor over an mmapped tape file.
//!
//! The PR's acceptance bars (enforced in `tests/perf_smoke.rs`): the seek
//! replay is ≥ 3× faster than the reparse, and the index cursor is ≥ 2×
//! faster than the seek replay.

use criterion::{criterion_group, criterion_main, Criterion};
use foxq_core::stream::StreamLimits;
use foxq_forest::ForestStats;
use foxq_gen::Dataset;
use foxq_service::{run_lanes, run_multi, run_multi_on_tape, PreparedQuery, QuerySetPlan};
use foxq_store::{ingest_xml_to_tape, TapeDrive, TapeReader};
use foxq_xml::{forest_to_xml_string, NullSink, XmlReader};
use std::io::Cursor;

/// A child-path navigator: prefilter-eligible, touches ~1/9 of XMark.
const QUERY: &str = "<o>{$input/site/people/person/name/text()}</o>";

fn bench_store_replay(criterion: &mut Criterion) {
    let bytes: usize = std::env::var("FOXQ_BENCH_BYTES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(2 << 20);
    let forest = foxq_gen::generate(Dataset::Xmark, bytes, 0xF0E5);
    let xml = forest_to_xml_string(&forest).into_bytes();
    let (out, info, _) = ingest_xml_to_tape(&xml[..], Cursor::new(Vec::new())).unwrap();
    let tape = out.into_inner();
    let tape_file =
        std::env::temp_dir().join(format!("foxq-bench-replay-{}.fet", std::process::id()));
    std::fs::write(&tape_file, &tape).unwrap();
    let prepared = PreparedQuery::compile(QUERY).unwrap();
    let mft = prepared.mft();
    let plan = QuerySetPlan::new([mft]);
    eprintln!(
        "store_replay: {} XML bytes, {} tape bytes ({} index), {} events (XMark {:?} nodes)",
        xml.len(),
        tape.len(),
        info.index_bytes,
        info.events,
        ForestStats::of_forest(&forest).nodes,
    );

    let mut group = criterion.benchmark_group("store_replay");
    group.sample_size(10);
    group.bench_function("reparse", |b| {
        b.iter(|| run_multi(&[mft], XmlReader::new(&xml[..]), vec![NullSink]).unwrap())
    });
    group.bench_function("replay", |b| {
        b.iter(|| {
            let reader = TapeReader::new(Cursor::new(&tape[..])).unwrap();
            run_multi(&[mft], reader, vec![NullSink]).unwrap()
        })
    });
    group.bench_function("replay_seek", |b| {
        b.iter(|| {
            let reader = TapeReader::new(Cursor::new(&tape[..])).unwrap();
            run_lanes(
                &[mft],
                TapeDrive::Linear(reader),
                vec![(NullSink, ())],
                StreamLimits::default(),
                &plan,
            )
            .unwrap()
        })
    });
    group.bench_function("replay_index", |b| {
        b.iter(|| {
            let reader = TapeReader::new(Cursor::new(&tape[..])).unwrap();
            let run = run_multi_on_tape(
                &[mft],
                reader,
                vec![NullSink],
                StreamLimits::default(),
                &plan,
            )
            .unwrap();
            assert!(run.source.index_skipped_bytes > 0, "index path not taken");
            run
        })
    });
    group.bench_function("replay_index_mmap", |b| {
        b.iter(|| {
            let reader = TapeReader::open_file(&tape_file).unwrap();
            let run = run_multi_on_tape(
                &[mft],
                reader,
                vec![NullSink],
                StreamLimits::default(),
                &plan,
            )
            .unwrap();
            assert!(run.source.index_skipped_bytes > 0, "index path not taken");
            run
        })
    });
    group.finish();
    let _ = std::fs::remove_file(&tape_file);
}

criterion_group!(benches, bench_store_replay);
criterion_main!(benches);
