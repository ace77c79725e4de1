//! Decision data for ROADMAP item 4: what each way of skipping a document
//! delivers and costs, per query, in process.
//!
//! ```sh
//! cargo run --release --example skip_paths -- doc.fet doc.xml benchmark/queries [rounds]
//! ```
//!
//! Three read paths over a tape and two over the XML text it was made
//! from, all obeying the dead-location rule (a subtree at whose open every
//! lane is dead is skipped: seeked over on the tape, skimmed in the text):
//!
//! * **index** — `run_lanes` over the `TapeReader`: the posting-list cursor
//!   when the query has a label projection, the scan otherwise;
//! * **scan+prefilter** — `run_lanes` over `TapeDrive::Linear` under the
//!   query's own plan: static label prefilter plus the engine's verdict;
//! * **scan, verdict only** — the same under
//!   `QuerySetPlan::pass_through`: no static analysis at all;
//! * **xml+prefilter** — `run_lanes` over an `XmlReader`'s `Events` under
//!   the query's own plan (what `POST /query` runs);
//! * **xml, verdict only** — the same under `pass_through` (what `foxq run`
//!   does, through `run_streaming_with_observer`).
//!
//! Each round times the five paths once per query, in an order that
//! alternates between rounds; the table reports delivered events (exact)
//! and the median [q1–q3] of the rounds in milliseconds. The last rows are
//! `service.multi6_over_solo_sum` taken over each path: six lanes in one
//! pass against the sum of six solo passes, outputs discarded.

use foxq::core::stream::StreamLimits;
use foxq::core::{EmitSink, Mft};
use foxq::service::{run_lanes, Events, PreparedQuery, QuerySetPlan};
use foxq::store::{TapeDrive, TapeReader};
use foxq::xml::{NullSink, WriterSink, XmlReader};
use std::path::Path;
use std::time::Instant;

const QUERIES: [(&str, &str); 6] = [
    ("Q1", "query01.xq"),
    ("Q2", "query02.xq"),
    ("Q4", "query04.xq"),
    ("Q16", "query16.xq"),
    ("Q17", "query17.xq"),
    ("Q13", "query13.xq"),
];
const PATHS: [&str; 5] = [
    "index",
    "scan+prefilter",
    "scan, verdict only",
    "xml+prefilter",
    "xml, verdict only",
];

/// The document in its two forms.
struct Doc<'a> {
    tape: &'a Path,
    xml: &'a Path,
}

/// One run over `doc` on path `path`; returns lane 0's delivered events
/// and the wall time in milliseconds.
fn replay<S: EmitSink>(mfts: &[&Mft], doc: &Doc, path: usize, sinks: Vec<S>) -> (u64, f64) {
    let plan = match path {
        2 | 4 => QuerySetPlan::pass_through(mfts.len()),
        _ => QuerySetPlan::new(mfts.iter().copied()),
    };
    let lanes = sinks.into_iter().map(|sink| (sink, ())).collect();
    let start = Instant::now();
    let limits = StreamLimits::serving();
    let run = if path < 3 {
        let reader = TapeReader::open_file(doc.tape).expect("open tape");
        match path {
            0 => run_lanes(mfts, reader, lanes, limits, &plan),
            _ => run_lanes(mfts, TapeDrive::Linear(reader), lanes, limits, &plan),
        }
        .expect("replay")
    } else {
        let reader = XmlReader::new(std::fs::File::open(doc.xml).expect("open xml"));
        run_lanes(mfts, Events(reader), lanes, limits, &plan).expect("parse")
    };
    let ms = start.elapsed().as_secs_f64() * 1e3;
    let (_, stats, ()) = run
        .results
        .into_iter()
        .next()
        .expect("a lane")
        .expect("lane ran");
    (stats.events, ms)
}

/// `median [q1–q3]` of the samples.
fn quartiles(samples: &mut [f64]) -> String {
    samples.sort_by(|a, b| a.total_cmp(b));
    let at = |q: f64| samples[((samples.len() - 1) as f64 * q).round() as usize];
    format!("{:.2} [{:.2}–{:.2}]", at(0.5), at(0.25), at(0.75))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (doc, dir) = match args.as_slice() {
        [tape, xml, dir, ..] => (
            Doc {
                tape: Path::new(tape),
                xml: Path::new(xml),
            },
            Path::new(dir),
        ),
        _ => panic!("usage: skip_paths <doc.fet> <doc.xml> <queries dir> [rounds]"),
    };
    let rounds: usize = args.get(3).map_or(10, |r| r.parse().expect("rounds"));
    let prepared: Vec<PreparedQuery> = QUERIES
        .iter()
        .map(|(_, file)| {
            let source = std::fs::read_to_string(dir.join(file)).expect("read query");
            PreparedQuery::compile(&source).expect("compile")
        })
        .collect();

    println!("| query | path | delivered events | run ms, median [q1–q3] of {rounds} |");
    println!("|---|---|---|---|");
    for ((name, _), query) in QUERIES.iter().zip(&prepared) {
        let mut delivered = [0u64; 5];
        let mut times: [Vec<f64>; 5] = Default::default();
        for round in 0..rounds {
            let mut order = [0, 1, 2, 3, 4];
            if round % 2 == 1 {
                order.reverse();
            }
            for path in order {
                let sink = WriterSink::new(Vec::new());
                let (events, ms) = replay(&[query.mft()], &doc, path, vec![sink]);
                delivered[path] = events;
                times[path].push(ms);
            }
        }
        for ((path, delivered), times) in PATHS.iter().zip(delivered).zip(&mut times) {
            println!("| {name} | {path} | {delivered} | {} |", quartiles(times));
        }
    }

    let six: Vec<&Mft> = prepared.iter().map(|q| q.mft()).collect();
    for (path, name) in PATHS.iter().enumerate() {
        let mut ratios = Vec::new();
        for round in 0..rounds {
            let together = || replay(&six, &doc, path, six.iter().map(|_| NullSink).collect()).1;
            let alone = || -> f64 {
                six.iter()
                    .map(|m| replay(&[m], &doc, path, vec![NullSink]).1)
                    .sum()
            };
            let (t, a) = if round % 2 == 0 {
                let t = together();
                (t, alone())
            } else {
                let a = alone();
                (together(), a)
            };
            ratios.push(t / a);
        }
        println!(
            "| six lanes | {name} | multi6_over_solo_sum | {} |",
            quartiles(&mut ratios)
        );
    }
}
