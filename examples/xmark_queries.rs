//! Run all nine benchmark queries of the paper's Fig. 3 on a generated
//! XMark-like document, with all engines, and compare results.
//!
//! ```text
//! cargo run --release --example xmark_queries [-- <target-KiB>]
//! ```

use foxq::core::opt::optimize;
use foxq::core::stream::run_streaming_on_forest;
use foxq::core::translate::translate;
use foxq::forest::ForestStats;
use foxq::xml::{forest_to_xml_string, CountingSink, ForestSink};
use foxq::xquery::{eval_query, parse_query};
use foxq_gcx::{run_gcx_on_forest, GcxError};
use foxq_gen::{generate, Dataset};
use std::time::Instant;

fn main() {
    let kib: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(256);
    let input = generate(Dataset::Xmark, kib << 10, 42);
    let stats = ForestStats::of_forest(&input);
    println!("input: XMark-like, {stats}\n");
    println!(
        "{:<9} {:>9} {:>9} {:>10} {:>10} {:>8}",
        "query", "opt.ms", "gcx.ms", "opt.mem", "gcx.mem", "agree"
    );

    for (name, src) in foxq_bench::QUERIES {
        let query = parse_query(src).unwrap();
        let mft = optimize(translate(&query).unwrap());
        let expected = forest_to_xml_string(&eval_query(&query, &input).unwrap());

        let t0 = Instant::now();
        let (sink, sstats) = run_streaming_on_forest(&mft, &input, ForestSink::new()).unwrap();
        let mft_ms = t0.elapsed().as_secs_f64() * 1e3;
        let mft_out = forest_to_xml_string(&sink.into_forest());
        assert_eq!(mft_out, expected, "MFT output differs on {name}");

        let t1 = Instant::now();
        let gcx = run_gcx_on_forest(&query, &input, ForestSink::new());
        match gcx {
            Ok((gsink, gstats)) => {
                let gcx_ms = t1.elapsed().as_secs_f64() * 1e3;
                let gcx_out = forest_to_xml_string(&gsink.into_forest());
                let agree = gcx_out == expected;
                println!(
                    "{:<9} {:>9.1} {:>9.1} {:>10} {:>10} {:>8}",
                    name,
                    mft_ms,
                    gcx_ms,
                    sstats.peak_live_nodes,
                    gstats.peak_buffered_nodes,
                    if agree { "yes" } else { "NO" }
                );
                assert!(agree, "GCX output differs on {name}");
            }
            Err(GcxError::Unsupported(why)) => {
                println!(
                    "{:<9} {:>9.1} {:>9} {:>10} {:>10} {:>8}",
                    name, mft_ms, "N/A", sstats.peak_live_nodes, "N/A", "-"
                );
                println!("          (gcx: {why} — the paper's Fig. 4(c) N/A)");
            }
            Err(e) => panic!("gcx failed on {name}: {e}"),
        }
        // Throughput check: counting sink avoids materialization cost.
        let (_, _) = run_streaming_on_forest(&mft, &input, CountingSink::default()).unwrap();
    }
    println!("\nall supported engines agree with the reference semantics ✓");
}
