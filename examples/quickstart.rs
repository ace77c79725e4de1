//! Quickstart: compile a MinXQuery program to a macro forest transducer,
//! optimize it, and stream a document through it.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use foxq::core::opt::optimize_with_stats;
use foxq::core::print_mft;
use foxq::core::stream::{run_streaming_to_string, StreamLimits};
use foxq::core::translate::translate;
use foxq::xquery::parse_query;

fn main() {
    // The paper's running example P_person (§2.2): select the text of all
    // name-children of persons whose p_id is "person0".
    let src = r#"<out>{ for $b in $input/person[./p_id/text() = "person0"]
                  return let $r := $b/name/text() return $r }</out>"#;
    let query = parse_query(src).expect("MinXQuery parses");
    println!("query:\n  {query}\n");

    // §3: translate to an MFT; §4.1: optimize.
    let unopt = translate(&query).expect("translation succeeds");
    let (opt, stats) = optimize_with_stats(unopt.clone());
    println!(
        "translated: {} states (size {}), optimized: {} states (size {})",
        unopt.state_count(),
        unopt.size(),
        opt.state_count(),
        opt.size()
    );
    println!(
        "optimizer: {} unused + {} constant parameters removed, {} stay states inlined, \
         {} states unreachable\n",
        stats.unused_params_removed,
        stats.const_params_removed,
        stats.stay_states_inlined,
        stats.states_removed
    );
    println!("optimized transducer rules:\n{}", print_mft(&opt));

    // Stream the paper's example document through it.
    let doc = "<person><p_id><a/>person0</p_id><name>Jim</name><c/><name>Li</name></person>";
    let run = run_streaming_to_string(&opt, doc.as_bytes(), StreamLimits::default())
        .expect("streaming run");
    println!("input:  {doc}");
    println!("output: {}", run.output);
    println!(
        "stats: {} events, {} rule expansions, peak {} live nodes ({} bytes)",
        run.stats.events,
        run.stats.expansions,
        run.stats.peak_live_nodes,
        run.stats.peak_live_bytes
    );
    assert_eq!(run.output, "<out>JimLi</out>"); // the paper's result
}
