//! Benchmark harness reproducing the paper's evaluation (§5).
//!
//! The nine benchmark programs of Fig. 3 are embedded verbatim from the
//! benchmark package's `benchmark/queries/`; [`run_engine`] executes one
//! (query, engine, document) cell of the paper's Figure 4 and reports
//! elapsed time plus the engine's own buffer peak — the two series in every
//! plot. The `figures` binary prints
//! the tables; the Criterion benches cover per-figure timing at a fixed
//! size.

use foxq_core::opt::{optimize_with_stats, OptStats};
use foxq_core::stream::run_streaming_on_forest;
use foxq_core::translate::translate;
use foxq_core::Mft;
use foxq_forest::{forest_size, Forest};
use foxq_gcx::run_gcx_on_forest;
use foxq_gen::Dataset;
use foxq_xml::CountingSink;
use foxq_xquery::{eval_query, parse_query, Query};
use std::time::{Duration, Instant};

/// The benchmark programs of Fig. 3, in paper order.
pub const QUERIES: [(&str, &str); 9] = [
    ("Q1", include_str!("../../../benchmark/queries/query01.xq")),
    ("Q2", include_str!("../../../benchmark/queries/query02.xq")),
    ("Q4", include_str!("../../../benchmark/queries/query04.xq")),
    ("Q13", include_str!("../../../benchmark/queries/query13.xq")),
    ("Q16", include_str!("../../../benchmark/queries/query16.xq")),
    ("Q17", include_str!("../../../benchmark/queries/query17.xq")),
    (
        "double",
        include_str!("../../../benchmark/queries/double.xq"),
    ),
    (
        "fourstar",
        include_str!("../../../benchmark/queries/fourstar.xq"),
    ),
    (
        "deepdup",
        include_str!("../../../benchmark/queries/deepdup.xq"),
    ),
];

/// Fetch a benchmark query's source by name.
pub fn query_source(name: &str) -> &'static str {
    QUERIES
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("unknown benchmark query {name}"))
        .1
}

/// The engines compared in Figure 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// Translated MFT without §4.1 optimizations, streaming.
    MftNoOpt,
    /// Translated + optimized MFT, streaming.
    MftOpt,
    /// The GCX-substitute baseline.
    Gcx,
    /// The in-memory reference evaluator (full buffering, like Saxon's role
    /// in the paper: a non-streaming comparison point).
    Dom,
}

impl Engine {
    pub const ALL: [Engine; 4] = [Engine::MftNoOpt, Engine::MftOpt, Engine::Gcx, Engine::Dom];

    pub fn name(self) -> &'static str {
        match self {
            Engine::MftNoOpt => "mft-noopt",
            Engine::MftOpt => "mft-opt",
            Engine::Gcx => "gcx",
            Engine::Dom => "dom",
        }
    }
}

/// A compiled benchmark query: parsed once, translated once.
pub struct Compiled {
    pub name: String,
    pub query: Query,
    pub unopt: Mft,
    pub opt: Mft,
    pub opt_stats: OptStats,
}

/// Parse and translate one benchmark query.
pub fn compile(name: &str, src: &str) -> Compiled {
    let query = parse_query(src).unwrap_or_else(|e| panic!("parsing {name}: {e}"));
    let unopt = translate(&query).unwrap_or_else(|e| panic!("translating {name}: {e}"));
    let (opt, opt_stats) = optimize_with_stats(unopt.clone());
    Compiled {
        name: name.to_string(),
        query,
        unopt,
        opt,
        opt_stats,
    }
}

/// Compile all nine benchmark queries.
pub fn compile_all() -> Vec<Compiled> {
    QUERIES.iter().map(|(n, s)| compile(n, s)).collect()
}

/// Result of one engine run.
#[derive(Debug, Clone, Copy)]
pub struct RunResult {
    pub elapsed: Duration,
    /// Peak engine-internal buffer in nodes (the paper's memory series).
    pub peak_nodes: usize,
    /// Output size (nodes).
    pub output_nodes: u64,
}

/// Run one cell of Figure 4. `None` means the engine does not support the
/// query (GCX on Q4 — the paper's "N/A").
pub fn run_engine(engine: Engine, c: &Compiled, input: &Forest) -> Option<RunResult> {
    match engine {
        Engine::MftNoOpt | Engine::MftOpt => {
            let m = if engine == Engine::MftOpt {
                &c.opt
            } else {
                &c.unopt
            };
            let start = Instant::now();
            let (sink, stats) = run_streaming_on_forest(m, input, CountingSink::default()).ok()?;
            Some(RunResult {
                elapsed: start.elapsed(),
                peak_nodes: stats.peak_live_nodes,
                output_nodes: sink.nodes,
            })
        }
        Engine::Gcx => {
            let start = Instant::now();
            match run_gcx_on_forest(&c.query, input, CountingSink::default()) {
                Ok((sink, stats)) => Some(RunResult {
                    elapsed: start.elapsed(),
                    peak_nodes: stats.peak_buffered_nodes,
                    output_nodes: sink.nodes,
                }),
                Err(foxq_gcx::GcxError::Unsupported(_)) => None,
                Err(e) => panic!("gcx failed on {}: {e}", c.name),
            }
        }
        Engine::Dom => {
            let start = Instant::now();
            let out = eval_query(&c.query, input).ok()?;
            let out_nodes = forest_size(&out) as u64;
            Some(RunResult {
                elapsed: start.elapsed(),
                // The DOM engine buffers the entire input plus its output.
                peak_nodes: forest_size(input) + forest_size(&out),
                output_nodes: out_nodes,
            })
        }
    }
}

/// Input documents for one figure: XMark for 4(a)–(f), the four datasets of
/// Table 1 for the corner-case figures 4(g)–(i).
pub fn figure_inputs(fig: &str, sizes: &[usize], seed: u64) -> Vec<(String, Forest)> {
    match fig {
        "4g" | "4h" | "4i" => Dataset::ALL
            .iter()
            .map(|&d| {
                let bytes = sizes.first().copied().unwrap_or(1 << 20);
                (d.name().to_string(), foxq_gen::generate(d, bytes, seed))
            })
            .collect(),
        _ => sizes
            .iter()
            .map(|&b| {
                (
                    format!("{:.1}MiB", b as f64 / (1 << 20) as f64),
                    foxq_gen::generate(Dataset::Xmark, b, seed),
                )
            })
            .collect(),
    }
}

/// Map figure ids to queries (Figure 4's panels).
pub fn figure_query(fig: &str) -> &'static str {
    match fig {
        "4a" => "Q1",
        "4b" => "Q2",
        "4c" => "Q4",
        "4d" => "Q13",
        "4e" => "Q16",
        "4f" => "Q17",
        "4g" => "double",
        "4h" => "fourstar",
        "4i" => "deepdup",
        other => panic!("unknown figure {other}"),
    }
}

/// All figure panels in order.
pub const FIGURES: [&str; 9] = ["4a", "4b", "4c", "4d", "4e", "4f", "4g", "4h", "4i"];

#[cfg(test)]
mod tests {
    use super::*;
    use foxq_forest::ForestStats;
    use foxq_xml::forest_to_xml_string;

    #[test]
    fn all_benchmark_queries_compile() {
        for c in compile_all() {
            c.unopt.validate().unwrap();
            c.opt.validate().unwrap();
            assert!(c.opt.size() <= c.unopt.size(), "{}", c.name);
        }
    }

    #[test]
    fn q2_and_q13_optimize_to_fts() {
        // The paper: Q2 and Q13 satisfy Theorem 2 ⇒ parameters all removed.
        for name in ["Q2", "Q13"] {
            let c = compile(name, query_source(name));
            assert!(c.opt.is_ft(), "{name} should optimize to an FT");
        }
        // Q1 has a predicate ⇒ parameters remain.
        let q1 = compile("Q1", query_source("Q1"));
        assert!(!q1.opt.is_ft());
    }

    #[test]
    fn engines_agree_on_small_xmark() {
        let input = foxq_gen::generate(Dataset::Xmark, 60_000, 11);
        for c in compile_all() {
            let reference = eval_query(&c.query, &input).unwrap();
            let expected = forest_to_xml_string(&reference);
            // Streaming engines, via ForestSink for exact comparison.
            for (label, m) in [("unopt", &c.unopt), ("opt", &c.opt)] {
                let (sink, _) = foxq_core::stream::run_streaming_on_forest(
                    m,
                    &input,
                    foxq_xml::ForestSink::new(),
                )
                .unwrap();
                assert_eq!(
                    forest_to_xml_string(&sink.into_forest()),
                    expected,
                    "{} {label}",
                    c.name
                );
            }
            match foxq_gcx::run_gcx_on_forest(&c.query, &input, foxq_xml::ForestSink::new()) {
                Ok((sink, _)) => {
                    assert_eq!(
                        forest_to_xml_string(&sink.into_forest()),
                        expected,
                        "{} gcx",
                        c.name
                    );
                }
                Err(foxq_gcx::GcxError::Unsupported(_)) => {
                    assert_eq!(c.name, "Q4", "only Q4 may be unsupported by gcx");
                }
                Err(e) => panic!("gcx error on {}: {e}", c.name),
            }
        }
    }

    #[test]
    fn memory_shapes_match_figure4() {
        // Optimized MFT memory is flat in input size on Q1; unoptimized
        // grows; gcx flat too (the paper's central claim).
        let c = compile("Q1", query_source("Q1"));
        let small = foxq_gen::generate(Dataset::Xmark, 40_000, 5);
        let big = foxq_gen::generate(Dataset::Xmark, 400_000, 5);
        assert!(ForestStats::of_forest(&big).nodes > 5 * ForestStats::of_forest(&small).nodes);
        let peak = |e, f: &Forest| run_engine(e, &c, f).unwrap().peak_nodes;
        let opt_ratio = peak(Engine::MftOpt, &big) as f64 / peak(Engine::MftOpt, &small) as f64;
        let noopt_ratio =
            peak(Engine::MftNoOpt, &big) as f64 / peak(Engine::MftNoOpt, &small) as f64;
        let gcx_ratio = peak(Engine::Gcx, &big) as f64 / peak(Engine::Gcx, &small) as f64;
        assert!(opt_ratio < 2.0, "opt grew: {opt_ratio}");
        assert!(gcx_ratio < 2.0, "gcx grew: {gcx_ratio}");
        assert!(noopt_ratio > 4.0, "noopt flat: {noopt_ratio}");
    }

    #[test]
    fn gcx_is_na_on_q4_but_mft_runs_it() {
        let c = compile("Q4", query_source("Q4"));
        let input = foxq_gen::generate(Dataset::Xmark, 50_000, 3);
        assert!(run_engine(Engine::Gcx, &c, &input).is_none());
        assert!(run_engine(Engine::MftOpt, &c, &input).is_some());
    }
}
