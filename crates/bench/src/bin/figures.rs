//! Regenerate the paper's tables and figures.
//!
//! ```text
//! cargo run -p foxq-bench --release --bin figures            # everything
//! cargo run -p foxq-bench --release --bin figures -- --fig 4a
//! cargo run -p foxq-bench --release --bin figures -- --table 1
//! cargo run -p foxq-bench --release --bin figures -- --ablation
//! cargo run -p foxq-bench --release --bin figures -- --compose
//! ```
//!
//! Input sizes default to 1, 2, 4, 8 MiB (the paper sweeps 100 MB – 100 GB
//! on server hardware; the *shapes* — who wins, what stays flat, what grows
//! — are size-independent). Override with `FOXQ_SIZES=1,4,16` (MiB) or
//! `--sizes 1,4,16`.
//!
//! `--csv <path>` additionally appends one machine-readable row per engine
//! cell (`section,query,engine,input,input_bytes,ns,peak_nodes,output_nodes,
//! samples,ns_mean,ns_stddev,ns_mad,outliers_dropped`) for offline
//! statistics and plotting. `--samples N` (default 1) repeats each cell N
//! times; `ns` is then the median and the trailing columns carry the robust
//! statistics of the criterion stand-in (mean ± stddev over the samples
//! surviving a 3.5·MAD outlier cut). Rows cover the sections that run
//! engines over inputs — the figure panels, the ablation, and the
//! `--store` tape comparison (engines `reparse`, `replay`, `replay-seek`,
//! `replay-index`, `replay-index-mmap`);
//! `--table 1` (dataset shapes) and `--compose` (composition construction
//! timings) print to stdout only.

use criterion::Summary;
use foxq_bench::{
    compile, figure_inputs, figure_query, query_source, run_engine, Engine, RunResult, FIGURES,
};
use foxq_forest::{Forest, ForestStats};
use foxq_gen::Dataset;
use foxq_tt::{compose_tt_tt, compose_tt_tt_naive, Mtt, TNode};
use std::io::Write;
use std::time::{Duration, Instant};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let sizes = parse_sizes(&args);
    let samples = parse_samples(&args);
    let mut csv = CsvLog::from_args(&args);
    let mut did_something = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--fig" => {
                i += 1;
                let fig = args.get(i).expect("--fig needs an argument (4a..4i|all)");
                if fig == "all" {
                    for f in FIGURES {
                        figure(f, &sizes, samples, &mut csv);
                    }
                } else {
                    figure(fig, &sizes, samples, &mut csv);
                }
                did_something = true;
            }
            "--table" => {
                i += 1;
                table1(&sizes);
                did_something = true;
            }
            "--ablation" => {
                ablation(&sizes, samples, &mut csv);
                did_something = true;
            }
            "--store" => {
                store_replay(&sizes, samples, &mut csv);
                did_something = true;
            }
            "--compose" => {
                compose_table();
                did_something = true;
            }
            "--sizes" | "--csv" | "--samples" => {
                i += 1; // value parsed up front
            }
            other => panic!("unknown argument {other}"),
        }
        i += 1;
    }
    if !did_something {
        table1(&sizes);
        for f in FIGURES {
            figure(f, &sizes, samples, &mut csv);
        }
        ablation(&sizes, samples, &mut csv);
        store_replay(&sizes, samples, &mut csv);
        compose_table();
    }
}

/// Per-run CSV sink behind `--csv <path>`; a no-op when absent.
struct CsvLog {
    out: Option<std::io::BufWriter<std::fs::File>>,
}

impl CsvLog {
    fn from_args(args: &[String]) -> CsvLog {
        let path = args
            .iter()
            .position(|a| a == "--csv")
            .map(|i| args.get(i + 1).expect("--csv needs a path").clone());
        let out = path.map(|p| {
            let mut f = std::io::BufWriter::new(
                std::fs::File::create(&p).unwrap_or_else(|e| panic!("cannot create {p}: {e}")),
            );
            writeln!(
                f,
                "section,query,engine,input,input_bytes,ns,peak_nodes,output_nodes,\
                 samples,ns_mean,ns_stddev,ns_mad,outliers_dropped"
            )
            .expect("csv write");
            f
        });
        CsvLog { out }
    }

    fn enabled(&self) -> bool {
        self.out.is_some()
    }

    fn row(
        &mut self,
        section: &str,
        query: &str,
        engine: &str,
        input: &str,
        input_bytes: usize,
        cell: Option<&(RunResult, Summary)>,
    ) {
        let Some(out) = self.out.as_mut() else {
            return;
        };
        match cell {
            Some((r, s)) => writeln!(
                out,
                "{section},{query},{engine},{input},{input_bytes},{},{},{},{},{},{},{},{}",
                s.median.as_nanos(),
                r.peak_nodes,
                r.output_nodes,
                s.samples,
                s.mean.as_nanos(),
                s.std_dev.as_nanos(),
                s.mad.as_nanos(),
                s.outliers_dropped,
            ),
            None => writeln!(
                out,
                "{section},{query},{engine},{input},{input_bytes},NA,NA,NA,NA,NA,NA,NA,NA",
            ),
        }
        .expect("csv write");
    }
}

/// Serialized size of an input (only computed when the CSV log is active).
fn input_bytes(csv: &CsvLog, input: &Forest) -> usize {
    if csv.enabled() {
        ForestStats::of_forest(input).xml_bytes
    } else {
        0
    }
}

/// Measure one engine cell `samples` times: the run whose time is closest
/// to the median is the representative (its memory/output counters are
/// deterministic anyway), the summary carries the timing statistics.
fn run_cell(
    engine: Engine,
    c: &foxq_bench::Compiled,
    input: &Forest,
    samples: usize,
) -> Option<(RunResult, Summary)> {
    let mut runs = Vec::with_capacity(samples.max(1));
    for _ in 0..samples.max(1) {
        runs.push(run_engine(engine, c, input)?);
    }
    let durations: Vec<Duration> = runs.iter().map(|r| r.elapsed).collect();
    let summary = criterion::summarize(&durations).expect("at least one sample");
    let rep = *runs
        .iter()
        .min_by_key(|r| r.elapsed.abs_diff(summary.median))
        .expect("at least one run");
    Some((rep, summary))
}

fn parse_samples(args: &[String]) -> usize {
    args.iter()
        .position(|a| a == "--samples")
        .and_then(|i| args.get(i + 1))
        .map(|s| s.parse().expect("--samples needs a positive number"))
        .map(|n: usize| n.max(1))
        .unwrap_or(1)
}

fn parse_sizes(args: &[String]) -> Vec<usize> {
    let spec = args
        .iter()
        .position(|a| a == "--sizes")
        .and_then(|i| args.get(i + 1).cloned())
        .or_else(|| std::env::var("FOXQ_SIZES").ok())
        .unwrap_or_else(|| "1,2,4,8".to_string());
    spec.split(',')
        .map(|s| {
            let mib: f64 = s.trim().parse().expect("sizes are MiB numbers");
            (mib * (1 << 20) as f64) as usize
        })
        .collect()
}

/// One panel of Figure 4.
fn figure(fig: &str, sizes: &[usize], samples: usize, csv: &mut CsvLog) {
    let qname = figure_query(fig);
    let c = compile(qname, query_source(qname));
    let corner = matches!(fig, "4g" | "4h" | "4i");
    println!();
    if corner {
        println!(
            "== Figure 4({}): `{}` query over the Table-1 datasets ==",
            &fig[1..],
            qname
        );
    } else {
        println!(
            "== Figure 4({}): XMark {} — series vs input size ==",
            &fig[1..],
            qname
        );
    }
    println!(
        "{:<22} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "input", "noopt.ms", "opt.ms", "gcx.ms", "noopt.mem", "opt.mem", "gcx.mem"
    );
    for (label, input) in figure_inputs(fig, sizes, 0xF0E5) {
        let bytes = input_bytes(csv, &input);
        let mut cell = |e| {
            let r = run_cell(e, &c, &input, samples);
            csv.row(fig, qname, e.name(), &label, bytes, r.as_ref());
            match r {
                Some((r, s)) => (
                    format!("{:.1}", s.median.as_secs_f64() * 1e3),
                    format!("{}", r.peak_nodes),
                ),
                None => ("N/A".to_string(), "N/A".to_string()),
            }
        };
        let (t_no, m_no) = cell(Engine::MftNoOpt);
        let (t_opt, m_opt) = cell(Engine::MftOpt);
        let (t_gcx, m_gcx) = cell(Engine::Gcx);
        println!(
            "{label:<22} {t_no:>12} {t_opt:>12} {t_gcx:>12} {m_no:>12} {m_opt:>12} {m_gcx:>12}"
        );
    }
    println!("(mem = engine-internal peak buffered nodes; the paper plots MB — shapes match)");
}

/// Table 1: the input files.
fn table1(sizes: &[usize]) {
    let bytes = sizes.last().copied().unwrap_or(1 << 20);
    println!(
        "\n== Table 1: input XML files (generated at ~{} MiB) ==",
        bytes >> 20
    );
    println!(
        "{:<26} {:>12} {:>8} {:>12}",
        "dataset", "size(bytes)", "depth", "nodes"
    );
    for d in Dataset::ALL {
        let f = foxq_gen::generate(d, bytes, 0xF0E5);
        let s = ForestStats::of_forest(&f);
        println!(
            "{:<26} {:>12} {:>8} {:>12}",
            d.name(),
            s.xml_bytes,
            s.depth,
            s.nodes
        );
    }
    println!("(paper: XMark depth 13, TreeBank depth 37, Medline/Protein depth 8;");
    println!(" all attribute nodes encoded as element nodes)");
}

/// §4.1 ablation: effect of the optimizations per query.
fn ablation(sizes: &[usize], samples: usize, csv: &mut CsvLog) {
    let bytes = sizes.first().copied().unwrap_or(1 << 20);
    let input = foxq_gen::generate(Dataset::Xmark, bytes, 0xF0E5);
    let in_bytes = input_bytes(csv, &input);
    println!(
        "\n== Section 4.1 ablation: unoptimized vs optimized MFT (XMark, {:.1} MiB) ==",
        bytes as f64 / (1 << 20) as f64
    );
    println!(
        "{:<9} {:>7} {:>7} {:>7} {:>7} {:>10} {:>10} {:>11} {:>11}",
        "query", "st.un", "st.opt", "pm.un", "pm.opt", "t.un(ms)", "t.opt(ms)", "mem.un", "mem.opt"
    );
    for (name, src) in foxq_bench::QUERIES {
        let c = compile(name, src);
        let un = run_cell(Engine::MftNoOpt, &c, &input, samples).unwrap();
        let op = run_cell(Engine::MftOpt, &c, &input, samples).unwrap();
        csv.row(
            "ablation",
            name,
            Engine::MftNoOpt.name(),
            "xmark",
            in_bytes,
            Some(&un),
        );
        csv.row(
            "ablation",
            name,
            Engine::MftOpt.name(),
            "xmark",
            in_bytes,
            Some(&op),
        );
        println!(
            "{:<9} {:>7} {:>7} {:>7} {:>7} {:>10.1} {:>10.1} {:>11} {:>11}",
            name,
            c.unopt.state_count(),
            c.opt.state_count(),
            c.unopt.max_params(),
            c.opt.max_params(),
            un.1.median.as_secs_f64() * 1e3,
            op.1.median.as_secs_f64() * 1e3,
            un.0.peak_nodes,
            op.0.peak_nodes,
        );
    }
    println!("(st = states, pm = max parameters; the paper reports ~1 order of magnitude)");
}

/// foxq-store: reparse vs tape replay vs seek-skipping scan vs the
/// merged index cursor (in-memory and mmapped), on a prefilter-eligible
/// XMark navigator.
fn store_replay(sizes: &[usize], samples: usize, csv: &mut CsvLog) {
    use foxq_core::stream::StreamLimits;
    use foxq_service::{run_lanes, run_multi, run_multi_on_tape, PreparedQuery, QuerySetPlan};
    use foxq_store::{ingest_xml_to_tape, TapeDrive, TapeReader};
    use std::io::Cursor;

    const QNAME: &str = "people-names";
    const QUERY: &str = "<o>{$input/site/people/person/name/text()}</o>";
    let prepared = PreparedQuery::compile(QUERY).expect("store query compiles");
    let mft = prepared.mft();
    let plan = QuerySetPlan::new([mft]);

    println!("\n== foxq-store: XML reparse vs tape replay (query {QNAME}) ==");
    println!(
        "{:<22} {:>12} {:>12} {:>10} {:>10} {:>10} {:>10} {:>12}",
        "input",
        "reparse.ms",
        "replay.ms",
        "seek.ms",
        "index.ms",
        "mmap.ms",
        "speedup",
        "skip.bytes"
    );
    for &size in sizes {
        let forest = foxq_gen::generate(Dataset::Xmark, size, 0xF0E5);
        let xml = foxq_xml::forest_to_xml_string(&forest).into_bytes();
        let (out, _, _) =
            ingest_xml_to_tape(&xml[..], Cursor::new(Vec::new())).expect("tape write");
        let tape = out.into_inner();
        let tape_file =
            std::env::temp_dir().join(format!("foxq-figures-store-{}.fet", std::process::id()));
        std::fs::write(&tape_file, &tape).expect("tape file write");
        let label = format!("{:.1}MiB", size as f64 / (1 << 20) as f64);

        // Each engine returns (elapsed, peak_nodes, output_events, skipped_bytes).
        let measure = |f: &mut dyn FnMut() -> (usize, u64, u64)| {
            let mut durations = Vec::with_capacity(samples.max(1));
            let mut rep = (0usize, 0u64, 0u64);
            for _ in 0..samples.max(1) {
                let start = Instant::now();
                rep = f();
                durations.push(start.elapsed());
            }
            let summary = criterion::summarize(&durations).expect("at least one sample");
            (summary, rep)
        };
        // Skipped bytes: seek-jumped on the scan path, index-jumped on the
        // cursor path — never both nonzero in one run.
        type Plain = (foxq_xml::NullSink, foxq_core::stream::StreamStats);
        let lane_stats = |run: &foxq_service::MultiRun<Plain>| {
            let (_, stats) = run.results[0].as_ref().expect("lane succeeded");
            (
                stats.peak_live_nodes,
                stats.output_events,
                run.source.seek_skipped_bytes + run.source.index_skipped_bytes,
            )
        };

        let (reparse_s, reparse_r) = measure(&mut || {
            let run = run_multi(
                &[mft],
                foxq_xml::XmlReader::new(&xml[..]),
                vec![foxq_xml::NullSink],
            )
            .expect("reparse run");
            lane_stats(&run)
        });
        let (replay_s, replay_r) = measure(&mut || {
            let reader = TapeReader::new(Cursor::new(&tape[..])).expect("tape open");
            let run = run_multi(&[mft], reader, vec![foxq_xml::NullSink]).expect("replay run");
            lane_stats(&run)
        });
        let (seek_s, seek_r) = measure(&mut || {
            let reader = TapeReader::new(Cursor::new(&tape[..])).expect("tape open");
            let run = run_lanes(
                &[mft],
                TapeDrive::Linear(reader),
                vec![(foxq_xml::NullSink, ())],
                StreamLimits::default(),
                &plan,
            )
            .expect("seek run");
            let (_, stats, ()) = run.results[0].as_ref().expect("lane succeeded");
            (
                stats.peak_live_nodes,
                stats.output_events,
                run.source.seek_skipped_bytes,
            )
        });
        let (index_s, index_r) = measure(&mut || {
            let reader = TapeReader::new(Cursor::new(&tape[..])).expect("tape open");
            let run = run_multi_on_tape(
                &[mft],
                reader,
                vec![foxq_xml::NullSink],
                StreamLimits::default(),
                &plan,
            )
            .expect("index run");
            assert!(run.source.index_skipped_bytes > 0, "index path not taken");
            lane_stats(&run)
        });
        let (mmap_s, mmap_r) = measure(&mut || {
            let reader = TapeReader::open_file(&tape_file).expect("tape mmap");
            let run = run_multi_on_tape(
                &[mft],
                reader,
                vec![foxq_xml::NullSink],
                StreamLimits::default(),
                &plan,
            )
            .expect("mmap run");
            lane_stats(&run)
        });
        assert_eq!(reparse_r.1, seek_r.1, "outputs must agree");
        assert_eq!(reparse_r.1, index_r.1, "outputs must agree");
        assert_eq!(reparse_r.1, mmap_r.1, "outputs must agree");

        for (engine, s, r) in [
            ("reparse", &reparse_s, &reparse_r),
            ("replay", &replay_s, &replay_r),
            ("replay-seek", &seek_s, &seek_r),
            ("replay-index", &index_s, &index_r),
            ("replay-index-mmap", &mmap_s, &mmap_r),
        ] {
            let cell = (
                RunResult {
                    elapsed: s.median,
                    peak_nodes: r.0,
                    output_nodes: r.1,
                },
                *s,
            );
            csv.row("store", QNAME, engine, &label, xml.len(), Some(&cell));
        }
        println!(
            "{label:<22} {:>12.1} {:>12.1} {:>10.1} {:>10.1} {:>10.1} {:>9.1}x {:>12}",
            reparse_s.median.as_secs_f64() * 1e3,
            replay_s.median.as_secs_f64() * 1e3,
            seek_s.median.as_secs_f64() * 1e3,
            index_s.median.as_secs_f64() * 1e3,
            mmap_s.median.as_secs_f64() * 1e3,
            reparse_s.median.as_secs_f64() / index_s.median.as_secs_f64().max(1e-9),
            index_r.2,
        );
        let _ = std::fs::remove_file(&tape_file);
    }
    println!(
        "(replay skips tokenization; seek never decodes prefiltered subtrees; \
         index never visits unmatched frames; mmap reads the tape zero-copy)"
    );
}

/// §4.2 / Lemma 2: stay-move composition is quadratic, the classical
/// construction exponential.
fn compose_table() {
    println!("\n== Lemma 2: TT∘TT composition — stay moves vs classical (Rounds/Baker) ==");
    println!(
        "{:<4} {:>10} {:>12} {:>12} {:>14}",
        "k", "stay.size", "stay.μs", "naive.size", "naive.μs"
    );
    for k in [2usize, 4, 6, 8, 10, 12, 14] {
        let (m1, m2) = chain_pair(k);
        let t0 = Instant::now();
        let stay = compose_tt_tt(&m1, &m2);
        let stay_t = t0.elapsed();
        let t1 = Instant::now();
        let naive = compose_tt_tt_naive(&m1, &m2, 100_000_000);
        let naive_t = t1.elapsed();
        match naive {
            Some(n) => println!(
                "{:<4} {:>10} {:>12.1} {:>12} {:>14.1}",
                k,
                stay.size(),
                stay_t.as_secs_f64() * 1e6,
                n.size(),
                naive_t.as_secs_f64() * 1e6
            ),
            None => println!(
                "{:<4} {:>10} {:>12.1} {:>12} {:>14}",
                k,
                stay.size(),
                stay_t.as_secs_f64() * 1e6,
                "fuel-out",
                "-"
            ),
        }
    }
    println!("(M1: a→b^k chain; M2: b→c(·,·) spawner — the paper's §4.2 example family)");
}

/// The paper's composition example family: M1 rewrites each `a` into a chain
/// of k `b`s; M2 spawns two copies per `b`.
fn chain_pair(k: usize) -> (Mtt, Mtt) {
    use foxq_core::mft::XVar;
    let mut m1 = Mtt::new();
    let a = m1.alphabet.intern_elem("a");
    let b = m1.alphabet.intern_elem("b");
    let q0 = m1.add_state("q0", 0);
    m1.initial = q0;
    let mut rhs = TNode::call(q0, XVar::X1, vec![]);
    for _ in 0..k {
        rhs = TNode::sym(b, rhs, TNode::Eps);
    }
    m1.rules[q0.idx()].by_sym.insert(a, rhs);

    let mut m2 = Mtt::new();
    let b2 = m2.alphabet.intern_elem("b");
    let c = m2.alphabet.intern_elem("c");
    let p0 = m2.add_state("p0", 0);
    m2.initial = p0;
    m2.rules[p0.idx()].by_sym.insert(
        b2,
        TNode::sym(
            c,
            TNode::call(p0, XVar::X1, vec![]),
            TNode::call(p0, XVar::X1, vec![]),
        ),
    );
    (m1, m2)
}
