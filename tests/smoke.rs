//! Smoke tests for the `foxq` CLI binary and the `examples/` programs: run
//! each on a tiny document and assert exit status plus golden output.
//!
//! The examples are compiled by `cargo test` alongside the test binaries;
//! they are located relative to the test executable
//! (`target/<profile>/examples/…`).

use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

const QUERY: &str = r#"<out>{ for $b in $input/person[./p_id/text() = "person0"]
   return let $r := $b/name/text() return $r }</out>"#;
const DOC: &str = "<person><p_id>person0</p_id><name>Jim</name><name>Li</name></person>";

/// A per-test scratch directory under the target dir.
fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("foxq-smoke-{test}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn write(dir: &std::path::Path, name: &str, content: &str) -> PathBuf {
    let p = dir.join(name);
    std::fs::write(&p, content).unwrap();
    p
}

fn stdout_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

// ---------------------------------------------------------------------------
// CLI
// ---------------------------------------------------------------------------

fn foxq() -> Command {
    Command::new(env!("CARGO_BIN_EXE_foxq"))
}

#[test]
fn cli_run_streams_a_document() {
    let dir = scratch("run");
    let q = write(&dir, "q.xq", QUERY);
    let x = write(&dir, "in.xml", DOC);
    let out = foxq().arg("run").arg(&q).arg(&x).output().unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(stdout_of(&out), "<out>JimLi</out>\n");
}

#[test]
fn cli_run_reads_stdin_by_default() {
    let dir = scratch("stdin");
    let q = write(&dir, "q.xq", QUERY);
    let mut child = foxq()
        .arg("run")
        .arg(&q)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .unwrap();
    use std::io::Write as _;
    child
        .stdin
        .take()
        .unwrap()
        .write_all(DOC.as_bytes())
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success());
    assert_eq!(stdout_of(&out), "<out>JimLi</out>\n");
}

#[test]
fn cli_compile_prints_rules_and_opt_report() {
    let dir = scratch("compile");
    let q = write(&dir, "q.xq", QUERY);
    let out = foxq().arg("compile").arg(&q).output().unwrap();
    assert!(out.status.success());
    let rules = stdout_of(&out);
    // Rule notation: at least an initial rule with the paper's arrow.
    assert!(rules.contains("->"), "no rules printed:\n{rules}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("optimized:"));

    let noopt = foxq()
        .args(["compile", "--no-opt"])
        .arg(&q)
        .output()
        .unwrap();
    assert!(noopt.status.success());
    // The raw §3 translation is strictly larger than the optimized MFT.
    assert!(stdout_of(&noopt).len() > rules.len());
}

#[test]
fn cli_stats_reports_engine_counters() {
    let dir = scratch("stats");
    let q = write(&dir, "q.xq", QUERY);
    let x = write(&dir, "in.xml", DOC);
    let out = foxq().arg("stats").arg(&q).arg(&x).output().unwrap();
    assert!(out.status.success());
    assert_eq!(stdout_of(&out), "<out>JimLi</out>\n");
    let err = String::from_utf8_lossy(&out.stderr);
    for counter in ["events:", "rule expansions:", "peak live nodes:"] {
        assert!(err.contains(counter), "missing {counter} in:\n{err}");
    }
}

#[test]
fn cli_errors_exit_nonzero() {
    let dir = scratch("errors");
    // Missing query file.
    let out = foxq().args(["run", "no-such-file.xq"]).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    // Syntactically invalid query.
    let bad = write(&dir, "bad.xq", "for $x return $x");
    let out = foxq().arg("run").arg(&bad).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("syntax error"));
    // Malformed XML.
    let q = write(&dir, "q.xq", QUERY);
    let x = write(&dir, "bad.xml", "<person><p_id>person0</p_id>");
    let out = foxq().arg("run").arg(&q).arg(&x).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    // Unknown command.
    let out = foxq().arg("frobnicate").output().unwrap();
    assert_eq!(out.status.code(), Some(1));
}

#[test]
fn cli_run_max_output_bounds_hostile_queries() {
    // 40 value-doubling lets: the output would be 2^40 trees. The budget
    // must abort the run with a clear error and exit code 1.
    let dir = scratch("max-output");
    let bomb = foxq::core::opt::nested_doubling_lets(40);
    let q = write(&dir, "bomb.xq", &bomb);
    let x = write(&dir, "in.xml", "<r/>");
    let out = foxq()
        .args(["run", "--max-output", "10000"])
        .arg(&q)
        .arg(&x)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("output limit"),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    // The batch path is bounded too: the bomb's cell fails, labeled.
    let out = foxq()
        .args(["batch", "--max-output", "10000", "-q"])
        .arg(&q)
        .arg(&x)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(
        stdout_of(&out).contains("error: output limit"),
        "stdout: {}",
        stdout_of(&out)
    );
    // An ordinary run is untouched by the default budget.
    let q = write(&dir, "q.xq", QUERY);
    let x = write(&dir, "in.xml", DOC);
    let out = foxq().arg("run").arg(&q).arg(&x).output().unwrap();
    assert!(out.status.success());
}

#[test]
fn cli_batch_answers_multiple_queries_in_one_pass() {
    let dir = scratch("batch");
    let q1 = write(&dir, "q1.xq", QUERY);
    let q2 = write(&dir, "q2.xq", "<names>{$input/person/name}</names>");
    let x = write(&dir, "in.xml", DOC);
    let out = foxq()
        .args(["batch", "-q"])
        .arg(&q1)
        .arg("-q")
        .arg(&q2)
        .arg("--stats")
        .arg(&x)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = stdout_of(&out);
    // Labeled output blocks, one per query, in -q order.
    let q1_pos = text.find("q1.xq").expect("q1 label");
    let q2_pos = text.find("q2.xq").expect("q2 label");
    assert!(q1_pos < q2_pos, "labels out of order:\n{text}");
    assert!(text.contains("<out>JimLi</out>"), "{text}");
    assert!(
        text.contains("<names><name>Jim</name><name>Li</name></names>"),
        "{text}"
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("one pass"), "missing stats report:\n{err}");
}

#[test]
fn cli_batch_reads_stdin_and_shards_multiple_documents() {
    let dir = scratch("batch-multi");
    let q = write(&dir, "q.xq", QUERY);
    // stdin path
    let mut child = foxq()
        .arg("batch")
        .arg("-q")
        .arg(&q)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .unwrap();
    use std::io::Write as _;
    child
        .stdin
        .take()
        .unwrap()
        .write_all(DOC.as_bytes())
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success());
    assert!(stdout_of(&out).contains("<out>JimLi</out>"));

    // Multiple documents: threaded batch output must be deterministic.
    let x1 = write(&dir, "a.xml", DOC);
    let x2 = write(
        &dir,
        "b.xml",
        "<person><p_id>person0</p_id><name>Bo</name></person>",
    );
    let run = |threads: &str| {
        let out = foxq()
            .arg("batch")
            .arg("-q")
            .arg(&q)
            .args(["--threads", threads])
            .arg(&x1)
            .arg(&x2)
            .output()
            .unwrap();
        assert!(out.status.success(), "threads={threads}");
        stdout_of(&out)
    };
    let serial = run("1");
    assert!(serial.contains("<out>JimLi</out>"), "{serial}");
    assert!(serial.contains("<out>Bo</out>"), "{serial}");
    assert_eq!(serial, run("4"), "batch output depends on thread count");
}

#[test]
fn cli_batch_errors_exit_nonzero() {
    let dir = scratch("batch-errors");
    // No queries at all.
    let out = foxq().arg("batch").output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    // Malformed XML: exit 1, but the labeled block contract still holds
    // (same shape as the multi-document path).
    let q = write(&dir, "q.xq", QUERY);
    let x = write(&dir, "bad.xml", "<person><p_id>");
    let out = foxq()
        .arg("batch")
        .arg("-q")
        .arg(&q)
        .arg(&x)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let text = stdout_of(&out);
    assert!(text.contains("### "), "no labeled block:\n{text}");
    assert!(text.contains("error: "), "no labeled error row:\n{text}");
    // Unparseable query file.
    let bad = write(&dir, "bad.xq", "for $x return $x");
    let out = foxq().arg("batch").arg("-q").arg(&bad).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
}

#[test]
fn cli_help_succeeds() {
    for args in [vec!["--help"], vec![]] {
        let out = foxq().args(&args).output().unwrap();
        assert!(out.status.success(), "{args:?}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("usage:"),
            "{args:?}"
        );
    }
}

/// Every flag is checked against the subcommand it is given to, and every
/// subcommand takes only the positional arguments it uses: a misuse exits
/// 1 naming the argument and the subcommand instead of being ignored.
#[test]
fn cli_rejects_misuse_naming_argument_and_subcommand() {
    let dir = scratch("misuse");
    write(&dir, "q.xq", QUERY);
    write(&dir, "a.xml", DOC);
    write(&dir, "b.xml", DOC);
    let cases: &[(&[&str], i32, &str)] = &[
        (
            &["run", "q.xq", "a.xml", "b.xml"],
            1,
            r#"run: unexpected argument "b.xml""#,
        ),
        (
            &["stats", "q.xq", "a.xml", "b.xml"],
            1,
            r#"stats: unexpected argument "b.xml""#,
        ),
        (
            &["store", "add", "--dir", "c", "--threads", "4", "a.xml"],
            1,
            "store add: --threads is not a flag of store add",
        ),
        (
            &["store", "query", "--dir", "c", "-q", "q.xq", "--id", "x"],
            1,
            "store query: --id is not a flag of store query",
        ),
        (
            &["store", "ls", "--dir", "c", "--stats"],
            1,
            "store ls: --stats is not a flag of store ls",
        ),
        (
            &["serve", "extra"],
            1,
            r#"serve: unexpected argument "extra""#,
        ),
        (&["batch", "a.xml"], 1, "batch: missing -q"),
        (
            &["run", "--max-output", "x", "q.xq"],
            1,
            "run: --max-output needs a number",
        ),
        (&["store", "frob"], 1, r#"unknown command "store frob""#),
        // Flags go anywhere among the positionals.
        (&["compile", "q.xq", "--no-opt"], 0, ""),
    ];
    for (args, code, said) in cases {
        let out = foxq().args(*args).current_dir(&dir).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(*code), "{args:?}: {stderr}");
        assert!(stderr.contains(said), "{args:?}: {stderr}");
    }
    let compile = |args: &[&str]| foxq().args(args).current_dir(&dir).output().unwrap();
    assert_eq!(
        compile(&["compile", "q.xq", "--no-opt"]).stdout,
        compile(&["compile", "--no-opt", "q.xq"]).stdout
    );

    // The usage text is rendered from the option table: every flag is in it.
    let help = foxq().arg("--help").output().unwrap();
    let help = String::from_utf8_lossy(&help.stderr);
    let words: Vec<&str> = help
        .split(|c: char| c.is_whitespace() || "[],()".contains(c))
        .collect();
    for flag in [
        "--stream",
        "--timing",
        "--profile",
        "--no-opt",
        "--dir",
        "--id",
        "-q",
        "--query-file",
        "--stats",
        "--threads",
        "--max-output",
        "--addr",
        "--corpus",
        "--max-body-bytes",
        "--cache-capacity",
        "--read-timeout-ms",
        "--write-timeout-ms",
        "--max-connections",
        "--slow-ms",
        "--trace-log",
        "--trace-log-max-bytes",
    ] {
        assert!(
            words.contains(&flag),
            "--help does not name {flag}:\n{help}"
        );
    }
}

#[test]
fn cli_store_roundtrip_and_tape_stats() {
    let dir = scratch("store");
    let corpus = dir.join("corpus");
    let q = write(&dir, "q.xq", QUERY);
    let x = write(&dir, "person.xml", DOC);

    // add → ls → query from the tape.
    let out = foxq()
        .args(["store", "add", "--dir"])
        .arg(&corpus)
        .arg(&x)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout_of(&out).contains("stored person"),
        "{}",
        stdout_of(&out)
    );

    let out = foxq()
        .args(["store", "ls", "--dir"])
        .arg(&corpus)
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(stdout_of(&out).contains("person"), "{}", stdout_of(&out));
    assert!(stdout_of(&out).contains("FET3"), "{}", stdout_of(&out));

    // migrate is a no-op on a corpus of current tapes.
    let out = foxq()
        .args(["store", "migrate", "--dir"])
        .arg(&corpus)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout_of(&out).contains("migrated 0 tape(s)"),
        "{}",
        stdout_of(&out)
    );

    let out = foxq()
        .args(["store", "query", "--dir"])
        .arg(&corpus)
        .arg("-q")
        .arg(&q)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout_of(&out).contains("<out>JimLi</out>"),
        "{}",
        stdout_of(&out)
    );

    // `foxq stats <tape.fet>` inspects the footer without a query…
    let tape = corpus.join("person.fet");
    let out = foxq().arg("stats").arg(&tape).output().unwrap();
    assert!(out.status.success());
    let text = stdout_of(&out);
    for line in [
        "format:            FET3",
        "events:",
        "label table:",
        "max depth:",
        "text bytes:",
        "skip index:",
        "#text",
    ] {
        assert!(text.contains(line), "missing {line:?} in:\n{text}");
    }

    // …and `foxq run query tape.fet` replays it with identical output.
    let out = foxq().arg("run").arg(&q).arg(&tape).output().unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(stdout_of(&out), "<out>JimLi</out>\n");

    // rm empties the corpus.
    let out = foxq()
        .args(["store", "rm", "--dir"])
        .arg(&corpus)
        .arg("person")
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(!tape.exists());
}

/// A subtree-copying query has no label projection, yet over a tape it is
/// not fed what its engine is dead in: `foxq stats` says how much.
#[test]
fn cli_stats_on_a_tape_reports_what_a_copying_query_skipped() {
    let dir = scratch("tape-skip");
    let corpus = dir.join("corpus");
    let q = write(&dir, "copy.xq", "<o>{$input/site/people/person}</o>");
    let x = write(
        &dir,
        "site.xml",
        "<site><regions><africa><item><name>decoy</name></item></africa></regions>\
         <people><person><name>Jim</name></person></people></site>",
    );
    let out = foxq()
        .args(["store", "add", "--dir"])
        .arg(&corpus)
        .arg(&x)
        .output()
        .unwrap();
    assert!(out.status.success());

    let tape = corpus.join("site.fet");
    let out = foxq().arg("stats").arg(&q).arg(&tape).output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(out.status.success(), "stderr: {stderr}");
    // <africa>…</africa>: eight events inside <regions> nobody was fed.
    assert!(stderr.contains("prefiltered:       8 events"), "{stderr}");
    let seeked = stderr
        .lines()
        .find_map(|l| l.strip_prefix("seek-skipped:"))
        .unwrap_or_else(|| panic!("no seek-skipped line in:\n{stderr}"));
    assert!(!seeked.trim().starts_with('0'), "{stderr}");
    assert!(!stderr.contains("index-skipped:"), "{stderr}");

    let from_xml = foxq().arg("run").arg(&q).arg(&x).output().unwrap();
    assert!(from_xml.status.success());
    assert_eq!(stdout_of(&out), stdout_of(&from_xml));
    assert_eq!(
        stdout_of(&out),
        "<o><person><name>Jim</name></person></o>\n"
    );
}

/// The same verdict over XML text: what the engine is dead in is skimmed,
/// not fed, and `foxq stats` says how much.
#[test]
fn cli_stats_on_xml_reports_what_the_skim_withheld() {
    let dir = scratch("xml-skim");
    let q = write(&dir, "copy.xq", "<o>{$input/site/people/person}</o>");
    let x = write(
        &dir,
        "site.xml",
        "<site><regions><africa><item><name>decoy</name></item></africa></regions>\
         <people><person><name>Jim</name></person></people></site>",
    );
    let out = foxq().arg("stats").arg(&q).arg(&x).output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(out.status.success(), "stderr: {stderr}");
    let count = |prefix: &str| -> u64 {
        stderr
            .lines()
            .find_map(|l| l.strip_prefix(prefix))
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|n| n.parse().ok())
            .unwrap_or_else(|| panic!("no {prefix:?} line in:\n{stderr}"))
    };
    // <africa>…</africa>: eight events inside <regions> nobody was fed. With
    // them, the ten nodes' 20 events and the end of input: what `events`
    // read when every event was fed.
    assert_eq!(count("prefiltered:"), 8, "{stderr}");
    assert_eq!(count("events:") + count("prefiltered:"), 21, "{stderr}");
    assert_eq!(
        stdout_of(&out),
        "<o><person><name>Jim</name></person></o>\n"
    );
}

// ---------------------------------------------------------------------------
// Examples
// ---------------------------------------------------------------------------

/// `target/<profile>/examples/<name>`, located relative to the test binary
/// (which lives in `target/<profile>/deps/`).
fn example(name: &str) -> Command {
    let mut dir = std::env::current_exe().unwrap();
    dir.pop(); // the test binary
    if dir.ends_with("deps") {
        dir.pop();
    }
    let path = dir.join("examples").join(name);
    assert!(path.exists(), "example binary missing: {}", path.display());
    Command::new(path)
}

#[test]
fn example_quickstart_produces_the_papers_result() {
    let out = example("quickstart").output().unwrap();
    assert!(out.status.success());
    assert!(stdout_of(&out).contains("output: <out>JimLi</out>"));
}

#[test]
fn example_paper_person_agrees_with_hand_written_mft() {
    let out = example("paper_person").output().unwrap();
    assert!(out.status.success());
    assert!(stdout_of(&out).contains("translation agrees with the paper's hand-written transducer"));
}

#[test]
fn example_compose_demonstrates_lemma2() {
    // Cap the chain length: the naive construction is exponential in k and
    // debug builds of k=12 take tens of seconds.
    let out = example("compose").arg("8").output().unwrap();
    assert!(out.status.success());
    let text = stdout_of(&out);
    assert!(text.contains("single-pass composition avoids materializing"));
    assert!(text.contains("Lemma 2"));
}

#[test]
fn example_xmark_queries_all_engines_agree() {
    // 16 KiB keeps the debug-mode DOM reference evaluation fast.
    let out = example("xmark_queries").arg("16").output().unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = stdout_of(&out);
    assert!(text.contains("all supported engines agree with the reference semantics"));
    // Q4 must show the paper's GCX N/A.
    assert!(text.contains("N/A"), "expected a GCX N/A row:\n{text}");
}
