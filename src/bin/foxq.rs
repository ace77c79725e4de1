//! `foxq` — command-line XQuery streaming by forest transducers.
//!
//! Every subcommand is one row of [`COMMANDS`] and every flag one row of
//! [`FLAGS`] — the subcommands that take it, its value, its help line and
//! what it sets — or, for a bound, of [`LIMITS`]. One parser ([`parse`])
//! reads the tables, and `foxq --help` is rendered from them.
//! Output goes to stdout; diagnostics to stderr. Exit code 1 on any error.

use foxq::core::profile::StreamProfiler;
use foxq::core::stream::{run_streaming_with_observer, StreamLimits, StreamObserver};
use foxq::core::{print_mft, EmissionAnalysis, EmitSink, EmitWriter, Mft};
use foxq::obs::{micros_since, Stage, StageTimes};
use foxq::server::http::{Coalescer, FlushBeforeRead};
use foxq::server::{Server, ServerConfig};
use foxq::service::{
    run_lanes, BatchDriver, BatchReport, Limit, Limits, PreparedQuery, QueryCache, QuerySetPlan,
    RunReport, SetLimit, LIMITS,
};
use foxq::store::tape::VERSION;
use foxq::store::{Corpus, TapeReader};
use foxq::xml::{WriterSink, XmlReader};
use std::cell::RefCell;
use std::io::{Read, Write};
use std::num::ParseIntError;
use std::process::ExitCode;
use std::sync::Arc;
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
    if matches!(
        args.first().map(String::as_str),
        None | Some("--help" | "-h")
    ) {
        eprint!("{}", usage());
        return Ok(());
    }
    let (command, opts) = parse(&args)?;
    (command.run)(opts)
}

// ---------------------------------------------------------------------------
// The command line: one table of subcommands, one of flags, one parser
// ---------------------------------------------------------------------------

/// A subcommand: its positional arguments (synopsis and how many), the
/// flags it cannot do without, what it does, and its entry point.
struct Command {
    name: &'static str,
    args: &'static str,
    arity: (usize, usize),
    needs: &'static [&'static str],
    about: &'static str,
    run: fn(Opts) -> Result<(), String>,
}

const ANY: usize = usize::MAX;

#[rustfmt::skip]
const COMMANDS: &[Command] = &[
    Command { name: "run", args: "<query.xq> [input.xml|input.fet]", arity: (1, 2), needs: &[],
        run: |opts| cmd_run(opts, false),
        about: "stream input (default stdin) through the query, building only what the query \
            can use: after each element's open, if the engine has no pending call left at that \
            position (its label prefilter withholding the element is the static case), the \
            subtree is skipped. XML text is skimmed to the matching close: every byte is still \
            checked — a malformed document fails with the error and offset it always got — but \
            no event is built. A .fet input replays the pre-parsed FET3 event tape (no XML \
            tokenization) and seeks there instead; every decoded subtree is still checked \
            against its stored hash, and what lies inside a seeked-over subtree is never \
            read, so never verified. An older tape fails, naming foxq store migrate --dir. \
            foxq stats reports the skipped events as 'prefiltered'" },
    Command { name: "stats", args: "<query.xq> [input.xml|input.fet] | <tape.fet>",
        arity: (1, 2), needs: &[], run: |opts| cmd_run(opts, true),
        about: "run and report engine statistics to stderr, including an earliest emission \
            summary (early-emitting states, streamed output fraction, emitting flushes, events \
            to first emit). Given only a tape, inspect it instead: format, events, labels, \
            depth, text compression and per-label skip-index sizes" },
    Command { name: "compile", args: "<query.xq>", arity: (1, 1), needs: &[], run: cmd_compile,
        about: "print the (optimized) MFT in rule notation" },
    Command { name: "batch", args: "[input.xml]...", arity: (0, ANY), needs: &["-q"],
        run: cmd_batch,
        about: "answer all queries over each input in a single pass per document; with no \
            inputs, one pass over stdin; with several, documents are sharded across worker \
            threads. Outputs are labeled '### doc query'" },
    Command { name: "store add", args: "<input.xml>...", arity: (1, ANY), needs: &["--dir"],
        run: store_add,
        about: "parse each document once into the corpus at DIR (FET3 tapes + manifest); ids \
            default to the file stem" },
    Command { name: "store ls", args: "", arity: (0, 0), needs: &["--dir"], run: store_ls,
        about: "list the corpus manifest" },
    Command { name: "store rm", args: "<id>...", arity: (1, ANY), needs: &["--dir"],
        run: store_rm, about: "remove stored documents" },
    Command { name: "store migrate", args: "[id]...", arity: (0, ANY), needs: &["--dir"],
        run: store_migrate,
        about: "rewrite FET1 and FET2 tapes as FET3 in place (all documents, or just the \
            given ids), reading each old tape once front to back and checking its hashes; \
            FET3 tapes are left untouched. Every other command refuses older tapes" },
    Command { name: "store query", args: "[id]...", arity: (0, ANY), needs: &["--dir", "-q"],
        run: store_query,
        about: "run the query set over every stored document (or just the given ids), \
            replaying tapes via the label skip index where the whole set has a label projection \
            and by a scan otherwise, seeking over every subtree no query of the set can \
            use — no XML re-parsing either way. Output is labeled as for batch" },
    Command { name: "serve", args: "", arity: (0, 0), needs: &[], run: cmd_serve,
        about: "long-running HTTP/1.1 server: POST /query?q=<urlencoded query> and POST \
            /batch?q=..&q=.. stream the request body through prepared queries; add &stream=1 \
            to /query for a chunked response that carries each irrevocable output prefix before \
            the server waits for more of the body, the first at once and the rest at least \
            every 16 KiB (run statistics arrive as HTTP trailers); GET /metrics (Prometheus), GET \
            /healthz, POST /shutdown (graceful drain). Every response carries \
            X-Foxq-Request-Id and Server-Timing headers. Runs until shut down" },
];

/// One flag: its name and alias, the subcommands that take it, its value,
/// and its help line.
#[derive(Clone, Copy)]
struct Flag {
    name: &'static str,
    alias: Option<&'static str>,
    cmds: &'static [&'static str],
    arg: Arg,
    help: &'static str,
}

/// What a flag takes, and how it sets [`Opts`].
#[derive(Clone, Copy)]
enum Arg {
    /// No value.
    Switch(fn(&mut Opts)),
    /// A value, shown as the placeholder.
    Text(&'static str, fn(&mut Opts, String)),
    /// A non-negative integer, shown as the placeholder.
    Number(
        &'static str,
        fn(&mut Opts, &str) -> Result<(), ParseIntError>,
    ),
    /// The bound of a [`LIMITS`] row; 0 lifts it.
    Limit(&'static Limit, SetLimit),
}

impl Flag {
    /// The flag and its value's placeholder, e.g. `--threads N`.
    fn usage(&self) -> String {
        match self.arg {
            Arg::Switch(_) => self.name.to_string(),
            Arg::Text(what, _) | Arg::Number(what, _) => format!("{} {what}", self.name),
            Arg::Limit(..) => format!("{} N", self.name),
        }
    }
}

/// Every flag: [`FLAGS`], then that of each [`LIMITS`] row with one, which
/// the commands that run queries take if they meet its bound, else `serve`.
#[rustfmt::skip]
fn flags() -> impl Iterator<Item = Flag> {
    let bounds = LIMITS.iter().filter_map(|&limit| {
        let (name, set) = limit.flag?;
        let cmds = if limit.cli.is_some() { &["run", "stats", "batch", "store query"] } else { &["serve"][..] };
        Some(Flag { name, alias: None, cmds, arg: Arg::Limit(limit, set), help: "" })
    });
    FLAGS.iter().copied().chain(bounds)
}

#[rustfmt::skip]
const FLAGS: &[Flag] = &[
    Flag { name: "--stream", alias: None, cmds: &["run"], arg: Arg::Switch(|o| o.stream = true),
        help: "write output as the engine proves it final, not when the output buffer fills or \
            the input ends: the first irrevocable output prefix reaches stdout at once, and each \
            later one before foxq waits for more input, and at least every 16 KiB" },
    Flag { name: "--timing", alias: None, cmds: &["stats"], arg: Arg::Switch(|o| o.timing = true),
        help: "add a per-stage wall-time table (parse/translate/optimize/execute/...)" },
    Flag { name: "--profile", alias: None, cmds: &["stats", "serve"],
        arg: Arg::Switch(|o| o.profile = true),
        help: "attach the engine resource profiler: stats adds the per-state hot-state table \
            and a sparkline buffer timeline (live bytes / pending calls over the input); serve \
            profiles every /query lane and serves per-query aggregates at GET /debug/profile" },
    Flag { name: "--no-opt", alias: None, cmds: &["compile"], arg: Arg::Switch(|o| o.no_opt = true),
        help: "print the raw §3 translation instead of the optimized MFT" },
    Flag { name: "--dir", alias: None,
        cmds: &["store add", "store ls", "store rm", "store migrate", "store query"],
        arg: Arg::Text("DIR", |o, dir| o.dir = dir), help: "the corpus directory" },
    Flag { name: "--id", alias: None, cmds: &["store add"],
        arg: Arg::Text("ID", |o, id| o.id = Some(id)),
        help: "store the (single) input under ID instead of its file stem" },
    Flag { name: "-q", alias: Some("--query-file"), cmds: &["batch", "store query"],
        arg: Arg::Text("<query.xq>", |o, path| o.queries.push(path)),
        help: "a query to answer; repeat for more, all answered in one pass per document" },
    Flag { name: "--stats", alias: None, cmds: &["batch", "store query"],
        arg: Arg::Switch(|o| o.stats = true),
        help: "report the run's totals and each answer's peaks to stderr" },
    Flag { name: "--threads", alias: None, cmds: &["batch", "store query", "serve"],
        arg: Arg::Number("N", |o, v| v.parse().map(|n| o.server().threads = n)),
        help: "worker threads (default: the available parallelism)" },
    Flag { name: "--addr", alias: None, cmds: &["serve"],
        arg: Arg::Text("HOST:PORT", |o, addr| o.server().addr = addr),
        help: "address to listen on (default 127.0.0.1:8080; port 0 = any free port)" },
    Flag { name: "--corpus", alias: None, cmds: &["serve"],
        arg: Arg::Text("DIR", |o, dir| o.server().corpus_dir = Some(dir)),
        help: "serve the corpus at DIR: POST /corpus/{id} ingests documents, GET /corpus lists \
            them, and POST /query?q=..&doc=<id> answers from the stored tape" },
    Flag { name: "--cache-capacity", alias: None, cmds: &["serve"],
        arg: Arg::Number("N", |o, v| v.parse().map(|n| o.server().cache_capacity = n)),
        help: "prepared queries the server keeps compiled" },
    Flag { name: "--slow-ms", alias: None, cmds: &["serve"],
        arg: Arg::Number("MS", |o, v| v.parse().map(|ms| o.server().slow_ms = ms)),
        help: "requests taking at least MS land in GET /debug/requests (append ?format=json for \
            JSONL) (default 500; 0 = all)" },
    Flag { name: "--trace-log", alias: None, cmds: &["serve"],
        arg: Arg::Text("FILE", |o, path| o.server().trace_log = Some(path)),
        help: "append every request as one JSON line to FILE" },
    Flag { name: "--trace-log-max-bytes", alias: None, cmds: &["serve"],
        arg: Arg::Number("N", |o, v| v.parse().map(|n| o.server().trace_log_max_bytes = n)),
        help: "rotate the trace log to FILE.1 past N bytes (default 64 MiB; 0 = never)" },
];

/// Everything a command line sets, each at its default until a flag sets it.
struct Opts {
    /// Positional arguments, in order.
    args: Vec<String>,
    stream: bool,
    timing: bool,
    profile: bool,
    no_opt: bool,
    stats: bool,
    /// `-q` files, in order.
    queries: Vec<String>,
    dir: String,
    id: Option<String>,
    /// The bounds: the rows' CLI defaults, or `serve`'s for `serve`.
    limits: Limits,
    /// `serve`'s settings, whose `threads` (default: the available
    /// parallelism) batch and store query use too. Built on first use by
    /// [`Opts::server`], so a command that takes none of them does not pay
    /// for working the defaults out.
    server: Option<ServerConfig>,
}

impl Default for Opts {
    fn default() -> Self {
        Opts {
            args: Vec::new(),
            stream: false,
            timing: false,
            profile: false,
            no_opt: false,
            stats: false,
            queries: Vec::new(),
            dir: String::new(),
            id: None,
            limits: Limits::cli(),
            server: None,
        }
    }
}

impl Opts {
    fn server(&mut self) -> &mut ServerConfig {
        self.server.get_or_insert_with(|| ServerConfig {
            addr: "127.0.0.1:8080".to_string(),
            ..ServerConfig::default()
        })
    }
}

/// Read a command line (after `foxq`): pick its [`Command`], apply each
/// flag's [`Arg`], and check that the command takes every flag given, has
/// the ones it needs, and gets as many positional arguments as it takes.
fn parse(args: &[String]) -> Result<(&'static Command, Opts), String> {
    let words = |command: &Command| command.name.split(' ').count();
    let command = COMMANDS
        .iter()
        .find(|c| {
            let given = args.iter().take(words(c)).map(String::as_str);
            c.name.split(' ').eq(given)
        })
        .ok_or_else(|| {
            let said = match args.get(1) {
                Some(sub) if args[0] == "store" => format!("store {sub}"),
                _ => args[0].clone(),
            };
            format!("unknown command {said:?} (foxq --help lists them)")
        })?;
    let name = command.name;
    let fail = |msg: String| format!("{name}: {msg}\nusage: {}", synopsis(command).join(" "));
    let mut opts = Opts::default();
    if name == "serve" {
        opts.limits = Limits::serving();
    }
    let mut seen = Vec::new();
    let mut rest = args[words(command)..].iter();
    while let Some(arg) = rest.next() {
        if !arg.starts_with('-') {
            opts.args.push(arg.clone());
            continue;
        }
        let flag = flags()
            .find(|f| f.name == arg || f.alias == Some(arg.as_str()))
            .ok_or_else(|| fail(format!("unknown flag {arg:?}")))?;
        if !flag.cmds.contains(&name) {
            let takers = flag.cmds.join(", ");
            return Err(fail(format!(
                "{arg} is not a flag of {name} (only {takers})"
            )));
        }
        seen.push(flag.name);
        let mut value = |what| {
            rest.next()
                .ok_or_else(|| fail(format!("{arg} needs {what}")))
        };
        match flag.arg {
            Arg::Switch(set) => set(&mut opts),
            Arg::Text(what, set) => set(&mut opts, value(what)?.clone()),
            Arg::Number(what, set) => {
                let v = value(what)?;
                set(&mut opts, v).map_err(|_| fail(format!("{arg} needs a number, not {v:?}")))?;
            }
            Arg::Limit(_, set) => {
                let v = value("N")?;
                let n = v
                    .parse()
                    .map_err(|_| fail(format!("{arg} needs a number, not {v:?}")))?;
                set(&mut opts.limits, if n == 0 { u64::MAX } else { n });
            }
        }
    }
    if let Some(missing) = command.needs.iter().find(|flag| !seen.contains(*flag)) {
        return Err(fail(format!("missing {missing}")));
    }
    let (least, most) = command.arity;
    if opts.args.len() < least {
        return Err(fail("too few arguments".to_string()));
    }
    if let Some(extra) = opts.args.get(most) {
        return Err(fail(format!("unexpected argument {extra:?}")));
    }
    Ok((command, opts))
}

/// `foxq <command> [flags] <args>`, word by word: the flags a command
/// needs bare, the others in brackets.
fn synopsis(command: &Command) -> Vec<String> {
    let mut words = vec![format!("foxq {}", command.name)];
    for flag in flags().filter(|f| f.cmds.contains(&command.name)) {
        let word = flag.usage();
        let needed = command.needs.contains(&flag.name);
        words.push(if needed { word } else { format!("[{word}]") });
    }
    words.extend(command.args.split_whitespace().map(String::from));
    words
}

/// `foxq --help`: every command's synopsis and what it does, then every
/// flag, its subcommands and its help line — all rendered from
/// [`COMMANDS`], [`FLAGS`] and [`LIMITS`].
fn usage() -> String {
    let mut text = String::from("usage:\n");
    for command in COMMANDS {
        fill(&mut text, (2, 6), synopsis(command));
        fill(&mut text, (6, 6), command.about.split_whitespace());
    }
    text.push_str("\nflags:\n");
    for flag in flags() {
        let alias = flag.alias.map(|a| format!(", {a}")).unwrap_or_default();
        let cmds = flag.cmds.join(", ");
        text.push_str(&format!("  {}{alias} ({cmds})\n", flag.usage()));
        let help = match flag.arg {
            Arg::Limit(limit, _) => limit.help(),
            _ => flag.help.to_string(),
        };
        fill(&mut text, (6, 6), help.split_whitespace());
    }
    text
}

/// Append `words` to `text` as lines of at most 78 columns: the first
/// indented by `indent.0` spaces, the rest by `indent.1`.
fn fill(
    text: &mut String,
    indent: (usize, usize),
    words: impl IntoIterator<Item = impl AsRef<str>>,
) {
    let mut col = 0;
    for word in words {
        let word = word.as_ref();
        let width = word.chars().count();
        if col == 0 || col + 1 + width > 78 {
            if col > 0 {
                text.push('\n');
            }
            col = if col == 0 { indent.0 } else { indent.1 };
            text.push_str(&" ".repeat(col));
        } else {
            text.push(' ');
            col += 1;
        }
        text.push_str(word);
        col += width;
    }
    text.push('\n');
}

// ---------------------------------------------------------------------------
// run / stats / compile
// ---------------------------------------------------------------------------

fn read_query(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read query {path}: {e}"))
}

/// Compile a query file under the command's bounds.
fn compile(path: &str, limits: &Limits) -> Result<PreparedQuery, String> {
    PreparedQuery::compile_with_limits(&read_query(path)?, limits).map_err(|e| e.to_string())
}

fn cmd_run(opts: Opts, stats: bool) -> Result<(), String> {
    // `foxq stats <tape.fet>`: inspect the tape, no query involved.
    if let [tape] = &opts.args[..] {
        if stats && is_tape(tape) {
            return cmd_tape_stats(tape);
        }
    }
    let prepared = compile(&opts.args[0], &opts.limits)?;
    let (mft, mut times) = (prepared.mft(), prepared.meta().compile_times);
    let input = opts.args.get(1).map(String::as_str);
    let limits = opts.limits.stream();
    let stdout = std::io::stdout();
    if opts.stream {
        // Earliest emission to a pipe, by the server's rule: the first
        // irrevocable prefix is written the moment the engine proves it
        // final, later ones before the next input read and every
        // `COALESCE_BYTES`, so a consumer sees results while the document
        // is still arriving.
        let wire = RefCell::new(Coalescer::new(stdout.lock(), false));
        let sink = EmitWriter::new(|chunk: &[u8]| wire.borrow_mut().push(chunk));
        let before_read = |input| FlushBeforeRead::new(input, &wire);
        let (sink, ..) = run_query(mft, input, before_read, sink, limits, ())?;
        sink.finish().map_err(|e| e.to_string())?;
        let mut wire = wire.borrow_mut();
        return wire
            .push(b"\n")
            .and_then(|()| wire.flush())
            .map_err(|e| e.to_string());
    }
    let sink = WriterSink::new(std::io::BufWriter::new(stdout.lock()));
    let t = Instant::now();
    let (sink, report, profiled) = if opts.profile {
        let obs = StreamProfiler::for_mft(mft);
        let (sink, obs, report) = run_query(mft, input, |input| input, sink, limits, obs)?;
        (sink, report, Some(obs.into_profile(mft)))
    } else {
        let (sink, (), report) = run_query(mft, input, |input| input, sink, limits, ())?;
        (sink, report, None)
    };
    let ran = micros_since(t);
    let mut out = sink.finish().map_err(|e| e.to_string())?;
    out.write_all(b"\n")
        .and_then(|_| out.flush())
        .map_err(|e| e.to_string())?;
    let wall = micros_since(t);
    if input.is_some_and(is_tape) {
        // A tape's stages partition its wall time, the write-out included.
        for (stage, micros) in report.source.tape_stages(wall) {
            times.add(stage, micros);
        }
    } else {
        times.add(Stage::Execute, ran);
        times.add(Stage::Serialize, wall - ran);
    }
    if stats {
        report_stats(mft, &report);
        if opts.timing {
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
/// otherwise — instead of tokenizing XML, and the report says what that
/// cost; anything else (stdin by default) is XML text for the single-lane
/// loop, which pays for no fan-out, read through what `wrap` makes of it.
fn run_query<S: EmitSink, O: StreamObserver, R: Read>(
    mft: &Mft,
    input: Option<&str>,
    wrap: impl FnOnce(Box<dyn Read>) -> R,
    sink: S,
    limits: StreamLimits,
    obs: O,
) -> Result<(S, O, RunReport), String> {
    if let Some(path) = input.filter(|path| is_tape(path)) {
        let tape = TapeReader::open_file(std::path::Path::new(path))
            .map_err(|e| format!("cannot open tape {path}: {e}"))?;
        let plan = QuerySetPlan::new([mft]);
        let run = run_lanes(&[mft], tape, vec![(sink, obs)], limits, &plan)
            .map_err(|e| format!("{path}: {e}"))?;
        let lane = run.into_reports().next().expect("one lane");
        let (sink, obs, report) = lane.map_err(|e| e.to_string())?;
        return Ok((sink, obs, report));
    }
    let reader: Box<dyn Read> = match input {
        Some(path) => {
            Box::new(std::fs::File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?)
        }
        None => Box::new(std::io::stdin().lock()),
    };
    let (sink, stats, obs) =
        run_streaming_with_observer(mft, XmlReader::new(wrap(reader)), sink, limits, obs)
            .map_err(|e| e.to_string())?;
    // Text skips nothing without scanning it: the source cost is zero.
    let report = RunReport {
        stats,
        input_events: stats.events + stats.prefiltered_events,
        ..RunReport::default()
    };
    Ok((sink, obs, report))
}

/// Whether `path` names a stored event tape.
fn is_tape(path: &str) -> bool {
    path.ends_with(".fet")
}

/// `foxq stats <tape.fet>`: footer facts, no replay.
fn cmd_tape_stats(path: &str) -> Result<(), String> {
    let tape = TapeReader::open_file(std::path::Path::new(path))
        .map_err(|e| format!("cannot inspect {path}: {e}"))?;
    let info = *tape.info();
    println!("format:            FET{}", info.version);
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
    // Per-label posting-list sizes: element lists in label-id order, then
    // the per-parent text buckets. Empty text buckets (most parents never
    // hold a text) are elided.
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
    Ok(())
}

fn report_stats(mft: &Mft, report: &RunReport) {
    let (stats, source) = (&report.stats, &report.source);
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
    if stats.prefiltered_events > 0 || source.seek_skipped_bytes > 0 {
        eprintln!("prefiltered:       {} events", stats.prefiltered_events);
        eprintln!("seek-skipped:      {} bytes", source.seek_skipped_bytes);
    }
    if source.index_skipped_bytes > 0 {
        eprintln!("index-skipped:     {} bytes", source.index_skipped_bytes);
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

fn cmd_compile(opts: Opts) -> Result<(), String> {
    let prepared = compile(&opts.args[0], &opts.limits)?;
    if opts.no_opt {
        print!("{}", print_mft(prepared.unoptimized()));
        return Ok(());
    }
    let (m, stats) = (prepared.mft(), prepared.meta().opt_stats);
    eprintln!(
        "// optimized: {} states, size {}; removed {} unused + {} constant parameters, \
         inlined {} stay states, dropped {} unreachable states",
        m.state_count(),
        m.size(),
        stats.unused_params_removed,
        stats.const_params_removed,
        stats.stay_states_inlined,
        stats.states_removed
    );
    print!("{}", print_mft(m));
    Ok(())
}

// ---------------------------------------------------------------------------
// batch / store query: N queries, one pass per document
// ---------------------------------------------------------------------------

fn cmd_batch(mut opts: Opts) -> Result<(), String> {
    let queries = compile_queries(&opts)?;
    let driver = BatchDriver::new(opts.server().threads).with_limits(opts.limits.stream());
    if opts.args.is_empty() {
        let report = driver.run_reader(std::io::stdin().lock(), &queries);
        return print_report(&opts, &["stdin".to_string()], &report, driver.threads());
    }
    // Each worker opens and streams the files it claims, so peak memory
    // does not scale with the corpus size.
    let report = driver.run_files(&opts.args, &queries);
    print_report(&opts, &opts.args, &report, driver.threads())
}

fn store_query(mut opts: Opts) -> Result<(), String> {
    let corpus = open_corpus(&opts.dir)?;
    let queries = compile_queries(&opts)?;
    let driver = BatchDriver::new(opts.server().threads).with_limits(opts.limits.stream());
    let run = if opts.args.is_empty() {
        driver.run_corpus(&corpus, &queries)
    } else {
        driver.run_corpus_subset(&corpus, opts.args.clone(), &queries)
    };
    print_report(&opts, &run.doc_ids, &run.report, driver.threads())
}

/// Compile the `-q` files through one cache: the same query file twice (or
/// two files with identical text) is translated once.
fn compile_queries(opts: &Opts) -> Result<Vec<Arc<PreparedQuery>>, String> {
    let mut cache = QueryCache::with_limits(opts.queries.len(), opts.limits);
    let queries = opts
        .queries
        .iter()
        .map(|path| {
            let src = read_query(path)?;
            cache
                .get_or_compile(&src)
                .map_err(|e| format!("{path}: {e}"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    if opts.stats {
        let cs = cache.stats();
        eprintln!(
            "queries:           {} ({} compiled, {} cache hits)",
            queries.len(),
            cs.compiles,
            cs.hits
        );
    }
    Ok(queries)
}

/// A batch's answers on stdout, one `### doc query` block per cell holding
/// the output or `error: …`; with `--stats`, the run's totals and each
/// answer's peaks on stderr. Fails when any cell did.
fn print_report(
    opts: &Opts,
    docs: &[String],
    report: &BatchReport,
    threads: usize,
) -> Result<(), String> {
    if opts.stats {
        eprintln!("documents:         {} over {threads} threads", docs.len());
        eprintln!(
            "input events:      {} (one pass per document)",
            report.input_events
        );
        eprintln!("output events:     {}", report.output_events);
        if report.seek_skipped_bytes > 0 {
            eprintln!("seek-skipped:      {} bytes", report.seek_skipped_bytes);
        }
        if report.index_skipped_bytes > 0 {
            eprintln!("index-skipped:     {} bytes", report.index_skipped_bytes);
        }
    }
    let mut out = std::io::BufWriter::new(std::io::stdout().lock());
    for (doc, row) in docs.iter().zip(&report.cells) {
        for (qfile, cell) in opts.queries.iter().zip(row) {
            writeln!(out, "### {doc} {qfile}").map_err(|e| e.to_string())?;
            if let (true, Some(report)) = (opts.stats, &cell.report) {
                let stats = &report.stats;
                eprintln!(
                    "{doc} {qfile}: {} output events, peak {} nodes / {} bytes",
                    stats.output_events, stats.peak_live_nodes, stats.peak_live_bytes
                );
            }
            match &cell.output {
                Ok(text) => writeln!(out, "{text}"),
                Err(e) => {
                    eprintln!("foxq: {qfile} on {doc}: {e}");
                    writeln!(out, "error: {e}")
                }
            }
            .map_err(|e| e.to_string())?;
        }
    }
    out.flush().map_err(|e| e.to_string())?;
    match report.failures {
        0 => Ok(()),
        n => Err(format!("{n} query run(s) failed")),
    }
}

// ---------------------------------------------------------------------------
// store add / ls / rm / migrate
// ---------------------------------------------------------------------------

fn open_corpus(dir: &str) -> Result<Corpus, String> {
    Corpus::open(dir).map_err(|e| format!("corpus {dir}: {e}"))
}

fn store_add(opts: Opts) -> Result<(), String> {
    if opts.id.is_some() && opts.args.len() > 1 {
        return Err("--id only works with a single input file".to_string());
    }
    let mut corpus = open_corpus(&opts.dir)?;
    for path in &opts.args {
        let id = match &opts.id {
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

fn store_ls(opts: Opts) -> Result<(), String> {
    let corpus = open_corpus(&opts.dir)?;
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

fn store_rm(opts: Opts) -> Result<(), String> {
    let mut corpus = open_corpus(&opts.dir)?;
    for id in &opts.args {
        let meta = corpus.remove(id).map_err(|e| e.to_string())?;
        println!("removed {} ({} events)", meta.id, meta.events);
    }
    Ok(())
}

fn store_migrate(opts: Opts) -> Result<(), String> {
    let mut corpus = open_corpus(&opts.dir)?;
    if opts.args.is_empty() {
        let rewritten = corpus.migrate_all().map_err(|e| e.to_string())?;
        println!(
            "migrated {} tape(s) to FET{VERSION} ({} document(s) total)",
            rewritten,
            corpus.len()
        );
    } else {
        for id in &opts.args {
            let meta = corpus.migrate(id).map_err(|e| format!("{id}: {e}"))?;
            println!(
                "{}: FET{} — {} events, {} tape bytes",
                meta.id, meta.version, meta.events, meta.tape_bytes
            );
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// serve
// ---------------------------------------------------------------------------

/// `foxq serve`: the long-running HTTP front-end.
fn cmd_serve(mut opts: Opts) -> Result<(), String> {
    let config = ServerConfig {
        profile: opts.profile,
        limits: opts.limits,
        ..opts.server().clone()
    };
    let server = Server::bind(config).map_err(|e| format!("cannot bind: {e}"))?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    let handle = server.start().map_err(|e| format!("cannot start: {e}"))?;
    eprintln!("foxq-server listening on http://{addr} (POST /shutdown to stop)");
    handle.join();
    eprintln!("foxq-server drained and stopped");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_flag_names_real_commands_and_every_need_is_a_flag_taken() {
        for flag in flags() {
            for cmd in flag.cmds {
                assert!(
                    COMMANDS.iter().any(|c| c.name == *cmd),
                    "{} names {cmd:?}",
                    flag.name
                );
            }
        }
        for command in COMMANDS {
            for need in command.needs {
                assert!(
                    flags().any(|f| f.name == *need && f.cmds.contains(&command.name)),
                    "{} needs {need}",
                    command.name
                );
            }
        }
    }
}
