//! The bounds a request can trip, one row each.
//!
//! A transducer can loop on stay moves or emit output exponential in its
//! input, and a request can be as large, as deep or as slow as its sender
//! likes: these bounds are all that stands between a hostile request and
//! the process. [`LIMITS`] declares each once — its name and unit, its
//! default in the CLI and in `foxq serve`, the flag that sets it, and the
//! status and message of a request that trips it. [`Limits`] holds the
//! values one process applies; the CLI's limit flags are rendered from the
//! rows, and a tripped bound ([`Tripped`]) is answered from its row.

use crate::prepared::PrepareError;
use foxq_core::stream::{StreamError, StreamLimits};
use foxq_store::StoreError;
use foxq_xml::{byte_limit_exceeded, XmlError};
use std::time::Duration;

/// How a flag sets its row's field of [`Limits`].
pub type SetLimit = fn(&mut Limits, u64);

/// One bound a request can trip.
#[derive(Debug)]
pub struct Limit {
    /// Its name; for a bound one can set, the [`Limits`] field holding it.
    pub name: &'static str,
    pub unit: &'static str,
    /// Its value in the commands that compile and run queries; `None`
    /// where they never meet it.
    pub cli: Option<u64>,
    /// Its value in `foxq serve`.
    pub serve: u64,
    /// The flag that sets it (in the commands that meet it), and how.
    pub flag: Option<(&'static str, SetLimit)>,
    /// The status of a request that trips it; `None` where that is no
    /// reply (the server stops accepting, or the peer stops reading).
    pub status: Option<u16>,
    /// What a request that trips it is told.
    pub message: &'static str,
}

pub use rows::*;

/// The rows, each a bound a request can trip.
#[rustfmt::skip]
mod rows {
    use super::{ms, Limit};
    use foxq_core::stream::DEFAULT_MAX_EXPANSIONS_PER_EVENT as FUEL;
    use foxq_core::stream::DEFAULT_MAX_OUTPUT_EVENTS as OUTPUT;
    use foxq_xquery::MAX_NESTING;

    pub const HEAD_BYTES: Limit = Limit { name: "max_head_bytes", unit: "bytes", cli: None,
        serve: 16 * 1024, flag: None, status: Some(400), message: "request head too large" };
    pub const HEADERS: Limit = Limit { name: "max_headers", unit: "headers", cli: None,
        serve: 100, flag: None, status: Some(400), message: "too many headers" };
    pub const CONNECTIONS: Limit = Limit { name: "max_connections", unit: "connections",
        cli: None, serve: 4096,
        flag: Some(("--max-connections", |l, n| l.max_connections = n as usize)),
        status: None, message: "too many open connections" };
    pub const READ_TIMEOUT: Limit = Limit { name: "read_timeout", unit: "ms", cli: None,
        serve: 10_000, flag: Some(("--read-timeout-ms", |l, n| l.read_timeout = ms(n))),
        status: Some(408), message: "timed out reading the request" };
    pub const BODY_BYTES: Limit = Limit { name: "max_body_bytes", unit: "bytes", cli: None,
        serve: 256 << 20, flag: Some(("--max-body-bytes", |l, n| l.max_body_bytes = n)),
        status: Some(413), message: "request body too large" };
    pub const WRITE_TIMEOUT: Limit = Limit { name: "write_timeout", unit: "ms", cli: None,
        serve: 10_000, flag: Some(("--write-timeout-ms", |l, n| l.write_timeout = ms(n))),
        status: None, message: "timed out writing the response" };
    pub const BATCH_QUERIES: Limit = Limit { name: "max_queries_per_batch", unit: "queries",
        cli: None, serve: 64, flag: None, status: Some(400), message: "too many queries" };
    pub const SOURCE_BYTES: Limit = Limit { name: "max_source_bytes", unit: "bytes",
        cli: Some(1 << 20), serve: 1 << 20, flag: None, status: Some(413),
        message: "query source too large" };
    pub const NESTING: Limit = Limit { name: "max_nesting", unit: "levels",
        cli: Some(MAX_NESTING as u64), serve: MAX_NESTING as u64, flag: None, status: Some(400),
        message: "query nested too deeply" };
    pub const TRANSLATED_SIZE: Limit = Limit { name: "max_translated_size", unit: "nodes",
        cli: Some(4_000_000), serve: 4_000_000, flag: None, status: Some(413),
        message: "translated MFT too large" };
    pub const EXPANSIONS: Limit = Limit { name: "max_expansions_per_event", unit: "expansions",
        cli: Some(FUEL), serve: FUEL, flag: None, status: Some(422),
        message: "expansion fuel exhausted" };
    pub const OUTPUT_EVENTS: Limit = Limit { name: "max_output_events", unit: "events",
        cli: Some(OUTPUT), serve: OUTPUT,
        flag: Some(("--max-output", |l, n| l.max_output_events = n)),
        status: Some(422), message: "output limit exceeded" };
}

/// The stack of a server worker, which compiles and runs queries nested up
/// to [`NESTING`] deep. Every pass after the parser recurses along the
/// nesting, so the two change together: a test runs each nesting production
/// at the limit on a thread of this size. There the passes took under
/// 512 KiB in a release build and under 2 MiB in a debug one; this is the
/// main thread's 8 MiB, which the CLI compiles on.
pub const WORKER_STACK_BYTES: usize = 8 << 20;

/// Every bound a request can trip, in the order a request meets them.
#[rustfmt::skip]
pub const LIMITS: [&Limit; 12] = [&HEAD_BYTES, &HEADERS, &CONNECTIONS, &READ_TIMEOUT, &BODY_BYTES,
    &WRITE_TIMEOUT, &BATCH_QUERIES, &SOURCE_BYTES, &NESTING, &TRANSLATED_SIZE, &EXPANSIONS,
    &OUTPUT_EVENTS];

fn ms(n: u64) -> Duration {
    Duration::from_millis(n)
}

impl Limit {
    /// The help line of its flag, with the default of the commands that
    /// take it: those that meet the bound in the CLI, or else `serve`.
    pub fn help(&self) -> String {
        let (name, unit, message) = (self.name, self.unit, self.message);
        let default = self.cli.unwrap_or(self.serve);
        format!("{name} in {unit} (default {default}; 0 = unlimited): past it, {message}")
    }
}

/// The bounds one process applies that can be set: each field is the
/// value of the row of its name.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    pub max_body_bytes: u64,
    pub read_timeout: Duration,
    pub write_timeout: Duration,
    pub max_connections: usize,
    pub max_queries_per_batch: usize,
    pub max_source_bytes: usize,
    pub max_translated_size: usize,
    pub max_expansions_per_event: u64,
    pub max_output_events: u64,
}

impl Limits {
    /// The rows' CLI defaults (serve's, where the CLI never meets a bound).
    pub fn cli() -> Limits {
        Limits::from_rows(|limit| limit.cli.unwrap_or(limit.serve))
    }

    /// The rows' `foxq serve` defaults.
    pub fn serving() -> Limits {
        Limits::from_rows(|limit| limit.serve)
    }

    fn from_rows(value: impl Fn(&Limit) -> u64) -> Limits {
        let size = |limit| value(limit) as usize;
        Limits {
            max_body_bytes: value(&BODY_BYTES),
            read_timeout: ms(value(&READ_TIMEOUT)),
            write_timeout: ms(value(&WRITE_TIMEOUT)),
            max_connections: size(&CONNECTIONS),
            max_queries_per_batch: size(&BATCH_QUERIES),
            max_source_bytes: size(&SOURCE_BYTES),
            max_translated_size: size(&TRANSLATED_SIZE),
            max_expansions_per_event: value(&EXPANSIONS),
            max_output_events: value(&OUTPUT_EVENTS),
        }
    }

    /// What the streaming engine enforces of them.
    pub fn stream(&self) -> StreamLimits {
        StreamLimits {
            max_expansions_per_event: self.max_expansions_per_event,
            max_output_events: self.max_output_events,
        }
    }
}

/// A bound a request reached: its row, the bound in force, and where the
/// request stood (`" at byte 812"`; empty where nothing more is known).
#[derive(Debug, Clone)]
pub struct Tripped {
    pub limit: &'static Limit,
    pub bound: u64,
    pub found: String,
}

impl Tripped {
    pub fn new(limit: &'static Limit, bound: u64, found: String) -> Tripped {
        Tripped {
            limit,
            bound,
            found,
        }
    }

    /// The status to answer it with.
    pub fn status(&self) -> u16 {
        self.limit.status.unwrap_or(500)
    }
}

impl std::fmt::Display for Tripped {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (limit, bound, found) = (self.limit, self.bound, &self.found);
        let (message, name, unit) = (limit.message, limit.name, limit.unit);
        write!(f, "{message}{found}: {name} is {bound} {unit}")
    }
}

impl std::error::Error for Tripped {}

/// As an I/O failure: a head past its bounds, or a stalled read.
impl From<Tripped> for std::io::Error {
    fn from(tripped: Tripped) -> Self {
        std::io::Error::new(std::io::ErrorKind::InvalidData, tripped)
    }
}

/// A failure that may be a tripped bound.
pub trait Trips: std::fmt::Display {
    fn tripped(&self) -> Option<Tripped> {
        None
    }
}

impl Trips for Tripped {
    fn tripped(&self) -> Option<Tripped> {
        Some(self.clone())
    }
}

impl Trips for PrepareError {
    fn tripped(&self) -> Option<Tripped> {
        match self {
            PrepareError::Limit(tripped) => Some(tripped.clone()),
            _ => None,
        }
    }
}

/// A [`foxq_xml::BoundedReader`]'s budget, or a [`Tripped`] it carries.
impl Trips for std::io::Error {
    fn tripped(&self) -> Option<Tripped> {
        let body = byte_limit_exceeded(self).map(|n| Tripped::new(&BODY_BYTES, n, String::new()));
        body.or_else(|| self.get_ref()?.downcast_ref::<Tripped>().cloned())
    }
}

impl Trips for XmlError {
    fn tripped(&self) -> Option<Tripped> {
        match self {
            XmlError::Io { source, .. } => source.tripped(),
            _ => None,
        }
    }
}

impl Trips for StreamError {
    fn tripped(&self) -> Option<Tripped> {
        let (limit, bound, found) = match self {
            StreamError::Xml(e) => return e.tripped(),
            StreamError::Emit(_) => return None,
            StreamError::Fuel {
                state,
                max_expansions_per_event,
            } => (
                &EXPANSIONS,
                *max_expansions_per_event,
                format!(" in state {state}"),
            ),
            StreamError::OutputLimit {
                max_output_events: n,
            } => (&OUTPUT_EVENTS, *n, String::new()),
        };
        Some(Tripped::new(limit, bound, found))
    }
}

/// A stored tape is the server's own: no failure of it is a client's bound.
impl Trips for StoreError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PreparedQuery;
    use foxq_core::print_mft;
    use foxq_xquery::{parse_query, MAX_NESTING};

    /// A query `n` levels of one production deep.
    type Nest = fn(usize) -> String;

    /// Each production that nests.
    #[rustfmt::skip]
    const PRODUCTIONS: [(&str, Nest); 6] = [
        ("parentheses", |n| format!("{}$input/a{}", "(".repeat(n), ")".repeat(n))),
        ("constructors", |n| format!("{}{{$input/a}}{}", "<a>".repeat(n), "</a>".repeat(n))),
        ("predicates", |n| format!("$input/a{}{}", "[b".repeat(n), "]".repeat(n))),
        ("for", |n| {
            let fors: String =
                (1..=n).map(|i| format!("for $v{i} in $v{}/a return ", i - 1)).collect();
            fors.replacen("$v0", "$input", 1) + &format!("<o>{{$v{n}/b}}</o>")
        }),
        ("let", |n| {
            let lets: String = (1..=n).map(|i| format!("let $v{i} := $input/a return ")).collect();
            lets + &format!("<o>{{$v{n}}}</o>")
        }),
        ("paths", |n| format!("$input{}", "/a".repeat(n))),
    ];

    #[test]
    fn every_nesting_production_compiles_at_the_limit_on_a_worker_stack() {
        for (production, query) in PRODUCTIONS {
            let too_deep = |n| matches!(parse_query(&query(n)), Err(e) if e.too_deep);
            let deepest = (1..=MAX_NESTING).rev().find(|&n| !too_deep(n)).unwrap();
            // Only the levels around the production count besides its own.
            assert!(deepest + 4 >= MAX_NESTING, "{production}: {deepest} levels");
            let over = PreparedQuery::compile(&query(deepest + 1)).err().unwrap();
            let tripped = over
                .tripped()
                .unwrap_or_else(|| panic!("{production}: {over}"));
            assert_eq!((tripped.limit.name, tripped.status()), ("max_nesting", 400));
            assert!(over.to_string().contains(" at byte "), "{over}");
            // Every pass over the deepest query fits a worker's stack:
            // parse, translate, optimize, print, a run, and the drops.
            let src = query(deepest);
            let worker = std::thread::Builder::new().stack_size(WORKER_STACK_BYTES);
            let passes = worker.spawn(move || {
                let prepared = PreparedQuery::compile(&src).unwrap();
                print_mft(prepared.unoptimized());
                print_mft(prepared.mft());
                let doc = b"<a><a><b/></a></a>";
                prepared
                    .run_to_string(doc, StreamLimits::serving())
                    .unwrap();
            });
            passes.unwrap().join().unwrap();
        }
    }

    /// README's Limits table has a line per row: its name, both defaults,
    /// its flag and its status.
    #[test]
    fn the_readme_names_every_row() {
        let readme = include_str!("../../../README.md");
        for limit in LIMITS {
            let row = format!("| `{}` ", limit.name);
            let line = readme.lines().find(|l| l.starts_with(&row));
            let line = line.unwrap_or_else(|| panic!("README has no row {row}"));
            let cli = limit.cli.map_or("–".to_string(), |v| v.to_string());
            let mut cells = vec![limit.unit.to_string(), cli, limit.serve.to_string()];
            cells.extend(limit.flag.map(|(flag, _)| format!("`{flag}`")));
            cells.extend(limit.status.map(|s| s.to_string()));
            for cell in cells {
                assert!(line.contains(&format!(" {cell} ")), "{line} lacks {cell}");
            }
        }
    }
}
