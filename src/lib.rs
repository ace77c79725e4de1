//! # foxq — Streaming XQuery by Forest Transducers
//!
//! A from-scratch Rust reproduction of *"XQuery Streaming by Forest
//! Transducers"* (Hakuta, Maneth, Nakano, Iwasaki; ICDE 2014).
//!
//! The pipeline, end to end:
//!
//! 1. Parse a **MinXQuery** program ([`xquery::parse_query`]).
//! 2. Translate it to a **macro forest transducer** ([`core::translate`],
//!    Section 3 of the paper, Theorem 1).
//! 3. Optimize the transducer ([`core::opt::optimize`], Section 4.1:
//!    unused/constant parameter reduction, stay-move removal, unreachable
//!    state removal).
//! 4. Run it over an XML event stream with constant-factor buffering
//!    ([`core::stream`], the Nakano–Mu style engine).
//!
//! The crates are re-exported here under short names:
//!
//! * [`forest`] — unranked forests, labels, term notation, fcns encoding;
//! * [`xml`] — streaming XML parser / serializer;
//! * [`core`] — MFT model, reference interpreter, streaming engine,
//!   translation, optimizations;
//! * [`xquery`] — MinXQuery AST, parser, ground-truth evaluator;
//! * [`service`] — the serving layer: prepared-query cache, multi-query
//!   single-pass engine, parallel batch driver (the `foxq batch` command);
//! * [`store`] — the document store: FET3 event tapes with O(1) subtree
//!   seeks and a label skip index, plus the corpus manifest (the `foxq
//!   store` commands);
//! * [`server`] — the network front-end: a hand-rolled HTTP/1.1 server with
//!   streaming request bodies and Prometheus metrics (`foxq serve`);
//! * [`obs`] — the observability core shared by the CLI and the server:
//!   latency histograms, per-stage spans, trace sinks.
//!
//! The §4.2 composition constructions (`foxq_tt`), the GCX baseline
//! (`foxq_gcx`) and the dataset generators (`foxq_gen`) are crates of their
//! own for tests, examples and benches; nothing here runs them.
//!
//! ## Quick start
//!
//! ```
//! use foxq::prelude::*;
//!
//! // A MinXQuery program: all name-texts of persons with p_id "person0".
//! let q = r#"<out>{ for $b in $input/person[./p_id/text() = "person0"]
//!            return let $r := $b/name/text() return $r }</out>"#;
//! let program = foxq::xquery::parse_query(q).unwrap();
//! let mft = foxq::core::translate::translate(&program).unwrap();
//! let mft = foxq::core::opt::optimize(mft);
//!
//! let doc = "<person><p_id>person0</p_id><name>Jim</name><name>Li</name></person>";
//! let out = run_streaming_to_string(&mft, doc.as_bytes(), StreamLimits::default()).unwrap();
//! assert_eq!(out.output, "<out>JimLi</out>");
//! ```

pub use foxq_core as core;
pub use foxq_forest as forest;
pub use foxq_obs as obs;
pub use foxq_server as server;
pub use foxq_service as service;
pub use foxq_store as store;
pub use foxq_xml as xml;
pub use foxq_xquery as xquery;

/// Convenient glob-import surface for examples and tests.
pub mod prelude {
    pub use foxq_core::mft::Mft;
    pub use foxq_core::opt::optimize;
    pub use foxq_core::stream::{run_streaming_to_string, StreamLimits, StreamStats};
    pub use foxq_core::translate::translate;
    pub use foxq_forest::{Forest, Label, NodeKind, Tree};
    pub use foxq_service::{BatchDriver, MultiQueryEngine, PreparedQuery, QueryCache};
    pub use foxq_xml::{parse_document, write_forest};
    pub use foxq_xquery::parse_query;
}
