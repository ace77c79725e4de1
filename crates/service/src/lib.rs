//! # foxq-service — the serving layer over the streaming pipeline
//!
//! The library crates reproduce the paper's pipeline for *one* query over
//! *one* document, recompiling from scratch on every call. This crate turns
//! that pipeline into something a server can sit on:
//!
//! * [`PreparedQuery`] — parse → translate → §4.1-optimize **once**, keep
//!   the optimized [`foxq_core::Mft`] plus metadata (optimizer removals,
//!   stage times);
//! * [`LIMITS`] and [`Limits`] — every bound a request can trip, one row
//!   each, and the values a process applies;
//! * [`QueryCache`] — hash-keyed LRU over prepared queries, so repeated
//!   query texts never recompile (hits/misses/compiles are observable via
//!   [`CacheStats`]);
//! * [`MultiQueryEngine`] — N queries answered in a **single pass** of the
//!   input event stream, with per-query statistics and error isolation;
//!   [`run_lanes`] drives it from XML text or a stored tape, into buffering
//!   or emitting sinks, with or without a profiler — one loop for all;
//! * [`BatchDriver`] — M documents × N queries across `std::thread::scope`
//!   workers, with a deterministic report;
//! * [`RunReport`] and [`FACTS`] — what one lane's run reports, and the one
//!   table every view of it (reply fields, `/metrics`, the profile
//!   registry) is read through.
//!
//! The same engine drives the `foxq batch` CLI subcommand.
//!
//! ## Quick start: three queries, one document, one pass
//!
//! ```
//! use foxq_service::{run_multi, QueryCache};
//! use foxq_xml::{WriterSink, XmlReader};
//!
//! let mut cache = QueryCache::new(16);
//! let queries: Vec<_> = [
//!     "<names>{$input/site/people/person/name/text()}</names>",
//!     "<ids>{$input/site/people/person/p_id/text()}</ids>",
//!     "<regions>{$input/site/regions/*}</regions>",
//! ]
//! .iter()
//! .map(|src| cache.get_or_compile(src).unwrap())
//! .collect();
//!
//! let doc = "<site><regions><asia/><europe/></regions><people>\
//!            <person><p_id>p0</p_id><name>Jim</name></person>\
//!            <person><p_id>p1</p_id><name>Li</name></person>\
//!            </people></site>";
//!
//! // One parse of `doc` answers all three queries.
//! let mfts: Vec<_> = queries.iter().map(|q| q.mft()).collect();
//! let sinks = mfts.iter().map(|_| WriterSink::new(Vec::new())).collect();
//! let run = run_multi(&mfts, XmlReader::new(doc.as_bytes()), sinks).unwrap();
//! let outputs: Vec<String> = run
//!     .results
//!     .into_iter()
//!     .map(|lane| String::from_utf8(lane.unwrap().0.finish().unwrap()).unwrap())
//!     .collect();
//! assert_eq!(outputs[0], "<names>JimLi</names>");
//! assert_eq!(outputs[1], "<ids>p0p1</ids>");
//! assert_eq!(outputs[2], "<regions><asia></asia><europe></europe></regions>");
//!
//! // Recompiling the first query is a cache hit — no second translation.
//! cache.get_or_compile(queries[0].source()).unwrap();
//! assert_eq!(cache.stats().compiles, 3);
//! assert_eq!(cache.stats().hits, 1);
//! ```

pub mod batch;
pub mod facts;
pub mod limits;
pub mod multi;
pub mod prepared;
pub mod profile;

pub use batch::{BatchCell, BatchDriver, BatchReport, CorpusReport};
pub use facts::{field_names, Fact, On, ReplyKind, Tracked, FACTS};
pub use limits::{Limit, Limits, SetLimit, Tripped, Trips, LIMITS, WORKER_STACK_BYTES};
pub use multi::{
    run_lanes, run_multi, run_multi_on_forest, run_multi_on_tape, Events, LaneInput,
    MultiQueryEngine, MultiRun, QuerySetPlan, RunReport, SourceCost,
};
pub use prepared::{
    source_key, CacheStats, PrepareError, PreparedQuery, QueryCache, QueryMeta, SharedQueryCache,
};
pub use profile::{profile_record, Aggregate, HotState, ProfileRegistry, QueryProfile};
