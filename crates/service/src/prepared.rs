//! Compile-once query preparation and the hash-keyed LRU cache.
//!
//! The library pipeline (parse → translate → §4.1 optimize) is pure and
//! deterministic, so a query text compiles to the same [`Mft`] every time.
//! [`PreparedQuery`] runs the pipeline once, under the compile bounds of
//! [`Limits`], and keeps everything a serving layer needs: both transducers
//! (optimized for execution, unoptimized for ablation/debugging), the
//! parsed AST, what the optimizer removed and each stage's wall time.
//! [`QueryCache`]
//! keys prepared queries by an FxHash of the (trimmed) source text with LRU
//! eviction, so repeated query texts — the common case under serving traffic
//! — never recompile.

use crate::limits::{Limit, Limits, Tripped, NESTING, SOURCE_BYTES, TRANSLATED_SIZE};
use foxq_core::opt::{optimize_with_stats, OptStats};
use foxq_core::stream::{
    run_streaming_to_string, run_streaming_with_limits, StreamError, StreamLimits, StreamRunOutput,
    StreamStats,
};
use foxq_core::translate::{translate, TranslateError};
use foxq_core::Mft;
use foxq_forest::fxhash::FxHasher;
use foxq_forest::FxHashMap;
use foxq_obs::{Stage, StageTimes};
use foxq_xquery::{parse_query, Query, XqSyntaxError, MAX_NESTING};
use std::hash::{Hash, Hasher};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// The stable hash of a query's (trimmed) source text — the key
/// [`QueryCache`] stores prepared queries under, shared by the profile
/// registry ([`crate::ProfileRegistry`]) so cache entries and profiles
/// line up.
pub fn source_key(source: &str) -> u64 {
    let mut h = FxHasher::default();
    source.trim().hash(&mut h);
    h.finish()
}

/// Failure to compile a query.
#[derive(Debug)]
pub enum PrepareError {
    /// The query text did not parse.
    Syntax(XqSyntaxError),
    /// The query parsed but violates the §2.1 translation restrictions.
    Translate(TranslateError),
    /// A compile bound was reached: the source's bytes, its nesting, or the
    /// translated transducer's size.
    Limit(Tripped),
}

impl std::fmt::Display for PrepareError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PrepareError::Syntax(e) => write!(f, "{e}"),
            PrepareError::Translate(e) => write!(f, "{e}"),
            PrepareError::Limit(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for PrepareError {}

impl From<XqSyntaxError> for PrepareError {
    fn from(e: XqSyntaxError) -> Self {
        if !e.too_deep {
            return PrepareError::Syntax(e);
        }
        let at = format!(" at byte {}", e.offset);
        PrepareError::Limit(Tripped::new(&NESTING, MAX_NESTING as u64, at))
    }
}

/// Compile-time metadata of a prepared query.
#[derive(Debug, Clone, Copy)]
pub struct QueryMeta {
    /// What the §4.1 optimizer removed.
    pub opt_stats: OptStats,
    /// Wall time of each compile stage (parse / translate / optimize).
    /// Cached with the query so a cache miss can attribute its one-time
    /// compile cost to the request that paid it.
    pub compile_times: StageTimes,
}

/// A query compiled once: parse → translate → optimize.
///
/// `PreparedQuery` is immutable, `Send + Sync`, and cheap to share via
/// [`Arc`]; the [`crate::BatchDriver`] hands one set of prepared queries to
/// every worker thread.
pub struct PreparedQuery {
    source: String,
    query: Query,
    unopt: Mft,
    opt: Mft,
    meta: QueryMeta,
    /// Lazily computed single-lane prefilter plan (projection fixpoint +
    /// matched-label set), shared by every run of this query alone.
    solo_plan: OnceLock<crate::multi::QuerySetPlan>,
}

impl PreparedQuery {
    /// Run the full compilation pipeline on `source` under `foxq serve`'s
    /// bounds.
    pub fn compile(source: &str) -> Result<PreparedQuery, PrepareError> {
        PreparedQuery::compile_with_limits(source, &Limits::serving())
    }

    /// [`PreparedQuery::compile`] under explicit bounds. The source's size
    /// is checked up front, its nesting by the parser, and the transducer's
    /// size after the (linear) §3 translation; the §4.1 optimizer bounds
    /// itself (`foxq_core::opt::OptLimits`), so a query that passes compiles
    /// in polynomial time and memory.
    pub fn compile_with_limits(
        source: &str,
        limits: &Limits,
    ) -> Result<PreparedQuery, PrepareError> {
        too_large(&SOURCE_BYTES, source.len(), limits.max_source_bytes)?;
        let mut compile_times = StageTimes::default();
        let mut timed = |stage: Stage, start: Instant| {
            compile_times.add(stage, foxq_obs::micros_since(start));
        };
        let t = Instant::now();
        let query = parse_query(source)?;
        timed(Stage::Parse, t);
        let t = Instant::now();
        let unopt = translate(&query).map_err(PrepareError::Translate)?;
        timed(Stage::Translate, t);
        too_large(&TRANSLATED_SIZE, unopt.size(), limits.max_translated_size)?;
        let t = Instant::now();
        let (opt, opt_stats) = optimize_with_stats(unopt.clone());
        timed(Stage::Optimize, t);
        let meta = QueryMeta {
            opt_stats,
            compile_times,
        };
        Ok(PreparedQuery {
            source: source.to_string(),
            query,
            unopt,
            opt,
            meta,
            solo_plan: OnceLock::new(),
        })
    }

    /// The query text this was compiled from.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// The parsed MinXQuery AST.
    pub fn query(&self) -> &Query {
        &self.query
    }

    /// The optimized transducer (what serving should run).
    pub fn mft(&self) -> &Mft {
        &self.opt
    }

    /// The raw §3 translation, before the §4.1 optimizations.
    pub fn unoptimized(&self) -> &Mft {
        &self.unopt
    }

    /// Compile-time metadata.
    pub fn meta(&self) -> &QueryMeta {
        &self.meta
    }

    /// The single-lane [`crate::QuerySetPlan`] of this query, computed on
    /// first use and cached — a hot serving path (e.g. `/query?doc=` tape
    /// replays) must not re-run the projection fixpoint per request.
    pub fn solo_plan(&self) -> &crate::multi::QuerySetPlan {
        self.solo_plan
            .get_or_init(|| crate::multi::QuerySetPlan::new([self.mft()]))
    }

    /// Convenience: stream one XML document through the optimized MFT into
    /// a string. A prepared query may come from untrusted text, so pass
    /// [`StreamLimits::serving`] unless the run is otherwise bounded: it
    /// never lets a single run materialize unbounded output.
    pub fn run_to_string(
        &self,
        input: &[u8],
        limits: StreamLimits,
    ) -> Result<StreamRunOutput, StreamError> {
        run_streaming_to_string(&self.opt, input, limits)
    }

    /// Stream one XML document through the optimized MFT, delivering each
    /// irrevocable output prefix to `deliver` as soon as no pending state
    /// call remains to its left — the first chunk typically leaves before
    /// the document has finished arriving. The concatenation of delivered
    /// prefixes is byte-identical to [`PreparedQuery::run_to_string`]'s
    /// output (proptest-guarded).
    ///
    /// A `deliver` failure aborts the run as
    /// [`StreamError::Emit`](foxq_core::stream::StreamError::Emit).
    pub fn run_streaming(
        &self,
        input: &[u8],
        limits: StreamLimits,
        deliver: impl FnMut(&[u8]) -> std::io::Result<()>,
    ) -> Result<StreamStats, StreamError> {
        let sink = foxq_core::emit::EmitWriter::new(deliver);
        let reader = foxq_xml::XmlReader::new(input);
        let (sink, stats) = run_streaming_with_limits(&self.opt, reader, sink, limits)?;
        sink.finish()?;
        Ok(stats)
    }
}

/// `size` past `bound` is a [`PrepareError::Limit`] of `limit`'s row.
fn too_large(limit: &'static Limit, size: usize, bound: usize) -> Result<(), PrepareError> {
    if size <= bound {
        return Ok(());
    }
    let found = format!(" ({size} {})", limit.unit);
    Err(PrepareError::Limit(Tripped::new(
        limit,
        bound as u64,
        found,
    )))
}

/// Counters of a [`QueryCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache (no compilation).
    pub hits: u64,
    /// Lookups that required a compile.
    pub misses: u64,
    /// Successful compilations performed on behalf of the cache.
    pub compiles: u64,
    /// Entries evicted to respect the capacity.
    pub evictions: u64,
}

struct CacheEntry {
    prepared: Arc<PreparedQuery>,
    /// Logical timestamp of the last lookup (LRU order).
    stamp: u64,
}

/// Hash-keyed LRU cache of [`PreparedQuery`]s.
///
/// Keys are the FxHash of the trimmed query text; on a hash hit the stored
/// source is compared so a collision degrades to a recompile, never a wrong
/// answer. Failed compilations are not cached (the error propagates and the
/// next lookup retries).
pub struct QueryCache {
    capacity: usize,
    limits: Limits,
    map: FxHashMap<u64, CacheEntry>,
    tick: u64,
    stats: CacheStats,
}

impl QueryCache {
    /// A cache holding at most `capacity` prepared queries (min 1), under
    /// `foxq serve`'s compile bounds.
    pub fn new(capacity: usize) -> Self {
        Self::with_limits(capacity, Limits::serving())
    }

    /// [`QueryCache::new`] with explicit compile bounds applied to every
    /// compilation the cache performs.
    pub fn with_limits(capacity: usize, limits: Limits) -> Self {
        QueryCache {
            capacity: capacity.max(1),
            limits,
            map: FxHashMap::default(),
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    fn key(source: &str) -> u64 {
        source_key(source)
    }

    /// Look up `source`, compiling (and inserting) on a miss.
    pub fn get_or_compile(&mut self, source: &str) -> Result<Arc<PreparedQuery>, PrepareError> {
        self.lookup_or_compile(source).map(|(prepared, _)| prepared)
    }

    /// [`QueryCache::get_or_compile`], also reporting whether the lookup
    /// was a hit (`true`) or had to compile (`false`) — so a tracing
    /// caller can attribute compile time to the request that paid it.
    pub fn lookup_or_compile(
        &mut self,
        source: &str,
    ) -> Result<(Arc<PreparedQuery>, bool), PrepareError> {
        let key = Self::key(source);
        self.tick += 1;
        if let Some(entry) = self.map.get_mut(&key) {
            if entry.prepared.source().trim() == source.trim() {
                entry.stamp = self.tick;
                self.stats.hits += 1;
                return Ok((entry.prepared.clone(), true));
            }
            // FxHash collision between different texts: recompile in place.
        }
        self.stats.misses += 1;
        let prepared = Arc::new(PreparedQuery::compile_with_limits(source, &self.limits)?);
        self.stats.compiles += 1;
        if !self.map.contains_key(&key) && self.map.len() >= self.capacity {
            self.evict_lru();
        }
        let replaced = self.map.insert(
            key,
            CacheEntry {
                prepared: prepared.clone(),
                stamp: self.tick,
            },
        );
        if replaced.is_some() {
            // A hash collision displaced a different query's entry; count it
            // so the observable stats stay honest.
            self.stats.evictions += 1;
        }
        Ok((prepared, false))
    }

    fn evict_lru(&mut self) {
        if let Some(&key) = self.map.iter().min_by_key(|(_, e)| e.stamp).map(|(k, _)| k) {
            self.map.remove(&key);
            self.stats.evictions += 1;
        }
    }

    /// Cached entry count.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Maximum entry count.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Hit/miss/compile/eviction counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }
}

/// A cloneable, thread-safe handle to a process-wide [`QueryCache`].
///
/// This is what a multi-worker server shares: every worker compiles through
/// the same cache (so a hot query compiles once per process, not once per
/// connection), and an observability endpoint reads [`CacheStats`] from the
/// same handle without interrupting serving. The mutex is held across the
/// compilation itself — deliberately: concurrent first requests for the
/// same hot query then compile it once instead of racing, and compilation
/// is bounded by [`Limits`] so the hold time is too. Compilation is
/// pure, so a poisoned lock (a panicking worker) cannot have corrupted
/// entries and is simply cleared.
#[derive(Clone)]
pub struct SharedQueryCache {
    inner: Arc<std::sync::Mutex<QueryCache>>,
}

impl SharedQueryCache {
    /// A shared cache holding at most `capacity` prepared queries, compiled
    /// under `limits`.
    pub fn with_limits(capacity: usize, limits: Limits) -> Self {
        SharedQueryCache {
            inner: Arc::new(std::sync::Mutex::new(QueryCache::with_limits(
                capacity, limits,
            ))),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, QueryCache> {
        self.inner
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Look up `source`, compiling (and inserting) on a miss, and report
    /// whether the lookup was a hit (see [`QueryCache::lookup_or_compile`]).
    pub fn lookup_or_compile(
        &self,
        source: &str,
    ) -> Result<(Arc<PreparedQuery>, bool), PrepareError> {
        self.lock().lookup_or_compile(source)
    }

    /// Hit/miss/compile/eviction counters (a consistent snapshot).
    pub fn stats(&self) -> CacheStats {
        self.lock().stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const Q1: &str = "<o>{$input/a}</o>";
    const Q2: &str = "<o>{$input/b}</o>";
    const Q3: &str = "<o>{$input/c}</o>";

    #[test]
    fn prepared_query_compiles_and_runs() {
        let p = PreparedQuery::compile(Q1).unwrap();
        assert!(p.mft().state_count() > 0);
        assert!(p.mft().size() <= p.unoptimized().size());
        let out = p
            .run_to_string(b"<a>x</a><b/>", StreamLimits::serving())
            .unwrap();
        assert_eq!(out.output, "<o><a>x</a></o>");
    }

    #[test]
    fn compile_errors_propagate() {
        assert!(matches!(
            PreparedQuery::compile("for $x return $x"),
            Err(PrepareError::Syntax(_))
        ));
        // $a is a let variable: paths from lets are rejected by translation.
        assert!(matches!(
            PreparedQuery::compile("let $a := $input/x return <o>{$a/b}</o>"),
            Err(PrepareError::Translate(_))
        ));
    }

    use foxq_core::opt::nested_doubling_lets;

    #[test]
    fn untrusted_doubling_nest_compiles_bounded_and_runs_bounded() {
        // Compile must stay polynomial (the optimizer's inlining growth
        // budget keeps the doubled value as a shared parameter)…
        let p = PreparedQuery::compile(&nested_doubling_lets(40)).unwrap();
        assert!(p.mft().size() < 100_000, "compiled size {}", p.mft().size());
        // …and a run cannot materialize the 2^40-node output: the output
        // budget aborts it (the shared-graph engine would otherwise emit
        // forever from a tiny live arena).
        let limits = StreamLimits {
            max_output_events: 10_000,
            ..StreamLimits::serving()
        };
        match p.run_to_string(b"<r/>", limits) {
            Err(StreamError::OutputLimit { max_output_events }) => {
                assert_eq!(max_output_events, 10_000)
            }
            Err(e) => panic!("expected OutputLimit, got {e}"),
            Ok(out) => panic!("expected OutputLimit, got {} bytes", out.output.len()),
        }
    }

    #[test]
    fn oversized_query_sources_are_rejected() {
        let big = format!("<o>{}</o>", " ".repeat(2 << 20));
        match PreparedQuery::compile(&big) {
            Err(PrepareError::Limit(t)) => assert_eq!(t.limit.name, "max_source_bytes"),
            other => panic!("expected TooLarge, got {:?}", other.map(|_| "ok")),
        }
    }

    #[test]
    fn cache_hits_skip_compilation() {
        let mut cache = QueryCache::new(4);
        let a = cache.get_or_compile(Q1).unwrap();
        let b = cache.get_or_compile(Q1).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        // Whitespace-normalized source maps to the same entry.
        let c = cache.get_or_compile("  <o>{$input/a}</o>\n").unwrap();
        assert!(Arc::ptr_eq(&a, &c));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.compiles), (2, 1, 1));
    }

    #[test]
    fn cache_evicts_least_recently_used() {
        let mut cache = QueryCache::new(2);
        cache.get_or_compile(Q1).unwrap();
        cache.get_or_compile(Q2).unwrap();
        cache.get_or_compile(Q1).unwrap(); // Q1 now more recent than Q2
        cache.get_or_compile(Q3).unwrap(); // evicts Q2
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 1);
        let before = cache.stats().compiles;
        cache.get_or_compile(Q1).unwrap(); // still cached
        assert_eq!(cache.stats().compiles, before);
        cache.get_or_compile(Q2).unwrap(); // was evicted: recompiles
        assert_eq!(cache.stats().compiles, before + 1);
    }

    #[test]
    fn failed_compiles_are_not_cached() {
        let mut cache = QueryCache::new(2);
        assert!(cache.get_or_compile("for $x return $x").is_err());
        assert!(cache.is_empty());
        assert_eq!(cache.stats().compiles, 0);
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn prepared_query_is_send_sync() {
        fn check<T: Send + Sync>() {}
        check::<PreparedQuery>();
        check::<SharedQueryCache>();
    }

    #[test]
    fn shared_cache_serves_concurrent_workers() {
        let cache = SharedQueryCache::with_limits(4, Limits::serving());
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let cache = cache.clone();
                scope.spawn(move || {
                    for q in [Q1, Q2, Q1, Q3, Q1] {
                        cache.lookup_or_compile(q).unwrap();
                    }
                });
            }
        });
        let s = cache.stats();
        assert_eq!(s.hits + s.misses, 20);
        // Every thread resolves every query; at least the per-thread
        // repeats hit (two workers may race to compile the same text, so
        // the compile count is only bounded, not exact).
        assert!(
            s.compiles >= 3 && s.compiles <= 12,
            "compiles {}",
            s.compiles
        );
        assert!(s.hits >= 8, "hits {}", s.hits);
    }

    #[test]
    fn cache_compile_limits_are_enforced() {
        let mut cache = QueryCache::with_limits(
            2,
            Limits {
                max_source_bytes: 64,
                ..Limits::serving()
            },
        );
        let big = format!("<o>{}</o>", " ".repeat(100));
        assert!(matches!(
            cache.get_or_compile(&big),
            Err(PrepareError::Limit(_))
        ));
    }
}
