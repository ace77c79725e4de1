//! Parallel batch evaluation: M documents × N queries across scoped threads.
//!
//! Documents are independent units of work, so the driver shards *documents*
//! across `std::thread::scope` workers (no extra dependencies, no `'static`
//! bounds); within one document all N queries share a single pass of the
//! event stream via [`crate::MultiQueryEngine`]. Work is claimed from an
//! atomic counter, but results are written back by document index, so the
//! report is **deterministic**: byte-for-byte identical whatever the thread
//! count or scheduling (proven by `tests/service.rs`).

use crate::multi::{run_lanes, Events, LaneInput, MultiRun, QuerySetPlan, RunReport, SourceCost};
use crate::prepared::PreparedQuery;
use foxq_core::stream::{StreamLimits, StreamStats};
use foxq_core::Mft;
use foxq_store::Corpus;
use foxq_xml::{WriterSink, XmlReader};
use std::io::Read;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// One (document, query) cell of a batch report.
#[derive(Debug, Clone)]
pub struct BatchCell {
    /// Serialized XML output, or the per-query error message.
    pub output: Result<String, String>,
    /// The run's report; present exactly when the cell succeeded.
    pub report: Option<RunReport>,
}

impl BatchCell {
    fn failed(e: impl std::fmt::Display) -> BatchCell {
        BatchCell {
            output: Err(e.to_string()),
            report: None,
        }
    }
}

/// Aggregate outcome of [`BatchDriver::run`].
#[derive(Debug, Default)]
pub struct BatchReport {
    /// `cells[d][q]` is document `d` evaluated under query `q`, in the
    /// order both were supplied.
    pub cells: Vec<Vec<BatchCell>>,
    /// Input events consumed, summed over successfully parsed documents
    /// (each parsed once regardless of the query count, and counted even
    /// when every query of the document failed). Documents whose parse
    /// aborted (malformed XML, unreadable file) contribute 0.
    pub input_events: u64,
    /// Output events pushed, summed over all successful cells.
    pub output_events: u64,
    /// Tape bytes seeked over instead of decoded, summed over documents.
    /// Nonzero only for [`BatchDriver::run_corpus`] (XML text cannot be
    /// skipped without being scanned).
    pub seek_skipped_bytes: u64,
    /// Tape bytes the label skip index jumped over without decoding,
    /// summed over documents. Nonzero only for
    /// [`BatchDriver::run_corpus`] when the whole query set prefilters.
    pub index_skipped_bytes: u64,
    /// Cells that ended in an error.
    pub failures: usize,
}

impl BatchReport {
    /// Convenience accessor: the output of document `d` under query `q`.
    pub fn output(&self, d: usize, q: usize) -> &Result<String, String> {
        &self.cells[d][q].output
    }

    /// Sum document rows, in order, into one report.
    fn of_rows(rows: impl IntoIterator<Item = DocRow>) -> BatchReport {
        let mut report = BatchReport::default();
        for row in rows {
            report.input_events += row.input_events;
            report.seek_skipped_bytes += row.source.seek_skipped_bytes;
            report.index_skipped_bytes += row.source.index_skipped_bytes;
            for cell in &row.cells {
                match (&cell.output, cell.report) {
                    (Ok(_), Some(run)) => report.output_events += run.stats.output_events,
                    _ => report.failures += 1,
                }
            }
            report.cells.push(row.cells);
        }
        report
    }
}

/// Evaluate documents × queries across a bounded pool of scoped threads.
#[derive(Debug, Clone, Copy)]
pub struct BatchDriver {
    threads: usize,
    limits: StreamLimits,
}

impl BatchDriver {
    /// A driver using up to `threads` worker threads (min 1), under the
    /// serving stream limits ([`StreamLimits::serving`]): batches run
    /// *prepared* — possibly untrusted — queries, so no lane may emit
    /// unbounded output by default.
    pub fn new(threads: usize) -> Self {
        BatchDriver {
            threads: threads.max(1),
            limits: StreamLimits::serving(),
        }
    }

    /// Override the per-engine stream limits.
    pub fn with_limits(mut self, limits: StreamLimits) -> Self {
        self.limits = limits;
        self
    }

    /// Worker thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Run every query over every in-memory document; one parse per
    /// document. The prefilter plan is computed once for the query set and
    /// shared by every document and worker thread.
    pub fn run(&self, docs: &[Vec<u8>], queries: &[Arc<PreparedQuery>]) -> BatchReport {
        let plan = plan_of(queries);
        self.run_with(docs.len(), |d| {
            run_one(
                Events(XmlReader::new(&docs[d][..])),
                queries,
                self.limits,
                &plan,
            )
        })
    }

    /// Run every query over one XML stream (stdin, a pipe) in one pass: a
    /// one-document batch, reported like any other.
    pub fn run_reader(&self, input: impl Read, queries: &[Arc<PreparedQuery>]) -> BatchReport {
        let plan = plan_of(queries);
        let row = run_one(Events(XmlReader::new(input)), queries, self.limits, &plan);
        BatchReport::of_rows([row])
    }

    /// Run every query over every document *file*, opened and streamed by
    /// the worker that claims it — peak memory stays O(threads × buffer),
    /// not O(total corpus), whatever the batch size.
    pub fn run_files(
        &self,
        paths: &[impl AsRef<Path> + Sync],
        queries: &[Arc<PreparedQuery>],
    ) -> BatchReport {
        let plan = plan_of(queries);
        self.run_with(paths.len(), |d| {
            match std::fs::File::open(paths[d].as_ref()) {
                Ok(file) => run_one(Events(XmlReader::new(file)), queries, self.limits, &plan),
                Err(e) => DocRow::failed(
                    &format!("cannot open {}: {e}", paths[d].as_ref().display()),
                    queries,
                ),
            }
        })
    }

    /// Run one compiled query set over **every stored document** of a
    /// [`Corpus`] (or the ids in `subset`, in the given order), replaying
    /// tapes instead of re-parsing XML and seeking over prefilter-withheld
    /// subtrees. Rows are keyed by position in the returned
    /// [`CorpusReport::doc_ids`]; the report is deterministic whatever the
    /// thread count.
    pub fn run_corpus(&self, corpus: &Corpus, queries: &[Arc<PreparedQuery>]) -> CorpusReport {
        let ids: Vec<String> = corpus.ids().map(String::from).collect();
        self.run_corpus_subset(corpus, ids, queries)
    }

    /// [`BatchDriver::run_corpus`] over an explicit id list.
    pub fn run_corpus_subset(
        &self,
        corpus: &Corpus,
        doc_ids: Vec<String>,
        queries: &[Arc<PreparedQuery>],
    ) -> CorpusReport {
        let plan = plan_of(queries);
        let report = self.run_with(doc_ids.len(), |d| match corpus.open_tape(&doc_ids[d]) {
            Ok(tape) => run_one(tape, queries, self.limits, &plan),
            Err(e) => DocRow::failed(&e.to_string(), queries),
        });
        CorpusReport { doc_ids, report }
    }

    /// Shared scheduling core: shard `count` document indices across the
    /// workers, writing rows back by index (deterministic whatever the
    /// thread scheduling).
    fn run_with(&self, count: usize, job: impl Fn(usize) -> DocRow + Sync) -> BatchReport {
        let mut rows: Vec<Option<DocRow>> = (0..count).map(|_| None).collect();
        let workers = self.threads.min(count).max(1);
        if workers <= 1 {
            for (d, row) in rows.iter_mut().enumerate() {
                *row = Some(job(d));
            }
        } else {
            let next = AtomicUsize::new(0);
            let job = &job;
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers)
                    .map(|_| {
                        let next = &next;
                        scope.spawn(move || {
                            let mut produced = Vec::new();
                            loop {
                                let d = next.fetch_add(1, Ordering::Relaxed);
                                if d >= count {
                                    return produced;
                                }
                                produced.push((d, job(d)));
                            }
                        })
                    })
                    .collect();
                for handle in handles {
                    for (d, row) in handle.join().expect("batch worker panicked") {
                        rows[d] = Some(row);
                    }
                }
            });
        }
        BatchReport::of_rows(
            rows.into_iter()
                .map(|row| row.expect("every document processed")),
        )
    }
}

/// A corpus batch: [`BatchReport`] rows aligned with the stored ids.
#[derive(Debug)]
pub struct CorpusReport {
    /// Document ids, in row order (`report.cells[d]` is `doc_ids[d]`).
    pub doc_ids: Vec<String>,
    /// The per-cell outcomes.
    pub report: BatchReport,
}

/// One document's worth of results plus its shared parse cost.
struct DocRow {
    cells: Vec<BatchCell>,
    input_events: u64,
    source: SourceCost,
}

impl DocRow {
    /// Every cell of this document failed with `msg` (unreadable file,
    /// malformed XML, corrupt tape).
    fn failed(msg: &str, queries: &[Arc<PreparedQuery>]) -> DocRow {
        DocRow {
            cells: queries.iter().map(|_| BatchCell::failed(msg)).collect(),
            input_events: 0,
            source: SourceCost::default(),
        }
    }

    fn from_run(run: MultiRun<(WriterSink<Vec<u8>>, StreamStats, ())>) -> DocRow {
        let (input_events, source) = (run.input_events, run.source);
        let cells = run.into_reports().map(|lane| match lane {
            Ok((sink, (), report)) => match sink.finish() {
                Ok(buf) => BatchCell {
                    output: Ok(String::from_utf8(buf).expect("output is UTF-8")),
                    report: Some(report),
                },
                Err(e) => BatchCell::failed(e),
            },
            Err(e) => BatchCell::failed(e),
        });
        DocRow {
            cells: cells.collect(),
            input_events,
            source,
        }
    }
}

/// Compute the shared prefilter plan of a query set once per batch.
fn plan_of(queries: &[Arc<PreparedQuery>]) -> QuerySetPlan {
    QuerySetPlan::new(queries.iter().map(|q| q.mft()))
}

/// All queries over one document — XML text, or a stored tape replayed
/// with seek skipping — in a single pass. An input-side failure (malformed
/// XML, a corrupt or unreadable tape) fails every cell of the document.
fn run_one<I: LaneInput>(
    input: I,
    queries: &[Arc<PreparedQuery>],
    limits: StreamLimits,
    plan: &QuerySetPlan,
) -> DocRow
where
    I::Error: std::fmt::Display,
{
    let mfts: Vec<&Mft> = queries.iter().map(|q| q.mft()).collect();
    let lanes = queries
        .iter()
        .map(|_| (WriterSink::new(Vec::new()), ()))
        .collect();
    match run_lanes(&mfts, input, lanes, limits, plan) {
        Ok(run) => DocRow::from_run(run),
        Err(e) => DocRow::failed(&e.to_string(), queries),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prepared(src: &str) -> Arc<PreparedQuery> {
        Arc::new(PreparedQuery::compile(src).unwrap())
    }

    fn docs() -> Vec<Vec<u8>> {
        (0..7)
            .map(|i| format!("<r><a>{i}</a><b x=\"{i}\"/></r>").into_bytes())
            .collect()
    }

    #[test]
    fn parallel_matches_serial_byte_for_byte() {
        let queries = vec![
            prepared("<o>{$input/r/a}</o>"),
            prepared("<o>{$input//b}</o>"),
        ];
        let serial = BatchDriver::new(1).run(&docs(), &queries);
        let parallel = BatchDriver::new(4).run(&docs(), &queries);
        assert_eq!(serial.cells.len(), parallel.cells.len());
        for (s, p) in serial.cells.iter().zip(&parallel.cells) {
            for (sc, pc) in s.iter().zip(p) {
                assert_eq!(sc.output, pc.output);
            }
        }
        assert_eq!(serial.failures, 0);
        assert_eq!(serial.output(0, 0).as_ref().unwrap(), "<o><a>0</a></o>");
    }

    #[test]
    fn malformed_document_fails_only_its_row() {
        let queries = vec![prepared("<o>{$input/r/a}</o>")];
        let mut ds = docs();
        ds[1] = b"<r><unclosed>".to_vec();
        let report = BatchDriver::new(3).run(&ds, &queries);
        assert_eq!(report.failures, 1);
        assert!(report.output(1, 0).is_err());
        assert!(report.output(0, 0).is_ok());
        assert!(report.output(2, 0).is_ok());
    }

    #[test]
    fn run_reader_is_a_one_document_batch() {
        let queries = vec![
            prepared("<o>{$input/r/a}</o>"),
            prepared("<o>{$input//b}</o>"),
        ];
        let doc = &docs()[3];
        let streamed = BatchDriver::new(2).run_reader(&doc[..], &queries);
        let batched = BatchDriver::new(2).run(std::slice::from_ref(doc), &queries);
        assert_eq!(streamed.cells.len(), 1);
        for q in 0..queries.len() {
            assert_eq!(streamed.output(0, q), batched.output(0, q));
        }
        assert_eq!(streamed.input_events, batched.input_events);
        assert_eq!(streamed.output_events, batched.output_events);
        // A malformed stream fails every cell of its one row.
        let bad = BatchDriver::new(1).run_reader(&b"<r><unclosed>"[..], &queries);
        assert_eq!(bad.failures, queries.len());
    }

    #[test]
    fn run_files_streams_each_document_lazily() {
        let dir = std::env::temp_dir().join(format!("foxq-batch-files-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut paths = Vec::new();
        for (i, doc) in docs().iter().enumerate() {
            let p = dir.join(format!("d{i}.xml"));
            std::fs::write(&p, doc).unwrap();
            paths.push(p);
        }
        paths.push(dir.join("missing.xml")); // unreadable: fails its row only
        let queries = vec![prepared("<o>{$input/r/a}</o>")];
        let report = BatchDriver::new(3).run_files(&paths, &queries);
        assert_eq!(report.failures, 1);
        assert!(report.output(paths.len() - 1, 0).is_err());
        // Identical to the in-memory driver on the same documents.
        let in_memory = BatchDriver::new(1).run(&docs(), &queries);
        for (d, row) in in_memory.cells.iter().enumerate() {
            assert_eq!(&row[0].output, report.output(d, 0));
        }
    }

    #[test]
    fn run_corpus_replays_tapes_and_seeks() {
        let dir = std::env::temp_dir().join(format!("foxq-batch-corpus-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut corpus = foxq_store::Corpus::open(&dir).unwrap();
        for i in 0..5 {
            let xml = format!(
                "<site><junk><big><blob>padding {i}</blob></big></junk>\
                 <people><person><name>p{i}</name></person></people></site>"
            );
            corpus.add_xml(&format!("doc{i}"), xml.as_bytes()).unwrap();
        }
        let queries = vec![prepared("<o>{$input/site/people/person/name/text()}</o>")];
        let serial = BatchDriver::new(1).run_corpus(&corpus, &queries);
        let parallel = BatchDriver::new(3).run_corpus(&corpus, &queries);
        assert_eq!(serial.doc_ids, parallel.doc_ids);
        assert_eq!(serial.report.failures, 0);
        // Tapes carry a skip index and the query set prefilters wholesale, so
        // the corpus run rides the skip index, not per-subtree seeks.
        assert!(
            serial.report.index_skipped_bytes > 0,
            "no bytes were index-skipped"
        );
        assert_eq!(serial.report.seek_skipped_bytes, 0);
        assert_eq!(
            serial.report.index_skipped_bytes,
            parallel.report.index_skipped_bytes
        );
        for (d, id) in serial.doc_ids.iter().enumerate() {
            let i = id.strip_prefix("doc").unwrap();
            assert_eq!(
                serial.report.output(d, 0).as_ref().unwrap(),
                &format!("<o>p{i}</o>")
            );
            assert_eq!(serial.report.output(d, 0), parallel.report.output(d, 0));
        }
        // Subset runs honor the given order.
        let subset = BatchDriver::new(2).run_corpus_subset(
            &corpus,
            vec!["doc3".into(), "doc1".into()],
            &queries,
        );
        assert_eq!(subset.doc_ids, vec!["doc3", "doc1"]);
        assert_eq!(subset.report.output(0, 0).as_ref().unwrap(), "<o>p3</o>");
        // Unknown ids fail their row only.
        let missing = BatchDriver::new(1).run_corpus_subset(
            &corpus,
            vec!["doc0".into(), "nope".into()],
            &queries,
        );
        assert_eq!(missing.report.failures, 1);
        assert!(missing.report.output(1, 0).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_batches_are_fine() {
        let report = BatchDriver::new(4).run(&[], &[prepared("<o>{$input/a}</o>")]);
        assert!(report.cells.is_empty());
        let report = BatchDriver::new(4).run(&[b"<a/>".to_vec()], &[]);
        assert_eq!(report.cells.len(), 1);
        assert!(report.cells[0].is_empty());
    }
}
