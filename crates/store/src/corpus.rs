//! A directory of tapes with a durable manifest.
//!
//! A corpus is a plain directory: one `<id>.fet` tape per document plus a
//! `manifest.tsv` index. The manifest is line-oriented, tab-separated —
//! `id`, `file`, `version`, `source_bytes`, `tape_bytes`, `events`,
//! `checksum` (hex) — with `#`-comment lines ignored (six-field lines from
//! pre-FET2 manifests parse with an implied version 1). The manifest is
//! rewritten atomically (temp file fsynced, renamed, directory fsynced) on
//! every mutation, so a crash can lose at most the in-flight operation,
//! never the index. Ingest is likewise tmp-file + rename: a half-written
//! tape is never visible under its final name, and both the tape bytes and
//! the rename reach disk before the manifest commits.

use crate::mmap::TapeInput;
use crate::tape::{
    check_hash, ingest_xml_to_tape, EventHash, StoreError, TapeInfo, TapeReader, TapeWriter,
    VERSION,
};
use foxq_xml::XmlEvent;
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufRead, Read, Seek, Write};
use std::path::{Path, PathBuf};

/// Manifest file name inside the corpus directory.
pub const MANIFEST: &str = "manifest.tsv";

/// One stored document's manifest entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DocMeta {
    /// Caller-chosen id (`[A-Za-z0-9._-]+`, not starting with `.`).
    pub id: String,
    /// Tape file name, relative to the corpus directory.
    pub file: String,
    /// Tape format version (3; 1 or 2 until [`Corpus::migrate`] rewrites
    /// the tape).
    pub version: u8,
    /// XML bytes consumed when the document was ingested.
    pub source_bytes: u64,
    /// Tape file size in bytes.
    pub tape_bytes: u64,
    /// Open + close events on the tape.
    pub events: u64,
    /// The tape's document checksum (FNV-1a 64).
    pub checksum: u64,
}

/// A corpus: a directory of `.fet` tapes plus its manifest, held in memory
/// as a sorted map (iteration order is deterministic).
#[derive(Debug)]
pub struct Corpus {
    dir: PathBuf,
    docs: BTreeMap<String, DocMeta>,
}

/// Is `id` safe to embed in a file name?
pub fn valid_doc_id(id: &str) -> bool {
    !id.is_empty()
        && id.len() <= 128
        && !id.starts_with('.')
        && id
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'.' | b'_' | b'-'))
}

impl Corpus {
    /// Open (or create) the corpus at `dir`, loading the manifest if one
    /// exists.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Corpus, StoreError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        sweep_orphaned_tmp(&dir)?;
        let mut corpus = Corpus {
            dir,
            docs: BTreeMap::new(),
        };
        let manifest = corpus.dir.join(MANIFEST);
        if manifest.exists() {
            let text = std::fs::read_to_string(&manifest)?;
            for (i, line) in text.lines().enumerate() {
                let line = line.trim();
                if line.is_empty() || line.starts_with('#') {
                    continue;
                }
                let meta = parse_manifest_line(line)
                    .map_err(|msg| StoreError::Manifest { line: i + 1, msg })?;
                corpus.docs.insert(meta.id.clone(), meta);
            }
        }
        Ok(corpus)
    }

    /// The corpus directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Number of stored documents.
    pub fn len(&self) -> usize {
        self.docs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.docs.is_empty()
    }

    /// Document ids in sorted order.
    pub fn ids(&self) -> impl Iterator<Item = &str> {
        self.docs.keys().map(String::as_str)
    }

    /// Manifest entries in id order.
    pub fn docs(&self) -> impl Iterator<Item = &DocMeta> {
        self.docs.values()
    }

    /// Look up one document.
    pub fn get(&self, id: &str) -> Option<&DocMeta> {
        self.docs.get(id)
    }

    /// Absolute path of a stored document's tape.
    pub fn tape_path(&self, id: &str) -> Result<PathBuf, StoreError> {
        let meta = self
            .docs
            .get(id)
            .ok_or_else(|| StoreError::UnknownDoc { id: id.to_string() })?;
        Ok(self.dir.join(&meta.file))
    }

    /// Open a stored document's tape for replay (memory-mapped when the
    /// platform grants it, buffered file I/O otherwise).
    pub fn open_tape(&self, id: &str) -> Result<TapeReader<TapeInput>, StoreError> {
        TapeReader::open_file(&self.tape_path(id)?)
    }

    /// Parse `xml` and store it under `id` (an upsert: re-ingesting an id
    /// replaces its tape). One streaming pass, constant memory.
    pub fn add_xml(&mut self, id: &str, xml: impl Read) -> Result<DocMeta, StoreError> {
        if !valid_doc_id(id) {
            return Err(StoreError::BadDocId { id: id.to_string() });
        }
        let tmp = self.dir.join(format!(".{id}.ingest.tmp"));
        let (info, source_bytes) = ingest_xml_to_tmp(&tmp, xml)?;
        self.install_tape(id, &tmp, &info, source_bytes)
    }

    /// Move a finished tape file into the corpus under `id` and record it
    /// in the manifest. Used by [`Corpus::add_xml`] and by servers that
    /// ingest outside the corpus lock and only commit under it.
    pub fn install_tape(
        &mut self,
        id: &str,
        tmp: &Path,
        info: &TapeInfo,
        source_bytes: u64,
    ) -> Result<DocMeta, StoreError> {
        if !valid_doc_id(id) {
            let _ = std::fs::remove_file(tmp);
            return Err(StoreError::BadDocId { id: id.to_string() });
        }
        let file = format!("{id}.fet");
        if let Err(e) = std::fs::rename(tmp, self.dir.join(&file)) {
            let _ = std::fs::remove_file(tmp);
            return Err(StoreError::Io(e));
        }
        let meta = DocMeta {
            id: id.to_string(),
            file,
            version: info.version,
            source_bytes,
            tape_bytes: info.file_bytes,
            events: info.events,
            checksum: info.checksum,
        };
        self.docs.insert(id.to_string(), meta.clone());
        self.save_manifest()?;
        Ok(meta)
    }

    /// Rewrite a stored FET1 or FET2 tape as FET3 in place
    /// ([`migrate_tape`]; tmp file + rename, like ingest) and update its
    /// manifest entry. A no-op for tapes already on the current version.
    pub fn migrate(&mut self, id: &str) -> Result<DocMeta, StoreError> {
        let meta = self
            .docs
            .get(id)
            .ok_or_else(|| StoreError::UnknownDoc { id: id.to_string() })?
            .clone();
        if meta.version == VERSION {
            return Ok(meta);
        }
        let tmp = self.dir.join(format!(".{id}.migrate.tmp"));
        let old = TapeInput::open(std::fs::File::open(self.dir.join(&meta.file))?);
        let info = tape_to_tmp(&tmp, |out| migrate_tape(old, out))?;
        self.install_tape(id, &tmp, &info, meta.source_bytes)
    }

    /// Migrate every stored document to the current tape version. Returns
    /// how many tapes were rewritten.
    pub fn migrate_all(&mut self) -> Result<usize, StoreError> {
        let stale: Vec<String> = self
            .docs
            .values()
            .filter(|d| d.version != VERSION)
            .map(|d| d.id.clone())
            .collect();
        for id in &stale {
            self.migrate(id)?;
        }
        Ok(stale.len())
    }

    /// Remove a stored document (tape file and manifest entry).
    pub fn remove(&mut self, id: &str) -> Result<DocMeta, StoreError> {
        let meta = self
            .docs
            .remove(id)
            .ok_or_else(|| StoreError::UnknownDoc { id: id.to_string() })?;
        let _ = std::fs::remove_file(self.dir.join(&meta.file));
        self.save_manifest()?;
        Ok(meta)
    }

    /// Sum of stored event counts (a capacity/metrics signal).
    pub fn total_events(&self) -> u64 {
        self.docs.values().map(|d| d.events).sum()
    }

    /// Sum of stored tape sizes in bytes.
    pub fn total_tape_bytes(&self) -> u64 {
        self.docs.values().map(|d| d.tape_bytes).sum()
    }

    fn save_manifest(&self) -> Result<(), StoreError> {
        let tmp = self.dir.join(".manifest.tmp");
        {
            let mut out = std::io::BufWriter::new(std::fs::File::create(&tmp)?);
            writeln!(
                out,
                "# foxq-store manifest v2: \
                 id\tfile\tversion\tsource_bytes\ttape_bytes\tevents\tchecksum"
            )
            .map_err(StoreError::Io)?;
            for meta in self.docs.values() {
                writeln!(
                    out,
                    "{}\t{}\t{}\t{}\t{}\t{}\t{:016x}",
                    meta.id,
                    meta.file,
                    meta.version,
                    meta.source_bytes,
                    meta.tape_bytes,
                    meta.events,
                    meta.checksum
                )
                .map_err(StoreError::Io)?;
            }
            out.flush()?;
            out.get_ref().sync_all()?;
        }
        std::fs::rename(&tmp, self.dir.join(MANIFEST))?;
        // One directory fsync commits both renames of this mutation: the
        // tape's (install_tape, same directory) and the manifest's.
        fsync_dir(&self.dir)?;
        Ok(())
    }
}

/// Flush directory metadata (rename durability). A no-op off unix, where
/// opening a directory read-only is not portable.
fn fsync_dir(dir: &Path) -> Result<(), StoreError> {
    #[cfg(unix)]
    std::fs::File::open(dir)?.sync_all()?;
    #[cfg(not(unix))]
    let _ = dir;
    Ok(())
}

/// Stream `xml` onto a freshly created, fsynced tape file at `tmp`; on any
/// failure the tmp file is removed. The durable half of an ingest — shared
/// by [`Corpus::add_xml`] and servers that parse outside the corpus lock
/// and commit with [`Corpus::install_tape`].
pub fn ingest_xml_to_tmp(tmp: &Path, xml: impl Read) -> Result<(TapeInfo, u64), StoreError> {
    tape_to_tmp(tmp, |out| {
        let (out, info, source_bytes) = ingest_xml_to_tape(xml, out)?;
        Ok((out, (info, source_bytes)))
    })
}

/// Write a tape with `write` onto a freshly created file at `tmp` and
/// fsync it; on any failure the tmp file is removed.
fn tape_to_tmp<T>(
    tmp: &Path,
    write: impl FnOnce(File) -> Result<(File, T), StoreError>,
) -> Result<T, StoreError> {
    let result = File::create(tmp)
        .map_err(StoreError::from)
        .and_then(write)
        .and_then(|(out, made)| Ok(out.sync_all().map(|()| made)?));
    if result.is_err() {
        let _ = std::fs::remove_file(tmp);
    }
    result
}

/// Rewrite a tape of any version as the current one — the one reader of
/// older tapes. The old tape is replayed front to back through the frame
/// decoder, with no seek and no index, into a [`TapeWriter`]: FET2's
/// per-node hashes are checked as they are read, and FET1's one stream hash
/// is recomputed from the events copied and compared with its footer's.
pub fn migrate_tape<R: BufRead + Seek, W: Write + Seek>(
    old: R,
    out: W,
) -> Result<(W, TapeInfo), StoreError> {
    let mut old = TapeReader::open(old, true)?;
    let fet1 = old.info().version == 1;
    let mut writer = TapeWriter::new(out)?;
    let mut stream = EventHash::new();
    loop {
        let event = if fet1 {
            old.pull::<true>()
        } else {
            old.pull::<false>()
        };
        match event? {
            XmlEvent::Open(label) => {
                stream.open(&label);
                writer.open(&label)?;
            }
            XmlEvent::Close(_) => {
                stream.close();
                writer.close()?;
            }
            XmlEvent::Eof => break,
        }
    }
    stream.eof();
    if fet1 {
        check_hash(old.info().checksum, stream.0)?;
    }
    writer.finish()
}

/// Delete crash-orphaned ingest temp files (`.ingest-*.tmp`,
/// `.<id>.ingest.tmp`, `.manifest.tmp`) left behind by a process that died
/// mid-ingest. Only ever runs at open time, when no ingest is in flight;
/// committed tapes and the manifest are never dot-prefixed, so they are
/// never candidates. Returns how many files were removed.
fn sweep_orphaned_tmp(dir: &Path) -> Result<usize, StoreError> {
    let mut swept = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if !name.starts_with('.') || !name.ends_with(".tmp") {
            continue;
        }
        if !entry.file_type()?.is_file() {
            continue;
        }
        // A file racing with its own deletion is already what we wanted.
        match std::fs::remove_file(entry.path()) {
            Ok(()) => swept += 1,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(StoreError::Io(e)),
        }
    }
    Ok(swept)
}

fn parse_manifest_line(line: &str) -> Result<DocMeta, String> {
    let fields: Vec<&str> = line.split('\t').collect();
    // Seven fields since FET2; six-field lines predate the version column
    // and can only describe FET1 tapes.
    let (id, file, version, source_bytes, tape_bytes, events, checksum) = match fields.as_slice() {
        [id, file, version, source_bytes, tape_bytes, events, checksum] => {
            let version = version
                .parse::<u8>()
                .map_err(|_| format!("bad version {version:?}"))?;
            (
                id,
                file,
                version,
                source_bytes,
                tape_bytes,
                events,
                checksum,
            )
        }
        [id, file, source_bytes, tape_bytes, events, checksum] => {
            (id, file, 1, source_bytes, tape_bytes, events, checksum)
        }
        _ => {
            return Err(format!(
                "expected 6 or 7 tab-separated fields, got {}",
                fields.len()
            ));
        }
    };
    if !valid_doc_id(id) {
        return Err(format!("invalid document id {id:?}"));
    }
    let num = |what: &str, v: &str| -> Result<u64, String> {
        v.parse::<u64>().map_err(|_| format!("bad {what} {v:?}"))
    };
    Ok(DocMeta {
        id: id.to_string(),
        file: file.to_string(),
        version,
        source_bytes: num("source_bytes", source_bytes)?,
        tape_bytes: num("tape_bytes", tape_bytes)?,
        events: num("events", events)?,
        checksum: u64::from_str_radix(checksum, 16)
            .map_err(|_| format!("bad checksum {checksum:?}"))?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use foxq_xml::XmlEvent;

    fn scratch(test: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("foxq-corpus-{test}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn open_sweeps_crash_orphaned_tmp_files_but_keeps_documents() {
        let dir = scratch("sweep");
        let mut corpus = Corpus::open(&dir).unwrap();
        corpus.add_xml("kept", &b"<a>ok</a>"[..]).unwrap();
        drop(corpus);

        // What a crash mid-ingest leaves behind: the server's uniquified
        // temp name, the corpus's own, and a manifest rewrite in flight.
        for orphan in [".ingest-7-kept.tmp", ".kept.ingest.tmp", ".manifest.tmp"] {
            std::fs::write(dir.join(orphan), b"half-written").unwrap();
        }

        let corpus = Corpus::open(&dir).unwrap();
        for orphan in [".ingest-7-kept.tmp", ".kept.ingest.tmp", ".manifest.tmp"] {
            assert!(!dir.join(orphan).exists(), "{orphan} should be swept");
        }
        // The committed tape and manifest survived the sweep.
        assert_eq!(corpus.len(), 1);
        let mut tape = corpus.open_tape("kept").unwrap();
        let mut events = 0;
        while tape.next_event().unwrap() != XmlEvent::Eof {
            events += 1;
        }
        assert_eq!(events, 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_on_a_file_is_a_store_io_error() {
        // The sweep (and everything after it) propagates I/O failures as
        // `StoreError::Io` instead of panicking or half-opening.
        let path = scratch("notadir");
        std::fs::write(&path, b"i am a file").unwrap();
        match Corpus::open(&path) {
            Err(StoreError::Io(_)) => {}
            other => panic!("expected StoreError::Io, got {other:?}"),
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn add_query_remove_roundtrip() {
        let dir = scratch("roundtrip");
        let mut corpus = Corpus::open(&dir).unwrap();
        let meta = corpus.add_xml("doc-1", &b"<a><b>hi</b></a>"[..]).unwrap();
        assert_eq!(meta.events, 6);
        assert_eq!(meta.source_bytes, 16);
        assert!(corpus.get("doc-1").is_some());

        // The tape replays.
        let mut tape = corpus.open_tape("doc-1").unwrap();
        let mut n = 0;
        while tape.next_event().unwrap() != XmlEvent::Eof {
            n += 1;
        }
        assert_eq!(n, 6);

        // A fresh handle sees the same manifest.
        let reloaded = Corpus::open(&dir).unwrap();
        assert_eq!(reloaded.get("doc-1"), Some(&meta));

        corpus.remove("doc-1").unwrap();
        assert!(corpus.is_empty());
        assert!(!dir.join("doc-1.fet").exists());
        assert!(Corpus::open(&dir).unwrap().is_empty());
    }

    #[test]
    fn malformed_xml_leaves_no_residue() {
        let dir = scratch("badxml");
        let mut corpus = Corpus::open(&dir).unwrap();
        assert!(matches!(
            corpus.add_xml("bad", &b"<a><oops>"[..]),
            Err(StoreError::Xml(_))
        ));
        assert!(corpus.is_empty());
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains("bad"))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
    }

    #[test]
    fn hostile_doc_ids_are_rejected() {
        let dir = scratch("ids");
        let mut corpus = Corpus::open(&dir).unwrap();
        for id in ["", "../evil", "a/b", ".hidden", "sp ace", &"x".repeat(200)] {
            assert!(
                matches!(
                    corpus.add_xml(id, &b"<a/>"[..]),
                    Err(StoreError::BadDocId { .. })
                ),
                "id {id:?} accepted"
            );
        }
        assert!(valid_doc_id("xmark-1.0_B"));
    }

    #[test]
    fn upsert_replaces_the_tape() {
        let dir = scratch("upsert");
        let mut corpus = Corpus::open(&dir).unwrap();
        corpus.add_xml("d", &b"<a/>"[..]).unwrap();
        let second = corpus.add_xml("d", &b"<a><b/></a>"[..]).unwrap();
        assert_eq!(corpus.len(), 1);
        assert_eq!(corpus.get("d"), Some(&second));
        assert_eq!(second.events, 4);
    }

    #[test]
    fn new_ingests_are_current_and_survive_reload() {
        let dir = scratch("version");
        let mut corpus = Corpus::open(&dir).unwrap();
        let meta = corpus.add_xml("d", &b"<a><b>hi</b></a>"[..]).unwrap();
        assert_eq!(meta.version, VERSION);
        let reloaded = Corpus::open(&dir).unwrap();
        assert_eq!(reloaded.get("d").unwrap().version, VERSION);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn six_field_manifest_lines_parse_as_fet1() {
        let meta = parse_manifest_line("old\told.fet\t10\t20\t4\t00000000deadbeef").unwrap();
        assert_eq!(meta.version, 1);
        assert_eq!(meta.checksum, 0xdead_beef);
        // And the seven-field form round-trips the version.
        let meta = parse_manifest_line("new\tnew.fet\t2\t10\t20\t4\t00000000deadbeef").unwrap();
        assert_eq!(meta.version, 2);
        assert!(parse_manifest_line("x\tx.fet\tnine\t10\t20\t4\t0").is_err());
    }

    fn fixture(name: &str) -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../tests/fixtures")
            .join(name)
    }

    /// A corpus holding the two old-format fixtures (tapes an older foxq
    /// wrote, and its manifest lines), as that foxq left it.
    fn plant_fixtures(dir: &Path) -> Corpus {
        std::fs::create_dir_all(dir).unwrap();
        let mut manifest = String::new();
        for version in [1, 2] {
            let tape = std::fs::read(fixture(&format!("old-fet{version}.fet"))).unwrap();
            std::fs::write(dir.join(format!("v{version}.fet")), &tape).unwrap();
            let len = tape.len();
            manifest += &format!("v{version}\tv{version}.fet\t{version}\t198\t{len}\t32\t0\n");
        }
        std::fs::write(dir.join(MANIFEST), manifest).unwrap();
        Corpus::open(dir).unwrap()
    }

    #[test]
    fn both_fixtures_migrate_to_the_current_version_once() {
        let dir = scratch("migrate");
        let mut corpus = plant_fixtures(&dir);
        let xml = std::fs::read(fixture("old.xml")).unwrap();
        for id in ["v1", "v2"] {
            assert!(matches!(
                corpus.open_tape(id),
                Err(StoreError::NeedsMigration { .. })
            ));
        }
        assert_eq!(corpus.migrate_all().unwrap(), 2);
        for id in ["v1", "v2"] {
            let migrated = corpus.get(id).unwrap().clone();
            assert_eq!(migrated.version, VERSION);
            assert_eq!(migrated.source_bytes, 198);
            assert_eq!(migrated.events, 32);
            // The rewritten tape replays the same logical events as a parse.
            let mut tape = corpus.open_tape(id).unwrap();
            let mut parser = foxq_xml::XmlReader::new(&xml[..]);
            loop {
                let want = parser.next_event().unwrap();
                assert_eq!(tape.next_event().unwrap(), want);
                if want == XmlEvent::Eof {
                    break;
                }
            }
            // A second migration rewrites nothing.
            let bytes = std::fs::read(corpus.tape_path(id).unwrap()).unwrap();
            assert_eq!(corpus.migrate(id).unwrap(), migrated);
            assert_eq!(std::fs::read(corpus.tape_path(id).unwrap()).unwrap(), bytes);
        }
        assert_eq!(corpus.migrate_all().unwrap(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unknown_doc_errors() {
        let dir = scratch("unknown");
        let mut corpus = Corpus::open(&dir).unwrap();
        assert!(matches!(
            corpus.open_tape("nope"),
            Err(StoreError::UnknownDoc { .. })
        ));
        assert!(matches!(
            corpus.remove("nope"),
            Err(StoreError::UnknownDoc { .. })
        ));
    }
}
