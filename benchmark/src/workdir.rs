//! The work directory `gen` leaves for `e2e` and `layers`: the document, the
//! reference fingerprints and what generating them cost. Files are the only
//! thing the three processes share.

use crate::hash::Fingerprint;
use crate::json::{self, Json};
use crate::workloads::{query_file, Workload};
use std::path::{Path, PathBuf};

pub struct WorkDir {
    pub dir: PathBuf,
    /// `benchmark/queries/`.
    pub queries: PathBuf,
}

impl WorkDir {
    pub fn new(dir: &str, queries: &str) -> WorkDir {
        WorkDir {
            dir: PathBuf::from(dir),
            queries: PathBuf::from(queries),
        }
    }

    pub fn doc_xml(&self) -> PathBuf {
        self.dir.join("doc.xml")
    }

    pub fn corpus(&self) -> PathBuf {
        self.dir.join("corpus")
    }

    pub fn query_path(&self, name: &str) -> PathBuf {
        self.queries.join(query_file(name))
    }

    pub fn query_source(&self, name: &str) -> Result<String, String> {
        read_text(&self.query_path(name))
    }

    pub fn write_refs(&self, refs: &[(String, Fingerprint)]) -> Result<(), String> {
        let text: String = refs
            .iter()
            .map(|(q, f)| format!("{q}\t{}\t{:016x}\n", f.len, f.hash))
            .collect();
        write_file(&self.dir.join("refs.tsv"), text.as_bytes())
    }

    /// Reference fingerprints of the workload's queries, in workload order.
    pub fn read_refs(&self, w: &Workload) -> Result<Vec<Fingerprint>, String> {
        let text = read_text(&self.dir.join("refs.tsv"))?;
        w.queries
            .iter()
            .map(|q| {
                text.lines()
                    .find_map(|line| parse_ref_line(line, q))
                    .ok_or_else(|| format!("refs.tsv has no usable row for {q}"))
            })
            .collect()
    }

    pub fn write_json(&self, file: &str, value: &Json) -> Result<(), String> {
        write_file(&self.dir.join(file), value.pretty().as_bytes())
    }

    pub fn read_json(&self, file: &str) -> Result<Json, String> {
        read_json(&self.dir.join(file))
    }
}

pub fn read_json(path: &Path) -> Result<Json, String> {
    json::parse(&read_text(path)?).map_err(|e| format!("{}: {e}", path.display()))
}

fn parse_ref_line(line: &str, query: &str) -> Option<Fingerprint> {
    let mut cols = line.split('\t');
    if cols.next()? != query {
        return None;
    }
    let len = cols.next()?.parse().ok()?;
    let hash = u64::from_str_radix(cols.next()?, 16).ok()?;
    Some(Fingerprint { len, hash })
}

pub fn read_text(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

pub fn write_file(path: &Path, bytes: &[u8]) -> Result<(), String> {
    std::fs::write(path, bytes).map_err(|e| format!("cannot write {}: {e}", path.display()))
}
