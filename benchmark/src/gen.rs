//! `benchmark gen`: make a workload's inputs from the seed and fingerprint
//! the reference outputs with the DOM evaluator.

use crate::adapter::{self, Shape};
use crate::args::{parse_seed, Args};
use crate::hash::Fingerprint;
use crate::json::Json;
use crate::workdir::{write_file, WorkDir};
use crate::workloads;
use std::time::Instant;

/// An XMark document close to `target` bytes. The generator sizes its
/// output from a small sample and lands within ±5%, which shows one-to-one
/// in the per-op metrics (requests/s, latency) as a difference between
/// seeds; one correction step brings every seed to within about a percent.
fn sized_document(target: usize, seed: u64) -> (adapter::Doc, String) {
    let first = adapter::generate(Shape::Xmark, target, seed);
    let first_xml = first.to_xml();
    let corrected = (target as f64 * target as f64 / first_xml.len() as f64) as usize;
    let second = adapter::generate(Shape::Xmark, corrected, seed);
    let second_xml = second.to_xml();
    if second_xml.len().abs_diff(target) < first_xml.len().abs_diff(target) {
        (second, second_xml)
    } else {
        (first, first_xml)
    }
}

pub fn run(args: &Args) -> Result<(), String> {
    let w = workloads::find(args.required("workload")?)?;
    let seed = parse_seed(args.required("seed")?)?;
    let wd = WorkDir::new(args.required("dir")?, args.required("queries")?);
    std::fs::create_dir_all(&wd.dir).map_err(|e| format!("{}: {e}", wd.dir.display()))?;

    let start = Instant::now();
    let (doc, xml) = sized_document(w.doc_bytes, seed);
    write_file(&wd.doc_xml(), xml.as_bytes())?;
    let datagen_s = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let mut refs = Vec::new();
    for q in w.queries {
        let out = doc
            .reference_output(&wd.query_source(q)?)
            .map_err(|e| format!("reference for {q}: {e}"))?;
        refs.push((q.to_string(), Fingerprint::of(out.as_bytes())));
    }
    wd.write_refs(&refs)?;
    let reference_s = start.elapsed().as_secs_f64();

    wd.write_json(
        "gen.json",
        &Json::obj([
            ("workload", Json::str(w.name)),
            ("seed", Json::Num(seed as f64)),
            ("doc_bytes", Json::Num(xml.len() as f64)),
            ("datagen_s", Json::Num(datagen_s)),
            ("reference_s", Json::Num(reference_s)),
        ]),
    )?;
    println!(
        "gen {}: seed {seed}, doc.xml {} bytes in {datagen_s:.3} s, {} reference output(s) in \
         {reference_s:.3} s",
        w.name,
        xml.len(),
        refs.len()
    );
    Ok(())
}
