//! `benchmark compare <a.json> <b.json>`: hold run `b` against baseline `a`
//! with each end-to-end metric's direction and bound from `BENCHMARK.json`.
//!
//! One row per (workload, metric):
//! * `unresolved` — the spread either file recorded for the metric is wider
//!   than its bound, so the two medians cannot be told apart at that bound;
//! * `worse` — `b` is worse than `a` by more than the bound;
//! * `ok` — otherwise.
//!
//! `fail_ratio` has no bound: any increase is `worse`. Exact counts of the
//! per-layer pass are listed as `same` / `differs` (information only — they
//! change legitimately between commits, never between two runs of one).

use crate::json::Json;
use crate::workdir::read_json;
use std::path::Path;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
    Same,
    Differs,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
            Verdict::Same => "same",
            Verdict::Differs => "differs",
        }
    }
}

#[derive(Debug)]
pub struct CompareRow {
    pub workload: String,
    pub metric: String,
    pub a: f64,
    pub b: f64,
    /// Share of `a` by which `b` is worse (negative: better).
    pub worse_by: f64,
    pub spread: f64,
    pub bound: f64,
    pub verdict: Verdict,
}

/// Per-layer metrics that are counts of the program's own work on a fixed
/// input, and so repeat bit for bit.
pub fn is_exact_count(name: &str) -> bool {
    name.ends_with("_share")
        || name.contains("_peak_")
        || name.contains("_expansions_")
        || name == "store.tape_bytes_per_xml_byte"
}

fn metric_field(row: &Json, metric: &str, field: &str) -> Option<f64> {
    row.get("metrics")?.get(metric)?.get(field)?.as_f64()
}

pub fn compare(spec: &Json, a: &Json, b: &Json) -> Result<Vec<CompareRow>, String> {
    let end_to_end = spec
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("spec has no end_to_end list")?;
    let workloads_a = a
        .get("workloads")
        .and_then(Json::as_obj)
        .ok_or("first file has no workloads")?;
    let mut rows = Vec::new();
    for (workload, in_a) in workloads_a {
        let Some(in_b) = b.get("workloads").and_then(|w| w.get(workload)) else {
            continue;
        };
        let (Some(e2e_a), Some(e2e_b)) = (in_a.get("end_to_end"), in_b.get("end_to_end")) else {
            continue;
        };
        for m in end_to_end {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without a name")?;
            let bound = m
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or("metric without a bound")?;
            let lower_is_better = match m.get("better").and_then(Json::as_str) {
                Some("lower") => true,
                Some("higher") => false,
                _ => return Err(format!("{name}: better must be lower or higher")),
            };
            let (Some(va), Some(vb)) = (
                metric_field(e2e_a, name, "value"),
                metric_field(e2e_b, name, "value"),
            ) else {
                continue;
            };
            let worse_by = if lower_is_better {
                (vb - va) / va
            } else {
                (va - vb) / va
            };
            let spread = metric_field(e2e_a, name, "spread")
                .unwrap_or(0.0)
                .max(metric_field(e2e_b, name, "spread").unwrap_or(0.0));
            let verdict = if spread > bound {
                Verdict::Unresolved
            } else if worse_by > bound {
                Verdict::Worse
            } else {
                Verdict::Ok
            };
            rows.push(CompareRow {
                workload: workload.clone(),
                metric: name.to_string(),
                a: va,
                b: vb,
                worse_by,
                spread,
                bound,
                verdict,
            });
        }
        let fail = |row: &Json| row.get("fail_ratio").and_then(Json::as_f64).unwrap_or(0.0);
        let (fa, fb) = (fail(e2e_a), fail(e2e_b));
        rows.push(CompareRow {
            workload: workload.clone(),
            metric: "fail_ratio".to_string(),
            a: fa,
            b: fb,
            worse_by: fb - fa,
            spread: 0.0,
            bound: 0.0,
            verdict: if fb > fa { Verdict::Worse } else { Verdict::Ok },
        });
        let (Some(layers_a), Some(layers_b)) = (in_a.get("per_layer"), in_b.get("per_layer"))
        else {
            continue;
        };
        let names = layers_a
            .get("metrics")
            .and_then(Json::as_obj)
            .unwrap_or(&[]);
        for (name, _) in names.iter().filter(|(n, _)| is_exact_count(n)) {
            let (Some(va), Some(vb)) = (
                metric_field(layers_a, name, "value"),
                metric_field(layers_b, name, "value"),
            ) else {
                continue;
            };
            rows.push(CompareRow {
                workload: workload.clone(),
                metric: name.clone(),
                a: va,
                b: vb,
                worse_by: 0.0,
                spread: 0.0,
                bound: 0.0,
                verdict: if va.to_bits() == vb.to_bits() {
                    Verdict::Same
                } else {
                    Verdict::Differs
                },
            });
        }
    }
    Ok(rows)
}

/// Print the table; `Ok(true)` when no row is `worse`.
pub fn run(args: &[String]) -> Result<bool, String> {
    let (files, spec_path) = match args {
        [a, b] => ([a, b], "BENCHMARK.json".to_string()),
        [a, b, flag, spec] if flag == "--spec" => ([a, b], spec.clone()),
        _ => {
            return Err("usage: benchmark compare <a.json> <b.json> [--spec BENCHMARK.json]".into())
        }
    };
    let load = |path: &str| read_json(Path::new(path));
    let rows = compare(&load(&spec_path)?, &load(files[0])?, &load(files[1])?)?;
    println!(
        "{:<14} {:<42} {:>14} {:>14} {:>9} {:>8} {:>7}  verdict",
        "workload", "metric", "a", "b", "worse by", "spread", "bound"
    );
    for r in &rows {
        println!(
            "{:<14} {:<42} {:>14.4} {:>14.4} {:>8.1}% {:>7.1}% {:>6.1}%  {}",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.worse_by * 100.0,
            r.spread * 100.0,
            r.bound * 100.0,
            r.verdict.label()
        );
    }
    let count = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    println!(
        "{} ok, {} worse, {} unresolved; exact counts: {} same, {} differ",
        count(Verdict::Ok),
        count(Verdict::Worse),
        count(Verdict::Unresolved),
        count(Verdict::Same),
        count(Verdict::Differs)
    );
    Ok(count(Verdict::Worse) == 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn spec() -> Json {
        json::parse(
            r#"{"end_to_end": [
                {"name": "throughput_mb_s", "unit": "MB/s", "better": "higher", "bound": 0.1},
                {"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1},
                {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]}"#,
        )
        .unwrap()
    }

    fn bench(throughput: f64, latency: (f64, f64), fail_ratio: f64, peak: f64) -> Json {
        json::parse(&format!(
            r#"{{"workloads": {{"cli-select": {{
                "end_to_end": {{"fail_ratio": {fail_ratio}, "metrics": {{
                    "throughput_mb_s": {{"value": {throughput}, "spread": 0.02}},
                    "latency_p50_ms": {{"value": {}, "spread": {}}},
                    "setup_s": {{"value": 0.5, "spread": 0.01}}}}}},
                "per_layer": {{"metrics": {{
                    "core.select_peak_live_bytes": {{"value": {peak}}},
                    "xml.tokenize_mb_s": {{"value": 70.0}}}}}}}}}}}}"#,
            latency.0, latency.1
        ))
        .unwrap()
    }

    fn verdict_of(rows: &[CompareRow], metric: &str) -> Verdict {
        rows.iter().find(|r| r.metric == metric).unwrap().verdict
    }

    #[test]
    fn a_regressed_pair_is_worse_and_a_noisy_one_unresolved() {
        let a = bench(40.0, (100.0, 0.03), 0.0, 1638.0);
        // Throughput down 20% (bound 10%): worse. Latency up 5%: ok.
        let b = bench(32.0, (105.0, 0.03), 0.0, 1638.0);
        let rows = compare(&spec(), &a, &b).unwrap();
        assert_eq!(verdict_of(&rows, "throughput_mb_s"), Verdict::Worse);
        assert_eq!(verdict_of(&rows, "latency_p50_ms"), Verdict::Ok);
        assert_eq!(verdict_of(&rows, "setup_s"), Verdict::Ok);
        assert_eq!(verdict_of(&rows, "fail_ratio"), Verdict::Ok);
        assert_eq!(
            verdict_of(&rows, "core.select_peak_live_bytes"),
            Verdict::Same
        );
        // Only exact counts of the per-layer pass are listed.
        assert!(rows.iter().all(|r| r.metric != "xml.tokenize_mb_s"));
        let worse = rows.iter().find(|r| r.metric == "throughput_mb_s").unwrap();
        assert!((worse.worse_by - 0.2).abs() < 1e-12);

        // An improvement is ok in either direction.
        let better = bench(50.0, (80.0, 0.03), 0.0, 1638.0);
        let rows = compare(&spec(), &a, &better).unwrap();
        assert_eq!(verdict_of(&rows, "throughput_mb_s"), Verdict::Ok);
        assert_eq!(verdict_of(&rows, "latency_p50_ms"), Verdict::Ok);

        // Spread wider than the bound: unresolved, whatever the medians say.
        let noisy = bench(40.0, (150.0, 0.3), 0.0, 1700.0);
        let rows = compare(&spec(), &a, &noisy).unwrap();
        assert_eq!(verdict_of(&rows, "latency_p50_ms"), Verdict::Unresolved);
        assert_eq!(
            verdict_of(&rows, "core.select_peak_live_bytes"),
            Verdict::Differs
        );

        // Any increase of the failure ratio is worse.
        let failing = bench(40.0, (100.0, 0.03), 0.01, 1638.0);
        let rows = compare(&spec(), &a, &failing).unwrap();
        assert_eq!(verdict_of(&rows, "fail_ratio"), Verdict::Worse);
    }

    #[test]
    fn exact_count_names() {
        for name in [
            "service.prefiltered_event_share",
            "store.index_skipped_byte_share",
            "core.double_peak_live_bytes",
            "core.noopt_over_opt_peak_nodes",
            "gcx.q1_peak_nodes",
            "core.engine_select_expansions_per_event",
            "store.tape_bytes_per_xml_byte",
        ] {
            assert!(is_exact_count(name), "{name}");
        }
        assert!(!is_exact_count("xml.tokenize_mb_s"));
        assert!(!is_exact_count("core.engine_select_allocs_per_event"));
    }
}
