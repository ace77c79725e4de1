//! Metric names, units and the result row every measuring process writes.

use crate::json::Json;
use crate::stats::quiet_low;

/// End-to-end metrics, in report order. `BENCHMARK.json` carries the same
/// list with directions and bounds (a unit test holds the two together).
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("throughput_mb_s", "MB/s"),
    ("cpu_ms_per_mb", "ms/MB"),
    ("peak_rss_mb", "MB"),
    ("requests_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("ttfb_p50_ms", "ms"),
];

/// Per-layer metrics, in report order.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("xml.tokenize_mb_s", "MB/s"),
    ("xml.tokenize_ns_per_event", "ns"),
    ("xml.tokenize_allocs_per_event", "count"),
    ("xml.tokenize_treebank_mb_s", "MB/s"),
    ("xml.serialize_mb_s", "MB/s"),
    ("xquery.parse_us", "us"),
    ("core.translate_us", "us"),
    ("core.optimize_us", "us"),
    ("core.compile_us", "us"),
    ("core.engine_select_ns_per_event", "ns"),
    ("core.engine_select_allocs_per_event", "count"),
    ("core.engine_select_expansions_per_event", "count"),
    ("core.engine_copy_ns_per_event", "ns"),
    ("core.engine_copy_allocs_per_event", "count"),
    ("core.double_peak_live_bytes", "B"),
    ("core.select_peak_live_bytes", "B"),
    ("core.select_peak_growth_4x", "ratio"),
    ("core.noopt_over_opt_time", "ratio"),
    ("core.noopt_over_opt_peak_nodes", "ratio"),
    ("core.emit_over_writer", "ratio"),
    ("service.prefilter_ns_per_event", "ns"),
    ("service.prefiltered_event_share", "ratio"),
    ("service.multi6_over_solo_sum", "ratio"),
    ("service.cache_hit_ns", "ns"),
    ("store.ingest_mb_s", "MB/s"),
    ("store.tape_bytes_per_xml_byte", "ratio"),
    ("store.open_us", "us"),
    ("store.scan_ns_per_event", "ns"),
    ("store.index_replay_ms", "ms"),
    ("store.index_skipped_byte_share", "ratio"),
    ("store.replay_over_reparse", "ratio"),
    ("server.healthz_roundtrip_us", "us"),
    ("server.overhead_us", "us"),
    ("server.latency_p99_ms", "ms"),
    ("server.chunks_per_response", "count"),
    ("gcx.q1_over_mft_time", "ratio"),
    ("gcx.q1_peak_nodes", "count"),
    ("gcx.double_peak_nodes", "count"),
    ("harness.datagen_s", "s"),
    ("harness.build_s", "s"),
    ("harness.spawn_ms", "ms"),
    ("harness.span_overhead_ns", "ns"),
    ("harness.closure_ratio", "ratio"),
];

/// One measured metric of one workload.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Width of the fast quarter of the samples behind `value`, as a share
    /// of `value`; 0 for a single sample or an exact count.
    pub spread: f64,
    pub samples: usize,
}

/// The declared `(name, unit)` of a metric; reporting an undeclared name is
/// a bug in the harness.
fn declared(name: &str) -> (&'static str, &'static str) {
    *END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("metric {name} is not declared in metrics.rs"))
}

impl Metric {
    /// For a quantity where lower is better (a time, a cost): the first
    /// quartile of the samples — the boundary of the fastest quarter.
    ///
    /// On a shared machine interference is one-sided: a neighbour, a
    /// migration or a slow wake-up makes a round slower, never faster, and
    /// it comes in bursts of seconds. The undisturbed rounds form a sharp
    /// plateau at the fast end; its edge repeats within a percent from run
    /// to run while the median wanders by ten. `spread` is the width of the
    /// fast quarter as a share of the value: how sharp that edge is.
    pub fn quiet_low(name: &str, samples: &[f64]) -> Metric {
        let (name, unit) = declared(name);
        let value = quiet_low(samples);
        let best = samples.iter().copied().fold(f64::INFINITY, f64::min);
        Metric {
            name,
            unit,
            value,
            spread: if value == 0.0 {
                0.0
            } else {
                ((value - best) / value).abs()
            },
            samples: samples.len(),
        }
    }

    /// The same for a quantity where higher is better (a rate): the third
    /// quartile.
    pub fn quiet_high(name: &str, samples: &[f64]) -> Metric {
        let negated: Vec<f64> = samples.iter().map(|v| -v).collect();
        let mut m = Metric::quiet_low(name, &negated);
        m.value = -m.value;
        m
    }

    /// A value that is not taken over repeated samples: an exact count, a
    /// maximum, a ratio of two such values.
    pub fn single(name: &str, value: f64) -> Metric {
        let (name, unit) = declared(name);
        Metric {
            name,
            unit,
            value,
            spread: 0.0,
            samples: 1,
        }
    }
}

/// Ops attempted and ops that failed: non-zero exit, non-200, truncated
/// chunking, or an output whose fingerprint is not the DOM reference's.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn note(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// What one `e2e` or `layers` process found on one workload.
#[derive(Debug)]
pub struct Row {
    pub workload: &'static str,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Free-form counts for the human-readable report and `BENCH.json`
    /// (rounds, timed ops, warm-up ops, …).
    pub counts: Vec<(&'static str, f64)>,
    /// Per-round raw values, kept so a reader can see the plateau and the
    /// bursts behind each quiet quartile.
    pub series: Vec<(&'static str, Vec<f64>)>,
}

impl Row {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    pub fn fail_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The full row, as stored in the work directory and in `BENCH.json`.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("workload", Json::str(self.workload)),
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("fail_ratio", Json::Num(self.fail_ratio())),
            (
                "counts",
                Json::obj(self.counts.iter().map(|(k, v)| (*k, Json::Num(*v)))),
            ),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|m| {
                    (
                        m.name,
                        Json::obj([
                            ("value", Json::Num(m.value)),
                            ("unit", Json::str(m.unit)),
                            ("spread", Json::Num(m.spread)),
                            ("samples", Json::Num(m.samples as f64)),
                        ]),
                    )
                })),
            ),
            (
                "series",
                Json::obj(
                    self.series
                        .iter()
                        .map(|(k, v)| (*k, Json::Arr(v.iter().map(|x| Json::Num(*x)).collect()))),
                ),
            ),
        ])
    }

    /// The one-line result the benchmark contract asks for: exactly
    /// `correct`, `attempted`, `failed`, `metrics{name: {value, unit}}`.
    pub fn contract_line(&self) -> String {
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|m| {
                    (
                        m.name,
                        Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]),
                    )
                })),
            ),
        ])
        .compact()
    }

    /// Every metric by name with its unit, one per line.
    pub fn print(&self, title: &str) {
        println!("== {title} {} ==", self.workload);
        for (k, v) in &self.counts {
            println!("  {k:<42} {v}");
        }
        for m in &self.metrics {
            let basis = if m.samples > 1 {
                format!(
                    "  (quiet quartile of {}, spread {:.1}%)",
                    m.samples,
                    m.spread * 100.0
                )
            } else {
                String::new()
            };
            println!("  {:<42} {:>14.4} {}{basis}", m.name, m.value, m.unit);
        }
        println!(
            "  {:<42} {:>14.4} ratio  ({} failed of {} attempted)",
            "fail_ratio",
            self.fail_ratio(),
            self.failed,
            self.attempted
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    /// `BENCHMARK.json` at the repository root declares the same metrics,
    /// with the same units, as the code reports.
    #[test]
    fn spec_and_code_declare_the_same_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        for (key, declared) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed: Vec<(String, String)> = spec
                .get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect();
            let declared: Vec<(String, String)> = declared
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed, declared, "{key}");
        }
        let workloads: Vec<&str> = spec
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        let declared: Vec<&str> = crate::workloads::WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(workloads, declared);
    }

    #[test]
    fn contract_line_has_exactly_the_contract_keys() {
        let row = Row {
            workload: "cli-select",
            attempted: 105,
            failed: 0,
            metrics: vec![Metric::quiet_low("setup_s", &[0.5, 0.7, 0.6, 0.9])],
            counts: vec![("rounds", 20.0)],
            series: Vec::new(),
        };
        let line = json::parse(&row.contract_line()).unwrap();
        let keys: Vec<&str> = line
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = line.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(m.get("value").unwrap().as_f64(), Some(0.5));
        assert_eq!(m.as_obj().unwrap().len(), 2);
        assert!(row.contract_line().contains("\"attempted\":105,"));
    }
}
