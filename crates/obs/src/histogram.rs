//! Fixed-bucket latency histogram with atomic, lock-free recording.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Duration;

/// A fixed-bucket histogram of durations, recorded in microseconds.
///
/// Buckets are defined by a static ladder of upper bounds (in micros);
/// each observation increments exactly one bucket plus the running
/// count and sum, all with relaxed atomics — recording never takes a
/// lock and is safe from any thread. Rendering produces Prometheus
/// text-format `_bucket` lines with *cumulative* counts and
/// seconds-valued `le` labels, followed by `_sum` (seconds) and
/// `_count`, per the exposition-format spec.
pub struct Histogram {
    /// Strictly increasing upper bounds, in microseconds.
    bounds: &'static [u64],
    /// Per-bucket (non-cumulative) counts; `buckets[bounds.len()]` is
    /// the overflow (`+Inf`) bucket.
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum_micros: AtomicU64,
}

impl Histogram {
    /// Default ladder for request/stage latencies: 100µs .. 10s.
    pub const LATENCY_BOUNDS_MICROS: &'static [u64] = &[
        100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 500_000,
        1_000_000, 2_500_000, 5_000_000, 10_000_000,
    ];

    /// Finer ladder for reactor-internal timings (loop lag, epoll
    /// wait): 10µs .. 1s.
    pub const REACTOR_BOUNDS_MICROS: &'static [u64] = &[
        10, 25, 50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000,
        1_000_000,
    ];

    /// Ladder for node-count observations (live nodes, pending calls):
    /// powers of four, 1 .. 4M.
    pub const NODE_BOUNDS: &'static [u64] = &[
        1, 4, 16, 64, 256, 1_024, 4_096, 16_384, 65_536, 262_144, 1_048_576, 4_194_304,
    ];

    /// Ladder for byte-count observations (live bytes, allocator bytes
    /// per request): powers of four, 256 B .. 1 GiB.
    pub const BYTE_BOUNDS: &'static [u64] = &[
        256,
        1_024,
        4_096,
        16_384,
        65_536,
        262_144,
        1_048_576,
        4_194_304,
        16_777_216,
        67_108_864,
        268_435_456,
        1_073_741_824,
    ];

    /// Build a histogram over the given (strictly increasing) bounds.
    pub fn new(bounds: &'static [u64]) -> Histogram {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]));
        let buckets = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            bounds,
            buckets,
            count: AtomicU64::new(0),
            sum_micros: AtomicU64::new(0),
        }
    }

    /// A histogram on the default latency ladder.
    pub fn latency() -> Histogram {
        Histogram::new(Self::LATENCY_BOUNDS_MICROS)
    }

    /// A histogram on the fine-grained reactor ladder.
    pub fn reactor() -> Histogram {
        Histogram::new(Self::REACTOR_BOUNDS_MICROS)
    }

    /// Record one observation of a dimensionless value (node/byte
    /// ladders). Same storage as `observe_micros`; only rendering
    /// differs (`render_values_into` vs. `render_into`).
    pub fn observe_value(&self, value: u64) {
        self.observe_micros(value);
    }

    /// Record one observation of `micros` microseconds.
    pub fn observe_micros(&self, micros: u64) {
        let idx = self.bounds.partition_point(|&b| b < micros);
        self.buckets[idx].fetch_add(1, Relaxed);
        self.count.fetch_add(1, Relaxed);
        self.sum_micros.fetch_add(micros, Relaxed);
    }

    /// Record one observation of a [`Duration`].
    pub fn observe(&self, d: Duration) {
        self.observe_micros(crate::micros(d));
    }

    /// Total observations recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Relaxed)
    }

    /// Sum of all observations, in microseconds.
    pub fn sum_micros(&self) -> u64 {
        self.sum_micros.load(Relaxed)
    }

    /// Append `name_bucket`/`name_sum`/`name_count` sample lines to
    /// `out`. `labels` is either empty or a comma-separated list of
    /// `key="value"` pairs (no surrounding braces); the `le` label is
    /// appended after it. `# HELP`/`# TYPE` headers are the caller's
    /// job so labeled families render them exactly once.
    pub fn render_into(&self, out: &mut String, name: &str, labels: &str) {
        let sep = if labels.is_empty() { "" } else { "," };
        let mut cumulative = 0u64;
        for (i, &bound) in self.bounds.iter().enumerate() {
            cumulative += self.buckets[i].load(Relaxed);
            let _ = writeln!(
                out,
                "{name}_bucket{{{labels}{sep}le=\"{}\"}} {cumulative}",
                micros_as_seconds(bound)
            );
        }
        cumulative += self.buckets[self.bounds.len()].load(Relaxed);
        let _ = writeln!(
            out,
            "{name}_bucket{{{labels}{sep}le=\"+Inf\"}} {cumulative}"
        );
        let braces = if labels.is_empty() {
            String::new()
        } else {
            format!("{{{labels}}}")
        };
        let _ = writeln!(
            out,
            "{name}_sum{braces} {}",
            micros_as_seconds(self.sum_micros())
        );
        let _ = writeln!(out, "{name}_count{braces} {}", self.count());
    }

    /// Like [`Histogram::render_into`] but for dimensionless value
    /// ladders: `le` labels and `_sum` are raw integers, not seconds.
    pub fn render_values_into(&self, out: &mut String, name: &str, labels: &str) {
        let sep = if labels.is_empty() { "" } else { "," };
        let mut cumulative = 0u64;
        for (i, &bound) in self.bounds.iter().enumerate() {
            cumulative += self.buckets[i].load(Relaxed);
            let _ = writeln!(
                out,
                "{name}_bucket{{{labels}{sep}le=\"{bound}\"}} {cumulative}"
            );
        }
        cumulative += self.buckets[self.bounds.len()].load(Relaxed);
        let _ = writeln!(
            out,
            "{name}_bucket{{{labels}{sep}le=\"+Inf\"}} {cumulative}"
        );
        let braces = if labels.is_empty() {
            String::new()
        } else {
            format!("{{{labels}}}")
        };
        let _ = writeln!(out, "{name}_sum{braces} {}", self.sum_micros());
        let _ = writeln!(out, "{name}_count{braces} {}", self.count());
    }
}

/// Format a microsecond value as a decimal seconds string without
/// float round-off: `100` -> `"0.0001"`, `2_500_000` -> `"2.5"`.
pub(crate) fn micros_as_seconds(micros: u64) -> String {
    let secs = micros / 1_000_000;
    let frac = micros % 1_000_000;
    if frac == 0 {
        format!("{secs}")
    } else {
        let mut s = format!("{secs}.{frac:06}");
        while s.ends_with('0') {
            s.pop();
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seconds_formatting() {
        assert_eq!(micros_as_seconds(0), "0");
        assert_eq!(micros_as_seconds(100), "0.0001");
        assert_eq!(micros_as_seconds(1_000), "0.001");
        assert_eq!(micros_as_seconds(2_500_000), "2.5");
        assert_eq!(micros_as_seconds(10_000_000), "10");
    }

    #[test]
    fn buckets_are_cumulative_and_le_ordered() {
        let h = Histogram::latency();
        h.observe_micros(50); // first bucket (<= 100)
        h.observe_micros(100); // boundary lands in its own bucket
        h.observe_micros(3_000); // <= 5_000
        h.observe_micros(99_000_000); // overflow -> +Inf only
        assert_eq!(h.count(), 4);

        let mut out = String::new();
        h.render_into(&mut out, "t_seconds", "");
        let bucket_counts: Vec<u64> = out
            .lines()
            .filter(|l| l.starts_with("t_seconds_bucket"))
            .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
            .collect();
        assert_eq!(
            bucket_counts.len(),
            Histogram::LATENCY_BOUNDS_MICROS.len() + 1
        );
        // Cumulative: non-decreasing, +Inf equals total count.
        assert!(bucket_counts.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(*bucket_counts.last().unwrap(), 4);
        // The two sub-100µs observations are both in the first bucket.
        assert_eq!(bucket_counts[0], 2);
        // The overflow-only observation appears in no finite bucket.
        assert_eq!(bucket_counts[bucket_counts.len() - 2], 3);
        assert!(out.contains("t_seconds_bucket{le=\"+Inf\"} 4"));
        assert!(out.contains("t_seconds_count 4"));
    }

    #[test]
    fn value_ladders_render_integer_bounds() {
        let h = Histogram::new(Histogram::BYTE_BOUNDS);
        h.observe_value(300); // <= 1024
        h.observe_value(5_000_000_000); // overflow -> +Inf only
        let mut out = String::new();
        h.render_values_into(&mut out, "b_bytes", "");
        assert!(out.contains("b_bytes_bucket{le=\"256\"} 0"));
        assert!(out.contains("b_bytes_bucket{le=\"1024\"} 1"));
        assert!(out.contains("b_bytes_bucket{le=\"+Inf\"} 2"));
        assert!(out.contains("b_bytes_sum 5000000300"));
        assert!(out.contains("b_bytes_count 2"));
    }

    #[test]
    fn labels_compose_with_le() {
        let h = Histogram::reactor();
        h.observe(Duration::from_micros(42));
        let mut out = String::new();
        h.render_into(&mut out, "x_seconds", "endpoint=\"query\"");
        assert!(out.contains("x_seconds_bucket{endpoint=\"query\",le=\"0.00005\"} 1"));
        assert!(out.contains("x_seconds_sum{endpoint=\"query\"} 0.000042"));
        assert!(out.contains("x_seconds_count{endpoint=\"query\"} 1"));
    }
}
