//! Per-request trace context and RAII span guards.

use std::cell::Cell;
use std::fmt::Write as _;
use std::time::Instant;

use crate::histogram::micros_as_seconds;
use crate::Stage;

/// A snapshot of per-stage wall time, in microseconds.
///
/// `Copy` so it can ride inside cached query metadata; renders as a
/// `Server-Timing` header value or a CLI stage table.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTimes {
    micros: [u64; Stage::COUNT],
}

impl StageTimes {
    /// Add `micros` to `stage`.
    pub fn add(&mut self, stage: Stage, micros: u64) {
        self.micros[stage.idx()] += micros;
    }

    /// Accumulated micros for one stage.
    pub fn get(&self, stage: Stage) -> u64 {
        self.micros[stage.idx()]
    }

    /// Stages with nonzero time, in pipeline order.
    pub fn iter(&self) -> impl Iterator<Item = (Stage, u64)> + '_ {
        Stage::ALL
            .iter()
            .map(|&s| (s, self.get(s)))
            .filter(|&(_, m)| m > 0)
    }

    /// Sum across all stages, in microseconds.
    pub fn total_micros(&self) -> u64 {
        self.micros.iter().sum()
    }

    /// Fold another snapshot into this one.
    pub fn merge(&mut self, other: &StageTimes) {
        for (slot, add) in self.micros.iter_mut().zip(other.micros.iter()) {
            *slot += add;
        }
    }

    /// Render as a `Server-Timing` header value: one `name;dur=millis`
    /// entry per nonzero stage, in pipeline order. Empty string when
    /// nothing was recorded.
    pub fn server_timing_value(&self) -> String {
        let mut out = String::new();
        for (stage, micros) in self.iter() {
            if !out.is_empty() {
                out.push_str(", ");
            }
            let _ = write!(out, "{};dur={}", stage.name(), micros_as_millis(micros));
        }
        out
    }
}

/// Format micros as decimal milliseconds: `1_234` -> `"1.234"`.
fn micros_as_millis(micros: u64) -> String {
    // Milliseconds are micros scaled by 10^3; reuse the seconds
    // formatter on the value scaled up by the same factor.
    micros_as_seconds(micros.saturating_mul(1_000))
}

/// Per-request trace state: a request id plus a per-stage time
/// accumulator fed by [`Span`] guards.
///
/// Uses `Cell` internally, so a context lives on one thread (each
/// request is served start-to-finish by a single worker); it is
/// deliberately not `Sync`.
pub struct TraceContext {
    id: u64,
    start: Instant,
    stages: [Cell<u64>; Stage::COUNT],
}

impl TraceContext {
    /// New context with the given request id, clock started now.
    pub fn new(id: u64) -> TraceContext {
        TraceContext {
            id,
            start: Instant::now(),
            stages: Default::default(),
        }
    }

    /// The request id this context was created with.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Start a timed span for `stage`; time accrues when the returned
    /// guard drops.
    pub fn enter(&self, stage: Stage) -> Span<'_> {
        Span {
            ctx: self,
            stage,
            start: Instant::now(),
        }
    }

    /// Credit `micros` to `stage` directly (for durations measured
    /// elsewhere, e.g. compile times cached with the query).
    pub fn add_micros(&self, stage: Stage, micros: u64) {
        let cell = &self.stages[stage.idx()];
        cell.set(cell.get() + micros);
    }

    /// Wall time since the context was created, in microseconds.
    pub fn total_micros(&self) -> u64 {
        crate::micros_since(self.start)
    }

    /// Snapshot the per-stage accumulator.
    pub fn times(&self) -> StageTimes {
        let mut out = StageTimes::default();
        for &stage in &Stage::ALL {
            out.add(stage, self.stages[stage.idx()].get());
        }
        out
    }
}

/// RAII guard: credits elapsed wall time to its stage on drop.
pub struct Span<'a> {
    ctx: &'a TraceContext,
    stage: Stage,
    start: Instant,
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        self.ctx
            .add_micros(self.stage, crate::micros_since(self.start));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn spans_accumulate_into_stages() {
        let ctx = TraceContext::new(7);
        assert_eq!(ctx.id(), 7);
        {
            let _s = ctx.enter(Stage::Parse);
            std::thread::sleep(Duration::from_millis(2));
        }
        ctx.add_micros(Stage::Execute, 1_500);
        ctx.add_micros(Stage::Execute, 500);
        let times = ctx.times();
        assert!(
            times.get(Stage::Parse) >= 2_000,
            "parse={}",
            times.get(Stage::Parse)
        );
        assert_eq!(times.get(Stage::Execute), 2_000);
        assert_eq!(times.get(Stage::Optimize), 0);
        assert_eq!(times.total_micros(), times.get(Stage::Parse) + 2_000);
        assert!(ctx.total_micros() >= times.get(Stage::Parse));
    }

    #[test]
    fn server_timing_format() {
        let mut times = StageTimes::default();
        times.add(Stage::Parse, 1_234);
        times.add(Stage::Execute, 50);
        times.add(Stage::Serialize, 2_000_000);
        assert_eq!(
            times.server_timing_value(),
            "parse;dur=1.234, execute;dur=0.05, serialize;dur=2000"
        );
        assert_eq!(StageTimes::default().server_timing_value(), "");
    }

    #[test]
    fn merge_adds_per_stage() {
        let mut a = StageTimes::default();
        a.add(Stage::Parse, 10);
        let mut b = StageTimes::default();
        b.add(Stage::Parse, 5);
        b.add(Stage::Translate, 7);
        a.merge(&b);
        assert_eq!(a.get(Stage::Parse), 15);
        assert_eq!(a.get(Stage::Translate), 7);
        assert_eq!(a.total_micros(), 22);
    }
}
