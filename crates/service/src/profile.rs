//! Per-query profile registry: the planner's calibration store.
//!
//! [`ProfileRegistry`] accumulates one [`QueryProfile`] per prepared
//! query (keyed by [`crate::prepared::source_key`], the same hash the
//! [`crate::QueryCache`] uses), folding every profiled run into EWMA +
//! max aggregates of events, buffer peaks, allocator bytes, and
//! execute time. The streamability planner (ROADMAP item 4) will read
//! these to calibrate its memory/cost predictions; today the registry
//! powers `GET /debug/profile` and the profile records in the trace
//! log.

use crate::facts::{Fact, Tracked, FACTS};
use crate::multi::RunReport;
use foxq_core::profile::{sparkline, StreamProfile, TimelinePoint};
use foxq_forest::FxHashMap;
use std::fmt::Write as _;
use std::sync::Mutex;

/// EWMA smoothing factor: each new run contributes 20%.
pub const PROFILE_EWMA_ALPHA: f64 = 0.2;

/// Hot-state rows kept per query (merged by state name across runs).
const MAX_HOT_STATES: usize = 16;

/// One tracked quantity: exponentially weighted moving average plus
/// all-time maximum.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Aggregate {
    /// EWMA over profiled runs (α = [`PROFILE_EWMA_ALPHA`]).
    pub ewma: f64,
    /// Maximum over profiled runs.
    pub max: u64,
}

impl Aggregate {
    fn record(&mut self, value: u64, first_run: bool) {
        if first_run {
            self.ewma = value as f64;
        } else {
            self.ewma += PROFILE_EWMA_ALPHA * (value as f64 - self.ewma);
        }
        self.max = self.max.max(value);
    }
}

/// A hot-state row aggregated across runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HotState {
    /// MFT state name.
    pub state: String,
    /// Total expansions attributed across profiled runs.
    pub expansions: u64,
    /// Total output events attributed across profiled runs.
    pub output_events: u64,
}

/// Everything the registry knows about one query.
#[derive(Debug, Clone, Default)]
pub struct QueryProfile {
    /// First line of the query source, truncated for display.
    pub source_preview: String,
    /// Profiled runs folded in.
    pub runs: u64,
    /// Per-run aggregates, indexed like [`FACTS`]; the entries of facts the
    /// registry does not track stay zero.
    pub aggregates: [Aggregate; FACTS.len()],
    /// Hot-state table, merged by name, most expansions first.
    pub hot_states: Vec<HotState>,
    /// The most recent run's buffer timeline.
    pub timeline: Vec<TimelinePoint>,
    /// Input events per timeline point (of the most recent run).
    pub events_per_point: u64,
    /// LRU tick (bigger = more recently used).
    last_used: u64,
}

impl QueryProfile {
    fn fold(&mut self, report: &RunReport, profile: Option<&StreamProfile>) {
        let first = self.runs == 0;
        self.runs += 1;
        for (i, fact) in tracked() {
            let value = (fact.value)(report).unwrap_or(0);
            self.aggregates[i].record(value, first);
        }
        if let Some(profile) = profile {
            for state in &profile.states {
                match self.hot_states.iter_mut().find(|h| h.state == state.state) {
                    Some(h) => {
                        h.expansions += state.expansions;
                        h.output_events += state.output_events;
                    }
                    None => self.hot_states.push(HotState {
                        state: state.state.clone(),
                        expansions: state.expansions,
                        output_events: state.output_events,
                    }),
                }
            }
            self.hot_states.sort_by(|a, b| {
                b.expansions
                    .cmp(&a.expansions)
                    .then_with(|| a.state.cmp(&b.state))
            });
            self.hot_states.truncate(MAX_HOT_STATES);
            self.timeline = profile.timeline.clone();
            self.events_per_point = profile.events_per_point;
        }
    }
}

/// Bounded, thread-safe map of per-query profiles. Eviction is
/// least-recently-recorded.
pub struct ProfileRegistry {
    capacity: usize,
    inner: Mutex<Inner>,
}

#[derive(Default)]
struct Inner {
    tick: u64,
    map: FxHashMap<u64, QueryProfile>,
}

impl ProfileRegistry {
    /// A registry keeping at most `capacity` query profiles.
    pub fn new(capacity: usize) -> ProfileRegistry {
        ProfileRegistry {
            capacity: capacity.max(1),
            inner: Mutex::new(Inner::default()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Fold one profiled run into the query's aggregates. `key` is
    /// [`crate::prepared::source_key`] of the query source; `source` is
    /// the source text (used for the display preview on first sight).
    pub fn record(
        &self,
        key: u64,
        source: &str,
        report: &RunReport,
        profile: Option<&StreamProfile>,
    ) {
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        if !inner.map.contains_key(&key) && inner.map.len() >= self.capacity {
            if let Some((&evict, _)) = inner.map.iter().min_by_key(|(_, p)| p.last_used) {
                inner.map.remove(&evict);
            }
        }
        let entry = inner.map.entry(key).or_insert_with(|| QueryProfile {
            source_preview: preview(source),
            ..QueryProfile::default()
        });
        entry.last_used = tick;
        entry.fold(report, profile);
    }

    /// Number of queries currently profiled.
    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// Whether no runs have been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot the profile for one query, if present.
    pub fn get(&self, key: u64) -> Option<QueryProfile> {
        self.lock().map.get(&key).cloned()
    }

    /// Snapshot every `(key, profile)`, most recently used first.
    pub fn snapshot(&self) -> Vec<(u64, QueryProfile)> {
        let inner = self.lock();
        let mut all: Vec<(u64, QueryProfile)> =
            inner.map.iter().map(|(&k, p)| (k, p.clone())).collect();
        all.sort_by_key(|(_, p)| std::cmp::Reverse(p.last_used));
        all
    }

    /// Render the registry as the `/debug/profile` text body.
    pub fn render(&self) -> String {
        let all = self.snapshot();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "# query profiles: {} (most recently used first, ewma alpha={PROFILE_EWMA_ALPHA})",
            all.len()
        );
        for (key, p) in &all {
            let _ = writeln!(
                out,
                "\nquery {key:016x} runs={} source={:?}",
                p.runs, p.source_preview
            );
            for (i, fact) in tracked() {
                let agg = &p.aggregates[i];
                let _ = writeln!(
                    out,
                    "  {:<20} ewma={:<14.1} max={}",
                    fact.key, agg.ewma, agg.max
                );
            }
            if !p.hot_states.is_empty() {
                let _ = writeln!(out, "  hot states (expansions / output events):");
                for h in &p.hot_states {
                    let _ = writeln!(
                        out,
                        "    {:<24} {:>12} {:>12}",
                        h.state, h.expansions, h.output_events
                    );
                }
            }
            if !p.timeline.is_empty() {
                let _ = writeln!(
                    out,
                    "  buffer timeline, last run ({} events/point):",
                    p.events_per_point
                );
                let _ = writeln!(
                    out,
                    "    bytes   {}",
                    sparkline(p.timeline.iter().map(|t| t.hi_live_bytes))
                );
                let _ = writeln!(
                    out,
                    "    pending {}",
                    sparkline(p.timeline.iter().map(|t| t.hi_pending_calls))
                );
            }
        }
        out
    }
}

/// The tracked facts with their [`FACTS`] index.
fn tracked() -> impl Iterator<Item = (usize, &'static Fact)> {
    FACTS
        .iter()
        .enumerate()
        .filter(|(_, fact)| fact.tracked != Tracked::No)
}

/// One profiled run as a trace-log JSON line (it rides in the same JSONL
/// stream as the request traces, told apart by its `"profile"` key): the
/// tracked facts, then the run's hottest states.
pub fn profile_record(key: u64, report: &RunReport, profile: &StreamProfile) -> String {
    let mut out = format!("{{\"profile\":{{\"query\":\"{key:016x}\"");
    for (_, fact) in tracked() {
        let name = match fact.tracked {
            Tracked::As(name) => name,
            _ => fact.key,
        };
        let _ = write!(out, ",\"{name}\":{}", (fact.value)(report).unwrap_or(0));
    }
    out.push_str(",\"hot_states\":[");
    for (i, s) in profile.states.iter().take(8).enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"state\":{:?},\"expansions\":{},\"output_events\":{}}}",
            s.state, s.expansions, s.output_events
        );
    }
    out.push_str("]}}");
    out
}

/// First line of the source, truncated to a display-safe preview.
fn preview(source: &str) -> String {
    let line = source.trim().lines().next().unwrap_or("");
    let mut p: String = line.chars().take(80).collect();
    if p.len() < line.len() {
        p.push('…');
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use foxq_core::stream::StreamStats;

    fn sample(v: u64) -> RunReport {
        let stats = StreamStats {
            output_events: v,
            peak_live_nodes: v as usize,
            peak_live_bytes: v as usize * 100,
            peak_pending_calls: v as usize / 2,
            ..StreamStats::default()
        };
        RunReport {
            stats,
            input_events: v,
            alloc_bytes: Some(v * 1_000),
            execute_micros: Some(v * 10),
            ..RunReport::default()
        }
    }

    #[test]
    fn ewma_and_max_fold_across_runs() {
        let reg = ProfileRegistry::new(8);
        reg.record(1, "<o>{$input/a}</o>", &sample(100), None);
        reg.record(1, "<o>{$input/a}</o>", &sample(200), None);
        let p = reg.get(1).unwrap();
        assert_eq!(p.runs, 2);
        // First run seeds the EWMA; second moves it by alpha.
        let aggregate = |key| {
            let i = FACTS.iter().position(|fact| fact.key == key).unwrap();
            p.aggregates[i]
        };
        assert_eq!(aggregate("input_events").ewma, 100.0 + 0.2 * 100.0);
        assert_eq!(aggregate("input_events").max, 200);
        assert_eq!(aggregate("peak_live_bytes").max, 20_000);
        assert_eq!(aggregate("prefiltered_events"), Aggregate::default());
        assert!(reg.render().contains("runs=2"));
    }

    #[test]
    fn capacity_evicts_least_recently_recorded() {
        let reg = ProfileRegistry::new(2);
        reg.record(1, "q1", &sample(1), None);
        reg.record(2, "q2", &sample(2), None);
        reg.record(1, "q1", &sample(1), None); // refresh q1
        reg.record(3, "q3", &sample(3), None); // evicts q2
        assert_eq!(reg.len(), 2);
        assert!(reg.get(1).is_some());
        assert!(reg.get(2).is_none());
        assert!(reg.get(3).is_some());
    }

    #[test]
    fn hot_states_merge_by_name() {
        use foxq_core::profile::{StateProfile, StreamProfile};
        let reg = ProfileRegistry::new(4);
        let profile = StreamProfile {
            states: vec![
                StateProfile {
                    state: "q0".into(),
                    expansions: 5,
                    output_events: 2,
                    net_nodes: 0,
                    net_bytes: 0,
                    net_pending: 0,
                },
                StateProfile {
                    state: "q1".into(),
                    expansions: 3,
                    output_events: 0,
                    net_nodes: 0,
                    net_bytes: 0,
                    net_pending: 0,
                },
            ],
            ..StreamProfile::default()
        };
        reg.record(7, "q", &sample(1), Some(&profile));
        reg.record(7, "q", &sample(1), Some(&profile));
        let p = reg.get(7).unwrap();
        assert_eq!(p.hot_states.len(), 2);
        assert_eq!(p.hot_states[0].state, "q0");
        assert_eq!(p.hot_states[0].expansions, 10);
        assert_eq!(p.hot_states[1].expansions, 6);
    }
}
