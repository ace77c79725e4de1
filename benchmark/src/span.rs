//! Spans of the traced pass. One span per call into a layer:
//! `{op, id, parent, layer, name, start_ns, end_ns}` plus the counts taken
//! at the same boundary. Spans stay in memory and are written when the
//! pass ends; nothing here runs while an end-to-end metric is measured.

use crate::json::Json;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    /// The operation (one query over one document, one request) the span
    /// belongs to; spans of one op share it.
    pub op: u32,
    pub id: u32,
    pub parent: Option<u32>,
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub counts: Vec<(&'static str, f64)>,
}

pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Spans {
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Record a span with explicit times (the HTTP client reports offsets
    /// from its own clock reads).
    pub fn push(
        &mut self,
        op: u32,
        parent: Option<u32>,
        (layer, name): (&'static str, &'static str),
        (start_ns, end_ns): (u64, u64),
    ) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            op,
            id,
            parent,
            layer,
            name,
            start_ns,
            end_ns,
            counts: Vec::new(),
        });
        id
    }

    /// Time `f` as one span.
    pub fn record<T>(
        &mut self,
        op: u32,
        parent: Option<u32>,
        layer_name: (&'static str, &'static str),
        f: impl FnOnce() -> T,
    ) -> (T, u32) {
        let start_ns = self.now_ns();
        let value = f();
        let end_ns = self.now_ns();
        (value, self.push(op, parent, layer_name, (start_ns, end_ns)))
    }

    /// Open a span whose end is set later with [`Spans::close`] — for a
    /// parent that encloses spans recorded while it runs.
    pub fn open(&mut self, op: u32, layer_name: (&'static str, &'static str)) -> u32 {
        let now = self.now_ns();
        self.push(op, None, layer_name, (now, now))
    }

    pub fn close(&mut self, id: u32) {
        self.spans[id as usize].end_ns = self.now_ns();
    }

    pub fn count(&mut self, id: u32, name: &'static str, value: f64) {
        self.spans[id as usize].counts.push((name, value));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, indexed by id: its duration minus the part
    /// of its interval that its child spans cover (overlapping children are
    /// counted once; a child is clipped to its parent).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let parent = &self.spans[p as usize];
                let start = s.start_ns.clamp(parent.start_ns, parent.end_ns);
                let end = s.end_ns.clamp(parent.start_ns, parent.end_ns);
                children[p as usize].push((start, end));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort_unstable();
                let mut covered = 0;
                let mut reach = s.start_ns;
                for (start, end) in kids {
                    let start = start.max(reach);
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
                (s.end_ns - s.start_ns) - covered
            })
            .collect()
    }

    /// One JSON object per line, each with the span's self time added.
    pub fn to_jsonl(&self) -> String {
        let self_ns = self.self_times_ns();
        let mut out = String::new();
        for (s, self_ns) in self.spans.iter().zip(self_ns) {
            let line = Json::obj([
                ("op", Json::Num(f64::from(s.op))),
                ("id", Json::Num(f64::from(s.id))),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Num(f64::from(p))),
                ),
                ("layer", Json::str(s.layer)),
                ("name", Json::str(s.name)),
                ("start_ns", Json::Num(s.start_ns as f64)),
                ("end_ns", Json::Num(s.end_ns as f64)),
                ("self_ns", Json::Num(self_ns as f64)),
                (
                    "counts",
                    Json::obj(s.counts.iter().map(|(k, v)| (*k, Json::Num(*v)))),
                ),
            ]);
            out.push_str(&line.compact());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const L: (&str, &str) = ("layer", "name");

    #[test]
    fn self_time_subtracts_nested_children_once() {
        let mut spans = Spans::default();
        let root = spans.push(0, None, L, (100, 1100));
        let a = spans.push(0, Some(root), L, (200, 500));
        let _a1 = spans.push(0, Some(a), L, (250, 350));
        let _b = spans.push(0, Some(root), L, (600, 900));
        // Overlaps `b` by 100 ns and sticks out of the root by 100 ns.
        let _c = spans.push(0, Some(root), L, (800, 1200));
        let own = spans.self_times_ns();
        // root: 1000 − (300 + 300 + 200 more up to its own end) = 200.
        assert_eq!(own[root as usize], 200);
        assert_eq!(own[a as usize], 200);
        assert_eq!(own[2], 100);
        assert_eq!(own[3], 300);
        assert_eq!(own[4], 400);
        // Self times of a tree add up to the root's duration when no child
        // overlaps a sibling or leaves its parent.
        let mut tidy = Spans::default();
        let root = tidy.push(1, None, L, (0, 1000));
        let k = tidy.push(1, Some(root), L, (100, 400));
        tidy.push(1, Some(k), L, (150, 250));
        tidy.push(1, Some(root), L, (500, 900));
        assert_eq!(tidy.self_times_ns().iter().sum::<u64>(), 1000);
    }

    #[test]
    fn recorded_spans_nest_and_serialize() {
        let mut spans = Spans::default();
        let op = spans.open(7, ("harness", "op"));
        let (value, child) = spans.record(7, Some(op), ("xml", "tokenize"), || 41 + 1);
        spans.count(child, "events", 10.0);
        spans.close(op);
        assert_eq!(value, 42);
        let s = spans.spans();
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        let text = spans.to_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let parsed = crate::json::parse(lines[1]).unwrap();
        assert_eq!(parsed.get("parent").and_then(Json::as_f64), Some(0.0));
        assert_eq!(parsed.get("layer").and_then(Json::as_str), Some("xml"));
        assert_eq!(
            parsed
                .get("counts")
                .and_then(|c| c.get("events"))
                .and_then(Json::as_f64),
            Some(10.0)
        );
    }
}
