//! The benchmark's own span recorder. Spans are recorded from the benchmark's
//! files, around the calls it makes into each layer's public functions; nothing
//! inside the crates is instrumented. Spans stay in memory and are written out as
//! one Chrome-format trace when the run ends.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<u32>,
    /// The operation this span belongs to: spans of one op share it.
    pub op_id: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A token for an open span; hand it back to [`Recorder::exit`].
#[derive(Debug, Clone, Copy)]
#[must_use = "an entered span must be exited"]
pub struct Open(Option<u32>);

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    /// Duration minus the part covered by child spans.
    pub self_ns: u64,
}

/// The recorder. Disabled, `enter`/`exit` cost one branch and read no clock.
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op_id: u64,
    cap: usize,
    dropped: u64,
    counts: BTreeMap<&'static str, u64>,
}

impl Recorder {
    pub fn disabled() -> Recorder {
        Recorder::with_cap(false, 0)
    }

    /// A recording recorder holding at most `cap` spans; later ones are counted
    /// as dropped instead of growing memory without bound.
    pub fn enabled(cap: usize) -> Recorder {
        Recorder::with_cap(true, cap)
    }

    fn with_cap(enabled: bool, cap: usize) -> Recorder {
        Recorder {
            enabled,
            origin: Instant::now(),
            spans: Vec::with_capacity(cap.min(1 << 16)),
            open: Vec::new(),
            op_id: 0,
            cap,
            dropped: 0,
            counts: BTreeMap::new(),
        }
    }

    /// Spans entered from now on belong to operation `op_id`.
    pub fn set_op(&mut self, op_id: u64) {
        self.op_id = op_id;
    }

    #[inline]
    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        if self.spans.len() >= self.cap {
            self.dropped += 1;
            return Open(None);
        }
        let idx = self.spans.len() as u32;
        let now = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            op_id: self.op_id,
        });
        self.open.push(idx);
        Open(Some(idx))
    }

    #[inline]
    pub fn exit(&mut self, open: Open) {
        if let Open(Some(idx)) = open {
            self.spans[idx as usize].end_ns = self.origin.elapsed().as_nanos() as u64;
            let top = self.open.pop();
            debug_assert_eq!(top, Some(idx), "spans must nest");
        }
    }

    /// Add `n` to the counter `name` — read at the same boundary as a span.
    #[inline]
    pub fn count(&mut self, name: &'static str, n: u64) {
        if self.enabled {
            *self.counts.entry(name).or_insert(0) += n;
        }
    }

    pub fn counters(&self) -> &BTreeMap<&'static str, u64> {
        &self.counts
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        totals_of(&self.spans)
    }

    /// The spans as a Chrome `trace_event` document (`chrome://tracing`,
    /// ui.perfetto.dev): complete events with microsecond timestamps.
    pub fn chrome_json(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96 + 64);
        out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = match s.parent {
                Some(p) => p.to_string(),
                None => "null".to_string(),
            };
            out.push_str(&format!(
                "\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"op_id\":{},\"parent\":{}}}}}",
                s.name,
                s.name.split('.').next().unwrap_or("bench"),
                s.start_ns as f64 / 1e3,
                s.duration_ns() as f64 / 1e3,
                s.op_id,
                parent
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Count, total and self time per span name: a span's self time is its duration
/// minus the part of it that its child spans cover.
pub fn totals_of(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p as usize] += s.duration_ns();
        }
    }
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.duration_ns();
        t.self_ns += s.duration_ns().saturating_sub(child_ns[i]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op_id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        // op [0,100) holds a [10,40) and b [50,90); b holds c [60,70).
        let spans = vec![
            span("op", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 50, 90, Some(0)),
            span("c", 60, 70, Some(2)),
        ];
        let t = totals_of(&spans);
        assert_eq!(
            t["op"].self_ns, 30,
            "100 - 30 - 40; c is b's child, not op's"
        );
        assert_eq!(t["a"].self_ns, 30);
        assert_eq!(t["b"].self_ns, 30);
        assert_eq!(t["c"].self_ns, 10);
        let self_sum: u64 = t.values().map(|x| x.self_ns).sum();
        assert_eq!(self_sum, 100, "self times tile the root span");
    }

    #[test]
    fn totals_aggregate_by_name() {
        let spans = vec![
            span("op", 0, 10, None),
            span("x", 1, 4, Some(0)),
            span("op", 10, 30, None),
            span("x", 11, 15, Some(2)),
            span("x", 20, 25, Some(2)),
        ];
        let t = totals_of(&spans);
        assert_eq!(
            t["op"],
            NameTotals {
                count: 2,
                total_ns: 30,
                self_ns: 18
            }
        );
        assert_eq!(t["x"].count, 3);
        assert_eq!(t["x"].total_ns, 12);
    }

    #[test]
    fn recorder_nests_and_tags_ops() {
        let mut rec = Recorder::enabled(16);
        rec.set_op(7);
        let op = rec.enter("op");
        let a = rec.enter("layer.call");
        rec.count("layer.calls", 2);
        rec.exit(a);
        rec.exit(op);
        rec.set_op(8);
        let op = rec.enter("op");
        rec.exit(op);
        let s = rec.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(
            (s[0].parent, s[1].parent, s[2].parent),
            (None, Some(0), None)
        );
        assert_eq!((s[0].op_id, s[1].op_id, s[2].op_id), (7, 7, 8));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        assert_eq!(rec.counters()["layer.calls"], 2);
        let json = rec.chrome_json();
        assert!(json.contains("\"name\":\"layer.call\"") && json.contains("\"op_id\":8"));
    }

    #[test]
    fn disabled_recorder_records_nothing_and_capped_one_drops() {
        let mut rec = Recorder::disabled();
        let s = rec.enter("op");
        rec.count("n", 1);
        rec.exit(s);
        assert!(rec.spans().is_empty() && rec.counters().is_empty());

        let mut rec = Recorder::enabled(1);
        let a = rec.enter("a");
        let b = rec.enter("b");
        rec.exit(b);
        rec.exit(a);
        assert_eq!((rec.spans().len(), rec.dropped()), (1, 1));
    }
}
