//! Spans around the calls the harness makes into each layer.
//!
//! Everything is recorded from the driver thread, outside the library:
//! a span is a name, a start, an end, the span that was open when it
//! started, and — for calls made on behalf of one chunk — the
//! `(flow, round)` that chunk belongs to. Spans stay in memory until the
//! run ends. A disabled tracer never reads the clock, so the untraced
//! run pays one branch per call.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// The chunk a span works for.
pub type Request = (u32, u32);

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// `layer.call`, e.g. `service.push`.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<u32>,
    /// `(flow, round)` of the chunk this call serves, if any.
    pub request: Option<Request>,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An open span, to be handed back to [`Tracer::exit`].
#[derive(Debug)]
#[must_use = "an entered span must be exited"]
pub struct Open(Option<u32>);

/// Per-name totals of a finished trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SelfTime {
    /// Spans of this name.
    pub count: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of their durations minus the part their child spans cover.
    pub self_ns: u64,
}

/// Sum of the durations of the spans of `spans` named `name`, in seconds.
pub fn total_s(spans: &[Span], name: &str) -> f64 {
    let ns: u64 = named(spans, name).map(Span::duration_ns).sum();
    ns as f64 / 1e9
}

/// Durations of the spans of `spans` named `name`, in microseconds.
pub fn durations_us(spans: &[Span], name: &str) -> Vec<f64> {
    named(spans, name)
        .map(|s| s.duration_ns() as f64 / 1e3)
        .collect()
}

fn named<'a>(spans: &'a [Span], name: &'a str) -> impl Iterator<Item = &'a Span> {
    spans.iter().filter(move |s| s.name == name)
}

/// The in-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// A recorder; records nothing unless `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span that encloses every span entered before its
    /// [`exit`](Tracer::exit).
    pub fn enter(&mut self, name: &'static str, request: Option<Request>) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let index = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(index);
        Open(Some(index))
    }

    /// Closes the innermost open span, which must be `span`.
    pub fn exit(&mut self, span: Open) {
        let Some(index) = span.0 else { return };
        let end_ns = self.now_ns();
        assert_eq!(self.open.pop(), Some(index), "spans must nest");
        self.spans[index as usize].end_ns = end_ns;
    }

    /// Runs `call` inside a span of its own.
    pub fn leaf<R>(
        &mut self,
        name: &'static str,
        request: Option<Request>,
        call: impl FnOnce() -> R,
    ) -> R {
        let span = self.enter(name, request);
        let out = call();
        self.exit(span);
        out
    }

    /// The recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Count, total and self time per span name. A span's self time is
    /// its duration minus the durations of its direct children (spans
    /// nest and never overlap, being recorded from one thread).
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let mut covered = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                covered[parent as usize] += span.duration_ns();
            }
        }
        let mut table: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (span, covered) in self.spans.iter().zip(covered) {
            let row = table.entry(span.name).or_default();
            row.count += 1;
            row.total_ns += span.duration_ns();
            row.self_ns += span.duration_ns() - covered;
        }
        table
    }

    /// The self-time table as aligned text, widest total first.
    pub fn self_time_table(&self) -> String {
        let mut rows: Vec<_> = self.self_times().into_iter().collect();
        rows.sort_by_key(|(_, row)| std::cmp::Reverse(row.total_ns));
        let mut out = format!(
            "{:<28} {:>9} {:>12} {:>12}\n",
            "span", "count", "total_ms", "self_ms"
        );
        for (name, row) in rows {
            let _ = writeln!(
                out,
                "{:<28} {:>9} {:>12.3} {:>12.3}",
                name,
                row.count,
                row.total_ns as f64 / 1e6,
                row.self_ns as f64 / 1e6
            );
        }
        out
    }

    /// The trace as Chrome trace-event JSON (`chrome://tracing`,
    /// Perfetto): one complete (`"ph":"X"`) event per span, timestamps
    /// in microseconds.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, span) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i}",
                span.name,
                span.start_ns as f64 / 1e3,
                span.duration_ns() as f64 / 1e3,
            );
            if let Some(parent) = span.parent {
                let _ = write!(out, ",\"parent\":{parent}");
            }
            if let Some((flow, round)) = span.request {
                let _ = write!(out, ",\"flow\":{flow},\"round\":{round}");
            }
            out.push_str("}}");
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Tracer::new(true);
        let outer = t.enter("outer", None);
        t.leaf("inner", Some((1, 2)), || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.leaf("inner", Some((1, 3)), || ());
        t.exit(outer);
        let table = t.self_times();
        let (outer, inner) = (table["outer"], table["inner"]);
        assert_eq!((outer.count, inner.count), (1, 2));
        assert_eq!(inner.self_ns, inner.total_ns);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[2].request, Some((1, 3)));
        assert!(total_s(t.spans(), "inner") >= 0.002);
        assert_eq!(durations_us(t.spans(), "inner").len(), 2);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let outer = t.enter("outer", None);
        assert_eq!(t.leaf("inner", None, || 7), 7);
        t.exit(outer);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn chrome_json_parses() {
        let mut t = Tracer::new(true);
        let outer = t.enter("outer", None);
        t.leaf("inner", Some((4, 5)), || ());
        t.exit(outer);
        let doc = recama::mnrl::jsonval::Value::parse(&t.chrome_json()).unwrap();
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].get("name").unwrap().as_str(), Some("inner"));
        let args = events[1].get("args").unwrap();
        assert_eq!(args.get("parent").unwrap().as_u64(), Some(0));
        assert_eq!(args.get("flow").unwrap().as_u64(), Some(4));
    }
}
