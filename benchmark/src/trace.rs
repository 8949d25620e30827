//! The harness's own spans, recorded around its calls into each layer.
//!
//! Spans live in memory and are written once, when the traced pass ends,
//! as Chrome trace-event JSON. Each carries its name, start, end, the span
//! that caused it (`parent`) and the workload name as the id all spans of
//! one pass share. A layer's self time is its span minus its children.
//! With the recorder off (`--trace 0`) a span is a no-op.

use graphh::obs::json::escape;
use std::cell::RefCell;
use std::time::Instant;

/// One finished (or still open) span. Times are microseconds since the
/// recorder was created.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_us: u64,
    pub end_us: u64,
    /// Index of the enclosing span; `None` for the root.
    pub parent: Option<usize>,
}

struct State {
    spans: Vec<Span>,
    /// Indices of the spans currently open, outermost first.
    open: Vec<usize>,
}

/// Records nested spans on the harness thread.
pub struct Recorder {
    origin: Instant,
    state: Option<RefCell<State>>,
}

/// Closes its span when dropped.
pub struct SpanGuard<'a> {
    recorder: &'a Recorder,
    index: Option<usize>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Recorder {
            origin: Instant::now(),
            state: enabled.then(|| {
                RefCell::new(State {
                    spans: Vec::new(),
                    open: Vec::new(),
                })
            }),
        }
    }

    fn now_us(&self) -> u64 {
        self.origin.elapsed().as_micros() as u64
    }

    /// Open a span under the innermost open one.
    pub fn span(&self, name: &str) -> SpanGuard<'_> {
        let index = self.state.as_ref().map(|state| {
            let now = self.now_us();
            let mut state = state.borrow_mut();
            let parent = state.open.last().copied();
            state.spans.push(Span {
                name: name.to_string(),
                start_us: now,
                end_us: now,
                parent,
            });
            let index = state.spans.len() - 1;
            state.open.push(index);
            index
        });
        SpanGuard {
            recorder: self,
            index,
        }
    }

    /// Add an already finished span under the innermost open one (for an
    /// interval the harness only learns afterwards, such as a launch's
    /// set-up half).
    pub fn closed_span(&self, name: &str, start: Instant, end: Instant) {
        if let Some(state) = self.state.as_ref() {
            let since_origin =
                |t: Instant| t.saturating_duration_since(self.origin).as_micros() as u64;
            let mut state = state.borrow_mut();
            let parent = state.open.last().copied();
            state.spans.push(Span {
                name: name.to_string(),
                start_us: since_origin(start),
                end_us: since_origin(end),
                parent,
            });
        }
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.state
            .as_ref()
            .map_or_else(Vec::new, |state| state.borrow().spans.clone())
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let (Some(index), Some(state)) = (self.index, self.recorder.state.as_ref()) {
            let now = self.recorder.now_us();
            let mut state = state.borrow_mut();
            state.spans[index].end_us = now;
            state.open.retain(|&open| open != index);
        }
    }
}

/// Each span's duration minus the time its direct children cover, in
/// microseconds, indexed like `spans`.
pub fn self_times_us(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_us - s.start_us).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            own[parent] = own[parent].saturating_sub(span.end_us - span.start_us);
        }
    }
    own
}

/// `spans` as Chrome trace-event JSON: complete (`"ph": "X"`) events whose
/// `args` hold the span's index, its parent's and the shared `id`.
pub fn chrome_json(id: &str, spans: &[Span]) -> String {
    let mut out = String::from("{\n  \"displayTimeUnit\": \"ms\",\n  \"traceEvents\": [\n");
    out.push_str(&format!(
        "    {{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 0, \
         \"args\": {{\"name\": \"graphh-benchmark {}\"}}}}",
        escape(id)
    ));
    for (index, span) in spans.iter().enumerate() {
        let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            ",\n    {{\"name\": \"{}\", \"cat\": \"benchmark\", \"ph\": \"X\", \"ts\": {}, \
             \"dur\": {}, \"pid\": 1, \"tid\": 0, \"args\": {{\"id\": \"{}\", \"span\": {index}, \
             \"parent\": {parent}}}}}",
            escape(&span.name),
            span.start_us,
            span.end_us - span.start_us,
            escape(id),
        ));
    }
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphh::obs::JsonValue;

    #[test]
    fn every_written_span_has_a_parent_that_encloses_it() {
        let rec = Recorder::new(true);
        {
            let _workload = rec.span("workload");
            {
                let _setup = rec.span("setup");
                let _generate = rec.span("graph.generate");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            let _run = rec.span("run");
        }
        let json = chrome_json("demo", &rec.spans());
        let parsed = JsonValue::parse(&json).expect("valid JSON");
        let events: Vec<&JsonValue> = parsed
            .get("traceEvents")
            .and_then(JsonValue::as_array)
            .unwrap()
            .iter()
            .filter(|e| e.get("ph").and_then(JsonValue::as_str) == Some("X"))
            .collect();
        assert_eq!(events.len(), 4);
        let bounds = |e: &JsonValue| {
            let ts = e.get("ts").and_then(JsonValue::as_u64).unwrap();
            (ts, ts + e.get("dur").and_then(JsonValue::as_u64).unwrap())
        };
        let mut roots = 0;
        for event in &events {
            let args = event.get("args").unwrap();
            assert_eq!(args.get("id").and_then(JsonValue::as_str), Some("demo"));
            match args.get("parent").and_then(JsonValue::as_u64) {
                None => roots += 1,
                Some(parent) => {
                    let (start, end) = bounds(event);
                    let (pstart, pend) = bounds(events[parent as usize]);
                    assert!(pstart <= start && end <= pend, "parent must enclose child");
                }
            }
        }
        assert_eq!(roots, 1, "only the workload span has no parent");
    }

    #[test]
    fn self_time_is_the_span_minus_its_children() {
        let spans = vec![
            Span {
                name: "a".into(),
                start_us: 0,
                end_us: 100,
                parent: None,
            },
            Span {
                name: "b".into(),
                start_us: 10,
                end_us: 40,
                parent: Some(0),
            },
            Span {
                name: "c".into(),
                start_us: 50,
                end_us: 70,
                parent: Some(0),
            },
            Span {
                name: "d".into(),
                start_us: 12,
                end_us: 22,
                parent: Some(1),
            },
        ];
        assert_eq!(self_times_us(&spans), vec![50, 20, 20, 10]);
    }

    #[test]
    fn a_disabled_recorder_records_nothing() {
        let rec = Recorder::new(false);
        drop(rec.span("x"));
        assert!(rec.spans().is_empty());
    }
}
