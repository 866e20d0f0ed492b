//! Span tracing: a bounded flight recorder and lossless JSONL export.
//!
//! A [`SpanEvent`] is a named `[start, end]` interval with typed
//! attributes. Events land in a [`FlightRecorder`] — a fixed-capacity ring
//! that keeps the newest spans and counts what it dropped — and export as
//! one JSON object per line ([`to_jsonl`]), a format [`parse_jsonl`] reads
//! back *losslessly*: integers round-trip exactly and `f64` attributes are
//! written with Rust's shortest round-trip formatting.
//!
//! Timestamps come from a [`Clock`]: [`Clock::wall`] for live services
//! (microseconds since clock creation) and [`Clock::fixed`] — a
//! deterministic tick counter — for golden tests, where byte-identical
//! traces across runs, machines, and thread counts are required.

use crate::json::{escape_into, Cursor};
use crate::lock_unpoisoned;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// A typed span-attribute value.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// An unsigned integer.
    U64(u64),
    /// A signed integer (only negatives need this arm).
    I64(i64),
    /// A finite double. Non-finite values are serialized as strings since
    /// JSON has no representation for them.
    F64(f64),
    /// A string.
    Str(String),
}

impl From<u64> for AttrValue {
    fn from(v: u64) -> Self {
        AttrValue::U64(v)
    }
}

impl From<usize> for AttrValue {
    fn from(v: usize) -> Self {
        AttrValue::U64(v as u64)
    }
}

impl From<i64> for AttrValue {
    fn from(v: i64) -> Self {
        AttrValue::I64(v)
    }
}

impl From<f64> for AttrValue {
    fn from(v: f64) -> Self {
        AttrValue::F64(v)
    }
}

impl From<&str> for AttrValue {
    fn from(v: &str) -> Self {
        AttrValue::Str(v.to_string())
    }
}

/// One completed span: a named interval with ordered attributes.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanEvent {
    /// Span name (`component.operation`, see DESIGN.md §10).
    pub name: String,
    /// Start timestamp in the recording clock's unit.
    pub start: u64,
    /// End timestamp in the recording clock's unit.
    pub end: u64,
    /// Attributes in insertion order (preserved by the JSONL codec).
    pub attrs: Vec<(String, AttrValue)>,
}

impl SpanEvent {
    /// Creates a span with no attributes.
    pub fn new(name: impl Into<String>, start: u64, end: u64) -> Self {
        SpanEvent {
            name: name.into(),
            start,
            end,
            attrs: Vec::new(),
        }
    }

    /// Appends an attribute, builder-style.
    pub fn attr(mut self, key: impl Into<String>, value: impl Into<AttrValue>) -> Self {
        self.attrs.push((key.into(), value.into()));
        self
    }
}

/// A timestamp source for spans.
#[derive(Debug)]
pub enum Clock {
    /// Microseconds elapsed since the clock was created.
    Wall(Instant),
    /// A deterministic counter: every [`Clock::now`] call returns the next
    /// integer, starting at 0. Traces recorded under a fixed clock are
    /// byte-identical across runs and machines.
    Fixed(AtomicU64),
}

impl Clock {
    /// A wall clock starting now.
    pub fn wall() -> Self {
        Clock::Wall(Instant::now())
    }

    /// A deterministic tick counter starting at 0.
    pub fn fixed() -> Self {
        Clock::Fixed(AtomicU64::new(0))
    }

    /// The current timestamp (micros for wall clocks, the next tick for
    /// fixed clocks).
    pub fn now(&self) -> u64 {
        match self {
            Clock::Wall(start) => start.elapsed().as_micros() as u64,
            Clock::Fixed(tick) => tick.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// `true` for the deterministic source.
    pub fn is_fixed(&self) -> bool {
        matches!(self, Clock::Fixed(_))
    }
}

#[derive(Debug, Default)]
struct Flight {
    events: VecDeque<SpanEvent>,
    dropped: u64,
}

/// A bounded ring buffer of the most recent spans.
///
/// When full, recording a span evicts the oldest and bumps the dropped
/// counter — a crashed or slow consumer can never exhaust memory, and the
/// loss is observable.
#[derive(Debug)]
pub struct FlightRecorder {
    capacity: usize,
    inner: Mutex<Flight>,
}

impl FlightRecorder {
    /// Creates a recorder keeping at most `capacity` spans.
    pub fn new(capacity: usize) -> Self {
        FlightRecorder {
            capacity: capacity.max(1),
            inner: Mutex::new(Flight::default()),
        }
    }

    /// Maximum spans kept.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Records a completed span. A no-op under `telemetry-off`.
    pub fn record(&self, event: SpanEvent) {
        if !crate::enabled() {
            return;
        }
        let mut flight = lock_unpoisoned(&self.inner);
        if flight.events.len() == self.capacity {
            flight.events.pop_front();
            flight.dropped += 1;
        }
        flight.events.push_back(event);
    }

    /// Spans currently held.
    pub fn len(&self) -> usize {
        lock_unpoisoned(&self.inner).events.len()
    }

    /// `true` when no spans are held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Spans evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        lock_unpoisoned(&self.inner).dropped
    }

    /// Clones the held spans, oldest first.
    pub fn snapshot(&self) -> Vec<SpanEvent> {
        lock_unpoisoned(&self.inner)
            .events
            .iter()
            .cloned()
            .collect()
    }

    /// Removes and returns the held spans, oldest first.
    pub fn drain(&self) -> Vec<SpanEvent> {
        lock_unpoisoned(&self.inner).events.drain(..).collect()
    }
}

fn write_attr_value(out: &mut String, value: &AttrValue) {
    match value {
        AttrValue::U64(v) => {
            let _ = write!(out, "{v}");
        }
        AttrValue::I64(v) => {
            let _ = write!(out, "{v}");
        }
        AttrValue::F64(v) if v.is_finite() => {
            // Rust's Display for f64 is the shortest string that parses
            // back to the same bits — lossless by construction. Integral
            // doubles get an explicit ".0" so the parser keeps the type.
            let mut s = format!("{v}");
            if !s.contains('.') && !s.contains('e') && !s.contains('E') {
                s.push_str(".0");
            }
            out.push_str(&s);
        }
        AttrValue::F64(v) => {
            // JSON has no NaN/Infinity; a quoted string keeps the line
            // parseable (the value degrades to Str on the way back).
            let _ = write!(out, "\"{v}\"");
        }
        AttrValue::Str(s) => {
            out.push('"');
            escape_into(out, s);
            out.push('"');
        }
    }
}

/// Renders spans as JSONL: one
/// `{"name":…,"start":…,"end":…,"attrs":{…}}` object per line, fields in
/// that fixed order, attributes in recording order.
pub fn to_jsonl(events: &[SpanEvent]) -> String {
    let mut out = String::new();
    for event in events {
        out.push_str("{\"name\":\"");
        escape_into(&mut out, &event.name);
        let _ = write!(
            out,
            "\",\"start\":{},\"end\":{},\"attrs\":{{",
            event.start, event.end
        );
        for (i, (key, value)) in event.attrs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            escape_into(&mut out, key);
            out.push_str("\":");
            write_attr_value(&mut out, value);
        }
        out.push_str("}}\n");
    }
    out
}

/// Parses a number: `F64` when it has a fraction or exponent, `I64` when
/// negative, `U64` otherwise.
fn parse_number(p: &mut Cursor<'_>) -> Result<AttrValue, String> {
    let text = p.number_text()?;
    if text.contains('.') || text.contains('e') || text.contains('E') {
        text.parse::<f64>()
            .map(AttrValue::F64)
            .map_err(|e| format!("{text:?}: {e}"))
    } else if let Some(stripped) = text.strip_prefix('-') {
        stripped
            .parse::<u64>()
            .map(|v| AttrValue::I64(-(v as i64)))
            .map_err(|e| format!("{text:?}: {e}"))
    } else {
        text.parse::<u64>()
            .map(AttrValue::U64)
            .map_err(|e| format!("{text:?}: {e}"))
    }
}

fn parse_u64(p: &mut Cursor<'_>) -> Result<u64, String> {
    match parse_number(p)? {
        AttrValue::U64(v) => Ok(v),
        other => p.fail(&format!("expected unsigned integer, got {other:?}")),
    }
}

/// Parses one [`to_jsonl`] line back into a [`SpanEvent`].
///
/// # Errors
///
/// Returns a message with the byte offset of the first deviation from the
/// emitted schema.
pub fn parse_span(line: &str) -> Result<SpanEvent, String> {
    let mut p = Cursor::new(line.trim_end());
    p.expect_str("{\"name\":")?;
    let name = p.parse_string()?;
    p.expect_str(",\"start\":")?;
    let start = parse_u64(&mut p)?;
    p.expect_str(",\"end\":")?;
    let end = parse_u64(&mut p)?;
    p.expect_str(",\"attrs\":{")?;
    let mut attrs = Vec::new();
    if p.peek() != Some(b'}') {
        loop {
            let key = p.parse_string()?;
            p.expect(b':')?;
            let value = match p.peek() {
                Some(b'"') => AttrValue::Str(p.parse_string()?),
                _ => parse_number(&mut p)?,
            };
            attrs.push((key, value));
            match p.peek() {
                Some(b',') => p.bump(),
                _ => break,
            }
        }
    }
    p.expect_str("}}")?;
    if !p.at_end() {
        return p.fail("trailing bytes after span object");
    }
    Ok(SpanEvent {
        name,
        start,
        end,
        attrs,
    })
}

/// Parses a whole [`to_jsonl`] document (blank lines are skipped).
///
/// # Errors
///
/// Returns the first failing line's number and parse error.
pub fn parse_jsonl(text: &str) -> Result<Vec<SpanEvent>, String> {
    text.lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(i, line)| parse_span(line).map_err(|e| format!("line {}: {e}", i + 1)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_clock_is_deterministic() {
        let clock = Clock::fixed();
        assert!(clock.is_fixed());
        assert_eq!(clock.now(), 0);
        assert_eq!(clock.now(), 1);
        assert_eq!(clock.now(), 2);
        assert!(!Clock::wall().is_fixed());
    }

    #[cfg(not(feature = "telemetry-off"))]
    #[test]
    fn recorder_keeps_the_newest_and_counts_drops() {
        let rec = FlightRecorder::new(3);
        for i in 0..5u64 {
            rec.record(SpanEvent::new(format!("s{i}"), i, i + 1));
        }
        assert_eq!(rec.len(), 3);
        assert_eq!(rec.dropped(), 2);
        let names: Vec<_> = rec.snapshot().into_iter().map(|e| e.name).collect();
        assert_eq!(names, ["s2", "s3", "s4"]);
        let drained = rec.drain();
        assert_eq!(drained.len(), 3);
        assert!(rec.is_empty());
    }

    #[cfg(feature = "telemetry-off")]
    #[test]
    fn disabled_build_records_no_spans() {
        let rec = FlightRecorder::new(3);
        rec.record(SpanEvent::new("s", 0, 1));
        assert!(rec.is_empty());
    }

    #[test]
    fn jsonl_round_trips_every_attribute_type() {
        let events = vec![
            SpanEvent::new("cg.iteration", 3, 9)
                .attr("iteration", 4u64)
                .attr("residual", 0.001953125f64)
                .attr("delta", -7i64)
                .attr("engine", "chasoň"),
            SpanEvent::new("weird \"name\"\n", 0, 0).attr("k\\ey", "\tv"),
            SpanEvent::new("empty", 1, 2),
        ];
        let text = to_jsonl(&events);
        assert_eq!(text.lines().count(), 3);
        let parsed = parse_jsonl(&text).expect("parse");
        assert_eq!(parsed, events);
        // Re-rendering is byte-identical: the codec is a bijection on its
        // own output.
        assert_eq!(to_jsonl(&parsed), text);
    }

    #[test]
    fn f64_attributes_are_bit_exact() {
        let tricky = [0.1f64, 1.0 / 3.0, f64::MIN_POSITIVE, 1e300, -0.0, 12345.0];
        for v in tricky {
            let event = SpanEvent::new("f", 0, 1).attr("v", v);
            let parsed = parse_jsonl(&to_jsonl(&[event])).expect("parse");
            match parsed[0].attrs[0].1 {
                AttrValue::F64(back) => assert_eq!(back.to_bits(), v.to_bits(), "{v}"),
                ref other => panic!("expected F64, got {other:?}"),
            }
        }
    }

    #[test]
    fn malformed_lines_are_rejected_with_positions() {
        assert!(parse_jsonl("{\"nope\":1}").is_err());
        assert!(
            parse_jsonl("{\"name\":\"x\",\"start\":1,\"end\":2,\"attrs\":{}} extra")
                .unwrap_err()
                .contains("line 1")
        );
        assert!(parse_span("{\"name\":\"x\",\"start\":-1,\"end\":2,\"attrs\":{}}").is_err());
    }
}
