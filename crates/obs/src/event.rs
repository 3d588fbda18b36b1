//! Structured, severity-tagged JSON events in a bounded ring buffer.
//!
//! Events are for lifecycle moments — recovery, registration, snapshots,
//! configuration warnings — not per-query records (the stream takes a
//! mutex, so the lock-free admission path never emits). The ring keeps the
//! most recent `capacity` events for in-process inspection; an optional
//! append-only sink (`serve --events PATH`) receives every event as one
//! JSON line. Attaching a sink first flushes the buffered ring into it, so
//! events emitted before the sink existed (engine recovery happens before
//! argument-driven wiring) still land in the file.
//!
//! Fields are bound by the crate-level no-payload-data contract: timings,
//! counts, seq numbers, fingerprints, and `(ε, δ)` aggregates only. The
//! [`event!`](crate::event!) macro is the sanctioned emission point, and the
//! `event-payload-leak` privlint rule audits its call sites.

use crate::lock_recover;
use serde::Value;
use std::collections::VecDeque;
use std::io::Write;
use std::sync::Mutex;

/// Event severity, least to most severe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Diagnostic chatter.
    Debug,
    /// Normal lifecycle moments (recovery succeeded, dataset registered).
    Info,
    /// Degraded but continuing (torn journal tail, volatile mode).
    Warn,
    /// Something was lost or refused.
    Error,
}

impl Severity {
    /// The lowercase wire name.
    pub fn as_str(&self) -> &'static str {
        match self {
            Severity::Debug => "debug",
            Severity::Info => "info",
            Severity::Warn => "warn",
            Severity::Error => "error",
        }
    }
}

/// One structured event.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Position in the stream (1-based, gap-free while the process lives).
    pub seq: u64,
    /// Severity tag.
    pub severity: Severity,
    /// Dotted event name, e.g. `engine.recovery` or `store.snapshot`.
    pub name: String,
    /// Structured fields, in emission order.
    pub fields: Vec<(String, Value)>,
}

impl Event {
    /// The event as one flat JSON object: `seq`, `severity`, and `event`
    /// first, then the fields in emission order.
    pub fn to_json_value(&self) -> Value {
        let mut pairs = vec![
            ("seq".to_string(), Value::Number(self.seq as f64)),
            (
                "severity".to_string(),
                Value::String(self.severity.as_str().to_string()),
            ),
            ("event".to_string(), Value::String(self.name.clone())),
        ];
        pairs.extend(self.fields.iter().cloned());
        Value::Object(pairs)
    }
}

struct Ring {
    buf: VecDeque<Event>,
    next_seq: u64,
    sink: Option<Box<dyn Write + Send>>,
}

impl std::fmt::Debug for Ring {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ring")
            .field("buf", &self.buf)
            .field("next_seq", &self.next_seq)
            .field("sink", &self.sink.as_ref().map(|_| "Box<dyn Write>"))
            .finish()
    }
}

/// A bounded stream of [`Event`]s with an optional append-only sink.
#[derive(Debug)]
pub struct EventStream {
    capacity: usize,
    inner: Mutex<Ring>,
}

impl Default for EventStream {
    fn default() -> Self {
        EventStream::new(256)
    }
}

impl EventStream {
    /// A stream retaining at most `capacity` recent events (minimum 1).
    pub fn new(capacity: usize) -> EventStream {
        EventStream {
            capacity: capacity.max(1),
            inner: Mutex::new(Ring {
                buf: VecDeque::new(),
                next_seq: 1,
                sink: None,
            }),
        }
    }

    /// Emits an event. Prefer the [`crate::event!`] macro, which names the
    /// fields and is what the `event-payload-leak` lint audits.
    pub fn emit(&self, severity: Severity, name: &str, fields: Vec<(String, Value)>) {
        let mut ring = lock_recover(&self.inner);
        let event = Event {
            seq: ring.next_seq,
            severity,
            name: name.to_string(),
            fields,
        };
        ring.next_seq += 1;
        if let Some(sink) = ring.sink.as_mut() {
            Self::write_line(sink, &event);
        }
        if ring.buf.len() == self.capacity {
            ring.buf.pop_front();
        }
        ring.buf.push_back(event);
    }

    /// The buffered recent events, oldest first.
    pub fn recent(&self) -> Vec<Event> {
        lock_recover(&self.inner).buf.iter().cloned().collect()
    }

    /// Total events emitted so far (including ones evicted from the ring).
    pub fn emitted(&self) -> u64 {
        lock_recover(&self.inner).next_seq - 1
    }

    /// Attaches an append-only sink. The buffered ring is flushed into it
    /// first so pre-wiring events (e.g. recovery) are not lost, then every
    /// subsequent event is appended as one JSON line.
    pub fn set_sink(&self, mut sink: Box<dyn Write + Send>) {
        let mut ring = lock_recover(&self.inner);
        for event in &ring.buf {
            Self::write_line(&mut sink, event);
        }
        ring.sink = Some(sink);
    }

    fn write_line(sink: &mut (impl Write + ?Sized), event: &Event) {
        // A failing sink must never take the service down with it.
        if let Ok(line) = serde_json::to_string(&event.to_json_value()) {
            let _ = writeln!(sink, "{line}");
            let _ = sink.flush();
        }
    }
}

/// Conversion into an event field value — implemented for the scalar types
/// the no-payload-data contract permits.
pub trait IntoField {
    /// The JSON representation of this field value.
    fn into_field(self) -> Value;
}

impl IntoField for bool {
    fn into_field(self) -> Value {
        Value::Bool(self)
    }
}

impl IntoField for f64 {
    fn into_field(self) -> Value {
        Value::Number(self)
    }
}

impl IntoField for &str {
    fn into_field(self) -> Value {
        Value::String(self.to_string())
    }
}

impl IntoField for String {
    fn into_field(self) -> Value {
        Value::String(self)
    }
}

impl IntoField for &String {
    fn into_field(self) -> Value {
        Value::String(self.clone())
    }
}

macro_rules! into_field_for_ints {
    ($($ty:ty),*) => {
        $(impl IntoField for $ty {
            fn into_field(self) -> Value {
                Value::Number(self as f64)
            }
        })*
    };
}

into_field_for_ints!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Emits a structured event:
///
/// ```
/// use privcluster_obs::{event, EventStream, Severity};
/// let events = EventStream::new(16);
/// event!(events, Severity::Info, "engine.recovery",
///        journal_seq = 5u64, recovered = true);
/// assert_eq!(events.recent()[0].fields.len(), 2);
/// ```
///
/// Field values go through [`event::IntoField`](crate::event::IntoField),
/// which only admits scalars — per the no-payload-data contract, field
/// names must describe timings, counts, seq numbers, fingerprints, or
/// `(ε, δ)` aggregates, never payload data (the `event-payload-leak`
/// privlint rule checks the names used here).
#[macro_export]
macro_rules! event {
    ($stream:expr, $severity:expr, $name:expr $(, $key:ident = $value:expr)* $(,)?) => {
        $stream.emit(
            $severity,
            $name,
            vec![$(
                (
                    stringify!($key).to_string(),
                    $crate::event::IntoField::into_field($value),
                ),
            )*],
        )
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_is_bounded_and_seq_is_gap_free() {
        let events = EventStream::new(3);
        for i in 0..5u64 {
            crate::event!(events, Severity::Info, "tick", index = i);
        }
        let recent = events.recent();
        assert_eq!(recent.len(), 3);
        assert_eq!(
            recent.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![3, 4, 5]
        );
        assert_eq!(events.emitted(), 5);
    }

    #[test]
    fn json_rendering_is_flat_and_ordered() {
        let events = EventStream::new(4);
        crate::event!(
            events,
            Severity::Warn,
            "store.torn_tail",
            journal_seq = 12u64,
            recovered = true,
            reason = "truncated record",
        );
        let event = &events.recent()[0];
        let json = serde_json::to_string(&event.to_json_value()).unwrap();
        assert_eq!(
            json,
            r#"{"seq":1,"severity":"warn","event":"store.torn_tail","journal_seq":12,"recovered":true,"reason":"truncated record"}"#
        );
    }

    #[test]
    fn sink_receives_backlog_then_live_events() {
        #[derive(Clone, Default)]
        struct Shared(std::sync::Arc<Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                lock_recover(&self.0).extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let events = EventStream::new(8);
        crate::event!(events, Severity::Info, "before_sink", n = 1u64);
        let shared = Shared::default();
        events.set_sink(Box::new(shared.clone()));
        crate::event!(events, Severity::Info, "after_sink", n = 2u64);
        let text = String::from_utf8(lock_recover(&shared.0).clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("before_sink"));
        assert!(lines[1].contains("after_sink"));
    }
}
