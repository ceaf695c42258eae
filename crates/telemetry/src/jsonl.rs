//! [`JsonlSink`]: streams events as JSON Lines.
//!
//! Each line is one object written by [`crate::json`]: string, integer
//! and float fields only, floats in the writer's round-trip spelling
//! (`null` for NaN/±inf, which JSON cannot represent).

use std::io::Write;

use crate::event::{Event, TelemetrySink, SCHEMA_VERSION};
use crate::json::Object;

/// Sink that writes one JSON object per line to a writer.
///
/// The first line is a header carrying [`SCHEMA_VERSION`] and whether
/// timing fields are present. With
/// [`with_timings(false)`](JsonlSink::with_timings), the `t_ns`/`dur_ns`
/// fields are omitted
/// entirely, making the stream a pure function of the simulation — the
/// determinism tests diff such streams bitwise across thread counts.
///
/// Writes are best-effort: after the first I/O error the sink goes
/// silent rather than failing the simulation it observes.
///
/// # Examples
///
/// ```
/// use sfet_telemetry::{Event, JsonlSink, TelemetrySink};
///
/// let mut sink = JsonlSink::new(Vec::new()).with_timings(false);
/// sink.record(&Event::Counter { name: "tran.steps_accepted", delta: 2 });
/// sink.flush();
/// let text = String::from_utf8(sink.into_inner()).unwrap();
/// let mut lines = text.lines();
/// assert_eq!(lines.next().unwrap(), r#"{"type":"header","schema":1,"timings":false}"#);
/// assert_eq!(
///     lines.next().unwrap(),
///     r#"{"type":"counter","name":"tran.steps_accepted","delta":2}"#
/// );
/// ```
pub struct JsonlSink<W: Write + Send> {
    out: W,
    timings: bool,
    header_written: bool,
    failed: bool,
    /// The line being written, reused across events.
    line: String,
}

impl<W: Write + Send> JsonlSink<W> {
    /// A JSONL sink writing to `out`, with timing fields included.
    pub fn new(out: W) -> Self {
        JsonlSink {
            out,
            timings: true,
            header_written: false,
            failed: false,
            line: String::new(),
        }
    }

    /// Sets whether timing fields (`t_ns`, `dur_ns`) are written.
    /// Disable them to get a bitwise-reproducible stream.
    pub fn with_timings(mut self, timings: bool) -> Self {
        self.timings = timings;
        self
    }

    /// Consumes the sink, returning the writer.
    pub fn into_inner(self) -> W {
        self.out
    }

    /// Writes one line holding the object `fields` writes.
    fn write_line(&mut self, fields: impl FnOnce(&mut Object<'_>)) {
        if self.failed {
            return;
        }
        self.line.clear();
        fields(&mut Object::new(&mut self.line));
        self.line.push('\n');
        if self.out.write_all(self.line.as_bytes()).is_err() {
            self.failed = true;
        }
    }

    fn ensure_header(&mut self) {
        if !self.header_written {
            self.header_written = true;
            let timings = self.timings;
            self.write_line(|line| {
                line.str("type", "header")
                    .u64("schema", SCHEMA_VERSION.into())
                    .bool("timings", timings);
            });
        }
    }
}

impl<W: Write + Send> TelemetrySink for JsonlSink<W> {
    fn record(&mut self, event: &Event<'_>) {
        self.ensure_header();
        let timings = self.timings;
        self.write_line(|line| {
            let (t_ns, dur_ns) = match *event {
                Event::SpanBegin { name, id, t_ns } => {
                    line.str("type", "span_begin")
                        .str("name", name)
                        .u64("id", id);
                    (Some(t_ns), None)
                }
                Event::SpanEnd {
                    name,
                    id,
                    t_ns,
                    dur_ns,
                } => {
                    line.str("type", "span_end").str("name", name).u64("id", id);
                    (Some(t_ns), Some(dur_ns))
                }
                Event::Counter { name, delta } => {
                    line.str("type", "counter")
                        .str("name", name)
                        .u64("delta", delta);
                    (None, None)
                }
                Event::Histogram { name, value } => {
                    line.str("type", "histogram")
                        .str("name", name)
                        .f64("value", value);
                    (None, None)
                }
            };
            if timings {
                for (key, ns) in [("t_ns", t_ns), ("dur_ns", dur_ns)] {
                    if let Some(ns) = ns {
                        line.u64(key, ns);
                    }
                }
            }
        });
    }

    fn flush(&mut self) {
        self.ensure_header();
        if !self.failed && self.out.flush().is_err() {
            self.failed = true;
        }
    }
}

impl<W: Write + Send> std::fmt::Debug for JsonlSink<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JsonlSink")
            .field("timings", &self.timings)
            .field("failed", &self.failed)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines_of(sink: JsonlSink<Vec<u8>>) -> Vec<String> {
        String::from_utf8(sink.into_inner())
            .unwrap()
            .lines()
            .map(str::to_owned)
            .collect()
    }

    #[test]
    fn header_first_then_events_with_timings() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.record(&Event::SpanBegin {
            name: "dc",
            id: 0,
            t_ns: 5,
        });
        sink.record(&Event::SpanEnd {
            name: "dc",
            id: 0,
            t_ns: 9,
            dur_ns: 4,
        });
        let lines = lines_of(sink);
        assert_eq!(lines[0], r#"{"type":"header","schema":1,"timings":true}"#);
        assert_eq!(
            lines[1],
            r#"{"type":"span_begin","name":"dc","id":0,"t_ns":5}"#
        );
        assert_eq!(
            lines[2],
            r#"{"type":"span_end","name":"dc","id":0,"t_ns":9,"dur_ns":4}"#
        );
    }

    #[test]
    fn timings_disabled_strips_clock_fields() {
        let mut sink = JsonlSink::new(Vec::new()).with_timings(false);
        sink.record(&Event::SpanBegin {
            name: "dc",
            id: 1,
            t_ns: 123,
        });
        sink.record(&Event::SpanEnd {
            name: "dc",
            id: 1,
            t_ns: 456,
            dur_ns: 333,
        });
        let lines = lines_of(sink);
        for line in &lines {
            assert!(!line.contains("t_ns"), "unexpected timing field in {line}");
            assert!(
                !line.contains("dur_ns"),
                "unexpected timing field in {line}"
            );
        }
    }

    #[test]
    fn floats_round_trip_and_nonfinite_become_null() {
        let mut sink = JsonlSink::new(Vec::new()).with_timings(false);
        sink.record(&Event::Histogram {
            name: "h",
            value: 1.5e-12,
        });
        sink.record(&Event::Histogram {
            name: "h",
            value: f64::NAN,
        });
        let lines = lines_of(sink);
        assert_eq!(
            lines[1],
            r#"{"type":"histogram","name":"h","value":1.5e-12}"#
        );
        assert_eq!(lines[2], r#"{"type":"histogram","name":"h","value":null}"#);
    }

    #[test]
    fn names_are_escaped_and_integral_values_lose_the_point() {
        let mut sink = JsonlSink::new(Vec::new()).with_timings(false);
        sink.record(&Event::Histogram {
            name: "a\"b\\c\n\u{1}",
            value: 2.0,
        });
        let lines = lines_of(sink);
        assert_eq!(
            lines[1],
            r#"{"type":"histogram","name":"a\"b\\c\n\u0001","value":2}"#
        );
    }

    #[test]
    fn flush_alone_still_emits_header() {
        let mut sink = JsonlSink::new(Vec::new()).with_timings(false);
        sink.flush();
        let lines = lines_of(sink);
        assert_eq!(
            lines,
            vec![r#"{"type":"header","schema":1,"timings":false}"#]
        );
    }
}
