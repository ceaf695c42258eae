//! Per-job progress streaming: a [`TelemetrySink`] adapter fanning the
//! simulation's counters and spans out to Server-Sent Events.
//!
//! Each job owns an [`EventHub`]: an append-only, bounded log of
//! pre-formatted SSE blocks plus a condvar. The worker thread appends
//! (through [`HubSink`], attached to the job's `SimOptions` telemetry
//! handle); any number of `GET /jobs/{id}/events` connections replay the
//! log from the start and then block for new entries, so a subscriber
//! that arrives late still sees the full history. The stream ends with
//! a terminal `done` or `failed` event, after which the hub is closed
//! and subscribers drain and disconnect.
//!
//! Volume control: spans and counters pass through one-to-one (the
//! transient emits its counter totals once, at the analysis boundary),
//! but per-step histogram observations — tens of thousands for a long
//! run — are not forwarded. Only `tran.dt_seconds`, observed once per
//! accepted step, is counted: every [`PROGRESS_EVERY`]-th step becomes
//! one `progress` event carrying the cumulative count, a live
//! steps-completed gauge. The SSE grammar is documented in
//! `docs/SERVE.md#events`.

use std::sync::{Arc, Condvar, Mutex};

use sfet_telemetry::json::Object;
use sfet_telemetry::{names, Event, TelemetrySink};

/// Emit one `progress` event per this many accepted steps.
pub const PROGRESS_EVERY: u64 = 1024;

/// Hard cap on retained SSE blocks per job; beyond it non-terminal
/// events are dropped (a `truncated` event marks the gap once).
pub const MAX_EVENTS: usize = 16_384;

#[derive(Debug, Default)]
struct HubState {
    events: Vec<String>,
    truncated: bool,
    closed: bool,
}

/// The per-job event log SSE subscribers replay.
#[derive(Debug, Default)]
pub struct EventHub {
    state: Mutex<HubState>,
    cv: Condvar,
}

impl EventHub {
    /// A fresh, open hub.
    pub fn new() -> Arc<EventHub> {
        Arc::new(EventHub::default())
    }

    /// Appends one SSE block: the `event:` name and, as its `data:`
    /// payload, the JSON object `data` writes.
    pub fn push(&self, event: &str, data: impl FnOnce(&mut Object<'_>)) {
        let block = sse_block(event, data);
        let mut st = self.state.lock().expect("hub lock");
        if st.closed {
            return;
        }
        if st.events.len() >= MAX_EVENTS {
            if !st.truncated {
                st.truncated = true;
                st.events.push(sse_block("truncated", |o| {
                    o.bool("dropped", true);
                }));
            }
            return;
        }
        st.events.push(block);
        drop(st);
        self.cv.notify_all();
    }

    /// Appends a terminal block and closes the hub: subscribers drain
    /// what remains and disconnect; later pushes are ignored.
    pub fn finish(&self, event: &str, data: impl FnOnce(&mut Object<'_>)) {
        let block = sse_block(event, data);
        let mut st = self.state.lock().expect("hub lock");
        if st.closed {
            return;
        }
        // The terminal event always fits, even on a truncated stream.
        st.events.push(block);
        st.closed = true;
        drop(st);
        self.cv.notify_all();
    }

    /// `true` once [`EventHub::finish`] ran.
    pub fn is_closed(&self) -> bool {
        self.state.lock().expect("hub lock").closed
    }

    /// Blocks until more blocks than `from` exist or the hub closes;
    /// returns the new blocks and whether the stream is over. Subscriber
    /// loop: start at 0, write what you get, repeat until `closed` and
    /// nothing new.
    pub fn wait_from(&self, from: usize) -> (Vec<String>, bool) {
        let mut st = self.state.lock().expect("hub lock");
        while st.events.len() <= from && !st.closed {
            st = self.cv.wait(st).expect("hub lock");
        }
        let fresh = st.events.get(from..).unwrap_or(&[]).to_vec();
        (fresh, st.closed)
    }

    /// Blocks of the whole log so far (diagnostic/testing helper).
    pub fn snapshot(&self) -> Vec<String> {
        self.state.lock().expect("hub lock").events.clone()
    }
}

/// Formats one SSE block, `event: <name>\ndata: <payload>\n\n`, whose
/// payload is the JSON object `data` writes. The writer escapes every
/// newline, so the payload is always the single `data:` line SSE needs.
pub fn sse_block(event: &str, data: impl FnOnce(&mut Object<'_>)) -> String {
    let mut block = format!("event: {event}\ndata: ");
    data(&mut Object::new(&mut block));
    block.push_str("\n\n");
    block
}

/// [`TelemetrySink`] that forwards simulation telemetry into an
/// [`EventHub`] as the `telemetry` / `progress` SSE events.
#[derive(Debug)]
pub struct HubSink {
    hub: Arc<EventHub>,
    steps: u64,
}

impl HubSink {
    /// A sink feeding `hub`.
    pub fn new(hub: Arc<EventHub>) -> HubSink {
        HubSink { hub, steps: 0 }
    }
}

impl TelemetrySink for HubSink {
    fn record(&mut self, event: &Event<'_>) {
        match *event {
            Event::SpanBegin { name, .. } => self.hub.push("telemetry", |o| {
                o.str("type", "span_begin").str("name", name);
            }),
            Event::SpanEnd { name, .. } => self.hub.push("telemetry", |o| {
                o.str("type", "span_end").str("name", name);
            }),
            Event::Counter { name, delta } => self.hub.push("telemetry", |o| {
                o.str("type", "counter")
                    .str("name", name)
                    .u64("delta", delta);
            }),
            Event::Histogram { name, .. } => {
                // Sampled: one progress heartbeat per PROGRESS_EVERY
                // accepted steps. `tran.dt_seconds` observes once per
                // accepted step; the other per-step histograms would
                // count the same step again.
                if name != names::H_TRAN_DT {
                    return;
                }
                self.steps += 1;
                if self.steps.is_multiple_of(PROGRESS_EVERY) {
                    let steps = self.steps;
                    self.hub.push("progress", |o| {
                        o.u64("observations", steps);
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_then_live_then_close() {
        let hub = EventHub::new();
        hub.push("status", |o| {
            o.str("state", "queued");
        });
        let (first, closed) = hub.wait_from(0);
        assert_eq!(first.len(), 1);
        assert!(!closed);
        assert!(first[0].starts_with("event: status\ndata: "));

        hub.finish("done", |_| {});
        let (rest, closed) = hub.wait_from(1);
        assert_eq!(rest, vec!["event: done\ndata: {}\n\n"]);
        assert!(closed);
        // Pushes after close are ignored.
        hub.push("status", |_| {});
        assert_eq!(hub.snapshot().len(), 2);
    }

    #[test]
    fn histograms_are_sampled_not_forwarded() {
        let hub = EventHub::new();
        let mut sink = HubSink::new(hub.clone());
        for _ in 0..(PROGRESS_EVERY * 2) {
            sink.record(&Event::Histogram {
                name: "tran.dt_seconds",
                value: 1e-12,
            });
        }
        let events = hub.snapshot();
        assert_eq!(events.len(), 2, "one progress block per PROGRESS_EVERY");
        assert!(events[0].starts_with("event: progress\n"));
        assert!(events[1].contains("\"observations\":2048"));
    }

    #[test]
    fn progress_counts_accepted_steps_not_observations() {
        // Both steppers observe the step size and the step's Newton
        // iterations on every accepted step.
        let hub = EventHub::new();
        let mut sink = HubSink::new(hub.clone());
        for _ in 0..(PROGRESS_EVERY * 2) {
            sink.record(&Event::Histogram {
                name: names::H_TRAN_DT,
                value: 1e-12,
            });
            sink.record(&Event::Histogram {
                name: names::H_TRAN_STEP_ITERS,
                value: 2.0,
            });
        }
        let events = hub.snapshot();
        assert_eq!(
            events.len(),
            2,
            "one progress block per PROGRESS_EVERY steps"
        );
        assert!(events[0].contains("{\"observations\":1024}"), "{events:?}");
        assert!(events[1].contains("{\"observations\":2048}"), "{events:?}");
    }

    #[test]
    fn counters_and_spans_pass_through() {
        let hub = EventHub::new();
        let mut sink = HubSink::new(hub.clone());
        sink.record(&Event::SpanBegin {
            name: "transient",
            id: 1,
            t_ns: 0,
        });
        sink.record(&Event::Counter {
            name: "tran.steps_accepted",
            delta: 42,
        });
        sink.record(&Event::SpanEnd {
            name: "transient",
            id: 1,
            t_ns: 9,
            dur_ns: 9,
        });
        let events = hub.snapshot();
        assert_eq!(events.len(), 3);
        assert!(events[1].contains("\"delta\":42"));
        assert!(!events[1].contains("t_ns"), "wall-clock stays out of SSE");
    }

    #[test]
    fn truncation_is_marked_once_and_terminal_event_survives() {
        let hub = EventHub::new();
        for i in 0..(MAX_EVENTS + 10) {
            hub.push("telemetry", |o| {
                o.u64("i", i as u64);
            });
        }
        let n = hub.snapshot().len();
        assert_eq!(n, MAX_EVENTS + 1, "cap + one truncated marker");
        hub.finish("done", |_| {});
        assert_eq!(hub.snapshot().len(), n + 1);
    }
}
