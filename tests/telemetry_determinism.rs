//! Telemetry determinism across worker counts.
//!
//! The sweep engine only emits telemetry from the coordinator thread
//! after the join, and the JSONL sink can strip wall-clock timings, so a
//! traced sweep must produce **byte-identical** streams no matter how
//! many workers ran it. Per-task aggregation (each task folds its own
//! events, the caller merges in task-index order) must likewise be
//! worker-count-independent. Every line of such a stream is one JSON
//! value, whatever the event names hold.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::{Arc, Mutex};

use sfet_circuit::{Circuit, SourceWaveform};
use sfet_numeric::exec::{par_map, ExecConfig, Task};
use sfet_serve::json::Json;
use sfet_sim::{transient, SimOptions};
use sfet_telemetry::{
    Aggregator, Event, HistogramSummary, JsonlSink, Level, SharedAggregator, Telemetry,
    TelemetrySink,
};

/// A clonable `Write` target so the JSONL bytes survive the sink being
/// moved into the telemetry handle.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    fn contents(&self) -> Vec<u8> {
        self.0.lock().unwrap().clone()
    }
}

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn rc_circuit(r: f64) -> Circuit {
    let mut ckt = Circuit::new();
    let (inp, out, gnd) = (ckt.node("in"), ckt.node("out"), Circuit::ground());
    ckt.add_voltage_source("V1", inp, gnd, SourceWaveform::ramp(0.0, 1.0, 0.0, 1e-12))
        .unwrap();
    ckt.add_resistor("R1", inp, out, r).unwrap();
    ckt.add_capacitor("C1", out, gnd, 1e-15).unwrap();
    ckt
}

/// Runs a traced sweep and returns the raw JSONL bytes (timings
/// stripped).
fn traced_sweep_bytes(workers: usize) -> Vec<u8> {
    let buf = SharedBuf::default();
    let sink = JsonlSink::new(buf.clone()).with_timings(false);
    let cfg = ExecConfig::with_workers(workers).with_telemetry(Telemetry::new(sink));
    let items: Vec<f64> = (1..=24).map(|k| 500.0 + 100.0 * k as f64).collect();
    let (out, _) = par_map(
        &cfg,
        &items,
        Task::Each(&|_, _, &r| {
            // The tasks themselves stay silent: the coordinator-only
            // emission rule is what makes the stream worker-count-independent.
            let result = transient(&rc_circuit(r), 5e-12, &SimOptions::for_duration(5e-12, 100))?;
            Ok::<_, sfet_sim::SimError>(result.stats().steps_accepted)
        }),
    )
    .unwrap();
    assert_eq!(out.len(), items.len());
    cfg.telemetry().flush();
    buf.contents()
}

#[test]
fn jsonl_sweep_trace_is_bitwise_identical_across_worker_counts() {
    let serial = traced_sweep_bytes(1);
    assert!(!serial.is_empty());
    let text = String::from_utf8(serial.clone()).unwrap();
    assert!(
        !text.contains("t_ns") && !text.contains("dur_ns"),
        "timings must be stripped for reproducible streams"
    );
    assert!(text.contains("exec.tasks_completed"));
    for workers in [2, 8] {
        assert_eq!(
            traced_sweep_bytes(workers),
            serial,
            "stream diverged at {workers} workers"
        );
    }
}

/// Counter and histogram totals of an aggregator (span timings are
/// wall-clock and excluded by design).
type Totals = (BTreeMap<String, u64>, BTreeMap<String, HistogramSummary>);

fn totals(agg: &Aggregator) -> Totals {
    (
        agg.counters().map(|(k, v)| (k.to_owned(), v)).collect(),
        agg.histograms().map(|(k, v)| (k.to_owned(), *v)).collect(),
    )
}

/// Per-task aggregation: each task records into its own aggregator, the
/// caller merges the per-task results in task-index order.
fn per_task_rollup(workers: usize) -> Totals {
    let items: Vec<f64> = (1..=12).map(|k| 400.0 + 250.0 * k as f64).collect();
    let (per_task, _) = par_map(
        &ExecConfig::with_workers(workers),
        &items,
        Task::Each(&|_, _, &r| {
            let agg = SharedAggregator::new();
            let opts =
                SimOptions::for_duration(5e-12, 100).with_telemetry(Telemetry::new(agg.clone()));
            transient(&rc_circuit(r), 5e-12, &opts)?;
            Ok::<_, sfet_sim::SimError>(agg.snapshot())
        }),
    )
    .unwrap();
    let mut rollup = Aggregator::new();
    for task in &per_task {
        rollup.merge(task);
    }
    totals(&rollup)
}

#[test]
fn per_task_aggregation_rolls_up_identically_at_any_worker_count() {
    let reference = per_task_rollup(1);
    assert!(
        reference.0.get("tran.steps_accepted").copied().unwrap_or(0) > 0,
        "rollup must contain real work"
    );
    for workers in [2, 8] {
        assert_eq!(per_task_rollup(workers), reference, "workers = {workers}");
    }
}

/// Parses every line of a JSONL stream.
fn parse_lines(bytes: Vec<u8>) -> Vec<Json> {
    let text = String::from_utf8(bytes).unwrap();
    text.lines()
        .map(|line| Json::parse(line).unwrap_or_else(|e| panic!("{e} in {line}")))
        .collect()
}

#[test]
fn every_line_of_an_iteration_trace_is_json() {
    let buf = SharedBuf::default();
    let sink = JsonlSink::new(buf.clone()).with_timings(false);
    let opts = SimOptions::for_duration(5e-12, 100)
        .with_telemetry(Telemetry::with_level(sink, Level::Iteration));
    let result = transient(&rc_circuit(1e3), 5e-12, &opts).unwrap();
    opts.telemetry.flush();

    let lines = parse_lines(buf.contents());
    let field = |line: &Json, key: &str| line.get(key).cloned();
    assert_eq!(field(&lines[0], "type"), Some(Json::Str("header".into())));
    assert_eq!(field(&lines[0], "timings"), Some(Json::Bool(false)));
    let count = |ty: &str, name: &str| {
        lines
            .iter()
            .filter(|l| l.get("type").and_then(Json::as_str) == Some(ty))
            .filter(|l| l.get("name").and_then(Json::as_str) == Some(name))
            .count()
    };
    let steps = result.stats().steps_accepted;
    assert_eq!(count("histogram", "tran.dt_seconds"), steps);
    assert!(count("span_begin", "newton_iter") >= steps);
    assert_eq!(
        count("span_begin", "newton_iter"),
        count("span_end", "newton_iter")
    );
}

#[test]
fn jsonl_names_and_values_survive_a_parse() {
    let names = ["quote\"d", "back\\slash", "ctl\u{1}\n\t", "é😀"];
    let values = [2.0, -0.0, 1.5e-12, f64::MIN_POSITIVE, f64::MAX, f64::NAN];
    let mut sink = JsonlSink::new(Vec::new()).with_timings(true);
    for (id, name) in names.into_iter().enumerate() {
        let id = id as u64;
        sink.record(&Event::SpanBegin { name, id, t_ns: 7 });
        sink.record(&Event::Counter {
            name,
            delta: u64::MAX,
        });
        for value in values {
            sink.record(&Event::Histogram { name, value });
        }
        sink.record(&Event::SpanEnd {
            name,
            id,
            t_ns: 9,
            dur_ns: 2,
        });
    }
    sink.flush();

    let lines = parse_lines(sink.into_inner());
    assert_eq!(lines.len(), 1 + names.len() * (3 + values.len()));
    for (k, name) in names.into_iter().enumerate() {
        let events = &lines[1 + k * (3 + values.len())..][..3 + values.len()];
        for event in events {
            assert_eq!(event.get("name").and_then(Json::as_str), Some(name));
        }
        assert_eq!(events[0].get("t_ns").and_then(Json::as_f64), Some(7.0));
        let last = &events[2 + values.len()];
        assert_eq!(last.get("dur_ns").and_then(Json::as_f64), Some(2.0));
        for (event, value) in events[2..].iter().zip(values) {
            let parsed = event.get("value").unwrap();
            match parsed.as_f64() {
                Some(v) => assert_eq!(v.to_bits(), value.to_bits(), "{name}"),
                None => assert!(value.is_nan() && *parsed == Json::Null),
            }
        }
    }
}
