//! Telemetry determinism across worker counts.
//!
//! The sweep engine only emits telemetry from the coordinator thread
//! after the join, and the JSONL sink can strip wall-clock timings, so a
//! traced sweep must produce **byte-identical** streams no matter how
//! many workers ran it. Per-task aggregation (each task folds its own
//! events, the caller merges in task-index order) must likewise be
//! worker-count-independent.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::{Arc, Mutex};

use sfet_circuit::{Circuit, SourceWaveform};
use sfet_numeric::exec::{par_map, ExecConfig, Task};
use sfet_sim::{transient, SimOptions};
use sfet_telemetry::{Aggregator, HistogramSummary, JsonlSink, SharedAggregator, Telemetry};

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
