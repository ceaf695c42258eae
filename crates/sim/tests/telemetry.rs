//! The telemetry contract: counters in the event stream equal the stats
//! structs the analyses return, the JSONL stream is schema-valid, and
//! span levels gate what gets recorded.

use std::io::Write;
use std::sync::{Arc, Mutex};

use sfet_circuit::{Circuit, SourceWaveform};
use sfet_devices::ptm::PtmParams;
use sfet_sim::{dc_operating_point_with_stats, transient, transient_batch, BatchSpec, SimOptions};
use sfet_telemetry::{names, JsonlSink, Level, SharedAggregator, Telemetry};

/// RC low-pass driven by a step ramp: the tiniest circuit that exercises
/// the full transient loop (DC operating point, LTE step control, Newton).
fn rc_circuit() -> Circuit {
    let mut ckt = Circuit::new();
    let (inp, out, gnd) = (ckt.node("in"), ckt.node("out"), Circuit::ground());
    ckt.add_voltage_source("V1", inp, gnd, SourceWaveform::ramp(0.0, 1.0, 0.0, 1e-12))
        .unwrap();
    ckt.add_resistor("R1", inp, out, 1e3).unwrap();
    ckt.add_capacitor("C1", out, gnd, 1e-15).unwrap();
    ckt
}

/// PTM + capacitor staircase charger (the paper's Fig. 3 element): the
/// tiniest circuit that fires phase transitions during a transient.
fn staircase_circuit() -> Circuit {
    let mut ckt = Circuit::new();
    let (inp, vc, gnd) = (ckt.node("in"), ckt.node("vc"), Circuit::ground());
    ckt.add_voltage_source(
        "VIN",
        inp,
        gnd,
        SourceWaveform::ramp(0.0, 1.0, 10e-12, 30e-12),
    )
    .unwrap();
    ckt.add_ptm("P1", inp, vc, PtmParams::vo2_default())
        .unwrap();
    ckt.add_capacitor("C1", vc, gnd, 0.5e-15).unwrap();
    ckt
}

#[test]
fn aggregator_counters_match_transient_stats() {
    let agg = SharedAggregator::new();
    let opts = SimOptions::for_duration(10e-12, 200)
        .with_telemetry(Telemetry::with_level(agg.clone(), Level::Iteration));
    let result = transient(&rc_circuit(), 10e-12, &opts).unwrap();
    let stats = result.stats();
    let snap = agg.snapshot();

    assert_eq!(
        snap.counter(names::TRAN_STEPS_ACCEPTED),
        stats.steps_accepted as u64
    );
    assert_eq!(
        snap.counter(names::TRAN_STEPS_REJECTED),
        stats.steps_rejected as u64
    );
    assert_eq!(
        snap.counter(names::TRAN_NEWTON_ITERATIONS),
        stats.newton_iterations as u64
    );
    assert_eq!(
        snap.counter(names::TRAN_PTM_TRANSITIONS),
        stats.ptm_transitions as u64
    );
    assert_eq!(
        snap.counter("tran.solver.solves"),
        stats.solver.solves,
        "solver counters must mirror SolverStats"
    );
    assert_eq!(
        snap.counter("tran.solver.full_factorizations"),
        stats.solver.full_factorizations
    );
    assert_eq!(
        snap.counter("tran.solver.refactorizations"),
        stats.solver.refactorizations
    );

    // The initial operating point reports under dc.*, not tran.*.
    assert!(snap.counter("dc.solver.solves") > 0);

    // One dt observation and one iteration-count observation per accepted
    // step; the iteration histogram must sum back to the Newton total.
    let dt = snap.histogram(names::H_TRAN_DT).unwrap();
    assert_eq!(dt.count, stats.steps_accepted as u64);
    assert!(dt.min > 0.0 && dt.max.is_finite());
    let iters = snap.histogram(names::H_TRAN_STEP_ITERS).unwrap();
    assert_eq!(iters.count, stats.steps_accepted as u64);
    // Rejected attempts contribute Newton iterations but no histogram
    // sample, so the histogram sum is a lower bound — exact when nothing
    // was rejected.
    assert!(iters.sum as u64 <= stats.newton_iterations as u64);
    if stats.steps_rejected == 0 {
        assert_eq!(iters.sum as u64, stats.newton_iterations as u64);
    }

    // Span hierarchy at Iteration level: one analysis span, one timestep
    // span per attempt, at least one Newton iteration span per solve.
    assert_eq!(snap.span(names::SPAN_TRANSIENT).unwrap().count, 1);
    let steps = snap.span(names::SPAN_TIMESTEP).unwrap().count;
    assert!(
        steps >= stats.steps_accepted as u64,
        "every accepted step was bracketed by a timestep span"
    );
    assert!(snap.span(names::SPAN_NEWTON_ITER).unwrap().count >= stats.newton_iterations as u64);
}

#[test]
fn aggregator_counters_match_dc_stats() {
    let agg = SharedAggregator::new();
    let opts =
        SimOptions::default().with_telemetry(Telemetry::with_level(agg.clone(), Level::Analysis));
    let (_, stats) = dc_operating_point_with_stats(&rc_circuit(), &opts).unwrap();
    let snap = agg.snapshot();

    assert_eq!(
        snap.counter(names::DC_NEWTON_ITERATIONS),
        stats.newton_iterations as u64
    );
    assert_eq!(snap.counter("dc.solver.solves"), stats.solver.solves);
    assert_eq!(
        snap.counter("dc.solver.full_factorizations"),
        stats.solver.full_factorizations
    );
    assert_eq!(snap.span(names::SPAN_DC).unwrap().count, 1);
}

#[test]
fn ptm_transitions_reach_both_namespaces() {
    let agg = SharedAggregator::new();
    let opts = SimOptions::for_duration(120e-12, 500).with_telemetry(Telemetry::new(agg.clone()));
    let result = transient(&staircase_circuit(), 120e-12, &opts).unwrap();
    let stats = result.stats();
    let snap = agg.snapshot();

    assert!(stats.ptm_transitions > 0, "staircase must fire transitions");
    assert_eq!(
        snap.counter(names::TRAN_PTM_TRANSITIONS),
        stats.ptm_transitions as u64
    );
    // Every transition is either insulator→metal or metal→insulator; the
    // per-direction device counters may additionally include t=0 fires
    // from DC initialisation, hence >=.
    let imt = snap.counter(names::PTM_IMT_EVENTS);
    let mit = snap.counter(names::PTM_MIT_EVENTS);
    assert!(imt + mit >= stats.ptm_transitions as u64);
    assert!(imt > 0, "charging staircase must enter the metallic phase");
}

#[test]
fn analysis_level_gates_fine_spans_but_not_counters() {
    let agg = SharedAggregator::new();
    // Default level: Analysis. Timestep / Newton spans must be absent.
    let opts = SimOptions::for_duration(10e-12, 200).with_telemetry(Telemetry::new(agg.clone()));
    let result = transient(&rc_circuit(), 10e-12, &opts).unwrap();
    let snap = agg.snapshot();

    assert_eq!(snap.span(names::SPAN_TRANSIENT).unwrap().count, 1);
    assert!(snap.span(names::SPAN_TIMESTEP).is_none());
    assert!(snap.span(names::SPAN_NEWTON_ITER).is_none());
    // Counters are never level-gated.
    assert_eq!(
        snap.counter(names::TRAN_STEPS_ACCEPTED),
        result.stats().steps_accepted as u64
    );
}

/// A clonable `Write` target so the JSONL bytes survive the sink being
/// moved into the telemetry handle.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    fn contents(&self) -> String {
        String::from_utf8(self.0.lock().unwrap().clone()).unwrap()
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

/// Minimal field extraction for the hand-rolled JSONL schema (values in
/// this stream never contain escaped quotes).
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let tag = format!("\"{key}\":");
    let start = line.find(&tag)? + tag.len();
    let rest = &line[start..];
    if let Some(stripped) = rest.strip_prefix('"') {
        stripped.split('"').next()
    } else {
        rest.split([',', '}']).next()
    }
}

#[test]
fn jsonl_stream_is_schema_valid_and_totals_match() {
    let buf = SharedBuf::default();
    let sink = JsonlSink::new(buf.clone());
    let opts = SimOptions::for_duration(10e-12, 200).with_telemetry(Telemetry::new(sink));
    let result = transient(&rc_circuit(), 10e-12, &opts).unwrap();
    opts.telemetry.flush();

    let text = buf.contents();
    let lines: Vec<&str> = text.lines().collect();
    assert!(lines.len() > 2, "stream must contain events");

    // Header first, carrying the schema version.
    assert_eq!(field(lines[0], "type"), Some("header"));
    assert_eq!(
        field(lines[0], "schema"),
        Some(sfet_telemetry::SCHEMA_VERSION.to_string().as_str())
    );

    let mut accepted = 0u64;
    let mut newton = 0u64;
    for line in &lines {
        assert!(
            line.starts_with('{') && line.ends_with('}'),
            "malformed line: {line}"
        );
        let ty = field(line, "type").expect("every line carries a type");
        match ty {
            "header" | "histogram" => {}
            "span_begin" | "span_end" => {
                assert!(field(line, "name").is_some());
                assert!(field(line, "t_ns").is_some(), "timings enabled: {line}");
            }
            "counter" => {
                let name = field(line, "name").unwrap();
                let delta: u64 = field(line, "delta").unwrap().parse().unwrap();
                match name {
                    "tran.steps_accepted" => accepted += delta,
                    "tran.newton_iterations" => newton += delta,
                    _ => {}
                }
            }
            other => panic!("unknown event type {other:?} in {line}"),
        }
    }
    assert_eq!(accepted, result.stats().steps_accepted as u64);
    assert_eq!(newton, result.stats().newton_iterations as u64);
}

#[test]
fn disabled_telemetry_changes_nothing() {
    let agg = SharedAggregator::new();
    let traced = SimOptions::for_duration(10e-12, 200)
        .with_telemetry(Telemetry::with_level(agg.clone(), Level::Iteration));
    let plain = SimOptions::for_duration(10e-12, 200);
    let a = transient(&rc_circuit(), 10e-12, &traced).unwrap();
    let b = transient(&rc_circuit(), 10e-12, &plain).unwrap();
    assert_eq!(a.stats(), b.stats(), "observation must not perturb the run");
    assert_eq!(a.times(), b.times());
    assert!(!agg.snapshot().is_empty());
}

/// A batched lane runs the same stepper as `transient`, so at
/// `Level::Iteration` a one-lane batch writes the same event stream:
/// every `timestep` and `newton_iter` span, counter and histogram, in the
/// same order (timings stripped, since they are wall-clock).
#[test]
fn one_lane_batch_emits_the_transient_trace() {
    let trace = |batched: bool| {
        let buf = SharedBuf::default();
        let sink = JsonlSink::new(buf.clone()).with_timings(false);
        let opts = SimOptions::for_duration(120e-12, 500)
            .with_telemetry(Telemetry::with_level(sink, Level::Iteration));
        let ckt = staircase_circuit();
        if batched {
            let spec = BatchSpec {
                circuit: &ckt,
                tstop: 120e-12,
                opts: &opts,
            };
            transient_batch(&[spec]).pop().unwrap().unwrap();
        } else {
            transient(&ckt, 120e-12, &opts).unwrap();
        }
        opts.telemetry.flush();
        buf.contents()
    };
    let scalar = trace(false);
    assert!(scalar.contains(r#""name":"newton_iter""#), "{scalar}");
    assert!(scalar.contains(r#""name":"timestep""#));
    assert!(trace(true) == scalar, "one-lane batch trace differs");
}
