//! One stepper: a lane of `transient_batch` is the same run as
//! `transient` of the same input, fault injection included. Three Fig. 3
//! staircase lanes share one batch — clean, a forced Newton failure at
//! step 10 (`newton@10`), and NaN-poisoned solves from step 10 on
//! (`nan@10`) — and each must come back exactly as its own `transient`
//! call does.

use sfet_circuit::{Circuit, SourceWaveform};
use sfet_devices::ptm::PtmParams;
use sfet_numeric::fault::FaultPlan;
use sfet_sim::{transient, transient_batch, BatchSpec, SimError, SimOptions, TranResult};

/// The paper's Fig. 3 element: a PTM charging a capacitor from a ramp.
fn staircase() -> Circuit {
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

fn assert_bitwise(batched: &TranResult, scalar: &TranResult, lane: &str) {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(batched.times()), bits(scalar.times()), "{lane}: times");
    let mut nodes: Vec<&str> = scalar.node_names().collect();
    nodes.sort_unstable();
    assert!(!nodes.is_empty());
    for node in nodes {
        assert_eq!(
            bits(batched.voltage(node).unwrap().values()),
            bits(scalar.voltage(node).unwrap().values()),
            "{lane}: v({node})"
        );
    }
    assert_eq!(batched.stats(), scalar.stats(), "{lane}: stats");
}

#[test]
fn batched_lanes_equal_transient_with_and_without_faults() {
    let ckt = staircase();
    let tstop = 300e-12;
    let base = SimOptions::for_duration(tstop, 600);
    let lanes = [
        ("clean", base.clone()),
        (
            "newton@10",
            base.clone()
                .with_fault_plan(FaultPlan::new().with_newton_failure(10)),
        ),
        (
            "nan@10",
            base.clone()
                .with_fault_plan(FaultPlan::new().with_nan_from(10)),
        ),
    ];
    let specs: Vec<BatchSpec<'_>> = lanes
        .iter()
        .map(|(_, opts)| BatchSpec {
            circuit: &ckt,
            tstop,
            opts,
        })
        .collect();
    let batched = transient_batch(&specs);
    assert_eq!(batched.len(), lanes.len());

    for ((name, opts), got) in lanes.iter().zip(&batched) {
        match (got, transient(&ckt, tstop, opts)) {
            (Ok(b), Ok(s)) => assert_bitwise(b, &s, name),
            (Err(b), Err(s)) => assert_eq!(b, &s, "{name}: error"),
            (b, s) => panic!(
                "{name}: batched error {:?} but transient error {:?}",
                b.as_ref().err(),
                s.err()
            ),
        }
    }
    assert!(batched[0].is_ok() && batched[1].is_ok());
    assert!(
        matches!(batched[2], Err(SimError::Numeric(_))),
        "nan@10 ends in a named non-finite error: {:?}",
        batched[2].as_ref().err()
    );
}
