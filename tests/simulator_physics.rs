//! Cross-crate physics integration tests: conservation laws and analytic
//! references checked through the full netlist → simulate → measure
//! pipeline.

use sfet_circuit::{Circuit, SourceWaveform};
use sfet_devices::mosfet::MosfetModel;
use sfet_devices::ptm::PtmParams;
use sfet_sim::{transient, SimOptions};

/// Charge conservation: for an inverter transition, the charge leaving the
/// V_DD source equals the charge entering the load plus the charge sunk to
/// ground (through the NMOS ammeter), to integration accuracy.
#[test]
fn charge_conservation_through_inverter() {
    let mut ckt = Circuit::new();
    let vdd = ckt.node("vdd");
    let inp = ckt.node("in");
    let out = ckt.node("out");
    let vssm = ckt.node("vssm");
    let gnd = Circuit::ground();
    ckt.add_voltage_source("VDD", vdd, gnd, SourceWaveform::Dc(1.0))
        .unwrap();
    ckt.add_voltage_source("VSSM", vssm, gnd, SourceWaveform::Dc(0.0))
        .unwrap();
    ckt.add_voltage_source(
        "VIN",
        inp,
        gnd,
        SourceWaveform::ramp(1.0, 0.0, 20e-12, 30e-12),
    )
    .unwrap();
    ckt.add_mosfet(
        "MP",
        out,
        inp,
        vdd,
        vdd,
        MosfetModel::pmos_40nm(),
        240e-9,
        40e-9,
    )
    .unwrap();
    ckt.add_mosfet(
        "MN",
        out,
        inp,
        vssm,
        gnd,
        MosfetModel::nmos_40nm(),
        120e-9,
        40e-9,
    )
    .unwrap();
    let c_load = 2e-15;
    ckt.add_capacitor("CL", out, gnd, c_load).unwrap();

    let tstop = 400e-12;
    let r = transient(&ckt, tstop, &SimOptions::for_duration(tstop, 4000)).unwrap();

    // KCL integrated at the gate node: the only elements attached to `in`
    // besides VIN are the two MOSFET gates, so the charge absorbed by VIN
    // must equal the change of charge on the intrinsic gate capacitances
    // (computed independently from the node-voltage waveforms).
    let v_at = |name: &str| r.voltage(name).unwrap();
    let (v_g, v_out_wf, v_vdd, v_vssm) = (v_at("in"), v_at("out"), v_at("vdd"), v_at("vssm"));
    let dv = |a: &sfet_waveform::Waveform, b: &sfet_waveform::Waveform| {
        (a.last_value() - b.last_value()) - (a.first_value() - b.first_value())
    };
    let gnd0 = sfet_waveform::Waveform::from_samples(vec![0.0, tstop], vec![0.0, 0.0]).unwrap();
    let pcaps = sfet_devices::mosfet::gate_caps(&MosfetModel::pmos_40nm(), 240e-9, 40e-9);
    let ncaps = sfet_devices::mosfet::gate_caps(&MosfetModel::nmos_40nm(), 120e-9, 40e-9);
    let gate_dq = pcaps.cgs * dv(&v_g, &v_vdd)
        + pcaps.cgd * dv(&v_g, &v_out_wf)
        + pcaps.cgb * dv(&v_g, &v_vdd)
        + ncaps.cgs * dv(&v_g, &v_vssm)
        + ncaps.cgd * dv(&v_g, &v_out_wf)
        + ncaps.cgb * dv(&v_g, &gnd0);
    let q_vin = r.supply_current("VIN").unwrap().integral();
    assert!(
        (q_vin - gate_dq).abs() < 0.05 * gate_dq.abs().max(1e-18),
        "gate-node KCL violated: q_vin {q_vin:.3e} vs gate dQ {gate_dq:.3e}"
    );

    // The load receives exactly C * V_CC of charge for the full swing.
    let q_load = c_load * dv(&v_out_wf, &gnd0);
    assert!(
        (q_load - c_load).abs() < 0.05 * c_load,
        "full-swing load charge"
    );

    // Regression for the trapezoidal-ringing bug: long after the edge the
    // branch currents must sit at leakage level (pA..nA), not oscillate at
    // µA amplitude.
    let i_vdd = r.branch_current("VDD").unwrap();
    let tail = i_vdd.window(300e-12, tstop).unwrap();
    let (_, tail_peak) = tail.peak_abs();
    assert!(
        tail_peak < 1e-7,
        "steady-state VDD current should be leakage-level, got {tail_peak:.3e}"
    );
}

/// A source-free RC loop must decay, never gain energy, regardless of
/// integration method.
#[test]
fn rc_loop_passivity() {
    use sfet_numeric::integrate::Method;
    for method in [Method::BackwardEuler, Method::Trapezoidal, Method::Gear2] {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let gnd = Circuit::ground();
        ckt.add_capacitor_ic("C1", a, gnd, 1e-15, 1.0).unwrap();
        ckt.add_resistor("R1", a, gnd, 10e3).unwrap();
        let tstop = 100e-12;
        let opts = SimOptions::for_duration(tstop, 2000).with_method(method);
        let r = transient(&ckt, tstop, &opts).unwrap();
        let v = r.voltage("a").unwrap();
        let mut prev = v.first_value();
        assert!((prev - 1.0).abs() < 0.02, "IC applied ({method})");
        for (_, val) in v.iter() {
            assert!(
                val <= prev + 1e-9,
                "voltage must decay monotonically ({method})"
            );
            prev = val;
        }
        // tau = 10 ps: after 100 ps the cap is fully drained.
        assert!(v.last_value() < 1e-3);
    }
}

/// The PTM never conducts more than its metallic branch allows, and never
/// less than the insulating branch: resistance bounds hold throughout a
/// transient with events.
#[test]
fn ptm_resistance_bounds_hold() {
    let params = PtmParams::vo2_default();
    let mut ckt = Circuit::new();
    let inp = ckt.node("in");
    let mid = ckt.node("mid");
    let gnd = Circuit::ground();
    ckt.add_voltage_source(
        "VIN",
        inp,
        gnd,
        SourceWaveform::Pulse {
            v1: 0.0,
            v2: 1.0,
            delay: 10e-12,
            rise: 20e-12,
            fall: 20e-12,
            width: 100e-12,
            period: 250e-12,
        },
    )
    .unwrap();
    ckt.add_ptm("P1", inp, mid, params).unwrap();
    ckt.add_capacitor("C1", mid, gnd, 0.5e-15).unwrap();

    let tstop = 1e-9; // four pulse periods
    let r = transient(&ckt, tstop, &SimOptions::for_duration(tstop, 4000)).unwrap();
    let r_ptm = r.ptm_resistance("P1").unwrap();
    for (_, res) in r_ptm.iter() {
        assert!(
            res >= params.r_met * 0.999 && res <= params.r_ins * 1.001,
            "resistance {res} outside [R_MET, R_INS]"
        );
    }
    // Repeated pulsing produces repeated transitions.
    assert!(r.ptm_events("P1").unwrap().len() >= 4);
}

/// Parsed netlists simulate identically to builder-constructed circuits.
#[test]
fn parser_and_builder_agree() {
    let deck = "\
VDD vdd 0 DC 1.0
VIN in 0 PWL(0 1 20p 1 50p 0)
P1 in g VIMT=0.4 VMIT=0.1 RINS=500k RMET=5k TPTM=10p
M1 out g vdd vdd pmos40 W=240n L=40n
M2 out g 0 0 nmos40 W=120n L=40n
C1 out 0 2f
.end";
    let parsed = sfet_circuit::parse::parse_netlist(deck).unwrap();

    let mut built = Circuit::new();
    let vdd = built.node("vdd");
    let inp = built.node("in");
    let g = built.node("g");
    let out = built.node("out");
    let gnd = Circuit::ground();
    built
        .add_voltage_source("VDD", vdd, gnd, SourceWaveform::Dc(1.0))
        .unwrap();
    built
        .add_voltage_source(
            "VIN",
            inp,
            gnd,
            SourceWaveform::ramp(1.0, 0.0, 20e-12, 30e-12),
        )
        .unwrap();
    built
        .add_ptm("P1", inp, g, PtmParams::vo2_default())
        .unwrap();
    built
        .add_mosfet(
            "M1",
            out,
            g,
            vdd,
            vdd,
            MosfetModel::pmos_40nm(),
            240e-9,
            40e-9,
        )
        .unwrap();
    built
        .add_mosfet(
            "M2",
            out,
            g,
            gnd,
            gnd,
            MosfetModel::nmos_40nm(),
            120e-9,
            40e-9,
        )
        .unwrap();
    built.add_capacitor("C1", out, gnd, 2e-15).unwrap();

    let tstop = 400e-12;
    let opts = SimOptions::for_duration(tstop, 2000);
    let r1 = transient(&parsed.circuit, tstop, &opts).unwrap();
    let r2 = transient(&built, tstop, &opts).unwrap();
    let v1 = r1.voltage("out").unwrap();
    let v2 = r2.voltage("out").unwrap();
    for &t in &[50e-12, 100e-12, 200e-12, 390e-12] {
        assert!(
            (v1.value_at(t) - v2.value_at(t)).abs() < 5e-3,
            "at t={t:e}: {} vs {}",
            v1.value_at(t),
            v2.value_at(t)
        );
    }
    assert_eq!(
        r1.ptm_events("P1").unwrap().len(),
        r2.ptm_events("P1").unwrap().len()
    );
}

/// Determinism: the same circuit simulated twice produces bit-identical
/// results (the engine has no hidden state or randomness).
#[test]
fn simulation_is_deterministic() {
    let spec = softfet::inverter::InverterSpec::minimum(
        1.0,
        softfet::inverter::Topology::SoftFet(PtmParams::vo2_default()),
    );
    let a = softfet::metrics::measure_inverter(&spec).unwrap();
    let b = softfet::metrics::measure_inverter(&spec).unwrap();
    assert_eq!(a.i_max, b.i_max);
    assert_eq!(a.delay, b.delay);
    assert_eq!(a.transitions, b.transitions);
}

/// Signal names are listed in the circuit's order — nodes by MNA index,
/// branches and PTMs by element — so two runs of one power-gate circuit in
/// one process list them identically.
#[test]
fn signal_names_follow_circuit_order() {
    use sfet_circuit::{Element, NodeId};
    let scenario = sfet_pdn::power_gate::PowerGateScenario {
        t_stop: 6e-9,
        ..Default::default()
    }
    .with_soft_fet(PtmParams::vo2_default());
    let ckt = scenario.build().unwrap();
    let opts = SimOptions::for_duration(scenario.t_stop, 400);
    let names = |r: &sfet_sim::TranResult| -> (Vec<String>, Vec<String>, Vec<String>) {
        (
            r.node_names().map(str::to_owned).collect(),
            r.branch_names().map(str::to_owned).collect(),
            r.ptm_names().map(str::to_owned).collect(),
        )
    };
    let first = names(&transient(&ckt, scenario.t_stop, &opts).unwrap());
    let second = names(&transient(&ckt, scenario.t_stop, &opts).unwrap());
    assert_eq!(first, second, "the same sequence on every run");

    let nodes: Vec<String> = (1..ckt.node_count())
        .map(|i| ckt.node_name(NodeId::from_index(i)).to_owned())
        .collect();
    let branches: Vec<String> = ckt
        .elements()
        .iter()
        .filter(|e| e.has_branch_current())
        .map(|e| e.name().to_owned())
        .collect();
    let ptms: Vec<String> = ckt
        .elements()
        .iter()
        .filter(|e| matches!(e, Element::Ptm(_)))
        .map(|e| e.name().to_owned())
        .collect();
    assert_eq!(nodes.len(), 7);
    assert_eq!(branches.len(), 3);
    assert_eq!(first, (nodes, branches, ptms));
}
