//! Bit pins for the analyses that share the damped Newton update, the PTM
//! firing pass and the signal index: a DC operating point the update
//! damps, a DC sweep that fires a PTM's IMT and then its MIT, and an AC
//! sweep. Each pin is the FNV-1a of the `f64::to_bits` of every value the
//! analysis returns, in order.
//!
//! The circuits are linear, no PTM is read mid-transition and no input
//! goes through `powf` or `exp`, so every value comes from basic IEEE
//! arithmetic and no platform's libm can move a pin.

use sfet_circuit::{Circuit, SourceWaveform};
use sfet_devices::ptm::PtmParams;
use sfet_numeric::fnv1a;
use sfet_sim::{ac_sweep, dc_operating_point_with_stats, dc_sweep, SimOptions};

/// FNV-1a over the little-endian bits of `values`.
fn bits_pin(values: impl IntoIterator<Item = f64>) -> u64 {
    let bytes: Vec<u8> = values
        .into_iter()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .collect();
    fnv1a(&bytes)
}

fn assert_pin(what: &str, got: u64, want: u64) {
    assert_eq!(got, want, "{what} bits changed: now {got:#018x}");
}

/// A 2 V source, a ×3 VCVS and a ×4 CCCS: the 6 V and 4 V nodes are far
/// beyond `max_newton_step` (0.3 V) from the zero start, so DC Newton
/// crawls toward them damped before its last, undamped iterations.
#[test]
fn dc_operating_point_damped_by_max_newton_step_is_pinned() {
    let mut ckt = Circuit::new();
    let [inp, amp, out] = ["in", "amp", "out"].map(|n| ckt.node(n));
    let g = Circuit::ground();
    ckt.add_voltage_source("V1", inp, g, SourceWaveform::Dc(2.0))
        .unwrap();
    ckt.add_resistor("R1", inp, g, 1e3).unwrap();
    ckt.add_vcvs("E1", amp, g, inp, g, 3.0).unwrap();
    ckt.add_resistor("RL", amp, g, 2e3).unwrap();
    ckt.add_cccs("F1", out, g, "V1", 4.0).unwrap();
    ckt.add_resistor("RF", out, g, 500.0).unwrap();
    let opts = SimOptions::default();
    assert!(6.0 > 10.0 * opts.max_newton_step, "the update must damp");

    let (x, stats) = dc_operating_point_with_stats(&ckt, &opts).unwrap();
    assert_eq!(x.len(), 5, "3 nodes, then i(V1) and i(E1)");
    assert!((x[1] - 6.0).abs() < 1e-9 && (x[2] - 4.0).abs() < 1e-9);
    assert_pin(
        "DC solution",
        bits_pin(x.iter().copied()),
        0x041d_aa2f_6b11_fcad,
    );

    assert_eq!(stats.newton_iterations, 21, "Newton iterations");
    let s = stats.solver;
    let counts = [
        s.full_factorizations,
        s.refactorizations,
        s.solves,
        s.pattern_rebuilds,
        s.pivot_fallbacks,
        s.factor_nnz as u64,
        s.gmres_iterations,
        s.gmres_restarts,
        s.gmres_fallbacks,
    ];
    assert_eq!(counts, [21, 0, 21, 0, 0, 25, 0, 0, 0], "solver counters");
}

/// The source–PTM–resistor loop of the DC sweep's hysteresis test, swept
/// up to 1 V and back down: IMT fires on the way up, MIT on the way down,
/// and each transition completes at once.
#[test]
fn dc_sweep_through_ptm_hysteresis_is_pinned() {
    let mut ckt = Circuit::new();
    let a = ckt.node("a");
    let mid = ckt.node("mid");
    let g = Circuit::ground();
    ckt.add_voltage_source("V1", a, g, SourceWaveform::Dc(0.0))
        .unwrap();
    ckt.add_ptm("P1", a, mid, PtmParams::vo2_default()).unwrap();
    ckt.add_resistor("R1", mid, g, 1.0).unwrap();
    let mut points: Vec<f64> = (0..=20).map(|k| k as f64 * 0.05).collect();
    points.extend((0..=20).rev().map(|k| k as f64 * 0.05));

    let sweep = dc_sweep(&ckt, "V1", &points, &SimOptions::default()).unwrap();
    assert_eq!(sweep.swept_values(), &points[..]);
    let k = 0..points.len();
    let column = |f: &dyn Fn(usize) -> f64| k.clone().map(f).collect::<Vec<f64>>();
    let v_a = column(&|k| sweep.voltage_at("a", k).unwrap());
    let v_mid = column(&|k| sweep.voltage_at("mid", k).unwrap());
    let i_v1 = column(&|k| sweep.branch_at("V1", k).unwrap());
    // Insulating at 0.25 V on the way up, metallic at 0.25 V on the way down.
    assert!(i_v1[36].abs() > 10.0 * i_v1[5].abs());

    assert_pin("v(a)", bits_pin(v_a), 0xfe42_a912_f497_8051);
    assert_pin("v(mid)", bits_pin(v_mid), 0x0953_e1c6_2437_32c4);
    assert_pin("i(V1)", bits_pin(i_v1), 0x2905_790d_5205_dd4c);
}

/// A series RLC driven by a unit AC source over a literal frequency list.
#[test]
fn ac_sweep_of_series_rlc_is_pinned() {
    let mut ckt = Circuit::new();
    let [a, m1, out] = ["a", "m1", "out"].map(|n| ckt.node(n));
    let g = Circuit::ground();
    ckt.add_voltage_source("V1", a, g, SourceWaveform::Dc(0.0))
        .unwrap();
    ckt.add_resistor("R1", a, m1, 1.0).unwrap();
    ckt.add_inductor("L1", m1, out, 1e-9).unwrap();
    ckt.add_capacitor("C1", out, g, 1e-12).unwrap();
    // f0 = 1 / (2π √(LC)) ≈ 5.03 GHz.
    let freqs = [1e8, 1e9, 4e9, 5e9, 5.5e9, 1e10, 1e11];

    let res = ac_sweep(&ckt, "V1", &freqs, &SimOptions::default()).unwrap();
    assert_eq!(res.frequencies(), &freqs[..]);
    for (node, want) in [
        ("a", 0x1445_4c96_62bb_09f8),
        ("m1", 0xd0cb_a64a_e4b5_088c),
        ("out", 0x83a3_8218_effd_9555),
    ] {
        let phasors = res.phasors(node).unwrap();
        let values = phasors.iter().flat_map(|z| [z.re, z.im]);
        assert_pin(&format!("v({node}) phasors"), bits_pin(values), want);
    }
}
