//! Integration tests for the beyond-the-paper extensions: multi-cell
//! Soft-FETs, noise-margin preservation, PDN impedance, and Monte-Carlo
//! variation.

use sfet_circuit::{Circuit, SourceWaveform};
use sfet_devices::mosfet::MosfetModel;
use sfet_devices::ptm::PtmParams;
use sfet_numeric::exec::ExecConfig;
use sfet_pdn::PdnParams;
use sfet_sim::{dc_sweep, SimOptions};
use sfet_waveform::measure::noise_margins;
use softfet::cells::{measure_gate, ChainSpec, GateKind, GateSpec};
use softfet::variation::{imax_sensitivities_with, monte_carlo_imax_with, PtmVariation};

fn inverter_circuit(with_ptm: bool) -> Circuit {
    let mut ckt = Circuit::new();
    let vdd = ckt.node("vdd");
    let inp = ckt.node("in");
    let g = ckt.node("g");
    let out = ckt.node("out");
    let gnd = Circuit::ground();
    ckt.add_voltage_source("VDD", vdd, gnd, SourceWaveform::Dc(1.0))
        .unwrap();
    ckt.add_voltage_source("VIN", inp, gnd, SourceWaveform::Dc(0.0))
        .unwrap();
    if with_ptm {
        ckt.add_ptm("P1", inp, g, PtmParams::vo2_default()).unwrap();
    } else {
        ckt.add_resistor("R1", inp, g, 0.1).unwrap();
    }
    ckt.add_mosfet(
        "MP",
        out,
        g,
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
        g,
        gnd,
        gnd,
        MosfetModel::nmos_40nm(),
        120e-9,
        40e-9,
    )
    .unwrap();
    ckt.add_capacitor("CL", out, gnd, 2e-15).unwrap();
    ckt
}

/// §III-A quantified end-to-end: the Soft-FET's static noise margins equal
/// the baseline's through the full sweep + measurement pipeline.
#[test]
fn noise_margins_preserved_by_ptm() {
    let points: Vec<f64> = (0..=80).map(|k| k as f64 / 80.0).collect();
    let nm = |with_ptm: bool| {
        let sweep = dc_sweep(
            &inverter_circuit(with_ptm),
            "VIN",
            &points,
            &SimOptions::default(),
        )
        .unwrap();
        noise_margins(&sweep.transfer_curve("out").unwrap()).unwrap()
    };
    let base = nm(false);
    let soft = nm(true);
    assert!((base.v_m - soft.v_m).abs() < 1e-3, "V_M shifted");
    assert!((base.nm_l - soft.nm_l).abs() < 2e-3, "NM_L changed");
    assert!((base.nm_h - soft.nm_h).abs() < 2e-3, "NM_H changed");
}

/// The Soft-FET mechanism generalises beyond the inverter: both NAND2 and
/// NOR2 show a ≥25 % switching-rail peak-current cut.
#[test]
fn soft_switching_generalises_to_gates() {
    for kind in [GateKind::Nand2, GateKind::Nor2] {
        let base = measure_gate(&GateSpec::minimum(1.0, kind, None)).unwrap();
        let soft = measure_gate(&GateSpec::minimum(
            1.0,
            kind,
            Some(PtmParams::vo2_default()),
        ))
        .unwrap();
        let cut = 1.0 - soft.i_max / base.i_max;
        assert!(
            cut > 0.25,
            "{}: only {:.0}% I_MAX cut",
            kind.label(),
            cut * 100.0
        );
    }
}

/// A Soft-FET first stage must not break multi-stage timing: the chain
/// still propagates, with bounded extra delay.
#[test]
fn chain_timing_bounded() {
    let (_, d_base, _) = ChainSpec::new(1.0, 4, None).measure().unwrap();
    let (_, d_soft, transitions) = ChainSpec::new(1.0, 4, Some(PtmParams::vo2_default()))
        .measure()
        .unwrap();
    assert!(transitions >= 1);
    assert!(d_soft > d_base);
    assert!(
        d_soft < d_base + 100e-12,
        "soft first stage adds {:.1} ps",
        (d_soft - d_base) * 1e12
    );
}

/// The PDN impedance peak sits at the package anti-resonance and the
/// profile is low on both sides — the frequency-domain reason the paper's
/// droop mitigation works.
#[test]
fn pdn_impedance_shape() {
    let pdn = PdnParams::default();
    let f0 = pdn.resonance_frequency();
    let freqs = [f0 / 30.0, f0, f0 * 30.0];
    let profile = pdn
        .impedance_profile_with(&ExecConfig::from_env(), &freqs)
        .unwrap();
    assert!(profile[1].1 > 3.0 * profile[0].1, "peak above low side");
    assert!(profile[1].1 > 3.0 * profile[2].1, "peak above high side");
}

/// Monte-Carlo distribution statistics are internally consistent and the
/// sensitivity ranking is dominated by the thresholds near the optimum.
#[test]
fn variation_study_consistent() {
    let base = PtmParams::vo2_default();
    let cfg = ExecConfig::from_env();
    let mc =
        monte_carlo_imax_with(&cfg, 1.0, base, &PtmVariation::default(), 12, 7, 120e-6).unwrap();
    assert_eq!(mc.samples, 12);
    assert!(mc.min_i_max > 0.0);
    assert!(mc.std_i_max < mc.mean_i_max, "spread below mean scale");
    assert!(
        mc.yield_fraction > 0.5,
        "most samples within a 120 uA budget"
    );

    let sens = imax_sensitivities_with(&cfg, 1.0, base, 0.05).unwrap();
    let mag = |name: &str| {
        sens.iter()
            .find(|(n, _)| *n == name)
            .expect("param present")
            .1
            .abs()
    };
    // Around the Fig. 6 optimum V_IMT moves I_MAX far more than the
    // metallic resistance does.
    assert!(
        mag("v_imt") > mag("r_met"),
        "v_imt {} vs r_met {}",
        mag("v_imt"),
        mag("r_met")
    );
}
