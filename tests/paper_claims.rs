//! End-to-end integration tests asserting the paper's headline claims
//! hold in this reproduction (shape and rough factors, not the authors'
//! absolute 40 nm numbers).

use sfet_devices::ptm::PtmParams;
use sfet_numeric::exec::ExecConfig;
use sfet_pdn::io_buffer::IoBufferScenario;
use sfet_pdn::power_gate::PowerGateScenario;
use softfet::design_space::{tptm_sweep_with, vimt_vmit_grid_with};
use softfet::inverter::{InverterSpec, Topology};
use softfet::io_buffer::compare_io_buffer;
use softfet::metrics::measure_inverter;
use softfet::power_gate::compare_power_gate;

/// §III-B / Fig. 4: the Soft-FET inverter cuts both peak current and
/// di/dt substantially at the standard operating point.
#[test]
fn claim_soft_fet_cuts_imax_and_didt() {
    let base = measure_inverter(&InverterSpec::minimum(1.0, Topology::Baseline)).unwrap();
    let soft = measure_inverter(&InverterSpec::minimum(
        1.0,
        Topology::SoftFet(PtmParams::vo2_default()),
    ))
    .unwrap();
    let imax_cut = 1.0 - soft.i_max / base.i_max;
    let didt_cut = 1.0 - soft.di_dt / base.di_dt;
    assert!(imax_cut > 0.3, "I_MAX cut only {:.0}%", imax_cut * 100.0);
    assert!(didt_cut > 0.5, "di/dt cut only {:.0}%", didt_cut * 100.0);
}

/// §III-A: DC output levels are unperturbed by the PTM (unlike Hyper-FET).
#[test]
fn claim_dc_levels_unperturbed() {
    use sfet_sim::{transient, SimOptions};
    let spec = InverterSpec::minimum(1.0, Topology::SoftFet(PtmParams::vo2_default()));
    let ckt = spec.build().unwrap();
    let result = transient(&ckt, spec.t_stop, &SimOptions::default()).unwrap();
    let v_out = result.voltage("out").unwrap();
    // Full rail-to-rail output, no level degradation.
    assert!(v_out.first_value().abs() < 5e-3);
    assert!((v_out.last_value() - 1.0).abs() < 5e-3);
}

/// Fig. 5: at iso-I_MAX the Soft-FET has the smallest low-voltage delay
/// penalty; HVT degrades catastrophically at 0.6 V.
#[test]
fn claim_iso_imax_low_voltage_delay() {
    let cal = softfet::iso_imax::calibrate_iso_imax(PtmParams::vo2_default()).unwrap();
    let delay_of = |topo: Topology| {
        measure_inverter(&InverterSpec::minimum(0.6, topo).with_t_stop(6e-9))
            .unwrap()
            .delay
    };
    let soft = delay_of(Topology::SoftFet(PtmParams::vo2_default()));
    let hvt = delay_of(Topology::Hvt(cal.hvt_dvt));
    let stacked = delay_of(Topology::Stacked {
        n: 2,
        width_scale: cal.stack_width_scale,
    });
    assert!(
        hvt > 5.0 * soft,
        "HVT must blow up at 0.6 V: hvt {hvt:.3e} vs soft {soft:.3e}"
    );
    assert!(stacked > soft, "stacked slower than soft at low VCC");
}

/// Fig. 6: the I_MAX dip sits near V_IMT = 0.4 V and di/dt rises with
/// V_IMT.
#[test]
fn claim_design_space_shapes() {
    let (pts, _) = vimt_vmit_grid_with(
        &ExecConfig::from_env(),
        1.0,
        PtmParams::vo2_default(),
        &[0.3, 0.4, 0.5],
        &[0.1],
    )
    .unwrap();
    let by_vimt = |v: f64| pts.iter().find(|p| (p.v_imt - v).abs() < 1e-9).unwrap();
    let (p3, p4, p5) = (by_vimt(0.3), by_vimt(0.4), by_vimt(0.5));
    assert!(p4.i_max < p3.i_max && p4.i_max < p5.i_max, "dip at 0.4 V");
    // Paper: V_IMT = 0.3 fires an extra transition pair vs 0.4/0.5.
    assert!(p3.transitions > p4.transitions);
    // Paper: di/dt increases with V_IMT. In our model this holds from the
    // optimum upward (0.4 → 0.5); the double-transition 0.3 V case lands
    // higher than the paper's because its *second* transition fires close
    // to the rail (documented in EXPERIMENTS.md).
    assert!(
        p5.di_dt > p4.di_dt,
        "di/dt grows with V_IMT above the optimum"
    );
}

/// Fig. 8: many transitions at tiny T_PTM, fewer at large; I_MAX minimum
/// at a moderate T_PTM.
#[test]
fn claim_tptm_shapes() {
    let pts = tptm_sweep_with(
        &ExecConfig::from_env(),
        1.0,
        PtmParams::vo2_default(),
        &[1e-12, 8e-12, 40e-12],
    )
    .unwrap();
    assert!(
        pts[0].transitions >= pts[2].transitions,
        "transition count falls with T_PTM"
    );
    assert!(
        pts[1].i_max < pts[0].i_max && pts[1].i_max < pts[2].i_max,
        "I_MAX minimised at moderate T_PTM: {:?}",
        pts.iter().map(|p| p.i_max).collect::<Vec<_>>()
    );
    assert!(pts[2].di_dt < pts[0].di_dt, "di/dt falls with T_PTM");
}

/// Fig. 10: the Soft-FET power gate delivers roughly the paper's benefits —
/// ~2x lower inrush and tens of mV less droop.
#[test]
fn claim_power_gate_droop_mitigation() {
    let cmp = compare_power_gate(&PowerGateScenario::default(), PtmParams::vo2_default()).unwrap();
    assert!(
        cmp.droop_improvement_mv() > 10.0,
        "droop improvement only {:.1} mV",
        cmp.droop_improvement_mv()
    );
    assert!(
        cmp.current_reduction_factor() > 1.5,
        "inrush reduction only {:.2}x",
        cmp.current_reduction_factor()
    );
}

/// Fig. 11: SSN reduced by tens of percent with a meaningful
/// energy-efficiency gain.
#[test]
fn claim_io_buffer_ssn_and_energy() {
    let cmp = compare_io_buffer(&IoBufferScenario::default(), PtmParams::vo2_default()).unwrap();
    let ssn_cut = cmp.ssn_reduction_pct();
    assert!(
        (30.0..70.0).contains(&ssn_cut),
        "SSN reduction {ssn_cut:.1}% out of the paper's band"
    );
    let energy = cmp.energy_gain_pct(1.0);
    assert!(
        (5.0..12.0).contains(&energy),
        "energy gain {energy:.1}% out of the paper's band"
    );
}

/// §IV-B / Fig. 7: the Soft-FET's short-circuit charge stays on par with
/// the HVT and series-R variants (within 2x of baseline's).
#[test]
fn claim_short_circuit_charge_on_par() {
    let base = measure_inverter(&InverterSpec::minimum(1.0, Topology::Baseline)).unwrap();
    let soft = measure_inverter(&InverterSpec::minimum(
        1.0,
        Topology::SoftFet(PtmParams::vo2_default()),
    ))
    .unwrap();
    // Same load, same output charge.
    assert!((soft.q_out - base.q_out).abs() / base.q_out < 0.05);
    // Short-circuit charge comparable (the paper finds "on par").
    assert!(soft.q_sc < 2.0 * base.q_sc.max(1e-18));
}
