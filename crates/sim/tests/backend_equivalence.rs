//! The dense and sparse MNA backends must produce equivalent results on
//! every circuit class the experiments use.

use sfet_circuit::{Circuit, SourceWaveform};
use sfet_devices::mosfet::MosfetModel;
use sfet_devices::ptm::PtmParams;
use sfet_sim::{dc_operating_point, dc_sweep, transient, LinearSolver, SimOptions};

fn soft_inverter() -> Circuit {
    let mut ckt = Circuit::new();
    let vdd = ckt.node("vdd");
    let inp = ckt.node("in");
    let g = ckt.node("g");
    let out = ckt.node("out");
    let gnd = Circuit::ground();
    ckt.add_voltage_source("VDD", vdd, gnd, SourceWaveform::Dc(1.0))
        .unwrap();
    ckt.add_voltage_source(
        "VIN",
        inp,
        gnd,
        SourceWaveform::ramp(1.0, 0.0, 20e-12, 30e-12),
    )
    .unwrap();
    ckt.add_ptm("P1", inp, g, PtmParams::vo2_default()).unwrap();
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

#[test]
fn dc_backends_agree_on_soft_inverter() {
    let ckt = soft_inverter();
    let xd = dc_operating_point(
        &ckt,
        &SimOptions::default().with_solver(LinearSolver::Dense),
    )
    .unwrap();
    let xs = dc_operating_point(
        &ckt,
        &SimOptions::default().with_solver(LinearSolver::Sparse),
    )
    .unwrap();
    assert_eq!(xd.len(), xs.len());
    for (a, b) in xd.iter().zip(&xs) {
        assert!((a - b).abs() < 1e-7, "dense {a} vs sparse {b}");
    }
}

#[test]
fn transient_backends_agree_on_soft_inverter() {
    let ckt = soft_inverter();
    let tstop = 400e-12;
    let base = SimOptions::for_duration(tstop, 2000);
    let rd = transient(&ckt, tstop, &base.clone().with_solver(LinearSolver::Dense)).unwrap();
    let rs = transient(&ckt, tstop, &base.with_solver(LinearSolver::Sparse)).unwrap();
    let vd = rd.voltage("out").unwrap();
    let vs = rs.voltage("out").unwrap();
    for k in 0..=40 {
        let t = tstop * k as f64 / 40.0;
        assert!(
            (vd.value_at(t) - vs.value_at(t)).abs() < 1e-4,
            "at {t:e}: dense {} vs sparse {}",
            vd.value_at(t),
            vs.value_at(t)
        );
    }
    assert_eq!(
        rd.ptm_events("P1").unwrap().len(),
        rs.ptm_events("P1").unwrap().len(),
        "same transition count"
    );
}

/// Step-by-step agreement over a full PTM transient: both backends solve
/// the same sequence of Newton systems, so with matching step controllers
/// every accepted time point must agree to solver precision (≤ 1e-9),
/// far tighter than the interpolated spot checks above.
#[test]
fn ptm_transient_backends_agree_per_step() {
    let ckt = soft_inverter();
    let tstop = 400e-12;
    let base = SimOptions::for_duration(tstop, 2000);
    let rd = transient(&ckt, tstop, &base.clone().with_solver(LinearSolver::Dense)).unwrap();
    let rs = transient(&ckt, tstop, &base.with_solver(LinearSolver::Sparse)).unwrap();
    assert_eq!(
        rd.times().len(),
        rs.times().len(),
        "backends took different step sequences"
    );
    for (td, ts) in rd.times().iter().zip(rs.times()) {
        assert_eq!(td, ts, "time axes diverged");
    }
    let vd = rd.voltage("out").unwrap();
    let vs = rs.voltage("out").unwrap();
    for (k, (a, b)) in vd.values().iter().zip(vs.values()).enumerate() {
        assert!(
            (a - b).abs() <= 1e-9,
            "step {k} (t = {:e}): dense {a} vs sparse {b}",
            rd.times()[k]
        );
    }
}

/// Builds an `n x n` on-die power-grid mesh with a step load — the
/// PDN-class testbench. All-linear and diagonally dominant, so LU pivot
/// selection is value-independent and the factorisation-reuse path is
/// exactly reproducible.
fn pdn_grid(n: usize) -> Circuit {
    let mut ckt = Circuit::new();
    let gnd = Circuit::ground();
    let vrm = ckt.node("vrm");
    ckt.add_voltage_source("VRM", vrm, gnd, SourceWaveform::Dc(1.0))
        .unwrap();
    let node = |ckt: &mut Circuit, i: usize, j: usize| ckt.node(&format!("g{i}_{j}"));
    let corner = node(&mut ckt, 0, 0);
    ckt.add_resistor("Rfeed", vrm, corner, 0.05).unwrap();
    for i in 0..n {
        for j in 0..n {
            let here = node(&mut ckt, i, j);
            if i + 1 < n {
                let down = node(&mut ckt, i + 1, j);
                ckt.add_resistor(&format!("Rv{i}_{j}"), here, down, 0.1)
                    .unwrap();
            }
            if j + 1 < n {
                let right = node(&mut ckt, i, j + 1);
                ckt.add_resistor(&format!("Rh{i}_{j}"), here, right, 0.1)
                    .unwrap();
            }
            ckt.add_capacitor(&format!("C{i}_{j}"), here, gnd, 1e-12)
                .unwrap();
        }
    }
    let far = node(&mut ckt, n - 1, n - 1);
    ckt.add_current_source(
        "Iload",
        far,
        gnd,
        SourceWaveform::ramp(0.0, 0.1, 1e-9, 0.2e-9),
    )
    .unwrap();
    ckt
}

/// The factorisation-reuse path must be bitwise-identical to fresh
/// factorisation when the pivot order is stable: the sparse refactor
/// applies the same arithmetic in the same order as the full factor, so
/// on the (diagonally dominant) PDN grid toggling reuse may not change a
/// single bit of the trajectory — a sweep of hundreds of timesteps, each
/// with a different companion-model conductance `C/dt`.
#[test]
fn factor_reuse_is_bitwise_identical_to_fresh() {
    let ckt = pdn_grid(6);
    let tstop = 5e-9;
    let base = SimOptions::for_duration(tstop, 500).with_solver(LinearSolver::Sparse);
    let r_reuse = transient(&ckt, tstop, &base.clone().with_factor_reuse(true)).unwrap();
    let r_fresh = transient(&ckt, tstop, &base.with_factor_reuse(false)).unwrap();
    assert_eq!(r_reuse.times().len(), r_fresh.times().len());
    for (a, b) in r_reuse.times().iter().zip(r_fresh.times()) {
        assert_eq!(a.to_bits(), b.to_bits(), "time axes diverged");
    }
    for node in ["g0_0", "g5_5", "g2_3"] {
        let va = r_reuse.voltage(node).unwrap();
        let vb = r_fresh.voltage(node).unwrap();
        for (k, (a, b)) in va.values().iter().zip(vb.values()).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "v({node}) step {k}: reuse {a} vs fresh {b}"
            );
        }
    }
    // The reuse run must actually have exercised the refactor path.
    let stats = r_reuse.stats().solver;
    assert!(
        stats.refactorizations > stats.full_factorizations,
        "reuse run barely reused: {stats:?}"
    );
    assert_eq!(
        r_fresh.stats().solver.refactorizations,
        0,
        "fresh run must not reuse"
    );
}

/// On nonlinear circuits a fresh factorisation may legitimately pick
/// different pivots than the frozen reuse order (MOSFET conductances move
/// by decades), so the guarantee weakens from bitwise to solver
/// precision — still orders of magnitude below Newton tolerance.
#[test]
fn soft_inverter_reuse_matches_fresh_within_solver_precision() {
    let ckt = soft_inverter();
    let tstop = 400e-12;
    let base = SimOptions::for_duration(tstop, 2000).with_solver(LinearSolver::Sparse);
    let r_reuse = transient(&ckt, tstop, &base.clone().with_factor_reuse(true)).unwrap();
    let r_fresh = transient(&ckt, tstop, &base.with_factor_reuse(false)).unwrap();
    assert_eq!(r_reuse.times().len(), r_fresh.times().len());
    let va = r_reuse.voltage("out").unwrap();
    let vb = r_fresh.voltage("out").unwrap();
    for (k, (a, b)) in va.values().iter().zip(vb.values()).enumerate() {
        assert!((a - b).abs() <= 1e-9, "step {k}: reuse {a} vs fresh {b}");
    }
    assert!(r_reuse.stats().solver.refactorizations > 0);
}

/// Same bitwise guarantee across a DC sweep, where one workspace carries
/// the pattern and factors through every bias point — including across
/// the PTM's insulator↔metal resistance flips.
#[test]
fn dc_sweep_reuse_is_bitwise_identical_to_fresh() {
    let mut ckt = Circuit::new();
    let a = ckt.node("a");
    let mid = ckt.node("mid");
    let gnd = Circuit::ground();
    ckt.add_voltage_source("V1", a, gnd, SourceWaveform::Dc(0.0))
        .unwrap();
    ckt.add_ptm("P1", a, mid, PtmParams::vo2_default()).unwrap();
    ckt.add_resistor("R1", mid, gnd, 1.0).unwrap();
    let up: Vec<f64> = (0..=20).map(|k| k as f64 * 0.05).collect();
    let down: Vec<f64> = (0..=20).rev().map(|k| k as f64 * 0.05).collect();
    let mut points = up;
    points.extend(&down);
    let base = SimOptions::default().with_solver(LinearSolver::Sparse);
    let s_reuse = dc_sweep(&ckt, "V1", &points, &base.clone().with_factor_reuse(true)).unwrap();
    let s_fresh = dc_sweep(&ckt, "V1", &points, &base.with_factor_reuse(false)).unwrap();
    for k in 0..points.len() {
        for node in ["a", "mid"] {
            let a = s_reuse.voltage_at(node, k).unwrap();
            let b = s_fresh.voltage_at(node, k).unwrap();
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "v({node}) at point {k}: reuse {a} vs fresh {b}"
            );
        }
    }
}

#[test]
fn sparse_backend_handles_pdn_scale_grid() {
    // A 10x10 on-die power-grid mesh with a step load: 100 nodes.
    let n = 10usize;
    let mut ckt = Circuit::new();
    let gnd = Circuit::ground();
    let vrm = ckt.node("vrm");
    ckt.add_voltage_source("VRM", vrm, gnd, SourceWaveform::Dc(1.0))
        .unwrap();
    let node = |ckt: &mut Circuit, i: usize, j: usize| ckt.node(&format!("g{i}_{j}"));
    // Feed corner, resistive mesh, decap at every node.
    let corner = node(&mut ckt, 0, 0);
    ckt.add_resistor("Rfeed", vrm, corner, 0.05).unwrap();
    for i in 0..n {
        for j in 0..n {
            let here = node(&mut ckt, i, j);
            if i + 1 < n {
                let down = node(&mut ckt, i + 1, j);
                ckt.add_resistor(&format!("Rv{i}_{j}"), here, down, 0.1)
                    .unwrap();
            }
            if j + 1 < n {
                let right = node(&mut ckt, i, j + 1);
                ckt.add_resistor(&format!("Rh{i}_{j}"), here, right, 0.1)
                    .unwrap();
            }
            ckt.add_capacitor(&format!("C{i}_{j}"), here, gnd, 1e-12)
                .unwrap();
        }
    }
    // Load step at the far corner.
    let far = node(&mut ckt, n - 1, n - 1);
    ckt.add_current_source(
        "Iload",
        far,
        gnd,
        SourceWaveform::ramp(0.0, 0.1, 1e-9, 0.2e-9),
    )
    .unwrap();

    let tstop = 5e-9;
    let opts = SimOptions::for_duration(tstop, 500).with_solver(LinearSolver::Sparse);
    let r = transient(&ckt, tstop, &opts).unwrap();
    let v_far = r.voltage(&format!("g{}_{}", n - 1, n - 1)).unwrap();
    // IR drop: ~100 mA across a mesh of ~2 ohm effective = visible sag.
    assert!(v_far.last_value() < 0.999);
    assert!(v_far.last_value() > 0.5, "grid still delivers");
    // Cross-check the end state against the dense backend, pinned: the
    // size dispatch would send this 102-unknown grid to sparse LU.
    let rd = transient(
        &ckt,
        tstop,
        &SimOptions::for_duration(tstop, 500).with_solver(LinearSolver::Dense),
    )
    .unwrap();
    assert_eq!(rd.stats().solver.factor_nnz, 102 * 102, "dense arm");
    let vd_far = rd.voltage(&format!("g{}_{}", n - 1, n - 1)).unwrap();
    assert!((v_far.last_value() - vd_far.last_value()).abs() < 1e-6);
}
