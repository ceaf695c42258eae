//! EKV current equation and its derivatives.
//!
//! The bulk-referenced EKV long-channel core is
//!
//! ```text
//! I_D = 2 n β U_T² [ F((V_P - V_SB)/U_T) - F((V_P - V_DB)/U_T) ]
//! V_P = (V_GB - V_T0) / n,      F(x) = ln²(1 + e^{x/2})
//! ```
//!
//! which is smooth through all operating regions and symmetric in
//! drain/source (reverse conduction "just works"). A first-order
//! channel-length-modulation factor `1 + λ·|V_DS|` (with a smoothed
//! absolute value) provides a finite output conductance in saturation.
//! PMOS devices are evaluated by mirroring all terminal voltages.

use super::model::{MosfetModel, Polarity};
use sfet_numeric::smooth::softplus_logistic;

/// Smoothing width for |V_DS| in the channel-length-modulation factor \[V\].
const VDS_SMOOTH: f64 = 1e-3;

/// Operating-point currents and derivatives of a MOSFET.
///
/// Sign convention: `id` is the current flowing *into the drain terminal*
/// from the external circuit. For an on NMOS pulling its drain low, `id > 0`;
/// for an on PMOS pulling its drain high, `id < 0`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MosOp {
    /// Drain current \[A\], positive into the drain.
    pub id: f64,
    /// ∂id/∂V_G \[S\].
    pub gm: f64,
    /// ∂id/∂V_D \[S\].
    pub gds: f64,
    /// ∂id/∂V_S \[S\].
    pub gms: f64,
    /// ∂id/∂V_B \[S\].
    pub gmb: f64,
}

/// Evaluates the drain current and all terminal derivatives at absolute node
/// voltages `(vg, vd, vs, vb)` for a device of width `w` and length `l`
/// (metres).
///
/// # Panics
///
/// Debug-asserts `w > 0` and `l > 0`.
///
/// # Example
///
/// ```
/// use sfet_devices::mosfet::{eval, MosfetModel};
///
/// let m = MosfetModel::nmos_40nm();
/// let on = eval(&m, 120e-9, 40e-9, 1.0, 1.0, 0.0, 0.0);
/// let off = eval(&m, 120e-9, 40e-9, 0.0, 1.0, 0.0, 0.0);
/// assert!(on.id / off.id > 1e4); // strong Ion/Ioff ratio
/// ```
pub fn eval(model: &MosfetModel, w: f64, l: f64, vg: f64, vd: f64, vs: f64, vb: f64) -> MosOp {
    debug_assert!(w > 0.0 && l > 0.0, "device geometry must be positive");
    match model.polarity {
        Polarity::Nmos => eval_core(model, w, l, vg, vd, vs, vb),
        Polarity::Pmos => {
            // Mirror all voltages; id flips sign, conductances carry over:
            // id_p(v) = -id_n(-v) ⇒ ∂id_p/∂v_x = +∂id_n/∂v_x'|_{v'=-v}.
            let core = eval_core(model, w, l, -vg, -vd, -vs, -vb);
            MosOp {
                id: -core.id,
                gm: core.gm,
                gds: core.gds,
                gms: core.gms,
                gmb: core.gmb,
            }
        }
    }
}

/// Evaluates one device at `B` bias points (structure-of-arrays), writing
/// one [`MosOp`] per lane.
///
/// Lane `i` is **bitwise identical** to
/// `eval(model, w, l, vg[i], vd[i], vs[i], vb[i])`: the lane body *is* the
/// scalar evaluation, so there is no separate numeric path to validate —
/// the SoA signature exists so sweep drivers can evaluate a whole batch of
/// bias variants per model pass and the compiler can vectorise the
/// straight-line smooth-primitive core across lanes.
///
/// # Panics
///
/// Panics when the bias slices and `out` do not all share one length.
// One slice per terminal mirrors the scalar signature; bundling them
// into a struct would force callers to interleave their SoA storage.
#[allow(clippy::too_many_arguments)]
pub fn eval_batch(
    model: &MosfetModel,
    w: f64,
    l: f64,
    vg: &[f64],
    vd: &[f64],
    vs: &[f64],
    vb: &[f64],
    out: &mut [MosOp],
) {
    let lanes = out.len();
    assert!(
        vg.len() == lanes && vd.len() == lanes && vs.len() == lanes && vb.len() == lanes,
        "bias slices must match the output lane count ({lanes})"
    );
    for i in 0..lanes {
        out[i] = eval(model, w, l, vg[i], vd[i], vs[i], vb[i]);
    }
}

/// NMOS-convention EKV core with CLM.
fn eval_core(model: &MosfetModel, w: f64, l: f64, vg: f64, vd: f64, vs: f64, vb: f64) -> MosOp {
    let ut = model.ut;
    let n = model.slope_n;
    let beta = model.kp * w / l;
    let k = 2.0 * n * beta * ut * ut;

    let vp = ((vg - vb) - model.vt0) / n;
    let xs = (vp - (vs - vb)) / ut;
    let xd = (vp - (vd - vb)) / ut;

    // F(x) = softplus(x/2)^2 ; F'(x) = softplus(x/2) * logistic(x/2)
    let (ss, gs) = softplus_logistic(0.5 * xs);
    let (sd, gd) = softplus_logistic(0.5 * xd);
    let (fs, fd) = (ss * ss, sd * sd);
    let (fps, fpd) = (ss * gs, sd * gd);

    let base = k * (fs - fd);
    let dbase_dvg = k / (n * ut) * (fps - fpd);
    let dbase_dvd = k * fpd / ut;
    let dbase_dvs = -k * fps / ut;
    let dbase_dvb = -(dbase_dvg + dbase_dvd + dbase_dvs);

    // Channel-length modulation with a smoothed |vds|.
    let vds = vd - vs;
    let sabs = (vds * vds + VDS_SMOOTH * VDS_SMOOTH).sqrt();
    let m = 1.0 + model.lambda * sabs;
    let dm_dvd = model.lambda * vds / sabs;

    MosOp {
        id: base * m,
        gm: dbase_dvg * m,
        gds: dbase_dvd * m + base * dm_dvd,
        gms: dbase_dvs * m - base * dm_dvd,
        gmb: dbase_dvb * m,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const W: f64 = 120e-9;
    const L: f64 = 40e-9;

    fn nmos() -> MosfetModel {
        MosfetModel::nmos_40nm()
    }
    fn pmos() -> MosfetModel {
        MosfetModel::pmos_40nm()
    }

    #[test]
    fn nmos_on_current_in_calibration_band() {
        let op = eval(&nmos(), W, L, 1.0, 1.0, 0.0, 0.0);
        // Target ~100 µA for the minimum device; accept a generous band.
        assert!(
            op.id > 40e-6 && op.id < 300e-6,
            "Ion = {:.1} µA",
            op.id * 1e6
        );
    }

    #[test]
    fn nmos_off_current_small() {
        let op = eval(&nmos(), W, L, 0.0, 1.0, 0.0, 0.0);
        assert!(op.id > 0.0);
        assert!(op.id < 50e-9, "Ioff = {:.3e}", op.id);
    }

    #[test]
    fn subthreshold_slope_near_85mv_per_decade() {
        let i1 = eval(&nmos(), W, L, 0.10, 1.0, 0.0, 0.0).id;
        let i2 = eval(&nmos(), W, L, 0.20, 1.0, 0.0, 0.0).id;
        let ss = 0.1 / (i2 / i1).log10() * 1e3; // mV/dec
        assert!(ss > 70.0 && ss < 100.0, "SS = {ss:.1} mV/dec");
    }

    #[test]
    fn zero_vds_zero_current() {
        let op = eval(&nmos(), W, L, 1.0, 0.5, 0.5, 0.0);
        assert!(op.id.abs() < 1e-12);
    }

    #[test]
    fn reverse_conduction_antisymmetric() {
        let fwd = eval(&nmos(), W, L, 1.0, 0.3, 0.1, 0.0);
        let rev = eval(&nmos(), W, L, 1.0, 0.1, 0.3, 0.0);
        assert!((fwd.id + rev.id).abs() < 1e-3 * fwd.id.abs().max(1e-12));
    }

    #[test]
    fn pmos_signs_correct() {
        // PMOS on: gate low, source at VDD, drain low — current out of drain.
        let on = eval(&pmos(), 2.0 * W, L, 0.0, 0.0, 1.0, 1.0);
        assert!(on.id < -10e-6, "PMOS on id = {:.3e}", on.id);
        // PMOS off: gate at VDD.
        let off = eval(&pmos(), 2.0 * W, L, 1.0, 0.0, 1.0, 1.0);
        assert!(off.id.abs() < 50e-9);
    }

    #[test]
    fn current_scales_with_width() {
        let a = eval(&nmos(), W, L, 1.0, 1.0, 0.0, 0.0);
        let b = eval(&nmos(), 2.0 * W, L, 1.0, 1.0, 0.0, 0.0);
        assert!((b.id / a.id - 2.0).abs() < 1e-9);
    }

    /// Numerical check of all four derivatives for both polarities over a
    /// grid of bias points.
    #[test]
    fn derivatives_match_finite_difference() {
        let h = 1e-7;
        for model in [nmos(), pmos()] {
            for &vg in &[0.0, 0.3, 0.6, 1.0] {
                for &vd in &[0.0, 0.4, 1.0] {
                    for &vs in &[0.0, 0.2] {
                        let vb = if model.polarity == Polarity::Nmos {
                            0.0
                        } else {
                            1.0
                        };
                        let op = eval(&model, W, L, vg, vd, vs, vb);
                        let num_gm = (eval(&model, W, L, vg + h, vd, vs, vb).id
                            - eval(&model, W, L, vg - h, vd, vs, vb).id)
                            / (2.0 * h);
                        let num_gds = (eval(&model, W, L, vg, vd + h, vs, vb).id
                            - eval(&model, W, L, vg, vd - h, vs, vb).id)
                            / (2.0 * h);
                        let num_gms = (eval(&model, W, L, vg, vd, vs + h, vb).id
                            - eval(&model, W, L, vg, vd, vs - h, vb).id)
                            / (2.0 * h);
                        let num_gmb = (eval(&model, W, L, vg, vd, vs, vb + h).id
                            - eval(&model, W, L, vg, vd, vs, vb - h).id)
                            / (2.0 * h);
                        let tol = 1e-4 * op.gm.abs().max(op.gds.abs()).max(1e-9) + 1e-9;
                        assert!((op.gm - num_gm).abs() < tol, "gm at ({vg},{vd},{vs})");
                        assert!((op.gds - num_gds).abs() < tol, "gds at ({vg},{vd},{vs})");
                        assert!((op.gms - num_gms).abs() < tol, "gms at ({vg},{vd},{vs})");
                        assert!((op.gmb - num_gmb).abs() < tol, "gmb at ({vg},{vd},{vs})");
                    }
                }
            }
        }
    }

    /// The SoA entry point is bitwise-identical to per-lane scalar calls,
    /// over an LCG-randomised bias cloud for both polarities.
    #[test]
    fn eval_batch_bitwise_matches_scalar() {
        let mut state = 0x5eed_cafe_f00du64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            // Bias in [-0.2, 1.2] V.
            (state >> 11) as f64 / (1u64 << 53) as f64 * 1.4 - 0.2
        };
        for model in [nmos(), pmos()] {
            for lanes in [1usize, 2, 4, 7, 8] {
                let vg: Vec<f64> = (0..lanes).map(|_| next()).collect();
                let vd: Vec<f64> = (0..lanes).map(|_| next()).collect();
                let vs: Vec<f64> = (0..lanes).map(|_| next()).collect();
                let vb: Vec<f64> = (0..lanes).map(|_| next()).collect();
                let mut out = vec![MosOp::default(); lanes];
                eval_batch(&model, W, L, &vg, &vd, &vs, &vb, &mut out);
                for i in 0..lanes {
                    let s = eval(&model, W, L, vg[i], vd[i], vs[i], vb[i]);
                    for (b, r) in [
                        (out[i].id, s.id),
                        (out[i].gm, s.gm),
                        (out[i].gds, s.gds),
                        (out[i].gms, s.gms),
                        (out[i].gmb, s.gmb),
                    ] {
                        assert_eq!(b.to_bits(), r.to_bits(), "lane {i} of {lanes}");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "bias slices must match")]
    fn eval_batch_rejects_ragged_inputs() {
        let mut out = vec![MosOp::default(); 2];
        eval_batch(
            &nmos(),
            W,
            L,
            &[0.0],
            &[0.0, 0.0],
            &[0.0, 0.0],
            &[0.0, 0.0],
            &mut out,
        );
    }

    #[test]
    fn gm_positive_in_conduction() {
        let op = eval(&nmos(), W, L, 0.7, 1.0, 0.0, 0.0);
        assert!(op.gm > 0.0);
        assert!(op.gds > 0.0);
        assert!(op.gms < 0.0);
    }

    #[test]
    fn hvt_reduces_current() {
        let base = eval(&nmos(), W, L, 1.0, 1.0, 0.0, 0.0).id;
        let hvt_model = nmos().with_vt_shift(0.15);
        let hvt = eval(&hvt_model, W, L, 1.0, 1.0, 0.0, 0.0).id;
        assert!(hvt < base);
        assert!(hvt > 0.1 * base, "HVT should weaken, not kill, the device");
    }

    #[test]
    fn low_vdd_degrades_hvt_more_than_nominal() {
        // The paper's Fig. 5 hinges on this: at low VCC the HVT device loses
        // proportionally far more drive than the nominal device.
        let nom_hi = eval(&nmos(), W, L, 1.0, 1.0, 0.0, 0.0).id;
        let nom_lo = eval(&nmos(), W, L, 0.6, 0.6, 0.0, 0.0).id;
        let hvt_model = nmos().with_vt_shift(0.2);
        let hvt_hi = eval(&hvt_model, W, L, 1.0, 1.0, 0.0, 0.0).id;
        let hvt_lo = eval(&hvt_model, W, L, 0.6, 0.6, 0.0, 0.0).id;
        assert!(hvt_lo / hvt_hi < nom_lo / nom_hi);
    }

    #[test]
    fn continuity_across_threshold() {
        // Sample finely through V_T and require small relative jumps.
        let mut prev = eval(&nmos(), W, L, 0.30, 1.0, 0.0, 0.0).id;
        let mut v = 0.30;
        while v < 0.60 {
            v += 1e-3;
            let cur = eval(&nmos(), W, L, v, 1.0, 0.0, 0.0).id;
            assert!(cur > prev, "monotone through threshold");
            assert!((cur - prev) / prev < 0.1, "no jumps at vg={v}");
            prev = cur;
        }
    }
}
