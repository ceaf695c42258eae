//! DC operating point.
//!
//! Plain Newton from a zero start works for most of the paper's cells, but
//! MOSFET exponentials can defeat it. The solver therefore escalates:
//!
//! 1. direct Newton–Raphson;
//! 2. *gmin stepping* — solve with a large shunt conductance from every
//!    device node to ground, then relax it geometrically to `gmin`;
//! 3. *source stepping* — ramp all independent sources from 0 to 100 %.
//!
//! Capacitors are open in DC (initial conditions are enforced with a stiff
//! Norton equivalent), inductors are shorts.

use std::fmt;

use crate::devices::{CompiledCircuit, StampMode};
use crate::matrix::MnaMatrix;
use crate::options::SimOptions;
use crate::result::DcStats;
use crate::trace;
use crate::{Result, SimError};
use sfet_circuit::Circuit;
use sfet_numeric::NumericError;
use sfet_telemetry::{names, Level};

/// Reusable DC solver workspace: the MNA matrix (with its cached sparsity
/// pattern and factors) plus the RHS buffer, shared across Newton calls so
/// continuation strategies and bias sweeps reuse the compiled pattern
/// instead of re-deriving it every solve.
pub(crate) struct DcWorkspace {
    jac: MnaMatrix,
    rhs: Vec<f64>,
    newton_iterations: usize,
}

impl DcWorkspace {
    pub(crate) fn new(compiled: &CompiledCircuit, opts: &SimOptions) -> Self {
        DcWorkspace {
            jac: MnaMatrix::new(
                opts.effective_solver(compiled.size),
                compiled.size,
                opts.reuse_factorization,
            ),
            rhs: vec![0.0; compiled.size],
            newton_iterations: 0,
        }
    }

    pub(crate) fn stats(&self) -> DcStats {
        DcStats {
            newton_iterations: self.newton_iterations,
            solver: self.jac.stats(),
        }
    }
}

/// Computes the DC operating point of a circuit at `t = 0`.
///
/// Returns the MNA solution vector (node voltages followed by branch
/// currents) together with the compiled circuit, so the transient engine
/// can reuse the compilation.
///
/// # Errors
///
/// * [`SimError::Circuit`] if the circuit fails validation.
/// * [`SimError::NonConvergence`] if all escalation strategies fail.
pub fn dc_operating_point(circuit: &Circuit, opts: &SimOptions) -> Result<Vec<f64>> {
    Ok(dc_operating_point_with_stats(circuit, opts)?.0)
}

/// Like [`dc_operating_point`], but also returns engine statistics
/// (Newton iteration count and linear-solver counters).
///
/// With telemetry attached ([`SimOptions::with_telemetry`]), the solve is
/// wrapped in a `dc` span and the returned [`DcStats`] totals are emitted
/// as `dc.*` counters.
///
/// # Errors
///
/// Same as [`dc_operating_point`].
///
/// # Example
///
/// ```
/// use sfet_circuit::{Circuit, SourceWaveform};
/// use sfet_sim::{dc_operating_point_with_stats, SimOptions};
///
/// # fn main() -> Result<(), sfet_sim::SimError> {
/// let mut ckt = Circuit::new();
/// let a = ckt.node("a");
/// ckt.add_voltage_source("V1", a, Circuit::ground(), SourceWaveform::Dc(1.0))?;
/// ckt.add_resistor("R1", a, Circuit::ground(), 1e3)?;
/// let (x, stats) = dc_operating_point_with_stats(&ckt, &SimOptions::default())?;
/// assert!((x[0] - 1.0).abs() < 1e-9);
/// assert!(stats.newton_iterations > 0);
/// assert!(stats.solver.solves > 0);
/// # Ok(())
/// # }
/// ```
pub fn dc_operating_point_with_stats(
    circuit: &Circuit,
    opts: &SimOptions,
) -> Result<(Vec<f64>, DcStats)> {
    opts.validate()?;
    circuit.validate()?;
    let _span = opts.telemetry.span(Level::Analysis, names::SPAN_DC);
    operating_point(&mut CompiledCircuit::compile(circuit), opts)
}

/// The operating point of a compiled circuit in a workspace of its own,
/// its totals emitted as `dc.*` counters: the DC analysis, a transient's
/// initial point and an AC sweep's bias point.
pub(crate) fn operating_point(
    compiled: &mut CompiledCircuit,
    opts: &SimOptions,
) -> Result<(Vec<f64>, DcStats)> {
    let mut ws = DcWorkspace::new(compiled, opts);
    let x = solve_dc(compiled, opts, &mut ws)?;
    let stats = ws.stats();
    trace::emit_dc_stats(&opts.telemetry, &stats);
    Ok((x, stats))
}

/// DC solve on an already-compiled circuit (shared with the transient
/// engine and the sweeps).
pub(crate) fn solve_dc(
    compiled: &mut CompiledCircuit,
    opts: &SimOptions,
    ws: &mut DcWorkspace,
) -> Result<Vec<f64>> {
    let x0 = vec![0.0; compiled.size];

    // Strategy 1: direct Newton.
    if let Ok(x) = newton_dc(compiled, &x0, 1.0, 0.0, opts, ws) {
        return Ok(x);
    }

    // Strategy 2: gmin stepping.
    let mut x = x0.clone();
    let mut ok = true;
    let mut gmin_steps = 0u64;
    for k in 0..=6 {
        let shunt = 1e-1 * 10f64.powi(-(2 * k));
        gmin_steps += 1;
        match newton_dc(compiled, &x, 1.0, shunt, opts, ws) {
            Ok(next) => x = next,
            Err(_) => {
                ok = false;
                break;
            }
        }
    }
    opts.telemetry.counter(names::DC_GMIN_STEPS, gmin_steps);
    if ok {
        if let Ok(x) = newton_dc(compiled, &x, 1.0, 0.0, opts, ws) {
            return Ok(x);
        }
    }

    // Strategy 3: source stepping.
    let mut x = x0;
    for k in 1..=20 {
        let scale = k as f64 / 20.0;
        opts.telemetry.counter(names::DC_SOURCE_STEPS, 1);
        x = newton_dc(compiled, &x, scale, 0.0, opts, ws).map_err(|e| match e {
            e @ SimError::NonConvergence { .. } => e,
            _ => SimError::NonConvergence {
                time: 0.0,
                dt: 0.0,
                residual: f64::INFINITY,
                unknown: None,
            },
        })?;
    }
    Ok(x)
}

/// One damped-Newton DC solve with the given source scale and gmin shunt.
pub(crate) fn newton_dc(
    compiled: &CompiledCircuit,
    x0: &[f64],
    source_scale: f64,
    gmin_shunt: f64,
    opts: &SimOptions,
    ws: &mut DcWorkspace,
) -> Result<Vec<f64>> {
    let mode = StampMode::Dc {
        source_scale,
        gmin_shunt,
    };
    let mut x = x0.to_vec();
    let mut last = Update {
        converged: false,
        damped: false,
        residual: f64::INFINITY,
        worst: 0,
    };
    for _ in 0..opts.max_newton_iter {
        ws.newton_iterations += 1;
        ws.jac.clear();
        ws.rhs.fill(0.0);
        for device in &compiled.devices {
            device.stamp(mode, &x, &mut ws.jac, &mut ws.rhs, opts.gmin);
        }
        ws.jac.factor_solve(&mut ws.rhs)?;
        let stage = format_args!("DC Newton solve");
        last = damped_update(compiled, opts, &mut x, &ws.rhs, stage)?;
        // An operating point is the answer DC returns, so DC accepts only
        // an undamped update. A transient lane also accepts a damped one
        // whose raw update converged: the steps after it re-converge it.
        if last.converged && !last.damped {
            return Ok(x);
        }
    }
    Err(last.non_convergence(compiled, 0.0, 0.0))
}

/// What one [`damped_update`] did.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Update {
    /// Every unknown's raw (undamped) update is within its tolerance.
    pub(crate) converged: bool,
    /// The `max_newton_step` clamp scaled the update down.
    pub(crate) damped: bool,
    /// The largest raw update, and the unknown it moved.
    residual: f64,
    worst: usize,
}

impl Update {
    /// The error of a Newton loop that ends on this update at `time`
    /// (step `dt`): the largest raw update and the unknown it moved.
    pub(crate) fn non_convergence(
        &self,
        compiled: &CompiledCircuit,
        time: f64,
        dt: f64,
    ) -> SimError {
        SimError::NonConvergence {
            time,
            dt,
            residual: self.residual,
            unknown: unknown_name(compiled, self.worst),
        }
    }
}

/// The damped Newton update every analysis shares: the DC operating point,
/// every DC-sweep point and every transient lane. Moves the iterate `x`
/// toward the raw solve `x_next`, scaled so no unknown moves by more than
/// `max_newton_step`, and tests each unknown's raw update against
/// `reltol·|x| + vntol` (nodes) or `reltol·|x| + abstol` (branches).
///
/// Convergence is measured on the RAW (undamped) update: a raw step within
/// tolerance means the iterate already sits at the Newton target, even
/// when the clamp damped the move — the case a sharp PTM edge hits when
/// one large-tolerance unknown drives the clamp. (Measuring the *damped*
/// update instead would accept a damped crawl that is nowhere near the
/// solution.) Whether a damped, converged update ends the loop is the
/// caller's choice.
///
/// # Errors
///
/// A [`NumericError::NonFinite`] naming `stage` and the first non-finite
/// unknown of `x_next`.
// Runs once per Newton iteration of every transient lane.
#[inline]
pub(crate) fn damped_update(
    compiled: &CompiledCircuit,
    opts: &SimOptions,
    x: &mut [f64],
    x_next: &[f64],
    stage: fmt::Arguments<'_>,
) -> Result<Update> {
    // A NaN/Inf iterate would pass the `raw.abs() > tol` convergence test
    // below (NaN comparisons are false) and be taken for converged; reject
    // it here instead, naming the unknown.
    if let Some(bad) = x_next.iter().position(|v| !v.is_finite()) {
        let name = unknown_name(compiled, bad).unwrap_or_else(|| format!("unknown #{bad}"));
        return Err(SimError::Numeric(NumericError::NonFinite {
            context: format!("{stage}, first non-finite unknown {name}"),
        }));
    }
    let mut max_dx = 0.0f64;
    for (xn, xo) in x_next.iter().zip(x.iter()) {
        max_dx = max_dx.max((xn - xo).abs());
    }
    let damped = max_dx > opts.max_newton_step;
    let scale = if damped {
        opts.max_newton_step / max_dx
    } else {
        1.0
    };
    let node_count = compiled.node_names.len();
    let mut update = Update {
        converged: true,
        damped,
        residual: 0.0,
        worst: 0,
    };
    for (i, (&xn, xi)) in x_next.iter().zip(x.iter_mut()).enumerate() {
        let raw = xn - *xi;
        *xi += raw * scale;
        let tol = if i < node_count {
            opts.reltol * xi.abs() + opts.vntol
        } else {
            opts.reltol * xi.abs() + opts.abstol
        };
        if raw.abs() > update.residual {
            update.residual = raw.abs();
            update.worst = i;
        }
        if raw.abs() > tol {
            update.converged = false;
        }
    }
    Ok(update)
}

/// Human-readable name of MNA unknown `idx`: `v(<node>)` for node voltages,
/// `i(<element>)` for branch currents.
fn unknown_name(compiled: &CompiledCircuit, idx: usize) -> Option<String> {
    let node_count = compiled.node_names.len();
    if idx < node_count {
        compiled.node_names.get(idx).map(|n| format!("v({n})"))
    } else {
        compiled
            .branch_names
            .get(idx - node_count)
            .map(|n| format!("i({n})"))
    }
}

/// Initialises companion histories and PTM step state from a DC solution,
/// and returns how many PTM transitions fired at `t = 0`.
pub(crate) fn init_state_from_dc(
    compiled: &mut CompiledCircuit,
    x: &[f64],
    opts: &SimOptions,
) -> usize {
    for &i in &compiled.stateful {
        compiled.devices[i].init_history(x);
    }
    for &(i, _) in &compiled.ptm_devices {
        compiled.devices[i].prepare_step(0.0);
    }
    // A PTM may already sit beyond its threshold at t=0 (e.g. a DC bias
    // above V_IMT). Fire those immediately so the transient starts from a
    // consistent phase.
    compiled.fire_ptms(x, 0.0, &opts.telemetry)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfet_circuit::SourceWaveform;
    use sfet_devices::mosfet::MosfetModel;

    #[test]
    fn resistive_divider() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let mid = ckt.node("mid");
        let g = Circuit::ground();
        ckt.add_voltage_source("V1", a, g, SourceWaveform::Dc(2.0))
            .unwrap();
        ckt.add_resistor("R1", a, mid, 1e3).unwrap();
        ckt.add_resistor("R2", mid, g, 1e3).unwrap();
        let x = dc_operating_point(&ckt, &SimOptions::default()).unwrap();
        // Unknowns: v(a)=x[0], v(mid)=x[1], i(V1)=x[2].
        assert!((x[0] - 2.0).abs() < 1e-9);
        assert!((x[1] - 1.0).abs() < 1e-9);
        // Source delivers 1 mA: branch current is -1 mA by convention.
        assert!((x[2] + 1e-3).abs() < 1e-9);
    }

    #[test]
    fn capacitor_open_in_dc() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let mid = ckt.node("mid");
        let g = Circuit::ground();
        ckt.add_voltage_source("V1", a, g, SourceWaveform::Dc(1.0))
            .unwrap();
        ckt.add_resistor("R1", a, mid, 1e3).unwrap();
        ckt.add_capacitor("C1", mid, g, 1e-12).unwrap();
        // No DC path through C: mid floats to the source value via R (no
        // current flows).
        let mut compiled = CompiledCircuit::compile(&ckt);
        // The cap is open, so mid has no connection to ground: the matrix
        // would be singular without gmin; DC escalation handles it through
        // the gmin-stepping path.
        let opts = SimOptions::default();
        let mut ws = DcWorkspace::new(&compiled, &opts);
        let x = solve_dc(&mut compiled, &opts, &mut ws).unwrap();
        assert!((x[1] - 1.0).abs() < 1e-3);
        // Telemetry: the escalation strategies shared one workspace. A
        // failed factorisation (the singular direct attempt) counts an
        // iteration but no completed solve, so solves ≤ iterations.
        let stats = ws.stats();
        assert!(stats.newton_iterations > 0);
        assert!(stats.solver.solves > 0);
        assert!(stats.solver.solves as usize <= stats.newton_iterations);
    }

    #[test]
    fn inductor_short_in_dc() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let mid = ckt.node("mid");
        let g = Circuit::ground();
        ckt.add_voltage_source("V1", a, g, SourceWaveform::Dc(1.0))
            .unwrap();
        ckt.add_inductor("L1", a, mid, 1e-9).unwrap();
        ckt.add_resistor("R1", mid, g, 100.0).unwrap();
        let x = dc_operating_point(&ckt, &SimOptions::default()).unwrap();
        // v(mid) = v(a) = 1; current = 10 mA.
        assert!((x[1] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn nmos_inverter_dc_levels() {
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let inp = ckt.node("in");
        let out = ckt.node("out");
        let g = Circuit::ground();
        ckt.add_voltage_source("VDD", vdd, g, SourceWaveform::Dc(1.0))
            .unwrap();
        ckt.add_voltage_source("VIN", inp, g, SourceWaveform::Dc(0.0))
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
            g,
            g,
            MosfetModel::nmos_40nm(),
            120e-9,
            40e-9,
        )
        .unwrap();
        let x = dc_operating_point(&ckt, &SimOptions::default()).unwrap();
        // in = 0 → out pulled to VDD.
        let v_out = x[2];
        assert!(v_out > 0.98, "inverter high output {v_out}");
    }

    #[test]
    fn inverter_low_output_with_high_input() {
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let inp = ckt.node("in");
        let out = ckt.node("out");
        let g = Circuit::ground();
        ckt.add_voltage_source("VDD", vdd, g, SourceWaveform::Dc(1.0))
            .unwrap();
        ckt.add_voltage_source("VIN", inp, g, SourceWaveform::Dc(1.0))
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
            g,
            g,
            MosfetModel::nmos_40nm(),
            120e-9,
            40e-9,
        )
        .unwrap();
        let x = dc_operating_point(&ckt, &SimOptions::default()).unwrap();
        let v_out = x[2];
        assert!(v_out < 0.02, "inverter low output {v_out}");
    }

    #[test]
    fn ptm_divider_insulating() {
        use sfet_devices::ptm::PtmParams;
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let mid = ckt.node("mid");
        let g = Circuit::ground();
        ckt.add_voltage_source("V1", a, g, SourceWaveform::Dc(0.2))
            .unwrap();
        ckt.add_ptm("P1", a, mid, PtmParams::vo2_default()).unwrap();
        ckt.add_resistor("R1", mid, g, 500e3).unwrap();
        let x = dc_operating_point(&ckt, &SimOptions::default()).unwrap();
        // Equal divider with R_INS = 500k: v(mid) = 0.1.
        assert!((x[1] - 0.1).abs() < 1e-6);
    }

    #[test]
    fn vcvs_amplifies_dc() {
        let mut ckt = Circuit::new();
        let inp = ckt.node("in");
        let amp = ckt.node("amp");
        let g = Circuit::ground();
        ckt.add_voltage_source("V1", inp, g, SourceWaveform::Dc(0.1))
            .unwrap();
        ckt.add_resistor("R1", inp, g, 1e3).unwrap();
        ckt.add_vcvs("E1", amp, g, inp, g, 10.0).unwrap();
        ckt.add_resistor("RL", amp, g, 1e3).unwrap();
        let x = dc_operating_point(&ckt, &SimOptions::default()).unwrap();
        // v(amp) = 10 * v(in).
        assert!((x[1] - 1.0).abs() < 1e-9, "v(amp) = {}", x[1]);
    }

    #[test]
    fn vccs_drives_load() {
        let mut ckt = Circuit::new();
        let inp = ckt.node("in");
        let out = ckt.node("out");
        let g = Circuit::ground();
        ckt.add_voltage_source("V1", inp, g, SourceWaveform::Dc(0.1))
            .unwrap();
        ckt.add_resistor("R1", inp, g, 1e3).unwrap();
        ckt.add_vccs("G1", g, out, inp, g, 1e-3).unwrap();
        ckt.add_resistor("RL", out, g, 1e3).unwrap();
        let x = dc_operating_point(&ckt, &SimOptions::default()).unwrap();
        // i = gm * v(in) = 0.1 mA injected into out: v(out) = 0.1.
        assert!((x[1] - 0.1).abs() < 1e-9, "v(out) = {}", x[1]);
    }

    #[test]
    fn cccs_mirrors_branch_current() {
        let mut ckt = Circuit::new();
        let inp = ckt.node("in");
        let out = ckt.node("out");
        let g = Circuit::ground();
        ckt.add_voltage_source("V1", inp, g, SourceWaveform::Dc(1.0))
            .unwrap();
        ckt.add_resistor("R1", inp, g, 1e3).unwrap();
        ckt.add_cccs("F1", out, g, "V1", 2.0).unwrap();
        ckt.add_resistor("RL", out, g, 1e3).unwrap();
        let x = dc_operating_point(&ckt, &SimOptions::default()).unwrap();
        // i(V1) = -1 mA (delivering); F injects -2 mA leaving out, i.e.
        // +2 mA into out: v(out) = 2.0.
        assert!((x[1] - 2.0).abs() < 1e-9, "v(out) = {}", x[1]);
    }

    #[test]
    fn ccvs_senses_branch_current() {
        let mut ckt = Circuit::new();
        let inp = ckt.node("in");
        let out = ckt.node("out");
        let g = Circuit::ground();
        ckt.add_voltage_source("V1", inp, g, SourceWaveform::Dc(1.0))
            .unwrap();
        ckt.add_resistor("R1", inp, g, 1e3).unwrap();
        ckt.add_ccvs("H1", out, g, "V1", 500.0).unwrap();
        ckt.add_resistor("RL", out, g, 1e3).unwrap();
        let x = dc_operating_point(&ckt, &SimOptions::default()).unwrap();
        // v(out) = r * i(V1) = 500 * (-1 mA) = -0.5.
        assert!((x[1] + 0.5).abs() < 1e-9, "v(out) = {}", x[1]);
    }

    #[test]
    fn node_ic_pins_dc_solution() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        let g = Circuit::ground();
        ckt.add_voltage_source("V1", a, g, SourceWaveform::Dc(1.0))
            .unwrap();
        ckt.add_resistor("R1", a, b, 1e3).unwrap();
        ckt.add_capacitor("C1", b, g, 1e-12).unwrap();
        ckt.set_node_ic(b, 0.25);
        let x = dc_operating_point(&ckt, &SimOptions::default()).unwrap();
        // The stiff pin (1 kS) dominates the 1 mS resistor path.
        assert!((x[1] - 0.25).abs() < 1e-4, "v(b) = {}", x[1]);
    }

    #[test]
    fn invalid_circuit_rejected() {
        let ckt = Circuit::new();
        assert!(matches!(
            dc_operating_point(&ckt, &SimOptions::default()),
            Err(SimError::Circuit(_))
        ));
    }
}
