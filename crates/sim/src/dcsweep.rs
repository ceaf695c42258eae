//! Quasi-static DC sweep analysis.
//!
//! Sweeps the DC value of one named voltage source, solving the operating
//! point at each bias with warm-started Newton (continuation). PTM devices
//! are treated quasi-statically: after each solve, any armed threshold
//! crossing fires, the transition completes instantly (the sweep is
//! assumed slow versus `T_PTM`), and the point is re-solved — so a swept
//! PTM traces its hysteresis loop exactly as the paper's Fig. 2 describes,
//! and an inverter sweep yields its voltage-transfer characteristic.

use crate::dcop::{newton_dc, DcWorkspace};
use crate::devices::{CompiledCircuit, SimDevice};
use crate::options::SimOptions;
use crate::result::{Signal, SignalIndex};
use crate::trace;
use crate::{Result, SimError};
use sfet_circuit::{Circuit, SourceWaveform};
use sfet_telemetry::{names, Level};
use sfet_waveform::Waveform;

/// Result of a DC sweep: one operating point per swept value.
#[derive(Debug, Clone)]
pub struct DcSweepResult {
    swept: Vec<f64>,
    signals: SignalIndex,
    node_data: Vec<Vec<f64>>,
    branch_data: Vec<Vec<f64>>,
}

impl DcSweepResult {
    /// The swept source values.
    pub fn swept_values(&self) -> &[f64] {
        &self.swept
    }

    /// Node voltage as a function of the swept value (a [`Waveform`] whose
    /// "time" axis is the swept bias — requires the sweep to be strictly
    /// increasing).
    ///
    /// # Errors
    ///
    /// [`SimError::UnknownSignal`] for unknown nodes;
    /// [`SimError::InvalidOptions`] if the sweep axis is not strictly
    /// increasing.
    pub fn transfer_curve(&self, node: &str) -> Result<Waveform> {
        let idx = self.signals.column(Signal::Voltage, node)?;
        Waveform::from_samples(self.swept.clone(), self.node_data[idx].clone())
            .map_err(|e| SimError::InvalidOptions(format!("sweep axis unusable: {e}")))
    }

    /// Node voltage at sweep point `k`.
    ///
    /// # Errors
    ///
    /// [`SimError::UnknownSignal`] for unknown nodes.
    pub fn voltage_at(&self, node: &str, k: usize) -> Result<f64> {
        Ok(self.node_data[self.signals.column(Signal::Voltage, node)?][k])
    }

    /// Branch current of a voltage source / inductor at sweep point `k`.
    ///
    /// # Errors
    ///
    /// [`SimError::UnknownSignal`] for unknown branches.
    pub fn branch_at(&self, element: &str, k: usize) -> Result<f64> {
        Ok(self.branch_data[self.signals.column(Signal::Current, element)?][k])
    }
}

/// Sweeps the DC value of voltage source `source` through `points`.
///
/// # Errors
///
/// * [`SimError::UnknownSignal`] if no voltage source has that name;
/// * solver errors if any bias point fails to converge.
pub fn dc_sweep(
    circuit: &Circuit,
    source: &str,
    points: &[f64],
    opts: &SimOptions,
) -> Result<DcSweepResult> {
    opts.validate()?;
    circuit.validate()?;
    if points.is_empty() {
        return Err(SimError::InvalidOptions("empty sweep".into()));
    }
    let mut compiled = CompiledCircuit::compile(circuit);
    let src_idx = compiled
        .source_named(source)
        .filter(|&i| matches!(compiled.devices[i], SimDevice::Vsrc { .. }))
        .ok_or_else(|| SimError::UnknownSignal(format!("voltage source {source:?}")))?;

    // One solver workspace for the whole sweep: the compiled sparsity
    // pattern and symbolic factorisation carry across bias points.
    let sweep_span = opts.telemetry.span(Level::Analysis, names::SPAN_DC_SWEEP);
    let mut ws = DcWorkspace::new(&compiled, opts);
    let mut x = vec![0.0; compiled.size];
    let mut warm = false;
    let mut node_data = vec![Vec::with_capacity(points.len()); compiled.node_names.len()];
    let mut branch_data = vec![Vec::with_capacity(points.len()); compiled.branch_names.len()];

    for &value in points {
        if let SimDevice::Vsrc { wave, .. } = &mut compiled.devices[src_idx] {
            *wave = SourceWaveform::Dc(value);
        }
        // Quasi-static PTM settling: solve, fire any armed transition,
        // complete it instantly, re-solve; loop until no device fires
        // (bounded — each PTM can flip at most twice per bias point).
        let mut solved = solve_point(&mut compiled, &x, warm, opts, &mut ws)?;
        for _ in 0..4 {
            if compiled.fire_ptms(&solved, 0.0, &opts.telemetry) == 0 {
                break;
            }
            // Each transition completes at once (the sweep is assumed slow
            // against T_PTM) and its resistance is frozen for the re-solve.
            for &(i, _) in &compiled.ptm_devices {
                let ptm = &mut compiled.devices[i];
                if let SimDevice::Ptm { state, .. } = ptm {
                    state.update(state.params().t_ptm);
                }
                ptm.prepare_step(0.0);
            }
            solved = solve_point(&mut compiled, &solved, true, opts, &mut ws)?;
        }
        x = solved;
        warm = true;
        for (i, col) in node_data.iter_mut().enumerate() {
            col.push(x[i]);
        }
        let nc = compiled.node_names.len();
        for (j, col) in branch_data.iter_mut().enumerate() {
            col.push(x[nc + j]);
        }
    }

    trace::emit_dc_stats(&opts.telemetry, &ws.stats());
    drop(sweep_span);

    Ok(DcSweepResult {
        swept: points.to_vec(),
        signals: SignalIndex::new(&compiled),
        node_data,
        branch_data,
    })
}

/// One bias-point solve: warm-started Newton first, full escalation on a
/// cold start or when the warm start fails.
fn solve_point(
    compiled: &mut CompiledCircuit,
    x0: &[f64],
    warm: bool,
    opts: &SimOptions,
    ws: &mut DcWorkspace,
) -> Result<Vec<f64>> {
    if warm {
        if let Ok(x) = newton_dc(compiled, x0, 1.0, 0.0, opts, ws) {
            return Ok(x);
        }
    }
    crate::dcop::solve_dc(compiled, opts, ws)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfet_devices::mosfet::MosfetModel;
    use sfet_devices::ptm::PtmParams;

    fn inverter(with_ptm: bool) -> Circuit {
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

    fn ramp_points(n: usize) -> Vec<f64> {
        (0..=n).map(|k| k as f64 / n as f64).collect()
    }

    #[test]
    fn inverter_vtc_monotone_falling() {
        let ckt = inverter(false);
        let sweep = dc_sweep(&ckt, "VIN", &ramp_points(40), &SimOptions::default()).unwrap();
        let vtc = sweep.transfer_curve("out").unwrap();
        assert!(vtc.first_value() > 0.98);
        assert!(vtc.last_value() < 0.02);
        let mut prev = vtc.first_value();
        for (_, v) in vtc.iter() {
            assert!(v <= prev + 1e-6, "VTC must be non-increasing");
            prev = v;
        }
    }

    /// §III-A of the paper: the PTM leaves the DC characteristics (VTC and
    /// therefore noise margins) untouched.
    #[test]
    fn soft_fet_vtc_matches_baseline() {
        let base = dc_sweep(
            &inverter(false),
            "VIN",
            &ramp_points(20),
            &SimOptions::default(),
        )
        .unwrap();
        let soft = dc_sweep(
            &inverter(true),
            "VIN",
            &ramp_points(20),
            &SimOptions::default(),
        )
        .unwrap();
        for k in 0..=20 {
            let vb = base.voltage_at("out", k).unwrap();
            let vs = soft.voltage_at("out", k).unwrap();
            assert!(
                (vb - vs).abs() < 2e-3,
                "VTC deviates at point {k}: {vb} vs {vs}"
            );
        }
    }

    #[test]
    fn ptm_hysteresis_at_circuit_level() {
        // V source -> PTM -> small resistor to ground: sweeping up then
        // down shows different currents in the hysteretic window.
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
        // Sweep axis is non-monotonic, so use voltage_at / branch_at.
        let sweep = dc_sweep(&ckt, "V1", &points, &SimOptions::default()).unwrap();
        // At 0.25 V on the way up (index 5): insulating, tiny current.
        let i_up = sweep.branch_at("V1", 5).unwrap().abs();
        // At 0.25 V on the way down (index 36): metallic, large current.
        let i_down = sweep.branch_at("V1", 36).unwrap().abs();
        assert!(
            i_down / i_up > 10.0,
            "hysteresis window: up {i_up:.3e} vs down {i_down:.3e}"
        );
    }

    #[test]
    fn unknown_source_rejected() {
        let ckt = inverter(false);
        assert!(matches!(
            dc_sweep(&ckt, "VXX", &[0.0], &SimOptions::default()),
            Err(SimError::UnknownSignal(_))
        ));
    }

    #[test]
    fn empty_sweep_rejected() {
        let ckt = inverter(false);
        assert!(dc_sweep(&ckt, "VIN", &[], &SimOptions::default()).is_err());
    }
}
