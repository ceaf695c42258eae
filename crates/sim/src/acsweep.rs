//! AC small-signal analysis.
//!
//! Linearises the circuit at its DC operating point and solves
//! `(G + jωC) x = u` across a frequency list, where `G` collects the
//! resistive/transconductance stamps, `C` the reactive ones, and `u` a
//! unit AC stimulus on one designated source. The complex system is
//! solved in its real bordered form
//!
//! ```text
//! [ G  -ωC ] [Re x]   [Re u]
//! [ ωC   G ] [Im x] = [Im u]
//! ```
//!
//! so the existing real LU backends are reused unchanged.
//!
//! PTM devices are linearised at their DC phase (a small signal does not
//! cross the transition thresholds); MOSFETs contribute their
//! operating-point conductances and intrinsic gate capacitances.
//!
//! The marquee application here is the PDN input impedance `Z(jω)` of the
//! Fig. 10 power-delivery model: inject a 1 A AC current and read the rail
//! voltage (see `examples/pdn_impedance.rs`).

use crate::dcop::operating_point;
use crate::devices::{volt, CompiledCircuit, SimDevice};
use crate::matrix::MnaMatrix;
use crate::options::SimOptions;
use crate::result::{Signal, SignalIndex};
use crate::trace;
use crate::{Result, SimError};
use sfet_circuit::Circuit;
use sfet_devices::mosfet;
use sfet_telemetry::{names, Level};

/// A complex phasor value.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Phasor {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Phasor {
    /// Magnitude |z|.
    pub fn magnitude(&self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Phase in degrees.
    pub fn phase_deg(&self) -> f64 {
        self.im.atan2(self.re).to_degrees()
    }
}

/// Result of an AC sweep: one phasor per (frequency, signal).
#[derive(Debug, Clone)]
pub struct AcSweepResult {
    freqs: Vec<f64>,
    signals: SignalIndex,
    /// `data[node][freq_idx]`.
    data: Vec<Vec<Phasor>>,
}

impl AcSweepResult {
    /// The swept frequencies \[Hz\].
    pub fn frequencies(&self) -> &[f64] {
        &self.freqs
    }

    /// Complex response of a node across the sweep.
    ///
    /// # Errors
    ///
    /// [`SimError::UnknownSignal`] for unknown nodes.
    pub fn phasors(&self, node: &str) -> Result<&[Phasor]> {
        Ok(&self.data[self.signals.column(Signal::Voltage, node)?])
    }

    /// Magnitude response |V(node)| across the sweep.
    ///
    /// # Errors
    ///
    /// [`SimError::UnknownSignal`] for unknown nodes.
    pub fn magnitude(&self, node: &str) -> Result<Vec<f64>> {
        Ok(self.phasors(node)?.iter().map(Phasor::magnitude).collect())
    }
}

/// Runs an AC sweep with a unit stimulus on the named source (a voltage
/// source becomes a 1 V phasor; a current source a 1 A phasor; every other
/// independent source is AC-grounded).
///
/// # Errors
///
/// * [`SimError::UnknownSignal`] if no source has that name;
/// * [`SimError::InvalidOptions`] for an empty or non-positive frequency list;
/// * DC or linear-solver failures.
pub fn ac_sweep(
    circuit: &Circuit,
    source: &str,
    freqs: &[f64],
    opts: &SimOptions,
) -> Result<AcSweepResult> {
    opts.validate()?;
    circuit.validate()?;
    if freqs.is_empty() || freqs.iter().any(|f| !(f.is_finite() && *f > 0.0)) {
        return Err(SimError::InvalidOptions(
            "AC sweep needs a non-empty list of positive frequencies".into(),
        ));
    }
    let sweep_span = opts.telemetry.span(Level::Analysis, names::SPAN_AC_SWEEP);
    let mut compiled = CompiledCircuit::compile(circuit);
    // The operating-point solve reports under `dc.*`; the frequency loop's
    // bordered-real solves report under `ac.solver.*` below.
    let (x_op, _) = operating_point(&mut compiled, opts)?;
    let n = compiled.size;

    // Assemble G, C and the stimulus once (frequency-independent). Every
    // source but the stimulus is AC-grounded: its rhs entries stay 0.
    let stimulus = compiled
        .source_named(source)
        .ok_or_else(|| SimError::UnknownSignal(format!("AC source {source:?}")))?;
    let mut u = vec![0.0f64; n];
    match &compiled.devices[stimulus] {
        SimDevice::Vsrc { branch, .. } => u[*branch] = 1.0,
        // A designated current source injects 1 A from n into p
        // (delivery-positive at p, matching supply_current conventions).
        SimDevice::Isrc { p, n, .. } => {
            if let Some(i) = *p {
                u[i] += 1.0;
            }
            if let Some(j) = *n {
                u[j] -= 1.0;
            }
        }
        _ => unreachable!("sources are voltage and current sources"),
    }
    let mut g_entries: Vec<(usize, usize, f64)> = Vec::new();
    let mut c_entries: Vec<(usize, usize, f64)> = Vec::new();
    stamp_ac(&compiled, &x_op, opts.gmin, &mut g_entries, &mut c_entries);
    let node_count = compiled.node_names.len();

    let mut data = vec![Vec::with_capacity(freqs.len()); node_count];
    // Bordered real system of size 2n; the matrix lives outside the loop so
    // the stamp sequence (identical at every frequency) keeps the compiled
    // sparsity pattern and symbolic factorisation across the sweep.
    let mut m = MnaMatrix::new(
        opts.effective_solver(2 * n),
        2 * n,
        opts.reuse_factorization,
    );
    let mut rhs = vec![0.0; 2 * n];
    for &f in freqs {
        let w = 2.0 * std::f64::consts::PI * f;
        m.clear();
        for &(r, c, v) in &g_entries {
            m.add(r, c, v);
            m.add(r + n, c + n, v);
        }
        for &(r, c, v) in &c_entries {
            m.add(r, c + n, -w * v);
            m.add(r + n, c, w * v);
        }
        rhs.iter_mut().for_each(|v| *v = 0.0);
        rhs[..n].copy_from_slice(&u);
        m.factor_solve(&mut rhs)?;
        for (i, col) in data.iter_mut().enumerate() {
            col.push(Phasor {
                re: rhs[i],
                im: rhs[i + n],
            });
        }
    }

    trace::emit_solver_stats(&opts.telemetry, "ac", &m.stats());
    drop(sweep_span);

    Ok(AcSweepResult {
        freqs: freqs.to_vec(),
        signals: SignalIndex::new(&compiled),
        data,
    })
}

/// Builds the small-signal G/C entry lists.
fn stamp_ac(
    compiled: &CompiledCircuit,
    x_op: &[f64],
    gmin: f64,
    g: &mut Vec<(usize, usize, f64)>,
    c: &mut Vec<(usize, usize, f64)>,
) {
    let add2 = |m: &mut Vec<(usize, usize, f64)>, p: Option<usize>, q: Option<usize>, v: f64| {
        if let Some(i) = p {
            m.push((i, i, v));
            if let Some(j) = q {
                m.push((i, j, -v));
            }
        }
        if let Some(j) = q {
            m.push((j, j, v));
            if let Some(i) = p {
                m.push((j, i, -v));
            }
        }
    };

    for device in &compiled.devices {
        match device {
            SimDevice::Resistor { p, n, g: cond } => add2(g, *p, *n, *cond),
            SimDevice::Capacitor {
                p, n, c: farads, ..
            } => add2(c, *p, *n, *farads),
            SimDevice::Inductor {
                p, n, branch, l, ..
            } => {
                if let Some(i) = *p {
                    g.push((i, *branch, 1.0));
                    g.push((*branch, i, 1.0));
                }
                if let Some(j) = *n {
                    g.push((j, *branch, -1.0));
                    g.push((*branch, j, -1.0));
                }
                c.push((*branch, *branch, -*l));
            }
            SimDevice::Vsrc { p, n, branch, .. } => {
                if let Some(i) = *p {
                    g.push((i, *branch, 1.0));
                    g.push((*branch, i, 1.0));
                }
                if let Some(j) = *n {
                    g.push((j, *branch, -1.0));
                    g.push((*branch, j, -1.0));
                }
            }
            // Current sources are open in AC.
            SimDevice::Isrc { .. } => {}
            SimDevice::Vcvs {
                p,
                n,
                cp,
                cn,
                branch,
                gain,
            } => {
                if let Some(i) = *p {
                    g.push((i, *branch, 1.0));
                    g.push((*branch, i, 1.0));
                }
                if let Some(j) = *n {
                    g.push((j, *branch, -1.0));
                    g.push((*branch, j, -1.0));
                }
                if let Some(i) = *cp {
                    g.push((*branch, i, -gain));
                }
                if let Some(j) = *cn {
                    g.push((*branch, j, *gain));
                }
            }
            SimDevice::Vccs { p, n, cp, cn, gm } => {
                for (row, sign) in [(*p, 1.0), (*n, -1.0)] {
                    if let Some(r) = row {
                        if let Some(i) = *cp {
                            g.push((r, i, sign * gm));
                        }
                        if let Some(j) = *cn {
                            g.push((r, j, -sign * gm));
                        }
                    }
                }
            }
            SimDevice::Cccs {
                p,
                n,
                cbranch,
                gain,
                ..
            } => {
                if let Some(i) = *p {
                    g.push((i, *cbranch, *gain));
                }
                if let Some(j) = *n {
                    g.push((j, *cbranch, -gain));
                }
            }
            SimDevice::Ccvs {
                p,
                n,
                cbranch,
                branch,
                r,
            } => {
                if let Some(i) = *p {
                    g.push((i, *branch, 1.0));
                    g.push((*branch, i, 1.0));
                }
                if let Some(j) = *n {
                    g.push((j, *branch, -1.0));
                    g.push((*branch, j, -1.0));
                }
                g.push((*branch, *cbranch, -r));
            }
            // `.ic` pins shape the DC operating point only; the small-signal
            // matrices see nothing from them.
            SimDevice::NodeIc { .. } => {}
            SimDevice::Mosfet {
                d,
                g: gate,
                s,
                b,
                model,
                w,
                l,
                caps,
                ..
            } => {
                let op = mosfet::eval(
                    model,
                    *w,
                    *l,
                    volt(x_op, *gate),
                    volt(x_op, *d),
                    volt(x_op, *s),
                    volt(x_op, *b),
                );
                // Channel: row d gets +(gm, gds, gms, gmb); row s the negative.
                for (col, val) in [(*gate, op.gm), (*d, op.gds), (*s, op.gms), (*b, op.gmb)] {
                    if let (Some(r), Some(cc)) = (*d, col) {
                        g.push((r, cc, val));
                    }
                    if let (Some(r), Some(cc)) = (*s, col) {
                        g.push((r, cc, -val));
                    }
                }
                add2(g, *d, *s, gmin);
                add2(c, *gate, *s, caps.cgs);
                add2(c, *gate, *d, caps.cgd);
                add2(c, *gate, *b, caps.cgb);
            }
            SimDevice::Ptm { p, n, state, .. } => {
                add2(g, *p, *n, 1.0 / state.resistance(0.0));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfet_circuit::SourceWaveform;

    fn log_freqs(lo: f64, hi: f64, n: usize) -> Vec<f64> {
        (0..n)
            .map(|k| lo * (hi / lo).powf(k as f64 / (n - 1) as f64))
            .collect()
    }

    #[test]
    fn rc_lowpass_magnitude_and_corner() {
        // R = 1k, C = 1n -> f_3dB = 1/(2 pi RC) ~ 159 kHz.
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let out = ckt.node("out");
        let gnd = Circuit::ground();
        ckt.add_voltage_source("V1", a, gnd, SourceWaveform::Dc(0.0))
            .unwrap();
        ckt.add_resistor("R1", a, out, 1e3).unwrap();
        ckt.add_capacitor("C1", out, gnd, 1e-9).unwrap();
        let freqs = log_freqs(1e3, 1e8, 61);
        let res = ac_sweep(&ckt, "V1", &freqs, &SimOptions::default()).unwrap();
        let mag = res.magnitude("out").unwrap();
        // Low-frequency gain ~1, high-frequency rolls off 20 dB/dec.
        assert!((mag[0] - 1.0).abs() < 1e-3);
        let f3 = 1.0 / (2.0 * std::f64::consts::PI * 1e3 * 1e-9);
        let k3 = freqs.iter().position(|&f| f > f3).unwrap();
        assert!(
            (mag[k3] - 1.0 / 2f64.sqrt()).abs() < 0.08,
            "corner {}",
            mag[k3]
        );
        let last = *mag.last().unwrap();
        assert!(last < 0.01, "rolloff {last}");
        // Phase approaches -90 degrees.
        let ph = res.phasors("out").unwrap().last().unwrap().phase_deg();
        assert!((ph + 90.0).abs() < 5.0, "phase {ph}");
    }

    #[test]
    fn rlc_resonance_peak() {
        // Series RLC driven by V: |V(out)| peaks at f0 = 1/(2 pi sqrt(LC)).
        let (r, l, c) = (1.0, 1e-9, 1e-12);
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let m1 = ckt.node("m1");
        let out = ckt.node("out");
        let gnd = Circuit::ground();
        ckt.add_voltage_source("V1", a, gnd, SourceWaveform::Dc(0.0))
            .unwrap();
        ckt.add_resistor("R1", a, m1, r).unwrap();
        ckt.add_inductor("L1", m1, out, l).unwrap();
        ckt.add_capacitor("C1", out, gnd, c).unwrap();
        let f0 = 1.0 / (2.0 * std::f64::consts::PI * (l * c).sqrt());
        let freqs = log_freqs(f0 / 100.0, f0 * 100.0, 201);
        let res = ac_sweep(&ckt, "V1", &freqs, &SimOptions::default()).unwrap();
        let mag = res.magnitude("out").unwrap();
        let (k_peak, peak) = mag
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap();
        let f_peak = freqs[k_peak];
        assert!(
            (f_peak / f0 - 1.0).abs() < 0.1,
            "peak at {f_peak:.3e} vs f0 {f0:.3e}"
        );
        // Q = sqrt(L/C)/R ~ 31.6: strong resonant gain.
        assert!(*peak > 10.0, "resonant gain {peak}");
    }

    #[test]
    fn current_source_impedance_of_parallel_rc() {
        // 1 A into R || C reads Z(jw): |Z|(0) = R, |Z|(f_c) = R/sqrt(2).
        let (r, c) = (50.0, 1e-9);
        let mut ckt = Circuit::new();
        let n1 = ckt.node("n1");
        let gnd = Circuit::ground();
        ckt.add_current_source("IAC", n1, gnd, SourceWaveform::Dc(0.0))
            .unwrap();
        ckt.add_resistor("R1", n1, gnd, r).unwrap();
        ckt.add_capacitor("C1", n1, gnd, c).unwrap();
        let fc = 1.0 / (2.0 * std::f64::consts::PI * r * c);
        let res = ac_sweep(&ckt, "IAC", &[fc / 1e3, fc], &SimOptions::default()).unwrap();
        let z = res.magnitude("n1").unwrap();
        assert!((z[0] - r).abs() / r < 1e-3, "dc impedance {}", z[0]);
        assert!((z[1] - r / 2f64.sqrt()).abs() / r < 0.02, "corner {}", z[1]);
    }

    #[test]
    fn mosfet_amplifier_gain_at_op() {
        // Common-source stage: gain ~ gm * R_load at low frequency.
        use sfet_devices::mosfet::MosfetModel;
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let inp = ckt.node("in");
        let out = ckt.node("out");
        let gnd = Circuit::ground();
        ckt.add_voltage_source("VDD", vdd, gnd, SourceWaveform::Dc(1.0))
            .unwrap();
        // Bias the gate mid-transition.
        ckt.add_voltage_source("VIN", inp, gnd, SourceWaveform::Dc(0.55))
            .unwrap();
        ckt.add_resistor("RL", vdd, out, 20e3).unwrap();
        ckt.add_mosfet(
            "M1",
            out,
            inp,
            gnd,
            gnd,
            MosfetModel::nmos_40nm(),
            240e-9,
            40e-9,
        )
        .unwrap();
        let res = ac_sweep(&ckt, "VIN", &[1e6], &SimOptions::default()).unwrap();
        let gain = res.magnitude("out").unwrap()[0];
        assert!(gain > 1.0, "amplifying stage, got {gain}");
    }

    #[test]
    fn unknown_source_rejected() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let gnd = Circuit::ground();
        ckt.add_voltage_source("V1", a, gnd, SourceWaveform::Dc(1.0))
            .unwrap();
        ckt.add_resistor("R1", a, gnd, 1e3).unwrap();
        assert!(matches!(
            ac_sweep(&ckt, "VX", &[1e6], &SimOptions::default()),
            Err(SimError::UnknownSignal(_))
        ));
        assert!(ac_sweep(&ckt, "V1", &[], &SimOptions::default()).is_err());
        assert!(ac_sweep(&ckt, "V1", &[-1.0], &SimOptions::default()).is_err());
    }

    #[test]
    fn phasor_helpers() {
        let z = Phasor { re: 3.0, im: 4.0 };
        assert!((z.magnitude() - 5.0).abs() < 1e-12);
        let j = Phasor { re: 0.0, im: 1.0 };
        assert!((j.phase_deg() - 90.0).abs() < 1e-9);
    }
}
