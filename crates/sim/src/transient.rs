//! Transient analysis engine.
//!
//! Adaptive-step integration with Newton–Raphson at each time point.
//! Three mechanisms control the step size:
//!
//! * **truncation bound** — `dtmax` caps the step (experiments choose it
//!   from the time scale of interest);
//! * **source breakpoints** — steps land exactly on waveform corners;
//! * **PTM events** — after a solve, every PTM's terminal voltage is
//!   checked against its armed threshold. A step that overshoots the
//!   threshold by more than `event_vtol` is rejected and halved, so the
//!   transition fires within a tight window of the true crossing; while a
//!   transition ramp is in flight the step is capped at `T_PTM / 8`.
//!
//! The first step and every step immediately after a fired event use
//! backward Euler (L-stable) to damp the discontinuity; other steps use
//! the configured method (trapezoidal by default).
//!
//! The stepper is the lane state machine in `batch.rs`, which
//! [`transient_batch`](crate::transient_batch) runs over many lanes; the
//! entry points here run it as a single lane over an `MnaMatrix`.
//! [`transient`] and [`transient_resumable`] record every unknown at every
//! accepted point into a [`TranResult`]; [`transient_probe`] records
//! nothing and passes the named nodes' values to a closure instead.
//!
//! # Checkpoint/restart
//!
//! [`transient_resumable`] adds crash resilience: with a
//! [`CheckpointPolicy`] the stepper periodically serializes its full state
//! (see [`crate::checkpoint`]) and can later resume from the snapshot,
//! producing a waveform bitwise identical to an uninterrupted run.

use crate::batch::{drive_lanes, Lane};
use crate::checkpoint::CheckpointPolicy;
use crate::devices::{node_unknown, CompiledCircuit, SimDevice};
use crate::matrix::MnaMatrix;
use crate::options::SimOptions;
use crate::result::{Signal, SignalIndex, TranResult, TranStats};
use crate::{Result, SimError};
use sfet_circuit::Circuit;

/// Runs a transient analysis from `t = 0` to `tstop`.
///
/// The initial state is the DC operating point with all sources at their
/// `t = 0` values (capacitor initial conditions, when given, are enforced
/// during the DC solve).
///
/// # Errors
///
/// * [`SimError::InvalidOptions`] for a non-positive `tstop` or bad options;
/// * [`SimError::Circuit`] if the circuit fails validation;
/// * [`SimError::NonConvergence`] / [`SimError::StepBudgetExceeded`] if the
///   integration cannot complete.
pub fn transient(circuit: &Circuit, tstop: f64, opts: &SimOptions) -> Result<TranResult> {
    transient_resumable(circuit, tstop, opts, &CheckpointPolicy::disabled())
}

/// [`transient`] with checkpoint/restart support.
///
/// With `ckpt.checkpoint_to` set, the stepper writes a snapshot of its
/// complete state every `ckpt.checkpoint_every` accepted steps (atomic
/// write — a crash mid-write cannot corrupt the previous good snapshot).
/// With `ckpt.resume_from` set, the run restores that snapshot instead of
/// solving the DC operating point and continues to `tstop`; the resumed
/// waveform is **bitwise identical** to what the uninterrupted run would
/// have produced, and the returned [`TranStats`] cover both segments.
///
/// # Errors
///
/// Everything [`transient`] raises, plus [`SimError::Checkpoint`] for
/// unreadable/mismatched snapshots and [`SimError::InjectedCrash`] when a
/// fault plan ([`SimOptions::fault`] or `SFET_FAULT_PLAN`) kills the run.
pub fn transient_resumable(
    circuit: &Circuit,
    tstop: f64,
    opts: &SimOptions,
    ckpt: &CheckpointPolicy,
) -> Result<TranResult> {
    let compiled = compile_checked(circuit, tstop, opts)?;
    let n = compiled.size;
    run_alone(n, opts, Lane::setup(compiled, tstop, opts, ckpt))?.into_result()
}

/// Runs [`transient`]'s stepper, but records nothing: at every accepted
/// point, the `t = 0` operating point included, it passes the voltages of
/// `nodes`, in the order named, to `sample`, and it returns the run's
/// statistics.
///
/// The values `sample` sees, point by point, are bit for bit the samples
/// [`TranResult::node_samples`] holds after a [`transient`] run with the
/// same arguments, and the statistics are bit for bit its
/// [`TranResult::stats`]. A caller that folds the waveforms as the run
/// steps, as a droop map keeps each tile's minimum, holds memory that does
/// not grow with the run's length.
///
/// # Example
///
/// The lowest voltage an RC low-pass output reaches while its input falls:
///
/// ```
/// use sfet_circuit::{Circuit, SourceWaveform};
/// use sfet_sim::{transient_probe, SimOptions};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut ckt = Circuit::new();
/// let (inp, out, gnd) = (ckt.node("in"), ckt.node("out"), Circuit::ground());
/// ckt.add_voltage_source("V1", inp, gnd, SourceWaveform::ramp(1.0, 0.0, 0.0, 1e-12))?;
/// ckt.add_resistor("R1", inp, out, 1e3)?;
/// ckt.add_capacitor("C1", out, gnd, 1e-15)?; // tau = 1 ps
/// let mut v_min = f64::INFINITY;
/// let stats = transient_probe(&ckt, 10e-12, &SimOptions::default(), &["out"], |v| {
///     v_min = v_min.min(v[0]);
/// })?;
/// assert!(v_min < 0.01 && stats.steps_accepted > 0);
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// Everything [`transient`] raises, and [`SimError::UnknownSignal`],
/// spelled `v(name)` as [`TranResult::node_samples`] spells it, for a node
/// the circuit does not have; that one is raised before the run starts.
pub fn transient_probe<S: AsRef<str>>(
    circuit: &Circuit,
    tstop: f64,
    opts: &SimOptions,
    nodes: &[S],
    mut sample: impl FnMut(&[f64]),
) -> Result<TranStats> {
    let mut nodes = nodes.iter().map(AsRef::as_ref);
    probe_lane(circuit, tstop, opts, &mut nodes, &mut sample)
}

/// [`transient_probe`] with nothing generic, so that the stepper it runs
/// is compiled in this crate alone, as the recording entry points' is.
fn probe_lane(
    circuit: &Circuit,
    tstop: f64,
    opts: &SimOptions,
    nodes: &mut dyn Iterator<Item = &str>,
    sample: &mut dyn FnMut(&[f64]),
) -> Result<TranStats> {
    let compiled = compile_checked(circuit, tstop, opts)?;
    let probe = Probe::new(circuit, nodes, sample)?;
    let n = compiled.size;
    run_alone(n, opts, Lane::probe(compiled, tstop, opts, probe))?.into_stats()
}

/// Runs one lane of `n` unknowns to its end over an [`MnaMatrix`] of the
/// backend `opts` pick for that size.
fn run_alone<'a>(n: usize, opts: &SimOptions, lane: Result<Lane<'a>>) -> Result<Lane<'a>> {
    let mut jac = MnaMatrix::new(opts.effective_solver(n), n, opts.reuse_factorization);
    let mut lane = [lane];
    drive_lanes(&mut jac, &mut lane, n);
    let [lane] = lane;
    lane
}

/// Validates a transient's options, stop time and circuit, and compiles
/// the circuit. Emits no telemetry.
pub(crate) fn compile_checked(
    circuit: &Circuit,
    tstop: f64,
    opts: &SimOptions,
) -> Result<CompiledCircuit> {
    opts.validate()?;
    if !(tstop > 0.0 && tstop.is_finite()) {
        return Err(SimError::InvalidOptions(format!(
            "tstop must be positive and finite, got {tstop:e}"
        )));
    }
    circuit.validate()?;
    Ok(CompiledCircuit::compile(circuit))
}

/// What a lane keeps of each accepted point, the `t = 0` operating point
/// included.
pub(crate) enum Sink<'a> {
    /// Every unknown's waveform, and the snapshots the policy asks for.
    Record(Recorder, &'a CheckpointPolicy),
    /// Nothing: the named nodes' values go to the caller's closure.
    Probe(Probe<'a>),
}

impl Sink<'_> {
    /// Keeps the accepted point `x` at time `t`.
    pub(crate) fn take(&mut self, t: f64, x: &[f64], compiled: &CompiledCircuit) {
        match self {
            Sink::Record(recorder, _) => recorder.record(t, x, compiled),
            Sink::Probe(probe) => probe.take(x),
        }
    }
}

/// The named nodes of a [`transient_probe`] run: their unknowns, a buffer
/// for their values at one point, and the caller's closure.
pub(crate) struct Probe<'a> {
    unknowns: Vec<usize>,
    values: Vec<f64>,
    sample: &'a mut dyn FnMut(&[f64]),
}

impl<'a> Probe<'a> {
    fn new(
        circuit: &Circuit,
        nodes: &mut dyn Iterator<Item = &str>,
        sample: &'a mut dyn FnMut(&[f64]),
    ) -> Result<Self> {
        let unknowns = nodes
            .map(|name| {
                circuit
                    .find_node(name)
                    .and_then(node_unknown)
                    .ok_or_else(|| Signal::Voltage.unknown(name))
            })
            .collect::<Result<Vec<usize>>>()?;
        Ok(Probe {
            values: vec![0.0; unknowns.len()],
            unknowns,
            sample,
        })
    }

    fn take(&mut self, x: &[f64]) {
        for (v, &i) in self.values.iter_mut().zip(&self.unknowns) {
            *v = x[i];
        }
        (self.sample)(&self.values);
    }
}

/// Accumulates sampled signals during integration, one per lane.
pub(crate) struct Recorder {
    pub(crate) times: Vec<f64>,
    pub(crate) node_data: Vec<Vec<f64>>,
    pub(crate) branch_data: Vec<Vec<f64>>,
    pub(crate) ptm_resistance: Vec<Vec<f64>>,
}

impl Recorder {
    /// Every column starts empty and grows by doubling. Measured with
    /// perfbench on a 2-core Xeon: reserving 1 024 samples in every column
    /// ran `pdn_map` (12×12 droop maps) 2.6 % slower, and reserving the
    /// run's estimated length, ⌈tstop / dtmax⌉ + 17 samples, raised the
    /// peak memory of `mc_batched` (Monte-Carlo sweeps) by 20 %.
    pub(crate) fn new(compiled: &CompiledCircuit) -> Self {
        Recorder {
            times: Vec::new(),
            node_data: vec![Vec::new(); compiled.node_names.len()],
            branch_data: vec![Vec::new(); compiled.branch_names.len()],
            ptm_resistance: vec![Vec::new(); compiled.ptm_devices.len()],
        }
    }

    /// Rebuilds a recorder from checkpointed sample columns, validating
    /// that the column layout matches the compiled circuit.
    pub(crate) fn restore(
        compiled: &CompiledCircuit,
        times: Vec<f64>,
        node_data: Vec<Vec<f64>>,
        branch_data: Vec<Vec<f64>>,
        ptm_resistance: Vec<Vec<f64>>,
    ) -> Result<Self> {
        if node_data.len() != compiled.node_names.len()
            || branch_data.len() != compiled.branch_names.len()
            || ptm_resistance.len() != compiled.ptm_devices.len()
        {
            return Err(SimError::Checkpoint(format!(
                "snapshot column layout ({}/{}/{} node/branch/ptm) does not match \
                 the circuit ({}/{}/{})",
                node_data.len(),
                branch_data.len(),
                ptm_resistance.len(),
                compiled.node_names.len(),
                compiled.branch_names.len(),
                compiled.ptm_devices.len(),
            )));
        }
        let n = times.len();
        if node_data
            .iter()
            .chain(&branch_data)
            .chain(&ptm_resistance)
            .any(|col| col.len() != n)
        {
            return Err(SimError::Checkpoint(
                "snapshot sample columns have inconsistent lengths".into(),
            ));
        }
        Ok(Recorder {
            times,
            node_data,
            branch_data,
            ptm_resistance,
        })
    }

    /// Appends one accepted point to every column. Out of line, so that
    /// [`Sink::take`] stays a small dispatch and every recording lane runs
    /// this one loop.
    #[inline(never)]
    pub(crate) fn record(&mut self, t: f64, x: &[f64], compiled: &CompiledCircuit) {
        self.times.push(t);
        let nc = compiled.node_names.len();
        for (i, col) in self.node_data.iter_mut().enumerate() {
            col.push(x[i]);
        }
        for (j, col) in self.branch_data.iter_mut().enumerate() {
            col.push(x[nc + j]);
        }
        for (k, &(dev_idx, _)) in compiled.ptm_devices.iter().enumerate() {
            if let SimDevice::Ptm { state, .. } = &compiled.devices[dev_idx] {
                self.ptm_resistance[k].push(state.resistance(t));
            }
        }
    }

    pub(crate) fn finish(self, compiled: &CompiledCircuit, stats: TranStats) -> TranResult {
        let ptm_events = compiled
            .ptm_devices
            .iter()
            .map(|&(dev_idx, _)| match &compiled.devices[dev_idx] {
                SimDevice::Ptm { events, .. } => events.clone(),
                _ => unreachable!("ptm_devices indexes PTM instances"),
            })
            .collect();
        TranResult {
            times: self.times,
            signals: SignalIndex::new(compiled),
            node_data: self.node_data,
            branch_data: self.branch_data,
            ptm_resistance: self.ptm_resistance,
            ptm_events,
            stats,
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::matrix::LinearSolver;
    use sfet_circuit::SourceWaveform;
    use sfet_devices::mosfet::MosfetModel;
    use sfet_devices::ptm::PtmParams;
    use sfet_numeric::fault::FaultPlan;
    use sfet_numeric::integrate::Method;
    use sfet_numeric::NumericError;
    use sfet_telemetry::names;

    fn opts_for(tstop: f64) -> SimOptions {
        SimOptions::for_duration(tstop, 2000)
    }

    #[test]
    fn rc_step_matches_exponential() {
        let mut ckt = Circuit::new();
        let (a, out, g) = {
            let mut c = |n: &str| ckt.node(n);
            (c("a"), c("out"), Circuit::ground())
        };
        ckt.add_voltage_source("V1", a, g, SourceWaveform::ramp(0.0, 1.0, 0.0, 1e-15))
            .unwrap();
        ckt.add_resistor("R1", a, out, 1e3).unwrap();
        ckt.add_capacitor("C1", out, g, 1e-15).unwrap(); // tau = 1 ps
        let tstop = 6e-12;
        let r = transient(&ckt, tstop, &opts_for(tstop)).unwrap();
        let v = r.voltage("out").unwrap();
        for &tau_mult in &[1.0f64, 2.0, 4.0] {
            let t = tau_mult * 1e-12;
            let expect = 1.0 - (-tau_mult).exp();
            let got = v.value_at(t);
            assert!(
                (got - expect).abs() < 0.01,
                "t={tau_mult}tau: {got} vs {expect}"
            );
        }
    }

    #[test]
    fn node_ic_released_in_transient() {
        // `.ic`-pinned node starts at 0.25 V and charges toward 1 V with
        // the RC time constant once the DC pin is released.
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        let g = Circuit::ground();
        ckt.add_voltage_source("V1", a, g, SourceWaveform::Dc(1.0))
            .unwrap();
        ckt.add_resistor("R1", a, b, 1e3).unwrap();
        ckt.add_capacitor("C1", b, g, 1e-15).unwrap(); // tau = 1 ps
        ckt.set_node_ic(b, 0.25);
        let tstop = 10e-12;
        let r = transient(&ckt, tstop, &opts_for(tstop)).unwrap();
        let v = r.voltage("b").unwrap();
        assert!((v.first_value() - 0.25).abs() < 1e-3, "{}", v.first_value());
        // v(t) = 1 - 0.75 exp(-t/tau).
        let expect = 1.0 - 0.75 * (-2.0f64).exp();
        assert!((v.value_at(2e-12) - expect).abs() < 0.01);
        assert!((v.last_value() - 1.0).abs() < 1e-3);
    }

    #[test]
    fn vcvs_follows_waveform_in_transient() {
        let mut ckt = Circuit::new();
        let inp = ckt.node("in");
        let amp = ckt.node("amp");
        let g = Circuit::ground();
        ckt.add_voltage_source("V1", inp, g, SourceWaveform::ramp(0.0, 0.1, 0.0, 50e-12))
            .unwrap();
        ckt.add_resistor("R1", inp, g, 1e3).unwrap();
        ckt.add_vcvs("E1", amp, g, inp, g, 5.0).unwrap();
        ckt.add_resistor("RL", amp, g, 1e3).unwrap();
        let tstop = 50e-12;
        let r = transient(&ckt, tstop, &opts_for(tstop)).unwrap();
        let v = r.voltage("amp").unwrap();
        // Memoryless gain: v(amp) tracks 5 * v(in) at every accepted step.
        assert!((v.value_at(25e-12) - 0.25).abs() < 1e-6);
        assert!((v.last_value() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn rl_current_rise() {
        // V → R → L to ground: i(t) = V/R (1 - exp(-tR/L)).
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let mid = ckt.node("mid");
        let g = Circuit::ground();
        ckt.add_voltage_source("V1", a, g, SourceWaveform::ramp(0.0, 1.0, 0.0, 1e-15))
            .unwrap();
        ckt.add_resistor("R1", a, mid, 100.0).unwrap();
        ckt.add_inductor("L1", mid, g, 1e-9).unwrap(); // tau = L/R = 10 ps
        let tstop = 60e-12;
        let r = transient(&ckt, tstop, &opts_for(tstop)).unwrap();
        let i = r.branch_current("L1").unwrap();
        let expect = 0.01 * (1.0 - (-3.0f64).exp());
        let got = i.value_at(30e-12);
        assert!((got - expect).abs() < 2e-4, "{got} vs {expect}");
    }

    #[test]
    fn rlc_ringing_frequency() {
        // Series RLC step: underdamped ringing at w = sqrt(1/LC - (R/2L)^2).
        let (l, c, res) = (1e-9, 1e-12, 10.0);
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let m1 = ckt.node("m1");
        let out = ckt.node("out");
        let g = Circuit::ground();
        ckt.add_voltage_source("V1", a, g, SourceWaveform::ramp(0.0, 1.0, 0.0, 1e-15))
            .unwrap();
        ckt.add_resistor("R1", a, m1, res).unwrap();
        ckt.add_inductor("L1", m1, out, l).unwrap();
        ckt.add_capacitor("C1", out, g, c).unwrap();
        let tstop = 500e-12;
        let r = transient(&ckt, tstop, &SimOptions::for_duration(tstop, 5000)).unwrap();
        let v = r.voltage("out").unwrap();
        // Find the first two peaks above 1.0 and compare the period.
        let d = v.derivative();
        let mut peaks = Vec::new();
        for i in 1..d.len() {
            if d.values()[i - 1] > 0.0 && d.values()[i] <= 0.0 {
                peaks.push(d.times()[i]);
            }
            if peaks.len() == 2 {
                break;
            }
        }
        assert_eq!(peaks.len(), 2, "expected ringing");
        let period = peaks[1] - peaks[0];
        let w = (1.0 / (l * c) - (res / (2.0 * l)).powi(2)).sqrt();
        let expect = 2.0 * std::f64::consts::PI / w;
        assert!(
            (period - expect).abs() / expect < 0.05,
            "period {period:e} vs {expect:e}"
        );
    }

    #[test]
    fn inverter_switches() {
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let inp = ckt.node("in");
        let out = ckt.node("out");
        let g = Circuit::ground();
        ckt.add_voltage_source("VDD", vdd, g, SourceWaveform::Dc(1.0))
            .unwrap();
        ckt.add_voltage_source(
            "VIN",
            inp,
            g,
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
            g,
            g,
            MosfetModel::nmos_40nm(),
            120e-9,
            40e-9,
        )
        .unwrap();
        ckt.add_capacitor("CL", out, g, 2e-15).unwrap();
        let tstop = 200e-12;
        let r = transient(&ckt, tstop, &opts_for(tstop)).unwrap();
        let v_out = r.voltage("out").unwrap();
        assert!(v_out.first_value() < 0.02, "starts low");
        assert!(v_out.last_value() > 0.98, "ends high");
        // Supply delivered charge to the load: peak supply current positive.
        let i_vdd = r.supply_current("VDD").unwrap();
        let (_, imax) = i_vdd.peak_abs();
        assert!(imax > 1e-6, "peak rail current {imax}");
    }

    #[test]
    fn ptm_cap_staircase_soft_charging() {
        // Paper Fig. 3: PTM in series with a capacitor; ramp input.
        let params = PtmParams::vo2_default();
        let mut ckt = Circuit::new();
        let inp = ckt.node("in");
        let vc = ckt.node("vc");
        let g = Circuit::ground();
        ckt.add_voltage_source(
            "VIN",
            inp,
            g,
            SourceWaveform::ramp(0.0, 1.0, 10e-12, 30e-12),
        )
        .unwrap();
        ckt.add_ptm("P1", inp, vc, params).unwrap();
        ckt.add_capacitor("C1", vc, g, 0.5e-15).unwrap();
        let tstop = 2000e-12;
        let opts = SimOptions::for_duration(tstop, 4000);
        let r = transient(&ckt, tstop, &opts).unwrap();

        let v_c = r.voltage("vc").unwrap();
        // The cap eventually reaches the input level.
        assert!(v_c.last_value() > 0.95, "final V_C = {}", v_c.last_value());
        // At least one insulator→metal transition fired.
        let events = r.ptm_events("P1").unwrap();
        assert!(!events.is_empty(), "no phase transitions recorded");
        // The voltage across the PTM can exceed V_IMT only by what the
        // input ramp adds during the finite T_PTM transition window:
        // slew * T_PTM = (1V / 30ps) * 10ps ≈ 0.33 V.
        let v_in = r.voltage("in").unwrap();
        let v_ptm = v_in.zip_with(&v_c, |a, b| a - b);
        let (_, peak) = v_ptm.peak_abs();
        let slew = 1.0 / 30e-12;
        assert!(
            peak < params.v_imt + slew * params.t_ptm + 0.05,
            "PTM voltage overshoot: {peak}"
        );
        // But the trigger itself fired within the event tolerance of V_IMT:
        // find the voltage at the first event time.
        let t_fire = events[0].time;
        let v_at_fire = v_ptm.value_at(t_fire);
        assert!(
            (v_at_fire - params.v_imt).abs() < 0.02,
            "fired at {v_at_fire} V, expected near {}",
            params.v_imt
        );
        // Staircase: resistance trace must visit the metallic value.
        let r_ptm = r.ptm_resistance("P1").unwrap();
        let (_, r_min) = r_ptm.min();
        assert!(r_min < 2.0 * params.r_met, "metallic phase reached");
    }

    #[test]
    fn breakpoints_are_hit_exactly() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let g = Circuit::ground();
        ckt.add_voltage_source("V1", a, g, SourceWaveform::ramp(0.0, 1.0, 50e-12, 10e-12))
            .unwrap();
        ckt.add_resistor("R1", a, g, 1e3).unwrap();
        let tstop = 100e-12;
        let r = transient(&ckt, tstop, &SimOptions::for_duration(tstop, 50)).unwrap();
        let times = r.times();
        let has = |t0: f64| times.iter().any(|&t| (t - t0).abs() < 1e-18);
        assert!(has(50e-12), "ramp start corner missed");
        assert!(has(60e-12), "ramp end corner missed");
    }

    /// A Newton failure whose quartered retry would land below `dtmin`
    /// must clamp to `dtmin` and attempt that floor step (backward Euler)
    /// before giving up. Here the snapped-to corner step faces a 1 V input
    /// jump that the damped Newton cannot absorb within the iteration
    /// budget, but the clamped dtmin-sized retry sees only a ~0.3 V ramp
    /// segment and converges — previously this returned a spurious
    /// `NonConvergence`.
    #[test]
    fn newton_failure_retries_at_dtmin_floor() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let out = ckt.node("out");
        let g = Circuit::ground();
        ckt.add_voltage_source("V1", a, g, SourceWaveform::ramp(0.0, 1.0, 0.0, 1e-15))
            .unwrap();
        ckt.add_resistor("R1", a, out, 1e3).unwrap();
        ckt.add_capacitor("C1", out, g, 1e-15).unwrap(); // tau = 1 ps
        let opts = SimOptions {
            dtmin: 0.3e-15,
            max_newton_step: 0.1,
            max_newton_iter: 5,
            ..Default::default()
        };
        let tstop = 6e-12;
        let r = transient(&ckt, tstop, &opts).unwrap();
        let v = r.voltage("out").unwrap();
        let got = v.value_at(2e-12);
        let expect = 1.0 - (-2.0f64).exp();
        assert!((got - expect).abs() < 0.02, "{got} vs {expect}");
        assert!(r.stats().steps_rejected > 0, "the corner step must fail");
    }

    /// A source corner closer than `dtmin` to the current time must be
    /// stepped across with a dtmin-sized backward-Euler step, not silently
    /// stepped over with the full-size step. The 0.1 ps ramp here is
    /// shorter than `dtmin = 0.5 ps`.
    #[test]
    fn sub_dtmin_corner_stepped_across() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let out = ckt.node("out");
        let g = Circuit::ground();
        ckt.add_voltage_source("V1", a, g, SourceWaveform::ramp(0.0, 1.0, 10e-12, 0.1e-12))
            .unwrap();
        ckt.add_resistor("R1", a, out, 1e3).unwrap();
        ckt.add_capacitor("C1", out, g, 1e-15).unwrap();
        let opts = SimOptions {
            dtmin: 0.5e-12,
            dtmax: 5e-12,
            ..Default::default()
        };
        let tstop = 100e-12;
        let r = transient(&ckt, tstop, &opts).unwrap();
        let times = r.times();
        assert!(
            times.iter().any(|&t| (t - 10e-12).abs() < 1e-18),
            "ramp start corner missed"
        );
        // The step taken from the ramp-start corner must be the dtmin
        // floor across the sub-dtmin ramp-end corner, not the full step.
        assert!(
            times.iter().any(|&t| t > 10.1e-12 && t <= 10.6e-12 + 1e-18),
            "sub-dtmin corner stepped over with a full-size step"
        );
        assert!(r.voltage("out").unwrap().last_value() > 0.99);
    }

    /// LTE control across a sharp source corner: the predictor history is
    /// reset at the discontinuity, so post-corner steps are not rejected
    /// against an extrapolation through pre-corner points.
    #[test]
    fn lte_control_handles_corner_discontinuity() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let out = ckt.node("out");
        let g = Circuit::ground();
        ckt.add_voltage_source("V1", a, g, SourceWaveform::ramp(0.0, 1.0, 50e-12, 1e-15))
            .unwrap();
        ckt.add_resistor("R1", a, out, 1e3).unwrap();
        ckt.add_capacitor("C1", out, g, 2e-15).unwrap(); // tau = 2 ps
        let tstop = 70e-12;
        let opts = SimOptions::for_duration(tstop, 2000).with_lte(1e-3);
        let r = transient(&ckt, tstop, &opts).unwrap();
        let v = r.voltage("out").unwrap();
        // 4 tau after the corner: (1 - e^-4) of the step.
        let got = v.value_at(58e-12);
        let expect = 1.0 - (-4.0f64).exp();
        assert!((got - expect).abs() < 0.02, "{got} vs {expect}");
    }

    #[test]
    fn stats_are_populated() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let g = Circuit::ground();
        ckt.add_voltage_source("V1", a, g, SourceWaveform::Dc(1.0))
            .unwrap();
        ckt.add_resistor("R1", a, g, 1e3).unwrap();
        let r = transient(&ckt, 1e-12, &SimOptions::default()).unwrap();
        assert!(r.stats().steps_accepted > 0);
        assert!(r.stats().newton_iterations >= r.stats().steps_accepted);
    }

    /// An RC charging from an initial condition under a DC source: no
    /// breakpoints, so after its ramp-up from `dtmax / 16` the stepper
    /// sits at the `dtmax` cap.
    pub(crate) fn rc_charging_at_dtmax() -> Circuit {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let out = ckt.node("out");
        let g = Circuit::ground();
        ckt.add_voltage_source("V1", a, g, SourceWaveform::Dc(1.0))
            .unwrap();
        ckt.add_resistor("R1", a, out, 1e3).unwrap();
        ckt.add_capacitor("C1", out, g, 1e-15).unwrap();
        ckt.set_node_ic(out, 0.0);
        ckt
    }

    /// `tran.dt_growths` counts steps after which dt really grew: a step
    /// pinned at `dtmax` is not a growth, even though the controller's
    /// uncapped proposal is 1.3× larger.
    #[test]
    fn dt_growths_stop_at_the_dtmax_cap() {
        use sfet_telemetry::{SharedAggregator, Telemetry};
        let agg = SharedAggregator::new();
        let tstop = 10e-12;
        let opts = SimOptions::for_duration(tstop, 200).with_telemetry(Telemetry::new(agg.clone()));
        let r = transient(&rc_charging_at_dtmax(), tstop, &opts).unwrap();
        let accepted = r.stats().steps_accepted;
        assert!(accepted > 200, "{accepted} steps");
        let snap = agg.snapshot();
        let growths = snap.counter(names::TRAN_DT_GROWTHS);
        // 1.3^11 > 16: eleven growths take dt from dtmax / 16 to the cap,
        // and one follows the last step, shortened to land on tstop.
        assert!(
            (1..=12).contains(&growths),
            "{growths} growths in {accepted} accepted steps"
        );
        assert_eq!(snap.counter(names::TRAN_DT_SHRINKS), 0);
    }

    #[test]
    fn invalid_tstop_rejected() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let g = Circuit::ground();
        ckt.add_voltage_source("V1", a, g, SourceWaveform::Dc(1.0))
            .unwrap();
        ckt.add_resistor("R1", a, g, 1e3).unwrap();
        assert!(matches!(
            transient(&ckt, -1.0, &SimOptions::default()),
            Err(SimError::InvalidOptions(_))
        ));
    }

    /// Fresh temp-file path for checkpoint tests (unique per process and
    /// per call; tests must not share paths, they run in parallel).
    fn tmp_path(tag: &str) -> std::path::PathBuf {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static N: AtomicUsize = AtomicUsize::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "sfet-tran-test-{}-{tag}-{n}.ckpt",
            std::process::id()
        ))
    }

    /// Paper Fig. 3 staircase circuit, reused by the resume tests.
    fn staircase_circuit() -> Circuit {
        let params = PtmParams::vo2_default();
        let mut ckt = Circuit::new();
        let inp = ckt.node("in");
        let vc = ckt.node("vc");
        let g = Circuit::ground();
        ckt.add_voltage_source(
            "VIN",
            inp,
            g,
            SourceWaveform::ramp(0.0, 1.0, 10e-12, 30e-12),
        )
        .unwrap();
        ckt.add_ptm("P1", inp, vc, params).unwrap();
        ckt.add_capacitor("C1", vc, g, 0.5e-15).unwrap();
        ckt
    }

    fn assert_bitwise_equal(a: &TranResult, b: &TranResult, what: &str) {
        assert_eq!(a.times().len(), b.times().len(), "{what}: sample counts");
        for (ta, tb) in a.times().iter().zip(b.times()) {
            assert_eq!(ta.to_bits(), tb.to_bits(), "{what}: time axis");
        }
        for name in ["in", "vc"] {
            let (wa, wb) = (a.voltage(name).unwrap(), b.voltage(name).unwrap());
            for (va, vb) in wa.values().iter().zip(wb.values()) {
                assert_eq!(va.to_bits(), vb.to_bits(), "{what}: v({name})");
            }
        }
        let (ra, rb) = (
            a.ptm_resistance("P1").unwrap(),
            b.ptm_resistance("P1").unwrap(),
        );
        for (va, vb) in ra.values().iter().zip(rb.values()) {
            assert_eq!(va.to_bits(), vb.to_bits(), "{what}: ptm resistance");
        }
        assert_eq!(a.ptm_events("P1").unwrap(), b.ptm_events("P1").unwrap());
        assert_eq!(
            a.stats().steps_attempted,
            b.stats().steps_attempted,
            "{what}"
        );
        assert_eq!(a.stats().steps_accepted, b.stats().steps_accepted, "{what}");
        assert_eq!(a.stats().steps_rejected, b.stats().steps_rejected, "{what}");
        assert_eq!(
            a.stats().newton_iterations,
            b.stats().newton_iterations,
            "{what}"
        );
        assert_eq!(
            a.stats().ptm_transitions,
            b.stats().ptm_transitions,
            "{what}"
        );
    }

    /// Regression for the damped-Newton acceptance bug: the solver used to
    /// require `scale == 1.0` on the accepting iteration, so a solve whose
    /// raw update was within tolerance but still larger than
    /// `max_newton_step` kept crawling until the budget ran out — a
    /// spurious `NonConvergence` on sharp edges under loose tolerances.
    /// Convergence is now measured on the raw update.
    #[test]
    fn damped_final_iteration_accepted_on_raw_convergence() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let mid = ckt.node("mid");
        let g = Circuit::ground();
        // Effectively instantaneous 0 -> 0.8 V edge (shorter than dtmin).
        ckt.add_voltage_source("V1", a, g, SourceWaveform::ramp(0.0, 0.8, 0.0, 1e-18))
            .unwrap();
        ckt.add_resistor("R1", a, mid, 1e3).unwrap();
        ckt.add_resistor("R2", mid, g, 1e3).unwrap();
        let opts = SimOptions {
            vntol: 0.55,          // loose: raw 0.5 V update is within tol
            abstol: 1e-3,         // loose: branch current converges early
            max_newton_step: 0.1, // crawl: 8 damped iterations to scale == 1
            max_newton_iter: 5,   // budget runs out before the crawl ends
            dtmin: 1e-15,         // the edge cannot be sub-stepped away
            ..Default::default()
        };
        let tstop = 10e-12;
        let r =
            transient(&ckt, tstop, &opts).expect("raw-converged damped iterate must be accepted");
        let v = r.voltage("mid").unwrap();
        // Later steps re-converge onto the exact divider voltage.
        assert!(
            (v.last_value() - 0.4).abs() < 0.05,
            "divider settles: {}",
            v.last_value()
        );
    }

    /// The enriched `NonConvergence` names the worst unknown and carries
    /// the final residual when the solver genuinely cannot converge.
    #[test]
    fn nonconvergence_reports_residual_and_worst_unknown() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let mid = ckt.node("mid");
        let g = Circuit::ground();
        ckt.add_voltage_source("V1", a, g, SourceWaveform::ramp(0.0, 0.8, 0.0, 1e-18))
            .unwrap();
        ckt.add_resistor("R1", a, mid, 1e3).unwrap();
        ckt.add_resistor("R2", mid, g, 1e3).unwrap();
        let opts = SimOptions {
            // Tight voltage tolerance: the 0.1 V-per-iteration crawl can
            // never satisfy it within a 5-iteration budget.
            max_newton_step: 0.1,
            max_newton_iter: 5,
            dtmin: 1e-15,
            ..Default::default()
        };
        match transient(&ckt, 10e-12, &opts) {
            Err(SimError::NonConvergence {
                residual, unknown, ..
            }) => {
                assert!(
                    residual.is_finite() && residual > 0.1,
                    "residual carries the stuck raw update: {residual}"
                );
                assert_eq!(
                    unknown.as_deref(),
                    Some("v(a)"),
                    "the forced source node is the worst unknown"
                );
            }
            other => panic!("expected NonConvergence, got {other:?}"),
        }
    }

    /// Sharp PTM edges under a tight damping clamp: every transition makes
    /// the PTM voltage pivot within one step, and the damped Newton must
    /// still land each one.
    #[test]
    fn sharp_ptm_edge_converges_under_tight_damping() {
        let ckt = staircase_circuit();
        let tstop = 300e-12;
        let opts = SimOptions {
            max_newton_step: 0.05,
            max_newton_iter: 25,
            ..SimOptions::for_duration(tstop, 600)
        };
        let r = transient(&ckt, tstop, &opts).unwrap();
        assert!(
            !r.ptm_events("P1").unwrap().is_empty(),
            "at least one transition fires inside the window"
        );
    }

    /// An injected Newton failure is indistinguishable from a real one:
    /// the step is rejected, dt shrinks, and the run recovers.
    #[test]
    fn injected_newton_failure_is_retried() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let out = ckt.node("out");
        let g = Circuit::ground();
        ckt.add_voltage_source("V1", a, g, SourceWaveform::ramp(0.0, 1.0, 0.0, 1e-15))
            .unwrap();
        ckt.add_resistor("R1", a, out, 1e3).unwrap();
        ckt.add_capacitor("C1", out, g, 1e-15).unwrap();
        let tstop = 6e-12;
        let clean = transient(&ckt, tstop, &opts_for(tstop)).unwrap();
        let faulty = opts_for(tstop).with_fault_plan(FaultPlan::new().with_newton_failure(10));
        let r = transient(&ckt, tstop, &faulty).unwrap();
        assert!(
            r.stats().steps_rejected > clean.stats().steps_rejected,
            "the injected failure must cost a rejection"
        );
        let v = r.voltage("out").unwrap();
        assert!((v.value_at(2e-12) - (1.0 - (-2.0f64).exp())).abs() < 0.02);
    }

    /// A persistent NaN poison (`nan@STEP`) models real numerical
    /// breakdown: the recovery ladder retries down to `dtmin`, every
    /// attempt stays poisoned, and the run ends with a named
    /// [`NumericError::NonFinite`] — never a panic and never a silently
    /// "converged" NaN waveform.
    #[test]
    fn injected_nan_is_a_named_error_not_a_panic() {
        let ckt = staircase_circuit();
        let tstop = 300e-12;
        let opts = SimOptions::for_duration(tstop, 600)
            .with_fault_plan(FaultPlan::new().with_nan_from(10));
        match transient(&ckt, tstop, &opts) {
            Err(SimError::Numeric(NumericError::NonFinite { context })) => {
                assert!(
                    context.contains("transient Newton solve"),
                    "context names the stage: {context}"
                );
                assert!(
                    context.contains("v(") || context.contains("i("),
                    "context names the first bad unknown: {context}"
                );
            }
            other => panic!("expected NonFinite, got {other:?}"),
        }
        // The same plan through the iterative backend takes the same
        // non-finite guard path.
        let opts = SimOptions::for_duration(tstop, 600)
            .with_solver(LinearSolver::Iterative)
            .with_fault_plan(FaultPlan::new().with_nan_from(10));
        assert!(matches!(
            transient(&ckt, tstop, &opts),
            Err(SimError::Numeric(NumericError::NonFinite { .. }))
        ));
    }

    /// The GMRES backend reproduces the direct-solver waveform on a
    /// PTM-switching transient and reports its iteration counters.
    #[test]
    fn iterative_backend_matches_sparse_on_staircase() {
        let ckt = staircase_circuit();
        let tstop = 300e-12;
        let sparse = transient(
            &ckt,
            tstop,
            &SimOptions::for_duration(tstop, 600).with_solver(LinearSolver::Sparse),
        )
        .unwrap();
        let gmres = transient(
            &ckt,
            tstop,
            &SimOptions::for_duration(tstop, 600).with_solver(LinearSolver::Iterative),
        )
        .unwrap();
        assert!(gmres.stats().solver.gmres_iterations > 0);
        let vs = sparse.voltage("vc").unwrap();
        let vg = gmres.voltage("vc").unwrap();
        for &t in &[50e-12, 150e-12, 250e-12] {
            assert!(
                (vs.value_at(t) - vg.value_at(t)).abs() < 1e-6,
                "waveforms agree at t={t:e}"
            );
        }
    }

    #[test]
    fn injected_crash_aborts_with_step_attempt() {
        let ckt = staircase_circuit();
        let opts =
            SimOptions::for_duration(300e-12, 600).with_fault_plan(FaultPlan::new().with_crash(40));
        match transient(&ckt, 300e-12, &opts) {
            Err(SimError::InjectedCrash { step, .. }) => assert_eq!(step, 40),
            other => panic!("expected InjectedCrash, got {other:?}"),
        }
    }

    /// The tentpole guarantee: kill the run mid-flight (no checkpoint at
    /// the crash itself — only the last periodic snapshot survives),
    /// resume, and the result is bitwise identical to an uninterrupted
    /// run. Exercised across all three integration methods.
    #[test]
    fn kill_and_resume_is_bitwise_identical() {
        let ckt = staircase_circuit();
        let tstop = 300e-12;
        for method in [Method::Trapezoidal, Method::BackwardEuler, Method::Gear2] {
            let opts = SimOptions::for_duration(tstop, 600).with_method(method);
            let straight = transient(&ckt, tstop, &opts).unwrap();
            assert!(
                straight.stats().steps_attempted > 160,
                "scenario long enough to checkpoint and crash"
            );

            let path = tmp_path(&format!("resume-{method:?}"));
            let crashing = opts
                .clone()
                .with_fault_plan(FaultPlan::new().with_crash(150));
            let err = transient_resumable(
                &ckt,
                tstop,
                &crashing,
                &CheckpointPolicy::write_to(&path, 20),
            )
            .unwrap_err();
            assert!(matches!(err, SimError::InjectedCrash { .. }), "{err}");
            assert!(path.exists(), "periodic snapshot written before the crash");

            let resumed = transient_resumable(
                &ckt,
                tstop,
                &opts,
                &CheckpointPolicy::disabled().with_resume_from(&path),
            )
            .unwrap();
            assert_bitwise_equal(&straight, &resumed, &format!("{method:?}"));
            let _ = std::fs::remove_file(&path);
        }
    }

    /// A snapshot whose LTE history the predictor cannot index — points
    /// shorter than the solution, or more than the two the writer keeps —
    /// is a named checkpoint error on resume, not a panic and not a run
    /// with LTE control silently off.
    #[test]
    fn resume_rejects_malformed_lte_history() {
        use crate::checkpoint::{read_snapshot, write_snapshot};
        let ckt = rc_charging_at_dtmax();
        let tstop = 10e-12;
        let opts = SimOptions::for_duration(tstop, 200).with_lte(1e-3);
        let path = tmp_path("short-hist");
        let crashing = opts
            .clone()
            .with_fault_plan(FaultPlan::new().with_crash(60));
        let err = transient_resumable(
            &ckt,
            tstop,
            &crashing,
            &CheckpointPolicy::write_to(&path, 20),
        )
        .unwrap_err();
        assert!(matches!(err, SimError::InjectedCrash { .. }), "{err}");

        let fingerprint = crate::circuit_fingerprint(&ckt, tstop, opts.method);
        let good = read_snapshot(&path, fingerprint).unwrap();
        assert_eq!(good.hist.len(), 2, "the snapshot carries a full history");
        let resume = CheckpointPolicy::disabled().with_resume_from(&path);
        let mut short = good.clone();
        for (_, x) in &mut short.hist {
            x.truncate(1);
        }
        let mut long = good.clone();
        long.hist.push(long.hist[1].clone());
        for bad in [short, long] {
            write_snapshot(&path, &bad, fingerprint).unwrap();
            match transient_resumable(&ckt, tstop, &opts, &resume) {
                Err(SimError::Checkpoint(msg)) => assert!(msg.contains("LTE history"), "{msg}"),
                other => panic!("expected a checkpoint error, got {other:?}"),
            }
        }
        write_snapshot(&path, &good, fingerprint).unwrap();
        let resumed = transient_resumable(&ckt, tstop, &opts, &resume).unwrap();
        let straight = transient(&ckt, tstop, &opts).unwrap();
        let bits = |r: &TranResult| -> Vec<u64> {
            let v = r.voltage("out").unwrap();
            r.times()
                .iter()
                .chain(v.values())
                .map(|x| x.to_bits())
                .collect()
        };
        assert_eq!(
            bits(&resumed),
            bits(&straight),
            "well-formed history resumes"
        );
        let _ = std::fs::remove_file(&path);
    }

    /// `resume_if_exists` with no snapshot on disk degrades to a fresh
    /// run — the ergonomic default for restartable batch jobs.
    #[test]
    fn resume_if_exists_falls_back_to_fresh_run() {
        let ckt = staircase_circuit();
        let tstop = 100e-12;
        let opts = SimOptions::for_duration(tstop, 400);
        let straight = transient(&ckt, tstop, &opts).unwrap();
        let missing = tmp_path("missing");
        let policy = CheckpointPolicy::disabled().resume_if_exists(&missing);
        assert!(policy.resume_from.is_none());
        let r = transient_resumable(&ckt, tstop, &opts, &policy).unwrap();
        assert_bitwise_equal(&straight, &r, "fresh fallback");
    }

    /// Checkpoint/resume telemetry counters fire.
    #[test]
    fn checkpoint_counters_are_emitted() {
        use sfet_telemetry::{SharedAggregator, Telemetry};
        let ckt = staircase_circuit();
        let tstop = 100e-12;
        let agg = SharedAggregator::new();
        let opts = SimOptions::for_duration(tstop, 400).with_telemetry(Telemetry::new(agg.clone()));
        let path = tmp_path("counters");
        transient_resumable(&ckt, tstop, &opts, &CheckpointPolicy::write_to(&path, 20)).unwrap();
        let snap = agg.snapshot();
        assert!(snap.counter(names::CHECKPOINT_WRITTEN) > 0);
        assert_eq!(snap.counter(names::CHECKPOINT_RESUMED), 0);

        transient_resumable(
            &ckt,
            tstop,
            &opts,
            &CheckpointPolicy::disabled().with_resume_from(&path),
        )
        .unwrap();
        assert_eq!(agg.snapshot().counter(names::CHECKPOINT_RESUMED), 1);
        let _ = std::fs::remove_file(&path);
    }

    /// A probed run sees, point by point, the samples a recorded run of
    /// the same arguments holds, and returns its statistics: on the Fig. 3
    /// staircase, with PTM events and rejected steps, at every method.
    #[test]
    fn probe_sees_the_recorded_samples_bit_for_bit() {
        let ckt = staircase_circuit();
        let tstop = 300e-12;
        for method in [Method::Trapezoidal, Method::BackwardEuler, Method::Gear2] {
            let opts = SimOptions::for_duration(tstop, 600).with_method(method);
            let recorded = transient(&ckt, tstop, &opts).unwrap();
            let mut seen: Vec<[u64; 2]> = Vec::new();
            let stats = transient_probe(&ckt, tstop, &opts, &["vc", "in"], |v| {
                seen.push([v[0].to_bits(), v[1].to_bits()]);
            })
            .unwrap();
            let (vc, vin) = (
                recorded.node_samples("vc").unwrap(),
                recorded.node_samples("in").unwrap(),
            );
            let want: Vec<[u64; 2]> = vc
                .iter()
                .zip(vin)
                .map(|(a, b)| [a.to_bits(), b.to_bits()])
                .collect();
            assert_eq!(seen, want, "{method:?}: samples");
            assert_eq!(stats, recorded.stats(), "{method:?}: statistics");
            assert!(stats.ptm_transitions > 0 && stats.steps_rejected > 0);
        }
    }

    /// A node the circuit lacks is spelled as `node_samples` spells it, and
    /// the run does not start.
    #[test]
    fn probe_of_an_unknown_node_names_it() {
        let ckt = staircase_circuit();
        let opts = SimOptions::for_duration(100e-12, 200);
        for name in ["nope", "0", "gnd"] {
            let mut calls = 0;
            let err = transient_probe(&ckt, 100e-12, &opts, &["vc", name], |_| calls += 1);
            match err {
                Err(SimError::UnknownSignal(s)) => assert_eq!(s, format!("v({name})")),
                other => panic!("expected UnknownSignal, got {other:?}"),
            }
            assert_eq!(calls, 0, "{name}");
        }
    }

    /// A PTM that the DC operating point biases past V_IMT fires at
    /// t = 0. That transition counts in `TranStats::ptm_transitions` and
    /// the `tran.ptm_transitions` counter like the ones accepted steps
    /// fire, on every entry point.
    #[test]
    fn ptm_firing_at_t0_is_counted() {
        use crate::batch::{transient_batch, BatchSpec};
        use sfet_telemetry::{SharedAggregator, Telemetry};
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let m = ckt.node("m");
        let g = Circuit::ground();
        ckt.add_voltage_source("V1", a, g, SourceWaveform::Dc(1.0))
            .unwrap();
        ckt.add_resistor("R1", a, m, 1e3).unwrap();
        // 1 V over 1 kΩ and the 500 kΩ insulator puts 0.998 V on the PTM,
        // past V_IMT = 0.4 V; metallic, it holds 0.83 V, above V_MIT.
        ckt.add_ptm("P1", m, g, PtmParams::vo2_default()).unwrap();
        let tstop = 100e-12;
        let agg = SharedAggregator::new();
        let opts = SimOptions::for_duration(tstop, 200).with_telemetry(Telemetry::new(agg.clone()));
        let r = transient(&ckt, tstop, &opts).unwrap();
        let events = r.ptm_events("P1").unwrap();
        assert_eq!(events.len(), 1, "{events:?}");
        assert_eq!(events[0].time, 0.0);
        assert!(events[0].is_imt());
        assert_eq!(r.stats().ptm_transitions, 1);
        assert_eq!(agg.snapshot().counter(names::TRAN_PTM_TRANSITIONS), 1);

        let probed = transient_probe(&ckt, tstop, &opts, &["m"], |_| {}).unwrap();
        assert_eq!(probed, r.stats());
        let spec = BatchSpec {
            circuit: &ckt,
            tstop,
            opts: &opts,
        };
        for lane in transient_batch(&[spec; 2]) {
            assert_eq!(lane.unwrap().stats(), r.stats());
        }
    }

    #[test]
    fn gear2_option_runs() {
        let mut ckt = Circuit::new();
        let (a, out, g) = {
            let mut c = |n: &str| ckt.node(n);
            (c("a"), c("out"), Circuit::ground())
        };
        ckt.add_voltage_source("V1", a, g, SourceWaveform::ramp(0.0, 1.0, 0.0, 1e-15))
            .unwrap();
        ckt.add_resistor("R1", a, out, 1e3).unwrap();
        ckt.add_capacitor("C1", out, g, 1e-15).unwrap();
        let tstop = 6e-12;
        let opts = SimOptions::for_duration(tstop, 2000).with_method(Method::Gear2);
        let r = transient(&ckt, tstop, &opts).unwrap();
        let v = r.voltage("out").unwrap();
        assert!((v.value_at(1e-12) - (1.0 - (-1.0f64).exp())).abs() < 0.02);
    }
}
