//! The inverter measurement pipeline.
//!
//! Runs one transient per [`InverterSpec`] and extracts every quantity the
//! paper's figures report: peak rail current (`I_MAX`), maximum `di/dt`,
//! propagation delay, and the total/output/short-circuit charge split.

use crate::inverter::{Edge, InverterSpec, Topology};
use crate::{Result, SoftFetError};
use sfet_numeric::exec::ExecConfig;
use sfet_sim::{transient, transient_batch, BatchSpec, SimError, SimOptions, TranResult};
use sfet_waveform::measure::{charge_split, max_abs_didt, propagation_delay};
use sfet_waveform::Waveform;

/// Measured behaviour of one inverter transition.
#[derive(Debug, Clone)]
pub struct InverterMetrics {
    /// Peak magnitude of the switching rail current \[A\]: the paper's I_MAX.
    pub i_max: f64,
    /// Time of the current peak \[s\].
    pub t_peak: f64,
    /// Maximum |di/dt| of the rail current \[A/s\].
    pub di_dt: f64,
    /// Propagation delay, 50 % input → 20 % output swing \[s\].
    pub delay: f64,
    /// Total charge drawn from the switching rail during the transition \[C\].
    pub q_total: f64,
    /// Charge delivered to the load capacitance \[C\].
    pub q_out: f64,
    /// Short-circuit (crowbar) charge \[C\].
    pub q_sc: f64,
    /// Number of PTM phase transitions fired (0 for non-Soft-FET).
    pub transitions: usize,
    /// Switching-rail current waveform (V_CC current for a falling input,
    /// ground current for a rising input), delivery-positive.
    pub i_rail: Waveform,
    /// Input waveform.
    pub v_in: Waveform,
    /// Gate-node waveform (equals the input for directly-driven variants).
    pub v_g: Waveform,
    /// Output waveform.
    pub v_out: Waveform,
}

/// Simulation options used for inverter measurements: the time resolution
/// tracks the input edge (and the engine further refines around PTM
/// events).
pub fn inverter_sim_options(spec: &InverterSpec) -> SimOptions {
    let dtmax = (spec.t_rise / 100.0).min(2e-12);
    SimOptions::default().with_dtmax(dtmax)
}

/// Runs the transient for a spec and returns the raw result (exposed for
/// the figure binaries that need full waveforms).
///
/// # Errors
///
/// Propagates build and simulation failures.
pub fn run_inverter(spec: &InverterSpec) -> Result<TranResult> {
    run_inverter_with(spec, &inverter_sim_options(spec))
}

/// [`run_inverter`] with explicit simulation options. Fault-tolerant
/// sweeps use this to pass [`SimOptions::escalated`] options on retries
/// without perturbing first-try tasks.
///
/// # Errors
///
/// Propagates build and simulation failures.
pub fn run_inverter_with(spec: &InverterSpec, opts: &SimOptions) -> Result<TranResult> {
    let ckt = spec.build()?;
    Ok(transient(&ckt, spec.t_stop, opts)?)
}

/// Runs and measures one inverter transition.
///
/// # Errors
///
/// Propagates simulation failures; measurement failures (e.g. an output
/// that never switches) surface as
/// [`SoftFetError::Waveform`].
///
/// # Example
///
/// ```
/// use softfet::inverter::{InverterSpec, Topology};
/// use softfet::metrics::measure_inverter;
///
/// # fn main() -> Result<(), softfet::SoftFetError> {
/// let m = measure_inverter(&InverterSpec::minimum(1.0, Topology::Baseline))?;
/// assert!(m.i_max > 0.0 && m.delay > 0.0);
/// # Ok(())
/// # }
/// ```
pub fn measure_inverter(spec: &InverterSpec) -> Result<InverterMetrics> {
    let result = run_inverter(spec)?;
    measure_from_result(spec, &result)
}

/// [`measure_inverter`] with explicit simulation options (see
/// [`run_inverter_with`]).
///
/// # Errors
///
/// Propagates simulation and measurement failures.
pub fn measure_inverter_with(spec: &InverterSpec, opts: &SimOptions) -> Result<InverterMetrics> {
    let result = run_inverter_with(spec, opts)?;
    measure_from_result(spec, &result)
}

/// Measures a whole batch of inverter lanes through the batched
/// structure-of-arrays transient engine ([`sfet_sim::transient_batch`]).
///
/// Each lane's metrics are **bitwise identical** to
/// [`measure_inverter_with`] on the same `(spec, opts)` pair — the batched
/// engine's determinism contract — so sweep drivers can tile their tasks
/// into lanes freely. Per-lane failures (circuit build, simulation, or
/// measurement) are returned in place without aborting sibling lanes.
pub fn measure_inverter_batch(
    lanes: &[(&InverterSpec, &SimOptions)],
) -> Vec<Result<InverterMetrics>> {
    let built: Vec<Result<sfet_circuit::Circuit>> =
        lanes.iter().map(|(spec, _)| spec.build()).collect();
    let mut batch = Vec::with_capacity(lanes.len());
    let mut batch_to_lane = Vec::with_capacity(lanes.len());
    for (i, ckt) in built.iter().enumerate() {
        if let Ok(ckt) = ckt {
            batch.push(BatchSpec {
                circuit: ckt,
                tstop: lanes[i].0.t_stop,
                opts: lanes[i].1,
            });
            batch_to_lane.push(i);
        }
    }
    let sim = transient_batch(&batch);

    let mut out: Vec<Option<Result<InverterMetrics>>> =
        built.into_iter().map(|b| b.err().map(Err)).collect();
    for (k, r) in sim.into_iter().enumerate() {
        let i = batch_to_lane[k];
        out[i] = Some(match r {
            Ok(result) => measure_from_result(lanes[i].0, &result),
            Err(e) => Err(e.into()),
        });
    }
    out.into_iter()
        .map(|o| o.expect("every lane is either built or failed"))
        .collect()
}

/// The fault-aware inverter-lane tile task that the Monte-Carlo and
/// optimizer sweeps share (a [`sfet_numeric::exec::Task::Tiled`] body):
/// measures attempt `attempt` of the `(index, spec)` lanes as one batch,
/// on the [`SimOptions::escalated`] rung of that attempt (attempt 0 runs
/// the nominal [`inverter_sim_options`]). A lane whose index the
/// [`ExecConfig::fault_plan`] fails at this attempt (`task@IxN`) reports an
/// injected non-convergence without simulating; its siblings are
/// unaffected. Callers project and validate the metrics themselves.
pub fn measure_inverter_lanes(
    cfg: &ExecConfig,
    attempt: usize,
    lanes: &[(usize, &InverterSpec)],
) -> Vec<Result<InverterMetrics>> {
    let faulted = |index| {
        cfg.fault_plan()
            .is_some_and(|p| p.fail_task(index, attempt))
    };
    let opts: Vec<SimOptions> = lanes
        .iter()
        .map(|(_, spec)| inverter_sim_options(spec).escalated(attempt))
        .collect();
    let live: Vec<(&InverterSpec, &SimOptions)> = lanes
        .iter()
        .zip(&opts)
        .filter(|((index, _), _)| !faulted(*index))
        .map(|(&(_, spec), o)| (spec, o))
        .collect();
    let mut measured = measure_inverter_batch(&live).into_iter();
    lanes
        .iter()
        .map(|&(index, _)| {
            if faulted(index) {
                Err(SoftFetError::Sim(SimError::NonConvergence {
                    time: 0.0,
                    dt: 0.0,
                    residual: f64::INFINITY,
                    unknown: Some("<injected task fault>".into()),
                }))
            } else {
                measured.next().expect("one measurement per live lane")
            }
        })
        .collect()
}

/// Extracts metrics from an existing transient result (lets callers reuse
/// one simulation for several measurements).
///
/// # Errors
///
/// Propagates measurement failures.
pub fn measure_from_result(spec: &InverterSpec, result: &TranResult) -> Result<InverterMetrics> {
    let v_in = result.voltage("in")?;
    let v_g = result.voltage("g")?;
    let v_out = result.voltage("out")?;
    // Switching rail: V_CC current for a falling input (PMOS charges the
    // load), ground-ammeter current for a rising input (NMOS discharges).
    let i_rail = match spec.edge {
        Edge::Falling => result.supply_current("VDD")?,
        Edge::Rising => result.branch_current("VSSM")?,
    };

    let (t_peak, i_max) = i_rail.peak_abs();
    let di_dt = max_abs_didt(&i_rail);
    let delay = propagation_delay(&v_in, &v_out, spec.vdd)?;
    let q = charge_split(&i_rail, &v_out, spec.c_load, spec.t_start, spec.t_stop);
    let transitions = match &spec.topology {
        Topology::SoftFet(_) => result.ptm_events("PG1")?.len(),
        _ => 0,
    };

    Ok(InverterMetrics {
        i_max: i_max.abs(),
        t_peak,
        di_dt,
        delay,
        q_total: q.total,
        q_out: q.output,
        q_sc: q.short_circuit,
        transitions,
        i_rail,
        v_in,
        v_g,
        v_out,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfet_devices::ptm::PtmParams;

    #[test]
    fn baseline_metrics_sane() {
        let m = measure_inverter(&InverterSpec::minimum(1.0, Topology::Baseline)).unwrap();
        // Minimum 40nm-class inverter: peak in the tens of µA, ps delays.
        assert!(m.i_max > 10e-6 && m.i_max < 500e-6, "i_max={:.3e}", m.i_max);
        assert!(
            m.delay > 0.1e-12 && m.delay < 100e-12,
            "delay={:.3e}",
            m.delay
        );
        assert!(m.q_total >= m.q_out, "charge accounting");
        assert_eq!(m.transitions, 0);
        // Output swings fully.
        assert!(m.v_out.first_value() < 0.05);
        assert!(m.v_out.last_value() > 0.95);
    }

    #[test]
    fn softfet_reduces_peak_current_and_didt() {
        let base = measure_inverter(&InverterSpec::minimum(1.0, Topology::Baseline)).unwrap();
        let soft = measure_inverter(&InverterSpec::minimum(
            1.0,
            Topology::SoftFet(PtmParams::vo2_default()),
        ))
        .unwrap();
        assert!(
            soft.i_max < 0.8 * base.i_max,
            "I_MAX: soft {:.3e} vs base {:.3e}",
            soft.i_max,
            base.i_max
        );
        assert!(
            soft.di_dt < base.di_dt,
            "di/dt: soft {:.3e} vs base {:.3e}",
            soft.di_dt,
            base.di_dt
        );
        assert!(soft.transitions >= 1, "soft switching must fire the PTM");
        // Soft-FET pays some delay for the benefit.
        assert!(soft.delay > base.delay);
    }

    #[test]
    fn rising_edge_measures_ground_current() {
        let spec =
            InverterSpec::minimum(1.0, Topology::Baseline).with_edge(crate::inverter::Edge::Rising);
        let m = measure_inverter(&spec).unwrap();
        assert!(m.i_max > 10e-6, "ground-rail peak {:.3e}", m.i_max);
        assert!(m.v_out.first_value() > 0.95);
        assert!(m.v_out.last_value() < 0.05);
    }

    #[test]
    fn hvt_reduces_current_with_delay_penalty() {
        let base = measure_inverter(&InverterSpec::minimum(1.0, Topology::Baseline)).unwrap();
        let hvt = measure_inverter(&InverterSpec::minimum(1.0, Topology::Hvt(0.2))).unwrap();
        assert!(hvt.i_max < base.i_max);
        assert!(hvt.delay > base.delay);
    }

    #[test]
    fn series_r_reduces_current() {
        let base = measure_inverter(&InverterSpec::minimum(1.0, Topology::Baseline)).unwrap();
        let ser = measure_inverter(&InverterSpec::minimum(1.0, Topology::SeriesR(200e3))).unwrap();
        assert!(ser.i_max < base.i_max);
        assert!(ser.delay > base.delay);
    }

    #[test]
    fn stacked_reduces_current() {
        let base = measure_inverter(&InverterSpec::minimum(1.0, Topology::Baseline)).unwrap();
        let stk = measure_inverter(&InverterSpec::minimum(
            1.0,
            Topology::Stacked {
                n: 2,
                width_scale: 1.0,
            },
        ))
        .unwrap();
        assert!(stk.i_max < base.i_max);
    }
}

#[cfg(test)]
mod corner_tests {
    use super::*;
    use sfet_devices::mosfet::Corner;
    use sfet_devices::ptm::PtmParams;

    /// The Soft-FET benefit must survive SS and FF process corners — the
    /// designer's version of the paper's parameter-sensitivity concern.
    #[test]
    fn softfet_benefit_robust_across_corners() {
        for corner in [Corner::Slow, Corner::Typical, Corner::Fast] {
            let base = measure_inverter(
                &InverterSpec::minimum(1.0, Topology::Baseline).with_corner(corner),
            )
            .unwrap();
            let soft = measure_inverter(
                &InverterSpec::minimum(1.0, Topology::SoftFet(PtmParams::vo2_default()))
                    .with_corner(corner),
            )
            .unwrap();
            assert!(
                soft.i_max < 0.8 * base.i_max,
                "{corner:?}: soft {:.3e} vs base {:.3e}",
                soft.i_max,
                base.i_max
            );
        }
    }

    /// FF silicon switches harder: baseline I_MAX must order SS < TT < FF.
    #[test]
    fn corner_imax_ordering() {
        let imax = |c: Corner| {
            measure_inverter(&InverterSpec::minimum(1.0, Topology::Baseline).with_corner(c))
                .unwrap()
                .i_max
        };
        let (ss, tt, ff) = (
            imax(Corner::Slow),
            imax(Corner::Typical),
            imax(Corner::Fast),
        );
        assert!(
            ss < tt && tt < ff,
            "ordering: ss {ss:.3e}, tt {tt:.3e}, ff {ff:.3e}"
        );
    }
}
