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
//! # Checkpoint/restart
//!
//! [`transient_resumable`] adds crash resilience: with a
//! [`CheckpointPolicy`] the stepper periodically serializes its full state
//! (see [`crate::checkpoint`]) and can later resume from the snapshot,
//! producing a waveform bitwise identical to an uninterrupted run.

use std::collections::HashMap;

use crate::checkpoint::{self, CheckpointPolicy, TranSnapshot};
use crate::dcop::{init_state_from_dc, solve_dc, DcWorkspace};
use crate::devices::{volt, CompiledCircuit, SimDevice, StampMode};
use crate::matrix::{MnaMatrix, SolverStats};
use crate::options::SimOptions;
use crate::result::{TranResult, TranStats};
use crate::trace;
use crate::{Result, SimError};
use sfet_circuit::Circuit;
use sfet_numeric::fault::FaultPlan;
use sfet_numeric::integrate::Method;
use sfet_numeric::NumericError;
use sfet_telemetry::{names, Level};

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
    opts.validate()?;
    if !(tstop > 0.0 && tstop.is_finite()) {
        return Err(SimError::InvalidOptions(format!(
            "tstop must be positive and finite, got {tstop:e}"
        )));
    }
    circuit.validate()?;
    let fault = opts.fault.clone().or_else(FaultPlan::from_env);

    let run_span = opts.telemetry.span(Level::Analysis, names::SPAN_TRANSIENT);
    let mut compiled = CompiledCircuit::compile(circuit);
    let fingerprint = checkpoint::fingerprint(&compiled, tstop, opts.method);

    let n = compiled.size;
    let node_count = compiled.node_names.len();
    let mut jac = MnaMatrix::new(opts.effective_solver(n), n, opts.reuse_factorization);
    let mut rhs = vec![0.0; n];

    // Stepper state: restored from a snapshot, or initialised from the DC
    // operating point.
    let mut recorder;
    let mut stats;
    // Solver counters accumulated by earlier segments of a resumed run;
    // `jac` starts fresh (one extra full factorisation, which does not
    // perturb the waveform — factor reuse is bitwise-identical to fresh
    // factorisation by the solver's determinism contract).
    let resumed_solver: SolverStats;
    let mut x: Vec<f64>;
    let mut t: f64;
    let mut dt: f64;
    let mut force_be: bool;
    // History for the quadratic LTE predictor: two previous accepted points.
    let mut hist: Vec<(f64, Vec<f64>)>;

    if let Some(resume_path) = &ckpt.resume_from {
        let snap = checkpoint::read_snapshot(resume_path, fingerprint)?;
        checkpoint::restore_devices(&mut compiled, &snap.devices)?;
        if snap.x.len() != n {
            return Err(SimError::Checkpoint(format!(
                "snapshot solution has {} unknowns, circuit has {n}",
                snap.x.len()
            )));
        }
        recorder = Recorder::restore(
            &compiled,
            snap.times,
            snap.node_data,
            snap.branch_data,
            snap.ptm_resistance,
        )?;
        stats = snap.stats;
        resumed_solver = stats.solver;
        stats.solver = SolverStats::default();
        x = snap.x;
        t = snap.t;
        dt = snap.dt;
        force_be = snap.force_be;
        hist = snap.hist;
        opts.telemetry.counter(names::CHECKPOINT_RESUMED, 1);
    } else {
        let mut dc_ws = DcWorkspace::new(&compiled, opts);
        let x_dc = solve_dc(&mut compiled, opts, &mut dc_ws)?;
        // The initial operating point reports under the `dc.*` namespace; it
        // is deliberately excluded from `TranStats`/`tran.*`.
        trace::emit_dc_stats(&opts.telemetry, &dc_ws.stats());
        init_state_from_dc(&mut compiled, &x_dc, opts);

        recorder = Recorder::new(&compiled);
        recorder.record(0.0, &x_dc, &compiled);

        stats = TranStats::default();
        resumed_solver = SolverStats::default();
        x = x_dc;
        t = 0.0;
        dt = (opts.dtmax / 16.0).max(opts.dtmin);
        force_be = true; // first step: backward Euler
        hist = Vec::with_capacity(2);
    }

    while t < tstop * (1.0 - 1e-12) {
        stats.steps_attempted += 1;
        if stats.steps_attempted > opts.max_steps {
            return Err(SimError::StepBudgetExceeded {
                time: t,
                steps: stats.steps_attempted,
            });
        }
        if let Some(plan) = &fault {
            // Simulated process kill: abort without writing a checkpoint
            // (an honest crash leaves only the last *periodic* snapshot).
            if plan.crash_at(stats.steps_attempted as u64) {
                return Err(SimError::InjectedCrash {
                    time: t,
                    step: stats.steps_attempted,
                });
            }
        }
        // Dropped at every exit from this loop body (accept or any of the
        // rejection `continue`s), closing the step-attempt span.
        let _step_span = opts.telemetry.span(Level::Step, names::SPAN_TIMESTEP);

        // --- Choose the step size. ---
        let mut dt_cur = dt.min(opts.dtmax).min(tstop - t);
        let mut lands_on_corner = false;
        if let Some(bp) = compiled.next_breakpoint(t) {
            let gap = bp - t;
            if gap <= dt_cur {
                // Snap onto the corner. A corner closer than dtmin cannot
                // be landed on exactly, so step across it with a
                // dtmin-sized step instead of silently stepping over it
                // with the full step; either way the corner is treated as
                // a discontinuity (backward Euler next step).
                dt_cur = gap.max(opts.dtmin);
                lands_on_corner = true;
            }
        }
        // Resolve in-flight PTM ramps with sub-T_PTM steps.
        for device in &compiled.devices {
            if let SimDevice::Ptm { state, .. } = device {
                if state.in_transition() {
                    dt_cur = dt_cur.min((state.params().t_ptm / 8.0).max(opts.dtmin));
                }
            }
        }
        dt_cur = dt_cur.max(opts.dtmin);
        let t_next = t + dt_cur;
        let method = if force_be {
            Method::BackwardEuler
        } else {
            opts.method
        };

        // --- Solve. ---
        for device in &mut compiled.devices {
            device.prepare_step(t_next);
        }
        let injected_newton_failure = fault
            .as_ref()
            .is_some_and(|plan| plan.fail_newton(stats.steps_attempted as u64));
        let injected_nan = fault
            .as_ref()
            .is_some_and(|plan| plan.poison_newton(stats.steps_attempted as u64));
        let solve = if injected_newton_failure {
            Err(SimError::NonConvergence {
                time: t_next,
                dt: dt_cur,
                residual: f64::INFINITY,
                unknown: Some("<injected fault>".into()),
            })
        } else {
            newton_transient(
                &compiled,
                &x,
                t_next,
                dt_cur,
                method,
                opts,
                &mut jac,
                &mut rhs,
                node_count,
                injected_nan,
            )
        };
        let (x_new, iters) = match solve {
            Ok(pair) => pair,
            Err(err) => {
                stats.steps_rejected += 1;
                // The predictor history is stale across a rejected solve
                // followed by a backward-Euler restart.
                hist.clear();
                // Give up only after a backward-Euler attempt AT dtmin has
                // failed; otherwise clamp the quartered retry to dtmin so
                // the floor step is actually attempted. The inner error is
                // propagated as-is: it carries the final residual and the
                // worst unknown, which failed-sweep diagnostics rely on.
                if method == Method::BackwardEuler && dt_cur <= opts.dtmin * (1.0 + 1e-9) {
                    return Err(err);
                }
                dt = (dt_cur / 4.0).max(opts.dtmin);
                force_be = true;
                continue;
            }
        };
        stats.newton_iterations += iters;

        // --- Local-truncation-error control (optional). ---
        let mut lte_grow = false;
        if opts.lte_control && hist.len() == 2 && !force_be {
            let (t0, x0) = (&hist[0].0, &hist[0].1);
            let (t1, x1) = (&hist[1].0, &hist[1].1);
            // Quadratic extrapolation through (t0,x0), (t1,x1), (t,x) to t_next.
            let mut err = 0.0f64;
            for i in 0..node_count {
                let pred = lagrange3(*t0, x0[i], *t1, x1[i], t, x[i], t_next);
                err = err.max((x_new[i] - pred).abs());
            }
            if err > opts.lte_tol && dt_cur > 4.0 * opts.dtmin {
                stats.steps_rejected += 1;
                opts.telemetry.counter(names::TRAN_LTE_REJECTIONS, 1);
                dt = dt_cur * 0.5;
                continue;
            }
            // Smooth region: let the step grow toward dtmax (applied at the
            // step-size update below, so it is not clobbered by the
            // iteration-count controller).
            lte_grow = err < 0.1 * opts.lte_tol;
        }

        // --- PTM event refinement. ---
        let mut worst_overshoot = 0.0f64;
        for device in &compiled.devices {
            if let SimDevice::Ptm { p, n, state, .. } = device {
                let v = volt(&x_new, *p) - volt(&x_new, *n);
                if let Some(excess) = state.threshold_excess(v) {
                    worst_overshoot = worst_overshoot.max(excess);
                }
            }
        }
        if worst_overshoot > opts.event_vtol && dt_cur > 2.0 * opts.dtmin {
            stats.steps_rejected += 1;
            dt = dt_cur / 2.0;
            continue;
        }

        // --- Accept. ---
        for device in &mut compiled.devices {
            device.commit(&x_new, t_next, dt_cur, method);
        }
        // A slope discontinuity at a source corner excites the trapezoidal
        // rule's undamped oscillatory mode in capacitor branch currents
        // (classic "trapezoidal ringing"); take one L-stable backward-Euler
        // step across every corner to kill it at the source.
        force_be = lands_on_corner;
        // Fire any armed transitions at the accepted point.
        let mut fired = false;
        for device in &mut compiled.devices {
            if let SimDevice::Ptm {
                p,
                n,
                state,
                events,
                ..
            } = device
            {
                let v = volt(&x_new, *p) - volt(&x_new, *n);
                if let Some(excess) = state.threshold_excess(v) {
                    if excess >= 0.0 {
                        let event = state.fire(t_next);
                        trace::emit_ptm_event(&opts.telemetry, &event);
                        events.push(event);
                        stats.ptm_transitions += 1;
                        fired = true;
                    }
                }
            }
        }
        if fired {
            force_be = true;
            dt = dt_cur.min(opts.dtmax / 16.0).max(opts.dtmin);
        } else if opts.lte_control {
            // LTE owns the growth policy; Newton difficulty still shrinks.
            dt = if iters > 12 {
                dt_cur * 0.6
            } else if lte_grow {
                dt_cur * 2.0
            } else {
                dt_cur
            };
        } else {
            // Iteration-count step control.
            dt = if iters <= 5 {
                dt_cur * 1.3
            } else if iters > 12 {
                dt_cur * 0.6
            } else {
                dt_cur
            };
        }

        recorder.record(t_next, &x_new, &compiled);
        stats.steps_accepted += 1;
        if opts.telemetry.is_enabled() {
            opts.telemetry.histogram(names::H_TRAN_DT, dt_cur);
            opts.telemetry
                .histogram(names::H_TRAN_STEP_ITERS, iters as f64);
            // The controller proposes before the `dtmax` cap; a step
            // already at the cap has not grown.
            let next = dt.min(opts.dtmax);
            if next > dt_cur {
                opts.telemetry.counter(names::TRAN_DT_GROWTHS, 1);
            } else if next < dt_cur {
                opts.telemetry.counter(names::TRAN_DT_SHRINKS, 1);
            }
        }
        if force_be {
            // The accepted point sits on a discontinuity (source corner or
            // PTM transition): extrapolating through pre-discontinuity
            // points would mispredict, so restart the LTE history.
            hist.clear();
        } else {
            if hist.len() == 2 {
                hist.remove(0);
            }
            hist.push((t, x.clone()));
        }
        x = x_new;
        t = t_next;

        // --- Periodic checkpoint (after the state advanced). ---
        if let Some(path) = &ckpt.checkpoint_to {
            if ckpt.checkpoint_every > 0 && stats.steps_accepted % ckpt.checkpoint_every == 0 {
                let mut snap_stats = stats;
                snap_stats.solver = resumed_solver.merged(&jac.stats());
                let snap = TranSnapshot {
                    t,
                    dt,
                    force_be,
                    x: x.clone(),
                    hist: hist.clone(),
                    stats: snap_stats,
                    times: recorder.times.clone(),
                    node_data: recorder.node_data.clone(),
                    branch_data: recorder.branch_data.clone(),
                    ptm_resistance: recorder.ptm_resistance.clone(),
                    devices: checkpoint::capture_devices(&compiled),
                };
                checkpoint::write_snapshot(path, &snap, fingerprint)?;
                opts.telemetry.counter(names::CHECKPOINT_WRITTEN, 1);
            }
        }
    }

    stats.solver = resumed_solver.merged(&jac.stats());
    trace::emit_tran_stats(&opts.telemetry, &stats);
    drop(run_span);
    Ok(recorder.finish(&compiled, stats))
}

/// Quadratic Lagrange extrapolation through three points. Shared with the
/// batched transient engine so both LTE controllers are the same code.
pub(crate) fn lagrange3(t0: f64, y0: f64, t1: f64, y1: f64, t2: f64, y2: f64, t: f64) -> f64 {
    let l0 = (t - t1) * (t - t2) / ((t0 - t1) * (t0 - t2));
    let l1 = (t - t0) * (t - t2) / ((t1 - t0) * (t1 - t2));
    let l2 = (t - t0) * (t - t1) / ((t2 - t0) * (t2 - t1));
    y0 * l0 + y1 * l1 + y2 * l2
}

/// Newton solve for one transient time point. Returns the solution and the
/// iteration count.
///
/// `poison` injects a NaN into every linear-solver solution (the `nan@`
/// fault-plan entry), exercising the non-finite guard below exactly the
/// way a genuinely diverging solve would.
#[allow(clippy::too_many_arguments)]
fn newton_transient(
    compiled: &CompiledCircuit,
    x0: &[f64],
    t_next: f64,
    dt: f64,
    method: Method,
    opts: &SimOptions,
    jac: &mut MnaMatrix,
    rhs: &mut [f64],
    node_count: usize,
    poison: bool,
) -> Result<(Vec<f64>, usize)> {
    let mode = StampMode::Transient { t_next, dt, method };
    let mut x = x0.to_vec();
    // Final-iteration diagnostics for the NonConvergence payload.
    let mut last_residual = f64::INFINITY;
    let mut last_worst = 0usize;
    for iter in 1..=opts.max_newton_iter {
        let _iter_span = opts
            .telemetry
            .span(Level::Iteration, names::SPAN_NEWTON_ITER);
        jac.clear();
        rhs.iter_mut().for_each(|v| *v = 0.0);
        for device in &compiled.devices {
            device.stamp(mode, &x, jac, rhs, opts.gmin);
        }
        jac.factor_solve(rhs)?;
        if poison {
            rhs[0] = f64::NAN;
        }
        let x_next: &[f64] = rhs;
        // A NaN/Inf iterate would pass the `raw.abs() > tol` convergence
        // test below (NaN comparisons are false) and be accepted as a
        // "converged" step — reject it here instead. The caller's recovery
        // ladder then retries, and if the breakdown persists the run ends
        // with a [`NumericError::NonFinite`] at `dtmin` naming the unknown.
        if let Some(bad) = x_next.iter().position(|v| !v.is_finite()) {
            return Err(non_finite_unknown(
                compiled,
                bad,
                &format!("transient Newton solve at t={t_next:.6e} s"),
            ));
        }

        let mut max_dx = 0.0f64;
        for (xn, xo) in x_next.iter().zip(&x) {
            max_dx = max_dx.max((xn - xo).abs());
        }
        let scale = if max_dx > opts.max_newton_step {
            opts.max_newton_step / max_dx
        } else {
            1.0
        };
        // Convergence is measured on the RAW (undamped) update: a raw step
        // within tolerance means the iterate already sits at the Newton
        // target, even when the damping clamp made `scale < 1` — the case
        // a sharp PTM edge hits when one large-tolerance unknown drives
        // the clamp. (Measuring the *damped* update instead would accept a
        // damped crawl that is nowhere near the solution.)
        let mut converged = true;
        let mut max_raw = 0.0f64;
        let mut worst = 0usize;
        for i in 0..x.len() {
            let raw = x_next[i] - x[i];
            x[i] += raw * scale;
            let tol = if i < node_count {
                opts.reltol * x[i].abs() + opts.vntol
            } else {
                opts.reltol * x[i].abs() + opts.abstol
            };
            if raw.abs() > max_raw {
                max_raw = raw.abs();
                worst = i;
            }
            if raw.abs() > tol {
                converged = false;
            }
        }
        if converged {
            return Ok((x, iter));
        }
        last_residual = max_raw;
        last_worst = worst;
    }
    Err(SimError::NonConvergence {
        time: t_next,
        dt,
        residual: last_residual,
        unknown: unknown_name(compiled, last_worst, node_count),
    })
}

/// Builds the error for a non-finite Newton iterate: a
/// [`NumericError::NonFinite`] whose context names the solve stage and the
/// first offending MNA unknown, so a poisoned sweep task reports *which*
/// node diverged rather than unwinding with a panic.
pub(crate) fn non_finite_unknown(compiled: &CompiledCircuit, idx: usize, stage: &str) -> SimError {
    let name = unknown_name(compiled, idx, compiled.node_names.len())
        .unwrap_or_else(|| format!("unknown #{idx}"));
    SimError::Numeric(NumericError::NonFinite {
        context: format!("{stage}, first non-finite unknown {name}"),
    })
}

/// Human-readable name of MNA unknown `idx`: `v(<node>)` for node voltages,
/// `i(<element>)` for branch currents.
pub(crate) fn unknown_name(
    compiled: &CompiledCircuit,
    idx: usize,
    node_count: usize,
) -> Option<String> {
    if idx < node_count {
        compiled.node_names.get(idx).map(|n| format!("v({n})"))
    } else {
        compiled
            .branch_names
            .get(idx - node_count)
            .map(|n| format!("i({n})"))
    }
}

/// Accumulates sampled signals during integration. Shared with the batched
/// transient engine (one per lane).
pub(crate) struct Recorder {
    times: Vec<f64>,
    node_data: Vec<Vec<f64>>,
    branch_data: Vec<Vec<f64>>,
    ptm_resistance: Vec<Vec<f64>>,
}

impl Recorder {
    pub(crate) fn new(compiled: &CompiledCircuit) -> Self {
        Recorder {
            times: Vec::with_capacity(1024),
            node_data: vec![Vec::with_capacity(1024); compiled.node_names.len()],
            branch_data: vec![Vec::with_capacity(1024); compiled.branch_names.len()],
            ptm_resistance: vec![Vec::with_capacity(1024); compiled.ptm_devices.len()],
        }
    }

    /// Rebuilds a recorder from checkpointed sample columns, validating
    /// that the column layout matches the compiled circuit.
    fn restore(
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
        let node_index: HashMap<String, usize> = compiled
            .node_names
            .iter()
            .enumerate()
            .map(|(i, n)| (n.clone(), i))
            .collect();
        let branch_index: HashMap<String, usize> = compiled
            .branch_names
            .iter()
            .enumerate()
            .map(|(i, n)| (n.clone(), i))
            .collect();
        let ptm_index: HashMap<String, usize> = compiled
            .ptm_devices
            .iter()
            .enumerate()
            .map(|(i, (_, n))| (n.clone(), i))
            .collect();
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
            node_index,
            node_data: self.node_data,
            branch_index,
            branch_data: self.branch_data,
            ptm_index,
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
