//! Batched transient analysis: B independent sweep lanes advanced through
//! one shared structure-of-arrays linear solver.
//!
//! [`transient_batch`] runs each lane of a [`BatchSpec`] slice through the
//! *identical* algorithm as the scalar [`transient`](crate::transient)
//! engine — the step-size controller, the damped Newton update, LTE and
//! PTM-event rejection, and every accounting quirk are transcribed
//! verbatim — but the per-iteration linearise/factor/solve runs through a
//! [`BatchBackend`], which lays the B Jacobians out lane-minor so the
//! dense kernels auto-vectorise across lanes.
//!
//! # Determinism contract
//!
//! Every lane's waveform, events, and [`TranStats`] are **bitwise
//! identical** to a scalar `transient` run of the same (circuit, tstop,
//! options) triple. The backends guarantee that each lane executes the
//! same sequence of f64 operations as the scalar solver; this module
//! guarantees the surrounding stepper does too:
//!
//! * lanes advance **round-robin by Newton iteration**, not in time
//!   lockstep — a lane whose step was rejected simply starts its retry in
//!   the next round, so a stiff lane never perturbs or stalls siblings;
//! * the DC operating point is solved scalar per lane (it runs once, off
//!   the hot path);
//! * value-dependent decisions (step-size choice, convergence, pivoting,
//!   refactor-vs-full) are taken per lane exactly as scalar.
//!
//! Lanes must share a *shape* — MNA size, linear solver (as resolved by
//! [`SimOptions::effective_solver`], so the solver policy and
//! `SFET_SOLVER` apply to lanes as they do to scalar runs), and
//! factor-reuse flag — for the SoA backend to apply. A non-uniform batch
//! silently falls back to per-lane scalar `transient` calls (bitwise
//! equal by definition). Lanes that fail option/circuit validation error
//! individually without aborting siblings.
//!
//! # Differences from the scalar engine
//!
//! * No checkpoint/restart (use [`transient_resumable`]
//!   (crate::transient_resumable) for that).
//! * No `Step`/`Iteration`-level telemetry spans — only the analysis-level
//!   `transient` span per lane. Counters and histograms are emitted
//!   exactly as scalar.
//! * `SolverStats::solve_time_ns` attributes each whole-batch solve to
//!   every active lane (timing is excluded from equality comparisons).

use std::time::Instant;

use crate::dcop::{init_state_from_dc, solve_dc, DcWorkspace};
use crate::devices::{volt, CompiledCircuit, SimDevice, Stamp, StampMode};
use crate::matrix::{LinearSolver, SolverStats};
use crate::options::SimOptions;
use crate::result::{TranResult, TranStats};
use crate::trace;
use crate::transient::{lagrange3, transient, unknown_name, Recorder};
use crate::{Result, SimError};
use sfet_circuit::Circuit;
use sfet_numeric::batch::{BatchBackend, BatchDense, BatchSparse, LaneReport};
use sfet_numeric::fault::FaultPlan;
use sfet_numeric::integrate::Method;
use sfet_telemetry::{names, Level, SpanGuard};

/// One lane of a batched transient run: what [`transient`] takes as three
/// arguments, borrowed.
#[derive(Debug, Clone, Copy)]
pub struct BatchSpec<'a> {
    /// The circuit to simulate.
    pub circuit: &'a Circuit,
    /// Stop time \[s\].
    pub tstop: f64,
    /// Simulation options (solver/reuse must match across lanes for the
    /// batched path; otherwise the batch falls back to scalar runs).
    pub opts: &'a SimOptions,
}

/// Runs one transient analysis per lane, batching the linear solves.
///
/// Returns one result per spec, in order. Each entry is exactly what
/// `transient(spec.circuit, spec.tstop, spec.opts)` returns — bitwise —
/// including errors: a diverging lane yields its own `Err` without
/// affecting siblings.
pub fn transient_batch(specs: &[BatchSpec<'_>]) -> Vec<Result<TranResult>> {
    if specs.is_empty() {
        return Vec::new();
    }

    // --- Pass A: validate and compile, with no telemetry side effects, so
    // --- a scalar fallback below cannot double-emit anything.
    let prevalidated: Vec<Result<CompiledCircuit>> = specs
        .iter()
        .map(|s| {
            s.opts.validate()?;
            if !(s.tstop > 0.0 && s.tstop.is_finite()) {
                return Err(SimError::InvalidOptions(format!(
                    "tstop must be positive and finite, got {:e}",
                    s.tstop
                )));
            }
            s.circuit.validate()?;
            Ok(CompiledCircuit::compile(s.circuit))
        })
        .collect();

    // --- Shape uniformity across the lanes that validated. ---
    let mut shape: Option<(LinearSolver, bool, usize)> = None;
    let mut uniform = true;
    for (spec, pre) in specs.iter().zip(&prevalidated) {
        if let Ok(compiled) = pre {
            let this = (
                spec.opts.effective_solver(compiled.size),
                spec.opts.reuse_factorization,
                compiled.size,
            );
            match shape {
                None => shape = Some(this),
                Some(s) if s == this => {}
                Some(_) => {
                    uniform = false;
                    break;
                }
            }
        }
    }
    let Some((solver, reuse, n)) = shape else {
        // Every lane failed validation: return the per-lane errors.
        return prevalidated
            .into_iter()
            .map(|pre| match pre {
                Ok(_) => unreachable!("shape is set when any lane validates"),
                Err(e) => Err(e),
            })
            .collect();
    };
    if !uniform {
        return specs
            .iter()
            .map(|s| transient(s.circuit, s.tstop, s.opts))
            .collect();
    }

    // --- Pass B: per-lane setup (span, DC operating point, recorder). ---
    let nl = specs.len();
    let mut early: Vec<Option<Result<TranResult>>> = Vec::with_capacity(nl);
    let mut lanes: Vec<Option<Box<Lane<'_>>>> = Vec::with_capacity(nl);
    for (spec, pre) in specs.iter().zip(prevalidated) {
        match pre {
            Err(e) => {
                early.push(Some(Err(e)));
                lanes.push(None);
            }
            Ok(compiled) => match Lane::setup(spec, compiled) {
                Ok(lane) => {
                    early.push(None);
                    lanes.push(Some(Box::new(lane)));
                }
                Err(e) => {
                    early.push(Some(Err(e)));
                    lanes.push(None);
                }
            },
        }
    }

    // --- Drive all live lanes to completion, one batched solve per round.
    // Monomorphised per backend so the per-entry `add` calls in the
    // stamping loop inline instead of going through a vtable.
    match solver {
        LinearSolver::Dense => drive_lanes(&mut BatchDense::new(n, nl), &mut lanes, n),
        // Batched lanes share one factorisation across lanes, which an
        // iterative solve cannot amortise — GMRES lanes run on the shared
        // sparse LU instead (scalar runs still use the Krylov path).
        LinearSolver::Sparse | LinearSolver::Iterative => {
            drive_lanes(&mut BatchSparse::new(n, nl, reuse), &mut lanes, n)
        }
    }

    lanes
        .into_iter()
        .zip(early)
        .map(|(lane, early)| match lane {
            Some(lane) => lane.result.expect("driver ran every lane to completion"),
            None => early.expect("lane-less slot carries an early error"),
        })
        .collect()
}

/// The round loop: advance step control, stamp active lanes, one batched
/// factor+solve, then per-lane Newton bookkeeping — until every lane is
/// [`LanePhase::Done`].
fn drive_lanes<B: BatchBackend>(backend: &mut B, lanes: &mut [Option<Box<Lane<'_>>>], n: usize) {
    let nl = lanes.len();
    let mut rhs = vec![0.0; n * nl];
    let mut active = vec![false; nl];
    loop {
        // Phase 1: advance step control until every live lane either needs
        // a Newton solve or has finished.
        for lane in lanes.iter_mut().flatten() {
            if matches!(lane.phase, LanePhase::StartStep) {
                lane.begin_step();
            }
        }
        let mut any = false;
        for (l, lane) in lanes.iter().enumerate() {
            active[l] = lane
                .as_ref()
                .is_some_and(|ln| matches!(ln.phase, LanePhase::Newton));
            any |= active[l];
        }
        if !any {
            break;
        }

        // Phase 2: each active lane stamps its Jacobian lane and rhs slice.
        backend.begin(&active);
        for (l, slot) in lanes.iter_mut().enumerate() {
            if !active[l] {
                continue;
            }
            let lane = slot.as_mut().expect("active lane is live");
            lane.iter += 1;
            let rhs_lane = &mut rhs[l * n..(l + 1) * n];
            rhs_lane.iter_mut().for_each(|v| *v = 0.0);
            let mode = StampMode::Transient {
                t_next: lane.t_next,
                dt: lane.dt_cur,
                method: lane.method,
            };
            let mut sink = LaneStamp {
                backend: &mut *backend,
                lane: l,
            };
            for device in &lane.compiled.devices {
                device.stamp(mode, &lane.x_iter, &mut sink, rhs_lane, lane.opts.gmin);
            }
        }

        // Phase 3: one factor+solve across all active lanes.
        let t0 = Instant::now();
        let reports = backend.factor_solve(&mut rhs, &active);
        let elapsed_ns = t0.elapsed().as_nanos() as u64;

        // Phase 4: per-lane Newton update, convergence, accept/reject.
        for (l, slot) in lanes.iter_mut().enumerate() {
            if !active[l] {
                continue;
            }
            let lane = slot.as_mut().expect("active lane is live");
            lane.advance(&reports[l], &rhs[l * n..(l + 1) * n], elapsed_ns);
        }
    }
}

/// Per-lane adapter routing a device's `add` calls into one lane of the
/// shared backend. The call sequence is identical to scalar stamping into
/// `MnaMatrix`, which is what the backends' determinism contract needs.
struct LaneStamp<'b, B: BatchBackend> {
    backend: &'b mut B,
    lane: usize,
}

impl<B: BatchBackend> Stamp for LaneStamp<'_, B> {
    #[inline]
    fn add(&mut self, r: usize, c: usize, v: f64) {
        self.backend.add(self.lane, r, c, v);
    }
}

enum LanePhase {
    /// Step control runs next (choose dt, prepare devices).
    StartStep,
    /// Mid-Newton: the lane wants a linear solve this round.
    Newton,
    /// Finished (result stored); the lane no longer participates.
    Done,
}

/// All stepper state for one lane — the local variables of the scalar
/// transient loop, lifted into a struct so the loop can be suspended at
/// the linear solve.
struct Lane<'a> {
    opts: &'a SimOptions,
    tstop: f64,
    compiled: CompiledCircuit,
    fault: Option<FaultPlan>,
    recorder: Option<Recorder>,
    stats: TranStats,
    /// Per-lane solver counters (the batch backend has no `MnaMatrix`).
    solver: SolverStats,
    node_count: usize,
    x: Vec<f64>,
    t: f64,
    dt: f64,
    force_be: bool,
    hist: Vec<(f64, Vec<f64>)>,
    // Current step attempt.
    dt_cur: f64,
    t_next: f64,
    method: Method,
    lands_on_corner: bool,
    // Newton iterate for the current attempt.
    x_iter: Vec<f64>,
    iter: usize,
    phase: LanePhase,
    /// Analysis-level `transient` span; dropped when the lane finishes.
    span: Option<SpanGuard>,
    result: Option<Result<TranResult>>,
}

impl<'a> Lane<'a> {
    /// Mirrors the scalar fresh-start path: span, DC operating point,
    /// recorder, initial stepper state.
    fn setup(spec: &BatchSpec<'a>, mut compiled: CompiledCircuit) -> Result<Self> {
        let opts = spec.opts;
        let fault = opts.fault.clone().or_else(FaultPlan::from_env);
        let span = opts.telemetry.span(Level::Analysis, names::SPAN_TRANSIENT);
        let node_count = compiled.node_names.len();

        let mut dc_ws = DcWorkspace::new(&compiled, opts);
        let x_dc = solve_dc(&mut compiled, opts, &mut dc_ws)?;
        trace::emit_dc_stats(&opts.telemetry, &dc_ws.stats());
        init_state_from_dc(&mut compiled, &x_dc, opts);

        let mut recorder = Recorder::new(&compiled);
        recorder.record(0.0, &x_dc, &compiled);

        Ok(Lane {
            opts,
            tstop: spec.tstop,
            compiled,
            fault,
            recorder: Some(recorder),
            stats: TranStats::default(),
            solver: SolverStats::default(),
            node_count,
            x: x_dc,
            t: 0.0,
            dt: (opts.dtmax / 16.0).max(opts.dtmin),
            force_be: true, // first step: backward Euler
            hist: Vec::with_capacity(2),
            dt_cur: 0.0,
            t_next: 0.0,
            method: opts.method,
            lands_on_corner: false,
            x_iter: Vec::new(),
            iter: 0,
            phase: LanePhase::StartStep,
            span: Some(span),
            result: None,
        })
    }

    /// Step control: the top of the scalar `while` loop, run repeatedly
    /// until the lane reaches a Newton solve or finishes. Injected Newton
    /// failures are rejected here (they replace the whole solve), so the
    /// loop can retry immediately without waiting a round.
    // The negated guard mirrors the scalar `while` condition exactly,
    // including its exit on a non-finite `t`.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    fn begin_step(&mut self) {
        loop {
            if !(self.t < self.tstop * (1.0 - 1e-12)) {
                self.finish_ok();
                return;
            }
            self.stats.steps_attempted += 1;
            if self.stats.steps_attempted > self.opts.max_steps {
                self.finish_err(SimError::StepBudgetExceeded {
                    time: self.t,
                    steps: self.stats.steps_attempted,
                });
                return;
            }
            if let Some(plan) = &self.fault {
                if plan.crash_at(self.stats.steps_attempted as u64) {
                    self.finish_err(SimError::InjectedCrash {
                        time: self.t,
                        step: self.stats.steps_attempted,
                    });
                    return;
                }
            }

            // --- Choose the step size (transcribed from scalar). ---
            let mut dt_cur = self.dt.min(self.opts.dtmax).min(self.tstop - self.t);
            let mut lands_on_corner = false;
            if let Some(bp) = self.compiled.next_breakpoint(self.t) {
                let gap = bp - self.t;
                if gap <= dt_cur {
                    dt_cur = gap.max(self.opts.dtmin);
                    lands_on_corner = true;
                }
            }
            for device in &self.compiled.devices {
                if let SimDevice::Ptm { state, .. } = device {
                    if state.in_transition() {
                        dt_cur = dt_cur.min((state.params().t_ptm / 8.0).max(self.opts.dtmin));
                    }
                }
            }
            dt_cur = dt_cur.max(self.opts.dtmin);
            let t_next = self.t + dt_cur;
            let method = if self.force_be {
                Method::BackwardEuler
            } else {
                self.opts.method
            };

            for device in &mut self.compiled.devices {
                device.prepare_step(t_next);
            }
            self.dt_cur = dt_cur;
            self.t_next = t_next;
            self.method = method;
            self.lands_on_corner = lands_on_corner;

            let injected = self
                .fault
                .as_ref()
                .is_some_and(|plan| plan.fail_newton(self.stats.steps_attempted as u64));
            if injected {
                let err = SimError::NonConvergence {
                    time: t_next,
                    dt: dt_cur,
                    residual: f64::INFINITY,
                    unknown: Some("<injected fault>".into()),
                };
                if self.reject_solve(err) {
                    return; // lane terminated at the dtmin floor
                }
                continue; // retry the shrunk step in this same round
            }

            self.x_iter.clone_from(&self.x);
            self.iter = 0;
            self.phase = LanePhase::Newton;
            return;
        }
    }

    /// Processes the linear-solve result for the current Newton iteration:
    /// solver accounting, the damped update, convergence, accept/reject.
    fn advance(&mut self, rep: &LaneReport, x_next: &[f64], elapsed_ns: u64) {
        // Solver accounting mirrors `MnaMatrix::factor_solve` per lane (a
        // lane that reused its factors sets neither factorisation flag).
        // Timing attributes the whole batched solve to every active lane
        // (excluded from `SolverStats` equality).
        self.solver.pattern_rebuilds = rep.pattern_epoch;
        if rep.pivot_fallback {
            self.solver.pivot_fallbacks += 1;
        }
        if rep.refactorization {
            self.solver.refactorizations += 1;
        }
        if rep.full_factorization {
            self.solver.full_factorizations += 1;
        }
        if rep.factor_nnz != 0 {
            self.solver.factor_nnz = rep.factor_nnz;
        }
        self.solver.solve_time_ns += elapsed_ns;
        if let Err(e) = &rep.result {
            self.reject_solve(SimError::from(e.clone()));
            return;
        }
        self.solver.solves += 1;

        // --- Damped Newton update on the raw solve (scalar transcription).
        let mut max_dx = 0.0f64;
        for (xn, xo) in x_next.iter().zip(&self.x_iter) {
            max_dx = max_dx.max((xn - xo).abs());
        }
        let scale = if max_dx > self.opts.max_newton_step {
            self.opts.max_newton_step / max_dx
        } else {
            1.0
        };
        let mut converged = true;
        let mut max_raw = 0.0f64;
        let mut worst = 0usize;
        for (i, (&xn, xi)) in x_next.iter().zip(self.x_iter.iter_mut()).enumerate() {
            let raw = xn - *xi;
            *xi += raw * scale;
            let tol = if i < self.node_count {
                self.opts.reltol * xi.abs() + self.opts.vntol
            } else {
                self.opts.reltol * xi.abs() + self.opts.abstol
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
            self.accept_step();
        } else if self.iter >= self.opts.max_newton_iter {
            let err = SimError::NonConvergence {
                time: self.t_next,
                dt: self.dt_cur,
                residual: max_raw,
                unknown: unknown_name(&self.compiled, worst, self.node_count),
            };
            self.reject_solve(err);
        }
        // else: stay in Newton for the next round.
    }

    /// Newton-failure rejection (solver error, budget exhaustion, injected
    /// fault). Returns `true` when the lane terminated (backward-Euler
    /// attempt at the dtmin floor failed).
    fn reject_solve(&mut self, err: SimError) -> bool {
        self.stats.steps_rejected += 1;
        self.hist.clear();
        if self.method == Method::BackwardEuler && self.dt_cur <= self.opts.dtmin * (1.0 + 1e-9) {
            self.finish_err(err);
            return true;
        }
        self.dt = (self.dt_cur / 4.0).max(self.opts.dtmin);
        self.force_be = true;
        self.phase = LanePhase::StartStep;
        false
    }

    /// Converged solve: LTE control, PTM event refinement, accept.
    /// Transcribed from the scalar accept path.
    fn accept_step(&mut self) {
        let iters = self.iter;
        self.stats.newton_iterations += iters;
        let opts = self.opts;

        // --- Local-truncation-error control (optional). ---
        let mut lte_grow = false;
        if opts.lte_control && self.hist.len() == 2 && !self.force_be {
            let (t0, x0) = (&self.hist[0].0, &self.hist[0].1);
            let (t1, x1) = (&self.hist[1].0, &self.hist[1].1);
            let mut err = 0.0f64;
            for i in 0..self.node_count {
                let pred = lagrange3(*t0, x0[i], *t1, x1[i], self.t, self.x[i], self.t_next);
                err = err.max((self.x_iter[i] - pred).abs());
            }
            if err > opts.lte_tol && self.dt_cur > 4.0 * opts.dtmin {
                self.stats.steps_rejected += 1;
                opts.telemetry.counter(names::TRAN_LTE_REJECTIONS, 1);
                self.dt = self.dt_cur * 0.5;
                self.phase = LanePhase::StartStep;
                return;
            }
            lte_grow = err < 0.1 * opts.lte_tol;
        }

        // --- PTM event refinement. ---
        let mut worst_overshoot = 0.0f64;
        for device in &self.compiled.devices {
            if let SimDevice::Ptm { p, n, state, .. } = device {
                let v = volt(&self.x_iter, *p) - volt(&self.x_iter, *n);
                if let Some(excess) = state.threshold_excess(v) {
                    worst_overshoot = worst_overshoot.max(excess);
                }
            }
        }
        if worst_overshoot > opts.event_vtol && self.dt_cur > 2.0 * opts.dtmin {
            self.stats.steps_rejected += 1;
            self.dt = self.dt_cur / 2.0;
            self.phase = LanePhase::StartStep;
            return;
        }

        // --- Accept. ---
        for device in &mut self.compiled.devices {
            device.commit(&self.x_iter, self.t_next, self.dt_cur, self.method);
        }
        self.force_be = self.lands_on_corner;
        let mut fired = false;
        for device in &mut self.compiled.devices {
            if let SimDevice::Ptm {
                p,
                n,
                state,
                events,
                ..
            } = device
            {
                let v = volt(&self.x_iter, *p) - volt(&self.x_iter, *n);
                if let Some(excess) = state.threshold_excess(v) {
                    if excess >= 0.0 {
                        let event = state.fire(self.t_next);
                        trace::emit_ptm_event(&opts.telemetry, &event);
                        events.push(event);
                        self.stats.ptm_transitions += 1;
                        fired = true;
                    }
                }
            }
        }
        if fired {
            self.force_be = true;
            self.dt = self.dt_cur.min(opts.dtmax / 16.0).max(opts.dtmin);
        } else if opts.lte_control {
            self.dt = if iters > 12 {
                self.dt_cur * 0.6
            } else if lte_grow {
                self.dt_cur * 2.0
            } else {
                self.dt_cur
            };
        } else {
            self.dt = if iters <= 5 {
                self.dt_cur * 1.3
            } else if iters > 12 {
                self.dt_cur * 0.6
            } else {
                self.dt_cur
            };
        }

        self.recorder
            .as_mut()
            .expect("recorder present until finish")
            .record(self.t_next, &self.x_iter, &self.compiled);
        self.stats.steps_accepted += 1;
        if opts.telemetry.is_enabled() {
            opts.telemetry.histogram(names::H_TRAN_DT, self.dt_cur);
            opts.telemetry
                .histogram(names::H_TRAN_STEP_ITERS, iters as f64);
            let next = self.dt.min(opts.dtmax);
            if next > self.dt_cur {
                opts.telemetry.counter(names::TRAN_DT_GROWTHS, 1);
            } else if next < self.dt_cur {
                opts.telemetry.counter(names::TRAN_DT_SHRINKS, 1);
            }
        }
        if self.force_be {
            self.hist.clear();
        } else {
            if self.hist.len() == 2 {
                self.hist.remove(0);
            }
            self.hist.push((self.t, self.x.clone()));
        }
        std::mem::swap(&mut self.x, &mut self.x_iter);
        self.t = self.t_next;
        self.phase = LanePhase::StartStep;
    }

    fn finish_ok(&mut self) {
        self.stats.solver = self.solver;
        trace::emit_tran_stats(&self.opts.telemetry, &self.stats);
        self.span.take(); // close the analysis span
        let recorder = self.recorder.take().expect("finish runs once");
        self.result = Some(Ok(recorder.finish(&self.compiled, self.stats)));
        self.phase = LanePhase::Done;
    }

    fn finish_err(&mut self, err: SimError) {
        self.span.take(); // scalar drops the span when the error propagates
        self.result = Some(Err(err));
        self.phase = LanePhase::Done;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfet_circuit::SourceWaveform;
    use sfet_devices::ptm::PtmParams;

    fn opts_for(tstop: f64) -> SimOptions {
        SimOptions::for_duration(tstop, 2000)
    }

    fn rc_circuit(r: f64) -> Circuit {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let out = ckt.node("out");
        let g = Circuit::ground();
        ckt.add_voltage_source("V1", a, g, SourceWaveform::ramp(0.0, 1.0, 0.0, 1e-15))
            .unwrap();
        ckt.add_resistor("R1", a, out, r).unwrap();
        ckt.add_capacitor("C1", out, g, 1e-15).unwrap();
        ckt
    }

    /// Paper Fig. 3 staircase: PTM in series with a capacitor, ramp input.
    fn staircase_circuit(cap: f64) -> Circuit {
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
        ckt.add_capacitor("C1", vc, g, cap).unwrap();
        ckt
    }

    fn assert_tran_bitwise(a: &TranResult, b: &TranResult, what: &str) {
        assert_eq!(a.times().len(), b.times().len(), "{what}: sample counts");
        for (ta, tb) in a.times().iter().zip(b.times()) {
            assert_eq!(ta.to_bits(), tb.to_bits(), "{what}: time axis");
        }
        let mut node_names: Vec<String> = a.node_names().map(str::to_owned).collect();
        node_names.sort();
        for name in &node_names {
            let (wa, wb) = (a.voltage(name).unwrap(), b.voltage(name).unwrap());
            assert_eq!(wa.values().len(), wb.values().len(), "{what}: v({name})");
            for (va, vb) in wa.values().iter().zip(wb.values()) {
                assert_eq!(va.to_bits(), vb.to_bits(), "{what}: v({name})");
            }
        }
        assert_eq!(a.stats(), b.stats(), "{what}: stats");
    }

    #[test]
    fn rc_lanes_match_scalar_bitwise_both_solvers() {
        let tstop = 6e-12;
        let circuits: Vec<Circuit> = [500.0, 1e3, 2e3, 5e3].map(rc_circuit).into();
        for solver in [LinearSolver::Dense, LinearSolver::Sparse] {
            let opts = opts_for(tstop).with_solver(solver);
            let specs: Vec<BatchSpec<'_>> = circuits
                .iter()
                .map(|c| BatchSpec {
                    circuit: c,
                    tstop,
                    opts: &opts,
                })
                .collect();
            let batched = transient_batch(&specs);
            for (i, (c, rb)) in circuits.iter().zip(&batched).enumerate() {
                let rs = transient(c, tstop, &opts).unwrap();
                assert_tran_bitwise(rb.as_ref().unwrap(), &rs, &format!("{solver} lane {i}"));
            }
        }
    }

    #[test]
    fn staircase_lanes_match_scalar_across_methods_and_solvers() {
        let tstop = 300e-12;
        let circuits: Vec<Circuit> = [0.4e-15, 0.5e-15, 0.65e-15].map(staircase_circuit).into();
        for method in [Method::Trapezoidal, Method::BackwardEuler, Method::Gear2] {
            for solver in [LinearSolver::Dense, LinearSolver::Sparse] {
                let opts = SimOptions::for_duration(tstop, 600)
                    .with_method(method)
                    .with_solver(solver);
                let specs: Vec<BatchSpec<'_>> = circuits
                    .iter()
                    .map(|c| BatchSpec {
                        circuit: c,
                        tstop,
                        opts: &opts,
                    })
                    .collect();
                let batched = transient_batch(&specs);
                for (i, (c, rb)) in circuits.iter().zip(&batched).enumerate() {
                    let rs = transient(c, tstop, &opts).unwrap();
                    let rb = rb.as_ref().unwrap();
                    assert_tran_bitwise(rb, &rs, &format!("{method:?}/{solver} lane {i}"));
                    assert_eq!(
                        rb.ptm_events("P1").unwrap(),
                        rs.ptm_events("P1").unwrap(),
                        "{method:?}/{solver} lane {i}: events"
                    );
                }
            }
        }
    }

    /// The batched stepper counts `tran.dt_growths` after the `dtmax` cap,
    /// exactly as the scalar one does.
    #[test]
    fn dt_growths_match_scalar_at_dtmax() {
        use sfet_telemetry::{SharedAggregator, Telemetry};
        let tstop = 10e-12;
        let ckt = crate::transient::tests::rc_charging_at_dtmax();
        let count = |batched: bool| {
            let agg = SharedAggregator::new();
            let opts =
                SimOptions::for_duration(tstop, 200).with_telemetry(Telemetry::new(agg.clone()));
            let specs = [BatchSpec {
                circuit: &ckt,
                tstop,
                opts: &opts,
            }; 2];
            if batched {
                for r in transient_batch(&specs) {
                    r.unwrap();
                }
            } else {
                for s in &specs {
                    transient(s.circuit, s.tstop, s.opts).unwrap();
                }
            }
            agg.snapshot().counter(names::TRAN_DT_GROWTHS)
        };
        let scalar = count(false);
        assert!((2..=24).contains(&scalar), "{scalar} growths in two runs");
        assert_eq!(count(true), scalar);
    }

    #[test]
    fn single_lane_batch_matches_scalar() {
        let tstop = 300e-12;
        let ckt = staircase_circuit(0.5e-15);
        let opts = SimOptions::for_duration(tstop, 600);
        let batched = transient_batch(&[BatchSpec {
            circuit: &ckt,
            tstop,
            opts: &opts,
        }]);
        let scalar = transient(&ckt, tstop, &opts).unwrap();
        assert_tran_bitwise(batched[0].as_ref().unwrap(), &scalar, "B=1");
    }

    /// An injected Newton failure in one lane must not perturb siblings:
    /// the faulted lane matches its scalar faulted run, the clean lanes
    /// are bitwise identical to a clean batched run.
    #[test]
    fn lane_fault_is_isolated_and_recovers() {
        let tstop = 6e-12;
        let circuits: Vec<Circuit> = [500.0, 1e3, 2e3].map(rc_circuit).into();
        let clean = opts_for(tstop);
        let faulty = opts_for(tstop).with_fault_plan(FaultPlan::new().with_newton_failure(10));
        let opts_by_lane = [&clean, &faulty, &clean];
        let specs: Vec<BatchSpec<'_>> = circuits
            .iter()
            .zip(opts_by_lane)
            .map(|(c, o)| BatchSpec {
                circuit: c,
                tstop,
                opts: o,
            })
            .collect();
        let batched = transient_batch(&specs);
        for (i, (c, o)) in circuits.iter().zip(opts_by_lane).enumerate() {
            let rs = transient(c, tstop, o).unwrap();
            assert_tran_bitwise(batched[i].as_ref().unwrap(), &rs, &format!("lane {i}"));
        }
        assert!(
            batched[1].as_ref().unwrap().stats().steps_rejected
                > batched[0].as_ref().unwrap().stats().steps_rejected,
            "the injected failure must cost the faulted lane a rejection"
        );
    }

    /// A lane that cannot converge terminates with its own scalar-identical
    /// error while siblings complete normally.
    #[test]
    fn diverging_lane_fails_alone() {
        let tstop = 10e-12;
        // Scalar-reference divergence: tight damping + tiny iteration
        // budget on a sharp edge (from the scalar nonconvergence test).
        let mut bad = Circuit::new();
        let a = bad.node("a");
        let mid = bad.node("mid");
        let g = Circuit::ground();
        bad.add_voltage_source("V1", a, g, SourceWaveform::ramp(0.0, 0.8, 0.0, 1e-18))
            .unwrap();
        bad.add_resistor("R1", a, mid, 1e3).unwrap();
        bad.add_resistor("R2", mid, g, 1e3).unwrap();
        let bad_opts = SimOptions {
            max_newton_step: 0.1,
            max_newton_iter: 5,
            dtmin: 1e-15,
            ..Default::default()
        };
        // Sibling lane: same MNA shape (2 nodes + 1 branch, dense solver
        // with factor reuse — only the shape must match), converges fine.
        let good = rc_circuit(1e3);
        let good_opts = SimOptions::default();
        let specs = [
            BatchSpec {
                circuit: &good,
                tstop,
                opts: &good_opts,
            },
            BatchSpec {
                circuit: &bad,
                tstop,
                opts: &bad_opts,
            },
        ];
        let batched = transient_batch(&specs);
        let scalar_good = transient(&good, tstop, &good_opts).unwrap();
        assert_tran_bitwise(batched[0].as_ref().unwrap(), &scalar_good, "good lane");
        let scalar_err = transient(&bad, tstop, &bad_opts).unwrap_err();
        match (&batched[1], &scalar_err) {
            (
                Err(SimError::NonConvergence {
                    time: bt,
                    dt: bd,
                    residual: br,
                    unknown: bu,
                }),
                SimError::NonConvergence {
                    time: st,
                    dt: sd,
                    residual: sr,
                    unknown: su,
                },
            ) => {
                assert_eq!(bt.to_bits(), st.to_bits(), "failure time");
                assert_eq!(bd.to_bits(), sd.to_bits(), "failure dt");
                assert_eq!(br.to_bits(), sr.to_bits(), "failure residual");
                assert_eq!(bu, su, "worst unknown");
            }
            other => panic!("expected matching NonConvergence, got {other:?}"),
        }
    }

    /// Mixed MNA sizes cannot share a SoA backend; the batch falls back to
    /// per-lane scalar runs and still matches scalar bitwise.
    #[test]
    fn non_uniform_shapes_fall_back_to_scalar() {
        let tstop = 6e-12;
        let rc = rc_circuit(1e3); // 2 nodes + 1 branch
        let stair = staircase_circuit(0.5e-15); // different size
        let opts = opts_for(tstop);
        let specs = [
            BatchSpec {
                circuit: &rc,
                tstop,
                opts: &opts,
            },
            BatchSpec {
                circuit: &stair,
                tstop,
                opts: &opts,
            },
        ];
        let batched = transient_batch(&specs);
        assert_tran_bitwise(
            batched[0].as_ref().unwrap(),
            &transient(&rc, tstop, &opts).unwrap(),
            "fallback lane 0",
        );
        assert_tran_bitwise(
            batched[1].as_ref().unwrap(),
            &transient(&stair, tstop, &opts).unwrap(),
            "fallback lane 1",
        );
    }

    /// Validation failures are per lane: a bad tstop errors that lane only.
    #[test]
    fn validation_error_is_per_lane() {
        let ckt = rc_circuit(1e3);
        let opts = opts_for(6e-12);
        let specs = [
            BatchSpec {
                circuit: &ckt,
                tstop: -1.0,
                opts: &opts,
            },
            BatchSpec {
                circuit: &ckt,
                tstop: 6e-12,
                opts: &opts,
            },
        ];
        let batched = transient_batch(&specs);
        assert!(matches!(batched[0], Err(SimError::InvalidOptions(_))));
        assert_tran_bitwise(
            batched[1].as_ref().unwrap(),
            &transient(&ckt, 6e-12, &opts).unwrap(),
            "valid sibling",
        );
    }

    #[test]
    fn empty_batch_is_empty() {
        assert!(transient_batch(&[]).is_empty());
    }

    /// Telemetry counters from a batched run total the same as the scalar
    /// runs of its lanes (analysis spans, step counters, histograms).
    #[test]
    fn batched_telemetry_matches_scalar_totals() {
        use sfet_telemetry::{SharedAggregator, Telemetry};
        let tstop = 300e-12;
        let circuits: Vec<Circuit> = [0.4e-15, 0.5e-15].map(staircase_circuit).into();

        let scalar_agg = SharedAggregator::new();
        let scalar_opts =
            SimOptions::for_duration(tstop, 600).with_telemetry(Telemetry::new(scalar_agg.clone()));
        for c in &circuits {
            transient(c, tstop, &scalar_opts).unwrap();
        }

        let batch_agg = SharedAggregator::new();
        let batch_opts =
            SimOptions::for_duration(tstop, 600).with_telemetry(Telemetry::new(batch_agg.clone()));
        let specs: Vec<BatchSpec<'_>> = circuits
            .iter()
            .map(|c| BatchSpec {
                circuit: c,
                tstop,
                opts: &batch_opts,
            })
            .collect();
        for r in transient_batch(&specs) {
            r.unwrap();
        }

        let (s, b) = (scalar_agg.snapshot(), batch_agg.snapshot());
        for name in [
            names::TRAN_STEPS_ATTEMPTED,
            names::TRAN_STEPS_ACCEPTED,
            names::TRAN_STEPS_REJECTED,
            names::TRAN_NEWTON_ITERATIONS,
            names::TRAN_PTM_TRANSITIONS,
            names::TRAN_DT_GROWTHS,
            names::TRAN_DT_SHRINKS,
        ] {
            assert_eq!(s.counter(name), b.counter(name), "{name}");
        }
    }
}
