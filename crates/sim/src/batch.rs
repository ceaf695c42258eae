//! The transient stepper: one lane state machine, driven by one round loop
//! over a linear solver that holds one or many lanes.
//!
//! [`transient`] and [`transient_resumable`](crate::transient_resumable)
//! run a single lane over an [`MnaMatrix`] (dense, sparse or GMRES).
//! [`transient_batch`] runs the lanes of a [`BatchSpec`] slice over a
//! [`BatchDense`], which lays the B Jacobians out lane-minor so the dense
//! kernels auto-vectorise across lanes. Both go through the same code for
//! step-size control, the damped Newton update, LTE and PTM-event
//! rejection, fault injection, the `timestep`/`newton_iter` spans and
//! checkpoints; only the [`LaneSolver`] under the loop differs.
//!
//! # Determinism contract
//!
//! Every lane's waveform, events, and [`TranStats`] are **bitwise
//! identical** to a [`transient`] run of the same (circuit, tstop,
//! options) triple. The backends guarantee that each lane executes the
//! same sequence of f64 operations as the scalar solver; the round loop
//! guarantees the rest:
//!
//! * lanes advance **round-robin by linear solve**, not in time
//!   lockstep — a lane whose step was rejected simply starts its retry in
//!   the next round, so a stiff lane never perturbs or stalls siblings
//!   (a linear lane runs a whole step attempt on one solve, see
//!   `Lane::advance`);
//! * the DC operating point is solved scalar per lane (it runs once, off
//!   the hot path);
//! * value-dependent decisions (step-size choice, convergence, pivoting,
//!   refactor-vs-full) are taken per lane.
//!
//! The SoA backend applies when every lane resolves to dense LU
//! ([`SimOptions::effective_solver`], exactly as a scalar run resolves it)
//! at one MNA size. Any other batch — sparse or GMRES lanes, or mixed
//! sizes — runs lane by lane through [`transient`] (bitwise equal by
//! definition). Lanes that fail option/circuit validation error
//! individually without aborting siblings.
//!
//! Lanes of one batch that share a telemetry sink interleave their spans.
//! `SolverStats::solve_time_ns` attributes each whole-batch solve to every
//! active lane (timing is excluded from equality comparisons).
//! Checkpoints are written and resumed only through
//! [`transient_resumable`](crate::transient_resumable).

use std::path::Path;
use std::time::Instant;

use crate::checkpoint::{self, CheckpointPolicy, TranSnapshot};
use crate::dcop::{damped_update, init_state_from_dc, operating_point};
use crate::devices::{CompiledCircuit, SimDevice, Stamp, StampMode};
use crate::matrix::{LinearSolver, MnaMatrix, SolverStats};
use crate::options::SimOptions;
use crate::result::{TranResult, TranStats};
use crate::trace;
use crate::transient::{compile_checked, transient, Recorder};
use crate::{Result, SimError};
use sfet_circuit::Circuit;
use sfet_numeric::batch::BatchDense;
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
    /// Simulation options (every lane must resolve to dense LU at one
    /// size for the batched path; otherwise the batch runs lane by lane).
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
        .map(|s| compile_checked(s.circuit, s.tstop, s.opts))
        .collect();

    // --- The lanes that validated must all resolve to dense LU at one
    // --- size; any other batch runs lane by lane.
    let mut shapes = specs.iter().zip(&prevalidated).filter_map(|(spec, pre)| {
        let n = pre.as_ref().ok()?.size;
        Some((spec.opts.effective_solver(n), n))
    });
    let shape = shapes.next();
    if shapes.any(|s| Some(s) != shape)
        || shape.is_some_and(|(solver, _)| solver != LinearSolver::Dense)
    {
        return specs
            .iter()
            .map(|s| transient(s.circuit, s.tstop, s.opts))
            .collect();
    }

    // --- Pass B: per-lane setup (span, DC operating point, recorder). ---
    let no_checkpoints = CheckpointPolicy::disabled();
    let mut lanes: Vec<Result<Lane<'_>>> = specs
        .iter()
        .zip(prevalidated)
        .map(|(spec, pre)| {
            pre.and_then(|compiled| Lane::setup(compiled, spec.tstop, spec.opts, &no_checkpoints))
        })
        .collect();

    // --- Drive all live lanes to completion, one batched solve per round.
    // With no shape every lane failed validation: only their errors remain.
    if let Some((_, n)) = shape {
        drive_lanes(&mut Batched::new(n, specs.len()), &mut lanes, n);
    }
    lanes
        .into_iter()
        .map(|lane| lane.and_then(Lane::into_result))
        .collect()
}

/// The linear solve under the round loop: one same-shape MNA system per
/// lane, assembled and factor-solved together. [`MnaMatrix`] is the
/// one-lane solver; [`Batched`] adapts a [`BatchDense`].
///
/// Devices stamp into the solver itself, so a one-lane run stamps
/// straight into its `MnaMatrix`; the stamps land in the lane last
/// passed to [`select`](LaneSolver::select). The `add` call sequence is
/// the same at every width, which is what the batch backends'
/// determinism contract needs. In each round an active lane either
/// [holds the factors](LaneSolver::hold_factors) of the system it would
/// assemble, or selects itself and assembles.
pub(crate) trait LaneSolver: Stamp {
    /// Begins a round for the lanes flagged in `active`.
    fn begin(&mut self, active: &[bool]);
    /// Starts lane `lane`'s assembly: the stamps that follow go into its
    /// system.
    fn select(&mut self, lane: usize);
    /// If lane `lane` holds the factors of its last successful solve, it
    /// skips this round's assembly and
    /// [`factor_solve`](LaneSolver::factor_solve) solves it with them;
    /// returns whether it does. The caller guarantees that the system
    /// repeats, bit for bit, the one those factors came from.
    fn hold_factors(&mut self, lane: usize) -> bool;
    /// Factors every active lane and solves it in place — lane `l`'s slice
    /// `rhs[l*n..(l+1)*n]` becomes its solution — and stores the lane's
    /// outcome in `solved[l]`. The outcomes go into caller-owned storage,
    /// so a round on [`MnaMatrix`] allocates nothing.
    fn factor_solve(
        &mut self,
        rhs: &mut [f64],
        active: &[bool],
        solved: &mut [sfet_numeric::Result<()>],
    );
    /// Lane `lane`'s solver counters so far.
    fn stats(&self, lane: usize) -> SolverStats;
}

/// The one lane clears the matrix only when it assembles, so a round
/// that holds factors leaves the last assembly as it is.
impl LaneSolver for MnaMatrix {
    fn begin(&mut self, _active: &[bool]) {}

    fn select(&mut self, _lane: usize) {
        self.clear();
    }

    fn hold_factors(&mut self, _lane: usize) -> bool {
        MnaMatrix::hold_factors(self)
    }

    fn factor_solve(
        &mut self,
        rhs: &mut [f64],
        _active: &[bool],
        solved: &mut [sfet_numeric::Result<()>],
    ) {
        solved[0] = MnaMatrix::factor_solve(self, rhs);
    }

    fn stats(&self, _lane: usize) -> SolverStats {
        MnaMatrix::stats(self)
    }
}

/// A [`BatchDense`] as a [`LaneSolver`]. It keeps each lane's
/// [`SolverStats`] the way `MnaMatrix::factor_solve` keeps a dense
/// matrix's (one full factorisation per solve) and attributes each
/// whole-batch solve's time to every active lane.
struct Batched {
    backend: BatchDense,
    n: usize,
    stats: Vec<SolverStats>,
    /// The lane [`Stamp::add`] writes to.
    selected: usize,
}

impl Batched {
    fn new(n: usize, lanes: usize) -> Self {
        Batched {
            backend: BatchDense::new(n, lanes),
            n,
            stats: vec![SolverStats::default(); lanes],
            selected: 0,
        }
    }
}

impl Stamp for Batched {
    #[inline]
    fn add(&mut self, r: usize, c: usize, v: f64) {
        self.backend.add(self.selected, r, c, v);
    }
}

impl LaneSolver for Batched {
    fn begin(&mut self, active: &[bool]) {
        self.backend.begin(active);
    }

    fn select(&mut self, lane: usize) {
        self.selected = lane;
    }

    /// Dense LU refactors at every solve, so it holds no factors.
    fn hold_factors(&mut self, _lane: usize) -> bool {
        false
    }

    fn factor_solve(
        &mut self,
        rhs: &mut [f64],
        active: &[bool],
        solved: &mut [sfet_numeric::Result<()>],
    ) {
        let t0 = Instant::now();
        self.backend.factor_solve(rhs, active, solved);
        let elapsed_ns = t0.elapsed().as_nanos() as u64;
        for (l, stats) in self.stats.iter_mut().enumerate() {
            if !active[l] {
                continue;
            }
            stats.solve_time_ns += elapsed_ns;
            if solved[l].is_ok() {
                stats.full_factorizations += 1;
                stats.factor_nnz = self.n * self.n;
                stats.solves += 1;
            }
        }
    }

    fn stats(&self, lane: usize) -> SolverStats {
        self.stats[lane]
    }
}

/// The round loop: step control for every lane between steps, then one
/// assembly and one factor+solve across the lanes mid-Newton, then each of
/// those lanes' Newton update (repeated on a linear lane) — until no lane
/// wants a solve.
pub(crate) fn drive_lanes<S: LaneSolver>(solver: &mut S, lanes: &mut [Result<Lane<'_>>], n: usize) {
    let nl = lanes.len();
    let mut rhs = vec![0.0; n * nl];
    let mut active = vec![false; nl];
    let mut solved: Vec<sfet_numeric::Result<()>> = (0..nl).map(|_| Ok(())).collect();
    loop {
        for (l, slot) in lanes.iter_mut().enumerate() {
            active[l] = slot.as_mut().is_ok_and(|lane| {
                lane.begin_step(&*solver, l);
                matches!(lane.phase, LanePhase::Newton)
            });
        }
        if !active.contains(&true) {
            break;
        }
        solver.begin(&active);
        for (l, slot) in lanes.iter_mut().enumerate() {
            if let (true, Ok(lane)) = (active[l], slot) {
                lane.stamp(solver, l, &mut rhs[l * n..(l + 1) * n]);
            }
        }
        solver.factor_solve(&mut rhs, &active, &mut solved);
        for (l, slot) in lanes.iter_mut().enumerate() {
            if let (true, Ok(lane)) = (active[l], slot) {
                let outcome = std::mem::replace(&mut solved[l], Ok(()));
                lane.advance(outcome, &mut rhs[l * n..(l + 1) * n], &*solver, l);
            }
        }
    }
}

enum LanePhase {
    /// Step control runs next (choose dt, prepare devices).
    StartStep,
    /// Mid-Newton: the lane wants a linear solve this round.
    Newton,
    /// Finished; the lane no longer participates.
    Done(Box<Result<TranResult>>),
}

/// What a linear lane's transient Jacobian is a function of: the bits of
/// the step size, the method, and the bits the devices name in their
/// [`jacobian_key`](SimDevice::jacobian_key) (the PTMs' frozen
/// resistances, the only devices that name any), in device order.
#[derive(Default)]
struct JacobianKey {
    dt: u64,
    method: Method,
    devices: Vec<u64>,
}

/// A [`Stamp`] sink that drops every Jacobian entry: a lane that holds
/// its factors stamps only the right-hand side through it.
struct RhsOnly;

impl Stamp for RhsOnly {
    #[inline(always)]
    fn add(&mut self, _r: usize, _c: usize, _v: f64) {}
}

/// All stepper state for one transient run, suspended at the linear solve
/// between rounds.
pub(crate) struct Lane<'a> {
    opts: &'a SimOptions,
    tstop: f64,
    compiled: CompiledCircuit,
    fault: FaultPlan,
    ckpt: &'a CheckpointPolicy,
    /// Binds snapshots to this (circuit, tstop, method) triple.
    fingerprint: u64,
    recorder: Recorder,
    stats: TranStats,
    /// Solver counters of the segments before a resume. The solver itself
    /// starts fresh (one extra full factorisation, which does not perturb
    /// the waveform — factor reuse is bitwise-identical to fresh
    /// factorisation by the solver's determinism contract).
    resumed_solver: SolverStats,
    node_count: usize,
    x: Vec<f64>,
    t: f64,
    dt: f64,
    force_be: bool,
    /// History for the quadratic LTE predictor: two previous accepted points.
    hist: Vec<(f64, Vec<f64>)>,
    // Current step attempt.
    dt_cur: f64,
    t_next: f64,
    method: Method,
    lands_on_corner: bool,
    /// Every solve of this attempt is poisoned (the `nan@` fault-plan
    /// entry), exercising the non-finite guard exactly the way a
    /// genuinely diverging solve would.
    poison: bool,
    /// The key of the last system a linear lane assembled.
    assembled: JacobianKey,
    // Newton iterate for the current attempt.
    x_iter: Vec<f64>,
    iter: usize,
    phase: LanePhase,
    /// The `transient`, `timestep` and `newton_iter` spans; each closes
    /// when it is taken.
    span: Option<SpanGuard>,
    step_span: Option<SpanGuard>,
    iter_span: Option<SpanGuard>,
}

impl<'a> Lane<'a> {
    /// Opens the analysis span and restores the stepper state from
    /// `ckpt.resume_from`, or starts it from the DC operating point.
    pub(crate) fn setup(
        compiled: CompiledCircuit,
        tstop: f64,
        opts: &'a SimOptions,
        ckpt: &'a CheckpointPolicy,
    ) -> Result<Self> {
        let mut lane = Lane {
            opts,
            tstop,
            fault: opts
                .fault
                .clone()
                .or_else(FaultPlan::from_env)
                .unwrap_or_default(),
            ckpt,
            fingerprint: checkpoint::fingerprint(&compiled, tstop, opts.method),
            recorder: Recorder::default(),
            stats: TranStats::default(),
            resumed_solver: SolverStats::default(),
            node_count: compiled.node_names.len(),
            x: Vec::new(),
            t: 0.0,
            dt: (opts.dtmax / 16.0).max(opts.dtmin),
            force_be: true, // first step: backward Euler
            hist: Vec::with_capacity(2),
            dt_cur: 0.0,
            t_next: 0.0,
            method: opts.method,
            lands_on_corner: false,
            poison: false,
            assembled: JacobianKey::default(),
            x_iter: Vec::new(),
            iter: 0,
            phase: LanePhase::StartStep,
            span: Some(opts.telemetry.span(Level::Analysis, names::SPAN_TRANSIENT)),
            step_span: None,
            iter_span: None,
            compiled,
        };
        if let Some(path) = &ckpt.resume_from {
            lane.resume(path)?;
        } else {
            // The initial operating point reports under the `dc.*`
            // namespace; it is deliberately excluded from `TranStats`/`tran.*`.
            let (x_dc, _) = operating_point(&mut lane.compiled, opts)?;
            init_state_from_dc(&mut lane.compiled, &x_dc, opts);
            lane.recorder = Recorder::new(&lane.compiled);
            lane.recorder.record(0.0, &x_dc, &lane.compiled);
            lane.x = x_dc;
        }
        Ok(lane)
    }

    /// Restores the stepper state from the snapshot at `path`, checking
    /// every length the stepper indexes by.
    fn resume(&mut self, path: &Path) -> Result<()> {
        let snap = checkpoint::read_snapshot(path, self.fingerprint)?;
        checkpoint::restore_devices(&mut self.compiled, &snap.devices)?;
        let n = self.compiled.size;
        if snap.x.len() != n {
            return Err(SimError::Checkpoint(format!(
                "snapshot solution has {} unknowns, circuit has {n}",
                snap.x.len()
            )));
        }
        // The writer keeps at most the two points the LTE predictor reads.
        if snap.hist.len() > 2 || snap.hist.iter().any(|(_, h)| h.len() != n) {
            return Err(SimError::Checkpoint(format!(
                "snapshot LTE history must hold at most 2 points of {n} unknowns"
            )));
        }
        self.recorder = Recorder::restore(
            &self.compiled,
            snap.times,
            snap.node_data,
            snap.branch_data,
            snap.ptm_resistance,
        )?;
        self.stats = snap.stats;
        self.resumed_solver = std::mem::take(&mut self.stats.solver);
        self.x = snap.x;
        self.t = snap.t;
        self.dt = snap.dt;
        self.force_be = snap.force_be;
        self.hist = snap.hist;
        self.opts.telemetry.counter(names::CHECKPOINT_RESUMED, 1);
        Ok(())
    }

    /// The run's result, once the round loop has finished the lane.
    pub(crate) fn into_result(self) -> Result<TranResult> {
        match self.phase {
            LanePhase::Done(result) => *result,
            _ => unreachable!("the round loop runs every lane to completion"),
        }
    }

    /// Step control, repeated until the lane wants a Newton solve or is
    /// done. An injected Newton failure replaces the whole solve, so it is
    /// rejected here and the shrunk step retried at once.
    // The negated guard exits on a non-finite `t` too.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    fn begin_step(&mut self, solver: &impl LaneSolver, l: usize) {
        while matches!(self.phase, LanePhase::StartStep) {
            if !(self.t < self.tstop * (1.0 - 1e-12)) {
                self.stats.solver = self.resumed_solver.merged(&solver.stats(l));
                trace::emit_tran_stats(&self.opts.telemetry, &self.stats);
                let recorder = std::mem::take(&mut self.recorder);
                let result = recorder.finish(&self.compiled, self.stats);
                return self.finish(Ok(result));
            }
            self.stats.steps_attempted += 1;
            let step = self.stats.steps_attempted;
            if step > self.opts.max_steps {
                let time = self.t;
                return self.finish(Err(SimError::StepBudgetExceeded { time, steps: step }));
            }
            // Simulated process kill: abort without writing a checkpoint
            // (an honest crash leaves only the last *periodic* snapshot).
            if self.fault.crash_at(step as u64) {
                let time = self.t;
                return self.finish(Err(SimError::InjectedCrash { time, step }));
            }
            self.step_span = Some(self.opts.telemetry.span(Level::Step, names::SPAN_TIMESTEP));

            // --- Choose the step size. ---
            let opts = self.opts;
            let mut dt_cur = self.dt.min(opts.dtmax).min(self.tstop - self.t);
            let mut lands_on_corner = false;
            if let Some(bp) = self.compiled.next_breakpoint(self.t) {
                let gap = bp - self.t;
                if gap <= dt_cur {
                    // Snap onto the corner. A corner closer than dtmin
                    // cannot be landed on exactly, so step across it with a
                    // dtmin-sized step instead of silently stepping over it
                    // with the full step; either way the corner is treated
                    // as a discontinuity (backward Euler next step).
                    dt_cur = gap.max(opts.dtmin);
                    lands_on_corner = true;
                }
            }
            // Resolve in-flight PTM ramps with sub-T_PTM steps.
            for &(i, _) in &self.compiled.ptm_devices {
                if let SimDevice::Ptm { state, .. } = &self.compiled.devices[i] {
                    if state.in_transition() {
                        dt_cur = dt_cur.min((state.params().t_ptm / 8.0).max(opts.dtmin));
                    }
                }
            }
            dt_cur = dt_cur.max(opts.dtmin);
            let t_next = self.t + dt_cur;
            for &(i, _) in &self.compiled.ptm_devices {
                self.compiled.devices[i].prepare_step(t_next);
            }
            self.dt_cur = dt_cur;
            self.t_next = t_next;
            self.method = if self.force_be {
                Method::BackwardEuler
            } else {
                opts.method
            };
            self.lands_on_corner = lands_on_corner;
            self.poison = self.fault.poison_newton(step as u64);
            if self.fault.fail_newton(step as u64) {
                self.reject_solve(SimError::NonConvergence {
                    time: t_next,
                    dt: dt_cur,
                    residual: f64::INFINITY,
                    unknown: Some("<injected fault>".into()),
                });
                continue;
            }
            self.x_iter.clone_from(&self.x);
            self.iter = 0;
            self.phase = LanePhase::Newton;
        }
    }

    /// Opens one Newton iteration: stamps the lane's Jacobian into `solver`
    /// and its right-hand side into `rhs`.
    ///
    /// A linear lane whose [`JacobianKey`] repeats the last assembled one
    /// would stamp that system's Jacobian again, bit for bit. While the
    /// solver still holds its factors, the lane holds them and stamps only
    /// the right-hand side.
    fn stamp(&mut self, solver: &mut impl LaneSolver, l: usize, rhs: &mut [f64]) {
        let opts = self.opts;
        self.open_iteration();
        rhs.fill(0.0);
        let mode = StampMode::Transient {
            t_next: self.t_next,
            dt: self.dt_cur,
            method: self.method,
        };
        if self.compiled.linear && self.key_repeats() && solver.hold_factors(l) {
            return self.stamp_rhs(mode, rhs);
        }
        solver.select(l);
        for device in &self.compiled.devices {
            device.stamp(mode, &self.x_iter, solver, rhs, opts.gmin);
        }
    }

    /// Whether this step attempt's [`JacobianKey`] repeats the last
    /// assembled one; when it does not, it becomes that key, since the lane
    /// assembles next.
    fn key_repeats(&mut self) -> bool {
        let (dt, method) = (self.dt_cur.to_bits(), self.method);
        let compiled = &self.compiled;
        let ptms = compiled.ptm_devices.iter();
        let keys = ptms.filter_map(|&(i, _)| compiled.devices[i].jacobian_key());
        let key = &mut self.assembled;
        if key.dt == dt && key.method == method && key.devices.iter().copied().eq(keys.clone()) {
            return true;
        }
        key.dt = dt;
        key.method = method;
        key.devices.clear();
        key.devices.extend(keys);
        false
    }

    /// Stamps the right-hand side alone, for a lane that holds its factors:
    /// only the devices whose transient stamp writes it, in device order,
    /// so every entry sums the same terms in the same order as an
    /// assembling round. Kept out of line, so that the assembling loop in
    /// [`stamp`](Lane::stamp), the one every nonlinear lane runs, compiles
    /// as it would without this one.
    #[inline(never)]
    fn stamp_rhs(&self, mode: StampMode, rhs: &mut [f64]) {
        for &i in &self.compiled.rhs_devices {
            self.compiled.devices[i].stamp(mode, &self.x_iter, &mut RhsOnly, rhs, self.opts.gmin);
        }
    }

    /// Counts one more Newton iteration and opens its span.
    fn open_iteration(&mut self) {
        self.iter += 1;
        self.iter_span = Some(
            self.opts
                .telemetry
                .span(Level::Iteration, names::SPAN_NEWTON_ITER),
        );
    }

    /// Takes this round's solve: the Newton update closes the iteration,
    /// then the step is accepted, rejected, or iterated again next round.
    ///
    /// A linear circuit's next iteration would assemble the same system
    /// and every backend would return the same solution bits, so its lane
    /// repeats the update against this solve instead — one iteration per
    /// repeat — until the update converges or fails.
    fn advance(
        &mut self,
        solved: sfet_numeric::Result<()>,
        x_next: &mut [f64],
        solver: &impl LaneSolver,
        l: usize,
    ) {
        let mut converged = self.newton_update(solved, x_next);
        self.iter_span = None;
        while self.compiled.linear && matches!(converged, Ok(false)) {
            self.open_iteration();
            converged = self.newton_update(Ok(()), x_next);
            self.iter_span = None;
        }
        match converged {
            Ok(true) => self.accept_step(solver, l),
            Ok(false) => {}
            Err(err) => self.reject_solve(err),
        }
    }

    /// Moves the Newton iterate toward the raw solve `x_next` through the
    /// shared [`damped_update`]. `Ok(true)` when converged, `Ok(false)`
    /// while the iteration budget lasts, and the error that fails the solve
    /// otherwise. A non-finite iterate fails it too: the recovery ladder
    /// then retries, and if the breakdown persists the run ends with a
    /// [`NumericError::NonFinite`](sfet_numeric::NumericError::NonFinite)
    /// at `dtmin` naming the unknown.
    fn newton_update(
        &mut self,
        solved: sfet_numeric::Result<()>,
        x_next: &mut [f64],
    ) -> Result<bool> {
        solved?;
        if self.poison {
            x_next[0] = f64::NAN;
        }
        let update = damped_update(
            &self.compiled,
            self.opts,
            &mut self.x_iter,
            x_next,
            format_args!("transient Newton solve at t={:.6e} s", self.t_next),
        )?;
        // A converged raw update ends the step even when the clamp damped
        // it: the steps after it re-converge the iterate.
        if update.converged || self.iter < self.opts.max_newton_iter {
            return Ok(update.converged);
        }
        Err(update.non_convergence(&self.compiled, self.t_next, self.dt_cur))
    }

    /// Newton-failure rejection (solver error, non-finite iterate, budget
    /// exhaustion, injected fault).
    fn reject_solve(&mut self, err: SimError) {
        // The predictor history is stale across a rejected solve followed
        // by a backward-Euler restart.
        self.hist.clear();
        // Give up only after a backward-Euler attempt AT dtmin has failed;
        // otherwise clamp the quartered retry to dtmin so the floor step is
        // actually attempted. The inner error is propagated as-is: it
        // carries the final residual and the worst unknown, which
        // failed-sweep diagnostics rely on.
        if self.method == Method::BackwardEuler && self.dt_cur <= self.opts.dtmin * (1.0 + 1e-9) {
            return self.finish(Err(err));
        }
        self.force_be = true;
        self.reject((self.dt_cur / 4.0).max(self.opts.dtmin));
    }

    /// Rejects the current attempt; the next one starts from the same
    /// point with step `dt`.
    fn reject(&mut self, dt: f64) {
        self.stats.steps_rejected += 1;
        self.dt = dt;
        self.step_span = None;
        self.phase = LanePhase::StartStep;
    }

    /// Converged solve: LTE control, PTM event refinement, accept, and the
    /// periodic checkpoint.
    fn accept_step(&mut self, solver: &impl LaneSolver, l: usize) {
        let iters = self.iter;
        self.stats.newton_iterations += iters;
        let opts = self.opts;

        // --- Local-truncation-error control (optional). ---
        let mut lte_grow = false;
        if opts.lte_control && self.hist.len() == 2 && !self.force_be {
            let (t0, x0) = (&self.hist[0].0, &self.hist[0].1);
            let (t1, x1) = (&self.hist[1].0, &self.hist[1].1);
            // Quadratic extrapolation through (t0,x0), (t1,x1), (t,x) to t_next.
            let mut err = 0.0f64;
            for i in 0..self.node_count {
                let pred = lagrange3(*t0, x0[i], *t1, x1[i], self.t, self.x[i], self.t_next);
                err = err.max((self.x_iter[i] - pred).abs());
            }
            if err > opts.lte_tol && self.dt_cur > 4.0 * opts.dtmin {
                opts.telemetry.counter(names::TRAN_LTE_REJECTIONS, 1);
                return self.reject(self.dt_cur * 0.5);
            }
            // Smooth region: let the step grow toward dtmax (applied at the
            // step-size update below, so it is not clobbered by the
            // iteration-count controller).
            lte_grow = err < 0.1 * opts.lte_tol;
        }

        // --- PTM event refinement. ---
        let ptms = self.compiled.ptm_devices.iter();
        let worst_overshoot = ptms
            .filter_map(|&(i, _)| self.compiled.devices[i].threshold_excess(&self.x_iter))
            .fold(0.0f64, f64::max);
        if worst_overshoot > opts.event_vtol && self.dt_cur > 2.0 * opts.dtmin {
            return self.reject(self.dt_cur / 2.0);
        }

        // --- Accept. ---
        self.compiled
            .commit_step(&self.x_iter, self.t_next, self.dt_cur, self.method);
        // A slope discontinuity at a source corner excites the trapezoidal
        // rule's undamped oscillatory mode in capacitor branch currents
        // (classic "trapezoidal ringing"); take one L-stable backward-Euler
        // step across every corner to kill it at the source.
        self.force_be = self.lands_on_corner;
        // Fire any armed transitions at the accepted point.
        let fired = self
            .compiled
            .fire_ptms(&self.x_iter, self.t_next, &opts.telemetry);
        self.stats.ptm_transitions += fired;
        if fired > 0 {
            self.force_be = true;
            self.dt = self.dt_cur.min(opts.dtmax / 16.0).max(opts.dtmin);
        } else if opts.lte_control {
            // LTE owns the growth policy; Newton difficulty still shrinks.
            self.dt = if iters > 12 {
                self.dt_cur * 0.6
            } else if lte_grow {
                self.dt_cur * 2.0
            } else {
                self.dt_cur
            };
        } else {
            // Iteration-count step control.
            self.dt = if iters <= 5 {
                self.dt_cur * 1.3
            } else if iters > 12 {
                self.dt_cur * 0.6
            } else {
                self.dt_cur
            };
        }

        self.recorder
            .record(self.t_next, &self.x_iter, &self.compiled);
        self.stats.steps_accepted += 1;
        if opts.telemetry.is_enabled() {
            opts.telemetry.histogram(names::H_TRAN_DT, self.dt_cur);
            opts.telemetry
                .histogram(names::H_TRAN_STEP_ITERS, iters as f64);
            // The controller proposes before the `dtmax` cap; a step
            // already at the cap has not grown.
            let next = self.dt.min(opts.dtmax);
            if next > self.dt_cur {
                opts.telemetry.counter(names::TRAN_DT_GROWTHS, 1);
            } else if next < self.dt_cur {
                opts.telemetry.counter(names::TRAN_DT_SHRINKS, 1);
            }
        }
        // The accepted iterate becomes `x` and the previous point joins the
        // LTE history; the buffer nothing keeps any more backs the next
        // attempt's iterate, so a steady-state step allocates nothing here.
        let prev = std::mem::replace(&mut self.x, std::mem::take(&mut self.x_iter));
        if self.force_be {
            // The accepted point sits on a discontinuity (source corner or
            // PTM transition): extrapolating through pre-discontinuity
            // points would mispredict, so restart the LTE history.
            self.hist.clear();
            self.x_iter = prev;
        } else {
            if self.hist.len() == 2 {
                self.x_iter = self.hist.remove(0).1;
            }
            self.hist.push((self.t, prev));
        }
        self.t = self.t_next;
        if let Err(err) = self.write_checkpoint(solver, l) {
            return self.finish(Err(err));
        }
        self.step_span = None;
        self.phase = LanePhase::StartStep;
    }

    /// Writes the periodic snapshot when one is due, after the state
    /// advanced.
    fn write_checkpoint(&self, solver: &impl LaneSolver, l: usize) -> Result<()> {
        let ckpt = self.ckpt;
        let every = ckpt.checkpoint_every;
        let due = every > 0 && self.stats.steps_accepted.is_multiple_of(every);
        let (Some(path), true) = (&ckpt.checkpoint_to, due) else {
            return Ok(());
        };
        let snap = TranSnapshot {
            t: self.t,
            dt: self.dt,
            force_be: self.force_be,
            x: self.x.clone(),
            hist: self.hist.clone(),
            stats: TranStats {
                solver: self.resumed_solver.merged(&solver.stats(l)),
                ..self.stats
            },
            times: self.recorder.times.clone(),
            node_data: self.recorder.node_data.clone(),
            branch_data: self.recorder.branch_data.clone(),
            ptm_resistance: self.recorder.ptm_resistance.clone(),
            devices: checkpoint::capture_devices(&self.compiled),
        };
        checkpoint::write_snapshot(path, &snap, self.fingerprint)?;
        self.opts.telemetry.counter(names::CHECKPOINT_WRITTEN, 1);
        Ok(())
    }

    /// Ends the run: closes the open step span, then the analysis span.
    fn finish(&mut self, result: Result<TranResult>) {
        self.step_span = None;
        self.span = None;
        self.phase = LanePhase::Done(Box::new(result));
    }
}

/// Quadratic Lagrange extrapolation through three points.
fn lagrange3(t0: f64, y0: f64, t1: f64, y1: f64, t2: f64, y2: f64, t: f64) -> f64 {
    let l0 = (t - t1) * (t - t2) / ((t0 - t1) * (t0 - t2));
    let l1 = (t - t0) * (t - t2) / ((t1 - t0) * (t1 - t2));
    let l2 = (t - t0) * (t - t1) / ((t2 - t0) * (t2 - t1));
    y0 * l0 + y1 * l1 + y2 * l2
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
