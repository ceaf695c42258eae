//! Simulation options.

use crate::matrix::LinearSolver;
use crate::{Result, SimError};
use sfet_numeric::fault::FaultPlan;
use sfet_numeric::integrate::Method;
use sfet_telemetry::Telemetry;

/// Tolerances and controls for DC and transient analysis.
///
/// The defaults suit the picosecond-scale standard-cell experiments of the
/// paper; PDN-scale runs typically widen `dtmax` and the step budget via
/// [`SimOptions::for_duration`].
///
/// # Example
///
/// ```
/// use sfet_sim::SimOptions;
///
/// let opts = SimOptions::default().with_dtmax(0.05e-12);
/// assert_eq!(opts.dtmax, 0.05e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SimOptions {
    /// Relative convergence tolerance on unknowns (SPICE `RELTOL`).
    pub reltol: f64,
    /// Absolute voltage tolerance \[V\] (SPICE `VNTOL`).
    pub vntol: f64,
    /// Absolute current tolerance \[A\] for branch unknowns (SPICE `ABSTOL`).
    pub abstol: f64,
    /// Maximum Newton iterations per solve point.
    pub max_newton_iter: usize,
    /// Largest allowed Newton voltage update per iteration \[V\]; positive
    /// and finite.
    pub max_newton_step: f64,
    /// Minimum time step \[s\]; a solve that still fails here aborts.
    pub dtmin: f64,
    /// Maximum time step \[s\]; bounds truncation error.
    pub dtmax: f64,
    /// Default integration method (backward Euler is always used for the
    /// first step and the step right after a PTM event).
    pub method: Method,
    /// Voltage window for PTM threshold-crossing refinement \[V\]: a step is
    /// rejected and bisected while the crossing overshoot exceeds this.
    pub event_vtol: f64,
    /// Shunt conductance added across nonlinear devices \[S\] (SPICE `GMIN`);
    /// non-negative and finite.
    pub gmin: f64,
    /// Hard cap on total attempted steps.
    pub max_steps: usize,
    /// Linear-solver backend for the MNA system of every analysis and
    /// batch lane. `None` (the default) picks one by system size, `Some`
    /// pins one at any size; see [`SimOptions::effective_solver`].
    pub solver: Option<LinearSolver>,
    /// Reuse the cached sparsity pattern and symbolic factorisation across
    /// Newton iterations and timesteps (sparse backend), and the factors
    /// themselves while the assembled values repeat bit for bit. Produces
    /// bitwise-identical results to fresh factorisation; disable only for
    /// solver debugging / regression comparison.
    pub reuse_factorization: bool,
    /// Enable local-truncation-error step control: steps whose solution
    /// deviates from a quadratic predictor by more than `lte_tol` are
    /// rejected and halved; smooth stretches grow the step toward `dtmax`.
    pub lte_control: bool,
    /// Voltage tolerance for LTE control \[V\].
    pub lte_tol: f64,
    /// Telemetry handle events are emitted through. Disabled by default;
    /// when disabled every instrumentation point is a no-op early return
    /// (verified allocation-free by `sfet-numeric`'s counting-allocator
    /// test). Note `SimOptions` equality compares only whether telemetry
    /// is enabled, not where it goes (see [`Telemetry`]'s `PartialEq`).
    pub telemetry: Telemetry,
    /// Fault-injection plan for resilience testing. `None` (the default)
    /// falls back to the process-wide `SFET_FAULT_PLAN` environment
    /// variable; set an explicit plan to scope injection to one run.
    pub fault: Option<FaultPlan>,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            reltol: 1e-4,
            vntol: 1e-7,
            abstol: 1e-12,
            max_newton_iter: 60,
            max_newton_step: 0.3,
            dtmin: 1e-18,
            dtmax: 0.25e-12,
            method: Method::Trapezoidal,
            event_vtol: 2e-3,
            gmin: 1e-12,
            max_steps: 2_000_000,
            solver: None,
            reuse_factorization: true,
            lte_control: false,
            lte_tol: 1e-3,
            telemetry: Telemetry::disabled(),
            fault: None,
        }
    }
}

impl SimOptions {
    /// Returns options scaled for a transient of duration `tstop`: `dtmax`
    /// set to `tstop / points`, with the step budget sized accordingly.
    ///
    /// # Example
    ///
    /// ```
    /// let o = sfet_sim::SimOptions::for_duration(100e-9, 2000);
    /// assert!((o.dtmax - 50e-12).abs() < 1e-15);
    /// ```
    pub fn for_duration(tstop: f64, points: usize) -> Self {
        let points = points.max(16);
        SimOptions {
            dtmax: tstop / points as f64,
            max_steps: points.saturating_mul(1000).max(2_000_000),
            ..Default::default()
        }
    }

    /// Builder-style override of `dtmax`.
    pub fn with_dtmax(mut self, dtmax: f64) -> Self {
        self.dtmax = dtmax;
        self
    }

    /// Builder-style override of the integration method.
    pub fn with_method(mut self, method: Method) -> Self {
        self.method = method;
        self
    }

    /// Builder-style pin of the linear-solver backend at every system
    /// size.
    pub fn with_solver(mut self, solver: LinearSolver) -> Self {
        self.solver = Some(solver);
        self
    }

    /// Builder-style override of factorisation reuse.
    pub fn with_factor_reuse(mut self, reuse: bool) -> Self {
        self.reuse_factorization = reuse;
        self
    }

    /// Builder-style enabling of LTE step control at the given voltage
    /// tolerance.
    pub fn with_lte(mut self, lte_tol: f64) -> Self {
        self.lte_control = true;
        self.lte_tol = lte_tol;
        self
    }

    /// Builder-style attachment of a telemetry handle: every analysis run
    /// with these options emits spans, counters, and histograms to it.
    ///
    /// # Example
    ///
    /// ```
    /// use sfet_sim::SimOptions;
    /// use sfet_telemetry::{SharedAggregator, Telemetry};
    ///
    /// let agg = SharedAggregator::new();
    /// let opts = SimOptions::default().with_telemetry(Telemetry::new(agg.clone()));
    /// assert!(opts.telemetry.is_enabled());
    /// ```
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Builder-style attachment of a fault-injection plan, overriding any
    /// `SFET_FAULT_PLAN` environment setting for this run.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault = Some(plan);
        self
    }

    /// Resolves the backend an analysis of `n` unknowns uses: the pinned
    /// [`solver`](Self::solver), or else the size dispatch.
    ///
    /// | `solver` | `n` < 64 | 64 ≤ `n` < 4096 | `n` ≥ 4096 |
    /// |----------|----------|-----------------|------------|
    /// | `None` | `Dense` | `Sparse` | `Iterative` |
    /// | `Some(b)` | `b` | `b` | `b` |
    ///
    /// The thresholds are [`LinearSolver::AUTO_SPARSE_THRESHOLD`] and
    /// [`LinearSolver::AUTO_ITERATIVE_THRESHOLD`].
    ///
    /// # Example
    ///
    /// ```
    /// use sfet_sim::{LinearSolver, SimOptions};
    ///
    /// let auto = SimOptions::default();
    /// assert_eq!(auto.effective_solver(8), LinearSolver::Dense);
    /// assert_eq!(auto.effective_solver(294), LinearSolver::Sparse);
    /// let pinned = SimOptions::default().with_solver(LinearSolver::Iterative);
    /// assert_eq!(pinned.effective_solver(8), LinearSolver::Iterative);
    /// ```
    pub fn effective_solver(&self, n: usize) -> LinearSolver {
        match self.solver {
            Some(pinned) => pinned,
            None if n < LinearSolver::AUTO_SPARSE_THRESHOLD => LinearSolver::Dense,
            None if n < LinearSolver::AUTO_ITERATIVE_THRESHOLD => LinearSolver::Sparse,
            None => LinearSolver::Iterative,
        }
    }

    /// Derives a *relaxed* copy of these options for retry attempt
    /// `attempt` (0 = the original options, returned unchanged). Each
    /// escalation level doubles the Newton iteration budget (capped at
    /// 400), deepens `dtmin` by 16×, and raises `gmin` by 10× (capped at
    /// 1 µS) — the standard SPICE recovery ladder for a solve that failed
    /// on tolerance rather than on modelling.
    ///
    /// Used by fault-tolerant sweeps to give a failed task progressively
    /// better odds without loosening the options of tasks that succeed
    /// first try (which would perturb their results).
    pub fn escalated(&self, attempt: usize) -> Self {
        let mut opts = self.clone();
        for _ in 0..attempt {
            opts.max_newton_iter = (opts.max_newton_iter * 2).min(400);
            opts.dtmin = (opts.dtmin / 16.0).max(f64::MIN_POSITIVE);
            opts.gmin = (opts.gmin * 10.0).min(1e-6);
        }
        opts
    }

    /// Validates option consistency.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidOptions`] describing the violated constraint.
    pub fn validate(&self) -> Result<()> {
        if !(self.reltol > 0.0 && self.reltol < 1.0) {
            return Err(SimError::InvalidOptions("reltol must be in (0, 1)".into()));
        }
        if !(self.vntol > 0.0 && self.abstol > 0.0) {
            return Err(SimError::InvalidOptions(
                "vntol and abstol must be positive".into(),
            ));
        }
        if !(self.dtmin > 0.0 && self.dtmax > self.dtmin) {
            return Err(SimError::InvalidOptions("need 0 < dtmin < dtmax".into()));
        }
        if self.max_newton_iter < 5 {
            return Err(SimError::InvalidOptions(
                "max_newton_iter must be at least 5".into(),
            ));
        }
        if !(self.max_newton_step > 0.0 && self.max_newton_step.is_finite()) {
            return Err(SimError::InvalidOptions(
                "max_newton_step must be positive and finite".into(),
            ));
        }
        if !(self.gmin >= 0.0 && self.gmin.is_finite()) {
            return Err(SimError::InvalidOptions(
                "gmin must be non-negative and finite".into(),
            ));
        }
        if self.event_vtol <= 0.0 || self.event_vtol.is_nan() {
            return Err(SimError::InvalidOptions(
                "event_vtol must be positive".into(),
            ));
        }
        if self.lte_control && (self.lte_tol <= 0.0 || self.lte_tol.is_nan()) {
            return Err(SimError::InvalidOptions("lte_tol must be positive".into()));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_validates() {
        SimOptions::default().validate().unwrap();
    }

    #[test]
    fn bad_tolerances_rejected() {
        let o = SimOptions {
            reltol: 0.0,
            ..Default::default()
        };
        assert!(o.validate().is_err());
        let o = SimOptions {
            dtmin: 1e-12,
            dtmax: 1e-13,
            ..Default::default()
        };
        assert!(o.validate().is_err());
        for gmin in [-1e-3, f64::NAN, f64::INFINITY] {
            let o = SimOptions {
                gmin,
                ..Default::default()
            };
            assert!(o.validate().is_err(), "gmin = {gmin}");
        }
        for max_newton_step in [0.0, -0.3, f64::NAN, f64::INFINITY] {
            let o = SimOptions {
                max_newton_step,
                ..Default::default()
            };
            assert!(o.validate().is_err(), "max_newton_step = {max_newton_step}");
        }
        let o = SimOptions {
            gmin: 0.0,
            ..Default::default()
        };
        o.validate().unwrap();
    }

    #[test]
    fn for_duration_scales() {
        let o = SimOptions::for_duration(1e-9, 1000);
        assert!((o.dtmax - 1e-12).abs() < 1e-18);
        o.validate().unwrap();
    }

    #[test]
    fn builder_overrides() {
        let o = SimOptions::default().with_method(Method::BackwardEuler);
        assert_eq!(o.method, Method::BackwardEuler);
        let o = SimOptions::default().with_fault_plan(FaultPlan::new().with_crash(3));
        assert!(o.fault.as_ref().unwrap().crash_at(3));
    }

    #[test]
    fn effective_solver_applies_policy() {
        let auto = SimOptions::default();
        assert_eq!(auto.effective_solver(16), LinearSolver::Dense);
        assert_eq!(
            auto.effective_solver(LinearSolver::AUTO_SPARSE_THRESHOLD),
            LinearSolver::Sparse
        );
        assert_eq!(
            auto.effective_solver(LinearSolver::AUTO_ITERATIVE_THRESHOLD),
            LinearSolver::Iterative
        );
        let pinned = SimOptions::default().with_solver(LinearSolver::Dense);
        assert_eq!(pinned.solver, Some(LinearSolver::Dense));
        assert_eq!(pinned.effective_solver(1_000_000), LinearSolver::Dense);
    }

    #[test]
    fn escalation_relaxes_monotonically_and_stays_valid() {
        let base = SimOptions::default();
        assert_eq!(base.escalated(0), base);
        let mut prev = base.clone();
        for attempt in 1..=6 {
            let o = base.escalated(attempt);
            o.validate().unwrap();
            assert!(o.max_newton_iter >= prev.max_newton_iter);
            assert!(o.dtmin <= prev.dtmin);
            assert!(o.gmin >= prev.gmin);
            prev = o;
        }
        // Caps hold even for absurd attempt counts.
        let extreme = base.escalated(100);
        assert_eq!(extreme.max_newton_iter, 400);
        assert!(extreme.gmin <= 1e-6);
        assert!(extreme.dtmin > 0.0);
        extreme.validate().unwrap();
    }
}
