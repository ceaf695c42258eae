//! MNA matrix backends with reusable factorisation.
//!
//! Cell-level circuits (tens of unknowns) factor fastest with the dense
//! LU; PDN-scale systems (hundreds of unknowns and up, >95 % structurally
//! zero) with the sparse Gilbert–Peierls LU; full-chip grids past a few
//! thousand unknowns with GMRES. Unless
//! [`SimOptions::solver`](crate::SimOptions::solver) pins one,
//! [`SimOptions::effective_solver`](crate::SimOptions::effective_solver)
//! picks one by system size, and all three share the same stamping
//! interface, so device code is backend-agnostic.
//!
//! The backends are built for the Newton hot loop, where the same matrix
//! structure is assembled and solved thousands of times:
//!
//! * **dense** — stamps accumulate into a persistent [`DenseMatrix`], which
//!   is factorised *in place* into a persistent [`LuFactors`] workspace and
//!   solved in place, so one Newton iteration performs zero heap
//!   allocation;
//! * **sparse** — stamps go through a pattern-caching [`CscAssembler`]
//!   (stamp sequence compiled once into a fixed CSC pattern plus scatter
//!   map), and the factors live in a [`SparseFactorCache`]: a matrix
//!   whose values repeat bit for bit solves with the cached factors, a
//!   changed one runs the numeric-only refactorisation along the cached
//!   symbolic analysis, and a refactorisation whose frozen pivot degrades
//!   past threshold falls back to a full, re-pivoting factorisation. A
//!   caller that knows its system repeats (a linear circuit's transient
//!   step at an unchanged step size, method and PTM resistances)
//!   [holds](MnaMatrix::hold_factors) the factors and skips assembly
//!   altogether;
//! * **iterative** — ILU(0)-preconditioned GMRES over the same compiled
//!   pattern, with a [`SparseFactorCache`] as the fallback for stagnated
//!   solves. A caller that knows its system repeats holds the assembled
//!   matrix and its ILU(0) the same way.

use std::time::Instant;

use sfet_numeric::dense::{DenseMatrix, LuFactors};
use sfet_numeric::krylov::{gmres, GmresOptions, GmresWorkspace, Ilu0};
use sfet_numeric::sparse::{CscAssembler, FactorReport, FactorStep, SparseFactorCache};
use sfet_numeric::{NumericError, Result};

/// Which linear-solver backend the MNA engine uses.
///
/// [`SimOptions::solver`](crate::SimOptions::solver) pins one at any
/// system size. Left unset, the size dispatch of
/// [`SimOptions::effective_solver`](crate::SimOptions::effective_solver)
/// picks dense LU below
/// [`AUTO_SPARSE_THRESHOLD`](Self::AUTO_SPARSE_THRESHOLD) unknowns, sparse
/// LU below [`AUTO_ITERATIVE_THRESHOLD`](Self::AUTO_ITERATIVE_THRESHOLD),
/// and GMRES from there.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinearSolver {
    /// Dense LU with partial pivoting — fastest for small systems.
    Dense,
    /// Sparse left-looking (Gilbert–Peierls) LU — scales to PDN meshes,
    /// and reuses its factors while the assembled values repeat.
    Sparse,
    /// Matrix-free restarted GMRES(m) with an ILU(0) preconditioner over
    /// the compiled CSC pattern — the full-chip path for grids where
    /// direct factorisation stops fitting. Falls back to a cached sparse
    /// LU when GMRES stagnates (counted in
    /// [`SolverStats::gmres_fallbacks`]).
    Iterative,
}

impl LinearSolver {
    /// System size at which the size dispatch moves from dense to sparse
    /// LU.
    ///
    /// Measured on transients (docs/SOLVERS.md): sparse LU with factor
    /// reuse runs 16–21 % slower than dense on the 10-unknown nonlinear
    /// power-gate wake, and 1.3–2.1× faster on 24–56-unknown linear
    /// grids. 64 keeps the paper's cell-level circuits well clear of the
    /// cut-off on the dense side and 12×12-tile droop maps (294 unknowns)
    /// on the sparse side.
    pub const AUTO_SPARSE_THRESHOLD: usize = 64;

    /// System size at which the size dispatch switches to GMRES.
    ///
    /// Conservative: below it sparse LU beats GMRES+ILU(0) wall-clock and
    /// its factor memory is still negligible. On PDN grids sparse LU with
    /// factor reuse still wins at 4 614 unknowns (docs/SOLVERS.md), but
    /// its fill grows faster than the unknown count while ILU(0) never
    /// fills, and only the iterative path reaches 10⁵ unknowns.
    pub const AUTO_ITERATIVE_THRESHOLD: usize = 4096;
}

impl std::fmt::Display for LinearSolver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            LinearSolver::Dense => "dense",
            LinearSolver::Sparse => "sparse",
            LinearSolver::Iterative => "gmres",
        })
    }
}

/// Linear-solver telemetry accumulated over an analysis.
///
/// Equality ignores [`solve_time_ns`](SolverStats::solve_time_ns) so that
/// two deterministic runs compare equal even though their wall-clock
/// timings differ.
#[derive(Debug, Clone, Copy, Default)]
pub struct SolverStats {
    /// Full factorisations (symbolic analysis + pivot search + numeric).
    /// The dense backend counts every in-place factorisation here, since
    /// dense LU always re-pivots.
    pub full_factorizations: u64,
    /// Numeric-only refactorisations that reused the cached symbolic
    /// analysis: on the sparse backend along the frozen pivot order, on
    /// the iterative backend as an ILU(0) refresh over the same pattern.
    pub refactorizations: u64,
    /// Linear solves (forward/back substitutions) actually performed. On
    /// the sparse backend `solves - full_factorizations - refactorizations`
    /// counts the solves that reused the factors of an unchanged matrix,
    /// whether the factor cache found the assembled values bit-equal or a
    /// linear transient held the factors without assembling (the two
    /// count alike). On the iterative backend it counts the solves that
    /// ran GMRES with a held ILU(0), without refreshing it. A transient of
    /// a linear circuit solves once per step attempt and repeats its
    /// Newton update against that solve, so there `solves` counts the step
    /// attempts that reached a solve, not Newton iterations.
    pub solves: u64,
    /// Sparse stamp-pattern compilations: the initial one plus one per
    /// stamp-sequence change (e.g. DC gmin shunts toggling).
    pub pattern_rebuilds: u64,
    /// Refactorisations rejected for pivot degradation and retried as
    /// full, re-pivoting factorisations.
    pub pivot_fallbacks: u64,
    /// Stored factor entries (L + U) of the latest factorisation — the
    /// fill-in diagnostic. The dense backend reports `n * n`; the
    /// iterative backend reports the ILU(0) factor pattern size.
    pub factor_nnz: usize,
    /// GMRES inner (Arnoldi) iterations across all solves (iterative
    /// backend only). Deterministic, so included in equality.
    pub gmres_iterations: u64,
    /// GMRES restart cycles across all solves (iterative backend only).
    pub gmres_restarts: u64,
    /// Solves where GMRES stagnated or exhausted its budget and the
    /// direct sparse-LU fallback produced the answer.
    pub gmres_fallbacks: u64,
    /// Cumulative wall-clock time spent assembling factors and solving
    /// \[ns\]. Excluded from equality comparisons.
    pub solve_time_ns: u64,
}

impl PartialEq for SolverStats {
    fn eq(&self, other: &Self) -> bool {
        self.full_factorizations == other.full_factorizations
            && self.refactorizations == other.refactorizations
            && self.solves == other.solves
            && self.pattern_rebuilds == other.pattern_rebuilds
            && self.pivot_fallbacks == other.pivot_fallbacks
            && self.factor_nnz == other.factor_nnz
            && self.gmres_iterations == other.gmres_iterations
            && self.gmres_restarts == other.gmres_restarts
            && self.gmres_fallbacks == other.gmres_fallbacks
    }
}

impl Eq for SolverStats {}

impl SolverStats {
    /// Fraction of factorisations that took the cheap numeric-only reuse
    /// path; `0.0` when nothing was factorised.
    pub fn reuse_ratio(&self) -> f64 {
        let total = self.full_factorizations + self.refactorizations;
        if total == 0 {
            0.0
        } else {
            self.refactorizations as f64 / total as f64
        }
    }

    /// Counts a sparse factorisation's pivot fallback (even when the full
    /// factorisation after it failed) and passes its step on.
    fn count_factor(&mut self, report: FactorReport) -> Result<FactorStep> {
        if report.pivot_fallback {
            self.pivot_fallbacks += 1;
        }
        report.step
    }

    /// Combines the stats of two run segments (e.g. a checkpointed prefix
    /// and its resumed continuation): cumulative counters add, while
    /// `factor_nnz` — a latest-factorisation diagnostic — comes from
    /// `later` unless that segment never factorised.
    pub fn merged(&self, later: &SolverStats) -> SolverStats {
        SolverStats {
            full_factorizations: self.full_factorizations + later.full_factorizations,
            refactorizations: self.refactorizations + later.refactorizations,
            solves: self.solves + later.solves,
            pattern_rebuilds: self.pattern_rebuilds + later.pattern_rebuilds,
            pivot_fallbacks: self.pivot_fallbacks + later.pivot_fallbacks,
            factor_nnz: if later.factor_nnz != 0 {
                later.factor_nnz
            } else {
                self.factor_nnz
            },
            gmres_iterations: self.gmres_iterations + later.gmres_iterations,
            gmres_restarts: self.gmres_restarts + later.gmres_restarts,
            gmres_fallbacks: self.gmres_fallbacks + later.gmres_fallbacks,
            solve_time_ns: self.solve_time_ns + later.solve_time_ns,
        }
    }
}

/// An MNA system matrix that devices stamp into.
#[derive(Debug, Clone)]
pub(crate) struct MnaMatrix {
    backend: Backend,
    /// Allow the iterative backend to refresh its ILU(0) numerically
    /// across solves and to hold it (the sparse caches carry their own
    /// flag).
    reuse: bool,
    /// The next [`factor_solve`](MnaMatrix::factor_solve) re-solves with
    /// the held factors (set by [`hold_factors`](MnaMatrix::hold_factors)).
    held: bool,
    stats: SolverStats,
}

#[derive(Debug, Clone)]
enum Backend {
    Dense {
        m: DenseMatrix,
        factors: LuFactors,
        scratch: Vec<f64>,
    },
    Sparse {
        asm: Box<CscAssembler>,
        lu: SparseFactorCache,
        scratch: Vec<f64>,
    },
    Iterative {
        asm: Box<CscAssembler>,
        /// ILU(0) preconditioner; numeric-only refactored while the
        /// assembler pattern epoch is unchanged.
        ilu: Option<Ilu0>,
        ilu_epoch: u64,
        /// Direct sparse-LU fallback for stagnated GMRES solves.
        lu: SparseFactorCache,
        ws: Box<GmresWorkspace>,
        /// Solution buffer (GMRES starts from x = 0 for determinism).
        x: Vec<f64>,
        scratch: Vec<f64>,
        /// The last solve succeeded, so `ilu` holds the ILU(0) of the
        /// matrix `asm` holds.
        solved: bool,
    },
}

/// Restart length for the MNA GMRES path. 64 keeps the Arnoldi basis
/// under ~50 MB even at 10⁵ unknowns while converging typical
/// diffusion-dominated PDN systems within one or two cycles.
const GMRES_RESTART: usize = 64;

impl MnaMatrix {
    /// Creates an `n x n` matrix for the chosen backend. `reuse` enables
    /// factor reuse and numeric-only refactorisation on the sparse and
    /// iterative backends (dense is always in-place regardless).
    pub(crate) fn new(backend: LinearSolver, n: usize, reuse: bool) -> Self {
        let backend = match backend {
            LinearSolver::Dense => Backend::Dense {
                m: DenseMatrix::zeros(n, n),
                factors: LuFactors::workspace(n),
                scratch: Vec::with_capacity(n),
            },
            LinearSolver::Sparse => Backend::Sparse {
                asm: Box::new(CscAssembler::new(n, n)),
                lu: SparseFactorCache::new(reuse),
                scratch: Vec::with_capacity(n),
            },
            LinearSolver::Iterative => Backend::Iterative {
                asm: Box::new(CscAssembler::new(n, n)),
                ilu: None,
                ilu_epoch: 0,
                lu: SparseFactorCache::new(reuse),
                ws: Box::new(GmresWorkspace::new(n, GMRES_RESTART)),
                x: vec![0.0; n],
                scratch: Vec::with_capacity(n),
                solved: false,
            },
        };
        MnaMatrix {
            backend,
            reuse,
            held: false,
            stats: SolverStats::default(),
        }
    }

    /// Begins a fresh assembly round, keeping allocations and any cached
    /// pattern / factors.
    pub(crate) fn clear(&mut self) {
        match &mut self.backend {
            Backend::Dense { m, .. } => m.clear(),
            Backend::Sparse { asm, .. } | Backend::Iterative { asm, .. } => asm.begin(),
        }
    }

    /// Accumulates `v` at `(r, c)` — the stamp primitive. Always inlined,
    /// like `<MnaMatrix as Stamp>::add`, which says why.
    #[inline(always)]
    pub(crate) fn add(&mut self, r: usize, c: usize, v: f64) {
        match &mut self.backend {
            Backend::Dense { m, .. } => m.add(r, c, v),
            Backend::Sparse { asm, .. } | Backend::Iterative { asm, .. } => asm.add(r, c, v),
        }
    }

    /// Holds the factors of the last successful
    /// [`factor_solve`](MnaMatrix::factor_solve) for the next one, if the
    /// matrix has them, and returns whether it did. A held solve skips
    /// finishing an assembly and refreshing factors. The caller guarantees
    /// that the system it would have assembled repeats, bit for bit, the
    /// one the factors came from, and assembles as usual when this returns
    /// `false`.
    ///
    /// With factor reuse on, and after a successful solve:
    ///
    /// * the sparse backend holds its LU factors, exactly when its
    ///   [`SparseFactorCache`] would take the reuse rung for bit-equal
    ///   values, and counts what that rung counts: one solve;
    /// * the iterative backend holds the assembled matrix and its ILU(0),
    ///   which a refresh would recompute bit for bit, and runs GMRES from
    ///   x = 0 on them, counting the solve and its GMRES iterations.
    ///
    /// Dense LU holds nothing: it counts one factorisation per solve.
    pub(crate) fn hold_factors(&mut self) -> bool {
        self.held = match &self.backend {
            Backend::Dense { .. } => false,
            Backend::Sparse { lu, .. } => lu.holds_factors(),
            Backend::Iterative { solved, .. } => self.reuse && *solved,
        };
        self.held
    }

    /// Factorises the assembled matrix and solves `A x = rhs` in place:
    /// `rhs` is overwritten with the solution. This is the Newton hot
    /// path — steady-state calls perform no heap allocation on the dense
    /// backend and reuse the cached pattern, symbolic analysis and (for
    /// unchanged values) factors on the sparse one.
    ///
    /// # Errors
    ///
    /// Propagates singular-matrix and dimension errors from the backend.
    pub(crate) fn factor_solve(&mut self, rhs: &mut [f64]) -> Result<()> {
        let t0 = Instant::now();
        let out = self.factor_solve_inner(rhs);
        self.stats.solve_time_ns += t0.elapsed().as_nanos() as u64;
        out
    }

    fn factor_solve_inner(&mut self, rhs: &mut [f64]) -> Result<()> {
        let held = std::mem::take(&mut self.held);
        match &mut self.backend {
            Backend::Dense {
                m,
                factors,
                scratch,
            } => {
                factors.refactor(m)?;
                self.stats.full_factorizations += 1;
                self.stats.factor_nnz = m.rows() * m.cols();
                factors.solve_in_place(rhs, scratch)?;
            }
            Backend::Sparse { asm, lu, scratch } => {
                if !held {
                    asm.finish();
                    let epoch = asm.epoch();
                    let a = asm.matrix().expect("finish compiles a pattern");
                    self.stats.pattern_rebuilds = epoch;
                    match self.stats.count_factor(lu.factor(a, epoch))? {
                        FactorStep::Full => self.stats.full_factorizations += 1,
                        FactorStep::Refactored => self.stats.refactorizations += 1,
                        FactorStep::Reused => {}
                    }
                    self.stats.factor_nnz = lu.factor_nnz();
                }
                lu.solve_in_place(rhs, scratch)?;
            }
            Backend::Iterative {
                asm,
                ilu,
                ilu_epoch,
                lu,
                ws,
                x,
                scratch,
                solved,
            } => {
                *solved = false;
                if !held {
                    asm.finish();
                    let epoch = asm.epoch();
                    let a = asm.matrix().expect("finish compiles a pattern");
                    self.stats.pattern_rebuilds = epoch;
                    // ILU(0) preconditioner: numeric-only refresh while the
                    // pattern epoch is unchanged (the Newton hot loop), full
                    // symbolic + numeric factorisation otherwise.
                    let mut refreshed = false;
                    if self.reuse && *ilu_epoch == epoch {
                        if let Some(pre) = ilu.as_mut() {
                            if pre.refactor(a).is_ok() {
                                refreshed = true;
                            }
                        }
                    }
                    if refreshed {
                        self.stats.refactorizations += 1;
                    } else {
                        *ilu = Some(Ilu0::factor(a)?);
                        *ilu_epoch = epoch;
                        self.stats.full_factorizations += 1;
                    }
                }
                let epoch = asm.epoch();
                let a = asm.matrix().expect("finish compiles a pattern");
                let pre = ilu.as_ref().expect("factorised above or held");
                self.stats.factor_nnz = pre.factor_nnz();
                // GMRES from x = 0: deterministic regardless of solve
                // history, and the convergence test is on the true
                // residual (right preconditioning).
                x.iter_mut().for_each(|v| *v = 0.0);
                x.resize(rhs.len(), 0.0);
                let gopts = GmresOptions::default();
                match gmres(a, pre, rhs, x, &gopts, ws) {
                    Ok(st) => {
                        self.stats.gmres_iterations += st.iterations;
                        self.stats.gmres_restarts += st.restarts;
                        rhs.copy_from_slice(x);
                    }
                    Err(NumericError::NonConvergence { iterations, .. }) => {
                        // Stagnation / budget exhaustion: the answer comes
                        // from a cached direct sparse factorisation, so a
                        // hard system degrades to the LU path instead of
                        // failing the analysis.
                        self.stats.gmres_iterations += iterations as u64;
                        self.stats.gmres_fallbacks += 1;
                        self.stats.count_factor(lu.factor(a, epoch))?;
                        lu.solve_in_place(rhs, scratch)?;
                    }
                    Err(e) => return Err(e),
                }
                *solved = true;
            }
        }
        self.stats.solves += 1;
        Ok(())
    }

    /// Accumulated solver telemetry.
    pub(crate) fn stats(&self) -> SolverStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stamp_divider(m: &mut MnaMatrix) {
        // 2-unknown resistive divider MNA: V source 2V via branch current.
        // [g, -g, ...] — build: node0 = source node, unknown1 = branch.
        m.add(0, 0, 1e-3); // 1k to ground at node 0
        m.add(0, 1, 1.0);
        m.add(1, 0, 1.0);
    }

    fn solve_once(m: &mut MnaMatrix) -> Vec<f64> {
        let mut rhs = vec![0.0, 2.0];
        m.factor_solve(&mut rhs).unwrap();
        rhs
    }

    #[test]
    fn backends_agree() {
        let mut d = MnaMatrix::new(LinearSolver::Dense, 2, true);
        let mut s = MnaMatrix::new(LinearSolver::Sparse, 2, true);
        let mut i = MnaMatrix::new(LinearSolver::Iterative, 2, true);
        stamp_divider(&mut d);
        stamp_divider(&mut s);
        stamp_divider(&mut i);
        let xd = solve_once(&mut d);
        let xs = solve_once(&mut s);
        let xi = solve_once(&mut i);
        for (a, b) in xd.iter().zip(&xs) {
            assert!((a - b).abs() < 1e-12);
        }
        for (a, b) in xd.iter().zip(&xi) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
        assert!((xd[0] - 2.0).abs() < 1e-12);
    }

    /// The iterative backend reuses the ILU(0) analysis across same-pattern
    /// solves and reports deterministic GMRES counters.
    #[test]
    fn iterative_reuses_and_counts() {
        let run = || {
            let mut m = MnaMatrix::new(LinearSolver::Iterative, 2, true);
            for k in 0..4 {
                m.clear();
                m.add(0, 0, 1e-3 + k as f64 * 1e-4);
                m.add(0, 1, 1.0);
                m.add(1, 0, 1.0);
                let mut rhs = vec![0.0, 2.0];
                m.factor_solve(&mut rhs).unwrap();
                assert!((rhs[0] - 2.0).abs() < 1e-9);
            }
            m.stats()
        };
        let st = run();
        assert_eq!(st.solves, 4);
        assert_eq!(st.full_factorizations, 1, "one ILU(0) symbolic analysis");
        assert_eq!(st.refactorizations, 3, "the rest are numeric-only");
        assert!(st.gmres_iterations > 0);
        assert_eq!(st.gmres_fallbacks, 0, "well-conditioned: no LU fallback");
        assert_eq!(st, run(), "counters are deterministic");
    }

    /// A non-finite right-hand side must surface as an error from the
    /// iterative backend, never propagate NaN into the solution vector.
    #[test]
    fn iterative_nan_rhs_is_error_not_poison() {
        let mut m = MnaMatrix::new(LinearSolver::Iterative, 2, true);
        stamp_divider(&mut m);
        let mut rhs = vec![f64::NAN, 2.0];
        assert!(matches!(
            m.factor_solve(&mut rhs),
            Err(NumericError::NonFinite { .. })
        ));
    }

    /// The backend each `solver` value resolves to on both sides of both
    /// size thresholds: `None` dispatches by size, `Some` pins.
    #[test]
    fn solver_policy_resolution() {
        use crate::SimOptions;
        use LinearSolver::{Dense as D, Iterative as I, Sparse as S};
        let sp = LinearSolver::AUTO_SPARSE_THRESHOLD;
        let it = LinearSolver::AUTO_ITERATIVE_THRESHOLD;
        assert!(sp < it);
        let sizes = [2, sp - 1, sp, it - 1, it, 2 * it];
        // One row per `solver` value: the backend at each size.
        let table = [
            (None, [D, D, S, S, I, I]),
            (Some(D), [D, D, D, D, D, D]),
            (Some(S), [S, S, S, S, S, S]),
            (Some(I), [I, I, I, I, I, I]),
        ];
        for (solver, expect) in table {
            let opts = SimOptions {
                solver,
                ..SimOptions::default()
            };
            for (n, want) in sizes.into_iter().zip(expect) {
                assert_eq!(
                    opts.effective_solver(n),
                    want,
                    "solver {solver:?} at n = {n}"
                );
            }
        }
        assert_eq!(SimOptions::default().solver, None);
    }

    #[test]
    fn clear_resets_both() {
        for backend in [LinearSolver::Dense, LinearSolver::Sparse] {
            let mut m = MnaMatrix::new(backend, 2, true);
            m.add(0, 0, 1.0);
            m.add(1, 1, 1.0);
            m.clear();
            m.add(0, 0, 2.0);
            m.add(1, 1, 2.0);
            let mut rhs = vec![2.0, 2.0];
            m.factor_solve(&mut rhs).unwrap();
            assert!((rhs[0] - 1.0).abs() < 1e-12, "{backend}");
        }
    }

    #[test]
    fn sparse_reuses_pattern_and_factors() {
        let mut m = MnaMatrix::new(LinearSolver::Sparse, 2, true);
        for k in 0..5 {
            m.clear();
            m.add(0, 0, 1e-3 + k as f64 * 1e-4);
            m.add(0, 1, 1.0);
            m.add(1, 0, 1.0);
            let mut rhs = vec![0.0, 2.0];
            m.factor_solve(&mut rhs).unwrap();
            assert!((rhs[0] - 2.0).abs() < 1e-12);
        }
        let st = m.stats();
        assert_eq!(st.solves, 5);
        assert_eq!(st.full_factorizations, 1, "only the first solve factors");
        assert_eq!(st.refactorizations, 4, "the rest reuse the analysis");
        assert_eq!(st.pattern_rebuilds, 1, "one pattern compile");
        assert!(st.reuse_ratio() > 0.79);
    }

    #[test]
    fn sparse_reuse_matches_no_reuse_bitwise() {
        let solve_seq = |reuse: bool| -> Vec<u64> {
            let mut m = MnaMatrix::new(LinearSolver::Sparse, 3, reuse);
            let mut out = Vec::new();
            for k in 0..6 {
                let s = 1.0 + 0.13 * k as f64;
                m.clear();
                m.add(0, 0, 2.0 * s);
                m.add(0, 1, -1.0);
                m.add(1, 0, -1.0);
                m.add(1, 1, 2.5 * s);
                m.add(1, 2, -0.5);
                m.add(2, 1, -0.5);
                m.add(2, 2, 3.0 * s);
                let mut rhs = vec![1.0, -0.5, 0.25];
                m.factor_solve(&mut rhs).unwrap();
                out.extend(rhs.iter().map(|v| v.to_bits()));
            }
            out
        };
        assert_eq!(solve_seq(true), solve_seq(false));
    }

    /// Unchanged values (a linear circuit at a fixed step) solve with the
    /// cached factors: no numeric work, and bitwise the same answers as
    /// factoring every time.
    #[test]
    fn sparse_unchanged_values_reuse_factors() {
        let solve_seq = |reuse: bool| -> (Vec<u64>, SolverStats) {
            let mut m = MnaMatrix::new(LinearSolver::Sparse, 2, reuse);
            let mut out = Vec::new();
            for k in 0..6 {
                // Two distinct matrices, each assembled three times running.
                let g = if k < 3 { 1e-3 } else { 2e-3 };
                m.clear();
                m.add(0, 0, g);
                m.add(0, 1, 1.0);
                m.add(1, 0, 1.0);
                let mut rhs = vec![0.5 * k as f64, 2.0];
                m.factor_solve(&mut rhs).unwrap();
                out.extend(rhs.iter().map(|v| v.to_bits()));
            }
            (out, m.stats())
        };
        let (reused, st) = solve_seq(true);
        let (fresh, st_fresh) = solve_seq(false);
        assert_eq!(reused, fresh);
        assert_eq!(st.solves, 6);
        assert_eq!(st.full_factorizations, 1);
        assert_eq!(st.refactorizations, 1, "only the value change refactors");
        assert_eq!(st_fresh.full_factorizations, 6);
        assert_eq!(st.factor_nnz, st_fresh.factor_nnz);
    }

    /// A re-solve with held factors gives the bits and the counters of
    /// assembling the same matrix again, which takes the reuse rung.
    #[test]
    fn held_factors_solve_like_the_reuse_rung() {
        let stamp = |m: &mut MnaMatrix| {
            m.clear();
            m.add(0, 0, 2.0);
            m.add(0, 1, -1.0);
            m.add(1, 0, -1.0);
            m.add(1, 1, 3.0);
        };
        let run = |held: bool| -> (Vec<u64>, SolverStats) {
            let mut m = MnaMatrix::new(LinearSolver::Sparse, 2, true);
            stamp(&mut m);
            let mut b1 = vec![1.0, 0.5];
            m.factor_solve(&mut b1).unwrap();
            if held {
                assert!(m.hold_factors());
            } else {
                stamp(&mut m);
            }
            let mut b2 = vec![-0.25, 2.0];
            m.factor_solve(&mut b2).unwrap();
            let bits = b1.iter().chain(&b2).map(|v| v.to_bits()).collect();
            (bits, m.stats())
        };
        let (held, st) = run(true);
        let (assembled, st_assembled) = run(false);
        assert_eq!(held, assembled);
        assert_eq!(st, st_assembled);
        assert_eq!((st.solves, st.full_factorizations), (2, 1), "{st:?}");
        assert_eq!(st.refactorizations, 0);
    }

    /// An iterative re-solve with the held matrix and ILU(0) gives the bits
    /// of assembling the same matrix again, minus that round's ILU(0)
    /// refresh.
    #[test]
    fn held_ilu_solves_like_a_refresh() {
        let run = |held: bool| -> (Vec<u64>, SolverStats) {
            let mut m = MnaMatrix::new(LinearSolver::Iterative, 2, true);
            stamp_divider(&mut m);
            let mut b1 = vec![1.0, 0.5];
            m.factor_solve(&mut b1).unwrap();
            if held {
                assert!(m.hold_factors());
            } else {
                m.clear();
                stamp_divider(&mut m);
            }
            let mut b2 = vec![-0.25, 2.0];
            m.factor_solve(&mut b2).unwrap();
            let bits = b1.iter().chain(&b2).map(|v| v.to_bits()).collect();
            (bits, m.stats())
        };
        let (held, st) = run(true);
        let (assembled, st_assembled) = run(false);
        assert_eq!(held, assembled);
        assert_eq!(
            (st.solves, st.full_factorizations, st.refactorizations),
            (2, 1, 0)
        );
        let refreshed = SolverStats {
            refactorizations: 1,
            ..st
        };
        assert_eq!(refreshed, st_assembled);
        assert!(st.gmres_iterations > 0);
    }

    /// Sparse LU and GMRES hold factors with reuse on and after a
    /// successful solve; dense LU never does.
    #[test]
    fn factors_are_held_only_with_reuse_after_a_successful_solve() {
        let solved = |backend, reuse| {
            let mut m = MnaMatrix::new(backend, 2, reuse);
            assert!(!m.hold_factors(), "{backend} before the first solve");
            stamp_divider(&mut m);
            solve_once(&mut m);
            m.hold_factors()
        };
        assert!(solved(LinearSolver::Sparse, true));
        assert!(!solved(LinearSolver::Sparse, false));
        assert!(!solved(LinearSolver::Dense, true));
        assert!(solved(LinearSolver::Iterative, true));
        assert!(!solved(LinearSolver::Iterative, false));

        let mut m = MnaMatrix::new(LinearSolver::Sparse, 2, true);
        stamp_divider(&mut m);
        solve_once(&mut m);
        m.clear();
        m.add(0, 0, 1.0);
        m.add(0, 1, 1.0);
        m.add(1, 0, 1.0);
        m.add(1, 1, 1.0);
        assert!(m.factor_solve(&mut [1.0, 1.0]).is_err(), "singular");
        assert!(!m.hold_factors(), "after a singular factorisation");

        let mut m = MnaMatrix::new(LinearSolver::Iterative, 2, true);
        stamp_divider(&mut m);
        solve_once(&mut m);
        assert!(m.hold_factors());
        assert!(m.factor_solve(&mut [f64::NAN, 2.0]).is_err(), "non-finite");
        assert!(!m.hold_factors(), "after a failed GMRES solve");
    }

    #[test]
    fn sparse_pattern_change_recompiles_and_recovers() {
        let mut m = MnaMatrix::new(LinearSolver::Sparse, 2, true);
        m.add(0, 0, 1.0);
        m.add(1, 1, 1.0);
        let mut rhs = vec![1.0, 1.0];
        m.factor_solve(&mut rhs).unwrap();
        // Different sequence (extra off-diagonals): must recompile + refactor
        // fully, and still solve correctly.
        m.clear();
        m.add(0, 0, 2.0);
        m.add(0, 1, 1.0);
        m.add(1, 0, 1.0);
        m.add(1, 1, 2.0);
        let mut rhs = vec![3.0, 3.0];
        m.factor_solve(&mut rhs).unwrap();
        assert!((rhs[0] - 1.0).abs() < 1e-12 && (rhs[1] - 1.0).abs() < 1e-12);
        let st = m.stats();
        assert_eq!(st.full_factorizations, 2);
        assert_eq!(st.refactorizations, 0);
        assert_eq!(st.pattern_rebuilds, 2);
    }

    #[test]
    fn sparse_pivot_degradation_falls_back() {
        let mut m = MnaMatrix::new(LinearSolver::Sparse, 2, true);
        m.add(0, 0, 10.0);
        m.add(1, 0, 1.0);
        m.add(0, 1, 1.0);
        m.add(1, 1, 10.0);
        let mut rhs = vec![1.0, 1.0];
        m.factor_solve(&mut rhs).unwrap();
        // Collapse the frozen pivot: the refactor must be rejected and the
        // full factorisation must re-pivot successfully.
        m.clear();
        m.add(0, 0, 1e-9);
        m.add(1, 0, 1.0);
        m.add(0, 1, 1.0);
        m.add(1, 1, 10.0);
        let mut rhs = vec![1.0, 2.0];
        m.factor_solve(&mut rhs).unwrap();
        let st = m.stats();
        assert_eq!(st.pivot_fallbacks, 1);
        assert_eq!(st.full_factorizations, 2);
        // Verify the solution against the 2x2 inverse.
        let (a, b, c, d) = (1e-9, 1.0, 1.0, 10.0);
        let det = a * d - b * c;
        let x0 = (d * 1.0 - b * 2.0) / det;
        let x1 = (-c * 1.0 + a * 2.0) / det;
        assert!((rhs[0] - x0).abs() < 1e-9 * x0.abs().max(1.0));
        assert!((rhs[1] - x1).abs() < 1e-9 * x1.abs().max(1.0));
    }

    #[test]
    fn dense_counts_factorizations() {
        let mut m = MnaMatrix::new(LinearSolver::Dense, 2, true);
        for _ in 0..3 {
            m.clear();
            stamp_divider(&mut m);
            let mut rhs = vec![0.0, 2.0];
            m.factor_solve(&mut rhs).unwrap();
        }
        let st = m.stats();
        assert_eq!(st.full_factorizations, 3);
        assert_eq!(st.solves, 3);
        assert_eq!(st.factor_nnz, 4);
    }

    #[test]
    fn stats_equality_ignores_timing() {
        let a = SolverStats {
            solves: 3,
            solve_time_ns: 100,
            ..Default::default()
        };
        let b = SolverStats {
            solves: 3,
            solve_time_ns: 999,
            ..Default::default()
        };
        assert_eq!(a, b);
        assert_ne!(
            a,
            SolverStats {
                solves: 4,
                ..Default::default()
            }
        );
    }

    #[test]
    fn display_names() {
        assert_eq!(LinearSolver::Dense.to_string(), "dense");
        assert_eq!(LinearSolver::Sparse.to_string(), "sparse");
        assert_eq!(LinearSolver::Iterative.to_string(), "gmres");
    }
}
