//! Restarted GMRES(m) with right preconditioning.
//!
//! The implementation follows Saad & Schultz: a modified Gram–Schmidt
//! Arnoldi process builds an orthonormal basis of the Krylov space of
//! `A M⁻¹`, Givens rotations keep the Hessenberg least-squares problem
//! triangular incrementally, and the rotated right-hand side yields the
//! residual norm for free at every step. Right preconditioning means the
//! monitored residual is the *true* residual `‖b − A x‖`, not a
//! preconditioned surrogate — essential when ILU(0) pivot regularisation
//! (see [`super::Ilu0`]) makes `M` a loose approximation on a few rows.

use super::Ilu0;
use crate::sparse::CscMatrix;
use crate::{NumericError, Result};

/// Tuning knobs for [`gmres`].
#[derive(Debug, Clone)]
pub struct GmresOptions {
    /// Restart length `m`: Arnoldi basis size before the space is
    /// collapsed into the iterate. Memory is `O((m + 1) · n)`.
    pub restart: usize,
    /// Total inner-iteration budget across all restart cycles.
    pub max_iters: usize,
    /// Convergence when `‖b − A x‖ ≤ rel_tol · ‖b‖` (plus `abs_tol`).
    pub rel_tol: f64,
    /// Absolute floor on the convergence threshold (for `‖b‖ ≈ 0`).
    pub abs_tol: f64,
    /// A restart cycle that fails to shrink the residual below
    /// `stagnation_ratio` × its starting value counts as stagnant.
    pub stagnation_ratio: f64,
    /// Consecutive stagnant cycles tolerated before giving up with
    /// [`NumericError::NonConvergence`] (the caller's cue to fall back
    /// to a direct solve).
    pub max_stagnant_cycles: usize,
}

impl Default for GmresOptions {
    fn default() -> Self {
        GmresOptions {
            restart: 64,
            max_iters: 2000,
            rel_tol: 1e-12,
            abs_tol: 0.0,
            stagnation_ratio: 0.9,
            max_stagnant_cycles: 2,
        }
    }
}

/// Outcome of a [`gmres`] solve. Deterministic: identical inputs produce
/// identical counts on every run and thread configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GmresStats {
    /// Inner (Arnoldi) iterations performed in total.
    pub iterations: u64,
    /// Restart cycles completed beyond the first.
    pub restarts: u64,
    /// Whether the convergence criterion was met.
    pub converged: bool,
    /// Final true-residual norm `‖b − A x‖` (as tracked by the rotated
    /// least-squares system).
    pub residual: f64,
}

/// Reusable buffers for [`gmres`]; allocate once per matrix shape and
/// reuse across the Newton/transient hot loop.
#[derive(Debug, Clone)]
pub struct GmresWorkspace {
    n: usize,
    m: usize,
    /// `(m + 1)` Arnoldi basis vectors, each of length `n`.
    v: Vec<f64>,
    /// Hessenberg matrix, column-major with leading dimension `m + 1`.
    h: Vec<f64>,
    /// Givens cosines/sines, one pair per column.
    cs: Vec<f64>,
    sn: Vec<f64>,
    /// Rotated right-hand side of the least-squares system.
    g: Vec<f64>,
    /// Triangular-solve output.
    y: Vec<f64>,
    /// Preconditioned vector `z = M⁻¹ v`.
    z: Vec<f64>,
    /// Operator output `w = A z`.
    w: Vec<f64>,
}

impl GmresWorkspace {
    /// Allocates buffers for systems of dimension `n` with restart length
    /// up to `restart`. The workspace grows automatically if a later call
    /// needs more room, so sizing generously up front only saves
    /// reallocation.
    pub fn new(n: usize, restart: usize) -> Self {
        let m = restart.max(1);
        GmresWorkspace {
            n,
            m,
            v: vec![0.0; (m + 1) * n],
            h: vec![0.0; (m + 1) * m],
            cs: vec![0.0; m],
            sn: vec![0.0; m],
            g: vec![0.0; m + 1],
            y: vec![0.0; m],
            z: vec![0.0; n],
            w: vec![0.0; n],
        }
    }

    fn ensure(&mut self, n: usize, m: usize) {
        if self.n != n || self.m < m {
            *self = GmresWorkspace::new(n, m.max(self.m));
        }
    }
}

/// Euclidean norm.
fn nrm2(x: &[f64]) -> f64 {
    x.iter().map(|v| v * v).sum::<f64>().sqrt()
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Solves `A x = b` by restarted GMRES(m), right-preconditioned by the
/// incomplete LU `M` of `A` (or of a matrix close to it).
///
/// `x` is used as the initial guess and overwritten with the solution
/// iterate (even on a [`NumericError::NonConvergence`] return, `x` holds
/// the best iterate found, so a caller can inspect partial progress
/// before falling back to a direct factorisation).
///
/// # Errors
///
/// * [`NumericError::DimensionMismatch`] if `b`, `x` or `pre` don't match
///   the dimension of `a`.
/// * [`NumericError::NonFinite`] if the right-hand side, an operator
///   application, or a recurrence quantity is NaN/∞.
/// * [`NumericError::NonConvergence`] on iteration-budget exhaustion or
///   stagnation across restart cycles; `iterations` carries the spent
///   budget and `last_delta` the final residual norm.
pub fn gmres(
    a: &CscMatrix,
    pre: &Ilu0,
    b: &[f64],
    x: &mut [f64],
    opts: &GmresOptions,
    ws: &mut GmresWorkspace,
) -> Result<GmresStats> {
    let n = a.cols();
    if b.len() != n {
        return Err(NumericError::DimensionMismatch {
            expected: n,
            actual: b.len(),
        });
    }
    if x.len() != n {
        return Err(NumericError::DimensionMismatch {
            expected: n,
            actual: x.len(),
        });
    }
    if pre.dim() != n {
        return Err(NumericError::DimensionMismatch {
            expected: n,
            actual: pre.dim(),
        });
    }
    let m = opts.restart.max(1).min(opts.max_iters.max(1));
    ws.ensure(n, m);
    // Disjoint field borrows for the hot loop (the `v(j)` helper would
    // otherwise hold the whole workspace immutably).
    let ld = ws.m + 1;
    let GmresWorkspace {
        v: wv,
        h: wh,
        cs: wcs,
        sn: wsn,
        g: wg,
        y: wy,
        z: wz,
        w: ww,
        ..
    } = ws;

    let b_norm = nrm2(b);
    if !b_norm.is_finite() {
        return Err(NumericError::NonFinite {
            context: "gmres right-hand side".into(),
        });
    }
    let tol = (opts.rel_tol * b_norm).max(opts.abs_tol).max(0.0);
    if b_norm == 0.0 {
        x.iter_mut().for_each(|v| *v = 0.0);
        return Ok(GmresStats {
            iterations: 0,
            restarts: 0,
            converged: true,
            residual: 0.0,
        });
    }

    let mut stats = GmresStats {
        iterations: 0,
        restarts: 0,
        converged: false,
        residual: f64::INFINITY,
    };
    let mut prev_cycle_beta = f64::INFINITY;
    let mut stagnant_cycles = 0usize;

    loop {
        // True residual r = b − A x, stored in basis slot 0.
        a.matvec_into(x, ww);
        for i in 0..n {
            wv[i] = b[i] - ww[i];
        }
        let beta = nrm2(&wv[..n]);
        if !beta.is_finite() {
            return Err(NumericError::NonFinite {
                context: "gmres residual".into(),
            });
        }
        stats.residual = beta;
        if beta <= tol {
            stats.converged = true;
            return Ok(stats);
        }
        if stats.iterations as usize >= opts.max_iters {
            return Err(NumericError::NonConvergence {
                iterations: stats.iterations as usize,
                last_delta: beta,
            });
        }
        // Stagnation check at cycle boundaries.
        if beta > opts.stagnation_ratio * prev_cycle_beta {
            stagnant_cycles += 1;
            if stagnant_cycles >= opts.max_stagnant_cycles.max(1) {
                return Err(NumericError::NonConvergence {
                    iterations: stats.iterations as usize,
                    last_delta: beta,
                });
            }
        } else {
            stagnant_cycles = 0;
        }
        prev_cycle_beta = beta;

        let inv_beta = 1.0 / beta;
        for v in wv.iter_mut().take(n) {
            *v *= inv_beta;
        }
        wg.iter_mut().for_each(|v| *v = 0.0);
        wg[0] = beta;

        // Arnoldi / least-squares cycle.
        let mut cols = 0usize;
        for j in 0..m {
            if stats.iterations as usize >= opts.max_iters {
                break;
            }
            stats.iterations += 1;
            // w = A M⁻¹ v_j.
            pre.apply(&wv[j * n..(j + 1) * n], wz);
            a.matvec_into(wz, ww);
            // Modified Gram–Schmidt.
            for i in 0..=j {
                let vi = i * n;
                let hij = dot(ww, &wv[vi..vi + n]);
                wh[j * ld + i] = hij;
                for k in 0..n {
                    ww[k] -= hij * wv[vi + k];
                }
            }
            let hnext = nrm2(ww);
            if !hnext.is_finite() {
                return Err(NumericError::NonFinite {
                    context: "gmres arnoldi recurrence".into(),
                });
            }
            wh[j * ld + j + 1] = hnext;
            // Apply accumulated Givens rotations to the new column.
            for i in 0..j {
                let h0 = wh[j * ld + i];
                let h1 = wh[j * ld + i + 1];
                wh[j * ld + i] = wcs[i] * h0 + wsn[i] * h1;
                wh[j * ld + i + 1] = -wsn[i] * h0 + wcs[i] * h1;
            }
            // New rotation zeroing the subdiagonal.
            let h0 = wh[j * ld + j];
            let h1 = wh[j * ld + j + 1];
            let r = h0.hypot(h1);
            let (c, s) = if r > 0.0 {
                (h0 / r, h1 / r)
            } else {
                (1.0, 0.0)
            };
            wcs[j] = c;
            wsn[j] = s;
            wh[j * ld + j] = r;
            wh[j * ld + j + 1] = 0.0;
            let g0 = wg[j];
            wg[j] = c * g0;
            wg[j + 1] = -s * g0;
            cols = j + 1;
            let res = wg[j + 1].abs();
            stats.residual = res;
            let happy = hnext <= f64::EPSILON * beta;
            if res <= tol || happy {
                break;
            }
            // Next basis vector.
            let inv_h = 1.0 / hnext;
            let next = (j + 1) * n;
            for k in 0..n {
                wv[next + k] = ww[k] * inv_h;
            }
        }

        // Back-substitute R y = g and accumulate x += M⁻¹ (V y).
        if cols > 0 {
            for j in (0..cols).rev() {
                let mut acc = wg[j];
                for i in j + 1..cols {
                    acc -= wh[i * ld + j] * wy[i];
                }
                wy[j] = acc / wh[j * ld + j];
            }
            ww.iter_mut().for_each(|v| *v = 0.0);
            for (j, &yj) in wy.iter().enumerate().take(cols) {
                if yj == 0.0 {
                    continue;
                }
                let vj = j * n;
                for k in 0..n {
                    ww[k] += yj * wv[vj + k];
                }
            }
            pre.apply(ww, wz);
            for k in 0..n {
                x[k] += wz[k];
            }
            if x.iter().any(|v| !v.is_finite()) {
                return Err(NumericError::NonFinite {
                    context: "gmres iterate".into(),
                });
            }
        }
        stats.restarts += 1;
        // Loop re-enters with a fresh true residual; convergence, budget
        // exhaustion, and stagnation are all checked at the cycle head.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::TripletMatrix;

    /// 2-D 5-point Laplacian with a small diagonal shift (SPD).
    fn grid_matrix(nx: usize, ny: usize) -> crate::sparse::CscMatrix {
        let n = nx * ny;
        let mut t = TripletMatrix::new(n, n);
        let idx = |i: usize, j: usize| i * ny + j;
        for i in 0..nx {
            for j in 0..ny {
                let k = idx(i, j);
                t.push(k, k, 4.05);
                if i > 0 {
                    t.push(k, idx(i - 1, j), -1.0);
                }
                if i + 1 < nx {
                    t.push(k, idx(i + 1, j), -1.0);
                }
                if j > 0 {
                    t.push(k, idx(i, j - 1), -1.0);
                }
                if j + 1 < ny {
                    t.push(k, idx(i, j + 1), -1.0);
                }
            }
        }
        t.to_csc()
    }

    /// The `n × n` identity: its ILU(0) is `M = I`, so GMRES under it is
    /// unpreconditioned.
    fn identity(n: usize) -> CscMatrix {
        let mut t = TripletMatrix::new(n, n);
        (0..n).for_each(|i| t.push(i, i, 1.0));
        t.to_csc()
    }

    fn rhs(n: usize) -> Vec<f64> {
        (0..n).map(|i| (i as f64 * 0.37).sin() + 0.25).collect()
    }

    fn check_solution(a: &crate::sparse::CscMatrix, b: &[f64], x: &[f64], tol: f64) {
        let ax = a.matvec(x).unwrap();
        let bn = nrm2(b);
        let rn = nrm2(
            &ax.iter()
                .zip(b)
                .map(|(axi, bi)| axi - bi)
                .collect::<Vec<_>>(),
        );
        assert!(rn <= tol * bn, "residual {rn:.3e} vs {:.3e}", tol * bn);
    }

    #[test]
    fn ilu0_converges_in_fewer_iterations_than_plain_gmres() {
        let a = grid_matrix(12, 11);
        let n = a.cols();
        let b = rhs(n);
        let opts = GmresOptions {
            rel_tol: 1e-11,
            ..GmresOptions::default()
        };
        let mut ws = GmresWorkspace::new(n, opts.restart);

        let mut x = vec![0.0; n];
        let plain = Ilu0::factor(&identity(n)).unwrap();
        let s_id = gmres(&a, &plain, &b, &mut x, &opts, &mut ws).unwrap();
        assert!(s_id.converged);
        check_solution(&a, &b, &x, 1e-10);

        let mut x = vec![0.0; n];
        let ilu = Ilu0::factor(&a).unwrap();
        let s_i = gmres(&a, &ilu, &b, &mut x, &opts, &mut ws).unwrap();
        assert!(s_i.converged);
        check_solution(&a, &b, &x, 1e-10);
        // ILU(0) must beat plain GMRES on iteration count.
        assert!(
            s_i.iterations < s_id.iterations,
            "ilu {} vs identity {}",
            s_i.iterations,
            s_id.iterations
        );
    }

    #[test]
    fn matches_direct_lu() {
        let a = grid_matrix(9, 9);
        let n = a.cols();
        let b = rhs(n);
        let lu = a.lu().unwrap();
        let mut x_direct = b.clone();
        lu.solve_in_place(&mut x_direct, &mut Vec::new()).unwrap();

        let ilu = Ilu0::factor(&a).unwrap();
        let mut x = vec![0.0; n];
        let mut ws = GmresWorkspace::new(n, 64);
        let opts = GmresOptions {
            rel_tol: 1e-13,
            ..GmresOptions::default()
        };
        gmres(&a, &ilu, &b, &mut x, &opts, &mut ws).unwrap();
        let scale = x_direct.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        for (xi, xd) in x.iter().zip(&x_direct) {
            assert!((xi - xd).abs() <= 1e-10 * scale, "{xi} vs {xd}");
        }
    }

    #[test]
    fn deterministic_iteration_counts() {
        let a = grid_matrix(8, 7);
        let n = a.cols();
        let b = rhs(n);
        let ilu = Ilu0::factor(&a).unwrap();
        let opts = GmresOptions::default();
        let run = || {
            let mut x = vec![0.0; n];
            let mut ws = GmresWorkspace::new(n, opts.restart);
            gmres(&a, &ilu, &b, &mut x, &opts, &mut ws).unwrap()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn warm_start_converges_immediately() {
        let a = grid_matrix(6, 6);
        let n = a.cols();
        let b = rhs(n);
        let ilu = Ilu0::factor(&a).unwrap();
        let mut ws = GmresWorkspace::new(n, 32);
        let mut x = vec![0.0; n];
        let opts = GmresOptions::default();
        gmres(&a, &ilu, &b, &mut x, &opts, &mut ws).unwrap();
        // Re-solving from the converged iterate takes zero iterations.
        let stats = gmres(&a, &ilu, &b, &mut x, &opts, &mut ws).unwrap();
        assert!(stats.converged);
        assert_eq!(stats.iterations, 0);
    }

    #[test]
    fn zero_rhs_returns_zero() {
        let a = grid_matrix(4, 4);
        let n = a.cols();
        let mut x = vec![1.0; n];
        let mut ws = GmresWorkspace::new(n, 8);
        let stats = gmres(
            &a,
            &Ilu0::factor(&a).unwrap(),
            &vec![0.0; n],
            &mut x,
            &GmresOptions::default(),
            &mut ws,
        )
        .unwrap();
        assert!(stats.converged);
        assert!(x.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn budget_exhaustion_is_nonconvergence() {
        let a = grid_matrix(10, 10);
        let n = a.cols();
        let b = rhs(n);
        // A budget of 2 iterations, far below what ILU(0) needs here.
        let opts = GmresOptions {
            restart: 1,
            max_iters: 2,
            rel_tol: 1e-14,
            ..GmresOptions::default()
        };
        let mut x = vec![0.0; n];
        let mut ws = GmresWorkspace::new(n, opts.restart);
        let ilu = Ilu0::factor(&a).unwrap();
        let err = gmres(&a, &ilu, &b, &mut x, &opts, &mut ws).unwrap_err();
        match err {
            NumericError::NonConvergence { iterations, .. } => assert!(iterations <= 2),
            other => panic!("expected NonConvergence, got {other:?}"),
        }
        // The partial iterate is still finite and usable as a warm start.
        assert!(x.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn non_finite_rhs_is_reported() {
        let a = grid_matrix(3, 3);
        let n = a.cols();
        let mut b = rhs(n);
        b[4] = f64::NAN;
        let mut x = vec![0.0; n];
        let mut ws = GmresWorkspace::new(n, 8);
        let err = gmres(
            &a,
            &Ilu0::factor(&a).unwrap(),
            &b,
            &mut x,
            &GmresOptions::default(),
            &mut ws,
        )
        .unwrap_err();
        assert!(matches!(err, NumericError::NonFinite { .. }));
    }

    #[test]
    fn dimension_mismatch_is_rejected() {
        let a = grid_matrix(3, 3);
        let mut x = vec![0.0; 9];
        let mut ws = GmresWorkspace::new(9, 8);
        let err = gmres(
            &a,
            &Ilu0::factor(&a).unwrap(),
            &[1.0, 2.0],
            &mut x,
            &GmresOptions::default(),
            &mut ws,
        )
        .unwrap_err();
        assert!(matches!(err, NumericError::DimensionMismatch { .. }));
    }
}
