//! Iterative (Krylov-subspace) linear solvers for PDN-scale systems.
//!
//! The direct LU factorisations in [`crate::dense`] / [`crate::sparse`]
//! stop scaling somewhere around 10³–10⁴ unknowns: fill-in grows the
//! factor memory superlinearly and every Newton iteration pays the
//! factorisation again when the matrix values change. Full-chip
//! power-grid meshes (10⁴ nodes and up) take this iterative path:
//!
//! * [`Ilu0`] — the zero-fill incomplete-LU preconditioner `z = M⁻¹ r`.
//!   It factors over the compiled CSC pattern of the MNA assembler and
//!   supports KLU-style numeric-only refactorisation when only the values
//!   change (the Newton hot loop).
//! * [`gmres`] — restarted GMRES(m) on a [`CscMatrix`](crate::sparse::CscMatrix)
//!   preconditioned by an [`Ilu0`], with modified Gram–Schmidt Arnoldi
//!   and Givens-rotation least squares, *right*-preconditioned so the
//!   convergence test is on the true residual.
//!
//! # Determinism
//!
//! Like every kernel in this crate, the solvers are bitwise
//! deterministic: iteration counts and iterates depend only on the
//! operator values and options, never on thread count or timing. The
//! stats returned by [`gmres`] are therefore comparable across runs and
//! safe to assert on in tests.
//!
//! # Example
//!
//! ```
//! use sfet_numeric::krylov::{gmres, GmresOptions, GmresWorkspace, Ilu0};
//! use sfet_numeric::sparse::TripletMatrix;
//!
//! # fn main() -> Result<(), sfet_numeric::NumericError> {
//! let mut t = TripletMatrix::new(2, 2);
//! t.push(0, 0, 4.0);
//! t.push(0, 1, 1.0);
//! t.push(1, 0, 1.0);
//! t.push(1, 1, 3.0);
//! let a = t.to_csc();
//! let m = Ilu0::factor(&a)?;
//! let mut x = vec![0.0; 2];
//! let mut ws = GmresWorkspace::new(2, 16);
//! let stats = gmres(&a, &m, &[1.0, 2.0], &mut x, &GmresOptions::default(), &mut ws)?;
//! assert!(stats.converged);
//! assert!((4.0 * x[0] + x[1] - 1.0).abs() < 1e-9);
//! # Ok(())
//! # }
//! ```

mod gmres_impl;
mod precond;

pub use gmres_impl::{gmres, GmresOptions, GmresStats, GmresWorkspace};
pub use precond::Ilu0;
