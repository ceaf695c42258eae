//! Numerical kernels underpinning the Soft-FET circuit-simulation stack.
//!
//! This crate depends only on `std` and the in-workspace `sfet-telemetry`
//! observability layer, and provides the linear-algebra and sweep
//! machinery that the MNA simulator in `sfet-sim` is built on (the
//! simulator runs its own Newton loops):
//!
//! * [`dense`] — column-major dense matrices with partial-pivoting LU
//!   factorisation, the workhorse for cell-level circuits (tens of nodes).
//! * [`sparse`] — triplet/CSC sparse matrices and a left-looking
//!   Gilbert–Peierls LU with partial pivoting, used for PDN-sized systems.
//! * [`krylov`] — the iterative solver for full-chip grids where direct
//!   factorisation stops scaling: restarted GMRES(m) on a CSC matrix with
//!   an ILU(0) preconditioner.
//! * [`interp`] — piecewise-linear interpolation used by PWL sources and
//!   waveform resampling.
//! * [`smooth`] — numerically safe smooth primitives (softplus, logistic,
//!   smoothstep) used by the EKV MOSFET model.
//! * [`integrate`] — integration-method coefficients (backward Euler,
//!   trapezoidal, Gear-2) for companion models.
//! * [`norms`] — error norms and log–log convergence-order fitting used
//!   by the `sfet-verify` correctness subsystem.
//! * [`stats`] — descriptive statistics for sweep / Monte-Carlo results.
//! * [`exec`] — the deterministic parallel sweep engine: one tile
//!   scheduler over scoped threads with lock-free result slots, per-task
//!   SplitMix64 seed derivation, `SFET_THREADS`/`SFET_BATCH` overrides and
//!   optional telemetry
//!   ([`ExecConfig::with_telemetry`](exec::ExecConfig::with_telemetry)),
//!   behind two entry points, one per failure contract:
//!   [`par_map`](exec::par_map) cancels on the first error, and
//!   [`par_map_outcomes`](exec::par_map_outcomes) runs every task to a
//!   verdict under a retry budget. Each takes a per-item or a tiled
//!   [`Task`](exec::Task) (lanes for the batched transient engine).
//! * [`batch`] — a batched structure-of-arrays dense LU
//!   ([`BatchDense`](batch::BatchDense)) whose lanes replay one
//!   elimination plan, the pivot order the scalar dense LU chose for one
//!   of them, every lane bitwise-identical to the scalar dense LU.
//! * [`fault`] — deterministic fault injection (`SFET_FAULT_PLAN`) for
//!   exercising the retry and checkpoint/resume paths in CI.
//! * [`manifest`] — append-only sweep manifests so an interrupted verdict
//!   sweep resumes skipping already-completed tasks
//!   ([`Journal`](manifest::Journal)).
//!
//! # Example
//!
//! Solve a small linear system with the dense LU:
//!
//! ```
//! use sfet_numeric::dense::DenseMatrix;
//!
//! # fn main() -> Result<(), sfet_numeric::NumericError> {
//! let mut a = DenseMatrix::zeros(2, 2);
//! a.set(0, 0, 2.0);
//! a.set(1, 1, 4.0);
//! let lu = a.lu()?;
//! let x = lu.solve(&[2.0, 8.0])?;
//! assert!((x[0] - 1.0).abs() < 1e-12 && (x[1] - 2.0).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod batch;
pub mod dense;
pub mod exec;
pub mod fault;
pub mod integrate;
pub mod interp;
pub mod krylov;
pub mod manifest;
pub mod norms;
pub mod smooth;
pub mod sparse;
pub mod stats;

mod error;

pub use error::NumericError;

/// Convenience result alias used across the crate.
pub type Result<T> = std::result::Result<T, NumericError>;

/// Returns `true` when `a` and `b` agree within `reltol * max(|a|,|b|) + abstol`.
///
/// This is the SPICE-style mixed relative/absolute comparison used by
/// convergence checks throughout the simulator.
///
/// # Example
///
/// ```
/// assert!(sfet_numeric::approx_eq(1.0, 1.0 + 1e-9, 1e-6, 1e-12));
/// assert!(!sfet_numeric::approx_eq(1.0, 1.1, 1e-6, 1e-12));
/// ```
#[inline]
pub fn approx_eq(a: f64, b: f64, reltol: f64, abstol: f64) -> bool {
    (a - b).abs() <= reltol * a.abs().max(b.abs()) + abstol
}

/// 64-bit FNV-1a of `bytes`: the workspace's one content hash, behind
/// SFCK checkpoint fingerprints, job-server cache keys and optimizer
/// journal identities.
///
/// # Example
///
/// ```
/// assert_eq!(sfet_numeric::fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
/// ```
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_eq_exact() {
        assert!(approx_eq(0.0, 0.0, 1e-3, 1e-12));
        assert!(approx_eq(5.0, 5.0, 0.0, 0.0));
    }

    #[test]
    fn approx_eq_relative_window() {
        assert!(approx_eq(1000.0, 1000.5, 1e-3, 0.0));
        assert!(!approx_eq(1000.0, 1002.0, 1e-3, 0.0));
    }

    #[test]
    fn approx_eq_absolute_window() {
        assert!(approx_eq(0.0, 1e-13, 0.0, 1e-12));
        assert!(!approx_eq(0.0, 1e-11, 0.0, 1e-12));
    }

    #[test]
    fn fnv1a_matches_the_published_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn approx_eq_symmetry() {
        assert_eq!(
            approx_eq(3.0, 3.001, 1e-3, 0.0),
            approx_eq(3.001, 3.0, 1e-3, 0.0)
        );
    }
}
