use std::fmt;

/// Errors produced by the numerical kernels.
///
/// Every fallible public function in this crate returns this type, so
/// downstream crates (the simulator) can wrap it uniformly.
#[derive(Debug, Clone, PartialEq)]
pub enum NumericError {
    /// A matrix factorisation hit a pivot whose magnitude is below the
    /// singularity threshold. Carries the pivot column index.
    SingularMatrix {
        /// Column (and, after pivoting, row) at which elimination broke down.
        column: usize,
    },
    /// A numeric-only refactorisation found a pivot that degraded too far
    /// below its column's magnitude, so the frozen pivot order is no longer
    /// numerically safe. Callers should fall back to a full factorisation
    /// (which re-pivots).
    PivotDegraded {
        /// Column at which the frozen pivot degraded.
        column: usize,
        /// `|pivot| / max|column entry|` at the point of failure.
        ratio: f64,
    },
    /// Operand shapes are incompatible (e.g. solving an `n`-system with an
    /// `m`-vector). Carries the expected and actual sizes.
    DimensionMismatch {
        /// Size required by the operation.
        expected: usize,
        /// Size that was actually supplied.
        actual: usize,
    },
    /// An iterative solve (GMRES) failed to converge within its iteration
    /// budget.
    NonConvergence {
        /// Number of iterations performed before giving up.
        iterations: usize,
        /// Norm of the last residual, `‖b − A x‖`.
        last_delta: f64,
    },
    /// An argument was out of its legal domain (empty data, non-monotonic
    /// abscissae, non-positive step, ...).
    InvalidArgument(String),
    /// A computation produced a NaN or infinity where a finite value is
    /// required (an iterate, a residual norm, a reduced sample). Surfacing
    /// this as an error — instead of letting the NaN poison downstream
    /// reductions or panic a `partial_cmp` sort — is the contract the
    /// sweep layers rely on for partial-result collection.
    NonFinite {
        /// What produced the non-finite value (e.g. `"gmres residual"`).
        context: String,
    },
}

impl fmt::Display for NumericError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NumericError::SingularMatrix { column } => {
                write!(f, "matrix is singular at column {column}")
            }
            NumericError::PivotDegraded { column, ratio } => write!(
                f,
                "pivot degraded at column {column} (ratio {ratio:.3e}); \
                 full refactorisation required"
            ),
            NumericError::DimensionMismatch { expected, actual } => {
                write!(f, "dimension mismatch: expected {expected}, got {actual}")
            }
            NumericError::NonConvergence {
                iterations,
                last_delta,
            } => write!(
                f,
                "iterative solve failed to converge after {iterations} iterations \
                 (last residual {last_delta:.3e})"
            ),
            NumericError::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
            NumericError::NonFinite { context } => {
                write!(f, "non-finite value produced by {context}")
            }
        }
    }
}

impl std::error::Error for NumericError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_singular() {
        let e = NumericError::SingularMatrix { column: 3 };
        assert_eq!(e.to_string(), "matrix is singular at column 3");
    }

    #[test]
    fn display_dimension_mismatch() {
        let e = NumericError::DimensionMismatch {
            expected: 4,
            actual: 2,
        };
        assert!(e.to_string().contains("expected 4"));
        assert!(e.to_string().contains("got 2"));
    }

    #[test]
    fn display_pivot_degraded() {
        let e = NumericError::PivotDegraded {
            column: 2,
            ratio: 1e-5,
        };
        assert!(e.to_string().contains("column 2"));
        assert!(e.to_string().contains("full refactorisation"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<NumericError>();
    }

    #[test]
    fn error_trait_object() {
        let e: Box<dyn std::error::Error> = Box::new(NumericError::InvalidArgument("x".into()));
        assert!(e.to_string().contains("invalid argument"));
    }
}
