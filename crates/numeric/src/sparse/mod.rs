//! Sparse matrices for PDN-scale circuit systems.
//!
//! The assembly path mirrors the classic SPICE flow: devices stamp into a
//! coordinate-format [`TripletMatrix`], which is compressed once into a
//! [`CscMatrix`], and the compressed form is factorised by the left-looking
//! Gilbert–Peierls LU in [`lu`]. A [`SparseFactorCache`] keeps those
//! factors across the same-pattern solves of a Newton loop.
//!
//! # Example
//!
//! ```
//! use sfet_numeric::sparse::TripletMatrix;
//!
//! # fn main() -> Result<(), sfet_numeric::NumericError> {
//! let mut t = TripletMatrix::new(2, 2);
//! t.push(0, 0, 4.0);
//! t.push(1, 1, 2.0);
//! t.push(0, 1, 1.0);
//! let a = t.to_csc();
//! let lu = a.lu()?;
//! let x = lu.solve(&[9.0, 4.0])?;
//! assert!((x[0] - 1.75).abs() < 1e-12);
//! assert!((x[1] - 2.0).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

mod assembler;
mod cache;
mod coo;
mod csc;
pub mod lu;

pub use assembler::CscAssembler;
pub use cache::{FactorReport, FactorStep, SparseFactorCache};
pub use coo::TripletMatrix;
pub use csc::CscMatrix;
pub use lu::SparseLu;
