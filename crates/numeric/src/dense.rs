//! Column-major dense matrices and partial-pivoting LU factorisation.
//!
//! Circuit matrices at the standard-cell level are tiny (tens of unknowns),
//! where a dense factorisation with good cache behaviour beats any sparse
//! scheme. The MNA assembler in `sfet-sim` uses [`DenseMatrix`] as its
//! default backend and the sparse backend (see [`crate::sparse`]) for
//! PDN-scale systems.

#![allow(clippy::needless_range_loop)] // in-place LU reads clearest with explicit indices

use crate::{NumericError, Result};

/// Pivot magnitudes below this threshold are treated as singular. Shared
/// with the batched SoA backend (`crate::batch`) so both paths classify
/// the same matrices as singular.
pub(crate) const SINGULARITY_EPS: f64 = 1e-30;

/// A dense, column-major `rows x cols` matrix of `f64`.
///
/// # Example
///
/// ```
/// use sfet_numeric::dense::DenseMatrix;
///
/// let mut m = DenseMatrix::zeros(2, 2);
/// m.set(0, 0, 1.0);
/// m.add(0, 0, 0.5); // stamping-style accumulation
/// assert_eq!(m.get(0, 0), 1.5);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    /// Column-major storage: element (r, c) lives at `data[c * rows + r]`.
    data: Vec<f64>,
}

impl DenseMatrix {
    /// Creates a `rows x cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        DenseMatrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates an `n x n` identity matrix.
    ///
    /// # Example
    ///
    /// ```
    /// let i = sfet_numeric::dense::DenseMatrix::identity(3);
    /// assert_eq!(i.get(1, 1), 1.0);
    /// assert_eq!(i.get(0, 1), 0.0);
    /// ```
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Builds a matrix from row-major slices; all rows must share a length.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::InvalidArgument`] if rows are ragged or empty.
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self> {
        if rows.is_empty() {
            return Err(NumericError::InvalidArgument("no rows supplied".into()));
        }
        let cols = rows[0].len();
        if cols == 0 || rows.iter().any(|r| r.len() != cols) {
            return Err(NumericError::InvalidArgument(
                "rows must be non-empty and uniform".into(),
            ));
        }
        let mut m = Self::zeros(rows.len(), cols);
        for (r, row) in rows.iter().enumerate() {
            for (c, &v) in row.iter().enumerate() {
                m.set(r, c, v);
            }
        }
        Ok(m)
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Reads element `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if `r` or `c` is out of bounds.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[c * self.rows + r]
    }

    /// Writes element `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if `r` or `c` is out of bounds.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[c * self.rows + r] = v;
    }

    /// Accumulates `v` into element `(r, c)` — the MNA "stamp" primitive.
    ///
    /// # Panics
    ///
    /// Panics if `r` or `c` is out of bounds.
    #[inline]
    pub fn add(&mut self, r: usize, c: usize, v: f64) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[c * self.rows + r] += v;
    }

    /// Resets every entry to zero, keeping the allocation.
    pub fn clear(&mut self) {
        self.data.iter_mut().for_each(|v| *v = 0.0);
    }

    /// Matrix–vector product `y = A x`.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::DimensionMismatch`] if `x.len() != cols`.
    pub fn matvec(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.len() != self.cols {
            return Err(NumericError::DimensionMismatch {
                expected: self.cols,
                actual: x.len(),
            });
        }
        let mut y = vec![0.0; self.rows];
        for c in 0..self.cols {
            let xc = x[c];
            if xc == 0.0 {
                continue;
            }
            let col = &self.data[c * self.rows..(c + 1) * self.rows];
            for (yi, &a) in y.iter_mut().zip(col) {
                *yi += a * xc;
            }
        }
        Ok(y)
    }

    /// Infinity norm (maximum absolute row sum).
    pub fn norm_inf(&self) -> f64 {
        let mut best: f64 = 0.0;
        for r in 0..self.rows {
            let mut s = 0.0;
            for c in 0..self.cols {
                s += self.get(r, c).abs();
            }
            best = best.max(s);
        }
        best
    }

    /// Factorises `self` (consumed) into an LU decomposition with partial
    /// pivoting: `P A = L U`.
    ///
    /// # Errors
    ///
    /// * [`NumericError::InvalidArgument`] if the matrix is not square.
    /// * [`NumericError::SingularMatrix`] if a pivot underflows the
    ///   singularity threshold.
    pub fn lu(self) -> Result<LuFactors> {
        LuFactors::factor(self)
    }

    /// Solves `A x = b` by a fresh factorisation (convenience for one-shot
    /// solves; reuse [`LuFactors`] when solving repeatedly).
    ///
    /// # Errors
    ///
    /// Propagates factorisation errors and dimension mismatches.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        self.clone().lu()?.solve(b)
    }
}

impl std::fmt::Display for DenseMatrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for r in 0..self.rows {
            for c in 0..self.cols {
                write!(f, "{:>12.4e} ", self.get(r, c))?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// LU factors of a square matrix with partial pivoting (`P A = L U`).
///
/// Stores the factors packed in-place, plus the row-permutation vector.
/// Obtained from [`DenseMatrix::lu`]; reusable for many right-hand sides,
/// which is exactly the transient-simulation access pattern (one factor per
/// Newton iteration, forward/back substitution per solve).
#[derive(Debug, Clone)]
pub struct LuFactors {
    lu: DenseMatrix,
    /// `perm[i]` is the original row index that ended up in pivot row `i`.
    perm: Vec<usize>,
    /// Sign of the permutation, for determinant computation.
    perm_sign: f64,
}

/// Runs the partial-pivoting elimination on `a` in place, recording the
/// row permutation in `perm` (which must start as the identity). Returns
/// the permutation sign. Shared by [`LuFactors::factor`] (one-shot) and
/// [`LuFactors::refactor`] (workspace reuse) so both paths are bitwise
/// identical. It is the only pivot search of dense LU: batched lanes
/// replay the pivot order it chose ([`crate::batch::BatchDense`]), and a
/// lane that leaves that order is refactored here.
fn factor_in_place(a: &mut DenseMatrix, perm: &mut [usize]) -> Result<f64> {
    let n = a.rows;
    let mut perm_sign = 1.0;
    let data = &mut a.data;
    for k in 0..n {
        // Partial pivot: largest magnitude in column k at/below row k.
        // Column k is contiguous in the column-major layout.
        let col_k = &data[k * n + k..(k + 1) * n];
        let mut pivot_row = k;
        let mut pivot_val = col_k[0].abs();
        for (off, v) in col_k.iter().enumerate().skip(1) {
            let v = v.abs();
            if v > pivot_val {
                pivot_val = v;
                pivot_row = k + off;
            }
        }
        if pivot_val < SINGULARITY_EPS {
            return Err(NumericError::SingularMatrix { column: k });
        }
        if pivot_row != k {
            for c in 0..n {
                data.swap(c * n + k, c * n + pivot_row);
            }
            perm.swap(k, pivot_row);
            perm_sign = -perm_sign;
        }
        // Scale the multiplier column.
        let pivot = data[k * n + k];
        for v in &mut data[k * n + k + 1..(k + 1) * n] {
            *v /= pivot;
        }
        // Right-looking rank-1 update of the trailing submatrix, one
        // contiguous column at a time (the multiplier column streams from
        // cache across all target columns).
        let (head, tail) = data.split_at_mut((k + 1) * n);
        let mul = &head[k * n + k + 1..];
        for col in tail.chunks_exact_mut(n) {
            let ukc = col[k];
            if ukc != 0.0 {
                for (x, &m) in col[k + 1..].iter_mut().zip(mul) {
                    *x -= m * ukc;
                }
            }
        }
    }
    Ok(perm_sign)
}

impl LuFactors {
    fn factor(mut a: DenseMatrix) -> Result<Self> {
        if a.rows != a.cols {
            return Err(NumericError::InvalidArgument(format!(
                "LU requires a square matrix, got {}x{}",
                a.rows, a.cols
            )));
        }
        let n = a.rows;
        let mut perm: Vec<usize> = (0..n).collect();
        let perm_sign = factor_in_place(&mut a, &mut perm)?;
        Ok(LuFactors {
            lu: a,
            perm,
            perm_sign,
        })
    }

    /// Allocates an `n x n` factorisation workspace for repeated in-place
    /// refactorisation via [`LuFactors::refactor`]. The workspace starts as
    /// the (trivially factored) identity.
    pub fn workspace(n: usize) -> Self {
        LuFactors {
            lu: DenseMatrix::identity(n),
            perm: (0..n).collect(),
            perm_sign: 1.0,
        }
    }

    /// Numeric refactorisation: copies `a` over the stored factors and
    /// re-runs the elimination entirely in place. Performs **zero heap
    /// allocation**, which makes it the hot-loop path for Newton iterations
    /// that factor a same-sized matrix every pass. Bitwise identical to a
    /// fresh [`DenseMatrix::lu`] of the same matrix.
    ///
    /// # Errors
    ///
    /// * [`NumericError::DimensionMismatch`] if `a` is not the workspace size.
    /// * [`NumericError::InvalidArgument`] if `a` is not square.
    /// * [`NumericError::SingularMatrix`] on pivot breakdown (the workspace
    ///   contents are unspecified afterwards; refactor again before solving).
    pub fn refactor(&mut self, a: &DenseMatrix) -> Result<()> {
        if a.rows != a.cols {
            return Err(NumericError::InvalidArgument(format!(
                "LU requires a square matrix, got {}x{}",
                a.rows, a.cols
            )));
        }
        if a.rows != self.lu.rows {
            return Err(NumericError::DimensionMismatch {
                expected: self.lu.rows,
                actual: a.rows,
            });
        }
        self.lu.data.copy_from_slice(&a.data);
        for (i, p) in self.perm.iter_mut().enumerate() {
            *p = i;
        }
        self.perm_sign = factor_in_place(&mut self.lu, &mut self.perm)?;
        Ok(())
    }

    /// System size.
    pub fn size(&self) -> usize {
        self.lu.rows
    }

    /// The row order of the stored factors: `perm[i]` is the original row
    /// in pivot row `i`.
    pub(crate) fn pivot_order(&self) -> &[usize] {
        &self.perm
    }

    /// Solves `A x = b` using the stored factors.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::DimensionMismatch`] if `b.len() != size()`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let n = self.size();
        if b.len() != n {
            return Err(NumericError::DimensionMismatch {
                expected: n,
                actual: b.len(),
            });
        }
        // Apply permutation: y = P b.
        let mut x: Vec<f64> = self.perm.iter().map(|&p| b[p]).collect();
        self.substitute_in_place(&mut x);
        Ok(x)
    }

    /// Forward/back substitution, column-oriented so each active column of
    /// L/U streams contiguously from the column-major factor storage.
    fn substitute_in_place(&self, x: &mut [f64]) {
        let n = x.len();
        let lu = &self.lu.data;
        // Forward substitution with unit-diagonal L.
        for c in 0..n {
            let xc = x[c];
            if xc != 0.0 {
                let col = &lu[c * n + c + 1..(c + 1) * n];
                for (xr, &l) in x[c + 1..].iter_mut().zip(col) {
                    *xr -= l * xc;
                }
            }
        }
        // Back substitution with U.
        for c in (0..n).rev() {
            let xc = x[c] / lu[c * n + c];
            x[c] = xc;
            if xc != 0.0 {
                let col = &lu[c * n..c * n + c];
                for (xr, &u) in x[..c].iter_mut().zip(col) {
                    *xr -= u * xc;
                }
            }
        }
    }

    /// Solves in place, reusing `b` as the solution buffer (hot path for the
    /// Newton loop; avoids an allocation per iteration).
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::DimensionMismatch`] if `b.len() != size()`.
    pub fn solve_in_place(&self, b: &mut [f64], scratch: &mut Vec<f64>) -> Result<()> {
        let n = self.size();
        if b.len() != n {
            return Err(NumericError::DimensionMismatch {
                expected: n,
                actual: b.len(),
            });
        }
        scratch.clear();
        scratch.extend(self.perm.iter().map(|&p| b[p]));
        self.substitute_in_place(scratch);
        b.copy_from_slice(scratch);
        Ok(())
    }

    /// Determinant of the original matrix (product of U's diagonal times the
    /// permutation sign).
    pub fn det(&self) -> f64 {
        let mut d = self.perm_sign;
        for i in 0..self.size() {
            d *= self.lu.get(i, i);
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_vec_close(a: &[f64], b: &[f64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < tol, "{x} vs {y}");
        }
    }

    #[test]
    fn identity_solve_is_identity() {
        let i = DenseMatrix::identity(4);
        let b = [1.0, -2.0, 3.5, 0.0];
        let x = i.solve(&b).unwrap();
        assert_vec_close(&x, &b, 1e-14);
    }

    #[test]
    fn solve_known_3x3() {
        let a = DenseMatrix::from_rows(&[&[2.0, 1.0, -1.0], &[-3.0, -1.0, 2.0], &[-2.0, 1.0, 2.0]])
            .unwrap();
        let x = a.solve(&[8.0, -11.0, -3.0]).unwrap();
        assert_vec_close(&x, &[2.0, 3.0, -1.0], 1e-12);
    }

    #[test]
    fn solve_requires_pivoting() {
        // Zero on the leading diagonal forces a row swap.
        let a = DenseMatrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        let x = a.solve(&[3.0, 7.0]).unwrap();
        assert_vec_close(&x, &[7.0, 3.0], 1e-14);
    }

    #[test]
    fn singular_matrix_detected() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]).unwrap();
        match a.solve(&[1.0, 2.0]) {
            Err(NumericError::SingularMatrix { .. }) => {}
            other => panic!("expected SingularMatrix, got {other:?}"),
        }
    }

    #[test]
    fn non_square_rejected() {
        let a = DenseMatrix::zeros(2, 3);
        assert!(matches!(a.lu(), Err(NumericError::InvalidArgument(_))));
    }

    #[test]
    fn dimension_mismatch_on_rhs() {
        let a = DenseMatrix::identity(3);
        assert!(matches!(
            a.solve(&[1.0, 2.0]),
            Err(NumericError::DimensionMismatch {
                expected: 3,
                actual: 2
            })
        ));
    }

    #[test]
    fn determinant_of_triangular() {
        let a = DenseMatrix::from_rows(&[&[2.0, 5.0], &[0.0, 3.0]]).unwrap();
        let lu = a.lu().unwrap();
        assert!((lu.det() - 6.0).abs() < 1e-12);
    }

    #[test]
    fn determinant_sign_tracks_permutation() {
        let a = DenseMatrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        let lu = a.lu().unwrap();
        assert!((lu.det() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn matvec_matches_manual() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let y = a.matvec(&[1.0, 1.0]).unwrap();
        assert_vec_close(&y, &[3.0, 7.0], 1e-14);
    }

    #[test]
    fn matvec_dimension_check() {
        let a = DenseMatrix::zeros(2, 2);
        assert!(a.matvec(&[1.0]).is_err());
    }

    #[test]
    fn solve_in_place_matches_solve() {
        let a = DenseMatrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]]).unwrap();
        let lu = a.clone().lu().unwrap();
        let b = [1.0, 2.0];
        let x = lu.solve(&b).unwrap();
        let mut bb = b;
        let mut scratch = Vec::new();
        lu.solve_in_place(&mut bb, &mut scratch).unwrap();
        assert_vec_close(&x, &bb, 1e-14);
    }

    #[test]
    fn refactor_matches_fresh_factor_bitwise() {
        let mut ws = LuFactors::workspace(3);
        for shift in [0.0f64, 0.25, -1.5] {
            let a = DenseMatrix::from_rows(&[
                &[2.0 + shift, 1.0, -1.0],
                &[-3.0, -1.0 + shift, 2.0],
                &[-2.0, 1.0, 2.0 + shift],
            ])
            .unwrap();
            ws.refactor(&a).unwrap();
            let fresh = a.clone().lu().unwrap();
            let b = [8.0, -11.0, -3.0];
            let xw = ws.solve(&b).unwrap();
            let xf = fresh.solve(&b).unwrap();
            for (w, f) in xw.iter().zip(&xf) {
                assert_eq!(w.to_bits(), f.to_bits(), "refactor must be bitwise");
            }
            assert_eq!(ws.det().to_bits(), fresh.det().to_bits());
        }
    }

    #[test]
    fn refactor_rejects_size_mismatch() {
        let mut ws = LuFactors::workspace(2);
        let a = DenseMatrix::identity(3);
        assert!(matches!(
            ws.refactor(&a),
            Err(NumericError::DimensionMismatch {
                expected: 2,
                actual: 3
            })
        ));
        let rect = DenseMatrix::zeros(2, 3);
        assert!(matches!(
            ws.refactor(&rect),
            Err(NumericError::InvalidArgument(_))
        ));
    }

    #[test]
    fn refactor_detects_singular_and_recovers() {
        let mut ws = LuFactors::workspace(2);
        let singular = DenseMatrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]).unwrap();
        assert!(matches!(
            ws.refactor(&singular),
            Err(NumericError::SingularMatrix { .. })
        ));
        // The workspace is reusable after a failed refactor.
        let good = DenseMatrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]]).unwrap();
        ws.refactor(&good).unwrap();
        let x = ws.solve(&[1.0, 2.0]).unwrap();
        let expect = good.solve(&[1.0, 2.0]).unwrap();
        assert_vec_close(&x, &expect, 1e-14);
    }

    #[test]
    fn workspace_starts_as_identity() {
        let ws = LuFactors::workspace(3);
        let x = ws.solve(&[1.0, 2.0, 3.0]).unwrap();
        assert_vec_close(&x, &[1.0, 2.0, 3.0], 1e-14);
    }

    #[test]
    fn stamp_accumulates() {
        let mut m = DenseMatrix::zeros(1, 1);
        m.add(0, 0, 1.0);
        m.add(0, 0, 2.0);
        assert_eq!(m.get(0, 0), 3.0);
        m.clear();
        assert_eq!(m.get(0, 0), 0.0);
    }

    #[test]
    fn norm_inf_max_row_sum() {
        let a = DenseMatrix::from_rows(&[&[1.0, -2.0], &[3.0, 4.0]]).unwrap();
        assert!((a.norm_inf() - 7.0).abs() < 1e-14);
    }

    #[test]
    fn residual_small_for_random_like_system() {
        // Deterministic pseudo-random fill (LCG) keeps the test reproducible
        // without a rand dependency in the unit-test tier.
        let n = 12;
        let mut seed = 0x12345678u64;
        let mut next = || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((seed >> 33) as f64) / (u32::MAX as f64) - 0.5
        };
        let mut a = DenseMatrix::zeros(n, n);
        for r in 0..n {
            for c in 0..n {
                a.set(r, c, next());
            }
            // Diagonal dominance to keep the system well conditioned.
            a.add(r, r, 4.0);
        }
        let b: Vec<f64> = (0..n).map(|_| next()).collect();
        let x = a.solve(&b).unwrap();
        let r = a.matvec(&x).unwrap();
        for (ri, bi) in r.iter().zip(&b) {
            assert!((ri - bi).abs() < 1e-10);
        }
    }
}
