//! The GMRES preconditioner: [`Ilu0`] applies `z = M⁻¹ r`, where `M` is
//! an incomplete LU with zero fill of the system matrix `A` — a sparse
//! `L U ≈ A` whose factors live on exactly the sparsity pattern of `A`,
//! with KLU-style numeric-only [`refactor`](Ilu0::refactor) for
//! value-only updates.
//!
//! # MNA zero diagonals
//!
//! MNA matrices carry structurally zero diagonals on voltage-source
//! branch rows. `Ilu0` inserts the missing diagonal slots into its
//! factor pattern (they fill in naturally during elimination — the Schur
//! complement of the `±1` incidence couple is nonzero), and any pivot
//! that still ends up below the breakdown threshold is *regularised* to
//! the row magnitude instead of failing: a preconditioner only has to be
//! a nonsingular approximation, and GMRES converges against the true
//! operator regardless. The count of regularised pivots is reported via
//! [`Ilu0::replaced_pivots`] so callers can see when the approximation
//! quality degraded.

use crate::sparse::CscMatrix;
use crate::{NumericError, Result};

/// Pivot magnitudes below `row_scale * ILU_PIVOT_RTOL` are regularised.
const ILU_PIVOT_RTOL: f64 = 1e-10;

/// Zero-fill incomplete LU (ILU(0)) preconditioner.
///
/// The factors `L` (unit lower) and `U` (upper) are stored row-major on
/// the pattern of `A` (plus any missing diagonal slots), and the
/// symbolic structure — including the CSC→CSR slot map — is computed
/// once per pattern: [`refactor`](Ilu0::refactor) re-runs only the
/// numeric elimination, mirroring the [`SparseLu`](crate::sparse::SparseLu)
/// refactorisation contract the MNA hot loop is built on.
#[derive(Debug, Clone)]
pub struct Ilu0 {
    /// CSR row pointers over the factor pattern.
    row_ptr: Vec<usize>,
    /// Column indices, ascending within each row.
    col_idx: Vec<usize>,
    /// Slot of the diagonal within each row (structurally guaranteed), so
    /// also the dimension.
    diag: Vec<usize>,
    /// Factor values: strictly-lower slots hold `L`, the rest hold `U`.
    vals: Vec<f64>,
    /// CSR slot for each CSC slot of the source matrix, so also the
    /// source-pattern nonzero count the symbolic analysis belongs to.
    csc_to_csr: Vec<usize>,
    /// Pivots regularised during the last (re)factorisation.
    replaced: usize,
    /// Scatter index of the elimination: column -> slot within the
    /// current row, `usize::MAX` elsewhere. Every row resets the entries
    /// it set, so the index is all `usize::MAX` between factorisations.
    pos: Vec<usize>,
}

impl Ilu0 {
    /// Factors `a` (square) into an ILU(0) preconditioner.
    ///
    /// # Errors
    ///
    /// * [`NumericError::InvalidArgument`] if `a` is not square.
    /// * [`NumericError::NonFinite`] if the elimination produces NaN/∞.
    pub fn factor(a: &CscMatrix) -> Result<Self> {
        if a.rows() != a.cols() {
            return Err(NumericError::InvalidArgument(format!(
                "ilu0 needs a square matrix, got {}x{}",
                a.rows(),
                a.cols()
            )));
        }
        let n = a.cols();
        // Symbolic: CSR copy of the pattern with missing diagonals added.
        let mut entries: Vec<(usize, usize, Option<usize>)> = Vec::with_capacity(a.nnz() + n);
        let mut has_diag = vec![false; n];
        for c in 0..n {
            for p in a.col_range(c) {
                let r = a.row_indices()[p];
                if r == c {
                    has_diag[r] = true;
                }
                entries.push((r, c, Some(p)));
            }
        }
        for (i, present) in has_diag.iter().enumerate() {
            if !present {
                entries.push((i, i, None));
            }
        }
        entries.sort_unstable_by_key(|&(r, c, _)| (r, c));

        let mut row_ptr = vec![0usize; n + 1];
        for &(r, _, _) in &entries {
            row_ptr[r + 1] += 1;
        }
        for i in 0..n {
            row_ptr[i + 1] += row_ptr[i];
        }
        let mut col_idx = vec![0usize; entries.len()];
        let mut diag = vec![usize::MAX; n];
        let mut csc_to_csr = vec![usize::MAX; a.nnz()];
        for (slot, &(r, c, src)) in entries.iter().enumerate() {
            col_idx[slot] = c;
            if r == c {
                diag[r] = slot;
            }
            if let Some(p) = src {
                csc_to_csr[p] = slot;
            }
        }
        debug_assert!(diag.iter().all(|&d| d != usize::MAX));

        let mut ilu = Ilu0 {
            row_ptr,
            col_idx,
            diag,
            vals: vec![0.0; entries.len()],
            csc_to_csr,
            replaced: 0,
            pos: vec![usize::MAX; n],
        };
        ilu.factor_values(a)?;
        Ok(ilu)
    }

    /// Numeric-only refactorisation against a matrix with the *same*
    /// pattern as the one this preconditioner was built from (the MNA
    /// assembler guarantees this within an epoch).
    ///
    /// # Errors
    ///
    /// * [`NumericError::DimensionMismatch`] if the pattern differs.
    /// * [`NumericError::NonFinite`] if the elimination produces NaN/∞.
    pub fn refactor(&mut self, a: &CscMatrix) -> Result<()> {
        let (n, nnz) = (self.diag.len(), self.csc_to_csr.len());
        if a.rows() != n || a.cols() != n || a.nnz() != nnz {
            return Err(NumericError::DimensionMismatch {
                expected: nnz,
                actual: a.nnz(),
            });
        }
        self.factor_values(a)
    }

    /// Pivots regularised (zero-diagonal replacement) during the last
    /// factorisation — a preconditioner-quality diagnostic.
    pub fn replaced_pivots(&self) -> usize {
        self.replaced
    }

    /// Stored factor entries (the ILU(0) pattern size).
    pub fn factor_nnz(&self) -> usize {
        self.vals.len()
    }

    /// The dimension `n` of the factored matrix.
    pub fn dim(&self) -> usize {
        self.diag.len()
    }

    /// `z = U⁻¹ L⁻¹ r` — one forward and one backward sparse triangular
    /// sweep over the factor pattern.
    ///
    /// # Panics
    ///
    /// If `r` and `z` differ in length or are shorter than
    /// [`dim`](Self::dim).
    pub fn apply(&self, r: &[f64], z: &mut [f64]) {
        z.copy_from_slice(r);
        let n = self.diag.len();
        // Forward: L has unit diagonal, strictly-lower slots hold L.
        for i in 0..n {
            let mut acc = z[i];
            for p in self.row_ptr[i]..self.diag[i] {
                acc -= self.vals[p] * z[self.col_idx[p]];
            }
            z[i] = acc;
        }
        // Backward: diagonal and upper slots hold U.
        for i in (0..n).rev() {
            let mut acc = z[i];
            for p in self.diag[i] + 1..self.row_ptr[i + 1] {
                acc -= self.vals[p] * z[self.col_idx[p]];
            }
            z[i] = acc / self.vals[self.diag[i]];
        }
    }

    /// Scatters the CSC values into the CSR factor slots and runs the
    /// pattern-restricted IKJ elimination.
    fn factor_values(&mut self, a: &CscMatrix) -> Result<()> {
        self.vals.iter_mut().for_each(|v| *v = 0.0);
        for (csc_slot, &csr_slot) in self.csc_to_csr.iter().enumerate() {
            self.vals[csr_slot] = a.values()[csc_slot];
        }
        self.replaced = 0;
        let pos = &mut self.pos;
        for i in 0..self.diag.len() {
            let row = self.row_ptr[i]..self.row_ptr[i + 1];
            for p in row.clone() {
                pos[self.col_idx[p]] = p;
            }
            for p in row.clone() {
                let k = self.col_idx[p];
                if k >= i {
                    break;
                }
                let lik = self.vals[p] / self.vals[self.diag[k]];
                self.vals[p] = lik;
                if lik == 0.0 {
                    continue;
                }
                for q in self.diag[k] + 1..self.row_ptr[k + 1] {
                    let t = pos[self.col_idx[q]];
                    if t != usize::MAX {
                        self.vals[t] -= lik * self.vals[q];
                    }
                }
            }
            // Reset before the pivot check, so an early return leaves the
            // index clean for the next factorisation.
            for p in row.clone() {
                pos[self.col_idx[p]] = usize::MAX;
            }
            let d = self.vals[self.diag[i]];
            if !d.is_finite() {
                return Err(NumericError::NonFinite {
                    context: format!("ilu0 pivot at row {i}"),
                });
            }
            let scale = row.map(|p| self.vals[p].abs()).fold(0.0f64, f64::max);
            if d.abs() <= scale * ILU_PIVOT_RTOL || d == 0.0 {
                // Regularise instead of breaking down (module docs).
                self.vals[self.diag[i]] = if scale > 0.0 { scale } else { 1.0 };
                self.replaced += 1;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::TripletMatrix;

    fn laplacian_1d(n: usize) -> CscMatrix {
        let mut t = TripletMatrix::new(n, n);
        for i in 0..n {
            t.push(i, i, 2.1);
            if i > 0 {
                t.push(i, i - 1, -1.0);
            }
            if i + 1 < n {
                t.push(i, i + 1, -1.0);
            }
        }
        t.to_csc()
    }

    /// On a matrix whose LU has no fill (tridiagonal), ILU(0) is an exact
    /// factorisation: applying it must solve the system.
    #[test]
    fn ilu0_exact_on_tridiagonal() {
        let a = laplacian_1d(12);
        let ilu = Ilu0::factor(&a).unwrap();
        assert_eq!(ilu.replaced_pivots(), 0);
        let x_true: Vec<f64> = (0..12).map(|i| (i as f64 * 0.7).sin()).collect();
        let b = a.matvec(&x_true).unwrap();
        let mut z = vec![0.0; 12];
        ilu.apply(&b, &mut z);
        for (zi, xi) in z.iter().zip(&x_true) {
            assert!((zi - xi).abs() < 1e-12, "{zi} vs {xi}");
        }
    }

    /// Same-pattern refactor must reproduce a from-scratch factorisation
    /// bitwise (the hot-loop reuse contract).
    #[test]
    fn ilu0_refactor_matches_fresh_bitwise() {
        let a = laplacian_1d(9);
        let mut ilu = Ilu0::factor(&a).unwrap();
        // Rebuild the same pattern with different values.
        let mut t = TripletMatrix::new(9, 9);
        for i in 0..9 {
            t.push(i, i, 3.3);
            if i > 0 {
                t.push(i, i - 1, -1.4);
            }
            if i + 1 < 9 {
                t.push(i, i + 1, -0.6);
            }
        }
        let a2 = t.to_csc();
        ilu.refactor(&a2).unwrap();
        let fresh = Ilu0::factor(&a2).unwrap();
        let bits =
            |f: &Ilu0| -> Vec<u64> { f.vals.iter().map(|v| v.to_bits()).collect::<Vec<_>>() };
        assert_eq!(bits(&ilu), bits(&fresh));
    }

    #[test]
    fn ilu0_refactor_rejects_different_pattern() {
        let a = laplacian_1d(5);
        let mut ilu = Ilu0::factor(&a).unwrap();
        let b = laplacian_1d(6);
        assert!(matches!(
            ilu.refactor(&b),
            Err(NumericError::DimensionMismatch { .. })
        ));
    }

    /// An MNA-style saddle block (voltage source row with structurally
    /// zero diagonal) must factor without breakdown: the inserted
    /// diagonal slot fills in through the Schur complement.
    #[test]
    fn ilu0_handles_mna_zero_diagonal() {
        // [ g   0   1 ]   node 0 (source node, g to ground)
        // [ 0   g  -0 ]   node 1
        // [ 1   0   0 ]   branch row: v0 = V
        let mut t = TripletMatrix::new(3, 3);
        t.push(0, 0, 1e-3);
        t.push(1, 1, 2e-3);
        t.push(0, 2, 1.0);
        t.push(2, 0, 1.0);
        let a = t.to_csc();
        let ilu = Ilu0::factor(&a).unwrap();
        // The branch pivot fills to -1/g: nothing needed regularising.
        assert_eq!(ilu.replaced_pivots(), 0);
        // Pattern has no upper fill beyond (0,2), so ILU(0) is exact here.
        let b = [2.0, 4.0, 2000.0];
        let mut z = vec![0.0; 3];
        ilu.apply(&b, &mut z);
        let ax = a.matvec(&z).unwrap();
        for (axi, bi) in ax.iter().zip(&b) {
            assert!((axi - bi).abs() < 1e-9 * bi.abs().max(1.0), "{axi} vs {bi}");
        }
    }

    /// A hopeless row (all zeros) regularises instead of dividing by zero.
    #[test]
    fn ilu0_regularises_empty_row() {
        let mut t = TripletMatrix::new(2, 2);
        t.push(0, 0, 1.0);
        // Row 1 entirely structural-zero.
        let a = t.to_csc();
        let ilu = Ilu0::factor(&a).unwrap();
        assert_eq!(ilu.replaced_pivots(), 1);
        let mut z = vec![0.0; 2];
        ilu.apply(&[1.0, 1.0], &mut z);
        assert!(z.iter().all(|v| v.is_finite()));
    }
}
