//! Sparse LU factors cached across the solves of a Newton loop.
//!
//! Every sparse direct solve in the simulator — the MNA sparse backend
//! and the GMRES backend's LU fallback — assembles a matrix of one fixed
//! pattern again and again, and climbs the same ladder to factor it.
//! [`SparseFactorCache`] is that ladder, kept in one place so the two
//! callers cannot drift apart.

use super::{CscMatrix, SparseLu};
use crate::{NumericError, Result};

/// The rung of the ladder a [`SparseFactorCache::factor`] call ended on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FactorStep {
    /// The matrix equals, bit for bit, the one the cached factors came
    /// from, so they are used as they are: no numeric work at all.
    Reused,
    /// Numeric-only refactorisation along the cached symbolic analysis
    /// and frozen pivot order.
    Refactored,
    /// Full factorisation: symbolic analysis, pivot search and numeric.
    Full,
}

/// What one [`SparseFactorCache::factor`] call did.
#[derive(Debug)]
pub struct FactorReport {
    /// The rung that produced the factors, or the factorisation error.
    pub step: Result<FactorStep>,
    /// A refactorisation was rejected for pivot degradation and retried
    /// as a full factorisation. Set even when that retry then failed.
    pub pivot_fallback: bool,
}

/// Sparse LU factors, the pattern epoch they belong to and the values
/// they were computed from, reused across same-pattern solves.
///
/// [`factor`](SparseFactorCache::factor) climbs one ladder:
///
/// 1. **reuse** — reuse is on, the epoch is unchanged and every value
///    equals, bit for bit, those of the last *successful* factorisation:
///    the cached factors stand. Refactoring identical values along the
///    same frozen pivots would recompute identical factors, so skipping
///    it changes no output bit. (`-0.0` and `0.0` differ in their bits and
///    so count as a change.)
/// 2. **refactor** — reuse is on and the epoch is unchanged: a
///    numeric-only [`SparseLu::refactor`]. A degraded or singular frozen
///    pivot falls through to the next rung.
/// 3. **full** — [`CscMatrix::lu`] with fresh pivoting; on success its
///    factors and `epoch` become the cache.
///
/// Any failed call drops the reuse snapshot, so a later call never
/// solves with factors a failed attempt left half-written; the symbolic
/// analysis stays for the next refactorisation.
///
/// # Example
///
/// ```
/// use sfet_numeric::sparse::{FactorStep, SparseFactorCache, TripletMatrix};
///
/// # fn main() -> Result<(), sfet_numeric::NumericError> {
/// let mut t = TripletMatrix::new(2, 2);
/// t.push(0, 0, 4.0);
/// t.push(1, 1, 2.0);
/// let a = t.to_csc();
/// let mut cache = SparseFactorCache::new(true);
/// assert_eq!(cache.factor(&a, 1).step?, FactorStep::Full);
/// assert_eq!(cache.factor(&a, 1).step?, FactorStep::Reused);
/// let mut b = vec![8.0, 4.0];
/// cache.solve_in_place(&mut b, &mut Vec::new())?;
/// assert_eq!(b, [2.0, 2.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SparseFactorCache {
    reuse: bool,
    lu: Option<SparseLu>,
    /// Pattern epoch the cached symbolic analysis belongs to.
    epoch: u64,
    /// The last call succeeded: `lu` holds the factors of its matrix.
    valid: bool,
    /// Values of the last successful factorisation (kept only with reuse
    /// on; meaningful only while `valid`).
    values: Vec<f64>,
}

impl SparseFactorCache {
    /// An empty cache. `reuse` enables the reuse and refactor rungs;
    /// without it every call is a full factorisation.
    pub fn new(reuse: bool) -> Self {
        SparseFactorCache {
            reuse,
            lu: None,
            epoch: 0,
            valid: false,
            values: Vec::new(),
        }
    }

    /// Factors `a`, whose sparsity pattern is identified by `epoch` (a
    /// [`CscAssembler`](super::CscAssembler) epoch: equal epochs mean an
    /// identical pattern), climbing the ladder described on the type.
    pub fn factor(&mut self, a: &CscMatrix, epoch: u64) -> FactorReport {
        let mut pivot_fallback = false;
        let step = self.climb(a, epoch, &mut pivot_fallback);
        self.valid = step.is_ok();
        if self.reuse && matches!(step, Ok(FactorStep::Refactored | FactorStep::Full)) {
            self.values.clear();
            self.values.extend_from_slice(a.values());
        }
        FactorReport {
            step,
            pivot_fallback,
        }
    }

    fn climb(
        &mut self,
        a: &CscMatrix,
        epoch: u64,
        pivot_fallback: &mut bool,
    ) -> Result<FactorStep> {
        if self.reuse && self.epoch == epoch {
            if let Some(lu) = self.lu.as_mut() {
                if self.valid && same_bits(a.values(), &self.values) {
                    return Ok(FactorStep::Reused);
                }
                match lu.refactor(a) {
                    Ok(()) => return Ok(FactorStep::Refactored),
                    // The frozen pivot order went bad; the full
                    // factorisation below re-pivots.
                    Err(NumericError::PivotDegraded { .. }) => *pivot_fallback = true,
                    // Singular under the frozen order; the full
                    // factorisation gets to try other pivots.
                    Err(NumericError::SingularMatrix { .. }) => {}
                    Err(e) => return Err(e),
                }
            }
        }
        self.lu = Some(a.lu()?);
        self.epoch = epoch;
        Ok(FactorStep::Full)
    }

    /// Whether the reuse rung is open: reuse is on and the last
    /// [`factor`](SparseFactorCache::factor) call succeeded. A caller that
    /// knows its next matrix repeats that call's, bit for bit and on the
    /// same pattern, may then skip assembling it and
    /// [`solve_in_place`](SparseFactorCache::solve_in_place) at once: the
    /// `factor` call it skips would have reused the factors.
    pub fn holds_factors(&self) -> bool {
        self.reuse && self.valid
    }

    /// Stored factor entries (L + U) of the cached factors; `0` before
    /// the first successful factorisation.
    pub fn factor_nnz(&self) -> usize {
        self.lu.as_ref().map_or(0, SparseLu::factor_nnz)
    }

    /// Solves `A x = b` in place with the factors of the last
    /// [`factor`](SparseFactorCache::factor) call. `scratch` is reused
    /// across calls, as in [`SparseLu::solve_in_place`].
    ///
    /// # Errors
    ///
    /// [`NumericError::InvalidArgument`] when the last `factor` call
    /// failed or none was made; [`NumericError::DimensionMismatch`] if
    /// `b` does not match the system size.
    pub fn solve_in_place(&self, b: &mut [f64], scratch: &mut Vec<f64>) -> Result<()> {
        match &self.lu {
            Some(lu) if self.valid => lu.solve_in_place(b, scratch),
            _ => Err(NumericError::InvalidArgument(
                "sparse solve without a successful factorisation".into(),
            )),
        }
    }
}

/// Bitwise equality of two value arrays (so `-0.0 != 0.0`, and a NaN
/// equals only the identical NaN).
fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

#[cfg(test)]
mod tests {
    use super::super::CscAssembler;
    use super::*;

    /// Assembles a 3×3 tridiagonal matrix whose diagonal is `d`.
    fn assemble(asm: &mut CscAssembler, d: [f64; 3]) -> u64 {
        asm.begin();
        for (i, &v) in d.iter().enumerate() {
            asm.add(i, i, v);
            if i + 1 < 3 {
                asm.add(i, i + 1, -1.0);
                asm.add(i + 1, i, -1.0);
            }
        }
        asm.finish();
        asm.epoch()
    }

    fn solve(cache: &SparseFactorCache) -> Vec<u64> {
        let mut b = vec![1.0, -0.5, 0.25];
        cache.solve_in_place(&mut b, &mut Vec::new()).unwrap();
        b.iter().map(|v| v.to_bits()).collect()
    }

    fn step(cache: &mut SparseFactorCache, asm: &mut CscAssembler, d: [f64; 3]) -> FactorStep {
        let epoch = assemble(asm, d);
        cache
            .factor(asm.matrix().unwrap(), epoch)
            .step
            .expect("factors")
    }

    #[test]
    fn identical_values_reuse_and_solve_bitwise() {
        let d = [4.0, 3.5, 5.0];
        let mut asm = CscAssembler::new(3, 3);
        let mut cache = SparseFactorCache::new(true);
        assert_eq!(step(&mut cache, &mut asm, d), FactorStep::Full);
        let first = solve(&cache);
        assert_eq!(step(&mut cache, &mut asm, d), FactorStep::Reused);
        assert_eq!(solve(&cache), first);
        // The reference: a cache that factors the same values afresh.
        let mut fresh = SparseFactorCache::new(false);
        assert_eq!(step(&mut fresh, &mut asm, d), FactorStep::Full);
        assert_eq!(solve(&fresh), first);
    }

    #[test]
    fn one_changed_bit_refactors() {
        let mut asm = CscAssembler::new(3, 3);
        let mut cache = SparseFactorCache::new(true);
        let d = [4.0, 3.5, 5.0];
        assert_eq!(step(&mut cache, &mut asm, d), FactorStep::Full);
        let nudged = [4.0, f64::from_bits(3.5f64.to_bits() + 1), 5.0];
        assert_eq!(step(&mut cache, &mut asm, nudged), FactorStep::Refactored);
        assert_eq!(step(&mut cache, &mut asm, nudged), FactorStep::Reused);
        assert_eq!(step(&mut cache, &mut asm, d), FactorStep::Refactored);
    }

    #[test]
    fn signed_zero_counts_as_a_change() {
        let mut asm = CscAssembler::new(2, 2);
        asm.begin();
        asm.add(0, 0, 2.0);
        asm.add(0, 1, 0.0); // kept as a structural zero
        asm.add(1, 0, 1.0);
        asm.add(1, 1, 3.0);
        let plus = asm.finish().clone();
        let mut minus = plus.clone();
        for v in minus.values_mut().iter_mut().filter(|v| **v == 0.0) {
            *v = -0.0;
        }
        let mut cache = SparseFactorCache::new(true);
        let mut run = |a: &CscMatrix| cache.factor(a, 1).step.unwrap();
        assert_eq!(run(&plus), FactorStep::Full);
        assert_eq!(run(&minus), FactorStep::Refactored);
        assert_eq!(run(&minus), FactorStep::Reused);
        assert_eq!(run(&plus), FactorStep::Refactored);
    }

    #[test]
    fn failure_clears_the_reuse_snapshot() {
        let mut asm = CscAssembler::new(3, 3);
        let mut cache = SparseFactorCache::new(true);
        assert_eq!(
            step(&mut cache, &mut asm, [4.0, 3.5, 5.0]),
            FactorStep::Full
        );
        // Diagonal 1, 2, 1 with -1 off-diagonals, a path-graph
        // Laplacian: every row sums to zero, and the small integers keep
        // the elimination exact, so every rung hits an exactly zero pivot.
        let singular = [1.0, 2.0, 1.0];
        for _ in 0..2 {
            let epoch = assemble(&mut asm, singular);
            let report = cache.factor(asm.matrix().unwrap(), epoch);
            assert!(
                matches!(report.step, Err(NumericError::SingularMatrix { .. })),
                "the same singular matrix must fail again, not reuse: {:?}",
                report.step
            );
            let mut b = vec![1.0; 3];
            assert!(cache.solve_in_place(&mut b, &mut Vec::new()).is_err());
        }
        // Recovery keeps the symbolic analysis: a numeric refactor.
        assert_eq!(
            step(&mut cache, &mut asm, [4.0, 3.5, 5.0]),
            FactorStep::Refactored
        );
    }

    #[test]
    fn without_reuse_every_call_is_full() {
        let mut asm = CscAssembler::new(3, 3);
        let mut cache = SparseFactorCache::new(false);
        for _ in 0..3 {
            assert_eq!(
                step(&mut cache, &mut asm, [4.0, 3.5, 5.0]),
                FactorStep::Full
            );
        }
    }

    #[test]
    fn epoch_change_forces_full_factorisation() {
        let mut asm = CscAssembler::new(3, 3);
        let mut cache = SparseFactorCache::new(true);
        let d = [4.0, 3.5, 5.0];
        let epoch = assemble(&mut asm, d);
        let a = asm.matrix().unwrap();
        assert_eq!(cache.factor(a, epoch).step.unwrap(), FactorStep::Full);
        assert_eq!(cache.factor(a, epoch).step.unwrap(), FactorStep::Reused);
        assert_eq!(cache.factor(a, epoch + 1).step.unwrap(), FactorStep::Full);
        assert_eq!(cache.factor(a, epoch + 1).step.unwrap(), FactorStep::Reused);
    }

    #[test]
    fn pivot_degradation_is_reported_and_recovers() {
        let mut asm = CscAssembler::new(2, 2);
        let mut cache = SparseFactorCache::new(true);
        let mut run = |a00: f64| {
            asm.begin();
            asm.add(0, 0, a00);
            asm.add(1, 0, 1.0);
            asm.add(0, 1, 1.0);
            asm.add(1, 1, 10.0);
            asm.finish();
            cache.factor(asm.matrix().unwrap(), asm.epoch())
        };
        let first = run(10.0);
        assert_eq!(first.step.unwrap(), FactorStep::Full);
        assert!(!first.pivot_fallback);
        let collapsed = run(1e-9);
        assert!(collapsed.pivot_fallback);
        assert_eq!(collapsed.step.unwrap(), FactorStep::Full);
    }
}
