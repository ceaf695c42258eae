//! Batched structure-of-arrays (SoA) linear-solver backends for lockstep
//! parameter sweeps.
//!
//! Monte-Carlo and design-space sweeps solve B *structurally identical*
//! systems that differ only in a handful of stamped values. The backends
//! here evaluate B lanes per pass over an interleaved lane-minor layout
//! (entry `(r, c)` of lane `l` lives at `[(c*n + r)*lanes + l]`), so the
//! inner elimination loops stream all lanes of an entry contiguously and
//! auto-vectorise, while each lane still executes *exactly* the scalar
//! sequence of floating-point operations.
//!
//! # Determinism contract
//!
//! Every lane's factor and solution is **bitwise identical** to what the
//! scalar backends ([`crate::dense::LuFactors`], [`crate::sparse::SparseLu`])
//! produce for the same stamps:
//!
//! * value-dependent control flow (pivot selection, row swaps, the sparse
//!   refactor-vs-full decision) runs lane-*outer*, per lane, exactly as in
//!   the scalar code;
//! * value-independent skip guards (`if ukc != 0.0`) become per-lane select
//!   forms, which are bitwise equal to skipping because skipping a
//!   subtraction of the exact value `x - m*0.0`-style is only equal in
//!   *value*, not in signed-zero corner cases — so the guarded entry is
//!   left untouched, never recomputed;
//! * the sparse backends share only the *value-independent* assembler
//!   pattern across lanes (see [`CscAssembler::finish_adopting`]); pivot
//!   orders are value-dependent, so every lane keeps its own
//!   [`SparseFactorCache`] and makes its own reuse/refactor/full/fallback
//!   decisions.
//!
//! A failed lane (singular matrix, degraded pivot with failed recovery)
//! never stalls or perturbs its siblings: dead lanes keep computing benign
//! lane-local garbage (IEEE-754 `inf`/`NaN` arithmetic does not trap) and
//! only the first error per lane is reported via [`LaneReport`].

use crate::dense::SINGULARITY_EPS;
use crate::sparse::{CscAssembler, FactorStep, SparseFactorCache};
use crate::{NumericError, Result};

/// Per-lane outcome of one [`BatchBackend::factor_solve`] round.
///
/// The flags mirror the scalar solver-stats protocol exactly — including
/// its quirks: `pivot_fallback` can be `true` on a lane whose `result` is
/// an error (the scalar path counts the fallback *before* attempting the
/// full factorisation that then fails), and `pattern_epoch` is reported
/// even on factor errors (the scalar path assigns `pattern_rebuilds`
/// before factoring).
#[derive(Debug)]
pub struct LaneReport {
    /// `Ok` when the lane factored and solved; the first error otherwise.
    /// Inactive lanes report `Ok` with every flag clear.
    pub result: Result<()>,
    /// The lane performed a full (re-pivoting) factorisation.
    pub full_factorization: bool,
    /// The lane ran a numeric-only refactorisation along its cached
    /// symbolic analysis (sparse only). A lane whose matrix was unchanged
    /// solves with its cached factors and sets neither this flag nor
    /// `full_factorization`.
    pub refactorization: bool,
    /// The lane's numeric refactorisation was rejected for pivot
    /// degradation and retried as a full factorisation (sparse only).
    pub pivot_fallback: bool,
    /// Assembler pattern epoch after this round (sparse backend);
    /// `0` on the dense backend.
    pub pattern_epoch: u64,
    /// Stored factor entries of the factors the lane solved with (`n*n`
    /// on the dense backend); `0` when the lane did not get factors.
    pub factor_nnz: usize,
}

impl LaneReport {
    fn clear() -> Self {
        LaneReport {
            result: Ok(()),
            full_factorization: false,
            refactorization: false,
            pivot_fallback: false,
            pattern_epoch: 0,
            factor_nnz: 0,
        }
    }
}

/// A batched MNA linear-solver backend: B same-structure systems stamped
/// and solved in lockstep.
///
/// The right-hand-side layout is lane-*contiguous*: lane `l`'s system
/// occupies `rhs[l*n .. (l+1)*n]`, so callers keep one ordinary slice per
/// lane. (The internal factor storage is lane-minor; see the module docs.)
///
/// The `active` mask passed to [`BatchBackend::factor_solve`] must be the
/// same one given to the preceding [`BatchBackend::begin`]: backends may
/// compact active lanes into dense storage slots at `begin` time so the
/// elimination cost tracks the number of *active* lanes, not the batch
/// width — desynchronised sweeps (lanes finishing or retrying at
/// different rounds) would otherwise pay full-width factor cost per round.
pub trait BatchBackend {
    /// Number of lanes evaluated per pass.
    fn lanes(&self) -> usize;
    /// System size (unknowns per lane).
    fn n(&self) -> usize;
    /// Begins a fresh assembly round for the lanes flagged in `active`.
    fn begin(&mut self, active: &[bool]);
    /// Accumulates `v` at `(r, c)` of `lane`'s system — the stamp
    /// primitive. The lane must be active in the current round.
    fn add(&mut self, lane: usize, r: usize, c: usize, v: f64);
    /// Factors every active lane and solves its system in place:
    /// `rhs[l*n..(l+1)*n]` is overwritten with lane `l`'s solution.
    /// Returns one [`LaneReport`] per lane (inactive lanes report a
    /// cleared `Ok`).
    fn factor_solve(&mut self, rhs: &mut [f64], active: &[bool]) -> Vec<LaneReport>;
}

/// Batched dense LU with partial pivoting over a lane-minor SoA layout.
///
/// Each lane's elimination is the scalar `factor_in_place` algorithm from
/// [`crate::dense`]: same pivot scan (strict `>`, first occurrence wins),
/// same singularity threshold, same update order — so every lane is
/// bitwise identical to a scalar [`crate::dense::LuFactors::refactor`] of
/// the same stamps.
///
/// Active lanes are compacted into contiguous storage *slots* at
/// [`BatchBackend::begin`] time, so a round with `na` active lanes costs
/// `O(n³·na)` — never `O(n³·lanes)` — and the lane-inner elimination
/// loops still stream contiguously for auto-vectorisation. (Bitwise
/// identity is unaffected: each lane's arithmetic sequence is independent
/// of where its entries live.)
#[derive(Debug)]
pub struct BatchDense {
    n: usize,
    lanes: usize,
    /// Stamp accumulator, slot-minor: `(r, c)` of the lane in slot `s` at
    /// `a[(c*n + r)*na + s]`, where `na` is this round's active count.
    a: Vec<f64>,
    /// Factor storage, same layout.
    lu: Vec<f64>,
    /// Row permutations, `perm[l*n + i]` = original row in pivot row `i`
    /// (indexed by *lane*, so retrying lanes keep their slots stable-free).
    perm: Vec<usize>,
    /// Per-slot pivot values for the current column.
    piv: Vec<f64>,
    /// Per-slot `U(k, c)` values for the current update column.
    ukc: Vec<f64>,
    /// Lane-local substitution scratch.
    scratch: Vec<f64>,
    /// Lane → storage slot for the current round (`usize::MAX` inactive).
    slots: Vec<usize>,
    /// Storage slot → lane for the current round.
    order: Vec<usize>,
}

impl BatchDense {
    /// Creates a batched dense backend for `lanes` systems of `n` unknowns.
    ///
    /// # Panics
    ///
    /// Panics if `lanes == 0`.
    pub fn new(n: usize, lanes: usize) -> Self {
        assert!(lanes > 0, "a batch needs at least one lane");
        BatchDense {
            n,
            lanes,
            a: vec![0.0; n * n * lanes],
            lu: vec![0.0; n * n * lanes],
            perm: (0..lanes).flat_map(|_| 0..n).collect(),
            piv: vec![1.0; lanes],
            ukc: vec![0.0; lanes],
            scratch: vec![0.0; n],
            slots: vec![usize::MAX; lanes],
            order: Vec::with_capacity(lanes),
        }
    }
}

impl BatchBackend for BatchDense {
    fn lanes(&self) -> usize {
        self.lanes
    }

    fn n(&self) -> usize {
        self.n
    }

    fn begin(&mut self, active: &[bool]) {
        assert_eq!(active.len(), self.lanes, "one active flag per lane");
        self.order.clear();
        for (l, &on) in active.iter().enumerate() {
            self.slots[l] = if on {
                self.order.push(l);
                self.order.len() - 1
            } else {
                usize::MAX
            };
        }
        let used = self.n * self.n * self.order.len();
        self.a[..used].iter_mut().for_each(|v| *v = 0.0);
    }

    #[inline]
    fn add(&mut self, lane: usize, r: usize, c: usize, v: f64) {
        debug_assert!(lane < self.lanes && r < self.n && c < self.n);
        let s = self.slots[lane];
        debug_assert!(s != usize::MAX, "stamping an inactive lane");
        self.a[(c * self.n + r) * self.order.len() + s] += v;
    }

    fn factor_solve(&mut self, rhs: &mut [f64], active: &[bool]) -> Vec<LaneReport> {
        let n = self.n;
        let nl = self.lanes;
        assert_eq!(rhs.len(), n * nl, "rhs must be lanes * n long");
        assert_eq!(active.len(), nl, "one active flag per lane");
        let mut reports: Vec<LaneReport> = (0..nl).map(|_| LaneReport::clear()).collect();
        // Compacted width: this round's active-lane count, as fixed by the
        // matching `begin` call.
        let na = self.order.len();
        debug_assert!(
            active
                .iter()
                .enumerate()
                .all(|(l, &on)| on == (self.slots[l] != usize::MAX)),
            "the active mask must match the one passed to begin()"
        );
        if na == 0 {
            return reports;
        }
        let used = n * n * na;

        // Refactor semantics: copy the stamps and reset the permutations.
        self.lu[..used].copy_from_slice(&self.a[..used]);
        for &l in &self.order {
            for (i, p) in self.perm[l * n..(l + 1) * n].iter_mut().enumerate() {
                *p = i;
            }
        }

        let lu = &mut self.lu[..used];
        for k in 0..n {
            // Slot-outer pivot selection, swap, and singularity check —
            // the value-dependent control flow, transcribed per lane from
            // the scalar elimination.
            for (s, &l) in self.order.iter().enumerate() {
                let diag = (k * n + k) * na + s;
                if reports[l].result.is_err() {
                    // Dead lane: force a benign pivot so the vectorised
                    // phases below never divide by zero on this slot.
                    if lu[diag] == 0.0 {
                        lu[diag] = 1.0;
                    }
                    self.piv[s] = lu[diag];
                    continue;
                }
                let mut pivot_row = k;
                let mut pivot_val = lu[diag].abs();
                for off in 1..(n - k) {
                    let v = lu[diag + off * na].abs();
                    if v > pivot_val {
                        pivot_val = v;
                        pivot_row = k + off;
                    }
                }
                if pivot_val < SINGULARITY_EPS {
                    reports[l].result = Err(NumericError::SingularMatrix { column: k });
                    lu[diag] = 1.0;
                    self.piv[s] = 1.0;
                    continue;
                }
                if pivot_row != k {
                    for c in 0..n {
                        lu.swap((c * n + k) * na + s, (c * n + pivot_row) * na + s);
                    }
                    self.perm.swap(l * n + k, l * n + pivot_row);
                }
                self.piv[s] = lu[diag];
            }
            // Scale the multiplier column: slot-inner, vectorisable.
            for r in (k + 1)..n {
                let row = &mut lu[(k * n + r) * na..(k * n + r + 1) * na];
                for (v, &p) in row.iter_mut().zip(&self.piv[..na]) {
                    *v /= p;
                }
            }
            // Right-looking rank-1 update of the trailing submatrix. The
            // scalar skip guard (`if ukc != 0.0`) becomes a per-slot
            // select that leaves the entry untouched, which is bitwise
            // equal to the scalar skip. Lanes in one batch usually share
            // a circuit topology, so their zero patterns align: when every
            // lane's `U(k, c)` is zero the whole column skips (exactly as
            // each scalar twin would), and when none is zero the select
            // drops out and the inner loop runs branch-free.
            let (head, tail) = lu.split_at_mut((k + 1) * n * na);
            let mul = &head[(k * n + k + 1) * na..];
            for col in tail.chunks_exact_mut(n * na) {
                let ukc = &mut self.ukc[..na];
                ukc.copy_from_slice(&col[k * na..(k + 1) * na]);
                let (mut any, mut all) = (false, true);
                for &u in ukc.iter() {
                    any |= u != 0.0;
                    all &= u != 0.0;
                }
                if !any {
                    continue;
                }
                if all {
                    for r in (k + 1)..n {
                        let row = &mut col[r * na..(r + 1) * na];
                        let mrow = &mul[(r - (k + 1)) * na..(r - k) * na];
                        for s in 0..na {
                            row[s] -= mrow[s] * ukc[s];
                        }
                    }
                } else {
                    for r in (k + 1)..n {
                        let row = &mut col[r * na..(r + 1) * na];
                        let mrow = &mul[(r - (k + 1)) * na..(r - k) * na];
                        for s in 0..na {
                            let u = ukc[s];
                            row[s] = if u != 0.0 {
                                row[s] - mrow[s] * u
                            } else {
                                row[s]
                            };
                        }
                    }
                }
            }
        }

        // Per-lane permuted forward/back substitution — the scalar
        // `solve_in_place` transcribed onto the strided factor storage.
        for (s, &l) in self.order.iter().enumerate() {
            if reports[l].result.is_err() {
                continue;
            }
            reports[l].full_factorization = true;
            reports[l].factor_nnz = n * n;
            let b = &mut rhs[l * n..(l + 1) * n];
            for i in 0..n {
                self.scratch[i] = b[self.perm[l * n + i]];
            }
            for c in 0..n {
                let xc = self.scratch[c];
                if xc != 0.0 {
                    for r in (c + 1)..n {
                        self.scratch[r] -= lu[(c * n + r) * na + s] * xc;
                    }
                }
            }
            for c in (0..n).rev() {
                let xc = self.scratch[c] / lu[(c * n + c) * na + s];
                self.scratch[c] = xc;
                if xc != 0.0 {
                    for r in 0..c {
                        self.scratch[r] -= lu[(c * n + r) * na + s] * xc;
                    }
                }
            }
            b.copy_from_slice(&self.scratch);
        }
        reports
    }
}

/// Batched sparse LU: per-lane Gilbert–Peierls factors over a *shared*
/// assembler pattern.
///
/// The first active lane compiles the stamp-sequence → CSC pattern; every
/// other lane adopts it ([`CscAssembler::finish_adopting`]), skipping the
/// per-lane sort-and-compile. Pivot orders are value-dependent, so each
/// lane keeps its own [`SparseFactorCache`] and climbs the scalar
/// reuse / refactor / full-factorisation ladder independently — which is
/// what keeps every lane bitwise identical to a scalar run.
#[derive(Debug)]
pub struct BatchSparse {
    n: usize,
    lanes: usize,
    asms: Vec<CscAssembler>,
    caches: Vec<SparseFactorCache>,
    scratch: Vec<f64>,
}

impl BatchSparse {
    /// Creates a batched sparse backend for `lanes` systems of `n`
    /// unknowns. `reuse` enables factor reuse and the numeric-only
    /// refactorisation path, exactly like the scalar MNA engine's
    /// `reuse_factorization`.
    ///
    /// # Panics
    ///
    /// Panics if `lanes == 0`.
    pub fn new(n: usize, lanes: usize, reuse: bool) -> Self {
        assert!(lanes > 0, "a batch needs at least one lane");
        BatchSparse {
            n,
            lanes,
            asms: (0..lanes).map(|_| CscAssembler::new(n, n)).collect(),
            caches: (0..lanes).map(|_| SparseFactorCache::new(reuse)).collect(),
            scratch: Vec::with_capacity(n),
        }
    }
}

impl BatchBackend for BatchSparse {
    fn lanes(&self) -> usize {
        self.lanes
    }

    fn n(&self) -> usize {
        self.n
    }

    fn begin(&mut self, active: &[bool]) {
        for (asm, &on) in self.asms.iter_mut().zip(active) {
            if on {
                asm.begin();
            }
        }
    }

    #[inline]
    fn add(&mut self, lane: usize, r: usize, c: usize, v: f64) {
        self.asms[lane].add(r, c, v);
    }

    fn factor_solve(&mut self, rhs: &mut [f64], active: &[bool]) -> Vec<LaneReport> {
        let n = self.n;
        let nl = self.lanes;
        assert_eq!(rhs.len(), n * nl, "rhs must be lanes * n long");
        assert_eq!(active.len(), nl, "one active flag per lane");
        let mut reports: Vec<LaneReport> = (0..nl).map(|_| LaneReport::clear()).collect();

        // Compile/adopt patterns. The first active lane is the donor; it
        // always precedes the adopters, so a split at the adopter's index
        // yields disjoint borrows.
        let donor = match active.iter().position(|&on| on) {
            Some(d) => d,
            None => return reports,
        };
        self.asms[donor].finish();
        for (l, &on) in active.iter().enumerate().skip(donor + 1) {
            if on {
                let (head, tail) = self.asms.split_at_mut(l);
                tail[0].finish_adopting(Some(&head[donor]));
            }
        }

        for l in 0..nl {
            if !active[l] {
                continue;
            }
            let asm = &self.asms[l];
            let epoch = asm.epoch();
            let a = asm.matrix().expect("finish compiles a pattern");
            let rep = &mut reports[l];
            rep.pattern_epoch = epoch;
            let cache = &mut self.caches[l];
            let factored = cache.factor(a, epoch);
            rep.pivot_fallback = factored.pivot_fallback;
            match factored.step {
                Ok(step) => {
                    rep.full_factorization = step == FactorStep::Full;
                    rep.refactorization = step == FactorStep::Refactored;
                }
                Err(e) => {
                    rep.result = Err(e);
                    continue;
                }
            }
            rep.factor_nnz = cache.factor_nnz();
            if let Err(e) = cache.solve_in_place(&mut rhs[l * n..(l + 1) * n], &mut self.scratch) {
                rep.result = Err(e);
            }
        }
        reports
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::{DenseMatrix, LuFactors};
    use crate::sparse::SparseLu;

    /// Deterministic LCG fill, as used by the dense unit tests.
    fn lcg(seed: &mut u64) -> f64 {
        *seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((*seed >> 33) as f64) / (u32::MAX as f64) - 0.5
    }

    fn random_system(n: usize, seed: u64) -> (DenseMatrix, Vec<f64>) {
        let mut s = seed;
        let mut a = DenseMatrix::zeros(n, n);
        for r in 0..n {
            for c in 0..n {
                a.set(r, c, lcg(&mut s));
            }
            a.add(r, r, 3.0);
        }
        let b: Vec<f64> = (0..n).map(|_| lcg(&mut s)).collect();
        (a, b)
    }

    #[test]
    fn batch_dense_matches_scalar_bitwise() {
        let n = 7;
        let lanes = 4;
        let mut batch = BatchDense::new(n, lanes);
        let active = vec![true; lanes];
        batch.begin(&active);
        let mut rhs = vec![0.0; n * lanes];
        let mut scalars = Vec::new();
        for l in 0..lanes {
            let (a, b) = random_system(n, 0x1234 + l as u64);
            for r in 0..n {
                for c in 0..n {
                    batch.add(l, r, c, a.get(r, c));
                }
            }
            rhs[l * n..(l + 1) * n].copy_from_slice(&b);
            scalars.push((a, b));
        }
        let reports = batch.factor_solve(&mut rhs, &active);
        for (l, (a, b)) in scalars.into_iter().enumerate() {
            assert!(reports[l].result.is_ok());
            assert!(reports[l].full_factorization);
            assert_eq!(reports[l].factor_nnz, n * n);
            let mut ws = LuFactors::workspace(n);
            ws.refactor(&a).unwrap();
            let x = ws.solve(&b).unwrap();
            for (i, xi) in x.iter().enumerate() {
                assert_eq!(
                    xi.to_bits(),
                    rhs[l * n + i].to_bits(),
                    "lane {l} unknown {i} must be bitwise-identical to scalar"
                );
            }
        }
    }

    #[test]
    fn dense_singular_lane_does_not_perturb_siblings() {
        let n = 5;
        let lanes = 3;
        let active = vec![true; lanes];
        let solve_with = |singular_lane: Option<usize>| -> (Vec<u64>, Vec<bool>) {
            let mut batch = BatchDense::new(n, lanes);
            batch.begin(&active);
            let mut rhs = vec![0.0; n * lanes];
            for l in 0..lanes {
                if Some(l) == singular_lane {
                    // Leave lane `l` all-zero: singular at column 0.
                    continue;
                }
                let (a, b) = random_system(n, 0xBEEF + l as u64);
                for r in 0..n {
                    for c in 0..n {
                        batch.add(l, r, c, a.get(r, c));
                    }
                }
                rhs[l * n..(l + 1) * n].copy_from_slice(&b);
            }
            let reports = batch.factor_solve(&mut rhs, &active);
            let bits = rhs.iter().map(|v| v.to_bits()).collect();
            let ok: Vec<bool> = reports.iter().map(|r| r.result.is_ok()).collect();
            (bits, ok)
        };
        let (clean, ok_clean) = solve_with(None);
        let (faulty, ok_faulty) = solve_with(Some(1));
        assert!(ok_clean.iter().all(|&o| o));
        assert!(ok_faulty[0] && !ok_faulty[1] && ok_faulty[2]);
        for l in [0usize, 2] {
            assert_eq!(
                &clean[l * n..(l + 1) * n],
                &faulty[l * n..(l + 1) * n],
                "healthy lane {l} must be unaffected by the singular sibling"
            );
        }
    }

    #[test]
    fn dense_inactive_lane_rhs_untouched() {
        let n = 3;
        let lanes = 2;
        let mut batch = BatchDense::new(n, lanes);
        let active = vec![true, false];
        batch.begin(&active);
        let (a, b) = random_system(n, 7);
        for r in 0..n {
            for c in 0..n {
                batch.add(0, r, c, a.get(r, c));
            }
        }
        let mut rhs = vec![0.0; n * lanes];
        rhs[..n].copy_from_slice(&b);
        let sentinel = [1.5, -2.5, 42.0];
        rhs[n..].copy_from_slice(&sentinel);
        let reports = batch.factor_solve(&mut rhs, &active);
        assert!(reports[0].result.is_ok() && reports[0].full_factorization);
        assert!(reports[1].result.is_ok() && !reports[1].full_factorization);
        assert_eq!(&rhs[n..], &sentinel, "inactive lane rhs must be untouched");
    }

    /// Scalar replication of the MNA sparse accounting (assembler +
    /// cached `SparseLu` with refactor reuse), used as the bitwise
    /// reference for `BatchSparse`.
    struct ScalarSparseRef {
        asm: CscAssembler,
        lu: Option<SparseLu>,
        lu_epoch: u64,
        scratch: Vec<f64>,
    }

    impl ScalarSparseRef {
        fn new(n: usize) -> Self {
            ScalarSparseRef {
                asm: CscAssembler::new(n, n),
                lu: None,
                lu_epoch: 0,
                scratch: Vec::new(),
            }
        }

        fn solve(&mut self, stamps: &[(usize, usize, f64)], rhs: &mut [f64]) {
            self.asm.begin();
            for &(r, c, v) in stamps {
                self.asm.add(r, c, v);
            }
            self.asm.finish();
            let epoch = self.asm.epoch();
            let a = self.asm.matrix().unwrap();
            let mut refactored = false;
            if self.lu_epoch == epoch {
                if let Some(f) = self.lu.as_mut() {
                    refactored = f.refactor(a).is_ok();
                }
            }
            if !refactored {
                self.lu = Some(a.lu().unwrap());
                self.lu_epoch = epoch;
            }
            self.lu
                .as_ref()
                .unwrap()
                .solve_in_place(rhs, &mut self.scratch)
                .unwrap();
        }
    }

    fn tridiag_stamps(n: usize, seed: u64) -> Vec<(usize, usize, f64)> {
        let mut s = seed;
        let mut out = Vec::new();
        for i in 0..n {
            out.push((i, i, 4.0 + lcg(&mut s)));
            if i + 1 < n {
                out.push((i, i + 1, -1.0 + 0.1 * lcg(&mut s)));
                out.push((i + 1, i, -1.0 + 0.1 * lcg(&mut s)));
            }
        }
        out
    }

    #[test]
    fn batch_sparse_matches_scalar_bitwise_across_rounds() {
        let n = 6;
        let lanes = 3;
        let mut batch = BatchSparse::new(n, lanes, true);
        let active = vec![true; lanes];
        let mut refs: Vec<ScalarSparseRef> = (0..lanes).map(|_| ScalarSparseRef::new(n)).collect();
        for round in 0..4 {
            batch.begin(&active);
            let mut rhs = vec![0.0; n * lanes];
            let mut stamps_per_lane = Vec::new();
            for l in 0..lanes {
                let stamps = tridiag_stamps(n, 0xC0FFEE + (round * lanes + l) as u64);
                for &(r, c, v) in &stamps {
                    batch.add(l, r, c, v);
                }
                for i in 0..n {
                    rhs[l * n + i] = (i as f64 + 1.0) * 0.25 - l as f64;
                }
                stamps_per_lane.push(stamps);
            }
            let reports = batch.factor_solve(&mut rhs, &active);
            for l in 0..lanes {
                assert!(reports[l].result.is_ok(), "round {round} lane {l}");
                assert_eq!(reports[l].pattern_epoch, 1, "pattern compiles once");
                if round == 0 {
                    assert!(reports[l].full_factorization);
                } else {
                    assert!(
                        reports[l].refactorization,
                        "later rounds reuse the analysis"
                    );
                }
                let mut b: Vec<f64> = (0..n).map(|i| (i as f64 + 1.0) * 0.25 - l as f64).collect();
                refs[l].solve(&stamps_per_lane[l], &mut b);
                for i in 0..n {
                    assert_eq!(
                        b[i].to_bits(),
                        rhs[l * n + i].to_bits(),
                        "round {round} lane {l} unknown {i}"
                    );
                }
            }
        }
    }

    /// A lane whose stamps repeat bit for bit solves with its cached
    /// factors (no factorisation flag), while a sibling whose values moved
    /// refactors; both stay bitwise equal to the scalar reference.
    #[test]
    fn batch_sparse_reuses_unchanged_lanes() {
        let n = 5;
        let lanes = 2;
        let mut batch = BatchSparse::new(n, lanes, true);
        let active = vec![true; lanes];
        let mut refs: Vec<ScalarSparseRef> = (0..lanes).map(|_| ScalarSparseRef::new(n)).collect();
        for round in 0..3u64 {
            batch.begin(&active);
            let mut rhs = vec![0.5; n * lanes];
            // Lane 0 stamps the same values every round; lane 1 new ones.
            let stamps = [tridiag_stamps(n, 7), tridiag_stamps(n, 100 + round)];
            for (l, lane_stamps) in stamps.iter().enumerate() {
                for &(r, c, v) in lane_stamps {
                    batch.add(l, r, c, v);
                }
            }
            let reports = batch.factor_solve(&mut rhs, &active);
            for (l, rep) in reports.iter().enumerate() {
                assert!(rep.result.is_ok());
                let expect = match (round, l) {
                    (0, _) => (true, false),
                    (_, 0) => (false, false),
                    _ => (false, true),
                };
                assert_eq!(
                    (rep.full_factorization, rep.refactorization),
                    expect,
                    "round {round} lane {l}"
                );
                assert!(rep.factor_nnz > 0);
                let mut b = vec![0.5; n];
                refs[l].solve(&stamps[l], &mut b);
                for i in 0..n {
                    assert_eq!(b[i].to_bits(), rhs[l * n + i].to_bits());
                }
            }
        }
    }

    #[test]
    fn batch_sparse_singular_lane_isolated() {
        let n = 4;
        let lanes = 2;
        let mut batch = BatchSparse::new(n, lanes, true);
        let active = vec![true; lanes];
        batch.begin(&active);
        let mut rhs = vec![1.0; n * lanes];
        // Lane 0 healthy; lane 1 stamps the same pattern with a zero row
        // (structurally identical so pattern adoption still applies, but
        // numerically singular).
        for &(r, c, v) in &tridiag_stamps(n, 99) {
            batch.add(0, r, c, v);
            batch.add(1, r, c, if r == 2 { 0.0 } else { v });
        }
        let reports = batch.factor_solve(&mut rhs, &active);
        assert!(reports[0].result.is_ok());
        assert!(
            matches!(reports[1].result, Err(NumericError::SingularMatrix { .. })),
            "zero row must surface as a singular matrix on its own lane"
        );
        // Lane 0 must match a scalar solve of the same stamps.
        let mut r0 = ScalarSparseRef::new(n);
        let mut b = vec![1.0; n];
        r0.solve(&tridiag_stamps(n, 99), &mut b);
        for i in 0..n {
            assert_eq!(b[i].to_bits(), rhs[i].to_bits());
        }
    }
}
