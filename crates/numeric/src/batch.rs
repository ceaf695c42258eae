//! Batched structure-of-arrays (SoA) dense LU for lockstep parameter
//! sweeps.
//!
//! Monte-Carlo and design-space sweeps solve B *structurally identical*
//! systems that differ only in a handful of stamped values. [`BatchDense`]
//! evaluates B lanes per pass over an interleaved lane-minor layout
//! (entry `(r, c)` of lane `l` lives at `[(c*n + r)*lanes + l]`), so the
//! inner elimination loops stream all lanes of an entry contiguously and
//! auto-vectorise, while each lane still executes *exactly* the scalar
//! sequence of floating-point operations.
//!
//! # Determinism contract
//!
//! Every lane's factor and solution is **bitwise identical** to what the
//! scalar [`crate::dense::LuFactors`] produces for the same stamps:
//!
//! * value-dependent control flow (pivot selection, row swaps) runs
//!   lane-*outer*, per lane, exactly as in the scalar code;
//! * value-independent skip guards (`if ukc != 0.0`) become per-lane select
//!   forms, which are bitwise equal to skipping because skipping a
//!   subtraction of the exact value `x - m*0.0`-style is only equal in
//!   *value*, not in signed-zero corner cases — so the guarded entry is
//!   left untouched, never recomputed.
//!
//! A failed lane (singular matrix) never stalls or perturbs its siblings:
//! dead lanes keep computing benign lane-local garbage (IEEE-754
//! `inf`/`NaN` arithmetic does not trap) and only the first error per lane
//! is reported.

use crate::dense::SINGULARITY_EPS;
use crate::{NumericError, Result};

/// Batched dense LU with partial pivoting over a lane-minor SoA layout.
///
/// Each lane's elimination is the scalar `factor_in_place` algorithm from
/// [`crate::dense`]: same pivot scan (strict `>`, first occurrence wins),
/// same singularity threshold, same update order — so every lane is
/// bitwise identical to a scalar [`crate::dense::LuFactors::refactor`] of
/// the same stamps.
///
/// The right-hand-side layout is lane-*contiguous*: lane `l`'s system
/// occupies `rhs[l*n .. (l+1)*n]`, so callers keep one ordinary slice per
/// lane.
///
/// Active lanes are compacted into contiguous storage *slots* at
/// [`begin`](BatchDense::begin) time, so a round with `na` active lanes costs
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

    /// Begins a fresh assembly round for the lanes flagged in `active`.
    /// The same mask must go to the round's
    /// [`factor_solve`](BatchDense::factor_solve).
    pub fn begin(&mut self, active: &[bool]) {
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

    /// Accumulates `v` at `(r, c)` of `lane`'s system — the stamp
    /// primitive. The lane must be active in the current round.
    #[inline]
    pub fn add(&mut self, lane: usize, r: usize, c: usize, v: f64) {
        debug_assert!(lane < self.lanes && r < self.n && c < self.n);
        let s = self.slots[lane];
        debug_assert!(s != usize::MAX, "stamping an inactive lane");
        self.a[(c * self.n + r) * self.order.len() + s] += v;
    }

    /// Factors every active lane and solves its system in place:
    /// `rhs[l*n..(l+1)*n]` is overwritten with lane `l`'s solution, and
    /// `solved[l]` with `Ok` or the lane's first error. Inactive lanes keep
    /// their `rhs` and `solved` entries.
    pub fn factor_solve(&mut self, rhs: &mut [f64], active: &[bool], solved: &mut [Result<()>]) {
        let n = self.n;
        let nl = self.lanes;
        assert_eq!(rhs.len(), n * nl, "rhs must be lanes * n long");
        assert_eq!(active.len(), nl, "one active flag per lane");
        assert_eq!(solved.len(), nl, "one outcome slot per lane");
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
            return;
        }
        let used = n * n * na;

        // Refactor semantics: copy the stamps and reset the permutations.
        self.lu[..used].copy_from_slice(&self.a[..used]);
        for &l in &self.order {
            for (i, p) in self.perm[l * n..(l + 1) * n].iter_mut().enumerate() {
                *p = i;
            }
        }

        for &l in &self.order {
            solved[l] = Ok(());
        }

        let lu = &mut self.lu[..used];
        for k in 0..n {
            // Slot-outer pivot selection, swap, and singularity check —
            // the value-dependent control flow, transcribed per lane from
            // the scalar elimination.
            for (s, &l) in self.order.iter().enumerate() {
                let diag = (k * n + k) * na + s;
                if solved[l].is_err() {
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
                    solved[l] = Err(NumericError::SingularMatrix { column: k });
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
            if solved[l].is_err() {
                continue;
            }
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
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::{DenseMatrix, LuFactors};

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

    fn outcomes(lanes: usize) -> Vec<Result<()>> {
        (0..lanes).map(|_| Ok(())).collect()
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
        let mut solved = outcomes(lanes);
        batch.factor_solve(&mut rhs, &active, &mut solved);
        for (l, (a, b)) in scalars.into_iter().enumerate() {
            assert!(solved[l].is_ok());
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
            let mut solved = outcomes(lanes);
            batch.factor_solve(&mut rhs, &active, &mut solved);
            let bits = rhs.iter().map(|v| v.to_bits()).collect();
            let ok: Vec<bool> = solved.iter().map(Result::is_ok).collect();
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
        // A stale error in the inactive lane's slot must survive the round.
        let mut solved = vec![Err(NumericError::SingularMatrix { column: 9 }); lanes];
        batch.factor_solve(&mut rhs, &active, &mut solved);
        assert!(solved[0].is_ok());
        assert!(matches!(
            solved[1],
            Err(NumericError::SingularMatrix { column: 9 })
        ));
        assert_eq!(&rhs[n..], &sentinel, "inactive lane rhs must be untouched");
    }
}
