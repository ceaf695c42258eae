//! Batched structure-of-arrays (SoA) dense LU for lockstep parameter
//! sweeps.
//!
//! Monte-Carlo and design-space sweeps solve B *structurally identical*
//! systems that differ only in a handful of stamped values. [`BatchDense`]
//! evaluates B lanes per pass over an interleaved lane-minor layout
//! (entry `(r, c)` of lane `l` lives at `[(c*n + r)*lanes + l]`), so the
//! inner loops stream all lanes of an entry contiguously and
//! auto-vectorise, while each lane still gets *exactly* the scalar
//! solver's bits.
//!
//! # Determinism contract
//!
//! Every lane's factor and solution is **bitwise identical** to what the
//! scalar [`crate::dense::LuFactors`] produces for the same stamps. The
//! lanes replay one shared *elimination plan* (docs/SOLVERS.md, "Dense
//! elimination plans"): the pivot order partial pivoting chose for one
//! lane, over the structural nonzeros of the lanes' matrices. Each lane
//! checks per column that partial pivoting would pick the plan's row, and
//! that its stamps, factors and solution stay in the class the replay
//! reproduces bit for bit. A lane that fails any check is solved again,
//! alone, by a scalar `LuFactors`, whose pivoting path is the only place
//! a pivot is searched for.
//!
//! A failed lane (singular matrix) never stalls or perturbs its siblings:
//! a lane that leaves the plan keeps computing lane-local garbage
//! (IEEE-754 `inf`/`NaN` arithmetic does not trap) that nothing reads,
//! and only the scalar solve reports its error.

use crate::dense::{DenseMatrix, LuFactors, SINGULARITY_EPS};
use crate::Result;

/// Rounds a plan that no lane could follow stands aside before the next
/// round compiles another. A compile costs 2–3 scalar factorisations; a
/// pivot order that changes at every round compiles once per `WAIT + 2`
/// rounds, which otherwise solve their lanes one by one.
const WAIT: u32 = 16;

/// Batched dense LU over a lane-minor SoA layout.
///
/// All lanes replay one elimination plan, compiled from the pivot order a
/// scalar [`LuFactors`] chose for one of them, with lane-inner loops. A
/// lane whose pivot order, pattern or values differ from the plan's
/// class is solved by that scalar `LuFactors`, so every lane is bitwise
/// identical to a scalar [`LuFactors::refactor`] and solve of the same
/// stamps.
///
/// The right-hand-side layout is lane-*contiguous*: lane `l`'s system
/// occupies `rhs[l*n .. (l+1)*n]`, so callers keep one ordinary slice per
/// lane.
///
/// Active lanes are compacted into contiguous storage *slots* at
/// [`begin`](BatchDense::begin) time, so a round with `na` active lanes
/// costs work for `na` lanes — never for all `lanes` — and the lane-inner
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
    /// Factor storage, same layout with the rows in the plan's pivot order.
    lu: Vec<f64>,
    /// The active count for which `lu` holds `+0.0` outside the plan's
    /// fill pattern, as a replay needs (0: none).
    clean: usize,
    /// Solutions, slot-minor: pivot row `i` of slot `s` at `x[i*na + s]`.
    x: Vec<f64>,
    /// Per slot: nonzero when the lane left the plan this round.
    off: Vec<u64>,
    /// Per-slot pivot values for the current column.
    piv: Vec<f64>,
    /// Per-slot `U(k, c)` values for the current update column.
    ukc: Vec<f64>,
    /// The plan every lane replays, whether it is in use, and how many
    /// more rounds it stands aside after no lane could follow it.
    plan: Plan,
    live: bool,
    wait: u32,
    /// Solves the lanes that leave the plan, one at a time, from `m`.
    scalar: LuFactors,
    m: DenseMatrix,
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
            clean: 0,
            x: vec![0.0; n * lanes],
            off: vec![0; lanes],
            piv: vec![1.0; lanes],
            ukc: vec![0.0; lanes],
            plan: Plan::default(),
            live: false,
            wait: 0,
            scalar: LuFactors::workspace(n),
            m: DenseMatrix::zeros(n, n),
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
        self.off[..na].fill(u64::from(!self.live));
        if self.live {
            self.replay_lanes(rhs, na);
        }
        // A round that no lane replays compiles a plan from the first lane
        // the scalar path solves, over every active lane's pattern; a live
        // plan that no lane followed stands aside for this round and
        // `WAIT` more first.
        let mut due = false;
        if !self.off[..na].contains(&0) {
            if self.live {
                self.live = false;
                self.wait = WAIT;
            } else if self.wait > 0 {
                self.wait -= 1;
            } else {
                due = true;
            }
        }
        let used = n * n * na;
        for (s, &l) in self.order.iter().enumerate() {
            if self.off[s] == 0 {
                solved[l] = Ok(());
                continue;
            }
            for c in 0..n {
                for r in 0..n {
                    self.m.set(r, c, self.a[(c * n + r) * na + s]);
                }
            }
            let b = &mut rhs[l * n..(l + 1) * n];
            solved[l] = self
                .scalar
                .refactor(&self.m)
                .and_then(|()| self.scalar.solve_in_place(b, &mut self.scratch));
            if due && solved[l].is_ok() {
                due = false;
                let a = &self.a[..used];
                let nz = |j: usize| a[j * na..(j + 1) * na].iter().any(|&v| v != 0.0);
                self.plan.compile(n, nz, self.scalar.pivot_order());
                self.live = true;
                self.clean = 0;
            }
        }
    }

    /// Replays the plan across the `na` active slots with lane-inner
    /// loops, and writes the solution of every lane that stays on it into
    /// `rhs`. `off[s]` becomes nonzero for the slots that leave it: an
    /// entry outside the fill pattern is not `+0.0`, a column's pivot is
    /// not the row partial pivoting would pick or is not finite and at
    /// least [`SINGULARITY_EPS`], a right-hand-side entry is `-0.0`, or a
    /// solution component is not finite. (The stamp accumulator starts at
    /// `+0.0` and only adds, so it never holds `-0.0`. A multiplier passed
    /// the pivot check, so its magnitude is at most 1; a non-finite `U`
    /// entry reaches the back substitution, whose product with it is not
    /// finite even where the solution component is zero.) A lane that
    /// stays has the bits of the pivoting path.
    fn replay_lanes(&mut self, rhs: &mut [f64], na: usize) {
        let n = self.n;
        let used = n * n * na;
        if self.clean != na {
            self.lu[..used].fill(0.0);
            self.clean = na;
        }
        let plan = &self.plan;
        let (a, lu, x) = (&self.a[..used], &mut self.lu[..used], &mut self.x[..n * na]);
        let (off, piv, ukc) = (
            &mut self.off[..na],
            &mut self.piv[..na],
            &mut self.ukc[..na],
        );
        for &(_, src) in &plan.zeros {
            for (o, &v) in off.iter_mut().zip(&a[src * na..][..na]) {
                *o |= v.to_bits();
            }
        }
        for &(dst, src) in &plan.copy {
            lu[dst * na..][..na].copy_from_slice(&a[src * na..][..na]);
        }
        let bad = |ok: bool| u64::from(!ok);
        for k in 0..n {
            let (head, tail) = lu.split_at_mut((k + 1) * n * na);
            let col = &mut head[k * n * na..];
            piv.copy_from_slice(&col[k * na..(k + 1) * na]);
            for (o, &p) in off.iter_mut().zip(piv.iter()) {
                *o |= bad((SINGULARITY_EPS..=f64::MAX).contains(&p.abs()));
            }
            for &i in plan.seg(k, seg::BEFORE) {
                for ((o, &p), &v) in off.iter_mut().zip(piv.iter()).zip(&col[i * na..][..na]) {
                    *o |= bad(p.abs() > v.abs());
                }
            }
            for &i in plan.seg(k, seg::AFTER) {
                for ((o, &p), &v) in off.iter_mut().zip(piv.iter()).zip(&col[i * na..][..na]) {
                    *o |= bad(p.abs() >= v.abs());
                }
            }
            let rows = plan.seg(k, seg::LROWS);
            for &i in rows {
                for (v, &p) in col[i * na..][..na].iter_mut().zip(piv.iter()) {
                    *v /= p;
                }
            }
            for &c in plan.seg(k, seg::UCOLS) {
                let target = &mut tail[(c - k - 1) * n * na..(c - k) * n * na];
                ukc.copy_from_slice(&target[k * na..(k + 1) * na]);
                for &i in rows {
                    let mul = &col[i * na..][..na];
                    for ((t, &m), &u) in target[i * na..][..na].iter_mut().zip(mul).zip(ukc.iter())
                    {
                        *t -= m * u;
                    }
                }
            }
        }

        // Substitution over the same plan, lane-inner.
        for (s, &l) in self.order.iter().enumerate() {
            let b = &rhs[l * n..(l + 1) * n];
            for (i, &p) in plan.perm.iter().enumerate() {
                x[i * na + s] = b[p];
                off[s] |= u64::from(b[p] == 0.0 && b[p].is_sign_negative());
            }
        }
        for c in 0..n {
            let (xh, xt) = x.split_at_mut((c + 1) * na);
            let xc = &xh[c * na..];
            let col = &lu[c * n * na..(c + 1) * n * na];
            for &i in plan.seg(c, seg::LROWS) {
                let xi = &mut xt[(i - c - 1) * na..][..na];
                for ((v, &l), &xc) in xi.iter_mut().zip(&col[i * na..][..na]).zip(xc) {
                    *v -= l * xc;
                }
            }
        }
        for c in (0..n).rev() {
            let (xh, xt) = x.split_at_mut(c * na);
            let xc = &mut xt[..na];
            let col = &lu[c * n * na..(c + 1) * n * na];
            for (v, &d) in xc.iter_mut().zip(&col[c * na..][..na]) {
                *v /= d;
            }
            for &i in plan.seg(c, seg::UROWS) {
                let xi = &mut xh[i * na..][..na];
                for ((v, &u), &xc) in xi.iter_mut().zip(&col[i * na..][..na]).zip(xc.iter()) {
                    *v -= u * xc;
                }
            }
        }
        for row in x.chunks_exact(na) {
            for (o, &v) in off.iter_mut().zip(row) {
                *o |= bad(v.is_finite());
            }
        }
        for (s, &l) in self.order.iter().enumerate() {
            if off[s] == 0 {
                for (i, b) in rhs[l * n..(l + 1) * n].iter_mut().enumerate() {
                    *b = x[i * na + s];
                }
            }
        }
    }
}

/// The index lists of one elimination step `k`, in [`Plan::seg`] order.
/// Rows are pivot rows (positions in the factor storage).
mod seg {
    /// Candidate rows partial pivoting scans before it reaches the pivot.
    pub const BEFORE: usize = 0;
    /// Candidate rows it scans after the pivot.
    pub const AFTER: usize = 1;
    /// Rows below the pivot with a structural multiplier.
    pub const LROWS: usize = 2;
    /// Columns right of the pivot with a structural `U(k, c)`.
    pub const UCOLS: usize = 3;
    /// Rows above the diagonal with a structural `U(i, k)`.
    pub const UROWS: usize = 4;
    pub const COUNT: usize = 5;
}

/// An elimination plan: the pivot order partial pivoting chose for one
/// lane, the fill pattern of the lanes' matrices under that order, and,
/// per elimination step, the structural nonzeros that step touches.
#[derive(Debug, Default)]
struct Plan {
    /// `perm[i]` is the original row in pivot row `i`.
    perm: Vec<usize>,
    /// `(factor entry, matrix entry)` of every entry in the fill pattern,
    /// which the replay copies into pivot order. Factor entries are
    /// column-major in pivot rows, matrix entries in original rows.
    copy: Vec<(usize, usize)>,
    /// The same pairs for every other entry, which must be `+0.0`.
    zeros: Vec<(usize, usize)>,
    /// The step lists, [`seg::COUNT`] per step.
    idx: Vec<usize>,
    bounds: Vec<usize>,
    /// Compile scratch: the fill pattern in pivot order, and each pivot
    /// row's position in the pivoting path's row order.
    fill: Vec<bool>,
    at: Vec<usize>,
}

impl Plan {
    /// Step `k`'s list `s` (one of the [`seg`] constants).
    #[inline]
    fn seg(&self, k: usize, s: usize) -> &[usize] {
        let b = k * seg::COUNT + s;
        &self.idx[self.bounds[b]..self.bounds[b + 1]]
    }

    /// Compiles the plan of an `n × n` matrix whose entry `j` (column-major,
    /// original rows) is structurally nonzero when `nz(j)`, factored by
    /// partial pivoting into the row order `perm`. Reuses the plan's
    /// storage, so a recompile at an unchanged size allocates nothing.
    fn compile(&mut self, n: usize, nz: impl Fn(usize) -> bool, perm: &[usize]) {
        self.perm.clear();
        self.perm.extend_from_slice(perm);
        // Symbolic elimination in pivot order: fill[c*n + i] for pivot row i.
        self.fill.clear();
        for c in 0..n {
            self.fill.extend(perm.iter().map(|&p| nz(c * n + p)));
        }
        let fill = &mut self.fill;
        for k in 0..n {
            let (head, tail) = fill.split_at_mut((k + 1) * n);
            let col = &head[k * n + k + 1..];
            for target in tail.chunks_exact_mut(n).filter(|t| t[k]) {
                for (t, &l) in target[k + 1..].iter_mut().zip(col) {
                    *t |= l;
                }
            }
        }
        // The pivot row of each row of the pivoting path's row order,
        // from the start of step 0.
        self.at.clear();
        self.at.resize(n, 0);
        for (i, &p) in perm.iter().enumerate() {
            self.at[p] = i;
        }
        let at = &mut self.at;
        self.copy.clear();
        self.zeros.clear();
        for c in 0..n {
            let col = &fill[c * n..(c + 1) * n];
            for (i, &p) in perm.iter().enumerate() {
                let list = if col[i] {
                    &mut self.copy
                } else {
                    &mut self.zeros
                };
                list.push((c * n + i, c * n + p));
            }
        }
        self.idx.clear();
        self.bounds.clear();
        self.bounds.push(0);
        for k in 0..n {
            let col = &fill[k * n..(k + 1) * n];
            // The pivoting path scans rows k.. in its current order and
            // moves the pivot from position p to k.
            let p = k + at[k..]
                .iter()
                .position(|&i| i == k)
                .expect("perm is a permutation");
            let lists: [&mut dyn Iterator<Item = usize>; seg::COUNT] = [
                &mut at[k..p].iter().copied().filter(|&i| col[i]),
                &mut at[p + 1..].iter().copied().filter(|&i| col[i]),
                &mut (k + 1..n).filter(|&i| col[i]),
                &mut (k + 1..n).filter(|&c| fill[c * n + k]),
                &mut (0..k).filter(|&i| col[i]),
            ];
            for list in lists {
                self.idx.extend(list);
                self.bounds.push(self.idx.len());
            }
            at.swap(k, p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::{DenseMatrix, LuFactors};
    use crate::NumericError;

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

    /// Stamps `a` into `lane` of `batch` and its right-hand side `b` into
    /// `rhs`.
    fn stamp(batch: &mut BatchDense, lane: usize, a: &DenseMatrix, b: &[f64], rhs: &mut [f64]) {
        let n = a.rows();
        for r in 0..n {
            for c in 0..n {
                if a.get(r, c) != 0.0 {
                    batch.add(lane, r, c, a.get(r, c));
                }
            }
        }
        rhs[lane * n..(lane + 1) * n].copy_from_slice(b);
    }

    /// A small MNA-style system: node rows with conductances to ground and
    /// between neighbours, and voltage-source branch rows whose zero
    /// diagonal forces row swaps. `g` scales the conductances; large ones
    /// move the node rows' pivots off the branches.
    fn mna(n: usize, g: f64) -> DenseMatrix {
        let branches = n / 4;
        let nodes = n - branches;
        let mut a = DenseMatrix::zeros(n, n);
        for i in 0..nodes {
            a.add(i, i, g * (1.0 + 0.1 * i as f64));
            let j = (i + 1) % nodes;
            if j != i {
                let gij = g * (0.5 + 0.05 * i as f64);
                a.add(i, i, gij);
                a.add(j, j, gij);
                a.add(i, j, -gij);
                a.add(j, i, -gij);
            }
        }
        for b in 0..branches {
            let (k, p) = (nodes + b, (3 * b) % nodes);
            a.add(p, k, 1.0);
            a.add(k, p, 1.0);
        }
        a
    }

    /// Runs one round of `systems` (lane, matrix) with right-hand side `b`,
    /// checks every lane against a fresh pivoting factorisation bit for
    /// bit, and returns how many active lanes left the plan.
    fn round(batch: &mut BatchDense, systems: &[(usize, DenseMatrix)], b: &[f64]) -> usize {
        let (n, lanes) = (batch.n, batch.lanes);
        let mut active = vec![false; lanes];
        systems.iter().for_each(|&(l, _)| active[l] = true);
        batch.begin(&active);
        let mut rhs = vec![f64::NAN; n * lanes];
        for (l, a) in systems {
            stamp(batch, *l, a, b, &mut rhs);
        }
        let mut solved = outcomes(lanes);
        batch.factor_solve(&mut rhs, &active, &mut solved);
        for (l, a) in systems {
            match a.clone().lu() {
                Ok(fresh) => {
                    assert!(solved[*l].is_ok());
                    let x = fresh.solve(b).unwrap();
                    for (i, xi) in x.iter().enumerate() {
                        assert_eq!(xi.to_bits(), rhs[l * n + i].to_bits(), "lane {l} row {i}");
                    }
                }
                Err(e) => assert_eq!(solved[*l], Err(e)),
            }
        }
        batch.off[..systems.len()]
            .iter()
            .filter(|&&o| o != 0)
            .count()
    }

    #[test]
    fn plan_lanes_replay_and_a_lane_that_differs_runs_scalar() {
        let (n, lanes) = (10, 8);
        let mut batch = BatchDense::new(n, lanes);
        let b: Vec<f64> = (0..n).map(|i| 1e-3 * i as f64).collect();
        for k in 0..6 {
            // Rounds 4 and 5 compact five lanes and then one.
            let systems: Vec<(usize, DenseMatrix)> = (0..lanes)
                .filter(|&l| k < 4 || (k == 4 && l % 3 != 0) || l == 1)
                .map(|l| {
                    let a = match (k, l) {
                        (3, 2) => mna(n, 10.0),             // another pivot order
                        (3, 5) => DenseMatrix::zeros(n, n), // singular at column 0
                        _ => mna(n, 1e-3 * (1.0 + 0.01 * (k * lanes + l) as f64)),
                    };
                    (l, a)
                })
                .collect();
            let off = round(&mut batch, &systems, &b);
            match k {
                0 => assert_eq!(off, lanes, "no plan yet: every lane runs scalar"),
                3 => assert_eq!(off, 2, "the two odd lanes run scalar"),
                _ => assert_eq!(off, 0, "every lane replays"),
            }
        }
    }

    #[test]
    fn plan_stands_aside_after_a_round_no_lane_follows() {
        let (n, lanes) = (8, 3);
        let mut batch = BatchDense::new(n, lanes);
        let b = vec![1.0; n];
        let all = |g: f64| -> Vec<(usize, DenseMatrix)> {
            (0..lanes)
                .map(|l| (l, mna(n, g * (1.0 + 0.1 * l as f64))))
                .collect()
        };
        assert_eq!(round(&mut batch, &all(1e-3), &b), lanes, "compiles");
        assert_eq!(round(&mut batch, &all(2e-3), &b), 0, "replays");
        // Every lane on another pivot order: the plan stands aside, and
        // the round after the wait compiles the new order.
        assert_eq!(round(&mut batch, &all(10.0), &b), lanes);
        assert!(!batch.live);
        for _ in 0..=WAIT {
            assert_eq!(round(&mut batch, &all(11.0), &b), lanes);
        }
        assert!(batch.live);
        assert_eq!(
            round(&mut batch, &all(12.0), &b),
            0,
            "replays the new order"
        );
    }

    #[test]
    fn plan_compiles_are_bounded_when_the_order_flips_every_round() {
        let (n, lanes) = (8, 2);
        let mut batch = BatchDense::new(n, lanes);
        let b = vec![1.0; n];
        let mut compiles = 0;
        let rounds: u32 = 340;
        for k in 0..rounds {
            let g = if k % 2 == 0 { 1e-3 } else { 10.0 };
            let was_live = batch.live;
            let systems: Vec<(usize, DenseMatrix)> = (0..lanes).map(|l| (l, mna(n, g))).collect();
            round(&mut batch, &systems, &b);
            compiles += u32::from(!was_live && batch.live);
        }
        // A compile, a round that misses, then `WAIT` rounds aside.
        assert_eq!(compiles, rounds.div_ceil(WAIT + 2));
    }

    #[test]
    fn plan_of_an_empty_system_replays() {
        let mut batch = BatchDense::new(0, 2);
        let systems = [(0, DenseMatrix::zeros(0, 0)), (1, DenseMatrix::zeros(0, 0))];
        assert_eq!(round(&mut batch, &systems, &[]), 2);
        assert_eq!(round(&mut batch, &systems, &[]), 0);
    }
}
