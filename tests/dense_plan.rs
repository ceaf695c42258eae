//! Batched elimination plans against the pivoting path, bit for bit.
//!
//! `BatchDense` replays one elimination plan across its lanes: the pivot
//! order partial pivoting chose for one lane, over the lanes' structural
//! nonzeros. Every lane must give what a fresh `DenseMatrix::lu` (the
//! plain partial-pivoting path) gives for the same stamps: the same `Ok`
//! or `SingularMatrix { column }` and the same solution bits. A reused
//! `LuFactors` workspace, which the batch falls back to, must also give
//! the determinant. The systems are stamped by `add` from zero, as MNA
//! assembly stamps them, except where a case needs a value `add` cannot
//! produce (`-0.0`); the batch, which only adds, sees such an entry as
//! `+0.0`.

use sfet_numeric::batch::BatchDense;
use sfet_numeric::dense::{DenseMatrix, LuFactors};
use sfet_numeric::NumericError;

/// SplitMix64, for reproducible values without a dependency.
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in [0.5, 1.5).
    fn factor(&mut self) -> f64 {
        0.5 + (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn below(&mut self, k: usize) -> usize {
        (self.next_u64() % k as u64) as usize
    }
}

/// The stamps of an MNA-style circuit of `n` unknowns: conductances to
/// ground and between random node pairs, and voltage-source branch rows
/// whose zero diagonal forces row swaps. The pattern comes from `seed`;
/// `g` scales the conductances and `values` perturbs each stamp.
fn circuit(n: usize, seed: u64) -> Vec<(usize, usize, f64)> {
    let mut rng = Rng(seed);
    let branches = n / 5;
    let nodes = n - branches;
    let mut stamps = Vec::new();
    for i in 0..nodes {
        stamps.push((i, i, 1.0));
        for _ in 0..2 {
            let j = rng.below(nodes);
            if j != i {
                stamps.extend([(i, i, 1.0), (j, j, 1.0), (i, j, -1.0), (j, i, -1.0)]);
            }
        }
    }
    for b in 0..branches {
        // Distinct nodes: two sources across one node would be singular.
        let (k, p) = (nodes + b, b * (nodes / branches));
        stamps.extend([(p, k, 0.0), (k, p, 0.0)]);
    }
    stamps
}

/// Assembles `stamps` by `add` from zero: conductances (unit stamps)
/// scaled by `g` and perturbed by `values`, branch couplings (zero
/// stamps) as `±1`.
fn assemble(n: usize, stamps: &[(usize, usize, f64)], g: f64, values: u64) -> DenseMatrix {
    let mut rng = Rng(values);
    let mut a = DenseMatrix::zeros(n, n);
    for &(r, c, unit) in stamps {
        let v = if unit == 0.0 {
            1.0
        } else {
            unit * g * rng.factor()
        };
        a.add(r, c, v);
    }
    a
}

fn rhs(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = Rng(seed);
    (0..n)
        .map(|i| if i % 3 == 0 { 0.0 } else { rng.factor() - 1.0 })
        .collect()
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Adds every entry of `a` into `lane` of `batch` and copies `b` into the
/// lane's slice of `rhs`.
fn stamp(batch: &mut BatchDense, lane: usize, a: &DenseMatrix, b: &[f64], rhs: &mut [f64]) {
    let n = a.rows();
    for r in 0..n {
        for c in 0..n {
            batch.add(lane, r, c, a.get(r, c));
        }
    }
    rhs[lane * n..(lane + 1) * n].copy_from_slice(b);
}

/// `a` as the batch accumulates it: every entry added to `+0.0`.
fn restamped(a: &DenseMatrix) -> DenseMatrix {
    let n = a.rows();
    let mut m = DenseMatrix::zeros(n, n);
    for r in 0..n {
        for c in 0..n {
            m.add(r, c, a.get(r, c));
        }
    }
    m
}

/// A sequence of systems, each checked against a fresh pivoting
/// factorisation twice: through a reused `LuFactors` workspace, and in
/// lane 0 of a two-lane `BatchDense` whose plan was compiled from the
/// sequence's previous matrix. Lane 1 carries that previous matrix again,
/// so the plan stays in use whatever lane 0 does.
struct Sequence {
    ws: LuFactors,
    prev: Option<DenseMatrix>,
}

impl Sequence {
    fn new(n: usize) -> Self {
        Sequence {
            ws: LuFactors::workspace(n),
            prev: None,
        }
    }

    /// Checks the outcome, determinant and solves of `a` with `b`.
    fn check(&mut self, a: &DenseMatrix, b: &[f64]) {
        let got = self.ws.refactor(a);
        match a.clone().lu() {
            Ok(fresh) => {
                assert_eq!(got, Ok(()), "{a}");
                assert_eq!(self.ws.det().to_bits(), fresh.det().to_bits(), "det of {a}");
                let mut x = b.to_vec();
                self.ws.solve_in_place(&mut x, &mut Vec::new()).unwrap();
                assert_eq!(bits(&x), bits(&fresh.solve(b).unwrap()), "solve of {a}");
                assert_eq!(bits(&self.ws.solve(b).unwrap()), bits(&x));
            }
            Err(e) => assert_eq!(got, Err(e), "{a}"),
        }

        let n = a.rows();
        let prev = self.prev.replace(a.clone()).unwrap_or_else(|| a.clone());
        let mut batch = BatchDense::new(n, 2);
        let both = [true, true];
        let mut rhs = vec![0.0; 2 * n];
        let mut solved = vec![Ok(()), Ok(())];
        // The first round compiles the plan from `prev`; the second
        // replays it on `a`.
        for lane0 in [&prev, a] {
            batch.begin(&both);
            stamp(&mut batch, 0, lane0, b, &mut rhs);
            stamp(&mut batch, 1, &prev, b, &mut rhs);
            batch.factor_solve(&mut rhs, &both, &mut solved);
        }
        match restamped(a).lu() {
            Ok(fresh) => {
                assert_eq!(solved[0], Ok(()), "lane of {a}");
                let x = fresh.solve(b).unwrap();
                assert_eq!(bits(&rhs[..n]), bits(&x), "lane solve of {a}");
            }
            Err(e) => assert_eq!(solved[0], Err(e), "lane of {a}"),
        }
    }
}

const SIZES: [usize; 6] = [1, 2, 8, 10, 33, 63];

#[test]
fn refactor_follows_pivot_order_changes_bit_for_bit() {
    for n in SIZES {
        let stamps = circuit(n, 7 + n as u64);
        let mut seq = Sequence::new(n);
        // Runs of small conductances (branch rows pivot), large ones (node
        // rows pivot) and alternations, so the order changes between
        // consecutive factorisations and also holds for a while.
        let scales = [
            1e-3, 1e-3, 1e-3, 1e2, 1e2, 1e-3, 1e2, 1e-3, 1e2, 1e2, 1e2, 1e-3,
        ];
        for (k, &g) in scales.iter().cycle().take(60).enumerate() {
            let a = assemble(n, &stamps, g, k as u64);
            seq.check(&a, &rhs(n, k as u64));
        }
    }
}

#[test]
fn magnitude_ties_pick_the_first_row_in_scan_order() {
    // Column 0 holds rows 0, 3 and 6 and pivots on row 3 (|-5|); row 0
    // then pivots column 3 whichever row took column 0. A tie on row 0
    // comes first in the scan and takes the pivot; a tie on row 6 comes
    // after and does not.
    let n = 8;
    let tied = |r0: f64, r6: f64| {
        let mut a = DenseMatrix::zeros(n, n);
        for (r, v) in [(0, r0), (3, -5.0), (6, r6)] {
            a.add(r, 0, v);
        }
        for i in 1..n {
            a.add(i, i, 4.0 + i as f64);
        }
        a.add(0, 3, 100.0);
        a
    };
    let b = rhs(n, 3);
    let mut seq = Sequence::new(n);
    for (r0, r6) in [
        (1.0, 2.0),
        (1.0, 2.0),
        (1.0, 5.0),
        (1.0, -5.0),
        (5.0, 1.0),
        (1.0, 2.0),
    ] {
        seq.check(&tied(r0, r6), &b);
    }
}

#[test]
fn a_column_that_goes_singular_names_the_pivoting_column() {
    for n in SIZES {
        let stamps = circuit(n, 11 + n as u64);
        let mut seq = Sequence::new(n);
        let b = rhs(n, 1);
        for k in 0..4 {
            seq.check(&assemble(n, &stamps, 1e-3, k), &b);
        }
        // Scaling one row to nothing leaves its column's pivot below the
        // singularity threshold once the rows above are eliminated.
        let mut a = assemble(n, &stamps, 1e-3, 9);
        let r = n / 2;
        for c in 0..n {
            a.set(r, c, a.get(r, c) * 1e-290);
        }
        assert!(matches!(
            a.clone().lu(),
            Err(NumericError::SingularMatrix { .. })
        ));
        seq.check(&a, &b);
        seq.check(&assemble(n, &stamps, 1e-3, 10), &b);
    }
}

#[test]
fn non_finite_factor_entries_match_the_pivoting_path() {
    // Column 0 pivots on row 0 with one multiplier (row 1); row 2 has a
    // structurally zero multiplier under U(0, 2).
    let n = 8;
    let build = |u02: f64| {
        let mut a = DenseMatrix::zeros(n, n);
        for i in 0..n {
            a.add(i, i, 4.0 + i as f64);
        }
        a.add(1, 0, 1.0);
        a.add(0, 2, u02);
        a.add(2, 3, 1.0);
        a.add(6, 7, 2.0);
        a
    };
    let mut seq = Sequence::new(n);
    let b = rhs(n, 5);
    for u02 in [
        1.0,
        1.5,
        f64::INFINITY,
        2.0,
        f64::NEG_INFINITY,
        f64::NAN,
        1e308,
        3.0,
    ] {
        seq.check(&build(u02), &b);
    }
    // A zero solution component (x[2] = 0) above an infinite U(0, 2): the
    // pivoting path skips the product, and so must every other path.
    let mut a = build(f64::INFINITY);
    a.set(2, 3, 0.0);
    let zero_x2 = [1.0, 1.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0];
    seq.check(&build(1.0), &zero_x2);
    seq.check(&a, &zero_x2);
}

#[test]
fn signed_zeros_infinities_and_nans_match_the_pivoting_path() {
    for n in SIZES {
        let stamps = circuit(n, 13 + n as u64);
        let base = |k: u64| assemble(n, &stamps, 1e-3, k);
        let mut seq = Sequence::new(n);
        let b = rhs(n, 2);
        for k in 0..3 {
            seq.check(&base(k), &b);
        }
        // Right-hand sides through a replayed plan.
        let special = [
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            1e308,
            -1e308,
        ];
        for (k, &v) in special.iter().enumerate() {
            let mut odd = rhs(n, 20 + k as u64);
            odd[k % n] = v;
            odd[n - 1 - k % n] = -0.0;
            seq.check(&base(3 + k as u64), &odd);
        }
        // Negated, every pivot is negative and the pivoting path's
        // multipliers outside the pattern are -0.0, which a -0.0 in the
        // right-hand side can tell from +0.0.
        let negated = |k: u64| {
            let a = base(k);
            let mut neg = DenseMatrix::zeros(n, n);
            for &(r, c, _) in &stamps {
                if neg.get(r, c) == 0.0 {
                    neg.add(r, c, -a.get(r, c));
                }
            }
            neg
        };
        let signed: Vec<f64> = (0..n)
            .map(|i| if i % 2 == 0 { -0.0 } else { 1.0 })
            .collect();
        for k in 0..3 {
            seq.check(&negated(30 + k), &signed);
        }
        // Matrices holding the same values on a stamped entry and on one
        // that may lie outside the pattern, each followed by a clean one.
        for (k, &v) in special.iter().enumerate() {
            let (r, c, _) = stamps[(7 * k) % stamps.len()];
            for (r, c) in [(r, c), (r, (r + k + 1) % n)] {
                let mut a = base(10 + k as u64);
                a.set(r, c, v);
                seq.check(&a, &b);
                seq.check(&base(20 + k as u64), &b);
            }
        }
    }
}

#[test]
fn a_negative_zero_a_skipped_product_would_flip_matches_the_pivoting_path() {
    // Row 4 has no multiplier under the pivot of column 0, so the pivoting
    // path subtracts (+0.0 / 2) * -3 = -0.0 from entry (4, 2) and turns a
    // -0.0 there into +0.0; the -0.0 in the right-hand side shows it. Under
    // a pivot of -2 the pivoting path's multiplier (5, 0) is -0.0, which
    // turns row 5's -0.0 into +0.0 in the forward substitution.
    let n = 8;
    let flip = |a00: f64, a42: f64| {
        let mut a = DenseMatrix::zeros(n, n);
        a.add(0, 0, a00);
        a.add(0, 2, -3.0);
        a.add(1, 0, 1.0);
        for i in 1..n {
            a.add(i, i, 4.0 + i as f64);
        }
        a.set(4, 2, a42);
        a
    };
    let b = [1.0, 1.0, 1.0, 1.0, -0.0, -0.0, 1.0, 1.0];
    for a00 in [2.0, -2.0] {
        let mut seq = Sequence::new(n);
        // A negative (4, 2) keeps every forward-substitution component
        // positive, so no later -0.0 product hides the difference.
        for a42 in [-1.0, -2.0, -0.0, -3.0, -0.0] {
            seq.check(&flip(a00, a42), &b);
        }
    }
}

#[test]
fn batched_lanes_equal_their_scalar_twins_when_one_differs_and_one_is_singular() {
    let (n, lanes) = (10, 8);
    let stamps = circuit(n, 21);
    let mut batch = BatchDense::new(n, lanes);
    let sentinel: Vec<f64> = (0..n).map(|i| 100.0 + i as f64).collect();
    for round in 0..4u64 {
        // Round 2 is the one under test; lane 7 sits it out.
        let active: Vec<bool> = (0..lanes).map(|l| round != 2 || l != 7).collect();
        let systems: Vec<(DenseMatrix, Vec<f64>)> = (0..lanes as u64)
            .map(|l| {
                let mut a = assemble(n, &stamps, 1e-3, round * 8 + l);
                if round == 2 && l == 3 {
                    a = assemble(n, &stamps, 1e2, l); // another pivot order
                }
                if round == 2 && l == 5 {
                    a = DenseMatrix::zeros(n, n);
                    for &(r, c, _) in &stamps {
                        if r != 4 && c != 4 {
                            a.add(r, c, 1.0 + (r + c) as f64);
                        }
                    }
                }
                let mut b = rhs(n, round * 8 + l);
                if round == 3 && l == 4 {
                    // Negative pivots and -0.0 in the right-hand side.
                    let mut neg = DenseMatrix::zeros(n, n);
                    for r in 0..n {
                        for c in 0..n {
                            if a.get(r, c) != 0.0 {
                                neg.add(r, c, -a.get(r, c));
                            }
                        }
                    }
                    a = neg;
                    b.iter_mut().step_by(2).for_each(|v| *v = -0.0);
                }
                if round == 3 && l == 6 {
                    b[0] = f64::INFINITY;
                }
                (a, b)
            })
            .collect();
        batch.begin(&active);
        let mut rhs_all = vec![0.0; n * lanes];
        for (l, (a, b)) in systems.iter().enumerate() {
            if active[l] {
                stamp(&mut batch, l, a, b, &mut rhs_all);
            } else {
                rhs_all[l * n..(l + 1) * n].copy_from_slice(&sentinel);
            }
        }
        let mut solved: Vec<sfet_numeric::Result<()>> = (0..lanes)
            .map(|_| Err(NumericError::SingularMatrix { column: 99 }))
            .collect();
        batch.factor_solve(&mut rhs_all, &active, &mut solved);
        for (l, (a, b)) in systems.iter().enumerate() {
            let got = &rhs_all[l * n..(l + 1) * n];
            if !active[l] {
                assert_eq!(
                    bits(got),
                    bits(&sentinel),
                    "inactive lane {l} keeps its rhs"
                );
                assert_eq!(solved[l], Err(NumericError::SingularMatrix { column: 99 }));
                continue;
            }
            let mut ws = LuFactors::workspace(n);
            match ws.refactor(a) {
                Ok(()) => {
                    assert_eq!(solved[l], Ok(()), "round {round} lane {l}");
                    assert_eq!(
                        bits(got),
                        bits(&ws.solve(b).unwrap()),
                        "round {round} lane {l}"
                    );
                    assert_eq!(bits(got), bits(&a.clone().lu().unwrap().solve(b).unwrap()));
                }
                Err(e) => {
                    assert_eq!(solved[l], Err(e.clone()), "round {round} lane {l}");
                    assert_eq!(a.clone().lu().err(), Some(e));
                }
            }
        }
        if round == 2 {
            assert!(solved[5].is_err(), "lane 5 is singular");
        }
    }
}
