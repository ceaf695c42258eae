//! Property-based tests for the numerical kernels.

use proptest::prelude::*;
use sfet_numeric::dense::DenseMatrix;
use sfet_numeric::interp::PiecewiseLinear;
use sfet_numeric::smooth;
use sfet_numeric::sparse::TripletMatrix;

/// Strategy: a diagonally dominant n×n matrix given as (n, entries).
fn dd_matrix() -> impl Strategy<Value = (usize, Vec<(usize, usize, f64)>)> {
    (2usize..12).prop_flat_map(|n| {
        let entry = (0..n, 0..n, -1.0f64..1.0);
        (Just(n), proptest::collection::vec(entry, 0..4 * n))
    })
}

fn build_matrices(n: usize, entries: &[(usize, usize, f64)]) -> (TripletMatrix, DenseMatrix) {
    let mut t = TripletMatrix::new(n, n);
    let mut d = DenseMatrix::zeros(n, n);
    for &(r, c, v) in entries {
        t.push(r, c, v);
        d.add(r, c, v);
    }
    // Force diagonal dominance so the system is solvable.
    for i in 0..n {
        t.push(i, i, 8.0);
        d.add(i, i, 8.0);
    }
    (t, d)
}

proptest! {
    /// Sparse LU and dense LU agree on diagonally dominant systems.
    #[test]
    fn sparse_lu_matches_dense((n, entries) in dd_matrix(), b_seed in -1.0f64..1.0) {
        let (t, d) = build_matrices(n, &entries);
        let b: Vec<f64> = (0..n).map(|i| b_seed + i as f64 * 0.37).collect();
        let xs = t.to_csc().lu().unwrap().solve(&b).unwrap();
        let xd = d.solve(&b).unwrap();
        for (s, v) in xs.iter().zip(&xd) {
            prop_assert!((s - v).abs() < 1e-9, "sparse {s} vs dense {v}");
        }
    }

    /// A x == b residual is small for both solvers.
    #[test]
    fn lu_residual_small((n, entries) in dd_matrix()) {
        let (t, d) = build_matrices(n, &entries);
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 1.3).sin()).collect();
        let a = t.to_csc();
        let x = a.lu().unwrap().solve(&b).unwrap();
        let r = a.matvec(&x).unwrap();
        for (ri, bi) in r.iter().zip(&b) {
            prop_assert!((ri - bi).abs() < 1e-9);
        }
        let xd = d.clone().solve(&b).unwrap();
        let rd = d.matvec(&xd).unwrap();
        for (ri, bi) in rd.iter().zip(&b) {
            prop_assert!((ri - bi).abs() < 1e-9);
        }
    }

    /// Triplet compression sums duplicates in any insertion order.
    #[test]
    fn triplet_order_independent(mut entries in proptest::collection::vec((0usize..4, 0usize..4, -2.0f64..2.0), 1..24)) {
        let mut t1 = TripletMatrix::new(4, 4);
        for &(r, c, v) in &entries {
            t1.push(r, c, v);
        }
        entries.reverse();
        let mut t2 = TripletMatrix::new(4, 4);
        for &(r, c, v) in &entries {
            t2.push(r, c, v);
        }
        let (a1, a2) = (t1.to_csc(), t2.to_csc());
        for r in 0..4 {
            for c in 0..4 {
                prop_assert!((a1.get(r, c) - a2.get(r, c)).abs() < 1e-12);
            }
        }
    }

    /// PWL evaluation stays within the convex hull of its ordinates.
    #[test]
    fn pwl_bounded_by_ordinates(ys in proptest::collection::vec(-5.0f64..5.0, 2..10), q in 0.0f64..1.0) {
        let xs: Vec<f64> = (0..ys.len()).map(|i| i as f64).collect();
        let lo = ys.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = ys.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let p = PiecewiseLinear::new(xs, ys).unwrap();
        let x = q * (p.xs().len() as f64 + 2.0) - 1.0; // includes clamp regions
        let y = p.eval(x);
        prop_assert!(y >= lo - 1e-12 && y <= hi + 1e-12);
    }

    /// PWL of a monotone sequence is monotone.
    #[test]
    fn pwl_monotone_preserved(steps in proptest::collection::vec(0.01f64..1.0, 2..10), a in 0.0f64..1.0, b in 0.0f64..1.0) {
        let mut acc = 0.0;
        let ys: Vec<f64> = steps.iter().map(|s| { acc += s; acc }).collect();
        let xs: Vec<f64> = (0..ys.len()).map(|i| i as f64).collect();
        let xmax = (ys.len() - 1) as f64;
        let p = PiecewiseLinear::new(xs, ys).unwrap();
        let (x1, x2) = (a.min(b) * xmax, a.max(b) * xmax);
        prop_assert!(p.eval(x1) <= p.eval(x2) + 1e-12);
    }

    /// softplus(x) - softplus(-x) == x (exact identity).
    #[test]
    fn softplus_identity(x in -500.0f64..500.0) {
        let lhs = smooth::softplus(x) - smooth::softplus(-x);
        prop_assert!((lhs - x).abs() < 1e-9 * (1.0 + x.abs()));
    }

    /// smoothmax is commutative and bounds max from above.
    #[test]
    fn smoothmax_properties(a in -10.0f64..10.0, b in -10.0f64..10.0, w in 1e-6f64..1.0) {
        let m1 = smooth::smoothmax(a, b, w);
        let m2 = smooth::smoothmax(b, a, w);
        prop_assert!((m1 - m2).abs() < 1e-12);
        prop_assert!(m1 >= a.max(b) - 1e-12);
        prop_assert!(m1 <= a.max(b) + w);
    }

    /// exp_lerp stays between its endpoints and is monotone in t.
    #[test]
    fn exp_lerp_monotone(a in 1.0f64..1e7, b in 1.0f64..1e7, t1 in 0.0f64..1.0, t2 in 0.0f64..1.0) {
        let (lo, hi) = (a.min(b), a.max(b));
        let v1 = smooth::exp_lerp(a, b, t1);
        prop_assert!(v1 >= lo * (1.0 - 1e-12) && v1 <= hi * (1.0 + 1e-12));
        let (t_lo, t_hi) = (t1.min(t2), t1.max(t2));
        let (v_lo, v_hi) = (smooth::exp_lerp(a, b, t_lo), smooth::exp_lerp(a, b, t_hi));
        if a <= b {
            prop_assert!(v_lo <= v_hi * (1.0 + 1e-12));
        } else {
            prop_assert!(v_lo >= v_hi * (1.0 - 1e-12));
        }
    }
}

proptest! {
    /// ILU(0)-preconditioned GMRES agrees with sparse LU to 1e-9 relative
    /// on random diagonally dominant systems (the SPD-ish regime the MNA
    /// grid matrices live in).
    #[test]
    fn gmres_matches_sparse_lu((n, entries) in dd_matrix(), b_seed in -1.0f64..1.0) {
        use sfet_numeric::krylov::{gmres, GmresOptions, GmresWorkspace, Ilu0};

        let (t, _) = build_matrices(n, &entries);
        let a = t.to_csc();
        let b: Vec<f64> = (0..n).map(|i| b_seed + (i as f64 * 0.73).cos()).collect();
        let x_lu = a.lu().unwrap().solve(&b).unwrap();
        let scale = x_lu.iter().fold(1.0f64, |m, v| m.max(v.abs()));
        let opts = GmresOptions::default();
        let mut ws = GmresWorkspace::new(n, opts.restart);

        let mut x = vec![0.0; n];
        gmres(&a, &Ilu0::factor(&a).unwrap(), &b, &mut x, &opts, &mut ws).unwrap();
        for (g, l) in x.iter().zip(&x_lu) {
            prop_assert!(
                (g - l).abs() <= 1e-9 * scale,
                "ilu0: gmres {g} vs lu {l} (scale {scale})"
            );
        }
    }
}
