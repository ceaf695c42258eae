//! PR-2 solver-path microbenchmark: per-solve cost of the clone-and-factor
//! baseline versus the persistent-workspace refactorisation path, for both
//! MNA backends. Emits `BENCH_pr2.json` (under the figure directory) so CI
//! can archive the numbers per commit.
//!
//! Uses only `std::time` — no Criterion — so it runs in plain CI without
//! the `bench-harness` feature. Pass `--smoke` for a fast low-iteration
//! run that still exercises every measured path.

use std::time::Instant;

use sfet_bench::{legacy, save_json};
use sfet_numeric::dense::{DenseMatrix, LuFactors};
use sfet_numeric::sparse::TripletMatrix;

struct Measurement {
    name: &'static str,
    n: usize,
    baseline_ns: f64,
    reuse_ns: f64,
}

impl Measurement {
    fn speedup(&self) -> f64 {
        self.baseline_ns / self.reuse_ns
    }
}

fn time_per_iter<F: FnMut()>(iters: u32, mut f: F) -> f64 {
    // One untimed pass warms caches and sizes scratch buffers.
    f();
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_nanos() as f64 / f64::from(iters)
}

fn dense_case(n: usize, iters: u32) -> Measurement {
    let mut a = DenseMatrix::zeros(n, n);
    let mut seed = 1u64;
    let mut next = || {
        seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        ((seed >> 33) as f64) / (u32::MAX as f64) - 0.5
    };
    for r in 0..n {
        for c in 0..n {
            a.set(r, c, next());
        }
        a.add(r, r, 4.0);
    }
    let b0: Vec<f64> = (0..n).map(|i| i as f64).collect();

    // Baseline = the engine's pre-PR2 per-iteration cost (clone + LU from
    // scratch, row-major elimination), preserved in `sfet_bench::legacy`.
    // Benching the *current* `clone().lu()` here would compare the new
    // kernel against itself and hide the hot-loop win.
    let baseline_ns = time_per_iter(iters, || {
        std::hint::black_box(legacy::dense_clone_lu_solve(&a, &b0));
    });

    let mut factors = LuFactors::workspace(n);
    let mut b = b0.clone();
    let mut scratch = Vec::new();
    let reuse_ns = time_per_iter(iters, || {
        factors.refactor(&a).expect("well-conditioned");
        b.copy_from_slice(&b0);
        factors
            .solve_in_place(&mut b, &mut scratch)
            .expect("sized rhs");
        std::hint::black_box(&b);
    });

    Measurement {
        name: "dense",
        n,
        baseline_ns,
        reuse_ns,
    }
}

fn sparse_case(n: usize, iters: u32) -> Measurement {
    let mut t = TripletMatrix::new(n, n);
    for i in 0..n {
        t.push(i, i, 3.0);
        if i > 0 {
            t.push(i, i - 1, -1.0);
            t.push(i - 1, i, -1.0);
        }
        if i + 17 < n {
            t.push(i, i + 17, -0.1);
        }
    }
    let a = t.to_csc();
    let b0: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();

    let baseline_ns = time_per_iter(iters, || {
        let lu = a.lu().expect("well-conditioned");
        std::hint::black_box(lu.solve(&b0).expect("sized rhs"));
    });

    let mut lu = a.lu().expect("well-conditioned");
    let mut b = b0.clone();
    let mut scratch = Vec::new();
    let reuse_ns = time_per_iter(iters, || {
        lu.refactor(&a).expect("same pattern");
        b.copy_from_slice(&b0);
        lu.solve_in_place(&mut b, &mut scratch).expect("sized rhs");
        std::hint::black_box(&b);
    });

    Measurement {
        name: "sparse",
        n,
        baseline_ns,
        reuse_ns,
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let iters: u32 = if smoke { 100 } else { 2000 };

    let results = [
        dense_case(8, iters),
        dense_case(16, iters),
        dense_case(32, iters),
        dense_case(128, iters.min(200)),
        sparse_case(64, iters),
        sparse_case(256, iters),
        sparse_case(1024, iters.min(200)),
    ];

    println!(
        "{:<8} {:>6} {:>16} {:>16} {:>9}",
        "backend", "n", "clone+factor/ns", "refactor/ns", "speedup"
    );
    for m in &results {
        println!(
            "{:<8} {:>6} {:>16.0} {:>16.0} {:>8.2}x",
            m.name,
            m.n,
            m.baseline_ns,
            m.reuse_ns,
            m.speedup()
        );
    }

    println!();
    save_json("BENCH_pr2.json", |doc| {
        doc.str("bench", "pr2_factor_reuse")
            .str("mode", if smoke { "smoke" } else { "full" })
            .u64("iters", iters.into());
        let mut entries = doc.array("results");
        for m in &results {
            entries
                .object()
                .str("backend", m.name)
                .u64("n", m.n as u64)
                .f64("clone_factor_ns", m.baseline_ns)
                .f64("refactor_ns", m.reuse_ns)
                .f64("speedup", m.speedup());
        }
    });
}
