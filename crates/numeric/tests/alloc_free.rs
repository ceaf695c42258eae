//! The refactor + solve hot path must be allocation-free: every Newton
//! iteration of the simulator runs through it, and a per-iteration heap
//! allocation would dominate small-circuit solve time.
//!
//! A counting global allocator observes the steady-state loop after a
//! warm-up pass (the warm-up sizes the persistent workspaces and compiles
//! the batched elimination plan; a recompile reuses its storage).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use sfet_numeric::batch::BatchDense;
use sfet_numeric::dense::{DenseMatrix, LuFactors};
use sfet_numeric::krylov::{gmres, GmresOptions, GmresWorkspace, Ilu0};
use sfet_numeric::sparse::TripletMatrix;
use sfet_telemetry::{names, Level, Telemetry};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::SeqCst)
}

/// Allocation count attributable to `f`, taken as the minimum over a few
/// attempts: the hot path is deterministic (0 every time), while stray
/// allocations from test-harness threads are transient and don't repeat.
fn min_allocations<F: FnMut()>(mut f: F) -> u64 {
    (0..3)
        .map(|_| {
            let before = allocations();
            f();
            allocations() - before
        })
        .min()
        .unwrap()
}

/// The backends' reuse paths run a sustained refactor/solve loop without
/// touching the heap. One test function so the counter is not racing
/// against a sibling test thread.
#[test]
fn refactor_solve_hot_path_is_allocation_free() {
    let n = 12;

    // --- Dense: persistent workspace, in-place refactorisation. ---
    let mut a = DenseMatrix::zeros(n, n);
    for i in 0..n {
        a.set(i, i, 4.0 + i as f64);
        if i + 1 < n {
            a.set(i, i + 1, -1.0);
            a.set(i + 1, i, -1.5);
        }
    }
    let mut factors = LuFactors::workspace(n);
    let mut b = vec![0.0; n];
    let mut scratch = Vec::new();
    // Warm-up pass sizes the scratch buffer.
    factors.refactor(&a).unwrap();
    b.iter_mut().for_each(|v| *v = 1.0);
    factors.solve_in_place(&mut b, &mut scratch).unwrap();

    let dense_allocs = min_allocations(|| {
        for k in 0..200u32 {
            a.set(0, 0, 4.0 + f64::from(k) * 1e-3);
            factors.refactor(&a).unwrap();
            b.iter_mut().for_each(|v| *v = 1.0);
            factors.solve_in_place(&mut b, &mut scratch).unwrap();
        }
    });
    assert_eq!(dense_allocs, 0, "dense refactor/solve loop allocated");
    assert!(b.iter().all(|v| v.is_finite()));

    // --- Batched dense: eight lanes replay one plan per round. ---
    // Every lane's (0, 0) entry is `a00`: 4.0 and up keep row 0 as the
    // first pivot, 1.0 loses it to row 1 (|-1.5|), another pivot order.
    let lanes = 8;
    let mut batch = BatchDense::new(n, lanes);
    let active = vec![true; lanes];
    let mut rhs = vec![0.0; n * lanes];
    let mut solved: Vec<sfet_numeric::Result<()>> = (0..lanes).map(|_| Ok(())).collect();
    let mut round = |a00: f64| {
        batch.begin(&active);
        for l in 0..lanes {
            for i in 0..n {
                batch.add(l, i, i, 4.0 + i as f64 + l as f64);
                if i + 1 < n {
                    batch.add(l, i, i + 1, -1.0);
                    batch.add(l, i + 1, i, -1.5);
                }
            }
            batch.add(l, 0, 0, a00 - 4.0 - l as f64);
        }
        rhs.iter_mut().for_each(|v| *v = 1.0);
        batch.factor_solve(&mut rhs, &active, &mut solved);
    };
    for _ in 0..2 {
        round(4.0);
    }
    let batch_allocs = min_allocations(|| {
        for k in 0..200u32 {
            round(4.0 + f64::from(k) * 1e-3);
        }
    });
    assert_eq!(batch_allocs, 0, "batched round loop allocated");
    // The pivot order flips at every round: lanes run the scalar path,
    // and the plan misses and recompiles into the storage it holds.
    let mut flips = || {
        for k in 0..200 {
            round(if k % 2 == 0 { 4.0 } else { 1.0 });
        }
    };
    flips();
    let flip_allocs = min_allocations(flips);
    assert_eq!(flip_allocs, 0, "batched rounds that recompile allocated");
    assert!(rhs.iter().all(|v| v.is_finite()));
    assert!(solved.iter().all(|s| s.is_ok()));

    // --- Sparse: cached symbolic analysis, numeric-only refactor. ---
    let make = |shift: f64| {
        let mut t = TripletMatrix::new(n, n);
        for i in 0..n {
            t.push(i, i, 5.0 + shift + i as f64);
            if i + 1 < n {
                t.push(i, i + 1, -1.0);
                t.push(i + 1, i, -2.0 + shift * 0.1);
            }
        }
        t.to_csc()
    };
    let a0 = make(0.0);
    let a1 = make(0.25);
    let mut lu = a0.lu().unwrap();
    let mut b = vec![0.0; n];
    let mut scratch = Vec::new();
    lu.refactor(&a1).unwrap();
    b.iter_mut().for_each(|v| *v = 1.0);
    lu.solve_in_place(&mut b, &mut scratch).unwrap();

    let sparse_allocs = min_allocations(|| {
        for k in 0..200 {
            let a = if k % 2 == 0 { &a0 } else { &a1 };
            lu.refactor(a).unwrap();
            b.iter_mut().for_each(|v| *v = 1.0);
            lu.solve_in_place(&mut b, &mut scratch).unwrap();
        }
    });
    assert_eq!(sparse_allocs, 0, "sparse refactor/solve loop allocated");
    assert!(b.iter().all(|v| v.is_finite()));

    // --- GMRES: numeric-only ILU(0) refresh, reused Krylov workspace. ---
    // A 4×3 grid pattern: ILU(0) drops fill, so GMRES iterates.
    let grid = |shift: f64| {
        let mut t = TripletMatrix::new(n, n);
        for i in 0..n {
            t.push(i, i, 4.5 + shift);
            for j in [i + 1, i + 4] {
                if j < n && (j != i + 1 || j % 4 != 0) {
                    t.push(i, j, -1.0);
                    t.push(j, i, -1.0 + shift * 0.1);
                }
            }
        }
        t.to_csc()
    };
    let (g0, g1) = (grid(0.0), grid(0.25));
    let opts = GmresOptions::default();
    let mut ilu = Ilu0::factor(&g0).unwrap();
    let mut ws = GmresWorkspace::new(n, opts.restart);
    let rhs = vec![1.0; n];
    let mut x = vec![0.0; n];
    ilu.refactor(&g1).unwrap();
    let stats = gmres(&g1, &ilu, &rhs, &mut x, &opts, &mut ws).unwrap();
    assert!(stats.converged && stats.iterations > 1, "{stats:?}");

    let gmres_allocs = min_allocations(|| {
        for k in 0..200 {
            let g = if k % 2 == 0 { &g0 } else { &g1 };
            ilu.refactor(g).unwrap();
            x.iter_mut().for_each(|v| *v = 0.0);
            gmres(g, &ilu, &rhs, &mut x, &opts, &mut ws).unwrap();
        }
    });
    assert_eq!(gmres_allocs, 0, "ILU(0) refresh + GMRES loop allocated");
    assert!(x.iter().all(|v| v.is_finite()));

    // --- Disabled telemetry inside the hot loop. ---
    // The simulator calls counter/histogram/span at every Newton iteration;
    // with the default (disabled) handle these must be no-op early returns
    // — no clock reads, no locks, and, asserted here, no heap traffic.
    let telemetry = Telemetry::disabled();
    let telemetry_allocs = min_allocations(|| {
        for k in 0..200u32 {
            a.set(0, 0, 4.0 + f64::from(k) * 1e-3);
            let span = telemetry.span(Level::Iteration, names::SPAN_NEWTON_ITER);
            factors.refactor(&a).unwrap();
            telemetry.counter(names::TRAN_NEWTON_ITERATIONS, 1);
            telemetry.histogram(names::H_TRAN_DT, f64::from(k) * 1e-12);
            drop(span);
        }
    });
    assert_eq!(
        telemetry_allocs, 0,
        "disabled telemetry must not touch the heap in the hot loop"
    );
}
