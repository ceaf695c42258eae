//! Criterion benchmarks of the simulator kernels: dense/sparse LU,
//! device-model evaluation, and transient integration of reference
//! circuits. These track the cost of the substrate the paper experiments
//! run on.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sfet_circuit::{Circuit, SourceWaveform};
use sfet_devices::mosfet::{self, MosfetModel};
use sfet_devices::ptm::PtmParams;
use sfet_numeric::dense::DenseMatrix;
use sfet_numeric::sparse::TripletMatrix;
use sfet_sim::{transient, SimOptions};

fn dense_lu(c: &mut Criterion) {
    let mut group = c.benchmark_group("dense_lu");
    for &n in &[8usize, 32, 128] {
        let mut a = DenseMatrix::zeros(n, n);
        let mut seed = 1u64;
        let mut next = || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((seed >> 33) as f64) / (u32::MAX as f64) - 0.5
        };
        for r in 0..n {
            for col in 0..n {
                a.set(r, col, next());
            }
            a.add(r, r, 4.0);
        }
        let b: Vec<f64> = (0..n).map(|i| i as f64).collect();
        group.bench_with_input(BenchmarkId::new("factor_solve", n), &n, |bench, _| {
            bench.iter(|| {
                let lu = a.clone().lu().expect("well-conditioned");
                std::hint::black_box(lu.solve(&b).expect("sized rhs"));
            })
        });
    }
    group.finish();
}

fn sparse_lu(c: &mut Criterion) {
    let mut group = c.benchmark_group("sparse_lu");
    for &n in &[64usize, 256, 1024] {
        // PDN-like ladder: tridiagonal plus a few long-range couplings.
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
        let b: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        group.bench_with_input(BenchmarkId::new("factor_solve", n), &n, |bench, _| {
            bench.iter(|| {
                let lu = a.lu().expect("well-conditioned");
                std::hint::black_box(lu.solve(&b).expect("sized rhs"));
            })
        });
    }
    group.finish();
}

/// Clone-and-factor versus the persistent-workspace reuse path, for both
/// backends — the PR-2 hot-loop optimisation. Same matrices as the
/// `dense_lu` / `sparse_lu` groups so the absolute numbers line up.
fn factor_reuse(c: &mut Criterion) {
    use sfet_numeric::dense::LuFactors;

    let mut group = c.benchmark_group("factor_reuse");
    for &n in &[8usize, 16, 32, 128] {
        let mut a = DenseMatrix::zeros(n, n);
        let mut seed = 1u64;
        let mut next = || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((seed >> 33) as f64) / (u32::MAX as f64) - 0.5
        };
        for r in 0..n {
            for col in 0..n {
                a.set(r, col, next());
            }
            a.add(r, r, 4.0);
        }
        let b0: Vec<f64> = (0..n).map(|i| i as f64).collect();
        // Pre-PR2 engine hot path (clone + row-major LU from scratch),
        // preserved in `sfet_bench::legacy` as the comparison baseline.
        group.bench_with_input(
            BenchmarkId::new("dense_clone_lu_legacy", n),
            &n,
            |bench, _| {
                bench.iter(|| {
                    std::hint::black_box(sfet_bench::legacy::dense_clone_lu_solve(&a, &b0));
                })
            },
        );
        group.bench_with_input(BenchmarkId::new("dense_clone_lu", n), &n, |bench, _| {
            bench.iter(|| {
                let lu = a.clone().lu().expect("well-conditioned");
                std::hint::black_box(lu.solve(&b0).expect("sized rhs"));
            })
        });
        let mut factors = LuFactors::workspace(n);
        let mut b = b0.clone();
        let mut scratch = Vec::new();
        group.bench_with_input(BenchmarkId::new("dense_refactor", n), &n, |bench, _| {
            bench.iter(|| {
                factors.refactor(&a).expect("well-conditioned");
                b.copy_from_slice(&b0);
                factors
                    .solve_in_place(&mut b, &mut scratch)
                    .expect("sized rhs");
                std::hint::black_box(&b);
            })
        });
    }
    for &n in &[64usize, 256, 1024] {
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
        group.bench_with_input(BenchmarkId::new("sparse_full_lu", n), &n, |bench, _| {
            bench.iter(|| {
                let lu = a.lu().expect("well-conditioned");
                std::hint::black_box(lu.solve(&b0).expect("sized rhs"));
            })
        });
        let mut lu = a.lu().expect("well-conditioned");
        let mut b = b0.clone();
        let mut scratch = Vec::new();
        group.bench_with_input(BenchmarkId::new("sparse_refactor", n), &n, |bench, _| {
            bench.iter(|| {
                lu.refactor(&a).expect("same pattern");
                b.copy_from_slice(&b0);
                lu.solve_in_place(&mut b, &mut scratch).expect("sized rhs");
                std::hint::black_box(&b);
            })
        });
    }
    group.finish();
}

fn device_eval(c: &mut Criterion) {
    let nmos = MosfetModel::nmos_40nm();
    c.bench_function("mosfet_ekv_eval", |b| {
        let mut v = 0.0f64;
        b.iter(|| {
            v += 1e-6;
            let bias = v % 1.0;
            std::hint::black_box(mosfet::eval(&nmos, 120e-9, 40e-9, bias, 1.0, 0.0, 0.0))
        })
    });
}

fn rc_transient(c: &mut Criterion) {
    let mut ckt = Circuit::new();
    let a = ckt.node("a");
    let out = ckt.node("out");
    let gnd = Circuit::ground();
    ckt.add_voltage_source("V1", a, gnd, SourceWaveform::ramp(0.0, 1.0, 0.0, 10e-12))
        .expect("build rc");
    ckt.add_resistor("R1", a, out, 1e3).expect("build rc");
    ckt.add_capacitor("C1", out, gnd, 1e-15).expect("build rc");
    c.bench_function("transient_rc_1000_steps", |b| {
        let opts = SimOptions::for_duration(10e-12, 1000);
        b.iter(|| std::hint::black_box(transient(&ckt, 10e-12, &opts).expect("rc converges")))
    });
}

fn softfet_inverter_transient(c: &mut Criterion) {
    use softfet::inverter::{InverterSpec, Topology};
    use softfet::metrics::run_inverter;
    let soft = InverterSpec::minimum(1.0, Topology::SoftFet(PtmParams::vo2_default()));
    let base = InverterSpec::minimum(1.0, Topology::Baseline);
    c.bench_function("transient_inverter_baseline", |b| {
        b.iter(|| std::hint::black_box(run_inverter(&base).expect("baseline converges")))
    });
    c.bench_function("transient_inverter_softfet", |b| {
        b.iter(|| std::hint::black_box(run_inverter(&soft).expect("softfet converges")))
    });
}

fn solver_backend(c: &mut Criterion) {
    use sfet_sim::LinearSolver;
    // Power-grid mesh sized to show the dense/sparse crossover.
    let mut group = c.benchmark_group("solver_backend");
    for &n in &[4usize, 8, 14] {
        let mut ckt = Circuit::new();
        let gnd = Circuit::ground();
        let vrm = ckt.node("vrm");
        ckt.add_voltage_source("VRM", vrm, gnd, SourceWaveform::Dc(1.0))
            .expect("grid build");
        let corner = ckt.node("g0_0");
        ckt.add_resistor("Rfeed", vrm, corner, 0.05)
            .expect("grid build");
        for i in 0..n {
            for j in 0..n {
                let here = ckt.node(&format!("g{i}_{j}"));
                if i + 1 < n {
                    let down = ckt.node(&format!("g{}_{j}", i + 1));
                    ckt.add_resistor(&format!("Rv{i}_{j}"), here, down, 0.1)
                        .expect("grid build");
                }
                if j + 1 < n {
                    let right = ckt.node(&format!("g{i}_{}", j + 1));
                    ckt.add_resistor(&format!("Rh{i}_{j}"), here, right, 0.1)
                        .expect("grid build");
                }
                ckt.add_capacitor(&format!("C{i}_{j}"), here, gnd, 1e-12)
                    .expect("grid build");
            }
        }
        let far = ckt.node(&format!("g{}_{}", n - 1, n - 1));
        ckt.add_current_source(
            "Iload",
            far,
            gnd,
            SourceWaveform::ramp(0.0, 0.1, 0.2e-9, 0.2e-9),
        )
        .expect("grid build");
        let tstop = 2e-9;
        for solver in [LinearSolver::Dense, LinearSolver::Sparse] {
            let opts = SimOptions::for_duration(tstop, 100).with_solver(solver);
            group.bench_with_input(BenchmarkId::new(solver.to_string(), n * n), &n, |b, _| {
                b.iter(|| {
                    std::hint::black_box(transient(&ckt, tstop, &opts).expect("grid converges"))
                })
            });
        }
    }
    group.finish();
}

criterion_group!(
    name = kernels;
    config = Criterion::default().sample_size(10);
    targets = dense_lu, sparse_lu, factor_reuse, device_eval, rc_transient,
        softfet_inverter_transient, solver_backend
);
criterion_main!(kernels);
