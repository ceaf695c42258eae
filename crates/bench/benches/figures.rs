//! Criterion benchmarks of the per-figure experiment pipelines.
//!
//! One benchmark per paper artifact (scaled-down parameter sets where the
//! full sweep would take minutes). These both time the harness and act as
//! smoke tests that every figure's pipeline stays runnable.

use criterion::{criterion_group, criterion_main, Criterion};
use sfet_devices::ptm::{hysteresis_sweep, PtmParams};
use sfet_numeric::exec::ExecConfig;
use sfet_pdn::io_buffer::IoBufferScenario;
use sfet_pdn::power_gate::PowerGateScenario;
use softfet::design_space::{slew_sweep_with, tptm_sweep_with, vimt_vmit_grid_with};
use softfet::inverter::{InverterSpec, Topology};
use softfet::metrics::measure_inverter;

fn fig02_hysteresis(c: &mut Criterion) {
    let p = PtmParams::vo2_default();
    c.bench_function("fig02_hysteresis_sweep", |b| {
        b.iter(|| std::hint::black_box(hysteresis_sweep(&p, 1.0, 200).expect("sweeps")))
    });
}

fn fig04_inverter_pair(c: &mut Criterion) {
    c.bench_function("fig04_soft_vs_baseline", |b| {
        b.iter(|| {
            let base = measure_inverter(&InverterSpec::minimum(1.0, Topology::Baseline))
                .expect("baseline");
            let soft = measure_inverter(&InverterSpec::minimum(
                1.0,
                Topology::SoftFet(PtmParams::vo2_default()),
            ))
            .expect("softfet");
            std::hint::black_box((base.i_max, soft.i_max))
        })
    });
}

fn fig06_grid_small(c: &mut Criterion) {
    c.bench_function("fig06_grid_3x1", |b| {
        b.iter(|| {
            std::hint::black_box(
                vimt_vmit_grid_with(
                    &ExecConfig::from_env(),
                    1.0,
                    PtmParams::vo2_default(),
                    &[0.3, 0.4, 0.5],
                    &[0.1],
                )
                .expect("grid"),
            )
        })
    });
}

fn fig08_tptm_small(c: &mut Criterion) {
    c.bench_function("fig08_tptm_3pts", |b| {
        b.iter(|| {
            std::hint::black_box(
                tptm_sweep_with(
                    &ExecConfig::from_env(),
                    1.0,
                    PtmParams::vo2_default(),
                    &[5e-12, 10e-12, 20e-12],
                )
                .expect("sweep"),
            )
        })
    });
}

fn fig09_slew_small(c: &mut Criterion) {
    c.bench_function("fig09_slew_2pts", |b| {
        b.iter(|| {
            std::hint::black_box(
                slew_sweep_with(
                    &ExecConfig::from_env(),
                    1.0,
                    PtmParams::vo2_default(),
                    &[30e-12, 100e-12],
                )
                .expect("sweep"),
            )
        })
    });
}

fn fig10_power_gate(c: &mut Criterion) {
    c.bench_function("fig10_power_gate_wakeup", |b| {
        let s = PowerGateScenario::default();
        b.iter(|| std::hint::black_box(s.run().expect("wakeup converges")))
    });
}

fn fig11_io_buffer(c: &mut Criterion) {
    c.bench_function("fig11_io_buffer_edge", |b| {
        let s = IoBufferScenario::default();
        b.iter(|| std::hint::black_box(s.run().expect("edge converges")))
    });
}

criterion_group!(
    name = figures;
    config = Criterion::default().sample_size(10);
    targets = fig02_hysteresis,
        fig04_inverter_pair,
        fig06_grid_small,
        fig08_tptm_small,
        fig09_slew_small,
        fig10_power_gate,
        fig11_io_buffer
);
criterion_main!(figures);
