//! Serial/parallel determinism guarantee of the sweep engine.
//!
//! Every sweep in the workspace routes through `sfet_numeric::exec`, whose
//! headline contract is: for a fixed seed and fixed inputs, the results are
//! **bitwise identical** at any worker count. These tests pin that contract
//! at the experiment level (Monte-Carlo, design-space and temperature
//! sweeps) and at the engine level (seed derivation, error paths).
//!
//! Worker counts are pinned per-call with `ExecConfig::with_workers` rather
//! than through `SFET_THREADS`, so the tests are immune to the test
//! harness's own thread-level parallelism.

use proptest::prelude::*;
use sfet_devices::ptm::PtmParams;
use sfet_numeric::exec::{self, task_seed, ExecConfig, Task};
use softfet::design_space::{temperature_sweep_with, tptm_sweep_with, vimt_vmit_grid_with};
use softfet::variation::{monte_carlo_imax_with, PtmVariation};
use softfet::SoftFetError;

const WORKER_COUNTS: [usize; 3] = [1, 2, 8];

/// Asserts two f64 values are identical to the last bit.
fn assert_bits_eq(a: f64, b: f64, what: &str) {
    assert_eq!(
        a.to_bits(),
        b.to_bits(),
        "{what}: {a:?} vs {b:?} differ bitwise"
    );
}

#[test]
fn monte_carlo_bitwise_identical_across_worker_counts() {
    let base = PtmParams::vo2_default();
    let variation = PtmVariation::default();
    let run = |workers: usize| {
        monte_carlo_imax_with(
            &ExecConfig::with_workers(workers),
            1.0,
            base,
            &variation,
            6,
            0xD5EE_D5EE,
            1e-3,
        )
        .expect("monte carlo runs")
    };
    let reference = run(1);
    for &workers in &WORKER_COUNTS[1..] {
        let got = run(workers);
        assert_eq!(got.samples, reference.samples);
        for (i, (a, b)) in reference
            .i_max_values
            .iter()
            .zip(&got.i_max_values)
            .enumerate()
        {
            assert_bits_eq(*a, *b, &format!("sample {i} at {workers} workers"));
        }
        assert_bits_eq(got.mean_i_max, reference.mean_i_max, "mean");
        assert_bits_eq(got.std_i_max, reference.std_i_max, "std");
    }
}

#[test]
fn vimt_vmit_grid_bitwise_identical_across_worker_counts() {
    let base = PtmParams::vo2_default();
    let run = |workers: usize| {
        vimt_vmit_grid_with(
            &ExecConfig::with_workers(workers),
            1.0,
            base,
            &[0.3, 0.4, 0.5],
            &[0.1, 0.2],
        )
        .expect("grid runs")
        .0
    };
    let reference = run(1);
    for &workers in &WORKER_COUNTS[1..] {
        let got = run(workers);
        assert_eq!(got.len(), reference.len());
        for (i, (a, b)) in reference.iter().zip(&got).enumerate() {
            assert_bits_eq(a.i_max, b.i_max, &format!("grid point {i} i_max"));
            assert_bits_eq(a.di_dt, b.di_dt, &format!("grid point {i} di_dt"));
            assert_bits_eq(a.delay, b.delay, &format!("grid point {i} delay"));
            assert_eq!(a.transitions, b.transitions, "grid point {i} transitions");
        }
    }
}

#[test]
fn temperature_sweep_bitwise_identical_across_worker_counts() {
    let base = PtmParams::vo2_default();
    let run = |workers: usize| {
        temperature_sweep_with(
            &ExecConfig::with_workers(workers),
            1.0,
            base,
            &[25.0, 45.0, 62.0],
        )
        .expect("temperature sweep runs")
    };
    let reference = run(1);
    for &workers in &WORKER_COUNTS[1..] {
        let got = run(workers);
        for (i, (a, b)) in reference.iter().zip(&got).enumerate() {
            assert_bits_eq(a.i_max_soft, b.i_max_soft, &format!("T point {i} soft"));
            assert_bits_eq(a.i_max_base, b.i_max_base, &format!("T point {i} base"));
            assert_bits_eq(
                a.reduction_pct,
                b.reduction_pct,
                &format!("T point {i} reduction"),
            );
        }
    }
}

#[test]
fn failing_task_cancels_sweep_and_names_the_point() {
    use std::sync::atomic::{AtomicUsize, Ordering};

    // Engine-level: a mid-sweep failure must stop the grid well before
    // completion, not run every remaining task to the end.
    let ran = AtomicUsize::new(0);
    let items: Vec<usize> = (0..2048).collect();
    let err = exec::par_map(
        &ExecConfig::with_workers(4),
        &items,
        Task::Each(&|_, _, &x| {
            ran.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(std::time::Duration::from_micros(100));
            if x == 3 {
                Err(format!("injected failure at {x}"))
            } else {
                Ok(x)
            }
        }),
    )
    .expect_err("task 3 fails");
    assert_eq!(err.index, 3);
    let ran = ran.load(Ordering::Relaxed);
    assert!(
        ran < items.len() / 2,
        "sweep must cancel promptly, but {ran}/{} tasks ran",
        items.len()
    );

    // Experiment-level: the error names the task index and its parameters.
    let err = tptm_sweep_with(
        &ExecConfig::with_workers(2),
        1.0,
        PtmParams::vo2_default(),
        &[10e-12, 20e-12, -5e-12],
    )
    .expect_err("negative t_ptm fails validation");
    match err {
        SoftFetError::Sweep {
            index, ref context, ..
        } => {
            assert_eq!(index, 2, "third point is the bad one");
            assert!(context.contains("t_ptm"), "context: {context}");
            assert!(
                err.to_string().contains("#2"),
                "display names the task: {err}"
            );
        }
        other => panic!("expected SoftFetError::Sweep, got {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The per-task seed derivation never collides across a 10k-task sweep,
    /// for arbitrary base seeds — distinct tasks always get distinct RNG
    /// streams.
    #[test]
    fn task_seeds_never_collide(base in 0u64..u64::MAX) {
        let mut seen = std::collections::HashSet::with_capacity(10_000);
        for index in 0..10_000u64 {
            prop_assert!(
                seen.insert(task_seed(base, index)),
                "collision at base={base}, index={index}"
            );
        }
    }

    /// Seeds also differ across base seeds for the same index (different
    /// sweeps don't share streams).
    #[test]
    fn task_seeds_differ_across_bases(base in 0u64..(u64::MAX - 1), index in 0u64..10_000) {
        prop_assert!(task_seed(base, index) != task_seed(base + 1, index));
    }
}
