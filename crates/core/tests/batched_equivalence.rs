//! Differential-testing harness gating scalar/batched equivalence.
//!
//! The batched structure-of-arrays engine ([`sfet_sim::transient_batch`]
//! and the tiled sweeps of `sfet_numeric::exec` it plugs into) promises
//! **bitwise identity** with the scalar path: every lane executes the same
//! sequence of floating-point operations as its scalar twin, for any lane
//! width, worker count, tiling, or co-resident lane behaviour — including
//! lanes that diverge and retry. This suite is the gate on that promise:
//!
//! * every verify golden-scenario circuit (the analytic catalog, PTM
//!   staircase included) compared scalar-vs-batched across all three
//!   integration methods;
//! * randomized circuit × method × batch-width differential property
//!   tests, including tiles with injected per-lane Newton faults;
//! * the rewired core sweeps (`monte_carlo_imax`, the V_IMT × V_MIT grid)
//!   replayed across batch widths, worker counts, ragged tails and
//!   B > task-count configurations;
//! * fault-plan lane isolation: failed lanes surface as
//!   [`SweepOutcome::Failed`] with scalar-exact attempt counts while their
//!   tile siblings stay untouched;
//! * per-task accounting: `exec.*` telemetry totals and [`ExecStats`]
//!   agree with each other and with a scalar run of the same sweep;
//! * solver choice: droop-map lanes above the sparse threshold run on
//!   sparse LU with factor reuse, and on GMRES when pinned to it, exactly
//!   as their scalar runs do.

use proptest::prelude::*;
use sfet_circuit::{Circuit, SourceWaveform};
use sfet_devices::ptm::PtmParams;
use sfet_numeric::exec::{task_seed, ExecConfig, SweepOutcome};
use sfet_numeric::fault::FaultPlan;
use sfet_numeric::integrate::Method;
use sfet_pdn::PdnGrid;
use sfet_sim::{
    transient, transient_batch, BatchSpec, LinearSolver, SimOptions, SolverStats, TranResult,
};
use sfet_telemetry::{names, SharedAggregator, Telemetry};
use sfet_verify::analytic::catalog;
use softfet::design_space::vimt_vmit_grid_with;
use softfet::inverter::{InverterSpec, Topology};
use softfet::metrics::measure_inverter;
use softfet::variation::{
    monte_carlo_imax_outcomes, monte_carlo_imax_with, PtmVariation, VariationRng,
};

/// Bitwise comparison of two transient results: time axis, every node
/// voltage, and the full statistics block (Newton iterations, rejections,
/// solver counters — everything except wall-clock timing, which the stats
/// equality deliberately excludes).
fn assert_tran_bitwise(a: &TranResult, b: &TranResult, what: &str) {
    assert_eq!(a.times().len(), b.times().len(), "{what}: sample counts");
    for (ta, tb) in a.times().iter().zip(b.times()) {
        assert_eq!(ta.to_bits(), tb.to_bits(), "{what}: time axis");
    }
    let mut node_names: Vec<String> = a.node_names().map(str::to_owned).collect();
    node_names.sort();
    for name in &node_names {
        let (wa, wb) = (a.voltage(name).unwrap(), b.voltage(name).unwrap());
        assert_eq!(wa.values().len(), wb.values().len(), "{what}: v({name})");
        for (va, vb) in wa.values().iter().zip(wb.values()) {
            assert_eq!(va.to_bits(), vb.to_bits(), "{what}: v({name})");
        }
    }
    assert_eq!(a.stats(), b.stats(), "{what}: stats");
}

/// Every verify golden-scenario circuit — the analytic catalog the golden
/// waveforms and convergence-order gates are built on, PTM staircase
/// included — must produce bitwise-identical results through the batched
/// engine, for all three integration methods. Lanes run the *same* circuit
/// at *different* resolutions (the reference's division ladder), so each
/// lane follows a genuinely different trajectory through shared
/// factorizations.
#[test]
fn golden_scenario_circuits_scalar_vs_batched_bitwise() {
    for reference in catalog().unwrap() {
        for method in [Method::BackwardEuler, Method::Trapezoidal, Method::Gear2] {
            // The two coarsest rungs keep the suite fast while still giving
            // every lane a distinct step-size trajectory.
            let rungs: Vec<usize> = reference.divisions.iter().copied().take(2).collect();
            let opts: Vec<SimOptions> = rungs
                .iter()
                .map(|&d| reference.options(d, method))
                .collect();
            let scalar: Vec<TranResult> = opts
                .iter()
                .map(|o| transient(reference.circuit(), reference.tstop, o).unwrap())
                .collect();
            let specs: Vec<BatchSpec<'_>> = opts
                .iter()
                .map(|o| BatchSpec {
                    circuit: reference.circuit(),
                    tstop: reference.tstop,
                    opts: o,
                })
                .collect();
            let batched = transient_batch(&specs);
            for (lane, (s, b)) in scalar.iter().zip(&batched).enumerate() {
                assert_tran_bitwise(
                    s,
                    b.as_ref().unwrap(),
                    &format!("{} {method:?} lane {lane}", reference.name),
                );
            }
        }
    }
}

/// Lanes take their backend from `SimOptions::solver`, as scalar runs do:
/// under the size dispatch, droop-map grids above the sparse threshold run
/// on sparse LU and reuse the factors of unchanged matrices, and pinned to
/// GMRES they run on GMRES — bitwise equal to scalar either way,
/// `SolverStats` included.
#[test]
fn droop_map_lanes_follow_the_solver_policy() {
    let grids = [0.15e-9, 0.2e-9, 0.25e-9].map(|site_stagger| PdnGrid {
        site_stagger,
        ..PdnGrid::chip(6, 6)
    });
    let n = grids[0].unknown_estimate();
    assert!(n >= LinearSolver::AUTO_SPARSE_THRESHOLD);
    let circuits: Vec<Circuit> = grids.iter().map(|g| g.build().unwrap()).collect();
    let tstop = grids[0].t_stop;
    // Every lane equals its own scalar run; returns the lanes' solver stats.
    let lanes_match_scalar = |opts: &SimOptions, arm: &str| -> Vec<SolverStats> {
        let specs: Vec<BatchSpec<'_>> = circuits
            .iter()
            .map(|c| BatchSpec {
                circuit: c,
                tstop,
                opts,
            })
            .collect();
        let batched = transient_batch(&specs);
        circuits
            .iter()
            .zip(&batched)
            .enumerate()
            .map(|(lane, (c, b))| {
                let b = b.as_ref().unwrap();
                assert_tran_bitwise(
                    &transient(c, tstop, opts).unwrap(),
                    b,
                    &format!("{arm} grid lane {lane}"),
                );
                b.stats().solver
            })
            .collect()
    };

    let auto = SimOptions::for_duration(tstop, 400);
    for st in lanes_match_scalar(&auto, "size dispatch") {
        assert!(st.factor_nnz < n * n, "sparse factors: {st:?}");
        assert!(
            st.full_factorizations + st.refactorizations < st.solves,
            "unchanged matrices reuse their factors: {st:?}"
        );
    }
    let gmres = auto.with_solver(LinearSolver::Iterative);
    for st in lanes_match_scalar(&gmres, "GMRES") {
        assert!(st.gmres_iterations > 0, "GMRES solves: {st:?}");
    }
}

/// A parameterised RC ladder for the randomized differentials: two poles,
/// so trajectories are method-sensitive, and per-lane element values so no
/// two lanes share a matrix.
fn rc_ladder(r: f64, c: f64) -> Circuit {
    let mut ckt = Circuit::new();
    let (a, m, out, gnd) = (
        ckt.node("a"),
        ckt.node("m"),
        ckt.node("out"),
        Circuit::ground(),
    );
    ckt.add_voltage_source("V1", a, gnd, SourceWaveform::ramp(0.0, 1.0, 1e-12, 10e-12))
        .unwrap();
    ckt.add_resistor("R1", a, m, r).unwrap();
    ckt.add_capacitor("C1", m, gnd, c).unwrap();
    ckt.add_resistor("R2", m, out, 2.0 * r).unwrap();
    ckt.add_capacitor("C2", out, gnd, 0.5 * c).unwrap();
    ckt
}

const LADDER_TSTOP: f64 = 60e-12;

fn ladder_opts(method: Method) -> SimOptions {
    SimOptions::for_duration(LADDER_TSTOP, 400).with_method(method)
}

fn method_of(idx: usize) -> Method {
    [Method::BackwardEuler, Method::Trapezoidal, Method::Gear2][idx % 3]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Randomized circuit × method × B ∈ {1..8}: every lane of a batched
    /// run over B distinct circuits is bitwise identical to its scalar run.
    #[test]
    fn randomized_lanes_bitwise_identical(
        r_kohm in 0.2f64..5.0,
        c_ff in 0.2f64..2.0,
        method_idx in 0usize..3,
        width in 1usize..9,
    ) {
        let method = method_of(method_idx);
        let opts = ladder_opts(method);
        let circuits: Vec<Circuit> = (0..width)
            .map(|i| rc_ladder(r_kohm * 1e3 * (1.0 + 0.37 * i as f64), c_ff * 1e-15))
            .collect();
        let specs: Vec<BatchSpec<'_>> = circuits
            .iter()
            .map(|c| BatchSpec { circuit: c, tstop: LADDER_TSTOP, opts: &opts })
            .collect();
        let batched = transient_batch(&specs);
        for (lane, (c, b)) in circuits.iter().zip(&batched).enumerate() {
            let scalar = transient(c, LADDER_TSTOP, &opts).unwrap();
            assert_tran_bitwise(
                &scalar,
                b.as_ref().unwrap(),
                &format!("{method:?} B={width} lane {lane}"),
            );
        }
    }

    /// Per-lane convergence-mask isolation: `newton@STEP` faults injected
    /// into a strict subset of lanes leave the unaffected lanes bitwise
    /// identical to the fault-free batched run, and each faulted lane
    /// bitwise identical to its own scalar faulted run (the recovery —
    /// quarter step, forced backward-Euler — replays exactly per lane).
    #[test]
    fn randomized_lane_fault_subsets_are_isolated(
        method_idx in 0usize..3,
        fault_mask in 1usize..15, // strict non-empty subset of 4 lanes
        step in 3u64..12,
    ) {
        let method = method_of(method_idx);
        let clean = ladder_opts(method);
        let faulty = ladder_opts(method)
            .with_fault_plan(FaultPlan::new().with_newton_failure(step));
        let circuits: Vec<Circuit> = (0..4)
            .map(|i| rc_ladder(1e3 * (1.0 + 0.5 * i as f64), 1e-15))
            .collect();
        let lane_opts: Vec<&SimOptions> = (0..4)
            .map(|i| if fault_mask & (1 << i) != 0 { &faulty } else { &clean })
            .collect();

        fn spec_with<'a>(
            circuits: &'a [Circuit],
            opts_by_lane: &[&'a SimOptions],
        ) -> Vec<BatchSpec<'a>> {
            circuits
                .iter()
                .zip(opts_by_lane)
                .map(|(c, o)| BatchSpec { circuit: c, tstop: LADDER_TSTOP, opts: o })
                .collect()
        }
        let faulted_run = transient_batch(&spec_with(&circuits, &lane_opts));
        let clean_run = transient_batch(&spec_with(&circuits, &[&clean; 4]));

        for lane in 0..4 {
            let got = faulted_run[lane].as_ref().unwrap();
            if fault_mask & (1 << lane) != 0 {
                let scalar = transient(&circuits[lane], LADDER_TSTOP, &faulty).unwrap();
                assert_tran_bitwise(&scalar, got, &format!("faulted lane {lane}"));
                prop_assert!(
                    got.stats().steps_rejected
                        > clean_run[lane].as_ref().unwrap().stats().steps_rejected,
                    "lane {lane}: the injected failure must cost a rejection"
                );
            } else {
                assert_tran_bitwise(
                    clean_run[lane].as_ref().unwrap(),
                    got,
                    &format!("unaffected lane {lane} (mask {fault_mask:#b})"),
                );
            }
        }
    }
}

/// The scalar Monte-Carlo population, computed sample-by-sample through
/// the public scalar pipeline — the reference every batched configuration
/// must hit bit-for-bit.
fn scalar_mc_population(
    vdd: f64,
    base: PtmParams,
    var: &PtmVariation,
    n: usize,
    seed: u64,
) -> Vec<f64> {
    let mut values: Vec<f64> = (0..n)
        .map(|i| {
            let mut rng = VariationRng::new(task_seed(seed, i as u64));
            let ptm = var.sample(&base, &mut rng);
            measure_inverter(&InverterSpec::minimum(vdd, Topology::SoftFet(ptm)))
                .unwrap()
                .i_max
        })
        .collect();
    values.sort_by(|a, b| a.partial_cmp(b).unwrap());
    values
}

/// Batch-size edge cases on the rewired Monte-Carlo sweep: B = 1 equals
/// the scalar pipeline bitwise, a ragged tail (n not divisible by B), and
/// B > task count all produce the identical population at any worker
/// count.
#[test]
fn monte_carlo_population_invariant_across_widths_and_workers() {
    let (vdd, base, var, n, seed) = (
        1.0,
        PtmParams::vo2_default(),
        PtmVariation::default(),
        6,
        42,
    );
    let expected = scalar_mc_population(vdd, base, &var, n, seed);
    for (workers, batch) in [(1, 1), (2, 2), (2, 4), (1, 64), (8, 3)] {
        let cfg = ExecConfig::with_workers(workers).with_batch(batch);
        let summary = monte_carlo_imax_with(&cfg, vdd, base, &var, n, seed, 1e-3).unwrap();
        assert_eq!(
            summary
                .i_max_values
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            expected.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "population must be bitwise invariant at workers={workers}, batch={batch}"
        );
    }
}

/// The rewired V_IMT × V_MIT grid sweep is bitwise invariant across batch
/// widths (including ragged tiles and B > point count).
#[test]
fn grid_sweep_invariant_across_widths() {
    let base = PtmParams::vo2_default();
    let (v_imts, v_mits) = ([0.3, 0.4, 0.5], [0.1]);
    let reference = vimt_vmit_grid_with(
        &ExecConfig::serial().with_batch(1),
        1.0,
        base,
        &v_imts,
        &v_mits,
    )
    .unwrap()
    .0;
    for (workers, batch) in [(2, 2), (2, 8), (1, 3)] {
        let cfg = ExecConfig::with_workers(workers).with_batch(batch);
        let (pts, _) = vimt_vmit_grid_with(&cfg, 1.0, base, &v_imts, &v_mits).unwrap();
        assert_eq!(
            pts, reference,
            "grid points must be invariant at workers={workers}, batch={batch}"
        );
    }
}

/// Fault-plan lane isolation on the batched outcome sweep: lanes the plan
/// fails surface as [`SweepOutcome::Failed`] with scalar-exact attempt
/// counts, recovered lanes report their retries, and every first-try lane
/// in the same tiles is bitwise identical to a fault-free serial run.
#[test]
fn batched_outcomes_fail_lanes_alone_with_scalar_attempt_counts() {
    let (base, var) = (PtmParams::vo2_default(), PtmVariation::default());
    // Tasks 1 and 5 fail once then recover; task 3 fails every attempt —
    // all three land in different tiles at width 3 (tiles {0,1,2} {3,4,5}
    // {6,7}) so both ragged and full tiles see a failure.
    let plan = FaultPlan::new()
        .with_task_failure(1, 1)
        .with_task_failure(3, usize::MAX)
        .with_task_failure(5, 1);
    let agg = SharedAggregator::new();
    let cfg = ExecConfig::with_workers(2)
        .with_batch(3)
        .with_retries(1)
        .with_fault_plan(plan)
        .with_telemetry(Telemetry::new(agg.clone()));
    let outcomes = monte_carlo_imax_outcomes(&cfg, 1.0, base, &var, 8, 123, None).unwrap();
    assert_eq!(outcomes.len(), 8);
    assert!(outcomes[1].is_ok() && outcomes[1].attempts() == 2);
    assert!(outcomes[5].is_ok() && outcomes[5].attempts() == 2);
    match &outcomes[3] {
        SweepOutcome::Failed { attempts, error } => {
            assert_eq!(*attempts, 2, "retry budget of 1 means 2 attempts");
            assert!(error.to_string().contains("injected"), "{error}");
        }
        other => panic!("task 3 must fail terminally, got {other:?}"),
    }
    // Lanes untouched by the plan are bitwise identical to a fault-free
    // serial (and batch-free) sweep.
    let clean = monte_carlo_imax_outcomes(
        &ExecConfig::serial().with_batch(1),
        1.0,
        base,
        &var,
        8,
        123,
        None,
    )
    .unwrap();
    for i in [0usize, 2, 4, 6, 7] {
        assert_eq!(
            outcomes[i].value().unwrap().to_bits(),
            clean[i].value().unwrap().to_bits(),
            "first-try lane {i} must be untouched by its tile's failures"
        );
    }
    let counts = agg.snapshot();
    assert_eq!(counts.counter(names::EXEC_BATCH_LANE_FAILURES), 1);
    assert_eq!(counts.counter(names::EXEC_TASKS_RETRIED), 3);
}

/// Per-task accounting regression: a batched sweep's telemetry totals must
/// equal its own [`ExecStats`](sfet_numeric::exec::ExecStats) *and* the
/// totals a scalar-shaped run of the same sweep emits — tiles must never
/// leak into `exec.tasks_*`, and `stats.workers` reports the task-based
/// resolution a scalar sweep would.
#[test]
fn grid_stats_and_telemetry_count_tasks_not_tiles() {
    let base = PtmParams::vo2_default();
    let (v_imts, v_mits) = ([0.3, 0.4, 0.5], [0.1]); // 3 points, width 2: ragged
    let run = |cfg: &ExecConfig| {
        let agg = SharedAggregator::new();
        let cfg = cfg.clone().with_telemetry(Telemetry::new(agg.clone()));
        let (pts, stats) = vimt_vmit_grid_with(&cfg, 1.0, base, &v_imts, &v_mits).unwrap();
        assert_eq!(pts.len(), 3);
        (agg.snapshot(), stats)
    };

    let (batched_counts, batched_stats) = run(&ExecConfig::with_workers(2).with_batch(2));
    let (narrow_counts, narrow_stats) = run(&ExecConfig::with_workers(2).with_batch(1));

    for stats in [&batched_stats, &narrow_stats] {
        assert_eq!(stats.tasks_total, 3);
        assert_eq!(stats.tasks_completed, 3);
        assert_eq!(
            stats.workers, 2,
            "workers must resolve against tasks, not tiles"
        );
    }
    for (counts, stats) in [
        (&batched_counts, &batched_stats),
        (&narrow_counts, &narrow_stats),
    ] {
        assert_eq!(
            counts.counter(names::EXEC_TASKS_TOTAL),
            stats.tasks_total as u64
        );
        assert_eq!(
            counts.counter(names::EXEC_TASKS_COMPLETED),
            stats.tasks_completed as u64
        );
    }
    assert_eq!(batched_counts.counter(names::EXEC_BATCH_TILES), 2);
    assert_eq!(batched_counts.counter(names::EXEC_BATCH_WIDTH), 2);
}
