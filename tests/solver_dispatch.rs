//! Solver dispatch at droop-map scale: under the default options a chip
//! grid above `LinearSolver::AUTO_SPARSE_THRESHOLD` unknowns runs on sparse
//! LU, which reuses the factors of the unchanged grid matrix, and still
//! produces the dense-LU droop map bit for bit. A linear circuit solves
//! once per step attempt on every backend, bit for bit as if every Newton
//! iteration had stamped and solved, and on sparse LU and GMRES a step
//! that repeats the last assembled step size, method and PTM resistances
//! re-solves with the held factors (GMRES: the held matrix and ILU(0))
//! without assembling. A droop map folds its tile minima as the transient
//! steps and records nothing, bit for bit the minima and statistics that
//! reducing a recorded run gives.

use sfet_circuit::{Circuit, SourceWaveform};
use sfet_devices::mosfet::MosfetModel;
use sfet_devices::ptm::PtmParams;
use sfet_pdn::{DroopMap, PdnGrid};
use sfet_sim::{transient, LinearSolver, SimOptions, TranResult, TranStats};

fn bits(map: &DroopMap) -> Vec<u64> {
    map.v_min.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn default_droop_map_equals_dense_with_far_fewer_factorizations() {
    // 36 tiles: 78 unknowns, above the sparse threshold.
    let grid = PdnGrid::chip(6, 6);
    let n = grid.unknown_estimate();
    assert!(n >= LinearSolver::AUTO_SPARSE_THRESHOLD);

    let default = grid.droop_map().unwrap();
    let dense_opts = SimOptions::for_duration(grid.t_stop, 400).with_solver(LinearSolver::Dense);
    let dense = grid.droop_map_with(&dense_opts).unwrap();

    assert_eq!(bits(&default), bits(&dense), "tile minima bit for bit");
    let (s, d) = (default.stats, dense.stats);
    assert_eq!(s.steps_accepted, d.steps_accepted);
    assert_eq!(s.steps_rejected, d.steps_rejected);
    assert_eq!(s.newton_iterations, d.newton_iterations);

    let (s, d) = (s.solver, d.solver);
    assert_eq!(s.solves, d.solves);
    assert_eq!(d.factor_nnz, n * n, "the pinned arm is dense");
    assert_eq!(d.full_factorizations, d.solves);
    assert!(s.factor_nnz < n * n, "the default arm is sparse: {s:?}");
    // Each decap node before its rail node and the package after the
    // tiles give 565 factor entries; numbering the package first gives 969.
    assert!(
        s.factor_nnz <= 600,
        "the grid's unknown numbering regressed: factor_nnz {} > 600",
        s.factor_nnz
    );
    assert!(
        4 * (s.full_factorizations + s.refactorizations) < s.solves,
        "unchanged matrices reuse their factors: {s:?}"
    );
}

/// Each tile's recorded rail waveform folded with `f64::min` from `+∞`, in
/// time order, row-major, and the recorded run's statistics: the
/// reduction a droop map took over a recorded transient.
fn recorded_reduction(grid: &PdnGrid, opts: &SimOptions) -> (Vec<u64>, TranStats) {
    let result = transient(&grid.build().unwrap(), grid.t_stop, opts).unwrap();
    let mut v_min = Vec::with_capacity(grid.tiles());
    for iy in 0..grid.ny {
        for ix in 0..grid.nx {
            let samples = result.node_samples(&PdnGrid::tile_node_name(ix, iy));
            let m = samples
                .unwrap()
                .iter()
                .copied()
                .fold(f64::INFINITY, f64::min);
            v_min.push(m.to_bits());
        }
    }
    (v_min, result.stats())
}

#[test]
fn streamed_droop_map_equals_the_recorded_reduction_bit_for_bit() {
    let grid = PdnGrid::chip(6, 6);
    let n = grid.unknown_estimate();
    let default = SimOptions::for_duration(grid.t_stop, 400);
    let dense = default.clone().with_solver(LinearSolver::Dense);
    for (opts, what) in [(default, "default (sparse LU)"), (dense, "dense LU")] {
        let map = grid.droop_map_with(&opts).unwrap();
        let (v_min, stats) = recorded_reduction(&grid, &opts);
        assert_eq!(bits(&map), v_min, "{what}: tile minima");
        assert_eq!(map.stats, stats, "{what}: statistics");
        let dense_arm = map.stats.solver.factor_nnz == n * n;
        assert_eq!(dense_arm, what == "dense LU", "{what}: {:?}", map.stats);
    }
}

/// The circuit plus one MOSFET with all four terminals on ground. It stamps
/// nothing, so every assembled system is unchanged, but a device now reads
/// the Newton iterate, so every iteration stamps and solves.
fn with_inert_mosfet(ckt: &Circuit) -> Circuit {
    let mut ckt = ckt.clone();
    let g = Circuit::ground();
    ckt.add_mosfet("MINERT", g, g, g, g, MosfetModel::nmos_40nm(), 1e-6, 40e-9)
        .unwrap();
    ckt
}

/// Requires `a` and `b` bit for bit. A mismatch names the first differing
/// index with both values and their bits, how many of the entries both
/// sequences have differ, and both lengths.
fn assert_bits(a: &[f64], b: &[f64], what: &str) {
    let mut differ = a
        .iter()
        .zip(b)
        .enumerate()
        .filter(|(_, (x, y))| x.to_bits() != y.to_bits());
    if let Some((i, (x, y))) = differ.next() {
        panic!(
            "{what}: {} of {} shared entries differ (lengths {} and {}); \
             the first is [{i}]: {x:e} ({:#018x}) vs {y:e} ({:#018x})",
            1 + differ.count(),
            a.len().min(b.len()),
            a.len(),
            b.len(),
            x.to_bits(),
            y.to_bits()
        );
    }
    assert_eq!(a.len(), b.len(), "{what}: lengths");
}

/// Runs `ckt` and its inert-MOSFET twin and requires bit-equal results:
/// times, every node, branch and PTM trace, PTM events and the step and
/// iteration counts. Returns the stats of the linear run.
fn linear_matches_full_path(ckt: &Circuit, tstop: f64, opts: &SimOptions, what: &str) -> TranStats {
    let linear = transient(ckt, tstop, opts).unwrap();
    let full = transient(&with_inert_mosfet(ckt), tstop, opts).unwrap();
    let names = |r: &TranResult| -> [Vec<String>; 3] {
        [
            r.node_names().map(str::to_owned).collect(),
            r.branch_names().map(str::to_owned).collect(),
            r.ptm_names().map(str::to_owned).collect(),
        ]
    };
    let signals = names(&linear);
    assert_eq!(signals, names(&full), "{what}: signal names");
    let [nodes, branches, ptms] = signals;
    assert_bits(linear.times(), full.times(), &format!("{what}: times"));
    for node in &nodes {
        let (a, b) = (linear.node_samples(node), full.node_samples(node));
        assert_bits(a.unwrap(), b.unwrap(), &format!("{what}: v({node})"));
    }
    for branch in &branches {
        let (a, b) = (linear.branch_current(branch), full.branch_current(branch));
        let (a, b) = (a.unwrap(), b.unwrap());
        assert_bits(a.values(), b.values(), &format!("{what}: i({branch})"));
    }
    for ptm in &ptms {
        let (a, b) = (linear.ptm_resistance(ptm), full.ptm_resistance(ptm));
        let (a, b) = (a.unwrap(), b.unwrap());
        assert_bits(a.values(), b.values(), &format!("{what}: r({ptm})"));
        let (a, b) = (linear.ptm_events(ptm), full.ptm_events(ptm));
        assert_eq!(a.unwrap(), b.unwrap(), "{what}: events({ptm})");
    }
    let (l, f) = (linear.stats(), full.stats());
    assert_eq!(l.steps_attempted, f.steps_attempted, "{what}");
    assert_eq!(l.steps_accepted, f.steps_accepted, "{what}");
    assert_eq!(l.steps_rejected, f.steps_rejected, "{what}");
    assert_eq!(l.newton_iterations, f.newton_iterations, "{what}");
    assert_eq!(l.ptm_transitions, f.ptm_transitions, "{what}");
    assert_eq!(l.solver.solves, l.steps_attempted as u64, "{what}: {l:?}");
    assert_eq!(f.solver.solves, f.newton_iterations as u64, "{what}: {f:?}");
    assert!(
        l.solver.solves < f.solver.solves,
        "{what}: no update repeated"
    );
    l
}

#[test]
fn linear_circuits_solve_once_per_step_attempt_bit_for_bit() {
    // RC ladder: 5 stages behind a ramp, 6 nodes + 1 branch, dense LU.
    let mut ladder = Circuit::new();
    let src = ladder.node("src");
    let g = Circuit::ground();
    ladder
        .add_voltage_source("V1", src, g, SourceWaveform::ramp(0.0, 1.0, 5e-12, 20e-12))
        .unwrap();
    let mut prev = src;
    for k in 1..=5 {
        let node = ladder.node(&format!("n{k}"));
        ladder
            .add_resistor(&format!("R{k}"), prev, node, 1e3)
            .unwrap();
        ladder
            .add_capacitor(&format!("C{k}"), node, g, 2e-15)
            .unwrap();
        prev = node;
    }
    let tstop = 100e-12;
    let opts = SimOptions::for_duration(tstop, 400).with_solver(LinearSolver::Dense);
    let l = linear_matches_full_path(&ladder, tstop, &opts, "RC ladder");
    assert_eq!(l.solver.factor_nnz, 7 * 7, "the ladder runs on dense LU");

    // 6x6 chip grid: 78 unknowns, sparse LU under the size dispatch, and
    // GMRES when pinned.
    let grid = PdnGrid::chip(6, 6);
    let chip = grid.build().unwrap();
    let auto = SimOptions::for_duration(grid.t_stop, 400);
    let l = linear_matches_full_path(&chip, grid.t_stop, &auto, "chip grid, sparse");
    let n = grid.unknown_estimate();
    assert!(l.solver.factor_nnz < n * n, "the grid runs on sparse LU");
    let gmres = auto.clone().with_solver(LinearSolver::Iterative);
    let l = linear_matches_full_path(&chip, grid.t_stop, &gmres, "chip grid, GMRES");
    let s = l.solver;
    assert!(s.gmres_iterations > 0, "the grid runs on GMRES");
    assert!(
        s.full_factorizations + s.refactorizations < s.solves,
        "held ILU(0) re-solves: {s:?}"
    );

    // Paper Fig. 3 staircase: PTM events and backward-Euler restarts.
    let mut stair = Circuit::new();
    let inp = stair.node("in");
    let vc = stair.node("vc");
    stair
        .add_voltage_source(
            "VIN",
            inp,
            g,
            SourceWaveform::ramp(0.0, 1.0, 10e-12, 30e-12),
        )
        .unwrap();
    stair
        .add_ptm("P1", inp, vc, PtmParams::vo2_default())
        .unwrap();
    stair.add_capacitor("C1", vc, g, 0.5e-15).unwrap();
    let tstop = 300e-12;
    let opts = SimOptions::for_duration(tstop, 600);
    let l = linear_matches_full_path(&stair, tstop, &opts, "Fig. 3 staircase");
    assert!(l.ptm_transitions > 0 && l.steps_rejected > 0, "{l:?}");
    // On sparse LU the staircase re-solves with held factors while its
    // step size and PTM resistance repeat, and assembles again when a
    // transition ramp moves the resistance at an unchanged step size.
    let sparse = opts.with_solver(LinearSolver::Sparse);
    let l = linear_matches_full_path(&stair, tstop, &sparse, "Fig. 3 staircase, sparse");
    let s = l.solver;
    assert!(l.ptm_transitions > 0, "{l:?}");
    assert!(
        s.solves > s.full_factorizations + s.refactorizations,
        "held factors re-solve: {s:?}"
    );
}
