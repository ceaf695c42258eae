//! Solver dispatch at droop-map scale: under the default options a chip
//! grid above `SolverPolicy::AUTO_SPARSE_THRESHOLD` unknowns runs on sparse
//! LU, which reuses the factors of the unchanged grid matrix, and still
//! produces the dense-LU droop map bit for bit.

use sfet_pdn::{DroopMap, PdnGrid};
use sfet_sim::{LinearSolver, SimOptions, SolverPolicy};

fn bits(map: &DroopMap) -> Vec<u64> {
    map.v_min.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn default_droop_map_equals_dense_with_far_fewer_factorizations() {
    // 36 tiles: 78 unknowns, above the sparse threshold.
    let grid = PdnGrid::chip(6, 6);
    let n = grid.unknown_estimate();
    assert!(n >= SolverPolicy::AUTO_SPARSE_THRESHOLD);

    let default = grid.droop_map().unwrap();
    let dense_opts = SimOptions::for_duration(grid.t_stop, 400)
        .with_solver_policy(SolverPolicy::Direct)
        .with_solver(LinearSolver::Dense);
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
    assert!(
        4 * (s.full_factorizations + s.refactorizations) < s.solves,
        "unchanged matrices reuse their factors: {s:?}"
    );
}
