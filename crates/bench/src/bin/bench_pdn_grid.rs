//! Full-chip PDN droop-map benchmark: direct sparse LU versus the
//! preconditioned GMRES path at grid scale, with a correctness gate on
//! every compared map. Emits `BENCH_pdn_grid.json` (under the figure
//! directory) so CI can archive the numbers per commit.
//!
//! Two stages:
//!
//! * `equivalence` — a ~2k-unknown grid solved by both backends; the
//!   per-tile V_min maps must agree within 1e-6 relative (the ISSUE's
//!   acceptance gate) or the run aborts.
//! * `scale` — droop maps at 10⁴-class unknown counts through the
//!   GMRES(m)+ILU(0) path, with wall-clock and iteration counts recorded
//!   per grid (and a direct-LU reference timing on the sizes where direct
//!   is still tractable).
//!
//! Uses only `std::time` — no Criterion — so it runs in plain CI. Pass
//! `--smoke` for a fast small-grid run that still exercises (and gates)
//! both solver paths.

use std::time::Instant;

use sfet_bench::{banner, figure_dir};
use sfet_pdn::{DroopMap, PdnGrid};
use sfet_sim::{LinearSolver, SimOptions, SolverPolicy};

struct MapRun {
    grid: String,
    tiles: usize,
    unknowns: usize,
    solver: &'static str,
    wall_ms: f64,
    map: DroopMap,
}

/// One droop map. `Direct` runs pin sparse LU: the configured default
/// backend is dense, which `Direct` would otherwise honour.
fn run_map(grid: &PdnGrid, policy: SolverPolicy, points: usize, name: &'static str) -> MapRun {
    let opts = SimOptions::for_duration(grid.t_stop, points)
        .with_solver(LinearSolver::Sparse)
        .with_solver_policy(policy);
    let start = Instant::now();
    let map = grid.droop_map_with(&opts).expect("droop map");
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    MapRun {
        grid: format!("{}x{}", grid.nx, grid.ny),
        tiles: grid.tiles(),
        unknowns: grid.unknown_estimate(),
        solver: name,
        wall_ms,
        map,
    }
}

fn json_entry(r: &MapRun, rel_diff: Option<f64>) -> String {
    let s = &r.map.stats.solver;
    let (wx, wy, wv) = r.map.worst();
    let gate = rel_diff
        .map(|d| format!(", \"rel_diff_vs_direct\": {d:.3e}"))
        .unwrap_or_default();
    format!(
        "    {{\"grid\": \"{}\", \"tiles\": {}, \"unknowns\": {}, \"solver\": \"{}\", \
         \"wall_ms\": {:.2}, \"steps\": {}, \"gmres_iters\": {}, \"gmres_restarts\": {}, \
         \"gmres_fallbacks\": {}, \"worst_tile\": [{}, {}], \"worst_vmin\": {:.6}{}}}",
        r.grid,
        r.tiles,
        r.unknowns,
        r.solver,
        r.wall_ms,
        r.map.stats.steps_accepted,
        s.gmres_iterations,
        s.gmres_restarts,
        s.gmres_fallbacks,
        wx,
        wy,
        wv,
        gate
    )
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    banner(
        "PDN grid",
        "Full-chip droop map: sparse LU vs preconditioned GMRES",
    );

    // Stage 1 — equivalence gate. ~2k unknowns in full mode (32×32 →
    // 2054), small in smoke mode; both runs must produce the same map.
    let (gx, gy, points) = if smoke { (12, 12, 150) } else { (32, 32, 300) };
    let gate_grid = PdnGrid::chip(gx, gy);
    let direct = run_map(&gate_grid, SolverPolicy::Direct, points, "direct");
    let iterative = run_map(&gate_grid, SolverPolicy::Iterative, points, "gmres+ilu0");
    let rel = iterative
        .map
        .max_rel_diff(&direct.map)
        .expect("same map shape");
    assert!(
        iterative.map.stats.solver.gmres_iterations > 0,
        "iterative run must actually exercise GMRES"
    );
    assert!(
        rel <= 1e-6,
        "equivalence gate FAILED: GMRES map deviates from direct LU by {rel:.3e} (> 1e-6)"
    );
    println!(
        "[gate] {} tiles={} unknowns={}: |rel diff| = {rel:.3e} <= 1e-6  (direct {:.1} ms, gmres {:.1} ms, {} iters)",
        direct.grid,
        direct.tiles,
        direct.unknowns,
        direct.wall_ms,
        iterative.wall_ms,
        iterative.map.stats.solver.gmres_iterations
    );

    let mut entries = vec![json_entry(&direct, None), json_entry(&iterative, Some(rel))];

    // Stage 2 — scale. 72×72 is 10 374 unknowns: the 10⁴-node class the
    // roadmap targets. Iterative-only: the gate above already pins the
    // map against direct LU (and times both) at the largest size where
    // running direct twice is a reasonable use of a CI minute.
    if !smoke {
        for (nx, ny) in [(48usize, 48usize), (72, 72)] {
            let grid = PdnGrid::chip(nx, ny);
            let it = run_map(&grid, SolverPolicy::Iterative, 200, "gmres+ilu0");
            let s = &it.map.stats.solver;
            println!(
                "[scale] {} tiles={} unknowns={}: {:.1} ms, {} steps, {} gmres iters ({} restarts, {} fallbacks), worst droop {:.1} mV",
                it.grid,
                it.tiles,
                it.unknowns,
                it.wall_ms,
                it.map.stats.steps_accepted,
                s.gmres_iterations,
                s.gmres_restarts,
                s.gmres_fallbacks,
                1e3 * it.map.worst_droop()
            );
            entries.push(json_entry(&it, None));
        }
    }

    let json = format!(
        "{{\n  \"bench\": \"pdn_grid_droop_map\",\n  \"mode\": \"{}\",\n  \"gate_rel_tol\": 1e-6,\n  \"results\": [\n{}\n  ]\n}}\n",
        if smoke { "smoke" } else { "full" },
        entries.join(",\n")
    );
    let path = figure_dir().join("BENCH_pdn_grid.json");
    match std::fs::write(&path, &json) {
        Ok(()) => println!("\n[json] {}", path.display()),
        Err(e) => {
            eprintln!("failed to write {}: {e}", path.display());
            std::process::exit(1);
        }
    }
}
