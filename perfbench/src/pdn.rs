//! `pdn_map`: full-chip droop maps, where the linear solver does most of
//! the work.
//!
//! One job is one `PdnGrid::droop_map()` on a 12×12-tile chip grid (294
//! MNA unknowns) under the default options, so the default solver policy
//! picks the backend. Each pool entry's Soft-FET ramp spread and site
//! stagger come from the seed.

use std::time::Instant;

use sfet_pdn::{DroopMap, PdnGrid};
use sfet_sim::{transient, SimOptions, TranResult, TranStats};

use crate::layers::{add_tran_counts, SolveSplit};
use crate::trace::Tracer;
use crate::{closed_loop, repeated_setup, timed, Args, RunResult};

/// Grids in the input pool.
const POOL: usize = 8;

/// Tiles along each side of the chip grid.
const SIDE: usize = 12;

fn pool(seed: u64) -> Vec<PdnGrid> {
    let mut rng = crate::SplitMix::new(seed, 0x0050_444e);
    let staggers = rng.strata(POOL, 0.15e-9, 0.25e-9);
    let spreads = rng.strata(POOL, 2.0, 3.0);
    staggers
        .into_iter()
        .zip(spreads)
        .map(|(site_stagger, spread)| {
            PdnGrid {
                site_stagger,
                ..PdnGrid::chip(SIDE, SIDE)
            }
            .with_soft_fet_spread(spread)
        })
        .collect()
}

/// Seed-independent invariants of one map.
fn invariants(i: usize, grid: &PdnGrid, map: &DroopMap) -> Vec<String> {
    let mut errors = Vec::new();
    let v_nom = grid.pdn.v_nom;
    if map.v_min.len() != grid.tiles() {
        errors.push(format!(
            "pdn map {i}: {} tiles, expected {}",
            map.v_min.len(),
            grid.tiles()
        ));
    }
    if let Some(v) = map
        .v_min
        .iter()
        .find(|v| !(v.is_finite() && **v > 0.0 && **v <= v_nom))
    {
        errors.push(format!(
            "pdn map {i}: tile minimum {v} outside (0, {v_nom}]"
        ));
    }
    if map.worst_droop().is_nan() || map.worst_droop() <= 0.0 {
        errors.push(format!("pdn map {i}: no droop"));
    }
    if map.stats.steps_accepted == 0 || map.stats.solver.solves == 0 {
        errors.push(format!("pdn map {i}: no steps or solves recorded"));
    }
    errors
}

fn bits(map: &DroopMap) -> Vec<u64> {
    map.v_min.iter().map(|v| v.to_bits()).collect()
}

/// `droop_map`'s per-tile reduction, taken on a transient result.
fn reduce(grid: &PdnGrid, result: &TranResult) -> Result<Vec<f64>, String> {
    let mut v_min = Vec::with_capacity(grid.tiles());
    for iy in 0..grid.ny {
        for ix in 0..grid.nx {
            let samples = result
                .node_samples(&PdnGrid::tile_node_name(ix, iy))
                .map_err(|e| e.to_string())?;
            v_min.push(samples.iter().copied().fold(f64::INFINITY, f64::min));
        }
    }
    Ok(v_min)
}

/// One traced job: `droop_map` split into its layer calls.
fn decomposed(
    t: &mut Tracer,
    id: u64,
    grid: &PdnGrid,
) -> Result<(Vec<f64>, TranStats, f64), String> {
    let ckt = t
        .span("pdn.build", id, |_| grid.build())
        .map_err(|e| e.to_string())?;
    let opts = SimOptions::for_duration(grid.t_stop, 400);
    let (result, transient_s) = t.span("sim.transient", id, |_| {
        timed(|| transient(&ckt, grid.t_stop, &opts))
    });
    let result = result.map_err(|e| e.to_string())?;
    let v_min = t.span("pdn.reduce", id, |_| reduce(grid, &result))?;
    Ok((v_min, result.stats(), transient_s))
}

pub fn run(args: &Args) -> RunResult {
    let mut run = RunResult {
        // The tolerance `bench_pdn_grid` applies between iterative and
        // direct solves, so a correct solver-dispatch change still passes.
        reference_rel: 1e-6,
        ..RunResult::default()
    };
    let mut errors = Vec::new();

    // Set-up: seeded grids, one build of each, and one warm-up map of a
    // fixed grid, so the set-up work is the same for every seed.
    let (pool, setup_s) = repeated_setup(
        1,
        || {
            let pool = pool(args.seed);
            for grid in &pool {
                if let Err(e) = grid.build() {
                    errors.push(format!("pdn build: {e}"));
                }
            }
            let warm_up = PdnGrid {
                site_stagger: 0.2e-9,
                ..PdnGrid::chip(SIDE, SIDE)
            }
            .with_soft_fet_spread(2.5);
            if let Err(e) = warm_up.droop_map() {
                errors.push(format!("pdn warm-up map: {e}"));
            }
            pool
        },
        drop,
    );

    let mut first: Vec<Option<DroopMap>> = vec![None; pool.len()];
    let mut tracer = Tracer::new(Instant::now());
    let mut split = SolveSplit::default();
    let mut id = 0u64;
    let (untraced, traced) = closed_loop(args.seconds, pool.len(), 1, args.trace, |i, traced| {
        let grid = &pool[i];
        let t0 = Instant::now();
        let out = if traced {
            tracer.span("job", id, |t| decomposed(t, id, grid)).map(
                |(v_min, stats, transient_s)| {
                    split.push(transient_s, &stats);
                    (v_min, stats)
                },
            )
        } else {
            grid.droop_map()
                .map(|m| (m.v_min, m.stats))
                .map_err(|e| e.to_string())
        };
        let dt = t0.elapsed().as_secs_f64();
        id += 1;
        let ok = match out {
            // Every tile bit for bit, and every count of the transient and
            // solver statistics (their equality skips the solve time).
            Ok((v_min, stats)) => match &first[i] {
                Some(f) => v_min.iter().map(|v| v.to_bits()).eq(bits(f)) && stats == f.stats,
                None => {
                    first[i] = Some(DroopMap {
                        nx: grid.nx,
                        ny: grid.ny,
                        v_nom: grid.pdn.v_nom,
                        v_min,
                        stats,
                    });
                    true
                }
            },
            Err(e) => {
                errors.push(format!("pdn map {i}: {e}"));
                false
            }
        };
        (dt, ok)
    });

    for (i, (grid, map)) in pool.iter().zip(&first).enumerate() {
        let Some(map) = map else {
            errors.push(format!("pdn map {i} never completed"));
            continue;
        };
        errors.extend(invariants(i, grid, map));
        for (t, v) in map.v_min.iter().enumerate() {
            run.outputs.push(format!("{i}/v_min/{t}"), *v);
        }
        // Untraced runs see the transient counts too, so the ledger
        // compares them with the traced runs'.
        add_tran_counts(&mut run.exact, &map.stats);
    }
    if args.trace {
        run.layer_ms(&tracer, &["pdn.build", "sim.transient", "pdn.reduce"]);
        split.record(&mut run);
        run.trace_summary(args, &untraced, &traced, &tracer);
    } else {
        run.end_to_end(&setup_s, &untraced, pool.len());
    }
    run.errors.extend(errors);
    run
}
