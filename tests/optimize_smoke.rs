//! Tier-1 reach for the optimizer's determinism contract (the full suite
//! lives in `crates/optimize/tests/determinism.rs`): a trimmed run — one
//! PVT corner, one Monte-Carlo lane per candidate, a population-2
//! evolution strategy over two generations — must be bitwise identical
//! across worker count × lane width, and a journalled run killed after
//! generation 0 must resume to the straight-through result.

use std::path::Path;

use sfet_numeric::exec::ExecConfig;
use sfet_optimize::{
    optimize, DesignSpace, DroopObjective, EvolutionStrategy, OptimizeConfig, OptimizeOutcome,
    YieldConstraint,
};

const SEED: u64 = 0x0F17_5EED;

fn run(exec: ExecConfig, generations: usize, journal: Option<&Path>) -> OptimizeOutcome {
    let space = DesignSpace::soft_fet_standard();
    let mut objective = DroopObjective::standard(1.0);
    objective.corners.truncate(1);
    objective.yield_constraint = Some(YieldConstraint {
        samples: 1,
        ..YieldConstraint::default()
    });
    let mut cfg = OptimizeConfig::new(SEED);
    cfg.exec = exec;
    cfg.max_generations = generations;
    cfg.manifest_dir = journal.map(Path::to_path_buf);
    let mut opt = EvolutionStrategy::new(vec![0.5; space.dim()], 0.15, 2);
    optimize(&space, &objective, &mut opt, &cfg).expect("trimmed run must succeed")
}

/// The bits of every scored candidate.
fn fingerprints(outcome: &OptimizeOutcome) -> Vec<Vec<u64>> {
    outcome
        .evaluated
        .iter()
        .map(|p| {
            let e = &p.eval;
            let mut bits = vec![p.generation as u64, p.candidate as u64];
            bits.extend(p.unit.iter().chain(&p.values).map(|v| v.to_bits()));
            bits.extend(
                [
                    e.objective,
                    e.droop_mv,
                    e.delay,
                    e.area_ratio,
                    e.yield_fraction,
                ]
                .map(f64::to_bits),
            );
            bits.extend([u64::from(e.feasible), u64::from(e.failed)]);
            bits
        })
        .collect()
}

#[test]
fn optimizer_run_is_bitwise_identical_across_workers_and_width() {
    let serial = run(ExecConfig::with_workers(1).with_batch(1), 2, None);
    let tiled = run(ExecConfig::with_workers(2).with_batch(4), 2, None);
    assert_eq!(serial.history.len(), 2);
    assert_eq!(fingerprints(&serial), fingerprints(&tiled));
    assert_eq!(serial.history, tiled.history);
}

#[test]
fn journalled_optimizer_resumes_to_the_straight_through_run() {
    let dir = std::env::temp_dir().join(format!("sfet-opt-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let exec = || ExecConfig::with_workers(2).with_batch(4);
    let straight = run(exec(), 2, None);
    let killed = run(exec(), 1, Some(&dir));
    assert_eq!(killed.history.len(), 1, "only generation 0 ran");
    let resumed = run(exec(), 2, Some(&dir));
    assert_eq!(fingerprints(&straight), fingerprints(&resumed));
    assert_eq!(straight.history, resumed.history);
    let _ = std::fs::remove_dir_all(&dir);
}
