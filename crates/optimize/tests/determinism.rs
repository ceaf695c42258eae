//! The optimizer determinism suite (the crate's acceptance contract):
//!
//! 1. bitwise-identical run results across worker-count × batch-width
//!    combinations (`SFET_THREADS` 1/8 × `SFET_BATCH` 1/8, pinned via
//!    explicit `ExecConfig`s so the suite is env-independent);
//! 2. a fault-injected generation is retried without perturbing the
//!    surviving lanes — every untouched candidate scores bitwise
//!    identically to the fault-free run;
//! 3. a killed-and-resumed manifest run equals a straight-through run
//!    bitwise, the journalled path equals the unjournalled one, and a
//!    journal written over another design space is refused.

use sfet_numeric::exec::ExecConfig;
use sfet_numeric::fault::FaultPlan;
use sfet_optimize::{
    optimize, Axis, DesignSpace, DroopObjective, EvaluatedPoint, EvolutionStrategy, OptimizeConfig,
    OptimizeError, OptimizeOutcome, YieldConstraint,
};

const SEED: u64 = 0xD0E5_0F17;

/// A deliberately small but fully-featured run: one PVT corner, two
/// Monte-Carlo yield lanes per candidate (so the MC seeding path is
/// exercised), two generations of a population-4 evolution strategy.
fn trimmed_objective() -> DroopObjective {
    let mut objective = DroopObjective::standard(1.0);
    objective.corners.truncate(1);
    objective.yield_constraint = Some(YieldConstraint {
        samples: 2,
        ..YieldConstraint::default()
    });
    objective
}

fn run_with(cfg: OptimizeConfig) -> OptimizeOutcome {
    let space = DesignSpace::soft_fet_standard();
    let objective = trimmed_objective();
    let start = vec![0.5; space.dim()];
    let mut opt = EvolutionStrategy::new(start, 0.15, 4);
    optimize(&space, &objective, &mut opt, &cfg).expect("trimmed run must succeed")
}

fn config(exec: ExecConfig) -> OptimizeConfig {
    let mut cfg = OptimizeConfig::new(SEED);
    cfg.exec = exec;
    cfg.max_generations = 2;
    cfg
}

/// Bit-exact fingerprint of one evaluated point (everything the frontier
/// and artifacts are derived from).
fn fingerprint(p: &EvaluatedPoint) -> Vec<u64> {
    let mut bits = vec![p.generation as u64, p.candidate as u64];
    bits.extend(p.unit.iter().map(|v| v.to_bits()));
    bits.extend(p.values.iter().map(|v| v.to_bits()));
    bits.extend(
        [
            p.eval.objective,
            p.eval.droop_mv,
            p.eval.droop_reduction_pct,
            p.eval.delay,
            p.eval.delay_penalty_pct,
            p.eval.area_ratio,
            p.eval.yield_fraction,
        ]
        .map(f64::to_bits),
    );
    bits.push(u64::from(p.eval.feasible));
    bits.push(u64::from(p.eval.failed));
    bits
}

fn fingerprints(outcome: &OptimizeOutcome) -> Vec<Vec<u64>> {
    outcome.evaluated.iter().map(fingerprint).collect()
}

#[test]
fn frontier_is_bitwise_identical_across_threads_and_batch() {
    let reference = run_with(config(ExecConfig::with_workers(1).with_batch(1)));
    let ref_prints = fingerprints(&reference);
    assert!(
        !reference.evaluated.is_empty(),
        "the trimmed run must evaluate candidates"
    );
    for (workers, batch) in [(1usize, 8usize), (8, 1), (8, 8)] {
        let other = run_with(config(ExecConfig::with_workers(workers).with_batch(batch)));
        assert_eq!(
            ref_prints,
            fingerprints(&other),
            "SFET_THREADS={workers} SFET_BATCH={batch} diverged from the serial run"
        );
        assert_eq!(reference.history, other.history);
        assert_eq!(
            fingerprint(&reference.best),
            fingerprint(&other.best),
            "best-point selection diverged"
        );
    }
}

#[test]
fn injected_faults_retry_without_perturbing_survivors() {
    let clean = run_with(config(ExecConfig::with_workers(4).with_batch(4)));

    // Lane 5 of every generation sweep fails its first attempt and
    // recovers on retry. (The reference sweep has only 3 lanes — one
    // corner + two MC samples — so index 5 leaves it untouched.)
    let faulted_lane = 5usize;
    let plan = FaultPlan::new().with_task_failure(faulted_lane, 1);
    let faulted = run_with(config(
        ExecConfig::with_workers(4)
            .with_batch(4)
            .with_retries(2)
            .with_fault_plan(plan),
    ));

    assert_eq!(clean.evaluated.len(), faulted.evaluated.len());
    let per_candidate = trimmed_objective().lanes_per_candidate();
    let mut saw_retry = false;
    for (c, f) in clean.evaluated.iter().zip(&faulted.evaluated) {
        let lane_range = (c.candidate * per_candidate)..((c.candidate + 1) * per_candidate);
        if lane_range.contains(&faulted_lane) {
            // The candidate owning the faulted lane took extra attempts;
            // its retried lane runs on the escalated rung, so its score
            // may legitimately differ. It must still have been evaluated.
            saw_retry |= f.eval.attempts > c.eval.attempts;
            assert!(!f.eval.failed, "retry budget must recover the lane");
        } else {
            assert_eq!(
                fingerprint(c),
                fingerprint(f),
                "gen {} cand {}: a survivor lane was perturbed by the fault",
                c.generation,
                c.candidate
            );
        }
    }
    assert!(saw_retry, "the fault plan must actually have fired");
}

#[test]
fn manifest_resume_equals_straight_through() {
    let dir = std::env::temp_dir().join(format!("sfet-opt-determinism-{}", std::process::id()));
    let straight_dir = dir.join("straight");
    let resumed_dir = dir.join("resumed");
    let _ = std::fs::remove_dir_all(&dir);

    // Straight-through journalled run.
    let mut straight_cfg = config(ExecConfig::with_workers(4).with_batch(4));
    straight_cfg.manifest_dir = Some(straight_dir.clone());
    let straight = run_with(straight_cfg);

    // "Killed" run: only generation 0 completes before the process dies…
    let mut killed_cfg = config(ExecConfig::with_workers(4).with_batch(4));
    killed_cfg.manifest_dir = Some(resumed_dir.clone());
    killed_cfg.max_generations = 1;
    let killed = run_with(killed_cfg);
    assert_eq!(killed.history.len(), 1);
    assert!(resumed_dir.join("gen0000.manifest").exists());

    // …and a fresh process resumes against the same journal directory.
    let mut resume_cfg = config(ExecConfig::with_workers(4).with_batch(4));
    resume_cfg.manifest_dir = Some(resumed_dir.clone());
    let resumed = run_with(resume_cfg);

    assert_eq!(
        fingerprints(&straight),
        fingerprints(&resumed),
        "kill-and-resume must be indistinguishable from a straight-through run"
    );
    assert_eq!(straight.history, resumed.history);

    // The journalled path must also match the unjournalled one bitwise.
    let batched = run_with(config(ExecConfig::with_workers(4).with_batch(4)));
    assert_eq!(
        fingerprints(&straight),
        fingerprints(&batched),
        "journalled and unjournalled paths diverged"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resuming_over_another_design_space_is_a_mismatch() {
    // A generation journal's identity fingerprints its lane specs, so a run
    // over a different space (here V_IMT's upper bound cut from 0.6 to
    // 0.375 V) must refuse the journal instead of scoring the first space's
    // lanes as its own.
    let dir = std::env::temp_dir().join(format!("sfet-opt-identity-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let objective = trimmed_objective();
    let run = |space: &DesignSpace| {
        let mut cfg = config(ExecConfig::with_workers(2).with_batch(4));
        cfg.manifest_dir = Some(dir.clone());
        cfg.max_generations = 1;
        let mut opt = EvolutionStrategy::new(vec![0.5; space.dim()], 0.15, 4);
        optimize(space, &objective, &mut opt, &cfg)
    };
    let standard = DesignSpace::soft_fet_standard();
    run(&standard).expect("the first journalled generation runs");
    let narrower: Vec<Axis> = standard
        .axes()
        .iter()
        .map(|a| match a.name {
            "v_imt" => Axis {
                hi: 0.375,
                ..a.clone()
            },
            _ => a.clone(),
        })
        .collect();
    match run(&DesignSpace::new(narrower).unwrap()) {
        Err(OptimizeError::Manifest(msg)) => assert!(msg.contains("mismatch"), "{msg}"),
        other => panic!("expected a manifest mismatch, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}
