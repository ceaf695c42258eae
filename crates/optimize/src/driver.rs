//! The generation loop: optimizers × objectives × the batched sweep
//! engine.
//!
//! One [`optimize`] call runs: baseline + reference measurement, then up
//! to `max_generations` ask → evaluate → tell rounds. Every generation's
//! candidate lanes run through **one** tiled verdict sweep
//! (`par_map_outcomes` over the shared inverter-lane task), journalled to
//! one manifest file per generation when a manifest directory is
//! configured. Killed runs resume: completed lanes decode bit-exactly from
//! the manifests and, because optimizer state is a deterministic replay
//! of those same values, the continuation is indistinguishable from a
//! straight-through run. A generation's journal identity includes a
//! fingerprint of its lane specs, so a journal written for another design
//! space or objective is refused instead of resumed.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::objective::{
    BaselineContext, CornerBaseline, DroopObjective, Evaluation, LaneMeasure, OperatingPoint,
};
use crate::optimizer::{Optimizer, Scored};
use crate::space::DesignSpace;
use crate::{frontier, OptimizeError, Result};
use sfet_numeric::exec::{par_map_outcomes, task_seed, ExecConfig, SweepOutcome, Task};
use sfet_numeric::manifest::{decode_f64s, encode_f64s, Journal};
use sfet_telemetry::names;
use softfet::inverter::InverterSpec;
use softfet::metrics::{measure_inverter, measure_inverter_lanes};
use softfet::variation::VariationRng;
use softfet::SoftFetError;

/// The generation-seed stream index reserved for the reference-point
/// sweep (`task_seed` is injective, so it can never collide with a real
/// generation index).
const REFERENCE_STREAM: u64 = u64::MAX;

/// Per-generation progress callback signature.
pub type GenerationProgress = dyn Fn(&GenerationSummary) + Send + Sync;

/// Run configuration for [`optimize`].
#[derive(Clone)]
pub struct OptimizeConfig {
    /// Sweep execution policy (workers, batch width, retries, fault plan,
    /// telemetry).
    pub exec: ExecConfig,
    /// Run seed: generation `g` draws from
    /// `VariationRng::new(task_seed(seed, g))`.
    pub seed: u64,
    /// Generation budget (the optimizer may converge earlier).
    pub max_generations: usize,
    /// Journal every generation's lanes to `gen<NNNN>.manifest` under
    /// this directory; an existing journal resumes bit-exactly.
    pub manifest_dir: Option<PathBuf>,
    /// Called after each generation (live progress for bins and the job
    /// server).
    pub progress: Option<Arc<GenerationProgress>>,
}

impl OptimizeConfig {
    /// Environment-driven execution with the given seed, a 12-generation
    /// budget, no journalling, no progress callback.
    pub fn new(seed: u64) -> Self {
        OptimizeConfig {
            exec: ExecConfig::from_env(),
            seed,
            max_generations: 12,
            manifest_dir: None,
            progress: None,
        }
    }
}

impl std::fmt::Debug for OptimizeConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OptimizeConfig")
            .field("exec", &self.exec)
            .field("seed", &self.seed)
            .field("max_generations", &self.max_generations)
            .field("manifest_dir", &self.manifest_dir)
            .field("progress", &self.progress.as_ref().map(|_| "<callback>"))
            .finish()
    }
}

/// One scored candidate, fully decoded.
#[derive(Debug, Clone, PartialEq)]
pub struct EvaluatedPoint {
    /// Generation that proposed the candidate.
    pub generation: usize,
    /// Index within the generation's proposals.
    pub candidate: usize,
    /// Unit-cube coordinates.
    pub unit: Vec<f64>,
    /// Physical axis values ([`DesignSpace::decode`] order).
    pub values: Vec<f64>,
    /// The decoded operating point.
    pub point: OperatingPoint,
    /// The score card.
    pub eval: Evaluation,
}

/// Summary of one completed generation.
#[derive(Debug, Clone, PartialEq)]
pub struct GenerationSummary {
    /// Generation index.
    pub generation: usize,
    /// Candidates proposed and scored.
    pub candidates: usize,
    /// Simulation lanes evaluated.
    pub lanes: usize,
    /// Lanes that failed terminally.
    pub failed_lanes: usize,
    /// Candidates violating a constraint (but not failed).
    pub infeasible: usize,
    /// Best penalized objective within this generation.
    pub best_objective: f64,
    /// Best droop reduction within this generation \[%\].
    pub best_reduction_pct: f64,
    /// Whether this generation improved the incumbent best.
    pub improved: bool,
    /// Incumbent best objective after this generation.
    pub incumbent_objective: f64,
}

/// Result of an [`optimize`] run.
#[derive(Debug, Clone)]
pub struct OptimizeOutcome {
    /// Optimizer identifier ([`Optimizer::name`]).
    pub algorithm: &'static str,
    /// Baseline/reference context candidates were scored against.
    pub baseline: BaselineContext,
    /// The reference operating point and its score through the identical
    /// pipeline (the "reproduce" half of reproduce-then-beat).
    pub reference: (OperatingPoint, Evaluation),
    /// The selected best point (see [`frontier::prefer_eval`] for the
    /// tie-break).
    pub best: EvaluatedPoint,
    /// Every scored candidate, in evaluation order.
    pub evaluated: Vec<EvaluatedPoint>,
    /// Per-generation summaries.
    pub history: Vec<GenerationSummary>,
}

/// Validates a lane measurement into a [`LaneMeasure`].
fn lane_measure(
    index: usize,
    i_max: f64,
    delay: f64,
) -> std::result::Result<LaneMeasure, SoftFetError> {
    if !i_max.is_finite() || !delay.is_finite() {
        return Err(SoftFetError::NonFinite(format!(
            "lane #{index}: i_max={i_max:e} delay={delay:e}"
        )));
    }
    Ok(LaneMeasure { i_max, delay })
}

/// The journal of one generation's lanes at `path`. Its identity
/// fingerprints the lane specs — everything a lane's value depends on —
/// so a journal of any other generation, space or objective is refused.
fn generation_journal<'a>(
    path: &'a Path,
    algorithm: &str,
    seed: u64,
    generation: usize,
    lanes: &[InverterSpec],
) -> Journal<'a, LaneMeasure> {
    Journal {
        path,
        identity: format!(
            "optimize {algorithm} seed={seed} gen={generation} lanes={} specs={:016x}",
            lanes.len(),
            sfet_numeric::fnv1a(format!("{lanes:?}").as_bytes())
        ),
        encode: |m| encode_f64s(&[m.i_max, m.delay]),
        decode: |index, payload| match decode_f64s(payload)?[..] {
            [i_max, delay] => lane_measure(index, i_max, delay).ok(),
            _ => None,
        },
    }
}

/// Evaluates one generation's lanes as one tiled verdict sweep, journalled
/// when `journal` is given.
fn evaluate_lanes(
    exec: &ExecConfig,
    lanes: &[InverterSpec],
    journal: Option<&Journal<'_, LaneMeasure>>,
) -> Result<Vec<SweepOutcome<LaneMeasure, SoftFetError>>> {
    let task = |attempt, tile: &[(usize, &InverterSpec)]| {
        measure_inverter_lanes(exec, attempt, tile)
            .into_iter()
            .zip(tile)
            .map(|(m, &(index, _))| m.and_then(|m| lane_measure(index, m.i_max, m.delay)))
            .collect()
    };
    par_map_outcomes(exec, lanes, journal, Task::Tiled(&task))
        .map(|(outcomes, _)| outcomes)
        .map_err(|e| OptimizeError::Manifest(e.to_string()))
}

/// Measures the plain-CMOS corner baselines and the reference operating
/// point, producing the scoring context.
fn measure_context(
    objective: &DroopObjective,
    cfg: &OptimizeConfig,
) -> Result<(BaselineContext, Evaluation)> {
    let mut corner_base = Vec::with_capacity(objective.corners.len());
    let mut droop_mv: f64 = 0.0;
    for &corner in &objective.corners {
        let m = measure_inverter(&objective.baseline_spec(corner))?;
        droop_mv = droop_mv.max(m.i_max * objective.r_pdn * 1e3);
        corner_base.push(CornerBaseline {
            corner,
            i_max: m.i_max,
            delay: m.delay,
        });
    }

    // The reference sweep: same lane machinery, its own seed stream.
    let ref_point = objective.reference;
    let ref_seed = task_seed(cfg.seed, REFERENCE_STREAM);
    let lanes: Vec<InverterSpec> = (0..objective.lanes_per_candidate())
        .map(|offset| objective.lane_spec(&ref_point, ref_seed, 0, offset))
        .collect();
    let outcomes = evaluate_lanes(&cfg.exec, &lanes, None)?;
    let mut ref_delay: f64 = 0.0;
    let mut ref_imax: f64 = 0.0;
    for (offset, o) in outcomes.iter().take(objective.corners.len()).enumerate() {
        match o {
            SweepOutcome::Ok { value, .. } => {
                ref_delay = ref_delay.max(value.delay);
                ref_imax = ref_imax.max(value.i_max);
            }
            SweepOutcome::Failed { error, .. } => {
                return Err(OptimizeError::Reference(format!(
                    "reference corner lane #{offset} failed: {error}"
                )));
            }
        }
    }
    let ctx = BaselineContext {
        corner_base,
        droop_mv,
        delay_cap: Some(ref_delay * (1.0 + objective.delay_slack_frac)),
        yield_limit: objective
            .yield_constraint
            .map(|y| y.imax_limit_factor * ref_imax),
    };
    let ref_eval = objective.aggregate(&ref_point, &outcomes, &ctx);
    Ok((ctx, ref_eval))
}

/// Runs the closed loop: see the module docs.
///
/// # Errors
///
/// * [`OptimizeError::Sim`] / [`OptimizeError::Reference`] when the
///   baseline or reference measurements fail (candidate lane failures are
///   *not* errors — they score as failed candidates);
/// * [`OptimizeError::Manifest`] for journal I/O problems;
/// * [`OptimizeError::NoCandidates`] when the optimizer never proposed a
///   candidate.
pub fn optimize(
    space: &DesignSpace,
    objective: &DroopObjective,
    optimizer: &mut dyn Optimizer,
    cfg: &OptimizeConfig,
) -> Result<OptimizeOutcome> {
    let telemetry = cfg.exec.telemetry().clone();
    let (ctx, ref_eval) = measure_context(objective, cfg)?;
    if let Some(dir) = &cfg.manifest_dir {
        std::fs::create_dir_all(dir).map_err(|e| OptimizeError::Manifest(e.to_string()))?;
    }

    let mut evaluated: Vec<EvaluatedPoint> = Vec::new();
    let mut history: Vec<GenerationSummary> = Vec::new();
    let mut best: Option<usize> = None;

    for generation in 0..cfg.max_generations {
        if optimizer.finished() {
            break;
        }
        let gen_seed = task_seed(cfg.seed, generation as u64);
        let proposals = optimizer.ask(generation, &mut VariationRng::new(gen_seed));
        if proposals.is_empty() {
            break;
        }

        // Decode every proposal and lay its lanes out back to back: lane
        // index within the generation is the determinism anchor for both
        // Monte-Carlo seeding and fault-plan addressing.
        let per_candidate = objective.lanes_per_candidate();
        let mut points = Vec::with_capacity(proposals.len());
        let mut lanes: Vec<InverterSpec> = Vec::with_capacity(proposals.len() * per_candidate);
        for unit in &proposals {
            let values = space.decode(unit);
            let point = crate::objective::operating_point(space, &values)?;
            let lane_base = lanes.len();
            for offset in 0..per_candidate {
                lanes.push(objective.lane_spec(&point, gen_seed, lane_base, offset));
            }
            points.push((values, point));
        }

        let manifest_path = cfg
            .manifest_dir
            .as_ref()
            .map(|d| d.join(format!("gen{generation:04}.manifest")));
        let journal = manifest_path
            .as_deref()
            .map(|path| generation_journal(path, optimizer.name(), cfg.seed, generation, &lanes));
        let outcomes = evaluate_lanes(&cfg.exec, &lanes, journal.as_ref())?;

        let mut scored = Vec::with_capacity(proposals.len());
        let mut summary = GenerationSummary {
            generation,
            candidates: proposals.len(),
            lanes: lanes.len(),
            failed_lanes: outcomes.iter().filter(|o| !o.is_ok()).count(),
            infeasible: 0,
            best_objective: f64::INFINITY,
            best_reduction_pct: f64::NEG_INFINITY,
            improved: false,
            incumbent_objective: f64::INFINITY,
        };
        for (candidate, ((values, point), unit)) in points.into_iter().zip(&proposals).enumerate() {
            let lane_range = candidate * per_candidate..(candidate + 1) * per_candidate;
            let eval = objective.aggregate(&point, &outcomes[lane_range], &ctx);
            if !eval.feasible && !eval.failed {
                summary.infeasible += 1;
            }
            summary.best_objective = summary.best_objective.min(eval.objective);
            if eval.droop_reduction_pct.is_finite() {
                summary.best_reduction_pct =
                    summary.best_reduction_pct.max(eval.droop_reduction_pct);
            }
            scored.push(Scored {
                unit: unit.clone(),
                objective: eval.objective,
            });
            evaluated.push(EvaluatedPoint {
                generation,
                candidate,
                unit: unit.clone(),
                values,
                point,
                eval,
            });
        }
        optimizer.tell(generation, &scored);

        // Incumbent update, with the cheapest-on-a-plateau tie-break.
        let gen_start = evaluated.len() - proposals.len();
        for i in gen_start..evaluated.len() {
            let better = match best {
                None => true,
                Some(b) => {
                    frontier::prefer_eval(&evaluated[i].eval, &evaluated[b].eval)
                        == std::cmp::Ordering::Less
                }
            };
            if better {
                best = Some(i);
                summary.improved = true;
            }
        }
        summary.incumbent_objective = best.map_or(f64::INFINITY, |b| evaluated[b].eval.objective);

        telemetry.counter(names::OPT_GENERATIONS, 1);
        telemetry.counter(names::OPT_CANDIDATES, summary.candidates as u64);
        telemetry.counter(names::OPT_LANES, summary.lanes as u64);
        telemetry.counter(names::OPT_INFEASIBLE, summary.infeasible as u64);
        telemetry.counter(
            names::OPT_FAILED,
            evaluated[gen_start..]
                .iter()
                .filter(|p| p.eval.failed)
                .count() as u64,
        );
        if summary.improved {
            telemetry.counter(names::OPT_IMPROVED, 1);
        }
        if let Some(progress) = &cfg.progress {
            progress(&summary);
        }
        history.push(summary);
    }

    let best = best.ok_or(OptimizeError::NoCandidates)?;
    Ok(OptimizeOutcome {
        algorithm: optimizer.name(),
        baseline: ctx,
        reference: (objective.reference, ref_eval),
        best: evaluated[best].clone(),
        evaluated,
        history,
    })
}
