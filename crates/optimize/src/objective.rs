//! Pluggable optimization objectives.
//!
//! The shipped objective is [`DroopObjective`]: *minimize worst-corner
//! supply droop at iso-delay*, the question the paper answers by hand.
//! Every candidate is scored from one batch of inverter transients —
//! one lane per PVT corner plus (optionally) per Monte-Carlo process
//! sample — so a whole optimizer generation maps onto a single tiled
//! `par_map_outcomes` sweep.
//!
//! ## Score semantics
//!
//! The scalar objective is the worst-corner droop in millivolts
//! (`I_MAX · R_PDN`), *minimized*. Constraints are folded in as
//! deterministic penalties:
//!
//! * **iso-delay** — worst-corner propagation delay must stay within a
//!   slack factor of the reference operating point's delay (the paper's
//!   hand-picked Soft-FET, measured through the same pipeline — the same
//!   iso-comparison discipline as [`softfet::iso_imax`]);
//! * **yield** — at least `min_yield` of the Monte-Carlo samples must
//!   keep `I_MAX` under an absolute budget derived from the reference
//!   point (via the same lane task and outcome machinery as
//!   [`softfet::variation::monte_carlo_imax_outcomes`]).

use crate::space::DesignSpace;
use crate::{OptimizeError, Result};
use sfet_devices::mosfet::Corner;
use sfet_devices::ptm::PtmParams;
use sfet_numeric::exec::{task_seed, SweepOutcome};
use softfet::inverter::{InverterSpec, Topology};
use softfet::variation::{PtmVariation, VariationRng};
use softfet::SoftFetError;

/// One fully-decoded candidate design: the PTM device, the wake-ramp
/// schedule knob, and the sizing ratio.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OperatingPoint {
    /// PTM device parameters.
    pub ptm: PtmParams,
    /// Input/wake ramp duration \[s\].
    pub t_rise: f64,
    /// Width multiplier applied to both inverter devices.
    pub w_scale: f64,
}

impl OperatingPoint {
    /// The paper's hand-picked operating point: the VO₂ default device,
    /// the 30 ps ramp, minimum sizing.
    pub fn paper() -> Self {
        OperatingPoint {
            ptm: PtmParams::vo2_default(),
            t_rise: 30e-12,
            w_scale: 1.0,
        }
    }

    /// Area cost relative to the paper point: the PTM film area scales
    /// inversely with its resistances (`r_met_default / r_met`), the
    /// MOSFET area linearly with the width multiplier. A combined,
    /// dimensionless proxy — 1.0 at the paper point.
    pub fn area_ratio(&self) -> f64 {
        let r_ref = PtmParams::vo2_default().r_met;
        (r_ref / self.ptm.r_met) * self.w_scale
    }
}

/// Decodes a design-space value vector into an [`OperatingPoint`].
///
/// Axes are looked up **by name** (`v_imt`, `hyst_ratio`, `r_scale`,
/// `t_ptm`, `t_rise`, `w_scale` — the [`DesignSpace::soft_fet_standard`]
/// vocabulary); any axis the space does not define falls back to the
/// paper value, so reduced spaces (e.g. a 2-axis threshold study) work
/// unchanged.
///
/// # Errors
///
/// [`OptimizeError::Point`] if the decoded PTM fails
/// [`PtmParams::validate`] (impossible for the standard bounds, which
/// keep `v_mit < v_imt` by construction).
pub fn operating_point(space: &DesignSpace, decoded: &[f64]) -> Result<OperatingPoint> {
    let defaults = PtmParams::vo2_default();
    let v_imt = space.value_of(decoded, "v_imt").unwrap_or(defaults.v_imt);
    let hyst = space
        .value_of(decoded, "hyst_ratio")
        .unwrap_or(defaults.v_mit / defaults.v_imt);
    let r_scale = space.value_of(decoded, "r_scale").unwrap_or(1.0);
    let ptm = PtmParams {
        v_imt,
        v_mit: hyst * v_imt,
        r_ins: defaults.r_ins * r_scale,
        r_met: defaults.r_met * r_scale,
        t_ptm: space.value_of(decoded, "t_ptm").unwrap_or(defaults.t_ptm),
    };
    ptm.validate()
        .map_err(|e| OptimizeError::Point(format!("decoded PTM invalid: {e}")))?;
    Ok(OperatingPoint {
        ptm,
        t_rise: space.value_of(decoded, "t_rise").unwrap_or(30e-12),
        w_scale: space.value_of(decoded, "w_scale").unwrap_or(1.0),
    })
}

/// What one simulation lane measures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaneMeasure {
    /// Peak switching current \[A\].
    pub i_max: f64,
    /// Propagation delay \[s\].
    pub delay: f64,
}

/// Monte-Carlo yield constraint configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct YieldConstraint {
    /// Process spreads to draw PTM samples from.
    pub variation: PtmVariation,
    /// Monte-Carlo lanes per candidate (per generation).
    pub samples: usize,
    /// `I_MAX` budget as a multiple of the reference point's worst-corner
    /// `I_MAX`.
    pub imax_limit_factor: f64,
    /// Required fraction of samples within the budget.
    pub min_yield: f64,
}

impl Default for YieldConstraint {
    fn default() -> Self {
        YieldConstraint {
            variation: PtmVariation::default(),
            samples: 8,
            imax_limit_factor: 1.25,
            min_yield: 0.9,
        }
    }
}

/// Min-worst-corner-droop objective with iso-delay (and optional yield)
/// constraints. See the module docs for the score semantics.
#[derive(Debug, Clone)]
pub struct DroopObjective {
    /// Nominal supply \[V\].
    pub vdd: f64,
    /// PVT corners every candidate is measured at.
    pub corners: Vec<Corner>,
    /// Effective PDN resistance converting `I_MAX` to droop \[Ω\].
    pub r_pdn: f64,
    /// Allowed worst-corner delay increase over the reference point,
    /// fractional (0.05 = 5 %).
    pub delay_slack_frac: f64,
    /// Optional Monte-Carlo yield constraint.
    pub yield_constraint: Option<YieldConstraint>,
    /// The iso-delay reference: the operating point candidates must match
    /// on delay and beat on droop. Defaults to [`OperatingPoint::paper`].
    pub reference: OperatingPoint,
}

impl DroopObjective {
    /// The standard objective: all three process corners, a 100 Ω
    /// effective PDN, 5 % delay slack, no yield constraint.
    pub fn standard(vdd: f64) -> Self {
        DroopObjective {
            vdd,
            corners: vec![Corner::Slow, Corner::Typical, Corner::Fast],
            r_pdn: 100.0,
            delay_slack_frac: 0.05,
            yield_constraint: None,
            reference: OperatingPoint::paper(),
        }
    }

    /// Simulation lanes per candidate: one per corner plus the
    /// Monte-Carlo samples.
    pub fn lanes_per_candidate(&self) -> usize {
        self.corners.len() + self.yield_constraint.map_or(0, |y| y.samples)
    }

    /// Builds the inverter spec for one candidate lane. Lanes `0..corners`
    /// are the PVT corners at the candidate's nominal PTM; the remaining
    /// lanes draw process-varied PTM samples, seeded from
    /// `task_seed(gen_seed, lane_base + offset)` so a lane's sample
    /// depends only on its position in the generation — never on worker
    /// count, batch width, or resume order.
    pub fn lane_spec(
        &self,
        point: &OperatingPoint,
        gen_seed: u64,
        lane_base: usize,
        offset: usize,
    ) -> InverterSpec {
        let (corner, ptm) = if offset < self.corners.len() {
            (self.corners[offset], point.ptm)
        } else {
            let y = self
                .yield_constraint
                .expect("MC lane offsets exist only with a yield constraint");
            let mut rng = VariationRng::new(task_seed(gen_seed, (lane_base + offset) as u64));
            (Corner::Typical, y.variation.sample(&point.ptm, &mut rng))
        };
        let mut spec = InverterSpec::minimum(self.vdd, Topology::SoftFet(ptm))
            .with_t_rise(point.t_rise)
            .with_corner(corner);
        spec.wp *= point.w_scale;
        spec.wn *= point.w_scale;
        // Cover the ramp plus the slow PTM settling tail: long-T_PTM
        // candidates need more window than the paper's 600 ps default.
        spec.t_stop = (spec.t_start + point.t_rise + 12.0 * ptm.t_ptm + 300e-12).max(600e-12);
        spec
    }

    /// The plain-CMOS baseline lane for one corner (the droop reference
    /// the paper reports reductions against).
    pub fn baseline_spec(&self, corner: Corner) -> InverterSpec {
        InverterSpec::minimum(self.vdd, Topology::Baseline).with_corner(corner)
    }
}

/// Per-corner baseline (plain CMOS) measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CornerBaseline {
    /// The corner measured.
    pub corner: Corner,
    /// Baseline peak current \[A\].
    pub i_max: f64,
    /// Baseline delay \[s\].
    pub delay: f64,
}

/// Everything candidate scoring needs besides the candidate itself.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineContext {
    /// Per-corner plain-CMOS measurements, in objective corner order.
    pub corner_base: Vec<CornerBaseline>,
    /// Worst-corner baseline droop \[mV\].
    pub droop_mv: f64,
    /// Absolute worst-corner delay cap \[s\] (`None` while measuring the
    /// reference point itself, whose delay *defines* the cap).
    pub delay_cap: Option<f64>,
    /// Absolute Monte-Carlo `I_MAX` budget \[A\], when a yield constraint
    /// is active.
    pub yield_limit: Option<f64>,
}

/// The score card of one evaluated candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct Evaluation {
    /// Penalized scalar objective (worst-corner droop \[mV\] plus
    /// constraint penalties), minimized. `f64::INFINITY` for failed
    /// evaluations.
    pub objective: f64,
    /// All constraints satisfied and every corner lane simulated.
    pub feasible: bool,
    /// A corner lane failed terminally (retry budget exhausted).
    pub failed: bool,
    /// Worst-corner droop \[mV\].
    pub droop_mv: f64,
    /// Droop reduction vs the plain-CMOS baseline, percent.
    pub droop_reduction_pct: f64,
    /// Worst-corner delay \[s\].
    pub delay: f64,
    /// Delay increase over the reference operating point, percent.
    pub delay_penalty_pct: f64,
    /// Area cost proxy vs the paper point (see
    /// [`OperatingPoint::area_ratio`]).
    pub area_ratio: f64,
    /// Fraction of Monte-Carlo samples within the `I_MAX` budget (1.0
    /// when no yield constraint is configured).
    pub yield_fraction: f64,
    /// Total simulation attempts across the candidate's lanes.
    pub attempts: usize,
    /// First terminal lane failure, if any.
    pub failure: Option<String>,
}

impl DroopObjective {
    /// Scores one candidate from its lane outcomes (corner lanes first,
    /// Monte-Carlo lanes after — the [`DroopObjective::lane_spec`]
    /// order).
    ///
    /// Determinism: every reduction below is over a fixed lane order with
    /// total-ordered comparisons, so the score is a pure function of the
    /// lane values — bitwise reproducible wherever the lanes are.
    pub fn aggregate(
        &self,
        point: &OperatingPoint,
        outcomes: &[SweepOutcome<LaneMeasure, SoftFetError>],
        ctx: &BaselineContext,
    ) -> Evaluation {
        let n_corners = self.corners.len();
        let attempts = outcomes.iter().map(SweepOutcome::attempts).sum();
        let failure = outcomes.iter().take(n_corners).find_map(|o| match o {
            SweepOutcome::Failed { error, .. } => Some(error.to_string()),
            SweepOutcome::Ok { .. } => None,
        });
        let mut eval = Evaluation {
            objective: f64::INFINITY,
            feasible: false,
            failed: failure.is_some(),
            droop_mv: f64::NAN,
            droop_reduction_pct: f64::NAN,
            delay: f64::NAN,
            delay_penalty_pct: f64::NAN,
            area_ratio: point.area_ratio(),
            yield_fraction: if self.yield_constraint.is_some() {
                0.0
            } else {
                1.0
            },
            attempts,
            failure,
        };
        if eval.failed {
            return eval;
        }

        // Worst-corner droop and delay over the corner lanes.
        let mut droop_mv: f64 = 0.0;
        let mut delay: f64 = 0.0;
        let mut finite = true;
        for o in outcomes.iter().take(n_corners) {
            let m = o.value().expect("corner lane failures handled above");
            finite &= m.i_max.is_finite() && m.delay.is_finite();
            droop_mv = droop_mv.max(m.i_max * self.r_pdn * 1e3);
            delay = delay.max(m.delay);
        }
        if !finite {
            eval.failed = true;
            eval.failure = Some("non-finite corner measurement".into());
            return eval;
        }
        eval.droop_mv = droop_mv;
        eval.delay = delay;
        eval.droop_reduction_pct = 100.0 * (1.0 - droop_mv / ctx.droop_mv);
        let cap = ctx.delay_cap.unwrap_or(delay);
        eval.delay_penalty_pct = 100.0 * (delay / (cap / (1.0 + self.delay_slack_frac)) - 1.0);

        // Monte-Carlo yield: a failed sample lane counts against yield
        // (deterministically) rather than failing the candidate.
        if let (Some(_), Some(limit)) = (self.yield_constraint, ctx.yield_limit) {
            let samples = &outcomes[n_corners..];
            let within = samples
                .iter()
                .filter(|o| {
                    o.value()
                        .is_some_and(|m| m.i_max.is_finite() && m.i_max <= limit)
                })
                .count();
            eval.yield_fraction = if samples.is_empty() {
                1.0
            } else {
                within as f64 / samples.len() as f64
            };
        }

        // Penalized objective: droop plus a deterministic infeasibility
        // surcharge that keeps the landscape ordered (more violation =
        // worse) without NaN traps.
        let mut penalty = 0.0;
        let delay_ok = delay <= cap;
        if !delay_ok {
            penalty += 1e3 + 1e4 * (delay / cap - 1.0);
        }
        let yield_ok = self
            .yield_constraint
            .is_none_or(|y| eval.yield_fraction >= y.min_yield);
        if !yield_ok {
            let short = self
                .yield_constraint
                .map_or(0.0, |y| y.min_yield - eval.yield_fraction);
            penalty += 1e3 + 1e4 * short;
        }
        eval.feasible = delay_ok && yield_ok;
        eval.objective = droop_mv + penalty;
        eval
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok(i_max: f64, delay: f64) -> SweepOutcome<LaneMeasure, SoftFetError> {
        SweepOutcome::Ok {
            value: LaneMeasure { i_max, delay },
            attempts: 1,
        }
    }

    fn ctx() -> BaselineContext {
        BaselineContext {
            corner_base: vec![],
            droop_mv: 10.0,
            delay_cap: Some(20e-12),
            yield_limit: None,
        }
    }

    fn objective() -> DroopObjective {
        let mut o = DroopObjective::standard(1.0);
        o.corners = vec![Corner::Typical, Corner::Fast];
        o
    }

    #[test]
    fn aggregate_scores_worst_corner() {
        let o = objective();
        let point = OperatingPoint::paper();
        let e = o.aggregate(&point, &[ok(4e-5, 15e-12), ok(6e-5, 12e-12)], &ctx());
        assert!(e.feasible && !e.failed);
        assert!((e.droop_mv - 6.0).abs() < 1e-9); // 6e-5 A × 100 Ω
        assert!((e.droop_reduction_pct - 40.0).abs() < 1e-9);
        assert_eq!(e.delay, 15e-12);
        assert_eq!(e.objective, e.droop_mv);
    }

    #[test]
    fn aggregate_penalizes_delay_violation() {
        let o = objective();
        let point = OperatingPoint::paper();
        let e = o.aggregate(&point, &[ok(4e-5, 25e-12), ok(4e-5, 12e-12)], &ctx());
        assert!(!e.feasible && !e.failed);
        assert!(e.objective > 1e3, "penalty must dominate: {}", e.objective);
        assert!(e.objective.is_finite());
    }

    #[test]
    fn aggregate_fails_on_corner_lane_failure() {
        let o = objective();
        let point = OperatingPoint::paper();
        let failed: SweepOutcome<LaneMeasure, SoftFetError> = SweepOutcome::Failed {
            attempts: 3,
            error: SoftFetError::Calibration("boom".into()),
        };
        let e = o.aggregate(&point, &[ok(4e-5, 15e-12), failed], &ctx());
        assert!(e.failed && !e.feasible);
        assert_eq!(e.objective, f64::INFINITY);
        assert!(e.failure.as_deref().unwrap().contains("boom"));
    }

    #[test]
    fn yield_counts_failed_samples_against_yield() {
        let mut o = objective();
        o.yield_constraint = Some(YieldConstraint {
            samples: 2,
            min_yield: 0.9,
            ..YieldConstraint::default()
        });
        let mut c = ctx();
        c.yield_limit = Some(5e-5);
        let point = OperatingPoint::paper();
        let failed: SweepOutcome<LaneMeasure, SoftFetError> = SweepOutcome::Failed {
            attempts: 3,
            error: SoftFetError::Calibration("mc".into()),
        };
        let e = o.aggregate(
            &point,
            &[ok(4e-5, 15e-12), ok(4e-5, 12e-12), ok(4e-5, 13e-12), failed],
            &c,
        );
        // One of two samples within budget → 50 % < 90 % required.
        assert!((e.yield_fraction - 0.5).abs() < 1e-12);
        assert!(!e.feasible && !e.failed);
    }

    #[test]
    fn operating_point_decodes_by_name() {
        let space = DesignSpace::soft_fet_standard();
        let unit = space.encode(&[0.4, 0.25, 1.0, 10e-12, 30e-12, 1.0]);
        let p = operating_point(&space, &space.decode(&unit)).unwrap();
        let paper = OperatingPoint::paper();
        assert!((p.ptm.v_imt - paper.ptm.v_imt).abs() < 1e-12);
        assert!((p.ptm.v_mit - paper.ptm.v_mit).abs() < 1e-12);
        assert!((p.t_rise - paper.t_rise).abs() < 1e-20);
        assert!((p.area_ratio() - 1.0).abs() < 1e-9);
    }
}
