//! Design recommendations (paper §IV-E).
//!
//! The paper recommends keeping the ratio of input slew time to PTM
//! switching time around 1.5–3 for the best peak-current reduction. This
//! module sweeps that ratio (by varying T_PTM under a fixed input edge)
//! and reports where the benefit actually peaks.

use crate::design_space::tptm_sweep_with;
use crate::inverter::{InverterSpec, Topology};
use crate::metrics::measure_inverter;
use crate::Result;
use sfet_devices::ptm::PtmParams;
use sfet_numeric::exec::ExecConfig;

/// The paper's recommended slew-time : T_PTM ratio band.
pub const RECOMMENDED_RATIO: (f64, f64) = (1.5, 3.0);

/// One point of the ratio analysis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RatioPoint {
    /// Input slew time / T_PTM.
    pub ratio: f64,
    /// T_PTM used \[s\].
    pub t_ptm: f64,
    /// Peak-current reduction vs the baseline inverter, percent.
    pub reduction_pct: f64,
    /// Number of phase transitions.
    pub transitions: usize,
}

/// Sweeps the slew/T_PTM ratio at a fixed input edge.
///
/// # Errors
///
/// Propagates simulation failures.
///
/// # Example
///
/// ```no_run
/// let pts = softfet::recommend::ratio_sweep(
///     1.0,
///     sfet_devices::ptm::PtmParams::vo2_default(),
///     30e-12,
///     &[1.0, 2.0, 4.0],
/// )?;
/// assert_eq!(pts.len(), 3);
/// # Ok::<(), softfet::SoftFetError>(())
/// ```
pub fn ratio_sweep(
    vdd: f64,
    base: PtmParams,
    t_rise: f64,
    ratios: &[f64],
) -> Result<Vec<RatioPoint>> {
    let base_imax =
        measure_inverter(&InverterSpec::minimum(vdd, Topology::Baseline).with_t_rise(t_rise))?
            .i_max;
    let t_ptms: Vec<f64> = ratios.iter().map(|r| t_rise / r).collect();
    let sweep = tptm_sweep_with(&ExecConfig::from_env(), vdd, base, &t_ptms)?;
    Ok(sweep
        .iter()
        .zip(ratios)
        .map(|(p, &ratio)| RatioPoint {
            ratio,
            t_ptm: p.t_ptm,
            reduction_pct: 100.0 * (1.0 - p.i_max / base_imax),
            transitions: p.transitions,
        })
        .collect())
}

/// The ratio with the largest peak-current reduction.
///
/// **Tie-break:** among points with equal reduction the *smallest* ratio
/// wins. A larger slew/T_PTM ratio means a faster (smaller-T_PTM, more
/// expensive) PTM device, so on a benefit plateau the recommendation must
/// name the cheapest device that reaches it — not whichever plateau point
/// the sweep happened to visit last. The `sfet-optimize` Pareto-frontier
/// knee selection reuses this same cheapest-on-a-plateau rule.
///
/// Returns `None` for an empty sweep.
pub fn best_ratio(points: &[RatioPoint]) -> Option<f64> {
    points
        .iter()
        // A NaN reduction (diverged sample) must not panic the
        // recommendation pass — and must not win it either (positive NaN
        // sorts above +inf under total order), so NaNs are demoted below
        // every finite value before the total-order comparison. Equal
        // reductions fall through to the ratio key, inverted so that the
        // smaller (cheaper) ratio compares as greater and wins `max_by`.
        .max_by(
            |a, b| match (a.reduction_pct.is_nan(), b.reduction_pct.is_nan()) {
                (true, false) => std::cmp::Ordering::Less,
                (false, true) => std::cmp::Ordering::Greater,
                _ => a
                    .reduction_pct
                    .total_cmp(&b.reduction_pct)
                    .then(b.ratio.total_cmp(&a.ratio)),
            },
        )
        .map(|p| p.ratio)
}

/// Whether a ratio falls in the paper's recommended band.
pub fn in_recommended_band(ratio: f64) -> bool {
    ratio >= RECOMMENDED_RATIO.0 && ratio <= RECOMMENDED_RATIO.1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn band_membership() {
        assert!(in_recommended_band(2.0));
        assert!(!in_recommended_band(0.5));
        assert!(!in_recommended_band(10.0));
    }

    #[test]
    fn best_ratio_picks_max() {
        let pts = vec![
            RatioPoint {
                ratio: 1.0,
                t_ptm: 30e-12,
                reduction_pct: 10.0,
                transitions: 1,
            },
            RatioPoint {
                ratio: 2.0,
                t_ptm: 15e-12,
                reduction_pct: 30.0,
                transitions: 1,
            },
        ];
        assert_eq!(best_ratio(&pts), Some(2.0));
        assert_eq!(best_ratio(&[]), None);
    }

    fn plateau_point(ratio: f64, reduction_pct: f64) -> RatioPoint {
        RatioPoint {
            ratio,
            t_ptm: 30e-12 / ratio,
            reduction_pct,
            transitions: 1,
        }
    }

    #[test]
    fn best_ratio_plateau_prefers_cheapest_device() {
        // Regression: `max_by` keeps the *last* maximum, so a reduction
        // plateau used to recommend the largest ratio — the smallest,
        // most expensive T_PTM. The cheapest plateau member must win,
        // wherever it sits in sweep order.
        let pts = vec![
            plateau_point(1.0, 12.0),
            plateau_point(1.5, 30.0),
            plateau_point(2.0, 30.0),
            plateau_point(4.0, 30.0),
        ];
        assert_eq!(best_ratio(&pts), Some(1.5));
        // Sweep order must not matter.
        let mut rev = pts.clone();
        rev.reverse();
        assert_eq!(best_ratio(&rev), Some(1.5));
    }

    #[test]
    fn best_ratio_demotes_nan_reductions() {
        let pts = vec![
            plateau_point(1.0, 20.0),
            plateau_point(2.0, f64::NAN),
            plateau_point(3.0, 20.0),
        ];
        // NaN never wins; the plateau tie-break still applies.
        assert_eq!(best_ratio(&pts), Some(1.0));
        let all_nan = vec![plateau_point(1.0, f64::NAN), plateau_point(2.0, f64::NAN)];
        // All-NaN sweeps still return *something* (cheapest device).
        assert_eq!(best_ratio(&all_nan), Some(1.0));
    }
}
