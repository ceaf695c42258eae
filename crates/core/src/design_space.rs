//! PTM design-space exploration (paper Figs. 6, 8, 9).
//!
//! All sweeps are embarrassingly parallel across parameter points and route
//! through the shared deterministic engine in [`sfet_numeric::exec`]: every
//! sweep produces bitwise-identical results at any worker count (including
//! serial), honours the `SFET_THREADS` override, and cancels on the first
//! failing point, reporting it as [`SoftFetError::Sweep`] with the
//! offending parameters. Each sweep is one function taking an explicit
//! [`ExecConfig`]; pass [`ExecConfig::from_env`] for the environment's
//! policy.
//!
//! Single-transient sweeps (the V_IMT × V_MIT grid and the T_PTM sweep)
//! additionally tile their points into structure-of-arrays lanes and run
//! through the batched transient engine (`SFET_BATCH` lanes per tile; see
//! `docs/BATCHING.md`) — without changing any result bit, per the batched
//! engine's determinism contract.

use crate::inverter::{InverterSpec, Topology};
use crate::metrics::{
    inverter_sim_options, measure_inverter, measure_inverter_batch, InverterMetrics,
};
use crate::Result;
use crate::SoftFetError;
use sfet_devices::ptm::PtmParams;
use sfet_numeric::exec::{self, ExecConfig, ExecStats, Task};
use sfet_sim::SimOptions;

/// One point of the V_IMT × V_MIT grid (Fig. 6).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridPoint {
    /// Insulator→metal threshold \[V\].
    pub v_imt: f64,
    /// Metal→insulator threshold \[V\].
    pub v_mit: f64,
    /// Peak rail current \[A\].
    pub i_max: f64,
    /// Maximum |di/dt| \[A/s\].
    pub di_dt: f64,
    /// Propagation delay \[s\].
    pub delay: f64,
    /// Number of PTM phase transitions during the edge.
    pub transitions: usize,
}

/// One point of the T_PTM sweep (Fig. 8).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TptmPoint {
    /// PTM switching time \[s\].
    pub t_ptm: f64,
    /// Peak rail current \[A\].
    pub i_max: f64,
    /// Maximum |di/dt| \[A/s\].
    pub di_dt: f64,
    /// Propagation delay \[s\].
    pub delay: f64,
    /// Number of PTM phase transitions.
    pub transitions: usize,
}

/// One point of the input-slew sweep (Fig. 9).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlewPoint {
    /// Input ramp duration \[s\].
    pub t_rise: f64,
    /// Soft-FET peak current \[A\].
    pub i_max_soft: f64,
    /// Baseline peak current at the same slew \[A\].
    pub i_max_base: f64,
    /// Peak-current reduction, percent.
    pub reduction_pct: f64,
    /// Soft-FET max |di/dt| \[A/s\].
    pub di_dt_soft: f64,
    /// Baseline max |di/dt| \[A/s\].
    pub di_dt_base: f64,
    /// Soft-FET delay \[s\].
    pub delay_soft: f64,
    /// Baseline delay \[s\].
    pub delay_base: f64,
    /// PTM transitions observed.
    pub transitions: usize,
}

/// Runs `task` over `items` through the shared engine, converting a task
/// failure into [`SoftFetError::Sweep`] with the offending parameters
/// rendered by `describe`.
pub(crate) fn run_sweep<T, U, F, D>(
    cfg: &ExecConfig,
    items: &[T],
    describe: D,
    task: F,
) -> Result<Vec<U>>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> Result<U> + Sync,
    D: Fn(&T) -> String,
{
    exec::par_map(cfg, items, Task::Each(&|i, _, item| task(i, item)))
        .map(|(values, _)| values)
        .map_err(|e| SoftFetError::Sweep {
            index: e.index,
            context: describe(&items[e.index]),
            source: Box::new(e.source),
        })
}

/// Measures a Soft-FET inverter for one PTM parameter set at the paper's
/// standard conditions (minimum inverter, V_CC = 1 V, 30 ps edge).
fn soft_metrics(vdd: f64, ptm: PtmParams) -> Result<InverterMetrics> {
    measure_inverter(&InverterSpec::minimum(vdd, Topology::SoftFet(ptm)))
}

/// Batched counterpart of [`run_sweep`] for sweeps whose task is "build one
/// inverter spec, measure it, project a point from the metrics": items are
/// tiled into lanes of [`ExecConfig::resolved_batch`] width and each tile
/// runs through [`measure_inverter_batch`] in one structure-of-arrays
/// transient pass. Every lane is bitwise identical to the scalar pipeline
/// (the batched engine's determinism contract), so sweep results are
/// independent of the `SFET_BATCH` setting. Per-lane failures (including
/// spec/PTM validation errors at circuit build) surface as
/// [`SoftFetError::Sweep`] with the failing *task* index and `describe`d
/// parameters, exactly like the scalar path.
fn run_metric_sweep_batched<T, U, D, S, P>(
    cfg: &ExecConfig,
    items: &[T],
    describe: D,
    spec_of: S,
    point_of: P,
) -> Result<(Vec<U>, ExecStats)>
where
    T: Sync,
    U: Send,
    D: Fn(&T) -> String,
    S: Fn(&T) -> InverterSpec + Sync,
    P: Fn(&T, &InverterMetrics) -> U + Sync,
{
    let tile = |_attempt, tile: &[(usize, &T)]| {
        let lanes: Vec<(InverterSpec, SimOptions)> = tile
            .iter()
            .map(|(_, item)| {
                let spec = spec_of(item);
                let opts = inverter_sim_options(&spec);
                (spec, opts)
            })
            .collect();
        let refs: Vec<(&InverterSpec, &SimOptions)> = lanes.iter().map(|(s, o)| (s, o)).collect();
        measure_inverter_batch(&refs)
            .into_iter()
            .zip(tile)
            .map(|(r, (_, item))| r.map(|m| point_of(item, &m)))
            .collect()
    };
    exec::par_map(cfg, items, Task::Tiled(&tile)).map_err(|e| SoftFetError::Sweep {
        index: e.index,
        context: describe(&items[e.index]),
        source: Box::new(e.source),
    })
}

/// Sweeps the V_IMT × V_MIT grid (Fig. 6), returning the points with the
/// engine statistics the figure binaries print. Grid points with
/// `v_mit >= v_imt` are physically impossible and are skipped. Runs
/// through the batched structure-of-arrays engine (docs/BATCHING.md); all
/// [`ExecStats`] counts stay per-*point*, not per-tile.
///
/// # Errors
///
/// Propagates the first simulation failure as [`SoftFetError::Sweep`].
///
/// # Example
///
/// ```no_run
/// use sfet_numeric::exec::ExecConfig;
///
/// let (pts, _stats) = softfet::design_space::vimt_vmit_grid_with(
///     &ExecConfig::from_env(),
///     1.0,
///     sfet_devices::ptm::PtmParams::vo2_default(),
///     &[0.3, 0.4, 0.5],
///     &[0.1],
/// )?;
/// assert_eq!(pts.len(), 3);
/// # Ok::<(), softfet::SoftFetError>(())
/// ```
pub fn vimt_vmit_grid_with(
    cfg: &ExecConfig,
    vdd: f64,
    base: PtmParams,
    v_imts: &[f64],
    v_mits: &[f64],
) -> Result<(Vec<GridPoint>, ExecStats)> {
    let mut combos = Vec::new();
    for &v_imt in v_imts {
        for &v_mit in v_mits {
            if v_mit < v_imt {
                combos.push((v_imt, v_mit));
            }
        }
    }
    run_metric_sweep_batched(
        cfg,
        &combos,
        |&(v_imt, v_mit)| format!("v_imt={v_imt:.4} V, v_mit={v_mit:.4} V"),
        |&(v_imt, v_mit)| {
            InverterSpec::minimum(vdd, Topology::SoftFet(base.with_thresholds(v_imt, v_mit)))
        },
        |&(v_imt, v_mit), m| GridPoint {
            v_imt,
            v_mit,
            i_max: m.i_max,
            di_dt: m.di_dt,
            delay: m.delay,
            transitions: m.transitions,
        },
    )
}

/// Sweeps the intrinsic switching time T_PTM (Fig. 8). Runs through the
/// batched structure-of-arrays engine (docs/BATCHING.md).
///
/// # Errors
///
/// Propagates the first simulation failure as [`SoftFetError::Sweep`].
pub fn tptm_sweep_with(
    cfg: &ExecConfig,
    vdd: f64,
    base: PtmParams,
    t_ptms: &[f64],
) -> Result<Vec<TptmPoint>> {
    run_metric_sweep_batched(
        cfg,
        t_ptms,
        |t| format!("t_ptm={t:.4e} s"),
        |&t_ptm| InverterSpec::minimum(vdd, Topology::SoftFet(base.with_t_ptm(t_ptm))),
        |&t_ptm, m| TptmPoint {
            t_ptm,
            i_max: m.i_max,
            di_dt: m.di_dt,
            delay: m.delay,
            transitions: m.transitions,
        },
    )
    .map(|(points, _)| points)
}

/// Sweeps the input slew (Fig. 9), measuring Soft-FET and baseline at each
/// point so the percentage reduction is slew-consistent. Each task runs
/// *two* transients with slew-dependent durations, which doesn't map onto
/// fixed-shape lanes, so the sweep runs per item.
///
/// # Errors
///
/// Propagates the first simulation failure as [`SoftFetError::Sweep`].
pub fn slew_sweep_with(
    cfg: &ExecConfig,
    vdd: f64,
    ptm: PtmParams,
    t_rises: &[f64],
) -> Result<Vec<SlewPoint>> {
    run_sweep(
        cfg,
        t_rises,
        |t| format!("t_rise={t:.4e} s"),
        |_, &t_rise| {
            // Stretch the window so slow edges still settle.
            let t_stop = (20e-12 + t_rise) * 2.0 + 600e-12;
            let soft = measure_inverter(
                &InverterSpec::minimum(vdd, Topology::SoftFet(ptm))
                    .with_t_rise(t_rise)
                    .with_t_stop(t_stop),
            )?;
            let base = measure_inverter(
                &InverterSpec::minimum(vdd, Topology::Baseline)
                    .with_t_rise(t_rise)
                    .with_t_stop(t_stop),
            )?;
            Ok(SlewPoint {
                t_rise,
                i_max_soft: soft.i_max,
                i_max_base: base.i_max,
                reduction_pct: 100.0 * (1.0 - soft.i_max / base.i_max),
                di_dt_soft: soft.di_dt,
                di_dt_base: base.di_dt,
                delay_soft: soft.delay,
                delay_base: base.delay,
                transitions: soft.transitions,
            })
        },
    )
}

/// One point of the V_CC-dependence study: the V_IMT that minimises I_MAX
/// at a given supply voltage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OptimalVimtPoint {
    /// Supply voltage \[V\].
    pub vdd: f64,
    /// The I_MAX-minimising V_IMT among the candidates \[V\].
    pub best_v_imt: f64,
    /// I_MAX at the optimum \[A\].
    pub i_max: f64,
    /// I_MAX of the baseline inverter at the same V_CC \[A\].
    pub i_max_baseline: f64,
}

/// Finds the I_MAX-optimal V_IMT at each supply voltage — the paper's
/// §IV-E remark that the optimum "is a strong function of V_CC" made
/// quantitative. Candidates are scanned as fractions of V_CC.
///
/// # Errors
///
/// Propagates the first simulation failure as [`SoftFetError::Sweep`].
pub fn optimal_vimt_vs_vcc_with(
    cfg: &ExecConfig,
    base: PtmParams,
    vdds: &[f64],
    vimt_fractions: &[f64],
) -> Result<Vec<OptimalVimtPoint>> {
    run_sweep(
        cfg,
        vdds,
        |v| format!("vdd={v:.3} V"),
        |_, &vdd| {
            let baseline = measure_inverter(&InverterSpec::minimum(vdd, Topology::Baseline))?;
            let mut best: Option<(f64, f64)> = None;
            for &frac in vimt_fractions {
                let v_imt = frac * vdd;
                let v_mit = (base.v_mit).min(0.5 * v_imt);
                let m = soft_metrics(vdd, base.with_thresholds(v_imt, v_mit))?;
                if best.is_none_or(|(_, imax)| m.i_max < imax) {
                    best = Some((v_imt, m.i_max));
                }
            }
            let (best_v_imt, i_max) = best.expect("candidate list is non-empty");
            Ok(OptimalVimtPoint {
                vdd,
                best_v_imt,
                i_max,
                i_max_baseline: baseline.i_max,
            })
        },
    )
}

/// One point of the ambient-temperature study.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TemperaturePoint {
    /// Ambient temperature [°C].
    pub celsius: f64,
    /// Soft-FET peak current with the temperature-adjusted PTM \[A\].
    pub i_max_soft: f64,
    /// Baseline peak current (temperature model applies to the PTM only;
    /// the MOSFET cards stay at their nominal corner) \[A\].
    pub i_max_base: f64,
    /// Peak-current reduction, percent.
    pub reduction_pct: f64,
    /// PTM transitions observed.
    pub transitions: usize,
}

/// Sweeps ambient temperature through the PTM thermal model
/// ([`PtmParams::at_temperature`]): as the ambient approaches VO₂'s
/// T_C ≈ 68 °C the thresholds collapse and the soft-switching benefit
/// erodes — the thermal design envelope of a Soft-FET product.
///
/// # Errors
///
/// Propagates the first simulation failure as [`SoftFetError::Sweep`].
pub fn temperature_sweep_with(
    cfg: &ExecConfig,
    vdd: f64,
    base: PtmParams,
    celsius_points: &[f64],
) -> Result<Vec<TemperaturePoint>> {
    let baseline = measure_inverter(&InverterSpec::minimum(vdd, Topology::Baseline))?;
    run_sweep(
        cfg,
        celsius_points,
        |c| format!("ambient={c:.1} C"),
        |_, &celsius| {
            let m = soft_metrics(vdd, base.at_temperature(celsius))?;
            Ok(TemperaturePoint {
                celsius,
                i_max_soft: m.i_max,
                i_max_base: baseline.i_max,
                reduction_pct: 100.0 * (1.0 - m.i_max / baseline.i_max),
                transitions: m.transitions,
            })
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_skips_impossible_combos() {
        let (pts, _) = vimt_vmit_grid_with(
            &ExecConfig::from_env(),
            1.0,
            PtmParams::vo2_default(),
            &[0.3],
            &[0.1, 0.3, 0.5],
        )
        .unwrap();
        // Only v_mit = 0.1 < v_imt = 0.3 survives.
        assert_eq!(pts.len(), 1);
        assert_eq!(pts[0].v_mit, 0.1);
        assert!(pts[0].i_max > 0.0);
    }

    #[test]
    fn imax_dips_near_optimal_vimt() {
        // Fig. 6's headline: I_MAX(V_IMT=0.4) below both 0.25 and 0.55.
        let (pts, _) = vimt_vmit_grid_with(
            &ExecConfig::from_env(),
            1.0,
            PtmParams::vo2_default(),
            &[0.25, 0.4, 0.55],
            &[0.1],
        )
        .unwrap();
        let imax_of = |v: f64| {
            pts.iter()
                .find(|p| (p.v_imt - v).abs() < 1e-9)
                .expect("point exists")
                .i_max
        };
        let (lo, opt, hi) = (imax_of(0.25), imax_of(0.4), imax_of(0.55));
        assert!(opt < lo, "I_MAX dip: 0.4 ({opt:.3e}) vs 0.25 ({lo:.3e})");
        assert!(opt < hi, "I_MAX dip: 0.4 ({opt:.3e}) vs 0.55 ({hi:.3e})");
    }

    #[test]
    fn optimal_vimt_tracks_vcc() {
        // The optimum V_IMT moves down with V_CC (paper §IV-E: "strong
        // function of V_CC").
        let pts = optimal_vimt_vs_vcc_with(
            &ExecConfig::from_env(),
            PtmParams::vo2_default(),
            &[0.7, 1.0],
            &[0.3, 0.4, 0.5, 0.6],
        )
        .unwrap();
        assert!(pts[0].best_v_imt <= pts[1].best_v_imt + 1e-9);
        // And at the per-V_CC optimum the Soft-FET beats baseline at both
        // supplies.
        for p in &pts {
            assert!(
                p.i_max < p.i_max_baseline,
                "at vdd={}: soft {} vs base {}",
                p.vdd,
                p.i_max,
                p.i_max_baseline
            );
        }
    }

    #[test]
    fn slew_sweep_benefit_shrinks_for_slow_edges() {
        // Fig. 9: soft-switching benefit vanishes with decreasing slew rate.
        let pts = slew_sweep_with(
            &ExecConfig::from_env(),
            1.0,
            PtmParams::vo2_default(),
            &[30e-12, 600e-12],
        )
        .unwrap();
        assert!(
            pts[0].reduction_pct > pts[1].reduction_pct,
            "fast {:.1}% vs slow {:.1}%",
            pts[0].reduction_pct,
            pts[1].reduction_pct
        );
    }

    #[test]
    fn invalid_point_reports_sweep_context() {
        // A non-physical PTM (t_ptm <= 0) fails validation inside the sweep;
        // the error must carry the task index and the parameters.
        let err = tptm_sweep_with(
            &ExecConfig::from_env(),
            1.0,
            PtmParams::vo2_default(),
            &[10e-12, -1.0],
        )
        .expect_err("negative t_ptm must fail");
        match err {
            SoftFetError::Sweep { index, context, .. } => {
                assert_eq!(index, 1);
                assert!(context.contains("t_ptm"), "context: {context}");
            }
            other => panic!("expected Sweep error, got {other:?}"),
        }
    }

    #[test]
    fn grid_stats_cover_all_points() {
        let (pts, stats) = vimt_vmit_grid_with(
            &ExecConfig::with_workers(2),
            1.0,
            PtmParams::vo2_default(),
            &[0.3, 0.4],
            &[0.1],
        )
        .unwrap();
        assert_eq!(pts.len(), 2);
        assert_eq!(stats.tasks_completed, 2);
        assert_eq!(stats.workers, 2);
        assert!(stats.wall.as_nanos() > 0);
    }
}

#[cfg(test)]
mod temperature_tests {
    use super::*;

    #[test]
    fn benefit_erodes_near_transition_temperature() {
        let pts = temperature_sweep_with(
            &ExecConfig::from_env(),
            1.0,
            PtmParams::vo2_default(),
            &[25.0, 45.0, 62.0],
        )
        .unwrap();
        // Nominal ambient keeps the headline benefit.
        assert!(
            pts[0].reduction_pct > 40.0,
            "25C: {:.1}%",
            pts[0].reduction_pct
        );
        // Near T_C the thresholds collapse and the benefit erodes.
        assert!(
            pts[2].reduction_pct < pts[0].reduction_pct,
            "62C ({:.1}%) must be worse than 25C ({:.1}%)",
            pts[2].reduction_pct,
            pts[0].reduction_pct
        );
        // The inverter still functions at every point.
        assert!(pts
            .iter()
            .all(|p| p.i_max_soft.is_finite() && p.i_max_soft > 0.0));
    }
}
