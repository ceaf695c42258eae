//! Soft-FET I/O buffer comparison (paper Fig. 11).

use crate::design_space::run_sweep;
use crate::Result;
use sfet_devices::ptm::PtmParams;
use sfet_numeric::exec::ExecConfig;
use sfet_pdn::io_buffer::{IoBufferOutcome, IoBufferScenario};
use sfet_pdn::ssn::{energy_efficiency_gain, DEFAULT_GUARDBAND_K};

/// Baseline vs Soft-FET I/O buffer on the same parasitics.
#[derive(Debug, Clone)]
pub struct IoBufferComparison {
    /// Directly driven buffer outcome.
    pub baseline: IoBufferOutcome,
    /// PTM-driven buffer outcome.
    pub soft: IoBufferOutcome,
}

impl IoBufferComparison {
    /// SSN reduction in percent (paper: "46% lower ground bounce").
    pub fn ssn_reduction_pct(&self) -> f64 {
        100.0 * (1.0 - self.soft.ssn / self.baseline.ssn)
    }

    /// Energy-efficiency gain from the released guard band (paper: "8.8%
    /// improved energy efficiency"), using the default guard-band
    /// multiplier.
    pub fn energy_gain_pct(&self, v_nom: f64) -> f64 {
        100.0 * energy_efficiency_gain(self.baseline.ssn, self.soft.ssn, v_nom, DEFAULT_GUARDBAND_K)
    }

    /// Delay penalty of the Soft-FET buffer \[s\].
    pub fn delay_penalty(&self) -> f64 {
        self.soft.delay - self.baseline.delay
    }
}

/// One row of the SSN-vs-input-transition-time study (Fig. 11 inset).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SsnVsSlewPoint {
    /// Input transition time \[s\].
    pub input_rise: f64,
    /// Baseline SSN \[V\].
    pub ssn_base: f64,
    /// Soft-FET SSN \[V\].
    pub ssn_soft: f64,
    /// SSN improvement, percent.
    pub improvement_pct: f64,
}

/// Runs the baseline and Soft-FET variants of an I/O buffer scenario.
///
/// # Errors
///
/// Propagates scenario and simulation failures.
pub fn compare_io_buffer(
    scenario: &IoBufferScenario,
    logic_ptm: PtmParams,
) -> Result<IoBufferComparison> {
    let baseline_scenario = IoBufferScenario {
        ptm: None,
        ..scenario.clone()
    };
    let soft_scenario = scenario.with_soft_fet(logic_ptm);
    let baseline = baseline_scenario.run()?;
    let soft = soft_scenario.run()?;
    Ok(IoBufferComparison { baseline, soft })
}

/// Sweeps the input transition time and reports the SSN improvement at
/// each point (the paper finds the improvement grows with transition
/// time).
///
/// # Errors
///
/// Propagates simulation failures as [`crate::SoftFetError::Sweep`].
pub fn ssn_vs_slew_with(
    cfg: &ExecConfig,
    scenario: &IoBufferScenario,
    logic_ptm: PtmParams,
    input_rises: &[f64],
) -> Result<Vec<SsnVsSlewPoint>> {
    // Fix the PTM once (scaled for the scenario's nominal transition time,
    // as a real design would be) and only vary the input edge — the
    // paper's Fig. 11 inset keeps the device constant.
    let soft_template = scenario.with_soft_fet(logic_ptm);
    run_sweep(
        cfg,
        input_rises,
        |t| format!("input_rise={t:.4e} s"),
        |_, &input_rise| {
            let base = IoBufferScenario {
                input_rise,
                ptm: None,
                ..scenario.clone()
            }
            .run()?;
            let soft = IoBufferScenario {
                input_rise,
                ..soft_template.clone()
            }
            .run()?;
            Ok(SsnVsSlewPoint {
                input_rise,
                ssn_base: base.ssn,
                ssn_soft: soft.ssn,
                improvement_pct: 100.0 * (1.0 - soft.ssn / base.ssn),
            })
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comparison_shows_paper_trends() {
        let cmp =
            compare_io_buffer(&IoBufferScenario::default(), PtmParams::vo2_default()).unwrap();
        assert!(
            cmp.ssn_reduction_pct() > 0.0,
            "SSN reduced by {:.1}%",
            cmp.ssn_reduction_pct()
        );
        assert!(cmp.energy_gain_pct(1.0) > 0.0);
        assert!(cmp.delay_penalty() > 0.0, "soft switching costs delay");
    }
}
