//! Power-gate wake-up scenario (paper Fig. 10).
//!
//! A sleeping power domain (its capacitance fully discharged) is woken by
//! ramping the gate of a large PMOS header. The inrush current that
//! recharges the domain flows through the shared PDN and disturbs an
//! active neighbour on the same rail: the voltage droop the paper sets out
//! to mitigate. The Soft-FET variant inserts a PTM between the sleep
//! controller and the header gate, staircase-charging the gate and
//! spreading the inrush.
//!
//! PTM scaling: a header gate is ~10⁴× the capacitance of a logic gate, so
//! the PTM via is correspondingly wider and its resistances lower. The
//! scenario scales `R_INS`/`R_MET` (preserving their ratio) to keep the
//! `R_INS·C_gate` time constant in the same proportion to the gate ramp as
//! in the logic-cell experiments (documented in DESIGN.md).

use crate::model::PdnParams;
use crate::{run_sweep, PdnError, Result};
use sfet_circuit::{Circuit, SourceWaveform};
use sfet_devices::mosfet::{gate_caps, MosfetModel};
use sfet_devices::ptm::PtmParams;
use sfet_numeric::exec::ExecConfig;
use sfet_sim::{transient_resumable, CheckpointPolicy, SimOptions};
use sfet_waveform::measure::{crossing_time, droop, CrossDirection, DroopReport};
use sfet_waveform::Waveform;

/// Power-gate wake-up scenario description.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerGateScenario {
    /// Shared-rail PDN.
    pub pdn: PdnParams,
    /// Header PMOS width \[m\].
    pub pg_width: f64,
    /// Header PMOS length \[m\].
    pub pg_length: f64,
    /// Sleeping-domain capacitance \[F\].
    pub c_domain: f64,
    /// Sleeping-domain leakage path to ground \[Ω\] (discharges the domain
    /// before wake-up and carries the retention current after).
    pub r_domain: f64,
    /// Constant current drawn by the active neighbour on the shared rail \[A\].
    pub i_active: f64,
    /// Wake command start time \[s\].
    pub wake_start: f64,
    /// Sleep-signal ramp duration \[s\].
    pub wake_ramp: f64,
    /// Soft-FET gate PTM; `None` for the baseline direct-drive gate.
    pub ptm: Option<PtmParams>,
    /// Simulation stop time \[s\].
    pub t_stop: f64,
}

impl Default for PowerGateScenario {
    fn default() -> Self {
        PowerGateScenario {
            pdn: PdnParams::default(),
            pg_width: 2e-3,
            pg_length: 40e-9,
            c_domain: 2e-9,
            r_domain: 20.0,
            i_active: 50e-3,
            wake_start: 2e-9,
            wake_ramp: 2e-9,
            ptm: None,
            t_stop: 40e-9,
        }
    }
}

/// Measured outcome of one wake-up.
#[derive(Debug, Clone)]
pub struct PowerGateOutcome {
    /// Disturbance on the shared rail seen by the active neighbour.
    pub droop: DroopReport,
    /// Peak inrush current above the active-neighbour steady state \[A\].
    pub peak_inrush: f64,
    /// Maximum |di/dt| of the rail current \[A/s\].
    pub di_dt: f64,
    /// Time from wake command to the virtual rail reaching 90 % of
    /// nominal \[s\]; `None` if it never does within `t_stop`.
    pub wake_time: Option<f64>,
    /// Shared-rail voltage waveform.
    pub rail: Waveform,
    /// Virtual (gated) rail voltage waveform.
    pub v_virtual: Waveform,
    /// Header gate voltage waveform.
    pub v_gate: Waveform,
    /// Rail current waveform (delivery-positive).
    pub i_rail: Waveform,
}

impl PowerGateScenario {
    /// The Soft-FET variant of this scenario: the same wake-up with the
    /// given *logic-scale* PTM, automatically resistance-scaled to the
    /// header's gate capacitance.
    pub fn with_soft_fet(&self, logic_ptm: PtmParams) -> Self {
        // Logic-cell reference: R_INS·C ≈ 250 ps against a 30 ps ramp.
        // Keep the same R·C : ramp proportion for the header gate.
        let c_gate = gate_caps(&MosfetModel::pmos_40nm(), self.pg_width, self.pg_length).total();
        let reference_ratio = logic_ptm.r_ins * 0.5e-15 / 30e-12;
        let r_ins_target = reference_ratio * self.wake_ramp / c_gate;
        let scale = r_ins_target / logic_ptm.r_ins;
        let scaled = logic_ptm.scaled_resistance(scale);
        PowerGateScenario {
            ptm: Some(scaled),
            ..self.clone()
        }
    }

    /// Validates the scenario.
    ///
    /// # Errors
    ///
    /// [`PdnError::InvalidScenario`] naming the violated constraint.
    pub fn validate(&self) -> Result<()> {
        self.pdn.validate()?;
        for (name, v) in [
            ("pg_width", self.pg_width),
            ("pg_length", self.pg_length),
            ("c_domain", self.c_domain),
            ("r_domain", self.r_domain),
            ("wake_ramp", self.wake_ramp),
        ] {
            if !(v > 0.0 && v.is_finite()) {
                return Err(PdnError::InvalidScenario(format!(
                    "{name} must be positive, got {v:e}"
                )));
            }
        }
        if self.t_stop <= self.wake_start + self.wake_ramp {
            return Err(PdnError::InvalidScenario(
                "t_stop must extend beyond the wake ramp".into(),
            ));
        }
        Ok(())
    }

    /// Builds the scenario circuit.
    ///
    /// # Errors
    ///
    /// Propagates validation and circuit-construction failures.
    pub fn build(&self) -> Result<Circuit> {
        self.validate()?;
        let mut ckt = Circuit::new();
        let gnd = Circuit::ground();
        let rail = self.pdn.attach(&mut ckt, "vdd")?;
        let vvdd = ckt.node("vvdd");
        let sleep = ckt.node("sleep");
        let gate = ckt.node("pgate");

        // Active neighbour: constant current off the shared rail.
        ckt.add_current_source("Iactive", rail, gnd, SourceWaveform::Dc(self.i_active))?;

        // Sleep controller: gate signal ramps V_nom → 0 at wake.
        ckt.add_voltage_source(
            "VSLEEP",
            sleep,
            gnd,
            SourceWaveform::ramp(self.pdn.v_nom, 0.0, self.wake_start, self.wake_ramp),
        )?;
        match &self.ptm {
            Some(params) => {
                ckt.add_ptm("PPG", sleep, gate, *params)?;
            }
            None => {
                ckt.add_resistor("RPG", sleep, gate, 0.1)?;
            }
        }

        // Header PMOS: source on the shared rail, drain on the virtual rail.
        ckt.add_mosfet(
            "MPG",
            vvdd,
            gate,
            rail,
            rail,
            MosfetModel::pmos_40nm(),
            self.pg_width,
            self.pg_length,
        )?;

        // Sleeping domain: capacitance (starts discharged) + resistive load.
        ckt.add_capacitor_ic("Cdom", vvdd, gnd, self.c_domain, 0.0)?;
        ckt.add_resistor("Rdom", vvdd, gnd, self.r_domain)?;
        Ok(ckt)
    }

    /// Runs the scenario and measures the outcome.
    ///
    /// Equivalent to [`PowerGateScenario::run_with`] with the default
    /// options for this duration (4000 nominal points, telemetry
    /// disabled).
    ///
    /// # Errors
    ///
    /// Propagates build, simulation, and measurement failures.
    pub fn run(&self) -> Result<PowerGateOutcome> {
        self.run_with(&SimOptions::for_duration(self.t_stop, 4000))
    }

    /// Runs the scenario under explicit simulator options — the hook for
    /// attaching telemetry ([`SimOptions::with_telemetry`]) or tightening
    /// tolerances without rebuilding the circuit by hand.
    ///
    /// # Errors
    ///
    /// Propagates build, simulation, and measurement failures.
    pub fn run_with(&self, opts: &SimOptions) -> Result<PowerGateOutcome> {
        self.run_resumable(opts, &CheckpointPolicy::disabled())
    }

    /// [`PowerGateScenario::run_with`] under a checkpoint/restart policy:
    /// with `ckpt.checkpoint_to` set the transient snapshots its state
    /// periodically, and with `ckpt.resume_from` set it continues from a
    /// snapshot — producing an outcome bitwise identical to an
    /// uninterrupted run (see [`sfet_sim::transient_resumable`]). This is
    /// the long-running PDN scenario the resilience layer exists for.
    ///
    /// # Errors
    ///
    /// Everything [`PowerGateScenario::run_with`] raises, plus checkpoint
    /// I/O/format failures and injected-fault crashes.
    pub fn run_resumable(
        &self,
        opts: &SimOptions,
        ckpt: &CheckpointPolicy,
    ) -> Result<PowerGateOutcome> {
        let ckt = self.build()?;
        let result = transient_resumable(&ckt, self.t_stop, opts, ckpt)?;

        let rail = result.voltage(&PdnParams::rail_node_name("vdd"))?;
        let v_virtual = result.voltage("vvdd")?;
        let v_gate = result.voltage("pgate")?;
        let i_rail = result.supply_current("Vvdd")?;

        // Restrict droop measurement to the wake window onward (the initial
        // PDN settling at t=0 is not the phenomenon under study).
        let wake_window = rail.window(self.wake_start * 0.5, self.t_stop)?;
        let droop_report = droop(&wake_window, rail.value_at(self.wake_start * 0.9));

        let i_steady = i_rail.value_at(self.wake_start * 0.9);
        let inrush = i_rail.map(|i| i - i_steady);
        let (_, peak_inrush) = inrush
            .window(self.wake_start * 0.5, self.t_stop)?
            .peak_abs();
        let di_dt = sfet_waveform::measure::max_abs_didt(&i_rail);

        let wake_time = crossing_time(
            &v_virtual,
            0.9 * self.pdn.v_nom,
            CrossDirection::Rising,
            self.wake_start,
        )
        .ok()
        .map(|t| t - self.wake_start);

        Ok(PowerGateOutcome {
            droop: droop_report,
            peak_inrush: peak_inrush.abs(),
            di_dt,
            wake_time,
            rail,
            v_virtual,
            v_gate,
            i_rail,
        })
    }
}

/// One row of the wake-ramp trade-off study: baseline vs Soft-FET at one
/// sleep-signal ramp duration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WakeRampPoint {
    /// Sleep-signal ramp duration \[s\].
    pub wake_ramp: f64,
    /// Baseline shared-rail droop \[V\].
    pub droop_base: f64,
    /// Soft-FET shared-rail droop \[V\].
    pub droop_soft: f64,
    /// Baseline peak inrush \[A\].
    pub inrush_base: f64,
    /// Soft-FET peak inrush \[A\].
    pub inrush_soft: f64,
    /// Soft-FET wake time (command → 90 % of nominal) \[s\], if reached.
    pub wake_time_soft: Option<f64>,
}

/// Sweeps the sleep-signal ramp duration, measuring baseline and Soft-FET
/// wake-ups at each point — the design trade between wake latency and
/// shared-rail disturbance. The PTM is re-scaled per point (the header
/// resistance tracks the ramp, as in [`PowerGateScenario::with_soft_fet`])
/// and `t_stop` is stretched so slow ramps still complete.
///
/// # Errors
///
/// Propagates the first scenario failure as [`PdnError::Sweep`].
pub fn wake_ramp_sweep_with(
    cfg: &ExecConfig,
    scenario: &PowerGateScenario,
    logic_ptm: PtmParams,
    wake_ramps: &[f64],
) -> Result<Vec<WakeRampPoint>> {
    run_sweep(
        cfg,
        wake_ramps,
        |r| format!("wake_ramp={r:.4e} s"),
        |_, &wake_ramp| {
            let base = PowerGateScenario {
                wake_ramp,
                ptm: None,
                t_stop: scenario.t_stop.max(scenario.wake_start + 8.0 * wake_ramp),
                ..scenario.clone()
            };
            let soft = base.with_soft_fet(logic_ptm);
            let out_b = base.run()?;
            let out_s = soft.run()?;
            Ok(WakeRampPoint {
                wake_ramp,
                droop_base: out_b.droop.droop,
                droop_soft: out_s.droop.droop,
                inrush_base: out_b.peak_inrush,
                inrush_soft: out_s.peak_inrush,
                wake_time_soft: out_s.wake_time,
            })
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_validates_and_builds() {
        let s = PowerGateScenario::default();
        let ckt = s.build().unwrap();
        ckt.validate().unwrap();
    }

    #[test]
    fn invalid_scenarios_rejected() {
        let s = PowerGateScenario {
            c_domain: -1.0,
            ..Default::default()
        };
        assert!(s.validate().is_err());
        let base = PowerGateScenario::default();
        let s = PowerGateScenario {
            t_stop: base.wake_start,
            ..base
        };
        assert!(s.validate().is_err());
    }

    #[test]
    fn baseline_wakeup_charges_domain_and_droops_rail() {
        let s = PowerGateScenario::default();
        let out = s.run().unwrap();
        // The domain must actually wake.
        assert!(
            out.v_virtual.last_value() > 0.9 * s.pdn.v_nom,
            "virtual rail reached {}",
            out.v_virtual.last_value()
        );
        assert!(out.wake_time.is_some());
        // The wake-up must disturb the shared rail measurably (tens of mV).
        assert!(
            out.droop.droop > 5e-3,
            "expected a visible droop, got {:.1} mV",
            out.droop.droop * 1e3
        );
        assert!(out.peak_inrush > 10e-3, "inrush {:.3e}", out.peak_inrush);
    }

    #[test]
    fn soft_fet_reduces_droop_and_inrush() {
        let base = PowerGateScenario::default();
        let soft = base.with_soft_fet(PtmParams::vo2_default());
        let out_b = base.run().unwrap();
        let out_s = soft.run().unwrap();
        assert!(
            out_s.peak_inrush < out_b.peak_inrush,
            "inrush: soft {:.3e} vs base {:.3e}",
            out_s.peak_inrush,
            out_b.peak_inrush
        );
        assert!(
            out_s.droop.droop < out_b.droop.droop,
            "droop: soft {:.1} mV vs base {:.1} mV",
            out_s.droop.droop * 1e3,
            out_b.droop.droop * 1e3
        );
        // And the domain still wakes up.
        assert!(out_s.v_virtual.last_value() > 0.9 * base.pdn.v_nom);
    }

    #[test]
    fn wake_ramp_sweep_reports_soft_benefit_per_point() {
        let pts = wake_ramp_sweep_with(
            &ExecConfig::from_env(),
            &PowerGateScenario::default(),
            PtmParams::vo2_default(),
            &[2e-9, 4e-9],
        )
        .unwrap();
        assert_eq!(pts.len(), 2);
        for p in &pts {
            assert!(
                p.droop_soft < p.droop_base,
                "ramp {:.1e}: soft droop {:.1} mV vs base {:.1} mV",
                p.wake_ramp,
                p.droop_soft * 1e3,
                p.droop_base * 1e3
            );
            assert!(p.wake_time_soft.is_some(), "domain must still wake");
        }
    }

    #[test]
    fn wake_ramp_sweep_error_names_the_point() {
        let err = wake_ramp_sweep_with(
            &ExecConfig::from_env(),
            &PowerGateScenario::default(),
            PtmParams::vo2_default(),
            &[2e-9, -1.0],
        )
        .expect_err("negative ramp must fail validation");
        match err {
            PdnError::Sweep { index, context, .. } => {
                assert_eq!(index, 1);
                assert!(context.contains("wake_ramp"), "context: {context}");
            }
            other => panic!("expected Sweep, got {other:?}"),
        }
    }

    #[test]
    fn soft_fet_scaling_preserves_contrast() {
        let s = PowerGateScenario::default().with_soft_fet(PtmParams::vo2_default());
        let p = s.ptm.unwrap();
        let r = PtmParams::vo2_default();
        assert!((p.r_ins / p.r_met - r.r_ins / r.r_met).abs() < 1e-6);
        assert!(p.r_ins < r.r_ins, "header PTM must be lower-resistance");
    }
}
