//! Lumped power-delivery-network model.
//!
//! A single-π lumped model of the package + on-die grid, in the parameter
//! regime of Zhang et al., "Characterizing and evaluating voltage noise in
//! multi-core near-threshold processors" (ISLPED 2013) — the paper's PDN
//! reference [19]: a few mΩ of package resistance, tens to hundreds of pH
//! of loop inductance, and nF-class on-die decoupling.

use crate::{run_sweep, PdnError, Result};
use sfet_circuit::{Circuit, NodeId, SourceWaveform};
use sfet_numeric::exec::ExecConfig;

/// Lumped PDN parameters.
///
/// # Example
///
/// ```
/// let pdn = sfet_pdn::PdnParams::default();
/// assert!(pdn.l_pkg > 0.0);
/// // Resonant frequency in the 10-100 MHz band typical of package PDNs.
/// let f0 = 1.0 / (2.0 * std::f64::consts::PI * (pdn.l_pkg * pdn.c_decap).sqrt());
/// assert!(f0 > 1e6 && f0 < 1e9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PdnParams {
    /// Nominal supply voltage \[V\].
    pub v_nom: f64,
    /// Package + board series resistance \[Ω\].
    pub r_pkg: f64,
    /// Package loop inductance \[H\].
    pub l_pkg: f64,
    /// On-die decoupling capacitance \[F\].
    pub c_decap: f64,
    /// Effective series resistance of the decap \[Ω\].
    pub r_decap: f64,
}

impl Default for PdnParams {
    fn default() -> Self {
        // [19]-regime values for a near-threshold multicore power domain.
        PdnParams {
            v_nom: 1.0,
            r_pkg: 5e-3,
            l_pkg: 120e-12,
            c_decap: 20e-9,
            r_decap: 2e-3,
        }
    }
}

impl PdnParams {
    /// Validates parameter domains.
    ///
    /// # Errors
    ///
    /// [`PdnError::InvalidScenario`] naming the violated constraint.
    pub fn validate(&self) -> Result<()> {
        for (name, v) in [
            ("v_nom", self.v_nom),
            ("r_pkg", self.r_pkg),
            ("l_pkg", self.l_pkg),
            ("c_decap", self.c_decap),
            ("r_decap", self.r_decap),
        ] {
            if !(v > 0.0 && v.is_finite()) {
                return Err(PdnError::InvalidScenario(format!(
                    "{name} must be positive and finite, got {v:e}"
                )));
            }
        }
        Ok(())
    }

    /// Attaches the PDN to a circuit: ideal regulator → `r_pkg` → `l_pkg` →
    /// on-die rail with decap. Returns the on-die rail node. Element names
    /// are prefixed to allow several PDNs per circuit.
    ///
    /// # Errors
    ///
    /// Propagates validation and circuit-construction failures.
    pub fn attach(&self, ckt: &mut Circuit, prefix: &str) -> Result<NodeId> {
        self.validate()?;
        let gnd = Circuit::ground();
        let vrm = ckt.node(&format!("{prefix}_vrm"));
        let pkg = ckt.node(&format!("{prefix}_pkg"));
        let rail = ckt.node(&format!("{prefix}_rail"));
        let dcp = ckt.node(&format!("{prefix}_dcp"));
        ckt.add_voltage_source(
            &format!("V{prefix}"),
            vrm,
            gnd,
            SourceWaveform::Dc(self.v_nom),
        )?;
        ckt.add_resistor(&format!("R{prefix}_pkg"), vrm, pkg, self.r_pkg)?;
        ckt.add_inductor(&format!("L{prefix}_pkg"), pkg, rail, self.l_pkg)?;
        ckt.add_resistor(&format!("R{prefix}_dcp"), rail, dcp, self.r_decap)?;
        ckt.add_capacitor_ic(
            &format!("C{prefix}_dcp"),
            dcp,
            gnd,
            self.c_decap,
            self.v_nom,
        )?;
        Ok(rail)
    }

    /// The rail node name produced by [`PdnParams::attach`] for a prefix.
    pub fn rail_node_name(prefix: &str) -> String {
        format!("{prefix}_rail")
    }

    /// Input impedance |Z(jω)| of the PDN seen from the on-die rail,
    /// computed by AC analysis with a 1 A current-source stimulus.
    ///
    /// Returns `(frequency, |Z|)` pairs. The profile shows the classic
    /// package anti-resonance peak near `1 / (2π√(L_pkg·C_decap))` — the
    /// frequency band where di/dt excitation hurts most, which is exactly
    /// what the Soft-FET's current-spreading attacks. Each frequency point
    /// is an independent complex solve against the same stamped matrices,
    /// so the parallel profile is bitwise identical to a serial one.
    ///
    /// # Errors
    ///
    /// Propagates circuit and AC-analysis failures as [`PdnError::Sweep`].
    pub fn impedance_profile_with(
        &self,
        cfg: &ExecConfig,
        freqs: &[f64],
    ) -> Result<Vec<(f64, f64)>> {
        let mut ckt = Circuit::new();
        let rail = self.attach(&mut ckt, "vdd")?;
        let gnd = Circuit::ground();
        ckt.add_current_source("IAC", rail, gnd, SourceWaveform::Dc(0.0))?;
        let rail_name = Self::rail_node_name("vdd");
        let opts = sfet_sim::SimOptions::default();
        run_sweep(
            cfg,
            freqs,
            |f| format!("f={f:.4e} Hz"),
            |idx, &f| {
                let res =
                    sfet_sim::ac_sweep(&ckt, "IAC", &[f], &opts).map_err(crate::PdnError::Sim)?;
                let mags = res.magnitude(&rail_name).map_err(crate::PdnError::Sim)?;
                // A non-finite |Z| becomes a named error here, not a panic
                // in whatever reduction consumes the profile next. The
                // fault plan's `nanmeas@I` entry poisons point `I` to keep
                // this path regression-tested.
                let mut z = mags[0];
                if cfg.fault_plan().is_some_and(|p| p.nan_measurement(idx)) {
                    z = f64::NAN;
                }
                if !z.is_finite() {
                    return Err(PdnError::NonFiniteMetric(format!(
                        "|Z| at f={f:.4e} Hz (point {idx}) is {z}"
                    )));
                }
                Ok((f, z))
            },
        )
    }

    /// The package anti-resonance frequency `1 / (2π√(L_pkg·C_decap))` \[Hz\].
    pub fn resonance_frequency(&self) -> f64 {
        1.0 / (2.0 * std::f64::consts::PI * (self.l_pkg * self.c_decap).sqrt())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfet_sim::{transient, SimOptions};

    #[test]
    fn default_validates() {
        PdnParams::default().validate().unwrap();
    }

    #[test]
    fn invalid_rejected() {
        let p = PdnParams {
            l_pkg: 0.0,
            ..Default::default()
        };
        assert!(p.validate().is_err());
    }

    #[test]
    fn attach_names_and_connectivity() {
        let mut ckt = Circuit::new();
        let rail = PdnParams::default().attach(&mut ckt, "vdd").unwrap();
        assert_eq!(ckt.node_name(rail), "vdd_rail");
        // Needs a load to be a valid circuit.
        let gnd = Circuit::ground();
        ckt.add_resistor("Rload", rail, gnd, 100.0).unwrap();
        ckt.validate().unwrap();
    }

    #[test]
    fn step_load_produces_droop_and_recovery() {
        // A current step on the rail must droop by roughly L di/dt ringing
        // and settle back near v_nom - I*R_pkg.
        let pdn = PdnParams::default();
        let mut ckt = Circuit::new();
        let rail = pdn.attach(&mut ckt, "vdd").unwrap();
        let gnd = Circuit::ground();
        // 1 A load step in 1 ns.
        ckt.add_current_source(
            "Iload",
            rail,
            gnd,
            SourceWaveform::ramp(0.0, 1.0, 5e-9, 1e-9),
        )
        .unwrap();
        let tstop = 200e-9;
        let r = transient(&ckt, tstop, &SimOptions::for_duration(tstop, 4000)).unwrap();
        let v = r.voltage("vdd_rail").unwrap();
        let (_, v_min) = v.min();
        assert!(v_min < pdn.v_nom - 2e-3, "observable droop, got {v_min}");
        // Settles near IR drop below nominal.
        let v_end = v.last_value();
        let expect = pdn.v_nom - 1.0 * pdn.r_pkg;
        assert!((v_end - expect).abs() < 2e-3, "{v_end} vs {expect}");
    }
}

#[cfg(test)]
mod impedance_tests {
    use super::*;

    /// A fault-injected NaN at one frequency point yields a named
    /// `NonFiniteMetric` error — not a panic in whichever reduction
    /// (peak search, sort) consumes the profile next.
    #[test]
    fn nan_impedance_point_is_named_error_not_panic() {
        use sfet_numeric::fault::FaultPlan;
        let pdn = PdnParams::default();
        let freqs = [1e6, 1e7, 1e8];
        let cfg = ExecConfig::serial().with_fault_plan(FaultPlan::new().with_nan_measurement(1));
        let err = pdn.impedance_profile_with(&cfg, &freqs).unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("non-finite") && msg.contains("point 1"),
            "error must name the poisoned point: {msg}"
        );
        // Fault-free on the same config shape still succeeds.
        let profile = pdn
            .impedance_profile_with(&ExecConfig::serial(), &freqs)
            .unwrap();
        assert_eq!(profile.len(), 3);
        assert!(profile.iter().all(|(_, z)| z.is_finite()));
    }

    #[test]
    fn impedance_peaks_at_package_resonance() {
        let pdn = PdnParams::default();
        let f0 = pdn.resonance_frequency();
        let freqs: Vec<f64> = (0..121)
            .map(|k| f0 / 100.0 * 10f64.powf(k as f64 / 30.0))
            .collect();
        let profile = pdn
            .impedance_profile_with(&ExecConfig::from_env(), &freqs)
            .unwrap();
        let (f_peak, z_peak) = profile
            .iter()
            .copied()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .unwrap();
        assert!(
            (f_peak / f0).log10().abs() < 0.2,
            "peak at {f_peak:.3e} vs resonance {f0:.3e}"
        );
        // At resonance the impedance is far above the DC package resistance.
        assert!(z_peak > 5.0 * pdn.r_pkg, "peak impedance {z_peak}");
        // At DC-ish frequencies Z approaches R_pkg.
        assert!((profile[0].1 - pdn.r_pkg).abs() / pdn.r_pkg < 0.5);
    }
}
