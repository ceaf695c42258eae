//! Transient analysis results.

use std::collections::HashMap;

use crate::matrix::SolverStats;
use crate::{Result, SimError};
use sfet_devices::ptm::TransitionEvent;
use sfet_waveform::Waveform;

/// Engine statistics for one transient run.
///
/// The step counters satisfy `steps_attempted == steps_accepted +
/// steps_rejected` by construction (every loop iteration either accepts
/// or rejects), and `newton_iterations >= steps_accepted` (each accepted
/// step converged through at least one iteration). `sfet-verify` enforces
/// these invariants across its reference-circuit catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TranStats {
    /// Step attempts (accepted + rejected).
    pub steps_attempted: usize,
    /// Accepted time steps.
    pub steps_accepted: usize,
    /// Rejected attempts (Newton failure or event refinement).
    pub steps_rejected: usize,
    /// Newton iterations of the step attempts whose Newton loop converged,
    /// including attempts that LTE or PTM-event control then rejected; an
    /// attempt whose Newton loop failed adds none. On a linear circuit an
    /// attempt's later iterations reuse its one solve, so this can exceed
    /// `solver.solves`.
    pub newton_iterations: usize,
    /// Total PTM phase transitions fired.
    pub ptm_transitions: usize,
    /// Linear-solver telemetry for the transient Newton loop (the initial
    /// DC operating point is not included).
    pub solver: SolverStats,
}

/// Engine statistics for a DC operating-point solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DcStats {
    /// Total Newton iterations across all escalation strategies.
    pub newton_iterations: usize,
    /// Linear-solver telemetry for the DC solve.
    pub solver: SolverStats,
}

/// Result of a transient analysis: sampled node voltages, branch currents,
/// PTM resistance traces and transition events.
///
/// Signals are looked up by name: node voltages by node name, branch
/// currents by the owning element name (voltage sources and inductors),
/// PTM traces by the PTM instance name.
#[derive(Debug, Clone)]
pub struct TranResult {
    pub(crate) times: Vec<f64>,
    pub(crate) node_index: HashMap<String, usize>,
    pub(crate) node_data: Vec<Vec<f64>>,
    pub(crate) branch_index: HashMap<String, usize>,
    pub(crate) branch_data: Vec<Vec<f64>>,
    pub(crate) ptm_index: HashMap<String, usize>,
    pub(crate) ptm_resistance: Vec<Vec<f64>>,
    pub(crate) ptm_events: Vec<Vec<TransitionEvent>>,
    pub(crate) stats: TranStats,
}

impl TranResult {
    /// The sampled time axis.
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Engine statistics.
    pub fn stats(&self) -> TranStats {
        self.stats
    }

    /// Names of all recorded node-voltage signals, in MNA unknown order
    /// (the circuit's node order, ground excluded).
    pub fn node_names(&self) -> impl Iterator<Item = &str> {
        in_index_order(&self.node_index)
    }

    /// Names of all recorded branch-current signals (voltage sources and
    /// inductors), in element order.
    pub fn branch_names(&self) -> impl Iterator<Item = &str> {
        in_index_order(&self.branch_index)
    }

    /// Names of all PTM instances with recorded resistance traces, in
    /// element order.
    pub fn ptm_names(&self) -> impl Iterator<Item = &str> {
        in_index_order(&self.ptm_index)
    }

    /// Node-voltage waveform by node name.
    ///
    /// # Errors
    ///
    /// [`SimError::UnknownSignal`] if the node does not exist.
    pub fn voltage(&self, node: &str) -> Result<Waveform> {
        Ok(
            Waveform::from_samples(self.times.clone(), self.node_samples(node)?.to_vec())
                .expect("engine produces a valid time axis"),
        )
    }

    /// Borrowed node-voltage samples (aligned with [`TranResult::times`])
    /// by node name — the allocation-free accessor grid-scale droop-map
    /// extraction uses, where cloning every tile's waveform would double
    /// the result's memory footprint.
    ///
    /// # Errors
    ///
    /// [`SimError::UnknownSignal`] if the node does not exist.
    pub fn node_samples(&self, node: &str) -> Result<&[f64]> {
        let &idx = self
            .node_index
            .get(node)
            .ok_or_else(|| SimError::UnknownSignal(format!("v({node})")))?;
        Ok(&self.node_data[idx])
    }

    /// Branch-current waveform of a voltage source or inductor, by element
    /// name. Positive current flows from the element's `p` terminal through
    /// the element (SPICE convention: a supply delivering current reads
    /// negative).
    ///
    /// # Errors
    ///
    /// [`SimError::UnknownSignal`] if no such branch exists.
    pub fn branch_current(&self, element: &str) -> Result<Waveform> {
        let &idx = self
            .branch_index
            .get(element)
            .ok_or_else(|| SimError::UnknownSignal(format!("i({element})")))?;
        Ok(
            Waveform::from_samples(self.times.clone(), self.branch_data[idx].clone())
                .expect("engine produces a valid time axis"),
        )
    }

    /// Current *drawn from* a supply: the negated branch current of the
    /// named voltage source. This is the paper's rail-current quantity
    /// (`I_MAX` is its peak).
    ///
    /// # Errors
    ///
    /// [`SimError::UnknownSignal`] if no such source exists.
    pub fn supply_current(&self, source: &str) -> Result<Waveform> {
        Ok(self.branch_current(source)?.map(|v| -v))
    }

    /// PTM resistance trace by instance name.
    ///
    /// # Errors
    ///
    /// [`SimError::UnknownSignal`] if no such PTM exists.
    pub fn ptm_resistance(&self, name: &str) -> Result<Waveform> {
        let &idx = self
            .ptm_index
            .get(name)
            .ok_or_else(|| SimError::UnknownSignal(format!("r({name})")))?;
        Ok(
            Waveform::from_samples(self.times.clone(), self.ptm_resistance[idx].clone())
                .expect("engine produces a valid time axis"),
        )
    }

    /// Scores a node voltage against a closed-form reference solution,
    /// returning error norms over the engine's own sample times (no
    /// interpolation error enters the score). This is the hook the
    /// `sfet-verify` convergence-order checker runs on.
    ///
    /// # Errors
    ///
    /// [`SimError::UnknownSignal`] if the node does not exist.
    ///
    /// # Example
    ///
    /// ```no_run
    /// # fn demo(result: &sfet_sim::TranResult) -> Result<(), sfet_sim::SimError> {
    /// // Score v(out) against an RC step response with tau = 1 ps.
    /// let norms = result.score_voltage("out", |t| 1.0 - (-t / 1e-12).exp())?;
    /// assert!(norms.linf < 1e-3);
    /// # Ok(())
    /// # }
    /// ```
    pub fn score_voltage(
        &self,
        node: &str,
        exact: impl Fn(f64) -> f64,
    ) -> Result<sfet_numeric::norms::ErrorNorms> {
        let &idx = self
            .node_index
            .get(node)
            .ok_or_else(|| SimError::UnknownSignal(format!("v({node})")))?;
        Ok(self.score_samples(&self.node_data[idx], exact))
    }

    /// Scores a branch current (voltage source or inductor) against a
    /// closed-form reference solution. See [`TranResult::score_voltage`].
    ///
    /// # Errors
    ///
    /// [`SimError::UnknownSignal`] if no such branch exists.
    pub fn score_branch_current(
        &self,
        element: &str,
        exact: impl Fn(f64) -> f64,
    ) -> Result<sfet_numeric::norms::ErrorNorms> {
        let &idx = self
            .branch_index
            .get(element)
            .ok_or_else(|| SimError::UnknownSignal(format!("i({element})")))?;
        Ok(self.score_samples(&self.branch_data[idx], exact))
    }

    fn score_samples(
        &self,
        data: &[f64],
        exact: impl Fn(f64) -> f64,
    ) -> sfet_numeric::norms::ErrorNorms {
        let errors: Vec<f64> = self
            .times
            .iter()
            .zip(data)
            .map(|(&t, &v)| v - exact(t))
            .collect();
        sfet_numeric::norms::error_norms(&self.times, &errors)
            .expect("engine produces a valid time axis")
    }

    /// Phase-transition events of a PTM instance, in time order.
    ///
    /// # Errors
    ///
    /// [`SimError::UnknownSignal`] if no such PTM exists.
    pub fn ptm_events(&self, name: &str) -> Result<&[TransitionEvent]> {
        let &idx = self
            .ptm_index
            .get(name)
            .ok_or_else(|| SimError::UnknownSignal(format!("events({name})")))?;
        Ok(&self.ptm_events[idx])
    }
}

/// The names of a signal index, ordered by their column, not by the
/// `HashMap`'s per-instance iteration order.
fn in_index_order(index: &HashMap<String, usize>) -> impl Iterator<Item = &str> {
    let mut names = vec![""; index.len()];
    for (name, &i) in index {
        names[i] = name;
    }
    names.into_iter()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_result() -> TranResult {
        let mut node_index = HashMap::new();
        node_index.insert("out".to_string(), 0);
        let mut branch_index = HashMap::new();
        branch_index.insert("VDD".to_string(), 0);
        TranResult {
            times: vec![0.0, 1.0, 2.0],
            node_index,
            node_data: vec![vec![0.0, 0.5, 1.0]],
            branch_index,
            branch_data: vec![vec![0.0, -1e-6, 0.0]],
            ptm_index: HashMap::new(),
            ptm_resistance: vec![],
            ptm_events: vec![],
            stats: TranStats::default(),
        }
    }

    #[test]
    fn voltage_lookup() {
        let r = sample_result();
        let v = r.voltage("out").unwrap();
        assert_eq!(v.last_value(), 1.0);
        assert!(matches!(r.voltage("nope"), Err(SimError::UnknownSignal(_))));
    }

    #[test]
    fn supply_current_negates() {
        let r = sample_result();
        let i = r.supply_current("VDD").unwrap();
        assert_eq!(i.value_at(1.0), 1e-6);
    }

    #[test]
    fn unknown_ptm_errors() {
        let r = sample_result();
        assert!(r.ptm_resistance("P1").is_err());
        assert!(r.ptm_events("P1").is_err());
    }
}
