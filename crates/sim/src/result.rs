//! Analysis results, and the signal index they look signals up in.

use std::collections::HashMap;

use crate::devices::CompiledCircuit;
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
    pub(crate) signals: SignalIndex,
    pub(crate) node_data: Vec<Vec<f64>>,
    pub(crate) branch_data: Vec<Vec<f64>>,
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
        self.signals.names(Signal::Voltage)
    }

    /// Names of all recorded branch-current signals (voltage sources and
    /// inductors), in element order.
    pub fn branch_names(&self) -> impl Iterator<Item = &str> {
        self.signals.names(Signal::Current)
    }

    /// Names of all PTM instances with recorded resistance traces, in
    /// element order.
    pub fn ptm_names(&self) -> impl Iterator<Item = &str> {
        self.signals.names(Signal::Resistance)
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
    /// by node name, without the copy [`TranResult::voltage`] makes. A
    /// caller that only reduces a few nodes' waveforms, as a droop map
    /// does, runs [`transient_probe`](crate::transient_probe) instead and
    /// records nothing.
    ///
    /// # Errors
    ///
    /// [`SimError::UnknownSignal`] if the node does not exist.
    pub fn node_samples(&self, node: &str) -> Result<&[f64]> {
        Ok(&self.node_data[self.signals.column(Signal::Voltage, node)?])
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
        let idx = self.signals.column(Signal::Current, element)?;
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
        let idx = self.signals.column(Signal::Resistance, name)?;
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
        Ok(self.score_samples(self.node_samples(node)?, exact))
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
        let idx = self.signals.column(Signal::Current, element)?;
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
        Ok(&self.ptm_events[self.signals.column(Signal::Events, name)?])
    }
}

/// A family of signals, and how a name missing from it is spelled.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Signal {
    /// A node voltage: `v(name)`.
    Voltage,
    /// A branch current of a voltage source, inductor or controlled
    /// voltage source: `i(name)`.
    Current,
    /// A PTM's resistance trace: `r(name)`.
    Resistance,
    /// A PTM's transition events: `events(name)`.
    Events,
}

impl Signal {
    /// The [`SimError::UnknownSignal`] for `name`, missing from this family.
    pub(crate) fn unknown(self, name: &str) -> SimError {
        let spelling = match self {
            Signal::Voltage => "v",
            Signal::Current => "i",
            Signal::Resistance => "r",
            Signal::Events => "events",
        };
        SimError::UnknownSignal(format!("{spelling}({name})"))
    }
}

/// The one name-to-column index of every analysis result: node voltages,
/// branch currents and PTM instances, each numbered in circuit order,
/// which is the column order of the result's data.
#[derive(Debug, Clone)]
pub(crate) struct SignalIndex {
    nodes: HashMap<String, usize>,
    branches: HashMap<String, usize>,
    ptms: HashMap<String, usize>,
}

impl SignalIndex {
    pub(crate) fn new(compiled: &CompiledCircuit) -> Self {
        fn index<'a>(names: impl Iterator<Item = &'a String>) -> HashMap<String, usize> {
            names.enumerate().map(|(i, n)| (n.clone(), i)).collect()
        }
        SignalIndex {
            nodes: index(compiled.node_names.iter()),
            branches: index(compiled.branch_names.iter()),
            ptms: index(compiled.ptm_devices.iter().map(|(_, name)| name)),
        }
    }

    fn family(&self, signal: Signal) -> &HashMap<String, usize> {
        match signal {
            Signal::Voltage => &self.nodes,
            Signal::Current => &self.branches,
            Signal::Resistance | Signal::Events => &self.ptms,
        }
    }

    /// The column of signal `name`.
    ///
    /// # Errors
    ///
    /// [`SimError::UnknownSignal`] spelled `v(name)`, `i(name)`, `r(name)`
    /// or `events(name)`.
    pub(crate) fn column(&self, signal: Signal, name: &str) -> Result<usize> {
        self.family(signal)
            .get(name)
            .copied()
            .ok_or_else(|| signal.unknown(name))
    }

    /// The names of a family in column order, not in the `HashMap`'s
    /// per-instance iteration order.
    pub(crate) fn names(&self, signal: Signal) -> impl Iterator<Item = &str> {
        let family = self.family(signal);
        let mut names = vec![""; family.len()];
        for (name, &i) in family {
            names[i] = name;
        }
        names.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_result() -> TranResult {
        let mut ckt = sfet_circuit::Circuit::new();
        let out = ckt.node("out");
        let g = sfet_circuit::Circuit::ground();
        ckt.add_voltage_source("VDD", out, g, sfet_circuit::SourceWaveform::Dc(1.0))
            .unwrap();
        TranResult {
            times: vec![0.0, 1.0, 2.0],
            signals: SignalIndex::new(&CompiledCircuit::compile(&ckt)),
            node_data: vec![vec![0.0, 0.5, 1.0]],
            branch_data: vec![vec![0.0, -1e-6, 0.0]],
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

    /// Every lookup of the one index spells its signal as it always has.
    #[test]
    fn unknown_signals_keep_their_spellings() {
        let r = sample_result();
        let spelled = |e: SimError| match e {
            SimError::UnknownSignal(name) => name,
            other => panic!("expected UnknownSignal, got {other:?}"),
        };
        assert_eq!(spelled(r.node_samples("x").unwrap_err()), "v(x)");
        assert_eq!(spelled(r.score_voltage("x", |_| 0.0).unwrap_err()), "v(x)");
        assert_eq!(spelled(r.branch_current("x").unwrap_err()), "i(x)");
        let score = r.score_branch_current("x", |_| 0.0);
        assert_eq!(spelled(score.unwrap_err()), "i(x)");
        assert_eq!(spelled(r.ptm_resistance("x").unwrap_err()), "r(x)");
        assert_eq!(spelled(r.ptm_events("x").unwrap_err()), "events(x)");
        assert_eq!(r.node_names().collect::<Vec<_>>(), ["out"]);
        assert_eq!(r.branch_names().collect::<Vec<_>>(), ["VDD"]);
    }
}
