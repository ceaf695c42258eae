//! MNA-based analog circuit simulation engine for the Soft-FET
//! reproduction.
//!
//! This crate turns a [`sfet_circuit::Circuit`] into time-domain waveforms:
//!
//! 1. [`dc_operating_point`] computes the DC operating point (Newton–Raphson with gmin
//!    stepping and a source-stepping fallback);
//! 2. [`transient`] integrates the circuit through time (trapezoidal /
//!    backward-Euler companion models, adaptive step control, and — the
//!    part that makes Soft-FET simulation work — PTM threshold-crossing
//!    *event detection*: steps are rejected and bisected so each phase
//!    transition begins within a tight tolerance of its true crossing
//!    time, then the resistance ramp is resolved with sub-`T_PTM` steps);
//! 3. [`transient_batch`] runs B independent transients through the same
//!    stepper — over one structure-of-arrays dense LU when every lane
//!    resolves to dense LU at one size, lane by lane otherwise — each lane
//!    bitwise identical to its [`transient`] run, for parameter-sweep
//!    throughput;
//! 4. [`transient_probe`] runs the same stepper but records nothing: it
//!    passes the named nodes' values at every accepted point to a closure,
//!    so a reduction such as a droop map's per-tile minimum folds as the
//!    run steps, in memory that does not grow with the run.
//!
//! Every analysis takes its linear solver from one option,
//! [`SimOptions::solver`]: unset, dense LU, sparse LU or GMRES is picked
//! by system size ([`SimOptions::effective_solver`]); set, it pins one.
//!
//! # Example
//!
//! An RC low-pass step response:
//!
//! ```
//! use sfet_circuit::{Circuit, SourceWaveform};
//! use sfet_sim::{transient, SimOptions};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut ckt = Circuit::new();
//! let (inp, out, gnd) = (ckt.node("in"), ckt.node("out"), Circuit::ground());
//! ckt.add_voltage_source("V1", inp, gnd, SourceWaveform::ramp(0.0, 1.0, 0.0, 1e-12))?;
//! ckt.add_resistor("R1", inp, out, 1e3)?;
//! ckt.add_capacitor("C1", out, gnd, 1e-15)?; // tau = 1 ps
//! let result = transient(&ckt, 10e-12, &SimOptions::default())?;
//! let v_out = result.voltage("out")?;
//! assert!(v_out.last_value() > 0.99);
//! # Ok(())
//! # }
//! ```
//!
//! # Observability
//!
//! Every analysis accepts a telemetry handle via
//! [`SimOptions::with_telemetry`]: spans bracket each analysis (and, at
//! finer levels, each timestep and Newton iteration), while counters and
//! histograms mirror the [`TranStats`] / [`DcStats`] / [`SolverStats`]
//! totals the analyses return. With the default (disabled) handle all
//! instrumentation points are no-op early returns. See `docs/TELEMETRY.md`
//! for the event schema.

#![warn(missing_docs)]

mod acsweep;
mod batch;
mod checkpoint;
mod dcop;
mod dcsweep;
mod devices;
mod error;
mod matrix;
mod options;
mod result;
mod trace;
mod transient;

pub use acsweep::{ac_sweep, AcSweepResult, Phasor};
pub use batch::{transient_batch, BatchSpec};
pub use checkpoint::{circuit_fingerprint, CheckpointPolicy, CHECKPOINT_VERSION};
pub use dcop::{dc_operating_point, dc_operating_point_with_stats};
pub use dcsweep::{dc_sweep, DcSweepResult};
pub use error::SimError;
pub use matrix::{LinearSolver, SolverStats};
pub use options::SimOptions;
pub use result::{DcStats, TranResult, TranStats};
pub use transient::{transient, transient_probe, transient_resumable};

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, SimError>;
