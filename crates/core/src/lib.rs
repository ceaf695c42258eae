//! # Soft-FET: PTM-assisted soft-switching transistors
//!
//! Reproduction of *"Soft-FET: Phase transition material assisted Soft
//! switching Field Effect Transistor for supply voltage droop mitigation"*
//! (Teja & Kulkarni, DAC 2018).
//!
//! A Soft-FET places a phase-transition-material (PTM) device in series
//! with a MOSFET gate. The PTM's abrupt, hysteretic insulator↔metal
//! resistance switch turns the gate into a staircase-charged capacitor, so
//! the transistor turns on *softly*: lower peak switching current
//! (`I_MAX`), lower `di/dt`, and therefore smaller supply-voltage droop —
//! at a smaller delay cost than high-V_T cells, gate series resistance, or
//! transistor stacking.
//!
//! The crate exposes the paper's entire experimental apparatus:
//!
//! * [`inverter`] — Soft-FET inverter and the baseline CMOS variants
//!   (Figs. 4, 5, 7);
//! * [`metrics`] — the measurement pipeline (I_MAX, di/dt, delay, charge);
//! * [`iso_imax`] — iso-peak-current calibration of the variants (Fig. 5);
//! * [`design_space`] — PTM parameter sweeps (V_IMT × V_MIT grids, T_PTM,
//!   input slew — Figs. 6, 8, 9);
//! * [`recommend`] — the §IV-E slew/T_PTM design-recommendation analysis;
//! * [`power_gate`] / [`io_buffer`] — the voltage-droop application case
//!   studies (Figs. 10, 11) built on `sfet-pdn`;
//! * [`report`] — plain-text table rendering for the experiment binaries.
//!
//! # Quickstart
//!
//! Compare a Soft-FET inverter against the baseline at V_CC = 1 V:
//!
//! ```
//! use softfet::inverter::{InverterSpec, Topology};
//! use softfet::metrics::measure_inverter;
//! use sfet_devices::ptm::PtmParams;
//!
//! # fn main() -> Result<(), softfet::SoftFetError> {
//! let base = measure_inverter(&InverterSpec::minimum(1.0, Topology::Baseline))?;
//! let soft = measure_inverter(&InverterSpec::minimum(
//!     1.0,
//!     Topology::SoftFet(PtmParams::vo2_default()),
//! ))?;
//! assert!(soft.i_max < base.i_max); // the headline claim
//! # Ok(())
//! # }
//! ```

pub mod cells;
pub mod design_space;
pub mod inverter;
pub mod io_buffer;
pub mod iso_imax;
pub mod metrics;
pub mod power_gate;
pub mod recommend;
pub mod report;
pub mod variation;

mod error;

pub use error::SoftFetError;

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, SoftFetError>;
