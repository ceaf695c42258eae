//! Power-delivery-network scenarios for the Soft-FET case studies.
//!
//! The paper's Section V applies Soft-FETs to two droop-sensitive
//! workloads, both of which need a PDN substrate:
//!
//! * [`power_gate`] — a sleeping power domain woken through a large PMOS
//!   header on a rail shared with an active neighbour (Fig. 10). The PDN
//!   parameters follow the lumped package model regime of Zhang et al.
//!   (ISLPED 2013), reference \[19\] of the paper.
//! * [`io_buffer`] — an I/O driver discharging a 1 pF pad behind bond-wire
//!   inductance, producing simultaneous-switching noise on both rails
//!   (Fig. 11), plus the guard-band energy model ([`ssn`]).
//! * [`grid`] — a distributed `nx × ny` on-die rail mesh with per-tile
//!   decap and staggered switching sites, reduced to a full-chip per-tile
//!   droop map ([`DroopMap`]); the chip-scale workload the iterative
//!   (GMRES) solver backend exists for.
//!
//! Both scenarios come in baseline and Soft-FET flavours selected by an
//! optional [`sfet_devices::ptm::PtmParams`].

pub mod grid;
pub mod io_buffer;
pub mod power_gate;
pub mod ssn;

mod error;
mod model;

pub use error::PdnError;
pub use grid::{DroopMap, PdnGrid};
pub use model::PdnParams;

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, PdnError>;

/// Runs `task` over `items` through the deterministic engine in
/// [`sfet_numeric::exec`], converting a task failure into
/// [`PdnError::Sweep`] with the offending parameters rendered by
/// `describe`.
pub(crate) fn run_sweep<T, U, F, D>(
    cfg: &sfet_numeric::exec::ExecConfig,
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
    let task = sfet_numeric::exec::Task::Each(&|i, _, item| task(i, item));
    sfet_numeric::exec::par_map(cfg, items, task)
        .map(|(values, _)| values)
        .map_err(|e| PdnError::Sweep {
            index: e.index,
            context: describe(&items[e.index]),
            source: Box::new(e.source),
        })
}
