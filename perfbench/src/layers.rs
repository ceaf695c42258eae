//! Transient and solver figures shared by the workloads: exact counts from
//! `TranStats` and the solve / non-solve split of traced transients.

use std::collections::BTreeMap;

use sfet_sim::TranStats;

use crate::RunResult;

/// Adds one pool pass of transient statistics to the exact counts.
pub fn add_tran_counts(exact: &mut BTreeMap<String, f64>, stats: &TranStats) {
    let s = &stats.solver;
    for (k, v) in [
        ("sim.steps", stats.steps_accepted as u64),
        ("sim.steps_rejected", stats.steps_rejected as u64),
        ("sim.newton_iters", stats.newton_iterations as u64),
        ("sim.ptm_transitions", stats.ptm_transitions as u64),
        ("numeric.factorizations", s.full_factorizations),
        ("numeric.refactorizations", s.refactorizations),
        ("numeric.solves", s.solves),
        ("numeric.pivot_fallbacks", s.pivot_fallbacks),
        ("numeric.gmres_iters", s.gmres_iterations),
        ("numeric.gmres_fallbacks", s.gmres_fallbacks),
    ] {
        *exact.entry(k.to_owned()).or_default() += v as f64;
    }
    let nnz = exact.entry("numeric.factor_nnz".to_owned()).or_default();
    *nnz = nnz.max(s.factor_nnz as f64);
}

/// Per-job solver and stepper figures of one traced transient.
#[derive(Default)]
pub struct SolveSplit {
    pub solve_ms: Vec<f64>,
    pub share: Vec<f64>,
    pub nonsolve_ms: Vec<f64>,
    pub us_per_step: Vec<f64>,
}

impl SolveSplit {
    pub fn push(&mut self, transient_s: f64, stats: &TranStats) {
        let solve_s = stats.solver.solve_time_ns as f64 * 1e-9;
        self.solve_ms.push(solve_s * 1e3);
        self.share.push(solve_s / transient_s);
        self.nonsolve_ms.push((transient_s - solve_s) * 1e3);
        self.us_per_step
            .push(transient_s * 1e6 / stats.steps_accepted.max(1) as f64);
    }

    pub fn record(&self, run: &mut RunResult) {
        let med = |v: &[f64]| crate::stats::median(v).unwrap_or(0.0);
        run.set("numeric.solve_ms", med(&self.solve_ms));
        run.set("numeric.solve_share", med(&self.share));
        run.set("sim.nonsolve_ms", med(&self.nonsolve_ms));
        run.set("sim.us_per_step", med(&self.us_per_step));
    }
}
