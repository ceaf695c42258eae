//! Fig. 10 — Soft-FET power gate: supply-droop mitigation on a shared
//! rail during domain wake-up.
//!
//! Pass `--trace <path>` to record the solver's telemetry event stream
//! for the baseline + Soft-FET wake-ups to a JSONL file (and a summary
//! table to stderr). The ramp sweep at the end runs untraced — its tasks
//! execute in parallel, and the headline comparison is the interesting
//! trace.

use sfet_bench::{banner, save_csv, save_rows, telemetry_from_args};
use sfet_devices::ptm::PtmParams;
use sfet_numeric::exec::ExecConfig;
use sfet_pdn::power_gate::{wake_ramp_sweep_with, PowerGateScenario};
use sfet_sim::SimOptions;
use softfet::power_gate::compare_power_gate_with_options;
use softfet::report::{fmt_si, Table};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    banner(
        "Fig. 10",
        "Soft-FET power gate: shared-rail droop during wake-up",
    );
    let scenario = PowerGateScenario::default();
    println!(
        "PDN (regime of [19]): R_pkg={} L_pkg={} C_decap={}; header W={}, domain C={}, neighbour load {}",
        fmt_si(scenario.pdn.r_pkg, "Ohm"),
        fmt_si(scenario.pdn.l_pkg, "H"),
        fmt_si(scenario.pdn.c_decap, "F"),
        fmt_si(scenario.pg_width, "m"),
        fmt_si(scenario.c_domain, "F"),
        fmt_si(scenario.i_active, "A"),
    );

    let opts =
        SimOptions::for_duration(scenario.t_stop, 4000).with_telemetry(telemetry_from_args());
    let cmp = compare_power_gate_with_options(&scenario, PtmParams::vo2_default(), &opts)?;

    let mut table = Table::new(&["metric", "baseline PG", "soft-FET PG", "improvement"]);
    table.add_row(vec![
        "rail droop".into(),
        fmt_si(cmp.baseline.droop.droop, "V"),
        fmt_si(cmp.soft.droop.droop, "V"),
        format!("{:.1} mV lower", cmp.droop_improvement_mv()),
    ]);
    table.add_row(vec![
        "peak inrush".into(),
        fmt_si(cmp.baseline.peak_inrush, "A"),
        fmt_si(cmp.soft.peak_inrush, "A"),
        format!("{:.2}x lower", cmp.current_reduction_factor()),
    ]);
    table.add_row(vec![
        "max di/dt".into(),
        fmt_si(cmp.baseline.di_dt, "A/s"),
        fmt_si(cmp.soft.di_dt, "A/s"),
        format!("{:.2}x lower", cmp.baseline.di_dt / cmp.soft.di_dt),
    ]);
    table.add_row(vec![
        "wake time (to 90%)".into(),
        cmp.baseline
            .wake_time
            .map(|t| fmt_si(t, "s"))
            .unwrap_or_else(|| "-".into()),
        cmp.soft
            .wake_time
            .map(|t| fmt_si(t, "s"))
            .unwrap_or_else(|| "-".into()),
        cmp.wake_time_penalty()
            .map(|t| format!("+{}", fmt_si(t, "s")))
            .unwrap_or_else(|| "-".into()),
    ]);
    println!("{table}");
    println!(
        "paper expectation: ~2x lower wake-up current and ~20 mV lower \
         supply droop with the Soft-FET power gate."
    );

    // Wake-ramp sweep: how the droop advantage varies with the sleep
    // controller's ramp rate (routed through the parallel sweep engine).
    let mut sweep_table = Table::new(&["wake ramp", "droop base", "droop soft", "improvement"]);
    let mut sweep_rows = Vec::new();
    let ramp_points = wake_ramp_sweep_with(
        &ExecConfig::from_env(),
        &scenario,
        PtmParams::vo2_default(),
        &[1e-9, 2e-9, 4e-9],
    )?;
    for p in &ramp_points {
        sweep_table.add_row(vec![
            fmt_si(p.wake_ramp, "s"),
            fmt_si(p.droop_base, "V"),
            fmt_si(p.droop_soft, "V"),
            format!("{:.1} mV", (p.droop_base - p.droop_soft) * 1e3),
        ]);
        sweep_rows.push(format!(
            "{:e},{:e},{:e}",
            p.wake_ramp, p.droop_base, p.droop_soft
        ));
    }
    println!("droop vs wake-ramp rate:");
    println!("{sweep_table}");
    save_rows(
        "fig10_ramp_sweep.csv",
        "wake_ramp,droop_base,droop_soft",
        &sweep_rows,
    );

    save_csv(
        "fig10_baseline.csv",
        &[
            ("rail", &cmp.baseline.rail),
            ("vvdd", &cmp.baseline.v_virtual),
            ("gate", &cmp.baseline.v_gate),
            ("i_rail", &cmp.baseline.i_rail),
        ],
    );
    save_csv(
        "fig10_soft.csv",
        &[
            ("rail", &cmp.soft.rail),
            ("vvdd", &cmp.soft.v_virtual),
            ("gate", &cmp.soft.v_gate),
            ("i_rail", &cmp.soft.i_rail),
        ],
    );
    save_rows(
        "fig10_summary.csv",
        "metric,baseline,soft",
        &[
            format!(
                "droop_v,{:e},{:e}",
                cmp.baseline.droop.droop, cmp.soft.droop.droop
            ),
            format!(
                "peak_inrush_a,{:e},{:e}",
                cmp.baseline.peak_inrush, cmp.soft.peak_inrush
            ),
            format!("di_dt,{:e},{:e}", cmp.baseline.di_dt, cmp.soft.di_dt),
        ],
    );
    Ok(())
}
