//! Fig. 11 — Soft-FET I/O buffer: simultaneous-switching-noise reduction
//! and the resulting energy-efficiency gain.

use sfet_bench::{banner, save_csv, save_rows};
use sfet_devices::ptm::PtmParams;
use sfet_numeric::exec::ExecConfig;
use sfet_pdn::io_buffer::IoBufferScenario;
use softfet::io_buffer::{compare_io_buffer, ssn_vs_slew_with};
use softfet::report::{fmt_pct, fmt_si, Table};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    banner("Fig. 11", "Soft-FET I/O buffer: SSN and energy efficiency");
    let scenario = IoBufferScenario::default();
    println!(
        "pad load {} behind L_vdd={} / L_vss={}; driver {}x{}",
        fmt_si(scenario.c_pad, "F"),
        fmt_si(scenario.l_vdd, "H"),
        fmt_si(scenario.l_vss, "H"),
        fmt_si(scenario.wp, "m"),
        fmt_si(scenario.wn, "m"),
    );

    let ptm = PtmParams::vo2_default();
    let cmp = compare_io_buffer(&scenario, ptm)?;

    let mut table = Table::new(&["metric", "baseline", "soft-fet", "change"]);
    table.add_row(vec![
        "V_CC bounce".into(),
        fmt_si(cmp.baseline.vdd_bounce, "V"),
        fmt_si(cmp.soft.vdd_bounce, "V"),
        fmt_pct(-100.0 * (1.0 - cmp.soft.vdd_bounce / cmp.baseline.vdd_bounce)),
    ]);
    table.add_row(vec![
        "V_SS bounce".into(),
        fmt_si(cmp.baseline.vss_bounce, "V"),
        fmt_si(cmp.soft.vss_bounce, "V"),
        fmt_pct(-100.0 * (1.0 - cmp.soft.vss_bounce / cmp.baseline.vss_bounce)),
    ]);
    table.add_row(vec![
        "SSN (worst)".into(),
        fmt_si(cmp.baseline.ssn, "V"),
        fmt_si(cmp.soft.ssn, "V"),
        format!("-{}", fmt_pct(cmp.ssn_reduction_pct())),
    ]);
    table.add_row(vec![
        "peak current".into(),
        fmt_si(cmp.baseline.i_peak, "A"),
        fmt_si(cmp.soft.i_peak, "A"),
        fmt_pct(-100.0 * (1.0 - cmp.soft.i_peak / cmp.baseline.i_peak)),
    ]);
    table.add_row(vec![
        "pad delay".into(),
        fmt_si(cmp.baseline.delay, "s"),
        fmt_si(cmp.soft.delay, "s"),
        format!("+{}", fmt_si(cmp.delay_penalty(), "s")),
    ]);
    println!("{table}");
    println!(
        "SSN reduction: {} (paper: ~46%)",
        fmt_pct(cmp.ssn_reduction_pct())
    );
    println!(
        "energy-efficiency gain from released guard band at V_CC = 1 V: {} (paper: 8.8%)",
        fmt_pct(cmp.energy_gain_pct(1.0))
    );

    // SSN improvement vs input transition time (paper: improvement grows
    // with input transition time).
    let rises: Vec<f64> = [50.0, 100.0, 150.0, 200.0, 300.0]
        .iter()
        .map(|ps| ps * 1e-12)
        .collect();
    let sweep = ssn_vs_slew_with(&ExecConfig::from_env(), &scenario, ptm, &rises)?;
    let mut stable = Table::new(&["input rise", "SSN base", "SSN soft", "improvement"]);
    let mut rows = Vec::new();
    for p in &sweep {
        stable.add_row(vec![
            fmt_si(p.input_rise, "s"),
            fmt_si(p.ssn_base, "V"),
            fmt_si(p.ssn_soft, "V"),
            fmt_pct(p.improvement_pct),
        ]);
        rows.push(format!(
            "{:e},{:e},{:e},{}",
            p.input_rise, p.ssn_base, p.ssn_soft, p.improvement_pct
        ));
    }
    println!("{stable}");
    println!("paper expectation: higher SSN improvement with increasing input transition time.");

    save_csv(
        "fig11_rails_soft.csv",
        &[
            ("vddi", &cmp.soft.vddi),
            ("vssi", &cmp.soft.vssi),
            ("pad", &cmp.soft.v_pad),
            ("i_vdd", &cmp.soft.i_vdd),
        ],
    );
    save_csv(
        "fig11_rails_baseline.csv",
        &[
            ("vddi", &cmp.baseline.vddi),
            ("vssi", &cmp.baseline.vssi),
            ("pad", &cmp.baseline.v_pad),
            ("i_vdd", &cmp.baseline.i_vdd),
        ],
    );
    save_rows(
        "fig11_ssn_vs_slew.csv",
        "input_rise,ssn_base,ssn_soft,improvement_pct",
        &rows,
    );
    Ok(())
}
