//! Supplementary: the Soft-FET thermal design envelope.
//!
//! VO₂'s insulator–metal transition is thermal at heart (T_C ≈ 68 °C);
//! the electrical thresholds the Soft-FET relies on collapse as the
//! ambient approaches it. This sweep quantifies how much of the paper's
//! 1 V peak-current benefit survives across the industrial temperature
//! range — the flip side of the paper's closing remark that "further
//! studies are required for obtaining high quality phase transitions".

use sfet_bench::{banner, save_rows};
use sfet_devices::ptm::PtmParams;
use sfet_numeric::exec::ExecConfig;
use softfet::design_space::temperature_sweep_with;
use softfet::report::{fmt_pct, fmt_si, Table};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    banner(
        "Thermal",
        "Soft-FET benefit vs ambient temperature (VO2 T_C = 68 C)",
    );
    let base = PtmParams::vo2_default();
    let points = [0.0, 25.0, 40.0, 50.0, 60.0, 65.0];
    let sweep = temperature_sweep_with(&ExecConfig::from_env(), 1.0, base, &points)?;

    let mut table = Table::new(&[
        "ambient",
        "V_IMT (scaled)",
        "I_MAX soft",
        "reduction vs baseline",
        "transitions",
    ]);
    let mut rows = Vec::new();
    for p in &sweep {
        let ptm = base.at_temperature(p.celsius);
        table.add_row(vec![
            format!("{:.0} C", p.celsius),
            fmt_si(ptm.v_imt, "V"),
            fmt_si(p.i_max_soft, "A"),
            fmt_pct(p.reduction_pct),
            p.transitions.to_string(),
        ]);
        rows.push(format!(
            "{},{:e},{:e},{}",
            p.celsius, ptm.v_imt, p.i_max_soft, p.reduction_pct
        ));
    }
    println!("{table}");
    println!(
        "takeaway: the benefit holds through typical operating temperatures \
         and erodes as V_IMT collapses toward T_C — a Soft-FET product needs \
         either thermal headroom or a higher-T_C phase-transition material."
    );
    save_rows(
        "thermal_envelope.csv",
        "celsius,v_imt,i_max_soft,reduction_pct",
        &rows,
    );
    Ok(())
}
