//! Fig. 9 — effect of the input slew rate on the Soft-FET benefit, plus
//! the §IV-E slew/T_PTM design-recommendation sweep.

use sfet_bench::{banner, save_rows};
use sfet_devices::ptm::PtmParams;
use sfet_numeric::exec::ExecConfig;
use softfet::design_space::slew_sweep_with;
use softfet::recommend::{best_ratio, in_recommended_band, ratio_sweep, RECOMMENDED_RATIO};
use softfet::report::{fmt_pct, fmt_si, Table};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    banner("Fig. 9", "Effect of input slew rate on soft switching");
    let ptm = PtmParams::vo2_default();

    let t_rises: Vec<f64> = [10.0, 20.0, 30.0, 60.0, 100.0, 200.0, 400.0, 800.0]
        .iter()
        .map(|ps| ps * 1e-12)
        .collect();
    let points = slew_sweep_with(&ExecConfig::from_env(), 1.0, ptm, &t_rises)?;

    let mut table = Table::new(&[
        "t_rise",
        "I_MAX base",
        "I_MAX soft",
        "reduction",
        "transitions",
        "delay soft",
    ]);
    let mut rows = Vec::new();
    for p in &points {
        table.add_row(vec![
            fmt_si(p.t_rise, "s"),
            fmt_si(p.i_max_base, "A"),
            fmt_si(p.i_max_soft, "A"),
            fmt_pct(p.reduction_pct),
            p.transitions.to_string(),
            fmt_si(p.delay_soft, "s"),
        ]);
        rows.push(format!(
            "{:e},{:e},{:e},{},{},{:e}",
            p.t_rise, p.i_max_base, p.i_max_soft, p.reduction_pct, p.transitions, p.delay_soft
        ));
    }
    println!("{table}");
    println!(
        "paper expectation: the I_MAX reduction shrinks as the input slows — \
         the soft-switching behaviour vanishes with decreasing slew rate."
    );
    save_rows(
        "fig09_slew.csv",
        "t_rise,i_max_base,i_max_soft,reduction_pct,transitions,delay_soft",
        &rows,
    );

    // §IV-E: slew-time / T_PTM ratio recommendation.
    println!();
    banner("§IV-E", "Design recommendation: input-slew / T_PTM ratio");
    let ratios = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 6.0, 10.0];
    let rpoints = ratio_sweep(1.0, ptm, 30e-12, &ratios)?;
    let mut rtable = Table::new(&["slew/T_PTM", "T_PTM", "I_MAX reduction", "transitions"]);
    let mut rrows = Vec::new();
    for p in &rpoints {
        rtable.add_row(vec![
            format!("{:.1}", p.ratio),
            fmt_si(p.t_ptm, "s"),
            fmt_pct(p.reduction_pct),
            p.transitions.to_string(),
        ]);
        rrows.push(format!(
            "{},{:e},{},{}",
            p.ratio, p.t_ptm, p.reduction_pct, p.transitions
        ));
    }
    println!("{rtable}");
    if let Some(best) = best_ratio(&rpoints) {
        println!(
            "best ratio observed: {best:.1} ({}) — paper recommends {:.1}-{:.1}",
            if in_recommended_band(best) {
                "inside the recommended band"
            } else {
                "outside the recommended band; note the paper calls the band a strong function of V_CC and V_IMT"
            },
            RECOMMENDED_RATIO.0,
            RECOMMENDED_RATIO.1,
        );
    }
    save_rows(
        "fig09_ratio.csv",
        "ratio,t_ptm,reduction_pct,transitions",
        &rrows,
    );
    Ok(())
}
