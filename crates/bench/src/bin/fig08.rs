//! Fig. 8 — effect of the intrinsic PTM switching time T_PTM on I_MAX,
//! di/dt, delay and the number of phase transitions.

use sfet_bench::{banner, save_rows};
use sfet_devices::ptm::PtmParams;
use sfet_numeric::exec::ExecConfig;
use softfet::design_space::tptm_sweep_with;
use softfet::report::{fmt_si, Table};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    banner(
        "Fig. 8",
        "Effect of PTM switching time (T_PTM) on I_MAX and di/dt",
    );
    let base = PtmParams::vo2_default();
    let t_ptms: Vec<f64> = [1.0, 2.0, 4.0, 6.0, 8.0, 10.0, 14.0, 20.0, 28.0, 40.0]
        .iter()
        .map(|ps| ps * 1e-12)
        .collect();

    let points = tptm_sweep_with(&ExecConfig::from_env(), 1.0, base, &t_ptms)?;

    let mut table = Table::new(&["T_PTM", "transitions", "I_MAX", "max di/dt", "delay"]);
    let mut rows = Vec::new();
    for p in &points {
        table.add_row(vec![
            fmt_si(p.t_ptm, "s"),
            p.transitions.to_string(),
            fmt_si(p.i_max, "A"),
            fmt_si(p.di_dt, "A/s"),
            fmt_si(p.delay, "s"),
        ]);
        rows.push(format!(
            "{:e},{},{:e},{:e},{:e}",
            p.t_ptm, p.transitions, p.i_max, p.di_dt, p.delay
        ));
    }
    println!("{table}");

    let min_imax = points
        .iter()
        .min_by(|a, b| a.i_max.total_cmp(&b.i_max))
        .expect("non-empty sweep");
    println!(
        "I_MAX minimum at T_PTM = {} — the paper's 'properly optimized' zone",
        fmt_si(min_imax.t_ptm, "s")
    );
    println!(
        "paper expectation: many transitions at small T_PTM, fewer as T_PTM \
         grows; I_MAX minimised at moderate T_PTM; di/dt trending down with \
         increasing T_PTM."
    );
    save_rows(
        "fig08_tptm.csv",
        "t_ptm,transitions,i_max,di_dt,delay",
        &rows,
    );
    Ok(())
}
