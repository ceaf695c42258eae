//! PTM design-space exploration: a text heat-map of I_MAX over the
//! (V_IMT, V_MIT) plane (the paper's Fig. 6), rendered in the terminal.
//!
//! ```text
//! cargo run --release --example design_space_map
//! ```

use sfet_devices::ptm::PtmParams;
use sfet_numeric::exec::ExecConfig;
use softfet::design_space::vimt_vmit_grid_with;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let v_imts: Vec<f64> = (4..=12).map(|k| k as f64 * 0.05).collect();
    let v_mits: Vec<f64> = vec![0.05, 0.10, 0.15, 0.20];

    println!(
        "sweeping {}x{} PTM threshold grid ...",
        v_imts.len(),
        v_mits.len()
    );
    let (points, _) = vimt_vmit_grid_with(
        &ExecConfig::from_env(),
        1.0,
        PtmParams::vo2_default(),
        &v_imts,
        &v_mits,
    )?;

    let max_imax = points
        .iter()
        .map(|p| p.i_max)
        .fold(f64::NEG_INFINITY, f64::max);
    let min_imax = points.iter().map(|p| p.i_max).fold(f64::INFINITY, f64::min);

    // Five-level shading from best (lowest I_MAX) to worst.
    let shades = [" .", " o", " O", " #", " @"];
    println!("\nI_MAX map (., best soft switching ... @, worst) at V_CC = 1 V:");
    print!("{:>8}", "V_IMT");
    for v_mit in &v_mits {
        print!("  V_MIT={v_mit:.2}");
    }
    println!();
    for &v_imt in &v_imts {
        print!("{:>7.2}V", v_imt);
        for &v_mit in &v_mits {
            match points
                .iter()
                .find(|p| (p.v_imt - v_imt).abs() < 1e-9 && (p.v_mit - v_mit).abs() < 1e-9)
            {
                Some(p) => {
                    let frac = (p.i_max - min_imax) / (max_imax - min_imax).max(1e-30);
                    let idx =
                        ((frac * (shades.len() - 1) as f64).round() as usize).min(shades.len() - 1);
                    print!("{:>11}", shades[idx]);
                }
                None => print!("{:>11}", "-"),
            }
        }
        println!();
    }

    let best = points
        .iter()
        .min_by(|a, b| a.i_max.partial_cmp(&b.i_max).expect("finite"))
        .expect("non-empty grid");
    println!(
        "\noptimum: V_IMT = {:.2} V, V_MIT = {:.2} V -> I_MAX = {:.1} uA \
         ({} transition(s)); the paper's ideal zone sits near V_IMT = 0.4 V.",
        best.v_imt,
        best.v_mit,
        best.i_max * 1e6,
        best.transitions
    );
    Ok(())
}
