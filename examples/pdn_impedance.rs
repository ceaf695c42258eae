//! PDN input-impedance profile |Z(jω)| via AC small-signal analysis.
//!
//! The droop the Soft-FET fights is `Z(jω)` convolved with the load's
//! current spectrum: the package anti-resonance peak is the band where
//! `di/dt` excitation hurts most, and spreading the wake-up current in
//! time (the Soft-FET power gate) moves its energy below that band.
//!
//! ```text
//! cargo run --release --example pdn_impedance
//! ```

use sfet_numeric::exec::ExecConfig;
use sfet_pdn::PdnParams;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let pdn = PdnParams::default();
    let f0 = pdn.resonance_frequency();
    println!(
        "PDN: R_pkg = {:.0} mOhm, L_pkg = {:.0} pH, C_decap = {:.0} nF",
        pdn.r_pkg * 1e3,
        pdn.l_pkg * 1e12,
        pdn.c_decap * 1e9
    );
    println!("package anti-resonance: {:.1} MHz\n", f0 / 1e6);

    let freqs: Vec<f64> = (0..=60)
        .map(|k| 1e5 * 10f64.powf(k as f64 / 15.0)) // 100 kHz .. 1 GHz
        .collect();
    let profile = pdn.impedance_profile_with(&ExecConfig::from_env(), &freqs)?;

    let z_max = profile.iter().map(|&(_, z)| z).fold(0.0f64, f64::max);
    const COLS: usize = 50;
    println!("|Z(f)| (log f, linear Z; # marks the profile)");
    for (f, z) in &profile {
        let bar = (z / z_max * COLS as f64).round() as usize;
        println!(
            "{:>9.3} MHz |{}{} {:6.1} mOhm",
            f / 1e6,
            "#".repeat(bar),
            " ".repeat(COLS - bar),
            z * 1e3
        );
    }
    let (f_peak, z_peak) = profile
        .iter()
        .copied()
        .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
        .expect("non-empty profile");
    println!(
        "\npeak |Z| = {:.1} mOhm at {:.1} MHz — a wake-up current spread over \
         >{:.0} ns keeps its spectrum below the peak.",
        z_peak * 1e3,
        f_peak / 1e6,
        1.0 / f_peak * 1e9
    );
    Ok(())
}
