//! Resilience smoke — a fault-tolerant, resumable Monte-Carlo I_MAX sweep.
//!
//! Runs the standard PTM-variation Monte-Carlo population through the
//! manifest-journalled sweep path: every completed sample is recorded in
//! a sweep manifest, so killing the process (or injecting task faults via
//! `SFET_FAULT_PLAN=task@2x9999,task@4x9999`) and re-running the same
//! command finishes only the remainder and reproduces the uninterrupted
//! population bit-exactly. The manifest doubles as the CI artifact the
//! kill-and-resume smoke job uploads.
//!
//! Flags: `--manifest <path>` (default `<fig dir>/resilience_mc.manifest`),
//! `--samples <n>` (default 24), `--seed <u64>` (default 123). Exits with
//! status 1 when any sample is still `Failed` after retries, so CI can
//! assert both the degraded first pass and the clean resumed pass.

use sfet_bench::{banner, figure_dir, save_rows};
use sfet_devices::ptm::PtmParams;
use sfet_numeric::exec::ExecConfig;
use softfet::variation::{monte_carlo_imax_outcomes, summarize_outcomes, PtmVariation};

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter().position(|a| a == flag).map(|i| {
        args.get(i + 1).cloned().unwrap_or_else(|| {
            eprintln!("{flag} requires a value");
            std::process::exit(2);
        })
    })
}

fn main() {
    banner("Resilience", "Fault-tolerant resumable Monte-Carlo sweep");
    let args: Vec<String> = std::env::args().skip(1).collect();
    let manifest = flag_value(&args, "--manifest")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| figure_dir().join("resilience_mc.manifest"));
    let samples: usize = flag_value(&args, "--samples")
        .map(|s| s.parse().expect("--samples: expected an integer"))
        .unwrap_or(24);
    let seed: u64 = flag_value(&args, "--seed")
        .map(|s| s.parse().expect("--seed: expected a u64"))
        .unwrap_or(123);

    let cfg = ExecConfig::from_env();
    let base = PtmParams::vo2_default();
    let var = PtmVariation::default();
    println!(
        "sweep: n = {samples}, seed = {seed}, manifest = {}",
        manifest.display()
    );
    if std::env::var_os("SFET_FAULT_PLAN").is_some() {
        println!("  [fault] SFET_FAULT_PLAN armed — expect degraded results");
    }

    let outcomes =
        match monte_carlo_imax_outcomes(&cfg, 1.0, base, &var, samples, seed, Some(&manifest)) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("sweep failed: {e}");
                std::process::exit(2);
            }
        };

    let mut rows = Vec::with_capacity(samples);
    let mut failed = 0usize;
    for (i, o) in outcomes.iter().enumerate() {
        match o.value() {
            Some(v) => rows.push(format!("{i},{},{:.17e}", o.attempts(), v)),
            None => {
                failed += 1;
                rows.push(format!("{i},{},FAILED", o.attempts()));
                if let Some(e) = o.error() {
                    eprintln!("  sample {i} failed after {} attempt(s): {e}", o.attempts());
                }
            }
        }
    }
    save_rows("resilience_mc.csv", "sample,attempts,i_max", &rows);

    let retried = outcomes.iter().filter(|o| o.attempts() > 1).count();
    println!(
        "completed {}/{} samples ({retried} retried, {failed} failed)",
        samples - failed,
        samples
    );
    if let Some(summary) = summarize_outcomes(&outcomes, f64::INFINITY) {
        println!(
            "I_MAX over successes: mean = {:.4e} A, sigma = {:.4e} A",
            summary.mean_i_max, summary.std_i_max
        );
    }
    if failed > 0 {
        eprintln!("{failed} sample(s) unrecovered — resume with the same command to retry");
        std::process::exit(1);
    }
}
