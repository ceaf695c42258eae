//! Golden-waveform check/update tool.
//!
//! ```text
//! cargo run -p sfet-verify --bin golden            # check all scenarios
//! cargo run -p sfet-verify --bin golden -- --update  # regenerate goldens
//! cargo run -p sfet-verify --bin golden -- power_gate_wake  # one scenario
//! ```
//!
//! Checking exits non-zero when any signal leaves its tolerance envelope or
//! a golden file is missing. Updating prints a human-readable diff of what
//! moved before rewriting each file.

use std::process::ExitCode;

use sfet_numeric::exec::ExecConfig;
use sfet_verify::golden::{
    check_scenario, compact, diff_summary, golden_path, load, run_scenario_with, save,
    scenario_names,
};

fn usage() -> ExitCode {
    eprintln!("usage: golden [--update] [scenario...]");
    eprintln!("known scenarios: {}", scenario_names().join(", "));
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let mut update = false;
    let mut picked: Vec<String> = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--update" => update = true,
            "--help" | "-h" => return usage(),
            other if other.starts_with('-') => {
                eprintln!("unknown flag `{other}`");
                return usage();
            }
            other => picked.push(other.to_string()),
        }
    }
    let names: Vec<&str> = if picked.is_empty() {
        scenario_names().to_vec()
    } else {
        let known = scenario_names();
        for p in &picked {
            if !known.contains(&p.as_str()) {
                eprintln!("unknown scenario `{p}`");
                return usage();
            }
        }
        picked.iter().map(String::as_str).collect()
    };

    let mut failed = false;
    for name in names {
        if update {
            match update_one(name) {
                Ok(()) => {}
                Err(e) => {
                    eprintln!("{name}: update failed: {e}");
                    failed = true;
                }
            }
        } else {
            match check_scenario(name) {
                Ok(reports) => {
                    let bad: Vec<_> = reports.iter().filter(|r| !r.report.pass()).collect();
                    if bad.is_empty() {
                        let worst = reports
                            .iter()
                            .map(|r| r.report.worst_margin)
                            .fold(0.0_f64, f64::max);
                        println!(
                            "{name}: ok ({} signals, worst margin {worst:.3e})",
                            reports.len()
                        );
                    } else {
                        failed = true;
                        for r in bad {
                            eprintln!(
                                "{name}: signal `{}` out of envelope: {} of {} samples, worst \
                                 margin {:.3e} at t={:.4e} (golden {:.6e}, actual {:.6e})",
                                r.name,
                                r.report.violations,
                                r.report.checked,
                                r.report.worst_margin,
                                r.report.worst_time,
                                r.report.worst_golden,
                                r.report.worst_actual
                            );
                        }
                    }
                }
                Err(e) => {
                    eprintln!("{name}: check failed: {e} (run with --update to regenerate)");
                    failed = true;
                }
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn update_one(name: &str) -> sfet_verify::Result<()> {
    let fresh = run_scenario_with(name, &ExecConfig::from_env())?;
    match load(name) {
        Ok(old) => {
            println!("{name}: refreshing {}", golden_path(name).display());
            print!("{}", diff_summary(&old, &compact(&fresh)?));
        }
        Err(_) => println!("{name}: writing new {}", golden_path(name).display()),
    }
    save(&fresh)?;
    Ok(())
}
