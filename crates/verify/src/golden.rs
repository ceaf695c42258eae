//! Golden-waveform regression harness.
//!
//! Deterministic scenario runs are checkpointed to compact text files under
//! `crates/verify/goldens/` and every future run is compared against them
//! under per-signal tolerance envelopes ([`Tol`]: absolute + relative +
//! time-shift, deliberately *not* bitwise — see `docs/VERIFICATION.md`).
//! Refresh the files after an intentional behaviour change with
//!
//! ```text
//! cargo run -p sfet-verify --bin golden -- --update
//! ```
//!
//! which prints a human-readable diff of what moved before rewriting.
//!
//! The tolerance used for checking always comes from the *code-side*
//! scenario definition ([`run_scenario_with`]), not from the stored file — so
//! tightening an envelope takes effect without regenerating goldens. The
//! `tol` line in the file records what was in force at update time, for
//! humans reading the diff.

use std::fmt::Write as _;
use std::path::PathBuf;

use sfet_devices::ptm::{hysteresis_sweep, PtmParams, PtmPhase};
use sfet_numeric::exec::ExecConfig;
use sfet_pdn::io_buffer::IoBufferScenario;
use sfet_pdn::power_gate::{wake_ramp_sweep_with, PowerGateScenario};
use sfet_waveform::compare::{compare, resample, CompareReport, Tol};
use sfet_waveform::Waveform;

use crate::analytic::catalog;
use crate::{Result, VerifyError};

/// Samples stored per golden signal (uniform resampling grid).
pub const GOLDEN_POINTS: usize = 512;

/// One named signal of a scenario run, with its comparison envelope.
#[derive(Debug, Clone)]
pub struct GoldenSignal {
    /// Signal name, unique within the scenario (no whitespace).
    pub name: String,
    /// Envelope used when this signal is checked against a golden.
    pub tol: Tol,
    /// The signal itself. For waveform scenarios the axis is time \[s\];
    /// sweep-style scenarios use the sweep parameter or sample index.
    pub wave: Waveform,
}

/// A full scenario run: every signal the scenario pins.
#[derive(Debug, Clone)]
pub struct ScenarioRun {
    /// Scenario name (one of [`scenario_names`]).
    pub scenario: String,
    /// Pinned signals.
    pub signals: Vec<GoldenSignal>,
}

/// Comparison outcome for one signal.
#[derive(Debug, Clone)]
pub struct SignalReport {
    /// Signal name.
    pub name: String,
    /// Envelope comparison result.
    pub report: CompareReport,
}

/// The golden scenario catalog, in check order.
pub fn scenario_names() -> &'static [&'static str] {
    &[
        "ptm_staircase",
        "power_gate_wake",
        "io_buffer_ssn",
        "ptm_hysteresis",
        "wake_ramp_tradeoff",
    ]
}

fn signal(name: &str, tol: Tol, wave: Waveform) -> GoldenSignal {
    GoldenSignal {
        name: name.to_string(),
        tol,
        wave,
    }
}

fn index_waveform(values: Vec<f64>) -> Result<Waveform> {
    let times: Vec<f64> = (0..values.len()).map(|i| i as f64).collect();
    Ok(Waveform::from_samples(times, values)?)
}

/// The ideal-PTM staircase (the Fig. 3 soft-charging structure) run at the
/// reference's default resolution: pins the capacitor voltage and the PTM
/// resistance (as log₁₀ Ω, so both phases weigh equally).
fn run_staircase() -> Result<ScenarioRun> {
    let refs = catalog()?;
    let st = refs
        .iter()
        .find(|r| r.name == "ptm_staircase")
        .expect("catalog always contains the staircase");
    let divisions = *st.divisions.last().expect("non-empty ladder");
    let result = st.run(&st.options(divisions, sfet_numeric::integrate::Method::Trapezoidal))?;
    let v_out = result.voltage("out")?;
    let r_ptm = result.ptm_resistance("P1")?;
    let log_r = Waveform::from_samples(
        r_ptm.times().to_vec(),
        r_ptm.values().iter().map(|r| r.log10()).collect(),
    )?;
    Ok(ScenarioRun {
        scenario: "ptm_staircase".into(),
        signals: vec![
            signal("v(out)", Tol::new(2e-3, 1e-3).with_time_shift(1e-12), v_out),
            signal(
                "log10_r(P1)",
                Tol::new(0.05, 0.0).with_time_shift(1e-12),
                log_r,
            ),
        ],
    })
}

/// The Fig. 3-style power-gate wake-up, baseline and Soft-FET: pins the
/// shared rail, the gated rail, and the rail current.
fn run_power_gate() -> Result<ScenarioRun> {
    let base = PowerGateScenario::default();
    let soft = base.with_soft_fet(PtmParams::vo2_default());
    let out_b = base.run()?;
    let out_s = soft.run()?;
    let v_tol = Tol::new(1e-3, 1e-3).with_time_shift(0.2e-9);
    let i_tol = Tol::new(2e-3, 1e-2).with_time_shift(0.2e-9);
    Ok(ScenarioRun {
        scenario: "power_gate_wake".into(),
        signals: vec![
            signal("rail_base", v_tol, out_b.rail),
            signal("rail_soft", v_tol, out_s.rail),
            signal("v_virtual_soft", v_tol, out_s.v_virtual),
            signal("i_rail_soft", i_tol, out_s.i_rail),
        ],
    })
}

/// The Fig. 10 I/O buffer SSN experiment, baseline and Soft-FET: pins the
/// internal rails and the pad waveform.
fn run_io_buffer() -> Result<ScenarioRun> {
    let base = IoBufferScenario::default();
    let soft = base.with_soft_fet(PtmParams::vo2_default());
    let out_b = base.run()?;
    let out_s = soft.run()?;
    let v_tol = Tol::new(1e-3, 1e-3).with_time_shift(0.05e-9);
    Ok(ScenarioRun {
        scenario: "io_buffer_ssn".into(),
        signals: vec![
            signal("vssi_base", v_tol, out_b.vssi),
            signal("vddi_soft", v_tol, out_s.vddi),
            signal("vssi_soft", v_tol, out_s.vssi),
            signal("v_pad_soft", v_tol, out_s.v_pad),
        ],
    })
}

/// The quasi-static PTM hysteresis loop (Fig. 4): pins bias, current and
/// phase against the sample index of the `0 → 1 V → 0` sweep.
fn run_hysteresis() -> Result<ScenarioRun> {
    let points = hysteresis_sweep(&PtmParams::vo2_default(), 1.0, 200)?;
    let v = index_waveform(points.iter().map(|p| p.v).collect())?;
    let i = index_waveform(points.iter().map(|p| p.i).collect())?;
    let phase = index_waveform(
        points
            .iter()
            .map(|p| match p.phase {
                PtmPhase::Insulating => 0.0,
                PtmPhase::Metallic => 1.0,
            })
            .collect(),
    )?;
    Ok(ScenarioRun {
        scenario: "ptm_hysteresis".into(),
        signals: vec![
            signal("v", Tol::new(1e-9, 1e-9), v),
            signal("i", Tol::new(1e-12, 1e-6), i),
            signal("phase", Tol::new(0.1, 0.0), phase),
        ],
    })
}

/// The wake-ramp trade-off sweep (droop/inrush vs ramp duration), run
/// through the deterministic parallel sweep engine — this is the scenario
/// the worker-count invariance test replays at 1/2/8 workers.
fn run_wake_ramp(cfg: &ExecConfig) -> Result<ScenarioRun> {
    let ramps = [2e-9, 4e-9];
    let points = wake_ramp_sweep_with(
        cfg,
        &PowerGateScenario::default(),
        PtmParams::vo2_default(),
        &ramps,
    )?;
    let axis: Vec<f64> = points.iter().map(|p| p.wake_ramp).collect();
    let make = |values: Vec<f64>| -> Result<Waveform> {
        Ok(Waveform::from_samples(axis.clone(), values)?)
    };
    let tol = Tol::new(1e-6, 1e-3);
    Ok(ScenarioRun {
        scenario: "wake_ramp_tradeoff".into(),
        signals: vec![
            signal(
                "droop_base",
                tol,
                make(points.iter().map(|p| p.droop_base).collect())?,
            ),
            signal(
                "droop_soft",
                tol,
                make(points.iter().map(|p| p.droop_soft).collect())?,
            ),
            signal(
                "inrush_soft",
                tol,
                make(points.iter().map(|p| p.inrush_soft).collect())?,
            ),
            signal(
                "wake_time_soft",
                tol,
                make(
                    points
                        .iter()
                        .map(|p| p.wake_time_soft.unwrap_or(-1.0))
                        .collect(),
                )?,
            ),
        ],
    })
}

/// Runs one golden scenario under the execution policy `cfg` (only the
/// sweep-based scenarios are parallel; the rest ignore it).
///
/// # Errors
///
/// [`VerifyError::Format`] for an unknown scenario name; otherwise the
/// underlying run failure.
pub fn run_scenario_with(name: &str, cfg: &ExecConfig) -> Result<ScenarioRun> {
    match name {
        "ptm_staircase" => run_staircase(),
        "power_gate_wake" => run_power_gate(),
        "io_buffer_ssn" => run_io_buffer(),
        "ptm_hysteresis" => run_hysteresis(),
        "wake_ramp_tradeoff" => run_wake_ramp(cfg),
        other => Err(VerifyError::Format(format!("unknown scenario `{other}`"))),
    }
}

/// Compacts a run for storage: every signal resampled onto
/// [`GOLDEN_POINTS`] uniform points (signals that already have fewer
/// samples than that are stored as-is).
///
/// # Errors
///
/// Propagates resampling failures for degenerate signals.
pub fn compact(run: &ScenarioRun) -> Result<ScenarioRun> {
    let mut signals = Vec::with_capacity(run.signals.len());
    for s in &run.signals {
        let wave = if s.wave.len() > GOLDEN_POINTS {
            resample(&s.wave, GOLDEN_POINTS)?
        } else {
            s.wave.clone()
        };
        signals.push(GoldenSignal {
            name: s.name.clone(),
            tol: s.tol,
            wave,
        });
    }
    Ok(ScenarioRun {
        scenario: run.scenario.clone(),
        signals,
    })
}

/// Serialises a (compacted) run to the golden text format.
pub fn serialize(run: &ScenarioRun) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "sfet-golden v1");
    let _ = writeln!(out, "scenario {}", run.scenario);
    let _ = writeln!(out, "signals {}", run.signals.len());
    for s in &run.signals {
        let _ = writeln!(out, "signal {}", s.name);
        let _ = writeln!(
            out,
            "tol {:.17e} {:.17e} {:.17e}",
            s.tol.abs, s.tol.rel, s.tol.time_shift
        );
        let _ = writeln!(out, "samples {}", s.wave.len());
        for (t, v) in s.wave.iter() {
            let _ = writeln!(out, "{t:.17e} {v:.17e}");
        }
    }
    let _ = writeln!(out, "end");
    out
}

fn malformed(msg: impl Into<String>) -> VerifyError {
    VerifyError::Format(msg.into())
}

fn expect_prefix<'a>(line: Option<&'a str>, prefix: &str) -> Result<&'a str> {
    let line = line.ok_or_else(|| malformed(format!("missing `{prefix}` line")))?;
    line.strip_prefix(prefix)
        .map(str::trim)
        .ok_or_else(|| malformed(format!("expected `{prefix} ...`, got `{line}`")))
}

fn parse_f64(tok: &str) -> Result<f64> {
    tok.parse::<f64>()
        .map_err(|e| malformed(format!("bad number `{tok}`: {e}")))
}

/// Parses the golden text format back into a [`ScenarioRun`].
///
/// # Errors
///
/// [`VerifyError::Format`] describing the first malformed line.
pub fn parse(text: &str) -> Result<ScenarioRun> {
    let mut lines = text.lines();
    let header = lines.next().ok_or_else(|| malformed("empty golden file"))?;
    if header != "sfet-golden v1" {
        return Err(malformed(format!("unsupported header `{header}`")));
    }
    let scenario = expect_prefix(lines.next(), "scenario")?.to_string();
    let n_signals: usize = expect_prefix(lines.next(), "signals")?
        .parse()
        .map_err(|e| malformed(format!("bad signal count: {e}")))?;
    let mut signals = Vec::with_capacity(n_signals);
    for _ in 0..n_signals {
        let name = expect_prefix(lines.next(), "signal")?.to_string();
        let tol_line = expect_prefix(lines.next(), "tol")?;
        let toks: Vec<&str> = tol_line.split_whitespace().collect();
        if toks.len() != 3 {
            return Err(malformed(format!("tol needs 3 fields, got `{tol_line}`")));
        }
        let tol =
            Tol::new(parse_f64(toks[0])?, parse_f64(toks[1])?).with_time_shift(parse_f64(toks[2])?);
        let n: usize = expect_prefix(lines.next(), "samples")?
            .parse()
            .map_err(|e| malformed(format!("bad sample count: {e}")))?;
        let mut times = Vec::with_capacity(n);
        let mut values = Vec::with_capacity(n);
        for _ in 0..n {
            let line = lines
                .next()
                .ok_or_else(|| malformed(format!("signal `{name}` truncated")))?;
            let mut it = line.split_whitespace();
            let (t, v) = (
                it.next().ok_or_else(|| malformed("missing time"))?,
                it.next().ok_or_else(|| malformed("missing value"))?,
            );
            times.push(parse_f64(t)?);
            values.push(parse_f64(v)?);
        }
        signals.push(GoldenSignal {
            name,
            tol,
            wave: Waveform::from_samples(times, values)?,
        });
    }
    match lines.next() {
        Some("end") => {}
        other => return Err(malformed(format!("expected `end`, got {other:?}"))),
    }
    Ok(ScenarioRun { scenario, signals })
}

/// Directory the golden files live in (`crates/verify/goldens/`).
pub fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("goldens")
}

/// Path of one scenario's golden file.
pub fn golden_path(name: &str) -> PathBuf {
    golden_dir().join(format!("{name}.golden"))
}

/// Loads a stored golden.
///
/// # Errors
///
/// [`VerifyError::Io`] when the file is missing (run the update binary),
/// [`VerifyError::Format`] when it is malformed.
pub fn load(name: &str) -> Result<ScenarioRun> {
    let text = std::fs::read_to_string(golden_path(name))?;
    parse(&text)
}

/// Compacts and writes a run's golden file.
///
/// # Errors
///
/// [`VerifyError::Io`] on write failure.
pub fn save(run: &ScenarioRun) -> Result<()> {
    std::fs::create_dir_all(golden_dir())?;
    std::fs::write(golden_path(&run.scenario), serialize(&compact(run)?))?;
    Ok(())
}

/// Compares a fresh run against a stored golden, signal by signal, using
/// the fresh (code-side) tolerances. Every golden signal must exist in the
/// fresh run.
///
/// # Errors
///
/// [`VerifyError::Format`] if the scenario names differ or a golden signal
/// is missing from the fresh run.
pub fn compare_runs(golden: &ScenarioRun, fresh: &ScenarioRun) -> Result<Vec<SignalReport>> {
    if golden.scenario != fresh.scenario {
        return Err(malformed(format!(
            "scenario mismatch: golden `{}` vs fresh `{}`",
            golden.scenario, fresh.scenario
        )));
    }
    let mut reports = Vec::with_capacity(golden.signals.len());
    for g in &golden.signals {
        let f = fresh
            .signals
            .iter()
            .find(|s| s.name == g.name)
            .ok_or_else(|| {
                malformed(format!(
                    "golden signal `{}` missing from fresh `{}` run",
                    g.name, fresh.scenario
                ))
            })?;
        reports.push(SignalReport {
            name: g.name.clone(),
            report: compare(&g.wave, &f.wave, &f.tol),
        });
    }
    Ok(reports)
}

/// Runs a scenario under the environment's execution policy
/// (`SFET_THREADS`) and checks it against its stored golden.
///
/// # Errors
///
/// Propagates run, load and comparison failures.
pub fn check_scenario(name: &str) -> Result<Vec<SignalReport>> {
    let fresh = run_scenario_with(name, &ExecConfig::from_env())?;
    let golden = load(name)?;
    compare_runs(&golden, &fresh)
}

/// Human-readable diff of a fresh run against the stored golden, for the
/// update binary: one line per signal with the worst deviation.
pub fn diff_summary(golden: &ScenarioRun, fresh: &ScenarioRun) -> String {
    let mut out = String::new();
    for g in &golden.signals {
        match fresh.signals.iter().find(|s| s.name == g.name) {
            Some(f) => {
                let r = compare(&g.wave, &f.wave, &f.tol);
                let _ = writeln!(
                    out,
                    "  {:<18} worst margin {:>9.3e} at t={:.4e} (golden {:.6e}, new {:.6e}) {}",
                    g.name,
                    r.worst_margin,
                    r.worst_time,
                    r.worst_golden,
                    r.worst_actual,
                    if r.pass() { "within envelope" } else { "MOVED" }
                );
            }
            None => {
                let _ = writeln!(out, "  {:<18} removed", g.name);
            }
        }
    }
    for f in &fresh.signals {
        if !golden.signals.iter().any(|s| s.name == f.name) {
            let _ = writeln!(out, "  {:<18} added", f.name);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_run() -> ScenarioRun {
        ScenarioRun {
            scenario: "toy".into(),
            signals: vec![signal(
                "v(x)",
                Tol::new(1e-3, 1e-4).with_time_shift(2e-12),
                Waveform::from_samples(vec![0.0, 1e-12, 2e-12], vec![0.0, 0.5, -1.25e-3]).unwrap(),
            )],
        }
    }

    #[test]
    fn serialize_parse_round_trip_is_exact() {
        let run = toy_run();
        let text = serialize(&run);
        let back = parse(&text).unwrap();
        assert_eq!(back.scenario, "toy");
        assert_eq!(back.signals.len(), 1);
        let (a, b) = (&run.signals[0], &back.signals[0]);
        assert_eq!(a.name, b.name);
        assert_eq!(a.tol, b.tol);
        assert_eq!(a.wave.times(), b.wave.times());
        assert_eq!(a.wave.values(), b.wave.values());
    }

    #[test]
    fn parse_rejects_malformed_input() {
        assert!(parse("").is_err());
        assert!(parse("sfet-golden v2\n").is_err());
        assert!(parse("sfet-golden v1\nscenario x\nsignals 1\nsignal s\n").is_err());
        let truncated = serialize(&toy_run());
        let cut = &truncated[..truncated.len() - 30];
        assert!(parse(cut).is_err());
    }

    #[test]
    fn compare_runs_matches_by_name_and_flags_missing() {
        let run = toy_run();
        let reports = compare_runs(&run, &run.clone()).unwrap();
        assert_eq!(reports.len(), 1);
        assert!(reports[0].report.pass());
        assert_eq!(reports[0].report.worst_margin, 0.0);

        let mut other = run.clone();
        other.signals[0].name = "renamed".into();
        assert!(compare_runs(&run, &other).is_err());
        let mut wrong = run.clone();
        wrong.scenario = "different".into();
        assert!(compare_runs(&run, &wrong).is_err());
    }

    #[test]
    fn compact_caps_long_signals_and_keeps_short_ones() {
        let n = 3000;
        let times: Vec<f64> = (0..n).map(|i| i as f64 * 1e-12).collect();
        let values: Vec<f64> = times.iter().map(|t| (t * 1e12).sin()).collect();
        let long = ScenarioRun {
            scenario: "toy".into(),
            signals: vec![signal(
                "long",
                Tol::new(1e-3, 0.0),
                Waveform::from_samples(times, values).unwrap(),
            )],
        };
        let c = compact(&long).unwrap();
        assert_eq!(c.signals[0].wave.len(), GOLDEN_POINTS);
        let short = compact(&toy_run()).unwrap();
        assert_eq!(short.signals[0].wave.len(), 3);
    }

    #[test]
    fn unknown_scenario_is_a_format_error() {
        assert!(matches!(
            run_scenario_with("nope", &ExecConfig::from_env()),
            Err(VerifyError::Format(_))
        ));
    }

    #[test]
    fn diff_summary_reports_adds_and_removals() {
        let run = toy_run();
        let mut fresh = run.clone();
        fresh.signals.push(signal(
            "extra",
            Tol::new(1.0, 0.0),
            Waveform::from_samples(vec![0.0, 1.0], vec![0.0, 0.0]).unwrap(),
        ));
        let text = diff_summary(&run, &fresh);
        assert!(text.contains("within envelope"));
        assert!(text.contains("added"));
    }
}
