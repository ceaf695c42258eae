//! Job specification: from a submit-request JSON body to a runnable
//! work item plus its dedup cache key.
//!
//! Three job sources exist:
//!
//! * **Built-in scenarios** (`"scenario"` field): named circuit
//!   generators with a small parameter object — the paper's workloads
//!   exposed as a service. See [`SCENARIOS`].
//! * **Netlists** (`"netlist"` field): a SPICE-like deck parsed by
//!   `sfet-circuit`; its `.tran` directive supplies `dtmax` and `tstop`.
//! * **Optimize runs** (`"optimize"` field): a closed-loop
//!   design-space optimization over the Soft-FET operating point —
//!   `sfet-optimize`'s standard run exposed as a job type, with
//!   per-generation SSE progress.
//!
//! For transient jobs the cache key combines the SFCK circuit-shape
//! fingerprint ([`sfet_sim::circuit_fingerprint`]) with a
//! canonicalisation of every result-relevant input the fingerprint
//! cannot see (element values via the scenario parameterisation or the
//! netlist text, tolerances, step bounds). Optimize runs are bitwise
//! deterministic functions of their parameters, so their key hashes the
//! canonical parameter string directly — see [`JobSpec::cache_key`].

use sfet_circuit::parse::{parse_netlist, Analysis};
use sfet_circuit::Circuit;
use sfet_devices::ptm::PtmParams;
use sfet_numeric::fnv1a;
use sfet_optimize::Algorithm;
use sfet_pdn::power_gate::PowerGateScenario;
use sfet_sim::{circuit_fingerprint, SimOptions};

use crate::error::ApiError;
use crate::json::Json;
use crate::protocol::{canonical_options, Canon, OptionsPatch, OPTIMIZE_RESULT_VERSION};

/// Names of the built-in scenarios a job may request.
pub const SCENARIOS: &[&str] = &["rc_step", "power_gate_wake"];

/// Hard cap on request execution policy so one job cannot hog a worker
/// with an absurd retry ladder.
pub const MAX_RETRIES: usize = 8;

/// Hard cap on `optimize.generations` — one optimize job may not hog a
/// worker indefinitely.
pub const MAX_GENERATIONS: usize = 32;

/// Hard cap on `optimize.population`.
pub const MAX_POPULATION: usize = 32;

/// A transient-simulation work item: one circuit, one analysis window.
#[derive(Debug, Clone)]
pub struct TranWork {
    /// The circuit to simulate.
    pub circuit: Circuit,
    /// Transient stop time \[s\].
    pub tstop: f64,
    /// Resolved simulation options (defaults + client patch applied).
    pub options: SimOptions,
    /// Write a checkpoint every this many accepted steps (0 disables);
    /// retries resume from the last snapshot.
    pub checkpoint_every: usize,
}

/// A closed-loop optimize work item: `sfet-optimize`'s standard run
/// (the paper's design space, the min-worst-corner-droop objective at
/// iso-delay) parameterised by the request.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimizeWork {
    /// Optimizer selection (`coordinate` | `evolution`).
    pub algorithm: Algorithm,
    /// Run seed; the whole run is a pure function of it.
    pub seed: u64,
    /// Generation budget.
    pub generations: usize,
    /// Population size per generation (evolution only).
    pub population: usize,
    /// Nominal supply \[V\].
    pub vdd: f64,
}

/// What a job executes: a transient simulation or an optimize run.
// One JobWork exists per in-flight HTTP job, never in bulk arrays, so
// the Tran/Optimize size disparity costs nothing worth a Box indirection.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum JobWork {
    /// Simulate one circuit over one analysis window.
    Tran(TranWork),
    /// Run the closed-loop design-space optimizer.
    Optimize(OptimizeWork),
}

/// A fully resolved, runnable job specification.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Human-readable label (scenario name, `netlist`, or `optimize`),
    /// for status reporting.
    pub label: String,
    /// The work item to execute.
    pub work: JobWork,
    /// Retry budget. Transient jobs: attempt `k` reruns the whole
    /// simulation under `options.escalated(k)`. Optimize jobs: the
    /// per-lane retry budget of the batched sweep engine.
    pub retries: usize,
    /// Canonicalised value-level inputs (scenario parameters, netlist
    /// text digest, or optimize parameters) folded into the cache key
    /// alongside the shape fingerprint.
    value_canon: String,
}

impl JobSpec {
    /// Parses and resolves a submit-request body.
    ///
    /// # Errors
    ///
    /// A 4xx [`ApiError`] naming what was wrong (`invalid_request`,
    /// `unknown_scenario`, `netlist_error`, or `invalid_options`).
    pub fn from_request(body: &Json) -> Result<JobSpec, ApiError> {
        if !matches!(body, Json::Obj(_)) {
            return Err(ApiError::invalid_request("request body must be an object"));
        }
        let patch = OptionsPatch::from_json(body.get("options"))?;
        let retries = uint_field(body, "retries", 1)?;
        if retries > MAX_RETRIES {
            return Err(ApiError::invalid_request(format!(
                "retries must be at most {MAX_RETRIES}"
            )));
        }
        let checkpoint_every = uint_field(body, "checkpoint_every", 0)?;

        let mut spec = match (
            body.get("scenario"),
            body.get("netlist"),
            body.get("optimize"),
        ) {
            (Some(_), Some(_), _) | (Some(_), _, Some(_)) | (_, Some(_), Some(_)) => {
                return Err(ApiError::invalid_request(
                    "submit exactly one of \"scenario\", \"netlist\", or \"optimize\"",
                ));
            }
            (Some(name), None, None) => {
                let name = name
                    .as_str()
                    .ok_or_else(|| ApiError::invalid_request("\"scenario\" must be a string"))?;
                scenario_spec(name, body.get("params"), &patch)?
            }
            (None, Some(text), None) => {
                let text = text
                    .as_str()
                    .ok_or_else(|| ApiError::invalid_request("\"netlist\" must be a string"))?;
                netlist_spec(text, &patch)?
            }
            (None, None, Some(params)) => {
                // Simulation options and checkpoints belong to transient
                // jobs; silently ignoring them here would mislead.
                for field in ["options", "checkpoint_every", "params"] {
                    if body.get(field).is_some() {
                        return Err(ApiError::invalid_request(format!(
                            "optimize jobs take no {field:?} field"
                        )));
                    }
                }
                optimize_spec(params)?
            }
            (None, None, None) => {
                return Err(ApiError::invalid_request(
                    "request needs a \"scenario\", \"netlist\", or \"optimize\" field",
                ));
            }
        };
        spec.retries = retries;
        if let JobWork::Tran(tran) = &mut spec.work {
            tran.checkpoint_every = checkpoint_every;
        }
        Ok(spec)
    }

    /// The content-addressed cache key of this job:
    /// `"{shape_fingerprint:016x}-{value_hash:016x}"`.
    ///
    /// Transient jobs: the first half is the SFCK fingerprint of
    /// (circuit shape, tstop, method), the second an FNV-1a hash over
    /// the canonicalised resolved options plus the value-level inputs.
    /// Execution policy (retries, checkpoint cadence) is excluded: it
    /// cannot change the stored result (a stored transient document is
    /// always the first successful attempt, which is identical whatever
    /// the budget).
    ///
    /// Optimize jobs: both halves are FNV-1a — structure (algorithm,
    /// budgets) on the left, full parameter canon on the right. Here
    /// `retries` IS part of the key: lane failures are *scored*, not
    /// raised, and a larger per-lane budget can rescue a lane with
    /// escalated solver options, changing the outcome document.
    pub fn cache_key(&self) -> String {
        match &self.work {
            JobWork::Tran(tran) => {
                let shape = circuit_fingerprint(&tran.circuit, tran.tstop, tran.options.method);
                let canon = canonical_options(&tran.options, tran.tstop, &self.value_canon);
                format!("{shape:016x}-{:016x}", fnv1a(canon.as_bytes()))
            }
            JobWork::Optimize(work) => {
                let shape = fnv1a(
                    format!(
                        "{OPTIMIZE_RESULT_VERSION};alg={};generations={};population={}",
                        work.algorithm.name(),
                        work.generations,
                        work.population
                    )
                    .as_bytes(),
                );
                let canon = format!("{};retries={}", self.value_canon, self.retries);
                format!("{shape:016x}-{:016x}", fnv1a(canon.as_bytes()))
            }
        }
    }
}

fn uint_field(body: &Json, key: &str, default: usize) -> Result<usize, ApiError> {
    match body.get(key) {
        None => Ok(default),
        Some(v) => {
            let n = v.as_f64().ok_or_else(|| {
                ApiError::invalid_request(format!("{key} must be a non-negative integer"))
            })?;
            if n < 0.0 || n.fract() != 0.0 || n > 1e15 {
                return Err(ApiError::invalid_request(format!(
                    "{key} must be a non-negative integer"
                )));
            }
            Ok(n as usize)
        }
    }
}

fn num_param(params: Option<&Json>, key: &str, default: f64) -> Result<f64, ApiError> {
    match params.and_then(|p| p.get(key)) {
        None => Ok(default),
        Some(v) => v
            .as_f64()
            .ok_or_else(|| ApiError::invalid_request(format!("params.{key} must be a number"))),
    }
}

fn bool_param(params: Option<&Json>, key: &str, default: bool) -> Result<bool, ApiError> {
    match params.and_then(|p| p.get(key)) {
        None => Ok(default),
        Some(v) => v
            .as_bool()
            .ok_or_else(|| ApiError::invalid_request(format!("params.{key} must be a boolean"))),
    }
}

fn check_params(params: Option<&Json>, scenario: &str, accepted: &[&str]) -> Result<(), ApiError> {
    let Some(params) = params else {
        return Ok(());
    };
    let Json::Obj(pairs) = params else {
        return Err(ApiError::invalid_request("\"params\" must be an object"));
    };
    for (key, _) in pairs {
        if !accepted.contains(&key.as_str()) {
            return Err(ApiError::invalid_request(format!(
                "scenario {scenario:?} has no parameter {key:?} (accepted: {})",
                accepted.join(", ")
            )));
        }
    }
    Ok(())
}

fn scenario_spec(
    name: &str,
    params: Option<&Json>,
    patch: &OptionsPatch,
) -> Result<JobSpec, ApiError> {
    match name {
        "rc_step" => rc_step_spec(params, patch),
        "power_gate_wake" => power_gate_spec(params, patch),
        other => Err(ApiError::unknown_scenario(other, SCENARIOS)),
    }
}

/// `rc_step`: a single-pole RC low-pass driven by a ramped step — the
/// cheap smoke/load-test workload. Parameters: `r` \[Ω\], `c` \[F\],
/// `v` (step target \[V\]), `t_ramp` \[s\], `tstop` \[s\].
fn rc_step_spec(params: Option<&Json>, patch: &OptionsPatch) -> Result<JobSpec, ApiError> {
    check_params(params, "rc_step", &["r", "c", "v", "t_ramp", "tstop"])?;
    let r = num_param(params, "r", 1e3)?;
    let c = num_param(params, "c", 1e-15)?;
    let v = num_param(params, "v", 1.0)?;
    let t_ramp = num_param(params, "t_ramp", 1e-12)?;
    let tstop = num_param(params, "tstop", 10e-12)?;
    if !(r > 0.0 && c > 0.0 && t_ramp > 0.0 && tstop > 0.0) {
        return Err(ApiError::invalid_request(
            "rc_step needs positive r, c, t_ramp, tstop",
        ));
    }
    let mut ckt = Circuit::new();
    let (inp, out, gnd) = (ckt.node("in"), ckt.node("out"), Circuit::ground());
    let build = (|| {
        ckt.add_voltage_source(
            "V1",
            inp,
            gnd,
            sfet_circuit::SourceWaveform::ramp(0.0, v, 0.0, t_ramp),
        )?;
        ckt.add_resistor("R1", inp, out, r)?;
        ckt.add_capacitor("C1", out, gnd, c)
    })();
    build.map_err(ApiError::netlist_error)?;
    let options = patch.apply(SimOptions::for_duration(tstop, 400))?;
    Ok(JobSpec {
        label: "rc_step".into(),
        work: JobWork::Tran(TranWork {
            circuit: ckt,
            tstop,
            options,
            checkpoint_every: 0,
        }),
        retries: 0,
        value_canon: Canon("rc_step".into())
            .f64("r", r)
            .f64("c", c)
            .f64("v", v)
            .f64("t_ramp", t_ramp)
            .0,
    })
}

/// `power_gate_wake`: the paper's Fig. 10 power-gate wake-up on a shared
/// PDN ([`PowerGateScenario`]). Parameters: `wake_ramp` \[s\],
/// `t_stop` \[s\], `i_active` \[A\], and `soft` (boolean — insert the
/// scaled VO₂ Soft-FET header gate PTM).
fn power_gate_spec(params: Option<&Json>, patch: &OptionsPatch) -> Result<JobSpec, ApiError> {
    check_params(
        params,
        "power_gate_wake",
        &["wake_ramp", "t_stop", "i_active", "soft"],
    )?;
    let base = PowerGateScenario::default();
    let wake_ramp = num_param(params, "wake_ramp", base.wake_ramp)?;
    let t_stop = num_param(params, "t_stop", base.t_stop)?;
    let i_active = num_param(params, "i_active", base.i_active)?;
    let soft = bool_param(params, "soft", false)?;
    let mut scenario = PowerGateScenario {
        wake_ramp,
        t_stop,
        i_active,
        ..base
    };
    if soft {
        scenario = scenario.with_soft_fet(PtmParams::vo2_default());
    }
    let circuit = scenario.build().map_err(ApiError::netlist_error)?;
    // Same default density as `PowerGateScenario::run`.
    let options = patch.apply(SimOptions::for_duration(scenario.t_stop, 4000))?;
    Ok(JobSpec {
        label: "power_gate_wake".into(),
        work: JobWork::Tran(TranWork {
            circuit,
            tstop: scenario.t_stop,
            options,
            checkpoint_every: 0,
        }),
        retries: 0,
        value_canon: Canon("power_gate_wake".into())
            .f64("wake_ramp", wake_ramp)
            .f64("t_stop", t_stop)
            .f64("i_active", i_active)
            .text("soft", soft)
            .0,
    })
}

fn netlist_spec(text: &str, patch: &OptionsPatch) -> Result<JobSpec, ApiError> {
    let parsed = parse_netlist(text).map_err(ApiError::netlist_error)?;
    // The job server runs transient jobs; take the first `.tran` directive
    // and ignore any `.dc` sweeps the deck also carries.
    let Some((dtmax, tstop)) = parsed.analyses.iter().find_map(|a| match a {
        Analysis::Tran { dtmax, tstop } => Some((*dtmax, *tstop)),
        _ => None,
    }) else {
        return Err(ApiError::netlist_error(
            "netlist needs a `.tran <dtmax> <tstop>` directive",
        ));
    };
    // Reject impossible analysis windows at submission instead of letting
    // the job burn a worker slot and fail inside the engine.
    if !(tstop > 0.0 && tstop.is_finite() && dtmax > 0.0 && dtmax.is_finite()) {
        return Err(ApiError::netlist_error(format!(
            ".tran needs positive, finite <dtmax> <tstop>, got {dtmax:e} {tstop:e}"
        )));
    }
    let mut base = SimOptions::for_duration(tstop, 16);
    base.dtmax = dtmax;
    let options = patch.apply(base)?;
    Ok(JobSpec {
        label: "netlist".into(),
        work: JobWork::Tran(TranWork {
            circuit: parsed.circuit,
            tstop,
            options,
            checkpoint_every: 0,
        }),
        retries: 0,
        // The netlist text itself is the value-level identity: two decks
        // that differ only in comments/whitespace hash differently — a
        // conservative (never wrongly-shared) cache.
        value_canon: format!(
            "netlist;sha={:016x};len={}",
            fnv1a(text.as_bytes()),
            text.len()
        ),
    })
}

/// `optimize`: the closed-loop design-space optimization job. Parameters
/// (all optional): `algorithm` (`"coordinate"` | `"evolution"`), `seed`,
/// `generations` (1..=[`MAX_GENERATIONS`]), `population`
/// (2..=[`MAX_POPULATION`]), `vdd` \[V\].
fn optimize_spec(params: &Json) -> Result<JobSpec, ApiError> {
    check_params(
        Some(params),
        "optimize",
        &["algorithm", "seed", "generations", "population", "vdd"],
    )?;
    let algorithm = match params.get("algorithm") {
        None => Algorithm::Evolution,
        Some(v) => {
            let name = v
                .as_str()
                .ok_or_else(|| ApiError::invalid_request("optimize.algorithm must be a string"))?;
            Algorithm::parse(name).ok_or_else(|| {
                ApiError::invalid_request(format!(
                    "unknown optimize.algorithm {name:?} (accepted: coordinate, evolution)"
                ))
            })?
        }
    };
    // JSON numbers are f64; seeds are exact up to 2^53, which the
    // integer check in `uint_field` already enforces (n <= 1e15).
    let seed = uint_field(params, "seed", 0x050F_7FE7)? as u64;
    let generations = uint_field(params, "generations", 12)?;
    if !(1..=MAX_GENERATIONS).contains(&generations) {
        return Err(ApiError::invalid_request(format!(
            "optimize.generations must be in 1..={MAX_GENERATIONS}"
        )));
    }
    let population = uint_field(params, "population", 8)?;
    if !(2..=MAX_POPULATION).contains(&population) {
        return Err(ApiError::invalid_request(format!(
            "optimize.population must be in 2..={MAX_POPULATION}"
        )));
    }
    let vdd = match params.get("vdd") {
        None => 1.0,
        Some(v) => v
            .as_f64()
            .ok_or_else(|| ApiError::invalid_request("optimize.vdd must be a number"))?,
    };
    // The standard design space and objective are built around ~1 V
    // supplies; a wild vdd just wastes a worker on meaningless sims.
    if !(vdd.is_finite() && (0.2..=2.0).contains(&vdd)) {
        return Err(ApiError::invalid_request(
            "optimize.vdd must be a finite supply in [0.2, 2.0] V",
        ));
    }
    let work = OptimizeWork {
        algorithm,
        seed,
        generations,
        population,
        vdd,
    };
    let value_canon = Canon("optimize".into())
        .text("alg", work.algorithm.name())
        .text("seed", work.seed)
        .text("generations", work.generations)
        .text("population", work.population)
        .f64("vdd", work.vdd)
        .0;
    Ok(JobSpec {
        label: "optimize".into(),
        work: JobWork::Optimize(work),
        retries: 0,
        value_canon,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(body: &str) -> Result<JobSpec, ApiError> {
        JobSpec::from_request(&Json::parse(body).unwrap())
    }

    fn tran(spec: &JobSpec) -> &TranWork {
        match &spec.work {
            JobWork::Tran(t) => t,
            other => panic!("expected a transient work item, got {other:?}"),
        }
    }

    #[test]
    fn rc_step_resolves_with_defaults() {
        let spec = parse(r#"{"scenario":"rc_step"}"#).unwrap();
        assert_eq!(spec.label, "rc_step");
        assert_eq!(tran(&spec).tstop, 10e-12);
        assert_eq!(spec.retries, 1);
        assert_eq!(tran(&spec).circuit.elements().len(), 3);
    }

    #[test]
    fn identical_requests_share_a_cache_key() {
        let a = parse(r#"{"scenario":"rc_step","params":{"r":2000.0}}"#).unwrap();
        let b = parse(r#"{"scenario":"rc_step","params":{"r":2e3},"retries":3}"#).unwrap();
        assert_eq!(
            a.cache_key(),
            b.cache_key(),
            "retries must not split the cache"
        );
        // Spelling out a default == omitting it.
        let c = parse(r#"{"scenario":"rc_step","params":{"r":2e3,"c":1e-15}}"#).unwrap();
        assert_eq!(a.cache_key(), c.cache_key());
    }

    #[test]
    fn value_changes_split_the_cache_key() {
        let a = parse(r#"{"scenario":"rc_step"}"#).unwrap();
        let b = parse(r#"{"scenario":"rc_step","params":{"r":999.0}}"#).unwrap();
        let c = parse(r#"{"scenario":"rc_step","options":{"reltol":1e-6}}"#).unwrap();
        let d = parse(r#"{"scenario":"rc_step","params":{"tstop":2e-11}}"#).unwrap();
        let keys = [a.cache_key(), b.cache_key(), c.cache_key(), d.cache_key()];
        for i in 0..keys.len() {
            for j in i + 1..keys.len() {
                assert_ne!(keys[i], keys[j], "keys {i} and {j} must differ");
            }
        }
    }

    #[test]
    fn power_gate_soft_flag_changes_circuit_and_key() {
        let hard = parse(r#"{"scenario":"power_gate_wake","params":{"t_stop":8e-9}}"#).unwrap();
        let soft = parse(r#"{"scenario":"power_gate_wake","params":{"t_stop":8e-9,"soft":true}}"#)
            .unwrap();
        assert_ne!(hard.cache_key(), soft.cache_key());
        assert!(!tran(&soft).circuit.elements().is_empty());
    }

    #[test]
    fn netlist_takes_tran_directive() {
        let deck = "V1 in 0 DC 1.0\nR1 in out 1k\nC1 out 0 2f\n.tran 0.1p 50p\n.end";
        let spec = parse(&format!(
            r#"{{"netlist":{}}}"#,
            Json::Str(deck.into()).to_json()
        ))
        .unwrap();
        assert_eq!(tran(&spec).tstop, 50e-12);
        assert_eq!(tran(&spec).options.dtmax, 0.1e-12);
    }

    #[test]
    fn optimize_resolves_with_defaults_and_keys_on_every_parameter() {
        let spec = parse(r#"{"optimize":{}}"#).unwrap();
        assert_eq!(spec.label, "optimize");
        let JobWork::Optimize(work) = &spec.work else {
            panic!("expected optimize work, got {:?}", spec.work);
        };
        assert_eq!(work.algorithm, Algorithm::Evolution);
        assert_eq!(work.generations, 12);
        assert_eq!(work.population, 8);
        assert_eq!(work.vdd, 1.0);

        // Spelling out a default == omitting it.
        let explicit = parse(
            r#"{"optimize":{"algorithm":"evolution","generations":12,
                "population":8,"vdd":1.0}}"#,
        )
        .unwrap();
        assert_eq!(spec.cache_key(), explicit.cache_key());

        // Every parameter — and, unlike transient jobs, the retry
        // budget — splits the key.
        for other in [
            r#"{"optimize":{"algorithm":"coordinate"}}"#,
            r#"{"optimize":{"seed":99}}"#,
            r#"{"optimize":{"generations":6}}"#,
            r#"{"optimize":{"population":4}}"#,
            r#"{"optimize":{"vdd":0.9}}"#,
            r#"{"optimize":{},"retries":3}"#,
        ] {
            assert_ne!(
                spec.cache_key(),
                parse(other).unwrap().cache_key(),
                "{other} must split the cache"
            );
        }
    }

    #[test]
    fn optimize_rejects_bad_parameters_with_named_errors() {
        for body in [
            r#"{"optimize":{"algorithm":"annealing"}}"#,
            r#"{"optimize":{"algorithm":7}}"#,
            r#"{"optimize":{"generations":0}}"#,
            r#"{"optimize":{"generations":1000}}"#,
            r#"{"optimize":{"population":1}}"#,
            r#"{"optimize":{"seed":-1}}"#,
            r#"{"optimize":{"vdd":50.0}}"#,
            r#"{"optimize":{"vdd":"high"}}"#,
            r#"{"optimize":{"bogus":1}}"#,
            r#"{"optimize":7}"#,
            // Transient-only fields and other job sources don't mix in.
            r#"{"optimize":{},"options":{"reltol":1e-6}}"#,
            r#"{"optimize":{},"checkpoint_every":5}"#,
            r#"{"optimize":{},"params":{"r":1.0}}"#,
            r#"{"optimize":{},"scenario":"rc_step"}"#,
            r#"{"optimize":{},"netlist":"x"}"#,
        ] {
            let err = parse(body).unwrap_err();
            assert_eq!(err.code, "invalid_request", "{body} -> {}", err.message);
            assert_eq!(err.status, 400, "{body}");
        }
    }

    #[test]
    fn impossible_tran_windows_are_rejected_at_submit() {
        // Pre-fix these parsed fine and failed later inside the engine,
        // wasting a queue slot and a sim attempt on an impossible job.
        for deck in [
            "V1 in 0 DC 1\nR1 in 0 1k\n.tran 1p -2n\n.end",
            "V1 in 0 DC 1\nR1 in 0 1k\n.tran 1p 0\n.end",
        ] {
            let body = format!(r#"{{"netlist":{}}}"#, Json::Str(deck.into()).to_json());
            let err = parse(&body).unwrap_err();
            assert_eq!(err.code, "netlist_error", "{deck}");
            assert_eq!(err.status, 400);
        }
    }

    #[test]
    fn nonfinite_netlist_values_are_rejected_at_submit() {
        // "1e999" saturates to +inf in `f64::from_str`; an infinite
        // source value can only poison the solve. `parse_eng` names it.
        let deck = "V1 in 0 DC 1e999\nR1 in 0 1k\n.tran 1p 2n\n.end";
        let body = format!(r#"{{"netlist":{}}}"#, Json::Str(deck.into()).to_json());
        let err = parse(&body).unwrap_err();
        assert_eq!(err.code, "netlist_error");
        assert!(err.message.contains("non-finite"), "{}", err.message);
    }

    #[test]
    fn bad_requests_get_named_errors() {
        assert_eq!(parse(r#"{}"#).unwrap_err().code, "invalid_request");
        assert_eq!(
            parse(r#"{"scenario":"nope"}"#).unwrap_err().code,
            "unknown_scenario"
        );
        assert_eq!(
            parse(r#"{"netlist":"R1 a b 1k\n.end"}"#).unwrap_err().code,
            "netlist_error"
        );
        assert_eq!(
            parse(r#"{"netlist":"garbage card\n.tran 1p 2p"}"#)
                .unwrap_err()
                .code,
            "netlist_error"
        );
        assert_eq!(
            parse(r#"{"scenario":"rc_step","params":{"r":-5.0}}"#)
                .unwrap_err()
                .code,
            "invalid_request"
        );
        assert_eq!(
            parse(r#"{"scenario":"rc_step","params":{"bogus":1}}"#)
                .unwrap_err()
                .code,
            "invalid_request"
        );
        assert_eq!(
            parse(r#"{"scenario":"rc_step","options":{"dtmax":-1.0}}"#)
                .unwrap_err()
                .code,
            "invalid_options"
        );
        assert_eq!(
            parse(r#"{"scenario":"rc_step","retries":99}"#)
                .unwrap_err()
                .code,
            "invalid_request"
        );
        assert_eq!(
            parse(r#"{"scenario":"rc_step","netlist":"x"}"#)
                .unwrap_err()
                .code,
            "invalid_request"
        );
    }
}
