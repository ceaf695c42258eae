//! The versioned JSON wire format: request parsing, options
//! canonicalisation, and deterministic result encoding.
//!
//! Everything here is a pure function of its inputs; the HTTP layer
//! (`server`) does transport, the scheduler does execution, and this
//! module defines *what the bytes mean*. The full schema narrative lives
//! in `docs/SERVE.md`.

use sfet_numeric::integrate::Method;
use sfet_optimize::{pareto_frontier, DesignSpace, OptimizeOutcome};
use sfet_sim::{SimOptions, TranResult};

use crate::error::ApiError;
use crate::json::build::{obj, u};
use crate::json::{fmt_f64, write_escaped, write_f64, Json, MAX_F64_LEN};
use crate::spec::OptimizeWork;

/// API version; the path prefix of every route (`/v1/...`). Bumped on
/// any incompatible change to a request or response shape.
pub const API_VERSION: &str = "v1";

/// Version tag of the encoded transient result document (`"result"` field).
pub const RESULT_VERSION: &str = "tran.v1";

/// Version tag of the encoded optimize result document.
pub const OPTIMIZE_RESULT_VERSION: &str = "optimize.v1";

/// Client-supplied subset of [`SimOptions`] accepted on job submission.
///
/// Every field is optional; unset fields take the job type's defaults
/// (see `docs/SERVE.md#options`). The *resolved* options — after
/// defaults are applied — are what the cache key canonicalises, so a
/// request that spells out a default and one that omits it dedup onto
/// the same stored result.
///
/// # Example
///
/// ```
/// use sfet_serve::protocol::OptionsPatch;
/// use sfet_serve::json::Json;
///
/// let body = Json::parse(r#"{"reltol":1e-5,"method":"be"}"#).unwrap();
/// let patch = OptionsPatch::from_json(Some(&body)).unwrap();
/// assert_eq!(patch.reltol, Some(1e-5));
/// let opts = patch.apply(sfet_sim::SimOptions::default()).unwrap();
/// assert_eq!(opts.reltol, 1e-5);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OptionsPatch {
    /// Relative convergence tolerance (`reltol`).
    pub reltol: Option<f64>,
    /// Absolute voltage tolerance \[V\] (`vntol`).
    pub vntol: Option<f64>,
    /// Absolute current tolerance \[A\] (`abstol`).
    pub abstol: Option<f64>,
    /// Maximum time step \[s\] (`dtmax`).
    pub dtmax: Option<f64>,
    /// Integration method: `"be"`, `"trap"`, or `"gear2"`.
    pub method: Option<Method>,
    /// Hard cap on attempted steps (`max_steps`).
    pub max_steps: Option<usize>,
    /// Nonlinear-device shunt conductance \[S\] (`gmin`).
    pub gmin: Option<f64>,
}

impl OptionsPatch {
    /// Parses the `"options"` object of a submit request. `None` (field
    /// absent) yields the empty patch.
    ///
    /// # Errors
    ///
    /// [`ApiError::invalid_options`] naming the offending field.
    pub fn from_json(value: Option<&Json>) -> Result<OptionsPatch, ApiError> {
        let mut patch = OptionsPatch::default();
        let Some(value) = value else {
            return Ok(patch);
        };
        let Json::Obj(pairs) = value else {
            return Err(ApiError::invalid_options("\"options\" must be an object"));
        };
        for (key, v) in pairs {
            match key.as_str() {
                "reltol" => patch.reltol = Some(num_field(v, key)?),
                "vntol" => patch.vntol = Some(num_field(v, key)?),
                "abstol" => patch.abstol = Some(num_field(v, key)?),
                "dtmax" => patch.dtmax = Some(num_field(v, key)?),
                "gmin" => patch.gmin = Some(num_field(v, key)?),
                "max_steps" => {
                    let n = num_field(v, key)?;
                    if n < 1.0 || n.fract() != 0.0 || n > 1e15 {
                        return Err(ApiError::invalid_options(
                            "max_steps must be a positive integer",
                        ));
                    }
                    patch.max_steps = Some(n as usize);
                }
                "method" => {
                    let name = v
                        .as_str()
                        .ok_or_else(|| ApiError::invalid_options("method must be a string"))?;
                    patch.method = Some(parse_method(name)?);
                }
                other => {
                    return Err(ApiError::invalid_options(format!(
                        "unknown option {other:?} (accepted: reltol, vntol, abstol, \
                         dtmax, method, max_steps, gmin)"
                    )));
                }
            }
        }
        Ok(patch)
    }

    /// Applies the patch over `base` and validates the result.
    ///
    /// # Errors
    ///
    /// [`ApiError::invalid_options`] with the violated constraint.
    pub fn apply(&self, mut base: SimOptions) -> Result<SimOptions, ApiError> {
        if let Some(v) = self.reltol {
            base.reltol = v;
        }
        if let Some(v) = self.vntol {
            base.vntol = v;
        }
        if let Some(v) = self.abstol {
            base.abstol = v;
        }
        if let Some(v) = self.dtmax {
            base.dtmax = v;
        }
        if let Some(v) = self.method {
            base.method = v;
        }
        if let Some(v) = self.max_steps {
            base.max_steps = v;
        }
        if let Some(v) = self.gmin {
            base.gmin = v;
        }
        base.validate().map_err(ApiError::invalid_options)?;
        Ok(base)
    }
}

fn num_field(v: &Json, key: &str) -> Result<f64, ApiError> {
    v.as_f64()
        .ok_or_else(|| ApiError::invalid_options(format!("{key} must be a number")))
}

/// Parses a wire method name (`"be"` / `"trap"` / `"gear2"`).
///
/// # Errors
///
/// [`ApiError::invalid_options`] for anything else.
pub fn parse_method(name: &str) -> Result<Method, ApiError> {
    match name {
        "be" => Ok(Method::BackwardEuler),
        "trap" => Ok(Method::Trapezoidal),
        "gear2" => Ok(Method::Gear2),
        other => Err(ApiError::invalid_options(format!(
            "unknown method {other:?} (accepted: be, trap, gear2)"
        ))),
    }
}

/// The wire name of an integration method (inverse of [`parse_method`]).
pub fn method_name(method: Method) -> &'static str {
    match method {
        Method::BackwardEuler => "be",
        Method::Trapezoidal => "trap",
        Method::Gear2 => "gear2",
    }
}

/// Canonical string of *resolved* simulation options — the
/// cache-key half that captures element values and tolerances the
/// circuit-shape fingerprint cannot see. Fixed field order, every field
/// present, floats in shortest round-trip form: two option sets
/// canonicalise identically iff every covered field is bitwise equal.
///
/// Execution policy (retries, checkpoint cadence, telemetry) is
/// deliberately *not* covered: it cannot change the result, so it must
/// not split the cache.
pub fn canonical_options(opts: &SimOptions, tstop: f64, extra: &str) -> String {
    format!(
        "reltol={};vntol={};abstol={};dtmax={};method={};max_steps={};gmin={};\
         dtmin={};max_newton_iter={};tstop={};extra={extra}",
        fmt_f64(opts.reltol),
        fmt_f64(opts.vntol),
        fmt_f64(opts.abstol),
        fmt_f64(opts.dtmax),
        method_name(opts.method),
        opts.max_steps,
        fmt_f64(opts.gmin),
        fmt_f64(opts.dtmin),
        opts.max_newton_iter,
        fmt_f64(tstop),
    )
}

/// Encodes a [`TranResult`] as the versioned, **deterministic** result
/// document served by `GET /v1/jobs/{id}/result`.
///
/// Determinism contract: signal names are emitted sorted, every float
/// uses the shortest round-trippable form, and the only non-deterministic
/// engine statistic (`solve_time_ns`) is excluded — so two bitwise-equal
/// simulations encode to byte-identical documents. The loopback
/// integration suite pins served bytes against a direct library call
/// through this same function.
pub fn encode_tran_result(result: &TranResult) -> String {
    let mut out = String::with_capacity(tran_document_bound(result));
    out.push_str("{\"result\":\"");
    out.push_str(RESULT_VERSION);
    out.push_str("\",\"times\":");
    write_f64_array(&mut out, result.times());

    out.push_str(",\"nodes\":{");
    let mut nodes: Vec<&str> = result.node_names().collect();
    nodes.sort_unstable();
    for (i, name) in nodes.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_key(&mut out, name);
        let samples = result
            .node_samples(name)
            .expect("name came from node_names");
        write_f64_array(&mut out, samples);
    }

    out.push_str("},\"branches\":{");
    let mut branches: Vec<&str> = result.branch_names().collect();
    branches.sort_unstable();
    for (i, name) in branches.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_key(&mut out, name);
        let wave = result
            .branch_current(name)
            .expect("name came from branch_names");
        write_f64_array(&mut out, wave.values());
    }

    out.push_str("},\"ptm\":{");
    let mut ptms: Vec<&str> = result.ptm_names().collect();
    ptms.sort_unstable();
    for (i, name) in ptms.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_key(&mut out, name);
        let events = result.ptm_events(name).expect("name came from ptm_names");
        let resistance = result
            .ptm_resistance(name)
            .expect("name came from ptm_names");
        out.push_str("{\"resistance\":");
        write_f64_array(&mut out, resistance.values());
        out.push_str(",\"events\":[");
        for (j, ev) in events.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str("{\"time\":");
            write_f64(&mut out, ev.time);
            out.push_str(",\"to\":\"");
            out.push_str(if ev.is_imt() {
                "metallic"
            } else {
                "insulating"
            });
            out.push_str("\"}");
        }
        out.push_str("]}");
    }

    let st = result.stats();
    out.push_str("},\"stats\":");
    let stats = obj(vec![
        ("steps_attempted", u(st.steps_attempted as u64)),
        ("steps_accepted", u(st.steps_accepted as u64)),
        ("steps_rejected", u(st.steps_rejected as u64)),
        ("newton_iterations", u(st.newton_iterations as u64)),
        ("ptm_transitions", u(st.ptm_transitions as u64)),
        (
            "solver",
            obj(vec![
                ("full_factorizations", u(st.solver.full_factorizations)),
                ("refactorizations", u(st.solver.refactorizations)),
                ("solves", u(st.solver.solves)),
                ("pattern_rebuilds", u(st.solver.pattern_rebuilds)),
                ("pivot_fallbacks", u(st.solver.pivot_fallbacks)),
                ("factor_nnz", u(st.solver.factor_nnz as u64)),
                ("gmres_iters", u(st.solver.gmres_iterations)),
                ("gmres_restarts", u(st.solver.gmres_restarts)),
                ("gmres_fallbacks", u(st.solver.gmres_fallbacks)),
            ]),
        ),
    ]);
    stats.write(&mut out);
    out.push('}');
    out
}

/// An upper bound on the length of the [`encode_tran_result`] document,
/// so its buffer is reserved once and never regrown. Every column holds
/// one sample per time point, and a sample takes at most
/// `MAX_F64_LEN` bytes and a comma; a key escapes to at most six bytes
/// per input byte.
fn tran_document_bound(result: &TranResult) -> usize {
    // Per event: `{"time":` + value + `,"to":"insulating"},`.
    const EVENT_LEN: usize = MAX_F64_LEN + 28;
    // Per PTM: `{"resistance":` + `,"events":[` + `]},`.
    const PTM_LEN: usize = 28;
    // The version header, the section braces and the stats object.
    const FIXED_LEN: usize = 1024;
    let names = || {
        result
            .node_names()
            .chain(result.branch_names())
            .chain(result.ptm_names())
    };
    let column_len = result.times().len() * (MAX_F64_LEN + 1) + 2;
    let keys: usize = names().map(|k| 6 * k.len() + 3).sum();
    let ptms: usize = result
        .ptm_names()
        .map(|p| result.ptm_events(p).map_or(0, <[_]>::len) * EVENT_LEN + PTM_LEN)
        .sum();
    (1 + names().count()) * column_len + keys + ptms + FIXED_LEN
}

/// Encodes an [`OptimizeOutcome`] as the versioned, **deterministic**
/// result document served for `optimize` jobs.
///
/// Determinism contract: the optimizer itself is bitwise reproducible
/// across thread/batch configuration (pinned by `sfet-optimize`'s
/// determinism suite), every float here uses the shortest round-trippable
/// form, and nothing time- or environment-dependent is included — so two
/// submissions with the same parameters dedup onto byte-identical
/// documents.
pub fn encode_optimize_result(work: &OptimizeWork, outcome: &OptimizeOutcome) -> String {
    let space = DesignSpace::soft_fet_standard();
    let axes: Vec<&str> = space.axes().iter().map(|a| a.name).collect();
    let (_, ref_eval) = &outcome.reference;
    let best = &outcome.best;
    let frontier = pareto_frontier(&outcome.evaluated);

    let mut out = String::with_capacity(4096);
    out.push_str("{\"result\":\"");
    out.push_str(OPTIMIZE_RESULT_VERSION);
    out.push_str("\",\"algorithm\":\"");
    out.push_str(outcome.algorithm);
    out.push_str("\",\"seed\":");
    out.push_str(&work.seed.to_string());
    out.push_str(",\"generations\":");
    out.push_str(&outcome.history.len().to_string());
    out.push_str(",\"population\":");
    out.push_str(&work.population.to_string());
    out.push_str(",\"vdd\":");
    write_f64(&mut out, work.vdd);
    out.push_str(",\"axes\":[");
    for (i, name) in axes.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_escaped(&mut out, name);
    }
    out.push_str("],\"baseline\":{\"droop_mv\":");
    write_f64(&mut out, outcome.baseline.droop_mv);
    out.push_str("},\"reference\":{\"droop_reduction_pct\":");
    write_f64(&mut out, ref_eval.droop_reduction_pct);
    out.push_str(",\"delay\":");
    write_f64(&mut out, ref_eval.delay);
    out.push_str(",\"area_ratio\":");
    write_f64(&mut out, ref_eval.area_ratio);
    out.push_str("},\"best\":");
    write_point(&mut out, best);
    out.push_str(",\"beats_reference\":");
    out.push_str(
        if best.eval.feasible && best.eval.droop_reduction_pct >= ref_eval.droop_reduction_pct {
            "true"
        } else {
            "false"
        },
    );
    out.push_str(",\"frontier\":[");
    for (i, point) in frontier.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_point(&mut out, point);
    }
    out.push_str("],\"history\":[");
    for (i, g) in outcome.history.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let row = obj(vec![
            ("generation", u(g.generation as u64)),
            ("candidates", u(g.candidates as u64)),
            ("lanes", u(g.lanes as u64)),
            ("failed_lanes", u(g.failed_lanes as u64)),
            ("infeasible", u(g.infeasible as u64)),
            ("best_objective", Json::Num(g.best_objective)),
            ("best_reduction_pct", Json::Num(g.best_reduction_pct)),
            ("improved", Json::Bool(g.improved)),
        ]);
        row.write(&mut out);
    }
    out.push_str("]}");
    out
}

/// One evaluated candidate in the optimize result document.
fn write_point(out: &mut String, point: &sfet_optimize::EvaluatedPoint) {
    out.push_str("{\"generation\":");
    out.push_str(&point.generation.to_string());
    out.push_str(",\"candidate\":");
    out.push_str(&point.candidate.to_string());
    out.push_str(",\"values\":");
    write_f64_array(out, &point.values);
    out.push_str(",\"objective\":");
    write_f64(out, point.eval.objective);
    out.push_str(",\"droop_mv\":");
    write_f64(out, point.eval.droop_mv);
    out.push_str(",\"droop_reduction_pct\":");
    write_f64(out, point.eval.droop_reduction_pct);
    out.push_str(",\"delay\":");
    write_f64(out, point.eval.delay);
    out.push_str(",\"delay_penalty_pct\":");
    write_f64(out, point.eval.delay_penalty_pct);
    out.push_str(",\"area_ratio\":");
    write_f64(out, point.eval.area_ratio);
    out.push_str(",\"feasible\":");
    out.push_str(if point.eval.feasible { "true" } else { "false" });
    out.push('}');
}

fn write_key(out: &mut String, name: &str) {
    // Signal names come from the circuit builder, which rejects exotic
    // characters, but escape anyway: the encoder must never emit invalid
    // JSON.
    write_escaped(out, name);
    out.push(':');
}

fn write_f64_array(out: &mut String, values: &[f64]) {
    out.push('[');
    for (i, &v) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_f64(out, v);
    }
    out.push(']');
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfet_circuit::{Circuit, SourceWaveform};
    use sfet_sim::transient;

    fn rc_result() -> TranResult {
        let mut ckt = Circuit::new();
        let (inp, out, gnd) = (ckt.node("in"), ckt.node("out"), Circuit::ground());
        ckt.add_voltage_source("V1", inp, gnd, SourceWaveform::ramp(0.0, 1.0, 0.0, 1e-12))
            .unwrap();
        ckt.add_resistor("R1", inp, out, 1e3).unwrap();
        ckt.add_capacitor("C1", out, gnd, 1e-15).unwrap();
        transient(&ckt, 5e-12, &SimOptions::default()).unwrap()
    }

    #[test]
    fn encoding_is_deterministic_and_parses() {
        let r = rc_result();
        let a = encode_tran_result(&r);
        let b = encode_tran_result(&r);
        assert_eq!(a, b);
        let v = Json::parse(&a).unwrap();
        assert_eq!(v.get("result").and_then(Json::as_str), Some(RESULT_VERSION));
        let times = v.get("times").and_then(Json::as_arr).unwrap();
        assert_eq!(times.len(), r.times().len());
        // Samples round-trip bitwise through the JSON text.
        let out = v
            .get("nodes")
            .and_then(|n| n.get("out"))
            .and_then(Json::as_arr)
            .unwrap();
        let direct = r.node_samples("out").unwrap();
        for (enc, raw) in out.iter().zip(direct) {
            assert_eq!(enc.as_f64().unwrap().to_bits(), raw.to_bits());
        }
        assert!(v
            .get("stats")
            .and_then(|s| s.get("steps_accepted"))
            .is_some());
    }

    #[test]
    fn document_is_reserved_once_and_never_regrown() {
        // A PTM in series with a capacitor, ramped: nodes, a branch, a
        // resistance column and phase-transition events.
        let mut ckt = Circuit::new();
        let (inp, vc, gnd) = (ckt.node("in"), ckt.node("vc"), Circuit::ground());
        ckt.add_voltage_source(
            "VIN",
            inp,
            gnd,
            SourceWaveform::ramp(0.0, 1.0, 1e-11, 3e-11),
        )
        .unwrap();
        ckt.add_ptm("P1", inp, vc, sfet_devices::ptm::PtmParams::vo2_default())
            .unwrap();
        ckt.add_capacitor("C1", vc, gnd, 0.5e-15).unwrap();
        let ptm = transient(&ckt, 5e-10, &SimOptions::for_duration(5e-10, 400)).unwrap();
        assert!(!ptm.ptm_events("P1").unwrap().is_empty());

        for r in [rc_result(), ptm] {
            let doc = encode_tran_result(&r);
            // `String::with_capacity` reserves exactly the bound; a
            // regrown buffer would hold more.
            assert_eq!(doc.capacity(), tran_document_bound(&r));
        }
    }

    #[test]
    fn options_patch_parses_applies_and_rejects() {
        let body = Json::parse(r#"{"dtmax":1e-13,"method":"gear2","max_steps":500}"#).unwrap();
        let patch = OptionsPatch::from_json(Some(&body)).unwrap();
        let opts = patch.apply(SimOptions::default()).unwrap();
        assert_eq!(opts.dtmax, 1e-13);
        assert_eq!(opts.method, Method::Gear2);
        assert_eq!(opts.max_steps, 500);

        let bad = Json::parse(r#"{"reltol":5.0}"#).unwrap();
        let patch = OptionsPatch::from_json(Some(&bad)).unwrap();
        assert_eq!(
            patch.apply(SimOptions::default()).unwrap_err().code,
            "invalid_options"
        );
        let unknown = Json::parse(r#"{"frobnicate":1}"#).unwrap();
        assert!(OptionsPatch::from_json(Some(&unknown)).is_err());
        let badmethod = Json::parse(r#"{"method":"rk4"}"#).unwrap();
        assert!(OptionsPatch::from_json(Some(&badmethod)).is_err());
    }

    #[test]
    fn canonical_options_separates_only_result_relevant_fields() {
        let base = SimOptions::default();
        let a = canonical_options(&base, 1e-9, "");
        assert_eq!(a, canonical_options(&base.clone(), 1e-9, ""));
        // Telemetry attachment must not split the cache.
        let with_tel = base.clone().with_telemetry(sfet_telemetry::Telemetry::new(
            sfet_telemetry::SharedAggregator::new(),
        ));
        assert_eq!(a, canonical_options(&with_tel, 1e-9, ""));
        // tstop and dtmax do.
        assert_ne!(a, canonical_options(&base, 2e-9, ""));
        assert_ne!(
            a,
            canonical_options(&base.clone().with_dtmax(1e-13), 1e-9, "")
        );
        assert_ne!(a, canonical_options(&base, 1e-9, "soft=true"));
    }

    #[test]
    fn method_names_round_trip() {
        for m in [Method::BackwardEuler, Method::Trapezoidal, Method::Gear2] {
            assert_eq!(parse_method(method_name(m)).unwrap(), m);
        }
    }
}
