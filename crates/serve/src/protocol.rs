//! The versioned JSON wire format: request parsing, options
//! canonicalisation, and deterministic result encoding.
//!
//! Everything here is a pure function of its inputs; the HTTP layer
//! (`server`) does transport, the scheduler does execution, and this
//! module defines *what the bytes mean*. The full schema narrative lives
//! in `docs/SERVE.md`.

use std::fmt::{Display, Write as _};

use sfet_numeric::integrate::Method;
use sfet_optimize::{
    pareto_frontier, DesignSpace, EvaluatedPoint, GenerationSummary, OptimizeOutcome,
};
use sfet_sim::{SimOptions, TranResult};
use sfet_telemetry::json::{write_f64, Object, MAX_F64_LEN};

use crate::error::ApiError;
use crate::json::Json;
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

/// A canonical `key=value` string, `;`-separated: the value-level half
/// of a cache key. Floats take the served spelling, so two canons are
/// equal iff every float field is bitwise equal.
#[derive(Debug, Default)]
pub(crate) struct Canon(pub(crate) String);

impl Canon {
    /// A float field.
    pub(crate) fn f64(mut self, key: &str, value: f64) -> Canon {
        self.field(key);
        write_f64(&mut self.0, value);
        self
    }

    /// Any other field, in its `Display` form.
    pub(crate) fn text(mut self, key: &str, value: impl Display) -> Canon {
        self.field(key);
        let _ = write!(self.0, "{value}");
        self
    }

    fn field(&mut self, key: &str) {
        if !self.0.is_empty() {
            self.0.push(';');
        }
        self.0.push_str(key);
        self.0.push('=');
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
    Canon::default()
        .f64("reltol", opts.reltol)
        .f64("vntol", opts.vntol)
        .f64("abstol", opts.abstol)
        .f64("dtmax", opts.dtmax)
        .text("method", method_name(opts.method))
        .text("max_steps", opts.max_steps)
        .f64("gmin", opts.gmin)
        .f64("dtmin", opts.dtmin)
        .text("max_newton_iter", opts.max_newton_iter)
        .f64("tstop", tstop)
        .text("extra", extra)
        .0
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
    let mut doc = Object::new(&mut out);
    doc.str("result", RESULT_VERSION)
        .f64s("times", result.times());
    let mut nodes = doc.object("nodes");
    for name in sorted(result.node_names()) {
        let samples = result
            .node_samples(name)
            .expect("name came from node_names");
        nodes.f64s(name, samples);
    }
    drop(nodes);
    let mut branches = doc.object("branches");
    for name in sorted(result.branch_names()) {
        let wave = result
            .branch_current(name)
            .expect("name came from branch_names");
        branches.f64s(name, wave.values());
    }
    drop(branches);
    let mut ptms = doc.object("ptm");
    for name in sorted(result.ptm_names()) {
        let resistance = result
            .ptm_resistance(name)
            .expect("name came from ptm_names");
        let mut ptm = ptms.object(name);
        ptm.f64s("resistance", resistance.values());
        let mut events = ptm.array("events");
        for ev in result.ptm_events(name).expect("name came from ptm_names") {
            let to = if ev.is_imt() {
                "metallic"
            } else {
                "insulating"
            };
            events.object().f64("time", ev.time).str("to", to);
        }
    }
    drop(ptms);

    let st = result.stats();
    let mut stats = doc.object("stats");
    stats
        .u64("steps_attempted", st.steps_attempted as u64)
        .u64("steps_accepted", st.steps_accepted as u64)
        .u64("steps_rejected", st.steps_rejected as u64)
        .u64("newton_iterations", st.newton_iterations as u64)
        .u64("ptm_transitions", st.ptm_transitions as u64);
    stats
        .object("solver")
        .u64("full_factorizations", st.solver.full_factorizations)
        .u64("refactorizations", st.solver.refactorizations)
        .u64("solves", st.solver.solves)
        .u64("pattern_rebuilds", st.solver.pattern_rebuilds)
        .u64("pivot_fallbacks", st.solver.pivot_fallbacks)
        .u64("factor_nnz", st.solver.factor_nnz as u64)
        .u64("gmres_iters", st.solver.gmres_iterations)
        .u64("gmres_restarts", st.solver.gmres_restarts)
        .u64("gmres_fallbacks", st.solver.gmres_fallbacks);
    drop(stats);
    drop(doc);
    out
}

/// The names sorted, so documents do not depend on map order.
fn sorted<'a>(names: impl Iterator<Item = &'a str>) -> Vec<&'a str> {
    let mut names: Vec<&str> = names.collect();
    names.sort_unstable();
    names
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
    let (_, ref_eval) = &outcome.reference;
    let best = &outcome.best;

    let mut out = String::with_capacity(4096);
    let mut doc = Object::new(&mut out);
    doc.str("result", OPTIMIZE_RESULT_VERSION)
        .str("algorithm", outcome.algorithm)
        .u64("seed", work.seed)
        .u64("generations", outcome.history.len() as u64)
        .u64("population", work.population as u64)
        .f64("vdd", work.vdd);
    let mut axes = doc.array("axes");
    for axis in space.axes() {
        axes.str(axis.name);
    }
    drop(axes);
    doc.object("baseline")
        .f64("droop_mv", outcome.baseline.droop_mv);
    doc.object("reference")
        .f64("droop_reduction_pct", ref_eval.droop_reduction_pct)
        .f64("delay", ref_eval.delay)
        .f64("area_ratio", ref_eval.area_ratio);
    write_point(&mut doc.object("best"), best);
    doc.bool(
        "beats_reference",
        best.eval.feasible && best.eval.droop_reduction_pct >= ref_eval.droop_reduction_pct,
    );
    let mut frontier = doc.array("frontier");
    for point in &pareto_frontier(&outcome.evaluated) {
        write_point(&mut frontier.object(), point);
    }
    drop(frontier);
    let mut history = doc.array("history");
    for g in &outcome.history {
        write_generation(&mut history.object(), g);
    }
    drop(history);
    drop(doc);
    out
}

/// One evaluated candidate in the optimize result document.
fn write_point(o: &mut Object<'_>, point: &EvaluatedPoint) {
    o.u64("generation", point.generation as u64)
        .u64("candidate", point.candidate as u64)
        .f64s("values", &point.values)
        .f64("objective", point.eval.objective)
        .f64("droop_mv", point.eval.droop_mv)
        .f64("droop_reduction_pct", point.eval.droop_reduction_pct)
        .f64("delay", point.eval.delay)
        .f64("delay_penalty_pct", point.eval.delay_penalty_pct)
        .f64("area_ratio", point.eval.area_ratio)
        .bool("feasible", point.eval.feasible);
}

/// One generation: a `history` row of the optimize result document and
/// the payload of its `generation` SSE event.
pub(crate) fn write_generation(o: &mut Object<'_>, g: &GenerationSummary) {
    o.u64("generation", g.generation as u64)
        .u64("candidates", g.candidates as u64)
        .u64("lanes", g.lanes as u64)
        .u64("failed_lanes", g.failed_lanes as u64)
        .u64("infeasible", g.infeasible as u64)
        .f64("best_objective", g.best_objective)
        .f64("best_reduction_pct", g.best_reduction_pct)
        .bool("improved", g.improved);
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
