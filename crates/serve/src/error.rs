//! Server-side error model: every failure a client can observe maps to
//! one named error code and one HTTP status, documented in
//! `docs/SERVE.md`.

use std::fmt;

use sfet_telemetry::json::Object;

use crate::json::Json;

/// A client-visible API error: HTTP status + stable machine-readable
/// code + human message.
///
/// # Example
///
/// ```
/// use sfet_serve::ApiError;
///
/// let err = ApiError::invalid_json("expected ':' at byte 7");
/// assert_eq!(err.status, 400);
/// assert_eq!(err.code, "invalid_json");
/// assert!(err.to_body().contains("\"error\""));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApiError {
    /// HTTP status code.
    pub status: u16,
    /// Stable error code (see `docs/SERVE.md` for the full table).
    pub code: &'static str,
    /// Human-readable detail.
    pub message: String,
}

impl ApiError {
    /// Constructs an error from its parts.
    pub fn new(status: u16, code: &'static str, message: impl Into<String>) -> Self {
        ApiError {
            status,
            code,
            message: message.into(),
        }
    }

    /// 400 `invalid_json`: the request body failed to parse as JSON.
    pub fn invalid_json(detail: impl Into<String>) -> Self {
        Self::new(400, "invalid_json", detail)
    }

    /// 400 `invalid_request`: well-formed JSON with the wrong shape.
    pub fn invalid_request(detail: impl Into<String>) -> Self {
        Self::new(400, "invalid_request", detail)
    }

    /// 400 `unknown_scenario`: the scenario name is not registered.
    pub fn unknown_scenario(name: &str, known: &[&str]) -> Self {
        Self::new(
            400,
            "unknown_scenario",
            format!("unknown scenario {name:?}; known: {}", known.join(", ")),
        )
    }

    /// 400 `netlist_error`: the submitted netlist failed to parse/build.
    pub fn netlist_error(detail: impl fmt::Display) -> Self {
        Self::new(400, "netlist_error", detail.to_string())
    }

    /// 400 `invalid_options`: the `SimOptions` patch failed validation.
    pub fn invalid_options(detail: impl fmt::Display) -> Self {
        Self::new(400, "invalid_options", detail.to_string())
    }

    /// 404 `not_found`: no such route or job.
    pub fn not_found(detail: impl Into<String>) -> Self {
        Self::new(404, "not_found", detail)
    }

    /// 405 `method_not_allowed`.
    pub fn method_not_allowed(method: &str, path: &str) -> Self {
        Self::new(
            405,
            "method_not_allowed",
            format!("{method} is not supported on {path}"),
        )
    }

    /// 409 `job_not_done`: the result was requested before completion.
    pub fn job_not_done(state: &str) -> Self {
        Self::new(
            409,
            "job_not_done",
            format!("job is {state}; fetch the result once it is done"),
        )
    }

    /// 409 `job_failed`: the job exhausted its retries; the message
    /// carries the final simulation error.
    pub fn job_failed(detail: impl Into<String>) -> Self {
        Self::new(409, "job_failed", detail)
    }

    /// 413 `payload_too_large`.
    pub fn payload_too_large(limit: usize) -> Self {
        Self::new(
            413,
            "payload_too_large",
            format!("request body exceeds {limit} bytes"),
        )
    }

    /// 429 `queue_full`: backpressure; retry after the advertised delay.
    pub fn queue_full(capacity: usize) -> Self {
        Self::new(
            429,
            "queue_full",
            format!("job queue is at capacity ({capacity}); retry later"),
        )
    }

    /// 503 `shutting_down`: the server is draining and accepts no new
    /// work.
    pub fn shutting_down() -> Self {
        Self::new(
            503,
            "shutting_down",
            "server is draining; resubmit elsewhere",
        )
    }

    /// The JSON body for this error:
    /// `{"error":{"code":"...","message":"..."}}`.
    pub fn to_body(&self) -> String {
        let mut body = String::new();
        Object::new(&mut body)
            .object("error")
            .str("code", self.code)
            .str("message", &self.message);
        body
    }

    /// `Retry-After` seconds to advertise, for statuses that carry one.
    pub fn retry_after(&self) -> Option<u64> {
        match self.status {
            429 => Some(1),
            503 => Some(5),
            _ => None,
        }
    }
}

impl fmt::Display for ApiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}: {}", self.status, self.code, self.message)
    }
}

impl std::error::Error for ApiError {}

/// Parses an error body produced by [`ApiError::to_body`] back into its
/// (code, message) parts — the client-side helper tests use.
pub fn parse_error_body(body: &str) -> Option<(String, String)> {
    let v = Json::parse(body).ok()?;
    let e = v.get("error")?;
    Some((
        e.get("code")?.as_str()?.to_owned(),
        e.get("message")?.as_str()?.to_owned(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn body_round_trips() {
        let err = ApiError::queue_full(8);
        let (code, msg) = parse_error_body(&err.to_body()).unwrap();
        assert_eq!(code, "queue_full");
        assert!(msg.contains('8'));
        assert_eq!(err.retry_after(), Some(1));
        assert_eq!(ApiError::not_found("x").retry_after(), None);
    }
}
