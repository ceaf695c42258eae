//! A minimal blocking client for the job API, used by the loopback
//! tests, perfbench's `serve_mixed` workload, and scripts that want the
//! server without hand-writing HTTP.
//!
//! One `TcpStream` per request (the server is `Connection: close`), so a
//! `Client` is just an address and is freely cloneable across threads.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};

use crate::error::ApiError;
use crate::json::Json;

/// A parsed HTTP response: status code, `Retry-After` (when present),
/// body text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpResponse {
    /// HTTP status code.
    pub status: u16,
    /// `Retry-After` header value, seconds, when the server sent one.
    pub retry_after: Option<u64>,
    /// Response body.
    pub body: String,
}

impl HttpResponse {
    /// Parses the body as JSON.
    ///
    /// # Errors
    ///
    /// The parse error text for non-JSON bodies.
    pub fn json(&self) -> Result<Json, String> {
        Json::parse(&self.body)
    }

    /// Converts an error response back into the [`ApiError`] shape the
    /// server raised (status + code + message).
    pub fn as_api_error(&self) -> Option<ApiError> {
        let (code, message) = crate::error::parse_error_body(&self.body)?;
        // Leak-free static lookup: match the known codes back to their
        // `&'static str` spellings.
        let code: &'static str = match code.as_str() {
            "invalid_json" => "invalid_json",
            "invalid_request" => "invalid_request",
            "unknown_scenario" => "unknown_scenario",
            "netlist_error" => "netlist_error",
            "invalid_options" => "invalid_options",
            "not_found" => "not_found",
            "method_not_allowed" => "method_not_allowed",
            "job_not_done" => "job_not_done",
            "job_failed" => "job_failed",
            "payload_too_large" => "payload_too_large",
            "queue_full" => "queue_full",
            "shutting_down" => "shutting_down",
            "store_error" => "store_error",
            "io_error" => "io_error",
            _ => "unknown",
        };
        Some(ApiError::new(self.status, code, message))
    }
}

/// Blocking client for one server address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Client {
    addr: SocketAddr,
}

impl Client {
    /// A client for the server at `addr`.
    pub fn new(addr: SocketAddr) -> Client {
        Client { addr }
    }

    /// `POST /v1/jobs` with a raw JSON body.
    ///
    /// # Errors
    ///
    /// Transport failures only — HTTP-level errors come back as the
    /// response's status/body.
    pub fn submit_raw(&self, body: &str) -> std::io::Result<HttpResponse> {
        self.request("POST", "/v1/jobs", Some(body))
    }

    /// `GET /v1/jobs/{id}`.
    ///
    /// # Errors
    ///
    /// Transport failures only.
    pub fn status(&self, job_id: &str) -> std::io::Result<HttpResponse> {
        self.request("GET", &format!("/v1/jobs/{job_id}"), None)
    }

    /// `GET /v1/jobs/{id}/result`.
    ///
    /// # Errors
    ///
    /// Transport failures only.
    pub fn result(&self, job_id: &str) -> std::io::Result<HttpResponse> {
        self.request("GET", &format!("/v1/jobs/{job_id}/result"), None)
    }

    /// `GET /v1/healthz`.
    ///
    /// # Errors
    ///
    /// Transport failures only.
    pub fn health(&self) -> std::io::Result<HttpResponse> {
        self.request("GET", "/v1/healthz", None)
    }

    /// `POST /v1/shutdown` (graceful drain).
    ///
    /// # Errors
    ///
    /// Transport failures only.
    pub fn shutdown(&self) -> std::io::Result<HttpResponse> {
        self.request("POST", "/v1/shutdown", None)
    }

    /// `GET /v1/jobs/{id}/events`: reads the SSE stream to its end and
    /// returns every `(event, data)` pair in order. Blocks until the
    /// job reaches a terminal state.
    ///
    /// # Errors
    ///
    /// Transport failures, or a non-SSE response (e.g. a 404 for an
    /// unknown job) surfaced as `InvalidData` with the body text.
    pub fn follow_events(&self, job_id: &str) -> std::io::Result<Vec<(String, String)>> {
        let mut stream = TcpStream::connect(self.addr)?;
        write!(
            stream,
            "GET /v1/jobs/{job_id}/events HTTP/1.1\r\nHost: sfet\r\n\
             Accept: text/event-stream\r\nConnection: close\r\n\r\n"
        )?;
        stream.flush()?;
        let mut reader = BufReader::new(stream);

        let mut status_line = String::new();
        reader.read_line(&mut status_line)?;
        let is_sse = {
            let mut content_type = String::new();
            loop {
                let mut line = String::new();
                if reader.read_line(&mut line)? == 0 || line.trim().is_empty() {
                    break;
                }
                if let Some((name, value)) = line.split_once(':') {
                    if name.trim().eq_ignore_ascii_case("content-type") {
                        content_type = value.trim().to_owned();
                    }
                }
            }
            content_type.starts_with("text/event-stream")
        };
        if !is_sse {
            let mut body = String::new();
            reader.read_to_string(&mut body)?;
            return Err(std::io::Error::new(std::io::ErrorKind::InvalidData, body));
        }

        let mut events = Vec::new();
        let mut pending_event = String::new();
        loop {
            let mut line = String::new();
            if reader.read_line(&mut line)? == 0 {
                return Ok(events);
            }
            let line = line.trim_end_matches(['\r', '\n']);
            if let Some(name) = line.strip_prefix("event: ") {
                pending_event = name.to_owned();
            } else if let Some(data) = line.strip_prefix("data: ") {
                events.push((std::mem::take(&mut pending_event), data.to_owned()));
            }
        }
    }

    /// Submits, waits for the terminal SSE event, and fetches the
    /// result document — the whole happy path in one call.
    ///
    /// # Errors
    ///
    /// Transport failures, a rejected submission, or a failed job, all
    /// as `InvalidData` errors carrying the server's message.
    pub fn run_to_result(&self, body: &str) -> std::io::Result<String> {
        let bad = |msg: String| std::io::Error::new(std::io::ErrorKind::InvalidData, msg);
        let submitted = self.submit_raw(body)?;
        if submitted.status >= 400 {
            return Err(bad(submitted.body));
        }
        let response = submitted.json().map_err(bad)?;
        let job_id = response
            .get("job_id")
            .and_then(|j| j.as_str())
            .ok_or_else(|| bad("submit response missing job_id".into()))?
            .to_owned();
        let events = self.follow_events(&job_id)?;
        if let Some((name, data)) = events.last() {
            if name == "failed" {
                return Err(bad(format!("job failed: {data}")));
            }
        }
        let result = self.result(&job_id)?;
        if result.status != 200 {
            return Err(bad(result.body));
        }
        Ok(result.body)
    }

    fn request(
        &self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> std::io::Result<HttpResponse> {
        let mut stream = TcpStream::connect(self.addr)?;
        let body = body.unwrap_or("");
        write!(
            stream,
            "{method} {path} HTTP/1.1\r\nHost: sfet\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        )?;
        stream.flush()?;
        read_response(stream)
    }
}

/// Parses a fixed-length (or to-EOF) HTTP response off `stream`.
fn read_response(stream: TcpStream) -> std::io::Result<HttpResponse> {
    let bad = |msg: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, msg);
    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    reader.read_line(&mut status_line)?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("malformed status line"))?;

    let mut content_length: Option<usize> = None;
    let mut retry_after: Option<u64> = None;
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 || line.trim().is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            let value = value.trim();
            match name.trim().to_ascii_lowercase().as_str() {
                "content-length" => content_length = value.parse().ok(),
                "retry-after" => retry_after = value.parse().ok(),
                _ => {}
            }
        }
    }

    let body = match content_length {
        Some(n) => {
            let mut buf = vec![0u8; n];
            reader.read_exact(&mut buf)?;
            String::from_utf8(buf).map_err(|_| bad("non-UTF-8 response body"))?
        }
        None => {
            let mut buf = String::new();
            reader.read_to_string(&mut buf)?;
            buf
        }
    };
    Ok(HttpResponse {
        status,
        retry_after,
        body,
    })
}
