//! `sfet-serve`: simulation-as-a-service for the Soft-FET repro.
//!
//! A dependency-free (std-only, thread-per-connection) HTTP/1.1 job
//! server in front of the `sfet-sim` execution engine:
//!
//! * **Wire format** ([`protocol`]): versioned JSON, parsed by [`json`]
//!   and written through `sfet_telemetry::json` — jobs name a built-in
//!   scenario or carry a SPICE-like netlist, plus an optional
//!   `SimOptions` patch and execution policy.
//! * **Scheduling** ([`scheduler`]): a bounded queue and a worker pool
//!   with per-job retries (escalating solver options) and checkpoint
//!   resume; backpressure is HTTP 429 + `Retry-After`, shutdown drains
//!   in-flight jobs.
//! * **Progress** ([`progress`]): a `TelemetrySink` adapter fans the
//!   engine's counters and spans out to Server-Sent Events on
//!   `GET /v1/jobs/{id}/events`.
//! * **Dedup** ([`store`], [`spec`]): results are content-addressed by
//!   (circuit fingerprint, canonicalised options); duplicate submissions
//!   are cache hits served from disk without re-simulation, and a served
//!   result is bitwise-identical to the direct library call.
//!
//! The full API reference lives in `docs/SERVE.md`; the architecture
//! overview in `docs/ARCHITECTURE.md`.
//!
//! # Quickstart
//!
//! ```no_run
//! use sfet_serve::{Client, ServeConfig, Server};
//! use std::sync::Arc;
//!
//! let server = Arc::new(Server::bind(
//!     "127.0.0.1:0",
//!     ServeConfig::new("/tmp/sfet-results").with_workers(4),
//! )?);
//! let handle = server.spawn();
//!
//! let client = Client::new(server.addr());
//! let result = client.run_to_result(r#"{"scenario":"power_gate_wake"}"#)?;
//! assert!(result.contains("\"result\":\"tran.v1\""));
//!
//! client.shutdown()?;
//! handle.join().unwrap();
//! # Ok::<(), std::io::Error>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod client;
pub mod error;
pub mod http;
pub mod json;
pub mod progress;
pub mod protocol;
pub mod scheduler;
pub mod server;
pub mod spec;
pub mod store;

pub use client::{Client, HttpResponse};
pub use error::ApiError;
pub use protocol::{
    encode_optimize_result, encode_tran_result, API_VERSION, OPTIMIZE_RESULT_VERSION,
    RESULT_VERSION,
};
pub use scheduler::{JobState, Scheduler, ServeConfig, SubmitReceipt};
pub use server::{Server, ENDPOINTS};
pub use spec::{JobSpec, JobWork, OptimizeWork, TranWork, SCENARIOS};
pub use store::ResultStore;
