//! Zero-cost-when-disabled observability for the Soft-FET simulation
//! stack.
//!
//! The paper's claims (peak current, di/dt, droop) are measurements over
//! transient dynamics; this crate makes the *solver* side of those runs
//! observable: hierarchical spans (analysis → timestep → Newton
//! iteration) with monotonic timing, counters for step accepts/rejects,
//! factor-reuse hits, pivot fallbacks, and PTM IMT/MIT transition
//! events, plus histograms for step sizes and iteration counts.
//!
//! # Design
//!
//! - Instrumented code holds a [`Telemetry`] handle. The default handle
//!   is **disabled** and every emit method is a branch on a `None` —
//!   no clock read, no lock, no allocation — so instrumentation lives
//!   in hot loops unconditionally (enforced by a counting-allocator
//!   test in `sfet-numeric`).
//! - Enabled handles drive a [`TelemetrySink`]. Three sinks ship:
//!   [`Aggregator`] / [`SharedAggregator`] (in-memory totals with
//!   deterministic [`merge`](Aggregator::merge) for parallel sweeps),
//!   [`JsonlSink`] (streaming JSON Lines trace), and [`SummarySink`]
//!   (human-readable end-of-run table). [`Tee`] fans out to several.
//! - [`json`] is the workspace's one JSON writer: the JSONL sink, the
//!   job server and the benchmark binaries all append through it.
//! - Span volume is bounded by [`Level`]: per-step and per-iteration
//!   spans are only emitted when explicitly requested.
//! - Determinism: wall-clock time appears **only** in span timing
//!   fields. Counter deltas and histogram values are pure simulation
//!   quantities, so a [`JsonlSink`] with timings disabled produces
//!   bitwise-identical streams regardless of thread count.
//!
//! The stable event names live in [`names`]; the schema is documented
//! in `docs/TELEMETRY.md` at the repository root.
//!
//! # Examples
//!
//! Aggregate a few events and render the summary table:
//!
//! ```
//! use sfet_telemetry::{names, Level, SharedAggregator, Telemetry};
//!
//! let agg = SharedAggregator::new();
//! let tel = Telemetry::new(agg.clone());
//!
//! {
//!     let _run = tel.span(Level::Analysis, names::SPAN_TRANSIENT);
//!     tel.counter(names::TRAN_STEPS_ACCEPTED, 128);
//!     tel.counter(names::TRAN_STEPS_REJECTED, 3);
//!     tel.histogram(names::H_TRAN_DT, 2.5e-12);
//! }
//! tel.flush();
//!
//! let snapshot = agg.snapshot();
//! assert_eq!(snapshot.counter(names::TRAN_STEPS_ACCEPTED), 128);
//! let table = snapshot.render_table();
//! assert!(table.contains("tran.steps_accepted"));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod aggregate;
mod event;
mod handle;
pub mod json;
mod jsonl;

pub use aggregate::{
    Aggregator, HistogramSummary, SharedAggregator, SpanSummary, SummarySink, Tee,
};
pub use event::{names, Event, Level, TelemetrySink, SCHEMA_VERSION};
pub use handle::{SpanGuard, Telemetry};
pub use jsonl::JsonlSink;
