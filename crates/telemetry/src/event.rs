//! The telemetry event model: what instrumented code emits and sinks
//! consume.
//!
//! An event stream is a flat sequence; span hierarchy (analysis →
//! timestep → Newton iteration) is encoded by *bracketing* — a span's
//! children are the events between its `SpanBegin` and `SpanEnd` — so no
//! parent pointers need to be threaded through the hot loops.

/// Version of the event schema.
///
/// Written into the header line of every JSONL stream. Bumped when an
/// event field or a documented name in [`names`] changes meaning;
/// *adding* counters/histograms/spans is not a schema change.
pub const SCHEMA_VERSION: u32 = 1;

/// Span verbosity level, ordered from coarsest to finest.
///
/// A [`Telemetry`](crate::Telemetry) handle carries a maximum level;
/// span requests above it are dropped before they reach the sink, so a
/// trace of a million-step transient stays bounded unless per-step or
/// per-iteration detail is explicitly requested.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Level {
    /// One span per analysis (DC solve, transient, sweep). The default.
    #[default]
    Analysis,
    /// Additionally one span per transient timestep attempt.
    Step,
    /// Additionally one span per Newton iteration.
    Iteration,
}

impl std::fmt::Display for Level {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Level::Analysis => "analysis",
            Level::Step => "step",
            Level::Iteration => "iteration",
        })
    }
}

/// One telemetry event, borrowed from the emitting call site.
///
/// Timing fields (`t_ns`, `dur_ns`) are nanoseconds on the monotonic
/// clock of the emitting [`Telemetry`](crate::Telemetry) handle (zero at
/// handle creation). All *non*-timing payloads — counter deltas and
/// histogram values — are deterministic simulation quantities, which is
/// what makes a timing-stripped stream reproducible bit-for-bit (see
/// `docs/TELEMETRY.md`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Event<'a> {
    /// A span opened. Events until the matching `SpanEnd` (same `id`)
    /// are its children.
    SpanBegin {
        /// Span name (see [`names`]).
        name: &'a str,
        /// Stream-unique span id, used to match the `SpanEnd`.
        id: u64,
        /// Monotonic begin time \[ns\].
        t_ns: u64,
    },
    /// A span closed.
    SpanEnd {
        /// Span name (same as the matching `SpanBegin`).
        name: &'a str,
        /// Id of the matching `SpanBegin`.
        id: u64,
        /// Monotonic end time \[ns\].
        t_ns: u64,
        /// Span duration \[ns\].
        dur_ns: u64,
    },
    /// A monotonic counter increment.
    Counter {
        /// Counter name (see [`names`]).
        name: &'a str,
        /// Amount added to the counter.
        delta: u64,
    },
    /// One observation of a distribution-valued quantity.
    Histogram {
        /// Histogram name (see [`names`]).
        name: &'a str,
        /// The observed value, in the unit the name documents.
        value: f64,
    },
}

/// A sink consumes telemetry events.
///
/// Sinks are driven behind a mutex by the [`Telemetry`](crate::Telemetry)
/// handle, so implementations need no interior synchronisation; they must
/// be `Send` because sweeps move handles across worker threads.
pub trait TelemetrySink: Send {
    /// Consumes one event.
    fn record(&mut self, event: &Event<'_>);

    /// Flushes any buffered output (end of analysis / program).
    fn flush(&mut self) {}
}

/// Stable event names emitted by the Soft-FET stack.
///
/// The constants below are the public contract between the simulator and
/// trace consumers; `docs/TELEMETRY.md` documents each one's meaning and
/// unit. Solver counters are emitted with an analysis prefix
/// (`dc.` / `tran.` / `ac.`) joined with a `.` — e.g.
/// `tran.solver.refactorizations`.
pub mod names {
    // --- Spans. ---
    /// Analysis span: one DC operating-point solve (all strategies).
    pub const SPAN_DC: &str = "dc";
    /// Analysis span: one transient run.
    pub const SPAN_TRANSIENT: &str = "transient";
    /// Analysis span: one quasi-static DC sweep.
    pub const SPAN_DC_SWEEP: &str = "dc_sweep";
    /// Analysis span: one AC small-signal sweep.
    pub const SPAN_AC_SWEEP: &str = "ac_sweep";
    /// Step-level span: one transient timestep attempt.
    pub const SPAN_TIMESTEP: &str = "timestep";
    /// Iteration-level span: one Newton iteration (linearise + solve).
    pub const SPAN_NEWTON_ITER: &str = "newton_iter";
    /// Analysis span: one `par_map` sweep execution.
    pub const SPAN_PAR_MAP: &str = "exec.par_map";

    // --- Transient counters (totals match `TranStats`). ---
    /// Transient step attempts (accepted + rejected).
    pub const TRAN_STEPS_ATTEMPTED: &str = "tran.steps_attempted";
    /// Accepted transient steps.
    pub const TRAN_STEPS_ACCEPTED: &str = "tran.steps_accepted";
    /// Rejected transient step attempts (all causes).
    pub const TRAN_STEPS_REJECTED: &str = "tran.steps_rejected";
    /// Newton iterations across all transient solves.
    pub const TRAN_NEWTON_ITERATIONS: &str = "tran.newton_iterations";
    /// PTM phase transitions fired during the transient.
    pub const TRAN_PTM_TRANSITIONS: &str = "tran.ptm_transitions";
    /// Steps rejected by the local-truncation-error controller.
    pub const TRAN_LTE_REJECTIONS: &str = "tran.lte_rejections";
    /// Accepted steps after which `dt` was grown.
    pub const TRAN_DT_GROWTHS: &str = "tran.dt_growths";
    /// Accepted steps after which `dt` was shrunk.
    pub const TRAN_DT_SHRINKS: &str = "tran.dt_shrinks";

    // --- DC counters (totals match `DcStats`). ---
    /// Newton iterations across all DC escalation strategies.
    pub const DC_NEWTON_ITERATIONS: &str = "dc.newton_iterations";
    /// Gmin-stepping continuation solves attempted.
    pub const DC_GMIN_STEPS: &str = "dc.gmin_steps";
    /// Source-stepping continuation solves attempted.
    pub const DC_SOURCE_STEPS: &str = "dc.source_steps";

    // --- PTM device counters. ---
    /// Insulator→metal transitions fired (IMT).
    pub const PTM_IMT_EVENTS: &str = "ptm.imt_events";
    /// Metal→insulator transitions fired (MIT).
    pub const PTM_MIT_EVENTS: &str = "ptm.mit_events";

    // --- Sweep-engine counters (emitted once, after the join, from the
    // --- coordinator thread; the worker count is deliberately *not*
    // --- emitted so traces stay identical across `SFET_THREADS`). ---
    /// Tasks that ran to completion in a sweep.
    pub const EXEC_TASKS_COMPLETED: &str = "exec.tasks_completed";
    /// Tasks submitted to a sweep.
    pub const EXEC_TASKS_TOTAL: &str = "exec.tasks_total";
    /// Retry attempts consumed across a verdict sweep
    /// (`par_map_outcomes`); zero when every task succeeded first try.
    pub const EXEC_TASKS_RETRIED: &str = "exec.task.retried";
    /// Tasks a journalled verdict sweep decoded from its manifest instead
    /// of running (not counted in `exec.tasks_total`).
    pub const EXEC_TASKS_RESUMED: &str = "exec.tasks_resumed";

    // --- Tiled-sweep counters: emitted once per sweep from the
    // --- coordinator, alongside the per-*task* counters above (which keep
    // --- their per-item meaning — totals match a per-item run of the same
    // --- sweep). ---
    /// Tiles a tiled sweep was split into (`ceil(tasks / width)`).
    pub const EXEC_BATCH_TILES: &str = "exec.batch.tiles";
    /// Resolved lane width of a tiled sweep.
    pub const EXEC_BATCH_WIDTH: &str = "exec.batch.width";
    /// Lanes that exhausted their retry budget in a tiled verdict sweep
    /// and were reported as `SweepOutcome::Failed`.
    pub const EXEC_BATCH_LANE_FAILURES: &str = "exec.batch.lane_failures";

    // --- Job-server counters (`sfet-serve`). ---
    /// Jobs accepted by the server (cache hits, coalesced, and enqueued).
    pub const SERVE_JOBS_SUBMITTED: &str = "serve.jobs.submitted";
    /// Submissions answered from the on-disk result store without
    /// re-simulation.
    pub const SERVE_CACHE_HIT: &str = "serve.cache.hit";
    /// Submissions that had no stored result and were enqueued (or
    /// coalesced onto an in-flight run) for simulation.
    pub const SERVE_CACHE_MISS: &str = "serve.cache.miss";
    /// Submissions coalesced onto an already queued/running job with the
    /// same cache key (a subset of `serve.cache.miss`).
    pub const SERVE_JOBS_COALESCED: &str = "serve.jobs.coalesced";
    /// Jobs that ran a simulation to completion on the worker pool.
    pub const SERVE_JOBS_COMPLETED: &str = "serve.jobs.completed";
    /// Jobs that exhausted their retry budget and were reported failed.
    pub const SERVE_JOBS_FAILED: &str = "serve.jobs.failed";
    /// Retry attempts consumed by jobs on the worker pool.
    pub const SERVE_JOB_RETRIED: &str = "serve.job.retried";
    /// Submissions rejected with HTTP 429 because the job queue was full.
    pub const SERVE_QUEUE_REJECTED: &str = "serve.queue.rejected";

    // --- Design-space optimizer counters (`sfet-optimize`). ---
    /// Optimizer generations completed (one batched sweep each).
    pub const OPT_GENERATIONS: &str = "opt.generations";
    /// Candidate design points scored across all generations.
    pub const OPT_CANDIDATES: &str = "opt.candidates";
    /// Simulation lanes evaluated (corners + Monte-Carlo samples summed
    /// over candidates).
    pub const OPT_LANES: &str = "opt.lanes";
    /// Candidates rejected as constraint-infeasible (iso-delay or yield).
    pub const OPT_INFEASIBLE: &str = "opt.infeasible";
    /// Candidates whose evaluation failed terminally (a lane exhausted
    /// its retry budget).
    pub const OPT_FAILED: &str = "opt.failed";
    /// Generations that improved the incumbent best objective.
    pub const OPT_IMPROVED: &str = "opt.improved";

    // --- Checkpoint/restart counters (`sfet_sim::transient`). ---
    /// Transient checkpoint snapshots written to disk.
    pub const CHECKPOINT_WRITTEN: &str = "checkpoint.written";
    /// Transient runs resumed from an on-disk snapshot.
    pub const CHECKPOINT_RESUMED: &str = "checkpoint.resumed";

    // --- Linear-solver counter suffixes (prefix with `dc.`/`tran.`/`ac.`). ---
    /// Full factorisations (symbolic + pivot search + numeric).
    pub const SOLVER_FULL_FACTORIZATIONS: &str = "solver.full_factorizations";
    /// Numeric-only refactorisations along a cached pivot order.
    pub const SOLVER_REFACTORIZATIONS: &str = "solver.refactorizations";
    /// Forward/back-substitution solves.
    pub const SOLVER_SOLVES: &str = "solver.solves";
    /// Sparse stamp-pattern compilations.
    pub const SOLVER_PATTERN_REBUILDS: &str = "solver.pattern_rebuilds";
    /// Refactorisations rejected for pivot degradation and retried fully.
    pub const SOLVER_PIVOT_FALLBACKS: &str = "solver.pivot_fallbacks";
    /// GMRES inner (Arnoldi) iterations across all iterative solves.
    pub const SOLVER_GMRES_ITERS: &str = "solver.gmres.iters";
    /// GMRES restart cycles beyond the first per solve.
    pub const SOLVER_GMRES_RESTARTS: &str = "solver.gmres.restarts";
    /// Iterative solves that stagnated and fell back to a direct LU.
    pub const SOLVER_GMRES_FALLBACKS: &str = "solver.gmres.fallbacks";

    // --- Histograms. ---
    /// Accepted transient step sizes \[s\].
    pub const H_TRAN_DT: &str = "tran.dt_seconds";
    /// Newton iterations per accepted transient step.
    pub const H_TRAN_STEP_ITERS: &str = "tran.newton_iters_per_step";
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_ordering_coarse_to_fine() {
        assert!(Level::Analysis < Level::Step);
        assert!(Level::Step < Level::Iteration);
        assert_eq!(Level::default(), Level::Analysis);
        assert_eq!(Level::Step.to_string(), "step");
    }

    #[test]
    fn schema_version_pinned() {
        assert_eq!(SCHEMA_VERSION, 1);
    }
}
