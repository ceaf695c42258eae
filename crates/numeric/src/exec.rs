//! Deterministic parallel sweep engine.
//!
//! Every headline figure of the paper is a parameter sweep or Monte-Carlo
//! population: embarrassingly parallel, but only useful for regression work
//! if the parallel run is **bitwise identical** to the serial one. This
//! module is the single execution substrate all sweeps route through: one
//! private tile scheduler behind two entry points, one per failure
//! contract.
//!
//! * [`par_map`] — one attempt per task, and the first failure cancels the
//!   rest: workers stop claiming work, and the error is reported as a
//!   [`TaskError`] carrying the offending task index.
//! * [`par_map_outcomes`] — every task runs to a verdict
//!   ([`SweepOutcome`]) under the [`ExecConfig::with_retries`] budget,
//!   optionally journalled to a manifest ([`crate::manifest::Journal`]) so
//!   a killed sweep resumes where it stopped.
//!
//! Each takes a [`Task`]: per item ([`Task::Each`], a tile of width 1) or
//! tiled ([`Task::Tiled`]), whose first attempts run
//! [`ExecConfig::resolved_batch`] lanes at a time and whose retries run
//! one item at a time. Each reports [`ExecStats`] with its values.
//!
//! * **Scheduling** — tasks are cut into tiles in input order; workers
//!   claim tiles from a shared atomic cursor (per-item sweeps claim runs of
//!   up to 64 tiles, about four claims per worker), and each lane writes its
//!   result into its own pre-allocated slot — no lock around the results,
//!   and the output order never depends on thread scheduling.
//! * **Determinism** — a task's result depends only on
//!   `(index, attempt, item)`. Randomised tasks derive their RNG stream
//!   from [`task_seed`]`(base_seed, index)` (SplitMix64), never from shared
//!   mutable state, so any worker count produces identical bits; tiling is
//!   a fixed function of the task count and lane width.
//! * **Instrumentation** — [`ExecStats`] reports tasks completed, wall
//!   time, and worker utilization; [`ExecConfig`] takes a telemetry
//!   handle.
//!
//! The worker count defaults to the machine's parallelism and can be pinned
//! with the `SFET_THREADS` environment variable (or per-call with
//! [`ExecConfig::with_workers`]).
//!
//! # Example
//!
//! ```
//! use sfet_numeric::exec::{par_map, ExecConfig, Task};
//!
//! let (squares, stats) = par_map(
//!     &ExecConfig::from_env(),
//!     &[1u64, 2, 3, 4],
//!     Task::Each(&|_, _, &x| Ok::<_, std::convert::Infallible>(x * x)),
//! )
//! .unwrap();
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! assert_eq!(stats.tasks_completed, 4);
//! ```

use std::cell::UnsafeCell;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Once, OnceLock};
use std::time::{Duration, Instant};

use crate::fault::FaultPlan;
use crate::manifest::{Journal, ManifestError};
use sfet_telemetry::{names, Level, Telemetry};

/// Environment variable overriding the worker count for all sweeps.
pub const THREADS_ENV: &str = "SFET_THREADS";

/// Environment variable overriding the lane width for batched sweeps.
pub const BATCH_ENV: &str = "SFET_BATCH";

/// Default lane width when neither [`ExecConfig::with_batch`] nor
/// `SFET_BATCH` picks one. Wide enough to amortise per-batch setup
/// (lane setup, the SoA factor's bookkeeping) while keeping a tile's
/// working set cache-resident for cell-level circuits.
const DEFAULT_BATCH: usize = 8;

/// The body of a [`Task::Each`]: `(index, attempt, &item)`.
pub type EachFn<'a, T, U, E> = dyn Fn(usize, usize, &T) -> Result<U, E> + Sync + 'a;

/// The body of a [`Task::Tiled`]: `(attempt, lanes)` over
/// `(input index, &item)` lanes, one result per lane in lane order.
pub type TileFn<'a, T, U, E> = dyn Fn(usize, &[(usize, &T)]) -> Vec<Result<U, E>> + Sync + 'a;

/// Execution policy for [`par_map`] and [`par_map_outcomes`]: worker
/// count, lane width, retries, fault plan and telemetry.
/// Cheap to clone.
#[derive(Clone, Debug, Default)]
pub struct ExecConfig {
    workers: Option<usize>,
    telemetry: Telemetry,
    /// Extra attempts granted to each task of a verdict sweep (total
    /// attempts = `retries + 1`). Ignored by the cancel-on-first-error
    /// [`par_map`] entry point.
    retries: usize,
    /// Optional fault-injection plan, consulted by sweep *callers* to
    /// synthesise per-task failures (the engine itself stays generic over
    /// the error type).
    fault: Option<FaultPlan>,
    /// Lane width of [`Task::Tiled`] sweeps; `None` resolves to the
    /// default. Ignored by per-item sweeps.
    batch: Option<usize>,
}

impl ExecConfig {
    /// Auto configuration: workers from `SFET_THREADS` and the lane width
    /// from `SFET_BATCH` if set and valid (an invalid value warns once on
    /// stderr and falls back to the default), plus any fault plan armed
    /// through `SFET_FAULT_PLAN`.
    pub fn from_env() -> Self {
        static THREADS_WARNED: Once = Once::new();
        static BATCH_WARNED: Once = Once::new();
        ExecConfig {
            workers: positive_from_env(THREADS_ENV, "worker count", &THREADS_WARNED),
            fault: FaultPlan::from_env(),
            batch: positive_from_env(BATCH_ENV, "batch width", &BATCH_WARNED),
            ..Default::default()
        }
    }

    /// Pins the worker count (values are clamped to at least 1).
    pub fn with_workers(workers: usize) -> Self {
        ExecConfig {
            workers: Some(workers.max(1)),
            ..Default::default()
        }
    }

    /// Strictly serial execution on the calling thread.
    pub fn serial() -> Self {
        Self::with_workers(1)
    }

    /// Attaches a telemetry handle. Each sweep then emits one
    /// `exec.par_map` span plus `exec.tasks_total` / `exec.tasks_completed`
    /// counters — all from the *coordinator* thread after the join, so the
    /// event order is independent of worker scheduling (and of the worker
    /// count itself).
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// The telemetry handle attached to this configuration (disabled by
    /// default).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Grants each task of a verdict sweep up to `retries` re-runs after a
    /// failure (so every task gets `retries + 1` attempts). Only
    /// [`par_map_outcomes`] honours this; [`par_map`] keeps its
    /// cancel-on-first-error contract.
    pub fn with_retries(mut self, retries: usize) -> Self {
        self.retries = retries;
        self
    }

    /// Total attempts each task of a verdict sweep receives.
    pub fn max_attempts(&self) -> usize {
        self.retries + 1
    }

    /// Attaches a fault-injection plan for sweep callers to consult (see
    /// [`FaultPlan::fail_task`]).
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault = Some(plan);
        self
    }

    /// The fault-injection plan attached to this configuration, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault.as_ref()
    }

    /// Pins the lane width of [`Task::Tiled`] sweeps (clamped to at least
    /// 1). The result of a tiled sweep never depends on the lane width —
    /// only its throughput does — so this is a tuning knob, not a semantic
    /// one.
    pub fn with_batch(mut self, batch: usize) -> Self {
        self.batch = Some(batch.max(1));
        self
    }

    /// The lane width a tiled sweep of `n_items` tasks resolves to: the
    /// pinned/`SFET_BATCH` width if any, else the default, clamped so a
    /// tile never exceeds the task count.
    pub fn resolved_batch(&self, n_items: usize) -> usize {
        self.batch
            .unwrap_or(DEFAULT_BATCH)
            .max(1)
            .min(n_items.max(1))
    }

    /// The worker count this configuration resolves to for `n_items` tasks.
    pub fn resolved_workers(&self, n_items: usize) -> usize {
        let auto = || {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
        };
        self.workers.unwrap_or_else(auto).max(1).min(n_items.max(1))
    }
}

/// The number of consecutive tasks a worker of a per-item ([`Task::Each`])
/// sweep claims at once: about 4 claims per worker, so stragglers can be
/// stolen, without degenerating to per-item claims for large sweeps.
/// Tiled sweeps claim one tile at a time.
fn resolved_chunk(n_items: usize, workers: usize) -> usize {
    (n_items / (4 * workers)).clamp(1, 64)
}

/// Parses a positive-integer override read from `var`, or returns the
/// warning [`ExecConfig::from_env`] prints before falling back to the
/// default `fallback` (a zero, empty, or non-numeric value).
fn parse_positive(var: &str, raw: &str, fallback: &str) -> Result<usize, String> {
    match raw.trim().parse::<usize>() {
        Ok(0) | Err(_) => Err(format!(
            "{var}={raw:?} is not a positive integer; falling back to the default {fallback}"
        )),
        Ok(n) => Ok(n),
    }
}

/// Reads a positive-integer override from `var`, warning (once per
/// process and variable, on stderr, through `warned`) and returning `None`
/// for invalid values such as `0`, `""`, or `"abc"` instead of silently
/// misconfiguring the sweep.
fn positive_from_env(var: &str, fallback: &str, warned: &Once) -> Option<usize> {
    let raw = std::env::var(var).ok()?;
    match parse_positive(var, &raw, fallback) {
        Ok(n) => Some(n),
        Err(warning) => {
            warned.call_once(|| eprintln!("warning: {warning}"));
            None
        }
    }
}

/// A task failure annotated with the index of the task that failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskError<E> {
    /// Index of the offending task in the input slice.
    pub index: usize,
    /// The underlying error.
    pub source: E,
}

impl<E: fmt::Display> fmt::Display for TaskError<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sweep task #{} failed: {}", self.index, self.source)
    }
}

impl<E: std::error::Error + 'static> std::error::Error for TaskError<E> {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// Instrumentation from one sweep. Counts are per *task*, never per tile:
/// `tasks_total` is the number of tasks the sweep ran (a journalled sweep
/// leaves out the ones it resumed), and `workers` resolves against that
/// task count.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ExecStats {
    /// Tasks that ran to completion (success or failure).
    pub tasks_completed: usize,
    /// Total tasks submitted.
    pub tasks_total: usize,
    /// Workers used.
    pub workers: usize,
    /// Wall-clock duration of the whole map.
    pub wall: Duration,
    /// Sum of per-task execution times across all workers.
    pub busy: Duration,
}

impl ExecStats {
    /// Fraction of worker-seconds spent inside tasks, in `[0, 1]`.
    /// `1.0` means every worker was busy for the whole wall time.
    pub fn utilization(&self) -> f64 {
        let denom = self.wall.as_secs_f64() * self.workers as f64;
        if denom > 0.0 {
            (self.busy.as_secs_f64() / denom).min(1.0)
        } else {
            0.0
        }
    }
}

/// Derives the RNG seed for task `index` of a sweep seeded with
/// `base_seed`, via SplitMix64.
///
/// For a fixed `base_seed` the mapping `index -> seed` is injective (the
/// SplitMix64 finaliser is a bijection applied to distinct inputs), so task
/// streams never collide, and a task's stream depends only on
/// `(base_seed, index)` — the foundation of the serial/parallel determinism
/// guarantee for Monte-Carlo sweeps.
pub fn task_seed(base_seed: u64, index: u64) -> u64 {
    // Mix the base seed through one finaliser round, offset by the index on
    // the Weyl sequence, and finalise again. Distinct indices stay distinct
    // because the offset is a multiple of an odd constant.
    splitmix64(splitmix64(base_seed).wrapping_add(index.wrapping_mul(0x9e37_79b9_7f4a_7c15)))
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Outcome of one task in a verdict sweep ([`par_map_outcomes`]).
///
/// Unlike [`par_map`]'s cancel-on-first-error contract, a verdict sweep
/// always runs every task to a verdict: the result vector has one entry per
/// input item, in input order, and failed tasks report how many attempts
/// were spent and the error of the *last* attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SweepOutcome<U, E> {
    /// The task succeeded (possibly after retries).
    Ok {
        /// The task's result.
        value: U,
        /// Attempts consumed, `1..=ExecConfig::max_attempts()`.
        attempts: usize,
    },
    /// The task failed every granted attempt.
    Failed {
        /// Attempts consumed (always `ExecConfig::max_attempts()`).
        attempts: usize,
        /// The error of the final attempt.
        error: E,
    },
}

impl<U, E> SweepOutcome<U, E> {
    /// `true` for a successful outcome.
    pub fn is_ok(&self) -> bool {
        matches!(self, SweepOutcome::Ok { .. })
    }

    /// Attempts consumed by this task.
    pub fn attempts(&self) -> usize {
        match self {
            SweepOutcome::Ok { attempts, .. } | SweepOutcome::Failed { attempts, .. } => *attempts,
        }
    }

    /// The successful value, if any.
    pub fn value(&self) -> Option<&U> {
        match self {
            SweepOutcome::Ok { value, .. } => Some(value),
            SweepOutcome::Failed { .. } => None,
        }
    }

    /// Consumes the outcome, yielding the successful value if any.
    pub fn into_value(self) -> Option<U> {
        match self {
            SweepOutcome::Ok { value, .. } => Some(value),
            SweepOutcome::Failed { .. } => None,
        }
    }

    /// The final error, if the task failed.
    pub fn error(&self) -> Option<&E> {
        match self {
            SweepOutcome::Failed { error, .. } => Some(error),
            SweepOutcome::Ok { .. } => None,
        }
    }
}

/// The work of one sweep, in one of two shapes. Both see the attempt
/// number (counting from 0), so a retry can escalate its solver options;
/// [`par_map`] only ever runs attempt 0.
///
/// Determinism contract: a task's result must depend only on
/// `(index, attempt, item)` — never on which lanes share its tile — so a
/// sweep's values are identical for any worker count and lane width.
pub enum Task<'a, T, U, E> {
    /// `f(index, attempt, &item)`, one item at a time: a tile of width 1.
    Each(&'a EachFn<'a, T, U, E>),
    /// `f(attempt, lanes)` over `(input index, &item)` lanes, returning one
    /// result per lane in lane order. First attempts get up to
    /// [`ExecConfig::resolved_batch`] lanes; retries get one. The indices
    /// of a tile need not be contiguous (a resumed journal runs only its
    /// pending tasks).
    Tiled(&'a TileFn<'a, T, U, E>),
}

impl<T, U, E> Task<'_, T, U, E> {
    fn is_tiled(&self) -> bool {
        matches!(self, Task::Tiled(_))
    }

    /// Runs attempt `attempt` of the tasks at input indices `lanes`.
    fn run(&self, attempt: usize, items: &[T], lanes: &[usize]) -> Vec<Result<U, E>> {
        match self {
            Task::Each(f) => lanes.iter().map(|&i| f(i, attempt, &items[i])).collect(),
            Task::Tiled(f) => {
                let tile: Vec<(usize, &T)> = lanes.iter().map(|&i| (i, &items[i])).collect();
                let results = f(attempt, &tile);
                assert_eq!(
                    results.len(),
                    lanes.len(),
                    "a tiled task must return one result per lane"
                );
                results
            }
        }
    }
}

/// Order-preserving parallel map with cancel-on-first-error: runs attempt
/// 0 of `task` on every item and returns the values in input order, with
/// the run's [`ExecStats`]. The first failure stops workers from claiming
/// more work. See the module docs for the determinism contract.
///
/// Telemetry: one `exec.par_map` span holding the `exec.tasks_total` and
/// `exec.tasks_completed` counters (plus `exec.batch.tiles` and
/// `exec.batch.width` for a tiled task), all emitted from the calling
/// thread after the join.
///
/// # Errors
///
/// The lowest-indexed task error observed, wrapped in [`TaskError`] with
/// the task's input index.
pub fn par_map<T, U, E>(
    config: &ExecConfig,
    items: &[T],
    task: Task<'_, T, U, E>,
) -> Result<(Vec<U>, ExecStats), TaskError<E>>
where
    T: Sync,
    U: Send,
    E: Send,
{
    let pending: Vec<usize> = (0..items.len()).collect();
    let (slots, stats) = schedule(config, items.len(), &pending, task.is_tiled(), |lanes| {
        let results = task.run(0, items, lanes);
        let failed = results.iter().any(Result::is_err);
        (results, failed)
    });
    let mut values = Vec::with_capacity(items.len());
    for (index, slot) in slots.into_iter().enumerate() {
        match slot {
            Some(Ok(value)) => values.push(value),
            // The lowest-indexed error: with ascending claims it is always
            // one a serial run could also have hit.
            Some(Err(source)) => return Err(TaskError { index, source }),
            // A task the cancellation skipped; an error follows it.
            None => {}
        }
    }
    Ok((values, stats))
}

/// Fault-tolerant, order-preserving parallel map: every task runs to a
/// verdict (no cancellation), failures are retried one item at a time up
/// to the [`ExecConfig::with_retries`] budget, and partial results come
/// back as [`SweepOutcome`]s with the run's [`ExecStats`].
///
/// With a `journal`, every tile's verdicts are appended to its manifest
/// when the tile finishes (a crash loses at most one tile per worker), and
/// a re-run skips every task whose success the manifest already holds: its
/// value is decoded instead of recomputed. Failed or undecodable records
/// re-run. Values stay bitwise identical to an uninterrupted run, by the
/// determinism contract of [`Task`].
///
/// Telemetry: the [`par_map`] span and counters, then `exec.task.retried`
/// (retry attempts spent), `exec.batch.lane_failures` for a tiled task
/// (lanes that exhausted the budget), and `exec.tasks_resumed` for a
/// journalled sweep (records decoded instead of run).
///
/// # Errors
///
/// [`ManifestError`] when the journal cannot be read, belongs to another
/// sweep, or cannot be appended to. Task failures are *not* errors — they
/// surface as [`SweepOutcome::Failed`] entries.
pub fn par_map_outcomes<T, U, E>(
    config: &ExecConfig,
    items: &[T],
    journal: Option<&Journal<'_, U>>,
    task: Task<'_, T, U, E>,
) -> Result<(Vec<SweepOutcome<U, E>>, ExecStats), ManifestError>
where
    T: Sync,
    U: Send,
    E: Send + fmt::Display,
{
    let n = items.len();
    let (manifest, mut outcomes) = match journal {
        Some(journal) => {
            let (manifest, resumed) = journal.open(n)?;
            (Some((journal, manifest)), resumed)
        }
        None => (None, (0..n).map(|_| None).collect()),
    };
    let pending: Vec<usize> = (0..n).filter(|&i| outcomes[i].is_none()).collect();
    let resumed = n - pending.len();
    let max_attempts = config.max_attempts();
    let retried = AtomicU64::new(0);
    let lane_failures = AtomicU64::new(0);
    let journal_error = OnceLock::new();

    let (slots, stats) = schedule(config, n, &pending, task.is_tiled(), |lanes| {
        let first = task.run(0, items, lanes);
        let verdicts: Vec<SweepOutcome<U, E>> = first
            .into_iter()
            .zip(lanes)
            .map(|(mut result, &index)| {
                let mut attempts = 1;
                while result.is_err() && attempts < max_attempts {
                    retried.fetch_add(1, Ordering::Relaxed);
                    result = task.run(attempts, items, &[index]).remove(0);
                    attempts += 1;
                }
                match result {
                    Ok(value) => SweepOutcome::Ok { value, attempts },
                    Err(error) => {
                        lane_failures.fetch_add(1, Ordering::Relaxed);
                        SweepOutcome::Failed { attempts, error }
                    }
                }
            })
            .collect();
        let recorded = match &manifest {
            Some((journal, manifest)) => journal.record(manifest, lanes, &verdicts),
            None => Ok(()),
        };
        // A journal that cannot be appended to stops the sweep: verdicts
        // it cannot keep would not survive a crash.
        let halt = match recorded {
            Ok(()) => false,
            Err(error) => {
                let _ = journal_error.set(error);
                true
            }
        };
        (verdicts, halt)
    });
    if let Some(error) = journal_error.into_inner() {
        return Err(error);
    }

    let telemetry = &config.telemetry;
    telemetry.counter(names::EXEC_TASKS_RETRIED, retried.into_inner());
    if task.is_tiled() {
        telemetry.counter(names::EXEC_BATCH_LANE_FAILURES, lane_failures.into_inner());
    }
    if journal.is_some() {
        telemetry.counter(names::EXEC_TASKS_RESUMED, resumed as u64);
    }
    for (outcome, fresh) in outcomes.iter_mut().zip(slots) {
        *outcome = outcome.take().or(fresh);
    }
    let outcomes = outcomes
        .into_iter()
        .map(|o| o.expect("every task has a verdict"))
        .collect();
    Ok((outcomes, stats))
}

/// The one scheduler under both entry points. Cuts `pending` (ascending
/// input indices) into tiles — of [`ExecConfig::resolved_batch`] lanes when
/// `tiled`, else of one lane — lets workers claim tiles from a shared
/// cursor, and hands each tile to `run_tile`, which returns one result per
/// lane plus whether the sweep must stop. Each result lands in the slot of
/// its input index (`slots` of them); slots of tasks that never ran stay
/// `None`.
///
/// Emits the `exec.par_map` span and the per-task counters, from this
/// thread after the join, so the event sequence is identical for any
/// worker count. A sweep with no pending task emits nothing.
fn schedule<R, F>(
    config: &ExecConfig,
    slots: usize,
    pending: &[usize],
    tiled: bool,
    run_tile: F,
) -> (Vec<Option<R>>, ExecStats)
where
    R: Send,
    F: Fn(&[usize]) -> (Vec<R>, bool) + Sync,
{
    let start = Instant::now();
    let tasks = pending.len();
    let workers = config.resolved_workers(tasks);
    let results = Slots::new(slots);
    let mut stats = ExecStats {
        tasks_total: tasks,
        workers,
        ..Default::default()
    };
    if tasks > 0 {
        let span = config.telemetry.span(Level::Analysis, names::SPAN_PAR_MAP);
        let (width, claim) = if tiled {
            (config.resolved_batch(tasks), 1)
        } else {
            (1, resolved_chunk(tasks, workers))
        };
        let tiles = tasks.div_ceil(width);
        let cursor = AtomicUsize::new(0);
        let stop = AtomicBool::new(false);
        let completed = AtomicUsize::new(0);
        let busy_nanos = AtomicU64::new(0);
        let work = || {
            'claim: loop {
                if stop.load(Ordering::Acquire) {
                    break;
                }
                let first = cursor.fetch_add(claim, Ordering::Relaxed);
                if first >= tiles {
                    break;
                }
                for tile in first..(first + claim).min(tiles) {
                    if stop.load(Ordering::Acquire) {
                        break 'claim;
                    }
                    let lanes = &pending[tile * width..((tile + 1) * width).min(tasks)];
                    let t0 = Instant::now();
                    let (lane_results, halt) = run_tile(lanes);
                    busy_nanos.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                    for (&index, result) in lanes.iter().zip(lane_results) {
                        // SAFETY: `index` belongs to the tile this worker
                        // claimed from `cursor`, and pending indices are
                        // distinct; reads happen after the join.
                        unsafe { results.write(index, result) };
                        completed.fetch_add(1, Ordering::Relaxed);
                    }
                    if halt {
                        stop.store(true, Ordering::Release);
                        break 'claim;
                    }
                }
            }
        };
        // One worker runs inline on the calling thread.
        match workers.min(tiles) {
            1 => work(),
            threads => std::thread::scope(|scope| {
                for _ in 0..threads {
                    scope.spawn(work);
                }
            }),
        }
        stats.tasks_completed = completed.into_inner();
        stats.busy = Duration::from_nanos(busy_nanos.into_inner());
        let telemetry = &config.telemetry;
        telemetry.counter(names::EXEC_TASKS_TOTAL, tasks as u64);
        telemetry.counter(names::EXEC_TASKS_COMPLETED, stats.tasks_completed as u64);
        if tiled {
            telemetry.counter(names::EXEC_BATCH_TILES, tiles as u64);
            telemetry.counter(names::EXEC_BATCH_WIDTH, width as u64);
        }
        drop(span);
    }
    stats.wall = start.elapsed();
    (results.into_results().collect(), stats)
}

/// One result slot per task, written lock-free.
///
/// Safety protocol: the atomic cursor hands each tile — and so each of its
/// distinct indices — to exactly one worker, which performs the only write
/// to those slots; the coordinator only reads after every worker is joined
/// (join gives the necessary happens-before edge). Hence no slot is ever
/// accessed concurrently.
struct Slots<T>(Vec<UnsafeCell<Option<T>>>);

// SAFETY: the one field is the slot vector. Workers only move `T` values
// into distinct slots (hence `T: Send`), never read or share them; the
// protocol above keeps every slot to one writer and no concurrent reader.
unsafe impl<T: Send> Sync for Slots<T> {}

impl<T> Slots<T> {
    fn new(n: usize) -> Self {
        Slots((0..n).map(|_| UnsafeCell::new(None)).collect())
    }

    /// # Safety
    ///
    /// `index` must belong to a tile the calling worker claimed from the
    /// shared cursor (making it the unique writer), and no reads may happen
    /// before all workers are joined.
    unsafe fn write(&self, index: usize, value: T) {
        *self.0[index].get() = Some(value);
    }

    fn into_results(self) -> impl Iterator<Item = Option<T>> {
        self.0.into_iter().map(UnsafeCell::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Boom(usize);

    impl fmt::Display for Boom {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "boom at {}", self.0)
        }
    }

    impl std::error::Error for Boom {}

    #[test]
    fn preserves_order_with_many_more_items_than_workers() {
        // Regression for the old Mutex-around-the-results parallel_map:
        // N >> workers, variable task cost, order must still be exact.
        let items: Vec<usize> = (0..997).collect();
        let (out, _) = par_map(
            &ExecConfig::with_workers(8),
            &items,
            Task::Each(&|i, _, &x| {
                if x % 13 == 0 {
                    std::thread::yield_now();
                }
                assert_eq!(i, x);
                Ok::<_, Boom>(x * 3 + 1)
            }),
        )
        .unwrap();
        assert_eq!(out.len(), items.len());
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * 3 + 1);
        }
    }

    #[test]
    fn identical_results_at_any_worker_count() {
        let items: Vec<u64> = (0..200).collect();
        let run = |workers| {
            par_map(
                &ExecConfig::with_workers(workers),
                &items,
                Task::Each(&|i, _, &x| Ok::<_, Boom>(task_seed(x, i as u64))),
            )
            .unwrap()
            .0
        };
        let reference = run(1);
        for workers in [2, 3, 8, 32] {
            assert_eq!(run(workers), reference, "workers = {workers}");
        }
    }

    #[test]
    fn propagates_lowest_indexed_error_observed() {
        let items: Vec<usize> = (0..64).collect();
        let err = par_map(
            &ExecConfig::with_workers(4),
            &items,
            Task::Each(&|_, _, &x| {
                if x == 20 || x == 40 {
                    Err(Boom(x))
                } else {
                    Ok(x)
                }
            }),
        )
        .unwrap_err();
        // Cancellation may skip index 40, but whichever errors were
        // observed, the reported one has the lowest index — and with chunked
        // ascending claiming that is always a real failing task.
        assert!(err.index == 20 || err.index == 40);
        assert_eq!(err.source, Boom(err.index));
        assert!(err.to_string().contains(&format!("#{}", err.index)));
    }

    #[test]
    fn serial_error_is_first_in_input_order() {
        let items: Vec<usize> = (0..16).collect();
        let err = par_map(
            &ExecConfig::serial(),
            &items,
            Task::Each(&|_, _, &x| if x >= 5 { Err(Boom(x)) } else { Ok(x) }),
        )
        .unwrap_err();
        assert_eq!(err.index, 5);
    }

    #[test]
    fn cancel_on_first_error_skips_remaining_work() {
        let ran = AtomicUsize::new(0);
        let items: Vec<usize> = (0..4096).collect();
        let result = par_map(
            &ExecConfig::with_workers(4),
            &items,
            Task::Each(&|_, _, &x| {
                ran.fetch_add(1, Ordering::Relaxed);
                // Make tasks slow enough that cancellation beats completion.
                std::thread::sleep(Duration::from_micros(200));
                if x == 0 {
                    Err(Boom(x))
                } else {
                    Ok(x)
                }
            }),
        );
        assert!(result.is_err());
        let ran = ran.load(Ordering::Relaxed);
        assert!(
            ran < items.len() / 2,
            "cancellation should stop the sweep early, but {ran}/{} tasks ran",
            items.len()
        );
    }

    #[test]
    fn empty_input_is_ok() {
        let (out, _) = par_map(
            &ExecConfig::from_env(),
            &[] as &[u8],
            Task::Each(&|_, _, &x| Ok::<_, Boom>(x)),
        )
        .unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn stats_account_for_all_tasks() {
        let items: Vec<usize> = (0..50).collect();
        let (_, stats) = par_map(
            &ExecConfig::with_workers(4),
            &items,
            Task::Each(&|_, _, &x| {
                std::thread::sleep(Duration::from_micros(50));
                Ok::<_, Boom>(x)
            }),
        )
        .unwrap();
        assert_eq!(stats.tasks_completed, 50);
        assert_eq!(stats.tasks_total, 50);
        assert_eq!(stats.workers, 4);
        assert!(stats.wall > Duration::ZERO);
        assert!(stats.busy > Duration::ZERO);
        let u = stats.utilization();
        assert!((0.0..=1.0).contains(&u), "utilization {u}");
    }

    #[test]
    fn task_seed_unique_and_stable() {
        // Stability: pin a few values so the scheme can never silently
        // change (stored results would otherwise bit-rot).
        assert_eq!(task_seed(42, 0), task_seed(42, 0));
        assert_ne!(task_seed(42, 0), task_seed(42, 1));
        assert_ne!(task_seed(42, 0), task_seed(43, 0));
        // Injectivity over a large index range for one base seed.
        let mut seen = std::collections::HashSet::new();
        for i in 0..10_000u64 {
            assert!(seen.insert(task_seed(7, i)), "collision at index {i}");
        }
    }

    #[test]
    fn env_overrides_parse_positive_integers() {
        for (var, fallback) in [(THREADS_ENV, "worker count"), (BATCH_ENV, "batch width")] {
            assert_eq!(parse_positive(var, "8", fallback), Ok(8));
            assert_eq!(parse_positive(var, " 2 ", fallback), Ok(2));
            // `0`, empty, and non-numeric values resolve to "use the
            // default" with a warning naming the variable, never a panic
            // or a silent zero-worker pool or zero-lane tile.
            for raw in ["0", "all", "", "abc", "-3", "1.5"] {
                let err = parse_positive(var, raw, fallback).unwrap_err();
                assert!(
                    err.contains(var) && err.contains("default"),
                    "diagnostic for {raw:?} should name {var} and the fallback, got: {err}"
                );
            }
        }
        assert_eq!(
            parse_positive(THREADS_ENV, "0", "worker count"),
            Err("SFET_THREADS=\"0\" is not a positive integer; \
                 falling back to the default worker count"
                .to_owned())
        );
        assert_eq!(
            parse_positive(BATCH_ENV, "all", "batch width"),
            Err("SFET_BATCH=\"all\" is not a positive integer; \
                 falling back to the default batch width"
                .to_owned())
        );
    }

    #[test]
    fn outcomes_retry_until_success() {
        // Tasks 2 and 5 fail their first two attempts, then succeed; with a
        // 3-attempt budget the sweep reports Ok with the attempt count.
        let items: Vec<usize> = (0..8).collect();
        let plan = FaultPlan::new()
            .with_task_failure(2, 2)
            .with_task_failure(5, 2);
        let (outcomes, _) = par_map_outcomes(
            &ExecConfig::with_workers(4).with_retries(2),
            &items,
            None,
            Task::Each(&|index, attempt, &x| {
                if plan.fail_task(index, attempt) {
                    Err(Boom(x))
                } else {
                    Ok(x * 10 + attempt)
                }
            }),
        )
        .unwrap();
        assert_eq!(outcomes.len(), 8);
        for (i, o) in outcomes.iter().enumerate() {
            assert!(o.is_ok(), "task {i} should eventually succeed");
            let expect_attempts = if i == 2 || i == 5 { 3 } else { 1 };
            assert_eq!(o.attempts(), expect_attempts, "task {i}");
            assert_eq!(o.value(), Some(&(i * 10 + (expect_attempts - 1))));
        }
    }

    #[test]
    fn outcomes_collect_failures_instead_of_aborting() {
        // A task that fails every granted attempt is reported as Failed with
        // the full attempt count and final error — the rest of the sweep
        // still completes (no cancel-on-first-error).
        let items: Vec<usize> = (0..16).collect();
        let (outcomes, _) = par_map_outcomes(
            &ExecConfig::with_workers(4).with_retries(1),
            &items,
            None,
            Task::Each(&|_, attempt, &x| {
                if x == 3 {
                    Err(Boom(100 + attempt))
                } else {
                    Ok(x)
                }
            }),
        )
        .unwrap();
        let failed: Vec<_> = outcomes.iter().filter(|o| !o.is_ok()).collect();
        assert_eq!(failed.len(), 1);
        match &outcomes[3] {
            SweepOutcome::Failed { attempts, error } => {
                assert_eq!(*attempts, 2);
                assert_eq!(*error, Boom(101), "error comes from the last attempt");
            }
            other => panic!("expected Failed, got {other:?}"),
        }
        assert_eq!(
            outcomes.iter().filter(|o| o.is_ok()).count(),
            15,
            "all other tasks complete despite the failure"
        );
        assert_eq!(outcomes[4].clone().into_value(), Some(4));
    }

    #[test]
    fn outcomes_identical_at_any_worker_count() {
        let items: Vec<u64> = (0..96).collect();
        let run = |workers| {
            par_map_outcomes(
                &ExecConfig::with_workers(workers).with_retries(2),
                &items,
                None,
                Task::Each(&|i, attempt, &x| {
                    if x % 7 == 0 && attempt < 1 {
                        Err(Boom(x as usize))
                    } else {
                        Ok(task_seed(x, (i + attempt) as u64))
                    }
                }),
            )
            .unwrap()
            .0
        };
        let reference = run(1);
        for workers in [2, 8] {
            assert_eq!(run(workers), reference, "workers = {workers}");
        }
    }

    #[test]
    fn outcomes_respect_zero_retry_budget() {
        let items = [1usize];
        let (outcomes, _) = par_map_outcomes(
            &ExecConfig::serial(),
            &items,
            None,
            Task::Each(&|_, attempt, _| {
                assert_eq!(attempt, 0, "no retries granted");
                Err::<(), _>(Boom(attempt))
            }),
        )
        .unwrap();
        assert_eq!(outcomes[0].attempts(), 1);
        assert_eq!(outcomes[0].error(), Some(&Boom(0)));
    }

    #[test]
    fn worker_resolution_clamps_to_items() {
        assert_eq!(ExecConfig::with_workers(16).resolved_workers(3), 3);
        assert_eq!(ExecConfig::with_workers(16).resolved_workers(0), 1);
        assert_eq!(ExecConfig::serial().resolved_workers(100), 1);
    }

    #[test]
    fn batch_resolution_clamps() {
        // Pinned width is clamped to the task count; B=0 requests are
        // bumped to 1; the default engages when nothing is pinned.
        assert_eq!(ExecConfig::default().with_batch(4).resolved_batch(100), 4);
        assert_eq!(ExecConfig::default().with_batch(64).resolved_batch(23), 23);
        assert_eq!(ExecConfig::default().with_batch(0).resolved_batch(10), 1);
        assert_eq!(ExecConfig::default().with_batch(4).resolved_batch(0), 1);
        assert_eq!(ExecConfig::default().resolved_batch(100), DEFAULT_BATCH);
        assert_eq!(ExecConfig::default().resolved_batch(3), 3);
    }

    /// The tile closure every equality test below uses: per-lane results
    /// derived only from `(index, item)` via [`task_seed`], exactly like a
    /// per-item task would compute them.
    fn seed_batch(_attempt: usize, lanes: &[(usize, &u64)]) -> Vec<Result<u64, Boom>> {
        lanes
            .iter()
            .map(|&(index, &x)| Ok(task_seed(x, index as u64)))
            .collect()
    }

    #[test]
    fn batched_matches_scalar_for_all_widths() {
        // Ragged task count on purpose: 23 does not divide evenly by any
        // width below, so the tail tile is short. B=1, B > n, and the
        // default must all reproduce the scalar sweep bitwise.
        let items: Vec<u64> = (0..23).map(|i| i * 31 + 7).collect();
        let (scalar, _) = par_map(
            &ExecConfig::with_workers(4),
            &items,
            Task::Each(&|i, _, &x| Ok::<_, Boom>(task_seed(x, i as u64))),
        )
        .unwrap();
        for width in [1usize, 2, 4, 8, 64] {
            for workers in [1usize, 4] {
                let (batched, _) = par_map(
                    &ExecConfig::with_workers(workers).with_batch(width),
                    &items,
                    Task::Tiled(&seed_batch),
                )
                .unwrap();
                assert_eq!(batched, scalar, "width = {width}, workers = {workers}");
            }
        }
        // Unpinned width (the default / env fallback path) as well.
        let (batched, _) = par_map(
            &ExecConfig::with_workers(4),
            &items,
            Task::Tiled(&seed_batch),
        )
        .unwrap();
        assert_eq!(batched, scalar);
    }

    #[test]
    fn batched_error_reports_true_task_index() {
        // The failing lane sits mid-tile: the reported index must be the
        // task's input index, not the tile's.
        let items: Vec<u64> = (0..20).collect();
        let err = par_map(
            &ExecConfig::serial().with_batch(8),
            &items,
            Task::Tiled(&|_, lanes| {
                lanes
                    .iter()
                    .map(|&(index, &x)| {
                        if index == 13 {
                            Err(Boom(x as usize))
                        } else {
                            Ok(x)
                        }
                    })
                    .collect()
            }),
        )
        .unwrap_err();
        assert_eq!(err.index, 13);
        assert_eq!(err.source, Boom(13));
    }

    #[test]
    fn batched_stats_count_tasks_not_tiles() {
        // Regression: ExecStats once assumed one task per scheduling slot,
        // so a batched sweep reported tile counts. Totals must match a
        // scalar run of the same sweep.
        let items: Vec<u64> = (0..23).collect();
        let (_, stats) = par_map(
            &ExecConfig::with_workers(2).with_batch(8),
            &items,
            Task::Tiled(&seed_batch),
        )
        .unwrap();
        assert_eq!(stats.tasks_total, 23);
        assert_eq!(stats.tasks_completed, 23);
        assert_eq!(stats.workers, 2);
        assert!(stats.wall > Duration::ZERO);
    }

    #[test]
    fn batched_outcomes_match_scalar_outcomes() {
        // Same fault pattern driven through both engines: every outcome —
        // values, attempt counts, final errors — must be identical, at any
        // worker count and lane width.
        let items: Vec<u64> = (0..37).collect();
        let plan = FaultPlan::new()
            .with_task_failure(3, 2)
            .with_task_failure(10, 1)
            .with_task_failure(11, 9) // exhausts the budget -> Failed
            .with_task_failure(36, 1); // ragged-tail lane
        let task = |index: usize, attempt: usize, x: u64| {
            if plan.fail_task(index, attempt) {
                Err(Boom(index * 10 + attempt))
            } else {
                Ok(task_seed(x, (index + attempt) as u64))
            }
        };
        let (scalar, _) = par_map_outcomes(
            &ExecConfig::with_workers(4).with_retries(2),
            &items,
            None,
            Task::Each(&|i, a, &x| task(i, a, x)),
        )
        .unwrap();
        for width in [1usize, 4, 8] {
            for workers in [1usize, 2, 8] {
                let (batched, _) = par_map_outcomes(
                    &ExecConfig::with_workers(workers)
                        .with_retries(2)
                        .with_batch(width),
                    &items,
                    None,
                    Task::Tiled(&|attempt, lanes| {
                        lanes
                            .iter()
                            .map(|&(index, &x)| task(index, attempt, x))
                            .collect()
                    }),
                )
                .unwrap();
                assert_eq!(batched, scalar, "width = {width}, workers = {workers}");
            }
        }
        // Sanity-check the fault pattern actually exercised every path.
        assert_eq!(scalar[3].attempts(), 3);
        assert_eq!(scalar[10].attempts(), 2);
        assert!(!scalar[11].is_ok());
        assert_eq!(scalar[11].attempts(), 3);
        assert_eq!(scalar[36].attempts(), 2);
    }

    #[test]
    fn batched_empty_input_is_ok() {
        let (out, _) = par_map(
            &ExecConfig::from_env(),
            &[] as &[u8],
            Task::Tiled(&|_, lanes| lanes.iter().map(|&(_, &x)| Ok::<_, Boom>(x)).collect()),
        )
        .unwrap();
        assert!(out.is_empty());
        let (outcomes, _) = par_map_outcomes(
            &ExecConfig::from_env(),
            &[] as &[u8],
            None,
            Task::Tiled(&|_, lanes| lanes.iter().map(|&(_, &x)| Ok::<_, Boom>(x)).collect()),
        )
        .unwrap();
        assert!(outcomes.is_empty());
    }

    #[test]
    fn batched_telemetry_totals_match_stats_and_scalar() {
        use sfet_telemetry::SharedAggregator;

        // Satellite regression: the per-task counters a batched sweep emits
        // must equal both its own ExecStats and what a scalar run of the
        // same sweep emits — tiles must never leak into task accounting.
        let items: Vec<u64> = (0..23).collect();

        let scalar_agg = SharedAggregator::new();
        let scalar_cfg =
            ExecConfig::with_workers(2).with_telemetry(Telemetry::new(scalar_agg.clone()));
        par_map(
            &scalar_cfg,
            &items,
            Task::Each(&|i, _, &x| Ok::<_, Boom>(task_seed(x, i as u64))),
        )
        .unwrap();
        let scalar_counts = scalar_agg.snapshot();

        let agg = SharedAggregator::new();
        let cfg = ExecConfig::with_workers(2)
            .with_batch(8)
            .with_telemetry(Telemetry::new(agg.clone()));
        let (_, stats) = par_map(&cfg, &items, Task::Tiled(&seed_batch)).unwrap();
        let counts = agg.snapshot();

        assert_eq!(counts.counter(names::EXEC_TASKS_TOTAL), 23);
        assert_eq!(
            counts.counter(names::EXEC_TASKS_COMPLETED),
            stats.tasks_completed as u64
        );
        assert_eq!(
            counts.counter(names::EXEC_TASKS_TOTAL),
            scalar_counts.counter(names::EXEC_TASKS_TOTAL)
        );
        assert_eq!(
            counts.counter(names::EXEC_TASKS_COMPLETED),
            scalar_counts.counter(names::EXEC_TASKS_COMPLETED)
        );
        // Batch-shape extras: ceil(23 / 8) = 3 tiles of width 8.
        assert_eq!(counts.counter(names::EXEC_BATCH_TILES), 3);
        assert_eq!(counts.counter(names::EXEC_BATCH_WIDTH), 8);

        // The outcome engine's counter set, including retry accounting.
        let agg = SharedAggregator::new();
        let cfg = ExecConfig::with_workers(2)
            .with_batch(8)
            .with_retries(2)
            .with_telemetry(Telemetry::new(agg.clone()));
        // Task 5 keeps failing: 2 retries spent, then Failed.
        let (outcomes, _) = par_map_outcomes(
            &cfg,
            &items,
            None,
            Task::Tiled(&|_, lanes| {
                lanes
                    .iter()
                    .map(|&(index, &x)| if index == 5 { Err(Boom(5)) } else { Ok(x) })
                    .collect()
            }),
        )
        .unwrap();
        assert_eq!(outcomes.iter().filter(|o| o.is_ok()).count(), 22);
        let counts = agg.snapshot();
        assert_eq!(counts.counter(names::EXEC_TASKS_TOTAL), 23);
        assert_eq!(counts.counter(names::EXEC_TASKS_COMPLETED), 23);
        assert_eq!(counts.counter(names::EXEC_TASKS_RETRIED), 2);
        assert_eq!(counts.counter(names::EXEC_BATCH_LANE_FAILURES), 1);
    }
}
