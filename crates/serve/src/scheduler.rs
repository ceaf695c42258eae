//! Job scheduling: a bounded queue, a worker-thread pool driving the
//! `sfet-sim` exec engine, per-job retries with checkpoint resume, and
//! the dedup paths (store hit, in-flight coalescing).
//!
//! Concurrency model: one registry of `Arc<Job>`s, one bounded
//! `VecDeque` feeding `workers` plain `std::thread` workers through a
//! condvar. Submissions holding the pending-key lock see either a
//! stored result (hit) or an in-flight job with the same key (coalesce)
//! — a worker publishes to the store *before* retiring its pending key,
//! so the window where an identical job could slip into a duplicate run
//! is closed. Graceful shutdown stops intake (503), drains the queue
//! *and* in-flight jobs to completion, then joins the pool.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use sfet_numeric::exec::ExecConfig;
use sfet_optimize::{GenerationSummary, StandardRun};
use sfet_sim::{transient_resumable, CheckpointPolicy, SimOptions};
use sfet_telemetry::json::Object;
use sfet_telemetry::{names, Telemetry};

use crate::error::ApiError;
use crate::json::Json;
use crate::progress::{EventHub, HubSink};
use crate::protocol::{encode_optimize_result, encode_tran_result, write_generation};
use crate::spec::{JobSpec, JobWork, OptimizeWork, TranWork};
use crate::store::ResultStore;

/// Scheduler configuration.
#[derive(Clone)]
pub struct ServeConfig {
    /// Worker threads running simulations.
    pub workers: usize,
    /// Bounded queue depth; a submission past it gets HTTP 429.
    pub queue_capacity: usize,
    /// Result-store directory.
    pub store_dir: std::path::PathBuf,
    /// Server-side telemetry handle for the `serve.*` counters
    /// (disabled by default; the in-process stats in
    /// [`Scheduler::stats`] are always maintained).
    pub telemetry: Telemetry,
}

impl ServeConfig {
    /// A config with `store_dir` and the defaults: 2 workers, queue
    /// capacity 64, telemetry disabled.
    pub fn new(store_dir: impl Into<std::path::PathBuf>) -> ServeConfig {
        ServeConfig {
            workers: 2,
            queue_capacity: 64,
            store_dir: store_dir.into(),
            telemetry: Telemetry::disabled(),
        }
    }

    /// Builder-style worker-count override (clamped to ≥ 1).
    pub fn with_workers(mut self, workers: usize) -> ServeConfig {
        self.workers = workers.max(1);
        self
    }

    /// Builder-style queue-capacity override (clamped to ≥ 1).
    pub fn with_queue_capacity(mut self, capacity: usize) -> ServeConfig {
        self.queue_capacity = capacity.max(1);
        self
    }

    /// Builder-style telemetry attachment.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> ServeConfig {
        self.telemetry = telemetry;
        self
    }
}

/// Lifecycle state of one job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobState {
    /// Waiting in the bounded queue.
    Queued,
    /// On a worker; `attempt` is 0-based.
    Running {
        /// Current attempt number (0 = first try).
        attempt: usize,
    },
    /// Finished; the result document is in the store.
    Done {
        /// `true` when the submission was answered from the store
        /// without running a simulation.
        cached: bool,
    },
    /// Exhausted its retry budget.
    Failed {
        /// Final simulation error, verbatim.
        error: String,
    },
}

impl JobState {
    /// Wire name of the state (`queued` / `running` / `done` / `failed`).
    pub fn name(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running { .. } => "running",
            JobState::Done { .. } => "done",
            JobState::Failed { .. } => "failed",
        }
    }
}

/// One submitted job.
#[derive(Debug)]
pub struct Job {
    /// Server-assigned id (the wire form is `j-<id>`).
    pub id: u64,
    /// Content-addressed cache key (see [`JobSpec::cache_key`]).
    pub key: String,
    /// The resolved specification.
    pub spec: JobSpec,
    state: Mutex<JobState>,
    /// SSE event log.
    pub hub: Arc<EventHub>,
}

impl Job {
    /// Current lifecycle state (cloned snapshot).
    pub fn state(&self) -> JobState {
        self.state.lock().expect("job lock").clone()
    }

    fn set_state(&self, new: JobState) {
        *self.state.lock().expect("job lock") = new;
    }

    /// The status document served by `GET /v1/jobs/{id}`.
    pub fn status_json(&self) -> String {
        let state = self.state();
        let mut body = String::new();
        let mut doc = Object::new(&mut body);
        doc.str("job_id", &format!("j-{}", self.id))
            .str("state", state.name())
            .str("label", &self.spec.label)
            .str("cache_key", &self.key);
        match &state {
            JobState::Running { attempt } => doc.u64("attempt", *attempt as u64),
            JobState::Done { cached } => doc.bool("cached", *cached),
            JobState::Failed { error } => doc.str("error", error),
            JobState::Queued => &mut doc,
        };
        drop(doc);
        body
    }
}

/// Monotonic in-process counters mirrored by the `serve.*` telemetry
/// names and exposed on `GET /v1/healthz`.
#[derive(Debug, Default)]
pub struct ServeStats {
    /// Jobs accepted (hits + coalesced + enqueued).
    pub submitted: AtomicU64,
    /// Submissions answered from the result store.
    pub cache_hits: AtomicU64,
    /// Submissions that needed a simulation (enqueued or coalesced).
    pub cache_misses: AtomicU64,
    /// Submissions coalesced onto an in-flight job.
    pub coalesced: AtomicU64,
    /// Jobs that completed a simulation.
    pub completed: AtomicU64,
    /// Jobs that failed terminally.
    pub failed: AtomicU64,
    /// Retry attempts consumed.
    pub retried: AtomicU64,
    /// Submissions rejected with 429.
    pub rejected: AtomicU64,
    /// Transient executions started (first attempts + retries).
    pub sim_attempts: AtomicU64,
}

struct Pool {
    queue: VecDeque<Arc<Job>>,
    in_flight: usize,
}

struct Shared {
    cfg: ServeConfig,
    store: ResultStore,
    jobs: Mutex<HashMap<u64, Arc<Job>>>,
    /// cache key → job id of the queued/running run for that key.
    pending: Mutex<HashMap<String, u64>>,
    pool: Mutex<Pool>,
    pool_cv: Condvar,
    next_id: AtomicU64,
    draining: AtomicBool,
    stats: ServeStats,
}

/// What a submission was answered with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubmitReceipt {
    /// The job to poll (`j-<id>` on the wire).
    pub job_id: u64,
    /// Job state at submission time.
    pub state: &'static str,
    /// Served from the result store without simulation.
    pub cached: bool,
    /// Coalesced onto an already in-flight identical job.
    pub coalesced: bool,
}

/// The job scheduler: registry + bounded queue + worker pool.
pub struct Scheduler {
    shared: Arc<Shared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl Scheduler {
    /// Opens the result store and spawns the worker pool.
    ///
    /// # Errors
    ///
    /// The store-directory creation failure, if any.
    pub fn new(cfg: ServeConfig) -> std::io::Result<Scheduler> {
        let store = ResultStore::open(&cfg.store_dir)?;
        let shared = Arc::new(Shared {
            store,
            jobs: Mutex::new(HashMap::new()),
            pending: Mutex::new(HashMap::new()),
            pool: Mutex::new(Pool {
                queue: VecDeque::new(),
                in_flight: 0,
            }),
            pool_cv: Condvar::new(),
            next_id: AtomicU64::new(1),
            draining: AtomicBool::new(false),
            stats: ServeStats::default(),
            cfg,
        });
        let mut workers = Vec::new();
        for i in 0..shared.cfg.workers.max(1) {
            let shared = shared.clone();
            workers.push(
                std::thread::Builder::new()
                    .name(format!("sfet-serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker"),
            );
        }
        Ok(Scheduler {
            shared,
            workers: Mutex::new(workers),
        })
    }

    /// Submits a parsed request body; the dedup and backpressure entry
    /// point.
    ///
    /// # Errors
    ///
    /// 4xx for malformed requests, 429 [`ApiError::queue_full`] under
    /// backpressure, 503 [`ApiError::shutting_down`] while draining.
    pub fn submit(&self, body: &Json) -> Result<SubmitReceipt, ApiError> {
        let sh = &self.shared;
        if sh.draining.load(Ordering::SeqCst) {
            return Err(ApiError::shutting_down());
        }
        let spec = JobSpec::from_request(body)?;
        let key = spec.cache_key();
        let tel = &sh.cfg.telemetry;
        sh.stats.submitted.fetch_add(1, Ordering::Relaxed);
        tel.counter(names::SERVE_JOBS_SUBMITTED, 1);

        // Hold the pending lock across the store probe: a worker
        // publishes to the store *before* retiring its pending entry, so
        // under this lock every identical in-flight or finished run is
        // visible one way or the other.
        let mut pending = sh.pending.lock().expect("pending lock");
        if sh.store.contains(&key) {
            sh.stats.cache_hits.fetch_add(1, Ordering::Relaxed);
            tel.counter(names::SERVE_CACHE_HIT, 1);
            drop(pending);
            let job = self.register(key, spec, JobState::Done { cached: true });
            job.hub.finish("done", |o| {
                o.str("state", "done").bool("cached", true);
            });
            return Ok(SubmitReceipt {
                job_id: job.id,
                state: "done",
                cached: true,
                coalesced: false,
            });
        }
        sh.stats.cache_misses.fetch_add(1, Ordering::Relaxed);
        tel.counter(names::SERVE_CACHE_MISS, 1);

        if let Some(&existing) = pending.get(&key) {
            sh.stats.coalesced.fetch_add(1, Ordering::Relaxed);
            tel.counter(names::SERVE_JOBS_COALESCED, 1);
            let state = self
                .job(existing)
                .map(|j| j.state().name())
                .unwrap_or("queued");
            return Ok(SubmitReceipt {
                job_id: existing,
                state,
                cached: false,
                coalesced: true,
            });
        }

        let mut pool = sh.pool.lock().expect("pool lock");
        if pool.queue.len() >= sh.cfg.queue_capacity {
            sh.stats.rejected.fetch_add(1, Ordering::Relaxed);
            tel.counter(names::SERVE_QUEUE_REJECTED, 1);
            return Err(ApiError::queue_full(sh.cfg.queue_capacity));
        }
        let job = self.register(key.clone(), spec, JobState::Queued);
        job.hub.push("status", |o| {
            o.str("state", "queued");
        });
        pending.insert(key, job.id);
        pool.queue.push_back(job.clone());
        drop(pool);
        drop(pending);
        sh.pool_cv.notify_all();
        Ok(SubmitReceipt {
            job_id: job.id,
            state: "queued",
            cached: false,
            coalesced: false,
        })
    }

    fn register(&self, key: String, spec: JobSpec, state: JobState) -> Arc<Job> {
        let id = self.shared.next_id.fetch_add(1, Ordering::Relaxed);
        let job = Arc::new(Job {
            id,
            key,
            spec,
            state: Mutex::new(state),
            hub: EventHub::new(),
        });
        self.shared
            .jobs
            .lock()
            .expect("jobs lock")
            .insert(id, job.clone());
        job
    }

    /// Looks a job up by numeric id.
    pub fn job(&self, id: u64) -> Option<Arc<Job>> {
        self.shared
            .jobs
            .lock()
            .expect("jobs lock")
            .get(&id)
            .cloned()
    }

    /// Reads a finished job's result document from the store.
    ///
    /// # Errors
    ///
    /// 409 while the job is queued/running or failed; 500-shaped I/O
    /// errors surface as `job_failed` (the entry should exist for every
    /// `Done` job).
    pub fn result_document(&self, job: &Job) -> Result<String, ApiError> {
        match job.state() {
            JobState::Done { .. } => self.shared.store.get(&job.key).map_err(|e| {
                ApiError::new(500, "store_error", format!("reading stored result: {e}"))
            }),
            JobState::Failed { error } => Err(ApiError::job_failed(error)),
            other => Err(ApiError::job_not_done(other.name())),
        }
    }

    /// The live stats the health endpoint reports.
    pub fn stats(&self) -> &ServeStats {
        &self.shared.stats
    }

    /// The health/stats document for `GET /v1/healthz`.
    pub fn health_json(&self) -> String {
        let sh = &self.shared;
        let pool = sh.pool.lock().expect("pool lock");
        let st = &sh.stats;
        let count = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let mut body = String::new();
        Object::new(&mut body)
            .str("status", "ok")
            .str("api", crate::protocol::API_VERSION)
            .bool("draining", sh.draining.load(Ordering::SeqCst))
            .u64("workers", sh.cfg.workers as u64)
            .u64("queue_depth", pool.queue.len() as u64)
            .u64("in_flight", pool.in_flight as u64)
            .u64("queue_capacity", sh.cfg.queue_capacity as u64)
            .u64("jobs_submitted", count(&st.submitted))
            .u64("cache_hits", count(&st.cache_hits))
            .u64("cache_misses", count(&st.cache_misses))
            .u64("coalesced", count(&st.coalesced))
            .u64("jobs_completed", count(&st.completed))
            .u64("jobs_failed", count(&st.failed))
            .u64("retries", count(&st.retried))
            .u64("queue_rejected", count(&st.rejected))
            .u64("sim_attempts", count(&st.sim_attempts));
        body
    }

    /// `true` once [`Scheduler::shutdown`] started.
    pub fn is_draining(&self) -> bool {
        self.shared.draining.load(Ordering::SeqCst)
    }

    /// Graceful shutdown: stop intake, drain the queue and in-flight
    /// jobs to completion, join the workers. Idempotent.
    pub fn shutdown(&self) {
        let sh = &self.shared;
        sh.draining.store(true, Ordering::SeqCst);
        sh.pool_cv.notify_all();
        {
            let mut pool = sh.pool.lock().expect("pool lock");
            while !(pool.queue.is_empty() && pool.in_flight == 0) {
                pool = sh.pool_cv.wait(pool).expect("pool lock");
            }
        }
        let mut workers = self.workers.lock().expect("workers lock");
        for handle in workers.drain(..) {
            let _ = handle.join();
        }
        sh.cfg.telemetry.flush();
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let job = {
            let mut pool = shared.pool.lock().expect("pool lock");
            loop {
                if let Some(job) = pool.queue.pop_front() {
                    pool.in_flight += 1;
                    break job;
                }
                if shared.draining.load(Ordering::SeqCst) {
                    return;
                }
                pool = shared.pool_cv.wait(pool).expect("pool lock");
            }
        };
        run_job(shared, &job);
        let mut pool = shared.pool.lock().expect("pool lock");
        pool.in_flight -= 1;
        drop(pool);
        // Wake both idle workers and a draining `shutdown`.
        shared.pool_cv.notify_all();
    }
}

/// Runs one job to a terminal state, dispatching on its work kind.
fn run_job(shared: &Arc<Shared>, job: &Arc<Job>) {
    match &job.spec.work {
        JobWork::Tran(work) => run_tran_job(shared, job, work),
        JobWork::Optimize(work) => run_optimize_job(shared, job, work),
    }
}

/// Publishes a finished result document and retires the job as `Done`.
/// Returns the store error, if any, for the caller's retry ladder.
fn publish_result(shared: &Arc<Shared>, job: &Arc<Job>, document: &str) -> Result<(), String> {
    // Publish order matters: the store entry must be visible before the
    // pending key retires (see `submit`).
    shared
        .store
        .put(&job.key, document)
        .map_err(|e| format!("storing result: {e}"))?;
    shared
        .pending
        .lock()
        .expect("pending lock")
        .remove(&job.key);
    shared.stats.completed.fetch_add(1, Ordering::Relaxed);
    shared.cfg.telemetry.counter(names::SERVE_JOBS_COMPLETED, 1);
    job.set_state(JobState::Done { cached: false });
    job.hub.finish("done", |o| {
        o.str("state", "done").bool("cached", false);
    });
    Ok(())
}

/// Retires a job as terminally `Failed`.
fn fail_job(shared: &Arc<Shared>, job: &Arc<Job>, error: String) {
    shared
        .pending
        .lock()
        .expect("pending lock")
        .remove(&job.key);
    shared.stats.failed.fetch_add(1, Ordering::Relaxed);
    shared.cfg.telemetry.counter(names::SERVE_JOBS_FAILED, 1);
    job.set_state(JobState::Failed {
        error: error.clone(),
    });
    job.hub.finish("failed", |o| {
        o.str("state", "failed").str("error", &error);
    });
}

/// Runs one transient job: the retry ladder over
/// `options.escalated(attempt)`, checkpoint-resume between attempts,
/// store publication, and the SSE terminal event.
fn run_tran_job(shared: &Arc<Shared>, job: &Arc<Job>, work: &TranWork) {
    let tel = &shared.cfg.telemetry;
    let ckpt_path = shared.store.checkpoint_path_for(&job.key);
    let mut last_error = String::new();

    for attempt in 0..=job.spec.retries {
        job.set_state(JobState::Running { attempt });
        job.hub.push("status", |o| {
            o.str("state", "running").u64("attempt", attempt as u64);
        });
        shared.stats.sim_attempts.fetch_add(1, Ordering::Relaxed);
        if attempt > 0 {
            shared.stats.retried.fetch_add(1, Ordering::Relaxed);
            tel.counter(names::SERVE_JOB_RETRIED, 1);
        }

        let opts: SimOptions = work
            .options
            .escalated(attempt)
            .with_telemetry(Telemetry::new(HubSink::new(job.hub.clone())));
        let ckpt = if work.checkpoint_every > 0 {
            CheckpointPolicy::write_to(&ckpt_path, work.checkpoint_every)
                .resume_if_exists(&ckpt_path)
        } else {
            CheckpointPolicy::disabled()
        };

        match transient_resumable(&work.circuit, work.tstop, &opts, &ckpt) {
            Ok(result) => {
                let document = encode_tran_result(&result);
                let _ = std::fs::remove_file(&ckpt_path);
                match publish_result(shared, job, &document) {
                    Ok(()) => return,
                    Err(e) => last_error = e,
                }
            }
            Err(e) => last_error = e.to_string(),
        }
        job.hub.push("status", |o| {
            o.str("state", "retrying")
                .u64("attempt", attempt as u64)
                .str("error", &last_error);
        });
    }

    let _ = std::fs::remove_file(&ckpt_path);
    fail_job(shared, job, last_error);
}

/// Runs one optimize job: `sfet-optimize`'s standard run with the job's
/// parameters, per-generation SSE progress on the job's event hub, and
/// the deterministic `optimize.v1` result document.
///
/// There is no job-level retry ladder here — `retries` becomes the
/// *per-lane* budget of the batched sweep engine, which escalates solver
/// options lane by lane instead of rerunning whole generations.
fn run_optimize_job(shared: &Arc<Shared>, job: &Arc<Job>, work: &OptimizeWork) {
    job.set_state(JobState::Running { attempt: 0 });
    job.hub.push("status", |o| {
        o.str("state", "running").u64("attempt", 0);
    });
    shared.stats.sim_attempts.fetch_add(1, Ordering::Relaxed);

    let mut run = StandardRun::new(work.vdd, work.seed);
    run.algorithm = work.algorithm;
    run.population = work.population;
    run.config.max_generations = work.generations;
    // The engine's `opt.*`/`exec.*` counters fan out to the same SSE
    // stream the transient jobs use.
    run.config.exec = ExecConfig::from_env()
        .with_retries(job.spec.retries)
        .with_telemetry(Telemetry::new(HubSink::new(job.hub.clone())));
    let hub = job.hub.clone();
    run.config.progress = Some(Arc::new(move |g: &GenerationSummary| {
        hub.push("generation", |o| write_generation(o, g));
    }));

    match run.run() {
        Ok(outcome) => {
            let document = encode_optimize_result(work, &outcome);
            if let Err(e) = publish_result(shared, job, &document) {
                fail_job(shared, job, e);
            }
        }
        Err(e) => fail_job(shared, job, e.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("sfet-sched-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn submit(sched: &Scheduler, body: &str) -> Result<SubmitReceipt, ApiError> {
        sched.submit(&Json::parse(body).unwrap())
    }

    fn wait_done(sched: &Scheduler, id: u64) -> JobState {
        let job = sched.job(id).unwrap();
        loop {
            match job.state() {
                JobState::Done { .. } | JobState::Failed { .. } => return job.state(),
                _ => std::thread::sleep(std::time::Duration::from_millis(2)),
            }
        }
    }

    #[test]
    fn submit_run_dedup_lifecycle() {
        let dir = tmp_dir("lifecycle");
        let sched = Scheduler::new(ServeConfig::new(&dir)).unwrap();
        let r1 = submit(&sched, r#"{"scenario":"rc_step"}"#).unwrap();
        assert!(!r1.cached);
        let st = wait_done(&sched, r1.job_id);
        assert_eq!(st, JobState::Done { cached: false });

        // Identical resubmission is a store hit; no new simulation.
        let r2 = submit(&sched, r#"{"scenario":"rc_step"}"#).unwrap();
        assert!(r2.cached);
        assert_eq!(sched.stats().cache_hits.load(Ordering::Relaxed), 1);
        assert_eq!(sched.stats().sim_attempts.load(Ordering::Relaxed), 1);

        // Both jobs serve byte-identical documents.
        let j1 = sched.job(r1.job_id).unwrap();
        let j2 = sched.job(r2.job_id).unwrap();
        assert_eq!(
            sched.result_document(&j1).unwrap(),
            sched.result_document(&j2).unwrap()
        );
        sched.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn queue_full_is_backpressure_not_blocking() {
        let dir = tmp_dir("backpressure");
        let sched = Scheduler::new(
            ServeConfig::new(&dir)
                .with_workers(1)
                .with_queue_capacity(1),
        )
        .unwrap();
        // Distinct params defeat coalescing; enough submissions must
        // trip the bounded queue whatever the worker's progress.
        let mut rejected = 0;
        for i in 0..24 {
            let body = format!(
                r#"{{"scenario":"rc_step","params":{{"r":{}.0}}}}"#,
                1000 + i
            );
            match submit(&sched, &body) {
                Ok(_) => {}
                Err(e) => {
                    assert_eq!(e.code, "queue_full");
                    assert_eq!(e.status, 429);
                    rejected += 1;
                }
            }
        }
        assert!(rejected > 0, "bounded queue must reject under burst");
        sched.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shutdown_drains_queued_jobs() {
        let dir = tmp_dir("drain");
        let sched = Scheduler::new(ServeConfig::new(&dir).with_workers(1)).unwrap();
        let mut ids = Vec::new();
        for i in 0..4 {
            let body = format!(r#"{{"scenario":"rc_step","params":{{"c":{}e-15}}}}"#, i + 1);
            ids.push(submit(&sched, &body).unwrap().job_id);
        }
        sched.shutdown();
        for id in ids {
            assert!(matches!(
                sched.job(id).unwrap().state(),
                JobState::Done { .. }
            ));
        }
        // Post-shutdown intake is refused.
        assert_eq!(
            submit(&sched, r#"{"scenario":"rc_step"}"#)
                .unwrap_err()
                .code,
            "shutting_down"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_job_reports_the_simulation_error() {
        let dir = tmp_dir("failure");
        let sched = Scheduler::new(ServeConfig::new(&dir)).unwrap();
        // A dtmax far above dtmin with a tiny step budget exhausts
        // max_steps deterministically.
        let r = submit(
            &sched,
            r#"{"scenario":"rc_step","params":{"tstop":1e-9},
                "options":{"dtmax":1e-17,"max_steps":50},"retries":1}"#,
        )
        .unwrap();
        let st = wait_done(&sched, r.job_id);
        let JobState::Failed { error } = st else {
            panic!("expected failure, got {st:?}");
        };
        assert!(!error.is_empty());
        assert_eq!(sched.stats().retried.load(Ordering::Relaxed), 1);
        let job = sched.job(r.job_id).unwrap();
        assert_eq!(sched.result_document(&job).unwrap_err().code, "job_failed");
        sched.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
