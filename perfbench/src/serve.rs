//! `serve_mixed`: request-to-result over the `/v1` wire API.
//!
//! An in-process server with [`WORKERS`] workers takes load from one
//! client thread ([`CLIENTS`]), a closed loop over its own seeded schedule
//! of [`CYCLE`]-request cycles: one miss and hits. A miss is a
//! job never submitted before (a power-gate wake-up, or every
//! [`NETLIST_EVERY`]-th miss a committed deck with one element value drawn
//! from the seed), so it is simulated and written to the store. A hit
//! re-submits one of the client's own completed jobs and is read back from
//! the store. One job is submit, follow the SSE stream to `done`, then
//! fetch the result.

use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use sfet_circuit::parse::{parse_netlist, Analysis};
use sfet_devices::ptm::PtmParams;
use sfet_pdn::power_gate::PowerGateScenario;
use sfet_serve::{encode_tran_result, Client, ServeConfig, Server};
use sfet_sim::{transient, SimOptions, TranResult};

use crate::check::{fnv, OUT_DIR};
use crate::layers::{add_tran_counts, SolveSplit};
use crate::trace::{per_job_median_ms, Tracer};
use crate::{repeated_setup, Args, JobRecord, RunResult, SplitMix};

/// Server workers.
const WORKERS: usize = 2;
/// Client threads, one closed loop each. One: with two on the 2-core
/// host, a hit's latency depended on whether it met the other client's
/// miss (its simulation and its SSE stream), and `job_p50_ms`, a hit's
/// latency, moved by up to 27 % between sets of runs of the same code.
const CLIENTS: usize = 1;
/// Requests per schedule cycle: one miss and hits.
const CYCLE: usize = 4;
/// Every this many misses, one is a netlist deck instead of a wake-up.
const NETLIST_EVERY: usize = 4;
/// Schedule cycles per client per second of `--seconds`: about three
/// quarters of the cycles a client completes per second at the nominal
/// host speed, leaving margin for slower moments.
const CYCLES_PER_S: f64 = 16.0;
/// Cycles per untraced or traced block of a traced run.
const TRACE_BLOCK: usize = NETLIST_EVERY;
/// Leading misses per client whose served bytes are checked against the
/// direct library call in every run, and whose counts are exact: each
/// kind of miss twice.
const PREFIX: usize = 2 * NETLIST_EVERY;
/// Schedule cycles per client in each set-up's warm-up.
const WARMUP_CYCLES: usize = 2;

const DECKS: [(&str, &str, f64, f64); 2] = [
    // (deck, card whose value the seed draws, value range)
    (
        include_str!("../decks/inverter_chain.sp"),
        "C2 c 0 ",
        1e-15,
        4e-15,
    ),
    (
        include_str!("../decks/rlc_series.sp"),
        "R1 in a ",
        5.0,
        20.0,
    ),
];

/// The work behind one miss, kept to re-run it as a library call.
#[derive(Debug, Clone)]
enum Work {
    Wake {
        wake_ramp: f64,
        i_active: f64,
        soft: bool,
    },
    Netlist(String),
}

impl Work {
    fn body(&self) -> String {
        match self {
            Work::Wake {
                wake_ramp,
                i_active,
                soft,
            } => format!(
                r#"{{"scenario":"power_gate_wake","params":{{"wake_ramp":{wake_ramp:?},"i_active":{i_active:?},"soft":{soft}}}}}"#
            ),
            Work::Netlist(text) => format!(r#"{{"netlist":{}}}"#, json_string(text)),
        }
    }

    /// What the server runs for this job, called directly.
    fn run_direct(&self, t: &mut Tracer, job: u64) -> Result<(TranResult, f64), String> {
        match self {
            Work::Wake {
                wake_ramp,
                i_active,
                soft,
            } => {
                let mut s = PowerGateScenario {
                    wake_ramp: *wake_ramp,
                    i_active: *i_active,
                    ..PowerGateScenario::default()
                };
                if *soft {
                    s = s.with_soft_fet(PtmParams::vo2_default());
                }
                let ckt = t
                    .span("pdn.build", job, |_| s.build())
                    .map_err(|e| e.to_string())?;
                let opts = SimOptions::for_duration(s.t_stop, 4000);
                timed_transient(t, job, &ckt, s.t_stop, &opts)
            }
            Work::Netlist(text) => {
                let parsed = t
                    .span("circuit.parse", job, |_| parse_netlist(text))
                    .map_err(|e| e.to_string())?;
                let (dtmax, tstop) = parsed
                    .analyses
                    .iter()
                    .find_map(|a| match a {
                        Analysis::Tran { dtmax, tstop } => Some((*dtmax, *tstop)),
                        _ => None,
                    })
                    .ok_or("deck has no .tran")?;
                let mut opts = SimOptions::for_duration(tstop, 16);
                opts.dtmax = dtmax;
                timed_transient(t, job, &parsed.circuit, tstop, &opts)
            }
        }
    }
}

fn timed_transient(
    t: &mut Tracer,
    job: u64,
    ckt: &sfet_circuit::Circuit,
    tstop: f64,
    opts: &SimOptions,
) -> Result<(TranResult, f64), String> {
    let (r, dt) = t.span("sim.transient", job, |_| {
        crate::timed(|| transient(ckt, tstop, opts))
    });
    Ok((r.map_err(|e| e.to_string())?, dt))
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// One served miss.
#[derive(Debug, Clone)]
struct Miss {
    job: u64,
    work: Work,
    latency_s: f64,
    hash: u64,
    bytes: usize,
    events: usize,
}

/// One client's schedule and what it has seen.
struct ClientState {
    id: usize,
    rng: SplitMix,
    requests: u64,
    misses: Vec<Miss>,
    /// Body → (hash, length) of its first fetch.
    first_fetch: HashMap<String, (u64, usize)>,
    completed: Vec<String>,
    records: Vec<JobRecord>,
    traced_records: Vec<JobRecord>,
    errors: Vec<String>,
    tracer: Tracer,
}

impl ClientState {
    fn new(seed: u64, id: usize, t0: Instant) -> ClientState {
        ClientState {
            id,
            rng: SplitMix::new(seed, 0x5345_5256 + id as u64),
            requests: 0,
            misses: Vec::new(),
            first_fetch: HashMap::new(),
            completed: Vec::new(),
            records: Vec::new(),
            traced_records: Vec::new(),
            errors: Vec::new(),
            tracer: Tracer::new(t0),
        }
    }

    fn next_miss(&mut self) -> Work {
        let k = self.misses.len();
        if k % NETLIST_EVERY == NETLIST_EVERY - 1 {
            let (deck, card, lo, hi) = DECKS[(k / NETLIST_EVERY) % DECKS.len()];
            let value = self.rng.uniform(lo, hi);
            let text = deck
                .lines()
                .map(|l| match l.strip_prefix(card) {
                    Some(_) => format!("{card}{value:e}"),
                    None => l.to_owned(),
                })
                .collect::<Vec<_>>()
                .join("\n");
            Work::Netlist(text + "\n")
        } else {
            Work::Wake {
                wake_ramp: self.rng.uniform(1.5e-9, 3.0e-9),
                i_active: self.rng.uniform(30e-3, 70e-3),
                soft: k % 2 == 1,
            }
        }
    }

    /// Runs one schedule cycle; `loop_start` dates completions. One speed
    /// probe per cycle: a cycle takes about 50 ms, and the host's speed
    /// changes over seconds.
    fn cycle(&mut self, client: &Client, traced: bool, loop_start: Instant) {
        let probe_s = crate::calib::probe();
        // The miss takes a seeded slot in each cycle, so the hits do not
        // always follow it in the same order.
        let miss_slot = if self.completed.is_empty() {
            0
        } else {
            (self.rng.next_u64() % CYCLE as u64) as usize
        };
        for slot in 0..CYCLE {
            let (work, body) = if slot == miss_slot {
                let w = self.next_miss();
                let b = w.body();
                (Some(w), b)
            } else {
                let pick = (self.rng.next_u64() % self.completed.len() as u64) as usize;
                (None, self.completed[pick].clone())
            };
            let job = (self.id as u64) << 32 | self.requests;
            self.requests += 1;
            let kind = if work.is_some() { "miss" } else { "hit" };
            let t0 = Instant::now();
            let out = if traced {
                self.tracer
                    .span("job", job, |t| request(client, &body, Some((t, job, kind))))
            } else {
                request(client, &body, None)
            };
            let latency_s = t0.elapsed().as_secs_f64();
            let ok = match out {
                Ok((result, events)) => self.check(work, body, &result, events, job, latency_s),
                Err(e) => {
                    self.errors
                        .push(format!("client {} request {job}: {e}", self.id));
                    false
                }
            };
            let record = JobRecord {
                latency_s,
                done_at_s: loop_start.elapsed().as_secs_f64(),
                ok,
                probe_s,
            };
            if traced {
                self.traced_records.push(record);
            } else {
                self.records.push(record);
            }
        }
    }

    fn check(
        &mut self,
        work: Option<Work>,
        body: String,
        result: &str,
        events: usize,
        job: u64,
        latency_s: f64,
    ) -> bool {
        let hash = fnv(result.as_bytes());
        if !result.starts_with("{\"result\":\"tran.v1\"") {
            self.errors
                .push(format!("request {job}: not a tran.v1 document"));
            return false;
        }
        match work {
            Some(work) => {
                if self
                    .first_fetch
                    .insert(body.clone(), (hash, result.len()))
                    .is_some()
                {
                    self.errors
                        .push(format!("request {job}: a miss repeated an earlier job"));
                    return false;
                }
                self.completed.push(body);
                self.misses.push(Miss {
                    job,
                    work,
                    latency_s,
                    hash,
                    bytes: result.len(),
                    events,
                });
                true
            }
            None => self.first_fetch.get(&body) == Some(&(hash, result.len())),
        }
    }
}

/// Submit, follow the SSE stream to its terminal event, fetch the result.
/// Returns the result document and the number of SSE events.
fn request(
    client: &Client,
    body: &str,
    mut trace: Option<(&mut Tracer, u64, &str)>,
) -> Result<(String, usize), String> {
    let kind_hit = trace.as_ref().is_some_and(|(_, _, k)| *k == "hit");
    let mut step =
        |name: &'static str, f: &mut dyn FnMut() -> Result<String, String>| match trace.as_mut() {
            Some((t, job, _)) => t.span(name, *job, |_| f()),
            None => f(),
        };
    let (submit, wait, fetch) = if kind_hit {
        ("serve.submit_hit", "serve.wait_hit", "serve.fetch_hit")
    } else {
        ("serve.submit_miss", "serve.wait_miss", "serve.fetch_miss")
    };
    let receipt = step(submit, &mut || {
        let r = client.submit_raw(body).map_err(|e| e.to_string())?;
        match r.status {
            200 | 202 => Ok(r.body),
            s => Err(format!("submit answered {s}: {}", r.body)),
        }
    })?;
    let id = sfet_serve::json::Json::parse(&receipt)
        .ok()
        .and_then(|j| j.get("job_id").and_then(|v| v.as_str()).map(str::to_owned))
        .ok_or("submit receipt without job_id")?;
    let mut events = 0;
    step(wait, &mut || {
        let ev = client.follow_events(&id).map_err(|e| e.to_string())?;
        events = ev.len();
        match ev.last() {
            Some((name, _)) if name == "done" => Ok(String::new()),
            other => Err(format!("job {id} ended with {other:?}")),
        }
    })?;
    let result = step(fetch, &mut || {
        let r = client.result(&id).map_err(|e| e.to_string())?;
        match r.status {
            200 => Ok(r.body),
            s => Err(format!("result answered {s}")),
        }
    })?;
    Ok((result, events))
}

/// A running server with its store directory.
struct Env {
    server: Arc<Server>,
    accept: std::thread::JoinHandle<()>,
    dir: PathBuf,
    clients: Vec<ClientState>,
}

fn health(client: &Client) -> Result<BTreeMap<String, f64>, String> {
    let doc = client.health().map_err(|e| e.to_string())?.json()?;
    Ok([
        "cache_hits",
        "cache_misses",
        "coalesced",
        "queue_rejected",
        "retries",
        "jobs_failed",
        "sim_attempts",
    ]
    .iter()
    .map(|k| {
        (
            k.to_string(),
            doc.get(k).and_then(|v| v.as_f64()).unwrap_or(f64::NAN),
        )
    })
    .collect())
}

fn start(seed: u64, rep: usize, t0: Instant) -> Result<Env, String> {
    let dir = PathBuf::from(OUT_DIR).join(format!("serve-store-{}-{rep}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = ServeConfig::new(&dir).with_workers(WORKERS);
    let server = Arc::new(Server::bind("127.0.0.1:0", cfg).map_err(|e| e.to_string())?);
    let accept = server.spawn();
    let client = Client::new(server.addr());
    let mut clients: Vec<ClientState> = (0..CLIENTS)
        .map(|c| ClientState::new(seed, c, t0))
        .collect();
    // Warm-up: each client's first cycles.
    for c in &mut clients {
        for _ in 0..WARMUP_CYCLES {
            c.cycle(&client, false, t0);
        }
        c.records.clear();
    }
    Ok(Env {
        server,
        accept,
        dir,
        clients,
    })
}

fn stop(env: Env) -> Vec<ClientState> {
    let _ = Client::new(env.server.addr()).shutdown();
    if env.accept.join().is_err() {
        eprintln!("serve accept loop panicked");
    }
    let _ = std::fs::remove_dir_all(&env.dir);
    env.clients
}

/// Runs `cycles` schedule cycles of every client, each client a closed
/// loop on its own thread. With `trace` set, each client alternates
/// blocks of [`TRACE_BLOCK`] untraced and traced cycles: the miss kinds
/// repeat every four misses (one per cycle), so blocks of four give both
/// modes every kind. Returns the untraced and traced records.
fn timed_loop(env: &mut Env, cycles: usize, trace: bool) -> (Vec<JobRecord>, Vec<JobRecord>) {
    let addr = env.server.addr();
    let start = Instant::now();
    let clients = std::mem::take(&mut env.clients);
    env.clients = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .into_iter()
            .map(|mut c| {
                s.spawn(move || {
                    let client = Client::new(addr);
                    c.records.clear();
                    for cycle in 0..cycles {
                        c.cycle(&client, trace && cycle / TRACE_BLOCK % 2 == 1, start);
                    }
                    c
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let untraced = env
        .clients
        .iter()
        .flat_map(|c| c.records.iter().copied())
        .collect();
    let traced = env
        .clients
        .iter()
        .flat_map(|c| c.traced_records.iter().copied())
        .collect();
    (untraced, traced)
}

/// Seed-independent checks of the leading misses: served bytes equal
/// `encode_tran_result` of the direct library call. Adds their outputs
/// and exact counts to `run`.
fn check_prefix(env: &Env, run: &mut RunResult) {
    let mut scratch = Tracer::new(Instant::now());
    for c in &env.clients {
        for (k, m) in c.misses.iter().take(PREFIX).enumerate() {
            match m.work.run_direct(&mut scratch, m.job) {
                Ok((result, _)) => {
                    let doc = encode_tran_result(&result);
                    if fnv(doc.as_bytes()) != m.hash || doc.len() != m.bytes {
                        run.errors.push(format!(
                            "client {} miss {k}: served bytes differ from the library call",
                            c.id
                        ));
                    }
                    let mut names: Vec<&str> = result.node_names().collect();
                    names.sort_unstable();
                    for name in names {
                        let v = result.node_samples(name).unwrap_or(&[]);
                        let lo = v.iter().copied().fold(f64::INFINITY, f64::min);
                        let hi = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                        if !(lo.is_finite() && hi.is_finite()) {
                            run.errors
                                .push(format!("client {} miss {k}: node {name} not finite", c.id));
                        }
                        run.outputs.push(format!("{}/{k}/{name}/min", c.id), lo);
                        run.outputs.push(format!("{}/{k}/{name}/max", c.id), hi);
                    }
                    add_tran_counts(&mut run.exact, &result.stats());
                }
                Err(e) => run.errors.push(format!(
                    "client {} miss {k}: library call failed: {e}",
                    c.id
                )),
            }
            *run.exact.entry("serve.sse_events".into()).or_default() += m.events as f64;
            *run.exact.entry("serve.result_kib".into()).or_default() += m.bytes as f64 / 1024.0;
        }
        if c.misses.len() < PREFIX {
            run.errors.push(format!(
                "client {} served only {} misses",
                c.id,
                c.misses.len()
            ));
        }
    }
}

/// Healthz deltas over the timed loops, as exact counts.
fn health_counts(
    before: &BTreeMap<String, f64>,
    after: &BTreeMap<String, f64>,
    run: &mut RunResult,
) {
    let d = |k: &str| after[k] - before[k];
    let (hits, misses) = (d("cache_hits"), d("cache_misses"));
    // The schedule makes one miss and CYCLE - 1 hits per cycle; the server
    // must have seen exactly that split.
    if hits != (CYCLE - 1) as f64 * misses || misses == 0.0 {
        run.errors.push(format!(
            "server counted {hits} hits and {misses} misses, not {} hits per miss",
            CYCLE - 1
        ));
    }
    let exact = &mut run.exact;
    exact.insert("serve.hit_ratio".into(), hits / (hits + misses));
    exact.insert(
        "serve.sim_attempts_per_miss".into(),
        d("sim_attempts") / misses,
    );
    for (k, v) in [
        ("serve.coalesced", d("coalesced")),
        ("serve.queue_rejected", d("queue_rejected")),
        ("serve.retries", d("retries")),
        ("serve.jobs_failed", d("jobs_failed")),
    ] {
        exact.insert(k.into(), v);
        if v != 0.0 {
            run.errors.push(format!("{k} = {v}, expected 0"));
        }
    }
    run.lines.push(format!(
        "serve: {hits} hits, {misses} misses over the timed loops"
    ));
}

pub fn run(args: &Args) -> RunResult {
    let mut run = RunResult {
        reference_rel: 1e-9,
        ..RunResult::default()
    };
    let t0 = Instant::now();
    let mut rep = 0;
    let (env, setup_s) = repeated_setup(
        CLIENTS,
        || {
            rep += 1;
            start(args.seed, rep, t0)
        },
        |env| match env {
            Ok(env) => stop(env)
                .into_iter()
                .for_each(|c| run.errors.extend(c.errors)),
            Err(e) => run.errors.push(format!("server start: {e}")),
        },
    );
    let mut env = match env {
        Ok(env) => env,
        Err(e) => {
            run.errors.push(format!("server start: {e}"));
            return run;
        }
    };
    let client = Client::new(env.server.addr());
    let before = health(&client);

    // A fixed schedule, sized from --seconds: the server keeps every
    // job's record and event log, so memory grows with the misses served
    // and only a fixed miss count gives a repeatable high-water mark (and
    // hit and miss counts that repeat exactly). A traced run leaves a
    // quarter of its time for the library re-runs after the loop.
    let mut cycles = (args.seconds * CYCLES_PER_S).ceil() as usize;
    if args.trace {
        cycles = (cycles * 3 / 4).max(2 * TRACE_BLOCK) / (2 * TRACE_BLOCK) * (2 * TRACE_BLOCK);
    }
    let (untraced, traced) = timed_loop(&mut env, cycles, args.trace);
    match (before, health(&client)) {
        (Ok(before), Ok(after)) => health_counts(&before, &after, &mut run),
        (Err(e), _) | (_, Err(e)) => run.errors.push(format!("healthz: {e}")),
    }
    check_prefix(&env, &mut run);

    if args.trace {
        let mut tracer = Tracer::new(t0);
        let mut split = SolveSplit::default();
        let mut overhead_ms = Vec::new();
        let mut encode_ms = Vec::new();
        for c in &mut env.clients {
            tracer.absorb(std::mem::replace(&mut c.tracer, Tracer::new(t0)));
        }
        // Every miss of the traced loop again, as a direct library call.
        let traced_jobs: std::collections::BTreeSet<u64> = tracer
            .spans()
            .iter()
            .filter(|s| s.name == "job")
            .map(|s| s.job)
            .collect();
        for c in &env.clients {
            for m in c.misses.iter().filter(|m| traced_jobs.contains(&m.job)) {
                let out = tracer.span("serve.lib", m.job, |t| m.work.run_direct(t, m.job));
                let lib_ms = tracer
                    .spans()
                    .last()
                    .map_or(0.0, |s| s.dur_ns() as f64 * 1e-6);
                match out {
                    Ok((result, transient_s)) => {
                        split.push(transient_s, &result.stats());
                        let (doc, enc_s) = crate::timed(|| encode_tran_result(&result));
                        encode_ms.push(enc_s * 1e3);
                        overhead_ms.push(m.latency_s * 1e3 - lib_ms);
                        if fnv(doc.as_bytes()) != m.hash || doc.len() != m.bytes {
                            run.errors.push(format!(
                                "request {}: served bytes differ from the library call",
                                m.job
                            ));
                        }
                    }
                    Err(e) => run
                        .errors
                        .push(format!("request {}: library call failed: {e}", m.job)),
                }
            }
        }
        let layers = crate::trace::fold(tracer.spans());
        run.set("serve.lib_ms", per_job_median_ms(&layers, "serve.lib"));
        run.set(
            "serve.encode_ms",
            crate::stats::median(&encode_ms).unwrap_or(0.0),
        );
        run.set(
            "serve.overhead_ms",
            crate::stats::median(&overhead_ms).unwrap_or(0.0),
        );
        run.layer_ms(
            &tracer,
            &[
                "serve.submit_hit",
                "serve.submit_miss",
                "serve.wait_hit",
                "serve.wait_miss",
                "serve.fetch_hit",
                "serve.fetch_miss",
                "pdn.build",
                "circuit.parse",
                "sim.transient",
            ],
        );
        split.record(&mut run);
        run.trace_summary(args, &untraced, &traced, &tracer);
    } else {
        run.end_to_end(&setup_s, &untraced, CYCLE * CLIENTS);
    }
    for c in stop(env) {
        run.errors.extend(c.errors);
    }
    run
}
