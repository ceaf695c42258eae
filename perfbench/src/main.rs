//! Host-time benchmark of the Soft-FET reproduction, end to end and layer
//! by layer. See `README.md` next to this package for the workloads, the
//! metrics and the entry points it calls.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload wake_scalar --seed 1 --seconds 15 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.

mod calib;
mod check;
mod layers;
mod mc;
mod pdn;
mod serve;
mod stats;
mod trace;
mod wake;

use std::collections::BTreeMap;
use std::time::Instant;

use check::Outputs;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["wake_scalar", "mc_batched", "pdn_map", "serve_mixed"];

/// End-to-end metrics of an untraced run: (name, unit).
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("job_p50_ms", "ms"),
    ("job_p90_ms", "ms"),
    ("peak_rss_mib", "MiB"),
    ("ok_frac", "ratio"),
];

/// Per-layer metrics of a traced run: (name, unit). A layer a workload
/// bypasses reports 0.
pub const PER_LAYER: [(&str, &str); 45] = [
    ("pdn.build_ms", "ms"),
    ("sim.transient_ms", "ms"),
    ("numeric.solve_ms", "ms"),
    ("numeric.solve_share", "ratio"),
    ("sim.nonsolve_ms", "ms"),
    ("sim.us_per_step", "us"),
    ("waveform.measure_ms", "ms"),
    ("pdn.reduce_ms", "ms"),
    ("sim.steps", "count"),
    ("sim.steps_rejected", "count"),
    ("sim.newton_iters", "count"),
    ("sim.ptm_transitions", "count"),
    ("numeric.factorizations", "count"),
    ("numeric.refactorizations", "count"),
    ("numeric.solves", "count"),
    ("numeric.factor_nnz", "count"),
    ("numeric.pivot_fallbacks", "count"),
    ("numeric.gmres_iters", "count"),
    ("numeric.gmres_fallbacks", "count"),
    ("core.tile_ms", "ms"),
    ("sim.batch_ms", "ms"),
    ("exec.efficiency", "ratio"),
    ("exec.failed_samples", "count"),
    ("circuit.parse_ms", "ms"),
    ("serve.submit_hit_ms", "ms"),
    ("serve.submit_miss_ms", "ms"),
    ("serve.wait_hit_ms", "ms"),
    ("serve.wait_miss_ms", "ms"),
    ("serve.fetch_hit_ms", "ms"),
    ("serve.fetch_miss_ms", "ms"),
    ("serve.sse_events", "count"),
    ("serve.result_kib", "KiB"),
    ("serve.lib_ms", "ms"),
    ("serve.encode_ms", "ms"),
    ("serve.overhead_ms", "ms"),
    ("serve.hit_ratio", "ratio"),
    ("serve.coalesced", "count"),
    ("serve.queue_rejected", "count"),
    ("serve.retries", "count"),
    ("serve.sim_attempts_per_miss", "ratio"),
    ("serve.jobs_failed", "count"),
    ("trace.overhead_frac", "ratio"),
    ("trace.unattributed_frac", "ratio"),
    ("trace.jobs", "count"),
    ("trace.untraced_jobs", "count"),
];

/// Setup repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// Blocks the timed loop's completions are split into for `jobs_per_s`.
pub const RATE_BLOCKS: usize = 10;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Print the default-seed reference lines instead of checking them.
    pub emit_reference: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = check::DEFAULT_SEED;
    let mut seconds = 20.0;
    let mut trace = false;
    let mut emit_reference = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--emit-reference" {
            emit_reference = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| format!("bad --seconds {value:?}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; known: {WORKLOADS:?}"
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        emit_reference,
    })
}

/// SplitMix64: the benchmark's own input generator, independent of any
/// generator in the program under test.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// The stream for `seed` and a per-use `salt`. Both pass through the
    /// output mix: SplitMix states a small multiple of the increment apart
    /// give the same sequence shifted, which once made the two serve
    /// clients draw the same jobs.
    pub fn new(seed: u64, salt: u64) -> SplitMix {
        SplitMix(mix(seed ^ mix(salt)))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.0)
    }

    /// Uniform in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64)
    }

    /// `n` values in `[lo, hi)`, one uniform draw from each of `n` equal
    /// strata, in seeded order. A pool drawn this way covers its range the
    /// same way for every seed, so its total cost varies little between
    /// seeds.
    pub fn strata(&mut self, n: usize, lo: f64, hi: f64) -> Vec<f64> {
        let mut v: Vec<f64> = (0..n)
            .map(|k| lo + (hi - lo) * self.uniform(k as f64, k as f64 + 1.0) / n as f64)
            .collect();
        for i in (1..n).rev() {
            v.swap(i, (self.next_u64() % (i as u64 + 1)) as usize);
        }
        v
    }
}

/// SplitMix64's output function, a bijection on `u64`.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One job of a timed loop.
#[derive(Debug, Clone, Copy)]
pub struct JobRecord {
    /// Host latency \[s\].
    pub latency_s: f64,
    /// Completion time since the loop started \[s\].
    pub done_at_s: f64,
    /// Completed and passed its output check.
    pub ok: bool,
    /// Mean host speed probe before and after the job \[s\].
    pub probe_s: f64,
}

impl JobRecord {
    /// Latency scaled to the nominal probe time \[s\].
    pub fn normalized_s(&self) -> f64 {
        self.latency_s * calib::NOMINAL_S / self.probe_s
    }
}

/// Runs `job` over the input pool in a closed loop, whole pool cycles at a
/// time, until `seconds` have passed. `job(i, traced)` does and checks the
/// work for pool entry `i`; it returns the job's own host latency and
/// whether it passed, so checking stays out of the latency. Each job is
/// bracketed by host speed probes on `threads` threads.
///
/// With `trace` set, cycles alternate untraced and traced, starting
/// untraced and ending on a traced cycle, so both see the same host and
/// every traced job can compare against an untraced one. Returns the
/// untraced and the traced records.
pub fn closed_loop(
    seconds: f64,
    pool: usize,
    threads: usize,
    trace: bool,
    mut job: impl FnMut(usize, bool) -> (f64, bool),
) -> (Vec<JobRecord>, Vec<JobRecord>) {
    let start = Instant::now();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    for cycle in 0.. {
        let tracing = trace && cycle % 2 == 1;
        for i in 0..pool {
            let before = calib::probe_threads(threads);
            let (latency_s, ok) = job(i, tracing);
            let done_at_s = start.elapsed().as_secs_f64();
            let probe_s = 0.5 * (before + calib::probe_threads(threads));
            let record = JobRecord {
                latency_s,
                done_at_s,
                ok,
                probe_s,
            };
            if tracing {
                traced.push(record);
            } else {
                untraced.push(record);
            }
        }
        if start.elapsed().as_secs_f64() >= seconds && (!trace || tracing) {
            break;
        }
    }
    (untraced, traced)
}

/// Times `f` \[s\].
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

/// Runs `setup` [`SETUP_REPS`] times, tearing down all but the last, and
/// returns the last state with every repetition's duration, normalized
/// like job latencies by probes on `threads` threads.
pub fn repeated_setup<S>(
    threads: usize,
    mut setup: impl FnMut() -> S,
    mut teardown: impl FnMut(S),
) -> (S, Vec<f64>) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        if let Some(prev) = last.take() {
            teardown(prev);
        }
        let before = calib::probe_threads(threads);
        let (s, dt) = timed(&mut setup);
        let probe_s = 0.5 * (before + calib::probe_threads(threads));
        times.push(dt * calib::NOMINAL_S / probe_s);
        last = Some(s);
    }
    (last.expect("SETUP_REPS is positive"), times)
}

/// What a run hands back to the reporter.
#[derive(Debug, Default)]
pub struct RunResult {
    pub attempted: u64,
    pub ok: u64,
    /// Failed checks, one message each; any entry makes the run incorrect.
    pub errors: Vec<String>,
    /// Outputs of one pass over the input pool, in pool order.
    pub outputs: Outputs,
    /// Reference tolerance for `outputs` on the default seed.
    pub reference_rel: f64,
    /// Counts that must repeat exactly across runs.
    pub exact: BTreeMap<String, f64>,
    /// Metric values by name; the reporter selects and orders them.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the JSON result.
    pub lines: Vec<String>,
}

impl RunResult {
    /// Records the end-to-end metrics of an untraced loop whose jobs come
    /// in cycles of `cycle` (one pass over the input pool). Times are
    /// normalized to the nominal host speed (see [`calib`]).
    pub fn end_to_end(&mut self, setup_s: &[f64], jobs: &[JobRecord], cycle: usize) {
        let mut jobs = jobs.to_vec();
        jobs.sort_by(|a, b| a.done_at_s.total_cmp(&b.done_at_s));
        let blocks = Blocks::new(&jobs, cycle);
        let probes = windowed_probes(&jobs);
        let lat: Vec<f64> = jobs
            .iter()
            .zip(&probes)
            .map(|(j, probe)| j.latency_s * calib::NOMINAL_S / probe)
            .collect();
        let raw: Vec<f64> = jobs.iter().map(|j| j.latency_s).collect();
        self.attempted += jobs.len() as u64;
        self.ok += jobs.iter().filter(|j| j.ok).count() as u64;
        self.set("setup_s", stats::median(setup_s).unwrap_or(f64::NAN));
        self.set(
            "jobs_per_s",
            stats::median(&blocks.rates).unwrap_or(f64::NAN),
        );
        self.set(
            "job_p50_ms",
            stats::median(&lat).map_or(f64::NAN, |s| s * 1e3),
        );
        self.set(
            "job_p90_ms",
            stats::percentile(&lat, 90.0).map_or(f64::NAN, |s| s * 1e3),
        );
        self.lines.push(format!(
            "setup: {} repetitions, {:?} s (normalized)",
            setup_s.len(),
            setup_s
                .iter()
                .map(|s| (s * 1e4).round() / 1e4)
                .collect::<Vec<_>>()
        ));
        self.lines
            .push(stats::describe_ms("job latency (normalized)", &lat));
        self.lines
            .push(stats::describe_ms("job latency (raw)", &raw));
        self.lines.push(format!(
            "host speed: median probe {:.2} us against nominal {:.2} us, {} blocks",
            stats::median(&probes).unwrap_or(f64::NAN) * 1e6,
            calib::NOMINAL_S * 1e6,
            blocks.rates.len()
        ));
        if stats::beyond(lat.len(), 90.0) < stats::MIN_BEYOND {
            self.lines.push(format!(
                "note: job_p90_ms rests on {} samples beyond it (fewer than {})",
                stats::beyond(lat.len(), 90.0),
                stats::MIN_BEYOND
            ));
        }
    }

    /// Sets metric `name`, which must be listed in [`END_TO_END`] or
    /// [`PER_LAYER`].
    pub fn set(&mut self, name: &str, v: f64) {
        let key = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|m| m.0)
            .find(|n| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not declared"));
        self.metrics.insert(key, v);
    }

    /// Sets `<span>_ms` to the per-job median time of each named span.
    pub fn layer_ms(&mut self, tracer: &trace::Tracer, spans: &[&str]) {
        let layers = trace::fold(tracer.spans());
        for span in spans {
            self.set(
                &format!("{span}_ms"),
                trace::per_job_median_ms(&layers, span),
            );
        }
    }

    /// Records the traced jobs' mean normalized latency against the
    /// untraced jobs' of the same run, the fold of the recorded spans and
    /// the exact counts, and writes the spans out.
    pub fn trace_summary(
        &mut self,
        args: &Args,
        untraced: &[JobRecord],
        traced: &[JobRecord],
        tracer: &trace::Tracer,
    ) {
        let mean = |jobs: &[JobRecord]| {
            jobs.iter().map(JobRecord::normalized_s).sum::<f64>() / jobs.len().max(1) as f64
        };
        let layers = trace::fold(tracer.spans());
        self.set("trace.overhead_frac", mean(traced) / mean(untraced) - 1.0);
        self.set("trace.unattributed_frac", trace::unattributed_frac(&layers));
        self.set("trace.jobs", traced.len() as f64);
        self.set("trace.untraced_jobs", untraced.len() as f64);
        for (label, jobs) in [("untraced", untraced), ("traced", traced)] {
            let lat: Vec<f64> = jobs.iter().map(JobRecord::normalized_s).collect();
            self.lines.push(stats::describe_ms(
                &format!("{label} job latency (normalized)"),
                &lat,
            ));
        }
        for (name, layer) in &layers {
            let per_job: Vec<f64> = layer
                .per_job_ns
                .values()
                .map(|&ns| ns as f64 * 1e-9)
                .collect();
            self.lines
                .push(stats::describe_ms(&format!("{name} per job"), &per_job));
        }
        self.lines.push(format!(
            "self time per layer:\n{}",
            trace::self_time_table(&layers)
        ));
        for jobs in [untraced, traced] {
            self.attempted += jobs.len() as u64;
            self.ok += jobs.iter().filter(|j| j.ok).count() as u64;
        }
        let exact: Vec<(String, f64)> = self.exact.iter().map(|(k, v)| (k.clone(), *v)).collect();
        for (k, v) in exact {
            self.set(&k, v);
        }
        let path = std::path::Path::new(check::OUT_DIR)
            .join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        match tracer.write_jsonl(&path) {
            Ok(()) => self.lines.push(format!(
                "spans: {} written to {}",
                tracer.spans().len(),
                path.display()
            )),
            Err(e) => self
                .errors
                .push(format!("cannot write {}: {e}", path.display())),
        }
    }
}

/// The timed loop's completions cut into up to [`RATE_BLOCKS`] blocks of
/// consecutive jobs, each a whole number of `cycle`-job cycles so every
/// block holds the same mix of inputs; jobs past the last whole block
/// join it.
#[derive(Debug)]
struct Blocks {
    /// Each block's completion rate, scaled by its median speed probe.
    rates: Vec<f64>,
}

impl Blocks {
    /// `jobs` must be sorted by completion time.
    fn new(jobs: &[JobRecord], cycle: usize) -> Blocks {
        let cycle = cycle.max(1);
        let per = cycle * (jobs.len() / cycle / RATE_BLOCKS).max(1);
        let count = (jobs.len() / per).max(1);
        let mut rates = Vec::with_capacity(count);
        let mut prev = 0.0;
        for b in 0..count {
            let block = &jobs[b * per..if b + 1 == count {
                jobs.len()
            } else {
                (b + 1) * per
            }];
            let probes: Vec<f64> = block.iter().map(|j| j.probe_s).collect();
            let Some(probe) = stats::median(&probes) else {
                break;
            };
            let end = block[block.len() - 1].done_at_s;
            if end > prev && jobs.len() >= cycle {
                rates.push(block.len() as f64 / (end - prev) * probe / calib::NOMINAL_S);
            }
            prev = end;
        }
        Blocks { rates }
    }
}

/// Seconds on either side of a job whose speed probes scale its latency.
const PROBE_WINDOW_S: f64 = 0.25;

/// The speed probe each job's latency is scaled by: the median of the
/// probes of the jobs completed within [`PROBE_WINDOW_S`] of it. One
/// probe can catch a moment of contention with the workload's own
/// threads; the host's speed changes over seconds. `jobs` must be sorted
/// by completion time.
fn windowed_probes(jobs: &[JobRecord]) -> Vec<f64> {
    let mut lo = 0;
    let mut hi = 0;
    jobs.iter()
        .map(|j| {
            while jobs[lo].done_at_s < j.done_at_s - PROBE_WINDOW_S {
                lo += 1;
            }
            while hi < jobs.len() && jobs[hi].done_at_s <= j.done_at_s + PROBE_WINDOW_S {
                hi += 1;
            }
            let probes: Vec<f64> = jobs[lo..hi].iter().map(|k| k.probe_s).collect();
            stats::median(&probes).unwrap_or(j.probe_s)
        })
        .collect()
}

/// Peak resident set of this process \[MiB\] (`VmHWM`).
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_owned())
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_owned()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    // The program under test reads SFET_* variables (threads, lane width,
    // solver policy, fault plans); the benchmark sets all of these through
    // its own configuration, so inherited values must not leak in.
    for (key, _) in std::env::vars() {
        if key.starts_with("SFET_") {
            std::env::remove_var(key);
        }
    }
    let mut run = match args.workload.as_str() {
        "wake_scalar" => wake::run(&args),
        "mc_batched" => mc::run(&args),
        "pdn_map" => pdn::run(&args),
        "serve_mixed" => serve::run(&args),
        other => unreachable!("workload {other} passed validation"),
    };

    // Before any reporting, so the high-water mark is the workload's own.
    let peak_rss = peak_rss_mib();
    if args.emit_reference {
        print!("{}", run.outputs.reference_lines(&args.workload));
        return;
    }
    if args.seed == check::DEFAULT_SEED {
        let mismatches = run
            .outputs
            .compare_reference(&args.workload, run.reference_rel);
        run.lines.push(format!(
            "reference (seed {}): {} outputs, {} mismatches",
            args.seed,
            run.outputs.values.len(),
            mismatches.len()
        ));
        run.errors.extend(mismatches);
    }
    let ledger = check::check_ledger(&args.workload, args.seed, &run.exact);
    run.errors.extend(ledger);
    run.lines.push(format!(
        "output digest: {:016x} over {} outputs",
        run.outputs.digest(),
        run.outputs.values.len()
    ));

    let names: Vec<(&str, &str)> = if args.trace {
        PER_LAYER.to_vec()
    } else {
        match peak_rss {
            Ok(v) => run.set("peak_rss_mib", v),
            Err(e) => run.errors.push(e),
        }
        let attempted = run.attempted.max(1) as f64;
        run.set("ok_frac", run.ok as f64 / attempted);
        END_TO_END.to_vec()
    };
    let mut metrics = Vec::new();
    for (name, unit) in names {
        let v = run.metrics.get(name).copied().unwrap_or(0.0);
        if !v.is_finite() {
            run.errors.push(format!("metric {name} is not finite"));
        }
        metrics.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(v)
        ));
    }
    for line in &run.lines {
        println!("{line}");
    }
    for e in &run.errors {
        println!("CHECK FAILED: {e}");
    }
    let correct = run.errors.is_empty() && run.attempted > 0 && run.ok == run.attempted;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.attempted.max(1),
        run.attempted.max(1) - run.ok.min(run.attempted.max(1)),
        metrics.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric and workload lists here and in `BENCHMARK.json` agree.
    #[test]
    fn benchmark_json_names_match() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let names: Vec<&str> = text
            .split("\"name\": \"")
            .skip(1)
            .filter_map(|s| s.split('"').next())
            .collect();
        let expected: Vec<&str> = WORKLOADS
            .iter()
            .copied()
            .chain(END_TO_END.iter().map(|m| m.0))
            .chain(PER_LAYER.iter().map(|m| m.0))
            .collect();
        assert_eq!(names, expected);
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "{entry} missing");
        }
    }

    /// A stalled block does not move the median rate, and rates and
    /// latencies are scaled by the block's probe: at twice the nominal
    /// probe time, jobs count double.
    #[test]
    fn blocks_ignore_one_stalled_block() {
        let mut t = 0.0;
        let jobs: Vec<JobRecord> = (0..42)
            .map(|i| {
                t += if i == 25 { 1.0 } else { 0.01 };
                JobRecord {
                    latency_s: 0.01,
                    done_at_s: t,
                    ok: true,
                    probe_s: 2.0 * calib::NOMINAL_S,
                }
            })
            .collect();
        let blocks = Blocks::new(&jobs, 4);
        assert_eq!(blocks.rates.len(), 10);
        let rate = stats::median(&blocks.rates).unwrap();
        assert!((rate - 200.0).abs() < 1e-6, "rate {rate}");
        assert!(Blocks::new(&jobs[..3], 4).rates.is_empty());
    }

    /// A job's probe is the median of its neighbours' within the window,
    /// so one contended probe is ignored and a speed change is followed.
    #[test]
    fn windowed_probes_follow_speed_changes() {
        let jobs: Vec<JobRecord> = (0..20)
            .map(|i| JobRecord {
                latency_s: 0.1,
                done_at_s: 0.1 * i as f64,
                ok: true,
                probe_s: match i {
                    5 => 9.0,
                    0..10 => 1.0,
                    _ => 2.0,
                },
            })
            .collect();
        let p = windowed_probes(&jobs);
        assert_eq!(p[5], 1.0);
        assert_eq!((p[0], p[19]), (1.0, 2.0));
    }

    /// Streams for neighbouring salts share no values.
    #[test]
    fn salted_streams_do_not_overlap() {
        for seed in [1, 402, 977] {
            let draw = |salt| {
                let mut r = SplitMix::new(seed, salt);
                (0..1000)
                    .map(|_| r.next_u64())
                    .collect::<std::collections::BTreeSet<_>>()
            };
            assert!(draw(7).is_disjoint(&draw(8)), "seed {seed}");
        }
    }

    #[test]
    fn strata_cover_every_stratum() {
        let mut rng = SplitMix::new(5, 1);
        let mut v = rng.strata(8, 2.0, 4.0);
        v.sort_by(f64::total_cmp);
        for (k, x) in v.iter().enumerate() {
            let lo = 2.0 + 0.25 * k as f64;
            assert!((lo..lo + 0.25).contains(x), "{x} outside stratum {k}");
        }
    }

    #[test]
    fn closed_loop_runs_whole_cycles() {
        let (untraced, traced) = closed_loop(0.0, 3, 1, false, |_, t| (0.0, !t));
        assert_eq!((untraced.len(), traced.len()), (3, 0));
        let (untraced, traced) = closed_loop(0.0, 3, 1, true, |_, t| (0.0, t));
        assert_eq!((untraced.len(), traced.len()), (3, 3));
        assert!(traced.iter().all(|j| j.ok) && untraced.iter().all(|j| !j.ok));
    }
}
