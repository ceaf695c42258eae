//! Loopback load benchmark for the `sfet-serve` job server: an
//! in-process server hammered by concurrent client threads submitting a
//! mixed workload with deliberate duplicates, so one run exercises the
//! whole service contract — queueing, backpressure (429 + retry),
//! result-store dedup, SSE completion, and the bitwise-identity gate
//! between duplicate fetches. Emits `BENCH_serve.json` (under the
//! figure directory) so CI can archive the numbers per commit.
//!
//! Pass `--smoke` for a fast run (fewer clients/jobs, same gates) that
//! suits per-commit CI; the default sizing submits hundreds of jobs.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use sfet_bench::{banner, save_json};
use sfet_serve::{Client, ServeConfig, Server};

struct Load {
    clients: usize,
    submissions_per_client: usize,
    distinct_jobs: usize,
    workers: usize,
    queue_capacity: usize,
}

/// The job body for workload slot `k`: mostly cheap RC steps with
/// distinct resistances, every eighth slot a (shared) power-gate wake —
/// mixed sizes, deterministic content.
fn body_for(k: usize) -> String {
    if k % 8 == 7 {
        r#"{"scenario":"power_gate_wake","params":{"t_stop":6e-9}}"#.to_owned()
    } else {
        format!(
            r#"{{"scenario":"rc_step","params":{{"r":{}.25}}}}"#,
            500 + k
        )
    }
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let load = if smoke {
        Load {
            clients: 4,
            submissions_per_client: 12,
            distinct_jobs: 10,
            workers: 2,
            queue_capacity: 8,
        }
    } else {
        Load {
            clients: 12,
            submissions_per_client: 32,
            distinct_jobs: 48,
            workers: 4,
            queue_capacity: 16,
        }
    };
    let total = load.clients * load.submissions_per_client;
    banner(
        "bench_serve",
        &format!(
            "{} clients x {} submissions ({} total, {} distinct) vs {} workers, queue {}",
            load.clients,
            load.submissions_per_client,
            total,
            load.distinct_jobs,
            load.workers,
            load.queue_capacity
        ),
    );

    let store_dir = std::env::temp_dir().join(format!("sfet-bench-serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    let cfg = ServeConfig::new(&store_dir)
        .with_workers(load.workers)
        .with_queue_capacity(load.queue_capacity);
    let server = Arc::new(Server::bind("127.0.0.1:0", cfg).expect("bind loopback"));
    let accept = server.spawn();
    let client = Client::new(server.addr());

    let retries_429 = Arc::new(AtomicU64::new(0));
    let started = Instant::now();
    let mut handles = Vec::new();
    for c in 0..load.clients {
        let addr = server.addr();
        let distinct = load.distinct_jobs;
        let per_client = load.submissions_per_client;
        let retries_429 = retries_429.clone();
        handles.push(std::thread::spawn(move || {
            let client = Client::new(addr);
            let mut submit_us: Vec<f64> = Vec::with_capacity(per_client);
            let mut job_ids: Vec<String> = Vec::new();
            for i in 0..per_client {
                // Interleave slots across clients so duplicates arrive
                // from different connections concurrently.
                let slot = (c + i * 7) % distinct;
                let body = body_for(slot);
                loop {
                    let t0 = Instant::now();
                    let resp = client.submit_raw(&body).expect("submit over loopback");
                    submit_us.push(t0.elapsed().as_secs_f64() * 1e6);
                    match resp.status {
                        202 | 200 => {
                            let doc = resp.json().expect("submit response is JSON");
                            job_ids.push(
                                doc.get("job_id")
                                    .and_then(|j| j.as_str())
                                    .expect("job_id")
                                    .to_owned(),
                            );
                            break;
                        }
                        429 => {
                            // Honour the advertised backoff, then retry:
                            // the benchmark's workload must all land.
                            retries_429.fetch_add(1, Ordering::Relaxed);
                            let secs = resp.retry_after.unwrap_or(1);
                            std::thread::sleep(std::time::Duration::from_millis(
                                50.max(secs * 100),
                            ));
                        }
                        other => panic!("unexpected submit status {other}: {}", resp.body),
                    }
                }
            }
            // Follow every job this client submitted to its terminal
            // event, then fetch its result.
            let mut failed = 0u64;
            for id in &job_ids {
                let events = client.follow_events(id).expect("SSE stream");
                match events.last() {
                    Some((name, _)) if name == "done" => {
                        let result = client.result(id).expect("fetch result");
                        assert_eq!(result.status, 200, "{}", result.body);
                    }
                    _ => failed += 1,
                }
            }
            (submit_us, failed)
        }));
    }

    let mut submit_us: Vec<f64> = Vec::with_capacity(total);
    let mut failed_jobs = 0u64;
    for h in handles {
        let (lat, failed) = h.join().expect("client thread");
        submit_us.extend(lat);
        failed_jobs += failed;
    }
    let wall_s = started.elapsed().as_secs_f64();

    // Bitwise dedup gate: the same body fetched twice serves identical
    // bytes, and the store holds exactly the distinct jobs.
    let gate_body = body_for(0);
    let a = client.run_to_result(&gate_body).expect("gate fetch a");
    let b = client.run_to_result(&gate_body).expect("gate fetch b");
    assert_eq!(a, b, "duplicate submissions must serve identical bytes");

    let health = client
        .health()
        .expect("healthz")
        .json()
        .expect("health JSON");
    let stat = |k: &str| -> u64 { health.get(k).and_then(|v| v.as_f64()).unwrap_or(0.0) as u64 };
    let sim_attempts = stat("sim_attempts");
    let cache_hits = stat("cache_hits");
    assert!(failed_jobs == 0, "{failed_jobs} jobs failed under load");
    assert!(
        sim_attempts as usize <= load.distinct_jobs + stat("retries") as usize,
        "dedup must cap simulations at the distinct-job count (+retries): \
         {sim_attempts} attempts for {} distinct",
        load.distinct_jobs
    );

    let _ = client.shutdown();
    accept.join().expect("accept loop");

    submit_us.sort_by(f64::total_cmp);
    let summary = save_json("BENCH_serve.json", |doc| {
        doc.str("bench", "serve")
            .bool("smoke", smoke)
            .u64("clients", load.clients as u64)
            .u64("workers", load.workers as u64)
            .u64("queue_capacity", load.queue_capacity as u64)
            .u64("submissions", total as u64)
            .u64("distinct_jobs", load.distinct_jobs as u64)
            .f64("wall_s", wall_s)
            .f64("jobs_per_s", total as f64 / wall_s)
            .f64("submit_p50_us", percentile(&submit_us, 0.50))
            .f64("submit_p90_us", percentile(&submit_us, 0.90))
            .f64("submit_p99_us", percentile(&submit_us, 0.99))
            .u64("sim_attempts", sim_attempts)
            .u64("cache_hits", cache_hits)
            .u64("coalesced", stat("coalesced"))
            .u64("rejected_429", stat("queue_rejected"))
            .u64("client_429_retries", retries_429.load(Ordering::Relaxed));
    });
    print!("{summary}");

    let _ = std::fs::remove_dir_all(&store_dir);
}
