//! `wake_scalar`: power-gate wake-ups through the scalar stepper.
//!
//! One job is one `PowerGateScenario::run_with` (40 ns on a 4000-point
//! grid, about ten MNA unknowns, dense LU). Baseline and Soft-FET jobs
//! alternate; each pair's wake ramp and neighbour current come from the
//! seed.

use std::time::Instant;

use sfet_devices::ptm::PtmParams;
use sfet_pdn::power_gate::{PowerGateOutcome, PowerGateScenario};
use sfet_pdn::PdnParams;
use sfet_sim::{transient, SimOptions, TranResult, TranStats};
use sfet_waveform::measure::{crossing_time, droop, max_abs_didt, CrossDirection};

use crate::layers::{add_tran_counts, SolveSplit};
use crate::trace::Tracer;
use crate::{closed_loop, repeated_setup, timed, Args, RunResult};

/// Baseline/Soft-FET pairs in the input pool.
const PAIRS: usize = 4;

/// The scalar outputs one wake-up is checked on.
type Metrics = [f64; 5];

struct Job {
    scenario: PowerGateScenario,
    opts: SimOptions,
}

fn pool(seed: u64) -> Vec<Job> {
    let mut rng = crate::SplitMix::new(seed, 0x5741_4b45);
    let ramps = rng.strata(PAIRS, 1.5e-9, 3.0e-9);
    let currents = rng.strata(PAIRS, 30e-3, 70e-3);
    let mut jobs = Vec::with_capacity(2 * PAIRS);
    for (wake_ramp, i_active) in ramps.into_iter().zip(currents) {
        let base = PowerGateScenario {
            wake_ramp,
            i_active,
            ..PowerGateScenario::default()
        };
        let soft = base.with_soft_fet(PtmParams::vo2_default());
        for scenario in [base, soft] {
            let opts = SimOptions::for_duration(scenario.t_stop, 4000);
            jobs.push(Job { scenario, opts });
        }
    }
    jobs
}

fn metrics(out: &PowerGateOutcome) -> Metrics {
    [
        out.droop.droop,
        out.droop.t_droop.unwrap_or(f64::NAN),
        out.peak_inrush,
        out.di_dt,
        out.wake_time.unwrap_or(f64::NAN),
    ]
}

const NAMES: [&str; 5] = ["droop", "t_droop", "peak_inrush", "di_dt", "wake_time"];

/// Seed-independent invariants of one pool pass.
fn invariants(pool: &[Job], first: &[Metrics]) -> Vec<String> {
    let mut errors = Vec::new();
    for (i, (job, m)) in pool.iter().zip(first).enumerate() {
        if !m.iter().all(|v| v.is_finite() && *v > 0.0) {
            errors.push(format!(
                "wake job {i}: non-positive or missing output {m:?}"
            ));
        }
        if m[4] >= job.scenario.t_stop {
            errors.push(format!("wake job {i}: wake time {} past t_stop", m[4]));
        }
    }
    for (pair, ms) in first.chunks(2).enumerate() {
        if let [base, soft] = ms {
            if soft[2] >= base[2] {
                errors.push(format!(
                    "wake pair {pair}: Soft-FET inrush {:e} not below baseline {:e}",
                    soft[2], base[2]
                ));
            }
        }
    }
    errors
}

/// Bitwise comparison of a repeat against the first run of the same input.
fn same(a: &Metrics, b: &Metrics) -> bool {
    a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// `run_with`'s measurements, taken one by one on a transient result.
fn measure(s: &PowerGateScenario, result: &TranResult) -> Result<Metrics, String> {
    let rail = result
        .voltage(&PdnParams::rail_node_name("vdd"))
        .map_err(|e| e.to_string())?;
    let v_virtual = result.voltage("vvdd").map_err(|e| e.to_string())?;
    let i_rail = result.supply_current("Vvdd").map_err(|e| e.to_string())?;
    let window = rail
        .window(s.wake_start * 0.5, s.t_stop)
        .map_err(|e| e.to_string())?;
    let report = droop(&window, rail.value_at(s.wake_start * 0.9));
    let i_steady = i_rail.value_at(s.wake_start * 0.9);
    let (_, peak) = i_rail
        .map(|i| i - i_steady)
        .window(s.wake_start * 0.5, s.t_stop)
        .map_err(|e| e.to_string())?
        .peak_abs();
    let di_dt = max_abs_didt(&i_rail);
    let wake_time = crossing_time(
        &v_virtual,
        0.9 * s.pdn.v_nom,
        CrossDirection::Rising,
        s.wake_start,
    )
    .ok()
    .map(|t| t - s.wake_start);
    Ok([
        report.droop,
        report.t_droop.unwrap_or(f64::NAN),
        peak.abs(),
        di_dt,
        wake_time.unwrap_or(f64::NAN),
    ])
}

/// One traced job: `run_with` split into its layer calls.
fn decomposed(t: &mut Tracer, id: u64, job: &Job) -> Result<(Metrics, TranStats, f64), String> {
    let s = &job.scenario;
    let ckt = t
        .span("pdn.build", id, |_| s.build())
        .map_err(|e| e.to_string())?;
    let (result, transient_s) = t.span("sim.transient", id, |_| {
        timed(|| transient(&ckt, s.t_stop, &job.opts))
    });
    let result = result.map_err(|e| e.to_string())?;
    let m = t.span("waveform.measure", id, |_| measure(s, &result))?;
    Ok((m, result.stats(), transient_s))
}

pub fn run(args: &Args) -> RunResult {
    let mut run = RunResult {
        reference_rel: 1e-9,
        ..RunResult::default()
    };
    let mut errors = Vec::new();

    // Set-up: seeded inputs, one build of each circuit, one warm-up pass.
    let (pool, setup_s) = repeated_setup(
        1,
        || {
            let pool = pool(args.seed);
            for job in &pool {
                if let Err(e) = job
                    .scenario
                    .build()
                    .and_then(|_| job.scenario.run_with(&job.opts))
                {
                    errors.push(format!("wake warm-up: {e}"));
                }
            }
            pool
        },
        drop,
    );

    let mut first: Vec<Option<Metrics>> = vec![None; pool.len()];
    let mut tracer = Tracer::new(Instant::now());
    let mut split = SolveSplit::default();
    let mut counted = vec![false; pool.len()];
    let mut id = 0u64;
    let (untraced, traced) = closed_loop(args.seconds, pool.len(), 1, args.trace, |i, traced| {
        let job = &pool[i];
        let t0 = Instant::now();
        let out = if traced {
            tracer
                .span("job", id, |t| decomposed(t, id, job))
                .map(|(m, stats, transient_s)| (m, Some((stats, transient_s))))
        } else {
            job.scenario
                .run_with(&job.opts)
                .map(|out| (metrics(&out), None))
                .map_err(|e| e.to_string())
        };
        let dt = t0.elapsed().as_secs_f64();
        id += 1;
        let ok = match out {
            Ok((m, traced_stats)) => {
                if let Some((stats, transient_s)) = traced_stats {
                    split.push(transient_s, &stats);
                    if !std::mem::replace(&mut counted[i], true) {
                        add_tran_counts(&mut run.exact, &stats);
                    }
                }
                // Every repeat, and every traced decomposition, must give
                // the first untraced `run_with` outputs bit for bit.
                match &first[i] {
                    Some(f) => same(f, &m),
                    None => {
                        first[i] = Some(m);
                        true
                    }
                }
            }
            Err(e) => {
                errors.push(format!("wake job {i}: {e}"));
                false
            }
        };
        (dt, ok)
    });

    let first: Vec<Metrics> = first
        .into_iter()
        .map(|m| m.unwrap_or([f64::NAN; 5]))
        .collect();
    errors.extend(invariants(&pool, &first));
    for (i, m) in first.iter().enumerate() {
        for (name, v) in NAMES.iter().zip(m) {
            run.outputs.push(format!("{i}/{name}"), *v);
        }
    }
    if args.trace {
        run.layer_ms(&tracer, &["pdn.build", "sim.transient", "waveform.measure"]);
        split.record(&mut run);
        run.trace_summary(args, &untraced, &traced, &tracer);
    } else {
        run.end_to_end(&setup_s, &untraced, pool.len());
    }
    run.errors.extend(errors);
    run
}
