//! `mc_batched`: Monte-Carlo I_MAX sweeps through the batched lanes.
//!
//! One job is one `monte_carlo_imax_with` sweep of [`SAMPLES`] PTM draws,
//! at lane width [`LANES`] on [`WORKERS`] workers, both set through
//! `ExecConfig`. Each pool entry's sweep seed comes from the workload seed.

use std::time::Instant;

use sfet_devices::ptm::PtmParams;
use sfet_numeric::exec::{task_seed, ExecConfig};
use sfet_sim::{transient_batch, BatchSpec, TranStats};
use softfet::inverter::{InverterSpec, Topology};
use softfet::metrics::{inverter_sim_options, measure_inverter_batch};
use softfet::variation::{monte_carlo_imax_with, McSummary, PtmVariation, VariationRng};

use crate::layers::add_tran_counts;
use crate::trace::{per_span_median_ms, Tracer};
use crate::{closed_loop, repeated_setup, timed, Args, RunResult};

/// Sweeps in the input pool.
const POOL: usize = 4;
/// PTM draws per sweep.
const SAMPLES: usize = 64;
/// Lane width of one batched tile.
const LANES: usize = 8;
/// Sweep workers.
const WORKERS: usize = 2;
/// Supply \[V\].
const VDD: f64 = 1.0;
/// I_MAX budget for the yield figure: 1.5× the nominal Soft-FET I_MAX, as
/// in the `variation_mc` example.
const YIELD_LIMIT: f64 = 1.5 * 45.5e-6;

fn config() -> ExecConfig {
    ExecConfig::with_workers(WORKERS).with_batch(LANES)
}

fn pool(seed: u64) -> Vec<u64> {
    let mut rng = crate::SplitMix::new(seed, 0x4d43);
    (0..POOL).map(|_| rng.next_u64()).collect()
}

fn sweep(cfg: &ExecConfig, sweep_seed: u64) -> Result<McSummary, String> {
    monte_carlo_imax_with(
        cfg,
        VDD,
        PtmParams::vo2_default(),
        &PtmVariation::default(),
        SAMPLES,
        sweep_seed,
        YIELD_LIMIT,
    )
    .map_err(|e| e.to_string())
}

/// The inverter lanes of sample indices `range`, drawn the way the sweep
/// draws them: sample `i` reads its own stream `task_seed(seed, i)`.
fn lanes(sweep_seed: u64, range: std::ops::Range<usize>) -> Vec<InverterSpec> {
    let base = PtmParams::vo2_default();
    range
        .map(|i| {
            let mut rng = VariationRng::new(task_seed(sweep_seed, i as u64));
            let ptm = PtmVariation::default().sample(&base, &mut rng);
            InverterSpec::minimum(VDD, Topology::SoftFet(ptm))
        })
        .collect()
}

fn bits(s: &McSummary) -> Vec<u64> {
    [
        s.mean_i_max,
        s.std_i_max,
        s.min_i_max,
        s.max_i_max,
        s.yield_fraction,
    ]
    .iter()
    .chain(&s.i_max_values)
    .map(|v| v.to_bits())
    .collect()
}

/// Seed-independent invariants of one sweep.
fn invariants(k: usize, s: &McSummary) -> Vec<String> {
    let mut errors = Vec::new();
    let v = &s.i_max_values;
    if s.samples != SAMPLES || v.len() != SAMPLES {
        errors.push(format!(
            "mc sweep {k}: {} samples, expected {SAMPLES}",
            v.len()
        ));
    }
    if !v.iter().all(|x| x.is_finite() && *x > 0.0) || !v.windows(2).all(|w| w[0] <= w[1]) {
        errors.push(format!(
            "mc sweep {k}: I_MAX values not positive, finite and sorted"
        ));
    }
    if !(s.min_i_max <= s.mean_i_max && s.mean_i_max <= s.max_i_max && s.std_i_max >= 0.0) {
        errors.push(format!("mc sweep {k}: inconsistent summary"));
    }
    if !(0.0..=1.0).contains(&s.yield_fraction) {
        errors.push(format!(
            "mc sweep {k}: yield {} outside [0, 1]",
            s.yield_fraction
        ));
    }
    errors
}

/// What one traced sweep found, beyond the sweep's own summary.
struct Decomposed {
    /// I_MAX of every lane through `measure_inverter_batch`, sorted.
    i_max: Vec<f64>,
    /// Statistics of every lane through `transient_batch`.
    stats: Vec<TranStats>,
    failed: u64,
    /// Serial tile time over (workers × sweep time).
    efficiency: f64,
}

/// One traced job: the sweep, then the same samples tile by tile on this
/// thread, first through the metrics layer, then the bare batched
/// transient.
fn decomposed(
    t: &mut Tracer,
    id: u64,
    cfg: &ExecConfig,
    sweep_seed: u64,
) -> Result<(McSummary, Decomposed), String> {
    let (summary, sweep_s) = t.span("core.sweep", id, |_| timed(|| sweep(cfg, sweep_seed)));
    let summary = summary?;
    let mut d = Decomposed {
        i_max: Vec::with_capacity(SAMPLES),
        stats: Vec::with_capacity(SAMPLES),
        failed: 0,
        efficiency: 0.0,
    };
    let mut tiles_s = 0.0;
    for start in (0..SAMPLES).step_by(LANES) {
        let specs = lanes(sweep_seed, start..(start + LANES).min(SAMPLES));
        let opts: Vec<_> = specs.iter().map(inverter_sim_options).collect();
        let refs: Vec<_> = specs.iter().zip(&opts).collect();
        let (measured, tile_s) =
            t.span("core.tile", id, |_| timed(|| measure_inverter_batch(&refs)));
        tiles_s += tile_s;
        for m in measured {
            match m {
                Ok(m) => d.i_max.push(m.i_max),
                Err(_) => d.failed += 1,
            }
        }
        let circuits = specs
            .iter()
            .map(InverterSpec::build)
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;
        let batch: Vec<BatchSpec> = circuits
            .iter()
            .zip(&specs)
            .zip(&opts)
            .map(|((circuit, spec), opts)| BatchSpec {
                circuit,
                tstop: spec.t_stop,
                opts,
            })
            .collect();
        for r in t.span("sim.batch", id, |_| transient_batch(&batch)) {
            d.stats.push(r.map_err(|e| e.to_string())?.stats());
        }
    }
    d.i_max.sort_by(f64::total_cmp);
    d.efficiency = tiles_s / (WORKERS as f64 * sweep_s);
    Ok((summary, d))
}

pub fn run(args: &Args) -> RunResult {
    let mut run = RunResult {
        reference_rel: 1e-9,
        ..RunResult::default()
    };
    let mut errors = Vec::new();

    // Set-up: seeded sweep seeds, the execution policy, one warm-up sweep.
    let ((cfg, pool), setup_s) = repeated_setup(
        WORKERS,
        || {
            let pool = pool(args.seed);
            let cfg = config();
            if let Err(e) = sweep(&cfg, pool[0]) {
                errors.push(format!("mc warm-up sweep: {e}"));
            }
            (cfg, pool)
        },
        drop,
    );

    let mut first: Vec<Option<McSummary>> = vec![None; pool.len()];
    let mut tracer = Tracer::new(Instant::now());
    let mut efficiency = Vec::new();
    let mut counted = vec![false; pool.len()];
    let mut id = 0u64;
    let (untraced, traced) = closed_loop(
        args.seconds,
        pool.len(),
        WORKERS,
        args.trace,
        |k, traced| {
            let t0 = Instant::now();
            let out = if traced {
                tracer
                    .span("job", id, |t| decomposed(t, id, &cfg, pool[k]))
                    .map(|(s, d)| (s, Some(d)))
            } else {
                sweep(&cfg, pool[k]).map(|s| (s, None))
            };
            let dt = t0.elapsed().as_secs_f64();
            id += 1;
            let ok = match out {
                Ok((s, d)) => {
                    let tiles_match = d.as_ref().is_none_or(|d| {
                        d.i_max
                            .iter()
                            .map(|v| v.to_bits())
                            .eq(s.i_max_values.iter().map(|v| v.to_bits()))
                    });
                    if let Some(d) = d {
                        efficiency.push(d.efficiency);
                        if !std::mem::replace(&mut counted[k], true) {
                            *run.exact.entry("exec.failed_samples".into()).or_default() +=
                                d.failed as f64;
                            for s in &d.stats {
                                add_tran_counts(&mut run.exact, s);
                            }
                        }
                    }
                    tiles_match
                        && match &first[k] {
                            Some(f) => bits(f) == bits(&s),
                            None => {
                                first[k] = Some(s);
                                true
                            }
                        }
                }
                Err(e) => {
                    errors.push(format!("mc sweep {k}: {e}"));
                    false
                }
            };
            (dt, ok)
        },
    );

    for (k, s) in first.iter().enumerate() {
        let Some(s) = s else {
            errors.push(format!("mc sweep {k} never completed"));
            continue;
        };
        errors.extend(invariants(k, s));
        for (name, v) in [
            ("mean", s.mean_i_max),
            ("std", s.std_i_max),
            ("min", s.min_i_max),
            ("max", s.max_i_max),
            ("yield", s.yield_fraction),
        ] {
            run.outputs.push(format!("{k}/{name}"), v);
        }
        for (i, v) in s.i_max_values.iter().enumerate() {
            run.outputs.push(format!("{k}/i_max/{i}"), *v);
        }
    }
    if args.trace {
        run.set(
            "core.tile_ms",
            per_span_median_ms(tracer.spans(), "core.tile"),
        );
        run.set(
            "sim.batch_ms",
            per_span_median_ms(tracer.spans(), "sim.batch"),
        );
        run.set(
            "exec.efficiency",
            crate::stats::median(&efficiency).unwrap_or(0.0),
        );
        run.trace_summary(args, &untraced, &traced, &tracer);
    } else {
        run.end_to_end(&setup_s, &untraced, pool.len());
    }
    run.errors.extend(errors);
    run
}
