//! Batched-engine throughput benchmark: scalar vs structure-of-arrays
//! evaluation at equal worker counts, with a bitwise equality gate on
//! every compared result. Emits `BENCH_batched.json` (under the figure
//! directory) so CI can archive the numbers per commit.
//!
//! Two levels are measured:
//!
//! * `transient_lanes` — B independent transients through one
//!   [`sfet_sim::transient_batch`] call versus B scalar
//!   [`sfet_sim::transient`] calls (the raw engine win: shared symbolic
//!   analysis, amortized per-analysis overhead, lane-interleaved solves);
//! * `monte_carlo_imax` — the end-to-end rewired Monte-Carlo sweep at lane
//!   width 8 versus a scalar-pipeline sweep of the same samples at the
//!   same worker count.
//!
//! Uses only `std::time` — no Criterion — so it runs in plain CI without
//! the `bench-harness` feature. Pass `--smoke` for a fast low-iteration
//! run that still exercises (and bitwise-checks) every measured path.

use std::time::Instant;

use sfet_bench::save_json;
use sfet_circuit::{Circuit, SourceWaveform};
use sfet_devices::ptm::PtmParams;
use sfet_numeric::exec::{self, task_seed, ExecConfig};
use sfet_sim::{transient, transient_batch, BatchSpec, SimOptions};
use softfet::inverter::{InverterSpec, Topology};
use softfet::metrics::measure_inverter;
use softfet::variation::{monte_carlo_imax_with, PtmVariation, VariationRng};

struct Measurement {
    case: &'static str,
    tasks: usize,
    scalar_ns: f64,
    batched_ns: f64,
}

impl Measurement {
    fn speedup(&self) -> f64 {
        self.scalar_ns / self.batched_ns
    }
}

fn time_per_iter<F: FnMut()>(iters: u32, mut f: F) -> f64 {
    // One untimed pass warms caches and sizes scratch buffers; the
    // minimum over the timed passes is the least-noise estimate on a
    // shared CI box (scheduler preemption only ever inflates a sample).
    f();
    let mut best = f64::INFINITY;
    for _ in 0..iters {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_nanos() as f64);
    }
    best
}

/// A two-pole RC ladder; per-lane element values so no two lanes share a
/// trajectory.
fn rc_ladder(lane: usize) -> Circuit {
    let r = 1e3 * (1.0 + 0.31 * lane as f64);
    let mut ckt = Circuit::new();
    let (a, m, out, gnd) = (
        ckt.node("a"),
        ckt.node("m"),
        ckt.node("out"),
        Circuit::ground(),
    );
    ckt.add_voltage_source("V1", a, gnd, SourceWaveform::ramp(0.0, 1.0, 1e-12, 10e-12))
        .expect("ladder build");
    ckt.add_resistor("R1", a, m, r).expect("ladder build");
    ckt.add_capacitor("C1", m, gnd, 1e-15)
        .expect("ladder build");
    ckt.add_resistor("R2", m, out, 2.0 * r)
        .expect("ladder build");
    ckt.add_capacitor("C2", out, gnd, 0.5e-15)
        .expect("ladder build");
    ckt
}

fn transient_lanes_case(lanes: usize, iters: u32) -> Measurement {
    let tstop = 120e-12;
    let opts = SimOptions::for_duration(tstop, 800);
    let circuits: Vec<Circuit> = (0..lanes).map(rc_ladder).collect();

    // Bitwise gate before timing: every lane must match its scalar twin.
    let specs: Vec<BatchSpec<'_>> = circuits
        .iter()
        .map(|c| BatchSpec {
            circuit: c,
            tstop,
            opts: &opts,
        })
        .collect();
    for (lane, (c, b)) in circuits.iter().zip(transient_batch(&specs)).enumerate() {
        let s = transient(c, tstop, &opts).expect("scalar lane");
        let b = b.expect("batched lane");
        let (vs, vb) = (s.voltage("out").unwrap(), b.voltage("out").unwrap());
        assert_eq!(vs.values().len(), vb.values().len(), "lane {lane}");
        for (a, b) in vs.values().iter().zip(vb.values()) {
            assert_eq!(a.to_bits(), b.to_bits(), "lane {lane} diverged");
        }
    }

    let scalar_ns = time_per_iter(iters, || {
        for c in &circuits {
            std::hint::black_box(transient(c, tstop, &opts).expect("scalar lane"));
        }
    });
    let batched_ns = time_per_iter(iters, || {
        std::hint::black_box(transient_batch(&specs));
    });

    Measurement {
        case: "transient_lanes",
        tasks: lanes,
        scalar_ns,
        batched_ns,
    }
}

fn monte_carlo_case(n: usize, workers: usize, iters: u32) -> Measurement {
    let (vdd, base, var, seed) = (1.0, PtmParams::vo2_default(), PtmVariation::default(), 123);

    // The pre-batching pipeline, preserved inline as the baseline: one
    // scalar `measure_inverter` per sample through the scalar `par_map`.
    let indices: Vec<usize> = (0..n).collect();
    let scalar_cfg = ExecConfig::with_workers(workers);
    let scalar_sweep = || {
        let sample = |_, _, &i: &usize| {
            let mut rng = VariationRng::new(task_seed(seed, i as u64));
            let ptm = var.sample(&base, &mut rng);
            measure_inverter(&InverterSpec::minimum(vdd, Topology::SoftFet(ptm))).map(|m| m.i_max)
        };
        let (mut values, _) =
            exec::par_map(&scalar_cfg, &indices, exec::Task::Each(&sample)).expect("scalar sweep");
        values.sort_by(f64::total_cmp);
        values
    };
    let batched_cfg = ExecConfig::with_workers(workers).with_batch(8);
    let batched_sweep = || {
        monte_carlo_imax_with(&batched_cfg, vdd, base, &var, n, seed, 1e-3)
            .expect("batched sweep")
            .i_max_values
    };

    // Bitwise gate: identical populations, or the speedup is meaningless.
    let (s, b) = (scalar_sweep(), batched_sweep());
    assert_eq!(
        s.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        b.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        "batched population diverged from scalar"
    );

    let scalar_ns = time_per_iter(iters, || {
        std::hint::black_box(scalar_sweep());
    });
    let batched_ns = time_per_iter(iters, || {
        std::hint::black_box(batched_sweep());
    });

    Measurement {
        case: "monte_carlo_imax",
        tasks: n,
        scalar_ns,
        batched_ns,
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let iters: u32 = if smoke { 1 } else { 5 };
    // Equal worker count on both sides; 1 keeps the comparison about the
    // batching itself rather than thread-scheduler noise (CI boxes are
    // often single-core, where extra workers only add context switches).
    let workers = 1;

    let results = if smoke {
        vec![
            transient_lanes_case(4, iters),
            monte_carlo_case(8, workers, iters),
        ]
    } else {
        vec![
            transient_lanes_case(4, iters),
            transient_lanes_case(8, iters),
            monte_carlo_case(16, workers, iters),
        ]
    };

    println!(
        "{:<18} {:>6} {:>14} {:>14} {:>9}",
        "case", "tasks", "scalar/ms", "batched/ms", "speedup"
    );
    for m in &results {
        println!(
            "{:<18} {:>6} {:>14.2} {:>14.2} {:>8.2}x",
            m.case,
            m.tasks,
            m.scalar_ns / 1e6,
            m.batched_ns / 1e6,
            m.speedup()
        );
    }

    println!();
    save_json("BENCH_batched.json", |doc| {
        doc.str("bench", "batched_soa_sweep")
            .str("mode", if smoke { "smoke" } else { "full" })
            .u64("iters", iters.into());
        let mut entries = doc.array("results");
        for m in &results {
            entries
                .object()
                .str("case", m.case)
                .u64("tasks", m.tasks as u64)
                .u64("workers", workers as u64)
                .f64("scalar_ns", m.scalar_ns)
                .f64("batched_ns", m.batched_ns)
                .f64("speedup", m.speedup())
                .str("bitwise", "ok");
        }
    });
}
