//! Ablations of the simulator design choices called out in DESIGN.md:
//!
//! 1. integration method (backward Euler vs trapezoidal vs Gear-2) —
//!    accuracy on an analytic RC reference and effect on Soft-FET metrics;
//! 2. PTM event refinement (`event_vtol`) — how crossing tolerance moves
//!    the measured transition times and I_MAX;
//! 3. linear-solver backend (dense vs sparse) — result equivalence (the
//!    measured runtimes of both backends are in docs/SOLVERS.md).

use sfet_bench::banner;
use sfet_circuit::{Circuit, SourceWaveform};
use sfet_devices::ptm::PtmParams;
use sfet_numeric::integrate::Method;
use sfet_sim::{transient, LinearSolver, SimOptions};
use softfet::inverter::{InverterSpec, Topology};
use softfet::metrics::{inverter_sim_options, measure_from_result};
use softfet::report::{fmt_si, Table};

fn rc_reference_error(method: Method, points: usize) -> f64 {
    let mut ckt = Circuit::new();
    let a = ckt.node("a");
    let out = ckt.node("out");
    let gnd = Circuit::ground();
    ckt.add_voltage_source("V1", a, gnd, SourceWaveform::ramp(0.0, 1.0, 0.0, 1e-15))
        .expect("rc build");
    ckt.add_resistor("R1", a, out, 1e3).expect("rc build");
    ckt.add_capacitor("C1", out, gnd, 1e-15).expect("rc build");
    let tstop = 5e-12;
    let opts = SimOptions::for_duration(tstop, points).with_method(method);
    let r = transient(&ckt, tstop, &opts).expect("rc converges");
    let v = r.voltage("out").expect("node exists");
    let mut worst = 0.0f64;
    for k in 1..=50 {
        let t = tstop * k as f64 / 50.0;
        let exact = 1.0 - (-t / 1e-12).exp();
        worst = worst.max((v.value_at(t) - exact).abs());
    }
    worst
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    banner(
        "Ablation 1",
        "Integration method: RC accuracy and Soft-FET metrics",
    );
    let mut t1 = Table::new(&["method", "RC err (100 pts)", "RC err (400 pts)", "order"]);
    for method in [Method::BackwardEuler, Method::Trapezoidal, Method::Gear2] {
        let e1 = rc_reference_error(method, 100);
        let e2 = rc_reference_error(method, 400);
        t1.add_row(vec![
            method.to_string(),
            format!("{e1:.2e}"),
            format!("{e2:.2e}"),
            format!("{:.1}", (e1 / e2).log2() / 2.0),
        ]);
    }
    println!("{t1}");

    let ptm = PtmParams::vo2_default();
    let mut t2 = Table::new(&["method", "I_MAX", "delay", "transitions"]);
    for method in [Method::BackwardEuler, Method::Trapezoidal, Method::Gear2] {
        let spec = InverterSpec::minimum(1.0, Topology::SoftFet(ptm));
        let opts = inverter_sim_options(&spec).with_method(method);
        let result = transient(&spec.build()?, spec.t_stop, &opts)?;
        let m = measure_from_result(&spec, &result)?;
        t2.add_row(vec![
            method.to_string(),
            fmt_si(m.i_max, "A"),
            fmt_si(m.delay, "s"),
            m.transitions.to_string(),
        ]);
    }
    println!("{t2}");
    println!("expectation: metrics agree across methods (method-independent physics).\n");

    banner("Ablation 2", "PTM event refinement tolerance (event_vtol)");
    let mut t3 = Table::new(&["event_vtol", "I_MAX", "first transition", "rejected steps"]);
    for vtol in [50e-3, 10e-3, 2e-3, 0.5e-3] {
        let spec = InverterSpec::minimum(1.0, Topology::SoftFet(ptm));
        let mut opts = inverter_sim_options(&spec);
        opts.event_vtol = vtol;
        let result = transient(&spec.build()?, spec.t_stop, &opts)?;
        let events = result.ptm_events("PG1")?;
        let m = measure_from_result(&spec, &result)?;
        t3.add_row(vec![
            fmt_si(vtol, "V"),
            fmt_si(m.i_max, "A"),
            events
                .first()
                .map(|e| fmt_si(e.time, "s"))
                .unwrap_or_else(|| "-".into()),
            result.stats().steps_rejected.to_string(),
        ]);
    }
    println!("{t3}");
    println!("expectation: transition time converges as the tolerance tightens, at the cost of rejected steps.\n");

    banner(
        "Ablation 3",
        "LTE step control vs fixed stepping (smooth PDN-scale problem)",
    );
    {
        use sfet_circuit::{Circuit, SourceWaveform};
        let build = || -> Result<Circuit, Box<dyn std::error::Error>> {
            let mut ckt = Circuit::new();
            let a = ckt.node("a");
            let m1 = ckt.node("m1");
            let out = ckt.node("out");
            let gnd = Circuit::ground();
            ckt.add_voltage_source("V1", a, gnd, SourceWaveform::ramp(0.0, 1.0, 0.1e-9, 0.3e-9))?;
            ckt.add_resistor("R1", a, m1, 50.0)?;
            ckt.add_inductor("L1", m1, out, 1e-9)?;
            ckt.add_capacitor("C1", out, gnd, 1e-12)?;
            Ok(ckt)
        };
        let ckt = build()?;
        let tstop = 10e-9;
        let fixed = transient(&ckt, tstop, &SimOptions::for_duration(tstop, 8000))?;
        let mut lte_opts = SimOptions::for_duration(tstop, 200).with_lte(0.5e-3);
        lte_opts.dtmax = tstop / 50.0;
        let lte = transient(&ckt, tstop, &lte_opts)?;
        let vf = fixed.voltage("out")?;
        let vl = lte.voltage("out")?;
        let mut worst = 0.0f64;
        for k in 1..=40 {
            let tq = tstop * k as f64 / 40.0;
            worst = worst.max((vf.value_at(tq) - vl.value_at(tq)).abs());
        }
        let mut t5 = Table::new(&["controller", "accepted steps", "worst deviation"]);
        t5.add_row(vec![
            "fixed dt (8000 pts)".into(),
            fixed.stats().steps_accepted.to_string(),
            "reference".into(),
        ]);
        t5.add_row(vec![
            "LTE (tol 0.5 mV)".into(),
            lte.stats().steps_accepted.to_string(),
            fmt_si(worst, "V"),
        ]);
        println!("{t5}");
        println!(
            "expectation: LTE control reaches reference accuracy in a fraction of the steps.\n"
        );
    }

    banner(
        "Ablation 4",
        "Linear-solver backend equivalence (dense vs sparse)",
    );
    let spec = InverterSpec::minimum(1.0, Topology::SoftFet(ptm));
    let mut rows = Vec::new();
    for solver in [LinearSolver::Dense, LinearSolver::Sparse] {
        let opts = inverter_sim_options(&spec).with_solver(solver);
        let start = std::time::Instant::now();
        let result = transient(&spec.build()?, spec.t_stop, &opts)?;
        let wall = start.elapsed();
        let m = measure_from_result(&spec, &result)?;
        rows.push((solver, m.i_max, m.delay, wall));
    }
    let mut t4 = Table::new(&["solver", "I_MAX", "delay", "wall time"]);
    for (solver, imax, delay, wall) in &rows {
        t4.add_row(vec![
            solver.to_string(),
            fmt_si(*imax, "A"),
            fmt_si(*delay, "s"),
            format!("{:.1} ms", wall.as_secs_f64() * 1e3),
        ]);
    }
    println!("{t4}");
    let di = (rows[0].1 - rows[1].1).abs() / rows[0].1;
    println!("I_MAX relative deviation between backends: {di:.2e} (must be ~1e-6 class)");
    Ok(())
}
