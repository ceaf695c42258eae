//! Closed-loop design-space optimization over the Soft-FET operating
//! point: reproduce the paper's hand-picked design, then let the
//! optimizer beat it.
//!
//! Runs `sfet-optimize`'s standard run (the paper's design space, the
//! min-worst-corner-droop objective at iso-delay), prints per-generation
//! progress, and emits under the figure directory:
//!
//! * `optimize_frontier.csv` — the Pareto frontier (droop reduction vs
//!   delay penalty vs area ratio) with decoded design values;
//! * `optimize_frontier.md` — the same frontier as a markdown table with
//!   the knee annotated;
//! * `BENCH_optimize.json` — machine-readable run summary for CI.
//!
//! **Reproduce-then-beat gate:** exits non-zero unless the best found
//! point is feasible (within the iso-delay cap) and its worst-corner
//! droop reduction is at least the paper operating point's, measured
//! through the identical pipeline. Pass `--smoke` for a fast
//! low-generation run (gate still enforced), `--algorithm
//! coordinate|evolution` to pick the optimizer, `--seed N` to reseed.

use std::sync::Arc;

use sfet_bench::{banner, figure_dir, save_json, save_rows, telemetry_from_args};
use sfet_optimize::{frontier, Algorithm, StandardRun};

fn main() {
    banner("optimize", "closed-loop design-space optimization");
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let algorithm = args
        .iter()
        .position(|a| a == "--algorithm")
        .and_then(|i| args.get(i + 1))
        .map(|s| Algorithm::parse(s).unwrap_or_else(|| panic!("unknown --algorithm `{s}`")))
        .unwrap_or(Algorithm::Evolution);
    let seed = args
        .iter()
        .position(|a| a == "--seed")
        .and_then(|i| args.get(i + 1))
        .map(|s| s.parse().expect("--seed takes a u64"))
        .unwrap_or(0x050F_7FE7_u64);

    let mut run = StandardRun::new(1.0, seed);
    run.algorithm = algorithm;
    if smoke {
        run.config.max_generations = 4;
        run.population = 6;
    }
    run.config.exec = run.config.exec.with_telemetry(telemetry_from_args());
    run.config.progress = Some(Arc::new(|s: &sfet_optimize::GenerationSummary| {
        println!(
            "  gen {:>2}: {} candidates / {} lanes, best reduction {:>5.1} %, objective {:.3}{}",
            s.generation,
            s.candidates,
            s.lanes,
            s.best_reduction_pct,
            s.best_objective,
            if s.improved { "  ← improved" } else { "" },
        );
    }));

    let outcome = run.run().unwrap_or_else(|e| {
        eprintln!("optimize run failed: {e}");
        std::process::exit(2);
    });

    let (ref_point, ref_eval) = &outcome.reference;
    println!(
        "\nbaseline worst-corner droop: {:.3} mV",
        outcome.baseline.droop_mv
    );
    println!(
        "paper point ({}): reduction {:.1} %, delay {:.2} ps, area ratio {:.2}",
        format_args!(
            "v_imt={:.2} V, t_ptm={:.0} ps, t_rise={:.0} ps",
            ref_point.ptm.v_imt,
            ref_point.ptm.t_ptm * 1e12,
            ref_point.t_rise * 1e12
        ),
        ref_eval.droop_reduction_pct,
        ref_eval.delay * 1e12,
        ref_eval.area_ratio,
    );
    let best = &outcome.best;
    println!(
        "best found  (gen {}, cand {}): reduction {:.1} %, delay {:.2} ps ({:+.1} % vs cap base), area ratio {:.2}",
        best.generation,
        best.candidate,
        best.eval.droop_reduction_pct,
        best.eval.delay * 1e12,
        best.eval.delay_penalty_pct,
        best.eval.area_ratio,
    );

    // Artifacts.
    let space = sfet_optimize::DesignSpace::soft_fet_standard();
    let names: Vec<&str> = space.axes().iter().map(|a| a.name).collect();
    let front = frontier::pareto_frontier(&outcome.evaluated);
    let csv = frontier::frontier_csv(&names, &front);
    let rows: Vec<String> = csv.lines().skip(1).map(String::from).collect();
    save_rows(
        "optimize_frontier.csv",
        &frontier::frontier_header(&names),
        &rows,
    );
    let md = frontier::frontier_markdown(&names, &front);
    let md_path = figure_dir().join("optimize_frontier.md");
    std::fs::write(&md_path, &md).expect("write optimize_frontier.md");
    println!(
        "wrote {} ({} frontier points)",
        md_path.display(),
        front.len()
    );

    save_json("BENCH_optimize.json", |doc| {
        doc.str("algorithm", outcome.algorithm)
            .u64("seed", seed)
            .bool("smoke", smoke)
            .u64("generations", outcome.history.len() as u64)
            .u64("candidates", outcome.evaluated.len() as u64)
            .u64("frontier_points", front.len() as u64)
            .f64("baseline_droop_mv", outcome.baseline.droop_mv)
            .f64("paper_reduction_pct", ref_eval.droop_reduction_pct)
            .f64("paper_delay_ps", ref_eval.delay * 1e12)
            .f64("best_reduction_pct", best.eval.droop_reduction_pct)
            .f64("best_delay_ps", best.eval.delay * 1e12)
            .f64("best_area_ratio", best.eval.area_ratio)
            .bool("best_feasible", best.eval.feasible)
            .bool(
                "beats_paper",
                best.eval.droop_reduction_pct >= ref_eval.droop_reduction_pct,
            );
    });

    // Reproduce-then-beat gate.
    if !best.eval.feasible {
        eprintln!("GATE FAILED: best point violates the iso-delay/yield constraints");
        std::process::exit(1);
    }
    if best.eval.droop_reduction_pct < ref_eval.droop_reduction_pct {
        eprintln!(
            "GATE FAILED: best reduction {:.2} % < paper point {:.2} %",
            best.eval.droop_reduction_pct, ref_eval.droop_reduction_pct
        );
        std::process::exit(1);
    }
    println!(
        "gate passed: {:.1} % ≥ paper {:.1} % at iso-delay",
        best.eval.droop_reduction_pct, ref_eval.droop_reduction_pct
    );
}
