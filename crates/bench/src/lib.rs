//! Shared helpers for the figure, ablation, droop-map and optimizer
//! binaries.
//!
//! Each `fig*` binary regenerates one figure/table of the paper: it prints
//! the same rows/series the paper plots and drops CSV files under
//! `target/paper_figures/` for external plotting. Run them all with:
//!
//! ```text
//! for f in 02 03 04 05 06 07 08 09 10 11; do cargo run --release -p sfet-bench --bin fig$f; done
//! ```

use std::path::PathBuf;

/// Directory where the figure binaries drop their CSV series.
///
/// Created on first use; defaults to `target/paper_figures` under the
/// workspace, overridable with the `SFET_FIG_DIR` environment variable.
pub fn figure_dir() -> PathBuf {
    let dir = std::env::var_os("SFET_FIG_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target/paper_figures"));
    std::fs::create_dir_all(&dir).expect("create figure output dir");
    dir
}

/// Writes CSV columns for a figure and reports the path on stdout.
pub fn save_csv(name: &str, columns: &[(&str, &sfet_waveform::Waveform)]) {
    let path = figure_dir().join(name);
    match sfet_waveform::csv::write_csv(&path, columns) {
        Ok(()) => println!("  [csv] {}", path.display()),
        Err(e) => eprintln!("  [csv] failed to write {}: {e}", path.display()),
    }
}

/// Writes arbitrary text rows as a CSV file and reports the path.
pub fn save_rows(name: &str, header: &str, rows: &[String]) {
    let path = figure_dir().join(name);
    let mut text = String::from(header);
    text.push('\n');
    for row in rows {
        text.push_str(row);
        text.push('\n');
    }
    match std::fs::write(&path, text) {
        Ok(()) => println!("  [csv] {}", path.display()),
        Err(e) => eprintln!("  [csv] failed to write {}: {e}", path.display()),
    }
}

/// Writes a benchmark summary — the JSON object `fields` writes, through
/// the workspace's one writer — to `name` under the figure directory and
/// reports the path. Exits with status 1 when the file cannot be written:
/// CI archives these files.
pub fn save_json(name: &str, fields: impl FnOnce(&mut sfet_telemetry::json::Object<'_>)) {
    let mut text = String::new();
    fields(&mut sfet_telemetry::json::Object::new(&mut text));
    text.push('\n');
    let path = figure_dir().join(name);
    match std::fs::write(&path, &text) {
        Ok(()) => println!("  [json] {}", path.display()),
        Err(e) => {
            eprintln!("failed to write {}: {e}", path.display());
            std::process::exit(1);
        }
    }
}

/// Builds a telemetry handle from a `--trace <path>` command-line flag.
///
/// When the invoking binary was passed `--trace trace.jsonl`, the
/// returned handle records [`sfet_telemetry::Level::Step`]-level events
/// to that file as JSONL and prints the aggregate summary table to
/// stderr when the process exits. Without the flag, the disabled
/// (zero-cost) handle is returned. Exits with status 2 on a malformed
/// flag or an uncreatable file — these binaries have no other CLI
/// surface to report through.
pub fn telemetry_from_args() -> sfet_telemetry::Telemetry {
    use sfet_telemetry::{JsonlSink, Level, SummarySink, Tee, Telemetry};

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg != "--trace" {
            continue;
        }
        let Some(path) = args.next() else {
            eprintln!("--trace requires a file path");
            std::process::exit(2);
        };
        let file = match std::fs::File::create(&path) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("--trace: cannot create {path}: {e}");
                std::process::exit(2);
            }
        };
        println!("  [trace] {path}");
        let tee = Tee::new()
            .with(JsonlSink::new(std::io::BufWriter::new(file)))
            .with(SummarySink::new(std::io::stderr()));
        return Telemetry::with_level(tee, Level::Step);
    }
    Telemetry::disabled()
}

/// Builds a checkpoint policy from `--checkpoint` / `--checkpoint-every`
/// / `--resume` command-line flags.
///
/// `--checkpoint <path>` enables periodic snapshots of the transient
/// stepper to `<path>` (atomically replaced each time); the cadence
/// defaults to every 200 accepted steps and is tuned with
/// `--checkpoint-every <n>`. `--resume <path>` restarts a killed run from
/// an existing snapshot — the resumed waveform is bitwise identical to an
/// uninterrupted run (see `docs/RESILIENCE.md`). Without any of the flags
/// the disabled (zero-cost) policy is returned. Exits with status 2 on a
/// malformed flag, matching [`telemetry_from_args`].
pub fn checkpoint_from_args() -> sfet_sim::CheckpointPolicy {
    use sfet_sim::CheckpointPolicy;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let value_of = |flag: &str| -> Option<&str> {
        args.iter().position(|a| a == flag).map(|i| {
            args.get(i + 1).map(String::as_str).unwrap_or_else(|| {
                eprintln!("{flag} requires a value");
                std::process::exit(2);
            })
        })
    };

    let every = match value_of("--checkpoint-every") {
        Some(s) => match s.parse::<usize>() {
            Ok(n) if n > 0 => n,
            _ => {
                eprintln!("--checkpoint-every: expected a positive integer, got {s:?}");
                std::process::exit(2);
            }
        },
        None => 200,
    };
    let mut policy = match value_of("--checkpoint") {
        Some(path) => {
            println!("  [ckpt] writing {path} every {every} accepted steps");
            CheckpointPolicy::write_to(path, every)
        }
        None => CheckpointPolicy::disabled(),
    };
    if let Some(path) = value_of("--resume") {
        println!("  [ckpt] resuming from {path}");
        policy = policy.with_resume_from(path);
    }
    policy
}

/// Prints the standard experiment banner.
pub fn banner(fig: &str, title: &str) {
    println!("==========================================================");
    println!("{fig}: {title}");
    println!("==========================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_dir_is_creatable() {
        let d = figure_dir();
        assert!(d.exists());
    }

    #[test]
    fn save_rows_roundtrip() {
        save_rows("unit_test.csv", "a,b", &["1,2".to_string()]);
        let text = std::fs::read_to_string(figure_dir().join("unit_test.csv")).unwrap();
        assert!(text.starts_with("a,b\n1,2"));
    }
}
