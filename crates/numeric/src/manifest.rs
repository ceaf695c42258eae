//! Sweep manifests: durable progress records for resumable sweeps.
//!
//! A long sweep (Monte Carlo population, optimizer generation) that dies at
//! task 9 000 of 10 000 should not repeat the first 9 000 tasks. A
//! [`Journal`] names an append-only text file and the identity of the sweep
//! it records; handed to [`crate::exec::par_map_outcomes`], it makes the
//! sweep resumable: every finished tile's verdicts are appended when the
//! tile finishes, and a re-run decodes every recorded success instead of
//! re-computing it, running only the pending (or previously failed) tasks.
//!
//! # File format
//!
//! Line-oriented UTF-8, append-only, flushed after every record so a crash
//! loses at most the tiles in flight (a torn trailing line is ignored on
//! load). Both header lines are written in one write, and an empty file —
//! a crash before that write — counts as no manifest:
//!
//! ```text
//! sfet-manifest v1
//! sweep <identity> total <n>
//! ok <index> <attempts> <payload>
//! failed <index> <attempts> <message>
//! ```
//!
//! `<payload>` is a caller-encoded single-line representation of the task's
//! result; [`encode_f64`]/[`decode_f64`] (and the slice variants) give an
//! exact, bitwise round-trip for floating-point results. Tasks whose stored
//! payload fails to decode — or fails the validity check the live path
//! applies, such as finiteness — are re-run rather than trusted.
//!
//! # The identity rule
//!
//! Resuming is only sound when each task's result depends solely on
//! `(index, item)` — the contract [`crate::exec::Task`] already imposes —
//! *and* the file was written by the same sweep. So the identity must cover
//! every input a task's value depends on, spelled exactly (`{:?}` for
//! floats, or a fingerprint of them); a file whose identity or task count
//! differs is a [`ManifestError::Mismatch`], never a silent reuse. A
//! resumed sweep then assembles the same result vector, bitwise, as an
//! uninterrupted one.

use std::collections::HashMap;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use crate::exec::SweepOutcome;

/// Manifest format version written to (and required in) the header.
pub const MANIFEST_VERSION: u32 = 1;

const MAGIC: &str = "sfet-manifest";

/// Errors raised by manifest I/O and parsing.
#[derive(Debug)]
pub enum ManifestError {
    /// Underlying filesystem failure (path and OS error text).
    Io(String),
    /// The file exists but is not a readable manifest.
    Format(String),
    /// The file is a valid manifest for a *different* sweep (identity or
    /// task count differs) — resuming it would silently mix results.
    Mismatch(String),
}

impl fmt::Display for ManifestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ManifestError::Io(msg) => write!(f, "manifest I/O error: {msg}"),
            ManifestError::Format(msg) => write!(f, "malformed manifest: {msg}"),
            ManifestError::Mismatch(msg) => write!(f, "manifest mismatch: {msg}"),
        }
    }
}

impl std::error::Error for ManifestError {}

type Result<T> = std::result::Result<T, ManifestError>;

/// One slot per task of a sweep: the outcome a journal resumed, if any.
type Resumed<U, E> = Vec<Option<SweepOutcome<U, E>>>;

/// Where a verdict sweep journals its tasks, which sweep the journal
/// belongs to, and how a task's value is spelled on one line. Passed to
/// [`crate::exec::par_map_outcomes`].
pub struct Journal<'a, U> {
    /// The manifest file: created if missing (or empty), resumed if it
    /// holds this sweep.
    pub path: &'a Path,
    /// Every input a task's value depends on (see the module docs' identity
    /// rule). Whitespace is collapsed before it is written.
    pub identity: String,
    /// Exact one-line spelling of a value (see [`encode_f64s`]).
    pub encode: fn(&U) -> String,
    /// Inverse of `encode` for task `index`, applying the live path's
    /// validity checks; `None` re-runs the task.
    pub decode: fn(usize, &str) -> Option<U>,
}

impl<U> Journal<'_, U> {
    /// Opens (or starts) the journal of a sweep of `total` tasks and decodes
    /// the successes it already holds, one slot per task.
    pub(crate) fn open<E>(&self, total: usize) -> Result<(SweepManifest, Resumed<U, E>)> {
        let (manifest, records) = SweepManifest::open_or_create(self.path, &self.identity, total)?;
        let mut resumed: Resumed<U, E> = (0..total).map(|_| None).collect();
        for (index, record) in records {
            if let ManifestRecord::Ok { attempts, payload } = record {
                resumed[index] = (self.decode)(index, &payload)
                    .map(|value| SweepOutcome::Ok { value, attempts });
            }
        }
        Ok((manifest, resumed))
    }

    /// Appends the verdicts of one finished tile (tasks `lanes`).
    pub(crate) fn record<E: fmt::Display>(
        &self,
        manifest: &SweepManifest,
        lanes: &[usize],
        verdicts: &[SweepOutcome<U, E>],
    ) -> Result<()> {
        for (&index, verdict) in lanes.iter().zip(verdicts) {
            match verdict {
                SweepOutcome::Ok { value, attempts } => {
                    manifest.record_ok(index, *attempts, &(self.encode)(value))?
                }
                SweepOutcome::Failed { attempts, error } => {
                    manifest.record_failed(index, *attempts, &error.to_string())?
                }
            }
        }
        Ok(())
    }
}

/// One finished-task record read back from a manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum ManifestRecord {
    /// The task succeeded; `payload` is the caller-encoded result.
    Ok {
        /// Attempts the task consumed.
        attempts: usize,
        /// Caller-encoded result line.
        payload: String,
    },
    /// The task failed every granted attempt.
    Failed {
        /// Attempts the task consumed.
        attempts: usize,
        /// Display text of the final error.
        message: String,
    },
}

/// An append-only progress file for one sweep. All writes are serialized
/// through an internal mutex and flushed immediately, so records survive a
/// crash of the very next task.
pub(crate) struct SweepManifest {
    path: PathBuf,
    file: Mutex<File>,
    name: String,
    total: usize,
}

fn io_err(path: &Path, err: std::io::Error) -> ManifestError {
    ManifestError::Io(format!("{}: {err}", path.display()))
}

/// Collapses whitespace so a token survives the space-separated format.
fn sanitize_token(s: &str) -> String {
    let t: String = s.split_whitespace().collect::<Vec<_>>().join("-");
    if t.is_empty() {
        "unnamed".into()
    } else {
        t
    }
}

/// Keeps free text on one line (messages, payloads).
fn sanitize_line(s: &str) -> String {
    s.replace(['\n', '\r'], " ")
}

impl SweepManifest {
    /// Creates (or truncates) a manifest for a sweep of `total` tasks.
    /// Both header lines go out in one write, so a crash leaves either a
    /// whole header or an empty file.
    fn create(path: &Path, name: &str, total: usize) -> Result<Self> {
        let mut file = File::create(path).map_err(|e| io_err(path, e))?;
        let name = sanitize_token(name);
        let header = format!("{MAGIC} v{MANIFEST_VERSION}\nsweep {name} total {total}\n");
        file.write_all(header.as_bytes())
            .and_then(|()| file.flush())
            .map_err(|e| io_err(path, e))?;
        Ok(SweepManifest {
            path: path.to_path_buf(),
            file: Mutex::new(file),
            name,
            total,
        })
    }

    /// Opens an existing manifest for appending, returning the records it
    /// already holds (later lines for the same index win, so a re-run's
    /// verdict supersedes an older one). A torn trailing line — the
    /// signature of a crash mid-write — is ignored.
    ///
    /// Errors: [`ManifestError::Io`] on filesystem failure,
    /// [`ManifestError::Format`] if the header or an interior line is
    /// malformed.
    fn resume(path: &Path) -> Result<(Self, HashMap<usize, ManifestRecord>)> {
        let reader = BufReader::new(File::open(path).map_err(|e| io_err(path, e))?);
        let mut lines = Vec::new();
        for line in reader.lines() {
            lines.push(line.map_err(|e| io_err(path, e))?);
        }
        let header = lines
            .first()
            .ok_or_else(|| ManifestError::Format("empty file".into()))?;
        let expected = format!("{MAGIC} v{MANIFEST_VERSION}");
        if header.trim() != expected {
            return Err(ManifestError::Format(format!(
                "bad header {header:?} (expected {expected:?})"
            )));
        }
        let sweep_line = lines
            .get(1)
            .ok_or_else(|| ManifestError::Format("missing sweep line".into()))?;
        let (name, total) = parse_sweep_line(sweep_line)?;
        let mut records = HashMap::new();
        let last = lines.len().saturating_sub(1);
        for (lineno, line) in lines.iter().enumerate().skip(2) {
            if line.trim().is_empty() {
                continue;
            }
            match parse_record(line, total) {
                Ok((index, record)) => {
                    records.insert(index, record);
                }
                // A torn final line means the process died mid-append; the
                // task it covered simply re-runs. Anywhere else it is real
                // corruption.
                Err(_) if lineno == last => {}
                Err(e) => return Err(ManifestError::Format(format!("line {}: {e}", lineno + 1))),
            }
        }
        let file = OpenOptions::new()
            .append(true)
            .open(path)
            .map_err(|e| io_err(path, e))?;
        Ok((
            SweepManifest {
                path: path.to_path_buf(),
                file: Mutex::new(file),
                name,
                total,
            },
            records,
        ))
    }

    /// Resumes `path` if it already holds a manifest for this exact sweep,
    /// otherwise creates a fresh one. A missing or empty file (a crash
    /// before the header write) holds no records and starts afresh. A
    /// manifest for a *different* sweep (name or total mismatch) is an error
    /// rather than silently clobbered.
    ///
    /// Errors: [`SweepManifest::create`]/[`SweepManifest::resume`]
    /// failures, plus [`ManifestError::Mismatch`] on a header conflict.
    fn open_or_create(
        path: &Path,
        name: &str,
        total: usize,
    ) -> Result<(Self, HashMap<usize, ManifestRecord>)> {
        if std::fs::metadata(path).map_or(true, |m| m.len() == 0) {
            return Ok((Self::create(path, name, total)?, HashMap::new()));
        }
        let (manifest, records) = Self::resume(path)?;
        let name = sanitize_token(name);
        if manifest.name != name || manifest.total != total {
            return Err(ManifestError::Mismatch(format!(
                "{} records sweep {:?} with {} tasks, expected {:?} with {}",
                path.display(),
                manifest.name,
                manifest.total,
                name,
                total
            )));
        }
        Ok((manifest, records))
    }

    /// Appends a success record. Thread-safe; flushed before returning.
    fn record_ok(&self, index: usize, attempts: usize, payload: &str) -> Result<()> {
        self.append(&format!("ok {index} {attempts} {}", sanitize_line(payload)))
    }

    /// Appends a failure record. Thread-safe; flushed before returning.
    fn record_failed(&self, index: usize, attempts: usize, message: &str) -> Result<()> {
        self.append(&format!(
            "failed {index} {attempts} {}",
            sanitize_line(message)
        ))
    }

    fn append(&self, line: &str) -> Result<()> {
        let mut file = self.file.lock().expect("manifest mutex poisoned");
        writeln!(file, "{line}").map_err(|e| io_err(&self.path, e))?;
        file.flush().map_err(|e| io_err(&self.path, e))
    }
}

fn parse_sweep_line(line: &str) -> Result<(String, usize)> {
    let mut it = line.split_whitespace();
    let bad = || ManifestError::Format(format!("bad sweep line {line:?}"));
    if it.next() != Some("sweep") {
        return Err(bad());
    }
    let name = it.next().ok_or_else(bad)?.to_string();
    if it.next() != Some("total") {
        return Err(bad());
    }
    let total = it
        .next()
        .and_then(|t| t.parse::<usize>().ok())
        .ok_or_else(bad)?;
    if it.next().is_some() {
        return Err(bad());
    }
    Ok((name, total))
}

fn parse_record(line: &str, total: usize) -> std::result::Result<(usize, ManifestRecord), String> {
    let mut parts = line.splitn(4, ' ');
    let kind = parts.next().unwrap_or_default();
    let index = parts
        .next()
        .and_then(|t| t.parse::<usize>().ok())
        .ok_or_else(|| format!("bad index in {line:?}"))?;
    if index >= total {
        return Err(format!("index {index} out of range (total {total})"));
    }
    let attempts = parts
        .next()
        .and_then(|t| t.parse::<usize>().ok())
        .filter(|&a| a >= 1)
        .ok_or_else(|| format!("bad attempt count in {line:?}"))?;
    let rest = parts.next().unwrap_or("").to_string();
    match kind {
        "ok" => Ok((
            index,
            ManifestRecord::Ok {
                attempts,
                payload: rest,
            },
        )),
        "failed" => Ok((
            index,
            ManifestRecord::Failed {
                attempts,
                message: rest,
            },
        )),
        other => Err(format!("unknown record kind {other:?}")),
    }
}

/// Encodes an `f64` as 16 hex digits of its bit pattern — an *exact*
/// round-trip, unlike any decimal formatting.
pub fn encode_f64(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

/// Inverse of [`encode_f64`]. `None` for anything else.
pub fn decode_f64(s: &str) -> Option<f64> {
    let s = s.trim();
    if s.len() != 16 {
        return None;
    }
    u64::from_str_radix(s, 16).ok().map(f64::from_bits)
}

/// Space-separated [`encode_f64`] of each element.
pub fn encode_f64s(xs: &[f64]) -> String {
    xs.iter()
        .map(|&x| encode_f64(x))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Inverse of [`encode_f64s`]. `None` if any token is malformed.
pub fn decode_f64s(s: &str) -> Option<Vec<f64>> {
    s.split_whitespace().map(decode_f64).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{par_map_outcomes, ExecConfig, Task};
    use sfet_telemetry::{names, SharedAggregator, Telemetry};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn temp_path(tag: &str) -> PathBuf {
        static COUNTER: AtomicUsize = AtomicUsize::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "sfet-manifest-{tag}-{}-{n}.txt",
            std::process::id()
        ))
    }

    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Boom(usize);

    impl fmt::Display for Boom {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "boom at {}", self.0)
        }
    }

    #[test]
    fn records_round_trip() {
        let path = temp_path("roundtrip");
        let m = SweepManifest::create(&path, "mc imax", 10).unwrap();
        m.record_ok(3, 1, &encode_f64(1.25e-3)).unwrap();
        m.record_failed(7, 3, "did not converge\nat t=1e-9")
            .unwrap();
        drop(m);
        let (m, records) = SweepManifest::resume(&path).unwrap();
        assert_eq!(m.name, "mc-imax", "whitespace sanitized");
        assert_eq!(m.total, 10);
        assert_eq!(
            records.get(&3),
            Some(&ManifestRecord::Ok {
                attempts: 1,
                payload: encode_f64(1.25e-3),
            })
        );
        match records.get(&7) {
            Some(ManifestRecord::Failed { attempts, message }) => {
                assert_eq!(*attempts, 3);
                assert!(!message.contains('\n'), "messages kept single-line");
            }
            other => panic!("expected Failed, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_trailing_line_is_ignored() {
        let path = temp_path("torn");
        let m = SweepManifest::create(&path, "s", 4).unwrap();
        m.record_ok(0, 1, "aa").unwrap();
        drop(m);
        // Simulate a crash mid-append: a record missing its fields.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        write!(f, "ok 2").unwrap();
        drop(f);
        let (_, records) = SweepManifest::resume(&path).unwrap();
        assert_eq!(records.len(), 1);
        assert!(records.contains_key(&0));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn interior_corruption_is_an_error() {
        let path = temp_path("corrupt");
        std::fs::write(
            &path,
            "sfet-manifest v1\nsweep s total 4\ngarbage line\nok 1 1 aa\n",
        )
        .unwrap();
        assert!(matches!(
            SweepManifest::resume(&path),
            Err(ManifestError::Format(_))
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn open_or_create_rejects_foreign_manifest() {
        let path = temp_path("mismatch");
        SweepManifest::create(&path, "sweep-a", 8).unwrap();
        assert!(matches!(
            SweepManifest::open_or_create(&path, "sweep-b", 8),
            Err(ManifestError::Mismatch(_))
        ));
        assert!(matches!(
            SweepManifest::open_or_create(&path, "sweep-a", 9),
            Err(ManifestError::Mismatch(_))
        ));
        assert!(SweepManifest::open_or_create(&path, "sweep-a", 8).is_ok());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn f64_encoding_is_exact() {
        for x in [
            0.0,
            -0.0,
            1.0,
            -1.25e-300,
            std::f64::consts::PI,
            f64::MIN_POSITIVE,
            f64::INFINITY,
        ] {
            let decoded = decode_f64(&encode_f64(x)).unwrap();
            assert_eq!(decoded.to_bits(), x.to_bits(), "x = {x}");
        }
        assert!(decode_f64("xyz").is_none());
        assert!(decode_f64("123").is_none());
        let xs = [1.0, -2.5, 3.75e-12];
        assert_eq!(decode_f64s(&encode_f64s(&xs)).unwrap(), xs);
    }

    #[test]
    fn empty_file_starts_a_fresh_journal() {
        // A kill between `File::create` and the header write leaves an
        // empty file; it holds no records, so the next run starts afresh
        // instead of failing on it forever.
        let path = temp_path("empty");
        std::fs::write(&path, "").unwrap();
        let (m, records) = SweepManifest::open_or_create(&path, "s", 4).unwrap();
        assert!(records.is_empty());
        m.record_ok(1, 1, "aa").unwrap();
        drop(m);
        let (_, records) = SweepManifest::open_or_create(&path, "s", 4).unwrap();
        assert_eq!(records.len(), 1, "the fresh header was written");
        // Any other malformed header stays a named error.
        std::fs::write(&path, "sfet-manifest v1\n").unwrap();
        assert!(matches!(
            SweepManifest::open_or_create(&path, "s", 4),
            Err(ManifestError::Format(_))
        ));
        std::fs::remove_file(&path).ok();
    }

    fn f64_journal<'a>(path: &'a Path, identity: &str) -> Journal<'a, f64> {
        Journal {
            path,
            identity: identity.into(),
            encode: |v| encode_f64(*v),
            decode: |_, s| decode_f64(s),
        }
    }

    #[test]
    fn resumable_sweep_skips_recorded_successes() {
        let path = temp_path("resume");
        let items: Vec<f64> = (0..12).map(|i| i as f64).collect();
        let journal = f64_journal(&path, "resume");
        let task = |_index: usize, _attempt: usize, x: &f64| Ok::<_, Boom>(x * 2.0);

        // First pass: run only via a fresh manifest.
        assert!(!path.exists());
        let (first, _) = par_map_outcomes(
            &ExecConfig::with_workers(2),
            &items,
            Some(&journal),
            Task::Each(&task),
        )
        .unwrap();
        let (_, done) = SweepManifest::resume(&path).unwrap();
        assert_eq!(done.len(), items.len());

        // Second pass: every task must come from the manifest, not the
        // closure.
        let ran = AtomicUsize::new(0);
        let (second, _) = par_map_outcomes(
            &ExecConfig::with_workers(2),
            &items,
            Some(&journal),
            Task::Each(&|i, a, x| {
                ran.fetch_add(1, Ordering::Relaxed);
                task(i, a, x)
            }),
        )
        .unwrap();
        assert_eq!(ran.load(Ordering::Relaxed), 0, "nothing re-runs");
        assert_eq!(first, second, "resumed results identical bitwise");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resumable_sweep_retries_and_records_failures() {
        let path = temp_path("failures");
        let items: Vec<usize> = (0..6).collect();
        let journal = Journal {
            path: &path,
            identity: "f".into(),
            encode: |v: &usize| v.to_string(),
            decode: |_, s| s.parse().ok(),
        };
        let (outcomes, _) = par_map_outcomes(
            &ExecConfig::serial().with_retries(2),
            &items,
            Some(&journal),
            Task::Each(&|_, attempt, &x| if x == 4 { Err(Boom(attempt)) } else { Ok(x) }),
        )
        .unwrap();
        assert_eq!(outcomes[4].attempts(), 3);
        assert!(!outcomes[4].is_ok());

        // On resume the failed task re-runs (and this time succeeds).
        let (retried, _) = par_map_outcomes(
            &ExecConfig::serial().with_retries(2),
            &items,
            Some(&journal),
            Task::Each(&|_, _, &x| Ok::<_, Boom>(x)),
        )
        .unwrap();
        assert!(retried.iter().all(|o| o.is_ok()));
        assert_eq!(retried[4].value(), Some(&4));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn batched_journal_resumes_pending_lanes_in_index_order() {
        // Journalled sweeps run tiled: the pending set of a resumed journal
        // is not contiguous, so each lane carries its input index, and the
        // pending lanes are tiled in index order.
        let path = temp_path("tiled");
        let items: Vec<f64> = (0..10).map(|i| i as f64 + 0.5).collect();
        let journal = f64_journal(&path, "tiled");
        let value = |index: usize, x: f64| x * 3.0 + index as f64;
        let down = [1usize, 4, 5, 8];
        let cfg = ExecConfig::with_workers(2).with_batch(3);
        let (first, _) = par_map_outcomes(
            &cfg,
            &items,
            Some(&journal),
            Task::Tiled(&|_, lanes| {
                lanes
                    .iter()
                    .map(|&(i, &x)| {
                        if down.contains(&i) {
                            Err(Boom(i))
                        } else {
                            Ok(value(i, x))
                        }
                    })
                    .collect()
            }),
        )
        .unwrap();
        assert_eq!(first.iter().filter(|o| !o.is_ok()).count(), 4);

        let tiles = std::sync::Mutex::new(Vec::new());
        let agg = SharedAggregator::new();
        let (resumed, stats) = par_map_outcomes(
            &cfg.clone().with_telemetry(Telemetry::new(agg.clone())),
            &items,
            Some(&journal),
            Task::Tiled(&|_, lanes| {
                tiles
                    .lock()
                    .unwrap()
                    .push(lanes.iter().map(|&(i, _)| i).collect::<Vec<_>>());
                lanes
                    .iter()
                    .map(|&(i, &x)| Ok::<_, Boom>(value(i, x)))
                    .collect()
            }),
        )
        .unwrap();
        let mut tiles = tiles.into_inner().unwrap();
        tiles.sort();
        assert_eq!(tiles, vec![vec![1, 4, 5], vec![8]]);
        for (i, o) in resumed.iter().enumerate() {
            assert_eq!(o.value(), Some(&value(i, items[i])), "task {i}");
        }
        assert_eq!(stats.tasks_total, 4);
        let counts = agg.snapshot();
        assert_eq!(counts.counter(names::EXEC_TASKS_TOTAL), 4);
        assert_eq!(counts.counter(names::EXEC_TASKS_RESUMED), 6);
        assert_eq!(counts.counter(names::EXEC_BATCH_TILES), 2);
        std::fs::remove_file(&path).ok();
    }
}
