//! Output checks: reference values for the default seed, an output digest,
//! and the ledger that pins exact counts across runs.

use std::collections::BTreeMap;
use std::path::PathBuf;

/// Seed whose outputs are pinned in `reference.txt`.
pub const DEFAULT_SEED: u64 = 1;

/// Directory, relative to the checkout root, for spans, the exact-count
/// ledger and the serve workload's result store.
pub const OUT_DIR: &str = ".perfbench-out";

const REFERENCE: &str = include_str!("../reference.txt");

/// 64-bit FNV-1a.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, data: &[u8]) {
        for &b in data {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn f64(&mut self, v: f64) {
        self.bytes(&v.to_bits().to_le_bytes());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// FNV-1a of a byte string.
pub fn fnv(data: &[u8]) -> u64 {
    let mut h = Fnv::default();
    h.bytes(data);
    h.finish()
}

/// Named scalar outputs of one pass over a workload's input pool, in a
/// fixed order. For the default seed they are compared against
/// `reference.txt`; for every seed they feed the printed digest.
#[derive(Debug, Default)]
pub struct Outputs {
    pub values: Vec<(String, f64)>,
}

impl Outputs {
    pub fn push(&mut self, key: impl Into<String>, v: f64) {
        self.values.push((key.into(), v));
    }

    pub fn digest(&self) -> u64 {
        let mut h = Fnv::default();
        for (k, v) in &self.values {
            h.bytes(k.as_bytes());
            h.f64(*v);
        }
        h.finish()
    }

    /// `key value` lines in the format of `reference.txt`.
    pub fn reference_lines(&self, workload: &str) -> String {
        self.values
            .iter()
            .map(|(k, v)| format!("{workload}/{k} {v:e}\n"))
            .collect()
    }

    /// Compares against the stored reference at relative tolerance `rel`.
    /// Returns one message per mismatch or missing value.
    pub fn compare_reference(&self, workload: &str, rel: f64) -> Vec<String> {
        let reference = reference_values(workload);
        let mut errors = Vec::new();
        if reference.len() != self.values.len() {
            errors.push(format!(
                "{workload}: {} outputs, reference has {}",
                self.values.len(),
                reference.len()
            ));
        }
        for (k, v) in &self.values {
            match reference.get(k.as_str()) {
                None => errors.push(format!("{workload}/{k}: no reference value")),
                Some(&r) if !close(*v, r, rel) => errors.push(format!(
                    "{workload}/{k}: {v:e} vs reference {r:e} (rel {rel:e})"
                )),
                Some(_) => {}
            }
        }
        errors
    }
}

/// `|a - b| <= rel * max(|a|, |b|)`, with exact equality for zeros.
pub fn close(a: f64, b: f64, rel: f64) -> bool {
    a == b || (a - b).abs() <= rel * a.abs().max(b.abs())
}

fn reference_values(workload: &str) -> BTreeMap<&'static str, f64> {
    let prefix = format!("{workload}/");
    REFERENCE
        .lines()
        .filter_map(|line| {
            let (key, value) = line.split_once(' ')?;
            let key = key.strip_prefix(prefix.as_str())?;
            Some((key, value.trim().parse().ok()?))
        })
        .collect()
}

/// FNV-1a of this process's executable, read in small pieces so that
/// hashing it does not raise the memory high-water mark.
fn executable_hash() -> std::io::Result<u64> {
    use std::io::Read;
    let mut file = std::fs::File::open(std::env::current_exe()?)?;
    let mut h = Fnv::default();
    let mut buf = [0u8; 16 * 1024];
    loop {
        match file.read(&mut buf)? {
            0 => return Ok(h.finish()),
            n => h.bytes(&buf[..n]),
        }
    }
}

/// Counts that must repeat exactly, compared against every earlier run of
/// the same workload and seed by the same executable (traced and untraced
/// alike) and then merged into the ledger. Keying the ledger by a hash of
/// the executable keeps a rebuilt program, whose counts may rightly
/// differ, from being compared with the old one. Returns one message per
/// difference.
pub fn check_ledger(workload: &str, seed: u64, counts: &BTreeMap<String, f64>) -> Vec<String> {
    let exe = match executable_hash() {
        Ok(h) => h,
        Err(e) => return vec![format!("cannot read the executable to key the ledger: {e}")],
    };
    let path = PathBuf::from(OUT_DIR).join(format!("exact-{workload}-seed{seed}-{exe:016x}.txt"));
    let mut ledger: BTreeMap<String, f64> = std::fs::read_to_string(&path)
        .unwrap_or_default()
        .lines()
        .filter_map(|l| {
            let (k, v) = l.split_once(' ')?;
            Some((k.to_owned(), v.parse().ok()?))
        })
        .collect();
    let mut errors = Vec::new();
    for (k, v) in counts {
        match ledger.get(k) {
            Some(prev) if prev.to_bits() != v.to_bits() => errors.push(format!(
                "exact count {k} = {v} differs from an earlier run's {prev}"
            )),
            Some(_) => {}
            None => {
                ledger.insert(k.clone(), *v);
            }
        }
    }
    if errors.is_empty() {
        let text: String = ledger.iter().map(|(k, v)| format!("{k} {v}\n")).collect();
        let written = std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&path, text));
        if let Err(e) = written {
            errors.push(format!("cannot write {}: {e}", path.display()));
        }
    }
    errors
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn close_is_relative() {
        assert!(close(1.0, 1.0 + 1e-10, 1e-9));
        assert!(!close(1.0, 1.0 + 1e-8, 1e-9));
        assert!(close(0.0, 0.0, 1e-9));
        assert!(!close(0.0, 1e-300, 1e-9));
    }

    #[test]
    fn fnv_matches_the_published_vector() {
        assert_eq!(fnv(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
