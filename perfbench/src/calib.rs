//! Host speed probe.
//!
//! The shared host this benchmark was built on runs its cores at two
//! speeds that switch every few seconds to minutes: a power-gate wake-up
//! took 6.5 ms in fast periods and 13 ms in slow ones. A fixed
//! floating-point kernel (dense LU with `ln`/`exp`, no program code) slows
//! by nearly the same factor, so the ratio of job time to kernel time
//! held within about 5 % across both speeds where raw job time moved
//! about 2×. Every job is therefore preceded by a probe, and end-to-end
//! times are reported scaled to the kernel's [`NOMINAL_S`]:
//! `normalized = raw × NOMINAL_S / probe`.
//!
//! The kernel is the unit of measure: changing it rescales every
//! end-to-end time.

use std::hint::black_box;
use std::time::Instant;

/// Kernel time the normalized figures are scaled to \[s\]: its time on
/// the development host in slow periods, where raw and normalized
/// figures agree.
pub const NOMINAL_S: f64 = 28e-6;

/// Kernel runs per probe; the probe is their minimum.
const RUNS: usize = 3;

// Index loops, as in the textbook LU: the kernel is the unit of measure,
// so its instruction mix stays as calibrated.
#[allow(clippy::needless_range_loop)]
fn kernel() -> f64 {
    const N: usize = 12;
    let mut a = [[0.0f64; N]; N];
    for (i, row) in a.iter_mut().enumerate() {
        for (j, v) in row.iter_mut().enumerate() {
            *v = 1.0 / (1.0 + (i + 2 * j) as f64) + if i == j { N as f64 } else { 0.0 };
        }
    }
    let a = black_box(a);
    let mut acc = 0.0;
    for r in 0..60 {
        let mut m = a;
        m[r % N][r % N] += 1e-3 * r as f64;
        for k in 0..N {
            let p = m[k][k];
            for i in k + 1..N {
                let f = m[i][k] / p;
                for j in k..N {
                    m[i][j] -= f * m[k][j];
                }
            }
        }
        for (i, row) in m.iter().enumerate() {
            acc += row[i].ln() + (-row[i] * 0.1).exp();
        }
    }
    black_box(acc)
}

/// Kernel time on the calling thread \[s\], the minimum of a few runs.
pub fn probe() -> f64 {
    (0..RUNS)
        .map(|_| {
            let t = Instant::now();
            kernel();
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// Mean probe over `threads` threads run at once, for jobs that keep
/// several cores busy.
pub fn probe_threads(threads: usize) -> f64 {
    if threads <= 1 {
        return probe();
    }
    let times: Vec<f64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads).map(|_| s.spawn(probe)).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("probe thread panicked"))
            .collect()
    });
    times.iter().sum::<f64>() / threads as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic_and_probe_positive() {
        assert_eq!(kernel().to_bits(), kernel().to_bits());
        assert!(probe() > 0.0);
        assert!(probe_threads(2) > 0.0);
    }
}
