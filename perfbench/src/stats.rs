//! Order statistics for host-time samples.
//!
//! Every timing is reported as its median plus the highest percentile
//! that still has at least [`MIN_BEYOND`] samples beyond it, together with
//! the sample count, so a tail figure is never read off a handful of jobs.

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Candidate tail percentiles, highest first.
const TAILS: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// Median of `values` (mean of the two middle values for an even count).
/// Returns `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    })
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `values`.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank(v.len(), p) - 1])
}

/// 1-based nearest rank of percentile `p` among `n` samples, in integer
/// per-mille arithmetic so that, say, p99.9 of 10 000 samples is rank
/// 9 990 exactly.
fn rank(n: usize, p: f64) -> usize {
    let per_mille = (p * 10.0).round() as usize;
    (per_mille * n).div_ceil(1000).clamp(1, n)
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n` samples.
pub fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// The highest of the candidate tail percentiles with at least
/// [`MIN_BEYOND`] samples beyond it among `n` samples; `None` when even the
/// 75th percentile has fewer.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAILS
        .into_iter()
        .find(|&p| n > 0 && beyond(n, p) >= MIN_BEYOND)
}

/// One-line summary of a timing: median, tail percentile and count.
pub fn describe_ms(name: &str, samples_s: &[f64]) -> String {
    let ms: Vec<f64> = samples_s.iter().map(|s| s * 1e3).collect();
    let n = ms.len();
    let Some(p50) = median(&ms) else {
        return format!("{name}: no samples");
    };
    match tail_percentile(n) {
        Some(p) => format!(
            "{name}: p50 {p50:.4} ms, p{p} {:.4} ms ({} beyond), n = {n}",
            percentile(&ms, p).unwrap_or(p50),
            beyond(n, p)
        ),
        None => format!("{name}: p50 {p50:.4} ms, n = {n} (too few samples for a tail)"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 90.0), Some(90.0));
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(beyond(100, 90.0), 10);
    }

    /// The reported tail is the highest percentile with at least ten
    /// samples beyond it: p90 needs 100 samples, p95 200, p99 1000.
    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(39), None);
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(99), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        for n in 1..3000 {
            if let Some(p) = tail_percentile(n) {
                assert!(beyond(n, p) >= MIN_BEYOND, "n = {n}, p = {p}");
            }
        }
    }
}
