//! Numerically safe smooth primitives.
//!
//! The EKV MOSFET model in `sfet-devices` is built from `ln(1 + e^x)`-style
//! terms whose naive evaluation overflows for the argument ranges a Newton
//! iteration can visit. These guarded versions keep the model and its
//! derivatives finite and smooth everywhere.

/// `softplus(x) = ln(1 + e^x)`, overflow-safe.
///
/// For large `x` this returns `x` exactly (the correction underflows), and
/// for very negative `x` it returns `e^x` to first order.
///
/// # Example
///
/// ```
/// use sfet_numeric::smooth::softplus;
/// assert!((softplus(0.0) - std::f64::consts::LN_2).abs() < 1e-15);
/// assert_eq!(softplus(800.0), 800.0); // no overflow
/// ```
#[inline]
pub fn softplus(x: f64) -> f64 {
    if x > 36.0 {
        // e^{-x} < 2e-16: the correction is below double precision.
        x
    } else if x < -36.0 {
        x.exp()
    } else {
        x.exp().ln_1p()
    }
}

/// Logistic sigmoid `1 / (1 + e^{-x})` — the derivative of [`softplus`].
#[inline]
pub fn logistic(x: f64) -> f64 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// `(softplus(x), logistic(x))` bit for bit, sharing one `e^x` between
/// the two where both branches take it.
///
/// # Example
///
/// ```
/// use sfet_numeric::smooth::{logistic, softplus, softplus_logistic};
/// let (s, g) = softplus_logistic(-0.3);
/// assert_eq!(s.to_bits(), softplus(-0.3).to_bits());
/// assert_eq!(g.to_bits(), logistic(-0.3).to_bits());
/// ```
#[inline]
pub fn softplus_logistic(x: f64) -> (f64, f64) {
    if x > 36.0 {
        return (x, 1.0 / (1.0 + (-x).exp()));
    }
    let e = x.exp();
    let s = if x < -36.0 { e } else { e.ln_1p() };
    let g = if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        e / (1.0 + e)
    };
    (s, g)
}

/// Cubic smoothstep on `[0, 1]`: `3t^2 - 2t^3`, clamped outside.
///
/// Used for the PTM resistance ramp shaping.
#[inline]
pub fn smoothstep(t: f64) -> f64 {
    let t = t.clamp(0.0, 1.0);
    t * t * (3.0 - 2.0 * t)
}

/// Smooth maximum `≈ max(a, b)` with smoothing width `w > 0`.
///
/// `smoothmax(a, b, w) = 0.5 (a + b + sqrt((a-b)^2 + w^2))`; converges to
/// `max` as `w → 0` and is C∞ everywhere, which keeps Newton Jacobians
/// continuous where device models need clipping.
#[inline]
pub fn smoothmax(a: f64, b: f64, w: f64) -> f64 {
    0.5 * (a + b + ((a - b) * (a - b) + w * w).sqrt())
}

/// Smooth minimum counterpart of [`smoothmax`].
#[inline]
pub fn smoothmin(a: f64, b: f64, w: f64) -> f64 {
    0.5 * (a + b - ((a - b) * (a - b) + w * w).sqrt())
}

/// Interpolates exponentially between `a` and `b` (both strictly positive):
/// `exp(lerp(ln a, ln b, t))` with `t` clamped to `[0, 1]`.
///
/// This is the resistance trajectory the PTM model follows during a phase
/// transition — a multiplicative ramp over several decades.
///
/// # Panics
///
/// Debug-asserts that `a` and `b` are positive.
#[inline]
pub fn exp_lerp(a: f64, b: f64, t: f64) -> f64 {
    debug_assert!(a > 0.0 && b > 0.0, "exp_lerp needs positive endpoints");
    let t = t.clamp(0.0, 1.0);
    (a.ln() + (b.ln() - a.ln()) * t).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softplus_limits() {
        assert_eq!(softplus(1000.0), 1000.0);
        assert!(softplus(-1000.0) >= 0.0);
        assert!(softplus(-1000.0) < 1e-300);
        assert!((softplus(0.0) - std::f64::consts::LN_2).abs() < 1e-15);
    }

    #[test]
    fn softplus_monotone_and_positive() {
        let mut prev = softplus(-50.0);
        for i in -49..50 {
            let v = softplus(i as f64);
            assert!(v > prev);
            assert!(v > 0.0);
            prev = v;
        }
    }

    #[test]
    fn logistic_is_softplus_derivative() {
        for &x in &[-30.0, -5.0, -0.1, 0.0, 0.1, 5.0, 30.0] {
            let h = 1e-6;
            let num = (softplus(x + h) - softplus(x - h)) / (2.0 * h);
            assert!((num - logistic(x)).abs() < 1e-8, "at {x}");
        }
    }

    #[test]
    fn logistic_symmetry() {
        for &x in &[0.0, 1.5, 10.0, 100.0] {
            assert!((logistic(x) + logistic(-x) - 1.0).abs() < 1e-15);
        }
    }

    /// `softplus_logistic` must equal the pair it replaces bit for bit:
    /// over the branch edges and their neighbours, and over 10⁶ SplitMix64
    /// draws, each read both as a raw bit pattern (every sign and exponent)
    /// and as a uniform value in `[-80, 80)` (every branch's interior).
    #[test]
    fn softplus_logistic_is_the_pair_bit_for_bit() {
        let check = |x: f64| {
            let (s, g) = softplus_logistic(x);
            let (want_s, want_g) = (softplus(x), logistic(x));
            if x.is_nan() {
                assert!(s.is_nan() && g.is_nan(), "fused pair at NaN: ({s}, {g})");
                assert!(want_s.is_nan() && want_g.is_nan());
            } else {
                assert_eq!(
                    (s.to_bits(), g.to_bits()),
                    (want_s.to_bits(), want_g.to_bits()),
                    "at {x:e} ({:#018x})",
                    x.to_bits()
                );
            }
        };
        let tiny = f64::from_bits(1);
        for edge in [0.0, 36.0, 72.0, tiny, f64::MIN_POSITIVE, f64::MAX] {
            let b = edge.to_bits();
            for x in [b.saturating_sub(1), b, b + 1].map(f64::from_bits) {
                check(x);
                check(-x);
            }
        }
        for x in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            check(x);
        }
        let mut state = 0u64;
        for _ in 0..1_000_000 {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            check(f64::from_bits(z));
            check(((z >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 160.0);
        }
    }

    #[test]
    fn smoothstep_endpoints_and_midpoint() {
        assert_eq!(smoothstep(-1.0), 0.0);
        assert_eq!(smoothstep(0.0), 0.0);
        assert_eq!(smoothstep(0.5), 0.5);
        assert_eq!(smoothstep(1.0), 1.0);
        assert_eq!(smoothstep(2.0), 1.0);
    }

    #[test]
    fn smoothmax_converges_to_max() {
        assert!((smoothmax(1.0, 5.0, 1e-9) - 5.0).abs() < 1e-9);
        assert!((smoothmin(1.0, 5.0, 1e-9) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn smoothmax_bounds() {
        let (a, b, w) = (2.0, 3.0, 0.5);
        let m = smoothmax(a, b, w);
        assert!(m >= b);
        assert!(m <= b + w);
    }

    #[test]
    fn exp_lerp_endpoints() {
        assert!((exp_lerp(500e3, 5e3, 0.0) - 500e3).abs() < 1e-6);
        assert!((exp_lerp(500e3, 5e3, 1.0) - 5e3).abs() < 1e-9);
        // Midpoint is the geometric mean.
        let mid = exp_lerp(500e3, 5e3, 0.5);
        assert!((mid - (500e3f64 * 5e3).sqrt()).abs() / mid < 1e-12);
    }

    #[test]
    fn exp_lerp_clamps_t() {
        assert_eq!(exp_lerp(1.0, 10.0, -5.0), 1.0);
        assert!((exp_lerp(1.0, 10.0, 5.0) - 10.0).abs() < 1e-12);
    }
}
