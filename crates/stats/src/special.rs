//! Special functions shared by the distribution and test modules.
//!
//! Everything here is implemented from published rational approximations so
//! the crate stays dependency-free (the paper's own constraint for code
//! embedded in RgManager).

/// Error function, via the Abramowitz & Stegun 7.1.26 rational
/// approximation (max absolute error 1.5e-7 — ample for the p-values and
/// quantiles this crate computes).
pub fn erf(x: f64) -> f64 {
    // A&S 7.1.26 rational approximation.
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let y = 1.0
        - (((((1.061_405_429 * t - 1.453_152_027) * t) + 1.421_413_741) * t - 0.284_496_736) * t
            + 0.254_829_592)
            * t
            * (-x * x).exp();
    sign * y
}

/// Complementary error function.
pub fn erfc(x: f64) -> f64 {
    1.0 - erf(x)
}

/// Standard normal cumulative distribution function.
pub fn std_normal_cdf(z: f64) -> f64 {
    0.5 * erfc(-z / std::f64::consts::SQRT_2)
}

/// Inverse of the standard normal CDF (the probit function), via Peter
/// Acklam's rational approximation refined with one Halley step.
///
/// Panics if `p` is not strictly inside `(0, 1)`.
pub fn std_normal_quantile(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "quantile requires p in (0,1), got {p}");

    const A: [f64; 6] = [
        -3.969_683_028_665_376e1,
        2.209_460_984_245_205e2,
        -2.759_285_104_469_687e2,
        1.383_577_518_672_69e2,
        -3.066_479_806_614_716e1,
        2.506_628_277_459_239,
    ];
    const B: [f64; 5] = [
        -5.447_609_879_822_406e1,
        1.615_858_368_580_409e2,
        -1.556_989_798_598_866e2,
        6.680_131_188_771_972e1,
        -1.328_068_155_288_572e1,
    ];
    const C: [f64; 6] = [
        -7.784_894_002_430_293e-3,
        -3.223_964_580_411_365e-1,
        -2.400_758_277_161_838,
        -2.549_732_539_343_734,
        4.374_664_141_464_968,
        2.938_163_982_698_783,
    ];
    const D: [f64; 4] = [
        7.784_695_709_041_462e-3,
        3.224_671_290_700_398e-1,
        2.445_134_137_142_996,
        3.754_408_661_907_416,
    ];
    const P_LOW: f64 = 0.024_25;
    const P_HIGH: f64 = 1.0 - P_LOW;

    let x = if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= P_HIGH {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };

    // One Halley refinement step sharpens the tails considerably.
    let e = std_normal_cdf(x) - p;
    let u = e * (2.0 * std::f64::consts::PI).sqrt() * (x * x / 2.0).exp();
    x - u / (1.0 + x * u / 2.0)
}

/// Natural log of the gamma function (Lanczos approximation, g = 7, n = 9).
pub fn ln_gamma(x: f64) -> f64 {
    assert!(x > 0.0, "ln_gamma requires positive argument, got {x}");
    const G: f64 = 7.0;
    const COEFFS: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula.
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut a = COEFFS[0];
    let t = x + G + 0.5;
    for (i, &c) in COEFFS.iter().enumerate().skip(1) {
        a += c / (x + i as f64);
    }
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

/// Natural log of factorial via `ln_gamma`.
pub fn ln_factorial(n: u64) -> f64 {
    ln_gamma(n as f64 + 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erf_known_values() {
        // The rational approximation has ~1e-9 residual at the origin.
        assert!((erf(0.0)).abs() < 1e-8);
        assert!((erf(1.0) - 0.842_700_79).abs() < 1e-6);
        assert!((erf(-1.0) + 0.842_700_79).abs() < 1e-6);
        assert!((erf(3.0) - 0.999_977_91).abs() < 1e-6);
    }

    #[test]
    fn normal_cdf_symmetry() {
        for z in [-3.0, -1.5, -0.2, 0.0, 0.7, 2.5] {
            let sum = std_normal_cdf(z) + std_normal_cdf(-z);
            assert!((sum - 1.0).abs() < 1e-9, "z={z} sum={sum}");
        }
    }

    #[test]
    fn quantile_inverts_cdf() {
        for &p in &[0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999] {
            let z = std_normal_quantile(p);
            let back = std_normal_cdf(z);
            assert!((back - p).abs() < 1e-7, "p={p} back={back}");
        }
    }

    #[test]
    fn quantile_known_values() {
        assert!(std_normal_quantile(0.5).abs() < 1e-8);
        assert!((std_normal_quantile(0.975) - 1.959_964).abs() < 1e-4);
        assert!((std_normal_quantile(0.025) + 1.959_964).abs() < 1e-4);
    }

    #[test]
    #[should_panic(expected = "quantile requires p in (0,1)")]
    fn quantile_rejects_unit_boundary() {
        std_normal_quantile(1.0);
    }

    #[test]
    fn ln_gamma_matches_factorials() {
        for n in 1u64..15 {
            let exact: f64 = (1..n).map(|k| (k as f64).ln()).sum();
            assert!(
                (ln_gamma(n as f64) - exact).abs() < 1e-9,
                "n={n}: {} vs {exact}",
                ln_gamma(n as f64)
            );
        }
    }

    #[test]
    fn ln_gamma_half() {
        // Gamma(1/2) = sqrt(pi).
        let expected = std::f64::consts::PI.sqrt().ln();
        assert!((ln_gamma(0.5) - expected).abs() < 1e-9);
    }

    #[test]
    fn ln_factorial_small() {
        assert!((ln_factorial(0)).abs() < 1e-12);
        assert!((ln_factorial(5) - 120f64.ln()).abs() < 1e-9);
    }
}
