//! Gaussian kernel density estimation.
//!
//! §4.2.2 explored "non-parametric kernel density estimations (KDE)" as an
//! alternative disk-growth model before settling on the hourly normal —
//! partly because KDE "relied on an external C++ library". We implement it
//! anyway so the model-selection comparison (DTW/RMSE of KDE vs hourly
//! normal vs binning) can actually be run, as the ablation benches do.

use crate::describe;
use crate::special::std_normal_cdf;
use rand::Rng;

/// A Gaussian KDE over a training sample.
#[derive(Clone, Debug)]
pub struct GaussianKde {
    points: Vec<f64>,
    bandwidth: f64,
}

impl GaussianKde {
    /// Fit with Silverman's rule-of-thumb bandwidth. Returns `None` for an
    /// empty sample. A degenerate (zero-variance) sample gets a tiny
    /// positive bandwidth so sampling still works.
    pub fn fit(xs: &[f64]) -> Option<Self> {
        if xs.is_empty() {
            return None;
        }
        let n = xs.len() as f64;
        let sd = describe::std_dev(xs);
        // Deliberate exact guard: only a constant sample gives sd == 0.0,
        // and any nonzero sd — however tiny — is a usable bandwidth.
        // toto-lint: allow(D006)
        let sd = if sd.is_nan() || sd == 0.0 { 1e-9 } else { sd };
        // Silverman: 0.9 * min(sd, IQR/1.34) * n^(-1/5); we use sd alone
        // when the IQR degenerates.
        let iqr = describe::quantile(xs, 0.75) - describe::quantile(xs, 0.25);
        let scale = if iqr > 0.0 { sd.min(iqr / 1.34) } else { sd };
        let bandwidth = (0.9 * scale * n.powf(-0.2)).max(1e-9);
        Some(GaussianKde {
            points: xs.to_vec(),
            bandwidth,
        })
    }

    /// The bandwidth in use.
    pub fn bandwidth(&self) -> f64 {
        self.bandwidth
    }

    /// Estimated density at `x`.
    pub fn pdf(&self, x: f64) -> f64 {
        let h = self.bandwidth;
        let norm = 1.0 / (self.points.len() as f64 * h * (2.0 * std::f64::consts::PI).sqrt());
        self.points
            .iter()
            .map(|&p| (-(x - p) * (x - p) / (2.0 * h * h)).exp())
            .sum::<f64>()
            * norm
    }

    /// Estimated CDF at `x` (mixture of normal CDFs).
    pub fn cdf(&self, x: f64) -> f64 {
        let h = self.bandwidth;
        self.points
            .iter()
            .map(|&p| std_normal_cdf((x - p) / h))
            .sum::<f64>()
            / self.points.len() as f64
    }

    /// Draw a sample: pick a training point uniformly, add Gaussian noise
    /// of the bandwidth scale (exact sampling from the KDE mixture).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let idx = rng.gen_range(0..self.points.len());
        let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = rng.gen::<f64>();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        self.points[idx] + self.bandwidth * z
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{Distribution, Normal};
    use rand::SeedableRng;

    #[test]
    fn empty_sample_rejected() {
        assert!(GaussianKde::fit(&[]).is_none());
    }

    #[test]
    fn pdf_integrates_to_one() {
        let kde = GaussianKde::fit(&[0.0, 1.0, 2.0, 3.0]).unwrap();
        // Trapezoidal integration over a wide window.
        let step = 0.01;
        let total: f64 = (-1000..=1600)
            .map(|i| kde.pdf(i as f64 * step) * step)
            .sum();
        assert!((total - 1.0).abs() < 0.01, "total={total}");
    }

    #[test]
    fn cdf_is_monotone_and_bounded() {
        let kde = GaussianKde::fit(&[1.0, 5.0, 9.0]).unwrap();
        let mut last = 0.0;
        for i in -100..200 {
            let c = kde.cdf(i as f64 * 0.1);
            assert!(c >= last - 1e-12);
            assert!((0.0..=1.0).contains(&c));
            last = c;
        }
    }

    #[test]
    fn kde_recovers_underlying_mean() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(31);
        let d = Normal::new(10.0, 2.0);
        let train: Vec<f64> = (0..2_000).map(|_| d.sample(&mut rng)).collect();
        let kde = GaussianKde::fit(&train).unwrap();
        let samples: Vec<f64> = (0..20_000).map(|_| kde.sample(&mut rng)).collect();
        assert!((crate::describe::mean(&samples) - 10.0).abs() < 0.15);
    }

    #[test]
    fn degenerate_sample_still_samples() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(37);
        let kde = GaussianKde::fit(&[4.0, 4.0, 4.0]).unwrap();
        let x = kde.sample(&mut rng);
        assert!((x - 4.0).abs() < 1e-6);
    }
}
