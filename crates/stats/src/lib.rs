//! Statistics substrate for the Toto reproduction.
//!
//! Section 4 of the paper builds its behaviour models from "simple
//! statistical models" chosen over ML alternatives for scalability and ease
//! of embedding in a production C++ component. This crate provides every
//! statistical tool the paper uses, implemented from scratch (no external
//! stats libraries, matching the paper's own constraint of avoiding
//! external dependencies in RgManager):
//!
//! * [`dist`] — normal, uniform, Poisson and negative-binomial
//!   distributions with sampling and maximum-likelihood / method-of-moments
//!   fitting (§4.1.3 fits all four and selects the normal).
//! * [`ks`] — the one-sample Kolmogorov–Smirnov test used to validate the
//!   hourly-normal models (Figure 7).
//! * [`wilcoxon`] — the Wilcoxon signed-rank test used to quantify PLB
//!   non-determinism (§5.3.4, Figure 13).
//! * [`dtw`] — dynamic time warping distance, one of the two error measures
//!   used to select the disk model (§4.2.2).
//! * [`kde`] — Gaussian kernel density estimation, the rejected alternative
//!   the hourly-normal model was compared against (§4.2.2).
//! * [`binning`] — equal-probability binning with uniform within-bin
//!   sampling, the construction behind the initial-creation and
//!   predictable-rapid-growth magnitudes (§4.2.3, §4.2.4).
//! * [`describe`] — five-number summaries and dispersion statistics for the
//!   paper's many box plots.
//! * [`error`] — RMSE and friends (§4.2.2's second error measure).
//! * [`special`] — erf/erfc and the normal quantile, shared numerics.

pub mod binning;
pub mod describe;
pub mod dist;
pub mod dtw;
pub mod error;
pub mod kde;
pub mod ks;
pub mod special;
pub mod wilcoxon;

pub use binning::EqualProbabilityBins;
pub use describe::{five_number_summary, mean, std_dev, FiveNumberSummary};
pub use dist::{Distribution, Fit, NegativeBinomial, Normal, Poisson, Uniform};
pub use dtw::dtw_distance;
pub use error::{mae, rmse};
pub use kde::GaussianKde;
pub use ks::{ks_test_normal, ks_test_two_sample, ks_test_with_cdf, KsResult};
pub use wilcoxon::{wilcoxon_signed_rank, WilcoxonResult};
