//! Compressive sector selection — the paper's core contribution.
//!
//! The stock IEEE 802.11ad sector sweep probes every predefined sector and
//! picks the strongest (Eq. 1). Compressive sector selection (CSS) probes
//! only `M ≪ N` sectors, estimates the signal's angle of arrival by
//! correlating the probe readings with the *measured* 3-D sector patterns
//! (Eqs. 2/3, extended to joint SNR·RSSI correlation in Eq. 5), and then
//! selects the best of all `N` sectors in the estimated direction (Eq. 4).
//!
//! * [`estimator`] — the angle-of-arrival estimator (Eqs. 2, 3, 5), with
//!   masked correlation so missing firmware reports drop out naturally (§5).
//! * [`strategy`] — probing-set policies: the paper's uniform random
//!   subsets, fixed sets, and a designed low-coherence subset (§7's
//!   "predefined probing sectors" idea).
//! * [`selection`] — the complete CSS pipeline as an
//!   [`mac80211ad::FeedbackPolicy`], pluggable into the SLS runner and the
//!   firmware emulation.
//! * [`baselines`] — a Rasekh-style random-beam device, for the §2.1
//!   firmware-vs-random-beams ablation.
//! * [`batch`] — the GEMM-shaped multi-link kernel: B concurrent links'
//!   probe panels swept against a sparse grid-major gains matrix in one pass,
//!   in exact f64, sharing the scalar kernel's gather, argmax and
//!   refinement.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baselines;
pub mod batch;
pub mod estimator;
pub mod selection;
pub mod strategy;

pub use batch::{BatchEstimator, BatchScratch, LinkEstimate};
pub use estimator::{
    patterns_digest, CompressiveEstimator, CorrelationMode, EstimatorOptions, KernelClosure,
};
pub use selection::{CompressiveSelection, CssConfig, DecisionOracle};
pub use strategy::ProbeStrategy;
