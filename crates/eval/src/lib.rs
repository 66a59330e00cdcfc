//! Experiment harness: reproduces every table and figure of the paper.
//!
//! The evaluation methodology mirrors §6.1: devices perform *full* sector
//! sweeps with the firmware extension recording SNR and RSSI per sector;
//! the analysis then replays those recordings offline, considering "a
//! variable number of random measurements in each sweep" for the
//! compressive selection and the complete sweep for the baseline.
//!
//! | module | reproduces |
//! |---|---|
//! | [`engine`]     | deterministic parallel Monte Carlo execution |
//! | [`scenario`]   | §6.1 setups (lab, conference room) + sweep recording |
//! | [`table1`]     | Table 1 (beacon/sweep CDOWN slots) and §4.1 timings |
//! | [`patterns`]   | Fig. 5 (azimuth cuts) and Fig. 6 (3-D heatmaps) |
//! | [`estimation`] | Fig. 7 (angular error vs number of probes) |
//! | [`stability`]  | Fig. 8 (selection stability vs number of probes) |
//! | [`snr_loss`]   | Fig. 9 (SNR loss vs number of probes) |
//! | [`overhead`]   | Fig. 10 (training time vs number of probes) |
//! | [`throughput`] | Fig. 11 (TCP throughput at −45°/0°/45°); the per-sweep rates `ext-dense` shares |
//! | [`extensions`] | §7 claims quantified: `ext-dense`, `ext-tracking` |
//! | [`dataset_io`] | archive/reload recorded sweeps for offline re-analysis |
//! | [`replay`]     | trace-driven re-execution of recorded decisions |
//! | [`soak`]       | process peak RSS (`decision_bench`'s `peak_rss_mb`) |
//! | [`ascii`]      | plain-text table/series rendering for all binaries |
//!
//! Every experiment takes an explicit seed and a fidelity knob
//! ([`scenario::Fidelity`]) so tests run in seconds while the `bench`
//! binaries reproduce the paper-scale sweeps.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ascii;
pub mod dataset_io;
pub mod engine;
pub mod estimation;
pub mod extensions;
pub mod overhead;
pub mod patterns;
pub mod replay;
pub mod scenario;
pub mod snr_loss;
pub mod soak;
pub mod stability;
pub mod table1;
pub mod throughput;

pub use replay::{
    replay_file, replay_trace, Divergence, ReplayConfig, ReplayReport, ReplaySession,
};
pub use scenario::{EvalScenario, Fidelity, RecordedDataset, RecordedPosition};
