//! 60 GHz link simulation over time: mobility, blockage and re-training.
//!
//! The paper's discussion (§7) argues that the value of faster beam
//! training compounds at the network scale: "each sector sweep performed
//! by a pair of nodes pollutes the whole mm-wave channel in all
//! directions", and "the shorter the sweeping time, the more often a sweep
//! can be performed without degrading the throughput too much". The first
//! claim is airtime arithmetic on recorded sweeps
//! (`eval::extensions::dense_table`, the `ext-dense` experiment); this
//! crate builds the simulation behind the second:
//!
//! * [`policy`] — the training-policy abstraction (stock sweep vs
//!   compressive selection at a probe budget).
//! * [`tracking`] — a single rotating pair under random blockage; compares
//!   policies at *equal training airtime* (CSS re-trains 2.3× more often)
//!   on achieved-rate-over-time (the `ext-tracking` experiment).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod policy;
pub mod tracking;

pub use policy::TrainingPolicy;
pub use tracking::{tracking_run, TrackingConfig, TrackingResult};
