//! Multi-node 60 GHz room simulation.
//!
//! The paper's discussion (§7) argues that the value of faster beam
//! training compounds at the network scale: "each sector sweep performed
//! by a pair of nodes pollutes the whole mm-wave channel in all
//! directions", and "the shorter the sweeping time, the more often a sweep
//! can be performed without degrading the throughput too much". This crate
//! builds the simulations behind those two claims:
//!
//! * [`policy`] — the training-policy abstraction shared by the
//!   experiments (stock sweep vs compressive selection at a probe budget).
//! * [`dense`] — N node pairs sharing one mm-wave channel, each re-training
//!   at a tracking rate; reports the training airtime and the aggregate
//!   goodput left for data (the `ext-dense` experiment).
//! * [`tracking`] — a single rotating pair under random blockage; compares
//!   policies at *equal training airtime* (CSS re-trains 2.3× more often)
//!   on achieved-rate-over-time (the `ext-tracking` experiment).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dense;
pub mod policy;
pub mod tracking;

pub use dense::{dense_deployment, DenseConfig, DenseResult};
pub use policy::TrainingPolicy;
pub use tracking::{tracking_run, TrackingConfig, TrackingResult};
