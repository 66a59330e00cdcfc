//! 60 GHz mm-wave channel and measurement simulator.
//!
//! This crate replaces the physical radio environment of the paper's
//! experiments:
//!
//! * [`orientation`] — device mounting/rotation state (the rotation head
//!   turns the device under test; rays are defined in world coordinates and
//!   converted into device coordinates here).
//! * [`environment`] — ray-based propagation environments: the anechoic
//!   chamber (§4.2, single line-of-sight ray), the lab (3 m LoS plus weak
//!   reflections) and the conference room (6 m LoS plus strong whiteboard
//!   reflections, §6.1).
//! * [`linkbudget`] — Friis path loss at 60.48 GHz, oxygen absorption,
//!   thermal noise floor of the 1.76 GHz 802.11ad channel.
//! * [`measurement`] — the low-cost firmware measurement process: per-frame
//!   fading, quarter-dB SNR quantization clamped to [−7, 12] dB, coarser
//!   RSSI with *independent* fluctuations, outliers that grow at low SNR,
//!   and missing reports ("sometimes the firmware does not report any
//!   measurements at all", §5).
//! * [`link`] — ties a transmit device, a receive device and an environment
//!   together and produces per-frame probe readings for a given sector,
//!   through a per-geometry [`ProbePlan`] that sweeps reuse and each
//!   [`Device`]'s per-sector excitation table.
//! * [`dynamics`] — time-varying blockage episodes on top of the static
//!   environments, for mobility/blockage tracking experiments (§7).
//! * [`rate`] — the 802.11ad SC-PHY MCS table and the probe-SNR → TCP
//!   goodput mapping used by the throughput experiments.
//!
//! Everything is deterministic given an RNG; no wall-clock time or global
//! state is involved.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dynamics;
pub mod environment;
pub mod link;
pub mod linkbudget;
pub mod measurement;
pub mod orientation;
pub mod rate;

pub use dynamics::{Blockage, BlockageModel, DynamicEnvironment};
pub use environment::{Environment, Ray};
pub use link::{Device, Link, ProbePlan, SweepReading};
pub use linkbudget::LinkBudget;
pub use measurement::{Measurement, MeasurementModel};
pub use orientation::Orientation;
pub use rate::{DataLinkModel, McsEntry, MCS_TABLE};
