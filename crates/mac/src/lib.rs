//! IEEE 802.11ad (DMG) MAC substrate: frames, timing, sector sweep.
//!
//! This crate models the slice of the 802.11ad MAC that the paper touches:
//!
//! * [`addr`] — MAC addresses.
//! * [`crc`] — the IEEE 802.3 CRC-32 used as frame FCS.
//! * [`fields`] — bit-exact SSW and SSW-Feedback fields (the sector ID and
//!   CDOWN counters of Table 1 live here).
//! * [`frames`] — DMG Beacon, SSW, SSW-Feedback and SSW-ACK frames with
//!   byte-level encode to `Vec<u8>` and decode from `&[u8]`.
//! * [`timing`] — the virtual clock and the paper's measured timing
//!   constants (18.0 µs per sweep frame, 49.1 µs feedback overhead,
//!   102.4 ms beacon interval, ≥1 sweep per second).
//! * [`schedule`] — which sector is transmitted at which CDOWN slot during
//!   beaconing and sweeping (reproduces Table 1).
//! * [`sls`] — the sector level sweep protocol: initiator and responder
//!   state machines exchanging probe frames over a simulated link, with a
//!   pluggable [`sls::FeedbackPolicy`] so the stock argmax selection can be
//!   replaced by the paper's compressive selection (via the firmware
//!   patch hooks in the `wil6210` crate).
//! * [`bti`] — beacon-interval scheduling (102.4 ms beacon bursts over the
//!   Table 1 slots) and the slotted A-BFT contention window.
//! * [`assoc`] — network bring-up: beacon discovery plus A-BFT initial
//!   beamforming between an AP and a joining station.
//! * [`capture`] — a monitor-mode observer that reconstructs Table 1 from
//!   decoded frames, as the paper does with tcpdump/Wireshark.
//!
//! Fidelity notes: frame layouts follow IEEE 802.11-2016 §9 for the SSW and
//! SSW-Feedback fields and the control-frame framing; the DMG Beacon is
//! reduced to the fields the experiments read (timestamp, beacon interval,
//! SSW field). All multi-byte fields are little-endian as on the air.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod addr;
pub mod assoc;
pub mod bti;
pub mod capture;
pub mod crc;
pub mod fields;
pub mod frames;
pub mod schedule;
pub mod sls;
pub mod timing;

pub use addr::MacAddr;
pub use fields::{SswFeedbackField, SswField, SweepDirection};
pub use frames::{DmgBeacon, Frame, SswAckFrame, SswFeedbackFrame, SswFrame};
pub use sls::{FeedbackPolicy, MaxSnrPolicy, SlsConfig, SlsOutcome, SlsRunner};
pub use timing::{SimDuration, SimTime};
