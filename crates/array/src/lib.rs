//! Planar phased-array model and Talon-like sector codebook synthesis.
//!
//! The TP-Link Talon AD7200's QCA9500 radio drives a 32-element planar
//! antenna array whose firmware ships ~35 predefined beam patterns
//! ("sectors"). The real hardware is unavailable here, so this crate builds
//! the closest physical stand-in:
//!
//! * [`complex`] — minimal complex arithmetic for array factors.
//! * [`element`] — a single low-cost patch element: cosine-power gain,
//!   strong rear roll-off.
//! * [`geometry`] — element placement of an 8×4 half-wavelength lattice.
//! * [`weights`] — per-element excitations with the coarse phase/amplitude
//!   quantization of consumer 60 GHz beamformers.
//! * [`steering`] — far-field gain evaluation (array factor × element gain ×
//!   chassis shadowing).
//! * [`imperfections`] — the low-cost hardware error model (per-element gain
//!   and phase errors, dead elements, chassis blockage behind ±120°).
//! * [`codebook`] — synthesis of a 36-entry codebook with the qualitative
//!   traits of the paper's Fig. 5/6 (directive sectors, multi-lobe sectors,
//!   one wide sector, sectors aimed out of the azimuth plane, a quasi-omni
//!   receive sector), plus pseudo-random beams for the Rasekh-style
//!   baseline.
//! * [`pattern`] — sampled gain patterns over a [`geom::SphericalGrid`].
//!
//! Ground truth produced by this crate feeds the channel simulator; the
//! *measured* patterns that the compressive algorithm actually uses are
//! acquired from it through the `chamber` crate, exactly as the paper
//! measures its device in an anechoic chamber.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codebook;
pub mod complex;
pub mod element;
pub mod geometry;
pub mod imperfections;
pub mod pattern;
pub mod steering;
pub mod weights;

pub use codebook::{Codebook, Sector, SectorId};
pub use complex::Complex;
pub use geometry::ArrayGeometry;
pub use imperfections::HardwareProfile;
pub use pattern::GainPattern;
pub use steering::{DirectionTerms, Excitation, PhasedArray};
pub use weights::WeightVector;

/// Carrier frequency of IEEE 802.11ad channel 2 (the Talon default), in Hz.
pub const CARRIER_HZ: f64 = 60.48e9;

/// Speed of light in m/s.
pub const C: f64 = 299_792_458.0;

/// Carrier wavelength in meters (≈ 4.96 mm at 60.48 GHz).
pub fn wavelength_m() -> f64 {
    C / CARRIER_HZ
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wavelength_is_about_5mm() {
        let l = wavelength_m();
        assert!((l - 0.004957).abs() < 1e-5, "{l}");
    }
}
