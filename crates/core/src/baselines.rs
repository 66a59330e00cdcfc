//! Baseline codebooks the paper compares against.
//!
//! [`random_beam_device`] builds a device whose codebook consists of
//! pseudo-random beams, as used by compressive path tracking on custom
//! arrays (Rasekh et al.). The paper's §2.1 observation — random phase
//! shifts "substantially reduced the link quality" on low-cost hardware —
//! is reproduced by running the same CSS pipeline on such a device (the
//! `tables --exp ablation` codebook comparison).

use talon_array::{Codebook, PhasedArray};
use talon_channel::Device;

/// Builds a device whose transmit codebook consists of `count`
/// pseudo-random quantized beams on the same physical array as a Talon
/// device with the given seed.
pub fn random_beam_device(device_seed: u64, count: usize) -> Device {
    let array = PhasedArray::talon(device_seed);
    let codebook = Codebook::pseudo_random(&array, count, device_seed);
    Device::new(array, codebook)
}

#[cfg(test)]
mod tests {
    use super::*;
    use geom::sphere::Direction;
    use talon_array::SectorId;

    #[test]
    fn random_beam_device_has_random_codebook() {
        let dev = random_beam_device(31, 34);
        assert_eq!(dev.codebook.num_tx_sectors(), 34);
        // Random beams activate all elements (phase-only randomization).
        let s = dev.codebook.get(SectorId(63)).unwrap();
        assert_eq!(s.weights.active_elements(), 32);
        assert!(s.nominal_dir.is_none());
    }

    #[test]
    fn random_beams_have_less_peak_gain_than_firmware_beams() {
        // §2.1: random phase shifts substantially reduce link quality.
        let talon = Device::talon(31);
        let random = random_beam_device(31, 34);
        let dir = Direction::new(0.0, 0.0);
        let best = |dev: &Device| {
            dev.codebook
                .sweep_order()
                .into_iter()
                .map(|id| {
                    dev.array
                        .gain_dbi(&dev.codebook.get(id).unwrap().weights, &dir)
                })
                .fold(f64::NEG_INFINITY, f64::max)
        };
        let g_talon = best(&talon);
        let g_random = best(&random);
        assert!(
            g_talon > g_random + 5.0,
            "firmware beams {g_talon:.1} dBi vs random {g_random:.1} dBi"
        );
    }
}
