//! Sector codebook synthesis.
//!
//! The Talon AD7200 firmware predefines beam patterns ("sectors") with IDs
//! 1–31 plus 61, 62 and 63 for transmission (34 sweep sectors, Table 1) and
//! one quasi-omni receive sector — 35 patterns in total (§4.3). The paper
//! measures them and observes a characteristic mix (§4.4):
//!
//! * strong single-lobe sectors (2, 8, 12, 20, 24, 63),
//! * multi-lobe sectors with several equal-power lobes (13, 22, 27),
//! * one wide sector covering a broad azimuth range like a torus (26),
//! * sectors with low gain in the azimuth plane whose main lobe sits at
//!   high elevation (5), and sectors with low gain everywhere (25, 62),
//! * distorted patterns behind ±120° (chassis blockage).
//!
//! [`Codebook::talon`] reproduces those traits on the simulated array: the
//! bulk of the sectors are quantized steered beams fanned across azimuth and
//! elevation, with targeted overrides for the special sectors. The coarse
//! 2-bit phase control makes ragged side lobes appear on its own, exactly as
//! on the real hardware.

use crate::complex::Complex;
use crate::steering::PhasedArray;
use crate::weights::WeightVector;
use geom::rng::sub_rng;
use geom::sphere::Direction;
use rand::Rng;

/// Identifier of a sector as carried in 802.11ad SSW fields (6 bits, 0–63).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SectorId(pub u8);

impl SectorId {
    /// The pseudo-ID used for the quasi-omni receive pattern. The receive
    /// pattern is never swept, so the real device does not give it an ID;
    /// we reserve 0, which the Talon never uses for transmit sectors.
    pub const RX: SectorId = SectorId(0);

    /// Whether this is a valid Talon transmit sector ID (1–31, 61–63).
    pub fn is_talon_tx(self) -> bool {
        (1..=31).contains(&self.0) || (61..=63).contains(&self.0)
    }

    /// Raw 6-bit value.
    pub fn raw(self) -> u8 {
        self.0
    }
}

impl std::fmt::Display for SectorId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if *self == SectorId::RX {
            write!(f, "RX")
        } else {
            write!(f, "{}", self.0)
        }
    }
}

/// One predefined beam pattern: an ID plus the excitation that realizes it.
#[derive(Debug, Clone, PartialEq)]
pub struct Sector {
    /// Sector ID as used in SSW frames.
    pub id: SectorId,
    /// The (already quantized) excitation vector.
    pub weights: WeightVector,
    /// Nominal steering direction the designer aimed at (None for
    /// quasi-omni or deliberately defective sectors).
    pub nominal_dir: Option<Direction>,
}

/// The full set of predefined sectors of one device.
#[derive(Debug, Clone, PartialEq)]
pub struct Codebook {
    sectors: Vec<Sector>,
}

impl Codebook {
    /// Synthesizes the Talon-like codebook on the given array.
    ///
    /// `device_seed` controls the per-device randomness (jitter of steering
    /// directions, the defective sectors' weights); using the array's own
    /// seed keeps one device fully reproducible.
    pub fn talon(array: &PhasedArray, device_seed: u64) -> Self {
        let mut rng = sub_rng(device_seed, "codebook");
        let n = array.num_elements();
        let mut sectors = Vec::with_capacity(35);

        // Quasi-omni receive sector: one active element near the lattice
        // centre.
        sectors.push(Sector {
            id: SectorId::RX,
            weights: WeightVector::single_element(n, quasi_omni_element(array)),
            nominal_dir: None,
        });

        for raw_id in (1u8..=31).chain(61..=63) {
            let id = SectorId(raw_id);
            let sector = match raw_id {
                // Main-lobe-at-elevation sector: weak in the azimuth plane.
                5 => steered(array, id, Direction::new(-18.0, 28.0)),
                // Deliberately defective sectors: low gain everywhere. The
                // real firmware ships such sectors (25, 62); we realize them
                // with few elements at scrambled phases.
                25 | 62 => defective(array, id, &mut rng),
                // The wide "torus" sector: a single column has no azimuth
                // aperture, so the beam covers the whole frontal azimuth
                // range but stays confined in elevation.
                26 => single_column(array, id),
                // Multi-lobe sectors: the sum of two steering vectors
                // produces two equal-power lobes after quantization.
                13 => two_lobes(array, id, -38.0, 30.0),
                22 => two_lobes(array, id, -10.0, 52.0),
                27 => two_lobes(array, id, -55.0, 12.0),
                // The strong unidirectional beacon sector: broadside.
                63 => steered(array, id, Direction::new(0.0, 0.0)),
                // Extra sweep sector at the azimuth fringe.
                61 => steered(array, id, Direction::new(66.0, 6.0)),
                // Regular fan: azimuths spread over ±60° with mild jitter,
                // elevations cycling through {0°, 10°, 20°}. Fan sectors use
                // only half the aperture (4 of 8 columns), giving the wide,
                // strongly overlapping lobes visible in the paper's Fig. 5 —
                // the real codebook trades gain for coverage so that
                // neighbouring sectors stay usable for the same direction.
                _ => {
                    let idx = raw_id as f64 - 1.0; // 0..30
                    let az = -60.0 + idx * 4.0 + (rng.gen::<f64>() - 0.5) * 2.0;
                    let el = match raw_id % 3 {
                        0 => 0.0,
                        1 => 10.0,
                        _ => 20.0,
                    } + (rng.gen::<f64>() - 0.5) * 2.0;
                    steered_subarray(array, id, Direction::new(az, el), 4)
                }
            };
            sectors.push(sector);
        }
        Codebook { sectors }
    }

    /// Pseudo-random-beam codebook for the Rasekh-style baseline: each
    /// sector applies independent uniformly random quantized phases on all
    /// elements. On low-cost arrays these beams spread energy so thin that
    /// link quality collapses — the paper's §2.1 observation our ablation
    /// bench reproduces.
    pub fn pseudo_random(array: &PhasedArray, count: usize, seed: u64) -> Self {
        assert!(count <= 34, "at most 34 transmit sector IDs are available");
        let mut rng = sub_rng(seed, "random-codebook");
        let n = array.num_elements();
        let mut sectors = Vec::with_capacity(count + 1);
        sectors.push(Sector {
            id: SectorId::RX,
            weights: WeightVector::single_element(n, quasi_omni_element(array)),
            nominal_dir: None,
        });
        // Reuse the Talon's valid transmit IDs (1–31, 61–63) so the random
        // codebook is a drop-in replacement in SSW fields.
        let ids = (1u8..=31).chain(61..=63);
        for id in ids.take(count) {
            let raw: Vec<Complex> = (0..n)
                .map(|_| Complex::from_phase(rng.gen::<f64>() * std::f64::consts::TAU))
                .collect();
            sectors.push(Sector {
                id: SectorId(id),
                weights: array.quantize(&raw),
                nominal_dir: None,
            });
        }
        Codebook { sectors }
    }

    /// Builds a codebook from explicit sectors (board-file loading).
    pub fn from_sectors(sectors: Vec<Sector>) -> Self {
        Codebook { sectors }
    }

    /// All sectors, RX first, then transmit sectors in ascending ID order.
    pub fn sectors(&self) -> &[Sector] {
        &self.sectors
    }

    /// Looks up a sector by ID.
    pub fn get(&self, id: SectorId) -> Option<&Sector> {
        self.sectors.iter().find(|s| s.id == id)
    }

    /// The quasi-omni receive sector.
    pub fn rx_sector(&self) -> &Sector {
        self.get(SectorId::RX).expect("codebook has an RX sector")
    }

    /// Transmit sector IDs in the order the Talon sweeps them
    /// (Table 1, "Sweep" row): 1–31, then 61, 62, 63.
    pub fn sweep_order(&self) -> Vec<SectorId> {
        let mut ids: Vec<SectorId> = self
            .sectors
            .iter()
            .map(|s| s.id)
            .filter(|id| id.is_talon_tx())
            .collect();
        ids.sort();
        ids
    }

    /// Number of transmit sectors (34 for the Talon codebook).
    pub fn num_tx_sectors(&self) -> usize {
        self.sectors.iter().filter(|s| s.id.is_talon_tx()).count()
    }
}

/// The healthy element nearest the lattice centre. The quasi-omni receive
/// pattern keys on a single element, and a device whose centre element
/// happens to be dead must not end up deaf — the factory calibration
/// assigns the pattern to a working element instead.
fn quasi_omni_element(array: &PhasedArray) -> usize {
    let n = array.num_elements();
    let centre = n / 2;
    (0..n)
        .filter(|&i| !array.imperfections.dead[i])
        .min_by_key(|&i| i.abs_diff(centre))
        .unwrap_or(centre)
}

/// A plain steered sector: conjugate steering weights, quantized.
fn steered(array: &PhasedArray, id: SectorId, dir: Direction) -> Sector {
    let weights = array.quantize(&array.steering_weights(&dir));
    Sector {
        id,
        weights,
        nominal_dir: Some(dir),
    }
}

/// A steered sector using only the central `active_cols` lattice columns:
/// the reduced azimuth aperture widens the beam.
fn steered_subarray(
    array: &PhasedArray,
    id: SectorId,
    dir: Direction,
    active_cols: usize,
) -> Sector {
    let cols = array.geometry.cols;
    let first = (cols - active_cols.min(cols)) / 2;
    let last = first + active_cols.min(cols);
    let raw: Vec<Complex> = array
        .steering_weights(&dir)
        .into_iter()
        .enumerate()
        .map(|(i, w)| {
            let col = i % cols;
            if col >= first && col < last {
                w
            } else {
                Complex::ZERO
            }
        })
        .collect();
    Sector {
        id,
        weights: array.quantize(&raw),
        nominal_dir: Some(dir),
    }
}

/// Two superposed steering vectors produce a two-lobe pattern.
fn two_lobes(array: &PhasedArray, id: SectorId, az_a: f64, az_b: f64) -> Sector {
    let a = array.steering_weights(&Direction::new(az_a, 0.0));
    let b = array.steering_weights(&Direction::new(az_b, 8.0));
    let raw: Vec<Complex> = a
        .iter()
        .zip(&b)
        .map(|(&x, &y)| (x + y).scale(0.5))
        .collect();
    Sector {
        id,
        weights: array.quantize(&raw),
        nominal_dir: None,
    }
}

/// A single active lattice column: wide azimuth coverage, confined
/// elevation ("torus" sector 26).
fn single_column(array: &PhasedArray, id: SectorId) -> Sector {
    let n = array.num_elements();
    let cols = array.geometry.cols;
    let col = cols / 2;
    let raw: Vec<Complex> = (0..n)
        .map(|i| {
            if i % cols == col {
                Complex::ONE
            } else {
                Complex::ZERO
            }
        })
        .collect();
    Sector {
        id,
        weights: array.quantize(&raw),
        nominal_dir: None,
    }
}

/// A deliberately weak sector: a few elements at scrambled phases.
fn defective<R: Rng>(array: &PhasedArray, id: SectorId, rng: &mut R) -> Sector {
    let n = array.num_elements();
    let raw: Vec<Complex> = (0..n)
        .map(|i| {
            if i % 7 == 3 {
                Complex::from_phase(rng.gen::<f64>() * std::f64::consts::TAU)
            } else {
                Complex::ZERO
            }
        })
        .collect();
    Sector {
        id,
        weights: array.quantize(&raw),
        nominal_dir: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn talon() -> (PhasedArray, Codebook) {
        let arr = PhasedArray::talon(42);
        let cb = Codebook::talon(&arr, 42);
        (arr, cb)
    }

    #[test]
    fn codebook_has_35_sectors() {
        let (_, cb) = talon();
        assert_eq!(cb.sectors().len(), 35);
        assert_eq!(cb.num_tx_sectors(), 34);
    }

    #[test]
    fn sweep_order_matches_table1() {
        let (_, cb) = talon();
        let order = cb.sweep_order();
        assert_eq!(order.len(), 34);
        assert_eq!(order[0], SectorId(1));
        assert_eq!(order[30], SectorId(31));
        assert_eq!(order[31], SectorId(61));
        assert_eq!(order[33], SectorId(63));
    }

    #[test]
    fn ids_32_to_60_are_undefined() {
        let (_, cb) = talon();
        for raw in 32..=60 {
            assert!(
                cb.get(SectorId(raw)).is_none(),
                "sector {raw} must not exist"
            );
        }
    }

    #[test]
    fn sector_63_is_strongly_directional_at_broadside() {
        let (arr, cb) = talon();
        let s = cb.get(SectorId(63)).unwrap();
        let g0 = arr.gain_dbi(&s.weights, &Direction::BROADSIDE);
        let g60 = arr.gain_dbi(&s.weights, &Direction::new(60.0, 0.0));
        assert!(g0 > 12.0, "sector 63 peak {g0}");
        assert!(g0 - g60 > 8.0, "sector 63 directivity {g0} vs {g60}");
    }

    #[test]
    fn defective_sectors_are_weak_in_plane() {
        let (arr, cb) = talon();
        let s63 = cb.get(SectorId(63)).unwrap();
        let peak63 = arr.gain_dbi(&s63.weights, &Direction::BROADSIDE);
        for raw in [25u8, 62] {
            let s = cb.get(SectorId(raw)).unwrap();
            let best_in_plane = (-90..=90)
                .step_by(2)
                .map(|az| arr.gain_dbi(&s.weights, &Direction::new(az as f64, 0.0)))
                .fold(f64::NEG_INFINITY, f64::max);
            assert!(
                best_in_plane < peak63 - 6.0,
                "sector {raw} should be weak: {best_in_plane} vs 63's {peak63}"
            );
        }
    }

    #[test]
    fn sector_5_peaks_at_elevation() {
        let (arr, cb) = talon();
        let s = cb.get(SectorId(5)).unwrap();
        let in_plane = arr.gain_dbi(&s.weights, &Direction::new(-18.0, 0.0));
        let elevated = arr.gain_dbi(&s.weights, &Direction::new(-18.0, 28.0));
        assert!(
            elevated > in_plane + 3.0,
            "sector 5 elevated {elevated} vs in-plane {in_plane}"
        );
    }

    #[test]
    fn sector_26_is_wide_in_azimuth() {
        let (arr, cb) = talon();
        let s = cb.get(SectorId(26)).unwrap();
        // Gain varies little across the frontal azimuth range...
        let gains: Vec<f64> = (-60..=60)
            .step_by(10)
            .map(|az| arr.gain_dbi(&s.weights, &Direction::new(az as f64, 0.0)))
            .collect();
        let spread = gains.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            - gains.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(spread < 6.0, "azimuth spread {spread} should be small");
        // ...but drops off at high elevation (torus shape).
        let g_plane = arr.gain_dbi(&s.weights, &Direction::new(0.0, 0.0));
        let g_up = arr.gain_dbi(&s.weights, &Direction::new(0.0, 50.0));
        assert!(g_plane > g_up + 6.0, "torus: {g_plane} vs {g_up}");
    }

    #[test]
    fn multi_lobe_sectors_have_two_peaks() {
        let (arr, cb) = talon();
        let s = cb.get(SectorId(13)).unwrap();
        let g_a = arr.gain_dbi(&s.weights, &Direction::new(-38.0, 0.0));
        let g_b = arr.gain_dbi(&s.weights, &Direction::new(30.0, 8.0));
        let g_mid = arr.gain_dbi(&s.weights, &Direction::new(-5.0, 0.0));
        assert!(g_a > g_mid + 3.0, "lobe A {g_a} vs valley {g_mid}");
        assert!(g_b > g_mid + 3.0, "lobe B {g_b} vs valley {g_mid}");
    }

    #[test]
    fn rx_sector_is_quasi_omni() {
        let (arr, cb) = talon();
        let rx = cb.rx_sector();
        assert_eq!(rx.weights.active_elements(), 1);
        let g0 = arr.gain_dbi(&rx.weights, &Direction::BROADSIDE);
        let g50 = arr.gain_dbi(&rx.weights, &Direction::new(50.0, 0.0));
        assert!((g0 - g50).abs() < 5.0, "quasi-omni: {g0} vs {g50}");
    }

    #[test]
    fn random_codebook_has_requested_size() {
        let arr = PhasedArray::talon(1);
        let cb = Codebook::pseudo_random(&arr, 34, 9);
        assert_eq!(cb.sectors().len(), 35);
        assert_eq!(cb.num_tx_sectors(), 34);
        assert_eq!(cb.get(SectorId(63)).unwrap().weights.active_elements(), 32);
    }

    #[test]
    #[should_panic(expected = "at most 34")]
    fn random_codebook_rejects_oversized_requests() {
        let arr = PhasedArray::talon(1);
        Codebook::pseudo_random(&arr, 35, 9);
    }

    #[test]
    fn codebook_is_deterministic_per_seed() {
        let arr = PhasedArray::talon(5);
        let a = Codebook::talon(&arr, 5);
        let b = Codebook::talon(&arr, 5);
        assert_eq!(a, b);
    }

    #[test]
    fn display_of_sector_ids() {
        assert_eq!(SectorId(12).to_string(), "12");
        assert_eq!(SectorId::RX.to_string(), "RX");
    }
}
