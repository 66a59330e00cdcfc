//! Far-field gain evaluation of the imperfect phased array.
//!
//! [`PhasedArray`] ties together the lattice geometry, the element model and
//! a frozen imperfection state. Its central operation is
//! [`PhasedArray::gain_dbi`]: the power gain towards a direction for a given
//! excitation vector,
//!
//! ```text
//! G(dir) = G_elem(dir) + 10·log10( |Σ_i w_i ε_i e^{jφ_i(dir)}|² / Σ_i|w_i|² )
//!          − shadow(dir)
//! ```
//!
//! where `ε_i` is the element's static error factor and `φ_i` the plane-wave
//! phase at element `i`. Dividing by the feed power keeps gain comparisons
//! fair between sectors that switch different numbers of elements on.
//!
//! Only `w_i` depends on the excitation, and `ε_i` only on the device.
//! [`PhasedArray::excitation`] folds the two into an [`Excitation`]: the
//! products `w_i·ε_i` of the elements that are switched on and alive, and
//! the feed power. `talon_channel::Device` builds one per codebook sector,
//! once.
//! [`PhasedArray::direction_terms`] precomputes what depends only on the
//! direction (the `e^{jφ_i(dir)}`, `G_elem` and shadow), so a caller
//! evaluating many sectors in one direction pays only one
//! multiply-accumulate over the active products per sector
//! ([`DirectionTerms::gain_dbi`]). Every gain evaluation, including
//! [`PhasedArray::gain_dbi`], runs that same loop over the same operands,
//! so all paths agree bit for bit.

use crate::complex::Complex;
use crate::element::ElementModel;
use crate::geometry::ArrayGeometry;
use crate::imperfections::{FrozenImperfections, HardwareProfile};
use crate::weights::{WeightQuantizer, WeightVector};
use geom::sphere::Direction;

/// A complete physical antenna: geometry + element model + imperfections.
#[derive(Debug, Clone, PartialEq)]
pub struct PhasedArray {
    /// Element placement.
    pub geometry: ArrayGeometry,
    /// Per-element radiation model.
    pub element: ElementModel,
    /// Frozen per-device imperfections.
    pub imperfections: FrozenImperfections,
    /// The quantizer weights must pass through before being applied.
    pub quantizer: WeightQuantizer,
}

impl PhasedArray {
    /// Builds the Talon-like device: 8×4 λ/2 lattice, patch elements,
    /// default imperfection profile frozen from `device_seed`, 2-bit
    /// phase / on-off amplitude control.
    pub fn talon(device_seed: u64) -> Self {
        let geometry = ArrayGeometry::talon();
        let imperfections = HardwareProfile::default().freeze(geometry.len(), device_seed);
        PhasedArray {
            geometry,
            element: ElementModel::default(),
            imperfections,
            quantizer: WeightQuantizer::TALON,
        }
    }

    /// Builds an idealized device with no imperfections and near-continuous
    /// weight control (for ablations).
    pub fn ideal(cols: usize, rows: usize) -> Self {
        let geometry = ArrayGeometry::rectangular(cols, rows, 0.5);
        let imperfections = HardwareProfile::ideal().freeze(geometry.len(), 0);
        PhasedArray {
            geometry,
            element: ElementModel::default(),
            imperfections,
            quantizer: WeightQuantizer::IDEAL,
        }
    }

    /// Number of array elements.
    pub fn num_elements(&self) -> usize {
        self.geometry.len()
    }

    /// Ideal (unquantized) conjugate steering weights towards `dir`.
    ///
    /// Pass the result through [`PhasedArray::quantize`] to obtain what the
    /// hardware can actually apply.
    pub fn steering_weights(&self, dir: &Direction) -> Vec<Complex> {
        let phase = self.geometry.phases_towards(dir);
        (0..self.num_elements())
            .map(|i| Complex::from_phase(-phase(i)))
            .collect()
    }

    /// Quantizes raw weights under this device's control granularity.
    pub fn quantize(&self, raw: &[Complex]) -> WeightVector {
        WeightVector::quantized(raw, &self.quantizer)
    }

    /// Power gain in dBi towards `dir` for excitation `w`.
    ///
    /// Returns a large negative floor (−60 dBi) when the excitation is
    /// entirely off or perfectly nulled, so downstream dB math stays finite.
    pub fn gain_dbi(&self, w: &WeightVector, dir: &Direction) -> f64 {
        self.excitation_gain_dbi(&self.excitation(w), dir)
    }

    /// [`PhasedArray::gain_dbi`] for an excitation already folded by
    /// [`PhasedArray::excitation`]: only the active elements' phasors are
    /// computed.
    pub fn excitation_gain_dbi(&self, x: &Excitation, dir: &Direction) -> f64 {
        let phase = self.geometry.phases_towards(dir);
        x.gain_dbi(
            |i| Complex::from_phase(phase(i)),
            self.element.gain_dbi(dir),
            self.imperfections.shadow_db(dir),
        )
    }

    /// Folds excitation `w` with this array's static error factors `ε_i`:
    /// the `w_i·ε_i` of every element that is switched on and not dead,
    /// plus the feed power `Σ_i|w_i|²` (which counts dead elements, as the
    /// feed network still drives them).
    ///
    /// # Panics
    /// Panics if `w` is not all zero and its length is not the element
    /// count.
    pub fn excitation(&self, w: &WeightVector) -> Excitation {
        let feed_power = w.feed_power();
        if feed_power <= 0.0 {
            return Excitation {
                active: Vec::new(),
                feed_power,
            };
        }
        assert_eq!(
            w.len(),
            self.num_elements(),
            "weight vector length must match element count"
        );
        let active = (0..w.len())
            .filter_map(|i| {
                let wi = w.get(i);
                if wi.abs2() == 0.0 {
                    return None;
                }
                let eps = self.imperfections.element_factor(i);
                if eps.abs2() == 0.0 {
                    return None;
                }
                Some((i, wi * eps))
            })
            .collect();
        Excitation { active, feed_power }
    }

    /// The excitation-independent terms of [`PhasedArray::gain_dbi`]
    /// towards `dir`, for evaluating many excitations in one direction.
    pub fn direction_terms(&self, dir: &Direction) -> DirectionTerms {
        let phase = self.geometry.phases_towards(dir);
        DirectionTerms {
            phasors: (0..self.num_elements())
                .map(|i| Complex::from_phase(phase(i)))
                .collect(),
            element_dbi: self.element.gain_dbi(dir),
            shadow_db: self.imperfections.shadow_db(dir),
        }
    }
}

/// An excitation as one array radiates it; built by
/// [`PhasedArray::excitation`]. Valid only for the array that built it.
#[derive(Debug, Clone, PartialEq)]
pub struct Excitation {
    /// `(i, w_i·ε_i)` for every element that is switched on and alive, in
    /// element order.
    active: Vec<(usize, Complex)>,
    feed_power: f64,
}

impl Excitation {
    /// Number of elements that contribute (switched on and not dead).
    pub fn active_elements(&self) -> usize {
        self.active.len()
    }

    /// The gain in dBi given each element's plane-wave phasor: the array
    /// factor `Σ_i (w_i·ε_i)·e^{jφ_i}`, normalized by the feed power, plus
    /// the element gain, minus the shadow, floored at −60 dBi. This is the
    /// one per-element loop behind every gain evaluation; `phasor(i)` is
    /// called only for active elements.
    fn gain_dbi(&self, phasor: impl Fn(usize) -> Complex, element_dbi: f64, shadow_db: f64) -> f64 {
        if self.feed_power <= 0.0 {
            return -60.0;
        }
        let mut af = Complex::ZERO;
        for &(i, x) in &self.active {
            af += x * phasor(i);
        }
        let af2 = af.abs2() / self.feed_power;
        if af2 > 0.0 {
            let g = element_dbi + geom::db::linear_to_db(af2) - shadow_db;
            g.max(-60.0)
        } else {
            -60.0
        }
    }
}

/// What [`PhasedArray::gain_dbi`] computes towards one direction before
/// it looks at the excitation: every element's plane-wave phasor
/// `e^{jφ_i}`, the element gain and the chassis shadow.
#[derive(Debug, Clone, PartialEq)]
pub struct DirectionTerms {
    phasors: Vec<Complex>,
    element_dbi: f64,
    shadow_db: f64,
}

impl DirectionTerms {
    /// Power gain in dBi of excitation `x` (built by the same array as
    /// these terms). Bit-identical to [`PhasedArray::gain_dbi`] for the
    /// direction these terms were built for.
    pub fn gain_dbi(&self, x: &Excitation) -> f64 {
        x.gain_dbi(|i| self.phasors[i], self.element_dbi, self.shadow_db)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ideal_array() -> PhasedArray {
        PhasedArray::ideal(8, 4)
    }

    #[test]
    fn uniform_weights_peak_at_broadside() {
        let arr = ideal_array();
        let w = WeightVector::uniform(32);
        let g0 = arr.gain_dbi(&w, &Direction::BROADSIDE);
        // Array gain 10log10(32) ≈ 15.05 dB + element 5 dBi ≈ 20 dBi.
        assert!((g0 - 20.05).abs() < 0.2, "broadside gain {g0}");
        let g20 = arr.gain_dbi(&w, &Direction::new(20.0, 0.0));
        assert!(g0 > g20 + 10.0, "beam must be narrow: {g0} vs {g20}");
    }

    #[test]
    fn steering_moves_the_peak() {
        let arr = ideal_array();
        let target = Direction::new(30.0, 0.0);
        let w = arr.quantize(&arr.steering_weights(&target));
        let g_target = arr.gain_dbi(&w, &target);
        let g_broadside = arr.gain_dbi(&w, &Direction::BROADSIDE);
        assert!(
            g_target > g_broadside + 3.0,
            "steered beam: target {g_target}, broadside {g_broadside}"
        );
    }

    #[test]
    fn quantized_steering_loses_some_gain() {
        let ideal = ideal_array();
        let talon = PhasedArray::talon(42);
        let target = Direction::new(25.0, 0.0);
        let wi = WeightVector::exact(ideal.steering_weights(&target));
        let wt = talon.quantize(&talon.steering_weights(&target));
        let gi = ideal.gain_dbi(&wi, &target);
        let gt = talon.gain_dbi(&wt, &target);
        assert!(gi > gt, "quantization + errors cost gain: {gi} vs {gt}");
        assert!(gt > gi - 8.0, "but the beam still points: {gi} vs {gt}");
    }

    #[test]
    fn single_element_is_quasi_omni() {
        let arr = ideal_array();
        let w = WeightVector::single_element(32, 12);
        let g0 = arr.gain_dbi(&w, &Direction::BROADSIDE);
        let g60 = arr.gain_dbi(&w, &Direction::new(60.0, 0.0));
        // A single element has no array gain; pattern follows the element.
        assert!(
            (g0 - 5.0).abs() < 0.1,
            "single element ≈ element gain: {g0}"
        );
        assert!(g0 - g60 < 4.0, "wide coverage: {g0} vs {g60}");
    }

    #[test]
    fn all_off_returns_floor() {
        let arr = ideal_array();
        let w = WeightVector::exact(vec![Complex::ZERO; 32]);
        assert_eq!(arr.gain_dbi(&w, &Direction::BROADSIDE), -60.0);
    }

    #[test]
    fn rear_gain_is_shadowed_on_talon() {
        let arr = PhasedArray::talon(7);
        let w = WeightVector::uniform(32);
        let front = arr.gain_dbi(&w, &Direction::new(0.0, 0.0));
        let rear = arr.gain_dbi(&w, &Direction::new(175.0, 0.0));
        assert!(front - rear > 25.0, "front {front} vs rear {rear}");
    }

    #[test]
    #[should_panic(expected = "length must match")]
    fn weight_length_mismatch_panics() {
        let arr = ideal_array();
        let w = WeightVector::uniform(16);
        arr.gain_dbi(&w, &Direction::BROADSIDE);
    }

    #[test]
    fn direction_terms_match_gain_dbi_bit_for_bit() {
        let arr = PhasedArray::talon(3);
        let excitations = [
            WeightVector::uniform(32),
            WeightVector::single_element(32, 12),
            WeightVector::exact(vec![Complex::ZERO; 32]),
            arr.quantize(&arr.steering_weights(&Direction::new(-30.0, 10.0))),
        ];
        for az in (-180..=180).step_by(15) {
            for el in [-40.0, 0.0, 25.0] {
                let dir = Direction::new(az as f64, el);
                let terms = arr.direction_terms(&dir);
                for w in &excitations {
                    assert_eq!(
                        terms.gain_dbi(&arr.excitation(w)).to_bits(),
                        arr.gain_dbi(w, &dir).to_bits(),
                        "az {az} el {el}"
                    );
                }
            }
        }
    }

    #[test]
    fn same_seed_same_device() {
        let a = PhasedArray::talon(11);
        let b = PhasedArray::talon(11);
        let w = WeightVector::uniform(32);
        let d = Direction::new(42.0, 10.0);
        assert_eq!(a.gain_dbi(&w, &d), b.gain_dbi(&w, &d));
    }
}
