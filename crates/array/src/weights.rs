//! Per-element excitations with consumer-grade quantization.
//!
//! Consumer 60 GHz beamformers do not offer continuous phase/amplitude
//! control: the paper notes the interface changes "gains and phases in
//! discrete steps per antenna element" (§1). The wil6210-class hardware uses
//! very coarse RF phase shifters; we default to 2-bit phase (90° steps) and
//! on/off amplitude, which is what produces the ragged side lobes and
//! multi-lobe sectors visible in the measured patterns.

use crate::complex::Complex;
use std::f64::consts::TAU;

/// Quantization rule for element weights.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeightQuantizer {
    /// Number of phase bits (2 → phases {0°, 90°, 180°, 270°}).
    pub phase_bits: u8,
    /// Number of amplitude levels *excluding* "off" (1 → on/off control).
    pub amplitude_levels: u8,
}

impl WeightQuantizer {
    /// The Talon-like default: 2-bit phase, on/off amplitude.
    pub const TALON: WeightQuantizer = WeightQuantizer {
        phase_bits: 2,
        amplitude_levels: 1,
    };

    /// An idealized continuous beamformer (for comparison benches).
    pub const IDEAL: WeightQuantizer = WeightQuantizer {
        phase_bits: 16,
        amplitude_levels: 255,
    };

    /// Number of distinct phases.
    pub fn phase_steps(&self) -> u32 {
        1u32 << self.phase_bits
    }

    /// Quantizes a phase in radians to the nearest available step.
    pub fn quantize_phase(&self, theta: f64) -> f64 {
        let steps = self.phase_steps() as f64;
        let step = TAU / steps;
        let idx = (theta / step).round().rem_euclid(steps);
        idx * step
    }

    /// Quantizes an amplitude in `[0, 1]` to the nearest available level
    /// (including zero = off).
    pub fn quantize_amplitude(&self, a: f64) -> f64 {
        let levels = self.amplitude_levels as f64;
        let idx = (a.clamp(0.0, 1.0) * levels).round();
        idx / levels
    }

    /// Quantizes a full complex weight.
    pub fn quantize(&self, w: Complex) -> Complex {
        let a = self.quantize_amplitude(w.abs());
        if a == 0.0 {
            Complex::ZERO
        } else {
            Complex::from_polar(a, self.quantize_phase(w.arg().rem_euclid(TAU)))
        }
    }
}

/// A complete excitation vector for the array, already quantized.
#[derive(Debug, Clone, PartialEq)]
pub struct WeightVector {
    weights: Vec<Complex>,
}

impl WeightVector {
    /// Wraps raw weights, quantizing each entry under `quant`.
    pub fn quantized(raw: &[Complex], quant: &WeightQuantizer) -> Self {
        WeightVector {
            weights: raw.iter().map(|&w| quant.quantize(w)).collect(),
        }
    }

    /// Uses the weights exactly as given (for ideal-array experiments).
    pub fn exact(raw: Vec<Complex>) -> Self {
        WeightVector { weights: raw }
    }

    /// Uniform excitation of all `n` elements (phase 0, amplitude 1).
    pub fn uniform(n: usize) -> Self {
        WeightVector {
            weights: vec![Complex::ONE; n],
        }
    }

    /// A single active element; all others off. This is how quasi-omni
    /// receive sectors are realized on real hardware.
    pub fn single_element(n: usize, active: usize) -> Self {
        assert!(active < n, "active element out of range");
        let mut weights = vec![Complex::ZERO; n];
        weights[active] = Complex::ONE;
        WeightVector { weights }
    }

    /// Number of entries (equals the array element count).
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// True if no entries.
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// The weight of element `i`.
    pub fn get(&self, i: usize) -> Complex {
        self.weights[i]
    }

    /// Number of elements that are switched on (non-zero amplitude).
    pub fn active_elements(&self) -> usize {
        self.weights.iter().filter(|w| w.abs2() > 0.0).count()
    }

    /// Iterates over the weights.
    pub fn iter(&self) -> impl Iterator<Item = &Complex> {
        self.weights.iter()
    }

    /// Total feed power `Σ|w|²`; used to normalize gain so switching
    /// elements off does not create energy.
    pub fn feed_power(&self) -> f64 {
        self.weights.iter().map(|w| w.abs2()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn talon_quantizer_has_four_phases() {
        let q = WeightQuantizer::TALON;
        assert_eq!(q.phase_steps(), 4);
        assert_eq!(q.quantize_phase(0.1), 0.0);
        assert!((q.quantize_phase(1.5) - TAU / 4.0).abs() < 1e-12);
        // 2π wraps back to phase 0.
        assert!((q.quantize_phase(TAU - 0.01) - 0.0).abs() < 1e-12);
    }

    #[test]
    fn amplitude_on_off() {
        let q = WeightQuantizer::TALON;
        assert_eq!(q.quantize_amplitude(0.2), 0.0);
        assert_eq!(q.quantize_amplitude(0.8), 1.0);
        assert_eq!(q.quantize_amplitude(2.0), 1.0);
    }

    #[test]
    fn quantize_zero_stays_zero() {
        let q = WeightQuantizer::TALON;
        assert_eq!(q.quantize(Complex::ZERO), Complex::ZERO);
    }

    #[test]
    fn ideal_quantizer_is_nearly_transparent() {
        let q = WeightQuantizer::IDEAL;
        let w = Complex::from_polar(0.73, 1.234);
        let qw = q.quantize(w);
        assert!((qw.abs() - 0.73).abs() < 0.01);
        assert!((qw.arg() - 1.234).abs() < 1e-3);
    }

    #[test]
    fn uniform_and_single_element() {
        let u = WeightVector::uniform(32);
        assert_eq!(u.len(), 32);
        assert_eq!(u.active_elements(), 32);
        assert!((u.feed_power() - 32.0).abs() < 1e-12);

        let s = WeightVector::single_element(32, 5);
        assert_eq!(s.active_elements(), 1);
        assert_eq!(s.get(5), Complex::ONE);
        assert_eq!(s.get(0), Complex::ZERO);
        assert!((s.feed_power() - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "active element out of range")]
    fn single_element_bounds_checked() {
        WeightVector::single_element(4, 4);
    }

    #[test]
    fn quantized_constructor_applies_rule() {
        let raw = vec![Complex::from_polar(0.9, 0.8), Complex::from_polar(0.1, 2.0)];
        let v = WeightVector::quantized(&raw, &WeightQuantizer::TALON);
        assert!((v.get(0).abs() - 1.0).abs() < 1e-12);
        assert!((v.get(0).arg() - TAU / 4.0).abs() < 1e-9); // 0.8 rad → 90°? 0.8/(π/2)=0.51 → 1 step
        assert_eq!(v.get(1), Complex::ZERO); // amplitude 0.1 switches off
        assert_eq!(v.active_elements(), 1);
    }
}
