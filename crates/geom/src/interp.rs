//! Interpolation helpers for post-processing chamber measurements.
//!
//! The paper's pattern plots (Fig. 5/6) are produced by omitting obvious
//! outliers, averaging over repeated measurements and "interpolating over
//! gaps where we could not capture any frames due to misses in directions
//! with low gains" (§4.3). This module provides those primitives:
//!
//! * [`fill_gaps_circular`] / [`fill_gaps_linear`] — 1-D gap filling over a
//!   circular (azimuth) or bounded (elevation) axis;
//! * [`lerp`] — plain linear interpolation;
//! * [`bilinear`] — gain lookup between grid points of a 2-D pattern table,
//!   and [`Stencil`], the same lookup prepared once for many tables.

/// Linear interpolation between `a` and `b` with parameter `t ∈ [0, 1]`.
pub fn lerp(a: f64, b: f64, t: f64) -> f64 {
    a + (b - a) * t
}

/// Fills `None` gaps in a series sampled on a *circular* axis by linear
/// interpolation between the nearest present neighbours (wrapping around the
/// ends). Used for azimuth scans where −180° and 180° meet.
///
/// If fewer than one sample is present, returns a vector of `fallback`.
pub fn fill_gaps_circular(samples: &[Option<f64>], fallback: f64) -> Vec<f64> {
    fill_gaps_impl(samples, fallback, true)
}

/// Fills `None` gaps in a series sampled on a *bounded* axis. Leading and
/// trailing gaps are extended from the nearest present sample (constant
/// extrapolation).
pub fn fill_gaps_linear(samples: &[Option<f64>], fallback: f64) -> Vec<f64> {
    fill_gaps_impl(samples, fallback, false)
}

fn fill_gaps_impl(samples: &[Option<f64>], fallback: f64, circular: bool) -> Vec<f64> {
    let n = samples.len();
    let present: Vec<usize> = (0..n).filter(|&i| samples[i].is_some()).collect();
    if present.is_empty() {
        return vec![fallback; n];
    }
    if present.len() == 1 {
        return vec![samples[present[0]].unwrap(); n];
    }
    let mut out = vec![0.0; n];
    for i in 0..n {
        if let Some(v) = samples[i] {
            out[i] = v;
            continue;
        }
        // Find the nearest present neighbours left and right.
        let right = present.iter().copied().find(|&p| p > i);
        let left = present.iter().rev().copied().find(|&p| p < i);
        out[i] = match (left, right, circular) {
            (Some(l), Some(r), _) => {
                let t = (i - l) as f64 / (r - l) as f64;
                lerp(samples[l].unwrap(), samples[r].unwrap(), t)
            }
            (None, Some(r), true) => {
                // Wrap: previous neighbour is the last present sample.
                let l = *present.last().unwrap();
                let span = (n - l) + r;
                let t = (n - l + i) as f64 / span as f64;
                lerp(samples[l].unwrap(), samples[r].unwrap(), t)
            }
            (Some(l), None, true) => {
                let r = present[0];
                let span = (n - l) + r;
                let t = (i - l) as f64 / span as f64;
                lerp(samples[l].unwrap(), samples[r].unwrap(), t)
            }
            (None, Some(r), false) => samples[r].unwrap(),
            (Some(l), None, false) => samples[l].unwrap(),
            (None, None, _) => unreachable!("present is non-empty"),
        };
    }
    out
}

/// Bilinear interpolation on a row-major 2-D table.
///
/// `table` has `rows * cols` entries; `(r, c)` may be fractional and is
/// clamped to the valid range. Used to read a measured sector pattern at a
/// direction that falls between measured grid points.
pub fn bilinear(table: &[f64], rows: usize, cols: usize, r: f64, c: f64) -> f64 {
    assert_eq!(table.len(), rows * cols, "bilinear: table size mismatch");
    Stencil::new(rows, cols, r, c).apply(table)
}

/// The four table cells and two weights of one [`bilinear`] lookup,
/// computed once so the same point can be read from many tables that
/// share a shape (every sector pattern of one grid): [`Stencil::apply`]
/// returns exactly what [`bilinear`] would for each table.
#[derive(Debug, Clone, Copy)]
pub struct Stencil {
    /// Flat indices of the top-left, top-right, bottom-left and
    /// bottom-right cells.
    cells: [usize; 4],
    /// Fractional row offset.
    tr: f64,
    /// Fractional column offset.
    tc: f64,
}

impl Stencil {
    /// The stencil of fractional position `(r, c)` on a `rows × cols`
    /// row-major table, clamped to the valid range.
    pub fn new(rows: usize, cols: usize, r: f64, c: f64) -> Self {
        assert!(rows > 0 && cols > 0, "bilinear: empty table");
        let r = r.clamp(0.0, (rows - 1) as f64);
        let c = c.clamp(0.0, (cols - 1) as f64);
        let r0 = r.floor() as usize;
        let c0 = c.floor() as usize;
        let r1 = (r0 + 1).min(rows - 1);
        let c1 = (c0 + 1).min(cols - 1);
        Stencil {
            cells: [
                r0 * cols + c0,
                r0 * cols + c1,
                r1 * cols + c0,
                r1 * cols + c1,
            ],
            tr: r - r0 as f64,
            tc: c - c0 as f64,
        }
    }

    /// The interpolated value of `table` (which must have the shape the
    /// stencil was built for).
    pub fn apply(&self, table: &[f64]) -> f64 {
        let [i00, i01, i10, i11] = self.cells;
        let top = lerp(table[i00], table[i01], self.tc);
        let bottom = lerp(table[i10], table[i11], self.tc);
        lerp(top, bottom, self.tr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lerp_endpoints_and_middle() {
        assert_eq!(lerp(2.0, 4.0, 0.0), 2.0);
        assert_eq!(lerp(2.0, 4.0, 1.0), 4.0);
        assert_eq!(lerp(2.0, 4.0, 0.5), 3.0);
    }

    #[test]
    fn fill_interior_gap() {
        let s = [Some(0.0), None, None, Some(3.0)];
        let out = fill_gaps_linear(&s, -99.0);
        assert_eq!(out, vec![0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn fill_edges_bounded_extends_constant() {
        let s = [None, Some(5.0), None, Some(7.0), None];
        let out = fill_gaps_linear(&s, 0.0);
        assert_eq!(out, vec![5.0, 5.0, 6.0, 7.0, 7.0]);
    }

    #[test]
    fn fill_edges_circular_wraps() {
        // Samples at indices 1 and 3 of a 4-long circular axis; index 0's
        // neighbours are 3 (left, wrapped) and 1 (right), equidistant.
        let s = [None, Some(0.0), None, Some(2.0)];
        let out = fill_gaps_circular(&s, 0.0);
        assert_eq!(out[1], 0.0);
        assert_eq!(out[3], 2.0);
        assert!((out[0] - 1.0).abs() < 1e-12); // halfway 2.0 -> 0.0
        assert!((out[2] - 1.0).abs() < 1e-12); // halfway 0.0 -> 2.0
    }

    #[test]
    fn all_missing_uses_fallback() {
        let s = [None, None, None];
        assert_eq!(fill_gaps_circular(&s, -7.0), vec![-7.0; 3]);
        assert_eq!(fill_gaps_linear(&s, -7.0), vec![-7.0; 3]);
    }

    #[test]
    fn single_sample_broadcasts() {
        let s = [None, Some(4.5), None];
        assert_eq!(fill_gaps_circular(&s, 0.0), vec![4.5; 3]);
    }

    #[test]
    fn bilinear_corners_and_center() {
        // 2x2 table:
        //  0 1
        //  2 3
        let t = [0.0, 1.0, 2.0, 3.0];
        assert_eq!(bilinear(&t, 2, 2, 0.0, 0.0), 0.0);
        assert_eq!(bilinear(&t, 2, 2, 0.0, 1.0), 1.0);
        assert_eq!(bilinear(&t, 2, 2, 1.0, 0.0), 2.0);
        assert_eq!(bilinear(&t, 2, 2, 0.5, 0.5), 1.5);
    }

    #[test]
    fn bilinear_clamps_out_of_range() {
        let t = [0.0, 1.0, 2.0, 3.0];
        assert_eq!(bilinear(&t, 2, 2, -5.0, -5.0), 0.0);
        assert_eq!(bilinear(&t, 2, 2, 9.0, 9.0), 3.0);
    }

    #[test]
    #[should_panic(expected = "table size mismatch")]
    fn bilinear_size_mismatch_panics() {
        bilinear(&[0.0; 3], 2, 2, 0.0, 0.0);
    }
}
