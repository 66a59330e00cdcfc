//! The compressive angle-of-arrival estimator (Eqs. 2, 3, 5).
//!
//! Given the readings of `M` probed sectors, the estimator evaluates
//!
//! ```text
//! W(φ, θ) = ⟨ p/‖p‖ , x(φ,θ)/‖x(φ,θ)‖ ⟩²          (Eq. 2)
//! ```
//!
//! over the discrete grid of the measured patterns and returns the argmax
//! (Eq. 3). In joint mode the SNR and RSSI correlations are multiplied
//! (Eq. 5), which "tolerates more outliers and increases the robustness
//! against measurement deviations in either value" (§5).
//!
//! All correlations run on the firmware's own report scale: dB above the
//! −7 dB report floor, `v = max(report − floor, 0)`. The firmware reports
//! are already logarithmic and floor-clamped, so correlating them directly
//! weighs every probed sector's contribution instead of letting the
//! single strongest sector dominate, which is what happens after
//! exponentiating to linear power. (An exponentiated linear-power variant
//! was evaluated and mis-estimates noticeably more often; see DESIGN.md.)
//! RSSI readings are shifted so the strongest one lines up with the
//! strongest SNR reading, which makes the vector scale-free in distance.
//! Sectors whose measurement is missing (or non-finite) are masked out of
//! both vectors — the paper's "we naturally compensate missing
//! measurements" (§5). The batched kernel ([`crate::batch`]) shares this
//! gather, the argmax and the sub-cell refinement.
//!
//! # Performance
//!
//! Eq. 2/3/5 is the hot path of every Monte Carlo experiment, so the
//! evaluation is organized as a cache-friendly fused kernel:
//!
//! * the per-sector gain tables are stored as one contiguous
//!   **sector-major** matrix padded to whole tiles
//!   (`gains[s * n_pad + g]`, `n_pad` = the grid size rounded up to
//!   `TILE` = 8 cells, pad cells 0.0), built once at construction;
//! * the grid is swept in **register tiles** of 8 adjacent cells: each
//!   probe's row segment is read once per tile and added into `[f64; 8]`
//!   accumulators, so the 8 cells share every vector instruction. Each
//!   cell still adds its probes in reading order starting from 0.0, so
//!   its map value is bit-identical to a per-cell loop's
//!   (`tests/golden_kernel.rs` checks `to_bits` equality). On a 2-core
//!   AVX-512 Xeon VM this cut `estimate/JointSnrRssi/14` from 2788 to
//!   1652 ns and `estimate_grid/m14/1010pt` from 26789 to 14998 ns
//!   (medians of three full-budget runs) against the grid-major per-cell
//!   sweep it replaced;
//! * the energy prior and the SNR/RSSI correlations are computed in **one
//!   sweep** over the grid from the same gathered gains (the expected
//!   energy at a grid point is exactly the `‖x‖²` the correlation needs);
//! * sector → matrix-row resolution is a precomputed O(1) table instead of
//!   a linear scan per reading;
//! * all intermediate buffers live in a reusable [`EstimatorScratch`], so a
//!   steady-state [`CompressiveEstimator::estimate`] performs no heap
//!   allocation (`css.estimate_allocs` gauges the per-call allocation count).
//!
//! # Provenance
//!
//! A recorded decision carries the kernel's Eq. 2–5 intermediates (a
//! [`KernelClosure`]). [`CompressiveEstimator::estimate_with_closure`]
//! reads them out of the same scratch the estimate was computed in, so
//! recording or replaying a decision costs one kernel pass, not two. The
//! top-k cells come from one pass over the final map that keeps at most
//! `k` candidates, in the order of a full sort: weight descending, ties
//! to the lower grid index.
//!
//! The pre-optimization implementation is retained verbatim in
//! [`reference`] as the golden model: `tests/golden_kernel.rs` asserts the
//! fused kernel matches it to ≤ 1e-12 over randomized inputs, and matches
//! a per-cell reading-order sum bit for bit.

use chamber::SectorPatterns;
use geom::sphere::Direction;
use std::cell::RefCell;
use talon_channel::{Measurement, SweepReading};

/// Which measurements enter the correlation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorrelationMode {
    /// Eq. 3: correlate SNR readings only.
    SnrOnly,
    /// Eq. 5: multiply the SNR and RSSI correlation maps.
    JointSnrRssi,
}

/// The SNR report floor of the Talon firmware, dB (§4.3).
const REPORT_FLOOR_DB: f64 = -7.0;

/// Exponent of the energy prior (see
/// [`CompressiveEstimator::correlation_map`]): 1.0 tilts the map fully
/// towards well-covered directions, 0.0 disables the prior.
const ENERGY_PRIOR_EXPONENT: f64 = 0.25;

/// Grid cells per register tile of the Eq. 2 sweep (the padding unit of
/// the gains matrix). 8 measured fastest; 4 and 16 were equal or slower.
const TILE: usize = 8;

/// Transforms a dB report into the correlation domain: dB above the floor.
pub(crate) fn report_scale(db: f64) -> f64 {
    (db - REPORT_FLOOR_DB).max(0.0)
}

/// A reading's measurement when it can enter the correlation: present and
/// finite. A non-finite SNR or RSSI (trace input is not range-checked) is
/// treated exactly like a missing report.
fn measured(r: &SweepReading) -> Option<Measurement> {
    r.measurement
        .filter(|m| m.snr_db.is_finite() && m.rssi_dbm.is_finite())
}

/// The probe gather of both kernels: one `(row, report-scale SNR, shifted
/// RSSI)` triple per measured reading whose sector has a pattern row in
/// `row_of`, in reading order.
///
/// RSSI is a power in dBm whose absolute level depends on distance. The
/// vector is shifted so its strongest reading lines up with the strongest
/// SNR reading on the report scale; relative differences between sectors
/// (the shape) are preserved, and anything that would fall below the
/// report floor clips to zero like the SNR. The offset is taken over every
/// measured reading, whether or not its sector has a pattern.
pub(crate) fn probe_triples<'a>(
    row_of: &'a [u16; 256],
    readings: &'a [SweepReading],
) -> impl Iterator<Item = (u16, f64, f64)> + 'a {
    let (mut max_rssi, mut max_snr_scaled) = (f64::NEG_INFINITY, 0.0f64);
    for m in readings.iter().filter_map(measured) {
        max_rssi = max_rssi.max(m.rssi_dbm);
        max_snr_scaled = max_snr_scaled.max(report_scale(m.snr_db));
    }
    let rssi_offset = max_snr_scaled - max_rssi;
    readings.iter().filter_map(move |r| {
        let row = row_of[r.sector.raw() as usize];
        let m = measured(r)?;
        (row != u16::MAX).then(|| {
            let vr = (m.rssi_dbm + rssi_offset).max(0.0);
            (row, report_scale(m.snr_db), vr)
        })
    })
}

/// The energy prior `(e / e_max)^0.25`, computed as two square roots
/// (≈ 5–10× cheaper than `powf` and within 2 ulp of it). Hardcodes
/// [`ENERGY_PRIOR_EXPONENT`] = 0.25.
fn energy_prior(ratio: f64) -> f64 {
    ratio.sqrt().sqrt()
}

/// One-cell box smoothing of a correlation map in elevation-major layout,
/// written into `out` (resized as needed).
pub(crate) fn smooth_map_into(map: &[f64], n_az: usize, n_el: usize, out: &mut Vec<f64>) {
    debug_assert_eq!(map.len(), n_az * n_el);
    out.clear();
    out.resize(map.len(), 0.0);
    let general = |e: usize, a: usize| {
        let mut acc = 0.0;
        let mut cnt = 0.0;
        for de in e.saturating_sub(1)..=(e + 1).min(n_el - 1) {
            for da in a.saturating_sub(1)..=(a + 1).min(n_az - 1) {
                acc += map[de * n_az + da];
                cnt += 1.0;
            }
        }
        acc / cnt
    };
    if n_el >= 3 && n_az >= 3 {
        // Corner cells keep the general clamped-window path; every other
        // cell takes a fixed-width unrolled sum in the same accumulation
        // order (rows ascending, then columns), which is bit-identical —
        // the clamped loop accumulates its count to exactly 9.0/6.0
        // before the one division — and lets the optimizer drop the
        // bounds checks and vectorize. On squat grids (the coarse bench
        // grid is 25×4) border cells are the majority, so the top/bottom
        // rows and edge columns matter as much as the interior.
        out[0] = general(0, 0);
        out[n_az - 1] = general(0, n_az - 1);
        {
            let (mid, dn) = (&map[..n_az], &map[n_az..2 * n_az]);
            for a in 1..n_az - 1 {
                let acc = mid[a - 1] + mid[a] + mid[a + 1] + dn[a - 1] + dn[a] + dn[a + 1];
                out[a] = acc / 6.0;
            }
        }
        let last = (n_el - 1) * n_az;
        out[last] = general(n_el - 1, 0);
        out[last + n_az - 1] = general(n_el - 1, n_az - 1);
        {
            let (up, mid) = (&map[last - n_az..last], &map[last..last + n_az]);
            for a in 1..n_az - 1 {
                let acc = up[a - 1] + up[a] + up[a + 1] + mid[a - 1] + mid[a] + mid[a + 1];
                out[last + a] = acc / 6.0;
            }
        }
        for e in 1..n_el - 1 {
            let row = e * n_az;
            let up = &map[row - n_az..row];
            let mid = &map[row..row + n_az];
            let dn = &map[row + n_az..row + 2 * n_az];
            let orow = &mut out[row..row + n_az];
            orow[0] = (up[0] + up[1] + mid[0] + mid[1] + dn[0] + dn[1]) / 6.0;
            let a_r = n_az - 1;
            orow[a_r] =
                (up[a_r - 1] + up[a_r] + mid[a_r - 1] + mid[a_r] + dn[a_r - 1] + dn[a_r]) / 6.0;
            for a in 1..n_az - 1 {
                let acc = up[a - 1]
                    + up[a]
                    + up[a + 1]
                    + mid[a - 1]
                    + mid[a]
                    + mid[a + 1]
                    + dn[a - 1]
                    + dn[a]
                    + dn[a + 1];
                orow[a] = acc / 9.0;
            }
        }
    } else {
        for e in 0..n_el {
            for a in 0..n_az {
                out[e * n_az + a] = general(e, a);
            }
        }
    }
}

/// Numerical options of the Eq. 3 argmax (all on by default; exposed so
/// the DESIGN.md ablations are reproducible).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EstimatorOptions {
    /// Weight `W` by the probing set's relative expected energy
    /// (suppresses spurious maxima in directions no probe illuminates).
    pub energy_prior: bool,
    /// One-cell box smoothing of the map before the argmax.
    pub smoothing: bool,
    /// Parabolic sub-cell refinement of the winning direction.
    pub subcell_refinement: bool,
}

impl Default for EstimatorOptions {
    fn default() -> Self {
        EstimatorOptions {
            energy_prior: true,
            smoothing: true,
            subcell_refinement: true,
        }
    }
}

/// Reusable scratch buffers for the correlation kernel.
///
/// A steady-state [`CompressiveEstimator::estimate_with`] reuses these
/// buffers and allocates nothing; [`EstimatorScratch::last_allocations`]
/// reports how many buffers had to grow during the most recent call (0 once
/// warm), which the estimator also publishes on the `css.estimate_allocs`
/// gauge.
#[derive(Debug, Default)]
pub struct EstimatorScratch {
    /// Pattern-matrix rows of the usable probes, in reading order.
    rows: Vec<u32>,
    /// Report-scale SNR probe vector (usable probes only).
    p_snr: Vec<f64>,
    /// Shifted RSSI probe vector (usable probes only).
    p_rssi: Vec<f64>,
    /// The correlation map (final output lives here).
    map: Vec<f64>,
    /// Expected-energy `‖x(g)‖` per grid point.
    energy: Vec<f64>,
    /// Smoothing output buffer (swapped into `map`).
    smoothed: Vec<f64>,
    /// `max_g ‖x(g)‖` of the current call, the prior's normalizer; 0 when
    /// fewer than two probes were usable (`energy` is then stale).
    energy_max: f64,
    /// Buffers grown during the current call.
    grew: usize,
}

impl EstimatorScratch {
    /// Fresh, empty scratch (the first estimate through it allocates).
    pub fn new() -> Self {
        EstimatorScratch::default()
    }

    /// How many buffers had to (re)allocate during the most recent
    /// estimate. Reads 0 once the scratch is warm for the grid in use.
    pub fn last_allocations(&self) -> usize {
        self.grew
    }
}

/// Grows `buf` to `len` zeros, counting a capacity growth in `grew`.
fn reuse_zeroed(buf: &mut Vec<f64>, len: usize, grew: &mut usize) {
    if buf.capacity() < len {
        *grew += 1;
    }
    buf.clear();
    buf.resize(len, 0.0);
}

thread_local! {
    /// Per-thread scratch backing the allocation-free [`CompressiveEstimator::estimate`]
    /// convenience API. Shared by all estimators on the thread; sized to the
    /// largest grid seen.
    static THREAD_SCRATCH: RefCell<EstimatorScratch> = RefCell::new(EstimatorScratch::new());
}

/// The estimator: measured patterns pre-expanded to the correlation domain.
pub struct CompressiveEstimator {
    /// Sector-major report-scale gain matrix padded to whole tiles:
    /// `gains[s * n_pad + g]` is the gain of sector row `s` at grid point
    /// `g`; the `n_pad − n_grid` pad cells of each row hold 0.0. A probe's
    /// row is contiguous along the grid, so one tile of it is one or two
    /// vector loads.
    pub(crate) gains: Vec<f64>,
    /// Number of sector rows (the matrix major dimension).
    pub(crate) n_sectors: usize,
    /// Row stride: the grid size rounded up to a multiple of [`TILE`].
    pub(crate) n_pad: usize,
    /// O(1) sector-id → matrix-row table (`u16::MAX` = no measured pattern).
    pub(crate) row_of: [u16; 256],
    /// The angular grid shared by all patterns.
    grid: geom::sphere::SphericalGrid,
    /// Correlation mode.
    pub mode: CorrelationMode,
    /// Numerical argmax options.
    pub options: EstimatorOptions,
    /// Cached metric handles (registry lookups are off the hot path).
    ctr_estimates: std::sync::Arc<obs::Counter>,
    ctr_degenerate: std::sync::Arc<obs::Counter>,
    gauge_allocs: std::sync::Arc<obs::Gauge>,
}

impl CompressiveEstimator {
    /// Builds an estimator from a measured pattern database.
    pub fn new(patterns: &SectorPatterns, mode: CorrelationMode) -> Self {
        let ids = patterns.sector_ids();
        let grid = patterns.grid().clone();
        let n_sectors = ids.len();
        let n_grid = grid.len();
        assert!(n_sectors < u16::MAX as usize, "sector count fits the index");
        let n_pad = n_grid.div_ceil(TILE) * TILE;
        let mut gains = vec![0.0; n_sectors * n_pad];
        let mut row_of = [u16::MAX; 256];
        for (s, id) in ids.iter().enumerate() {
            row_of[id.raw() as usize] = s as u16;
            let table = &patterns.get(*id).expect("id comes from the store").gain_db;
            for (x, &db) in gains[s * n_pad..][..n_grid].iter_mut().zip(table) {
                *x = report_scale(db);
            }
        }
        CompressiveEstimator {
            gains,
            n_sectors,
            n_pad,
            row_of,
            grid,
            mode,
            options: EstimatorOptions::default(),
            ctr_estimates: obs::counter("css.estimates"),
            ctr_degenerate: obs::counter("css.degenerate"),
            gauge_allocs: obs::gauge("css.estimate_allocs"),
        }
    }

    /// Overrides the numerical argmax options (builder style).
    pub fn with_options(mut self, options: EstimatorOptions) -> Self {
        self.options = options;
        self
    }

    /// The estimation grid.
    pub fn grid(&self) -> &geom::sphere::SphericalGrid {
        &self.grid
    }

    /// Computes the correlation map `W` over the grid for a set of probe
    /// readings. Readings for sectors without a measured pattern are
    /// ignored; missing measurements are masked.
    ///
    /// Allocates a fresh map; hot paths should use [`Self::estimate_with`]
    /// (or [`Self::estimate`], which reuses a per-thread scratch).
    pub fn correlation_map(&self, readings: &[SweepReading]) -> Vec<f64> {
        let mut scratch = EstimatorScratch::new();
        self.correlation_into(&mut scratch, readings);
        scratch.map
    }

    /// The fused correlation kernel: gathers the probe vectors, then makes
    /// a single sweep over the grid computing expected energy and the
    /// SNR/RSSI correlations from the same gathered gains. The final map is
    /// left in `scratch.map`.
    fn correlation_into(&self, s: &mut EstimatorScratch, readings: &[SweepReading]) {
        s.grew = 0;
        s.energy_max = 0.0;
        let n_grid = self.grid.len();
        reuse_zeroed(&mut s.map, n_grid, &mut s.grew);
        // Build the probe vectors in pattern-row order. Readings whose
        // measurement is missing contribute nothing to any sum (the mask of
        // Eq. 5), so the gather drops them instead of branch-masking them in
        // the inner loop.
        if s.rows.capacity() < readings.len() {
            s.grew += 1;
        }
        s.rows.clear();
        s.p_snr.clear();
        s.p_rssi.clear();
        s.rows.reserve(readings.len());
        s.p_snr.reserve(readings.len());
        s.p_rssi.reserve(readings.len());
        for (row, vs, vr) in probe_triples(&self.row_of, readings) {
            s.rows.push(u32::from(row));
            s.p_snr.push(vs);
            s.p_rssi.push(vr);
        }
        if s.rows.len() < 2 {
            return; // not enough information; flat zero map
        }
        reuse_zeroed(&mut s.energy, n_grid, &mut s.grew);
        // Energy prior: normalized correlation is blind to the absolute
        // level of the expected vector, so directions none of the probed
        // sectors illuminates ("dark" grid points) can spuriously win on
        // noise shape alone. Scaling W by the relative expected energy
        // keeps the argmax inside the region the probing set can actually
        // see. (Ablation: disabling this roughly doubles the selection's
        // SNR loss at M = 14.) The energy at a grid point is `‖x‖`, which
        // the correlation computes anyway — one fused sweep covers both.
        let energy_max = match self.mode {
            CorrelationMode::SnrOnly => self.sweep::<false>(s),
            CorrelationMode::JointSnrRssi => self.sweep::<true>(s),
        };
        s.energy_max = energy_max;
        if energy_max <= f64::EPSILON {
            s.map.iter_mut().for_each(|w| *w = 0.0);
            return;
        }
        if self.options.energy_prior {
            // Soft prior: scaling W *proportionally* to the expected
            // energy biases small probing sets towards the broadside
            // region where most sectors overlap, while no prior at all
            // lets dark grid cells at the map edge win on noise shape.
            // The fractional exponent keeps the dark-region suppression
            // but flattens the tilt (in dB) inside the illuminated
            // region to a quarter of the proportional prior's.
            for (w, &e) in s.map.iter_mut().zip(&s.energy) {
                *w *= energy_prior(e / energy_max);
            }
        }
        // Light spatial smoothing suppresses single-cell noise spikes
        // before the argmax (the numerical maximization of Eq. 3).
        if self.options.smoothing {
            if s.smoothed.capacity() < s.map.len() {
                s.grew += 1;
            }
            smooth_map_into(
                &s.map,
                self.grid.az.len(),
                self.grid.el.len(),
                &mut s.smoothed,
            );
            std::mem::swap(&mut s.map, &mut s.smoothed);
        }
    }

    /// The fused Eq. 2/5 sweep: writes `‖x(g)‖` into `s.energy` and the
    /// (prior-free, unsmoothed) correlation into `s.map` for every grid
    /// cell, and returns `max_g ‖x(g)‖`. `JOINT` adds the RSSI correlation
    /// of Eq. 5.
    ///
    /// The grid is swept one [`TILE`] of adjacent cells at a time; each
    /// probe adds its row segment into the tile's accumulators, so every
    /// cell sums its probes in reading order from 0.0, exactly as a
    /// per-cell loop would, while the tile's cells share each vector
    /// instruction. Pad cells (gain 0.0) compute zeros and are not
    /// written out.
    fn sweep<const JOINT: bool>(&self, s: &mut EstimatorScratch) -> f64 {
        // Probe-vector norms do not depend on the grid point: hoist them.
        let uu_snr: f64 = s.p_snr.iter().map(|v| v * v).sum();
        let uu_rssi: f64 = s.p_rssi.iter().map(|v| v * v).sum();
        let su_snr = uu_snr.sqrt();
        let su_rssi = uu_rssi.sqrt();
        let n_grid = self.grid.len();
        let mut energy_max = 0.0_f64;
        for t0 in (0..n_grid).step_by(TILE) {
            let mut vv = [0.0; TILE];
            let mut uv_snr = [0.0; TILE];
            let mut uv_rssi = [0.0; TILE];
            for ((&row, &ps), &pr) in s.rows.iter().zip(&s.p_snr).zip(&s.p_rssi) {
                let x: &[f64; TILE] = self.gains[row as usize * self.n_pad + t0..][..TILE]
                    .try_into()
                    .expect("rows are padded to whole tiles");
                for l in 0..TILE {
                    vv[l] += x[l] * x[l];
                    uv_snr[l] += ps * x[l];
                    if JOINT {
                        uv_rssi[l] += pr * x[l];
                    }
                }
            }
            let mut sv = [0.0; TILE];
            let mut w = [0.0; TILE];
            for l in 0..TILE {
                sv[l] = vv[l].sqrt();
                let w_snr = if uu_snr <= f64::EPSILON || vv[l] <= f64::EPSILON {
                    0.0
                } else {
                    let c = uv_snr[l] / (su_snr * sv[l]);
                    c * c
                };
                w[l] = if JOINT {
                    let w_rssi = if uu_rssi <= f64::EPSILON || vv[l] <= f64::EPSILON {
                        0.0
                    } else {
                        let c = uv_rssi[l] / (su_rssi * sv[l]);
                        c * c
                    };
                    w_snr * w_rssi
                } else {
                    w_snr
                };
            }
            let len = TILE.min(n_grid - t0);
            s.energy[t0..t0 + len].copy_from_slice(&sv[..len]);
            s.map[t0..t0 + len].copy_from_slice(&w[..len]);
            for &e in &sv[..len] {
                energy_max = energy_max.max(e);
            }
        }
        energy_max
    }

    /// Eq. 3: the direction maximizing the correlation, with its score.
    /// `None` when fewer than two probes carried a measurement.
    ///
    /// Convenience wrapper over [`Self::estimate_with`] backed by a
    /// per-thread scratch, so steady-state calls allocate nothing.
    pub fn estimate(&self, readings: &[SweepReading]) -> Option<(Direction, f64)> {
        THREAD_SCRATCH.with(|s| self.estimate_with(&mut s.borrow_mut(), readings))
    }

    /// Eq. 3 with an explicit scratch (for callers that manage their own
    /// buffers, e.g. the parallel evaluation engine).
    ///
    /// The argmax is refined to sub-cell precision by fitting a parabola
    /// through the winning cell and its azimuth/elevation neighbours — the
    /// numerical equivalent of the paper's "we find the angles … with
    /// maximum correlation numerically" on a continuous surface.
    pub fn estimate_with(
        &self,
        scratch: &mut EstimatorScratch,
        readings: &[SweepReading],
    ) -> Option<(Direction, f64)> {
        self.ctr_estimates.inc();
        // A full span (two clock reads + histogram) only while tracing; the
        // no-sink bill is the counter above and the allocation gauge below.
        let mut span = obs::sink_active().then(|| obs::span!("css.estimate"));
        if let Some(sp) = &mut span {
            sp.field("probes", readings.len() as f64);
            let masked = readings.iter().filter(|r| r.measurement.is_none()).count();
            sp.field("masked", masked as f64);
        }
        self.correlation_into(scratch, readings);
        self.gauge_allocs.set(scratch.grew as i64);
        let map = &scratch.map;
        let (best_i, best_w) = argmax(map);
        if best_w <= 0.0 {
            self.ctr_degenerate.inc();
            return None;
        }
        if let Some(sp) = &mut span {
            sp.field("score", best_w);
            sp.field(
                "argmax_margin",
                argmax_margin(map, best_i, self.grid.az.len(), best_w),
            );
        }
        self.check_residuals(scratch, best_i);
        let coarse = self.grid.direction(best_i);
        if !self.options.subcell_refinement {
            return Some((coarse, best_w));
        }
        let (daz, del) = subcell_offsets_deg(&self.grid, map, best_i);
        if let Some(sp) = &mut span {
            sp.field("refine_daz_deg", daz);
            sp.field("refine_del_deg", del);
        }
        Some((
            Direction::new(coarse.az_deg + daz, coarse.el_deg + del),
            best_w,
        ))
    }

    /// Link-health check on the Eq. 5 fit: with the estimated direction
    /// fixed, the probe vector should match the expected sector gains at
    /// that grid point up to one least-squares scale factor. A probe far
    /// off that fit disagrees with the path model — a strong reflection,
    /// a mislabelled sector, or a corrupted report. O(M) on top of the
    /// O(M·|grid|) correlation, so it runs unconditionally; the anomaly
    /// event itself is only emitted while a sink records.
    fn check_residuals(&self, s: &EstimatorScratch, best_i: usize) {
        let gain = |row: u32| self.gains[row as usize * self.n_pad + best_i];
        let mut gg = 0.0_f64;
        let mut pg = 0.0_f64;
        let mut p_max = 0.0_f64;
        for (&row, &p) in s.rows.iter().zip(&s.p_snr) {
            let g = gain(row);
            gg += g * g;
            pg += p * g;
            p_max = p_max.max(p);
        }
        if gg <= f64::EPSILON || p_max <= f64::EPSILON {
            return;
        }
        let c = pg / gg;
        let mut sum_sq = 0.0_f64;
        for (&row, &p) in s.rows.iter().zip(&s.p_snr) {
            let r = p - c * gain(row);
            sum_sq += r * r;
        }
        let rms = (sum_sq / s.rows.len() as f64).sqrt();
        // The absolute floor keeps quantization wiggle on clean links from
        // tripping the 3-sigma test when rms is tiny.
        let threshold = (3.0 * rms).max(0.15 * p_max);
        let mut outliers = 0usize;
        let mut worst = 0.0_f64;
        for (&row, &p) in s.rows.iter().zip(&s.p_snr) {
            let r = (p - c * gain(row)).abs();
            if r > threshold {
                outliers += 1;
                worst = worst.max(r);
            }
        }
        if outliers > 0 {
            obs::health::anomaly(
                "outlier_residual",
                &[
                    ("outliers", outliers as f64),
                    ("worst_residual", worst),
                    ("rms_residual", rms),
                    ("probes", s.rows.len() as f64),
                ],
            );
        }
    }
}

/// The Eq. 2–5 intermediates of one kernel execution, captured for
/// decision provenance (`obs::decision`): the normalized probe vectors the
/// kernel actually correlated, the top-k cells of the final map, and the
/// energy normalizer of the prior.
///
/// Owned by the caller and refilled in place by
/// [`CompressiveEstimator::estimate_with_closure`], so a caller that
/// keeps one (replay keeps one per worker) pays for its vectors once.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct KernelClosure {
    /// Report-scale SNR probe vector (usable probes, kernel row order).
    pub p_snr: Vec<f64>,
    /// Shifted RSSI probe vector (usable probes, kernel row order).
    pub p_rssi: Vec<f64>,
    /// Grid indices of the top-k final-map cells, best first (ties break
    /// to the lower index, so the order is deterministic).
    pub top_cells: Vec<u64>,
    /// Final map weight (post prior and smoothing) of each top cell.
    pub top_weights: Vec<f64>,
    /// The `max_g ‖x(g)‖` energy normalizer of the prior.
    pub energy_max: f64,
}

impl CompressiveEstimator {
    /// Eq. 3 plus the Eq. 2–5 intermediates of the same kernel run, for a
    /// decision record: one correlation pass over the per-thread scratch
    /// yields the estimate and refills `closure` with the `k` best map
    /// cells. Each closure vector grows to exactly its size the first time
    /// it is too small, so a fresh closure costs its four output vectors
    /// and a warm one nothing. Meant for the sink-gated provenance path
    /// and for replay; the no-sink hot path calls [`Self::estimate`].
    pub fn estimate_with_closure(
        &self,
        readings: &[SweepReading],
        k: usize,
        closure: &mut KernelClosure,
    ) -> Option<(Direction, f64)> {
        THREAD_SCRATCH.with(|s| {
            let s = &mut *s.borrow_mut();
            let estimate = self.estimate_with(s, readings);
            refill(&mut closure.p_snr, &s.p_snr);
            refill(&mut closure.p_rssi, &s.p_rssi);
            top_k(&s.map, k, &mut closure.top_cells, &mut closure.top_weights);
            closure.energy_max = s.energy_max;
            estimate
        })
    }
}

/// Replaces `dst`'s contents with `src`, growing it to exactly `src`'s
/// length if it is too small.
fn refill(dst: &mut Vec<f64>, src: &[f64]) {
    dst.clear();
    dst.reserve_exact(src.len());
    dst.extend_from_slice(src);
}

/// Fills `cells` and `weights` with the `k` best cells of `map`, best
/// first: weight descending, ties to the lower index — the order of a full
/// sort by that comparator, taken in one pass that keeps at most `k`
/// candidates. A cell that makes the cut is moved into place by shifting
/// the lighter kept cells down one, in place.
fn top_k(map: &[f64], k: usize, cells: &mut Vec<u64>, weights: &mut Vec<f64>) {
    let k = k.min(map.len());
    cells.clear();
    weights.clear();
    cells.reserve_exact(k);
    weights.reserve_exact(k);
    for (i, &w) in map.iter().enumerate() {
        let mut at = weights.len();
        if at == k {
            // A tie with the last kept cell loses: that cell's index is lower.
            if k == 0 || w <= weights[k - 1] {
                continue;
            }
            at -= 1;
        } else {
            weights.push(w);
            cells.push(i as u64);
        }
        // Kept cells of equal weight were seen first, so they stay ahead.
        while at > 0 && weights[at - 1] < w {
            weights[at] = weights[at - 1];
            cells[at] = cells[at - 1];
            at -= 1;
        }
        weights[at] = w;
        cells[at] = i as u64;
    }
}

/// Mixes `bytes` into an FNV-1a accumulator.
fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

/// FNV-1a digest of a pattern database: the grid's directions plus every
/// sector's gain table, over exact f64 bits. Stamped on decision records
/// so `talon replay` can detect that its reconstructed patterns differ
/// from the recorded run's before comparing kernel outputs.
pub fn patterns_digest(patterns: &SectorPatterns) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    let grid = patterns.grid();
    fnv1a(&mut h, &(grid.az.len() as u64).to_le_bytes());
    fnv1a(&mut h, &(grid.el.len() as u64).to_le_bytes());
    for (_, d) in grid.iter() {
        fnv1a(&mut h, &d.az_deg.to_bits().to_le_bytes());
        fnv1a(&mut h, &d.el_deg.to_bits().to_le_bytes());
    }
    for id in patterns.sector_ids() {
        fnv1a(&mut h, &[id.raw()]);
        for &db in &patterns.get(id).expect("id comes from the store").gain_db {
            fnv1a(&mut h, &db.to_bits().to_le_bytes());
        }
    }
    h
}

/// How far the winning correlation peak stands above the best cell outside
/// its own 3×3 neighbourhood (trace diagnostics: a small margin means the
/// argmax nearly tipped to a different lobe). Only computed while a trace
/// sink is recording. Single pass, no allocation.
fn argmax_margin(map: &[f64], best_i: usize, n_az: usize, best_w: f64) -> f64 {
    let (b_el, b_az) = (best_i / n_az, best_i % n_az);
    let mut runner_up = 0.0_f64;
    let mut el = 0usize;
    let mut az = 0usize;
    for &w in map {
        if (el.abs_diff(b_el) > 1 || az.abs_diff(b_az) > 1) && w > runner_up {
            runner_up = w;
        }
        az += 1;
        if az == n_az {
            az = 0;
            el += 1;
        }
    }
    best_w - runner_up
}

/// Eq. 3's argmax over a final map: the maximum weight and the highest
/// index attaining it (the tie-break of `Iterator::max_by`). NaN cells
/// never win; an all-NaN map yields `(0, −∞)`, which no caller accepts.
///
/// Two branchless passes: an 8-lane max fold (`max` ignores NaN and is
/// order-insensitive otherwise, so the split chain both vectorizes and
/// breaks the serial `maxsd` dependency), then the last index attaining
/// the maximum.
pub(crate) fn argmax(map: &[f64]) -> (usize, f64) {
    let mut lanes = [f64::NEG_INFINITY; 8];
    let chunks = map.chunks_exact(8);
    let tail = chunks.remainder();
    for c in chunks {
        for (m, &w) in lanes.iter_mut().zip(c) {
            *m = m.max(w);
        }
    }
    let mut best_w = tail.iter().fold(f64::NEG_INFINITY, |m, &w| m.max(w));
    for m in lanes {
        best_w = best_w.max(m);
    }
    let mut best_i = 0usize;
    for (i, &w) in map.iter().enumerate() {
        if w == best_w {
            best_i = i;
        }
    }
    (best_i, best_w)
}

/// Parabolic sub-cell refinement of the winning cell `best_i`: the peak
/// offset along azimuth and elevation, in degrees (at most half a cell;
/// 0 on the grid's edge). The offsets are scale-invariant, so `map` may
/// carry any positive constant factor.
pub(crate) fn subcell_offsets_deg(
    grid: &geom::sphere::SphericalGrid,
    map: &[f64],
    best_i: usize,
) -> (f64, f64) {
    let (n_az, n_el) = (grid.az.len(), grid.el.len());
    let (el_i, az_i) = (best_i / n_az, best_i % n_az);
    let best_w = map[best_i];
    let az_off = if az_i > 0 && az_i + 1 < n_az {
        parabolic_offset(map[best_i - 1], best_w, map[best_i + 1])
    } else {
        0.0
    };
    let el_off = if el_i > 0 && el_i + 1 < n_el {
        parabolic_offset(map[best_i - n_az], best_w, map[best_i + n_az])
    } else {
        0.0
    };
    (az_off * grid.az.step_deg, el_off * grid.el.step_deg)
}

/// Peak offset of the parabola through `(−1, l)`, `(0, c)`, `(+1, r)`,
/// clamped to half a cell. Returns 0 for degenerate (flat) neighbourhoods.
pub(crate) fn parabolic_offset(l: f64, c: f64, r: f64) -> f64 {
    let denom = l - 2.0 * c + r;
    if denom.abs() < 1e-12 {
        return 0.0;
    }
    (0.5 * (l - r) / denom).clamp(-0.5, 0.5)
}

/// The pre-optimization estimator, retained as the golden model for the
/// fused kernel (see `crates/core/tests/golden_kernel.rs`) and as the
/// baseline of the Criterion id `estimate_kernel/reference_m14`.
///
/// This is the original shipped implementation, verbatim minus the obs
/// instrumentation: per-sector `Vec<Vec<f64>>` gain tables, an O(N) sector
/// lookup per reading, a separate energy pass, and per-grid-point masked
/// correlations. Do not "optimize" it — its value is being the slow,
/// obviously-correct reference.
pub mod reference {
    use super::{
        parabolic_offset, report_scale, CorrelationMode, EstimatorOptions, ENERGY_PRIOR_EXPONENT,
    };
    use chamber::SectorPatterns;
    use geom::sphere::Direction;
    use geom::vector::masked_correlation_sq;
    use talon_array::SectorId;
    use talon_channel::SweepReading;

    /// One-cell box smoothing of a correlation map (allocating variant).
    fn smooth_map(map: &[f64], n_az: usize, n_el: usize) -> Vec<f64> {
        let mut out = vec![0.0; map.len()];
        super::smooth_map_into(map, n_az, n_el, &mut out);
        out
    }

    /// The naive reference estimator.
    pub struct ReferenceEstimator {
        /// IDs in pattern-matrix row order.
        ids: Vec<SectorId>,
        /// `gains[s][g]`: report-scale gain of sector row `s` at grid point `g`.
        gains: Vec<Vec<f64>>,
        /// The angular grid shared by all patterns.
        grid: geom::sphere::SphericalGrid,
        /// Correlation mode.
        pub mode: CorrelationMode,
        /// Numerical argmax options.
        pub options: EstimatorOptions,
    }

    impl ReferenceEstimator {
        /// Builds the reference estimator from a measured pattern database.
        pub fn new(patterns: &SectorPatterns, mode: CorrelationMode) -> Self {
            let ids = patterns.sector_ids();
            let grid = patterns.grid().clone();
            let gains = ids
                .iter()
                .map(|id| {
                    patterns
                        .get(*id)
                        .expect("id comes from the store")
                        .gain_db
                        .iter()
                        .map(|&db| report_scale(db))
                        .collect()
                })
                .collect();
            ReferenceEstimator {
                ids,
                gains,
                grid,
                mode,
                options: EstimatorOptions::default(),
            }
        }

        /// Overrides the numerical argmax options (builder style).
        pub fn with_options(mut self, options: EstimatorOptions) -> Self {
            self.options = options;
            self
        }

        /// The original two-pass correlation map.
        pub fn correlation_map(&self, readings: &[SweepReading]) -> Vec<f64> {
            let mut rows: Vec<usize> = Vec::with_capacity(readings.len());
            let mut p_snr: Vec<f64> = Vec::with_capacity(readings.len());
            let mut p_rssi: Vec<f64> = Vec::with_capacity(readings.len());
            let mut mask: Vec<bool> = Vec::with_capacity(readings.len());
            let max_rssi = readings
                .iter()
                .filter_map(|r| r.measurement.map(|m| m.rssi_dbm))
                .fold(f64::NEG_INFINITY, f64::max);
            let max_snr_scaled = readings
                .iter()
                .filter_map(|r| r.measurement.map(|m| report_scale(m.snr_db)))
                .fold(0.0, f64::max);
            let rssi_offset = max_snr_scaled - max_rssi;
            for r in readings {
                let Some(row) = self.ids.iter().position(|&id| id == r.sector) else {
                    continue;
                };
                rows.push(row);
                match r.measurement {
                    Some(m) => {
                        p_snr.push(report_scale(m.snr_db));
                        p_rssi.push((m.rssi_dbm + rssi_offset).max(0.0));
                        mask.push(true);
                    }
                    None => {
                        p_snr.push(0.0);
                        p_rssi.push(0.0);
                        mask.push(false);
                    }
                }
            }
            let n_grid = self.grid.len();
            let mut map = vec![0.0; n_grid];
            if rows.is_empty() || mask.iter().filter(|&&m| m).count() < 2 {
                return map;
            }
            let mut energy = vec![0.0; n_grid];
            let mut energy_max = 0.0_f64;
            for (g, e) in energy.iter_mut().enumerate() {
                let mut acc = 0.0;
                for (k, &row) in rows.iter().enumerate() {
                    if mask[k] {
                        let v = self.gains[row][g];
                        acc += v * v;
                    }
                }
                *e = acc.sqrt();
                energy_max = energy_max.max(*e);
            }
            if energy_max <= f64::EPSILON {
                return map;
            }
            let mut x = vec![0.0; rows.len()];
            for (g, w) in map.iter_mut().enumerate() {
                for (k, &row) in rows.iter().enumerate() {
                    x[k] = self.gains[row][g];
                }
                let w_snr = masked_correlation_sq(&p_snr, &x, &mask);
                let w_corr = match self.mode {
                    CorrelationMode::SnrOnly => w_snr,
                    CorrelationMode::JointSnrRssi => {
                        w_snr * masked_correlation_sq(&p_rssi, &x, &mask)
                    }
                };
                *w = if self.options.energy_prior {
                    w_corr * (energy[g] / energy_max).powf(ENERGY_PRIOR_EXPONENT)
                } else {
                    w_corr
                };
            }
            if self.options.smoothing {
                smooth_map(&map, self.grid.az.len(), self.grid.el.len())
            } else {
                map
            }
        }

        /// The original argmax + sub-cell refinement.
        pub fn estimate(&self, readings: &[SweepReading]) -> Option<(Direction, f64)> {
            let map = self.correlation_map(readings);
            let (best_i, best_w) = map
                .iter()
                .copied()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(&b.1).expect("correlation is finite"))?;
            if best_w <= 0.0 {
                return None;
            }
            let n_az = self.grid.az.len();
            let (el_i, az_i) = (best_i / n_az, best_i % n_az);
            let coarse = self.grid.direction(best_i);
            if !self.options.subcell_refinement {
                return Some((coarse, best_w));
            }
            let az_off = if az_i > 0 && az_i + 1 < n_az {
                parabolic_offset(map[best_i - 1], best_w, map[best_i + 1])
            } else {
                0.0
            };
            let el_off = if el_i > 0 && el_i + 1 < self.grid.el.len() {
                parabolic_offset(map[best_i - n_az], best_w, map[best_i + n_az])
            } else {
                0.0
            };
            Some((
                Direction::new(
                    coarse.az_deg + az_off * self.grid.az.step_deg,
                    coarse.el_deg + el_off * self.grid.el.step_deg,
                ),
                best_w,
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geom::sphere::{GridSpec, SphericalGrid};
    use talon_array::{GainPattern, SectorId};
    use talon_channel::Measurement;

    /// Builds a synthetic pattern store with three Gaussian-lobe sectors
    /// peaking at azimuths −30°, 0° and 30°.
    fn synthetic_store() -> SectorPatterns {
        let grid = SphericalGrid::new(GridSpec::new(-60.0, 60.0, 2.0), GridSpec::fixed(0.0));
        let mut store = SectorPatterns::new(grid.clone());
        for (i, peak) in [(-30.0), 0.0, 30.0].iter().enumerate() {
            let gains: Vec<f64> = grid
                .iter()
                .map(|(_, d)| {
                    let off = d.az_deg - peak;
                    10.0 - off * off / 40.0 // parabolic lobe in dB
                })
                .collect();
            store.insert(
                SectorId(i as u8 + 1),
                GainPattern::from_table(grid.clone(), gains),
            );
        }
        store
    }

    fn reading(sector: u8, snr: f64) -> SweepReading {
        SweepReading {
            sector: SectorId(sector),
            measurement: Some(Measurement {
                snr_db: snr,
                rssi_dbm: snr - 68.0,
            }),
        }
    }

    fn missing(sector: u8) -> SweepReading {
        SweepReading {
            sector: SectorId(sector),
            measurement: None,
        }
    }

    #[test]
    fn estimate_recovers_source_direction() {
        let store = synthetic_store();
        let est = CompressiveEstimator::new(&store, CorrelationMode::SnrOnly);
        // A source at az = +30°: sector 3 reads strongest, sector 1 weakest.
        // Use the true pattern gains as the "readings".
        let truth = Direction::new(30.0, 0.0);
        let readings: Vec<SweepReading> = (1..=3)
            .map(|s| reading(s, store.get(SectorId(s)).unwrap().gain_interp(&truth)))
            .collect();
        let (dir, w) = est.estimate(&readings).unwrap();
        assert!(dir.az_deg > 20.0, "estimated {dir}, score {w}");
        assert!(w > 0.9, "clean readings correlate strongly: {w}");
    }

    #[test]
    fn estimate_interpolates_between_sector_peaks() {
        let store = synthetic_store();
        let est = CompressiveEstimator::new(&store, CorrelationMode::SnrOnly);
        let truth = Direction::new(15.0, 0.0);
        let readings: Vec<SweepReading> = (1..=3)
            .map(|s| reading(s, store.get(SectorId(s)).unwrap().gain_interp(&truth)))
            .collect();
        let (dir, _) = est.estimate(&readings).unwrap();
        assert!(
            (dir.az_deg - 15.0).abs() <= 6.0,
            "between-peak source located: {dir}"
        );
    }

    #[test]
    fn missing_measurements_are_masked_not_zeroed() {
        let store = synthetic_store();
        let est = CompressiveEstimator::new(&store, CorrelationMode::SnrOnly);
        let truth = Direction::new(-30.0, 0.0);
        // Sector 3's reading is missing; the estimate must still be close
        // to -30° instead of being dragged by a bogus zero.
        let readings = vec![
            reading(1, store.get(SectorId(1)).unwrap().gain_interp(&truth)),
            reading(2, store.get(SectorId(2)).unwrap().gain_interp(&truth)),
            missing(3),
        ];
        let (dir, _) = est.estimate(&readings).unwrap();
        assert!((dir.az_deg - -30.0).abs() < 10.0, "estimated {dir}");
    }

    #[test]
    fn masked_readings_equal_never_probed_sectors() {
        // A sector that reported nothing must contribute exactly as much
        // as one that was never probed at all: nothing. The mask drops the
        // row from the correlation (Eq. 5); it must not leak a zero.
        let store = synthetic_store();
        let truth = Direction::new(20.0, 0.0);
        for mode in [CorrelationMode::SnrOnly, CorrelationMode::JointSnrRssi] {
            let est = CompressiveEstimator::new(&store, mode);
            let with_masked = vec![
                reading(1, store.get(SectorId(1)).unwrap().gain_interp(&truth)),
                missing(2),
                reading(3, store.get(SectorId(3)).unwrap().gain_interp(&truth)),
            ];
            let never_probed: Vec<SweepReading> = with_masked
                .iter()
                .filter(|r| r.measurement.is_some())
                .copied()
                .collect();
            let a = est.estimate(&with_masked);
            let b = est.estimate(&never_probed);
            assert_eq!(a, b, "mode {mode:?}: masked {a:?} vs absent {b:?}");
        }
    }

    #[test]
    fn too_few_measurements_yield_none() {
        let store = synthetic_store();
        let est = CompressiveEstimator::new(&store, CorrelationMode::SnrOnly);
        assert!(est.estimate(&[]).is_none());
        assert!(est.estimate(&[missing(1), missing(2)]).is_none());
        assert!(est.estimate(&[reading(1, 5.0), missing(2)]).is_none());
    }

    #[test]
    fn unknown_sectors_in_readings_are_ignored() {
        let store = synthetic_store();
        let est = CompressiveEstimator::new(&store, CorrelationMode::SnrOnly);
        let truth = Direction::new(0.0, 0.0);
        let mut readings: Vec<SweepReading> = (1..=3)
            .map(|s| reading(s, store.get(SectorId(s)).unwrap().gain_interp(&truth)))
            .collect();
        readings.push(reading(55, 11.0)); // no measured pattern for 55
        let (dir, _) = est.estimate(&readings).unwrap();
        assert!(dir.az_deg.abs() < 6.0, "estimated {dir}");
    }

    #[test]
    fn joint_mode_tolerates_an_snr_outlier() {
        let store = synthetic_store();
        let truth = Direction::new(-30.0, 0.0);
        let clean: Vec<f64> = (1..=3)
            .map(|s| store.get(SectorId(s)).unwrap().gain_interp(&truth))
            .collect();
        // SNR of sector 3 is an outlier (+9 dB); RSSI stays clean.
        let readings: Vec<SweepReading> = (0..3)
            .map(|i| SweepReading {
                sector: SectorId(i as u8 + 1),
                measurement: Some(Measurement {
                    snr_db: clean[i] + if i == 2 { 9.0 } else { 0.0 },
                    rssi_dbm: clean[i] - 68.0,
                }),
            })
            .collect();
        let snr_only = CompressiveEstimator::new(&store, CorrelationMode::SnrOnly);
        let joint = CompressiveEstimator::new(&store, CorrelationMode::JointSnrRssi);
        let (d_snr, _) = snr_only.estimate(&readings).unwrap();
        let (d_joint, _) = joint.estimate(&readings).unwrap();
        let err_snr = (d_snr.az_deg - -30.0).abs();
        let err_joint = (d_joint.az_deg - -30.0).abs();
        assert!(
            err_joint <= err_snr + 0.5,
            "joint ({err_joint}°) at least as good as SNR-only ({err_snr}°), within refinement jitter"
        );
    }

    #[test]
    fn parabolic_refinement_recovers_off_grid_peaks() {
        // Pure function check.
        assert_eq!(super::parabolic_offset(1.0, 2.0, 1.0), 0.0);
        assert!(
            super::parabolic_offset(1.0, 2.0, 1.8) > 0.0,
            "peak leans right"
        );
        assert!(
            super::parabolic_offset(1.8, 2.0, 1.0) < 0.0,
            "peak leans left"
        );
        assert_eq!(
            super::parabolic_offset(1.0, 1.0, 1.0),
            0.0,
            "flat is degenerate"
        );
        // Offsets never exceed half a cell.
        assert_eq!(super::parabolic_offset(0.0, 1.0, 1.0), 0.5);

        // End-to-end: a source between grid points is located off-grid.
        let store = synthetic_store(); // 2° azimuth grid
        let est = CompressiveEstimator::new(&store, CorrelationMode::SnrOnly);
        let truth = Direction::new(14.7, 0.0);
        let readings: Vec<SweepReading> = (1..=3)
            .map(|s| reading(s, store.get(SectorId(s)).unwrap().gain_interp(&truth)))
            .collect();
        let (dir, _) = est.estimate(&readings).unwrap();
        let on_grid = (dir.az_deg / 2.0).fract().abs();
        // The estimate is allowed to land off the 2° lattice…
        assert!((dir.az_deg - 14.7).abs() < 4.0, "refined estimate {dir}");
        // …and it must at least not be snapped away from the truth side.
        assert!(
            dir.az_deg > 10.0,
            "estimate on the correct side: {dir} ({on_grid})"
        );
    }

    #[test]
    fn options_toggle_the_numerics() {
        let store = synthetic_store();
        let truth = Direction::new(15.0, 0.0);
        let readings: Vec<SweepReading> = (1..=3)
            .map(|s| reading(s, store.get(SectorId(s)).unwrap().gain_interp(&truth)))
            .collect();
        let bare = CompressiveEstimator::new(&store, CorrelationMode::SnrOnly).with_options(
            EstimatorOptions {
                energy_prior: false,
                smoothing: false,
                subcell_refinement: false,
            },
        );
        let full = CompressiveEstimator::new(&store, CorrelationMode::SnrOnly);
        // Without refinement the estimate snaps to the 2° lattice.
        let (d_bare, _) = bare.estimate(&readings).unwrap();
        assert!(
            (d_bare.az_deg / 2.0).fract().abs() < 1e-9,
            "on-grid: {d_bare}"
        );
        // Both land near the truth on this clean input.
        let (d_full, _) = full.estimate(&readings).unwrap();
        assert!((d_full.az_deg - 15.0).abs() < 4.0);
        assert!((d_bare.az_deg - 15.0).abs() < 4.0);
    }

    #[test]
    fn correlation_map_has_grid_size_and_bounds() {
        let store = synthetic_store();
        let est = CompressiveEstimator::new(&store, CorrelationMode::JointSnrRssi);
        let readings = vec![reading(1, 3.0), reading(2, 6.0), reading(3, 1.0)];
        let map = est.correlation_map(&readings);
        assert_eq!(map.len(), est.grid().len());
        assert!(map.iter().all(|&w| (0.0..=1.0 + 1e-9).contains(&w)));
    }

    #[test]
    fn scratch_reaches_zero_allocations() {
        let store = synthetic_store();
        let est = CompressiveEstimator::new(&store, CorrelationMode::JointSnrRssi);
        let readings = vec![reading(1, 3.0), reading(2, 6.0), reading(3, 1.0)];
        let mut scratch = EstimatorScratch::new();
        est.estimate_with(&mut scratch, &readings).unwrap();
        assert!(scratch.last_allocations() > 0, "cold scratch allocates");
        for _ in 0..3 {
            est.estimate_with(&mut scratch, &readings).unwrap();
            assert_eq!(
                scratch.last_allocations(),
                0,
                "steady-state estimate allocates nothing"
            );
        }
    }

    /// The closure by brute force: a fresh scratch, its own correlation
    /// pass and a full sort of every cell. The oracle the one-pass
    /// [`CompressiveEstimator::estimate_with_closure`] must match bit for
    /// bit.
    fn sorted_closure(
        est: &CompressiveEstimator,
        readings: &[SweepReading],
        k: usize,
    ) -> KernelClosure {
        let mut s = EstimatorScratch::new();
        est.correlation_into(&mut s, readings);
        let energy_max = s.energy.iter().copied().fold(0.0, f64::max);
        let mut order: Vec<usize> = (0..s.map.len()).collect();
        order.sort_by(|&a, &b| {
            s.map[b]
                .partial_cmp(&s.map[a])
                .expect("correlation is finite")
                .then(a.cmp(&b))
        });
        order.truncate(k);
        KernelClosure {
            top_cells: order.iter().map(|&i| i as u64).collect(),
            top_weights: order.iter().map(|&i| s.map[i]).collect(),
            p_snr: s.p_snr,
            p_rssi: s.p_rssi,
            energy_max,
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn assert_closures_identical(a: &KernelClosure, b: &KernelClosure, ctx: &str) {
        assert_eq!(bits(&a.p_snr), bits(&b.p_snr), "{ctx}: p_snr");
        assert_eq!(bits(&a.p_rssi), bits(&b.p_rssi), "{ctx}: p_rssi");
        assert_eq!(a.top_cells, b.top_cells, "{ctx}: top_cells");
        assert_eq!(
            bits(&a.top_weights),
            bits(&b.top_weights),
            "{ctx}: top_weights"
        );
        assert_eq!(
            a.energy_max.to_bits(),
            b.energy_max.to_bits(),
            "{ctx}: energy_max"
        );
    }

    /// Random 2-D store: whole-dB gains straddling the report floor, so
    /// the map has dark (exactly zero) regions and tied cells.
    fn random_store(rng: &mut rand::rngs::StdRng) -> SectorPatterns {
        use rand::Rng;
        let grid = SphericalGrid::new(
            GridSpec::new(-60.0, 60.0, [4.0, 7.5][rng.gen_range(0..2usize)]),
            GridSpec::new(0.0, 30.0, 10.0),
        );
        let mut store = SectorPatterns::new(grid.clone());
        for s in 1..=rng.gen_range(3..=12u8) {
            let gains: Vec<f64> = (0..grid.len())
                .map(|_| f64::from(rng.gen_range(-30..15i32)))
                .collect();
            store.insert(SectorId(s), GainPattern::from_table(grid.clone(), gains));
        }
        store
    }

    fn random_readings(rng: &mut rand::rngs::StdRng, store: &SectorPatterns) -> Vec<SweepReading> {
        use rand::Rng;
        let mut readings = Vec::new();
        for id in store.sector_ids() {
            if rng.gen_bool(0.3) {
                continue; // not probed
            }
            if rng.gen_bool(0.2) {
                readings.push(missing(id.raw()));
                continue;
            }
            let snr = f64::from(rng.gen_range(-28..100i32)) * 0.25;
            readings.push(SweepReading {
                sector: id,
                measurement: Some(Measurement {
                    snr_db: snr,
                    rssi_dbm: snr - 65.0 + rng.gen_range(-3.0..3.0),
                }),
            });
        }
        readings
    }

    #[test]
    fn closure_matches_the_sorted_oracle_over_randomized_readings() {
        use rand::Rng;
        let mut rng = geom::rng::sub_rng(16, "closure-oracle");
        let mut closure = KernelClosure::default();
        for case in 0..120 {
            let store = random_store(&mut rng);
            let n_grid = store.grid().len();
            for mode in [CorrelationMode::SnrOnly, CorrelationMode::JointSnrRssi] {
                for (energy_prior, smoothing) in
                    [(true, true), (false, true), (true, false), (false, false)]
                {
                    let est =
                        CompressiveEstimator::new(&store, mode).with_options(EstimatorOptions {
                            energy_prior,
                            smoothing,
                            ..EstimatorOptions::default()
                        });
                    let readings = random_readings(&mut rng, &store);
                    let k = [0, 1, 8, n_grid - 1, n_grid, n_grid + 5][rng.gen_range(0..6usize)];
                    let ctx = format!(
                        "case {case} {mode:?} prior={energy_prior} smooth={smoothing} k={k}"
                    );
                    // One closure refilled across every case, as replay's
                    // workers reuse theirs.
                    let estimate = est.estimate_with_closure(&readings, k, &mut closure);
                    assert_eq!(estimate, est.estimate(&readings), "{ctx}: estimate");
                    assert_eq!(closure.top_cells.len(), k.min(n_grid), "{ctx}");
                    assert_closures_identical(&closure, &sorted_closure(&est, &readings, k), &ctx);
                }
            }
        }
    }

    #[test]
    fn closure_edge_cases_match_the_sorted_oracle() {
        let store = synthetic_store();
        let n_grid = store.grid().len();
        let est = CompressiveEstimator::new(&store, CorrelationMode::JointSnrRssi);
        let full = vec![reading(1, 3.0), reading(2, 6.0), reading(3, 1.0)];
        let degenerate = vec![reading(1, 3.0), missing(2)];
        for k in [0, 5, n_grid, n_grid + 1, usize::MAX] {
            let mut closure = KernelClosure::default();
            est.estimate_with_closure(&full, k, &mut closure);
            assert_eq!(closure.top_cells.len(), k.min(n_grid));
            assert_closures_identical(&closure, &sorted_closure(&est, &full, k), &format!("k={k}"));
        }
        // A degenerate sweep right after a full one on the same thread:
        // the scratch's energy buffer still holds the full sweep's values,
        // but the closure reports no energy and an all-zero map whose ties
        // resolve to the lowest cells.
        let mut closure = KernelClosure::default();
        est.estimate_with_closure(&full, 8, &mut closure);
        assert!(closure.energy_max > 0.0);
        let estimate = est.estimate_with_closure(&degenerate, 8, &mut closure);
        assert_eq!(estimate, None);
        assert_eq!(closure.energy_max, 0.0);
        assert_eq!(closure.top_cells, (0..8).collect::<Vec<u64>>());
        assert_eq!(closure.top_weights, vec![0.0; 8]);
        assert_closures_identical(
            &closure,
            &sorted_closure(&est, &degenerate, 8),
            "degenerate",
        );
    }

    #[test]
    fn estimate_with_closure_matches_the_map_argmax() {
        let store = synthetic_store();
        let est = CompressiveEstimator::new(&store, CorrelationMode::JointSnrRssi);
        let readings = vec![reading(1, 3.0), reading(2, 6.0), reading(3, 1.0)];
        let mut closure = KernelClosure::default();
        let estimate = est.estimate_with_closure(&readings, 5, &mut closure);
        let map = est.correlation_map(&readings);
        let (best_i, best_w) = map
            .iter()
            .copied()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
            .unwrap();
        assert_eq!(estimate.map(|(_, score)| score), Some(best_w));
        assert_eq!(closure.top_cells.len(), 5);
        assert_eq!(closure.top_cells[0], best_i as u64);
        assert_eq!(closure.top_weights[0], best_w);
        // Weights are sorted descending and come straight from the map.
        for pair in closure.top_weights.windows(2) {
            assert!(pair[0] >= pair[1]);
        }
        for (&c, &w) in closure.top_cells.iter().zip(&closure.top_weights) {
            assert_eq!(map[c as usize], w);
        }
        assert_eq!(closure.p_snr.len(), 3);
        assert_eq!(closure.p_rssi.len(), 3);
        assert!(closure.energy_max > 0.0);
    }

    #[test]
    fn patterns_digest_is_stable_and_sensitive() {
        let store = synthetic_store();
        let a = patterns_digest(&store);
        let b = patterns_digest(&store);
        assert_eq!(a, b, "digest is deterministic");
        let mut perturbed = synthetic_store();
        let grid = perturbed.grid().clone();
        let mut gains = perturbed.get(SectorId(1)).unwrap().gain_db.clone();
        gains[0] += 1e-9;
        perturbed.insert(SectorId(1), GainPattern::from_table(grid, gains));
        assert_ne!(
            a,
            patterns_digest(&perturbed),
            "a 1e-9 gain change flips the digest"
        );
    }

    #[test]
    fn scratch_adapts_across_grid_sizes() {
        // A shared scratch (like the thread-local behind `estimate`) must
        // stay correct when estimators with different grids interleave.
        let coarse = synthetic_store();
        let fine_grid = SphericalGrid::new(
            GridSpec::new(-60.0, 60.0, 1.0),
            GridSpec::new(0.0, 10.0, 5.0),
        );
        let fine = coarse.resample(&fine_grid);
        let est_c = CompressiveEstimator::new(&coarse, CorrelationMode::SnrOnly);
        let est_f = CompressiveEstimator::new(&fine, CorrelationMode::SnrOnly);
        let truth = Direction::new(30.0, 0.0);
        let readings: Vec<SweepReading> = (1..=3)
            .map(|s| reading(s, coarse.get(SectorId(s)).unwrap().gain_interp(&truth)))
            .collect();
        let mut scratch = EstimatorScratch::new();
        let (a1, _) = est_c.estimate_with(&mut scratch, &readings).unwrap();
        let (b1, _) = est_f.estimate_with(&mut scratch, &readings).unwrap();
        let (a2, _) = est_c.estimate_with(&mut scratch, &readings).unwrap();
        let (b2, _) = est_f.estimate_with(&mut scratch, &readings).unwrap();
        assert_eq!(a1, a2, "coarse estimate independent of scratch history");
        assert_eq!(b1, b2, "fine estimate independent of scratch history");
    }
}
