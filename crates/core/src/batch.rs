//! GEMM-shaped batched estimation: B concurrent links against one sweep
//! of the grid-major gains matrix.
//!
//! The fused scalar kernel ([`crate::estimator`]) streams the whole
//! `grid × sectors` gain matrix once **per link**. A multi-link daemon
//! serving thousands of stations re-reads the same matrix thousands of
//! times per scheduling epoch — pure memory traffic. This module amortizes
//! the traversal: the probe vectors of `B` links are packed into
//! sector-major **panels** (`panel[s * B + b]` = link `b`'s reading for
//! sector row `s`), and one sweep over the grid computes, per grid point
//! `g`, the correlation inputs of all `B` links at once — the classic
//! `(grid × sectors) · (sectors × B)` GEMM shape:
//!
//! ```text
//! uv[g][b] = Σ_s gains[g·S + s] · panel[s·B + b]        (probe·pattern)
//! vv[g][b] = Σ_s gains[g·S + s]² · mask[s·B + b]        (pattern energy)
//! ```
//!
//! The gain matrix is stored **sparsely**: the −7 dB report-floor clip
//! ([`report_scale`]) zeroes every gain a sector does not actually cast
//! toward a grid point, and a zero gain contributes exactly `+0.0` (or
//! integer `0`) to every accumulator — all terms are non-negative, so no
//! `-0.0` can arise and skipping the zeros is bit-identical to summing
//! them. Each grid point therefore carries only its *lit* `(row, gain)`
//! pairs (CSR-style), which on directional codebooks cuts the inner-loop
//! trip count severalfold below the sector count.
//!
//! The per-link mask panel carries *how many* readings landed on a sector
//! row (0 for unprobed/masked), so each link's expected-energy norm `‖x‖²`
//! counts exactly the sectors that link probed. Each output column depends
//! only on its own link's panel column, which makes every per-link result
//! **independent of the batch composition** — the property the
//! deterministic parallel engine ([`eval::engine`]) relies on: however
//! units are grouped into batches or batches onto threads, link `b`'s
//! numbers never change.
//!
//! # Precision paths
//!
//! [`KernelPath`] selects the arithmetic (see DESIGN.md for the tolerance
//! policy):
//!
//! * `F64` — exact: matches the scalar fused kernel to ≤ 1e-12.
//! * `F32` — f32 gains/panels with one f32 accumulator per link lane.
//!   Per-link sums run in ascending sector order *regardless of lane
//!   width*, so the 1-, 4- and 8-lane kernels are bit-identical.
//!
//! The correlation `w = ⟨p,x⟩² / (‖p‖²‖x‖²)` is computed from the raw
//! accumulators without square roots; the final per-link pass (energy
//! prior, smoothing, argmax, parabolic refinement) always runs in f64.

use crate::estimator::{
    parabolic_offset, report_scale, smooth_map_into, smooth_map_into_mul, CompressiveEstimator,
    CorrelationMode, EstimatorOptions,
};
use chamber::SectorPatterns;
use geom::sphere::Direction;
use talon_channel::SweepReading;

/// Arithmetic path of the batched kernel.
///
/// `F64` is the exact path every golden test pins. `F32` trades precision
/// the quarter-dB-quantized, `[−7, 12]` dB-clamped firmware reports never
/// had for throughput at batch sizes ≥ 16. Live decisions and replay
/// always run the exact scalar kernel ([`CompressiveEstimator`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelPath {
    /// Exact f64 arithmetic (the reference-pinned default).
    F64,
    /// f32 gains and probe panels, f32 accumulation, f64 argmax pass.
    F32,
}

/// One panel element type, which is also its accumulator and the float
/// width of the per-cell correlation/prior arithmetic. The exact `F64`
/// path computes in f64; the `F32` path in f32, whose divide/sqrt run at
/// twice the SIMD width — well inside its documented agreement gate
/// (≤ 1e-4 same-cell score error), and still deterministic on every
/// platform (plain IEEE ops, no contraction).
trait PanelElem:
    Copy
    + PartialOrd
    + std::ops::Add<Output = Self>
    + std::ops::AddAssign
    + std::ops::Mul<Output = Self>
    + std::ops::Div<Output = Self>
{
    const ZERO: Self;
    const ONE: Self;
    const EPS: Self;
    fn from_f64(v: f64) -> Self;
    fn to_f64(self) -> f64;
    fn sqrt(self) -> Self;
    fn max(self, other: Self) -> Self;
}

impl PanelElem for f64 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    const EPS: Self = f64::EPSILON;
    fn from_f64(v: f64) -> Self {
        v
    }
    fn to_f64(self) -> f64 {
        self
    }
    fn sqrt(self) -> Self {
        f64::sqrt(self)
    }
    fn max(self, other: Self) -> Self {
        f64::max(self, other)
    }
}

impl PanelElem for f32 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    const EPS: Self = f32::EPSILON;
    fn from_f64(v: f64) -> Self {
        v as f32
    }
    fn to_f64(self) -> f64 {
        f64::from(self)
    }
    fn sqrt(self) -> Self {
        f32::sqrt(self)
    }
    fn max(self, other: Self) -> Self {
        f32::max(self, other)
    }
}

/// The wide-lane inner kernel: one grid point against `L` adjacent link
/// lanes. `vals`/`rows` are the grid point's lit `(gain, sector-row)`
/// pairs from the sparse matrix. `L` accumulators live in registers; the
/// per-lane sum order is ascending sector row for every `L`, so lane
/// width never changes a link's result. Written as plain indexed loops
/// over `[T; L]`-shaped slices — the autovectorizer turns the lane loop
/// into SIMD without any `std::arch` (this crate forbids `unsafe`).
#[inline]
fn gemm_point<T: PanelElem, const L: usize>(
    vals: &[T],
    rows: &[u16],
    pnl: &[T],
    b0: usize,
    stride: usize,
    joint: bool,
) -> ([T; L], [T; L], [T; L]) {
    let mut uvs = [T::ZERO; L];
    let mut uvr = [T::ZERO; L];
    let mut vv = [T::ZERO; L];
    // Safe bounds-check elimination: the row index comes from data, so
    // the optimizer cannot hoist the slice checks out of the loop — at
    // one compare-and-branch per plane per row they cost more than the
    // arithmetic. Clamping the row into the provable range (a single
    // `min` that never binds: build-time rows are < n_rows by
    // construction) plus these loop-invariant asserts lets LLVM prove
    // every access in-bounds once, leaving the hot loop branch-free.
    // The three planes of one row are adjacent in the interleaved panel
    // (probe | shifted-RSSI | mask, `stride` apart), so a row touches
    // one contiguous run the prefetcher can follow.
    let n_rows = pnl.len() / (3 * stride);
    assert!(b0 + L <= stride && pnl.len() == 3 * stride * n_rows && n_rows > 0);
    for (&x, &row) in vals.iter().zip(rows) {
        let x2 = x * x;
        let base = (row as usize).min(n_rows - 1) * (3 * stride);
        let c = &pnl[base..base + 3 * stride];
        let p = &c[b0..b0 + L];
        let m = &c[2 * stride + b0..2 * stride + b0 + L];
        for l in 0..L {
            uvs[l] += x * p[l];
            vv[l] += x2 * m[l];
        }
        if joint {
            let q = &c[stride + b0..stride + b0 + L];
            for l in 0..L {
                uvr[l] += x * q[l];
            }
        }
    }
    (uvs, uvr, vv)
}

/// Widest lane kernel applicable to `rem` remaining links (16 → 8 → 4
/// → 1), or the forced width while it fits (test/bench cross-check
/// knob). Lane width never changes a link's bits (each lane's sums are
/// independent), so widening is purely a throughput knob.
fn lane_width(rem: usize, forced: Option<usize>) -> usize {
    match forced {
        Some(16) if rem >= 16 => 16,
        Some(8) if rem >= 8 => 8,
        Some(4) if rem >= 4 => 4,
        Some(_) => 1,
        None if rem >= 16 => 16,
        None if rem >= 8 => 8,
        None if rem >= 4 => 4,
        None => 1,
    }
}

/// Sweeps the panel against the whole grid for every link, writing the
/// correlation `w` (prior-tilted when `prior` is set) of every (cell,
/// link) pair link-major at `maps[b * n_grid + g]` and each link's
/// maximum pattern energy `max_g ‖x_g‖²` into `vv_max` (cells ascending —
/// the same fold order, hence the same bits, as a scan over a
/// materialized energy row would produce).
///
/// Three flop-count tricks, all argmax-preserving:
///
/// * the joint-mode correlation is computed with a **single division**,
///   `w = uvs²·uvr² / vv²`, instead of one guarded division per metric;
/// * the per-link probe-norm factor `inv_u = 1/(uu_snr·uu_rssi)` is a
///   positive constant across cells, so it is **deferred** out of the
///   sweep entirely and folded into the winning score in the finish
///   stage (a degenerate probe norm means the scalar kernel's map is
///   identically zero — the finish returns `None` for such links before
///   ever looking at the map, so the deferral cannot change outcomes);
/// * the energy prior is fused in as the **unnormalized** tilt
///   `w · vv^{1/8}`; the per-link constant `vv_max^{-1/8}` joins `inv_u`
///   in the deferred score factor.
///
/// A positive constant scale cannot move the argmax, the 3×3 smoothing
/// average's ordering, or the scale-invariant parabolic sub-cell offset,
/// so only the reported score needs the deferred factors.
#[allow(clippy::too_many_arguments)]
fn sweep_panel<T: PanelElem>(
    nz_vals: &[T],
    nz_rows: &[u16],
    nz_off: &[u32],
    joint: bool,
    prior: bool,
    pnl: &[T],
    bt: usize,
    forced: Option<usize>,
    maps: &mut [f64],
    vv_max: &mut [f64],
) {
    /// One (cell, lane-group) tail. The running energy max folds in `T`
    /// width into the caller's per-lane-group accumulator — bit-equal to
    /// an f64 fold (the f32→f64 conversion is exact and `max` commutes
    /// with it).
    /// Monomorphized over mode and prior so the per-lane loop is
    /// branch-free: the dark-cell guard selects the *denominator* (1 for
    /// dark cells, whose numerator is exactly 0 — no probed sector is
    /// lit, so `uvs = 0` whenever `vv = 0`), which keeps the division
    /// exception-free and lets the whole div/sqrt chain pack into SIMD
    /// lanes instead of predicting a branch per link.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    fn emit<T: PanelElem, const L: usize, const JOINT: bool, const PRIOR: bool>(
        vals: &[T],
        rows: &[u16],
        pnl: &[T],
        b0: usize,
        bt: usize,
        g: usize,
        n_grid: usize,
        maps: &mut [f64],
        vvm: &mut [T],
    ) {
        let (uvs, uvr, vv) = gemm_point::<T, L>(vals, rows, pnl, b0, bt, JOINT);
        let mut w = [T::ZERO; L];
        for l in 0..L {
            let dark = vv[l] <= T::EPS;
            let num = if JOINT {
                (uvs[l] * uvs[l]) * (uvr[l] * uvr[l])
            } else {
                uvs[l] * uvs[l]
            };
            let den = if JOINT { vv[l] * vv[l] } else { vv[l] };
            let den = if dark { T::ONE } else { den };
            let quot = num / den;
            let quot = if dark { T::ZERO } else { quot };
            w[l] = if PRIOR {
                quot * vv[l].sqrt().sqrt().sqrt()
            } else {
                quot
            };
            vvm[l] = vvm[l].max(vv[l]);
        }
        for l in 0..L {
            maps[(b0 + l) * n_grid + g] = w[l].to_f64();
        }
    }
    fn run<T: PanelElem, const JOINT: bool, const PRIOR: bool>(
        nz_vals: &[T],
        nz_rows: &[u16],
        nz_off: &[u32],
        pnl: &[T],
        bt: usize,
        forced: Option<usize>,
        maps: &mut [f64],
        vvm: &mut [T],
    ) {
        let n_grid = nz_off.len() - 1;
        for g in 0..n_grid {
            let (lo, hi) = (nz_off[g] as usize, nz_off[g + 1] as usize);
            let (vals, rows) = (&nz_vals[lo..hi], &nz_rows[lo..hi]);
            let mut b0 = 0;
            while b0 < bt {
                let lanes = lane_width(bt - b0, forced);
                let vvm = &mut vvm[b0..b0 + lanes];
                match lanes {
                    16 => {
                        emit::<T, 16, JOINT, PRIOR>(vals, rows, pnl, b0, bt, g, n_grid, maps, vvm)
                    }
                    8 => emit::<T, 8, JOINT, PRIOR>(vals, rows, pnl, b0, bt, g, n_grid, maps, vvm),
                    4 => emit::<T, 4, JOINT, PRIOR>(vals, rows, pnl, b0, bt, g, n_grid, maps, vvm),
                    _ => emit::<T, 1, JOINT, PRIOR>(vals, rows, pnl, b0, bt, g, n_grid, maps, vvm),
                }
                b0 += lanes;
            }
        }
    }
    let mut vvm = vec![T::ZERO; bt];
    let run = match (joint, prior) {
        (true, true) => run::<T, true, true>,
        (true, false) => run::<T, true, false>,
        (false, true) => run::<T, false, true>,
        (false, false) => run::<T, false, false>,
    };
    run(nz_vals, nz_rows, nz_off, pnl, bt, forced, maps, &mut vvm);
    // Merge the lane-group folds into the per-link maxima (the f64
    // conversion is exact for every `T`, and `max(0, x) = x` for the
    // non-negative energies, so this matches a per-cell f64 fold).
    for (v, m) in vv_max.iter_mut().zip(&vvm) {
        *v = v.max(m.to_f64());
    }
}

/// One link's estimate out of a batched sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkEstimate {
    /// Estimated angle of arrival (sub-cell refined when enabled).
    pub direction: Direction,
    /// Final map weight of the winning cell (post prior and smoothing).
    pub score: f64,
    /// Winning grid cell (pre-refinement argmax).
    pub cell: usize,
}

/// Reusable buffers of [`BatchEstimator::estimate_batch_into`]: probe
/// panels for each precision, per-link norms and per-link correlation
/// maps. A warm scratch allocates nothing but the sweep's per-link energy
/// fold.
#[derive(Debug, Default)]
pub struct BatchScratch {
    // Sector-major interleaved panels (probe | shifted-RSSI | mask
    // planes per row, `bt` apart), one per precision path; only the
    // active path's panel is touched.
    pnl64: Vec<f64>,
    pnl32: Vec<f32>,
    /// Per-link reciprocal probe-norm product `1/(uu_snr·uu_rssi)` (or
    /// `1/uu_snr` in SNR-only mode), promoted to f64; exactly 0.0 for
    /// degenerate links, which zeroes every correlation like the scalar
    /// kernel's ε-guards.
    inv_u: Vec<f64>,
    /// Per-link usable (pattern-matched, unmasked) reading count.
    usable: Vec<u32>,
    /// Link-major correlation maps (`maps[b * n_grid + g]`).
    maps: Vec<f64>,
    /// Per-link maximum pattern energy `max_g ‖x_g‖²`, folded inside the
    /// sweep.
    vv_max: Vec<f64>,
    /// Per-link smoothing output (one grid).
    smoothed: Vec<f64>,
}

impl BatchScratch {
    /// Fresh, empty scratch (the first batch through it allocates).
    pub fn new() -> Self {
        BatchScratch::default()
    }
}

/// The batched multi-link estimator: the scalar estimator's grid-major
/// pattern matrix, pre-expanded once into both precision paths.
pub struct BatchEstimator {
    /// Sector rows of the lit `(gain, row)` pairs per grid point, CSR
    /// concatenated in ascending row order (the report-floor clip makes
    /// the scalar kernel's grid-major matrix sparse; zeros contribute
    /// nothing, so they are dropped at build time — see the module docs).
    nz_rows: Vec<u16>,
    /// `n_grid + 1` prefix offsets into the `nz_*` arrays.
    nz_off: Vec<u32>,
    /// f64 report-scale values of the lit pairs.
    nzv64: Vec<f64>,
    /// The same values narrowed to f32.
    nzv32: Vec<f32>,
    /// Sector rows of the (logical) matrix — the panel minor dimension.
    n_sectors: usize,
    /// O(1) sector-id → matrix-row table (`u16::MAX` = no pattern).
    row_of: [u16; 256],
    /// The angular grid shared by all patterns.
    grid: geom::sphere::SphericalGrid,
    /// Correlation mode.
    mode: CorrelationMode,
    /// Numerical argmax options.
    options: EstimatorOptions,
    /// Arithmetic of the sweep.
    path: KernelPath,
    /// Forced lane width (None = widest applicable); test/bench knob.
    forced_lanes: Option<usize>,
    /// Cached metric handles.
    ctr_links: std::sync::Arc<obs::Counter>,
    ctr_sweeps: std::sync::Arc<obs::Counter>,
}

impl BatchEstimator {
    /// Builds a batched estimator from a measured pattern database, with
    /// the scalar estimator's pattern matrix, on kernel path `path`.
    pub fn new(
        patterns: &SectorPatterns,
        mode: CorrelationMode,
        options: EstimatorOptions,
        path: KernelPath,
    ) -> Self {
        let est = CompressiveEstimator::new(patterns, mode);
        let n_grid = est.grid().len();
        let n_s = est.n_sectors;
        let mut nz_rows = Vec::new();
        let mut nzv64 = Vec::new();
        let mut nz_off = Vec::with_capacity(n_grid + 1);
        nz_off.push(0u32);
        for g in 0..n_grid {
            for (s, &x) in est.gains[g * n_s..(g + 1) * n_s].iter().enumerate() {
                if x != 0.0 {
                    nz_rows.push(s as u16);
                    nzv64.push(x);
                }
            }
            nz_off.push(nz_rows.len() as u32);
        }
        let nzv32: Vec<f32> = nzv64.iter().map(|&g| g as f32).collect();
        BatchEstimator {
            nz_rows,
            nz_off,
            nzv64,
            nzv32,
            n_sectors: n_s,
            row_of: est.row_of,
            grid: est.grid().clone(),
            mode,
            options,
            path,
            forced_lanes: None,
            ctr_links: obs::counter("css.batch_estimates"),
            ctr_sweeps: obs::counter("css.batch_sweeps"),
        }
    }

    /// Forces a fixed inner-kernel lane width (1, 4 or 8); `None` restores
    /// runtime selection. Lane width never changes any result — this knob
    /// exists so tests and benches can prove exactly that.
    pub fn with_forced_lanes(mut self, lanes: Option<usize>) -> Self {
        self.forced_lanes = lanes;
        self
    }

    /// The estimation grid.
    pub fn grid(&self) -> &geom::sphere::SphericalGrid {
        &self.grid
    }

    /// Estimates every link of the batch (allocating convenience wrapper
    /// over [`Self::estimate_batch_into`]).
    pub fn estimate_batch(
        &self,
        scratch: &mut BatchScratch,
        links: &[&[SweepReading]],
    ) -> Vec<Option<LinkEstimate>> {
        let mut out = Vec::with_capacity(links.len());
        self.estimate_batch_into(scratch, links, &mut out);
        out
    }

    /// The batched estimate: packs the links' probe panels, sweeps the
    /// gains matrix once over the full grid, then finishes each link
    /// (energy prior, smoothing, argmax, parabolic refinement) in f64.
    /// `out` receives exactly one entry per link, in order.
    pub fn estimate_batch_into(
        &self,
        s: &mut BatchScratch,
        links: &[&[SweepReading]],
        out: &mut Vec<Option<LinkEstimate>>,
    ) {
        out.clear();
        let bt = links.len();
        if bt == 0 {
            return;
        }
        self.ctr_sweeps.inc();
        self.ctr_links.add(bt as u64);
        let mut span = obs::sink_active().then(|| obs::span("css.estimate_batch"));
        if let Some(sp) = &mut span {
            sp.field("batch", bt as f64);
        }
        let need = bt * self.grid.len();
        if s.maps.len() < need {
            s.maps.resize(need, 0.0);
        }
        fit(&mut s.inv_u, bt, 0.0);
        fit(&mut s.vv_max, bt, 0.0);
        fit(&mut s.usable, bt, 0);
        let joint = self.mode == CorrelationMode::JointSnrRssi;
        let prior = self.options.energy_prior;
        let forced = self.forced_lanes;
        match self.path {
            KernelPath::F64 => {
                self.pack(&mut s.pnl64, &mut s.inv_u, &mut s.usable, links);
                sweep_panel(
                    &self.nzv64,
                    &self.nz_rows,
                    &self.nz_off,
                    joint,
                    prior,
                    &s.pnl64,
                    bt,
                    forced,
                    &mut s.maps,
                    &mut s.vv_max,
                );
            }
            KernelPath::F32 => {
                self.pack(&mut s.pnl32, &mut s.inv_u, &mut s.usable, links);
                sweep_panel(
                    &self.nzv32,
                    &self.nz_rows,
                    &self.nz_off,
                    joint,
                    prior,
                    &s.pnl32,
                    bt,
                    forced,
                    &mut s.maps,
                    &mut s.vv_max,
                );
            }
        }
        for b in 0..bt {
            out.push(self.finish_link(s, b));
        }
    }

    /// Packs the links' readings into the active path's panel and hoists
    /// the per-link probe norms. Mirrors the scalar kernel's gather:
    /// unknown sectors and masked readings drop out entirely; the RSSI
    /// vector is shifted so its strongest reading lines up with the
    /// strongest SNR reading (computed in f64, then narrowed with the
    /// values).
    fn pack<T: PanelElem>(
        &self,
        pnl: &mut Vec<T>,
        inv_u: &mut [f64],
        usable: &mut [u32],
        links: &[&[SweepReading]],
    ) {
        let bt = links.len();
        fit(pnl, 3 * self.n_sectors * bt, T::ZERO);
        let joint = self.mode == CorrelationMode::JointSnrRssi;
        for (b, readings) in links.iter().enumerate() {
            let (mut max_rssi, mut max_snr_scaled) = (f64::NEG_INFINITY, 0.0f64);
            for m in readings.iter().filter_map(|r| r.measurement) {
                max_rssi = max_rssi.max(m.rssi_dbm);
                max_snr_scaled = max_snr_scaled.max(report_scale(m.snr_db));
            }
            let rssi_offset = max_snr_scaled - max_rssi;
            let (mut n, mut us, mut ur) = (0u32, T::ZERO, T::ZERO);
            for r in readings.iter() {
                let row = self.row_of[r.sector.raw() as usize];
                if row == u16::MAX {
                    continue;
                }
                let Some(m) = r.measurement else {
                    continue;
                };
                let vs = T::from_f64(report_scale(m.snr_db));
                let vr = T::from_f64((m.rssi_dbm + rssi_offset).max(0.0));
                let idx = row as usize * 3 * bt + b;
                pnl[idx] += vs;
                pnl[idx + bt] += vr;
                pnl[idx + 2 * bt] += T::ONE;
                us += vs * vs;
                ur += vr * vr;
                n += 1;
            }
            usable[b] = n;
            let (us, ur) = (us.to_f64(), ur.to_f64());
            inv_u[b] = if us <= f64::EPSILON || (joint && ur <= f64::EPSILON) {
                0.0
            } else if joint {
                1.0 / (us * ur)
            } else {
                1.0 / us
            };
        }
    }

    /// Per-link finish: smoothing, argmax, parabolic refinement —
    /// identical logic (and, on the `F64` path, matching arithmetic to
    /// ≤ 1e-12) to the scalar `estimate_with`. The sweep already wrote the
    /// prior-tilted (unnormalized) map; the deferred per-link factor
    /// `inv_u · vv_max^{-1/8}` (the prior's normalizer, 1 with the prior
    /// off) scales only the reported score. `None` when the link is
    /// degenerate (fewer than two usable probes, or zero expected energy
    /// everywhere).
    fn finish_link(&self, s: &mut BatchScratch, b: usize) -> Option<LinkEstimate> {
        if s.usable[b] < 2 || s.inv_u[b] == 0.0 {
            // A degenerate probe norm zeroes the scalar kernel's whole
            // map, which can never win the `> 0` argmax check — bail
            // before looking at the (unscaled) sweep output.
            return None;
        }
        let vv_max = s.vv_max[b];
        if vv_max.sqrt() <= f64::EPSILON {
            return None;
        }
        let inv_norm = if self.options.energy_prior {
            s.inv_u[b] / vv_max.sqrt().sqrt().sqrt()
        } else {
            s.inv_u[b]
        };
        let (n_az, n_el) = (self.grid.az.len(), self.grid.el.len());
        let n_grid = self.grid.len();
        let map = &s.maps[b * n_grid..(b + 1) * n_grid];
        let final_map: &[f64] = if self.options.smoothing {
            // The F64 path keeps division-form smoothing (bit parity with
            // the scalar kernel); the F32 path takes the
            // reciprocal-multiply variant, whose one-ulp drift is
            // invisible at its documented tolerance.
            match self.path {
                KernelPath::F64 => smooth_map_into(map, n_az, n_el, &mut s.smoothed),
                KernelPath::F32 => smooth_map_into_mul(map, n_az, n_el, &mut s.smoothed),
            }
            &s.smoothed
        } else {
            map
        };
        // Two-pass branchless argmax: an 8-lane max fold (maps are
        // NaN-free, so `max` is order-insensitive and the split chain
        // both vectorizes and breaks the serial `maxsd` dependency),
        // then the last index attaining it — the same
        // highest-index-among-equals tie-break as `Iterator::max_by`.
        let mut lanes = [f64::NEG_INFINITY; 8];
        let chunks = final_map.chunks_exact(8);
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
        for (i, &w) in final_map.iter().enumerate() {
            if w == best_w {
                best_i = i;
            }
        }
        if best_w <= 0.0 {
            return None;
        }
        // Parabolic sub-cell refinement. `best_w` and its neighbours share
        // the map's unnormalized scale (the offset is scale-invariant).
        let (el_i, az_i) = (best_i / n_az, best_i % n_az);
        let coarse = self.grid.direction(best_i);
        let score = best_w * inv_norm;
        if !self.options.subcell_refinement {
            return Some(LinkEstimate {
                direction: coarse,
                score,
                cell: best_i,
            });
        }
        let az_off = if az_i > 0 && az_i + 1 < n_az {
            parabolic_offset(final_map[best_i - 1], best_w, final_map[best_i + 1])
        } else {
            0.0
        };
        let el_off = if el_i > 0 && el_i + 1 < n_el {
            parabolic_offset(final_map[best_i - n_az], best_w, final_map[best_i + n_az])
        } else {
            0.0
        };
        Some(LinkEstimate {
            direction: Direction::new(
                coarse.az_deg + az_off * self.grid.az.step_deg,
                coarse.el_deg + el_off * self.grid.el.step_deg,
            ),
            score,
            cell: best_i,
        })
    }
}

/// Resizes `buf` to exactly `len` entries of `fill` (clearing first, so
/// stale values never leak between batches of different shapes).
fn fit<T: Copy>(buf: &mut Vec<T>, len: usize, fill: T) {
    buf.clear();
    buf.resize(len, fill);
}
