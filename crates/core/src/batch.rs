//! GEMM-shaped batched estimation: B concurrent links against one sweep
//! of a sparse, grid-major copy of the scalar estimator's gains.
//!
//! The fused scalar kernel ([`crate::estimator`]) streams the probed rows
//! of its sector-major `sectors × grid` gain matrix once **per link**. A
//! multi-link daemon serving thousands of stations re-reads the same
//! matrix thousands of times per scheduling epoch — pure memory traffic. This module amortizes
//! the traversal: the probe vectors of `B` links are packed into
//! sector-major **panels** (`panel[s * B + b]` = link `b`'s reading for
//! sector row `s`), and one sweep over the grid computes, per grid point
//! `g`, the correlation inputs of all `B` links at once — the classic
//! `(grid × sectors) · (sectors × B)` GEMM shape:
//!
//! ```text
//! uv[g][b] = Σ_s x[s][g] · panel[s·B + b]        (probe·pattern)
//! vv[g][b] = Σ_s x[s][g]² · mask[s·B + b]        (pattern energy)
//! ```
//!
//! The gain matrix is stored **sparsely**: the −7 dB report-floor clip
//! (`report_scale`) zeroes every gain a sector does not actually cast
//! toward a grid point, and a zero gain contributes exactly `+0.0` to
//! every accumulator — all terms are non-negative, so no
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
//! The sweep runs in exact f64 and matches the scalar fused kernel to
//! ≤ 1e-12. Per-link sums run in ascending sector order *regardless of
//! lane width*, so the 1-, 4-, 8- and 16-lane kernels are bit-identical.
//! The correlation `w = ⟨p,x⟩² / (‖p‖²‖x‖²)` is computed from the raw
//! accumulators without square roots; the per-link finish (energy prior
//! normalizer, smoothing, argmax, parabolic refinement) shares its gather,
//! argmax and refinement with the scalar kernel.

use crate::estimator::{
    argmax, probe_triples, smooth_map_into, subcell_offsets_deg, CompressiveEstimator,
    CorrelationMode, EstimatorOptions,
};
use chamber::SectorPatterns;
use geom::sphere::Direction;
use talon_channel::SweepReading;

/// The wide-lane inner kernel: one grid point against `L` adjacent link
/// lanes. `vals`/`rows` are the grid point's lit `(gain, sector-row)`
/// pairs from the sparse matrix. `L` accumulators live in registers; the
/// per-lane sum order is ascending sector row for every `L`, so lane
/// width never changes a link's result. Written as plain indexed loops
/// over `[f64; L]`-shaped slices — the autovectorizer turns the lane loop
/// into SIMD without any `std::arch` (this crate forbids `unsafe`).
#[inline]
fn gemm_point<const L: usize>(
    vals: &[f64],
    rows: &[u16],
    pnl: &[f64],
    b0: usize,
    stride: usize,
    joint: bool,
) -> ([f64; L], [f64; L], [f64; L]) {
    let mut uvs = [0.0; L];
    let mut uvr = [0.0; L];
    let mut vv = [0.0; L];
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
/// → 1). Lane width never changes a link's bits (each lane's sums are
/// independent), so widening is purely a throughput choice.
fn lane_width(rem: usize) -> usize {
    match rem {
        16.. => 16,
        8.. => 8,
        4.. => 4,
        _ => 1,
    }
}

/// Sweeps the panel against the whole grid for every link, writing the
/// correlation `w` (prior-tilted when `prior` is set) of every (cell,
/// link) pair link-major at `maps[b * n_grid + g]` and folding each
/// link's maximum pattern energy `max_g ‖x_g‖²` into `vv_max` (cells
/// ascending — the same fold order, hence the same bits, as a scan over a
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
fn sweep_panel(
    nz_vals: &[f64],
    nz_rows: &[u16],
    nz_off: &[u32],
    joint: bool,
    prior: bool,
    pnl: &[f64],
    bt: usize,
    maps: &mut [f64],
    vv_max: &mut [f64],
) {
    /// One (cell, lane-group) tail, folding the lanes' energies into
    /// `vvm`. Monomorphized over mode and prior so the per-lane loop is
    /// branch-free: the dark-cell guard selects the *denominator* (1 for
    /// dark cells, whose numerator is exactly 0 — no probed sector is
    /// lit, so `uvs = 0` whenever `vv = 0`), which keeps the division
    /// exception-free and lets the whole div/sqrt chain pack into SIMD
    /// lanes instead of predicting a branch per link.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    fn emit<const L: usize, const JOINT: bool, const PRIOR: bool>(
        vals: &[f64],
        rows: &[u16],
        pnl: &[f64],
        b0: usize,
        bt: usize,
        g: usize,
        n_grid: usize,
        maps: &mut [f64],
        vvm: &mut [f64],
    ) {
        let (uvs, uvr, vv) = gemm_point::<L>(vals, rows, pnl, b0, bt, JOINT);
        let mut w = [0.0; L];
        for l in 0..L {
            let dark = vv[l] <= f64::EPSILON;
            let num = if JOINT {
                (uvs[l] * uvs[l]) * (uvr[l] * uvr[l])
            } else {
                uvs[l] * uvs[l]
            };
            let den = if JOINT { vv[l] * vv[l] } else { vv[l] };
            let den = if dark { 1.0 } else { den };
            let quot = num / den;
            let quot = if dark { 0.0 } else { quot };
            w[l] = if PRIOR {
                quot * vv[l].sqrt().sqrt().sqrt()
            } else {
                quot
            };
            vvm[l] = vvm[l].max(vv[l]);
        }
        for l in 0..L {
            maps[(b0 + l) * n_grid + g] = w[l];
        }
    }
    fn run<const JOINT: bool, const PRIOR: bool>(
        nz_vals: &[f64],
        nz_rows: &[u16],
        nz_off: &[u32],
        pnl: &[f64],
        bt: usize,
        maps: &mut [f64],
        vv_max: &mut [f64],
    ) {
        let n_grid = nz_off.len() - 1;
        for g in 0..n_grid {
            let (lo, hi) = (nz_off[g] as usize, nz_off[g + 1] as usize);
            let (vals, rows) = (&nz_vals[lo..hi], &nz_rows[lo..hi]);
            let mut b0 = 0;
            while b0 < bt {
                let lanes = lane_width(bt - b0);
                let vvm = &mut vv_max[b0..b0 + lanes];
                match lanes {
                    16 => emit::<16, JOINT, PRIOR>(vals, rows, pnl, b0, bt, g, n_grid, maps, vvm),
                    8 => emit::<8, JOINT, PRIOR>(vals, rows, pnl, b0, bt, g, n_grid, maps, vvm),
                    4 => emit::<4, JOINT, PRIOR>(vals, rows, pnl, b0, bt, g, n_grid, maps, vvm),
                    _ => emit::<1, JOINT, PRIOR>(vals, rows, pnl, b0, bt, g, n_grid, maps, vvm),
                }
                b0 += lanes;
            }
        }
    }
    let run = match (joint, prior) {
        (true, true) => run::<true, true>,
        (true, false) => run::<true, false>,
        (false, true) => run::<false, true>,
        (false, false) => run::<false, false>,
    };
    run(nz_vals, nz_rows, nz_off, pnl, bt, maps, vv_max);
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

/// Reusable buffers of [`BatchEstimator::estimate_batch`]: the probe
/// panel, per-link norms and per-link correlation maps. A warm scratch
/// allocates nothing but the output vector.
#[derive(Debug, Default)]
pub struct BatchScratch {
    /// Sector-major interleaved panel (probe | shifted-RSSI | mask planes
    /// per row, `bt` apart).
    pnl: Vec<f64>,
    /// Per-link reciprocal probe-norm product `1/(uu_snr·uu_rssi)` (or
    /// `1/uu_snr` in SNR-only mode); exactly 0.0 for degenerate links,
    /// which zeroes every correlation like the scalar kernel's ε-guards.
    inv_u: Vec<f64>,
    /// Per-link usable (pattern-matched, measured) reading count.
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

/// The batched multi-link estimator: the scalar estimator's pattern
/// matrix, re-packed once into grid-major sparse form.
pub struct BatchEstimator {
    /// Sector rows of the lit `(gain, row)` pairs per grid point, CSR
    /// concatenated in ascending row order (the report-floor clip makes
    /// the scalar kernel's gains matrix sparse; zeros contribute nothing,
    /// so they are dropped at build time — see the module docs).
    nz_rows: Vec<u16>,
    /// `n_grid + 1` prefix offsets into the `nz_*` arrays.
    nz_off: Vec<u32>,
    /// Report-scale values of the lit pairs.
    nz_vals: Vec<f64>,
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
    /// Cached metric handles.
    ctr_links: std::sync::Arc<obs::Counter>,
    ctr_sweeps: std::sync::Arc<obs::Counter>,
}

impl BatchEstimator {
    /// Builds a batched estimator from a measured pattern database, with
    /// the scalar estimator's pattern matrix.
    pub fn new(
        patterns: &SectorPatterns,
        mode: CorrelationMode,
        options: EstimatorOptions,
    ) -> Self {
        let est = CompressiveEstimator::new(patterns, mode);
        let n_grid = est.grid().len();
        let n_s = est.n_sectors;
        let mut nz_rows = Vec::new();
        let mut nz_vals = Vec::new();
        let mut nz_off = Vec::with_capacity(n_grid + 1);
        nz_off.push(0u32);
        for g in 0..n_grid {
            for s in 0..n_s {
                let x = est.gains[s * est.n_pad + g];
                if x != 0.0 {
                    nz_rows.push(s as u16);
                    nz_vals.push(x);
                }
            }
            nz_off.push(nz_rows.len() as u32);
        }
        BatchEstimator {
            nz_rows,
            nz_off,
            nz_vals,
            n_sectors: n_s,
            row_of: est.row_of,
            grid: est.grid().clone(),
            mode,
            options,
            ctr_links: obs::counter("css.batch_estimates"),
            ctr_sweeps: obs::counter("css.batch_sweeps"),
        }
    }

    /// The estimation grid.
    pub fn grid(&self) -> &geom::sphere::SphericalGrid {
        &self.grid
    }

    /// The batched estimate: packs the links' probe panels, sweeps the
    /// gains matrix once over the full grid, then finishes each link
    /// (energy prior, smoothing, argmax, parabolic refinement). Returns
    /// exactly one entry per link, in order.
    pub fn estimate_batch(
        &self,
        s: &mut BatchScratch,
        links: &[&[SweepReading]],
    ) -> Vec<Option<LinkEstimate>> {
        let bt = links.len();
        if bt == 0 {
            return Vec::new();
        }
        self.ctr_sweeps.inc();
        self.ctr_links.add(bt as u64);
        let mut span = obs::sink_active().then(|| obs::span!("css.estimate_batch"));
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
        self.pack(s, links);
        sweep_panel(
            &self.nz_vals,
            &self.nz_rows,
            &self.nz_off,
            self.mode == CorrelationMode::JointSnrRssi,
            self.options.energy_prior,
            &s.pnl,
            bt,
            &mut s.maps,
            &mut s.vv_max,
        );
        (0..bt).map(|b| self.finish_link(s, b)).collect()
    }

    /// Packs the links' readings into the panel and hoists the per-link
    /// probe norms, through the scalar kernel's own gather (see
    /// [`probe_triples`]).
    fn pack(&self, s: &mut BatchScratch, links: &[&[SweepReading]]) {
        let bt = links.len();
        fit(&mut s.pnl, 3 * self.n_sectors * bt, 0.0);
        let joint = self.mode == CorrelationMode::JointSnrRssi;
        for (b, readings) in links.iter().enumerate() {
            let (mut n, mut us, mut ur) = (0u32, 0.0f64, 0.0f64);
            for (row, vs, vr) in probe_triples(&self.row_of, readings) {
                let idx = row as usize * 3 * bt + b;
                s.pnl[idx] += vs;
                s.pnl[idx + bt] += vr;
                s.pnl[idx + 2 * bt] += 1.0;
                us += vs * vs;
                ur += vr * vr;
                n += 1;
            }
            s.usable[b] = n;
            s.inv_u[b] = if us <= f64::EPSILON || (joint && ur <= f64::EPSILON) {
                0.0
            } else if joint {
                1.0 / (us * ur)
            } else {
                1.0 / us
            };
        }
    }

    /// Per-link finish: smoothing, argmax, parabolic refinement — the
    /// scalar `estimate_with`'s own smoothing, argmax and refinement. The
    /// sweep already wrote the prior-tilted (unnormalized) map; the
    /// deferred per-link factor `inv_u · vv_max^{-1/8}` (the prior's
    /// normalizer, 1 with the prior off) scales only the reported score.
    /// `None` when the link is degenerate (fewer than two usable probes,
    /// or zero expected energy everywhere).
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
            smooth_map_into(map, n_az, n_el, &mut s.smoothed);
            &s.smoothed
        } else {
            map
        };
        let (cell, best_w) = argmax(final_map);
        if best_w <= 0.0 {
            return None;
        }
        // `best_w` and its neighbours share the map's unnormalized scale
        // (the sub-cell offset is scale-invariant).
        let coarse = self.grid.direction(cell);
        let direction = if self.options.subcell_refinement {
            let (daz, del) = subcell_offsets_deg(&self.grid, final_map, cell);
            Direction::new(coarse.az_deg + daz, coarse.el_deg + del)
        } else {
            coarse
        };
        Some(LinkEstimate {
            direction,
            score: best_w * inv_norm,
            cell,
        })
    }
}

/// Resizes `buf` to exactly `len` entries of `fill` (clearing first, so
/// stale values never leak between batches of different shapes).
fn fit<T: Copy>(buf: &mut Vec<T>, len: usize, fill: T) {
    buf.clear();
    buf.resize(len, fill);
}
