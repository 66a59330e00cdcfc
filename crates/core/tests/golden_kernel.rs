//! Golden-equivalence of the fused, tiled correlation kernel:
//!
//! * it must match the retained naive reference implementation to
//!   ≤ 1e-12 over randomized pattern stores, probe subsets, masks, and
//!   both correlation modes. The only intentional numerical deviation
//!   between the two paths is the energy prior (`powf(0.25)` vs two
//!   square roots), which differs by a few ulps on values in [0, 1] — far
//!   inside the tolerance;
//! * it must match a per-cell, reading-order sum written out below bit for
//!   bit, on grids whose sizes are not multiples of the kernel's tile, so
//!   tiling the sweep can never change a map value on any ISA.

use chamber::SectorPatterns;
use css::estimator::reference::ReferenceEstimator;
use css::estimator::{CompressiveEstimator, CorrelationMode, EstimatorOptions, EstimatorScratch};
use geom::rng::sub_rng;
use geom::sphere::{GridSpec, SphericalGrid};
use rand::rngs::StdRng;
use rand::Rng;
use talon_array::{GainPattern, SectorId};
use talon_channel::{Measurement, SweepReading};

const TOL: f64 = 1e-12;

/// A pattern store with random geometry and random (but plausible) gains.
fn random_store(rng: &mut StdRng) -> SectorPatterns {
    let az_step = [2.0, 3.0, 7.5][rng.gen_range(0..3usize)];
    let el = if rng.gen_bool(0.5) {
        GridSpec::fixed(0.0)
    } else {
        GridSpec::new(0.0, 30.0, 10.0)
    };
    let grid = SphericalGrid::new(GridSpec::new(-60.0, 60.0, az_step), el);
    let n_sectors = rng.gen_range(3..=20);
    let mut store = SectorPatterns::new(grid.clone());
    for s in 0..n_sectors {
        // Gains span below and above the report floor so the floor clamp
        // is exercised.
        let gains: Vec<f64> = (0..grid.len())
            .map(|_| rng.gen_range(-30.0..15.0))
            .collect();
        store.insert(
            SectorId(s as u8 + 1),
            GainPattern::from_table(grid.clone(), gains),
        );
    }
    store
}

/// Random readings over a random probe subset: some masked, some for
/// sectors the store has never measured.
fn random_readings(rng: &mut StdRng, store: &SectorPatterns) -> Vec<SweepReading> {
    let ids = store.sector_ids();
    let m = rng.gen_range(0..=ids.len());
    let subset = geom::rng::sample_indices(rng, ids.len(), m);
    let mut readings: Vec<SweepReading> = subset
        .into_iter()
        .map(|i| {
            let measurement = if rng.gen_bool(0.25) {
                None // masked: probed but nothing reported
            } else {
                let snr = rng.gen_range(-7.0..25.0);
                Some(Measurement {
                    snr_db: snr,
                    rssi_dbm: snr - 65.0 + rng.gen_range(-3.0..3.0),
                })
            };
            SweepReading {
                sector: ids[i],
                measurement,
            }
        })
        .collect();
    if rng.gen_bool(0.3) {
        readings.push(SweepReading {
            sector: SectorId(200), // no measured pattern
            measurement: Some(Measurement {
                snr_db: 10.0,
                rssi_dbm: -55.0,
            }),
        });
    }
    readings
}

fn assert_maps_match(fast: &[f64], golden: &[f64], ctx: &str) {
    assert_eq!(fast.len(), golden.len(), "{ctx}: map sizes");
    for (i, (a, b)) in fast.iter().zip(golden).enumerate() {
        assert!(
            (a - b).abs() <= TOL,
            "{ctx}: map[{i}] diverges: fast {a} vs golden {b} (|Δ| = {})",
            (a - b).abs()
        );
    }
}

/// Every combination of the two map-shaping options (refinement does not
/// touch the map).
const OPTION_GRID: [EstimatorOptions; 4] = [
    EstimatorOptions {
        energy_prior: true,
        smoothing: true,
        subcell_refinement: true,
    },
    EstimatorOptions {
        energy_prior: false,
        smoothing: true,
        subcell_refinement: false,
    },
    EstimatorOptions {
        energy_prior: true,
        smoothing: false,
        subcell_refinement: true,
    },
    EstimatorOptions {
        energy_prior: false,
        smoothing: false,
        subcell_refinement: false,
    },
];

#[test]
fn fused_kernel_matches_reference_over_randomized_inputs() {
    let mut rng = sub_rng(2024, "golden-kernel");
    let mut nontrivial = 0usize;
    for trial in 0..60 {
        let store = random_store(&mut rng);
        let readings = random_readings(&mut rng, &store);
        for mode in [CorrelationMode::SnrOnly, CorrelationMode::JointSnrRssi] {
            let options = OPTION_GRID[trial % OPTION_GRID.len()];
            let fast = CompressiveEstimator::new(&store, mode).with_options(options);
            let golden = ReferenceEstimator::new(&store, mode).with_options(options);
            let ctx = format!("trial {trial}, mode {mode:?}, options {options:?}");

            assert_maps_match(
                &fast.correlation_map(&readings),
                &golden.correlation_map(&readings),
                &ctx,
            );

            let a = fast.estimate(&readings);
            let b = golden.estimate(&readings);
            match (a, b) {
                (None, None) => {}
                (Some((da, wa)), Some((db, wb))) => {
                    nontrivial += 1;
                    assert!(
                        (da.az_deg - db.az_deg).abs() <= 1e-9
                            && (da.el_deg - db.el_deg).abs() <= 1e-9,
                        "{ctx}: directions diverge: {da} vs {db}"
                    );
                    assert!(
                        (wa - wb).abs() <= TOL,
                        "{ctx}: scores diverge: {wa} vs {wb}"
                    );
                }
                (a, b) => panic!("{ctx}: one path degenerate: fast {a:?} vs golden {b:?}"),
            }
        }
    }
    assert!(
        nontrivial >= 40,
        "randomization produced only {nontrivial} non-degenerate estimates"
    );
}

#[test]
fn scratch_reuse_does_not_perturb_results() {
    // One warm scratch across many different inputs must give the same
    // answers as fresh allocation every time.
    let mut rng = sub_rng(7, "golden-scratch");
    let store = random_store(&mut rng);
    let est = CompressiveEstimator::new(&store, CorrelationMode::JointSnrRssi);
    let mut scratch = EstimatorScratch::new();
    for _ in 0..25 {
        let readings = random_readings(&mut rng, &store);
        let warm = est.estimate_with(&mut scratch, &readings);
        let cold = est.estimate_with(&mut EstimatorScratch::new(), &readings);
        assert_eq!(warm, cold, "warm scratch must not leak state");
    }
}

/// The firmware's SNR report floor, dB: the correlation domain is dB above
/// it, clipped at zero.
const REPORT_FLOOR_DB: f64 = -7.0;

/// The Eq. 2/3/5 map written out one cell at a time, in the kernel's
/// arithmetic: the probe gather, then per cell `Σ x²`, `Σ p_snr·x` and
/// `Σ p_rssi·x` over the usable probes in reading order starting from
/// 0.0, the squared normalized correlations, the two-square-root energy
/// prior and the clamped 3×3 box smoothing (rows ascending, then columns).
fn per_cell_map(
    store: &SectorPatterns,
    mode: CorrelationMode,
    options: EstimatorOptions,
    readings: &[SweepReading],
) -> Vec<f64> {
    let scale = |db: f64| (db - REPORT_FLOOR_DB).max(0.0);
    let usable = |r: &SweepReading| {
        r.measurement
            .filter(|m| m.snr_db.is_finite() && m.rssi_dbm.is_finite())
    };
    let (mut max_rssi, mut max_snr) = (f64::NEG_INFINITY, 0.0f64);
    for m in readings.iter().filter_map(usable) {
        max_rssi = max_rssi.max(m.rssi_dbm);
        max_snr = max_snr.max(scale(m.snr_db));
    }
    let offset = max_snr - max_rssi;
    // (gain table, report-scale SNR, shifted RSSI) per usable probe.
    let probes: Vec<(&[f64], f64, f64)> = readings
        .iter()
        .filter_map(|r| {
            let table = &store.get(r.sector)?.gain_db;
            let m = usable(r)?;
            Some((
                table.as_slice(),
                scale(m.snr_db),
                (m.rssi_dbm + offset).max(0.0),
            ))
        })
        .collect();
    let n_grid = store.grid().len();
    let mut map = vec![0.0; n_grid];
    if probes.len() < 2 {
        return map;
    }
    let (mut uu_snr, mut uu_rssi) = (0.0f64, 0.0f64);
    for &(_, ps, pr) in &probes {
        uu_snr += ps * ps;
        uu_rssi += pr * pr;
    }
    let corr_sq = |uv: f64, uu: f64, vv: f64, sv: f64| {
        if uu <= f64::EPSILON || vv <= f64::EPSILON {
            0.0
        } else {
            let c = uv / (uu.sqrt() * sv);
            c * c
        }
    };
    let mut energy = vec![0.0; n_grid];
    for g in 0..n_grid {
        let (mut vv, mut uv_snr, mut uv_rssi) = (0.0f64, 0.0f64, 0.0f64);
        for &(table, ps, pr) in &probes {
            let x = scale(table[g]);
            vv += x * x;
            uv_snr += ps * x;
            uv_rssi += pr * x;
        }
        let sv = vv.sqrt();
        energy[g] = sv;
        let w_snr = corr_sq(uv_snr, uu_snr, vv, sv);
        map[g] = match mode {
            CorrelationMode::SnrOnly => w_snr,
            CorrelationMode::JointSnrRssi => w_snr * corr_sq(uv_rssi, uu_rssi, vv, sv),
        };
    }
    let energy_max = energy.iter().fold(0.0f64, |a, &e| a.max(e));
    if energy_max <= f64::EPSILON {
        return vec![0.0; n_grid];
    }
    if options.energy_prior {
        for (w, &e) in map.iter_mut().zip(&energy) {
            *w *= (e / energy_max).sqrt().sqrt();
        }
    }
    if !options.smoothing {
        return map;
    }
    let (n_az, n_el) = (store.grid().az.len(), store.grid().el.len());
    let mut smoothed = vec![0.0; n_grid];
    for e in 0..n_el {
        for a in 0..n_az {
            let (mut acc, mut cnt) = (0.0f64, 0.0f64);
            for de in e.saturating_sub(1)..=(e + 1).min(n_el - 1) {
                for da in a.saturating_sub(1)..=(a + 1).min(n_az - 1) {
                    acc += map[de * n_az + da];
                    cnt += 1.0;
                }
            }
            smoothed[e * n_az + a] = acc / cnt;
        }
    }
    smoothed
}

/// Replaces the SNR or the RSSI of some measured readings with NaN or
/// ±∞ (trace input is not range-checked); returns how many it spoiled.
fn spoil_some(rng: &mut StdRng, readings: &mut [SweepReading]) -> usize {
    let mut spoiled = 0;
    for m in readings.iter_mut().filter_map(|r| r.measurement.as_mut()) {
        if rng.gen_bool(0.2) {
            let bad = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][rng.gen_range(0..3usize)];
            if rng.gen_bool(0.5) {
                m.snr_db = bad;
            } else {
                m.rssi_dbm = bad;
            }
            spoiled += 1;
        }
    }
    spoiled
}

#[test]
fn tiled_kernel_equals_per_cell_sums_bit_for_bit() {
    let mut rng = sub_rng(36, "golden-kernel-bits");
    let (mut sizes, mut masked, mut non_finite, mut few, mut lit) =
        (Vec::new(), 0usize, 0usize, 0usize, 0usize);
    for trial in 0..80 {
        let store = random_store(&mut rng);
        sizes.push(store.grid().len());
        let mut readings = random_readings(&mut rng, &store);
        if trial % 2 == 1 {
            non_finite += spoil_some(&mut rng, &mut readings);
        }
        if trial % 5 == 4 {
            // Keep at most one usable probe: the map must stay flat zero.
            let mut seen = 0;
            readings.retain(|r| {
                let ok = r
                    .measurement
                    .is_some_and(|m| m.snr_db.is_finite() && m.rssi_dbm.is_finite());
                seen += usize::from(ok);
                !ok || seen <= trial % 2
            });
            few += 1;
        }
        masked += readings.iter().filter(|r| r.measurement.is_none()).count();
        for mode in [CorrelationMode::SnrOnly, CorrelationMode::JointSnrRssi] {
            for options in OPTION_GRID {
                let est = CompressiveEstimator::new(&store, mode).with_options(options);
                let fast = est.correlation_map(&readings);
                let oracle = per_cell_map(&store, mode, options, &readings);
                let ctx = format!("trial {trial}, mode {mode:?}, options {options:?}");
                assert_eq!(fast.len(), oracle.len(), "{ctx}: map sizes");
                for (g, (a, b)) in fast.iter().zip(&oracle).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "{ctx}: map[{g}] is {a:e}, per-cell sum {b:e}"
                    );
                }
                lit += usize::from(fast.iter().any(|&w| w > 0.0));
            }
        }
    }
    // Every grid size the stores can take, none a multiple of the tile.
    assert!(
        [17, 41, 61, 68, 164, 244].iter().all(|n| sizes.contains(n)),
        "grid sizes drawn: {sizes:?}"
    );
    assert!(
        masked > 0 && non_finite > 0 && few > 0,
        "masked {masked}, non-finite {non_finite}, few {few}"
    );
    assert!(lit >= 200, "only {lit} maps had a lit cell");
}
